//! One run of one workload: the untraced passes that produce the end-to-end
//! metrics, or the traced pass plus layer replay that produces the per-layer
//! ones.

use crate::engine::{layer_replay, BackendKind, Metrics};
use crate::probe::SpeedProbe;
use crate::procstat::peak_rss_mb;
use crate::spec::{BENCH_DIR, END_TO_END, PER_LAYER};
use crate::stats::{iqr_frac, median, percentile};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{run_pass, Pass, Shape, Workload};
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;

/// Passes (fresh engine, fresh inputs) an untraced run splits its window
/// into: three set-ups give `setup_s` a median, and the round-1 checksum
/// must agree across them.
pub const PASSES: usize = 3;

/// Share of the window the traced pass measures for; the layer replay takes
/// the rest.
const TRACED_SHARE: f64 = 0.5;

/// What a run reports: the acceptance driver's four keys, plus notes for
/// the human on stderr.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where trace files go: `benchmark/out/` under the working directory (the
/// checkout root the command is run from).
pub fn out_dir() -> PathBuf {
    PathBuf::from(BENCH_DIR).join("out")
}

/// Orders `values` by `table`, reporting 0 for a layer a workload does not
/// exercise and refusing names the contract does not declare.
fn tabulate(table: &[crate::spec::MetricDef], values: &Metrics, result: &mut RunResult) {
    for name in values.keys() {
        if !table.iter().any(|m| m.name == *name) {
            result
                .notes
                .push(format!("metric `{name}` is not declared"));
            result.correct = false;
        }
    }
    for m in table {
        let mut value = values.get(m.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            // JSON has no NaN or infinity: report 0 and fail the run.
            result.notes.push(format!("metric `{}` is {value}", m.name));
            result.correct = false;
            value = 0.0;
        }
        result.metrics.push((m.name, value, m.unit));
    }
}

fn tally(passes: &[Pass], result: &mut RunResult) {
    result.attempted = passes.iter().map(|p| p.offers).sum::<u64>().max(1);
    result.failed = passes.iter().map(|p| p.failed).sum();
    for (n, pass) in passes.iter().enumerate() {
        for error in &pass.errors {
            result.notes.push(format!("pass {n}: {error}"));
        }
    }
    result.correct = result.failed == 0 && passes.iter().all(|p| p.errors.is_empty());
    let first = &passes[0];
    for (n, pass) in passes.iter().enumerate().skip(1) {
        if pass.checksum != first.checksum {
            result.notes.push(format!(
                "round-1 checksum differs: pass 0 {:016x}, pass {n} {:016x}",
                first.checksum, pass.checksum
            ));
            result.correct = false;
        }
        if pass.final_quality != first.final_quality {
            result.notes.push(format!(
                "final loss/accuracy differ: pass 0 {:?}, pass {n} {:?}",
                first.final_quality, pass.final_quality
            ));
            result.correct = false;
        }
    }
}

/// The untraced run: [`PASSES`] passes, samples pooled. Every time-derived
/// metric is reported at reference machine speed (see `probe.rs`): each
/// round's times are multiplied by the speed the probe read just before it.
pub fn run_untraced(workload: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut probe = SpeedProbe::new();
    let mut passes = Vec::new();
    for _ in 0..PASSES {
        let slice_s = seconds / PASSES as f64;
        let outcome = run_pass(workload, seed, slice_s, &mut tracer, &mut probe, false)?;
        passes.push(outcome.pass);
    }
    let mut result = RunResult::default();
    tally(&passes, &mut result);

    let scaled: Vec<[f64; 3]> = passes.iter().flat_map(Pass::at_reference_speed).collect();
    let column = |k: usize| -> Vec<f64> { scaled.iter().map(|row| row[k]).collect() };
    let updates: u64 = passes.iter().map(|p| p.updates).sum();
    let updates = updates.max(1) as f64;
    let round_ms = column(0);
    let timed_s = round_ms.iter().sum::<f64>() / 1e3;
    // CPU time is read once per pass, so it is scaled by the pass's mean
    // speed, weighted by where the pass spent its time.
    let cpu_s: f64 = passes
        .iter()
        .map(|p| {
            let at_reference: f64 = p.at_reference_speed().iter().map(|row| row[0]).sum();
            p.cpu_s * at_reference / (p.timed_s() * 1e3).max(1e-9)
        })
        .sum();
    let wire: u64 = passes.iter().map(|p| p.wire_bytes).sum();
    // One probe reading is itself a tenth noisy, so set-up is scaled by the
    // median of the reading taken as it ended and those of the first rounds.
    let setups: Vec<f64> = passes
        .iter()
        .map(|p| {
            let nearby = p.speed.iter().take(4).map(|s| s.serial);
            let speeds: Vec<f64> = nearby.chain([p.setup_speed]).collect();
            p.setup_s * median(&speeds)
        })
        .collect();
    let mut m = Metrics::new();
    m.insert("round_ms", median(&round_ms));
    m.insert("ingest_ms", median(&column(1)));
    m.insert("act_ms", median(&column(2)));
    m.insert("updates_per_s", updates / timed_s.max(1e-9));
    m.insert("cpu_ms_per_update", cpu_s * 1e3 / updates);
    m.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    m.insert("wire_bytes_per_update", wire as f64 / updates);
    m.insert("model_err_ppm", median(&passes[0].rel_errs) * 1e6);
    m.insert("setup_s", median(&setups));
    tabulate(END_TO_END, &m, &mut result);

    let raw = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let raw_ms = raw(|p| &p.round_ms);
    let (serial, parallel) = median_speed(&probe);
    result.notes.push(format!(
        "{}: {PASSES} passes, {} timed rounds, {:.2} s timed; as the clock read them: round \
         median {:.3} ms, p90 {:.3} ms, act median {:.3} ms; machine speed serial {serial:.3} \
         parallel {parallel:.3} (medians of {} probe readings); round-1 checksum {:016x}",
        workload.name,
        raw_ms.len(),
        raw_ms.iter().sum::<f64>() / 1e3,
        median(&raw_ms),
        percentile(&raw_ms, 0.9),
        median(&raw(|p| &p.act_ms)),
        probe.readings().len(),
        passes[0].checksum,
    ));
    if let Some((loss, accuracy)) = passes[0].final_quality {
        result.notes.push(format!(
            "final train loss {loss:.6}, accuracy {accuracy:.2}%"
        ));
    }
    Ok(result)
}

/// Median serial and parallel speed over a probe's readings.
fn median_speed(probe: &SpeedProbe) -> (f64, f64) {
    let column = |f: fn(&crate::probe::Speed) -> f64| -> Vec<f64> {
        probe.readings().iter().map(f).collect()
    };
    (
        median(&column(|s| s.serial)),
        median(&column(|s| s.parallel)),
    )
}

/// Per-layer replay costs weighted by how often one round pays them: the
/// part of a round the layer budget can account for.
fn attributed_ns(workload: &Workload, m: &Metrics, tree_critical_ns: f64) -> f64 {
    let ops = workload.path_ops();
    let cost = |name: &str| m.get(name).copied().unwrap_or(0.0);
    ops.feedback_encodes * cost("codec.feedback_encode_ns_per_update")
        + ops.gateway_ingests * cost("gateway.ingest_ns_per_update")
        + ops.parked_offers * cost("admission.offer_ns")
        + ops.drained_offers * cost("admission.take_best_ns")
        + ops.departs * cost("session.depart_client_ns")
        + ops.tree_runs * tree_critical_ns
        + ops.decodes * cost("codec.decode_into_ns")
        + ops.cluster_tops * cost("aggregator.top_run_ns")
        + ops.local_trains * cost("training.local_train_ns_per_client")
        + ops.evaluates * cost("training.evaluate_ns")
}

/// The traced run: one pass with the span recorder on for every other
/// round, the span file, then the single-threaded layer replay of round 1.
pub fn run_traced(workload: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut probe = SpeedProbe::new();
    let slice_s = seconds * TRACED_SHARE;
    let mut outcome = run_pass(workload, seed, slice_s, &mut tracer, &mut probe, true)?;
    let mut result = RunResult::default();
    tally(std::slice::from_ref(&outcome.pass), &mut result);

    let dir = out_dir();
    let path = dir.join(format!("trace-{}.jsonl", workload.name));
    let written = fs::create_dir_all(&dir)
        .and_then(|()| fs::File::create(&path))
        .and_then(|file| tracer.write_jsonl(workload.name, &mut BufWriter::new(file)));
    match written {
        Ok(()) => result.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(error) => {
            result
                .notes
                .push(format!("cannot write {}: {error}", path.display()));
            result.correct = false;
        }
    }

    // Where the traced rounds spent their time, by span name: a span's self
    // time is its duration minus what its child spans cover, so `round`'s
    // self time is what the load generator itself added between calls.
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (span, own_ns) in tracer.spans().iter().zip(self_times_ns(tracer.spans())) {
        let slot = by_name.entry(span.name).or_default();
        slot.0 += own_ns;
        slot.1 += 1;
    }
    for (name, (own_ns, count)) in by_name {
        result.notes.push(format!(
            "span {name}: {count} calls, self time {:.3} ms in all",
            own_ns as f64 / 1e6
        ));
    }

    // The replay runs seconds after the rounds it is compared with, maybe
    // at another machine speed: read the probe on both sides of it.
    let replay_speed_before = probe.speed().serial;
    let replay = layer_replay(&workload.spec, &outcome.pass.replay_inputs, cores())?;
    let mut m = replay.metrics;
    if let Some(engine) = outcome.train_engine() {
        engine.replay_training(16, &mut m);
    }
    let replay_speed = (replay_speed_before + probe.speed().serial) / 2.0;
    let pass = &outcome.pass;
    let rounds = pass.rounds().max(1) as f64;
    let split = |values: &[f64], traced: bool| -> Vec<f64> {
        values
            .iter()
            .zip(&pass.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(v, _)| *v)
            .collect()
    };
    let untraced = split(&pass.round_ms, false);
    let round_ns = median(&untraced) * 1e6;
    let capacity = workload.spec.round_capacity() as f64;

    let lifetime_rounds = rounds + f64::from(workload.warmup);
    m.insert(
        "store.puts_per_round",
        pass.store_puts as f64 / lifetime_rounds,
    );
    m.insert("store.peak_mb", pass.store_peak_bytes as f64 / 1e6);
    let (c, c0) = (pass.counters, pass.counters_before);
    let checkouts = (c.pool_hits - c0.pool_hits) + (c.pool_misses - c0.pool_misses);
    if checkouts > 0 {
        let hits = (c.pool_hits - c0.pool_hits) as f64;
        m.insert("pool.hit_rate", hits / checkouts as f64);
    }
    m.insert("pool.peak_idle_mb", c.pool_peak_idle_bytes as f64 / 1e6);
    let per_burst = |now: u64, before: u64| (now - before) as f64 / rounds;
    m.insert(
        "admission.queued_per_burst",
        per_burst(c.admission_queued, c0.admission_queued),
    );
    m.insert(
        "admission.drained_per_burst",
        per_burst(c.admission_drained, c0.admission_drained),
    );
    m.insert(
        "admission.rejected_per_burst",
        per_burst(c.admission_rejected, c0.admission_rejected),
    );
    m.insert("admission.peak_queued", c.admission_peak_queued as f64);

    if workload.spec.kind == BackendKind::Cluster {
        let ingest_ns = median(&split(&pass.ingest_ms, false)) * 1e6 / capacity;
        m.insert("cluster.try_ingest_ns_per_update", ingest_ns);
        let session_ns = m
            .get("session.try_ingest_ns_per_update")
            .copied()
            .unwrap_or(0.0);
        m.insert(
            "cluster.routing_overhead_ns_per_update",
            ingest_ns - session_ns,
        );
        m.insert(
            "cluster.drive_ns",
            median(&split(&pass.act_ms, false)) * 1e6,
        );
        m.insert("cluster.hops_per_round", pass.hops as f64 / rounds);
        m.insert(
            "cluster.hop_wire_mb_per_round",
            pass.hop_wire_bytes as f64 / 1e6 / rounds,
        );
        m.insert("cluster.modelled_hop_ms", pass.modelled_hop_ms / rounds);
        m.insert("cluster.top_moves", pass.top_moves as f64);
    }
    if let Shape::Train { .. } = workload.shape {
        m.insert("training.run_round_ns", round_ns);
        // Time inside the backend's ingest and aggregate calls, as the
        // timing `Ingest` wrapper saw it, over the whole `run_round`.
        let backend_ms: f64 = pass.ingest_ms.iter().chain(&pass.act_ms).sum();
        m.insert(
            "training.backend_share",
            backend_ms / (pass.timed_s() * 1e3).max(1e-9),
        );
        if let Some((loss, accuracy)) = pass.final_quality {
            m.insert("training.final_train_loss", loss);
            m.insert("training.final_accuracy_pct", accuracy);
        }
    }

    let (serial, parallel) = median_speed(&probe);
    m.insert("harness.machine_speed_serial", serial);
    m.insert("harness.machine_speed_parallel", parallel);
    m.insert("harness.clone_ms_per_round", pass.harness_s * 1e3 / rounds);
    m.insert("harness.round_p90_ms", percentile(&untraced, 0.9));
    m.insert("harness.round_iqr_frac", iqr_frac(&untraced));
    // Both ratios below compare intervals measured at different moments,
    // so they are taken at reference machine speed.
    let at_reference: Vec<f64> = pass.at_reference_speed().iter().map(|r| r[0]).collect();
    let reference_ns = median(&split(&at_reference, false)) * 1e6;
    let traced = split(&at_reference, true);
    if !traced.is_empty() && reference_ns > 0.0 {
        m.insert(
            "harness.trace_overhead_frac",
            median(&traced) * 1e6 / reference_ns - 1.0,
        );
    }
    let attributed = attributed_ns(workload, &m, replay.tree_critical_ns);
    m.insert(
        "harness.unattributed_frac",
        1.0 - attributed * replay_speed / reference_ns.max(1.0),
    );
    tabulate(PER_LAYER, &m, &mut result);
    result.notes.push(format!(
        "{}: traced pass of {} rounds ({} with spans), round median {:.3} ms, \
         layer replay accounts for {:.3} ms of it",
        workload.name,
        pass.rounds(),
        traced.len(),
        round_ns / 1e6,
        attributed / 1e6,
    ));
    Ok(result)
}
