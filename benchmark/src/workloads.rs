//! The five workloads and the closed-loop load generator that runs them.
//!
//! Method (the same on every commit): one load-generating thread; the engine
//! spawns whatever threads it spawns. A run is a few *passes*; each pass
//! builds a fresh engine from the seed (that is `setup_s`), warms it up,
//! then drives rounds back to back for its slice of the measuring window.
//! Inputs are cloned into engine updates outside the timed region; the time
//! that takes is recorded and taken off the process CPU time.

use crate::engine::{
    dense_update, AdmissionOutcome, Backend, BackendKind, CodecKind, EngineSpec, LayerCounters,
    RoundOutput, TrainEngine, TrainSpec, Update,
};
use crate::inputs::{fnv1a, generate, reference_fedavg, relative_l2, ClientInput, Rng};
use crate::probe::{Speed, SpeedProbe};
use crate::procstat::process_cpu_seconds;
use crate::trace::Tracer;
use std::time::Instant;

/// How a workload loads the engine.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Exact-fill rounds: offer one round's worth of dense updates, drive.
    /// `population` clients take turns, one round's worth at a time.
    Rounds { population: usize },
    /// Over-offered bursts against bounded admission: `surplus` offers park,
    /// `departs` admitted clients leave (the backlog refills their slots),
    /// then drives until nothing is pending.
    Bursts { surplus: usize, departs: usize },
    /// `TrainingDriver::run_round` from a fresh model; loss and accuracy are
    /// read after exactly `rounds` rounds.
    Train { task: TrainSpec, rounds: usize },
}

/// One benchmark workload: a name, why it exists, and what it runs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub spec: EngineSpec,
    pub shape: Shape,
    /// Untimed rounds after the engine is built, each checked against the
    /// reference.
    pub warmup: u32,
    /// Timed rounds every pass runs at least, whatever its time slice.
    pub min_rounds: u32,
    /// Largest relative L2 distance a checked round's model may have from
    /// the `f64` flat FedAvg of the same inputs (the per-codec output bound;
    /// `train_cluster`'s is wider because its first round, trained from a
    /// zero model, has outlying coordinates that stretch the 8-bit scale).
    pub max_rel_err: f64,
}

/// Rounds of training after which `train_cluster` reads loss and accuracy.
pub const TRAIN_ROUNDS: usize = 50;

/// Accuracy window `train_cluster` must land in after [`TRAIN_ROUNDS`]: low
/// enough that the task is not saturated, high enough that it learned.
pub const TRAIN_ACCURACY_PCT: (f64, f64) = (55.0, 95.0);

/// The benchmark's workloads, in the order every report lists them.
pub fn all() -> Vec<Workload> {
    let session = |fan_in: &[usize], codec, shards, admission, dim| EngineSpec {
        kind: BackendKind::Session,
        fan_in: fan_in.to_vec(),
        codec,
        shards,
        admission,
        dim,
    };
    let cluster = |dim| EngineSpec {
        kind: BackendKind::Cluster,
        fan_in: vec![8, 4, 4],
        codec: CodecKind::Uniform8,
        shards: 1,
        admission: None,
        dim,
    };
    let features = 128;
    let classes = 62;
    vec![
        Workload {
            name: "dense_session",
            why: "32 x 4 MiB lossless updates through one session: bandwidth-bound, the gateway's \
                  copy into the store and the dense fold do all the work, codec and admission none",
            spec: session(&[8, 4], CodecKind::Identity, 1, None, 1 << 20),
            shape: Shape::Rounds { population: 32 },
            warmup: 2,
            min_rounds: 5,
            max_rel_err: 1e-5,
        },
        Workload {
            name: "quant_cluster",
            why: "128 x 1 MiB updates quantized to 8 bits at the ingress of a 4-node cluster: \
                  encode- and hop-bound, error feedback per client, the fold itself is small",
            spec: cluster(1 << 18),
            shape: Shape::Rounds { population: 256 },
            warmup: 2,
            min_rounds: 5,
            max_rel_err: 0.05,
        },
        Workload {
            name: "topk_sharded",
            why: "top-5% sparsified updates folded across 2 shards: the only workload where top-k \
                  selection (the slowest kernel) and the sharded batch fold run",
            spec: session(&[8, 4], CodecKind::TopK { permille: 50 }, 2, None, 1 << 18),
            shape: Shape::Rounds { population: 64 },
            warmup: 2,
            min_rounds: 5,
            max_rel_err: 0.985,
        },
        Workload {
            name: "stream_burst",
            why: "192 x 16 KiB offers per burst into a 128-slot round with bounded queues and \
                  churn: many small objects, so per-operation cost shows and bandwidth does not",
            spec: session(&[8, 16], CodecKind::Identity, 1, Some((4, 1 << 20)), 4096),
            shape: Shape::Bursts {
                surplus: 64,
                departs: 8,
            },
            warmup: 50,
            min_rounds: 100,
            max_rel_err: 1e-5,
        },
        Workload {
            name: "train_cluster",
            why: "50 rounds of federated training over the quantizing cluster: local training and \
                  evaluation dominate, so aggregation changes should not move it, and codec or \
                  fold changes must keep the model",
            spec: cluster(features * classes + classes),
            shape: Shape::Train {
                task: TrainSpec {
                    clients: 512,
                    features,
                    classes,
                    dirichlet_alpha: 0.5,
                    noise_std: 3.4,
                    learning_rate: 0.05,
                    local_epochs: 1,
                },
                rounds: TRAIN_ROUNDS,
            },
            warmup: 16,
            min_rounds: TRAIN_ROUNDS as u32 - 16,
            max_rel_err: 0.1,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Engine operations on one round's blocking path, for the layer budget:
/// each count times the replayed cost of that operation is the time the
/// round can be shown to spend in that layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathOps {
    pub feedback_encodes: f64,
    pub gateway_ingests: f64,
    pub parked_offers: f64,
    pub drained_offers: f64,
    pub departs: f64,
    /// Session trees driven one after the other.
    pub tree_runs: f64,
    pub decodes: f64,
    pub cluster_tops: f64,
    pub local_trains: f64,
    pub evaluates: f64,
}

impl Workload {
    /// The blocking-path operation counts of one round of this workload.
    pub fn path_ops(&self) -> PathOps {
        let capacity = self.spec.round_capacity() as f64;
        let nodes = self.spec.nodes() as f64;
        let cluster = f64::from(u8::from(self.spec.kind == BackendKind::Cluster));
        match self.shape {
            Shape::Rounds { .. } => PathOps {
                feedback_encodes: capacity,
                gateway_ingests: capacity,
                tree_runs: nodes,
                decodes: 1.0,
                cluster_tops: cluster,
                ..PathOps::default()
            },
            Shape::Bursts { surplus, departs } => {
                let aggregated = capacity + (surplus - departs) as f64;
                PathOps {
                    gateway_ingests: capacity + surplus as f64,
                    parked_offers: surplus as f64,
                    drained_offers: surplus as f64,
                    departs: departs as f64,
                    tree_runs: aggregated / capacity,
                    decodes: 2.0,
                    ..PathOps::default()
                }
            }
            Shape::Train { .. } => PathOps {
                feedback_encodes: capacity,
                gateway_ingests: capacity,
                tree_runs: nodes,
                decodes: 1.0,
                cluster_tops: cluster,
                local_trains: capacity,
                evaluates: 1.0,
                ..PathOps::default()
            },
        }
    }
}

/// What one round (or burst, or `run_round`) measured.
#[derive(Debug, Default)]
struct RoundSample {
    round_ns: f64,
    /// Last offer returned → model returned.
    act_ns: f64,
    /// Wall time of the ingest phase (first offer → last offer returned).
    ingest_ns: f64,
    /// Harness-only time outside the timed region (cloning, checking).
    harness_ns: f64,
    /// The part of `harness_ns` spent computing the reference.
    reference_ns: f64,
    offers: u64,
    updates: u64,
    /// Offers the engine rejected or errored on.
    failed: u64,
    wire_bytes: u64,
    /// The first model the round returned.
    model: Vec<f32>,
    /// `f64` flat FedAvg of what that model aggregated, when asked for.
    reference: Option<Vec<f64>>,
    output: RoundOutput,
    /// The dense updates round 1 offered to one session (layer replay input).
    replay_inputs: Vec<ClientInput>,
    errors: Vec<String>,
}

impl RoundSample {
    /// Per-round output checks: weight conservation and finiteness.
    fn check_output(&mut self, model: &[f32], samples: u64, expected_weight: u64, what: &str) {
        if samples != expected_weight {
            self.errors.push(format!(
                "{what}: model carries weight {samples}, roster offered {expected_weight}"
            ));
        }
        if model.iter().any(|v| !v.is_finite()) {
            self.errors.push(format!("{what}: non-finite model"));
        }
    }
}

trait RoundDriver {
    /// Runs round `index` (1-based). `want_reference` also computes the
    /// harness-side reference for the model the round returns.
    fn round(&mut self, index: u32, tracer: &mut Tracer, want_reference: bool) -> RoundSample;

    fn counters(&self) -> LayerCounters;

    /// Loss and accuracy after the configured number of training rounds.
    fn final_quality(&self) -> Option<(f64, f64)> {
        None
    }

    fn train_engine(&mut self) -> Option<&mut TrainEngine> {
        None
    }
}

fn clone_updates<'a>(inputs: impl Iterator<Item = &'a ClientInput>) -> Vec<Update> {
    inputs
        .map(|i| dense_update(i.client, i.values.clone(), i.weight))
        .collect()
}

impl RoundSample {
    /// Computes the harness-side reference of the model this round returned.
    fn set_reference<'a>(&mut self, inputs: impl Iterator<Item = &'a ClientInput>) {
        let start = Instant::now();
        let reference = reference_fedavg(inputs.map(|i| (i.values.as_slice(), i.weight)));
        self.reference = Some(reference);
        self.reference_ns += start.elapsed().as_nanos() as f64;
    }
}

/// Offers every update in order, counting the ones the engine did not take.
fn offer_all(
    backend: &mut Backend,
    updates: Vec<Update>,
    index: u32,
    tracer: &mut Tracer,
    sample: &mut RoundSample,
    may_queue: bool,
) {
    for update in updates {
        sample.offers += 1;
        let span = tracer.begin("try_ingest", index);
        let outcome = backend.try_ingest(update);
        tracer.end(span);
        match outcome {
            Ok(AdmissionOutcome::Admitted) => {}
            Ok(AdmissionOutcome::Queued { .. }) if may_queue => {}
            Ok(other) => {
                sample.failed += 1;
                sample
                    .errors
                    .push(format!("round {index}: offer answered {other:?}"));
            }
            Err(error) => {
                sample.failed += 1;
                sample
                    .errors
                    .push(format!("round {index}: try_ingest failed: {error}"));
            }
        }
    }
}

/// `Shape::Rounds`: exact-fill rounds over a session or a cluster.
struct RoundsDriver {
    backend: Backend,
    inputs: Vec<ClientInput>,
    capacity: usize,
    session_capacity: usize,
}

impl RoundDriver for RoundsDriver {
    fn round(&mut self, index: u32, tracer: &mut Tracer, want_reference: bool) -> RoundSample {
        let mut sample = RoundSample::default();
        let harness = Instant::now();
        let turns = self.inputs.len() / self.capacity;
        let start = ((index as usize - 1) % turns) * self.capacity;
        let offered = &self.inputs[start..start + self.capacity];
        let updates = clone_updates(offered.iter());
        let expected_weight: u64 = offered.iter().map(|i| i.weight).sum();
        sample.harness_ns += harness.elapsed().as_nanos() as f64;

        let span = tracer.begin("round", index);
        let t0 = Instant::now();
        offer_all(
            &mut self.backend,
            updates,
            index,
            tracer,
            &mut sample,
            false,
        );
        let t1 = Instant::now();
        let drive = tracer.begin("drive", index);
        let output = self.backend.drive();
        tracer.end(drive);
        let t2 = Instant::now();
        tracer.end(span);
        sample.round_ns = (t2 - t0).as_nanos() as f64;
        sample.ingest_ns = (t1 - t0).as_nanos() as f64;
        sample.act_ns = (t2 - t1).as_nanos() as f64;

        let harness = Instant::now();
        match output {
            Ok(mut output) => {
                sample.updates = output.updates;
                sample.wire_bytes = output.ingress_wire_bytes + output.inter_node_wire_bytes;
                let model = std::mem::take(&mut output.model);
                sample.check_output(&model, output.samples, expected_weight, "drive");
                sample.model = model;
                sample.output = output;
            }
            Err(error) => sample
                .errors
                .push(format!("round {index}: drive failed: {error}")),
        }
        if want_reference {
            sample.set_reference(offered.iter());
            sample.replay_inputs = offered[..self.session_capacity].to_vec();
        }
        sample.harness_ns += harness.elapsed().as_nanos() as f64;
        sample
    }

    fn counters(&self) -> LayerCounters {
        self.backend.counters()
    }
}

/// `Shape::Bursts`: over-offer, churn, drain.
struct BurstDriver {
    backend: Backend,
    inputs: Vec<ClientInput>,
    departing: Vec<u64>,
    session_capacity: usize,
}

impl BurstDriver {
    fn roster_weight(&self, roster: &[u64]) -> u64 {
        roster.iter().map(|c| self.inputs[*c as usize].weight).sum()
    }
}

impl RoundDriver for BurstDriver {
    fn round(&mut self, index: u32, tracer: &mut Tracer, want_reference: bool) -> RoundSample {
        let mut sample = RoundSample::default();
        let harness = Instant::now();
        let updates = clone_updates(self.inputs.iter());
        sample.harness_ns += harness.elapsed().as_nanos() as f64;

        let span = tracer.begin("burst", index);
        let t0 = Instant::now();
        offer_all(&mut self.backend, updates, index, tracer, &mut sample, true);
        let t1 = Instant::now();
        for client in &self.departing {
            let depart = tracer.begin("depart_client", index);
            let departed = self.backend.depart_client(*client);
            tracer.end(depart);
            if !departed {
                sample.errors.push(format!(
                    "burst {index}: client {client} had nothing to reclaim"
                ));
            }
        }
        // The roster is read inside the timed burst (a 128-entry id list):
        // weight conservation needs it between the churn and the drive.
        let mut drives: Vec<(Vec<u64>, Result<RoundOutput, String>)> = Vec::new();
        while self.backend.pending_updates() > 0 {
            let roster = self.backend.round_clients();
            let drive = tracer.begin("drive", index);
            let output = self.backend.drive();
            tracer.end(drive);
            let failed = output.is_err();
            drives.push((roster, output));
            if failed {
                break;
            }
        }
        let t2 = Instant::now();
        tracer.end(span);
        sample.round_ns = (t2 - t0).as_nanos() as f64;
        sample.ingest_ns = (t1 - t0).as_nanos() as f64;
        sample.act_ns = (t2 - t1).as_nanos() as f64;

        let harness = Instant::now();
        for (n, (roster, output)) in drives.into_iter().enumerate() {
            match output {
                Ok(mut output) => {
                    sample.updates += output.updates;
                    sample.wire_bytes += output.ingress_wire_bytes;
                    let model = std::mem::take(&mut output.model);
                    let expected = self.roster_weight(&roster);
                    sample.check_output(&model, output.samples, expected, "burst drive");
                    if roster.len() as u64 != output.updates {
                        sample.errors.push(format!(
                            "burst {index}: drive {n} folded {} updates, roster held {}",
                            output.updates,
                            roster.len()
                        ));
                    }
                    if n == 0 {
                        if want_reference {
                            sample.set_reference(roster.iter().map(|c| &self.inputs[*c as usize]));
                        }
                        sample.model = model;
                        sample.output = output;
                    }
                }
                Err(error) => sample
                    .errors
                    .push(format!("burst {index}: drive failed: {error}")),
            }
        }
        let survivors = (self.inputs.len() - self.departing.len()) as u64;
        if sample.errors.is_empty() && sample.updates != survivors {
            sample.errors.push(format!(
                "burst {index}: {} updates aggregated, {survivors} offered and stayed",
                sample.updates
            ));
        }
        if want_reference {
            sample.replay_inputs = self.inputs[..self.session_capacity].to_vec();
        }
        sample.harness_ns += harness.elapsed().as_nanos() as f64;
        sample
    }

    fn counters(&self) -> LayerCounters {
        self.backend.counters()
    }
}

/// `Shape::Train`: one `TrainingDriver::run_round` per round.
struct TrainDriver {
    engine: TrainEngine,
    rounds: usize,
    capacity: usize,
    session_capacity: usize,
    final_quality: Option<(f64, f64)>,
}

impl RoundDriver for TrainDriver {
    fn round(&mut self, index: u32, tracer: &mut Tracer, want_reference: bool) -> RoundSample {
        let mut sample = RoundSample::default();
        let span = tracer.begin("run_round", index);
        let t0 = Instant::now();
        let outcome = self.engine.run_round(want_reference);
        let t1 = Instant::now();
        tracer.end(span);
        sample.round_ns = (t1 - t0).as_nanos() as f64;
        sample.offers = self.capacity as u64;

        let harness = Instant::now();
        match outcome {
            Ok(mut round) => {
                sample.act_ns = round.aggregate_ns;
                sample.ingest_ns = round.ingest_ns;
                sample.updates = round.output.updates;
                sample.wire_bytes =
                    round.output.ingress_wire_bytes + round.output.inter_node_wire_bytes;
                let model = std::mem::take(&mut round.output.model);
                sample.check_output(
                    &model,
                    round.output.samples,
                    round.offered_weight,
                    "run_round",
                );
                if !round.train_loss.is_finite() {
                    sample
                        .errors
                        .push(format!("round {index}: training loss {}", round.train_loss));
                }
                if want_reference {
                    sample.set_reference(round.offered.iter());
                    round.offered.truncate(self.session_capacity);
                    sample.replay_inputs = std::mem::take(&mut round.offered);
                }
                if index as usize == self.rounds {
                    self.final_quality = Some((round.train_loss, round.accuracy_pct));
                }
                sample.model = model;
                sample.output = round.output;
            }
            Err(error) => sample
                .errors
                .push(format!("round {index}: run_round failed: {error}")),
        }
        sample.harness_ns += harness.elapsed().as_nanos() as f64;
        sample
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters::default()
    }

    fn final_quality(&self) -> Option<(f64, f64)> {
        self.final_quality
    }

    fn train_engine(&mut self) -> Option<&mut TrainEngine> {
        Some(&mut self.engine)
    }
}

impl Workload {
    /// Builds the workload's inputs and a fresh engine from `seed`.
    fn setup(&self, seed: u64) -> Result<Box<dyn RoundDriver>, String> {
        let mut rng = Rng::new(seed);
        let capacity = self.spec.round_capacity();
        let session_capacity: usize = self.spec.session_fan_in().iter().product();
        match self.shape {
            Shape::Rounds { population } => Ok(Box::new(RoundsDriver {
                inputs: generate(&mut rng, population, self.spec.dim),
                backend: Backend::build(&self.spec)?,
                capacity,
                session_capacity,
            })),
            Shape::Bursts { surplus, departs } => {
                let inputs = generate(&mut rng, capacity + surplus, self.spec.dim);
                let mut backend = Backend::build(&self.spec)?;
                for input in &inputs {
                    let utility = rng.below(1000) as f64 / 10.0;
                    backend.record_client_utility(input.client, utility);
                }
                // Distinct clients among the ones a burst admits.
                let mut departing: Vec<u64> = Vec::new();
                while departing.len() < departs {
                    let client = rng.below(capacity as u64);
                    if !departing.contains(&client) {
                        departing.push(client);
                    }
                }
                Ok(Box::new(BurstDriver {
                    backend,
                    inputs,
                    departing,
                    session_capacity,
                }))
            }
            Shape::Train { task, rounds } => Ok(Box::new(TrainDriver {
                engine: TrainEngine::build(&self.spec, &task, seed)?,
                rounds,
                capacity,
                session_capacity,
                final_quality: None,
            })),
        }
    }
}

/// Everything one pass measured. Times are as the clock read them; `speed`
/// holds the machine speed the probe read before each round, for the
/// reference-speed figures the run reports.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Machine speed read when set-up ended.
    pub setup_speed: f64,
    /// Per timed round, in run order.
    pub round_ms: Vec<f64>,
    pub act_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub speed: Vec<Speed>,
    /// Whether the span recorder was on during that round.
    pub traced: Vec<bool>,
    pub offers: u64,
    pub updates: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    /// Process CPU seconds over the timed rounds, harness time taken off.
    pub cpu_s: f64,
    pub harness_s: f64,
    /// FNV of round 1's model.
    pub checksum: u64,
    /// Distance of each warm-up round's model from its reference.
    pub rel_errs: Vec<f64>,
    pub final_quality: Option<(f64, f64)>,
    pub hops: u64,
    pub hop_wire_bytes: u64,
    pub modelled_hop_ms: f64,
    pub top_moves: u64,
    pub store_puts: u64,
    pub store_peak_bytes: u64,
    pub counters: LayerCounters,
    pub counters_before: LayerCounters,
    pub replay_inputs: Vec<ClientInput>,
    pub errors: Vec<String>,
}

impl Pass {
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// Counts a round's offers, failures and errors. A round with any error
    /// (a refused offer, a failed call, a failed output check) counts every
    /// one of its offers as failed.
    fn count(&mut self, sample: &mut RoundSample) {
        self.offers += sample.offers;
        self.failed += if sample.errors.is_empty() {
            sample.failed
        } else {
            sample.offers
        };
        if self.errors.len() < 8 {
            self.errors.append(&mut sample.errors);
        }
    }

    /// Seconds inside timed rounds, as the clock read them.
    pub fn timed_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }

    /// Per timed round `(round, ingest, act)` milliseconds at reference
    /// machine speed: the drive (`act`) fans out over threads and is scaled
    /// by the parallel speed, the rest of the round runs on the caller's
    /// thread and is scaled by the serial speed.
    pub fn at_reference_speed(&self) -> Vec<[f64; 3]> {
        (0..self.rounds())
            .map(|i| {
                let speed = self.speed[i];
                let act = self.act_ms[i] * speed.parallel;
                let rest = (self.round_ms[i] - self.act_ms[i]) * speed.serial;
                [rest + act, self.ingest_ms[i] * speed.serial, act]
            })
            .collect()
    }
}

/// A finished pass and, for training workloads, the engine it ran (the
/// layer replay times local training against it).
pub struct PassOutcome {
    pub pass: Pass,
    driver: Box<dyn RoundDriver>,
}

impl PassOutcome {
    pub fn train_engine(&mut self) -> Option<&mut TrainEngine> {
        self.driver.train_engine()
    }
}

/// Runs one pass: set up from `seed`, warm up (checking every warm-up round
/// against the reference), then drive timed rounds until `slice_s` seconds
/// have passed and at least `min_rounds` rounds ran. With
/// `alternate_tracing` the span recorder is on for two rounds, off for two,
/// and so on: pairs, so that tracing does not line up with two populations
/// taking turns.
pub fn run_pass(
    workload: &Workload,
    seed: u64,
    slice_s: f64,
    tracer: &mut Tracer,
    probe: &mut SpeedProbe,
    alternate_tracing: bool,
) -> Result<PassOutcome, String> {
    let mut pass = Pass::default();
    let setup = Instant::now();
    let mut driver = workload.setup(seed)?;
    tracer.set_enabled(false);
    let mut reference_s = 0.0;
    for index in 1..=workload.warmup {
        let mut sample = driver.round(index, tracer, true);
        pass.count(&mut sample);
        reference_s += sample.reference_ns / 1e9;
        let rel_err = sample
            .reference
            .as_deref()
            .map_or(f64::INFINITY, |r| relative_l2(&sample.model, r));
        if rel_err.is_nan() || rel_err > workload.max_rel_err {
            pass.errors.push(format!(
                "round {index} is {rel_err:e} (relative L2) from the f64 flat FedAvg, bound {:e}",
                workload.max_rel_err
            ));
            pass.failed += sample.offers;
        }
        pass.rel_errs.push(rel_err);
        if index == 1 {
            pass.checksum = fnv1a(&sample.model);
            pass.replay_inputs = sample.replay_inputs;
        }
    }
    pass.setup_s = setup.elapsed().as_secs_f64() - reference_s;
    pass.setup_speed = probe.speed().serial;
    pass.counters_before = driver.counters();

    let cpu_before = process_cpu_seconds();
    let window = Instant::now();
    let mut index = workload.warmup;
    while window.elapsed().as_secs_f64() < slice_s || pass.rounds() < workload.min_rounds as usize {
        index += 1;
        let probing = Instant::now();
        pass.speed.push(probe.speed());
        pass.harness_s += probing.elapsed().as_secs_f64();
        let traced = alternate_tracing && (index / 2).is_multiple_of(2);
        tracer.set_enabled(traced);
        let mut sample = driver.round(index, tracer, false);
        pass.count(&mut sample);
        pass.round_ms.push(sample.round_ns / 1e6);
        pass.act_ms.push(sample.act_ns / 1e6);
        pass.ingest_ms.push(sample.ingest_ns / 1e6);
        pass.traced.push(traced);
        pass.harness_s += sample.harness_ns / 1e9;
        pass.updates += sample.updates;
        pass.wire_bytes += sample.wire_bytes;
        pass.hops += sample.output.hops;
        pass.hop_wire_bytes += sample.output.hop_wire_bytes;
        pass.modelled_hop_ms += sample.output.modelled_hop_ms;
        pass.top_moves += u64::from(sample.output.top_moved);
        pass.store_puts = pass.store_puts.max(sample.output.store_total_puts);
        pass.store_peak_bytes = pass.store_peak_bytes.max(sample.output.store_peak_bytes);
    }
    tracer.set_enabled(false);
    let cpu_after = process_cpu_seconds();
    pass.cpu_s = match (cpu_before, cpu_after) {
        (Some(before), Some(after)) => (after - before - pass.harness_s).max(0.0),
        _ => {
            pass.errors.push("cannot read /proc/self/stat".to_string());
            0.0
        }
    };
    pass.counters = driver.counters();
    pass.final_quality = driver.final_quality();
    if let Shape::Train { rounds, .. } = workload.shape {
        match pass.final_quality {
            Some((loss, accuracy)) => {
                let (low, high) = TRAIN_ACCURACY_PCT;
                if !(low..=high).contains(&accuracy) || !loss.is_finite() {
                    pass.errors.push(format!(
                        "after {rounds} rounds: loss {loss}, accuracy {accuracy}% \
                         (must land in {low}..{high}%)"
                    ));
                    pass.failed += pass.offers;
                }
            }
            None => pass
                .errors
                .push(format!("pass ended before training round {rounds}")),
        }
    }
    Ok(PassOutcome { pass, driver })
}
