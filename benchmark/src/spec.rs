//! The benchmark's contract: the metric tables `BENCHMARK.json` is generated
//! from and checked against, and the bound comparison of two result files.

use crate::stats::median;
use crate::workloads;
use serde::Value;

/// One named metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 10;

/// The directory that holds the benchmark and nothing else.
pub const BENCH_DIR: &str = "benchmark";

/// What a user of the system sees, on every workload. The time-derived
/// ones carry the widest bound the contract allows: the sandbox, not the
/// engine, sets how far two honest measurements of one commit can differ.
pub const END_TO_END: &[MetricDef] = &[
    e2e("round_ms", "ms", "lower", 0.25),
    e2e("ingest_ms", "ms", "lower", 0.25),
    e2e("act_ms", "ms", "lower", 0.25),
    e2e("updates_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_update", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("wire_bytes_per_update", "B", "lower", 0.001),
    e2e("model_err_ppm", "ppm", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, measured from outside; module name = layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer("kernels.fold_dense_gbps", "GB/s", "higher"),
    layer("kernels.fold_u8_gbps", "GB/s", "higher"),
    layer("kernels.fold_topk_gbps", "GB/s", "higher"),
    layer("kernels.encode_u8_gbps", "GB/s", "higher"),
    layer("kernels.axpy8_gbps", "GB/s", "higher"),
    layer("kernels.arm", "count", "higher"),
    layer("codec.encode_ns_per_update", "ns", "lower"),
    layer("codec.feedback_encode_ns_per_update", "ns", "lower"),
    layer("codec.parse_ns", "ns", "lower"),
    layer("codec.decode_into_ns", "ns", "lower"),
    layer("codec.wire_ratio", "ratio", "lower"),
    layer("aggregate.fold_ns_per_update", "ns", "lower"),
    layer("aggregate.finalize_ns", "ns", "lower"),
    layer("sharded.fold_batch_ns_per_update", "ns", "lower"),
    layer("sharded.speedup_over_seq", "ratio", "higher"),
    layer("store.put_ns_per_update", "ns", "lower"),
    layer("store.put_gbps", "GB/s", "higher"),
    layer("store.get_ns", "ns", "lower"),
    layer("store.recycle_ns", "ns", "lower"),
    layer("store.puts_per_round", "count", "lower"),
    layer("store.peak_mb", "MB", "lower"),
    layer("pool.hit_rate", "ratio", "higher"),
    layer("pool.peak_idle_mb", "MB", "lower"),
    layer("queue.enqueue_dequeue_ns", "ns", "lower"),
    layer("queue.peak_depth", "count", "lower"),
    layer("backlog.store_release_ns", "ns", "lower"),
    layer("gateway.ingest_ns_per_update", "ns", "lower"),
    layer("gateway.ingested_mb_per_round", "MB", "lower"),
    layer("admission.offer_ns", "ns", "lower"),
    layer("admission.take_best_ns", "ns", "lower"),
    layer("admission.queued_per_burst", "count", "lower"),
    layer("admission.drained_per_burst", "count", "lower"),
    layer("admission.rejected_per_burst", "count", "lower"),
    layer("admission.peak_queued", "count", "lower"),
    layer("aggregator.leaf_run_ns", "ns", "lower"),
    layer("aggregator.top_run_ns", "ns", "lower"),
    layer("aggregator.send_ns", "ns", "lower"),
    layer("session.try_ingest_ns_per_update", "ns", "lower"),
    layer("session.drive_ns", "ns", "lower"),
    layer("session.drive_to_wire_ns", "ns", "lower"),
    layer("session.depart_client_ns", "ns", "lower"),
    layer("session.spawn_overhead_frac", "ratio", "lower"),
    layer("cluster.try_ingest_ns_per_update", "ns", "lower"),
    layer("cluster.routing_overhead_ns_per_update", "ns", "lower"),
    layer("cluster.drive_ns", "ns", "lower"),
    layer("cluster.hops_per_round", "count", "lower"),
    layer("cluster.hop_wire_mb_per_round", "MB", "lower"),
    layer("cluster.modelled_hop_ms", "ms", "lower"),
    layer("cluster.top_moves", "count", "lower"),
    layer("training.run_round_ns", "ns", "lower"),
    layer("training.local_train_ns_per_client", "ns", "lower"),
    layer("training.evaluate_ns", "ns", "lower"),
    layer("training.backend_share", "ratio", "lower"),
    layer("training.final_train_loss", "loss", "lower"),
    layer("training.final_accuracy_pct", "%", "higher"),
    layer("harness.machine_speed_serial", "ratio", "higher"),
    layer("harness.machine_speed_parallel", "ratio", "higher"),
    layer("harness.clone_ms_per_round", "ms", "lower"),
    layer("harness.round_p90_ms", "ms", "lower"),
    layer("harness.round_iqr_frac", "ratio", "lower"),
    layer("harness.trace_overhead_frac", "ratio", "lower"),
    layer("harness.unattributed_frac", "ratio", "lower"),
];

/// The command the acceptance driver runs (it appends `--workload`,
/// `--seed`, `--seconds` and `--trace`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot drift apart (`bench spec` prints it).
pub fn benchmark_json() -> Value {
    let metric = |m: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ];
        if bounded {
            fields.push(("bound", Value::Float(m.bound)));
        }
        object(fields)
    };
    object(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text(BENCH_DIR)])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                workloads::all()
                    .iter()
                    .map(|w| {
                        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                        object(vec![("name", text(w.name)), ("why", text(&why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn array<'a>(value: &'a Value, key: &str, problems: &mut Vec<String>) -> &'a [Value] {
    match value.field(key) {
        Some(Value::Array(items)) => items,
        _ => {
            problems.push(format!("`{key}` is missing or not a list"));
            &[]
        }
    }
}

/// Checks one metric list of a `BENCHMARK.json` against its table.
fn check_metrics(
    items: &[Value],
    table: &[MetricDef],
    key: &str,
    bounded: bool,
    names: &mut Vec<String>,
    problems: &mut Vec<String>,
) {
    for item in items {
        let name = item.field("name").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            problems.push(format!("{key}: bad metric name {name:?}"));
        }
        names.push(name.to_string());
        if !item
            .field("unit")
            .and_then(Value::as_str)
            .is_some_and(valid_unit)
        {
            problems.push(format!("{key}.{name}: bad or missing unit"));
        }
        if !matches!(
            item.field("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ) {
            problems.push(format!("{key}.{name}: `better` must be lower or higher"));
        }
        let bound = item.field("bound").and_then(Value::as_f64);
        match (bounded, bound) {
            (true, Some(b)) if (0.0..=0.25).contains(&b) => {}
            (true, _) => problems.push(format!("{key}.{name}: bound missing or outside 0..0.25")),
            (false, Some(_)) => problems.push(format!("{key}.{name}: layer metrics have no bound")),
            (false, None) => {}
        }
        if !table.iter().any(|m| m.name == name) {
            problems.push(format!(
                "{key}.{name}: the program does not report this metric"
            ));
        }
    }
    for m in table {
        if !items
            .iter()
            .any(|i| i.field("name").and_then(Value::as_str) == Some(m.name))
        {
            problems.push(format!("{key}: `{}` is reported but not declared", m.name));
        }
    }
}

/// Validates a parsed `BENCHMARK.json`: the contract's limits (name and
/// unit alphabets, list sizes, every bound present and at most 0.25, a
/// `setup_s` metric) and agreement with this program's own tables.
pub fn check_benchmark_json(spec: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let Value::Object(fields) = spec else {
        return vec!["not a JSON object".to_string()];
    };
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    for (key, _) in fields {
        if !expected.contains(&key.as_str()) {
            problems.push(format!("unexpected key `{key}`"));
        }
    }
    let strings = |items: &[Value]| -> Vec<String> {
        items
            .iter()
            .map(|v| v.as_str().unwrap_or("").to_string())
            .collect()
    };
    let command = strings(array(spec, "command", &mut problems));
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        problems.push("command must be 1 to 32 strings of at most 200 characters".to_string());
    }
    if command != COMMAND {
        problems.push(format!("command differs from the program's: {COMMAND:?}"));
    }
    let paths = strings(array(spec, "paths", &mut problems));
    if paths != [BENCH_DIR] {
        problems.push(format!("paths must be [{BENCH_DIR:?}]"));
    }
    match spec.field("run_seconds").and_then(Value::as_u64) {
        Some(s) if (1..=60).contains(&s) => {}
        _ => problems.push("run_seconds must be a whole number from 1 to 60".to_string()),
    }
    let mut names = Vec::new();
    let declared = array(spec, "workloads", &mut problems);
    if !(2..=8).contains(&declared.len()) {
        problems.push("there must be 2 to 8 workloads".to_string());
    }
    for item in declared {
        let name = item.field("name").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            problems.push(format!("bad workload name {name:?}"));
        }
        let why = item.field("why").and_then(Value::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {name}: `why` must be one line of 1..200 chars"
            ));
        }
        if workloads::by_name(name).is_none() {
            problems.push(format!("workload {name}: the program does not run it"));
        }
        names.push(name.to_string());
    }
    for w in workloads::all() {
        if !names.iter().any(|n| n == w.name) {
            problems.push(format!("workload {} is run but not declared", w.name));
        }
    }
    let end_to_end = array(spec, "end_to_end", &mut problems);
    if !(1..=16).contains(&end_to_end.len()) {
        problems.push("there must be 1 to 16 end-to-end metrics".to_string());
    }
    check_metrics(
        end_to_end,
        END_TO_END,
        "end_to_end",
        true,
        &mut names,
        &mut problems,
    );
    let setup_ok = end_to_end.iter().any(|m| {
        m.field("name").and_then(Value::as_str) == Some("setup_s")
            && m.field("unit").and_then(Value::as_str) == Some("s")
            && m.field("better").and_then(Value::as_str) == Some("lower")
    });
    if !setup_ok {
        problems.push("end_to_end needs `setup_s` in s, lower is better".to_string());
    }
    let per_layer = array(spec, "per_layer", &mut problems);
    if !(1..=128).contains(&per_layer.len()) {
        problems.push("there must be 1 to 128 per-layer metrics".to_string());
    }
    check_metrics(
        per_layer,
        PER_LAYER,
        "per_layer",
        false,
        &mut names,
        &mut problems,
    );
    let mut sorted = names.clone();
    sorted.sort();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            problems.push(format!("name `{}` is used more than once", pair[0]));
        }
    }
    problems
}

/// Validates a result file as a committed baseline: current schema, not a
/// `--quick` run, every workload × end-to-end metric present with its
/// passes, and nothing failed.
pub fn check_results(results: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    if results.field("schema").and_then(Value::as_str) != Some(RESULT_SCHEMA) {
        problems.push(format!("schema is not {RESULT_SCHEMA:?}"));
    }
    if results.field("mode").and_then(Value::as_str) != Some("full") {
        problems.push("a `--quick` run is not a baseline: rerun without --quick".to_string());
    }
    if results.field("provenance").is_none() {
        problems.push("provenance block missing".to_string());
    }
    for w in workloads::all() {
        let Some(entry) = results.field("workloads").and_then(|v| v.field(w.name)) else {
            problems.push(format!("workload {} missing", w.name));
            continue;
        };
        if entry.field("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!("workload {}: output check failed", w.name));
        }
        for m in END_TO_END {
            if pass_values(entry, m.name).is_empty() {
                problems.push(format!("{} x {}: no values", w.name, m.name));
            }
        }
    }
    problems
}

/// Schema tag of the result files `bench all` writes.
pub const RESULT_SCHEMA: &str = "lifl.benchmark/v1";

/// The per-pass values of one end-to-end metric of one workload entry.
fn pass_values(entry: &Value, metric: &str) -> Vec<f64> {
    match entry.field("end_to_end").and_then(|e| e.field(metric)) {
        Some(Value::Array(values)) => values.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// Verdict of one workload × metric row of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own passes spread further than the bound: the data cannot
    /// show the metric unchanged.
    Unresolved,
}

/// Applies `bound` to two sides' per-pass values. `change` is how much
/// worse B's median is than A's, as a share of A's median (negative =
/// better); `spread` is the larger of the two sides' (max − min) / median.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let spread_of = |v: &[f64], m: f64| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if v.is_empty() || m == 0.0 {
            0.0
        } else {
            (hi - lo) / m.abs()
        }
    };
    let spread = spread_of(a, ma).max(spread_of(b, mb));
    let change = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let verdict = if change > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, change, spread)
}

/// One row of `bench compare`.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub change: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares result file `b` (the change) with `a` (the parent): one row per
/// workload × end-to-end metric.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in workloads::all() {
        let side = |v: &Value, which: &str| {
            v.field("workloads")
                .and_then(|ws| ws.field(w.name))
                .cloned()
                .ok_or(format!("{which}: workload {} missing", w.name))
        };
        let (ea, eb) = (side(a, "A")?, side(b, "B")?);
        for m in END_TO_END {
            let (va, vb) = (pass_values(&ea, m.name), pass_values(&eb, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} x {}: no values on one side", w.name, m.name));
            }
            let (verdict, change, spread) = judge(&va, &vb, m.better == "higher", m.bound);
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                unit: m.unit,
                a: median(&va),
                b: median(&vb),
                change,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_spec_passes_its_own_check_and_roundtrips() {
        let spec = benchmark_json();
        assert_eq!(check_benchmark_json(&spec), Vec::<String>::new());
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert!(json.len() < 64 * 1024);
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(check_benchmark_json(&parsed), Vec::<String>::new());
    }

    #[test]
    fn check_flags_bad_names_missing_bounds_and_drift() {
        let mut spec = benchmark_json();
        let Value::Object(fields) = &mut spec else {
            panic!("object")
        };
        fields.push(("claim".to_string(), Value::Null));
        let Some((_, Value::Array(metrics))) = fields.iter_mut().find(|(k, _)| k == "end_to_end")
        else {
            panic!("end_to_end")
        };
        metrics[0] = object(vec![
            ("name", text("round ms")),
            ("unit", text("ms")),
            ("better", text("lower")),
        ]);
        let problems = check_benchmark_json(&spec).join("\n");
        assert!(problems.contains("unexpected key `claim`"), "{problems}");
        assert!(
            problems.contains("bad metric name \"round ms\""),
            "{problems}"
        );
        assert!(problems.contains("bound missing"), "{problems}");
        assert!(
            problems.contains("`round_ms` is reported but not declared"),
            "{problems}"
        );
    }

    #[test]
    fn names_and_units_follow_the_contract_alphabets() {
        assert!(valid_name("harness.round_p90_ms") && valid_name("2x-fast"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("GB/s"));
        assert!(!valid_unit("") && !valid_unit("ms per op") && !valid_unit(&"u".repeat(17)));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        // Lower is better: +5% inside a 10% bound, +20% outside.
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&a, &[10.5, 10.4, 10.6, 10.5], false, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0], false, 0.1).0,
            Verdict::Regressed
        );
        // Higher is better: a drop is the regression, a rise is not.
        assert_eq!(
            judge(&a, &[8.0, 8.0, 8.1, 7.9], true, 0.1).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[12.0, 12.0, 12.1, 11.9], true, 0.1).0,
            Verdict::Ok
        );
        // A side noisier than the bound cannot show "unchanged".
        let (verdict, change, spread) = judge(&a, &[9.0, 11.0, 10.0, 10.2], false, 0.1);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(change.abs() < 0.02 && spread > 0.19);
        // Exact-bound metrics: identical passes agree, any drift regresses.
        assert_eq!(judge(&[64.0; 4], &[64.0; 4], false, 0.0).0, Verdict::Ok);
        assert_eq!(
            judge(&[64.0; 4], &[65.0; 4], false, 0.0).0,
            Verdict::Regressed
        );
    }
}
