//! `bench` — the repo's whole-round benchmark.
//!
//! ```text
//! bench run --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! bench all [--seed N] [--seconds S] [--reps R] [--quick] [--out FILE]
//!                                                           every workload, every check
//! bench check FILE...                                       BENCHMARK.json or a result file
//! bench compare A.json B.json                               apply the bounds, B against A
//! bench spec                                                print BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

#![forbid(unsafe_code)]

mod engine;
mod inputs;
mod probe;
mod procstat;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::RunResult;
use serde::Value;
use spec::{object, Verdict, END_TO_END, PER_LAYER, RESULT_SCHEMA};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Value of `--name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} {text:?} is not a valid value")),
        None => Ok(default),
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = object(vec![
                ("value", Value::Float(*value)),
                ("unit", Value::Str(unit.to_string())),
            ]);
            (*name, entry)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("run needs --workload <name>")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is outside 0..3600"));
    }
    let result = match parsed(args, "--trace", 0u8)? {
        0 => run::run_untraced(&workload, seed, seconds)?,
        1 => run::run_traced(&workload, seed, seconds)?,
        other => return Err(format!("--trace {other} must be 0 or 1")),
    };
    for note in &result.notes {
        eprintln!("{note}");
    }
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Runs `bench run` as a child process (clean allocator, its own `VmHWM`)
/// and parses its result line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: child run exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// First line `program args..` prints, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(seed: u64, reps: usize, seconds: f64, wall_s: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    object(vec![
        (
            "git_rev",
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(tool_line("rustc", &["-V"]))),
        ("nproc", Value::UInt(nproc as u64)),
        ("kernel_arm", Value::Str(engine::kernel_arm().to_string())),
        (
            "lifl_force_scalar",
            Value::Bool(std::env::var_os("LIFL_FORCE_SCALAR").is_some()),
        ),
        ("seed", Value::UInt(seed)),
        ("reps", Value::UInt(reps as u64)),
        ("passes_per_rep", Value::UInt(run::PASSES as u64)),
        ("seconds_per_rep", Value::Float(seconds)),
        ("wall_s", Value::Float(wall_s)),
    ])
}

/// The one command: every workload `reps` times, interleaved so that slow
/// machine drift lands on all workloads alike, then one traced run each.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parsed(args, "--seed", 1)?;
    let reps: usize = parsed(args, "--reps", if quick { 1 } else { 4 })?;
    let seconds: f64 = parsed(args, "--seconds", if quick { 1.0 } else { 5.0 })?;
    let out = flag(args, "--out").map_or_else(|| run::out_dir().join("results.json"), Into::into);
    let started = Instant::now();
    let names: Vec<&'static str> = workloads::all().iter().map(|w| w.name).collect();

    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); names.len()];
    for rep in 0..reps.max(1) {
        for (slot, name) in runs.iter_mut().zip(&names) {
            eprintln!("== {name}: rep {}/{reps}", rep + 1);
            slot.push(child_run(name, seed, seconds, 0)?);
        }
    }
    let mut all_correct = true;
    let mut entries = Vec::new();
    for (name, reps) in names.iter().zip(&runs) {
        eprintln!("== {name}: traced run");
        let traced = child_run(name, seed, seconds, 1)?;
        let metric_of = |run: &Value, metric: &str| {
            run.field("metrics")
                .and_then(|m| m.field(metric))
                .and_then(|m| m.field("value"))
                .and_then(Value::as_f64)
        };
        let sum = |key: &str| -> u64 {
            reps.iter()
                .chain([&traced])
                .filter_map(|r| r.field(key).and_then(Value::as_u64))
                .sum()
        };
        let correct = reps
            .iter()
            .chain([&traced])
            .all(|r| r.field("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        let (attempted, failed) = (sum("attempted"), sum("failed"));

        println!(
            "\n{name}  (correct: {correct}, failed_frac: {})",
            failed as f64 / attempted.max(1) as f64
        );
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = reps.iter().filter_map(|r| metric_of(r, m.name)).collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {:<24} {:>14.4} {:<5} [{:.4} .. {:.4}] bound {:.1}%",
                m.name,
                stats::median(&values),
                m.unit,
                lo,
                hi,
                m.bound * 100.0
            );
            let values = values.into_iter().map(Value::Float).collect();
            end_to_end.push((m.name, Value::Array(values)));
        }
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let value = metric_of(&traced, m.name).unwrap_or(0.0);
            println!("  {:<40} {:>16.4} {}", m.name, value, m.unit);
            per_layer.push((m.name, Value::Float(value)));
        }
        entries.push((
            *name,
            object(vec![
                ("correct", Value::Bool(correct)),
                ("attempted", Value::UInt(attempted)),
                ("failed", Value::UInt(failed)),
                ("end_to_end", object(end_to_end)),
                ("per_layer", object(per_layer)),
            ]),
        ));
    }

    let results = object(vec![
        ("schema", Value::Str(RESULT_SCHEMA.to_string())),
        (
            "mode",
            Value::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("claim", Value::Null),
        (
            "provenance",
            provenance(seed, reps, seconds, started.elapsed().as_secs_f64()),
        ),
        ("workloads", object(entries)),
    ]);
    let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, json + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "\n{} in {:.0} s; results in {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("check needs at least one file".to_string());
    }
    let mut clean = true;
    for path in args {
        let value = read_json(path)?;
        let problems = if value.field("schema").is_some() {
            spec::check_results(&value)
        } else {
            spec::check_benchmark_json(&value)
        };
        for problem in &problems {
            println!("{path}: {problem}");
        }
        if problems.is_empty() {
            println!("{path}: ok");
        }
        clean &= problems.is_empty();
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two result files".to_string());
    };
    let rows = spec::compare(&read_json(a)?, &read_json(b)?)?;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B worse", "spread", "bound"
    );
    for row in &rows {
        println!(
            "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            row.a,
            row.b,
            row.change * 100.0,
            row.spread * 100.0,
            row.bound * 100.0,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved (a side's own passes spread past the bound)",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regressed) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match command {
        "run" => cmd_run(rest),
        "all" => cmd_all(rest),
        "check" => cmd_check(rest),
        "compare" => cmd_compare(rest),
        "spec" => serde_json::to_string_pretty(&spec::benchmark_json())
            .map(|json| {
                println!("{json}");
                ExitCode::SUCCESS
            })
            .map_err(|e| e.to_string()),
        _ => Err("usage: bench run|all|check|compare|spec (see benchmark/README.md)".to_string()),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("bench: {error}");
        ExitCode::from(2)
    })
}
