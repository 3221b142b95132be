//! Baseline runner for the aggregation hot path: measures fold /
//! decode-into / fused-fold / batch-fold / codec throughput at the
//! ResNet-18/34/152 parameter counts and persists `BENCH_aggregation.json`
//! so every perf PR has a committed before/after record.
//!
//! ```text
//! bench_baseline [--quick] [--out PATH] [--check PATH]
//!   --quick       bounded iterations (CI smoke mode)
//!   --out PATH    where to write the report (default BENCH_aggregation.json)
//!   --check PATH  instead of measuring, validate an existing report's
//!                 schema and completeness (exit 1 on failure)
//! ```

use lifl_bench::baseline;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = String::from("BENCH_aggregation.json");
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => return usage("--check needs a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(path) = check {
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: baseline report {path:?} is missing or unreadable: {e}");
                eprintln!("hint: regenerate it with `just bench-baseline` and commit it");
                return ExitCode::FAILURE;
            }
        };
        return match baseline::check_report(&json) {
            Ok(report) => {
                eprintln!(
                    "{path}: schema {} ok, {} entries, {} derived ratios ({} mode)",
                    report.schema,
                    report.entries.len(),
                    report.derived.len(),
                    report.mode
                );
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }

    let report = baseline::run(quick);
    for ratio in &report.derived {
        eprintln!("{:48} {:.2}x", ratio.name, ratio.ratio);
    }
    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: could not serialize report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: could not write {out:?}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: bench_baseline [--quick] [--out PATH] [--check PATH]");
    ExitCode::FAILURE
}
