//! Fixture tests: every rule has at least one failing and one passing
//! fixture under `tests/fixtures/`, each a miniature workspace root.

use lifl_lint::{run, Rule};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs `rules` over the named fixture and returns the rendered findings.
fn lint(name: &str, rules: &[Rule]) -> Vec<String> {
    let report = run(&fixture(name), rules).expect("fixture scans");
    report.findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn r1_fail_flags_unsafe_and_missing_gate() {
    let found = lint("r1_fail", &[Rule::UnsafeContainment]);
    assert_eq!(found.len(), 2, "{found:#?}");
    assert!(found.iter().any(|f| f.contains("R1-unsafe")
        && f.contains("crates/demo/src/lib.rs:4")
        && f.contains("outside crates/fl/src/kernels/")));
    assert!(found
        .iter()
        .any(|f| f.contains("crate root must carry `#![forbid(unsafe_code)]`")));
}

#[test]
fn r1_pass_is_clean() {
    assert_eq!(
        lint("r1_pass", &[Rule::UnsafeContainment]),
        Vec::<String>::new()
    );
}

#[test]
fn r2_fail_flags_uncommented_unsafe_fn_and_block() {
    let found = lint("r2_fail", &[Rule::SafetyComment]);
    assert_eq!(found.len(), 2, "{found:#?}");
    assert!(found[0].contains("`unsafe fn` without an immediately preceding"));
    assert!(found[1].contains("`unsafe` block without an immediately preceding"));
}

#[test]
fn r2_pass_accepts_comment_runs_and_attributes_between() {
    assert_eq!(
        lint("r2_pass", &[Rule::SafetyComment]),
        Vec::<String>::new()
    );
}

#[test]
fn r4_fail_flags_live_panics_and_unjustified_marker_but_not_tests() {
    let found = lint("r4_fail", &[Rule::Panic]);
    // unwrap + expect + todo! + the unjustified marker's own diagnostic +
    // the unwrap the unjustified marker fails to suppress; the #[cfg(test)]
    // unwrap is never a finding.
    assert_eq!(found.len(), 5, "{found:#?}");
    assert!(found
        .iter()
        .any(|f| f.contains("`.unwrap()`") && f.contains(":2:")));
    assert!(found
        .iter()
        .any(|f| f.contains("`.expect()`") && f.contains(":6:")));
    assert!(found.iter().any(|f| f.contains("`todo!`")));
    assert!(found
        .iter()
        .any(|f| f.contains("allow-marker") && f.contains("no justification")));
    assert!(
        !found.iter().any(|f| f.contains(":23:")),
        "test code flagged"
    );
}

#[test]
fn r4_pass_accepts_results_justified_allows_and_test_code() {
    assert_eq!(lint("r4_pass", &[Rule::Panic]), Vec::<String>::new());
}

#[test]
fn r5_fail_flags_hash_collections_and_clocks() {
    let found = lint("r5_fail", &[Rule::Determinism]);
    // HashMap x2 (use + signature), HashSet x2, Instant::now, SystemTime x2
    // (use + call) — the `use std::time::Instant` line alone is not a
    // finding, only `Instant::now`.
    assert!(found.len() >= 5, "{found:#?}");
    assert!(found.iter().any(|f| f.contains("`HashMap`")));
    assert!(found.iter().any(|f| f.contains("`HashSet`")));
    assert!(found.iter().any(|f| f.contains("`Instant::now`")));
    assert!(found.iter().any(|f| f.contains("`SystemTime`")));
}

#[test]
fn r5_fail_covers_the_local_trainer_and_metrics() {
    let found = lint("r5_fail", &[Rule::Determinism]);
    assert!(
        found
            .iter()
            .any(|f| f.contains("crates/fl/src/trainer.rs:3:") && f.contains("`HashMap`")),
        "{found:#?}"
    );
    assert!(
        found
            .iter()
            .any(|f| f.contains("crates/fl/src/metrics.rs:4:") && f.contains("`Instant::now`")),
        "{found:#?}"
    );
}

#[test]
fn r5_pass_accepts_btree_and_test_hash() {
    assert_eq!(lint("r5_pass", &[Rule::Determinism]), Vec::<String>::new());
}

#[test]
fn r6_fail_flags_file_path_call_and_deprecated_allow() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    assert!(found.len() >= 4, "{found:#?}");
    assert!(found
        .iter()
        .any(|f| f.contains("crates/core/src/runtime.rs:1") && f.contains("is back")));
    assert!(found.iter().any(|f| f.contains("`run_hierarchical`")));
    assert!(found.iter().any(|f| f.contains("`runtime::` path")));
    assert!(found.iter().any(|f| f.contains("`#[allow(deprecated)]`")));
    // The gateway doors deleted in PR 12: definition and call site both.
    let doors: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("`ingest_client_update`") && f.contains("deleted in PR 12"))
        .collect();
    assert_eq!(doors.len(), 2, "{found:#?}");
    assert!(doors
        .iter()
        .any(|f| f.contains("crates/core/src/gateway.rs:4")));
}

#[test]
fn r6_fail_flags_payload_copies_on_the_move_only_path() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let copies: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("crates/core/src/session.rs") && f.contains("deleted in PR 21"))
        .collect();
    assert_eq!(copies.len(), 4, "{found:#?}");
    for (line, token) in [
        (5, "`put_f32(`"),
        (6, "`.to_bytes()`"),
        (7, "`encode_f32(`"),
        (8, "`update.clone()`"),
    ] {
        assert!(
            copies
                .iter()
                .any(|f| f.contains(&format!("session.rs:{line}:")) && f.contains(token)),
            "{token} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_the_names_and_the_file_retired_in_pr_24() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    assert!(found.iter().any(
        |f| f.contains("crates/core/src/platform.rs:1") && f.contains("moved to `crates/sim`")
    ));
    for (line, name) in [
        (4, "`lifl_baselines`"),
        (5, "`async_round`"),
        (6, "`FlDriver`"),
        (6, "`FlDriverConfig`"),
        (7, "`bench_ingest`"),
    ] {
        assert!(
            found.iter().any(|f| {
                f.contains(&format!("crates/experiments/src/lib.rs:{line}:"))
                    && f.contains(name)
                    && f.contains("retired in PR 24")
            }),
            "{name} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_the_names_retired_with_the_async_driver() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    for (line, name) in [
        (5, "`AsyncAggregator`"),
        (8, "`async_driver`"),
        (8, "`AsyncAggregator`"),
        (8, "`AsyncDriverConfig`"),
        (8, "`AsyncFlDriver`"),
        (9, "`AsyncVersionOutcome`"),
    ] {
        assert!(
            found.iter().any(|f| {
                f.contains(&format!("crates/experiments/src/lib.rs:{line}:"))
                    && f.contains(name)
                    && f.contains("`TrainingDriver::run_async`")
            }),
            "{name} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_the_names_retired_with_the_fault_resend_path() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    for (line, name, advice) in [
        (9, "`run_round_resilient`", "`TrainingDriver::run_round`"),
        (10, "`NodeFailure`", "`AggregatorFailure`"),
        (10, "`take_lost_clients`", "re-delivers its round"),
    ] {
        assert!(
            found.iter().any(|f| {
                f.contains(&format!("crates/core/src/training.rs:{line}:"))
                    && f.contains(name)
                    && f.contains("re-folding its round from the stored keys")
                    && f.contains(advice)
            }),
            "{name} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_the_names_retired_with_the_fedprox_trainer() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let retired: Vec<&String> = (found.iter())
        .filter(|f| f.contains("crates/fl/src/trainer.rs:"))
        .collect();
    assert_eq!(retired.len(), 3, "{found:#?}");
    for (line, name, advice) in [
        (3, "`FedProxTrainer`", "`LocalTrainer`"),
        (4, "`FedProxTrainer`", "`TrainerConfig::mu`"),
        (4, "`FedProxConfig`", "`TrainerConfig::validate`"),
    ] {
        assert!(
            retired.iter().any(|f| {
                f.contains(&format!("crates/fl/src/trainer.rs:{line}:"))
                    && f.contains(name)
                    && f.contains("proximal term moved into the one local trainer")
                    && f.contains(advice)
            }),
            "{name} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_threads_started_outside_the_station_executor() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let starts: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("crates/core/src/cluster.rs") && f.contains("retired in PR 25"))
        .collect();
    assert_eq!(starts.len(), 4, "{found:#?}");
    for (line, token) in [
        (4, "`thread::scope`"),
        (7, "`thread::spawn`"),
        (8, "`thread::Builder`"),
        (9, "`Builder::spawn`"),
    ] {
        assert!(
            starts
                .iter()
                .any(|f| f.contains(&format!("cluster.rs:{line}:")) && f.contains(token)),
            "{token} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_fail_flags_threads_started_in_any_engine_crate() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let starts: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("crates/fl/src/sharded.rs"))
        .collect();
    assert_eq!(starts.len(), 1, "{found:#?}");
    assert!(
        starts[0].contains("sharded.rs:4:") && starts[0].contains("`thread::scope`"),
        "{found:#?}"
    );
}

#[test]
fn r6_fail_flags_private_worker_sets_outside_the_station_executor() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let private: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("`Workers::with_count` builds a private worker set"))
        .collect();
    assert_eq!(private.len(), 1, "{found:#?}");
    assert!(
        private[0].contains("crates/core/src/training.rs:4:"),
        "{found:#?}"
    );
}

#[test]
fn r6_fail_flags_simulator_types_in_engine_code() {
    let found = lint("r6_fail", &[Rule::LegacyRuntime]);
    let named: Vec<&String> = found
        .iter()
        .filter(|f| f.contains("crates/core/src/pricing.rs"))
        .collect();
    // The import, the signature and the constructor; not the test module.
    assert_eq!(named.len(), 5, "{found:#?}");
    for (line, name) in [
        (3, "`CpuCycles`"),
        (3, "`SystemKind`"),
        (5, "`LiflConfig`"),
        (5, "`CpuCycles`"),
        (6, "`CpuCycles`"),
    ] {
        assert!(
            named
                .iter()
                .any(|f| f.contains(&format!("pricing.rs:{line}:"))
                    && f.contains(name)
                    && f.contains("the paper simulator's type")),
            "{name} at line {line}: {found:#?}"
        );
    }
}

#[test]
fn r6_pass_allows_prose_and_string_mentions() {
    assert_eq!(
        lint("r6_pass", &[Rule::LegacyRuntime]),
        Vec::<String>::new()
    );
}

#[test]
fn r7_fail_flags_drift_in_both_directions() {
    let found = lint("r7_fail", &[Rule::CiSync]);
    assert_eq!(found.len(), 2, "{found:#?}");
    assert!(found.iter().any(|f| {
        f.contains(".github/workflows/ci.yml")
            && f.contains("cargo doc --no-deps")
            && f.contains("no recipe reachable")
    }));
    assert!(found.iter().any(|f| {
        f.contains("justfile") && f.contains("only-local") && f.contains("no ci.yml step")
    }));
}

#[test]
fn r7_pass_counts_agreed_commands() {
    let report = run(&fixture("r7_pass"), &[Rule::CiSync]).expect("fixture scans");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.ci_sync_commands, Some(3));
}

#[test]
fn r8_fail_flags_engine_items_only_their_own_tests_name() {
    let found = lint("r8_fail", &[Rule::DeadPub]);
    // `only_my_tests`, `Orphan`, `UNJUSTIFIED`, the unjustified marker's own
    // diagnostic, `ReexportedOnly` (the simulator's `pub use` of it is
    // another path, not a use), and the simulator crate's `simulator_only`
    // and `NAME`; the benchmark's and the integration test's items have
    // users, and the pub(crate) item is never checked.
    assert_eq!(found.len(), 7, "{found:#?}");
    for (file, line, name) in [
        ("core", 10, "only_my_tests"),
        ("core", 13, "Orphan"),
        ("core", 20, "UNJUSTIFIED"),
        ("core", 23, "ReexportedOnly"),
        ("sim", 7, "simulator_only"),
        ("sim", 10, "NAME"),
    ] {
        assert!(
            found
                .iter()
                .any(|f| f.contains(&format!("crates/{file}/src/lib.rs:{line}:"))
                    && f.contains("R8-dead-pub")
                    && f.contains(&format!("`{name}`"))),
            "{name} at {file}:{line}: {found:#?}"
        );
    }
    assert!(found
        .iter()
        .any(|f| f.contains("allow-marker") && f.contains("no justification")));
}

#[test]
fn r8_pass_counts_sibling_crates_tests_the_benchmark_and_other_files_tests() {
    assert_eq!(lint("r8_pass", &[Rule::DeadPub]), Vec::<String>::new());
}

#[test]
fn rule_selection_runs_only_selected_rules() {
    // r1_fail also has no SAFETY comment on its unsafe block; selecting only
    // R2 must not surface the R1 findings.
    let found = lint("r1_fail", &[Rule::SafetyComment]);
    assert!(
        found.iter().all(|f| f.contains("R2-safety-comment")),
        "{found:#?}"
    );
}
