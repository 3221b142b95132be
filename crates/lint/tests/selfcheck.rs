//! The live workspace must be lint-clean: this is the same invariant CI's
//! `lifl-lint` step enforces, kept as a test so `cargo test` alone catches a
//! violation without running the binary.

use lifl_lint::{run, Rule};
use std::path::PathBuf;

#[test]
fn live_workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = run(&root, &Rule::ALL).expect("workspace scans");
    assert!(
        report.findings.is_empty(),
        "live workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walker saw the real tree, not an empty directory.
    assert!(report.files_scanned > 100, "{} files", report.files_scanned);
}
