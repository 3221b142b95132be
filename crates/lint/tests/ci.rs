//! The `ci` subcommand over the real workflow and over a fixture with one
//! failing command.

use lifl_lint::ci;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ci_fail")
}

fn lifl_lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lifl-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("lifl-lint starts")
}

/// The workflow's commands by a plain line scan: every single-line `run:`
/// value and every line of a `run: |` block, in file order.
fn run_lines(workflow: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut block: Option<usize> = None;
    for line in workflow.lines() {
        let indent = line.len() - line.trim_start().len();
        if let Some(at) = block {
            if indent > at && !line.trim().is_empty() {
                out.push(line.trim().to_string());
                continue;
            }
            block = None;
        }
        if let Some((_, value)) = line.split_once("run:") {
            match value.trim() {
                "|" => block = Some(indent),
                cmd => out.push(cmd.to_string()),
            }
        }
    }
    out
}

#[test]
fn ci_list_names_every_workflow_command_once_in_order() {
    let root = workspace();
    let out = lifl_lint(&root, &["ci", "--list"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("# job: "))
        .collect();
    let workflow = std::fs::read_to_string(root.join(ci::WORKFLOW)).expect("ci.yml reads");
    let expected: Vec<String> = run_lines(&workflow)
        .into_iter()
        .filter(|c| !c.starts_with("rustup"))
        .collect();
    assert!(expected.len() > 10, "{expected:#?}");
    assert_eq!(listed, expected);
    let jobs: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# job: "))
        .collect();
    assert_eq!(jobs, ["lint", "build-test"]);
    // Each command exactly once, and no toolchain bootstrap.
    let mut unique = listed.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), listed.len(), "{listed:#?}");
    assert!(listed.iter().all(|c| !c.contains("rustup")), "{listed:#?}");
}

#[test]
fn ci_runs_past_a_failure_names_it_and_exits_nonzero() {
    let out = lifl_lint(&fixture(), &["ci"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    for ran in ["first-ran", "block-ran", "after-failure-ran", "last-ran"] {
        assert!(
            stdout.lines().any(|l| l == ran),
            "`{ran}` did not run:\n{stdout}"
        );
    }
    let result = |command: &str| {
        let line = stdout.lines().find(|l| l.ends_with(command));
        line.map(|l| l.split_whitespace().next().unwrap_or("").to_string())
    };
    assert_eq!(
        result("] sh -c 'exit 3'").as_deref(),
        Some("FAILED"),
        "{stdout}"
    );
    assert!(stdout.contains("FAILED (exit 3)"), "{stdout}");
    assert_eq!(result("] echo last-ran").as_deref(), Some("ok"), "{stdout}");
    assert!(stdout.contains("5 command(s), 1 failed"), "{stdout}");
    assert!(
        !stdout.contains("active-toolchain"),
        "rustup ran:\n{stdout}"
    );
}

#[test]
fn ci_runs_one_job_by_name() {
    let out = lifl_lint(&fixture(), &["ci", "first"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("1 command(s), 0 failed"), "{stdout}");
    assert!(!stdout.contains("block-ran"), "{stdout}");
    let unknown = lifl_lint(&fixture(), &["ci", "third"]);
    assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
}
