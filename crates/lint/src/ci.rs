//! The `ci` subcommand: `.github/workflows/ci.yml` is the one list of the
//! repo's checks, and this module reads its commands and runs them.
//!
//! A job is a key under the workflow's `jobs:`; its commands are its `run:`
//! values in file order: a single-line `run: <cmd>`, or each non-empty line
//! of a `run: |` block (the lines indented deeper than the `run:` key).
//! `rustup` lines are the hosted runner's toolchain bootstrap and are
//! skipped. There is no YAML parser offline, and the workflow needs none of
//! YAML's other forms.

use std::io;
use std::path::Path;
use std::process::Command;

/// The workflow, relative to the workspace root.
pub const WORKFLOW: &str = ".github/workflows/ci.yml";

/// One workflow job and the commands it runs, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The job's key under `jobs:` (`lint`, `build-test`, ...).
    pub name: String,
    /// Its non-`rustup` `run:` commands, in file order.
    pub commands: Vec<String>,
}

/// The jobs of a workflow, in file order.
pub fn jobs(workflow: &str) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut in_jobs = false;
    let mut job_indent: Option<usize> = None;
    let mut block_indent: Option<usize> = None;
    for line in workflow.lines() {
        let indent = line.len() - line.trim_start().len();
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(run_indent) = block_indent {
            if indent > run_indent {
                push(&mut jobs, trimmed);
                continue;
            }
            block_indent = None;
        }
        if indent == 0 {
            in_jobs = trimmed == "jobs:";
            continue;
        }
        if !in_jobs {
            continue;
        }
        if *job_indent.get_or_insert(indent) == indent {
            if let Some(name) = trimmed.strip_suffix(':') {
                jobs.push(Job {
                    name: name.to_string(),
                    commands: Vec::new(),
                });
            }
            continue;
        }
        let key = trimmed.strip_prefix("- ").unwrap_or(trimmed);
        if let Some(value) = key.strip_prefix("run:") {
            match value.trim() {
                "|" => block_indent = Some(indent),
                cmd => push(&mut jobs, cmd),
            }
        }
    }
    jobs
}

/// Appends `cmd` to the last job, unless it is empty or a `rustup` line.
fn push(jobs: &mut [Job], cmd: &str) {
    if let Some(job) = jobs.last_mut() {
        if !cmd.is_empty() && !cmd.starts_with("rustup") {
            job.commands.push(cmd.to_string());
        }
    }
}

/// Reads the workflow under `root`.
pub fn load(root: &Path) -> io::Result<Vec<Job>> {
    Ok(jobs(&std::fs::read_to_string(root.join(WORKFLOW))?))
}

/// One command's result: its job, the command, and its exit code (`None`
/// when it was killed by a signal or could not be started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The job the command belongs to.
    pub job: String,
    /// The command as the workflow states it.
    pub command: String,
    /// `Some(0)` on success.
    pub exit: Option<i32>,
}

/// Runs every command of `jobs` in order through `sh -c` in `root`, with
/// the caller's stdin, stdout and stderr, and returns each one's outcome.
/// A failure does not stop the run: every later command still runs.
pub fn run(root: &Path, jobs: &[Job]) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for job in jobs {
        for command in &job.commands {
            println!("lifl-lint ci: [{}] $ {command}", job.name);
            let status = Command::new("sh")
                .arg("-c")
                .arg(command)
                .current_dir(root)
                .status();
            let exit = match status {
                Ok(status) => status.code(),
                Err(e) => {
                    eprintln!("lifl-lint ci: could not start `sh`: {e}");
                    None
                }
            };
            outcomes.push(Outcome {
                job: job.name.clone(),
                command: command.clone(),
                exit,
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    const YML: &str = "\
env:
  CARGO_TERM_COLOR: always

jobs:
  lint:
    name: fmt
    steps:
      - uses: actions/checkout@v4
      - name: toolchain
        run: rustup toolchain install stable
      - name: fmt
        run: cargo fmt --all --check
  test:
    steps:
      - run: |
          cargo test -q
          LIFL_FORCE_SCALAR=1 cargo test -q
      - name: build
        run: cargo build --release
";

    #[test]
    fn workflow_run_lines_and_blocks() {
        let jobs = jobs(YML);
        let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["lint", "test"]);
        assert_eq!(jobs[0].commands, ["cargo fmt --all --check"]);
        assert_eq!(
            jobs[1].commands,
            [
                "cargo test -q",
                "LIFL_FORCE_SCALAR=1 cargo test -q",
                "cargo build --release"
            ]
        );
    }
}
