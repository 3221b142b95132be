//! The `lifl-lint` binary: runs the rule set over the workspace and prints
//! `file:line: rule-id: message` diagnostics, exiting nonzero on findings;
//! or, as `lifl-lint ci`, lists or runs the CI workflow's commands.
//!
//! ```text
//! lifl-lint [--root <dir>] [--rules <name,name,...>] [--list-rules]
//! lifl-lint [--root <dir>] ci [--list] [<job>]
//! ```

#![forbid(unsafe_code)]

use lifl_lint::{ci, find_workspace_root, run, Rule};
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: lifl-lint [--root <dir>] [--rules <name,...>] [--list-rules]\n       \
                     lifl-lint [--root <dir>] ci [--list] [<job>]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut selected: Vec<Rule> = Rule::ALL.to_vec();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--rules" => match args.next() {
                Some(list) => {
                    let mut rules = Vec::new();
                    for raw in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        match Rule::from_marker_name(raw) {
                            Some(r) => rules.push(r),
                            None => {
                                return usage(&format!(
                                    "unknown rule `{raw}` (known: {})",
                                    Rule::catalog()
                                ))
                            }
                        }
                    }
                    if rules.is_empty() {
                        return usage("--rules needs at least one rule name");
                    }
                    selected = rules;
                }
                None => return usage("--rules needs a comma-separated rule list"),
            },
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{}\t{}", rule.id(), rule.name());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "lifl-lint: workspace static analysis for the LIFL repo\n\n\
                     {USAGE}\n\n\
                     rules: {}\n\n\
                     Diagnostics are `file:line: rule-id: message`; exit is nonzero on\n\
                     any finding. Opt out per site with\n\
                     `// lifl-lint: allow(<rule>) — <justification>` or per file with\n\
                     `// lifl-lint: allow-file(<rule>) — <justification>`. SAFETY\n\
                     comments, panic freedom, hash collections, wall clocks and thread\n\
                     starts are clippy's (`cargo clippy --workspace --all-targets --\n\
                     -D warnings`, configured by crates/clippy.toml).\n\n\
                     ci --list prints every `run:` command of {} in workflow\n\
                     order, one `# job: <name>` line before each job's commands\n\
                     (`rustup` lines skipped). ci [<job>] runs them (one job, or all)\n\
                     through `sh -c` from the workspace root, goes on past a failure,\n\
                     reports each command's exit and exits nonzero if any failed.",
                    Rule::catalog(),
                    ci::WORKFLOW
                );
                return ExitCode::SUCCESS;
            }
            "ci" => {
                let rest: Vec<String> = args.collect();
                return match workspace_root(root) {
                    Ok(root) => run_ci(&root, &rest),
                    Err(code) => code,
                };
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match workspace_root(root) {
        Ok(root) => root,
        Err(code) => return code,
    };

    let report = match run(&root, &selected) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lifl-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if report.findings.is_empty() {
        println!(
            "lifl-lint: clean — {} files, {} rules",
            report.files_scanned,
            selected.len()
        );
        ExitCode::SUCCESS
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        eprintln!(
            "lifl-lint: {} finding(s) across {} scanned files",
            report.findings.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

/// `--root`, or the workspace above the current directory.
fn workspace_root(root: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    if let Some(root) = root {
        return Ok(root);
    }
    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    find_workspace_root(&cwd).ok_or_else(|| {
        eprintln!("lifl-lint: no workspace root found above {}", cwd.display());
        ExitCode::from(2)
    })
}

/// `ci [--list] [<job>]`: lists or runs the workflow's commands.
fn run_ci(root: &Path, args: &[String]) -> ExitCode {
    let list = args.iter().any(|a| a == "--list");
    let wanted: Vec<&String> = args.iter().filter(|a| *a != "--list").collect();
    if wanted.len() > 1 {
        return usage("ci takes at most one job name");
    }
    let mut jobs = match ci::load(root) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!(
                "lifl-lint ci: cannot read {}: {e}",
                root.join(ci::WORKFLOW).display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(name) = wanted.first() {
        jobs.retain(|j| &j.name == *name);
        if jobs.is_empty() {
            return usage(&format!("ci: no job `{name}` in {}", ci::WORKFLOW));
        }
    }
    if list {
        for job in &jobs {
            println!("# job: {}", job.name);
            for command in &job.commands {
                println!("{command}");
            }
        }
        return ExitCode::SUCCESS;
    }
    let outcomes = ci::run(root, &jobs);
    let failed = outcomes.iter().filter(|o| o.exit != Some(0)).count();
    println!(
        "lifl-lint ci: {} command(s), {failed} failed",
        outcomes.len()
    );
    for o in &outcomes {
        let result = match o.exit {
            Some(0) => "ok".to_string(),
            Some(code) => format!("FAILED (exit {code})"),
            None => "FAILED (no exit code)".to_string(),
        };
        println!("  {result:<18} [{}] {}", o.job, o.command);
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lifl-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
