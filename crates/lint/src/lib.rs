//! # lifl-lint
//!
//! Workspace static analysis for the invariants no compiler states. Every
//! check rustc or clippy can say is theirs: `unsafe` blocks carry a
//! `// SAFETY:` comment and kernel `unsafe fn`s a `# Safety` section
//! (`clippy::undocumented_unsafe_blocks`, `clippy::missing_safety_doc`),
//! the hot-path crates do not panic (`clippy::unwrap_used` and friends), no
//! crate under `crates/` iterates a hash collection, reads a wall clock or
//! starts a thread without an `#[expect]` that says why (`crates/clippy.toml`'s
//! `disallowed-types` and `disallowed-methods`), and only tests build a
//! private worker set (`Workers::with_count` is `#[cfg(test)]`). What is
//! left here is a name, a path or a token scope:
//!
//! | rule | name                | invariant                                               |
//! |------|---------------------|---------------------------------------------------------|
//! | R1   | `unsafe`            | `unsafe` only under `crates/fl/src/kernels/`; every crate root carries `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]` |
//! | R6   | `no-legacy-runtime` | the legacy runtime, the per-representation gateway doors, the payload-copying put path and the collapsed duplicates (`FlDriver`, `async_round`, `lifl_baselines`, `bench_ingest`, the simulator inside `lifl-core`, `FedProxTrainer`, the fault state beside the cluster's: `RecoveryManager`, `HeartbeatMonitor`, `CheckpointStore`, the shared rounding stream: `Turnstile`, `feedback_draws`, `draws_rounding_words`) stay deleted, and no non-test engine code names the simulator's types (`LiflConfig`, `CpuCycles`, ...) |
//! | R8   | `dead-pub`          | every `pub` item of every crate's `src/` is named somewhere outside its own file's unit tests and outside a `pub use` re-export: the workspace, `tests/`, `examples/` or `benchmark/src` |
//!
//! R1 stays a token scan because rustc's `unsafe_code` lint reaches bin,
//! test and example roots only through a per-manifest opt-in. R2, R4 and R5
//! moved to clippy, R3 to the kernel layer's `Kernels` tables, and R7 went
//! with the justfile it compared.
//!
//! Diagnostics are machine readable (`file:line: rule-id: message`) and the
//! binary exits nonzero on any finding. A site with a genuine reason to break
//! a rule opts out inline with `// lifl-lint: allow(<rule>) — <justification>`
//! (or `allow-file(<rule>)` for a whole file); a marker without a
//! justification is itself a finding.
//!
//! The binary's `ci` subcommand ([`ci`]) lists or runs the `run:` commands
//! of `.github/workflows/ci.yml`, the one list of the repo's checks.
//!
//! There is no `syn` offline, so the rules run over a real token-level lexer
//! ([`lexer`]) that understands comments, strings, raw strings and nesting —
//! a `"unsafe"` inside a string literal is never a finding, and a retired
//! name inside a doc comment is never code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ci;
pub mod lexer;
pub mod rules;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rules `lifl-lint` enforces, plus the pseudo-rule for malformed allow
/// markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: `unsafe` containment.
    UnsafeContainment,
    /// R6: the legacy runtime, the deleted gateway doors, the copying put
    /// path and the retired names stay deleted, and engine code names none
    /// of the simulator's types.
    LegacyRuntime,
    /// R8: no `pub` item of any crate that only its own file's tests use.
    DeadPub,
    /// Malformed `lifl-lint: allow(...)` markers (not individually runnable).
    Marker,
}

impl Rule {
    /// Every enforceable rule, in catalog order.
    pub const ALL: [Rule; 3] = [Rule::UnsafeContainment, Rule::LegacyRuntime, Rule::DeadPub];

    /// Stable diagnostic identifier, e.g. `R8-dead-pub`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "R1-unsafe",
            Rule::LegacyRuntime => "R6-no-legacy-runtime",
            Rule::DeadPub => "R8-dead-pub",
            Rule::Marker => "allow-marker",
        }
    }

    /// Short name accepted in allow markers and `--rules`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "unsafe",
            Rule::LegacyRuntime => "no-legacy-runtime",
            Rule::DeadPub => "dead-pub",
            Rule::Marker => "allow-marker",
        }
    }

    /// Code (`R1`..`R8`) of an enforceable rule.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "R1",
            Rule::LegacyRuntime => "R6",
            Rule::DeadPub => "R8",
            Rule::Marker => "allow-marker",
        }
    }

    /// Resolves a marker/CLI rule spelling: short name, `R<k>` code, or the
    /// full diagnostic id.
    pub fn from_marker_name(raw: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| raw == r.name() || raw == r.code() || raw == r.id())
    }

    /// One-line human catalog of the rule names, for diagnostics.
    pub fn catalog() -> String {
        Rule::ALL
            .iter()
            .map(|r| format!("{}={}", r.code(), r.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// One diagnostic: where, which rule, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line number the finding anchors to.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description including the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Result of a lint run.
pub struct Report {
    /// Surviving findings (allow-marker suppression already applied), sorted
    /// by file, line, rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories under the workspace root that are scanned for `.rs` sources.
/// `vendor/` is exempt by design: the shims stand in for external crates and
/// are replaced wholesale if crates.io access ever exists.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Directories whose sources count only as R8 references: the benchmark
/// compiles against the workspace, but no rule checks its own code.
const REFERENCE_ROOTS: [&str; 1] = ["benchmark/src"];

/// The lint's own fixture corpus: full of deliberate violations, never
/// scanned as part of the live workspace.
const FIXTURES_DIR: &str = "crates/lint/tests/fixtures";

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let rel = rel_path(&path, root);
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" || rel == FIXTURES_DIR {
                continue;
            }
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads every scanned source file under `root`, sorted by relative path.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    load(root, &SCAN_ROOTS)
}

/// Loads every `.rs` file under the `subs` directories of `root`, sorted by
/// relative path.
fn load(root: &Path, subs: &[&str]) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for sub in subs {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, root, &mut paths)?;
        }
    }
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        files.push(SourceFile::new(rel_path(&path, root), &text));
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// Runs the selected rules over the workspace at `root` and returns the
/// surviving findings. Marker diagnostics (unknown rule, missing
/// justification) are always included and never suppressible.
pub fn run(root: &Path, selected: &[Rule]) -> io::Result<Report> {
    let files = load_workspace(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    for f in &files {
        findings.extend(f.marker_findings());
    }
    for rule in selected {
        match rule {
            Rule::UnsafeContainment => findings.extend(rules::unsafe_containment(&files)),
            Rule::LegacyRuntime => findings.extend(rules::legacy_runtime(root, &files)),
            Rule::DeadPub => {
                let references = load(root, &REFERENCE_ROOTS)?;
                findings.extend(rules::dead_pub(&files, &references));
            }
            Rule::Marker => {}
        }
    }
    // Apply allow-marker suppression (markers themselves are never
    // suppressible).
    findings.retain(|fi| {
        fi.rule == Rule::Marker
            || !files
                .iter()
                .any(|f| f.rel == fi.file && f.allowed(fi.rule, fi.line))
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
