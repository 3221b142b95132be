//! # lifl-lint
//!
//! Workspace static analysis that machine-enforces the repo's load-bearing
//! invariants. PR 8 relaxed `forbid(unsafe_code)` to land AVX2 kernels, and
//! since then the safety story (unsafe confined to `crates/fl/src/kernels/`)
//! and the determinism story (bit-exact folds across backends) were enforced
//! only by convention and review. This crate checks them as named,
//! individually testable rules on every commit. R3 is retired: that every
//! kernel arm has every kernel, with one signature, is the compiler's to
//! check, each arm being one table of the kernel layer's `Kernels` struct.
//!
//! | rule | name                | invariant                                               |
//! |------|---------------------|---------------------------------------------------------|
//! | R1   | `unsafe`            | `unsafe` only under `crates/fl/src/kernels/`; every crate root carries `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]` |
//! | R2   | `safety-comment`    | every `unsafe fn` / `unsafe {` / `unsafe impl` is immediately preceded by a `// SAFETY:` comment |
//! | R4   | `panic`             | no `unwrap()`/`expect(`/`panic!`/`todo!`/`unimplemented!` in non-test code of the hot-path crates |
//! | R5   | `determinism`       | no `HashMap`/`HashSet`, `Instant::now` or `SystemTime` in the fold/aggregation modules |
//! | R6   | `no-legacy-runtime` | the legacy runtime, the per-representation gateway doors, the payload-copying put path and the collapsed duplicates (`FlDriver`, `async_round`, `lifl_baselines`, `bench_ingest`, the simulator inside `lifl-core`, `FedProxTrainer`) stay deleted, no code of the engine crates (`types`, `shmem`, `fl`, `core`) but the station executor (`crates/core/src/stations.rs`) starts a thread, and no non-test engine code names the simulator's types (`LiflConfig`, `CpuCycles`, ...) |
//! | R7   | `ci-sync`           | the justfile `ci` recipe and `.github/workflows/ci.yml` run the same commands |
//! | R8   | `dead-pub`          | every `pub` item of every crate's `src/` is named somewhere outside its own file's unit tests and outside a `pub use` re-export: the workspace, `tests/`, `examples/` or `benchmark/src` |
//!
//! Diagnostics are machine readable (`file:line: rule-id: message`) and the
//! binary exits nonzero on any finding. A site with a genuine reason to break
//! a rule opts out inline with `// lifl-lint: allow(<rule>) — <justification>`
//! (or `allow-file(<rule>)` for a whole file); a marker without a
//! justification is itself a finding.
//!
//! There is no `syn` offline, so the rules run over a real token-level lexer
//! ([`lexer`]) that understands comments, strings, raw strings and nesting —
//! a `"unsafe"` inside a string literal is never a finding, and an `unwrap()`
//! inside a doc comment is never code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod source;
pub mod sync;

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
    /// R2: `// SAFETY:` comments on every unsafe site.
    SafetyComment,
    /// R4: panic freedom on the hot-path crates.
    Panic,
    /// R5: determinism of the fold/aggregation modules.
    Determinism,
    /// R6: the legacy runtime, the deleted gateway doors, the copying put
    /// path and the duplicates collapsed in PR 24 stay deleted, and the
    /// engine starts threads, and sizes worker sets, in its station executor
    /// only.
    LegacyRuntime,
    /// R7: justfile ↔ ci.yml command sync.
    CiSync,
    /// R8: no `pub` item of any crate that only its own file's tests use.
    DeadPub,
    /// Malformed `lifl-lint: allow(...)` markers (not individually runnable).
    Marker,
}

impl Rule {
    /// Every enforceable rule, in catalog order.
    pub const ALL: [Rule; 7] = [
        Rule::UnsafeContainment,
        Rule::SafetyComment,
        Rule::Panic,
        Rule::Determinism,
        Rule::LegacyRuntime,
        Rule::CiSync,
        Rule::DeadPub,
    ];

    /// Stable diagnostic identifier, e.g. `R4-panic`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "R1-unsafe",
            Rule::SafetyComment => "R2-safety-comment",
            Rule::Panic => "R4-panic",
            Rule::Determinism => "R5-determinism",
            Rule::LegacyRuntime => "R6-no-legacy-runtime",
            Rule::CiSync => "R7-ci-sync",
            Rule::DeadPub => "R8-dead-pub",
            Rule::Marker => "allow-marker",
        }
    }

    /// Short name accepted in allow markers and `--rules`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "unsafe",
            Rule::SafetyComment => "safety-comment",
            Rule::Panic => "panic",
            Rule::Determinism => "determinism",
            Rule::LegacyRuntime => "no-legacy-runtime",
            Rule::CiSync => "ci-sync",
            Rule::DeadPub => "dead-pub",
            Rule::Marker => "allow-marker",
        }
    }

    /// Code (`R1`..`R8`) of an enforceable rule.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeContainment => "R1",
            Rule::SafetyComment => "R2",
            Rule::Panic => "R4",
            Rule::Determinism => "R5",
            Rule::LegacyRuntime => "R6",
            Rule::CiSync => "R7",
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
    /// When R7 ran clean, the number of commands the justfile and ci.yml
    /// agree on (the old `check_ci_sync.sh` reported this count).
    pub ci_sync_commands: Option<usize>,
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
    let mut ci_sync_commands = None;
    for rule in selected {
        match rule {
            Rule::UnsafeContainment => findings.extend(rules::unsafe_containment(&files)),
            Rule::SafetyComment => findings.extend(rules::safety_comments(&files)),
            Rule::Panic => findings.extend(rules::panic_freedom(&files)),
            Rule::Determinism => findings.extend(rules::determinism(&files)),
            Rule::LegacyRuntime => findings.extend(rules::legacy_runtime(root, &files)),
            Rule::CiSync => {
                let (sync_findings, count) = sync::ci_sync(root);
                findings.extend(sync_findings);
                ci_sync_commands = count;
            }
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
        ci_sync_commands,
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
