//! The token-level rules R1, R2, R4–R6 and R8 (R7 lives in [`crate::sync`]
//! because it reads the justfile and CI workflow rather than Rust sources).

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The one directory where `unsafe` is sanctioned: the SIMD kernel layer.
pub const KERNELS_DIR: &str = "crates/fl/src/kernels/";

/// Crates whose non-test code must be panic-free (R4): the aggregation hot
/// path from the type layer up through the session/cluster runtime.
pub const HOT_PATH_CRATES: [&str; 5] = [
    "crates/types/src/",
    "crates/shmem/src/",
    "crates/dataplane/src/",
    "crates/fl/src/",
    "crates/core/src/",
];

/// Modules whose bit-exact determinism the `it`/`faults` tiers prove (R5):
/// the fold kernels, everything that routes updates into them, and the local
/// trainer and metrics whose losses, models and accuracies the driver tier
/// pins. Entries ending in `/` cover a directory.
pub const FOLD_MODULES: [&str; 20] = [
    "crates/types/src/fold.rs",
    "crates/fl/src/aggregate.rs",
    "crates/fl/src/sharded.rs",
    "crates/fl/src/robust.rs",
    "crates/fl/src/update.rs",
    "crates/fl/src/codec.rs",
    "crates/fl/src/kernels/",
    "crates/fl/src/trainer.rs",
    "crates/fl/src/metrics.rs",
    "crates/core/src/session.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/cluster/",
    "crates/core/src/training.rs",
    "crates/core/src/gateway.rs",
    "crates/core/src/aggregator.rs",
    "crates/core/src/admission.rs",
    "crates/core/src/ingress.rs",
    "crates/core/src/stations.rs",
    "crates/serverless/src/fleet.rs",
    "crates/shmem/src/backlog.rs",
];

fn finding(f: &SourceFile, line: u32, rule: Rule, message: String) -> Finding {
    Finding {
        file: f.rel.clone(),
        line,
        rule,
        message,
    }
}

/// Indices of the code (non-comment) tokens of a file.
fn code_indices(f: &SourceFile) -> Vec<usize> {
    (0..f.toks.len()).filter(|&i| f.toks[i].is_code()).collect()
}

// ---------------------------------------------------------------------------
// R1: unsafe containment.
// ---------------------------------------------------------------------------

/// R1: `unsafe` may only appear under [`KERNELS_DIR`]; every crate root must
/// opt out of unsafe with `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`;
/// and the only legal `#[allow(unsafe_code)]` is the scoped one on
/// `crates/fl/src/lib.rs`'s `mod kernels` declaration.
pub fn unsafe_containment(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        let code = code_indices(f);
        if !f.rel.starts_with(KERNELS_DIR) {
            for &i in &code {
                if f.toks[i].is_ident("unsafe") {
                    out.push(finding(
                        f,
                        f.toks[i].line,
                        Rule::UnsafeContainment,
                        format!(
                            "`unsafe` outside {KERNELS_DIR}: move the code into the \
                             kernel layer or justify with `lifl-lint: allow(unsafe) — <why>`"
                        ),
                    ));
                }
            }
        }
        // Scoped allow(unsafe_code) is only legal on fl's kernels module.
        for w in 0..code.len().saturating_sub(3) {
            let [a, b, c, d] = [code[w], code[w + 1], code[w + 2], code[w + 3]];
            if f.toks[a].is_ident("allow")
                && f.toks[b].is_punct("(")
                && f.toks[c].is_ident("unsafe_code")
                && f.toks[d].is_punct(")")
            {
                let gates_kernels = f.rel == "crates/fl/src/lib.rs"
                    && attr_target_is_mod_kernels(&f.toks, &code, w + 4);
                if !gates_kernels {
                    out.push(finding(
                        f,
                        f.toks[a].line,
                        Rule::UnsafeContainment,
                        "`#[allow(unsafe_code)]` may only gate `mod kernels` in \
                         crates/fl/src/lib.rs"
                            .to_string(),
                    ));
                }
            }
        }
        // Crate roots must carry the unsafe_code lint attribute.
        if is_crate_root(&f.rel) && !has_unsafe_code_gate(&f.toks, &code) {
            out.push(finding(
                f,
                1,
                Rule::UnsafeContainment,
                "crate root must carry `#![forbid(unsafe_code)]` (or \
                 `#![deny(unsafe_code)]` when a scoped kernels allow is needed)"
                    .to_string(),
            ));
        }
    }
    out
}

fn is_crate_root(rel: &str) -> bool {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    matches!(
        (parts.next(), parts.next(), parts.next(), parts.next()),
        (Some(_), Some("src"), Some("lib.rs"), None)
    )
}

/// Looks for `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`.
fn has_unsafe_code_gate(toks: &[Tok], code: &[usize]) -> bool {
    for w in 0..code.len().saturating_sub(6) {
        let t = |k: usize| &toks[code[w + k]];
        if t(0).is_punct("#")
            && t(1).is_punct("!")
            && t(2).is_punct("[")
            && (t(3).is_ident("forbid") || t(3).is_ident("deny"))
            && t(4).is_punct("(")
            && t(5).is_ident("unsafe_code")
            && t(6).is_punct(")")
        {
            return true;
        }
    }
    false
}

/// After the `allow ( unsafe_code )` tokens ending at `code[from - 1]`, the
/// attribute close `]` must be followed by `pub mod kernels` / `mod kernels`.
fn attr_target_is_mod_kernels(toks: &[Tok], code: &[usize], from: usize) -> bool {
    let mut k = from;
    if k < code.len() && toks[code[k]].is_punct("]") {
        k += 1;
    }
    if k < code.len() && toks[code[k]].is_ident("pub") {
        k += 1;
    }
    k + 1 < code.len() && toks[code[k]].is_ident("mod") && toks[code[k + 1]].is_ident("kernels")
}

// ---------------------------------------------------------------------------
// R2: SAFETY comments.
// ---------------------------------------------------------------------------

/// R2: every `unsafe fn`, `unsafe {` block, `unsafe impl` and `unsafe trait`
/// must be immediately preceded by a `// SAFETY:` comment stating the
/// precondition the site relies on. Attribute and doc-comment lines between
/// the comment and the `unsafe` token are skipped (`#[target_feature]` sits
/// between them in the kernels); blank lines and code lines are not.
pub fn safety_comments(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for (i, t) in f.toks.iter().enumerate() {
            if !(t.kind == TokKind::Ident && t.text == "unsafe") {
                continue;
            }
            let construct = f.toks[i + 1..]
                .iter()
                .find(|n| n.is_code())
                .map(|n| match n.text.as_str() {
                    "fn" => "`unsafe fn`",
                    "impl" => "`unsafe impl`",
                    "trait" => "`unsafe trait`",
                    _ => "`unsafe` block",
                })
                .unwrap_or("`unsafe`");
            if !has_safety_comment(f, t.line) {
                out.push(finding(
                    f,
                    t.line,
                    Rule::SafetyComment,
                    format!(
                        "{construct} without an immediately preceding `// SAFETY:` \
                         comment stating the precondition it relies on"
                    ),
                ));
            }
        }
    }
    out
}

/// Scans upward from the line above `line`, skipping doc-comment and
/// attribute lines; accepts when the contiguous run of plain `//` lines found
/// there contains one starting with `SAFETY:`.
fn has_safety_comment(f: &SourceFile, line: u32) -> bool {
    // Same-line block comment form: `/* SAFETY: ... */ unsafe { ... }`.
    if let Some(text) = f.lines.get(line as usize - 1) {
        if let (Some(c), Some(u)) = (text.find("SAFETY:"), text.find("unsafe")) {
            if c < u {
                return true;
            }
        }
    }
    let mut l = line as usize - 1; // index of the line above, 1-based
    while l >= 1 {
        let text = f.lines[l - 1].trim_start();
        if text.starts_with("///") || text.starts_with("//!") {
            l -= 1; // doc comment: skip
        } else if text.starts_with("#[") || text.starts_with("#![") {
            l -= 1; // attribute: skip
        } else if let Some(comment) = text.strip_prefix("//") {
            // Plain comment run: walk it upward looking for the SAFETY tag.
            if comment.trim_start().starts_with("SAFETY:") {
                return true;
            }
            l -= 1;
            while l >= 1 {
                let above = f.lines[l - 1].trim_start();
                match above.strip_prefix("//") {
                    Some(c) if !above.starts_with("///") && !above.starts_with("//!") => {
                        if c.trim_start().starts_with("SAFETY:") {
                            return true;
                        }
                        l -= 1;
                    }
                    _ => return false,
                }
            }
            return false;
        } else {
            return false; // code or blank line: not "immediately preceding"
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R4: panic freedom.
// ---------------------------------------------------------------------------

/// R4: no `.unwrap()`, `.expect(`, `panic!`, `todo!` or `unimplemented!` in
/// non-test code of the hot-path crates. Genuine invariants that cannot be
/// expressed as `Result` justify themselves inline with
/// `lifl-lint: allow(panic) — <why>`.
pub fn panic_freedom(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !HOT_PATH_CRATES.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        let code = code_indices(f);
        for w in 0..code.len() {
            let idx = code[w];
            if f.is_test(idx) {
                continue;
            }
            let t = &f.toks[idx];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |text: &str| code.get(w + 1).is_some_and(|&n| f.toks[n].is_punct(text));
            let prev_is_dot = w > 0 && f.toks[code[w - 1]].is_punct(".");
            let what = match t.text.as_str() {
                "unwrap" | "expect" if prev_is_dot && next_is("(") => {
                    format!("`.{}()`", t.text)
                }
                "panic" | "todo" | "unimplemented" if next_is("!") => {
                    format!("`{}!`", t.text)
                }
                _ => continue,
            };
            out.push(finding(
                f,
                t.line,
                Rule::Panic,
                format!(
                    "{what} in a hot-path crate: return a `lifl_types::error` \
                     Result on fallible paths, or justify the invariant with \
                     `lifl-lint: allow(panic) — <why>`"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R5: determinism of the fold modules.
// ---------------------------------------------------------------------------

/// R5: the fold/aggregation modules must not use `HashMap`/`HashSet` (their
/// iteration order is seeded per process — `BTreeMap`/`BTreeSet` iterate
/// deterministically), nor read wall clocks (`Instant::now`, `SystemTime`),
/// because the `it`/`faults` tiers prove these modules bit-exact across
/// backends, shard counts and processes.
pub fn determinism(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        let scoped = FOLD_MODULES.iter().any(|m| {
            if let Some(dir) = m.strip_suffix('/') {
                f.rel.starts_with(dir) && f.rel[dir.len()..].starts_with('/')
            } else {
                f.rel == *m
            }
        });
        if !scoped {
            continue;
        }
        let code = code_indices(f);
        for w in 0..code.len() {
            let idx = code[w];
            if f.is_test(idx) {
                continue;
            }
            let t = &f.toks[idx];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "HashMap" | "HashSet" => out.push(finding(
                    f,
                    t.line,
                    Rule::Determinism,
                    format!(
                        "`{}` in a deterministic fold module: iteration order is \
                         per-process random; use `BTreeMap`/`BTreeSet`, or justify \
                         keyed-only access with `lifl-lint: allow(determinism) — <why>`",
                        t.text
                    ),
                )),
                "Instant"
                    if code.get(w + 1).is_some_and(|&a| f.toks[a].is_punct(":"))
                        && code.get(w + 2).is_some_and(|&a| f.toks[a].is_punct(":"))
                        && code.get(w + 3).is_some_and(|&a| f.toks[a].is_ident("now")) =>
                {
                    out.push(finding(
                        f,
                        t.line,
                        Rule::Determinism,
                        "`Instant::now` in a deterministic fold module: wall-clock \
                         reads make folds irreproducible; thread simulated time in \
                         instead"
                            .to_string(),
                    ))
                }
                "SystemTime" => out.push(finding(
                    f,
                    t.line,
                    Rule::Determinism,
                    "`SystemTime` in a deterministic fold module: wall-clock reads \
                     make folds irreproducible; thread simulated time in instead"
                        .to_string(),
                )),
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R6: the legacy runtime stays deleted.
// ---------------------------------------------------------------------------

/// The representation-specific gateway doors PR 12 folded into the one
/// polymorphic `Gateway::ingest`.
const DELETED_GATEWAY_DOORS: [&str; 4] = [
    "ingest_client_update",
    "ingest_encoded_update",
    "ingest_remote_encoded",
    "ingest_remote_update",
];

/// Files whose deletion must stick, with the PR that deleted them and where
/// their content went.
const DELETED_FILES: [(&str, &str); 2] = [
    (
        "crates/core/src/runtime.rs",
        "the legacy runtime module is back; it was deleted in PR 6 \
         (see MIGRATION.md) and must stay gone",
    ),
    (
        "crates/core/src/platform.rs",
        "the paper simulator is back inside the engine crate; it moved to \
         `crates/sim` in PR 24 (see MIGRATION.md) and `lifl-core` stays engine-only",
    ),
];

/// Names PR 24 retired when the second round loop, the second async buffer,
/// the baselines crate and the superseded ingest harness were deleted, with
/// where each one's users go now.
const RETIRED_IN_PR24: [(&str, &str); 5] = [
    (
        "FlDriver",
        "run `TrainingDriver` over the flat `lifl_fl::FlatFedAvg` backend",
    ),
    (
        "FlDriverConfig",
        "use `TrainingConfig`; the codec belongs to the `FlatFedAvg` backend",
    ),
    (
        "async_round",
        "asynchronous FL is `TrainingDriver::run_async`",
    ),
    (
        "lifl_baselines",
        "the baseline profiles and `WorkloadDriver` live in `lifl_sim`",
    ),
    (
        "bench_ingest",
        "`benchmark/`'s `stream_burst` workload measures the streaming ingress",
    ),
];

/// Names retired when asynchronous FL moved onto the one training driver:
/// its own aggregator, driver, config and outcome went, and a version
/// became a round of the backend `TrainingDriver::run_async` drives.
const RETIRED_WITH_ASYNC_DRIVER: [&str; 5] = [
    "async_driver",
    "AsyncAggregator",
    "AsyncFlDriver",
    "AsyncDriverConfig",
    "AsyncVersionOutcome",
];

/// Names retired when a killed node began re-folding its round from the
/// stored keys: a child kill is no drive error and nothing is re-sent, with
/// where each one's users go now.
const RETIRED_WITH_FAULT_RESEND: [(&str, &str); 3] = [
    (
        "run_round_resilient",
        "call `TrainingDriver::run_round`, which survives a child kill and adopts a \
         restored checkpoint after a top kill",
    ),
    (
        "take_lost_clients",
        "nothing is lost to re-send: the restarted node re-delivers its round from \
         the stored keys (`NodeKill::lost_updates` and `FaultStats` count them)",
    ),
    (
        "NodeFailure",
        "`Cluster::drive` restarts a killed child node and completes the round; only \
         a top-host kill fails it, with `AggregatorFailure`",
    ),
];

/// Names retired when FedProx's proximal term moved into the one local
/// trainer's step, with where each one's users go now.
const RETIRED_WITH_FEDPROX_TRAINER: [(&str, &str); 2] = [
    (
        "FedProxTrainer",
        "train with `LocalTrainer`, whose every mini-batch step applies the proximal \
         term when `TrainerConfig::mu` is positive",
    ),
    (
        "FedProxConfig",
        "set `TrainerConfig::mu` (checked with the learning rate by \
         `TrainerConfig::validate`)",
    ),
];

/// Names retired when the cluster's `faults` module became the one owner of
/// fault state, keeping only the latest checkpoint, with where each one's
/// users go now.
const RETIRED_WITH_FAULT_STATE: [(&str, &str); 7] = [
    (
        "RecoveryManager",
        "enable `ClusterBuilder::fault_tolerance`; the cluster commits, checkpoints \
         and recovers its global top itself",
    ),
    (
        "model_to_bytes",
        "a checkpoint is the committed `DenseModel`, copied into one reused buffer \
         with no byte round trip; read it with `Cluster::checkpoint`",
    ),
    (
        "model_from_bytes",
        "a restore hands the checkpointed `DenseModel` over as \
         `RecoveryOutcome::recovered_model`",
    ),
    (
        "HeartbeatMonitor",
        "each node's last keep-alive lives in the cluster: `Cluster::node_heartbeat` \
         and `Cluster::detect_failed_nodes`",
    ),
    (
        "CheckpointStore",
        "the cluster keeps its latest checkpoint (`Cluster::checkpoint`); the \
         simulator's agent keeps its own (`LiflAgent::latest_checkpoint`)",
    ),
    (
        "checkpoint_store",
        "call `Cluster::checkpoint`, which returns the latest `(RoundId, &DenseModel)`",
    ),
    (
        "TopRecovery",
        "`Cluster::take_recovery` returns the `RecoveryOutcome` itself",
    ),
];

/// Names retired when every encode began drawing its rounding words from its
/// own key instead of from a stream shared in offer order, with where each
/// one's users go now.
const RETIRED_WITH_KEYED_ROUNDING: [(&str, &str); 3] = [
    (
        "Turnstile",
        "encodes share no stream, so nothing hands one on in order: each draws \
         from `StochasticRng::keyed` of its own key",
    ),
    (
        "feedback_draws",
        "no encode claims a share of a stream: `CompensatedJob::finish` draws from \
         the generator its job was keyed with",
    ),
    (
        "draws_rounding_words",
        "every job is keyed when `ErrorFeedback::take_job` takes it; finish it with \
         `compensate().finish()` on any thread, in any order",
    ),
];

/// The engine's data-plane files: every payload here is written once by its
/// producer and *moved* into the store (PR 21), so the copying conveniences
/// below have no business in their non-test code.
const MOVE_ONLY_FILES: [&str; 8] = [
    "crates/core/src/gateway.rs",
    "crates/core/src/ingress.rs",
    "crates/core/src/session.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/cluster/faults.rs",
    "crates/core/src/cluster/placement.rs",
    "crates/core/src/cluster/scaling.rs",
    "crates/core/src/aggregator.rs",
];

/// Calls that copy a whole payload, as code-token sequences, with what to do
/// instead. Scoped to [`MOVE_ONLY_FILES`]; everywhere else they stay the
/// conveniences they are.
const PAYLOAD_COPIES: [(&[&str], &str); 4] = [
    (
        &[".", "to_bytes", "(", ")"],
        "`.to_bytes()` serializes a second buffer; borrow `wire()` or move `into_wire()`",
    ),
    (
        &["put_f32", "("],
        "`put_f32(` re-encodes the model into a fresh buffer; move the model in with `into_wire()`",
    ),
    (
        &["encode_f32", "("],
        "`encode_f32(` copies the model element by element; view it with `kernels::le_bytes`",
    ),
    (
        &["update", ".", "clone", "(", ")"],
        "`update.clone()` copies the payload; hand the update over by value",
    ),
];

/// The engine crates, where only [`THREAD_MODULE`] may start a thread (R6).
pub const ENGINE_CRATES: [&str; 4] = [
    "crates/types/src/",
    "crates/shmem/src/",
    "crates/fl/src/",
    "crates/core/src/",
];

/// The one module of the [`ENGINE_CRATES`] that may start a thread: a
/// session's stations run on its session-lifetime worker set, never on
/// threads started per round, and a station's fold runs on the thread that
/// claimed it.
pub const THREAD_MODULE: &str = "crates/core/src/stations.rs";

/// Thread starts, as code-token sequences (`::` lexes as two `:`): a scope,
/// a bare spawn, and a `Builder` in either spelling.
const THREAD_STARTS: [&[&str]; 4] = [
    &["thread", ":", ":", "scope"],
    &["thread", ":", ":", "spawn"],
    &["thread", ":", ":", "Builder"],
    &["Builder", ":", ":", "spawn"],
];

/// Whether the code tokens from `code[w]` on spell `pattern`.
fn spells(f: &SourceFile, code: &[usize], w: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, text)| {
        code.get(w + k).is_some_and(|&i| {
            let t = &f.toks[i];
            matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == *text
        })
    })
}

/// A private worker set, as code tokens. Engine code outside
/// [`THREAD_MODULE`] takes the process's shared set (`Workers::new`) or the
/// one it is handed, so a training driver and its backend always run on one
/// set of threads; only tests choose a worker count.
const PRIVATE_WORKER_SET: &[&str] = &["Workers", ":", ":", "with_count"];

/// R6's one-thread-site half: the [`THREAD_STARTS`] and the
/// [`PRIVATE_WORKER_SET`]s in non-test code of the [`ENGINE_CRATES`] outside
/// [`THREAD_MODULE`].
fn thread_starts(f: &SourceFile, code: &[usize], out: &mut Vec<Finding>) {
    let engine = ENGINE_CRATES.iter().any(|c| f.rel.starts_with(c));
    if !engine || f.rel == THREAD_MODULE {
        return;
    }
    for w in 0..code.len() {
        if f.is_test(code[w]) {
            continue;
        }
        if spells(f, code, w, PRIVATE_WORKER_SET) {
            out.push(finding(
                f,
                f.toks[code[w]].line,
                Rule::LegacyRuntime,
                format!(
                    "`Workers::with_count` builds a private worker set outside \
                     {THREAD_MODULE}: engine code takes the process's shared set \
                     (`Workers::new`) or the one it is handed, so a driver's \
                     training and its backend's encodes share one set of threads"
                ),
            ));
        }
        for pattern in THREAD_STARTS {
            if spells(f, code, w, pattern) {
                out.push(finding(
                    f,
                    f.toks[code[w]].line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{}` starts a thread outside {THREAD_MODULE}: the per-drive \
                         thread scope was retired in PR 25; run the work on the \
                         session's `Workers`",
                        pattern.concat()
                    ),
                ));
            }
        }
    }
}

/// The paper simulator's configuration and accounting types, which left
/// `lifl-types` for `lifl_sim::config` (the first six) and `lifl_dataplane`
/// (`CpuCycles`, `SystemKind`). The engine takes its codec, fold policy and
/// fan-ins as builder arguments and names none of them. `lifl-core`'s
/// manifest still lists `lifl-dataplane` (ROADMAP item 4), so only this
/// check keeps `lifl_dataplane::CpuCycles` out of engine code.
const SIMULATOR_TYPES: [&str; 8] = [
    "LiflConfig",
    "ClusterConfig",
    "NodeConfig",
    "PlacementPolicy",
    "AggregationTiming",
    "RoundMetrics",
    "CpuCycles",
    "SystemKind",
];

/// R6's one-way-arrow half: the [`SIMULATOR_TYPES`] named by non-test code
/// of the [`ENGINE_CRATES`].
fn simulator_types(f: &SourceFile, code: &[usize], out: &mut Vec<Finding>) {
    if !ENGINE_CRATES.iter().any(|c| f.rel.starts_with(c)) {
        return;
    }
    for &i in code {
        let t = &f.toks[i];
        if t.kind == TokKind::Ident && !f.is_test(i) && SIMULATOR_TYPES.contains(&t.text.as_str()) {
            out.push(finding(
                f,
                t.line,
                Rule::LegacyRuntime,
                format!(
                    "`{}` is the paper simulator's type (`lifl_sim::config` or \
                     `lifl_dataplane`); engine code takes its codec, fold policy and \
                     fan-ins as builder arguments and never names it",
                    t.text
                ),
            ));
        }
    }
}

/// R6's move-only half: the payload-copying calls of [`PAYLOAD_COPIES`] in
/// non-test code of the [`MOVE_ONLY_FILES`].
fn payload_copies(f: &SourceFile, code: &[usize], out: &mut Vec<Finding>) {
    if !MOVE_ONLY_FILES.contains(&f.rel.as_str()) {
        return;
    }
    for w in 0..code.len() {
        if f.is_test(code[w]) {
            continue;
        }
        for (pattern, advice) in PAYLOAD_COPIES {
            if spells(f, code, w, pattern) {
                out.push(finding(
                    f,
                    f.toks[code[w]].line,
                    Rule::LegacyRuntime,
                    format!(
                        "payload copy on the engine's move-only path (the copying put \
                         path deleted in PR 21): {advice}"
                    ),
                ));
            }
        }
    }
}

/// R6: the legacy runtime deleted in PR 6 (`crates/core/src/runtime.rs`, the
/// `run_hierarchical*` entry points and their `#[allow(deprecated)]` escape
/// hatches), the per-representation gateway doors deleted in PR 12
/// (`DELETED_GATEWAY_DOORS`), the copying put path deleted in PR 21
/// (`PAYLOAD_COPIES` in non-test code of `MOVE_ONLY_FILES`), the
/// duplicates collapsed in PR 24 (`RETIRED_IN_PR24`, and the simulator's
/// `crates/core/src/platform.rs` among the `DELETED_FILES`), the
/// per-drive thread scope retired in PR 25 (`THREAD_STARTS` outside
/// `THREAD_MODULE`, and with it any `PRIVATE_WORKER_SET`) and the
/// asynchronous stack beside the training driver
/// (`RETIRED_WITH_ASYNC_DRIVER`), the client re-send path of node
/// failures (`RETIRED_WITH_FAULT_RESEND`), the second local-SGD loop of
/// FedProx (`RETIRED_WITH_FEDPROX_TRAINER`), the fault state beside the
/// cluster's (`RETIRED_WITH_FAULT_STATE`) and the rounding stream the
/// ingress encodes shared (`RETIRED_WITH_KEYED_ROUNDING`) must stay
/// deleted, and non-test code of the `ENGINE_CRATES` names none of the
/// `SIMULATOR_TYPES`. Unlike
/// the shell guard this replaces, the check runs on code tokens, so prose
/// in comments and string literals can mention the old names freely.
pub fn legacy_runtime(root: &Path, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, message) in DELETED_FILES {
        if root.join(file).exists() {
            out.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: Rule::LegacyRuntime,
                message: message.to_string(),
            });
        }
    }
    for f in files {
        let code = code_indices(f);
        payload_copies(f, &code, &mut out);
        thread_starts(f, &code, &mut out);
        simulator_types(f, &code, &mut out);
        for w in 0..code.len() {
            let t = &f.toks[code[w]];
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text.starts_with("run_hierarchical") {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{}` references the legacy runtime deleted in PR 6; port \
                         the call site onto Session/Cluster (see MIGRATION.md)",
                        t.text
                    ),
                ));
            } else if DELETED_GATEWAY_DOORS.contains(&t.text.as_str()) {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{}` is one of the per-representation gateway doors deleted \
                         in PR 12; go through `Gateway::ingest` (see MIGRATION.md)",
                        t.text
                    ),
                ));
            } else if let Some((name, advice)) =
                RETIRED_IN_PR24.iter().find(|(name, _)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!("`{name}` was retired in PR 24; {advice} (see MIGRATION.md)"),
                ));
            } else if RETIRED_WITH_ASYNC_DRIVER.contains(&t.text.as_str()) {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{}` was retired when asynchronous FL moved onto the training \
                         driver; call `TrainingDriver::run_async`, which takes the \
                         `StalenessPolicy` and returns an `AsyncCommit` per version \
                         (see MIGRATION.md)",
                        t.text
                    ),
                ));
            } else if let Some((name, advice)) =
                (RETIRED_WITH_FAULT_RESEND.iter()).find(|(name, _)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{name}` was retired when a killed node began re-folding its \
                         round from the stored keys; {advice} (see MIGRATION.md)"
                    ),
                ));
            } else if let Some((name, advice)) =
                (RETIRED_WITH_FEDPROX_TRAINER.iter()).find(|(name, _)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{name}` was retired when FedProx's proximal term moved into \
                         the one local trainer; {advice} (see MIGRATION.md)"
                    ),
                ));
            } else if let Some((name, advice)) =
                (RETIRED_WITH_FAULT_STATE.iter()).find(|(name, _)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{name}` was retired when the cluster became the one owner of \
                         fault state; {advice} (see MIGRATION.md)"
                    ),
                ));
            } else if let Some((name, advice)) =
                (RETIRED_WITH_KEYED_ROUNDING.iter()).find(|(name, _)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!(
                        "`{name}` was retired when every encode began drawing its \
                         rounding words from its own key; {advice} (see MIGRATION.md)"
                    ),
                ));
            } else if t.text == "runtime"
                && code.get(w + 1).is_some_and(|&a| f.toks[a].is_punct(":"))
                && code.get(w + 2).is_some_and(|&a| f.toks[a].is_punct(":"))
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    "`runtime::` path references the legacy runtime module deleted \
                     in PR 6"
                        .to_string(),
                ));
            } else if t.text == "allow"
                && code.get(w + 1).is_some_and(|&a| f.toks[a].is_punct("("))
                && code
                    .get(w + 2)
                    .is_some_and(|&a| f.toks[a].is_ident("deprecated"))
                && code.get(w + 3).is_some_and(|&a| f.toks[a].is_punct(")"))
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    "`#[allow(deprecated)]` escape hatches went away with the \
                     legacy runtime in PR 6; port the call site instead"
                        .to_string(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R8: no dead `pub`.
// ---------------------------------------------------------------------------

/// Keywords whose next identifier names the item they introduce: after one
/// of these an identifier is a definition, never a use.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// The name token of the item a plain `pub` at `code[w]` introduces, if it
/// introduces one of [`ITEM_KEYWORDS`] (`pub(crate)`, `pub mod` and
/// `pub use` do not).
fn pub_item_name(f: &SourceFile, code: &[usize], w: usize) -> Option<usize> {
    let tok = |k: usize| code.get(k).map(|&i| &f.toks[i]);
    let mut k = w + 1;
    while let Some(t) = tok(k) {
        let qualifier = matches!(t.text.as_str(), "unsafe" | "async" | "extern")
            || t.kind == TokKind::Str
            || (t.is_ident("const")
                && tok(k + 1).is_some_and(|n| n.is_ident("fn") || n.is_ident("unsafe")));
        if !qualifier {
            break;
        }
        k += 1;
    }
    let keyword = tok(k)?;
    let name = *code.get(k + 1)?;
    (keyword.kind == TokKind::Ident
        && ITEM_KEYWORDS.contains(&keyword.text.as_str())
        && f.toks[name].kind == TokKind::Ident)
        .then_some(name)
}

/// Whether the code token `code[w]` opens a re-export: a `use` after `pub`
/// or after a `pub(...)` restriction.
fn opens_reexport(f: &SourceFile, code: &[usize], w: usize) -> bool {
    let tok = |k: usize| &f.toks[code[k]];
    if !tok(w).is_ident("use") || w == 0 {
        return false;
    }
    let mut k = w - 1;
    if tok(k).is_punct(")") {
        while k > 0 && !tok(k).is_punct("(") {
            k -= 1;
        }
        let Some(before) = k.checked_sub(1) else {
            return false;
        };
        k = before;
    }
    tok(k).is_ident("pub")
}

/// Whether `rel` is a crate's own source (`crates/<name>/src/...`), the
/// code R8 checks; a crate's `tests/` only count as users.
fn is_crate_source(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, r)| r.starts_with("src/"))
}

/// R8: every plain `pub` item (fn, type, trait, const, static, alias) in
/// non-test code of every crate's `src/` must be named by a code token that
/// is not a definition, not part of a re-export (`pub use`, which only
/// opens another path to the item) and not in its own file's unit tests,
/// anywhere in the scanned workspace or in `references` (the benchmark,
/// which compiles against the engine). Integration tests, examples and the
/// benchmark count whole; another file's unit tests count too. An item only its own file's
/// tests name is test scaffolding: delete it, gate it on `cfg(test)`, or say
/// why it stays public with `lifl-lint: allow(dead-pub) — <why>`. The scan
/// is by name, so it errs toward keeping: a name any other item shares is
/// never flagged.
pub fn dead_pub(files: &[SourceFile], references: &[SourceFile]) -> Vec<Finding> {
    // Per name, the files that use it: `None` for a use by code, `Some(file)`
    // for a use by that file's unit tests only.
    let mut uses: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for f in files.iter().chain(references) {
        let code = code_indices(f);
        // Integration tests, examples and the benchmark are users whole.
        let user = !f.rel.starts_with("crates/");
        // Inside a `pub use ...;`: its names are another path, not a use.
        let mut reexport = false;
        for (w, &i) in code.iter().enumerate() {
            let t = &f.toks[i];
            reexport = (reexport && !t.is_punct(";")) || opens_reexport(f, &code, w);
            let defined = w > 0 && ITEM_KEYWORDS.contains(&f.toks[code[w - 1]].text.as_str());
            if t.kind == TokKind::Ident && !defined && !reexport {
                let by = (!user && f.is_test(i)).then_some(f.rel.as_str());
                uses.entry(&t.text).or_default().insert(by);
            }
        }
    }
    let mut out = Vec::new();
    for f in files {
        if !is_crate_source(&f.rel) {
            continue;
        }
        let code = code_indices(f);
        for w in 0..code.len() {
            if !f.toks[code[w]].is_ident("pub") || f.is_test(code[w]) {
                continue;
            }
            let Some(name) = pub_item_name(f, &code, w) else {
                continue;
            };
            let name = &f.toks[name].text;
            let own_tests = Some(f.rel.as_str());
            let used = uses
                .get(name.as_str())
                .is_some_and(|by| by.iter().any(|&by| by != own_tests));
            if !used {
                out.push(finding(
                    f,
                    f.toks[code[w]].line,
                    Rule::DeadPub,
                    format!(
                        "`pub` item `{name}` has no user outside its own file's tests: delete it, \
                         move it under `#[cfg(test)]`, or justify with \
                         `lifl-lint: allow(dead-pub) — <why>`"
                    ),
                ));
            }
        }
    }
    out
}
