//! The token-level rules R1, R6 and R8.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The one directory where `unsafe` is sanctioned: the SIMD kernel layer.
pub const KERNELS_DIR: &str = "crates/fl/src/kernels/";

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
// R6: the legacy runtime stays deleted.
// ---------------------------------------------------------------------------

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

// Why each group of `RETIRED` names went.
const GATEWAY_DOORS: &str = "is one of the per-representation gateway doors deleted in PR 12";
const PR24: &str = "was retired in PR 24";
const ASYNC_DRIVER: &str = "was retired when asynchronous FL moved onto the training driver";
const FAULT_RESEND: &str =
    "was retired when a killed node began re-folding its round from the stored keys";
const FEDPROX_TRAINER: &str =
    "was retired when FedProx's proximal term moved into the one local trainer";
const FAULT_STATE: &str = "was retired when the cluster became the one owner of fault state";
const KEYED_ROUNDING: &str =
    "was retired when every encode began drawing its rounding words from its own key";

/// What a [`GATEWAY_DOORS`] name's users call now.
const INGEST: &str = "go through `Gateway::ingest`";
/// What an [`ASYNC_DRIVER`] name's users call now.
const RUN_ASYNC: &str = "call `TrainingDriver::run_async`, which takes the `StalenessPolicy` \
     and returns an `AsyncCommit` per version";

/// Names that stay deleted: the name, why it went, and what to use instead.
const RETIRED: [(&str, &str, &str); 29] = [
    ("ingest_client_update", GATEWAY_DOORS, INGEST),
    ("ingest_encoded_update", GATEWAY_DOORS, INGEST),
    ("ingest_remote_encoded", GATEWAY_DOORS, INGEST),
    ("ingest_remote_update", GATEWAY_DOORS, INGEST),
    (
        "FlDriver",
        PR24,
        "run `TrainingDriver` over the flat `lifl_fl::FlatFedAvg` backend",
    ),
    (
        "FlDriverConfig",
        PR24,
        "use `TrainingConfig`; the codec belongs to the `FlatFedAvg` backend",
    ),
    (
        "async_round",
        PR24,
        "asynchronous FL is `TrainingDriver::run_async`",
    ),
    (
        "lifl_baselines",
        PR24,
        "the baseline profiles and `WorkloadDriver` live in `lifl_sim`",
    ),
    (
        "bench_ingest",
        PR24,
        "`benchmark/`'s `stream_burst` workload measures the streaming ingress",
    ),
    ("async_driver", ASYNC_DRIVER, RUN_ASYNC),
    ("AsyncAggregator", ASYNC_DRIVER, RUN_ASYNC),
    ("AsyncFlDriver", ASYNC_DRIVER, RUN_ASYNC),
    ("AsyncDriverConfig", ASYNC_DRIVER, RUN_ASYNC),
    ("AsyncVersionOutcome", ASYNC_DRIVER, RUN_ASYNC),
    (
        "run_round_resilient",
        FAULT_RESEND,
        "call `TrainingDriver::run_round`, which survives a child kill and adopts a \
         restored checkpoint after a top kill",
    ),
    (
        "take_lost_clients",
        FAULT_RESEND,
        "nothing is lost to re-send: the restarted node re-delivers its round from \
         the stored keys (`NodeKill::lost_updates` and `FaultStats` count them)",
    ),
    (
        "NodeFailure",
        FAULT_RESEND,
        "`Cluster::drive` restarts a killed child node and completes the round; only \
         a top-host kill fails it, with `AggregatorFailure`",
    ),
    (
        "FedProxTrainer",
        FEDPROX_TRAINER,
        "train with `LocalTrainer`, whose every mini-batch step applies the proximal \
         term when `TrainerConfig::mu` is positive",
    ),
    (
        "FedProxConfig",
        FEDPROX_TRAINER,
        "set `TrainerConfig::mu` (checked with the learning rate by \
         `TrainerConfig::validate`)",
    ),
    (
        "RecoveryManager",
        FAULT_STATE,
        "enable `ClusterBuilder::fault_tolerance`; the cluster commits, checkpoints \
         and recovers its global top itself",
    ),
    (
        "model_to_bytes",
        FAULT_STATE,
        "a checkpoint is the committed `DenseModel`, copied into one reused buffer \
         with no byte round trip; read it with `Cluster::checkpoint`",
    ),
    (
        "model_from_bytes",
        FAULT_STATE,
        "a restore hands the checkpointed `DenseModel` over as \
         `RecoveryOutcome::recovered_model`",
    ),
    (
        "HeartbeatMonitor",
        FAULT_STATE,
        "each node's last keep-alive lives in the cluster: `Cluster::node_heartbeat` \
         and `Cluster::detect_failed_nodes`",
    ),
    (
        "CheckpointStore",
        FAULT_STATE,
        "the cluster keeps its latest checkpoint (`Cluster::checkpoint`); the \
         simulator's agent keeps its own (`LiflAgent::latest_checkpoint`)",
    ),
    (
        "checkpoint_store",
        FAULT_STATE,
        "call `Cluster::checkpoint`, which returns the latest `(RoundId, &DenseModel)`",
    ),
    (
        "TopRecovery",
        FAULT_STATE,
        "`Cluster::take_recovery` returns the `RecoveryOutcome` itself",
    ),
    (
        "Turnstile",
        KEYED_ROUNDING,
        "encodes share no stream, so nothing hands one on in order: each draws \
         from `StochasticRng::keyed` of its own key",
    ),
    (
        "feedback_draws",
        KEYED_ROUNDING,
        "no encode claims a share of a stream: `CompensatedJob::finish` draws from \
         the generator its job was keyed with",
    ),
    (
        "draws_rounding_words",
        KEYED_ROUNDING,
        "every job is keyed when `ErrorFeedback::take_job` takes it; finish it with \
         `compensate().finish()` on any thread, in any order",
    ),
];

/// The engine's data-plane files: every payload here is written once by its
/// producer and *moved* into the store (PR 21), so the copying conveniences
/// below have no business in their non-test code.
const MOVE_ONLY_FILES: [&str; 9] = [
    "crates/core/src/gateway.rs",
    "crates/core/src/ingress.rs",
    "crates/core/src/session.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/cluster/faults.rs",
    "crates/core/src/cluster/placement.rs",
    "crates/core/src/cluster/scaling.rs",
    "crates/core/src/aggregator.rs",
    "crates/core/src/stations.rs",
];

/// Calls that copy a whole payload, as code-token sequences, with what to do
/// instead. Scoped to [`MOVE_ONLY_FILES`]; everywhere else they stay the
/// conveniences they are.
const PAYLOAD_COPIES: [(&[&str], &str); 6] = [
    (
        &[".", "to_bytes", "(", ")"],
        "`.to_bytes()` serializes a second buffer; borrow `wire()` or move `into_wire()`",
    ),
    (
        &["put_f32", "("],
        "`put_f32(` re-encodes the model into a fresh buffer; move the model in with `into_pooled_wire(pool)`",
    ),
    (
        &["encode_f32", "("],
        "`encode_f32(` copies the model element by element; view it with `kernels::le_bytes`",
    ),
    (
        &["update", ".", "clone", "(", ")"],
        "`update.clone()` copies the payload; hand the update over by value",
    ),
    (
        &[".", "as_f32_vec", "(", ")"],
        "`.as_f32_vec()` copies a stored model into a fresh vector; hand the buffer that \
         holds it over instead (a drive hands out the global top's finalized accumulator)",
    ),
    (
        &["decode_dense_le", "("],
        "`decode_dense_le(` copies a stored model element by element; hand the buffer that \
         holds it over instead (a drive hands out the global top's finalized accumulator)",
    ),
];

/// The engine crates, whose non-test code names no simulator type (R6).
pub const ENGINE_CRATES: [&str; 4] = [
    "crates/types/src/",
    "crates/shmem/src/",
    "crates/fl/src/",
    "crates/core/src/",
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
/// hatches), the simulator's `crates/core/src/platform.rs` (both among the
/// `DELETED_FILES`), the copying put path deleted in PR 21 (`PAYLOAD_COPIES`
/// in non-test code of `MOVE_ONLY_FILES`) and every `RETIRED` name must
/// stay deleted, and non-test code of the `ENGINE_CRATES` names none of the
/// `SIMULATOR_TYPES`. The check runs on code tokens, so prose in comments
/// and string literals can mention the old names freely.
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
            } else if let Some((name, why, instead)) =
                RETIRED.iter().find(|(name, ..)| t.text == *name)
            {
                out.push(finding(
                    f,
                    t.line,
                    Rule::LegacyRuntime,
                    format!("`{name}` {why}; {instead} (see MIGRATION.md)"),
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
