# Local invocations mirroring CI (.github/workflows/ci.yml) exactly —
# enforced by lifl-lint rule R7 (`just lint-lifl`), which diffs the `ci`
# recipe's command list against the workflow's steps. Requires `just`
# (https://github.com/casey/just); every recipe body is a plain shell
# command, so copy-paste works without it too.

# Run the full CI gate locally.
default: ci

# Everything CI runs, in CI order.
ci: lint-lifl lint doc build test kernel-parity alloc alloc-scalar faults test-scalar scale bench-baseline-check benchmark-check smoke

# Repo invariants (unsafe containment, SAFETY comments, panic freedom, fold
# determinism, no legacy runtime, justfile↔CI sync, no dead `pub` in any
# crate) as machine-checked rules R1, R2 and R4–R8; kernel-arm parity is
# the compiler's, through the kernel layer's `Kernels` tables.
# `--list-rules` shows the catalog.
lint-lifl:
    cargo run --release -p lifl-lint

# Formatting + clippy, denying warnings (CI `lint` job).
lint:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy -p lifl-types -p lifl-shmem -p lifl-fl -p lifl-core -- -D clippy::redundant_clone

# Rustdoc gate: no broken links / bad doc syntax anywhere; the public
# `session` module additionally denies missing docs.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Tier-1 release build.
build:
    cargo build --release

# Tier-1 test suite.
test:
    cargo test -q

# The kernel-parity tier at depth: every scalar ≡ AVX2 ≡ AVX-512 property
# of `lifl-fl`'s kernels at 1024 cases instead of the default 64, and what
# is built on them: the station-level folds (`sharded::`, `aggregate::`: a
# round into a dirty pooled accumulator, batched, eager or both, ≡ a
# zero-filled one) and the local trainer and its evaluation (`trainer::`,
# `metrics::`: the batched logits and gradient passes ≡ the row-major
# trainer, every model, loss and accuracy bit). Every arm the host runs is
# exercised in one process, so one run covers them all.
kernel-parity:
    PROPTEST_CASES=1024 cargo test -p lifl-fl --lib -- kernels:: sharded:: aggregate:: trainer:: metrics::

# The allocation tier in its own named step (a counting global allocator in
# its own process), so allocation regressions fail with a readable name.
alloc:
    cargo test -p lifl-integration --test alloc

# The allocation tier again on the scalar kernel arm: the scalar collect
# sweep of top-k selection must keep the same capacity bound as the AVX2
# one, so its candidate run never reallocates the pooled wire buffer.
alloc-scalar:
    LIFL_FORCE_SCALAR=1 cargo test -p lifl-integration --test alloc

# The fault tier in its own named step: node kills at every round phase,
# corruption injection and robust-aggregation divergence envelopes, so
# resilience regressions fail with a readable name.
faults:
    cargo test -p lifl-integration --test faults

# The integration and fault tiers again with the SIMD kernels forced onto
# their scalar reference arm (LIFL_FORCE_SCALAR), so the fallback path keeps
# full end-to-end coverage on every CI run; `lifl-fl`'s own tests first, so
# the dispatcher-level paths (`ErrorFeedback::encode`, `encode_slice`, the
# three-round oracle) run on the reference arm too, then `lifl-core`'s, so
# the deferred-encode equivalence proves the scalar arm's stream positions
# under the in-order hand-off.
test-scalar:
    LIFL_FORCE_SCALAR=1 cargo test -p lifl-fl
    LIFL_FORCE_SCALAR=1 cargo test -p lifl-core
    LIFL_FORCE_SCALAR=1 cargo test -p lifl-integration --test it
    LIFL_FORCE_SCALAR=1 cargo test -p lifl-integration --test faults

# The scale tier at full size: the 1M-client streaming round under the
# live-byte high-water allocator (the default `cargo test` run only covers
# the 10k-client smoke), proving flat memory and KPA fleet growth.
scale:
    LIFL_SCALE_FULL=1 cargo test -p lifl-integration --test scale

# Regenerate the committed aggregation-path baseline (BENCH_aggregation.json).
bench-baseline:
    cargo run --release -p lifl-bench --bin bench_baseline

# CI gate: the baseline runner works in --quick mode and the committed
# baseline parses with the current schema (fails if missing or stale).
bench-baseline-check:
    cargo run --release -p lifl-bench --bin bench_baseline -- --quick --out target/bench_quick.json
    cargo run --release -p lifl-bench --bin bench_baseline -- --check BENCH_aggregation.json

# CI gate for the whole-round benchmark (benchmark/, BENCHMARK.json): builds
# its engine adapter against the current engine API — the package is outside
# the root workspace, so nothing else compiles it — then validates the spec;
# prints `BENCHMARK.json: ok`.
benchmark-check:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check BENCHMARK.json

# CI smoke steps: the quickstart, cluster-federation, failure-recovery,
# asynchronous-FL and server-optimizer examples run end to end
# (cluster-federation, failure-recovery and server-optimizers assert
# bit-exactness inline: cluster against session, a survived node kill
# against the undisturbed cluster, FedAdam's commits over a cluster against
# a session; the asynchronous one runs FedBuff on the training driver over a
# flat session).
smoke:
    cargo run --release -p lifl-examples --example quickstart
    cargo run --release -p lifl-examples --example cluster_federation
    cargo run --release -p lifl-examples --example failure_recovery
    cargo run --release -p lifl-examples --example async_federated_learning
    cargo run --release -p lifl-examples --example server_optimizers

# Run the multi-node cluster federation demo (sessions composed
# gateway-to-gateway over Update::RemoteBytes, bit-exactness asserted inline).
cluster-demo:
    cargo run --release -p lifl-examples --example cluster_federation

# Run the codec ablation (bytes-on-wire x time-to-accuracy sweep).
fig-codec:
    cargo run --release -p lifl-experiments --bin fig_codec

# Apply formatting in place.
fmt:
    cargo fmt --all
