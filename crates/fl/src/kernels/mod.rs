//! Runtime-dispatched SIMD kernels for the codec and aggregation hot paths.
//!
//! # Dispatch strategy
//!
//! Every kernel has a scalar reference in `scalar.rs` (the semantic ground
//! truth) and an AVX2 implementation in `avx2.rs` (x86-64 only); the
//! `Uniform8` stochastic encoders have a third, 16-lane arm in `avx512.rs`.
//! Which arm runs is decided **once per process**: the first dispatch
//! checks the `LIFL_FORCE_SCALAR` environment variable and
//! `is_x86_feature_detected!`, then caches the answer in a `OnceLock`, so
//! steady-state dispatch is a branch on a loaded value. The widest arm the
//! host runs wins: the AVX-512 arm when CPUID reports `avx2`, `avx512f` and
//! `avx512dq` — AVX-512 for the `Uniform8` encoders, AVX2 for every other
//! kernel — else the AVX2 arm when it reports `avx2`, else the scalar arm.
//! Setting `LIFL_FORCE_SCALAR` to any value other than empty or `0` forces
//! the scalar arm everywhere (CI runs the integration and fault tiers both
//! ways). [`active_kernel_arm`] names the arm.
//!
//! # The scalar-reference rule
//!
//! Every vector arm of every kernel must be **bit-exact** with its scalar
//! reference for all inputs — including NaN/infinity payloads and, for the
//! stochastic encoders, the random stream: the same [`StochasticRng`] seed
//! produces the same wire bytes on every arm and leaves the generator at the
//! same position (the scalar arm draws through [`StochasticRng::fill`], the
//! vector arms compute the same words in registers). This is what lets the
//! session/cluster exactness tiers assert bit-identical aggregation results
//! regardless of which arm a given host picks. The proptests at the bottom
//! of this module run every arm the host can run in one process (each
//! private `*_with` dispatcher takes its arm explicitly) and compare outputs
//! bitwise across odd lengths, sub-lane remainders and non-finite inputs.
//!
//! Bit-exactness is achievable because every kernel restricts itself to
//! exactly-rounded elementwise IEEE-754 operations (multiply, add, subtract,
//! floor, compare, min/max) in the same order on every arm — in particular
//! FMA is never used, and divisions are hoisted into a single reciprocal
//! computed identically by every arm. See `avx2.rs` for the instruction-level
//! argument. Which payload an add or multiply of two NaNs returns is left
//! open, though: the hardware returns its first operand's, and the compiler
//! may swap the operands of either arm. So the dense fold, whose weights,
//! sources and accumulator can all be NaN, stores every NaN it produces as
//! the canonical quiet NaN ([`f32::NAN`]) on both arms.
//!
//! # How to add a kernel
//!
//! 1. Write the scalar reference in `scalar.rs`, using only exactly-rounded
//!    elementwise operations if a vector arm is planned.
//! 2. Write the AVX2 arm in `avx2.rs` mirroring the scalar operation
//!    sequence, and delegate the sub-lane-width tail to the scalar function.
//! 3. Add a public wrapper here that validates slice lengths and calls a
//!    private `*_with(..., arm: Arm)` dispatcher.
//! 4. Add a proptest below asserting bitwise equality of the arms over odd
//!    lengths and non-finite inputs.
//!
//! A kernel that consumes rounding words additionally follows "How to add a
//! stochastic kernel" in `avx2.rs`: the scalar arm draws through `fill`, the
//! vector arms draw in registers, and every arm leaves the generator where
//! `fill` of the element count would. An AVX-512 arm is added the same way,
//! in `avx512.rs`, for a kernel whose AVX2 arm is bound by what AVX-512 adds
//! (the `Uniform8` encoders: 64-bit multiplies).

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod scalar;

use lifl_shmem::BufferPool;
use std::sync::OnceLock;

/// Number of elements whose random rounding words the scalar arm of the
/// stochastic encoders draws per block. Even, so the nibble pairing of
/// `Uniform4` stays aligned and no half-draw is discarded across block
/// boundaries, and small enough for a stack buffer.
const RAND_BLOCK: usize = 4096;

/// Which implementation a kernel dispatch runs, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Arm {
    /// The scalar reference, `scalar.rs`.
    Scalar,
    /// `avx2.rs` for every kernel.
    Avx2,
    /// `avx512.rs` for the `Uniform8` stochastic encoders, `avx2.rs` for
    /// every other kernel.
    Avx512,
}

impl Arm {
    /// Whether the arm runs vector code, i.e. the host has AVX2.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn simd(self) -> bool {
        self != Arm::Scalar
    }

    /// The arm's name in logs and benchmark reports.
    fn name(self) -> &'static str {
        match self {
            Arm::Scalar => "scalar",
            Arm::Avx2 => "avx2",
            Arm::Avx512 => "avx512",
        }
    }
}

static ACTIVE_ARM: OnceLock<Arm> = OnceLock::new();

/// True when `LIFL_FORCE_SCALAR` requests the scalar arm: set to anything
/// except the empty string or `0`.
fn scalar_forced(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// The widest arm this host's CPU runs: every narrower arm runs too.
fn widest_arm() -> Arm {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") {
            return if has!("avx512f") && has!("avx512dq") {
                Arm::Avx512
            } else {
                Arm::Avx2
            };
        }
    }
    Arm::Scalar
}

/// The arm every dispatch runs. Decided once per process: the scalar arm
/// when `LIFL_FORCE_SCALAR` is set (to anything except empty or `0`), the
/// widest arm the host runs otherwise.
fn active_arm() -> Arm {
    *ACTIVE_ARM.get_or_init(|| {
        let force = std::env::var("LIFL_FORCE_SCALAR").ok();
        if scalar_forced(force.as_deref()) {
            Arm::Scalar
        } else {
            widest_arm()
        }
    })
}

/// Human-readable name of the active arm, for logs and benchmark reports:
/// `"avx512"` while the 16-lane `Uniform8` encoders run, `"avx2"`, or
/// `"scalar"`.
pub fn active_kernel_arm() -> &'static str {
    active_arm().name()
}

// ---------------------------------------------------------------------------
// Counter-mode RNG for the stochastic encoders.
// ---------------------------------------------------------------------------

/// splitmix64's additive counter step and its two mixing multipliers.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const SPLITMIX_MUL1: u64 = 0xBF58_476D_1CE4_E5B9;
const SPLITMIX_MUL2: u64 = 0x94D0_49BB_1331_11EB;

/// Deterministic counter-mode generator (splitmix64) the stochastic encoders
/// draw their rounding words from. One `u32` word is consumed per encoded
/// element; the 24 high bits of each word form the rounding threshold.
///
/// # The stream and the position contract
///
/// Draw `k` (counting from 1) is a pure function of the additive counter:
/// `mix(state + k * gamma)`. The word stream is those 64-bit draws split low
/// half first, so words `2k - 2` and `2k - 1` are the halves of draw `k` —
/// which is what lets the AVX2 encoders compute the words of eight elements
/// in registers from four counters instead of reading them from a buffer
/// [`StochasticRng::fill`] stored (see "Counter-mode draws" in `avx2.rs`).
///
/// Consuming `n` words advances the generator by exactly `n.div_ceil(2)`
/// draws: an odd `n` discards the high half of its last draw, once, at the
/// end. [`StochasticRng::fill`] defines that position and every encoder, on
/// either arm, leaves the generator exactly where `fill` of its element count
/// would — so what is encoded next draws the same words whichever arm ran
/// before it. Splitting a fill at even word counts changes nothing; splitting
/// it at an odd count discards a half-draw at the split and shifts the rest
/// of the stream.
///
/// A stochastic encode at a non-positive scale draws nothing at all (see
/// [`feedback_append_u8`]): an all-zero compensated update leaves the
/// generator where it found it. So how far one error-feedback encode moves
/// the stream is known only after its first sweep has derived the scale,
/// never at offer time — which is why an ingress that runs encodes
/// concurrently hands the stream from one encode to the next in offer
/// order instead of reserving fixed windows of it.
#[derive(Debug, Clone)]
pub struct StochasticRng {
    state: u64,
}

impl StochasticRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        StochasticRng { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // splitmix64: a full-period mix of an additive counter. Cheap,
        // statistically solid for rounding thresholds, and trivially
        // deterministic across arms.
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(SPLITMIX_MUL1);
        z = (z ^ (z >> 27)).wrapping_mul(SPLITMIX_MUL2);
        z ^ (z >> 31)
    }

    /// Moves the generator past `draws` 64-bit draws without computing them:
    /// how an arm that drew in registers leaves the position `fill` defines,
    /// and how an error-feedback encode claims its share of the stream
    /// before drawing it.
    pub(crate) fn skip(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(draws));
    }

    /// Fills `words` with random `u32`s, two per underlying `u64` draw
    /// (low half first). Filling in even-sized chunks produces the same
    /// stream as one contiguous fill, which keeps block-at-a-time encoding
    /// equivalent to a single pass.
    pub fn fill(&mut self, words: &mut [u32]) {
        let mut pairs = words.chunks_exact_mut(2);
        for pair in &mut pairs {
            let draw = self.next_u64();
            pair[0] = draw as u32;
            pair[1] = (draw >> 32) as u32;
        }
        if let [tail] = pairs.into_remainder() {
            *tail = self.next_u64() as u32;
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian byte views of dense parameters.
// ---------------------------------------------------------------------------

// The stored and wire format of dense parameters is little-endian `f32` by
// contract; the views below hand out the in-memory representation as that
// format, which is only the same thing on a little-endian target.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "dense payloads are viewed in place as little-endian f32 bytes"
);

/// The little-endian wire bytes of `values`, viewed in place: byte-identical
/// to `values.iter().flat_map(|v| v.to_le_bytes())` for every bit pattern
/// (NaN payloads and signed zeros included), without copying anything.
pub fn le_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: `values` is a live, initialised `[f32]`, so the same region
    // read as `4 * len` bytes is in bounds and initialised (`f32` has no
    // padding), `u8` has alignment 1, and the returned slice borrows
    // `values`, so the region stays immutable and alive for as long as the
    // bytes are. The byte order matches the wire format by the assertion
    // above.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// A dense parameter vector owned as its little-endian wire bytes: the owner
/// a model is **moved** into the shared-memory store behind
/// (`Bytes::from_owner(DenseLe::new(values))`), so the stored object *is* the
/// vector its producer wrote — no encode pass, no second buffer. A vector a
/// client handed over is freed when the store recycles the object and the
/// last handle is gone; one the engine checked out of a [`BufferPool`]
/// ([`DenseLe::pooled`] — an aggregator's accumulator) is checked back in
/// there instead, on whichever thread that happens, so the next round's
/// accumulator is the same warm memory and not a fresh page-faulting one.
#[derive(Debug)]
pub struct DenseLe {
    values: Vec<f32>,
    home: Option<BufferPool>,
}

impl DenseLe {
    /// Takes ownership of `values`; dropping the owner frees them.
    pub fn new(values: Vec<f32>) -> Self {
        DenseLe { values, home: None }
    }

    /// Takes ownership of a vector checked out of `pool`; dropping the owner
    /// checks it back in.
    pub fn pooled(values: Vec<f32>, pool: &BufferPool) -> Self {
        DenseLe {
            values,
            home: Some(pool.clone()),
        }
    }
}

impl Drop for DenseLe {
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            pool.checkin_f32(std::mem::take(&mut self.values));
        }
    }
}

impl AsRef<[u8]> for DenseLe {
    fn as_ref(&self) -> &[u8] {
        le_bytes(&self.values)
    }
}

// ---------------------------------------------------------------------------
// Fused dequantize-axpy folds.
// ---------------------------------------------------------------------------

/// Fused fold of dense little-endian `f32` payloads over their common prefix
/// with `acc`: `acc += w_0 * s_0 + w_1 * s_1 + …`, source `k` weighted by
/// `weights[k]` (sources past the shorter of the two lists are ignored).
///
/// Each element of `acc` is loaded once and stored once, the adds chained in
/// source order in between, and a NaN sum is stored as [`f32::NAN`] — so the
/// result is, bit for bit, that of folding each source in turn
/// ([`fold_dense_le`] once per source), on either arm. The AVX2 arm takes up
/// to eight sources per call (more fold on the scalar arm). This is the
/// one dense fold kernel: the station fold hands it up to eight consecutive
/// dense views per accumulator block, and [`fold_dense_le`], [`axpy`] and
/// [`axpy8`] are its one- and eight-source cases.
pub fn fold_dense_le_n(acc: &mut [f32], srcs: &[&[u8]], weights: &[f32]) {
    let count = srcs.len().min(weights.len());
    let n = srcs.iter().fold(acc.len(), |n, src| n.min(src.len() / 4));
    fold_dense_le_n_with(
        &mut acc[..n],
        &srcs[..count],
        &weights[..count],
        active_arm(),
    );
}

/// One pass over sources that each cover `4 * acc.len()` bytes, paired
/// with as many weights (the AVX2 arm takes up to eight; more fold on the
/// scalar arm).
fn fold_dense_le_n_with(acc: &mut [f32], srcs: &[&[u8]], weights: &[f32], arm: Arm) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection; the
        // wrapper cut `acc` to what every source covers and paired the
        // weights.
        unsafe { avx2::fold_dense_le_n(acc, srcs, weights) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::fold_dense_le_n(acc, srcs, weights);
}

/// Fused fold of one dense little-endian `f32` payload, `acc += weight *
/// body` over the common prefix: [`fold_dense_le_n`] with one source.
pub fn fold_dense_le(acc: &mut [f32], body: &[u8], weight: f32) {
    fold_dense_le_n(acc, &[body], &[weight]);
}

/// Decode of a dense little-endian `f32` payload into `out`.
pub fn decode_dense_le(out: &mut [f32], body: &[u8]) {
    let n = out.len().min(body.len() / 4);
    decode_dense_le_with(&mut out[..n], &body[..4 * n], active_arm());
}

fn decode_dense_le_with(out: &mut [f32], body: &[u8], arm: Arm) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::decode_dense_le(out, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::decode_dense_le(out, body);
}

/// Fused fold of `Uniform8` levels: `acc[i] += f32(levels[i] as i8) * k`,
/// where `k` is the pre-multiplied `weight * scale`.
pub fn fold_u8(acc: &mut [f32], levels: &[u8], k: f32) {
    let n = acc.len().min(levels.len());
    fold_u8_with(&mut acc[..n], &levels[..n], k, active_arm());
}

fn fold_u8_with(acc: &mut [f32], levels: &[u8], k: f32, arm: Arm) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::fold_u8(acc, levels, k) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::fold_u8(acc, levels, k);
}

/// Dequantize of `Uniform8` levels: `out[i] = f32(levels[i] as i8) * scale`.
pub fn decode_u8(out: &mut [f32], levels: &[u8], scale: f32) {
    let n = out.len().min(levels.len());
    decode_u8_with(&mut out[..n], &levels[..n], scale, active_arm());
}

fn decode_u8_with(out: &mut [f32], levels: &[u8], scale: f32, arm: Arm) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::decode_u8(out, levels, scale) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::decode_u8(out, levels, scale);
}

/// Fused fold of packed `Uniform4` nibbles starting at element offset
/// `start` within `body` (low nibble first within each byte): folds
/// `acc.len()` elements beginning at that offset. An odd `start` peels one
/// high nibble scalar-side, then both arms run even-aligned.
pub fn fold_u4(acc: &mut [f32], body: &[u8], start: usize, k: f32) {
    fold_u4_with(acc, body, start, k, active_arm());
}

fn fold_u4_with(acc: &mut [f32], body: &[u8], start: usize, k: f32, arm: Arm) {
    if acc.is_empty() {
        return;
    }
    let (acc, start) = if start % 2 == 1 {
        acc[0] += scalar::NIBBLE_F32[(body[start / 2] >> 4) as usize] * k;
        (&mut acc[1..], start + 1)
    } else {
        (acc, start)
    };
    let nibbles = &body[start / 2..];
    let n = acc.len().min(nibbles.len().saturating_mul(2));
    let acc = &mut acc[..n];
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::fold_u4_aligned(acc, nibbles, k) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::fold_u4_aligned(acc, nibbles, k);
}

/// Dequantize of packed `Uniform4` nibbles (even-aligned) into `out`.
pub fn decode_u4(out: &mut [f32], nibbles: &[u8], scale: f32) {
    let n = out.len().min(nibbles.len().saturating_mul(2));
    decode_u4_with(&mut out[..n], nibbles, scale, active_arm());
}

fn decode_u4_with(out: &mut [f32], nibbles: &[u8], scale: f32, arm: Arm) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::decode_u4(out, nibbles, scale) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::decode_u4(out, nibbles, scale);
}

/// Fold of `TopK` `(u32 index, f32 value)` pairs whose index falls in
/// `[start, end)` into `acc` (indexed relative to `start`). A sparse scatter
/// gains nothing from vectorization, so both dispatch arms share the scalar
/// routine; it lives here so every codec fold goes through one layer.
pub fn fold_topk(acc: &mut [f32], pairs: &[u8], start: usize, end: usize, weight: f32) {
    scalar::fold_topk(acc, pairs, start, end, weight);
}

/// Decode of `TopK` pairs into `out` (zero-filled first). Scalar on both
/// arms, like [`fold_topk`].
pub fn decode_topk(out: &mut [f32], pairs: &[u8]) {
    scalar::decode_topk(out, pairs);
}

// ---------------------------------------------------------------------------
// Top-k selection.
// ---------------------------------------------------------------------------

/// Bins of one top-k histogram level: a 12-bit slice of the magnitude key.
const TOPK_BINS: usize = 4096;

/// Spare capacity a top-k body keeps past the bytes it may hold: the AVX2
/// sweeps store whole 64-byte blocks.
const TOPK_BODY_SLACK: usize = 64;

/// The radix levels `(hi, lo)` the 31-bit magnitude key is refined through:
/// exponent plus four mantissa bits first, then the remaining mantissa.
const TOPK_LEVELS: [(u32, u32); 3] = [(31, 19), (19, 7), (7, 0)];

/// The candidate sample reads every `TOPK_SAMPLE_STRIDE`-th element. At 64
/// a 2¹⁸-element model gives 4 096 samples, ≈ 205 of them above a 5 % cut,
/// with a binomial spread of ≈ 14; reading them costs 11–18 µs of a
/// 210–300 µs selection (hot, one vCPU of a shared Xeon).
const TOPK_SAMPLE_STRIDE: usize = 64;

/// `t_lo` is the sample's key at rank `expected + expected /
/// TOPK_SAMPLE_MARGIN`: half as many again as the sample holds above the
/// cut on average (≈ 102 past 205 at 5 % of 2¹⁸, seven spreads), for a run
/// of ≈ 1.5 × `kept` candidates. There, by Chernoff bounds, a run comes up
/// short with probability below 10⁻⁹ and outgrows its room below 10⁻⁵.
const TOPK_SAMPLE_MARGIN: usize = 2;

/// Most elements one sample holds (a 32 KiB stack array): past
/// `TOPK_SAMPLE_STRIDE * TOPK_SAMPLE_MAX` elements (2 MiB models) the
/// stride grows so the sample stays this size.
const TOPK_SAMPLE_MAX: usize = 8192;

/// The candidate run holds at most `TOPK_RUN_FACTOR * kept` pairs; a larger
/// run is abandoned for the whole-vector cut. The margin aims at 1.5 ×
/// `kept`, and 720 measured runs at 5 % of 2¹⁸ stayed within 1.33–1.72 ×.
const TOPK_RUN_FACTOR: usize = 2;

/// Where a top-k histogram reads its magnitude keys: a dense vector, one
/// key per element, or a run of `(u32 index, f32 value)` wire pairs, one
/// key per pair.
#[derive(Clone, Copy)]
enum Keys<'a> {
    Dense(&'a [f32]),
    Pairs(&'a [u8]),
}

/// Exact top-k sparsification: appends to `body`, behind whatever it already
/// holds (an update's descriptor, when the wire form is built in one
/// buffer), the little-endian `(u32 index, f32 value)` wire pairs of the
/// `kept` largest elements of `params`, sorted by index.
///
/// "Largest" is a documented **total order**: the magnitude key — the bit
/// pattern of `|x|` — descending, then index ascending. On finite inputs that
/// is magnitude descending with ties (`±0.0` included) going to the lower
/// index. Non-finite values are not rejected here — that belongs to ingress
/// validation (ROADMAP item 2) — but they cannot make the output ambiguous:
/// as keys, infinities sort above every finite value and NaNs above
/// infinities, so the result is deterministic and identical on both dispatch
/// arms for every input.
///
/// No element is ever moved or sorted, and the model is swept once:
///
/// 1. **Sample.** Every 64th element is read into a 32 KiB stack array
///    (past 2 MiB models the stride grows so the array stays that size). A
///    sample of `n` holds `expected = ⌈kept · n / dim⌉` elements above the
///    cut, give or take its binomial spread; its key at rank `expected +
///    expected / 2` — the fixed margin — is `t_lo`, a lower bound on the
///    cut's key with high probability.
/// 2. **Collect.** One compare-and-compact sweep in index order writes the
///    pair of every element whose key is at least `t_lo` into `body`: the
///    candidate run, ≈ 1.5 × `kept` pairs.
/// 3. **Cut.** A histogram over the top 12 key bits of the candidates finds
///    the bin holding the `kept`-th largest key, up to two more histograms
///    restricted to that bin pin it down to the last bit (refinement stops
///    as soon as the boundary bin is kept whole), and the run is compacted
///    forward in place to everything above that key plus the lowest-index
///    ties at it. Every element the whole vector's selection keeps has a key
///    at least the `kept`-th largest, which is at least `t_lo` whenever the
///    run holds `kept` pairs — so the run contains the selection, in index
///    order, and the output is the whole vector's byte for byte.
/// 4. **Fallback.** A run shorter than `kept` (the sample's bound was too
///    high), or one that would outgrow its fixed room of `2 * kept` pairs
///    (too low), is dropped, and the same cut and compaction run over the
///    whole vector — the candidate set "everything". So do vectors whose
///    sample could reject nothing (`dim` < 64) and selections of more than
///    a quarter of the vector, whose room would outgrow the dense model.
///
/// Measured on 720 selections of `kept` 13 107 from 2¹⁸-element bell-shaped
/// updates (the `topk_sharded` benchmark's inputs, error feedback on): every
/// run held the selection, with 17.4–22.5 k candidates (1.33–1.72 ×
/// `kept`). The run path costs one full sweep where the whole-vector cut
/// makes three — two histograms and the compaction — and four with error
/// feedback's separate add, which the fused form folds into the collect.
/// `kept` is clamped to `params.len()`. `body` grows at most once, to the
/// room the candidate run needs; a buffer checked out that large is never
/// reallocated.
pub fn append_topk(params: &[f32], kept: usize, body: &mut Vec<u8>) {
    append_topk_with(params, kept, body, active_arm());
}

/// The error-feedback form of [`append_topk`]: adds `src` into `acc`
/// (`acc += 1.0 * src`, bit for bit [`axpy`]'s sums) and appends the top-k
/// pairs of the sums, with the add fused into the collect sweep — so a
/// compensate-and-select makes one full-length sweep over the model, not
/// the four of an [`axpy`] followed by [`append_topk`]'s whole-vector cut.
/// The sample computes the same sums at its positions first.
pub(crate) fn add_append_topk(acc: &mut [f32], src: &[f32], kept: usize, body: &mut Vec<u8>) {
    add_append_topk_with(acc, src, kept, body, active_arm());
}

/// Bytes [`append_topk`] may use behind a body's current length for the
/// top-`kept` of `dim` elements: the candidate run's room when the sample
/// path applies, the `8 * kept` wire bytes otherwise, plus the AVX2 slack.
/// A buffer reserved this large is never reallocated by the selection.
pub(crate) fn topk_capacity(dim: usize, kept: usize) -> usize {
    let kept = kept.min(dim);
    let pairs = if run_applies(dim, kept) {
        TOPK_RUN_FACTOR * kept
    } else {
        kept
    };
    8 * pairs + TOPK_BODY_SLACK
}

/// Whether a top-`kept` of `dim` elements may collect a candidate run: its
/// room, `TOPK_RUN_FACTOR * kept` pairs, is at most the dense model's bytes
/// (`kept <= dim / 4`).
fn run_applies(dim: usize, kept: usize) -> bool {
    kept > 0 && 8 * TOPK_RUN_FACTOR * kept <= 4 * dim
}

fn append_topk_with(params: &[f32], kept: usize, body: &mut Vec<u8>, arm: Arm) {
    let kept = kept.min(params.len());
    if kept == 0 {
        return;
    }
    let (start, limit) = reserve_topk(body, params.len(), kept);
    let floor = candidate_floor(params.len(), kept, |i| params[i], arm);
    let collected = floor.is_some_and(|floor| {
        compact_topk_with(params, floor, usize::MAX, body, limit, arm).is_some()
    });
    cut_topk(params, kept, start, collected, body, limit, arm);
}

fn add_append_topk_with(acc: &mut [f32], src: &[f32], kept: usize, body: &mut Vec<u8>, arm: Arm) {
    let src = &src[..acc.len()];
    let kept = kept.min(acc.len());
    let (start, limit) = reserve_topk(body, acc.len(), kept);
    let sum = |i: usize| canonical(acc[i] + 1.0 * src[i]);
    let collected = match candidate_floor(acc.len(), kept, sum, arm) {
        Some(floor) => add_compact_topk_with(acc, src, floor, body, limit, arm),
        None => {
            axpy(acc, src, 1.0);
            false
        }
    };
    if kept > 0 {
        cut_topk(acc, kept, start, collected, body, limit, arm);
    }
}

/// Grows `body` to [`topk_capacity`] past its length; returns that length,
/// where the pairs start, and the length the pairs may not take it past.
fn reserve_topk(body: &mut Vec<u8>, dim: usize, kept: usize) -> (usize, usize) {
    let (start, room) = (body.len(), topk_capacity(dim, kept));
    body.reserve_exact(room);
    (start, start + room - TOPK_BODY_SLACK)
}

/// `v`, or the canonical quiet NaN if `v` is a NaN — the sum [`axpy`] stores.
fn canonical(v: f32) -> f32 {
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

/// Step 1 of [`append_topk`]: `t_lo`, the key of rank `expected + expected
/// / TOPK_SAMPLE_MARGIN` of a strided sample of the `dim` values `value`
/// yields, or `None` when no run applies or the sample could not reject a
/// single element.
fn candidate_floor(dim: usize, kept: usize, value: impl Fn(usize) -> f32, arm: Arm) -> Option<u32> {
    if !run_applies(dim, kept) {
        return None;
    }
    let stride = TOPK_SAMPLE_STRIDE.max(dim.div_ceil(TOPK_SAMPLE_MAX));
    let n = dim.div_ceil(stride);
    let expected = (kept * n).div_ceil(dim);
    let rank = expected + expected / TOPK_SAMPLE_MARGIN;
    if rank >= n {
        return None;
    }
    let mut sample = [0.0f32; TOPK_SAMPLE_MAX];
    for (j, s) in sample[..n].iter_mut().enumerate() {
        *s = value(j * stride);
    }
    Some(topk_cut(Keys::Dense(&sample[..n]), rank, arm).0)
}

/// Steps 3 and 4 of [`append_topk`], behind the candidate run collected at
/// `body[start..]` (when `collected`) from `params`: the exact cut over the
/// run if it holds at least `kept` pairs, over the whole of `params`
/// otherwise.
fn cut_topk(
    params: &[f32],
    kept: usize,
    start: usize,
    collected: bool,
    body: &mut Vec<u8>,
    limit: usize,
    arm: Arm,
) {
    if collected && body.len() - start >= 8 * kept {
        let run = &mut body[start..];
        let (threshold, ties) = topk_cut(Keys::Pairs(run), kept, arm);
        let kept_bytes = compact_pairs_with(run, threshold, ties, arm);
        body.truncate(start + kept_bytes);
        return;
    }
    body.truncate(start);
    let (threshold, ties) = topk_cut(Keys::Dense(params), kept, arm);
    // Exactly `kept` pairs, which `limit` always has room for.
    let _ = compact_topk_with(params, threshold, ties, body, limit, arm);
}

/// The cut of an exact top-`kept` selection over `keys` (`1 <= kept <=` the
/// key count): `(threshold, ties)` such that the selection is every key
/// above `threshold` plus the first `ties`, in order, at it.
fn topk_cut(keys: Keys<'_>, kept: usize, arm: Arm) -> (u32, usize) {
    let (mut prefix, mut ties) = (0u32, kept);
    for (hi, lo) in TOPK_LEVELS {
        let mut counts = [0u32; TOPK_BINS];
        magnitude_histogram_with(keys, prefix, hi, lo, &mut counts, arm);
        // At least `ties` keys carry `prefix`, so the walk ends in range.
        let mut bin = (1usize << (hi - lo)) - 1;
        while (counts[bin] as usize) < ties {
            ties -= counts[bin] as usize;
            bin -= 1;
        }
        prefix = (prefix << (hi - lo)) | bin as u32;
        if counts[bin] as usize == ties {
            // The whole bin is kept: its lowest key is the threshold, and
            // every element at that key goes too.
            return (prefix << lo, usize::MAX);
        }
    }
    (prefix, ties)
}

fn magnitude_histogram_with(
    keys: Keys<'_>,
    prefix: u32,
    hi: u32,
    lo: u32,
    counts: &mut [u32; TOPK_BINS],
    arm: Arm,
) {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        unsafe { avx2::magnitude_histogram(keys, prefix, hi, lo, counts) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::magnitude_histogram(keys, prefix, hi, lo, counts);
}

fn compact_topk_with(
    params: &[f32],
    threshold: u32,
    ties: usize,
    body: &mut Vec<u8>,
    limit: usize,
    arm: Arm,
) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        return unsafe { avx2::compact_topk(params, 0, threshold, ties, body, limit) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::compact_topk(params, 0, threshold, ties, body, limit)
}

fn compact_pairs_with(run: &mut [u8], threshold: u32, ties: usize, arm: Arm) -> usize {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        return unsafe { avx2::compact_pairs(run, threshold, ties) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::compact_pairs(run, threshold, ties)
}

fn add_compact_topk_with(
    acc: &mut [f32],
    src: &[f32],
    threshold: u32,
    body: &mut Vec<u8>,
    limit: usize,
    arm: Arm,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection, and the
        // caller cut `src` to `acc`'s length.
        return unsafe { avx2::add_compact_topk(acc, src, 0, threshold, body, limit) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::add_compact_topk(acc, src, 0, threshold, body, limit)
}

// ---------------------------------------------------------------------------
// Dense axpy family (model accumulation).
// ---------------------------------------------------------------------------

/// `acc += w * src`, elementwise over the common prefix: [`fold_dense_le_n`]
/// with one source, viewed in place as its little-endian bytes.
pub fn axpy(acc: &mut [f32], src: &[f32], w: f32) {
    fold_dense_le_n(acc, &[le_bytes(src)], &[w]);
}

/// Eight-source fold, bit-identical to eight sequential [`axpy`] passes:
/// [`fold_dense_le_n`] with eight sources, viewed in place as their
/// little-endian bytes. Every source must be at least as long as `acc`. The
/// station fold reaches the same kernel through runs of dense views; the
/// whole-round benchmark times this entry point as the kernel layer's
/// dense-throughput reference (`kernels.axpy8_gbps`).
pub fn axpy8(acc: &mut [f32], srcs: [&[f32]; 8], w: [f32; 8]) {
    assert!(srcs.iter().all(|s| s.len() >= acc.len()));
    fold_dense_le_n(acc, &srcs.map(le_bytes), &w);
}

/// Largest finite `|x|` in `params`, or 0 when there is none (used to derive
/// quantization scales). Exact on both arms because `max` over non-negative
/// finite values is order-independent.
pub fn max_abs_finite(params: &[f32]) -> f32 {
    max_abs_finite_with(params, active_arm())
}

fn max_abs_finite_with(params: &[f32], arm: Arm) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection.
        return unsafe { avx2::max_abs_finite(params) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::max_abs_finite(params)
}

/// `acc += 1.0 * src` over the common prefix — the same multiply-then-add,
/// bit for bit, as [`axpy`] with weight 1 on every sum that is not NaN (a
/// NaN sum is left as the add produced it) — returning the largest finite
/// `|x|` of the sums (0 when there is none) from the same sweep: what
/// [`max_abs_finite`] would find in `acc[..n]` afterwards, without walking
/// it again.
pub fn add_max(acc: &mut [f32], src: &[f32]) -> f32 {
    let n = acc.len().min(src.len());
    add_max_with(&mut acc[..n], &src[..n], active_arm())
}

fn add_max_with(acc: &mut [f32], src: &[f32], arm: Arm) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection; the
        // wrapper cut both slices to one length.
        return unsafe { avx2::add_max(acc, src) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::add_max(acc, src)
}

// ---------------------------------------------------------------------------
// Stochastic encoders.
// ---------------------------------------------------------------------------

/// Quantizes `params` to `Uniform8` levels (one byte per element, two's
/// complement in `[-levels, levels]`) with stochastic rounding, writing the
/// wire body into `body` (cleared and resized). One rounding word per element
/// is drawn from `rng` — in registers on the vector arms, 16 lanes
/// quantizing at a time on the AVX-512 arm and 8 on the AVX2 arm, through
/// [`StochasticRng::fill`] on the scalar arm; the same seed yields the same
/// bytes and leaves the same generator position on every arm. A
/// non-positive `scale` produces an all-zero body without consuming `rng`.
pub fn encode_u8(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    body.clear();
    append_u8(params, scale, levels, rng, body);
}

/// [`encode_u8`] without the clear: the `params.len()` level bytes are
/// appended behind whatever `body` already holds.
pub fn append_u8(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let start = body.len();
    body.resize(start + params.len(), 0);
    if scale <= 0.0 {
        return;
    }
    encode_u8_with(params, scale, levels, rng, &mut body[start..], active_arm());
}

fn encode_u8_with(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    arm: Arm,
) {
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    match arm {
        Arm::Avx512 => {
            // SAFETY: `Arm::Avx512` is only chosen after runtime AVX2,
            // AVX-512F and AVX-512DQ detection; `body` is sized to
            // `params.len()` by the wrapper.
            unsafe { avx512::encode_u8(params, inv, levels, rng, body) };
            return;
        }
        Arm::Avx2 => {
            // SAFETY: `Arm::Avx2` is only chosen after runtime AVX2
            // detection; `body` is sized to `params.len()` by the wrapper.
            unsafe { avx2::encode_u8(params, inv, levels, rng, body) };
            return;
        }
        Arm::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::encode_u8(params, inv, levels, rng, body);
}

/// Quantizes `params` to packed `Uniform4` sign-magnitude nibbles (low
/// nibble = even element) with stochastic rounding, appending the
/// `params.len().div_ceil(2)` nibble bytes behind whatever `body` already
/// holds. Same draw and bit-exactness contract as [`encode_u8`].
pub fn append_u4(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let start = body.len();
    body.resize(start + params.len().div_ceil(2), 0);
    if scale <= 0.0 {
        return;
    }
    encode_u4_with(params, scale, levels, rng, &mut body[start..], active_arm());
}

fn encode_u4_with(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    arm: Arm,
) {
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection; `body`
        // is sized to the packed nibble count by the wrapper.
        unsafe { avx2::encode_u4(params, inv, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::encode_u4(params, inv, levels, rng, body);
}

// ---------------------------------------------------------------------------
// Fused error-feedback encoders.
// ---------------------------------------------------------------------------

/// The 64-bit draws [`feedback_append_u8`] / [`feedback_append_u4`] take
/// from the generator for `len` elements at `scale`: one rounding word per
/// element, so `len.div_ceil(2)` draws, and none at a non-positive scale.
pub(crate) fn feedback_draws(len: usize, scale: f32) -> u64 {
    if scale <= 0.0 {
        return 0;
    }
    len.div_ceil(2) as u64
}

/// [`append_u8`] over an error-feedback residual, with the fold-back fused
/// into the same sweep: appends the level bytes of `residual` behind whatever
/// `body` holds and leaves in `residual` what the quantizer dropped,
/// `residual[i] += f32(level) * (-1.0 * scale)` — the expression, bit for
/// bit, that [`fold_u8`] with `k = -1.0 * scale` evaluates over the appended
/// bytes. Same words drawn, same generator position afterwards. A
/// non-positive `scale` appends zeros, leaves `residual` as it is and
/// consumes nothing from `rng`.
pub fn feedback_append_u8(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let start = body.len();
    body.resize(start + residual.len(), 0);
    if scale <= 0.0 {
        return;
    }
    feedback_u8_with(
        residual,
        scale,
        levels,
        rng,
        &mut body[start..],
        active_arm(),
    );
}

fn feedback_u8_with(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    arm: Arm,
) {
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    #[cfg(target_arch = "x86_64")]
    match arm {
        Arm::Avx512 => {
            // SAFETY: `Arm::Avx512` is only chosen after runtime AVX2,
            // AVX-512F and AVX-512DQ detection; `body` is sized to
            // `residual.len()` by the wrapper.
            unsafe { avx512::feedback_append_u8(residual, inv, k, levels, rng, body) };
            return;
        }
        Arm::Avx2 => {
            // SAFETY: `Arm::Avx2` is only chosen after runtime AVX2
            // detection; `body` is sized to `residual.len()` by the wrapper.
            unsafe { avx2::feedback_append_u8(residual, inv, k, levels, rng, body) };
            return;
        }
        Arm::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::feedback_append_u8(residual, inv, k, levels, rng, body);
}

/// [`append_u4`] over an error-feedback residual with the fold-back fused in,
/// as [`feedback_append_u8`]: `residual` ends up exactly as [`fold_u4`] with
/// `k = -1.0 * scale` over the appended nibbles would leave it.
pub fn feedback_append_u4(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let start = body.len();
    body.resize(start + residual.len().div_ceil(2), 0);
    if scale <= 0.0 {
        return;
    }
    feedback_u4_with(
        residual,
        scale,
        levels,
        rng,
        &mut body[start..],
        active_arm(),
    );
}

fn feedback_u4_with(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    arm: Arm,
) {
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    #[cfg(target_arch = "x86_64")]
    if arm.simd() {
        // SAFETY: a vector `arm` is only chosen after runtime AVX2 detection; `body`
        // is sized to the packed nibble count by the wrapper.
        unsafe { avx2::feedback_append_u4(residual, inv, k, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    scalar::feedback_append_u4(residual, inv, k, levels, rng, body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_force_parsing() {
        assert!(!scalar_forced(None));
        assert!(!scalar_forced(Some("")));
        assert!(!scalar_forced(Some("0")));
        assert!(scalar_forced(Some("1")));
        assert!(scalar_forced(Some("true")));
        assert!(scalar_forced(Some("yes")));
    }

    #[test]
    fn simd_active_is_cached_and_consistent() {
        let first = active_arm();
        assert_eq!(first, active_arm());
        assert_eq!(active_kernel_arm(), first.name());
        assert!(first <= widest_arm());
    }

    /// The name reports the wide `Uniform8` encoder exactly when it runs:
    /// `"avx512"` on a host whose CPUID reports AVX2, AVX-512F and AVX-512DQ
    /// unless the scalar arm is forced. The benchmark's `kernels.arm` counts
    /// every name but `"scalar"` as a vector arm, so it reads 1 there too.
    #[test]
    fn the_active_arm_is_the_widest_the_host_runs_unless_scalar_is_forced() {
        let forced = scalar_forced(std::env::var("LIFL_FORCE_SCALAR").ok().as_deref());
        let expected = if forced { Arm::Scalar } else { widest_arm() };
        assert_eq!(active_arm(), expected);
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && !forced;
            let wide = avx2 && has!("avx512f") && has!("avx512dq");
            assert_eq!(active_kernel_arm() == "avx512", wide);
            assert_eq!(active_kernel_arm() == "avx2", avx2 && !wide);
        }
        assert_eq!(active_kernel_arm() == "scalar", !active_arm().simd());
    }

    #[test]
    fn rng_is_deterministic_and_chunk_invariant() {
        let mut a = StochasticRng::from_seed(42);
        let mut b = StochasticRng::from_seed(42);
        let mut one_shot = vec![0u32; 5000];
        a.fill(&mut one_shot);
        let mut chunked = vec![0u32; 5000];
        let (head, tail) = chunked.split_at_mut(RAND_BLOCK);
        b.fill(head);
        b.fill(tail);
        assert_eq!(one_shot, chunked);
        let mut c = StochasticRng::from_seed(43);
        let mut other = vec![0u32; 5000];
        c.fill(&mut other);
        assert_ne!(one_shot, other);
    }

    #[test]
    fn nibble_roundtrip_matches_table() {
        for level in -7i32..=7 {
            let n = scalar::nibble(level);
            assert_eq!(
                scalar::NIBBLE_F32[n as usize].to_bits(),
                (level as f32).to_bits()
            );
        }
        // Nibble 8 ("negative zero") decodes to +0.0.
        assert_eq!(scalar::NIBBLE_F32[8].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn encode_zero_scale_yields_zero_body_without_consuming_rng() {
        let params = [1.0f32, -2.0, 3.0];
        let mut rng = StochasticRng::from_seed(9);
        let mut body = Vec::new();
        encode_u8(&params, 0.0, 127.0, &mut rng, &mut body);
        assert_eq!(body, vec![0u8; 3]);
        body.clear();
        append_u4(&params, -1.0, 7.0, &mut rng, &mut body);
        assert_eq!(body, vec![0u8; 2]);
        let mut untouched = StochasticRng::from_seed(9);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn feedback_draws_is_where_the_encoders_leave_the_stream() {
        type Append = fn(&mut [f32], f32, f32, &mut StochasticRng, &mut Vec<u8>);
        let encoders: [(f32, Append); 2] = [(127.0, feedback_append_u8), (7.0, feedback_append_u4)];
        for len in [0usize, 1, 7, 64, 1001] {
            // A zero (or negative) scale draws nothing; a positive one draws
            // a word per element, whichever arm runs.
            for scale in [0.0f32, -1.0, 0.25] {
                for (levels, append) in encoders {
                    let mut residual: Vec<f32> =
                        (0..len).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
                    let mut drawn = StochasticRng::from_seed(5);
                    append(&mut residual, scale, levels, &mut drawn, &mut Vec::new());
                    let mut skipped = StochasticRng::from_seed(5);
                    skipped.skip(feedback_draws(len, scale));
                    assert_eq!(drawn.state, skipped.state, "{len} elements at {scale}");
                }
            }
        }
    }

    #[test]
    fn quantize_one_handles_non_finite_and_saturation() {
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(scalar::quantize_one(v, 1.0, 127.0, 0), 0);
        }
        assert_eq!(scalar::quantize_one(1e30, 1.0, 127.0, 0), 127);
        assert_eq!(scalar::quantize_one(-1e30, 1.0, 127.0, 0), -127);
        // Threshold word 0 always rounds up any positive fraction.
        assert_eq!(scalar::quantize_one(0.5, 1.0, 127.0, 0), 1);
        // Threshold word u32::MAX never rounds up.
        assert_eq!(scalar::quantize_one(0.5, 1.0, 127.0, u32::MAX), 0);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Whether the AVX2 arm can be exercised in this process; when it
    /// cannot, the equivalence properties hold trivially and the tests
    /// return early.
    fn avx2_testable() -> bool {
        widest_arm().simd()
    }

    /// f32 vectors seasoned with NaN, infinities and signed zeros; lengths
    /// sweep 0..130 so every vector-width remainder (1..15) is covered.
    fn arbitrary_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec((0u8..16, -100.0f32..100.0), 0..130)
            .prop_map(|items| items.into_iter().map(|(tag, v)| seasoned(tag, v)).collect())
    }

    /// `v`, or — by `tag` — NaN, ±∞, ±0.0, a huge or a subnormal value.
    fn seasoned(tag: u8, v: f32) -> f32 {
        match tag {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => v * 1e30,
            6 => v * 1e-40,
            _ => v,
        }
    }

    fn arbitrary_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..max_len)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Finite vectors seasoned with signed zeros, subnormals and huge values;
    /// lengths sweep every vector-width remainder.
    fn finite_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec((0u8..12, -100.0f32..100.0), 0..130).prop_map(|items| {
            items
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => -0.0,
                    1 => 0.0,
                    2 => v * 1e30,
                    3 => v * 1e-40,
                    _ => v,
                })
                .collect()
        })
    }

    /// Heavy ties: a handful of distinct magnitudes, among them `±0.0`,
    /// subnormals, and neighbours of 1.0 that part only in the second
    /// (`0x80`) or third (`0x01`) histogram level.
    fn tied_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(0usize..TIED.len(), 0..300)
            .prop_map(move |picks| picks.into_iter().map(|p| TIED[p]).collect())
    }

    /// The magnitudes [`tied_params`] draws from.
    const TIED: [f32; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::from_bits(0x3F80_0001),
        -f32::from_bits(0x3F80_0080),
        1e-40,
        -1e-40,
        3e-40,
        0.5,
    ];

    /// [`tied_params`] at any length: `len` draws from [`TIED`].
    fn long_tied_params(len: usize, seed: u64) -> Vec<f32> {
        let mut words = vec![0u32; len];
        StochasticRng::from_seed(seed).fill(&mut words);
        words
            .iter()
            .map(|w| TIED[*w as usize % TIED.len()])
            .collect()
    }

    /// The magnitude key the selection orders by.
    fn key(x: f32) -> u32 {
        x.to_bits() & 0x7FFF_FFFF
    }

    /// The top-k wire body from first principles: every index sorted by the
    /// documented total order — magnitude key descending, index ascending —
    /// and the first `kept` emitted in index order. On finite inputs that
    /// is the encoder's order before `append_topk` (`|x|` descending by
    /// float compare, index ascending).
    pub(crate) fn reference_topk(params: &[f32], kept: usize) -> Vec<u8> {
        let mut order: Vec<u64> = (0u64..)
            .zip(params)
            .map(|(index, x)| u64::from(!key(*x)) << 32 | index)
            .collect();
        if kept < order.len() {
            order.select_nth_unstable(kept);
        }
        let mut chosen: Vec<u32> = order[..kept].iter().map(|o| *o as u32).collect();
        chosen.sort_unstable();
        let mut body = Vec::new();
        for index in chosen {
            body.extend_from_slice(&index.to_le_bytes());
            body.extend_from_slice(&params[index as usize].to_le_bytes());
        }
        body
    }

    /// Runs the top-k selection on one arm behind a 5-byte prefix (an odd
    /// offset, as a descriptor-prefixed wire buffer would give it), checks
    /// the prefix survived and returns the pairs alone.
    fn topk_body(params: &[f32], kept: usize, arm: Arm) -> Vec<u8> {
        let mut body = vec![0xAB; 5];
        append_topk_with(params, kept, &mut body, arm);
        assert_eq!(body[..5], [0xAB; 5], "append must not touch the prefix");
        body.split_off(5)
    }

    /// The fused error-feedback selection on one arm, as [`topk_body`]:
    /// the pairs, and `acc` after the add.
    fn feedback_topk_body(acc: &[f32], src: &[f32], kept: usize, arm: Arm) -> (Vec<u8>, Vec<f32>) {
        let mut sums = acc.to_vec();
        let mut body = vec![0xAB; 5];
        add_append_topk_with(&mut sums, src, kept, &mut body, arm);
        assert_eq!(body[..5], [0xAB; 5], "append must not touch the prefix");
        (body.split_off(5), sums)
    }

    /// Scalar ≡ AVX2 ≡ the sort-based reference, byte for byte, for every
    /// `kept` in `kepts` (any value; clamped like the kernel clamps) — the
    /// plain selection of `params`, and the fused one of `params + 1.0 *
    /// src` against [`axpy`]'s sums and the reference selection of them.
    fn check_topk(params: &[f32], src: &[f32], kepts: &[usize]) -> Result<(), String> {
        let len = params.len();
        let src = &src[..len];
        let mut sums = params.to_vec();
        fold_dense_le_n_with(&mut sums, &[le_bytes(src)], &[1.0], Arm::Scalar);
        for &kept in kepts {
            let expected = reference_topk(params, kept.min(len));
            let expected_fused = reference_topk(&sums, kept.min(len));
            for arm in arms() {
                prop_assert_eq!(
                    &topk_body(params, kept, arm),
                    &expected,
                    "arm {:?}, kept {}",
                    arm,
                    kept
                );
                let (body, added) = feedback_topk_body(params, src, kept, arm);
                prop_assert_eq!(
                    &body,
                    &expected_fused,
                    "fused, arm {:?}, kept {}",
                    arm,
                    kept
                );
                prop_assert_eq!(bits(&added), bits(&sums), "fused sums, arm {:?}", arm);
            }
        }
        Ok(())
    }

    /// [`check_topk`] at the edge values of `kept` and at `pick`, with the
    /// fused arm adding a `src` derived from `params`.
    fn check_topk_against_reference(params: &[f32], pick: usize) -> Result<(), String> {
        let len = params.len();
        let src = long_params(len, len as u64);
        check_topk(
            params,
            &src,
            &[0, 1, len.saturating_sub(1), len, len + 3, pick],
        )
    }

    /// The arms this process can run, narrowest first: scalar always, AVX2
    /// and AVX-512 when the host's CPUID reports them.
    fn arms() -> Vec<Arm> {
        [Arm::Scalar, Arm::Avx2, Arm::Avx512]
            .into_iter()
            .filter(|arm| *arm <= widest_arm())
            .collect()
    }

    /// A long deterministic vector with non-finite, signed-zero and
    /// subnormal lanes sprinkled in, for the lengths around `RAND_BLOCK`.
    fn long_params(len: usize, seed: u64) -> Vec<f32> {
        let mut words = vec![0u32; len];
        StochasticRng::from_seed(seed ^ 0x5EED).fill(&mut words);
        let value = |(i, w): (usize, &u32)| match (i as u64).wrapping_add(seed) % 97 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 1e-40,
            _ => (*w >> 8) as f32 * (1.0 / 16_777_216.0) - 0.5,
        };
        words.iter().enumerate().map(value).collect()
    }

    /// The next words `rng` would draw: two generators stand at the same
    /// position exactly when these agree.
    fn next_words(rng: &StochasticRng) -> [u32; 5] {
        let mut words = [0u32; 5];
        rng.clone().fill(&mut words);
        words
    }

    /// The oracle of a stochastic encode, from first principles: **one**
    /// contiguous `fill` of `params.len()` words, word `i` rounding element
    /// `i` through `quantize_one`, packed as the wire format says. Returns
    /// the body and the generator where that one `fill` left it.
    fn reference_encode(
        params: &[f32],
        scale: f32,
        levels: f32,
        seed: u64,
    ) -> (Vec<u8>, StochasticRng) {
        let mut rng = StochasticRng::from_seed(seed);
        let wide = levels > 7.0;
        let bytes = if wide {
            params.len()
        } else {
            params.len().div_ceil(2)
        };
        if scale <= 0.0 {
            return (vec![0u8; bytes], rng);
        }
        let mut words = vec![0u32; params.len()];
        rng.fill(&mut words);
        let inv = 1.0 / scale;
        let level = |i: usize| scalar::quantize_one(params[i], inv, levels, words[i]);
        let body = if wide {
            (0..params.len()).map(|i| level(i) as u8).collect()
        } else {
            let nibble = |i: usize| match i < params.len() {
                true => scalar::nibble(level(i)),
                false => 0,
            };
            (0..bytes)
                .map(|j| nibble(2 * j) | (nibble(2 * j + 1) << 4))
                .collect()
        };
        (body, rng)
    }

    /// Plain and feedback encoders of both widths, on every arm this process
    /// can run, against the old formula: the bytes are the oracle's, the
    /// generator stands where one `fill` of the element count leaves it, and
    /// the feedback residual is what `fold_u8` / `fold_u4` with
    /// `k = -1.0 * scale` over those bytes leaves — bit for bit. The feedback
    /// body is written behind an odd-length prefix, as behind a descriptor.
    /// A non-positive scale never reaches an arm: the wrappers append zeros,
    /// leave the residual untouched and draw nothing.
    fn check_stochastic_kernels(params: &[f32], scale: f32, seed: u64) -> Result<(), String> {
        for levels in [127.0f32, 7.0] {
            let wide = levels > 7.0;
            let (body, end) = reference_encode(params, scale, levels, seed);
            if scale <= 0.0 {
                let mut rng = StochasticRng::from_seed(seed);
                let mut residual = params.to_vec();
                let mut wire = vec![0xABu8; 5];
                if wide {
                    feedback_append_u8(&mut residual, scale, levels, &mut rng, &mut wire);
                } else {
                    feedback_append_u4(&mut residual, scale, levels, &mut rng, &mut wire);
                }
                prop_assert_eq!(wire[..5], [0xAB; 5], "the prefix is not touched");
                prop_assert_eq!(&wire[5..], &body[..], "zero body, levels {}", levels);
                prop_assert_eq!(bits(&residual), bits(params), "residual untouched");
                prop_assert_eq!(next_words(&rng), next_words(&end), "no draw consumed");
                continue;
            }
            let mut folded = params.to_vec();
            if wide {
                fold_u8_with(&mut folded, &body, -scale, Arm::Scalar);
            } else {
                fold_u4_with(&mut folded, &body, 0, -scale, Arm::Scalar);
            }
            for arm in arms() {
                let label = format!("levels {levels} arm {arm:?}");
                let mut rng = StochasticRng::from_seed(seed);
                let mut plain = vec![0u8; body.len()];
                if wide {
                    encode_u8_with(params, scale, levels, &mut rng, &mut plain, arm);
                } else {
                    encode_u4_with(params, scale, levels, &mut rng, &mut plain, arm);
                }
                prop_assert_eq!(&plain, &body, "plain bytes, {}", label);
                prop_assert_eq!(
                    next_words(&rng),
                    next_words(&end),
                    "plain position, {}",
                    label
                );

                let mut rng = StochasticRng::from_seed(seed);
                let mut residual = params.to_vec();
                let mut wire = vec![0xABu8; 5 + body.len()];
                let out = &mut wire[5..];
                if wide {
                    feedback_u8_with(&mut residual, scale, levels, &mut rng, out, arm);
                } else {
                    feedback_u4_with(&mut residual, scale, levels, &mut rng, out, arm);
                }
                prop_assert_eq!(wire[..5], [0xAB; 5], "the prefix is not touched");
                prop_assert_eq!(&wire[5..], &body[..], "feedback bytes, {}", label);
                prop_assert_eq!(bits(&residual), bits(&folded), "residual, {}", label);
                prop_assert_eq!(
                    next_words(&rng),
                    next_words(&end),
                    "feedback position, {}",
                    label
                );
            }
        }
        Ok(())
    }

    /// The plain bytes and the generator's next words, then the feedback
    /// bytes, the residual's bits and the generator's next words.
    type Encoded = (Vec<u8>, [u32; 5], Vec<u8>, Vec<u32>, [u32; 5]);

    /// What one arm's plain and feedback encoders of `levels` make of
    /// `params` from `seed`, called through their `*_with` dispatchers.
    fn encode_on(arm: Arm, params: &[f32], scale: f32, levels: f32, seed: u64) -> Encoded {
        let bytes = if levels > 7.0 {
            params.len()
        } else {
            params.len().div_ceil(2)
        };
        let mut rng = StochasticRng::from_seed(seed);
        let mut plain = vec![0u8; bytes];
        let mut feedback_rng = StochasticRng::from_seed(seed);
        let mut wire = vec![0u8; bytes];
        let mut residual = params.to_vec();
        if levels > 7.0 {
            encode_u8_with(params, scale, levels, &mut rng, &mut plain, arm);
            feedback_u8_with(
                &mut residual,
                scale,
                levels,
                &mut feedback_rng,
                &mut wire,
                arm,
            );
        } else {
            encode_u4_with(params, scale, levels, &mut rng, &mut plain, arm);
            feedback_u4_with(
                &mut residual,
                scale,
                levels,
                &mut feedback_rng,
                &mut wire,
                arm,
            );
        }
        let (plain_next, feedback_next) = (next_words(&rng), next_words(&feedback_rng));
        (plain, plain_next, wire, bits(&residual), feedback_next)
    }

    /// `add_max` on one arm against the formula `acc += 1.0 * src` then
    /// `max_abs_finite` on the scalar arm: the sums and the maximum, bit for
    /// bit.
    fn check_add_max(acc: &[f32], src: &[f32]) -> Result<(), String> {
        let n = acc.len().min(src.len());
        let mut expected = acc[..n].to_vec();
        let w = 1.0f32;
        for (a, b) in expected.iter_mut().zip(src) {
            *a += w * b;
        }
        let max = max_abs_finite_with(&expected, Arm::Scalar);
        for arm in arms() {
            let mut got = acc[..n].to_vec();
            let got_max = add_max_with(&mut got, &src[..n], arm);
            prop_assert_eq!(bits(&got), bits(&expected), "sums, arm {:?}", arm);
            prop_assert_eq!(got_max.to_bits(), max.to_bits(), "max, arm {:?}", arm);
        }
        Ok(())
    }

    /// `fold_dense_le_n` over the first `n` of eight sources, for every `n`,
    /// on every arm this process can run and through the public wrapper,
    /// against one single-source scalar fold per source in turn (the chain
    /// the multi-source kernel must reproduce: between two sources the
    /// running value is stored and reloaded, which changes no bit, NaN
    /// payloads included). Source `k` holds
    /// `acc.len() + k` seasoned values (the wrapper folds the common prefix)
    /// behind `offsets[k]` filler bytes.
    fn check_fold_dense_le_n(
        acc: &[f32],
        seed: u64,
        offsets: &[usize],
        weights: &[f32],
    ) -> Result<(), String> {
        let len = acc.len();
        let buffers: Vec<Vec<u8>> = (offsets.iter().enumerate())
            .map(|(k, offset)| {
                let mut words = vec![0u32; len + k];
                StochasticRng::from_seed(seed.wrapping_add(k as u64)).fill(&mut words);
                let mut bytes = vec![0xA5u8; *offset];
                for w in words {
                    let v = (w >> 8) as f32 * (1.0 / 65_536.0) - 128.0;
                    bytes.extend_from_slice(&seasoned((w & 15) as u8, v).to_le_bytes());
                }
                bytes
            })
            .collect();
        let srcs: Vec<&[u8]> = (buffers.iter().zip(offsets))
            .map(|(bytes, offset)| &bytes[*offset..])
            .collect();
        let exact: Vec<&[u8]> = srcs.iter().map(|src| &src[..4 * len]).collect();
        for n in 1..=srcs.len() {
            let mut expected = acc.to_vec();
            for (src, w) in exact[..n].iter().zip(weights) {
                fold_dense_le_n_with(&mut expected, &[src], &[*w], Arm::Scalar);
            }
            for arm in arms() {
                let mut got = acc.to_vec();
                fold_dense_le_n_with(&mut got, &exact[..n], &weights[..n], arm);
                prop_assert_eq!(bits(&got), bits(&expected), "{} sources, arm {:?}", n, arm);
            }
            let mut got = acc.to_vec();
            fold_dense_le_n(&mut got, &srcs[..n], &weights[..n]);
            prop_assert_eq!(bits(&got), bits(&expected), "{} sources, wrapper", n);
        }
        Ok(())
    }

    #[test]
    fn a_pooled_dense_owner_checks_its_vector_back_in_when_dropped() {
        let pool = BufferPool::new();
        let values = pool.checkout_f32(64);
        let address = values.as_ptr();
        let owned = DenseLe::pooled(values, &pool);
        assert_eq!(owned.as_ref().as_ptr(), address.cast::<u8>());
        assert_eq!(pool.stats().idle_buffers, 0);
        // Dropped wherever the last handle goes away — another thread here.
        std::thread::spawn(move || drop(owned)).join().unwrap();
        assert_eq!(pool.stats().idle_buffers, 1);
        let again = pool.checkout_f32(64);
        assert_eq!(again.as_ptr(), address);
        // An unpooled owner frees its vector and leaves the pool alone.
        drop(DenseLe::new(vec![1.0; 64]));
        assert_eq!(pool.stats().idle_buffers, 0);
    }

    proptest! {
        /// The in-place LE view (borrowed and owned) equals the per-element
        /// `to_le_bytes` encoding for arbitrary bit patterns — NaN payloads,
        /// signed zeros and subnormals among them — at every small length.
        #[test]
        fn le_view_equals_per_element_le_bytes(
            patterns in proptest::collection::vec((0u8..8, any::<u32>()), 0..300),
        ) {
            let values: Vec<f32> = patterns
                .into_iter()
                .map(|(tag, raw)| match tag {
                    0 => f32::from_bits(0x7FC0_0000 | (raw & 0x003F_FFFF)), // quiet NaN payload
                    1 => f32::from_bits(0xFF80_0001 | (raw & 0x003F_FFFF)), // signalling, negative
                    2 => -0.0,
                    3 => 0.0,
                    4 => f32::from_bits(raw & 0x007F_FFFF),                 // subnormal
                    _ => f32::from_bits(raw),
                })
                .collect();
            let expected: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(le_bytes(&values), expected.as_slice());
            let ptr = values.as_ptr().cast::<u8>();
            let owned = DenseLe::new(values);
            prop_assert_eq!(owned.as_ref(), expected.as_slice());
            prop_assert_eq!(owned.as_ref().as_ptr(), ptr, "the owner views, never copies");
        }

        /// Dense fold and decode: AVX2 output is bit-identical to scalar.
        #[test]
        fn dense_kernels_match(acc in arbitrary_params(), body in arbitrary_bytes(520), w in -3.0f32..3.0) {
            if !avx2_testable() {
                return Ok(());
            }
            let n = acc.len().min(body.len() / 4);
            let mut a_scalar = acc.clone();
            let mut a_simd = acc.clone();
            fold_dense_le_n_with(&mut a_scalar[..n], &[&body[..4 * n]], &[w], Arm::Scalar);
            fold_dense_le_n_with(&mut a_simd[..n], &[&body[..4 * n]], &[w], Arm::Avx2);
            prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            let mut d_scalar = vec![0.0f32; n];
            let mut d_simd = vec![1.0f32; n];
            decode_dense_le_with(&mut d_scalar, &body[..4 * n], Arm::Scalar);
            decode_dense_le_with(&mut d_simd, &body[..4 * n], Arm::Avx2);
            prop_assert_eq!(bits(&d_scalar), bits(&d_simd));
        }

        /// Uniform8 fold and decode: AVX2 output is bit-identical to scalar.
        #[test]
        fn u8_kernels_match(acc in arbitrary_params(), levels in arbitrary_bytes(130), k in -3.0f32..3.0) {
            if !avx2_testable() {
                return Ok(());
            }
            let n = acc.len().min(levels.len());
            let mut a_scalar = acc.clone();
            let mut a_simd = acc.clone();
            fold_u8_with(&mut a_scalar[..n], &levels[..n], k, Arm::Scalar);
            fold_u8_with(&mut a_simd[..n], &levels[..n], k, Arm::Avx2);
            prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            let mut d_scalar = vec![0.0f32; n];
            let mut d_simd = vec![1.0f32; n];
            decode_u8_with(&mut d_scalar, &levels[..n], k, Arm::Scalar);
            decode_u8_with(&mut d_simd, &levels[..n], k, Arm::Avx2);
            prop_assert_eq!(bits(&d_scalar), bits(&d_simd));
        }

        /// Uniform4 fold (both start parities) and decode: bit-identical.
        #[test]
        fn u4_kernels_match(acc in arbitrary_params(), nibbles in arbitrary_bytes(70), start in 0usize..9, k in -3.0f32..3.0) {
            if !avx2_testable() {
                return Ok(());
            }
            let capacity = nibbles.len() * 2;
            let n = acc.len().min(capacity.saturating_sub(start));
            let mut a_scalar = acc[..n].to_vec();
            let mut a_simd = a_scalar.clone();
            if start < capacity {
                fold_u4_with(&mut a_scalar, &nibbles, start, k, Arm::Scalar);
                fold_u4_with(&mut a_simd, &nibbles, start, k, Arm::Avx2);
                prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            }
            let m = acc.len().min(capacity);
            let mut d_scalar = vec![0.0f32; m];
            let mut d_simd = vec![1.0f32; m];
            decode_u4_with(&mut d_scalar, &nibbles, k, Arm::Scalar);
            decode_u4_with(&mut d_simd, &nibbles, k, Arm::Avx2);
            prop_assert_eq!(bits(&d_scalar), bits(&d_simd));
        }

        /// axpy / axpy8, the `f32` entry points over `fold_dense_le_n`, on
        /// the active arm ≡ the formula they were written as: `acc += w *
        /// src` over the common prefix, one source after another.
        #[test]
        fn axpy_kernels_match(data in arbitrary_params(), srcs_seed in 1u64..1000, w in -3.0f32..3.0) {
            let n = data.len();
            let mut rng = StochasticRng::from_seed(srcs_seed);
            let mut words = vec![0u32; n * 8 + 3];
            rng.fill(&mut words);
            // The first source is longer than `acc`, the others exactly as long.
            let srcs: Vec<Vec<f32>> = (0..8)
                .map(|s| {
                    let end = (s + 1) * n + if s == 0 { 3 } else { 0 };
                    words[s * n..end]
                        .iter()
                        .map(|x| (*x >> 8) as f32 * (1.0 / 16_777_216.0) - 0.5)
                        .collect()
                })
                .collect();
            let weights: [f32; 8] = std::array::from_fn(|i| w + i as f32 * 0.125);
            let formula = |acc: &mut [f32], src: &[f32], w: f32| {
                for (a, b) in acc.iter_mut().zip(src) {
                    *a += w * b;
                }
            };

            let mut one = data.clone();
            let mut expected = data.clone();
            axpy(&mut one, &srcs[0], w);
            formula(&mut expected, &srcs[0], w);
            prop_assert_eq!(bits(&one), bits(&expected));

            let oct: [&[f32]; 8] = std::array::from_fn(|i| srcs[i].as_slice());
            let mut eight = data.clone();
            let mut expected = data.clone();
            axpy8(&mut eight, oct, weights);
            for (src, w) in oct.iter().zip(weights) {
                formula(&mut expected, src, w);
            }
            prop_assert_eq!(bits(&eight), bits(&expected));
        }

        /// The one dense fold kernel, for every source count 1..=8: scalar ≡
        /// AVX2 ≡ one single-source scalar fold per source in turn, bit for
        /// bit, over every sub-vector tail, sources that start at byte
        /// offsets off any 32-byte boundary, and NaN, ±∞, −0.0 and
        /// subnormals in the accumulator, the sources and the weights.
        #[test]
        fn fold_dense_le_n_is_sequential_single_source_folds(
            acc in arbitrary_params(),
            seed in any::<u64>(),
            offsets in proptest::collection::vec(0usize..32, 8..=8),
            weights in proptest::collection::vec((0u8..10, -3.0f32..3.0), 8..=8),
        ) {
            let weights: Vec<f32> = weights.into_iter().map(|(tag, w)| seasoned(tag, w)).collect();
            check_fold_dense_le_n(&acc, seed, &offsets, &weights)?;
        }

        /// Scale derivation: AVX2 max-abs-over-finite matches scalar exactly
        /// even with NaN/inf lanes.
        #[test]
        fn max_abs_finite_matches(params in arbitrary_params()) {
            if !avx2_testable() {
                return Ok(());
            }
            let s = max_abs_finite_with(&params, Arm::Scalar);
            let v = max_abs_finite_with(&params, Arm::Avx2);
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }

        /// Stochastic encoders: the same seed produces the same wire bytes,
        /// residual bits and generator position on every arm the host runs
        /// (and twice on the same arm), for U8 and U4, plain and feedback,
        /// across NaN, ±∞, ±0, subnormal and huge lanes, zero, tiny and huge
        /// scales and every length mod 16.
        #[test]
        fn encoders_match_bitwise(params in arbitrary_params(), seed in 0u64..10_000, scale_tag in 0u8..5) {
            let scale = match scale_tag {
                0 => 1e-40f32, // subnormal: 1/scale overflows to infinity
                1 => 1e30,
                2 => 0.125,
                3 => 0.0, // only the `*_with` dispatchers reach an arm with it
                _ => 3.7,
            };
            for levels in [127.0f32, 7.0] {
                let reference = encode_on(Arm::Scalar, &params, scale, levels, seed);
                for arm in arms() {
                    let encoded = encode_on(arm, &params, scale, levels, seed);
                    prop_assert_eq!(&encoded, &reference, "levels {} arm {:?}", levels, arm);
                    let again = encode_on(arm, &params, scale, levels, seed);
                    prop_assert_eq!(&again, &encoded, "again, levels {} arm {:?}", levels, arm);
                }
            }
        }

        /// The in-register draws are `fill`'s stream word for word, from any
        /// seed, and leave the generator where `fill` leaves it — an odd
        /// length discarding the high half of its last draw once.
        #[test]
        fn in_register_draws_equal_fill(seed in any::<u64>(), len in 0usize..300) {
            check_in_register_draws(seed, len)?;
        }

        /// Plain and fused-feedback encoders ≡ the old formula on both arms,
        /// across non-finite inputs, tiny/huge/non-positive scales and every
        /// vector-width remainder.
        #[test]
        fn stochastic_kernels_draw_the_fill_stream(
            params in arbitrary_params(),
            seed in any::<u64>(),
            scale_tag in 0u8..6,
        ) {
            let scale = match scale_tag {
                0 => 1e-40f32, // subnormal: 1/scale overflows to infinity
                1 => 1e30,
                2 => 0.125,
                3 => 0.0,
                4 => -2.0,
                _ => 3.7,
            };
            check_stochastic_kernels(&params, scale, seed)?;
        }

        /// `add_max` ≡ `axpy(1.0)` then `max_abs_finite`, bitwise, with NaN,
        /// ±inf, −0.0, huge and subnormal lanes on either side.
        #[test]
        fn add_max_matches_axpy_then_max(acc in arbitrary_params(), src in arbitrary_params()) {
            check_add_max(&acc, &src)?;
        }

        /// Top-k selection over random finite inputs: both arms emit exactly
        /// the bytes the old index-sorting encoder emitted.
        #[test]
        fn select_topk_matches_reference(params in finite_params(), pick in 0usize..130) {
            check_topk_against_reference(&params, pick)?;
        }

        /// The same under heavy ties, where the cut falls inside a run of
        /// equal keys and every histogram level is needed.
        #[test]
        fn select_topk_matches_reference_under_ties(params in tied_params(), pick in 0usize..300) {
            check_topk_against_reference(&params, pick)?;
        }

        /// Vectors long enough for a real sample (up to 20 000 elements,
        /// 313 of them sampled): random values with NaN, infinite, signed
        /// zero and subnormal lanes, or heavy ties, at any `kept` up to 30 %.
        /// Most selections of up to a quarter take the candidate run; ties
        /// overflow it; the rest fall back.
        #[test]
        fn select_topk_matches_reference_on_long_vectors(
            len in 0usize..20_000,
            seed in any::<u64>(),
            tied in any::<bool>(),
            permille in 1usize..300,
        ) {
            let params = if tied {
                long_tied_params(len, seed)
            } else {
                long_params(len, seed)
            };
            let src = long_params(len, !seed);
            check_topk(&params, &src, &[len * permille / 1000])?;
        }
    }

    /// Each vector arm's `fill_in_registers` against `fill`: the words and
    /// the position after.
    fn check_in_register_draws(seed: u64, len: usize) -> Result<(), String> {
        let mut reference = StochasticRng::from_seed(seed);
        let mut expected = vec![0u32; len];
        reference.fill(&mut expected);
        #[cfg(target_arch = "x86_64")]
        for arm in arms() {
            let mut rng = StochasticRng::from_seed(seed);
            let mut words = vec![0u32; len];
            match arm {
                // SAFETY: `arms` lists `Arm::Avx2` only when AVX2 is detected.
                Arm::Avx2 => unsafe { avx2::fill_in_registers(&mut rng, &mut words) },
                // SAFETY: `arms` lists `Arm::Avx512` only when AVX-512F and
                // AVX-512DQ are detected.
                Arm::Avx512 => unsafe { avx512::fill_in_registers(&mut rng, &mut words) },
                Arm::Scalar => continue,
            }
            prop_assert_eq!(
                &words,
                &expected,
                "arm {:?} seed {:#x} len {}",
                arm,
                seed,
                len
            );
            prop_assert_eq!(
                next_words(&rng),
                next_words(&reference),
                "position, arm {:?}",
                arm
            );
        }
        Ok(())
    }

    /// The lengths where a block-at-a-time draw could go wrong: one short
    /// of, at, and one past `RAND_BLOCK`, a 16-lane tail of every size but
    /// 0 just past it, and odd lengths spanning two blocks (the half-draw is
    /// discarded once, at the very end).
    #[test]
    fn stochastic_kernels_hold_around_the_block_length() {
        let past_the_block = (4098..4112).map(|len| (len, len as u64));
        let lengths = [
            (4095, 1u64),
            (4096, 2),
            (4097, 3),
            (8191, u64::MAX - 4),
            (8207, 9),
        ];
        for (len, seed) in lengths.into_iter().chain(past_the_block) {
            check_in_register_draws(seed, len).unwrap();
            let params = long_params(len, seed);
            check_stochastic_kernels(&params, 0.004, seed).unwrap();
            check_add_max(&params, &long_params(len, seed ^ 7)).unwrap();
        }
    }

    /// The arms listed are every arm the host's CPUID reports, so on an
    /// AVX-512 host every parity property above runs the 16-lane encoders.
    #[test]
    fn arms_list_every_arm_the_host_runs() {
        let listed = arms();
        assert_eq!(listed.first(), Some(&Arm::Scalar));
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let wide = has!("avx2") && has!("avx512f") && has!("avx512dq");
            assert_eq!(listed.contains(&Arm::Avx2), has!("avx2"));
            assert_eq!(listed.contains(&Arm::Avx512), wide);
        }
    }

    /// Tiny maxima across the boundary below which `1 / scale` overflows,
    /// at the scale the codec derives for them: on every arm, zeros encode
    /// as level 0, no sign flips, and the feedback residual is exactly what
    /// was not sent. Below the boundary the scale is 0, which no arm sees:
    /// the wrappers append zeros and draw nothing.
    #[test]
    fn tiny_maxima_keep_zeros_and_signs_on_every_arm() {
        let maxima = [
            1e-36f32, 5e-37, 3e-37, 1e-37, 3e-38, 1e-38, 1e-39, 1e-40, 1e-42, 1e-44,
        ];
        for levels in [127.0f32, 7.0] {
            for max in maxima {
                let params: Vec<f32> = (0..45)
                    .map(|i| [0.0, max, -max, 0.0, 0.5 * max][i % 5])
                    .collect();
                let scale = crate::codec::scale_for(max, levels);
                if scale == 0.0 {
                    assert!(max < 4e-37, "levels {levels} max {max:e}");
                    continue;
                }
                for arm in arms() {
                    let case = format!("levels {levels} max {max:e} arm {arm:?}");
                    let (plain, _, wire, residual, _) = encode_on(arm, &params, scale, levels, 1);
                    assert_eq!(plain, wire, "{case}");
                    let mut decoded = vec![0.0f32; params.len()];
                    if levels > 7.0 {
                        decode_u8_with(&mut decoded, &wire, scale, Arm::Scalar);
                    } else {
                        decode_u4_with(&mut decoded, &wire, scale, Arm::Scalar);
                    }
                    for ((v, d), r) in params.iter().zip(&decoded).zip(&residual) {
                        if *v == 0.0 {
                            assert_eq!(d.to_bits(), 0.0f32.to_bits(), "{case}");
                        }
                        let flipped = *d != 0.0 && d.is_sign_negative() != v.is_sign_negative();
                        assert!(!flipped, "{case}: {v:e} decoded as {d:e}");
                        assert_eq!(*r, (v - d).to_bits(), "{case}");
                    }
                }
            }
        }
    }

    /// Non-finite inputs have no float order, but they have a key order:
    /// NaNs above infinities above every finite value, ties to the lower
    /// index — the same on both arms for every `kept`.
    #[test]
    fn select_topk_orders_non_finite_by_key_on_both_arms() {
        let params = [
            1.0,
            f32::NAN,
            -3.0,
            f32::INFINITY,
            -f32::NAN,
            0.0,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0001),
            2.5,
            -0.0,
            f32::MAX,
        ];
        for kept in 0..=params.len() {
            let scalar_body = topk_body(&params, kept, Arm::Scalar);
            assert_eq!(scalar_body.len(), kept * 8);
            if avx2_testable() {
                assert_eq!(
                    topk_body(&params, kept, Arm::Avx2),
                    scalar_body,
                    "kept {kept}"
                );
            }
        }
        let indices = |body: &[u8]| -> Vec<u32> {
            body.chunks_exact(8)
                .map(|pair| u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]))
                .collect()
        };
        // The payload-carrying NaN has the largest key, then the two default
        // NaNs (lower index first), then the infinities, then `f32::MAX`.
        assert_eq!(indices(&topk_body(&params, 1, Arm::Scalar)), [7]);
        assert_eq!(indices(&topk_body(&params, 2, Arm::Scalar)), [1, 7]);
        assert_eq!(indices(&topk_body(&params, 3, Arm::Scalar)), [1, 4, 7]);
        assert_eq!(
            indices(&topk_body(&params, 6, Arm::Scalar)),
            [1, 3, 4, 6, 7, 10]
        );
    }

    /// Which way a selection of `kept` of `values` leaves its candidate run.
    #[derive(Debug, PartialEq)]
    enum Exit {
        /// No sample is taken: the whole vector is the candidate set.
        NoSample,
        /// The run is shorter than `kept`: the sampled bound was too high.
        Short,
        /// The run outgrows its room: the sampled bound was too low.
        Overflow,
        /// The run holds the selection.
        Run,
    }

    fn exit_of(values: &[f32], kept: usize) -> Exit {
        let Some(floor) = candidate_floor(values.len(), kept, |i| values[i], Arm::Scalar) else {
            return Exit::NoSample;
        };
        let run = values.iter().filter(|x| key(**x) >= floor).count();
        if run > TOPK_RUN_FACTOR * kept {
            Exit::Overflow
        } else if run < kept {
            Exit::Short
        } else {
            Exit::Run
        }
    }

    /// Hand-built layouts that force every exit of the candidate run, each
    /// selected on both arms, plain and fused, against the reference.
    #[test]
    fn every_exit_of_the_candidate_run_selects_the_reference() {
        const DIM: usize = 64 * 300 + 5; // dim % 8 != 0
        let kept = DIM / 20;
        let sampled = |i: usize| i.is_multiple_of(TOPK_SAMPLE_STRIDE);
        let ramp = |i: usize| 1.0 + i as f32 * 1e-6;
        let mut words = vec![0u32; DIM];
        StochasticRng::from_seed(11).fill(&mut words);
        // A third NaNs with every payload and sign, a third ±∞, a third
        // finite.
        let non_finite = words
            .iter()
            .map(|w| match w % 3 {
                0 => f32::from_bits(0x7F80_0001 | (w & 0x807F_FFFF)),
                1 => f32::from_bits(0x7F80_0000 | (w & 0x8000_0000)),
                _ => (*w >> 8) as f32 * 1e-7,
            })
            .collect();
        let layouts: Vec<(&str, Vec<f32>, usize, Exit)> = vec![
            (
                "large values only where unsampled",
                (0..DIM)
                    .map(|i| if sampled(i) { 1e-3 } else { ramp(i) })
                    .collect(),
                kept,
                Exit::Overflow,
            ),
            (
                "large values only where sampled",
                (0..DIM)
                    .map(|i| if sampled(i) { ramp(i) } else { 1e-3 })
                    .collect(),
                kept,
                Exit::Short,
            ),
            (
                "every key tied",
                (0..DIM)
                    .map(|i| if i % 3 == 0 { -0.5 } else { 0.5 })
                    .collect(),
                kept,
                Exit::Overflow,
            ),
            ("NaN- and infinity-dense", non_finite, kept, Exit::Run),
            ("random", long_params(DIM, 7), kept, Exit::Run),
            ("kept 1", long_params(DIM, 8), 1, Exit::Overflow),
            ("kept dim", long_params(DIM, 9), DIM, Exit::NoSample),
        ];
        let zeros = vec![0.0f32; DIM];
        for (name, values, kept, exit) in layouts {
            assert_eq!(exit_of(&values, kept), exit, "{name}");
            // Adding zeros keeps every sum but a NaN's payload, so the fused
            // selection meets the same exit on finite layouts.
            check_topk(&values, &zeros, &[kept]).unwrap_or_else(|e| panic!("{name}: {e}"));
            check_topk(&zeros, &values, &[kept]).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // Below one sample stride there is nothing to sample.
        for dim in 1..TOPK_SAMPLE_STRIDE {
            let values = long_params(dim, dim as u64);
            for kept in [1, dim / 4, dim] {
                assert_eq!(exit_of(&values, kept), Exit::NoSample, "dim {dim}");
            }
            check_topk(&values, &long_params(dim, !0), &[1, dim / 4, dim]).unwrap();
        }
    }

    /// The collect sweeps never grow a body past `limit`: on both arms a
    /// run that would outgrow it is reported with the body's buffer where
    /// it was (nothing reallocated), and the fused add still covers every
    /// element; a run that fits is the same on both arms.
    #[test]
    fn a_run_past_its_limit_is_reported_on_both_arms_without_a_reallocation() {
        let params = long_params(1000, 3);
        let src = long_params(1000, 4);
        let mut sums = params.clone();
        fold_dense_le_n_with(&mut sums, &[le_bytes(&src)], &[1.0], Arm::Scalar);
        let limit = 5 + 80;
        let mut fitting = Vec::new();
        for arm in arms() {
            let mut body = Vec::with_capacity(limit + TOPK_BODY_SLACK);
            body.extend_from_slice(&[0xAB; 5]);
            let buffer = (body.as_ptr(), body.capacity());
            let every = compact_topk_with(&params, 0, usize::MAX, &mut body, limit, arm);
            assert_eq!(every, None, "arm {arm:?}");
            assert_eq!((body.as_ptr(), body.capacity()), buffer, "arm {arm:?}");
            body.truncate(5);
            let mut acc = params.clone();
            assert!(!add_compact_topk_with(
                &mut acc, &src, 0, &mut body, limit, arm
            ));
            assert_eq!((body.as_ptr(), body.capacity()), buffer, "arm {arm:?}");
            assert_eq!(bits(&acc), bits(&sums), "arm {arm:?}");
            // The ten largest of a thousand distinct keys fit exactly.
            let distinct: Vec<f32> = (0..1000).map(|i| i as f32).collect();
            body.truncate(5);
            let left = compact_topk_with(&distinct, key(990.0), usize::MAX, &mut body, limit, arm);
            assert!(left.is_some(), "arm {arm:?}");
            assert_eq!(body.len(), limit, "arm {arm:?}");
            fitting.push(body);
        }
        assert!(fitting.windows(2).all(|w| w[0] == w[1]));
    }
}
