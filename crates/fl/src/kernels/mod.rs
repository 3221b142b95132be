//! Runtime-dispatched SIMD kernels for the codec and aggregation hot paths.
//!
//! # Dispatch strategy
//!
//! Every kernel has exactly two arms: a scalar reference in `scalar.rs`
//! (the semantic ground truth) and an AVX2 implementation in `avx2.rs`
//! (x86-64 only). Which arm runs is decided **once per process** by
//! [`simd_active`]: the first call checks `is_x86_feature_detected!("avx2")`
//! and the `LIFL_FORCE_SCALAR` environment variable, then caches the answer
//! in a `OnceLock`, so steady-state dispatch is a single branch on a loaded
//! boolean. Setting `LIFL_FORCE_SCALAR` to any value other than empty or `0`
//! forces the scalar arm everywhere (CI runs the integration and fault tiers
//! both ways).
//!
//! # The scalar-reference rule
//!
//! The SIMD arm of every kernel must be **bit-exact** with its scalar
//! reference for all inputs — including NaN/infinity payloads and, for the
//! stochastic encoders, the random stream: the same [`StochasticRng`] seed
//! produces the same wire bytes on both arms and leaves the generator at the
//! same position (the scalar arm draws through [`StochasticRng::fill`], the
//! AVX2 arm computes the same words in registers). This is what lets the
//! session/cluster exactness tiers assert bit-identical aggregation results
//! regardless of which arm a given host picks. The proptests at the bottom
//! of this module run both arms in one process (the dispatch decision is
//! bypassed via an explicit flag) and compare outputs bitwise across odd
//! lengths, sub-lane remainders and non-finite inputs.
//!
//! Bit-exactness is achievable because every kernel restricts itself to
//! exactly-rounded elementwise IEEE-754 operations (multiply, add, subtract,
//! floor, compare, min/max) in the same order on both arms — in particular
//! FMA is never used, and divisions are hoisted into a single reciprocal
//! computed identically by both arms. See `avx2.rs` for the instruction-level
//! argument.
//!
//! # How to add a kernel
//!
//! 1. Write the scalar reference in `scalar.rs`, using only exactly-rounded
//!    elementwise operations if a vector arm is planned.
//! 2. Write the AVX2 arm in `avx2.rs` mirroring the scalar operation
//!    sequence, and delegate the sub-lane-width tail to the scalar function.
//! 3. Add a public wrapper here that validates slice lengths and calls a
//!    private `*_with(..., simd: bool)` dispatcher.
//! 4. Add a proptest below asserting bitwise equality of the two arms over
//!    odd lengths and non-finite inputs.
//!
//! A kernel that consumes rounding words additionally follows "How to add a
//! stochastic kernel" in `avx2.rs`: the scalar arm draws through `fill`, the
//! AVX2 arm draws in registers, and both leave the generator where `fill` of
//! the element count would.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

use lifl_shmem::BufferPool;
use std::sync::OnceLock;

/// Number of elements whose random rounding words the scalar arm of the
/// stochastic encoders draws per block. Even, so the nibble pairing of
/// `Uniform4` stays aligned and no half-draw is discarded across block
/// boundaries, and small enough for a stack buffer.
const RAND_BLOCK: usize = 4096;

static SIMD_ACTIVE: OnceLock<bool> = OnceLock::new();

/// True when `LIFL_FORCE_SCALAR` requests the scalar arm: set to anything
/// except the empty string or `0`.
fn scalar_forced(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// Whether the SIMD arms are in use. Decided once per process: AVX2 must be
/// detected at runtime and `LIFL_FORCE_SCALAR` must not be set (to anything
/// except empty or `0`).
pub fn simd_active() -> bool {
    *SIMD_ACTIVE.get_or_init(|| {
        let force = std::env::var("LIFL_FORCE_SCALAR").ok();
        if scalar_forced(force.as_deref()) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Human-readable name of the active arm, for logs and benchmark reports.
pub fn active_kernel_arm() -> &'static str {
    if simd_active() {
        "avx2"
    } else {
        "scalar"
    }
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

/// Fused fold of a dense little-endian `f32` payload: `acc += weight * body`.
pub fn fold_dense_le(acc: &mut [f32], body: &[u8], weight: f32) {
    let n = acc.len().min(body.len() / 4);
    fold_dense_le_with(&mut acc[..n], &body[..4 * n], weight, simd_active());
}

fn fold_dense_le_with(acc: &mut [f32], body: &[u8], weight: f32, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::fold_dense_le(acc, body, weight) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::fold_dense_le(acc, body, weight);
}

/// Decode of a dense little-endian `f32` payload into `out`.
pub fn decode_dense_le(out: &mut [f32], body: &[u8]) {
    let n = out.len().min(body.len() / 4);
    decode_dense_le_with(&mut out[..n], &body[..4 * n], simd_active());
}

fn decode_dense_le_with(out: &mut [f32], body: &[u8], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::decode_dense_le(out, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::decode_dense_le(out, body);
}

/// Fused fold of `Uniform8` levels: `acc[i] += f32(levels[i] as i8) * k`,
/// where `k` is the pre-multiplied `weight * scale`.
pub fn fold_u8(acc: &mut [f32], levels: &[u8], k: f32) {
    let n = acc.len().min(levels.len());
    fold_u8_with(&mut acc[..n], &levels[..n], k, simd_active());
}

fn fold_u8_with(acc: &mut [f32], levels: &[u8], k: f32, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::fold_u8(acc, levels, k) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::fold_u8(acc, levels, k);
}

/// Dequantize of `Uniform8` levels: `out[i] = f32(levels[i] as i8) * scale`.
pub fn decode_u8(out: &mut [f32], levels: &[u8], scale: f32) {
    let n = out.len().min(levels.len());
    decode_u8_with(&mut out[..n], &levels[..n], scale, simd_active());
}

fn decode_u8_with(out: &mut [f32], levels: &[u8], scale: f32, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::decode_u8(out, levels, scale) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::decode_u8(out, levels, scale);
}

/// Fused fold of packed `Uniform4` nibbles starting at element offset
/// `start` within `body` (low nibble first within each byte): folds
/// `acc.len()` elements beginning at that offset. An odd `start` peels one
/// high nibble scalar-side, then both arms run even-aligned.
pub fn fold_u4(acc: &mut [f32], body: &[u8], start: usize, k: f32) {
    fold_u4_with(acc, body, start, k, simd_active());
}

fn fold_u4_with(acc: &mut [f32], body: &[u8], start: usize, k: f32, simd: bool) {
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
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::fold_u4_aligned(acc, nibbles, k) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::fold_u4_aligned(acc, nibbles, k);
}

/// Dequantize of packed `Uniform4` nibbles (even-aligned) into `out`.
pub fn decode_u4(out: &mut [f32], nibbles: &[u8], scale: f32) {
    let n = out.len().min(nibbles.len().saturating_mul(2));
    decode_u4_with(&mut out[..n], nibbles, scale, simd_active());
}

fn decode_u4_with(out: &mut [f32], nibbles: &[u8], scale: f32, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::decode_u4(out, nibbles, scale) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
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

/// Spare capacity [`select_topk`] keeps past the `8 * kept` wire bytes: the
/// AVX2 sweep stores whole 64-byte blocks.
const TOPK_BODY_SLACK: usize = 64;

/// The radix levels `(hi, lo)` the 31-bit magnitude key is refined through:
/// exponent plus four mantissa bits first, then the remaining mantissa.
const TOPK_LEVELS: [(u32, u32); 3] = [(31, 19), (19, 7), (7, 0)];

/// Exact top-k sparsification: writes into `body` (cleared first) the
/// little-endian `(u32 index, f32 value)` wire pairs of the `kept` largest
/// elements of `params`, sorted by index.
///
/// "Largest" is a documented **total order**: the magnitude key — the bit
/// pattern of `|x|` — descending, then index ascending. On finite inputs that
/// is magnitude descending with ties (`±0.0` included) going to the lower
/// index. Non-finite values are not rejected here — that belongs to ingress
/// validation (ROADMAP 4b) — but they cannot make the output ambiguous: as
/// keys, infinities sort above every finite value and NaNs above infinities,
/// so the result is deterministic and identical on both dispatch arms for
/// every input.
///
/// No element is ever moved or sorted. A histogram over the top 12 key bits
/// finds the bin holding the `kept`-th largest key, up to two more histograms
/// restricted to that bin pin the key down to the last bit, and one
/// compare-and-compact sweep in index order emits everything above that
/// threshold key plus the lowest-index ties at it. Refinement stops as soon
/// as the boundary bin is kept whole. `kept` is clamped to `params.len()`.
pub fn select_topk(params: &[f32], kept: usize, body: &mut Vec<u8>) {
    body.clear();
    append_topk(params, kept, body);
}

/// [`select_topk`] without the clear: the pairs are appended behind whatever
/// `body` already holds (an update's descriptor, when the wire form is built
/// in one buffer).
pub fn append_topk(params: &[f32], kept: usize, body: &mut Vec<u8>) {
    append_topk_with(params, kept, body, simd_active());
}

fn append_topk_with(params: &[f32], kept: usize, body: &mut Vec<u8>, simd: bool) {
    let kept = kept.min(params.len());
    if kept == 0 {
        return;
    }
    body.reserve_exact(kept * 8 + TOPK_BODY_SLACK);
    let (threshold, ties) = topk_cut(params, kept, simd);
    compact_topk_with(params, threshold, ties, body, simd);
}

/// The cut of an exact top-`kept` selection (`1 <= kept <= params.len()`):
/// `(threshold, ties)` such that the selection is every element whose key
/// exceeds `threshold` plus the first `ties` elements, in index order, at it.
fn topk_cut(params: &[f32], kept: usize, simd: bool) -> (u32, usize) {
    let (mut prefix, mut ties) = (0u32, kept);
    for (hi, lo) in TOPK_LEVELS {
        let mut counts = [0u32; TOPK_BINS];
        magnitude_histogram_with(params, prefix, hi, lo, &mut counts, simd);
        // At least `ties` elements carry `prefix`, so the walk ends in range.
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
    params: &[f32],
    prefix: u32,
    hi: u32,
    lo: u32,
    counts: &mut [u32; TOPK_BINS],
    simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::magnitude_histogram(params, prefix, hi, lo, counts) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::magnitude_histogram(params, prefix, hi, lo, counts);
}

fn compact_topk_with(params: &[f32], threshold: u32, ties: usize, body: &mut Vec<u8>, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::compact_topk(params, 0, threshold, ties, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::compact_topk(params, 0, threshold, ties, body);
}

// ---------------------------------------------------------------------------
// Dense axpy family (model accumulation, sharded batch folds).
// ---------------------------------------------------------------------------

/// `acc += w * src`, elementwise over the common prefix.
pub fn axpy(acc: &mut [f32], src: &[f32], w: f32) {
    let n = acc.len().min(src.len());
    axpy_with(&mut acc[..n], &src[..n], w, simd_active());
}

fn axpy_with(acc: &mut [f32], src: &[f32], w: f32, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        unsafe { avx2::axpy(acc, src, w) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::axpy(acc, src, w);
}

/// Four-source batched fold: one accumulator load/store per element, adds
/// chained in source order so the result is bit-identical to four sequential
/// [`axpy`] passes. Every source must be at least as long as `acc`.
pub fn axpy4(acc: &mut [f32], srcs: [&[f32]; 4], w: [f32; 4]) {
    assert!(srcs.iter().all(|s| s.len() >= acc.len()));
    axpy4_with(acc, srcs, w, simd_active());
}

fn axpy4_with(acc: &mut [f32], srcs: [&[f32]; 4], w: [f32; 4], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; lengths
        // checked by the wrapper.
        unsafe { avx2::axpy4(acc, srcs, w) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::axpy4(acc, srcs, w);
}

/// Eight-source variant of [`axpy4`] (same ordering guarantee).
pub fn axpy8(acc: &mut [f32], srcs: [&[f32]; 8], w: [f32; 8]) {
    assert!(srcs.iter().all(|s| s.len() >= acc.len()));
    axpy8_with(acc, srcs, w, simd_active());
}

fn axpy8_with(acc: &mut [f32], srcs: [&[f32]; 8], w: [f32; 8], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; lengths
        // checked by the wrapper.
        unsafe { avx2::axpy8(acc, srcs, w) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::axpy8(acc, srcs, w);
}

/// Largest finite `|x|` in `params`, or 0 when there is none (used to derive
/// quantization scales). Exact on both arms because `max` over non-negative
/// finite values is order-independent.
pub fn max_abs_finite(params: &[f32]) -> f32 {
    max_abs_finite_with(params, simd_active())
}

fn max_abs_finite_with(params: &[f32], simd: bool) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection.
        return unsafe { avx2::max_abs_finite(params) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::max_abs_finite(params)
}

/// `acc += 1.0 * src` over the common prefix — the same multiply-then-add,
/// bit for bit, as [`axpy`] with weight 1 — returning the largest finite
/// `|x|` of the sums (0 when there is none) from the same sweep: what
/// [`max_abs_finite`] would find in `acc[..n]` afterwards, without walking
/// it again.
pub fn add_max(acc: &mut [f32], src: &[f32]) -> f32 {
    let n = acc.len().min(src.len());
    add_max_with(&mut acc[..n], &src[..n], simd_active())
}

fn add_max_with(acc: &mut [f32], src: &[f32], simd: bool) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; the
        // wrapper cut both slices to one length.
        return unsafe { avx2::add_max(acc, src) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::add_max(acc, src)
}

// ---------------------------------------------------------------------------
// Stochastic encoders.
// ---------------------------------------------------------------------------

/// Quantizes `params` to `Uniform8` levels (one byte per element, two's
/// complement in `[-levels, levels]`) with stochastic rounding, writing the
/// wire body into `body` (cleared and resized). One rounding word per element
/// is drawn from `rng` — in registers on the AVX2 arm, 8 lanes quantizing at
/// a time, through [`StochasticRng::fill`] on the scalar arm; the same seed
/// yields the same bytes and leaves the same generator position on both. A
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
    encode_u8_with(
        params,
        scale,
        levels,
        rng,
        &mut body[start..],
        simd_active(),
    );
}

fn encode_u8_with(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    simd: bool,
) {
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; `body`
        // is sized to `params.len()` by the wrapper.
        unsafe { avx2::encode_u8(params, inv, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    scalar::encode_u8(params, inv, levels, rng, body);
}

/// Quantizes `params` to packed `Uniform4` sign-magnitude nibbles (low
/// nibble = even element) with stochastic rounding, writing into `body`
/// (cleared and resized to `params.len().div_ceil(2)`). Same draw and
/// bit-exactness contract as [`encode_u8`].
pub fn encode_u4(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    body.clear();
    append_u4(params, scale, levels, rng, body);
}

/// [`encode_u4`] without the clear: the `params.len().div_ceil(2)` nibble
/// bytes are appended behind whatever `body` already holds.
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
    encode_u4_with(
        params,
        scale,
        levels,
        rng,
        &mut body[start..],
        simd_active(),
    );
}

fn encode_u4_with(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    simd: bool,
) {
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; `body`
        // is sized to the packed nibble count by the wrapper.
        unsafe { avx2::encode_u4(params, inv, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
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
        simd_active(),
    );
}

fn feedback_u8_with(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    simd: bool,
) {
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; `body`
        // is sized to `residual.len()` by the wrapper.
        unsafe { avx2::feedback_append_u8(residual, inv, k, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
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
        simd_active(),
    );
}

fn feedback_u4_with(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut [u8],
    simd: bool,
) {
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after runtime AVX2 detection; `body`
        // is sized to the packed nibble count by the wrapper.
        unsafe { avx2::feedback_append_u4(residual, inv, k, levels, rng, body) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
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
        let first = simd_active();
        assert_eq!(first, simd_active());
        let arm = active_kernel_arm();
        assert_eq!(arm == "avx2", first);
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
        encode_u4(&params, -1.0, 7.0, &mut rng, &mut body);
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
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Whether the AVX2 arm can be exercised in this process; when it
    /// cannot, the equivalence properties hold trivially and the tests
    /// return early.
    fn avx2_testable() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// f32 vectors seasoned with NaN, infinities and signed zeros; lengths
    /// sweep 0..130 so every vector-width remainder (1..15) is covered.
    fn arbitrary_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec((0u8..16, -100.0f32..100.0), 0..130).prop_map(|items| {
            items
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => v * 1e30,
                    6 => v * 1e-40,
                    _ => v,
                })
                .collect()
        })
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
        let palette = [
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
        proptest::collection::vec(0usize..palette.len(), 0..300)
            .prop_map(move |picks| picks.into_iter().map(|p| palette[p]).collect())
    }

    /// The top-k wire body as the encoder built it before `select_topk`:
    /// every index ordered by the old comparator (`|x|` descending by float
    /// compare, index ascending), the first `kept` emitted in index order.
    fn reference_topk(params: &[f32], kept: usize) -> Vec<u8> {
        let mut order: Vec<u32> = (0..params.len() as u32).collect();
        order.sort_by(|a, b| {
            params[*b as usize]
                .abs()
                .partial_cmp(&params[*a as usize].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        order.truncate(kept);
        order.sort_unstable();
        let mut body = Vec::new();
        for index in order {
            body.extend_from_slice(&index.to_le_bytes());
            body.extend_from_slice(&params[index as usize].to_le_bytes());
        }
        body
    }

    /// Runs the top-k selection on one arm behind a 5-byte prefix (an odd
    /// offset, as a descriptor-prefixed wire buffer would give it), checks
    /// the prefix survived and returns the pairs alone.
    fn topk_body(params: &[f32], kept: usize, simd: bool) -> Vec<u8> {
        let mut body = vec![0xAB; 5];
        append_topk_with(params, kept, &mut body, simd);
        assert_eq!(body[..5], [0xAB; 5], "append must not touch the prefix");
        body.split_off(5)
    }

    /// Scalar ≡ AVX2 ≡ the old comparator, byte for byte, at the edge values
    /// of `kept` and at `pick` (any value; clamped like the kernel clamps).
    fn check_topk_against_reference(params: &[f32], pick: usize) -> Result<(), String> {
        let len = params.len();
        for kept in [0, 1, len.saturating_sub(1), len, len + 3, pick] {
            let expected = reference_topk(params, kept.min(len));
            prop_assert_eq!(
                &topk_body(params, kept, false),
                &expected,
                "scalar, kept {}",
                kept
            );
            if avx2_testable() {
                prop_assert_eq!(
                    &topk_body(params, kept, true),
                    &expected,
                    "avx2, kept {}",
                    kept
                );
            }
        }
        Ok(())
    }

    /// The arms this process can run: scalar always, AVX2 when detected.
    fn arms() -> Vec<bool> {
        if avx2_testable() {
            vec![false, true]
        } else {
            vec![false]
        }
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
                fold_u8_with(&mut folded, &body, -scale, false);
            } else {
                fold_u4_with(&mut folded, &body, 0, -scale, false);
            }
            for simd in arms() {
                let arm = format!("levels {levels} simd {simd}");
                let mut rng = StochasticRng::from_seed(seed);
                let mut plain = vec![0u8; body.len()];
                if wide {
                    encode_u8_with(params, scale, levels, &mut rng, &mut plain, simd);
                } else {
                    encode_u4_with(params, scale, levels, &mut rng, &mut plain, simd);
                }
                prop_assert_eq!(&plain, &body, "plain bytes, {}", arm);
                prop_assert_eq!(
                    next_words(&rng),
                    next_words(&end),
                    "plain position, {}",
                    arm
                );

                let mut rng = StochasticRng::from_seed(seed);
                let mut residual = params.to_vec();
                let mut wire = vec![0xABu8; 5 + body.len()];
                let out = &mut wire[5..];
                if wide {
                    feedback_u8_with(&mut residual, scale, levels, &mut rng, out, simd);
                } else {
                    feedback_u4_with(&mut residual, scale, levels, &mut rng, out, simd);
                }
                prop_assert_eq!(wire[..5], [0xAB; 5], "the prefix is not touched");
                prop_assert_eq!(&wire[5..], &body[..], "feedback bytes, {}", arm);
                prop_assert_eq!(bits(&residual), bits(&folded), "residual, {}", arm);
                prop_assert_eq!(
                    next_words(&rng),
                    next_words(&end),
                    "feedback position, {}",
                    arm
                );
            }
        }
        Ok(())
    }

    /// `add_max` on one arm against `axpy(1.0)` then `max_abs_finite`, both
    /// on the scalar arm: the sums and the maximum, bit for bit.
    fn check_add_max(acc: &[f32], src: &[f32]) -> Result<(), String> {
        let n = acc.len().min(src.len());
        let mut expected = acc[..n].to_vec();
        axpy_with(&mut expected, &src[..n], 1.0, false);
        let max = max_abs_finite_with(&expected, false);
        for simd in arms() {
            let mut got = acc[..n].to_vec();
            let got_max = add_max_with(&mut got, &src[..n], simd);
            prop_assert_eq!(bits(&got), bits(&expected), "sums, simd {}", simd);
            prop_assert_eq!(got_max.to_bits(), max.to_bits(), "max, simd {}", simd);
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
            fold_dense_le_with(&mut a_scalar[..n], &body[..4 * n], w, false);
            fold_dense_le_with(&mut a_simd[..n], &body[..4 * n], w, true);
            prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            let mut d_scalar = vec![0.0f32; n];
            let mut d_simd = vec![1.0f32; n];
            decode_dense_le_with(&mut d_scalar, &body[..4 * n], false);
            decode_dense_le_with(&mut d_simd, &body[..4 * n], true);
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
            fold_u8_with(&mut a_scalar[..n], &levels[..n], k, false);
            fold_u8_with(&mut a_simd[..n], &levels[..n], k, true);
            prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            let mut d_scalar = vec![0.0f32; n];
            let mut d_simd = vec![1.0f32; n];
            decode_u8_with(&mut d_scalar, &levels[..n], k, false);
            decode_u8_with(&mut d_simd, &levels[..n], k, true);
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
                fold_u4_with(&mut a_scalar, &nibbles, start, k, false);
                fold_u4_with(&mut a_simd, &nibbles, start, k, true);
                prop_assert_eq!(bits(&a_scalar), bits(&a_simd));
            }
            let m = acc.len().min(capacity);
            let mut d_scalar = vec![0.0f32; m];
            let mut d_simd = vec![1.0f32; m];
            decode_u4_with(&mut d_scalar, &nibbles, k, false);
            decode_u4_with(&mut d_simd, &nibbles, k, true);
            prop_assert_eq!(bits(&d_scalar), bits(&d_simd));
        }

        /// axpy / axpy4 / axpy8: AVX2 matches scalar bitwise, and the batched
        /// variants match sequential single-source passes bitwise.
        #[test]
        fn axpy_kernels_match(data in arbitrary_params(), srcs_seed in 1u64..1000, w in -3.0f32..3.0) {
            if !avx2_testable() {
                return Ok(());
            }
            let n = data.len();
            let mut rng = StochasticRng::from_seed(srcs_seed);
            let mut words = vec![0u32; n * 8];
            rng.fill(&mut words);
            let srcs: Vec<Vec<f32>> = (0..8)
                .map(|s| {
                    words[s * n..(s + 1) * n]
                        .iter()
                        .map(|x| (*x >> 8) as f32 * (1.0 / 16_777_216.0) - 0.5)
                        .collect()
                })
                .collect();
            let weights: [f32; 8] = std::array::from_fn(|i| w + i as f32 * 0.125);

            let mut a_scalar = data.clone();
            let mut a_simd = data.clone();
            axpy_with(&mut a_scalar, &srcs[0], w, false);
            axpy_with(&mut a_simd, &srcs[0], w, true);
            prop_assert_eq!(bits(&a_scalar), bits(&a_simd));

            let quad: [&[f32]; 4] = std::array::from_fn(|i| srcs[i].as_slice());
            let quad_w: [f32; 4] = std::array::from_fn(|i| weights[i]);
            let mut q_scalar = data.clone();
            let mut q_simd = data.clone();
            let mut q_seq = data.clone();
            axpy4_with(&mut q_scalar, quad, quad_w, false);
            axpy4_with(&mut q_simd, quad, quad_w, true);
            for i in 0..4 {
                axpy_with(&mut q_seq, quad[i], quad_w[i], false);
            }
            prop_assert_eq!(bits(&q_scalar), bits(&q_simd));
            prop_assert_eq!(bits(&q_scalar), bits(&q_seq));

            let oct: [&[f32]; 8] = std::array::from_fn(|i| srcs[i].as_slice());
            let mut o_scalar = data.clone();
            let mut o_simd = data.clone();
            let mut o_seq = data.clone();
            axpy8_with(&mut o_scalar, oct, weights, false);
            axpy8_with(&mut o_simd, oct, weights, true);
            for i in 0..8 {
                axpy_with(&mut o_seq, oct[i], weights[i], false);
            }
            prop_assert_eq!(bits(&o_scalar), bits(&o_simd));
            prop_assert_eq!(bits(&o_scalar), bits(&o_seq));
        }

        /// Scale derivation: AVX2 max-abs-over-finite matches scalar exactly
        /// even with NaN/inf lanes.
        #[test]
        fn max_abs_finite_matches(params in arbitrary_params()) {
            if !avx2_testable() {
                return Ok(());
            }
            let s = max_abs_finite_with(&params, false);
            let v = max_abs_finite_with(&params, true);
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }

        /// Stochastic encoders: same seed produces the same wire bytes on
        /// both arms (and twice on the same arm), for U8 and U4, across
        /// non-finite inputs, tiny/huge scales and odd lengths.
        #[test]
        fn encoders_match_bitwise(params in arbitrary_params(), seed in 0u64..10_000, scale_tag in 0u8..4) {
            if !avx2_testable() {
                return Ok(());
            }
            let scale = match scale_tag {
                0 => 1e-40f32, // subnormal: 1/scale overflows to infinity
                1 => 1e30,
                2 => 0.125,
                _ => 3.7,
            };
            for levels in [127.0f32, 7.0] {
                let run = |simd: bool| {
                    let mut rng = StochasticRng::from_seed(seed);
                    let mut body = vec![0u8; params.len()];
                    if levels > 7.0 {
                        encode_u8_with(&params, scale, levels, &mut rng, &mut body, simd);
                    } else {
                        body.truncate(params.len().div_ceil(2));
                        encode_u4_with(&params, scale, levels, &mut rng, &mut body, simd);
                    }
                    body
                };
                let scalar_bytes = run(false);
                let simd_bytes = run(true);
                let simd_again = run(true);
                prop_assert_eq!(&scalar_bytes, &simd_bytes);
                prop_assert_eq!(&simd_bytes, &simd_again);
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
    }

    /// `fill_in_registers` against `fill`: the words and the position after.
    fn check_in_register_draws(seed: u64, len: usize) -> Result<(), String> {
        let mut reference = StochasticRng::from_seed(seed);
        let mut expected = vec![0u32; len];
        reference.fill(&mut expected);
        #[cfg(target_arch = "x86_64")]
        if avx2_testable() {
            let mut rng = StochasticRng::from_seed(seed);
            let mut words = vec![0u32; len];
            // SAFETY: AVX2 was detected just above.
            unsafe { avx2::fill_in_registers(&mut rng, &mut words) };
            prop_assert_eq!(&words, &expected, "seed {:#x} len {}", seed, len);
            prop_assert_eq!(next_words(&rng), next_words(&reference), "position");
        }
        Ok(())
    }

    /// The lengths where a block-at-a-time draw could go wrong: one short
    /// of, at, and one past `RAND_BLOCK`, and an odd length spanning two
    /// blocks (the half-draw is discarded once, at the very end).
    #[test]
    fn stochastic_kernels_hold_around_the_block_length() {
        for (len, seed) in [(4095, 1u64), (4096, 2), (4097, 3), (8191, u64::MAX - 4)] {
            check_in_register_draws(seed, len).unwrap();
            let params = long_params(len, seed);
            check_stochastic_kernels(&params, 0.004, seed).unwrap();
            check_add_max(&params, &long_params(len, seed ^ 7)).unwrap();
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
            let scalar_body = topk_body(&params, kept, false);
            assert_eq!(scalar_body.len(), kept * 8);
            if avx2_testable() {
                assert_eq!(topk_body(&params, kept, true), scalar_body, "kept {kept}");
            }
        }
        let indices = |body: &[u8]| -> Vec<u32> {
            body.chunks_exact(8)
                .map(|pair| u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]))
                .collect()
        };
        // The payload-carrying NaN has the largest key, then the two default
        // NaNs (lower index first), then the infinities, then `f32::MAX`.
        assert_eq!(indices(&topk_body(&params, 1, false)), [7]);
        assert_eq!(indices(&topk_body(&params, 2, false)), [1, 7]);
        assert_eq!(indices(&topk_body(&params, 3, false)), [1, 4, 7]);
        assert_eq!(indices(&topk_body(&params, 6, false)), [1, 3, 4, 6, 7, 10]);
    }
}
