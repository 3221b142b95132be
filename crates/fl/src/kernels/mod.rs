//! Runtime-dispatched SIMD kernels for the codec, aggregation and local
//! training hot paths. A mini-batch of softmax regression is four kernels:
//! `class_lanes` (the weight block transposed, 8 × 8 register blocks),
//! `logits` per sample and `outer_accumulate` (the gradient) per batch, each
//! keeping its output tile in registers across its reduction loop, and
//! `softmax_rows` over the batch's logit rows, on an in-repo `expf`. Every
//! element is summed in the row-major trainer's order, multiply then add,
//! and every exponential is `expf`'s bits, so the trainer's bits are the
//! same on every arm.
//!
//! # Dispatch strategy
//!
//! Every kernel has a scalar reference in `scalar.rs` (the semantic ground
//! truth) and an AVX2 implementation in `avx2.rs` (x86-64 only); the
//! `Uniform8` stochastic encoders and the trainer's two passes have a
//! third, 16-lane arm in `avx512.rs`. Each arm is one `Kernels` table, a
//! function pointer per kernel: `SCALAR`, `AVX2` (x86-64 only), and
//! `AVX512`, which is `AVX2` with those four kernels replaced. Which table
//! runs is decided **once per process**: the first call checks the
//! `LIFL_FORCE_SCALAR` environment variable and `is_x86_feature_detected!`,
//! then caches a reference to the table in a `OnceLock`, so steady-state
//! dispatch is one indirect call through a loaded pointer. The widest table
//! the host runs wins: `AVX512` when CPUID reports `avx2`, `fma`, `avx512f`
//! and `avx512dq`, else `AVX2` when it reports `avx2` and `fma` (the
//! softmax's exponential fuses its multiply-adds), else `SCALAR`. Setting `LIFL_FORCE_SCALAR` to any value
//! other than empty or `0` forces `SCALAR` (CI runs the integration and
//! fault tiers both ways). [`active_kernel_arm`] names the table.
//!
//! A codec's kernels are its encoders and its fold; it has no decode arm.
//! Decode is the fold into zeros (`0.0 + level * (1.0 * scale)` is
//! `level * scale` bit for bit, but for a `-0.0` product, which becomes
//! `+0.0`), so the codec layer decodes a quantized body by folding it at
//! weight 1 into a zeroed buffer. The two decodes that must keep every bit
//! of a stored value, the dense copy [`decode_dense_le`] and the top-k
//! scatter [`decode_topk`], are plain scalar calls with no table entry, as
//! [`fold_topk`] is.
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
//! of this module call every table the host can run in one process and
//! compare outputs bitwise across odd lengths, sub-lane remainders and
//! non-finite inputs.
//!
//! Bit-exactness is achievable because every kernel restricts itself to
//! exactly-rounded elementwise IEEE-754 operations (multiply, add, subtract,
//! divide, floor, compare, min/max, and the fused multiply-add) in the same
//! order on every arm. A fused multiply-add is one rounding and a multiply
//! then add is two, so an arm multiplies then adds wherever the scalar
//! reference does. The one exception is `expf`'s f64 steps, which the AVX2
//! arm fuses as glibc does while the scalar `expf` reaches the same bits
//! unfused (its rustdoc says how; an exhaustive test checks it). The
//! codec's divisions are hoisted into a single reciprocal computed
//! identically by every arm. See `avx2.rs` for the instruction-level
//! argument. Which payload an add or multiply of two NaNs returns is left
//! open, though: the hardware returns its first operand's, and the compiler
//! may swap the operands of either arm. So the dense fold, whose weights, sources and
//! accumulator can all be NaN, stores every NaN it produces as the
//! canonical quiet NaN ([`f32::NAN`]) on both arms. The trainer's kernels
//! leave a NaN's payload open instead: nothing reads it, and their parity
//! tests compare a NaN lane as NaN.
//!
//! # How to add a kernel
//!
//! 1. Write the scalar reference in `scalar.rs`, using only exactly-rounded
//!    elementwise operations if a vector arm is planned.
//! 2. Write the AVX2 arm in `avx2.rs` mirroring the scalar operation
//!    sequence, and delegate the sub-lane-width tail to the scalar function.
//! 3. Add a field to `Kernels`, then one entry per table: `SCALAR` and
//!    `AVX2` (`AVX512` takes `AVX2`'s unless it names its own). The compiler
//!    names what is missing: a table without the entry (E0063), an entry
//!    whose signature drifted (E0308), an arm function no table holds
//!    (`function is never used`) and a field no entry point calls (`field
//!    is never read`).
//! 4. Add a public wrapper here that cuts the slices to their common prefix
//!    and calls `(active().field)(..)`.
//! 5. Add a proptest below running the field of every table in `arms()`
//!    against the scalar reference, bitwise, over odd lengths and non-finite
//!    inputs. Two entries of one signature swapped in a table compile; this
//!    test is what catches them.
//!
//! A new codec adds its encode and fold arms this way, and no decode arm:
//! the codec layer decodes it by folding into zeros. A kernel that needs an
//! exponential calls `expf` on the scalar arm and the vector form of it
//! (`exp8` in `avx2.rs`), never libm's `f32::exp`, whose bits differ by
//! host.
//!
//! A kernel that consumes rounding words additionally follows "How to add a
//! stochastic kernel" in `avx2.rs`: the scalar arm draws through `fill`, the
//! vector arms draw in registers, and every arm leaves the generator where
//! `fill` of the element count would. An AVX-512 arm is added the same way,
//! in `avx512.rs` and as an entry of `AVX512`, for a kernel whose AVX2 arm
//! is bound by what AVX-512 adds (the `Uniform8` encoders: 64-bit
//! multiplies; the trainer's passes: twice the lanes per load, and twice
//! the registers to hold a gradient tile of two classes) — and only when it
//! measures faster than AVX2 end to end on the host.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod lend;
mod scalar;

pub use lend::{Lent, RangeLease};

use lifl_shmem::BufferPool;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// Number of elements whose random rounding words the scalar arm of the
/// stochastic encoders draws per block. Even, so the nibble pairing of
/// `Uniform4` stays aligned and no half-draw is discarded across block
/// boundaries, and small enough for a stack buffer.
const RAND_BLOCK: usize = 4096;

/// One arm of every kernel that differs by arm: a function pointer per
/// kernel, and the arm's name in logs and benchmark reports.
///
/// # Safety
///
/// Every entry is `unsafe` to call. The table must be one the host runs:
/// [`active`] and the proptests' `arms()` are the only ways to a table, and
/// both hand one out only after CPUID reported its features. The arguments
/// must meet the entry's length contract (its `SAFETY` comment), which the
/// vector arms rely on for their raw loads and stores.
// Each field spells out its kernel's signature, which every table's entry
// must match exactly.
#[allow(clippy::type_complexity)]
struct Kernels {
    /// `"scalar"`, `"avx2"` or `"avx512"`.
    name: &'static str,
    // SAFETY: sources and weights pair up, every source covering
    // `4 * acc.len()` bytes.
    fold_dense_le_n: unsafe fn(&mut [f32], &[&[u8]], &[f32], Pass),
    // SAFETY: sources and factors pair up, every source covering
    // `acc.len()` levels.
    fold_u8_n: unsafe fn(&mut [f32], &[&[u8]], &[f32], Pass),
    // SAFETY: element `j` of `acc` is nibble `j` of the nibbles, which
    // cover `acc.len()` nibbles.
    fold_u4_aligned: unsafe fn(&mut [f32], &[u8], f32),
    // SAFETY: the CPU features alone.
    magnitude_histogram: unsafe fn(Keys<'_>, u32, u32, u32, &mut [u32; TOPK_BINS]),
    // SAFETY: the CPU features alone; the vector arm checks `body`'s
    // capacity itself.
    compact_topk: unsafe fn(&[f32], u32, u32, usize, &mut Vec<u8>, usize) -> Option<usize>,
    // SAFETY: the CPU features alone.
    compact_pairs: unsafe fn(&mut [u8], u32, usize) -> usize,
    // SAFETY: `src` is at least as long as `acc`.
    add_compact_topk: unsafe fn(&mut [f32], &[f32], u32, u32, &mut Vec<u8>, usize) -> bool,
    // SAFETY: the CPU features alone.
    max_abs_finite: unsafe fn(&[f32]) -> f32,
    // SAFETY: `src` is at least as long as `acc`.
    add_max: unsafe fn(&mut [f32], &[f32]) -> f32,
    // SAFETY: of `(params, 1 / scale, levels, rng, body)`, `body` holds
    // `params.len()` bytes, which the arm writes every one of without
    // reading any.
    encode_u8: unsafe fn(&[f32], f32, f32, &mut StochasticRng, &mut Spare),
    // SAFETY: as `encode_u8`, `body` holding `params.len().div_ceil(2)`
    // bytes.
    encode_u4: unsafe fn(&[f32], f32, f32, &mut StochasticRng, &mut Spare),
    // SAFETY: of `(residual, 1 / scale, -scale, levels, rng, body)`, `body`
    // holds `residual.len()` bytes, which the arm writes every one of
    // before it reads any.
    feedback_append_u8: unsafe fn(&mut [f32], f32, f32, f32, &mut StochasticRng, &mut Spare),
    // SAFETY: as `feedback_append_u8`, `body` holding
    // `residual.len().div_ceil(2)` bytes.
    feedback_append_u4: unsafe fn(&mut [f32], f32, f32, f32, &mut StochasticRng, &mut Spare),
    // SAFETY: of `(wt, x, out)`, `wt` holds `x.len()` rows of `out.len()`.
    logits: unsafe fn(&[f32], &[f32], &mut [f32]),
    // SAFETY: of `(weights, bias, err, stride, xs)`, `bias` is not empty,
    // `weights.len()` is a multiple of `bias.len()`, and `err` holds
    // `xs.len()` rows of `stride >= bias.len()`.
    outer_accumulate: unsafe fn(&mut [f32], &mut [f32], &[f32], usize, &[&[f32]]),
    // SAFETY: of `(rows, classes, stride)`, `rows.len()` is a multiple of
    // `stride >= classes`.
    softmax_rows: unsafe fn(&mut [f32], usize, usize),
    // SAFETY: of `(w, features, wt)`, `features` is not zero, `w` holds `k`
    // rows of `features` and `wt` `features` rows of `kp >=
    // k.next_multiple_of(CLASS_LANES)` lanes, lanes `k..kp` zero.
    class_lanes: unsafe fn(&[f32], usize, &mut [f32]),
}

/// The spare capacity of a wire body, as a stochastic encoder arm is handed
/// it: bytes nobody zero-filled, which the arm writes every one of before it
/// reads any.
type Spare = [MaybeUninit<u8>];

/// The scalar references, `scalar.rs`: every host runs them.
static SCALAR: Kernels = Kernels {
    name: "scalar",
    fold_dense_le_n: scalar::fold_dense_le_n,
    fold_u8_n: scalar::fold_u8_n,
    fold_u4_aligned: scalar::fold_u4_aligned,
    magnitude_histogram: scalar::magnitude_histogram,
    compact_topk: scalar::compact_topk,
    compact_pairs: scalar::compact_pairs,
    add_compact_topk: scalar::add_compact_topk,
    max_abs_finite: scalar::max_abs_finite,
    add_max: scalar::add_max,
    encode_u8: scalar::encode_u8,
    encode_u4: scalar::encode_u4,
    feedback_append_u8: scalar::feedback_append_u8,
    feedback_append_u4: scalar::feedback_append_u4,
    logits: scalar::logits,
    outer_accumulate: scalar::outer_accumulate,
    softmax_rows: scalar::softmax_rows,
    class_lanes: scalar::class_lanes,
};

/// `avx2.rs` for every kernel: hosts whose CPUID reports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    name: "avx2",
    fold_dense_le_n: avx2::fold_dense_le_n,
    fold_u8_n: avx2::fold_u8_n,
    fold_u4_aligned: avx2::fold_u4_aligned,
    magnitude_histogram: avx2::magnitude_histogram,
    compact_topk: avx2::compact_topk,
    compact_pairs: avx2::compact_pairs,
    add_compact_topk: avx2::add_compact_topk,
    max_abs_finite: avx2::max_abs_finite,
    add_max: avx2::add_max,
    encode_u8: avx2::encode_u8,
    encode_u4: avx2::encode_u4,
    feedback_append_u8: avx2::feedback_append_u8,
    feedback_append_u4: avx2::feedback_append_u4,
    logits: avx2::logits,
    outer_accumulate: avx2::outer_accumulate,
    softmax_rows: avx2::softmax_rows,
    class_lanes: avx2::class_lanes,
};

/// `avx512.rs` for the `Uniform8` stochastic encoders and the trainer's two
/// passes, `avx2.rs` for every other kernel: hosts whose
/// CPUID reports `avx2`, `fma`, `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    name: "avx512",
    encode_u8: avx512::encode_u8,
    feedback_append_u8: avx512::feedback_append_u8,
    logits: avx512::logits,
    outer_accumulate: avx512::outer_accumulate,
    ..AVX2
};

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// True when `LIFL_FORCE_SCALAR` requests the scalar arm: set to anything
/// except the empty string or `0`.
fn scalar_forced(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// The widest table this host's CPU runs: it runs every narrower one too.
/// `AVX2` (and so `AVX512`, built on it) needs `fma` beside `avx2`: its
/// [`softmax_rows`] arm runs [`expf`]'s fused multiply-adds.
fn widest() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            return if has!("avx512f") && has!("avx512dq") {
                &AVX512
            } else {
                &AVX2
            };
        }
    }
    &SCALAR
}

/// The table every kernel call goes through. Decided once per process:
/// `SCALAR` when `LIFL_FORCE_SCALAR` is set (to anything except empty or
/// `0`), the widest table the host runs otherwise.
fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        let force = std::env::var("LIFL_FORCE_SCALAR").ok();
        if scalar_forced(force.as_deref()) {
            &SCALAR
        } else {
            widest()
        }
    })
}

/// Human-readable name of the active arm, for logs and benchmark reports:
/// `"avx512"` while the 16-lane `Uniform8` encoders and trainer passes run,
/// `"avx2"`, or `"scalar"`.
pub fn active_kernel_arm() -> &'static str {
    active().name
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
/// generator where it found it.
///
/// # Keyed streams
///
/// The engine's encodes share no stream: each starts a fresh generator at
/// [`StochasticRng::keyed`] of its own key — a client encode at (codec
/// seed, client, that client's encode count), a station encode at
/// (position, round) — fixed when the encode is created. So encodes run
/// on any thread in any order write the same bytes, and no two encodes of
/// one ingress or one station share a key (Salmon et al.,
/// "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
#[derive(Debug, Clone)]
pub struct StochasticRng {
    state: u64,
}

impl StochasticRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        StochasticRng { state: seed }
    }

    /// The generator keyed by `key`: its start is splitmix64's mix chained
    /// over the key's words in order, so it depends on every word and on
    /// their order, and keys that differ only in their last word never
    /// share a start (the mix is a bijection). Two distinct keys' streams
    /// of `n` draws overlap with probability about `2n / 2^64`.
    pub fn keyed(key: &[u64]) -> Self {
        let state = key.iter().fold(
            0,
            |h: u64, &word| mix(h.wrapping_add(SPLITMIX_GAMMA) ^ word),
        );
        StochasticRng { state }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // splitmix64: a full-period mix of an additive counter. Cheap,
        // statistically solid for rounding thresholds, and trivially
        // deterministic across arms.
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        mix(self.state)
    }

    /// Moves the generator past `draws` 64-bit draws without computing them:
    /// how an arm that drew in registers leaves the position `fill` defines.
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

/// splitmix64's output mix: a bijection on `u64`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(SPLITMIX_MUL1);
    z = (z ^ (z >> 27)).wrapping_mul(SPLITMIX_MUL2);
    z ^ (z >> 31)
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
/// (`Bytes::from_owner(DenseLe::pooled(values, pool))`), so the stored object
/// *is* the vector its producer wrote — no encode pass, no second buffer.
/// When the store recycles the object and the last handle is gone, the
/// vector is checked in to its [`BufferPool`], on whichever thread that
/// happens: an aggregator's accumulator comes home, so the next round's is
/// the same warm memory and not a fresh page-faulting one, and a client's
/// vector a session's gateway stored is kept only while the pool is owed a
/// buffer (the model a drive handed out) and freed otherwise.
#[derive(Debug)]
pub struct DenseLe {
    values: Vec<f32>,
    home: BufferPool,
}

impl DenseLe {
    /// Takes ownership of `values`; dropping the owner checks them in to
    /// `pool`, which keeps them if it is owed a buffer and frees them
    /// otherwise (its conservation rule).
    pub fn pooled(values: Vec<f32>, pool: &BufferPool) -> Self {
        DenseLe {
            values,
            home: pool.clone(),
        }
    }
}

impl Drop for DenseLe {
    fn drop(&mut self) {
        self.home.checkin_f32(std::mem::take(&mut self.values));
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

/// What one accumulator pass of [`fold_dense_le_n`] or [`fold_u8_n`] does
/// besides its adds: where every lane starts, and whether it is scaled
/// before it is stored. Both choices are made inside the one loop of each
/// arm; [`Pass::ADD`] is the plain load-add-store fold.
///
/// A station writes its accumulator once per round this way: its first pass
/// starts from zeros held in registers instead of a zero-filled buffer, and
/// the pass that completes the round stores the average instead of leaving
/// `DenseModel::scale` another walk over the sum.
///
/// A fresh pass still stores with plain stores, so each accumulator line is
/// read once before it is overwritten (write-allocate). Non-temporal stores
/// would skip that read but send the sum past the caches its next-level
/// reader reads it from; in a kernel-only replay of a `dense_session` round
/// on two vCPUs (KVM Intel Xeon, family 6, model 207) the leaf level with
/// non-temporal fresh stores read 3.78–3.86 ms against 3.82–3.89 ms with
/// plain ones over repeated runs: no resolved gain, so the arms keep plain
/// stores.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// The accumulator holds nothing yet (a pooled buffer keeps whatever an
    /// earlier round left in it): every lane starts from `+0.0` in a register
    /// and is never loaded. `+0.0 + w * s` is the very add a zero-filled
    /// accumulator gets, so every bit is the same, and a `-0.0` product
    /// still becomes `+0.0`.
    pub fresh: bool,
    /// The round's factor `1.0 / total as f32`, multiplied into every lane
    /// after its last add and before the store: the multiply
    /// `DenseModel::scale` applies after the last add, bit for bit.
    pub scale: Option<f32>,
}

impl Pass {
    /// Load every lane, add, store: a pass into a sum some earlier pass
    /// wrote, which is not the round's last.
    pub const ADD: Pass = Pass {
        fresh: false,
        scale: None,
    };
}

/// Fused fold of dense little-endian `f32` payloads over their common prefix
/// with `acc`: `acc += w_0 * s_0 + w_1 * s_1 + …`, source `k` weighted by
/// `weights[k]` (sources past the shorter of the two lists are ignored),
/// each lane starting and ending as `pass` says.
///
/// Each element of `acc` is loaded once (never, on a fresh pass) and stored
/// once, the adds chained in source order in between, and a NaN sum is
/// stored as [`f32::NAN`] — so the result is, bit for bit, that of folding
/// each source in turn ([`fold_dense_le`] once per source) into the
/// accumulator (into zeros, on a fresh pass) and then, with a scale,
/// multiplying every element by it, on either arm. On a fresh pass the
/// elements past the common prefix are zeroed, so nothing the buffer held
/// before survives. The AVX2 arm takes up to eight sources per call (more
/// fold on the scalar arm). This is the one dense fold kernel: the station
/// fold hands it up to eight consecutive dense views per accumulator block,
/// and [`fold_dense_le`], [`axpy`] and [`axpy8`] are its one- and
/// eight-source [`Pass::ADD`] cases.
pub fn fold_dense_le_n(acc: &mut [f32], srcs: &[&[u8]], weights: &[f32], pass: Pass) {
    let count = srcs.len().min(weights.len());
    let n = srcs.iter().fold(acc.len(), |n, src| n.min(src.len() / 4));
    let (acc, rest) = acc.split_at_mut(n);
    // SAFETY: the active table passed its CPUID check; `acc` is cut to what
    // every source covers and the weights are paired with the sources.
    unsafe { (active().fold_dense_le_n)(acc, &srcs[..count], &weights[..count], pass) };
    if pass.fresh {
        rest.fill(0.0);
    }
}

/// Fused fold of one dense little-endian `f32` payload, `acc += weight *
/// body` over the common prefix: [`fold_dense_le_n`] with one source.
pub fn fold_dense_le(acc: &mut [f32], body: &[u8], weight: f32) {
    fold_dense_le_n(acc, &[body], &[weight], Pass::ADD);
}

/// Copy of a dense little-endian `f32` payload into `out` over their common
/// prefix, every bit pattern kept (`-0.0` and NaN payloads included, which a
/// fold into zeros would not keep). A plain copy gains nothing from a vector
/// arm, so every arm runs the scalar routine and no table holds it.
pub fn decode_dense_le(out: &mut [f32], body: &[u8]) {
    scalar::decode_dense_le(out, body);
}

/// Fused fold of `Uniform8` level sources over their common prefix with
/// `acc`: `acc[i] += f32(l_0[i] as i8) * k_0 + f32(l_1[i] as i8) * k_1 + …`,
/// source `k` scaled by `ks[k]`, the pre-multiplied `weight * scale`
/// (sources past the shorter of the two lists are ignored), each lane
/// starting and ending as `pass` says.
///
/// Each element of `acc` is loaded once (never, on a fresh pass) and stored
/// once, the adds chained in source order in between, so the result is, bit
/// for bit, that of folding each source in turn ([`fold_u8`] once per
/// source) into the accumulator (into zeros, on a fresh pass) and then, with
/// a scale, multiplying every element by it, on either arm — but for the
/// payload of a NaN accumulator lane an infinite factor reaches, which is
/// unpinned (a fresh pass loads no such lane). On a fresh pass the elements
/// past the common prefix are zeroed. The AVX2 arm takes up to eight sources
/// per call (more fold on the scalar arm); the station fold hands it each
/// run of up to eight consecutive `Uniform8` views.
pub fn fold_u8_n(acc: &mut [f32], srcs: &[&[u8]], ks: &[f32], pass: Pass) {
    let count = srcs.len().min(ks.len());
    let n = srcs.iter().fold(acc.len(), |n, src| n.min(src.len()));
    let (acc, rest) = acc.split_at_mut(n);
    // SAFETY: the active table passed its CPUID check; `acc` is cut to what
    // every source covers and the factors are paired with the sources.
    unsafe { (active().fold_u8_n)(acc, &srcs[..count], &ks[..count], pass) };
    if pass.fresh {
        rest.fill(0.0);
    }
}

/// Fused fold of `Uniform8` levels: `acc[i] += f32(levels[i] as i8) * k`,
/// where `k` is the pre-multiplied `weight * scale`: [`fold_u8_n`] with one
/// source.
pub fn fold_u8(acc: &mut [f32], levels: &[u8], k: f32) {
    fold_u8_n(acc, &[levels], &[k], Pass::ADD);
}

/// Fused fold of packed `Uniform4` nibbles starting at element offset
/// `start` within `body` (low nibble first within each byte): folds
/// `acc.len()` elements beginning at that offset, and nothing past the end
/// of `body`. An odd `start` peels one high nibble scalar-side, then every
/// arm runs even-aligned.
pub fn fold_u4(acc: &mut [f32], body: &[u8], start: usize, k: f32) {
    let (acc, nibbles) = align_u4(acc, body, start, k);
    // SAFETY: the active table passed its CPUID check; `align_u4` cut `acc`
    // to the nibbles it returns, element `j` being nibble `j`.
    unsafe { (active().fold_u4_aligned)(acc, nibbles, k) };
}

/// The part of [`fold_u4`] before the vector arm: at an odd `start`, folds
/// the high nibble of byte `start / 2` into `acc[0]`, then returns the
/// rest of `acc`, cut to the nibbles left in `body`, and those nibbles,
/// element `j` of the one being nibble `j` of the other.
fn align_u4<'a>(
    acc: &'a mut [f32],
    body: &'a [u8],
    start: usize,
    k: f32,
) -> (&'a mut [f32], &'a [u8]) {
    let nibbles = body.get(start / 2..).unwrap_or_default();
    let (acc, nibbles) = match (start % 2, acc, nibbles) {
        (1, [first, rest @ ..], [byte, tail @ ..]) => {
            *first += scalar::NIBBLE_F32[(byte >> 4) as usize] * k;
            (rest, tail)
        }
        // Already even-aligned, or nothing of `acc` or `body` left.
        (_, acc, nibbles) => (acc, nibbles),
    };
    let n = acc.len().min(nibbles.len().saturating_mul(2));
    (&mut acc[..n], nibbles)
}

/// Fold of `TopK` `(u32 index, f32 value)` pairs whose index falls in
/// `[start, end)` into `acc` (indexed relative to `start`); `end` is cut to
/// `start + acc.len()`, so pairs past `acc` fold nothing. A sparse scatter
/// gains nothing from vectorization, so every arm runs the scalar routine
/// and no table holds it; it lives here so every codec fold goes through
/// one layer.
pub fn fold_topk(acc: &mut [f32], pairs: &[u8], start: usize, end: usize, weight: f32) {
    let end = end.min(start.saturating_add(acc.len()));
    scalar::fold_topk(acc, pairs, start, end, weight);
}

/// Scatter of `TopK` pairs into `out`, which holds zeros: each value is
/// written as it is, so a kept `-0.0` stays `-0.0` where a fold would add
/// it to `+0.0`. Pairs past `out` are skipped. Scalar on every arm, like
/// [`fold_topk`].
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
    active().append_topk(params, kept, body);
}

/// The error-feedback form of [`append_topk`]: adds `src` into `acc`
/// (`acc += 1.0 * src`, bit for bit [`axpy`]'s sums) and appends the top-k
/// pairs of the sums, with the add fused into the collect sweep — so a
/// compensate-and-select makes one full-length sweep over the model, not
/// the four of an [`axpy`] followed by [`append_topk`]'s whole-vector cut.
/// The sample computes the same sums at its positions first.
pub(crate) fn add_append_topk(acc: &mut [f32], src: &[f32], kept: usize, body: &mut Vec<u8>) {
    active().add_append_topk(acc, src, kept, body);
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

/// The composed top-k selection, each step on this table's kernels.
impl Kernels {
    /// [`append_topk`].
    fn append_topk(&self, params: &[f32], kept: usize, body: &mut Vec<u8>) {
        let kept = kept.min(params.len());
        if kept == 0 {
            return;
        }
        let (start, limit) = reserve_topk(body, params.len(), kept);
        let floor = self.candidate_floor(params.len(), kept, |i| params[i]);
        // SAFETY: `self` passed its CPUID check (see [`Kernels`]).
        let collected = floor.is_some_and(|floor| unsafe {
            (self.compact_topk)(params, 0, floor, usize::MAX, body, limit).is_some()
        });
        self.cut_topk(params, kept, start, collected, body, limit);
    }

    /// [`add_append_topk`].
    fn add_append_topk(&self, acc: &mut [f32], src: &[f32], kept: usize, body: &mut Vec<u8>) {
        let src = &src[..acc.len()];
        let kept = kept.min(acc.len());
        let (start, limit) = reserve_topk(body, acc.len(), kept);
        let sum = |i: usize| canonical(acc[i] + 1.0 * src[i]);
        let collected = match self.candidate_floor(acc.len(), kept, sum) {
            // SAFETY: `self` passed its CPUID check (see [`Kernels`]), and
            // `src` is cut to `acc`'s length.
            Some(floor) => unsafe { (self.add_compact_topk)(acc, src, 0, floor, body, limit) },
            None => {
                axpy(acc, src, 1.0);
                false
            }
        };
        if kept > 0 {
            self.cut_topk(acc, kept, start, collected, body, limit);
        }
    }

    /// Step 1 of [`append_topk`]: `t_lo`, the key of rank `expected +
    /// expected / TOPK_SAMPLE_MARGIN` of a strided sample of the `dim`
    /// values `value` yields, or `None` when no run applies or the sample
    /// could not reject a single element.
    fn candidate_floor(
        &self,
        dim: usize,
        kept: usize,
        value: impl Fn(usize) -> f32,
    ) -> Option<u32> {
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
        Some(self.topk_cut(Keys::Dense(&sample[..n]), rank).0)
    }

    /// Steps 3 and 4 of [`append_topk`], behind the candidate run collected
    /// at `body[start..]` (when `collected`) from `params`: the exact cut
    /// over the run if it holds at least `kept` pairs, over the whole of
    /// `params` otherwise.
    fn cut_topk(
        &self,
        params: &[f32],
        kept: usize,
        start: usize,
        collected: bool,
        body: &mut Vec<u8>,
        limit: usize,
    ) {
        if collected && body.len() - start >= 8 * kept {
            let run = &mut body[start..];
            let (threshold, ties) = self.topk_cut(Keys::Pairs(run), kept);
            // SAFETY: `self` passed its CPUID check (see [`Kernels`]).
            let kept_bytes = unsafe { (self.compact_pairs)(run, threshold, ties) };
            body.truncate(start + kept_bytes);
            return;
        }
        body.truncate(start);
        let (threshold, ties) = self.topk_cut(Keys::Dense(params), kept);
        // Exactly `kept` pairs, which `limit` always has room for.
        // SAFETY: `self` passed its CPUID check (see [`Kernels`]).
        let _ = unsafe { (self.compact_topk)(params, 0, threshold, ties, body, limit) };
    }

    /// The cut of an exact top-`kept` selection over `keys` (`1 <= kept <=`
    /// the key count): `(threshold, ties)` such that the selection is every
    /// key above `threshold` plus the first `ties`, in order, at it.
    fn topk_cut(&self, keys: Keys<'_>, kept: usize) -> (u32, usize) {
        let (mut prefix, mut ties) = (0u32, kept);
        for (hi, lo) in TOPK_LEVELS {
            let mut counts = [0u32; TOPK_BINS];
            // SAFETY: `self` passed its CPUID check (see [`Kernels`]).
            unsafe { (self.magnitude_histogram)(keys, prefix, hi, lo, &mut counts) };
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
}

// ---------------------------------------------------------------------------
// Dense axpy family (model accumulation).
// ---------------------------------------------------------------------------

/// `acc += w * src`, elementwise over the common prefix: [`fold_dense_le_n`]
/// with one source, viewed in place as its little-endian bytes.
pub fn axpy(acc: &mut [f32], src: &[f32], w: f32) {
    fold_dense_le_n(acc, &[le_bytes(src)], &[w], Pass::ADD);
}

/// Eight-source fold over the common prefix of `acc` and every source,
/// bit-identical to eight sequential [`axpy`] passes: [`fold_dense_le_n`]
/// with eight sources, viewed in place as their little-endian bytes. The
/// station fold reaches the same kernel through runs of dense views; the
/// whole-round benchmark times this entry point as the kernel layer's
/// dense-throughput reference (`kernels.axpy8_gbps`).
pub fn axpy8(acc: &mut [f32], srcs: [&[f32]; 8], w: [f32; 8]) {
    fold_dense_le_n(acc, &srcs.map(le_bytes), &w, Pass::ADD);
}

/// Largest finite `|x|` in `params`, or 0 when there is none (used to derive
/// quantization scales). Exact on both arms because `max` over non-negative
/// finite values is order-independent.
pub fn max_abs_finite(params: &[f32]) -> f32 {
    // SAFETY: the active table passed its CPUID check.
    unsafe { (active().max_abs_finite)(params) }
}

/// `acc += 1.0 * src` over the common prefix — the same multiply-then-add,
/// bit for bit, as [`axpy`] with weight 1 on every sum that is not NaN (a
/// NaN sum is left as the add produced it) — returning the largest finite
/// `|x|` of the sums (0 when there is none) from the same sweep: what
/// [`max_abs_finite`] would find in `acc[..n]` afterwards, without walking
/// it again.
pub fn add_max(acc: &mut [f32], src: &[f32]) -> f32 {
    let n = acc.len().min(src.len());
    // SAFETY: the active table passed its CPUID check; both slices are cut
    // to one length.
    unsafe { (active().add_max)(&mut acc[..n], &src[..n]) }
}

// ---------------------------------------------------------------------------
// Softmax regression: the local trainer's kernels.
// ---------------------------------------------------------------------------

/// The lane width a transposed weight block pads its class rows to: the
/// trainer stores `W` as `features` rows of `classes.next_multiple_of(8)`
/// lanes, the padding zero, so every [`logits`] tile of the vector arms is
/// whole.
pub(crate) const CLASS_LANES: usize = 8;

/// Class logits of one sample over a transposed weight block `wt` of
/// `kp = out.len()` lanes per row: `out[c] = -0.0 + Σ_j wt[j·kp + c]·x[j]`
/// for every lane `c`, the products added in feature order over the common
/// prefix of `x` and `wt`'s rows. Each lane is one chain of adds the
/// compiler may not reassociate; the vector arms hold a tile of lanes in
/// registers for the whole feature loop and advance its chains side by
/// side, multiply then add, never FMA — so every arm's logit is the
/// row-major `Σ_j W[c][j]·x[j]` bit for bit. A NaN logit's payload is not
/// pinned (the arms may commute a multiply's operands); the parity tests
/// compare NaN lanes as NaN.
pub(crate) fn logits(wt: &[f32], x: &[f32], out: &mut [f32]) {
    let Some(rows) = wt.len().checked_div(out.len()) else {
        return;
    };
    let f = x.len().min(rows);
    // SAFETY: the active table passed its CPUID check; `wt` is cut to `f`
    // rows of `out.len()`, `x` to `f` features.
    unsafe { (active().logits)(&wt[..f * out.len()], &x[..f], out) }
}

/// The gradient of one softmax-regression mini-batch, written fresh (nothing
/// is read from `weights` or `bias`): for every class `c < k = bias.len()`
/// and feature `j < f = weights.len() / k`,
/// `weights[c·f + j] = +0.0 + Σ_s err[s·stride + c]·x_s[j]` and
/// `bias[c] = +0.0 + Σ_s err[s·stride + c]`, the terms added in sample
/// order — the per-sample `grad += err ⊗ x` loop's bits, one outer product
/// per sample. The samples are the common prefix of `xs` and `err`'s rows;
/// a sample shorter than `f` adds nothing to the features it lacks. The
/// vector arms hold a 64-feature tile of one class (two on AVX-512) in
/// registers across the batch, multiply then add, never FMA; a NaN's
/// payload is not pinned, as in [`logits`].
pub(crate) fn outer_accumulate(
    weights: &mut [f32],
    bias: &mut [f32],
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    let k = bias.len();
    if k == 0 || stride < k {
        return;
    }
    let samples = xs.len().min(err.len() / stride);
    let f = weights.len() / k;
    // SAFETY: the active table passed its CPUID check; `bias` is not empty,
    // `weights` is cut to `k` rows of `f`, and `err` covers `samples` rows
    // of `stride >= k`.
    unsafe { (active().outer_accumulate)(&mut weights[..k * f], bias, err, stride, &xs[..samples]) }
}

/// The softmax of every row in place: for each `stride`-lane row of `rows`
/// (a trailing partial row is left alone), over its first `classes` lanes,
/// `p[c] = e[c] / sum` with `e[c] = expf(l[c] − max)`, `max` the row's
/// largest logit with NaN ignored (the `f32::max` fold from −∞) and `sum`
/// one chain of adds in class order from `-0.0` (the identity `Sum for f32`
/// starts from). The row's largest logit contributes `expf(0) = 1`, so the
/// sum is at least 1 — or NaN, which then reaches every probability. Lanes
/// `classes..stride` are not touched. Every arm computes [`expf`]'s bits
/// (the vector arms in f64 lanes, a special input on the scalar path) and
/// divides by the sum exactly; the vector arms advance several rows' sum
/// chains side by side. A NaN's payload is not pinned, as in [`logits`].
pub(crate) fn softmax_rows(rows: &mut [f32], classes: usize, stride: usize) {
    if classes == 0 || stride < classes {
        return;
    }
    let whole = rows.len() / stride * stride;
    // SAFETY: the active table passed its CPUID check; `rows` is cut to
    // whole rows of `stride >= classes`.
    unsafe { (active().softmax_rows)(&mut rows[..whole], classes, stride) }
}

/// `w`'s `k × features` row-major weight block transposed into class lanes:
/// `wt[j·kp + c] = w[c·features + j]` for every class `c < k` and feature
/// `j`, with `k = w.len() / features` and `kp = wt.len() / features`. Lanes
/// `k..kp` of every row must be zero and stay zero; a block whose `kp` is
/// below `k.next_multiple_of(CLASS_LANES)`, or that has no features, is
/// left as it is. The vector arms transpose 8 × 8 register blocks, the
/// last partial block of classes from a zero-padded one.
pub(crate) fn class_lanes(w: &[f32], features: usize, wt: &mut [f32]) {
    let (Some(k), Some(kp)) = (
        w.len().checked_div(features),
        wt.len().checked_div(features),
    ) else {
        return;
    };
    if kp < k.next_multiple_of(CLASS_LANES) {
        return;
    }
    // SAFETY: the active table passed its CPUID check; `features` is not
    // zero, `w` is cut to `k` rows of `features` and `wt` to `features`
    // rows of `kp >= k.next_multiple_of(CLASS_LANES)`.
    unsafe { (active().class_lanes)(&w[..k * features], features, &mut wt[..kp * features]) }
}

// ---------------------------------------------------------------------------
// The exponential: glibc's `expf`, in its FMA form.
// ---------------------------------------------------------------------------

/// `bits(2^(i/32)) − (i << 47)` for `i` in `0..32`: `2^(k/32)` is
/// `from_bits(EXP_TABLE[k mod 32] + (k << 47))` for every integer `k` of
/// [`expf`]'s range (the shift puts `k div 32` in the exponent field, and
/// the table takes back the `k mod 32` it also adds). Each `2^(i/32)` is
/// correctly rounded; the words are glibc's `__exp2f_data.tab`.
pub(super) const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2`: `x · EXP_INV_LN2_N = k + r`, `k` an integer, `|r| ≤ 1/2`.
pub(super) const EXP_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52`: added to a double of magnitude below `2^51`, it rounds it
/// to an integer (ties to even) held in the low mantissa bits.
pub(super) const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// `2^(r/32) ≈ ((C0·r + C1)·r² + (C2·r + 1))` on `|r| ≤ 1/2`.
pub(super) const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// [`EXP_INV_LN2_N`] cut after its 26th significant bit. It and
/// [`EXP_INV_LN2_N_LO`] times an f32 are exact in f64, which is how the
/// scalar [`expf`] rounds `r` once without a fused multiply-add.
const EXP_INV_LN2_N_HI: f64 = f64::from_bits(0x4047154760000000);
/// The rest of [`EXP_INV_LN2_N`] below [`EXP_INV_LN2_N_HI`]: 27 bits.
const EXP_INV_LN2_N_LO: f64 = f64::from_bits(0x3ea4ae0bf8000000);
/// The bits of `88.0`: an `|x|` at or above it (or a NaN) takes
/// [`expf_special`].
pub(super) const EXP_SPECIAL_ABS: u32 = 0x42b0_0000;

/// `e^x` in f32, bit for bit what glibc ≥ 2.28's `expf` returns where it
/// runs its FMA build (`__expf_fma`, x86-64 hosts with FMA; the algorithm is
/// ARM's optimized-routines `math/expf.c`): `x·32/ln 2` split into an
/// integer `k` and `r`, then `2^(k/32)` from [`EXP_TABLE`] times a cubic in
/// `r`, all in f64, rounded to f32 once. Every kernel arm gives these bits —
/// the AVX2 arm in f64 lanes with glibc's five fused multiply-adds — so a
/// softmax is the same on every host, whatever its libm does.
///
/// This scalar form fuses nothing, so it costs no libm `fma` call on a
/// build without `+fma`. The one fused step whose rounding shows in the
/// output is `r = x·32/ln 2 − k`; it is formed exactly (see `expf_main`)
/// and rounded once, as the fused form rounds it. `k` and the cubic are
/// multiply then add: `expf_matches_libm_on_every_input` (ignored; run by
/// hand) checks over all 2³² inputs that this gives the host libm's bits
/// and the AVX2 arm's, with no exception.
pub(crate) fn expf(x: f32) -> f32 {
    if x.to_bits() & 0x7fff_ffff >= EXP_SPECIAL_ABS {
        return expf_special(x);
    }
    expf_main(x)
}

/// [`expf`]'s main path, for `|x| < 88` and the large inputs
/// [`expf_special`] hands back.
fn expf_main(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = xd * EXP_INV_LN2_N + EXP_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    // `xd · HI` and `xd · LO` are exact (24 + 26 and 24 + 27 bits), and so
    // is `xd · HI − kd`: it is `xd · HI` where `kd` is 0, and where `kd` is
    // not, `|x| > 2⁻⁷` makes `xd · HI` a multiple of 2⁻⁵⁰ within 1 of the
    // integer `kd`. The one rounding left is the fused form's.
    let r = (xd * EXP_INV_LN2_N_HI - kd) + xd * EXP_INV_LN2_N_LO;
    let s = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_POLY;
    let y = (c0 * r + c1) * (r * r) + (c2 * r + 1.0);
    (y * s) as f32
}

/// [`expf`] of `|x| ≥ 88` or a NaN: `−∞ → +0`, a NaN → `x + x`, above
/// `ln(2^128)` → `+∞`, below `ln(2^−150)` → `+0`, below `ln(2^−149)` →
/// `2^−149` (glibc's underflow results), and the main path for the rest.
pub(super) fn expf_special(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        return 0.0;
    }
    if x.is_nan() || x == f32::INFINITY {
        return x + x;
    }
    if x > f32::from_bits(0x42b1_7217) {
        return f32::INFINITY;
    }
    if x < f32::from_bits(0xc2cf_f1b4) {
        return 0.0;
    }
    if x < f32::from_bits(0xc2ce_8ecf) {
        return f32::from_bits(1);
    }
    expf_main(x)
}

// ---------------------------------------------------------------------------
// Stochastic encoders.
// ---------------------------------------------------------------------------

/// Quantizes `params` to `Uniform8` levels (one byte per element, two's
/// complement in `[-levels, levels]`) with stochastic rounding, writing the
/// wire body into `body` (cleared, then written once). One rounding word per
/// element is drawn from `rng` — in registers on the vector arms, 16 lanes
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
/// appended behind whatever `body` already holds, written straight into its
/// spare capacity — never zero-filled first — so a pooled body is written
/// once. Only a non-positive `scale` appends zeros.
pub fn append_u8(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let n = params.len();
    if scale <= 0.0 {
        body.resize(body.len() + n, 0);
        return;
    }
    let encode = active().encode_u8;
    // SAFETY: the active table passed its CPUID check, and its `encode_u8`
    // writes every one of the `params.len()` bytes it is handed.
    unsafe { append_written(body, n, |out| encode(params, 1.0 / scale, levels, rng, out)) };
}

/// Quantizes `params` to packed `Uniform4` sign-magnitude nibbles (low
/// nibble = even element) with stochastic rounding, appending the
/// `params.len().div_ceil(2)` nibble bytes behind whatever `body` already
/// holds, written once, as [`append_u8`] writes. Same draw and bit-exactness
/// contract as [`encode_u8`].
pub fn append_u4(
    params: &[f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let n = params.len().div_ceil(2);
    if scale <= 0.0 {
        body.resize(body.len() + n, 0);
        return;
    }
    let encode = active().encode_u4;
    // SAFETY: the active table passed its CPUID check, and its `encode_u4`
    // writes every one of the packed nibble bytes it is handed.
    unsafe { append_written(body, n, |out| encode(params, 1.0 / scale, levels, rng, out)) };
}

/// Appends `n` bytes behind what `body` holds, as `write` writes them into
/// the body's spare capacity: the bytes are stored once, by the encoder,
/// with no zero-fill before it.
///
/// # Safety
///
/// `write` must initialise every byte of the slice it is handed (it may not
/// read one it has not written).
// SAFETY: `set_len` relies on the caller's `write` having initialised all
// `n` bytes it was handed; `reserve` provides the room.
unsafe fn append_written(body: &mut Vec<u8>, n: usize, write: impl FnOnce(&mut [MaybeUninit<u8>])) {
    body.reserve(n);
    let start = body.len();
    write(&mut body.spare_capacity_mut()[..n]);
    // SAFETY: `reserve` made room for `n` bytes past `start`, and `write`
    // initialised every one of them (the caller's contract).
    unsafe { body.set_len(start + n) };
}

// ---------------------------------------------------------------------------
// Fused error-feedback encoders.
// ---------------------------------------------------------------------------

/// [`append_u8`] over an error-feedback residual, with the fold-back fused
/// into the same sweep: appends the level bytes of `residual` behind whatever
/// `body` holds — written once, into its spare capacity — and leaves in
/// `residual` what the quantizer dropped,
/// `residual[i] += f32(level) * (-1.0 * scale)` — the expression, bit for
/// bit, that [`fold_u8`] with `k = -1.0 * scale` evaluates over the appended
/// bytes. Same words drawn, same generator position afterwards. A
/// non-positive `scale` appends zeros, leaves `residual` as it is and
/// consumes nothing from `rng`.
///
/// A `quant_cluster` encode (2¹⁸ elements) spends ≈ 136 µs in the first
/// sweep (the add and the max, memory-bound) and ≈ 107 µs in this one, and
/// encodes take ≈ 31 ms of CPU a round. A cold kernel probe on 1 or 2
/// threads (KVM Intel Xeon, family 6, model 207) resolved no gain from
/// reshaping them: this kernel read 191–225 µs an encode, a read-only first
/// sweep with the add fused into this one 194–198 µs, and this sweep of one
/// client software-pipelined with the first sweep of the next 175–198 µs —
/// what ingest near its memory-traffic floor predicts.
pub fn feedback_append_u8(
    residual: &mut [f32],
    scale: f32,
    levels: f32,
    rng: &mut StochasticRng,
    body: &mut Vec<u8>,
) {
    let n = residual.len();
    if scale <= 0.0 {
        body.resize(body.len() + n, 0);
        return;
    }
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    let encode = active().feedback_append_u8;
    // SAFETY: the active table passed its CPUID check, and its
    // `feedback_append_u8` writes every one of the `residual.len()` bytes it
    // is handed before reading any.
    unsafe { append_written(body, n, |out| encode(residual, inv, k, levels, rng, out)) };
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
    let n = residual.len().div_ceil(2);
    if scale <= 0.0 {
        body.resize(body.len() + n, 0);
        return;
    }
    // `k` is `-1.0 * scale`, the factor `fold_into(-1.0, ..)` hands the fold.
    let (inv, k) = (1.0 / scale, -scale);
    let encode = active().feedback_append_u4;
    // SAFETY: the active table passed its CPUID check, and its
    // `feedback_append_u4` writes every one of the packed nibble bytes it is
    // handed before reading any.
    unsafe { append_written(body, n, |out| encode(residual, inv, k, levels, rng, out)) };
}

#[cfg(test)]
mod tests {
    use super::proptests::{arms, bits};
    use super::*;
    use proptest::prelude::*;

    /// `expf`'s bits where its branches meet, recorded from glibc 2.36's
    /// `expf` (its FMA build) and pinned here, so they hold whatever the
    /// host's libm does: ±0, ±∞, subnormals, ±88 (where the special path
    /// starts), the overflow and both underflow thresholds with their
    /// neighbours, `−2⁻²¹`, ±1 and `−63.0994` (the one input of `[−104, 0]`
    /// whose bits change if `r` is rounded twice); every NaN stays NaN; and
    /// every 64th from 0 down to −104 lies within an ulp of the f64
    /// exponential and hashes (FNV-1a over the bits) to the recorded value.
    #[test]
    fn expf_pins_its_bits_at_the_edges() {
        const EDGES: [(u32, u32); 27] = [
            (0x0000_0000, 0x3f80_0000),
            (0x8000_0000, 0x3f80_0000),
            (0x7f80_0000, 0x7f80_0000),
            (0xff80_0000, 0x0000_0000),
            (0x0000_0001, 0x3f80_0000),
            (0x007f_ffff, 0x3f80_0000),
            (0x8000_0001, 0x3f80_0000),
            (0x807f_ffff, 0x3f80_0000),
            (0x0080_0000, 0x3f80_0000),
            (0x8080_0000, 0x3f80_0000),
            (0x42af_ffff, 0x7ef8_823b),
            (0x42b0_0000, 0x7ef8_82b7),
            (0xc2af_ffff, 0x0041_ede5),
            (0xc2b0_0000, 0x0041_edc4),
            (0x42b1_7216, 0x7f7f_ff04),
            (0x42b1_7217, 0x7f7f_ff84),
            (0x42b1_7218, 0x7f80_0000),
            (0xc2ce_8ece, 0x0000_0001),
            (0xc2ce_8ecf, 0x0000_0001),
            (0xc2ce_8ed0, 0x0000_0001),
            (0xc2cf_f1b3, 0x0000_0001),
            (0xc2cf_f1b4, 0x0000_0001),
            (0xc2cf_f1b5, 0x0000_0000),
            (0xb500_0000, 0x3f7f_fff8),
            (0x3f80_0000, 0x402d_f854),
            (0xbf80_0000, 0x3ebc_5ab2),
            (0xc27c_65d9, 0x11fa_2993),
        ];
        for (x, e) in EDGES {
            let x = f32::from_bits(x);
            assert_eq!(expf(x).to_bits(), e, "expf({x:e})");
        }
        for nan in [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fff_ffff,
        ] {
            assert!(expf(f32::from_bits(nan)).is_nan(), "expf({nan:#x})");
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..=104 * 64 {
            let x = -(i as f32) / 64.0;
            let e = expf(x);
            let ulp = f64::from(f32::from_bits(e.to_bits() + 1)) - f64::from(e);
            let exact = f64::from(x).exp();
            assert!(
                (f64::from(e) - exact).abs() <= ulp,
                "expf({x}) = {e:e}, e^x = {exact:e}"
            );
            hash = (hash ^ u64::from(e.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(hash, 0x0996_7be1_167e_4f8c);
    }

    /// Every f32 input: `expf` is the host libm's `expf` bit for bit (NaN as
    /// NaN), and so is the AVX2 arm's vector exponential where the host runs
    /// it;
    /// and on `x ≤ 0` it is non-increasing and at most 1.0, with
    /// `expf(−2⁻²¹)` at least 4 ulps below 1.0 — the premises
    /// `trainer::predicted_class` rests on. Ignored: it needs a libm whose
    /// `expf` is glibc ≥ 2.28's FMA build (x86-64 with FMA), and takes about
    /// a minute in release:
    /// `cargo test --release -p lifl-fl --lib -- --ignored expf_matches_libm_on_every_input`.
    #[test]
    #[ignore = "2^32 inputs against the host's libm; run by hand in release"]
    fn expf_matches_libm_on_every_input() {
        // SAFETY: the vector exponential needs only the AVX2 arm's CPU
        // features, and is taken only when `arms()` lists that arm.
        type Lanes = unsafe fn(&mut [f32]);
        #[cfg(target_arch = "x86_64")]
        let vector: Option<Lanes> = arms()
            .iter()
            .any(|arm| arm.name == "avx2")
            .then_some(avx2::expf_lanes);
        #[cfg(not(target_arch = "x86_64"))]
        let vector: Option<Lanes> = None;
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let count = |from: u64, to: u64| {
            let mut mismatches = 0u64;
            let mut block = vec![0.0f32; 4096];
            for start in (from..to).step_by(block.len()) {
                let xs: Vec<f32> = (start..start + block.len() as u64)
                    .map(|bits| f32::from_bits(bits as u32))
                    .collect();
                let libm: Vec<f32> = xs.iter().map(|x| x.exp()).collect();
                mismatches += xs
                    .iter()
                    .zip(&libm)
                    .filter(|(x, e)| !same(expf(**x), **e))
                    .count() as u64;
                if let Some(lanes) = vector {
                    block.copy_from_slice(&xs);
                    // SAFETY: `arms` listed the arm, so the host runs it.
                    unsafe { lanes(&mut block) };
                    let wrong = block
                        .iter()
                        .zip(&libm)
                        .filter(|(v, e)| !same(**v, **e))
                        .count();
                    assert_eq!(wrong, 0, "avx2 from {start:#x}");
                }
            }
            mismatches
        };
        let mismatches: u64 = std::thread::scope(|scope| {
            let halves = [(0, 1 << 31), (1 << 31, 1 << 32)].map(|(from, to)| {
                let count = &count;
                scope.spawn(move || count(from, to))
            });
            halves.into_iter().map(|half| half.join().unwrap()).sum()
        });
        assert_eq!(mismatches, 0);
        let mut previous = expf(-0.0);
        assert_eq!(previous, 1.0);
        for bits in 0x8000_0001u32..=0xff80_0000 {
            let e = expf(f32::from_bits(bits));
            assert!(
                e <= previous && e <= 1.0,
                "expf({:e})",
                f32::from_bits(bits)
            );
            previous = e;
        }
        let near_tie = expf(-1.0 / 2_097_152.0);
        assert!(
            near_tie <= 1.0 - 4.0 / 16_777_216.0,
            "expf(-2^-21) = {near_tie}"
        );
    }

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
        let first = active();
        assert!(std::ptr::eq(first, active()));
        assert_eq!(active_kernel_arm(), first.name);
        assert!(arms().iter().any(|k| std::ptr::eq(*k, first)));
    }

    /// The name reports the wide `Uniform8` encoder exactly when it runs:
    /// `"avx512"` on a host whose CPUID reports AVX2, AVX-512F and AVX-512DQ
    /// unless the scalar arm is forced. The benchmark's `kernels.arm` counts
    /// every name but `"scalar"` as a vector arm, so it reads 1 there too.
    #[test]
    fn the_active_arm_is_the_widest_the_host_runs_unless_scalar_is_forced() {
        let forced = scalar_forced(std::env::var("LIFL_FORCE_SCALAR").ok().as_deref());
        let expected = if forced { &SCALAR } else { widest() };
        assert!(std::ptr::eq(active(), expected));
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && !forced;
            let wide = avx2 && has!("avx512f") && has!("avx512dq");
            assert_eq!(active_kernel_arm() == "avx512", wide);
            assert_eq!(active_kernel_arm() == "avx2", avx2 && !wide);
        }
        assert_eq!(
            active_kernel_arm() == "scalar",
            std::ptr::eq(active(), &SCALAR)
        );
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

    /// `fold_u4` folds nothing past the end of its body, as `fold_u8`
    /// touches nothing past its levels: an odd start with no byte left and
    /// a start past the body fold nothing, and a body shorter than `acc`
    /// folds the nibbles it holds.
    #[test]
    fn fold_u4_folds_nothing_past_the_body() {
        let mut acc = [0.0f32];
        fold_u4(&mut acc, &[], 1, 1.0);
        fold_u4(&mut acc, &[0], 4, 1.0);
        assert_eq!(acc, [0.0]);
        let mut acc = [0.0f32; 4];
        fold_u4(&mut acc, &[0x21, 0x43], 1, 1.0);
        assert_eq!(acc, [2.0, 3.0, 4.0, 0.0]);
    }

    /// A top-k pair whose index lies in `[start, end)` but past `acc` folds
    /// nothing: the range is cut to `acc`, as every other entry cuts to its
    /// common prefix.
    #[test]
    fn fold_topk_folds_nothing_past_the_accumulator() {
        let pair = |index: u32, value: f32| {
            let mut pair = index.to_le_bytes().to_vec();
            pair.extend_from_slice(&value.to_le_bytes());
            pair
        };
        let mut acc = [0.0f32; 2];
        fold_topk(&mut acc, &pair(5, 1.0), 0, 10, 1.0);
        assert_eq!(acc, [0.0, 0.0]);
        let pairs = [pair(3, 2.0), pair(4, 3.0), pair(9, 4.0)].concat();
        fold_topk(&mut acc, &pairs, 3, usize::MAX, 0.5);
        assert_eq!(acc, [1.0, 1.5]);
    }

    /// `axpy8` folds the prefix `acc` shares with its shortest source, as
    /// `fold_dense_le_n` does.
    #[test]
    fn axpy8_folds_the_common_prefix() {
        let long = [1.0f32; 4];
        let short = [2.0f32; 2];
        let mut srcs = [&long[..]; 8];
        srcs[3] = &short;
        let mut acc = [0.0f32; 4];
        axpy8(&mut acc, srcs, [1.0; 8]);
        assert_eq!(acc, [9.0, 9.0, 0.0, 0.0]);
    }

    /// Scales a decode meets, one per kind: zero, subnormal, normal and up
    /// to `f32::MAX` (where the top levels overflow to infinity).
    const DECODE_SCALES: [f32; 12] = [
        0.0,
        f32::from_bits(1),
        1e-40,
        f32::MIN_POSITIVE,
        1e-30,
        0.004,
        0.1,
        1.0,
        3.7,
        1e30,
        3e38,
        f32::MAX,
    ];

    /// Every `Uniform8` level and every packed `Uniform4` nibble pair (one
    /// byte of each value, rotated by `rotate`, cut to `len` bytes) folded
    /// at weight 1 into zeros on every table, as the codec decodes them,
    /// against the dequantize formulas `f32(level as i8) * scale` and
    /// `NIBBLE_F32[n] * scale`, bitwise.
    /// Where a formula gives `-0.0` — a negative level at scale 0, and
    /// nowhere else — the fold gives `+0.0`.
    fn check_decode_is_the_fold_into_zeros(scale: f32, rotate: u8, len: usize) {
        let body: Vec<u8> = (0..=255u8).map(|b| b.wrapping_add(rotate)).collect();
        let body = &body[..len];
        let u8_formula: Vec<f32> = body.iter().map(|b| f32::from(*b as i8) * scale).collect();
        let nibble = |j: usize| (body[j / 2] >> (4 * (j % 2))) & 0x0F;
        let u4_formula: Vec<f32> = (0..2 * len)
            .map(|j| scalar::NIBBLE_F32[nibble(j) as usize] * scale)
            .collect();
        for arm in arms() {
            let mut u8_decoded = vec![0.0f32; len];
            let mut u4_decoded = vec![0.0f32; 2 * len];
            // SAFETY: `arms` lists only tables the host runs; the levels
            // cover `len` elements and the nibbles `2 * len`.
            unsafe {
                (arm.fold_u8_n)(&mut u8_decoded, &[body], &[1.0 * scale], Pass::ADD);
                (arm.fold_u4_aligned)(&mut u4_decoded, body, 1.0 * scale);
            }
            let (u8_levels, u4_levels) = (
                body.iter().map(|b| i32::from(*b as i8)),
                (0..2 * len).map(|j| scalar::NIBBLE_F32[nibble(j) as usize] as i32),
            );
            let cases = (u8_levels.zip(&u8_formula).zip(&u8_decoded))
                .chain(u4_levels.zip(&u4_formula).zip(&u4_decoded));
            for ((level, formula), decoded) in cases {
                let case = format!("arm {} scale {scale:e} level {level}", arm.name);
                if formula.to_bits() == (-0.0f32).to_bits() {
                    assert!(scale == 0.0 && level < 0, "{case}");
                    assert_eq!(decoded.to_bits(), 0.0f32.to_bits(), "{case}");
                } else {
                    assert_eq!(decoded.to_bits(), formula.to_bits(), "{case}");
                }
            }
        }
    }

    /// Decode ≡ the dequantize formulas at every scale kind, over every level
    /// and nibble; and at scale 0 every negative level decodes to `+0.0`.
    #[test]
    fn decode_is_the_fold_into_zeros_at_every_scale() {
        for scale in DECODE_SCALES {
            check_decode_is_the_fold_into_zeros(scale, 0, 256);
        }
        // Levels -1, -127 and -128; nibbles -1 and -7 in either half.
        let negative = [0xFFu8, 0x81, 0x80];
        let formula = negative.map(|b| (f32::from(b as i8) * 0.0).to_bits());
        assert_eq!(formula, [(-0.0f32).to_bits(); 3]);
        for arm in arms() {
            let mut u8_decoded = [0.0f32; 3];
            let mut u4_decoded = [0.0f32; 6];
            // SAFETY: `arms` lists only tables the host runs; the levels
            // cover three elements and the nibbles six.
            unsafe {
                (arm.fold_u8_n)(&mut u8_decoded, &[&negative], &[1.0 * 0.0], Pass::ADD);
                (arm.fold_u4_aligned)(&mut u4_decoded, &[0x99, 0xFF, 0x9F], 1.0 * 0.0);
            }
            assert_eq!(bits(&u8_decoded), [0; 3], "arm {}", arm.name);
            assert_eq!(bits(&u4_decoded), [0; 6], "arm {}", arm.name);
        }
    }

    proptest! {
        /// The same at any scale of each kind, over a rotated body of every
        /// length, so every vector-width remainder is folded.
        #[test]
        fn decode_is_the_fold_into_zeros(
            kind in 0usize..4,
            raw in any::<u32>(),
            rotate in any::<u8>(),
            len in 0usize..=256,
        ) {
            let scale = match kind {
                0 => 0.0,
                1 => f32::from_bits(raw & 0x007F_FFFF),               // subnormal
                2 => f32::from_bits(0x0080_0000 + raw % 0x7E80_0000), // normal
                _ => f32::MAX * (1.0 - (raw >> 8) as f32 / 1e9),      // near f32::MAX
            };
            check_decode_is_the_fold_into_zeros(scale, rotate, len);
        }
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

    pub(super) fn bits(v: &[f32]) -> Vec<u32> {
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

    /// Runs the top-k selection on one table behind a 5-byte prefix (an
    /// odd offset, as a descriptor-prefixed wire buffer would give it),
    /// checks the prefix survived and returns the pairs alone.
    fn topk_body(params: &[f32], kept: usize, arm: &Kernels) -> Vec<u8> {
        let mut body = vec![0xAB; 5];
        arm.append_topk(params, kept, &mut body);
        assert_eq!(body[..5], [0xAB; 5], "append must not touch the prefix");
        body.split_off(5)
    }

    /// The fused error-feedback selection on one table, as [`topk_body`]:
    /// the pairs, and `acc` after the add.
    fn feedback_topk_body(
        acc: &[f32],
        src: &[f32],
        kept: usize,
        arm: &Kernels,
    ) -> (Vec<u8>, Vec<f32>) {
        let mut sums = acc.to_vec();
        let mut body = vec![0xAB; 5];
        arm.add_append_topk(&mut sums, src, kept, &mut body);
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
        scalar::fold_dense_le_n(&mut sums, &[le_bytes(src)], &[1.0], Pass::ADD);
        for &kept in kepts {
            let expected = reference_topk(params, kept.min(len));
            let expected_fused = reference_topk(&sums, kept.min(len));
            for arm in arms() {
                prop_assert_eq!(
                    &topk_body(params, kept, arm),
                    &expected,
                    "arm {}, kept {}",
                    arm.name,
                    kept
                );
                let (body, added) = feedback_topk_body(params, src, kept, arm);
                prop_assert_eq!(
                    &body,
                    &expected_fused,
                    "fused, arm {}, kept {}",
                    arm.name,
                    kept
                );
                prop_assert_eq!(bits(&added), bits(&sums), "fused sums, arm {}", arm.name);
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

    /// The tables this process can run, narrowest first: `SCALAR` always,
    /// `AVX2` and `AVX512` when the host's CPUID reports them. A host runs
    /// every table narrower than its widest, so they are a prefix of all.
    pub(super) fn arms() -> Vec<&'static Kernels> {
        let all = [
            &SCALAR,
            #[cfg(target_arch = "x86_64")]
            &AVX2,
            #[cfg(target_arch = "x86_64")]
            &AVX512,
        ];
        let widest = widest();
        let count = all
            .iter()
            .take_while(|k| !std::ptr::eq(**k, widest))
            .count();
        all[..=count].to_vec()
    }

    /// Every table's name and its [`logits`] of `x` over the transposed
    /// block `wt` of `kp` lanes per row, for tests outside this module.
    pub(crate) fn logits_on_every_arm(
        wt: &[f32],
        x: &[f32],
        kp: usize,
    ) -> Vec<(&'static str, Vec<f32>)> {
        let f = x.len().min(wt.len() / kp.max(1));
        arms()
            .into_iter()
            .map(|arm| {
                let mut out = vec![f32::NAN; kp];
                // SAFETY: `arms` lists only tables the host runs; `wt` is cut
                // to `f` rows of `out.len()`, `x` to `f` features.
                unsafe { (arm.logits)(&wt[..f * kp], &x[..f], &mut out) };
                (arm.name, out)
            })
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
                scalar::fold_u8_n(&mut folded, &[&body], &[-scale], Pass::ADD);
            } else {
                scalar::fold_u4_aligned(&mut folded, &body, -scale);
            }
            for arm in arms() {
                let label = format!("levels {levels} arm {}", arm.name);
                let (encode, feedback) = if wide {
                    (arm.encode_u8, arm.feedback_append_u8)
                } else {
                    (arm.encode_u4, arm.feedback_append_u4)
                };
                let mut rng = StochasticRng::from_seed(seed);
                let mut plain = Vec::new();
                // SAFETY: `arms` lists only tables the host runs, and the arm
                // writes every one of the encoded bytes of `params`.
                unsafe {
                    append_written(&mut plain, body.len(), |out| {
                        encode(params, 1.0 / scale, levels, &mut rng, out)
                    })
                };
                prop_assert_eq!(&plain, &body, "plain bytes, {}", label);
                prop_assert_eq!(
                    next_words(&rng),
                    next_words(&end),
                    "plain position, {}",
                    label
                );

                let mut rng = StochasticRng::from_seed(seed);
                let mut residual = params.to_vec();
                let mut wire = vec![0xABu8; 5];
                // SAFETY: `arms` lists only tables the host runs, and the arm
                // writes every one of the encoded bytes of `residual`.
                unsafe {
                    append_written(&mut wire, body.len(), |out| {
                        feedback(&mut residual, 1.0 / scale, -scale, levels, &mut rng, out)
                    })
                };
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

    /// What one table's plain and feedback encoders of `levels` make of
    /// `params` from `seed`. They are called directly, with no wrapper in
    /// front, so a non-positive scale reaches the arm too.
    fn encode_on(arm: &Kernels, params: &[f32], scale: f32, levels: f32, seed: u64) -> Encoded {
        let (bytes, encode, feedback) = if levels > 7.0 {
            (params.len(), arm.encode_u8, arm.feedback_append_u8)
        } else {
            (
                params.len().div_ceil(2),
                arm.encode_u4,
                arm.feedback_append_u4,
            )
        };
        let mut rng = StochasticRng::from_seed(seed);
        let mut plain = Vec::new();
        let mut feedback_rng = StochasticRng::from_seed(seed);
        let mut wire = Vec::new();
        let mut residual = params.to_vec();
        let (inv, k) = (1.0 / scale, -scale);
        // SAFETY: every caller passes `SCALAR` or a table from `arms`, which
        // lists only tables the host runs, and each arm writes every one of
        // the encoded bytes.
        unsafe {
            append_written(&mut plain, bytes, |out| {
                encode(params, inv, levels, &mut rng, out)
            });
            append_written(&mut wire, bytes, |out| {
                feedback(&mut residual, inv, k, levels, &mut feedback_rng, out)
            });
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
        let max = scalar::max_abs_finite(&expected);
        for arm in arms() {
            let mut got = acc[..n].to_vec();
            // SAFETY: `arms` lists only tables the host runs; both slices
            // hold `n` elements.
            let got_max = unsafe { (arm.add_max)(&mut got, &src[..n]) };
            prop_assert_eq!(bits(&got), bits(&expected), "sums, arm {}", arm.name);
            prop_assert_eq!(got_max.to_bits(), max.to_bits(), "max, arm {}", arm.name);
        }
        Ok(())
    }

    /// The `Uniform8` fold as it was written before it took several sources:
    /// `acc[i] += f32(levels[i] as i8) * k`, one source per pass.
    fn fold_u8_formula(acc: &mut [f32], levels: &[u8], k: f32) {
        for (a, b) in acc.iter_mut().zip(levels) {
            *a += f32::from(*b as i8) * k;
        }
    }

    /// `k`, or — by `tag` — a factor the station fold can hand a `Uniform8`
    /// source: ±0.0, a negative, a subnormal, a huge or an infinite one. A
    /// factor is `weight * scale` of a parsed view: the scale is finite, so
    /// the factor is never NaN, but a large weight can overflow it to ±∞.
    fn u8_factor(tag: u8, k: f32) -> f32 {
        match tag {
            0 => 0.0,
            1 => -0.0,
            2 => -k.abs() - 1.0,
            3 => k * 1e-40,
            4 => k * 1e30,
            5 => f32::INFINITY,
            6 => f32::NEG_INFINITY,
            _ => k,
        }
    }

    /// Eight level sources of `acc.len()` (and a few more) levels from
    /// `seed`, every seventh of them level 0, each behind `offsets[k]` filler
    /// bytes: for every count in 1..=8, every table and the wrapper (handed
    /// the longer sources) fold the bits the formula folds one source at a
    /// time (with an infinite factor, a NaN lane of `acc` only as a NaN).
    fn check_fold_u8_n(
        acc: &[f32],
        seed: u64,
        offsets: &[usize],
        ks: &[f32],
    ) -> Result<(), String> {
        let len = acc.len();
        let buffers: Vec<Vec<u8>> = (offsets.iter().enumerate())
            .map(|(k, offset)| {
                let mut words = vec![0u32; len + k];
                StochasticRng::from_seed(seed.wrapping_add(k as u64)).fill(&mut words);
                let mut bytes = vec![0xA5u8; *offset];
                let level = |(i, w): (usize, &u32)| if (i + k) % 7 == 0 { 0 } else { *w as u8 };
                bytes.extend(words.iter().enumerate().map(level));
                bytes
            })
            .collect();
        let srcs: Vec<&[u8]> = (buffers.iter().zip(offsets))
            .map(|(bytes, offset)| &bytes[*offset..])
            .collect();
        let exact: Vec<&[u8]> = srcs.iter().map(|src| &src[..len]).collect();
        // Where an infinite factor meets a level-0 lane (0 · ∞ = NaN) that
        // already holds a NaN, the add has two NaN operands, and which
        // payload it keeps is the operand order the compiler picked. Every
        // other NaN is the one 0 · ∞ or ∞ − ∞ makes, so only a NaN lane of
        // `acc` can differ — and only in its payload.
        let infinite = !ks.iter().all(|k| k.is_finite());
        let compare = |v: &[f32]| -> Vec<u32> {
            (v.iter().zip(acc))
                .map(|(x, a)| {
                    let loose = infinite && a.is_nan() && x.is_nan();
                    if loose { f32::NAN } else { *x }.to_bits()
                })
                .collect()
        };
        for n in 1..=srcs.len() {
            let mut expected = acc.to_vec();
            for (src, k) in exact[..n].iter().zip(ks) {
                fold_u8_formula(&mut expected, src, *k);
            }
            for arm in arms() {
                let mut got = acc.to_vec();
                // SAFETY: `arms` lists only tables the host runs; every
                // source covers `len` levels and has a factor.
                unsafe { (arm.fold_u8_n)(&mut got, &exact[..n], &ks[..n], Pass::ADD) };
                prop_assert_eq!(
                    compare(&got),
                    compare(&expected),
                    "{} sources, arm {}",
                    n,
                    arm.name
                );
            }
            let mut got = acc.to_vec();
            fold_u8_n(&mut got, &srcs[..n], &ks[..n], Pass::ADD);
            prop_assert_eq!(compare(&got), compare(&expected), "{} sources, wrapper", n);
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
                scalar::fold_dense_le_n(&mut expected, &[src], &[*w], Pass::ADD);
            }
            for arm in arms() {
                let mut got = acc.to_vec();
                // SAFETY: `arms` lists only tables the host runs; every
                // source covers `4 * len` bytes and has a weight.
                unsafe { (arm.fold_dense_le_n)(&mut got, &exact[..n], &weights[..n], Pass::ADD) };
                prop_assert_eq!(
                    bits(&got),
                    bits(&expected),
                    "{} sources, arm {}",
                    n,
                    arm.name
                );
            }
            let mut got = acc.to_vec();
            fold_dense_le_n(&mut got, &srcs[..n], &weights[..n], Pass::ADD);
            prop_assert_eq!(bits(&got), bits(&expected), "{} sources, wrapper", n);
        }
        Ok(())
    }

    /// NaN garbage of `len` elements, as a pooled buffer an earlier round
    /// may have left it: quiet and signalling NaNs of assorted payloads and
    /// both signs.
    fn nan_garbage(len: usize, seed: u64) -> Vec<f32> {
        let mut words = vec![0u32; len];
        StochasticRng::from_seed(seed ^ 0xD1E7).fill(&mut words);
        let nan = |w: &u32| f32::from_bits(0x7F80_0001 | (w & 0x803F_FFFF) | ((w & 1) << 22));
        words.iter().map(nan).collect()
    }

    /// The fresh passes of both multi-source folds against the oracle a
    /// zero-filled accumulator gives: for every count in 1..=8, on every
    /// table and through the wrapper (handed sources longer than `acc`), a
    /// fresh pass — storing the sums, and storing them times `scale` — into
    /// NaN garbage of `len` elements leaves exactly the bits of zeros folded
    /// one single-source fold per source in turn, then (with the scale)
    /// `DenseModel::scale`. A pass that stores the scale over a sum an
    /// earlier pass wrote (a closing batch that is not the round's first) is
    /// checked the same way from a finite prior sum. Dense source `k` holds
    /// `len + k` seasoned values (NaN, ±∞, ±0.0, huge and subnormal among
    /// them) under weight `ws[k]`; level source `k` holds `len + k` levels,
    /// every seventh 0, under factor `ks[k]` (±0, negative, subnormal or ±∞
    /// among them): from zeros or a finite sum, every NaN a level fold makes
    /// is the one 0 · ∞ or ∞ − ∞ makes, so no payload is left open and every
    /// bit is compared.
    fn check_fresh_passes(
        len: usize,
        seed: u64,
        ws: &[f32],
        ks: &[f32],
        scale: f32,
    ) -> Result<(), String> {
        let words = |k: usize| {
            let mut words = vec![0u32; len + k];
            StochasticRng::from_seed(seed.wrapping_add(k as u64)).fill(&mut words);
            words
        };
        let dense: Vec<Vec<u8>> = (0..ws.len())
            .map(|k| {
                let value = |w: &u32| seasoned((w & 15) as u8, (w >> 8) as f32 / 65_536.0 - 128.0);
                words(k)
                    .iter()
                    .flat_map(|w| value(w).to_le_bytes())
                    .collect()
            })
            .collect();
        let levels: Vec<Vec<u8>> = (0..ks.len())
            .map(|k| {
                let level = |(i, w): (usize, &u32)| if (i + k) % 7 == 0 { 0 } else { *w as u8 };
                words(k).iter().enumerate().map(level).collect()
            })
            .collect();
        let garbage = nan_garbage(len, seed);
        let prior: Vec<f32> = words(99)[..len]
            .iter()
            .map(|w| match w % 11 {
                0 => -0.0,
                1 => 1e-40,
                _ => (w >> 8) as f32 / 65_536.0 - 128.0,
            })
            .collect();
        type Wrapper = fn(&mut [f32], &[&[u8]], &[f32], Pass);
        for is_dense in [true, false] {
            let (kind, buffers, factors, width) = match is_dense {
                true => ("dense", &dense, ws, 4),
                false => ("levels", &levels, ks, 1),
            };
            let table = |arm: &Kernels| match is_dense {
                true => arm.fold_dense_le_n,
                false => arm.fold_u8_n,
            };
            let wrapper: Wrapper = match is_dense {
                true => fold_dense_le_n,
                false => fold_u8_n,
            };
            let longer: Vec<&[u8]> = buffers.iter().map(|b| b.as_slice()).collect();
            let exact: Vec<&[u8]> = longer.iter().map(|b| &b[..width * len]).collect();
            let (mut summed, mut on_prior) = (vec![0.0f32; len], prior.clone());
            for n in 1..=buffers.len().min(factors.len()) {
                let (src, f) = (exact[n - 1], factors[n - 1]);
                for sum in [&mut summed, &mut on_prior] {
                    if width == 4 {
                        scalar::fold_dense_le_n(sum, &[src], &[f], Pass::ADD);
                    } else {
                        fold_u8_formula(sum, src, f);
                    }
                }
                let (longer, exact) = (&longer[..n], &exact[..n]);
                let scaled = |sum: &[f32]| {
                    let mut averaged = crate::model::DenseModel::from_vec(sum.to_vec());
                    averaged.scale(scale);
                    bits(averaged.as_slice())
                };
                let oracles = [
                    (true, None, bits(&summed)),
                    (true, Some(scale), scaled(&summed)),
                    (false, Some(scale), scaled(&on_prior)),
                ];
                for (fresh, stored, expected) in oracles {
                    let pass = Pass {
                        fresh,
                        scale: stored,
                    };
                    let start = if fresh { &garbage } else { &prior };
                    for arm in arms() {
                        let mut got = start.clone();
                        // SAFETY: `arms` lists only tables the host runs;
                        // every source covers `len` elements and has a factor.
                        unsafe { table(arm)(&mut got, exact, &factors[..n], pass) };
                        prop_assert_eq!(
                            bits(&got),
                            expected.clone(),
                            "{} {} sources, fresh {} scale {:?}, arm {}",
                            kind,
                            n,
                            fresh,
                            stored,
                            arm.name
                        );
                    }
                    let mut got = start.clone();
                    wrapper(&mut got, longer, &factors[..n], pass);
                    prop_assert_eq!(
                        bits(&got),
                        expected,
                        "{} {} sources, fresh {} scale {:?}, wrapper",
                        kind,
                        n,
                        fresh,
                        stored
                    );
                }
            }
        }
        Ok(())
    }

    /// A fresh pass whose sources cover less than the accumulator still
    /// leaves nothing of what the buffer held: the rest is zeroed.
    #[test]
    fn a_fresh_pass_zeroes_what_its_sources_do_not_cover() {
        let short = le_bytes(&[1.5f32, -2.0]).to_vec();
        let pass = Pass {
            fresh: true,
            scale: Some(0.5),
        };
        let mut acc = nan_garbage(5, 1);
        fold_dense_le_n(&mut acc, &[&short], &[2.0], pass);
        assert_eq!(bits(&acc), bits(&[1.5, -2.0, 0.0, 0.0, 0.0]));
        let mut acc = nan_garbage(5, 2);
        fold_u8_n(&mut acc, &[&[3u8, 0xFE]], &[0.25], pass);
        assert_eq!(bits(&acc), bits(&[0.375, -0.25, 0.0, 0.0, 0.0]));
    }

    /// [`check_fresh_passes`] at every length up to 70, around the station
    /// fold's 2 048-element block and at a 2¹⁸ model, with finite weights
    /// and factors and with infinite factors, under a round's factor
    /// `1 / total`.
    #[test]
    fn fresh_passes_fold_the_zero_filled_bits_at_every_dim() {
        let ws = [0.5f32, -3.0, 1e-40, 7.0, 1e30, -0.0, 0.125, 2.0];
        let finite = [0.0f32, -0.75, 1e-40, -0.0, 2.5, -3e-39, 0.125, -1.0];
        let infinite = [
            0.5f32,
            f32::INFINITY,
            -0.0,
            f32::NEG_INFINITY,
            1e-40,
            -2.0,
            0.0,
            3.0,
        ];
        for dim in (0..=70).chain([2047, 2048, 2049, 1 << 18]) {
            for ks in [&finite, &infinite] {
                let scale = 1.0 / (dim as u64 * 7 + 3) as f32;
                check_fresh_passes(dim, dim as u64, &ws, ks, scale).unwrap();
            }
        }
    }

    /// The quantizers write every byte of the body they append: into a
    /// dirty pooled body (its capacity full of `0xAA`, as an earlier round
    /// left it) they write the bytes they write into a fresh one, behind the
    /// same prefix, and leave the residual and the generator where they
    /// leave them — at a zero, a subnormal and an ordinary scale, over odd
    /// and even lengths (an odd `Uniform4` length ends on a half byte).
    #[test]
    fn quantizers_write_a_dirty_body_as_they_write_a_fresh_one() {
        type Plain = fn(&[f32], f32, f32, &mut StochasticRng, &mut Vec<u8>);
        type Feedback = fn(&mut [f32], f32, f32, &mut StochasticRng, &mut Vec<u8>);
        let plain: [(f32, Plain); 2] = [(127.0, append_u8), (7.0, append_u4)];
        let feedback: [(f32, Feedback); 2] =
            [(127.0, feedback_append_u8), (7.0, feedback_append_u4)];
        let dirty = || {
            let mut body = vec![0xAAu8; 5000];
            body.truncate(3);
            body
        };
        for len in [0usize, 1, 15, 16, 17, 33, 4095, 4097] {
            let params = long_params(len, len as u64);
            for scale in [0.0f32, 1e-40, 0.004] {
                for ((levels, plain), (_, feedback)) in plain.into_iter().zip(feedback) {
                    let case = format!("len {len} scale {scale:e} levels {levels}");
                    let encode = |mut body: Vec<u8>| {
                        let mut rng = StochasticRng::from_seed(len as u64);
                        plain(&params, scale, levels, &mut rng, &mut body);
                        (body, next_words(&rng))
                    };
                    let (fresh, dirtied) = (encode(vec![0xAA; 3]), encode(dirty()));
                    assert_eq!(fresh, dirtied, "plain, {case}");
                    let encode = |mut body: Vec<u8>| {
                        let mut rng = StochasticRng::from_seed(len as u64);
                        let mut residual = params.clone();
                        feedback(&mut residual, scale, levels, &mut rng, &mut body);
                        (body, bits(&residual), next_words(&rng))
                    };
                    let (fresh, dirtied) = (encode(vec![0xAA; 3]), encode(dirty()));
                    assert_eq!(fresh, dirtied, "feedback, {case}");
                }
            }
        }
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
        // A vector the pool is not owed is freed: with every checkout home,
        // a foreign vector's owner leaves the pool as it was.
        pool.checkin_f32(again);
        assert_eq!(pool.stats().idle_buffers, 1);
        drop(DenseLe::pooled(vec![1.0; 64], &pool));
        assert_eq!(pool.stats().idle_buffers, 1);
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
            let owned = DenseLe::pooled(values, &BufferPool::new());
            prop_assert_eq!(owned.as_ref(), expected.as_slice());
            prop_assert_eq!(owned.as_ref().as_ptr(), ptr, "the owner views, never copies");
        }

        /// Dense fold: every table's output is bit-identical to scalar.
        #[test]
        fn dense_kernels_match(acc in arbitrary_params(), body in arbitrary_bytes(520), w in -3.0f32..3.0) {
            let n = acc.len().min(body.len() / 4);
            let mut a_scalar = acc.clone();
            scalar::fold_dense_le_n(&mut a_scalar[..n], &[&body[..4 * n]], &[w], Pass::ADD);
            for arm in arms() {
                let mut a_simd = acc.clone();
                // SAFETY: `arms` lists only tables the host runs; the body
                // covers `4 * n` bytes.
                unsafe { (arm.fold_dense_le_n)(&mut a_simd[..n], &[&body[..4 * n]], &[w], Pass::ADD) };
                prop_assert_eq!(bits(&a_scalar), bits(&a_simd), "fold, arm {}", arm.name);
            }
        }

        /// Uniform8 fold: every table's output is bit-identical to the
        /// single-source formula.
        #[test]
        fn u8_kernels_match(acc in arbitrary_params(), levels in arbitrary_bytes(130), k in -3.0f32..3.0) {
            let n = acc.len().min(levels.len());
            let mut a_formula = acc.clone();
            fold_u8_formula(&mut a_formula[..n], &levels[..n], k);
            for arm in arms() {
                let mut a_simd = acc.clone();
                // SAFETY: `arms` lists only tables the host runs; the levels
                // cover `n` elements.
                unsafe { (arm.fold_u8_n)(&mut a_simd[..n], &[&levels[..n]], &[k], Pass::ADD) };
                prop_assert_eq!(bits(&a_formula), bits(&a_simd), "fold, arm {}", arm.name);
            }
        }

        /// `fold_u8_n` on every table, and its wrapper over longer sources,
        /// ≡ one single-source fold per source in turn (the old `fold_u8`
        /// formula), bit for bit, for 1..=8 sources, over every sub-vector
        /// tail, sources at byte offsets off any 32-byte boundary, NaN, ±∞
        /// and −0.0 in the accumulator, and factors of 0, ±0, negative,
        /// subnormal, huge and infinite magnitude (with an infinite one, a
        /// NaN accumulator lane compares as a NaN).
        #[test]
        fn fold_u8_n_is_sequential_single_source_folds(
            acc in arbitrary_params(),
            seed in any::<u64>(),
            offsets in proptest::collection::vec(0usize..32, 8..=8),
            ks in proptest::collection::vec((0u8..12, -3.0f32..3.0), 8..=8),
        ) {
            let ks: Vec<f32> = ks.into_iter().map(|(tag, k)| u8_factor(tag, k)).collect();
            check_fold_u8_n(&acc, seed, &offsets, &ks)?;
        }

        /// Uniform4 fold (both start parities, through [`fold_u4`]'s
        /// alignment): every table bit-identical to scalar.
        #[test]
        fn u4_kernels_match(acc in arbitrary_params(), nibbles in arbitrary_bytes(70), start in 0usize..9, k in -3.0f32..3.0) {
            let capacity = nibbles.len() * 2;
            let n = acc.len().min(capacity.saturating_sub(start));
            let mut a_scalar = acc[..n].to_vec();
            let (rest, aligned) = align_u4(&mut a_scalar, &nibbles, start, k);
            scalar::fold_u4_aligned(rest, aligned, k);
            for arm in arms() {
                let mut a_simd = acc[..n].to_vec();
                let (rest, aligned) = align_u4(&mut a_simd, &nibbles, start, k);
                // SAFETY: `arms` lists only tables the host runs; `align_u4`
                // cut `rest` to `aligned`'s nibbles.
                unsafe { (arm.fold_u4_aligned)(rest, aligned, k) };
                prop_assert_eq!(bits(&a_scalar), bits(&a_simd), "fold, arm {}", arm.name);
            }
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

        /// Fresh passes ≡ zeros, sequential folds, then `DenseModel::scale`
        /// ([`check_fresh_passes`]) over random seasoned sources, weights
        /// and factors (infinite ones among them) and any round total.
        #[test]
        fn fresh_passes_fold_the_zero_filled_bits(
            len in 0usize..130,
            seed in any::<u64>(),
            ws in proptest::collection::vec((0u8..10, -3.0f32..3.0), 8..=8),
            ks in proptest::collection::vec((0u8..12, -3.0f32..3.0), 8..=8),
            total in 1u64..u64::MAX,
        ) {
            let ws: Vec<f32> = ws.into_iter().map(|(tag, w)| seasoned(tag, w)).collect();
            let ks: Vec<f32> = ks.into_iter().map(|(tag, k)| u8_factor(tag, k)).collect();
            check_fresh_passes(len, seed, &ws, &ks, 1.0 / total as f32)?;
        }

        /// Scale derivation: every table's max-abs-over-finite matches
        /// scalar exactly even with NaN/inf lanes.
        #[test]
        fn max_abs_finite_matches(params in arbitrary_params()) {
            let s = scalar::max_abs_finite(&params);
            for arm in arms() {
                // SAFETY: `arms` lists only tables the host runs.
                let v = unsafe { (arm.max_abs_finite)(&params) };
                prop_assert_eq!(s.to_bits(), v.to_bits(), "arm {}", arm.name);
            }
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
                3 => 0.0, // only a direct table call reaches an arm with it
                _ => 3.7,
            };
            for levels in [127.0f32, 7.0] {
                let reference = encode_on(&SCALAR, &params, scale, levels, seed);
                for arm in arms() {
                    let encoded = encode_on(arm, &params, scale, levels, seed);
                    prop_assert_eq!(&encoded, &reference, "levels {} arm {}", levels, arm.name);
                    let again = encode_on(arm, &params, scale, levels, seed);
                    prop_assert_eq!(&again, &encoded, "again, levels {} arm {}", levels, arm.name);
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
            match arm.name {
                // SAFETY: `arms` lists `AVX2` only when AVX2 is detected.
                "avx2" => unsafe { avx2::fill_in_registers(&mut rng, &mut words) },
                // SAFETY: `arms` lists `AVX512` only when AVX-512F and
                // AVX-512DQ are detected.
                "avx512" => unsafe { avx512::fill_in_registers(&mut rng, &mut words) },
                _ => continue,
            }
            prop_assert_eq!(
                &words,
                &expected,
                "arm {} seed {:#x} len {}",
                arm.name,
                seed,
                len
            );
            prop_assert_eq!(
                next_words(&rng),
                next_words(&reference),
                "position, arm {}",
                arm.name
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

    /// `fold_u8_n` ≡ sequential single-source folds at every length up to
    /// 70, around the station fold's 2 048-element block and at a 2¹⁸
    /// model, for every source count, with NaN, ±∞, −0.0 and subnormal
    /// accumulator lanes, factors of 0, −0.0, negative, subnormal and
    /// ordinary size, and ±∞ factors over level-0 lanes (a NaN accumulator
    /// lane then compared as a NaN).
    #[test]
    fn fold_u8_n_is_sequential_single_source_folds_at_every_dim() {
        let finite = [0.0f32, -0.75, 1e-40, -0.0, 2.5, -3e-39, 0.125, -1.0];
        let infinite = [
            0.5f32,
            f32::INFINITY,
            -0.0,
            f32::NEG_INFINITY,
            1e-40,
            -2.0,
            0.0,
            3.0,
        ];
        let offsets = [0, 1, 3, 7, 8, 13, 31, 16];
        for dim in (0..=70).chain([2047, 2048, 2049, 1 << 18]) {
            let acc = long_params(dim, 0);
            for ks in [&finite, &infinite] {
                check_fold_u8_n(&acc, dim as u64, &offsets, ks).unwrap();
            }
        }
    }

    /// The arms listed are every arm the host's CPUID reports — `AVX2` only
    /// with `fma` beside `avx2`, `AVX512` only on top of it — so on an
    /// AVX-512 host every parity property above runs the 16-lane kernels.
    #[test]
    fn arms_list_every_arm_the_host_runs() {
        let listed = arms();
        assert!(std::ptr::eq(listed[0], &SCALAR));
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && has!("fma");
            let wide = avx2 && has!("avx512f") && has!("avx512dq");
            let lists = |table: &Kernels| listed.iter().any(|k| std::ptr::eq(*k, table));
            assert_eq!(lists(&AVX2), avx2);
            assert_eq!(lists(&AVX512), wide);
        }
    }

    /// A keyed generator is a generator like any other: the encodes the
    /// engine keys — a client's (seed, client, encode count), a station's
    /// (position, round) — write the same bytes, residual and generator
    /// position on every arm, and distinct keys draw distinct words.
    #[test]
    fn keyed_encodes_match_on_every_arm() {
        let params: Vec<f32> = (0..1001).map(|i| (i % 37) as f32 * 0.07 - 1.2).collect();
        let keys: [&[u64]; 4] = [&[0x5EED, 7, 0], &[0x5EED, 7, 1], &[0x5EED, 8, 0], &[3, 41]];
        let mut seen = Vec::new();
        for key in keys {
            let seed = StochasticRng::keyed(key).state;
            for levels in [127.0f32, 7.0] {
                let scale = 1.32 / levels;
                let reference = encode_on(&SCALAR, &params, scale, levels, seed);
                for arm in arms() {
                    let encoded = encode_on(arm, &params, scale, levels, seed);
                    assert_eq!(
                        encoded, reference,
                        "{key:?} levels {levels} arm {}",
                        arm.name
                    );
                }
                assert!(
                    !seen.contains(&reference.0),
                    "{key:?} repeats another key's bytes"
                );
                seen.push(reference.0);
            }
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
                    let case = format!("levels {levels} max {max:e} arm {}", arm.name);
                    let (plain, _, wire, residual, _) = encode_on(arm, &params, scale, levels, 1);
                    assert_eq!(plain, wire, "{case}");
                    // Decoded as the codec decodes: folded into zeros.
                    let mut decoded = vec![0.0f32; params.len()];
                    if levels > 7.0 {
                        scalar::fold_u8_n(&mut decoded, &[&wire], &[1.0 * scale], Pass::ADD);
                    } else {
                        scalar::fold_u4_aligned(&mut decoded, &wire, 1.0 * scale);
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
            let scalar_body = topk_body(&params, kept, &SCALAR);
            assert_eq!(scalar_body.len(), kept * 8);
            for arm in arms() {
                assert_eq!(
                    topk_body(&params, kept, arm),
                    scalar_body,
                    "kept {kept} arm {}",
                    arm.name
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
        assert_eq!(indices(&topk_body(&params, 1, &SCALAR)), [7]);
        assert_eq!(indices(&topk_body(&params, 2, &SCALAR)), [1, 7]);
        assert_eq!(indices(&topk_body(&params, 3, &SCALAR)), [1, 4, 7]);
        assert_eq!(
            indices(&topk_body(&params, 6, &SCALAR)),
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
        let Some(floor) = SCALAR.candidate_floor(values.len(), kept, |i| values[i]) else {
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
        scalar::fold_dense_le_n(&mut sums, &[le_bytes(&src)], &[1.0], Pass::ADD);
        let limit = 5 + 80;
        let distinct: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut fitting = Vec::new();
        for arm in arms() {
            let name = arm.name;
            let mut body = Vec::with_capacity(limit + TOPK_BODY_SLACK);
            body.extend_from_slice(&[0xAB; 5]);
            let buffer = (body.as_ptr(), body.capacity());
            let compact = arm.compact_topk;
            // SAFETY: `arms` lists only tables the host runs.
            let every = unsafe { compact(&params, 0, 0, usize::MAX, &mut body, limit) };
            assert_eq!(every, None, "arm {name}");
            assert_eq!((body.as_ptr(), body.capacity()), buffer, "arm {name}");
            body.truncate(5);
            let mut acc = params.clone();
            // SAFETY: as above, and `src` is as long as `acc`.
            let added = unsafe { (arm.add_compact_topk)(&mut acc, &src, 0, 0, &mut body, limit) };
            assert!(!added, "arm {name}");
            assert_eq!((body.as_ptr(), body.capacity()), buffer, "arm {name}");
            assert_eq!(bits(&acc), bits(&sums), "arm {name}");
            // The ten largest of a thousand distinct keys fit exactly.
            body.truncate(5);
            let cut = key(990.0);
            // SAFETY: as above.
            let left = unsafe { compact(&distinct, 0, cut, usize::MAX, &mut body, limit) };
            assert!(left.is_some(), "arm {name}");
            assert_eq!(body.len(), limit, "arm {name}");
            fitting.push(body);
        }
        assert!(fitting.windows(2).all(|w| w[0] == w[1]));
    }

    // -----------------------------------------------------------------
    // The trainer's two passes.
    // -----------------------------------------------------------------

    /// The class counts, feature counts and lane widths the trainer's
    /// passes are checked at: around a vector, a 64-lane tile and the
    /// benchmark's 62 classes of 128 features.
    const CLASSES: [usize; 8] = [1, 7, 8, 9, 62, 64, 65, 130];
    const FEATURES: [usize; 7] = [1, 3, 63, 64, 65, 128, 129];
    /// How rarely [`sprinkled`] values are non-finite, zero or subnormal:
    /// never, one in 5, one in 97, one in 4096.
    const RARE: [u32; 4] = [0, 5, 97, 4096];
    /// What [`check_softmax_rows`] scales its `[-2, 2)` logits by: spreads
    /// within, around and far past `expf`'s 88 of range.
    const SPREADS: [f32; 3] = [1.0, 40.0, 150.0];
    /// Logits whose exponentials sit where `expf`'s paths meet, all so small
    /// that beside a top logit of 0 the row sums to exactly 1 and each
    /// probability is its exponential: `−63.0994`, the one input of
    /// `[−104, 0]` whose exponential changes if `r = x·32/ln 2 − k` is
    /// rounded twice; −88 (where the special path starts), `ln(2^−149)` and
    /// `ln(2^−150)` (glibc's underflow thresholds) with their neighbours;
    /// the subnormal edge `ln(2^−126)`; a deep underflow; and −∞.
    const EDGE_LOGITS: [u32; 13] = [
        0xc27c_65d9,
        0xc2af_ffff,
        0xc2b0_0000,
        0xc2b0_0001,
        0xc2ce_8ece,
        0xc2ce_8ecf,
        0xc2ce_8ed0,
        0xc2cf_f1b3,
        0xc2cf_f1b4,
        0xc2cf_f1b5,
        0xc2ae_ac50,
        0xf149_f2ca,
        0xff80_0000,
    ];

    /// `len` values in `[-2, 2)` from `seed`, one in `rare` of them (none
    /// when `rare` is 0) replaced by NaN, ±∞, −0.0, +0.0 or a subnormal.
    fn sprinkled(len: usize, seed: u64, rare: u32) -> Vec<f32> {
        let mut words = vec![0u32; len];
        StochasticRng::from_seed(seed).fill(&mut words);
        let value = |w: &u32| {
            let v = (w >> 8) as f32 / (1u32 << 22) as f32 - 2.0;
            if rare == 0 || !w.is_multiple_of(rare) {
                return v;
            }
            match (w >> 4) % 6 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                4 => 0.0,
                _ => v * 1e-40,
            }
        };
        words.iter().map(value).collect()
    }

    /// `a` and `b` bit for bit, except that a NaN matches any NaN: the
    /// trainer's passes pin no NaN payload (see [`logits`]).
    fn same_bits_or_nan(a: &[f32], b: &[f32]) -> Result<(), String> {
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            prop_assert!(same, "element {}: {:?} vs {:?}", i, x, y);
        }
        Ok(())
    }

    /// `logits` on every arm ≡ the scalar reference over a transposed block
    /// of `classes` lanes per row, padded to [`CLASS_LANES`] or not, into
    /// an output full of NaN garbage.
    fn check_logits(
        classes: usize,
        f: usize,
        padded: bool,
        seed: u64,
        rare: u32,
    ) -> Result<(), String> {
        let kp = if padded {
            classes.next_multiple_of(CLASS_LANES)
        } else {
            classes
        };
        let wt = sprinkled(f * kp, seed, rare);
        let x = sprinkled(f, seed ^ 0xF00D, rare);
        let mut expected = vec![f32::NAN; kp];
        scalar::logits(&wt, &x, &mut expected);
        for arm in arms() {
            let mut out = vec![f32::NAN; kp];
            // SAFETY: `arms` lists only tables the host runs; `wt` holds
            // `x.len()` rows of `out.len()`.
            unsafe { (arm.logits)(&wt, &x, &mut out) };
            same_bits_or_nan(&out, &expected)
                .map_err(|e| format!("logits, arm {}: {e}", arm.name))?;
        }
        Ok(())
    }

    /// `softmax_rows` on every arm ≡ the scalar reference over `rows` rows of
    /// `classes` lanes, padded to [`CLASS_LANES`] or not, with logits
    /// [`sprinkled`] and scaled by `spread` (past 88 the row's exponentials
    /// reach the special lanes: underflow to 2⁻¹⁴⁹ and to zero), or, with
    /// `edges`, a top logit of 0 followed by [`EDGE_LOGITS`]; the lanes past
    /// `classes` hold values no arm may touch.
    fn check_softmax_rows(
        classes: usize,
        rows: usize,
        (padded, edges): (bool, bool),
        (spread, seed, rare): (f32, u64, u32),
    ) -> Result<(), String> {
        let stride = if padded {
            classes.next_multiple_of(CLASS_LANES)
        } else {
            classes
        };
        let mut logits: Vec<f32> = sprinkled(rows * stride, seed, rare)
            .into_iter()
            .map(|l| l * spread)
            .collect();
        if edges {
            for (r, row) in logits.chunks_exact_mut(stride).enumerate() {
                row[0] = 0.0;
                for (c, l) in row[..classes].iter_mut().enumerate().skip(1) {
                    let at = (c - 1 + r).wrapping_add(seed as usize) % EDGE_LOGITS.len();
                    *l = f32::from_bits(EDGE_LOGITS[at]);
                }
            }
        }
        let mut expected = logits.clone();
        scalar::softmax_rows(&mut expected, classes, stride);
        for (i, (p, l)) in expected.iter().zip(&logits).enumerate() {
            if i % stride >= classes {
                prop_assert_eq!(p.to_bits(), l.to_bits(), "padding lane {}", i);
            }
        }
        for arm in arms() {
            let mut out = logits.clone();
            // SAFETY: `arms` lists only tables the host runs; `out` holds
            // `rows` whole rows of `stride >= classes`.
            unsafe { (arm.softmax_rows)(&mut out, classes, stride) };
            same_bits_or_nan(&out, &expected)
                .map_err(|e| format!("softmax_rows, arm {}: {e}", arm.name))?;
        }
        Ok(())
    }

    /// `class_lanes` on every arm ≡ the scalar reference ≡ the transpose it
    /// is documented as, bit for bit, NaN payloads included: `classes`
    /// [`sprinkled`] rows of `f` features into lanes padded to
    /// [`CLASS_LANES`] that start as NaN garbage, the padding lanes zero.
    fn check_class_lanes(classes: usize, f: usize, seed: u64, rare: u32) -> Result<(), String> {
        let kp = classes.next_multiple_of(CLASS_LANES);
        let w = sprinkled(classes * f, seed, rare);
        let garbage = f32::from_bits(0x7fc0_dead);
        let start: Vec<f32> = (0..f * kp)
            .map(|i| if i % kp < classes { garbage } else { 0.0 })
            .collect();
        let mut expected = start.clone();
        scalar::class_lanes(&w, f, &mut expected);
        for (i, lane) in expected.iter().enumerate() {
            let (j, c) = (i / kp, i % kp);
            let want = if c < classes { w[c * f + j] } else { 0.0 };
            prop_assert_eq!(lane.to_bits(), want.to_bits(), "feature {} lane {}", j, c);
        }
        for arm in arms() {
            let mut wt = start.clone();
            // SAFETY: `arms` lists only tables the host runs; `f` is not
            // zero, `w` holds `classes` rows of `f`, and `wt` `f` rows of
            // `kp` lanes, the padding lanes zero.
            unsafe { (arm.class_lanes)(&w, f, &mut wt) };
            prop_assert_eq!(bits(&wt), bits(&expected), "class_lanes, arm {}", arm.name);
        }
        Ok(())
    }

    /// `outer_accumulate` on every arm ≡ the scalar reference over a batch
    /// of `batch` samples — the last one short of features when `short` —
    /// whose error rows have `classes` lanes, padded or not, into gradient
    /// buffers full of NaN garbage.
    fn check_outer_accumulate(
        classes: usize,
        f: usize,
        batch: usize,
        (padded, short): (bool, bool),
        seed: u64,
        rare: u32,
    ) -> Result<(), String> {
        let stride = if padded {
            classes.next_multiple_of(CLASS_LANES)
        } else {
            classes
        };
        let err = sprinkled(batch * stride, seed, rare);
        let mut samples: Vec<Vec<f32>> = (0..batch)
            .map(|s| sprinkled(f, seed ^ (s as u64 + 1) << 32, rare))
            .collect();
        if short {
            samples[batch - 1].truncate(f / 2);
        }
        let xs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let (mut weights, mut bias) = (vec![f32::NAN; classes * f], vec![f32::NAN; classes]);
        scalar::outer_accumulate(&mut weights, &mut bias, &err, stride, &xs);
        for arm in arms() {
            let (mut w, mut b) = (vec![f32::NAN; classes * f], vec![f32::NAN; classes]);
            // SAFETY: `arms` lists only tables the host runs; `bias` is not
            // empty, `w` holds `classes` rows of `f`, and `err` holds
            // `xs.len()` rows of `stride >= classes`.
            unsafe { (arm.outer_accumulate)(&mut w, &mut b, &err, stride, &xs) };
            same_bits_or_nan(&w, &weights)
                .map_err(|e| format!("weights, arm {}: {e}", arm.name))?;
            same_bits_or_nan(&b, &bias).map_err(|e| format!("bias, arm {}: {e}", arm.name))?;
        }
        Ok(())
    }

    /// The reference passes are the sums they are documented as, element by
    /// element: each logit `-0.0 + Σ_j` in feature order, each gradient
    /// element and bias `+0.0 + Σ_s` in sample order, a short sample adding
    /// nothing past its end.
    #[test]
    fn the_reference_passes_are_their_sums_in_order() {
        let (classes, f, batch) = (9usize, 65, 5);
        let kp = classes.next_multiple_of(CLASS_LANES);
        let wt = sprinkled(f * kp, 3, 40);
        let x = sprinkled(f, 4, 40);
        let mut out = vec![f32::NAN; kp];
        scalar::logits(&wt, &x, &mut out);
        for (c, logit) in out.iter().enumerate() {
            let sum = (0..f).fold(-0.0f32, |acc, j| acc + wt[j * kp + c] * x[j]);
            assert_eq!(logit.to_bits(), sum.to_bits(), "lane {c}");
        }
        let err = sprinkled(batch * kp, 5, 0);
        let mut samples: Vec<Vec<f32>> =
            (0..batch as u64).map(|s| sprinkled(f, 6 + s, 0)).collect();
        samples[2].truncate(10);
        let xs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let (mut weights, mut bias) = (vec![f32::NAN; classes * f], vec![f32::NAN; classes]);
        scalar::outer_accumulate(&mut weights, &mut bias, &err, kp, &xs);
        for c in 0..classes {
            let b = (0..batch).fold(0.0f32, |acc, s| acc + err[s * kp + c]);
            assert_eq!(bias[c].to_bits(), b.to_bits(), "bias {c}");
            for j in 0..f {
                let terms = (0..batch).filter(|&s| j < xs[s].len());
                let g = terms.fold(0.0f32, |acc, s| acc + err[s * kp + c] * xs[s][j]);
                assert_eq!(
                    weights[c * f + j].to_bits(),
                    g.to_bits(),
                    "class {c} feature {j}"
                );
            }
        }
    }

    /// Every class count against every feature count, once each, on every
    /// arm, with and without non-finite values.
    #[test]
    fn the_trainer_passes_match_at_every_listed_shape() {
        for (i, (&classes, &f)) in CLASSES
            .iter()
            .flat_map(|k| FEATURES.iter().map(move |f| (k, f)))
            .enumerate()
        {
            let seed = i as u64;
            for rare in [0, 17] {
                check_logits(classes, f, true, seed, rare).unwrap();
                check_outer_accumulate(classes, f, 1 + i % 33, (true, false), seed, rare).unwrap();
                check_class_lanes(classes, f, seed, rare).unwrap();
                let spread = SPREADS[i % SPREADS.len()];
                let rows = 1 + i % 33;
                check_softmax_rows(classes, rows, (true, i % 2 == 0), (spread, seed, rare))
                    .unwrap();
            }
        }
    }

    proptest! {
        /// `logits`: every table's lanes ≡ the scalar reference, NaN lanes
        /// compared as NaN, over the listed class and feature counts, padded
        /// and unpadded rows, and no, rare or frequent non-finite values.
        #[test]
        fn logits_match_on_every_arm(
            (ki, fi, padded) in (0..CLASSES.len(), 0..FEATURES.len(), any::<bool>()),
            seed in any::<u64>(),
            rare in 0..RARE.len(),
        ) {
            check_logits(CLASSES[ki], FEATURES[fi], padded, seed, RARE[rare])?;
        }

        /// `outer_accumulate`: every table's gradient and bias ≡ the scalar
        /// reference, NaN lanes compared as NaN, over the listed class and
        /// feature counts, batches of 1 to 33 samples (the last one short
        /// of features in some), padded and unpadded error rows, and no,
        /// rare or frequent non-finite values.
        #[test]
        fn outer_accumulate_matches_on_every_arm(
            (ki, fi, batch) in (0..CLASSES.len(), 0..FEATURES.len(), 1usize..=33),
            shape in (any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
            rare in 0..RARE.len(),
        ) {
            check_outer_accumulate(CLASSES[ki], FEATURES[fi], batch, shape, seed, RARE[rare])?;
        }

        /// `softmax_rows`: every table's probabilities ≡ the scalar
        /// reference, NaN lanes compared as NaN, over the listed class
        /// counts, 1 to 33 rows, padded and unpadded rows (the padding
        /// untouched), logit spreads within and past `expf`'s range, rows of
        /// edge logits, and no, rare or frequent NaN, ±∞, ±0.0 and
        /// subnormal logits.
        #[test]
        fn softmax_rows_match_on_every_arm(
            (ki, rows, shape) in (0..CLASSES.len(), 1usize..=33, (any::<bool>(), any::<bool>())),
            (spread, rare) in (0..SPREADS.len(), 0..RARE.len()),
            seed in any::<u64>(),
        ) {
            check_softmax_rows(CLASSES[ki], rows, shape, (SPREADS[spread], seed, RARE[rare]))?;
        }

        /// `class_lanes`: every table's lanes ≡ the scalar transpose, bit for
        /// bit, over the listed class and feature counts (whole and partial
        /// 8 × 8 blocks of both), with no, rare or frequent non-finite
        /// weights.
        #[test]
        fn class_lanes_match_on_every_arm(
            (ki, fi) in (0..CLASSES.len(), 0..FEATURES.len()),
            seed in any::<u64>(),
            rare in 0..RARE.len(),
        ) {
            check_class_lanes(CLASSES[ki], FEATURES[fi], seed, RARE[rare])?;
        }
    }
}
