//! AVX-512 implementations of the `Uniform8` stochastic encoders.
//!
//! Only [`encode_u8`] and [`feedback_append_u8`] live here: every other
//! kernel stays on `super::avx2` on an AVX-512 host, `Uniform4` included.
//! Both functions are bit-exact with their counterparts in
//! [`super::scalar`] for every input, for the reasons `avx2.rs` gives for
//! its 8-lane loop, which this 16-lane one mirrors operation for operation:
//! multiply, floor (`_mm512_roundscale_ps` rounding toward −∞), subtract,
//! the 24-bit threshold compare, the add of `+1.0` or `+0.0`, the min-then-max
//! clamp that returns its second operand on NaN, the conversion of an
//! exactly integral level, and non-finite lanes zeroed by their mask. The
//! `+1.0` comes from a zero-masked move, so a lane that does not round up
//! adds `+0.0` — `-0.0 + 0.0` is `+0.0`, as on the other arms — and the
//! saturating pack `_mm512_cvtsepi32_epi8` is the identity on levels already
//! clamped into `[-127, 127]`.
//!
//! # Counter-mode draws, eight `u64` lanes at a time
//!
//! The rounding words are the stream [`StochasticRng::fill`] defines, drawn
//! in registers as in `avx2.rs`, twice as wide:
//!
//! * **lane ↔ stream word.** `draw16` holds the counters of the next eight
//!   draws, `state + {1, …, 8} * gamma`, in the eight `u64` lanes of one
//!   zmm register, and steps them by `8 * gamma`. `fill` stores each draw low
//!   half first and a little-endian `u64` lane is its low `u32` lane followed
//!   by its high one, so `u32` lane `j` of the `i`-th `draw16` is stream word
//!   `16 * i + j`: the word element `16 * i + j` rounds with, with no shuffle.
//! * **the 64-bit multiplies are exact.** `_mm512_mullo_epi64` (`vpmullq`,
//!   AVX512DQ) keeps the low 64 bits of each 64 × 64-bit product, which is
//!   `a * b mod 2^64` — exactly `u64::wrapping_mul`. One instruction replaces
//!   the three 32 × 32-bit multiplies, shifts and adds AVX2's `mul64`
//!   assembles it from, over twice the lanes.
//!
//! Why the arm pays differs by core, so it is kept on measurement, not on
//! an instruction count. Where `vpmullq` is one µop (the AMD EPYC this arm
//! was first measured on) the draws' multiplies were what bounded the AVX2
//! loop, and the arm halved `quant_cluster` ingest. Where it decodes into
//! several µops (Intel cores), the multiplies cost about what AVX2's do per
//! lane, and the gain comes from 16 lanes per step instead: on one vCPU of
//! a KVM Intel Xeon (family 6, model 207) a hot 1 MiB `encode_u8` took
//! ≈ 310–415 µs here against ≈ 430–550 µs on the AVX2 arm (medians of 41
//! calls, two runs). A host where the arm measures slower than AVX2 is a
//! reason to drop its table entries, not to keep them.
//! * **the tail rule.** The loop consumes whole groups of 16 words, i.e.
//!   whole draws. Stopped at element `i`, it moves the generator on by
//!   `i / 2` draws (`StochasticRng::skip`) and hands the rest — fewer than
//!   16 elements — to the scalar kernel *with the generator*, whose `fill`
//!   discards the high half of an odd last draw exactly once. The position
//!   afterwards is `fill(len)`'s by construction.
//!
//! All functions are `unsafe` because they require AVX-512F and AVX-512DQ.
//! They are entries of the parent module's `AVX512` table (the rest of
//! which is `AVX2`'s), reached only after `is_x86_feature_detected!`
//! reported both, and AVX2.

use core::arch::x86_64::*;

use super::{scalar, StochasticRng, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2};
use std::mem::MaybeUninit;

/// The counters of the next eight draws of `rng`: `state + {1, …, 8} *
/// gamma`, one per `u64` lane, in draw order.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; pure
// register arithmetic with no memory access, gated by the dispatcher's
// CPUID check.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn first_counters(rng: &StochasticRng) -> __m512i {
    let g = |k: u64| SPLITMIX_GAMMA.wrapping_mul(k) as i64;
    _mm512_add_epi64(
        _mm512_set1_epi64(rng.state as i64),
        _mm512_setr_epi64(g(1), g(2), g(3), g(4), g(5), g(6), g(7), g(8)),
    )
}

/// The next sixteen words of the stream `counters` stands at — eight
/// splitmix64 draws mixed in registers, `u32` lane `j` being the `j`-th word
/// [`StochasticRng::fill`] would store — and `counters` stepped eight draws
/// on.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; pure
// register arithmetic with no memory access, gated by the dispatcher's
// CPUID check.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn draw16(counters: &mut __m512i) -> __m512i {
    let mut z = *counters;
    *counters = _mm512_add_epi64(z, _mm512_set1_epi64(SPLITMIX_GAMMA.wrapping_mul(8) as i64));
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
        _mm512_set1_epi64(SPLITMIX_MUL1 as i64),
    );
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
        _mm512_set1_epi64(SPLITMIX_MUL2 as i64),
    );
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

/// [`StochasticRng::fill`] through the in-register draws, so the proptests
/// can compare the two streams word for word: whole groups of sixteen words
/// from [`draw16`], the remainder — with the generator — from `fill` itself,
/// exactly as the encoders split their elements.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; the test
// calls this only on a host whose CPUID reports both, and the 16-word
// stores at `i` stay in bounds while `i + 16 <= words.len()`.
#[cfg(test)]
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn fill_in_registers(rng: &mut StochasticRng, words: &mut [u32]) {
    let mut counters = first_counters(rng);
    let mut i = 0usize;
    while i + 16 <= words.len() {
        _mm512_storeu_si512(words.as_mut_ptr().add(i).cast(), draw16(&mut counters));
        i += 16;
    }
    rng.skip((i / 2) as u64);
    rng.fill(&mut words[i..]);
}

/// Vector counterpart of [`scalar::quantize_one`] for 16 lanes: the level of
/// each lane of `v` as an `i32`, non-finite lanes 0.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; pure
// register arithmetic with no memory access, gated by the dispatcher's
// CPUID check.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn quantize16(v: __m512, inv: __m512, hi: __m512, lo: __m512, w: __m512i) -> __m512i {
    let finite = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(v), _mm512_set1_ps(f32::INFINITY));
    let q = _mm512_mul_ps(v, inv);
    let f = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(q);
    let frac = _mm512_sub_ps(q, f);
    let r = _mm512_mul_ps(
        _mm512_cvtepi32_ps(_mm512_srli_epi32::<8>(w)),
        _mm512_set1_ps(1.0 / 16_777_216.0),
    );
    let up = _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask::<_CMP_LT_OQ>(r, frac),
        _mm512_set1_ps(1.0),
    );
    // min/max return the second operand on NaN, matching f32::min/f32::max
    // with NaN `self`, so saturated/NaN lanes clamp exactly like the scalar.
    let level = _mm512_max_ps(_mm512_min_ps(_mm512_add_ps(f, up), hi), lo);
    // Levels are exactly integral here, so round-nearest conversion matches
    // the scalar truncating `as i32`.
    _mm512_maskz_mov_epi32(finite, _mm512_cvtps_epi32(level))
}

/// The one `Uniform8` inner loop, `avx2::quantize_u8` sixteen lanes wide:
/// quantizes the whole groups of 16 among the `n` elements at `values` into
/// `out`, drawing their rounding words in registers, and returns how many
/// elements that was; `rng` is left past exactly their draws. With
/// `FEEDBACK`, each element is also replaced by what the quantizer dropped
/// of it, `v + f32(level) * k` — `fold_u8_n`'s expression over the level just
/// stored.
///
/// Safety: caller must have verified AVX-512F and AVX-512DQ support at
/// runtime; `values` must be valid for reads of `n` elements — and for
/// writes, when `FEEDBACK` — and `out` at least `n` bytes long.
// SAFETY: `unsafe` for `target_feature(avx512f, avx512dq)` and the raw
// element pointer, which lets the plain and feedback encoders share this
// body: the two wrappers below derive it from a slice of `n` elements (a
// `&mut` one when `FEEDBACK`; nothing is written through it otherwise), and
// the 16-lane loads and stores and the 16-byte level stores at `i` stay
// inside `n` while `i + 16 <= n`.
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn quantize_u8<const FEEDBACK: bool>(
    values: *mut f32,
    n: usize,
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) -> usize {
    let invv = _mm512_set1_ps(inv);
    let kv = _mm512_set1_ps(k);
    let hi = _mm512_set1_ps(levels);
    let lo = _mm512_set1_ps(-levels);
    let mut counters = first_counters(rng);
    let mut i = 0usize;
    while i + 16 <= n {
        let v = _mm512_loadu_ps(values.add(i));
        let li = quantize16(v, invv, hi, lo, draw16(&mut counters));
        // The saturating pack is the identity for levels in [-127, 127], and
        // the low byte of each i32 level is exactly the scalar `as u8`.
        _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtsepi32_epi8(li));
        if FEEDBACK {
            // `f32(level)` is what `fold_u8_n` reads back out of the byte.
            let kept = _mm512_mul_ps(_mm512_cvtepi32_ps(li), kv);
            _mm512_storeu_ps(values.add(i), _mm512_add_ps(v, kept));
        }
        i += 16;
    }
    rng.skip((i / 2) as u64);
    i
}

/// Safety: caller must have verified AVX-512F and AVX-512DQ support at
/// runtime; `out` must be at least as long as `params`.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; the
// dispatcher checks both first and sizes `out` to `params.len()`;
// `quantize_u8::<false>` only reads through the pointer, which covers
// `params`.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn encode_u8(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    let values = params.as_ptr().cast_mut();
    let i = quantize_u8::<false>(values, params.len(), inv, 0.0, levels, rng, out);
    scalar::encode_u8(&params[i..], inv, levels, rng, &mut out[i..]);
}

/// Safety: caller must have verified AVX-512F and AVX-512DQ support at
/// runtime; `out` must be at least as long as `residual`.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; the
// dispatcher checks both first and sizes `out` to `residual.len()`; the
// pointer comes from the exclusive borrow of `residual`, so
// `quantize_u8::<true>` may write it.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn feedback_append_u8(
    residual: &mut [f32],
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    let values = residual.as_mut_ptr();
    let i = quantize_u8::<true>(values, residual.len(), inv, k, levels, rng, out);
    scalar::feedback_append_u8(&mut residual[i..], inv, k, levels, rng, &mut out[i..]);
}
