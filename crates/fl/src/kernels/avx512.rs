//! AVX-512 implementations of the `Uniform8` stochastic encoders and of the
//! local trainer's two passes.
//!
//! Only [`encode_u8`], [`feedback_append_u8`], [`logits`] and
//! [`outer_accumulate`] live here: every other kernel stays on
//! `super::avx2` on an AVX-512 host, `Uniform4` included. The trainer's
//! passes are `avx2.rs`'s register tiles sixteen lanes wide, multiply then
//! add in the same per-element order, and hand what their tiles leave to
//! the AVX2 arm; see "The trainer's passes" below.
//!
//! The two encoders are bit-exact with their counterparts in
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
//! # The trainer's passes
//!
//! [`logits`] holds a tile of 64 class lanes in four zmm accumulators for
//! the whole feature loop; [`outer_accumulate`] holds two classes' 64
//! features in eight, so each sample's four feature vectors are loaded
//! once for both classes. Each lane still adds its terms in feature (or
//! sample) order, one multiply and one add per term, so the results are
//! the scalar arm's bit for bit, NaN payloads aside. On the same KVM Intel
//! Xeon (model 207), a 50-round federated training benchmark of 128
//! features and 62 classes (`train_cluster`, seed 1, 8 alternating pairs)
//! ran its rounds in a median 8.70 ms with these arms against 9.95 ms with
//! `AVX512` taking both passes from AVX2, −12.6 %, faster in every pair.
//!
//! All functions are `unsafe` because they require AVX-512F and AVX-512DQ
//! (and the trainer's passes AVX2, for the lanes their tiles leave).
//! They are entries of the parent module's `AVX512` table (the rest of
//! which is `AVX2`'s), reached only after `is_x86_feature_detected!`
//! reported both, and AVX2.

use core::arch::x86_64::*;

use super::{avx2, scalar, StochasticRng, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2};
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

/// Safety: caller must have verified AVX-512F, AVX-512DQ and AVX2 support
/// at runtime; `wt` holds `x.len()` rows of `out.len()`.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; the
// dispatcher in `super` calls this only after `is_x86_feature_detected!`
// reported both and AVX2, with `wt` cut to `x.len() * out.len()` elements.
// Every tile starts at or after 0 and ends at or before `out.len()`, which
// is what `logit_tile` needs, and the lanes they leave go to the AVX2 arm
// under the same contract.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn logits(wt: &[f32], x: &[f32], out: &mut [f32]) {
    let kp = out.len();
    let mut c = 0usize;
    while c + 64 <= kp {
        logit_tile::<4>(wt, x, out, c);
        c += 64;
    }
    match (kp - c) / 16 {
        1 => logit_tile::<1>(wt, x, out, c),
        2 => logit_tile::<2>(wt, x, out, c),
        3 => logit_tile::<3>(wt, x, out, c),
        _ => {}
    }
    c += (kp - c) / 16 * 16;
    avx2::logits_from(wt, x, out, c);
}

/// The `16 * V` class lanes from `c` of [`logits`], `avx2::logit_tile`
/// sixteen lanes wide: `V` accumulators from `-0.0` in registers for the
/// whole feature loop, `w * x` multiplied then added, one store each.
///
/// Safety: caller must have verified AVX-512F support at runtime; `wt`
/// holds `x.len()` rows of `out.len()`, and `c + 16 * V <= out.len()`.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)` and the
// raw loads and stores. Row `j`'s load at `j * kp + c + 16 * v` ends at or
// before `j * kp + c + 16 * V <= (j + 1) * kp <= wt.len()`, and the stores
// at `c + 16 * v` end at or before `c + 16 * V <= out.len()` (the caller's
// contract).
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn logit_tile<const V: usize>(wt: &[f32], x: &[f32], out: &mut [f32], c: usize) {
    let kp = out.len();
    let mut acc = [_mm512_set1_ps(-0.0); V];
    for (j, xj) in x.iter().enumerate() {
        let xj = _mm512_set1_ps(*xj);
        let row = wt.as_ptr().add(j * kp + c);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm512_add_ps(*a, _mm512_mul_ps(_mm512_loadu_ps(row.add(16 * v)), xj));
        }
    }
    let to = out.as_mut_ptr().add(c);
    for (v, a) in acc.iter().enumerate() {
        _mm512_storeu_ps(to.add(16 * v), *a);
    }
}

/// Safety: caller must have verified AVX-512F, AVX-512DQ and AVX2 support
/// at runtime; `bias` is not empty, `weights.len()` is a multiple of
/// `bias.len()`, and `err` holds `xs.len()` rows of `stride >= bias.len()`.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)`; the
// dispatcher in `super` calls this only after `is_x86_feature_detected!`
// reported both and AVX2. A batch with a sample shorter than the `f`
// features goes to the scalar arm, so every sample covers `f`; every tile
// ends at or before `f`, and row `c + 1` of a pair exists, which is what
// `gradient_tile` needs; the features left go to the AVX2 arm under the
// same contract.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn outer_accumulate(
    weights: &mut [f32],
    bias: &mut [f32],
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    let classes = bias.len();
    let f = weights.len() / classes;
    if xs.iter().any(|x| x.len() < f) {
        return scalar::outer_accumulate(weights, bias, err, stride, xs);
    }
    scalar::bias_row(bias, err, stride, xs.len());
    let mut j = 0usize;
    while j + 64 <= f {
        let mut c = 0usize;
        while c + 2 <= classes {
            gradient_tile::<2>(weights, f, c, j, err, stride, xs);
            c += 2;
        }
        if c < classes {
            gradient_tile::<1>(weights, f, c, j, err, stride, xs);
        }
        j += 64;
    }
    avx2::gradient_from(weights, classes, err, stride, xs, j);
}

/// Classes `c..c + C`'s 64 features from `j` of [`outer_accumulate`]:
/// `4 * C` accumulators from `+0.0` in registers across the batch, each
/// sample's four feature vectors loaded once and `err * x` multiplied then
/// added into every class's row, so each element's chain of adds runs in
/// sample order; one store each.
///
/// Safety: caller must have verified AVX-512F support at runtime; `weights`
/// holds rows of `f`, every sample covers `f`, `j + 64 <= f`, and `err`
/// holds `xs.len()` rows of `stride >= c + C`, `c + C` rows existing.
// SAFETY: `unsafe` solely for `target_feature(avx512f, avx512dq)` and the
// raw loads and stores. Each sample's loads at `j + 16 * v` end at or
// before `j + 64 <= f <= x.len()`, and the stores at
// `(c + r) * f + j + 16 * v` end at or before `(c + C) * f <=
// weights.len()` (the caller's contract); `err` is read through
// bounds-checked indexing.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn gradient_tile<const C: usize>(
    weights: &mut [f32],
    f: usize,
    c: usize,
    j: usize,
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    let mut acc = [[_mm512_setzero_ps(); 4]; C];
    for (s, x) in xs.iter().enumerate() {
        let from = x.as_ptr().add(j);
        let mut x = [_mm512_setzero_ps(); 4];
        for (v, x) in x.iter_mut().enumerate() {
            *x = _mm512_loadu_ps(from.add(16 * v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let e = _mm512_set1_ps(err[s * stride + c + r]);
            for (a, x) in row.iter_mut().zip(x) {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(e, x));
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let to = weights.as_mut_ptr().add((c + r) * f + j);
        for (v, a) in row.iter().enumerate() {
            _mm512_storeu_ps(to.add(16 * v), *a);
        }
    }
}
