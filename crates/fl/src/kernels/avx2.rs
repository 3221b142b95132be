//! AVX2 implementations of the hot kernels.
//!
//! Every function here is bit-exact with its counterpart in
//! [`super::scalar`]. That property is engineered, not incidental:
//!
//! * only exactly-rounded IEEE-754 operations are used (multiply, add,
//!   subtract, divide, floor, compare, min/max), and FMA only in the f64
//!   steps of `expf` (see "The softmax" below) — nowhere else, as it would
//!   contract a separate multiply and add the scalar arm performs;
//! * `_mm256_min_ps`/`_mm256_max_ps` return their **second** operand when
//!   either input is NaN, matching `f32::min`/`f32::max` with a NaN `self`,
//!   so the clamp `max(min(x, hi), lo)` agrees with the scalar
//!   `x.min(hi).max(lo)` for every input including NaN and infinity;
//! * `_mm256_cvtps_epi32` rounds to nearest-even while the scalar arm
//!   truncates with `as i32`, which agree because quantized levels are
//!   exactly integral by construction at the point of conversion;
//! * integer packs (`packs_epi32`/`packs_epi16`) saturate, which is the
//!   identity for levels already clamped into `[-127, 127]`.
//!
//! Each kernel handles the vector-width remainder by delegating the tail to
//! the scalar reference, so odd lengths take the same path in both arms.
//!
//! # The softmax and the class-lane transpose
//!
//! [`softmax_rows`] is `super::expf` in f64 lanes. `exp4` widens four f32
//! lanes and runs glibc's FMA form of it — the two fused multiply-adds
//! that split `x·32/ln 2` into `k` and `r`, a gather of `T[k mod 32]`, the
//! three fused multiply-adds of the cubic, one multiply, one f32 rounding.
//! The scalar main path forms the same `r` exactly and the rest unfused,
//! and the exhaustive `expf` test finds the two equal for every
//! `|x| < 88`; `exp8` then recomputes any lane of `|x| ≥ 88` or NaN through
//! the scalar special path, as the scalar arm branches. Per row the max is
//! an 8-lane `max` from −∞ that skips NaN, the divide is exact, and the sum
//! is the scalar chain (`scalar::row_sums` runs eight rows' chains side by
//! side). A row's partial vector at the end goes through masked loads and
//! stores. [`class_lanes`] transposes 8 classes × 8 features at a time in
//! registers (unpack, shuffle, lane permute: every bit pattern moves
//! unchanged); a partial block of classes is transposed from zeros, which
//! the padding lanes already hold, and the features past the last whole
//! block are copied one at a time.
//!
//! # Counter-mode draws
//!
//! The stochastic encoders need one `u32` rounding word per element, and the
//! scalar arm defines which: [`StochasticRng::fill`] over a stack block.
//! Here no block exists. splitmix64 is a pure function of an additive
//! counter, so `draw8` holds the counters of the next four draws,
//! `state + {1, 2, 3, 4} * gamma`, in the four `u64` lanes of one register,
//! mixes all four at once and steps the counters by `4 * gamma`:
//!
//! * **lane ↔ stream word.** `fill` stores each 64-bit draw low half first,
//!   and a little-endian `u64` lane *is* its low `u32` lane followed by its
//!   high one — so `u32` lane `j` of the `i`-th `draw8` is stream word
//!   `8 * i + j`, the word `fill` would have stored for element `8 * i + j`,
//!   with no shuffle.
//! * **the 64-bit multiplies are exact.** AVX2 has no 64 × 64 multiply;
//!   `mul64` builds `a * b mod 2^64` as `lo(a) * lo(b) + ((hi(a) * lo(b) +
//!   lo(a) * hi(b)) << 32)` from three `_mm256_mul_epu32` (32 × 32 → 64, no
//!   rounding anywhere) and wrapping 64-bit adds; the dropped `hi * hi` term
//!   and every carry out of bit 63 are multiples of `2^64`. The xor-shifts
//!   are `_mm256_srli_epi64`, lane for lane `z ^ (z >> s)`.
//! * **the odd-tail rule.** A vector loop only ever consumes whole groups of
//!   8 (or 16) words, i.e. whole draws. When it stops at element `i` it
//!   moves the generator on by `i / 2` draws (`StochasticRng::skip`) and
//!   hands the rest — fewer than one vector of elements — to the scalar
//!   kernel *with the generator*, whose `fill` of the remainder discards the
//!   high half of an odd last draw exactly once. The position afterwards is
//!   `fill(len)`'s by construction.
//!
//! Three arms draw this one stream. The scalar arm stores it through `fill`;
//! this arm mixes four draws per `draw8`; the `Uniform8` encoders'
//! AVX-512 arm (`avx512.rs`) mixes eight per `draw16`, with one native
//! `vpmullq` per 64-bit multiply where `mul64` needs three `vpmuludq`. Word
//! `j` of a vector is stream word `j` past the vector's first in every arm,
//! and every arm ends where `fill(len)` ends.
//!
//! **How to add a stochastic kernel:** write the scalar arm over
//! `rng.fill(block)`; in the AVX2 arm take `first_counters(rng)` once, call
//! `draw8` once per 8 elements *in element order*, `rng.skip(i / 2)` after
//! the loop, and pass `rng` on to the scalar arm for the tail — never call
//! `fill` or keep a word buffer here. An AVX-512 arm follows the same rule
//! with `avx512.rs`'s `first_counters` and `draw16` per 16 elements. Add
//! the kernel as a field of the parent module's `Kernels` and an entry in
//! each table (an AVX-512 arm as an entry of `AVX512`): the compiler
//! rejects a table without it or an entry of another signature. Then add
//! the kernel to `stochastic_kernels_draw_the_fill_stream` and
//! `encoders_match_bitwise` in the parent module's proptests, which run it
//! on every arm the host runs and check the bytes, the residual bits and the
//! generator's next words.
//!
//! All functions are `unsafe` because they require AVX2 (the softmax also
//! FMA). The parent module's `AVX2` table holds every kernel here, and its
//! `AVX512` table every one but the `Uniform8` encoders and the trainer's
//! two passes; a table is only reached after
//! `is_x86_feature_detected!` reported its features.

use core::arch::x86_64::*;

use super::{
    scalar, Keys, Pass, StochasticRng, EXP_INV_LN2_N, EXP_POLY, EXP_SHIFT, EXP_SPECIAL_ABS,
    EXP_TABLE, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2,
};
use std::mem::MaybeUninit;

/// Builds the sign-magnitude nibble lookup table in a register: lane `i`
/// holds `scalar::NIBBLE_F32[i]` as an `i8`.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; only reachable from
/// kernels that the dispatcher gates behind `is_x86_feature_detected!`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nibble_table() -> __m128i {
    _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 0, -1, -2, -3, -4, -5, -6, -7)
}

/// Expands 8 packed nibble bytes into 16 sign-extended `i8` level values in
/// element order (low nibble first), using an in-register shuffle instead of
/// the scalar 16-entry table lookup.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn unpack_nibbles(bytes: __m128i) -> __m128i {
    let low_mask = _mm_set1_epi8(0x0F);
    let lo = _mm_and_si128(bytes, low_mask);
    let hi = _mm_and_si128(_mm_srli_epi16::<4>(bytes), low_mask);
    // Interleave to n0, n1, n2, ... n15, then map nibble -> signed level.
    _mm_shuffle_epi8(nibble_table(), _mm_unpacklo_epi8(lo, hi))
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `srcs` and
/// `weights` hold the same number of entries, and every source at least
/// `4 * acc.len()` bytes.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`, with
/// `acc` cut so that every source covers `4 * acc.len()` bytes, which is what
/// `fold_sources` needs. A count past eight falls through to the scalar arm.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fold_dense_le_n(acc: &mut [f32], srcs: &[&[u8]], weights: &[f32], pass: Pass) {
    match srcs.len() {
        1 => fold_sources::<1>(acc, srcs, weights, pass),
        2 => fold_sources::<2>(acc, srcs, weights, pass),
        3 => fold_sources::<3>(acc, srcs, weights, pass),
        4 => fold_sources::<4>(acc, srcs, weights, pass),
        5 => fold_sources::<5>(acc, srcs, weights, pass),
        6 => fold_sources::<6>(acc, srcs, weights, pass),
        7 => fold_sources::<7>(acc, srcs, weights, pass),
        8 => fold_sources::<8>(acc, srcs, weights, pass),
        _ => scalar::fold_dense_le_n(acc, srcs, weights, pass),
    }
}

/// [`fold_dense_le_n`] over exactly `N` sources: per 8 lanes, one
/// accumulator load (on a fresh pass, a zeroed register instead), `N`
/// chained `v + w_k * s_k` in source order (the multiply and the add
/// separate, as the scalar arm does them), the pass's scale multiplied in if
/// it has one, and one store; the sub-vector tail goes to the scalar arm.
///
/// A NaN sum must end up as the canonical NaN: which payload it carries
/// depends on operand order, and the compiler treats `addps`/`mulps` as
/// commutative (it folds the accumulator load into the add as either
/// operand). A blend per vector cost the single-source fold ≈ 30 % of its
/// in-cache speed, so NaN lanes are only detected in the loop — one
/// `cmpunord` per two vectors, true where either is NaN — and a call that
/// produced one rewrites its NaNs afterwards.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `srcs` and
/// `weights` hold at least `N` entries, and every source at least
/// `4 * acc.len()` bytes.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw loads and
/// stores. `out` is taken from the exclusive borrow of `acc` and is not used
/// once `acc` is borrowed again; the 8-lane accumulator load/store at `i` and
/// each source's 32-byte load at byte `4 * i` stay in bounds because `fold8`
/// is only called with `i + 8 <= acc.len()`, and every source covers
/// `4 * acc.len()` bytes (the caller's contract).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold_sources<const N: usize>(
    acc: &mut [f32],
    srcs: &[&[u8]],
    weights: &[f32],
    pass: Pass,
) {
    let n = acc.len();
    let mut w = [_mm256_setzero_ps(); N];
    for (slot, wk) in w.iter_mut().zip(weights) {
        *slot = _mm256_set1_ps(*wk);
    }
    let mut from = [std::ptr::null::<f32>(); N];
    for (slot, src) in from.iter_mut().zip(srcs) {
        *slot = src.as_ptr().cast();
    }
    let scale = _mm256_set1_ps(pass.scale.unwrap_or(1.0));
    let out = acc.as_mut_ptr();
    // The 8 lanes at `i`: folded, stored, and returned for the NaN check.
    let fold8 = |i: usize| {
        let mut v = if pass.fresh {
            _mm256_setzero_ps()
        } else {
            _mm256_loadu_ps(out.add(i))
        };
        for (src, wk) in from.iter().zip(w) {
            v = _mm256_add_ps(v, _mm256_mul_ps(wk, _mm256_loadu_ps(src.add(i))));
        }
        if pass.scale.is_some() {
            v = _mm256_mul_ps(v, scale);
        }
        _mm256_storeu_ps(out.add(i), v);
        v
    };
    let mut nan = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let (a, b) = (fold8(i), fold8(i + 8));
        nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(a, b));
        i += 16;
    }
    if i + 8 <= n {
        let a = fold8(i);
        nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a));
        i += 8;
    }
    if _mm256_movemask_ps(nan) != 0 {
        for a in acc[..i].iter_mut().filter(|a| a.is_nan()) {
            *a = f32::NAN;
        }
    }
    let mut tails: [&[u8]; N] = [&[]; N];
    for (tail, src) in tails.iter_mut().zip(srcs) {
        *tail = &src[4 * i..];
    }
    scalar::fold_dense_le_n(&mut acc[i..], &tails, &weights[..N], pass);
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `srcs` and
/// `ks` hold the same number of entries, and every source at least
/// `acc.len()` levels.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`, with
/// `acc` cut so that every source covers `acc.len()` levels, which is what
/// `fold_levels` needs. A count past eight falls through to the scalar arm.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fold_u8_n(acc: &mut [f32], srcs: &[&[u8]], ks: &[f32], pass: Pass) {
    match srcs.len() {
        1 => fold_levels::<1>(acc, srcs, ks, pass),
        2 => fold_levels::<2>(acc, srcs, ks, pass),
        3 => fold_levels::<3>(acc, srcs, ks, pass),
        4 => fold_levels::<4>(acc, srcs, ks, pass),
        5 => fold_levels::<5>(acc, srcs, ks, pass),
        6 => fold_levels::<6>(acc, srcs, ks, pass),
        7 => fold_levels::<7>(acc, srcs, ks, pass),
        8 => fold_levels::<8>(acc, srcs, ks, pass),
        _ => scalar::fold_u8_n(acc, srcs, ks, pass),
    }
}

/// [`fold_u8_n`] over exactly `N` sources: per 8 lanes, one accumulator
/// load (on a fresh pass, a zeroed register instead), `N` chained
/// `v + level_k * k_k` in source order (the multiply and the add separate,
/// as the scalar arm does them), the pass's scale multiplied in if it has
/// one, and one store; the sub-vector tail goes to the scalar arm. There is
/// no NaN rewrite, unlike the dense fold: a level is never NaN, so while
/// every factor is finite an add has at most one NaN operand, whose payload
/// both arms return. An infinite factor (a parsed view's scale is finite,
/// but `weight * scale` can overflow) makes 0 · ∞ = NaN at a level-0 lane;
/// where that meets a NaN accumulator lane the sum is NaN on every arm, its
/// payload unpinned. The engine's doors refuse such a factor on an offer
/// that arrives encoded; a dense offer the ingress encodes itself can still
/// bring one. A fresh pass loads no accumulator lane, so from zeros
/// every NaN is the one 0 · ∞ or ∞ − ∞ makes and every bit is pinned.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `srcs` and
/// `ks` hold at least `N` entries, and every source at least `acc.len()`
/// levels.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw loads and
/// stores. The 8-lane accumulator load/store at `i` and each source's 8-byte
/// load at `i` stay in bounds because the loop runs only while
/// `i + 8 <= acc.len()`, and every source covers `acc.len()` levels (the
/// caller's contract).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold_levels<const N: usize>(acc: &mut [f32], srcs: &[&[u8]], ks: &[f32], pass: Pass) {
    let n = acc.len();
    let mut k = [_mm256_setzero_ps(); N];
    for (slot, kk) in k.iter_mut().zip(ks) {
        *slot = _mm256_set1_ps(*kk);
    }
    let mut from = [std::ptr::null::<u8>(); N];
    for (slot, src) in from.iter_mut().zip(srcs) {
        *slot = src.as_ptr();
    }
    let scale = _mm256_set1_ps(pass.scale.unwrap_or(1.0));
    let out = acc.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let mut v = if pass.fresh {
            _mm256_setzero_ps()
        } else {
            _mm256_loadu_ps(out.add(i))
        };
        for (src, kk) in from.iter().zip(k) {
            let b = _mm_loadl_epi64(src.add(i).cast::<__m128i>());
            let level = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
            v = _mm256_add_ps(v, _mm256_mul_ps(level, kk));
        }
        if pass.scale.is_some() {
            v = _mm256_mul_ps(v, scale);
        }
        _mm256_storeu_ps(out.add(i), v);
        i += 8;
    }
    let mut tails: [&[u8]; N] = [&[]; N];
    for (tail, src) in tails.iter_mut().zip(srcs) {
        *tail = &src[i..];
    }
    scalar::fold_u8_n(&mut acc[i..], &tails, &ks[..N], pass);
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime. `acc` element
/// `j` must correspond to nibble `j` of `nibbles` (even alignment; the
/// dispatcher peels an odd start before calling).
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher checks
/// AVX2 first, and the loop reads `nibbles[i/2..i/2+8]` / writes
/// `acc[i..i+16]` only while `i + 16 <= acc.len()`, which the documented
/// even-alignment contract keeps inside both slices.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fold_u4_aligned(acc: &mut [f32], nibbles: &[u8], k: f32) {
    let n = acc.len();
    let kv = _mm256_set1_ps(k);
    let mut i = 0usize;
    while i + 16 <= n {
        let bytes = _mm_loadl_epi64(nibbles.as_ptr().add(i / 2) as *const __m128i);
        let levels = unpack_nibbles(bytes);
        let v0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(levels));
        let v1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(levels)));
        let a0 = _mm256_loadu_ps(acc.as_ptr().add(i));
        let a1 = _mm256_loadu_ps(acc.as_ptr().add(i + 8));
        _mm256_storeu_ps(
            acc.as_mut_ptr().add(i),
            _mm256_add_ps(a0, _mm256_mul_ps(v0, kv)),
        );
        _mm256_storeu_ps(
            acc.as_mut_ptr().add(i + 8),
            _mm256_add_ps(a1, _mm256_mul_ps(v1, kv)),
        );
        i += 16;
    }
    scalar::fold_u4_aligned(&mut acc[i..], &nibbles[i / 2..], k);
}

/// Where the `u32` words of `keys` start, how many whole words it holds,
/// and the lanes of an eight-word load that hold keys: a dense vector's or
/// a gathered bin's words are all keys, a pair run's are index, key, index,
/// key, …, so only its odd lanes are.
fn key_words(keys: Keys<'_>) -> (*const u8, usize, u32) {
    match keys {
        Keys::Dense(params) => (params.as_ptr() as *const u8, params.len(), 0xFF),
        Keys::Pairs(pairs) => (pairs.as_ptr(), pairs.len() / 8 * 2, 0xAA),
        Keys::Bin(keys) => (keys.as_ptr() as *const u8, keys.len(), 0xFF),
    }
}

/// The keys of `keys` from word `i` on ([`key_words`]; `i` even for a
/// pair run).
fn keys_from(keys: Keys<'_>, i: usize) -> Keys<'_> {
    match keys {
        Keys::Dense(params) => Keys::Dense(&params[i..]),
        Keys::Pairs(pairs) => Keys::Pairs(&pairs[4 * i..]),
        Keys::Bin(keys) => Keys::Bin(&keys[i..]),
    }
}

/// Every layout is read as `u32` words, eight to a load ([`key_words`]).
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`, and the
/// 32-byte loads at word `i` stay in bounds while `i + 8 <= words`, `words`
/// being the whole `u32` words the slice holds.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn magnitude_histogram(
    keys: Keys<'_>,
    prefix: u32,
    hi: u32,
    lo: u32,
    counts: &mut [u32; super::TOPK_BINS],
) {
    let (base, words, key_lanes) = key_words(keys);
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    let bin_mask = _mm256_set1_epi32(((1u32 << (hi - lo)) - 1) as i32);
    let want = _mm256_set1_epi32(prefix as i32);
    let hi_count = _mm_cvtsi32_si128(hi as i32);
    let lo_count = _mm_cvtsi32_si128(lo as i32);
    let mut bins = [0u32; 8];
    let mut i = 0usize;
    while i + 8 <= words {
        let m = _mm256_and_si256(
            _mm256_loadu_si256(base.add(4 * i) as *const __m256i),
            abs_mask,
        );
        let hit = _mm256_cmpeq_epi32(_mm256_srl_epi32(m, hi_count), want);
        let mut lanes = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32 & key_lanes;
        i += 8;
        // Below the first level almost no lane carries the prefix: skip.
        if lanes == 0 {
            continue;
        }
        let keys = _mm256_and_si256(_mm256_srl_epi32(m, lo_count), bin_mask);
        _mm256_storeu_si256(bins.as_mut_ptr() as *mut __m256i, keys);
        // At the first level every lane of a dense vector carries the
        // (empty) prefix.
        if lanes == 0xFF {
            for bin in bins {
                counts[bin as usize] += 1;
            }
            continue;
        }
        while lanes != 0 {
            counts[bins[lanes.trailing_zeros() as usize] as usize] += 1;
            lanes &= lanes - 1;
        }
    }
    scalar::magnitude_histogram(keys_from(keys, i), prefix, hi, lo, counts);
}

/// `COMPRESS_LANES[mask]` lists the set bits of `mask`, lowest first, padded
/// with zeros: as a `permutevar8x32` control it moves the selected lanes to
/// the front in lane order.
static COMPRESS_LANES: [[u32; 8]; 256] = {
    let mut table = [[0u32; 8]; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let (mut lane, mut out) = (0usize, 0usize);
        while lane < 8 {
            if mask >> lane & 1 == 1 {
                table[mask][out] = lane as u32;
                out += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// Branch-free per load of eight words: the key lanes that carry `prefix`
/// are moved to the front in lane order ([`COMPRESS_LANES`]) and stored as
/// one whole 8-word block at the next free word of `out`, which moves on
/// by the keys gathered. Blocks are stored while `out` has 8 words to
/// spare; the rest takes the scalar arm.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw accesses; the
/// dispatcher in `super` calls this only after
/// `is_x86_feature_detected!("avx2")`. The 32-byte loads at word `i` stay
/// in bounds while `i + 8 <= words`, and the 32-byte store at word `n` of
/// `out` while `n + 8 <= out.len()`, which the loop checks.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gather_bin(keys: Keys<'_>, prefix: u32, hi: u32, out: &mut [u32]) -> usize {
    let (base, words, key_lanes) = key_words(keys);
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    let want = _mm256_set1_epi32(prefix as i32);
    let hi_count = _mm_cvtsi32_si128(hi as i32);
    let (mut i, mut n) = (0usize, 0usize);
    while i + 8 <= words && n + 8 <= out.len() {
        let m = _mm256_and_si256(
            _mm256_loadu_si256(base.add(4 * i) as *const __m256i),
            abs_mask,
        );
        let hit = _mm256_cmpeq_epi32(_mm256_srl_epi32(m, hi_count), want);
        let lanes = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32 & key_lanes;
        let front = _mm256_loadu_si256(COMPRESS_LANES[lanes as usize].as_ptr() as *const __m256i);
        _mm256_storeu_si256(
            out.as_mut_ptr().add(n) as *mut __m256i,
            _mm256_permutevar8x32_epi32(m, front),
        );
        n += lanes.count_ones() as usize;
        i += 8;
    }
    n + scalar::gather_bin(keys_from(keys, i), prefix, hi, &mut out[n..])
}

/// Writes the wire pairs of the `keep` lanes of `x`, whose wire indices are
/// `indices`, as one whole 64-byte block at `out`: the kept lanes moved to
/// the front in lane order and interleaved with their indices. Returns the
/// bytes of it that are pairs.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime, and `out`
/// must be valid for a 64-byte write.
///
/// `unsafe` for `target_feature(avx2)` and the raw stores, which
/// cover exactly the 64 bytes the caller vouches for.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_pairs(out: *mut u8, indices: __m256i, x: __m256i, keep: u32) -> usize {
    let front = _mm256_loadu_si256(COMPRESS_LANES[keep as usize].as_ptr() as *const __m256i);
    let index = _mm256_permutevar8x32_epi32(indices, front);
    let value = _mm256_permutevar8x32_epi32(x, front);
    // unpack interleaves within 128-bit halves; permute2x128 restores
    // pair order 0..3 | 4..7 across them.
    let low = _mm256_unpacklo_epi32(index, value);
    let high = _mm256_unpackhi_epi32(index, value);
    let out = out as *mut __m256i;
    _mm256_storeu_si256(out, _mm256_permute2x128_si256::<0x20>(low, high));
    _mm256_storeu_si256(out.add(1), _mm256_permute2x128_si256::<0x31>(low, high));
    8 * keep.count_ones() as usize
}

/// Branch-free per block: the kept lanes of 8 elements are moved to the
/// front, interleaved with their indices into wire pairs, and stored as one
/// whole 64-byte block; only `8 * kept lanes` of it become part of `body`.
/// A block is stored only while `body` holds at most `limit` bytes and has
/// 64 spare bytes of capacity ([`super::TOPK_BODY_SLACK`]); past `limit`
/// the sweep reports the overflow, and short of capacity the rest of it
/// takes the scalar arm, which never grows `body` past `limit` either.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw block
/// stores; the dispatcher in `super` calls this only after
/// `is_x86_feature_detected!("avx2")`. The 8-lane loads at `i` stay in bounds
/// while `i + 8 <= n`; each 64-byte store at `len` is preceded by the loop's
/// `len + 64 <= body.capacity()` check; and `set_len(len)` only ever covers
/// bytes those stores initialised, because `len` advances by at most 64 per
/// store, and the bytes before `body.len()` were initialised by the caller.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compact_topk(
    params: &[f32],
    first_index: u32,
    threshold: u32,
    ties: usize,
    body: &mut Vec<u8>,
    limit: usize,
) -> Option<usize> {
    let n = params.len();
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    // Keys are at most 0x7FFF_FFFF, so the signed compares order them.
    let cut = _mm256_set1_epi32(threshold as i32);
    let eight = _mm256_set1_epi32(8);
    let mut indices = _mm256_add_epi32(
        _mm256_set1_epi32(first_index as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut ties = ties;
    let mut len = body.len();
    let mut i = 0usize;
    while i + 8 <= n && len <= limit && len + super::TOPK_BODY_SLACK <= body.capacity() {
        let x = _mm256_loadu_si256(params.as_ptr().add(i) as *const __m256i);
        let m = _mm256_and_si256(x, abs_mask);
        let above = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(m, cut))) as u32;
        let mut equal = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(m, cut))) as u32;
        // The tie budget goes to the lowest lanes first, as in the scalar arm.
        let mut keep = above;
        while equal != 0 && ties != 0 {
            keep |= equal & equal.wrapping_neg();
            equal &= equal - 1;
            ties -= 1;
        }
        len += store_pairs(body.as_mut_ptr().add(len), indices, x, keep);
        indices = _mm256_add_epi32(indices, eight);
        i += 8;
    }
    body.set_len(len);
    if len > limit {
        return None;
    }
    scalar::compact_topk(
        &params[i..],
        first_index + i as u32,
        threshold,
        ties,
        body,
        limit,
    )
}

/// Per block of 8: one load of each operand, `acc + 1.0 * src` (the
/// multiply and the add separate, NaN lanes blended to the canonical NaN),
/// one store, then [`compact_topk`]'s block compaction of the sums against
/// `threshold - 1`, which keeps every key at or above `threshold`. Once
/// `body` would pass `limit`, the rest of the add is [`fold_sources`].
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `src` must be
/// at least as long as `acc`.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw block
/// stores; the dispatcher in `super` calls this only after
/// `is_x86_feature_detected!("avx2")` with `src` at least as long as `acc`.
/// The 8-lane loads and the store at `i` stay in bounds while `i + 8 <= n`;
/// each 64-byte store at `len` is preceded by the loop's
/// `len + 64 <= body.capacity()` check; and `set_len(len)` only ever covers
/// bytes those stores initialised, as in [`compact_topk`].
#[target_feature(enable = "avx2")]
pub(super) unsafe fn add_compact_topk(
    acc: &mut [f32],
    src: &[f32],
    first_index: u32,
    threshold: u32,
    body: &mut Vec<u8>,
    limit: usize,
) -> bool {
    let n = acc.len();
    let one = _mm256_set1_ps(1.0);
    let nan = _mm256_set1_ps(f32::NAN);
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    // Keys are at most 0x7FFF_FFFF, so `threshold - 1` is at least -1 and
    // the signed compare `m > threshold - 1` is `m >= threshold`.
    let floor = _mm256_set1_epi32(threshold as i32 - 1);
    let eight = _mm256_set1_epi32(8);
    let mut indices = _mm256_add_epi32(
        _mm256_set1_epi32(first_index as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut len = body.len();
    let mut i = 0usize;
    while i + 8 <= n && len <= limit && len + super::TOPK_BODY_SLACK <= body.capacity() {
        let a = _mm256_loadu_ps(acc.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        // The multiply by one stays: it is what `axpy(1.0)` executes.
        let sum = _mm256_add_ps(a, _mm256_mul_ps(one, s));
        let sum = _mm256_blendv_ps(sum, nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(sum, sum));
        _mm256_storeu_ps(acc.as_mut_ptr().add(i), sum);
        let x = _mm256_castps_si256(sum);
        let m = _mm256_and_si256(x, abs_mask);
        let keep = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(m, floor))) as u32;
        len += store_pairs(body.as_mut_ptr().add(len), indices, x, keep);
        indices = _mm256_add_epi32(indices, eight);
        i += 8;
    }
    body.set_len(len);
    if len > limit {
        fold_sources::<1>(
            &mut acc[i..],
            &[super::le_bytes(&src[i..])],
            &[1.0],
            Pass::ADD,
        );
        return false;
    }
    scalar::add_compact_topk(
        &mut acc[i..],
        &src[i..],
        first_index + i as u32,
        threshold,
        body,
        limit,
    )
}

/// Four pairs per 32-byte load: the kept pairs (an index lane with its
/// value lane) moved to the front and stored as one whole 32-byte block at
/// the write position. That position never passes the read position, so a
/// block only overwrites pairs already read.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw accesses;
/// the dispatcher in `super` calls this only after
/// `is_x86_feature_detected!("avx2")`. The load at `at` and the store at
/// `out <= at` both stay inside the first `n` bytes while `at + 32 <= n`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compact_pairs(run: &mut [u8], threshold: u32, ties: usize) -> usize {
    let n = run.len() / 8 * 8;
    let base = run.as_mut_ptr();
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    // Keys are at most 0x7FFF_FFFF, so the signed compares order them.
    let cut = _mm256_set1_epi32(threshold as i32);
    let mut ties = ties;
    let (mut at, mut out) = (0usize, 0usize);
    while at + 32 <= n {
        let x = _mm256_loadu_si256(base.add(at) as *const __m256i);
        let m = _mm256_and_si256(x, abs_mask);
        // Odd lanes hold the values.
        let above = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(m, cut))) as u32;
        let equal = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(m, cut))) as u32;
        let (mut keep, mut equal) = (above & 0xAA, equal & 0xAA);
        // The tie budget goes to the lowest pairs first, as in the scalar arm.
        while equal != 0 && ties != 0 {
            keep |= equal & equal.wrapping_neg();
            equal &= equal - 1;
            ties -= 1;
        }
        let lanes = keep | keep >> 1;
        let front = _mm256_loadu_si256(COMPRESS_LANES[lanes as usize].as_ptr() as *const __m256i);
        _mm256_storeu_si256(
            base.add(out) as *mut __m256i,
            _mm256_permutevar8x32_epi32(x, front),
        );
        out += 4 * lanes.count_ones() as usize;
        at += 32;
    }
    let tail = scalar::compact_pairs(&mut run[at..], threshold, ties);
    run.copy_within(at..at + tail, out);
    out + tail
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`, and all
/// loads/stores stay inside the slice bounds checked by the loop condition.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn max_abs_finite(params: &[f32]) -> f32 {
    let n = params.len();
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut m = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let a = _mm256_and_ps(_mm256_loadu_ps(params.as_ptr().add(i)), abs_mask);
        // NaN compares unordered, so non-finite lanes contribute 0.
        let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(a, inf);
        m = _mm256_max_ps(m, _mm256_and_ps(a, finite));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), m);
    let best = lanes.iter().fold(0.0f32, |acc, v| acc.max(*v));
    // max over non-negative finite values is exact and order-independent,
    // so combining lane maxima with the scalar tail matches the reference.
    best.max(scalar::max_abs_finite(&params[i..]))
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `src` must be
/// at least as long as `acc`.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")` with both
/// slices cut to one length, so the loads/stores at `i..i+8` stay in bounds
/// while `i + 8 <= n`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn add_max(acc: &mut [f32], src: &[f32]) -> f32 {
    let n = acc.len();
    let one = _mm256_set1_ps(1.0);
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let inf = _mm256_set1_ps(f32::INFINITY);
    let mut m = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let a = _mm256_loadu_ps(acc.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        // The multiply by one stays: it is what `axpy(1.0)` executes.
        let sum = _mm256_add_ps(a, _mm256_mul_ps(one, s));
        _mm256_storeu_ps(acc.as_mut_ptr().add(i), sum);
        let abs = _mm256_and_ps(sum, abs_mask);
        // NaN compares unordered, so non-finite sums contribute 0.
        let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(abs, inf);
        m = _mm256_max_ps(m, _mm256_and_ps(abs, finite));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), m);
    let best = lanes.iter().fold(0.0f32, |acc, v| acc.max(*v));
    // max over non-negative finite values is exact and order-independent,
    // so combining lane maxima with the scalar tail matches the reference.
    best.max(scalar::add_max(&mut acc[i..], &src[i..]))
}

/// `a * b mod 2^64` in each `u64` lane, for a constant `b` whose high halves
/// the caller passes pre-shifted as `b_hi`. Exact: see "Counter-mode draws".
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul64(a: __m256i, b: __m256i, b_hi: __m256i) -> __m256i {
    let cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b),
        _mm256_mul_epu32(a, b_hi),
    );
    _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64::<32>(cross))
}

/// The counters of the next four draws of `rng`: `state + {1, 2, 3, 4} *
/// gamma`, one per `u64` lane, in draw order.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn first_counters(rng: &StochasticRng) -> __m256i {
    let g = SPLITMIX_GAMMA;
    _mm256_add_epi64(
        _mm256_set1_epi64x(rng.state as i64),
        _mm256_setr_epi64x(
            g as i64,
            g.wrapping_mul(2) as i64,
            g.wrapping_mul(3) as i64,
            g.wrapping_mul(4) as i64,
        ),
    )
}

/// The next eight words of the stream `counters` stands at — four splitmix64
/// draws mixed in registers, `u32` lane `j` being the `j`-th word
/// [`StochasticRng::fill`] would store — and `counters` stepped four draws
/// on.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn draw8(counters: &mut __m256i) -> __m256i {
    let mut z = *counters;
    *counters = _mm256_add_epi64(z, _mm256_set1_epi64x(SPLITMIX_GAMMA.wrapping_mul(4) as i64));
    z = mul64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
        _mm256_set1_epi64x(SPLITMIX_MUL1 as i64),
        _mm256_set1_epi64x((SPLITMIX_MUL1 >> 32) as i64),
    );
    z = mul64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)),
        _mm256_set1_epi64x(SPLITMIX_MUL2 as i64),
        _mm256_set1_epi64x((SPLITMIX_MUL2 >> 32) as i64),
    );
    _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
}

/// [`StochasticRng::fill`] through the in-register draws, so the proptests
/// can compare the two streams word for word: whole groups of eight words
/// from [`draw8`], the remainder — with the generator — from `fill` itself,
/// exactly as the encoders split their elements.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; the test calls this
/// only after `is_x86_feature_detected!("avx2")`, and the 8-word stores at
/// `i` stay in bounds while `i + 8 <= words.len()`.
#[cfg(test)]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fill_in_registers(rng: &mut StochasticRng, words: &mut [u32]) {
    let mut counters = first_counters(rng);
    let mut i = 0usize;
    while i + 8 <= words.len() {
        _mm256_storeu_si256(
            words.as_mut_ptr().add(i) as *mut __m256i,
            draw8(&mut counters),
        );
        i += 8;
    }
    rng.skip((i / 2) as u64);
    rng.fill(&mut words[i..]);
}

/// Vector counterpart of [`scalar::quantize_one`] for 8 lanes: same operation
/// sequence (multiply, floor, subtract, compare against the 24-bit random
/// fraction, add, min/max clamp, convert), with non-finite lanes zeroed by an
/// integer mask instead of a branch.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quantize8(v: __m256, inv: __m256, hi: __m256, lo: __m256, w: __m256i) -> __m256i {
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let inf = _mm256_set1_ps(f32::INFINITY);
    let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs_mask), inf);
    let q = _mm256_mul_ps(v, inv);
    let f = _mm256_floor_ps(q);
    let frac = _mm256_sub_ps(q, f);
    let r = _mm256_mul_ps(
        _mm256_cvtepi32_ps(_mm256_srli_epi32::<8>(w)),
        _mm256_set1_ps(1.0 / 16_777_216.0),
    );
    let up = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(r, frac), _mm256_set1_ps(1.0));
    // min/max return the second operand on NaN, matching f32::min/f32::max
    // with NaN `self`, so saturated/NaN lanes clamp exactly like the scalar.
    let level = _mm256_max_ps(_mm256_min_ps(_mm256_add_ps(f, up), hi), lo);
    // Levels are exactly integral here, so round-nearest conversion matches
    // the scalar truncating `as i32`.
    _mm256_and_si256(_mm256_cvtps_epi32(level), _mm256_castps_si256(finite))
}

/// The one `Uniform8` inner loop: quantizes the whole groups of 8 among the
/// `n` elements at `values` into `out`, drawing their rounding words in
/// registers, and returns how many elements that was; `rng` is left past
/// exactly their draws. With `FEEDBACK`, each element is also replaced by what
/// the quantizer dropped of it, `v + f32(level) * k` — [`fold_u8_n`]'s
/// expression over the level just stored.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `values` must
/// be valid for reads of `n` elements — and for writes, when `FEEDBACK` — and
/// `out` at least `n` bytes long.
///
/// `unsafe` for `target_feature(avx2)` and the raw element pointer,
/// which lets the plain and feedback encoders share this body: the two
/// wrappers below derive it from a slice of `n` elements (a `&mut` one when
/// `FEEDBACK`; nothing is written through it otherwise), and the loads, the
/// stores and the 8-byte level stores at `i` stay inside `n` while
/// `i + 8 <= n`.
#[target_feature(enable = "avx2")]
unsafe fn quantize_u8<const FEEDBACK: bool>(
    values: *mut f32,
    n: usize,
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) -> usize {
    let invv = _mm256_set1_ps(inv);
    let kv = _mm256_set1_ps(k);
    let hi = _mm256_set1_ps(levels);
    let lo = _mm256_set1_ps(-levels);
    let mut counters = first_counters(rng);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(values.add(i));
        let li = quantize8(v, invv, hi, lo, draw8(&mut counters));
        // Saturating packs are the identity for levels in [-127, 127], and
        // the low byte of each i32 level is exactly the scalar `as u8`.
        let p16 = _mm_packs_epi32(
            _mm256_castsi256_si128(li),
            _mm256_extracti128_si256::<1>(li),
        );
        let p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(out.as_mut_ptr().add(i).cast::<__m128i>(), p8);
        if FEEDBACK {
            // `f32(level)` is what `fold_u8_n` reads back out of the byte.
            let kept = _mm256_mul_ps(_mm256_cvtepi32_ps(li), kv);
            _mm256_storeu_ps(values.add(i), _mm256_add_ps(v, kept));
        }
        i += 8;
    }
    rng.skip((i / 2) as u64);
    i
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `out` must be
/// at least as long as `params`.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher checks
/// AVX2 first and sizes `out` to `params.len()`; `quantize_u8::<false>` only
/// reads through the pointer, which covers `params`.
#[target_feature(enable = "avx2")]
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

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `out` must be
/// at least as long as `residual`.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher checks
/// AVX2 first and sizes `out` to `residual.len()`; the pointer comes from the
/// exclusive borrow of `residual`, so `quantize_u8::<true>` may write it.
#[target_feature(enable = "avx2")]
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

/// Maps 8 signed levels in `[-7, 7]` to sign-magnitude nibbles:
/// `|level| | (sign << 3)`.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nibble8(levels: __m256i) -> __m256i {
    _mm256_or_si256(
        _mm256_abs_epi32(levels),
        _mm256_slli_epi32::<3>(_mm256_srli_epi32::<31>(levels)),
    )
}

/// The one `Uniform4` inner loop, as [`quantize_u8`] over whole groups of 16
/// elements packed into 8 nibble bytes; with `FEEDBACK`, each element becomes
/// `v + f32(level) * k` — [`fold_u4_aligned`]'s expression, the nibble of an
/// integral level decoding back to exactly that level.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `values` must
/// be valid for reads of `n` elements — and for writes, when `FEEDBACK` — and
/// `out` at least `n.div_ceil(2)` bytes long.
///
/// `unsafe` for `target_feature(avx2)` and the raw element pointer
/// shared by the plain and feedback encoders: the two wrappers below derive
/// it from a slice of `n` elements (a `&mut` one when `FEEDBACK`; nothing is
/// written through it otherwise), and the reads and writes at `i..i+16` and
/// the 8-byte store at `i/2` stay in bounds while `i + 16 <= n`.
#[target_feature(enable = "avx2")]
unsafe fn quantize_u4<const FEEDBACK: bool>(
    values: *mut f32,
    n: usize,
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) -> usize {
    let invv = _mm256_set1_ps(inv);
    let kv = _mm256_set1_ps(k);
    let hi = _mm256_set1_ps(levels);
    let lo = _mm256_set1_ps(-levels);
    // As two i16 words: low word 1, high word 16 — madd then computes
    // n_even + (n_odd << 4) for each output byte.
    let pair_mul = _mm_set1_epi32(0x0010_0001);
    let mut counters = first_counters(rng);
    let mut i = 0usize;
    while i + 16 <= n {
        let va = _mm256_loadu_ps(values.add(i));
        let vb = _mm256_loadu_ps(values.add(i + 8));
        // Element order: the first eight words go to the first eight lanes.
        let la = quantize8(va, invv, hi, lo, draw8(&mut counters));
        let lb = quantize8(vb, invv, hi, lo, draw8(&mut counters));
        let na = nibble8(la);
        let nb = nibble8(lb);
        let pa = _mm_packs_epi32(
            _mm256_castsi256_si128(na),
            _mm256_extracti128_si256::<1>(na),
        );
        let pb = _mm_packs_epi32(
            _mm256_castsi256_si128(nb),
            _mm256_extracti128_si256::<1>(nb),
        );
        let ba = _mm_madd_epi16(pa, pair_mul);
        let bb = _mm_madd_epi16(pb, pair_mul);
        let t8 = _mm_packus_epi16(_mm_packs_epi32(ba, bb), _mm_setzero_si128());
        _mm_storel_epi64(out.as_mut_ptr().add(i / 2).cast::<__m128i>(), t8);
        if FEEDBACK {
            let kept_a = _mm256_mul_ps(_mm256_cvtepi32_ps(la), kv);
            let kept_b = _mm256_mul_ps(_mm256_cvtepi32_ps(lb), kv);
            _mm256_storeu_ps(values.add(i), _mm256_add_ps(va, kept_a));
            _mm256_storeu_ps(values.add(i + 8), _mm256_add_ps(vb, kept_b));
        }
        i += 16;
    }
    rng.skip((i / 2) as u64);
    i
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `out` must be
/// at least `params.len()/2` rounded up.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher checks
/// AVX2 first and sizes `out` to the packed nibble count;
/// `quantize_u4::<false>` only reads through the pointer, which covers
/// `params`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn encode_u4(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    let values = params.as_ptr().cast_mut();
    let i = quantize_u4::<false>(values, params.len(), inv, 0.0, levels, rng, out);
    scalar::encode_u4(&params[i..], inv, levels, rng, &mut out[i / 2..]);
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `out` must be
/// at least `residual.len()/2` rounded up.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher checks
/// AVX2 first and sizes `out` to the packed nibble count; the pointer comes
/// from the exclusive borrow of `residual`, so `quantize_u4::<true>` may
/// write it.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn feedback_append_u4(
    residual: &mut [f32],
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    let values = residual.as_mut_ptr();
    let i = quantize_u4::<true>(values, residual.len(), inv, k, levels, rng, out);
    scalar::feedback_append_u4(&mut residual[i..], inv, k, levels, rng, &mut out[i / 2..]);
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `wt` holds
/// `x.len()` rows of `out.len()`.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`, with
/// `wt` cut to `x.len() * out.len()` elements, which is what `logits_from`
/// needs.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn logits(wt: &[f32], x: &[f32], out: &mut [f32]) {
    logits_from(wt, x, out, 0);
}

/// [`logits`] of the class lanes from `c` on: tiles of up to 64 lanes
/// ([`logit_tile`]), then the sub-vector tail on the scalar arm. The
/// AVX-512 arm hands it the lanes its 16-lane tiles leave.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `wt` holds
/// `x.len()` rows of `out.len()`, and `c <= out.len()`.
///
/// `unsafe` solely for `target_feature(avx2)`; every tile starts at
/// or after `c` and ends at or before `out.len()`, which with `wt`'s rows of
/// `out.len()` is what `logit_tile` needs.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn logits_from(wt: &[f32], x: &[f32], out: &mut [f32], mut c: usize) {
    let kp = out.len();
    while c + 64 <= kp {
        logit_tile::<8>(wt, x, out, c);
        c += 64;
    }
    match (kp - c) / 8 {
        1 => logit_tile::<1>(wt, x, out, c),
        2 => logit_tile::<2>(wt, x, out, c),
        3 => logit_tile::<3>(wt, x, out, c),
        4 => logit_tile::<4>(wt, x, out, c),
        5 => logit_tile::<5>(wt, x, out, c),
        6 => logit_tile::<6>(wt, x, out, c),
        7 => logit_tile::<7>(wt, x, out, c),
        _ => {}
    }
    c += (kp - c) / 8 * 8;
    scalar::logits_from(wt, x, out, c);
}

/// The `8 * V` class lanes from `c` of [`logits`]: `V` accumulators start
/// at `-0.0` and stay in registers for the whole feature loop, each feature
/// adding `w * x` (the multiply and the add separate, as the scalar arm does
/// them) to every lane, so each lane's chain of adds runs in feature order,
/// and one store per accumulator at the end.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `wt` holds
/// `x.len()` rows of `out.len()`, and `c + 8 * V <= out.len()`.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw loads and
/// stores. Row `j`'s load at `j * kp + c + 8 * v` ends at or before
/// `j * kp + c + 8 * V <= (j + 1) * kp <= wt.len()`, and the stores at
/// `c + 8 * v` end at or before `c + 8 * V <= out.len()` (the caller's
/// contract).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn logit_tile<const V: usize>(wt: &[f32], x: &[f32], out: &mut [f32], c: usize) {
    let kp = out.len();
    let mut acc = [_mm256_set1_ps(-0.0); V];
    for (j, xj) in x.iter().enumerate() {
        let xj = _mm256_set1_ps(*xj);
        let row = wt.as_ptr().add(j * kp + c);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_loadu_ps(row.add(8 * v)), xj));
        }
    }
    let to = out.as_mut_ptr().add(c);
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(to.add(8 * v), *a);
    }
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `bias` is not
/// empty, `weights.len()` is a multiple of `bias.len()`, and `err` holds
/// `xs.len()` rows of `stride >= bias.len()`.
///
/// `unsafe` solely for `target_feature(avx2)`; the dispatcher in
/// `super` calls this only after `is_x86_feature_detected!("avx2")`. A batch
/// with a sample shorter than the `f` features goes to the scalar arm, so
/// every sample covers `f`, which is what `gradient_from` needs.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn outer_accumulate(
    weights: &mut [f32],
    bias: &mut [f32],
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    let f = weights.len() / bias.len();
    if xs.iter().any(|x| x.len() < f) {
        return scalar::outer_accumulate(weights, bias, err, stride, xs);
    }
    scalar::bias_row(bias, err, stride, xs.len());
    gradient_from(weights, bias.len(), err, stride, xs, 0);
}

/// [`outer_accumulate`]'s weight rows over the features from `j` on: tiles
/// of up to 64 features ([`gradient_tile`]), every class's tile of one
/// feature range before the next range, so the batch's slice of features
/// stays in L1 across the classes; then the sub-vector tail on the scalar
/// arm. The AVX-512 arm hands it the features its 64-feature tiles leave.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `weights`
/// holds `classes` rows of `f`, every sample covers `f`, `err` holds
/// `xs.len()` rows of `stride >= classes`, and `j <= f`.
///
/// `unsafe` solely for `target_feature(avx2)`; every tile starts at
/// or after `j` and ends at or before `f`, which is what `gradient_tile`
/// needs.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gradient_from(
    weights: &mut [f32],
    classes: usize,
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
    mut j: usize,
) {
    let f = weights.len() / classes;
    while j + 64 <= f {
        for c in 0..classes {
            gradient_tile::<8>(weights, f, c, j, err, stride, xs);
        }
        j += 64;
    }
    for c in 0..classes {
        match (f - j) / 8 {
            1 => gradient_tile::<1>(weights, f, c, j, err, stride, xs),
            2 => gradient_tile::<2>(weights, f, c, j, err, stride, xs),
            3 => gradient_tile::<3>(weights, f, c, j, err, stride, xs),
            4 => gradient_tile::<4>(weights, f, c, j, err, stride, xs),
            5 => gradient_tile::<5>(weights, f, c, j, err, stride, xs),
            6 => gradient_tile::<6>(weights, f, c, j, err, stride, xs),
            7 => gradient_tile::<7>(weights, f, c, j, err, stride, xs),
            _ => {}
        }
    }
    j += (f - j) / 8 * 8;
    scalar::outer_columns(weights, classes, err, stride, xs, j);
}

/// Class `c`'s `8 * V` features from `j` of [`outer_accumulate`]: `V`
/// accumulators start at `+0.0` and stay in registers across the batch,
/// each sample adding `err * x` (the multiply and the add separate, as the
/// scalar arm does them) to every lane, so each element's chain of adds
/// runs in sample order, and one store per accumulator at the end.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `weights`
/// holds rows of `f`, every sample covers `f`, `j + 8 * V <= f`, and `err`
/// holds `xs.len()` rows of `stride > c`.
///
/// `unsafe` solely for `target_feature(avx2)` and the raw loads and
/// stores. Each sample's loads at `j + 8 * v` end at or before
/// `j + 8 * V <= f <= x.len()`, and the stores at `c * f + j + 8 * v` end at
/// or before `(c + 1) * f <= weights.len()` (the caller's contract); `err`
/// is read through bounds-checked indexing.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gradient_tile<const V: usize>(
    weights: &mut [f32],
    f: usize,
    c: usize,
    j: usize,
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    let mut acc = [_mm256_setzero_ps(); V];
    for (s, x) in xs.iter().enumerate() {
        let e = _mm256_set1_ps(err[s * stride + c]);
        let from = x.as_ptr().add(j);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(e, _mm256_loadu_ps(from.add(8 * v))));
        }
    }
    let to = weights.as_mut_ptr().add(c * f + j);
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(to.add(8 * v), *a);
    }
}

/// # Safety
///
/// Caller must have verified AVX2 and FMA support at runtime;
/// `rows.len()` is a multiple of `stride >= classes`.
///
/// `unsafe` solely for `target_feature(avx2, fma)`; the dispatcher
/// in `super` calls this only after `is_x86_feature_detected!` reported
/// both. Each row handed to `exp_below_max` and `divide_row` is cut to its
/// first `classes` lanes, which is what they need.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn softmax_rows(rows: &mut [f32], classes: usize, stride: usize) {
    let mut sums = [-0.0f32; 8];
    for group in rows.chunks_mut(8 * stride) {
        for row in group.chunks_exact_mut(stride) {
            exp_below_max(&mut row[..classes]);
        }
        scalar::row_sums(group, classes, stride, &mut sums);
        for (row, sum) in group.chunks_exact_mut(stride).zip(sums) {
            divide_row(&mut row[..classes], sum);
        }
    }
}

/// The lanes of `0..8` below `tail` as an all-ones mask, the rest zero: the
/// partial vector at a row's end.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lanes_below(tail: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(tail as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// `row[c] = expf(row[c] − max)` for every lane, `max` the row's largest
/// value with NaN ignored: 8-lane `max` from −∞ (`_mm256_max_ps` returns
/// its second operand, the running max, when the loaded lane is NaN; the
/// sign of a zero max cannot show, as `l − ±0` is `l` or a zero and
/// `expf(±0)` is 1), then [`exp8`] of each vector, the partial vector at
/// the end through masked loads and stores.
///
/// # Safety
///
/// `unsafe` for `target_feature(avx2, fma)` and the raw accesses.
/// The vectors at `c + 8 <= row.len()` are in bounds, and the masked load
/// and store of the tail touch only the lanes below `row.len() - full`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_below_max(row: &mut [f32]) {
    let full = row.len() / 8 * 8;
    let mask = lanes_below(row.len() - full);
    let p = row.as_mut_ptr();
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut max = neg_inf;
    for c in (0..full).step_by(8) {
        max = _mm256_max_ps(_mm256_loadu_ps(p.add(c)), max);
    }
    let tail = _mm256_maskload_ps(p.add(full), mask);
    max = _mm256_max_ps(
        _mm256_blendv_ps(neg_inf, tail, _mm256_castsi256_ps(mask)),
        max,
    );
    let half = _mm_max_ps(_mm256_castps256_ps128(max), _mm256_extractf128_ps::<1>(max));
    let half = _mm_max_ps(half, _mm_movehl_ps(half, half));
    let max = _mm256_set1_ps(_mm_cvtss_f32(_mm_max_ss(half, _mm_movehdup_ps(half))));
    for c in (0..full).step_by(8) {
        _mm256_storeu_ps(
            p.add(c),
            exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(c)), max)),
        );
    }
    _mm256_maskstore_ps(p.add(full), mask, exp8(_mm256_sub_ps(tail, max)));
}

/// `row[c] /= sum` for every lane, one exactly rounded divide each.
///
/// # Safety
///
/// `unsafe` for `target_feature(avx2)` and the raw accesses, which
/// stay inside `row` as in `exp_below_max`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn divide_row(row: &mut [f32], sum: f32) {
    let full = row.len() / 8 * 8;
    let mask = lanes_below(row.len() - full);
    let p = row.as_mut_ptr();
    let sum = _mm256_set1_ps(sum);
    for c in (0..full).step_by(8) {
        _mm256_storeu_ps(p.add(c), _mm256_div_ps(_mm256_loadu_ps(p.add(c)), sum));
    }
    let tail = _mm256_maskload_ps(p.add(full), mask);
    _mm256_maskstore_ps(p.add(full), mask, _mm256_div_ps(tail, sum));
}

/// [`super::expf`] of eight lanes: [`exp4`] of each half, then every lane
/// whose `|x|` is at least 88 or NaN recomputed by
/// [`super::expf_special`], as the scalar arm branches.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2, fma)`; register
/// arithmetic and two stack arrays, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp8(x: __m256) -> __m256 {
    let e = _mm256_set_m128(
        exp4(_mm256_extractf128_ps::<1>(x)),
        exp4(_mm256_castps256_ps128(x)),
    );
    let abs = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
    let special = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(EXP_SPECIAL_ABS as i32 - 1));
    let special = _mm256_movemask_ps(_mm256_castsi256_ps(special));
    if special == 0 {
        return e;
    }
    let (mut xs, mut es) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(xs.as_mut_ptr(), x);
    _mm256_storeu_ps(es.as_mut_ptr(), e);
    for (lane, (e, x)) in es.iter_mut().zip(xs).enumerate() {
        if special >> lane & 1 != 0 {
            *e = super::expf_special(x);
        }
    }
    _mm256_loadu_ps(es.as_ptr())
}

/// [`super::expf`]'s main path on four lanes in f64, the scalar arm's
/// operations one for one: `kd = fma(x, 32/ln 2, SHIFT)`, `ki = bits(kd)`,
/// `r = fma(x, 32/ln 2, −(kd − SHIFT))`, `s = from_bits(T[ki mod 32] +
/// (ki << 47))` (a gather), `y = fma(fma(r, C0, C1), r·r, fma(r, C2, 1))`,
/// and `y·s` rounded to f32 once (`_mm256_cvtpd_ps` rounds to nearest, as
/// `as f32` does). Only right for `|x| < 88`, and the large inputs
/// `expf_special` hands back; other lanes give garbage that `exp8`
/// replaces.
///
/// # Safety
///
/// `unsafe` for `target_feature(avx2, fma)` and the gather, whose
/// indices are masked into `0..32`, inside `EXP_TABLE`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4(x: __m128) -> __m128 {
    let [c0, c1, c2] = EXP_POLY;
    let xd = _mm256_cvtps_pd(x);
    let inv_ln2_n = _mm256_set1_pd(EXP_INV_LN2_N);
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let kd = _mm256_fmadd_pd(xd, inv_ln2_n, shift);
    let ki = _mm256_castpd_si256(kd);
    let r = _mm256_fmsub_pd(xd, inv_ln2_n, _mm256_sub_pd(kd, shift));
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(EXP_TABLE.as_ptr().cast(), index);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let p = _mm256_fmadd_pd(r, _mm256_set1_pd(c0), _mm256_set1_pd(c1));
    let q = _mm256_fmadd_pd(r, _mm256_set1_pd(c2), _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// # Safety
///
/// Caller must have verified AVX2 support at runtime; `features` is
/// not zero, `w` holds `k` rows of `features` and `wt` `features` rows of
/// `kp >= k.next_multiple_of(8)` lanes, lanes `k..kp` zero.
///
/// `unsafe` for `target_feature(avx2)` and the raw accesses. Block
/// `(c, j)` loads rows `c..c + rows` (`c + rows <= k`) at features `j..j + 8`
/// (`j + 8 <= f`), inside `w`, and stores features `j..j + 8`' lanes
/// `c..c + 8`, inside `wt` as `c + 8 <= k.next_multiple_of(8) <= kp`; the
/// missing rows of a partial block are zeros, which lanes past `k` already
/// hold. The features past the last whole block are copied by indexing.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn class_lanes(w: &[f32], features: usize, wt: &mut [f32]) {
    let f = features;
    let (k, kp) = (w.len() / f, wt.len() / f);
    let whole = f / 8 * 8;
    for c in (0..k).step_by(8) {
        let rows = (k - c).min(8);
        for j in (0..whole).step_by(8) {
            let mut block = [_mm256_setzero_ps(); 8];
            for (i, row) in block.iter_mut().enumerate().take(rows) {
                *row = _mm256_loadu_ps(w.as_ptr().add((c + i) * f + j));
            }
            for (i, lanes) in transpose8(block).into_iter().enumerate() {
                _mm256_storeu_ps(wt.as_mut_ptr().add((j + i) * kp + c), lanes);
            }
        }
        for i in 0..rows {
            for j in whole..f {
                wt[j * kp + c + i] = w[(c + i) * f + j];
            }
        }
    }
}

/// The 8 × 8 transpose of `rows`: lane `i` of output `j` is lane `j` of
/// input `i`. Shuffles only, so every bit pattern moves unchanged.
///
/// # Safety
///
/// `unsafe` solely for `target_feature(avx2)`; pure register
/// arithmetic with no memory access, gated by the dispatcher's CPUID check.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(rows: [__m256; 8]) -> [__m256; 8] {
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    // Pairs of rows interleaved: (a0 b0 a1 b1 | a4 b4 a5 b5) and the rest.
    let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
    let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
    let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
    let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
    // Quads: (a0 b0 c0 d0 | a4 b4 c4 d4) and the rest.
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    // Halves joined: column j of the block.
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// [`exp8`] over `xs` in place, eight lanes at a time (a partial vector at
/// the end is left as it is): the vector exponential, for the exhaustive
/// `expf` test.
///
/// # Safety
///
/// `unsafe` for `target_feature(avx2, fma)` and the raw accesses,
/// each of eight lanes of one whole chunk; the test calls it only on a host
/// whose `arms()` list this arm.
#[cfg(test)]
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn expf_lanes(xs: &mut [f32]) {
    for chunk in xs.chunks_exact_mut(8) {
        _mm256_storeu_ps(chunk.as_mut_ptr(), exp8(_mm256_loadu_ps(chunk.as_ptr())));
    }
}
