//! Scalar reference implementations of every kernel.
//!
//! These functions *define* the semantics of the kernel layer: the AVX2 arms
//! in `super::avx2` must reproduce them bit-for-bit (asserted by the
//! proptests in the parent module), and `LIFL_FORCE_SCALAR=1` routes every
//! dispatch here at runtime. Keep them simple and obviously correct; the
//! parent module's docs explain which floating-point operations are safe to
//! vectorise without changing results.

use super::{StochasticRng, RAND_BLOCK};

/// `f32::from(nibble_to_i8(n))` for every sign-magnitude nibble, as a
/// branch-free table for the scalar dequantize kernels (index 8, "negative
/// zero", decodes to `0.0`). The AVX2 arm holds the same table in a register
/// and looks it up with an in-register byte shuffle.
pub(super) const NIBBLE_F32: [f32; 16] = [
    0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0,
];

/// Fused fold of a dense little-endian `f32` payload: `acc += weight * body`.
pub(super) fn fold_dense_le(acc: &mut [f32], body: &[u8], weight: f32) {
    for (a, c) in acc.iter_mut().zip(body.chunks_exact(4)) {
        *a += weight * f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Decode of a dense little-endian `f32` payload.
pub(super) fn decode_dense_le(out: &mut [f32], body: &[u8]) {
    for (o, c) in out.iter_mut().zip(body.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Fused fold of `Uniform8` levels: `acc[i] += f32(levels[i] as i8) * k`.
pub(super) fn fold_u8(acc: &mut [f32], levels: &[u8], k: f32) {
    for (a, b) in acc.iter_mut().zip(levels) {
        *a += f32::from(*b as i8) * k;
    }
}

/// Dequantize of `Uniform8` levels: `out[i] = f32(levels[i] as i8) * scale`.
pub(super) fn decode_u8(out: &mut [f32], levels: &[u8], scale: f32) {
    for (o, b) in out.iter_mut().zip(levels) {
        *o = f32::from(*b as i8) * scale;
    }
}

/// Fused fold of even-aligned packed `Uniform4` nibbles: element `j` of `acc`
/// is nibble `j` of `nibbles` (low nibble first within each byte).
pub(super) fn fold_u4_aligned(acc: &mut [f32], nibbles: &[u8], k: f32) {
    let n = acc.len();
    let mut j = 0usize;
    while j + 1 < n {
        let byte = nibbles[j / 2];
        acc[j] += NIBBLE_F32[(byte & 0x0F) as usize] * k;
        acc[j + 1] += NIBBLE_F32[(byte >> 4) as usize] * k;
        j += 2;
    }
    if j < n {
        acc[j] += NIBBLE_F32[(nibbles[j / 2] & 0x0F) as usize] * k;
    }
}

/// Dequantize of even-aligned packed `Uniform4` nibbles into `out`.
pub(super) fn decode_u4(out: &mut [f32], nibbles: &[u8], scale: f32) {
    let n = out.len();
    let mut j = 0usize;
    while j + 1 < n {
        let byte = nibbles[j / 2];
        out[j] = NIBBLE_F32[(byte & 0x0F) as usize] * scale;
        out[j + 1] = NIBBLE_F32[(byte >> 4) as usize] * scale;
        j += 2;
    }
    if j < n {
        out[j] = NIBBLE_F32[(nibbles[j / 2] & 0x0F) as usize] * scale;
    }
}

/// Fold of `TopK` `(index, value)` pairs restricted to `[start, end)`;
/// inherently a scatter, so both dispatch arms run this routine.
// lifl-lint: allow(kernel-parity) — index-driven scatter; AVX2 has no
// useful scatter, so the dispatcher routes both arms here by design.
pub(super) fn fold_topk(acc: &mut [f32], pairs: &[u8], start: usize, end: usize, weight: f32) {
    for pair in pairs.chunks_exact(8) {
        let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
        if index >= start && index < end {
            let value = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            acc[index - start] += weight * value;
        }
    }
}

/// Decode of `TopK` `(index, value)` pairs into a zeroed `out`.
// lifl-lint: allow(kernel-parity) — index-driven scatter; AVX2 has no
// useful scatter, so the dispatcher routes both arms here by design.
pub(super) fn decode_topk(out: &mut [f32], pairs: &[u8]) {
    out.fill(0.0);
    for pair in pairs.chunks_exact(8) {
        let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
        if index < out.len() {
            let value = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            out[index] = value;
        }
    }
}

/// The magnitude key top-k selection orders by: the bit pattern of `x` with
/// the sign cleared. For finite values, comparing keys as integers is exactly
/// comparing `|x|` as floats (`+0.0` and `-0.0` share key 0).
#[inline]
fn magnitude(x: f32) -> u32 {
    x.to_bits() & 0x7FFF_FFFF
}

/// One level of the top-k radix histogram: over the elements whose magnitude
/// key `m` satisfies `m >> hi == prefix`, counts how many fall in each bin
/// `(m >> lo) & ((1 << (hi - lo)) - 1)` — the next `hi - lo` (at most 12) key
/// bits below the prefix. `counts` is added to, not cleared.
pub(super) fn magnitude_histogram(
    params: &[f32],
    prefix: u32,
    hi: u32,
    lo: u32,
    counts: &mut [u32; super::TOPK_BINS],
) {
    let bin_mask = (1u32 << (hi - lo)) - 1;
    for x in params {
        let m = magnitude(*x);
        if m >> hi == prefix {
            counts[((m >> lo) & bin_mask) as usize] += 1;
        }
    }
}

/// The top-k compare-and-compact sweep: appends the little-endian
/// `(u32 index, f32 value)` wire pair of every element whose magnitude key
/// exceeds `threshold`, and of the first `ties` elements whose key equals it,
/// in index order. `params[0]` has wire index `first_index`. Returns the tie
/// budget left over.
pub(super) fn compact_topk(
    params: &[f32],
    first_index: u32,
    threshold: u32,
    ties: usize,
    body: &mut Vec<u8>,
) -> usize {
    let mut ties = ties;
    for (index, x) in (first_index..).zip(params) {
        let m = magnitude(*x);
        if m < threshold || (m == threshold && ties == 0) {
            continue;
        }
        if m == threshold {
            ties -= 1;
        }
        body.extend_from_slice(&index.to_le_bytes());
        body.extend_from_slice(&x.to_le_bytes());
    }
    ties
}

/// `acc += w * src`, elementwise.
pub(super) fn axpy(acc: &mut [f32], src: &[f32], w: f32) {
    for (a, b) in acc.iter_mut().zip(src) {
        *a += w * b;
    }
}

/// Four-source fold with one accumulator load/store per element; the adds
/// chain serially in source order, bit-identical to four sequential
/// [`axpy`] calls.
pub(super) fn axpy4(acc: &mut [f32], srcs: [&[f32]; 4], w: [f32; 4]) {
    for (i, a) in acc.iter_mut().enumerate() {
        let mut v = *a;
        v += w[0] * srcs[0][i];
        v += w[1] * srcs[1][i];
        v += w[2] * srcs[2][i];
        v += w[3] * srcs[3][i];
        *a = v;
    }
}

/// Eight-source variant of [`axpy4`] (same ordering guarantee).
pub(super) fn axpy8(acc: &mut [f32], srcs: [&[f32]; 8], w: [f32; 8]) {
    for (i, a) in acc.iter_mut().enumerate() {
        let mut v = *a;
        v += w[0] * srcs[0][i];
        v += w[1] * srcs[1][i];
        v += w[2] * srcs[2][i];
        v += w[3] * srcs[3][i];
        v += w[4] * srcs[4][i];
        v += w[5] * srcs[5][i];
        v += w[6] * srcs[6][i];
        v += w[7] * srcs[7][i];
        *a = v;
    }
}

/// Largest finite `|x|` in `params` (0 when there is none). Exact, so the
/// order max is taken in does not matter and the vector arm matches.
pub(super) fn max_abs_finite(params: &[f32]) -> f32 {
    params
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |acc, v| acc.max(v.abs()))
}

/// `acc += 1.0 * src` — [`axpy`]'s multiply-then-add with weight 1 — and, in
/// the same sweep, the largest finite `|x|` of the sums (0 when there is
/// none), as [`max_abs_finite`] would find it afterwards.
pub(super) fn add_max(acc: &mut [f32], src: &[f32]) -> f32 {
    let w = 1.0f32;
    let mut max = 0.0f32;
    for (a, b) in acc.iter_mut().zip(src) {
        *a += w * b;
        if a.is_finite() {
            max = max.max(a.abs());
        }
    }
    max
}

/// Stochastically rounds `v / scale` (as `v * inv`) to an integer level in
/// `[-levels, levels]` using the 24 high bits of the random word `w` as the
/// rounding threshold; non-finite values map to level 0. The exact operation
/// sequence here (multiply, floor, subtract, compare, add, min/max clamp,
/// truncating convert) is what the AVX2 arm mirrors instruction for
/// instruction — every step is exactly rounded, so the arms agree bitwise.
#[inline]
// lifl-lint: allow(kernel-parity) — per-element helper; its vector
// counterpart is the 8-lane `avx2::quantize8`, checked via encode_u8/u4.
pub(super) fn quantize_one(v: f32, inv: f32, levels: f32, w: u32) -> i32 {
    if !v.is_finite() {
        return 0;
    }
    let q = v * inv;
    let f = q.floor();
    let r = (w >> 8) as f32 * (1.0 / 16_777_216.0);
    let up = if r < q - f { 1.0 } else { 0.0 };
    (f + up).min(levels).max(-levels) as i32
}

/// `Uniform8` quantization of `params` into `out` (one byte per element).
/// The rounding words — one per element — are drawn from `rng` a block at a
/// time through [`StochasticRng::fill`]: this loop *is* the definition of
/// which word rounds which element and of where the generator stands
/// afterwards, and the AVX2 arm's in-register draws reproduce it.
pub(super) fn encode_u8(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [u8],
) {
    let mut rand = [0u32; RAND_BLOCK];
    for (p, o) in params.chunks(RAND_BLOCK).zip(out.chunks_mut(RAND_BLOCK)) {
        let words = &mut rand[..p.len()];
        rng.fill(words);
        for ((o, v), w) in o.iter_mut().zip(p).zip(words.iter()) {
            *o = quantize_one(*v, inv, levels, *w) as u8;
        }
    }
}

/// [`encode_u8`] of an error-feedback residual with the fold-back fused in,
/// a block at a time: the block is quantized into `out`, then what was kept
/// is folded back out of it with [`fold_u8`] (`k` is `-1.0 * scale`), so the
/// residual is walked once, while it is cache-resident.
pub(super) fn feedback_append_u8(
    residual: &mut [f32],
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [u8],
) {
    for (r, o) in residual
        .chunks_mut(RAND_BLOCK)
        .zip(out.chunks_mut(RAND_BLOCK))
    {
        encode_u8(r, inv, levels, rng, o);
        fold_u8(r, o, k);
    }
}

/// Maps a quantized level in `[-7, 7]` to a sign-magnitude nibble.
#[inline]
// lifl-lint: allow(kernel-parity) — per-element helper; its vector
// counterpart is the 8-lane `avx2::nibble8`, checked via encode_u4.
pub(super) fn nibble(level: i32) -> u8 {
    let magnitude = level.unsigned_abs().min(7) as u8;
    if level < 0 {
        magnitude | 0x08
    } else {
        magnitude
    }
}

/// `Uniform4` quantization of `params` into packed nibbles (low nibble =
/// even element), drawing one rounding word per element from `rng` exactly
/// as [`encode_u8`] does.
pub(super) fn encode_u4(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [u8],
) {
    let mut rand = [0u32; RAND_BLOCK];
    // RAND_BLOCK is even, so each output chunk covers whole input pairs and
    // the nibble packing stays aligned across block boundaries.
    for (p, o) in params
        .chunks(RAND_BLOCK)
        .zip(out.chunks_mut(RAND_BLOCK / 2))
    {
        let words = &mut rand[..p.len()];
        rng.fill(words);
        for (j, o) in o.iter_mut().enumerate() {
            let e = 2 * j;
            let low = nibble(quantize_one(p[e], inv, levels, words[e]));
            let high = if e + 1 < p.len() {
                nibble(quantize_one(p[e + 1], inv, levels, words[e + 1]))
            } else {
                0
            };
            *o = low | (high << 4);
        }
    }
}

/// [`encode_u4`] of an error-feedback residual with the fold-back fused in,
/// block by block as [`feedback_append_u8`], through [`fold_u4_aligned`].
pub(super) fn feedback_append_u4(
    residual: &mut [f32],
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [u8],
) {
    for (r, o) in residual
        .chunks_mut(RAND_BLOCK)
        .zip(out.chunks_mut(RAND_BLOCK / 2))
    {
        encode_u4(r, inv, levels, rng, o);
        fold_u4_aligned(r, o, k);
    }
}
