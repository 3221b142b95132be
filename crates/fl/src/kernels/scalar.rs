//! Scalar reference implementations of every kernel.
//!
//! These functions *define* the semantics of the kernel layer: the AVX2 arms
//! in `super::avx2` and the AVX-512 ones in `super::avx512` must reproduce
//! them bit-for-bit (asserted by the proptests in the parent module), and
//! `LIFL_FORCE_SCALAR=1` makes their table, `SCALAR`, the one every call
//! goes through. Keep them simple and obviously correct; the parent
//! module's docs explain which floating-point operations are safe to
//! vectorise without changing results.

use super::{expf, Keys, Pass, StochasticRng, RAND_BLOCK};
use std::mem::MaybeUninit;

/// `f32::from(nibble_to_i8(n))` for every sign-magnitude nibble, as a
/// branch-free table for the scalar `Uniform4` fold (index 8, "negative
/// zero", decodes to `0.0`). The AVX2 arm holds the same table in a register
/// and looks it up with an in-register byte shuffle.
pub(super) const NIBBLE_F32: [f32; 16] = [
    0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0,
];

/// Fused fold of dense little-endian `f32` payloads, one accumulator load
/// (none, on a fresh pass, which starts from `+0.0`) and one store per
/// element: `acc[i] = (acc[i] + w_0 * s_0[i]) + w_1 * s_1[i] + …`, the adds
/// chained in source order, multiplied by the pass's scale if it has one,
/// and a NaN result stored as the canonical quiet NaN ([`f32::NAN`]) — so
/// the result is bit-identical to one single-source fold per source in turn
/// followed by the scale. Every source holds at least `4 * acc.len()`
/// bytes; sources and weights pair up in order.
pub(super) fn fold_dense_le_n(acc: &mut [f32], srcs: &[&[u8]], weights: &[f32], pass: Pass) {
    for (i, a) in acc.iter_mut().enumerate() {
        let at = 4 * i;
        let mut v = if pass.fresh { 0.0 } else { *a };
        for (src, w) in srcs.iter().zip(weights) {
            v += w * f32::from_le_bytes([src[at], src[at + 1], src[at + 2], src[at + 3]]);
        }
        if let Some(scale) = pass.scale {
            v *= scale;
        }
        *a = if v.is_nan() { f32::NAN } else { v };
    }
}

/// Copy of a dense little-endian `f32` payload, every bit pattern kept.
pub(super) fn decode_dense_le(out: &mut [f32], body: &[u8]) {
    for (o, c) in out.iter_mut().zip(body.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Fused fold of `Uniform8` level sources, one accumulator load (none, on a
/// fresh pass, which starts from `+0.0`) and one store per element:
/// `acc[i] = (acc[i] + f32(l_0[i] as i8) * k_0) + … `, the adds chained in
/// source order and multiplied by the pass's scale if it has one — so the
/// result is bit-identical to one single-source fold per source in turn
/// followed by the scale. Every source holds at least `acc.len()` levels;
/// sources and factors pair up in order.
pub(super) fn fold_u8_n(acc: &mut [f32], srcs: &[&[u8]], ks: &[f32], pass: Pass) {
    for (i, a) in acc.iter_mut().enumerate() {
        let mut v = if pass.fresh { 0.0 } else { *a };
        for (src, k) in srcs.iter().zip(ks) {
            v += f32::from(src[i] as i8) * k;
        }
        if let Some(scale) = pass.scale {
            v *= scale;
        }
        *a = v;
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

/// Fold of `TopK` `(index, value)` pairs restricted to `[start, end)`, where
/// `end - start` is at most `acc.len()`; inherently a scatter, which AVX2 has no useful instruction for, so every
/// arm runs this routine and no kernel table holds it.
pub(super) fn fold_topk(acc: &mut [f32], pairs: &[u8], start: usize, end: usize, weight: f32) {
    for pair in pairs.chunks_exact(8) {
        let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
        if index >= start && index < end {
            let value = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            acc[index - start] += weight * value;
        }
    }
}

/// Scatter of `TopK` `(index, value)` pairs into `out`, which holds zeros;
/// every arm runs it, like [`fold_topk`].
pub(super) fn decode_topk(out: &mut [f32], pairs: &[u8]) {
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

/// The magnitude key of the value of one `(u32 index, f32 value)` wire pair.
#[inline]
fn pair_key(pair: &[u8]) -> u32 {
    u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]) & 0x7FFF_FFFF
}

/// One level of the top-k radix histogram: over the keys whose magnitude
/// `m` satisfies `m >> hi == prefix`, counts how many fall in each bin
/// `(m >> lo) & ((1 << (hi - lo)) - 1)` — the next `hi - lo` (at most 12) key
/// bits below the prefix. `counts` is added to, not cleared.
pub(super) fn magnitude_histogram(
    keys: Keys<'_>,
    prefix: u32,
    hi: u32,
    lo: u32,
    counts: &mut [u32; super::TOPK_BINS],
) {
    let bin_mask = (1u32 << (hi - lo)) - 1;
    let mut count = |m: u32| {
        if m >> hi == prefix {
            counts[((m >> lo) & bin_mask) as usize] += 1;
        }
    };
    match keys {
        Keys::Dense(params) => params.iter().for_each(|x| count(magnitude(*x))),
        Keys::Pairs(pairs) => pairs.chunks_exact(8).for_each(|p| count(pair_key(p))),
        Keys::Bin(keys) => keys.iter().for_each(|m| count(*m)),
    }
}

/// Gathers, in order, the magnitude keys `m` of `keys` with `m >> hi ==
/// prefix` into `out`, and returns how many it gathered: all of them when
/// `out` has a word to spare. Branch-free: every key is written at the next
/// free word, which only moves on past a gathered one.
pub(super) fn gather_bin(keys: Keys<'_>, prefix: u32, hi: u32, out: &mut [u32]) -> usize {
    let mut n = 0usize;
    let mut gather = |m: u32| {
        if let Some(word) = out.get_mut(n) {
            *word = m;
            n += usize::from(m >> hi == prefix);
        }
    };
    match keys {
        Keys::Dense(params) => params.iter().for_each(|x| gather(magnitude(*x))),
        Keys::Pairs(pairs) => pairs.chunks_exact(8).for_each(|p| gather(pair_key(p))),
        Keys::Bin(keys) => keys.iter().for_each(|m| gather(*m)),
    }
    n
}

/// The top-k compare-and-compact sweep: appends the little-endian
/// `(u32 index, f32 value)` wire pair of every element whose magnitude key
/// exceeds `threshold`, and of the first `ties` elements whose key equals it,
/// in index order. `params[0]` has wire index `first_index`. Returns the tie
/// budget left over, or `None` when the pairs would take `body` past `limit`
/// bytes: the sweep stops there and what it appended is unspecified. `body`
/// never grows past `limit`, so a buffer reserved for it is never
/// reallocated.
pub(super) fn compact_topk(
    params: &[f32],
    first_index: u32,
    threshold: u32,
    ties: usize,
    body: &mut Vec<u8>,
    limit: usize,
) -> Option<usize> {
    let mut ties = ties;
    for (index, x) in (first_index..).zip(params) {
        let m = magnitude(*x);
        if m < threshold || (m == threshold && ties == 0) {
            continue;
        }
        if body.len() + 8 > limit {
            return None;
        }
        if m == threshold {
            ties -= 1;
        }
        push_pair(body, index, *x);
    }
    Some(ties)
}

fn push_pair(body: &mut Vec<u8>, index: u32, value: f32) {
    body.extend_from_slice(&index.to_le_bytes());
    body.extend_from_slice(&value.to_le_bytes());
}

/// The error-feedback collect: `acc += 1.0 * src` — the multiply by one,
/// then the add, a NaN sum stored as the canonical quiet NaN, exactly as
/// [`fold_dense_le_n`] does it — and, in the same sweep, the pair of every
/// sum whose magnitude key is at least `threshold` appended to `body` in
/// index order (`acc[0]` has wire index `first_index`): [`compact_topk`]
/// of the sums with every tie kept. Returns `false` when the pairs would
/// take `body` past `limit` bytes; collecting stops there (what it appended
/// is unspecified) but the add still covers every element.
pub(super) fn add_compact_topk(
    acc: &mut [f32],
    src: &[f32],
    first_index: u32,
    threshold: u32,
    body: &mut Vec<u8>,
    limit: usize,
) -> bool {
    let w = 1.0f32;
    for i in 0..acc.len() {
        let v = acc[i] + w * src[i];
        let v = if v.is_nan() { f32::NAN } else { v };
        acc[i] = v;
        if magnitude(v) < threshold {
            continue;
        }
        if body.len() + 8 > limit {
            let rest = i + 1;
            fold_dense_le_n(
                &mut acc[rest..],
                &[super::le_bytes(&src[rest..])],
                &[w],
                Pass::ADD,
            );
            return false;
        }
        push_pair(body, first_index + i as u32, v);
    }
    true
}

/// Compacts a run of wire pairs forward in place to the pairs a cut keeps:
/// every pair whose value's magnitude key exceeds `threshold` and the first
/// `ties` pairs whose key equals it, in run order. Returns the bytes kept.
pub(super) fn compact_pairs(run: &mut [u8], threshold: u32, ties: usize) -> usize {
    let mut ties = ties;
    let mut out = 0usize;
    for at in (0..run.len() / 8 * 8).step_by(8) {
        let mut pair = [0u8; 8];
        pair.copy_from_slice(&run[at..at + 8]);
        let m = pair_key(&pair);
        // Branch-free: every pair is written at `out`, which only moves on
        // past a kept one.
        let tie = m == threshold && ties > 0;
        ties -= usize::from(tie);
        run[out..out + 8].copy_from_slice(&pair);
        out += 8 * usize::from(m > threshold || tie);
    }
    out
}

/// Largest finite `|x|` in `params` (0 when there is none). Exact, so the
/// order max is taken in does not matter and the vector arm matches.
pub(super) fn max_abs_finite(params: &[f32]) -> f32 {
    params
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |acc, v| acc.max(v.abs()))
}

/// `acc += 1.0 * src` — the multiply by one, then the add — and, in the same
/// sweep, the largest finite `|x|` of the sums (0 when there is none), as
/// [`max_abs_finite`] would find it afterwards.
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
/// truncating convert) is what the vector arms mirror instruction for
/// instruction — every step is exactly rounded, so the arms agree bitwise.
/// Its vector counterparts are the 8-lane `avx2::quantize8` and the 16-lane
/// `avx512::quantize16`, checked through the encoders.
#[inline]
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

/// `Uniform8` quantization of `params` into `out` (one byte per element,
/// every byte of `out` written and none read). The rounding words — one per
/// element — are drawn from `rng` a block at a time through
/// [`StochasticRng::fill`]: this loop *is* the definition of which word
/// rounds which element and of where the generator stands afterwards, and
/// the vector arms' in-register draws reproduce it.
pub(super) fn encode_u8(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    let mut rand = [0u32; RAND_BLOCK];
    for (p, o) in params.chunks(RAND_BLOCK).zip(out.chunks_mut(RAND_BLOCK)) {
        let words = &mut rand[..p.len()];
        rng.fill(words);
        for ((o, v), w) in o.iter_mut().zip(p).zip(words.iter()) {
            o.write(quantize_one(*v, inv, levels, *w) as u8);
        }
    }
}

/// [`encode_u8`] of an error-feedback residual with the fold-back fused in,
/// a block at a time: the block is quantized into `out`, then what was kept
/// is folded back out of it with [`fold_u8_n`] (`k` is `-1.0 * scale`), so the
/// residual is walked once, while it is cache-resident.
pub(super) fn feedback_append_u8(
    residual: &mut [f32],
    inv: f32,
    k: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
) {
    for (r, o) in residual
        .chunks_mut(RAND_BLOCK)
        .zip(out.chunks_mut(RAND_BLOCK))
    {
        encode_u8(r, inv, levels, rng, o);
        // SAFETY: `encode_u8` wrote every byte of `o` (`o` is as long as
        // `r`, both cut from blocks of equal length).
        let levels = unsafe { o.assume_init_ref() };
        fold_u8_n(r, &[levels], &[k], Pass::ADD);
    }
}

/// Maps a quantized level in `[-7, 7]` to a sign-magnitude nibble. Its
/// vector counterpart is the 8-lane `avx2::nibble8`, checked through
/// `encode_u4`.
#[inline]
pub(super) fn nibble(level: i32) -> u8 {
    let magnitude = level.unsigned_abs().min(7) as u8;
    if level < 0 {
        magnitude | 0x08
    } else {
        magnitude
    }
}

/// `Uniform4` quantization of `params` into packed nibbles (low nibble =
/// even element, every byte of `out` written and none read), drawing one
/// rounding word per element from `rng` exactly as [`encode_u8`] does.
pub(super) fn encode_u4(
    params: &[f32],
    inv: f32,
    levels: f32,
    rng: &mut StochasticRng,
    out: &mut [MaybeUninit<u8>],
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
            o.write(low | (high << 4));
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
    out: &mut [MaybeUninit<u8>],
) {
    for (r, o) in residual
        .chunks_mut(RAND_BLOCK)
        .zip(out.chunks_mut(RAND_BLOCK / 2))
    {
        encode_u4(r, inv, levels, rng, o);
        // SAFETY: `encode_u4` wrote every byte of `o`, the packed nibbles of
        // `r` (a block is even, so only the last chunk can be odd).
        let nibbles = unsafe { o.assume_init_ref() };
        fold_u4_aligned(r, nibbles, k);
    }
}

/// Class logits of one sample over a transposed weight block: `out[c] =
/// -0.0 + Σ_j wt[j·kp + c]·x[j]` for every class lane `c < kp =
/// out.len()`, the products added in feature order — [`logits_from`] from
/// lane 0. `wt` holds `x.len()` rows of `kp`.
pub(super) fn logits(wt: &[f32], x: &[f32], out: &mut [f32]) {
    logits_from(wt, x, out, 0);
}

/// [`logits`] of the class lanes from `from` on, the vector arms' tail:
/// feature-outer, lane-inner, each lane one chain of adds from `-0.0` (the
/// identity `Sum for f32` starts from) in feature order.
pub(super) fn logits_from(wt: &[f32], x: &[f32], out: &mut [f32], from: usize) {
    let kp = out.len();
    let out = &mut out[from..];
    out.fill(-0.0);
    for (j, x) in x.iter().enumerate() {
        let row = &wt[j * kp + from..(j + 1) * kp];
        for (acc, w) in out.iter_mut().zip(row) {
            *acc += w * x;
        }
    }
}

/// The gradient of one mini-batch of softmax regression, written fresh:
/// `weights[c·f + j] = +0.0 + Σ_s err[s·stride + c]·x_s[j]` and `bias[c] =
/// +0.0 + Σ_s err[s·stride + c]` for every class `c < bias.len()` and
/// feature `j < f = weights.len() / bias.len()`, the terms added in sample
/// order. A sample shorter than `f` adds no term to the features it lacks.
/// `err` holds `xs.len()` rows of `stride ≥ bias.len()`.
pub(super) fn outer_accumulate(
    weights: &mut [f32],
    bias: &mut [f32],
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
) {
    bias_row(bias, err, stride, xs.len());
    outer_columns(weights, bias.len(), err, stride, xs, 0);
}

/// `bias[c] = +0.0 + Σ_s err[s·stride + c]` over the first `samples` rows,
/// in sample order: [`outer_accumulate`]'s bias row, which every arm runs.
pub(super) fn bias_row(bias: &mut [f32], err: &[f32], stride: usize, samples: usize) {
    bias.fill(0.0);
    for row in err.chunks_exact(stride).take(samples) {
        for (b, e) in bias.iter_mut().zip(row) {
            *b += e;
        }
    }
}

/// [`outer_accumulate`]'s weight rows over the features from `from` on,
/// the vector arms' tail: class-outer, then sample order, each row's
/// columns one vectorizable add.
pub(super) fn outer_columns(
    weights: &mut [f32],
    classes: usize,
    err: &[f32],
    stride: usize,
    xs: &[&[f32]],
    from: usize,
) {
    let f = weights.len().checked_div(classes).unwrap_or(0);
    if f == 0 {
        return;
    }
    for (c, row) in weights.chunks_exact_mut(f).enumerate() {
        let row = &mut row[from..];
        row.fill(0.0);
        for (s, x) in xs.iter().enumerate() {
            let e = err[s * stride + c];
            for (g, x) in row.iter_mut().zip(x.get(from..).unwrap_or_default()) {
                *g += e * x;
            }
        }
    }
}

/// The softmax of every `stride`-lane row of `rows` over its first
/// `classes` lanes, one row at a time: the `f32::max` fold from −∞ (NaN
/// ignored), [`expf`] of each `l − max`, the sum in class order from
/// `-0.0`, and each exponential divided by it. `rows.len()` is a multiple
/// of `stride >= classes`.
pub(super) fn softmax_rows(rows: &mut [f32], classes: usize, stride: usize) {
    for row in rows.chunks_exact_mut(stride) {
        let row = &mut row[..classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for l in row.iter_mut() {
            *l = expf(*l - max);
        }
        let sum = row.iter().fold(-0.0, |sum, e| sum + e);
        for e in row.iter_mut() {
            *e /= sum;
        }
    }
}

/// `wt[j·kp + c] = w[c·features + j]` for every class `c < k = w.len() /
/// features` and feature `j`, `kp = wt.len() / features`: one strided store
/// per weight. Lanes `k..kp` are not written.
pub(super) fn class_lanes(w: &[f32], features: usize, wt: &mut [f32]) {
    let kp = wt.len() / features;
    for (c, row) in w.chunks_exact(features).enumerate() {
        for (j, &weight) in row.iter().enumerate() {
            wt[j * kp + c] = weight;
        }
    }
}

/// The sums of the rows of `group` (at most 8 rows of `stride`) over their
/// first `classes` lanes, into `sums`: each one chain of adds in class order
/// from `-0.0`, as [`softmax_rows`] sums a row, the eight chains advancing
/// side by side (a row past the group's end repeats its last, and its sum
/// is not read). The vector arms' softmax sums its rows through it.
pub(super) fn row_sums(group: &[f32], classes: usize, stride: usize, sums: &mut [f32; 8]) {
    let last = (group.len() / stride).saturating_sub(1);
    let starts: [usize; 8] = std::array::from_fn(|r| r.min(last) * stride);
    *sums = [-0.0; 8];
    for c in 0..classes {
        for (sum, start) in sums.iter_mut().zip(starts) {
            *sum += group[start + c];
        }
    }
}
