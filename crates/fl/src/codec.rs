//! Model-update codecs: quantized / sparsified wire representations.
//!
//! LIFL's headline win is cutting the per-update *hand-off* cost; this module
//! attacks the remaining term, the payload bytes themselves, in the spirit of
//! implicitly/quantization-enhanced RL representations (iQRL, QeRL —
//! PAPERS.md). Three lossy representations are provided next to the lossless
//! [`CodecKind::Identity`]:
//!
//! * **Uniform8 / Uniform4** — stochastic uniform quantization with one `f32`
//!   scale per tensor. Stochastic rounding makes the quantizer *unbiased*
//!   (`E[decode(encode(x))] = x`), so cumulative FedAvg over many clients and
//!   rounds is not systematically dragged; the worst-case per-element error is
//!   one quantization step (`scale`), half a step in expectation.
//! * **TopK** — magnitude sparsification; only the largest-magnitude
//!   coordinates travel as `(index, value)` pairs, sorted by index. Which
//!   ones is an exact selection under the total order documented at
//!   [`kernels::append_topk`].
//!
//! [`ErrorFeedback`] keeps a per-client residual (the part of each update the
//! codec dropped) and folds it into the client's next transmission, the
//! standard error-feedback construction that keeps long-run FedAvg convergent
//! even under aggressive compression.
//!
//! The wire form [`EncodedUpdate`] is a self-describing byte string (16-byte
//! header + payload) kept in one buffer, so it moves into the `lifl-shmem`
//! object store as it is ([`EncodedUpdate::into_wire`]) and is re-parsed by
//! any aggregator without side-channel metadata. Its payload size always
//! equals [`CodecKind::encoded_bytes`] applied to the dense size, keeping the
//! simulator's cost accounting and the in-process runtime's real byte
//! counters consistent. [`EncodedView::parse`] is the one place that
//! decides whether bytes off the wire are well-formed: a finite,
//! non-negative scale, the encoder's `kept` rule, and top-k indices strictly
//! ascending below `dim`. Every view — parsed, over an encoder's output or
//! an identity view over dense bytes — meets that contract, so no fold
//! checks it again.
//!
//! The per-codec encode and fused decode-fold inner loops all live in
//! [`crate::kernels`], which dispatches between its vector arms and a
//! bit-exact scalar reference at runtime; this module owns the wire format,
//! scale derivation and buffer management around those kernels. Decode is
//! the fold into zeros: [`EncodedView::decode`] and
//! [`EncodedView::decode_into`] fold a quantized view at weight 1 into a
//! zeroed buffer (`0.0 + level * (1.0 * scale)`, the same bits as `level *
//! scale` except that a `-0.0` product decodes as `+0.0`, which no encoder
//! writes), copy an `Identity` view and scatter a `TopK` one, so a codec
//! needs encode and fold kernels and no decode kernel of its own.

use crate::kernels;
use crate::kernels::StochasticRng;
use crate::model::DenseModel;
use crate::update::Update;
use lifl_shmem::{BufferPool, PooledBuf};
use lifl_types::{ClientId, CodecKind, LiflError, Result, WIRE_HEADER_BYTES};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Codec tags used in byte 0 of the wire header.
const TAG_IDENTITY: u8 = 0;
const TAG_UNIFORM8: u8 = 1;
const TAG_UNIFORM4: u8 = 2;
const TAG_TOPK: u8 = 3;

/// Quantization levels on each side of zero for the uniform codecs.
const U8_LEVELS: f32 = 127.0;
const U4_LEVELS: f32 = 7.0;

/// Length of the wire descriptor as a slice index.
const HEADER: usize = WIRE_HEADER_BYTES as usize;

/// The 16-byte self-describing wire descriptor: codec tag, a reserved byte,
/// the top-k permille, then `dim`, `scale` and `kept`, all little-endian.
fn descriptor(codec: CodecKind, dim: u32, scale: f32, kept: u32) -> [u8; HEADER] {
    let (tag, permille) = match codec {
        CodecKind::Identity => (TAG_IDENTITY, 0u16),
        CodecKind::Uniform8 => (TAG_UNIFORM8, 0),
        CodecKind::Uniform4 => (TAG_UNIFORM4, 0),
        CodecKind::TopK { permille } => (TAG_TOPK, permille),
    };
    let mut out = [0u8; HEADER];
    out[0] = tag;
    out[2..4].copy_from_slice(&permille.to_le_bytes());
    out[4..8].copy_from_slice(&dim.to_le_bytes());
    out[8..12].copy_from_slice(&scale.to_le_bytes());
    out[12..16].copy_from_slice(&kept.to_le_bytes());
    out
}

/// The `dim` a wire string's descriptor states, read without checking
/// anything else: for bytes that already passed [`EncodedView::parse`], such
/// as a parked offer. 0 for bytes too short to hold a descriptor, which
/// never parse.
pub fn descriptor_dim(wire: &[u8]) -> usize {
    match wire.get(..HEADER) {
        Some(&[_, _, _, _, a, b, c, d, ..]) => u32::from_le_bytes([a, b, c, d]) as usize,
        _ => 0,
    }
}

/// A model update in its on-wire representation: a self-describing header
/// followed by the codec-specific payload.
///
/// Descriptor and payload live **contiguously in one buffer**
/// (`[16-byte descriptor | body]`, the encoders writing the body at offset
/// 16), so the wire form *is* the buffer: [`EncodedUpdate::wire`] borrows it
/// and [`EncodedUpdate::into_wire`] moves it — into the shared-memory store,
/// typically — without serializing anything. An update encoded by a pooled
/// [`UpdateCodec`] carries its way home with it: wherever the buffer is
/// finally dropped (the update itself, the store object it became, a refused
/// put), it goes back to the codec's [`BufferPool`]. Clones and parsed copies
/// are plain heap buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedUpdate {
    codec: CodecKind,
    dim: u32,
    scale: f32,
    kept: u32,
    /// `[descriptor | body]`; the descriptor restates the fields above.
    wire: PooledBuf,
}

impl EncodedUpdate {
    /// Number of parameters of the dense model this encodes.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The per-tensor quantization scale (0 for `Identity` and `TopK`): the
    /// decode error bound lossy-codec tests compare against.
    #[cfg(test)]
    pub(crate) fn scale(&self) -> f32 {
        self.scale
    }

    /// Payload bytes this update puts on the data plane. The 16-byte
    /// descriptor header travels the SKMSG control channel alongside the
    /// object key and weight, so it is excluded here — this always equals
    /// [`CodecKind::encoded_bytes`] of the dense size.
    pub fn wire_bytes(&self) -> u64 {
        self.stored_bytes() - WIRE_HEADER_BYTES
    }

    /// Bytes the self-describing form occupies in shared memory (descriptor
    /// header + payload). The headerless dense representation of the
    /// pre-codec path is produced by `ObjectStore::put_f32`, not by this
    /// type, so every `EncodedUpdate` — `Identity` included — carries the
    /// header and round-trips through [`EncodedUpdate::from_bytes`].
    pub fn stored_bytes(&self) -> u64 {
        self.wire.as_slice().len() as u64
    }

    /// Bytes of the dense `f32` representation of the same model.
    pub fn dense_bytes(&self) -> u64 {
        u64::from(self.dim) * 4
    }

    /// The self-describing wire form (descriptor + payload), borrowed in
    /// place; [`EncodedUpdate::from_bytes`] is its exact inverse for every
    /// codec.
    pub fn wire(&self) -> &[u8] {
        self.wire.as_slice()
    }

    /// Moves the wire form out as a shared handle — no copy: the handle
    /// *is* this update's buffer, and dropping its last clone returns a
    /// pooled buffer to its pool.
    pub fn into_wire(self) -> bytes::Bytes {
        bytes::Bytes::from_owner(self.wire)
    }

    /// Copies the wire form into a fresh vector. A convenience for callers
    /// that need an owned, unpooled byte string; [`EncodedUpdate::wire`]
    /// borrows the same bytes and [`EncodedUpdate::into_wire`] moves them.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.wire().to_vec()
    }

    /// Parses a wire byte string (see [`EncodedUpdate::wire`]) into an owned
    /// update (the bytes are copied). The zero-copy alternative is
    /// [`EncodedView::parse`], which borrows the payload in place.
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] on a truncated or malformed buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(EncodedView::parse(bytes)?.to_update())
    }

    /// A zero-copy view over this update's payload, for in-place decode and
    /// fused decode-fold.
    pub fn view(&self) -> EncodedView<'_> {
        EncodedView {
            codec: self.codec,
            dim: self.dim,
            scale: self.scale,
            kept: self.kept,
            body: &self.wire.as_slice()[HEADER..],
        }
    }

    /// Reconstructs the dense model this update encodes.
    pub fn decode(&self) -> DenseModel {
        self.view().decode()
    }

    /// Dequantizes this update into `out` without allocating; `out` becomes
    /// exactly what [`EncodedUpdate::decode`] would return.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `out.len() != self.dim()`.
    pub fn decode_into(&self, out: &mut [f32]) -> Result<()> {
        self.view().decode_into(out)
    }

    /// Consumes the update and returns its payload alone, descriptor
    /// stripped (the payload slides down 16 bytes within the same
    /// allocation). The buffer no longer returns to a pool by itself.
    pub fn into_body(self) -> Vec<u8> {
        let mut wire = self.wire.into_vec();
        wire.drain(..HEADER);
        wire
    }
}

/// A borrowed, zero-copy view of an encoded update: the parsed 16-byte
/// descriptor plus a reference to the payload bytes, typically straight out of
/// the shared-memory object store. All decode and fused decode-fold kernels
/// operate on views so interior aggregators never materialise an intermediate
/// `DenseModel` (or even copy the payload) on the Recv+Agg critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedView<'a> {
    codec: CodecKind,
    dim: u32,
    scale: f32,
    kept: u32,
    body: &'a [u8],
}

/// The coordinate a top-k `(u32 index, f32 value)` pair addresses.
fn pair_index(pair: &[u8; 8]) -> u32 {
    u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]])
}

impl<'a> EncodedView<'a> {
    /// Parses the self-describing wire form without copying the payload, and
    /// checks the wire contract every view is then known to meet:
    ///
    /// * the scale is finite and non-negative (every codec);
    /// * a `TopK` permille lies in `1..=1000`, `kept` is
    ///   [`CodecKind::top_k_kept`] of `dim` (the encoder's own rule, which
    ///   also bounds `dim` by the payload that actually arrived), and the
    ///   indices are strictly ascending with the last one below `dim`;
    /// * the payload length is exactly what the header implies.
    ///
    /// So a fold may cut a top-k payload by index range with a binary search
    /// and never meets a duplicate or an out-of-range coordinate.
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] on a truncated buffer or one that breaks
    /// the contract.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let header = bytes
            .get(..WIRE_HEADER_BYTES as usize)
            .ok_or_else(|| LiflError::Codec("wire buffer shorter than header".to_string()))?;
        let permille = u16::from_le_bytes([header[2], header[3]]);
        let dim = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let scale = f32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let kept = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let codec = match header[0] {
            TAG_IDENTITY => CodecKind::Identity,
            TAG_UNIFORM8 => CodecKind::Uniform8,
            TAG_UNIFORM4 => CodecKind::Uniform4,
            TAG_TOPK => CodecKind::TopK { permille },
            other => return Err(LiflError::Codec(format!("unknown codec tag {other}"))),
        };
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(LiflError::Codec(format!(
                "scale {scale} is not a finite non-negative number"
            )));
        }
        if matches!(codec, CodecKind::TopK { .. }) {
            if !(1..=1000).contains(&permille) {
                return Err(LiflError::Codec(format!(
                    "top-k permille {permille} outside 1..=1000"
                )));
            }
            let rule = CodecKind::top_k_kept(u64::from(dim), permille);
            if u64::from(kept) != rule {
                return Err(LiflError::Codec(format!(
                    "top-k header keeps {kept} of {dim} parameters, the codec keeps {rule}"
                )));
            }
        }
        let body = &bytes[WIRE_HEADER_BYTES as usize..];
        let expected = match codec {
            CodecKind::Identity => dim as usize * 4,
            CodecKind::Uniform8 => dim as usize,
            CodecKind::Uniform4 => (dim as usize).div_ceil(2),
            CodecKind::TopK { .. } => kept as usize * 8,
        };
        if body.len() != expected {
            return Err(LiflError::Codec(format!(
                "payload length {} does not match header (codec {codec}, dim {dim}, kept {kept})",
                body.len()
            )));
        }
        if matches!(codec, CodecKind::TopK { .. }) {
            // Adjacent pairs ascending, then the last index in range: no
            // value carried from step to step and no early exit, so the scan
            // vectorizes (≈ 1.6x faster than a short-circuiting `all`).
            let (pairs, _) = body.as_chunks::<8>();
            let ascending = pairs
                .windows(2)
                .fold(true, |ok, w| ok & (pair_index(&w[0]) < pair_index(&w[1])));
            if !ascending || pairs.last().is_some_and(|last| pair_index(last) >= dim) {
                return Err(LiflError::Codec(format!(
                    "top-k indices are not strictly ascending below dim {dim}"
                )));
            }
        }
        Ok(EncodedView {
            codec,
            dim,
            scale,
            kept,
            body,
        })
    }

    /// Wraps a headerless dense little-endian `f32` payload (the pre-codec
    /// `ObjectStore::put_f32` representation) as an `Identity` view, so dense
    /// and encoded payloads share one fused fold path.
    pub fn identity_over(payload: &'a [u8]) -> Self {
        let dim = (payload.len() / 4) as u32;
        EncodedView {
            codec: CodecKind::Identity,
            dim,
            scale: 0.0,
            kept: dim,
            body: &payload[..dim as usize * 4],
        }
    }

    /// The codec that produced this update.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Number of parameters of the dense model this encodes.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The factor a fold of this view at `weight` samples multiplies each
    /// quantized level by, `weight as f32 * scale` — what every fold of a
    /// `Uniform8` or `Uniform4` view computes — or `None` for `Identity` and
    /// `TopK`, which fold their values at the weight itself. [`parse`]
    /// checks that the scale is finite, but the product can still overflow
    /// to ±∞.
    ///
    /// [`parse`]: EncodedView::parse
    pub fn level_factor(&self, weight: u64) -> Option<f32> {
        let quantized = matches!(self.codec, CodecKind::Uniform8 | CodecKind::Uniform4);
        quantized.then_some(weight as f32 * self.scale)
    }

    /// Copies the view into an owned [`EncodedUpdate`].
    pub fn to_update(&self) -> EncodedUpdate {
        let mut wire = Vec::with_capacity(HEADER + self.body.len());
        wire.extend_from_slice(&descriptor(self.codec, self.dim, self.scale, self.kept));
        wire.extend_from_slice(self.body);
        EncodedUpdate {
            codec: self.codec,
            dim: self.dim,
            scale: self.scale,
            kept: self.kept,
            wire: PooledBuf::detached(wire),
        }
    }

    /// Reconstructs the dense model this view encodes (allocating): the
    /// decode onto a fresh zeroed buffer, which needs no fill of its own.
    pub fn decode(&self) -> DenseModel {
        let mut out = vec![0.0f32; self.dim as usize];
        self.decode_onto_zeros(&mut out);
        DenseModel::from_vec(out)
    }

    /// Dequantizes into `out` without allocating, bit-exactly reproducing
    /// [`EncodedView::decode`]: `out` is zero-filled, then decoded onto.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `out.len() != self.dim()`.
    pub fn decode_into(&self, out: &mut [f32]) -> Result<()> {
        if out.len() != self.dim as usize {
            return Err(LiflError::DimensionMismatch {
                expected: self.dim as usize,
                actual: out.len(),
            });
        }
        out.fill(0.0);
        self.decode_onto_zeros(out);
        Ok(())
    }

    /// Writes the decoded update into `out`, which holds `dim` zeros: an
    /// `Identity` body is copied and a `TopK` one scattered, every kept bit
    /// as it is; a quantized body is folded in at weight 1.
    fn decode_onto_zeros(&self, out: &mut [f32]) {
        match self.codec {
            CodecKind::Identity => kernels::decode_dense_le(out, self.body),
            CodecKind::TopK { .. } => kernels::decode_topk(out, self.body),
            CodecKind::Uniform8 | CodecKind::Uniform4 => self.fold_range_into(1.0, 0, out),
        }
    }

    /// Fused decode-fold: adds `weight * decode(self)` into `acc` in a single
    /// pass over the wire payload, with no intermediate buffer. `TopK` touches
    /// only its nonzero coordinates. For `Identity` this is bit-exact with
    /// decode-then-`axpy`; for the quantized codecs the dequantize and weight
    /// multiplies are fused (`level * (weight * scale)`), which differs from
    /// the two-step path by at most a few ulps — far inside one quantization
    /// step.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `acc.len() != self.dim()`.
    pub fn fold_into(&self, weight: f32, acc: &mut [f32]) -> Result<()> {
        if acc.len() != self.dim as usize {
            return Err(LiflError::DimensionMismatch {
                expected: self.dim as usize,
                actual: acc.len(),
            });
        }
        self.fold_range_into(weight, 0, acc);
        Ok(())
    }

    /// The payload of the view from element `start` on (empty past the
    /// end) and the factor its fold weight is scaled by, for a fold that
    /// takes several views of one codec at once: an `Identity` view's
    /// little-endian `f32`s at factor 1 ([`kernels::fold_dense_le_n`]), a
    /// `Uniform8` view's levels at its scale ([`kernels::fold_u8_n`]);
    /// `None` for every other codec.
    pub(crate) fn source_from(&self, start: usize) -> Option<(&'a [u8], f32)> {
        match self.codec {
            CodecKind::Identity => Some((self.body.get(start * 4..).unwrap_or_default(), 1.0)),
            CodecKind::Uniform8 => Some((self.body.get(start..).unwrap_or_default(), self.scale)),
            _ => None,
        }
    }

    /// Fused decode-fold over the element range `[start, start + acc.len())`
    /// of the decoded update: the block-local kernel behind the cache-blocked
    /// batch fold (`CumulativeFedAvg::fold_encoded_batch`). The caller
    /// guarantees the range lies inside `0..self.dim()`; out-of-range tails
    /// simply fold nothing. A `TopK`
    /// payload's indices are strictly ascending (checked by
    /// [`EncodedView::parse`]), so two binary searches on the range bounds
    /// cut out exactly the pairs inside it and only those are walked.
    pub fn fold_range_into(&self, weight: f32, start: usize, acc: &mut [f32]) {
        let dim = self.dim as usize;
        let len = acc.len().min(dim.saturating_sub(start));
        if len == 0 {
            return;
        }
        let acc = &mut acc[..len];
        match self.codec {
            CodecKind::Identity => {
                kernels::fold_dense_le(acc, &self.body[start * 4..(start + len) * 4], weight);
            }
            CodecKind::Uniform8 => {
                kernels::fold_u8(acc, &self.body[start..start + len], weight * self.scale);
            }
            CodecKind::Uniform4 => {
                kernels::fold_u4(acc, self.body, start, weight * self.scale);
            }
            CodecKind::TopK { .. } => {
                let (pairs, _) = self.body.as_chunks::<8>();
                let end = start + len;
                let first = pairs.partition_point(|pair| (pair_index(pair) as usize) < start);
                let count =
                    pairs[first..].partition_point(|pair| (pair_index(pair) as usize) < end);
                let range = pairs[first..first + count].as_flattened();
                kernels::fold_topk(acc, range, start, end, weight);
            }
        }
    }
}

/// The encoder/decoder for one [`CodecKind`], owning the randomness stream the
/// stochastic rounding draws from (deterministic given the seed) and the
/// scratch-buffer pool its encode bodies are drawn from.
#[derive(Debug, Clone)]
pub struct UpdateCodec {
    kind: CodecKind,
    rng: StochasticRng,
    pool: BufferPool,
}

impl UpdateCodec {
    /// Creates a codec with a fixed default seed (deterministic streams).
    pub fn new(kind: CodecKind) -> Self {
        Self::with_seed(kind, 0xC0DEC)
    }

    /// Creates a codec whose stochastic rounding draws from `seed`.
    pub fn with_seed(kind: CodecKind, seed: u64) -> Self {
        UpdateCodec {
            kind,
            rng: StochasticRng::from_seed(seed),
            pool: BufferPool::new(),
        }
    }

    /// Shares `pool` as the scratch slab the encode bodies are drawn from.
    /// Retire encoded updates with [`UpdateCodec::recycle`] and steady-state
    /// encoding allocates nothing after warm-up.
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }

    /// Restarts the stochastic-rounding stream at `seed`: the codec then
    /// encodes exactly as a fresh `with_seed(kind, seed)` codec over the same
    /// pool would.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StochasticRng::from_seed(seed);
    }

    /// The scratch slab this codec draws from — where an aggregator that
    /// encodes with it also keeps its accumulator between rounds.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Checks a retired update's buffer into this codec's pool so the next
    /// [`UpdateCodec::encode`] reuses it instead of allocating. For an update
    /// this codec encoded that is what dropping it does anyway; the explicit
    /// form also donates a buffer that came from somewhere else.
    pub fn recycle(&self, encoded: EncodedUpdate) {
        self.pool.checkin_bytes(encoded.wire.into_vec());
    }

    /// The configured codec kind.
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// Encodes a dense model into its wire representation.
    pub fn encode(&mut self, model: &DenseModel) -> EncodedUpdate {
        self.encode_slice(model.as_slice())
    }

    /// Encodes a raw parameter slice into its wire representation (the
    /// `DenseModel`-free entry point used by pooled scratch buffers). The
    /// one buffer — descriptor first, the body written straight behind it —
    /// is checked out of the codec's pool and returns there when dropped.
    pub fn encode_slice(&mut self, params: &[f32]) -> EncodedUpdate {
        encode_params(self.kind, &self.pool, &mut self.rng, params)
    }

    /// Convenience: encode then immediately decode (what an aggregator sees).
    #[cfg(test)]
    pub(crate) fn roundtrip(&mut self, model: &DenseModel) -> DenseModel {
        self.encode(model).decode()
    }
}

/// [`UpdateCodec::encode_slice`] for a codec of `kind` drawing buffers from
/// `pool` and rounding words from `rng`.
fn encode_params(
    kind: CodecKind,
    pool: &BufferPool,
    rng: &mut StochasticRng,
    params: &[f32],
) -> EncodedUpdate {
    let dim = params.len() as u32;
    let (scale, kept) = match kind {
        CodecKind::Identity => (0.0, dim),
        CodecKind::Uniform8 => (tensor_scale(params, U8_LEVELS), dim),
        CodecKind::Uniform4 => (tensor_scale(params, U4_LEVELS), dim),
        CodecKind::TopK { permille } => {
            let kept = CodecKind::top_k_kept(params.len() as u64, permille);
            (0.0, kept as u32)
        }
    };
    let mut encoded = checkout(kind, pool, dim, scale, kept);
    let out = encoded.wire.as_mut_vec();
    match kind {
        CodecKind::Identity => out.extend_from_slice(kernels::le_bytes(params)),
        CodecKind::Uniform8 => kernels::append_u8(params, scale, U8_LEVELS, rng, out),
        CodecKind::Uniform4 => kernels::append_u4(params, scale, U4_LEVELS, rng, out),
        CodecKind::TopK { .. } => kernels::append_topk(params, kept as usize, out),
    }
    encoded
}

/// An update of codec `kind` with its one wire buffer checked out of `pool`
/// and the descriptor written; the body goes straight behind it. A top-k
/// buffer also has room for the selection's candidate run.
fn checkout(kind: CodecKind, pool: &BufferPool, dim: u32, scale: f32, kept: u32) -> EncodedUpdate {
    let body_bytes = match kind {
        CodecKind::TopK { .. } => kernels::topk_capacity(dim as usize, kept as usize),
        _ => kind.encoded_bytes(u64::from(dim) * 4) as usize,
    };
    let mut wire = PooledBuf::checkout(pool, HEADER + body_bytes);
    wire.as_mut_vec()
        .extend_from_slice(&descriptor(kind, dim, scale, kept));
    EncodedUpdate {
        codec: kind,
        dim,
        scale,
        kept,
        wire,
    }
}

/// Per-tensor scale so the largest magnitude maps to the outermost level.
fn tensor_scale(params: &[f32], levels: f32) -> f32 {
    scale_for(kernels::max_abs_finite(params), levels)
}

/// [`tensor_scale`] of a tensor whose largest finite magnitude is `max_abs`:
/// 0 — an all-zero body that draws nothing, so error feedback keeps the whole
/// update in the residual — when the tensor is zero, and also when `1 /
/// scale` overflows (`max_abs` below ≈ 3.7e-37 for `Uniform8`, ≈ 2.1e-38 for
/// `Uniform4`), where every zero element would quantize as `0 · ∞ = NaN`,
/// which the clamp sends to the top level.
pub(crate) fn scale_for(max_abs: f32, levels: f32) -> f32 {
    let scale = max_abs / levels;
    if (1.0 / scale).is_finite() {
        scale
    } else {
        0.0
    }
}

/// A fused error-feedback body encoder of the kernel layer
/// ([`kernels::feedback_append_u8`] / [`kernels::feedback_append_u4`]).
type FeedbackAppend = fn(&mut [f32], f32, f32, &mut StochasticRng, &mut Vec<u8>);

/// The levels and fused body encoder of a stochastic quantizer; `None` for
/// the codecs whose encode draws no rounding words.
fn quantizer(kind: CodecKind) -> Option<(f32, FeedbackAppend)> {
    match kind {
        CodecKind::Uniform8 => Some((U8_LEVELS, kernels::feedback_append_u8)),
        CodecKind::Uniform4 => Some((U4_LEVELS, kernels::feedback_append_u4)),
        CodecKind::Identity | CodecKind::TopK { .. } => None,
    }
}

/// One client's error-feedback encode, taken out of its [`ErrorFeedback`]
/// ([`ErrorFeedback::take_job`]) so that it can run on any thread: the
/// client's residual, moved out of the map, and the model still to be added
/// into it. Its steps — [`FeedbackJob::compensate`] (sweep 1),
/// [`CompensatedJob::finish`] (sweep 2; for top-k, which selects in sweep 1,
/// a fold-back over the kept pairs) and [`ErrorFeedback::restore`] — are
/// the one encode behind [`ErrorFeedback::encode`] too. The only thing a job
/// shares with other clients' jobs is the rounding stream, which it reads
/// between its two sweeps ([`CompensatedJob::claim`]).
#[derive(Debug)]
pub struct FeedbackJob<'a> {
    client: ClientId,
    kind: CodecKind,
    pool: BufferPool,
    residual: DenseModel,
    /// The model still to be added into a stored residual; `None` when the
    /// model is the residual already (a client's first, or reshaped, model).
    carried: Option<Cow<'a, DenseModel>>,
}

impl FeedbackJob<'_> {
    /// Whether the encode draws from the shared rounding stream. Every
    /// stochastic quantizer does, so its place in the stream's order is
    /// fixed when the job is taken — even though how many words it draws is
    /// known only after [`FeedbackJob::compensate`] (none at a zero scale).
    /// Top-k never draws.
    pub fn draws_rounding_words(&self) -> bool {
        quantizer(self.kind).is_some()
    }

    /// Sweep 1: adds the carried model into the residual and, for a
    /// quantizer, derives the scale in the same pass ([`kernels::add_max`]).
    /// Top-k selects in the same pass too: the add is fused into the
    /// selection's one full-length sweep (the collect of its candidate run,
    /// see [`kernels::append_topk`]), so the wire form is written here and
    /// [`CompensatedJob::finish`] only folds the kept pairs back out.
    pub fn compensate(self) -> CompensatedJob {
        let FeedbackJob {
            client,
            kind,
            pool,
            residual,
            carried,
        } = self;
        // The sum lands in a buffer the job owns outright: an owned model
        // takes the stored residual in and becomes the residual, releasing
        // the older buffer rather than the freshly offered one (whose free
        // can hand the top of the heap back mid-round); a lent model is
        // added into the stored residual. Addition commutes: same bits.
        let (mut sum, addend) = match carried {
            Some(Cow::Owned(model)) => (model, Some(Cow::Owned(residual))),
            lent @ Some(Cow::Borrowed(_)) => (residual, lent),
            None => (residual, None),
        };
        let values = sum.as_mut_slice();
        let addend = addend.as_deref().map(DenseModel::as_slice);
        let (scale, selected) = match (quantizer(kind), kind) {
            (Some((levels, _)), _) => {
                let max_abs = match addend {
                    Some(addend) => kernels::add_max(values, addend),
                    None => kernels::max_abs_finite(values),
                };
                (scale_for(max_abs, levels), None)
            }
            (None, CodecKind::TopK { permille }) => {
                let dim = values.len() as u32;
                let kept = CodecKind::top_k_kept(u64::from(dim), permille) as u32;
                let mut encoded = checkout(kind, &pool, dim, 0.0, kept);
                let out = encoded.wire.as_mut_vec();
                match addend {
                    Some(addend) => kernels::add_append_topk(values, addend, kept as usize, out),
                    None => kernels::append_topk(values, kept as usize, out),
                }
                (0.0, Some(encoded))
            }
            (None, _) => {
                if let Some(addend) = addend {
                    kernels::axpy(values, addend, 1.0);
                }
                (0.0, None)
            }
        };
        CompensatedJob {
            client,
            kind,
            pool,
            residual: sum,
            scale,
            selected,
        }
    }
}

/// A [`FeedbackJob`] after its first sweep: the compensated residual and,
/// for a quantizer, the scale, which fixes how many rounding words the
/// second sweep draws, or for top-k the wire form already selected.
#[derive(Debug)]
pub struct CompensatedJob {
    client: ClientId,
    kind: CodecKind,
    pool: BufferPool,
    residual: DenseModel,
    scale: f32,
    selected: Option<EncodedUpdate>,
}

impl CompensatedJob {
    /// Claims this encode's share of the rounding stream in O(1): returns
    /// the generator position its words start at and moves `stream` past
    /// every one of them — `dim.div_ceil(2)` draws, none at a zero scale or
    /// for top-k. Jobs that claim in the order they were taken each start
    /// where a sequential encode would have, so [`CompensatedJob::finish`]
    /// from the claimed position writes the same bytes.
    pub fn claim(&self, stream: &mut StochasticRng) -> StochasticRng {
        let start = stream.clone();
        if quantizer(self.kind).is_some() {
            stream.skip(kernels::feedback_draws(self.residual.dim(), self.scale));
        }
        start
    }

    /// Sweep 2: writes the wire form behind the descriptor of a pooled
    /// buffer, drawing rounding words from `rng`, and leaves in the residual
    /// what the codec dropped — fused into the quantizer's pass
    /// ([`kernels::feedback_append_u8`] / `_u4`). Top-k selected in sweep 1,
    /// so all that is left is a fold-back over the kept pairs.
    pub fn finish(self, rng: &mut StochasticRng) -> (EncodedUpdate, Residual) {
        let CompensatedJob {
            client,
            kind,
            pool,
            mut residual,
            scale,
            selected,
        } = self;
        let values = residual.as_mut_slice();
        let encoded = match (selected, quantizer(kind)) {
            (None, Some((levels, feedback_append))) => {
                let dim = values.len() as u32;
                let mut encoded = checkout(kind, &pool, dim, scale, dim);
                feedback_append(values, scale, levels, rng, encoded.wire.as_mut_vec());
                encoded
            }
            (selected, _) => {
                let encoded = selected.unwrap_or_else(|| encode_params(kind, &pool, rng, values));
                encoded.view().fold_range_into(-1.0, 0, values);
                encoded
            }
        };
        let residual = Residual {
            client,
            model: residual,
        };
        (encoded, residual)
    }
}

/// What an error-feedback encode leaves for its client's next one: the
/// residual [`ErrorFeedback::restore`] puts back.
#[derive(Debug)]
pub struct Residual {
    client: ClientId,
    model: DenseModel,
}

/// Client-side error feedback: each client remembers the residual its codec
/// dropped last round and adds it back before encoding the next update, so the
/// *cumulative* FedAvg signal stays unbiased even under aggressive
/// compression.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    codec: UpdateCodec,
    residuals: BTreeMap<ClientId, DenseModel>,
}

impl ErrorFeedback {
    /// Creates an error-feedback encoder around `codec`.
    pub fn new(codec: UpdateCodec) -> Self {
        ErrorFeedback {
            codec,
            residuals: BTreeMap::new(),
        }
    }

    /// The codec kind in use.
    pub fn kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// Encodes `model` for `client`, compensating with the client's stored
    /// residual and retaining the new residual for the next round.
    ///
    /// The stored residual *is* the compensation buffer, and a quantized
    /// update costs two sweeps over it: [`kernels::add_max`] adds the model
    /// in and finds the magnitude the scale derives from, and one fused
    /// encoder ([`kernels::feedback_append_u8`] / `_u4`) writes the level
    /// bytes behind the descriptor of a pooled wire buffer while it replaces
    /// each element by what the quantizer dropped of it. Bytes and residual
    /// are bit for bit those of the three-pass formula — compensate, encode,
    /// `residual -= decode(encoded)` — which the tests keep as the oracle.
    /// Nothing model-sized is allocated, and a client's first model is copied
    /// once, to become its residual ([`ErrorFeedback::encode_update`] moves
    /// it instead — and moves every later model in too, the stored residual
    /// added into it and released).
    ///
    /// A `TopK` update costs one full sweep: the add is fused into the
    /// collect of the selection's candidate run ([`kernels::append_topk`]),
    /// which writes the pair of every sum at or above a sampled lower bound
    /// on the cut. The exact cut then runs over those ≈ 1.5 × `kept`
    /// candidates alone, and the fold-back touches only the kept pairs:
    /// 4 → 1 full-length sweeps against the separate add, two histograms
    /// and compaction it replaced, with the same bytes and residual bits.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if the client's model changes
    /// dimension between rounds; the stored residual is left as it was.
    pub fn encode(&mut self, client: ClientId, model: &DenseModel) -> Result<EncodedUpdate> {
        if let Some(stored) = self.residuals.get(&client) {
            if stored.dim() != model.dim() {
                return Err(LiflError::DimensionMismatch {
                    expected: stored.dim(),
                    actual: model.dim(),
                });
            }
        }
        Ok(self.compensate(client, Cow::Borrowed(model)))
    }

    /// The one encode path behind [`ErrorFeedback::encode`] (which lends the
    /// model) and [`ErrorFeedback::encode_update`] (which gives it away, so a
    /// first model *becomes* the residual): a job's three steps run in
    /// place, drawing straight from this feedback's own stream.
    fn compensate(&mut self, client: ClientId, model: Cow<'_, DenseModel>) -> EncodedUpdate {
        if self.kind().is_lossless() {
            // Nothing is dropped, so there is no residual to carry.
            return self.codec.encode(&model);
        }
        let job = self.take(client, model).compensate();
        let (encoded, residual) = job.finish(&mut self.codec.rng);
        self.restore(residual);
        encoded
    }

    /// Step 1 of an encode that runs somewhere else: takes `client`'s
    /// residual out of the map — [`ErrorFeedback::restore`] puts it back —
    /// and hands it, with `model`, to a job that owns everything the encode
    /// touches. A stored residual of another shape is dropped, as
    /// [`ErrorFeedback::encode_update`] drops it. `encode_update` is exactly
    /// this, [`FeedbackJob::compensate`], [`CompensatedJob::finish`] from
    /// this feedback's own stream, and `restore`; a job that runs elsewhere
    /// claims its stream position instead ([`CompensatedJob::claim`]).
    ///
    /// Under a lossless codec nothing is dropped, so nothing is taken: the
    /// job encodes `model` as it is and `restore` keeps nothing
    /// (`encode_update` sends such a model dense instead).
    pub fn take_job(&mut self, client: ClientId, model: DenseModel) -> FeedbackJob<'static> {
        self.take(client, Cow::Owned(model))
    }

    /// [`ErrorFeedback::take_job`] over a lent or owned model.
    fn take<'a>(&mut self, client: ClientId, model: Cow<'a, DenseModel>) -> FeedbackJob<'a> {
        let (residual, carried) = match self.residuals.remove(&client) {
            Some(stored) if stored.dim() == model.dim() => (stored, Some(model)),
            // A first model — or one of a new shape, whose stale residual
            // goes — is the residual already.
            _ => (model.into_owned(), None),
        };
        FeedbackJob {
            client,
            kind: self.kind(),
            pool: self.codec.pool.clone(),
            residual,
            carried,
        }
    }

    /// Step 3: puts a finished job's residual back as its client's (none
    /// under a lossless codec).
    pub fn restore(&mut self, residual: Residual) {
        if !self.kind().is_lossless() {
            self.residuals.insert(residual.client, residual.model);
        }
    }

    /// Checks a retired update's buffer into the shared scratch pool (see
    /// [`UpdateCodec::recycle`]).
    pub fn recycle(&self, encoded: EncodedUpdate) {
        self.codec.recycle(encoded);
    }

    /// Wraps `model` in the codec-transparent [`Update`] envelope the data
    /// plane carries: `Dense` under a lossless codec (bit-exact, no residual
    /// bookkeeping), `Encoded` otherwise, with this client's error-feedback
    /// compensation applied. The model is consumed: a client's first one is
    /// moved in as its residual, not copied. If the stored residual no longer
    /// matches the model's dimension, **that client's** residual is dropped
    /// and the update is encoded compensation-free, the model becoming the
    /// new residual; every other client's compensation is untouched (after a
    /// genuine change of model shape each residual is replaced this way at
    /// its own client's next encode).
    pub fn encode_update(&mut self, client: ClientId, model: DenseModel, samples: u64) -> Update {
        if self.kind().is_lossless() {
            return Update::dense(client, model, samples);
        }
        Update::encoded(client, self.compensate(client, Cow::Owned(model)), samples)
    }

    /// Returns a retired envelope's encode buffer to the shared scratch
    /// pool (a no-op for non-encoded variants).
    pub fn recycle_update(&self, update: Update) {
        if let Update::Encoded { update, .. } = update {
            self.recycle(update);
        }
    }

    /// The residual currently stored for `client`, if any.
    pub fn residual(&self, client: ClientId) -> Option<&DenseModel> {
        self.residuals.get(&client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f32]) -> DenseModel {
        DenseModel::from_vec(values.to_vec())
    }

    #[test]
    fn fold_range_beyond_dim_folds_nothing() {
        let m = model(&[1.0, 2.0, 3.0]);
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            let encoded = codec.encode(&m);
            let mut acc = [5.0f32; 4];
            // Entirely past the dimension: no-op, no panic.
            encoded.view().fold_range_into(2.0, 7, &mut acc);
            assert_eq!(acc, [5.0; 4], "{kind}");
            // Straddling the end folds only the in-range tail.
            encoded.view().fold_range_into(1.0, 2, &mut acc);
            let decoded = encoded.decode();
            assert!(
                (acc[0] - (5.0 + decoded.as_slice()[2])).abs() < 1e-6,
                "{kind}"
            );
            assert_eq!(&acc[1..], [5.0; 3], "{kind}");
        }
    }

    #[test]
    fn identity_roundtrip_is_bit_exact() {
        let m = model(&[1.0, -2.5, 3.75, f32::MIN_POSITIVE]);
        let mut codec = UpdateCodec::new(CodecKind::Identity);
        let encoded = codec.encode(&m);
        // The data plane accounts payload bytes only; the stored form adds
        // the 16-byte descriptor so from_bytes can re-parse it.
        assert_eq!(encoded.wire_bytes(), 16);
        assert_eq!(encoded.to_bytes().len(), 32);
        let parsed = EncodedUpdate::from_bytes(&encoded.to_bytes()).unwrap();
        assert_eq!(parsed, encoded);
        let decoded = encoded.decode();
        for (a, b) in m.as_slice().iter().zip(decoded.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_bytes_match_codec_kind_accounting() {
        let dims = [1usize, 2, 7, 64, 1001];
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            for dim in dims {
                let m = DenseModel::from_vec((0..dim).map(|i| i as f32 * 0.3 - 1.0).collect());
                let encoded = codec.encode(&m);
                assert_eq!(
                    encoded.wire_bytes(),
                    kind.encoded_bytes((dim * 4) as u64),
                    "codec {kind} dim {dim}"
                );
                assert_eq!(encoded.to_bytes().len() as u64, encoded.stored_bytes());
            }
        }
    }

    #[test]
    fn from_bytes_roundtrips_every_codec() {
        for kind in [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 300 },
        ] {
            let mut codec = UpdateCodec::new(kind);
            let m = DenseModel::from_vec((0..33).map(|i| (i as f32 - 16.0) * 0.21).collect());
            let encoded = codec.encode(&m);
            let parsed = EncodedUpdate::from_bytes(&encoded.to_bytes()).unwrap();
            assert_eq!(parsed, encoded);
            assert_eq!(parsed.decode(), encoded.decode());
            assert_eq!(descriptor_dim(encoded.wire()), parsed.dim());
        }
        assert_eq!(descriptor_dim(&[1, 2]), 0);
    }

    /// The wire string as the pre-contiguous layout serialized it: the
    /// descriptor pushed field by field, then a separately encoded body.
    fn parent_wire(kind: CodecKind, seed: u64, params: &[f32]) -> (Vec<u8>, Vec<u8>) {
        let mut rng = StochasticRng::from_seed(seed);
        let mut body = Vec::new();
        let (tag, permille, scale, kept) = match kind {
            CodecKind::Identity => {
                body.extend(params.iter().flat_map(|v| v.to_le_bytes()));
                (TAG_IDENTITY, 0u16, 0.0, params.len())
            }
            CodecKind::Uniform8 => {
                let scale = tensor_scale(params, U8_LEVELS);
                kernels::encode_u8(params, scale, U8_LEVELS, &mut rng, &mut body);
                (TAG_UNIFORM8, 0, scale, params.len())
            }
            CodecKind::Uniform4 => {
                let scale = tensor_scale(params, U4_LEVELS);
                kernels::append_u4(params, scale, U4_LEVELS, &mut rng, &mut body);
                (TAG_UNIFORM4, 0, scale, params.len())
            }
            CodecKind::TopK { permille } => {
                let kept = CodecKind::top_k_kept(params.len() as u64, permille) as usize;
                kernels::append_topk(params, kept, &mut body);
                (TAG_TOPK, permille, 0.0, kept)
            }
        };
        let mut wire = vec![tag, 0];
        wire.extend_from_slice(&permille.to_le_bytes());
        wire.extend_from_slice(&(params.len() as u32).to_le_bytes());
        wire.extend_from_slice(&scale.to_le_bytes());
        wire.extend_from_slice(&(kept as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        (wire, body)
    }

    #[test]
    fn one_buffer_layout_is_byte_identical_to_the_serialized_one() {
        let full: Vec<f32> = (0..257)
            .map(|i| ((i * 37) % 101) as f32 * 0.13 - 6.5)
            .collect();
        let kinds = [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 50 },
            CodecKind::TopK { permille: 1000 }, // kept == dim
        ];
        for kind in kinds {
            // Lengths cover the empty model (kept == 0), odd nibble tails
            // and a body longer than one RNG block would need padding for.
            for len in [0usize, 1, 2, 33, 257] {
                let params = &full[..len];
                let pool = BufferPool::new();
                let mut codec = UpdateCodec::with_seed(kind, 77).with_pool(pool.clone());
                let encoded = codec.encode_slice(params);
                let (wire, body) = parent_wire(kind, 77, params);
                assert_eq!(encoded.wire(), wire.as_slice(), "{kind} len {len}");
                assert_eq!(encoded.to_bytes(), wire, "{kind} len {len}");
                assert_eq!(encoded.stored_bytes(), wire.len() as u64);
                assert_eq!(encoded.wire_bytes(), body.len() as u64);
                let view = encoded.view();
                assert_eq!(view, EncodedView::parse(&wire).unwrap(), "{kind} len {len}");
                let parsed = EncodedUpdate::from_bytes(&wire).unwrap();
                assert_eq!(parsed, encoded, "{kind} len {len}");
                assert_eq!(parsed.decode(), encoded.decode(), "{kind} len {len}");
                assert_eq!(view.to_update().wire(), wire.as_slice());
                // The moved wire form is the same buffer at offset 0, and it
                // finds its way back to the codec's pool when dropped.
                let address = encoded.wire().as_ptr();
                let moved = encoded.clone();
                assert_eq!(moved.into_body(), body, "{kind} len {len}");
                let shared = encoded.into_wire();
                assert_eq!(shared.as_ptr(), address);
                assert_eq!(&*shared, wire.as_slice());
                assert_eq!(pool.stats().idle_buffers, 0);
                drop(shared);
                assert_eq!(pool.stats().idle_buffers, 1, "{kind} len {len}");
            }
        }
    }

    #[test]
    fn malformed_wire_buffers_are_rejected() {
        assert!(EncodedUpdate::from_bytes(&[1, 2, 3]).is_err());
        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let mut bytes = codec.encode(&model(&[1.0, 2.0])).to_bytes();
        bytes[0] = 99; // unknown tag
        assert!(EncodedUpdate::from_bytes(&bytes).is_err());
        bytes[0] = 1;
        bytes.pop(); // truncated payload
        assert!(EncodedUpdate::from_bytes(&bytes).is_err());
    }

    #[test]
    fn topk_header_keeping_more_than_dim_is_rejected() {
        let m = model(&[0.5, -2.0, 0.0, 1.5]);
        // kept == dim round-trips...
        let full = UpdateCodec::new(CodecKind::TopK { permille: 1000 }).encode(&m);
        assert_eq!(full.wire_bytes(), 4 * 8);
        let parsed = EncodedUpdate::from_bytes(&full.to_bytes()).unwrap();
        assert_eq!(parsed, full);
        assert_eq!(parsed.decode(), m);
        // ...and so does kept == 0 from the encoder (an empty model).
        let empty = UpdateCodec::new(CodecKind::TopK { permille: 50 }).encode(&model(&[]));
        assert_eq!(EncodedUpdate::from_bytes(&empty.to_bytes()).unwrap(), empty);
        // Keeping none of a non-empty model is not the encoder's rule.
        let mut none_kept = full.to_bytes();
        none_kept.truncate(WIRE_HEADER_BYTES as usize);
        none_kept[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            EncodedView::parse(&none_kept),
            Err(LiflError::Codec(_))
        ));
        // kept > dim is refused on the header alone, even when the payload
        // length agrees with it.
        let mut overfull = full.to_bytes();
        overfull[12..16].copy_from_slice(&5u32.to_le_bytes());
        overfull.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            EncodedView::parse(&overfull),
            Err(LiflError::Codec(_))
        ));
    }

    #[test]
    fn uniform_error_is_bounded_by_one_step() {
        let values: Vec<f32> = (0..257)
            .map(|i| ((i * 37) % 101) as f32 * 0.13 - 6.5)
            .collect();
        let m = DenseModel::from_vec(values);
        for (kind, levels) in [
            (CodecKind::Uniform8, U8_LEVELS),
            (CodecKind::Uniform4, U4_LEVELS),
        ] {
            let mut codec = UpdateCodec::new(kind);
            let encoded = codec.encode(&m);
            let scale = encoded.scale();
            assert!((scale - 6.5 / levels).abs() < 0.2, "scale {scale}");
            for (x, y) in m.as_slice().iter().zip(encoded.decode().as_slice()) {
                assert!(
                    (x - y).abs() <= scale + 1e-6,
                    "{kind}: |{x} - {y}| > step {scale}"
                );
            }
        }
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let m = model(&[0.1, -9.0, 0.2, 7.0, -0.3, 0.05, 4.0, 0.0, 0.0, 0.0]);
        let mut codec = UpdateCodec::new(CodecKind::TopK { permille: 300 });
        let decoded = codec.encode(&m).decode();
        let slice = decoded.as_slice();
        assert_eq!(slice[1], -9.0);
        assert_eq!(slice[3], 7.0);
        assert_eq!(slice[6], 4.0);
        assert_eq!(slice.iter().filter(|v| **v != 0.0).count(), 3);
    }

    #[test]
    fn zero_tensor_encodes_losslessly_everywhere() {
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            let decoded = codec.roundtrip(&DenseModel::zeros(9));
            assert_eq!(decoded.as_slice(), &[0.0f32; 9]);
        }
    }

    /// Decode is the fold into zeros, so a wire no encoder writes — negative
    /// levels at scale 0 — decodes them to `+0.0`, where `level * scale`
    /// is `-0.0`; a kept `-0.0` of a top-k or identity body stays `-0.0`.
    #[test]
    fn negative_levels_at_scale_zero_decode_to_positive_zero() {
        let cases = [
            (CodecKind::Uniform8, vec![0xFF, 0x81, 0x00]),
            (CodecKind::Uniform4, vec![0x9F, 0x08]),
        ];
        for (kind, body) in cases {
            let mut wire = descriptor(kind, 3, 0.0, 3).to_vec();
            wire.extend_from_slice(&body);
            let view = EncodedView::parse(&wire).unwrap();
            let mut out = [f32::NAN; 3];
            view.decode_into(&mut out).unwrap();
            for decoded in [view.decode().as_slice(), &out] {
                let bits: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, [0; 3], "{kind}");
            }
        }
        let kind = CodecKind::TopK { permille: 1000 };
        let mut wire = descriptor(kind, 1, 0.0, 1).to_vec();
        wire.extend_from_slice(&[0, 0, 0, 0]);
        wire.extend_from_slice(&(-0.0f32).to_le_bytes());
        let signed = [-0.0f32];
        for view in [
            EncodedView::parse(&wire).unwrap(),
            EncodedView::identity_over(kernels::le_bytes(&signed)),
        ] {
            let mut out = [f32::NAN];
            view.decode_into(&mut out).unwrap();
            assert_eq!(out[0].to_bits(), (-0.0f32).to_bits(), "{}", view.codec());
            assert_eq!(view.decode().as_slice()[0].to_bits(), (-0.0f32).to_bits());
        }
    }

    /// Maxima on both sides of the boundary below which `1 / scale`
    /// overflows (≈ 3.7e-37 for `Uniform8`, ≈ 2.1e-38 for `Uniform4`), plain
    /// and with error feedback: zeros decode to 0, no sign flips, and the
    /// residual holds exactly what was not sent — below both boundaries, the
    /// whole update.
    #[test]
    fn tiny_maxima_encode_zeros_as_zero() {
        let maxima = [
            1e-36f32, 5e-37, 3e-37, 1e-37, 3e-38, 1e-38, 1e-39, 1e-40, 1e-42, 1e-44,
        ];
        for kind in [CodecKind::Uniform8, CodecKind::Uniform4] {
            for max in maxima {
                let values: Vec<f32> = (0..37)
                    .map(|i| [0.0, max, -max, 0.0, 0.5 * max][i % 5])
                    .collect();
                let m = model(&values);
                let plain = UpdateCodec::new(kind).encode(&m).decode();
                let client = ClientId::new(1);
                let mut feedback = ErrorFeedback::new(UpdateCodec::new(kind));
                let sent = feedback.encode(client, &m).unwrap().decode();
                let residual = feedback.residual(client).unwrap().as_slice();
                let case = format!("{kind:?} max {max:e}");
                for decoded in [plain.as_slice(), sent.as_slice()] {
                    for (v, d) in values.iter().zip(decoded) {
                        if *v == 0.0 {
                            assert_eq!(d.to_bits(), 0.0f32.to_bits(), "{case}");
                        }
                        let flipped = *d != 0.0 && d.is_sign_negative() != v.is_sign_negative();
                        assert!(!flipped, "{case}: {v:e} decoded as {d:e}");
                    }
                }
                for ((v, d), r) in values.iter().zip(sent.as_slice()).zip(residual) {
                    assert_eq!(r.to_bits(), (v - d).to_bits(), "{case}");
                }
                if max <= 1e-39 {
                    assert!(sent.as_slice().iter().all(|d| *d == 0.0), "{case}");
                }
            }
        }
    }

    #[test]
    fn error_feedback_residual_tracks_dropped_mass() {
        let client = ClientId::new(7);
        let m = model(&[1.0, -0.4, 0.03, 0.8]);
        let mut feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Uniform4));
        let encoded = feedback.encode(client, &m).unwrap();
        let residual = feedback.residual(client).unwrap().clone();
        // residual = compensated - decoded, so decoded + residual == input.
        let mut reconstructed = encoded.decode();
        reconstructed.axpy(1.0, &residual).unwrap();
        for (a, b) in m.as_slice().iter().zip(reconstructed.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Identity stores no residual.
        let mut lossless = ErrorFeedback::new(UpdateCodec::new(CodecKind::Identity));
        lossless.encode(client, &m).unwrap();
        assert!(lossless.residual(client).is_none());
    }

    #[test]
    fn in_place_feedback_equals_the_copy_based_formula() {
        // The formula the in-place encoder replaced: compensate a copy of
        // the model, encode the copy, store copy - decode(encoded). A
        // quantizer's bytes come from its own plain encode; top-k's from
        // the sort-based reference selection, folded back by hand.
        fn copy_based(
            codec: &mut UpdateCodec,
            residual: &mut Option<Vec<f32>>,
            model: &DenseModel,
        ) -> Vec<u8> {
            let mut compensated = model.as_slice().to_vec();
            if let Some(residual) = residual {
                for (c, r) in compensated.iter_mut().zip(residual.iter()) {
                    *c += r;
                }
            }
            let wire = match codec.kind() {
                CodecKind::TopK { permille } => {
                    let dim = compensated.len();
                    let kept = CodecKind::top_k_kept(dim as u64, permille) as usize;
                    let body = kernels::proptests::reference_topk(&compensated, kept);
                    for pair in body.chunks_exact(8) {
                        let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
                        let value = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
                        compensated[index as usize] -= value;
                    }
                    let mut wire = descriptor(codec.kind(), dim as u32, 0.0, kept as u32).to_vec();
                    wire.extend_from_slice(&body);
                    wire
                }
                _ => {
                    let encoded = codec.encode_slice(&compensated);
                    encoded.view().fold_into(-1.0, &mut compensated).unwrap();
                    encoded.to_bytes()
                }
            };
            *residual = Some(compensated);
            wire
        }
        let client = ClientId::new(3);
        // 1001 elements, and 1 << 14, enough for top-k's candidate run.
        for dim in [1001, 1 << 14] {
            let rounds: Vec<DenseModel> = (0..3)
                .map(|r| {
                    let values = (0..dim).map(|d| ((d * 37 + r * 11) % 101) as f32 * 0.013 - 0.65);
                    DenseModel::from_vec(values.collect())
                })
                .collect();
            for kind in [
                CodecKind::Uniform8,
                CodecKind::Uniform4,
                CodecKind::TopK { permille: 50 },
            ] {
                let mut feedback = ErrorFeedback::new(UpdateCodec::with_seed(kind, 99));
                let mut reference_codec = UpdateCodec::with_seed(kind, 99);
                let mut reference_residual = None;
                for m in &rounds {
                    let encoded = feedback.encode(client, m).unwrap();
                    let expected = copy_based(&mut reference_codec, &mut reference_residual, m);
                    assert_eq!(encoded.to_bytes(), expected, "{kind} dim {dim}");
                    let carried = feedback.residual(client).unwrap().as_slice();
                    let carried: Vec<u32> = carried.iter().map(|v| v.to_bits()).collect();
                    let expected: Vec<u32> = reference_residual
                        .iter()
                        .flatten()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(carried, expected, "{kind} dim {dim}");
                }
            }
        }
    }

    #[test]
    fn jobs_run_out_of_order_but_claimed_in_order_match_the_sequential_encode() {
        // Client 2 sends an all-zero model on its first round: a zero scale,
        // so its encode draws nothing and the stream must not move for it.
        let rounds: Vec<Vec<DenseModel>> = (0..3)
            .map(|r| {
                (0..5)
                    .map(|c| {
                        let values = (0..257).map(|d| {
                            if c == 2 && r == 0 {
                                0.0
                            } else {
                                ((d * 31 + c * 17 + r * 7) % 97) as f32 * 0.02 - 0.9
                            }
                        });
                        DenseModel::from_vec(values.collect())
                    })
                    .collect()
            })
            .collect();
        for kind in [
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 50 },
        ] {
            let mut sequential = ErrorFeedback::new(UpdateCodec::with_seed(kind, 21));
            let mut deferred = ErrorFeedback::new(UpdateCodec::with_seed(kind, 21));
            let mut stream = StochasticRng::from_seed(21);
            for round in &rounds {
                let clients = (0..round.len() as u64).map(ClientId::new);
                let expected: Vec<Vec<u8>> = clients
                    .clone()
                    .zip(round)
                    .map(|(c, m)| sequential.encode(c, m).unwrap().to_bytes())
                    .collect();
                // Take in offer order; run the first sweeps last-first; claim
                // in offer order; finish last-first again.
                let jobs: Vec<FeedbackJob> = clients
                    .clone()
                    .zip(round)
                    .map(|(c, m)| deferred.take_job(c, m.clone()))
                    .collect();
                assert!(jobs.iter().all(
                    |j| j.draws_rounding_words() == (kind != CodecKind::TopK { permille: 50 })
                ));
                let mut compensated: Vec<CompensatedJob> = jobs
                    .into_iter()
                    .rev()
                    .map(FeedbackJob::compensate)
                    .collect();
                compensated.reverse();
                let starts: Vec<StochasticRng> =
                    compensated.iter().map(|j| j.claim(&mut stream)).collect();
                let mut got: Vec<Vec<u8>> = compensated
                    .into_iter()
                    .zip(starts)
                    .rev()
                    .map(|(job, mut start)| {
                        let (encoded, residual) = job.finish(&mut start);
                        deferred.restore(residual);
                        encoded.to_bytes()
                    })
                    .collect();
                got.reverse();
                assert_eq!(got, expected, "{kind}");
                for c in clients {
                    let bits = |f: &ErrorFeedback| -> Vec<u32> {
                        f.residual(c)
                            .unwrap()
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    };
                    assert_eq!(bits(&deferred), bits(&sequential), "{kind} {c:?}");
                }
            }
        }
    }

    #[test]
    fn feedback_resets_when_the_model_changes_dimension() {
        let client = ClientId::new(1);
        let mut feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Uniform4));
        feedback
            .encode(client, &model(&[1.0, -0.4, 0.03, 0.8]))
            .unwrap();
        let bystander = ClientId::new(2);
        feedback.encode(bystander, &model(&[0.5; 4])).unwrap();
        let before = feedback.residual(client).unwrap().clone();
        let bits_of = |feedback: &ErrorFeedback, client| -> Vec<u32> {
            let residual = feedback.residual(client).unwrap().as_slice();
            residual.iter().map(|v| v.to_bits()).collect()
        };
        let bystander_before = bits_of(&feedback, bystander);
        // A direct encode refuses the new shape and leaves the residual be.
        let wider = model(&[0.3, 0.2, -0.1, 0.9, 0.7]);
        assert!(matches!(
            feedback.encode(client, &wider),
            Err(LiflError::DimensionMismatch { .. })
        ));
        assert_eq!(feedback.residual(client), Some(&before));
        // The envelope path drops this client's residual — nobody else's —
        // and encodes afresh.
        let update = feedback.encode_update(client, wider.clone(), 1);
        let Update::Encoded { update, .. } = update else {
            panic!("lossy codecs travel encoded");
        };
        assert_eq!(update.dim(), 5);
        assert_eq!(feedback.residual(client).unwrap().dim(), 5);
        assert_eq!(bits_of(&feedback, bystander), bystander_before, "kept");
        let fresh = UpdateCodec::new(CodecKind::Uniform4).encode(&wider);
        assert_eq!(update.scale(), fresh.scale());
    }

    #[test]
    fn error_feedback_time_average_converges_to_input() {
        // A client repeatedly sends the same update through an aggressive
        // codec; with error feedback the *average* decoded signal converges to
        // the true update even though each round is coarsely quantized.
        let client = ClientId::new(1);
        let m = model(&[0.31, -0.27, 0.011, 0.44, -0.09]);
        let mut feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Uniform4));
        let rounds = 400;
        let mut sum = DenseModel::zeros(m.dim());
        for _ in 0..rounds {
            let decoded = feedback.encode(client, &m).unwrap().decode();
            sum.axpy(1.0, &decoded).unwrap();
        }
        sum.scale(1.0 / rounds as f32);
        for (a, b) in m.as_slice().iter().zip(sum.as_slice()) {
            assert!((a - b).abs() < 0.02, "time-average {b} far from {a}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::aggregate::{fedavg, ModelUpdate};
    use proptest::prelude::*;

    fn arbitrary_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-8.0f32..8.0, 1..48)
    }

    proptest! {
        /// `decode_into` (and the zero-copy view parse) reproduce `decode`
        /// bit-exactly for every codec, and the wire roundtrip preserves it.
        #[test]
        fn decode_into_is_bit_exact_with_decode(params in arbitrary_params(), seed in 0u64..500) {
            for kind in [
                CodecKind::Identity,
                CodecKind::Uniform8,
                CodecKind::Uniform4,
                CodecKind::TopK { permille: 400 },
            ] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let encoded = codec.encode(&DenseModel::from_vec(params.clone()));
                let wire = encoded.to_bytes();
                let view = EncodedView::parse(&wire).unwrap();
                prop_assert_eq!(view.to_update(), encoded.clone());
                let mut out = vec![7.7f32; params.len()];
                encoded.decode_into(&mut out).unwrap();
                for (a, b) in out.iter().zip(encoded.decode().as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", kind, a, b);
                }
                let mut short = vec![0.0f32; params.len() + 1];
                prop_assert!(encoded.decode_into(&mut short).is_err());
            }
        }

        /// The fused `fold_encoded` equals decode-then-fold bit-exactly for
        /// `Identity` and within one quantization step for `Uniform8/4`
        /// (`TopK` stores raw values, so it is bit-exact too).
        #[test]
        fn fused_fold_matches_decode_then_fold(
            params in arbitrary_params(),
            samples in 1u64..40,
            seed in 0u64..500,
        ) {
            use crate::aggregate::CumulativeFedAvg;
            for kind in [
                CodecKind::Identity,
                CodecKind::Uniform8,
                CodecKind::Uniform4,
                CodecKind::TopK { permille: 400 },
            ] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let encoded = codec.encode(&DenseModel::from_vec(params.clone()));
                let mut two_step = CumulativeFedAvg::new(params.len());
                two_step
                    .fold(&ModelUpdate::intermediate(encoded.decode(), samples))
                    .unwrap();
                let mut fused = CumulativeFedAvg::new(params.len());
                fused.fold_encoded(&encoded, samples).unwrap();
                let expected = two_step.finalize().unwrap();
                let got = fused.finalize().unwrap();
                prop_assert_eq!(got.samples, expected.samples);
                let step = encoded.scale();
                for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
                    match kind {
                        CodecKind::Identity | CodecKind::TopK { .. } => {
                            prop_assert_eq!(a.to_bits(), b.to_bits(),
                                "{}: fused {} vs two-step {}", kind, a, b);
                        }
                        _ => prop_assert!((a - b).abs() <= step.max(1e-6),
                            "{}: fused {} vs two-step {} beyond one step {}", kind, a, b, step),
                    }
                }
            }
        }

        /// Stochastic uniform quantization never errs by more than one step
        /// per element (and half a step in expectation; the hard bound is what
        /// holds sample-wise).
        #[test]
        fn quantize_dequantize_error_bounded_by_step(params in arbitrary_params(), seed in 0u64..1000) {
            for (kind, levels) in [(CodecKind::Uniform8, 127.0f32), (CodecKind::Uniform4, 7.0f32)] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let m = DenseModel::from_vec(params.clone());
                let encoded = codec.encode(&m);
                let step = encoded.scale();
                let max_abs = params.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                prop_assert!((step - max_abs / levels).abs() <= max_abs * 1e-5 + 1e-12);
                for (x, y) in m.as_slice().iter().zip(encoded.decode().as_slice()) {
                    prop_assert!((x - y).abs() <= step * 1.0001 + 1e-6,
                        "{}: |{} - {}| exceeds step {}", kind, x, y, step);
                }
            }
        }

        /// Error-feedback FedAvg over many rounds converges to the
        /// unquantized mean: the running average of the decoded aggregate
        /// approaches the true FedAvg of the client updates.
        #[test]
        fn error_feedback_fedavg_converges_to_unquantized_mean(
            updates in proptest::collection::vec((arbitrary_params(), 1u64..20), 2..5),
            seed in 0u64..200,
        ) {
            let dim = updates[0].0.len();
            let clients: Vec<ModelUpdate> = updates
                .iter()
                .enumerate()
                .map(|(i, (params, samples))| {
                    let mut p = params.clone();
                    p.resize(dim, 0.0);
                    ModelUpdate::from_client(ClientId::new(i as u64), DenseModel::from_vec(p), *samples)
                })
                .collect();
            let exact = fedavg(&clients).unwrap();
            let mut feedback = ErrorFeedback::new(UpdateCodec::with_seed(CodecKind::Uniform4, seed));
            let rounds = 150usize;
            let mut mean = DenseModel::zeros(dim);
            for _ in 0..rounds {
                let round: Vec<ModelUpdate> = clients
                    .iter()
                    .map(|u| {
                        let decoded = feedback
                            .encode(u.client.unwrap(), &u.model)
                            .unwrap()
                            .decode();
                        ModelUpdate::from_client(u.client.unwrap(), decoded, u.samples)
                    })
                    .collect();
                mean.axpy(1.0 / rounds as f32, &fedavg(&round).unwrap().model).unwrap();
            }
            let max_abs = exact.model.as_slice().iter().fold(1.0f32, |a, v| a.max(v.abs()));
            for (a, b) in exact.model.as_slice().iter().zip(mean.as_slice()) {
                prop_assert!((a - b).abs() <= 0.08 * max_abs + 0.05,
                    "round-averaged {} drifted from exact {}", b, a);
            }
        }

        /// Hierarchical aggregation over Identity-encoded updates is bit-exact
        /// with the same hierarchy over the raw updates, and both match flat
        /// aggregation within float tolerance.
        #[test]
        fn identity_hierarchy_is_bit_exact(
            updates in proptest::collection::vec((proptest::collection::vec(-10.0f32..10.0, 4..=4), 1u64..30), 4..10),
            split in 1usize..9,
        ) {
            let raw: Vec<ModelUpdate> = updates
                .iter()
                .enumerate()
                .map(|(i, (p, s))| ModelUpdate::from_client(ClientId::new(i as u64), DenseModel::from_vec(p.clone()), *s))
                .collect();
            let mut codec = UpdateCodec::new(CodecKind::Identity);
            let encoded: Vec<ModelUpdate> = raw
                .iter()
                .map(|u| ModelUpdate {
                    client: u.client,
                    model: codec.encode(&u.model).decode(),
                    samples: u.samples,
                })
                .collect();
            let split = split.min(raw.len() - 1).max(1);
            let top_raw = fedavg(&[
                fedavg(&raw[..split]).unwrap(),
                fedavg(&raw[split..]).unwrap(),
            ]).unwrap();
            let top_encoded = fedavg(&[
                fedavg(&encoded[..split]).unwrap(),
                fedavg(&encoded[split..]).unwrap(),
            ]).unwrap();
            prop_assert_eq!(top_raw.samples, top_encoded.samples);
            for (a, b) in top_raw.model.as_slice().iter().zip(top_encoded.model.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "identity hierarchy not bit-exact");
            }
            let flat = fedavg(&raw).unwrap();
            for (a, b) in flat.model.as_slice().iter().zip(top_encoded.model.as_slice()) {
                prop_assert!((a - b).abs() < 1e-2);
            }
        }
    }
}
