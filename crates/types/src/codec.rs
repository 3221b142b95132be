//! Model-update codec configuration.
//!
//! Every `ModelUpdate` in the seed travelled the data plane as full-precision
//! parameters, so payload bytes — not hand-off mechanics — dominated the
//! simulated transport costs at scale. [`CodecKind`] names the lossy (and one
//! lossless) representations the platform can put on the wire instead; the
//! actual encoder/decoder lives in `lifl-fl::codec`, while this enum is the
//! *configuration* vocabulary shared by the cost models (`lifl-dataplane`),
//! the platform (`lifl-core`) and the experiment sweeps.
//!
//! The byte-size math here is the single source of truth for how many bytes a
//! codec puts on the wire for a given dense payload, so the simulator and the
//! real in-process runtime account identically.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes of the self-describing `EncodedUpdate` storage header: a 1-byte
/// codec tag, 3 reserved bytes, a `u32` element count, an `f32` per-tensor
/// scale and a `u32` kept-element count (used by `TopK`).
///
/// The header travels the *control* path — exactly like the 16-byte object
/// keys and sample weights the SKMSG queue already moves out of band — so it
/// is part of what sits in shared memory but **not** of the data-plane byte
/// accounting ([`CodecKind::encoded_bytes`] counts payload only).
pub const WIRE_HEADER_BYTES: u64 = 16;

/// How a model update is represented on the wire and in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CodecKind {
    /// Full-precision little-endian `f32` parameters (bit-exact, the seed
    /// behaviour).
    #[default]
    Identity,
    /// Stochastic uniform quantization to signed 8-bit levels with one `f32`
    /// scale per tensor (~4x smaller than `Identity`).
    Uniform8,
    /// Stochastic uniform quantization to signed 4-bit levels, two values per
    /// byte (~8x smaller than `Identity`).
    Uniform4,
    /// Magnitude top-k sparsification: only the `permille`/1000 largest-magnitude
    /// coordinates travel, as `(u32 index, f32 value)` pairs.
    TopK {
        /// Kept coordinates per thousand (1..=1000).
        permille: u16,
    },
}

impl CodecKind {
    /// A short stable label for tables and Gantt rows.
    pub fn label(self) -> String {
        match self {
            CodecKind::Identity => "identity".to_string(),
            CodecKind::Uniform8 => "uniform8".to_string(),
            CodecKind::Uniform4 => "uniform4".to_string(),
            CodecKind::TopK { permille } => format!("topk{permille}"),
        }
    }

    /// The codecs swept by the `fig_codec` ablation, in decreasing wire size.
    pub fn ablation_set() -> [CodecKind; 4] {
        [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 50 },
        ]
    }

    /// Number of `f32` parameters a dense payload of `dense_bytes` holds.
    fn params(dense_bytes: u64) -> u64 {
        dense_bytes / 4
    }

    /// Payload bytes this codec puts on the data plane for a dense `f32`
    /// payload of `dense_bytes` (the `Identity` representation). The 16-byte
    /// descriptor header rides the SKMSG control channel with the object key
    /// and weight, so it does not appear here; with `Identity` the accounting
    /// is bit-identical to the seed.
    pub fn encoded_bytes(self, dense_bytes: u64) -> u64 {
        let params = Self::params(dense_bytes);
        match self {
            CodecKind::Identity => dense_bytes,
            CodecKind::Uniform8 => params,
            CodecKind::Uniform4 => params.div_ceil(2),
            CodecKind::TopK { permille } => 8 * Self::top_k_kept(params, permille),
        }
    }

    /// How many coordinates `TopK { permille }` keeps out of `params`.
    pub fn top_k_kept(params: u64, permille: u16) -> u64 {
        if params == 0 {
            return 0;
        }
        (params * u64::from(permille.clamp(1, 1000)) / 1000).max(1)
    }

    /// Whether encode→decode reproduces the input exactly.
    pub fn is_lossless(self) -> bool {
        matches!(self, CodecKind::Identity)
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_free_of_overhead() {
        assert_eq!(CodecKind::Identity.encoded_bytes(1024), 1024);
        assert!(CodecKind::Identity.is_lossless());
        assert_eq!(CodecKind::Identity.encoded_bytes(1 << 20), 1 << 20);
    }

    #[test]
    fn uniform8_is_at_least_4x_smaller_at_scale() {
        let dense = 44 * 1024 * 1024;
        let ratio = dense as f64 / CodecKind::Uniform8.encoded_bytes(dense) as f64;
        assert!(ratio >= 4.0, "uniform8 ratio {ratio}");
        let ratio4 = dense as f64 / CodecKind::Uniform4.encoded_bytes(dense) as f64;
        assert!(ratio4 >= 8.0, "uniform4 ratio {ratio4}");
        assert!(ratio4 > ratio);
    }

    #[test]
    fn sizes_shrink_monotonically_across_ablation_set() {
        let dense = 232 * 1024 * 1024;
        let sizes: Vec<u64> = CodecKind::ablation_set()
            .iter()
            .map(|c| c.encoded_bytes(dense))
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] > pair[1], "{sizes:?} not strictly decreasing");
        }
    }

    #[test]
    fn top_k_keeps_at_least_one_coordinate() {
        assert_eq!(CodecKind::top_k_kept(10, 1), 1);
        assert_eq!(CodecKind::top_k_kept(1000, 250), 250);
        assert_eq!(CodecKind::top_k_kept(0, 500), 0);
        // permille is clamped into 1..=1000.
        assert_eq!(CodecKind::top_k_kept(1000, 0), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CodecKind::Uniform8.to_string(), "uniform8");
        assert_eq!(CodecKind::TopK { permille: 50 }.to_string(), "topk50");
    }

    #[test]
    fn serde_roundtrip() {
        for codec in CodecKind::ablation_set() {
            let json = serde_json::to_string(&codec).unwrap();
            let back: CodecKind = serde_json::from_str(&json).unwrap();
            assert_eq!(codec, back);
        }
    }
}
