//! The codec-transparent model-update envelope.
//!
//! PRs 2–3 grew parallel entry points for every representation a model update
//! can arrive in: dense full-precision parameters, a codec-encoded
//! [`EncodedUpdate`], or raw wire bytes forwarded from a remote node.
//! [`Update`] folds those into one enum so every consumer — the synchronous
//! and asynchronous FL drivers in this crate, and the `Session` ingress in
//! `lifl-core` — can take *any* representation through a single polymorphic
//! path ([`crate::aggregate::CumulativeFedAvg::fold_update`]).

use crate::aggregate::ModelUpdate;
use crate::codec::EncodedUpdate;
use crate::model::DenseModel;
use lifl_types::{ClientId, WIRE_HEADER_BYTES};

/// A model update in whichever representation it arrived.
///
/// ```
/// use lifl_fl::codec::UpdateCodec;
/// use lifl_fl::update::Update;
/// use lifl_fl::DenseModel;
/// use lifl_types::{ClientId, CodecKind};
///
/// let model = DenseModel::from_vec(vec![0.5; 64]);
///
/// // A client's dense update, a pre-quantized update, and the same wire
/// // bytes as a remote gateway would forward them: one envelope for all
/// // three, so every consumer folds through a single polymorphic path.
/// let dense = Update::dense(ClientId::new(1), model.clone(), 10);
/// let mut codec = UpdateCodec::new(CodecKind::Uniform8);
/// let encoded = codec.encode(&model);
/// let wire = encoded.to_bytes();
/// let compressed = Update::encoded(ClientId::new(2), encoded, 10);
/// let forwarded = Update::remote_bytes(wire, 20, true);
///
/// assert_eq!(dense.wire_bytes(), 64 * 4);
/// assert_eq!(compressed.wire_bytes(), 64); // one byte per parameter
/// assert_eq!(forwarded.wire_bytes(), 64); // descriptor rides the control channel
/// assert_eq!(forwarded.weight(), 20);
/// assert_eq!(forwarded.client(), None); // intermediates have no single producer
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// A dense full-precision update (a client's parameters or an
    /// intermediate aggregate).
    Dense(ModelUpdate),
    /// A codec-encoded update in its self-describing wire form.
    Encoded {
        /// The producing client, if this is a leaf-level update.
        client: Option<ClientId>,
        /// The encoded payload.
        update: EncodedUpdate,
        /// Samples (or accumulated weight) this update represents.
        samples: u64,
    },
    /// Raw wire bytes forwarded from a remote node's gateway, exactly as
    /// `Session::drive_to_wire` exported them from the node's store: the
    /// self-describing encoded form when `encoded`, headerless little-endian
    /// `f32` parameters otherwise.
    RemoteBytes {
        /// The forwarded payload.
        wire: bytes::Bytes,
        /// Accumulated sample weight of the intermediate.
        weight: u64,
        /// Whether `wire` is the self-describing encoded form.
        encoded: bool,
    },
}

impl Update {
    /// A dense client update.
    pub fn dense(client: ClientId, model: DenseModel, samples: u64) -> Self {
        Update::Dense(ModelUpdate::from_client(client, model, samples))
    }

    /// A codec-encoded client update.
    pub fn encoded(client: ClientId, update: EncodedUpdate, samples: u64) -> Self {
        Update::Encoded {
            client: Some(client),
            update,
            samples,
        }
    }

    /// An intermediate forwarded from a remote node in wire form.
    pub fn remote_bytes(wire: impl Into<bytes::Bytes>, weight: u64, encoded: bool) -> Self {
        Update::RemoteBytes {
            wire: wire.into(),
            weight,
            encoded,
        }
    }

    /// The sample weight this update carries into FedAvg.
    pub fn weight(&self) -> u64 {
        match self {
            Update::Dense(dense) => dense.samples,
            Update::Encoded { samples, .. } => *samples,
            Update::RemoteBytes { weight, .. } => *weight,
        }
    }

    /// The producing client, when this is a leaf-level update.
    pub fn client(&self) -> Option<ClientId> {
        match self {
            Update::Dense(dense) => dense.client,
            Update::Encoded { client, .. } => *client,
            Update::RemoteBytes { .. } => None,
        }
    }

    /// Payload bytes this update occupies on the data plane (the encoded
    /// body for compressed forms; the 16-byte descriptor of a remote encoded
    /// payload rides the control channel and is excluded, consistent with
    /// [`EncodedUpdate::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Update::Dense(dense) => dense.byte_size(),
            Update::Encoded { update, .. } => update.wire_bytes(),
            Update::RemoteBytes { wire, encoded, .. } => {
                let len = wire.len() as u64;
                if *encoded {
                    len.saturating_sub(WIRE_HEADER_BYTES)
                } else {
                    len
                }
            }
        }
    }
}

impl From<ModelUpdate> for Update {
    fn from(update: ModelUpdate) -> Self {
        Update::Dense(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::UpdateCodec;
    use lifl_types::CodecKind;

    #[test]
    fn envelope_reports_weight_client_and_wire_bytes() {
        let model = DenseModel::from_vec(vec![1.0; 32]);
        let dense = Update::dense(ClientId::new(3), model.clone(), 7);
        assert_eq!(dense.weight(), 7);
        assert_eq!(dense.client(), Some(ClientId::new(3)));
        assert_eq!(dense.wire_bytes(), 128);

        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let encoded = codec.encode(&model);
        let wire = encoded.to_bytes();
        let env = Update::encoded(ClientId::new(4), encoded, 5);
        assert_eq!(env.weight(), 5);
        assert_eq!(env.wire_bytes(), 32);

        let remote = Update::remote_bytes(wire, 9, true);
        assert_eq!(remote.weight(), 9);
        assert_eq!(remote.client(), None);
        // Header excluded, like EncodedUpdate::wire_bytes.
        assert_eq!(remote.wire_bytes(), 32);

        let dense_remote = Update::remote_bytes(vec![0u8; 128], 2, false);
        assert_eq!(dense_remote.wire_bytes(), 128);

        let from: Update = ModelUpdate::intermediate(model, 11).into();
        assert_eq!(from.weight(), 11);
        assert_eq!(from.client(), None);
    }
}
