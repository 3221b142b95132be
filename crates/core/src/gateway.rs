//! The per-node gateway (§4.2, Appendix C): the only stateful data-plane
//! component in LIFL. It ingests model updates from remote clients or peer
//! gateways, performs the one-time payload processing, writes the payload into
//! the local shared-memory store and enqueues the object key to the consuming
//! aggregator's in-place queue. It has one door ([`Gateway::ingest`]) over
//! one store-and-deliver primitive; the transmit half of a hop reads the
//! store directly (`Session::drive_to_wire`).
//!
//! The payload is written once, by whoever produced it, and **moved** into
//! the store: a dense model's `Vec<f32>` becomes the stored object
//! (`DenseModel::into_wire`), an encoded update's one wire buffer does
//! (`EncodedUpdate::into_wire`), arriving `Bytes` stay the handle they are.
//! Nothing model-sized is copied here.

use lifl_fl::codec::EncodedView;
use lifl_fl::update::Update;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{InPlaceQueue, ObjectStore};
use lifl_types::{AggregatorId, ClientId, LiflError, NodeId, Result};
use std::collections::BTreeMap;

/// Validates remote bytes in place (no body copy) and returns the bytes
/// their dense `f32` form occupies: an encoded wire string must pass
/// [`EncodedView::parse`], headerless dense bytes must be a non-empty run of
/// whole little-endian `f32`s. The one check every offered remote payload
/// passes, whether it is about to be stored or parked.
///
/// # Errors
/// Returns [`LiflError::Codec`] on a malformed payload.
pub(crate) fn remote_dense_bytes(wire: &[u8], encoded: bool) -> Result<u64> {
    if encoded {
        return Ok(EncodedView::parse(wire)?.dim() as u64 * 4);
    }
    if wire.is_empty() || !wire.len().is_multiple_of(4) {
        return Err(LiflError::Codec(format!(
            "dense payload of {} bytes is not a non-empty run of f32s",
            wire.len()
        )));
    }
    Ok(wire.len() as u64)
}

/// The per-node gateway.
#[derive(Debug)]
pub struct Gateway {
    store: ObjectStore,
    inboxes: BTreeMap<AggregatorId, InPlaceQueue>,
    /// Updates delivered so far: the arrival index an anonymous update is
    /// attributed to.
    arrivals: u64,
    ingested_bytes: u64,
}

impl Gateway {
    /// Creates a gateway over the node's shared-memory store. The gateway
    /// does not read `_node`; the whole-round benchmark's engine adapter
    /// passes it, so the argument stays.
    pub fn new(_node: NodeId, store: ObjectStore) -> Self {
        Gateway {
            store,
            inboxes: BTreeMap::new(),
            arrivals: 0,
            ingested_bytes: 0,
        }
    }

    /// Registers (or returns) the in-place queue feeding `aggregator`.
    pub fn register_aggregator(&mut self, aggregator: AggregatorId) -> InPlaceQueue {
        self.inboxes.entry(aggregator).or_default().clone()
    }

    /// The gateway's one door: accepts a model update in whatever
    /// representation it arrived ([`Update`]) and performs the matching
    /// one-time payload processing — dense parameters and encoded payloads
    /// are written to shared memory as-is, remote wire bytes are validated
    /// in place ([`EncodedView::parse`] for an encoded payload, whole `f32`s
    /// for a dense one; a dimension mismatch surfaces at fold time) — before
    /// the object key is queued for `target` (in-place message queuing,
    /// §4.2).
    ///
    /// This borrowing door leaves the caller's update intact: it clones the
    /// update once (a handle bump for remote `Bytes`, one payload copy for
    /// dense and encoded updates) and moves the clone into the store exactly
    /// as a session moves the original.
    ///
    /// A dense or encoded update with no client id is attributed to its
    /// arrival index; remote bytes are an intermediate and carry no
    /// producer.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload or a remote
    /// payload is malformed.
    pub fn ingest(&mut self, target: AggregatorId, update: &Update) -> Result<QueuedUpdate> {
        let producer = match update {
            Update::RemoteBytes { .. } => None,
            _ => Some(update.client().unwrap_or(ClientId::new(self.arrivals))),
        };
        // lifl-lint: allow(no-legacy-runtime) — the public door only holds a
        // borrow; this is its one payload copy, and engine callers own their
        // update and call `store_and_deliver` directly.
        self.store_and_deliver(target, update.clone(), producer)
    }

    /// The store-and-deliver primitive behind [`Gateway::ingest`]: one put
    /// into shared memory, one key into `target`'s queue, attributed to
    /// `producer`. Sessions call it directly — handing over the update they
    /// own, so its buffer moves into the store — and so that a drained
    /// backlog offer (remote bytes on the outside) keeps the client that
    /// produced it, which mid-round churn needs to find and reclaim the slot.
    ///
    /// A refused put drops the payload where it stands: a pooled buffer is
    /// back in its pool before this returns, anything else is freed.
    pub(crate) fn store_and_deliver(
        &mut self,
        target: AggregatorId,
        update: Update,
        producer: Option<ClientId>,
    ) -> Result<QueuedUpdate> {
        let weight = update.weight();
        // (key, bytes landed in shared memory, encoded marker). The stored
        // form of an encoded update includes its 16-byte descriptor.
        let (key, stored_bytes, encoded) = match update {
            Update::Dense(dense) => {
                let stored_bytes = dense.byte_size();
                (
                    self.store.put(dense.model.into_wire())?,
                    stored_bytes,
                    false,
                )
            }
            Update::Encoded { update, .. } => {
                let (stored_bytes, dense_bytes) = (update.stored_bytes(), update.dense_bytes());
                let key = self.store.put_encoded(update.into_wire(), dense_bytes)?;
                (key, stored_bytes, true)
            }
            // Headerless dense little-endian `f32` bytes land byte-identical
            // to a moved dense model, with no intermediate decode.
            Update::RemoteBytes { wire, encoded, .. } => {
                let (stored_bytes, dense_bytes) =
                    (wire.len() as u64, remote_dense_bytes(&wire, encoded)?);
                let key = if encoded {
                    self.store.put_encoded(wire, dense_bytes)?
                } else {
                    self.store.put(wire)?
                };
                (key, stored_bytes, encoded)
            }
        };
        let queued = QueuedUpdate {
            producer,
            key,
            weight,
            encoded,
        };
        self.inboxes.entry(target).or_default().enqueue(queued);
        self.arrivals += 1;
        self.ingested_bytes += stored_bytes;
        Ok(queued)
    }

    /// Bytes written into shared memory by this gateway (stored form: for
    /// encoded updates this includes the 16-byte codec descriptor, which is
    /// metadata rather than data-plane payload; wire accounting — payload
    /// only, [`Update::wire_bytes`] — is tracked by the callers that price
    /// transfers).
    pub fn ingested_bytes(&self) -> u64 {
        self.ingested_bytes
    }

    /// The shared-memory store backing this gateway.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::codec::UpdateCodec;
    use lifl_fl::{DenseModel, ModelUpdate};
    use lifl_types::CodecKind;

    /// What one row of the table must leave behind.
    struct Expect {
        stored: Vec<u8>,
        producer: Option<ClientId>,
        weight: u64,
        encoded: bool,
    }

    /// The address a moved update's stored bytes must start at: the dense
    /// model's own vector, an encoded update's wire buffer at offset 0, the
    /// remote handle's bytes.
    fn payload_address(update: &Update) -> *const u8 {
        match update {
            Update::Dense(dense) => dense.model.as_slice().as_ptr().cast(),
            Update::Encoded { update, .. } => update.wire().as_ptr(),
            Update::RemoteBytes { wire, .. } => wire.as_ptr(),
        }
    }

    /// Every representation through the one door: stored bytes, producer,
    /// weight, encoded flag, inbox delivery and `ingested_bytes`, the
    /// caller's update left intact by the borrowing door, the payload's
    /// address kept by the moving primitive, plus the malformed payload that
    /// must leave no trace.
    #[test]
    fn ingest_stores_and_delivers_every_representation() {
        let model = DenseModel::from_vec((0..32).map(|i| i as f32 * 0.5).collect());
        let dense_le: Vec<u8> = model
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let encoded = UpdateCodec::new(CodecKind::Uniform8).encode(&model);
        let wire = encoded.to_bytes();
        assert_eq!(wire.len() as u64, encoded.stored_bytes());

        let rows = [
            (
                "dense from a client",
                Update::dense(ClientId::new(7), model.clone(), 5),
                Expect {
                    stored: dense_le.clone(),
                    producer: Some(ClientId::new(7)),
                    weight: 5,
                    encoded: false,
                },
            ),
            (
                "anonymous dense takes the arrival index",
                Update::Dense(ModelUpdate::intermediate(model.clone(), 3)),
                Expect {
                    stored: dense_le.clone(),
                    producer: Some(ClientId::new(1)),
                    weight: 3,
                    encoded: false,
                },
            ),
            (
                "encoded stays compressed",
                Update::encoded(ClientId::new(9), encoded, 4),
                Expect {
                    stored: wire.clone(),
                    producer: Some(ClientId::new(9)),
                    weight: 4,
                    encoded: true,
                },
            ),
            (
                "encoded remote bytes",
                Update::remote_bytes(wire.clone(), 7, true),
                Expect {
                    stored: wire.clone(),
                    producer: None,
                    weight: 7,
                    encoded: true,
                },
            ),
            (
                "dense remote bytes land byte-identical to put_f32",
                Update::remote_bytes(dense_le.clone(), 2, false),
                Expect {
                    stored: dense_le.clone(),
                    producer: None,
                    weight: 2,
                    encoded: false,
                },
            ),
        ];

        let store = ObjectStore::new();
        let mut gw = Gateway::new(NodeId::new(0), store.clone());
        let agg = AggregatorId::new(1);
        let inbox = gw.register_aggregator(agg);
        let mut expected_bytes = 0u64;
        for (name, update, expect) in &rows {
            let pristine = update.clone();
            let queued = gw.ingest(agg, update).unwrap();
            assert_eq!(
                *update, pristine,
                "{name}: the borrowing door took something"
            );
            assert_eq!(queued.producer, expect.producer, "{name}");
            assert_eq!(queued.weight, expect.weight, "{name}");
            assert_eq!(queued.encoded, expect.encoded, "{name}");
            let object = gw.store().get(&queued.key).unwrap();
            assert_eq!(object.as_slice(), expect.stored.as_slice(), "{name}");
            // Delivered to the target's queue, key and all.
            assert_eq!(inbox.dequeue(), Some(queued), "{name}");
            expected_bytes += expect.stored.len() as u64;
            assert_eq!(gw.ingested_bytes(), expected_bytes, "{name}");
        }
        // Encoded forms are accounted compressed, dense forms are not.
        let stats = store.stats();
        assert_eq!(stats.encoded_puts, 2);
        assert!(stats.bytes_saved() > 0);
        assert_eq!(stats.live_objects, rows.len());

        // A malformed payload — an encoded one, a ragged or empty dense one
        // — is refused and leaves nothing behind.
        for (wire, encoded) in [(vec![1u8, 2], true), (vec![0u8; 9], false), (vec![], false)] {
            let refused = gw.ingest(agg, &Update::remote_bytes(wire, 1, encoded));
            assert!(matches!(refused, Err(LiflError::Codec(_))));
        }
        assert!(inbox.is_empty());
        assert_eq!(gw.ingested_bytes(), expected_bytes);
        assert_eq!(store.stats().live_objects, rows.len());

        // The same rows by value, as a session hands them over: the stored
        // object *is* the update's buffer — same address, nothing copied.
        let moved = rows.len();
        for (name, update, expect) in rows {
            let origin = payload_address(&update);
            let queued = gw.store_and_deliver(agg, update, expect.producer).unwrap();
            assert_eq!(queued.producer, expect.producer, "{name}");
            assert_eq!(queued.encoded, expect.encoded, "{name}");
            let object = gw.store().get(&queued.key).unwrap();
            assert_eq!(object.as_slice(), expect.stored.as_slice(), "{name}");
            assert_eq!(
                object.as_slice().as_ptr(),
                origin,
                "{name}: moved, not copied"
            );
            assert_eq!(inbox.dequeue(), Some(queued), "{name}");
        }
        assert_eq!(store.stats().live_objects, 2 * moved);
    }
}
