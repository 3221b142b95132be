//! Global-model checkpointing to an external persistent store (Appendix B).
//!
//! The LIFL agent asynchronously checkpoints the global model after an
//! aggregator finishes a configured number of aggregations, so checkpointing
//! latency never appears on the aggregation critical path. This module
//! emulates the external storage service as a versioned in-memory map and
//! records how many bytes were written so experiments can account for it.

use lifl_types::{RoundId, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single stored checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Round (global model version) this checkpoint captures.
    pub round: RoundId,
    /// Serialized model bytes.
    pub data: Vec<u8>,
    /// Simulated time at which the write completed.
    pub written_at: SimTime,
}

#[derive(Debug, Default)]
struct Inner {
    checkpoints: BTreeMap<u64, Checkpoint>,
    bytes_written: u64,
}

/// The external persistent storage service used for model checkpoints.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Inner>>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a checkpoint for `round`.
    pub fn save(&self, round: RoundId, data: Vec<u8>, written_at: SimTime) {
        let mut inner = self.inner.lock();
        inner.bytes_written += data.len() as u64;
        inner.checkpoints.insert(
            round.index(),
            Checkpoint {
                round,
                data,
                written_at,
            },
        );
    }

    /// Returns the most recent checkpoint, if any. Used for recovery after an
    /// aggregator failure: aggregators are stateless, so a new instance starts
    /// from the latest global model.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.inner.lock().checkpoints.values().next_back().cloned()
    }

    /// Number of checkpoints stored.
    pub fn len(&self) -> usize {
        self.inner.lock().checkpoints.len()
    }

    /// Whether any checkpoint has been written.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().checkpoints.is_empty()
    }

    /// Total bytes written over the store's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_and_load() {
        let store = CheckpointStore::new();
        assert!(store.is_empty());
        store.save(RoundId::new(1), vec![1, 2, 3], SimTime::from_secs(5.0));
        store.save(RoundId::new(2), vec![4, 5], SimTime::from_secs(9.0));
        assert_eq!(store.len(), 2);
        let latest = store.latest().unwrap();
        assert_eq!((latest.round, latest.data), (RoundId::new(2), vec![4, 5]));
        assert_eq!(store.bytes_written(), 5);
    }

    #[test]
    fn latest_returns_highest_round() {
        let store = CheckpointStore::new();
        store.save(RoundId::new(3), vec![3], SimTime::ZERO);
        store.save(RoundId::new(10), vec![10], SimTime::ZERO);
        store.save(RoundId::new(7), vec![7], SimTime::ZERO);
        assert_eq!(store.latest().unwrap().round, RoundId::new(10));
    }

    #[test]
    fn overwrite_same_round() {
        let store = CheckpointStore::new();
        store.save(RoundId::new(1), vec![0; 10], SimTime::ZERO);
        store.save(RoundId::new(1), vec![1; 20], SimTime::ZERO);
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest().unwrap().data.len(), 20);
        assert_eq!(store.bytes_written(), 30);
    }
}
