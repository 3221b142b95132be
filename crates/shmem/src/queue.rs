//! In-place message queuing (§4.2, Appendix C/G).
//!
//! The gateway writes each model update into shared memory once and enqueues
//! only the 16-byte object key; aggregators dequeue keys and read the payload
//! in place. The queue is a multiple-producer / single-consumer FIFO matching
//! the step-based processing model of Appendix G.

use lifl_types::{ClientId, ObjectKey};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One queued update: who produced it and where its payload lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueuedUpdate {
    /// The producing client (or `None` for an intermediate update from another aggregator).
    pub producer: Option<ClientId>,
    /// Key of the payload in the shared-memory object store.
    pub key: ObjectKey,
    /// Number of raw client updates folded into this payload (1 for a client update).
    pub weight: u64,
    /// Whether the payload is an `EncodedUpdate` wire string rather than a
    /// dense `f32` vector (the consumer must decode before folding).
    pub encoded: bool,
}

impl QueuedUpdate {
    /// A raw update from a client.
    pub fn from_client(client: ClientId, key: ObjectKey) -> Self {
        QueuedUpdate {
            producer: Some(client),
            key,
            weight: 1,
            encoded: false,
        }
    }

    /// An intermediate update produced by a lower-level aggregator.
    pub fn intermediate(key: ObjectKey, weight: u64) -> Self {
        QueuedUpdate {
            producer: None,
            key,
            weight,
            encoded: false,
        }
    }

    /// Marks the payload as codec-encoded wire bytes.
    pub fn encoded(mut self) -> Self {
        self.encoded = true;
        self
    }
}

#[derive(Debug, Default)]
struct QueueInner {
    fifo: VecDeque<QueuedUpdate>,
    peak_depth: usize,
}

/// The in-place FIFO queue of object keys shared by a gateway (producer side)
/// and one aggregator (consumer side).
#[derive(Debug, Clone, Default)]
pub struct InPlaceQueue {
    inner: Arc<Mutex<QueueInner>>,
}

impl InPlaceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an update key.
    pub fn enqueue(&self, update: QueuedUpdate) {
        let mut inner = self.inner.lock();
        inner.fifo.push_back(update);
        inner.peak_depth = inner.peak_depth.max(inner.fifo.len());
    }

    /// Dequeues the oldest update key, if any.
    pub fn dequeue(&self) -> Option<QueuedUpdate> {
        self.inner.lock().fifo.pop_front()
    }

    /// Removes and returns the first queued update matching `pred`,
    /// preserving the relative order of every other entry (so a departed
    /// client's key can be reclaimed mid-round without perturbing survivor
    /// assignment).
    pub fn remove_first(&self, pred: impl Fn(&QueuedUpdate) -> bool) -> Option<QueuedUpdate> {
        let mut inner = self.inner.lock();
        let pos = inner.fifo.iter().position(&pred)?;
        inner.fifo.remove(pos)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().fifo.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().fifo.is_empty()
    }

    /// Highest depth the queue ever reached.
    pub fn peak_depth(&self) -> usize {
        self.inner.lock().peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> ObjectKey {
        ObjectKey::from_words(0, i)
    }

    #[test]
    fn fifo_order() {
        let q = InPlaceQueue::new();
        for i in 0..5 {
            q.enqueue(QueuedUpdate::from_client(ClientId::new(i), key(i)));
        }
        for i in 0..5 {
            let u = q.dequeue().unwrap();
            assert_eq!(u.producer, Some(ClientId::new(i)));
            assert_eq!(u.key, key(i));
            assert_eq!(u.weight, 1);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn counters_track_flow() {
        let q = InPlaceQueue::new();
        q.enqueue(QueuedUpdate::intermediate(key(1), 4));
        q.enqueue(QueuedUpdate::intermediate(key(2), 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_depth(), 2);
        let first = q.dequeue().unwrap();
        assert_eq!(first.weight, 4);
        assert!(first.producer.is_none());
        assert!(!q.is_empty());
    }

    #[test]
    fn shared_between_producer_and_consumer() {
        let q = InPlaceQueue::new();
        let producer = q.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                producer.enqueue(QueuedUpdate::from_client(ClientId::new(i), key(i)));
            }
        });
        handle.join().unwrap();
        let mut seen = 0;
        while q.dequeue().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 100);
    }
}
