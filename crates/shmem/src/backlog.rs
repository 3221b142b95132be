//! Bounded, pool-backed payload storage for the admission backlog.
//!
//! When a round is full, `try_ingest` parks the offered update's payload
//! bytes until the next round opens. Parked payloads are the one place the
//! streaming ingress could grow with client count, so [`PooledBacklog`]
//! enforces hard slot and byte budgets: a store either succeeds within the
//! caps or is refused, and every buffer is checked out of (and returned to)
//! a shared [`BufferPool`] so steady-state churn through the backlog reuses
//! the same slab instead of allocating per client.

use crate::pool::BufferPool;

/// Occupancy counters for a [`PooledBacklog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BacklogStats {
    /// Payloads currently parked.
    pub used_slots: usize,
    /// Payload bytes currently parked.
    pub used_bytes: usize,
    /// High-water mark of parked payloads.
    pub peak_slots: usize,
    /// High-water mark of parked payload bytes.
    pub peak_bytes: usize,
    /// Payloads stored over the backlog's lifetime.
    pub total_stored: u64,
    /// Store attempts refused because a budget was exhausted.
    pub total_refused: u64,
}

/// Bounded byte storage for parked update payloads, drawing buffers from a
/// shared [`BufferPool`].
///
/// The backlog only accounts bytes and slots; callers keep the returned
/// buffers (typically inside a queued-offer struct) and hand them back via
/// [`PooledBacklog::release`] when the offer is drained or dropped.
#[derive(Debug)]
pub struct PooledBacklog {
    pool: BufferPool,
    max_slots: usize,
    max_bytes: usize,
    stats: BacklogStats,
}

impl PooledBacklog {
    /// Creates a backlog with the given slot and byte budgets, recycling
    /// buffers through `pool`.
    pub fn new(pool: BufferPool, max_slots: usize, max_bytes: usize) -> PooledBacklog {
        PooledBacklog {
            pool,
            max_slots,
            max_bytes,
            stats: BacklogStats::default(),
        }
    }

    /// Whether a payload of `len` bytes fits within the remaining budgets.
    pub fn would_admit(&self, len: usize) -> bool {
        self.stats.used_slots < self.max_slots
            && self.stats.used_bytes.saturating_add(len) <= self.max_bytes
    }

    /// Copies `payload` into a pool-backed buffer and charges it against the
    /// budgets. Returns `None` (and counts a refusal) when either budget
    /// would be exceeded.
    pub fn try_store(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        if !self.would_admit(payload.len()) {
            self.stats.total_refused += 1;
            return None;
        }
        let mut buf = self.pool.checkout_bytes(payload.len());
        buf.extend_from_slice(payload);
        self.stats.used_slots += 1;
        self.stats.used_bytes += payload.len();
        self.stats.peak_slots = self.stats.peak_slots.max(self.stats.used_slots);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.used_bytes);
        self.stats.total_stored += 1;
        Some(buf)
    }

    /// Returns a previously stored buffer to the pool and releases its
    /// budget charge.
    pub fn release(&mut self, buf: Vec<u8>) {
        self.withdraw(buf.len());
        self.pool.checkin_bytes(buf);
    }

    /// Releases the budget charge of a buffer of `len` bytes that left the
    /// backlog for good — e.g. a drained offer whose payload moved into the
    /// shared-memory object store — without returning it to the pool.
    pub fn withdraw(&mut self, len: usize) {
        self.stats.used_slots = self.stats.used_slots.saturating_sub(1);
        self.stats.used_bytes = self.stats.used_bytes.saturating_sub(len);
    }

    /// Current occupancy and lifetime counters.
    pub fn stats(&self) -> BacklogStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_within_budget_and_refuses_past_it() {
        let mut backlog = PooledBacklog::new(BufferPool::new(), 2, 100);
        let a = backlog.try_store(&[1u8; 40]).expect("fits");
        let b = backlog.try_store(&[2u8; 40]).expect("fits");
        assert_eq!(a.len(), 40);
        assert!(backlog.try_store(&[3u8; 10]).is_none(), "slot budget");
        backlog.release(a);
        assert!(backlog.try_store(&[3u8; 70]).is_none(), "byte budget");
        let c = backlog.try_store(&[3u8; 60]).expect("fits after release");
        assert_eq!(c[0], 3);
        let stats = backlog.stats();
        assert_eq!(stats.used_slots, 2);
        assert_eq!(stats.used_bytes, 100);
        assert_eq!(stats.peak_slots, 2);
        assert_eq!(stats.total_stored, 3);
        assert_eq!(stats.total_refused, 2);
        backlog.release(b);
        backlog.release(c);
        assert_eq!(backlog.stats().used_slots, 0);
        assert_eq!(backlog.stats().used_bytes, 0);
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = BufferPool::new();
        let mut backlog = PooledBacklog::new(pool.clone(), 4, 1024);
        let a = backlog.try_store(&[7u8; 64]).expect("fits");
        let ptr = a.as_ptr();
        backlog.release(a);
        assert_eq!(pool.stats().idle_buffers, 1);
        let b = backlog.try_store(&[8u8; 32]).expect("fits");
        assert_eq!(b.as_ptr(), ptr, "second store reused the slab");
        assert_eq!(pool.stats().hits, 1);
        backlog.release(b);
    }

    #[test]
    fn budgets_are_visible() {
        let mut backlog = PooledBacklog::new(BufferPool::new(), 3, 99);
        assert!(backlog.would_admit(99));
        assert!(!backlog.would_admit(100));
        let held: Vec<_> = (0..3)
            .map(|_| backlog.try_store(&[1u8]).expect("fits"))
            .collect();
        assert!(!backlog.would_admit(1), "three slots hold three buffers");
        held.into_iter().for_each(|b| backlog.release(b));
    }
}
