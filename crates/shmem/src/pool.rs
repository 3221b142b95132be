//! A slab of reusable scratch buffers for the aggregation hot path.
//!
//! Every interior aggregator in LIFL decodes, folds and re-encodes model
//! updates continuously; allocating a fresh model-sized `Vec` per update puts
//! the allocator on the Recv+Agg critical path (§5.4). [`BufferPool`] keeps
//! checked-in `Vec<f32>` / `Vec<u8>` buffers alive between uses so a
//! steady-state round performs **zero** model-sized heap allocations after
//! warm-up: the codec draws its encode bodies from the pool, ingress and
//! admission draw their wire buffers, and decode sites draw their
//! dequantization scratch.
//!
//! The pool is deliberately simple — a LIFO stack per element type, behind one
//! mutex, shared by `Clone` (an `Arc` bump) like [`crate::ObjectStore`]. A
//! checkout *moves* the buffer out (no lifetime coupling to the pool), so a
//! buffer can be embedded in an `EncodedUpdate`, shipped across a queue, and
//! checked back in by whoever retires it.

use parking_lot::Mutex;
use std::sync::Arc;

/// Counters describing a [`BufferPool`]'s behaviour over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served from an already-pooled buffer (no heap allocation).
    pub hits: u64,
    /// Checkouts that had to allocate (pool empty or every buffer too small).
    pub misses: u64,
    /// Buffers currently checked in and idle.
    pub idle_buffers: usize,
    /// High-water mark of idle buffers (the slab's resident footprint).
    pub peak_idle_buffers: usize,
    /// Capacity bytes currently resident in idle buffers.
    pub idle_bytes: u64,
    /// High-water mark of resident idle capacity bytes.
    pub peak_idle_bytes: u64,
}

impl PoolStats {
    /// Fraction of checkouts that avoided a heap allocation.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Default)]
struct PoolInner {
    f32s: Vec<Vec<f32>>,
    bytes: Vec<Vec<u8>>,
    stats: PoolStats,
}

impl PoolInner {
    fn recount(&mut self) {
        self.stats.idle_buffers = self.f32s.len() + self.bytes.len();
        self.stats.idle_bytes = self
            .f32s
            .iter()
            .map(|b| b.capacity() as u64 * 4)
            .sum::<u64>()
            + self.bytes.iter().map(|b| b.capacity() as u64).sum::<u64>();
        self.stats.peak_idle_buffers = self.stats.peak_idle_buffers.max(self.stats.idle_buffers);
        self.stats.peak_idle_bytes = self.stats.peak_idle_bytes.max(self.stats.idle_bytes);
    }
}

/// A shared checkout/checkin pool of `Vec<f32>` and `Vec<u8>` scratch buffers.
///
/// Cloning the pool shares the same slab (an `Arc` bump), so a codec, an
/// error-feedback encoder and an aggregator runtime can all recycle through
/// one slab.
#[derive(Clone, Default)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("idle_buffers", &stats.idle_buffers)
            .field("idle_bytes", &stats.idle_bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out an `f32` buffer of exactly `len` elements (contents
    /// unspecified but initialised). Reuses a pooled buffer when one with
    /// sufficient capacity exists; allocates otherwise.
    pub fn checkout_f32(&self, len: usize) -> Vec<f32> {
        let mut inner = self.inner.lock();
        let slot = inner.f32s.iter().rposition(|b| b.capacity() >= len);
        let mut buf = match slot {
            Some(i) => {
                inner.stats.hits += 1;
                inner.f32s.swap_remove(i)
            }
            None => {
                inner.stats.misses += 1;
                Vec::with_capacity(len)
            }
        };
        inner.recount();
        drop(inner);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns an `f32` buffer to the pool for reuse.
    pub fn checkin_f32(&self, buf: Vec<f32>) {
        let mut inner = self.inner.lock();
        inner.f32s.push(buf);
        inner.recount();
    }

    /// Checks out an empty byte buffer with at least `capacity` bytes of
    /// capacity. Reuses a pooled buffer when one is large enough; allocates
    /// otherwise.
    pub fn checkout_bytes(&self, capacity: usize) -> Vec<u8> {
        let mut inner = self.inner.lock();
        let slot = inner.bytes.iter().rposition(|b| b.capacity() >= capacity);
        let mut buf = match slot {
            Some(i) => {
                inner.stats.hits += 1;
                inner.bytes.swap_remove(i)
            }
            None => {
                inner.stats.misses += 1;
                Vec::with_capacity(capacity)
            }
        };
        inner.recount();
        drop(inner);
        buf.clear();
        buf
    }

    /// Returns a byte buffer to the pool for reuse.
    pub fn checkin_bytes(&self, buf: Vec<u8>) {
        let mut inner = self.inner.lock();
        inner.bytes.push(buf);
        inner.recount();
    }

    /// Drops every idle buffer (e.g. when the model dimension changes and the
    /// resident capacities no longer fit the workload).
    pub fn shrink(&self) {
        let mut inner = self.inner.lock();
        inner.f32s.clear();
        inner.bytes.clear();
        inner.recount();
    }

    /// Current pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_checked_in_buffers() {
        let pool = BufferPool::new();
        let buf = pool.checkout_f32(128);
        assert_eq!(buf.len(), 128);
        assert_eq!(pool.stats().misses, 1);
        let ptr = buf.as_ptr();
        pool.checkin_f32(buf);
        assert_eq!(pool.stats().idle_buffers, 1);
        let again = pool.checkout_f32(64);
        // Same backing allocation came back (capacity 128 >= 64).
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 64);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.idle_buffers, 0);
    }

    #[test]
    fn undersized_buffers_are_not_reused_for_larger_requests() {
        let pool = BufferPool::new();
        pool.checkin_f32(Vec::with_capacity(8));
        let big = pool.checkout_f32(1024);
        assert_eq!(big.len(), 1024);
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        // The small buffer stays pooled for a later small request.
        assert_eq!(stats.idle_buffers, 1);
    }

    #[test]
    fn byte_checkout_is_empty_with_capacity() {
        let pool = BufferPool::new();
        let mut buf = pool.checkout_bytes(256);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 256);
        buf.extend_from_slice(&[1, 2, 3]);
        pool.checkin_bytes(buf);
        let reused = pool.checkout_bytes(10);
        assert!(reused.is_empty(), "checked-out byte buffers arrive cleared");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn stats_track_high_water_marks() {
        let pool = BufferPool::new();
        pool.checkin_f32(vec![0.0; 100]);
        pool.checkin_bytes(vec![0u8; 50]);
        let stats = pool.stats();
        assert_eq!(stats.idle_buffers, 2);
        assert_eq!(stats.peak_idle_buffers, 2);
        assert!(stats.idle_bytes >= 450);
        let _ = pool.checkout_bytes(1);
        let _ = pool.checkout_f32(1);
        let after = pool.stats();
        assert_eq!(after.idle_buffers, 0);
        assert_eq!(after.peak_idle_buffers, 2);
        assert!(after.peak_idle_bytes >= 450);
        assert!((after.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shrink_empties_the_slab() {
        let pool = BufferPool::new();
        pool.checkin_f32(vec![0.0; 10]);
        pool.shrink();
        assert_eq!(pool.stats().idle_buffers, 0);
        assert_eq!(pool.stats().idle_bytes, 0);
    }

    #[test]
    fn pool_is_clone_shared() {
        let pool = BufferPool::new();
        let alias = pool.clone();
        pool.checkin_bytes(vec![0u8; 16]);
        assert_eq!(alias.stats().idle_buffers, 1);
        let _ = alias.checkout_bytes(4);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn empty_pool_hit_rate_is_zero() {
        assert_eq!(BufferPool::new().stats().hit_rate(), 0.0);
    }
}
