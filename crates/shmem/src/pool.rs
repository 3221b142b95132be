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
//! checked back in by whoever retires it — or wrapped in a [`PooledBuf`],
//! which checks itself back in when dropped, so a payload moved into the
//! object store comes home when the store recycles it.

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
    #[cfg(test)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One element type's half of the pool: the idle stack plus how many of its
/// buffers are out with callers.
struct Slab<T> {
    idle: Vec<Vec<T>>,
    /// Checkouts not yet matched by a check-in: the most buffers this slab
    /// may take back (the conservation rule).
    outstanding: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            idle: Vec::new(),
            outstanding: 0,
        }
    }
}

fn capacity_bytes<T>(buf: &Vec<T>) -> u64 {
    (buf.capacity() * std::mem::size_of::<T>()) as u64
}

impl<T> Slab<T> {
    /// Takes the most recently returned buffer holding at least `capacity`
    /// elements, or allocates one; either way one more buffer is out.
    fn checkout(&mut self, capacity: usize, stats: &mut PoolStats) -> Vec<T> {
        self.outstanding += 1;
        match self.idle.iter().rposition(|b| b.capacity() >= capacity) {
            Some(i) => {
                stats.hits += 1;
                let buf = self.idle.swap_remove(i);
                stats.idle_buffers -= 1;
                stats.idle_bytes -= capacity_bytes(&buf);
                buf
            }
            None => {
                stats.misses += 1;
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Takes `buf` back if a checkout is still unmatched; hands it back to
    /// the caller (to be freed outside the lock) otherwise.
    fn checkin(&mut self, buf: Vec<T>, stats: &mut PoolStats) -> Option<Vec<T>> {
        if self.outstanding == 0 {
            return Some(buf);
        }
        self.outstanding -= 1;
        stats.idle_buffers += 1;
        stats.idle_bytes += capacity_bytes(&buf);
        stats.peak_idle_buffers = stats.peak_idle_buffers.max(stats.idle_buffers);
        stats.peak_idle_bytes = stats.peak_idle_bytes.max(stats.idle_bytes);
        self.idle.push(buf);
        None
    }
}

#[derive(Default)]
struct PoolInner {
    f32s: Slab<f32>,
    bytes: Slab<u8>,
    stats: PoolStats,
}

/// A shared checkout/checkin pool of `Vec<f32>` and `Vec<u8>` scratch buffers.
///
/// Cloning the pool shares the same slab (an `Arc` bump), so a codec, an
/// error-feedback encoder and an aggregator runtime can all recycle through
/// one slab.
///
/// **Conservation:** the pool never retains more buffers of an element type
/// than it has handed out and not yet got back. A check-in beyond that — a
/// buffer somebody else allocated, with nothing of the pool's outstanding to
/// stand in for — is dropped, so feeding the pool foreign buffers cannot grow
/// it. The idle counters in [`PoolStats`] are maintained incrementally; no
/// call walks the idle list except the checkout's best-fit scan.
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

    /// Checks out an `f32` buffer of exactly `len` elements, every one `0.0`
    /// — a reused buffer is zero-filled first, whatever was checked in. That
    /// is a contract, not a detail: an accumulator drawn from the pool
    /// (`CumulativeFedAvg::warm_from` in `lifl-fl`) starts its round from
    /// these zeros. Reuses a pooled buffer when one with sufficient capacity
    /// exists; allocates otherwise.
    pub fn checkout_f32(&self, len: usize) -> Vec<f32> {
        let mut buf = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.f32s.checkout(len, &mut inner.stats)
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns an `f32` buffer to the pool for reuse (dropped instead when
    /// no `f32` checkout is outstanding — see the conservation rule).
    pub fn checkin_f32(&self, buf: Vec<f32>) {
        let surplus = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.f32s.checkin(buf, &mut inner.stats)
        };
        drop(surplus);
    }

    /// Checks out an empty byte buffer with at least `capacity` bytes of
    /// capacity. Reuses a pooled buffer when one is large enough; allocates
    /// otherwise.
    pub fn checkout_bytes(&self, capacity: usize) -> Vec<u8> {
        let mut buf = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.bytes.checkout(capacity, &mut inner.stats)
        };
        buf.clear();
        buf
    }

    /// Returns a byte buffer to the pool for reuse (dropped instead when no
    /// byte checkout is outstanding — see the conservation rule).
    pub fn checkin_bytes(&self, buf: Vec<u8>) {
        let surplus = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.bytes.checkin(buf, &mut inner.stats)
        };
        drop(surplus);
    }

    /// Current pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// The idle counters recomputed by walking both idle lists: what the
    /// incremental accounting in [`BufferPool::stats`] must always equal.
    #[cfg(test)]
    fn recounted(&self) -> (usize, u64) {
        let inner = self.inner.lock();
        let buffers = inner.f32s.idle.len() + inner.bytes.idle.len();
        let bytes = inner.f32s.idle.iter().map(capacity_bytes).sum::<u64>()
            + inner.bytes.idle.iter().map(capacity_bytes).sum::<u64>();
        (buffers, bytes)
    }
}

/// A byte buffer that knows where it came from: dropping it checks the
/// buffer back into its home [`BufferPool`], wherever and on whichever thread
/// the drop happens. It is the owner a pooled payload is moved into the
/// object store behind (`Bytes::from_owner`), so the store recycling the
/// object — or refusing it in the first place — is what returns the buffer;
/// no exit path has to remember to.
///
/// A *detached* buffer has no home and is simply freed: the form a payload
/// somebody else allocated (a client's pre-encoded update, a parsed copy)
/// travels in. Cloning always yields a detached copy.
pub struct PooledBuf {
    buf: Vec<u8>,
    home: Option<BufferPool>,
}

impl PooledBuf {
    /// Checks an empty buffer of at least `capacity` bytes out of `pool`,
    /// to be returned there when dropped.
    pub fn checkout(pool: &BufferPool, capacity: usize) -> PooledBuf {
        PooledBuf::adopt(pool.checkout_bytes(capacity), pool)
    }

    /// Wraps a buffer that was checked out of `pool` earlier (e.g. a drained
    /// backlog payload) so that dropping it returns it there.
    pub fn adopt(buf: Vec<u8>, pool: &BufferPool) -> PooledBuf {
        PooledBuf {
            buf,
            home: Some(pool.clone()),
        }
    }

    /// Wraps a buffer no pool is waiting for; dropping it frees it.
    pub fn detached(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, home: None }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The underlying vector, for whoever writes the payload.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Takes the vector out, leaving nothing to return to the pool (the
    /// caller now owns the allocation and may check it in by hand).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.home = None;
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            pool.checkin_bytes(std::mem::take(&mut self.buf));
        }
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> PooledBuf {
        PooledBuf::detached(self.buf.clone())
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &PooledBuf) -> bool {
        self.buf == other.buf
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buf.len())
            .field("pooled", &self.home.is_some())
            .finish()
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
    fn a_dirty_f32_buffer_comes_back_out_zeroed() {
        let pool = BufferPool::new();
        let mut buf = pool.checkout_f32(96);
        buf.fill(f32::NAN);
        buf.push(7.5);
        let ptr = buf.as_ptr();
        pool.checkin_f32(buf);
        for len in [64, 97] {
            let again = pool.checkout_f32(len);
            assert_eq!(again.as_ptr(), ptr, "the same allocation");
            assert!(
                again.iter().all(|v| v.to_bits() == 0),
                "{len} elements: {again:?}"
            );
            pool.checkin_f32(again);
        }
    }

    #[test]
    fn undersized_buffers_are_not_reused_for_larger_requests() {
        let pool = BufferPool::new();
        let small = pool.checkout_f32(8);
        pool.checkin_f32(small);
        let big = pool.checkout_f32(1024);
        assert_eq!(big.len(), 1024);
        let stats = pool.stats();
        assert_eq!(stats.misses, 2);
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
        let floats = pool.checkout_f32(100);
        let bytes = pool.checkout_bytes(50);
        pool.checkin_f32(floats);
        pool.checkin_bytes(bytes);
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
        assert!((after.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pool_is_clone_shared() {
        let pool = BufferPool::new();
        let alias = pool.clone();
        let buf = alias.checkout_bytes(16);
        pool.checkin_bytes(buf);
        assert_eq!(alias.stats().idle_buffers, 1);
        let _ = alias.checkout_bytes(4);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn empty_pool_hit_rate_is_zero() {
        assert_eq!(BufferPool::new().stats().hit_rate(), 0.0);
    }

    #[test]
    fn foreign_check_ins_cannot_grow_the_pool() {
        let pool = BufferPool::new();
        // Nothing is out: a buffer somebody else allocated is dropped.
        pool.checkin_bytes(vec![0u8; 64]);
        pool.checkin_f32(vec![0.0; 64]);
        assert_eq!(pool.stats().idle_buffers, 0);
        // One byte buffer out: exactly one check-in is retained, whoever
        // allocated it, and the surplus is dropped. The f32 half keeps its
        // own count.
        let out = pool.checkout_bytes(32);
        pool.checkin_bytes(vec![0u8; 64]);
        pool.checkin_f32(vec![0.0; 64]);
        pool.checkin_bytes(out);
        let stats = pool.stats();
        assert_eq!((stats.idle_buffers, stats.peak_idle_buffers), (1, 1));
        assert_eq!(stats.idle_bytes, 64);
    }

    #[test]
    fn a_pooled_buf_comes_home_when_dropped_and_a_detached_one_does_not() {
        let pool = BufferPool::new();
        let mut buf = PooledBuf::checkout(&pool, 128);
        buf.as_mut_vec().extend_from_slice(&[1, 2, 3]);
        let ptr = buf.as_slice().as_ptr();
        assert_eq!(buf.as_ref(), &[1, 2, 3]);
        // A clone is a detached copy: dropping it returns nothing.
        let copy = buf.clone();
        assert_eq!(copy, buf);
        drop(copy);
        assert_eq!(pool.stats().idle_buffers, 0);
        // The original goes home from whichever thread drops it.
        std::thread::spawn(move || drop(buf)).join().unwrap();
        assert_eq!(pool.stats().idle_buffers, 1);
        let again = PooledBuf::checkout(&pool, 64);
        assert_eq!(again.as_slice().as_ptr(), ptr, "the same allocation");
        assert!(again.as_slice().is_empty());
        // Taking the vector out disarms the return.
        let taken = again.into_vec();
        assert_eq!(pool.stats().idle_buffers, 0);
        pool.checkin_bytes(taken);
        assert_eq!(pool.stats().idle_buffers, 1);
        drop(PooledBuf::detached(vec![0u8; 16]));
        assert_eq!(pool.stats().idle_buffers, 1);
        // Adopting a buffer checked out by hand returns it on drop.
        let by_hand = pool.checkout_bytes(8);
        drop(PooledBuf::adopt(by_hand, &pool));
        assert_eq!(pool.stats().idle_buffers, 1);
        assert_eq!(pool.stats().hits, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Over any checkout/check-in sequence (pooled buffers coming back,
        /// foreign buffers arriving) the incrementally maintained
        /// idle counters equal a recount of the idle lists, the pool never
        /// holds more than it handed out, and the peaks bound the present.
        #[test]
        fn incremental_stats_equal_recomputed_ones(
            ops in proptest::collection::vec((0u8..6, 1usize..200), 1..120),
        ) {
            let pool = BufferPool::new();
            let mut out_f32: Vec<Vec<f32>> = Vec::new();
            let mut out_bytes: Vec<Vec<u8>> = Vec::new();
            let mut handed_out = 0usize;
            for (op, size) in ops {
                match op {
                    0 => {
                        out_f32.push(pool.checkout_f32(size));
                        handed_out += 1;
                    }
                    1 => {
                        out_bytes.push(pool.checkout_bytes(size));
                        handed_out += 1;
                    }
                    2 => {
                        if let Some(buf) = out_f32.pop() {
                            pool.checkin_f32(buf);
                        }
                    }
                    3 => {
                        if let Some(buf) = out_bytes.pop() {
                            pool.checkin_bytes(buf);
                        }
                    }
                    4 => pool.checkin_f32(vec![0.0; size]),
                    _ => pool.checkin_bytes(vec![0u8; size]),
                }
                let stats = pool.stats();
                prop_assert_eq!((stats.idle_buffers, stats.idle_bytes), pool.recounted());
                prop_assert!(stats.idle_buffers <= handed_out);
                prop_assert!(stats.peak_idle_buffers >= stats.idle_buffers);
                prop_assert!(stats.peak_idle_bytes >= stats.idle_bytes);
                prop_assert_eq!(stats.hits + stats.misses, handed_out as u64);
            }
        }
    }
}
