//! The shared-memory object store managed by the LIFL agent (§4.1).

use crate::object::{ArcObject, SharedObject};
use lifl_types::{LiflError, ObjectKey, Result};
use parking_lot::Mutex;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters describing the state of an [`ObjectStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Bytes currently allocated to live objects.
    pub allocated_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_bytes: u64,
    /// Number of live objects.
    pub live_objects: usize,
    /// Total objects ever put.
    pub total_puts: u64,
    /// Total objects recycled.
    pub total_recycled: u64,
    /// Capacity in bytes (0 = unbounded).
    pub capacity_bytes: u64,
    /// Objects put in compressed (encoded) form.
    pub encoded_puts: u64,
    /// Actual bytes of every encoded payload ever put.
    pub encoded_bytes: u64,
    /// Bytes the encoded payloads would have occupied dense.
    pub dense_equivalent_bytes: u64,
}

impl StoreStats {
    /// Bytes the update codec kept out of shared memory over the store's
    /// lifetime (dense equivalent minus actual encoded bytes).
    pub fn bytes_saved(&self) -> u64 {
        self.dense_equivalent_bytes
            .saturating_sub(self.encoded_bytes)
    }
}

/// The capacity rule: `size` more bytes, after `pending` others, must stay
/// within a bounded store's capacity.
fn refusal(stats: &StoreStats, pending: u64, size: u64) -> Result<()> {
    let used = stats.allocated_bytes + pending;
    if stats.capacity_bytes > 0 && used + size > stats.capacity_bytes {
        return Err(LiflError::OutOfSharedMemory {
            requested: size,
            available: stats.capacity_bytes.saturating_sub(used),
        });
    }
    Ok(())
}

struct Inner {
    objects: HashMap<ObjectKey, ArcObject>,
    stats: StoreStats,
    rng: rand::rngs::StdRng,
}

/// A per-node shared-memory object store.
///
/// The store only holds **immutable** objects, mirroring the paper's design
/// choice that "LIFL only allows immutable (read-only) objects to guarantee
/// the safe sharing of model updates, eliminating the need for locks" (§4.1).
/// The store itself is internally synchronised so gateways and aggregators on
/// different threads can use it concurrently.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<Mutex<Inner>>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ObjectStore")
            .field("live_objects", &stats.live_objects)
            .field("allocated_bytes", &stats.allocated_bytes)
            .field("capacity_bytes", &stats.capacity_bytes)
            .finish()
    }
}

impl ObjectStore {
    /// Creates an unbounded store.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a store with a capacity limit in bytes (0 means unbounded).
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        use rand::SeedableRng;
        ObjectStore {
            inner: Arc::new(Mutex::new(Inner {
                objects: HashMap::new(),
                stats: StoreStats {
                    capacity_bytes,
                    ..StoreStats::default()
                },
                rng: rand::rngs::StdRng::seed_from_u64(0x11F1),
            })),
        }
    }

    /// Stores `data` under a freshly generated 16-byte key and returns the key.
    ///
    /// The payload is **moved**, never copied: a `Vec<u8>` keeps its
    /// allocation, and a `Bytes::from_owner` handle keeps whatever buffer its
    /// owner exposes (a dense `Vec<f32>` seen as little-endian bytes, a
    /// [`PooledBuf`](crate::PooledBuf) that returns to its pool). The owner is
    /// dropped when the object is recycled and the last outside handle is
    /// gone — or right here, if the store refuses the payload.
    ///
    /// # Errors
    /// Returns [`LiflError::OutOfSharedMemory`] if the store has a capacity
    /// limit and the allocation would exceed it.
    pub fn put(&self, data: impl Into<bytes::Bytes>) -> Result<ObjectKey> {
        self.put_object(data.into(), None)
    }

    /// Stores a compressed model-update wire payload under a fresh key,
    /// accounting the real (encoded) byte footprint against capacity while
    /// remembering the `dense_bytes` the update would have occupied
    /// uncompressed.
    ///
    /// # Errors
    /// Same as [`ObjectStore::put`].
    pub fn put_encoded(
        &self,
        data: impl Into<bytes::Bytes>,
        dense_bytes: u64,
    ) -> Result<ObjectKey> {
        self.put_object(data.into(), Some(dense_bytes))
    }

    /// Whether a put of `size` bytes would fit once `pending` more bytes
    /// have been put first: `Ok`, or the [`LiflError::OutOfSharedMemory`]
    /// that put would then return. How an ingress refuses an update whose
    /// payload does not exist yet (a lossy encode still to run) exactly when
    /// the store would refuse it after everything ahead of it has landed.
    ///
    /// # Errors
    /// [`LiflError::OutOfSharedMemory`] when the capacity would be exceeded.
    pub fn fits(&self, pending: u64, size: u64) -> Result<()> {
        refusal(&self.inner.lock().stats, pending, size)
    }

    fn put_object(&self, data: bytes::Bytes, dense_bytes: Option<u64>) -> Result<ObjectKey> {
        let mut inner = self.inner.lock();
        let size = data.len() as u64;
        refusal(&inner.stats, 0, size)?;
        let key = loop {
            let mut bytes = [0u8; 16];
            inner.rng.fill_bytes(&mut bytes);
            let key = ObjectKey::from_bytes(bytes);
            if !inner.objects.contains_key(&key) {
                break key;
            }
        };
        let object = match dense_bytes {
            Some(dense) => SharedObject::new_encoded(key, data, dense),
            None => SharedObject::new(key, data),
        };
        inner.objects.insert(key, Arc::new(object));
        inner.stats.allocated_bytes += size;
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.allocated_bytes);
        inner.stats.live_objects = inner.objects.len();
        inner.stats.total_puts += 1;
        if let Some(dense) = dense_bytes {
            inner.stats.encoded_puts += 1;
            inner.stats.encoded_bytes += size;
            inner.stats.dense_equivalent_bytes += dense;
        }
        Ok(key)
    }

    /// Stores a model-parameter vector, encoding it as little-endian `f32`.
    ///
    /// A copying convenience for callers that only hold a borrow. Whoever
    /// owns the model moves it in instead (`put(model.into_wire())`, the
    /// vector behind `lifl_fl::kernels::DenseLe`), which is what the engine
    /// does.
    ///
    /// # Errors
    /// Same as [`ObjectStore::put`].
    pub fn put_f32(&self, values: &[f32]) -> Result<ObjectKey> {
        self.put(SharedObject::encode_f32(values))
    }

    /// Fetches the object stored under `key` (a zero-copy handle).
    ///
    /// # Errors
    /// Returns [`LiflError::ObjectNotFound`] if the key is unknown.
    pub fn get(&self, key: &ObjectKey) -> Result<SharedObject> {
        let inner = self.inner.lock();
        inner
            .objects
            .get(key)
            .map(|o| (**o).clone())
            .ok_or(LiflError::ObjectNotFound(*key))
    }

    /// Recycles (frees) the object under `key`.
    ///
    /// # Errors
    /// Returns [`LiflError::ObjectNotFound`] if the key is unknown.
    pub fn recycle(&self, key: &ObjectKey) -> Result<()> {
        let removed = {
            let mut inner = self.inner.lock();
            let removed = inner.objects.remove(key);
            if let Some(obj) = &removed {
                inner.stats.allocated_bytes =
                    inner.stats.allocated_bytes.saturating_sub(obj.len() as u64);
                inner.stats.live_objects = inner.objects.len();
                inner.stats.total_recycled += 1;
            }
            removed
        };
        // The payload is released outside the lock: its owner may free a
        // model-sized allocation or check a buffer back into its pool.
        removed.map(drop).ok_or(LiflError::ObjectNotFound(*key))
    }

    /// Removes every object, as when an aggregation round completes.
    pub fn recycle_all(&self) {
        let objects = {
            let mut inner = self.inner.lock();
            inner.stats.allocated_bytes = 0;
            inner.stats.live_objects = 0;
            inner.stats.total_recycled += inner.objects.len() as u64;
            std::mem::take(&mut inner.objects)
        };
        drop(objects);
    }

    /// Current store statistics.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = ObjectStore::new();
        let key = store.put(vec![7u8; 100]).unwrap();
        let obj = store.get(&key).unwrap();
        assert_eq!(obj.len(), 100);
        assert!(store.get(&key).is_ok());
        assert_eq!(store.stats().live_objects, 1);
        assert_eq!(store.stats().allocated_bytes, 100);
    }

    #[test]
    fn missing_key_is_an_error() {
        let store = ObjectStore::new();
        let key = ObjectKey::from_words(1, 2);
        assert_eq!(store.get(&key).unwrap_err(), LiflError::ObjectNotFound(key));
        assert_eq!(store.recycle(&key), Err(LiflError::ObjectNotFound(key)));
    }

    #[test]
    fn capacity_is_enforced() {
        let store = ObjectStore::with_capacity(150);
        store.put(vec![0u8; 100]).unwrap();
        let err = store.put(vec![0u8; 100]).unwrap_err();
        match err {
            LiflError::OutOfSharedMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 100);
                assert_eq!(available, 50);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn fits_counts_pending_bytes_like_an_earlier_put() {
        let store = ObjectStore::with_capacity(150);
        store.put(vec![0u8; 50]).unwrap();
        assert_eq!(store.fits(60, 40), Ok(()));
        // After 60 pending bytes, a 41-byte put is what the store refuses.
        assert_eq!(
            store.fits(60, 41),
            Err(LiflError::OutOfSharedMemory {
                requested: 41,
                available: 40
            })
        );
        assert_eq!(ObjectStore::new().fits(u64::MAX / 2, 1 << 40), Ok(()));
    }

    #[test]
    fn recycle_frees_capacity() {
        let store = ObjectStore::with_capacity(100);
        let key = store.put(vec![0u8; 80]).unwrap();
        store.recycle(&key).unwrap();
        assert!(store.get(&key).is_err());
        store.put(vec![0u8; 80]).unwrap();
        let stats = store.stats();
        assert_eq!(stats.total_puts, 2);
        assert_eq!(stats.total_recycled, 1);
        assert_eq!(stats.peak_bytes, 80);
    }

    #[test]
    fn recycle_all_clears() {
        let store = ObjectStore::new();
        for _ in 0..10 {
            store.put(vec![1u8; 10]).unwrap();
        }
        store.recycle_all();
        let stats = store.stats();
        assert_eq!(stats.live_objects, 0);
        assert_eq!(stats.allocated_bytes, 0);
        assert_eq!(stats.total_recycled, 10);
    }

    #[test]
    fn encoded_puts_account_real_and_dense_bytes() {
        let store = ObjectStore::new();
        store.put(vec![0u8; 40]).unwrap();
        let key = store.put_encoded(vec![0u8; 26], 80).unwrap();
        let stats = store.stats();
        // Capacity accounting uses the *real* (compressed) footprint.
        assert_eq!(stats.allocated_bytes, 66);
        assert_eq!(stats.encoded_puts, 1);
        assert_eq!(stats.encoded_bytes, 26);
        assert_eq!(stats.dense_equivalent_bytes, 80);
        assert_eq!(stats.bytes_saved(), 54);
        let obj = store.get(&key).unwrap();
        let encoding = format!(
            "{:?}",
            crate::object::PayloadEncoding::Encoded { dense_bytes: 80 }
        );
        assert!(format!("{obj:?}").contains(&encoding), "{obj:?}");
        assert_eq!(obj.len(), 26);
    }

    #[test]
    fn encoded_put_respects_capacity_by_real_size() {
        // A 30-byte encoded payload fits a 32-byte store even though its
        // dense equivalent would not.
        let store = ObjectStore::with_capacity(32);
        store.put_encoded(vec![0u8; 30], 120).unwrap();
        assert!(store.put_encoded(vec![0u8; 30], 120).is_err());
    }

    #[test]
    fn f32_put_roundtrip() {
        let store = ObjectStore::new();
        let key = store.put_f32(&[0.5, 1.5]).unwrap();
        assert_eq!(store.get(&key).unwrap().as_f32_vec(), vec![0.5, 1.5]);
    }

    #[test]
    fn keys_are_unique() {
        let store = ObjectStore::new();
        let mut keys = std::collections::HashSet::new();
        for _ in 0..500 {
            assert!(keys.insert(store.put(vec![0u8; 1]).unwrap()));
        }
    }

    #[test]
    fn store_is_clone_shared() {
        let store = ObjectStore::new();
        let alias = store.clone();
        let key = store.put(vec![3u8; 3]).unwrap();
        assert!(alias.get(&key).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn keys_are_unique_and_contents_preserved(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40)) {
            let store = ObjectStore::new();
            let mut keys = Vec::new();
            for p in &payloads {
                keys.push(store.put(p.clone()).unwrap());
            }
            let unique: std::collections::HashSet<_> = keys.iter().collect();
            prop_assert_eq!(unique.len(), keys.len());
            for (key, payload) in keys.iter().zip(&payloads) {
                let object = store.get(key).unwrap();
                prop_assert_eq!(object.as_slice(), payload.as_slice());
            }
        }

        #[test]
        fn allocation_accounting_is_conserved(sizes in proptest::collection::vec(1usize..256, 1..30)) {
            let store = ObjectStore::new();
            let mut keys = Vec::new();
            for s in &sizes {
                keys.push(store.put(vec![0u8; *s]).unwrap());
            }
            let total: u64 = sizes.iter().map(|s| *s as u64).sum();
            prop_assert_eq!(store.stats().allocated_bytes, total);
            for key in &keys {
                store.recycle(key).unwrap();
            }
            prop_assert_eq!(store.stats().allocated_bytes, 0);
            prop_assert_eq!(store.stats().live_objects, 0);
        }
    }
}
