//! Generic BPF map emulation.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// An in-kernel-style key/value map with a bounded number of entries,
/// mirroring `BPF_MAP_TYPE_HASH`. Updates from user space go through
/// [`BpfMap::update_elem`], mirroring `bpf_map_update_elem()` (Appendix A).
#[derive(Debug, Clone)]
pub struct BpfMap<K, V> {
    inner: Arc<RwLock<HashMap<K, V>>>,
    max_entries: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> BpfMap<K, V> {
    /// Creates a map with room for `max_entries` entries (0 = unbounded).
    pub fn new(max_entries: usize) -> Self {
        BpfMap {
            inner: Arc::new(RwLock::new(HashMap::new())),
            max_entries,
        }
    }

    /// Inserts or replaces the value for `key`, mirroring `bpf_map_update_elem`.
    ///
    /// Returns `false` (and does not insert) when the map is full and the key
    /// is not already present, which is the kernel's `E2BIG`/`ENOSPC` behaviour.
    pub fn update_elem(&self, key: K, value: V) -> bool {
        let mut map = self.inner.write();
        if self.max_entries > 0 && map.len() >= self.max_entries && !map.contains_key(&key) {
            return false;
        }
        map.insert(key, value);
        true
    }

    /// Looks up the value for `key`, mirroring `bpf_map_lookup_elem`.
    pub fn lookup_elem(&self, key: &K) -> Option<V> {
        self.inner.read().get(key).cloned()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Snapshot of all entries (used by the user-space agent when draining metrics).
    pub fn snapshot(&self) -> Vec<(K, V)> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Removes every entry.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced_like_kernel() {
        let map: BpfMap<u32, u32> = BpfMap::new(2);
        assert!(map.update_elem(1, 10));
        assert!(map.update_elem(2, 20));
        assert!(!map.update_elem(3, 30), "full map rejects new keys");
        assert!(map.update_elem(2, 21), "existing keys can still be updated");
        assert_eq!(map.lookup_elem(&2), Some(21));
    }

    #[test]
    fn snapshot_and_clear() {
        let map: BpfMap<u8, u8> = BpfMap::new(0);
        for i in 0..5 {
            map.update_elem(i, i * 2);
        }
        let mut snap = map.snapshot();
        snap.sort();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[3], (3, 6));
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn map_handles_are_shared() {
        let map: BpfMap<u8, u8> = BpfMap::new(0);
        let alias = map.clone();
        map.update_elem(9, 99);
        assert_eq!(alias.lookup_elem(&9), Some(99));
    }
}
