//! Immutable shared objects.

use bytes::Bytes;
use lifl_types::ObjectKey;
use std::fmt;
use std::sync::Arc;

/// How the payload of a [`SharedObject`] represents a model update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PayloadEncoding {
    /// Dense little-endian `f32` parameters (the seed representation).
    #[default]
    Dense,
    /// A compressed `EncodedUpdate` wire string (self-describing header +
    /// quantized/sparsified payload). `dense_bytes` records how large the
    /// same update would have been dense, so stores can report real savings.
    Encoded {
        /// Size of the equivalent dense representation in bytes.
        dense_bytes: u64,
    },
}

/// An immutable, reference-counted byte buffer living in the shared-memory
/// object store.
///
/// Cloning a [`SharedObject`] is cheap (an atomic reference-count bump); the
/// payload is never copied, which is exactly the zero-copy hand-off the
/// paper's data plane relies on.
#[derive(Clone)]
pub struct SharedObject {
    key: ObjectKey,
    data: Bytes,
    encoding: PayloadEncoding,
}

impl SharedObject {
    /// Wraps a dense `data` payload under `key`.
    pub fn new(key: ObjectKey, data: impl Into<Bytes>) -> Self {
        SharedObject {
            key,
            data: data.into(),
            encoding: PayloadEncoding::Dense,
        }
    }

    /// Wraps a compressed wire payload under `key`, remembering the size the
    /// dense representation would have had.
    pub fn new_encoded(key: ObjectKey, data: impl Into<Bytes>, dense_bytes: u64) -> Self {
        SharedObject {
            key,
            data: data.into(),
            encoding: PayloadEncoding::Encoded { dense_bytes },
        }
    }

    /// How the payload is represented.
    pub fn encoding(&self) -> PayloadEncoding {
        self.encoding
    }

    /// Bytes the payload would occupy dense (`len()` for dense objects).
    pub fn dense_len(&self) -> u64 {
        match self.encoding {
            PayloadEncoding::Dense => self.data.len() as u64,
            PayloadEncoding::Encoded { dense_bytes } => dense_bytes,
        }
    }

    /// The key addressing this object.
    pub fn key(&self) -> ObjectKey {
        self.key
    }

    /// The payload as a byte slice (no copy).
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A cheap handle to the underlying bytes.
    pub fn bytes(&self) -> Bytes {
        self.data.clone()
    }

    /// Interprets the payload as little-endian `f32` model parameters.
    ///
    /// Trailing bytes that do not form a whole `f32` are ignored.
    pub fn as_f32_vec(&self) -> Vec<f32> {
        self.data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Encodes `values` as a little-endian `f32` payload (a copy; an owner
    /// of the vector can have it viewed in place instead, see
    /// `lifl_fl::kernels::DenseLe`).
    pub fn encode_f32(values: &[f32]) -> Vec<u8> {
        // Fixed-width chunk stores over a zeroed buffer compile to a
        // vectorised copy; pushing four bytes at a time does not.
        let mut out = vec![0u8; values.len() * 4];
        for (chunk, v) in out.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        out
    }
}

impl fmt::Debug for SharedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedObject")
            .field("key", &self.key)
            .field("len", &self.data.len())
            .field("encoding", &self.encoding)
            .finish()
    }
}

/// A cheap, cloneable handle used when only the identity and size of an object
/// are required (for example in the simulator, where payloads are not
/// materialised).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectHandle {
    /// The key of the object.
    pub key: ObjectKey,
    /// Size of the payload in bytes.
    pub size_bytes: u64,
}

impl From<&SharedObject> for ObjectHandle {
    fn from(obj: &SharedObject) -> Self {
        ObjectHandle {
            key: obj.key(),
            size_bytes: obj.len() as u64,
        }
    }
}

/// Counts the number of strong references to the payload of `obj`, exposed for
/// tests asserting zero-copy behaviour.
pub fn payload_is_shared(a: &SharedObject, b: &SharedObject) -> bool {
    // Bytes does not expose its refcount; compare data pointers instead.
    a.data.as_ptr() == b.data.as_ptr() && a.data.len() == b.data.len()
}

/// Helper alias used by the store.
pub(crate) type ArcObject = Arc<SharedObject>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let values = vec![1.0f32, -2.5, 3.75];
        let encoded = SharedObject::encode_f32(&values);
        let obj = SharedObject::new(ObjectKey::from_words(1, 1), encoded);
        assert_eq!(obj.as_f32_vec(), values);
        assert_eq!(obj.len(), 12);
        assert!(!obj.is_empty());
    }

    #[test]
    fn clones_share_payload() {
        let obj = SharedObject::new(ObjectKey::from_words(0, 1), vec![9u8; 1024]);
        let copy = obj.clone();
        assert!(payload_is_shared(&obj, &copy));
        assert_eq!(copy.key(), obj.key());
    }

    #[test]
    fn handle_captures_size() {
        let obj = SharedObject::new(ObjectKey::from_words(0, 2), vec![0u8; 77]);
        let handle = ObjectHandle::from(&obj);
        assert_eq!(handle.size_bytes, 77);
        assert_eq!(handle.key, obj.key());
    }

    #[test]
    fn trailing_bytes_ignored() {
        let obj = SharedObject::new(ObjectKey::from_words(0, 3), vec![0u8; 7]);
        assert_eq!(obj.as_f32_vec().len(), 1);
    }

    #[test]
    fn encoded_objects_remember_dense_size() {
        let obj = SharedObject::new_encoded(ObjectKey::from_words(0, 4), vec![0u8; 26], 80);
        assert_eq!(obj.len(), 26);
        assert_eq!(obj.dense_len(), 80);
        assert_eq!(obj.encoding(), PayloadEncoding::Encoded { dense_bytes: 80 });
        let dense = SharedObject::new(ObjectKey::from_words(0, 5), vec![0u8; 12]);
        assert_eq!(dense.dense_len(), 12);
        assert_eq!(dense.encoding(), PayloadEncoding::Dense);
    }
}
