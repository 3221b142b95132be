//! Strongly-typed identifiers used throughout the platform.
//!
//! Every entity that the control plane reasons about (worker nodes,
//! aggregators, clients, rounds, shared-memory objects)
//! has its own newtype identifier so that, for example, a [`ClientId`] can
//! never be accidentally used where a [`NodeId`] is expected
//! (paper §5, Appendix A).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! index_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw index.
            pub fn new(index: u64) -> Self {
                Self(index)
            }

            /// Returns the raw index backing this identifier.
            pub fn index(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

index_id!(
    /// Identifier of a worker node in the cluster.
    NodeId,
    "node"
);
index_id!(
    /// Identifier of a logical aggregator (a role in the aggregation hierarchy).
    AggregatorId,
    "agg"
);
index_id!(
    /// Identifier of an FL client (trainer).
    ClientId,
    "client"
);
index_id!(
    /// Identifier of a global-model round.
    RoundId,
    "round"
);

/// Key addressing an immutable object in the shared-memory object store.
///
/// The paper's object store addresses objects with a 16-byte random string
/// generated by the shared-memory manager (Appendix A). We reproduce that
/// format exactly: an [`ObjectKey`] is always 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectKey([u8; 16]);

impl ObjectKey {
    /// Creates a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Self(bytes)
    }

    /// Creates a key from a pair of 64-bit words (useful for deterministic tests).
    pub fn from_words(hi: u64, lo: u64) -> Self {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&hi.to_be_bytes());
        b[8..].copy_from_slice(&lo.to_be_bytes());
        Self(b)
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectKey(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(NodeId::from(42u64), id);
        assert_eq!(id.to_string(), "node-42");
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we only check display prefixes differ.
        assert_ne!(NodeId::new(1).to_string(), ClientId::new(1).to_string());
        assert_ne!(
            AggregatorId::new(1).to_string(),
            RoundId::new(1).to_string()
        );
    }

    #[test]
    fn object_key_words_roundtrip() {
        let key = ObjectKey::from_words(0xDEAD_BEEF, 0x1234_5678);
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&0xDEAD_BEEFu64.to_be_bytes());
        bytes[8..].copy_from_slice(&0x1234_5678u64.to_be_bytes());
        assert_eq!(key, ObjectKey::from_bytes(bytes));
    }

    #[test]
    fn object_key_display_is_hex() {
        let key = ObjectKey::from_bytes([0xAB; 16]);
        assert_eq!(key.to_string(), "ab".repeat(16));
        assert!(format!("{key:?}").starts_with("ObjectKey("));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(AggregatorId::new(1) < AggregatorId::new(2));
        assert!(RoundId::new(9) > RoundId::new(3));
    }
}
