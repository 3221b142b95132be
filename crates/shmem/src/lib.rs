//! # lifl-shmem
//!
//! The shared-memory object store that backs LIFL's intra-node zero-copy data
//! plane (§4.1) and in-place message queuing (§4.2).
//!
//! * Objects are **immutable** byte buffers addressed by a 16-byte
//!   [`ObjectKey`](lifl_types::ObjectKey); immutability removes the need for
//!   locks when multiple aggregators read the same model update (paper §4.1).
//! * The store accounts for capacity, supports explicit recycling and exposes
//!   the counters the experiments need (allocated bytes, peak bytes, object
//!   count).
//! * [`queue::InPlaceQueue`] implements the gateway's in-place message queue:
//!   a FIFO of object keys, so enqueueing a 232 MB ResNet-152 update costs a
//!   16-byte key push instead of a copy.
//! * [`checkpoint::CheckpointStore`] emulates the external persistent storage
//!   service the LIFL agent checkpoints global models to (Appendix B).
//! * [`pool::BufferPool`] keeps model-sized scratch buffers alive between
//!   uses so the codec/fold hot path runs at zero steady-state heap growth;
//!   a [`pool::PooledBuf`] moved into the store returns to its pool when the
//!   object is recycled.
//!
//! ```
//! use lifl_shmem::ObjectStore;
//!
//! # fn main() -> lifl_types::Result<()> {
//! let store = ObjectStore::with_capacity(1024);
//! let key = store.put(vec![1u8, 2, 3])?;
//! let obj = store.get(&key)?;
//! assert_eq!(obj.as_slice(), &[1, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backlog;
pub mod checkpoint;
pub mod object;
pub mod pool;
pub mod queue;
pub mod store;

pub use backlog::PooledBacklog;
pub use checkpoint::CheckpointStore;
pub use object::SharedObject;
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use queue::InPlaceQueue;
pub use store::{ObjectStore, StoreStats};
