//! The sockmap: a BPF map from aggregator IDs to registered socket interfaces
//! (`BPF_MAP_TYPE_SOCKMAP`), used for intra-node direct routing (§4.4, Fig. 12).

use crate::map::BpfMap;
use lifl_types::{AggregatorId, NodeId};

/// A reference to a registered socket interface.
///
/// On the paper's testbed this is a socket file descriptor; here it names the
/// endpoint the message should be steered to: either a local aggregator's
/// receive queue or the node's gateway (for traffic that must leave the node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketRef {
    /// The socket of a local aggregator.
    Aggregator(AggregatorId),
    /// The socket of the local per-node gateway (used to reach remote aggregators).
    Gateway(NodeId),
}

/// The per-node sockmap.
///
/// Fig. 12 of the paper: on node 1 the entries for local aggregators point at
/// their own sockets while entries for remote aggregators point at the local
/// gateway's socket.
#[derive(Debug, Clone)]
pub struct SockMap {
    node: NodeId,
    map: BpfMap<AggregatorId, SocketRef>,
}

impl SockMap {
    /// Creates an empty sockmap for `node` with room for `max_entries` sockets.
    pub fn new(node: NodeId, max_entries: usize) -> Self {
        SockMap {
            node,
            map: BpfMap::new(max_entries),
        }
    }

    /// Registers a local aggregator's socket.
    pub fn register_local(&self, agg: AggregatorId) -> bool {
        self.map.update_elem(agg, SocketRef::Aggregator(agg))
    }

    /// Registers a remote aggregator: messages for it are steered to the local gateway.
    pub fn register_remote(&self, agg: AggregatorId) -> bool {
        self.map.update_elem(agg, SocketRef::Gateway(self.node))
    }

    /// Looks up where a message destined for `agg` should be steered.
    pub fn steer(&self, agg: AggregatorId) -> Option<SocketRef> {
        self.map.lookup_elem(&agg)
    }

    /// Whether `agg` currently resolves to a local socket.
    pub fn is_local(&self, agg: AggregatorId) -> bool {
        matches!(self.steer(agg), Some(SocketRef::Aggregator(_)))
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the sockmap has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Clears all routes, as done when the hierarchy is torn down.
    pub fn clear(&self) {
        self.map.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_remote_steering() {
        let sockmap = SockMap::new(NodeId::new(1), 16);
        let local = AggregatorId::new(1);
        let remote = AggregatorId::new(2);
        sockmap.register_local(local);
        sockmap.register_remote(remote);
        assert_eq!(sockmap.steer(local), Some(SocketRef::Aggregator(local)));
        assert_eq!(
            sockmap.steer(remote),
            Some(SocketRef::Gateway(NodeId::new(1)))
        );
        assert!(sockmap.is_local(local));
        assert!(!sockmap.is_local(remote));
        assert_eq!(sockmap.steer(AggregatorId::new(99)), None);
    }
}
