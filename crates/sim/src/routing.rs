//! Direct routing for hierarchical aggregation (§4.4, Appendix A).
//!
//! Intra-node routes live in the per-node sockmap consulted by the SKMSG
//! program; inter-node routes live in the gateway's routing table
//! (`source aggregator → (destination aggregator, destination node)`). The
//! routing manager in the LIFL agent rebuilds both from the TAG every time the
//! hierarchy is re-planned.

use crate::tag::{ChannelKind, TopologyAbstractionGraph};
use lifl_ebpf::{SkMsgHook, SockMap};
use lifl_types::{AggregatorId, LiflError, NodeId, Result};
use std::collections::HashMap;

/// The per-node routing state: the sockmap (intra-node) plus the gateway's
/// inter-node table.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    node: NodeId,
    sockmap: SockMap,
    inter_node: HashMap<AggregatorId, (AggregatorId, NodeId)>,
}

/// Where the next hop of an update lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// The consumer is on the same node; delivery is a shared-memory key hand-off.
    Local(AggregatorId),
    /// The consumer is on another node; the gateway must transfer the payload.
    Remote {
        /// Destination aggregator.
        aggregator: AggregatorId,
        /// Node hosting the destination.
        node: NodeId,
    },
}

impl RoutingTable {
    /// Creates an empty routing table for `node`.
    pub fn new(node: NodeId) -> Self {
        RoutingTable {
            node,
            sockmap: SockMap::new(node, 0),
            inter_node: HashMap::new(),
        }
    }

    /// The node this table belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Rebuilds all routes relevant to this node from the TAG (online
    /// hierarchy update, Appendix A). Existing routes are cleared first.
    pub fn apply_tag(&mut self, tag: &TopologyAbstractionGraph) {
        self.sockmap.clear();
        self.inter_node.clear();
        for role in tag.roles() {
            if role.node == self.node {
                self.sockmap.register_local(role.aggregator);
            }
        }
        for channel in tag.channels() {
            let (Some(from_role), Some(to_role)) = (tag.role(channel.from), tag.role(channel.to))
            else {
                continue;
            };
            if from_role.node != self.node {
                continue;
            }
            match channel.kind {
                ChannelKind::SharedMemory => {
                    self.sockmap.register_local(channel.to);
                }
                ChannelKind::KernelNetwork => {
                    self.sockmap.register_remote(channel.to);
                    self.inter_node
                        .insert(channel.from, (channel.to, to_role.node));
                }
            }
        }
    }

    /// Resolves the next hop for an update produced by `source` destined to `destination`.
    ///
    /// # Errors
    /// Returns [`LiflError::RouteNotFound`] when neither the sockmap nor the
    /// inter-node table knows the destination.
    pub fn next_hop(&self, source: AggregatorId, destination: AggregatorId) -> Result<NextHop> {
        if self.sockmap.is_local(destination) {
            return Ok(NextHop::Local(destination));
        }
        if let Some(&(agg, node)) = self.inter_node.get(&source) {
            if agg == destination {
                return Ok(NextHop::Remote {
                    aggregator: agg,
                    node,
                });
            }
        }
        Err(LiflError::RouteNotFound(destination))
    }

    /// The SKMSG hook backed by this node's sockmap (used by sidecars).
    pub fn skmsg_hook(&self) -> SkMsgHook {
        SkMsgHook::attach(self.sockmap.clone())
    }

    /// Number of local (sockmap) entries.
    pub fn local_routes(&self) -> usize {
        self.sockmap.len()
    }

    /// Number of inter-node entries in the gateway table.
    pub fn inter_node_routes(&self) -> usize {
        self.inter_node.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Role;
    use lifl_types::AggregatorRole;

    fn tag_two_nodes() -> TopologyAbstractionGraph {
        let mut tag = TopologyAbstractionGraph::new();
        for (agg, node, role) in [
            (1, 0, AggregatorRole::Leaf),
            (2, 0, AggregatorRole::Middle),
            (3, 1, AggregatorRole::Top),
        ] {
            tag.add_role(Role {
                aggregator: AggregatorId::new(agg),
                role,
                node: NodeId::new(node),
                group: format!("node-{node}"),
            });
        }
        tag.connect(AggregatorId::new(1), AggregatorId::new(2));
        tag.connect(AggregatorId::new(2), AggregatorId::new(3));
        tag
    }

    #[test]
    fn routes_follow_tag() {
        let tag = tag_two_nodes();
        let mut table = RoutingTable::new(NodeId::new(0));
        table.apply_tag(&tag);
        assert_eq!(
            table
                .next_hop(AggregatorId::new(1), AggregatorId::new(2))
                .unwrap(),
            NextHop::Local(AggregatorId::new(2))
        );
        assert_eq!(
            table
                .next_hop(AggregatorId::new(2), AggregatorId::new(3))
                .unwrap(),
            NextHop::Remote {
                aggregator: AggregatorId::new(3),
                node: NodeId::new(1)
            }
        );
        assert!(table
            .next_hop(AggregatorId::new(1), AggregatorId::new(9))
            .is_err());
        assert_eq!(table.node(), NodeId::new(0));
        assert!(table.local_routes() >= 2);
        assert_eq!(table.inter_node_routes(), 1);
    }

    #[test]
    fn reapplying_tag_replaces_routes() {
        let tag = tag_two_nodes();
        let mut table = RoutingTable::new(NodeId::new(0));
        table.apply_tag(&tag);
        let before = table.local_routes();
        // A new, smaller hierarchy.
        let mut tag2 = TopologyAbstractionGraph::new();
        tag2.add_role(Role {
            aggregator: AggregatorId::new(7),
            role: AggregatorRole::Top,
            node: NodeId::new(0),
            group: "node-0".to_string(),
        });
        table.apply_tag(&tag2);
        assert!(table.local_routes() < before);
        assert_eq!(table.inter_node_routes(), 0);
        assert!(table
            .next_hop(AggregatorId::new(1), AggregatorId::new(2))
            .is_err());
    }

    #[test]
    fn skmsg_hook_sees_local_routes() {
        let tag = tag_two_nodes();
        let mut table = RoutingTable::new(NodeId::new(0));
        table.apply_tag(&tag);
        let hook = table.skmsg_hook();
        assert!(hook.sockmap().is_local(AggregatorId::new(2)));
    }
}
