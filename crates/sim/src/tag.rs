//! The Topology Abstraction Graph (TAG, Appendix D): the control plane's
//! description of aggregator-to-aggregator and aggregator-to-client
//! connectivity, with role metadata and channel metadata (including the
//! `groupBy` placement-affinity label used for locality-aware placement).

use lifl_types::{AggregatorId, AggregatorRole, NodeId};
use std::collections::HashMap;

/// A role (vertex) in the TAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Role {
    /// The aggregator playing this role.
    pub aggregator: AggregatorId,
    /// Its level in the hierarchy.
    pub role: AggregatorRole,
    /// The node the role is placed on.
    pub node: NodeId,
    /// The placement-affinity group label (`groupBy` attribute).
    pub group: String,
}

/// The communication mechanism of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Intra-node shared memory.
    SharedMemory,
    /// Inter-node kernel networking through the gateways.
    KernelNetwork,
}

/// A channel (edge) in the TAG: a cross-level data dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// The producing (lower-level) aggregator.
    pub from: AggregatorId,
    /// The consuming (higher-level) aggregator.
    pub to: AggregatorId,
    /// Communication mechanism.
    pub kind: ChannelKind,
}

/// The topology abstraction graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyAbstractionGraph {
    roles: HashMap<AggregatorId, Role>,
    channels: Vec<Channel>,
}

impl TopologyAbstractionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a role. Re-adding an aggregator replaces its previous role.
    pub fn add_role(&mut self, role: Role) {
        self.roles.insert(role.aggregator, role);
    }

    /// Adds a channel from `from` to `to`, deriving the channel kind from the
    /// placement of the two roles (same node → shared memory).
    ///
    /// Returns `None` (and adds nothing) when either endpoint is unknown.
    pub fn connect(&mut self, from: AggregatorId, to: AggregatorId) -> Option<ChannelKind> {
        let from_node = self.roles.get(&from)?.node;
        let to_node = self.roles.get(&to)?.node;
        let kind = if from_node == to_node {
            ChannelKind::SharedMemory
        } else {
            ChannelKind::KernelNetwork
        };
        self.channels.push(Channel { from, to, kind });
        Some(kind)
    }

    /// The role of an aggregator, if registered.
    pub fn role(&self, aggregator: AggregatorId) -> Option<&Role> {
        self.roles.get(&aggregator)
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// All roles.
    pub fn roles(&self) -> impl Iterator<Item = &Role> {
        self.roles.values()
    }

    /// Number of channels that cross node boundaries.
    pub fn inter_node_channels(&self) -> usize {
        self.channels
            .iter()
            .filter(|c| c.kind == ChannelKind::KernelNetwork)
            .count()
    }

    /// The downstream consumer of an aggregator, if connected.
    pub fn consumer_of(&self, aggregator: AggregatorId) -> Option<AggregatorId> {
        self.channels
            .iter()
            .find(|c| c.from == aggregator)
            .map(|c| c.to)
    }

    /// Aggregators grouped by their `groupBy` label.
    pub fn groups(&self) -> HashMap<String, Vec<AggregatorId>> {
        let mut groups: HashMap<String, Vec<AggregatorId>> = HashMap::new();
        for role in self.roles.values() {
            groups
                .entry(role.group.clone())
                .or_default()
                .push(role.aggregator);
        }
        for members in groups.values_mut() {
            members.sort();
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(agg: u64, node: u64, level: AggregatorRole) -> Role {
        Role {
            aggregator: AggregatorId::new(agg),
            role: level,
            node: NodeId::new(node),
            group: format!("node-{node}"),
        }
    }

    #[test]
    fn channel_kind_follows_placement() {
        let mut tag = TopologyAbstractionGraph::new();
        tag.add_role(role(1, 0, AggregatorRole::Leaf));
        tag.add_role(role(2, 0, AggregatorRole::Middle));
        tag.add_role(role(3, 1, AggregatorRole::Top));
        assert_eq!(
            tag.connect(AggregatorId::new(1), AggregatorId::new(2)),
            Some(ChannelKind::SharedMemory)
        );
        assert_eq!(
            tag.connect(AggregatorId::new(2), AggregatorId::new(3)),
            Some(ChannelKind::KernelNetwork)
        );
        assert_eq!(tag.inter_node_channels(), 1);
        assert_eq!(
            tag.consumer_of(AggregatorId::new(1)),
            Some(AggregatorId::new(2))
        );
        assert_eq!(tag.consumer_of(AggregatorId::new(3)), None);
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut tag = TopologyAbstractionGraph::new();
        tag.add_role(role(1, 0, AggregatorRole::Leaf));
        assert_eq!(
            tag.connect(AggregatorId::new(1), AggregatorId::new(9)),
            None
        );
        assert!(tag.channels().is_empty());
    }

    #[test]
    fn groups_cluster_by_label() {
        let mut tag = TopologyAbstractionGraph::new();
        tag.add_role(role(1, 0, AggregatorRole::Leaf));
        tag.add_role(role(2, 0, AggregatorRole::Leaf));
        tag.add_role(role(3, 1, AggregatorRole::Leaf));
        let groups = tag.groups();
        assert_eq!(
            groups["node-0"],
            vec![AggregatorId::new(1), AggregatorId::new(2)]
        );
        assert_eq!(groups["node-1"], vec![AggregatorId::new(3)]);
        assert_eq!(tag.roles().count(), 3);
        assert!(tag.role(AggregatorId::new(2)).is_some());
    }
}
