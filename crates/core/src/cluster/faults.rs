//! Failure handling (§3): node kills a cluster round survives, keep-alive
//! heartbeats per node, and checkpointed recovery of the global top.
//!
//! An aggregator is a stateless runtime over its node's shared-memory store,
//! so a kill takes a node's runtime state, never the bytes its store holds:
//! the restarted node re-delivers its open round from the stored keys
//! (`Session::restart`), and a kill inside a drive only makes that drive
//! re-plan, shipping the hops that never arrived. Nothing is re-sent by a
//! client. Heartbeats, checkpoint commits and kill injection exist only
//! where [`ClusterBuilder::fault_tolerance`](super::ClusterBuilder::fault_tolerance)
//! turned them on; without them nothing can kill a node.

use super::Cluster;
use crate::heartbeat::HeartbeatMonitor;
use crate::ingress;
use crate::recovery::{RecoveryManager, RecoveryOutcome};
use lifl_fl::DenseModel;
use lifl_shmem::CheckpointStore;
use lifl_types::{ClientId, LiflError, NodeId, Result, SimDuration, SimTime};
use std::collections::VecDeque;

/// Configuration of a cluster's failure-handling machinery (§3): keep-alive
/// heartbeats per node, periodic checkpointing of committed global models,
/// and the restart delay a replacement runtime needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Checkpoint the committed global model every this many driven rounds
    /// (see [`RecoveryManager::new`]). Must be at least 1.
    pub checkpoint_every: u64,
    /// Time a replacement aggregator runtime needs to come up after a
    /// failure.
    pub restart_delay: SimDuration,
    /// A node whose last keep-alive heartbeat is older than this is declared
    /// failed by [`Cluster::detect_failed_nodes`].
    pub heartbeat_timeout: SimDuration,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            checkpoint_every: 1,
            restart_delay: SimDuration::from_secs(1.0),
            heartbeat_timeout: SimDuration::from_secs(30.0),
        }
    }
}

/// A global-top recovery: the checkpoint restore performed after the node
/// hosting the global top aggregator failed.
#[derive(Debug, Clone)]
pub struct TopRecovery {
    /// What was recovered and what was lost (see
    /// [`RecoveryManager::fail_and_recover`]).
    pub outcome: RecoveryOutcome,
}

/// Running totals of the failures a fault-tolerant cluster absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Child-node kills handled by restarting the node's runtime, which
    /// re-delivers its open round from the stored keys.
    pub node_restarts: u64,
    /// Global-top kills handled by restoring the latest checkpoint.
    pub top_recoveries: u64,
    /// Survivor hops *not* re-shipped when a drive re-planned after a kill,
    /// because their intermediates were already folded into the global top
    /// (dedup on the `Update::RemoteBytes` hop).
    pub deduped_hops: u64,
    /// Client updates the killed runtimes held: re-delivered from the
    /// node's store after a child kill, lost with the round after a top
    /// kill.
    pub lost_updates: u64,
}

/// What one injected or detected node kill cost the in-flight round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKill {
    /// The killed node.
    pub node: NodeId,
    /// Updates of the open round the node's runtime held: re-delivered from
    /// the node's store by its restart — for a top-host kill, the whole
    /// round's, which are lost.
    pub lost_updates: u64,
    /// Whether the killed node hosted the global top — in which case the
    /// whole round is lost and recovery restores the latest checkpoint
    /// (see [`Cluster::take_recovery`]).
    pub top_host: bool,
}

/// A cluster's fault state: the kills scheduled into the round, the lifetime
/// totals, and the machinery fault tolerance turns on.
#[derive(Debug)]
pub(super) struct Faults {
    /// The pending [`Cluster::schedule_node_failure`]s, in schedule order:
    /// each victim is killed inside the round's drive once this many of its
    /// hops are done.
    scheduled: VecDeque<(usize, u64)>,
    stats: FaultStats,
    /// Heartbeats and checkpointed recovery, when enabled.
    tolerance: Option<Tolerance>,
}

/// The §3 machinery behind `ClusterBuilder::fault_tolerance`.
#[derive(Debug)]
struct Tolerance {
    recovery: RecoveryManager,
    monitor: HeartbeatMonitor,
    /// The fault clock checkpoints and recoveries are stamped with.
    clock: SimTime,
    last_recovery: Option<TopRecovery>,
}

impl Tolerance {
    fn advance(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }
}

impl Faults {
    /// The fault state of a cluster of `nodes` nodes, with the machinery
    /// `config` asks for.
    ///
    /// # Errors
    /// [`LiflError::InvalidConfig`] for a zero checkpoint period.
    pub(super) fn new(config: Option<FaultToleranceConfig>, nodes: usize) -> Result<Faults> {
        let tolerance = config.map(|config| -> Result<Tolerance> {
            let mut monitor = HeartbeatMonitor::new(config.heartbeat_timeout);
            for node in 0..nodes {
                monitor.register(ClientId::new(node as u64), SimTime::ZERO);
            }
            Ok(Tolerance {
                recovery: RecoveryManager::new(config.checkpoint_every, config.restart_delay)?,
                monitor,
                clock: SimTime::ZERO,
                last_recovery: None,
            })
        });
        Ok(Faults {
            scheduled: VecDeque::new(),
            stats: FaultStats::default(),
            tolerance: tolerance.transpose()?,
        })
    }

    /// Plans one pass of a drive exactly as a node-at-a-time walk would take
    /// it: every node passed in order as `(node, ships)` — `false` for a hop
    /// an earlier pass of the drive already `shipped` (dedup) — up to the
    /// victim of the first scheduled kill, which strikes once as many hops
    /// are done (earlier passes' and this one's) and is returned,
    /// unscheduled. `has_hop` says per node whether its subtree has anything
    /// to export; the kill is checked first, so an empty node at the kill
    /// point fires.
    pub(super) fn plan(
        &mut self,
        shipped: &[bool],
        has_hop: impl Iterator<Item = bool>,
    ) -> (Vec<(usize, bool)>, Option<usize>) {
        let mut hopped = shipped.iter().filter(|&&shipped| shipped).count() as u64;
        let mut steps = Vec::with_capacity(shipped.len());
        for (k, has_hop) in has_hop.enumerate() {
            if shipped[k] {
                steps.push((k, false));
            } else if let Some(&(victim, _)) =
                (self.scheduled.front()).filter(|&&(_, after)| hopped >= after)
            {
                self.scheduled.pop_front();
                return (steps, Some(victim));
            } else if has_hop {
                steps.push((k, true));
                hopped += 1;
            }
        }
        (steps, None)
    }

    /// Counts a hop a re-planned drive did not re-ship.
    pub(super) fn deduped(&mut self) {
        self.stats.deduped_hops += 1;
    }

    /// Records a node's hop as folded into the global top: from here on a
    /// kill of the node takes nothing of the round.
    pub(super) fn folded(&mut self) {
        if let Some(t) = &mut self.tolerance {
            t.recovery.record_fold();
        }
    }

    /// Closes a completed round: checkpoints the committed `model` on the
    /// fault clock when fault tolerance is on.
    pub(super) fn commit(&mut self, model: &DenseModel) {
        if let Some(t) = &mut self.tolerance {
            t.recovery.commit_version(model, t.clock);
        }
        self.clear_round();
    }

    /// Forgets the kills scheduled into the current round (a completed,
    /// discarded or top-lost one). Heartbeats, totals, the recovery manager
    /// and any pending [`TopRecovery`] persist.
    pub(super) fn clear_round(&mut self) {
        self.scheduled.clear();
    }
}

impl Cluster {
    /// The checkpoint store the cluster's recovery manager commits global
    /// models to, when fault tolerance is enabled.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        (self.faults.tolerance.as_ref()).map(|t| t.recovery.store())
    }

    /// Running failure-handling totals, when fault tolerance is enabled.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        (self.faults.tolerance.as_ref()).map(|_| self.faults.stats)
    }

    /// Advances the cluster's fault clock (used to timestamp checkpoints and
    /// recoveries). Heartbeats and failure detection advance it implicitly.
    // lifl-lint: allow(dead-pub) — the §3 fault clock is an input a
    // deployment's agent drives; the fault tiers inject kills instead.
    pub fn set_time(&mut self, now: SimTime) {
        if let Some(t) = &mut self.faults.tolerance {
            t.advance(now);
        }
    }

    /// Records a keep-alive heartbeat from a node's LIFL agent.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster.
    // lifl-lint: allow(dead-pub) — the §3 keep-alive input a deployment's
    // agent drives; the fault tiers inject kills instead.
    pub fn node_heartbeat(&mut self, node: NodeId, now: SimTime) -> Result<()> {
        let t = self.tolerance(Some(node))?;
        t.advance(now);
        t.monitor.heartbeat(ClientId::new(node.index()), now);
        Ok(())
    }

    /// Declares failed — and kills, exactly like
    /// [`Cluster::inject_node_failure`] — every node whose last heartbeat is
    /// older than the configured timeout at `now`, returning the kills in
    /// node order. Each overdue node is reported (and killed) exactly once;
    /// restarted nodes resume heartbeating from `now`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled, or a checkpoint-restore error when a top-host kill finds a
    /// corrupt checkpoint. The overdue nodes after that one are not lost:
    /// the next call reports them.
    // lifl-lint: allow(dead-pub) — the §3 keep-alive failure detector a
    // deployment's agent polls; the fault tiers inject kills instead.
    pub fn detect_failed_nodes(&mut self, now: SimTime) -> Result<Vec<NodeKill>> {
        let t = self.tolerance(None)?;
        t.advance(now);
        let overdue = t.monitor.failed_clients(now);
        let mut kills = Vec::with_capacity(overdue.len());
        for node in overdue {
            // Evicted one at a time: a node behind a kill that fails stays
            // overdue.
            self.tolerance(None)?.monitor.complete(node);
            kills.push(self.kill_checked(node.index() as usize)?);
        }
        Ok(kills)
    }

    /// Kills a node *now* (the fault-injection hook): its aggregator
    /// runtimes lose whatever they held, exactly as a crashed process would,
    /// while the node's store keeps every update it was handed.
    ///
    /// For an ordinary node the cluster round survives untouched: the node
    /// restarts at once and re-delivers its open round from the stored keys,
    /// each update to the leaf it was routed to, in arrival order — nothing
    /// is re-sent, re-normalised or re-encoded, later offers route as if no
    /// kill had happened, and the next [`Cluster::drive`] is bit-exact with
    /// an undisturbed round. Killing the top-hosting node loses the whole
    /// round and restores the latest checkpoint ([`Cluster::take_recovery`]).
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster, and a checkpoint-restore
    /// error when a top-host kill finds a corrupt checkpoint.
    pub fn inject_node_failure(&mut self, node: NodeId) -> Result<NodeKill> {
        self.tolerance(Some(node))?;
        self.kill_checked(node.index() as usize)
    }

    /// Schedules a node kill that fires *inside* the next drive, once
    /// `after_hops` gateway-to-gateway hops of the round have completed —
    /// the mid-round fault-injection hook the fault test tier drives. Kills
    /// scheduled into one round fire in schedule order; one that has not
    /// fired when the round ends is dropped.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster.
    pub fn schedule_node_failure(&mut self, node: NodeId, after_hops: u64) -> Result<()> {
        self.tolerance(Some(node))?;
        self.faults
            .scheduled
            .push_back((node.index() as usize, after_hops));
        Ok(())
    }

    /// The checkpoint restore performed for the most recent top-host kill,
    /// if one happened since the last take.
    pub fn take_recovery(&mut self) -> Option<TopRecovery> {
        (self.faults.tolerance.as_mut()).and_then(|t| t.last_recovery.take())
    }

    /// The failure-handling machinery, once `node` (when given) is checked
    /// to lie inside the cluster.
    fn tolerance(&mut self, node: Option<NodeId>) -> Result<&mut Tolerance> {
        let nodes = self.children.len();
        let Some(t) = self.faults.tolerance.as_mut() else {
            return Err(LiflError::InvalidConfig(
                "fault tolerance is not enabled on this cluster \
                 (see ClusterBuilder::fault_tolerance)"
                    .to_string(),
            ));
        };
        match node {
            Some(node) if node.index() as usize >= nodes => Err(LiflError::InvalidConfig(format!(
                "node {node:?} outside the cluster's {nodes} nodes"
            ))),
            _ => Ok(t),
        }
    }

    /// Kills `node` (bounds already checked), translating the resulting
    /// error into the [`NodeKill`] report the injection APIs return.
    fn kill_checked(&mut self, node: usize) -> Result<NodeKill> {
        // What was offered before the kill has landed when it strikes.
        ingress::settle(self);
        let top_host = node == self.placement.top();
        let lost_updates = if top_host {
            self.ingress.ingested()
        } else {
            self.children[node].pending_updates()
        };
        match self.kill_node(node) {
            Ok(()) | Err(LiflError::AggregatorFailure { .. }) => Ok(NodeKill {
                node: NodeId::new(node as u64),
                lost_updates,
                top_host,
            }),
            Err(other) => Err(other),
        }
    }

    /// The kill itself: a child node restarts and re-delivers its open round
    /// from the stored keys (`Ok`); a kill of the top host loses the round
    /// and fails with [`LiflError::AggregatorFailure`] — or the checkpoint
    /// restore's error — which the mid-drive path propagates out of
    /// [`Cluster::drive`].
    pub(super) fn kill_node(&mut self, node: usize) -> Result<()> {
        if node == self.placement.top() {
            return Err(self.kill_top(node));
        }
        let child = &mut self.children[node];
        let redelivered = child.pending_updates();
        child.restart();
        let f = &mut self.faults;
        f.stats.node_restarts += 1;
        f.stats.lost_updates += redelivered;
        if let Some(t) = &mut f.tolerance {
            // The restarted node resumes heartbeating.
            t.monitor.register(ClientId::new(node as u64), t.clock);
        }
        Ok(())
    }

    /// A kill of the node hosting the global top: the whole round is lost
    /// (its partially folded top state died with the process) and the
    /// replacement runtime restores the latest checkpoint.
    fn kill_top(&mut self, node: usize) -> LiflError {
        let lost = self.ingress.ingested();
        self.abort_round();
        let f = &mut self.faults;
        f.stats.top_recoveries += 1;
        f.stats.lost_updates += lost;
        let failure = LiflError::AggregatorFailure { node: node as u64 };
        let Some(t) = &mut f.tolerance else {
            return failure;
        };
        match t.recovery.fail_and_recover(t.clock) {
            Ok(outcome) => {
                t.last_recovery = Some(TopRecovery { outcome });
                t.monitor.register(ClientId::new(node as u64), t.clock);
                failure
            }
            Err(error) => error,
        }
    }
}
