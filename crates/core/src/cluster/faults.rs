//! Failure handling (§3): node kills a cluster round survives — the lost
//! slots are refilled on the restarted node and the retried drive re-ships
//! only the hops that never arrived — keep-alive heartbeats per node, and
//! checkpointed recovery of the global top.
//!
//! Every cluster keeps the per-round ledger: which nodes' hops already
//! reached the top, the slots a restarted node is owed, the clients that
//! must re-send, and the partial report of a round awaiting its retry. So a
//! drive takes one path with or without fault tolerance. Heartbeats,
//! checkpoint commits and kill injection exist only where
//! [`ClusterBuilder::fault_tolerance`](super::ClusterBuilder::fault_tolerance)
//! turned them on.

use super::{Cluster, ClusterHop, NodeRoundReport};
use crate::heartbeat::HeartbeatMonitor;
use crate::ingress;
use crate::recovery::{RecoveryManager, RecoveryOutcome};
use lifl_dataplane::TransferCost;
use lifl_fl::DenseModel;
use lifl_shmem::CheckpointStore;
use lifl_types::{ClientId, LiflError, NodeId, Result, SimDuration, SimTime};
use std::mem::{replace, take};

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
/// hosting the global top aggregator failed, plus the priced transfer that
/// ships the checkpointed model to the replacement runtime.
#[derive(Debug, Clone)]
pub struct TopRecovery {
    /// What was recovered and what was lost (see
    /// [`RecoveryManager::fail_and_recover`]).
    pub outcome: RecoveryOutcome,
    /// The modelled cost of shipping the checkpointed model from the
    /// persistent store to the replacement top host (a network transfer).
    pub transfer: TransferCost,
}

/// Running totals of the failures a fault-tolerant cluster absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Child-node kills handled by discarding the node's subtree round and
    /// refilling its lost slots (restart-and-redrive).
    pub node_restarts: u64,
    /// Global-top kills handled by restoring the latest checkpoint.
    pub top_recoveries: u64,
    /// Survivor hops *not* re-shipped on a retried drive because their
    /// intermediates were already folded into the global top
    /// (retry-with-dedup on the `Update::RemoteBytes` hop).
    pub deduped_hops: u64,
    /// Client updates lost to failures (each must be re-sent by its client).
    pub lost_updates: u64,
}

/// What one injected or detected node kill cost the in-flight round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKill {
    /// The killed node.
    pub node: NodeId,
    /// Updates that were pending on the node (for a top-host kill: in the
    /// whole round) and are lost.
    pub lost_updates: u64,
    /// Whether the killed node hosted the global top — in which case the
    /// whole round is lost and recovery restores the latest checkpoint
    /// (see [`Cluster::take_recovery`]).
    pub top_host: bool,
}

/// A cluster's fault state: the per-round ledger every cluster keeps, the
/// lifetime totals, and the machinery fault tolerance turns on.
#[derive(Debug)]
pub(super) struct Faults {
    /// Per node: this round's intermediate already reached the global top,
    /// so a retried drive skips (dedups) its hop.
    shipped: Vec<bool>,
    /// Per node: lost update slots a restarted node is still owed (re-sent
    /// updates route there before round-robin resumes).
    refill: Vec<u64>,
    /// Clients whose updates were lost to kills and must re-send.
    lost_clients: Vec<ClientId>,
    /// The hops and node reports the round's attempts have shipped so far.
    hops: Vec<ClusterHop>,
    nodes: Vec<NodeRoundReport>,
    /// True once an attempt of the round placed the top, so a retry never
    /// re-places (or double-observes load into the EWMAs) mid-round.
    placed: bool,
    /// A pending [`Cluster::schedule_node_failure`]: the victim is killed
    /// inside the next drive once this many hops of the round are done.
    scheduled: Option<(usize, u64)>,
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
            shipped: vec![false; nodes],
            refill: vec![0; nodes],
            lost_clients: Vec::new(),
            hops: Vec::new(),
            nodes: Vec::new(),
            placed: false,
            scheduled: None,
            stats: FaultStats::default(),
            tolerance: tolerance.transpose()?,
        })
    }

    /// The node owed an update by a kill, if any: where the next admitted
    /// update routes, ahead of every other rule.
    pub(super) fn refill_node(&self) -> Option<usize> {
        self.refill.iter().position(|&owed| owed > 0)
    }

    /// Books an update admitted on `node`: it pays back one slot the node is
    /// owed, if any.
    pub(super) fn admitted(&mut self, node: usize) {
        self.refill[node] = self.refill[node].saturating_sub(1);
    }

    /// [`LiflError::NodeFailure`] while a restarted node is owed updates:
    /// the round cannot close until the lost clients re-sent them.
    pub(super) fn check_refilled(&self) -> Result<()> {
        match self.refill_node() {
            Some(node) => Err(LiflError::NodeFailure {
                node: node as u64,
                lost_updates: self.refill[node],
            }),
            None => Ok(()),
        }
    }

    /// Whether this drive attempt is the round's first — the one that
    /// places the top; a retry resumes the round where the kill left it.
    pub(super) fn first_attempt(&mut self) -> bool {
        !replace(&mut self.placed, true)
    }

    /// Plans a drive attempt exactly as a node-at-a-time walk would take
    /// it: every node passed in order as `(node, ships)` — `false` for a hop
    /// an earlier attempt already shipped (dedup) — up to the victim of a
    /// scheduled kill, which strikes once as many hops are done (earlier
    /// attempts' and this plan's) and is returned, unscheduled. `has_hop`
    /// says per node whether its subtree has anything to export; the kill
    /// is checked first, so an empty node at the kill point fires.
    pub(super) fn plan(
        &mut self,
        has_hop: impl Iterator<Item = bool>,
    ) -> (Vec<(usize, bool)>, Option<usize>) {
        let mut hopped = self.shipped.iter().filter(|&&shipped| shipped).count() as u64;
        let mut steps = Vec::with_capacity(self.shipped.len());
        for (k, has_hop) in has_hop.enumerate() {
            if self.shipped[k] {
                steps.push((k, false));
            } else if let Some((victim, _)) = self.scheduled.filter(|&(_, after)| hopped >= after) {
                self.scheduled = None;
                return (steps, Some(victim));
            } else if has_hop {
                steps.push((k, true));
                hopped += 1;
            }
        }
        (steps, None)
    }

    /// Counts a hop a retried drive did not re-ship.
    pub(super) fn deduped(&mut self) {
        self.stats.deduped_hops += 1;
    }

    /// Records node `k`'s hop as folded into the global top: from here on a
    /// kill of the node loses nothing of the round.
    pub(super) fn ship(&mut self, k: usize, hop: ClusterHop, node: NodeRoundReport) {
        self.shipped[k] = true;
        self.hops.push(hop);
        self.nodes.push(node);
        if let Some(t) = &mut self.tolerance {
            t.recovery.record_fold();
        }
    }

    /// Closes a completed round: checkpoints the committed `model` on the
    /// fault clock when fault tolerance is on, and hands back the round's
    /// hops and node reports, in node order.
    pub(super) fn commit(&mut self, model: &DenseModel) -> (Vec<ClusterHop>, Vec<NodeRoundReport>) {
        if let Some(t) = &mut self.tolerance {
            t.recovery.commit_version(model, t.clock);
        }
        let shipped = (take(&mut self.hops), take(&mut self.nodes));
        self.clear_round();
        shipped
    }

    /// Forgets everything scoped to the current round (a completed,
    /// discarded or top-lost round). Heartbeats, totals, the recovery
    /// manager and any pending [`TopRecovery`] persist.
    pub(super) fn clear_round(&mut self) {
        self.shipped.fill(false);
        self.refill.fill(0);
        self.lost_clients.clear();
        self.hops.clear();
        self.nodes.clear();
        self.placed = false;
        self.scheduled = None;
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

    /// Kills a node *now* (the fault-injection hook): its child session
    /// loses the in-flight round state, exactly as a crashed process would.
    ///
    /// For an ordinary node the cluster round survives: the lost slots are
    /// tracked for refill ([`Cluster::take_lost_clients`] says whose updates
    /// must be re-sent) and the next [`Cluster::drive`] fails with
    /// [`LiflError::NodeFailure`] until they are. A node whose intermediate
    /// already reached the global top this round loses nothing. Killing the
    /// top-hosting node loses the whole round and restores the latest
    /// checkpoint ([`Cluster::take_recovery`]).
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
    /// the mid-round fault-injection hook the fault test tier drives.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled or the node is outside the cluster.
    pub fn schedule_node_failure(&mut self, node: NodeId, after_hops: u64) -> Result<()> {
        self.tolerance(Some(node))?;
        self.faults.scheduled = Some((node.index() as usize, after_hops));
        Ok(())
    }

    /// Clients whose updates were lost to node kills and must be re-sent
    /// (each reported exactly once). Re-ingesting them refills the restarted
    /// node directly, leaving the survivors' leaf assignment untouched.
    pub fn take_lost_clients(&mut self) -> Vec<ClientId> {
        take(&mut self.faults.lost_clients)
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
            LiflError::NodeFailure { .. } | LiflError::AggregatorFailure { .. } => Ok(NodeKill {
                node: NodeId::new(node as u64),
                lost_updates,
                top_host,
            }),
            other => Err(other),
        }
    }

    /// The kill itself: discards what the dead process held and records what
    /// the round must get back. Returns the failure as an error value (the
    /// mid-drive path propagates it out of [`Cluster::drive`]).
    pub(super) fn kill_node(&mut self, node: usize) -> LiflError {
        if node == self.placement.top() {
            return self.kill_top(node);
        }
        // The crashed process takes its subtree's in-flight round with it;
        // the restarted (stateless) session starts from an empty round.
        let child = &mut self.children[node];
        let (lost, weight) = (child.pending_updates(), child.round_weight());
        let clients = child.round_clients();
        child.discard_round();
        self.ingress.forfeit(lost);
        self.ingress.release(weight);
        let f = &mut self.faults;
        f.refill[node] += lost;
        f.lost_clients.extend(clients.into_iter().flatten());
        f.stats.node_restarts += 1;
        f.stats.lost_updates += lost;
        if let Some(t) = &mut f.tolerance {
            // The restarted node resumes heartbeating.
            t.monitor.register(ClientId::new(node as u64), t.clock);
        }
        LiflError::NodeFailure {
            node: node as u64,
            lost_updates: lost,
        }
    }

    /// A kill of the node hosting the global top: the whole round is lost
    /// (its partially folded top state died with the process) and the
    /// replacement runtime restores the latest checkpoint, priced as a
    /// network transfer from the persistent store.
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
                let bytes = (outcome.recovered_model.as_ref()).map_or(0, |m| m.dim() as u64 * 4);
                let transfer = self.pricing.hop(false, bytes);
                t.last_recovery = Some(TopRecovery { outcome, transfer });
                t.monitor.register(ClientId::new(node as u64), t.clock);
                failure
            }
            Err(error) => error,
        }
    }
}
