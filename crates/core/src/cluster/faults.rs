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
//!
//! This module is the one owner of fault state. The only state that
//! survives a top kill is the latest checkpointed global model (§3,
//! Appendix B), kept as one buffer every later checkpoint overwrites in
//! place, so fault tolerance costs one model of memory however many rounds
//! run. Beside it sit the commit counters the checkpoint period runs on and
//! each node's last keep-alive. Nothing outside this module writes a
//! checkpoint, so a restore cannot fail and neither can a kill.

use super::Cluster;
use crate::ingress;
use lifl_fl::DenseModel;
use lifl_types::{LiflError, NodeId, Result, RoundId, SimDuration, SimTime};
use std::collections::VecDeque;

/// Configuration of a cluster's failure-handling machinery (§3): keep-alive
/// heartbeats per node, periodic checkpointing of committed global models,
/// and the restart delay a replacement runtime needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Checkpoint the committed global model every this many driven rounds.
    /// Must be at least 1.
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

/// What a global-top kill recovered and what it lost: the restore performed
/// after the node hosting the global top failed ([`Cluster::take_recovery`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The model the replacement aggregator starts from (the latest
    /// checkpoint), or `None` when nothing was ever checkpointed and training
    /// restarts from the initial model.
    pub recovered_model: Option<DenseModel>,
    /// The round of the recovered checkpoint.
    pub recovered_round: Option<RoundId>,
    /// Committed versions lost because they were never checkpointed.
    pub lost_versions: u64,
    /// In-progress updates (node hops folded into the global top but not
    /// committed) that must be redone.
    pub lost_in_progress_updates: u64,
    /// Time until the replacement aggregator is ready (the runtime restart).
    pub restart_delay: SimDuration,
    /// When the replacement is ready to aggregate again.
    pub ready_at: SimTime,
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

/// The §3 machinery behind `ClusterBuilder::fault_tolerance`: the one owner
/// of the state a failure leaves behind — the latest checkpoint, the commit
/// counters it is taken on, and each node's last keep-alive.
#[derive(Debug)]
struct Tolerance {
    config: FaultToleranceConfig,
    /// Committed versions (rolled back to the checkpoint by a top kill).
    committed: u64,
    /// Node hops folded into the global top since the last commit.
    in_progress: u64,
    /// The latest checkpoint: the committed version it captures and the
    /// global model, in one buffer every later checkpoint overwrites.
    checkpoint: Option<(RoundId, DenseModel)>,
    /// Each node's last keep-alive, indexed by node.
    last_seen: Vec<SimTime>,
    /// The fault clock recoveries and restarts are stamped with.
    clock: SimTime,
    last_recovery: Option<RecoveryOutcome>,
}

impl Tolerance {
    /// The machinery `config` asks for over `nodes` nodes, each heard from
    /// at time zero.
    ///
    /// # Errors
    /// [`LiflError::InvalidConfig`] for a zero checkpoint period.
    fn new(config: FaultToleranceConfig, nodes: usize) -> Result<Tolerance> {
        if config.checkpoint_every == 0 {
            return Err(LiflError::InvalidConfig(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        Ok(Tolerance {
            config,
            committed: 0,
            in_progress: 0,
            checkpoint: None,
            last_seen: vec![SimTime::ZERO; nodes],
            clock: SimTime::ZERO,
            last_recovery: None,
        })
    }

    fn advance(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// Records a committed global-model version, and checkpoints it when the
    /// period is reached: the first checkpoint clones the model, every later
    /// one copies it into the same buffer.
    fn commit(&mut self, model: &DenseModel) {
        self.committed += 1;
        self.in_progress = 0;
        if !self.committed.is_multiple_of(self.config.checkpoint_every) {
            return;
        }
        let round = RoundId::new(self.committed);
        match &mut self.checkpoint {
            Some((at, saved)) if saved.dim() == model.dim() => {
                *at = round;
                saved.as_mut_slice().copy_from_slice(model.as_slice());
            }
            slot => *slot = Some((round, model.clone())),
        }
    }

    /// A failure of the global top at the fault clock: the stateless
    /// runtime is replaced after the restart delay and resumes from the
    /// latest checkpoint, and progress rolls back to the checkpointed
    /// version with no work in progress.
    fn recover(&mut self) -> RecoveryOutcome {
        let recovered_round = self.checkpoint.as_ref().map(|(round, _)| *round);
        let checkpointed = recovered_round.map_or(0, RoundId::index);
        let outcome = RecoveryOutcome {
            recovered_model: self.checkpoint.as_ref().map(|(_, model)| model.clone()),
            recovered_round,
            lost_versions: self.committed - checkpointed,
            lost_in_progress_updates: self.in_progress,
            restart_delay: self.config.restart_delay,
            ready_at: self.clock + self.config.restart_delay,
        };
        self.committed = checkpointed;
        self.in_progress = 0;
        outcome
    }

    /// The nodes whose last keep-alive is older than the timeout at `now`,
    /// in node order.
    fn overdue(&self, now: SimTime) -> Vec<usize> {
        (self.last_seen.iter().enumerate())
            .filter(|(_, seen)| now.duration_since(**seen) > self.config.heartbeat_timeout)
            .map(|(node, _)| node)
            .collect()
    }
}

impl Faults {
    /// The fault state of a cluster of `nodes` nodes, with the machinery
    /// `config` asks for.
    ///
    /// # Errors
    /// [`LiflError::InvalidConfig`] for a zero checkpoint period.
    pub(super) fn new(config: Option<FaultToleranceConfig>, nodes: usize) -> Result<Faults> {
        Ok(Faults {
            scheduled: VecDeque::new(),
            stats: FaultStats::default(),
            tolerance: config.map(|c| Tolerance::new(c, nodes)).transpose()?,
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
            t.in_progress += 1;
        }
    }

    /// Closes a completed round: commits `model`, checkpointing it on the
    /// period, when fault tolerance is on.
    pub(super) fn commit(&mut self, model: &DenseModel) {
        if let Some(t) = &mut self.tolerance {
            t.commit(model);
        }
        self.clear_round();
    }

    /// Forgets the kills scheduled into the current round (a completed,
    /// discarded or top-lost one). Heartbeats, totals, the checkpoint and
    /// any pending [`RecoveryOutcome`] persist.
    pub(super) fn clear_round(&mut self) {
        self.scheduled.clear();
    }
}

impl Cluster {
    /// The latest checkpoint of the global model: the committed version it
    /// captures and the model. `None` without fault tolerance, or before the
    /// first checkpoint period completed.
    pub fn checkpoint(&self) -> Option<(RoundId, &DenseModel)> {
        let t = self.faults.tolerance.as_ref()?;
        t.checkpoint.as_ref().map(|(round, model)| (*round, model))
    }

    /// Running failure-handling totals, when fault tolerance is enabled.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        (self.faults.tolerance.as_ref()).map(|_| self.faults.stats)
    }

    /// Advances the cluster's fault clock (used to timestamp recoveries and
    /// restarts). Heartbeats and failure detection advance it implicitly.
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
        t.last_seen[node.index() as usize] = now;
        Ok(())
    }

    /// Declares failed — and kills, exactly like
    /// [`Cluster::inject_node_failure`] — every node whose last heartbeat is
    /// older than the configured timeout at `now`, returning the kills in
    /// node order. Each overdue node is reported (and killed) exactly once:
    /// a killed node resumes heartbeating from the detection time.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when fault tolerance is not
    /// enabled.
    // lifl-lint: allow(dead-pub) — the §3 keep-alive failure detector a
    // deployment's agent polls; the fault tiers inject kills instead.
    pub fn detect_failed_nodes(&mut self, now: SimTime) -> Result<Vec<NodeKill>> {
        let t = self.tolerance(None)?;
        t.advance(now);
        let overdue = t.overdue(now);
        // What was offered before the kills has landed when they strike.
        ingress::settle(self);
        Ok(overdue
            .into_iter()
            .map(|node| self.kill_node(node))
            .collect())
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
    /// enabled or the node is outside the cluster.
    pub fn inject_node_failure(&mut self, node: NodeId) -> Result<NodeKill> {
        self.tolerance(Some(node))?;
        // What was offered before the kill has landed when it strikes.
        ingress::settle(self);
        Ok(self.kill_node(node.index() as usize))
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
    pub fn take_recovery(&mut self) -> Option<RecoveryOutcome> {
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

    /// The kill itself (bounds already checked). A child node restarts and
    /// re-delivers its open round from the stored keys. A kill of the top
    /// host loses the round — its partially folded top state died with the
    /// process — and the replacement runtime restores the latest
    /// checkpoint; a drive the kill struck then fails with
    /// [`LiflError::AggregatorFailure`]. Either way the node resumes
    /// heartbeating on the fault clock.
    pub(super) fn kill_node(&mut self, node: usize) -> NodeKill {
        let top_host = node == self.placement.top();
        let lost_updates = if top_host {
            let lost = self.ingress.ingested();
            self.abort_round();
            lost
        } else {
            let child = &mut self.children[node];
            let redelivered = child.pending_updates();
            child.restart();
            redelivered
        };
        let f = &mut self.faults;
        f.stats.lost_updates += lost_updates;
        if top_host {
            f.stats.top_recoveries += 1;
        } else {
            f.stats.node_restarts += 1;
        }
        if let Some(t) = &mut f.tolerance {
            if top_host {
                t.last_recovery = Some(t.recover());
            }
            t.last_seen[node] = t.clock;
        }
        NodeKill {
            node: NodeId::new(node as u64),
            lost_updates,
            top_host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f32]) -> DenseModel {
        DenseModel::from_vec(values.to_vec())
    }

    fn tolerance(checkpoint_every: u64, restart_delay: f64) -> Tolerance {
        let config = FaultToleranceConfig {
            checkpoint_every,
            restart_delay: SimDuration::from_secs(restart_delay),
            ..FaultToleranceConfig::default()
        };
        Tolerance::new(config, 2).unwrap()
    }

    fn checkpointed(t: &Tolerance) -> Option<(RoundId, Vec<f32>)> {
        (t.checkpoint.as_ref()).map(|(round, model)| (*round, model.as_slice().to_vec()))
    }

    #[test]
    fn checkpoints_are_written_on_the_period() {
        let mut t = tolerance(3, 0.8);
        let mut written = Vec::new();
        for version in 1..=7u64 {
            t.commit(&model(&[version as f32]));
            if checkpointed(&t).is_some_and(|(round, _)| round.index() == version) {
                written.push(version);
            }
        }
        assert_eq!(written, vec![3, 6], "checkpoints at versions 3 and 6");
        // Only the latest is kept.
        assert_eq!(checkpointed(&t), Some((RoundId::new(6), vec![6.0])));
        assert_eq!(t.committed, 7);
    }

    #[test]
    fn recovery_restores_latest_checkpoint_and_counts_lost_work() {
        let mut t = tolerance(2, 1.0);
        t.commit(&model(&[1.0]));
        t.commit(&model(&[2.0])); // checkpointed
        t.commit(&model(&[3.0])); // not checkpointed
        t.in_progress += 2;
        t.advance(SimTime::from_secs(4.0));
        let outcome = t.recover();
        assert_eq!(outcome.recovered_model, Some(model(&[2.0])));
        assert_eq!(outcome.recovered_round, Some(RoundId::new(2)));
        assert_eq!(outcome.lost_versions, 1);
        assert_eq!(outcome.lost_in_progress_updates, 2);
        assert_eq!(outcome.ready_at, SimTime::from_secs(5.0));
        // Progress resumed from the checkpoint.
        assert_eq!((t.committed, t.in_progress), (2, 0));
    }

    #[test]
    fn failure_before_any_checkpoint_restarts_from_scratch() {
        let mut t = tolerance(5, 0.5);
        t.commit(&model(&[1.0]));
        t.in_progress += 1;
        let outcome = t.recover();
        assert!(outcome.recovered_model.is_none());
        assert!(outcome.recovered_round.is_none());
        assert_eq!(outcome.lost_versions, 1);
        assert_eq!(outcome.lost_in_progress_updates, 1);
        assert_eq!(t.committed, 0);
    }

    #[test]
    fn repeated_failures_each_recover_from_the_same_checkpoint() {
        let mut t = tolerance(1, 0.8);
        t.commit(&model(&[7.0]));
        let first = t.recover();
        let second = t.recover();
        assert_eq!(first.recovered_model, second.recovered_model);
        assert_eq!(second.lost_versions, 0);
    }

    #[test]
    fn zero_checkpoint_period_is_rejected() {
        let config = FaultToleranceConfig {
            checkpoint_every: 0,
            ..FaultToleranceConfig::default()
        };
        assert!(Tolerance::new(config, 2).is_err());
        assert!(Faults::new(Some(config), 2).is_err());
        assert!(Faults::new(None, 2).is_ok());
    }

    /// Every checkpoint after the first writes into the first one's buffer;
    /// a model of another dimension replaces it.
    #[test]
    fn later_checkpoints_reuse_the_first_buffer() {
        let mut t = tolerance(1, 0.0);
        t.commit(&model(&[1.0, 2.0]));
        let buffer = t.checkpoint.as_ref().unwrap().1.as_slice().as_ptr();
        for version in 2..=5u64 {
            t.commit(&model(&[version as f32, 0.5]));
            let (round, saved) = t.checkpoint.as_ref().unwrap();
            assert_eq!(saved.as_slice().as_ptr(), buffer);
            assert_eq!(
                (round.index(), saved.as_slice()),
                (version, &[version as f32, 0.5][..])
            );
        }
        t.commit(&model(&[9.0]));
        assert_eq!(checkpointed(&t), Some((RoundId::new(6), vec![9.0])));
    }

    #[test]
    fn overdue_nodes_are_the_ones_silent_past_the_timeout() {
        let mut t = tolerance(1, 0.0);
        assert!(t.overdue(SimTime::from_secs(30.0)).is_empty());
        t.last_seen[1] = SimTime::from_secs(25.0);
        assert_eq!(t.overdue(SimTime::from_secs(40.0)), vec![0]);
        assert_eq!(t.overdue(SimTime::from_secs(60.0)), vec![0, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn model_for(version: u64) -> DenseModel {
        DenseModel::from_vec(vec![version as f32, -(version as f64 * 0.5) as f32])
    }

    proptest! {
        /// Random interleavings of commits, folded hops and top failures:
        /// the checkpoint lands on the period, the recovered version never
        /// exceeds what was committed, lost work is accounted exactly, the
        /// replacement is ready one restart delay after the failure, and
        /// progress resumes from the checkpointed version.
        #[test]
        fn recovery_accounting_is_exact(
            checkpoint_every in 1u64..6,
            ops in proptest::collection::vec(0u8..6, 1..40),
        ) {
            let config = FaultToleranceConfig {
                checkpoint_every,
                restart_delay: SimDuration::from_secs(1.0),
                ..FaultToleranceConfig::default()
            };
            let mut t = Tolerance::new(config, 2).unwrap();
            // The reference state machine.
            let mut committed = 0u64;
            let mut checkpointed: Option<u64> = None;
            let mut folds_since_commit = 0u64;
            for (step, op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as f64);
                t.advance(now);
                match op {
                    // Fold twice as often as the other ops.
                    0..=2 => {
                        t.in_progress += 1;
                        folds_since_commit += 1;
                    }
                    3 | 4 => {
                        committed += 1;
                        folds_since_commit = 0;
                        t.commit(&model_for(committed));
                        if committed.is_multiple_of(checkpoint_every) {
                            checkpointed = Some(committed);
                        }
                        let round = t.checkpoint.as_ref().map(|(round, _)| round.index());
                        prop_assert_eq!(round, checkpointed);
                    }
                    _ => {
                        let outcome = t.recover();
                        let recovered = outcome.recovered_round.map(|r| r.index());
                        prop_assert_eq!(recovered, checkpointed);
                        prop_assert!(recovered.unwrap_or(0) <= committed);
                        prop_assert_eq!(
                            outcome.lost_versions,
                            committed - checkpointed.unwrap_or(0)
                        );
                        prop_assert_eq!(outcome.lost_in_progress_updates, folds_since_commit);
                        prop_assert_eq!(
                            outcome.recovered_model,
                            checkpointed.map(model_for)
                        );
                        prop_assert_eq!(outcome.ready_at, now + SimDuration::from_secs(1.0));
                        // Progress resumes from the checkpoint.
                        committed = checkpointed.unwrap_or(0);
                        folds_since_commit = 0;
                        prop_assert_eq!(t.committed, committed);
                        prop_assert_eq!(t.in_progress, 0);
                    }
                }
            }
        }
    }
}
