//! Aggregator failure handling and recovery from checkpoints (§3, Appendix B).
//!
//! LIFL's aggregators are stateless: "new ones start without state
//! synchronization upon an aggregator failure". The durable state is the
//! global model, which the LIFL agent checkpoints asynchronously to an
//! external persistent store after a configured number of committed versions.
//! This module ties those two pieces together: it tracks the in-progress
//! aggregation work, periodically checkpoints committed global models, and on
//! a failure reports exactly what is recovered (the latest checkpointed model)
//! and what must be redone (updates folded since that checkpoint, which the
//! clients or lower-level aggregators re-send).

use lifl_fl::DenseModel;
use lifl_shmem::CheckpointStore;
use lifl_types::{LiflError, Result, RoundId, SimDuration, SimTime};

/// Serialises a model to little-endian `f32` bytes for the checkpoint store.
pub fn model_to_bytes(model: &DenseModel) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(model.dim() * 4);
    for value in model.as_slice() {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    bytes
}

/// Deserialises a model previously written by [`model_to_bytes`].
///
/// # Errors
/// Returns [`LiflError::DimensionMismatch`] when the byte length is not a
/// multiple of four.
pub fn model_from_bytes(bytes: &[u8]) -> Result<DenseModel> {
    if !bytes.len().is_multiple_of(4) {
        return Err(LiflError::DimensionMismatch {
            expected: bytes.len().div_ceil(4) * 4,
            actual: bytes.len(),
        });
    }
    let params = bytes
        .chunks_exact(4)
        .map(|chunk| f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
        .collect();
    Ok(DenseModel::from_vec(params))
}

/// The outcome of recovering from an aggregator failure.
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
    /// In-progress updates (folded but not committed) that must be re-sent.
    pub lost_in_progress_updates: u64,
    /// Time until the replacement aggregator is ready (the runtime restart).
    pub restart_delay: SimDuration,
    /// When the replacement is ready to aggregate again.
    pub ready_at: SimTime,
}

/// Tracks committed versions, periodic checkpoints and in-progress work for
/// one (logical) top aggregator, and produces [`RecoveryOutcome`]s on failure.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    store: CheckpointStore,
    checkpoint_every: u64,
    restart_delay: SimDuration,
    committed_versions: u64,
    last_checkpointed_version: Option<u64>,
    in_progress_updates: u64,
}

impl RecoveryManager {
    /// Creates a manager that checkpoints every `checkpoint_every` committed
    /// versions and needs `restart_delay` to bring up a replacement runtime.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when `checkpoint_every` is zero.
    pub fn new(checkpoint_every: u64, restart_delay: SimDuration) -> Result<Self> {
        if checkpoint_every == 0 {
            return Err(LiflError::InvalidConfig(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        Ok(RecoveryManager {
            store: CheckpointStore::new(),
            checkpoint_every,
            restart_delay,
            committed_versions: 0,
            last_checkpointed_version: None,
            in_progress_updates: 0,
        })
    }

    /// The underlying checkpoint store (shared with the LIFL agent).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Number of updates folded into the accumulator since the last commit.
    pub fn in_progress_updates(&self) -> u64 {
        self.in_progress_updates
    }

    /// Records that one update was folded into the in-progress aggregate.
    pub fn record_fold(&mut self) {
        self.in_progress_updates += 1;
    }

    /// Records a committed global-model version; checkpoints it when the
    /// checkpoint period is reached. Returns whether a checkpoint was written.
    pub fn commit_version(&mut self, model: &DenseModel, now: SimTime) -> bool {
        self.committed_versions += 1;
        self.in_progress_updates = 0;
        if self
            .committed_versions
            .is_multiple_of(self.checkpoint_every)
        {
            let round = RoundId::new(self.committed_versions);
            self.store.save(round, model_to_bytes(model), now);
            self.last_checkpointed_version = Some(self.committed_versions);
            true
        } else {
            false
        }
    }

    /// Handles an aggregator failure at `now`: the stateless runtime is
    /// replaced (after `restart_delay`) and resumes from the latest
    /// checkpoint.
    ///
    /// # Errors
    /// Propagates deserialisation errors for a corrupt checkpoint.
    pub fn fail_and_recover(&mut self, now: SimTime) -> Result<RecoveryOutcome> {
        let checkpoint = self.store.latest();
        let (recovered_model, recovered_round) = match &checkpoint {
            Some(cp) => (Some(model_from_bytes(&cp.data)?), Some(cp.round)),
            None => (None, None),
        };
        let checkpointed = self.last_checkpointed_version.unwrap_or(0);
        let lost_versions = self.committed_versions.saturating_sub(checkpointed);
        let lost_in_progress = self.in_progress_updates;
        // After recovery, progress resumes from the checkpointed version and
        // there is no in-progress work.
        self.committed_versions = checkpointed;
        self.in_progress_updates = 0;
        Ok(RecoveryOutcome {
            recovered_model,
            recovered_round,
            lost_versions,
            lost_in_progress_updates: lost_in_progress,
            restart_delay: self.restart_delay,
            ready_at: now + self.restart_delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f32]) -> DenseModel {
        DenseModel::from_vec(values.to_vec())
    }

    #[test]
    fn model_bytes_roundtrip() {
        let original = model(&[1.5, -2.25, 0.0, 1e-3]);
        let bytes = model_to_bytes(&original);
        assert_eq!(bytes.len(), 16);
        let back = model_from_bytes(&bytes).unwrap();
        assert_eq!(back, original);
        assert!(model_from_bytes(&bytes[..3]).is_err());
    }

    #[test]
    fn checkpoints_are_written_on_the_period() {
        let mut manager = RecoveryManager::new(3, SimDuration::from_secs(0.8)).unwrap();
        let mut written = 0;
        for version in 1..=7u64 {
            let wrote = manager.commit_version(
                &model(&[version as f32]),
                SimTime::from_secs(version as f64),
            );
            if wrote {
                written += 1;
            }
        }
        assert_eq!(written, 2, "checkpoints at versions 3 and 6");
        assert_eq!(manager.store().len(), 2);
        assert_eq!(manager.committed_versions, 7);
    }

    #[test]
    fn recovery_restores_latest_checkpoint_and_counts_lost_work() {
        let mut manager = RecoveryManager::new(2, SimDuration::from_secs(1.0)).unwrap();
        manager.commit_version(&model(&[1.0]), SimTime::from_secs(1.0));
        manager.commit_version(&model(&[2.0]), SimTime::from_secs(2.0)); // checkpointed
        manager.commit_version(&model(&[3.0]), SimTime::from_secs(3.0)); // not checkpointed
        manager.record_fold();
        manager.record_fold();
        let outcome = manager.fail_and_recover(SimTime::from_secs(4.0)).unwrap();
        assert_eq!(outcome.recovered_model, Some(model(&[2.0])));
        assert_eq!(outcome.recovered_round, Some(RoundId::new(2)));
        assert_eq!(outcome.lost_versions, 1);
        assert_eq!(outcome.lost_in_progress_updates, 2);
        assert_eq!(outcome.ready_at, SimTime::from_secs(5.0));
        // Progress resumed from the checkpoint.
        assert_eq!(manager.committed_versions, 2);
        assert_eq!(manager.in_progress_updates(), 0);
    }

    #[test]
    fn failure_before_any_checkpoint_restarts_from_scratch() {
        let mut manager = RecoveryManager::new(5, SimDuration::from_secs(0.5)).unwrap();
        manager.commit_version(&model(&[1.0]), SimTime::from_secs(1.0));
        manager.record_fold();
        let outcome = manager.fail_and_recover(SimTime::from_secs(2.0)).unwrap();
        assert!(outcome.recovered_model.is_none());
        assert!(outcome.recovered_round.is_none());
        assert_eq!(outcome.lost_versions, 1);
        assert_eq!(outcome.lost_in_progress_updates, 1);
        assert_eq!(manager.committed_versions, 0);
    }

    #[test]
    fn repeated_failures_each_recover_from_the_same_checkpoint() {
        let mut manager = RecoveryManager::new(1, SimDuration::from_secs(0.8)).unwrap();
        manager.commit_version(&model(&[7.0]), SimTime::from_secs(1.0));
        let first = manager.fail_and_recover(SimTime::from_secs(2.0)).unwrap();
        let second = manager.fail_and_recover(SimTime::from_secs(3.0)).unwrap();
        assert_eq!(first.recovered_model, second.recovered_model);
        assert_eq!(second.lost_versions, 0);
    }

    #[test]
    fn zero_checkpoint_period_is_rejected() {
        assert!(RecoveryManager::new(0, SimDuration::ZERO).is_err());
    }

    #[test]
    fn corrupt_checkpoint_bytes_surface_as_an_error_not_a_bad_model() {
        let mut manager = RecoveryManager::new(1, SimDuration::ZERO).unwrap();
        manager.commit_version(&model(&[1.0, 2.0]), SimTime::from_secs(1.0));
        // A torn write leaves a payload that is not a whole number of f32s;
        // it is the latest checkpoint, so recovery must refuse it loudly.
        manager
            .store()
            .save(RoundId::new(99), vec![1u8, 2, 3], SimTime::from_secs(2.0));
        let err = manager.fail_and_recover(SimTime::from_secs(3.0));
        assert!(matches!(err, Err(LiflError::DimensionMismatch { .. })));
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
        /// Random interleavings of commits, folds and failures: the recovered
        /// version never exceeds what was committed, lost work is accounted
        /// exactly, and the manager resumes from the checkpointed version.
        #[test]
        fn recovery_accounting_is_exact(
            checkpoint_every in 1u64..6,
            ops in proptest::collection::vec(0u8..6, 1..40),
        ) {
            let mut manager =
                RecoveryManager::new(checkpoint_every, SimDuration::from_secs(1.0)).unwrap();
            // The reference state machine.
            let mut committed = 0u64;
            let mut checkpointed: Option<u64> = None;
            let mut folds_since_commit = 0u64;
            for (step, op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as f64);
                match op {
                    // Fold twice as often as the other ops.
                    0..=2 => {
                        manager.record_fold();
                        folds_since_commit += 1;
                    }
                    3 | 4 => {
                        committed += 1;
                        folds_since_commit = 0;
                        let wrote = manager.commit_version(&model_for(committed), now);
                        prop_assert_eq!(wrote, committed.is_multiple_of(checkpoint_every));
                        if wrote {
                            checkpointed = Some(committed);
                        }
                    }
                    _ => {
                        let outcome = manager.fail_and_recover(now).unwrap();
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
                        prop_assert_eq!(manager.committed_versions, committed);
                        prop_assert_eq!(manager.in_progress_updates(), 0);
                    }
                }
            }
        }

        /// model_to_bytes / model_from_bytes roundtrip bit-exactly, and every
        /// byte length that is not a whole number of f32s is rejected.
        #[test]
        fn model_bytes_roundtrip_and_reject_torn_writes(
            values in proptest::collection::vec(-1e6f32..1e6, 0..64),
            cut in 1usize..4,
        ) {
            let original = DenseModel::from_vec(values);
            let bytes = model_to_bytes(&original);
            let back = model_from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, original);
            if !bytes.is_empty() {
                let torn = &bytes[..bytes.len() - cut.min(bytes.len())];
                if !torn.len().is_multiple_of(4) {
                    prop_assert!(model_from_bytes(torn).is_err());
                }
            }
        }
    }
}
