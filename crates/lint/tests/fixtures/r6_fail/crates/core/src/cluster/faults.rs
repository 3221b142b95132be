//! Fault state kept beside the cluster's, through the retired names.

pub fn recover(manager: &mut RecoveryManager, monitor: &HeartbeatMonitor) -> TopRecovery {
    let store: &CheckpointStore = cluster.checkpoint_store().unwrap();
    let bytes = model_to_bytes(&model);
    let restored = model_from_bytes(&bytes);
    TopRecovery { outcome: manager.fail_and_recover(now) }
}
