//! The cluster is the one owner of fault state. Prose may say
//! RecoveryManager, model_to_bytes, model_from_bytes, HeartbeatMonitor,
//! CheckpointStore, checkpoint_store and TopRecovery, and longer names
//! that merely contain one are different names.

pub fn recover(cluster: &mut Cluster) -> Option<RecoveryOutcome> {
    let _ = "CheckpointStore, TopRecovery and HeartbeatMonitor are gone";
    let checkpoint_store_bytes = cluster.checkpoint().map(|(_, model)| model.dim() * 4);
    cluster.take_recovery()
}
