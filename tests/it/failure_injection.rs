//! Failure injection: stateless aggregator restart from a checkpoint, client
//! drop-out (over-provisioning), and shared-memory exhaustion handling.

use lifl_shmem::ObjectStore;
use lifl_sim::agent::LiflAgent;
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_types::{LiflError, ModelKind, NodeId, RoundId, SimTime};

#[test]
fn stateless_restart_recovers_from_checkpoint() {
    // The agent checkpoints the global model; a "crashed" aggregator is
    // replaced by a new one that resumes from the latest checkpoint
    // (aggregators hold no other state, §3 / Appendix B).
    let agent = LiflAgent::new(NodeId::new(0));
    agent.checkpoint(RoundId::new(5), vec![1, 2, 3, 4], SimTime::from_secs(50.0));
    agent.checkpoint(RoundId::new(6), vec![9, 9], SimTime::from_secs(60.0));
    let recovered = agent.checkpoints().latest().expect("checkpoint");
    assert_eq!(recovered.round, RoundId::new(6));
    assert_eq!(recovered.data, vec![9, 9]);
}

#[test]
fn client_dropout_still_completes_the_round() {
    // 20 clients were selected but only 15 deliver updates (the paper
    // over-provisions clients to tolerate drop-out). The round still
    // aggregates what arrived.
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let arrivals: Vec<SimTime> = (0..15).map(|i| SimTime::from_secs(i as f64)).collect();
    let report = platform.run_round(&RoundSpec::new(ModelKind::ResNet18, arrivals));
    assert_eq!(report.metrics.updates_aggregated, 15);
    assert!(report.metrics.aggregation_completion_time.as_secs() > 0.0);
}

#[test]
fn shared_memory_exhaustion_is_a_clean_error() {
    let store = ObjectStore::with_capacity(64);
    store.put(vec![0u8; 40]).unwrap();
    let err = store.put(vec![0u8; 40]).unwrap_err();
    assert!(matches!(err, LiflError::OutOfSharedMemory { .. }));
    // Recycling frees space and the platform continues.
    store.recycle_all();
    assert!(store.put(vec![0u8; 40]).is_ok());
}

#[test]
fn overload_beyond_cluster_capacity_degrades_gracefully() {
    // 150 updates exceed the 100-update cluster capacity; the round still
    // completes, using every node, just more slowly.
    let mut platform = LiflPlatform::new(ClusterConfig::default(), LiflConfig::default());
    let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 150, SimTime::ZERO);
    let report = platform.run_round(&spec);
    assert_eq!(report.metrics.updates_aggregated, 150);
    assert_eq!(report.metrics.nodes_used, 5);
}
