//! Scale tier: streaming million-client ingress at **flat memory**.
//!
//! A live-byte high-water [`GlobalAlloc`] shim (extending the `alloc` tier's
//! counting-allocator idea from counts to a live-bytes peak) wraps the system
//! allocator. The tier streams simulated clients through the bounded
//! admission ingress — `try_ingest`, partial quorum rounds, queued overflow,
//! rejected surplus — and proves the peak of *live* heap bytes is a function
//! of the queue caps and model size, never of the client count: 10× the
//! clients must stay within 2× the peak.
//!
//! The default `cargo test -q` run is the 10k-client smoke (1k vs 10k peaks
//! compared); the full 1M-client round runs when `LIFL_SCALE_FULL=1` — the
//! scale tier's own CI step sets it.
//!
//! Memory is flat in the round count too: a fault-tolerant cluster that
//! checkpoints every round and hears every node's heartbeat every round keeps
//! one checkpoint, so 10× the rounds stay within 1.1× the peak.
//!
//! The tier also proves the KPA autoscaling acceptance end to end: under a
//! sustained arrival spike the fleet-scaled cluster grows leaf aggregators
//! and keeps draining, while the fixed-tree baseline's queue depth diverges
//! round over round until its budget turns clients away.

// lifl-lint: allow-file(unsafe) — implementing `GlobalAlloc` requires
// `unsafe`; this live-byte high-water shim is the sanctioned unsafe site of
// this tier and only delegates to the system allocator.

#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

use lifl_core::cluster::{Cluster, ClusterBuilder, FaultToleranceConfig};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_serverless::FleetConfig;
use lifl_types::{AdmissionConfig, ClientId, CodecKind, NodeId, SimTime, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn note_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

struct HighWaterAllocator;

// SAFETY: delegates every operation unchanged to the system allocator; the
// only addition is relaxed atomic live/peak bookkeeping.
unsafe impl GlobalAlloc for HighWaterAllocator {
    // SAFETY: same contract as `System::alloc`; the caller's `Layout`
    // obligations pass through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards the caller's layout to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::dealloc`; `ptr`/`layout` obligations
    // pass through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        // SAFETY: forwards the caller's pointer and layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards the caller's layout to the system allocator.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwards the caller's pointer, layout and size unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                note_dealloc(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: HighWaterAllocator = HighWaterAllocator;

/// Resets the high-water mark to the current live bytes and returns a
/// baseline to measure peaks against.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_over(baseline: u64) -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Both tests sample the same global counters: serialise them.
static SERIAL: Mutex<()> = Mutex::new(());

const DIM: usize = 64;
const LEAVES: usize = 16;
const PER_LEAF: usize = 16;
const CAPACITY: usize = LEAVES * PER_LEAF;

/// A deterministic dense update for one simulated client (no per-client
/// state is kept anywhere in the test — the point is that the *platform*
/// keeps none either).
fn update(client: u64) -> ModelUpdate {
    let values: Vec<f32> = (0..DIM)
        .map(|d| ((client as usize).wrapping_mul(31).wrapping_add(d * 7) % 251) as f32 * 0.01 - 1.2)
        .collect();
    ModelUpdate::from_client(
        ClientId::new(client),
        DenseModel::from_vec(values),
        client % 17 + 1,
    )
}

fn streaming_session() -> Session {
    SessionBuilder::new()
        .two_level(LEAVES, PER_LEAF)
        .admission(AdmissionConfig::bounded(8, 1 << 16).with_quorum(1))
        .build()
        .expect("session")
}

/// Streams `clients` one-shot clients through the bounded ingress: offers
/// never block, full rounds drive and re-open, queued overflow drains, and
/// surplus past the queue budget is turned away with a retry hint. Returns
/// `(aggregated, rejected)` totals.
fn run_streaming(session: &mut Session, clients: u64) -> (u64, u64) {
    let mut aggregated = 0u64;
    let mut rejected = 0u64;
    for client in 0..clients {
        let outcome = session
            .try_ingest(Update::Dense(update(client)))
            .expect("try_ingest");
        if outcome.is_rejected() {
            rejected += 1;
        }
        if session.pending_updates() as usize == CAPACITY {
            aggregated += session.drive().expect("drive").updates_ingested;
        }
    }
    if session.pending_updates() > 0 {
        aggregated += session.drive().expect("drive").updates_ingested;
    }
    (aggregated, rejected)
}

/// One measured pass: a fresh session plus its whole streaming run, so the
/// peak covers everything a deployment of that client count would hold live
/// at once (stores, pools, queues, scratch — all sized by topology and queue
/// caps, none of it by `clients`).
fn measured_peak(clients: u64) -> (u64, u64) {
    let baseline = reset_peak();
    let mut session = streaming_session();
    let (aggregated, _) = run_streaming(&mut session, clients);
    let peak = peak_over(baseline);
    drop(session);
    (peak, aggregated)
}

#[test]
fn streaming_ingress_memory_is_flat_in_the_client_count() {
    let _guard = SERIAL.lock().expect("serial");
    // Warm-up sizes the process-wide one-offs (thread-local scratch, pool
    // slabs of the first session) outside the measurement window.
    let mut warmup = streaming_session();
    run_streaming(&mut warmup, 2_000);
    drop(warmup);

    let (peak_1k, aggregated_1k) = measured_peak(1_000);
    let (peak_10k, aggregated_10k) = measured_peak(10_000);
    assert_eq!(aggregated_1k, 1_000, "every offered client aggregates");
    assert_eq!(aggregated_10k, 10_000);
    assert!(peak_1k > 0 && peak_10k > 0);
    // The acceptance shape at smoke scale: 10x the clients, <= 2x the peak.
    assert!(
        peak_10k <= peak_1k * 2,
        "peak grew with the client count: 1k -> {peak_1k} bytes, 10k -> {peak_10k} bytes"
    );

    // The full million-client round (the scale tier's own CI step).
    if std::env::var_os("LIFL_SCALE_FULL").is_some() {
        let (peak_1m, aggregated_1m) = measured_peak(1_000_000);
        assert_eq!(aggregated_1m, 1_000_000);
        assert!(
            peak_1m <= peak_10k * 2,
            "million-client peak not flat: 10k -> {peak_10k} bytes, 1M -> {peak_1m} bytes"
        );
    }
}

/// 64 KiB per model: a checkpoint kept per round would be visible beside
/// the cluster's working set.
const CHECKPOINT_DIM: usize = 1 << 14;

/// `rounds` rounds of a fault-tolerant [2, 2, 2] `Uniform8` cluster that
/// checkpoints every round, with both nodes heartbeating before each one.
/// Returns the peak of live heap bytes over the cluster's whole life.
fn fault_tolerant_peak(rounds: u64) -> u64 {
    let baseline = reset_peak();
    let mut cluster: Cluster = ClusterBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).unwrap())
        .codec(CodecKind::Uniform8)
        .fault_tolerance(FaultToleranceConfig {
            checkpoint_every: 1,
            ..FaultToleranceConfig::default()
        })
        .build()
        .expect("fault-tolerant cluster");
    for round in 0..rounds {
        let now = SimTime::from_secs(round as f64);
        for node in 0..2 {
            cluster.node_heartbeat(NodeId::new(node), now).unwrap();
        }
        for client in 0..8u64 {
            let values: Vec<f32> = (0..CHECKPOINT_DIM)
                .map(|d| ((d as u64 * 13 + client * 7 + round) % 101) as f32 * 0.02 - 1.0)
                .collect();
            let update = ModelUpdate::from_client(
                ClientId::new(client),
                DenseModel::from_vec(values),
                client + 1,
            );
            assert!(cluster
                .try_ingest(Update::Dense(update))
                .unwrap()
                .is_admitted());
        }
        cluster.drive().expect("drive");
    }
    let (checkpoint, _) = cluster.checkpoint().expect("checkpointed");
    assert_eq!(checkpoint.index(), rounds);
    let peak = peak_over(baseline);
    drop(cluster);
    peak
}

#[test]
fn fault_tolerant_cluster_memory_is_flat_in_the_round_count() {
    let _guard = SERIAL.lock().expect("serial");
    // Warm-up sizes the process-wide one-offs outside the measurement.
    fault_tolerant_peak(4);
    let peak_1x = fault_tolerant_peak(8);
    let peak_10x = fault_tolerant_peak(80);
    assert!(peak_1x > 0);
    assert!(
        peak_10x * 10 <= peak_1x * 11,
        "peak grew with the round count: 8 rounds -> {peak_1x} bytes, 80 rounds -> {peak_10x} bytes"
    );
}

#[test]
fn kpa_fleet_absorbs_the_spike_the_fixed_tree_cannot() {
    let _guard = SERIAL.lock().expect("serial");
    let topology = Topology::new(vec![2, 2, 2]).unwrap();
    // Roomy queues so the fixed tree's depth can visibly diverge before the
    // budget starts turning clients away.
    let admission = AdmissionConfig::bounded(512, 1 << 24).with_quorum(1);
    let mut scaled = ClusterBuilder::new()
        .topology(topology.clone())
        .admission(admission)
        .fleet_scaling(
            FleetConfig::default()
                .with_target_depth(1.0)
                .with_leaf_bounds(2, 32),
        )
        .build()
        .unwrap();
    let mut fixed = ClusterBuilder::new()
        .topology(topology)
        .admission(admission)
        .build()
        .unwrap();
    // A sustained spike: 64 arrivals per round against an 8-update tree.
    let mut client = 0u64;
    let mut fixed_depths = Vec::new();
    let mut scaled_depths = Vec::new();
    for _ in 0..30 {
        for _ in 0..64 {
            let _ = scaled.try_ingest(Update::Dense(update(client))).unwrap();
            let _ = fixed.try_ingest(Update::Dense(update(client))).unwrap();
            client += 1;
        }
        scaled.drive().expect("scaled drive");
        fixed.drive().expect("fixed drive");
        scaled_depths.push(scaled.queued_updates());
        fixed_depths.push(fixed.queued_updates());
    }
    // The fixed tree diverges: every round parks more than the last until
    // the budget saturates, and it ends an order of magnitude behind.
    let diverging = fixed_depths.windows(2).filter(|w| w[1] > w[0]).count();
    assert!(
        diverging >= 15,
        "fixed-tree backlog should climb round over round: {fixed_depths:?}"
    );
    let fixed_final = *fixed_depths.last().unwrap();
    let scaled_final = *scaled_depths.last().unwrap();
    assert!(
        fixed_final >= 10 * scaled_final.max(1),
        "fixed backlog {fixed_final} should dwarf the scaled fleet's {scaled_final}"
    );
    // The fleet actually grew, and kept every client (no rejections).
    assert!(
        scaled.round_capacity() > 8,
        "the spike must grow the fleet, capacity still {}",
        scaled.round_capacity()
    );
    assert_eq!(scaled.admission_stats().rejected, 0);
}
