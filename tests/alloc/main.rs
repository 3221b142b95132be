//! Allocation-counting tier: proves the buffer-pooled aggregation hot path
//! runs at **zero model-sized heap allocations** per steady-state round, and
//! that a whole session round does too — ingest, store puts, every
//! aggregator position's accumulator, `send`, park and drain included; the
//! model `drive()` hands its caller is the one allocation left.
//!
//! A counting [`GlobalAlloc`] shim wraps the system allocator and counts
//! every allocation (and growing reallocation) of at least
//! [`MODEL_SIZED_BYTES`]. The tier lives in its own test binary so no
//! unrelated test's allocations can pollute the counters; the one test is
//! `#[test]`-single so the counter observes exactly the round loop.

// lifl-lint: allow-file(unsafe) — implementing `GlobalAlloc` requires
// `unsafe`; this counting shim is the one sanctioned unsafe site outside
// the kernel layer and only delegates to the system allocator.

use lifl_fl::aggregate::CumulativeFedAvg;
use lifl_fl::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use lifl_fl::{kernels, DenseModel, ModelUpdate};
use lifl_shmem::BufferPool;
use lifl_types::{ClientId, CodecKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Anything at least this large counts as "model-sized". The test model is
/// 2 MiB dense (524288 `f32`), so every model-shaped buffer — dense scratch,
/// u8 encode body, residual — is at least twice this threshold.
const MODEL_SIZED_BYTES: usize = 256 * 1024;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation unchanged to the system allocator; the
// only addition is a relaxed atomic counter bump on large requests.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System::alloc`; the caller's `Layout`
    // obligations pass through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= MODEL_SIZED_BYTES {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's layout to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`; `ptr`/`layout` obligations
    // pass through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer and layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= MODEL_SIZED_BYTES {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's layout to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= MODEL_SIZED_BYTES {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's pointer, layout and size unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn model_sized_allocs() -> u64 {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// One steady-state aggregation round over the pooled hot path: every client
/// encodes with error feedback (in place on its residual, pooled encode
/// body), the aggregator folds each encoded update fused, the round drains in
/// place, and the aggregate is re-encoded the way an interior
/// `AggregatorRuntime::send` re-encodes it — body out of the pool, back into
/// it once the wire form is taken.
fn run_round(
    clients: &[(ClientId, DenseModel)],
    feedback: &mut ErrorFeedback,
    accumulator: &mut CumulativeFedAvg,
    global: &mut DenseModel,
    interior: &mut UpdateCodec,
) {
    for (client, model) in clients {
        let encoded = feedback.encode(*client, model).expect("encode");
        accumulator
            .fold_encoded(&encoded, 1 + client.index())
            .expect("fold");
        feedback.recycle(encoded);
    }
    accumulator.drain_into(global).expect("drain");
    let intermediate = interior.encode(global);
    assert!(intermediate.wire_bytes() > 0);
    interior.recycle(intermediate);
}

/// Model-sized allocations of one session round — its offers, then `close`
/// — and the weight `close` reports.
fn round_allocs(
    session: &mut lifl_core::session::Session,
    round: Vec<lifl_fl::Update>,
    close: &dyn Fn(&mut lifl_core::session::Session) -> u64,
) -> (u64, u64) {
    let before = model_sized_allocs();
    for update in round {
        session.try_ingest(update).expect("offer");
    }
    let weight = close(session);
    (model_sized_allocs() - before, weight)
}

// All phases live in ONE #[test]: the harness runs tests in parallel
// threads, and two tests sampling the same global counter would race.
#[test]
fn steady_state_rounds_make_zero_model_sized_allocations() {
    const DIM: usize = 1 << 19; // 2 MiB of f32 per model
    let pool = BufferPool::new();
    let codec = UpdateCodec::with_seed(CodecKind::Uniform8, 0xA110C).with_pool(pool.clone());
    let mut feedback = ErrorFeedback::new(codec);
    let mut interior = UpdateCodec::with_seed(CodecKind::Uniform8, 0x5E4D).with_pool(pool.clone());
    let mut accumulator = CumulativeFedAvg::new(DIM);
    let mut global = DenseModel::zeros(DIM);
    let clients: Vec<(ClientId, DenseModel)> = (0..4u64)
        .map(|c| {
            let values: Vec<f32> = (0..DIM)
                .map(|d| ((d as u64 * 29 + c * 13) % 97) as f32 * 0.02 - 0.9)
                .collect();
            (ClientId::new(c), DenseModel::from_vec(values))
        })
        .collect();

    // Warm-up: first rounds size the pool slab, the per-client residuals and
    // the accumulator.
    for _ in 0..2 {
        run_round(
            &clients,
            &mut feedback,
            &mut accumulator,
            &mut global,
            &mut interior,
        );
    }

    let before = model_sized_allocs();
    for _ in 0..10 {
        run_round(
            &clients,
            &mut feedback,
            &mut accumulator,
            &mut global,
            &mut interior,
        );
    }
    let after = model_sized_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state rounds must not allocate model-sized buffers \
         ({} allocations of >= {} bytes in 10 rounds)",
        after - before,
        MODEL_SIZED_BYTES
    );

    // The pool did real work: scratch checkouts were served from the slab...
    let stats = pool.stats();
    assert!(stats.hits > 0, "pool never reused a buffer: {stats:?}");
    // ...and its resident footprint stayed bounded (the clients' and the
    // interior encode bodies, not one buffer per round).
    assert!(
        stats.peak_idle_buffers <= 4,
        "pool slab grew unexpectedly: {stats:?}"
    );

    // The rounds actually aggregated: the drained global is the weighted mean
    // of the (quantized) client updates, which is nonzero.
    assert!(global.l2_norm() > 1.0, "global model was never written");

    // Phase 2: the cache-blocked batch fold + in-place drain is equally
    // allocation-free once its accumulator is sized.
    let updates: Vec<ModelUpdate> = (0..4u64)
        .map(|c| {
            let values: Vec<f32> = (0..DIM)
                .map(|d| ((d as u64 * 7 + c * 31) % 89) as f32 * 0.01 - 0.4)
                .collect();
            ModelUpdate::from_client(ClientId::new(c), DenseModel::from_vec(values), c + 1)
        })
        .collect();
    let views: Vec<_> = updates
        .iter()
        .map(|u| {
            let bytes = kernels::le_bytes(u.model.as_slice());
            (EncodedView::identity_over(bytes), u.samples)
        })
        .collect();
    let mut batched = CumulativeFedAvg::new(DIM);
    let mut out = DenseModel::zeros(DIM);
    batched.fold_encoded_batch(&views).expect("warm-up fold");
    batched.drain_into(&mut out).expect("warm-up drain");

    let before = model_sized_allocs();
    for _ in 0..10 {
        batched.fold_encoded_batch(&views).expect("fold");
        batched.drain_into(&mut out).expect("drain");
    }
    assert_eq!(
        model_sized_allocs() - before,
        0,
        "batch fold + drain must reuse the accumulator allocation"
    );
    assert!(out.l2_norm() > 0.0);

    // Phase 3: top-k encoding is equally allocation-free — selection needs
    // no scratch, so the pooled encode body (1 MiB here) is all it touches,
    // at the clients and at the interior re-encode alike.
    let topk_pool = BufferPool::new();
    let topk = CodecKind::TopK { permille: 250 };
    let topk_codec = UpdateCodec::with_seed(topk, 0x70CF).with_pool(topk_pool.clone());
    let mut topk_feedback = ErrorFeedback::new(topk_codec);
    let mut topk_interior = UpdateCodec::with_seed(topk, 0x1A7E).with_pool(topk_pool.clone());
    let mut topk_accumulator = CumulativeFedAvg::new(DIM);
    let mut topk_global = DenseModel::zeros(DIM);
    for _ in 0..2 {
        run_round(
            &clients,
            &mut topk_feedback,
            &mut topk_accumulator,
            &mut topk_global,
            &mut topk_interior,
        );
    }
    let before = model_sized_allocs();
    for _ in 0..10 {
        run_round(
            &clients,
            &mut topk_feedback,
            &mut topk_accumulator,
            &mut topk_global,
            &mut topk_interior,
        );
    }
    assert_eq!(
        model_sized_allocs() - before,
        0,
        "steady-state top-k encode and re-encode must allocate nothing model-sized"
    );
    let topk_stats = topk_pool.stats();
    assert!(
        topk_stats.hits > 0,
        "top-k pool never reused: {topk_stats:?}"
    );
    assert!(
        topk_global.l2_norm() > 0.0,
        "top-k rounds aggregated nothing"
    );

    // Phase 4: the cluster hop — forwarding a node session's exported
    // intermediate to the parent gateway as `Update::RemoteBytes` — is
    // zero-copy end to end: the sending store's buffer is shared into the
    // envelope and stored as-is by the receiving gateway (an in-place
    // wire-contract check for encoded payloads), so a steady-state hop never
    // allocates a model-sized buffer, encoded or dense.
    use lifl_core::gateway::Gateway;
    use lifl_fl::Update;
    use lifl_shmem::ObjectStore;
    use lifl_types::{AggregatorId, NodeId};

    let values: Vec<f32> = (0..DIM).map(|d| (d % 83) as f32 * 0.01 - 0.4).collect();
    let sender = ObjectStore::new();
    let mut hop_codec = UpdateCodec::with_seed(CodecKind::Uniform8, 0xC10B);
    let encoded = hop_codec.encode(&DenseModel::from_vec(values.clone()));
    let dense_bytes = encoded.dense_bytes();
    let encoded_key = sender
        .put_encoded(encoded.into_wire(), dense_bytes)
        .expect("sender put encoded");
    let dense_key = sender.put_f32(&values).expect("sender put dense");

    let receiver_store = ObjectStore::new();
    let mut receiver = Gateway::new(NodeId::new(1), receiver_store.clone());
    let top = AggregatorId::new(1);
    let inbox = receiver.register_aggregator(top);

    let mut run_hop = |key: &lifl_types::ObjectKey, encoded: bool| {
        // Transmit side: a shared handle onto the sender store's bytes.
        let wire = sender.get(key).expect("sender get").bytes();
        let update = Update::remote_bytes(wire, 4, encoded);
        // Receive side: one-time payload processing + in-place enqueue.
        receiver.ingest(top, &update).expect("receiver ingest");
        let queued = inbox.dequeue().expect("queued hop");
        receiver_store.recycle(&queued.key).expect("recycle");
    };
    // Warm-up sizes the receiver store's bookkeeping.
    run_hop(&encoded_key, true);
    run_hop(&dense_key, false);

    let before = model_sized_allocs();
    for _ in 0..10 {
        run_hop(&encoded_key, true);
        run_hop(&dense_key, false);
    }
    assert_eq!(
        model_sized_allocs() - before,
        0,
        "steady-state cluster hops must share the sender's buffer, not copy it"
    );
    assert_eq!(receiver_store.stats().live_objects, 0);

    // Phases 5-7: whole sessions, puts included. The payload is written
    // once by its producer and moved — a dense model's vector becomes the
    // stored object, an encoded update's pooled buffer does, `send` moves
    // the finalised model, a parked update is copied once into a pooled
    // backlog buffer that the drain moves into the store, and each
    // aggregator position's accumulator is the pooled vector a previous
    // round's `send` moved into the store, home again since the recycle —
    // so a steady-state round allocates nothing model-sized. `drive()` adds
    // the one model it returns; `drive_to_wire()` adds nothing.
    use lifl_core::session::{Session, SessionBuilder};
    use lifl_types::AdmissionConfig;

    const POSITIONS: u64 = 3; // two_level(2, 2): two leaves and the top
    const WARM_UP: usize = 3;
    const MEASURED: usize = 5;
    // Owned updates for every round, built before the window opens.
    let rounds = |count: usize| -> Vec<Vec<Update>> {
        (0..count)
            .map(|_| {
                clients
                    .iter()
                    .map(|(client, model)| {
                        Update::dense(*client, model.clone(), 1 + client.index())
                    })
                    .collect()
            })
            .collect()
    };
    let to_wire = |session: &mut Session| -> u64 {
        session
            .drive_to_wire()
            .expect("drive_to_wire")
            .update
            .weight()
    };
    let to_model = |session: &mut Session| -> u64 {
        let report = session.drive().expect("drive");
        assert!(report.update.model.l2_norm() > 0.0);
        report.update.samples
    };

    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(codec)
            .build()
            .expect("session");
        for round in rounds(WARM_UP) {
            round_allocs(&mut session, round, &to_wire);
        }
        for round in rounds(MEASURED) {
            let (allocs, weight) = round_allocs(&mut session, round, &to_wire);
            assert_eq!(weight, 1 + 2 + 3 + 4);
            assert_eq!(
                allocs, 0,
                "{codec}: try_ingest x capacity + drive_to_wire must allocate \
                 nothing model-sized, accumulators included"
            );
        }
        for round in rounds(2) {
            let (allocs, _) = round_allocs(&mut session, round, &to_model);
            assert_eq!(
                allocs, 1,
                "{codec}: drive() adds exactly the model it returns"
            );
        }
        assert_eq!(session.store().stats().live_objects, 0);
        if codec == CodecKind::Uniform8 {
            // Ingress encodes and interior re-encodes were all served from
            // the slab once it was warm.
            let stats = session.pool().stats();
            assert!(stats.hits >= 10 * MEASURED as u64, "{stats:?}");
            // A lossy `send` checks its accumulator back in at once, so the
            // top reuses a leaf's, and the second leaf does too unless the
            // two leaves overlapped in the first round.
            assert!(
                (7 + 1..=7 + 2).contains(&stats.misses),
                "4 ingress + 3 interior buffers, one or two accumulators: {stats:?}"
            );
            // First contact: a client the session has never seen hands over
            // an owned update, and the moved vector *is* its first residual —
            // nothing model-sized is allocated beyond the wire buffer, which
            // the warm pool serves.
            // Its encode may run on a worker after the offer returns;
            // discarding the round settles it inside the window.
            let model = clients[0].1.clone();
            let newcomer = Update::dense(ClientId::new(99), model, 1);
            let before = model_sized_allocs();
            session.try_ingest(newcomer).expect("first contact");
            session.discard_round();
            assert_eq!(
                model_sized_allocs() - before,
                0,
                "a first-contact lossy offer must move its model in, not clone it"
            );
            assert_eq!(session.pool().stats().misses, stats.misses);
        } else {
            let stats = session.pool().stats();
            assert_eq!(stats.misses, POSITIONS, "the accumulators: {stats:?}");
        }
    }

    // Phase 7: bounded admission. Once the backlog is primed every round's
    // offers find the round already full (the previous drive drained four
    // parked updates into it) and park; the drive folds the drained round and
    // drains the next. Park is one copy into a pooled backlog buffer, drain
    // moves that buffer into the store.
    let mut session = SessionBuilder::new()
        .two_level(2, 2)
        .admission(AdmissionConfig::bounded(4, 4 * DIM * 4))
        .build()
        .expect("admission session");
    for update in rounds(1).remove(0) {
        // Primes the pipeline: this round is admitted, every later one parks.
        assert!(session.try_ingest(update).expect("prime").is_admitted());
    }
    for round in rounds(WARM_UP) {
        round_allocs(&mut session, round, &to_wire);
    }
    for round in rounds(MEASURED) {
        assert_eq!(session.pending_updates(), 4, "the drain filled the round");
        let (allocs, _) = round_allocs(&mut session, round, &to_wire);
        assert_eq!(
            allocs, 0,
            "park -> drain -> drive must allocate nothing model-sized"
        );
        assert_eq!(session.queued_updates(), 0);
    }
    let admission = session.admission_stats();
    assert_eq!(admission.rejected + admission.dropped, 0);
    assert!(admission.drained >= 4 * MEASURED as u64);
    let stats = session.pool().stats();
    assert_eq!(
        stats.misses,
        8 + POSITIONS,
        "4 parked + 4 stored backlog buffers, one accumulator per position: {stats:?}"
    );

    // Phase 8: no thread per round, and one worker set per process. Stations
    // run on a worker set that lives as long as whoever holds it — every
    // session, cluster and training driver built while one lives shares it —
    // started at the first level with stations to share and parked between
    // levels. So after round 1 the process keeps exactly the same threads —
    // the same ids, not just as many — round after round and across a fleet
    // re-split, and the set's named workers are among them (a drive that
    // started and joined its own threads would leave none). Phase 7's
    // session holds the set until it drops, which joins it.
    use lifl_core::cluster::{ClusterBuilder, FaultToleranceConfig};
    use lifl_core::training::{TrainingConfig, TrainingDriver};
    use lifl_fl::client::ClientAvailability;
    use lifl_fl::dataset::{DatasetConfig, FederatedDataset};
    use lifl_fl::population::{Population, PopulationConfig};
    use lifl_serverless::FleetConfig;
    use lifl_types::Topology;

    /// The process's threads as `(tid, name)`, in tid order.
    fn threads() -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let tid = entry.file_name().to_str()?.parse().ok()?;
                let name = std::fs::read_to_string(entry.path().join("comm")).ok()?;
                Some((tid, name.trim().to_string()))
            })
            .collect();
        out.sort();
        out
    }
    fn workers(threads: &[(u64, String)]) -> usize {
        threads
            .iter()
            .filter(|(_, name)| name.starts_with("lifl-station-"))
            .count()
    }
    /// Waits until the process has `count` named workers: a joined thread
    /// leaves /proc shortly after its join returns.
    fn joined_down_to(count: usize, what: &str) {
        for _ in 0..200 {
            if workers(&threads()) == count {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            workers(&threads()),
            count,
            "{what}: dropping the last handle joins the workers"
        );
    }
    let per_set = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    assert_eq!(
        workers(&threads()),
        per_set,
        "phase 7's session holds the set"
    );
    drop(session);
    joined_down_to(0, "phase 7's session");
    let small = |count: usize| -> Vec<Update> {
        (0..count as u64)
            .map(|c| {
                let values = (0..64).map(|d| ((c + d) % 13) as f32 * 0.1).collect();
                Update::dense(ClientId::new(c), DenseModel::from_vec(values), 1 + c % 3)
            })
            .collect()
    };
    // Builds a backend, runs `rounds` rounds of `round` on it, checks the
    // threads after round 1 against the pre-build ones and every later
    // round, then drops it: the last handle joins the set.
    fn hold_threads<B>(
        what: &str,
        per_set: usize,
        build: impl FnOnce() -> B,
        rounds: usize,
        mut round: impl FnMut(&mut B),
    ) {
        let before = threads();
        let mut backend = build();
        round(&mut backend);
        let warm = threads();
        assert!(
            warm.len() <= before.len() + per_set,
            "{what}: {} -> {} threads",
            before.len(),
            warm.len()
        );
        assert_eq!(
            workers(&warm),
            workers(&before) + per_set,
            "{what}: one worker set, parked between rounds: {warm:?}"
        );
        for k in 1..rounds {
            round(&mut backend);
            assert_eq!(threads(), warm, "{what}: round {k} changed the threads");
        }
        drop(backend);
        joined_down_to(workers(&before), what);
    }

    hold_threads(
        "session [8, 16]",
        per_set,
        || {
            SessionBuilder::new()
                .topology(Topology::new(vec![8, 16]).expect("topology"))
                .build()
                .expect("session")
        },
        101,
        |session: &mut Session| {
            session.ingest_all(small(128)).expect("ingest");
            session.drive().expect("drive");
        },
    );
    hold_threads(
        "cluster [8, 4, 4]",
        per_set,
        || {
            ClusterBuilder::new()
                .topology(Topology::new(vec![8, 4, 4]).expect("topology"))
                .codec(CodecKind::Uniform8)
                .build()
                .expect("cluster")
        },
        101,
        |cluster| {
            cluster.ingest_all(small(128)).expect("ingest");
            cluster.drive().expect("drive");
        },
    );
    // A fleet re-split rebuilds node sessions on the cluster's worker set.
    let mut spawned = 0;
    hold_threads(
        "re-split fleet",
        per_set,
        || {
            ClusterBuilder::new()
                .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
                .admission(AdmissionConfig::bounded(64, 1 << 24).with_quorum(1))
                .fleet_scaling(
                    FleetConfig::default()
                        .with_target_depth(1.0)
                        .with_leaf_bounds(2, 16),
                )
                .build()
                .expect("fleet")
        },
        12,
        |fleet| {
            for update in small(24) {
                fleet.try_ingest(update).expect("offer");
            }
            let report = fleet.drive().expect("fleet drive");
            spawned += report
                .scaling
                .iter()
                .map(|a| a.decision.spawned())
                .sum::<u32>();
        },
    );
    assert!(spawned > 0, "the spike must re-split node subtrees");

    // Two live backends and a training driver over one of them hold one set
    // between them, not one each: the driver's training levels and the
    // cluster's encodes and stations all run on the session's set. Twenty
    // driver rounds keep exactly its threads, and dropping the last handle
    // joins them.
    let mut rng = lifl_simcore::SimRng::from_seed(3);
    let dataset = FederatedDataset::generate(
        DatasetConfig {
            num_clients: 16,
            num_features: 8,
            num_classes: 4,
            mean_samples_per_client: 20,
            dirichlet_alpha: 0.5,
            test_samples: 64,
            noise_std: 0.4,
        },
        &mut rng,
    );
    let population = Population::generate(
        PopulationConfig {
            total_clients: 16,
            active_per_round: 8,
            availability: ClientAvailability::AlwaysOn,
            mean_samples: 20,
            speed_spread: 0.3,
        },
        &mut rng,
    );
    let before = threads();
    let mut session = SessionBuilder::new()
        .topology(Topology::new(vec![8, 16]).expect("topology"))
        .build()
        .expect("session");
    let cluster = ClusterBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
        .codec(CodecKind::Uniform8)
        .build()
        .expect("cluster");
    let mut driver = TrainingDriver::new(cluster, dataset, population, TrainingConfig::default());
    session.ingest_all(small(128)).expect("ingest");
    session.drive().expect("drive");
    driver.run_round(&mut rng).expect("driver round");
    let warm = threads();
    assert_eq!(
        workers(&warm),
        workers(&before) + per_set,
        "two backends and a driver, one worker set: {warm:?}"
    );
    for k in 1..20 {
        driver.run_round(&mut rng).expect("driver round");
        assert_eq!(threads(), warm, "driver round {k} changed the threads");
    }
    drop(session);
    assert_eq!(threads(), warm, "the driver still holds the set");
    drop(driver);
    joined_down_to(workers(&before), "two backends and a driver");

    // Phase 9: a steady-state lossy cluster round on the deferred ingress
    // path, with model-sized updates. Each offer only routes and counts its
    // update; the error-feedback encode runs as a job on the cluster's
    // worker set (or inline, when more jobs wait than there are workers)
    // and lands in offer order. The round allocates nothing model-sized but
    // the model `drive()` returns, and runs on exactly the threads the first
    // round left — the same ids, the same names.
    let before = threads();
    let mut cluster = ClusterBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
        .codec(CodecKind::Uniform8)
        .build()
        .expect("cluster");
    // `size` offers of model-sized updates, every round of `count`.
    let cluster_rounds = |count: usize, size: u64| -> Vec<Vec<Update>> {
        (0..count)
            .map(|_| {
                (0..size)
                    .map(|c| {
                        let model = clients[c as usize % clients.len()].1.clone();
                        Update::dense(ClientId::new(100 + c), model, 1 + c)
                    })
                    .collect()
            })
            .collect()
    };
    let cluster_round = |cluster: &mut lifl_core::cluster::Cluster, round: Vec<Update>| -> u64 {
        let before = model_sized_allocs();
        let size = round.len() as u64;
        for update in round {
            assert!(cluster.try_ingest(update).expect("offer").is_admitted());
        }
        let report = cluster.drive().expect("cluster drive");
        assert_eq!(report.update.samples, (1..=size).sum::<u64>());
        model_sized_allocs() - before
    };
    for round in cluster_rounds(WARM_UP, 8) {
        cluster_round(&mut cluster, round);
    }
    let warm = threads();
    assert_eq!(
        workers(&warm),
        workers(&before) + per_set,
        "one more worker set: {warm:?}"
    );
    for round in cluster_rounds(MEASURED, 8) {
        assert_eq!(
            cluster_round(&mut cluster, round),
            1,
            "deferred encodes + drive() must allocate only the returned model"
        );
        assert_eq!(threads(), warm, "a deferred round changed the threads");
    }
    drop(cluster);

    // …and across a fleet re-split. Under leaf bounds (3, 3) every node's
    // [2, 2] subtree is re-split to three leaves at the first round
    // boundary, on the cluster's worker set. The first round of the new
    // shape sizes its new positions' accumulators; from the next one on,
    // the node subtrees' one-forest drive is back to the one model it
    // returns, on exactly the threads the first round left.
    let mut fleet = ClusterBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
        .codec(CodecKind::Uniform8)
        .fleet_scaling(FleetConfig::default().with_leaf_bounds(3, 3))
        .build()
        .expect("fleet");
    for round in cluster_rounds(1, 8) {
        cluster_round(&mut fleet, round);
    }
    let warm = threads();
    assert_eq!(fleet.node_leaves(), vec![3, 3], "the boundary re-split");
    for round in cluster_rounds(1, 12) {
        cluster_round(&mut fleet, round);
    }
    for round in cluster_rounds(MEASURED, 12) {
        assert_eq!(
            cluster_round(&mut fleet, round),
            1,
            "a re-split fleet's drive must allocate only the returned model"
        );
        assert_eq!(threads(), warm, "a re-split changed the threads");
    }
    assert_eq!(fleet.node_leaves(), vec![3, 3]);
    drop(fleet);

    // Phase 10: a child kill inside a drive, on a lossless and a lossy
    // fault-tolerant cluster. The killed node restarts by re-delivering the
    // keys its store already holds, and the same drive re-plans and
    // completes: nothing is copied, cached, re-sent or re-encoded, so the
    // round allocates nothing model-sized but the model `drive()` returns —
    // exactly an undisturbed round. (The checkpoint period is out of reach,
    // so no checkpoint copy falls into the measured rounds.)
    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        let mut cluster = ClusterBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).expect("topology"))
            .codec(codec)
            .fault_tolerance(FaultToleranceConfig {
                checkpoint_every: u64::MAX,
                ..FaultToleranceConfig::default()
            })
            .build()
            .expect("fault-tolerant cluster");
        let kill_round = |cluster: &mut lifl_core::cluster::Cluster, round| {
            cluster
                .schedule_node_failure(NodeId::new(1), 1)
                .expect("schedule");
            cluster_round(cluster, round)
        };
        for round in cluster_rounds(WARM_UP, 8) {
            kill_round(&mut cluster, round);
        }
        for round in cluster_rounds(MEASURED, 8) {
            assert_eq!(
                kill_round(&mut cluster, round),
                1,
                "{codec}: a killed node's restart and the re-planned drive must \
                 allocate only the returned model"
            );
        }
        let stats = cluster.fault_stats().expect("fault tolerance is on");
        let rounds = (WARM_UP + MEASURED) as u64;
        assert_eq!((stats.node_restarts, stats.deduped_hops), (rounds, rounds));
        assert_eq!(stats.lost_updates, 4 * rounds);
    }
}
