//! The update-codec tier: proves the quantized data plane equivalent to the
//! seed fold semantics where it must be (Identity bit-exactness), close
//! where it may drift (lossy codecs under error feedback), and cheaper where
//! it promises to be (wire and shared-memory byte counters shrink
//! monotonically Identity → Uniform8 → Uniform4) — all through the unified
//! `Session` API.

use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::session::{Session, SessionBuilder, SessionReport, Update};
use lifl_fl::aggregate::{fedavg, CumulativeFedAvg, ModelUpdate};
use lifl_fl::codec::{EncodedUpdate, EncodedView, UpdateCodec};
use lifl_fl::DenseModel;
use lifl_shmem::{PoolStats, StoreStats};
use lifl_sim::config::{ClusterConfig, LiflConfig};
use lifl_sim::platform::{LiflPlatform, RoundSpec};
use lifl_types::{AdmissionOutcome, ClientId, CodecKind, LiflError, ModelKind, SimTime, Topology};

fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let values: Vec<f32> = (0..dim)
                .map(|d| ((i * dim + d) % 97) as f32 * 0.021 - 1.0)
                .collect();
            ModelUpdate::from_client(
                ClientId::new(i as u64),
                DenseModel::from_vec(values),
                (i % 5 + 1) as u64,
            )
        })
        .collect()
}

fn session(codec: CodecKind) -> Session {
    SessionBuilder::new()
        .topology(Topology::two_level(4, 2))
        .codec(codec)
        .build()
        .expect("session")
}

fn drive(codec: CodecKind, updates: &[ModelUpdate]) -> SessionReport {
    let mut session = session(codec);
    session
        .ingest_all(updates.iter().cloned().map(Update::Dense))
        .expect("ingest");
    session.drive().expect("drive")
}

/// Acceptance: the `Identity` codec is bit-exact with the seed fold
/// semantics, end to end through gateway, shared memory and the threaded
/// two-level hierarchy. The reference is restated from first principles:
/// update *k* of a round feeds leaf `k % leaves`, each leaf folds its
/// arrivals in arrival order, and the top folds the leaves in leaf order —
/// the same cumulative FedAvg a flat accumulator computes.
#[test]
fn identity_codec_bit_exact_with_pre_codec_path() {
    let updates = updates(8, 64);
    let leaves = 4;
    let mut leaf_folds: Vec<CumulativeFedAvg> =
        (0..leaves).map(|_| CumulativeFedAvg::new(64)).collect();
    for (k, update) in updates.iter().enumerate() {
        leaf_folds[k % leaves].fold(update).expect("leaf fold");
    }
    let mut top = CumulativeFedAvg::new(64);
    for mut leaf in leaf_folds {
        let merged = leaf.finalize().expect("leaf finalize");
        top.fold(&merged).expect("top fold");
    }
    let reference = top.finalize().expect("top finalize");
    let session_report = drive(CodecKind::Identity, &updates);
    assert_eq!(session_report.update.samples, reference.samples);
    for (a, b) in session_report
        .update
        .model
        .as_slice()
        .iter()
        .zip(reference.model.as_slice())
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "identity session diverged from the seed fold semantics: {a} vs {b}"
        );
    }
    // Nothing was stored compressed on the identity path, and every client
    // payload crossed the ingress dense: 8 updates × 64 f32 parameters.
    assert_eq!(session_report.store_stats.encoded_puts, 0);
    assert_eq!(session_report.ingress_wire_bytes, 8 * 64 * 4);
}

/// Every codec's end-to-end aggregate stays within its quantization error of
/// the exact flat FedAvg result.
#[test]
fn every_codec_aggregates_correctly() {
    let updates = updates(8, 64);
    let exact = fedavg(&updates).expect("flat fedavg");
    let max_abs = updates
        .iter()
        .flat_map(|u| u.model.as_slice())
        .fold(0.0f32, |a, v| a.max(v.abs()));
    for codec in CodecKind::ablation_set() {
        let report = drive(codec, &updates);
        assert_eq!(report.update.samples, exact.samples, "{codec}");
        let tolerance = match codec {
            CodecKind::Identity => 1e-6,
            // Client + leaf quantization stages, one step each.
            CodecKind::Uniform8 => 3.0 * max_abs / 127.0,
            CodecKind::Uniform4 => 3.0 * max_abs / 7.0,
            // Top-k drops small coordinates outright; bound by the largest
            // magnitude a dropped coordinate can have.
            CodecKind::TopK { .. } => max_abs,
        };
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(exact.model.as_slice())
        {
            assert!(
                (a - b).abs() <= tolerance,
                "{codec}: |{a} - {b}| > {tolerance}"
            );
        }
    }
}

/// Shared-memory byte counters shrink strictly and monotonically
/// Identity → Uniform8 → Uniform4, measured from the store's own accounting.
#[test]
fn shmem_bytes_shrink_monotonically_with_codec_strength() {
    let updates = updates(8, 256);
    let mut previous: Option<(CodecKind, u64, u64)> = None;
    for codec in [
        CodecKind::Identity,
        CodecKind::Uniform8,
        CodecKind::Uniform4,
    ] {
        let report = drive(codec, &updates);
        // Nothing recycles in this run, so the peak is the real total
        // footprint every payload (client + intermediate) left in the store.
        let stored = report.store_stats.peak_bytes;
        let wire = report.ingress_wire_bytes;
        if let Some((prev_codec, prev_stored, prev_wire)) = previous {
            assert!(
                stored < prev_stored,
                "{codec} stored {stored} !< {prev_codec} stored {prev_stored}"
            );
            assert!(
                wire < prev_wire,
                "{codec} wire {wire} !< {prev_codec} wire {prev_wire}"
            );
        }
        previous = Some((codec, stored, wire));
    }
}

/// Acceptance: on the default workload the platform reports a >= 4x
/// bytes-on-wire reduction for Uniform8 vs Identity, and the counters keep
/// shrinking through Uniform4.
#[test]
fn platform_round_wire_bytes_shrink_at_least_4x_for_uniform8() {
    let spec = RoundSpec::simultaneous(ModelKind::ResNet152, 60, SimTime::ZERO);
    let mut bytes = Vec::new();
    for codec in [
        CodecKind::Identity,
        CodecKind::Uniform8,
        CodecKind::Uniform4,
    ] {
        let config = LiflConfig {
            codec,
            ..LiflConfig::default()
        };
        let mut platform = LiflPlatform::new(ClusterConfig::default(), config);
        let report = platform.run_round(&spec);
        assert_eq!(report.metrics.updates_aggregated, 60, "{codec}");
        bytes.push(report.metrics.inter_node_bytes);
    }
    assert!(
        bytes[0] >= 4 * bytes[1],
        "uniform8 reduction only {:.3}x",
        bytes[0] as f64 / bytes[1] as f64
    );
    assert!(bytes[1] > bytes[2], "uniform4 must shrink below uniform8");
}

/// Acceptance: batch draining through the whole threaded hierarchy folds
/// the same bits on every drive, for both the dense and the encoded data
/// plane. A station folds on the thread that claims it whatever
/// `SessionBuilder::shards` says, so a repeat drive is the sharded one.
#[test]
fn sharded_hierarchy_is_bit_identical_to_sequential() {
    let updates = updates(8, 4096);
    for codec in [CodecKind::Identity, CodecKind::Uniform8] {
        let sequential = drive(codec, &updates);
        let sharded = drive(codec, &updates);
        assert_eq!(sharded.update.samples, sequential.update.samples);
        for (a, b) in sharded
            .update
            .model
            .as_slice()
            .iter()
            .zip(sequential.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{codec} diverged: {a} vs {b}");
        }
    }
}

/// The lossy codecs genuinely compress shared memory (the store's
/// dense-equivalent accounting versus real bytes).
#[test]
fn store_reports_real_savings_for_lossy_codecs() {
    let updates = updates(8, 512);
    for codec in [
        CodecKind::Uniform8,
        CodecKind::Uniform4,
        CodecKind::TopK { permille: 125 },
    ] {
        let report = drive(codec, &updates);
        let stats = report.store_stats;
        assert!(stats.encoded_puts > 0, "{codec} stored nothing compressed");
        assert!(
            stats.bytes_saved() > 0,
            "{codec} saved no bytes: encoded {} vs dense {}",
            stats.encoded_bytes,
            stats.dense_equivalent_bytes
        );
    }
}

/// Regression: one client's shape change costs *that* client its
/// error-feedback residual and nobody else's. Client 0, known to the session
/// at 64 parameters, offers 65 (all zero, so the quantizers draw nothing for
/// it) and the operator discards that round; the next round of honest
/// clients must then be byte for byte what a control session that never saw
/// the bad offer produces — same compensation, same wire bytes, same model.
/// It used to wipe every residual, silently biasing everybody's next round.
#[test]
fn a_wrong_dimension_offer_leaves_other_clients_compensation_alone() {
    let all = updates(5, 64);
    let offer = |session: &mut Session, update: &ModelUpdate| {
        let outcome = session.try_ingest(Update::Dense(update.clone()));
        assert!(outcome.expect("offer").is_admitted());
    };
    for codec in [
        CodecKind::Uniform8,
        CodecKind::Uniform4,
        CodecKind::TopK { permille: 125 },
    ] {
        let mut reports = Vec::new();
        for bad_offer in [false, true] {
            let mut session = SessionBuilder::new()
                .two_level(2, 2)
                .codec(codec)
                .build()
                .expect("session");
            for update in &all[..4] {
                offer(&mut session, update);
            }
            session.drive().expect("round 1");
            if bad_offer {
                let wider = ModelUpdate::from_client(ClientId::new(0), DenseModel::zeros(65), 1);
                offer(&mut session, &wider);
                session.discard_round();
            }
            // Clients 1..=3 carry a residual from round 1; client 4 is new.
            for update in &all[1..] {
                offer(&mut session, update);
            }
            reports.push(session.drive().expect("round 2"));
        }
        let (control, disturbed) = (&reports[0], &reports[1]);
        assert_eq!(
            disturbed.ingress_wire_bytes, control.ingress_wire_bytes,
            "{codec}"
        );
        let bits = |report: &SessionReport| -> Vec<u32> {
            let model = report.update.model.as_slice();
            model.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(disturbed),
            bits(control),
            "{codec}: the honest clients' round changed"
        );
    }
}

/// The dimension of every hostile-input model.
const DIM: u32 = 16;

/// A wire string assembled field by field, exactly as given: the 16-byte
/// descriptor (tag, reserved byte, permille, dim, scale, kept), then `body`.
fn wire(tag: u8, permille: u16, dim: u32, scale: f32, kept: u32, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![tag, 0];
    wire.extend_from_slice(&permille.to_le_bytes());
    wire.extend_from_slice(&dim.to_le_bytes());
    wire.extend_from_slice(&scale.to_le_bytes());
    wire.extend_from_slice(&kept.to_le_bytes());
    wire.extend_from_slice(body);
    wire
}

/// A top-k wire over `dim` parameters whose pairs go out as given.
fn topk(permille: u16, dim: u32, kept: u32, pairs: &[(u32, f32)]) -> Vec<u8> {
    let body: Vec<u8> = pairs
        .iter()
        .flat_map(|(index, value)| [index.to_le_bytes(), value.to_le_bytes()].concat())
        .collect();
    wire(3, permille, dim, 0.0, kept, &body)
}

/// A `Uniform8` wire over [`DIM`] parameters at `scale`.
fn uniform8(scale: f32) -> Vec<u8> {
    wire(1, 0, DIM, scale, DIM, &[3u8; DIM as usize])
}

/// Well-formed wires the hostile rows are cut from: 125 permille of 16
/// keeps 2.
fn well_formed_wires() -> [Vec<u8>; 2] {
    [topk(125, DIM, 2, &[(3, 1.0), (9, 2.0)]), uniform8(0.5)]
}

/// Wire payloads that each break the contract in one way.
fn hostile_wires() -> Vec<(&'static str, Vec<u8>)> {
    let every_index: Vec<(u32, f32)> = (0..DIM).map(|i| (i, 1.0)).collect();
    let mut truncated = uniform8(0.5);
    truncated.pop();
    vec![
        ("unsorted indices", topk(125, DIM, 2, &[(9, 1.0), (3, 2.0)])),
        ("duplicate index", topk(125, DIM, 2, &[(5, 1.0), (5, 2.0)])),
        ("index == dim", topk(125, DIM, 2, &[(3, 1.0), (DIM, 2.0)])),
        (
            "index u32::MAX",
            topk(125, DIM, 2, &[(3, 1.0), (u32::MAX, 2.0)]),
        ),
        (
            "kept != top_k_kept",
            topk(125, DIM, 3, &[(1, 1.0), (3, 2.0), (9, 0.5)]),
        ),
        ("dim u32::MAX keeping 1", topk(1, u32::MAX, 1, &[(0, 1.0)])),
        ("permille 0", topk(0, DIM, 1, &[(3, 1.0)])),
        ("permille 1001", topk(1001, DIM, DIM, &every_index)),
        ("NaN scale", uniform8(f32::NAN)),
        ("+inf scale", uniform8(f32::INFINITY)),
        ("-inf scale", uniform8(f32::NEG_INFINITY)),
        ("negative scale", uniform8(-0.5)),
        ("truncated body", truncated),
        (
            "unknown tag",
            wire(9, 0, DIM, 0.5, DIM, &[3u8; DIM as usize]),
        ),
    ]
}

/// Every hostile row is refused by the one parser and by the owned parse
/// built on it, while the wires they were cut from parse.
#[test]
fn the_parser_refuses_every_hostile_wire() {
    for wire in well_formed_wires() {
        let view = EncodedView::parse(&wire).expect("well-formed");
        assert_eq!(view.dim(), DIM as usize);
        assert!(EncodedUpdate::from_bytes(&wire).is_ok());
    }
    for (name, wire) in hostile_wires() {
        assert!(
            matches!(EncodedView::parse(&wire), Err(LiflError::Codec(_))),
            "{name}: parsed"
        );
        assert!(
            matches!(EncodedUpdate::from_bytes(&wire), Err(LiflError::Codec(_))),
            "{name}: owned parse"
        );
    }
}

/// The two backends behind the one ingest door, as the hostile-input tests
/// see them.
trait Door {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome>;
    /// What a refused offer must leave as it was: the round's fill, every
    /// store's counters and the pool's.
    fn trace(&self) -> (u64, Vec<StoreStats>, PoolStats);
    /// Drives the round; the aggregate's weight and bits.
    fn round(&mut self) -> (u64, Vec<u32>);
    /// Takes `client`'s update back out of the round.
    fn depart(&mut self, client: ClientId) -> bool;
}

fn bits(update: &ModelUpdate) -> (u64, Vec<u32>) {
    let model = update.model.as_slice();
    (update.samples, model.iter().map(|v| v.to_bits()).collect())
}

impl Door for Session {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome> {
        self.try_ingest(update)
    }

    fn trace(&self) -> (u64, Vec<StoreStats>, PoolStats) {
        let stores = vec![self.store().stats()];
        (self.pending_updates(), stores, self.pool().stats())
    }

    fn round(&mut self) -> (u64, Vec<u32>) {
        bits(&self.drive().expect("drive").update)
    }

    fn depart(&mut self, client: ClientId) -> bool {
        self.depart_client(client)
    }
}

impl Door for Cluster {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome> {
        self.try_ingest(update)
    }

    fn trace(&self) -> (u64, Vec<StoreStats>, PoolStats) {
        let stores = self.node_sessions().iter().map(|n| n.store().stats());
        (
            self.pending_updates(),
            stores.collect(),
            self.pool().stats(),
        )
    }

    fn round(&mut self) -> (u64, Vec<u32>) {
        bits(&self.drive().expect("drive").update)
    }

    fn depart(&mut self, client: ClientId) -> bool {
        self.depart_client(client)
    }
}

/// Eight clients, two leaves of two per node, two nodes, quantized at the
/// ingress: residuals, the rounding keys and the pool are all in play.
fn topology() -> Topology {
    Topology::new(vec![2, 2, 2]).expect("topology")
}

fn session_of(codec: CodecKind) -> Session {
    SessionBuilder::new()
        .topology(topology())
        .codec(codec)
        .build()
        .expect("session")
}

fn cluster_of(codec: CodecKind) -> Cluster {
    ClusterBuilder::new()
        .topology(topology())
        .codec(codec)
        .build()
        .expect("cluster")
}

fn session_door() -> Session {
    session_of(CodecKind::Uniform8)
}

fn cluster_door() -> Cluster {
    cluster_of(CodecKind::Uniform8)
}

/// Offers `updates` densely, each of which must be admitted.
fn offer_all(door: &mut impl Door, updates: &[ModelUpdate]) {
    for update in updates {
        let outcome = door.offer(Update::Dense(update.clone())).expect("offer");
        assert!(outcome.is_admitted());
    }
}

/// Every hostile offer — each bad wire as encoded remote bytes, a
/// `Uniform8` wire whose fold factor `weight · scale` overflows, ragged and
/// empty dense remote bytes, and a zero weight and a dimension other than
/// the round's in every `Update` form — is refused by `door` with nothing
/// counted, stored or drawn from the pool, and the rest of the round is bit
/// for bit the one of a twin that never saw any of them.
fn hostile_offers_leave_no_trace<D: Door>(make: impl Fn() -> D) {
    let honest = updates(8, DIM as usize);
    let mut zero = honest[2].clone();
    zero.samples = 0;
    let encode = |model: &DenseModel| UpdateCodec::new(CodecKind::Uniform8).encode(model);
    let wider = updates(1, DIM as usize + 4).remove(0);
    let wider_le: Vec<u8> = (wider.model.as_slice().iter())
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mismatch = Some(LiflError::DimensionMismatch {
        expected: DIM as usize,
        actual: DIM as usize + 4,
    });
    // `None`: refused by the wire contract, with a `Codec` error.
    let mut offers: Vec<(String, Update, Option<LiflError>)> = hostile_wires()
        .into_iter()
        .map(|(name, wire)| (name.to_string(), Update::remote_bytes(wire, 3, true), None))
        .collect();
    offers.extend([
        (
            "overflowing fold factor".into(),
            Update::remote_bytes(uniform8(1e30), 1 << 40, true),
            None,
        ),
        (
            "ragged dense bytes".into(),
            Update::remote_bytes(vec![0u8; 9], 3, false),
            None,
        ),
        (
            "empty dense bytes".into(),
            Update::remote_bytes(Vec::<u8>::new(), 3, false),
            None,
        ),
        (
            "zero-weight dense".into(),
            Update::Dense(zero),
            Some(LiflError::InvalidAggregationGoal(0)),
        ),
        (
            "zero-weight encoded".into(),
            Update::encoded(ClientId::new(2), encode(&honest[2].model), 0),
            Some(LiflError::InvalidAggregationGoal(0)),
        ),
        (
            "zero-weight remote bytes".into(),
            Update::remote_bytes(well_formed_wires()[1].clone(), 0, true),
            Some(LiflError::InvalidAggregationGoal(0)),
        ),
        (
            "wider dense".into(),
            Update::Dense(wider.clone()),
            mismatch.clone(),
        ),
        (
            "wider encoded".into(),
            Update::encoded(ClientId::new(2), encode(&wider.model), 3),
            mismatch.clone(),
        ),
        (
            "wider encoded remote bytes".into(),
            Update::remote_bytes(encode(&wider.model).wire().to_vec(), 3, true),
            mismatch.clone(),
        ),
        (
            "wider dense remote bytes".into(),
            Update::remote_bytes(wider_le, 3, false),
            mismatch,
        ),
    ]);

    // The round's first update pins its dimension. Pre-encoded, it is
    // stored when it is offered, so no encode is in flight while the
    // hostile rows arrive.
    let first = || {
        Update::encoded(
            ClientId::new(0),
            encode(&honest[0].model),
            honest[0].samples,
        )
    };
    let mut twin = make();
    let mut door = make();
    for backend in [&mut twin, &mut door] {
        offer_all(backend, &honest);
        backend.round();
        assert!(backend.offer(first()).expect("first").is_admitted());
    }
    let before = door.trace();
    for (name, update, expected) in offers {
        let refused = door.offer(update).expect_err(&name);
        match expected {
            None => assert!(matches!(refused, LiflError::Codec(_)), "{name}: {refused}"),
            Some(expected) => assert_eq!(refused, expected, "{name}"),
        }
        assert_eq!(door.trace(), before, "{name} left a trace");
    }
    offer_all(&mut twin, &honest[1..]);
    offer_all(&mut door, &honest[1..]);
    assert_eq!(door.round(), twin.round());
}

#[test]
fn a_session_refuses_hostile_offers_without_a_trace() {
    hostile_offers_leave_no_trace(session_door);
}

#[test]
fn a_cluster_refuses_hostile_offers_without_a_trace() {
    hostile_offers_leave_no_trace(cluster_door);
}

/// Regression: a zero-weight offer mid-round was admitted, and the drive
/// then failed the whole round (`InvalidAggregationGoal(0)`), losing every
/// honest update in it. Refused at the door, it leaves the rest of the round
/// to drive to the bits of a twin that never saw it.
fn a_zero_weight_offer_keeps_the_round<D: Door>(make: impl Fn() -> D) {
    let honest = updates(8, DIM as usize);
    let mut zero = honest[2].clone();
    zero.samples = 0;
    let mut twin = make();
    offer_all(&mut twin, &honest);
    let mut door = make();
    offer_all(&mut door, &honest[..2]);
    let refused = door.offer(Update::Dense(zero)).unwrap_err();
    assert_eq!(refused, LiflError::InvalidAggregationGoal(0));
    assert_eq!(door.trace().0, 2);
    offer_all(&mut door, &honest[2..]);
    assert_eq!(door.round(), twin.round());
}

#[test]
fn a_zero_weight_offer_keeps_the_round_of_a_session() {
    a_zero_weight_offer_keeps_the_round(session_door);
}

#[test]
fn a_zero_weight_offer_keeps_the_round_of_a_cluster() {
    a_zero_weight_offer_keeps_the_round(cluster_door);
}

/// Regression: the doors refused only a zero weight, so an offer whose
/// weight took the round's total past `u64::MAX` was admitted, and the
/// fold's sum of weights wrapped (every model value scaled by the wrong
/// factor) or, with overflow checks on, panicked the aggregator. Refused at
/// the door in every `Update` form, the smallest overflowing weight leaves
/// nothing behind, and the rest of the round drives to the bits of a twin
/// that never saw it.
fn an_overflowing_weight_keeps_the_round<D: Door>(make: impl Fn() -> D) {
    let honest = updates(8, DIM as usize);
    let mut twin = make();
    offer_all(&mut twin, &honest);
    let mut door = make();
    offer_all(&mut door, &honest[..2]);
    // Land the two encodes still in flight before the trace is taken, or
    // one may check its buffer out of the pool after it: departing a client
    // the round never saw settles them and changes nothing else.
    assert!(!door.depart(ClientId::new(99)));
    let heavy = u64::MAX - (honest[0].samples + honest[1].samples) + 1;
    let mut dense = honest[2].clone();
    dense.samples = heavy;
    let encoded = UpdateCodec::new(CodecKind::Uniform8).encode(&honest[2].model);
    let before = door.trace();
    for (name, update) in [
        ("dense", Update::Dense(dense)),
        (
            "encoded",
            Update::encoded(ClientId::new(2), encoded.clone(), heavy),
        ),
        (
            "remote bytes",
            Update::remote_bytes(encoded.wire().to_vec(), heavy, true),
        ),
    ] {
        let refused = door.offer(update).expect_err(name);
        assert_eq!(refused, LiflError::InvalidAggregationGoal(heavy), "{name}");
        assert_eq!(door.trace(), before, "{name} left a trace");
    }
    offer_all(&mut door, &honest[2..]);
    assert_eq!(door.round(), twin.round());
}

#[test]
fn an_overflowing_weight_keeps_the_round_of_a_session() {
    an_overflowing_weight_keeps_the_round(session_door);
}

#[test]
fn an_overflowing_weight_keeps_the_round_of_a_cluster() {
    an_overflowing_weight_keeps_the_round(cluster_door);
}

/// A client that departs gives its weight back to the round's total: a heavy
/// first client leaves no room for a second heavy offer until it departs.
fn a_departed_weight_is_given_back<D: Door>(make: impl Fn() -> D) {
    let honest = updates(8, DIM as usize);
    let mut door = make();
    let mut heavy = honest[0].clone();
    heavy.samples = u64::MAX - 100;
    offer_all(&mut door, &[heavy]);
    offer_all(&mut door, &honest[1..3]);
    let mut second = honest[3].clone();
    second.samples = 200;
    let refused = door.offer(Update::Dense(second.clone())).unwrap_err();
    assert_eq!(refused, LiflError::InvalidAggregationGoal(200));
    assert!(door.depart(ClientId::new(0)));
    offer_all(&mut door, &[second]);
    assert_eq!(door.trace().0, 3);
}

#[test]
fn a_departed_weight_is_given_back_to_a_session() {
    a_departed_weight_is_given_back(session_door);
}

#[test]
fn a_departed_weight_is_given_back_to_a_cluster() {
    a_departed_weight_is_given_back(cluster_door);
}

/// A station that encodes the same input round after round dithers it
/// afresh every round, so its decodes average to the input: `R` rounds of
/// the same eight `Uniform8` offers (encoded once, so every leaf folds the
/// same bytes each round) through a backend whose two encoding stations —
/// a session's level below its top, a cluster's node tops on the hop — feed
/// the dense global top, against the same rounds under `Identity`, where
/// nothing is re-quantized.
///
/// The bound: station `l` re-quantizes its output `x_l` at scale `s_l =
/// max|x_l| / 127 ≤ M / 127`, `M` the largest decoded input (a weighted
/// mean is no larger than its inputs), and a coordinate's decode has
/// variance `s_l²·f(1 − f) ≤ s_l² / 4`. The global model is `Σ_l (w_l / W)
/// · decode_l`, so with a fresh key every round the mean of `R` models has
/// σ ≤ `M / 254 · √(Σ_l (w_l / W)² / R) ≤ M / (254·√R)`; each coordinate
/// must lie within 5σ of the `Identity` model, plus `M · 2^-20` for the
/// fold's own f32 roundings. A station that repeated its rounding words
/// every round would average to one round's dither, which misses by up to
/// `s_l` — far outside 5σ once `R` is in the hundreds.
fn a_station_dithers_afresh_every_round<D: Door>(make: impl Fn(CodecKind) -> D, what: &str) {
    const ROUNDS: u32 = 1024;
    let mut codec = UpdateCodec::with_seed(CodecKind::Uniform8, 17);
    let offers: Vec<(ClientId, EncodedUpdate, u64)> = updates(8, 64)
        .into_iter()
        .map(|u| {
            (
                u.client.expect("attributed"),
                codec.encode(&u.model),
                u.samples,
            )
        })
        .collect();
    let largest = (offers.iter())
        .flat_map(|(_, encoded, _)| encoded.decode().as_slice().to_vec())
        .fold(0.0f32, |max, v| max.max(v.abs()));
    let round = |door: &mut D| -> Vec<f32> {
        for (client, encoded, samples) in &offers {
            let update = Update::encoded(*client, encoded.clone(), *samples);
            assert!(door.offer(update).expect("offer").is_admitted());
        }
        door.round().1.into_iter().map(f32::from_bits).collect()
    };
    let exact = round(&mut make(CodecKind::Identity));
    let mut quantized = make(CodecKind::Uniform8);
    let mut sum = vec![0.0f64; exact.len()];
    for _ in 0..ROUNDS {
        for (acc, v) in sum.iter_mut().zip(round(&mut quantized)) {
            *acc += f64::from(v);
        }
    }
    let m = f64::from(largest);
    let bound = 5.0 * m / (254.0 * f64::from(ROUNDS).sqrt()) + m * 2f64.powi(-20);
    for (i, (total, exact)) in sum.iter().zip(&exact).enumerate() {
        let miss = (total / f64::from(ROUNDS) - f64::from(*exact)).abs();
        assert!(
            miss <= bound,
            "{what} element {i}: mean misses by {miss} > {bound}"
        );
    }
}

#[test]
fn a_sessions_level_below_its_top_dithers_afresh_every_round() {
    a_station_dithers_afresh_every_round(session_of, "session");
}

#[test]
fn a_clusters_node_tops_dither_afresh_every_round() {
    a_station_dithers_afresh_every_round(cluster_of, "cluster");
}
