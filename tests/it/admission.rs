//! The streaming-admission tier: property tests over the bounded ingress
//! path — conservation of offers under random arrival mixes, monotone
//! backpressure as queues fill, and churn-safe draining that never drops or
//! double-folds a survivor — plus the parity table proving `Session` and
//! `Cluster`, `try_ingest` and `ingest`, are one pipeline. The whole suite
//! re-runs on the scalar kernel arm via the `test-scalar` CI step
//! (`LIFL_FORCE_SCALAR=1`).

use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_fl::aggregate::{fedavg, ModelUpdate};
use lifl_fl::codec::UpdateCodec;
use lifl_fl::DenseModel;
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, LiflError, SimDuration, Topology,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A deterministic dense update for `client`, weighted `client + 1` samples.
fn update(client: u64, dim: usize) -> ModelUpdate {
    let values: Vec<f32> = (0..dim)
        .map(|d| ((client as usize * dim + d * 7) % 101) as f32 * 0.03 - 1.5)
        .collect();
    ModelUpdate::from_client(
        ClientId::new(client),
        DenseModel::from_vec(values),
        client + 1,
    )
}

/// Regression: a lossy offer the full round's queue turns away used to be
/// encoded before the budget was checked — its client's residual moved and
/// the shared rounding stream advanced, shifting every later client's bits.
/// Now the fit is decided from the wire length first and a rejected offer
/// touches nothing: the session matches one that never saw it, bit for bit.
#[test]
fn a_budget_rejected_lossy_offer_changes_no_later_bit() {
    let bits = |session: &mut Session| -> Vec<u32> {
        let report = session.drive().unwrap();
        report
            .update
            .model
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    for codec in [CodecKind::Uniform8, CodecKind::Uniform4] {
        let build = || {
            // One queue slot per leaf: two offers park, the third is turned
            // away.
            SessionBuilder::new()
                .two_level(2, 2)
                .codec(codec)
                .admission(AdmissionConfig::bounded(1, 1 << 20))
                .build()
                .unwrap()
        };
        let (mut disturbed, mut control) = (build(), build());
        let mut models = Vec::new();
        for (session, reject) in [(&mut disturbed, true), (&mut control, false)] {
            let mut rounds = Vec::new();
            for client in 0..4 {
                session.ingest(Update::Dense(update(client, 64))).unwrap();
            }
            rounds.push(bits(session));
            for client in 0..4 {
                session
                    .ingest(Update::Dense(update(client + 10, 64)))
                    .unwrap();
            }
            for client in 20..22 {
                let parked = session.try_ingest(Update::Dense(update(client, 64)));
                assert!(parked.unwrap().is_queued(), "{codec}");
            }
            if reject {
                // Client 0 carries a residual from round 1.
                let refused = session.try_ingest(Update::Dense(update(0, 64)));
                assert!(refused.unwrap().is_rejected(), "{codec}");
            }
            rounds.push(bits(session));
            // The two parked offers drained in; clients 0 and 1 top it up.
            for client in 0..2 {
                session.ingest(Update::Dense(update(client, 64))).unwrap();
            }
            rounds.push(bits(session));
            models.push(rounds);
        }
        assert_eq!(
            models[0], models[1],
            "{codec}: a rejected offer moved a bit"
        );
    }
}

proptest! {
    /// Conservation: however many updates are offered, in whatever order,
    /// every one is accounted for exactly once — admitted into the round,
    /// parked in a queue, or rejected — and the session's own counters agree
    /// with the caller's tally.
    #[test]
    fn offers_are_conserved_under_random_arrivals(
        leaves in 1usize..=4,
        fan in 1usize..=3,
        slots in 1usize..=3,
        offered in 0u64..=40,
    ) {
        let mut session = SessionBuilder::new()
            .topology(Topology::two_level(leaves, fan))
            .admission(AdmissionConfig::bounded(slots, 1 << 20))
            .build()
            .unwrap();
        let capacity = (leaves * fan) as u64;
        let (mut admitted, mut queued, mut rejected) = (0u64, 0u64, 0u64);
        for client in 0..offered {
            match session.try_ingest(Update::Dense(update(client, 8))).unwrap() {
                AdmissionOutcome::Admitted => admitted += 1,
                AdmissionOutcome::Queued { .. } => queued += 1,
                AdmissionOutcome::Rejected { .. } => rejected += 1,
            }
        }
        prop_assert_eq!(admitted + queued + rejected, offered);
        prop_assert_eq!(admitted, offered.min(capacity));
        prop_assert_eq!(session.pending_updates(), admitted);
        prop_assert_eq!(session.queued_updates() as u64, queued);
        let stats = session.admission_stats();
        prop_assert_eq!(stats.queued, queued);
        prop_assert_eq!(stats.rejected, rejected);
        // The parked backlog never exceeds its configured slot budget.
        prop_assert!(session.queued_updates() <= leaves * slots);
    }

    /// Monotone backpressure: with uniform payloads the outcome sequence
    /// only ever escalates — a block of `Admitted`, then `Queued`, then
    /// `Rejected`; it never relaxes while nothing drains. Each leaf queue's
    /// reported depth climbs by exactly one per offer it absorbs.
    #[test]
    fn backpressure_is_monotone_in_queue_depth(
        leaves in 1usize..=4,
        fan in 1usize..=3,
        slots in 1usize..=4,
        extra in 0usize..=12,
    ) {
        let mut session = SessionBuilder::new()
            .topology(Topology::two_level(leaves, fan))
            .admission(AdmissionConfig::bounded(slots, 1 << 20))
            .build()
            .unwrap();
        let capacity = leaves * fan;
        let offered = capacity + leaves * slots + extra;
        let mut outcomes = Vec::with_capacity(offered);
        let mut depths = Vec::new();
        for client in 0..offered as u64 {
            let outcome = session.try_ingest(Update::Dense(update(client, 8))).unwrap();
            if let AdmissionOutcome::Queued { depth } = outcome {
                depths.push(depth);
            }
            outcomes.push(outcome);
        }
        // Severity never decreases: Admitted(0) -> Queued(1) -> Rejected(2).
        let severity = |o: &AdmissionOutcome| match o {
            AdmissionOutcome::Admitted => 0,
            AdmissionOutcome::Queued { .. } => 1,
            AdmissionOutcome::Rejected { .. } => 2,
        };
        for pair in outcomes.windows(2) {
            prop_assert!(
                severity(&pair[0]) <= severity(&pair[1]),
                "backpressure relaxed: {:?} after {:?}",
                pair[1],
                pair[0]
            );
        }
        // Queued offers round-robin the leaf queues: the i-th parked offer
        // lands on leaf i % leaves at depth i / leaves + 1.
        for (i, depth) in depths.iter().enumerate() {
            prop_assert_eq!(*depth, i / leaves + 1);
        }
        prop_assert_eq!(depths.len(), leaves * slots);
    }

    /// Churn-safe draining: departing any subset of clients mid-round never
    /// drops a survivor, never folds anyone twice, and refills reclaimed
    /// slots from the backlog — the driven aggregate is exactly the FedAvg
    /// of the final roster.
    #[test]
    fn churn_never_drops_or_double_folds_a_survivor(
        departures in proptest::collection::vec(0u64..10, 0..=10),
    ) {
        const CAPACITY: usize = 6;
        const OFFERED: u64 = 10;
        let departed: BTreeSet<u64> = departures.into_iter().collect();
        let mut session = SessionBuilder::new()
            .topology(Topology::two_level(3, 2))
            .admission(AdmissionConfig::bounded(4, 1 << 20).with_quorum(1))
            .build()
            .unwrap();
        for client in 0..OFFERED {
            let outcome = session.try_ingest(Update::Dense(update(client, 8))).unwrap();
            prop_assert_eq!(
                outcome.is_admitted(),
                client < CAPACITY as u64,
                "first {} offers fill the round, the rest park",
                CAPACITY
            );
        }
        for client in &departed {
            session.depart_client(ClientId::new(*client));
        }
        let roster: Vec<ClientId> = session
            .round_clients()
            .into_iter()
            .flatten()
            .collect();
        // No departed client survives, and nobody is folded twice.
        let unique: BTreeSet<ClientId> = roster.iter().copied().collect();
        prop_assert_eq!(unique.len(), roster.len(), "duplicate fold: {:?}", roster);
        for client in &roster {
            prop_assert!(
                !departed.contains(&client.index()),
                "departed client {:?} still in the round",
                client
            );
        }
        // Every live client is accounted for: the round holds as many as it
        // can, the backlog parks the rest.
        let live = OFFERED as usize - departed.len();
        prop_assert_eq!(roster.len(), live.min(CAPACITY));
        prop_assert_eq!(session.queued_updates(), live.saturating_sub(CAPACITY));
        if roster.is_empty() {
            // Everyone left: the quorum of one is unmet and the round says so.
            prop_assert!(session.drive().is_err());
            return Ok(());
        }
        let expected: Vec<ModelUpdate> =
            roster.iter().map(|c| update(c.index(), 8)).collect();
        let flat = fedavg(&expected).unwrap();
        let report = session.drive().unwrap();
        prop_assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }
}

// ---------------------------------------------------------------------------
// Parity across doors and backends.
// ---------------------------------------------------------------------------

const PARITY_DIM: usize = 16;
/// Both parity backends aggregate 4 updates over 2 slots (leaves of the
/// session, nodes of the cluster), so their queues have the same budget.
const PARITY_CAPACITY: u64 = 4;

fn parity_retry() -> SimDuration {
    SimDuration::from_millis(125.0)
}

/// A session or a cluster behind the calls the parity table makes.
enum Backend {
    Session(Box<Session>),
    Cluster(Box<Cluster>),
}

impl Backend {
    fn build(cluster: bool, codec: CodecKind, admission: bool) -> Backend {
        // One queue slot per leaf/node: two offers park, the third is
        // turned away.
        let config = AdmissionConfig::bounded(1, 1 << 20).with_retry_after(parity_retry());
        if cluster {
            let mut builder = ClusterBuilder::new()
                .topology(Topology::new(vec![2, 1, 2]).unwrap())
                .codec(codec);
            if admission {
                builder = builder.admission(config);
            }
            Backend::Cluster(Box::new(builder.build().unwrap()))
        } else {
            let mut builder = SessionBuilder::new().two_level(2, 2).codec(codec);
            if admission {
                builder = builder.admission(config);
            }
            Backend::Session(Box::new(builder.build().unwrap()))
        }
    }

    fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome, LiflError> {
        match self {
            Backend::Session(s) => s.try_ingest(update),
            Backend::Cluster(c) => c.try_ingest(update),
        }
    }

    fn ingest(&mut self, update: Update) -> Result<(), LiflError> {
        match self {
            Backend::Session(s) => s.ingest(update),
            Backend::Cluster(c) => c.ingest(update),
        }
    }

    fn depart_client(&mut self, client: u64) -> bool {
        match self {
            Backend::Session(s) => s.depart_client(ClientId::new(client)),
            Backend::Cluster(c) => c.depart_client(ClientId::new(client)),
        }
    }

    /// (pending, queued, per-slot view of the open round): the round's
    /// clients in arrival order for a session, the per-node fill for a
    /// cluster.
    fn observe(&self) -> (u64, usize, Vec<u64>) {
        match self {
            Backend::Session(s) => (
                s.pending_updates(),
                s.queued_updates(),
                s.round_clients()
                    .into_iter()
                    .map(|c| c.map_or(u64::MAX, |c| c.index()))
                    .collect(),
            ),
            Backend::Cluster(c) => (
                c.pending_updates(),
                c.queued_updates(),
                c.node_sessions()
                    .iter()
                    .map(Session::pending_updates)
                    .collect(),
            ),
        }
    }

    /// Drives the round; the model as bits, so that a differently routed
    /// (differently grouped, differently rounded) fold cannot pass.
    fn drive(&mut self) -> (Vec<u32>, u64) {
        let update = match self {
            Backend::Session(s) => s.drive().unwrap().update,
            Backend::Cluster(c) => c.drive().unwrap().update,
        };
        let bits = update
            .model
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (bits, update.samples)
    }
}

/// The state an offer meets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Meets {
    /// One update in, three slots open.
    Room,
    /// A full round whose client 1 departed: one slot open, and it is a
    /// vacancy the next admitted update must land in.
    Vacancy,
    /// A full round, empty queues.
    FullWithBudget,
    /// A full round, every queue slot taken.
    FullExhausted,
    /// A full round and no admission configured.
    FullNoAdmission,
}

impl Meets {
    fn prepare(self, cluster: bool, codec: CodecKind) -> Backend {
        let mut backend = Backend::build(cluster, codec, self != Meets::FullNoAdmission);
        let fill = if self == Meets::Room {
            1
        } else {
            PARITY_CAPACITY
        };
        for client in 0..fill {
            backend
                .ingest(Update::Dense(update(client, PARITY_DIM)))
                .unwrap();
        }
        if self == Meets::Vacancy {
            assert!(backend.depart_client(1));
        }
        if self == Meets::FullExhausted {
            for client in 50..52 {
                let parked = backend.try_ingest(Update::Dense(update(client, PARITY_DIM)));
                assert!(parked.unwrap().is_queued());
            }
        }
        backend
    }
}

/// What kind of answer an offer got.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Admitted,
    Queued,
    Rejected,
    CodecError,
}

fn classify(outcome: &Result<AdmissionOutcome, LiflError>) -> Class {
    match outcome {
        Ok(AdmissionOutcome::Admitted) => Class::Admitted,
        Ok(AdmissionOutcome::Queued { .. }) => Class::Queued,
        Ok(AdmissionOutcome::Rejected { .. }) => Class::Rejected,
        Err(LiflError::Codec(_)) => Class::CodecError,
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

/// Every representation an update can be offered in, and whether it is
/// well-formed.
fn representations() -> Vec<(&'static str, Update, bool)> {
    let model = update(20, PARITY_DIM).model;
    let dense_le: Vec<u8> = model
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let encoded = UpdateCodec::with_seed(CodecKind::Uniform8, 7).encode(&model);
    let wire = encoded.to_bytes();
    vec![
        ("dense", Update::Dense(update(20, PARITY_DIM)), true),
        (
            "anonymous dense",
            Update::Dense(ModelUpdate::intermediate(model, 3)),
            true,
        ),
        (
            "encoded",
            Update::encoded(ClientId::new(21), encoded, 5),
            true,
        ),
        (
            "encoded remote bytes",
            Update::remote_bytes(wire, 6, true),
            true,
        ),
        (
            "dense remote bytes",
            Update::remote_bytes(dense_le, 2, false),
            true,
        ),
        (
            "malformed encoded remote bytes",
            Update::remote_bytes(vec![1u8, 2], 1, true),
            false,
        ),
    ]
}

/// Pre-encoded probe updates: admitting them consumes nothing of the
/// backend's own ingress encoder, so a backend that encoded (and then
/// rejected) an offer stays comparable with one that never saw it.
fn probe(client: u64) -> Update {
    let encoded = UpdateCodec::with_seed(CodecKind::Uniform8, client)
        .encode(&update(client, PARITY_DIM).model);
    Update::encoded(ClientId::new(client), encoded, client + 1)
}

/// Fills the open round with probes from `client` on; returns the next
/// unused probe client.
fn top_up(backend: &mut Backend, mut client: u64) -> u64 {
    while backend.observe().0 < PARITY_CAPACITY {
        assert!(backend.try_ingest(probe(client)).unwrap().is_admitted());
        client += 1;
    }
    client
}

/// One table over every update representation x every state an offer can
/// meet x both backends: `try_ingest` answers in the same class on `Session`
/// and `Cluster`, `ingest` answers exactly `try_ingest`'s outcome mapped
/// (`Ok` / `Ok` / `RoundFull` / `RoundFull`, errors as they are), and an
/// offer that failed or was rejected leaves no trace — fill, backlog and
/// routing are those of a backend that never saw it.
#[test]
fn every_door_and_backend_is_the_same_pipeline() {
    let states = [
        Meets::Room,
        Meets::Vacancy,
        Meets::FullWithBudget,
        Meets::FullExhausted,
        Meets::FullNoAdmission,
    ];
    let codec = CodecKind::Uniform8;
    for (name, offer, well_formed) in representations() {
        for meets in states {
            let expected = match (meets, well_formed) {
                // Without queues an offer to a full round is turned away
                // untouched, whatever it holds.
                (Meets::FullNoAdmission, _) => Class::Rejected,
                (_, false) => Class::CodecError,
                (Meets::Room | Meets::Vacancy, true) => Class::Admitted,
                (Meets::FullWithBudget, true) => Class::Queued,
                (Meets::FullExhausted, true) => Class::Rejected,
            };
            for cluster in [false, true] {
                let case = format!("{name} x {meets:?} x cluster={cluster}");
                let mut offered = meets.prepare(cluster, codec);
                let before = offered.observe();

                // The streaming door.
                let outcome = offered.try_ingest(offer.clone());
                assert_eq!(classify(&outcome), expected, "{case}");
                if meets == Meets::FullExhausted && well_formed {
                    assert_eq!(
                        outcome,
                        Ok(AdmissionOutcome::Rejected {
                            retry_after: parity_retry()
                        }),
                        "{case}"
                    );
                }

                // The strict door, on a backend in the same state.
                let strict = meets.prepare(cluster, codec).ingest(offer.clone());
                let mapped = match outcome.clone() {
                    Ok(AdmissionOutcome::Rejected { .. }) => Err(LiflError::RoundFull {
                        capacity: PARITY_CAPACITY as usize,
                    }),
                    Ok(_) => Ok(()),
                    Err(error) => Err(error),
                };
                assert_eq!(strict, mapped, "{case}");

                if matches!(expected, Class::Admitted | Class::Queued) {
                    continue;
                }
                // Failed or rejected: no trace. Compare with a control that
                // never saw the offer — now, after the next admitted updates
                // landed, and in what both drive.
                let mut control = meets.prepare(cluster, codec);
                assert_eq!(offered.observe(), before, "{case}");
                assert_eq!(offered.observe(), control.observe(), "{case}");
                let next = top_up(&mut offered, 100);
                assert_eq!(top_up(&mut control, 100), next, "{case}");
                assert_eq!(offered.observe(), control.observe(), "{case}");
                assert_eq!(offered.drive(), control.drive(), "{case}");
                // The boundary drained the same backlog into the same slots.
                assert_eq!(offered.observe(), control.observe(), "{case}");
                top_up(&mut offered, next);
                top_up(&mut control, next);
                assert_eq!(offered.drive(), control.drive(), "{case}");
            }
        }
    }
}
