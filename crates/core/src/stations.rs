//! Station execution: every tree position's warm aggregator runtime (§5.3)
//! and the session-lifetime worker set that runs a level's stations.
//!
//! A [`Stations`] holds one [`AggregatorRuntime`] per position of a
//! session's tree for the session's whole life. Each reads its own inbox
//! (level 0 reads the gateway's) and is re-armed at every round with that
//! round's goal, its codec stream restarted at the position seed — the state
//! a freshly built runtime would have — so warm reuse changes no bit.
//!
//! A level runs as a claim counter over its stations on [`Workers`]: the
//! calling thread claims and folds stations itself while the parked workers
//! it woke claim the rest. Each output lands in its station's slot and is
//! handed upward in child-index order, so the result does not depend on
//! which thread ran which station, or on whether a worker woke at all — a
//! late worker only means the caller did more of the level. This module is
//! the only place in the engine that starts a thread (`lifl-lint` R6).

use crate::aggregator::{position_id, AggregatorRuntime};
use crate::gateway::Gateway;
use lifl_fl::codec::UpdateCodec;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::InPlaceQueue;
use lifl_types::{AggregatorId, FoldPolicy, LiflError, ObjectKey, Result, Topology};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

/// Locks `mutex`, recovering the guard if a panic poisoned it: a panicking
/// station is reported through its slot and re-armed before its next run, so
/// no lock here guards state a panic can leave half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle on a set of parked worker threads; clones share the set, which
/// is joined when the last handle drops. The threads are spawned at the
/// first level with two or more stations and park on a condvar between
/// levels, so an idle set costs no CPU.
#[derive(Clone)]
pub(crate) struct Workers {
    set: Arc<WorkerSet>,
}

impl fmt::Debug for Workers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("count", &self.set.count)
            .finish()
    }
}

impl Workers {
    /// One worker per available CPU beyond the caller's.
    pub(crate) fn new() -> Self {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_count(cpus - 1)
    }

    /// A set of exactly `count` workers (0: the caller runs every station).
    pub(crate) fn with_count(count: usize) -> Self {
        Workers {
            set: Arc::new(WorkerSet {
                count,
                board: Arc::new(Board::default()),
                threads: OnceLock::new(),
            }),
        }
    }

    /// Runs `job` once for every index in `0..len` — the calling thread
    /// claims indices beside the workers it wakes — and returns each index's
    /// outcome in index order. A panicking job yields
    /// [`LiflError::Simulation`] in its slot; the thread that ran it goes on
    /// serving.
    pub(crate) fn run<T, F>(&self, len: usize, job: F) -> Vec<Result<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T> + Send + Sync + 'static,
    {
        let level = Arc::new(Level {
            job,
            len,
            next: AtomicUsize::new(0),
            slots: Mutex::new(Slots {
                outputs: (0..len).map(|_| None).collect(),
                filled: 0,
            }),
            all_filled: Condvar::new(),
        });
        let published = len > 1
            && self
                .set
                .publish(Arc::clone(&level) as Arc<dyn Claim>, len - 1);
        level.claim_all();
        let outputs = level.collect();
        if published {
            lock(&self.set.board.state).level = None;
        }
        outputs
    }
}

/// The threads behind [`Workers`] and the board they wait on.
struct WorkerSet {
    count: usize,
    board: Arc<Board>,
    threads: OnceLock<Vec<JoinHandle<()>>>,
}

impl WorkerSet {
    /// Opens `level` to the workers and wakes up to `wanted` of them;
    /// returns whether it was opened (not when the set has no threads). A
    /// caller claims every index nobody else did, so a level no worker ever
    /// sees still completes.
    fn publish(&self, level: Arc<dyn Claim>, wanted: usize) -> bool {
        let threads = self.threads.get_or_init(|| {
            (0..self.count)
                .filter_map(|k| {
                    let board = Arc::clone(&self.board);
                    thread::Builder::new()
                        .name(format!("lifl-station-{k}"))
                        .spawn(move || board.serve())
                        .ok()
                })
                .collect()
        });
        if threads.is_empty() {
            return false;
        }
        let mut state = lock(&self.board.state);
        state.level = Some(level);
        state.epoch += 1;
        drop(state);
        for _ in 0..wanted.min(threads.len()) {
            self.board.wake.notify_one();
        }
        true
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        lock(&self.board.state).shutdown = true;
        self.board.wake.notify_all();
        for handle in self.threads.take().into_iter().flatten() {
            // A worker only ever runs jobs under `catch_unwind`; there is
            // nothing to report from its exit.
            let _ = handle.join();
        }
    }
}

/// Where the caller posts the open level and the workers wait for one.
#[derive(Default)]
struct Board {
    state: Mutex<BoardState>,
    wake: Condvar,
}

#[derive(Default)]
struct BoardState {
    level: Option<Arc<dyn Claim>>,
    /// Bumped at every publish, so a worker joins each level at most once
    /// and waits — rather than re-checking — while its last one is still
    /// open.
    epoch: u64,
    shutdown: bool,
}

impl Board {
    /// A worker's life: wait for a level it has not joined, claim stations
    /// until none is left, repeat until shutdown.
    fn serve(&self) {
        let mut joined = 0;
        loop {
            let level = {
                let mut state = lock(&self.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != joined {
                        joined = state.epoch;
                        if let Some(level) = &state.level {
                            break Arc::clone(level);
                        }
                    }
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            level.claim_all();
        }
    }
}

/// A level as the workers see it.
trait Claim: Send + Sync {
    /// Claims and runs indices until every one has been claimed.
    fn claim_all(&self);
}

/// One level: the job, the claim counter over its `len` indices and one
/// output slot per index.
struct Level<T, F> {
    job: F,
    len: usize,
    next: AtomicUsize,
    slots: Mutex<Slots<T>>,
    all_filled: Condvar,
}

struct Slots<T> {
    outputs: Vec<Option<Result<T>>>,
    filled: usize,
}

impl<T: Send, F: Fn(usize) -> Result<T> + Send + Sync> Claim for Level<T, F> {
    fn claim_all(&self) {
        loop {
            // `Relaxed` suffices: a claim publishes no data. The job reached
            // this thread through the board's mutex, and outputs go back
            // through the slots' mutex.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.len {
                return;
            }
            let output =
                catch_unwind(AssertUnwindSafe(|| (self.job)(index))).unwrap_or_else(|_| {
                    Err(LiflError::Simulation(
                        "aggregator thread panicked".to_string(),
                    ))
                });
            let mut slots = lock(&self.slots);
            if let Some(slot) = slots.outputs.get_mut(index) {
                *slot = Some(output);
            }
            slots.filled += 1;
            if slots.filled == self.len {
                self.all_filled.notify_all();
            }
        }
    }
}

impl<T, F> Level<T, F> {
    /// Waits until every slot is filled and takes the outputs in index
    /// order. Every claimed index fills its slot (a panic included), and the
    /// caller has claimed whatever nobody else did, so the wait ends.
    fn collect(&self) -> Vec<Result<T>> {
        let mut slots = lock(&self.slots);
        while slots.filled < self.len {
            slots = self
                .all_filled
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slots
            .outputs
            .drain(..)
            .map(|output| {
                output.unwrap_or_else(|| {
                    Err(LiflError::Simulation("station left no output".to_string()))
                })
            })
            .collect()
    }
}

/// One tree level's stations: their inboxes and the warm runtimes a level
/// job holds by `Arc`.
#[derive(Debug)]
struct StationLevel {
    inboxes: Vec<InPlaceQueue>,
    runtimes: Arc<[Mutex<AggregatorRuntime>]>,
}

/// Every position of a session's tree, warm for the session's life, and the
/// workers its levels run on.
#[derive(Debug)]
pub(crate) struct Stations {
    topology: Topology,
    /// Where the tree sits in the enclosing one: `(level_offset, branch)`.
    place: (usize, usize),
    levels: Vec<StationLevel>,
    workers: Workers,
}

impl Stations {
    /// Builds one station per position of `topology`, placed at
    /// `(level_offset, branch)` of the enclosing tree (see
    /// [`crate::session::SessionBuilder::tree_position`]): identities are
    /// the enclosing tree's, leaf inboxes are registered with `gateway`
    /// under them, interior stations own theirs, and every runtime encodes
    /// through a clone of `codec` and folds with `shards` and `policy`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for an invalid fold policy.
    pub(crate) fn new(
        topology: &Topology,
        place: (usize, usize),
        gateway: &mut Gateway,
        codec: &UpdateCodec,
        shards: usize,
        policy: FoldPolicy,
        workers: Workers,
    ) -> Result<Self> {
        let mut stations = Stations {
            topology: topology.clone(),
            place,
            levels: Vec::with_capacity(topology.levels()),
            workers,
        };
        for level in 0..topology.levels() {
            let mut inboxes = Vec::with_capacity(topology.width(level));
            let mut runtimes = Vec::with_capacity(topology.width(level));
            for index in 0..topology.width(level) {
                let id = stations.id(level, index);
                let inbox = if level == 0 {
                    gateway.register_aggregator(id)
                } else {
                    InPlaceQueue::new()
                };
                let store = gateway.store().clone();
                let mut runtime = AggregatorRuntime::station(
                    topology,
                    level,
                    id,
                    store,
                    inbox.clone(),
                    codec.clone(),
                )?;
                runtime.set_shards(shards);
                runtime.set_policy(policy)?;
                inboxes.push(inbox);
                runtimes.push(Mutex::new(runtime));
            }
            stations.levels.push(StationLevel {
                inboxes,
                runtimes: runtimes.into(),
            });
        }
        Ok(stations)
    }

    /// The identity of position (`level`, `index`) in the enclosing tree:
    /// the gateway target of a leaf, and every station's codec seed.
    pub(crate) fn id(&self, level: usize, index: usize) -> AggregatorId {
        let (level_offset, branch) = self.place;
        position_id(
            level + level_offset,
            branch * self.topology.width(level) + index,
        )
    }

    /// The gateway inbox of leaf `leaf`.
    pub(crate) fn leaf_inbox(&self, leaf: usize) -> Option<&InPlaceQueue> {
        self.levels.first()?.inboxes.get(leaf)
    }

    /// Runs the tree level by level over what the inboxes hold and returns
    /// the top's output; every intermediate's key is pushed to `round_keys`,
    /// those of a failed level's survivors included, before a failure is
    /// surfaced.
    ///
    /// A full round runs every station to its fan-in. A partial (quorum)
    /// round runs only the stations whose inbox holds something, each to
    /// what it holds, so parents fold only the children that produced
    /// output, in child order; on a full round the two coincide, so
    /// exact-fill results stay bit-exact.
    pub(crate) fn run(&self, full: bool, round_keys: &mut Vec<ObjectKey>) -> Result<QueuedUpdate> {
        let mut top = None;
        for (level, stations) in self.levels.iter().enumerate() {
            let armed: Vec<(usize, u64)> = stations
                .inboxes
                .iter()
                .enumerate()
                .filter_map(|(index, inbox)| {
                    let goal = if full {
                        self.topology.fan_in(level)
                    } else {
                        inbox.len()
                    };
                    (goal > 0).then_some((index, goal as u64))
                })
                .collect();
            let runtimes = Arc::clone(&stations.runtimes);
            let results = self.workers.run(armed.len(), move |k| {
                let (index, goal) = armed[k];
                let mut runtime = lock(&runtimes[index]);
                runtime.rearm(goal)?;
                Ok((index, runtime.run_to_completion()?))
            });
            let mut first_error = None;
            let mut outputs = Vec::with_capacity(results.len());
            for result in results {
                match result {
                    Ok((index, output)) => {
                        round_keys.push(output.key);
                        outputs.push((index, output));
                    }
                    Err(error) => {
                        first_error.get_or_insert(error);
                    }
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
            match self.levels.get(level + 1) {
                // Parent j consumes children j·f .. (j+1)·f, in child order.
                Some(parents) => {
                    let fan_in = self.topology.fan_in(level + 1);
                    for (index, output) in outputs {
                        if let Some(inbox) = parents.inboxes.get(index / fan_in) {
                            inbox.enqueue(output);
                        }
                    }
                }
                None => top = outputs.pop(),
            }
        }
        top.map(|(_, output)| output)
            .ok_or_else(|| LiflError::Simulation("top level produced no output".to_string()))
    }

    /// Empties every station's inbox — what a failed or finished round left
    /// behind — so the next round starts from nothing.
    pub(crate) fn clear(&self) {
        for inbox in self.levels.iter().flat_map(|level| &level.inboxes) {
            while inbox.dequeue().is_some() {}
        }
    }
}

#[cfg(test)]
impl Stations {
    /// Every station's identity, level by level, after checking that its
    /// runtime reports the same identity and — at the leaves — that the
    /// gateway's inbox for it is the station's inbox.
    pub(crate) fn checked_ids(&self, gateway: &mut Gateway) -> Vec<AggregatorId> {
        let mut out = Vec::new();
        for (level, stations) in self.levels.iter().enumerate() {
            for (index, runtime) in stations.runtimes.iter().enumerate() {
                let id = self.id(level, index);
                assert_eq!(lock(runtime).id(), id);
                if level == 0 {
                    let registered = gateway.register_aggregator(id);
                    registered.enqueue(QueuedUpdate::intermediate(ObjectKey::from_words(0, 0), 1));
                    assert_eq!(stations.inboxes[index].len(), 1, "{id} reads another inbox");
                    registered.dequeue();
                }
                out.push(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::CodecKind;
    use std::sync::Barrier;

    fn on_worker() -> bool {
        thread::current()
            .name()
            .is_some_and(|name| name.starts_with("lifl-station-"))
    }

    #[test]
    fn outputs_come_back_in_index_order_for_any_worker_count() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            for len in [0, 1, 2, 7, 64] {
                let outputs = workers.run(len, |i| Ok(i * i));
                let squares: Vec<usize> = outputs.into_iter().map(|o| o.unwrap()).collect();
                assert_eq!(squares, (0..len).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_panicking_job_is_a_typed_error_and_its_worker_keeps_serving() {
        let workers = Workers::with_count(1);
        // Both jobs hold the barrier, so the caller and the worker each run
        // exactly one; the one on the worker panics.
        let barrier = Arc::new(Barrier::new(2));
        let gate = Arc::clone(&barrier);
        let outputs = workers.run(2, move |i| {
            gate.wait();
            if on_worker() {
                panic!("station {i} blew up");
            }
            Ok(i)
        });
        let failed: Vec<&Result<usize>> = outputs.iter().filter(|o| o.is_err()).collect();
        assert_eq!(failed.len(), 1, "{outputs:?}");
        assert_eq!(
            failed[0],
            &Err(LiflError::Simulation(
                "aggregator thread panicked".to_string()
            ))
        );
        // The next level still runs on the same (one) worker.
        let gate = Arc::clone(&barrier);
        let outputs = workers.run(2, move |_| {
            gate.wait();
            Ok(on_worker())
        });
        let ran_on_worker: Vec<bool> = outputs.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(ran_on_worker.iter().filter(|&&w| w).count(), 1);
        assert_eq!(workers.set.threads.get().map(Vec::len), Some(1));
    }

    /// What a round leaves behind that must not depend on who ran it: the
    /// model (or exported wire) bytes, its weight, the wire bytes ingested
    /// and the store's accounting.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        bytes: Vec<u8>,
        weight: u64,
        ingress_wire_bytes: u64,
        store: lifl_shmem::StoreStats,
    }

    /// Three rounds on one session over `workers` workers: a full round with
    /// a departed client refilled from the backlog, a quorum round exported
    /// as wire bytes, and a plain full round.
    fn three_rounds(workers: usize, topology: &Topology, codec: CodecKind) -> Vec<Outcome> {
        use crate::session::{SessionBuilder, Update};
        use lifl_fl::DenseModel;
        use lifl_types::{AdmissionConfig, ClientId};

        let total = topology.total_updates();
        let mut session = SessionBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .admission(AdmissionConfig::bounded(4, 1 << 20).with_quorum(total as u32 - 1))
            .workers(Workers::with_count(workers))
            .build()
            .unwrap();
        let offer = |session: &mut crate::session::Session, clients: std::ops::Range<usize>| {
            for c in clients {
                let values = (0..32)
                    .map(|d| ((c * 37 + d * 11) % 101) as f32 * 0.03 - 1.4)
                    .collect();
                let update = Update::dense(
                    ClientId::new(c as u64),
                    DenseModel::from_vec(values),
                    1 + c as u64 % 7,
                );
                session.try_ingest(update).unwrap();
            }
        };
        let mut outcomes = Vec::new();
        offer(&mut session, 0..total + 2);
        assert!(session.depart_client(ClientId::new(1)));
        let report = session.drive().unwrap();
        outcomes.push(Outcome {
            bytes: report
                .update
                .model
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
            weight: report.update.samples,
            ingress_wire_bytes: report.ingress_wire_bytes,
            store: report.store_stats,
        });
        // One parked offer drained into this round; one short of full.
        offer(&mut session, 1000..1000 + total - 2);
        let export = session.drive_to_wire().unwrap();
        let crate::session::Update::RemoteBytes { wire, weight, .. } = &export.update else {
            panic!("a session exports wire bytes");
        };
        outcomes.push(Outcome {
            bytes: wire.to_vec(),
            weight: *weight,
            ingress_wire_bytes: export.ingress_wire_bytes,
            store: export.store_stats,
        });
        offer(&mut session, 2000..2000 + total);
        let report = session.drive().unwrap();
        outcomes.push(Outcome {
            bytes: report
                .update
                .model
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
            weight: report.update.samples,
            ingress_wire_bytes: report.ingress_wire_bytes,
            store: report.store_stats,
        });
        outcomes
    }

    #[test]
    fn the_worker_count_never_changes_a_bit() {
        let topologies = [
            Topology::new(vec![2, 2, 2]).unwrap(),
            Topology::new(vec![8, 16]).unwrap(),
            Topology::flat(5),
        ];
        let codecs = [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 250 },
        ];
        for topology in &topologies {
            for codec in codecs {
                let caller_only = three_rounds(0, topology, codec);
                for workers in [1, 3] {
                    assert_eq!(
                        three_rounds(workers, topology, codec),
                        caller_only,
                        "{topology} {codec}: {workers} workers diverged from the caller alone"
                    );
                }
            }
        }
    }

    #[test]
    fn workers_are_spawned_at_the_first_shared_level_and_joined_on_drop() {
        let workers = Workers::with_count(2);
        workers.run(1, |_| Ok(()));
        assert!(
            workers.set.threads.get().is_none(),
            "one station runs inline"
        );
        let clone = workers.clone();
        clone.run(4, |_| Ok(()));
        assert_eq!(workers.set.threads.get().map(Vec::len), Some(2));
        drop(workers);
        // The last handle joins the set (a hang here is the failure).
        drop(clone);
    }
}
