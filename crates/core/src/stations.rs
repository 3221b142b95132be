//! Station execution: every tree position's warm aggregator runtime (§5.3)
//! and the long-lived worker set that runs a level's stations.
//!
//! A [`Stations`] holds one [`AggregatorRuntime`] per position of a
//! session's tree for the session's whole life. Each reads its own inbox
//! (level 0 reads the gateway's) and is re-armed at every round with that
//! round's goal — the state a freshly built runtime would have — so warm
//! reuse changes no bit. Intermediates stay dense in shared memory: only a
//! station whose parent is the global top encodes ([`Tree::encoding_level`]).
//!
//! Every level — a tree level's stations, a driver's trainees, an
//! evaluation's chunks — runs through one runner,
//! [`Workers::run_in_order`]: a claim counter over its indices that the
//! calling thread claims from beside the parked workers it woke. Each
//! outcome lands in its index's slot and is handed to the caller's
//! consumer in index order as soon as it and every earlier one are done
//! ([`Workers::run`] is the consumer that collects), so the result does not
//! depend on which thread ran which index, or on whether a worker woke at
//! all — a late worker only means the caller did more of the level. A tree
//! level of one station claims element ranges of its fold instead
//! ([`Stations::run`]), so the top of a tree is folded on every thread too.
//! While
//! the next outcome is not ready the caller claims an index, else runs a
//! waiting job, else parks; so a driver ingests (and encodes) each trained
//! update while its workers train the next ones. Several trees
//! on one worker set — a cluster's node subtrees — run as one forest
//! ([`Stations::run`]): level ℓ of every tree is one claim set, so a round
//! wakes the workers once per tree depth, not once per level per tree. This
//! module is the only place in the engine that starts a thread (clippy's
//! `disallowed-methods` in `crates/clippy.toml`).
//!
//! Beside its levels a worker set keeps a FIFO of owned jobs — the
//! ingress's error-feedback encodes ([`Workers::submit`]). Workers claim the
//! oldest; the submitting thread runs the oldest itself whenever more jobs
//! wait than there are workers, so with no workers every job runs inline,
//! and no bound exists beyond the worker count. Jobs share nothing but
//! the FIFO: each encode draws its rounding words from its own key, so
//! jobs need no order among themselves.
//!
//! A process runs one such set at a time ([`Workers::new`]): every session,
//! cluster and training driver built while it lives shares it, and the last
//! handle to drop joins its threads. So a driver's training level and its
//! backend's stations and encodes take turns on the same threads instead of
//! two sets contending for the same CPUs.

use crate::aggregator::{position_id, AggregatorRuntime, Output};
use crate::gateway::Gateway;
use lifl_fl::codec::UpdateCodec;
use lifl_fl::kernels::Lent;
use lifl_fl::sharded::SPLIT_RANGE_BYTES;
use lifl_shmem::InPlaceQueue;
use lifl_types::{AggregatorId, FoldPolicy, LiflError, ObjectKey, Result, Topology};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::{self, JoinHandle};

/// Locks `mutex`, recovering the guard if a panic poisoned it: a panicking
/// station is reported through its slot and re-armed before its next run, so
/// no lock here guards state a panic can leave half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle on a set of parked worker threads; clones share the set, which
/// is joined when the last handle drops. The threads are spawned at the
/// first level of two or more claims and park on a condvar between levels,
/// so an idle set costs no CPU.
///
/// A process has one live set of its own ([`Workers::new`]): every session,
/// cluster and training driver built while some handle on it lives gets
/// that set, so a driver's training levels and its backend's encode jobs
/// share one FIFO and one set of threads, whatever wraps the backend.
#[derive(Clone)]
pub(crate) struct Workers {
    set: Arc<WorkerSet>,
}

/// The set [`Workers::new`] hands out while any handle on it lives.
static SHARED: Mutex<Weak<WorkerSet>> = Mutex::new(Weak::new());

impl fmt::Debug for Workers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("count", &self.set.count)
            .finish()
    }
}

impl Workers {
    /// The process's shared set: the one some live session, cluster or
    /// driver already holds, or else a new one of one worker per available
    /// CPU beyond the caller's, shared from now on.
    pub(crate) fn new() -> Self {
        let mut shared = lock(&SHARED);
        if let Some(set) = shared.upgrade() {
            return Workers { set };
        }
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let workers = Self::sized(cpus - 1);
        *shared = Arc::downgrade(&workers.set);
        workers
    }

    /// A private set of exactly `count` workers (0: the caller runs every
    /// station), shared with nobody it is not handed to. Only tests choose
    /// a worker count: engine code takes the shared set or the one it is
    /// handed, so a driver's training and its backend's encodes share one
    /// set of threads.
    #[cfg(test)]
    pub(crate) fn with_count(count: usize) -> Self {
        Self::sized(count)
    }

    /// This private set, splitting a lone station's fold into ranges of at
    /// least `floor` bytes instead of [`SPLIT_RANGE_BYTES`]: a test splits
    /// folds of test-sized models. Only tests choose the floor.
    #[cfg(test)]
    pub(crate) fn with_split_floor(mut self, floor: usize) -> Self {
        let set = Arc::get_mut(&mut self.set).expect("a private set nobody else holds");
        set.split_floor = floor;
        self
    }

    fn sized(count: usize) -> Self {
        Workers {
            set: Arc::new(WorkerSet {
                count,
                #[cfg(test)]
                split_floor: SPLIT_RANGE_BYTES,
                board: Arc::new(Board::default()),
                threads: OnceLock::new(),
            }),
        }
    }

    /// The threads a level runs on: the workers and the caller.
    pub(crate) fn parallelism(&self) -> usize {
        self.set.count + 1
    }

    /// Fewest bytes one range of a split fold reads and writes.
    #[cfg(not(test))]
    fn split_floor(&self) -> usize {
        SPLIT_RANGE_BYTES
    }

    /// Fewest bytes one range of a split fold reads and writes: this set's
    /// floor ([`Workers::with_split_floor`]).
    #[cfg(test)]
    fn split_floor(&self) -> usize {
        self.set.split_floor
    }

    /// Runs `job` once for every index in `0..len` — the calling thread
    /// claims indices beside the workers it wakes — and returns each index's
    /// outcome in index order: [`Workers::run_in_order`] with a consumer
    /// that collects. A panicking job yields [`LiflError::Simulation`] in
    /// its slot; the thread that ran it goes on serving.
    pub(crate) fn run<T, F>(&self, len: usize, job: F) -> Vec<Result<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T> + Send + Sync + 'static,
    {
        let mut outputs = Vec::with_capacity(len);
        let Ok(()) = self.run_in_order(len, job, |output| {
            outputs.push(output);
            Ok::<(), Infallible>(())
        });
        outputs
    }

    /// Runs `job` once for every index in `0..len` as one level, and hands
    /// each index's outcome to `consume` on the calling thread, in index
    /// order, as soon as that index and every earlier one are done. A
    /// panicking job yields [`LiflError::Simulation`] as its outcome.
    ///
    /// The workers it wakes and the caller claim indices from one counter.
    /// Until the next outcome is ready, the caller claims an index itself;
    /// with none left to claim, it runs the oldest waiting job
    /// ([`Workers::submit`]); with none of those either, it parks on the
    /// slots' condvar until that outcome's thread fills it — it never
    /// spins. So with no workers job *k* runs and is consumed before job
    /// *k + 1* starts, and with workers whatever `consume` does (and the
    /// jobs it queues) runs beside the jobs still training or folding. The
    /// level returns once every outcome is consumed and no job waits, so a
    /// job `consume` queued has run, or is running on a worker.
    ///
    /// # Errors
    /// The first error `consume` returns. The level stops there: nobody
    /// claims another index, the indices already running finish unread, and
    /// the error comes back at once.
    pub(crate) fn run_in_order<T, F, C, E>(
        &self,
        len: usize,
        job: F,
        mut consume: C,
    ) -> std::result::Result<(), E>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T> + Send + Sync + 'static,
        C: FnMut(Result<T>) -> std::result::Result<(), E>,
    {
        let level = Arc::new(Level {
            job,
            len,
            next: AtomicUsize::new(0),
            slots: Mutex::new(Slots {
                outputs: (0..len).map(|_| None).collect(),
                awaited: None,
            }),
            filled: Condvar::new(),
        });
        let published = len > 1
            && self
                .set
                .publish(Arc::clone(&level) as Arc<dyn Claim>, len - 1);
        let consumed = (0..len).try_for_each(|index| consume(self.outcome(&level, index)));
        if consumed.is_err() {
            // Past `len`: every later claim, the caller's and the workers',
            // finds nothing left.
            level.next.fetch_max(len, Ordering::Relaxed);
        }
        if published {
            lock(&self.set.board.state).level = None;
        }
        consumed?;
        self.run_waiting();
        Ok(())
    }

    /// Index `index`'s outcome, once some thread has filled its slot. Until
    /// then the caller claims an index, or else runs the oldest waiting job,
    /// or else parks: every index is claimed by then, and a claimed index
    /// always fills its slot (a panic included), so the wait ends.
    fn outcome<T, F>(&self, level: &Level<T, F>, index: usize) -> Result<T>
    where
        Level<T, F>: Claim,
    {
        loop {
            if let Some(output) = level.take(index) {
                return output;
            }
            if level.claim_one() {
                continue;
            }
            let waiting = lock(&self.set.board.state).jobs.pop_front();
            match waiting {
                Some(task) => task(),
                None => level.park_until_filled(index),
            }
        }
    }

    /// Queues `job` behind every job already waiting and returns the handle
    /// its output comes back through ([`Workers::join`]). Workers claim jobs
    /// oldest first; once more jobs wait than the set has workers, the
    /// calling thread runs the oldest waiting one itself before returning —
    /// so with no workers every job runs right here, inline.
    pub(crate) fn submit<T, F>(&self, job: F) -> Job<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let outcome = Arc::new(Mutex::new(None));
        let filled = Arc::clone(&outcome);
        let task: Task = Box::new(move || {
            let output = catch_unwind(AssertUnwindSafe(job))
                .map_err(|_| LiflError::Simulation("ingress job panicked".to_string()));
            *lock(&filled) = Some(output);
        });
        let workers = self.set.threads().len();
        let mut state = lock(&self.set.board.state);
        state.jobs.push_back(task);
        let oldest = if state.jobs.len() > workers {
            state.jobs.pop_front()
        } else {
            None
        };
        drop(state);
        if workers > 0 {
            self.set.board.wake.notify_one();
        }
        if let Some(task) = oldest {
            task();
        }
        Job { outcome }
    }

    /// Waits for `job`'s output, running waiting jobs (oldest first) on the
    /// calling thread for as long as any are left. A job that panicked
    /// yields [`LiflError::Simulation`]; the thread that ran it goes on
    /// serving.
    ///
    /// With nothing left to run, `job` is running on a worker — it was
    /// claimed, and every job it can wait on is older, so claimed earlier —
    /// and the caller, with nothing else to do, yields its CPU until it
    /// finishes rather than park: the wait is at most one job's remainder,
    /// and waking a parked thread on an idle vCPU can cost milliseconds.
    pub(crate) fn join<T>(&self, job: Job<T>) -> Result<T> {
        loop {
            if let Some(output) = lock(&job.outcome).take() {
                return output;
            }
            let waiting = lock(&self.set.board.state).jobs.pop_front();
            match waiting {
                Some(task) => task(),
                None => thread::yield_now(),
            }
        }
    }

    /// Runs every job still waiting, oldest first, on the calling thread,
    /// and returns once none waits (claimed ones may still be running): so
    /// the next [`Workers::submit`] finds no backlog to run inline.
    pub(crate) fn run_waiting(&self) {
        loop {
            let waiting = lock(&self.set.board.state).jobs.pop_front();
            let Some(task) = waiting else {
                return;
            };
            task();
        }
    }
}

/// A job as the board holds it: runs the work and fills its outcome.
type Task = Box<dyn FnOnce() + Send>;

/// A submitted job ([`Workers::submit`]); its output comes back through
/// [`Workers::join`].
pub(crate) struct Job<T> {
    /// Where the output lands, from whichever thread ran the job.
    outcome: Arc<Mutex<Option<Result<T>>>>,
}

impl<T> Job<T> {
    /// Whether some thread has run the job, so that joining it returns at
    /// once.
    pub(crate) fn is_done(&self) -> bool {
        lock(&self.outcome).is_some()
    }
}

impl<T> fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("done", &self.is_done())
            .finish()
    }
}

/// The threads behind [`Workers`] and the board they wait on.
struct WorkerSet {
    count: usize,
    #[cfg(test)]
    split_floor: usize,
    board: Arc<Board>,
    threads: OnceLock<Vec<JoinHandle<()>>>,
}

impl WorkerSet {
    /// The worker threads, spawned on first use.
    #[expect(
        clippy::disallowed_methods,
        reason = "the station executor is the one place the engine starts threads"
    )]
    fn threads(&self) -> &[JoinHandle<()>] {
        self.threads.get_or_init(|| {
            (0..self.count)
                .filter_map(|k| {
                    let board = Arc::clone(&self.board);
                    thread::Builder::new()
                        .name(format!("lifl-station-{k}"))
                        .spawn(move || board.serve())
                        .ok()
                })
                .collect()
        })
    }

    /// Opens `level` to the workers and wakes up to `wanted` of them;
    /// returns whether it was opened (not when the set has no threads). A
    /// caller claims every index nobody else did, so a level no worker ever
    /// sees still completes.
    fn publish(&self, level: Arc<dyn Claim>, wanted: usize) -> bool {
        let threads = self.threads();
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
    /// Submitted jobs nobody has claimed yet, oldest first.
    jobs: VecDeque<Task>,
    shutdown: bool,
}

/// What a woken worker found to do.
enum Work {
    Level(Arc<dyn Claim>),
    Job(Task),
}

impl Board {
    /// A worker's life: wait for a level it has not joined or a waiting
    /// job, claim stations until none is left or run the oldest job, repeat
    /// until shutdown.
    fn serve(&self) {
        let mut joined = 0;
        loop {
            let work = {
                let mut state = lock(&self.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != joined {
                        joined = state.epoch;
                        if let Some(level) = &state.level {
                            break Work::Level(Arc::clone(level));
                        }
                    }
                    if let Some(task) = state.jobs.pop_front() {
                        break Work::Job(task);
                    }
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match work {
                Work::Level(level) => while level.claim_one() {},
                Work::Job(task) => task(),
            }
        }
    }
}

/// A level as the workers see it.
trait Claim: Send + Sync {
    /// Claims the next index and runs it into its slot; false once every
    /// index has been claimed.
    fn claim_one(&self) -> bool;
}

/// One level: the job, the claim counter over its `len` indices and one
/// output slot per index.
struct Level<T, F> {
    job: F,
    len: usize,
    next: AtomicUsize,
    slots: Mutex<Slots<T>>,
    filled: Condvar,
}

struct Slots<T> {
    outputs: Vec<Option<Result<T>>>,
    /// The index the caller is parked on, if it is.
    awaited: Option<usize>,
}

impl<T: Send, F: Fn(usize) -> Result<T> + Send + Sync> Claim for Level<T, F> {
    fn claim_one(&self) -> bool {
        // `Relaxed` suffices: a claim publishes no data. The job reached
        // this thread through the board's mutex, and outputs go back
        // through the slots' mutex.
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        if index >= self.len {
            return false;
        }
        let output = catch_unwind(AssertUnwindSafe(|| (self.job)(index)))
            .unwrap_or_else(|_| Err(station_panicked()));
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.outputs.get_mut(index) {
            *slot = Some(output);
        }
        if slots.awaited == Some(index) {
            self.filled.notify_one();
        }
        true
    }
}

impl<T, F> Level<T, F> {
    /// Index `index`'s outcome, if its slot is filled and not yet taken.
    fn take(&self, index: usize) -> Option<Result<T>> {
        lock(&self.slots).outputs.get_mut(index)?.take()
    }

    /// Parks the calling thread until index `index`'s slot is filled.
    fn park_until_filled(&self, index: usize) {
        let mut slots = lock(&self.slots);
        while slots.outputs.get(index).is_some_and(Option::is_none) {
            slots.awaited = Some(index);
            slots = self
                .filled
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slots.awaited = None;
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

/// One tree of a forest drive ([`Stations::run`]): a session's stations,
/// whether its round is full, and where the keys of its intermediates go.
pub(crate) struct Tree<'a> {
    pub(crate) stations: &'a Stations,
    pub(crate) full: bool,
    /// The level whose outputs a lossy codec encodes: the one whose parent
    /// is the global top, if the tree holds one.
    pub(crate) encoding_level: Option<usize>,
    /// The round's index, the backend's count of closed rounds: with its
    /// position, the key an encoding station draws its rounding words from.
    pub(crate) round: u64,
    /// Whether the tree's top is the global top of a drive, which hands its
    /// finalized accumulator out as the model and stores nothing.
    pub(crate) keeps_top: bool,
    pub(crate) round_keys: &'a mut Vec<ObjectKey>,
}

impl Stations {
    /// Builds one station per position of `topology`, placed at
    /// `(level_offset, branch)` of the enclosing tree (see
    /// [`crate::session::SessionBuilder::tree_position`]): identities are
    /// the enclosing tree's, leaf inboxes are registered with `gateway`
    /// under them, interior stations own theirs, and every runtime holds a
    /// clone of `codec` and folds with `policy`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for an invalid fold policy.
    pub(crate) fn new(
        topology: &Topology,
        place: (usize, usize),
        gateway: &mut Gateway,
        codec: &UpdateCodec,
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
                let (goal, store) = (topology.fan_in(level) as u64, gateway.store().clone());
                let mut runtime =
                    AggregatorRuntime::new(id, goal, store, inbox.clone(), codec.clone())?;
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
    /// the gateway target of a leaf, and the first word of an encoding
    /// station's key.
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

    /// Runs a forest — trees that share one worker set, a session's own tree
    /// alone or every node subtree of a cluster — level by level over what
    /// the inboxes hold, and returns each tree's top output in tree order:
    /// the model itself for a tree that keeps its top ([`Tree::keeps_top`]),
    /// a stored output otherwise.
    ///
    /// Level ℓ of every tree that has one runs as **one** claim set on the
    /// first tree's workers, indexed in (tree, station) order: one station
    /// per index, except that a level of one station splits its FedAvg fold
    /// into element ranges ([`run_split`]), so every thread folds the top of
    /// a tree. Each tree
    /// hands its outputs to its own parents in child order and pushes every
    /// stored intermediate's key to its own `round_keys`, those of a failed
    /// level's survivors included; a tree whose level failed stops there
    /// with the level's first error, and the others run on. So a station
    /// sees the same inbox, goal and encode rule whatever else shares its
    /// level, and a tree's result does not depend on which thread ran which
    /// station or range, or on what else is in the forest.
    ///
    /// A full round runs every station to its fan-in. A partial (quorum)
    /// round runs only the stations whose inbox holds something, each to
    /// what it holds, so parents fold only the children that produced
    /// output, in child order; on a full round the two coincide, so
    /// exact-fill results stay bit-exact.
    pub(crate) fn run(forest: &mut [Tree<'_>]) -> Vec<Result<Output>> {
        let Some(workers) = forest.first().map(|tree| tree.stations.workers.clone()) else {
            return Vec::new();
        };
        let depth = forest.iter().map(|tree| tree.stations.levels.len());
        let depth = depth.max().unwrap_or(0);
        let mut tops: Vec<Option<Result<Output>>> = forest.iter().map(|_| None).collect();
        // Stations each tree put in the current level's claim set.
        let mut armed_per_tree = vec![0; forest.len()];
        for level in 0..depth {
            let width = forest
                .iter()
                .filter_map(|tree| tree.stations.levels.get(level));
            let mut armed = Vec::with_capacity(width.map(|stations| stations.inboxes.len()).sum());
            for ((tree, top), count) in forest.iter().zip(&tops).zip(&mut armed_per_tree) {
                *count = 0;
                let Some(stations) = tree.stations.levels.get(level).filter(|_| top.is_none())
                else {
                    continue;
                };
                let is_top = level + 1 == tree.stations.levels.len();
                for (index, inbox) in stations.inboxes.iter().enumerate() {
                    let goal = if tree.full {
                        tree.stations.topology.fan_in(level)
                    } else {
                        inbox.len()
                    };
                    if goal > 0 {
                        armed.push(Armed {
                            runtimes: Arc::clone(&stations.runtimes),
                            index,
                            goal: goal as u64,
                            encodes: tree.encoding_level == Some(level),
                            round: tree.round,
                            keeps: is_top && tree.keeps_top,
                        });
                        *count += 1;
                    }
                }
            }
            let armed: Arc<[Armed]> = armed.into();
            let mut results = run_level(&workers, &armed).into_iter().zip(armed.iter());
            for ((tree, top), count) in forest.iter_mut().zip(&mut tops).zip(&armed_per_tree) {
                if top.is_some() || level >= tree.stations.levels.len() {
                    continue;
                }
                let parents = (tree.stations.levels.get(level + 1))
                    .map(|parents| (parents, tree.stations.topology.fan_in(level + 1)));
                let mut first_error = None;
                let mut output_of_top = None;
                for (result, station) in results.by_ref().take(*count) {
                    match result {
                        Ok(Output::Stored(output)) => {
                            tree.round_keys.push(output.key);
                            match parents {
                                // Parent j consumes children j·f .. (j+1)·f,
                                // in child order.
                                Some((parents, fan_in)) => {
                                    let inbox = parents.inboxes.get(station.index / fan_in);
                                    if let Some(inbox) = inbox {
                                        inbox.enqueue(output);
                                    }
                                }
                                None => output_of_top = Some(Output::Stored(output)),
                            }
                        }
                        // Only a tree's top keeps its output.
                        Ok(model) => output_of_top = Some(model),
                        Err(error) => {
                            first_error.get_or_insert(error);
                        }
                    }
                }
                // A failed tree's parents never run: what it handed them is
                // cleared with its round.
                if let Some(error) = first_error {
                    *top = Some(Err(error));
                } else if parents.is_none() {
                    *top = Some(output_of_top.ok_or_else(|| {
                        LiflError::Simulation("top level produced no output".to_string())
                    }));
                }
            }
        }
        tops.into_iter()
            .map(|top| {
                top.unwrap_or_else(|| Err(LiflError::Simulation("tree has no levels".to_string())))
            })
            .collect()
    }

    /// Empties every station's inbox — what a failed or finished round left
    /// behind — so the next round starts from nothing.
    pub(crate) fn clear(&self) {
        for inbox in self.levels.iter().flat_map(|level| &level.inboxes) {
            while inbox.dequeue().is_some() {}
        }
    }
}

/// One station of a level's claim set: where its warm runtime is and how
/// the round arms it.
struct Armed {
    runtimes: Arc<[Mutex<AggregatorRuntime>]>,
    index: usize,
    goal: u64,
    encodes: bool,
    round: u64,
    /// The station is the global top of a drive: it hands its finalized
    /// accumulator out instead of storing it.
    keeps: bool,
}

impl Armed {
    fn runtime(&self) -> MutexGuard<'_, AggregatorRuntime> {
        lock(&self.runtimes[self.index])
    }

    /// Re-arms the station for the round.
    fn rearm(&self, runtime: &mut AggregatorRuntime) -> Result<()> {
        runtime.rearm(self.goal, self.encodes, self.round)
    }
}

/// Runs one level of `armed` stations and returns each station's output in
/// claim order: one claim per station, which re-arms, drains, folds and
/// sends it. A lone station with threads to spare — the top of a tree —
/// runs as [`run_split`] instead, under the claims' panic rule: a panic is
/// its [`LiflError::Simulation`] outcome.
fn run_level(workers: &Workers, armed: &Arc<[Armed]>) -> Vec<Result<Output>> {
    if let [station] = &armed[..] {
        if workers.parallelism() > 1 {
            let output = catch_unwind(AssertUnwindSafe(|| run_split(workers, station)));
            return vec![output.unwrap_or_else(|_| Err(station_panicked()))];
        }
    }
    let level = Arc::clone(armed);
    workers.run(armed.len(), move |k| {
        let station = &level[k];
        let mut runtime = station.runtime();
        station.rearm(&mut runtime)?;
        runtime.run_round(station.keeps)
    })
}

/// The outcome of a station, or a level claim, that panicked.
fn station_panicked() -> LiflError {
    LiflError::Simulation("aggregator thread panicked".to_string())
}

/// A lone station run so that every thread folds it. The caller prepares
/// it once — re-arm, drain, parse every payload, warm the accumulator and
/// make every check ([`AggregatorRuntime::prepare`]) — and lends the
/// accumulator's buffer out in [`lifl_fl::sharded::BatchPlan::ranges`]
/// ranges; one claim set folds them, the caller claiming whatever a late
/// worker does not, and the caller then takes the buffer back, commits and
/// sends once. A fold of one range runs right here and claims nothing; a
/// station that does not fold as one FedAvg batch runs its whole round
/// here. A range's bits do not depend on where the cuts fall or which
/// thread folded it, so the result is a whole-station fold's bit for bit.
///
/// Only a one-station level splits: a level of several stations is one
/// claim per station even when they are fewer than the threads, since no
/// measured workload runs such a level on a host with threads to spare.
fn run_split(workers: &Workers, station: &Armed) -> Result<Output> {
    let mut runtime = station.runtime();
    station.rearm(&mut runtime)?;
    let Some((prepared, mut sum)) = runtime.prepare()? else {
        return runtime.run_round(station.keeps);
    };
    let plan = prepared.plan();
    let ranges = plan.ranges(workers.parallelism(), workers.split_floor());
    let failed = if ranges == 1 {
        prepared.fold_range(0, &mut sum);
        None
    } else {
        let (lent, leases) = Lent::lend(sum, &plan.cuts(ranges));
        let prepared = Arc::new(prepared);
        // A claim takes its pair out and drops both before it returns, so
        // once the level is done the caller holds the payloads alone and
        // every lease is home.
        let slots: Arc<[_]> = (leases.into_iter())
            .map(|lease| Mutex::new(Some((Arc::clone(&prepared), lease))))
            .collect();
        let folded = workers.run(slots.len(), move |k| {
            let taken = lock(&slots[k]).take();
            if let Some((prepared, mut lease)) = taken {
                prepared.fold_range(lease.start(), lease.as_mut_slice());
            }
            Ok(())
        });
        // The last handle on the payloads: they go home here.
        drop(prepared);
        sum = lent.reclaim().map_err(|_| {
            LiflError::Simulation("a station's accumulator is still lent out".to_string())
        })?;
        folded.into_iter().find_map(Result::err)
    };
    // A failed range's half-folded buffer goes home at the next re-arm.
    runtime.commit(plan, sum);
    match failed {
        Some(error) => Err(error),
        None => runtime.complete(station.keeps),
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
                    registered.enqueue(lifl_shmem::queue::QueuedUpdate::intermediate(
                        ObjectKey::from_words(0, 0),
                        1,
                    ));
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

    /// Client `c`'s `dim` parameters.
    fn client_values(c: usize, dim: usize) -> lifl_fl::DenseModel {
        let values = (0..dim).map(|d| ((c * 37 + d * 11) % 101) as f32 * 0.03 - 1.4);
        lifl_fl::DenseModel::from_vec(values.collect())
    }

    /// Four rounds of `client(c)`'s updates on one session over `workers`
    /// workers, which split a lone station's fold into ranges of at least
    /// [`SPLIT_FLOOR`] bytes: a full round with a departed client refilled
    /// from the backlog, a quorum round exported as wire bytes, a quorum
    /// round driven to the model, and a full round exported as wire bytes.
    /// Parking is budgeted for four updates of `dim` parameters.
    fn four_rounds(
        workers: usize,
        topology: &Topology,
        codec: CodecKind,
        dim: usize,
        client: &dyn Fn(usize) -> crate::session::Update,
    ) -> Vec<Outcome> {
        use crate::session::SessionBuilder;
        use lifl_types::{AdmissionConfig, ClientId};

        let total = topology.total_updates();
        let mut session = SessionBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .admission(AdmissionConfig::bounded(4, 4 * dim * 4).with_quorum(total as u32 - 1))
            .workers(Workers::with_count(workers).with_split_floor(SPLIT_FLOOR))
            .build()
            .unwrap();
        let offer = |session: &mut crate::session::Session, clients: std::ops::Range<usize>| {
            for c in clients {
                session.try_ingest(client(c)).unwrap();
            }
        };
        let drive = |session: &mut crate::session::Session| {
            let report = session.drive().unwrap();
            Outcome {
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
            }
        };
        let export = |session: &mut crate::session::Session| {
            let export = session.drive_to_wire().unwrap();
            let crate::session::Update::RemoteBytes { wire, weight, .. } = &export.update else {
                panic!("a session exports wire bytes");
            };
            Outcome {
                bytes: wire.to_vec(),
                weight: *weight,
                ingress_wire_bytes: export.ingress_wire_bytes,
                store: export.store_stats,
            }
        };
        let mut outcomes = Vec::new();
        offer(&mut session, 0..total + 2);
        assert!(session.depart_client(ClientId::new(1)));
        outcomes.push(drive(&mut session));
        // One parked offer drained into this round; one short of full.
        offer(&mut session, 1000..1000 + total - 2);
        outcomes.push(export(&mut session));
        offer(&mut session, 2000..2000 + total - 1);
        outcomes.push(drive(&mut session));
        offer(&mut session, 3000..3000 + total);
        outcomes.push(export(&mut session));
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
        let dense = |c: usize| {
            let client = lifl_types::ClientId::new(c as u64);
            crate::session::Update::dense(client, client_values(c, 32), 1 + c as u64 % 7)
        };
        for topology in &topologies {
            for codec in codecs {
                let caller_only = four_rounds(0, topology, codec, 32, &dense);
                for workers in [1, 3] {
                    assert_eq!(
                        four_rounds(workers, topology, codec, 32, &dense),
                        caller_only,
                        "{topology} {codec}: {workers} workers diverged from the caller alone"
                    );
                }
            }
        }
    }

    /// The fewest bytes a range of a split fold carries in the split tests
    /// ([`Workers::with_split_floor`]): the engine's [`SPLIT_RANGE_BYTES`]
    /// scaled down, so that the tests split folds of a small model. The
    /// small-dimension shapes beside them never split.
    const SPLIT_FLOOR: usize = SPLIT_RANGE_BYTES / 32;

    /// A dimension at which every fold of an `[8, 4]` top splits into at
    /// least 3 ranges beside 3 workers — it folds at least 6 bytes an
    /// element (a 4-byte accumulator and four views of at least half a
    /// byte: `Uniform4` leaf outputs), so 3 ranges' [`SPLIT_FLOOR`] — and
    /// the last range is a ragged odd tail (cuts fall on multiples of 16
    /// elements).
    const SPLIT_DIM: usize = 3 * SPLIT_FLOOR / 6 + 7;

    /// The worker count at split sizes: 1 worker splits every top in two and
    /// 3 split an `[8, 4]` top into 3 or 4 ranges, while the two leaves of
    /// `[2, 2]` stay one claim each beside 4 threads; the caller alone (0
    /// workers) never splits a level. Every bit of every round is the
    /// caller's. Clients send one of 8 updates, made once (encoded once
    /// under a lossy codec), so the rounds' time goes to the folds.
    #[test]
    fn a_split_level_never_changes_a_bit() {
        let topologies = [
            Topology::new(vec![8, 4]).unwrap(),
            Topology::new(vec![2, 2]).unwrap(),
        ];
        let codecs = [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 250 },
        ];
        let models: Vec<_> = (0..8).map(|c| client_values(c, SPLIT_DIM)).collect();
        for codec in codecs {
            let mut encoder = lifl_fl::codec::UpdateCodec::new(codec);
            let encoded: Vec<_> = models.iter().map(|m| encoder.encode(m)).collect();
            let client = |c: usize| {
                let (id, weight) = (lifl_types::ClientId::new(c as u64), 1 + c as u64 % 7);
                if codec.is_lossless() {
                    crate::session::Update::dense(id, models[c % 8].clone(), weight)
                } else {
                    crate::session::Update::encoded(id, encoded[c % 8].clone(), weight)
                }
            };
            for topology in &topologies {
                let caller_only = four_rounds(0, topology, codec, SPLIT_DIM, &client);
                for workers in [1, 3] {
                    assert!(
                        four_rounds(workers, topology, codec, SPLIT_DIM, &client) == caller_only,
                        "{topology} {codec}: {workers} workers diverged from the caller alone"
                    );
                }
            }
        }
    }

    /// One round as either backend left it, bit for bit: the bytes stored
    /// for every update, the model and its weight, every store's accounting.
    #[derive(Debug, PartialEq)]
    struct Landed {
        wires: Vec<Vec<u8>>,
        model: Vec<u32>,
        weight: u64,
        stores: Vec<lifl_shmem::StoreStats>,
    }

    enum Door {
        Session(Box<crate::session::Session>),
        Cluster(Box<crate::cluster::Cluster>),
    }

    impl Door {
        fn build(cluster: bool, topology: &Topology, codec: CodecKind, workers: usize) -> Door {
            use lifl_types::AdmissionConfig;
            let quorum = topology.total_updates() as u32 - 1;
            let admission = AdmissionConfig::bounded(4, 1 << 20).with_quorum(quorum);
            let workers = Workers::with_count(workers);
            if cluster {
                let cluster = crate::cluster::ClusterBuilder::new()
                    .topology(topology.clone())
                    .codec(codec)
                    .admission(admission)
                    .build_on(workers)
                    .unwrap();
                Door::Cluster(Box::new(cluster))
            } else {
                let session = crate::session::SessionBuilder::new()
                    .topology(topology.clone())
                    .codec(codec)
                    .admission(admission)
                    .workers(workers)
                    .build()
                    .unwrap();
                Door::Session(Box::new(session))
            }
        }

        fn offer(&mut self, update: crate::session::Update) -> lifl_types::AdmissionOutcome {
            match self {
                Door::Session(s) => s.try_ingest(update),
                Door::Cluster(c) => c.try_ingest(update),
            }
            .unwrap()
        }

        fn depart(&mut self, client: lifl_types::ClientId) -> bool {
            match self {
                Door::Session(s) => s.depart_client(client),
                Door::Cluster(c) => c.depart_client(client),
            }
        }

        fn land(&mut self) -> Landed {
            let bits = |model: &lifl_fl::DenseModel| {
                model.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            match self {
                Door::Session(s) => {
                    let wires = s.stored_wires();
                    let report = s.drive().unwrap();
                    Landed {
                        wires,
                        model: bits(&report.update.model),
                        weight: report.update.samples,
                        stores: vec![report.store_stats],
                    }
                }
                Door::Cluster(c) => {
                    let wires = c.stored_wires();
                    let report = c.drive().unwrap();
                    let mut stores: Vec<_> = report.nodes.iter().map(|n| n.store_stats).collect();
                    stores.push(report.top_store_stats);
                    Landed {
                        wires,
                        model: bits(&report.update.model),
                        weight: report.update.samples,
                        stores,
                    }
                }
            }
        }

        fn residual_bits(&mut self, client: lifl_types::ClientId) -> Option<Vec<u32>> {
            match self {
                Door::Session(s) => s.residual_bits(client),
                Door::Cluster(c) => c.residual_bits(client),
            }
        }
    }

    /// Three rounds of lossy offers over `workers` workers, through every
    /// path a deferred encode takes: an all-zero compensated update in mid
    /// batch (its encode draws nothing), a client offering twice in a round,
    /// a departure while encodes are in flight, lossy offers parked and
    /// drained into a quorum round, and a change of model dimension. Returns
    /// each round's landing, then every client's residual.
    fn deferred_rounds(
        cluster: bool,
        topology: &Topology,
        codec: CodecKind,
        workers: usize,
    ) -> (Vec<Landed>, Vec<Option<Vec<u32>>>) {
        use lifl_types::ClientId;

        let total = topology.total_updates() as u64;
        let mut door = Door::build(cluster, topology, codec, workers);
        let mut landed = Vec::new();
        // Round 0: client 1 offers again halfway through, client 2 departs
        // before anything settled, 1000 takes its slot and 1001..1003 park.
        for k in 0..total {
            let client = if k == total / 2 { 1 } else { k };
            assert!(door.offer(dense(client, 0, DEFERRED_DIM)).is_admitted());
        }
        assert!(door.depart(ClientId::new(2)));
        assert!(door.offer(dense(1000, 0, DEFERRED_DIM)).is_admitted());
        for client in 1001..1003 {
            assert!(door.offer(dense(client, 0, DEFERRED_DIM)).is_queued());
        }
        landed.push(door.land());
        // Round 1: the two parked offers drained in; a quorum closes it one
        // short of full.
        for client in 2000..2000 + total - 3 {
            assert!(door.offer(dense(client, 1, DEFERRED_DIM)).is_admitted());
        }
        landed.push(door.land());
        // Round 2: every model changes dimension.
        for client in 0..total {
            assert!(door.offer(dense(client, 2, DEFERRED_DIM + 8)).is_admitted());
        }
        landed.push(door.land());
        let residuals = deferred_clients(total)
            .map(|c| door.residual_bits(ClientId::new(c)))
            .collect();
        (landed, residuals)
    }

    /// Model dimension before round 2 changes it.
    const DEFERRED_DIM: usize = 48;

    /// Client `client`'s dense update of round `round`: all zeros for
    /// client 5's first.
    fn dense(client: u64, round: u64, dim: usize) -> crate::session::Update {
        let values = (0..dim as u64)
            .map(|d| {
                if client == 5 && round == 0 {
                    0.0
                } else {
                    ((client * 37 + round * 53 + d * 11) % 101) as f32 * 0.03 - 1.4
                }
            })
            .collect();
        let model = lifl_fl::DenseModel::from_vec(values);
        crate::session::Update::dense(lifl_types::ClientId::new(client), model, 1 + client % 7)
    }

    /// Every client [`deferred_rounds`] offers for.
    fn deferred_clients(total: u64) -> impl Iterator<Item = u64> {
        (0..total).chain(1000..1003).chain(2000..2000 + total - 3)
    }

    /// The residuals [`deferred_rounds`] must leave: its offers, in offer
    /// order, through the sequential `ErrorFeedback::encode_update` at the
    /// ingress seed.
    fn sequential_residuals(total: u64, codec: CodecKind) -> Vec<Option<Vec<u32>>> {
        use lifl_fl::codec::{ErrorFeedback, UpdateCodec};
        let offers = (0..total)
            .map(|k| (if k == total / 2 { 1 } else { k }, 0, DEFERRED_DIM))
            .chain((1000..1003).map(|c| (c, 0, DEFERRED_DIM)))
            .chain((2000..2000 + total - 3).map(|c| (c, 1, DEFERRED_DIM)))
            .chain((0..total).map(|c| (c, 2, DEFERRED_DIM + 8)));
        let mut feedback = ErrorFeedback::new(UpdateCodec::with_seed(codec, 0x5EED));
        for (client, round, dim) in offers {
            let crate::session::Update::Dense(dense) = dense(client, round, dim) else {
                unreachable!("dense() builds dense updates");
            };
            let client = lifl_types::ClientId::new(client);
            feedback.encode_update(client, dense.model, dense.samples);
        }
        deferred_clients(total)
            .map(|c| {
                let residual = feedback.residual(lifl_types::ClientId::new(c))?;
                Some(residual.as_slice().iter().map(|v| v.to_bits()).collect())
            })
            .collect()
    }

    #[test]
    fn a_deferred_encode_never_changes_a_bit() {
        let backends = [
            (false, Topology::new(vec![8, 16]).unwrap()),
            (false, Topology::new(vec![2, 2, 2]).unwrap()),
            (true, Topology::new(vec![8, 4, 4]).unwrap()),
        ];
        let codecs = [
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 250 },
        ];
        for (cluster, topology) in &backends {
            for codec in codecs {
                let inline = deferred_rounds(*cluster, topology, codec, 0);
                let total = topology.total_updates() as u64;
                assert_eq!(
                    inline.1,
                    sequential_residuals(total, codec),
                    "{topology} {codec} cluster={cluster}: not the sequential encode"
                );
                assert!(inline.1.iter().all(Option::is_some));
                for workers in [1, 3] {
                    assert_eq!(
                        deferred_rounds(*cluster, topology, codec, workers),
                        inline,
                        "{topology} {codec} cluster={cluster}: {workers} workers diverged \
                         from encoding inline"
                    );
                }
            }
        }
    }

    /// One cluster round as a drive left it, bit for bit: the model and its
    /// weight, the top's host, every hop and node report (printed, costs
    /// included), the top store's and every node store's accounting.
    #[derive(Debug, PartialEq)]
    struct Shipped {
        model: Vec<u32>,
        weight: u64,
        top_node: lifl_types::NodeId,
        hops: String,
        nodes: String,
        top_store: lifl_shmem::StoreStats,
        node_stores: Vec<lifl_shmem::StoreStats>,
    }

    /// Four rounds of `dim`-parameter updates on a cluster of `topology` —
    /// node `resplit.0` re-split to `resplit.1` leaves first, when given —
    /// over `workers` workers splitting at [`SPLIT_FLOOR`], driven as one
    /// forest or, for the `twin`, one node at a time: a full
    /// round with a departure refilled from the backlog, a partial quorum
    /// round, a three-update round that leaves every node but the first
    /// empty, and a full round. Returns each round, then every residual.
    fn forest_rounds(
        topology: &Topology,
        resplit: Option<(usize, usize)>,
        codec: CodecKind,
        (workers, dim): (usize, usize),
        twin: bool,
    ) -> (Vec<Shipped>, Vec<Option<Vec<u32>>>) {
        use lifl_types::{AdmissionConfig, ClientId};

        let mut cluster = crate::cluster::ClusterBuilder::new()
            .topology(topology.clone())
            .codec(codec)
            .admission(AdmissionConfig::bounded(4, 4 * dim * 4).with_quorum(3))
            .build_on(Workers::with_count(workers).with_split_floor(SPLIT_FLOOR))
            .unwrap();
        if let Some((node, leaves)) = resplit {
            cluster.resplit(node, leaves);
        }
        let capacity = cluster.round_capacity() as u64;
        let rounds = [
            (0..capacity + 2, Some(1)),
            (1000..1000 + capacity - 3, None),
            (2000..2003, None),
            (3000..3000 + capacity, None),
        ];
        let mut shipped = Vec::new();
        let mut clients = Vec::new();
        for (round, (offers, departs)) in rounds.into_iter().enumerate() {
            for client in offers {
                cluster
                    .try_ingest(dense(client, round as u64, dim))
                    .unwrap();
                clients.push(client);
            }
            if let Some(client) = departs {
                assert!(cluster.depart_client(ClientId::new(client)));
            }
            let report = if twin {
                cluster.drive_one_node_at_a_time()
            } else {
                cluster.drive()
            };
            let report = report.unwrap();
            shipped.push(Shipped {
                model: report
                    .update
                    .model
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                weight: report.update.samples,
                top_node: report.top_node,
                hops: format!("{:?}", report.hops),
                nodes: format!("{:?}", report.nodes),
                top_store: report.top_store_stats,
                node_stores: (cluster.node_sessions().iter())
                    .map(|s| s.store().stats())
                    .collect(),
            });
        }
        let residuals = clients
            .into_iter()
            .map(|c| cluster.residual_bits(ClientId::new(c)))
            .collect();
        (shipped, residuals)
    }

    #[test]
    fn a_forest_drive_never_changes_a_bit() {
        let shapes = [
            (Topology::new(vec![8, 4, 4]).unwrap(), None, DEFERRED_DIM),
            // Node 1's [2, 2, 2] subtree re-split to a two-level one: the
            // forest's trees differ in depth.
            (
                Topology::new(vec![2, 2, 2, 2]).unwrap(),
                Some((1, 3)),
                DEFERRED_DIM,
            ),
            // At split sizes: beside 3 workers the cluster top folds two
            // hops as 3 ranges, while the forest's level of two node tops
            // runs one claim per top; the caller alone splits nothing.
            (Topology::new(vec![2, 2, 2]).unwrap(), None, SPLIT_DIM),
        ];
        let codecs = [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::TopK { permille: 250 },
        ];
        for (topology, resplit, dim) in &shapes {
            for codec in codecs {
                let twin = forest_rounds(topology, *resplit, codec, (0, *dim), true);
                // Three updates fill one node of the small-dimension shapes.
                if *dim == DEFERRED_DIM {
                    assert_eq!(twin.0[2].hops.matches("ClusterHop").count(), 1);
                }
                for workers in [0, 1, 3] {
                    assert!(
                        forest_rounds(topology, *resplit, codec, (workers, *dim), false) == twin,
                        "{topology} {codec} re-split {resplit:?}: {workers} workers' forest \
                         diverged from driving one node at a time"
                    );
                }
            }
        }
    }

    /// A lone station runs on the caller when threads are to spare
    /// ([`run_split`]), under a claim's panic rule: a panic anywhere in its
    /// round is the level's typed error, whatever the worker count.
    #[test]
    fn a_panicking_lone_station_is_a_typed_error() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            // No runtime at index 0: looking the station up panics.
            let armed: Arc<[Armed]> = Arc::new([Armed {
                runtimes: Arc::new([]),
                index: 0,
                goal: 1,
                encodes: false,
                round: 0,
                keeps: true,
            }]);
            let outputs = run_level(&workers, &armed);
            assert!(
                matches!(&outputs[..], [Err(error)] if *error == station_panicked()),
                "{count} workers: {outputs:?}"
            );
        }
    }

    #[test]
    fn jobs_come_back_in_submission_order_and_a_panic_is_a_typed_error() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let panicking = workers.submit(|| -> usize { panic!("job blew up") });
            let jobs: Vec<Job<usize>> = (0..16).map(|i| workers.submit(move || i * i)).collect();
            assert_eq!(
                workers.join(panicking),
                Err(LiflError::Simulation("ingress job panicked".to_string()))
            );
            let squares: Vec<usize> = jobs.into_iter().map(|j| workers.join(j).unwrap()).collect();
            assert_eq!(squares, (0..16).map(|i| i * i).collect::<Vec<_>>());
            // The same threads serve on; with none, the caller ran it all.
            assert_eq!(workers.set.threads.get().map(Vec::len), Some(count));
        }
    }

    /// `Workers::new` hands out the one set some handle still holds, and a
    /// private set is nobody else's. (Whether the shared set is fresh depends
    /// on what else in this process holds it, so only sharing is checked.)
    #[test]
    fn the_shared_set_is_the_live_one_and_a_private_set_is_not_shared() {
        let held = Workers::new();
        assert!(Arc::ptr_eq(&Workers::new().set, &held.set));
        let private = Workers::with_count(held.set.count);
        assert!(!Arc::ptr_eq(&private.set, &held.set));
        assert!(Arc::ptr_eq(&Workers::new().set, &held.set));
    }

    #[test]
    fn run_waiting_leaves_no_job_waiting() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let jobs: Vec<Job<usize>> = (0..16).map(|i| workers.submit(move || i + 1)).collect();
            workers.run_waiting();
            assert!(lock(&workers.set.board.state).jobs.is_empty());
            let outputs: Vec<usize> = jobs.into_iter().map(|j| workers.join(j).unwrap()).collect();
            assert_eq!(outputs, (1..=16).collect::<Vec<_>>());
        }
    }

    /// A job that takes longer the more `i % 5` is: work, not sleep, so
    /// the claims finish out of order on any thread count.
    fn uneven(i: usize) -> Result<usize> {
        let mut x = i as u64;
        for _ in 0..(i % 5) * 20_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        std::hint::black_box(x);
        Ok(i)
    }

    #[test]
    fn every_index_is_consumed_once_in_index_order() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            for len in [0, 1, 2, 7, 64] {
                let mut consumed = Vec::new();
                let Ok(()) = workers.run_in_order(len, uneven, |outcome| {
                    consumed.push(outcome.unwrap());
                    Ok::<(), Infallible>(())
                });
                assert_eq!(consumed, (0..len).collect::<Vec<_>>(), "{count} workers");
            }
        }
    }

    #[test]
    fn a_panicking_job_arrives_as_a_typed_error_and_later_indices_still_arrive() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let mut consumed = Vec::new();
            let Ok(()) = workers.run_in_order(
                9,
                |i| {
                    if i == 2 {
                        panic!("job {i} blew up");
                    }
                    uneven(i)
                },
                |outcome| {
                    consumed.push(outcome);
                    Ok::<(), Infallible>(())
                },
            );
            let mut expected: Vec<Result<usize>> = (0..9).map(Ok).collect();
            expected[2] = Err(LiflError::Simulation(
                "aggregator thread panicked".to_string(),
            ));
            assert_eq!(consumed, expected, "{count} workers");
        }
    }

    #[test]
    fn with_no_workers_each_outcome_is_consumed_before_the_next_job_starts() {
        let workers = Workers::with_count(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs = Arc::clone(&log);
        let Ok(()) = workers.run_in_order(
            4,
            move |i| {
                lock(&jobs).push(format!("job {i}"));
                Ok(i)
            },
            |outcome| {
                lock(&log).push(format!("consume {}", outcome.unwrap()));
                Ok::<(), Infallible>(())
            },
        );
        let expected: Vec<String> = (0..4)
            .flat_map(|i| [format!("job {i}"), format!("consume {i}")])
            .collect();
        assert_eq!(*lock(&log), expected);
    }

    #[test]
    fn a_job_the_consumer_queues_runs_before_the_level_returns() {
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let mut queued = Vec::new();
            let Ok(()) = workers.run_in_order(8, uneven, |outcome| {
                let i = outcome.unwrap();
                queued.push(workers.submit(move || i * i));
                Ok::<(), Infallible>(())
            });
            // Every queued job ran on the caller or was claimed by a worker:
            // none is left waiting.
            assert!(lock(&workers.set.board.state).jobs.is_empty(), "{count}");
            if count == 0 {
                assert!(queued.iter().all(Job::is_done));
            }
            let squares: Vec<usize> = queued
                .into_iter()
                .map(|j| workers.join(j).unwrap())
                .collect();
            assert_eq!(
                squares,
                (0..8).map(|i| i * i).collect::<Vec<_>>(),
                "{count}"
            );
        }
    }

    #[test]
    fn a_consumer_error_stops_the_level_and_comes_back_at_once() {
        use std::sync::atomic::AtomicBool;
        for count in [0, 1, 3] {
            let workers = Workers::with_count(count);
            let stop = Arc::new(AtomicBool::new(false));
            let late = Arc::new(AtomicUsize::new(0));
            let (seen, counted) = (Arc::clone(&stop), Arc::clone(&late));
            let mut consumed = 0;
            let stopped = workers.run_in_order(
                64,
                move |i| {
                    if seen.load(Ordering::SeqCst) {
                        counted.fetch_add(1, Ordering::SeqCst);
                    }
                    uneven(i)
                },
                |outcome| {
                    consumed += 1;
                    if outcome.unwrap() == 3 {
                        stop.store(true, Ordering::SeqCst);
                        return Err("stop");
                    }
                    Ok(())
                },
            );
            assert_eq!((stopped, consumed), (Err("stop"), 4), "{count}");
            // Only an index a worker claimed just before the stop can start
            // after it: at most one per worker, and none on the caller.
            assert!(late.load(Ordering::SeqCst) <= count, "{count}");
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
