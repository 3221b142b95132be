//! The LIFL aggregator runtime: the Recv → Agg → Send processing model of
//! Appendix G, operating on object keys in shared memory.

use lifl_fl::codec::{EncodedView, UpdateCodec};
use lifl_fl::robust::PolicyFold;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{InPlaceQueue, ObjectStore, SharedObject};
use lifl_types::{AggregatorId, FoldPolicy, LiflError, Result, Topology};

/// A single stateless aggregator runtime.
///
/// The runtime is "homogenised" (§5.3): the same struct serves as leaf, middle
/// or top aggregator — only its aggregation goal differs, so a warm instance
/// serves any level after a re-arm, without restarting.
#[derive(Debug)]
pub struct AggregatorRuntime {
    id: AggregatorId,
    goal: u64,
    store: ObjectStore,
    inbox: InPlaceQueue,
    accumulator: PolicyFold,
    aggregated: u64,
    /// When set (and lossy), outgoing intermediates are re-encoded with this
    /// codec and stored compressed (the decode-fold-encode interior path).
    codec: Option<UpdateCodec>,
}

impl AggregatorRuntime {
    /// Creates a runtime with the given aggregation goal (§2.1), reading
    /// updates from `inbox` and payloads from `store`.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if `goal` is zero.
    pub fn new(
        id: AggregatorId,
        goal: u64,
        store: ObjectStore,
        inbox: InPlaceQueue,
    ) -> Result<Self> {
        if goal == 0 {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        Ok(AggregatorRuntime {
            id,
            goal,
            store,
            inbox,
            accumulator: PolicyFold::default(),
            aggregated: 0,
            codec: None,
        })
    }

    /// Creates a runtime whose outgoing intermediates travel through `codec`.
    /// Incoming updates are decoded from whatever representation their queue
    /// entry declares, so mixed (dense + encoded) inboxes are fine.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if `goal` is zero.
    pub fn with_codec(
        id: AggregatorId,
        goal: u64,
        store: ObjectStore,
        inbox: InPlaceQueue,
        codec: UpdateCodec,
    ) -> Result<Self> {
        let mut runtime = Self::new(id, goal, store, inbox)?;
        runtime.codec = Some(codec);
        Ok(runtime)
    }

    /// Creates the runtime serving position (`level`, `index`) of an N-level
    /// [`Topology`] tree: the aggregation goal (the level's fan-in) and the
    /// aggregator identity both derive from the tree position, so a
    /// session can instantiate any tree without per-shape wiring code.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] if the position lies outside the
    /// topology.
    pub fn for_level(
        topology: &Topology,
        level: usize,
        index: usize,
        store: ObjectStore,
        inbox: InPlaceQueue,
        codec: UpdateCodec,
    ) -> Result<Self> {
        if level >= topology.levels() || index >= topology.width(level) {
            return Err(LiflError::InvalidConfig(format!(
                "aggregator position (level {level}, index {index}) outside {topology}"
            )));
        }
        let id = position_id(level, index);
        Self::station(topology, level, id, store, inbox, codec)
    }

    /// The warm runtime serving level `level` of `topology` as `id` (the
    /// position's identity inside whatever tree encloses it): its goal from
    /// the level, like [`AggregatorRuntime::for_level`]. A session keeps
    /// one per position for its whole life and re-arms it every round.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] for a zero fan-in.
    pub(crate) fn station(
        topology: &Topology,
        level: usize,
        id: AggregatorId,
        store: ObjectStore,
        inbox: InPlaceQueue,
        codec: UpdateCodec,
    ) -> Result<Self> {
        Self::with_codec(id, topology.fan_in(level) as u64, store, inbox, codec)
    }

    /// Opens a round with aggregation goal `goal`: the runtime is left in
    /// exactly the state a freshly built one is in — empty accumulator under
    /// the same policy, nothing aggregated, and its codec stream restarted at
    /// the position seed (the aggregator id) — whatever the previous round
    /// left behind, a failed or panicked one included.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidAggregationGoal`] if `goal` is zero.
    pub(crate) fn rearm(&mut self, goal: u64) -> Result<()> {
        if goal == 0 {
            return Err(LiflError::InvalidAggregationGoal(0));
        }
        self.goal = goal;
        self.aggregated = 0;
        if let Some(codec) = &mut self.codec {
            codec.reseed(self.id.index());
        }
        self.replace_accumulator(self.accumulator.policy())
    }

    /// Swaps in an empty accumulator for `policy`; the old one's buffer — a
    /// failed round's half-folded sum, or one warmed and never folded into —
    /// goes home to the codec's pool, not away.
    fn replace_accumulator(&mut self, policy: FoldPolicy) -> Result<()> {
        let fresh = PolicyFold::new(policy)?;
        if let Some(codec) = &self.codec {
            self.accumulator.release_to(codec.pool());
        }
        self.accumulator = fresh;
        Ok(())
    }

    /// Accepts a shard count and changes nothing: a station's batch fold
    /// runs on the thread that claimed it, whatever the value. Kept only so
    /// the whole-round benchmark's engine adapter compiles unchanged.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Sets the fold policy this runtime aggregates with, as its session's
    /// builder was given it. [`FoldPolicy::FedAvg`] keeps the seed's
    /// eager constant-memory fold bit-exactly; robust policies buffer the
    /// round and compute a coordinate-wise statistic at send time.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for invalid policy parameters or
    /// when updates have already been folded into the current round.
    pub fn set_policy(&mut self, policy: FoldPolicy) -> Result<()> {
        if self.accumulator.updates_folded() > 0 {
            return Err(LiflError::InvalidConfig(
                "cannot change fold policy mid-round".to_string(),
            ));
        }
        self.replace_accumulator(policy)
    }

    /// The aggregator's identity, for tests that check a station's wiring.
    #[cfg(test)]
    pub(crate) fn id(&self) -> AggregatorId {
        self.id
    }

    /// Whether the aggregation goal has been met.
    pub fn goal_met(&self) -> bool {
        self.aggregated >= self.goal
    }

    /// Runs one Recv+Agg step: dequeues the next key (if any) and folds the
    /// referenced update into the accumulator. Returns `true` if an update was
    /// processed (eager aggregation processes updates one at a time, §5.4).
    ///
    /// # Errors
    /// Propagates object-store and dimension errors.
    pub fn poll(&mut self) -> Result<bool> {
        let Some(queued) = self.inbox.dequeue() else {
            return Ok(false);
        };
        let object = self.store.get(&queued.key)?;
        // Fused decode-fold straight off the shared-memory bytes: no
        // intermediate `DenseModel` (or payload copy) is materialised.
        let view = payload_view(&object, &queued)?;
        self.warm_accumulator(view.dim());
        self.accumulator.fold_encoded_view(&view, queued.weight)?;
        self.aggregated += 1;
        Ok(true)
    }

    /// Drains queued updates up to the aggregation goal in one batch and
    /// folds it cache-blocked on the calling thread — the station's one fold
    /// path. Returns the number of updates folded.
    ///
    /// The result is bit-identical to polling the same updates one at a time:
    /// the batch fold applies updates in queue order within every element,
    /// and — like the eager poll loop — updates beyond the goal stay queued.
    ///
    /// # Errors
    /// Propagates object-store, codec-parse and dimension errors. On failure
    /// nothing is folded; every drained update except a corrupt one (which is
    /// dropped, exactly as a failed [`AggregatorRuntime::poll`] drops it) is
    /// re-enqueued in order.
    pub fn drain_batch(&mut self) -> Result<usize> {
        let remaining = self.goal.saturating_sub(self.aggregated) as usize;
        let mut queued = Vec::with_capacity(remaining);
        while queued.len() < remaining {
            match self.inbox.dequeue() {
                Some(entry) => queued.push(entry),
                None => break,
            }
        }
        if queued.is_empty() {
            return Ok(0);
        }
        match self.fold_drained(&queued) {
            Ok(folded) => {
                self.aggregated += folded as u64;
                Ok(folded)
            }
            Err((corrupt, error)) => {
                for (i, entry) in queued.into_iter().enumerate() {
                    if Some(i) != corrupt {
                        self.inbox.enqueue(entry);
                    }
                }
                Err(error)
            }
        }
    }

    /// Folds a drained batch all-or-nothing; on failure reports which entry
    /// (if any single one) was at fault so the caller can drop just it.
    fn fold_drained(
        &mut self,
        queued: &[QueuedUpdate],
    ) -> std::result::Result<usize, (Option<usize>, LiflError)> {
        let mut objects = Vec::with_capacity(queued.len());
        for (i, entry) in queued.iter().enumerate() {
            objects.push(self.store.get(&entry.key).map_err(|e| (Some(i), e))?);
        }
        let mut views = Vec::with_capacity(queued.len());
        for (i, (object, entry)) in objects.iter().zip(queued).enumerate() {
            views.push((
                payload_view(object, entry).map_err(|e| (Some(i), e))?,
                entry.weight,
            ));
        }
        if let Some((first, _)) = views.first() {
            self.warm_accumulator(first.dim());
        }
        self.accumulator
            .fold_encoded_batch(&views)
            .map_err(|e| (None, e))?;
        Ok(views.len())
    }

    /// Draws the round's accumulator from the codec's pool when the runtime
    /// has one and the accumulator holds no buffer yet: in steady state that
    /// is the vector a previous round's `send` moved into the store, come
    /// home when the object was recycled.
    fn warm_accumulator(&mut self, dim: usize) {
        if let Some(codec) = &self.codec {
            self.accumulator.warm_from(codec.pool(), dim);
        }
    }

    /// Runs the Send step: finalises the aggregate, moves it into shared
    /// memory and returns the queue entry to hand to the consumer. The
    /// finalised model's own vector (or, under a lossy codec, the one pooled
    /// buffer it was re-encoded into) becomes the stored object; a pooled
    /// buffer returns to the codec's pool when the object is recycled, or at
    /// once if the store refuses it, and so does the accumulator a lossy
    /// codec has finished reading.
    ///
    /// # Errors
    /// Returns an error if the goal has not been met or the store is full.
    pub fn send(&mut self) -> Result<QueuedUpdate> {
        if !self.goal_met() {
            return Err(LiflError::InvalidAggregationGoal(self.aggregated));
        }
        let result = self.accumulator.finalize()?;
        let queued = match &mut self.codec {
            Some(codec) if !codec.kind().is_lossless() => {
                let encoded = codec.encode(&result.model);
                codec.pool().checkin_f32(result.model.into_vec());
                let dense_bytes = encoded.dense_bytes();
                let key = self.store.put_encoded(encoded.into_wire(), dense_bytes)?;
                QueuedUpdate::intermediate(key, result.samples).encoded()
            }
            Some(codec) => {
                let wire = result.model.into_pooled_wire(codec.pool());
                QueuedUpdate::intermediate(self.store.put(wire)?, result.samples)
            }
            None => {
                let key = self.store.put(result.model.into_wire())?;
                QueuedUpdate::intermediate(key, result.samples)
            }
        };
        self.aggregated = 0;
        Ok(queued)
    }

    /// Drives the runtime until the goal is met and the result is sent: the
    /// inbox drains as batches through [`AggregatorRuntime::drain_batch`]
    /// (lazy aggregation simply calls this after all inputs are queued). The
    /// result is bit-identical to a [`AggregatorRuntime::poll`] loop over the
    /// same inbox.
    ///
    /// # Errors
    /// Propagates the errors of [`AggregatorRuntime::drain_batch`] and
    /// [`AggregatorRuntime::send`], and reports starvation when the inbox
    /// runs dry before the goal.
    pub fn run_to_completion(&mut self) -> Result<QueuedUpdate> {
        while !self.goal_met() {
            if self.drain_batch()? == 0 {
                return Err(LiflError::Simulation(format!(
                    "aggregator {} starved: {}/{} updates received",
                    self.id, self.aggregated, self.goal
                )));
            }
        }
        self.send()
    }
}

/// The aggregator identity at position (`level`, `index`) of a topology tree
/// — the one packing shared by [`AggregatorRuntime::for_level`] and a
/// session's stations (which register the same id for their gateway inbox),
/// so routing ids always match aggregator identities.
pub(crate) fn position_id(level: usize, index: usize) -> AggregatorId {
    AggregatorId::new(((level as u64) << 32) | index as u64)
}

/// A zero-copy fused-fold view over a queued payload: encoded payloads parse
/// their self-describing header in place; dense payloads fold through the
/// bit-exact `Identity` kernel.
fn payload_view<'a>(object: &'a SharedObject, queued: &QueuedUpdate) -> Result<EncodedView<'a>> {
    if queued.encoded {
        EncodedView::parse(object.as_slice())
    } else {
        Ok(EncodedView::identity_over(object.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_types::ClientId;

    fn queue_client_update(
        store: &ObjectStore,
        inbox: &InPlaceQueue,
        client: u64,
        values: &[f32],
        samples: u64,
    ) {
        let key = store.put_f32(values).unwrap();
        let mut q = QueuedUpdate::from_client(ClientId::new(client), key);
        q.weight = samples;
        inbox.enqueue(q);
    }

    #[test]
    fn aggregates_to_goal_and_sends() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 2, store.clone(), inbox.clone()).unwrap();
        assert!(!agg.goal_met());
        queue_client_update(&store, &inbox, 1, &[2.0, 4.0], 1);
        queue_client_update(&store, &inbox, 2, &[4.0, 8.0], 3);
        assert!(agg.poll().unwrap());
        assert!(!agg.goal_met());
        assert!(agg.poll().unwrap());
        assert!(agg.goal_met());
        let out = agg.send().unwrap();
        assert_eq!(out.weight, 4);
        let result = store.get(&out.key).unwrap().as_f32_vec();
        assert!((result[0] - 3.5).abs() < 1e-6);
        assert!((result[1] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn poll_without_updates_returns_false() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg = AggregatorRuntime::new(AggregatorId::new(1), 1, store, inbox).unwrap();
        assert!(!agg.poll().unwrap());
        assert!(agg.send().is_err());
        assert!(agg.run_to_completion().is_err());
    }

    #[test]
    fn promotion_resets_state() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 1, store.clone(), inbox.clone()).unwrap();
        queue_client_update(&store, &inbox, 1, &[1.0], 1);
        agg.run_to_completion().unwrap();
        // Promotion (§5.3) is a re-arm for the next level's goal.
        agg.rearm(3).unwrap();
        assert_eq!((agg.goal, agg.aggregated), (3, 0));
        assert!(!agg.goal_met());
        assert!(agg.rearm(0).is_err());
    }

    #[test]
    fn promotion_mid_round_hands_the_accumulator_back_to_the_pool() {
        use lifl_types::CodecKind;

        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let pool = lifl_shmem::BufferPool::new();
        let mut agg = AggregatorRuntime::with_codec(
            AggregatorId::new(1),
            2,
            store.clone(),
            inbox.clone(),
            UpdateCodec::new(CodecKind::Identity).with_pool(pool.clone()),
        )
        .unwrap();
        for round in 0..3u64 {
            agg.rearm(2).unwrap();
            queue_client_update(&store, &inbox, 1, &[2.0, 4.0], 1);
            assert!(agg.poll().unwrap());
            if round == 1 {
                // The half-folded accumulator must go home, not away.
                agg.rearm(2).unwrap();
                queue_client_update(&store, &inbox, 1, &[2.0, 4.0], 1);
                assert!(agg.poll().unwrap());
            }
            queue_client_update(&store, &inbox, 2, &[4.0, 8.0], 3);
            assert!(agg.poll().unwrap());
            let out = agg.send().unwrap();
            assert_eq!(store.get(&out.key).unwrap().as_f32_vec(), vec![3.5, 7.0]);
            store.recycle(&out.key).unwrap();
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn for_level_derives_role_goal_and_identity_from_topology() {
        use lifl_types::CodecKind;

        let topology = Topology::new(vec![2, 3, 4]).unwrap();
        let make = |level: usize, index: usize| {
            AggregatorRuntime::for_level(
                &topology,
                level,
                index,
                ObjectStore::new(),
                InPlaceQueue::new(),
                UpdateCodec::new(CodecKind::Identity),
            )
        };
        let leaf = make(0, 11).unwrap();
        assert_eq!((leaf.goal, leaf.id), (2, AggregatorId::new(11)));
        let middle = make(1, 3).unwrap();
        assert_eq!(
            (middle.goal, middle.id),
            (3, AggregatorId::new((1 << 32) | 3))
        );
        let top = make(2, 0).unwrap();
        assert_eq!((top.goal, top.id), (4, position_id(2, 0)));
        // Positions outside the tree are rejected.
        assert!(make(0, 12).is_err());
        assert!(make(1, 4).is_err());
        assert!(make(3, 0).is_err());
    }

    #[test]
    fn codec_runtime_decodes_folds_and_reencodes() {
        use lifl_fl::DenseModel;
        use lifl_types::CodecKind;

        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let pool = lifl_shmem::BufferPool::new();
        let mut agg = AggregatorRuntime::with_codec(
            AggregatorId::new(1),
            2,
            store.clone(),
            inbox.clone(),
            UpdateCodec::new(CodecKind::Uniform8).with_pool(pool.clone()),
        )
        .unwrap();
        // Client updates arrive already encoded (as the gateway stores them);
        // 64 dims so the 16-byte wire header is amortised and bytes shrink.
        let mut client_codec = UpdateCodec::new(CodecKind::Uniform8);
        for (i, base) in [2.0f32, 4.0].iter().enumerate() {
            let values: Vec<f32> = (0..64).map(|d| base * (1.0 + d as f32 / 32.0)).collect();
            let encoded = client_codec.encode(&DenseModel::from_vec(values));
            let key = store
                .put_encoded(encoded.to_bytes(), encoded.dense_bytes())
                .unwrap();
            let mut q = QueuedUpdate::from_client(ClientId::new(i as u64), key).encoded();
            q.weight = 1 + 2 * i as u64;
            inbox.enqueue(q);
        }
        agg.poll().unwrap();
        agg.poll().unwrap();
        let out = agg.send().unwrap();
        assert!(out.encoded, "interior output must stay compressed");
        assert_eq!(out.weight, 4);
        let object = store.get(&out.key).unwrap();
        let decoded = EncodedView::parse(object.as_slice()).unwrap().decode();
        // Weighted mean is 3.5 * (1 + d/32), within quantization error.
        assert!((decoded.as_slice()[0] - 3.5).abs() < 0.3);
        assert!((decoded.as_slice()[63] - 3.5 * (1.0 + 63.0 / 32.0)).abs() < 0.3);
        // The re-encode buffer *is* the stored object (wire form at offset
        // 0, nothing copied): it is out of the pool while the object lives
        // and comes home for the next send when the store recycles it. The
        // accumulator is home already — the encode was its last reader.
        assert_eq!(pool.stats().idle_buffers, 1);
        drop(object);
        store.recycle(&out.key).unwrap();
        assert_eq!(pool.stats().idle_buffers, 2);
        // The store really held compressed payloads.
        assert!(store.stats().encoded_puts >= 3);
        assert!(store.stats().bytes_saved() > 0);
    }

    #[test]
    fn a_lossless_runtime_folds_every_round_into_the_same_pooled_accumulator() {
        use lifl_types::CodecKind;

        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let pool = lifl_shmem::BufferPool::new();
        let mut agg = AggregatorRuntime::with_codec(
            AggregatorId::new(1),
            2,
            store.clone(),
            inbox.clone(),
            UpdateCodec::new(CodecKind::Identity).with_pool(pool.clone()),
        )
        .unwrap();
        let mut addresses = Vec::new();
        for round in 0..3u64 {
            queue_client_update(&store, &inbox, 1, &[2.0, 4.0], 1);
            queue_client_update(&store, &inbox, 2, &[4.0, 8.0 + round as f32], 3);
            let out = agg.run_to_completion().unwrap();
            let object = store.get(&out.key).unwrap();
            // A reused accumulator starts from zero like a fresh one.
            assert_eq!(
                object.as_f32_vec(),
                vec![3.5, 7.0 + 0.75 * round as f32],
                "round {round}"
            );
            // The stored intermediate *is* the accumulator: out of the pool
            // while the object lives, home once the store lets go of it.
            addresses.push(object.as_slice().as_ptr());
            assert_eq!(pool.stats().idle_buffers, 0);
            drop(object);
            store.recycle(&out.key).unwrap();
            assert_eq!(pool.stats().idle_buffers, 1);
        }
        assert!(
            addresses.iter().all(|a| *a == addresses[0]),
            "{addresses:?}"
        );
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn drain_batch_is_bit_identical_to_eager_polling() {
        use lifl_fl::DenseModel;
        use lifl_types::CodecKind;

        let dim = 9000;
        let values = |i: usize| -> Vec<f32> {
            (0..dim)
                .map(|d| ((i * 13 + d) % 59) as f32 * 0.03 - 0.8)
                .collect()
        };
        // Four client updates in the representation the gateway stores, then
        // one round to `goal` — by an explicit `poll` loop (the §5.4 single
        // step, `None`) or by `run_to_completion` at a shard count. Returns
        // the sent object's bytes, its queue entry's weight and flag, and
        // what the round left queued.
        let run = |kind: CodecKind, policy: FoldPolicy, goal: u64, shards: Option<usize>| {
            let store = ObjectStore::new();
            let inbox = InPlaceQueue::new();
            let mut agg = AggregatorRuntime::with_codec(
                AggregatorId::new(1),
                goal,
                store.clone(),
                inbox.clone(),
                UpdateCodec::new(kind),
            )
            .unwrap();
            agg.set_policy(policy).unwrap();
            let mut client = UpdateCodec::new(kind);
            for i in 0..4 {
                let producer = ClientId::new(i as u64);
                let mut queued = if kind.is_lossless() {
                    QueuedUpdate::from_client(producer, store.put_f32(&values(i)).unwrap())
                } else {
                    let encoded = client.encode(&DenseModel::from_vec(values(i)));
                    let wire = encoded.to_bytes();
                    let key = store.put_encoded(wire, encoded.dense_bytes()).unwrap();
                    QueuedUpdate::from_client(producer, key).encoded()
                };
                queued.weight = i as u64 + 1;
                inbox.enqueue(queued);
            }
            let out = match shards {
                Some(shards) => {
                    agg.set_shards(shards);
                    agg.run_to_completion().unwrap()
                }
                None => {
                    while !agg.goal_met() {
                        assert!(agg.poll().unwrap());
                    }
                    agg.send().unwrap()
                }
            };
            let bytes = store.get(&out.key).unwrap().as_slice().to_vec();
            (bytes, out.weight, out.encoded, inbox.len())
        };
        for kind in [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 50 },
        ] {
            for policy in [FoldPolicy::FedAvg, FoldPolicy::Median] {
                // A full goal, and a quorum-sized one that leaves an update
                // queued.
                for goal in [4, 3] {
                    let polled = run(kind, policy, goal, None);
                    assert_eq!(polled.3, 4 - goal as usize);
                    for shards in [1usize, 2, 4] {
                        assert!(
                            run(kind, policy, goal, Some(shards)) == polled,
                            "{kind}/{policy:?}/goal {goal}: {shards}-shard drain diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drain_batch_stops_at_the_goal_like_eager_polling() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 2, store.clone(), inbox.clone()).unwrap();
        for i in 0..5u64 {
            queue_client_update(&store, &inbox, i, &[i as f32, 1.0], 1);
        }
        assert_eq!(agg.drain_batch().unwrap(), 2);
        assert!(agg.goal_met());
        // The three updates beyond the goal survive for the next round.
        assert_eq!(inbox.len(), 3);
        let out = agg.send().unwrap();
        let result = store.get(&out.key).unwrap().as_f32_vec();
        assert!((result[0] - 0.5).abs() < 1e-6, "folded first two only");
        assert_eq!(agg.drain_batch().unwrap(), 2);
        assert_eq!(inbox.len(), 1);
    }

    #[test]
    fn drain_batch_requeues_valid_updates_around_a_corrupt_one() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 3, store.clone(), inbox.clone()).unwrap();
        queue_client_update(&store, &inbox, 0, &[1.0, 2.0], 1);
        let corrupt = store.put(vec![1u8, 2, 3]).unwrap();
        inbox.enqueue(QueuedUpdate::from_client(ClientId::new(1), corrupt).encoded());
        queue_client_update(&store, &inbox, 2, &[3.0, 4.0], 1);
        assert!(matches!(agg.drain_batch(), Err(LiflError::Codec(_))));
        // Nothing was folded; the two valid updates went back in order.
        assert_eq!(agg.aggregated, 0);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.dequeue().unwrap().producer, Some(ClientId::new(0)));
        assert_eq!(inbox.dequeue().unwrap().producer, Some(ClientId::new(2)));
    }

    #[test]
    fn drain_batch_on_empty_inbox_reports_starvation() {
        let mut agg = AggregatorRuntime::new(
            AggregatorId::new(1),
            1,
            ObjectStore::new(),
            InPlaceQueue::new(),
        )
        .unwrap();
        assert_eq!(agg.drain_batch().unwrap(), 0);
        assert!(agg.run_to_completion().is_err());
    }

    #[test]
    fn corrupt_encoded_payload_is_an_error() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 1, store.clone(), inbox.clone()).unwrap();
        let key = store.put(vec![1u8, 2, 3]).unwrap();
        inbox.enqueue(QueuedUpdate::from_client(ClientId::new(1), key).encoded());
        assert!(matches!(agg.poll(), Err(LiflError::Codec(_))));
    }

    #[test]
    fn robust_policy_survives_an_adversarial_update() {
        let store = ObjectStore::new();
        let inbox = InPlaceQueue::new();
        let mut agg =
            AggregatorRuntime::new(AggregatorId::new(1), 3, store.clone(), inbox.clone()).unwrap();
        agg.set_policy(FoldPolicy::Median).unwrap();
        assert_eq!(agg.accumulator.policy(), FoldPolicy::Median);
        queue_client_update(&store, &inbox, 0, &[1.0, 2.0], 1);
        queue_client_update(&store, &inbox, 1, &[3.0, 4.0], 1);
        // An adversary scales its update by 1e6 and claims a huge weight.
        queue_client_update(&store, &inbox, 2, &[1e6, -1e6], 1000);
        let out = agg.run_to_completion().unwrap();
        let result = store.get(&out.key).unwrap().as_f32_vec();
        assert_eq!(result, vec![3.0, 2.0], "median ignores the outlier");
        // Mid-round policy changes are rejected.
        queue_client_update(&store, &inbox, 3, &[1.0, 1.0], 1);
        agg.poll().unwrap();
        assert!(agg.set_policy(FoldPolicy::FedAvg).is_err());
    }

    #[test]
    fn zero_goal_rejected() {
        let err = AggregatorRuntime::new(
            AggregatorId::new(1),
            0,
            ObjectStore::new(),
            InPlaceQueue::new(),
        );
        assert!(err.is_err());
    }
}
