//! Parallel sharded training with linearity-backed merges.
//!
//! [`ShardedLearner`] hash-partitions the example stream across `N` worker
//! replicas of a [`MergeableLearner`] and periodically merges them into a
//! queryable **root** model. Because the WM-Sketch is a *linear* sketch
//! (the turnstile/linear-sketching equivalence of Kallaugher & Price —
//! see PAPERS.md), merging worker sketches is cell-wise addition and the
//! merged sketch is exactly the sketch of the combined gradient streams;
//! no approximation is introduced by the split.
//!
//! # Architecture
//!
//! * **Routing** is a deterministic hash of the example's arrival index,
//!   so the partition — and therefore every model state — is independent
//!   of thread scheduling. Repeated runs produce bit-identical results.
//! * **Workers** run on a [`std::thread::scope`]-based pool inside
//!   [`OnlineLearner::update_batch`] (no external thread-pool crates).
//!   Each worker learner owns its `CoordPlan`/median scratch, so the hot
//!   loop is allocation-free and shares no state across threads.
//! * **Deferred heap maintenance.** Worker WM-Sketches run *heap-free*:
//!   the per-update median re-estimation that feeds the passive top-K heap
//!   — the dominant non-hash cost at the paper's 8 KB Figure-7 shape — is
//!   deferred to merge time. Workers instead track **candidate features**
//!   by accumulated ℓ1 touch mass (`Σ|x_i|`, the heavy-hitter notion
//!   behind the paper's `γ = max‖x‖₁` bound) in a flat-map tracker with
//!   Space-Saving-style floor inheritance (see `TouchMassTracker`), and
//!   the merged root re-estimates the candidate union against the merged
//!   cells ([`MergeableLearner::rebuild_top_k`]). This is why sharding
//!   pays even on a single core.
//! * **Queries** ([`OnlineLearner::margin`], [`WeightEstimator`],
//!   [`TopKRecovery`]) are served by the root as of the last merge; call
//!   [`ShardedLearner::sync`] for an up-to-the-example view. With one
//!   shard the learner bypasses the pool entirely and the root is the
//!   live sequential model — bit-identical to unsharded training.
//!
//! Merging *sums* the per-shard models, the natural composition for
//! linear sketches of gradient streams. Each worker advances its own
//! learning-rate clock over its substream, so an `N`-shard model is not
//! numerically identical to sequential training (no parallel SGD is); the
//! planted-signal tests below and in `tests/sharded_golden.rs` pin what
//! is guaranteed: determinism, 1-shard exactness, and recovery quality.

use wmsketch_hashing::{fast_range, splitmix64};
use wmsketch_learn::{
    Label, MergeableLearner, OnlineLearner, SparseVector, TopKRecovery, WeightEntry,
    WeightEstimator,
};

use crate::awm::{AwmSketch, AwmSketchConfig};
use crate::wm::{WmSketch, WmSketchConfig};

/// The shard an arrival index maps to under `partition_seed` with
/// `shards` workers — the single routing formula behind
/// [`ShardedLearner::shard_of`] *and* the batch router's staging loop
/// (which cannot call `shard_of` mid split-borrow). Keeping one copy is
/// load-bearing: the public `shard_of` contract lets external
/// partitioners reproduce internal routing bit for bit, so the two paths
/// must never diverge.
#[inline]
fn shard_for(arrival_index: u64, partition_seed: u64, shards: u64) -> usize {
    fast_range(splitmix64(arrival_index ^ partition_seed), shards) as usize
}

/// Configuration for [`ShardedLearner`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedLearnerConfig {
    /// Number of worker shards. `1` bypasses the pool: updates go straight
    /// to the root learner on the calling thread.
    pub shards: usize,
    /// Candidate features tracked per shard for the root's top-K rebuild
    /// (0 disables tracking — the root's heap then only reflects what
    /// [`MergeableLearner::merge_from`] itself carries over).
    pub candidates_per_shard: usize,
    /// Auto-merge after this many routed examples (0 = merge only on
    /// explicit [`ShardedLearner::sync`] calls).
    pub sync_every: u64,
    /// Seed for the arrival-index partition hash.
    pub partition_seed: u64,
}

impl ShardedLearnerConfig {
    /// `shards` workers with a 128-candidate tracker each and a 8192
    /// example auto-merge cadence.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be nonzero");
        Self {
            shards,
            candidates_per_shard: 128,
            sync_every: 8192,
            partition_seed: 0x5AAD,
        }
    }

    /// Sets the per-shard candidate-tracker capacity.
    #[must_use]
    pub fn candidates_per_shard(mut self, n: usize) -> Self {
        self.candidates_per_shard = n;
        self
    }

    /// Sets the auto-merge cadence (0 = manual sync only).
    #[must_use]
    pub fn sync_every(mut self, n: u64) -> Self {
        self.sync_every = n;
        self
    }

    /// Sets the partition-hash seed.
    #[must_use]
    pub fn partition_seed(mut self, seed: u64) -> Self {
        self.partition_seed = seed;
        self
    }
}

/// Per-shard candidate tracker: exact accumulated ℓ1 touch mass per
/// feature in a flat hash map — one map operation per touched feature,
/// nothing heap-shaped on the hot path.
///
/// The map is compacted to its heaviest half whenever it outgrows a
/// high-water mark (32× the reported candidate count), and the largest
/// mass dropped at any compaction becomes a **floor** inherited by every
/// feature admitted later, exactly as a Space-Saving newcomer inherits
/// the minimum counter. The floor is what rules out starvation: a feature
/// that turns heavy only late in the stream re-enters at the floor and
/// overtakes the incumbents as its true mass accrues, instead of
/// restarting from zero below an ever-rising cut line. (A plain
/// keep-the-top-K tracker has exactly that failure; a real Space-Saving
/// summary fixes it too but pays ~20 position-map writes per tail-feature
/// eviction at capacity, which measured 2× slower end to end.)
#[derive(Clone)]
struct TouchMassTracker {
    mass: wmsketch_hashing::FastHashMap<u32, f64>,
    /// Candidates reported to the root rebuild.
    capacity: usize,
    /// Compaction trigger for the map's size.
    high_water: usize,
    /// Mass inherited by newly-admitted features (max mass ever dropped).
    floor: f64,
}

impl TouchMassTracker {
    fn new(capacity: usize) -> Self {
        // The high-water mark trades memory for churn: it is sized so that
        // a typical sync interval's distinct-feature set (tens of
        // thousands) fits without ever compacting — ~1 MB per shard at the
        // default — because each compaction pays O(len) and every dropped
        // feature that returns re-admits toward the next one.
        Self::with_high_water(capacity, capacity.saturating_mul(512).max(1 << 16))
    }

    fn with_high_water(capacity: usize, high_water: usize) -> Self {
        Self {
            mass: wmsketch_hashing::FastHashMap::default(),
            capacity,
            high_water,
            floor: 0.0,
        }
    }

    /// Adds `m` to `feature`'s accumulated touch mass.
    #[inline]
    fn record(&mut self, feature: u32, m: f64) {
        let floor = self.floor;
        *self.mass.entry(feature).or_insert(floor) += m;
        if self.mass.len() > self.high_water {
            self.compact();
        }
    }

    /// Keeps the heaviest half of the map and raises the admission floor
    /// to the largest mass dropped. O(len) selection, not a sort; the kept
    /// *set* is uniquely determined by the (mass desc, id asc) total
    /// order, so compaction is deterministic even though selection leaves
    /// the two partitions internally unordered.
    #[cold]
    fn compact(&mut self) {
        let keep = self.high_water / 2;
        let mut entries: Vec<(u32, f64)> = self.mass.drain().collect();
        let cmp = |a: &(u32, f64), b: &(u32, f64)| {
            b.1.partial_cmp(&a.1).expect("NaN mass").then(a.0.cmp(&b.0))
        };
        let (_, &mut (_, dropped), _) = entries.select_nth_unstable_by(keep, cmp);
        self.floor = self.floor.max(dropped);
        entries.truncate(keep);
        self.mass.extend(entries);
    }

    /// The `capacity` heaviest features, in unspecified order (the sync
    /// path sorts the cross-shard union anyway). O(len) selection: the
    /// reported *set* is uniquely determined by the (mass desc, id asc)
    /// total order, so this is deterministic despite the unstable
    /// partition.
    fn candidates(&self) -> Vec<u32> {
        let mut entries: Vec<(u32, f64)> = self.mass.iter().map(|(&f, &m)| (f, m)).collect();
        if entries.len() > self.capacity {
            entries.select_nth_unstable_by(self.capacity - 1, |a, b| {
                b.1.partial_cmp(&a.1).expect("NaN mass").then(a.0.cmp(&b.0))
            });
            entries.truncate(self.capacity);
        }
        entries.into_iter().map(|(f, _)| f).collect()
    }
}

/// One worker: a learner replica plus its candidate tracker.
struct Shard<L> {
    learner: L,
    /// `Σ|x_i|` touch-mass tracker; its heaviest features are offered to
    /// the root's heap rebuild at merge time. `None` when tracking is
    /// disabled.
    candidates: Option<TouchMassTracker>,
}

impl<L: OnlineLearner> Shard<L> {
    /// Applies one example and records its features' touch mass.
    fn apply(&mut self, x: &SparseVector, y: Label) {
        self.learner.update(x, y);
        if let Some(tracker) = &mut self.candidates {
            for (i, xi) in x.iter() {
                tracker.record(i, xi.abs());
            }
        }
    }
}

/// A sharded wrapper around any [`MergeableLearner`] (see module docs).
pub struct ShardedLearner<L> {
    cfg: ShardedLearnerConfig,
    /// Pristine zero-state learner; every merge starts from a clone of it
    /// so repeated syncs never double-count shard state.
    template: L,
    /// The queryable merged model (live model in 1-shard bypass mode).
    root: L,
    /// Worker replicas; empty in bypass mode.
    shards: Vec<Shard<L>>,
    /// Arrival counter: total examples routed, and the partition-hash key
    /// for the next example.
    routed: u64,
    /// Sum of the clocks of every peer model folded in via
    /// [`ShardedLearner::absorb`]. Kept separate from `routed` on purpose:
    /// `examples_seen` reports locally routed examples only, while
    /// [`ShardedLearner::merged_clock`] — the learning-rate clock the root
    /// reaches once synced — is `routed + absorbed`.
    absorbed: u64,
    /// Examples routed since the last merge.
    since_sync: u64,
    /// Per-shard staging for batch routing: `route_scratch[s]` holds the
    /// chunk indices assigned to shard `s`. Instance-owned so steady-state
    /// batch routing is allocation-free — decoded examples flow from the
    /// caller's buffers straight through [`ShardedLearner::shard_of`] into
    /// the workers without a per-batch staged-vector allocation.
    route_scratch: Vec<Vec<usize>>,
}

impl<L: std::fmt::Debug> std::fmt::Debug for ShardedLearner<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLearner")
            .field("shards", &self.cfg.shards.max(1))
            .field("routed", &self.routed)
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl<L: MergeableLearner + Clone> ShardedLearner<L> {
    /// Builds a sharded learner from a root template and a worker
    /// template.
    ///
    /// The root serves queries (and, for sketched learners, typically
    /// carries the recovery heap); workers are clones of
    /// `worker_template`, which may be a cheaper configuration of the same
    /// sketch — e.g. heap-free WM workers (see [`sharded_wm`]). Both
    /// templates must be merge-compatible.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0`, if the templates are not
    /// merge-compatible, or if either template has already seen examples.
    #[must_use]
    pub fn new(cfg: ShardedLearnerConfig, root_template: L, worker_template: L) -> Self {
        assert!(cfg.shards > 0, "shard count must be nonzero");
        assert!(
            root_template.merge_compatible(&worker_template),
            "root and worker templates are not merge-compatible"
        );
        assert!(
            root_template.examples_seen() == 0 && worker_template.examples_seen() == 0,
            "sharded templates must be untrained"
        );
        let shards = if cfg.shards == 1 {
            Vec::new()
        } else {
            (0..cfg.shards)
                .map(|_| Shard {
                    learner: worker_template.clone(),
                    candidates: (cfg.candidates_per_shard > 0)
                        .then(|| TouchMassTracker::new(cfg.candidates_per_shard)),
                })
                .collect()
        };
        let route_scratch = vec![Vec::new(); shards.len()];
        Self {
            cfg,
            root: root_template.clone(),
            template: root_template,
            shards,
            routed: 0,
            absorbed: 0,
            since_sync: 0,
            route_scratch,
        }
    }

    /// Number of worker shards (1 in bypass mode).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.cfg.shards
    }

    /// The queryable root model, as of the last [`ShardedLearner::sync`]
    /// (always current in 1-shard bypass mode).
    #[must_use]
    pub fn root(&self) -> &L {
        &self.root
    }

    /// Mutable access to the root model, for callers that drive the
    /// root's own encoding machinery (e.g. delta snapshots) after a
    /// [`ShardedLearner::sync`].
    pub(crate) fn root_mut(&mut self) -> &mut L {
        &mut self.root
    }

    /// The learning-rate clock the root model reaches once synced: every
    /// locally routed example plus the clocks of every absorbed peer.
    ///
    /// This is the pool's *replication clock* — unlike
    /// [`OnlineLearner::examples_seen`] (local examples only, the
    /// documented counting semantics of [`ShardedLearner::absorb`]) it
    /// advances when peer state is folded in, and unlike
    /// `self.root().examples_seen()` it does not go stale between syncs.
    #[must_use]
    pub fn merged_clock(&self) -> u64 {
        self.routed + self.absorbed
    }

    /// The worker replicas (empty in bypass mode).
    pub fn shard_learners(&self) -> impl Iterator<Item = &L> {
        self.shards.iter().map(|s| &s.learner)
    }

    /// Upper bound in bytes on the per-shard candidate trackers' state:
    /// one (feature id, mass) entry per map slot at the compaction
    /// high-water mark, under the paper's §7.1 4-byte-unit accounting.
    /// Zero in bypass mode or with tracking disabled. The trackers are the
    /// dominant replicated memory of a sharded deployment — far larger
    /// than the sketch replicas — so memory accounting that includes the
    /// workers must include this too.
    #[must_use]
    pub fn tracker_memory_bound_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.candidates.as_ref())
            .map(|t| t.high_water * 2 * crate::budget::BYTES_PER_UNIT)
            .sum()
    }

    /// Bytes the candidate trackers hold *right now*: allocated map
    /// capacity, not the high-water bound. This is what a memory
    /// governor should charge — the bound above can exceed the actual
    /// footprint by orders of magnitude on a young pool whose maps have
    /// not grown toward compaction yet.
    #[must_use]
    pub fn tracker_resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.candidates.as_ref())
            .map(|t| t.mass.capacity() * (std::mem::size_of::<(u32, f64)>() + 1))
            .sum()
    }

    /// Whether the root reflects every routed example.
    #[must_use]
    pub fn is_synced(&self) -> bool {
        self.shards.is_empty() || self.since_sync == 0
    }

    /// The shard the `index`-th routed example belongs to, for the
    /// configured shard count. Public so external partitioners — e.g. a
    /// client splitting one stream across several ingest services — can
    /// reproduce the exact routing a single sharded learner would apply,
    /// making distributed ingest bit-identical to local sharded training
    /// after the snapshots are merged.
    #[must_use]
    pub fn shard_of(&self, arrival_index: u64) -> usize {
        shard_for(
            arrival_index,
            self.cfg.partition_seed,
            self.cfg.shards as u64,
        )
    }

    /// The shard the `index`-th routed example belongs to.
    fn route(&self, index: u64) -> usize {
        debug_assert_eq!(self.shards.len(), self.cfg.shards);
        self.shard_of(index)
    }

    /// Folds a peer model — typically a decoded snapshot shipped from
    /// another node — into this learner (exact by sketch linearity).
    ///
    /// The peer joins the *sync base*: it is merged into the queryable
    /// root immediately and into the template so that every future
    /// [`ShardedLearner::sync`] (which rebuilds the root from the template
    /// plus the live workers) retains it. Peer examples are not added to
    /// [`OnlineLearner::examples_seen`], which counts locally routed
    /// examples only; the peer's clock instead accrues to
    /// [`ShardedLearner::merged_clock`], the pool's replication clock,
    /// which the root's own clock matches after the next sync.
    ///
    /// # Panics
    /// Panics if `peer` is not merge-compatible with this learner's
    /// models.
    pub fn absorb(&mut self, peer: &L) {
        assert!(
            self.template.merge_compatible(peer),
            "absorbing a merge-incompatible peer model"
        );
        self.absorbed += peer.examples_seen();
        if !self.shards.is_empty() {
            self.template.merge_from(peer);
        }
        self.root.merge_from(peer);
    }

    /// Reinstates `peer` — a decoded checkpoint of this pool's own root —
    /// as the pool's state, the durability counterpart of
    /// [`ShardedLearner::absorb`].
    ///
    /// Where absorb *folds* foreign state in (normalizing the peer's
    /// scale into logical weights and accruing its clock to
    /// [`ShardedLearner::merged_clock`]), restore treats the snapshot as
    /// this pool's own interrupted life: the restored clock becomes the
    /// *routed* counter, so [`OnlineLearner::examples_seen`] reports the
    /// recovered examples and routing resumes at
    /// [`ShardedLearner::shard_of`] of the restored clock — exactly where
    /// the checkpointed pool would have sent its next example.
    ///
    /// In bypass mode (no workers) the root **is** the live learner and
    /// adoption is bit-exact — pre-scale cells, scale factor, update
    /// clock, top-K heap — so resumed training follows the exact
    /// trajectory the checkpoint interrupted. A worker pool's root
    /// snapshot cannot capture the workers' in-flight trajectories, so
    /// there the checkpoint folds into the sync base (aggregate-exact,
    /// like absorb) and only the clock accounting differs.
    ///
    /// Restore assumes fresh workers (a freshly built pool, as the serve
    /// layer's recovery constructs): worker state already reflected in
    /// the checkpointed root would otherwise be double-counted at the
    /// next sync.
    ///
    /// # Panics
    /// Panics if `peer` is not merge-compatible with this learner's
    /// models.
    pub fn restore(&mut self, peer: L) {
        assert!(
            self.template.merge_compatible(&peer),
            "restoring a merge-incompatible checkpoint"
        );
        self.routed = peer.examples_seen();
        self.absorbed = 0;
        if self.shards.is_empty() {
            self.root = peer;
        } else {
            self.template.merge_from(&peer);
            self.root.merge_from(&peer);
        }
    }

    /// Rebuilds the root from the workers: clone the pristine template,
    /// merge every shard in index order (exact by sketch linearity), then
    /// re-estimate the union of tracked candidates into the root's top-K
    /// state. Deterministic: no step depends on thread scheduling. A no-op
    /// when the root is already fresh.
    pub fn sync(&mut self) {
        if self.is_synced() {
            return;
        }
        self.since_sync = 0;
        let mut root = self.template.clone();
        for shard in &self.shards {
            root.merge_from(&shard.learner);
        }
        let mut candidates: Vec<u32> = self
            .shards
            .iter()
            .filter_map(|s| s.candidates.as_ref())
            .flat_map(TouchMassTracker::candidates)
            .collect();
        if !candidates.is_empty() {
            candidates.sort_unstable();
            candidates.dedup();
            root.rebuild_top_k(&candidates);
        }
        // The rebuilt root starts with delta tracking off; inherit the
        // outgoing root's change stamps (where the stored bits agree) so a
        // sync between two delta ships does not degrade every delta to a
        // full snapshot.
        root.inherit_delta_stamps(&self.root);
        self.root = root;
    }

    fn maybe_auto_sync(&mut self) {
        if self.cfg.sync_every > 0 && self.since_sync >= self.cfg.sync_every {
            self.sync();
        }
    }
}

impl<L: MergeableLearner + Clone + Send> ShardedLearner<L> {
    /// Partitions one chunk by arrival index and runs every busy worker
    /// on its own scoped thread (inline when only one worker has work).
    /// Does not touch the routing counters; the caller advances them.
    ///
    /// Staging lives in the instance-owned `route_scratch` buffers, so
    /// steady-state routing allocates nothing: a server connection's
    /// decoded examples go from its scratch buffers straight into the
    /// workers (see `tests/alloc_free.rs`).
    fn run_chunk(&mut self, chunk: &[(SparseVector, Label)]) {
        debug_assert_eq!(self.route_scratch.len(), self.shards.len());
        let (seed, n) = (self.cfg.partition_seed, self.cfg.shards as u64);
        let base = self.routed;
        for idxs in &mut self.route_scratch {
            idxs.clear();
        }
        for idx in 0..chunk.len() {
            // `shard_for`, not `self.shard_of`: the split borrow (scratch
            // is &mut self) needs the hash inputs copied out first.
            let shard = shard_for(base + idx as u64, seed, n);
            self.route_scratch[shard].push(idx);
        }
        let Self {
            shards,
            route_scratch,
            ..
        } = self;
        let busy = route_scratch.iter().filter(|a| !a.is_empty()).count();
        if busy <= 1 {
            // One worker has all the work: skip thread spawns.
            for (shard, idxs) in shards.iter_mut().zip(route_scratch.iter()) {
                for &i in idxs {
                    let (x, y) = &chunk[i];
                    shard.apply(x, *y);
                }
            }
        } else {
            std::thread::scope(|scope| {
                for (shard, idxs) in shards.iter_mut().zip(route_scratch.iter()) {
                    if idxs.is_empty() {
                        continue;
                    }
                    scope.spawn(move || {
                        for &i in idxs {
                            let (x, y) = &chunk[i];
                            shard.apply(x, *y);
                        }
                    });
                }
            });
        }
    }
}

impl<L: MergeableLearner + Clone + Send> OnlineLearner for ShardedLearner<L> {
    /// The root's margin, as of the last sync.
    fn margin(&self, x: &SparseVector) -> f64 {
        self.root.margin(x)
    }

    fn update(&mut self, x: &SparseVector, y: Label) {
        if self.shards.is_empty() {
            self.root.update(x, y);
            self.routed += 1;
            return;
        }
        let shard = self.route(self.routed);
        self.shards[shard].apply(x, y);
        self.routed += 1;
        self.since_sync += 1;
        self.maybe_auto_sync();
    }

    /// Routes the batch across the worker pool.
    ///
    /// Each example's shard is fixed by its arrival index, every worker
    /// consumes its sub-stream in order on its own scoped thread, and the
    /// result is therefore independent of how the OS schedules the
    /// threads. Batches larger than the remaining auto-merge budget are
    /// processed in sub-batches with a merge between them, so the
    /// documented staleness bound (`sync_every`) holds regardless of
    /// batch size.
    fn update_batch(&mut self, batch: &[(SparseVector, Label)]) {
        if self.shards.is_empty() {
            self.root.update_batch(batch);
            self.routed += batch.len() as u64;
            return;
        }
        let mut rest = batch;
        while !rest.is_empty() {
            let take = if self.cfg.sync_every == 0 {
                rest.len()
            } else {
                // since_sync < sync_every between chunks: maybe_auto_sync
                // resets it whenever the threshold is reached.
                ((self.cfg.sync_every - self.since_sync) as usize).min(rest.len())
            };
            let (chunk, tail) = rest.split_at(take);
            self.run_chunk(chunk);
            self.routed += chunk.len() as u64;
            self.since_sync += chunk.len() as u64;
            self.maybe_auto_sync();
            rest = tail;
        }
    }

    /// Total examples routed (across all shards, merged or not).
    fn examples_seen(&self) -> u64 {
        self.routed
    }
}

impl<L: MergeableLearner + Clone + Send + WeightEstimator> WeightEstimator for ShardedLearner<L> {
    /// The root's estimate, as of the last sync.
    fn estimate(&self, feature: u32) -> f64 {
        self.root.estimate(feature)
    }
}

impl<L: MergeableLearner + Clone + Send + TopKRecovery> TopKRecovery for ShardedLearner<L> {
    /// The root's top-K, as of the last sync.
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        self.root.recover_top_k(k)
    }
}

/// A sharded WM-Sketch with deferred heap maintenance: the root carries
/// the query heap, the workers run heap-free (their per-update median
/// re-estimation deferred to merge time) and track top-K candidates by
/// accumulated ℓ1 touch mass. With `cfg.shards == 1` this is exactly the
/// sequential fused pipeline.
///
/// `cfg.candidates_per_shard` is honored verbatim (0 disables tracking
/// and leaves the root's heap empty); for full top-K recovery keep it at
/// least `wm.heap_capacity` — the [`ShardedLearnerConfig::new`] default
/// of 128 matches the WM-Sketch's default heap.
#[must_use]
pub fn sharded_wm(wm: WmSketchConfig, cfg: ShardedLearnerConfig) -> ShardedLearner<WmSketch> {
    let mut worker_cfg = wm;
    worker_cfg.heap_capacity = 0;
    ShardedLearner::new(cfg, WmSketch::new(wm), WmSketch::new(worker_cfg))
}

/// A sharded AWM-Sketch. The active set is integral to the model (exact
/// weights, not a passive index), so workers run the full configuration
/// and the merge itself rebuilds the root's active set; no candidate
/// tracking is needed.
#[must_use]
pub fn sharded_awm(awm: AwmSketchConfig, cfg: ShardedLearnerConfig) -> ShardedLearner<AwmSketch> {
    let cfg = cfg.candidates_per_shard(0);
    ShardedLearner::new(cfg, AwmSketch::new(awm), AwmSketch::new(awm))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_stream(n: usize) -> Vec<(SparseVector, Label)> {
        (0..n)
            .map(|t| {
                let noise = 100 + (t * 17 % 400) as u32;
                if t % 2 == 0 {
                    (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
                } else {
                    (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
                }
            })
            .collect()
    }

    #[test]
    fn four_shard_wm_recovers_planted_features() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(256, 4).lambda(1e-5).seed(3),
            ShardedLearnerConfig::new(4),
        );
        sharded.update_batch(&planted_stream(4000));
        sharded.sync();
        assert_eq!(sharded.examples_seen(), 4000);
        assert!(sharded.estimate(3) > 0.2, "w(3) = {}", sharded.estimate(3));
        assert!(sharded.estimate(9) < -0.2, "w(9) = {}", sharded.estimate(9));
        let top: Vec<u32> = sharded.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn four_shard_awm_recovers_planted_features() {
        let mut sharded = sharded_awm(
            AwmSketchConfig::new(16, 256).lambda(1e-5).seed(1),
            ShardedLearnerConfig::new(4),
        );
        sharded.update_batch(&planted_stream(4000));
        sharded.sync();
        assert!(sharded.estimate(3) > 0.2);
        assert!(sharded.estimate(9) < -0.2);
        assert!(sharded.root().in_active_set(3));
        assert!(sharded.root().in_active_set(9));
    }

    #[test]
    fn single_example_updates_match_batched_routing() {
        // The arrival-index router must assign identically whether
        // examples arrive one at a time or in slices.
        let data = planted_stream(1000);
        let cfg = WmSketchConfig::new(128, 4).seed(7);
        let scfg = ShardedLearnerConfig::new(3).sync_every(0);
        let mut one = sharded_wm(cfg, scfg);
        let mut many = sharded_wm(cfg, scfg);
        for (x, y) in &data {
            one.update(x, *y);
        }
        for chunk in data.chunks(61) {
            many.update_batch(chunk);
        }
        one.sync();
        many.sync();
        for f in 0..600u32 {
            assert!(
                one.estimate(f).to_bits() == many.estimate(f).to_bits(),
                "feature {f}"
            );
        }
    }

    #[test]
    fn auto_sync_keeps_root_fresh() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 2).seed(1),
            ShardedLearnerConfig::new(2).sync_every(256),
        );
        let data = planted_stream(1024);
        for (x, y) in &data {
            sharded.update(x, *y);
        }
        // 1024 = 4 × 256: the threshold fired on the last example.
        assert!(sharded.is_synced());
        assert!(sharded.estimate(3) != 0.0);
    }

    #[test]
    fn large_batches_merge_at_the_sync_cadence() {
        // One oversized batch must not defer merging to its end: the
        // documented bound says the root lags by at most sync_every
        // examples, so mid-batch merges fire at the cadence boundaries.
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 2).seed(6),
            ShardedLearnerConfig::new(2).sync_every(256),
        );
        sharded.update_batch(&planted_stream(1000));
        // 1000 = 3 x 256 + 232: three mid-batch merges happened and only
        // the 232-example tail is unmerged.
        assert!(!sharded.is_synced());
        assert_eq!(sharded.root().examples_seen(), 768);
        assert!(sharded.estimate(3) != 0.0);
    }

    #[test]
    fn unsynced_root_is_stale_until_sync() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 2).seed(1),
            ShardedLearnerConfig::new(2).sync_every(0),
        );
        sharded.update_batch(&planted_stream(500));
        assert!(!sharded.is_synced());
        assert_eq!(sharded.estimate(3), 0.0);
        sharded.sync();
        assert!(sharded.is_synced());
        assert!(sharded.estimate(3) != 0.0);
    }

    #[test]
    fn one_shard_bypass_has_no_workers_and_is_always_synced() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 2).seed(4),
            ShardedLearnerConfig::new(1),
        );
        sharded.update_batch(&planted_stream(300));
        assert_eq!(sharded.shard_learners().count(), 0);
        assert!(sharded.is_synced());
        assert_eq!(sharded.root().examples_seen(), 300);
    }

    #[test]
    fn repeated_syncs_do_not_double_count() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 4).seed(2),
            ShardedLearnerConfig::new(2).sync_every(0),
        );
        sharded.update_batch(&planted_stream(800));
        sharded.sync();
        let first: Vec<f64> = (0..50u32).map(|f| sharded.estimate(f)).collect();
        sharded.sync();
        sharded.sync();
        let third: Vec<f64> = (0..50u32).map(|f| sharded.estimate(f)).collect();
        assert_eq!(first, third);
    }

    #[test]
    fn late_arriving_heavy_feature_enters_top_k() {
        // Regression: with a keep-the-top-K candidate tracker, a rejected
        // offer restarted a feature's mass from zero, so a feature that
        // turned heavy *after* the trackers saturated could never become a
        // candidate and the root's top-K missed the heaviest weight
        // forever. Space-Saving admission inherits the minimum counter, so
        // the late feature must surface.
        let mut sharded = sharded_wm(
            WmSketchConfig::new(512, 2).lambda(0.0).seed(5),
            ShardedLearnerConfig::new(2)
                .candidates_per_shard(16)
                .sync_every(0),
        );
        // Saturate both shards' trackers with 16 moderate features.
        let mut batch = Vec::new();
        for round in 0..40 {
            for f in 20..36u32 {
                batch.push((
                    SparseVector::one_hot(f, 2.0),
                    if (f + round) % 2 == 0 { 1 } else { -1 },
                ));
            }
        }
        // Then feature 7 arrives and dominates the rest of the stream.
        for t in 0..2000 {
            batch.push((
                SparseVector::one_hot(7, 1.0),
                if t % 4 == 0 { -1 } else { 1 },
            ));
        }
        sharded.update_batch(&batch);
        sharded.sync();
        let top: Vec<u32> = sharded.recover_top_k(4).iter().map(|e| e.feature).collect();
        assert!(
            top.contains(&7),
            "late heavy feature starved out of top-K: {top:?} (w7 = {})",
            sharded.estimate(7)
        );
    }

    #[test]
    fn touch_mass_tracker_compacts_and_inherits_floor() {
        let mut t = TouchMassTracker::with_high_water(4, 1024);
        // Overflow the high-water mark with distinct light features plus
        // four heavies.
        for f in 0..1025u32 {
            t.record(f, if f < 4 { 100.0 } else { 1.0 });
        }
        assert!(t.mass.len() <= 1024 / 2 + 1, "map len {}", t.mass.len());
        // Compaction dropped mass-1 features: the floor inherits it.
        assert!(t.floor >= 1.0, "floor {}", t.floor);
        // A brand-new feature enters at the floor, not zero...
        t.record(2000, 1.0);
        assert!(t.mass[&2000] >= 2.0);
        // ...and the heavies survived compaction and lead the candidates.
        let mut top = t.candidates();
        top.sort_unstable();
        assert_eq!(&top, &[0, 1, 2, 3]);
    }

    #[test]
    fn candidates_per_shard_zero_disables_tracking() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(128, 2).seed(3),
            ShardedLearnerConfig::new(2)
                .candidates_per_shard(0)
                .sync_every(0),
        );
        sharded.update_batch(&planted_stream(400));
        sharded.sync();
        // No candidates → the root heap stays empty, but estimates work.
        assert!(sharded.recover_top_k(8).is_empty());
        assert!(sharded.estimate(3) != 0.0);
    }

    #[test]
    fn routing_balances_shards_roughly() {
        let sharded = sharded_wm(
            WmSketchConfig::new(64, 2),
            ShardedLearnerConfig::new(4).sync_every(0),
        );
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[sharded.route(i)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn absorb_survives_later_syncs() {
        // A peer model absorbed between syncs must not be washed away by
        // the next template-clone-and-merge rebuild.
        let cfg = WmSketchConfig::new(128, 4).lambda(1e-5).seed(3);
        let mut peer = WmSketch::new(cfg);
        for (x, y) in planted_stream(2000) {
            peer.update(&x, y);
        }
        let mut sharded = sharded_wm(cfg, ShardedLearnerConfig::new(2).sync_every(0));
        sharded.absorb(&peer);
        assert!(sharded.estimate(3).to_bits() == peer.estimate(3).to_bits());
        sharded.update_batch(&planted_stream(500));
        sharded.sync();
        // Root = peer + both workers; the peer's signal is still there.
        assert!(sharded.estimate(3) > peer.estimate(3) * 0.9);
        assert_eq!(sharded.root().examples_seen(), 2500);
        let top: Vec<u32> = sharded.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn absorb_advances_merged_clock_not_examples_seen() {
        // Regression for the replication clock: absorbing a peer advances
        // the root's learning-rate clock, but `examples_seen` (locally
        // routed examples) must not move, and `merged_clock` must report
        // routed + absorbed *without* waiting for the next sync.
        let cfg = WmSketchConfig::new(128, 2).lambda(1e-5).seed(3);
        let mut peer = WmSketch::new(cfg);
        for (x, y) in planted_stream(700) {
            peer.update(&x, y);
        }
        let mut sharded = sharded_wm(cfg, ShardedLearnerConfig::new(2).sync_every(0));
        sharded.update_batch(&planted_stream(300));
        sharded.absorb(&peer);
        assert_eq!(sharded.examples_seen(), 300);
        assert_eq!(sharded.merged_clock(), 1000);
        // Stale root: peer merged in, local examples not yet synced.
        assert_eq!(sharded.root().examples_seen(), 700);
        sharded.sync();
        // Synced root clock agrees with the replication clock.
        assert_eq!(sharded.root().examples_seen(), 1000);
        assert_eq!(sharded.merged_clock(), 1000);
        assert_eq!(sharded.examples_seen(), 300);
    }

    #[test]
    fn absorb_in_bypass_mode_merges_into_live_root() {
        // λ = 0 keeps the scale at 1, so merging into the empty root is
        // exact cell addition and the bit-equality below is well-defined.
        let cfg = WmSketchConfig::new(128, 2).lambda(0.0).seed(7);
        let mut peer = WmSketch::new(cfg);
        for (x, y) in planted_stream(600) {
            peer.update(&x, y);
        }
        let mut sharded = sharded_wm(cfg, ShardedLearnerConfig::new(1));
        sharded.absorb(&peer);
        assert!(sharded.estimate(3).to_bits() == peer.estimate(3).to_bits());
        assert!(sharded.is_synced());
    }

    #[test]
    fn shard_of_matches_internal_routing() {
        let sharded = sharded_wm(
            WmSketchConfig::new(64, 2),
            ShardedLearnerConfig::new(4).sync_every(0),
        );
        for i in 0..5000u64 {
            assert_eq!(sharded.shard_of(i), sharded.route(i));
        }
    }

    #[test]
    #[should_panic(expected = "merge-incompatible")]
    fn absorb_rejects_incompatible_peer() {
        let mut sharded = sharded_wm(
            WmSketchConfig::new(64, 2).seed(1),
            ShardedLearnerConfig::new(2),
        );
        let peer = WmSketch::new(WmSketchConfig::new(64, 2).seed(9));
        sharded.absorb(&peer);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_shards_rejected() {
        let _ = ShardedLearnerConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "merge-compatible")]
    fn incompatible_templates_rejected() {
        let root = WmSketch::new(WmSketchConfig::new(64, 2).seed(1));
        let worker = WmSketch::new(WmSketchConfig::new(64, 2).seed(2));
        let _ = ShardedLearner::new(ShardedLearnerConfig::new(2), root, worker);
    }
}
