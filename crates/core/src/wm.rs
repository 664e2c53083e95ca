//! The Weight-Median Sketch — Algorithm 1 of the paper.
//!
//! A Count-Sketch-shaped array `z ∈ R^{s × k/s}` holds a compressed linear
//! classifier. Each update performs online gradient descent *in sketch
//! space* on the compressed objective
//! `L̂_t(z) = ℓ(y_t·zᵀRx_t) + (λ/2)‖z‖₂²`, where `R = A/√s` is the scaled
//! Count-Sketch projection:
//!
//! ```text
//! τ ← zᵀRx                     (prediction)
//! z ← (1 − λη_t)·z − η_t·y·ℓ'(yτ)·Rx
//! ```
//!
//! Queries recover individual weights by Count-Sketch estimation on `√s·z`:
//! `ŵ_i = median_j(√s·σ_j(i)·z[j, h_j(i)])`. Theorem 1/2 guarantee
//! `|ŵ_i − w*_i| ≤ ε‖w*‖₁` for `k = Õ(ε⁻⁴)`, `s = Õ(ε⁻²)`.
//!
//! The `(1 − λη_t)` decay uses the global-scale trick (§5.1), so an update
//! costs `O(s·nnz(x))` rather than `O(k)`. A passive top-K heap tracks the
//! heaviest estimated weights for `O(1)`-time retrieval, as in the
//! reference implementation.
//!
//! Heap upkeep re-estimates every touched feature and offers it to the
//! heap. The fused [`OnlineLearner::update`] looks each feature up in the
//! heap once ([`wmsketch_hh::TopKWeights::find`]): a tracked feature's
//! new estimate is written through its slot, and an untracked one is
//! offered with [`wmsketch_hh::TopKWeights::offer_untracked`], which needs
//! no second lookup. Once the heap is full, most of those offers are
//! rejected, so for depth > 1 the update first asks whether the offer can
//! succeed at all: an untracked feature enters a full heap only if its
//! `|ŵ|` exceeds the heap's minimum `|w|`, and
//! [`median_abs_exceeds`] answers that by counting row values against
//! `±floor` — no median selection. The median is selected (and offered)
//! only when the feature is tracked, the heap has room, or the feature
//! will evict. See `update` for why this is exact.

use crate::delta::DirtyCells;
use wmsketch_hashing::codec::{self, CodecError, Reader, SnapshotCodec, Writer, KIND_WM};
use wmsketch_hashing::{CoordPlan, HashFamilyKind, RowHashers};
use wmsketch_learn::{
    debug_check_label, Label, LearningRate, Loss, LossKind, MergeableLearner, OnlineLearner,
    ScaleState, SparseVector, TopKRecovery, WeightEntry, WeightEstimator,
};
use wmsketch_sketch::{median_abs_exceeds, median_inplace, signed_median_estimate};

/// Section tag: learner configuration (shape, hyperparameters, hashing).
pub(crate) const SECTION_CONFIG: u8 = 0x01;
/// Section tag: row-major `f64` sketch cells.
pub(crate) const SECTION_CELLS: u8 = 0x02;
/// Section tag: mutable training state (update clock, scale).
pub(crate) const SECTION_STATE: u8 = 0x03;
/// Section tag: top-K heap / active-set contents.
pub(crate) const SECTION_TOPK: u8 = 0x04;

/// Configuration for [`WmSketch`].
#[derive(Debug, Clone, Copy)]
pub struct WmSketchConfig {
    /// Buckets per row (`k/s` in the paper). The total sketch size is
    /// `width × depth`.
    pub width: u32,
    /// Number of rows `s`.
    pub depth: u32,
    /// Capacity of the passive top-K heap (`|S|`); 0 disables the heap
    /// (recovery then requires scanning a candidate domain).
    pub heap_capacity: usize,
    /// `ℓ2` regularization strength λ.
    pub lambda: f64,
    /// Learning-rate schedule (paper default `0.1/√t`).
    pub learning_rate: LearningRate,
    /// Loss function (paper default logistic).
    pub loss: LossKind,
    /// Hash family for the projection (paper default: tabulation).
    pub hash_family: HashFamilyKind,
    /// Seed for all hash functions.
    pub seed: u64,
}

impl WmSketchConfig {
    /// A `width × depth` sketch with a 128-entry heap and paper-default
    /// hyperparameters.
    #[must_use]
    pub fn new(width: u32, depth: u32) -> Self {
        Self {
            width,
            depth,
            heap_capacity: 128,
            lambda: 1e-6,
            learning_rate: LearningRate::default(),
            loss: LossKind::Logistic,
            hash_family: HashFamilyKind::Tabulation,
            seed: 0,
        }
    }

    /// The best-performing shape for a byte budget per the paper's Table 2
    /// sweeps for the *basic* WM-Sketch: a 128-entry heap, width 128, and
    /// all remaining budget spent on depth.
    #[must_use]
    pub fn with_budget_bytes(budget: usize) -> Self {
        let heap = 128usize;
        let heap_bytes = heap * 2 * crate::budget::BYTES_PER_UNIT;
        let cells = budget.saturating_sub(heap_bytes) / crate::budget::BYTES_PER_UNIT;
        let width = 128u32;
        let depth = (cells as u32 / width).max(1);
        let mut cfg = Self::new(width, depth);
        cfg.heap_capacity = heap;
        cfg
    }

    /// Sets the heap capacity.
    #[must_use]
    pub fn heap_capacity(mut self, cap: usize) -> Self {
        self.heap_capacity = cap;
        self
    }

    /// Sets λ.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the learning-rate schedule.
    #[must_use]
    pub fn learning_rate(mut self, lr: LearningRate) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the loss.
    #[must_use]
    pub fn loss(mut self, loss: LossKind) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the hash family.
    #[must_use]
    pub fn hash_family(mut self, kind: HashFamilyKind) -> Self {
        self.hash_family = kind;
        self
    }

    /// Sets the hash seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Memory cost in bytes under the paper's §7.1 model.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        crate::budget::wm_bytes(
            self.heap_capacity,
            self.width as usize * self.depth as usize,
        )
    }
}

/// The Weight-Median Sketch (see module docs).
///
/// Cloning copies the full model (hash functions included), so a clone is
/// merge-compatible with its source.
#[derive(Clone)]
pub struct WmSketch {
    cfg: WmSketchConfig,
    hashers: RowHashers,
    /// Row-major `depth × width` pre-scale sketch cells; logical `z = α·z_v`.
    z: Vec<f64>,
    scale: ScaleState,
    /// `1/√s`, the projection scaling of `R = A/√s`.
    inv_sqrt_s: f64,
    /// `√s`, the query-side rescaling.
    sqrt_s: f64,
    heap: Option<wmsketch_hh::TopKWeights>,
    /// Cached per-example coordinates for the single-hash update pipeline;
    /// buffers are reused across updates.
    plan: CoordPlan,
    t: u64,
    /// Per-cell last-touched stamps for delta snapshots; off (empty) until
    /// the first [`WmSketch::encode_delta_since`] call.
    dirty: DirtyCells,
}

impl std::fmt::Debug for WmSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WmSketch")
            .field("width", &self.cfg.width)
            .field("depth", &self.cfg.depth)
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

impl WmSketch {
    /// Creates a zero-initialized WM-Sketch.
    ///
    /// # Panics
    /// Panics if `width == 0` or `depth == 0`.
    #[must_use]
    pub fn new(cfg: WmSketchConfig) -> Self {
        let z = vec![0.0; cfg.depth as usize * cfg.width as usize];
        let heap =
            (cfg.heap_capacity > 0).then(|| wmsketch_hh::TopKWeights::new(cfg.heap_capacity));
        Self::from_parts(cfg, z, ScaleState::new(), 0, heap)
    }

    /// Assembles a sketch from already-built state — the single
    /// construction site shared by [`WmSketch::new`] and the snapshot
    /// decoder (which would otherwise allocate a zeroed cell vector and a
    /// heap only to overwrite both).
    fn from_parts(
        cfg: WmSketchConfig,
        z: Vec<f64>,
        scale: ScaleState,
        t: u64,
        heap: Option<wmsketch_hh::TopKWeights>,
    ) -> Self {
        let hashers = RowHashers::new(cfg.hash_family, cfg.depth, cfg.width, cfg.seed);
        let s = f64::from(cfg.depth);
        Self {
            cfg,
            hashers,
            z,
            scale,
            inv_sqrt_s: 1.0 / s.sqrt(),
            sqrt_s: s.sqrt(),
            heap,
            plan: CoordPlan::new(),
            t,
            dirty: DirtyCells::off(),
        }
    }

    /// The configuration this sketch was built with.
    #[must_use]
    pub fn config(&self) -> &WmSketchConfig {
        &self.cfg
    }

    /// Memory cost in bytes under the paper's §7.1 model.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cfg.memory_bytes()
    }

    /// Estimated bytes this instance actually holds resident: the cell
    /// array, the heap at its allocated capacity, the row-hash tables
    /// (16 KiB per row under tabulation), and the retained
    /// coordinate-plan scratch — the figure a memory governor should
    /// charge. The tables are counted in full although every live model
    /// with the same seed and depth shares one copy, so the figure is an
    /// upper bound; spilling reclaims everything else, and the tables
    /// only when no other model holds them (hashers and scratch rebuild
    /// deterministically on revival).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.z.capacity() * std::mem::size_of::<f64>()
            + self
                .heap
                .as_ref()
                .map_or(0, wmsketch_hh::TopKWeights::resident_bytes)
            + self.hashers.resident_bytes()
            + self.plan.resident_bytes()
            + self.dirty.resident_bytes()
    }

    /// The estimated weight of `feature` via Count-Sketch median recovery
    /// (pre-scale; multiply by α for the logical value).
    fn query_stored(&self, feature: u32) -> f64 {
        signed_median_estimate(&self.hashers, &self.z, u64::from(feature), self.sqrt_s)
    }

    fn fold_scale(&mut self) {
        let a = self.scale.fold();
        for v in &mut self.z {
            *v *= a;
        }
        // A fold rewrites every stored cell, so everything is dirty at the
        // current epoch (the logical weights are unchanged, but deltas ship
        // stored bits).
        self.dirty.touch_all();
    }

    /// Pre-scale margin contribution `z_vᵀRx`.
    fn raw_margin(&self, x: &SparseVector) -> f64 {
        let mut acc = 0.0;
        for (i, xi) in x.iter() {
            let mut proj = 0.0;
            self.hashers
                .for_each_coord(u64::from(i), |offset, sign| proj += sign * self.z[offset]);
            acc += xi * proj;
        }
        acc * self.inv_sqrt_s
    }

    /// The seed implementation's three-pass update, retained as the
    /// reference path: it hashes every active feature once in the margin,
    /// again in the gradient scatter, and a third time per feature for
    /// passive heap maintenance, which offers every touched feature's
    /// median with no admission gate. [`WmSketch::update`] is the fused
    /// single-hash pipeline; golden tests assert the two produce
    /// bit-identical sketches, and the `update_throughput` benchmark
    /// measures the speedup.
    pub fn update_naive(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        self.dirty.set_epoch(self.t);
        let eta = self.cfg.learning_rate.at(self.t);
        let tau = self.scale.load(self.raw_margin(x));
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g != 0.0 {
            let width = self.cfg.width as usize;
            for (i, xi) in x.iter() {
                let delta = self.scale.store(-eta * g * xi * self.inv_sqrt_s);
                for (j, bs) in self.hashers.bucket_signs(u64::from(i)) {
                    let cell = j * width + bs.bucket as usize;
                    self.z[cell] += bs.sign * delta;
                    self.dirty.touch(cell);
                }
                if self.heap.is_some() {
                    // Passive heap maintenance: re-estimate the feature
                    // just touched and offer it (borrow split: estimate
                    // first, then mutate the heap).
                    let est = self.query_stored(i);
                    if let Some(heap) = &mut self.heap {
                        heap.offer(i, est);
                    }
                }
            }
            if self.heap.is_some() {
                self.dirty.touch_heap();
            }
        }
    }

    /// (Re)starts dirty-cell tracking with everything considered dirty at
    /// the current clock — the state right after shipping a full snapshot.
    pub(crate) fn begin_tracking(&mut self) {
        let cells = self.z.len();
        self.dirty.enable(cells, self.t);
    }

    /// Whether a sparse delta since `since` can be encoded (tracking on,
    /// no clock-less mutation since, watermark not in the future).
    pub(crate) fn can_delta(&self, since: u64) -> bool {
        self.dirty.can_delta(since, self.t)
    }

    /// Encodes the delta body sections (everything after the HEAD):
    /// sparse dirty cells, the full scalar state, and the top-K heap when
    /// it moved since `since`.
    pub(crate) fn encode_delta_body(&self, since: u64, w: &mut Writer) {
        codec::put_delta_cells(w, &self.dirty.changed(&self.z, since));
        let mark = w.begin_section(codec::DELTA_SECTION_STATE);
        w.put_u64(self.t);
        self.scale.encode_into(w);
        w.end_section(mark);
        let mark = w.begin_section(codec::DELTA_SECTION_TOPK);
        if self.dirty.heap_dirty(since) {
            w.put_u8(1);
            match &self.heap {
                Some(heap) => {
                    w.put_u8(1);
                    heap.encode_into(w);
                }
                None => w.put_u8(0),
            }
        } else {
            w.put_u8(0);
        }
        w.end_section(mark);
    }

    /// Decodes and applies the delta body sections written by
    /// [`WmSketch::encode_delta_body`]. On error the sketch is unchanged.
    pub(crate) fn apply_delta_body(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let cells = codec::take_delta_cells(r, self.z.len())?;
        let mut s = r.expect_section(codec::DELTA_SECTION_STATE)?;
        let t = s.take_u64()?;
        let scale = ScaleState::decode_from(&mut s)?;
        s.finish()?;
        let mut h = r.expect_section(codec::DELTA_SECTION_TOPK)?;
        let heap = match h.take_u8()? {
            // 0: the heap did not move since the watermark; keep ours.
            0 => None,
            1 => Some(match h.take_u8()? {
                0 if self.cfg.heap_capacity == 0 => None,
                0 => return Err(CodecError::Invalid("missing heap for heap_capacity > 0")),
                1 => Some(wmsketch_hh::TopKWeights::decode_from(
                    &mut h,
                    self.cfg.heap_capacity,
                )?),
                _ => return Err(CodecError::Invalid("bad top-K presence flag")),
            }),
            _ => return Err(CodecError::Invalid("bad delta top-K change flag")),
        };
        h.finish()?;
        // Everything validated; commit.
        for (idx, bits) in cells {
            self.z[idx as usize] = f64::from_bits(bits);
        }
        self.t = t;
        self.scale = scale;
        if let Some(heap) = heap {
            self.heap = heap;
        }
        // Applied state does not correspond to locally-tracked history any
        // more; restart tracking conservatively (everything dirty now).
        if self.dirty.enabled() {
            self.begin_tracking();
        }
        Ok(())
    }

    /// Encodes a **delta record**: the state changed since clock `since`,
    /// as shipped to a replica whose copy of this model is exactly the
    /// state at `since`. Applying it with [`WmSketch::apply_delta`] makes
    /// the replica bit-identical to this sketch — `base + delta` re-encodes
    /// byte-for-byte equal to [`SnapshotCodec::to_snapshot_bytes`].
    ///
    /// Layout (after the `WMS1` envelope with [`codec::FLAG_DELTA`]):
    ///
    /// ```text
    /// section 0x20 HEAD:  from_clock (u64) | to_clock (u64)
    /// section 0x21 CELLS: count (u64) | count × (index u32, f64 bits u64)
    /// section 0x22 STATE: t (u64) | alpha (f64) | fold threshold (f64)
    /// section 0x23 TOPK:  changed (u8) | [present (u8) | [heap]]
    /// ```
    ///
    /// Deltas *overwrite* raw cell bit patterns rather than adding values:
    /// sketch updates are state-dependent (the margin feeds the gradient),
    /// so only overwrites preserve bit-identity.
    ///
    /// Falls back to a **full snapshot** (and switches dirty-cell tracking
    /// on) when a sparse delta since `since` cannot be produced: on the
    /// first call, after decoding, when `since` is in the future, or after
    /// a clock-less mutation (merging a zero-clock peer). Callers
    /// distinguish the two record shapes with [`codec::is_delta_record`].
    #[must_use]
    pub fn encode_delta_since(&mut self, since: u64) -> Vec<u8> {
        if !self.can_delta(since) {
            self.begin_tracking();
            return self.to_snapshot_bytes();
        }
        let mut w = Writer::new();
        w.put_delta_envelope(KIND_WM);
        let mark = w.begin_section(codec::DELTA_SECTION_HEAD);
        w.put_u64(since);
        w.put_u64(self.t);
        w.end_section(mark);
        self.encode_delta_body(since, &mut w);
        let mut bytes = w.into_bytes();
        codec::seal_record(&mut bytes);
        bytes
    }

    /// Applies a delta record produced by [`WmSketch::encode_delta_since`]
    /// and returns the new clock. The record's `from_clock` must equal this
    /// sketch's clock exactly; a mismatch is [`CodecError::DeltaGap`] and
    /// leaves the sketch unchanged (re-pull from the origin with the right
    /// watermark). On any other decode error mid-apply the state is
    /// unspecified and must be discarded.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<u64, CodecError> {
        let bytes = codec::verify_integrity(bytes)?;
        let mut r = Reader::new(bytes);
        r.expect_delta_envelope(KIND_WM)?;
        let mut head = r.expect_section(codec::DELTA_SECTION_HEAD)?;
        let from = head.take_u64()?;
        let to = head.take_u64()?;
        head.finish()?;
        if to < from {
            return Err(CodecError::Invalid("delta interval is reversed"));
        }
        if from != self.t {
            return Err(CodecError::DeltaGap {
                expected: self.t,
                got: from,
            });
        }
        self.apply_delta_body(&mut r)?;
        r.finish()?;
        if self.t != to {
            return Err(CodecError::Invalid(
                "delta state clock disagrees with its interval",
            ));
        }
        Ok(self.t)
    }

    /// Rebuilds the passive heap with the heaviest of `candidates` *and*
    /// the features currently tracked — the heap is passive (stale
    /// estimates, no exact state), so the union is re-estimated from the
    /// current cells and only the ranking survives. Keeping the current
    /// features in the candidate pool means a rebuild can only improve
    /// the heap. A no-op when the heap is disabled. Candidate order does
    /// not matter: entries are ranked by `(|estimate| desc, feature asc)`
    /// before insertion, so the result is deterministic.
    fn rebuild_top_k(&mut self, candidates: &[u32]) {
        if self.heap.is_none() {
            return;
        }
        let mut union: Vec<u32> = self
            .heap
            .iter()
            .flat_map(wmsketch_hh::TopKWeights::iter)
            .map(|e| e.feature)
            .collect();
        union.extend_from_slice(candidates);
        union.sort_unstable();
        union.dedup();
        let ranked: Vec<WeightEntry> = union
            .iter()
            .map(|&f| WeightEntry {
                feature: f,
                weight: signed_median_estimate(&self.hashers, &self.z, u64::from(f), self.sqrt_s),
            })
            .collect();
        let heap = self.heap.as_mut().expect("checked above");
        *heap = wmsketch_hh::TopKWeights::from_heaviest(heap.capacity(), ranked);
        self.dirty.touch_heap();
    }
}

impl MergeableLearner for WmSketch {
    /// Merge compatibility requires the same sketch shape, hash family,
    /// and seed (so both models live in the same projected space). Heap
    /// capacity and hyperparameters may differ — e.g. a model with a
    /// query heap absorbing a heap-free peer.
    fn merge_compatible(&self, other: &Self) -> bool {
        self.cfg.width == other.cfg.width
            && self.cfg.depth == other.cfg.depth
            && self.cfg.hash_family == other.cfg.hash_family
            && self.cfg.seed == other.cfg.seed
    }

    /// Adds `other`'s model into `self` by Count-Sketch linearity.
    ///
    /// Both learners store pre-scale cells `z_v` with logical cells
    /// `z = α·z_v`; the merge folds `self`'s scale and adds `other`'s
    /// *logical* cells, so the merged sketch is exactly the sketch of the
    /// two concatenated (post-decay) gradient streams. The passive top-K
    /// heap is then rebuilt from the union of both heaps' features,
    /// re-estimated against the merged cells — stale per-model estimates
    /// are never merged directly.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "merging incompatible WM-Sketches ({}x{} seed {} vs {}x{} seed {})",
            self.cfg.width,
            self.cfg.depth,
            self.cfg.seed,
            other.cfg.width,
            other.cfg.depth,
            other.cfg.seed
        );
        // Stamp the whole merge at the post-merge clock; a zero-clock peer
        // would change bits without advancing the clock, which no sparse
        // delta watermark can express.
        self.dirty.set_epoch(self.t + other.t);
        if other.t == 0 {
            self.dirty.require_full();
        }
        self.fold_scale();
        for (cell, &o) in self.z.iter_mut().zip(&other.z) {
            *cell += other.scale.load(o);
        }
        self.dirty.touch_all();
        self.t += other.t;
        if self.heap.is_some() {
            // rebuild_top_k unions with self's current heap features, so
            // only other's need passing explicitly.
            let feats: Vec<u32> = other
                .heap
                .iter()
                .flat_map(wmsketch_hh::TopKWeights::iter)
                .map(|e| e.feature)
                .collect();
            self.rebuild_top_k(&feats);
        }
    }
}

/// Largest heap capacity a snapshot may declare. Constructing a sketch
/// from a decoded config allocates `O(heap_capacity)` heap/index slots up
/// front (before any per-entry validation runs), so an unbounded decoded
/// capacity would let a crafted snapshot — reachable remotely via the
/// serve crate's MERGE and RESTORE ops — demand an absurd reservation or
/// abort on capacity overflow. Real configurations use a few hundred to a
/// few thousand slots (the paper's Table 2 tops out at 2048).
pub const MAX_HEAP_CAPACITY: usize = 1 << 20;

/// Encodes a [`WmSketchConfig`] into the shared CONFIG section layout:
/// `width (u32) | depth (u32) | heap_capacity (u64) | lambda (f64)
/// | learning_rate | loss | hash_family | seed (u64)`.
pub(crate) fn put_wm_config(w: &mut Writer, cfg: &WmSketchConfig) {
    let mark = w.begin_section(SECTION_CONFIG);
    w.put_u32(cfg.width);
    w.put_u32(cfg.depth);
    w.put_u64(cfg.heap_capacity as u64);
    w.put_f64(cfg.lambda);
    cfg.learning_rate.encode_into(w);
    cfg.loss.encode_into(w);
    codec::put_hash_family(w, cfg.hash_family);
    w.put_u64(cfg.seed);
    w.end_section(mark);
}

/// Decodes a CONFIG section written by [`put_wm_config`], validating the
/// shape invariants the constructors would otherwise panic on.
pub(crate) fn take_wm_config(r: &mut Reader<'_>) -> Result<WmSketchConfig, CodecError> {
    let mut s = r.expect_section(SECTION_CONFIG)?;
    let width = s.take_u32()?;
    let depth = s.take_u32()?;
    let heap_capacity = usize::try_from(s.take_u64()?)
        .map_err(|_| CodecError::Invalid("heap capacity overflows usize"))?;
    let lambda = s.take_f64()?;
    let learning_rate = LearningRate::decode_from(&mut s)?;
    let loss = LossKind::decode_from(&mut s)?;
    let hash_family = codec::take_hash_family(&mut s)?;
    let seed = s.take_u64()?;
    s.finish()?;
    if width == 0 || depth == 0 {
        return Err(CodecError::Invalid("sketch width/depth must be nonzero"));
    }
    if heap_capacity > MAX_HEAP_CAPACITY {
        return Err(CodecError::Invalid("heap capacity is implausibly large"));
    }
    if !lambda.is_finite() {
        return Err(CodecError::Invalid("lambda must be finite"));
    }
    Ok(WmSketchConfig {
        width,
        depth,
        heap_capacity,
        lambda,
        learning_rate,
        loss,
        hash_family,
        seed,
    })
}

/// Snapshot layout (after the `WMS1` envelope, kind
/// [`KIND_WM`]):
///
/// ```text
/// section 0x01 CONFIG: width (u32) | depth (u32) | heap_capacity (u64)
///                    | lambda (f64) | learning_rate | loss
///                    | hash_family | seed (u64)
/// section 0x02 CELLS:  count (u64) | count × f64 pre-scale cells z_v
/// section 0x03 STATE:  t (u64) | alpha (f64) | fold threshold (f64)
/// section 0x04 TOPK:   present (u8) | [capacity (u64) | count (u64)
///                    | count × (feature u32, weight f64)]
/// ```
///
/// Everything that determines future behavior is captured — cells, the
/// global scale, the update clock, the heap contents, and the hash-family
/// kind + seed that pin the projection — so a decoded sketch is
/// [`MergeableLearner::merge_compatible`] with its origin and continues
/// training identically.
impl SnapshotCodec for WmSketch {
    const KIND: u8 = KIND_WM;

    fn encode_body(&self, w: &mut Writer) {
        put_wm_config(w, &self.cfg);
        codec::put_f64_section(w, SECTION_CELLS, &self.z);
        let mark = w.begin_section(SECTION_STATE);
        w.put_u64(self.t);
        self.scale.encode_into(w);
        w.end_section(mark);
        let mark = w.begin_section(SECTION_TOPK);
        match &self.heap {
            Some(heap) => {
                w.put_u8(1);
                heap.encode_into(w);
            }
            None => w.put_u8(0),
        }
        w.end_section(mark);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cfg = take_wm_config(r)?;
        let expected = (cfg.depth as usize)
            .checked_mul(cfg.width as usize)
            .ok_or(CodecError::Invalid("depth*width overflows"))?;
        let z = codec::take_f64_section(r, SECTION_CELLS, expected)?;
        let mut s = r.expect_section(SECTION_STATE)?;
        let t = s.take_u64()?;
        let scale = ScaleState::decode_from(&mut s)?;
        s.finish()?;
        let mut h = r.expect_section(SECTION_TOPK)?;
        let heap = match h.take_u8()? {
            0 if cfg.heap_capacity == 0 => None,
            0 => return Err(CodecError::Invalid("missing heap for heap_capacity > 0")),
            1 => Some(wmsketch_hh::TopKWeights::decode_from(
                &mut h,
                cfg.heap_capacity,
            )?),
            _ => return Err(CodecError::Invalid("bad top-K presence flag")),
        };
        h.finish()?;
        Ok(Self::from_parts(cfg, z, scale, t, heap))
    }
}

impl OnlineLearner for WmSketch {
    fn margin(&self, x: &SparseVector) -> f64 {
        self.scale.load(self.raw_margin(x))
    }

    /// The fused single-hash update pipeline.
    ///
    /// Hashes every active feature exactly once per row
    /// ([`RowHashers::fill_plan`]) and replays the cached coordinates for
    /// all three traversals the seed path paid separate hashing for: the
    /// margin dot-product, the gradient scatter, and the post-scatter
    /// median re-estimation feeding the passive top-K heap. Depth-1
    /// sketches take a fast path that skips the median machinery (a 1-row
    /// "median" is the sign-corrected cell). Arithmetic order matches
    /// [`WmSketch::update_naive`] operation for operation, so the
    /// resulting sketch state is bit-identical.
    ///
    /// **Admission gate (depth > 1).** Each feature is looked up in the
    /// heap once ([`wmsketch_hh::TopKWeights::find`]); a tracked feature
    /// always takes its new median through its slot. For an untracked one,
    /// [`wmsketch_hh::TopKWeights::offer_untracked`] rejects the offer
    /// when the heap is full and `|ŵ| ≤ m`, `m` the heap's minimum `|w|`
    /// ([`wmsketch_hh::TopKWeights::floor`]). The estimate is
    /// the lower median `s[k]`, `k = (n − 1)/2`, of the `n` row values,
    /// and for any non-NaN `m`:
    ///
    /// * `s[k] > m` ⇔ `#{v > m} ≥ n − k`
    /// * `s[k] < −m` ⇔ `#{v < −m} ≥ k + 1`
    ///
    /// so about `2n` comparisons ([`median_abs_exceeds`]) tell whether the
    /// offer would be rejected. When it would, the median and the offer
    /// are both skipped: a rejected offer changes nothing, so the heap —
    /// and every snapshot — stays bit-identical to the ungated
    /// [`WmSketch::update_naive`]. Otherwise the median is selected and
    /// offered exactly as before. Cell updates and dirty-cell touches do
    /// not depend on the gate.
    fn update(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        self.dirty.set_epoch(self.t);
        let eta = self.cfg.learning_rate.at(self.t);
        // Single hashing pass over the example.
        self.hashers.fill_plan(&mut self.plan, x.indices());
        // Pass 1 over cached coords: margin.
        let mut acc = 0.0;
        for (slot, xi) in x.values().iter().enumerate() {
            acc += xi * self.plan.slot_projection(slot, &self.z);
        }
        let tau = self.scale.load(acc * self.inv_sqrt_s);
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g != 0.0 {
            let inv_sqrt_s = self.inv_sqrt_s;
            let sqrt_s = self.sqrt_s;
            let scale = self.scale;
            let Self {
                z,
                plan,
                heap,
                dirty,
                ..
            } = self;
            let depth_one = plan.depth() == 1;
            let tracking = dirty.enabled();
            for (slot, (i, xi)) in x.iter().enumerate() {
                let delta = scale.store(-eta * g * xi * inv_sqrt_s);
                if let Some(heap) = heap {
                    // Passes 2+3 fused: gradient scatter and passive heap
                    // maintenance in one walk over the cached cells — the
                    // post-scatter median comes from the values just
                    // written, not a fresh hash-and-recover per feature.
                    if depth_one {
                        // Depth-1 fast path: one cell, no median buffer.
                        // `+ 0.0` canonicalizes -0.0 exactly as
                        // median_inplace would.
                        let (offsets, signs) = plan.coords(slot);
                        let cell = &mut z[offsets[0] as usize];
                        *cell += signs[0] * delta;
                        heap.offer(i, sqrt_s * signs[0] * *cell + 0.0);
                    } else {
                        let values = plan.slot_scatter_and_values(slot, z, delta, sqrt_s);
                        if let Some(tracked) = heap.find(i) {
                            heap.set(tracked, median_inplace(values));
                        } else if heap
                            .floor()
                            .is_none_or(|floor| median_abs_exceeds(values, floor))
                        {
                            // Admission gate: a full heap rejects an
                            // untracked feature whose |estimate| is at most
                            // its floor, so the median is selected only when
                            // the offer can change the heap.
                            heap.offer_untracked(i, median_inplace(values));
                        }
                    }
                } else {
                    plan.slot_scatter(slot, z, delta);
                }
                if tracking {
                    for &o in plan.coords(slot).0 {
                        dirty.touch(o as usize);
                    }
                }
            }
            if heap.is_some() {
                dirty.touch_heap();
            }
        }
    }

    fn examples_seen(&self) -> u64 {
        self.t
    }
}

impl WeightEstimator for WmSketch {
    fn estimate(&self, feature: u32) -> f64 {
        self.scale.load(self.query_stored(feature))
    }
}

impl TopKRecovery for WmSketch {
    /// Top-K from the passive heap, with each weight re-estimated from the
    /// sketch at query time (the heap's stored values can be stale: later
    /// collisions change a feature's median estimate).
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        let Some(heap) = &self.heap else {
            return Vec::new();
        };
        let mut entries: Vec<WeightEntry> = heap
            .iter()
            .map(|e| WeightEntry {
                feature: e.feature,
                weight: self.estimate(e.feature),
            })
            .collect();
        entries.sort_by(|a, b| {
            b.weight
                .abs()
                .partial_cmp(&a.weight.abs())
                .expect("NaN weight")
                .then(a.feature.cmp(&b.feature))
        });
        entries.truncate(k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_stream(n: usize) -> impl Iterator<Item = (SparseVector, Label)> {
        // Features 3 and 9 are discriminative; tail features 100.. are noise.
        (0..n).map(|t| {
            let noise = 100 + (t * 17 % 400) as u32;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
    }

    #[test]
    fn recovers_planted_discriminative_features() {
        let mut wm = WmSketch::new(WmSketchConfig::new(256, 4).lambda(1e-5).seed(3));
        for (x, y) in planted_stream(4000) {
            wm.update(&x, y);
        }
        assert!(wm.estimate(3) > 0.2, "w(3) = {}", wm.estimate(3));
        assert!(wm.estimate(9) < -0.2, "w(9) = {}", wm.estimate(9));
        let top: Vec<u32> = wm.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn classification_works_through_sketch() {
        let mut wm = WmSketch::new(WmSketchConfig::new(128, 2).seed(5));
        for (x, y) in planted_stream(2000) {
            wm.update(&x, y);
        }
        assert_eq!(wm.predict(&SparseVector::one_hot(3, 1.0)), 1);
        assert_eq!(wm.predict(&SparseVector::one_hot(9, 1.0)), -1);
    }

    #[test]
    fn matches_dense_ogd_when_projection_is_lossless() {
        // With width ≫ number of active features and depth 1, collisions are
        // (almost surely) absent and the sketch should track dense OGD
        // exactly: the Count-Sketch projection restricted to the active
        // features is then an isometry (a signed permutation).
        use wmsketch_learn::{LogisticRegression, LogisticRegressionConfig};
        let mut wm = WmSketch::new(WmSketchConfig::new(4096, 1).lambda(1e-4).seed(11));
        let mut lr = LogisticRegression::new(
            LogisticRegressionConfig::new(16)
                .lambda(1e-4)
                .track_top_k(0),
        );
        let stream: Vec<(SparseVector, Label)> = (0..500)
            .map(|t| {
                let f = (t % 8) as u32;
                let y: Label = if f < 4 { 1 } else { -1 };
                (SparseVector::from_pairs(&[(f, 1.0), (8 + f, 0.25)]), y)
            })
            .collect();
        // Verify no collisions among the 16 active features for this seed.
        let hasher = RowHashers::new(HashFamilyKind::Tabulation, 1, 4096, 11);
        let buckets: std::collections::HashSet<u32> = (0..16u64)
            .map(|i| hasher.bucket_sign(0, i).bucket)
            .collect();
        assert_eq!(buckets.len(), 16, "collision in test setup; change seed");
        for (x, y) in &stream {
            wm.update(x, *y);
            lr.update(x, *y);
        }
        for f in 0..16u32 {
            assert!(
                (wm.estimate(f) - lr.weight(f)).abs() < 1e-9,
                "feature {f}: wm {} vs dense {}",
                wm.estimate(f),
                lr.weight(f)
            );
        }
    }

    #[test]
    fn unseen_features_estimate_near_zero_on_empty_sketch() {
        let wm = WmSketch::new(WmSketchConfig::new(64, 3));
        for f in 0..50u32 {
            assert_eq!(wm.estimate(f), 0.0);
        }
    }

    #[test]
    fn heap_disabled_returns_empty_top_k() {
        let mut wm = WmSketch::new(WmSketchConfig::new(64, 2).heap_capacity(0));
        for (x, y) in planted_stream(100) {
            wm.update(&x, y);
        }
        assert!(wm.recover_top_k(5).is_empty());
        // But point estimation still works.
        assert!(wm.estimate(3).abs() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut wm = WmSketch::new(WmSketchConfig::new(128, 2).seed(9));
            for (x, y) in planted_stream(500) {
                wm.update(&x, y);
            }
            (0..20u32).map(|f| wm.estimate(f)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_of_split_stream_recovers_planted_features() {
        // Each half-stream carries the same planted signal; the merged
        // model (the sum of the two) must recover it with correct signs.
        let cfg = WmSketchConfig::new(256, 4).lambda(1e-5).seed(3);
        let mut a = WmSketch::new(cfg);
        let mut b = WmSketch::new(cfg);
        for (i, (x, y)) in planted_stream(4000).enumerate() {
            if i % 2 == 0 {
                a.update(&x, y);
            } else {
                b.update(&x, y);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.examples_seen(), 4000);
        assert!(a.estimate(3) > 0.2, "w(3) = {}", a.estimate(3));
        assert!(a.estimate(9) < -0.2, "w(9) = {}", a.estimate(9));
        let top: Vec<u32> = a.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn depth_one_merge_estimates_are_exactly_additive() {
        // At depth 1 the estimate reads a single cell, so per-feature
        // estimates of the merged sketch equal the sum of the two models'
        // estimates bit for bit (sign ±1 distributes exactly over +).
        let cfg = WmSketchConfig::new(512, 1).lambda(1e-4).seed(7);
        let mut a = WmSketch::new(cfg);
        let mut b = WmSketch::new(cfg);
        for (i, (x, y)) in planted_stream(1500).enumerate() {
            if i < 700 {
                a.update(&x, y);
            } else {
                b.update(&x, y);
            }
        }
        let expected: Vec<f64> = (0..600u32).map(|f| a.estimate(f) + b.estimate(f)).collect();
        a.merge_from(&b);
        for f in 0..600u32 {
            assert!(
                a.estimate(f).to_bits() == expected[f as usize].to_bits(),
                "feature {f}: merged {} vs sum {}",
                a.estimate(f),
                expected[f as usize]
            );
        }
    }

    #[test]
    fn merge_into_untrained_clone_preserves_estimates() {
        // Depth 4: √s = 2 is a power of two, so the query-side rescaling
        // commutes with rounding and the bit-equality assertions below are
        // exact rather than ULP-fragile.
        let cfg = WmSketchConfig::new(128, 4).seed(5);
        let mut trained = WmSketch::new(cfg);
        for (x, y) in planted_stream(1000) {
            trained.update(&x, y);
        }
        let mut empty = WmSketch::new(cfg);
        empty.merge_from(&trained);
        assert_eq!(empty.examples_seen(), trained.examples_seen());
        for f in 0..600u32 {
            assert!(
                empty.estimate(f).to_bits() == trained.estimate(f).to_bits(),
                "feature {f}"
            );
        }
        let (a, b) = (empty.recover_top_k(16), trained.recover_top_k(16));
        let fa: Vec<u32> = a.iter().map(|e| e.feature).collect();
        let fb: Vec<u32> = b.iter().map(|e| e.feature).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn merge_accepts_heap_free_worker_into_heaped_root() {
        let cfg = WmSketchConfig::new(128, 4).seed(9);
        let mut worker = WmSketch::new(cfg.heap_capacity(0));
        for (x, y) in planted_stream(2000) {
            worker.update(&x, y);
        }
        let mut root = WmSketch::new(cfg);
        root.merge_from(&worker);
        // Worker had no heap, so the root's heap starts empty until
        // candidates are supplied.
        assert!(root.recover_top_k(4).is_empty());
        let cands: Vec<u32> = (0..600).collect();
        root.rebuild_top_k(&cands);
        let top: Vec<u32> = root.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
        assert!(root.estimate(3).to_bits() == worker.estimate(3).to_bits());
    }

    #[test]
    fn rebuild_top_k_is_candidate_order_insensitive() {
        let cfg = WmSketchConfig::new(128, 4).heap_capacity(8).seed(2);
        let mut wm = WmSketch::new(cfg);
        for (x, y) in planted_stream(1500) {
            wm.update(&x, y);
        }
        let mut fwd = wm.clone();
        let mut rev = wm.clone();
        let cands: Vec<u32> = (0..600).collect();
        let rcands: Vec<u32> = (0..600).rev().collect();
        fwd.rebuild_top_k(&cands);
        rev.rebuild_top_k(&rcands);
        let a: Vec<WeightEntry> = fwd.recover_top_k(8);
        let b: Vec<WeightEntry> = rev.recover_top_k(8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.feature, y.feature);
            assert!(x.weight.to_bits() == y.weight.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_mismatched_seed() {
        let mut a = WmSketch::new(WmSketchConfig::new(64, 2).seed(1));
        let b = WmSketch::new(WmSketchConfig::new(64, 2).seed(2));
        a.merge_from(&b);
    }

    #[test]
    fn snapshot_round_trip_preserves_full_state() {
        let cfg = WmSketchConfig::new(128, 5)
            .lambda(1e-5)
            .seed(21)
            .hash_family(HashFamilyKind::Polynomial(4));
        let mut wm = WmSketch::new(cfg);
        for (x, y) in planted_stream(1500) {
            wm.update(&x, y);
        }
        let bytes = wm.to_snapshot_bytes();
        let mut back = WmSketch::from_snapshot_bytes(&bytes).unwrap();
        assert!(back.merge_compatible(&wm) && wm.merge_compatible(&back));
        assert_eq!(back.examples_seen(), wm.examples_seen());
        assert_eq!(back.to_snapshot_bytes(), bytes);
        for f in 0..600u32 {
            assert!(
                back.estimate(f).to_bits() == wm.estimate(f).to_bits(),
                "{f}"
            );
        }
        let (a, b) = (back.recover_top_k(16), wm.recover_top_k(16));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.feature, y.feature);
            assert!(x.weight.to_bits() == y.weight.to_bits());
        }
        // The decoded model keeps evolving identically: same margins and
        // estimates after further training (the heap is passive, so cells
        // and clock fully determine the estimates).
        for (x, y) in planted_stream(500) {
            back.update(&x, y);
            wm.update(&x, y);
        }
        for f in 0..600u32 {
            assert!(
                back.estimate(f).to_bits() == wm.estimate(f).to_bits(),
                "{f}"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_heap_free() {
        let mut wm = WmSketch::new(WmSketchConfig::new(64, 3).heap_capacity(0).seed(2));
        for (x, y) in planted_stream(300) {
            wm.update(&x, y);
        }
        let back = WmSketch::from_snapshot_bytes(&wm.to_snapshot_bytes()).unwrap();
        assert!(back.recover_top_k(4).is_empty());
        assert!(back.estimate(3).to_bits() == wm.estimate(3).to_bits());
    }

    #[test]
    fn snapshot_merges_like_the_original() {
        // A decoded snapshot must be a drop-in peer for merging: shipping
        // b's snapshot and merging equals merging b directly.
        let cfg = WmSketchConfig::new(128, 4).seed(5);
        let mut a1 = WmSketch::new(cfg);
        let mut a2 = WmSketch::new(cfg);
        let mut b = WmSketch::new(cfg);
        for (i, (x, y)) in planted_stream(1200).enumerate() {
            if i % 2 == 0 {
                a1.update(&x, y);
                a2.update(&x, y);
            } else {
                b.update(&x, y);
            }
        }
        let shipped = WmSketch::from_snapshot_bytes(&b.to_snapshot_bytes()).unwrap();
        a1.merge_from(&b);
        a2.merge_from(&shipped);
        for f in 0..600u32 {
            assert!(a1.estimate(f).to_bits() == a2.estimate(f).to_bits(), "{f}");
        }
    }

    #[test]
    fn snapshot_rejects_capacity_mismatch_and_truncation() {
        let mut wm = WmSketch::new(WmSketchConfig::new(32, 2).seed(1));
        for (x, y) in planted_stream(50) {
            wm.update(&x, y);
        }
        let bytes = wm.to_snapshot_bytes();
        // Every strict prefix must fail with a typed error, not a panic.
        for n in 0..bytes.len() {
            assert!(
                WmSketch::from_snapshot_bytes(&bytes[..n]).is_err(),
                "prefix {n} decoded"
            );
        }
        // Appending junk shifts the CRC footer window: ChecksumMismatch.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            WmSketch::from_snapshot_bytes(&long),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rebuild_top_k_unions_current_heap_features() {
        // Features already tracked survive a rebuild whose candidate list
        // does not mention them (they out-rank the candidates).
        let mut wm = WmSketch::new(WmSketchConfig::new(256, 4).lambda(1e-5).seed(3));
        for (x, y) in planted_stream(3000) {
            wm.update(&x, y);
        }
        wm.rebuild_top_k(&[700, 701]); // untrained features, estimate ≈ 0
        let top: Vec<u32> = wm.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn memory_accounting_matches_budget_helper() {
        let cfg = WmSketchConfig::new(128, 14).heap_capacity(128);
        // Table 2's 8 KB WM row: |S|=128, width 128, depth 14.
        assert_eq!(cfg.memory_bytes(), 128 * 8 + 128 * 14 * 4);
        assert!(cfg.memory_bytes() <= 8 * 1024);
    }

    #[test]
    fn with_budget_bytes_fits_budget() {
        for budget in [2048usize, 4096, 8192, 16384, 32768] {
            let cfg = WmSketchConfig::with_budget_bytes(budget);
            assert!(cfg.memory_bytes() <= budget, "budget {budget}");
        }
    }
}
