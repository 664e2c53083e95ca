//! The Active-Set Weight-Median Sketch — Algorithm 2 of the paper.
//!
//! The AWM-Sketch splits the model between an **active set** `S` — a min-heap
//! of the highest-|weight| features whose weights are stored *exactly* — and
//! a WM-Sketch that estimates the tail. Features in the active set are *not*
//! hashed into the sketch; the sketch is touched lazily, only when a feature
//! is evicted from the heap. Per update, for each input feature `i ∉ S` the
//! candidate weight `w̃ = Query(i) − η_t·y·x_i·ℓ'(yτ)` competes against the
//! heap minimum:
//!
//! * if `|w̃|` beats the minimum, `i` is promoted into the heap with weight
//!   `w̃` and the displaced feature `i_min` spills back into the sketch with
//!   the residual `S[i_min] − Query(i_min)`, so the sketch's estimate of the
//!   evicted feature becomes its exact last value;
//! * otherwise the gradient step is applied to `i`'s sketch cells as in the
//!   basic WM-Sketch.
//!
//! The paper's intuition (§9): erroneous promotions decay under `ℓ2`
//! regularization and get evicted, while truly heavy features stay — the
//! heap doubles as the disambiguation mechanism that multiple hashing
//! provides in the basic sketch, which is why the best AWM configuration
//! uses a **depth-1** sketch (§7.3) and beats feature hashing despite
//! spending half its budget on identifiers.

use crate::delta::DirtyCells;
use wmsketch_hashing::codec::{self, CodecError, Reader, SnapshotCodec, Writer, KIND_AWM};
use wmsketch_hashing::{CoordPlan, HashFamilyKind, RowHashers};
use wmsketch_hh::{Offer, TopKWeights};

use crate::wm::{SECTION_CELLS, SECTION_STATE, SECTION_TOPK};
use wmsketch_learn::{
    debug_check_label, Label, LearningRate, Loss, LossKind, MergeableLearner, OnlineLearner,
    ScaleState, SparseVector, TopKRecovery, WeightEntry, WeightEstimator,
};
use wmsketch_sketch::{median_inplace, signed_median_estimate};

/// Configuration for [`AwmSketch`].
#[derive(Debug, Clone, Copy)]
pub struct AwmSketchConfig {
    /// Buckets per sketch row.
    pub width: u32,
    /// Sketch depth (the paper's best configurations all use 1).
    pub depth: u32,
    /// Active-set capacity `|S|`.
    pub heap_capacity: usize,
    /// `ℓ2` regularization strength λ.
    pub lambda: f64,
    /// Learning-rate schedule.
    pub learning_rate: LearningRate,
    /// Loss function.
    pub loss: LossKind,
    /// Hash family for the sketch.
    pub hash_family: HashFamilyKind,
    /// Hash seed.
    pub seed: u64,
}

impl AwmSketchConfig {
    /// An AWM-Sketch with the given active-set capacity and sketch width,
    /// depth 1, and paper-default hyperparameters.
    #[must_use]
    pub fn new(heap_capacity: usize, width: u32) -> Self {
        Self {
            width,
            depth: 1,
            heap_capacity,
            lambda: 1e-6,
            learning_rate: LearningRate::default(),
            loss: LossKind::Logistic,
            hash_family: HashFamilyKind::Tabulation,
            seed: 0,
        }
    }

    /// The paper's uniformly-best budget split (§7.3): half the budget on
    /// the active set, the rest on a depth-1 sketch. Under the §7.1 cost
    /// model a heap entry costs 2 units and a sketch cell 1, so
    /// `|S| = B/16` and `width = B/8` (both rounded to powers of two, as in
    /// Table 2).
    #[must_use]
    pub fn with_budget_bytes(budget: usize) -> Self {
        let units = budget / crate::budget::BYTES_PER_UNIT;
        let heap = (units / 4).next_power_of_two().max(1);
        let heap = if heap * 4 > units { heap / 2 } else { heap }.max(1);
        let width = (units.saturating_sub(2 * heap)).next_power_of_two();
        let width = if width + 2 * heap > units {
            width / 2
        } else {
            width
        }
        .max(1);
        Self::new(heap, width as u32)
    }

    /// Sets the sketch depth.
    #[must_use]
    pub fn depth(mut self, depth: u32) -> Self {
        self.depth = depth;
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
        crate::budget::awm_bytes(
            self.heap_capacity,
            self.width as usize * self.depth as usize,
        )
    }
}

/// The Active-Set Weight-Median Sketch (see module docs).
///
/// Cloning copies the full model (hash functions included), so a clone is
/// merge-compatible with its source.
#[derive(Clone)]
pub struct AwmSketch {
    cfg: AwmSketchConfig,
    hashers: RowHashers,
    /// Pre-scale sketch cells (row-major).
    z: Vec<f64>,
    /// Active set: exact pre-scale weights, min-heap by |weight|.
    active: TopKWeights,
    scale: ScaleState,
    inv_sqrt_s: f64,
    sqrt_s: f64,
    /// Cached coordinates of the current example's *sketched* features
    /// (those outside the active set); buffers reused across updates.
    plan: CoordPlan,
    /// Where the margin pass found each feature of the current example,
    /// parallel to the input's entries: its active-set slot (the
    /// example's one tracker lookup) or its coordinate-plan slot.
    slots: Vec<Found>,
    t: u64,
    /// Per-cell last-touched stamps for delta snapshots; off (empty) until
    /// the first [`AwmSketch::encode_delta_since`] call.
    dirty: DirtyCells,
}

/// Where the margin pass found one feature of the current example.
#[derive(Clone, Copy)]
enum Found {
    /// In the active set, at this tracker slot; not hashed into the plan.
    /// The update pass re-checks the slot's feature, since a promotion
    /// earlier in the same example may have evicted this feature and
    /// handed its slot to the promoted one.
    Active(u32),
    /// In the sketch, at this coordinate-plan slot.
    Planned(usize),
}

/// Depth-1 fast path for a planned slot's sign-corrected scaled value:
/// bit-identical to `median_inplace(plan.slot_values(slot, cells, scale))`
/// when the plan has exactly one row — the "median" over one value is the
/// value itself, and `+ 0.0` applies the same ±0.0 canonicalization the
/// median paths do. Skips the scratch fill and the median dispatch
/// entirely, which is most of the per-feature query cost at the paper's
/// best AWM shape (width 1024, depth 1).
#[inline]
fn slot_value_depth1(plan: &CoordPlan, slot: usize, cells: &[f64], scale: f64) -> f64 {
    let (offsets, signs) = plan.coords(slot);
    scale * signs[0] * cells[offsets[0] as usize] + 0.0
}

impl std::fmt::Debug for AwmSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AwmSketch")
            .field("width", &self.cfg.width)
            .field("depth", &self.cfg.depth)
            .field("heap_capacity", &self.cfg.heap_capacity)
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

impl AwmSketch {
    /// Creates a zero-initialized AWM-Sketch.
    ///
    /// # Panics
    /// Panics if `width == 0`, `depth == 0`, or `heap_capacity == 0`.
    #[must_use]
    pub fn new(cfg: AwmSketchConfig) -> Self {
        let z = vec![0.0; cfg.depth as usize * cfg.width as usize];
        let active = TopKWeights::new(cfg.heap_capacity);
        Self::from_parts(cfg, z, ScaleState::new(), 0, active)
    }

    /// Assembles a sketch from already-built state — the single
    /// construction site shared by [`AwmSketch::new`] and the snapshot
    /// decoder (which would otherwise allocate a zeroed cell vector and
    /// an active set only to overwrite both).
    fn from_parts(
        cfg: AwmSketchConfig,
        z: Vec<f64>,
        scale: ScaleState,
        t: u64,
        active: TopKWeights,
    ) -> Self {
        let hashers = RowHashers::new(cfg.hash_family, cfg.depth, cfg.width, cfg.seed);
        let s = f64::from(cfg.depth);
        Self {
            cfg,
            hashers,
            z,
            active,
            scale,
            inv_sqrt_s: 1.0 / s.sqrt(),
            sqrt_s: s.sqrt(),
            plan: CoordPlan::new(),
            slots: Vec::new(),
            t,
            dirty: DirtyCells::off(),
        }
    }

    /// The configuration this sketch was built with.
    #[must_use]
    pub fn config(&self) -> &AwmSketchConfig {
        &self.cfg
    }

    /// Memory cost in bytes under the paper's §7.1 model.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cfg.memory_bytes()
    }

    /// Estimated bytes this instance actually holds resident: the cell
    /// array, the active set at its allocated capacity, the row-hash
    /// tables (16 KiB per row under tabulation), and the retained
    /// coordinate-plan/slot scratch. This is the figure a memory
    /// governor should charge — typically several times the §7.1 model
    /// for small sketches. The tables are counted in full although every
    /// live model with the same seed and depth shares one copy, so the
    /// figure is an upper bound; spilling reclaims everything else, and
    /// the tables only when no other model holds them (hashers and
    /// scratch rebuild deterministically on revival).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.z.capacity() * std::mem::size_of::<f64>()
            + self.active.resident_bytes()
            + self.hashers.resident_bytes()
            + self.plan.resident_bytes()
            + self.slots.capacity() * std::mem::size_of::<Found>()
            + self.dirty.resident_bytes()
    }

    /// Number of features currently in the active set.
    #[must_use]
    pub fn active_set_len(&self) -> usize {
        self.active.len()
    }

    /// Whether `feature` is currently held exactly in the active set.
    #[must_use]
    pub fn in_active_set(&self, feature: u32) -> bool {
        self.active.contains(feature)
    }

    /// Count-Sketch median estimate of `feature` (pre-scale).
    fn query_stored(&self, feature: u32) -> f64 {
        signed_median_estimate(&self.hashers, &self.z, u64::from(feature), self.sqrt_s)
    }

    /// Adds `delta` (pre-scale) to `feature`'s sketch cells.
    fn sketch_add(&mut self, feature: u32, delta: f64) {
        let d = delta * self.inv_sqrt_s;
        self.hashers
            .for_each_coord(u64::from(feature), |cell, sign| {
                self.z[cell] += sign * d;
                self.dirty.touch(cell);
            });
    }

    fn fold_scale(&mut self) {
        let a = self.scale.fold();
        for v in &mut self.z {
            *v *= a;
        }
        // Fold the active set's stored weights too: they share the scale.
        self.active.scale_all(a);
        // A fold rewrites every stored cell and active weight.
        self.dirty.touch_all();
        self.dirty.touch_heap();
    }

    /// Replaces the active set with the heaviest sketch estimates among
    /// `candidates` (pre-scale, deterministic for any candidate order).
    ///
    /// Callers must have spilled every current active weight into the
    /// sketch first (or included it in `candidates` *after* a spill) —
    /// exact weights not represented in the sketch when this runs would
    /// be lost. `merge_from` upholds that invariant.
    fn repromote(&mut self, mut candidates: Vec<u32>) {
        candidates.sort_unstable();
        candidates.dedup();
        let ranked: Vec<WeightEntry> = candidates
            .iter()
            .map(|&f| WeightEntry {
                feature: f,
                weight: self.query_stored(f),
            })
            .collect();
        self.active = TopKWeights::from_heaviest(self.cfg.heap_capacity, ranked);
        self.dirty.touch_heap();
    }

    /// The seed implementation's multi-pass update, retained as the
    /// reference path: each sketched feature is hashed once for the margin,
    /// once for the candidate-weight query, and (on rejection or eviction)
    /// once more for the sketch write. [`OnlineLearner::update`] is the
    /// fused single-hash pipeline; golden tests assert bit-identical state.
    pub fn update_naive(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        self.dirty.set_epoch(self.t);
        let eta = self.cfg.learning_rate.at(self.t);
        let tau = self.margin(x);
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g == 0.0 {
            return;
        }
        for (i, xi) in x.iter() {
            let stored_step = self.scale.store(-eta * g * xi);
            if let Some(w) = self.active.get(i) {
                // Heap update: exact gradient step on the stored weight.
                self.active.offer(i, w + stored_step);
                self.dirty.touch_heap();
            } else {
                // Candidate weight w̃ = Query(i) − η·y·x_i·ℓ'(yτ), pre-scale.
                let w_tilde = self.query_stored(i) + stored_step;
                match self.active.offer(i, w_tilde) {
                    Offer::Evicted(evicted) => {
                        // Spill the evicted feature back: write the residual
                        // so the sketch's estimate equals its exact weight.
                        let residual = evicted.weight - self.query_stored(evicted.feature);
                        self.sketch_add(evicted.feature, residual);
                        self.dirty.touch_heap();
                    }
                    Offer::Inserted => {
                        // Admitted into spare capacity; nothing to spill.
                        self.dirty.touch_heap();
                    }
                    Offer::Rejected => {
                        // Stay in the sketch: plain WM-Sketch gradient step.
                        self.sketch_add(i, stored_step);
                    }
                    Offer::Updated => unreachable!("feature checked absent from active set"),
                }
            }
        }
    }

    /// (Re)starts dirty-cell tracking with everything considered dirty at
    /// the current clock — the state right after shipping a full snapshot.
    pub(crate) fn begin_tracking(&mut self) {
        self.begin_tracking_at(self.t);
    }

    /// [`AwmSketch::begin_tracking`] against an owning composite learner's
    /// clock (multiclass): class cells change at *model* epochs, so the
    /// all-dirty baseline must be stamped with the model clock, not the
    /// smaller per-class update count.
    pub(crate) fn begin_tracking_at(&mut self, clock: u64) {
        let cells = self.z.len();
        self.dirty.enable(cells, clock);
    }

    /// Hands dirty-stamp epoch control to an owning composite learner
    /// (multiclass): stamps then use the owner's clock, so one watermark
    /// selects the dirty cells of every class sketch.
    pub(crate) fn delta_epoch(&mut self, t: u64) {
        self.dirty.force_epoch(t);
    }

    /// Whether a sparse delta since `since` can be encoded (tracking on,
    /// no clock-less mutation since, watermark not in the future).
    pub(crate) fn can_delta(&self, since: u64) -> bool {
        self.dirty.can_delta(since, self.t)
    }

    /// [`AwmSketch::can_delta`] against an owning composite learner's
    /// clock (multiclass watermarks are model clocks).
    pub(crate) fn can_delta_with_clock(&self, since: u64, clock: u64) -> bool {
        self.dirty.can_delta(since, clock)
    }

    /// Encodes the delta body sections (everything after the HEAD):
    /// sparse dirty cells, the full scalar state, and the active set when
    /// it moved since `since`. Unlike the WM-Sketch's passive heap, the
    /// active set holds exact model weights, so shipping it on change is
    /// required for correctness, not just for query freshness.
    pub(crate) fn encode_delta_body(&self, since: u64, w: &mut Writer) {
        codec::put_delta_cells(w, &self.dirty.changed(&self.z, since));
        let mark = w.begin_section(codec::DELTA_SECTION_STATE);
        w.put_u64(self.t);
        self.scale.encode_into(w);
        w.end_section(mark);
        let mark = w.begin_section(codec::DELTA_SECTION_TOPK);
        if self.dirty.heap_dirty(since) {
            w.put_u8(1);
            self.active.encode_into(w);
        } else {
            w.put_u8(0);
        }
        w.end_section(mark);
    }

    /// Decodes and applies the delta body sections written by
    /// [`AwmSketch::encode_delta_body`]. On error the sketch is unchanged.
    pub(crate) fn apply_delta_body(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let cells = codec::take_delta_cells(r, self.z.len())?;
        let mut s = r.expect_section(codec::DELTA_SECTION_STATE)?;
        let t = s.take_u64()?;
        let scale = ScaleState::decode_from(&mut s)?;
        s.finish()?;
        let mut h = r.expect_section(codec::DELTA_SECTION_TOPK)?;
        let active = match h.take_u8()? {
            // 0: the active set did not move since the watermark; keep ours.
            0 => None,
            1 => Some(TopKWeights::decode_from(&mut h, self.cfg.heap_capacity)?),
            _ => return Err(CodecError::Invalid("bad delta active-set change flag")),
        };
        h.finish()?;
        // Everything validated; commit.
        for (idx, bits) in cells {
            self.z[idx as usize] = f64::from_bits(bits);
        }
        self.t = t;
        self.scale = scale;
        if let Some(active) = active {
            self.active = active;
        }
        // Applied state does not correspond to locally-tracked history any
        // more; restart tracking conservatively (everything dirty now).
        if self.dirty.enabled() {
            self.begin_tracking();
        }
        Ok(())
    }

    /// Encodes a **delta record**: the state changed since clock `since`.
    /// Same record shape and fallback rules as
    /// [`crate::WmSketch::encode_delta_since`] (kind [`KIND_AWM`]); the
    /// TOPK section carries the exact active set instead of a passive
    /// heap, with no inner presence flag (an AWM active set always
    /// exists).
    #[must_use]
    pub fn encode_delta_since(&mut self, since: u64) -> Vec<u8> {
        if !self.can_delta(since) {
            self.begin_tracking();
            return self.to_snapshot_bytes();
        }
        let mut w = Writer::new();
        w.put_delta_envelope(KIND_AWM);
        let mark = w.begin_section(codec::DELTA_SECTION_HEAD);
        w.put_u64(since);
        w.put_u64(self.t);
        w.end_section(mark);
        self.encode_delta_body(since, &mut w);
        let mut bytes = w.into_bytes();
        codec::seal_record(&mut bytes);
        bytes
    }

    /// Applies a delta record produced by [`AwmSketch::encode_delta_since`]
    /// and returns the new clock. Error contract as
    /// [`crate::WmSketch::apply_delta`].
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<u64, CodecError> {
        let bytes = codec::verify_integrity(bytes)?;
        let mut r = Reader::new(bytes);
        r.expect_delta_envelope(KIND_AWM)?;
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
}

impl MergeableLearner for AwmSketch {
    /// Merge compatibility requires the same sketch shape, hash family,
    /// seed, and active-set capacity.
    fn merge_compatible(&self, other: &Self) -> bool {
        self.cfg.width == other.cfg.width
            && self.cfg.depth == other.cfg.depth
            && self.cfg.hash_family == other.cfg.hash_family
            && self.cfg.seed == other.cfg.seed
            && self.cfg.heap_capacity == other.cfg.heap_capacity
    }

    /// Adds `other`'s model into `self` with *evict-all, merge, re-promote*
    /// semantics.
    ///
    /// The AWM-Sketch splits its model between the sketch and the exact
    /// active set, so the merge first normalizes both learners to
    /// pure-sketch form exactly the way a natural eviction would — each
    /// active feature spills the residual `S[i] − Query(i)` so the sketch
    /// estimate becomes its exact weight — then merges the sketches by
    /// linearity, and finally re-promotes the heaviest merged estimates
    /// among the union of both active sets (mirroring a normal promotion,
    /// the promoted feature's sketch mass stays in place and is shadowed
    /// by the heap entry).
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "merging incompatible AWM-Sketches ({}x{} |S|={} seed {} vs {}x{} |S|={} seed {})",
            self.cfg.width,
            self.cfg.depth,
            self.cfg.heap_capacity,
            self.cfg.seed,
            other.cfg.width,
            other.cfg.depth,
            other.cfg.heap_capacity,
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
        // Evict-all: spill self's active set into its own sketch (residual
        // makes each sketched estimate exact), in deterministic order.
        let mut candidates: Vec<u32> = self.active.iter().map(|e| e.feature).collect();
        candidates.sort_unstable();
        for &f in &candidates {
            let w = self.active.get(f).expect("feature from active iter");
            let residual = w - self.query_stored(f);
            self.sketch_add(f, residual);
        }
        // Merge other's logical cells (exact by Count-Sketch linearity).
        for (cell, &o) in self.z.iter_mut().zip(&other.z) {
            *cell += other.scale.load(o);
        }
        self.dirty.touch_all();
        // Spill other's active set with residuals computed against
        // *other's own* sketch — the same write an eviction in `other`
        // would have produced, now landed in the merged cells.
        let mut other_active: Vec<u32> = other.active.iter().map(|e| e.feature).collect();
        other_active.sort_unstable();
        for &f in &other_active {
            let w = other.active.get(f).expect("feature from active iter");
            let residual = other.scale.load(w - other.query_stored(f));
            self.sketch_add(f, residual);
        }
        // Re-promote the heaviest merged estimates among the union.
        candidates.extend(other_active);
        self.repromote(candidates);
        self.t += other.t;
    }
}

/// Snapshot layout (after the `WMS1` envelope, kind [`KIND_AWM`]):
///
/// ```text
/// section 0x01 CONFIG: width (u32) | depth (u32) | heap_capacity (u64)
///                    | lambda (f64) | learning_rate | loss
///                    | hash_family | seed (u64)
/// section 0x02 CELLS:  count (u64) | count × f64 pre-scale cells z_v
/// section 0x03 STATE:  t (u64) | alpha (f64) | fold threshold (f64)
/// section 0x04 TOPK:   capacity (u64) | count (u64)
///                    | count × (feature u32, exact pre-scale weight f64)
/// ```
///
/// Unlike the WM-Sketch's passive heap, the active set holds *exact*
/// model weights, so the TOPK section here is integral model state; its
/// capacity must equal the config's `heap_capacity`.
impl SnapshotCodec for AwmSketch {
    const KIND: u8 = KIND_AWM;

    fn encode_body(&self, w: &mut Writer) {
        // The CONFIG layout is shared with the WM-Sketch byte for byte.
        crate::wm::put_wm_config(
            w,
            &crate::wm::WmSketchConfig {
                width: self.cfg.width,
                depth: self.cfg.depth,
                heap_capacity: self.cfg.heap_capacity,
                lambda: self.cfg.lambda,
                learning_rate: self.cfg.learning_rate,
                loss: self.cfg.loss,
                hash_family: self.cfg.hash_family,
                seed: self.cfg.seed,
            },
        );
        codec::put_f64_section(w, SECTION_CELLS, &self.z);
        let mark = w.begin_section(SECTION_STATE);
        w.put_u64(self.t);
        self.scale.encode_into(w);
        w.end_section(mark);
        let mark = w.begin_section(SECTION_TOPK);
        self.active.encode_into(w);
        w.end_section(mark);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let shared = crate::wm::take_wm_config(r)?;
        if shared.heap_capacity == 0 {
            return Err(CodecError::Invalid("active-set capacity must be nonzero"));
        }
        let cfg = AwmSketchConfig {
            width: shared.width,
            depth: shared.depth,
            heap_capacity: shared.heap_capacity,
            lambda: shared.lambda,
            learning_rate: shared.learning_rate,
            loss: shared.loss,
            hash_family: shared.hash_family,
            seed: shared.seed,
        };
        let expected = (cfg.depth as usize)
            .checked_mul(cfg.width as usize)
            .ok_or(CodecError::Invalid("depth*width overflows"))?;
        let z = codec::take_f64_section(r, SECTION_CELLS, expected)?;
        let mut s = r.expect_section(SECTION_STATE)?;
        let t = s.take_u64()?;
        let scale = wmsketch_learn::ScaleState::decode_from(&mut s)?;
        s.finish()?;
        let mut a = r.expect_section(SECTION_TOPK)?;
        let active = TopKWeights::decode_from(&mut a, cfg.heap_capacity)?;
        a.finish()?;
        Ok(Self::from_parts(cfg, z, scale, t, active))
    }
}

impl OnlineLearner for AwmSketch {
    fn margin(&self, x: &SparseVector) -> f64 {
        // τ = Σ_{i∈S} S[i]·x_i + zᵀRx_{∉S}, all times the global scale.
        let mut acc = 0.0;
        for (i, xi) in x.iter() {
            if let Some(w) = self.active.get(i) {
                acc += w * xi;
            } else {
                let mut proj = 0.0;
                self.hashers
                    .for_each_coord(u64::from(i), |offset, sign| proj += sign * self.z[offset]);
                acc += xi * proj * self.inv_sqrt_s;
            }
        }
        self.scale.load(acc)
    }

    /// The fused single-hash update pipeline.
    ///
    /// During the margin pass, every feature is looked up in the active
    /// set once, and every feature *outside* it is hashed once into the
    /// coordinate plan; the update pass then replays the cached active-set
    /// slots (a dense read instead of a second lookup) and the cached
    /// coordinates for the candidate-weight query and any sketch write.
    /// Features the margin pass found in the active set are never hashed
    /// at all (as in the reference path); the rare features whose
    /// membership changes mid-update — a promotion evicting a
    /// margin-time-active feature, whose slot then holds the promoted
    /// feature — fail the slot's feature check and are planned lazily at
    /// their turn. Features outside the active set at margin time are
    /// still outside it at their turn (an example's features are
    /// distinct), so they go straight to
    /// [`TopKWeights::offer_untracked`].
    /// Depth-1 sketches (the paper's best AWM shape) skip the median
    /// machinery via `slot_value_depth1`. Arithmetic order matches
    /// [`AwmSketch::update_naive`] operation for operation, so the
    /// resulting state is bit-identical.
    fn update(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        self.dirty.set_epoch(self.t);
        let eta = self.cfg.learning_rate.at(self.t);
        // Margin + single hashing pass over the sketched features.
        self.hashers.begin_plan(&mut self.plan);
        self.slots.clear();
        let mut acc = 0.0;
        for (i, xi) in x.iter() {
            if let Some(slot) = self.active.find(i) {
                self.slots.push(Found::Active(slot));
                acc += self.active.entry(slot).weight * xi;
            } else {
                let slot = self.hashers.plan_push(&mut self.plan, u64::from(i));
                self.slots.push(Found::Planned(slot));
                let proj = self.plan.slot_projection(slot, &self.z);
                acc += xi * proj * self.inv_sqrt_s;
            }
        }
        let tau = self.scale.load(acc);
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g == 0.0 {
            return;
        }
        let inv_sqrt_s = self.inv_sqrt_s;
        let sqrt_s = self.sqrt_s;
        let scale = self.scale;
        // Split borrows: the plan replays coordinates against `z` while the
        // active set is mutated alongside.
        let Self {
            z,
            plan,
            active,
            hashers,
            slots,
            dirty,
            ..
        } = self;
        let depth_one = plan.depth() == 1;
        let tracking = dirty.enabled();
        for (idx, (i, xi)) in x.iter().enumerate() {
            let stored_step = scale.store(-eta * g * xi);
            let slot = match slots[idx] {
                Found::Active(slot) if active.entry(slot).feature == i => {
                    // Heap update: exact gradient step on the stored weight.
                    active.set(slot, active.entry(slot).weight + stored_step);
                    dirty.touch_heap();
                    continue;
                }
                // An earlier promotion this update evicted a feature that
                // was active at margin time; plan it now.
                Found::Active(_) => hashers.plan_push(plan, u64::from(i)),
                Found::Planned(slot) => slot,
            };
            // Candidate weight w̃ = Query(i) − η·y·x_i·ℓ'(yτ), pre-scale,
            // with the query replayed from cached coordinates (depth 1
            // reads the one cell directly, skipping the median).
            let queried = if depth_one {
                slot_value_depth1(plan, slot, z, sqrt_s)
            } else {
                median_inplace(plan.slot_values(slot, z, sqrt_s))
            };
            let w_tilde = queried + stored_step;
            match active.offer_untracked(i, w_tilde) {
                Offer::Evicted(evicted) => {
                    // Spill the evicted feature back: write the residual
                    // so the sketch's estimate equals its exact weight.
                    // The evicted feature is arbitrary, so it needs its
                    // own (single) hashing pass.
                    let ev_slot = hashers.plan_push(plan, u64::from(evicted.feature));
                    let ev_query = if depth_one {
                        slot_value_depth1(plan, ev_slot, z, sqrt_s)
                    } else {
                        median_inplace(plan.slot_values(ev_slot, z, sqrt_s))
                    };
                    let residual = evicted.weight - ev_query;
                    plan.slot_scatter(ev_slot, z, residual * inv_sqrt_s);
                    if tracking {
                        for &o in plan.coords(ev_slot).0 {
                            dirty.touch(o as usize);
                        }
                    }
                    dirty.touch_heap();
                }
                Offer::Inserted => {
                    // Admitted into spare capacity; nothing to spill.
                    dirty.touch_heap();
                }
                Offer::Rejected => {
                    // Stay in the sketch: plain WM-Sketch gradient step.
                    plan.slot_scatter(slot, z, stored_step * inv_sqrt_s);
                    if tracking {
                        for &o in plan.coords(slot).0 {
                            dirty.touch(o as usize);
                        }
                    }
                }
                Offer::Updated => unreachable!("offer_untracked never updates"),
            }
        }
    }

    fn examples_seen(&self) -> u64 {
        self.t
    }
}

impl WeightEstimator for AwmSketch {
    fn estimate(&self, feature: u32) -> f64 {
        let stored = self
            .active
            .get(feature)
            .unwrap_or_else(|| self.query_stored(feature));
        self.scale.load(stored)
    }
}

impl TopKRecovery for AwmSketch {
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        self.active
            .top_k(k)
            .into_iter()
            .map(|e| WeightEntry {
                feature: e.feature,
                weight: self.scale.load(e.weight),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_stream(n: usize) -> impl Iterator<Item = (SparseVector, Label)> {
        (0..n).map(|t| {
            let noise = 100 + (t * 13 % 500) as u32;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
    }

    #[test]
    fn heavy_features_end_up_in_active_set() {
        let mut awm = AwmSketch::new(AwmSketchConfig::new(16, 256).lambda(1e-5).seed(1));
        for (x, y) in planted_stream(4000) {
            awm.update(&x, y);
        }
        assert!(awm.in_active_set(3), "feature 3 not in active set");
        assert!(awm.in_active_set(9), "feature 9 not in active set");
        assert!(awm.estimate(3) > 0.2);
        assert!(awm.estimate(9) < -0.2);
        let top: Vec<u32> = awm.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");
    }

    #[test]
    fn classification_through_mixed_representation() {
        let mut awm = AwmSketch::new(AwmSketchConfig::new(8, 128).seed(2));
        for (x, y) in planted_stream(2000) {
            awm.update(&x, y);
        }
        assert_eq!(awm.predict(&SparseVector::one_hot(3, 1.0)), 1);
        assert_eq!(awm.predict(&SparseVector::one_hot(9, 1.0)), -1);
    }

    #[test]
    fn active_set_never_exceeds_capacity() {
        let mut awm = AwmSketch::new(AwmSketchConfig::new(4, 64).seed(3));
        for (x, y) in planted_stream(1000) {
            awm.update(&x, y);
            assert!(awm.active_set_len() <= 4);
        }
        assert_eq!(awm.active_set_len(), 4);
    }

    #[test]
    fn matches_dense_ogd_when_all_features_fit_in_heap() {
        // Heap capacity ≥ number of distinct features ⇒ every weight is
        // exact and the AWM-Sketch IS dense OGD.
        use wmsketch_learn::{LogisticRegression, LogisticRegressionConfig};
        let mut awm = AwmSketch::new(AwmSketchConfig::new(32, 64).lambda(1e-4).seed(4));
        let mut lr = LogisticRegression::new(
            LogisticRegressionConfig::new(16)
                .lambda(1e-4)
                .track_top_k(0),
        );
        for t in 0..800 {
            let f = (t % 8) as u32;
            let y: Label = if f < 4 { 1 } else { -1 };
            let x = SparseVector::from_pairs(&[(f, 1.0), (8 + f, 0.25)]);
            awm.update(&x, y);
            lr.update(&x, y);
        }
        for f in 0..16u32 {
            assert!(
                (awm.estimate(f) - lr.weight(f)).abs() < 1e-9,
                "feature {f}: awm {} vs dense {}",
                awm.estimate(f),
                lr.weight(f)
            );
        }
    }

    #[test]
    fn eviction_spills_residual_into_sketch() {
        // Capacity-1 heap: feature 1 trained hard, then feature 2 trained
        // harder; feature 1 must be evicted but remain estimable from the
        // sketch with its last exact value (no other features collide).
        let mut awm = AwmSketch::new(
            AwmSketchConfig::new(1, 1024)
                .lambda(0.0)
                .learning_rate(LearningRate::Constant(0.5))
                .seed(5),
        );
        for _ in 0..20 {
            awm.update(&SparseVector::one_hot(1, 1.0), 1);
        }
        let w1_exact = awm.estimate(1);
        assert!(awm.in_active_set(1));
        for _ in 0..60 {
            awm.update(&SparseVector::one_hot(2, 1.0), 1);
        }
        assert!(awm.in_active_set(2), "feature 2 should displace 1");
        assert!(!awm.in_active_set(1));
        // Feature 1's sketched estimate should preserve its exact weight
        // at eviction time (its prior sketch mass was zero — it went
        // straight to the heap on first sight).
        let w1_sketched = awm.estimate(1);
        assert!(
            (w1_sketched - w1_exact).abs() < 0.15 * w1_exact.abs(),
            "sketched {w1_sketched} vs exact-at-eviction {w1_exact}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut awm = AwmSketch::new(AwmSketchConfig::new(8, 128).seed(6));
            for (x, y) in planted_stream(600) {
                awm.update(&x, y);
            }
            (0..30u32).map(|f| awm.estimate(f)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_of_split_stream_recovers_planted_features() {
        let cfg = AwmSketchConfig::new(16, 256).lambda(1e-5).seed(1);
        let mut a = AwmSketch::new(cfg);
        let mut b = AwmSketch::new(cfg);
        for (i, (x, y)) in planted_stream(4000).enumerate() {
            if i % 2 == 0 {
                a.update(&x, y);
            } else {
                b.update(&x, y);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.examples_seen(), 4000);
        assert!(a.in_active_set(3), "feature 3 not re-promoted");
        assert!(a.in_active_set(9), "feature 9 not re-promoted");
        assert!(a.estimate(3) > 0.2, "w(3) = {}", a.estimate(3));
        assert!(a.estimate(9) < -0.2, "w(9) = {}", a.estimate(9));
        assert!(a.active_set_len() <= 16);
    }

    #[test]
    fn merge_preserves_disjoint_exact_weights() {
        // Two learners train on disjoint features with lossless
        // representations (every feature fits in its active set); the
        // merged model must carry each feature's weight through the
        // evict-all/re-promote cycle to within sketch-spill accuracy
        // (exact here: no other features collide in a wide sketch).
        let cfg = AwmSketchConfig::new(8, 2048).lambda(0.0).seed(4);
        let mut a = AwmSketch::new(cfg);
        let mut b = AwmSketch::new(cfg);
        for _ in 0..50 {
            a.update(&SparseVector::one_hot(1, 1.0), 1);
            b.update(&SparseVector::one_hot(2, 1.0), -1);
        }
        let (w1, w2) = (a.estimate(1), b.estimate(2));
        a.merge_from(&b);
        assert!(
            (a.estimate(1) - w1).abs() < 1e-12,
            "w1 {} vs {w1}",
            a.estimate(1)
        );
        assert!(
            (a.estimate(2) - w2).abs() < 1e-12,
            "w2 {} vs {w2}",
            a.estimate(2)
        );
        assert!(a.in_active_set(1) && a.in_active_set(2));
    }

    #[test]
    fn merge_shared_feature_sums_contributions() {
        // Both learners push feature 5 the same way on disjoint stream
        // halves; the merged weight is the sum of the two contributions.
        let cfg = AwmSketchConfig::new(4, 1024).lambda(0.0).seed(2);
        let mut a = AwmSketch::new(cfg);
        let mut b = AwmSketch::new(cfg);
        for _ in 0..30 {
            a.update(&SparseVector::one_hot(5, 1.0), 1);
            b.update(&SparseVector::one_hot(5, 1.0), 1);
        }
        let expected = a.estimate(5) + b.estimate(5);
        a.merge_from(&b);
        assert!(
            (a.estimate(5) - expected).abs() < 1e-9,
            "merged {} vs sum {expected}",
            a.estimate(5)
        );
    }

    #[test]
    fn merge_determinism() {
        let cfg = AwmSketchConfig::new(8, 128).lambda(1e-5).seed(6);
        let run = || {
            let mut a = AwmSketch::new(cfg);
            let mut b = AwmSketch::new(cfg);
            for (i, (x, y)) in planted_stream(1200).enumerate() {
                if i % 3 == 0 {
                    a.update(&x, y);
                } else {
                    b.update(&x, y);
                }
            }
            a.merge_from(&b);
            (0..600u32).map(|f| a.estimate(f)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_capacity_mismatch() {
        let mut a = AwmSketch::new(AwmSketchConfig::new(8, 64).seed(1));
        let b = AwmSketch::new(AwmSketchConfig::new(4, 64).seed(1));
        a.merge_from(&b);
    }

    #[test]
    fn snapshot_round_trip_preserves_full_state() {
        let cfg = AwmSketchConfig::new(16, 256).lambda(1e-5).seed(8);
        let mut awm = AwmSketch::new(cfg);
        for (x, y) in planted_stream(2000) {
            awm.update(&x, y);
        }
        let bytes = awm.to_snapshot_bytes();
        let mut back = AwmSketch::from_snapshot_bytes(&bytes).unwrap();
        assert!(back.merge_compatible(&awm));
        assert_eq!(back.examples_seen(), awm.examples_seen());
        assert_eq!(back.active_set_len(), awm.active_set_len());
        assert_eq!(back.to_snapshot_bytes(), bytes);
        for f in 0..700u32 {
            assert!(
                back.estimate(f).to_bits() == awm.estimate(f).to_bits(),
                "{f}"
            );
            assert_eq!(back.in_active_set(f), awm.in_active_set(f), "{f}");
        }
        // Continue training both: the decoded model evolves identically
        // (margins, estimates, and active-set membership).
        for (x, y) in planted_stream(800) {
            back.update(&x, y);
            awm.update(&x, y);
        }
        for f in 0..700u32 {
            assert!(
                back.estimate(f).to_bits() == awm.estimate(f).to_bits(),
                "{f}"
            );
            assert_eq!(back.in_active_set(f), awm.in_active_set(f), "{f}");
        }
    }

    #[test]
    fn snapshot_merges_like_the_original() {
        let cfg = AwmSketchConfig::new(8, 256).lambda(1e-5).seed(3);
        let mut a1 = AwmSketch::new(cfg);
        let mut a2 = AwmSketch::new(cfg);
        let mut b = AwmSketch::new(cfg);
        for (i, (x, y)) in planted_stream(1600).enumerate() {
            if i % 2 == 0 {
                a1.update(&x, y);
                a2.update(&x, y);
            } else {
                b.update(&x, y);
            }
        }
        let shipped = AwmSketch::from_snapshot_bytes(&b.to_snapshot_bytes()).unwrap();
        a1.merge_from(&b);
        a2.merge_from(&shipped);
        for f in 0..700u32 {
            assert!(a1.estimate(f).to_bits() == a2.estimate(f).to_bits(), "{f}");
        }
    }

    #[test]
    fn snapshot_rejects_truncation_without_panicking() {
        let mut awm = AwmSketch::new(AwmSketchConfig::new(4, 32).seed(1));
        for (x, y) in planted_stream(100) {
            awm.update(&x, y);
        }
        let bytes = awm.to_snapshot_bytes();
        for n in 0..bytes.len() {
            assert!(
                AwmSketch::from_snapshot_bytes(&bytes[..n]).is_err(),
                "prefix {n} decoded"
            );
        }
        // A WM snapshot is not an AWM snapshot: kinds are checked.
        use crate::wm::{WmSketch, WmSketchConfig};
        let wm = WmSketch::new(WmSketchConfig::new(32, 4).seed(1));
        assert!(matches!(
            AwmSketch::from_snapshot_bytes(&wm.to_snapshot_bytes()),
            Err(CodecError::WrongKind { .. })
        ));
    }

    #[test]
    fn budget_constructor_fits_and_uses_half_for_heap() {
        for budget in [2048usize, 4096, 8192, 16384, 32768] {
            let cfg = AwmSketchConfig::with_budget_bytes(budget);
            assert!(
                cfg.memory_bytes() <= budget,
                "budget {budget}: {} bytes",
                cfg.memory_bytes()
            );
            assert_eq!(cfg.depth, 1);
            // Paper Table 2: 8 KB → |S| = 512, width 1024.
            if budget == 8192 {
                assert_eq!(cfg.heap_capacity, 512);
                assert_eq!(cfg.width, 1024);
            }
        }
    }

    #[test]
    fn scale_fold_preserves_active_weights() {
        // Aggressive decay forces folds; logical estimates must stay finite
        // and consistent.
        let mut awm = AwmSketch::new(
            AwmSketchConfig::new(4, 64)
                .lambda(0.9)
                .learning_rate(LearningRate::Constant(0.9))
                .seed(7),
        );
        for t in 0..5000 {
            let f = (t % 3) as u32;
            awm.update(&SparseVector::one_hot(f, 1.0), if f == 0 { 1 } else { -1 });
        }
        for f in 0..3u32 {
            assert!(awm.estimate(f).is_finite());
        }
    }
}
