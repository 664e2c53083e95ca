//! Multiclass extension (paper §9): one AWM-Sketch per class, prediction
//! by maximum margin, one-vs-rest training.
//!
//! > "Given M output classes, maintain M copies of the WM-Sketch. In order
//! > to predict the output, we evaluate the output on each copy and return
//! > the maximum."
//!
//! For large `M` the paper notes the one-vs-rest update cost (`O(M)` per
//! example) is prohibitive and prescribes **noise contrastive
//! estimation** — "a standard reduction to binary classification" — which
//! [`MulticlassAwmSketch::update_nce`] implements: the true class's sketch
//! sees a positive update and only `k` *sampled* noise classes see
//! negative updates, making the per-example cost `O(k)` independent of
//! `M`.
//!
//! The multiclass model is a first-class citizen of the workspace's
//! learner interface: it implements [`OnlineLearner`] (labels are class
//! indices — see [`wmsketch_learn::LabelDomain::Classes`]),
//! [`MergeableLearner`] (per-class merges, exact by sketch linearity),
//! and `SnapshotCodec` (kind
//! [`wmsketch_hashing::codec::KIND_MULTICLASS_AWM`]), so snapshot
//! ship-and-merge, replication and the serving registry all work for it
//! exactly as they do for the binary sketches.

use crate::awm::{AwmSketch, AwmSketchConfig};
use wmsketch_hashing::codec::{
    self, CodecError, Reader, SnapshotCodec, Writer, KIND_MULTICLASS_AWM,
};
use wmsketch_hashing::{fast_range, SplitMix64};
use wmsketch_learn::{
    Label, MergeableLearner, OnlineLearner, SparseVector, TopKRecovery, WeightEntry,
    WeightEstimator,
};

/// Section tag for one class's embedded AWM snapshot.
const SECTION_CLASS: u8 = 0x05;

/// Largest class count a snapshot may declare. Decoding allocates one
/// AWM-Sketch per class, so an unbounded decoded count would let a
/// crafted snapshot demand absurd work before per-class validation runs;
/// real multiclass models use single digits to low thousands of classes.
pub const MAX_MULTICLASS_CLASSES: usize = 4096;

/// Configuration for [`MulticlassAwmSketch`].
#[derive(Debug, Clone, Copy)]
pub struct MulticlassConfig {
    /// Number of classes `M`.
    pub classes: usize,
    /// Per-class sketch configuration (seeds are offset per class).
    pub per_class: AwmSketchConfig,
}

/// One-vs-rest multiclass classifier over `M` AWM-Sketches.
#[derive(Clone)]
pub struct MulticlassAwmSketch {
    sketches: Vec<AwmSketch>,
    /// RNG stream for NCE noise-class sampling.
    nce_rng: SplitMix64,
    /// Examples observed (one per [`MulticlassAwmSketch::update_class`] /
    /// [`MulticlassAwmSketch::update_nce`] call, plus merged peers).
    t: u64,
}

impl std::fmt::Debug for MulticlassAwmSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticlassAwmSketch")
            .field("classes", &self.sketches.len())
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

impl MulticlassAwmSketch {
    /// Creates `M` independent per-class sketches.
    ///
    /// # Panics
    /// Panics if `classes < 2`.
    #[must_use]
    pub fn new(cfg: MulticlassConfig) -> Self {
        assert!(cfg.classes >= 2, "multiclass needs at least 2 classes");
        let sketches = (0..cfg.classes)
            .map(|c| {
                let mut per = cfg.per_class;
                per.seed = cfg.per_class.seed.wrapping_add(c as u64);
                AwmSketch::new(per)
            })
            .collect();
        Self::from_parts(sketches, SplitMix64::new(cfg.per_class.seed ^ 0x4E_CE), 0)
    }

    /// Assembles a model from already-built per-class state — shared by
    /// [`MulticlassAwmSketch::new`] and the snapshot decoder.
    fn from_parts(sketches: Vec<AwmSketch>, nce_rng: SplitMix64, t: u64) -> Self {
        Self {
            sketches,
            nce_rng,
            t,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.sketches.len()
    }

    /// Per-class margins for `x`.
    #[must_use]
    pub fn margins(&self, x: &SparseVector) -> Vec<f64> {
        self.sketches.iter().map(|s| s.margin(x)).collect()
    }

    /// The predicted class: argmax of the per-class margins. NaN margins
    /// (possible once weights overflow to opposite infinities) are ranked
    /// by IEEE total order rather than panicking — a serving node must
    /// answer queries on a saturated model, not poison its mutex.
    #[must_use]
    pub fn predict_class(&self, x: &SparseVector) -> usize {
        self.best_class(x).0
    }

    /// The predicted class and its margin — the model's margin — from one
    /// pass over the per-class sketches.
    #[must_use]
    pub(crate) fn best_class(&self, x: &SparseVector) -> (usize, f64) {
        self.sketches
            .iter()
            .map(|s| s.margin(x))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least 2 classes")
    }

    /// One-vs-rest update: the true class's sketch sees `(x, +1)`, every
    /// other sketch sees `(x, −1)`.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub fn update_class(&mut self, x: &SparseVector, class: usize) {
        assert!(class < self.sketches.len(), "class {class} out of range");
        self.t += 1;
        let t = self.t;
        for (c, sketch) in self.sketches.iter_mut().enumerate() {
            // Delta stamps across classes share the *model* clock, so one
            // shipped watermark selects every class's dirty cells.
            sketch.delta_epoch(t);
            sketch.update(x, if c == class { 1 } else { -1 });
        }
    }

    /// NCE-style update (paper §9, for large `M`): the true class's sketch
    /// sees `(x, +1)` and `noise_samples` uniformly-sampled *other*
    /// classes see `(x, −1)` — `O(noise_samples)` instead of `O(M)` work.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub fn update_nce(&mut self, x: &SparseVector, class: usize, noise_samples: usize) {
        let m = self.sketches.len();
        assert!(class < m, "class {class} out of range");
        self.t += 1;
        let t = self.t;
        self.sketches[class].delta_epoch(t);
        self.sketches[class].update(x, 1);
        for _ in 0..noise_samples {
            // Rejection-free sample over the other M−1 classes.
            let r = fast_range(self.nce_rng.next_u64(), (m - 1) as u64) as usize;
            let noise = if r >= class { r + 1 } else { r };
            self.sketches[noise].delta_epoch(t);
            self.sketches[noise].update(x, -1);
        }
    }

    /// The estimated weight of `feature` in `class`'s model.
    #[must_use]
    pub fn class_estimate(&self, class: usize, feature: u32) -> f64 {
        self.sketches[class].estimate(feature)
    }

    /// Top-K features for one class.
    #[must_use]
    pub fn class_top_k(&self, class: usize, k: usize) -> Vec<WeightEntry> {
        self.sketches[class].recover_top_k(k)
    }

    /// Total memory cost in bytes (M independent sketches).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.sketches.iter().map(AwmSketch::memory_bytes).sum()
    }

    /// Estimated resident bytes: every per-class sketch's actual
    /// footprint ([`AwmSketch::resident_bytes`]) plus the class vector.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sketches.capacity() * std::mem::size_of::<AwmSketch>()
            + self
                .sketches
                .iter()
                .map(|s| AwmSketch::resident_bytes(s) - std::mem::size_of::<AwmSketch>())
                .sum::<usize>()
    }

    /// Encodes a **delta record**: per-class state changed since *model*
    /// clock `since` (class dirty stamps all use the model clock, so one
    /// watermark covers every class even under NCE's partial updates).
    ///
    /// Layout (after the `WMS1` envelope with
    /// [`wmsketch_hashing::codec::FLAG_DELTA`], kind
    /// [`KIND_MULTICLASS_AWM`]):
    ///
    /// ```text
    /// section 0x20 HEAD:  from_clock (u64) | to_clock (u64)
    /// section 0x22 STATE: classes (u32) | t (u64) | nce_rng state (u64)
    /// classes × section 0x24 CLASS: one embedded AWM delta body
    ///                               (CELLS | STATE | TOPK), class-ascending
    /// ```
    ///
    /// Falls back to a **full snapshot** (switching tracking on) under the
    /// same rules as [`crate::WmSketch::encode_delta_since`].
    #[must_use]
    pub fn encode_delta_since(&mut self, since: u64) -> Vec<u8> {
        let t = self.t;
        let can = since <= t
            && self
                .sketches
                .iter()
                .all(|s| s.can_delta_with_clock(since, t));
        if !can {
            for sketch in &mut self.sketches {
                sketch.begin_tracking_at(t);
            }
            return self.to_snapshot_bytes();
        }
        let mut w = Writer::new();
        w.put_delta_envelope(KIND_MULTICLASS_AWM);
        let mark = w.begin_section(codec::DELTA_SECTION_HEAD);
        w.put_u64(since);
        w.put_u64(t);
        w.end_section(mark);
        let mark = w.begin_section(codec::DELTA_SECTION_STATE);
        w.put_u32(self.sketches.len() as u32);
        w.put_u64(t);
        w.put_u64(self.nce_rng.state());
        w.end_section(mark);
        for sketch in &self.sketches {
            let mark = w.begin_section(codec::DELTA_SECTION_CLASS);
            sketch.encode_delta_body(since, &mut w);
            w.end_section(mark);
        }
        let mut bytes = w.into_bytes();
        codec::seal_record(&mut bytes);
        bytes
    }

    /// Applies a delta record produced by
    /// [`MulticlassAwmSketch::encode_delta_since`] and returns the new
    /// model clock. Error contract as [`crate::WmSketch::apply_delta`]:
    /// [`CodecError::DeltaGap`] (model unchanged) when `from_clock` does
    /// not equal this model's clock; on other mid-apply errors the state
    /// is unspecified and must be discarded.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<u64, CodecError> {
        let bytes = codec::verify_integrity(bytes)?;
        let mut r = Reader::new(bytes);
        r.expect_delta_envelope(KIND_MULTICLASS_AWM)?;
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
        let mut s = r.expect_section(codec::DELTA_SECTION_STATE)?;
        let classes = s.take_u32()? as usize;
        let t = s.take_u64()?;
        let rng_state = s.take_u64()?;
        s.finish()?;
        if classes != self.sketches.len() {
            return Err(CodecError::Invalid("delta class count mismatch"));
        }
        if t != to {
            return Err(CodecError::Invalid(
                "delta state clock disagrees with its interval",
            ));
        }
        for sketch in &mut self.sketches {
            let mut c = r.expect_section(codec::DELTA_SECTION_CLASS)?;
            sketch.apply_delta_body(&mut c)?;
            c.finish()?;
        }
        r.finish()?;
        self.t = t;
        self.nce_rng = SplitMix64::new(rng_state);
        Ok(self.t)
    }
}

/// A class index in the `Label` slot; panics past 127 (see
/// `OnlineLearner::predict` below).
pub(crate) fn class_label(class: usize) -> Label {
    assert!(
        class <= i8::MAX as usize,
        "class {class} does not fit the i8 Label slot; use predict_class for >128-class models"
    );
    class as Label
}

impl OnlineLearner for MulticlassAwmSketch {
    /// The maximum per-class margin — the value
    /// [`MulticlassAwmSketch::predict_class`] maximizes (NaN-tolerant by
    /// IEEE total order, like `predict_class`).
    fn margin(&self, x: &SparseVector) -> f64 {
        self.best_class(x).1
    }

    /// One-vs-rest update with the label interpreted as a **class
    /// index** in `0..classes` (the multiclass reading of the shared
    /// `Label` slot; see `LabelDomain::Classes`).
    ///
    /// # Panics
    /// Panics if `y` is negative or out of class range.
    fn update(&mut self, x: &SparseVector, y: Label) {
        assert!(y >= 0, "multiclass label must be a class index, got {y}");
        self.update_class(x, y as usize);
    }

    /// The argmax class index, returned in the `Label` slot.
    ///
    /// # Panics
    /// Panics if the winning class index exceeds 127 (it cannot fit the
    /// `i8` label slot): a silently truncated — possibly negative — class
    /// label would be worse than the panic. Models with more classes
    /// remain fully usable through [`MulticlassAwmSketch::predict_class`];
    /// wire-facing callers cap the class count at creation instead (see
    /// the serve crate's registry).
    fn predict(&self, x: &SparseVector) -> Label {
        class_label(self.predict_class(x))
    }

    fn examples_seen(&self) -> u64 {
        self.t
    }
}

impl WeightEstimator for MulticlassAwmSketch {
    /// The single most decisive per-class weight for `feature`: the
    /// signed estimate of largest magnitude across the `M` one-vs-rest
    /// models (ties break toward the lowest class, so the value is
    /// deterministic).
    fn estimate(&self, feature: u32) -> f64 {
        self.sketches
            .iter()
            .map(|s| s.estimate(feature))
            .fold(
                0.0f64,
                |best, w| if w.abs() > best.abs() { w } else { best },
            )
    }
}

impl TopKRecovery for MulticlassAwmSketch {
    /// The union of the per-class active sets, deduplicated per feature
    /// by keeping its most decisive (max-|weight|) class estimate, ranked
    /// `(|weight| desc, feature asc)`.
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        let mut best: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for sketch in &self.sketches {
            for e in sketch.recover_top_k(k) {
                let slot = best.entry(e.feature).or_insert(0.0);
                if e.weight.abs() > slot.abs() {
                    *slot = e.weight;
                }
            }
        }
        let mut entries: Vec<WeightEntry> = best
            .into_iter()
            .map(|(feature, weight)| WeightEntry { feature, weight })
            .collect();
        entries.sort_by(|a, b| {
            // total_cmp: a NaN weight (conceivable after ±inf overflow in
            // a saturated model) must rank deterministically, not panic
            // under a serving node's model lock.
            b.weight
                .abs()
                .total_cmp(&a.weight.abs())
                .then(a.feature.cmp(&b.feature))
        });
        entries.truncate(k);
        entries
    }
}

impl MergeableLearner for MulticlassAwmSketch {
    /// Merge compatibility requires the same class count and pairwise
    /// merge-compatible per-class sketches (same shapes, families, and
    /// per-class seed offsets).
    fn merge_compatible(&self, other: &Self) -> bool {
        self.sketches.len() == other.sketches.len()
            && self
                .sketches
                .iter()
                .zip(&other.sketches)
                .all(|(a, b)| a.merge_compatible(b))
    }

    /// Merges class by class (each an exact AWM evict-all/merge/re-promote
    /// — see [`AwmSketch`]'s `merge_from`). The receiver keeps its own NCE
    /// sampling stream: the noise-class RNG is per-instance training
    /// state, not model state.
    ///
    /// # Panics
    /// Panics if the models are not merge-compatible.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "merging incompatible multiclass models ({} vs {} classes)",
            self.sketches.len(),
            other.sketches.len()
        );
        let t_new = self.t + other.t;
        for (mine, theirs) in self.sketches.iter_mut().zip(&other.sketches) {
            // Class merges stamp at the post-merge *model* clock.
            mine.delta_epoch(t_new);
            mine.merge_from(theirs);
        }
        self.t = t_new;
    }
}

/// Snapshot layout (after the `WMS1` envelope, kind
/// [`KIND_MULTICLASS_AWM`]):
///
/// ```text
/// section 0x01 CONFIG: classes (u32) | t (u64) | nce_rng state (u64)
/// classes × section 0x05 CLASS: one complete AWM-Sketch snapshot
///                               (envelope included), class-ascending
/// ```
///
/// Embedding each class as a *complete* kind-`04` snapshot reuses the AWM
/// decoder's full validation (bounded capacities, finite cells, exact
/// active-set layout) per class, and captures the NCE RNG position so a
/// restored model's noise sampling continues the identical stream.
impl SnapshotCodec for MulticlassAwmSketch {
    const KIND: u8 = KIND_MULTICLASS_AWM;

    fn encode_body(&self, w: &mut Writer) {
        let mark = w.begin_section(crate::wm::SECTION_CONFIG);
        w.put_u32(self.sketches.len() as u32);
        w.put_u64(self.t);
        w.put_u64(self.nce_rng.state());
        w.end_section(mark);
        for sketch in &self.sketches {
            let mark = w.begin_section(SECTION_CLASS);
            w.put_bytes(&sketch.to_snapshot_bytes());
            w.end_section(mark);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut s = r.expect_section(crate::wm::SECTION_CONFIG)?;
        let classes = s.take_u32()? as usize;
        let t = s.take_u64()?;
        let rng_state = s.take_u64()?;
        s.finish()?;
        if classes < 2 {
            return Err(CodecError::Invalid("multiclass needs at least 2 classes"));
        }
        if classes > MAX_MULTICLASS_CLASSES {
            return Err(CodecError::Invalid("class count is implausibly large"));
        }
        let mut sketches = Vec::with_capacity(classes.min(r.remaining() / 5));
        for _ in 0..classes {
            let mut c = r.expect_section(SECTION_CLASS)?;
            let sketch = AwmSketch::from_snapshot_bytes(c.take_bytes(c.remaining())?)?;
            sketches.push(sketch);
        }
        Ok(Self::from_parts(sketches, SplitMix64::new(rng_state), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MulticlassConfig {
        MulticlassConfig {
            classes: 3,
            per_class: AwmSketchConfig::new(16, 128).lambda(1e-5).seed(7),
        }
    }

    fn class_stream(n: usize) -> impl Iterator<Item = (SparseVector, usize)> {
        // Class c is signalled by feature 10+c plus shared noise.
        (0..n).map(|t| {
            let c = t % 3;
            let noise = 100 + (t * 11 % 200) as u32;
            (
                SparseVector::from_pairs(&[(10 + c as u32, 1.0), (noise, 0.5)]),
                c,
            )
        })
    }

    #[test]
    fn learns_three_classes() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(3000) {
            mc.update_class(&x, c);
        }
        for c in 0..3usize {
            let x = SparseVector::one_hot(10 + c as u32, 1.0);
            assert_eq!(mc.predict_class(&x), c, "class {c} misclassified");
        }
        assert_eq!(mc.examples_seen(), 3000);
    }

    #[test]
    fn per_class_recovery_finds_indicator_features() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(3000) {
            mc.update_class(&x, c);
        }
        for c in 0..3usize {
            // One-vs-rest models weight the *other* classes' indicators
            // strongly negative, so look for the most positive weight:
            // it must be this class's own indicator feature.
            let top = mc.class_top_k(c, 16);
            let best_positive = top
                .iter()
                .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())
                .expect("nonempty top-k");
            assert_eq!(
                best_positive.feature,
                10 + c as u32,
                "class {c} top = {top:?}"
            );
            assert!(best_positive.weight > 0.0);
        }
    }

    #[test]
    fn single_update_round_trip_moves_prediction() {
        // Round-trip: a fresh model is indifferent; one one-vs-rest update
        // for class 1 must raise class 1's margin above the others and
        // flip the prediction for that input.
        let mut mc = MulticlassAwmSketch::new(cfg());
        let x = SparseVector::one_hot(42, 1.0);
        let before = mc.margins(&x);
        assert!(
            before.iter().all(|&m| m == 0.0),
            "untrained margins {before:?}"
        );
        mc.update_class(&x, 1);
        let after = mc.margins(&x);
        assert_eq!(after.len(), 3);
        assert!(
            after[1] > after[0] && after[1] > after[2],
            "margins {after:?}"
        );
        assert_eq!(mc.predict_class(&x), 1);
        // The one-vs-rest update pushed every *other* class negative.
        assert!(after[0] < 0.0 && after[2] < 0.0, "margins {after:?}");
    }

    #[test]
    fn predict_is_argmax_of_margins() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(1500) {
            mc.update_class(&x, c);
        }
        for t in 0..50usize {
            let x = SparseVector::from_pairs(&[(10 + (t % 3) as u32, 1.0), (200, 0.3)]);
            let margins = mc.margins(&x);
            let argmax = margins
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(c, _)| c)
                .unwrap();
            assert_eq!(mc.predict_class(&x), argmax);
        }
    }

    #[test]
    fn estimate_round_trips_through_per_class_recovery() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(2000) {
            mc.update_class(&x, c);
        }
        for c in 0..3usize {
            for e in mc.class_top_k(c, 8) {
                let est = mc.class_estimate(c, e.feature);
                assert!(
                    (est - e.weight).abs() < 1e-12,
                    "class {c} feature {}: recovered {} vs estimate {est}",
                    e.feature,
                    e.weight
                );
            }
        }
    }

    #[test]
    fn nce_zero_noise_touches_only_the_true_class() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for _ in 0..100 {
            mc.update_nce(&SparseVector::one_hot(7, 1.0), 0, 0);
        }
        assert!(mc.class_estimate(0, 7) > 0.0);
        assert_eq!(mc.class_estimate(1, 7), 0.0);
        assert_eq!(mc.class_estimate(2, 7), 0.0);
        assert_eq!(mc.examples_seen(), 100);
    }

    #[test]
    fn per_class_sketches_use_distinct_seeds() {
        // Distinct per-class seeds keep collision noise independent across
        // the M models: feed classes 0 and 1 *identical* positive streams
        // into a tiny depth-1 sketch (past the active set, so estimates
        // come from hashed cells) and probe untrained features. With
        // shared seeds the two sketches would be byte-identical and every
        // phantom estimate would replicate exactly; with offset seeds the
        // collision patterns must differ on some probe.
        let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 2,
            per_class: AwmSketchConfig::new(4, 16).lambda(1e-5).seed(7),
        });
        for t in 0..600usize {
            let x = SparseVector::one_hot((t % 24) as u32, 1.0);
            mc.update_nce(&x, 0, 0);
            mc.update_nce(&x, 1, 0);
        }
        let diverging = (100..150u32)
            .filter(|&f| mc.class_estimate(0, f).to_bits() != mc.class_estimate(1, f).to_bits())
            .count();
        assert!(
            diverging > 0,
            "identical training produced identical collision noise in every probe: \
             per-class sketches appear to share a seed"
        );
    }

    #[test]
    fn deterministic_given_seed_including_nce_sampling() {
        let run = || {
            let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
                classes: 6,
                per_class: AwmSketchConfig::new(8, 64).lambda(1e-5).seed(21),
            });
            for t in 0..1000usize {
                let c = t % 6;
                let x =
                    SparseVector::from_pairs(&[(10 + c as u32, 1.0), (90 + (t % 7) as u32, 0.5)]);
                mc.update_nce(&x, c, 2);
            }
            (0..6usize)
                .flat_map(|c| (0..30u32).map(move |f| (c, f)))
                .map(|(c, f)| mc.class_estimate(c, f).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budgeted_multiclass_fits_m_times_budget_at_paper_sizes() {
        for budget in [2048usize, 4096, 8192] {
            let mc = MulticlassAwmSketch::new(MulticlassConfig {
                classes: 5,
                per_class: AwmSketchConfig::with_budget_bytes(budget),
            });
            assert!(
                mc.memory_bytes() <= 5 * budget,
                "budget {budget}: {} bytes",
                mc.memory_bytes()
            );
        }
    }

    #[test]
    fn memory_scales_with_classes() {
        let mc = MulticlassAwmSketch::new(cfg());
        let single = AwmSketch::new(cfg().per_class).memory_bytes();
        assert_eq!(mc.memory_bytes(), 3 * single);
    }

    #[test]
    fn nce_training_learns_many_classes_cheaply() {
        // 10 classes, only 3 noise updates per example — cost O(4) not
        // O(10) — must still separate the classes.
        let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 10,
            per_class: AwmSketchConfig::new(16, 128).lambda(1e-5).seed(11),
        });
        for t in 0..8000usize {
            let c = t % 10;
            let noise = 100 + (t * 13 % 200) as u32;
            let x = SparseVector::from_pairs(&[(10 + c as u32, 1.0), (noise, 0.5)]);
            mc.update_nce(&x, c, 3);
        }
        let correct = (0..10usize)
            .filter(|&c| mc.predict_class(&SparseVector::one_hot(10 + c as u32, 1.0)) == c)
            .count();
        assert!(correct >= 9, "only {correct}/10 classes separated");
    }

    #[test]
    fn nce_never_updates_true_class_negatively() {
        // With 2 classes and k=1, the noise class is always "the other
        // one"; the true class's indicator weight must end positive in its
        // own model and negative in the other.
        let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 2,
            per_class: AwmSketchConfig::new(8, 64).lambda(1e-5).seed(3),
        });
        for _ in 0..300 {
            mc.update_nce(&SparseVector::one_hot(5, 1.0), 0, 1);
        }
        assert!(mc.class_estimate(0, 5) > 0.0);
        assert!(mc.class_estimate(1, 5) < 0.0);
    }

    #[test]
    fn online_learner_facade_takes_class_indices() {
        // Through the OnlineLearner interface, the label *is* the class
        // index and predict returns it back.
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(3000) {
            OnlineLearner::update(&mut mc, &x, c as Label);
        }
        for c in 0..3i8 {
            let x = SparseVector::one_hot(10 + c as u32, 1.0);
            assert_eq!(OnlineLearner::predict(&mc, &x), c);
            // The facade margin is the max per-class margin.
            let max = mc.margins(&x).into_iter().fold(f64::NEG_INFINITY, f64::max);
            assert!(OnlineLearner::margin(&mc, &x).to_bits() == max.to_bits());
        }
        assert_eq!(mc.examples_seen(), 3000);
    }

    #[test]
    fn estimate_and_top_k_pick_the_most_decisive_class() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(3000) {
            mc.update_class(&x, c);
        }
        // Each indicator feature's facade estimate is its largest-|w|
        // per-class estimate.
        for c in 0..3usize {
            let f = 10 + c as u32;
            let expected = (0..3)
                .map(|cc| mc.class_estimate(cc, f))
                .fold(
                    0.0f64,
                    |best, w| if w.abs() > best.abs() { w } else { best },
                );
            assert!(WeightEstimator::estimate(&mc, f).to_bits() == expected.to_bits());
        }
        // The unioned top-K surfaces all three indicators.
        let top: Vec<u32> = mc.recover_top_k(6).iter().map(|e| e.feature).collect();
        for c in 0..3u32 {
            assert!(top.contains(&(10 + c)), "top = {top:?}");
        }
    }

    #[test]
    fn split_stream_merge_recovers_all_classes() {
        let mut a = MulticlassAwmSketch::new(cfg());
        let mut b = MulticlassAwmSketch::new(cfg());
        for (i, (x, c)) in class_stream(4000).enumerate() {
            if i % 2 == 0 {
                a.update_class(&x, c);
            } else {
                b.update_class(&x, c);
            }
        }
        assert!(a.merge_compatible(&b));
        a.merge_from(&b);
        assert_eq!(a.examples_seen(), 4000);
        for c in 0..3usize {
            let x = SparseVector::one_hot(10 + c as u32, 1.0);
            assert_eq!(a.predict_class(&x), c, "class {c} lost in merge");
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_and_keeps_training_in_lockstep() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(1500) {
            mc.update_nce(&x, c, 1);
        }
        let bytes = mc.to_snapshot_bytes();
        let mut back = MulticlassAwmSketch::from_snapshot_bytes(&bytes).unwrap();
        assert!(back.merge_compatible(&mc));
        assert_eq!(back.classes(), 3);
        assert_eq!(back.examples_seen(), mc.examples_seen());
        assert_eq!(back.to_snapshot_bytes(), bytes);
        for c in 0..3usize {
            for f in 0..250u32 {
                assert!(
                    back.class_estimate(c, f).to_bits() == mc.class_estimate(c, f).to_bits(),
                    "class {c} feature {f}"
                );
            }
        }
        // Further *NCE* training stays in lockstep: the snapshot carries
        // the noise-sampling RNG position, not just the sketches.
        for (x, c) in class_stream(500) {
            back.update_nce(&x, c, 2);
            mc.update_nce(&x, c, 2);
        }
        for c in 0..3usize {
            for f in 0..250u32 {
                assert!(
                    back.class_estimate(c, f).to_bits() == mc.class_estimate(c, f).to_bits(),
                    "post-resume divergence at class {c} feature {f}"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_truncation_and_bad_class_counts() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        for (x, c) in class_stream(200) {
            mc.update_class(&x, c);
        }
        let bytes = mc.to_snapshot_bytes();
        for n in 0..bytes.len() {
            assert!(
                MulticlassAwmSketch::from_snapshot_bytes(&bytes[..n]).is_err(),
                "prefix {n} decoded"
            );
        }
        // Classes = 1 in the CONFIG section (offset: envelope 6 bytes +
        // section tag/len 5 bytes) must be rejected.
        let mut one_class = bytes.clone();
        one_class[11..15].copy_from_slice(&1u32.to_le_bytes());
        codec::reseal_record(&mut one_class);
        assert!(matches!(
            MulticlassAwmSketch::from_snapshot_bytes(&one_class),
            Err(CodecError::Invalid(_))
        ));
        let mut absurd = bytes;
        absurd[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        codec::reseal_record(&mut absurd);
        assert!(matches!(
            MulticlassAwmSketch::from_snapshot_bytes(&absurd),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn rejects_single_class() {
        let _ = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 1,
            per_class: AwmSketchConfig::new(4, 16),
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_class() {
        let mut mc = MulticlassAwmSketch::new(cfg());
        mc.update_class(&SparseVector::one_hot(1, 1.0), 5);
    }
}
