//! The object-safe learner facade: one model layer for every budgeted
//! classifier in the workspace.
//!
//! The paper's central claim is that the WM-/AWM-Sketch expose the *same*
//! interface as their baselines — update, predict, estimate, top-K — at
//! sub-linear space. [`DynLearner`] is that interface as a single
//! object-safe trait, so harness code, the serving layer's model
//! registry, and anything else that hosts "a learner, whichever kind"
//! can hold a `Box<dyn DynLearner>` instead of hand-matching an enum per
//! method. Related sketching work (Munteanu et al., *Oblivious sketching
//! for logistic regression*; Kallaugher & Price on turnstile/linear
//! equivalences) makes the same point structurally: the mergeable linear
//! sketch interface, not any one sketch, is the unit of system design.
//!
//! Capabilities that not every learner has are part of the contract
//! rather than separate traits, with explicit degraded forms:
//!
//! * **Snapshots.** [`DynLearner::snapshot`] moves whole models across
//!   process boundaries as `WMS1` buffers, which a host decodes and
//!   merges with [`DynLearner::absorb_peer`]. The exact-state baselines
//!   (truncation, Space-Saving, CM-FF, feature hashing) have no codec
//!   and return a typed [`CodecError`] — they are not linear, so there
//!   is nothing exact to ship-and-sum.
//! * **Top-K.** [`DynLearner::recover_top_k`] is native recovery;
//!   [`DynLearner::top_k_estimates`] falls back to scanning a feature
//!   domain for learners with anonymous state (feature hashing — exactly
//!   the interpretability gap the paper's WM-Sketch closes).
//! * **Labels.** [`DynLearner::label_domain`] says what a valid label
//!   is: `±1` for binary learners, `0..classes` for multiclass ones.
//!   Trust boundaries (the serve layer's UPDATE decode) validate against
//!   it before the example can reach the model.

use wmsketch_hashing::codec::CodecError;
use wmsketch_hh::WeightEntry;

use crate::metrics::top_k_by_estimate;
use crate::traits::{Label, OnlineLearner, WeightEstimator};
use crate::vector::SparseVector;
use crate::FeatureHashingClassifier;

/// The set of labels a learner accepts in [`DynLearner::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelDomain {
    /// Binary classification: labels are `+1` or `-1`.
    Binary,
    /// Multiclass: labels are class indices `0..classes` (stored in the
    /// same `i8` wire slot as binary labels, which caps wire-addressable
    /// models at 128 classes).
    Classes(u32),
}

impl LabelDomain {
    /// Whether `y` is a valid label in this domain.
    #[must_use]
    pub fn contains(self, y: Label) -> bool {
        match self {
            LabelDomain::Binary => y == 1 || y == -1,
            LabelDomain::Classes(m) => y >= 0 && u32::from(y.unsigned_abs()) < m,
        }
    }
}

/// An object-safe facade over every budgeted learner in the workspace
/// (see the module docs for the design).
///
/// Object safety is the point: `Box<dyn DynLearner>` is the one model
/// layer shared by the experiment harness (`AnyLearner`), the serving
/// registry, and the snapshot dispatcher — replacing three hand-rolled
/// polymorphism layers that each re-encoded this method list.
pub trait DynLearner: Send {
    /// The `WMS1` kind tag identifying this learner's concrete type —
    /// equal to its `SnapshotCodec::KIND` when it has a codec, or one of
    /// the reserved `wmsketch_hashing::codec::KIND_*` tags otherwise.
    fn kind(&self) -> u8;

    /// Display name, matching the paper's figure legends (`"WM"`,
    /// `"AWM"`, `"Trun"`, …).
    fn method_name(&self) -> String;

    /// The labels [`DynLearner::update`] accepts. Callers on trust
    /// boundaries must validate before updating: out-of-domain labels
    /// may panic, as the concrete learners' debug assertions do.
    fn label_domain(&self) -> LabelDomain {
        LabelDomain::Binary
    }

    /// Observes one labelled example (a class index for multiclass
    /// learners — see [`DynLearner::label_domain`]).
    fn update(&mut self, x: &SparseVector, y: Label);

    /// Observes a batch of labelled examples in order.
    fn update_batch(&mut self, batch: &[(SparseVector, Label)]) {
        for (x, y) in batch {
            self.update(x, *y);
        }
    }

    /// The model's decision margin for `x` (multiclass: the maximum
    /// per-class margin, the value [`DynLearner::predict`] maximizes).
    fn margin(&self, x: &SparseVector) -> f64;

    /// Predicted label: `sign(wᵀx)` with ties to `+1` for binary
    /// learners, the argmax class index for multiclass ones.
    fn predict(&self, x: &SparseVector) -> Label {
        if self.margin(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// `(margin(x), predict(x))`, bit for bit, scoring `x` once. The
    /// default is the binary rule: the label is the margin's sign.
    /// Multiclass learners override it.
    fn margin_and_label(&self, x: &SparseVector) -> (f64, Label) {
        let margin = self.margin(x);
        (margin, if margin >= 0.0 { 1 } else { -1 })
    }

    /// Point estimate of one feature's weight (the paper's Definition 3
    /// interface).
    fn estimate(&self, feature: u32) -> f64;

    /// The model clock: examples this instance observed plus the clocks
    /// of peer models merged into it (a merge adds the peer's count).
    fn examples_seen(&self) -> u64;

    /// The top `k` features by estimated |weight| from the learner's
    /// native recovery state; empty for learners without one.
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry>;

    /// Top-`k` estimates for scoring: native recovery where it exists,
    /// otherwise a scan of the feature domain `0..dim` (the evaluation
    /// protocol of paper §7.2 for feature hashing).
    fn top_k_estimates(&self, k: usize, dim: u32) -> Vec<WeightEntry> {
        let _ = dim;
        self.recover_top_k(k)
    }

    /// Memory cost in bytes under the paper's §7.1 model.
    fn memory_bytes(&self) -> usize;

    /// Best-effort estimate of the bytes this instance actually holds
    /// resident — allocated buffers at capacity, hash-function tables,
    /// retained scratch — as opposed to [`DynLearner::memory_bytes`]'s
    /// config-derived §7.1 figure. This is what a memory governor should
    /// charge for keeping the model hot. State shared between instances
    /// (the sketch learners' hash tables, one copy per seed and depth in
    /// a process) is counted in full by each holder, so a sum over
    /// models is an upper bound, and spilling a model to disk and
    /// reviving it from its snapshot reclaims (and later re-pays) at most
    /// this amount. Defaults to the §7.1 figure for learners without
    /// instance-owned state worth separating.
    fn resident_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Serializes the model as a complete `WMS1` snapshot.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for learner kinds without a snapshot
    /// codec.
    fn snapshot(&self) -> Result<Vec<u8>, CodecError>;

    /// Reinstates `bytes` as this learner's *own* checkpointed state —
    /// the durability counterpart of [`DynLearner::absorb_peer`].
    ///
    /// Absorb has peer-merge semantics: the foreign clock adds to this
    /// model's clock, and the merge folds the peer's scale into logical
    /// weights, which changes the stored float representation. Restore
    /// instead *replaces* state where the snapshot captures it
    /// completely (the plain sketch learners), bit for bit —
    /// pre-scale cells, the scale factor, the update clock, the top-K
    /// heap — so training resumed on a restored learner follows the
    /// exact trajectory the checkpoint interrupted, and the clock is the
    /// checkpoint's, not a sum.
    ///
    /// # Errors
    /// Decode failures, a wrong kind, or a shape-incompatible snapshot;
    /// [`CodecError::Invalid`] for kinds without a snapshot codec (the
    /// default).
    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let _ = bytes;
        Err(NO_SNAPSHOT_CODEC)
    }

    /// Encodes the model state changed since clock `since` as a `WMS1`
    /// **delta record** for replication — or a full snapshot when a sparse
    /// delta cannot be produced (first call, decoded model, clock-less
    /// mutation, future watermark). Callers distinguish the two shapes
    /// with `codec::is_delta_record`. `&mut self` because the first call
    /// switches on dirty-cell tracking.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for learner kinds without a snapshot codec.
    fn encode_delta_since(&mut self, since: u64) -> Result<Vec<u8>, CodecError> {
        let _ = since;
        Err(NO_SNAPSHOT_CODEC)
    }

    /// Applies a delta record from [`DynLearner::encode_delta_since`],
    /// making this replica bit-identical to the origin at the delta's
    /// `to_clock`; returns that clock.
    ///
    /// # Errors
    /// [`CodecError::DeltaGap`] when the record's `from_clock` does not
    /// equal this model's clock (the model is unchanged; re-pull with the
    /// right watermark); any other [`CodecError`] for malformed records
    /// (state then unspecified — discard the replica);
    /// [`CodecError::Invalid`] for kinds without a snapshot codec.
    fn apply_delta(&mut self, bytes: &[u8]) -> Result<u64, CodecError> {
        let _ = bytes;
        Err(NO_SNAPSHOT_CODEC)
    }

    /// The concrete value, for peer downcasting in
    /// [`DynLearner::absorb_peer`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// Merges an *already decoded* peer (exact by sketch linearity) —
    /// the one merge entry point. Peer bytes are decoded first (e.g. via
    /// `decode_any_learner`), so a host holding this learner behind a
    /// mutex runs that expensive, validation-heavy step *outside* the
    /// critical section and only takes the lock for the cheap merge.
    /// Unlike `MergeableLearner::merge_from`, incompatibility is an
    /// error, not a panic: the peer comes from outside the process.
    ///
    /// # Errors
    /// [`CodecError::WrongKind`] when `peer` is another concrete type;
    /// [`CodecError::Invalid`] when it is not merge-compatible or this
    /// kind cannot merge at all.
    fn absorb_peer(&mut self, peer: &dyn DynLearner) -> Result<(), CodecError>;
}

/// The error every codec-less learner kind returns from
/// [`DynLearner::snapshot`] / [`DynLearner::restore_snapshot`] /
/// [`DynLearner::absorb_peer`].
pub const NO_SNAPSHOT_CODEC: CodecError =
    CodecError::Invalid("this learner kind has no snapshot codec");

impl DynLearner for FeatureHashingClassifier {
    fn kind(&self) -> u8 {
        wmsketch_hashing::codec::KIND_FEATURE_HASHING
    }

    fn method_name(&self) -> String {
        "Hash".to_string()
    }

    fn update(&mut self, x: &SparseVector, y: Label) {
        OnlineLearner::update(self, x, y);
    }

    fn margin(&self, x: &SparseVector) -> f64 {
        OnlineLearner::margin(self, x)
    }

    fn predict(&self, x: &SparseVector) -> Label {
        OnlineLearner::predict(self, x)
    }

    fn estimate(&self, feature: u32) -> f64 {
        WeightEstimator::estimate(self, feature)
    }

    fn examples_seen(&self) -> u64 {
        OnlineLearner::examples_seen(self)
    }

    /// Feature hashing tracks no identifiers — its table is anonymous.
    fn recover_top_k(&self, _k: usize) -> Vec<WeightEntry> {
        Vec::new()
    }

    /// The §7.2 evaluation protocol: scan the feature domain and keep
    /// the heaviest estimates.
    fn top_k_estimates(&self, k: usize, dim: u32) -> Vec<WeightEntry> {
        top_k_by_estimate(self, 0..dim, k)
    }

    fn memory_bytes(&self) -> usize {
        FeatureHashingClassifier::memory_bytes(self)
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        Err(NO_SNAPSHOT_CODEC)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn absorb_peer(&mut self, _peer: &dyn DynLearner) -> Result<(), CodecError> {
        Err(NO_SNAPSHOT_CODEC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureHashingConfig;

    #[test]
    fn label_domain_membership() {
        assert!(LabelDomain::Binary.contains(1));
        assert!(LabelDomain::Binary.contains(-1));
        assert!(!LabelDomain::Binary.contains(0));
        assert!(!LabelDomain::Binary.contains(3));
        let mc = LabelDomain::Classes(3);
        assert!(mc.contains(0) && mc.contains(2));
        assert!(!mc.contains(3));
        assert!(!mc.contains(-1));
    }

    #[test]
    fn feature_hashing_behind_the_facade() {
        let mut l: Box<dyn DynLearner> = Box::new(FeatureHashingClassifier::new(
            FeatureHashingConfig::new(1024).lambda(1e-4).seed(1),
        ));
        for t in 0..400 {
            if t % 2 == 0 {
                l.update(&SparseVector::one_hot(10, 1.0), 1);
            } else {
                l.update(&SparseVector::one_hot(20, 1.0), -1);
            }
        }
        assert_eq!(l.kind(), wmsketch_hashing::codec::KIND_FEATURE_HASHING);
        assert_eq!(l.method_name(), "Hash");
        assert_eq!(l.label_domain(), LabelDomain::Binary);
        assert_eq!(l.examples_seen(), 400);
        assert!(l.estimate(10) > 0.0 && l.estimate(20) < 0.0);
        assert_eq!(l.predict(&SparseVector::one_hot(10, 1.0)), 1);
        // No native recovery, but the domain scan finds the signal.
        assert!(l.recover_top_k(4).is_empty());
        let top: Vec<u32> = l.top_k_estimates(2, 64).iter().map(|e| e.feature).collect();
        assert!(top.contains(&10) && top.contains(&20), "top = {top:?}");
        // No snapshot codec: typed errors, not panics.
        assert!(l.snapshot().is_err());
        assert!(l.restore_snapshot(&[]).is_err());
        let peer = FeatureHashingClassifier::new(FeatureHashingConfig::new(1024).seed(1));
        assert!(l.absorb_peer(&peer).is_err());
    }
}
