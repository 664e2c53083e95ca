//! The interfaces shared by every budgeted classifier in the workspace.

use crate::vector::SparseVector;
use wmsketch_hh::WeightEntry;

/// A binary class label, `+1` or `-1` (the paper's `y_t ∈ {−1, +1}`).
pub type Label = i8;

/// Validates a label in debug builds (`+1` / `-1` only).
#[inline]
pub fn debug_check_label(y: Label) {
    debug_assert!(y == 1 || y == -1, "labels must be +1 or -1, got {y}");
}

/// An online binary linear classifier trained by streaming updates.
pub trait OnlineLearner {
    /// The model's margin `wᵀx` (positive ⇒ predict `+1`).
    fn margin(&self, x: &SparseVector) -> f64;

    /// Observes one labelled example and updates the model.
    fn update(&mut self, x: &SparseVector, y: Label);

    /// Observes a batch of labelled examples in order.
    ///
    /// Semantically identical to calling [`OnlineLearner::update`] once per
    /// example. The sketched learners need no override for batch
    /// amortization: their coordinate-plan and median-scratch buffers are
    /// instance-owned, so this loop reuses them across the whole slice
    /// (allocation-free in steady state). Implementors whose per-example
    /// setup is *not* instance-owned may override this.
    fn update_batch(&mut self, batch: &[(SparseVector, Label)]) {
        for (x, y) in batch {
            self.update(x, *y);
        }
    }

    /// Predicted label: `sign(wᵀx)`, with ties going to `+1` (matching the
    /// paper's `ŷ = sign(wᵀx)` convention for non-negative margins).
    fn predict(&self, x: &SparseVector) -> Label {
        if self.margin(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Number of updates applied so far.
    fn examples_seen(&self) -> u64;
}

/// Point estimation of individual model weights — the paper's
/// `(ε, p)`-approximate weight estimation interface (Definition 3).
pub trait WeightEstimator {
    /// An estimate `ŵ_i` of the optimal classifier's weight for `feature`.
    fn estimate(&self, feature: u32) -> f64;
}

/// A learner whose model state can be combined with another instance's —
/// the interface behind snapshot merge (the serve layer's MERGE op) and
/// replication.
///
/// The sketched learners implement this by Count-Sketch linearity: the
/// sketch of the sum of two gradient streams is the cell-wise sum of the
/// two sketches (the turnstile/linear-sketching equivalence of Kallaugher
/// & Price), so merging sketch state is exact. Auxiliary query-side state
/// (top-K heaps, active sets) is rebuilt from merged estimates rather than
/// merged directly.
pub trait MergeableLearner: OnlineLearner {
    /// Whether `other` was constructed with a merge-compatible
    /// configuration (same sketch shape, hash family, and seed).
    fn merge_compatible(&self, other: &Self) -> bool;

    /// Adds `other`'s model state into `self`.
    ///
    /// After the merge, `self` represents the *sum* of the two models (the
    /// natural composition for linear sketches of gradient streams) and
    /// `examples_seen` totals both streams.
    ///
    /// # Panics
    /// Implementations panic if the learners are not
    /// [`MergeableLearner::merge_compatible`].
    fn merge_from(&mut self, other: &Self);
}

/// Native retrieval of the most heavily-weighted features. Methods that
/// track identifiers (WM/AWM, truncation, frequent-features) implement
/// this; feature hashing does not (its table is anonymous), which is
/// exactly the interpretability gap the paper's WM-Sketch closes.
pub trait TopKRecovery {
    /// The top `k` features by estimated |weight|, sorted descending.
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub(f64);
    impl OnlineLearner for Stub {
        fn margin(&self, _x: &SparseVector) -> f64 {
            self.0
        }
        fn update(&mut self, _x: &SparseVector, _y: Label) {}
        fn examples_seen(&self) -> u64 {
            0
        }
    }

    #[test]
    fn predict_sign_convention() {
        let x = SparseVector::new();
        assert_eq!(Stub(0.5).predict(&x), 1);
        assert_eq!(Stub(0.0).predict(&x), 1); // ties → +1
        assert_eq!(Stub(-0.5).predict(&x), -1);
    }
}
