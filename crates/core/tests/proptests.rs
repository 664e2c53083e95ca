//! Property-based tests for the core sketched learners.

use proptest::prelude::*;
use wmsketch_core::{
    AwmSketch, AwmSketchConfig, LogisticRegression, LogisticRegressionConfig, OnlineLearner,
    SimpleTruncation, TopKRecovery, TruncationConfig, WeightEstimator, WmSketch, WmSketchConfig,
};
use wmsketch_learn::{LearningRate, SparseVector};

/// Strategy: a short stream of small sparse examples over 16 features.
fn stream_strategy() -> impl Strategy<Value = Vec<(Vec<(u32, f64)>, i8)>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..16, 0.1f64..1.0), 1..4),
            prop::sample::select(vec![1i8, -1]),
        ),
        1..120,
    )
}

proptest! {
    /// A very wide depth-1 WM-Sketch where the 16 active features happen to
    /// occupy distinct buckets is an exact reparameterization of dense OGD:
    /// estimates must match the dense model to floating-point accuracy.
    #[test]
    fn wm_equals_dense_ogd_when_collision_free(stream in stream_strategy(), seed in 0u64..32) {
        let width = 1 << 14;
        // Skip seeds that collide among the 16 features (rare at this width).
        let hashers = wmsketch_hashing::RowHashers::new(
            wmsketch_hashing::HashFamilyKind::Tabulation, 1, width, seed);
        let buckets: std::collections::HashSet<u32> =
            (0..16u64).map(|k| hashers.bucket_sign(0, k).bucket).collect();
        prop_assume!(buckets.len() == 16);

        let mut wm = WmSketch::new(
            WmSketchConfig::new(width, 1).lambda(1e-3).heap_capacity(0).seed(seed),
        );
        let mut lr = LogisticRegression::new(
            LogisticRegressionConfig::new(16).lambda(1e-3).track_top_k(0),
        );
        for (pairs, y) in &stream {
            let x = SparseVector::from_pairs(pairs);
            wm.update(&x, *y);
            lr.update(&x, *y);
        }
        for f in 0..16u32 {
            prop_assert!(
                (wm.estimate(f) - lr.weight(f)).abs() < 1e-9,
                "f{}: wm {} vs dense {}", f, wm.estimate(f), lr.weight(f)
            );
        }
    }

    /// The AWM-Sketch with heap capacity ≥ #features is exactly dense OGD
    /// on any stream (every weight lives in the active set).
    #[test]
    fn awm_equals_dense_ogd_with_big_heap(stream in stream_strategy(), seed in 0u64..8) {
        let mut awm = AwmSketch::new(
            AwmSketchConfig::new(16, 64).lambda(1e-3).seed(seed),
        );
        let mut lr = LogisticRegression::new(
            LogisticRegressionConfig::new(16).lambda(1e-3).track_top_k(0),
        );
        for (pairs, y) in &stream {
            let x = SparseVector::from_pairs(pairs);
            awm.update(&x, *y);
            lr.update(&x, *y);
        }
        for f in 0..16u32 {
            prop_assert!(
                (awm.estimate(f) - lr.weight(f)).abs() < 1e-9,
                "f{}: awm {} vs dense {}", f, awm.estimate(f), lr.weight(f)
            );
        }
    }

    /// Margins and estimates stay finite for any stream, under aggressive
    /// regularization that forces scale folds.
    #[test]
    fn numerics_stay_finite_under_aggressive_decay(stream in stream_strategy()) {
        let mut awm = AwmSketch::new(
            AwmSketchConfig::new(4, 32)
                .lambda(0.5)
                .learning_rate(LearningRate::Constant(0.9)),
        );
        for (pairs, y) in &stream {
            let x = SparseVector::from_pairs(pairs);
            awm.update(&x, *y);
            prop_assert!(awm.margin(&x).is_finite());
        }
        for f in 0..16u32 {
            prop_assert!(awm.estimate(f).is_finite());
        }
    }

    /// Simple truncation never reports more entries than its capacity, and
    /// every reported feature has a nonzero estimate consistent with
    /// `estimate()`.
    #[test]
    fn truncation_reports_consistent_entries(stream in stream_strategy(), cap in 1usize..8) {
        let mut trun = SimpleTruncation::new(TruncationConfig::new(cap));
        for (pairs, y) in &stream {
            trun.update(&SparseVector::from_pairs(pairs), *y);
        }
        let top = trun.recover_top_k(64);
        prop_assert!(top.len() <= cap);
        for e in &top {
            prop_assert!((trun.estimate(e.feature) - e.weight).abs() < 1e-12);
        }
    }

    /// The merged model of a two-way split equals training both halves and
    /// summing, for depth-1 sketches where the estimate is a single cell
    /// (exact additivity, see `wm::tests::depth_one_merge_estimates_are_exactly_additive`).
    #[test]
    fn wm_merge_split_additivity_depth_one(stream in stream_strategy(), split_pct in 0usize..101) {
        use wmsketch_learn::MergeableLearner;
        let split = stream.len() * split_pct / 100;
        let cfg = WmSketchConfig::new(1 << 12, 1).lambda(1e-4).seed(5);
        let mut a = WmSketch::new(cfg);
        let mut b = WmSketch::new(cfg);
        for (i, (pairs, y)) in stream.iter().enumerate() {
            let x = SparseVector::from_pairs(pairs);
            if i < split { a.update(&x, *y); } else { b.update(&x, *y); }
        }
        let expected: Vec<f64> = (0..16u32).map(|f| a.estimate(f) + b.estimate(f)).collect();
        a.merge_from(&b);
        for f in 0..16u32 {
            prop_assert!(
                a.estimate(f).to_bits() == expected[f as usize].to_bits(),
                "f{}: merged {} vs sum {}", f, a.estimate(f), expected[f as usize]
            );
        }
    }

    /// recover_top_k is sorted by |weight| descending for all learners.
    #[test]
    fn recovery_is_sorted_by_magnitude(stream in stream_strategy()) {
        let mut awm = AwmSketch::new(AwmSketchConfig::new(8, 64).seed(1));
        for (pairs, y) in &stream {
            awm.update(&SparseVector::from_pairs(pairs), *y);
        }
        let top = awm.recover_top_k(8);
        for w in top.windows(2) {
            prop_assert!(w[0].weight.abs() >= w[1].weight.abs() - 1e-12);
        }
    }
}
