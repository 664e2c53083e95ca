//! Golden equivalence tests for the single-hash update pipeline.
//!
//! The fused `update` paths of [`WmSketch`] and [`AwmSketch`] hash every
//! active feature exactly once per example and replay the cached
//! coordinates for the margin, the gradient scatter, and heap maintenance.
//! The seed implementation's three-pass traversals are retained as
//! `update_naive`; these tests drive both paths over identical streams and
//! assert **bit-identical** results (`f64` equality, no tolerances) across
//! seeds, depths — including past the 64-row stack-buffer limit — and both
//! hash families.

use wmsketch_core::{AwmSketch, AwmSketchConfig, WmSketch, WmSketchConfig};
use wmsketch_hashing::{HashFamilyKind, SnapshotCodec};
use wmsketch_learn::{
    Label, LearningRate, OnlineLearner, SparseVector, TopKRecovery, WeightEstimator,
};

/// A deterministic stream with a planted signal, a Zipf-ish noise tail, and
/// varying sparsity (1–6 non-zeros per example).
fn stream(n: usize, salt: u64) -> Vec<(SparseVector, Label)> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|t| {
            let y: Label = if t % 2 == 0 { 1 } else { -1 };
            let signal = if y == 1 { 3 } else { 9 };
            let mut pairs = vec![(signal, 1.0)];
            let extra = (next() % 6) as usize;
            for _ in 0..extra {
                let f = 100 + (next() % 512) as u32;
                let v = ((next() % 100) as f64 + 1.0) / 50.0;
                pairs.push((f, v));
            }
            (SparseVector::from_pairs(&pairs), y)
        })
        .collect()
}

/// Every (family, depth) shape the pipeline special-cases: depth 1 (the
/// AWM default), mid depths, and a depth past the stack-buffer spill.
fn shapes() -> Vec<(HashFamilyKind, u32)> {
    let mut shapes = Vec::new();
    for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
        for depth in [1u32, 4, 14, 80] {
            shapes.push((kind, depth));
        }
    }
    shapes
}

fn assert_wm_states_identical(fused: &WmSketch, naive: &WmSketch, ctx: &str) {
    for f in 0..700u32 {
        let (a, b) = (fused.estimate(f), naive.estimate(f));
        assert!(a == b, "{ctx}: estimate({f}) fused {a} vs naive {b}");
    }
    let (top_f, top_n) = (fused.recover_top_k(64), naive.recover_top_k(64));
    assert_eq!(top_f.len(), top_n.len(), "{ctx}: top-K length");
    for (a, b) in top_f.iter().zip(&top_n) {
        assert_eq!(a.feature, b.feature, "{ctx}: top-K feature order");
        assert!(a.weight == b.weight, "{ctx}: top-K weight bits");
    }
    let probe = SparseVector::from_pairs(&[(3, 1.0), (9, -0.5), (123, 2.0)]);
    assert!(
        fused.margin(&probe) == naive.margin(&probe),
        "{ctx}: margin on probe vector"
    );
}

#[test]
fn wm_fused_update_is_bit_identical_to_naive() {
    for (kind, depth) in shapes() {
        for seed in [0u64, 7, 42] {
            let cfg = WmSketchConfig::new(128, depth)
                .lambda(1e-5)
                .seed(seed)
                .hash_family(kind);
            let mut fused = WmSketch::new(cfg);
            let mut naive = WmSketch::new(cfg);
            for (x, y) in &stream(1500, seed ^ 0xABCD) {
                fused.update(x, *y);
                naive.update_naive(x, *y);
            }
            assert_eq!(fused.examples_seen(), naive.examples_seen());
            assert_wm_states_identical(&fused, &naive, &format!("{kind:?} d{depth} s{seed}"));
        }
    }
}

/// Fused pipeline against the naive reference for both sketches on a
/// second stream salt and seed. The update kernels are scalar-only, so
/// the scalar and vectorized legs this test once compared are the same
/// code; what remains is fused ≡ naive across both hash families and
/// depths past the 64-row stack buffer.
#[test]
fn wm_and_awm_fused_three_way_scalar_simd_naive() {
    for (kind, depth) in shapes() {
        for seed in [1u64, 42] {
            let data = stream(900, seed ^ 0x3A11);
            // WM.
            let cfg = WmSketchConfig::new(128, depth)
                .lambda(1e-5)
                .seed(seed)
                .hash_family(kind);
            let mut naive = WmSketch::new(cfg);
            let mut fused = WmSketch::new(cfg);
            for (x, y) in &data {
                naive.update_naive(x, *y);
                fused.update(x, *y);
            }
            let ctx = format!("WM {kind:?} d{depth} s{seed}");
            assert_wm_states_identical(&fused, &naive, &format!("{ctx} fused-vs-naive"));
            // AWM (small heap so offers, rejections, and evictions occur).
            let cfg = AwmSketchConfig::new(16, 128)
                .depth(depth)
                .lambda(1e-5)
                .seed(seed)
                .hash_family(kind);
            let mut naive = AwmSketch::new(cfg);
            let mut fused = AwmSketch::new(cfg);
            for (x, y) in &data {
                naive.update_naive(x, *y);
                fused.update(x, *y);
            }
            let ctx = format!("AWM {kind:?} d{depth} s{seed}");
            for f in 0..700u32 {
                let (n, s) = (naive.estimate(f), fused.estimate(f));
                assert!(s == n, "{ctx}: estimate({f}) fused {s} vs naive {n}");
                assert_eq!(fused.in_active_set(f), naive.in_active_set(f), "{ctx} {f}");
            }
        }
    }
}

#[test]
fn wm_fused_matches_naive_without_heap() {
    // heap_capacity = 0 disables pass 3 entirely; the fused path must skip
    // it identically.
    let cfg = WmSketchConfig::new(256, 5).heap_capacity(0).seed(11);
    let mut fused = WmSketch::new(cfg);
    let mut naive = WmSketch::new(cfg);
    for (x, y) in &stream(1000, 5) {
        fused.update(x, *y);
        naive.update_naive(x, *y);
    }
    for f in 0..700u32 {
        assert!(fused.estimate(f) == naive.estimate(f), "estimate({f})");
    }
    assert!(fused.recover_top_k(8).is_empty());
}

/// Small heaps over a narrow sketch: the heap is full almost at once and
/// nearly every offer meets a floor, so the fused path's median-skipping
/// admission gate decides most offers. Even and odd depths on both sides
/// of the sorting-network limit (16) and past it (introselect), both
/// hash families; snapshots (heap contents included) are compared every
/// 50 examples so a divergence is caught where it starts.
#[test]
fn wm_fused_matches_naive_under_dense_heap_churn() {
    for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
        for depth in [2u32, 3, 15, 17] {
            for capacity in [1usize, 8] {
                let cfg = WmSketchConfig::new(32, depth)
                    .heap_capacity(capacity)
                    .lambda(1e-4)
                    .learning_rate(LearningRate::Constant(0.3))
                    .seed(u64::from(depth) * 31 + capacity as u64)
                    .hash_family(kind);
                let ctx = format!("{kind:?} d{depth} cap{capacity}");
                let mut fused = WmSketch::new(cfg);
                let mut naive = WmSketch::new(cfg);
                for (t, (x, y)) in stream(1500, 0xC4E7 ^ u64::from(depth)).iter().enumerate() {
                    fused.update(x, *y);
                    naive.update_naive(x, *y);
                    if t % 50 == 49 {
                        assert!(
                            fused.to_snapshot_bytes() == naive.to_snapshot_bytes(),
                            "{ctx}: snapshots diverged by example {t}"
                        );
                    }
                }
                assert_wm_states_identical(&fused, &naive, &ctx);
            }
        }
    }
}

#[test]
fn wm_fused_matches_naive_under_aggressive_scale_folds() {
    // Aggressive decay forces repeated fold_scale() calls between the
    // margin and the scatter; both paths must fold at the same steps.
    let cfg = WmSketchConfig::new(64, 3)
        .lambda(0.5)
        .learning_rate(LearningRate::Constant(0.9))
        .seed(2);
    let mut fused = WmSketch::new(cfg);
    let mut naive = WmSketch::new(cfg);
    for (x, y) in &stream(4000, 9) {
        fused.update(x, *y);
        naive.update_naive(x, *y);
    }
    assert_wm_states_identical(&fused, &naive, "aggressive-decay");
}

#[test]
fn awm_fused_update_is_bit_identical_to_naive() {
    for (kind, depth) in shapes() {
        for seed in [0u64, 7, 42] {
            // Small heap so offers, rejections, and evictions all occur.
            let cfg = AwmSketchConfig::new(16, 128)
                .depth(depth)
                .lambda(1e-5)
                .seed(seed)
                .hash_family(kind);
            let mut fused = AwmSketch::new(cfg);
            let mut naive = AwmSketch::new(cfg);
            for (x, y) in &stream(2000, seed ^ 0x5EED) {
                fused.update(x, *y);
                naive.update_naive(x, *y);
            }
            let ctx = format!("{kind:?} d{depth} s{seed}");
            assert_eq!(fused.active_set_len(), naive.active_set_len(), "{ctx}");
            for f in 0..700u32 {
                assert_eq!(
                    fused.in_active_set(f),
                    naive.in_active_set(f),
                    "{ctx}: active-set membership of {f}"
                );
                let (a, b) = (fused.estimate(f), naive.estimate(f));
                assert!(a == b, "{ctx}: estimate({f}) fused {a} vs naive {b}");
            }
            let (top_f, top_n) = (fused.recover_top_k(16), naive.recover_top_k(16));
            for (a, b) in top_f.iter().zip(&top_n) {
                assert_eq!(a.feature, b.feature, "{ctx}: top-K feature order");
                assert!(a.weight == b.weight, "{ctx}: top-K weight bits");
            }
        }
    }
}

#[test]
fn awm_fused_handles_capacity_one_eviction_churn() {
    // Capacity-1 active set maximizes mid-update membership churn — the
    // case where a margin-time-active feature is evicted before its turn
    // and must be planned lazily.
    let cfg = AwmSketchConfig::new(1, 256)
        .lambda(0.0)
        .learning_rate(LearningRate::Constant(0.5))
        .seed(3);
    let mut fused = AwmSketch::new(cfg);
    let mut naive = AwmSketch::new(cfg);
    for (x, y) in &stream(3000, 13) {
        fused.update(x, *y);
        naive.update_naive(x, *y);
    }
    for f in 0..700u32 {
        assert!(fused.estimate(f) == naive.estimate(f), "estimate({f})");
        assert_eq!(fused.in_active_set(f), naive.in_active_set(f));
    }
}

#[test]
fn awm_fused_replans_a_feature_evicted_by_an_earlier_promotion() {
    // Feature 20 fills a capacity-1 active set. The next example holds
    // features 5 and 20: at margin time 20 is active (its slot is cached)
    // and 5 is not; 5 comes first, its large step promotes it, and the
    // eviction of 20 hands 5 the slot cached for 20. At 20's turn the
    // cached slot holds feature 5, so 20 must be re-planned and offered as
    // an untracked feature, not stepped in place through the stale slot.
    let cfg = AwmSketchConfig::new(1, 64)
        .lambda(0.0)
        .learning_rate(LearningRate::Constant(0.5))
        .seed(3);
    let first = SparseVector::from_pairs(&[(20, 1.0)]);
    let second = SparseVector::from_pairs(&[(5, 8.0), (20, 0.25)]);
    let mut fused = AwmSketch::new(cfg);
    let mut naive = AwmSketch::new(cfg);
    fused.update(&first, 1);
    naive.update_naive(&first, 1);
    assert!(fused.in_active_set(20) && !fused.in_active_set(5));
    fused.update(&second, -1);
    naive.update_naive(&second, -1);
    assert!(
        naive.in_active_set(5) && !naive.in_active_set(20),
        "the example must promote 5 over the margin-time-active 20"
    );
    assert_eq!(fused.to_snapshot_bytes(), naive.to_snapshot_bytes());
    for f in [5, 20] {
        assert!(fused.estimate(f) == naive.estimate(f), "estimate({f})");
    }
}

#[test]
fn update_batch_is_bit_identical_to_sequential_updates() {
    let data = stream(1200, 21);
    // WM.
    let cfg = WmSketchConfig::new(128, 14).seed(4);
    let mut batched = WmSketch::new(cfg);
    let mut sequential = WmSketch::new(cfg);
    for chunk in data.chunks(97) {
        batched.update_batch(chunk);
    }
    for (x, y) in &data {
        sequential.update(x, *y);
    }
    assert_eq!(batched.examples_seen(), sequential.examples_seen());
    assert_wm_states_identical(&batched, &sequential, "update_batch");
    // AWM.
    let cfg = AwmSketchConfig::new(32, 256).seed(4);
    let mut batched = AwmSketch::new(cfg);
    let mut sequential = AwmSketch::new(cfg);
    for chunk in data.chunks(97) {
        batched.update_batch(chunk);
    }
    for (x, y) in &data {
        sequential.update(x, *y);
    }
    for f in 0..700u32 {
        assert!(
            batched.estimate(f) == sequential.estimate(f),
            "estimate({f})"
        );
    }
}

#[test]
fn default_update_batch_matches_loop_for_non_sketch_learners() {
    use wmsketch_learn::{LogisticRegression, LogisticRegressionConfig};
    let data = stream(400, 31);
    let mut batched = LogisticRegression::new(LogisticRegressionConfig::new(1024).track_top_k(0));
    let mut sequential =
        LogisticRegression::new(LogisticRegressionConfig::new(1024).track_top_k(0));
    batched.update_batch(&data);
    for (x, y) in &data {
        sequential.update(x, *y);
    }
    for f in 0..700u32 {
        assert!(batched.weight(f) == sequential.weight(f), "weight({f})");
    }
}
