//! Delta-snapshot replication invariants: `base + delta` must re-encode
//! **bit-identically** to a full snapshot of the origin — for WM, AWM,
//! and the multiclass model, across hash families and NCE partial
//! updates — plus the watermark/gap contract (typed `DeltaGap` on any
//! mismatch), the full-snapshot fallbacks, and the delta-size bound a
//! sparse change pattern is supposed to buy.

use proptest::prelude::*;
use wmsketch_core::{
    AwmSketch, AwmSketchConfig, CodecError, MergeableLearner, MulticlassAwmSketch,
    MulticlassConfig, OnlineLearner, SnapshotCodec, WmSketch, WmSketchConfig,
};
use wmsketch_hashing::codec::is_delta_record;
use wmsketch_hashing::HashFamilyKind;
use wmsketch_learn::{Label, SparseVector};

/// Random labelled streams over a moderate feature domain.
fn stream(max_len: usize) -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec(
        (0u32..64, 1u32..8, prop::sample::select(vec![true, false])),
        1..max_len,
    )
}

fn to_examples(raw: &[(u32, u32, bool)]) -> Vec<(SparseVector, Label)> {
    raw.iter()
        .enumerate()
        .map(|(t, &(f, v, pos))| {
            let x = SparseVector::from_pairs(&[
                (f, f64::from(v) / 4.0),
                (64 + (t as u32 * 13 % 200), 0.25),
            ]);
            (x, if pos { 1 } else { -1 })
        })
        .collect()
}

proptest! {
    /// WM-Sketch: ship a full snapshot, keep training, ship a delta; the
    /// replica's re-encoded snapshot must equal the origin's byte for
    /// byte (cells, scale, clock, heap — everything).
    #[test]
    fn wm_base_plus_delta_reencodes_bit_identically(
        prefix in stream(200),
        suffix in stream(200),
        seed in 0u64..200,
    ) {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let cfg = WmSketchConfig::new(64, 3)
                .heap_capacity(16)
                .lambda(1e-5)
                .hash_family(kind)
                .seed(seed);
            let mut origin = WmSketch::new(cfg);
            for (x, y) in &to_examples(&prefix) {
                origin.update(x, *y);
            }
            // First request: tracking is off, so this is a full snapshot
            // (exactly what a blank replica needs) and arms tracking.
            let base = origin.encode_delta_since(0);
            prop_assert!(!is_delta_record(&base).unwrap());
            let shipped = origin.examples_seen();
            let mut replica = WmSketch::from_snapshot_bytes(&base).unwrap();

            for (x, y) in &to_examples(&suffix) {
                origin.update(x, *y);
            }
            let delta = origin.encode_delta_since(shipped);
            prop_assert!(is_delta_record(&delta).unwrap());
            let applied_to = replica.apply_delta(&delta).unwrap();
            prop_assert_eq!(applied_to, origin.examples_seen());
            prop_assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
        }
    }

    /// AWM-Sketch: same contract; the active set (exact weights, integral
    /// model state) rides the delta whenever it moved.
    #[test]
    fn awm_base_plus_delta_reencodes_bit_identically(
        prefix in stream(200),
        suffix in stream(200),
        seed in 0u64..200,
    ) {
        let cfg = AwmSketchConfig::new(16, 64).lambda(1e-5).seed(seed);
        let mut origin = AwmSketch::new(cfg);
        for (x, y) in &to_examples(&prefix) {
            origin.update(x, *y);
        }
        let base = origin.encode_delta_since(0);
        prop_assert!(!is_delta_record(&base).unwrap());
        let shipped = origin.examples_seen();
        let mut replica = AwmSketch::from_snapshot_bytes(&base).unwrap();

        for (x, y) in &to_examples(&suffix) {
            origin.update(x, *y);
        }
        let delta = origin.encode_delta_since(shipped);
        prop_assert!(is_delta_record(&delta).unwrap());
        let applied_to = replica.apply_delta(&delta).unwrap();
        prop_assert_eq!(applied_to, origin.examples_seen());
        prop_assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
    }

    /// Two consecutive deltas chain: watermarks advance with each ship
    /// and the replica tracks the origin exactly through both.
    #[test]
    fn wm_delta_chain_tracks_origin(raws in prop::collection::vec(stream(120), 3..4)) {
        let cfg = WmSketchConfig::new(64, 2).heap_capacity(8).lambda(1e-4).seed(7);
        let mut origin = WmSketch::new(cfg);
        for (x, y) in &to_examples(&raws[0]) {
            origin.update(x, *y);
        }
        let base = origin.encode_delta_since(0);
        let mut replica = WmSketch::from_snapshot_bytes(&base).unwrap();
        let mut shipped = origin.examples_seen();
        for raw in &raws[1..] {
            for (x, y) in &to_examples(raw) {
                origin.update(x, *y);
            }
            let delta = origin.encode_delta_since(shipped);
            shipped = replica.apply_delta(&delta).unwrap();
            prop_assert_eq!(shipped, origin.examples_seen());
        }
        prop_assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
    }
}

fn mc_config(classes: usize) -> MulticlassConfig {
    MulticlassConfig {
        classes,
        per_class: AwmSketchConfig::new(8, 64).lambda(1e-5).seed(11),
    }
}

/// Multiclass with NCE partial updates: only the sampled classes move
/// per example (their clocks diverge from the model clock), yet one
/// model-clock watermark must select every dirty cell of every class.
#[test]
fn multiclass_nce_delta_reencodes_bit_identically() {
    let mut origin = MulticlassAwmSketch::new(mc_config(5));
    for t in 0..400u32 {
        let x = SparseVector::from_pairs(&[(t % 40, 1.0), (40 + t % 60, 0.5)]);
        origin.update_nce(&x, (t % 5) as usize, 2);
    }
    let base = origin.encode_delta_since(0);
    assert!(!is_delta_record(&base).unwrap());
    let shipped = OnlineLearner::examples_seen(&origin);
    let mut replica = MulticlassAwmSketch::from_snapshot_bytes(&base).unwrap();

    for t in 0..150u32 {
        let x = SparseVector::from_pairs(&[(t % 40, 1.0), (40 + t % 60, 0.5)]);
        if t % 3 == 0 {
            origin.update_class(&x, (t % 5) as usize);
        } else {
            origin.update_nce(&x, (t % 5) as usize, 1);
        }
    }
    let delta = origin.encode_delta_since(shipped);
    assert!(is_delta_record(&delta).unwrap());
    let applied_to = replica.apply_delta(&delta).unwrap();
    assert_eq!(applied_to, OnlineLearner::examples_seen(&origin));
    assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
    // The NCE noise RNG rides the delta too: both models continue in
    // lockstep through further sampled updates.
    let x = SparseVector::one_hot(3, 1.0);
    origin.update_nce(&x, 1, 2);
    replica.update_nce(&x, 1, 2);
    assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
}

/// The watermark contract: a delta encoded against one base clock is
/// rejected — with the typed gap error naming both clocks — by a replica
/// at any other clock, so re-delivery and gaps cannot corrupt replicas.
#[test]
fn delta_gap_is_a_typed_error() {
    let cfg = WmSketchConfig::new(64, 2).seed(3);
    let mut origin = WmSketch::new(cfg);
    for t in 0..100u32 {
        origin.update(
            &SparseVector::one_hot(t % 16, 1.0),
            if t % 2 == 0 { 1 } else { -1 },
        );
    }
    let base = origin.encode_delta_since(0);
    let mut replica = WmSketch::from_snapshot_bytes(&base).unwrap();
    for t in 0..50u32 {
        origin.update(&SparseVector::one_hot(t % 16, 1.0), 1);
    }
    let delta = origin.encode_delta_since(100);
    // Re-delivery after a successful apply: the replica moved to 150, the
    // record still starts at 100.
    replica.apply_delta(&delta).unwrap();
    assert_eq!(
        replica.apply_delta(&delta),
        Err(CodecError::DeltaGap {
            expected: 150,
            got: 100,
        })
    );
    // A gapped replica (never saw the first delta) reports the same.
    let mut stale = WmSketch::from_snapshot_bytes(&base).unwrap();
    for t in 0..25u32 {
        origin.update(&SparseVector::one_hot(t % 16, 1.0), -1);
    }
    let second = origin.encode_delta_since(150);
    assert_eq!(
        stale.apply_delta(&second),
        Err(CodecError::DeltaGap {
            expected: 100,
            got: 150,
        })
    );
    // The failed applies left the replicas untouched: the right record
    // still applies cleanly.
    stale.apply_delta(&delta).unwrap();
    stale.apply_delta(&second).unwrap();
    assert_eq!(stale.to_snapshot_bytes(), origin.to_snapshot_bytes());
}

/// A merge with a zero-clock peer changes state without advancing the
/// clock — no watermark can describe it, so the next request must fall
/// back to a full snapshot (and re-arm tracking) instead of shipping a
/// silently wrong delta.
#[test]
fn clockless_mutation_forces_full_snapshot_fallback() {
    let cfg = WmSketchConfig::new(64, 2).lambda(0.0).seed(5);
    let mut origin = WmSketch::new(cfg);
    for t in 0..80u32 {
        origin.update(&SparseVector::one_hot(t % 8, 1.0), 1);
    }
    let _base = origin.encode_delta_since(0); // ships full, arms tracking
    let shipped = origin.examples_seen();

    origin.merge_from(&WmSketch::new(cfg)); // t stays 80: clock-less
    let next = origin.encode_delta_since(shipped);
    assert!(!is_delta_record(&next).unwrap(), "must fall back to full");
    let mut replaced = WmSketch::from_snapshot_bytes(&next).unwrap();
    assert_eq!(replaced.to_snapshot_bytes(), origin.to_snapshot_bytes());
    // And the fallback re-armed tracking: the following request deltas.
    origin.update(&SparseVector::one_hot(1, 1.0), 1);
    let delta = origin.encode_delta_since(80);
    assert!(is_delta_record(&delta).unwrap());
    replaced.apply_delta(&delta).unwrap();
    assert_eq!(replaced.to_snapshot_bytes(), origin.to_snapshot_bytes());
}

/// The point of deltas: a model where ~1% of the cells moved since the
/// last ship must encode in ≤10% of the full snapshot's bytes (the
/// acceptance bound for the replication protocol).
#[test]
fn sparse_delta_is_at_most_a_tenth_of_full_snapshot() {
    let cfg = WmSketchConfig::new(4096, 2)
        .heap_capacity(16)
        .lambda(1e-6)
        .seed(9);
    let mut origin = WmSketch::new(cfg);
    for t in 0..6000u32 {
        let x = SparseVector::from_pairs(&[(t % 4000, 1.0), (4000 + t % 96, 0.5)]);
        origin.update(&x, if t % 2 == 0 { 1 } else { -1 });
    }
    let full = origin.encode_delta_since(0);
    let shipped = origin.examples_seen();
    // ~40 touched features × 2 rows ≈ 1% of the 8192 cells.
    for t in 0..20u32 {
        let x = SparseVector::from_pairs(&[(t, 1.0), (200 + t, 0.5)]);
        origin.update(&x, 1);
    }
    let delta = origin.encode_delta_since(shipped);
    assert!(is_delta_record(&delta).unwrap());
    assert!(
        delta.len() * 10 <= full.len(),
        "delta {} bytes vs full {} bytes",
        delta.len(),
        full.len()
    );
}

/// Damaged delta buffers are typed errors, never panics, and a replica
/// that rejected one is left usable.
#[test]
fn damaged_delta_buffers_are_rejected_without_panic() {
    let cfg = AwmSketchConfig::new(8, 64).seed(2);
    let mut origin = AwmSketch::new(cfg);
    for t in 0..60u32 {
        origin.update(
            &SparseVector::one_hot(t % 12, 1.0),
            if t % 2 == 0 { 1 } else { -1 },
        );
    }
    let base = origin.encode_delta_since(0);
    let mut replica = AwmSketch::from_snapshot_bytes(&base).unwrap();
    for t in 0..30u32 {
        origin.update(&SparseVector::one_hot(t % 12, 1.0), 1);
    }
    let delta = origin.encode_delta_since(60);
    // Truncations at every length and single-byte corruptions must all
    // fail typed. (Replicas whose apply fails mid-record are discarded by
    // the replication layer; here we only require no panic + an error.)
    for cut in 0..delta.len() {
        let _ = AwmSketch::from_snapshot_bytes(&delta[..cut]);
        let mut probe = AwmSketch::from_snapshot_bytes(&base).unwrap();
        assert!(probe.apply_delta(&delta[..cut]).is_err());
    }
    // A full (non-delta) snapshot is not a delta record.
    assert!(replica.apply_delta(&base).is_err());
    // The pristine replica still applies the genuine article.
    replica.apply_delta(&delta).unwrap();
    assert_eq!(replica.to_snapshot_bytes(), origin.to_snapshot_bytes());
}
