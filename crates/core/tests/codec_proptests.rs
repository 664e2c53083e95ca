//! Property tests for the WM-/AWM-Sketch snapshot codec: full-state
//! round-trip bit-identity (estimates, heap/active-set contents, scale
//! factor, seeds ⇒ merge compatibility) across hash families and depths
//! past the 64-row median spill, plus panic-free rejection of damaged
//! buffers.

use proptest::prelude::*;
use wmsketch_core::{
    AwmSketch, AwmSketchConfig, CodecError, MergeableLearner, OnlineLearner, SnapshotCodec,
    TopKRecovery, WeightEstimator, WmSketch, WmSketchConfig,
};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::HashFamilyKind;
use wmsketch_learn::{Label, SparseVector};

/// Random labelled streams over a moderate feature domain, with varied
/// values so no two weights collide exactly.
fn stream() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec(
        (0u32..64, 1u32..8, prop::sample::select(vec![true, false])),
        1..300,
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

/// Depth-1, a mid depth, and one past the 64-row median stack spill.
const DEPTHS: [u32; 3] = [1, 6, 80];

proptest! {
    /// WM-Sketch snapshots capture the complete model: estimates, top-K
    /// heap contents, the scale factor, the update clock, and the
    /// projection (seed + family), bit for bit, and re-encode to the
    /// identical bytes.
    #[test]
    fn wm_snapshot_round_trip(raw in stream(), seed in 0u64..500) {
        let examples = to_examples(&raw);
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            for depth in DEPTHS {
                let cfg = WmSketchConfig::new(64, depth)
                    .heap_capacity(16)
                    .lambda(1e-5)
                    .hash_family(kind)
                    .seed(seed);
                let mut wm = WmSketch::new(cfg);
                for (x, y) in &examples {
                    wm.update(x, *y);
                }
                let bytes = wm.to_snapshot_bytes();
                let back = WmSketch::from_snapshot_bytes(&bytes).expect("round trip");
                prop_assert!(back.merge_compatible(&wm) && wm.merge_compatible(&back));
                prop_assert_eq!(back.examples_seen(), wm.examples_seen());
                prop_assert_eq!(back.to_snapshot_bytes(), bytes);
                for f in 0..300u32 {
                    prop_assert!(
                        back.estimate(f).to_bits() == wm.estimate(f).to_bits(),
                        "kind {:?} depth {} feature {}", kind, depth, f
                    );
                }
                let (a, b) = (back.recover_top_k(16), wm.recover_top_k(16));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.feature, y.feature);
                    prop_assert!(x.weight.to_bits() == y.weight.to_bits());
                }
            }
        }
    }

    /// AWM-Sketch snapshots capture the split model exactly: sketch
    /// cells, the exact active-set weights, membership, scale, and clock.
    /// The decoded model keeps training identically.
    #[test]
    fn awm_snapshot_round_trip(raw in stream(), seed in 0u64..500) {
        let examples = to_examples(&raw);
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            for depth in DEPTHS {
                let cfg = AwmSketchConfig::new(8, 64)
                    .depth(depth)
                    .lambda(1e-5)
                    .hash_family(kind)
                    .seed(seed);
                let mut awm = AwmSketch::new(cfg);
                for (x, y) in &examples {
                    awm.update(x, *y);
                }
                let bytes = awm.to_snapshot_bytes();
                let mut back = AwmSketch::from_snapshot_bytes(&bytes).expect("round trip");
                prop_assert!(back.merge_compatible(&awm));
                prop_assert_eq!(back.examples_seen(), awm.examples_seen());
                prop_assert_eq!(back.active_set_len(), awm.active_set_len());
                prop_assert_eq!(back.to_snapshot_bytes(), bytes);
                for f in 0..300u32 {
                    prop_assert!(back.estimate(f).to_bits() == awm.estimate(f).to_bits());
                    prop_assert_eq!(back.in_active_set(f), awm.in_active_set(f));
                }
                // Continued training stays in lockstep.
                let mut fwd = awm.clone();
                for (x, y) in examples.iter().take(40) {
                    back.update(x, *y);
                    fwd.update(x, *y);
                }
                for f in 0..300u32 {
                    prop_assert!(back.estimate(f).to_bits() == fwd.estimate(f).to_bits());
                }
            }
        }
    }

    /// The scale factor itself survives: after heavy decay (many folds),
    /// a decoded model still matches bit for bit.
    #[test]
    fn wm_snapshot_survives_scale_folds(raw in stream()) {
        let examples = to_examples(&raw);
        let cfg = WmSketchConfig::new(32, 2)
            .lambda(0.9)
            .learning_rate(wmsketch_learn::LearningRate::Constant(0.9))
            .seed(3);
        let mut wm = WmSketch::new(cfg);
        for _ in 0..30 {
            for (x, y) in &examples {
                wm.update(x, *y);
            }
        }
        let back = WmSketch::from_snapshot_bytes(&wm.to_snapshot_bytes()).expect("round trip");
        for f in 0..300u32 {
            prop_assert!(back.estimate(f).to_bits() == wm.estimate(f).to_bits());
            prop_assert!(back.estimate(f).is_finite());
        }
    }

    /// Damaged learner snapshots — truncations and single-byte structural
    /// corruption — reject with typed errors and never panic.
    #[test]
    fn wm_truncation_and_corruption_reject_cleanly(
        raw in stream(),
        pos in 0usize..4096,
        delta in 1u8..255,
    ) {
        let examples = to_examples(&raw);
        let mut wm = WmSketch::new(WmSketchConfig::new(16, 3).heap_capacity(4).seed(9));
        for (x, y) in &examples {
            wm.update(x, *y);
        }
        let bytes = wm.to_snapshot_bytes();
        // A sweep of prefixes (every 7th, plus the tail region).
        for n in (0..bytes.len()).step_by(7).chain(bytes.len() - 9..bytes.len()) {
            prop_assert!(WmSketch::from_snapshot_bytes(&bytes[..n]).is_err(), "prefix {}", n);
        }
        // Single-byte corruption: the CRC-64 footer detects every
        // single-byte change, so any nonzero delta anywhere must produce
        // a typed error — no silent value drift, no panic.
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] = corrupt[pos].wrapping_add(delta);
        prop_assert!(
            WmSketch::from_snapshot_bytes(&corrupt).is_err(),
            "byte {} +{} decoded", pos, delta
        );
    }

    /// The same integrity sweep over AWM snapshots (the active-set
    /// layout shares the envelope but not the section shapes): every
    /// truncation and every single-byte corruption of a sealed record
    /// is rejected with a typed [`CodecError`], never a panic and never
    /// a silently different model.
    #[test]
    fn awm_truncation_and_corruption_reject_cleanly(
        raw in stream(),
        pos in 0usize..4096,
        delta in 1u8..255,
        cut in 0usize..4096,
    ) {
        let examples = to_examples(&raw);
        let mut awm = AwmSketch::new(AwmSketchConfig::new(32, 16).seed(5));
        for (x, y) in &examples {
            awm.update(x, *y);
        }
        let bytes = awm.to_snapshot_bytes();
        let cut = cut % bytes.len();
        prop_assert!(AwmSketch::from_snapshot_bytes(&bytes[..cut]).is_err(), "prefix {}", cut);
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] = corrupt[pos].wrapping_add(delta);
        match AwmSketch::from_snapshot_bytes(&corrupt) {
            Ok(_) => prop_assert!(false, "byte {} +{} decoded", pos, delta),
            Err(e) => {
                // Typed rejection; a checksum mismatch must carry the
                // stored/computed pair (what the serve crate logs).
                if let CodecError::ChecksumMismatch { stored, computed } = e {
                    prop_assert!(stored != computed, "mismatch with equal sums");
                }
            }
        }
    }
}

/// A crafted snapshot declaring an absurd heap capacity (e.g. 2^61, with a
/// matching TOPK capacity) must be rejected by the CONFIG validation
/// *before* any capacity-sized allocation — `Vec::with_capacity(2^61)`
/// would abort the process, violating the codec's never-panic guarantee,
/// and the buffer is remotely reachable via the serve crate's MERGE and
/// RESTORE ops.
#[test]
fn absurd_heap_capacity_is_rejected_before_allocation() {
    // CONFIG is the first body section: envelope (magic 4 + kind 1 +
    // flags 1) | tag u8 | len u32 | width u32 | depth u32 | heap_capacity
    // u64 — so the capacity field occupies bytes 19..27.
    const HEAP_CAPACITY_RANGE: std::ops::Range<usize> = 19..27;
    let wm = WmSketch::new(WmSketchConfig::new(32, 2).heap_capacity(8).seed(1));
    let awm = AwmSketch::new(AwmSketchConfig::new(8, 32).seed(1));
    let mut wm_bytes = wm.to_snapshot_bytes();
    let mut awm_bytes = awm.to_snapshot_bytes();
    assert_eq!(&wm_bytes[HEAP_CAPACITY_RANGE], 8u64.to_le_bytes());
    assert_eq!(&awm_bytes[HEAP_CAPACITY_RANGE], 8u64.to_le_bytes());
    for huge in [
        wmsketch_core::MAX_HEAP_CAPACITY as u64 + 1,
        1u64 << 61,
        u64::MAX,
    ] {
        wm_bytes[HEAP_CAPACITY_RANGE].copy_from_slice(&huge.to_le_bytes());
        awm_bytes[HEAP_CAPACITY_RANGE].copy_from_slice(&huge.to_le_bytes());
        wmsketch_hashing::codec::reseal_record(&mut wm_bytes);
        wmsketch_hashing::codec::reseal_record(&mut awm_bytes);
        assert!(matches!(
            WmSketch::from_snapshot_bytes(&wm_bytes),
            Err(CodecError::Invalid(_))
        ));
        assert!(matches!(
            AwmSketch::from_snapshot_bytes(&awm_bytes),
            Err(CodecError::Invalid(_))
        ));
    }
}

/// A crafted non-finite learning-rate `eta0` must reject at decode: it
/// drives every subsequent gradient step, so a NaN here would poison all
/// touched cells on the first post-restore update — the same
/// panic-under-the-learner-mutex wedge as a NaN cell, one field over.
#[test]
fn non_finite_eta0_is_rejected_at_decode() {
    // CONFIG payload: width (4) | depth (4) | heap_capacity (8) |
    // lambda (8) | schedule tag (1) | eta0 (8) — so after the 6-byte
    // envelope and 5-byte section header, eta0 occupies bytes 36..44.
    const ETA0_RANGE: std::ops::Range<usize> = 36..44;
    let wm = WmSketch::new(WmSketchConfig::new(32, 2).heap_capacity(8).seed(1));
    let bytes = wm.to_snapshot_bytes();
    assert_eq!(
        &bytes[ETA0_RANGE],
        wm.config().learning_rate.eta0().to_bits().to_le_bytes()
    );
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut corrupt = bytes.clone();
        corrupt[ETA0_RANGE].copy_from_slice(&bad.to_bits().to_le_bytes());
        wmsketch_hashing::codec::reseal_record(&mut corrupt);
        assert!(matches!(
            WmSketch::from_snapshot_bytes(&corrupt),
            Err(CodecError::Invalid(_))
        ));
    }
}

/// Crafted non-finite cells must reject at decode: a NaN cell would
/// otherwise decode cleanly and panic the estimator's median/heap code far
/// from the trust boundary (on a serving node: under the learner mutex,
/// via OP_MERGE/OP_RESTORE).
#[test]
fn non_finite_cells_are_rejected_at_decode() {
    let mut wm = WmSketch::new(WmSketchConfig::new(32, 2).heap_capacity(8).seed(1));
    wm.update(&SparseVector::from_pairs(&[(3, 1.0)]), 1);
    let bytes = wm.to_snapshot_bytes();
    // Envelope is 6 bytes; each section is tag (u8) | len (u32) | payload.
    // CONFIG is first; CELLS follows with a count (u64) before the f64s.
    let config_len = u32::from_le_bytes(bytes[7..11].try_into().unwrap()) as usize;
    let cells_tag = 6 + 5 + config_len;
    assert_eq!(bytes[cells_tag], 0x02, "CELLS tag where expected");
    let first_cell = cells_tag + 5 + 8;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut corrupt = bytes.clone();
        corrupt[first_cell..first_cell + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        wmsketch_hashing::codec::reseal_record(&mut corrupt);
        assert!(matches!(
            WmSketch::from_snapshot_bytes(&corrupt),
            Err(CodecError::Invalid(_))
        ));
    }
}

#[test]
fn wrong_kind_and_foreign_magic_are_typed() {
    let wm = WmSketch::new(WmSketchConfig::new(32, 2).seed(1));
    let awm = AwmSketch::new(AwmSketchConfig::new(4, 32).seed(1));

    assert!(matches!(
        AwmSketch::from_snapshot_bytes(&wm.to_snapshot_bytes()),
        Err(CodecError::WrongKind { .. })
    ));
    assert!(matches!(
        WmSketch::from_snapshot_bytes(&awm.to_snapshot_bytes()),
        Err(CodecError::WrongKind { .. })
    ));

    let mut foreign = wm.to_snapshot_bytes();
    foreign[0..4].copy_from_slice(b"SQLi");
    assert!(matches!(
        WmSketch::from_snapshot_bytes(&foreign),
        Err(CodecError::BadMagic { .. })
    ));
}

/// Trains `original` on `before`, decodes a twin from its snapshot, trains
/// both on `after`, and demands identical snapshot bytes.
fn assert_faithful_twin<L: OnlineLearner + SnapshotCodec>(
    mut original: L,
    before: &[(SparseVector, Label)],
    after: &[(SparseVector, Label)],
    ctx: &str,
) {
    for (x, y) in before {
        original.update(x, *y);
    }
    let mut twin = L::from_snapshot_bytes(&original.to_snapshot_bytes()).unwrap();
    for (x, y) in after {
        original.update(x, *y);
        twin.update(x, *y);
    }
    assert!(
        twin.to_snapshot_bytes() == original.to_snapshot_bytes(),
        "{ctx}: post-decode training diverged from the never-encoded twin"
    );
}

/// The decoded seed really drives the projection: decoding a snapshot and
/// re-encoding after identical further training matches a never-encoded
/// twin exactly.
///
/// The rcv1-like cases run the paper's 8 KB WM and AWM shapes and the
/// fleet's 2 KB AWM shape: their heaps routinely hold several entries
/// tied at the minimum |weight|, so they pin that the decoded tracker
/// evicts the same feature the original would.
#[test]
fn decoded_model_is_a_faithful_twin() {
    let cfg = WmSketchConfig::new(128, 4).lambda(1e-5).seed(77);
    let stream: Vec<(SparseVector, Label)> = (0..1000)
        .map(|t| {
            let f = (t % 50) as u32;
            (
                SparseVector::from_pairs(&[(f, 1.0), (50 + (t * 7 % 100) as u32, 0.5)]),
                if t % 2 == 0 { 1 } else { -1 },
            )
        })
        .collect();
    assert_faithful_twin(WmSketch::new(cfg), &stream, &stream, "planted WM");

    let data = SyntheticClassification::rcv1_like(1).take(4000);
    for cut in [100, 1000] {
        let (before, after) = (&data[..cut], &data[cut..cut + 3000]);
        let wm = WmSketch::new(WmSketchConfig::with_budget_bytes(8 * 1024));
        assert_faithful_twin(wm, before, after, &format!("rcv1-like cut {cut} WM 8 KB"));
        for budget in [8 * 1024, 2 * 1024] {
            let awm = AwmSketch::new(AwmSketchConfig::with_budget_bytes(budget));
            let ctx = format!("rcv1-like cut {cut} AWM {budget} B");
            assert_faithful_twin(awm, before, after, &ctx);
        }
    }
}
