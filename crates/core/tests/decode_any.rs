//! Coverage for the kind-dispatched snapshot decoder
//! (`wmsketch_core::decode_any_learner`): a golden bit-identity test
//! against the typed decode path, plus proptests sweeping kind-byte
//! corruption and truncated prefixes across every registered kind — a
//! hostile buffer must always produce a typed `CodecError`, never a
//! panic.

use proptest::prelude::*;
use wmsketch_core::{
    decode_any_learner, AwmSketch, AwmSketchConfig, CodecError, MulticlassAwmSketch,
    MulticlassConfig, OnlineLearner, SnapshotCodec, WeightEstimator, WmSketch, WmSketchConfig,
    REGISTERED_LEARNER_KINDS,
};
use wmsketch_hashing::codec::{self, KIND_AWM, KIND_MULTICLASS_AWM, KIND_WM};
use wmsketch_learn::{MergeableLearner, SparseVector};

/// Offset of the kind byte in a `WMS1` envelope (after the 4-byte magic).
const KIND_OFFSET: usize = 4;

/// One trained snapshot per registered kind.
fn trained_snapshots(seed: u64) -> Vec<(u8, Vec<u8>)> {
    let mut wm = WmSketch::new(WmSketchConfig::new(64, 3).heap_capacity(8).seed(seed));
    let mut awm = AwmSketch::new(AwmSketchConfig::new(8, 64).seed(seed));
    let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
        classes: 3,
        per_class: AwmSketchConfig::new(8, 64).seed(seed),
    });
    for t in 0..60u32 {
        let x = SparseVector::from_pairs(&[(t % 11, 1.0), (20 + t % 7, 0.5)]);
        let y = if t % 2 == 0 { 1 } else { -1 };
        OnlineLearner::update(&mut wm, &x, y);
        OnlineLearner::update(&mut awm, &x, y);
        mc.update_class(&x, (t % 3) as usize);
    }
    vec![
        (KIND_WM, wm.to_snapshot_bytes()),
        (KIND_AWM, awm.to_snapshot_bytes()),
        (KIND_MULTICLASS_AWM, mc.to_snapshot_bytes()),
    ]
}

/// The golden contract: a WM buffer decoded through `decode_any_learner`
/// is the *bit-identical twin* of the typed `WmSketch` decode — same
/// estimates bit for bit, same top-K, and the same re-encoded bytes.
#[test]
fn wm_buffer_via_decode_any_is_bit_identical_to_typed_decode() {
    let mut wm = WmSketch::new(
        WmSketchConfig::new(128, 4)
            .heap_capacity(16)
            .lambda(1e-5)
            .seed(42),
    );
    for t in 0..1500u32 {
        let noise = 100 + (t * 17) % 400;
        let (x, y) = if t % 2 == 0 {
            (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
        } else {
            (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
        };
        OnlineLearner::update(&mut wm, &x, y);
    }
    let bytes = wm.to_snapshot_bytes();

    let typed = WmSketch::from_snapshot_bytes(&bytes).expect("typed decode");
    let dynamic = decode_any_learner(&bytes).expect("decode_any");

    assert_eq!(dynamic.kind(), KIND_WM);
    assert_eq!(dynamic.examples_seen(), typed.examples_seen());
    for f in 0..600u32 {
        assert!(
            dynamic.estimate(f).to_bits() == WeightEstimator::estimate(&typed, f).to_bits(),
            "estimate diverges at feature {f}"
        );
    }
    let (a, b) = (
        dynamic.recover_top_k(16),
        wmsketch_learn::TopKRecovery::recover_top_k(&typed, 16),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.feature, y.feature);
        assert!(x.weight.to_bits() == y.weight.to_bits());
    }
    // Re-encoding either twin reproduces the original buffer exactly.
    assert_eq!(typed.to_snapshot_bytes(), bytes);
    assert_eq!(dynamic.snapshot().expect("facade snapshot"), bytes);
}

/// Every registered kind decodes through the dispatcher, and every
/// *strict prefix* of every kind's buffer is a typed error (deterministic
/// exhaustive sweep, mirroring the typed decoders' prefix tests).
#[test]
fn every_registered_kind_decodes_and_every_prefix_is_rejected() {
    let snapshots = trained_snapshots(7);
    assert_eq!(snapshots.len(), REGISTERED_LEARNER_KINDS.len());
    for (kind, bytes) in &snapshots {
        assert!(REGISTERED_LEARNER_KINDS.contains(kind));
        let l = decode_any_learner(bytes).expect("registered kind decodes");
        assert_eq!(l.kind(), *kind);
        for n in 0..bytes.len() {
            assert!(
                decode_any_learner(&bytes[..n]).is_err(),
                "kind {kind:#04x}: prefix {n} decoded"
            );
        }
        // Appended junk shifts the CRC footer window: ChecksumMismatch.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_any_learner(&long),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }
}

proptest! {
    /// Kind-byte corruption across all registered kinds: flipping the
    /// envelope's kind byte to *any* other value yields a typed error —
    /// `UnknownKind` for unregistered values, and a structural
    /// `CodecError` when the corrupted kind is registered but the body
    /// belongs to another layout. Never a panic, and the model never
    /// decodes under the wrong kind.
    #[test]
    fn kind_byte_corruption_is_always_a_typed_error(corrupt16 in 0u16..256, seed in 0u64..24) {
        let corrupt = corrupt16 as u8;
        for (kind, bytes) in trained_snapshots(seed) {
            let mut damaged = bytes.clone();
            damaged[KIND_OFFSET] = corrupt;
            let result = decode_any_learner(&damaged);
            if corrupt == kind {
                prop_assert!(result.is_ok());
            } else if REGISTERED_LEARNER_KINDS.contains(&corrupt) {
                // Registered-but-wrong kind: the body can't satisfy the
                // other layout's validation.
                prop_assert!(result.is_err(), "kind {kind:#04x} decoded as {corrupt:#04x}");
            } else {
                prop_assert_eq!(result.err(), Some(CodecError::UnknownKind(corrupt)));
            }
        }
    }

    /// Random truncation points (denser than the exhaustive sweep can
    /// afford per seed) combined with random seeds: decode of any prefix
    /// fails with a typed error.
    #[test]
    fn random_truncations_never_panic(frac in 0u32..10_000, seed in 0u64..24) {
        for (_, bytes) in trained_snapshots(seed) {
            let cut = (frac as usize * bytes.len()) / 10_000;
            prop_assert!(decode_any_learner(&bytes[..cut]).is_err());
        }
    }

    /// Single-byte corruption anywhere in the buffer either still decodes
    /// (a value field changed within its invariants) or fails with a
    /// typed error — it never panics. When it does decode, re-encoding
    /// must reach a **fixed point**: the re-encoded buffer decodes to a
    /// model that re-encodes identically (byte equality with the damaged
    /// input is too strong — e.g. a corrupted heap-entry feature id can
    /// decode fine and re-encode in canonical feature order).
    #[test]
    fn single_byte_corruption_never_panics(pos_frac in 0u32..10_000, delta16 in 1u16..256, seed in 0u64..24) {
        let delta = delta16 as u8;
        for (_, bytes) in trained_snapshots(seed) {
            let pos = (pos_frac as usize * bytes.len()) / 10_000;
            let mut damaged = bytes.clone();
            damaged[pos] = damaged[pos].wrapping_add(delta);
            if let Ok(l) = decode_any_learner(&damaged) {
                let canonical = l.snapshot().unwrap();
                let back = decode_any_learner(&canonical).expect("canonical re-decode");
                prop_assert_eq!(back.snapshot().unwrap(), canonical);
            }
        }
    }
}

/// The raw sketch substrates have codecs but are not learners: their
/// kinds are rejected with `UnknownKind` rather than misinterpreted.
#[test]
fn substrate_kinds_are_unknown_to_the_learner_registry() {
    for kind in [codec::KIND_COUNT_SKETCH, codec::KIND_COUNT_MIN] {
        let mut w = codec::Writer::new();
        w.put_envelope(kind);
        w.put_u64(0);
        assert_eq!(
            decode_any_learner(&w.into_bytes()).err(),
            Some(CodecError::UnknownKind(kind))
        );
    }
}

/// Hash tables are shared by every live model with the same seeds, so
/// each test below uses seeds no other test in this binary uses: then
/// "after every holder has dropped" holds when it says so.
const SHARED_WM_SEED: u64 = 0x007A_B1E5_0001;
const SHARED_AWM_SEED: u64 = 0x007A_B1E5_0002;
const MERGE_WM_SEED: u64 = 0x007A_B1E5_0003;
const MERGE_AWM_SEED: u64 = 0x007A_B1E5_0004;

/// 64-bit FNV-1a, a stable digest for pinning snapshot bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `n` examples with a planted signal on features 3 and 9 and a noise
/// tail whose features depend on `salt`.
fn salted_stream(n: u32, salt: u32) -> Vec<(SparseVector, i8)> {
    (0..n)
        .map(|t| {
            let noise = 100 + (t * 17 + salt * 31) % 400;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

fn trained<L: OnlineLearner>(mut learner: L, salt: u32) -> L {
    for (x, y) in salted_stream(1500, salt) {
        learner.update(&x, y);
    }
    learner
}

/// Every estimate over the stream's feature range and every margin over
/// its examples, as bits.
fn fingerprint<L: OnlineLearner + WeightEstimator>(learner: &L) -> Vec<u64> {
    let estimates = (0..600u32).map(|f| learner.estimate(f).to_bits());
    let margins = salted_stream(64, 7)
        .into_iter()
        .map(|(x, _)| learner.margin(&x).to_bits());
    estimates.chain(margins).collect()
}

/// Decodes `bytes` once while `holder` (a live model with the same seed)
/// still holds the hash tables, and once after it and the first decode
/// have dropped, so the second decode fills its own tables. Both twins
/// must re-encode to `bytes` and agree bit for bit.
fn assert_decodes_alike_shared_and_alone<L>(holder: L, bytes: &[u8])
where
    L: SnapshotCodec + OnlineLearner + WeightEstimator,
{
    let shared = L::from_snapshot_bytes(bytes).expect("decode beside a live holder");
    assert_eq!(shared.to_snapshot_bytes(), bytes);
    let shared_print = fingerprint(&shared);
    assert_eq!(shared_print, fingerprint(&holder));
    drop((holder, shared));
    let alone = L::from_snapshot_bytes(bytes).expect("decode with no live holder");
    assert_eq!(alone.to_snapshot_bytes(), bytes);
    assert_eq!(fingerprint(&alone), shared_print);
}

#[test]
fn decode_is_bit_identical_with_and_without_a_live_holder_of_the_seed() {
    let wm = trained(
        WmSketch::new(
            WmSketchConfig::new(128, 14)
                .heap_capacity(16)
                .seed(SHARED_WM_SEED),
        ),
        1,
    );
    let bytes = wm.to_snapshot_bytes();
    assert_decodes_alike_shared_and_alone(wm, &bytes);

    let awm = trained(
        AwmSketch::new(AwmSketchConfig::with_budget_bytes(2048).seed(SHARED_AWM_SEED)),
        1,
    );
    let bytes = awm.to_snapshot_bytes();
    assert_decodes_alike_shared_and_alone(awm, &bytes);
}

/// Merging two models that read the same shared tables gives the bytes
/// the same merge gave when every model filled its own tables (pinned
/// before the tables were shared).
#[test]
fn merge_between_models_sharing_tables_matches_pinned_bytes() {
    let wm_cfg = WmSketchConfig::new(128, 14)
        .heap_capacity(16)
        .seed(MERGE_WM_SEED);
    let mut wm = trained(WmSketch::new(wm_cfg), 1);
    wm.merge_from(&trained(WmSketch::new(wm_cfg), 2));
    let bytes = wm.to_snapshot_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (14654, 0x7629_5383_AE96_18F7),
        "WM merge"
    );

    let awm_cfg = AwmSketchConfig::with_budget_bytes(2048).seed(MERGE_AWM_SEED);
    let mut awm = trained(AwmSketch::new(awm_cfg), 1);
    awm.merge_from(&trained(AwmSketch::new(awm_cfg), 2));
    let bytes = awm.to_snapshot_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (3709, 0x415C_9A5C_C066_90B9),
        "AWM merge"
    );
}
