//! [`DynLearner`] implementations for every learner in this crate, plus
//! the kind-dispatched snapshot decoder.
//!
//! This module is where the workspace's *one* model layer is assembled:
//! the object-safe facade defined in `wmsketch_learn::dyn_learner` is
//! implemented here for the WM-/AWM-Sketch, the multiclass model and
//! all four exact-state baselines, and
//! [`decode_any_learner`] turns any `WMS1` buffer into a live
//! `Box<dyn DynLearner>` by its kind byte. Everything downstream — the
//! experiment harness's `AnyLearner`, the serve crate's model registry —
//! is a thin consumer of these two entry points instead of a hand-rolled
//! polymorphism layer of its own.

use wmsketch_hashing::codec::{
    self, AnyDecoder, CodecError, SnapshotCodec, KIND_AWM, KIND_CM_CLASSIFIER, KIND_MULTICLASS_AWM,
    KIND_PROB_TRUNCATION, KIND_SIMPLE_TRUNCATION, KIND_SPACE_SAVING, KIND_WM,
};
use wmsketch_learn::dyn_learner::NO_SNAPSHOT_CODEC;
use wmsketch_learn::{
    DynLearner, Label, LabelDomain, MergeableLearner, OnlineLearner, SparseVector, TopKRecovery,
    WeightEntry, WeightEstimator,
};

use crate::awm::AwmSketch;
use crate::frequent::{CountMinClassifier, SpaceSavingClassifier};
use crate::multiclass::MulticlassAwmSketch;
use crate::truncation::{ProbabilisticTruncation, SimpleTruncation};
use crate::wm::WmSketch;

/// Downcasts a dyn peer to the concrete type a learner merges with (the
/// caller decodes the peer outside its critical section, the merge only
/// needs this cast).
fn downcast_peer<L: 'static>(expected_kind: u8, peer: &dyn DynLearner) -> Result<&L, CodecError> {
    peer.as_any()
        .downcast_ref::<L>()
        .ok_or(CodecError::WrongKind {
            expected: expected_kind,
            got: peer.kind(),
        })
}

/// The trait-delegating method bodies shared by every concrete learner
/// (the capability traits already define them; the facade only re-routes).
macro_rules! dyn_learner_common {
    ($ty:ty) => {
        fn update(&mut self, x: &SparseVector, y: Label) {
            OnlineLearner::update(self, x, y);
        }

        fn update_batch(&mut self, batch: &[(SparseVector, Label)]) {
            OnlineLearner::update_batch(self, batch);
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

        fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
            TopKRecovery::recover_top_k(self, k)
        }

        fn memory_bytes(&self) -> usize {
            <$ty>::memory_bytes(self)
        }
    };
}

/// [`DynLearner`] for a mergeable, snapshot-capable learner.
macro_rules! impl_dyn_mergeable {
    ($ty:ty, $kind:expr, $name:literal $(, $extra:item)*) => {
        impl DynLearner for $ty {
            fn kind(&self) -> u8 {
                $kind
            }

            fn method_name(&self) -> String {
                $name.to_string()
            }

            dyn_learner_common!($ty);

            fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
                Ok(SnapshotCodec::to_snapshot_bytes(self))
            }

            /// Decode-and-replace: the snapshot captures this kind's full
            /// state, so restore adopts it bit for bit (including the
            /// pre-scale representation a merge would normalize away).
            fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
                let peer = <$ty as SnapshotCodec>::from_snapshot_bytes(bytes)?;
                if !self.merge_compatible(&peer) {
                    return Err(CodecError::Invalid(
                        "checkpoint is not shape-compatible with this model",
                    ));
                }
                *self = peer;
                Ok(())
            }

            fn encode_delta_since(&mut self, since: u64) -> Result<Vec<u8>, CodecError> {
                Ok(<$ty>::encode_delta_since(self, since))
            }

            fn apply_delta(&mut self, bytes: &[u8]) -> Result<u64, CodecError> {
                <$ty>::apply_delta(self, bytes)
            }

            fn as_any(&self) -> &dyn std::any::Any {
                self
            }

            fn absorb_peer(&mut self, peer: &dyn DynLearner) -> Result<(), CodecError> {
                let peer = downcast_peer::<$ty>(self.kind(), peer)?;
                if !self.merge_compatible(peer) {
                    return Err(CodecError::Invalid(
                        "peer model is not merge-compatible with this model",
                    ));
                }
                self.merge_from(peer);
                Ok(())
            }

            $($extra)*
        }
    };
}

/// [`DynLearner`] for an exact-state baseline: no snapshot codec (the
/// model is not linear, so there is nothing exact to ship-and-sum).
macro_rules! impl_dyn_baseline {
    ($ty:ty, $kind:expr, $name:literal) => {
        impl DynLearner for $ty {
            fn kind(&self) -> u8 {
                $kind
            }

            fn method_name(&self) -> String {
                $name.to_string()
            }

            dyn_learner_common!($ty);

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
    };
}

impl_dyn_mergeable!(
    WmSketch,
    KIND_WM,
    "WM",
    /// Truthful resident accounting (buffers, hashers, scratch).
    fn resident_bytes(&self) -> usize {
        WmSketch::resident_bytes(self)
    }
);
impl_dyn_mergeable!(
    AwmSketch,
    KIND_AWM,
    "AWM",
    /// Truthful resident accounting (buffers, hashers, scratch).
    fn resident_bytes(&self) -> usize {
        AwmSketch::resident_bytes(self)
    }
);
impl_dyn_mergeable!(
    MulticlassAwmSketch,
    KIND_MULTICLASS_AWM,
    "MC-AWM",
    /// Labels are class indices `0..classes`.
    fn label_domain(&self) -> LabelDomain {
        LabelDomain::Classes(self.classes() as u32)
    },
    /// One pass over the class sketches yields both the argmax class and
    /// its margin.
    fn margin_and_label(&self, x: &SparseVector) -> (f64, Label) {
        let (class, margin) = self.best_class(x);
        (margin, crate::multiclass::class_label(class))
    },
    /// Truthful resident accounting (per-class sketches at full cost).
    fn resident_bytes(&self) -> usize {
        MulticlassAwmSketch::resident_bytes(self)
    }
);

impl_dyn_baseline!(SimpleTruncation, KIND_SIMPLE_TRUNCATION, "Trun");
impl_dyn_baseline!(ProbabilisticTruncation, KIND_PROB_TRUNCATION, "PTrun");
impl_dyn_baseline!(SpaceSavingClassifier, KIND_SPACE_SAVING, "SS");
impl_dyn_baseline!(CountMinClassifier, KIND_CM_CLASSIFIER, "CM-FF");

fn boxed_decode<L>(bytes: &[u8]) -> Result<Box<dyn DynLearner>, CodecError>
where
    L: SnapshotCodec + DynLearner + 'static,
{
    Ok(Box::new(L::from_snapshot_bytes(bytes)?))
}

/// Expands the one registered-learner list into every artifact that must
/// agree on it — the kind table and the `decode_any` dispatch registry —
/// so registering a new snapshot-capable learner is exactly one new
/// `(Type, KIND)` row here.
macro_rules! learner_registry {
    ($(($ty:ty, $kind:expr)),+ $(,)?) => {
        /// The snapshot kinds [`decode_any_learner`] (and therefore the
        /// serve registry) can revive into live learners.
        pub const REGISTERED_LEARNER_KINDS: &[u8] = &[$($kind),+];

        /// Decodes *any* registered `WMS1` learner snapshot into a live
        /// model, dispatching to the concrete decoder by the buffer's
        /// kind byte (via [`wmsketch_hashing::codec::decode_any`]).
        ///
        /// This is the single entry point behind every "a snapshot of
        /// some learner arrives from outside the process" path — the
        /// serve registry's CREATE op, offline checkpoint inspection —
        /// and new snapshot-capable learners join the system by adding
        /// one row to the `learner_registry!` invocation (which keeps
        /// [`REGISTERED_LEARNER_KINDS`] and this dispatcher in agreement
        /// by construction).
        ///
        /// # Errors
        /// Whatever the envelope checks or the matched decoder reject;
        /// [`CodecError::UnknownKind`] for valid envelopes of
        /// unregistered kinds (including the raw
        /// `CountSketch`/`CountMinSketch` kinds, which are substrates,
        /// not learners). Never panics on untrusted input.
        pub fn decode_any_learner(bytes: &[u8]) -> Result<Box<dyn DynLearner>, CodecError> {
            codec::decode_any(
                bytes,
                &[$(AnyDecoder {
                    kind: $kind,
                    decode: boxed_decode::<$ty>,
                }),+],
            )
        }
    };
}

learner_registry![
    (WmSketch, KIND_WM),
    (AwmSketch, KIND_AWM),
    (MulticlassAwmSketch, KIND_MULTICLASS_AWM),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awm::AwmSketchConfig;
    use crate::frequent::{CountMinClassifierConfig, SpaceSavingClassifierConfig};
    use crate::multiclass::MulticlassConfig;
    use crate::truncation::TruncationConfig;
    use crate::wm::WmSketchConfig;
    use wmsketch_learn::{FeatureHashingClassifier, FeatureHashingConfig};

    fn all_binary_learners() -> Vec<Box<dyn DynLearner>> {
        vec![
            Box::new(SimpleTruncation::new(
                TruncationConfig::simple_with_budget_bytes(4096).seed(1),
            )),
            Box::new(ProbabilisticTruncation::new(
                TruncationConfig::probabilistic_with_budget_bytes(4096).seed(1),
            )),
            Box::new(SpaceSavingClassifier::new(
                SpaceSavingClassifierConfig::with_budget_bytes(4096),
            )),
            Box::new(CountMinClassifier::new(
                CountMinClassifierConfig::with_budget_bytes(4096).seed(1),
            )),
            Box::new(FeatureHashingClassifier::new(
                FeatureHashingConfig::with_budget_bytes(4096).seed(1),
            )),
            Box::new(WmSketch::new(
                WmSketchConfig::with_budget_bytes(4096).seed(1),
            )),
            Box::new(AwmSketch::new(
                AwmSketchConfig::with_budget_bytes(4096).seed(1),
            )),
        ]
    }

    #[test]
    fn every_learner_learns_behind_one_facade() {
        for mut l in all_binary_learners() {
            assert_eq!(l.label_domain(), LabelDomain::Binary);
            for t in 0..400 {
                let (x, y) = if t % 2 == 0 {
                    (SparseVector::one_hot(3, 1.0), 1)
                } else {
                    (SparseVector::one_hot(7, 1.0), -1)
                };
                l.update(&x, y);
            }
            assert_eq!(l.examples_seen(), 400, "{}", l.method_name());
            assert!(
                l.estimate(3) > 0.0 && l.estimate(7) < 0.0,
                "{} failed to learn: w3={} w7={}",
                l.method_name(),
                l.estimate(3),
                l.estimate(7)
            );
            assert_eq!(l.predict(&SparseVector::one_hot(3, 1.0)), 1);
            assert!(l.memory_bytes() > 0);
        }
    }

    #[test]
    fn facade_names_and_kinds_line_up() {
        let expect: Vec<(&str, u8)> = vec![
            ("Trun", KIND_SIMPLE_TRUNCATION),
            ("PTrun", KIND_PROB_TRUNCATION),
            ("SS", KIND_SPACE_SAVING),
            ("CM-FF", KIND_CM_CLASSIFIER),
            ("Hash", codec::KIND_FEATURE_HASHING),
            ("WM", KIND_WM),
            ("AWM", KIND_AWM),
        ];
        for (l, (name, kind)) in all_binary_learners().iter().zip(expect) {
            assert_eq!(l.method_name(), name);
            assert_eq!(l.kind(), kind);
        }
    }

    #[test]
    fn baselines_report_typed_snapshot_errors() {
        for mut l in all_binary_learners() {
            let has_codec = REGISTERED_LEARNER_KINDS.contains(&l.kind());
            assert_eq!(l.snapshot().is_ok(), has_codec, "{}", l.method_name());
            if !has_codec {
                assert!(matches!(
                    l.restore_snapshot(&[]),
                    Err(CodecError::Invalid(_))
                ));
                let peer = WmSketch::new(WmSketchConfig::new(64, 2).seed(1));
                assert!(matches!(l.absorb_peer(&peer), Err(CodecError::Invalid(_))));
            }
        }
    }

    #[test]
    fn decode_any_learner_revives_every_registered_kind() {
        let mut wm = WmSketch::new(WmSketchConfig::new(64, 2).seed(3));
        let mut awm = AwmSketch::new(AwmSketchConfig::new(8, 64).seed(3));
        let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 3,
            per_class: AwmSketchConfig::new(8, 64).seed(3),
        });
        for t in 0..200u32 {
            let x = SparseVector::one_hot(t % 9, 1.0);
            let y: Label = if t % 2 == 0 { 1 } else { -1 };
            OnlineLearner::update(&mut wm, &x, y);
            OnlineLearner::update(&mut awm, &x, y);
            mc.update_class(&x, (t % 3) as usize);
        }
        for (bytes, kind, name, domain) in [
            (wm.to_snapshot_bytes(), KIND_WM, "WM", LabelDomain::Binary),
            (
                awm.to_snapshot_bytes(),
                KIND_AWM,
                "AWM",
                LabelDomain::Binary,
            ),
            (
                mc.to_snapshot_bytes(),
                KIND_MULTICLASS_AWM,
                "MC-AWM",
                LabelDomain::Classes(3),
            ),
        ] {
            let revived = decode_any_learner(&bytes).expect("decode_any");
            assert_eq!(revived.kind(), kind);
            assert_eq!(revived.method_name(), name);
            assert_eq!(revived.label_domain(), domain);
            assert_eq!(revived.examples_seen(), 200);
            // Re-encoding through the facade reproduces the exact bytes.
            assert_eq!(revived.snapshot().unwrap(), bytes);
        }
    }

    /// `margin_and_label` is `(margin, predict)` bit for bit: the sign
    /// rule for every binary learner, the argmax class and its margin for
    /// the multiclass override.
    #[test]
    fn margin_and_label_equals_margin_then_predict() {
        let mut learners = all_binary_learners();
        let mut mc = MulticlassAwmSketch::new(MulticlassConfig {
            classes: 3,
            per_class: AwmSketchConfig::new(8, 64).seed(3),
        });
        for t in 0..300u32 {
            let x = SparseVector::from_pairs(&[(t % 9, 1.0), (20 + t % 5, -0.5)]);
            mc.update_class(&x, (t % 3) as usize);
            for l in &mut learners {
                l.update(&x, if t % 2 == 0 { 1 } else { -1 });
            }
        }
        learners.push(Box::new(mc));
        for l in &learners {
            for f in 0..30u32 {
                let x = SparseVector::from_pairs(&[(f, 1.0), (f + 7, 0.25)]);
                let (margin, label) = l.margin_and_label(&x);
                let name = l.method_name();
                assert_eq!(margin.to_bits(), l.margin(&x).to_bits(), "{name}");
                assert_eq!(label, l.predict(&x), "{name}");
            }
        }
    }

    #[test]
    fn decode_any_learner_rejects_substrate_and_foreign_kinds() {
        let mut w = wmsketch_hashing::codec::Writer::new();
        w.put_envelope(codec::KIND_COUNT_SKETCH);
        assert_eq!(
            decode_any_learner(&w.into_bytes()).err(),
            Some(CodecError::UnknownKind(codec::KIND_COUNT_SKETCH))
        );
        assert!(decode_any_learner(b"not a snapshot").is_err());
    }

    #[test]
    fn absorb_snapshot_merges_split_streams_exactly() {
        let cfg = WmSketchConfig::new(128, 4).lambda(1e-5).seed(3);
        let mut a = WmSketch::new(cfg);
        let mut b = WmSketch::new(cfg);
        let mut whole = WmSketch::new(cfg);
        for t in 0..1000u32 {
            let x = SparseVector::from_pairs(&[(t % 7, 1.0), (50 + t % 31, 0.5)]);
            let y: Label = if t % 2 == 0 { 1 } else { -1 };
            // Interleave exactly: a sees evens, b sees odds — their merge
            // is the sketch of the whole (reordered) stream.
            if t % 2 == 0 {
                OnlineLearner::update(&mut a, &x, y);
            } else {
                OnlineLearner::update(&mut b, &x, y);
            }
            OnlineLearner::update(&mut whole, &x, y);
        }
        let snap_b = DynLearner::snapshot(&b).unwrap();
        let dyn_a: &mut dyn DynLearner = &mut a;
        dyn_a
            .absorb_peer(&*decode_any_learner(&snap_b).unwrap())
            .unwrap();
        assert_eq!(dyn_a.examples_seen(), 1000);
        // Merged stream sums match the reference sum of both halves.
        for f in 0..100u32 {
            let merged = dyn_a.estimate(f);
            assert!(merged.is_finite());
        }
        // Kind mismatch and incompatibility are typed errors.
        let awm = AwmSketch::new(AwmSketchConfig::new(8, 64).seed(3));
        let snap_awm = DynLearner::snapshot(&awm).unwrap();
        assert!(matches!(
            dyn_a.absorb_peer(&*decode_any_learner(&snap_awm).unwrap()),
            Err(CodecError::WrongKind { .. })
        ));
        let alien = WmSketch::new(WmSketchConfig::new(128, 4).seed(99)).to_snapshot_bytes();
        assert!(matches!(
            dyn_a.absorb_peer(&*decode_any_learner(&alien).unwrap()),
            Err(CodecError::Invalid(_))
        ));
    }
}
