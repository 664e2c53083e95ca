//! The paper's primary contribution: the **Weight-Median Sketch** and
//! **Active-Set Weight-Median Sketch** (Tai, Sharan, Bailis & Valiant,
//! *Sketching Linear Classifiers over Data Streams*, SIGMOD 2018), together
//! with every memory-budgeted baseline the paper evaluates against and the
//! §7.1 memory cost model that makes the comparisons fair.
//!
//! | Paper name | Type here |
//! |---|---|
//! | WM-Sketch (Algorithm 1) | [`WmSketch`] |
//! | AWM-Sketch (Algorithm 2) | [`AwmSketch`] |
//! | Simple Truncation (Algorithm 3, "Trun") | [`SimpleTruncation`] |
//! | Probabilistic Truncation (Algorithm 4, "PTrun") | [`ProbabilisticTruncation`] |
//! | Space Saving Frequent ("SS") | [`SpaceSavingClassifier`] |
//! | Count-Min Frequent Features ("CM-FF") | [`CountMinClassifier`] |
//! | Feature Hashing ("Hash") | re-exported [`FeatureHashingClassifier`] |
//! | Logistic Regression ("LR", unconstrained) | re-exported [`LogisticRegression`] |
//!
//! All learners implement [`OnlineLearner`] + [`WeightEstimator`], and all
//! except feature hashing implement [`TopKRecovery`]; the experiment
//! harnesses are written against those traits.
//!
//! The sketch learners also implement [`MergeableLearner`]: a linear
//! sketch of two gradient streams is the cell-wise sum of their sketches,
//! so two models merge exactly — the basis of snapshot merge and
//! replication.

#![warn(missing_docs)]

pub mod awm;
pub mod budget;
pub(crate) mod delta;
pub mod dyn_learner;
pub mod frequent;
pub mod multiclass;
pub mod theory;
pub mod truncation;
pub mod wm;

pub use awm::{AwmSketch, AwmSketchConfig};
pub use budget::{
    awm_bytes, cm_classifier_bytes, enumerate_awm_configs, enumerate_wm_configs,
    feature_hashing_table_size, ptrun_capacity, spacesaving_capacity, trun_capacity, wm_bytes,
    BudgetedConfig, BYTES_PER_UNIT,
};
pub use dyn_learner::{decode_any_learner, REGISTERED_LEARNER_KINDS};
pub use frequent::{
    CountMinClassifier, CountMinClassifierConfig, SpaceSavingClassifier,
    SpaceSavingClassifierConfig,
};
pub use multiclass::{MulticlassAwmSketch, MulticlassConfig, MAX_MULTICLASS_CLASSES};
pub use theory::GuaranteeParams;
pub use truncation::{ProbabilisticTruncation, SimpleTruncation, TruncationConfig};
pub use wm::{WmSketch, WmSketchConfig, MAX_HEAP_CAPACITY};

// Re-exports so downstream users need only this crate for the full method
// matrix.
pub use wmsketch_hashing::codec::{CodecError, SnapshotCodec};
pub use wmsketch_learn::{
    DynLearner, FeatureHashingClassifier, FeatureHashingConfig, Label, LabelDomain,
    LogisticRegression, LogisticRegressionConfig, MergeableLearner, OnlineLearner, SparseVector,
    TopKRecovery, WeightEntry, WeightEstimator,
};
