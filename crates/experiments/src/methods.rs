//! The method matrix of the paper's figures, behind one uniform API.

use wmsketch_core::{
    AwmSketch, AwmSketchConfig, CountMinClassifier, CountMinClassifierConfig, DynLearner,
    FeatureHashingClassifier, FeatureHashingConfig, Label, OnlineLearner, ProbabilisticTruncation,
    SimpleTruncation, SpaceSavingClassifier, SpaceSavingClassifierConfig, TruncationConfig,
    WeightEntry, WeightEstimator, WmSketch, WmSketchConfig,
};
use wmsketch_learn::SparseVector;

/// One of the paper's budgeted methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Simple Truncation (Algorithm 3).
    Trun,
    /// Probabilistic Truncation (Algorithm 4).
    PTrun,
    /// Space-Saving Frequent.
    Ss,
    /// Count-Min Frequent Features.
    CmFf,
    /// Feature hashing.
    Hash,
    /// Weight-Median Sketch (Algorithm 1).
    Wm,
    /// Active-Set Weight-Median Sketch (Algorithm 2).
    Awm,
}

/// The methods shown in the paper's main figures (CM-FF omitted there as
/// dominated by SS, matching Fig. 3's caption).
pub const FIGURE_METHODS: [Method; 6] = [
    Method::Trun,
    Method::PTrun,
    Method::Ss,
    Method::Hash,
    Method::Wm,
    Method::Awm,
];

/// Every budgeted method, including CM-FF.
pub const ALL_BUDGETED_METHODS: [Method; 7] = [
    Method::Trun,
    Method::PTrun,
    Method::Ss,
    Method::CmFf,
    Method::Hash,
    Method::Wm,
    Method::Awm,
];

impl Method {
    /// Display name, matching the paper's figure legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::Trun => "Trun",
            Method::PTrun => "PTrun",
            Method::Ss => "SS",
            Method::CmFf => "CM-FF",
            Method::Hash => "Hash",
            Method::Wm => "WM",
            Method::Awm => "AWM",
        }
    }
}

/// A budgeted method instantiation request.
#[derive(Debug, Clone, Copy)]
pub struct MethodConfig {
    /// Which method.
    pub method: Method,
    /// Byte budget under the §7.1 cost model.
    pub budget_bytes: usize,
    /// `ℓ2` regularization λ.
    pub lambda: f64,
    /// Seed.
    pub seed: u64,
}

impl MethodConfig {
    /// Creates a request.
    #[must_use]
    pub fn new(method: Method, budget_bytes: usize, lambda: f64, seed: u64) -> Self {
        Self {
            method,
            budget_bytes,
            lambda,
            seed,
        }
    }
}

/// A uniform wrapper over the whole method matrix, so harness code is a
/// single loop.
///
/// A thin newtype over the workspace's one model layer,
/// `Box<dyn DynLearner>`: construction picks the concrete method, and
/// every per-method behavior difference — native top-K versus feature
/// hashing's domain scan — lives on the concrete types' `DynLearner` impls
/// in `wmsketch-core`, not in per-method match ladders here.
pub struct AnyLearner(Box<dyn DynLearner>);

impl AnyLearner {
    /// Instantiates a method within its byte budget.
    #[must_use]
    pub fn build(cfg: &MethodConfig) -> Self {
        let b = cfg.budget_bytes;
        let learner: Box<dyn DynLearner> = match cfg.method {
            Method::Trun => Box::new(SimpleTruncation::new(
                TruncationConfig::simple_with_budget_bytes(b)
                    .lambda(cfg.lambda)
                    .seed(cfg.seed),
            )),
            Method::PTrun => Box::new(ProbabilisticTruncation::new(
                TruncationConfig::probabilistic_with_budget_bytes(b)
                    .lambda(cfg.lambda)
                    .seed(cfg.seed),
            )),
            Method::Ss => Box::new(SpaceSavingClassifier::new(
                SpaceSavingClassifierConfig::with_budget_bytes(b).lambda(cfg.lambda),
            )),
            Method::CmFf => Box::new(CountMinClassifier::new(
                CountMinClassifierConfig::with_budget_bytes(b)
                    .lambda(cfg.lambda)
                    .seed(cfg.seed),
            )),
            Method::Hash => Box::new(FeatureHashingClassifier::new(
                FeatureHashingConfig::with_budget_bytes(b)
                    .lambda(cfg.lambda)
                    .seed(cfg.seed),
            )),
            Method::Wm => {
                let mut c = WmSketchConfig::with_budget_bytes(b);
                c.lambda = cfg.lambda;
                c.seed = cfg.seed;
                Box::new(WmSketch::new(c))
            }
            Method::Awm => {
                let mut c = AwmSketchConfig::with_budget_bytes(b);
                c.lambda = cfg.lambda;
                c.seed = cfg.seed;
                Box::new(AwmSketch::new(c))
            }
        };
        AnyLearner(learner)
    }

    /// Instantiates a WM/AWM shape directly (Table 2 sweeps).
    #[must_use]
    pub fn from_wm_config(c: WmSketchConfig) -> Self {
        AnyLearner(Box::new(WmSketch::new(c)))
    }

    /// Instantiates an AWM shape directly.
    #[must_use]
    pub fn from_awm_config(c: AwmSketchConfig) -> Self {
        AnyLearner(Box::new(AwmSketch::new(c)))
    }

    /// Method display name.
    #[must_use]
    pub fn name(&self) -> String {
        self.0.method_name()
    }

    /// Memory cost in bytes under the §7.1 model.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    /// Estimated top-`k` weights. Methods with native recovery use their
    /// heap; feature hashing scans the feature domain `0..dim`, the
    /// evaluation protocol of §7.2.
    #[must_use]
    pub fn top_k_estimates(&self, k: usize, dim: u32) -> Vec<WeightEntry> {
        self.0.top_k_estimates(k, dim)
    }
}

impl OnlineLearner for AnyLearner {
    fn margin(&self, x: &SparseVector) -> f64 {
        self.0.margin(x)
    }

    fn update(&mut self, x: &SparseVector, y: Label) {
        self.0.update(x, y);
    }

    fn update_batch(&mut self, batch: &[(SparseVector, Label)]) {
        self.0.update_batch(batch);
    }

    fn examples_seen(&self) -> u64 {
        self.0.examples_seen()
    }
}

impl WeightEstimator for AnyLearner {
    fn estimate(&self, feature: u32) -> f64 {
        self.0.estimate(feature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_builds_within_budget() {
        for method in ALL_BUDGETED_METHODS {
            for budget in [2048usize, 8192, 32768] {
                let l = AnyLearner::build(&MethodConfig::new(method, budget, 1e-6, 1));
                assert!(
                    l.memory_bytes() <= budget,
                    "{} at {budget}: {} bytes",
                    l.name(),
                    l.memory_bytes()
                );
            }
        }
    }

    #[test]
    fn every_method_learns_a_trivial_problem() {
        for method in ALL_BUDGETED_METHODS {
            let mut l = AnyLearner::build(&MethodConfig::new(method, 8192, 1e-6, 1));
            for t in 0..400 {
                let (x, y) = if t % 2 == 0 {
                    (SparseVector::one_hot(3, 1.0), 1)
                } else {
                    (SparseVector::one_hot(7, 1.0), -1)
                };
                l.update(&x, y);
            }
            assert!(
                l.estimate(3) > 0.0 && l.estimate(7) < 0.0,
                "{} failed to learn: w3={} w7={}",
                l.name(),
                l.estimate(3),
                l.estimate(7)
            );
            assert_eq!(l.examples_seen(), 400);
        }
    }

    #[test]
    fn top_k_estimates_nonempty_for_all_methods() {
        for method in ALL_BUDGETED_METHODS {
            let mut l = AnyLearner::build(&MethodConfig::new(method, 4096, 1e-6, 2));
            for t in 0..200u32 {
                l.update(
                    &SparseVector::one_hot(t % 5, 1.0),
                    if t % 2 == 0 { 1 } else { -1 },
                );
            }
            let top = l.top_k_estimates(3, 64);
            assert!(!top.is_empty(), "{} returned empty top-k", l.name());
        }
    }

    #[test]
    fn names_match_the_method_enum() {
        // The facade's per-type names must agree with `Method::name`, the
        // string the figure tables print.
        for method in ALL_BUDGETED_METHODS {
            let l = AnyLearner::build(&MethodConfig::new(method, 8192, 1e-6, 1));
            assert_eq!(l.name(), method.name());
        }
    }
}
