//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§7–§8). Each `src/bin/*.rs` binary reproduces one result;
//! `src/bin/all.rs` runs the full suite. See `EXPERIMENTS.md` at the
//! workspace root for recorded outputs and paper-vs-measured comparisons.

#![warn(missing_docs)]

pub mod methods;
pub mod table;

pub use methods::{AnyLearner, Method, MethodConfig, ALL_BUDGETED_METHODS, FIGURE_METHODS};
pub use table::Table;

use wmsketch_core::{LogisticRegression, LogisticRegressionConfig, OnlineLearner};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_learn::metrics::top_k_of_dense;
use wmsketch_learn::{rel_err_top_k, OnlineErrorRate, WeightEntry};

/// Which synthetic stand-in dataset to stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// RCV1-like (head signal).
    Rcv1,
    /// Malicious-URL-like (mid-tail signal).
    Url,
    /// KDD-Algebra-like (very high dimension).
    Kdda,
}

impl Dataset {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Rcv1 => "RCV1",
            Dataset::Url => "URL",
            Dataset::Kdda => "KDDA",
        }
    }

    /// Builds the generator with a seed.
    #[must_use]
    pub fn generator(self, seed: u64) -> SyntheticClassification {
        match self {
            Dataset::Rcv1 => SyntheticClassification::rcv1_like(seed),
            Dataset::Url => SyntheticClassification::url_like(seed),
            Dataset::Kdda => SyntheticClassification::kdda_like(seed),
        }
    }

    /// Feature dimension.
    #[must_use]
    pub fn dim(self) -> u32 {
        match self {
            Dataset::Rcv1 => 1 << 16,
            Dataset::Url => 1 << 21,
            Dataset::Kdda => 1 << 22,
        }
    }

    /// The λ the paper found best for recovery on this dataset (Fig. 3).
    #[must_use]
    pub fn default_lambda(self) -> f64 {
        match self {
            Dataset::Rcv1 => 1e-6,
            Dataset::Url => 1e-5,
            Dataset::Kdda => 1e-5,
        }
    }
}

/// Result of training one method on one stream.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Relative ℓ2 recovery error of the estimated top-K (paper §7.2).
    pub rel_err: f64,
    /// Online classification error rate (paper §7.3).
    pub error_rate: f64,
    /// Wall-clock training seconds.
    pub seconds: f64,
    /// Memory cost in bytes under the §7.1 model.
    pub memory_bytes: usize,
}

/// Trains the memory-unconstrained LR reference on `n` examples and
/// returns `(dense weights, online error rate, seconds)`.
#[must_use]
pub fn train_reference(dataset: Dataset, lambda: f64, n: usize, seed: u64) -> (Vec<f64>, f64, f64) {
    let mut gen = dataset.generator(seed);
    let mut lr = LogisticRegression::new(
        LogisticRegressionConfig::new(dataset.dim())
            .lambda(lambda)
            .track_top_k(128),
    );
    let mut err = OnlineErrorRate::new();
    let start = std::time::Instant::now();
    for _ in 0..n {
        let (x, y) = gen.next_example();
        err.record(lr.predict(&x), y);
        lr.update(&x, y);
    }
    let secs = start.elapsed().as_secs_f64();
    (lr.weights(), err.rate(), secs)
}

/// Trains one budgeted method on the same stream and scores it against the
/// reference weights. Pass an empty `w_star` to skip recovery scoring
/// (error-rate/runtime-only experiments like Figs. 6–7); `rel_err` is then
/// NaN.
#[must_use]
pub fn train_and_score(
    cfg: &MethodConfig,
    dataset: Dataset,
    n: usize,
    seed: u64,
    w_star: &[f64],
    k: usize,
) -> RunResult {
    let mut gen = dataset.generator(seed);
    let mut learner = AnyLearner::build(cfg);
    let mut err = OnlineErrorRate::new();
    let start = std::time::Instant::now();
    for _ in 0..n {
        let (x, y) = gen.next_example();
        err.record(learner.predict(&x), y);
        learner.update(&x, y);
    }
    let seconds = start.elapsed().as_secs_f64();
    let rel_err = if w_star.is_empty() {
        f64::NAN
    } else {
        let estimated = learner.top_k_estimates(k, dataset.dim());
        rel_err_top_k(&estimated, w_star, k)
    };
    RunResult {
        method: cfg.method.name().to_string(),
        rel_err,
        error_rate: err.rate(),
        seconds,
        memory_bytes: learner.memory_bytes(),
    }
}

/// Like [`train_and_score`] but scores several K values from a single
/// trained model (the expensive part is training, not scoring).
#[must_use]
pub fn train_and_score_multi(
    cfg: &MethodConfig,
    dataset: Dataset,
    n: usize,
    seed: u64,
    w_star: &[f64],
    ks: &[usize],
) -> (Vec<f64>, f64, f64) {
    let mut gen = dataset.generator(seed);
    let mut learner = AnyLearner::build(cfg);
    let mut err = OnlineErrorRate::new();
    let start = std::time::Instant::now();
    for _ in 0..n {
        let (x, y) = gen.next_example();
        err.record(learner.predict(&x), y);
        learner.update(&x, y);
    }
    let seconds = start.elapsed().as_secs_f64();
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let estimated = learner.top_k_estimates(max_k, dataset.dim());
    let rels = ks
        .iter()
        .map(|&k| rel_err_top_k(&estimated[..k.min(estimated.len())], w_star, k))
        .collect();
    (rels, err.rate(), seconds)
}

/// The true top-K of a dense reference (re-exported convenience).
#[must_use]
pub fn reference_top_k(w_star: &[f64], k: usize) -> Vec<WeightEntry> {
    top_k_of_dense(w_star, k)
}

/// Scales a default stream length by the `WM_SCALE` environment variable
/// (e.g. `WM_SCALE=0.1` for a smoke run), with a floor of 1000 examples.
#[must_use]
pub fn scaled(n: usize) -> usize {
    let factor: f64 = std::env::var("WM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    ((n as f64 * factor) as usize).max(1000)
}

/// Median of a sample (the paper plots medians over trials).
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    xs[(xs.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 1.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn dataset_metadata() {
        assert_eq!(Dataset::Rcv1.name(), "RCV1");
        assert_eq!(Dataset::Url.dim(), 1 << 21);
        assert!(Dataset::Kdda.default_lambda() > 0.0);
    }

    #[test]
    fn small_end_to_end_run() {
        let (w_star, err, _) = train_reference(Dataset::Rcv1, 1e-6, 2000, 1);
        assert_eq!(w_star.len(), 1 << 16);
        assert!(err < 0.5, "reference should beat chance: {err}");
        let cfg = MethodConfig::new(Method::Awm, 8 * 1024, 1e-6, 1);
        let r = train_and_score(&cfg, Dataset::Rcv1, 2000, 1, &w_star, 64);
        assert!(r.rel_err >= 1.0);
        assert!(r.memory_bytes <= 8 * 1024);
    }
}
