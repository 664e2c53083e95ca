//! The truncation baselines — Algorithms 3 and 4 of the paper.
//!
//! Both maintain at most `K` exactly-stored weights and *discard*
//! everything else (no sketch backs the tail):
//!
//! * [`SimpleTruncation`] ("Trun"): after each gradient update, keep the
//!   top-K entries by |weight|. Cost: 2 units per entry (`K = B/8`).
//! * [`ProbabilisticTruncation`] ("PTrun"): keep K entries by *weighted
//!   reservoir sampling* (Efraimidis–Spirakis keys `r^{1/|w|}`), giving
//!   long-lived features a chance to survive transient dips. Cost: 3 units
//!   per entry — the reservoir key is auxiliary state (`K = B/12`).

use wmsketch_hashing::{FastHashMap, SplitMix64};
use wmsketch_hh::{IndexedHeap, TopKWeights};
use wmsketch_learn::{
    debug_check_label, Label, LearningRate, Loss, LossKind, OnlineLearner, ScaleState,
    SparseVector, TopKRecovery, WeightEntry, WeightEstimator,
};

/// Shared configuration for the truncation baselines.
#[derive(Debug, Clone, Copy)]
pub struct TruncationConfig {
    /// Number of retained `(feature, weight)` entries.
    pub capacity: usize,
    /// `ℓ2` regularization strength λ.
    pub lambda: f64,
    /// Learning-rate schedule.
    pub learning_rate: LearningRate,
    /// Loss function.
    pub loss: LossKind,
    /// Seed (used by the probabilistic variant's reservoir keys).
    pub seed: u64,
}

impl TruncationConfig {
    /// A truncation config with paper-default hyperparameters.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            lambda: 1e-6,
            learning_rate: LearningRate::default(),
            loss: LossKind::Logistic,
            seed: 0,
        }
    }

    /// Capacity from a byte budget for *simple* truncation (2 units/entry).
    #[must_use]
    pub fn simple_with_budget_bytes(budget: usize) -> Self {
        Self::new(crate::budget::trun_capacity(budget))
    }

    /// Capacity from a byte budget for *probabilistic* truncation
    /// (3 units/entry).
    #[must_use]
    pub fn probabilistic_with_budget_bytes(budget: usize) -> Self {
        Self::new(crate::budget::ptrun_capacity(budget))
    }

    /// Sets λ.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the learning-rate schedule.
    #[must_use]
    pub fn learning_rate(mut self, lr: LearningRate) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the loss.
    #[must_use]
    pub fn loss(mut self, loss: LossKind) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Algorithm 3: Simple Truncation (see module docs).
pub struct SimpleTruncation {
    cfg: TruncationConfig,
    /// Exactly-stored pre-scale weights, min-heap by |weight|.
    weights: TopKWeights,
    scale: ScaleState,
    t: u64,
}

impl std::fmt::Debug for SimpleTruncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimpleTruncation")
            .field("capacity", &self.cfg.capacity)
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

impl SimpleTruncation {
    /// Creates an empty model.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(cfg: TruncationConfig) -> Self {
        Self {
            cfg,
            weights: TopKWeights::new(cfg.capacity),
            scale: ScaleState::new(),
            t: 0,
        }
    }

    /// The configuration this model was built with.
    #[must_use]
    pub fn config(&self) -> &TruncationConfig {
        &self.cfg
    }

    /// Memory cost in bytes under the paper's §7.1 model.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cfg.capacity * 2 * crate::budget::BYTES_PER_UNIT
    }

    fn fold_scale(&mut self) {
        let a = self.scale.fold();
        self.weights.scale_all(a);
    }
}

impl OnlineLearner for SimpleTruncation {
    fn margin(&self, x: &SparseVector) -> f64 {
        let acc: f64 = x
            .iter()
            .filter_map(|(i, xi)| self.weights.get(i).map(|w| w * xi))
            .sum();
        self.scale.load(acc)
    }

    fn update(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        let eta = self.cfg.learning_rate.at(self.t);
        let tau = self.margin(x);
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g == 0.0 {
            return;
        }
        for (i, xi) in x.iter() {
            let step = self.scale.store(-eta * g * xi);
            let new_w = self.weights.get(i).unwrap_or(0.0) + step;
            // offer() == add-then-truncate: an entry survives only if its
            // |weight| makes the top K.
            self.weights.offer(i, new_w);
        }
    }

    fn examples_seen(&self) -> u64 {
        self.t
    }
}

impl WeightEstimator for SimpleTruncation {
    fn estimate(&self, feature: u32) -> f64 {
        self.weights
            .get(feature)
            .map_or(0.0, |w| self.scale.load(w))
    }
}

impl TopKRecovery for SimpleTruncation {
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        self.weights
            .top_k(k)
            .into_iter()
            .map(|e| WeightEntry {
                feature: e.feature,
                weight: self.scale.load(e.weight),
            })
            .collect()
    }
}

/// Algorithm 4: Probabilistic Truncation (see module docs).
///
/// Entry survival is governed by Efraimidis–Spirakis reservoir keys:
/// a new entry with weight `w` draws `r ~ U(0,1)` and gets key
/// `r^{1/|w|}`; when an entry's weight changes from `w` to `w'` its key is
/// re-exponentiated as `key^{|w/w'|}`, exactly Algorithm 4's update rule.
/// Truncation keeps the K *largest keys*, so retention probability scales
/// with |weight| but has memory: a long-heavy feature keeps a high key even
/// through a transient dip.
pub struct ProbabilisticTruncation {
    cfg: TruncationConfig,
    /// feature → pre-scale weight.
    weights: FastHashMap<u32, f64>,
    /// Min-heap over reservoir keys: the root is the first to evict.
    keys: IndexedHeap<u32>,
    rng: SplitMix64,
    scale: ScaleState,
    t: u64,
}

impl std::fmt::Debug for ProbabilisticTruncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbabilisticTruncation")
            .field("capacity", &self.cfg.capacity)
            .field("t", &self.t)
            .finish_non_exhaustive()
    }
}

impl ProbabilisticTruncation {
    /// Creates an empty model.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(cfg: TruncationConfig) -> Self {
        assert!(cfg.capacity > 0, "truncation capacity must be nonzero");
        Self {
            cfg,
            weights: FastHashMap::default(),
            keys: IndexedHeap::with_capacity(cfg.capacity),
            rng: SplitMix64::new(cfg.seed ^ 0x5EED_0F1E_5E77_0123),
            scale: ScaleState::new(),
            t: 0,
        }
    }

    /// The configuration this model was built with.
    #[must_use]
    pub fn config(&self) -> &TruncationConfig {
        &self.cfg
    }

    /// Memory cost in bytes under the paper's §7.1 model (id + weight +
    /// reservoir key = 3 units per entry).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cfg.capacity * 3 * crate::budget::BYTES_PER_UNIT
    }

    fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits → U(0,1), never exactly 0.
        ((self.rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn fold_scale(&mut self) {
        let a = self.scale.fold();
        for w in self.weights.values_mut() {
            *w *= a;
        }
        // Reservoir keys depend only on weight *ratios*, which a global
        // rescale leaves unchanged — no key updates needed.
    }
}

impl OnlineLearner for ProbabilisticTruncation {
    fn margin(&self, x: &SparseVector) -> f64 {
        let acc: f64 = x
            .iter()
            .filter_map(|(i, xi)| self.weights.get(&i).map(|w| w * xi))
            .sum();
        self.scale.load(acc)
    }

    fn update(&mut self, x: &SparseVector, y: Label) {
        debug_check_label(y);
        self.t += 1;
        let eta = self.cfg.learning_rate.at(self.t);
        let tau = self.margin(x);
        let g = self.cfg.loss.deriv(f64::from(y) * tau) * f64::from(y);
        if self.scale.decay(eta, self.cfg.lambda) {
            self.fold_scale();
        }
        if g == 0.0 {
            return;
        }
        for (i, xi) in x.iter() {
            let step = self.scale.store(-eta * g * xi);
            match self.weights.get_mut(&i) {
                Some(w) => {
                    let old = *w;
                    let new = old + step;
                    *w = new;
                    // W[i] ← W[i]^{|old/new|}.
                    let old_key = self.keys.priority(&i).expect("key tracked for weight");
                    let new_key = if new == 0.0 {
                        0.0
                    } else {
                        old_key.powf((old / new).abs())
                    };
                    self.keys.insert(i, new_key);
                }
                None => {
                    let new = step;
                    let r = self.uniform();
                    let key = if new == 0.0 {
                        0.0
                    } else {
                        r.powf(1.0 / new.abs())
                    };
                    self.weights.insert(i, new);
                    self.keys.insert(i, key);
                }
            }
        }
        // Truncate to the K largest reservoir keys.
        while self.keys.len() > self.cfg.capacity {
            let (evict, _) = self.keys.pop_min().expect("len > capacity > 0");
            self.weights.remove(&evict);
        }
    }

    fn examples_seen(&self) -> u64 {
        self.t
    }
}

impl WeightEstimator for ProbabilisticTruncation {
    fn estimate(&self, feature: u32) -> f64 {
        self.weights
            .get(&feature)
            .map_or(0.0, |&w| self.scale.load(w))
    }
}

impl TopKRecovery for ProbabilisticTruncation {
    fn recover_top_k(&self, k: usize) -> Vec<WeightEntry> {
        let mut entries: Vec<WeightEntry> = self
            .weights
            .iter()
            .map(|(&feature, &w)| WeightEntry {
                feature,
                weight: self.scale.load(w),
            })
            .collect();
        entries.sort_by(|a, b| {
            b.weight
                .abs()
                .partial_cmp(&a.weight.abs())
                .expect("NaN weight")
                .then(a.feature.cmp(&b.feature))
        });
        entries.truncate(k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_stream(n: usize) -> impl Iterator<Item = (SparseVector, Label)> {
        (0..n).map(|t| {
            let noise = 100 + (t * 31 % 600) as u32;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
    }

    #[test]
    fn simple_truncation_keeps_heavy_features() {
        let mut trun = SimpleTruncation::new(TruncationConfig::new(8).lambda(1e-5));
        for (x, y) in planted_stream(3000) {
            trun.update(&x, y);
        }
        assert!(trun.estimate(3) > 0.2);
        assert!(trun.estimate(9) < -0.2);
        let top: Vec<u32> = trun.recover_top_k(2).iter().map(|e| e.feature).collect();
        assert!(top.contains(&3) && top.contains(&9));
    }

    #[test]
    fn simple_truncation_never_exceeds_capacity() {
        let mut trun = SimpleTruncation::new(TruncationConfig::new(4));
        for (x, y) in planted_stream(500) {
            trun.update(&x, y);
            assert!(trun.recover_top_k(100).len() <= 4);
        }
    }

    #[test]
    fn probabilistic_truncation_keeps_heavy_features() {
        let mut pt = ProbabilisticTruncation::new(TruncationConfig::new(16).lambda(1e-5).seed(1));
        for (x, y) in planted_stream(3000) {
            pt.update(&x, y);
        }
        assert!(pt.estimate(3) > 0.2, "w(3) = {}", pt.estimate(3));
        assert!(pt.estimate(9) < -0.2, "w(9) = {}", pt.estimate(9));
    }

    #[test]
    fn probabilistic_truncation_respects_capacity() {
        let mut pt = ProbabilisticTruncation::new(TruncationConfig::new(8).seed(2));
        for (x, y) in planted_stream(1000) {
            pt.update(&x, y);
            assert!(pt.recover_top_k(100).len() <= 8);
        }
    }

    #[test]
    fn truncation_forgets_discarded_features() {
        // Constant learning rate so newcomers' single-step candidates stay
        // large enough to displace the incumbent.
        let mut trun = SimpleTruncation::new(
            TruncationConfig::new(2).learning_rate(LearningRate::Constant(0.5)),
        );
        // Feature 1 trained briefly, then 2 and 3 trained hard.
        trun.update(&SparseVector::one_hot(1, 1.0), 1);
        for _ in 0..200 {
            trun.update(&SparseVector::one_hot(2, 1.0), 1);
            trun.update(&SparseVector::one_hot(3, 1.0), -1);
        }
        // Capacity 2: feature 1 must be gone — and unlike the AWM-Sketch,
        // there is no sketch to remember it.
        assert_eq!(trun.estimate(1), 0.0);
    }

    #[test]
    fn ptrun_deterministic_given_seed() {
        let run = || {
            let mut pt = ProbabilisticTruncation::new(TruncationConfig::new(8).seed(3));
            for (x, y) in planted_stream(500) {
                pt.update(&x, y);
            }
            let mut feats: Vec<u32> = pt.recover_top_k(8).iter().map(|e| e.feature).collect();
            feats.sort_unstable();
            feats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memory_accounting() {
        let trun = SimpleTruncation::new(TruncationConfig::simple_with_budget_bytes(1024));
        assert_eq!(trun.config().capacity, 128);
        assert_eq!(trun.memory_bytes(), 1024);
        let pt =
            ProbabilisticTruncation::new(TruncationConfig::probabilistic_with_budget_bytes(1200));
        assert_eq!(pt.config().capacity, 100);
        assert_eq!(pt.memory_bytes(), 1200);
    }
}
