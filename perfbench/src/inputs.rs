//! Seeded workload inputs, all built before any timing starts.
//!
//! Every workload draws from the rcv1-like generator: a training pool
//! (cycled when a run needs more examples than the pool holds) and a
//! held-out slice for PREDICT traffic and accuracy. UPDATE frames are
//! encoded once, up front, so the timed loops only move bytes.

use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::codec::Writer;
use wmsketch_learn::{Label, SparseVector, WeightEntry};
use wmsketch_serve::protocol::{put_examples, request_for_model, OP_UPDATE};

/// Top-K size of every TOPK request and of the recall metric.
pub const TOPK: usize = 128;

/// One labelled example.
pub type Example = (SparseVector, Label);

/// A workload's generated data.
pub struct Inputs {
    /// Training examples, in stream order.
    pub pool: Vec<Example>,
    /// Examples never trained on.
    pub holdout: Vec<Example>,
    /// The generator's planted top-[`TOPK`] features by |weight|.
    pub planted_top: Vec<u32>,
}

impl Inputs {
    /// Draws `pool` training and `holdout` held-out examples from
    /// `rcv1_like(seed)`.
    pub fn generate(seed: u64, pool: usize, holdout: usize) -> Inputs {
        let mut gen = SyntheticClassification::rcv1_like(seed);
        let mut planted: Vec<(u32, f64)> = gen.planted_model().to_vec();
        planted.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let planted_top = planted.iter().take(TOPK).map(|&(f, _)| f).collect();
        Inputs {
            pool: gen.take(pool),
            holdout: gen.take(holdout),
            planted_top,
        }
    }

    /// Average nonzeros per training example.
    pub fn avg_nnz(&self) -> f64 {
        let total: usize = self.pool.iter().map(|(x, _)| x.nnz()).sum();
        total as f64 / self.pool.len().max(1) as f64
    }
}

/// Share of the planted top features present in a served top-K answer.
pub fn recall(served: &[WeightEntry], planted_top: &[u32]) -> f64 {
    let hits = served
        .iter()
        .filter(|e| planted_top.contains(&e.feature))
        .count();
    hits as f64 / planted_top.len().max(1) as f64
}

/// A complete UPDATE frame (`len | body`) for `model`.
pub fn update_frame(model: u32, batch: &[Example]) -> Vec<u8> {
    let mut w = Writer::new();
    put_examples(&mut w, batch);
    let body = request_for_model(model, OP_UPDATE, w);
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Splits the first `frames × per_frame` stream positions into encoded
/// UPDATE frames for `model`, one per distinct pool window. Frame `k` of
/// a run is `encoded[k % encoded.len()]`.
pub fn encode_pool_frames(inputs: &Inputs, model: u32, per_frame: usize) -> Vec<Vec<u8>> {
    let distinct = (inputs.pool.len() / per_frame).max(1);
    (0..distinct)
        .map(|k| update_frame(model, &inputs.pool[k * per_frame..(k + 1) * per_frame]))
        .collect()
}
