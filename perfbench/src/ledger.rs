//! The outside-in stage ledger: each stage of a sketch update replayed
//! alone, through the crates' public functions, over a workload's exact
//! example stream.
//!
//! For a WM model the replay is the learner's own update, step for step:
//! `RowHashers::fill_plan`, the margin gather, `slot_scatter_and_values`
//! with the learner's step size, `median_inplace` over each touched
//! feature's row values, and `TopKWeights::offer` of the re-estimate.
//! Scatters for one example run before its medians, which reads the same
//! values the fused loop reads (each slot's values are copied right after
//! its own scatter), so the replayed heap ends up holding exactly the
//! twin's features — the traced run checks that.
//!
//! An AWM model has depth 1 and an exact active set, so its replay is
//! only AWM-shaped: every feature takes the sketch path (hash, gather,
//! scatter) and its sketch estimate is offered to an active set of `|S|`
//! entries. `core.ledger_coverage` shows how far that is from the real
//! update.
//!
//! The stream is replayed in blocks. Each block is first fed to a timing
//! twin through `update_batch` (the node's own call), then replayed stage
//! by stage, so the two timings of a block see the same machine. Every
//! figure is a median over blocks, which keeps a neighbour's burst of
//! CPU use from moving it.

use std::time::Instant;

use wmsketch_core::{decode_any_learner, AwmSketchConfig, WmSketchConfig};
use wmsketch_hashing::{CoordPlan, HashFamilyKind, RowHashers};
use wmsketch_hh::TopKWeights;
use wmsketch_learn::{LearningRate, Loss, LossKind, ScaleState};
use wmsketch_sketch::median_inplace;

use crate::inputs::Example;
use crate::stats::{median, ns};

/// The learner parameters a replay needs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub width: u32,
    pub depth: u32,
    pub heap_capacity: usize,
    pub lambda: f64,
    pub learning_rate: LearningRate,
    pub loss: LossKind,
    pub hash_family: HashFamilyKind,
    pub seed: u64,
}

impl From<&WmSketchConfig> for Shape {
    fn from(c: &WmSketchConfig) -> Shape {
        Shape {
            width: c.width,
            depth: c.depth,
            heap_capacity: c.heap_capacity,
            lambda: c.lambda,
            learning_rate: c.learning_rate,
            loss: c.loss,
            hash_family: c.hash_family,
            seed: c.seed,
        }
    }
}

impl From<&AwmSketchConfig> for Shape {
    fn from(c: &AwmSketchConfig) -> Shape {
        Shape {
            width: c.width,
            depth: c.depth,
            heap_capacity: c.heap_capacity,
            lambda: c.lambda,
            learning_rate: c.learning_rate,
            loss: c.loss,
            hash_family: c.hash_family,
            seed: c.seed,
        }
    }
}

/// Stages, in the order a block's per-update figures are stored.
const FILL: usize = 0;
const GATHER: usize = 1;
const SCATTER: usize = 2;
const MEDIAN: usize = 3;
const OFFER: usize = 4;
const UPDATE: usize = 5;

/// What one replay measured.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub examples: u64,
    pub median_calls: u64,
    pub offers: u64,
    /// Per block: ns per update of each stage, and of the whole update.
    blocks: Vec<[f64; 6]>,
    /// Features the replayed heap ends with, ascending.
    pub heap_features: Vec<u32>,
}

impl Ledger {
    fn stage(&self, i: usize) -> f64 {
        median(self.blocks.iter().map(|b| b[i]).collect())
    }

    pub fn fill_ns(&self) -> f64 {
        self.stage(FILL)
    }
    pub fn gather_ns(&self) -> f64 {
        self.stage(GATHER)
    }
    pub fn scatter_ns(&self) -> f64 {
        self.stage(SCATTER)
    }
    pub fn median_ns(&self) -> f64 {
        self.stage(MEDIAN)
    }
    pub fn offer_ns(&self) -> f64 {
        self.stage(OFFER)
    }
    /// The timing twin's `update_batch`, per example.
    pub fn update_ns(&self) -> f64 {
        self.stage(UPDATE)
    }

    /// Median over blocks of (replayed stages ÷ real update).
    pub fn coverage(&self) -> f64 {
        median(
            self.blocks
                .iter()
                .map(|b| b[..UPDATE].iter().sum::<f64>() / b[UPDATE])
                .collect(),
        )
    }

    pub fn per_update(&self, count: u64) -> f64 {
        count as f64 / self.examples.max(1) as f64
    }
}

/// Median cost of one `Instant::now()` call, taken out of every timed
/// interval.
fn timer_cost_ns() -> f64 {
    median(
        (0..2001)
            .map(|_| {
                let a = Instant::now();
                ns(Instant::now() - a) as f64
            })
            .collect(),
    )
}

/// Replays `batches` (the stream in order, as the node received it) in
/// blocks of at least `block_examples` examples.
pub fn replay(
    shape: Shape,
    template: &[u8],
    batches: &[&[Example]],
    block_examples: usize,
) -> Ledger {
    let timer = timer_cost_ns();
    let mut twin = decode_any_learner(template).expect("template decodes");
    let hashers = RowHashers::new(shape.hash_family, shape.depth, shape.width, shape.seed);
    let depth = shape.depth as usize;
    let s = f64::from(shape.depth);
    let (inv_sqrt_s, sqrt_s) = (1.0 / s.sqrt(), s.sqrt());
    let mut z = vec![0.0f64; depth * shape.width as usize];
    let mut scale = ScaleState::new();
    let mut heap = TopKWeights::new(shape.heap_capacity.max(1));
    let mut plan = CoordPlan::new();
    let mut values: Vec<f64> = Vec::new();
    let mut estimates: Vec<f64> = Vec::new();
    let mut led = Ledger::default();
    let mut t = 0u64;
    let mut at = 0;
    while at < batches.len() {
        let mut end = at;
        let mut n = 0;
        while end < batches.len() && n < block_examples {
            n += batches[end].len();
            end += 1;
        }
        let block = &batches[at..end];
        at = end;
        let mut totals = [0.0f64; 6];
        let started = Instant::now();
        for batch in block {
            twin.update_batch(batch);
        }
        totals[UPDATE] = ns(started.elapsed()) as f64;
        for (x, y) in block.iter().flat_map(|b| b.iter()) {
            t += 1;
            let eta = shape.learning_rate.at(t);
            let t0 = Instant::now();
            hashers.fill_plan(&mut plan, x.indices());
            let t1 = Instant::now();
            let mut acc = 0.0;
            for (slot, xi) in x.values().iter().enumerate() {
                acc += xi * plan.slot_projection(slot, &z);
            }
            let t2 = Instant::now();
            totals[FILL] += ns(t1 - t0) as f64 - timer;
            totals[GATHER] += ns(t2 - t1) as f64 - timer;
            let tau = scale.load(acc * inv_sqrt_s);
            let yf = f64::from(*y);
            let g = shape.loss.deriv(yf * tau) * yf;
            if scale.decay(eta, shape.lambda) {
                let a = scale.fold();
                z.iter_mut().for_each(|v| *v *= a);
            }
            if g == 0.0 {
                continue;
            }
            values.clear();
            let t3 = Instant::now();
            for (slot, xi) in x.values().iter().enumerate() {
                let delta = scale.store(-eta * g * xi * inv_sqrt_s);
                values.extend_from_slice(plan.slot_scatter_and_values(slot, &mut z, delta, sqrt_s));
            }
            let t4 = Instant::now();
            estimates.clear();
            if depth > 1 {
                estimates.extend(values.chunks_exact_mut(depth).map(median_inplace));
                led.median_calls += x.nnz() as u64;
            } else {
                estimates.extend(values.iter().map(|v| v + 0.0));
            }
            let t5 = Instant::now();
            for (&feature, &est) in x.indices().iter().zip(&estimates) {
                heap.offer(feature, est);
            }
            let t6 = Instant::now();
            led.offers += x.nnz() as u64;
            totals[SCATTER] += ns(t4 - t3) as f64 - timer;
            if depth > 1 {
                totals[MEDIAN] += ns(t5 - t4) as f64 - timer;
            }
            totals[OFFER] += ns(t6 - t5) as f64 - timer;
        }
        led.examples += n as u64;
        led.blocks.push(totals.map(|v| v.max(0.0) / n as f64));
    }
    led.heap_features = heap.iter().map(|e| e.feature).collect();
    led.heap_features.sort_unstable();
    led
}
