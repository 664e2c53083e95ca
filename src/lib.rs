//! # wmsketch — Sketching Linear Classifiers over Data Streams
//!
//! A from-scratch Rust reproduction of Tai, Sharan, Bailis & Valiant,
//! *Sketching Linear Classifiers over Data Streams* (SIGMOD 2018): the
//! **Weight-Median Sketch (WM-Sketch)** and **Active-Set Weight-Median
//! Sketch (AWM-Sketch)** for learning memory-budgeted linear classifiers
//! over streams while supporting recovery of the most heavily-weighted
//! features — plus every substrate, baseline, and application the paper's
//! evaluation depends on.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! * [`hashing`] — tabulation / k-wise polynomial / MurmurHash3 families.
//! * [`sketch`] — Count-Sketch and Count-Min substrates.
//! * [`hh`] — Space-Saving, indexed heaps, top-K tracking.
//! * [`learn`] — losses, OGD, sparse vectors, logistic regression,
//!   feature hashing, evaluation metrics.
//! * [`core`] — the WM-Sketch and AWM-Sketch themselves, the truncation and
//!   frequent-feature baselines, and the paper's memory cost model.
//! * [`datagen`] — seeded synthetic workload generators standing in for the
//!   paper's datasets (see `DESIGN.md` for the substitution table).
//! * [`serve`] — the `WMS1` snapshot codec's transport: a TCP
//!   ingest/query service whose nodes checkpoint, ship, and merge sketches
//!   (exact by linearity) across process boundaries.
//! * [`telemetry`] — the zero-dependency metrics layer the serve stack is
//!   instrumented with: counters, gauges, log2-bucketed latency
//!   histograms, a span journal, and the `wmsketch-metrics/v1` text
//!   exposition scraped via the serve protocol's `METRICS` op.
//! * [`apps`] — the paper's §8 applications: streaming explanation,
//!   relative-deltoid detection, and streaming PMI estimation.
//! * [`faults`] — the deterministic failpoint registry
//!   (`WMSKETCH_FAULTS`) the serve stack's chaos suite injects torn
//!   writes, dropped fsyncs, and connection failures through.
//!
//! ## Quickstart
//!
//! ```
//! use wmsketch::core::{AwmSketch, AwmSketchConfig, OnlineLearner, TopKRecovery};
//! use wmsketch::learn::SparseVector;
//!
//! // An 8 KB classifier over an unbounded feature space.
//! let cfg = AwmSketchConfig::with_budget_bytes(8 * 1024)
//!     .lambda(1e-6)
//!     .seed(42);
//! let mut clf = AwmSketch::new(cfg);
//!
//! // Feature 7 is positively predictive, feature 13 negatively.
//! for t in 0..2000u32 {
//!     let (x, y) = if t % 2 == 0 {
//!         (SparseVector::from_pairs(&[(7, 1.0), (100 + t % 50, 0.3)]), 1)
//!     } else {
//!         (SparseVector::from_pairs(&[(13, 1.0), (400 + t % 50, 0.3)]), -1)
//!     };
//!     clf.update(&x, y);
//! }
//!
//! let top = clf.recover_top_k(2);
//! let ids: Vec<u32> = top.iter().map(|e| e.feature).collect();
//! assert!(ids.contains(&7) && ids.contains(&13));
//! ```

pub use wmsketch_apps as apps;
pub use wmsketch_core as core;
pub use wmsketch_datagen as datagen;
pub use wmsketch_faults as faults;
pub use wmsketch_hashing as hashing;
pub use wmsketch_hh as hh;
pub use wmsketch_learn as learn;
pub use wmsketch_serve as serve;
pub use wmsketch_sketch as sketch;
pub use wmsketch_telemetry as telemetry;
