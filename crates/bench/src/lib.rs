//! Micro-benchmarks for the WM-Sketch reproduction.
//!
//! The library target is empty; the criterion-style bench targets live in
//! `benches/`:
//!
//! * `update_throughput` — per-update cost of every budgeted method on an
//!   RCV1-like stream at the Table 2 configurations; together with the
//!   unconstrained-LR baseline this regenerates the *shape* of Fig. 7
//!   (normalized runtime).
//! * `sketch_ops` — Count-Sketch / Count-Min update and query costs.
//! * `hashing` — tabulation vs polynomial vs MurmurHash3 evaluation cost.
//! * `structures` — indexed-heap and Space-Saving operation costs.
//!
//! End-to-end serving figures (ingest and query throughput, latency
//! quantiles, the governed model fleet) come from the repository
//! benchmark in `perfbench/`, not from this crate.
