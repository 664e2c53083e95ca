//! Distributed ingest with exact aggregation: two ingest nodes ship
//! `WMS1` snapshots into an aggregator whose model is **bit-identical**
//! to the in-process merge of two learners trained on the same halves.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! The WM-Sketch is a linear sketch, so the sketch of two merged gradient
//! streams equals the sum of the two sketches — shipping and summing
//! snapshots is exact, not approximate. The reference splits the stream
//! by the same fixed rule as the ingest nodes (even positions to A, odd to
//! B), trains two plain learners, and merges both into a fresh learner in
//! node order, as the aggregator does.
//!
//! Exits non-zero if any parity assertion fails, so CI can run this as
//! the serve round-trip check.

use wmsketch::core::{DynLearner, MergeableLearner, WmSketch, WmSketchConfig};
use wmsketch::learn::SparseVector;
use wmsketch::serve::{ServeClient, ServeConfig, WmServer};

fn main() {
    let wm = WmSketchConfig::new(256, 4).lambda(1e-5).seed(42);

    // The distributed layout: two ingest nodes plus an aggregator, all on
    // ephemeral loopback ports.
    let node_cfg = ServeConfig::new(wm, 1);
    let node_a = WmServer::bind("127.0.0.1:0", node_cfg.clone())
        .expect("bind node A")
        .spawn();
    let node_b = WmServer::bind("127.0.0.1:0", node_cfg.clone())
        .expect("bind node B")
        .spawn();
    let aggregator = WmServer::bind("127.0.0.1:0", node_cfg)
        .expect("bind aggregator")
        .spawn();
    println!("ingest A     @ {}", node_a.addr());
    println!("ingest B     @ {}", node_b.addr());
    println!("aggregator   @ {}", aggregator.addr());

    // A labelled stream: feature 7 marks +1, feature 13 marks −1, the
    // rest is high-dimensional noise.
    let stream: Vec<(SparseVector, i8)> = (0..10_000u32)
        .map(|t| {
            let noise = 1000 + (t.wrapping_mul(2_654_435_761) % 500_000);
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(7, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(13, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect();

    // Split the stream by position: even examples go to node A, odd to B.
    let (mut sub_a, mut sub_b) = (Vec::new(), Vec::new());
    for (i, ex) in stream.iter().enumerate() {
        if i % 2 == 0 {
            sub_a.push(ex.clone());
        } else {
            sub_b.push(ex.clone());
        }
    }

    // The reference: one plain learner per half, merged into a fresh
    // learner in node order — the in-process twin of the aggregator.
    let (mut ref_a, mut ref_b) = (WmSketch::new(wm), WmSketch::new(wm));
    DynLearner::update_batch(&mut ref_a, &sub_a);
    DynLearner::update_batch(&mut ref_b, &sub_b);
    let mut reference = WmSketch::new(wm);
    reference.merge_from(&ref_a);
    reference.merge_from(&ref_b);

    // Pipelined ingest: frames of 1024 examples with several in flight
    // per connection, which the node reads ahead of execution.
    // The response ordering guarantee makes the returned counts the
    // exact cumulative sequence per-frame blocking calls would yield.
    let mut a = ServeClient::connect(node_a.addr()).expect("connect A");
    let counts = a.update_many(&sub_a, 1024, 8).expect("ingest A");
    assert_eq!(counts.last().copied(), Some(sub_a.len() as u64));
    let mut b = ServeClient::connect(node_b.addr()).expect("connect B");
    b.update_many(&sub_b, 1024, 8).expect("ingest B");
    println!(
        "ingested {} examples: {} via node A, {} via node B",
        stream.len(),
        sub_a.len(),
        sub_b.len()
    );

    // Ship both snapshots into the aggregator (node order).
    let snap_a = a.snapshot().expect("snapshot A");
    let snap_b = b.snapshot().expect("snapshot B");
    let mut agg = ServeClient::connect(aggregator.addr()).expect("connect aggregator");
    agg.merge_snapshot(&snap_a).expect("merge A");
    let clock = agg.merge_snapshot(&snap_b).expect("merge B");
    println!(
        "shipped {} + {} snapshot bytes; aggregator clock = {clock}",
        snap_a.len(),
        snap_b.len()
    );
    assert_eq!(clock, stream.len() as u64);

    // Parity: the aggregated model must match the reference bit for bit
    // — estimates, margins, predictions, and top-K.
    for f in (0..32u32).chain([7, 13, 1000, 250_000].iter().copied()) {
        let lhs = agg.estimate(f).expect("agg estimate");
        let rhs = DynLearner::estimate(&reference, f);
        assert!(
            lhs.to_bits() == rhs.to_bits(),
            "estimate parity broke at feature {f}: {lhs} vs {rhs}"
        );
    }
    for probe in [
        SparseVector::one_hot(7, 1.0),
        SparseVector::one_hot(13, 1.0),
        SparseVector::from_pairs(&[(7, 0.4), (13, 0.8)]),
    ] {
        let (m1, p1) = agg.predict(&probe).expect("agg predict");
        let (m2, p2) = (
            DynLearner::margin(&reference, &probe),
            DynLearner::predict(&reference, &probe),
        );
        assert!(m1.to_bits() == m2.to_bits(), "margin parity: {m1} vs {m2}");
        assert_eq!(p1, p2);
    }
    let t1 = agg.top_k(8).expect("agg top-k");
    let t2 = DynLearner::recover_top_k(&reference, 8);
    assert_eq!(t1.len(), t2.len());
    for (x, y) in t1.iter().zip(&t2) {
        assert_eq!(x.feature, y.feature, "top-K feature order diverged");
        assert!(x.weight.to_bits() == y.weight.to_bits());
    }
    assert_eq!(clock, DynLearner::examples_seen(&reference), "clock parity");
    println!("parity: aggregated model ≡ in-process reference, bit for bit ✓");

    let (margin, label) = agg
        .predict(&SparseVector::one_hot(7, 1.0))
        .expect("predict");
    println!("\naggregator prediction for feature 7 alone: {label:+} (margin {margin:+.3})");
    println!("top-4 features by |weight| on the aggregator:");
    for e in t1.iter().take(4) {
        println!("  feature {:>7}  weight {:+.4}", e.feature, e.weight);
    }

    for s in [node_a, node_b, aggregator] {
        s.shutdown();
    }
}
