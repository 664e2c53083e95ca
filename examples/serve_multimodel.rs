//! Multi-model serving quickstart: one node, several learners, one wire
//! protocol — plus the distributed-vs-local parity guarantee for AWM and
//! multiclass models through the registry.
//!
//! ```sh
//! cargo run --release --example serve_multimodel
//! ```
//!
//! A serving node hosts a **model registry**: the default WM model plus
//! any number of named models created at runtime from untrained template
//! snapshots (the template carries the full configuration, so one CREATE
//! op covers every registered learner kind — WM, AWM, multiclass AWM).
//! Because all of them are linear sketches underneath, snapshot
//! ship-and-merge stays *exact* for every kind: this example drives an
//! AWM model and a 3-class multiclass model end to end over the wire
//! (ingest → snapshot → merge → query) and asserts the aggregated models
//! are bit-identical to the in-process merge of two learners trained on
//! the same halves of the streams.
//!
//! Exits non-zero if any parity assertion fails, so CI runs this as the
//! registry round-trip check.

use wmsketch::core::{
    AwmSketch, AwmSketchConfig, DynLearner, MergeableLearner, MulticlassAwmSketch,
    MulticlassConfig, SnapshotCodec, WmSketchConfig,
};
use wmsketch::learn::SparseVector;
use wmsketch::serve::{ServeClient, ServeConfig, ServeError, ServerHandle, WmServer};

/// Binary stream: feature 7 marks +1, feature 13 marks −1.
fn binary_stream(n: u32) -> Vec<(SparseVector, i8)> {
    (0..n)
        .map(|t| {
            let noise = 1000 + (t.wrapping_mul(2_654_435_761) % 100_000);
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(7, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(13, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

/// 3-class stream: class c is signalled by feature 10+c; labels on the
/// wire are class indices.
fn class_stream(n: u32) -> Vec<(SparseVector, i8)> {
    (0..n)
        .map(|t| {
            let c = t % 3;
            let noise = 500 + (t.wrapping_mul(11) % 300);
            (
                SparseVector::from_pairs(&[(10 + c, 1.0), (noise, 0.5)]),
                c as i8,
            )
        })
        .collect()
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// Creates `name` from `template` on a node and switches the client to it.
fn client_with_model(
    server: &ServerHandle,
    name: &str,
    template: &[u8],
    shards: u32,
) -> Result<ServeClient, ServeError> {
    let mut c = ServeClient::connect(server.addr())?;
    let id = c.create_model(name, template, shards)?;
    c.set_model(id)?;
    Ok(c)
}

/// Drives one model kind end to end: the stream split by position (even
/// examples to node A, odd to B) across two ingest nodes whose snapshots
/// merge into an aggregator, and the same halves into two clones of
/// `fresh` merged in process into a third, in node order; then asserts
/// estimates, margins, predictions, top-K, and clock are bit-identical.
fn parity<L>(
    label: &str,
    template: &[u8],
    fresh: L,
    stream: &[(SparseVector, i8)],
    probes: &[SparseVector],
) where
    L: MergeableLearner + DynLearner + Clone,
{
    // All three nodes' default WM model is irrelevant; keep it tiny.
    let host = ServeConfig::new(WmSketchConfig::new(16, 1).heap_capacity(1), 1);
    let node_a = start(host.clone());
    let node_b = start(host.clone());
    let aggregator = start(host);

    let mut a = client_with_model(&node_a, label, template, 1).expect("create on A");
    let mut b = client_with_model(&node_b, label, template, 1).expect("create on B");
    let mut agg = client_with_model(&aggregator, label, template, 1).expect("create on agg");

    let (mut sub_a, mut sub_b) = (Vec::new(), Vec::new());
    for (i, ex) in stream.iter().enumerate() {
        if i % 2 == 0 {
            sub_a.push(ex.clone());
        } else {
            sub_b.push(ex.clone());
        }
    }
    let (mut ref_a, mut ref_b) = (fresh.clone(), fresh.clone());
    DynLearner::update_batch(&mut ref_a, &sub_a);
    DynLearner::update_batch(&mut ref_b, &sub_b);
    let mut reference = fresh;
    reference.merge_from(&ref_a);
    reference.merge_from(&ref_b);
    a.update_batch(&sub_a).expect("ingest A");
    b.update_batch(&sub_b).expect("ingest B");

    let snap_a = a.snapshot().expect("snapshot A");
    let snap_b = b.snapshot().expect("snapshot B");
    agg.merge_snapshot(&snap_a).expect("merge A");
    let clock = agg.merge_snapshot(&snap_b).expect("merge B");
    assert_eq!(clock, stream.len() as u64);

    for f in (0..64u32).chain([500, 1000, 4242]) {
        let lhs = agg.estimate(f).expect("agg estimate");
        let rhs = DynLearner::estimate(&reference, f);
        assert!(
            lhs.to_bits() == rhs.to_bits(),
            "{label}: estimate parity broke at feature {f}: {lhs} vs {rhs}"
        );
    }
    for probe in probes {
        let (m1, p1) = agg.predict(probe).expect("agg predict");
        let (m2, p2) = (
            DynLearner::margin(&reference, probe),
            DynLearner::predict(&reference, probe),
        );
        assert!(
            m1.to_bits() == m2.to_bits(),
            "{label}: margin parity {m1} vs {m2}"
        );
        assert_eq!(p1, p2, "{label}: prediction parity");
    }
    let t1 = agg.top_k(8).expect("agg top-k");
    let t2 = DynLearner::recover_top_k(&reference, 8);
    assert_eq!(t1.len(), t2.len());
    for (x, y) in t1.iter().zip(&t2) {
        assert_eq!(x.feature, y.feature, "{label}: top-K order diverged");
        assert!(x.weight.to_bits() == y.weight.to_bits());
    }
    assert_eq!(
        clock,
        DynLearner::examples_seen(&reference),
        "{label}: clock parity"
    );
    println!("parity[{label}]: aggregated ≡ in-process reference, bit for bit ✓");

    for s in [node_a, node_b, aggregator] {
        s.shutdown();
    }
}

fn main() {
    // ── Part 1: several models on one node ─────────────────────────────
    let hub = start(ServeConfig::new(
        WmSketchConfig::new(256, 4).lambda(1e-5).seed(42),
        1,
    ));
    println!("hub node @ {}", hub.addr());

    let awm_cfg = AwmSketchConfig::new(64, 1024).lambda(1e-5).seed(42);
    let mc_cfg = MulticlassConfig {
        classes: 3,
        per_class: AwmSketchConfig::new(32, 256).lambda(1e-5).seed(9),
    };
    let awm_template = AwmSketch::new(awm_cfg).to_snapshot_bytes();
    let mc_template = MulticlassAwmSketch::new(mc_cfg).to_snapshot_bytes();

    let mut hub_client = ServeClient::connect(hub.addr()).expect("connect hub");
    let awm_id = hub_client
        .create_model("spam-awm", &awm_template, 0)
        .expect("create AWM");
    let mc_id = hub_client
        .create_model("topic-mc", &mc_template, 1)
        .expect("create multiclass");

    // Default WM model (id 0) and the AWM model learn the binary stream;
    // the multiclass model learns class labels — same ops, same wire.
    let bin = binary_stream(6000);
    let classes = class_stream(6000);
    hub_client.update_batch(&bin).expect("ingest default");
    hub_client.set_model(awm_id).expect("address awm");
    hub_client.update_batch(&bin).expect("ingest awm");
    hub_client.set_model(mc_id).expect("address mc");
    hub_client.update_batch(&classes).expect("ingest mc");

    hub_client.set_model(0).expect("address default");
    let (_, default_label) = hub_client
        .predict(&SparseVector::one_hot(7, 1.0))
        .expect("default predict");
    assert_eq!(default_label, 1);
    hub_client.set_model(awm_id).expect("address awm");
    let (margin, label) = hub_client
        .predict(&SparseVector::one_hot(7, 1.0))
        .expect("awm predict");
    println!("\nAWM model, feature 7 alone: {label:+} (margin {margin:+.3})");
    hub_client.set_model(mc_id).expect("address mc");
    for c in 0..3u32 {
        let (_, predicted) = hub_client
            .predict(&SparseVector::one_hot(10 + c, 1.0))
            .expect("mc predict");
        assert_eq!(predicted, c as i8, "multiclass misclassified class {c}");
    }
    println!("multiclass model: classes 0..3 separated over the wire ✓");

    println!("\nregistry after ingest (kind / clock / memory):");
    for m in hub_client.list_models().expect("list") {
        println!(
            "  #{:<2} {:<10} kind {:#04x}  clock {:>5}  {:>6} B",
            m.id, m.name, m.kind, m.clock, m.memory_bytes
        );
    }
    hub.shutdown();

    // ── Part 2: distributed-vs-local parity per kind ───────────────────
    parity(
        "spam-awm",
        &awm_template,
        AwmSketch::new(awm_cfg),
        &binary_stream(8000),
        &[
            SparseVector::one_hot(7, 1.0),
            SparseVector::one_hot(13, 1.0),
            SparseVector::from_pairs(&[(7, 0.4), (13, 0.8)]),
        ],
    );
    parity(
        "topic-mc",
        &mc_template,
        MulticlassAwmSketch::new(mc_cfg),
        &class_stream(8000),
        &[
            SparseVector::one_hot(10, 1.0),
            SparseVector::one_hot(11, 1.0),
            SparseVector::one_hot(12, 1.0),
        ],
    );
    println!("\nall registry models round-trip with exact aggregation ✓");
}
