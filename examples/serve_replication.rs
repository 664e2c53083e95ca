//! Multi-node replication with delta-snapshot anti-entropy gossip: three
//! nodes each ingest a partition of the stream, gossip delta records to
//! one another in the background, and end up serving **bit-identical**
//! merged views — the same estimates, margins, and top-K a single node
//! folding all three copies would produce.
//!
//! ```sh
//! cargo run --release --example serve_replication
//! ```
//!
//! Each node is authoritative for its own copy of the model (one plain
//! learner, like every hosted model) and keeps a replica of every other
//! origin, advanced purely by pulled records: a full `WMS1` snapshot the
//! first time, sparse delta records — just the cells touched since the
//! replica's applied clock — afterwards. Reads then serve the canonical
//! fold of all origins in ascending node-id order, which is what makes
//! every node's answers identical bit for bit.
//!
//! Exits non-zero if any parity assertion fails, so CI can run this as
//! the replication smoke check.

use std::time::{Duration, Instant};

use wmsketch::core::{decode_any_learner, SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch::learn::SparseVector;
use wmsketch::serve::{ServeClient, ServeConfig, ServerHandle, WmServer};

fn main() {
    let wm = WmSketchConfig::new(1024, 4).lambda(1e-5).seed(42);
    let template = WmSketch::new(wm).to_snapshot_bytes();

    // Three gossiping nodes on ephemeral loopback ports. The node id is
    // the replication identity; the gossip interval drives the
    // anti-entropy tick.
    let node = |id: u64| -> ServerHandle {
        WmServer::bind(
            "127.0.0.1:0",
            ServeConfig::new(wm, 1).node_id(id).gossip_every_ms(25),
        )
        .expect("bind node")
        .spawn()
    };
    let nodes = [node(1), node(2), node(3)];
    for (i, n) in nodes.iter().enumerate() {
        println!("node {} @ {}", i + 1, n.addr());
    }

    // Host the shared model "m" on every node, and wire the
    // full gossip mesh. PEER_JOIN is idempotent per (id, addr), so a
    // restarted node re-joins with its new address the same way.
    let mut clients: Vec<ServeClient> = nodes
        .iter()
        .map(|n| {
            let mut c = ServeClient::connect(n.addr()).expect("connect");
            let id = c.create_model("m", &template, 0).expect("create model");
            c.set_model(id).expect("address model");
            c
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        for (j, peer) in nodes.iter().enumerate() {
            if i != j {
                c.peer_join(j as u64 + 1, &peer.addr().to_string())
                    .expect("peer join");
            }
        }
    }

    // A labelled stream, partitioned across the nodes round-robin:
    // feature 7 marks +1, feature 13 marks −1, the rest is noise.
    let stream: Vec<(SparseVector, i8)> = (0..9_000u32)
        .map(|t| {
            let noise = 1000 + (t.wrapping_mul(2_654_435_761) % 100_000);
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(7, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(13, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect();
    let parts: Vec<Vec<_>> = (0..3)
        .map(|i| stream.iter().skip(i).step_by(3).cloned().collect())
        .collect();
    for (c, part) in clients.iter_mut().zip(&parts) {
        for chunk in part.chunks(512) {
            c.update_batch(chunk).expect("ingest");
        }
    }
    println!(
        "ingested {} examples: {} / {} / {} per node",
        stream.len(),
        parts[0].len(),
        parts[1].len(),
        parts[2].len()
    );

    // The reference the cluster must converge to: each partition replayed
    // locally, folded in ascending node-id order.
    let locals: Vec<Vec<u8>> = parts
        .iter()
        .map(|part| {
            let mut l = decode_any_learner(&template).expect("decode template");
            l.update_batch(part);
            l.snapshot().expect("snapshot")
        })
        .collect();
    let mut reference = decode_any_learner(&locals[0]).expect("decode");
    for local in &locals[1..] {
        let peer = decode_any_learner(local).expect("decode");
        reference.absorb_peer(&*peer).expect("fold");
    }
    let want = reference.snapshot().expect("reference snapshot");

    // Wait for anti-entropy to carry every origin everywhere. The timed
    // line is the `replication_convergence` smoke row CI tracks.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(30);
    loop {
        let converged = clients
            .iter_mut()
            .all(|c| c.snapshot().expect("snapshot") == want);
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster failed to converge within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("converged: every node's merged view ≡ the reference fold ✓");
    println!(
        "replication_convergence: 3 nodes, {} examples, bit-identical in {} ms",
        stream.len(),
        t0.elapsed().as_millis()
    );

    // Every read is now bit-identical across the cluster.
    for c in &mut clients {
        for f in [7u32, 13, 1000, 99_999] {
            assert_eq!(
                c.estimate(f).expect("estimate").to_bits(),
                reference.estimate(f).to_bits(),
                "estimate parity broke at feature {f}"
            );
        }
        let probe = SparseVector::from_pairs(&[(7, 0.4), (13, 0.8)]);
        let (margin, _) = c.predict(&probe).expect("predict");
        assert_eq!(margin.to_bits(), reference.margin(&probe).to_bits());
        let top = c.top_k(4).expect("top-k");
        for (got, exp) in top.iter().zip(reference.recover_top_k(4)) {
            assert_eq!(got.feature, exp.feature);
            assert_eq!(got.weight.to_bits(), exp.weight.to_bits());
        }
    }
    println!("parity: estimates, margins, and top-K identical on all nodes ✓");

    // The replication table: the shipped-clock vector (what each peer
    // acked of this node's copy) and each origin replica's applied clock.
    let stats = clients[0].stats().expect("stats");
    println!("\nnode {} replication table:", stats.node_id);
    for row in stats
        .replication
        .iter()
        .filter(|r| r.model == clients[0].model())
    {
        println!(
            "  peer {}  acked {:>5}  applied {:>5}",
            row.peer, row.acked, row.applied
        );
    }

    println!("\ntop-4 features by |weight| on node 1:");
    for e in clients[0].top_k(4).expect("top-k") {
        println!("  feature {:>7}  weight {:+.4}", e.feature, e.weight);
    }

    drop(clients);
    for n in nodes {
        n.shutdown();
    }
}
