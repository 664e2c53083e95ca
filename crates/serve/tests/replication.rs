//! End-to-end replication tests: a 3-node cluster under partition and a
//! node restart converging bit-identically to the single-node fold via
//! delta-snapshot gossip; wire-level delta economy (a 1%-changed model
//! ships ≤10% of a full snapshot); the shipped-clock vector's
//! idempotent/monotonic ACK surface in STATS; PEER_JOIN validation; the
//! merged-clock MERGE regression; and the default model's restart
//! recovery from a peer replica.
//!
//! The gossip schedule is randomized but reproducible: set
//! `WMSKETCH_REPL_SEED` to replay a CI failure (the seed is printed).

use std::time::{Duration, Instant};

use wmsketch_core::{decode_any_learner, SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::protocol::PULL_SINCE_FULL;
use wmsketch_serve::{ServeClient, ServeConfig, ServeError, ServerHandle, WmServer};

/// The sketch geometry every test shares; small enough to converge fast,
/// big enough that full snapshots dwarf deltas.
fn wm_cfg() -> WmSketchConfig {
    WmSketchConfig::new(512, 4).lambda(1e-5).seed(7)
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// SplitMix64 — drives the reproducible schedule.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn schedule_seed() -> u64 {
    let seed = std::env::var("WMSKETCH_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE);
    eprintln!("replication schedule seed: {seed} (set WMSKETCH_REPL_SEED to replay)");
    seed
}

/// A labelled stream with a planted signal pair and seeded noise,
/// pre-partitioned across `nodes` uniformly at random.
fn partitioned_stream(seed: u64, n: usize, nodes: usize) -> Vec<Vec<(SparseVector, Label)>> {
    let mut rng = seed;
    let mut parts = vec![Vec::new(); nodes];
    for t in 0..n {
        let r = splitmix64(&mut rng);
        let noise = 100 + (r % 400) as u32;
        let ex = if t % 2 == 0 {
            (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
        } else {
            (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
        };
        parts[(splitmix64(&mut rng) % nodes as u64) as usize].push(ex);
    }
    parts
}

/// Creates the shared model "m" on a node and returns a client
/// addressing it.
fn host_model(server: &ServerHandle) -> ServeClient {
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let template = WmSketch::new(wm_cfg()).to_snapshot_bytes();
    let id = c.create_model("m", &template, 0).unwrap();
    c.set_model(id).unwrap();
    c
}

/// Polls `f` until it returns true or `secs` elapse.
fn wait_for(secs: u64, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// The acceptance-criteria test: three gossiping nodes each ingest a
/// random partition of the stream while the cluster starts partitioned
/// (node 3 isolated), heals, and has node 2 restart from nothing mid-way
/// — yet every node's merged view must end bit-identical to a
/// single-node reference fold (snapshot bytes, estimates, margins, and
/// top-K alike).
#[test]
fn three_nodes_converge_event() {
    let seed = schedule_seed();
    let node = |id: u64| {
        start(
            ServeConfig::new(wm_cfg(), 1)
                .node_id(id)
                .gossip_every_ms(20),
        )
    };
    let n1 = node(1);
    let n2 = node(2);
    let n3 = node(3);
    let mut c1 = host_model(&n1);
    let mut c2 = host_model(&n2);
    let mut c3 = host_model(&n3);

    // Phase A: the cluster is partitioned — only 1↔2 can gossip; node 3
    // ingests alone.
    c1.peer_join(2, &n2.addr().to_string()).unwrap();
    c2.peer_join(1, &n1.addr().to_string()).unwrap();

    let phase_a = partitioned_stream(seed, 1800, 3);
    let phase_b = partitioned_stream(seed ^ 0x5EED, 1200, 3);
    for (c, part) in [&mut c1, &mut c2, &mut c3].into_iter().zip(&phase_a) {
        for chunk in part.chunks(97) {
            c.update_batch(chunk).unwrap();
        }
    }

    // Wait until 1 and 2 hold each other's phase-A state (the shipped
    // clocks in STATS show what crossed the one healthy link), and until
    // node 1's shipped-clock vector shows node 2's ack of its copy (the
    // ack rides the round *after* the pull, so it trails `applied`).
    let (a1, a2) = (phase_a[0].len() as u64, phase_a[1].len() as u64);
    assert!(
        wait_for(30, || {
            let s1 = c1.stats().unwrap();
            let s2 = c2.stats().unwrap();
            let applied = |s: &wmsketch_serve::ServeStats, model: u32, peer: u64| {
                s.replication
                    .iter()
                    .find(|r| r.model == model && r.peer == peer)
                    .map_or(0, |r| r.applied)
            };
            let acked = s1
                .replication
                .iter()
                .find(|r| r.model == c1.model() && r.peer == 2)
                .map_or(0, |r| r.acked);
            applied(&s1, c1.model(), 2) >= a2 && applied(&s2, c2.model(), 1) >= a1 && acked >= a1
        }),
        "phase-A gossip (incl. node 2's ack of node 1's copy) never converged"
    );
    let s1 = c1.stats().unwrap();
    assert_eq!(s1.node_id, 1);

    // Node 2 restarts from nothing: its local copy must come back from
    // its peers' replicas, bit-identically.
    let n2_addr_old = n2.addr();
    n2.shutdown();
    let n2 = node(2);
    let mut c2 = host_model(&n2);
    c2.peer_join(1, &n1.addr().to_string()).unwrap();
    assert_ne!(n2_addr_old, n2.addr());

    // Heal the partition: full mesh, everyone on node 2's new address.
    c1.peer_join(3, &n3.addr().to_string()).unwrap();
    c2.peer_join(3, &n3.addr().to_string()).unwrap();
    c3.peer_join(1, &n1.addr().to_string()).unwrap();
    c3.peer_join(2, &n2.addr().to_string()).unwrap();
    c1.peer_join(2, &n2.addr().to_string()).unwrap();

    // Self-recovery: node 2 readopts its own origin before ingesting on.
    assert!(
        wait_for(30, || c2.stats().unwrap().root_examples >= a2),
        "node 2 never recovered its own copy after restart"
    );

    // Phase B: everyone ingests their share of the rest of the stream.
    for (c, part) in [&mut c1, &mut c2, &mut c3].into_iter().zip(&phase_b) {
        for chunk in part.chunks(101) {
            c.update_batch(chunk).unwrap();
        }
    }

    // The single-node reference: each origin's copy replayed locally,
    // folded in ascending origin order — exactly the canonical merged
    // view every node must serve.
    let template = WmSketch::new(wm_cfg()).to_snapshot_bytes();
    let locals: Vec<Vec<u8>> = (0..3)
        .map(|i| {
            let mut l = decode_any_learner(&template).unwrap();
            l.update_batch(&phase_a[i]);
            l.update_batch(&phase_b[i]);
            l.snapshot().unwrap()
        })
        .collect();
    let mut reference = decode_any_learner(&locals[0]).unwrap();
    for local in &locals[1..] {
        reference
            .absorb_peer(&*decode_any_learner(local).unwrap())
            .unwrap();
    }
    let want = reference.snapshot().unwrap();

    // Every node's SNAPSHOT must converge to the reference bytes.
    let mut clients = [c1, c2, c3];
    assert!(
        wait_for(60, || clients
            .iter_mut()
            .all(|c| c.snapshot().unwrap() == want)),
        "cluster never converged to the single-node reference fold"
    );

    // ... and so must every derived read: estimates, margins, top-K.
    let probe = SparseVector::from_pairs(&[(3, 1.0), (9, 0.25)]);
    let want_top: Vec<(u32, f64)> = reference
        .recover_top_k(4)
        .iter()
        .map(|e| (e.feature, e.weight))
        .collect();
    for c in &mut clients {
        assert_eq!(c.estimate(3).unwrap(), reference.estimate(3));
        assert_eq!(c.estimate(9).unwrap(), reference.estimate(9));
        let (margin, label) = c.predict(&probe).unwrap();
        assert_eq!(margin, reference.margin(&probe));
        assert_eq!(label, if margin >= 0.0 { 1 } else { -1 });
        let top: Vec<(u32, f64)> = c
            .top_k(4)
            .unwrap()
            .iter()
            .map(|e| (e.feature, e.weight))
            .collect();
        assert_eq!(top, want_top);
    }

    drop(clients);
    n1.shutdown();
    n2.shutdown();
    n3.shutdown();
}

/// Wire-level delta economy: after ~1% more examples, PULL_DELTA ships a
/// record at most a tenth of a full snapshot — and applying it onto the
/// full snapshot reproduces the origin's state bit for bit.
#[test]
fn wire_delta_for_one_percent_change_is_a_tenth_of_full() {
    // A production-sized sketch: the full snapshot is ~128 KiB, so the
    // handful of cells 80 examples touch must ship as a small delta.
    let cfg = WmSketchConfig::new(4096, 4).lambda(1e-5).seed(7);
    let server = start(ServeConfig::new(cfg, 1).node_id(7));
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let id = c
        .create_model("m", &WmSketch::new(cfg).to_snapshot_bytes(), 0)
        .unwrap();
    c.set_model(id).unwrap();

    let base = &partitioned_stream(0xD171, 8000, 1)[0];
    for chunk in base.chunks(512) {
        c.update_batch(chunk).unwrap();
    }
    let (full_clock, full) = c.pull_delta(7, PULL_SINCE_FULL).unwrap();
    assert_eq!(full_clock, base.len() as u64);
    assert!(!full.is_empty());

    let extra = &partitioned_stream(0xD172, 80, 1)[0];
    c.update_batch(extra).unwrap();
    let (delta_clock, delta) = c.pull_delta(7, full_clock).unwrap();
    assert_eq!(delta_clock, (base.len() + extra.len()) as u64);
    assert!(
        delta.len() * 10 <= full.len(),
        "1% change shipped {} of {} full bytes",
        delta.len(),
        full.len()
    );

    // The delta is exact: full + delta re-encodes to the origin's bytes.
    let mut replica = decode_any_learner(&full).unwrap();
    assert_eq!(replica.apply_delta(&delta).unwrap(), delta_clock);
    assert_eq!(replica.snapshot().unwrap(), c.snapshot().unwrap());

    // Asking again from the applied watermark returns nothing newer.
    let (up_to_date, empty) = c.pull_delta(7, delta_clock).unwrap();
    assert_eq!(up_to_date, delta_clock);
    assert!(empty.is_empty());

    server.shutdown();
}

/// The shipped-clock vector over the wire: equal re-delivery of an ACK
/// is an idempotent no-op, a regressing ACK is a typed error that leaves
/// the vector untouched, and STATS exposes the vector per (model, peer).
#[test]
fn ack_clock_is_monotonic_idempotent_and_visible_in_stats() {
    let server = start(ServeConfig::new(wm_cfg(), 1).node_id(5));
    let mut c = ServeClient::connect(server.addr()).unwrap();

    assert_eq!(c.ack_clock(9, 100).unwrap(), 100);
    assert_eq!(c.ack_clock(9, 100).unwrap(), 100, "re-delivery is a no-op");
    assert_eq!(c.ack_clock(9, 250).unwrap(), 250);
    match c.ack_clock(9, 200) {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("stale ack"), "{msg}"),
        other => panic!("regressing ack must be a typed error, got {other:?}"),
    }
    assert_eq!(
        c.ack_clock(9, 250).unwrap(),
        250,
        "vector survived the error"
    );

    let stats = c.stats().unwrap();
    assert_eq!(stats.node_id, 5);
    let row = stats
        .replication
        .iter()
        .find(|r| r.model == 0 && r.peer == 9)
        .expect("acked peer must appear in the replication table");
    assert_eq!(row.acked, 250);
    assert_eq!(row.applied, 0, "no replica was ever pulled for peer 9");

    server.shutdown();
}

/// PEER_JOIN validation: the response carries the responder's node id, a
/// peer claiming that same id is rejected, and re-joining with a new
/// address replaces the old entry (exercised end-to-end by the restart
/// in the convergence test above).
#[test]
fn peer_join_returns_node_id_and_rejects_collisions() {
    let server = start(ServeConfig::new(wm_cfg(), 1).node_id(5));
    let mut c = ServeClient::connect(server.addr()).unwrap();

    assert_eq!(c.peer_join(9, "127.0.0.1:1").unwrap(), 5);
    assert!(matches!(
        c.peer_join(5, "127.0.0.1:1"),
        Err(ServeError::Remote(_))
    ));
    // The connection survives the typed error.
    assert_eq!(c.peer_join(9, "127.0.0.1:2").unwrap(), 5);

    server.shutdown();
}

/// MERGE over the wire must advance the model's clock *immediately* — in
/// the MERGE response, STATS, and the registry row.
#[test]
fn merge_over_wire_advances_merged_clock_immediately() {
    let server = start(ServeConfig::new(wm_cfg(), 1));
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let template = WmSketch::new(wm_cfg()).to_snapshot_bytes();
    let id = c.create_model("s", &template, 1).unwrap();
    c.set_model(id).unwrap();

    let local = &partitioned_stream(0x4E_57, 500, 1)[0];
    for chunk in local.chunks(128) {
        c.update_batch(chunk).unwrap();
    }
    let mut peer = decode_any_learner(&template).unwrap();
    peer.update_batch(&partitioned_stream(0x4E58, 300, 1)[0]);

    // The MERGE response is the merged clock — local + absorbed.
    assert_eq!(c.merge_snapshot(&peer.snapshot().unwrap()).unwrap(), 800);
    let stats = c.stats().unwrap();
    assert_eq!(stats.routed, 800, "one learner: routed is the clock");
    assert_eq!(stats.root_examples, 800, "clock includes the absorbed peer");
    let row = stats.models.iter().find(|m| m.id == id).unwrap();
    assert_eq!(row.clock, 800, "registry row reports the merged clock");

    server.shutdown();
}

/// The default model is hosted like any created model, so gossip
/// restart recovery covers it: a node restarted with no data adopts its
/// default model's copy back from a peer's replica of it, and serves
/// the same merged view, bit for bit.
#[test]
fn restarted_node_adopts_its_default_model_from_a_peer_replica() {
    let node = |id: u64| {
        start(
            ServeConfig::new(wm_cfg(), 1)
                .node_id(id)
                .gossip_every_ms(20),
        )
    };
    let n1 = node(1);
    let n2 = node(2);
    let mut c1 = ServeClient::connect(n1.addr()).unwrap();
    let mut c2 = ServeClient::connect(n2.addr()).unwrap();
    c1.peer_join(2, &n2.addr().to_string()).unwrap();
    c2.peer_join(1, &n1.addr().to_string()).unwrap();

    let data = &partitioned_stream(0xDEFA, 800, 1)[0];
    for chunk in data.chunks(100) {
        c1.update_batch(chunk).unwrap();
    }
    let n = data.len() as u64;
    assert!(
        wait_for(10, || c2.stats().unwrap().replication.iter().any(|r| r
            .model
            == 0
            && r.peer == 1
            && r.applied == n)),
        "node 2 never replicated node 1's default model"
    );

    // Node 1 restarts from nothing at a new address.
    n1.shutdown();
    let n1 = node(1);
    let mut c1 = ServeClient::connect(n1.addr()).unwrap();
    c1.peer_join(2, &n2.addr().to_string()).unwrap();
    c2.peer_join(1, &n1.addr().to_string()).unwrap();
    assert!(
        wait_for(10, || c1.stats().unwrap().root_examples == n),
        "node 1 never adopted its default model back from node 2"
    );

    // The canonical merged view: node 1's copy (the stream, replayed
    // locally) folded with node 2's untrained copy, in origin order.
    let template = WmSketch::new(wm_cfg()).to_snapshot_bytes();
    let mut local = decode_any_learner(&template).unwrap();
    for chunk in data.chunks(100) {
        local.update_batch(chunk);
    }
    let mut reference = decode_any_learner(&local.snapshot().unwrap()).unwrap();
    reference
        .absorb_peer(&*decode_any_learner(&template).unwrap())
        .unwrap();
    let want = reference.snapshot().unwrap();
    assert!(
        wait_for(10, || c1.snapshot().unwrap() == want),
        "the adopted default model diverged from the reference fold"
    );
    assert_eq!(c2.snapshot().unwrap(), want, "both nodes serve one view");

    n1.shutdown();
    n2.shutdown();
}
