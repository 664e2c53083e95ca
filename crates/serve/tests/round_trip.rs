//! End-to-end tests of the ingest/query service: protocol round trips,
//! snapshot shipping, checkpoint/restore, error behavior, the
//! distributed-vs-local parity guarantee (for WM, AWM, and multiclass
//! models through the registry), and rejection of headerless requests.

use std::net::TcpStream;

use wmsketch_core::{
    AwmSketch, AwmSketchConfig, DynLearner, MergeableLearner, MulticlassAwmSketch,
    MulticlassConfig, SnapshotCodec, WmSketch, WmSketchConfig,
};
use wmsketch_hashing::codec::{CodecError, Writer, KIND_AWM, KIND_MULTICLASS_AWM};
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::protocol::{
    put_examples, read_frame, request_for_model, write_frame, OP_STATS, OP_UPDATE, STATUS_ERR,
    STATUS_OK,
};
use wmsketch_serve::{ServeBackend, ServeClient, ServeConfig, ServeError, ServerHandle, WmServer};

fn planted_stream(n: usize) -> Vec<(SparseVector, Label)> {
    (0..n)
        .map(|t| {
            let noise = 100 + (t * 17 % 400) as u32;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

fn temp_path(tag: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("wmsketch_serve_{tag}_{}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn ingest_then_query_round_trip() {
    let cfg = ServeConfig::new(WmSketchConfig::new(256, 4).lambda(1e-5).seed(3), 1);
    let server = start(cfg);
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let data = planted_stream(4000);
    let mut routed = 0;
    for chunk in data.chunks(512) {
        routed = client.update_batch(chunk).unwrap();
    }
    assert_eq!(routed, 4000);

    let w3 = client.estimate(3).unwrap();
    let w9 = client.estimate(9).unwrap();
    assert!(w3 > 0.2, "w3 = {w3}");
    assert!(w9 < -0.2, "w9 = {w9}");

    let (margin, label) = client.predict(&SparseVector::one_hot(3, 1.0)).unwrap();
    assert!(margin > 0.0);
    assert_eq!(label, 1);

    let top: Vec<u32> = client.top_k(2).unwrap().iter().map(|e| e.feature).collect();
    assert!(top.contains(&3) && top.contains(&9), "top = {top:?}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.routed, 4000);

    server.shutdown();
}

/// Splits `data` by position: even examples to the first half, odd to
/// the second — the fixed routing every parity test below applies to its
/// two ingest nodes and to its in-process reference alike.
fn split_even_odd(data: &[(SparseVector, Label)]) -> [Vec<(SparseVector, Label)>; 2] {
    let mut sub: [Vec<(SparseVector, Label)>; 2] = [Vec::new(), Vec::new()];
    for (i, ex) in data.iter().enumerate() {
        sub[i % 2].push(ex.clone());
    }
    sub
}

/// The in-process twin of an aggregator that merges two ingest nodes'
/// snapshots in node order: two clones of `fresh` trained on the halves
/// (uneven chunks on purpose), merged into `fresh` itself.
fn merged_reference<L>(fresh: L, halves: &[Vec<(SparseVector, Label)>; 2]) -> L
where
    L: MergeableLearner + DynLearner + Clone,
{
    let mut reference = fresh.clone();
    for half in halves {
        let mut node = fresh.clone();
        for chunk in half.chunks(997) {
            DynLearner::update_batch(&mut node, chunk);
        }
        reference.merge_from(&node);
    }
    reference
}

/// The acceptance-criteria parity test: two ingest nodes, fed the even
/// and odd positions of one stream, ship snapshots into an aggregator;
/// the aggregator's estimates, predictions, top-K, and clock must be
/// bit-identical to the in-process merge of two plain learners trained
/// on the same halves.
#[test]
fn two_node_snapshot_merge_matches_single_node_bit_for_bit() {
    let wm = WmSketchConfig::new(256, 4).lambda(1e-5).seed(11);
    let node_cfg = ServeConfig::new(wm, 1);

    let node_a = start(node_cfg.clone());
    let node_b = start(node_cfg.clone());
    let aggregator = start(node_cfg);

    let data = planted_stream(6000);

    let [sub_a, sub_b] = split_even_odd(&data);
    let reference = merged_reference(WmSketch::new(wm), &[sub_a.clone(), sub_b.clone()]);
    let mut a_client = ServeClient::connect(node_a.addr()).unwrap();
    for chunk in sub_a.chunks(512) {
        a_client.update_batch(chunk).unwrap();
    }
    let mut b_client = ServeClient::connect(node_b.addr()).unwrap();
    b_client.update_batch(&sub_b).unwrap();

    // Ship both snapshots into the aggregator, in node order.
    let snap_a = a_client.snapshot().unwrap();
    let snap_b = b_client.snapshot().unwrap();
    let mut agg_client = ServeClient::connect(aggregator.addr()).unwrap();
    agg_client.merge_snapshot(&snap_a).unwrap();
    let root_clock = agg_client.merge_snapshot(&snap_b).unwrap();
    assert_eq!(root_clock, 6000);

    // Bit-identical estimates across the whole touched feature range.
    for f in 0..600u32 {
        let lhs = agg_client.estimate(f).unwrap();
        let rhs = DynLearner::estimate(&reference, f);
        assert!(
            lhs.to_bits() == rhs.to_bits(),
            "feature {f}: aggregated {lhs} vs reference {rhs}"
        );
    }

    // Bit-identical margins and equal predictions on probe vectors.
    for probe in [
        SparseVector::one_hot(3, 1.0),
        SparseVector::one_hot(9, 1.0),
        SparseVector::from_pairs(&[(3, 0.7), (9, 0.7), (123, 0.1)]),
    ] {
        let (m1, p1) = agg_client.predict(&probe).unwrap();
        let (m2, p2) = (
            DynLearner::margin(&reference, &probe),
            DynLearner::predict(&reference, &probe),
        );
        assert!(m1.to_bits() == m2.to_bits(), "margin {m1} vs {m2}");
        assert_eq!(p1, p2);
    }

    // Bit-identical top-K (features and weights).
    let t1 = agg_client.top_k(16).unwrap();
    let t2 = DynLearner::recover_top_k(&reference, 16);
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(a.feature, b.feature);
        assert!(a.weight.to_bits() == b.weight.to_bits());
    }
    assert_eq!(root_clock, DynLearner::examples_seen(&reference));

    // And the shipped model really carries the planted signal.
    assert!(agg_client.estimate(3).unwrap() > 0.2);
    assert!(agg_client.estimate(9).unwrap() < -0.2);

    for s in [node_a, node_b, aggregator] {
        s.shutdown();
    }
}

/// Every request opens with the `FRAME_V3` model-id header. A headerless
/// body — its first byte an opcode, as an old version-1 client would send
/// — and a body framed by the previous `0xF2` header revision each get a
/// typed ERR instead of being routed to a model, and the connection stays
/// usable: a proper request on it then succeeds.
#[test]
fn headerless_body_gets_typed_error_and_connection_survives_event() {
    let server = start(ServeConfig::new(
        WmSketchConfig::new(64, 2).lambda(1e-5).seed(3),
        1,
    ));
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut examples = Writer::new();
    put_examples(&mut examples, &planted_stream(10));
    let mut headerless_update = vec![OP_UPDATE];
    headerless_update.extend_from_slice(&examples.into_bytes());
    // Marker, default model id, opcode: a whole request of the 0xF2
    // revision.
    let mut previous_revision = vec![0xF2, 0, 0, 0, 0, OP_UPDATE];
    previous_revision.extend_from_slice(&headerless_update[1..]);
    for body in [vec![OP_STATS], headerless_update, previous_revision] {
        write_frame(&mut raw, &body).unwrap();
        let resp = read_frame(&mut raw).unwrap().expect("a response, not EOF");
        assert_eq!(resp[0], STATUS_ERR, "headerless body accepted");
        assert!(
            String::from_utf8_lossy(&resp[1..]).contains("malformed request header"),
            "{}",
            String::from_utf8_lossy(&resp[1..])
        );
    }

    write_frame(&mut raw, &request_for_model(0, OP_STATS, Writer::new())).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("a response, not EOF");
    assert_eq!(resp[0], STATUS_OK, "connection unusable");
    // Neither rejected UPDATE reached the default model.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(client.stats().unwrap().routed, 0);
    server.shutdown();
}

/// Registry lifecycle: CREATE/LIST/STATS report what the node hosts, and
/// the error surface (duplicate names, trained templates, unknown model
/// ids, label-domain and kind mismatches) is typed, not fatal.
#[test]
fn registry_create_list_stats_and_error_surface() {
    let server = start(ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1));
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let awm_cfg = AwmSketchConfig::new(8, 64).lambda(1e-5).seed(5);
    let awm_template = AwmSketch::new(awm_cfg).to_snapshot_bytes();
    let mc_template = MulticlassAwmSketch::new(MulticlassConfig {
        classes: 3,
        per_class: awm_cfg,
    })
    .to_snapshot_bytes();

    // Worker pools are not hosted: `shards > 1` is a typed error.
    assert!(matches!(
        client.create_model("awm", &awm_template, 2),
        Err(ServeError::Remote(_))
    ));
    let awm_id = client.create_model("awm", &awm_template, 1).unwrap();
    let mc_id = client.create_model("mc", &mc_template, 1).unwrap();
    assert_ne!(awm_id, 0);
    assert_ne!(mc_id, awm_id);

    // Duplicate names and trained templates → errors; `shards == 0`
    // means one learner too, not an error.
    assert!(matches!(
        client.create_model("awm", &awm_template, 1),
        Err(ServeError::Remote(_))
    ));
    let mut trained = AwmSketch::new(awm_cfg);
    trained.update(&SparseVector::one_hot(1, 1.0), 1);
    assert!(matches!(
        client.create_model("awm2", &trained.to_snapshot_bytes(), 1),
        Err(ServeError::Remote(_))
    ));
    let flat_id = client.create_model("awm3", &awm_template, 0).unwrap();
    client.set_model(flat_id).unwrap();
    client.update_batch(&planted_stream(100)).unwrap();
    assert_eq!(client.stats().unwrap().routed, 100);
    client.set_model(0).unwrap();

    // LIST reflects the registry, id-ascending.
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 4);
    assert_eq!(
        models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        ["default", "awm", "mc", "awm3"]
    );
    assert_eq!(models[1].kind, KIND_AWM);
    assert_eq!(models[2].kind, KIND_MULTICLASS_AWM);
    assert!(models.iter().all(|m| m.memory_bytes > 0));

    // Ingest into the AWM model with binary labels; class labels belong
    // to the multiclass model only.
    client.set_model(awm_id).unwrap();
    client.update_batch(&planted_stream(500)).unwrap();
    assert!(matches!(
        client.update_batch(&[(SparseVector::one_hot(1, 1.0), 2)]),
        Err(ServeError::Remote(_))
    ));
    client.set_model(mc_id).unwrap();
    client
        .update_batch(&[(SparseVector::one_hot(1, 1.0), 2)])
        .unwrap();
    assert!(matches!(
        client.update_batch(&[(SparseVector::one_hot(1, 1.0), -1)]),
        Err(ServeError::Remote(_))
    ));
    assert!(matches!(
        client.update_batch(&[(SparseVector::one_hot(1, 1.0), 3)]),
        Err(ServeError::Remote(_))
    ));

    // STATS addressed to the AWM model reports it, plus all rows.
    client.set_model(awm_id).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.routed, 500);
    assert_eq!(stats.models.len(), 4);
    let row = stats.models.iter().find(|m| m.id == awm_id).unwrap();
    assert_eq!(row.clock, 500);

    // Kind mismatch on MERGE is a typed error; RESET rebuilds from spec.
    let wm_snap = WmSketch::new(WmSketchConfig::new(64, 2).seed(1)).to_snapshot_bytes();
    assert!(matches!(
        client.merge_snapshot(&wm_snap),
        Err(ServeError::Remote(_))
    ));
    client.reset().unwrap();
    assert_eq!(client.stats().unwrap().routed, 0);

    // Unknown model id → typed error, connection stays usable.
    client.set_model(999).unwrap();
    assert!(matches!(client.estimate(1), Err(ServeError::Remote(_))));
    client.set_model(0).unwrap();
    assert!(client.stats().is_ok());

    // A multiclass template with too many classes for i8 wire labels is
    // rejected at CREATE.
    let wide = MulticlassAwmSketch::new(MulticlassConfig {
        classes: 200,
        per_class: AwmSketchConfig::new(2, 8).seed(1),
    })
    .to_snapshot_bytes();
    assert!(matches!(
        client.create_model("wide", &wide, 1),
        Err(ServeError::Remote(_))
    ));

    server.shutdown();
}

/// A node hosts its default model as one learner: asking for a worker
/// pool is a configuration error.
#[test]
#[should_panic(expected = "shards must be 1")]
fn serve_config_refuses_a_default_model_pool() {
    let _ = ServeConfig::new(WmSketchConfig::new(64, 2), 2);
}

/// The generic registry parity harness: the stream split by position
/// across two nodes whose snapshots merge into an aggregator, and the
/// same halves into [`merged_reference`] built from `fresh`; then
/// estimates, margins, predictions, top-K, and clock must be bit-identical
/// between aggregator and reference. One harness for every registered
/// kind — the parity contract is the same, so the code proving it is too.
fn registry_parity_matches_single_node<L>(
    name: &str,
    template: &[u8],
    fresh: L,
    data: &[(SparseVector, Label)],
    probes: &[SparseVector],
) -> (ServeClient, Vec<ServerHandle>)
where
    L: MergeableLearner + DynLearner + Clone,
{
    // The host nodes' default WM model is irrelevant here; keep it tiny.
    let host = ServeConfig::new(WmSketchConfig::new(16, 1).heap_capacity(1), 1);
    let node_a = start(host.clone());
    let node_b = start(host.clone());
    let aggregator = start(host);

    let with_model = |server: &ServerHandle, shards: u32| {
        let mut c = ServeClient::connect(server.addr()).unwrap();
        let id = c.create_model(name, template, shards).unwrap();
        c.set_model(id).unwrap();
        c
    };
    let mut a = with_model(&node_a, 0);
    let mut b = with_model(&node_b, 1);
    let mut agg = with_model(&aggregator, 1);

    let sub = split_even_odd(data);
    let reference = merged_reference(fresh, &sub);
    a.update_batch(&sub[0]).unwrap();
    b.update_batch(&sub[1]).unwrap();

    agg.merge_snapshot(&a.snapshot().unwrap()).unwrap();
    let clock = agg.merge_snapshot(&b.snapshot().unwrap()).unwrap();
    assert_eq!(clock, data.len() as u64);

    for f in 0..600u32 {
        let lhs = agg.estimate(f).unwrap();
        let rhs = DynLearner::estimate(&reference, f);
        assert!(
            lhs.to_bits() == rhs.to_bits(),
            "feature {f}: aggregated {lhs} vs reference {rhs}"
        );
    }
    for probe in probes {
        let (m1, p1) = agg.predict(probe).unwrap();
        let (m2, p2) = (
            DynLearner::margin(&reference, probe),
            DynLearner::predict(&reference, probe),
        );
        assert!(m1.to_bits() == m2.to_bits(), "margin {m1} vs {m2}");
        assert_eq!(p1, p2);
    }
    let t1 = agg.top_k(16).unwrap();
    let t2 = DynLearner::recover_top_k(&reference, 16);
    assert_eq!(t1.len(), t2.len());
    for (x, y) in t1.iter().zip(&t2) {
        assert_eq!(x.feature, y.feature);
        assert!(x.weight.to_bits() == y.weight.to_bits());
    }
    assert_eq!(clock, DynLearner::examples_seen(&reference));
    (agg, vec![node_a, node_b, aggregator])
}

/// AWM through the registry: the same bit-identical distributed-vs-local
/// parity the WM default model guarantees.
#[test]
fn awm_registry_nodes_match_single_node_bit_for_bit() {
    let awm = AwmSketchConfig::new(16, 256).lambda(1e-5).seed(11);
    let template = AwmSketch::new(awm).to_snapshot_bytes();
    let (mut agg, servers) = registry_parity_matches_single_node(
        "awm",
        &template,
        AwmSketch::new(awm),
        &planted_stream(4000),
        &[
            SparseVector::one_hot(3, 1.0),
            SparseVector::one_hot(9, 1.0),
            SparseVector::from_pairs(&[(3, 0.7), (9, 0.7), (123, 0.1)]),
        ],
    );
    // And the shipped model really carries the planted signal.
    assert!(agg.estimate(3).unwrap() > 0.2);
    assert!(agg.estimate(9).unwrap() < -0.2);
    drop(agg);
    for s in servers {
        s.shutdown();
    }
}

/// Multiclass through the registry: class-labelled ingest, snapshot
/// shipping, and merge compose exactly like the binary models.
#[test]
fn multiclass_registry_nodes_match_single_node_bit_for_bit() {
    let mc_cfg = MulticlassConfig {
        classes: 3,
        per_class: AwmSketchConfig::new(8, 128).lambda(1e-5).seed(7),
    };
    let template = MulticlassAwmSketch::new(mc_cfg).to_snapshot_bytes();
    // Class c is signalled by feature 10+c plus shared noise; labels on
    // the wire are class indices.
    let data: Vec<(SparseVector, Label)> = (0..4500)
        .map(|t| {
            let c = (t % 3) as u32;
            let noise = 100 + (t * 11 % 200) as u32;
            (
                SparseVector::from_pairs(&[(10 + c, 1.0), (noise, 0.5)]),
                c as Label,
            )
        })
        .collect();
    let (mut agg, servers) = registry_parity_matches_single_node(
        "mc",
        &template,
        MulticlassAwmSketch::new(mc_cfg),
        &data,
        &[
            SparseVector::one_hot(10, 1.0),
            SparseVector::one_hot(11, 1.0),
            SparseVector::one_hot(12, 1.0),
        ],
    );
    // And the model really learned: the argmax class over the wire.
    for c in 0..3u32 {
        let (_, predicted) = agg.predict(&SparseVector::one_hot(10 + c, 1.0)).unwrap();
        assert_eq!(predicted, c as Label, "class {c} misclassified");
    }
    drop(agg);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn checkpoint_restore_round_trip() {
    let cfg = ServeConfig::new(WmSketchConfig::new(128, 3).seed(5), 1);
    let server = start(cfg);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.update_batch(&planted_stream(1500)).unwrap();

    let path = temp_path("ckpt");
    let bytes_written = client.checkpoint(&path).unwrap();
    assert!(bytes_written > 0);
    let before: Vec<u64> = (0..50u32)
        .map(|f| client.estimate(f).unwrap().to_bits())
        .collect();

    // Wipe the node, confirm it's empty, then restore.
    client.reset().unwrap();
    assert_eq!(client.estimate(3).unwrap(), 0.0);
    let clock = client.restore(&path).unwrap();
    assert_eq!(clock, 1500);
    let after: Vec<u64> = (0..50u32)
        .map(|f| client.estimate(f).unwrap().to_bits())
        .collect();
    assert_eq!(before, after, "restore must be bit-identical");

    // The on-disk artifact is a plain WMS1 snapshot, loadable offline.
    let offline = WmSketch::from_snapshot_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(offline.examples_seen(), 1500);
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

#[test]
fn merge_rejects_incompatible_and_corrupt_snapshots_without_dying() {
    let server = start(ServeConfig::new(WmSketchConfig::new(128, 2).seed(1), 1));
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.update_batch(&planted_stream(200)).unwrap();

    // Different seed → different projection → typed remote error.
    let alien = WmSketch::new(WmSketchConfig::new(128, 2).seed(99));
    let err = client
        .merge_snapshot(&alien.to_snapshot_bytes())
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");

    // Corrupt bytes → typed remote error, not a crash.
    let mut good = client.snapshot().unwrap();
    good[0] = b'X';
    assert!(matches!(
        client.merge_snapshot(&good).unwrap_err(),
        ServeError::Remote(_)
    ));
    let truncated = client.snapshot().unwrap();
    assert!(matches!(
        client
            .merge_snapshot(&truncated[..truncated.len() / 2])
            .unwrap_err(),
        ServeError::Remote(_)
    ));

    // The connection and the model both survived.
    assert_eq!(client.stats().unwrap().routed, 200);
    server.shutdown();
}

#[test]
fn concurrent_connections_all_ingest() {
    let server = start(ServeConfig::new(WmSketchConfig::new(128, 2).seed(7), 1));
    let addr = server.addr();
    let data = planted_stream(1200);
    let handles: Vec<_> = data
        .chunks(300)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.update_batch(&chunk).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut client = ServeClient::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().routed, 1200);
    server.shutdown();
}

#[test]
fn shutdown_drains_despite_a_connection_stalled_mid_frame() {
    use std::io::Write;
    let server = start(ServeConfig::new(WmSketchConfig::new(64, 2).seed(3), 1));
    // A client that sends half a frame and goes silent, keeping the
    // socket open: the drain must not wait on it forever.
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(&100u32.to_le_bytes()).unwrap();
    stalled.write_all(&[0u8; 10]).unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    // Returns promptly instead of hanging on the stalled reader. The
    // shutdown runs on a helper thread so a regression fails this test
    // instead of hanging the suite.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .is_ok(),
        "shutdown did not finish within 5 s with a connection stalled mid-frame"
    );
    drop(stalled);
}

#[test]
fn client_initiated_shutdown_drains_the_server() {
    let server = start(ServeConfig::new(WmSketchConfig::new(64, 2).seed(2), 1));
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.update_batch(&planted_stream(50)).unwrap();
    client.shutdown_server().unwrap();
    // The handle's join returns because the event loops drained.
    server.shutdown();
    // New connections are refused (or reset) once the listener is gone.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let refused = match ServeClient::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.stats().is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}

#[test]
fn stats_reports_backend_and_coalescing_counters() {
    let server = start(ServeConfig::new(WmSketchConfig::new(64, 2).seed(4), 1));
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let data = planted_stream(600);
    for chunk in data.chunks(100) {
        client.update_batch(chunk).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.backend, ServeBackend::Event);
    assert_eq!(stats.update_frames, 6);
    assert_eq!(stats.update_lock_acquisitions, 6);
    server.shutdown();
}

/// A STATS reply whose backend byte is not the event loop's 1 is a typed
/// codec error at the client: 0 named a retired transport, 7 never named
/// one. A one-shot fake node answers the request with a well-formed
/// payload whose only fault is the backend byte.
#[test]
fn stats_rejects_an_unknown_backend_byte() {
    for backend in [0u8, 7] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let node = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap().expect("a STATS request");
            let mut w = Writer::new();
            w.put_u8(STATUS_OK);
            w.put_u64(0); // routed
            w.put_u64(0); // clock
            w.put_u32(0); // no registry rows
            w.put_u8(backend);
            w.put_u64(0); // lock acquisitions
            w.put_u64(0); // update frames
            w.put_u64(1); // node id
            w.put_u32(0); // no replication rows
            w.put_u64(0); // memory budget
            w.put_u32(0); // resident models
            w.put_u32(0); // spilled models
            w.put_u64(0); // resident bytes
            w.put_u64(0); // evictions
            w.put_u64(0); // revivals
            write_frame(&mut conn, &w.into_bytes()).unwrap();
        });
        let mut client = ServeClient::connect(addr).unwrap();
        let err = client.stats().expect_err("corrupt backend byte accepted");
        assert!(
            matches!(err, ServeError::Codec(CodecError::Invalid(_))),
            "backend byte {backend}: {err:?}"
        );
        node.join().unwrap();
    }
}

#[test]
fn pipelined_update_many_matches_blocking_ingest_bit_for_bit() {
    let wm = WmSketchConfig::new(256, 4).lambda(1e-5).seed(9);
    let pipelined = start(ServeConfig::new(wm, 1));
    let blocking = start(ServeConfig::new(wm, 1));
    let data = planted_stream(4096);

    let mut cp = ServeClient::connect(pipelined.addr()).unwrap();
    let counts = cp.update_many(&data, 256, 8).unwrap();
    // Per-connection response ordering: the cumulative counts come back
    // in frame order, exactly as blocking per-frame calls would.
    assert_eq!(counts.len(), 16);
    for (i, &c) in counts.iter().enumerate() {
        assert_eq!(c, 256 * (i as u64 + 1));
    }

    let mut cb = ServeClient::connect(blocking.addr()).unwrap();
    for chunk in data.chunks(256) {
        cb.update_batch(chunk).unwrap();
    }
    assert_eq!(cp.snapshot().unwrap(), cb.snapshot().unwrap());

    pipelined.shutdown();
    blocking.shutdown();
}
