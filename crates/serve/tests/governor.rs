//! End-to-end tests of the memory governor: budget admission,
//! LRU spill-to-disk, transparent bit-identical revival, single-flight
//! revival under concurrent access, corrupt-spill containment and error
//! accounting, and lazy startup recovery.

use std::io::Write;
use std::net::TcpStream;

use wmsketch_core::{AwmSketch, AwmSketchConfig, OnlineLearner, SnapshotCodec, WmSketchConfig};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::codec::Writer;
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::protocol::{
    put_examples, read_frame, request_for_model, write_frame, OP_UPDATE, STATUS_ERR,
};
use wmsketch_serve::{ServeClient, ServeConfig, ServeError, ServerHandle, WmServer};

/// A per-model planted stream (distinct per salt, deterministic).
fn stream_for(salt: u32, n: usize) -> Vec<(SparseVector, Label)> {
    (0..n)
        .map(|t| {
            let noise = 100 + ((t as u32).wrapping_mul(17).wrapping_add(salt * 131) % 400);
            if (t as u32 + salt).is_multiple_of(2) {
                (
                    SparseVector::from_pairs(&[(3 + salt, 1.0), (noise, 0.5)]),
                    1,
                )
            } else {
                (
                    SparseVector::from_pairs(&[(9 + salt, 1.0), (noise, 0.5)]),
                    -1,
                )
            }
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "wmsketch_governor_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn awm_cfg() -> AwmSketchConfig {
    AwmSketchConfig::new(8, 64).lambda(1e-5).seed(5)
}

/// A governed node: tiny default model, the given resident budget.
fn governed(tag: &str, budget: u64) -> (ServerHandle, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let cfg = ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1)
        .data_dir(&dir)
        .memory_budget_bytes(budget);
    let server = WmServer::bind("127.0.0.1:0", cfg).expect("bind").spawn();
    (server, dir)
}

/// Budget that fits the default model plus roughly two of the test AWM
/// models — small enough that a handful of CREATEs forces evictions,
/// large enough that eight entries' permanent registry overhead plus
/// one resident learner still admits.
const TIGHT_BUDGET: u64 = 180_000;

/// The flat durable-file stem (`m-` + lowercase hex of the name).
fn stem(name: &str) -> String {
    let mut s = String::from("m-");
    for b in name.bytes() {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Queries the default model, re-stamping its LRU clock so a test's
/// created models are colder than it.
fn touch_default(client: &mut ServeClient) {
    client.set_model(0).unwrap();
    client.estimate(3).unwrap();
}

/// Spilled-and-revived models answer estimates, predictions, top-K, and
/// whole snapshots bit-identically to a never-evicted local twin, and keep
/// training identically to it afterwards.
#[test]
fn eviction_then_revival_is_bit_identical() {
    // A 32-entry active set: large enough that rcv1-like training leaves
    // several entries tied at the minimum |weight|, where a revived model
    // must evict exactly what its twin does.
    let cfg = AwmSketchConfig::new(32, 256).lambda(1e-5).seed(5);
    let (server, dir) = governed("bitident", TIGHT_BUDGET);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let template = AwmSketch::new(cfg).to_snapshot_bytes();

    // Create and train more models than the budget holds;
    // admission pressure spills the colder ones as we go.
    const MODELS: u32 = 8;
    let mut locals = Vec::new();
    for salt in 0..MODELS {
        let id = client
            .create_model(&format!("m{salt}"), &template, 0)
            .unwrap();
        client.set_model(id).unwrap();
        let data = SyntheticClassification::rcv1_like(u64::from(salt)).take(600);
        let (data, more) = data.split_at(300);
        client.update_batch(data).unwrap();
        let mut local = AwmSketch::new(cfg);
        for (x, y) in data {
            local.update(x, *y);
        }
        locals.push((id, salt, local, more.to_vec()));
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.memory_budget, TIGHT_BUDGET);
    assert!(
        stats.evictions_total > 0,
        "training {MODELS} models under {TIGHT_BUDGET} B must evict \
         (resident {} B over {} models)",
        stats.resident_bytes,
        stats.resident_models,
    );
    assert!(stats.spilled_models > 0, "none spilled");
    assert!(
        stats.resident_bytes <= TIGHT_BUDGET,
        "resident {} B over budget with evictable models left",
        stats.resident_bytes
    );

    // Revisit every model (reviving the spilled ones) and demand the
    // exact local twin: same estimates, same top-K, same snapshot
    // bytes — then train further and demand the same bytes again, so
    // a revival preserves the model's future, not only its answers.
    for (id, salt, local, more) in &mut locals {
        client.set_model(*id).unwrap();
        let f = 3 + *salt;
        assert_eq!(
            client.estimate(f).unwrap(),
            wmsketch_learn::WeightEstimator::estimate(local, f),
            "estimate diverged after revival"
        );
        let server_top: Vec<(u32, f64)> = client
            .top_k(4)
            .unwrap()
            .iter()
            .map(|e| (e.feature, e.weight))
            .collect();
        let local_top: Vec<(u32, f64)> = wmsketch_learn::TopKRecovery::recover_top_k(local, 4)
            .iter()
            .map(|e| (e.feature, e.weight))
            .collect();
        assert_eq!(server_top, local_top, "top-K diverged");
        assert_eq!(
            client.snapshot().unwrap(),
            local.to_snapshot_bytes(),
            "snapshot bytes diverged after spill+revival"
        );
        // Step by step: a tie broken differently at the active set's
        // minimum can re-converge a few updates later.
        for (t, (x, y)) in more.iter().enumerate() {
            client
                .update_batch(std::slice::from_ref(&(x.clone(), *y)))
                .unwrap();
            local.update(x, *y);
            assert!(
                client.snapshot().unwrap() == local.to_snapshot_bytes(),
                "model {salt} diverged {t} updates after revival"
            );
        }
    }
    let stats = client.stats().unwrap();
    assert!(stats.revivals_total > 0, "nothing was revived");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent (pipelined, multi-connection) access to one cold model
/// pays exactly one revival: the decode runs under the model's slot
/// mutex, so every other request waits for it instead of re-decoding.
#[test]
fn concurrent_access_to_a_cold_model_revives_once() {
    let (server, dir) = governed("singleflight", TIGHT_BUDGET);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let template = AwmSketch::new(awm_cfg()).to_snapshot_bytes();

    // Train "cold", then flood the budget with fresher models so it is
    // evicted (every later model access re-stamps the LRU clock; the
    // default model is touched too, so "cold" is the coldest).
    let cold_id = client.create_model("cold", &template, 0).unwrap();
    client.set_model(cold_id).unwrap();
    client.update_batch(&stream_for(0, 300)).unwrap();
    for salt in 1..8u32 {
        let id = client
            .create_model(&format!("hot{salt}"), &template, 0)
            .unwrap();
        client.set_model(id).unwrap();
        client.update_batch(&stream_for(salt, 300)).unwrap();
        touch_default(&mut client);
    }
    let before = client.stats().unwrap();
    assert!(before.spilled_models > 0, "cold model should be spilled");
    let revivals_before = before.revivals_total;

    // Hammer the cold model from several connections at once.
    let addr = server.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.set_model(cold_id).unwrap();
                for _ in 0..16 {
                    c.estimate(3).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let after = ServeClient::connect(addr).unwrap().stats().unwrap();
    assert_eq!(
        after.revivals_total,
        revivals_before + 1,
        "concurrent cold access must pay exactly one revival"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default model is evictable like any other: under pressure the
/// governor spills the trained default model, its next query revives
/// it, and it answers and keeps training byte for byte like the default
/// model of an ungoverned twin node.
#[test]
fn governed_node_spills_and_revives_its_default_model_bit_identically() {
    let (server, dir) = governed("default", TIGHT_BUDGET);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let twin = WmServer::bind(
        "127.0.0.1:0",
        ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1),
    )
    .expect("bind twin")
    .spawn();
    let mut twin_client = ServeClient::connect(twin.addr()).unwrap();
    let data = stream_for(0, 400);
    let (first, rest) = data.split_at(300);
    client.update_batch(first).unwrap();
    twin_client.update_batch(first).unwrap();

    // Fresher models flood the budget; the default model is the coldest.
    let template = AwmSketch::new(awm_cfg()).to_snapshot_bytes();
    for salt in 1..8u32 {
        let id = client
            .create_model(&format!("hot{salt}"), &template, 0)
            .unwrap();
        client.set_model(id).unwrap();
        client.update_batch(&stream_for(salt, 300)).unwrap();
    }
    client.set_model(0).unwrap();
    // STATS is stub-aware: it reports the spilled model without reviving.
    let before = client.stats().unwrap();
    assert_eq!(before.root_examples, 300);
    assert!(before.spilled_models > 0);

    // The next query revives the default model, bit for bit.
    assert_eq!(client.snapshot().unwrap(), twin_client.snapshot().unwrap());
    let after = client.stats().unwrap();
    assert_eq!(
        after.revivals_total,
        before.revivals_total + 1,
        "the default model was spilled, so the query revived it"
    );
    client.update_batch(rest).unwrap();
    twin_client.update_batch(rest).unwrap();
    assert_eq!(
        client.snapshot().unwrap(),
        twin_client.snapshot().unwrap(),
        "the revived default model trains like its never-spilled twin"
    );

    twin.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// CREATE admission: a model whose footprint cannot fit the budget even
/// after evicting every cold model is rejected with the typed budget
/// error, the registry is unchanged, and smaller CREATEs still succeed.
#[test]
fn create_rejects_models_that_cannot_fit_the_budget() {
    let (server, dir) = governed("admission", TIGHT_BUDGET);
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // One oversized AWM: its 2^16-cell sketch alone (512 KiB) is far
    // past the budget, so no amount of eviction makes room for it.
    let wide = AwmSketch::new(AwmSketchConfig::new(64, 1 << 16).seed(5)).to_snapshot_bytes();
    let err = client.create_model("giant", &wide, 0).unwrap_err();
    match err {
        ServeError::Remote(msg) => {
            assert!(
                msg.contains("memory budget"),
                "expected the typed budget error, got: {msg}"
            );
        }
        other => panic!("expected a remote budget rejection, got {other:?}"),
    }
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 1, "rejected CREATE must not register");

    // The node is not wedged: a small model still fits.
    let small = AwmSketch::new(awm_cfg()).to_snapshot_bytes();
    let id = client.create_model("small", &small, 0).unwrap();
    client.set_model(id).unwrap();
    client.update_batch(&stream_for(1, 50)).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt spill record costs that model's next access a typed error
/// (counted in `governor_revival_failures_total`) — never the node. The
/// stub stays, other models keep serving, and RESET recovers the broken
/// model without ever reading the corrupt file.
#[test]
fn corrupt_spill_record_is_contained_and_reset_recovers() {
    wmsketch_telemetry::set_enabled(true);
    let (server, dir, mut client, victim_id, survivor_id) = node_with_corrupt_spill("corrupt");

    let err = client.estimate(3).unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(_)),
        "corrupt revival must be a typed remote error, got {err:?}"
    );

    // The node is alive: other models answer, and the failure is
    // visible in the governor metrics.
    client.set_model(survivor_id).unwrap();
    client.estimate(10).unwrap();
    let report = client.metrics().unwrap();
    assert!(
        report
            .value("governor_revival_failures_total", &[])
            .unwrap_or(0.0)
            >= 1.0,
        "revival failure must be counted"
    );

    // RESET replaces the slot without reading the spill record.
    client.set_model(victim_id).unwrap();
    client.reset().unwrap();
    client.update_batch(&stream_for(0, 10)).unwrap();
    assert_eq!(client.stats().unwrap().routed, 10);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelined UPDATEs to a model whose spill record is corrupt each get a
/// typed ERR, and each is accounted like any failed request: one
/// `op_errors_total` tick and one UPDATE latency sample per frame.
#[test]
fn pipelined_updates_to_a_corrupt_spill_each_err_and_are_counted() {
    const FRAMES: usize = 5;
    wmsketch_telemetry::set_enabled(true);
    let (server, dir, mut client, victim_id, _) = node_with_corrupt_spill("corruptpipe");

    let mut wire = Vec::new();
    for salt in 0..FRAMES as u32 {
        let mut w = Writer::new();
        put_examples(&mut w, &stream_for(salt, 20));
        write_frame(&mut wire, &request_for_model(victim_id, OP_UPDATE, w)).unwrap();
    }
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&wire).unwrap();
    for k in 0..FRAMES {
        let resp = read_frame(&mut raw)
            .unwrap()
            .unwrap_or_else(|| panic!("closed before response {k}"));
        assert_eq!(resp[0], STATUS_ERR, "frame {k} was not an ERR");
    }
    drop(raw);

    // The victim's one successful UPDATE (before it was spilled) plus
    // every failed frame.
    let report = client.metrics().unwrap();
    let victim = [("model", "victim")];
    assert_eq!(
        report.value("op_errors_total", &victim),
        Some(FRAMES as f64),
        "failed UPDATEs must count as errors"
    );
    assert_eq!(
        report.value(
            "op_latency_ns_count",
            &[("model", "victim"), ("op", "update")]
        ),
        Some(FRAMES as f64 + 1.0),
        "failed UPDATEs must be timed"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A governed node whose model `"victim"` was trained, spilled by
/// pressure from seven fresher models, and then had its spill record
/// corrupted on disk. Returns the node, its data directory, a client
/// addressing the victim, and the ids of the victim and of a healthy
/// survivor.
fn node_with_corrupt_spill(tag: &str) -> (ServerHandle, std::path::PathBuf, ServeClient, u32, u32) {
    let (server, dir) = governed(tag, TIGHT_BUDGET);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let template = AwmSketch::new(awm_cfg()).to_snapshot_bytes();

    let victim_id = client.create_model("victim", &template, 0).unwrap();
    client.set_model(victim_id).unwrap();
    client.update_batch(&stream_for(0, 300)).unwrap();
    let mut survivor_id = 0;
    for salt in 1..8u32 {
        survivor_id = client
            .create_model(&format!("s{salt}"), &template, 0)
            .unwrap();
        client.set_model(survivor_id).unwrap();
        client.update_batch(&stream_for(salt, 300)).unwrap();
        touch_default(&mut client);
    }
    client.set_model(survivor_id).unwrap();
    assert!(client.stats().unwrap().spilled_models > 0);

    // Corrupt the victim's spill record on disk (flip a byte mid-file;
    // the CRC-64 footer catches it at decode).
    let path = dir.join(format!("{}.ckpt", stem("victim")));
    let mut bytes = std::fs::read(&path).expect("spill record exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    client.set_model(victim_id).unwrap();
    (server, dir, client, victim_id, survivor_id)
}

/// A governed restart recovers checkpoints **lazily**: models
/// come back as spill stubs (cheap), and first access revives exactly
/// the persisted state.
#[test]
fn governed_restart_recovers_lazily_and_bit_identically() {
    let dir = temp_dir("lazyrecover");
    let make_cfg = || {
        ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1)
            .data_dir(&dir)
            // 150 KB: tight enough that registering four recovered
            // entries overshoots mid-recovery — recovery admission must
            // tolerate that WITHOUT evicting, or it would overwrite a
            // real checkpoint with the fresh template build.
            .checkpoint_every_ms(3_600_000) // one final graceful pass
            .memory_budget_bytes(150_000)
    };
    let server = WmServer::bind("127.0.0.1:0", make_cfg())
        .expect("bind")
        .spawn();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let template = AwmSketch::new(awm_cfg()).to_snapshot_bytes();
    let mut snapshots = Vec::new();
    for salt in 0..4u32 {
        let id = client
            .create_model(&format!("m{salt}"), &template, 0)
            .unwrap();
        client.set_model(id).unwrap();
        client.update_batch(&stream_for(salt, 200)).unwrap();
        snapshots.push((format!("m{salt}"), client.snapshot().unwrap()));
    }
    // Graceful shutdown: the checkpointer's final pass persists every
    // resident model; already-spilled models are already durable.
    server.shutdown();

    let server = WmServer::bind("127.0.0.1:0", make_cfg())
        .expect("rebind")
        .spawn();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    // The four created models plus the default model, whose checkpoint
    // recovers lazily too.
    assert_eq!(
        stats.spilled_models, 5,
        "governed recovery must register checkpoints as lazy stubs"
    );
    let models = client.list_models().unwrap();
    for (name, snap) in &snapshots {
        let id = models
            .iter()
            .find(|m| &m.name == name)
            .expect("recovered model listed")
            .id;
        client.set_model(id).unwrap();
        assert_eq!(
            &client.snapshot().unwrap(),
            snap,
            "{name}: revived state diverged from the pre-restart snapshot"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.revivals_total, 4, "each first access revives once");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget without a data dir is a bind-time configuration error —
/// spills need somewhere to live.
#[test]
fn memory_budget_without_data_dir_fails_to_bind() {
    let cfg = ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1).memory_budget_bytes(1 << 20);
    assert!(WmServer::bind("127.0.0.1:0", cfg).is_err());
}
