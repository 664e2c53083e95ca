//! Telemetry integration: the `OP_METRICS` scrape against live nodes.
//!
//! * Backend-uniform STATS counters: `update_frames` /
//!   `update_lock_acquisitions` advance on both backends, one lock
//!   acquisition per UPDATE frame.
//! * A 16-connection pipelined stress run on each backend, asserting
//!   the per-(model, op) latency-histogram counts equal the frames each
//!   model processed — the scrape is the frame ledger.
//! * A two-node gossip pair whose replication-lag gauges read zero once
//!   anti-entropy converges.

use std::time::{Duration, Instant};

use wmsketch_core::{SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::{ServeBackend, ServeClient, ServeConfig, ServerHandle, WmServer};

const CONNS: usize = 16;
const FRAME: usize = 32;
const FRAMES_PER_CONN: usize = 8;
const EXAMPLES_PER_CONN: usize = FRAME * FRAMES_PER_CONN;

fn default_model() -> ServeConfig {
    ServeConfig::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(40), 1)
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

fn stream_for(i: usize, n: usize) -> Vec<(SparseVector, Label)> {
    (0..n)
        .map(|t| {
            let noise = 100 + ((i * 31 + t * 17) % 400) as u32;
            if (i + t).is_multiple_of(2) {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

fn template(seed: u64) -> Vec<u8> {
    WmSketch::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(seed)).to_snapshot_bytes()
}

/// The STATS tail counters advance uniformly on every backend: N
/// sequential (unpipelined) UPDATE frames show exactly N frames and N
/// learner-lock acquisitions on both backends.
fn stats_counters_case(backend: ServeBackend) {
    const N: u64 = 12;
    let server = start(default_model().backend(backend));
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let data = stream_for(1, FRAME * N as usize);
    for chunk in data.chunks(FRAME) {
        c.update_batch(chunk).unwrap();
    }

    let stats = c.stats().unwrap();
    assert_eq!(stats.backend, backend);
    assert_eq!(stats.update_frames, N, "every UPDATE frame is counted");
    assert_eq!(
        stats.update_lock_acquisitions, N,
        "every UPDATE frame locks the learner once"
    );

    // The scrape mirrors the frame counter, so one endpoint carries it.
    let report = c.metrics().unwrap();
    assert_eq!(report.value("update_frames_total", &[]), Some(N as f64));
    server.shutdown();
}

#[test]
fn stats_counters_uniform_threaded() {
    stats_counters_case(ServeBackend::Threaded);
}

#[cfg(target_os = "linux")]
#[test]
fn stats_counters_uniform_event() {
    stats_counters_case(ServeBackend::Event);
}

/// The acceptance gate: 16 pipelined connections, each hammering its own
/// model; the scrape's per-(model, op="update") histogram count must
/// equal the frames that model processed, examples and Count-Min rate
/// estimates must line up, and STATS must show one learner-lock
/// acquisition per frame.
fn pipelined_stress_case(backend: ServeBackend) {
    let server = start(default_model().backend(backend));

    std::thread::scope(|s| {
        for i in 0..CONNS {
            let server = &server;
            s.spawn(move || {
                let mut c = ServeClient::connect(server.addr()).unwrap();
                let id = c
                    .create_model(&format!("m{i}"), &template(i as u64), 0)
                    .unwrap();
                c.set_model(id).unwrap();
                let data = stream_for(i, EXAMPLES_PER_CONN);
                let counts = c.update_many(&data, FRAME, FRAMES_PER_CONN).unwrap();
                assert_eq!(counts.len(), FRAMES_PER_CONN);
            });
        }
    });

    let mut observer = ServeClient::connect(server.addr()).unwrap();
    let report = observer.metrics().unwrap();
    let text = observer.metrics_text().unwrap();
    assert!(
        text.starts_with("# wmsketch-metrics/v1"),
        "exposition header missing: {}",
        &text[..text.len().min(60)]
    );
    assert_eq!(report.value("telemetry_enabled", &[]), Some(1.0));

    for i in 0..CONNS {
        let model = format!("m{i}");
        let labels = [("model", model.as_str()), ("op", "update")];
        assert_eq!(
            report.value("op_latency_ns_count", &labels),
            Some(FRAMES_PER_CONN as f64),
            "model {model}: histogram count != frames processed"
        );
        assert!(
            report
                .value("op_latency_ns_sum", &labels)
                .is_some_and(|s| s > 0.0),
            "model {model}: zero recorded latency"
        );
        let mlabel = [("model", model.as_str())];
        assert_eq!(
            report.value("update_examples_total", &mlabel),
            Some(EXAMPLES_PER_CONN as f64),
            "model {model}: example accounting"
        );
        // The exact counter above is the only per-model example count.
        assert_eq!(
            report.value("rate_update_examples_estimate", &mlabel),
            None,
            "model {model}: the Count-Min estimate row is gone"
        );
    }

    let total_frames = (CONNS * FRAMES_PER_CONN) as f64;
    assert_eq!(report.value("update_frames_total", &[]), Some(total_frames));
    assert!(report.value("frames_rx_total", &[]).unwrap() >= total_frames);
    assert!(report.value("bytes_rx_total", &[]).unwrap() > 0.0);
    assert!(report.value("bytes_tx_total", &[]).unwrap() > 0.0);
    // The observer itself holds a connection open.
    assert!(report.value("connections_open", &[]).unwrap() >= 1.0);

    let stats = observer.stats().unwrap();
    assert_eq!(stats.update_frames, total_frames as u64);
    assert_eq!(stats.update_lock_acquisitions, stats.update_frames);

    if backend == ServeBackend::Event {
        // Only the in-flight scrape itself may be outstanding.
        assert!(report.value("executor_queue_depth", &[]).unwrap() <= 1.0);
    }

    server.shutdown();
}

#[test]
fn pipelined_stress_metrics_match_frames_threaded() {
    pipelined_stress_case(ServeBackend::Threaded);
}

#[cfg(target_os = "linux")]
#[test]
fn pipelined_stress_metrics_match_frames_event() {
    pipelined_stress_case(ServeBackend::Event);
}

/// Two gossiping nodes: after anti-entropy converges, the follower's
/// replication-lag gauge for the origin reads exactly zero, and the
/// gossip counters and journal spans show the machinery that got there.
#[test]
fn replication_lag_gauge_drains_to_zero() {
    const N: usize = 200;
    let a = start(default_model().node_id(1).gossip_every_ms(25));
    let b = start(default_model().node_id(2).gossip_every_ms(25));

    let mut ca = ServeClient::connect(a.addr()).unwrap();
    let mut cb = ServeClient::connect(b.addr()).unwrap();
    let id_a = ca.create_model("m", &template(7), 0).unwrap();
    cb.create_model("m", &template(7), 0).unwrap();
    ca.peer_join(2, &b.addr().to_string()).unwrap();
    cb.peer_join(1, &a.addr().to_string()).unwrap();

    ca.set_model(id_a).unwrap();
    ca.update_batch(&stream_for(3, N)).unwrap();

    // Wait until B has applied A's full stream AND a gossip tick has
    // republished the gauge at that watermark.
    let deadline = Instant::now() + Duration::from_secs(10);
    let lag_labels = [("model", "m"), ("origin", "1")];
    let report = loop {
        let report = cb.metrics().unwrap();
        let applied = cb
            .stats()
            .unwrap()
            .replication
            .iter()
            .any(|r| r.peer == 1 && r.applied >= N as u64);
        if applied && report.value("replication_lag", &lag_labels) == Some(0.0) {
            break report;
        }
        assert!(
            Instant::now() < deadline,
            "lag never drained: applied={applied}, lag={:?}",
            report.value("replication_lag", &lag_labels)
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    assert!(report.value("gossip_rounds_total", &[]).unwrap() >= 1.0);
    assert!(report.value("gossip_attempts_total", &[]).unwrap() >= 1.0);
    assert!(
        !report
            .all("journal_span", &[("kind", "gossip_tick")])
            .is_empty(),
        "gossip ticks must land in the journal"
    );
    assert!(
        !report
            .all("journal_span", &[("kind", "delta_pull")])
            .is_empty(),
        "the converging pull must land in the journal"
    );

    a.shutdown();
    b.shutdown();
}
