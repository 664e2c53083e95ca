//! Scraping a live cluster's telemetry over the wire: two gossiping
//! nodes ingest a stream under pipelining, then the `METRICS` op pulls
//! each node's `wmsketch-metrics/v1` exposition — per-op latency
//! histograms whose counts are a frame ledger, transport and scheduler
//! counters, the span journal, and the replication-lag gauges that
//! drain to zero as anti-entropy catches the follower up.
//!
//! ```sh
//! cargo run --release --example serve_metrics
//! ```
//!
//! Exits non-zero if any assertion fails — histogram counts must equal
//! the frames actually sent, and the lag gauge must reach exactly zero
//! — so CI runs this as the metrics smoke check.

use std::time::{Duration, Instant};

use wmsketch::core::{SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch::learn::SparseVector;
use wmsketch::serve::{MetricsReport, ServeClient, ServeConfig, ServerHandle, WmServer};

const FRAME: usize = 128;
const FRAMES: usize = 64;
const WINDOW: usize = 16;

fn main() {
    let wm = WmSketchConfig::new(1024, 4).lambda(1e-5).seed(42);
    let template = WmSketch::new(wm).to_snapshot_bytes();

    // Two gossiping nodes.
    let node = |id: u64| -> ServerHandle {
        WmServer::bind(
            "127.0.0.1:0",
            ServeConfig::new(wm, 1).node_id(id).gossip_every_ms(25),
        )
        .expect("bind node")
        .spawn()
    };
    let a = node(1);
    let b = node(2);
    println!("node 1 @ {}   node 2 @ {}", a.addr(), b.addr());

    let mut ca = ServeClient::connect(a.addr()).expect("connect node 1");
    let mut cb = ServeClient::connect(b.addr()).expect("connect node 2");
    let id_a = ca.create_model("m", &template, 0).expect("create on 1");
    cb.create_model("m", &template, 0).expect("create on 2");
    ca.set_model(id_a).expect("address model");
    ca.peer_join(2, &b.addr().to_string()).expect("join 1→2");
    cb.peer_join(1, &a.addr().to_string()).expect("join 2→1");

    // Ingest on node 1 as a pipelined frame stream, plus a few reads so
    // the latency table has query rows.
    let stream: Vec<(SparseVector, i8)> = (0..FRAME * FRAMES)
        .map(|t| {
            let noise = 1000 + ((t as u32).wrapping_mul(2_654_435_761) % 100_000);
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(7, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(13, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect();
    let counts = ca
        .update_many(&stream, FRAME, WINDOW)
        .expect("pipelined ingest");
    assert_eq!(counts.len(), FRAMES, "one response per frame");
    for f in [7u32, 13, 1000] {
        ca.estimate(f).expect("estimate");
    }
    println!(
        "ingested {} examples over {} pipelined frames (window {})",
        stream.len(),
        FRAMES,
        WINDOW
    );

    // Scrape node 1 and print its latency table. The histogram count is
    // a frame ledger: `op_latency_ns_count{model="m",op="update"}` must
    // equal the frames this process just sent.
    let report = ca.metrics().expect("scrape node 1");
    if report.value("telemetry_enabled", &[]) != Some(1.0) {
        // The kill switch is engaged: the scrape still works, but every
        // counter legitimately reads zero, so there is nothing to assert.
        println!("telemetry is off (WMSKETCH_TELEMETRY=off); skipping the smoke assertions");
        drop(ca);
        drop(cb);
        a.shutdown();
        b.shutdown();
        return;
    }
    println!("\nnode 1 latency table (ns):");
    println!(
        "  {:<10} {:<10} {:>8} {:>10} {:>10} {:>10}",
        "model", "op", "count", "p50", "p90", "p99"
    );
    for s in report.all("op_latency_ns_count", &[]) {
        let model = s.label("model").unwrap_or("?");
        let op = s.label("op").unwrap_or("?");
        let labels = [("model", model), ("op", op)];
        let q = |name: &str| report.value(name, &labels).unwrap_or(0.0);
        println!(
            "  {:<10} {:<10} {:>8} {:>10} {:>10} {:>10}",
            model,
            op,
            s.value,
            q("op_latency_ns_p50"),
            q("op_latency_ns_p90"),
            q("op_latency_ns_p99")
        );
    }
    let update_labels = [("model", "m"), ("op", "update")];
    assert_eq!(
        report.value("op_latency_ns_count", &update_labels),
        Some(FRAMES as f64),
        "histogram count must equal the frames sent"
    );
    assert_eq!(
        report.value("update_examples_total", &[("model", "m")]),
        Some(stream.len() as f64),
        "example accounting must match the stream"
    );
    let frames_rx = report.value("frames_rx_total", &[]).unwrap_or(0.0);
    assert!(
        frames_rx >= FRAMES as f64,
        "transport saw {frames_rx} frames, sent at least {FRAMES}"
    );
    println!(
        "\nnode 1 transport: frames_rx={} bytes_rx={} bytes_tx={}",
        frames_rx,
        report.value("bytes_rx_total", &[]).unwrap_or(0.0),
        report.value("bytes_tx_total", &[]).unwrap_or(0.0),
    );

    // Watch node 2's replication-lag gauge drain as anti-entropy pulls
    // node 1's stream across, and require it to land on exactly zero.
    println!("\nnode 2 replication lag (model m, origin 1):");
    let lag_labels = [("model", "m"), ("origin", "1")];
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last_printed = f64::NEG_INFINITY;
    let final_report: MetricsReport = loop {
        let r = cb.metrics().expect("scrape node 2");
        let lag = r.value("replication_lag", &lag_labels);
        if let Some(lag) = lag {
            if lag != last_printed {
                println!("  lag = {lag}");
                last_printed = lag;
            }
        }
        let applied = cb
            .stats()
            .expect("stats node 2")
            .replication
            .iter()
            .any(|row| row.peer == 1 && row.applied >= stream.len() as u64);
        if applied && lag == Some(0.0) {
            break r;
        }
        assert!(
            Instant::now() < deadline,
            "replication lag never drained to zero (last: {lag:?})"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    println!("  converged: lag gauge reads exactly zero ✓");

    // The gossip machinery that got it there, straight off the scrape.
    println!(
        "\nnode 2 gossip: rounds={} attempts={} failures={} backoff_skips={}",
        final_report
            .value("gossip_rounds_total", &[])
            .unwrap_or(0.0),
        final_report
            .value("gossip_attempts_total", &[])
            .unwrap_or(0.0),
        final_report
            .value("gossip_failures_total", &[])
            .unwrap_or(0.0),
        final_report
            .value("gossip_backoff_skips_total", &[])
            .unwrap_or(0.0),
    );
    let ticks = final_report.all("journal_span", &[("kind", "gossip_tick")]);
    let pulls = final_report.all("journal_span", &[("kind", "delta_pull")]);
    assert!(!ticks.is_empty(), "gossip ticks must be journalled");
    assert!(
        !pulls.is_empty(),
        "the converging delta pull must be journalled"
    );
    println!(
        "journal: {} gossip_tick spans, {} delta_pull spans (ring of latest {})",
        ticks.len(),
        pulls.len(),
        final_report
            .value("journal_pushed", &[])
            .unwrap_or(0.0)
            .min(256.0),
    );

    println!("\nmetrics smoke: all assertions held ✓");
    drop(ca);
    drop(cb);
    a.shutdown();
    b.shutdown();
}
