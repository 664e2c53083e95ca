//! A live node with telemetry switched off records no op latency, while
//! the always-on STATS counters keep counting.
//!
//! `wmsketch_telemetry::set_enabled` is process-global, so this file is
//! its own test binary and no test in it switches telemetry back on.

use wmsketch_core::WmSketchConfig;
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::{ServeBackend, ServeClient, ServeConfig, WmServer};

const FRAME: usize = 32;
const FRAMES: usize = 12;
const WINDOW: usize = 4;

fn stream(n: usize) -> Vec<(SparseVector, Label)> {
    (0..n)
        .map(|t| {
            let noise = 100 + ((t * 17) % 400) as u32;
            if t.is_multiple_of(2) {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

#[test]
fn telemetry_off_records_no_latency_event() {
    wmsketch_telemetry::set_enabled(false);
    let cfg = ServeConfig::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(40), 1);
    let server = WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn();
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let counts = c
        .update_many(&stream(FRAME * FRAMES), FRAME, WINDOW)
        .unwrap();
    assert_eq!(counts.len(), FRAMES);
    assert_eq!(counts.last().copied(), Some((FRAME * FRAMES) as u64));

    let report = c.metrics().unwrap();
    assert_eq!(report.value("telemetry_enabled", &[]), Some(0.0));
    assert_eq!(
        report.value("op_latency_ns_count", &[("op", "update")]),
        None,
        "a telemetry-off node recorded UPDATE latency"
    );
    assert!(
        report.all("op_latency_ns_count", &[]).is_empty(),
        "a telemetry-off node recorded op latency"
    );

    let stats = c.stats().unwrap();
    assert_eq!(stats.backend, ServeBackend::Event);
    assert_eq!(stats.update_frames, FRAMES as u64);
    server.shutdown();
}
