//! Crash-recovery drill: kill a durable node mid-ingest under injected
//! faults, restart it from its data directory, and prove the recovered
//! model is bit-identical to a node that never crashed.
//!
//! ```sh
//! cargo run --release --example serve_recovery
//! ```
//!
//! The node runs with a data directory and a fast checkpoint cadence, so
//! a background thread continuously persists every model via CRC-footered
//! write-to-temp → fsync → atomic-rename checkpoints. A deterministic
//! fault plan (seeded by `WMSKETCH_FAULTS_SEED`, default 42 — CI threads
//! its run id through) tears checkpoint writes, drops every fsync, and
//! randomly kills response writes, so the [`SelfHealingClient`] has to
//! reconnect and resume mid-stream. Halfway through, the node is killed
//! outright — no drain, no final checkpoint — restarted against the same
//! directory, and the client finishes the stream from the recovered
//! clock. The final snapshot must equal, byte for byte, a fault-free
//! reference node fed the same examples in the same order.
//!
//! Exits non-zero if any recovery or parity assertion fails, so CI runs
//! this as the durability end-to-end check.
//!
//! [`SelfHealingClient`]: wmsketch::serve::SelfHealingClient

use std::time::{Duration, Instant};

use wmsketch::core::WmSketchConfig;
use wmsketch::faults::FaultPlan;
use wmsketch::learn::{Label, SparseVector};
use wmsketch::serve::{RetryPolicy, SelfHealingClient, ServeClient, ServeConfig, WmServer};

/// A labelled stream with a planted signal pair plus seeded noise.
fn stream(n: usize) -> Vec<(SparseVector, Label)> {
    let mut rng = 0x5EED_5EEDu64;
    (0..n)
        .map(|t| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = 100 + (rng >> 33) as u32 % 500;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(5, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(11, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

fn main() {
    let seed = std::env::var("WMSKETCH_FAULTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let dir = std::env::temp_dir().join(format!("wmsketch-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = stream(6000);

    // Torn checkpoint writes, universally dropped fsyncs, and a 2%
    // chance of the server killing a response write: the full menu.
    wmsketch::faults::install(Some(
        FaultPlan::parse("io.write=torn@0.1,io.fsync=drop@1.0,net.frame_write=err@0.02")
            .expect("fault plan")
            .with_seed(seed),
    ));
    println!("fault plan armed (seed {seed})");

    // A checkpoint captures a hosted learner's complete state, so
    // recovery is trajectory-exact.
    let cfg = ServeConfig::new(WmSketchConfig::new(128, 2).lambda(1e-5).seed(7), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(5);
    let policy = RetryPolicy {
        max_attempts: 50,
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };

    let server = WmServer::bind("127.0.0.1:0", cfg.clone())
        .expect("bind")
        .spawn();
    println!(
        "durable node @ {} (data dir {})",
        server.addr(),
        dir.display()
    );

    let mut client =
        SelfHealingClient::connect(server.addr().to_string(), policy).expect("connect");
    let half = data.len() / 2;
    let clock = client
        .update_many(&data[..half], 50, 8)
        .expect("first half of the stream");
    assert_eq!(clock, half as u64, "exactly-once under connection faults");
    println!(
        "ingested {half} examples under faults ({} retries, {} reconnects)",
        client.retries(),
        client.reconnects()
    );

    // Let a checkpoint land (the checkpointer retries torn writes on
    // later passes), then kill the node: no drain, no final checkpoint.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let landed = std::fs::read_dir(&dir).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        });
        if landed {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    server.kill();
    println!("node killed mid-stream");

    // Restart against the same directory — recovery itself runs under
    // the armed fault plan — and finish the stream from the recovered
    // clock. The retrying client resumes from the server's clock, so
    // every example lands exactly once.
    let restarted = WmServer::bind("127.0.0.1:0", cfg).expect("rebind").spawn();
    let mut client =
        SelfHealingClient::connect(restarted.addr().to_string(), policy).expect("reconnect");
    let recovered = client.stats().expect("stats").root_examples;
    assert!(
        recovered <= half as u64,
        "recovered clock {recovered} beyond what was ingested"
    );
    println!("restarted; recovered clock {recovered} from the last atomic checkpoint");
    let clock = client
        .update_many(&data[recovered as usize..], 50, 8)
        .expect("rest of the stream");
    assert_eq!(clock, data.len() as u64, "crash lost durable examples");

    let trips = wmsketch::faults::total_trips();
    assert!(trips > 0, "the fault plan never fired");
    println!("fault trips: {trips}; final clock {clock}");

    // The reference never crashes and runs fault-free.
    wmsketch::faults::install(None);
    let reference = WmServer::bind(
        "127.0.0.1:0",
        ServeConfig::new(WmSketchConfig::new(128, 2).lambda(1e-5).seed(7), 1),
    )
    .expect("bind reference")
    .spawn();
    let mut ref_client = ServeClient::connect(reference.addr()).expect("reference connect");
    for chunk in data.chunks(50) {
        ref_client.update_batch(chunk).expect("reference ingest");
    }

    let recovered_snap = client.snapshot().expect("recovered snapshot");
    let reference_snap = ref_client.snapshot().expect("reference snapshot");
    assert_eq!(
        recovered_snap, reference_snap,
        "recovered state diverged from the never-crashed reference"
    );
    for f in [5u32, 11, 100, 250, 599] {
        let a = client.estimate(f).expect("recovered estimate");
        let b = ref_client.estimate(f).expect("reference estimate");
        assert!(a.to_bits() == b.to_bits(), "feature {f}: {a} vs {b}");
    }
    println!("recovered node ≡ never-crashed reference, bit for bit ✓");

    restarted.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
