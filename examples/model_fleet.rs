//! Memory-governed model fleet: host more models than fit in memory,
//! let the LRU governor spill the cold ones to disk as sealed WMS1
//! checkpoint records, and prove that transparent revival is
//! bit-identical to never having evicted at all.
//!
//! ```sh
//! cargo run --release --example model_fleet
//! ```
//!
//! The node runs with a data directory and a resident-byte budget set to
//! a quarter of what the whole fleet would occupy hot. CREATE admission
//! charges each model against the budget and evicts the least-recently
//! used models to disk as pressure mounts; any request that
//! addresses a cold model revives it inline from its spill record before
//! executing. Traffic is zipf-distributed, so a small hot set stays
//! resident while the long tail cycles through disk — exactly the
//! multi-tenant regime the governor exists for.
//!
//! Every model's twin is trained locally on the identical stream; at the
//! end, a sample of fleet models (most of which were spilled and revived
//! at least once) must match their twins' snapshots byte for byte.
//! Exits non-zero if the budget never forced a spill, if nothing was
//! revived, or if any snapshot diverges.

use rand::prelude::*;
use rand::rngs::StdRng;
use wmsketch::core::{AwmSketch, AwmSketchConfig, OnlineLearner, SnapshotCodec, WmSketchConfig};
use wmsketch::datagen::Zipf;
use wmsketch::learn::{Label, SparseVector};
use wmsketch::serve::{ServeClient, ServeConfig, WmServer};

/// Fleet size — far more models than the budget keeps resident.
const MODELS: u32 = 96;
/// Zipf-sampled model addresses (each request applies a small batch).
const REQUESTS: usize = 2_000;
/// Examples per request.
const BATCH: usize = 4;

/// One labelled example, deterministic per (model, step): a planted
/// per-model signal feature plus rotating noise.
fn example_for(salt: u32, step: u64) -> (SparseVector, Label) {
    let noise = 100 + ((step as u32).wrapping_mul(17).wrapping_add(salt * 131) % 400);
    if (step as u32 + salt).is_multiple_of(2) {
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
}

fn main() {
    let model_cfg = AwmSketchConfig::with_budget_bytes(2048).seed(9);
    let hot_sum = AwmSketch::new(model_cfg).resident_bytes() as u64 * u64::from(MODELS);
    let budget = hot_sum / 4;

    let dir = std::env::temp_dir().join(format!("wmsketch-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1)
        .data_dir(&dir)
        .memory_budget_bytes(budget);
    let server = WmServer::bind("127.0.0.1:0", cfg).expect("bind").spawn();
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    println!(
        "fleet: {MODELS} models, hot sum {hot_sum} B, governed budget {budget} B ({}%)",
        budget * 100 / hot_sum
    );

    // Create every model and keep a local twin trained on the same
    // stream.
    let template = AwmSketch::new(model_cfg).to_snapshot_bytes();
    let mut ids = Vec::new();
    let mut twins: Vec<AwmSketch> = Vec::new();
    let mut steps = vec![0u64; MODELS as usize];
    for salt in 0..MODELS {
        let id = client
            .create_model(&format!("f{salt}"), &template, 0)
            .expect("create under budget pressure");
        ids.push(id);
        twins.push(AwmSketch::new(model_cfg));
    }
    let after_create = client.stats().expect("stats");
    println!(
        "after create: {} resident / {} spilled, {} B charged of {} B",
        after_create.resident_models,
        after_create.spilled_models,
        after_create.resident_bytes,
        after_create.memory_budget,
    );

    // Zipf traffic: rank 1 is the hottest model; the tail pages in and
    // out of its spill record as the LRU set churns.
    let zipf = Zipf::new(u64::from(MODELS), 1.1);
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..REQUESTS {
        let salt = (zipf.sample(&mut rng) - 1) as u32;
        let batch: Vec<(SparseVector, Label)> = (0..BATCH)
            .map(|k| example_for(salt, steps[salt as usize] + k as u64))
            .collect();
        steps[salt as usize] += BATCH as u64;
        client.set_model(ids[salt as usize]).expect("set model");
        client.update_batch(&batch).expect("update");
        for (x, y) in &batch {
            twins[salt as usize].update(x, *y);
        }
    }

    let stats = client.stats().expect("stats");
    println!(
        "after traffic: {} resident / {} spilled, {} evictions, {} revivals",
        stats.resident_models, stats.spilled_models, stats.evictions_total, stats.revivals_total,
    );
    assert!(
        stats.evictions_total > 0 && stats.spilled_models > 0,
        "budget {budget} B never forced a spill",
    );
    assert!(
        stats.revivals_total > 0,
        "zipf traffic never touched a cold model",
    );
    assert!(
        stats.resident_bytes <= stats.memory_budget,
        "resident bytes {} exceed the budget {}",
        stats.resident_bytes,
        stats.memory_budget,
    );

    // Bit-identity: every eighth model (hot head and cold tail alike)
    // must snapshot byte-for-byte equal to its never-evicted twin.
    let mut checked = 0;
    for salt in (0..MODELS).step_by(8) {
        client.set_model(ids[salt as usize]).expect("set model");
        let remote = client.snapshot().expect("snapshot");
        let local = twins[salt as usize].to_snapshot_bytes();
        assert_eq!(
            remote, local,
            "model f{salt} diverged from its all-hot twin after spill/revival",
        );
        checked += 1;
    }
    println!("bit-identity: {checked} spot checks passed");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: the governed fleet answered everything as if it were all-hot");
}
