//! Update-throughput tracking bin.
//!
//! Measures WM-/AWM-Sketch update throughput at the paper's 8 KB Figure-7
//! configuration on an RCV1-like stream, for the retained naive three-pass
//! path (`update_naive`), the fused single-hash pipeline (`update` /
//! `update_batch`), and the end-to-end serve ingest paths (`serve_ingest`: a loopback `wmsketch-serve` node — its
//! default WM model, one plain learner since v10, on the pipelined
//! **event backend** — fed pipelined UPDATE frames, so
//! framing, syscalls, and decode are all inside the timed region;
//! `AWM_serve_ingest`: the same loopback wire but through the node's
//! **model registry** — an AWM model created via OP_CREATE and addressed
//! with model-id frames — so the registry indirection cost is measured,
//! not assumed; `serve_saturation`: many pipelined connections, one
//! node, aggregate throughput), and writes the results as JSON so the
//! perf trajectory can be tracked PR over PR.
//!
//! v7 adds the telemetry dimension: every serve row carries the node's
//! **own** per-frame UPDATE service-latency quantiles (`latency_ns`:
//! p50/p90/p99, scraped over the wire via the `METRICS` op — the
//! latency telemetry measuring the very passes the row timed), and the
//! `serve_ingest` row gains a `serve_ingest_notelemetry` twin measured
//! as interleaved A/B passes with the telemetry switch off
//! (`wmsketch_telemetry::set_enabled`), whose ratio is reported as
//! `speedup.telemetry_overhead` — the measured, not assumed, cost of
//! the instrumentation on the hot ingest path. In-process rows have no
//! service boundary to meter, so their `latency_ns` is `null`.
//!
//! v8 adds the memory-governor dimension: the `AWM_serve_ingest` row
//! drops its 1-shard worker pool for the **unsharded** registry path
//! (shards=0 — the fleet hosting mode, and the shape the v7 0.66×
//! registry gap pointed at), `serve_ingest` gains a governed twin
//! (`serve_ingest_governed`: the same node under a memory budget big
//! enough that nothing ever spills, measured as interleaved A/B passes
//! whose ratio is `speedup.governor_overhead` — the all-resident cost
//! of governor accounting on the hot path), and a `fleet` block records
//! the governed model-fleet workload (~10k AWM models under a budget
//! far below their hot sum, zipf traffic, spill/revive counters, hit
//! rate, p99 revival latency, and a bit-identity spot check against an
//! all-hot reference node — see `wmsketch_bench::fleet`).
//!
//! v9 drops the `WM_simd`/`AWM_simd` rows, their speedup ratios, and the
//! `config.cpu_features` probe: the update path has a single scalar
//! implementation, so there is no second backend to compare.
//!
//! v10 serves every model as one plain learner: the `serve_ingest*` and
//! `serve_saturation` rows drive an unsharded default WM model (v6–v9:
//! a 2-shard deferred-heap pool), every serve row reports `shards: 0`,
//! and `config.serve` loses its `shards`, `wm_mode` and
//! `candidates_per_shard` keys. The in-process `WM_sharded_*` and
//! `AWM_sharded_4` rows are unchanged.
//!
//! v11 drops the in-process `WM_sharded_{1,2,4,8}` and `AWM_sharded_4`
//! rows, `config.shard_counts`, the `wm_sharded_over_fused` and
//! `awm_sharded4_over_fused` ratios, and the per-row `shards` field: the
//! worker pool those rows timed is gone, and every remaining row runs one
//! learner.
//!
//! Usage: `update_throughput_json [OUTPUT_PATH]`
//! (default output: `BENCH_update_throughput.json` in the working
//! directory; see `crates/bench/README.md` for the schema).

use std::time::Instant;
use wmsketch_core::{AwmSketch, AwmSketchConfig, OnlineLearner, WmSketch, WmSketchConfig};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_learn::{Label, SparseVector};

const BUDGET: usize = 8 * 1024;
const STREAM_SEED: u64 = 7;
const STREAM_LEN: usize = 8192;
/// Wall-clock budget per measured variant, seconds. Emitted in the JSON
/// config block so the output is self-describing.
const MEASURE_SECS: f64 = 1.0;
/// Untimed passes before measurement (page in the stream, train the
/// branch predictors). Emitted in the JSON config block.
const WARMUP_PASSES: usize = 1;
/// Examples per UPDATE frame on the serve ingest path.
const SERVE_FRAME_EXAMPLES: usize = 1024;
/// UPDATE frames each client keeps in flight (pipelining depth). 1 would
/// reproduce v5's blocking request/response cadence.
const SERVE_PIPELINE_WINDOW: usize = 8;
/// Concurrent client connections in the saturation row.
const SATURATION_CONNECTIONS: usize = 16;

struct Measurement {
    name: String,
    /// Concurrent client connections (saturation rows only).
    connections: Option<usize>,
    ns_per_update: f64,
    updates_per_sec: f64,
    updates_timed: u64,
    /// Serve rows only: the node's per-frame UPDATE service-latency
    /// quantiles (p50, p90, p99, ns), scraped via the METRICS op after
    /// the timed passes. `None` for in-process rows (no service
    /// boundary) and for the telemetry-off twin (nothing records).
    latency_ns: Option<(u64, u64, u64)>,
}

/// Times whole passes over the stream, rebuilding the learner each pass so
/// sketch state does not accumulate across passes.
///
/// v4 reports the **fastest** pass rather than the mean, for every row:
/// preemption on a shared host only ever adds time, so the minimum is the
/// noise-robust estimator of true per-update cost, and using one
/// estimator everywhere keeps every cross-row ratio in the speedup block
/// estimator-consistent. (v3 and earlier reported the mean; cross-version
/// deltas partly reflect that change — see the README.)
fn measure<L>(
    name: &str,
    data: &[(SparseVector, Label)],
    make: impl Fn() -> L,
    mut pass: impl FnMut(&mut L, &[(SparseVector, Label)]),
) -> Measurement {
    for _ in 0..WARMUP_PASSES {
        let mut learner = make();
        pass(&mut learner, data);
    }
    let mut timed = 0u64;
    let mut elapsed = 0.0f64;
    let mut best = f64::INFINITY;
    while elapsed < MEASURE_SECS {
        let mut learner = make();
        let start = Instant::now();
        pass(&mut learner, data);
        let t = start.elapsed().as_secs_f64();
        elapsed += t;
        best = best.min(t);
        timed += data.len() as u64;
    }
    let ns_per_update = best * 1e9 / data.len() as f64;
    Measurement {
        name: name.to_string(),
        connections: None,
        ns_per_update,
        updates_per_sec: 1e9 / ns_per_update,
        updates_timed: timed,
        latency_ns: None,
    }
}

/// Scrapes the loopback node's per-frame UPDATE service-latency
/// quantiles for `model` via the METRICS op — the v7 `latency_ns` row
/// field. Returns `None` when telemetry is off (nothing recorded) or
/// the histogram is empty.
fn scrape_update_latency(
    client: &mut wmsketch_serve::ServeClient,
    model: &str,
) -> Option<(u64, u64, u64)> {
    let report = client.metrics().ok()?;
    let labels = [("model", model), ("op", "update")];
    let q = |name: &str| report.value(name, &labels);
    Some((
        q("op_latency_ns_p50")? as u64,
        q("op_latency_ns_p90")? as u64,
        q("op_latency_ns_p99")? as u64,
    ))
}

/// The loopback serve node every serve row runs against: the default WM
/// model, one plain learner, on the event backend (pinned, so the row
/// measures the readiness-driven loop regardless of env; off-Linux the
/// pin clamps to the threaded backend and the row reflects that
/// platform's real serving path).
fn serve_node_config(wm_cfg: WmSketchConfig) -> wmsketch_serve::ServeConfig {
    wmsketch_serve::ServeConfig::new(wm_cfg, 1).backend(wmsketch_serve::ServeBackend::Event)
}

/// End-to-end loopback ingest through `wmsketch-serve`: one node on an
/// ephemeral port, **pipelined** UPDATE frames of [`SERVE_FRAME_EXAMPLES`]
/// examples with [`SERVE_PIPELINE_WINDOW`] in flight, model RESET between
/// passes (mirroring `measure`'s rebuild-per-pass), with framing,
/// syscalls, and payload decode all inside the timed region.
///
/// With `registry_template = None` the frames target the node's default
/// WM model; with a template snapshot the bench registers a model via
/// OP_CREATE and drives ingest through the registry (v5's
/// `AWM_serve_ingest` row), so the cost of the model-id indirection and
/// registry dispatch is measured, not assumed.
fn measure_serve_ingest(
    name: &str,
    wm_cfg: WmSketchConfig,
    registry_template: Option<&[u8]>,
    data: &[(SparseVector, Label)],
) -> Measurement {
    use wmsketch_serve::{ServeClient, WmServer};
    let server = WmServer::bind("127.0.0.1:0", serve_node_config(wm_cfg))
        .expect("bind loopback server")
        .spawn();
    let mut client = ServeClient::connect(server.addr()).expect("connect loopback server");
    let mut model_name = "default";
    if let Some(template) = registry_template {
        let id = client
            .create_model("bench", template, 0)
            .expect("create registry model");
        client.set_model(id).expect("address registry model");
        model_name = "bench";
    }
    let pass = |client: &mut ServeClient| {
        client.reset().expect("reset serve node");
        client
            .update_many(data, SERVE_FRAME_EXAMPLES, SERVE_PIPELINE_WINDOW)
            .expect("serve ingest");
    };
    for _ in 0..WARMUP_PASSES {
        pass(&mut client);
    }
    let mut timed = 0u64;
    let mut elapsed = 0.0f64;
    let mut best = f64::INFINITY;
    while elapsed < MEASURE_SECS {
        client.reset().expect("reset serve node");
        let start = Instant::now();
        client
            .update_many(data, SERVE_FRAME_EXAMPLES, SERVE_PIPELINE_WINDOW)
            .expect("serve ingest");
        let t = start.elapsed().as_secs_f64();
        elapsed += t;
        best = best.min(t);
        timed += data.len() as u64;
    }
    let latency_ns = scrape_update_latency(&mut client, model_name);
    server.shutdown();
    // Fastest pass, like `measure` — one estimator for every row.
    let ns_per_update = best * 1e9 / data.len() as f64;
    Measurement {
        name: name.to_string(),
        connections: None,
        ns_per_update,
        updates_per_sec: 1e9 / ns_per_update,
        updates_timed: timed,
        latency_ns,
    }
}

/// The `serve_ingest` row and its telemetry-off twin, measured as
/// **interleaved** A/B passes over the same node: one pass of each,
/// repeating, because the pair's *ratio* is the reported
/// `telemetry_overhead` and alternating passes exposes both variants to
/// the same drift (noisy neighbors, thermals) on a busy host.
/// The node lives in this process, so the per-pass toggle is
/// `wmsketch_telemetry::set_enabled`; the switch is restored to its
/// prior state before returning. Returns `(on, off, overhead)` with
/// `overhead = best_on / best_off` (1.00 = free, 1.02 = 2% tax).
fn measure_serve_telemetry_ab(
    wm_cfg: WmSketchConfig,
    data: &[(SparseVector, Label)],
) -> (Measurement, Measurement, f64) {
    use wmsketch_serve::{ServeClient, WmServer};
    let was_enabled = wmsketch_telemetry::enabled();
    let server = WmServer::bind("127.0.0.1:0", serve_node_config(wm_cfg))
        .expect("bind loopback server")
        .spawn();
    let mut client = ServeClient::connect(server.addr()).expect("connect loopback server");
    let one_pass = |client: &mut ServeClient, on: bool| {
        wmsketch_telemetry::set_enabled(on);
        client.reset().expect("reset serve node");
        let start = Instant::now();
        client
            .update_many(data, SERVE_FRAME_EXAMPLES, SERVE_PIPELINE_WINDOW)
            .expect("serve ingest");
        start.elapsed().as_secs_f64()
    };
    for _ in 0..WARMUP_PASSES {
        let _ = one_pass(&mut client, true);
        let _ = one_pass(&mut client, false);
    }
    let (mut elapsed_on, mut elapsed_off) = (0.0f64, 0.0f64);
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    let (mut timed_on, mut timed_off) = (0u64, 0u64);
    while elapsed_on < MEASURE_SECS || elapsed_off < MEASURE_SECS {
        let t = one_pass(&mut client, true);
        elapsed_on += t;
        best_on = best_on.min(t);
        timed_on += data.len() as u64;
        let t = one_pass(&mut client, false);
        elapsed_off += t;
        best_off = best_off.min(t);
        timed_off += data.len() as u64;
    }
    // Scrape with the switch on; only the on-passes recorded, so the
    // quantiles describe exactly the instrumented variant's frames.
    wmsketch_telemetry::set_enabled(true);
    let latency_ns = scrape_update_latency(&mut client, "default");
    wmsketch_telemetry::set_enabled(was_enabled);
    server.shutdown();
    let row = |name: &str, best: f64, timed: u64, latency_ns: Option<(u64, u64, u64)>| {
        let ns_per_update = best * 1e9 / data.len() as f64;
        Measurement {
            name: name.to_string(),
            connections: None,
            ns_per_update,
            updates_per_sec: 1e9 / ns_per_update,
            updates_timed: timed,
            latency_ns,
        }
    };
    (
        row("serve_ingest", best_on, timed_on, latency_ns),
        row("serve_ingest_notelemetry", best_off, timed_off, None),
        best_on / best_off,
    )
}

/// The `serve_ingest` row against its **governed** twin: the identical
/// node configuration plus a memory governor whose budget (1 GiB) is
/// far above the node's footprint, so nothing ever spills and the pair
/// isolates exactly the governor's all-resident hot-path cost (the LRU
/// tick stamp and accounting loads on every frame). Interleaved passes
/// across the two nodes, same discipline and rationale as
/// [`measure_serve_telemetry_ab`]. Returns `(governed_row, overhead)`
/// with `overhead = best_governed / best_ungoverned` against a
/// freshly measured ungoverned baseline pass set.
fn measure_serve_governor_ab(
    wm_cfg: WmSketchConfig,
    data: &[(SparseVector, Label)],
) -> (Measurement, f64) {
    use wmsketch_serve::{ServeClient, WmServer};
    let mut dir = std::env::temp_dir();
    dir.push(format!("wmsketch_bench_governed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plain = WmServer::bind("127.0.0.1:0", serve_node_config(wm_cfg))
        .expect("bind ungoverned server")
        .spawn();
    let governed = WmServer::bind(
        "127.0.0.1:0",
        serve_node_config(wm_cfg)
            .data_dir(&dir)
            .memory_budget_bytes(1 << 30),
    )
    .expect("bind governed server")
    .spawn();
    let mut plain_client = ServeClient::connect(plain.addr()).expect("connect ungoverned");
    let mut gov_client = ServeClient::connect(governed.addr()).expect("connect governed");
    let one_pass = |client: &mut ServeClient| {
        client.reset().expect("reset serve node");
        let start = Instant::now();
        client
            .update_many(data, SERVE_FRAME_EXAMPLES, SERVE_PIPELINE_WINDOW)
            .expect("serve ingest");
        start.elapsed().as_secs_f64()
    };
    for _ in 0..WARMUP_PASSES {
        let _ = one_pass(&mut gov_client);
        let _ = one_pass(&mut plain_client);
    }
    let (mut elapsed_gov, mut elapsed_plain) = (0.0f64, 0.0f64);
    let (mut best_gov, mut best_plain) = (f64::INFINITY, f64::INFINITY);
    let mut timed_gov = 0u64;
    while elapsed_gov < MEASURE_SECS || elapsed_plain < MEASURE_SECS {
        let t = one_pass(&mut gov_client);
        elapsed_gov += t;
        best_gov = best_gov.min(t);
        timed_gov += data.len() as u64;
        let t = one_pass(&mut plain_client);
        elapsed_plain += t;
        best_plain = best_plain.min(t);
    }
    let latency_ns = scrape_update_latency(&mut gov_client, "default");
    plain.shutdown();
    governed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let ns_per_update = best_gov * 1e9 / data.len() as f64;
    (
        Measurement {
            name: "serve_ingest_governed".to_string(),
            connections: None,
            ns_per_update,
            updates_per_sec: 1e9 / ns_per_update,
            updates_timed: timed_gov,
            latency_ns,
        },
        best_gov / best_plain,
    )
}

/// Many-clients/one-server saturation: [`SATURATION_CONNECTIONS`]
/// concurrent connections each pipeline the full stream into the node's
/// default model, and the row reports **aggregate** updates/sec — the
/// event backend's loops under many-connection contention for one
/// learner lock. `ns_per_update` is
/// wall time per aggregate update.
fn measure_serve_saturation(
    name: &str,
    wm_cfg: WmSketchConfig,
    data: &[(SparseVector, Label)],
) -> Measurement {
    use wmsketch_serve::{ServeClient, WmServer};
    let server = WmServer::bind("127.0.0.1:0", serve_node_config(wm_cfg))
        .expect("bind loopback server")
        .spawn();
    let mut clients: Vec<ServeClient> = (0..SATURATION_CONNECTIONS)
        .map(|_| ServeClient::connect(server.addr()).expect("connect saturation client"))
        .collect();
    let mut control = ServeClient::connect(server.addr()).expect("connect control client");
    let aggregate = (data.len() * SATURATION_CONNECTIONS) as u64;
    let mut pass = |clients: &mut Vec<ServeClient>| {
        control.reset().expect("reset serve node");
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in clients.iter_mut() {
                s.spawn(move || {
                    c.update_many(data, SERVE_FRAME_EXAMPLES, SERVE_PIPELINE_WINDOW)
                        .expect("saturation ingest");
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    for _ in 0..WARMUP_PASSES {
        let _ = pass(&mut clients);
    }
    let mut timed = 0u64;
    let mut elapsed = 0.0f64;
    let mut best = f64::INFINITY;
    while elapsed < MEASURE_SECS {
        let t = pass(&mut clients);
        elapsed += t;
        best = best.min(t);
        timed += aggregate;
    }
    let latency_ns = scrape_update_latency(&mut control, "default");
    server.shutdown();
    let ns_per_update = best * 1e9 / aggregate as f64;
    Measurement {
        name: name.to_string(),
        connections: Some(SATURATION_CONNECTIONS),
        ns_per_update,
        updates_per_sec: 1e9 / ns_per_update,
        updates_timed: timed,
        latency_ns,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_update_throughput.json".to_string());
    // Fail on an unwritable output path *before* spending seconds measuring.
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            eprintln!(
                "error: output directory {} does not exist",
                parent.display()
            );
            std::process::exit(2);
        }
    }

    let mut generator = SyntheticClassification::rcv1_like(STREAM_SEED);
    let data: Vec<(SparseVector, Label)> = generator.take(STREAM_LEN);
    let nnz_total: usize = data.iter().map(|(x, _)| x.nnz()).sum();
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let wm_cfg = WmSketchConfig::with_budget_bytes(BUDGET);
    let awm_cfg = AwmSketchConfig::with_budget_bytes(BUDGET);
    eprintln!(
        "8 KB Figure-7 config: WM {}x{} heap {}, AWM |S|={} width {}, stream {} examples (avg nnz {:.1}), {host_cpus} host cpu(s)",
        wm_cfg.width,
        wm_cfg.depth,
        wm_cfg.heap_capacity,
        awm_cfg.heap_capacity,
        awm_cfg.width,
        data.len(),
        nnz_total as f64 / data.len() as f64,
    );

    let mut results = Vec::new();
    results.push(measure(
        "WM_naive",
        &data,
        || WmSketch::new(wm_cfg),
        |m, d| {
            for (x, y) in d {
                m.update_naive(x, *y);
            }
        },
    ));
    results.push(measure(
        "WM_fused",
        &data,
        || WmSketch::new(wm_cfg),
        |m, d| {
            for (x, y) in d {
                m.update(x, *y);
            }
        },
    ));
    results.push(measure(
        "WM_fused_batch",
        &data,
        || WmSketch::new(wm_cfg),
        |m, d| {
            m.update_batch(d);
        },
    ));
    results.push(measure(
        "AWM_naive",
        &data,
        || AwmSketch::new(awm_cfg),
        |m, d| {
            for (x, y) in d {
                m.update_naive(x, *y);
            }
        },
    ));
    results.push(measure(
        "AWM_fused",
        &data,
        || AwmSketch::new(awm_cfg),
        |m, d| {
            for (x, y) in d {
                m.update(x, *y);
            }
        },
    ));
    results.push(measure(
        "AWM_fused_batch",
        &data,
        || AwmSketch::new(awm_cfg),
        |m, d| {
            m.update_batch(d);
        },
    ));
    // The serve node's default WM model runs on the event backend, and
    // the client pipelines its frames (v10: one plain learner, where
    // v6–v9 served a 2-shard deferred-heap pool).
    // v7: measured as an interleaved A/B pair against the same node with
    // the telemetry switch off, so the instrumentation tax is a number
    // in the file rather than a claim in a comment.
    let telemetry_overhead = {
        let (on, off, overhead) = measure_serve_telemetry_ab(wm_cfg, &data);
        results.push(on);
        results.push(off);
        overhead
    };
    // v8: the governed twin of serve_ingest — same node shape plus a
    // never-binding 1 GiB memory budget, so the pair's ratio prices the
    // governor's per-frame accounting with everything resident.
    let governor_overhead = {
        let (governed, overhead) = measure_serve_governor_ab(wm_cfg, &data);
        results.push(governed);
        overhead
    };
    // v5: the same loopback ingest through the model registry — an AWM
    // model created via OP_CREATE and addressed with v2 (model-id)
    // frames — so the registry indirection cost shows up as a measured
    // row next to the default-model path. v8: the model is **unsharded**
    // (shards=0, the fleet hosting mode): v7's 1-shard worker-heap pool
    // paid a full cross-thread shard handoff per frame for zero
    // parallelism, which is where most of its 0.66× gap against the
    // in-process fused pipeline lived; shards=0 executes on the direct
    // learner under the slot lock, leaving only wire framing and
    // registry dispatch in the gap.
    {
        use wmsketch_core::SnapshotCodec;
        let template = AwmSketch::new(awm_cfg).to_snapshot_bytes();
        results.push(measure_serve_ingest(
            "AWM_serve_ingest",
            wm_cfg,
            Some(&template),
            &data,
        ));
    }
    // v6: many clients, one node — aggregate throughput with
    // SATURATION_CONNECTIONS pipelined connections sharing the default
    // model.
    results.push(measure_serve_saturation("serve_saturation", wm_cfg, &data));
    // v8: the governed model-fleet workload (scale via
    // WMSKETCH_FLEET_MODELS / _REQUESTS / _BACKEND; default 10k models,
    // budget 25% of the fleet's hot sum).
    eprintln!("running fleet workload (WMSKETCH_FLEET_MODELS to rescale)...");
    let fleet = wmsketch_bench::fleet::run_fleet(&wmsketch_bench::fleet::FleetConfig::from_env());

    let get = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .expect("measured variant")
            .ns_per_update
    };
    let wm_speedup = get("WM_naive") / get("WM_fused");
    let awm_speedup = get("AWM_naive") / get("AWM_fused");
    // The served WM path vs the in-process fused pipeline: the same
    // learner plus framing, syscalls, and decode on the wire.
    let serve_over_fused = get("WM_fused") / get("serve_ingest");
    // Aggregate saturation throughput vs fused, same normalization.
    let saturation_over_fused = get("WM_fused") / get("serve_saturation");
    // Registry-path overhead for an AWM model (wire + model-id dispatch
    // vs the in-process fused AWM pipeline).
    let awm_serve_over_fused = get("AWM_fused") / get("AWM_serve_ingest");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"wmsketch-update-throughput/v11\",\n");
    json.push_str("  \"config\": {\n");
    json.push_str(&format!("    \"budget_bytes\": {BUDGET},\n"));
    json.push_str(&format!(
        "    \"wm\": {{\"width\": {}, \"depth\": {}, \"heap_capacity\": {}}},\n",
        wm_cfg.width, wm_cfg.depth, wm_cfg.heap_capacity
    ));
    json.push_str(&format!(
        "    \"awm\": {{\"width\": {}, \"depth\": {}, \"heap_capacity\": {}}},\n",
        awm_cfg.width, awm_cfg.depth, awm_cfg.heap_capacity
    ));
    json.push_str(&format!(
        "    \"stream\": {{\"generator\": \"rcv1_like\", \"seed\": {STREAM_SEED}, \"examples\": {}, \"avg_nnz\": {:.2}}},\n",
        data.len(),
        nnz_total as f64 / data.len() as f64
    ));
    json.push_str(&format!(
        "    \"measurement\": {{\"warmup_passes\": {WARMUP_PASSES}, \"measure_secs\": {MEASURE_SECS:.1}, \"host_cpus\": {host_cpus}}},\n"
    ));
    json.push_str(&format!(
        "    \"serve\": {{\"backend\": \"event\", \"frame_examples\": {SERVE_FRAME_EXAMPLES}, \"pipeline_window\": {SERVE_PIPELINE_WINDOW}, \"saturation_connections\": {SATURATION_CONNECTIONS}, \"transport\": \"tcp-loopback\", \"registry_variant\": \"AWM_serve_ingest\"}}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"results\": [\n");
    for (idx, m) in results.iter().enumerate() {
        let comma = if idx + 1 < results.len() { "," } else { "" };
        // v3: every row carries host_cpus so cross-host result files can
        // be compared label-by-label (thread-pool and loopback numbers
        // are meaningless without the core count they ran on).
        // v6: saturation rows additionally carry their concurrent
        // connection count (aggregate rows are meaningless without it).
        let connections = m
            .connections
            .map_or(String::new(), |n| format!("\"connections\": {n}, "));
        // v7: serve rows carry the node's per-frame UPDATE service-latency
        // quantiles, scraped from the node's own histograms; rows with no
        // service boundary carry null.
        let latency = m.latency_ns.map_or("null".to_string(), |(p50, p90, p99)| {
            format!("{{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}")
        });
        json.push_str(&format!(
            "    {{\"name\": \"{}\", {connections}\"host_cpus\": {host_cpus}, \"ns_per_update\": {:.1}, \"updates_per_sec\": {:.0}, \"updates_timed\": {}, \"latency_ns\": {latency}}}{comma}\n",
            m.name, m.ns_per_update, m.updates_per_sec, m.updates_timed
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedup\": {\n");
    json.push_str(&format!(
        "    \"wm_fused_over_naive\": {wm_speedup:.2},\n    \"awm_fused_over_naive\": {awm_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "    \"serve_ingest_over_fused\": {serve_over_fused:.2},\n"
    ));
    json.push_str(&format!(
        "    \"serve_saturation_over_fused\": {saturation_over_fused:.2},\n"
    ));
    json.push_str(&format!(
        "    \"awm_serve_ingest_over_fused\": {awm_serve_over_fused:.2},\n"
    ));
    // The measured instrumentation tax on the hot ingest path: fastest
    // telemetry-on pass over fastest telemetry-off pass (interleaved).
    json.push_str(&format!(
        "    \"telemetry_overhead\": {telemetry_overhead:.4},\n"
    ));
    // The measured all-resident governor tax on the same path: fastest
    // governed pass over fastest ungoverned pass (interleaved nodes).
    json.push_str(&format!(
        "    \"governor_overhead\": {governor_overhead:.4}\n"
    ));
    json.push_str("  },\n");
    // v8: the governed model-fleet workload's own block (budget-bound
    // hosting, not per-update throughput — see crates/bench/README.md).
    json.push_str(&format!("  \"fleet\": {}\n", fleet.to_json("  ")));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    for m in &results {
        eprintln!(
            "{:<16} {:>9.1} ns/update  {:>11.0} updates/s",
            m.name, m.ns_per_update, m.updates_per_sec
        );
    }
    eprintln!("WM fused over naive: {wm_speedup:.2}x; AWM: {awm_speedup:.2}x");
    eprintln!("serve ingest over fused (loopback, {host_cpus} cpu): {serve_over_fused:.2}x");
    eprintln!(
        "serve saturation over fused ({SATURATION_CONNECTIONS} connections, aggregate): {saturation_over_fused:.2}x"
    );
    eprintln!("AWM serve ingest over fused (registry path, unsharded): {awm_serve_over_fused:.2}x");
    eprintln!("telemetry overhead on serve_ingest (on/off, interleaved): {telemetry_overhead:.4}x");
    eprintln!(
        "governor overhead on serve_ingest (governed/ungoverned, all-resident, interleaved): {governor_overhead:.4}x"
    );
    eprintln!(
        "fleet: {} models, budget {:.0}% of hot sum, hit rate {:.3}, {} revivals (p99 {} ns), bit_identical={}",
        fleet.models,
        fleet.budget_fraction * 100.0,
        fleet.hit_rate,
        fleet.revivals,
        fleet
            .p99_revival_ns
            .map_or("n/a".to_string(), |v| v.to_string()),
        fleet.bit_identical,
    );
    if let Some((p50, p90, p99)) = results
        .iter()
        .find(|m| m.name == "serve_ingest")
        .and_then(|m| m.latency_ns)
    {
        eprintln!("serve_ingest UPDATE service latency: p50 {p50} ns, p90 {p90} ns, p99 {p99} ns");
    }
    eprintln!("wrote {out_path}");
}
