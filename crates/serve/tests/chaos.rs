//! Chaos suite: crash-safe durability and the self-healing client under
//! deterministic fault injection.
//!
//! The headline scenario kills a node mid-ingest while torn checkpoint
//! writes, dropped fsyncs, and injected connection kills are armed,
//! restarts it against the same data directory, and proves it recovers
//! from the last atomic checkpoint and **reconverges bit-identically**
//! (snapshot bytes, estimates, margins, top-K) with a fault-free
//! reference fed the same stream — while a retrying client's examples
//! land **exactly once** (final clock == examples sent). The converse is
//! proven too: with no faults armed, the telemetry shows zero retries
//! and zero trips.
//!
//! Fault plans are process-global, so every test serializes on one
//! mutex and installs its own plan (or `None`). The schedule is
//! deterministic per seed; CI threads `github.run_id` through
//! `WMSKETCH_FAULTS_SEED` so every run explores a fresh schedule and a
//! failure reproduces locally from the printed seed. Assertions are
//! written to hold for *any* seed: probabilities and retry budgets keep
//! the chance of a legitimately exhausted retry ladder negligible, and
//! progress invariants (resume from the server's clock) hold under any
//! fault placement.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wmsketch_core::{AwmSketch, AwmSketchConfig, SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch_faults::FaultPlan;
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::{
    RetryPolicy, SelfHealingClient, ServeClient, ServeConfig, ServerHandle, WmServer,
};

/// Serializes the tests: the fault plan and its counters are one
/// process-wide registry.
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// CI threads its run id through here; local runs default to 42. Printed
/// so a red run replays with `WMSKETCH_FAULTS_SEED=<seed>`.
fn chaos_seed() -> u64 {
    let seed = std::env::var("WMSKETCH_FAULTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("chaos seed: {seed} (set WMSKETCH_FAULTS_SEED to replay)");
    seed
}

/// A fresh per-test scratch directory (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wmsketch-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wm_cfg() -> WmSketchConfig {
    WmSketchConfig::new(128, 2).lambda(1e-5).seed(9)
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// A labelled stream with a planted signal pair plus seeded noise.
fn planted_stream(n: usize) -> Vec<(SparseVector, Label)> {
    let mut rng = 0x00DE_C0DEu64;
    (0..n)
        .map(|t| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = 100 + (rng >> 33) as u32 % 400;
            if t % 2 == 0 {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

fn wait_for(secs: u64, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Does the data dir hold at least one fully renamed (non-`.tmp`)
/// checkpoint file?
fn has_checkpoint(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
    })
}

/// With no fault plan armed, the durable node and the retrying client
/// must be invisible: zero retries, zero reconnects, zero fault trips
/// (proven from telemetry, not just client state), and a graceful
/// shutdown's final checkpoint restores the full clock on restart.
#[test]
fn zero_faults_means_zero_retries_and_a_clean_final_checkpoint() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("clean");
    let data = planted_stream(2000);

    let cfg = ServeConfig::new(wm_cfg(), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(10);
    let server = start(cfg.clone());
    let addr = server.addr().to_string();

    let mut client = SelfHealingClient::connect(addr, RetryPolicy::default()).expect("connect");
    let count = client.update_many(&data, 64, 8).expect("fault-free stream");
    assert_eq!(count, data.len() as u64, "exactly-once, trivially");
    assert_eq!(client.retries(), 0, "no faults, no retries");
    assert_eq!(client.reconnects(), 0, "no faults, no reconnects");

    let metrics = client.metrics_text().expect("metrics");
    assert!(
        !metrics.contains("fault_trips_total"),
        "no plan armed, so no fault series at all:\n{metrics}"
    );
    assert!(
        metrics.contains("checkpoint_failures_total 0"),
        "fault-free checkpointing must not fail:\n{metrics}"
    );
    assert_eq!(wmsketch_faults::total_trips(), 0);

    // Graceful shutdown takes a final checkpoint pass; a restart against
    // the same directory recovers the complete stream without a resend.
    server.shutdown();
    let restarted = start(cfg);
    let mut probe = ServeClient::connect(restarted.addr()).expect("probe connect");
    let stats = probe.stats().expect("stats");
    assert_eq!(
        stats.root_examples,
        data.len() as u64,
        "graceful shutdown persists the final clock"
    );
    let metrics = probe.metrics_text().expect("metrics");
    assert!(
        metrics.contains("models_recovered_total 1"),
        "the default model restores from its checkpoint:\n{metrics}"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline crash drill: a node ingests
/// under torn checkpoint writes + universally dropped fsyncs + injected
/// response-write kills, is killed (no final checkpoint), restarts from
/// the same data dir, and the self-healing client finishes the stream.
/// Final state must be bit-identical to a fault-free reference node fed
/// the same examples in the same order, and the clock must equal the
/// number of examples sent — exactly once, no loss, no double-count.
#[test]
fn killed_node_recovers_from_checkpoint_and_reconverges_bit_identically() {
    let _guard = faults_lock();
    let seed = chaos_seed();
    let dir = scratch_dir("crash");
    let data = planted_stream(4000);

    wmsketch_faults::install(Some(
        FaultPlan::parse("io.write=torn@0.1,io.fsync=drop@1.0,net.frame_write=err@0.02")
            .expect("plan")
            .with_seed(seed),
    ));

    // A snapshot captures a hosted learner's state completely, so
    // adopt-and-resume is bit-identical.
    let cfg = ServeConfig::new(wm_cfg(), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(5);
    let policy = RetryPolicy {
        max_attempts: 50,
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };

    // Phase 1: stream everything; injected connection kills force the
    // client through its reconnect + clock-probe resume path.
    let server = start(cfg.clone());
    let mut client =
        SelfHealingClient::connect(server.addr().to_string(), policy).expect("connect");
    let count = client.update_many(&data, 50, 8).expect("phase-1 stream");
    assert_eq!(count, data.len() as u64, "exactly-once under faults");

    // The checkpointer retries torn writes on later passes; wait until at
    // least one checkpoint has been fully renamed, then crash. Dropped
    // fsyncs (p=1.0) are harmless here — the files survive in the page
    // cache across an in-process restart — but they guarantee trips.
    assert!(
        wait_for(10, || has_checkpoint(&dir)),
        "no checkpoint survived torn writes in 10s"
    );
    server.kill();

    // Phase 2: restart against the same directory (faults still armed —
    // recovery itself must tolerate them), resume from whatever the last
    // atomic checkpoint held, and finish the stream exactly once.
    let restarted = start(cfg);
    let mut client =
        SelfHealingClient::connect(restarted.addr().to_string(), policy).expect("reconnect");
    let recovered = client.stats().expect("stats").root_examples;
    assert!(
        recovered <= data.len() as u64,
        "recovered clock {recovered} beyond the stream"
    );
    let count = client
        .update_many(&data[recovered as usize..], 50, 8)
        .expect("phase-2 resend");
    assert_eq!(count, data.len() as u64, "crash loses nothing durable");

    let trips = wmsketch_faults::total_trips();
    assert!(trips > 0, "the plan must actually have fired");
    eprintln!("fault counters: {:?}", wmsketch_faults::counters());

    // Comparison runs fault-free: a fresh reference node fed the same
    // stream in the same order, no durability in the loop.
    wmsketch_faults::install(None);
    let reference = start(ServeConfig::new(wm_cfg(), 1));
    let mut ref_client = ServeClient::connect(reference.addr()).expect("reference connect");
    for chunk in data.chunks(50) {
        ref_client.update_batch(chunk).expect("reference ingest");
    }

    let lhs = client.snapshot().expect("recovered snapshot");
    let rhs = ref_client.snapshot().expect("reference snapshot");
    assert_eq!(lhs, rhs, "snapshots diverge after recovery");

    for f in 0..600u32 {
        let a = client.estimate(f).expect("recovered estimate");
        let b = ref_client.estimate(f).expect("reference estimate");
        assert!(
            a.to_bits() == b.to_bits(),
            "feature {f}: recovered {a} vs reference {b}"
        );
    }
    for probe in [
        SparseVector::one_hot(3, 1.0),
        SparseVector::one_hot(9, 1.0),
        SparseVector::from_pairs(&[(3, 0.7), (9, 0.7), (123, 0.1)]),
    ] {
        let (m1, p1) = client.predict(&probe).expect("recovered predict");
        let (m2, p2) = ref_client.predict(&probe).expect("reference predict");
        assert!(m1.to_bits() == m2.to_bits(), "margin {m1} vs {m2}");
        assert_eq!(p1, p2);
    }
    let t1 = client.top_k(16).expect("recovered top-k");
    let t2 = ref_client.top_k(16).expect("reference top-k");
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(a.feature, b.feature);
        assert!(a.weight.to_bits() == b.weight.to_bits());
    }

    restarted.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (a): CHECKPOINT/RESTORE paths must not escape the
/// configured data directory — absolute paths and `..` traversal get a
/// typed remote error, confined relative paths land under the data dir,
/// and a node run *without* a data dir keeps the legacy verbatim
/// behavior.
#[test]
fn checkpoint_paths_are_confined_to_the_data_dir() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("confine");
    let server = start(ServeConfig::new(wm_cfg(), 1).data_dir(&dir));
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    c.update_batch(&planted_stream(50)).expect("ingest");

    for escape in ["/tmp/outside.ckpt", "../outside.ckpt", "a/../../b.ckpt"] {
        let err = c.checkpoint(escape).expect_err("escape must be rejected");
        assert!(
            err.to_string().contains("escapes"),
            "{escape}: unexpected error {err}"
        );
        let err = c.restore(escape).expect_err("escape must be rejected");
        assert!(err.to_string().contains("escapes"), "{escape}: {err}");
    }

    let written = c.checkpoint("sub/model.ckpt").expect("confined checkpoint");
    assert!(written > 0);
    assert!(
        dir.join("sub/model.ckpt").is_file(),
        "confined path lands under the data dir"
    );
    let clock = c.restore("sub/model.ckpt").expect("confined restore");
    assert_eq!(clock, 50);

    // A CHECKPOINT export may not name a file the node writes itself: a
    // model's `.spec` or `.ckpt` record (or its `.tmp`), wherever it sits.
    let template = WmSketch::new(wm_cfg()).to_snapshot_bytes();
    c.create_model("b", &template, 0).expect("create b");
    for own in [
        "m-62.spec",
        "m-62.ckpt",
        "m-62.ckpt.tmp",
        DEFAULT_CKPT,
        "sub/m-62.ckpt",
    ] {
        let err = c.checkpoint(own).expect_err("own record must be refused");
        assert!(
            err.to_string().contains("own durable records"),
            "{own}: unexpected error {err}"
        );
    }
    server.shutdown();
    // The refused writes left model b's spec intact: it survives a restart.
    let restarted = start(ServeConfig::new(wm_cfg(), 1).data_dir(&dir));
    let mut c = ServeClient::connect(restarted.addr()).expect("connect");
    let models = c.list_models().expect("list");
    assert!(
        models.iter().any(|m| m.name == "b"),
        "b survives: {models:?}"
    );
    let metrics = c.metrics_text().expect("metrics");
    assert!(
        metrics.contains("recovery_rejected_total 0"),
        "no durable record was clobbered:\n{metrics}"
    );
    restarted.shutdown();

    // Legacy mode (no data dir): verbatim paths still work — the
    // pre-durability contract the existing round-trip suite relies on.
    let legacy = start(ServeConfig::new(wm_cfg(), 1));
    let mut c = ServeClient::connect(legacy.addr()).expect("connect");
    c.update_batch(&planted_stream(50)).expect("ingest");
    let path = dir.join("legacy.ckpt");
    let path_str = path.to_str().expect("utf-8 temp path");
    c.checkpoint(path_str).expect("verbatim checkpoint");
    assert!(path.is_file());
    assert_eq!(c.restore(path_str).expect("verbatim restore"), 50);
    legacy.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt durable state must never take the node down: a bit-flipped
/// checkpoint is rejected by RESTORE with a typed error (the CRC
/// footer), the model keeps serving, and a corrupt file found during
/// startup recovery is skipped and counted, leaving a fresh model.
#[test]
fn corrupt_checkpoints_are_rejected_and_survived() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("corrupt");
    let server = start(ServeConfig::new(wm_cfg(), 1).data_dir(&dir));
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    c.update_batch(&planted_stream(100)).expect("ingest");
    c.checkpoint("good.ckpt").expect("checkpoint");

    // Flip one payload byte; RESTORE must reject and keep serving.
    let path = dir.join("good.ckpt");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite corrupted");
    let err = c.restore("good.ckpt").expect_err("corrupt restore");
    assert!(
        err.to_string().contains("integrity footer mismatch"),
        "unexpected error: {err}"
    );
    // Truncation is rejected too (flag-declared footer: no downgrade).
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
    c.restore("good.ckpt").expect_err("truncated restore");
    assert_eq!(
        c.stats().expect("still serving").routed,
        100,
        "failed restores leave the model untouched"
    );
    server.shutdown();

    // Plant the corrupt bytes where startup recovery will find them: the
    // default model's own checkpoint slot. Recovery must skip it (typed
    // rejection, counted) and come up with a fresh model.
    std::fs::write(dir.join("m-64656661756c74.ckpt"), &bytes).expect("plant corrupt ckpt");
    let restarted = start(ServeConfig::new(wm_cfg(), 1).data_dir(&dir));
    let mut c = ServeClient::connect(restarted.addr()).expect("connect");
    assert_eq!(c.stats().expect("stats").routed, 0, "fresh model");
    let metrics = c.metrics_text().expect("metrics");
    assert!(
        metrics.contains("recovery_rejected_total 1"),
        "the corrupt file must be counted:\n{metrics}"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Created models come back after a crash: the CREATE spec sidecar
/// re-registers the model (same name, same shape) and its checkpoint
/// restores its state, so a restarted node serves the model a client
/// created into the previous process.
#[test]
fn created_models_survive_a_crash_via_spec_sidecars() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("specs");
    let cfg = ServeConfig::new(wm_cfg(), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(5);
    let server = start(cfg.clone());
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    let template = {
        let learner = wmsketch_core::WmSketch::new(wm_cfg());
        wmsketch_core::SnapshotCodec::to_snapshot_bytes(&learner)
    };
    let id = c.create_model("crashy", &template, 0).expect("create");
    c.set_model(id).expect("address model");
    c.update_batch(&planted_stream(300)).expect("ingest");
    // Wait until the created model's durable checkpoint holds the *full*
    // ingest (a checkpoint pass may land mid-stream at a smaller clock;
    // renames are atomic, so a readable file decodes completely).
    let crashy_ckpt = dir.join("m-637261736879.ckpt"); // hex("crashy")
    assert!(
        wait_for(10, || std::fs::read(&crashy_ckpt).is_ok_and(|bytes| {
            wmsketch_core::decode_any_learner(&bytes).is_ok_and(|l| l.examples_seen() == 300)
        })),
        "the created model's full-clock checkpoint should land in 10s"
    );
    server.kill();

    let restarted = start(cfg);
    let mut c = ServeClient::connect(restarted.addr()).expect("connect");
    let models = c.list_models().expect("list");
    let row = models
        .iter()
        .find(|m| m.name == "crashy")
        .expect("created model re-registered from its spec sidecar");
    c.set_model(row.id).expect("address recovered model");
    assert_eq!(
        c.stats().expect("stats").routed,
        300,
        "recovered model state from its checkpoint"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default model's durable checkpoint file (`m-` + hex("default")).
const DEFAULT_CKPT: &str = "m-64656661756c74.ckpt";

/// Waits until the data dir's default-model checkpoint decodes at
/// `clock` — the background checkpointer has persisted that state.
fn wait_for_default_checkpoint(dir: &std::path::Path, clock: u64) {
    let path = dir.join(DEFAULT_CKPT);
    assert!(
        wait_for(10, || std::fs::read(&path).is_ok_and(|bytes| {
            wmsketch_core::decode_any_learner(&bytes).is_ok_and(|l| l.examples_seen() == clock)
        })),
        "the default model's clock-{clock} checkpoint should land in 10s"
    );
}

/// A cadence slow enough that a background pass rarely lands between a
/// test's replace and re-ingest steps, so the model comes back to the
/// last checkpoint's clock with different state and no checkpoint in
/// between — the case a clock-only dirty check missed. The assertions
/// hold for any interleaving.
const SLOW_CHECKPOINTS_MS: u64 = 200;

/// RESET, then ingest back to the clock of the last checkpoint: the
/// state differs from that checkpoint while the clock matches it, and a
/// graceful shutdown must still persist it. (A clock-only dirty check
/// skipped it, so a restart served the pre-RESET model and lost
/// acknowledged updates.)
#[test]
fn graceful_shutdown_persists_a_reset_model_back_at_its_checkpoint_clock() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("reset-clock");
    let cfg = ServeConfig::new(wm_cfg(), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(SLOW_CHECKPOINTS_MS);
    let data = planted_stream(600);

    let server = start(cfg.clone());
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    c.update_batch(&data[..300]).expect("ingest before RESET");
    wait_for_default_checkpoint(&dir, 300);
    c.reset().expect("reset");
    c.update_batch(&data[300..]).expect("ingest after RESET");
    let acknowledged = c.snapshot().expect("snapshot");
    server.shutdown();

    let restarted = start(cfg);
    let mut c = ServeClient::connect(restarted.addr()).expect("reconnect");
    assert_eq!(
        c.snapshot().expect("recovered snapshot"),
        acknowledged,
        "the restart must serve the post-RESET state the node acknowledged"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The RESTORE twin: restoring a checkpoint whose clock equals the last
/// background checkpoint's replaces the state without moving the clock,
/// and a graceful shutdown must persist the restored state.
#[test]
fn graceful_shutdown_persists_a_restored_model_at_its_checkpoint_clock() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("restore-clock");
    std::fs::create_dir_all(&dir).expect("data dir");
    let data = planted_stream(600);

    // Another node (no data dir, so its CHECKPOINT path is verbatim)
    // writes a 300-example checkpoint of a different stream into this
    // node's data dir.
    let other = start(ServeConfig::new(wm_cfg(), 1));
    let mut o = ServeClient::connect(other.addr()).expect("connect other");
    o.update_batch(&data[300..]).expect("ingest other");
    let restored = o.snapshot().expect("other snapshot");
    o.checkpoint(dir.join("other.ckpt").to_str().expect("utf-8 path"))
        .expect("other checkpoint");
    other.shutdown();

    let cfg = ServeConfig::new(wm_cfg(), 1)
        .data_dir(&dir)
        .checkpoint_every_ms(SLOW_CHECKPOINTS_MS);
    let server = start(cfg.clone());
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    c.update_batch(&data[..300]).expect("ingest");
    wait_for_default_checkpoint(&dir, 300);
    assert_eq!(c.restore("other.ckpt").expect("restore"), 300);
    assert_eq!(c.snapshot().expect("snapshot"), restored);
    server.shutdown();

    let restarted = start(cfg);
    let mut c = ServeClient::connect(restarted.addr()).expect("reconnect");
    assert_eq!(
        c.snapshot().expect("recovered snapshot"),
        restored,
        "the restart must serve the restored state"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The untrained template of the small AWM models the governed tests
/// below host.
fn awm_template() -> Vec<u8> {
    AwmSketch::new(AwmSketchConfig::new(8, 64).lambda(1e-5).seed(5)).to_snapshot_bytes()
}

/// A governed node in `dir` whose budget holds its default model and
/// one of the small AWM models, but not two: every revival spills the
/// coldest other model. The charges are read off a node with room for
/// everything. `checkpoint_ms` 0 runs no checkpointer.
fn governed_node(dir: &std::path::Path, checkpoint_ms: u64) -> ServerHandle {
    let probe_dir = scratch_dir("probe");
    let probe = start(
        ServeConfig::new(wm_cfg(), 1)
            .data_dir(&probe_dir)
            .memory_budget_bytes(1 << 30),
    );
    let mut c = ServeClient::connect(probe.addr()).expect("connect probe");
    let base = c.stats().expect("stats").resident_bytes;
    c.create_model("probe", &awm_template(), 0).expect("create");
    let one = c.stats().expect("stats").resident_bytes - base;
    probe.shutdown();
    let _ = std::fs::remove_dir_all(&probe_dir);
    start(
        ServeConfig::new(wm_cfg(), 1)
            .data_dir(dir)
            .memory_budget_bytes(base + one * 3 / 2)
            .checkpoint_every_ms(checkpoint_ms),
    )
}

/// Addresses the default model with a read, so it is hotter than every
/// model touched before.
fn touch_default(c: &mut ServeClient) {
    c.set_model(0).expect("address default");
    c.estimate(3).expect("estimate");
}

/// CREATEs and trains `v`, then `w`: admitting `w` spills `v`. Returns
/// their ids; the default model is left the hottest.
fn spill_v_for_w(c: &mut ServeClient) -> (u32, u32) {
    let v = c.create_model("v", &awm_template(), 0).expect("create v");
    c.set_model(v).expect("address v");
    c.update_batch(&planted_stream(300)).expect("train v");
    touch_default(c);
    let w = c.create_model("w", &awm_template(), 0).expect("create w");
    c.set_model(w).expect("address w");
    c.update_batch(&planted_stream(200)).expect("train w");
    touch_default(c);
    (v, w)
}

/// The node's `io.write` checks so far (counted only while a plan is
/// armed).
fn io_write_checks(c: &mut ServeClient) -> f64 {
    let report = c.metrics().expect("metrics");
    report
        .value("fault_checks_total", &[("site", "io.write")])
        .expect("io.write is armed")
}

/// A model revived by a read and not updated since is clean: its file
/// already holds its state, so spilling it again attempts no write. An
/// armed `io.write` plan that never fires counts every write attempt.
#[test]
fn a_model_revived_by_a_read_spills_again_without_a_write() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("clean-spill");
    let server = governed_node(&dir, 0);
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    let (v, w) = spill_v_for_w(&mut c);
    // Reading v revives it and spills w; v is then the coldest.
    c.set_model(v).expect("address v");
    c.estimate(3).expect("read v");
    touch_default(&mut c);

    wmsketch_faults::install(Some(FaultPlan::parse("io.write=err@0.0").expect("plan")));
    let before = c.stats().expect("stats");
    let checks = io_write_checks(&mut c);
    // Reading w revives it and spills v, which was only read.
    c.set_model(w).expect("address w");
    c.estimate(3).expect("read w");
    let after = c.stats().expect("stats");
    assert_eq!(after.revivals_total, before.revivals_total + 1);
    assert_eq!(after.evictions_total, before.evictions_total + 1);
    assert_eq!(
        io_write_checks(&mut c),
        checks,
        "a clean spill writes nothing"
    );
    // It was v that went: reading it revives it again.
    c.set_model(v).expect("address v");
    c.estimate(3).expect("read v");
    let revived = c.stats().expect("stats").revivals_total;
    assert_eq!(revived, after.revivals_total + 1, "v had been spilled");
    wmsketch_faults::install(None);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn spill write leaves the victim resident and dirty: its file
/// keeps the older state, and once the fault is gone its next spill
/// writes the current state, which a revival brings back bit for bit.
#[test]
fn a_torn_spill_leaves_the_victim_resident_and_dirty() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("torn-spill");
    let server = governed_node(&dir, 0);
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    let (v, w) = spill_v_for_w(&mut c);
    let v_file = dir.join("m-76.ckpt"); // hex("v")
    let spilled = std::fs::read(&v_file).expect("v's spill record");
    // Reading v revives it (spilling w); training it makes it dirty.
    c.set_model(v).expect("address v");
    c.update_batch(&planted_stream(50)).expect("train v");
    let current = c.snapshot().expect("snapshot v");
    assert_ne!(current, spilled);
    touch_default(&mut c);

    wmsketch_faults::install(Some(FaultPlan::parse("io.write=torn@1.0").expect("plan")));
    let before = c.stats().expect("stats");
    // Reading w revives it; spilling v (and the default model) is torn.
    c.set_model(w).expect("address w");
    c.estimate(3).expect("read w");
    let after = c.stats().expect("stats");
    assert_eq!(
        after.evictions_total, before.evictions_total,
        "nothing spilled"
    );
    let failures = c
        .metrics()
        .expect("metrics")
        .value("governor_spill_failures_total", &[])
        .expect("governed node");
    assert!(failures >= 1.0, "the torn spill is counted");
    assert_eq!(std::fs::read(&v_file).expect("read"), spilled, "file kept");
    c.set_model(v).expect("address v");
    assert_eq!(c.snapshot().expect("snapshot v"), current);
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats.revivals_total, after.revivals_total,
        "v stayed resident"
    );

    // Without the fault, v's next spill writes its current state.
    wmsketch_faults::install(None);
    c.set_model(w).expect("address w");
    c.estimate(3).expect("read w");
    touch_default(&mut c);
    c.create_model("x", &awm_template(), 0).expect("create x");
    assert_eq!(std::fs::read(&v_file).expect("read"), current, "v written");
    c.set_model(v).expect("address v");
    assert_eq!(c.snapshot().expect("revived v"), current, "bit-identical");
    let revived = c.stats().expect("stats").revivals_total;
    assert_eq!(revived, stats.revivals_total + 1, "v had been spilled");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpointer and the spill share one record of what each file
/// holds: a model the governor spilled and a read revived, unchanged, is
/// skipped by the checkpointer's next pass instead of rewritten.
#[test]
fn the_checkpointer_skips_a_model_revived_unchanged_after_a_spill() {
    let _guard = faults_lock();
    wmsketch_faults::install(None);
    let dir = scratch_dir("spill-ckpt");
    let server = governed_node(&dir, 100);
    let mut c = ServeClient::connect(server.addr()).expect("connect");
    let (v, _) = spill_v_for_w(&mut c);
    let counters = |c: &mut ServeClient| {
        let report = c.metrics().expect("metrics");
        let get = |name| report.value(name, &[]).expect("durability counter");
        (
            get("checkpoints_written_total"),
            get("checkpoints_skipped_total"),
        )
    };
    // Two passes in which every model (three) was skipped: all clean.
    let (_, skipped) = counters(&mut c);
    assert!(wait_for(10, || counters(&mut c).1 >= skipped + 6.0));
    let (written, skipped) = counters(&mut c);

    c.set_model(v).expect("address v");
    c.estimate(3).expect("read v");
    let stats = c.stats().expect("stats");
    assert!(stats.revivals_total >= 1, "v was revived");
    assert!(wait_for(10, || counters(&mut c).1 >= skipped + 6.0));
    assert_eq!(counters(&mut c).0, written, "nothing was rewritten");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
