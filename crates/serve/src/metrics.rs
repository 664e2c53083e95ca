//! Telemetry composition for the serving node: per-model op telemetry,
//! node-wide transport and scheduler metrics, replication-lag gauges,
//! and the `OP_METRICS` text-exposition renderer.
//!
//! The hot-path contract: recording a frame costs a fixed array index
//! plus relaxed atomic adds — no locks, no allocation. The only mutex
//! here guards cold-path state: the replication-lag gauge map (written by
//! the gossip thread, hertz not megahertz). Everything
//! is further gated on [`wmsketch_telemetry::enabled`], so
//! `WMSKETCH_TELEMETRY=off` reduces every instrumentation point to one
//! relaxed load.
//!
//! See the crate rustdoc for the metric-name registry table the
//! exposition emits.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use wmsketch_hashing::codec::Reader;
use wmsketch_telemetry::{Counter, ExpoWriter, Gauge, Journal, LatencyHistogram};

use crate::protocol::{
    take_request_head, OP_ACK, OP_CHECKPOINT, OP_CREATE, OP_ESTIMATE, OP_LIST, OP_MERGE,
    OP_METRICS, OP_PEER_JOIN, OP_PREDICT, OP_PULL_DELTA, OP_RESET, OP_RESTORE, OP_SHUTDOWN,
    OP_SNAPSHOT, OP_STATS, OP_TOPK, OP_UPDATE,
};
use crate::server::{ServeBackend, ServerState};

/// Number of op classes a latency-histogram array holds: one per wire
/// opcode plus a trailing catch-all for unknown/malformed requests.
pub(crate) const OP_CLASSES: usize = 18;

/// Maps a wire opcode to its histogram slot (unknown opcodes share the
/// trailing catch-all class).
pub(crate) fn op_class(op: u8) -> usize {
    match op {
        OP_UPDATE => 0,
        OP_PREDICT => 1,
        OP_TOPK => 2,
        OP_SNAPSHOT => 3,
        OP_MERGE => 4,
        OP_CHECKPOINT => 5,
        OP_RESTORE => 6,
        OP_ESTIMATE => 7,
        OP_STATS => 8,
        OP_RESET => 9,
        OP_SHUTDOWN => 10,
        OP_CREATE => 11,
        OP_LIST => 12,
        OP_PEER_JOIN => 13,
        OP_PULL_DELTA => 14,
        OP_ACK => 15,
        OP_METRICS => 16,
        _ => OP_CLASSES - 1,
    }
}

/// The exposition label for an op class (matches the opcode's wire name
/// in lowercase).
pub(crate) fn op_class_name(class: usize) -> &'static str {
    const NAMES: [&str; OP_CLASSES] = [
        "update",
        "predict",
        "topk",
        "snapshot",
        "merge",
        "checkpoint",
        "restore",
        "estimate",
        "stats",
        "reset",
        "shutdown",
        "create",
        "list",
        "peer_join",
        "pull_delta",
        "ack",
        "metrics",
        "other",
    ];
    NAMES[class]
}

/// Per-model telemetry, embedded in every registry entry so recording is
/// an array index away from the `Arc<ModelEntry>` the hot path already
/// holds — no map lookups, no locks.
pub(crate) struct ModelTelemetry {
    /// Per-op-class service latency (nanoseconds from decode to response
    /// on the execution path, the same span on both backends). This
    /// array is multiplied by every hosted model, and on a governed fleet
    /// node the registry's per-entry footprint bounds how many models fit
    /// under the memory budget — hence the 144-byte histogram.
    pub(crate) op_latency: [LatencyHistogram; OP_CLASSES],
    /// Wire bytes (frame header included) of requests addressing this
    /// model.
    pub(crate) request_bytes: Counter,
    /// Labelled examples ingested via UPDATE frames.
    pub(crate) update_examples: Counter,
    /// Requests that returned an error response.
    pub(crate) errors: Counter,
}

impl ModelTelemetry {
    pub(crate) fn new() -> Self {
        ModelTelemetry {
            op_latency: [const { LatencyHistogram::new() }; OP_CLASSES],
            request_bytes: Counter::new(),
            update_examples: Counter::new(),
            errors: Counter::new(),
        }
    }
}

/// Node-wide telemetry shared by both transport backends and the gossip
/// thread.
pub(crate) struct NodeMetrics {
    /// Telemetry for registry-level ops (CREATE/LIST/SHUTDOWN/PEER_JOIN/
    /// METRICS) and for requests that never resolved a model — exposed
    /// under the reserved model label `_registry`.
    pub(crate) registry: ModelTelemetry,
    /// Request frames read off sockets.
    pub(crate) frames_rx: Counter,
    /// Request bytes read off sockets (4-byte length prefixes included).
    pub(crate) bytes_rx: Counter,
    /// Response bytes handed to the transport (length prefixes included).
    pub(crate) bytes_tx: Counter,
    /// Currently open connections.
    pub(crate) connections: Gauge,
    /// Event backend: connections whose read frames wait, and whose
    /// reads are stopped, until their unsent responses drain
    /// (backpressure engaged).
    pub(crate) paused_connections: Gauge,
    /// Event backend: request frames read but not yet executed, across
    /// all connections.
    pub(crate) queue_depth: Gauge,
    /// Coarse span journal: gossip ticks, delta pulls, drains, model
    /// builds.
    pub(crate) journal: Journal,
    /// Gossip loop ticks started.
    pub(crate) gossip_rounds: Counter,
    /// Per-peer gossip exchanges attempted.
    pub(crate) gossip_attempts: Counter,
    /// Per-peer gossip exchanges that failed (entering jittered backoff).
    pub(crate) gossip_failures: Counter,
    /// Peer visits skipped because the peer was inside its backoff
    /// window.
    pub(crate) gossip_backoff_skips: Counter,
    /// Checkpoint/spec files durably written (background checkpointer,
    /// CREATE spec sidecars, and client-driven CHECKPOINT alike).
    pub(crate) checkpoints_written: Counter,
    /// Checkpointer sweeps that skipped a model because its clock had
    /// not moved since the last durable write (dirty-clock tracking).
    pub(crate) checkpoints_skipped: Counter,
    /// Checkpoint/spec writes that failed (I/O error or injected fault);
    /// the previous durable file stays intact and the write is retried
    /// on the next dirty sweep.
    pub(crate) checkpoint_failures: Counter,
    /// Models whose state was restored from a checkpoint at startup.
    pub(crate) models_recovered: Counter,
    /// Durable files rejected during startup recovery — unreadable,
    /// CRC-mismatched, truncated, or orphaned (checkpoint with no spec).
    pub(crate) recovery_rejected: Counter,
    /// Replication lag per (model id, origin): the origin clock the last
    /// gossip exchange reported minus this node's applied watermark —
    /// zero when fully caught up. Written by the gossip thread only.
    repl_lag: Mutex<BTreeMap<(u32, u64), i64>>,
}

/// Journal capacity: enough to hold several seconds of gossip ticks at
/// test cadence while bounding a long-lived node's memory.
const JOURNAL_CAPACITY: usize = 256;

impl NodeMetrics {
    pub(crate) fn new() -> Self {
        NodeMetrics {
            registry: ModelTelemetry::new(),
            frames_rx: Counter::new(),
            bytes_rx: Counter::new(),
            bytes_tx: Counter::new(),
            connections: Gauge::new(),
            paused_connections: Gauge::new(),
            queue_depth: Gauge::new(),
            journal: Journal::new(JOURNAL_CAPACITY),
            gossip_rounds: Counter::new(),
            gossip_attempts: Counter::new(),
            gossip_failures: Counter::new(),
            gossip_backoff_skips: Counter::new(),
            checkpoints_written: Counter::new(),
            checkpoints_skipped: Counter::new(),
            checkpoint_failures: Counter::new(),
            models_recovered: Counter::new(),
            recovery_rejected: Counter::new(),
            repl_lag: Mutex::new(BTreeMap::new()),
        }
    }

    /// Publishes a (model, origin) replication-lag reading from the
    /// gossip thread.
    pub(crate) fn set_repl_lag(&self, model: u32, origin: u64, lag: i64) {
        if wmsketch_telemetry::enabled() {
            self.repl_lag
                .lock()
                .expect("repl lag mutex")
                .insert((model, origin), lag);
        }
    }
}

/// `Instant::now()` only when telemetry is on — the single branch that
/// keeps `WMSKETCH_TELEMETRY=off` from paying for clock reads.
#[inline]
pub(crate) fn now_if_enabled() -> Option<Instant> {
    wmsketch_telemetry::enabled().then(Instant::now)
}

/// Records one dispatched request (every frame, on both backends):
/// latency, wire bytes, errors, and query-rate accounting, attributed to
/// the addressed model or to the `_registry` pseudo-model.
pub(crate) fn record_request(state: &ServerState, body: &[u8], started: Instant, ok: bool) {
    let elapsed = started.elapsed();
    let wire_bytes = body.len() as u64 + 4;
    let metrics = &state.metrics;
    let (class, entry) = match take_request_head(&mut Reader::new(body)) {
        Err(_) => (OP_CLASSES - 1, None),
        Ok(head) => {
            let class = op_class(head.op);
            let entry = if matches!(
                head.op,
                OP_CREATE | OP_LIST | OP_SHUTDOWN | OP_PEER_JOIN | OP_METRICS
            ) {
                None
            } else {
                crate::server::resolve_model(state, head.model).ok()
            };
            (class, entry)
        }
    };
    let tele = entry.as_ref().map_or(&metrics.registry, |e| &e.telemetry);
    tele.op_latency[class].record_duration(elapsed);
    tele.request_bytes.add(wire_bytes);
    if !ok {
        tele.errors.inc();
    }
}

/// Renders the node's full `wmsketch-metrics/v1` exposition — the
/// `OP_METRICS` response payload.
pub(crate) fn render(state: &ServerState) -> String {
    let m = &state.metrics;
    let mut w = ExpoWriter::new();
    let node_id = state.node_id.to_string();
    let backend = match state.backend {
        ServeBackend::Threaded => "threaded",
        ServeBackend::Event => "event",
    };
    w.sample_u64(
        "node_info",
        &[("node_id", &node_id), ("backend", backend)],
        1,
    );
    w.sample_u64(
        "telemetry_enabled",
        &[],
        u64::from(wmsketch_telemetry::enabled()),
    );

    // Transport.
    w.sample_u64("frames_rx_total", &[], m.frames_rx.get());
    w.sample_u64("bytes_rx_total", &[], m.bytes_rx.get());
    w.sample_u64("bytes_tx_total", &[], m.bytes_tx.get());
    w.sample_i64("connections_open", &[], m.connections.get());
    w.sample_i64("paused_connections", &[], m.paused_connections.get());

    // Scheduler (event backend; zero on the threaded backend).
    w.sample_i64("executor_queue_depth", &[], m.queue_depth.get());

    // The always-on STATS frame counter, mirrored so one scrape carries it.
    w.sample_u64(
        "update_frames_total",
        &[],
        state
            .update_frames
            .load(std::sync::atomic::Ordering::Relaxed),
    );

    // Gossip.
    w.sample_u64("gossip_rounds_total", &[], m.gossip_rounds.get());
    w.sample_u64("gossip_attempts_total", &[], m.gossip_attempts.get());
    w.sample_u64("gossip_failures_total", &[], m.gossip_failures.get());
    w.sample_u64(
        "gossip_backoff_skips_total",
        &[],
        m.gossip_backoff_skips.get(),
    );

    // Durability.
    w.sample_u64(
        "checkpoints_written_total",
        &[],
        m.checkpoints_written.get(),
    );
    w.sample_u64(
        "checkpoints_skipped_total",
        &[],
        m.checkpoints_skipped.get(),
    );
    w.sample_u64(
        "checkpoint_failures_total",
        &[],
        m.checkpoint_failures.get(),
    );
    w.sample_u64("models_recovered_total", &[], m.models_recovered.get());
    w.sample_u64("recovery_rejected_total", &[], m.recovery_rejected.get());

    // Memory governor (rows present only on governed nodes, like the
    // fault-injection block — an ungoverned node's exposition proves
    // governance is off).
    if let Some(gov) = &state.governor {
        w.sample_u64("governor_budget_bytes", &[], gov.budget());
        w.sample_u64("governor_resident_bytes", &[], gov.resident_bytes());
        w.sample_u64("governor_resident_models", &[], gov.resident_models());
        w.sample_u64("governor_spilled_models", &[], gov.spilled_models());
        w.sample_u64("governor_evictions_total", &[], gov.evictions());
        w.sample_u64("governor_revivals_total", &[], gov.revivals());
        w.sample_u64(
            "governor_revival_failures_total",
            &[],
            gov.revival_failures(),
        );
        w.sample_u64("governor_spill_failures_total", &[], gov.spill_failures());
        w.histogram(
            "governor_revival_latency_ns",
            &[],
            &gov.revival_latency().snapshot(),
        );
    }

    // Fault injection: one (checks, trips) pair per armed failpoint
    // site. Absent entirely when no fault plan is installed, so a clean
    // node's exposition proves no faults fired.
    for (site, checks, trips) in wmsketch_faults::counters() {
        w.sample_u64("fault_checks_total", &[("site", site.as_str())], checks);
        w.sample_u64("fault_trips_total", &[("site", site.as_str())], trips);
    }

    // Per-model telemetry (the `_registry` pseudo-model first).
    let entries = state.entries();
    render_model(&mut w, "_registry", &m.registry);
    for entry in &entries {
        render_model(&mut w, entry.name(), &entry.telemetry);
    }

    // Replication lag, labelled by model *name* (the cross-node
    // replication key) and origin node id.
    {
        let lag = m.repl_lag.lock().expect("repl lag mutex");
        for (&(model, origin), &v) in lag.iter() {
            let Some(entry) = entries.iter().find(|e| e.id == model) else {
                continue;
            };
            let origin = origin.to_string();
            w.sample_i64(
                "replication_lag",
                &[("model", entry.name()), ("origin", &origin)],
                v,
            );
        }
    }

    w.journal(&m.journal);
    w.finish()
}

fn render_model(w: &mut ExpoWriter, name: &str, tele: &ModelTelemetry) {
    let labels = [("model", name)];
    for class in 0..OP_CLASSES {
        let snap = tele.op_latency[class].snapshot();
        if snap.count() > 0 {
            w.histogram(
                "op_latency_ns",
                &[("model", name), ("op", op_class_name(class))],
                &snap,
            );
        }
    }
    w.sample_u64("request_bytes_total", &labels, tele.request_bytes.get());
    w.sample_u64("update_examples_total", &labels, tele.update_examples.get());
    w.sample_u64("op_errors_total", &labels, tele.errors.get());
}
