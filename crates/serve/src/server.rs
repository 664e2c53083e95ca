//! The ingest/query server: a [`std::net::TcpListener`] feeding a
//! **model registry** — named [`wmsketch_learn::DynLearner`] models (WM,
//! AWM, multiclass), each one plain learner behind its own mutex so
//! traffic to different models never serializes.
//!
//! Two interchangeable transport backends speak the same wire protocol
//! (selected by [`ServeBackend`]):
//!
//! * **Threaded** — the classic blocking accept loop, one worker thread
//!   per connection, strict request/response per connection.
//! * **Event** (Linux, the default there) — a few run-to-completion
//!   loops (`crate::event_loop`), each over its own raw-`epoll` poller:
//!   incremental frame reassembly and request pipelining, every frame
//!   run in arrival order on the loop thread that read it, through the
//!   same handler the threaded backend runs.

use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use wmsketch_core::{DynLearner, LabelDomain, WmSketch, WmSketchConfig};
use wmsketch_hashing::codec::{self, Reader, Writer};

use crate::durability;
use crate::error::ServeError;
use crate::metrics;
use crate::protocol::{
    self, take_examples_into, take_features, take_request_head, write_frame, ExamplesScratch,
    ModelInfo, MAX_FRAME_LEN, OP_ACK, OP_CHECKPOINT, OP_CREATE, OP_ESTIMATE, OP_LIST, OP_MERGE,
    OP_METRICS, OP_PEER_JOIN, OP_PREDICT, OP_PULL_DELTA, OP_RESET, OP_RESTORE, OP_SHUTDOWN,
    OP_SNAPSHOT, OP_STATS, OP_TOPK, OP_UPDATE, PULL_SINCE_FULL, STATUS_ERR, STATUS_OK,
};

/// How long a connection thread blocks on the socket before re-checking
/// the shutdown flag; bounds drain latency without busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest model name CREATE accepts (bytes of UTF-8).
const MAX_MODEL_NAME: usize = 128;

/// Most models one node hosts. Each costs its learner's memory; the cap
/// keeps a misbehaving client from allocating models in a loop.
const MAX_MODELS: usize = 1024;

/// Model cap on a memory-governed node: the governor bounds resident
/// bytes (not model count), and spilled models cost only their stub, so
/// a governed node can host far larger fleets.
const MAX_MODELS_GOVERNED: usize = 65536;

/// Largest class count a wire-served multiclass model may have: labels
/// ride the protocol's `i8` slot, so class indices must fit `0..=127`.
const MAX_WIRE_CLASSES: u32 = 128;

/// Longest peer address OP_PEER_JOIN accepts (bytes of UTF-8).
const MAX_PEER_ADDR: usize = 256;

/// Most replication peers one node tracks.
const MAX_PEERS: usize = 1024;

/// Which transport backend a server runs; both speak the identical wire
/// protocol and produce bit-identical model state for the same
/// per-connection frame sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// Blocking accept loop, one thread per connection.
    Threaded,
    /// Readiness-driven nonblocking event loop (raw `epoll`; Linux only,
    /// where it is the default). Connections cost no thread, and a
    /// pipelined connection's requests are decoded while earlier ones
    /// execute; every request runs through the same handler as on the
    /// threaded backend.
    Event,
}

impl ServeBackend {
    /// The `WMSKETCH_SERVE_BACKEND` env selection (`threaded` | `event`),
    /// if present and well-formed.
    fn from_env() -> Option<Self> {
        match std::env::var("WMSKETCH_SERVE_BACKEND")
            .ok()?
            .to_ascii_lowercase()
            .as_str()
        {
            "threaded" | "thread" | "blocking" => Some(Self::Threaded),
            "event" | "epoll" => Some(Self::Event),
            _ => None,
        }
    }

    /// Resolution order: explicit [`ServeConfig::backend`] override, then
    /// the env var, then the platform default (event on Linux, threaded
    /// elsewhere). Off-Linux the event backend doesn't exist, so the
    /// result is clamped to threaded.
    fn resolve(explicit: Option<Self>) -> Self {
        let picked = explicit
            .or_else(Self::from_env)
            .unwrap_or(if cfg!(target_os = "linux") {
                Self::Event
            } else {
                Self::Threaded
            });
        if cfg!(target_os = "linux") {
            picked
        } else {
            Self::Threaded
        }
    }
}

/// Configuration of one serving node — specifically of its **default
/// model** (id 0, what a fresh client addresses). Further
/// models of any registered kind are added at runtime via OP_CREATE.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The default model's configuration.
    pub wm: WmSketchConfig,
    /// Transport backend override; `None` (the default) defers to the
    /// `WMSKETCH_SERVE_BACKEND` env var and then the platform default.
    pub backend: Option<ServeBackend>,
    /// This node's replication identity. Only needs to be unique within
    /// a cluster; a node never gossips with a peer whose id equals its
    /// own. Defaults to 0.
    pub node_id: u64,
    /// Anti-entropy gossip cadence in milliseconds; 0 (the default)
    /// disables the gossip loop entirely. Peers are registered at runtime
    /// via OP_PEER_JOIN.
    pub gossip_interval_ms: u64,
    /// The node's durable-state directory. When set, startup recovers
    /// every checkpointed model from it, OP_CHECKPOINT / OP_RESTORE
    /// paths are confined inside it, and the background checkpointer
    /// (if enabled) writes into it. `None` (the default) disables
    /// durability and keeps the legacy verbatim-path trust model.
    pub data_dir: Option<PathBuf>,
    /// Background checkpoint cadence in milliseconds; 0 (the default)
    /// disables the checkpointer thread. Requires
    /// [`ServeConfig::data_dir`]. Clean models (clock unchanged since
    /// their last checkpoint) are skipped, so an idle node costs no
    /// I/O.
    pub checkpoint_interval_ms: u64,
    /// Resident-byte budget for the memory governor; `None` (the
    /// default) disables governance entirely. When set, every hosted
    /// model is charged its truthful resident footprint, cold models
    /// are spilled to disk under pressure and revived
    /// transparently on next access, and OP_CREATE is rejected with a
    /// typed error when the budget cannot be met. Requires
    /// [`ServeConfig::data_dir`] (spills ride the durability layer's
    /// atomic checkpoint path); binding errors otherwise.
    pub memory_budget: Option<u64>,
}

impl ServeConfig {
    /// A node whose default model is one plain `WmSketch` of `wm`.
    /// `shards` must be 1: the node hosts every model as one learner and
    /// scales out by shipping snapshots between nodes instead.
    ///
    /// # Panics
    /// Panics unless `shards == 1`.
    #[must_use]
    pub fn new(wm: WmSketchConfig, shards: usize) -> Self {
        assert!(
            shards == 1,
            "a serving node hosts its default model as one learner (shards must be 1)"
        );
        Self {
            wm,
            backend: None,
            node_id: 0,
            gossip_interval_ms: 0,
            data_dir: None,
            checkpoint_interval_ms: 0,
            memory_budget: None,
        }
    }

    /// Enables durability: startup recovery from `dir`, confined
    /// OP_CHECKPOINT / OP_RESTORE paths, and (with
    /// [`ServeConfig::checkpoint_every_ms`]) background checkpoints. The
    /// directory is created on bind if missing.
    #[must_use]
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Enables the background checkpointer thread at the given cadence
    /// (requires [`ServeConfig::data_dir`]).
    #[must_use]
    pub fn checkpoint_every_ms(mut self, interval_ms: u64) -> Self {
        self.checkpoint_interval_ms = interval_ms;
        self
    }

    /// Sets this node's replication identity (cluster-unique).
    #[must_use]
    pub fn node_id(mut self, id: u64) -> Self {
        self.node_id = id;
        self
    }

    /// Enables the anti-entropy gossip loop at the given tick interval.
    #[must_use]
    pub fn gossip_every_ms(mut self, interval_ms: u64) -> Self {
        self.gossip_interval_ms = interval_ms;
        self
    }

    /// Enables the memory governor with the given resident-byte budget
    /// (requires [`ServeConfig::data_dir`]; see
    /// [`ServeConfig::memory_budget`]).
    #[must_use]
    pub fn memory_budget_bytes(mut self, budget: u64) -> Self {
        self.memory_budget = Some(budget);
        self
    }

    /// Forces a transport backend instead of the env/platform selection
    /// (an `Event` request is still clamped to `Threaded` off-Linux).
    #[must_use]
    pub fn backend(mut self, backend: ServeBackend) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// Counters reported by the STATS op (wire layout at
/// [`protocol::put_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// The addressed model's example count. Absorbed peer snapshots
    /// count too: every hosted model is one plain learner, whose example
    /// count and clock are one number.
    pub routed: u64,
    /// The addressed model's own clock (includes absorbed peers).
    pub root_examples: u64,
    /// The whole registry, one row per hosted model (kind, update clock,
    /// memory) — what this node is hosting, at a glance.
    pub models: Vec<ModelInfo>,
    /// Which transport backend the node is running.
    pub backend: ServeBackend,
    /// Learner-lock acquisitions that served UPDATE frames, node-wide.
    /// Every UPDATE frame takes the lock exactly once on both backends,
    /// so this always equals [`ServeStats::update_frames`]; the wire slot
    /// is kept so the STATS layout does not change.
    pub update_lock_acquisitions: u64,
    /// UPDATE frames executed node-wide (frames rejected at decode are
    /// not counted).
    pub update_frames: u64,
    /// The node's replication identity ([`ServeConfig::node_id`]).
    pub node_id: u64,
    /// The replication table, one row per (model, peer) pair the node has
    /// exchanged state with: the shipped-clock vector (what each peer has
    /// acked of this node's copy) and the applied watermark of each
    /// origin replica this node holds.
    pub replication: Vec<ReplRow>,
    /// The memory governor's resident-byte budget (0 = governor
    /// disabled; every following governor field is then 0 too).
    pub memory_budget: u64,
    /// Models whose learner is resident in memory.
    pub resident_models: u32,
    /// Models currently spilled to disk as checkpoint stubs.
    pub spilled_models: u32,
    /// Bytes currently charged against the governor budget.
    pub resident_bytes: u64,
    /// Models spilled to disk since startup (LRU eviction under budget
    /// pressure).
    pub evictions_total: u64,
    /// Cold models transparently revived from their spill records since
    /// startup.
    pub revivals_total: u64,
}

/// One row of the STATS replication table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplRow {
    /// The model the row describes.
    pub model: u32,
    /// The peer (or origin) node id.
    pub peer: u64,
    /// Highest clock of this node's copy the peer has acked via OP_ACK
    /// (0 when the peer has never acked).
    pub acked: u64,
    /// Clock of this node's replica of the peer's copy (0 when this node
    /// holds no replica for that origin).
    pub applied: u64,
}

/// A replica of one *origin* node's copy of a model, advanced by applying
/// pulled delta records (or replaced by pulled full snapshots).
pub(crate) struct OriginReplica {
    /// The replica's applied watermark (its clock).
    pub(crate) applied: u64,
    /// The replica itself — a plain learner, like every hosted model.
    pub(crate) learner: Box<dyn DynLearner>,
}

/// Per-model replication state (see the crate docs' replication section).
#[derive(Default)]
pub(crate) struct ReplState {
    /// Origin node id → replica of that node's copy of the model.
    pub(crate) origins: BTreeMap<u64, OriginReplica>,
    /// The shipped-clock vector: peer node id → highest clock of *this*
    /// node's copy the peer has acked (OP_ACK). Monotonic; a regressing
    /// ack is a typed error.
    pub(crate) acked: BTreeMap<u64, u64>,
}

/// Cache of the canonical merged view a replicated model serves queries
/// from, keyed by the clock basis it was built at.
#[derive(Default)]
struct MergedCache {
    /// Sorted `(origin, clock)` pairs (self included) the view reflects.
    basis: Vec<(u64, u64)>,
    view: Option<Box<dyn DynLearner>>,
}

/// What a model's learner slot holds: the live learner, or — on a
/// memory-governed node — a stub pointing at the spilled checkpoint
/// record the learner can be revived from.
pub(crate) enum ModelSlot {
    /// The learner is resident.
    Resident(Box<dyn DynLearner>),
    /// The learner was spilled to disk; the stub answers monitoring
    /// reads (LIST/STATS) without forcing a revival.
    Spilled(SpilledStub),
}

/// The lightweight registry residue of a spilled model.
pub(crate) struct SpilledStub {
    /// The learner's clock at spill time (0 for a lazily-recovered
    /// checkpoint that has never been read).
    pub(crate) clock: u64,
    /// The learner's §7.1 memory figure at spill time (0 when unknown).
    pub(crate) memory_bytes: u64,
    /// The sealed WMS1 spill record (also the model's checkpoint path).
    pub(crate) path: PathBuf,
}

/// One hosted model: identity, label contract, the untrained template it
/// is rebuilt from, and the live learner (or its spill stub) behind its
/// own mutex.
///
/// Lock order within an entry: `ckpt_io` → `slot` → `repl` → `merged`.
/// Any path may take a later lock while holding an earlier one, never
/// the reverse.
pub(crate) struct ModelEntry {
    pub(crate) id: u32,
    name: String,
    kind: u8,
    pub(crate) label_domain: LabelDomain,
    /// The untrained `WMS1` snapshot RESET, RESTORE, revival and
    /// recovery rebuild the model from.
    template: Vec<u8>,
    pub(crate) slot: Mutex<ModelSlot>,
    /// How many times the learner has been replaced wholesale (RESET,
    /// RESTORE, recovery, gossip adoption). Bumped under the slot lock.
    /// The checkpointer keys its dirty check on `(installs, clock)`: a
    /// replaced learner can reach the clock of the last checkpoint with
    /// different state, and a clock-only check would skip it.
    pub(crate) installs: AtomicU64,
    /// Serializes writes of this model's checkpoint file. The
    /// checkpointer and OP_CHECKPOINT snapshot under `slot` but write
    /// outside it (slow disks must not stall ingest); on a governed
    /// node the governor's spill writes the *same* path, so every
    /// snapshot-then-write sequence holds this mutex end to end —
    /// otherwise a spill landing between a checkpoint's snapshot and
    /// its deferred write would be overwritten by older state, losing
    /// acknowledged updates when the stub is revived. Taken *before*
    /// `slot` (the spill path only ever `try_lock`s it, so a checkpoint
    /// in flight just disqualifies the victim — no blocking, no
    /// deadlock).
    pub(crate) ckpt_io: Mutex<()>,
    /// Replication state; empty (and never locked on the hot path beyond
    /// a map-emptiness check) for models no peer has gossiped about.
    pub(crate) repl: Mutex<ReplState>,
    merged: Mutex<MergedCache>,
    /// Per-model op telemetry — one array index from the entry `Arc` the
    /// hot path already holds, so recording never takes a lock.
    pub(crate) telemetry: metrics::ModelTelemetry,
    /// The node's memory governor, when governed. `None` keeps every
    /// governor touch off the hot path entirely.
    governor: Option<Arc<crate::governor::MemoryGovernor>>,
    /// LRU stamp: the governor tick of this model's last access.
    pub(crate) last_access: AtomicU64,
    /// Learner bytes currently charged against the governor budget
    /// (0 while spilled). The entry's own registry overhead is charged
    /// separately at admission and never discharged.
    pub(crate) resident_cost: AtomicU64,
}

/// A locked view of a model's **resident** learner, issued only by
/// [`ModelEntry::learner`] (which revives a spilled model first). Both
/// derefs reach the learner box, so existing `learner.update_batch(..)`
/// call sites read unchanged.
///
/// When the acquisition revived the model, budget pressure is resolved
/// on drop — the slot mutex is released *first*, then the governor
/// spills colder victims. Evicting from inside the revival (under the
/// slot lock) would run victim snapshot encoding and disk writes while
/// every queued request on the hot, just-revived model waits behind
/// them.
pub(crate) struct LearnerGuard<'a> {
    entry: &'a ModelEntry,
    /// `Some` until drop; taken there so the slot unlocks before any
    /// deferred eviction runs.
    guard: Option<std::sync::MutexGuard<'a, ModelSlot>>,
    /// Set when this acquisition revived the model from its spill
    /// record and the node may now be over budget.
    evict_on_release: bool,
}

impl LearnerGuard<'_> {
    fn slot(&self) -> &ModelSlot {
        self.guard.as_deref().expect("guard taken before drop")
    }

    fn slot_mut(&mut self) -> &mut ModelSlot {
        self.guard.as_deref_mut().expect("guard taken before drop")
    }

    /// Replaces the learner through the held lock, keeping governor
    /// accounting truthful (gossip's recovered-copy adoption path).
    pub(crate) fn install(&mut self, fresh: Box<dyn DynLearner>) {
        let cost = fresh.resident_bytes() as u64;
        let old = self.entry.resident_cost.swap(cost, Ordering::Relaxed);
        *self.slot_mut() = ModelSlot::Resident(fresh);
        self.entry.installs.fetch_add(1, Ordering::Relaxed);
        if let Some(gov) = &self.entry.governor {
            gov.note_install(old, cost, false);
        }
    }
}

impl std::ops::Deref for LearnerGuard<'_> {
    type Target = Box<dyn DynLearner>;
    fn deref(&self) -> &Box<dyn DynLearner> {
        match self.slot() {
            ModelSlot::Resident(l) => l,
            ModelSlot::Spilled(_) => unreachable!("guard issued for a spilled slot"),
        }
    }
}

impl std::ops::DerefMut for LearnerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Box<dyn DynLearner> {
        match self.slot_mut() {
            ModelSlot::Resident(l) => l,
            ModelSlot::Spilled(_) => unreachable!("guard issued for a spilled slot"),
        }
    }
}

impl Drop for LearnerGuard<'_> {
    fn drop(&mut self) {
        if self.evict_on_release {
            // Release the slot before evicting: victim spill I/O must
            // never run under this model's lock. The just-revived model
            // is exempt from its own pressure resolution.
            drop(self.guard.take());
            if let Some(gov) = &self.entry.governor {
                gov.evict_to_budget(self.entry.id);
            }
        }
    }
}

impl ModelEntry {
    /// Builds an entry (resident learner, fresh replication state).
    /// Governor accounting (admission charge, victim registration) is
    /// the caller's job — it depends on whether the path is CREATE
    /// (strict) or recovery (best-effort).
    fn new(
        id: u32,
        name: String,
        label_domain: LabelDomain,
        template: Vec<u8>,
        learner: Box<dyn DynLearner>,
        governor: Option<Arc<crate::governor::MemoryGovernor>>,
    ) -> Self {
        let kind = learner.kind();
        let resident = learner.resident_bytes() as u64;
        let tick = governor.as_ref().map_or(0, |g| g.touch());
        Self {
            id,
            name,
            kind,
            label_domain,
            template,
            slot: Mutex::new(ModelSlot::Resident(learner)),
            installs: AtomicU64::new(0),
            ckpt_io: Mutex::new(()),
            repl: Mutex::new(ReplState::default()),
            merged: Mutex::new(MergedCache::default()),
            telemetry: metrics::ModelTelemetry::new(),
            governor,
            last_access: AtomicU64::new(tick),
            resident_cost: AtomicU64::new(resident),
        }
    }

    /// The model's registry name (the cross-node replication key).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// A pristine learner decoded from the model's template.
    fn fresh_learner(&self) -> Result<Box<dyn DynLearner>, ServeError> {
        Ok(wmsketch_core::decode_any_learner(&self.template)?)
    }

    /// Locks the model's learner, transparently reviving it from its
    /// spill record first when the slot holds a stub. Revival runs
    /// under the slot mutex, so concurrent requests for the same cold
    /// model serialize behind one decode (single-flight). A failed
    /// revival (unreadable or corrupt spill record) leaves the stub in
    /// place, counts `governor_revival_failures_total`, and returns a
    /// typed error — the node keeps serving.
    pub(crate) fn learner(&self) -> Result<LearnerGuard<'_>, ServeError> {
        let mut slot = self.slot.lock().expect("slot mutex");
        let mut revived_now = false;
        if let ModelSlot::Spilled(stub) = &*slot {
            let started = std::time::Instant::now();
            let gov = self
                .governor
                .as_ref()
                .expect("spilled slot on an ungoverned entry");
            let revived = std::fs::read(&stub.path)
                .map_err(ServeError::from)
                .and_then(|bytes| {
                    let mut fresh = self.fresh_learner()?;
                    fresh.restore_snapshot(&bytes)?;
                    Ok(fresh)
                });
            match revived {
                Ok(fresh) => {
                    let cost = fresh.resident_bytes() as u64;
                    *slot = ModelSlot::Resident(fresh);
                    self.resident_cost.store(cost, Ordering::Relaxed);
                    gov.note_revival(cost, started);
                    // Pressure from the revived charge is resolved when
                    // the guard drops, after the slot unlocks.
                    revived_now = true;
                }
                Err(e) => {
                    gov.note_revival_failure();
                    return Err(e);
                }
            }
        }
        if let Some(gov) = &self.governor {
            self.last_access.store(gov.touch(), Ordering::Relaxed);
        }
        Ok(LearnerGuard {
            entry: self,
            guard: Some(slot),
            evict_on_release: revived_now,
        })
    }

    /// Replaces the learner *without* reading the spill record — the
    /// RESET / RESTORE / recovery path. A corrupt spill file can
    /// therefore never wedge a RESET: the stub is simply overwritten by
    /// the fresh instance and accounting moves back to resident.
    pub(crate) fn install(&self, fresh: Box<dyn DynLearner>) {
        let cost = fresh.resident_bytes() as u64;
        let mut slot = self.slot.lock().expect("slot mutex");
        let was_spilled = matches!(&*slot, ModelSlot::Spilled(_));
        let old = self.resident_cost.swap(cost, Ordering::Relaxed);
        *slot = ModelSlot::Resident(fresh);
        self.installs.fetch_add(1, Ordering::Relaxed);
        drop(slot);
        if let Some(gov) = &self.governor {
            gov.note_install(old, cost, was_spilled);
            self.last_access.store(gov.touch(), Ordering::Relaxed);
        }
    }

    /// Startup-recovery twin of the governor's spill: registers an
    /// existing checkpoint as this entry's lazy stub without reading
    /// it. The fresh (untrained) learner the entry was registered with
    /// is discarded and its charge released.
    pub(crate) fn adopt_lazy_stub(&self, path: PathBuf) {
        let mut slot = self.slot.lock().expect("slot mutex");
        if !matches!(&*slot, ModelSlot::Resident(_)) {
            return;
        }
        *slot = ModelSlot::Spilled(SpilledStub {
            clock: 0,
            memory_bytes: 0,
            path,
        });
        drop(slot);
        let freed = self.resident_cost.swap(0, Ordering::Relaxed);
        if let Some(gov) = &self.governor {
            gov.note_lazy_stub(freed);
        }
    }

    /// The model's clock without forcing a revival: the live learner's
    /// clock, or the stub's spill-time clock (0 for a never-read lazy
    /// recovery stub, which reads as "nothing ingested" — exactly what
    /// a gossip watermark should claim for state it hasn't loaded).
    pub(crate) fn clock_hint(&self) -> u64 {
        match &*self.slot.lock().expect("slot mutex") {
            ModelSlot::Resident(l) => l.examples_seen(),
            ModelSlot::Spilled(stub) => stub.clock,
        }
    }

    /// A registry row for LIST/STATS (locks the slot briefly; stub-aware
    /// so monitoring never revives a cold model).
    fn info(&self) -> ModelInfo {
        let (clock, memory_bytes) = match &*self.slot.lock().expect("slot mutex") {
            ModelSlot::Resident(l) => (l.examples_seen(), l.memory_bytes() as u64),
            ModelSlot::Spilled(stub) => (stub.clock, stub.memory_bytes),
        };
        ModelInfo {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind,
            clock,
            memory_bytes,
        }
    }
}

/// The model registry: id → entry plus a name index. Entries are `Arc`s
/// so request handling drops the registry lock before touching a model.
struct Registry {
    by_id: Vec<Arc<ModelEntry>>,
    by_name: HashMap<String, u32>,
    next_id: u32,
}

impl Registry {
    fn get(&self, id: u32) -> Option<Arc<ModelEntry>> {
        // Ids are dense vector indices (assigned sequentially, models
        // never removed), so resolution is O(1); the filter keeps the
        // lookup correct even if that invariant ever changes.
        self.by_id
            .get(id as usize)
            .filter(|e| e.id == id)
            .map(Arc::clone)
    }
}

/// State shared between the transport backend and every request handler.
pub(crate) struct ServerState {
    registry: RwLock<Registry>,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    pub(crate) backend: ServeBackend,
    /// UPDATE frames executed (reported in both STATS tail slots).
    pub(crate) update_frames: AtomicU64,
    /// This node's replication identity.
    pub(crate) node_id: u64,
    /// Gossip cadence (0 = gossip loop not running).
    pub(crate) gossip_interval_ms: u64,
    /// Known replication peers: node id → address, registered via
    /// OP_PEER_JOIN (re-joins replace the address).
    pub(crate) peers: Mutex<BTreeMap<u64, String>>,
    /// Durable-state directory ([`ServeConfig::data_dir`]).
    pub(crate) data_dir: Option<PathBuf>,
    /// Background checkpoint cadence (0 = checkpointer not running).
    pub(crate) checkpoint_interval_ms: u64,
    /// Set by [`ServerHandle::kill`]: suppresses the checkpointer's
    /// final graceful pass so a simulated crash loses exactly what a
    /// real one would.
    pub(crate) crashed: AtomicBool,
    /// Node-wide telemetry (transport counters, scheduler gauges, the
    /// span journal, gossip counters, replication-lag gauges).
    pub(crate) metrics: metrics::NodeMetrics,
    /// The memory governor, when [`ServeConfig::memory_budget`] is set.
    pub(crate) governor: Option<Arc<crate::governor::MemoryGovernor>>,
}

impl ServerState {
    /// Every hosted model, id-ascending (Arc clones out from under the
    /// registry lock).
    pub(crate) fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.registry
            .read()
            .expect("registry lock")
            .by_id
            .iter()
            .map(Arc::clone)
            .collect()
    }

    /// The registry's model cap: byte-governed nodes trade the count cap
    /// for the budget and host much larger fleets.
    fn max_models(&self) -> usize {
        if self.governor.is_some() {
            MAX_MODELS_GOVERNED
        } else {
            MAX_MODELS
        }
    }
}

/// A bound, not-yet-running server. [`WmServer::spawn`] starts the
/// selected backend.
pub struct WmServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl WmServer {
    /// Binds a listener (use port 0 for an ephemeral port) and builds the
    /// default model (registry id 0, name `"default"`) from `cfg`. With a
    /// configured [`ServeConfig::data_dir`] this is also where **startup
    /// recovery** runs, before any connection can be accepted: stale
    /// `*.tmp` files from interrupted writes are swept, every `.spec`
    /// sidecar re-registers its model, and every `.ckpt` checkpoint is
    /// restored into a fresh build of its model's template (lazily, on
    /// first access, on a memory-governed node) — so the node
    /// resumes from its last atomic checkpoint and its gossip watermarks
    /// restart from the recovered clocks.
    ///
    /// # Errors
    /// Propagates socket errors from binding and I/O errors creating the
    /// data directory. Individual unreadable or corrupt durable files
    /// are skipped (counted in `recovery_rejected_total`), not fatal.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        #[cfg(target_os = "linux")]
        crate::poller::widen_backlog(&listener)?;
        let addr = listener.local_addr()?;
        let backend = ServeBackend::resolve(cfg.backend);
        let node_id = cfg.node_id;
        let gossip_interval_ms = cfg.gossip_interval_ms;
        let data_dir = cfg.data_dir.clone();
        let checkpoint_interval_ms = cfg.checkpoint_interval_ms;
        let governor = match (cfg.memory_budget, &data_dir) {
            (Some(budget), Some(dir)) => Some(Arc::new(crate::governor::MemoryGovernor::new(
                budget,
                dir.clone(),
            ))),
            (Some(_), None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "memory_budget requires a data_dir (spills need somewhere to live)",
                ));
            }
            (None, _) => None,
        };
        // The default model is hosted like any created model: its
        // template is its own fresh snapshot (encoded, not decoded, so
        // bind pays no decode).
        let learner: Box<dyn DynLearner> = Box::new(WmSketch::new(cfg.wm));
        let template = learner
            .snapshot()
            .expect("a WM learner always has a snapshot codec");
        // A budget too small to even hold the default model is a
        // configuration error surfaced at bind.
        if let Some(gov) = &governor {
            let cost = learner.resident_bytes() as u64
                + crate::governor::entry_overhead("default".len(), template.len());
            gov.admit(cost, true).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "memory_budget is smaller than the default model's resident footprint",
                )
            })?;
        }
        let default = Arc::new(ModelEntry::new(
            protocol::DEFAULT_MODEL_ID,
            "default".to_string(),
            LabelDomain::Binary,
            template,
            learner,
            governor.clone(),
        ));
        if let Some(gov) = &governor {
            gov.register_victim(&default);
        }
        let mut by_name = HashMap::new();
        by_name.insert(default.name.clone(), default.id);
        let state = Arc::new(ServerState {
            registry: RwLock::new(Registry {
                by_id: vec![default],
                by_name,
                next_id: 1,
            }),
            addr,
            shutdown: AtomicBool::new(false),
            backend,
            update_frames: AtomicU64::new(0),
            node_id,
            gossip_interval_ms,
            peers: Mutex::new(BTreeMap::new()),
            data_dir,
            checkpoint_interval_ms,
            crashed: AtomicBool::new(false),
            metrics: metrics::NodeMetrics::new(),
            governor,
        });
        if state.data_dir.is_some() {
            recover_registry(&state)?;
        }
        Ok(Self { listener, state })
    }

    /// The bound address (the resolved port when bound to port 0).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The transport backend this server resolved to.
    #[must_use]
    pub fn backend(&self) -> ServeBackend {
        self.state.backend
    }

    /// Starts the selected backend on a background thread and returns a
    /// handle that can address and stop the server.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let listener = self.listener;
        let accept = match self.state.backend {
            #[cfg(target_os = "linux")]
            ServeBackend::Event => {
                std::thread::spawn(move || crate::event_loop::run(listener, &state))
            }
            _ => std::thread::spawn(move || accept_loop(&listener, &state)),
        };
        // The anti-entropy tick runs on its own timer thread for both
        // backends (it drives blocking client I/O toward peers, which
        // must never stall the event loop's poller).
        let gossip = (self.state.gossip_interval_ms > 0).then(|| {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || crate::gossip::run(&state))
        });
        // The checkpointer likewise ticks on its own thread: it holds
        // each learner lock only long enough to clock-check and encode,
        // and does its (possibly slow, fault-injected) file I/O outside.
        let checkpointer = (self.state.checkpoint_interval_ms > 0 && self.state.data_dir.is_some())
            .then(|| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || checkpoint_loop(&state))
            });
        ServerHandle {
            state: self.state,
            accept: Some(accept),
            gossip,
            checkpointer,
        }
    }
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
    gossip: Option<std::thread::JoinHandle<()>>,
    checkpointer: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The transport backend the server is running.
    #[must_use]
    pub fn backend(&self) -> ServeBackend {
        self.state.backend
    }

    /// Signals shutdown, wakes the backend loop, and joins it (which in
    /// turn drains every in-flight request). With durability enabled the
    /// checkpointer takes one final pass, so a *graceful* shutdown
    /// persists every model's latest state.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Simulated crash: stops the server like [`ServerHandle::shutdown`]
    /// but **suppresses the checkpointer's final pass**, so the durable
    /// state is exactly whatever the background cadence (and any
    /// injected faults) managed to persist — the restart then recovers
    /// from the last *atomic* checkpoint, which is what the chaos suite
    /// proves. In-flight requests still drain; this simulates losing the
    /// process, not the TCP stack.
    pub fn kill(mut self) {
        self.state.crashed.store(true, Ordering::SeqCst);
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the (possibly blocking) accept with a throwaway connection.
        let _ = TcpStream::connect(wake_addr(self.state.addr));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.gossip.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
    }
}

/// Address used to self-connect and wake the blocking accept loop.
/// Connecting to an unspecified bind address (`0.0.0.0` / `::`) is
/// non-portable (it fails outright on some platforms, leaving accept
/// blocked and shutdown joining forever), so substitute the matching
/// loopback.
pub(crate) fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts connections until the shutdown flag is set, then joins every
/// connection thread so in-flight requests finish before the server
/// exits (graceful drain). The threaded backend's top level.
pub(crate) fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Reap finished connection threads so a long-lived server
                // doesn't accumulate a handle per connection ever served.
                workers.retain(|w| !w.is_finished());
                let state = Arc::clone(state);
                workers.push(std::thread::spawn(move || {
                    state.metrics.connections.inc();
                    let _ = serve_connection(stream, &state);
                    state.metrics.connections.dec();
                }));
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept errors (e.g. fd exhaustion) fail
                // instantly; back off briefly instead of spinning a core —
                // which would starve the very connection threads whose
                // exit frees the descriptors.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let drain_started = std::time::Instant::now();
    let joined = workers.len() as u64;
    for w in workers {
        let _ = w.join();
    }
    state.metrics.journal.push("drain", joined, drain_started);
}

/// The background checkpointer: every interval it sweeps the registry
/// and persists each model whose `(installs, clock)` pair moved since
/// its last successful checkpoint (**dirty tracking** — a clean model
/// costs one lock acquisition and two counter reads, no encode, no
/// I/O). A graceful
/// shutdown takes one final pass so the durable state is current;
/// [`ServerHandle::kill`] (simulated crash) suppresses it.
pub(crate) fn checkpoint_loop(state: &Arc<ServerState>) {
    let interval = Duration::from_millis(state.checkpoint_interval_ms.max(1));
    let mut last_persisted: HashMap<u32, (u64, u64)> = HashMap::new();
    while !state.shutdown.load(Ordering::SeqCst) {
        crate::gossip::sleep_interruptible(state, interval);
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        checkpoint_pass(state, &mut last_persisted);
    }
    if !state.crashed.load(Ordering::SeqCst) {
        checkpoint_pass(state, &mut last_persisted);
    }
}

/// One checkpointer sweep over the registry.
fn checkpoint_pass(state: &ServerState, last_persisted: &mut HashMap<u32, (u64, u64)>) {
    let Some(dir) = state.data_dir.clone() else {
        return;
    };
    for entry in state.entries() {
        // Hold the slot lock only to clock-check and encode; the
        // (faultable, possibly slow) file I/O runs outside it so a slow
        // disk never stalls ingest. A spilled model is skipped outright:
        // its spill record *is* its durable state (written atomically at
        // eviction time), and checkpointing must never revive it.
        //
        // The checkpoint-I/O mutex spans snapshot *and* write: on a
        // governed node the spill path writes the same file, and
        // without this a spill landing between our snapshot and our
        // deferred write would be clobbered by the older state while
        // the in-memory learner is already gone — silently losing
        // acknowledged updates. (The governor only `try_lock`s this
        // mutex, so holding it across the write just shields the model
        // from eviction for the duration.)
        let _ckpt_io = entry.ckpt_io.lock().expect("checkpoint io mutex");
        let snapshot = {
            let slot = entry.slot.lock().expect("slot mutex");
            let learner = match &*slot {
                ModelSlot::Resident(l) => l,
                ModelSlot::Spilled(_) => {
                    state.metrics.checkpoints_skipped.inc();
                    continue;
                }
            };
            // Installs are bumped under the slot lock held here, so the
            // pair is read consistently.
            let version = (
                entry.installs.load(Ordering::Relaxed),
                learner.examples_seen(),
            );
            if last_persisted.get(&entry.id) == Some(&version) {
                state.metrics.checkpoints_skipped.inc();
                continue;
            }
            learner.snapshot().map(|bytes| (version, bytes))
        };
        let written = snapshot
            .map_err(ServeError::from)
            .and_then(|(version, bytes)| {
                let path = dir.join(format!(
                    "{}.{}",
                    durability::file_stem(entry.name()),
                    durability::CKPT_EXT
                ));
                durability::write_atomic(&path, &bytes)?;
                Ok(version)
            });
        match written {
            Ok(version) => {
                last_persisted.insert(entry.id, version);
                state.metrics.checkpoints_written.inc();
            }
            // Failed writes (injected or real) leave the previous
            // checkpoint intact and the model marked dirty, so the next
            // pass retries.
            Err(_) => state.metrics.checkpoint_failures.inc(),
        }
    }
}

/// Startup recovery (bind-time, before any connection is accepted):
/// sweeps stale `.tmp` files, re-registers every `.spec` model, then
/// restores every `.ckpt` checkpoint into a fresh build of its model's
/// template. Corrupt or unreadable files — a torn record from a crash, a
/// flipped bit caught by the CRC footer — are counted and skipped: they
/// cost the state they failed to persist, never the node.
fn recover_registry(state: &ServerState) -> std::io::Result<()> {
    let dir = state
        .data_dir
        .clone()
        .expect("recovery requires a data dir");
    std::fs::create_dir_all(&dir)?;
    durability::clean_stale_tmp(&dir);
    // Pass 1: `.spec` sidecars re-register non-default models, in name
    // order. Registry ids may differ from the previous process's —
    // replication and recovery pair models by *name*, so that is fine.
    for (stem_name, path) in durability::scan(&dir, durability::SPEC_EXT) {
        let recovered = std::fs::read(&path)
            .map_err(ServeError::from)
            .and_then(|bytes| durability::decode_spec_record(&bytes))
            .and_then(|(name, template)| {
                if name != stem_name {
                    return Err(ServeError::Protocol(
                        "spec record name does not match its file stem",
                    ));
                }
                register_recovered_model(state, name, template)
            });
        if recovered.is_err() {
            state.metrics.recovery_rejected.inc();
        }
    }
    // Pass 2: `.ckpt` checkpoints restore model state (the default
    // model included — its template is its fresh snapshot at bind).
    // The decode verifies the CRC footer, so a lying-disk torn final
    // file is rejected here rather than absorbed truncated. A checkpoint
    // an older node wrote for a worker pool is that pool's root
    // snapshot, so it restores as one learner like any other.
    //
    // On a memory-governed node every model is recovered **lazily**:
    // the checkpoint is registered as a spill stub without being read,
    // so a 10k-model fleet restarts in registry-scan time and each
    // model pays its decode on first access (where a corrupt record
    // surfaces as that request's typed error, not a recovery
    // rejection).
    for (name, path) in durability::scan(&dir, durability::CKPT_EXT) {
        let restored = (|| -> Result<(), ServeError> {
            let entry = {
                let registry = state.registry.read().expect("registry lock");
                registry
                    .by_name
                    .get(&name)
                    .copied()
                    .and_then(|id| registry.get(id))
                    .ok_or(ServeError::Protocol("checkpoint for a model with no spec"))?
            };
            if state.governor.is_some() {
                entry.adopt_lazy_stub(path);
                return Ok(());
            }
            let bytes = std::fs::read(&path)?;
            let mut fresh = entry.fresh_learner()?;
            fresh.restore_snapshot(&bytes)?;
            entry.install(fresh);
            Ok(())
        })();
        match restored {
            Ok(()) => state.metrics.models_recovered.inc(),
            Err(_) => state.metrics.recovery_rejected.inc(),
        }
    }
    Ok(())
}

/// Re-registers one model from a recovered spec record — the recovery
/// twin of `handle_create`'s registration tail.
fn register_recovered_model(
    state: &ServerState,
    name: String,
    template: Vec<u8>,
) -> Result<(), ServeError> {
    let learner = wmsketch_core::decode_any_learner(&template)?;
    let label_domain = learner.label_domain();
    // Recovery admission is best-effort: the node must come back up
    // regardless of budget; pass 2 immediately stubs checkpointed
    // entries back out, resolving any overshoot.
    let cost = learner.resident_bytes() as u64
        + crate::governor::entry_overhead(name.len(), template.len());
    if let Some(gov) = &state.governor {
        gov.admit(cost, false)?;
    }
    let release = |e: ServeError| {
        if let Some(gov) = &state.governor {
            gov.release_admission(cost);
        }
        e
    };
    let mut registry = state.registry.write().expect("registry lock");
    if registry.by_id.len() >= state.max_models() {
        return Err(release(ServeError::Protocol("model registry is full")));
    }
    if registry.by_name.contains_key(&name) {
        return Err(release(ServeError::Protocol(
            "model name already registered",
        )));
    }
    let id = registry.next_id;
    registry.next_id += 1;
    registry.by_name.insert(name.clone(), id);
    let entry = Arc::new(ModelEntry::new(
        id,
        name,
        label_domain,
        template,
        learner,
        state.governor.clone(),
    ));
    if let Some(gov) = &state.governor {
        gov.register_victim(&entry);
    }
    registry.by_id.push(entry);
    Ok(())
}

/// Reads frames off one connection until EOF or shutdown, dispatching
/// each request and writing one response frame per request.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServerState>) -> Result<(), ServeError> {
    // A finite read timeout lets idle connections observe the shutdown
    // flag; mid-frame timeouts keep reading. NODELAY matters here: the
    // protocol is strict request/response, and Nagle + delayed ACKs add
    // ~40ms to every round trip otherwise.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    // Per-connection decode scratch: UPDATE frames reuse the same example
    // buffers for the connection's lifetime instead of allocating fresh
    // feature vectors per batch.
    let mut scratch = ExamplesScratch::new();
    loop {
        let body = match read_frame_interruptible(&mut stream, state) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        };
        state.metrics.frames_rx.inc();
        state.metrics.bytes_rx.add(body.len() as u64 + 4);
        let result = handle_request(&body, state, &mut scratch);
        // OP_SHUTDOWN closes this connection only when the request was
        // actually honored — a malformed shutdown frame gets an ERR
        // response on a connection that stays open, like any other error.
        let shutdown = result.is_ok() && is_shutdown_request(&body);
        let response = encode_response(result);
        state.metrics.bytes_tx.add(response.len() as u64 + 4);
        // `net.frame_write` failpoint: the request was *applied* but the
        // response is lost and the connection dies — exactly the ambiguity
        // a crashed NIC or killed process produces, and what the
        // self-healing client's clock-probe resume exists to resolve.
        if wmsketch_faults::check(wmsketch_faults::NET_FRAME_WRITE).is_some() {
            return Err(ServeError::Io(wmsketch_faults::injected_io_error(
                wmsketch_faults::NET_FRAME_WRITE,
            )));
        }
        write_frame(&mut stream, &response)?;
        if shutdown {
            return Ok(());
        }
    }
}

/// Encodes a handler result as a response frame body, substituting a
/// typed ERR for oversized payloads (e.g. a SNAPSHOT of a sketch too
/// large for one frame) instead of letting `write_frame` drop the
/// connection. Shared by both backends so response bytes are identical.
pub(crate) fn encode_response(result: Result<Vec<u8>, ServeError>) -> Vec<u8> {
    let mut response = match result {
        Ok(payload) => {
            let mut w = Writer::new();
            w.put_u8(STATUS_OK);
            w.put_bytes(&payload);
            w.into_bytes()
        }
        Err(e) => {
            let mut w = Writer::new();
            w.put_u8(STATUS_ERR);
            w.put_bytes(e.to_string().as_bytes());
            w.into_bytes()
        }
    };
    if response.len() > MAX_FRAME_LEN as usize {
        let mut w = Writer::new();
        w.put_u8(STATUS_ERR);
        w.put_bytes(b"response exceeds MAX_FRAME_LEN");
        response = w.into_bytes();
    }
    response
}

/// Whether a (successfully handled) request body was an OP_SHUTDOWN.
pub(crate) fn is_shutdown_request(body: &[u8]) -> bool {
    matches!(
        take_request_head(&mut Reader::new(body)),
        Ok(head) if head.op == OP_SHUTDOWN
    )
}

/// [`protocol::read_frame`], but tolerant of read timeouts: an idle
/// timeout re-checks the shutdown flag, a mid-frame timeout resumes
/// reading.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    state: &Arc<ServerState>,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ServeError::Protocol("EOF inside a frame header"));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                // Checked mid-frame too: a connection stalled inside a
                // frame must not hold the drain hostage at shutdown.
                if state.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > protocol::MAX_FRAME_LEN {
        return Err(ServeError::Protocol("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut body = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < body.len() {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(ServeError::Protocol("EOF inside a frame body")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(body))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Looks up the addressed model, cloning its `Arc` out from under the
/// registry lock so per-model work never holds it.
pub(crate) fn resolve_model(state: &ServerState, id: u32) -> Result<Arc<ModelEntry>, ServeError> {
    state
        .registry
        .read()
        .expect("registry lock")
        .get(id)
        .ok_or(ServeError::Protocol("unknown model id"))
}

/// Registry rows for every hosted model, id-ascending.
fn registry_rows(state: &ServerState) -> Vec<ModelInfo> {
    let entries: Vec<Arc<ModelEntry>> = state
        .registry
        .read()
        .expect("registry lock")
        .by_id
        .iter()
        .map(Arc::clone)
        .collect();
    entries.iter().map(|e| e.info()).collect()
}

/// Handles OP_CREATE: registers a named model built from an untrained
/// template snapshot of any registered kind.
///
/// Payload: `name_len (u32) | name | shards (u32) | template`. The node
/// hosts every model as one learner, so `shards` must be 0 or 1 (both
/// mean one learner); larger values are a typed error.
fn handle_create(r: &mut Reader<'_>, state: &ServerState) -> Result<u32, ServeError> {
    // Coarse span for the journal: covers validation + the model build.
    let built_started = std::time::Instant::now();
    let name_len = r.take_u32()? as usize;
    if name_len == 0 || name_len > MAX_MODEL_NAME {
        return Err(ServeError::Protocol("model name length out of range"));
    }
    let name = std::str::from_utf8(r.take_bytes(name_len)?)
        .map_err(|_| ServeError::Protocol("model name is not UTF-8"))?
        .to_string();
    if r.take_u32()? > 1 {
        return Err(ServeError::Protocol(
            "worker pools are not hosted: CREATE accepts shards 0 or 1",
        ));
    }
    // Reject duplicate names and a full registry *before* paying for the
    // template decode — a misbehaving client retrying CREATE must not
    // cost a model build per frame. (Re-checked under the write lock
    // below: two racing CREATEs can both pass this probe.)
    {
        let registry = state.registry.read().expect("registry lock");
        if registry.by_id.len() >= state.max_models() {
            return Err(ServeError::Protocol("model registry is full"));
        }
        if registry.by_name.contains_key(&name) {
            return Err(ServeError::Protocol("model name already registered"));
        }
    }
    let template = r.take_bytes(r.remaining())?.to_vec();
    // Build outside the registry lock: decoding a 64 MiB template must
    // not block every other connection's model lookup.
    let learner = wmsketch_core::decode_any_learner(&template)?;
    if learner.examples_seen() != 0 {
        return Err(ServeError::Protocol("model template must be untrained"));
    }
    let label_domain = learner.label_domain();
    if let LabelDomain::Classes(m) = label_domain {
        if m > MAX_WIRE_CLASSES {
            return Err(ServeError::Protocol(
                "class count exceeds the wire label encoding (i8 class indices)",
            ));
        }
    }
    // Encode the durable rebuild recipe before `template` moves into the
    // entry; it is only written out once registration has succeeded.
    let spec_record = state
        .data_dir
        .as_ref()
        .map(|_| durability::encode_spec_record(&name, &template));
    let stem = durability::file_stem(&name);
    // Governor admission — *before* the registry write lock, because
    // making room may spill victims (snapshot + file I/O), which must
    // never run under the lock every other connection's model lookup
    // needs. Strict: when the budget cannot be met even after evicting
    // every cold model, CREATE fails with the typed budget error.
    let cost = learner.resident_bytes() as u64
        + crate::governor::entry_overhead(name.len(), template.len());
    if let Some(gov) = &state.governor {
        gov.admit(cost, true)?;
    }
    let release = |e: ServeError| {
        if let Some(gov) = &state.governor {
            gov.release_admission(cost);
        }
        e
    };
    let mut registry = state.registry.write().expect("registry lock");
    if registry.by_id.len() >= state.max_models() {
        return Err(release(ServeError::Protocol("model registry is full")));
    }
    if registry.by_name.contains_key(&name) {
        return Err(release(ServeError::Protocol(
            "model name already registered",
        )));
    }
    let id = registry.next_id;
    registry.next_id += 1;
    registry.by_name.insert(name.clone(), id);
    let entry = Arc::new(ModelEntry::new(
        id,
        name,
        label_domain,
        template,
        learner,
        state.governor.clone(),
    ));
    if let Some(gov) = &state.governor {
        gov.register_victim(&entry);
    }
    registry.by_id.push(entry);
    drop(registry);
    // Persist the spec sidecar so a restart re-registers the model.
    // Best-effort: a failed (or fault-injected) write costs the model its
    // durability, not the client its CREATE — the counter makes the miss
    // visible, and the next process simply won't know this model.
    if let (Some(dir), Some(record)) = (&state.data_dir, spec_record) {
        let path = dir.join(format!("{stem}.{}", durability::SPEC_EXT));
        match durability::write_atomic(&path, &record) {
            Ok(_) => state.metrics.checkpoints_written.inc(),
            Err(_) => state.metrics.checkpoint_failures.inc(),
        }
    }
    state
        .metrics
        .journal
        .push("model_create", u64::from(id), built_started);
    Ok(id)
}

/// Runs a read query against the state the model *serves*: the local
/// learner when the model holds no origin replicas, otherwise the
/// **canonical merged view** — the origin snapshots (the local copy
/// included, keyed by this node's id) decoded and absorbed in ascending
/// origin-id order. The canonical order matters: floating-point merge
/// addition is not associative, so only a fixed fold order makes every
/// node's merged view bit-identical once their replicas agree.
///
/// The view is cached against the `(origin, clock)` basis it was built
/// at and rebuilt only when local ingest or an applied delta moves that
/// basis. Lock order: `learner` → `repl` → `merged`.
fn serve_query<R>(
    entry: &ModelEntry,
    node_id: u64,
    f: impl FnOnce(&dyn DynLearner) -> R,
) -> Result<R, ServeError> {
    let learner = entry.learner()?;
    let repl = entry.repl.lock().expect("repl mutex");
    if repl.origins.is_empty() {
        drop(repl);
        return Ok(f(learner.as_ref()));
    }
    let mut basis: Vec<(u64, u64)> = Vec::with_capacity(repl.origins.len() + 1);
    basis.push((node_id, learner.examples_seen()));
    for (&origin, replica) in &repl.origins {
        basis.push((origin, replica.applied));
    }
    basis.sort_unstable();
    let mut merged = entry.merged.lock().expect("merged mutex");
    if merged.view.is_none() || merged.basis != basis {
        let mut snaps: Vec<(u64, Vec<u8>)> = Vec::with_capacity(repl.origins.len() + 1);
        snaps.push((node_id, learner.snapshot()?));
        for (&origin, replica) in &repl.origins {
            snaps.push((origin, replica.learner.snapshot()?));
        }
        snaps.sort_by_key(|&(origin, _)| origin);
        let mut view = wmsketch_core::decode_any_learner(&snaps[0].1)?;
        for (_, snap) in &snaps[1..] {
            view.absorb_snapshot(snap)?;
        }
        merged.basis = basis;
        merged.view = Some(view);
    }
    let view = merged.view.as_ref().expect("view just built");
    Ok(f(view.as_ref()))
}

/// The STATS replication rows: the union of acked peers and held
/// origin replicas, for every hosted model.
fn replication_rows(state: &ServerState) -> Vec<ReplRow> {
    let mut rows = Vec::new();
    for entry in state.entries() {
        let repl = entry.repl.lock().expect("repl mutex");
        let mut ids: Vec<u64> = repl
            .acked
            .keys()
            .chain(repl.origins.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for peer in ids {
            rows.push(ReplRow {
                model: entry.id,
                peer,
                acked: repl.acked.get(&peer).copied().unwrap_or(0),
                applied: repl.origins.get(&peer).map_or(0, |o| o.applied),
            });
        }
    }
    rows
}

/// Decodes and executes one request, returning the OK payload.
/// `scratch` is the calling connection's reusable UPDATE decode buffer.
///
/// This is [`dispatch_request`] wrapped in telemetry: when the global
/// switch is on, the whole dispatch is timed and recorded against the
/// addressed model's (or the `_registry` pseudo-model's) op histogram.
/// With `WMSKETCH_TELEMETRY=off` the wrapper is one relaxed load.
pub(crate) fn handle_request(
    body: &[u8],
    state: &Arc<ServerState>,
    scratch: &mut ExamplesScratch,
) -> Result<Vec<u8>, ServeError> {
    let started = metrics::now_if_enabled();
    let result = dispatch_request(body, state, scratch);
    if let Some(t0) = started {
        metrics::record_request(state, body, t0, result.is_ok());
    }
    result
}

/// The untimed request dispatcher behind [`handle_request`].
fn dispatch_request(
    body: &[u8],
    state: &Arc<ServerState>,
    scratch: &mut ExamplesScratch,
) -> Result<Vec<u8>, ServeError> {
    let mut r = Reader::new(body);
    let head =
        take_request_head(&mut r).map_err(|_| ServeError::Protocol("malformed request header"))?;
    let mut out = Writer::new();
    // Registry-level ops first: they don't address a model.
    match head.op {
        OP_CREATE => {
            let id = handle_create(&mut r, state)?;
            out.put_u32(id);
            return Ok(out.into_bytes());
        }
        OP_LIST => {
            r.finish()?;
            let rows = registry_rows(state);
            out.put_u32(rows.len() as u32);
            for row in &rows {
                protocol::put_model_info(&mut out, row);
            }
            return Ok(out.into_bytes());
        }
        OP_SHUTDOWN => {
            r.finish()?;
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so the drain starts immediately.
            let _ = TcpStream::connect(wake_addr(state.addr));
            return Ok(out.into_bytes());
        }
        OP_PEER_JOIN => {
            let peer = r.take_u64()?;
            let len = r.take_u32()? as usize;
            if len == 0 || len > MAX_PEER_ADDR {
                return Err(ServeError::Protocol("peer address length out of range"));
            }
            let addr = std::str::from_utf8(r.take_bytes(len)?)
                .map_err(|_| ServeError::Protocol("peer address is not UTF-8"))?
                .to_string();
            r.finish()?;
            if peer == state.node_id {
                return Err(ServeError::Protocol(
                    "peer node id collides with this node's id",
                ));
            }
            let mut peers = state.peers.lock().expect("peers mutex");
            if peers.len() >= MAX_PEERS && !peers.contains_key(&peer) {
                return Err(ServeError::Protocol("peer table is full"));
            }
            peers.insert(peer, addr);
            out.put_u64(state.node_id);
            return Ok(out.into_bytes());
        }
        OP_METRICS => {
            r.finish()?;
            out.put_bytes(metrics::render(state).as_bytes());
            return Ok(out.into_bytes());
        }
        _ => {}
    }
    let entry = resolve_model(state, head.model)?;
    match head.op {
        OP_UPDATE => {
            // Labels are validated against the addressed model's domain
            // (±1 for binary models, class indices for multiclass) before
            // anything reaches the learner.
            take_examples_into(&mut r, scratch, entry.label_domain)?;
            r.finish()?;
            let seen = {
                let mut learner = entry.learner()?;
                learner.update_batch(scratch.examples());
                learner.examples_seen()
            };
            state.update_frames.fetch_add(1, Ordering::Relaxed);
            // Example-count telemetry for this frame (latency is recorded
            // by the `handle_request` wrapper); a no-op when off, and
            // outside the learner lock.
            entry
                .telemetry
                .update_examples
                .add(scratch.examples().len() as u64);
            out.put_u64(seen);
        }
        OP_PREDICT => {
            let x = take_features(&mut r)?;
            r.finish()?;
            let (margin, label) = serve_query(&entry, state.node_id, |l| l.margin_and_label(&x))?;
            out.put_f64(margin);
            out.put_i8(label);
        }
        OP_ESTIMATE => {
            let feature = r.take_u32()?;
            r.finish()?;
            out.put_f64(serve_query(&entry, state.node_id, |l| l.estimate(feature))?);
        }
        OP_TOPK => {
            let k = r.take_u32()?;
            r.finish()?;
            let top = serve_query(&entry, state.node_id, |l| l.recover_top_k(k as usize))?;
            out.put_u32(top.len() as u32);
            for e in top {
                out.put_u32(e.feature);
                out.put_f64(e.weight);
            }
        }
        OP_SNAPSHOT => {
            r.finish()?;
            out.put_bytes(&serve_query(&entry, state.node_id, |l| l.snapshot())??);
        }
        OP_MERGE => {
            let bytes = r.take_bytes(r.remaining())?;
            // A cheap kind probe up front turns "wrong model addressed"
            // into a precise error before the full decode runs.
            let kind = codec::peek_kind(bytes)?;
            if kind != entry.kind {
                return Err(ServeError::Protocol(
                    "snapshot kind does not match the addressed model",
                ));
            }
            // Decode (the expensive, validation-heavy step — up to a
            // 64 MiB snapshot) *outside* the model lock; only the cheap
            // linearity merge holds it, so a large MERGE cannot stall
            // concurrent UPDATE/PREDICT traffic on the same model.
            let peer = wmsketch_core::decode_any_learner(bytes)?;
            let mut learner = entry.learner()?;
            learner.absorb_peer(&*peer)?;
            out.put_u64(learner.examples_seen());
        }
        OP_CHECKPOINT => {
            let path =
                durability::resolve_client_path(state.data_dir.as_deref(), &take_path(&mut r)?)?;
            // Hold the slot lock only to sync and encode; the disk
            // write (to a possibly slow filesystem) must not stall
            // ingest on other connections. The checkpoint-I/O mutex,
            // though, spans both: the governor's spill path writes the
            // same file, and a spill landing between snapshot and write
            // must not be clobbered by this older state (lock order
            // ckpt_io → slot, same as the background checkpointer).
            let _ckpt_io = entry.ckpt_io.lock().expect("checkpoint io mutex");
            let bytes = entry.learner()?.snapshot()?;
            // Atomic replace-on-rename: a crash mid-write leaves the
            // previous checkpoint intact plus a stale `.tmp`, never a
            // torn file under the final name.
            out.put_u64(durability::write_atomic(&path, &bytes)?);
        }
        OP_RESTORE => {
            let path =
                durability::resolve_client_path(state.data_dir.as_deref(), &take_path(&mut r)?)?;
            let bytes = std::fs::read(&path)?;
            let mut fresh = entry.fresh_learner()?;
            fresh.restore_snapshot(&bytes)?;
            let clock = fresh.examples_seen();
            // `install` swaps the slot without touching any spill record
            // — a RESTORE onto a spilled model must succeed even when
            // the spill file is corrupt.
            entry.install(fresh);
            out.put_u64(clock);
        }
        OP_STATS => {
            r.finish()?;
            // Stub-aware: STATS is the monitoring op and must never
            // revive a cold model. The model has one clock, which fills
            // both the `routed` and `clock` slots.
            let clock = entry.clock_hint();
            // Every UPDATE frame takes the learner lock once, so the
            // frame count fills both counter slots.
            let update_frames = state.update_frames.load(Ordering::Relaxed);
            let gov = state.governor.as_deref();
            let stats = ServeStats {
                routed: clock,
                root_examples: clock,
                models: registry_rows(state),
                backend: state.backend,
                update_lock_acquisitions: update_frames,
                update_frames,
                node_id: state.node_id,
                replication: replication_rows(state),
                memory_budget: gov.map_or(0, |g| g.budget()),
                resident_models: gov.map_or(0, |g| g.resident_models() as u32),
                spilled_models: gov.map_or(0, |g| g.spilled_models() as u32),
                resident_bytes: gov.map_or(0, |g| g.resident_bytes()),
                evictions_total: gov.map_or(0, |g| g.evictions()),
                revivals_total: gov.map_or(0, |g| g.revivals()),
            };
            protocol::put_stats(&mut out, &stats);
        }
        OP_RESET => {
            r.finish()?;
            let fresh = entry.fresh_learner()?;
            // `install`, not the reviving accessor: RESET discards model
            // state by contract, so it must work even when the model is
            // spilled and its spill record is unreadable.
            entry.install(fresh);
        }
        OP_PULL_DELTA => {
            let origin = r.take_u64()?;
            let since = r.take_u64()?;
            r.finish()?;
            if origin == state.node_id {
                // This node is the origin: serve from the local copy.
                // `encode_delta_since` arms dirty-cell tracking on first
                // use and falls back to a full snapshot whenever a delta
                // cannot be proven exact (PULL_SINCE_FULL lands here by
                // construction: it exceeds any clock).
                let mut learner = entry.learner()?;
                let clock = learner.examples_seen();
                out.put_u64(clock);
                if since == PULL_SINCE_FULL || since < clock {
                    out.put_bytes(&learner.encode_delta_since(since)?);
                }
                // `since >= clock`: nothing newer; the empty payload says
                // "up to date" without re-shipping state.
            } else {
                let mut repl = entry.repl.lock().expect("repl mutex");
                let replica = repl.origins.get_mut(&origin).ok_or(ServeError::Protocol(
                    "this node holds no replica for the requested origin",
                ))?;
                let clock = replica.applied;
                out.put_u64(clock);
                if since == PULL_SINCE_FULL || since < clock {
                    out.put_bytes(&replica.learner.encode_delta_since(since)?);
                }
            }
        }
        OP_ACK => {
            let peer = r.take_u64()?;
            let acked = r.take_u64()?;
            r.finish()?;
            let mut repl = entry.repl.lock().expect("repl mutex");
            let cur = repl.acked.entry(peer).or_insert(0);
            if acked < *cur {
                // The shipped-clock vector is monotonic: a regressing ack
                // is out-of-order delivery, not new information.
                return Err(ServeError::Protocol(
                    "stale ack: acked clock regresses the shipped-clock vector",
                ));
            }
            *cur = acked;
            out.put_u64(*cur);
        }
        _ => return Err(ServeError::Protocol("unknown opcode")),
    }
    Ok(out.into_bytes())
}

/// Decodes a `path_len (u32) | UTF-8 path` payload (CHECKPOINT/RESTORE).
///
/// The decoded path is *not* used verbatim: the handlers pass it through
/// [`durability::resolve_client_path`], which confines it under the
/// configured data directory (rejecting absolute paths and `..`
/// traversal) whenever `ServeConfig::data_dir` is set. Only a node run
/// without a data directory keeps the legacy trust-the-client verbatim
/// behavior.
fn take_path(r: &mut Reader<'_>) -> Result<std::path::PathBuf, ServeError> {
    let len = r.take_u32()? as usize;
    let bytes = r.take_bytes(len)?;
    r.finish()?;
    let s = std::str::from_utf8(bytes).map_err(|_| ServeError::Protocol("path is not UTF-8"))?;
    Ok(std::path::PathBuf::from(s))
}
