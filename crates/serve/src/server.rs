//! The ingest/query server: a [`std::net::TcpListener`] feeding a
//! **model registry** — named [`wmsketch_learn::DynLearner`] models (WM,
//! AWM, multiclass), each one plain learner behind its own mutex so
//! traffic to different models never serializes.
//!
//! The node's state (`ServerState`) is built without a socket: its
//! constructor makes the registry, the memory governor and the default
//! model, and [`WmServer::bind`] adds the transport and startup recovery
//! around it. Every model enters the registry through one routine,
//! `ServerState::register`, whether it is the default model, an
//! OP_CREATE or a model recovered from disk: it charges the governor,
//! checks the model cap and the name under the registry write lock,
//! rolls the charge back when either check fails, and pushes the entry.
//! The registry is also the governor's list of eviction candidates.
//!
//! Each request frame is decoded once (`handle_request`): its head gives
//! the op and, for a model op, the one registry lookup that resolves the
//! entry. The same op and entry go to telemetry, and the response is
//! written as `len | status | payload` straight into the connection's
//! write buffer.
//!
//! The transport is a few run-to-completion event loops
//! (`crate::event_loop`), each over its own raw-`epoll` poller:
//! incremental frame reassembly and request pipelining, every frame run
//! in arrival order on the loop thread that read it. The pollers are set
//! up in [`WmServer::bind`], so serving needs Linux; elsewhere `bind`
//! returns [`std::io::ErrorKind::Unsupported`].

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use wmsketch_core::{DynLearner, LabelDomain, WmSketch, WmSketchConfig};
use wmsketch_hashing::codec::{self, Reader, Writer};

use crate::durability;
use crate::error::ServeError;
use crate::metrics;
use crate::protocol::{
    self, take_examples_into, take_features, take_request_head, ExamplesScratch, ModelInfo,
    MAX_FRAME_LEN, OP_ACK, OP_CHECKPOINT, OP_CREATE, OP_ESTIMATE, OP_LIST, OP_MERGE, OP_METRICS,
    OP_PEER_JOIN, OP_PREDICT, OP_PULL_DELTA, OP_RESET, OP_RESTORE, OP_SHUTDOWN, OP_SNAPSHOT,
    OP_STATS, OP_TOPK, OP_UPDATE, PULL_SINCE_FULL, STATUS_ERR, STATUS_OK,
};

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

/// The transport a server runs, as STATS reports it. The event loop is
/// the only one; the type stays so the STATS layout keeps its backend
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// Readiness-driven nonblocking event loops over raw `epoll`.
    /// Connections cost no thread, and a pipelined connection's requests
    /// are decoded while earlier ones execute.
    Event,
}

/// Configuration of one serving node — specifically of its **default
/// model** (id 0, what a fresh client addresses). Further
/// models of any registered kind are added at runtime via OP_CREATE.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The default model's configuration.
    pub wm: WmSketchConfig,
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
    /// [`ServeConfig::data_dir`]. Clean models (whose file already holds
    /// their current state) are skipped, so an idle node costs no I/O.
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

    /// Names the transport. The event loop is the only one, so this
    /// changes nothing; it remains for callers that name it explicitly.
    #[must_use]
    pub fn backend(self, _backend: ServeBackend) -> Self {
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
    /// The transport the node is running (always [`ServeBackend::Event`]).
    pub backend: ServeBackend,
    /// Learner-lock acquisitions that served UPDATE frames, node-wide.
    /// Every UPDATE frame takes the lock exactly once, so this always
    /// equals [`ServeStats::update_frames`]; the wire slot is kept so the
    /// STATS layout does not change.
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

/// The lightweight registry residue of a spilled model, whose state is
/// its own file ([`ModelEntry::persist`]).
pub(crate) struct SpilledStub {
    /// The learner's clock at spill time (0 for a lazily-recovered
    /// checkpoint that has never been read).
    pub(crate) clock: u64,
    /// The learner's §7.1 memory figure at spill time (0 when unknown).
    pub(crate) memory_bytes: u64,
}

/// A version of a model's state: its `(installs, clock)` pair.
type Version = (u64, u64);

/// The version a model's file holds until this process writes it. No
/// model reaches it, so the first persist always writes.
const UNWRITTEN: Version = (u64::MAX, u64::MAX);

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
    /// How many times the learner's state has changed other than by
    /// training: replaced wholesale (RESET, RESTORE, recovery, gossip
    /// adoption) or merged with a peer (MERGE, whose fold can rewrite
    /// the stored floats without moving the clock). Bumped under the
    /// slot lock. With the clock it makes the model's [`Version`]: a
    /// replaced or merged learner can sit at the clock its file holds
    /// with different state, and a clock-only check would skip it.
    pub(crate) installs: AtomicU64,
    /// The version the model's own file holds ([`UNWRITTEN`] until this
    /// process has written it). Only [`ModelEntry::persist`] writes that
    /// file, and the checkpointer and the governor's spill both call it
    /// with this mutex held, so one can never land between the other's
    /// snapshot and write. Taken *before* `slot`; the spill only
    /// `try_lock`s it, so a write in flight just disqualifies the
    /// victim. Revival holds only the slot and never takes it.
    pub(crate) ckpt_io: Mutex<Version>,
    /// Replication state; empty (and never locked on the hot path beyond
    /// a map-emptiness check) for models no peer has gossiped about.
    pub(crate) repl: Mutex<ReplState>,
    merged: Mutex<MergedCache>,
    /// Per-model op telemetry — one array index from the entry `Arc` the
    /// hot path already holds, so recording never takes a lock.
    pub(crate) telemetry: metrics::ModelTelemetry,
    /// LRU stamp: the governor tick of this model's last access.
    pub(crate) last_access: AtomicU64,
    /// Learner bytes currently charged against the governor budget:
    /// the learner's `resident_bytes()` when it entered the slot (at
    /// admission, revival or install), 0 while spilled. UPDATE does not
    /// refresh it, so a model's growth from training is charged only
    /// after its next spill and revival. Written only by
    /// [`ModelEntry::set_slot`] once the entry is built; the entry's own
    /// registry overhead is charged separately at admission and never
    /// discharged.
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
    /// The node the entry belongs to: its governor and registry.
    state: &'a ServerState,
    /// `Some` until drop; taken there so the slot unlocks before any
    /// deferred eviction runs.
    guard: Option<MutexGuard<'a, ModelSlot>>,
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

    /// Replaces the learner through the held lock (gossip's
    /// recovered-copy adoption path); the twin of
    /// [`ModelEntry::install`].
    pub(crate) fn install(&mut self, fresh: Box<dyn DynLearner>) {
        let (entry, gov) = (self.entry, self.state.governor.as_ref());
        entry.set_slot(self.slot_mut(), ModelSlot::Resident(fresh), true, gov);
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
            if let Some(gov) = &self.state.governor {
                gov.evict_to_budget(self.state, self.entry.id);
            }
        }
    }
}

impl ModelEntry {
    /// Builds an entry (resident learner, fresh replication state) whose
    /// last access is governor tick `tick`. Only
    /// [`ServerState::register`] calls this; it does the governor
    /// accounting.
    fn new(
        id: u32,
        name: String,
        template: Vec<u8>,
        learner: Box<dyn DynLearner>,
        tick: u64,
    ) -> Self {
        let resident = learner.resident_bytes() as u64;
        Self {
            id,
            name,
            kind: learner.kind(),
            label_domain: learner.label_domain(),
            template,
            slot: Mutex::new(ModelSlot::Resident(learner)),
            installs: AtomicU64::new(0),
            ckpt_io: Mutex::new(UNWRITTEN),
            repl: Mutex::new(ReplState::default()),
            merged: Mutex::new(MergedCache::default()),
            telemetry: metrics::ModelTelemetry::new(),
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
    pub(crate) fn learner<'a>(
        &'a self,
        state: &'a ServerState,
    ) -> Result<LearnerGuard<'a>, ServeError> {
        let mut slot = self.slot.lock().expect("slot mutex");
        let mut revived_now = false;
        if let ModelSlot::Spilled(_) = &*slot {
            let started = std::time::Instant::now();
            let (Some(gov), Some(dir)) = (&state.governor, &state.data_dir) else {
                unreachable!("spilled slot on an ungoverned node");
            };
            match self.load(&self.file(dir)) {
                Ok(fresh) => {
                    self.set_slot(&mut slot, ModelSlot::Resident(fresh), false, Some(gov));
                    gov.count_revival(started);
                    // Pressure from the revived charge is resolved when
                    // the guard drops, after the slot unlocks.
                    revived_now = true;
                }
                Err(e) => {
                    gov.count_revival_failure();
                    return Err(e);
                }
            }
        }
        if let Some(gov) = &state.governor {
            self.last_access.store(gov.touch(), Ordering::Relaxed);
        }
        Ok(LearnerGuard {
            entry: self,
            state,
            guard: Some(slot),
            evict_on_release: revived_now,
        })
    }

    /// Replaces the learner *without* reading the spill record — the
    /// RESET / RESTORE / recovery path. A corrupt spill file can
    /// therefore never wedge a RESET: the stub is simply overwritten by
    /// the fresh instance and accounting moves back to resident.
    pub(crate) fn install(&self, state: &ServerState, fresh: Box<dyn DynLearner>) {
        let gov = state.governor.as_ref();
        let mut slot = self.slot.lock().expect("slot mutex");
        self.set_slot(&mut slot, ModelSlot::Resident(fresh), true, gov);
        drop(slot);
        if let Some(gov) = gov {
            self.last_access.store(gov.touch(), Ordering::Relaxed);
        }
    }

    /// The one residency transition: every revival, install, spill and
    /// recovery stub puts its new slot contents in through here, under
    /// the slot guard the caller holds. It swaps the entry's charge for
    /// what `new` holds (the learner's `resident_bytes()`, or 0 for a
    /// stub) and passes the change to the governor, when there is one.
    /// `install` marks a wholesale replacement (RESET, RESTORE,
    /// recovery, gossip adoption), which moves the model's [`Version`];
    /// a revival brings back the state its file holds and a stub holds
    /// no learner, so neither is one.
    pub(crate) fn set_slot(
        &self,
        slot: &mut ModelSlot,
        new: ModelSlot,
        install: bool,
        gov: Option<&crate::governor::MemoryGovernor>,
    ) {
        let cost = match &new {
            ModelSlot::Resident(learner) => learner.resident_bytes() as u64,
            ModelSlot::Spilled(_) => 0,
        };
        *slot = new;
        let old = self.resident_cost.swap(cost, Ordering::Relaxed);
        if install {
            self.installs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(gov) = gov {
            gov.recharge(old, cost);
        }
    }

    /// The learner a checkpoint or spill record at `path` holds: the
    /// file, restored into a fresh build of the model's template.
    fn load(&self, path: &Path) -> Result<Box<dyn DynLearner>, ServeError> {
        let bytes = std::fs::read(path)?;
        let mut fresh = self.fresh_learner()?;
        fresh.restore_snapshot(&bytes)?;
        Ok(fresh)
    }

    /// The model's own file in the data dir `dir`: its checkpoint, which
    /// is also its spill record.
    fn file(&self, dir: &Path) -> PathBuf {
        durability::record_path(dir, &self.name, durability::CKPT_EXT)
    }

    /// The one writer of the model's own file, for the checkpointer and
    /// the governor's spill: both hold `ckpt_io` (`file` is the version
    /// it guards) and pass the locked `slot`. A stub, or a learner whose
    /// version the file holds, costs no I/O; otherwise the snapshot is
    /// written atomically and its version recorded only on success, so a
    /// failed or torn write leaves the model dirty. With `hold` the slot
    /// stays locked across the write and comes back (the spill swaps its
    /// stub in under it); without, it is released before the write, so a
    /// slow disk never stalls ingest. Returns whether it wrote.
    pub(crate) fn persist<'a>(
        &self,
        dir: &Path,
        file: &mut Version,
        slot: MutexGuard<'a, ModelSlot>,
        hold: bool,
    ) -> Result<(bool, Option<MutexGuard<'a, ModelSlot>>), ServeError> {
        let ModelSlot::Resident(learner) = &*slot else {
            return Ok((false, hold.then_some(slot)));
        };
        let version = (
            self.installs.load(Ordering::Relaxed),
            learner.examples_seen(),
        );
        if *file == version {
            return Ok((false, hold.then_some(slot)));
        }
        let bytes = learner.snapshot()?;
        let slot = hold.then_some(slot);
        durability::write_atomic(&self.file(dir), &bytes)?;
        *file = version;
        Ok((true, slot))
    }

    /// Startup-recovery twin of the governor's spill: makes the model's
    /// existing file its lazy stub without reading it. The fresh
    /// (untrained) learner the entry was registered with is discarded
    /// and its charge released; the file's version stays unknown, so the
    /// model's first persist after a revival writes it again.
    fn adopt_lazy_stub(&self, gov: &crate::governor::MemoryGovernor) {
        let mut slot = self.slot.lock().expect("slot mutex");
        if matches!(&*slot, ModelSlot::Resident(_)) {
            let stub = SpilledStub {
                clock: 0,
                memory_bytes: 0,
            };
            self.set_slot(&mut slot, ModelSlot::Spilled(stub), false, Some(gov));
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
/// Ids are dense indices into `by_id`: they are assigned in order and a
/// model is never removed.
#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) by_id: Vec<Arc<ModelEntry>>,
    by_name: HashMap<String, u32>,
}

/// State shared between the event loops and every request handler.
pub(crate) struct ServerState {
    /// Every hosted model; the governor picks its victims from here too.
    pub(crate) registry: RwLock<Registry>,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
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
    /// `None` keeps every governor touch off the hot path.
    pub(crate) governor: Option<crate::governor::MemoryGovernor>,
}

impl ServerState {
    /// Builds a node's state from `cfg` with no socket: the registry, the
    /// governor (when budgeted) and the default model (registry id 0,
    /// name `"default"`). `addr` is where OP_SHUTDOWN sends its wake-up
    /// connection. Startup recovery is [`WmServer::bind`]'s job.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] when a memory budget is set
    /// without a data directory, or is too small to hold the default
    /// model.
    pub(crate) fn new(cfg: &ServeConfig, addr: SocketAddr) -> std::io::Result<Self> {
        let invalid = |msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let governor = match (cfg.memory_budget, &cfg.data_dir) {
            (Some(budget), Some(_)) => Some(crate::governor::MemoryGovernor::new(budget)),
            (Some(_), None) => {
                return Err(invalid(
                    "memory_budget requires a data_dir (spills need somewhere to live)",
                ))
            }
            (None, _) => None,
        };
        let state = Self {
            registry: RwLock::new(Registry::default()),
            addr,
            shutdown: AtomicBool::new(false),
            update_frames: AtomicU64::new(0),
            node_id: cfg.node_id,
            gossip_interval_ms: cfg.gossip_interval_ms,
            peers: Mutex::new(BTreeMap::new()),
            data_dir: cfg.data_dir.clone(),
            checkpoint_interval_ms: cfg.checkpoint_interval_ms,
            crashed: AtomicBool::new(false),
            metrics: metrics::NodeMetrics::new(),
            governor,
        };
        // The default model is hosted like any created model: its
        // template is its own fresh snapshot (encoded, not decoded, so
        // building the state pays no decode).
        let learner: Box<dyn DynLearner> = Box::new(WmSketch::new(cfg.wm));
        let template = learner
            .snapshot()
            .expect("a WM learner always has a snapshot codec");
        // Registered first, so it gets id 0 (`protocol::DEFAULT_MODEL_ID`).
        // A budget too small to even hold it is a configuration error.
        state
            .register("default".to_string(), template, learner, true)
            .map_err(|_| {
                invalid("memory_budget is smaller than the default model's resident footprint")
            })?;
        Ok(state)
    }

    /// Registers a model under `name` and returns its id; the default
    /// model, OP_CREATE and startup recovery all come through here.
    ///
    /// The governor is charged first, *outside* the registry lock: a
    /// `strict` admission (the default model, CREATE) may spill victims
    /// to make room — snapshot and file I/O that must never run under
    /// the lock every model lookup needs — and fails with the typed
    /// budget error when even that is not enough. A non-strict one
    /// (recovery) always succeeds and never evicts. The model cap and
    /// the name are then checked under the write lock (two racing
    /// CREATEs can both pass any earlier probe), and the governor rolls
    /// the charge back when a check fails.
    fn register(
        &self,
        name: String,
        template: Vec<u8>,
        learner: Box<dyn DynLearner>,
        strict: bool,
    ) -> Result<u32, ServeError> {
        let cost = learner.resident_bytes() as u64
            + crate::governor::entry_overhead(name.len(), template.len());
        let join = || {
            let mut registry = self.registry.write().expect("registry lock");
            if registry.by_id.len() >= self.max_models() {
                return Err(ServeError::Protocol("model registry is full"));
            }
            if registry.by_name.contains_key(&name) {
                return Err(ServeError::Protocol("model name already registered"));
            }
            let id = registry.by_id.len() as u32;
            let tick = self.governor.as_ref().map_or(0, |g| g.touch());
            registry.by_name.insert(name.clone(), id);
            registry
                .by_id
                .push(Arc::new(ModelEntry::new(id, name, template, learner, tick)));
            Ok(id)
        };
        match &self.governor {
            Some(gov) => gov.admit(cost, strict, self, join),
            None => join(),
        }
    }

    /// How many models are resident and how many spilled, counted from
    /// the entries: a model is resident exactly when its learner is
    /// charged.
    pub(crate) fn residency(&self) -> (u64, u64) {
        let registry = self.registry.read().expect("registry lock");
        let resident = registry
            .by_id
            .iter()
            .filter(|e| e.resident_cost.load(Ordering::Relaxed) > 0)
            .count() as u64;
        (resident, registry.by_id.len() as u64 - resident)
    }

    /// The model registered as `id`, its `Arc` cloned out from under the
    /// registry lock so per-model work never holds it.
    pub(crate) fn model(&self, id: u32) -> Option<Arc<ModelEntry>> {
        let registry = self.registry.read().expect("registry lock");
        registry.by_id.get(id as usize).map(Arc::clone)
    }

    /// Every hosted model, id-ascending (Arc clones out from under the
    /// registry lock).
    pub(crate) fn entries(&self) -> Vec<Arc<ModelEntry>> {
        let registry = self.registry.read().expect("registry lock");
        registry.by_id.iter().map(Arc::clone).collect()
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

/// A bound, not-yet-running server. [`WmServer::spawn`] starts its event
/// loops.
pub struct WmServer {
    transport: crate::event_loop::Transport,
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
    /// Propagates socket errors from binding, poller (`epoll`) set-up
    /// errors, and I/O errors creating the data directory. Off Linux the
    /// error is always [`std::io::ErrorKind::Unsupported`]. A memory
    /// budget without a data directory, or too small for the default
    /// model, is [`std::io::ErrorKind::InvalidInput`]. Individual
    /// unreadable or corrupt durable files are skipped (counted in
    /// `recovery_rejected_total`), not fatal.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Self> {
        let transport = crate::event_loop::Transport::bind(addr)?;
        let state = Arc::new(ServerState::new(&cfg, transport.local_addr()?)?);
        if state.data_dir.is_some() {
            recover_registry(&state)?;
        }
        Ok(Self { transport, state })
    }

    /// The bound address (the resolved port when bound to port 0).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.transport.local_addr()
    }

    /// Starts the event loops on a background thread and returns a
    /// handle that can address and stop the server.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let transport = self.transport;
        let loops = std::thread::spawn(move || transport.run(&state));
        // The anti-entropy tick runs on its own timer thread (it drives
        // blocking client I/O toward peers, which must never stall an
        // event loop's poller).
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
            loops: Some(loops),
            gossip,
            checkpointer,
        }
    }
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    state: Arc<ServerState>,
    loops: Option<std::thread::JoinHandle<()>>,
    gossip: Option<std::thread::JoinHandle<()>>,
    checkpointer: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Signals shutdown, wakes the event loops, and joins them (which in
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
        // Wake the event loops with a throwaway connection.
        let _ = TcpStream::connect(wake_addr(self.state.addr));
        if let Some(handle) = self.loops.take() {
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

/// Address used to self-connect and wake the event loops. Connecting to
/// an unspecified bind address (`0.0.0.0` / `::`) is non-portable (it
/// fails outright on some platforms), so substitute the matching
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

/// The background checkpointer: every interval it sweeps the registry
/// and persists each model whose file is behind it (**dirty tracking**
/// — a clean model costs two lock acquisitions and two counter reads,
/// no encode, no I/O). A graceful shutdown takes one final pass so the
/// durable state is current; [`ServerHandle::kill`] (simulated crash)
/// suppresses it.
pub(crate) fn checkpoint_loop(state: &Arc<ServerState>) {
    let interval = Duration::from_millis(state.checkpoint_interval_ms.max(1));
    while !state.shutdown.load(Ordering::SeqCst) {
        crate::gossip::sleep_interruptible(state, interval);
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        checkpoint_pass(state);
    }
    if !state.crashed.load(Ordering::SeqCst) {
        checkpoint_pass(state);
    }
}

/// One checkpointer sweep over the registry, every model through
/// [`ModelEntry::persist`] with its slot released before the write.
fn checkpoint_pass(state: &ServerState) {
    let Some(dir) = &state.data_dir else {
        return;
    };
    for entry in state.entries() {
        let mut file = entry.ckpt_io.lock().expect("checkpoint io mutex");
        let slot = entry.slot.lock().expect("slot mutex");
        match entry.persist(dir, &mut file, slot, false) {
            Ok((true, _)) => state.metrics.checkpoints_written.inc(),
            Ok((false, _)) => state.metrics.checkpoints_skipped.inc(),
            // A failed write leaves the previous file intact and the
            // model dirty, so the next pass retries.
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
                // Best-effort admission: the node must come back up
                // whatever its budget; pass 2 stubs checkpointed entries
                // straight back out, resolving any overshoot.
                let learner = wmsketch_core::decode_any_learner(&template)?;
                state.register(name, template, learner, false)
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
            let registry = state.registry.read().expect("registry lock");
            let entry = registry
                .by_name
                .get(&name)
                .map(|&id| Arc::clone(&registry.by_id[id as usize]))
                .ok_or(ServeError::Protocol("checkpoint for a model with no spec"))?;
            drop(registry);
            if let Some(gov) = &state.governor {
                entry.adopt_lazy_stub(gov);
                return Ok(());
            }
            entry.install(state, entry.load(&path)?);
            Ok(())
        })();
        match restored {
            Ok(()) => state.metrics.models_recovered.inc(),
            Err(_) => state.metrics.recovery_rejected.inc(),
        }
    }
    Ok(())
}

/// Registry rows for every hosted model, id-ascending.
fn registry_rows(state: &ServerState) -> Vec<ModelInfo> {
    state.entries().iter().map(|e| e.info()).collect()
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
    if let LabelDomain::Classes(m) = learner.label_domain() {
        if m > MAX_WIRE_CLASSES {
            return Err(ServeError::Protocol(
                "class count exceeds the wire label encoding (i8 class indices)",
            ));
        }
    }
    // Encode the durable rebuild recipe before `template` moves into the
    // entry; it is only written out once registration has succeeded.
    let spec = state.data_dir.as_ref().map(|dir| {
        (
            durability::record_path(dir, &name, durability::SPEC_EXT),
            durability::encode_spec_record(&name, &template),
        )
    });
    // Strict: when the budget cannot be met even after evicting every
    // cold model, CREATE fails with the typed budget error.
    let id = state.register(name, template, learner, true)?;
    // Persist the spec sidecar so a restart re-registers the model.
    // Best-effort: a failed (or fault-injected) write costs the model its
    // durability, not the client its CREATE — the counter makes the miss
    // visible, and the next process simply won't know this model.
    if let Some((path, record)) = spec {
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
/// **canonical merged view** — the origin copies (the local one
/// included, keyed by this node's id) absorbed in ascending origin-id
/// order. The canonical order matters: floating-point merge
/// addition is not associative, so only a fixed fold order makes every
/// node's merged view bit-identical once their replicas agree.
///
/// The view is cached against the `(origin, clock)` basis it was built
/// at and rebuilt only when local ingest or an applied delta moves that
/// basis. Lock order: `learner` → `repl` → `merged`.
fn serve_query<R>(
    entry: &ModelEntry,
    state: &ServerState,
    f: impl FnOnce(&dyn DynLearner) -> R,
) -> Result<R, ServeError> {
    let learner = entry.learner(state)?;
    let repl = entry.repl.lock().expect("repl mutex");
    if repl.origins.is_empty() {
        drop(repl);
        return Ok(f(learner.as_ref()));
    }
    let mut basis: Vec<(u64, u64)> = Vec::with_capacity(repl.origins.len() + 1);
    basis.push((state.node_id, learner.examples_seen()));
    for (&origin, replica) in &repl.origins {
        basis.push((origin, replica.applied));
    }
    basis.sort_unstable();
    let mut merged = entry.merged.lock().expect("merged mutex");
    if merged.view.is_none() || merged.basis != basis {
        // The first origin's copy is decoded into an owned view; every
        // later one is absorbed as it stands, with no encode or decode.
        let mut copies: Vec<(u64, &dyn DynLearner)> = Vec::with_capacity(basis.len());
        copies.push((state.node_id, learner.as_ref()));
        for (&origin, replica) in &repl.origins {
            copies.push((origin, replica.learner.as_ref()));
        }
        copies.sort_by_key(|&(origin, _)| origin);
        let mut view = wmsketch_core::decode_any_learner(&copies[0].1.snapshot()?)?;
        for &(_, copy) in &copies[1..] {
            view.absorb_peer(copy)?;
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

/// Runs one request frame and appends its response frame to `wbuf`;
/// returns whether it was an honored OP_SHUTDOWN, the last request its
/// connection gets answered. `scratch` is the calling loop's reusable
/// UPDATE decode buffer.
///
/// The request head is decoded once, here, and a model op's entry is
/// looked up once. Both go to telemetry: when the global switch is on,
/// the whole dispatch is timed and recorded against the addressed
/// model's (or the `_registry` pseudo-model's) op histogram. With
/// `WMSKETCH_TELEMETRY=off` that costs one relaxed load.
pub(crate) fn handle_request(
    body: &[u8],
    state: &ServerState,
    scratch: &mut ExamplesScratch,
    wbuf: &mut Vec<u8>,
) -> bool {
    let started = metrics::now_if_enabled();
    let mut r = Reader::new(body);
    let (op, entry) = match take_request_head(&mut r) {
        Ok(head) if is_registry_op(head.op) => (Some(head.op), None),
        Ok(head) => (Some(head.op), state.model(head.model)),
        Err(_) => (None, None),
    };
    let result = dispatch(op, &mut r, entry.as_deref(), state, scratch);
    if let Some(t0) = started {
        metrics::record_request(state, op, entry.as_deref(), body.len(), t0, result.is_ok());
    }
    let shutdown = result.is_ok() && op == Some(OP_SHUTDOWN);
    write_response(wbuf, result);
    shutdown
}

/// Ops that address the registry rather than a model: their model id is
/// ignored, and their telemetry goes to the `_registry` pseudo-model.
fn is_registry_op(op: u8) -> bool {
    matches!(
        op,
        OP_CREATE | OP_LIST | OP_SHUTDOWN | OP_PEER_JOIN | OP_METRICS
    )
}

/// Appends one response frame, `len (u32) | status | payload`, to
/// `wbuf`: the OK payload or the error's message. A response too large
/// for one frame (e.g. a SNAPSHOT of a sketch too large for one frame)
/// becomes a typed ERR instead of a frame the client's `read_frame`
/// rejects, which would end the connection.
fn write_response(wbuf: &mut Vec<u8>, result: Result<Vec<u8>, ServeError>) {
    let (status, payload) = match result {
        Ok(payload) => (STATUS_OK, payload),
        Err(e) => (STATUS_ERR, e.to_string().into_bytes()),
    };
    let (status, payload) = if payload.len() < MAX_FRAME_LEN as usize {
        (status, &payload[..])
    } else {
        (STATUS_ERR, &b"response exceeds MAX_FRAME_LEN"[..])
    };
    wbuf.extend_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    wbuf.push(status);
    wbuf.extend_from_slice(payload);
}

/// Executes one request whose head [`handle_request`] decoded (`op` is
/// `None` when that failed) against the model it resolved, returning
/// the OK payload.
fn dispatch(
    op: Option<u8>,
    r: &mut Reader<'_>,
    entry: Option<&ModelEntry>,
    state: &ServerState,
    scratch: &mut ExamplesScratch,
) -> Result<Vec<u8>, ServeError> {
    let op = op.ok_or(ServeError::Protocol("malformed request header"))?;
    let mut out = Writer::new();
    // Registry-level ops first: they don't address a model.
    match op {
        OP_CREATE => {
            let id = handle_create(r, state)?;
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
            // Wake the event loops so the drain starts immediately.
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
    let entry = entry.ok_or(ServeError::Protocol("unknown model id"))?;
    match op {
        OP_UPDATE => {
            // Labels are validated against the addressed model's domain
            // (±1 for binary models, class indices for multiclass) before
            // anything reaches the learner.
            take_examples_into(r, scratch, entry.label_domain)?;
            r.finish()?;
            let seen = {
                let mut learner = entry.learner(state)?;
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
            let x = take_features(r)?;
            r.finish()?;
            let (margin, label) = serve_query(entry, state, |l| l.margin_and_label(&x))?;
            out.put_f64(margin);
            out.put_i8(label);
        }
        OP_ESTIMATE => {
            let feature = r.take_u32()?;
            r.finish()?;
            out.put_f64(serve_query(entry, state, |l| l.estimate(feature))?);
        }
        OP_TOPK => {
            let k = r.take_u32()?;
            r.finish()?;
            let top = serve_query(entry, state, |l| l.recover_top_k(k as usize))?;
            out.put_u32(top.len() as u32);
            for e in top {
                out.put_u32(e.feature);
                out.put_f64(e.weight);
            }
        }
        OP_SNAPSHOT => {
            r.finish()?;
            out.put_bytes(&serve_query(entry, state, |l| l.snapshot())??);
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
            let mut learner = entry.learner(state)?;
            // Even a zero-example peer rewrites the stored floats (the
            // scale fold, AWM's re-promotion) without moving the clock,
            // so the merge moves the model's version.
            entry.installs.fetch_add(1, Ordering::Relaxed);
            learner.absorb_peer(&*peer)?;
            out.put_u64(learner.examples_seen());
        }
        OP_CHECKPOINT => {
            // An export to a client-named file, never one of the node's
            // own records: the model's file and its version stay as is.
            let path = durability::resolve_client_path(state.data_dir.as_deref(), &take_path(r)?)?;
            if durability::is_node_record(&path) {
                return Err(ServeError::Protocol(
                    "checkpoint path names one of the node's own durable records",
                ));
            }
            // Encoded under the slot, written (atomically) outside it.
            let bytes = entry.learner(state)?.snapshot()?;
            out.put_u64(durability::write_atomic(&path, &bytes)?);
        }
        OP_RESTORE => {
            let path = durability::resolve_client_path(state.data_dir.as_deref(), &take_path(r)?)?;
            let fresh = entry.load(&path)?;
            let clock = fresh.examples_seen();
            // `install` swaps the slot without touching any spill record
            // — a RESTORE onto a spilled model must succeed even when
            // the spill file is corrupt.
            entry.install(state, fresh);
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
            let gov = state.governor.as_ref();
            let (resident, spilled) = gov.map_or((0, 0), |_| state.residency());
            let stats = ServeStats {
                routed: clock,
                root_examples: clock,
                models: registry_rows(state),
                backend: ServeBackend::Event,
                update_lock_acquisitions: update_frames,
                update_frames,
                node_id: state.node_id,
                replication: replication_rows(state),
                memory_budget: gov.map_or(0, |g| g.budget()),
                resident_models: resident as u32,
                spilled_models: spilled as u32,
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
            entry.install(state, fresh);
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
                let mut learner = entry.learner(state)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{put_examples, request_for_model, take_stats};
    use std::sync::Weak;
    use wmsketch_core::{AwmSketch, AwmSketchConfig, SnapshotCodec};
    use wmsketch_learn::{Label, SparseVector};

    /// Splits one response frame into its status and payload.
    fn parse_response(wbuf: &[u8]) -> (u8, &[u8]) {
        let len = u32::from_le_bytes(wbuf[..4].try_into().unwrap()) as usize;
        assert_eq!(wbuf.len(), 4 + len, "one whole frame");
        (wbuf[4], &wbuf[5..])
    }

    /// Runs one request through `handle_request`; the OK payload, or the
    /// ERR message.
    fn call(state: &ServerState, model: u32, op: u8, payload: Writer) -> Result<Vec<u8>, String> {
        let mut wbuf = Vec::new();
        let body = request_for_model(model, op, payload);
        handle_request(&body, state, &mut ExamplesScratch::new(), &mut wbuf);
        match parse_response(&wbuf) {
            (STATUS_OK, payload) => Ok(payload.to_vec()),
            (_, msg) => Err(String::from_utf8(msg.to_vec()).unwrap()),
        }
    }

    #[test]
    fn oversized_response_becomes_a_typed_err() {
        let mut wbuf = vec![0xAA];
        write_response(&mut wbuf, Ok(vec![7; MAX_FRAME_LEN as usize]));
        let (status, msg) = parse_response(&wbuf[1..]);
        assert_eq!(status, STATUS_ERR);
        assert_eq!(msg, b"response exceeds MAX_FRAME_LEN");
        assert_eq!(wbuf[0], 0xAA, "earlier responses are kept");

        // One byte less fits: status plus payload is exactly the limit.
        let mut wbuf = Vec::new();
        write_response(&mut wbuf, Ok(vec![7; MAX_FRAME_LEN as usize - 1]));
        let (status, payload) = parse_response(&wbuf);
        assert_eq!(status, STATUS_OK);
        assert_eq!(payload.len(), MAX_FRAME_LEN as usize - 1);

        let mut wbuf = Vec::new();
        write_response(&mut wbuf, Err(ServeError::Protocol("unknown model id")));
        let (status, msg) = parse_response(&wbuf);
        assert_eq!(status, STATUS_ERR);
        assert_eq!(msg, b"protocol violation: unknown model id");
    }

    /// A governed node's state, driven request by request with no socket:
    /// CREATE, UPDATE, SNAPSHOT and STATS through `handle_request`, with
    /// the snapshot checked bit for bit against an in-process learner.
    /// Once the state is dropped nothing keeps it or its models alive:
    /// there is no `Arc` cycle between the registry, its entries and the
    /// governor.
    #[test]
    fn state_serves_requests_without_a_socket() {
        let dir = std::env::temp_dir().join(format!("wmsketch-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServeConfig::new(WmSketchConfig::new(64, 2).seed(3), 1)
            .data_dir(&dir)
            .memory_budget_bytes(1 << 30);
        let state = Arc::new(ServerState::new(&cfg, "127.0.0.1:0".parse().unwrap()).unwrap());

        let awm = AwmSketchConfig::new(8, 64).lambda(1e-5).seed(5);
        let mut create = Writer::new();
        create.put_u32(3);
        create.put_bytes(b"awm");
        create.put_u32(0);
        create.put_bytes(&AwmSketch::new(awm).to_snapshot_bytes());
        let created = call(&state, 0, OP_CREATE, create).unwrap();
        let id = Reader::new(&created).take_u32().unwrap();
        assert_eq!(id, 1, "the default model holds id 0");

        let batch: Vec<(SparseVector, Label)> = (0..40u32)
            .map(|t| {
                let x = SparseVector::from_pairs(&[(t % 7, 1.0), (100 + t, 0.5)]);
                (x, if t % 3 == 0 { 1 } else { -1 })
            })
            .collect();
        let mut update = Writer::new();
        put_examples(&mut update, &batch);
        let seen = call(&state, id, OP_UPDATE, update).unwrap();
        assert_eq!(Reader::new(&seen).take_u64().unwrap(), 40);

        let mut oracle = AwmSketch::new(awm);
        DynLearner::update_batch(&mut oracle, &batch);
        let snapshot = call(&state, id, OP_SNAPSHOT, Writer::new()).unwrap();
        assert_eq!(snapshot, oracle.to_snapshot_bytes());

        let stats = take_stats(&call(&state, id, OP_STATS, Writer::new()).unwrap()).unwrap();
        assert_eq!(stats.routed, 40);
        assert_eq!(stats.update_frames, 1);
        assert_eq!(stats.models.len(), 2);
        assert_eq!((stats.resident_models, stats.spilled_models), (2, 0));
        assert_eq!(stats.memory_budget, 1 << 30);

        assert_eq!(
            call(&state, 9, OP_STATS, Writer::new()),
            Err("protocol violation: unknown model id".to_string())
        );

        let weak_state = Arc::downgrade(&state);
        let weak_entries: Vec<Weak<ModelEntry>> =
            state.entries().iter().map(Arc::downgrade).collect();
        drop(state);
        assert!(weak_state.upgrade().is_none());
        assert!(weak_entries.iter().all(|e| e.upgrade().is_none()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A MERGE that leaves the clock where it was still moves the
    /// model's version: absorbing the model's own untrained template
    /// rewrites its stored floats (the scale fold), and the next
    /// checkpointer pass must persist that state, not skip it as clean.
    #[test]
    fn merge_of_a_zero_example_peer_is_checkpointed() {
        let dir = std::env::temp_dir().join(format!("wmsketch-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wm = WmSketchConfig::new(64, 3).lambda(1e-3).seed(5);
        let cfg = ServeConfig::new(wm, 1).data_dir(&dir);
        let state = ServerState::new(&cfg, "127.0.0.1:0".parse().unwrap()).unwrap();

        let batch: Vec<(SparseVector, Label)> = (0..600u32)
            .map(|t| {
                let x = SparseVector::from_pairs(&[(t % 11, 1.0), (50 + t % 97, 0.5)]);
                (x, if t % 3 == 0 { 1 } else { -1 })
            })
            .collect();
        let mut update = Writer::new();
        put_examples(&mut update, &batch);
        call(&state, 0, OP_UPDATE, update).unwrap();
        checkpoint_pass(&state);
        let before = call(&state, 0, OP_SNAPSHOT, Writer::new()).unwrap();

        let mut merge = Writer::new();
        merge.put_bytes(&WmSketch::new(wm).to_snapshot_bytes());
        let clock = call(&state, 0, OP_MERGE, merge).unwrap();
        assert_eq!(Reader::new(&clock).take_u64().unwrap(), 600);
        let after = call(&state, 0, OP_SNAPSHOT, Writer::new()).unwrap();
        assert_ne!(before, after, "the merge rewrote the model's state");

        checkpoint_pass(&state);
        let file = std::fs::read(durability::record_path(
            &dir,
            "default",
            durability::CKPT_EXT,
        ));
        assert_eq!(
            file.unwrap(),
            after,
            "the checkpoint holds the merged state"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The governor's accounting follows the registry through every
    /// residency change: on a governed node with room for about two
    /// small models, CREATEs and UPDATEs spill and revive models, RESET
    /// and RESTORE replace spilled ones, and CHECKPOINT snapshots one.
    /// After every step the charged total is the entries' learner
    /// charges plus their registry overheads, a model is charged exactly
    /// while its learner is resident, and STATS counts the resident and
    /// spilled slots.
    #[test]
    fn governor_accounting_matches_the_registry_at_every_step() {
        fn audit(state: &ServerState, step: &str) {
            let (mut charged, mut resident, mut spilled) = (0, 0, 0);
            for e in state.entries() {
                let cost = e.resident_cost.load(Ordering::Relaxed);
                let is_resident = matches!(&*e.slot.lock().unwrap(), ModelSlot::Resident(_));
                assert_eq!(cost > 0, is_resident, "{step}: model {}", e.id);
                if is_resident {
                    resident += 1;
                } else {
                    spilled += 1;
                }
                charged += cost + crate::governor::entry_overhead(e.name.len(), e.template.len());
            }
            let gov = state.governor.as_ref().unwrap();
            assert_eq!(gov.resident_bytes(), charged, "{step}: charged bytes");
            let stats = take_stats(&call(state, 0, OP_STATS, Writer::new()).unwrap()).unwrap();
            assert_eq!(
                (stats.resident_models, stats.spilled_models),
                (resident, spilled),
                "{step}: model counts"
            );
        }
        fn a_spilled_model(state: &ServerState) -> u32 {
            let entries = state.entries();
            let entry = entries
                .iter()
                .find(|e| matches!(&*e.slot.lock().unwrap(), ModelSlot::Spilled(_)))
                .expect("a spilled model");
            entry.id
        }

        let dir = std::env::temp_dir().join(format!("wmsketch-accounting-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wm = WmSketchConfig::new(64, 2).seed(3);
        let awm = AwmSketchConfig::new(8, 64).lambda(1e-5).seed(5);
        let template = AwmSketch::new(awm).to_snapshot_bytes();
        // Room for the default model, or for two of the four AWMs once
        // it has been spilled.
        let awm_cost = AwmSketch::new(awm).resident_bytes() as u64
            + crate::governor::entry_overhead(2, template.len());
        let cfg = ServeConfig::new(wm, 1)
            .data_dir(&dir)
            .memory_budget_bytes(3 * awm_cost);
        let state = ServerState::new(&cfg, "127.0.0.1:0".parse().unwrap()).unwrap();
        audit(&state, "construction");

        let mut ids = Vec::new();
        for m in 0..4 {
            let mut create = Writer::new();
            create.put_u32(2);
            create.put_bytes(format!("m{m}").as_bytes());
            create.put_u32(0);
            create.put_bytes(&template);
            let created = call(&state, 0, OP_CREATE, create).unwrap();
            ids.push(Reader::new(&created).take_u32().unwrap());
            audit(&state, &format!("CREATE m{m}"));
        }
        for round in 0..3u32 {
            for &id in &ids {
                let batch: Vec<(SparseVector, Label)> = (0..20u32)
                    .map(|t| {
                        let x = SparseVector::from_pairs(&[(t % 5, 1.0), (id * 50 + t, 0.5)]);
                        (x, if (t + round) % 3 == 0 { 1 } else { -1 })
                    })
                    .collect();
                let mut update = Writer::new();
                put_examples(&mut update, &batch);
                call(&state, id, OP_UPDATE, update).unwrap();
                audit(&state, &format!("UPDATE {id} round {round}"));
            }
        }
        let stats = take_stats(&call(&state, 0, OP_STATS, Writer::new()).unwrap()).unwrap();
        assert!(stats.evictions_total > 0 && stats.revivals_total > 0);

        let cold = a_spilled_model(&state);
        call(&state, cold, OP_RESET, Writer::new()).unwrap();
        audit(&state, "RESET of a spilled model");

        let hot = ids[3];
        call(
            &state,
            hot,
            OP_CHECKPOINT,
            crate::client::path_payload("manual.ckpt"),
        )
        .unwrap();
        audit(&state, "CHECKPOINT");

        let cold = a_spilled_model(&state);
        call(
            &state,
            cold,
            OP_RESTORE,
            crate::client::path_payload("manual.ckpt"),
        )
        .unwrap();
        audit(&state, "RESTORE onto a spilled model");
        assert_eq!(
            call(&state, cold, OP_SNAPSHOT, Writer::new()),
            call(&state, hot, OP_SNAPSHOT, Writer::new()),
            "the restored model holds the checkpointed state"
        );
        audit(&state, "SNAPSHOT");

        drop(state);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
