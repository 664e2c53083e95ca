//! # wmsketch-serve — snapshot codec + streaming ingest/query service
//!
//! The paper's headline use case is memory-budgeted classification
//! *inside* network devices and stream processors, which means sketches
//! must survive process boundaries: checkpointed, shipped between nodes,
//! and aggregated. Because the WM-Sketch is a **linear** sketch, a
//! snapshot shipped from one node and cell-wise added on another is
//! *exactly* the sketch of the combined gradient streams (the
//! turnstile/linear-sketch equivalence of Kallaugher & Price) — so a
//! fleet of ingest nodes can train independently, and an aggregator that
//! merges their snapshots in a fixed order holds, bit for bit, the model
//! an in-process `merge_from` of the same per-node learners gives. This
//! crate externalizes that: a versioned binary snapshot format plus a
//! TCP service speaking it.
//!
//! * [`WmServer`] / [`ServerHandle`] — a TCP node with two transport
//!   [backends](#backends) (a threaded accept loop and a
//!   readiness-driven event loop), both feeding a **model registry**:
//!   named [`wmsketch_core::DynLearner`] models (WM, AWM, multiclass
//!   AWM — anything in [`wmsketch_core::REGISTERED_LEARNER_KINDS`]),
//!   each one plain learner behind its own mutex; graceful drain on
//!   shutdown. A node scales out by shipping snapshots to other nodes,
//!   not by a worker pool inside it.
//! * [`ServeClient`] — a small blocking client (with a pipelined ingest
//!   path, [`ServeClient::update_many`]) used by the tests, the
//!   benchmark harness, and the `serve_quickstart` / `serve_multimodel`
//!   examples.
//! * The snapshot codec itself lives with the types it serializes
//!   (`SnapshotCodec` impls in `wmsketch-sketch` and `wmsketch-core`,
//!   byte primitives in `wmsketch_hashing::codec`); this crate is its
//!   transport and its on-disk checkpoint format.
//!
//! ## Snapshot layout (`WMS1`), byte by byte
//!
//! All integers are little-endian. `f64` fields are the 8 raw bytes of
//! [`f64::to_bits`], making round trips bit-identical (including `-0.0`;
//! decoders reject non-finite cell and weight values — legitimate sketch
//! state is always finite, and a crafted NaN would otherwise panic
//! estimator code far from the trust boundary).
//!
//! ```text
//! offset  size  field
//! 0       4     magic: 57 4D 53 31 ("WMS1"; byte 3 is the format version)
//! 4       1     payload kind: 01 CountSketch, 02 CountMinSketch,
//!               03 WmSketch, 04 AwmSketch, 05 MulticlassAwmSketch
//! 5       1     flags (reserved, must be 00)
//! 6       ...   body: a sequence of sections, each
//!                 tag (1 byte) | len (u32, payload bytes) | payload
//! ```
//!
//! `WmSketch` (kind `03`) body sections, in order:
//!
//! ```text
//! tag 01 CONFIG   width (u32) | depth (u32) | heap_capacity (u64)
//!               | lambda (f64)
//!               | learning-rate tag (u8: 00 constant, 01 1/sqrt(t),
//!                 02 1/t) | eta0 (f64)
//!               | loss tag (u8: 00 logistic, 01 smoothed hinge
//!                 (followed by gamma f64), 02 squared)
//!               | hash-family tag (u8: 00 tabulation, 01 polynomial
//!                 (followed by independence k, u32))
//!               | seed (u64)
//! tag 02 CELLS    count (u64, = depth x width) | count x f64
//!                 (row-major pre-scale cells z_v)
//! tag 03 STATE    t (u64, update clock) | alpha (f64, global scale)
//!               | fold threshold (f64)
//! tag 04 TOPK     present (u8: 00 no heap, 01 heap follows)
//!               | [capacity (u64) | count (u64)
//!               |  count x (feature u32 | weight f64),
//!                  feature-ascending]
//! ```
//!
//! `AwmSketch` (kind `04`) uses the same CONFIG/CELLS/STATE sections; its
//! TOPK section has no presence flag (the active set is integral model
//! state) and its weights are *exact* pre-scale model weights rather than
//! stale estimates. `MulticlassAwmSketch` (kind `05`) is a CONFIG section
//! (`classes u32 | t u64 | nce rng state u64`) followed by `classes`
//! CLASS sections (tag `05`), each embedding one complete kind-`04`
//! snapshot. `CountSketch` (kind `01`) and `CountMinSketch`
//! (kind `02`) bodies are documented on their `SnapshotCodec` impls in
//! `wmsketch-sketch`.
//!
//! The CONFIG section carries the hash-family kind **and seed**, so a
//! decoded sketch reconstructs the identical projection and is
//! merge-compatible with its origin — the property the MERGE op depends
//! on.
//!
//! Decoders bound every size field before allocating: `heap_capacity`
//! must not exceed `wmsketch_core::MAX_HEAP_CAPACITY`, the polynomial
//! independence level is capped by
//! `wmsketch_hashing::codec::MAX_POLY_INDEPENDENCE`, and array
//! reservations are clamped to what the remaining bytes can hold — a
//! crafted snapshot yields a typed `CodecError`, never a panic or an
//! absurd allocation.
//!
//! ## Wire protocol, byte by byte
//!
//! Both directions speak length-prefixed frames over TCP:
//!
//! ```text
//! frame    := len (u32, body bytes, <= 64 MiB) | body
//! request  := F3 | model id (u32) | opcode (u8) | payload
//! response := status (u8: 00 OK, 01 ERR) | payload
//!             (ERR payload is a UTF-8 message)
//! ```
//!
//! Every request body opens with the `F3` marker (a value outside the
//! opcode range; future header revisions get `F4`, …) and the
//! **model-id header**. A body that starts with any other byte — an
//! opcode, or the `F2` of the previous revision, whose STATS and LIST
//! rows carried two more fields — is answered with a typed `ERR`, and
//! the connection stays usable. Model id 0 is the default model, which
//! [`WmServer::bind`] builds from its [`ServeConfig`] (name
//! `"default"`, kind `03` WM).
//!
//! **Pipelining.** A connection may write request frame N+1 without
//! waiting for frame N's response — both backends accept it. On both,
//! one connection's requests **execute one at a time in the order they
//! were framed**, and their responses come back in that order, one
//! response per request, so a pipelined reader pairs them by position —
//! there are no response tags. A pipelined ESTIMATE never observes the
//! model from before an UPDATE framed ahead of it, and a request for a
//! model pipelined behind the CREATE that registers it runs after that
//! CREATE. Requests from *different* connections on one model are
//! ordered by the model's learner lock. After a frame whose response is
//! an `ERR` the connection stays usable; after a *framing* violation
//! (oversized length prefix) the server finishes the responses it owes
//! and closes.
//!
//! Shared payload encodings:
//!
//! ```text
//! features := nnz (u32) | nnz x (index u32 | value f64, finite)
//! example  := label (i8) | features
//! batch    := count (u32) | count x example
//! path     := len (u32) | UTF-8 bytes
//! model    := id (u32) | name_len (u32) | name (UTF-8)
//!           | kind (u8) | clock (u64) | memory_bytes (u64)
//! ```
//!
//! Feature values must be finite, and labels must lie in the addressed
//! model's **label domain** — `+1`/`-1` for binary models, a class index
//! in `0..classes` for multiclass models (`i8` caps wire-served models at
//! 128 classes; CREATE rejects larger templates). The server rejects
//! anything else with a typed error before it can reach (and poison) the
//! model.
//!
//! Opcodes and their payloads (all model-scoped ops address the model id
//! in the header):
//!
//! | op | name | request payload | OK response payload |
//! |----|------|-----------------|---------------------|
//! | `01` | UPDATE | batch | ingested examples (u64) |
//! | `02` | PREDICT | features | margin (f64) \| label (i8: sign, or argmax class) |
//! | `03` | TOPK | k (u32) | count (u32) \| count × (feature u32 \| weight f64) |
//! | `04` | SNAPSHOT | — | snapshot bytes |
//! | `05` | MERGE | snapshot bytes | model clock (u64) |
//! | `06` | CHECKPOINT | path | bytes written (u64) |
//! | `07` | RESTORE | path | model clock (u64) |
//! | `08` | ESTIMATE | feature (u32) | weight (f64) |
//! | `09` | STATS | — | stats (below) |
//! | `0A` | RESET | — | — |
//! | `0B` | SHUTDOWN | — | — (server drains afterwards; registry-level) |
//! | `0C` | CREATE | name_len (u32) \| name \| shards (u32) \| template snapshot | model id (u32) (registry-level) |
//! | `0D` | LIST | — | count (u32) \| count × model (registry-level) |
//! | `0E` | PEER_JOIN | node id (u64) \| addr_len (u32) \| addr | this node's id (u64) (registry-level) |
//! | `0F` | PULL_DELTA | origin (u64) \| since (u64) | to_clock (u64) \| record bytes (empty = nothing newer) |
//! | `10` | ACK | peer (u64) \| acked clock (u64) | current acked clock (u64) |
//! | `11` | METRICS | — | UTF-8 `wmsketch-metrics/v1` exposition (registry-level) |
//!
//! CREATE registers a named model from an **untrained** template
//! snapshot of any registered kind — the template carries the complete
//! configuration (shape, hash family, seed, hyperparameters), so one op
//! covers every learner kind, and the node hosts the decoded template as
//! one plain learner. `shards` must be 0 or 1; both mean one learner
//! (the field once sized a worker pool inside the node, and a node now
//! scales out only by shipping snapshots). Larger values, trained
//! templates, and multiclass templates beyond 128 classes are typed
//! errors. Kind dispatch goes through
//! `wmsketch_hashing::codec::decode_any` (via
//! [`wmsketch_core::decode_any_learner`]), so an AWM or multiclass node
//! speaks exactly the protocol a WM node does. MERGE and RESTORE decode
//! through the same kind-checked path: the payload's kind byte must match
//! the addressed model, and a mismatch or merge-incompatible peer is a
//! typed error.
//!
//! The STATS reply reports the addressed model, the registry, and
//! node-wide counters, replication and governor state:
//!
//! ```text
//! stats := routed (u64) | clock (u64)
//!        | count (u32) | count x model
//!        | backend (u8: 00 threaded, 01 event)
//!        | lock acquisitions (u64) | update frames (u64)
//!        | node id (u64) | row count (u32)
//!        | row count x (model id (u32) | peer id (u64)
//!                       | acked clock (u64, shipped-clock vector entry)
//!                       | applied clock (u64, this node's replica
//!                                        of that origin))
//!        | budget (u64) | resident models (u32) | spilled models (u32)
//!        | resident bytes (u64) | evictions (u64) | revivals (u64)
//! ```
//!
//! Every UPDATE frame takes its model's lock exactly once on both
//! backends, so the node writes the frame count into both counter slots.
//! The six governor fields are all zero on an ungoverned node. The layout
//! is frozen: new node-wide figures go into `OP_METRICS`, not STATS. The
//! client decodes it strictly ([`protocol::take_stats`]): a reply that
//! ends early or carries a trailing byte is a typed error.
//!
//! Every response reflects every example ingested before it. MERGE
//! folds the peer model into the addressed model and composes with live
//! ingest. STATS and LIST report the registry — per-model kind, update
//! clock, and memory — so operators can see what a node is hosting.
//!
//! ## Merge clock semantics
//!
//! A model's clock counts every example its state reflects: examples
//! ingested through UPDATE plus the clocks of absorbed peer snapshots,
//! which a MERGE adds the moment it lands. UPDATE and MERGE responses,
//! STATS' `routed` and `clock`, and the LIST row all report this one
//! number.
//!
//! ## Replication: delta snapshots + anti-entropy gossip
//!
//! Because updates are state-dependent (the margin feeds the gradient),
//! deltas cannot be additive and stay bit-exact — so a **delta record**
//! ships sparse *overwrites*: the raw `f64` bit patterns of exactly the
//! cells touched since a watermark clock, plus the (tiny) scalar state
//! and the top-K heap when it moved. Applying a delta for the clock
//! interval `(from, to]` onto a replica at clock `from` makes the
//! replica re-encode **bit-identically** to a full snapshot of the
//! origin at `to`; a replica at any other clock rejects it with the
//! typed `DeltaGap` error and is left untouched — re-delivery is thereby
//! harmless and out-of-order delivery is detected, which is what makes
//! the pull loop below safe to retry blindly.
//!
//! Delta record layout (the full snapshot's envelope with flags bit
//! `0x01` set; sections are `tag | len (u32) | payload` as above):
//!
//! ```text
//! "WMS1" | kind | 01
//! tag 20 HEAD    from clock (u64) | to clock (u64)
//! tag 21 CELLS   count (u64) | count × (cell index u32 | raw f64 bits u64)
//! tag 22 STATE   t (u64) | scale state (as in the full STATE section)
//! tag 23 TOPK    changed (u8) | [heap / active set as in full TOPK]
//! ```
//!
//! A multiclass delta is `HEAD | STATE (classes u32 | t u64 | nce rng
//! state u64)` followed by `classes` CLASS sections (tag `24`), each
//! wrapping one embedded AWM delta body, class-ascending — the NCE rng
//! state rides the delta so replicas stay in noise-sample lockstep.
//!
//! On top of the records sit per-model **origin replicas**: each node
//! hosts its own authoritative copy (ingesting its partition of the
//! stream) and, per origin it has heard of, a
//! replica of that origin's copy advanced purely by pulled records. The
//! gossip loop ([`ServeConfig::gossip_every_ms`]) ticks on its own timer
//! thread and, for every registered peer (PEER_JOIN) and shared model
//! *name* (registry ids are node-local), pulls every cluster member's
//! origin (PULL_DELTA), applies, and acks the peer's own copy (ACK) —
//! pulling third-party origins carries state across partitions
//! transitively through whichever links are up, and pulling one's *own*
//! origin is restart recovery: a node that lost its local copy adopts a
//! peer's replica of it and resumes bit-identically. Connect failures
//! back off exponentially with deterministic splitmix64 jitter keyed by
//! `(node, peer, attempt)`, so retry schedules reproduce under a fixed
//! topology yet never phase-lock across a fleet.
//!
//! Once a model holds origin replicas, read queries
//! (PREDICT/ESTIMATE/TOPK/SNAPSHOT) serve the **canonical merged view**:
//! the origin snapshots (the local copy included, keyed by this node's
//! id) folded in ascending origin-id order. The fixed fold order matters
//! — floating-point merge addition is not associative — and is what
//! makes every node's merged view, and hence its estimates, margins,
//! top-K, and SNAPSHOT bytes, **bit-identical** once replicas converge.
//! The view is cached against its `(origin, clock)` basis and rebuilt
//! only when local ingest or an applied record moves that basis. UPDATE,
//! MERGE, CHECKPOINT, RESTORE, and RESET keep addressing the node's
//! local copy.
//!
//! ## Durability & recovery
//!
//! A node given a data directory ([`ServeConfig::data_dir`]) is
//! **crash-safe**: a background checkpointer thread
//! ([`ServeConfig::checkpoint_every_ms`]) persists every registered
//! model whose clock moved since its last checkpoint. Each write is
//! atomic and self-verifying:
//!
//! * every persisted record carries the `WMS1` envelope's integrity
//!   footer (flag `0x02`): a CRC-64/XZ of everything before the footer,
//!   appended at seal time and verified on every decode path — a
//!   bit-flip or truncation anywhere in a checkpoint yields a typed
//!   `ChecksumMismatch`/truncation error, never a panic and never a
//!   silently wrong model;
//! * files are written to a `.tmp` sibling, `fsync`ed, atomically
//!   renamed into place (`m-<hex(name)>.ckpt`), and the directory
//!   entry is synced — a crash mid-write leaves the previous checkpoint
//!   intact, and stale temporaries are swept at startup.
//!
//! CREATE writes a `.spec` sidecar (name and untrained template, plus
//! legacy shards and mode fields written as 0) through the same atomic
//! path, so the registry
//! shape itself is durable. On bind, a node with a data directory
//! recovers in two passes: every readable spec re-registers its model
//! (same name; ids are assigned fresh), then every readable checkpoint
//! **restores** its model's state. Restore is not a peer merge: where
//! `absorb` folds foreign state in (normalizing the scale
//! representation), restore reinstates the checkpoint as the model's
//! own interrupted life, bit for bit (pre-scale cells, scale factor,
//! update clock, top-K heap), so training resumed on a recovered node
//! follows the exact trajectory the crash interrupted and reconverges
//! bit-identically with a node that never crashed. The default model
//! recovers the same way. A spec or checkpoint an older node wrote for
//! a worker pool recovers as one learner restored from the pool's root
//! snapshot. Unreadable, corrupt, or shape-incompatible files are skipped
//! and counted (`recovery_rejected_total`); they never stop the node
//! from serving.
//!
//! Client-driven CHECKPOINT/RESTORE ops go through the same sealed
//! records and, on a node with a data directory, are **confined** to
//! it: paths are joined beneath the directory and any absolute path or
//! `..` traversal is rejected with a typed error before touching the
//! filesystem (nodes without a data directory keep the legacy verbatim
//! behavior).
//!
//! The failure drills themselves are deterministic: the
//! `wmsketch-faults` registry (armed via the `WMSKETCH_FAULTS` /
//! `WMSKETCH_FAULTS_SEED` environment variables or in-process) injects
//! torn writes, dropped fsyncs, failed connects, and killed response
//! writes at named sites with a seeded schedule, and every check and
//! trip is exported through `OP_METRICS`. On the client side,
//! [`SelfHealingClient`] wraps [`ServeClient`] with bounded retries,
//! exponential backoff with deterministic jitter, automatic reconnect,
//! and an exactly-once `update_many` that resumes mid-stream from the
//! failing frame index or the server's model clock — the chaos suite
//! (`tests/chaos.rs`, run by CI's `chaos` matrix with a per-run seed)
//! asserts the whole loop: kill a node mid-ingest under faults, restart
//! it, and the recovered node reconverges bit-identically while every
//! example lands exactly once.
//!
//! ## Memory governor & model lifecycle
//!
//! A node given both a data directory and a resident-byte budget
//! ([`ServeConfig::memory_budget_bytes`]; a budget without a directory
//! is rejected at bind — spill needs somewhere durable to go) hosts a
//! **memory-governed** registry: it can serve far more models than fit
//! in memory by keeping a hot working set resident and spilling the
//! long tail to disk.
//!
//! * **Charging.** Every registered model charges its learner's
//!   measured `resident_bytes` plus a permanent per-entry registry
//!   overhead (the entry struct, name, and template copy) against the
//!   budget. CREATE is **admission-controlled**: if the new model still
//!   does not fit after evicting every candidate, the op fails with a
//!   typed protocol error (`model does not fit in the node's memory
//!   budget`) and the registry is unchanged.
//! * **Eviction.** Under pressure the governor spills the
//!   least-recently-used model, the default model included: the
//!   learner is snapshotted
//!   through the same sealed-`WMS1` atomic-write path as a checkpoint —
//!   the spill record **is** the model's checkpoint file — and the
//!   registry entry collapses to a stub holding only the clock, cost,
//!   and path. Its budget charge is released.
//! * **Revival.** Any request addressing a cold model revives it inline
//!   before executing: the spill record is decoded and restored through
//!   the bit-exact recovery path, so a spilled-and-revived model
//!   answers estimates, predictions, top-K, and SNAPSHOT **byte for
//!   byte** as if it had never been evicted — and keeps training
//!   byte-for-byte like a never-evicted twin, because the top-K heaps
//!   break |weight| ties by feature rather than by insertion history, so
//!   a decoded model evicts exactly what the original would. Revival is
//!   single-flight — concurrent requests for the same cold model perform
//!   exactly one disk read (the entry's slot lock serializes them) — and
//!   a corrupt spill record yields a typed error on access, counted in
//!   `governor_revival_failures_total`, never a panic; RESET rebuilds
//!   the model from its template.
//! * **Recovery.** On restart the governed node re-registers every spec
//!   as usual, then **lazily stubs** every model whose checkpoint
//!   exists, the default model included — cold models are not paged in
//!   just to be counted; their first request revives them. Recovery
//!   admission never evicts (a mid-recovery entry still holds its fresh
//!   template build; spilling it would overwrite the real checkpoint).
//!
//! STATS reports the budget, the residency gauges and the spill/revival
//! counters (its last six fields). The `model_fleet` example drives 96
//! governed models under a quarter-of-hot-sum budget and checks every
//! eighth model byte for byte against a never-evicted twin; the
//! repository benchmark's `fleet` workload (`perfbench/`) sends zipf
//! traffic over 1000 governed models and gates the served models bit for
//! bit.
//!
//! ## Telemetry: the `OP_METRICS` exposition
//!
//! `OP_METRICS` (`11`, registry-level — the model id in the header is
//! ignored, like LIST) takes an empty payload and returns the node's
//! telemetry as a UTF-8 text exposition in the `wmsketch-metrics/v1`
//! format (grammar in `wmsketch_telemetry::expo`): one sample per line,
//!
//! ```text
//! # wmsketch-metrics/v1
//! <name>{<key>="<value>",...} <number>
//! ```
//!
//! with `"`-quoted, `\`-escaped label values and decimal integer or
//! float numbers. Histograms export as `<name>_count`, `<name>_sum`,
//! and `<name>_p50/_p90/_p99/_p999` (log2-bucketed; quantiles carry
//! within-bucket interpolation and are omitted while empty). The format
//! is **append-stable**: scrapers must ignore names they don't know, so
//! the registry below can grow without a version bump.
//! [`ServeClient::metrics`] performs the scrape and parse.
//!
//! Instrumentation is gated on one process-global switch — the
//! `WMSKETCH_TELEMETRY` environment variable (`off`/`0`/`false` disable;
//! default on) or `wmsketch_telemetry::set_enabled` — and the hot path
//! records through relaxed atomics only (fixed histogram arrays hanging
//! off each registry entry; no locks, no allocation per frame). Every
//! latency histogram is a `wmsketch_telemetry::LatencyHistogram`: 144
//! bytes of log2 buckets clamped to `[32 ns, ~137 s)`, so a governed
//! node hosting tens of thousands of models pays 144 B per op class per
//! model.
//!
//! Metric-name registry (labels in parentheses):
//!
//! | name | type | meaning |
//! |------|------|---------|
//! | `node_info` (`node_id`, `backend`) | const `1` | node identity row |
//! | `telemetry_enabled` | gauge | `1` while the switch is on |
//! | `frames_rx_total` | counter | request frames read off sockets |
//! | `bytes_rx_total` | counter | request bytes read (length prefixes included) |
//! | `bytes_tx_total` | counter | response bytes handed to the transport |
//! | `connections_open` | gauge | currently open connections |
//! | `paused_connections` | gauge | connections whose read frames wait on unsent responses (event backend) |
//! | `executor_queue_depth` | gauge | request frames read but not yet executed (event backend) |
//! | `update_frames_total` | counter | mirror of the STATS update-frame counter |
//! | `gossip_rounds_total` | counter | gossip ticks started |
//! | `gossip_attempts_total` | counter | per-peer exchanges attempted |
//! | `gossip_failures_total` | counter | exchanges failed (peer enters backoff) |
//! | `gossip_backoff_skips_total` | counter | peer visits skipped inside a backoff window |
//! | `checkpoints_written_total` | counter | checkpoint files atomically renamed into place (spec sidecars included) |
//! | `checkpoints_skipped_total` | counter | checkpointer passes skipped because a model's clock had not moved |
//! | `checkpoint_failures_total` | counter | checkpoint writes that failed (e.g. torn by an injected fault; retried next pass) |
//! | `models_recovered_total` | counter | models restored from a checkpoint at startup |
//! | `recovery_rejected_total` | counter | corrupt/unreadable/incompatible durable files skipped during recovery |
//! | `governor_budget_bytes` | gauge | the configured resident-byte budget (block absent on ungoverned nodes) |
//! | `governor_resident_bytes` | gauge | bytes currently charged against the budget |
//! | `governor_resident_models` | gauge | models whose learner is resident |
//! | `governor_spilled_models` | gauge | models currently on disk as stubs |
//! | `governor_evictions_total` | counter | LRU spills to disk since startup |
//! | `governor_revivals_total` | counter | cold models transparently revived |
//! | `governor_revival_failures_total` | counter | revival attempts that failed (corrupt/unreadable spill record) |
//! | `governor_spill_failures_total` | counter | eviction snapshot writes that failed (model stays resident) |
//! | `governor_revival_latency_ns_*` | histogram | wall time to page a cold model back in (disk read + decode + restore) |
//! | `fault_checks_total` (`site`) | counter | failpoint evaluations at an armed site (absent with no plan armed) |
//! | `fault_trips_total` (`site`) | counter | failpoint evaluations that injected the fault |
//! | `op_latency_ns_*` (`model`, `op`) | histogram | per-op service latency; `_count` equals the frames processed for that (model, op) |
//! | `request_bytes_total` (`model`) | counter | wire bytes addressing the model |
//! | `update_examples_total` (`model`) | counter | labelled examples ingested |
//! | `op_errors_total` (`model`) | counter | requests answered with ERR |
//! | `replication_lag` (`model`, `origin`) | gauge | origin clock reported by the last gossip exchange minus this node's applied watermark (0 = caught up) |
//! | `journal_pushed` | counter | span events ever journalled |
//! | `journal_span` (`seq`, `kind`, `detail`, `at_ns`) | value = span ns | ring-buffered coarse spans: `gossip_tick`, `delta_pull`, `drain`, `model_create` |
//!
//! The `model` label is the registry *name* (stable across nodes, unlike
//! ids); registry-level ops and requests that never resolved a model are
//! attributed to the reserved pseudo-model `_registry`.
//!
//! ## Backends
//!
//! Both backends speak the identical wire protocol and produce
//! bit-identical model state for the same per-connection frame
//! sequences; which one runs is an operational choice:
//!
//! * **Threaded** ([`ServeBackend::Threaded`]) — blocking accept loop,
//!   one thread per connection. Simple, portable, and the default off
//!   Linux.
//! * **Event** ([`ServeBackend::Event`]) — run-to-completion loops over
//!   raw `epoll` (Linux only, where it is the default): one to four
//!   nonblocking loop threads, one per available CPU, each owning the
//!   connections it accepted. A loop reassembles a connection's frames,
//!   runs each one in arrival order through the same handler the
//!   threaded backend calls — so both backends decode, lock, and record
//!   telemetry identically — and writes the responses itself; no
//!   request crosses a thread. Connections cost no thread, so one node
//!   holds many thousands; a connection whose unsent responses pass
//!   1 MiB has its remaining frames held and its reads stopped until the
//!   socket drains, and accept/registration failures (fd exhaustion)
//!   back off for 10 ms instead of spinning.
//!
//! Selection order: an explicit [`ServeConfig::backend`] override, else
//! the `WMSKETCH_SERVE_BACKEND` environment variable (`threaded` |
//! `event`), else the platform default. An `Event` selection is clamped
//! to `Threaded` off Linux, and an event node whose poller cannot be set
//! up falls back to the threaded loop rather than failing to serve.
//!
//! ## Trust model
//!
//! This is an internal aggregation protocol for nodes that already trust
//! each other, not a public endpoint: there is no authentication. On a
//! node with a data directory, CHECKPOINT/RESTORE paths are confined
//! beneath it (absolute paths and `..` traversal are rejected); without
//! one they are used verbatim on the server's filesystem — the legacy
//! contract, acceptable only inside that trust boundary. Decoders never
//! panic on malformed bytes — corrupt frames and snapshots produce
//! typed errors (`ERR` responses), and durable state is CRC-verified on
//! every decode — so a bad peer or a flipped bit cannot crash a node.

#![warn(missing_docs)]

pub mod client;
mod durability;
pub mod error;
#[cfg(target_os = "linux")]
mod event_loop;
mod gossip;
mod governor;
mod metrics;
#[cfg(target_os = "linux")]
mod poller;
pub mod protocol;
pub mod server;

pub use client::{RetryPolicy, SelfHealingClient, ServeClient};
pub use error::ServeError;
pub use protocol::ModelInfo;
pub use server::{ReplRow, ServeBackend, ServeConfig, ServeStats, ServerHandle, WmServer};
pub use wmsketch_telemetry::{MetricsReport, Sample};
