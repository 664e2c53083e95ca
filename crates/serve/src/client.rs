//! A small blocking client for the serve protocol, used by the tests,
//! the benchmark harness, and the serve examples.
//!
//! A client addresses one model at a time ([`ServeClient::set_model`],
//! default: the default model, id 0) and can create and enumerate models
//! on the node ([`ServeClient::create_model`] /
//! [`ServeClient::list_models`]). [`ServeClient::connect_legacy`] speaks
//! the headerless version-1 framing — it exists so the
//! backward-compatibility contract (legacy clients keep working against
//! a registry server) stays executable in the test suite.
//!
//! [`SelfHealingClient`] wraps `ServeClient` with a [`RetryPolicy`]:
//! bounded reconnect-and-retry with deterministic jittered backoff
//! (shared with the gossip loop's), and an **exactly-once** pipelined
//! ingest that resumes a broken [`SelfHealingClient::update_many`] from
//! the server's own clock instead of replaying examples it already
//! counted.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use wmsketch_core::WeightEntry;
use wmsketch_hashing::codec::{Reader, Writer};
use wmsketch_learn::{Label, SparseVector};

use crate::error::ServeError;
use crate::protocol::{
    put_examples, put_features, read_frame, request, request_for_model, take_model_info,
    write_frame, ModelInfo, DEFAULT_MODEL_ID, OP_ACK, OP_CHECKPOINT, OP_CREATE, OP_ESTIMATE,
    OP_LIST, OP_MERGE, OP_METRICS, OP_PEER_JOIN, OP_PREDICT, OP_PULL_DELTA, OP_RESET, OP_RESTORE,
    OP_SHUTDOWN, OP_SNAPSHOT, OP_STATS, OP_TOPK, OP_UPDATE, STATUS_OK,
};
use crate::server::{ReplRow, ServeBackend, ServeStats, CREATE_MODE_DEFERRED_HEAP};

/// Default per-operation socket deadline: every connection made through
/// this module reads and writes under a timeout, so a wedged or
/// half-dead server costs a bounded wait, never a hung client thread.
const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to a serving node.
pub struct ServeClient {
    stream: TcpStream,
    /// The model this client's requests address.
    model: u32,
    /// When true, requests use the headerless version-1 framing (default
    /// model only).
    legacy: bool,
}

impl ServeClient {
    /// Connects to a node, addressing the default model with version-2
    /// (model-id) framing. The socket gets a default 30-second read/write
    /// deadline (timeouts surface as [`ServeError::Io`]).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        if wmsketch_faults::check(wmsketch_faults::NET_CONNECT).is_some() {
            return Err(ServeError::Io(wmsketch_faults::injected_io_error(
                wmsketch_faults::NET_CONNECT,
            )));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_OP_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_OP_TIMEOUT))?;
        Ok(Self {
            stream,
            model: DEFAULT_MODEL_ID,
            legacy: false,
        })
    }

    /// Connects with a bound on how long the TCP connect may block —
    /// what the gossip loop uses so a partitioned peer costs one timeout,
    /// not a hung tick. Resolves `addr` and tries each candidate address
    /// with the full timeout.
    ///
    /// # Errors
    /// Propagates socket errors; `TimedOut` when no candidate answered.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: std::time::Duration,
    ) -> Result<Self, ServeError> {
        if wmsketch_faults::check(wmsketch_faults::NET_CONNECT).is_some() {
            return Err(ServeError::Io(wmsketch_faults::injected_io_error(
                wmsketch_faults::NET_CONNECT,
            )));
        }
        let mut last: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(Self {
                        stream,
                        model: DEFAULT_MODEL_ID,
                        legacy: false,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ServeError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })))
    }

    /// Connects speaking the legacy (version-1, headerless) framing a
    /// pre-registry client would use. Such a session can only address the
    /// default model; [`ServeClient::set_model`] returns an error.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect_legacy(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let mut c = Self::connect(addr)?;
        c.legacy = true;
        Ok(c)
    }

    /// The model id this client's requests address.
    #[must_use]
    pub fn model(&self) -> u32 {
        self.model
    }

    /// Addresses subsequent requests to `model` (an id returned by
    /// [`ServeClient::create_model`] or found via
    /// [`ServeClient::list_models`]).
    ///
    /// # Errors
    /// [`ServeError::Protocol`] on a legacy connection, whose framing
    /// carries no model id.
    pub fn set_model(&mut self, model: u32) -> Result<(), ServeError> {
        if self.legacy && model != DEFAULT_MODEL_ID {
            return Err(ServeError::Protocol(
                "legacy framing cannot address models beyond the default",
            ));
        }
        self.model = model;
        Ok(())
    }

    /// Builds a request body in this client's framing.
    fn body(&self, op: u8, payload: Writer) -> Vec<u8> {
        if self.legacy {
            request(op, payload)
        } else {
            request_for_model(self.model, op, payload)
        }
    }

    /// One request/response round trip; unwraps the status byte.
    fn call(&mut self, body: &[u8]) -> Result<Vec<u8>, ServeError> {
        write_frame(&mut self.stream, body)?;
        let Some(resp) = read_frame(&mut self.stream)? else {
            return Err(ServeError::Protocol("connection closed mid-request"));
        };
        let mut r = Reader::new(&resp);
        let status = r
            .take_u8()
            .map_err(|_| ServeError::Protocol("empty response"))?;
        let payload = resp[1..].to_vec();
        if status == STATUS_OK {
            Ok(payload)
        } else {
            Err(ServeError::Remote(
                String::from_utf8_lossy(&payload).into_owned(),
            ))
        }
    }

    fn call_op(&mut self, op: u8, payload: Writer) -> Result<Vec<u8>, ServeError> {
        let body = self.body(op, payload);
        self.call(&body)
    }

    /// Registers a new model on the node and returns its id. `template`
    /// is an untrained `WMS1` snapshot of any registered learner kind
    /// (WM, AWM, multiclass AWM); the node hosts it behind `shards`
    /// worker replicas, or **unsharded** (the plain decoded learner, the
    /// replication hosting mode) when `shards == 0`. Does not switch this
    /// client to the new model.
    ///
    /// # Errors
    /// Any [`ServeError`]; the node rejects trained templates, duplicate
    /// names, and multiclass templates with more than 128 classes (class
    /// labels ride the wire's `i8` slot).
    pub fn create_model(
        &mut self,
        name: &str,
        template: &[u8],
        shards: u32,
    ) -> Result<u32, ServeError> {
        let mut w = Writer::new();
        w.put_u32(name.len() as u32);
        w.put_bytes(name.as_bytes());
        w.put_u32(shards);
        w.put_bytes(template);
        let resp = self.call_op(OP_CREATE, w)?;
        Ok(Reader::new(&resp).take_u32()?)
    }

    /// Like [`ServeClient::create_model`], but asks the node to host the
    /// model in **deferred-heap** sharded mode: heap-free workers plus
    /// per-worker candidate trackers of `candidates_per_shard` features,
    /// with top-K recovery deferred to sync points. This is the
    /// throughput configuration for WM models (the only kind that
    /// supports heap-free workers; the node rejects other template
    /// kinds).
    ///
    /// # Errors
    /// Any [`ServeError`]; additionally rejected are non-WM templates
    /// and `candidates_per_shard` above the node's cap.
    pub fn create_model_deferred(
        &mut self,
        name: &str,
        template: &[u8],
        shards: u32,
        candidates_per_shard: u32,
    ) -> Result<u32, ServeError> {
        let mut w = Writer::new();
        w.put_u32(name.len() as u32);
        w.put_bytes(name.as_bytes());
        w.put_u32(shards);
        w.put_u8(CREATE_MODE_DEFERRED_HEAP);
        w.put_u32(candidates_per_shard);
        w.put_bytes(template);
        let resp = self.call_op(OP_CREATE, w)?;
        Ok(Reader::new(&resp).take_u32()?)
    }

    /// The node's model registry, one row per hosted model.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, ServeError> {
        let resp = self.call_op(OP_LIST, Writer::new())?;
        let mut r = Reader::new(&resp);
        let count = r.take_u32()?;
        let mut out = Vec::with_capacity((count as usize).min(r.remaining() / 29));
        for _ in 0..count {
            out.push(take_model_info(&mut r)?);
        }
        Ok(out)
    }

    /// Ingests a batch of labelled examples (class indices for a
    /// multiclass model); returns the model's ingested example count
    /// after the batch.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn update_batch(&mut self, batch: &[(SparseVector, Label)]) -> Result<u64, ServeError> {
        let mut w = Writer::new();
        put_examples(&mut w, batch);
        let resp = self.call_op(OP_UPDATE, w)?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// Ingests a long example stream as **pipelined** UPDATE frames:
    /// `examples` is cut into frames of `frame_examples`, and up to
    /// `window` frames are on the wire before the first response is
    /// read. Against the event backend this keeps the node's decode,
    /// learner, and socket work overlapped (and lets it coalesce the
    /// frames' lock acquisitions); against the threaded backend it
    /// degrades gracefully to streaming writes. Returns the model's
    /// cumulative ingested-example count after each frame, in frame
    /// order — the exact sequence [`ServeClient::update_batch`] calls
    /// would have returned.
    ///
    /// # Errors
    /// An `ERR` landing mid-window is returned as
    /// [`ServeError::RemoteFrame`], whose `frame` is the zero-based index
    /// of the failed frame in this call's frame order — everything before
    /// it was ingested, so a retry loop resumes at
    /// `examples[frame * frame_examples..]`. After any error the
    /// connection has unread in-flight responses and MUST be discarded,
    /// not reused.
    pub fn update_many(
        &mut self,
        examples: &[(SparseVector, Label)],
        frame_examples: usize,
        window: usize,
    ) -> Result<Vec<u64>, ServeError> {
        let frame_examples = frame_examples.max(1);
        let window = window.max(1);
        let chunks: Vec<&[(SparseVector, Label)]> = examples.chunks(frame_examples).collect();
        let mut counts = Vec::with_capacity(chunks.len());
        let mut wbuf: Vec<u8> = Vec::new();
        let mut sent = 0usize;
        while counts.len() < chunks.len() {
            // Top the window up, coalescing the writes into one syscall.
            if sent < chunks.len() && sent - counts.len() < window {
                wbuf.clear();
                while sent < chunks.len() && sent - counts.len() < window {
                    let mut w = Writer::new();
                    put_examples(&mut w, chunks[sent]);
                    let body = self.body(OP_UPDATE, w);
                    wbuf.extend_from_slice(&(body.len() as u32).to_le_bytes());
                    wbuf.extend_from_slice(&body);
                    sent += 1;
                }
                self.stream.write_all(&wbuf)?;
            }
            // Retire the oldest in-flight frame.
            let Some(resp) = read_frame(&mut self.stream)? else {
                return Err(ServeError::Protocol("connection closed mid-pipeline"));
            };
            let mut r = Reader::new(&resp);
            let status = r
                .take_u8()
                .map_err(|_| ServeError::Protocol("empty response"))?;
            if status != STATUS_OK {
                // Responses retire oldest-first, so the frame this ERR
                // answers is exactly the next unretired one — its index
                // lets a retry loop resume instead of replaying the
                // window.
                return Err(ServeError::RemoteFrame {
                    frame: counts.len(),
                    message: String::from_utf8_lossy(&resp[1..]).into_owned(),
                });
            }
            counts.push(r.take_u64()?);
        }
        Ok(counts)
    }

    /// Predicts one example; returns `(margin, label)` — for a
    /// multiclass model the label is the argmax class index and the
    /// margin is that class's margin.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn predict(&mut self, x: &SparseVector) -> Result<(f64, Label), ServeError> {
        let mut w = Writer::new();
        put_features(&mut w, x);
        let resp = self.call_op(OP_PREDICT, w)?;
        let mut r = Reader::new(&resp);
        let margin = r.take_f64()?;
        let label = r.take_i8()?;
        Ok((margin, label))
    }

    /// Point estimate of one feature's weight.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn estimate(&mut self, feature: u32) -> Result<f64, ServeError> {
        let mut w = Writer::new();
        w.put_u32(feature);
        let resp = self.call_op(OP_ESTIMATE, w)?;
        Ok(Reader::new(&resp).take_f64()?)
    }

    /// The model's top-`k` features by |weight|.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn top_k(&mut self, k: u32) -> Result<Vec<WeightEntry>, ServeError> {
        let mut w = Writer::new();
        w.put_u32(k);
        let resp = self.call_op(OP_TOPK, w)?;
        let mut r = Reader::new(&resp);
        let count = r.take_u32()?;
        // Clamp the reservation to what the payload can actually hold
        // (12 bytes per entry), so a corrupt or hostile count cannot
        // demand an absurd allocation before the reads below reject it.
        let mut out = Vec::with_capacity((count as usize).min(r.remaining() / 12));
        for _ in 0..count {
            let feature = r.take_u32()?;
            let weight = r.take_f64()?;
            out.push(WeightEntry { feature, weight });
        }
        Ok(out)
    }

    /// A `WMS1` snapshot of the addressed model's synced state.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ServeError> {
        self.call_op(OP_SNAPSHOT, Writer::new())
    }

    /// Ships a snapshot to the node, which folds it into the addressed
    /// model; returns the model's clock after the merge.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn merge_snapshot(&mut self, snapshot: &[u8]) -> Result<u64, ServeError> {
        let mut w = Writer::new();
        w.put_bytes(snapshot);
        let resp = self.call_op(OP_MERGE, w)?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// Registers a replication peer (`node_id`, reachable at `addr`) with
    /// the server; returns the server's own node id. Re-joining with a
    /// new address replaces the old one (registry-level op).
    ///
    /// # Errors
    /// Any [`ServeError`]; the server rejects a peer id equal to its own.
    pub fn peer_join(&mut self, node_id: u64, addr: &str) -> Result<u64, ServeError> {
        let mut w = Writer::new();
        w.put_u64(node_id);
        w.put_u32(addr.len() as u32);
        w.put_bytes(addr.as_bytes());
        let resp = self.call_op(OP_PEER_JOIN, w)?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// Pulls replication state of `origin`'s copy of the addressed model:
    /// a delta record since `since` (the caller's applied watermark), a
    /// full snapshot when `since` is
    /// [`crate::protocol::PULL_SINCE_FULL`] or a delta cannot be proven
    /// exact, or empty bytes when the server has nothing newer. Returns
    /// `(to_clock, record)`.
    ///
    /// # Errors
    /// Any [`ServeError`]; the server rejects origins it holds no replica
    /// for.
    pub fn pull_delta(&mut self, origin: u64, since: u64) -> Result<(u64, Vec<u8>), ServeError> {
        let mut w = Writer::new();
        w.put_u64(origin);
        w.put_u64(since);
        let resp = self.call_op(OP_PULL_DELTA, w)?;
        let mut r = Reader::new(&resp);
        let to_clock = r.take_u64()?;
        Ok((to_clock, resp[8..].to_vec()))
    }

    /// Records this caller's applied watermark of the addressed model's
    /// local copy in the server's shipped-clock vector; returns the
    /// vector's current entry. Equal re-delivery is idempotent; a
    /// regressing ack is a typed remote error.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn ack_clock(&mut self, peer: u64, acked: u64) -> Result<u64, ServeError> {
        let mut w = Writer::new();
        w.put_u64(peer);
        w.put_u64(acked);
        let resp = self.call_op(OP_ACK, w)?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// Writes a checkpoint file on the server; returns its size in bytes.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn checkpoint(&mut self, path: &str) -> Result<u64, ServeError> {
        let resp = self.call_op(OP_CHECKPOINT, path_payload(path))?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// Replaces the addressed model with a server-side checkpoint file;
    /// returns the restored clock.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn restore(&mut self, path: &str) -> Result<u64, ServeError> {
        let resp = self.call_op(OP_RESTORE, path_payload(path))?;
        Ok(Reader::new(&resp).take_u64()?)
    }

    /// The addressed model's counters plus the whole registry's rows.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let resp = self.call_op(OP_STATS, Writer::new())?;
        let mut r = Reader::new(&resp);
        let routed = r.take_u64()?;
        let root_examples = r.take_u64()?;
        let shards = r.take_u32()?;
        let synced = r.take_u8()? != 0;
        let count = r.take_u32()?;
        let mut models = Vec::with_capacity((count as usize).min(r.remaining() / 29));
        for _ in 0..count {
            models.push(take_model_info(&mut r)?);
        }
        // The v6 tail (backend byte + coalescing counters) follows the
        // registry rows; a pre-v6 node simply ends the payload here.
        let (backend, update_lock_acquisitions, update_frames) = if r.remaining() >= 17 {
            let b = ServeBackend::from_wire_byte(r.take_u8()?).unwrap_or(ServeBackend::Threaded);
            (b, r.take_u64()?, r.take_u64()?)
        } else {
            (ServeBackend::Threaded, 0, 0)
        };
        // The v7 replication tail (node id + shipped-clock/applied rows)
        // follows the v6 tail; a pre-v7 node ends the payload here.
        let (node_id, replication) = if r.remaining() >= 12 {
            let node_id = r.take_u64()?;
            let count = r.take_u32()?;
            let mut rows = Vec::with_capacity((count as usize).min(r.remaining() / 28));
            for _ in 0..count {
                rows.push(ReplRow {
                    model: r.take_u32()?,
                    peer: r.take_u64()?,
                    acked: r.take_u64()?,
                    applied: r.take_u64()?,
                });
            }
            (node_id, rows)
        } else {
            (0, Vec::new())
        };
        // The v8 memory-governor tail (budget + residency gauges +
        // spill/revival counters) follows the v7 tail; a pre-v8 node
        // ends the payload here and every governor field reads 0.
        let (
            memory_budget,
            resident_models,
            spilled_models,
            resident_bytes,
            evictions_total,
            revivals_total,
        ) = if r.remaining() >= 40 {
            (
                r.take_u64()?,
                r.take_u32()?,
                r.take_u32()?,
                r.take_u64()?,
                r.take_u64()?,
                r.take_u64()?,
            )
        } else {
            (0, 0, 0, 0, 0, 0)
        };
        Ok(ServeStats {
            routed,
            root_examples,
            shards,
            synced,
            models,
            backend,
            update_lock_acquisitions,
            update_frames,
            node_id,
            replication,
            memory_budget,
            resident_models,
            spilled_models,
            resident_bytes,
            evictions_total,
            revivals_total,
        })
    }

    /// Scrapes the node's telemetry (`OP_METRICS`, registry-level) and
    /// parses the `wmsketch-metrics/v1` exposition into a
    /// [`wmsketch_telemetry::MetricsReport`]. The raw text is available
    /// via [`ServeClient::metrics_text`].
    ///
    /// # Errors
    /// Any [`ServeError`]; `Protocol` when the payload is not valid
    /// UTF-8 or not a well-formed exposition.
    pub fn metrics(&mut self) -> Result<wmsketch_telemetry::MetricsReport, ServeError> {
        let text = self.metrics_text()?;
        wmsketch_telemetry::MetricsReport::parse(&text)
            .map_err(|_| ServeError::Protocol("malformed metrics exposition"))
    }

    /// Scrapes the node's telemetry and returns the raw
    /// `wmsketch-metrics/v1` exposition text.
    ///
    /// # Errors
    /// Any [`ServeError`]; `Protocol` when the payload is not UTF-8.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        let resp = self.call_op(OP_METRICS, Writer::new())?;
        String::from_utf8(resp).map_err(|_| ServeError::Protocol("metrics payload is not UTF-8"))
    }

    /// Discards the addressed model's state (rebuilding it from its
    /// creation spec).
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn reset(&mut self) -> Result<(), ServeError> {
        self.call_op(OP_RESET, Writer::new())?;
        Ok(())
    }

    /// Asks the node to stop accepting connections and drain.
    ///
    /// # Errors
    /// Any [`ServeError`].
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        self.call_op(OP_SHUTDOWN, Writer::new())?;
        Ok(())
    }
}

fn path_payload(path: &str) -> Writer {
    let mut w = Writer::new();
    w.put_u32(path.len() as u32);
    w.put_bytes(path.as_bytes());
    w
}

/// How a [`SelfHealingClient`] retries: bounded attempts, exponential
/// backoff with deterministic jitter (the gossip loop's ladder, seeded
/// by the server address), and a per-operation socket deadline.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per operation (first attempt included). Clamped to at
    /// least 1.
    pub max_attempts: u32,
    /// First backoff step; doubles per attempt (capped) plus jitter.
    pub base_backoff: Duration,
    /// Socket read/write/connect deadline for every attempt.
    pub op_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            op_timeout: DEFAULT_OP_TIMEOUT,
        }
    }
}

/// A [`ServeClient`] that survives its server: connection failures and
/// mid-operation disconnects reconnect and retry under a
/// [`RetryPolicy`], and the pipelined ingest path
/// ([`SelfHealingClient::update_many`]) is **exactly-once** — after a
/// broken connection it probes the model's clock and resumes at the
/// first example the server did not count, so a restarting node neither
/// loses nor double-counts examples (assuming this client is the
/// model's only writer while the call runs).
///
/// Remote errors (typed `ERR` responses) are *not* retried by the query
/// path: the server answered, so retrying would re-ask a question with
/// a known answer.
pub struct SelfHealingClient {
    addr: String,
    policy: RetryPolicy,
    model: u32,
    conn: Option<ServeClient>,
    connected_once: bool,
    retries: u64,
    reconnects: u64,
}

impl SelfHealingClient {
    /// Connects eagerly (so a bad address fails fast), addressing the
    /// default model.
    ///
    /// # Errors
    /// Propagates the last connect error once the policy's attempts are
    /// exhausted.
    pub fn connect(addr: impl Into<String>, policy: RetryPolicy) -> Result<Self, ServeError> {
        let mut c = Self {
            addr: addr.into(),
            policy,
            model: DEFAULT_MODEL_ID,
            conn: None,
            connected_once: false,
            retries: 0,
            reconnects: 0,
        };
        c.retry(|_| Ok(()))?;
        Ok(c)
    }

    /// Addresses subsequent requests to `model`.
    pub fn set_model(&mut self, model: u32) {
        self.model = model;
        self.conn = None;
    }

    /// Transient-failure retries performed so far (all operations).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnects performed after the initial successful connect.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The connection, (re)established if needed.
    fn ensure_conn(&mut self) -> Result<&mut ServeClient, ServeError> {
        if self.conn.is_none() {
            let mut c = ServeClient::connect_timeout(self.addr.as_str(), self.policy.op_timeout)?;
            c.set_model(self.model)?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// Jittered exponential backoff before retry number `attempt`,
    /// deterministic per (address, attempt) — the gossip loop's ladder,
    /// so a fleet of clients hammering one restarting server never
    /// phase-locks.
    fn backoff(&self, attempt: u64) -> Duration {
        crate::gossip::backoff_delay(
            addr_salt(&self.addr),
            0,
            attempt - 1,
            self.policy.base_backoff,
        )
    }

    /// Runs one operation with reconnect-and-retry on transient errors.
    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let max = u64::from(self.policy.max_attempts.max(1));
        let mut attempt = 0u64;
        loop {
            let result = self.ensure_conn().and_then(&mut op);
            match result {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => {
                    // The connection is in an unknown state; never reuse.
                    self.conn = None;
                    attempt += 1;
                    if attempt >= max {
                        return Err(e);
                    }
                    self.retries += 1;
                    std::thread::sleep(self.backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pipelined ingest with **exactly-once** delivery across server
    /// crashes and dropped connections: returns the model's cumulative
    /// ingested-example count after the stream.
    ///
    /// Resume protocol, per broken attempt: [`ServeError::RemoteFrame`]
    /// carries the exact failing frame index, so delivery restarts at
    /// `frame * frame_examples` past the current offset; a torn
    /// connection (no frame index — responses were lost) instead probes
    /// the server's model clock via `STATS` and resumes at
    /// `clock - base`, where `base` is the clock captured before the
    /// first example went out. The *clock* (not the locally-routed
    /// counter) is the watermark because it survives a server restart:
    /// a node recovered from a checkpoint reports the restored clock,
    /// so the resume lands exactly past what the checkpoint held. Both
    /// resume points count *server-applied* examples, so no example is
    /// ever replayed into the model — the property the chaos suite
    /// asserts as `final clock == examples sent`. Returns
    /// `base + examples.len()`, the model clock the stream left behind.
    ///
    /// Single-writer assumption: the probe attributes every clock
    /// advance past `base` to this call, so concurrent writers (peer
    /// merges included) would be double-counted as ours.
    ///
    /// # Errors
    /// The last error once attempts are exhausted; non-transient remote
    /// errors (e.g. a frame the server deterministically rejects)
    /// surface after `max_attempts` tries.
    pub fn update_many(
        &mut self,
        examples: &[(SparseVector, Label)],
        frame_examples: usize,
        window: usize,
    ) -> Result<u64, ServeError> {
        let frame_examples = frame_examples.max(1);
        let max = u64::from(self.policy.max_attempts.max(1));
        let base = self.retry(|c| c.stats())?.root_examples;
        let mut offset = 0usize;
        let mut attempt = 0u64;
        loop {
            let result = self
                .ensure_conn()
                .and_then(|c| c.update_many(&examples[offset..], frame_examples, window));
            match result {
                Ok(_) => {
                    // Every example past `offset` was acknowledged, so the
                    // stream is fully applied: the clock advanced by
                    // exactly `examples.len()` since `base`.
                    return Ok(base + examples.len() as u64);
                }
                Err(e) => {
                    // After any update_many error the connection has
                    // unread in-flight responses and must be discarded.
                    self.conn = None;
                    attempt += 1;
                    if attempt >= max {
                        return Err(e);
                    }
                    self.retries += 1;
                    std::thread::sleep(self.backoff(attempt));
                    match e {
                        ServeError::RemoteFrame { frame, .. } => {
                            // Frames before `frame` were applied.
                            offset = (offset + frame * frame_examples).min(examples.len());
                        }
                        _ => {
                            // Responses were lost with the connection:
                            // ask the server what landed. Frames from the
                            // dead connection may still be executing
                            // server-side (the event backend queues them),
                            // so trust the clock only once it stops
                            // moving — under the single-writer assumption
                            // a stable clock means our in-flight frames
                            // have quiesced.
                            let mut clock = self.retry(|c| c.stats())?.root_examples;
                            loop {
                                std::thread::sleep(
                                    self.policy.base_backoff.max(Duration::from_millis(1)),
                                );
                                let again = self.retry(|c| c.stats())?.root_examples;
                                if again == clock {
                                    break;
                                }
                                clock = again;
                            }
                            offset = (clock.saturating_sub(base) as usize).min(examples.len());
                        }
                    }
                }
            }
        }
    }

    /// [`ServeClient::update_batch`], retried exactly-once-style (one
    /// frame, window 1).
    ///
    /// # Errors
    /// As [`SelfHealingClient::update_many`].
    pub fn update_batch(&mut self, batch: &[(SparseVector, Label)]) -> Result<u64, ServeError> {
        self.update_many(batch, batch.len().max(1), 1)
    }

    /// [`ServeClient::predict`], retried.
    ///
    /// # Errors
    /// As every retried operation (see `SelfHealingClient::retry`): the last
    /// transient error once attempts are exhausted, remote errors
    /// immediately.
    pub fn predict(&mut self, x: &SparseVector) -> Result<(f64, Label), ServeError> {
        self.retry(|c| c.predict(x))
    }

    /// [`ServeClient::estimate`], retried.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn estimate(&mut self, feature: u32) -> Result<f64, ServeError> {
        self.retry(|c| c.estimate(feature))
    }

    /// [`ServeClient::top_k`], retried.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn top_k(&mut self, k: u32) -> Result<Vec<WeightEntry>, ServeError> {
        self.retry(|c| c.top_k(k))
    }

    /// [`ServeClient::snapshot`], retried.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ServeError> {
        self.retry(|c| c.snapshot())
    }

    /// [`ServeClient::stats`], retried.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        self.retry(|c| c.stats())
    }

    /// [`ServeClient::checkpoint`], retried. Safe to retry: the server's
    /// checkpoint write is atomic (write-temp, fsync, rename), so a
    /// repeated request replaces the file wholesale, never tears it.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn checkpoint(&mut self, path: &str) -> Result<u64, ServeError> {
        self.retry(|c| c.checkpoint(path))
    }

    /// [`ServeClient::metrics_text`], retried.
    ///
    /// # Errors
    /// See [`SelfHealingClient::predict`].
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        self.retry(|c| c.metrics_text())
    }
}

/// Errors worth reconnecting for: socket-level failures and torn
/// connections. A typed remote error means the server is healthy and
/// said no.
fn is_transient(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(_))
        || matches!(e, ServeError::Protocol(m) if m.starts_with("connection closed"))
}

/// FNV-1a of the server address — the node-id stand-in that seeds the
/// client's backoff jitter.
fn addr_salt(addr: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
