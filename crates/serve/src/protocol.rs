//! Frame layer and payload codecs of the wire protocol.
//!
//! See the crate docs for the byte-by-byte reference. Everything here is
//! symmetric: the client encodes what the server decodes and vice versa,
//! using the same [`Writer`]/[`Reader`] primitives as the snapshot codec.

use std::io::{Read, Write as IoWrite};

use wmsketch_learn::{Label, LabelDomain, SparseVector};

use wmsketch_hashing::codec::{CodecError, Reader, Writer};

use crate::error::ServeError;
use crate::server::{ReplRow, ServeBackend, ServeStats};

/// Hard upper bound on a frame body, protecting both sides from corrupted
/// or hostile length prefixes. 64 MiB comfortably holds the largest
/// realistic snapshot — a 2^22-cell sketch (32 MiB of cells) plus top-K
/// state; a 2^23-cell sketch's CELLS payload alone already fills the cap.
/// Configurations that need bigger snapshots over SNAPSHOT/MERGE must
/// raise this on every node in lockstep (CHECKPOINT/RESTORE go through
/// the filesystem and are not subject to it).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Request opcode: batch ingest of labelled examples.
pub const OP_UPDATE: u8 = 0x01;
/// Request opcode: predict the label of one unlabelled example.
pub const OP_PREDICT: u8 = 0x02;
/// Request opcode: recover the top-K weighted features.
pub const OP_TOPK: u8 = 0x03;
/// Request opcode: return a `WMS1` snapshot of the model.
pub const OP_SNAPSHOT: u8 = 0x04;
/// Request opcode: fold a peer snapshot into this node (exact by sketch
/// linearity).
pub const OP_MERGE: u8 = 0x05;
/// Request opcode: write a CRC-sealed snapshot atomically to a
/// server-side file. On a node with a configured data directory the
/// path is confined beneath it (absolute paths and `..` traversal are
/// rejected with ERR); without one the path is used verbatim.
pub const OP_CHECKPOINT: u8 = 0x06;
/// Request opcode: replace the model with a server-side checkpoint
/// file (restore semantics: the checkpointed clock counts as the
/// model's own seen examples, not absorbed peer state). Path
/// confinement as [`OP_CHECKPOINT`].
pub const OP_RESTORE: u8 = 0x07;
/// Request opcode: point estimate of one feature's weight.
pub const OP_ESTIMATE: u8 = 0x08;
/// Request opcode: the addressed model's counters, the registry, and
/// node-wide state (layout at [`put_stats`]).
pub const OP_STATS: u8 = 0x09;
/// Request opcode: discard all model state and start fresh.
pub const OP_RESET: u8 = 0x0A;
/// Request opcode: stop accepting connections and drain the server.
pub const OP_SHUTDOWN: u8 = 0x0B;
/// Request opcode: register a new model from an untrained template
/// snapshot (registry-level; ignores the addressed model id).
pub const OP_CREATE: u8 = 0x0C;
/// Request opcode: list the model registry (registry-level).
pub const OP_LIST: u8 = 0x0D;
/// Request opcode: register a replication peer (`node id (u64) |
/// addr_len (u32) | addr UTF-8`) with this node; the OK payload is the
/// receiving node's own id (registry-level). Re-joining with a new
/// address replaces the old one — how a restarted node re-announces
/// itself.
pub const OP_PEER_JOIN: u8 = 0x0E;
/// Request opcode: pull replication state of one *origin* node's copy of
/// the addressed model: `origin node id (u64) | since (u64)`. `since` is
/// the requester's applied watermark ([`PULL_SINCE_FULL`] requests a full
/// snapshot); the OK payload is `to_clock (u64) | record bytes` where the
/// record is a full `WMS1` snapshot or a delta record (distinguished by
/// its flags byte), and empty when the server has nothing newer than
/// `since`.
pub const OP_PULL_DELTA: u8 = 0x0F;
/// Request opcode: record a peer's applied watermark for the addressed
/// model in the node's shipped-clock vector: `peer node id (u64) |
/// acked clock (u64)`. Equal re-delivery is idempotent; a regressing ack
/// is rejected with a typed error (the vector is monotonic). The OK
/// payload is the current acked clock (u64).
pub const OP_ACK: u8 = 0x10;
/// Request opcode (registry-level, model id ignored): scrape the node's
/// telemetry. The request payload is empty; the OK payload is the UTF-8
/// `wmsketch-metrics/v1` text exposition (see the crate rustdoc's metric
/// registry table and `wmsketch_telemetry::expo` for the line grammar).
pub const OP_METRICS: u8 = 0x11;

/// [`OP_PULL_DELTA`] `since` sentinel: the requester has no state for
/// this origin and needs a full snapshot, not a delta.
pub const PULL_SINCE_FULL: u64 = u64::MAX;

/// Response status: success; the payload is op-specific.
pub const STATUS_OK: u8 = 0x00;
/// Response status: failure; the payload is a UTF-8 message.
pub const STATUS_ERR: u8 = 0x01;

/// Leading marker byte of every request body, which carries a model-id
/// header: `0xF3 | model id (u32) | opcode (u8) | payload`.
///
/// Chosen outside the opcode range (opcodes grow upward from `0x01`), so
/// a headerless body — one starting with an opcode byte — is rejected
/// with a typed error rather than misread. The previous revision,
/// `0xF2`, framed requests whose STATS and LIST rows carried two more
/// fields; its requests are rejected the same way, so a peer on that
/// layout gets an ERR instead of misaligned rows. Future header
/// revisions get `0xF4`, ….
pub const FRAME_V3: u8 = 0xF3;

/// The id of the default model every node builds at bind.
pub const DEFAULT_MODEL_ID: u32 = 0;

/// A parsed request header: which model the request addresses and the
/// opcode. Registry-level ops ([`OP_CREATE`], [`OP_LIST`],
/// [`OP_SHUTDOWN`]) ignore the model id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead {
    /// Addressed model (0 = the default model).
    pub model: u32,
    /// Request opcode.
    pub op: u8,
}

/// Parses a request header: the [`FRAME_V3`] marker, the model id, and
/// the opcode.
///
/// # Errors
/// [`CodecError::Truncated`] on an empty body or a cut-off header;
/// [`CodecError::Invalid`] when the first byte is not [`FRAME_V3`].
pub fn take_request_head(r: &mut Reader<'_>) -> Result<RequestHead, CodecError> {
    if r.take_u8()? != FRAME_V3 {
        return Err(CodecError::Invalid(
            "request lacks the FRAME_V3 header marker",
        ));
    }
    let model = r.take_u32()?;
    let op = r.take_u8()?;
    Ok(RequestHead { model, op })
}

/// One registry row, as reported by [`OP_LIST`] and [`OP_STATS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry id (frames address models by this).
    pub id: u32,
    /// Registry name (unique per server).
    pub name: String,
    /// The model's `WMS1` kind byte (`0x03` WM, `0x04` AWM, `0x05`
    /// multiclass AWM).
    pub kind: u8,
    /// The model's update clock (absorbed peers included).
    pub clock: u64,
    /// Memory cost in bytes under the paper's §7.1 model.
    pub memory_bytes: u64,
}

/// Bytes of the smallest [`put_model_info`] row (an empty name). Row
/// decodes clamp their reservations to what the remaining bytes can hold
/// at this size, so a hostile row count cannot demand an absurd
/// allocation.
pub const MODEL_INFO_MIN_LEN: usize = 25;

/// Encodes one registry row:
/// `id (u32) | name_len (u32) | name | kind (u8) | clock (u64)
/// | memory_bytes (u64)`.
pub fn put_model_info(w: &mut Writer, info: &ModelInfo) {
    w.put_u32(info.id);
    w.put_u32(info.name.len() as u32);
    w.put_bytes(info.name.as_bytes());
    w.put_u8(info.kind);
    w.put_u64(info.clock);
    w.put_u64(info.memory_bytes);
}

/// Decodes a row written by [`put_model_info`].
///
/// # Errors
/// [`CodecError`] on truncation or a non-UTF-8 name.
pub fn take_model_info(r: &mut Reader<'_>) -> Result<ModelInfo, CodecError> {
    let id = r.take_u32()?;
    let name_len = r.take_u32()? as usize;
    let name = std::str::from_utf8(r.take_bytes(name_len)?)
        .map_err(|_| CodecError::Invalid("model name is not UTF-8"))?
        .to_string();
    Ok(ModelInfo {
        id,
        name,
        kind: r.take_u8()?,
        clock: r.take_u64()?,
        memory_bytes: r.take_u64()?,
    })
}

/// Bytes of one [`ReplRow`] on the wire.
const REPL_ROW_LEN: usize = 28;

/// Encodes a STATS reply:
///
/// ```text
/// routed (u64) | clock (u64) | count (u32) | count x model
/// | backend (u8: 1 event; 0 retired)
/// | update lock acquisitions (u64) | update frames (u64)
/// | node id (u64) | row count (u32)
/// | row count x (model (u32) | peer (u64) | acked (u64) | applied (u64))
/// | memory budget (u64) | resident models (u32) | spilled models (u32)
/// | resident bytes (u64) | evictions (u64) | revivals (u64)
/// ```
///
/// The layout is frozen; new node-wide figures go into [`OP_METRICS`].
pub fn put_stats(w: &mut Writer, stats: &ServeStats) {
    w.put_u64(stats.routed);
    w.put_u64(stats.root_examples);
    w.put_u32(stats.models.len() as u32);
    for row in &stats.models {
        put_model_info(w, row);
    }
    w.put_u8(match stats.backend {
        ServeBackend::Event => 1,
    });
    w.put_u64(stats.update_lock_acquisitions);
    w.put_u64(stats.update_frames);
    w.put_u64(stats.node_id);
    w.put_u32(stats.replication.len() as u32);
    for row in &stats.replication {
        w.put_u32(row.model);
        w.put_u64(row.peer);
        w.put_u64(row.acked);
        w.put_u64(row.applied);
    }
    w.put_u64(stats.memory_budget);
    w.put_u32(stats.resident_models);
    w.put_u32(stats.spilled_models);
    w.put_u64(stats.resident_bytes);
    w.put_u64(stats.evictions_total);
    w.put_u64(stats.revivals_total);
}

/// Decodes a whole STATS reply payload written by [`put_stats`].
///
/// # Errors
/// [`CodecError`] when the payload ends early, carries trailing bytes,
/// names an unknown backend, or holds a non-UTF-8 model name.
pub fn take_stats(payload: &[u8]) -> Result<ServeStats, CodecError> {
    let mut r = Reader::new(payload);
    let routed = r.take_u64()?;
    let root_examples = r.take_u64()?;
    let count = r.take_u32()? as usize;
    let mut models = Vec::with_capacity(count.min(r.remaining() / MODEL_INFO_MIN_LEN));
    for _ in 0..count {
        models.push(take_model_info(&mut r)?);
    }
    let backend = match r.take_u8()? {
        1 => ServeBackend::Event,
        _ => return Err(CodecError::Invalid("unknown backend byte in STATS")),
    };
    let update_lock_acquisitions = r.take_u64()?;
    let update_frames = r.take_u64()?;
    let node_id = r.take_u64()?;
    let count = r.take_u32()? as usize;
    let mut replication = Vec::with_capacity(count.min(r.remaining() / REPL_ROW_LEN));
    for _ in 0..count {
        replication.push(ReplRow {
            model: r.take_u32()?,
            peer: r.take_u64()?,
            acked: r.take_u64()?,
            applied: r.take_u64()?,
        });
    }
    let stats = ServeStats {
        routed,
        root_examples,
        models,
        backend,
        update_lock_acquisitions,
        update_frames,
        node_id,
        replication,
        memory_budget: r.take_u64()?,
        resident_models: r.take_u32()?,
        spilled_models: r.take_u32()?,
        resident_bytes: r.take_u64()?,
        evictions_total: r.take_u64()?,
        revivals_total: r.take_u64()?,
    };
    r.finish()?;
    Ok(stats)
}

/// Writes one length-prefixed frame in a single `write_all`: under
/// `TCP_NODELAY` a separate prefix write would go out as its own segment
/// and wake the peer once more.
///
/// # Errors
/// Propagates socket errors; rejects bodies over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl IoWrite, body: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN);
    let Some(len) = len else {
        return Err(ServeError::Protocol("frame body exceeds MAX_FRAME_LEN"));
    };
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
/// Propagates socket errors; rejects length prefixes over
/// [`MAX_FRAME_LEN`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Incremental frame reassembly for nonblocking reads: the event
/// loop's counterpart of the blocking [`read_frame`].
///
/// Bytes arrive in whatever chunks the kernel delivers them
/// ([`FrameAssembler::push`]); [`FrameAssembler::next_frame`] yields each
/// completed `len | body` frame exactly as [`read_frame`] would have —
/// the equivalence is pinned by a property test against byte-at-a-time,
/// boundary-split, and coalesced delivery.
///
/// The buffer is retained per connection: steady-state reassembly of
/// same-shaped frames compacts in place instead of reallocating. Frames
/// are validated against [`MAX_FRAME_LEN`] as soon as their length
/// prefix is visible, so a hostile prefix is rejected before any body
/// bytes are buffered, let alone allocated.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Undecoded bytes: `buf[pos..]` is the live window, `buf[..pos]` is
    /// already-consumed prefix reclaimed by compaction.
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler; the buffer grows on first use and is retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes, compacting the consumed prefix away
    /// first so the buffer's footprint tracks the unconsumed backlog,
    /// not the connection's lifetime byte count.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame body, or `None` if more bytes
    /// are needed.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] once a length prefix exceeds
    /// [`MAX_FRAME_LEN`] — the stream is unrecoverable past that point
    /// and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_LEN {
            return Err(ServeError::Protocol("frame length exceeds MAX_FRAME_LEN"));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }

    /// Whether a frame is mid-assembly (a partial header or body is
    /// buffered). A connection closing with this true died mid-frame.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.pos
    }
}

/// Encodes one feature vector: `nnz (u32) | nnz × (index u32, value f64)`.
pub fn put_features(w: &mut Writer, x: &SparseVector) {
    w.put_u32(x.nnz() as u32);
    for (i, v) in x.iter() {
        w.put_u32(i);
        w.put_f64(v);
    }
}

/// Decodes a feature vector written by [`put_features`]. Input pairs are
/// re-canonicalized (sorted, duplicates summed), so hostile encodings
/// cannot violate `SparseVector`'s invariants. The *canonical* values
/// must be finite — checked after duplicate summing, since two finite
/// entries on one index can overflow to infinity: a NaN or infinite
/// value would poison sketch cells and later panic the estimator's
/// median/heap code while the server holds the learner lock, so it is
/// rejected here, at the trust boundary.
///
/// # Errors
/// [`CodecError`] on truncation or a non-finite canonical value.
pub fn take_features(r: &mut Reader<'_>) -> Result<SparseVector, CodecError> {
    let mut x = SparseVector::new();
    let mut pairs = Vec::new();
    take_features_into(r, &mut x, &mut pairs)?;
    Ok(x)
}

/// Scratch-reusing form of [`take_features`]: decodes into `out`,
/// staging the wire pairs in `pairs`. Both buffers keep their
/// allocations across calls, so steady-state decode of same-shaped
/// frames does no allocation. Validation is identical to
/// [`take_features`].
///
/// # Errors
/// [`CodecError`] on truncation or a non-finite canonical value.
pub fn take_features_into(
    r: &mut Reader<'_>,
    out: &mut SparseVector,
    pairs: &mut Vec<(u32, f64)>,
) -> Result<(), CodecError> {
    let nnz = r.take_u32()? as usize;
    // nnz is bounded by the frame the reader wraps (≤ MAX_FRAME_LEN), and
    // each entry needs 12 bytes, so the reservation below is safe.
    if r.remaining() < nnz.saturating_mul(12) {
        return Err(CodecError::Truncated {
            needed: nnz.saturating_mul(12),
            have: r.remaining(),
        });
    }
    pairs.clear();
    pairs.reserve(nnz);
    for _ in 0..nnz {
        let i = r.take_u32()?;
        let v = r.take_f64()?;
        pairs.push((i, v));
    }
    out.assign_from_pairs(pairs);
    if out.values().iter().any(|v| !v.is_finite()) {
        return Err(CodecError::Invalid("feature value must be finite"));
    }
    Ok(())
}

/// Encodes a labelled example batch:
/// `count (u32) | count × (label i8 | features)`.
pub fn put_examples(w: &mut Writer, batch: &[(SparseVector, Label)]) {
    w.put_u32(batch.len() as u32);
    for (x, y) in batch {
        w.put_i8(*y);
        put_features(w, x);
    }
}

/// Reusable decode buffers for UPDATE frames.
///
/// The server keeps one of these per connection: each decoded example
/// reuses a previously-allocated `SparseVector` (and a shared pair
/// staging buffer), so a long-lived ingest connection stops paying
/// allocator traffic per batch once its buffers have grown to the
/// steady-state frame shape.
#[derive(Debug, Default)]
pub struct ExamplesScratch {
    /// Grown-but-reusable example slots; only the first `len` are live.
    examples: Vec<(SparseVector, Label)>,
    /// Live example count of the most recent decode.
    len: usize,
    /// Staging buffer for one vector's wire pairs.
    pairs: Vec<(u32, f64)>,
}

impl ExamplesScratch {
    /// Empty scratch; buffers grow on first use and are then retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The examples decoded by the most recent
    /// [`take_examples_into`] call.
    #[must_use]
    pub fn examples(&self) -> &[(SparseVector, Label)] {
        &self.examples[..self.len]
    }
}

/// Decodes a batch written by [`put_examples`] into `scratch`, reusing its
/// buffers, and validates every label against the addressed model's
/// `domain` — `±1` for binary models, a class index in `0..classes` for
/// multiclass ones. On success the batch is available as
/// [`ExamplesScratch::examples`], each vector canonicalized as
/// [`SparseVector::from_pairs`] does.
///
/// # Errors
/// [`CodecError`] on truncation or an out-of-domain label (the scratch
/// contents are unspecified after an error).
pub fn take_examples_into(
    r: &mut Reader<'_>,
    scratch: &mut ExamplesScratch,
    domain: LabelDomain,
) -> Result<(), CodecError> {
    let count = r.take_u32()? as usize;
    scratch.len = 0;
    // Clamp the reservation to what the payload can actually hold — an
    // example is at least 5 bytes on the wire (label i8 + nnz u32), so a
    // hostile count in a large frame cannot demand a reservation orders
    // of magnitude past the frame size.
    scratch.examples.reserve(
        count
            .min(r.remaining() / 5)
            .saturating_sub(scratch.examples.len()),
    );
    for slot in 0..count {
        let y = r.take_i8()?;
        if !domain.contains(y) {
            return Err(match domain {
                LabelDomain::Binary => CodecError::Invalid("label must be +1 or -1"),
                LabelDomain::Classes(_) => {
                    CodecError::Invalid("label must be a class index in 0..classes")
                }
            });
        }
        if slot == scratch.examples.len() {
            scratch.examples.push((SparseVector::new(), y));
        }
        let (x, label) = &mut scratch.examples[slot];
        *label = y;
        take_features_into(r, x, &mut scratch.pairs)?;
        scratch.len = slot + 1;
    }
    Ok(())
}

/// Builds a request body addressing `model`:
/// [`FRAME_V3`] marker, model id, opcode, payload.
#[must_use]
pub fn request_for_model(model: u32, op: u8, payload: Writer) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(FRAME_V3);
    w.put_u32(model);
    w.put_u8(op);
    w.put_bytes(&payload.into_bytes());
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_over_a_pipe_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// A `Write` that takes every byte offered and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl IoWrite for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1);
        write_frame(&mut w, b"").unwrap();
        write_frame(&mut w, &[7u8; 300]).unwrap();
        assert_eq!(w.writes, 3);
        let mut wire = Vec::new();
        for body in [&b"hello"[..], b"", &[7u8; 300]] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        assert_eq!(w.bytes, wire, "prefix then body, unchanged on the wire");
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Protocol(_))
        ));
    }

    /// Smoke test of the incremental assembler; the delivery-pattern
    /// equivalence with [`read_frame`] is property-tested in
    /// `tests/frame_reassembly.rs`.
    #[test]
    fn assembler_reassembles_split_and_coalesced_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();

        let mut asm = FrameAssembler::new();
        assert!(asm.next_frame().unwrap().is_none());
        // First two frames plus a torn third header in one push.
        asm.push(&wire[..9 + 4 + 2]);
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"");
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.mid_frame());
        // Remainder byte-at-a-time; the frame completes on the last byte.
        for &b in &wire[9 + 4 + 2..] {
            asm.push(&[b]);
        }
        assert_eq!(asm.next_frame().unwrap().unwrap(), vec![7u8; 300]);
        assert!(!asm.mid_frame());

        // An oversized length prefix is rejected from the prefix alone.
        let mut asm = FrameAssembler::new();
        asm.push(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn examples_round_trip() {
        let batch = vec![
            (SparseVector::from_pairs(&[(3, 1.0), (9, -0.5)]), 1),
            (SparseVector::new(), -1),
        ];
        let mut w = Writer::new();
        put_examples(&mut w, &batch);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut scratch = ExamplesScratch::new();
        take_examples_into(&mut r, &mut scratch, LabelDomain::Binary).unwrap();
        r.finish().unwrap();
        assert_eq!(scratch.examples(), &batch[..]);
    }

    /// Decodes one UPDATE batch the way the server does, binary labels.
    fn take_binary(bytes: &[u8]) -> Result<(), CodecError> {
        take_examples_into(
            &mut Reader::new(bytes),
            &mut ExamplesScratch::new(),
            LabelDomain::Binary,
        )
    }

    /// The scratch decoder returns the encoded batch across reuse,
    /// including shrinking frames (stale slots from a larger previous
    /// frame must not leak into the live window), and canonicalizes
    /// non-canonical encodings (unsorted / duplicated indices).
    #[test]
    fn scratch_decode_matches_allocating_decode_across_reuse() {
        let frames: Vec<Vec<(SparseVector, Label)>> = vec![
            vec![
                (SparseVector::from_pairs(&[(3, 1.0), (9, -0.5)]), 1),
                (SparseVector::from_pairs(&[(1, 2.0)]), -1),
                (SparseVector::new(), 1),
            ],
            vec![(SparseVector::from_pairs(&[(7, 4.0)]), -1)],
            vec![],
            vec![
                (SparseVector::from_pairs(&[(0, 1.0)]), 1),
                (
                    SparseVector::from_pairs(&[(2, 1.0), (4, 1.0), (6, 1.0)]),
                    -1,
                ),
            ],
        ];
        let mut scratch = ExamplesScratch::new();
        for batch in &frames {
            let mut w = Writer::new();
            put_examples(&mut w, batch);
            let bytes = w.into_bytes();
            take_examples_into(&mut Reader::new(&bytes), &mut scratch, LabelDomain::Binary)
                .unwrap();
            assert_eq!(scratch.examples(), &batch[..]);
        }
        // A non-canonical wire encoding (unsorted + duplicate index) is
        // canonicalized.
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_i8(1);
        w.put_u32(3);
        for (i, v) in [(9u32, 1.0f64), (2, 2.0), (9, 0.5)] {
            w.put_u32(i);
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        take_examples_into(&mut Reader::new(&bytes), &mut scratch, LabelDomain::Binary).unwrap();
        let canonical = SparseVector::from_pairs(&[(9, 1.0), (2, 2.0), (9, 0.5)]);
        assert_eq!(scratch.examples(), &[(canonical, 1)][..]);
        assert_eq!(scratch.examples()[0].0.indices(), &[2, 9]);
        assert_eq!(scratch.examples()[0].0.values(), &[2.0, 1.5]);
    }

    /// Non-finite feature values are rejected at the decode boundary: a
    /// NaN value would otherwise poison sketch cells and panic the
    /// estimator's median/heap code while the server holds the learner
    /// lock, wedging every later request on the poisoned mutex.
    #[test]
    fn non_finite_feature_value_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = Writer::new();
            w.put_u32(2);
            w.put_u32(3);
            w.put_f64(1.0);
            w.put_u32(7);
            w.put_f64(bad);
            assert!(matches!(
                take_features(&mut Reader::new(&w.into_bytes())),
                Err(CodecError::Invalid(_))
            ));
            // And through the batch decoder the UPDATE op uses.
            let mut w = Writer::new();
            w.put_u32(1);
            w.put_i8(1);
            w.put_u32(1);
            w.put_u32(0);
            w.put_f64(bad);
            assert!(matches!(
                take_binary(&w.into_bytes()),
                Err(CodecError::Invalid(_))
            ));
        }
        // Duplicate indices are summed during canonicalization, so two
        // individually-finite entries can overflow; the finite check runs
        // on the canonical values and must catch that too.
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_u32(7);
        w.put_f64(1e308);
        w.put_u32(7);
        w.put_f64(1e308);
        assert!(matches!(
            take_features(&mut Reader::new(&w.into_bytes())),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn bad_label_rejected() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_i8(0);
        w.put_u32(0);
        assert!(matches!(
            take_binary(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn class_domain_labels_validate_against_the_class_count() {
        let encode = |y: i8| {
            let mut w = Writer::new();
            w.put_u32(1);
            w.put_i8(y);
            w.put_u32(0);
            w.into_bytes()
        };
        let mut scratch = ExamplesScratch::new();
        let domain = LabelDomain::Classes(3);
        for ok in 0..3i8 {
            take_examples_into(&mut Reader::new(&encode(ok)), &mut scratch, domain).unwrap();
            assert_eq!(scratch.examples()[0].1, ok);
        }
        for bad in [-1i8, 3, 100] {
            assert!(matches!(
                take_examples_into(&mut Reader::new(&encode(bad)), &mut scratch, domain),
                Err(CodecError::Invalid(_))
            ));
        }
        // And +1/-1 only under the binary domain.
        assert!(take_examples_into(
            &mut Reader::new(&encode(2)),
            &mut scratch,
            LabelDomain::Binary
        )
        .is_err());
    }

    #[test]
    fn request_head_requires_the_v3_marker() {
        // A headerless body (first byte an opcode) and a body framed by
        // the previous header revision are typed errors.
        for first in [OP_STATS, 0xF2] {
            assert!(matches!(
                take_request_head(&mut Reader::new(&[first, 0, 0, 0, 0, OP_STATS])),
                Err(CodecError::Invalid(_))
            ));
        }
        // Marker, model id, opcode.
        let mut payload = Writer::new();
        payload.put_u32(9);
        let body = request_for_model(7, OP_ESTIMATE, payload);
        let mut r = Reader::new(&body);
        let head = take_request_head(&mut r).unwrap();
        assert_eq!(
            head,
            RequestHead {
                model: 7,
                op: OP_ESTIMATE
            }
        );
        assert_eq!(r.take_u32().unwrap(), 9);
        r.finish().unwrap();
        // A truncated header is a typed error.
        assert!(take_request_head(&mut Reader::new(&[FRAME_V3, 1, 2])).is_err());
        assert!(take_request_head(&mut Reader::new(&[])).is_err());
    }

    #[test]
    fn model_info_round_trip() {
        let info = ModelInfo {
            id: 3,
            name: "mc-traffic".to_string(),
            kind: 0x05,
            clock: 123_456,
            memory_bytes: 98_304,
        };
        let mut w = Writer::new();
        put_model_info(&mut w, &info);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), MODEL_INFO_MIN_LEN + info.name.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(take_model_info(&mut r).unwrap(), info);
        r.finish().unwrap();
        // Truncated rows are typed errors.
        for n in 0..bytes.len() {
            assert!(take_model_info(&mut Reader::new(&bytes[..n])).is_err());
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServeStats {
            routed: 41,
            root_examples: 42,
            models: vec![
                ModelInfo {
                    id: 0,
                    name: "default".to_string(),
                    kind: 0x03,
                    clock: 42,
                    memory_bytes: 8_192,
                },
                ModelInfo {
                    id: 3,
                    name: "mc-traffic".to_string(),
                    kind: 0x05,
                    clock: 7,
                    memory_bytes: 98_304,
                },
            ],
            backend: ServeBackend::Event,
            update_lock_acquisitions: 9,
            update_frames: 9,
            node_id: 0xABCD,
            replication: vec![
                ReplRow {
                    model: 0,
                    peer: 2,
                    acked: 40,
                    applied: 0,
                },
                ReplRow {
                    model: 3,
                    peer: 5,
                    acked: 0,
                    applied: 6,
                },
            ],
            memory_budget: 1 << 20,
            resident_models: 1,
            spilled_models: 1,
            resident_bytes: 12_345,
            evictions_total: 4,
            revivals_total: 3,
        };
        let mut w = Writer::new();
        put_stats(&mut w, &stats);
        let bytes = w.into_bytes();
        assert_eq!(take_stats(&bytes).unwrap(), stats);
        // Every strict prefix is a typed error, never a shorter reply.
        for n in 0..bytes.len() {
            assert!(
                take_stats(&bytes[..n]).is_err(),
                "a {n}-byte prefix decoded"
            );
        }
        // So is one trailing byte.
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            take_stats(&long),
            Err(CodecError::TrailingBytes(1))
        ));
    }
}
