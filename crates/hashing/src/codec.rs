//! Byte-level foundation of the `WMS1` snapshot codec.
//!
//! Sketch snapshots must survive process boundaries — checkpointed to
//! disk, shipped between ingest nodes, and summed on an aggregator (exact
//! by Count-Sketch linearity) — so the format is a hand-rolled,
//! self-describing, versioned little-endian binary layout with no external
//! serialization dependencies:
//!
//! ```text
//! snapshot := magic  (4 bytes, b"WMS1" — the trailing digit is the
//!                     format version)
//!            | kind   (u8, which structure the payload encodes)
//!            | flags  (u8: bit 0 = delta record, bit 1 = CRC-sealed)
//!            | body   (a sequence of tagged sections)
//!            | footer (8 bytes, only when flags bit 1 is set: the
//!                      little-endian CRC-64/XZ of everything above)
//! section  := tag (u8) | len (u32 LE, bytes of payload) | payload
//! ```
//!
//! Records this build encodes are always **sealed**: [`seal_record`] sets
//! [`FLAG_CRC`] and appends the [`crc64`] footer, and every decode path
//! runs [`verify_integrity`] first — a torn checkpoint write or a flipped
//! bit surfaces as [`CodecError::ChecksumMismatch`] instead of a
//! silently-wrong model. Legacy footer-less records (flag unset) still
//! decode for compatibility.
//!
//! Every seal and every verify reads the whole record once, so [`crc64`]
//! is sliced by 8: eight compile-time tables of 256 `u64`s (16 KiB of
//! read-only data) fold one 8-byte word per step with eight independent
//! lookups, and the `len % 8` tail runs the byte-at-a-time loop over the
//! first table. It computes the same CRC-64/XZ as the bytewise loop, so
//! every footer stays bit for bit.
//!
//! All integers are little-endian; `f64` values are stored as the raw
//! little-endian bytes of [`f64::to_bits`], so round-trips are
//! bit-identical (including negative zero; structure decoders additionally
//! require cell and weight values to be finite, since legitimate sketch
//! state always is and a crafted NaN would panic estimator code far from
//! the trust boundary). Each
//! structure's body layout is documented on its `SnapshotCodec`
//! implementation; the byte-by-byte reference for the whole family lives
//! in the `wmsketch-serve` crate docs.
//!
//! This module lives in `wmsketch-hashing` because every crate in the
//! workspace already depends on it and because the one piece of state
//! every snapshot must carry for merge compatibility — the hash-family
//! kind and seed that pin the random projection — is owned by this crate.
//! The concrete `SnapshotCodec` implementations live next to the private
//! fields they serialize: `CountSketch`/`CountMinSketch` in
//! `wmsketch-sketch`, `WmSketch`/`AwmSketch` in `wmsketch-core`, and the
//! sub-record codecs (`ScaleState`, `LearningRate`, `LossKind`,
//! `TopKWeights`) in `wmsketch-learn` / `wmsketch-hh`.

use crate::row_hasher::HashFamilyKind;

/// Magic prefix of every snapshot; the trailing ASCII digit is the format
/// version.
pub const MAGIC: [u8; 4] = *b"WMS1";

/// Envelope flags bit marking a **delta record**: a sparse overwrite of
/// the cells/heap/state that changed since a watermark clock, applied to
/// a base snapshot of the same kind via `apply_delta`. Full snapshots
/// keep flags 0, so every pre-delta decoder rejects a delta record with
/// a typed error instead of misparsing it as full state.
pub const FLAG_DELTA: u8 = 0x01;

/// Envelope flags bit marking a record **sealed with the CRC-64 integrity
/// footer**: the last [`FOOTER_LEN`] bytes of the record are the
/// little-endian [`crc64`] of everything before them (envelope + body).
/// Because presence is declared in the envelope rather than sniffed from
/// trailing bytes, truncating the footer off a sealed record cannot
/// silently downgrade it to a legacy record — [`verify_integrity`]
/// rejects it. Legacy records (flag unset) decode unchanged.
pub const FLAG_CRC: u8 = 0x02;

/// Byte length of the CRC-64 integrity footer appended by
/// [`seal_record`].
pub const FOOTER_LEN: usize = 8;

/// Byte offset of the envelope flags byte inside a record
/// (`magic (4) | kind (1) | flags (1)`).
const FLAGS_OFFSET: usize = 5;

/// CRC-64/XZ generator polynomial (ECMA-182, reflected form).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Byte-at-a-time CRC-64 table, built at compile time — the codec stays
/// zero-dependency. Entry `i` is the CRC register after folding byte `i`
/// into a zero register. It is slice 0 of [`CRC64_SLICES`], the copy
/// [`crc64`] reads.
const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables, built at compile time from [`CRC64_TABLE`]:
/// slice `k` entry `i` is the register after folding byte `i` followed by
/// `k` zero bytes, so `CRC64_SLICES[0]` is [`CRC64_TABLE`] itself. The
/// register is as wide as eight input bytes, so [`crc64`] XORs a
/// little-endian word of input into it and folds all eight bytes at once,
/// one lookup per byte in its own slice. Eight slices of 256 `u64`s are
/// 16 KiB of read-only data, shared by every caller.
static CRC64_SLICES: [[u64; 256]; 8] = {
    let mut slices = [CRC64_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = CRC64_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-64/XZ checksum of `bytes` (reflected ECMA-182 polynomial, init and
/// xorout `!0`). Hand-rolled so snapshot integrity needs no external
/// dependency; any single-byte corruption and any burst error shorter
/// than 64 bits is guaranteed caught.
///
/// Slicing-by-8: each 8-byte little-endian word is XORed into the
/// register and folded with eight independent lookups into
/// `CRC64_SLICES` (byte `j` of the word, counted from the low end, goes
/// through slice `7 - j`), and the `len % 8` tail falls back to the
/// byte-at-a-time loop over slice 0. The result is the same checksum the
/// bytewise loop computes, bit for bit.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let [s0, s1, s2, s3, s4, s5, s6, s7] = &CRC64_SLICES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let v = crc ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let b = v.to_le_bytes();
        crc = s7[b[0] as usize]
            ^ s6[b[1] as usize]
            ^ s5[b[2] as usize]
            ^ s4[b[3] as usize]
            ^ s3[b[4] as usize]
            ^ s2[b[5] as usize]
            ^ s1[b[6] as usize]
            ^ s0[b[7] as usize];
    }
    for &b in words.remainder() {
        crc = s0[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Seals a complete `WMS1` record (envelope + body) with the integrity
/// footer: sets [`FLAG_CRC`] in the envelope flags, then appends the
/// [`crc64`] of everything before the footer as 8 little-endian bytes.
///
/// # Panics
/// Panics if `bytes` is shorter than the 6-byte envelope — sealing is for
/// records this codec just produced, not untrusted input.
pub fn seal_record(bytes: &mut Vec<u8>) {
    assert!(
        bytes.len() > FLAGS_OFFSET,
        "cannot seal a non-record buffer"
    );
    bytes[FLAGS_OFFSET] |= FLAG_CRC;
    let crc = crc64(bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
}

/// Recomputes the footer of an already-sealed record in place. For
/// inspection tools and tests that deliberately patch record bytes and
/// need the decoder's *structural* validation — not the CRC — to be the
/// check that fires.
///
/// # Panics
/// Panics if `bytes` is shorter than envelope + footer or [`FLAG_CRC`] is
/// not set — resealing only applies to records [`seal_record`] produced.
pub fn reseal_record(bytes: &mut [u8]) {
    assert!(
        bytes.len() > FLAGS_OFFSET + FOOTER_LEN && bytes[FLAGS_OFFSET] & FLAG_CRC != 0,
        "cannot reseal an unsealed record"
    );
    let body_len = bytes.len() - FOOTER_LEN;
    let crc = crc64(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies the integrity footer of a `WMS1` record and returns the
/// record with the footer stripped, ready for body decoding.
///
/// Legacy records (envelope [`FLAG_CRC`] unset) pass through unchanged —
/// every decode path stays compatible with pre-footer snapshots. Sealed
/// records are rejected unless the trailing CRC matches, so a torn write,
/// a flipped bit, or a truncated tail surfaces as a typed error instead
/// of a silently-wrong model.
///
/// # Errors
/// Everything [`peek_flags`] rejects on a malformed envelope;
/// [`CodecError::Truncated`] when a sealed record is shorter than
/// envelope + footer; [`CodecError::ChecksumMismatch`] when the stored
/// CRC disagrees with the recomputed one.
pub fn verify_integrity(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if peek_flags(bytes)? & FLAG_CRC == 0 {
        return Ok(bytes);
    }
    let min = FLAGS_OFFSET + 1 + FOOTER_LEN;
    if bytes.len() < min {
        return Err(CodecError::Truncated {
            needed: min,
            have: bytes.len(),
        });
    }
    let (record, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
    let computed = crc64(record);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(record)
}

/// Payload-kind byte for a `CountSketch` snapshot.
pub const KIND_COUNT_SKETCH: u8 = 0x01;
/// Payload-kind byte for a `CountMinSketch` snapshot.
pub const KIND_COUNT_MIN: u8 = 0x02;
/// Payload-kind byte for a `WmSketch` snapshot.
pub const KIND_WM: u8 = 0x03;
/// Payload-kind byte for an `AwmSketch` snapshot.
pub const KIND_AWM: u8 = 0x04;
/// Payload-kind byte for a `MulticlassAwmSketch` snapshot (one AWM-Sketch
/// per class).
pub const KIND_MULTICLASS_AWM: u8 = 0x05;

// Kind tags 0x10.. identify learners that have *no* snapshot codec (their
// state is exact and unmergeable — there is nothing linear to ship). They
// exist so every learner behind the `DynLearner` facade can report a kind
// aligned with this registry; `decode_any` never sees them on the wire.

/// Kind tag for the Simple Truncation baseline (no snapshot codec).
pub const KIND_SIMPLE_TRUNCATION: u8 = 0x10;
/// Kind tag for the Probabilistic Truncation baseline (no snapshot codec).
pub const KIND_PROB_TRUNCATION: u8 = 0x11;
/// Kind tag for the Space-Saving Frequent baseline (no snapshot codec).
pub const KIND_SPACE_SAVING: u8 = 0x12;
/// Kind tag for the Count-Min Frequent-Features baseline (no snapshot
/// codec).
pub const KIND_CM_CLASSIFIER: u8 = 0x13;
/// Kind tag for the feature-hashing baseline (no snapshot codec).
pub const KIND_FEATURE_HASHING: u8 = 0x14;

/// A typed decoding failure. Decoders never panic on untrusted bytes —
/// truncated, corrupted, and foreign buffers all map to a variant here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The leading magic bytes belong to some other format entirely.
    BadMagic {
        /// The four bytes found where [`MAGIC`] was expected.
        got: [u8; 4],
    },
    /// A `WMS`-family snapshot of a format version this build cannot read.
    UnsupportedVersion(u8),
    /// The payload-kind byte did not match the structure being decoded.
    WrongKind {
        /// Kind expected by the caller.
        expected: u8,
        /// Kind found in the envelope.
        got: u8,
    },
    /// A section tag did not match the layout.
    BadSection {
        /// Tag the layout requires next.
        expected: u8,
        /// Tag found.
        got: u8,
    },
    /// A field held a value the structure's invariants reject.
    Invalid(&'static str),
    /// Decoding consumed the layout but bytes remained.
    TrailingBytes(usize),
    /// A well-formed envelope declared a kind no registered decoder
    /// handles (see [`decode_any`]).
    UnknownKind(u8),
    /// A record sealed with the CRC-64 integrity footer ([`FLAG_CRC`])
    /// failed verification — the bytes were corrupted between encode and
    /// decode (torn write, flipped bit, truncated tail).
    ChecksumMismatch {
        /// The CRC stored in the footer.
        stored: u64,
        /// The CRC recomputed over the record.
        computed: u64,
    },
    /// A delta record's watermark interval does not start at the base
    /// model's clock — applying it would skip or double-apply updates.
    /// Idempotent re-delivery handling (skip when `got < expected`)
    /// belongs to the replication layer, which sees this typed rejection
    /// instead of corrupted state.
    DeltaGap {
        /// The base model's clock (the only valid `from_clock`).
        expected: u64,
        /// The delta's `from_clock`.
        got: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic { got } => write!(f, "not a WMS snapshot (magic {got:02x?})"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported WMS format version byte {v:#04x}")
            }
            CodecError::WrongKind { expected, got } => {
                write!(
                    f,
                    "wrong snapshot kind: expected {expected:#04x}, got {got:#04x}"
                )
            }
            CodecError::BadSection { expected, got } => {
                write!(
                    f,
                    "bad section tag: expected {expected:#04x}, got {got:#04x}"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot body"),
            CodecError::UnknownKind(k) => {
                write!(f, "no registered decoder for snapshot kind {k:#04x}")
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "integrity footer mismatch: stored CRC {stored:#018x}, computed {computed:#018x}"
                )
            }
            CodecError::DeltaGap { expected, got } => {
                write!(
                    f,
                    "delta gap: record starts at clock {got}, base model is at clock {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte writer with section framing.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i8` (two's complement byte).
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Appends an `f64` as the little-endian bytes of its bit pattern
    /// (bit-exact round trip, including −0.0 and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes the snapshot envelope: magic, payload kind, reserved flags.
    pub fn put_envelope(&mut self, kind: u8) {
        self.put_bytes(&MAGIC);
        self.put_u8(kind);
        self.put_u8(0); // reserved flags
    }

    /// Writes a **delta-record** envelope: magic, payload kind, and the
    /// [`FLAG_DELTA`] flags bit.
    pub fn put_delta_envelope(&mut self, kind: u8) {
        self.put_bytes(&MAGIC);
        self.put_u8(kind);
        self.put_u8(FLAG_DELTA);
    }

    /// Opens a tagged section, returning a mark for
    /// [`Writer::end_section`]. The length field is back-patched when the
    /// section closes.
    #[must_use]
    pub fn begin_section(&mut self, tag: u8) -> usize {
        self.put_u8(tag);
        self.put_u32(0);
        self.buf.len()
    }

    /// Closes the section opened at `mark`, patching its length field.
    ///
    /// # Panics
    /// Panics if the section payload exceeds `u32::MAX` bytes or `mark`
    /// does not come from [`Writer::begin_section`].
    pub fn end_section(&mut self, mark: usize) {
        let len = self.buf.len() - mark;
        let len32 = u32::try_from(len).expect("section exceeds u32::MAX bytes");
        self.buf[mark - 4..mark].copy_from_slice(&len32.to_le_bytes());
    }
}

/// A bounds-checked little-endian cursor over an encoded snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if the buffer is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Takes an `i8`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if the buffer is exhausted.
    pub fn take_i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.take_u8()? as i8)
    }

    /// Takes an `f64` stored as its raw bit pattern.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads and validates the snapshot envelope, returning an error if
    /// the magic, version, kind, or flags do not match.
    ///
    /// # Errors
    /// [`CodecError::BadMagic`] for foreign buffers,
    /// [`CodecError::UnsupportedVersion`] for `WMS` snapshots of another
    /// version, [`CodecError::WrongKind`] on a kind mismatch.
    pub fn expect_envelope(&mut self, kind: u8) -> Result<(), CodecError> {
        let got = take_magic_and_kind(self)?;
        if got != kind {
            return Err(CodecError::WrongKind {
                expected: kind,
                got,
            });
        }
        if self.take_u8()? & !FLAG_CRC != 0 {
            return Err(CodecError::Invalid(
                "full-snapshot envelope flags must be 0 (or CRC-sealed)",
            ));
        }
        Ok(())
    }

    /// Reads and validates a **delta-record** envelope ([`FLAG_DELTA`]
    /// set), returning an error if the magic, version, kind, or flags do
    /// not match.
    ///
    /// # Errors
    /// Everything [`Reader::expect_envelope`] rejects, plus
    /// [`CodecError::Invalid`] when the buffer is a full snapshot (flags
    /// 0) or carries unknown flag bits.
    pub fn expect_delta_envelope(&mut self, kind: u8) -> Result<(), CodecError> {
        let got = take_magic_and_kind(self)?;
        if got != kind {
            return Err(CodecError::WrongKind {
                expected: kind,
                got,
            });
        }
        if self.take_u8()? & !FLAG_CRC != FLAG_DELTA {
            return Err(CodecError::Invalid(
                "expected a delta record (FLAG_DELTA envelope flags)",
            ));
        }
        Ok(())
    }

    /// Reads a section header, checks its tag, and returns a sub-reader
    /// restricted to the section payload (the parent cursor advances past
    /// the whole section).
    ///
    /// # Errors
    /// [`CodecError::BadSection`] on a tag mismatch,
    /// [`CodecError::Truncated`] if the declared length overruns the
    /// buffer.
    pub fn expect_section(&mut self, tag: u8) -> Result<Reader<'a>, CodecError> {
        let got = self.take_u8()?;
        if got != tag {
            return Err(CodecError::BadSection { expected: tag, got });
        }
        let len = self.take_u32()? as usize;
        Ok(Reader::new(self.take_bytes(len)?))
    }

    /// Asserts the reader is fully consumed.
    ///
    /// # Errors
    /// [`CodecError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Encodes an `f64` array as a tagged section:
/// `tag | len (u32) | count (u64) | count × f64` (raw bit patterns).
/// Shared by every cell-carrying snapshot (Count-Sketch, Count-Min,
/// WM-/AWM-Sketch).
pub fn put_f64_section(w: &mut Writer, tag: u8, values: &[f64]) {
    let mark = w.begin_section(tag);
    w.put_u64(values.len() as u64);
    for &v in values {
        w.put_f64(v);
    }
    w.end_section(mark);
}

/// Decodes an array written by [`put_f64_section`], validating the stored
/// count against `expected` and bounding the allocation by the section's
/// actual length (so a corrupted count cannot demand an absurd
/// reservation).
///
/// Every value must be finite: legitimately-trained sketch cells always
/// are, and a crafted NaN cell would otherwise decode cleanly and then
/// panic the estimator's median/heap code far from the trust boundary
/// (on a serving node: under the learner lock, wedging the process).
///
/// # Errors
/// Any [`CodecError`] on a tag mismatch, count mismatch, truncation, or a
/// non-finite value.
pub fn take_f64_section(
    r: &mut Reader<'_>,
    tag: u8,
    expected: usize,
) -> Result<Vec<f64>, CodecError> {
    let mut s = r.expect_section(tag)?;
    let n = s.take_u64()?;
    if n != expected as u64 {
        return Err(CodecError::Invalid("array count does not match header"));
    }
    if s.remaining() < expected.saturating_mul(8) {
        return Err(CodecError::Truncated {
            needed: expected.saturating_mul(8),
            have: s.remaining(),
        });
    }
    let mut values = Vec::with_capacity(expected);
    for _ in 0..expected {
        let v = s.take_f64()?;
        if !v.is_finite() {
            return Err(CodecError::Invalid("non-finite cell value"));
        }
        values.push(v);
    }
    s.finish()?;
    Ok(values)
}

/// Hash-family kind tag: tabulation.
const FAMILY_TABULATION: u8 = 0;
/// Hash-family kind tag: k-wise polynomial.
const FAMILY_POLYNOMIAL: u8 = 1;

/// Largest polynomial independence level a snapshot may declare.
/// `PolyHash::new(k)` allocates and computes `O(k)` state per sketch row,
/// so an unbounded decoded `k` would let a crafted snapshot demand an
/// absurd allocation; real configurations use `k = Θ(log d)` (single
/// digits to low tens).
pub const MAX_POLY_INDEPENDENCE: usize = 512;

/// Encodes a [`HashFamilyKind`] (one tag byte, plus the independence level
/// for the polynomial family).
pub fn put_hash_family(w: &mut Writer, kind: HashFamilyKind) {
    match kind {
        HashFamilyKind::Tabulation => w.put_u8(FAMILY_TABULATION),
        HashFamilyKind::Polynomial(k) => {
            w.put_u8(FAMILY_POLYNOMIAL);
            w.put_u32(u32::try_from(k).expect("independence level fits u32"));
        }
    }
}

/// Decodes a [`HashFamilyKind`] written by [`put_hash_family`].
///
/// # Errors
/// [`CodecError::Invalid`] on an unknown family tag or a polynomial
/// independence level outside `1..=`[`MAX_POLY_INDEPENDENCE`];
/// [`CodecError::Truncated`] on short input.
pub fn take_hash_family(r: &mut Reader<'_>) -> Result<HashFamilyKind, CodecError> {
    match r.take_u8()? {
        FAMILY_TABULATION => Ok(HashFamilyKind::Tabulation),
        FAMILY_POLYNOMIAL => {
            let k = r.take_u32()? as usize;
            if k == 0 {
                return Err(CodecError::Invalid("polynomial independence level is 0"));
            }
            if k > MAX_POLY_INDEPENDENCE {
                return Err(CodecError::Invalid(
                    "polynomial independence level is implausibly large",
                ));
            }
            Ok(HashFamilyKind::Polynomial(k))
        }
        _ => Err(CodecError::Invalid("unknown hash-family tag")),
    }
}

/// A structure that round-trips through a standalone `WMS1` snapshot.
///
/// Implementations serialize *every* field that determines future
/// behavior — cells, seeds, hash-family kind, scale state, heap contents —
/// so a decoded instance is merge-compatible with its origin and evolves
/// identically under further updates.
pub trait SnapshotCodec: Sized {
    /// The envelope payload-kind byte identifying this structure.
    const KIND: u8;

    /// Appends the body sections (everything after the envelope).
    fn encode_body(&self, w: &mut Writer);

    /// Decodes the body sections written by
    /// [`SnapshotCodec::encode_body`].
    ///
    /// # Errors
    /// Any [`CodecError`] on truncated, corrupted, or invalid input.
    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes a complete snapshot: envelope plus body, sealed with the
    /// CRC-64 integrity footer ([`seal_record`]).
    #[must_use]
    fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_envelope(Self::KIND);
        self.encode_body(&mut w);
        let mut bytes = w.into_bytes();
        seal_record(&mut bytes);
        bytes
    }

    /// Decodes a complete snapshot, rejecting trailing bytes. Sealed
    /// records ([`FLAG_CRC`]) are CRC-verified first; legacy footer-less
    /// records decode unchanged.
    ///
    /// # Errors
    /// Any [`CodecError`]; never panics on untrusted input.
    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let bytes = verify_integrity(bytes)?;
        let mut r = Reader::new(bytes);
        r.expect_envelope(Self::KIND)?;
        let out = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

/// Reads and validates the magic + format version, returning the kind
/// byte — the shared front half of [`Reader::expect_envelope`] and
/// [`peek_kind`]. One copy on purpose: these are hostile-input
/// trust-boundary checks, and a version bump touched in one path but not
/// the other would make kind-probed dispatch disagree with the typed
/// decoders.
fn take_magic_and_kind(r: &mut Reader<'_>) -> Result<u8, CodecError> {
    let magic: [u8; 4] = r.take_bytes(4)?.try_into().expect("4-byte slice");
    if magic != MAGIC {
        if magic[..3] == MAGIC[..3] {
            return Err(CodecError::UnsupportedVersion(magic[3]));
        }
        return Err(CodecError::BadMagic { got: magic });
    }
    r.take_u8()
}

/// Reads the envelope far enough to report which structure `bytes`
/// encodes, without decoding the body: validates the magic and format
/// version and returns the kind byte.
///
/// # Errors
/// [`CodecError::Truncated`] on a buffer shorter than the envelope,
/// [`CodecError::BadMagic`] on a foreign buffer,
/// [`CodecError::UnsupportedVersion`] on a `WMS` snapshot of another
/// version.
pub fn peek_kind(bytes: &[u8]) -> Result<u8, CodecError> {
    take_magic_and_kind(&mut Reader::new(bytes))
}

/// Reads the envelope far enough to report the flags byte — the way a
/// transport decides whether `bytes` is a full snapshot (flags 0) or a
/// delta record ([`FLAG_DELTA`]) before dispatching to the matching
/// apply path.
///
/// # Errors
/// Everything [`peek_kind`] rejects, plus [`CodecError::Truncated`] when
/// the buffer ends before the flags byte.
pub fn peek_flags(bytes: &[u8]) -> Result<u8, CodecError> {
    let mut r = Reader::new(bytes);
    let _ = take_magic_and_kind(&mut r)?;
    r.take_u8()
}

/// Whether `bytes` is a well-formed-enough envelope carrying
/// [`FLAG_DELTA`].
///
/// # Errors
/// Everything [`peek_flags`] rejects.
pub fn is_delta_record(bytes: &[u8]) -> Result<bool, CodecError> {
    Ok(peek_flags(bytes)? & FLAG_DELTA != 0)
}

// Delta-record section tags. Tags 0x20.. are disjoint from every full-
// snapshot section tag (0x01–0x05) so a misrouted buffer fails on the
// first section header rather than deep inside a payload.

/// Delta section: `from_clock (u64) | to_clock (u64)` — the watermark
/// interval the record covers.
pub const DELTA_SECTION_HEAD: u8 = 0x20;
/// Delta section: sparse cell overwrites,
/// `count (u64) | count × (index u32, bits u64)` — raw `f64` bit
/// patterns of every stored cell whose bits changed inside the interval.
pub const DELTA_SECTION_CELLS: u8 = 0x21;
/// Delta section: the full post-interval mutable scalar state (update
/// clock + scale), identical in layout to the full snapshot's STATE
/// section.
pub const DELTA_SECTION_STATE: u8 = 0x22;
/// Delta section: `present (u8)` then, when 1, the full snapshot TOPK
/// payload replacing the base's heap; 0 means the heap did not change
/// inside the interval.
pub const DELTA_SECTION_TOPK: u8 = 0x23;
/// Delta section (multiclass): one embedded per-class delta body.
pub const DELTA_SECTION_CLASS: u8 = 0x24;

/// Encodes the sparse cell-overwrite section
/// ([`DELTA_SECTION_CELLS`]): each entry is the cell's index and the raw
/// bit pattern of its current stored value.
pub fn put_delta_cells(w: &mut Writer, cells: &[(u32, u64)]) {
    let mark = w.begin_section(DELTA_SECTION_CELLS);
    w.put_u64(cells.len() as u64);
    for &(idx, bits) in cells {
        w.put_u32(idx);
        w.put_u64(bits);
    }
    w.end_section(mark);
}

/// Decodes a [`put_delta_cells`] section, validating indices against
/// `cells` (the base sketch's cell count) and requiring every overwrite
/// value to be finite (stored cells of a legitimately trained sketch
/// always are).
///
/// # Errors
/// Any [`CodecError`] on a tag mismatch, truncation, an out-of-range
/// index, or a non-finite value.
pub fn take_delta_cells(r: &mut Reader<'_>, cells: usize) -> Result<Vec<(u32, u64)>, CodecError> {
    let mut s = r.expect_section(DELTA_SECTION_CELLS)?;
    let n = s.take_u64()?;
    if n > cells as u64 {
        return Err(CodecError::Invalid(
            "delta overwrites more cells than the sketch has",
        ));
    }
    let n = n as usize;
    if s.remaining() < n.saturating_mul(12) {
        return Err(CodecError::Truncated {
            needed: n.saturating_mul(12),
            have: s.remaining(),
        });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = s.take_u32()?;
        if idx as usize >= cells {
            return Err(CodecError::Invalid("delta cell index out of range"));
        }
        let bits = s.take_u64()?;
        if !f64::from_bits(bits).is_finite() {
            return Err(CodecError::Invalid("non-finite delta cell value"));
        }
        out.push((idx, bits));
    }
    s.finish()?;
    Ok(out)
}

/// One entry of a [`decode_any`] registry: the kind byte a decoder
/// handles, paired with the function that decodes a *complete* snapshot
/// (envelope included) of that kind.
///
/// The concrete decoders live in the crates that own the structures
/// (`wmsketch-sketch`, `wmsketch-core`), above this one in the dependency
/// graph — so kind dispatch is generic infrastructure here, and each
/// consumer supplies the registry of decoders it actually links.
pub struct AnyDecoder<T> {
    /// The envelope kind byte this decoder handles.
    pub kind: u8,
    /// Decodes a complete snapshot of that kind.
    pub decode: fn(&[u8]) -> Result<T, CodecError>,
}

/// Dispatches a `WMS1` buffer to the registered decoder matching its kind
/// byte.
///
/// This is the single entry point for callers that accept snapshots of
/// *any* kind — a serving node's model registry, an offline checkpoint
/// inspector — instead of hand-matching kind bytes at every call site.
///
/// # Errors
/// Whatever [`peek_kind`] rejects; [`CodecError::UnknownKind`] when no
/// registry entry matches; and any [`CodecError`] from the matched
/// decoder. Never panics on untrusted input.
pub fn decode_any<T>(bytes: &[u8], registry: &[AnyDecoder<T>]) -> Result<T, CodecError> {
    let kind = peek_kind(bytes)?;
    let entry = registry
        .iter()
        .find(|d| d.kind == kind)
        .ok_or(CodecError::UnknownKind(kind))?;
    (entry.decode)(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i8(-3);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i8().unwrap(), -3);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.take_u32(),
            Err(CodecError::Truncated { needed: 4, have: 2 })
        );
    }

    #[test]
    fn sections_nest_and_patch_lengths() {
        let mut w = Writer::new();
        let m = w.begin_section(0x10);
        w.put_u32(42);
        w.end_section(m);
        w.put_u8(0xFF); // trailing data outside the section
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut s = r.expect_section(0x10).unwrap();
        assert_eq!(s.take_u32().unwrap(), 42);
        s.finish().unwrap();
        assert_eq!(r.take_u8().unwrap(), 0xFF);
    }

    #[test]
    fn envelope_rejections_are_typed() {
        let mut w = Writer::new();
        w.put_envelope(KIND_WM);
        let good = w.into_bytes();

        let mut r = Reader::new(&good);
        r.expect_envelope(KIND_WM).unwrap();

        let mut foreign = good.clone();
        foreign[0] = b'P';
        assert!(matches!(
            Reader::new(&foreign).expect_envelope(KIND_WM),
            Err(CodecError::BadMagic { .. })
        ));

        let mut vnext = good.clone();
        vnext[3] = b'2';
        assert_eq!(
            Reader::new(&vnext).expect_envelope(KIND_WM),
            Err(CodecError::UnsupportedVersion(b'2'))
        );

        assert_eq!(
            Reader::new(&good).expect_envelope(KIND_AWM),
            Err(CodecError::WrongKind {
                expected: KIND_AWM,
                got: KIND_WM
            })
        );
    }

    #[test]
    fn hash_family_round_trip() {
        for kind in [
            HashFamilyKind::Tabulation,
            HashFamilyKind::Polynomial(4),
            HashFamilyKind::Polynomial(11),
        ] {
            let mut w = Writer::new();
            put_hash_family(&mut w, kind);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(take_hash_family(&mut r).unwrap(), kind);
            r.finish().unwrap();
        }
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            take_hash_family(&mut r),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn hash_family_rejects_implausible_independence_levels() {
        // A crafted snapshot must not be able to demand O(k) work and
        // allocation per row through an absurd polynomial k.
        let mut w = Writer::new();
        w.put_u8(1); // polynomial tag
        w.put_u32(u32::MAX - 1);
        let bytes = w.into_bytes();
        assert!(matches!(
            take_hash_family(&mut Reader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
        let mut w = Writer::new();
        put_hash_family(&mut w, HashFamilyKind::Polynomial(MAX_POLY_INDEPENDENCE));
        let bytes = w.into_bytes();
        assert!(take_hash_family(&mut Reader::new(&bytes)).is_ok());
    }

    #[test]
    fn peek_kind_reads_envelope_without_body() {
        let mut w = Writer::new();
        w.put_envelope(KIND_AWM);
        w.put_u8(0xAB); // arbitrary body byte peek must not touch
        let bytes = w.into_bytes();
        assert_eq!(peek_kind(&bytes), Ok(KIND_AWM));
        assert!(matches!(
            peek_kind(&bytes[..3]),
            Err(CodecError::Truncated { .. })
        ));
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert!(matches!(
            peek_kind(&foreign),
            Err(CodecError::BadMagic { .. })
        ));
        let mut vnext = bytes;
        vnext[3] = b'9';
        assert_eq!(peek_kind(&vnext), Err(CodecError::UnsupportedVersion(b'9')));
    }

    #[test]
    fn decode_any_dispatches_by_kind_and_rejects_unregistered() {
        fn decode_tag(bytes: &[u8]) -> Result<u8, CodecError> {
            let mut r = Reader::new(bytes);
            r.expect_envelope(peek_kind(bytes)?)?;
            let v = r.take_u8()?;
            r.finish()?;
            Ok(v)
        }
        let registry = [
            AnyDecoder {
                kind: KIND_WM,
                decode: decode_tag,
            },
            AnyDecoder {
                kind: KIND_AWM,
                decode: decode_tag,
            },
        ];
        for (kind, body) in [(KIND_WM, 7u8), (KIND_AWM, 9)] {
            let mut w = Writer::new();
            w.put_envelope(kind);
            w.put_u8(body);
            assert_eq!(decode_any(&w.into_bytes(), &registry), Ok(body));
        }
        let mut w = Writer::new();
        w.put_envelope(KIND_COUNT_MIN);
        assert_eq!(
            decode_any(&w.into_bytes(), &registry),
            Err(CodecError::UnknownKind(KIND_COUNT_MIN))
        );
    }

    #[test]
    fn crc64_matches_reference_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// The byte-at-a-time CRC-64/XZ that slicing-by-8 replaces.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = CRC64_TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn pseudo_random_bytes(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| crate::splitmix64(seed ^ i) as u8)
            .collect()
    }

    #[test]
    fn crc64_slices_match_bytewise_reference() {
        assert_eq!(CRC64_SLICES[0], CRC64_TABLE);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        // Every length up to 257 at every start offset in a word, so each
        // tail length meets each alignment.
        let buf = pseudo_random_bytes(257 + 8, 0x5EED);
        for offset in 0..8 {
            for len in 0..=257 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc64(bytes),
                    crc64_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
        let big = pseudo_random_bytes(1 << 20, 0xC0FFEE);
        assert_eq!(crc64(&big), crc64_bytewise(&big));
    }

    #[test]
    fn every_bit_flip_of_a_sealed_record_is_a_typed_error() {
        fn decode(bytes: &[u8]) -> Result<(u64, f64), CodecError> {
            let mut r = Reader::new(verify_integrity(bytes)?);
            r.expect_envelope(KIND_WM)?;
            let mut section = r.expect_section(0x01)?;
            let value = (section.take_u64()?, section.take_f64()?);
            section.finish()?;
            r.finish()?;
            Ok(value)
        }
        let mut w = Writer::new();
        w.put_envelope(KIND_WM);
        let m = w.begin_section(0x01);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-2.5);
        w.end_section(m);
        let mut bytes = w.into_bytes();
        seal_record(&mut bytes);
        assert_eq!(decode(&bytes), Ok((0x0123_4567_89AB_CDEF, -2.5)));

        // Footer bits included. Clearing the CRC flag turns the record
        // into a legacy one that the integrity check passes through; the
        // decoder then meets the eight footer bytes as trailing bytes.
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flipping bit {bit} went unnoticed");
        }
    }

    #[test]
    fn sealed_record_round_trips_and_rejects_corruption() {
        let mut w = Writer::new();
        w.put_envelope(KIND_WM);
        w.put_u64(0xABCD);
        let mut bytes = w.into_bytes();
        seal_record(&mut bytes);
        assert_eq!(bytes[FLAGS_OFFSET] & FLAG_CRC, FLAG_CRC);

        // Clean verification strips exactly the footer.
        let body = verify_integrity(&bytes).unwrap();
        assert_eq!(body.len(), bytes.len() - FOOTER_LEN);

        // Every single-byte corruption is rejected with a typed error.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                verify_integrity(&bad).is_err() || bad[FLAGS_OFFSET] & FLAG_CRC == 0,
                "corruption at byte {i} went unnoticed"
            );
        }

        // Truncating the footer off cannot downgrade to legacy: the flag
        // still declares a footer, and the tail of the body is not it.
        let torn = &bytes[..bytes.len() - FOOTER_LEN];
        assert!(matches!(
            verify_integrity(torn),
            Err(CodecError::ChecksumMismatch { .. }) | Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn legacy_footerless_records_pass_through() {
        let mut w = Writer::new();
        w.put_envelope(KIND_AWM);
        w.put_u64(7);
        let bytes = w.into_bytes();
        assert_eq!(verify_integrity(&bytes).unwrap(), &bytes[..]);
        let mut r = Reader::new(&bytes);
        r.expect_envelope(KIND_AWM).unwrap();
    }

    #[test]
    fn sealed_envelopes_decode_with_either_flag_state() {
        let mut w = Writer::new();
        w.put_delta_envelope(KIND_WM);
        let mut bytes = w.into_bytes();
        seal_record(&mut bytes);
        let record = verify_integrity(&bytes).unwrap();
        let mut r = Reader::new(record);
        r.expect_delta_envelope(KIND_WM).unwrap();
        assert!(is_delta_record(&bytes).unwrap());
    }

    #[test]
    fn section_length_overrun_is_truncation() {
        let mut w = Writer::new();
        let m = w.begin_section(0x01);
        w.put_u64(1);
        w.end_section(m);
        let mut bytes = w.into_bytes();
        // Corrupt the declared length upward: the section now overruns.
        bytes[1] = 0xFF;
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.expect_section(0x01),
            Err(CodecError::Truncated { .. })
        ));
    }
}
