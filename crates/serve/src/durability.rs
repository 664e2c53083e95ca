//! Crash-safe durability primitives: the atomic checkpoint-write
//! protocol, the `data_dir` file layout, the sealed `.spec` sidecar
//! records startup recovery rebuilds registry entries from, and the
//! client-path confinement used by OP_CHECKPOINT / OP_RESTORE.
//!
//! ## On-disk layout (`ServeConfig::data_dir`)
//!
//! ```text
//! <data_dir>/m-<hex(model name)>.ckpt   sealed WMS1 snapshot of the model
//! <data_dir>/m-<hex(model name)>.spec   sealed rebuild recipe (non-default
//!                                       models; the default model rebuilds
//!                                       from its ServeConfig)
//! <data_dir>/*.tmp                      in-flight atomic writes; stale ones
//!                                       are deleted on startup
//! ```
//!
//! A spec record's head section is `name_len (u32) | name`, then the
//! template section. Older nodes wrote a legacy tail after the name:
//! `shards (u32) | mode (u8) | [candidates (u32), when mode is 1]` (a
//! worker-pool size and mode, or zeros). Recovery reads and ignores that
//! tail, so such a record recovers as one learner.
//!
//! Model names are hex-encoded into file stems so any registry name —
//! `/`, `..`, unicode — maps to a flat, reversible, filesystem-safe file
//! name; recovery decodes the stem and cross-checks it against the name
//! sealed inside the record.
//!
//! ## The atomic write protocol
//!
//! Every durable write goes `create <file>.tmp` → write the sealed bytes
//! → `sync_all` → `rename` over the final name → best-effort directory
//! sync. A crash (or an injected `io.write=torn` fault) before the
//! rename leaves only a `.tmp` the next startup deletes; the final file
//! is only ever replaced wholesale, so a reader never observes a torn
//! record under the final name. Torn bytes that *do* reach a final file
//! (a lying disk dropping the sync, then losing power) are caught by the
//! record's CRC-64 footer at decode time instead.
//!
//! The `io.write` / `io.fsync` failpoints (`wmsketch_faults`) are
//! threaded through this path, which is what lets the chaos suite
//! exercise exactly these crash windows deterministically.

use std::path::{Path, PathBuf};

use wmsketch_hashing::codec::{self, Reader, Writer};

use crate::error::ServeError;

/// Extension of checkpoint files (sealed WMS1 snapshots).
pub(crate) const CKPT_EXT: &str = "ckpt";
/// Extension of model-spec sidecar files (sealed rebuild recipes).
pub(crate) const SPEC_EXT: &str = "spec";
/// Prefix of per-model file stems (`m-<hex(name)>`).
const STEM_PREFIX: &str = "m-";

/// Envelope kind byte of a `.spec` record. Deliberately outside the
/// learner-kind registry so a spec file handed to MERGE/RESTORE (or a
/// checkpoint handed to the spec decoder) fails the kind check instead
/// of decoding as the wrong thing.
pub(crate) const KIND_MODEL_SPEC: u8 = 0x40;

/// Spec-record section tags: identity (name plus the legacy shards and
/// mode fields) and the untrained template snapshot.
const SPEC_SECTION_HEAD: u8 = 0x01;
const SPEC_SECTION_TEMPLATE: u8 = 0x02;

/// The flat file stem a model's durable records live under:
/// `m-` + lowercase hex of the registry name's UTF-8 bytes.
fn file_stem(model_name: &str) -> String {
    let mut s = String::with_capacity(STEM_PREFIX.len() + model_name.len() * 2);
    s.push_str(STEM_PREFIX);
    for b in model_name.bytes() {
        s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        s.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble"));
    }
    s
}

/// Where the model `name`'s record with extension `ext` lives in `dir`
/// (`<dir>/m-<hex(name)>.<ext>`): the model's one file writer
/// (`ModelEntry::persist`, which the checkpointer and the governor's
/// spill share) and OP_CREATE's spec sidecar name their files here.
pub(crate) fn record_path(dir: &Path, name: &str, ext: &str) -> PathBuf {
    dir.join(format!("{}.{ext}", file_stem(name)))
}

/// Whether `path`'s file name is one this layout writes itself: a
/// model's `.ckpt` or `.spec` record, or the `.tmp` of its atomic write.
/// OP_CHECKPOINT refuses these, so a client export can never replace
/// a model's durable state with another model's.
pub(crate) fn is_node_record(path: &Path) -> bool {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let name = name.strip_suffix(".tmp").unwrap_or(name);
    name.rsplit_once('.').is_some_and(|(stem, ext)| {
        [CKPT_EXT, SPEC_EXT].contains(&ext) && decode_file_stem(stem).is_some()
    })
}

/// Inverse of [`file_stem`]; `None` for stems this layout didn't write.
pub(crate) fn decode_file_stem(stem: &str) -> Option<String> {
    let hex = stem.strip_prefix(STEM_PREFIX)?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push(((hi << 4) | lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

/// Writes `bytes` to `path` atomically: temp file → (faultable) write →
/// (faultable) `sync_all` → rename → best-effort parent-directory sync.
/// Returns the byte count written.
///
/// # Errors
/// Any I/O error, or an injected `io.write` / `io.fsync` fault. On a
/// torn-write fault the half-written `.tmp` is deliberately left behind
/// (that is what the crash being simulated leaves); the final file is
/// untouched either way.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<u64> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(&tmp)?;
    match wmsketch_faults::check(wmsketch_faults::IO_WRITE) {
        None => f.write_all(bytes)?,
        Some(wmsketch_faults::FaultAction::Torn) => {
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            let _ = f.sync_all();
            drop(f);
            return Err(wmsketch_faults::injected_io_error(
                wmsketch_faults::IO_WRITE,
            ));
        }
        Some(_) => {
            drop(f);
            let _ = std::fs::remove_file(&tmp);
            return Err(wmsketch_faults::injected_io_error(
                wmsketch_faults::IO_WRITE,
            ));
        }
    }
    match wmsketch_faults::check(wmsketch_faults::IO_FSYNC) {
        None => f.sync_all()?,
        // A dropped fsync *reports* success without syncing — the write
        // still lands in the page cache, so an in-process restart (the
        // chaos suite's crash model) recovers it; only a power cut would
        // not, and that window is exactly what the fault makes visible.
        Some(wmsketch_faults::FaultAction::Drop) => {}
        Some(_) => {
            drop(f);
            let _ = std::fs::remove_file(&tmp);
            return Err(wmsketch_faults::injected_io_error(
                wmsketch_faults::IO_FSYNC,
            ));
        }
    }
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

/// Deletes stale `*.tmp` files (in-flight writes a previous process
/// died inside) from `dir`. Best-effort; returns how many were removed.
pub(crate) fn clean_stale_tmp(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmp")
            && std::fs::remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Durable files in `dir` with extension `ext` whose stems decode as
/// model names, as `(model name, path)` sorted by name — the
/// deterministic recovery scan order.
pub(crate) fn scan(dir: &Path, ext: &str) -> Vec<(String, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ext) {
                return None;
            }
            let stem = path.file_stem()?.to_str()?;
            Some((decode_file_stem(stem)?, path))
        })
        .collect();
    found.sort();
    found
}

/// Resolves a client-supplied CHECKPOINT/RESTORE path. With a configured
/// `data_dir` the path must be relative and free of `..`/root components
/// (every component a plain name), and resolves inside the data dir;
/// without one the legacy trust model applies and the path is used
/// verbatim.
///
/// # Errors
/// [`ServeError::Protocol`] when a confined path tries to escape.
pub(crate) fn resolve_client_path(
    data_dir: Option<&Path>,
    requested: &Path,
) -> Result<PathBuf, ServeError> {
    let Some(dir) = data_dir else {
        return Ok(requested.to_path_buf());
    };
    let confined = !requested.as_os_str().is_empty()
        && requested
            .components()
            .all(|c| matches!(c, std::path::Component::Normal(_)));
    if !confined {
        return Err(ServeError::Protocol(
            "checkpoint path escapes the configured data directory",
        ));
    }
    Ok(dir.join(requested))
}

/// Encodes a sealed model-spec record: the rebuild recipe OP_CREATE
/// registered a model with, persisted so startup recovery can re-run it.
pub(crate) fn encode_spec_record(name: &str, template: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_envelope(KIND_MODEL_SPEC);
    let mark = w.begin_section(SPEC_SECTION_HEAD);
    w.put_u32(name.len() as u32);
    w.put_bytes(name.as_bytes());
    w.end_section(mark);
    let mark = w.begin_section(SPEC_SECTION_TEMPLATE);
    w.put_bytes(template);
    w.end_section(mark);
    let mut bytes = w.into_bytes();
    codec::seal_record(&mut bytes);
    bytes
}

/// Decodes a model-spec record (integrity-checked): `(name, template)`.
/// A legacy shards-and-mode tail after the name is validated and
/// ignored.
///
/// # Errors
/// Any [`ServeError`]; corruption is the typed
/// [`wmsketch_hashing::codec::CodecError::ChecksumMismatch`].
pub(crate) fn decode_spec_record(bytes: &[u8]) -> Result<(String, Vec<u8>), ServeError> {
    let bytes = codec::verify_integrity(bytes)?;
    let mut r = Reader::new(bytes);
    r.expect_envelope(KIND_MODEL_SPEC)?;
    let mut head = r.expect_section(SPEC_SECTION_HEAD)?;
    let name_len = head.take_u32()? as usize;
    let name = std::str::from_utf8(head.take_bytes(name_len)?)
        .map_err(|_| ServeError::Protocol("spec record name is not UTF-8"))?
        .to_string();
    if head.remaining() > 0 {
        let _shards = head.take_u32()?;
        match head.take_u8()? {
            0 => {}
            1 => {
                let _candidates = head.take_u32()?;
            }
            _ => return Err(ServeError::Protocol("spec record has an unknown mode tag")),
        }
    }
    head.finish()?;
    let mut tpl = r.expect_section(SPEC_SECTION_TEMPLATE)?;
    let template = tpl.take_bytes(tpl.remaining())?.to_vec();
    r.finish()?;
    Ok((name, template))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsketch_hashing::codec::CodecError;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wmsketch-durability-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn file_stems_round_trip_any_name() {
        for name in ["default", "spam/../../etc", "модель", "a", ""] {
            let stem = file_stem(name);
            assert!(
                !stem.contains('/') && !stem.contains('.') || name.is_empty(),
                "stem {stem:?} must be flat"
            );
            assert_eq!(decode_file_stem(&stem).as_deref(), Some(name));
        }
        assert_eq!(decode_file_stem("not-a-model-stem"), None);
        assert_eq!(decode_file_stem("m-0"), None, "odd hex length");
        assert_eq!(decode_file_stem("m-zz"), None, "non-hex digits");
    }

    /// A spec record as an older node wrote it for a worker pool:
    /// `shards` and a deferred-heap mode block in the head section.
    fn legacy_pool_spec_record(name: &str, template: &[u8]) -> Vec<u8> {
        legacy_spec_record(name, template, |w| {
            w.put_u32(3);
            w.put_u8(1);
            w.put_u32(64);
        })
    }

    /// A spec record whose head carries `tail` after the name.
    fn legacy_spec_record(name: &str, template: &[u8], tail: impl Fn(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_envelope(KIND_MODEL_SPEC);
        let mark = w.begin_section(SPEC_SECTION_HEAD);
        w.put_u32(name.len() as u32);
        w.put_bytes(name.as_bytes());
        tail(&mut w);
        w.end_section(mark);
        let mark = w.begin_section(SPEC_SECTION_TEMPLATE);
        w.put_bytes(template);
        w.end_section(mark);
        let mut bytes = w.into_bytes();
        codec::seal_record(&mut bytes);
        bytes
    }

    #[test]
    fn spec_records_round_trip_and_reject_corruption() {
        let template = vec![0xAB; 37];
        let bytes = encode_spec_record("spam", &template);
        let (name, tpl) = decode_spec_record(&bytes).expect("round trip");
        assert_eq!(name, "spam");
        assert_eq!(tpl, template);
        // The head is `name_len | name` and nothing more.
        let mut r = Reader::new(codec::verify_integrity(&bytes).expect("sealed"));
        r.expect_envelope(KIND_MODEL_SPEC).expect("envelope");
        let mut head = r.expect_section(SPEC_SECTION_HEAD).expect("head");
        assert_eq!(head.take_u32().expect("name_len"), 4);
        assert_eq!(head.take_bytes(4).expect("name"), b"spam");
        head.finish().expect("nothing after the name");
        // Records older nodes wrote still decode: a pool's, and the
        // zero shards-and-mode tail of one learner.
        let legacy = legacy_pool_spec_record("spam", &template);
        assert_eq!(
            decode_spec_record(&legacy).expect("legacy record"),
            ("spam".to_string(), template.clone())
        );
        let zeros = legacy_spec_record("spam", &template, |w| {
            w.put_u32(0);
            w.put_u8(0);
        });
        assert_eq!(
            decode_spec_record(&zeros).expect("zero-tail record"),
            ("spam".to_string(), template.clone())
        );

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(
            matches!(
                decode_spec_record(&corrupt),
                Err(ServeError::Codec(CodecError::ChecksumMismatch { .. }))
            ),
            "flipped byte must fail the integrity footer"
        );
        assert!(
            decode_spec_record(&bytes[..bytes.len() - 3]).is_err(),
            "truncation must be rejected"
        );
    }

    #[test]
    fn client_paths_are_confined_when_a_data_dir_is_set() {
        let dir = PathBuf::from("/srv/wmsketch");
        let ok = resolve_client_path(Some(&dir), Path::new("sub/model.ckpt")).expect("relative");
        assert_eq!(ok, dir.join("sub/model.ckpt"));
        for escape in ["/etc/passwd", "../outside.ckpt", "a/../../b", ".", ""] {
            assert!(
                resolve_client_path(Some(&dir), Path::new(escape)).is_err(),
                "{escape:?} must be rejected"
            );
        }
        // Legacy behavior without a data dir: verbatim.
        let legacy = resolve_client_path(None, Path::new("/tmp/anywhere.ckpt")).expect("legacy");
        assert_eq!(legacy, PathBuf::from("/tmp/anywhere.ckpt"));
    }

    #[test]
    fn atomic_writes_replace_wholesale_and_clean_their_tmp() {
        let dir = scratch_dir("atomic");
        let path = dir.join("m-00.ckpt");
        write_atomic(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        write_atomic(&path, b"second-longer").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second-longer");
        let leftovers = std::fs::read_dir(&dir)
            .expect("dir")
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .count();
        assert_eq!(leftovers, 0, "no tmp files after successful writes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept() {
        let dir = scratch_dir("sweep");
        std::fs::write(dir.join("m-00.ckpt.tmp"), b"torn").expect("seed tmp");
        std::fs::write(dir.join("m-00.ckpt"), b"good").expect("seed final");
        assert_eq!(clean_stale_tmp(&dir), 1);
        assert!(dir.join("m-00.ckpt").exists(), "final files are kept");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
