//! The loopback node and the client loops that drive it.
//!
//! Nodes are bound in-process on `127.0.0.1:0` with the event backend.
//! Setup and inspection go through [`ServeClient`]; the timed loops talk
//! to the socket directly through the `protocol` module, so each request
//! can be timestamped where it is written and where its response lands.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wmsketch_core::WmSketchConfig;
use wmsketch_hashing::codec::{Reader, Writer};
use wmsketch_learn::WeightEntry;
use wmsketch_serve::protocol::{
    put_features, read_frame, request_for_model, FrameAssembler, OP_PREDICT, OP_TOPK, STATUS_OK,
};
use wmsketch_serve::{ServeBackend, ServeClient, ServeConfig, ServerHandle, WmServer};

use crate::inputs::{Example, TOPK};
use crate::stats::ns;

/// How long a benchmark socket may block before the run is declared
/// broken.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the process may use, as seen before any pinning (pinning shrinks
/// what `available_parallelism` reports).
pub fn host_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restricts the calling thread, and every thread it spawns from now on
/// (node threads included), to `cpu`. Returns false when the host
/// refuses.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 names the calling thread; `mask` is a live, aligned
    // u64 and the size passed is exactly its size, which covers every
    // CPU index below 64 — the kernel reads no further.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Binds a node. The default model (id 0) is a tiny placeholder; the
/// workloads CREATE their own models. `dir`+`budget` make it governed.
pub fn bind(governed: Option<(&Path, u64)>) -> ServerHandle {
    let mut cfg =
        ServeConfig::new(WmSketchConfig::new(64, 2).seed(1), 1).backend(ServeBackend::Event);
    if let Some((dir, budget)) = governed {
        cfg = cfg.data_dir(dir).memory_budget_bytes(budget);
    }
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind loopback node")
        .spawn()
}

/// A fresh, empty directory for one node's durable state.
pub fn fresh_dir(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("create run directory");
    path
}

/// A raw benchmark connection.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to loopback node");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    s.set_read_timeout(Some(OP_TIMEOUT))
        .expect("set read timeout");
    s.set_write_timeout(Some(OP_TIMEOUT))
        .expect("set write timeout");
    s
}

/// The node's ingested-example count from an UPDATE response, or `None`
/// for an `ERR` or malformed response.
fn update_ack(resp: &[u8]) -> Option<u64> {
    let mut r = Reader::new(resp);
    (r.take_u8().ok()? == STATUS_OK)
        .then(|| r.take_u64().ok())
        .flatten()
}

/// Per-frame outcome of an ingest loop.
#[derive(Default)]
pub struct IngestLog {
    /// Client-observed latency of each frame, in send order.
    pub latency_ns: Vec<u64>,
    /// Whether the node acknowledged each frame.
    pub acked: Vec<bool>,
    /// When each response landed, as an offset from the loop's start.
    pub done_ns: Vec<u64>,
    /// Wall time from the first write to the last response.
    pub elapsed: Duration,
    /// Open loop only: how late each frame was written against its due
    /// time.
    pub lag_ns: Vec<u64>,
    /// Time spent inside `write_all` per frame (recorded when traced).
    pub write_ns: Vec<u64>,
}

impl IngestLog {
    pub fn failed(&self) -> u64 {
        self.acked.iter().filter(|&&a| !a).count() as u64
    }

    /// Appends a later loop's log; its completion offsets stay relative to
    /// its own start.
    pub fn append(&mut self, later: IngestLog) {
        self.latency_ns.extend(later.latency_ns);
        self.acked.extend(later.acked);
        self.done_ns.extend(later.done_ns);
        self.elapsed += later.elapsed;
        self.lag_ns.extend(later.lag_ns);
        self.write_ns.extend(later.write_ns);
    }
}

/// Closed-loop pipelined ingest of stream frames `first..first + count`:
/// keeps `window` frames in flight on one connection; stream frame `k` is
/// `frames[k % frames.len()]`. Latency runs from the start of a frame's
/// write to the arrival of its response.
pub fn ingest_closed(
    stream: &mut TcpStream,
    frames: &[Vec<u8>],
    first: usize,
    count: usize,
    window: usize,
    traced: bool,
) -> IngestLog {
    let mut sent_at = Vec::with_capacity(count);
    let mut log = IngestLog {
        latency_ns: Vec::with_capacity(count),
        acked: Vec::with_capacity(count),
        done_ns: Vec::with_capacity(count),
        elapsed: Duration::ZERO,
        lag_ns: Vec::new(),
        write_ns: Vec::with_capacity(if traced { count } else { 0 }),
    };
    let start = Instant::now();
    while log.acked.len() < count {
        while sent_at.len() < count && sent_at.len() - log.acked.len() < window {
            let t = Instant::now();
            stream
                .write_all(&frames[(first + sent_at.len()) % frames.len()])
                .expect("write UPDATE frame");
            if traced {
                log.write_ns.push(ns(t.elapsed()));
            }
            sent_at.push(t);
        }
        let resp = read_frame(stream)
            .expect("read UPDATE response")
            .expect("node closed the connection mid-run");
        let done = log.acked.len();
        log.latency_ns.push(ns(sent_at[done].elapsed()));
        log.done_ns.push(ns(start.elapsed()));
        log.acked.push(update_ack(&resp).is_some());
    }
    log.elapsed = start.elapsed();
    log
}

/// Open-loop ingest of stream frames `first..first + count`: the `k`-th
/// of them is due at `k × period` after the start and is written then,
/// however far behind the node is. Latency runs from the due time, so a
/// stall is charged to every frame queued behind it.
pub fn ingest_open(
    stream: &mut TcpStream,
    frames: &[Vec<u8>],
    first: usize,
    count: usize,
    period: Duration,
    traced: bool,
) -> IngestLog {
    let mut log = IngestLog {
        latency_ns: Vec::with_capacity(count),
        acked: Vec::with_capacity(count),
        done_ns: Vec::with_capacity(count),
        elapsed: Duration::ZERO,
        lag_ns: Vec::with_capacity(count),
        write_ns: Vec::with_capacity(if traced { count } else { 0 }),
    };
    let mut assembler = FrameAssembler::new();
    let mut buf = vec![0u8; 64 << 10];
    let start = Instant::now();
    let due = |k: usize| start + period * k as u32;
    let mut sent = 0usize;
    while log.acked.len() < count {
        let now = Instant::now();
        if sent < count && now >= due(sent) {
            log.lag_ns.push(ns(now - due(sent)));
            stream
                .write_all(&frames[(first + sent) % frames.len()])
                .expect("write UPDATE frame");
            if traced {
                log.write_ns.push(ns(now.elapsed()));
            }
            sent += 1;
            continue;
        }
        let wait = if sent < count {
            due(sent).saturating_duration_since(now)
        } else {
            OP_TIMEOUT
        };
        stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(20))))
            .expect("set read timeout");
        match stream.read(&mut buf) {
            Ok(0) => panic!("node closed the connection mid-run"),
            Ok(n) => {
                assembler.push(&buf[..n]);
                let landed = Instant::now();
                while let Some(resp) = assembler.next_frame().expect("well-formed response") {
                    let done = log.acked.len();
                    log.latency_ns.push(ns(landed - due(done)));
                    log.done_ns.push(ns(landed - start));
                    log.acked.push(update_ack(&resp).is_some());
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read UPDATE response: {e}"),
        }
    }
    log.elapsed = start.elapsed();
    stream
        .set_read_timeout(Some(OP_TIMEOUT))
        .expect("set read timeout");
    log
}

/// One completed read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOp {
    /// Completion time, as an offset from the loop's start.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub topk: bool,
}

/// Per-request outcome of a read loop.
#[derive(Default)]
pub struct ReadLog {
    pub ops: Vec<ReadOp>,
    pub failed: u64,
}

impl ReadLog {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64 + self.failed
    }

    /// Appends a later loop's log; its completion offsets stay relative to
    /// its own start.
    pub fn append(&mut self, later: ReadLog) {
        self.ops.extend(later.ops);
        self.failed += later.failed;
    }
}

/// One round trip; `None` on an `ERR` response.
fn call(stream: &mut TcpStream, body: &[u8]) -> Option<Vec<u8>> {
    wmsketch_serve::protocol::write_frame(stream, body).expect("write request");
    let resp = read_frame(stream)
        .expect("read response")
        .expect("node closed the connection mid-run");
    (resp.first() == Some(&STATUS_OK)).then(|| resp[1..].to_vec())
}

/// A PREDICT request body for `model`.
pub fn predict_body(model: u32, x: &wmsketch_learn::SparseVector) -> Vec<u8> {
    let mut w = Writer::new();
    put_features(&mut w, x);
    request_for_model(model, OP_PREDICT, w)
}

/// A TOPK(k) request body for `model`.
pub fn topk_body(model: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(TOPK as u32);
    request_for_model(model, OP_TOPK, w)
}

/// Decodes a PREDICT payload into `(margin, label)`.
pub fn parse_predict(payload: &[u8]) -> Option<(f64, i8)> {
    let mut r = Reader::new(payload);
    Some((r.take_f64().ok()?, r.take_i8().ok()?))
}

/// Decodes a TOPK payload.
pub fn parse_topk(payload: &[u8]) -> Option<Vec<WeightEntry>> {
    let mut r = Reader::new(payload);
    let count = r.take_u32().ok()?;
    (0..count)
        .map(|_| {
            Some(WeightEntry {
                feature: r.take_u32().ok()?,
                weight: r.take_f64().ok()?,
            })
        })
        .collect()
}

/// Closed-loop reads numbered from `first`: PREDICT on held-out
/// examples, with every tenth request a TOPK. `pick(i)` chooses the
/// model of request `i`. Stops after `limit` requests or once `stop` is
/// raised, whichever is first.
pub fn read_closed(
    stream: &mut TcpStream,
    holdout: &[Example],
    first: usize,
    limit: usize,
    stop: Option<&AtomicBool>,
    mut pick: impl FnMut(usize) -> u32,
) -> ReadLog {
    let mut log = ReadLog::default();
    let start = Instant::now();
    for i in first..first.saturating_add(limit) {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        let model = pick(i);
        let topk = i % 10 == 9;
        let body = if topk {
            topk_body(model)
        } else {
            predict_body(model, &holdout[i % holdout.len()].0)
        };
        let t = Instant::now();
        if call(stream, &body).is_some() {
            log.ops.push(ReadOp {
                done_ns: ns(start.elapsed()),
                latency_ns: ns(t.elapsed()),
                topk,
            });
        } else {
            log.failed += 1;
        }
    }
    log
}

/// The served model's view of the held-out slice and its top-K, read
/// after ingest has finished.
pub struct Evaluation {
    pub margins: Vec<f64>,
    pub labels: Vec<i8>,
    pub top: Vec<WeightEntry>,
}

/// PREDICTs every held-out example and asks for the top-K once.
pub fn evaluate(stream: &mut TcpStream, model: u32, holdout: &[Example]) -> Option<Evaluation> {
    let mut margins = Vec::with_capacity(holdout.len());
    let mut labels = Vec::with_capacity(holdout.len());
    for (x, _) in holdout {
        let (m, y) = parse_predict(&call(stream, &predict_body(model, x))?)?;
        margins.push(m);
        labels.push(y);
    }
    let top = parse_topk(&call(stream, &topk_body(model))?)?;
    Some(Evaluation {
        margins,
        labels,
        top,
    })
}

/// Share of held-out examples whose served label is right.
pub fn accuracy(eval: &Evaluation, holdout: &[Example]) -> f64 {
    let right = eval
        .labels
        .iter()
        .zip(holdout)
        .filter(|(y, (_, truth))| *y == truth)
        .count();
    right as f64 / holdout.len().max(1) as f64
}

/// A client for setup and inspection.
pub fn client(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(addr).expect("connect control client")
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
