//! The readiness-driven serve backend: one nonblocking I/O loop over a
//! raw-`epoll` [`Poller`](crate::poller::Poller), a small executor pool,
//! and per-model work queues.
//!
//! ## Architecture
//!
//! ```text
//!             ┌────────────────────────────  I/O loop thread  ─┐
//!  sockets ──▶│ epoll wait → read → FrameAssembler → classify  │
//!             │        ▲                                 │     │
//!             │  write responses (per-connection order)  ▼     │
//!             └────────┼──────────────────── per-model queues ─┘
//!                      │ completions (eventfd wake)       │
//!             ┌────────┴───────────  executor pool  ──────▼────┐
//!             │ pop one job from a queue → handle_request      │
//!             │ (decode → learner lock → respond)              │
//!             └─────────────────────────────────────────────────┘
//! ```
//!
//! * **Pipelining** — a connection may send frame N+1 without waiting
//!   for frame N's response; the loop reads and queues ahead while
//!   executors run the learner. Responses are written back in request
//!   order per connection (sequence-numbered slots), so a pipelined
//!   client reads exactly the response stream a blocking client would.
//! * **One request path** — an executor claims one job at a time and
//!   runs its body through the same `handle_request` the threaded
//!   backend calls, so every op (UPDATE included) decodes, locks,
//!   executes, and records telemetry identically on both backends.
//! * **Ordering** — all ops addressing one model share that model's FIFO
//!   queue, so `UPDATE … UPDATE, ESTIMATE` from one connection executes
//!   in order even when pipelined. Registry-level ops (CREATE, LIST,
//!   SHUTDOWN) and requests for unresolvable models share a misc FIFO;
//!   an UPDATE pipelined behind the CREATE that registers its model
//!   lands on the misc queue too (resolution fails until CREATE runs)
//!   and therefore still executes after it.
//! * **Backpressure** — a connection with [`MAX_PIPELINE_DEPTH`]
//!   queued-but-unanswered requests has its read interest dropped until
//!   responses drain; the kernel's TCP window then pushes back on the
//!   client. Transient accept/registration failures (fd exhaustion) back
//!   off for [`ACCEPT_BACKOFF`] with listener interest masked, so the
//!   level-triggered poller doesn't spin a core on a hot listener.
//!
//! Memory per idle connection is one `Conn` (retained assembler scratch
//! plus bookkeeping) — no thread, no stack — which is what lets one node
//! hold tens of thousands of connections within ordinary fd limits.

#![cfg(target_os = "linux")]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wmsketch_hashing::codec::Reader;

use crate::poller::{Event, Poller, Waker, EVENT_READ, EVENT_WRITE};
use crate::protocol::{
    take_request_head, ExamplesScratch, FrameAssembler, OP_CREATE, OP_LIST, OP_METRICS,
    OP_PEER_JOIN, OP_SHUTDOWN,
};
use crate::server::{
    accept_loop, encode_response, handle_request, is_shutdown_request, resolve_model, ServerState,
};

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the executor-completion waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Backoff after accept or poller-registration failures (EMFILE-style fd
/// exhaustion): the same 10 ms the threaded accept loop uses, with
/// listener interest masked so level triggering doesn't spin meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Most queued-but-unanswered requests per connection before its read
/// interest is dropped (resumed at half).
const MAX_PIPELINE_DEPTH: usize = 128;

/// Upper bound on the idle epoll wait, so the loop re-checks the
/// shutdown flag at least this often (the event backend's analog of the
/// threaded backend's read-timeout poll).
const WAIT_TIMEOUT_MS: i32 = 100;

/// How long the shutdown drain waits for in-flight jobs to complete and
/// their responses to flush.
const DRAIN_DEADLINE: Duration = Duration::from_millis(2_000);

/// Which queue a job executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WorkKey {
    /// All ops addressing one resolved model: that model's FIFO.
    Model(u32),
    /// Registry-level ops and unresolvable requests.
    Misc,
}

/// One queued request.
struct Job {
    /// Connection the response goes back to.
    token: u64,
    /// Position in that connection's request order.
    seq: u64,
    /// The request frame body, undecoded.
    body: Vec<u8>,
}

/// An executed job's response, routed back to its connection slot.
struct Completion {
    token: u64,
    seq: u64,
    response: Vec<u8>,
    /// The request was an honored OP_SHUTDOWN: close this connection
    /// once the response flushes (matching the threaded backend).
    shutdown: bool,
}

/// One model's FIFO plus its scheduling flags.
#[derive(Default)]
struct ModelQueue {
    jobs: VecDeque<Job>,
    /// An executor currently owns this queue (at most one, which is what
    /// serializes a model's jobs).
    in_service: bool,
    /// The key is already on the ready list (at most one entry per key).
    queued: bool,
}

/// All queues plus the executor stop flag, behind one mutex.
#[derive(Default)]
struct Queues {
    models: HashMap<u32, ModelQueue>,
    misc: VecDeque<Job>,
    misc_in_service: bool,
    misc_queued: bool,
    /// Keys with runnable work and no executor on them.
    ready: VecDeque<WorkKey>,
    /// Set at drain: executors finish the backlog and exit.
    stop: bool,
}

impl Queues {
    fn enqueue(&mut self, key: WorkKey, job: Job) {
        match key {
            WorkKey::Model(id) => {
                let mq = self.models.entry(id).or_default();
                mq.jobs.push_back(job);
                if !mq.in_service && !mq.queued {
                    mq.queued = true;
                    self.ready.push_back(key);
                }
            }
            WorkKey::Misc => {
                self.misc.push_back(job);
                if !self.misc_in_service && !self.misc_queued {
                    self.misc_queued = true;
                    self.ready.push_back(key);
                }
            }
        }
    }

    /// Claims the front job of the first ready queue, marking that queue
    /// in service until [`Queues::release`].
    fn take_job(&mut self) -> Option<(WorkKey, Job)> {
        while let Some(key) = self.ready.pop_front() {
            match key {
                WorkKey::Model(id) => {
                    let Some(mq) = self.models.get_mut(&id) else {
                        continue;
                    };
                    mq.queued = false;
                    if let Some(job) = mq.jobs.pop_front() {
                        mq.in_service = true;
                        return Some((key, job));
                    }
                }
                WorkKey::Misc => {
                    self.misc_queued = false;
                    if let Some(job) = self.misc.pop_front() {
                        self.misc_in_service = true;
                        return Some((key, job));
                    }
                }
            }
        }
        None
    }

    /// Returns the queue to the scheduler after an executor finishes with
    /// it; re-readies it if more jobs arrived meanwhile, and reclaims
    /// empty per-model queues (bogus model ids must not accrete state).
    fn release(&mut self, key: WorkKey) {
        match key {
            WorkKey::Model(id) => {
                let requeue = {
                    let Some(mq) = self.models.get_mut(&id) else {
                        return;
                    };
                    mq.in_service = false;
                    if mq.jobs.is_empty() {
                        self.models.remove(&id);
                        false
                    } else if !mq.queued {
                        mq.queued = true;
                        true
                    } else {
                        false
                    }
                };
                if requeue {
                    self.ready.push_back(key);
                }
            }
            WorkKey::Misc => {
                self.misc_in_service = false;
                if !self.misc.is_empty() && !self.misc_queued {
                    self.misc_queued = true;
                    self.ready.push_back(key);
                }
            }
        }
    }
}

/// State shared between the I/O loop and the executor pool.
struct Shared {
    state: Arc<ServerState>,
    queues: Mutex<Queues>,
    work_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// One connection's loop-side state. No thread, no stack — this struct
/// (plus kernel socket buffers) is the whole per-connection footprint.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Response slots in request order; a slot's response arrives out of
    /// band from an executor and is written out only when it reaches the
    /// front.
    slots: VecDeque<Slot>,
    next_seq: u64,
    /// Pending response bytes (`wbuf[wpos..]` unwritten).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Read interest dropped until the pipeline drains below half depth.
    paused: bool,
    /// Peer sent EOF; finish pending responses, then close.
    peer_closed: bool,
    /// Protocol violation (oversized frame): stop reading, flush what's
    /// owed, then close.
    read_dead: bool,
    /// An honored OP_SHUTDOWN response is queued for this connection.
    close_after_flush: bool,
    /// Currently registered interest mask (avoids redundant epoll_ctl).
    interest: u32,
}

struct Slot {
    seq: u64,
    response: Option<Vec<u8>>,
    shutdown: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(),
            slots: VecDeque::new(),
            next_seq: 0,
            wbuf: Vec::new(),
            wpos: 0,
            paused: false,
            peer_closed: false,
            read_dead: false,
            close_after_flush: false,
            interest: EVENT_READ,
        }
    }

    fn reading(&self) -> bool {
        !(self.paused || self.peer_closed || self.read_dead || self.close_after_flush)
    }
}

/// Runs the event backend until shutdown. If the poller itself cannot be
/// set up (no epoll fds left, exotic kernel), falls back to the threaded
/// accept loop rather than leaving the server dead.
pub(crate) fn run(listener: TcpListener, state: &Arc<ServerState>) {
    match EventLoop::new(listener, Arc::clone(state)) {
        Ok(mut ev) => ev.run(),
        Err((listener, _err)) => {
            let _ = listener.set_nonblocking(false);
            accept_loop(&listener, state);
        }
    }
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    executors: Vec<std::thread::JoinHandle<()>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Jobs enqueued whose completions haven't been applied yet.
    outstanding: usize,
    accept_backoff: Option<Instant>,
    /// Read scratch, reused across every connection's reads.
    rbuf: Vec<u8>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        state: Arc<ServerState>,
    ) -> Result<Self, (TcpListener, std::io::Error)> {
        let setup = (|| {
            let poller = Poller::new()?;
            let waker = Waker::new()?;
            listener.set_nonblocking(true)?;
            poller.add(&listener, TOKEN_LISTENER, EVENT_READ)?;
            poller.add(&waker, TOKEN_WAKER, EVENT_READ)?;
            Ok::<_, std::io::Error>((poller, waker))
        })();
        let (poller, waker) = match setup {
            Ok(x) => x,
            Err(e) => return Err((listener, e)),
        };
        let shared = Arc::new(Shared {
            state,
            queues: Mutex::new(Queues::default()),
            work_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        let executors = (0..executor_count())
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_main(&shared))
            })
            .collect();
        Ok(Self {
            listener,
            poller,
            shared,
            executors,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            outstanding: 0,
            accept_backoff: None,
            rbuf: vec![0u8; 64 * 1024],
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout = match self.accept_backoff {
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    (left.as_millis() as i32).clamp(1, WAIT_TIMEOUT_MS)
                }
                None => WAIT_TIMEOUT_MS,
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // epoll_wait itself failing is unrecoverable; drain and
                // exit rather than spinning on a broken poller.
                break;
            }
            if let Some(until) = self.accept_backoff {
                if Instant::now() >= until {
                    self.accept_backoff = None;
                    let _ = self
                        .poller
                        .modify(&self.listener, TOKEN_LISTENER, EVENT_READ);
                    self.try_accept();
                }
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if self.accept_backoff.is_none() {
                            self.try_accept();
                        }
                    }
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => {
                        if ev.readable() {
                            self.handle_readable(token);
                        } else if ev.writable() {
                            self.finish_conn_io(token);
                        }
                    }
                }
            }
            self.apply_completions();
        }
        self.drain();
    }

    /// Accepts until the backlog is empty; any failure — accept itself or
    /// registering the new socket with the poller — enters the shared
    /// 10 ms backoff with listener interest masked (fd exhaustion recovers
    /// when connections close; spinning would starve that).
    fn try_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    match self.poller.add(&stream, token, EVENT_READ) {
                        Ok(()) => {
                            self.next_token += 1;
                            self.conns.insert(token, Conn::new(stream));
                            self.shared.state.metrics.connections.inc();
                        }
                        Err(_) => {
                            drop(stream);
                            self.enter_accept_backoff();
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.enter_accept_backoff();
                    return;
                }
            }
        }
    }

    /// Removes a connection, keeping the open/paused gauges in sync with
    /// the map — every removal path funnels through here so a paused
    /// connection can't leak its backpressure gauge.
    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.shared.state.metrics.connections.dec();
            if conn.paused {
                self.shared.state.metrics.paused_connections.dec();
            }
        }
    }

    fn enter_accept_backoff(&mut self) {
        self.accept_backoff = Some(Instant::now() + ACCEPT_BACKOFF);
        let _ = self.poller.modify(&self.listener, TOKEN_LISTENER, 0);
    }

    /// Reads until the socket would block, feeding the assembler and
    /// enqueueing every completed frame.
    fn handle_readable(&mut self, token: u64) {
        let mut rbuf = std::mem::take(&mut self.rbuf);
        let mut fatal = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            while conn.reading() {
                match conn.stream.read(&mut rbuf) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.assembler.push(&rbuf[..n]);
                        if process_frames(conn, token, &self.shared, &mut self.outstanding).is_err()
                        {
                            conn.read_dead = true;
                            break;
                        }
                        if n < rbuf.len() {
                            // Short read: the kernel buffer is (almost
                            // certainly) drained; level triggering re-arms
                            // us if not.
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        self.rbuf = rbuf;
        if fatal {
            self.remove_conn(token);
            return;
        }
        self.finish_conn_io(token);
    }

    /// Moves in-order completed responses into the write buffer, flushes
    /// what the socket will take, re-arms interest, and closes the
    /// connection once it's finished and flushed.
    fn finish_conn_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Promote front slots whose responses have arrived.
        while let Some(front) = conn.slots.front_mut() {
            let Some(resp) = front.response.take() else {
                break;
            };
            if front.shutdown {
                conn.close_after_flush = true;
            }
            conn.wbuf
                .extend_from_slice(&(resp.len() as u32).to_le_bytes());
            conn.wbuf.extend_from_slice(&resp);
            self.shared
                .state
                .metrics
                .bytes_tx
                .add(resp.len() as u64 + 4);
            conn.slots.pop_front();
        }
        if conn.paused && conn.slots.len() < MAX_PIPELINE_DEPTH / 2 {
            conn.paused = false;
            self.shared.state.metrics.paused_connections.dec();
        }
        // `net.frame_write` failpoint: the requests behind these pending
        // bytes were applied, but the responses die with the connection —
        // the same applied-but-unacked ambiguity a crashed NIC produces,
        // which the self-healing client resolves by probing the model
        // clock. Checked after slot promotion so it maps to the threaded
        // backend's post-dispatch injection point.
        if conn.wpos < conn.wbuf.len()
            && wmsketch_faults::check(wmsketch_faults::NET_FRAME_WRITE).is_some()
        {
            self.remove_conn(token);
            return;
        }
        // Flush.
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.remove_conn(token);
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.remove_conn(token);
                    return;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        // Close when nothing is owed and nothing more will be read.
        let flushed = conn.wbuf.is_empty() && conn.slots.is_empty();
        if flushed && (conn.peer_closed || conn.read_dead || conn.close_after_flush) {
            self.remove_conn(token);
            return;
        }
        // Re-arm interest.
        let mut want = 0;
        if conn.reading() {
            want |= EVENT_READ;
        }
        if conn.wpos < conn.wbuf.len() {
            want |= EVENT_WRITE;
        }
        if want != conn.interest {
            if self.poller.modify(&conn.stream, token, want).is_err() {
                self.remove_conn(token);
                return;
            }
            conn.interest = want;
        }
    }

    /// Applies executor completions to their connections' slots, then
    /// pumps each touched connection's writes.
    fn apply_completions(&mut self) {
        let comps = std::mem::take(&mut *self.shared.completions.lock().expect("completions"));
        if comps.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(comps.len().min(16));
        for c in comps {
            self.outstanding -= 1;
            let Some(conn) = self.conns.get_mut(&c.token) else {
                continue; // connection died while the job was in flight
            };
            if let Some(slot) = conn.slots.iter_mut().find(|s| s.seq == c.seq) {
                slot.response = Some(c.response);
                slot.shutdown = c.shutdown;
            }
            if touched.last() != Some(&c.token) {
                touched.push(c.token);
            }
        }
        self.shared
            .state
            .metrics
            .queue_depth
            .set(self.outstanding as i64);
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.finish_conn_io(token);
        }
    }

    /// Graceful drain: stop reading new requests, let executors finish
    /// the backlog, flush every owed response, then join the pool.
    fn drain(&mut self) {
        let drain_started = Instant::now();
        let executor_count = self.executors.len() as u64;
        {
            let mut q = self.shared.queues.lock().expect("queues");
            q.stop = true;
        }
        self.shared.work_ready.notify_all();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events: Vec<Event> = Vec::new();
        while self.outstanding > 0 && Instant::now() < deadline {
            let _ = self.poller.wait(&mut events, 20);
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.shared.waker.drain(),
                    TOKEN_LISTENER => {}
                    token => self.finish_conn_io(token),
                }
            }
            self.apply_completions();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        self.apply_completions();
        // Flush every owed response until the sockets take them or the
        // deadline expires. Every completion is in its slot by now (the
        // executors drained their backlog before exiting), so a response
        // still unwritten is only waiting on socket writability — a
        // single pass would drop already-computed responses whenever a
        // full pipeline window's worth of bytes exceeds what one
        // non-blocking write can move (the kernel send buffer fills and
        // returns WouldBlock). Keep pumping writability until every
        // connection is flushed.
        loop {
            let pending: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    c.wpos < c.wbuf.len() || c.slots.iter().any(|s| s.response.is_some())
                })
                .map(|(&t, _)| t)
                .collect();
            if pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            for token in pending {
                self.finish_conn_io(token);
            }
            // Wait for writability (or the slice of deadline left) before
            // the next pass, so a slow reader doesn't spin this loop.
            let _ = self.poller.wait(&mut events, 20);
        }
        self.shared
            .state
            .metrics
            .journal
            .push("drain", executor_count, drain_started);
    }
}

/// Pulls every completed frame out of a connection's assembler,
/// classifies it, and enqueues the job. `Err` means a protocol
/// violation (oversized frame): the stream is beyond recovery.
fn process_frames(
    conn: &mut Conn,
    token: u64,
    shared: &Shared,
    outstanding: &mut usize,
) -> Result<(), ()> {
    loop {
        match conn.assembler.next_frame() {
            Ok(Some(body)) => {
                let nm = &shared.state.metrics;
                nm.frames_rx.inc();
                nm.bytes_rx.add(body.len() as u64 + 4);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.slots.push_back(Slot {
                    seq,
                    response: None,
                    shutdown: false,
                });
                let key = classify(&shared.state, &body);
                {
                    let mut q = shared.queues.lock().expect("queues");
                    q.enqueue(key, Job { token, seq, body });
                }
                shared.work_ready.notify_one();
                *outstanding += 1;
                nm.queue_depth.set(*outstanding as i64);
                if conn.slots.len() >= MAX_PIPELINE_DEPTH {
                    conn.paused = true;
                    nm.paused_connections.inc();
                    return Ok(());
                }
            }
            Ok(None) => return Ok(()),
            Err(_) => return Err(()),
        }
    }
}

/// Routes one request body to its queue. Ops addressing a resolvable
/// model ride that model's queue, so per-model order is preserved;
/// registry ops, unresolvable models and malformed headers go to the
/// misc queue.
fn classify(state: &ServerState, body: &[u8]) -> WorkKey {
    let Ok(head) = take_request_head(&mut Reader::new(body)) else {
        return WorkKey::Misc;
    };
    // Registry-level ops (OP_PEER_JOIN included — it touches the peer
    // table, not a model; OP_METRICS scrapes the whole node) share the
    // misc FIFO. The replication model ops (OP_PULL_DELTA, OP_ACK) fall
    // through to the model queue below, so they order against pipelined
    // UPDATE/MERGE traffic on their model.
    if matches!(
        head.op,
        OP_CREATE | OP_LIST | OP_SHUTDOWN | OP_PEER_JOIN | OP_METRICS
    ) {
        return WorkKey::Misc;
    }
    match resolve_model(state, head.model) {
        Ok(entry) => WorkKey::Model(entry.id),
        Err(_) => WorkKey::Misc,
    }
}

/// Executor thread: claim one job, run it through `handle_request`,
/// publish the completion, wake the loop. Exits when the stop flag is set
/// *and* the backlog is empty.
fn executor_main(shared: &Shared) {
    let mut scratch = ExamplesScratch::new();
    let mut finished: Option<WorkKey> = None;
    loop {
        let (key, job) = {
            let mut q = shared.queues.lock().expect("queues");
            // Releasing the last queue and claiming the next job under one
            // lock lets this executor carry on with a busy model's queue
            // itself; another executor is woken only for work left over,
            // so one model's frames do not bounce between cores.
            if let Some(key) = finished.take() {
                q.release(key);
            }
            let claimed = loop {
                if let Some(claimed) = q.take_job() {
                    break claimed;
                }
                if q.stop {
                    return;
                }
                q = shared.work_ready.wait(q).expect("queues");
            };
            if !q.ready.is_empty() {
                shared.work_ready.notify_one();
            }
            claimed
        };
        let result = handle_request(&job.body, &shared.state, &mut scratch);
        let completion = Completion {
            token: job.token,
            seq: job.seq,
            shutdown: result.is_ok() && is_shutdown_request(&job.body),
            response: encode_response(result),
        };
        shared
            .completions
            .lock()
            .expect("completions")
            .push(completion);
        shared.waker.wake();
        finished = Some(key);
    }
}

/// Executor-pool size: the host's parallelism capped at 4 (learner work
/// is lock-serialized per model; a huge pool only adds contention).
fn executor_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, 4)
}
