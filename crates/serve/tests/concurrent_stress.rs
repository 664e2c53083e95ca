//! Concurrency stress for the serve node: 64 pipelined connections
//! (63 sessions on private models plus one on the default model)
//! hammering one node, asserting
//! per-connection response ordering and bit-exact final-state parity
//! with the same streams ingested over a single blocking connection —
//! plus thousands of idle connections coexisting with an active one, and
//! a flood of unread replies that must not stall other connections.

use std::io::Write;
use std::net::TcpStream;

use wmsketch_core::{
    decode_any_learner, AwmSketch, AwmSketchConfig, SnapshotCodec, WmSketch, WmSketchConfig,
};
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::protocol::{
    put_examples, read_frame, request_for_model, write_frame, OP_ESTIMATE, OP_MERGE, OP_SNAPSHOT,
    OP_UPDATE, STATUS_ERR, STATUS_OK,
};
use wmsketch_serve::{ServeBackend, ServeClient, ServeConfig, ServerHandle, WmServer};

const CONNS: usize = 64;
const FRAME: usize = 64;
const FRAMES_PER_CONN: usize = 8;
const EXAMPLES_PER_CONN: usize = FRAME * FRAMES_PER_CONN;

fn default_model() -> ServeConfig {
    ServeConfig::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(40), 1)
}

fn start(cfg: ServeConfig) -> ServerHandle {
    WmServer::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// Connection `i`'s private stream: a planted signal pair plus
/// connection-dependent noise, labels in `{+1, -1}`.
fn stream_for(i: usize) -> Vec<(SparseVector, Label)> {
    (0..EXAMPLES_PER_CONN)
        .map(|t| {
            let noise = 100 + ((i * 31 + t * 17) % 400) as u32;
            if (i + t).is_multiple_of(2) {
                (SparseVector::from_pairs(&[(3, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(9, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

/// Creates connection `i`'s model on a node — the model mix alternates
/// WM and AWM templates, created with `shards` 0 and 1 (both one
/// learner) — and returns a client addressing it.
fn create_model_for(server: &ServerHandle, i: usize) -> ServeClient {
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let name = format!("m{i}");
    let shards = (i / 2 % 2) as u32;
    let t = if i.is_multiple_of(2) {
        WmSketch::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(i as u64)).to_snapshot_bytes()
    } else {
        AwmSketch::new(AwmSketchConfig::new(8, 64).lambda(1e-5).seed(i as u64)).to_snapshot_bytes()
    };
    let id = c.create_model(&name, &t, shards).unwrap();
    c.set_model(id).unwrap();
    c
}

#[test]
fn sixty_four_pipelined_connections_order_and_parity() {
    let stress = start(default_model());

    // 63 sessions on created models in parallel threads; the
    // default-model session runs on this thread concurrently.
    let snapshots: Vec<(usize, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..CONNS)
            .map(|i| {
                let stress = &stress;
                s.spawn(move || {
                    let mut c = create_model_for(stress, i);
                    let data = stream_for(i);
                    // Odd connections fire the whole pipeline in one
                    // coalesced write burst; even ones keep a small
                    // rolling window.
                    let window = if i % 2 == 1 { FRAMES_PER_CONN } else { 3 };
                    let counts = c.update_many(&data, FRAME, window).unwrap();
                    // Response-ordering guarantee: cumulative counts come
                    // back strictly in frame order.
                    assert_eq!(counts.len(), FRAMES_PER_CONN);
                    for (k, &n) in counts.iter().enumerate() {
                        assert_eq!(n, (FRAME * (k + 1)) as u64, "conn {i} frame {k}");
                    }
                    (i, c.snapshot().unwrap())
                })
            })
            .collect();

        let mut default = ServeClient::connect(stress.addr()).unwrap();
        let default_counts = default
            .update_many(&stream_for(0), FRAME, FRAMES_PER_CONN)
            .unwrap();
        for (k, &n) in default_counts.iter().enumerate() {
            assert_eq!(n, (FRAME * (k + 1)) as u64, "default-model frame {k}");
        }

        let mut out: Vec<(usize, Vec<u8>)> = handles
            .into_iter()
            .map(|h| h.join().expect("stress connection"))
            .collect();
        out.push((0, default.snapshot().unwrap()));
        out
    });

    // Node-wide accounting: every frame from every connection executed,
    // each under exactly one learner-lock acquisition.
    let mut observer = ServeClient::connect(stress.addr()).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.update_frames, (CONNS * FRAMES_PER_CONN) as u64);
    assert_eq!(stats.update_lock_acquisitions, stats.update_frames);

    // Parity: one quiet node, one blocking connection, same models, same
    // streams, same frame boundaries — every model must match the
    // stressed node bit for bit.
    let quiet = start(default_model());
    let mut reference: Vec<(usize, Vec<u8>)> = (1..CONNS)
        .map(|i| {
            let mut c = create_model_for(&quiet, i);
            for chunk in stream_for(i).chunks(FRAME) {
                c.update_batch(chunk).unwrap();
            }
            (i, c.snapshot().unwrap())
        })
        .collect();
    let mut quiet_default = ServeClient::connect(quiet.addr()).unwrap();
    for chunk in stream_for(0).chunks(FRAME) {
        quiet_default.update_batch(chunk).unwrap();
    }
    reference.push((0, quiet_default.snapshot().unwrap()));

    let by_conn = |v: &mut Vec<(usize, Vec<u8>)>| v.sort_by_key(|(i, _)| *i);
    let mut got = snapshots;
    by_conn(&mut got);
    by_conn(&mut reference);
    for ((i, a), (j, b)) in got.iter().zip(reference.iter()) {
        assert_eq!(i, j);
        assert_eq!(a, b, "conn {i} model diverged from blocking reference");
    }

    stress.shutdown();
    quiet.shutdown();
}

/// The event loop's reason to exist: thousands of connections held open
/// by one node without a thread each. Idle sockets must cost only their
/// registration — an active session threading between them keeps full
/// service.
#[test]
fn thousands_of_idle_connections_dont_starve_an_active_one() {
    // Half the sockets live in this (client) process too, so stay well
    // inside typical fd limits while still far beyond any thread-per-
    // connection design's comfort zone.
    const IDLE: usize = 4096;

    let server = start(default_model());
    let mut idle: Vec<TcpStream> = Vec::with_capacity(IDLE);
    for k in 0..IDLE {
        idle.push(TcpStream::connect(server.addr()).unwrap_or_else(|e| {
            panic!("idle connection {k} refused: {e}");
        }));
    }

    let mut active = ServeClient::connect(server.addr()).unwrap();
    let data = stream_for(7);
    let counts = active.update_many(&data, FRAME, FRAMES_PER_CONN).unwrap();
    assert_eq!(counts.last().copied(), Some(EXAMPLES_PER_CONN as u64));
    assert!(active.estimate(3).unwrap() > 0.0);
    let stats = active.stats().unwrap();
    assert_eq!(stats.backend, ServeBackend::Event);
    assert_eq!(stats.update_frames, FRAMES_PER_CONN as u64);

    drop(idle);
    server.shutdown();
}

/// Builds the raw wire bytes of one v2 request frame.
fn raw_frame(model: u32, op: u8, payload: wmsketch_hashing::codec::Writer) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &request_for_model(model, op, payload)).expect("in-memory frame");
    wire
}

/// Reads one OK response and returns its leading u64.
fn read_ok_u64(stream: &mut TcpStream, what: &str) -> u64 {
    let resp = read_frame(stream)
        .expect("read response frame")
        .unwrap_or_else(|| panic!("{what}: connection closed before the response"));
    assert_eq!(
        resp[0],
        STATUS_OK,
        "{what}: {}",
        String::from_utf8_lossy(&resp[1..])
    );
    u64::from_le_bytes(resp[1..9].try_into().expect("u64 response"))
}

/// Reads one response and asserts it is an ERR.
fn read_err(stream: &mut TcpStream, what: &str) {
    let resp = read_frame(stream)
        .expect("read response frame")
        .unwrap_or_else(|| panic!("{what}: connection closed before the response"));
    assert_eq!(resp[0], STATUS_ERR, "{what}: expected ERR");
}

/// Malformed UPDATE frames pipelined between valid ones — one cut short,
/// one with a label outside the binary domain — each get their ERR in
/// position, the valid frames around them are answered in order, and the
/// model ends byte-equal to a twin fed only the valid frames.
#[test]
fn malformed_update_between_pipelined_updates_errs_in_position_event() {
    let data = stream_for(6);
    let chunks: Vec<_> = data.chunks(FRAME).take(4).collect();
    let valid = |chunk: &[(SparseVector, Label)]| {
        let mut w = wmsketch_hashing::codec::Writer::new();
        put_examples(&mut w, chunk);
        raw_frame(0, OP_UPDATE, w)
    };
    let mut truncated = request_for_model(0, OP_UPDATE, {
        let mut w = wmsketch_hashing::codec::Writer::new();
        put_examples(&mut w, chunks[0]);
        w
    });
    truncated.pop();
    let mut bad_label = wmsketch_hashing::codec::Writer::new();
    put_examples(&mut bad_label, &[(SparseVector::one_hot(3, 1.0), 2)]);

    let mut wire = Vec::new();
    wire.extend_from_slice(&valid(chunks[0]));
    wire.extend_from_slice(&valid(chunks[1]));
    write_frame(&mut wire, &truncated).expect("in-memory frame");
    wire.extend_from_slice(&valid(chunks[2]));
    wire.extend_from_slice(&raw_frame(0, OP_UPDATE, bad_label));
    wire.extend_from_slice(&valid(chunks[3]));

    let server = start(default_model());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.write_all(&wire).unwrap();
    assert_eq!(read_ok_u64(&mut raw, "frame 0"), FRAME as u64);
    assert_eq!(read_ok_u64(&mut raw, "frame 1"), 2 * FRAME as u64);
    read_err(&mut raw, "truncated frame");
    assert_eq!(read_ok_u64(&mut raw, "frame 2"), 3 * FRAME as u64);
    read_err(&mut raw, "bad-label frame");
    assert_eq!(read_ok_u64(&mut raw, "frame 3"), 4 * FRAME as u64);
    drop(raw);

    let twin = start(default_model());
    let mut t = ServeClient::connect(twin.addr()).unwrap();
    for chunk in &chunks {
        t.update_batch(chunk).unwrap();
    }
    let mut c = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(
        c.snapshot().unwrap(),
        t.snapshot().unwrap(),
        "malformed frames changed the model"
    );
    server.shutdown();
    twin.shutdown();
}

/// An OP_MERGE dropped into the middle of a pipelined burst of same-model
/// UPDATE frames must retire strictly in frame order — the merged clock
/// lands between the two UPDATE runs, the post-merge counts resume where
/// the pre-merge run left off, and the final state matches a blocking
/// client doing the same sequence. Exercised with CREATE's `shards` at 0
/// and 1, which both host one learner (UPDATE counts include absorbed
/// peers).
fn merge_between_pipelined_updates(shards: u32) {
    const K: usize = 4;
    let template =
        WmSketch::new(WmSketchConfig::new(64, 2).lambda(1e-5).seed(77)).to_snapshot_bytes();
    let mut peer = decode_any_learner(&template).unwrap();
    peer.update_batch(&stream_for(9)[..100]);
    let peer_snapshot = peer.snapshot().unwrap();

    let data = stream_for(5);
    let chunks: Vec<_> = data.chunks(FRAME).collect();
    assert!(chunks.len() >= 2 * K);

    let server = start(default_model());
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let id = c.create_model("fifo", &template, shards).unwrap();

    // One coalesced write: K UPDATE frames, the MERGE, K more UPDATEs —
    // nothing is read until the whole burst is on the wire.
    let mut wire = Vec::new();
    for chunk in &chunks[..K] {
        let mut w = wmsketch_hashing::codec::Writer::new();
        put_examples(&mut w, chunk);
        wire.extend_from_slice(&raw_frame(id, OP_UPDATE, w));
    }
    let mut w = wmsketch_hashing::codec::Writer::new();
    w.put_bytes(&peer_snapshot);
    wire.extend_from_slice(&raw_frame(id, OP_MERGE, w));
    for chunk in &chunks[K..2 * K] {
        let mut w = wmsketch_hashing::codec::Writer::new();
        put_examples(&mut w, chunk);
        wire.extend_from_slice(&raw_frame(id, OP_UPDATE, w));
    }
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.write_all(&wire).unwrap();

    // UPDATE responses count absorbed peers: a plain learner's clock and
    // example count are one number.
    for k in 0..K {
        let n = read_ok_u64(&mut raw, "pre-merge update");
        assert_eq!(n, (FRAME * (k + 1)) as u64, "pre-merge frame {k}");
    }
    let merged = read_ok_u64(&mut raw, "merge");
    assert_eq!(
        merged,
        (FRAME * K + 100) as u64,
        "merge retired out of order"
    );
    for k in 0..K {
        let n = read_ok_u64(&mut raw, "post-merge update");
        assert_eq!(
            n,
            (FRAME * (K + k + 1) + 100) as u64,
            "post-merge frame {k}"
        );
    }
    drop(raw);

    // Parity: a blocking client replaying the same sequence on a quiet
    // node must land on the same bytes.
    let quiet = start(default_model());
    let mut q = ServeClient::connect(quiet.addr()).unwrap();
    let qid = q.create_model("fifo", &template, shards).unwrap();
    q.set_model(qid).unwrap();
    for chunk in &chunks[..K] {
        q.update_batch(chunk).unwrap();
    }
    q.merge_snapshot(&peer_snapshot).unwrap();
    for chunk in &chunks[K..2 * K] {
        q.update_batch(chunk).unwrap();
    }
    c.set_model(id).unwrap();
    assert_eq!(
        c.snapshot().unwrap(),
        q.snapshot().unwrap(),
        "pipelined MERGE interleave diverged from the blocking replay"
    );

    server.shutdown();
    quiet.shutdown();
}

#[test]
fn merge_between_pipelined_updates_is_fifo_event() {
    merge_between_pipelined_updates(0);
    merge_between_pipelined_updates(1);
}

/// Backpressure: a raw connection pipelines 1000 SNAPSHOT requests for
/// an 8 KB WM model (about 16 KB a reply, far more than the socket
/// buffers hold) and reads none of the replies. Another connection's
/// ESTIMATE must still be answered within a deadline, and the raw
/// connection must then read every reply, in order and complete. A loop
/// that blocked on the full socket would wedge a one-thread node.
#[test]
fn unread_snapshot_flood_does_not_wedge_the_node_event() {
    const SNAPSHOTS: usize = 1000;
    let server = start(default_model());
    let template =
        WmSketch::new(WmSketchConfig::new(128, 14).heap_capacity(128).seed(8)).to_snapshot_bytes();
    let mut c = ServeClient::connect(server.addr()).unwrap();
    let id = c.create_model("flood", &template, 0).unwrap();
    c.set_model(id).unwrap();
    c.update_batch(&stream_for(2)).unwrap();
    let expected = c.snapshot().unwrap();
    assert!(
        expected.len() * SNAPSHOTS > 8 << 20,
        "replies must overflow the socket buffers"
    );

    let mut flood = TcpStream::connect(server.addr()).unwrap();
    flood.set_nodelay(true).unwrap();
    let wire = raw_frame(id, OP_SNAPSHOT, wmsketch_hashing::codec::Writer::new()).repeat(SNAPSHOTS);
    flood.write_all(&wire).unwrap();
    // Probe only once the node is answering the flood: the first reply
    // bytes have reached the unread socket.
    flood
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    flood
        .peek(&mut [0u8; 1])
        .expect("the node never answered the flood");

    let mut probe = TcpStream::connect(server.addr()).unwrap();
    probe.set_nodelay(true).unwrap();
    probe
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut w = wmsketch_hashing::codec::Writer::new();
    w.put_u32(3);
    probe.write_all(&raw_frame(id, OP_ESTIMATE, w)).unwrap();
    let resp = read_frame(&mut probe)
        .expect("ESTIMATE not answered while another connection's replies sat unread")
        .expect("probe connection closed");
    assert_eq!(
        resp[0],
        STATUS_OK,
        "{}",
        String::from_utf8_lossy(&resp[1..])
    );

    for k in 0..SNAPSHOTS {
        let resp = read_frame(&mut flood)
            .expect("read snapshot reply")
            .unwrap_or_else(|| panic!("connection closed before reply {k}"));
        assert_eq!(resp[0], STATUS_OK, "reply {k}");
        assert!(resp[1..] == expected[..], "reply {k} differs");
    }
    drop(flood);
    server.shutdown();
}

/// Shutdown-drain regression: a SHUTDOWN landing while a full pipeline
/// window is in flight must not drop responses the node already
/// computed. The event loop's drain used to take a single write pass —
/// one `WouldBlock` and a computed count vanished; it now pumps
/// writability until the drain deadline.
#[test]
fn shutdown_races_full_pipeline_window_without_losing_responses() {
    let server = start(default_model());
    let data = stream_for(3);

    // A raw pipelined connection: every frame on the wire, none read.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    for chunk in data.chunks(FRAME) {
        let mut w = wmsketch_hashing::codec::Writer::new();
        put_examples(&mut w, chunk);
        wire.extend_from_slice(&raw_frame(0, OP_UPDATE, w));
    }
    raw.write_all(&wire).unwrap();

    // Once node-wide accounting shows every frame executed, each
    // response exists somewhere between the node's write buffer and the
    // socket — exactly the state the drain must flush. Then pull the plug.
    let mut observer = ServeClient::connect(server.addr()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while observer.stats().unwrap().update_frames < FRAMES_PER_CONN as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "frames never executed"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    observer.shutdown_server().unwrap();

    for k in 0..FRAMES_PER_CONN {
        let n = read_ok_u64(&mut raw, "drained response");
        assert_eq!(n, (FRAME * (k + 1)) as u64, "response {k} lost in drain");
    }
    server.shutdown();
}
