//! The anti-entropy gossip loop: a background tick that pull-merges-acks
//! replication state from configured peers over the ordinary client.
//!
//! Each tick, for every registered peer (OP_PEER_JOIN) and every locally
//! hosted model the peer also hosts (matched by **name** — registry ids
//! are node-local), the node pulls each cluster member's copy of the
//! model (OP_PULL_DELTA), applies what comes back, and acks the peer's
//! own copy (OP_ACK). Pulling *every* member's origin from every peer —
//! not just the peer's own — is what makes the protocol anti-entropy:
//! state crosses network partitions transitively through whichever links
//! are up. Pulling one's **own** origin is restart recovery: a node that
//! lost its local copy adopts a peer's replica of it and resumes
//! bit-identically.
//!
//! A peer that cannot be reached enters jittered exponential backoff
//! (deterministic per `(node, peer, attempt)` via splitmix64, so
//! schedules never synchronize across a fleet) and is retried; per-model
//! and per-origin errors skip that item and keep the tick going.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wmsketch_hashing::codec::is_delta_record;
use wmsketch_hashing::splitmix64;

use crate::client::ServeClient;
use crate::error::ServeError;
use crate::metrics;
use crate::protocol::PULL_SINCE_FULL;
use crate::server::{ModelEntry, OriginReplica, ServerState};

/// How long a gossip connection attempt may block before counting as a
/// failure (the tick must not hang on a partitioned peer).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Cap on the exponential backoff ladder (interval × 2^5 = 32 ticks).
const MAX_BACKOFF_EXP: u64 = 5;

/// Runs the gossip loop until the server's shutdown flag is set.
/// Spawned by `WmServer::spawn` when `ServeConfig::gossip_interval_ms`
/// is nonzero.
pub(crate) fn run(state: &Arc<ServerState>) {
    let interval = Duration::from_millis(state.gossip_interval_ms.max(1));
    // Per-peer failure state: consecutive failed attempts and the instant
    // before which the peer is skipped.
    let mut backoff: HashMap<u64, (u64, Instant)> = HashMap::new();
    while !state.shutdown.load(Ordering::SeqCst) {
        let tick_started = Instant::now();
        state.metrics.gossip_rounds.inc();
        let peers: Vec<(u64, String)> = {
            let map = state.peers.lock().expect("peers mutex");
            map.iter().map(|(&id, addr)| (id, addr.clone())).collect()
        };
        let peer_count = peers.len() as u64;
        // The member set whose origins are pulled: every known peer plus
        // this node itself (self-pull = restart recovery).
        let members: BTreeSet<u64> = peers
            .iter()
            .map(|&(id, _)| id)
            .chain(std::iter::once(state.node_id))
            .collect();
        for (peer_id, addr) in peers {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Some(&(_, until)) = backoff.get(&peer_id) {
                if Instant::now() < until {
                    state.metrics.gossip_backoff_skips.inc();
                    continue;
                }
            }
            state.metrics.gossip_attempts.inc();
            match gossip_with_peer(state, peer_id, &addr, &members) {
                Ok(()) => {
                    backoff.remove(&peer_id);
                }
                Err(_) => {
                    state.metrics.gossip_failures.inc();
                    let attempt = backoff.get(&peer_id).map_or(1, |&(a, _)| a + 1);
                    let delay = backoff_delay(state.node_id, peer_id, attempt, interval);
                    backoff.insert(peer_id, (attempt, Instant::now() + delay));
                }
            }
        }
        state
            .metrics
            .journal
            .push("gossip_tick", peer_count, tick_started);
        sleep_interruptible(state, interval);
    }
}

/// One full exchange with one peer: pull every member's origin of every
/// shared model, apply, and ack the peer's own copy.
fn gossip_with_peer(
    state: &Arc<ServerState>,
    peer_id: u64,
    addr: &str,
    members: &BTreeSet<u64>,
) -> Result<(), ServeError> {
    let mut client = ServeClient::connect_timeout(addr, CONNECT_TIMEOUT)?;
    // Registry ids are node-local; models pair up across nodes by name.
    let remote: HashMap<String, u32> = client
        .list_models()?
        .into_iter()
        .map(|m| (m.name, m.id))
        .collect();
    for entry in state.entries() {
        let Some(&remote_id) = remote.get(entry.name()) else {
            continue; // the peer doesn't host this model
        };
        client.set_model(remote_id)?;
        for &origin in members {
            let since = pull_watermark(state, &entry, origin);
            let pull_started = metrics::now_if_enabled();
            let (to_clock, bytes) = match client.pull_delta(origin, since) {
                Ok(resp) => resp,
                // The peer holds no replica for this origin (or rejected
                // the pull): skip the origin, keep the exchange going.
                Err(ServeError::Remote(_)) => continue,
                Err(e) => return Err(e),
            };
            let advanced = apply_pulled(state, &entry, origin, &bytes).unwrap_or(false);
            if let Some(t) = pull_started {
                if advanced {
                    state.metrics.journal.push("delta_pull", origin, t);
                }
                // Publish the lag gauge: the origin clock this peer just
                // reported minus what is now applied locally. Zero means
                // this node holds everything the peer knew about.
                let applied_now = match pull_watermark(state, &entry, origin) {
                    PULL_SINCE_FULL => 0,
                    w => w,
                };
                let lag = i64::try_from(to_clock.saturating_sub(applied_now)).unwrap_or(i64::MAX);
                state.metrics.set_repl_lag(entry.id, origin, lag);
            }
            // Ack only the peer's *own* copy: the shipped-clock vector on
            // the peer tracks who has its local state, not relayed state.
            if advanced && origin == peer_id {
                let applied = to_clock;
                let _ = client.ack_clock(state.node_id, applied);
            }
        }
    }
    Ok(())
}

/// What to ask for: the applied watermark of the origin's replica, the
/// local clock for a self-pull, or [`PULL_SINCE_FULL`] when there is no
/// state to delta against.
fn pull_watermark(state: &Arc<ServerState>, entry: &ModelEntry, origin: u64) -> u64 {
    if origin == state.node_id {
        // `clock_hint` reads a spilled model's stub without reviving it
        // — the gossip timer must not fault the whole fleet back in. A
        // lazily-recovered stub reads 0 and asks for a full record,
        // which is exactly right for state this node has not loaded.
        let clock = entry.clock_hint();
        if clock == 0 {
            PULL_SINCE_FULL
        } else {
            clock
        }
    } else {
        entry
            .repl
            .lock()
            .expect("repl mutex")
            .origins
            .get(&origin)
            .map_or(PULL_SINCE_FULL, |o| o.applied)
    }
}

/// Applies one pulled record to the matching replica (or, for a
/// self-pull, adopts a recovered local copy). Returns whether state
/// advanced. Re-delivered records are idempotent no-ops; a gapped delta
/// is the typed [`wmsketch_hashing::codec::CodecError::DeltaGap`].
fn apply_pulled(
    state: &Arc<ServerState>,
    entry: &ModelEntry,
    origin: u64,
    bytes: &[u8],
) -> Result<bool, ServeError> {
    if bytes.is_empty() {
        return Ok(false); // the peer had nothing newer
    }
    if origin == state.node_id {
        // Restart recovery: adopt the peer's replica of this node's own
        // copy — but only wholesale (a full record), and only when it is
        // strictly ahead.
        if is_delta_record(bytes)? {
            return Ok(false);
        }
        let recovered = wmsketch_core::decode_any_learner(bytes)?;
        let mut learner = entry.learner(state)?;
        if recovered.examples_seen() <= learner.examples_seen() {
            return Ok(false);
        }
        // Replace through the guard so governor accounting follows the
        // adopted copy's footprint.
        learner.install(recovered);
        return Ok(true);
    }
    let mut repl = entry.repl.lock().expect("repl mutex");
    match repl.origins.get_mut(&origin) {
        None => {
            if is_delta_record(bytes)? {
                // A delta against state this node doesn't have; the next
                // tick's PULL_SINCE_FULL watermark fetches a full record.
                return Err(ServeError::Protocol(
                    "delta record for an origin with no replica",
                ));
            }
            let learner = wmsketch_core::decode_any_learner(bytes)?;
            let applied = learner.examples_seen();
            repl.origins
                .insert(origin, OriginReplica { applied, learner });
            Ok(true)
        }
        Some(replica) => {
            if is_delta_record(bytes)? {
                // `apply_delta` rejects both re-delivery and gaps with the
                // typed DeltaGap error and leaves the replica untouched.
                replica.applied = replica.learner.apply_delta(bytes)?;
                Ok(true)
            } else {
                let recovered = wmsketch_core::decode_any_learner(bytes)?;
                if recovered.examples_seen() <= replica.applied {
                    return Ok(false); // re-delivered or stale full record
                }
                replica.applied = recovered.examples_seen();
                replica.learner = recovered;
                Ok(true)
            }
        }
    }
}

/// Exponential backoff with deterministic jitter: `interval × 2^attempt`
/// (capped) plus a splitmix64-derived fraction of one interval, seeded by
/// `(node, peer, attempt)` so retry schedules are reproducible yet never
/// phase-lock across nodes.
pub(crate) fn backoff_delay(
    node_id: u64,
    peer_id: u64,
    attempt: u64,
    interval: Duration,
) -> Duration {
    let exp = attempt.min(MAX_BACKOFF_EXP);
    let base = interval.saturating_mul(1u32 << exp.min(31) as u32);
    let interval_ms = interval.as_millis().max(1) as u64;
    let jitter_ms = splitmix64(node_id ^ peer_id.rotate_left(17) ^ attempt) % interval_ms;
    base + Duration::from_millis(jitter_ms)
}

/// Sleeps one gossip interval in small slices so shutdown is observed
/// promptly (the gossip thread is joined by `ServerHandle::shutdown`).
/// Shared with the background checkpointer, which ticks the same way.
pub(crate) fn sleep_interruptible(state: &Arc<ServerState>, interval: Duration) {
    let deadline = Instant::now() + interval;
    while !state.shutdown.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}
