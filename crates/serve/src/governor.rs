//! The **memory governor**: admits, evicts, and revives hosted models
//! against a configurable resident-byte budget, so one node can host a
//! fleet of models far larger than its memory.
//!
//! The governor charges each model its learner's
//! [`wmsketch_learn::DynLearner::resident_bytes`] (buffers, hashers,
//! scratch) plus the registry entry's own overhead: the entry struct,
//! its name, and its spec template, which stay resident even when the
//! learner is spilled. The learner charge is taken when the learner
//! enters its slot — at admission, revival, or install (RESET, RESTORE,
//! recovery, gossip adoption) — and is not refreshed after that: UPDATE
//! never recharges, so allocations a model grows while training are
//! charged only once it has been spilled and revived. Origin replicas
//! and the merged query view of a replicated model are not charged at
//! all. Models with the same hash seed and depth share one copy of
//! their tabulation tables, yet each is charged for them in full, so
//! spilling a model whose tables another hot model shares frees less
//! than its charge.
//!
//! Every model is charged once, by the server's one registration
//! routine, before it joins the registry: strictly for the default model
//! and OP_CREATE (victims are evicted to make room, and a model that
//! still does not fit is refused with [`ERR_BUDGET`]), best-effort for
//! startup recovery (no eviction, no refusal). A registration that then
//! loses its registry checks rolls the charge back. After that, the
//! learner charge moves only through the entry's one slot transition
//! (`ModelEntry::set_slot`), which calls [`MemoryGovernor::recharge`].
//! The governor counts events (evictions, revivals, failures), not
//! models: how many models are resident or spilled is read from the
//! registry entries.
//!
//! When the charged total exceeds the budget, the least-recently-accessed
//! resident model is spilled: its learner is replaced by a lightweight
//! stub, and its state lives on in its own checkpoint file, which one
//! routine (`ModelEntry::persist`, shared with the checkpointer) writes.
//! That routine knows which version the file holds, so a model that is
//! clean, such as one revived by a read and not updated since, spills
//! with no I/O at all. The governor keeps no model index of its own: it
//! picks each victim from the registry's entries, which carry the LRU
//! stamp and the charged cost, and entries hold no reference back to
//! the governor. The next request for a spilled model revives it
//! transparently — decode and
//! [`wmsketch_learn::DynLearner::restore_snapshot`], bit-identical by
//! the codec's twin guarantee — under the model's own slot mutex, so
//! concurrent requests for the same cold model pay exactly one decode
//! (single-flight for free).
//!
//! Every hosted model, the default model included, is one plain learner
//! and therefore evictable: its snapshot captures its whole state.
//!
//! Deadlock discipline: the eviction path holds the registry read lock
//! only while it picks a victim, and then only ever `try_lock`s that
//! model's checkpoint-I/O and slot mutexes, in that order (a contended
//! lock is a hot or checkpoint-in-flight model — exactly the wrong
//! victim). Revival
//! itself never evicts: budget pressure from a revival is resolved by
//! the request path *after* it releases the revived model's slot mutex
//! (see `LearnerGuard`'s drop), so victim spill I/O never runs under
//! any slot lock. No lock in this module is ever awaited while a slot
//! mutex is held.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wmsketch_telemetry::LatencyHistogram;

use crate::error::ServeError;
use crate::server::{ModelEntry, ModelSlot, ServerState, SpilledStub};

/// The typed admission error OP_CREATE returns when the budget cannot
/// be met even after evicting every cold model.
pub(crate) const ERR_BUDGET: &str = "model does not fit in the node's memory budget";

/// Byte-budget enforcement for one node's model registry.
///
/// All accounting counters are plain atomics (not telemetry primitives,
/// which drop writes while telemetry is disabled) — budget enforcement
/// must be exact regardless of observability settings. Only the
/// revival-latency histogram is telemetry-gated.
pub(crate) struct MemoryGovernor {
    /// The resident-byte ceiling.
    budget: u64,
    /// Monotonic access clock for LRU ordering; each model access
    /// stamps the entry with the next tick.
    tick: AtomicU64,
    /// Bytes currently charged (resident learners plus every entry's
    /// registry overhead).
    resident_bytes: AtomicU64,
    /// Spills performed (admission- or revival-pressure driven).
    evictions: AtomicU64,
    /// Transparent revivals performed.
    revivals: AtomicU64,
    /// Revivals that failed (unreadable or corrupt spill record); the
    /// stub survives and the request gets a typed error.
    revival_failures: AtomicU64,
    /// Spill attempts that failed (snapshot or write error); the model
    /// stays resident and charged.
    spill_failures: AtomicU64,
    /// Wall-clock revival latency (telemetry-gated like every
    /// histogram).
    revival_latency: LatencyHistogram,
    /// Serializes strict (OP_CREATE) admissions so two concurrent
    /// CREATEs cannot each charge their cost, both observe the combined
    /// total over budget, and both be spuriously rejected.
    admit_lock: Mutex<()>,
}

impl MemoryGovernor {
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            budget,
            tick: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            revivals: AtomicU64::new(0),
            revival_failures: AtomicU64::new(0),
            spill_failures: AtomicU64::new(0),
            revival_latency: LatencyHistogram::new(),
            admit_lock: Mutex::new(()),
        }
    }

    /// The next LRU tick; callers stamp it into the accessed entry.
    pub(crate) fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Charges a newly admitted model `cost` bytes, then runs `join`,
    /// which puts the model in the registry, and returns its result. A
    /// `join` that fails rolls the charge back. With `strict` (the
    /// default model, OP_CREATE) victims are evicted from `state` to
    /// make room, and the model is refused with a typed error when the
    /// budget cannot be met even then. Without it (startup recovery)
    /// admission always succeeds and — critically — never evicts:
    /// mid-recovery an entry still holds the fresh template build, and
    /// spilling it would overwrite its real checkpoint with fresh state.
    /// Recovery's lazy stub pass resolves the overshoot instead.
    pub(crate) fn admit<T>(
        &self,
        cost: u64,
        strict: bool,
        state: &ServerState,
        join: impl FnOnce() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        if strict {
            let _admissions = self.admit_lock.lock().expect("admit lock");
            // Make headroom for the new model before charging it, so the
            // eviction target accounts for the incoming cost.
            self.evict_down_to(state, self.budget.saturating_sub(cost), u32::MAX);
            // Reserve with a compare-exchange instead of
            // add-then-check: a concurrent charge (a revival, or a
            // non-strict admission) that lands between our load and
            // store can then never make *both* parties observe the
            // combined total and both roll back.
            let mut charged = self.resident_bytes.load(Ordering::Relaxed);
            loop {
                if charged.saturating_add(cost) > self.budget {
                    return Err(ServeError::Protocol(ERR_BUDGET));
                }
                match self.resident_bytes.compare_exchange_weak(
                    charged,
                    charged + cost,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => charged = seen,
                }
            }
        } else {
            self.resident_bytes.fetch_add(cost, Ordering::Relaxed);
        }
        let joined = join();
        if joined.is_err() {
            self.resident_bytes.fetch_sub(cost, Ordering::Relaxed);
        }
        joined
    }

    /// Moves a model's learner charge from `old` to `new` bytes. Only
    /// `ModelEntry::set_slot` calls this, under the model's slot lock.
    /// It never evicts: the caller holds that lock, and spilling victims
    /// here would run their snapshot encoding and disk writes under it.
    /// Pressure from a revival is resolved by
    /// [`crate::server::LearnerGuard`]'s drop, which calls
    /// [`MemoryGovernor::evict_to_budget`] *after* releasing the slot.
    pub(crate) fn recharge(&self, old: u64, new: u64) {
        if new >= old {
            self.resident_bytes.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.resident_bytes.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Counts a completed revival and records its latency.
    pub(crate) fn count_revival(&self, started: Instant) {
        self.revivals.fetch_add(1, Ordering::Relaxed);
        self.revival_latency.record_duration(started.elapsed());
    }

    /// Counts a failed revival (stub intact, request errored).
    pub(crate) fn count_revival_failure(&self) {
        self.revival_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Spills least-recently-accessed victims until the charged total
    /// fits the budget (or nothing evictable remains). `exempt` — e.g.
    /// a just-revived model — is never selected. Callers must not hold
    /// any slot mutex or the registry lock.
    pub(crate) fn evict_to_budget(&self, state: &ServerState, exempt: u32) {
        self.evict_down_to(state, self.budget, exempt);
    }

    /// Spills least-recently-accessed resident models until the charged
    /// total fits `limit` (or nothing evictable remains). The registry
    /// read lock is held only to pick a victim, never across its spill;
    /// each candidate is tried once per call, so a failing spill cannot
    /// loop forever.
    fn evict_down_to(&self, state: &ServerState, limit: u64, exempt: u32) {
        let dir = state.data_dir.as_deref().expect("spills need a data dir");
        let mut attempted: Vec<u32> = Vec::new();
        while self.resident_bytes.load(Ordering::Relaxed) > limit {
            let victim = state
                .registry
                .read()
                .expect("registry lock")
                .by_id
                .iter()
                .filter(|e| e.id != exempt && !attempted.contains(&e.id))
                .filter(|e| e.resident_cost.load(Ordering::Relaxed) > 0)
                .min_by_key(|e| e.last_access.load(Ordering::Relaxed))
                .map(Arc::clone);
            let Some(entry) = victim else { break };
            attempted.push(entry.id);
            self.try_spill(dir, &entry);
        }
    }

    /// Attempts to spill one resident model: bring its own file up to
    /// date through [`ModelEntry::persist`] (a clean model costs no
    /// I/O), then swap in a stub through the entry's slot transition,
    /// which discharges its cost. Returns whether the model was spilled.
    ///
    /// Both mutexes are only `try_lock`ed, `ckpt_io` → `slot`: a
    /// contended lock means a hot model or a checkpoint write in flight,
    /// either way the wrong victim. The slot stays locked from the write
    /// to the stub, so no update can slip in after the state was written
    /// and no revival can land before the discharge.
    pub(crate) fn try_spill(&self, dir: &Path, entry: &ModelEntry) -> bool {
        let Ok(mut file) = entry.ckpt_io.try_lock() else {
            return false; // checkpoint write in flight
        };
        let Ok(slot) = entry.slot.try_lock() else {
            return false;
        };
        let ModelSlot::Resident(learner) = &*slot else {
            return false; // already a stub
        };
        let stub = SpilledStub {
            clock: learner.examples_seen(),
            memory_bytes: learner.memory_bytes() as u64,
        };
        let Ok((_, Some(mut slot))) = entry.persist(dir, &mut file, slot, true) else {
            self.spill_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        entry.set_slot(&mut slot, ModelSlot::Spilled(stub), false, Some(self));
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The configured resident-byte ceiling.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged against the budget.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Spills performed since startup.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Revivals performed since startup.
    pub(crate) fn revivals(&self) -> u64 {
        self.revivals.load(Ordering::Relaxed)
    }

    /// Revivals that failed on an unreadable or corrupt spill record.
    pub(crate) fn revival_failures(&self) -> u64 {
        self.revival_failures.load(Ordering::Relaxed)
    }

    /// Spill attempts that failed.
    pub(crate) fn spill_failures(&self) -> u64 {
        self.spill_failures.load(Ordering::Relaxed)
    }

    /// The revival-latency histogram (telemetry-gated recording).
    pub(crate) fn revival_latency(&self) -> &LatencyHistogram {
        &self.revival_latency
    }
}

/// Registry overhead one model permanently charges: its entry struct,
/// name, and rebuild template stay resident even while the learner is
/// spilled, so they are charged at admission and never discharged.
pub(crate) fn entry_overhead(name_len: usize, template_len: usize) -> u64 {
    (std::mem::size_of::<ModelEntry>() + name_len + template_len) as u64
}
