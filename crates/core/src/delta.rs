//! Dirty-cell tracking behind the WMS1 **delta snapshot** records.
//!
//! A delta record ships only what changed since a *watermark* clock: the
//! sparse set of sketch cells whose stored bit patterns changed, the
//! (always-shipped, tiny) scalar state, and the top-K heap when it moved.
//! Because sketch updates are state-dependent (the margin feeds the
//! gradient), deltas cannot be additive and stay bit-exact — so a delta
//! *overwrites* raw `f64` bit patterns, and `base + delta` re-encodes
//! bit-identically to a full snapshot of the origin.
//!
//! [`DirtyCells`] is the per-learner tracker making the sparse selection
//! possible: one `u64` last-touched stamp per cell plus a heap stamp.
//! Tracking is **off by default** (zero overhead, zero memory) and is
//! switched on lazily by the first `encode_delta_since` call — which
//! therefore returns a full snapshot, exactly what a peer with no prior
//! state needs anyway.
//!
//! ## Stamp-clock invariant
//!
//! For every cell `i`: `stamps[i] <= c` implies the cell's stored bits
//! now equal its bits at clock `c`, for any `c` at which a snapshot or
//! delta was actually produced. Writers maintain this by stamping with
//! the *post-mutation* clock (`epoch`), set before the writes of each
//! update/merge. Over-stamping (marking an unchanged cell dirty) only
//! costs delta bytes; under-stamping would corrupt replicas, so every
//! mutation that cannot stamp precisely stamps everything — and a
//! mutation that changes state without advancing the clock (merging a
//! zero-clock peer) marks the tracker [`DirtyCells::require_full`], which
//! forces the next delta request to fall back to a full snapshot.

/// Per-cell last-touched stamps for delta-snapshot encoding (see module
/// docs). `Clone` so tracked learners stay clonable; clones carry the
/// tracking state with them.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyCells {
    /// One last-touched clock per cell; empty means tracking is off.
    stamps: Vec<u64>,
    /// Last clock at which the top-K heap / active set changed.
    heap_stamp: u64,
    /// The clock value writes stamp with (the post-mutation clock).
    epoch: u64,
    /// When set, [`DirtyCells::set_epoch`] is a no-op: an owning
    /// composite learner (multiclass) drives the epoch with *its* clock,
    /// so one watermark covers every class.
    external_epoch: bool,
    /// State changed without the clock advancing; only a full snapshot
    /// can resynchronize a peer.
    full_required: bool,
}

impl DirtyCells {
    /// A tracker in the off state (the default for fresh and decoded
    /// learners).
    pub(crate) fn off() -> Self {
        Self::default()
    }

    /// Whether tracking is on.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        !self.stamps.is_empty()
    }

    /// Heap bytes the stamp vector owns (zero until tracking is armed).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u64>()
    }

    /// (Re)starts tracking over `cells` cells with everything considered
    /// dirty at clock `now` — the state right after shipping a full
    /// snapshot at `now`.
    pub(crate) fn enable(&mut self, cells: usize, now: u64) {
        self.stamps.clear();
        self.stamps.resize(cells, now);
        self.heap_stamp = now;
        self.epoch = now;
        self.full_required = false;
    }

    /// Sets the stamp epoch for the mutations that follow, unless an
    /// owning composite learner drives it externally.
    #[inline]
    pub(crate) fn set_epoch(&mut self, t: u64) {
        if !self.external_epoch {
            self.epoch = t;
        }
    }

    /// Hands epoch control to an owning composite learner: from now on
    /// only [`DirtyCells::force_epoch`] moves the epoch.
    pub(crate) fn force_epoch(&mut self, t: u64) {
        self.external_epoch = true;
        self.epoch = t;
    }

    /// Marks one cell touched at the current epoch.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize) {
        if let Some(s) = self.stamps.get_mut(i) {
            *s = self.epoch;
        }
    }

    /// Marks every cell touched (scale folds, merges).
    #[inline]
    pub(crate) fn touch_all(&mut self) {
        let epoch = self.epoch;
        self.stamps.fill(epoch);
    }

    /// Marks the top-K heap / active set touched.
    #[inline]
    pub(crate) fn touch_heap(&mut self) {
        if self.enabled() {
            self.heap_stamp = self.epoch;
        }
    }

    /// Records a state change that did not advance the clock; the next
    /// delta request must fall back to a full snapshot.
    pub(crate) fn require_full(&mut self) {
        self.full_required = true;
    }

    /// Whether a delta since `since` can be encoded from a learner at
    /// clock `t` (tracking on, no clock-less mutation, watermark not in
    /// the future).
    pub(crate) fn can_delta(&self, since: u64, t: u64) -> bool {
        self.enabled() && !self.full_required && since <= t
    }

    /// The sparse overwrite list: index and raw bit pattern of every
    /// cell touched after `since`.
    pub(crate) fn changed(&self, z: &[f64], since: u64) -> Vec<(u32, u64)> {
        debug_assert_eq!(self.stamps.len(), z.len());
        self.stamps
            .iter()
            .zip(z)
            .enumerate()
            .filter(|(_, (&s, _))| s > since)
            .map(|(i, (_, &v))| (i as u32, v.to_bits()))
            .collect()
    }

    /// Whether the heap / active set was touched after `since`.
    pub(crate) fn heap_dirty(&self, since: u64) -> bool {
        self.heap_stamp > since
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracker_is_inert() {
        let mut d = DirtyCells::off();
        assert!(!d.enabled());
        d.set_epoch(5);
        d.touch(3); // no stamps allocated: must not panic
        d.touch_all();
        d.touch_heap();
        assert!(!d.can_delta(0, 10));
    }

    #[test]
    fn stamps_select_only_cells_touched_after_watermark() {
        let mut d = DirtyCells::off();
        d.enable(4, 10);
        let z = [1.0, 2.0, 3.0, 4.0];
        // Everything dirty at enable time relative to an older watermark…
        assert_eq!(d.changed(&z, 9).len(), 4);
        // …and clean at the enable clock.
        assert_eq!(d.changed(&z, 10).len(), 0);
        d.set_epoch(12);
        d.touch(2);
        let changed = d.changed(&z, 10);
        assert_eq!(changed, vec![(2, 3.0f64.to_bits())]);
        assert!(!d.heap_dirty(10));
        d.touch_heap();
        assert!(d.heap_dirty(10));
    }

    #[test]
    fn external_epoch_ignores_internal_set() {
        let mut d = DirtyCells::off();
        d.enable(2, 0);
        d.force_epoch(7);
        d.set_epoch(3); // ignored: the owner drives the epoch
        d.touch(0);
        let z = [1.0, 0.0];
        assert_eq!(d.changed(&z, 6), vec![(0, 1.0f64.to_bits())]);
        assert_eq!(d.changed(&z, 7).len(), 0);
    }

    #[test]
    fn full_required_blocks_delta_until_reenabled() {
        let mut d = DirtyCells::off();
        d.enable(1, 0);
        assert!(d.can_delta(0, 4));
        d.require_full();
        assert!(!d.can_delta(0, 4));
        d.enable(1, 4);
        assert!(d.can_delta(4, 4));
        assert!(!d.can_delta(5, 4), "future watermark");
    }
}
