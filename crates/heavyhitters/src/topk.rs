//! Top-K-by-absolute-weight tracking — "the heap" of the paper's
//! Algorithms 2 (AWM-Sketch active set), 3 (Simple Truncation) and
//! 4 (Probabilistic Truncation).

use crate::indexed_heap::IndexedHeap;

/// One tracked feature and its exactly-stored weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightEntry {
    /// Feature identifier.
    pub feature: u32,
    /// Stored weight (in the caller's units — e.g. pre-scale for learners
    /// using a global scale factor).
    pub weight: f64,
}

/// Result of offering a feature/weight to the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// The feature was already tracked; its weight was overwritten.
    Updated,
    /// The tracker had spare capacity and admitted the feature.
    Inserted,
    /// The feature displaced the minimum-|weight| entry, which is returned
    /// so the caller can spill it elsewhere (the AWM-Sketch writes it back
    /// into the sketch).
    Evicted(WeightEntry),
    /// The offered |weight| did not beat the current minimum; nothing
    /// changed.
    Rejected,
}

/// Tracks the K features with the largest absolute weights, storing the
/// weights exactly.
///
/// Internally an [`IndexedHeap`] min-heap ordered by |weight|, so the
/// entry cheapest to displace is always at the root. Ties in |weight| go
/// to the **largest** feature: the root is always the entry
/// [`TopKWeights::top_k`] and [`TopKWeights::from_heaviest`] rank last
/// under `(|weight| desc, feature asc)`. Eviction therefore depends only
/// on the tracked contents, never on insertion history, so a tracker
/// rebuilt by [`TopKWeights::decode_from`] keeps evicting exactly what the
/// original would. Weight ordering is invariant under a positive global
/// scale factor, so learners using the lazy-regularization scale trick
/// (paper §5.1) can store pre-scale weights here directly.
///
/// **Slots.** Each tracked feature sits in a dense heap slot, with its
/// signed weight in a parallel `Vec` beside it, and keeps that slot while
/// it is tracked; an evicted feature's slot goes to the feature that
/// displaced it. A caller that touches a feature more than once per step
/// looks it up once with [`TopKWeights::find`] and then reads and writes
/// it by slot ([`TopKWeights::entry`], [`TopKWeights::set`]) — one hash
/// lookup per feature instead of one per access. An untracked feature
/// goes to [`TopKWeights::offer_untracked`], whose rejection rule
/// [`TopKWeights::floor`] exposes ahead of time: a caller whose weight
/// estimate is costly (a Count-Sketch median) can first check the
/// estimate against the floor and skip the offer.
#[derive(Debug, Clone)]
pub struct TopKWeights {
    /// Min-heap over `(feature, |weight|)`.
    heap: IndexedHeap<u32>,
    /// slot → signed stored weight, parallel to the heap's slots.
    weights: Vec<f64>,
    capacity: usize,
}

impl TopKWeights {
    /// Creates a tracker holding at most `capacity` features.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "top-K capacity must be nonzero");
        Self {
            heap: IndexedHeap::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Builds a tracker holding the `capacity` heaviest of `entries`,
    /// ranked by `(|weight| desc, feature asc)` — the shared rebuild step
    /// of merge-time heap/active-set reconstruction. Deterministic for any
    /// input order.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or an entry weight is NaN.
    #[must_use]
    pub fn from_heaviest(capacity: usize, mut entries: Vec<WeightEntry>) -> Self {
        entries.sort_by(|a, b| {
            b.weight
                .abs()
                .partial_cmp(&a.weight.abs())
                .expect("NaN weight")
                .then(a.feature.cmp(&b.feature))
        });
        entries.truncate(capacity);
        let mut tracker = Self::new(capacity);
        for e in entries {
            tracker.offer(e.feature, e.weight);
        }
        tracker
    }

    /// Maximum number of tracked features.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of tracked features.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Estimated heap bytes the tracker owns: the indexed heap (slot
    /// array, position arrays and key index) and the slot-parallel weight
    /// array. An estimate of allocator reality rather than the paper's
    /// §7.1 cost model — what a memory governor should charge for a
    /// resident tracker.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.heap.resident_bytes() + self.weights.capacity() * std::mem::size_of::<f64>()
    }

    /// Whether no features are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `feature` is tracked.
    #[must_use]
    pub fn contains(&self, feature: u32) -> bool {
        self.heap.contains(&feature)
    }

    /// The stored weight of `feature`, if tracked.
    #[must_use]
    pub fn get(&self, feature: u32) -> Option<f64> {
        self.find(feature).map(|slot| self.weights[slot as usize])
    }

    /// The slot of `feature`, if tracked — the tracker's one hash lookup.
    /// The slot stays `feature`'s until it is evicted or removed.
    #[must_use]
    pub fn find(&self, feature: u32) -> Option<u32> {
        self.heap.find(&feature)
    }

    /// The feature and weight in a tracked `slot`. After an eviction the
    /// slot holds the feature that displaced the evicted one, so
    /// `entry(slot).feature` tells whether a slot found earlier still
    /// holds the same feature.
    #[inline]
    #[must_use]
    pub fn entry(&self, slot: u32) -> WeightEntry {
        WeightEntry {
            feature: self.heap.entry(slot).0,
            weight: self.weights[slot as usize],
        }
    }

    /// Sets the weight of the tracked feature in `slot`, rebalancing the
    /// heap.
    pub fn set(&mut self, slot: u32, weight: f64) {
        self.weights[slot as usize] = weight;
        self.heap.set_priority(slot, weight.abs());
    }

    /// The minimum-|weight| entry, if any.
    #[must_use]
    pub fn min_entry(&self) -> Option<WeightEntry> {
        self.heap.min_slot().map(|slot| self.entry(slot))
    }

    /// The |weight| an offer of an *untracked* feature must exceed to
    /// change anything: `Some(min |weight|)` when the tracker is full, in
    /// which case [`TopKWeights::offer_untracked`] returns
    /// [`Offer::Rejected`] for every `|weight| ≤` the floor and
    /// [`Offer::Evicted`] above it. `None` when the tracker has spare
    /// capacity — every offer is then [`Offer::Inserted`].
    #[must_use]
    pub fn floor(&self) -> Option<f64> {
        if self.heap.len() < self.capacity {
            return None;
        }
        self.heap.peek_min().map(|(_, min_abs)| min_abs)
    }

    /// Offers `(feature, weight)` to the tracker; see [`Offer`] for the
    /// possible outcomes.
    pub fn offer(&mut self, feature: u32, weight: f64) -> Offer {
        match self.find(feature) {
            Some(slot) => {
                self.set(slot, weight);
                Offer::Updated
            }
            None => self.offer_untracked(feature, weight),
        }
    }

    /// [`TopKWeights::offer`] for a feature the caller knows is not
    /// tracked (it just got `None` from [`TopKWeights::find`]): returns
    /// `Inserted`, `Evicted` or `Rejected`, never `Updated`. An admitted
    /// feature that evicts takes the evicted feature's slot.
    pub fn offer_untracked(&mut self, feature: u32, weight: f64) -> Offer {
        debug_assert!(
            !self.contains(feature),
            "offer_untracked of a tracked feature"
        );
        if self.heap.len() < self.capacity {
            let slot = self.heap.insert(feature, weight.abs()) as usize;
            if slot == self.weights.len() {
                self.weights.push(weight);
            } else {
                self.weights[slot] = weight;
            }
            return Offer::Inserted;
        }
        let min_slot = self.heap.min_slot().expect("capacity > 0");
        let (min_feature, min_abs) = self.heap.entry(min_slot);
        if weight.abs() > min_abs {
            let evicted_weight = std::mem::replace(&mut self.weights[min_slot as usize], weight);
            self.heap.replace_min(feature, weight.abs());
            Offer::Evicted(WeightEntry {
                feature: min_feature,
                weight: evicted_weight,
            })
        } else {
            Offer::Rejected
        }
    }

    /// Multiplies every stored weight by `a` and restores heap order in
    /// `O(K)` — the in-place fold of a learner's global scale into its
    /// tracked weights. Slots are unchanged.
    pub fn scale_all(&mut self, a: f64) {
        let weights = &mut self.weights;
        self.heap.reset_priorities(|slot| {
            let w = &mut weights[slot as usize];
            *w *= a;
            w.abs()
        });
    }

    /// Removes `feature`, returning its weight if it was tracked.
    pub fn remove(&mut self, feature: u32) -> Option<f64> {
        let slot = self.find(feature)?;
        self.heap.remove(&feature);
        Some(self.weights[slot as usize])
    }

    /// All tracked entries, unordered.
    pub fn iter(&self) -> impl Iterator<Item = WeightEntry> + '_ {
        self.heap.slots().map(|slot| self.entry(slot))
    }

    /// The top `k` entries by |weight|, sorted descending by |weight|.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<WeightEntry> {
        let mut all: Vec<WeightEntry> = self.iter().collect();
        all.sort_by(|a, b| {
            b.weight
                .abs()
                .partial_cmp(&a.weight.abs())
                .expect("NaN weight")
                .then(a.feature.cmp(&b.feature))
        });
        all.truncate(k);
        all
    }

    /// Keeps only the `k` largest-|weight| entries (Simple Truncation's
    /// post-update step), removing and discarding the rest.
    pub fn truncate_to(&mut self, k: usize) {
        while self.heap.len() > k {
            self.heap.pop_min();
        }
    }

    /// Appends this tracker to a snapshot:
    /// `capacity (u64) | count (u64) | count × (feature u32, weight f64)`,
    /// entries in ascending feature order so the bytes are canonical (the
    /// internal heap order never leaks into the encoding).
    pub fn encode_into(&self, w: &mut wmsketch_hashing::codec::Writer) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.len() as u64);
        let mut entries: Vec<WeightEntry> = self.iter().collect();
        entries.sort_by_key(|e| e.feature);
        for e in entries {
            w.put_u32(e.feature);
            w.put_f64(e.weight);
        }
    }

    /// Decodes a tracker written by [`TopKWeights::encode_into`]. Entries
    /// are re-offered in the stored (feature-ascending) order; because the
    /// heap's tie order is history-independent, the decoded tracker
    /// behaves identically to the encoder's under every later offer.
    ///
    /// The stored capacity must equal `expected_capacity` (decoding
    /// validates model state against its config *before* allocating, so a
    /// corrupted capacity field cannot demand an absurd reservation).
    ///
    /// # Errors
    /// [`wmsketch_hashing::codec::CodecError`] on truncation, a capacity
    /// mismatch, a zero capacity, more entries than capacity, a duplicate
    /// feature, or a non-finite weight.
    pub fn decode_from(
        r: &mut wmsketch_hashing::codec::Reader<'_>,
        expected_capacity: usize,
    ) -> Result<Self, wmsketch_hashing::codec::CodecError> {
        use wmsketch_hashing::codec::CodecError;
        let capacity = r.take_u64()?;
        let count = r.take_u64()?;
        if capacity == 0 {
            return Err(CodecError::Invalid("top-K capacity is 0"));
        }
        if capacity != expected_capacity as u64 {
            return Err(CodecError::Invalid(
                "top-K capacity does not match the expected configuration",
            ));
        }
        if count > capacity {
            return Err(CodecError::Invalid("top-K entry count exceeds capacity"));
        }
        let capacity = expected_capacity;
        let mut tracker = Self::new(capacity);
        for _ in 0..count {
            let feature = r.take_u32()?;
            let weight = r.take_f64()?;
            if !weight.is_finite() {
                return Err(CodecError::Invalid("non-finite top-K weight"));
            }
            if tracker.contains(feature) {
                return Err(CodecError::Invalid("duplicate top-K feature"));
            }
            tracker.offer(feature, weight);
        }
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_smallest() {
        let mut t = TopKWeights::new(3);
        assert_eq!(t.offer(1, 1.0), Offer::Inserted);
        assert_eq!(t.offer(2, -5.0), Offer::Inserted);
        assert_eq!(t.offer(3, 2.0), Offer::Inserted);
        // |0.5| < min |1.0| → rejected.
        assert_eq!(t.offer(4, 0.5), Offer::Rejected);
        // |3| > 1 → evicts feature 1.
        match t.offer(5, 3.0) {
            Offer::Evicted(e) => {
                assert_eq!(e.feature, 1);
                assert_eq!(e.weight, 1.0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!t.contains(1));
        assert!(t.contains(5));
    }

    #[test]
    fn floor_predicts_offer_outcome() {
        let mut t = TopKWeights::new(3);
        assert_eq!(t.floor(), None, "empty tracker has room");
        t.offer(1, 4.0);
        t.offer(2, -2.5);
        assert_eq!(t.floor(), None, "spare capacity");
        t.offer(3, 6.0);
        // Full: tracked features are always admitted, untracked ones must
        // beat the minimum |weight|.
        assert!(t.find(2).is_some() && t.find(1).is_some());
        assert_eq!(t.find(7), None);
        assert_eq!(t.floor(), Some(2.5));
        assert_eq!(t.offer(7, 2.5), Offer::Rejected, "exactly at the floor");
        assert_eq!(t.offer(7, -2.5), Offer::Rejected, "at the floor, negative");
        assert_eq!(t.offer_untracked(7, 0.0), Offer::Rejected);
        let above = f64::from_bits(2.5f64.to_bits() + 1);
        let slot_of_2 = t.find(2).unwrap();
        assert_eq!(
            t.offer_untracked(7, -above),
            Offer::Evicted(WeightEntry {
                feature: 2,
                weight: -2.5
            }),
            "one ulp above the floor"
        );
        assert_eq!(t.find(2), None, "evicted is untracked");
        assert_eq!(t.find(7), Some(slot_of_2), "the evictor takes the slot");
        assert_eq!(t.entry(slot_of_2).weight, -above);
        assert_eq!(t.floor(), Some(above));
    }

    #[test]
    fn negative_weights_ordered_by_magnitude() {
        let mut t = TopKWeights::new(2);
        t.offer(1, -10.0);
        t.offer(2, 1.0);
        t.offer(3, -2.0); // evicts 2 (|1| smallest)
        let feats: Vec<u32> = t.top_k(2).iter().map(|e| e.feature).collect();
        assert_eq!(feats, vec![1, 3]);
    }

    #[test]
    fn set_rebalances() {
        let mut t = TopKWeights::new(2);
        t.offer(1, 5.0);
        t.offer(2, 4.0);
        assert_eq!(t.min_entry().unwrap().feature, 2);
        assert_eq!(t.offer(2, 9.0), Offer::Updated);
        assert_eq!(t.min_entry().unwrap().feature, 1);
        assert_eq!(t.get(2), Some(9.0));
        let slot = t.find(2).unwrap();
        t.set(slot, -1.0);
        assert_eq!(t.min_entry().unwrap(), t.entry(slot));
        assert_eq!(t.get(2), Some(-1.0));
    }

    #[test]
    fn top_k_sorted_descending() {
        let mut t = TopKWeights::new(10);
        for (f, w) in [(1, 0.5), (2, -3.0), (3, 2.0), (4, -0.1)] {
            t.offer(f, w);
        }
        let top = t.top_k(3);
        let feats: Vec<u32> = top.iter().map(|e| e.feature).collect();
        assert_eq!(feats, vec![2, 3, 1]);
        assert_eq!(top[0].weight, -3.0);
    }

    #[test]
    fn truncate_to_keeps_largest() {
        let mut t = TopKWeights::new(10);
        for f in 0..10u32 {
            t.offer(f, f64::from(f));
        }
        t.truncate_to(3);
        assert_eq!(t.len(), 3);
        let feats: Vec<u32> = t.top_k(3).iter().map(|e| e.feature).collect();
        assert_eq!(feats, vec![9, 8, 7]);
    }

    #[test]
    fn from_heaviest_keeps_largest_and_is_order_insensitive() {
        let entries = vec![
            WeightEntry {
                feature: 5,
                weight: -0.5,
            },
            WeightEntry {
                feature: 1,
                weight: 3.0,
            },
            WeightEntry {
                feature: 9,
                weight: -2.0,
            },
            WeightEntry {
                feature: 2,
                weight: 0.1,
            },
        ];
        let mut reversed = entries.clone();
        reversed.reverse();
        let a = TopKWeights::from_heaviest(2, entries);
        let b = TopKWeights::from_heaviest(2, reversed);
        for t in [&a, &b] {
            assert_eq!(t.len(), 2);
            assert!(t.contains(1) && t.contains(9));
            assert_eq!(t.get(9), Some(-2.0));
        }
    }

    #[test]
    fn remove_returns_weight() {
        let mut t = TopKWeights::new(4);
        t.offer(1, 2.5);
        assert_eq!(t.remove(1), Some(2.5));
        assert_eq!(t.remove(1), None);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = TopKWeights::new(0);
    }

    #[test]
    fn codec_round_trip_is_canonical() {
        let mut t = TopKWeights::new(8);
        for (f, w) in [(9, -3.5), (1, 0.25), (400, 2.0), (7, -0.0)] {
            t.offer(f, w);
        }
        let mut w = wmsketch_hashing::codec::Writer::new();
        t.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = wmsketch_hashing::codec::Reader::new(&bytes);
        let back = TopKWeights::decode_from(&mut r, 8).unwrap();
        r.finish().unwrap();
        assert!(matches!(
            TopKWeights::decode_from(&mut wmsketch_hashing::codec::Reader::new(&bytes), 9),
            Err(wmsketch_hashing::codec::CodecError::Invalid(_))
        ));
        assert_eq!(back.capacity(), 8);
        assert_eq!(back.len(), 4);
        assert_eq!(back.get(7), Some(-0.0));
        assert_eq!(back.get(9), Some(-3.5));
        // Re-encoding yields identical bytes even though the decoded
        // tracker was built by a different insertion history.
        let mut w2 = wmsketch_hashing::codec::Writer::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_overfull_and_duplicates() {
        use wmsketch_hashing::codec::{CodecError, Reader, Writer};
        let mut w = Writer::new();
        w.put_u64(1); // capacity
        w.put_u64(2); // count > capacity
        assert!(matches!(
            TopKWeights::decode_from(&mut Reader::new(&w.into_bytes()), 1),
            Err(CodecError::Invalid(_))
        ));
        let mut w = Writer::new();
        w.put_u64(4);
        w.put_u64(2);
        for _ in 0..2 {
            w.put_u32(5);
            w.put_f64(1.0);
        }
        assert!(matches!(
            TopKWeights::decode_from(&mut Reader::new(&w.into_bytes()), 4),
            Err(CodecError::Invalid(_))
        ));
    }
}
