//! A binary min-heap over dense entry slots, with a key → slot index.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use wmsketch_hashing::FastHashMap;

/// A binary min-heap over `(key, priority)` pairs with `O(log n)`
/// insert / pop-min / change-priority / remove-by-key and `O(1)` lookup.
///
/// Entries are ordered by `(priority asc, key desc)`: among equal
/// priorities the **largest** key is the minimum. The order is total over
/// distinct keys, so which entry is the minimum depends only on the
/// current contents, never on insertion history — a heap rebuilt in any
/// order pops exactly what the original would. Priorities must not be
/// NaN.
///
/// **Dense handles.** Every entry lives in a *slot* of a dense array and
/// keeps that slot for as long as it is present, so a caller can look a
/// key up once ([`IndexedHeap::find`]) and then read and reprioritize the
/// entry by slot ([`IndexedHeap::entry`], [`IndexedHeap::set_priority`])
/// with no further hashing. Heap order is kept over slot ids with a dense
/// slot → position inverse, so a sift swap writes two `u32`s; the key →
/// slot hash map is touched only when a key is inserted or removed. A
/// removed entry's slot is reused by a later insert, and
/// [`IndexedHeap::replace_min`] hands the minimum's slot straight to its
/// replacement.
#[derive(Debug, Clone)]
pub struct IndexedHeap<K: Copy + Ord + Hash> {
    /// slot → `(key, priority)`; stale for free slots.
    entries: Vec<(K, f64)>,
    /// A permutation of all slot ids: `order[..len]` is the binary heap,
    /// `order[len..]` the free slots.
    order: Vec<u32>,
    /// slot → its position in `order` (the inverse permutation).
    pos: Vec<u32>,
    /// Number of present entries.
    len: usize,
    /// key → slot, for present entries only.
    index: FastHashMap<K, u32>,
}

impl<K: Copy + Ord + Hash> Default for IndexedHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord + Hash> IndexedHeap<K> {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty heap with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut index = FastHashMap::default();
        index.reserve(cap);
        Self {
            entries: Vec::with_capacity(cap),
            order: Vec::with_capacity(cap),
            pos: Vec::with_capacity(cap),
            len: 0,
            index,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Estimated heap bytes this structure owns: the slot array and the
    /// two `u32` permutation arrays at their allocated capacities, plus
    /// the key → slot index (hash-table buckets cost their entry size
    /// plus one control byte each).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, f64)>()
            + (self.order.capacity() + self.pos.capacity()) * std::mem::size_of::<u32>()
            + self.index.capacity() * (std::mem::size_of::<(K, u32)>() + 1)
    }

    /// The slot holding `key`, if present. The slot stays `key`'s until
    /// `key` is removed (popped, replaced as the minimum, or removed by
    /// key).
    #[must_use]
    pub fn find(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The `(key, priority)` held in a present entry's `slot`.
    #[inline]
    #[must_use]
    pub fn entry(&self, slot: u32) -> (K, f64) {
        debug_assert!((self.pos[slot as usize] as usize) < self.len, "free slot");
        self.entries[slot as usize]
    }

    /// The slot of the minimum entry, if any.
    #[must_use]
    pub fn min_slot(&self) -> Option<u32> {
        (self.len > 0).then(|| self.order[0])
    }

    /// The priority of `key`, if present.
    #[must_use]
    pub fn priority(&self, key: &K) -> Option<f64> {
        self.find(key).map(|s| self.entries[s as usize].1)
    }

    /// The minimum entry `(key, priority)` without removing it.
    #[must_use]
    pub fn peek_min(&self) -> Option<(K, f64)> {
        self.min_slot().map(|s| self.entries[s as usize])
    }

    /// Changes the priority of the present entry in `slot`.
    pub fn set_priority(&mut self, slot: u32, priority: f64) {
        debug_assert!(!priority.is_nan(), "NaN priority");
        let old = std::mem::replace(&mut self.entries[slot as usize].1, priority);
        let i = self.pos[slot as usize] as usize;
        if priority < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Inserts `key` with `priority`, or updates its priority if present,
    /// returning the key's slot. One hash-map operation either way.
    ///
    /// # Panics
    /// Panics if the heap would need more than `2^32` slots.
    pub fn insert(&mut self, key: K, priority: f64) -> u32 {
        debug_assert!(!priority.is_nan(), "NaN priority");
        let free = self.order.get(self.len).copied();
        let slot = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.set_priority(slot, priority);
                return slot;
            }
            Entry::Vacant(e) => {
                let slot = free.unwrap_or_else(|| {
                    u32::try_from(self.order.len()).expect("indexed heap slot ids are u32")
                });
                *e.insert(slot)
            }
        };
        if free.is_some() {
            self.entries[slot as usize] = (key, priority);
        } else {
            self.entries.push((key, priority));
            self.order.push(slot);
            self.pos.push(slot);
        }
        self.len += 1;
        self.sift_up(self.len - 1);
        slot
    }

    /// Replaces the minimum entry with `(key, priority)` in the same slot
    /// and returns the displaced minimum: one hash removal and one hash
    /// insertion, then a single sift down from the root. `None` (and no
    /// change) when the heap is empty.
    ///
    /// `key` must not be present.
    pub fn replace_min(&mut self, key: K, priority: f64) -> Option<(K, f64)> {
        debug_assert!(!priority.is_nan(), "NaN priority");
        debug_assert!(!self.contains(&key), "replacement key already present");
        let slot = self.min_slot()?;
        let min = std::mem::replace(&mut self.entries[slot as usize], (key, priority));
        self.index.remove(&min.0);
        self.index.insert(key, slot);
        self.sift_down(0);
        Some(min)
    }

    /// Removes and returns the minimum entry.
    pub fn pop_min(&mut self) -> Option<(K, f64)> {
        let slot = self.min_slot()?;
        let min = self.entries[slot as usize];
        self.index.remove(&min.0);
        self.remove_at(0);
        Some(min)
    }

    /// Removes `key`, returning its priority if it was present.
    pub fn remove(&mut self, key: &K) -> Option<f64> {
        let slot = self.index.remove(key)?;
        self.remove_at(self.pos[slot as usize] as usize);
        Some(self.entries[slot as usize].1)
    }

    /// Iterates over entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        self.slots().map(|s| self.entries[s as usize])
    }

    /// Iterates over the slots of present entries in arbitrary (heap)
    /// order.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.order[..self.len].iter().copied()
    }

    /// Sets every entry's priority to `f(slot)` and restores heap order
    /// bottom-up in `O(n)`. Slots are unchanged.
    pub fn reset_priorities(&mut self, mut f: impl FnMut(u32) -> f64) {
        for &s in &self.order[..self.len] {
            let priority = f(s);
            debug_assert!(!priority.is_nan(), "NaN priority");
            self.entries[s as usize].1 = priority;
        }
        for i in (0..self.len / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Moves the entry at heap position `i` out of the heap into the free
    /// region; its index entry must already be gone.
    fn remove_at(&mut self, i: usize) {
        let last = self.len - 1;
        self.swap_positions(i, last);
        self.len = last;
        if i != last {
            // The moved element may need to go either way.
            self.sift_up(i);
            self.sift_down(i);
        }
    }

    /// Whether the entry at heap position `a` orders strictly before the
    /// one at `b` under `(priority asc, key desc)`.
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        let (ka, pa) = self.entries[self.order[a] as usize];
        let (kb, pb) = self.entries[self.order[b] as usize];
        pa < pb || (pa == pb && ka > kb)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.swap_positions(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.len;
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.less(l, smallest) {
                smallest = l;
            }
            if r < n && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap_positions(i, smallest);
            i = smallest;
        }
    }

    #[inline]
    fn swap_positions(&mut self, a: usize, b: usize) {
        self.order.swap(a, b);
        self.pos[self.order[a] as usize] = a as u32;
        self.pos[self.order[b] as usize] = b as u32;
    }

    /// Structural validation (heap order, the slot/position permutation
    /// and the key index); `O(n)`. Intended for tests — including
    /// release-mode integration tests, so not gated on `debug_assertions`.
    pub fn assert_invariants(&self) {
        let slots = self.entries.len();
        assert_eq!(self.order.len(), slots, "order array length");
        assert_eq!(self.pos.len(), slots, "position array length");
        assert!(self.len <= slots, "more entries than slots");
        assert_eq!(self.index.len(), self.len, "index size");
        for (i, &s) in self.order.iter().enumerate() {
            assert!((s as usize) < slots, "slot id out of range at {i}");
            assert_eq!(
                self.pos[s as usize] as usize, i,
                "position array out of sync"
            );
            if i < self.len {
                let key = self.entries[s as usize].0;
                assert_eq!(self.index.get(&key), Some(&s), "index out of sync");
                if i > 0 {
                    assert!(!self.less(i, (i - 1) / 2), "heap order violated at {i}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_sorted_order() {
        let mut h = IndexedHeap::new();
        for (k, p) in [(1u32, 5.0), (2, 1.0), (3, 3.0), (4, 4.0), (5, 2.0)] {
            h.insert(k, p);
            h.assert_invariants();
        }
        let mut out = Vec::new();
        while let Some((_, p)) = h.pop_min() {
            out.push(p);
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn change_priority_moves_both_directions() {
        let mut h = IndexedHeap::new();
        for i in 0..10u32 {
            h.insert(i, f64::from(i));
        }
        h.insert(9, -1.0); // decrease-key
        h.assert_invariants();
        assert_eq!(h.peek_min(), Some((9, -1.0)));
        h.insert(9, 100.0); // increase-key
        h.assert_invariants();
        assert_eq!(h.peek_min(), Some((0, 0.0)));
        assert_eq!(h.priority(&9), Some(100.0));
    }

    #[test]
    fn remove_by_key_keeps_structure() {
        let mut h = IndexedHeap::new();
        for i in 0..20u32 {
            h.insert(i, f64::from((i * 7) % 20));
        }
        assert_eq!(h.remove(&5), Some(f64::from((5 * 7) % 20)));
        assert_eq!(h.remove(&5), None);
        h.assert_invariants();
        assert_eq!(h.len(), 19);
        assert!(!h.contains(&5));
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
        assert_eq!(h.peek_min(), None);
        assert_eq!(h.min_slot(), None);
        assert_eq!(h.replace_min(1, 1.0), None);
        assert_eq!(h.remove(&1), None);
        assert_eq!(h.priority(&1), None);
        assert_eq!(h.find(&1), None);
    }

    #[test]
    fn duplicate_insert_updates_in_place() {
        let mut h = IndexedHeap::new();
        let slot = h.insert(1u32, 10.0);
        assert_eq!(h.insert(1, 20.0), slot);
        assert_eq!(h.len(), 1);
        assert_eq!(h.priority(&1), Some(20.0));
    }

    #[test]
    fn remove_last_element_path() {
        let mut h = IndexedHeap::new();
        h.insert(1u32, 1.0);
        h.insert(2, 2.0);
        // Element 2 sits in the last heap position; removing it exercises
        // the no-sift branch.
        assert_eq!(h.remove(&2), Some(2.0));
        h.assert_invariants();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn slots_are_stable_and_reused() {
        let mut h = IndexedHeap::new();
        let slots: Vec<u32> = (0..8u32).map(|k| h.insert(k, f64::from(k))).collect();
        // Sifts move heap positions, never slots.
        h.set_priority(slots[7], -1.0);
        h.insert(3, 50.0);
        for (k, &s) in slots.iter().enumerate() {
            assert_eq!(h.find(&(k as u32)), Some(s));
            assert_eq!(h.entry(s).0, k as u32);
        }
        // The minimum's slot goes to its replacement.
        assert_eq!(h.replace_min(100, 0.5), Some((7, -1.0)));
        assert_eq!(h.find(&100), Some(slots[7]));
        assert_eq!(h.find(&7), None);
        // A freed slot is taken by the next new key.
        assert_eq!(h.remove(&4), Some(4.0));
        assert_eq!(h.insert(200, 9.0), slots[4]);
        h.assert_invariants();
        // Re-prioritizing everything keeps every slot and the tie order.
        h.reset_priorities(|_| 1.0);
        h.assert_invariants();
        assert_eq!(h.find(&200), Some(slots[4]));
        assert_eq!(h.peek_min(), Some((200, 1.0)));
    }

    #[test]
    fn randomized_against_reference_model() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1);
        let mut h = IndexedHeap::new();
        let mut model: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        // The reference minimum under (priority asc, key desc): the key is
        // pinned, not just the priority.
        let model_min = |model: &std::collections::HashMap<u32, f64>| {
            model
                .iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
                .map(|(&k, &p)| (k, p))
        };
        for _ in 0..5000 {
            let k = rng.random_range(0..100u32);
            // Few distinct priorities, so ties at the minimum are common
            // and the tie order is exercised.
            let p = f64::from(rng.random_range(0..16u32)) - 8.0;
            match rng.random_range(0..5u32) {
                0 | 1 => {
                    h.insert(k, p);
                    model.insert(k, p);
                }
                2 => {
                    assert_eq!(h.remove(&k), model.remove(&k));
                }
                3 => {
                    if !model.contains_key(&k) {
                        let want = model_min(&model);
                        assert_eq!(h.replace_min(k, p), want);
                        if let Some((mk, _)) = want {
                            model.remove(&mk);
                            model.insert(k, p);
                        }
                    }
                }
                _ => {
                    let want = model_min(&model);
                    assert_eq!(h.pop_min(), want);
                    if let Some((mk, _)) = want {
                        model.remove(&mk);
                    }
                }
            }
            assert_eq!(h.peek_min(), model_min(&model));
        }
        h.assert_invariants();
        assert_eq!(h.len(), model.len());
    }
}
