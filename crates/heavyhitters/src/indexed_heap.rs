//! A binary min-heap with a key → slot index, supporting change-key.

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
#[derive(Debug, Clone)]
pub struct IndexedHeap<K: Copy + Ord + Hash> {
    /// Heap-ordered array of (key, priority).
    slots: Vec<(K, f64)>,
    /// key → index into `slots`.
    pos: FastHashMap<K, usize>,
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
        Self {
            slots: Vec::new(),
            pos: FastHashMap::default(),
        }
    }

    /// Creates an empty heap with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut pos = FastHashMap::default();
        pos.reserve(cap);
        Self {
            slots: Vec::with_capacity(cap),
            pos,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.pos.contains_key(key)
    }

    /// Estimated heap bytes this structure owns: the slot array at its
    /// allocated capacity plus the position index (hash-table buckets
    /// cost their entry size plus one control byte each).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(K, f64)>()
            + self.pos.capacity() * (std::mem::size_of::<(K, usize)>() + 1)
    }

    /// The priority of `key`, if present.
    #[must_use]
    pub fn priority(&self, key: &K) -> Option<f64> {
        self.pos.get(key).map(|&i| self.slots[i].1)
    }

    /// The minimum entry `(key, priority)` without removing it.
    #[must_use]
    pub fn peek_min(&self) -> Option<(K, f64)> {
        self.slots.first().copied()
    }

    /// Inserts `key` with `priority`, or updates its priority if present.
    pub fn insert(&mut self, key: K, priority: f64) {
        debug_assert!(!priority.is_nan(), "NaN priority");
        if let Some(&i) = self.pos.get(&key) {
            let old = self.slots[i].1;
            self.slots[i].1 = priority;
            if priority < old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        } else {
            let i = self.slots.len();
            self.slots.push((key, priority));
            self.pos.insert(key, i);
            self.sift_up(i);
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop_min(&mut self) -> Option<(K, f64)> {
        if self.slots.is_empty() {
            return None;
        }
        let min = self.slots[0];
        self.remove_at(0);
        Some(min)
    }

    /// Removes `key`, returning its priority if it was present.
    pub fn remove(&mut self, key: &K) -> Option<f64> {
        let i = *self.pos.get(key)?;
        let pri = self.slots[i].1;
        self.remove_at(i);
        Some(pri)
    }

    /// Iterates over entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        self.slots.iter().copied()
    }

    fn remove_at(&mut self, i: usize) {
        let last = self.slots.len() - 1;
        self.pos.remove(&self.slots[i].0);
        if i != last {
            self.slots.swap(i, last);
            self.slots.pop();
            *self.pos.get_mut(&self.slots[i].0).expect("stale position") = i;
            // The moved element may need to go either way.
            self.sift_up(i);
            self.sift_down(i);
        } else {
            self.slots.pop();
        }
    }

    /// Whether slot `a` orders strictly before slot `b` under
    /// `(priority asc, key desc)`.
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        let ((ka, pa), (kb, pb)) = (self.slots[a], self.slots[b]);
        pa < pb || (pa == pb && ka > kb)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
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
            self.swap_slots(i, smallest);
            i = smallest;
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        *self.pos.get_mut(&self.slots[a].0).expect("stale position") = a;
        *self.pos.get_mut(&self.slots[b].0).expect("stale position") = b;
    }

    /// Structural validation (heap order + position map); `O(n)`. Intended
    /// for tests — including release-mode integration tests, so not gated
    /// on `debug_assertions`.
    pub fn assert_invariants(&self) {
        assert_eq!(self.slots.len(), self.pos.len());
        for (i, (k, _)) in self.slots.iter().enumerate() {
            assert_eq!(self.pos[k], i, "position map out of sync");
            if i > 0 {
                assert!(!self.less(i, (i - 1) / 2), "heap order violated at {i}");
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
        assert_eq!(h.remove(&1), None);
        assert_eq!(h.priority(&1), None);
    }

    #[test]
    fn duplicate_insert_updates_in_place() {
        let mut h = IndexedHeap::new();
        h.insert(1u32, 10.0);
        h.insert(1, 20.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.priority(&1), Some(20.0));
    }

    #[test]
    fn remove_last_element_path() {
        let mut h = IndexedHeap::new();
        h.insert(1u32, 1.0);
        h.insert(2, 2.0);
        // Element 2 sits in the last slot; removing it exercises the
        // no-swap branch.
        assert_eq!(h.remove(&2), Some(2.0));
        h.assert_invariants();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn randomized_against_reference_model() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1);
        let mut h = IndexedHeap::new();
        let mut model: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for _ in 0..5000 {
            let k = rng.random_range(0..100u32);
            match rng.random_range(0..4u32) {
                0 | 1 => {
                    // Few distinct priorities, so ties at the minimum are
                    // common and the tie order is exercised.
                    let p = f64::from(rng.random_range(0..16u32)) - 8.0;
                    h.insert(k, p);
                    model.insert(k, p);
                }
                2 => {
                    assert_eq!(h.remove(&k), model.remove(&k));
                }
                _ => {
                    if let Some((mk, mp)) = h.pop_min() {
                        // The reference minimum under (priority asc, key
                        // desc): the key is pinned, not just the priority.
                        let (&want_k, &want_p) = model
                            .iter()
                            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
                            .unwrap();
                        assert_eq!((mk, mp), (want_k, want_p));
                        model.remove(&mk);
                    } else {
                        assert!(model.is_empty());
                    }
                }
            }
        }
        h.assert_invariants();
        assert_eq!(h.len(), model.len());
    }
}
