//! Property-based tests for the heavy-hitter substrates.

use proptest::prelude::*;
use wmsketch_hashing::codec::{Reader, Writer};
use wmsketch_hh::{IndexedHeap, Offer, SpaceSaving, TopKWeights, WeightEntry};

/// Few distinct magnitudes, both signs and both zeros, so |weight| ties
/// (and ±0.0 ties) are the common case.
const TIE_WEIGHTS: [f64; 8] = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0];

/// Fold factors: ordinary, growing, underflowing into subnormals (which
/// rounds distinct magnitudes together), and zero (everything ties).
const SCALES: [f64; 5] = [0.5, 3.0, 1e-310, 0.0, 0.25];

/// Brute-force top-K reference: the tracked `(feature, weight)` pairs in a
/// plain vector, the minimum found by a full scan under
/// `(|weight| asc, feature desc)`.
struct RefTopK {
    capacity: usize,
    entries: Vec<WeightEntry>,
}

impl RefTopK {
    fn position(&self, feature: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.feature == feature)
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.entries.len()).min_by(|&a, &b| {
            let (ea, eb) = (self.entries[a], self.entries[b]);
            ea.weight
                .abs()
                .partial_cmp(&eb.weight.abs())
                .unwrap()
                .then(eb.feature.cmp(&ea.feature))
        })
    }

    fn min_entry(&self) -> Option<WeightEntry> {
        self.min_index().map(|i| self.entries[i])
    }

    fn floor(&self) -> Option<f64> {
        if self.entries.len() < self.capacity {
            return None;
        }
        self.min_entry().map(|e| e.weight.abs())
    }

    fn offer(&mut self, feature: u32, weight: f64) -> Offer {
        if let Some(i) = self.position(feature) {
            self.entries[i].weight = weight;
            return Offer::Updated;
        }
        let new = WeightEntry { feature, weight };
        match self.floor() {
            None => {
                self.entries.push(new);
                Offer::Inserted
            }
            Some(floor) if weight.abs() > floor => {
                let i = self.min_index().unwrap();
                Offer::Evicted(std::mem::replace(&mut self.entries[i], new))
            }
            Some(_) => Offer::Rejected,
        }
    }

    fn remove(&mut self, feature: u32) -> Option<f64> {
        self.position(feature)
            .map(|i| self.entries.swap_remove(i).weight)
    }

    fn truncate_to(&mut self, k: usize) {
        while self.entries.len() > k {
            let i = self.min_index().unwrap();
            self.entries.swap_remove(i);
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|e| e.feature);
        let mut w = Writer::new();
        w.put_u64(self.capacity as u64);
        w.put_u64(sorted.len() as u64);
        for e in sorted {
            w.put_u32(e.feature);
            w.put_f64(e.weight);
        }
        w.into_bytes()
    }
}

fn encode(t: &TopKWeights) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode_into(&mut w);
    w.into_bytes()
}

/// Bit patterns, so `-0.0` and `0.0` are told apart.
fn bits(e: Option<WeightEntry>) -> Option<(u32, u64)> {
    e.map(|e| (e.feature, e.weight.to_bits()))
}

/// Offer outcomes with weights as bit patterns.
fn offer_bits(o: Offer) -> (u8, Option<(u32, u64)>) {
    match o {
        Offer::Updated => (0, None),
        Offer::Inserted => (1, None),
        Offer::Evicted(e) => (2, bits(Some(e))),
        Offer::Rejected => (3, None),
    }
}

proptest! {
    /// The indexed heap behaves identically to a sort: inserting arbitrary
    /// pairs and popping everything yields priorities in ascending order,
    /// with the position map intact throughout.
    #[test]
    fn heap_pops_sorted(pairs in prop::collection::vec((0u32..50, -1e6f64..1e6), 1..100)) {
        let mut h = IndexedHeap::new();
        let mut model = std::collections::HashMap::new();
        for &(k, p) in &pairs {
            h.insert(k, p);
            model.insert(k, p);
        }
        h.assert_invariants();
        let mut popped = Vec::new();
        while let Some((k, p)) = h.pop_min() {
            prop_assert_eq!(model.remove(&k), Some(p));
            popped.push(p);
        }
        prop_assert!(model.is_empty());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    /// TopKWeights tracks exactly the same set as a brute-force "keep the
    /// K largest |w|" reference when all offered features are distinct.
    #[test]
    fn topk_matches_bruteforce_on_distinct_features(
        weights in prop::collection::vec(-1e3f64..1e3, 1..60),
        k in 1usize..10,
    ) {
        let mut t = TopKWeights::new(k);
        for (f, &w) in weights.iter().enumerate() {
            t.offer(f as u32, w);
        }
        let mut expect: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
        expect.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
        expect.truncate(k);
        let got: std::collections::HashSet<u32> = t.iter().map(|e| e.feature).collect();
        // Sets can differ on ties; compare the magnitude of the smallest
        // kept entry instead, which is tie-insensitive.
        let min_kept_got = t.iter().map(|e| e.weight.abs()).fold(f64::INFINITY, f64::min);
        let min_kept_expect = expect.iter().map(|(_, w)| w.abs()).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(got.len(), expect.len());
        prop_assert!((min_kept_got - min_kept_expect).abs() < 1e-12);
    }

    /// TopKWeights against a brute-force reference under heavy |weight|
    /// ties: every operation of the tracker's API, mixed, with the
    /// observable state compared after each step.
    #[test]
    fn topk_matches_bruteforce_with_ties(
        ops in prop::collection::vec((0u32..10, 0u32..12, 0usize..TIE_WEIGHTS.len(), 0usize..SCALES.len()), 1..150),
        k in 1usize..6,
    ) {
        let mut t = TopKWeights::new(k);
        let mut model = RefTopK { capacity: k, entries: Vec::new() };
        for &(op, feature, wi, si) in &ops {
            let weight = TIE_WEIGHTS[wi];
            match op {
                0 | 1 => {
                    prop_assert_eq!(offer_bits(t.offer(feature, weight)), offer_bits(model.offer(feature, weight)));
                }
                2 | 3 => match t.find(feature) {
                    // Tracked: read and write through the slot.
                    Some(slot) => {
                        let i = model.position(feature);
                        prop_assert!(i.is_some(), "find hit an untracked feature");
                        let i = i.unwrap();
                        prop_assert_eq!(bits(Some(t.entry(slot))), bits(Some(model.entries[i])));
                        t.set(slot, weight);
                        model.entries[i].weight = weight;
                    }
                    None => {
                        prop_assert!(model.position(feature).is_none(), "find missed a tracked feature");
                        prop_assert_eq!(
                            offer_bits(t.offer_untracked(feature, weight)),
                            offer_bits(model.offer(feature, weight))
                        );
                    }
                },
                4 => {
                    prop_assert_eq!(t.remove(feature).map(f64::to_bits), model.remove(feature).map(f64::to_bits));
                }
                5 => {
                    let keep = (feature as usize) % (k + 1);
                    t.truncate_to(keep);
                    model.truncate_to(keep);
                }
                6 | 7 => {
                    let a = SCALES[si];
                    t.scale_all(a);
                    for e in &mut model.entries {
                        e.weight *= a;
                    }
                }
                _ => {
                    let bytes = encode(&t);
                    let mut r = Reader::new(&bytes);
                    t = TopKWeights::decode_from(&mut r, k).unwrap();
                    r.finish().unwrap();
                }
            }
            prop_assert_eq!(t.len(), model.entries.len());
            prop_assert_eq!(bits(t.min_entry()), bits(model.min_entry()));
            prop_assert_eq!(t.floor().map(f64::to_bits), model.floor().map(f64::to_bits));
            for f in 0..12 {
                prop_assert_eq!(t.contains(f), model.position(f).is_some());
            }
            prop_assert_eq!(encode(&t), model.encode());
        }
    }

    /// `scale_all` is the old fold loop (collect every entry, then write
    /// `weight × a` back through an offer per feature) done in place: the
    /// same encoding, the same minimum, and the same outcomes for every
    /// later offer.
    #[test]
    fn scale_all_matches_the_offer_loop_fold(
        fill in prop::collection::vec((0u32..40, 0usize..TIE_WEIGHTS.len()), 1..80),
        later in prop::collection::vec((0u32..40, 0usize..TIE_WEIGHTS.len()), 1..40),
        k in 1usize..12,
        si in 0usize..SCALES.len(),
    ) {
        let mut folded = TopKWeights::new(k);
        for &(f, wi) in &fill {
            folded.offer(f, TIE_WEIGHTS[wi] * f64::from(f % 7 + 1));
        }
        let mut looped = folded.clone();
        let a = SCALES[si];
        folded.scale_all(a);
        let entries: Vec<WeightEntry> = looped.iter().collect();
        for e in entries {
            prop_assert_eq!(looped.offer(e.feature, e.weight * a), Offer::Updated);
        }
        prop_assert_eq!(encode(&folded), encode(&looped));
        prop_assert_eq!(bits(folded.min_entry()), bits(looped.min_entry()));
        for &(f, wi) in &later {
            let w = TIE_WEIGHTS[wi] * a.max(0.5);
            prop_assert_eq!(offer_bits(folded.offer(f, w)), offer_bits(looped.offer(f, w)));
        }
        prop_assert_eq!(encode(&folded), encode(&looped));
    }

    /// The indexed heap's slot API against a reference map under ties:
    /// slots stay put while a key is present, and the slot and position
    /// arrays stay a consistent permutation after every operation.
    #[test]
    fn heap_slots_stay_stable(ops in prop::collection::vec((0u32..5, 0u32..16, 0u32..4), 1..200)) {
        let mut h = IndexedHeap::new();
        let mut model: std::collections::HashMap<u32, (u32, f64)> = std::collections::HashMap::new();
        for &(op, key, p) in &ops {
            let p = f64::from(p);
            match op {
                0 | 1 => {
                    let slot = h.insert(key, p);
                    if let Some(&(s, _)) = model.get(&key) {
                        prop_assert_eq!(slot, s);
                    }
                    model.insert(key, (slot, p));
                }
                2 => {
                    prop_assert_eq!(h.remove(&key), model.remove(&key).map(|(_, p)| p));
                }
                3 => {
                    if let Some(&(s, _)) = model.get(&key) {
                        h.set_priority(s, p);
                        model.insert(key, (s, p));
                    }
                }
                _ => {
                    if let Some((k, _)) = h.pop_min() {
                        model.remove(&k);
                    }
                }
            }
            h.assert_invariants();
            prop_assert_eq!(h.len(), model.len());
            for (&k, &(s, p)) in &model {
                prop_assert_eq!(h.find(&k), Some(s));
                prop_assert_eq!(h.entry(s), (k, p));
            }
        }
    }

    /// Space-Saving invariants on arbitrary streams: counter ≥ truth for
    /// monitored items, guaranteed ≤ truth, overestimate ≤ total/capacity.
    #[test]
    fn spacesaving_invariants(stream in prop::collection::vec(0u64..40, 1..500), cap in 2usize..20) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth = std::collections::HashMap::new();
        for &item in &stream {
            *truth.entry(item).or_insert(0.0) += 1.0;
            ss.update(item, 1.0);
        }
        prop_assert!((ss.total() - stream.len() as f64).abs() < 1e-9);
        let bound = ss.total() / cap as f64;
        for e in ss.iter() {
            let t = truth.get(&e.item).copied().unwrap_or(0.0);
            prop_assert!(e.count >= t - 1e-9);
            prop_assert!(e.count - t <= bound + 1e-9);
            prop_assert!(ss.guaranteed(e.item) <= t + 1e-9);
        }
        prop_assert!(ss.len() <= cap);
    }
}
