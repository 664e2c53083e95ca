//! The Count-Min sketch of Cormode & Muthukrishnan (2005).
//!
//! Non-negative counters; each key hashes to one cell per row (no signs) and
//! the estimate is the *minimum* over rows, giving a one-sided guarantee:
//! `v_i ≤ v̂_i ≤ v_i + ε‖v‖₁` with width `Θ(1/ε)` and depth `Θ(log(d/δ))`.
//!
//! Used by the frequent-features baseline classifier and, in pairs, by the
//! relative-deltoid baseline of Figure 10 (as in Cormode–Muthukrishnan's
//! "What's new" paper).

use wmsketch_hashing::codec::{CodecError, Reader, SnapshotCodec, Writer, KIND_COUNT_MIN};
use wmsketch_hashing::{HashFamilyKind, RowHashers};

use crate::countsketch::{put_cells, take_cells, SECTION_HEADER};

/// Update policy for the Count-Min sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountMinUpdate {
    /// Classic: add the delta to every row's cell.
    #[default]
    Classic,
    /// Conservative update (Estan–Varghese): only raise cells to the new
    /// lower bound, reducing over-estimation for skewed streams. An
    /// extension over the paper's baseline, used in ablations.
    Conservative,
}

/// A Count-Min sketch over 64-bit keys with `f64` counters.
#[derive(Clone)]
pub struct CountMinSketch {
    hashers: RowHashers,
    table: Vec<f64>,
    width: usize,
    depth: usize,
    policy: CountMinUpdate,
    total: f64,
    seed: u64,
}

impl std::fmt::Debug for CountMinSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountMinSketch")
            .field("depth", &self.depth)
            .field("width", &self.width)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl CountMinSketch {
    /// Creates a `depth × width` Count-Min sketch with the classic update
    /// policy and tabulation hashing.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    #[must_use]
    pub fn new(depth: u32, width: u32, seed: u64) -> Self {
        Self::with_policy(CountMinUpdate::Classic, depth, width, seed)
    }

    /// Creates a Count-Min sketch with an explicit update policy.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    #[must_use]
    pub fn with_policy(policy: CountMinUpdate, depth: u32, width: u32, seed: u64) -> Self {
        let hashers = RowHashers::new(HashFamilyKind::Tabulation, depth, width, seed);
        Self {
            hashers,
            table: vec![0.0; depth as usize * width as usize],
            width: width as usize,
            depth: depth as usize,
            policy,
            total: 0.0,
            seed,
        }
    }

    /// Whether `other` shares this sketch's shape, seed, and update policy,
    /// making cell-wise merges meaningful.
    #[must_use]
    pub fn merge_compatible(&self, other: &Self) -> bool {
        self.depth == other.depth
            && self.width == other.width
            && self.seed == other.seed
            && self.policy == other.policy
    }

    /// Adds `other`'s counters (and stream total) into `self`.
    ///
    /// Under the [`CountMinUpdate::Classic`] policy the sketch is a linear
    /// map, so the merge is *exact*: estimates equal those of one sketch
    /// that saw both streams, bit-identically when the deltas sum exactly
    /// (e.g. integral counts). Under [`CountMinUpdate::Conservative`] the
    /// merged cells still dominate each key's true combined count (each
    /// addend does per stream), so the one-sided guarantee
    /// `v̂_i ≥ v_i` survives, but the merged estimate may exceed what a
    /// single conservative sketch of the combined stream would report.
    ///
    /// # Panics
    /// Panics if the sketches are not [`CountMinSketch::merge_compatible`].
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "merging incompatible Count-Min sketches ({}x{} seed {} {:?} vs {}x{} seed {} {:?})",
            self.depth,
            self.width,
            self.seed,
            self.policy,
            other.depth,
            other.width,
            other.seed,
            other.policy
        );
        for (cell, &o) in self.table.iter_mut().zip(&other.table) {
            *cell += o;
        }
        self.total += other.total;
    }

    /// Consuming variant of [`CountMinSketch::merge_from`].
    ///
    /// # Panics
    /// Panics if the sketches are not [`CountMinSketch::merge_compatible`].
    #[must_use]
    pub fn merge(mut self, other: &Self) -> Self {
        self.merge_from(other);
        self
    }

    /// Sketch depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Row width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total cells.
    #[must_use]
    pub fn size(&self) -> usize {
        self.table.len()
    }

    /// Sum of all inserted deltas (the stream length `‖v‖₁` for unit
    /// increments).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Adds a non-negative `delta` to `key`'s count.
    ///
    /// # Panics
    /// Panics (debug only) if `delta` is negative — Count-Min's minimum
    /// estimator is only valid for non-negative updates.
    #[inline]
    pub fn update(&mut self, key: u64, delta: f64) {
        debug_assert!(delta >= 0.0, "Count-Min requires non-negative updates");
        self.total += delta;
        match self.policy {
            CountMinUpdate::Classic => {
                let Self { hashers, table, .. } = self;
                hashers.for_each_bucket(key, |offset| table[offset] += delta);
            }
            CountMinUpdate::Conservative => {
                // Raise each cell only to (current estimate + delta).
                let target = self.estimate(key) + delta;
                let Self { hashers, table, .. } = self;
                hashers.for_each_bucket(key, |offset| {
                    let cell = &mut table[offset];
                    if *cell < target {
                        *cell = target;
                    }
                });
            }
        }
    }

    /// Point estimate (minimum over rows); always ≥ the true count.
    ///
    /// An interleaved hash-and-fold walk: no offsets are staged, and the
    /// order-sensitive `<` fold keeps which of two equal (`±0.0`) cells
    /// wins fixed.
    #[inline]
    #[must_use]
    pub fn estimate(&self, key: u64) -> f64 {
        let mut min = f64::INFINITY;
        self.hashers.for_each_bucket(key, |offset| {
            let v = self.table[offset];
            if v < min {
                min = v;
            }
        });
        min
    }

    /// Resets the sketch.
    pub fn clear(&mut self) {
        self.table.fill(0.0);
        self.total = 0.0;
    }
}

/// Snapshot layout (after the `WMS1` envelope, kind [`KIND_COUNT_MIN`]):
///
/// ```text
/// section 0x01 HEADER: policy (u8: 0 classic, 1 conservative)
///                    | depth (u32) | width (u32) | seed (u64)
///                    | total (f64)
/// section 0x02 CELLS:  count (u64) | count × f64 (raw bit patterns)
/// ```
///
/// Count-Min rows are always tabulation-hashed (see
/// [`CountMinSketch::with_policy`]), so the header stores only the seed.
impl SnapshotCodec for CountMinSketch {
    const KIND: u8 = KIND_COUNT_MIN;

    fn encode_body(&self, w: &mut Writer) {
        let mark = w.begin_section(SECTION_HEADER);
        w.put_u8(match self.policy {
            CountMinUpdate::Classic => 0,
            CountMinUpdate::Conservative => 1,
        });
        w.put_u32(self.depth as u32);
        w.put_u32(self.width as u32);
        w.put_u64(self.seed);
        w.put_f64(self.total);
        w.end_section(mark);
        put_cells(w, &self.table);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut h = r.expect_section(SECTION_HEADER)?;
        let policy = match h.take_u8()? {
            0 => CountMinUpdate::Classic,
            1 => CountMinUpdate::Conservative,
            _ => return Err(CodecError::Invalid("unknown Count-Min update policy")),
        };
        let depth = h.take_u32()?;
        let width = h.take_u32()?;
        let seed = h.take_u64()?;
        let total = h.take_f64()?;
        h.finish()?;
        if depth == 0 || width == 0 {
            return Err(CodecError::Invalid("sketch depth/width must be nonzero"));
        }
        let expected = (depth as usize)
            .checked_mul(width as usize)
            .ok_or(CodecError::Invalid("depth*width overflows"))?;
        let table = take_cells(r, expected)?;
        let mut cm = Self::with_policy(policy, depth, width, seed);
        cm.table = table;
        cm.total = total;
        Ok(cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_single_key() {
        let mut cm = CountMinSketch::new(4, 32, 1);
        cm.update(9, 3.0);
        cm.update(9, 4.0);
        assert_eq!(cm.estimate(9), 7.0);
        assert_eq!(cm.total(), 7.0);
    }

    #[test]
    fn estimates_never_underestimate() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut truth = vec![0.0f64; 500];
        let mut cm = CountMinSketch::new(4, 64, 2);
        for _ in 0..10_000 {
            let k = rng.random_range(0..500u64);
            truth[k as usize] += 1.0;
            cm.update(k, 1.0);
        }
        for k in 0..500u64 {
            assert!(cm.estimate(k) >= truth[k as usize] - 1e-9);
        }
    }

    #[test]
    fn l1_error_guarantee_holds_mostly() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 2000u64;
        let width = 512u32;
        let mut truth = vec![0.0f64; n as usize];
        let mut cm = CountMinSketch::new(4, width, 7);
        for _ in 0..50_000 {
            let k = rng.random_range(0..n);
            truth[k as usize] += 1.0;
            cm.update(k, 1.0);
        }
        // ε = e / width; error ≤ ε‖v‖₁ with prob 1 − e^-depth per key.
        let eps = std::f64::consts::E / f64::from(width);
        let bound = eps * cm.total();
        let failures = (0..n)
            .filter(|&k| cm.estimate(k) - truth[k as usize] > bound)
            .count();
        assert!(failures <= 40, "failures {failures} bound {bound:.1}");
    }

    #[test]
    fn conservative_update_never_underestimates_and_dominates_classic() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let n = 300u64;
        let mut truth = vec![0.0f64; n as usize];
        let mut classic = CountMinSketch::new(3, 32, 9);
        let mut cons = CountMinSketch::with_policy(CountMinUpdate::Conservative, 3, 32, 9);
        for _ in 0..20_000 {
            let k = rng.random_range(0..n);
            truth[k as usize] += 1.0;
            classic.update(k, 1.0);
            cons.update(k, 1.0);
        }
        let mut total_classic_err = 0.0;
        let mut total_cons_err = 0.0;
        for k in 0..n {
            let t = truth[k as usize];
            assert!(cons.estimate(k) >= t - 1e-9, "conservative underestimated");
            total_classic_err += classic.estimate(k) - t;
            total_cons_err += cons.estimate(k) - t;
        }
        assert!(
            total_cons_err <= total_classic_err + 1e-9,
            "conservative {total_cons_err} vs classic {total_classic_err}"
        );
    }

    #[test]
    fn merge_equals_unsplit_for_classic_policy() {
        let mut whole = CountMinSketch::new(4, 32, 6);
        let mut left = CountMinSketch::new(4, 32, 6);
        let mut right = CountMinSketch::new(4, 32, 6);
        for k in 0..200u64 {
            let d = f64::from((k % 5) as u32);
            whole.update(k, d);
            if k % 2 == 0 {
                left.update(k, d);
            } else {
                right.update(k, d);
            }
        }
        left.merge_from(&right);
        assert_eq!(left.total(), whole.total());
        for k in 0..200u64 {
            assert_eq!(left.estimate(k), whole.estimate(k));
        }
    }

    #[test]
    fn merged_conservative_sketches_never_underestimate() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let mut truth = vec![0.0f64; 100];
        let mut a = CountMinSketch::with_policy(CountMinUpdate::Conservative, 3, 16, 4);
        let mut b = CountMinSketch::with_policy(CountMinUpdate::Conservative, 3, 16, 4);
        for t in 0..5000 {
            let k = rng.random_range(0..100u64);
            truth[k as usize] += 1.0;
            if t % 2 == 0 {
                a.update(k, 1.0);
            } else {
                b.update(k, 1.0);
            }
        }
        let merged = a.merge(&b);
        for k in 0..100u64 {
            assert!(merged.estimate(k) >= truth[k as usize] - 1e-9, "key {k}");
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_policy_mismatch() {
        let mut a = CountMinSketch::new(2, 8, 1);
        let b = CountMinSketch::with_policy(CountMinUpdate::Conservative, 2, 8, 1);
        a.merge_from(&b);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        for policy in [CountMinUpdate::Classic, CountMinUpdate::Conservative] {
            let mut cm = CountMinSketch::with_policy(policy, 4, 32, 23);
            for k in 0..300u64 {
                cm.update(k, f64::from((k % 6) as u32));
            }
            let bytes = cm.to_snapshot_bytes();
            let back = CountMinSketch::from_snapshot_bytes(&bytes).unwrap();
            assert!(back.merge_compatible(&cm));
            assert_eq!(back.total().to_bits(), cm.total().to_bits());
            assert_eq!(back.to_snapshot_bytes(), bytes);
            for k in 0..300u64 {
                assert!(back.estimate(k).to_bits() == cm.estimate(k).to_bits());
            }
        }
    }

    #[test]
    fn snapshot_rejects_unknown_policy() {
        let cm = CountMinSketch::new(2, 8, 1);
        let mut bytes = cm.to_snapshot_bytes();
        // Policy byte sits right after envelope (6) + section tag/len (5).
        bytes[11] = 9;
        wmsketch_hashing::codec::reseal_record(&mut bytes);
        assert!(matches!(
            CountMinSketch::from_snapshot_bytes(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn clear_resets_total() {
        let mut cm = CountMinSketch::new(2, 8, 1);
        cm.update(1, 5.0);
        cm.clear();
        assert_eq!(cm.total(), 0.0);
        assert_eq!(cm.estimate(1), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn negative_update_panics_in_debug() {
        let mut cm = CountMinSketch::new(2, 8, 1);
        cm.update(1, -1.0);
    }
}
