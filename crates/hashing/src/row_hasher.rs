//! Per-row bucket-and-sign hashing for Count-Sketch-style structures.
//!
//! A sketch of depth `s` and width `w` keeps, for each row `j ∈ [s]`, a pair
//! `(h_j, σ_j)` with `h_j(i) ∈ [w]` and `σ_j(i) ∈ {-1, +1}`. We derive both
//! from a single 64-bit hash per row: bit 63 selects the sign and the low 63
//! bits (shifted up so the multiply-shift range reduction sees uniform top
//! bits) select the bucket, which costs one table-hash evaluation per row
//! per feature.
//!
//! [`RowHashers`] stores the rows *monomorphized by family*, never as a
//! vector of enums, and hashes a key for every row in one call
//! ([`RowHashers::for_each_coord`], [`RowHashers::fill_plan`]). The
//! single-hash update pipeline in `wmsketch-core` builds a [`CoordPlan`]
//! per example and replays it for the margin, the gradient scatter, and
//! heap re-estimation, paying the hash cost exactly once per
//! `(feature, row)` pair.
//!
//! # Row-interleaved tabulation tables
//!
//! Row `j`'s tabulation function is the [`TabulationHash`] of the `j`-th
//! seed drawn from the sketch seed, but the rows do not own separate
//! tables. All `depth` functions live in one array: the entry for
//! `(chunk, byte, row)` sits at `(chunk·256 + byte)·depth + row`. The
//! words a key needs from every row are then eight contiguous
//! `depth`-long lanes, one per key byte, and hashing the key for all rows
//! is a sweep that XORs the lanes element by element. The array holds the
//! same words as `depth` separate tables, so it costs the same 16 KiB per
//! row.
//!
//! Feature ids are `u32`, so the four high bytes of a key are almost
//! always zero and their four lanes are the same for every such key. Each
//! row keeps their XOR (`hi_zero`), and a key below `2^32` sweeps only
//! its four low lanes plus `hi_zero`. XOR is associative and commutative,
//! so this gives every row the same hash bit for bit as the eight-lookup
//! [`TabulationHash::hash`].
//!
//! A depth-1 sketch (the AWM-Sketch's usual shape) skips the sweep and
//! makes the eight lookups directly: with one-word lanes, setting up the
//! lanes costs more per key than the sweep saves.

use crate::mix::{fast_range, SplitMix64};
use crate::poly::PolyHash;
use crate::tabulation::{fill_interleaved, TabulationHash, NUM_CHUNKS, TABLE_SIZE};

/// Which hash family backs a sketch's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashFamilyKind {
    /// 3-wise independent simple tabulation (the paper's implementation
    /// choice, Appendix B). Fast; the default.
    #[default]
    Tabulation,
    /// k-wise independent polynomial hashing over `2^61 - 1` with the given
    /// independence level (theory-faithful; slower).
    Polynomial(usize),
}

/// Spreads `PolyHash`'s 61-bit field element over 64 bits so the
/// multiply-shift reduction sees uniform top bits.
const POLY_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A bucket index together with a ±1 sign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSign {
    /// Bucket index in `[0, width)`.
    pub bucket: u32,
    /// Sign flip: `+1.0` or `-1.0`.
    pub sign: f64,
}

/// Splits a raw 64-bit hash into the paper's `(h_j, σ_j)` pair. Bit 63 is
/// the sign; the low 63 bits choose the bucket. Using disjoint bits keeps
/// `h` and `σ` independent of each other. Bit 63 is copied straight into
/// the sign bit of `1.0`, so callers that multiply by the sign never
/// branch on a hash bit.
#[inline]
fn split_bucket_sign(h: u64, width: u64) -> BucketSign {
    let sign = f64::from_bits(1.0f64.to_bits() | (h & (1 << 63)));
    let bucket = fast_range(h << 1, width) as u32;
    BucketSign { bucket, sign }
}

enum RowFn {
    Tab(TabulationHash),
    Poly(PolyHash),
}

impl RowFn {
    #[inline]
    fn raw(&self, key: u64) -> u64 {
        match self {
            RowFn::Tab(t) => t.hash(key),
            RowFn::Poly(p) => p.hash(key).wrapping_mul(POLY_SPREAD),
        }
    }
}

/// The hash functions for a single sketch row.
pub struct RowHasher {
    f: RowFn,
    width: u32,
}

impl std::fmt::Debug for RowHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHasher")
            .field("width", &self.width)
            .finish()
    }
}

impl RowHasher {
    /// Builds one row's `(h, σ)` pair deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(kind: HashFamilyKind, width: u32, seed: u64) -> Self {
        assert!(width > 0, "sketch row width must be nonzero");
        let f = match kind {
            HashFamilyKind::Tabulation => RowFn::Tab(TabulationHash::new(seed)),
            HashFamilyKind::Polynomial(k) => RowFn::Poly(PolyHash::new(k, seed)),
        };
        Self { f, width }
    }

    /// Row width this hasher maps into.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the bucket and sign for feature `key`.
    #[inline]
    #[must_use]
    pub fn bucket_sign(&self, key: u64) -> BucketSign {
        split_bucket_sign(self.f.raw(key), u64::from(self.width))
    }

    /// Returns only the bucket (for unsigned sketches such as Count-Min).
    ///
    /// Uses the same disjoint-bit range reduction as
    /// [`RowHasher::bucket_sign`]: the sign bit (bit 63) never feeds the
    /// bucket choice, so `bucket(k) == bucket_sign(k).bucket` always holds.
    #[inline]
    #[must_use]
    pub fn bucket(&self, key: u64) -> u32 {
        fast_range(self.f.raw(key) << 1, u64::from(self.width)) as u32
    }
}

/// Every row's tabulation tables, row-interleaved (see the module docs).
#[derive(Clone)]
struct TabRows {
    /// `NUM_CHUNKS × TABLE_SIZE × depth` words; `(chunk, byte, row)` sits
    /// at `(chunk·TABLE_SIZE + byte)·depth + row`.
    table: Box<[u64]>,
    /// Per row, the XOR of chunks 4–7 at byte 0: the high half of the
    /// hash of every key below `2^32`.
    hi_zero: Box<[u64]>,
}

impl TabRows {
    /// Interleaves the functions [`TabulationHash::new`] builds from each
    /// of `row_seeds`, one row per seed.
    fn new(row_seeds: &[u64]) -> Self {
        let depth = row_seeds.len();
        let mut table = vec![0u64; NUM_CHUNKS * TABLE_SIZE * depth].into_boxed_slice();
        fill_interleaved(row_seeds, &mut table);
        let hi_zero = (0..depth)
            .map(|row| {
                (4..NUM_CHUNKS).fold(0, |h, chunk| h ^ table[chunk * TABLE_SIZE * depth + row])
            })
            .collect();
        Self { table, hi_zero }
    }

    fn depth(&self) -> usize {
        self.hi_zero.len()
    }

    /// Row `row`'s hash of `key`: eight direct lookups.
    #[inline]
    fn hash(&self, row: usize, key: u64) -> u64 {
        let depth = self.depth();
        assert!(row < depth, "row {row} out of range for depth {depth}");
        let mut h = 0u64;
        for (chunk, &b) in key.to_le_bytes().iter().enumerate() {
            h ^= self.table[(chunk * TABLE_SIZE + usize::from(b)) * depth + row];
        }
        h
    }

    /// The all-rows kernel: calls `f(row, hash)` for every row in order,
    /// XORing the key's contiguous lanes (four and `hi_zero` for a key
    /// below `2^32`, else eight) when `depth > 1`.
    #[inline(always)]
    fn for_each_row(&self, key: u64, mut f: impl FnMut(usize, u64)) {
        let depth = self.depth();
        if depth == 1 {
            // One-word lanes: eight direct lookups skip the sweep's
            // per-key lane set-up, which costs more than it saves here.
            return f(0, self.hash(0, key));
        }
        let lane = |chunk: usize, byte: u8| {
            let at = (chunk * TABLE_SIZE + usize::from(byte)) * depth;
            &self.table[at..at + depth]
        };
        let b = key.to_le_bytes();
        let (l0, l1, l2, l3) = (lane(0, b[0]), lane(1, b[1]), lane(2, b[2]), lane(3, b[3]));
        if key >> 32 == 0 {
            let hi = &self.hi_zero[..depth];
            for j in 0..depth {
                f(j, l0[j] ^ l1[j] ^ l2[j] ^ l3[j] ^ hi[j]);
            }
        } else {
            let (l4, l5, l6, l7) = (lane(4, b[4]), lane(5, b[5]), lane(6, b[6]), lane(7, b[7]));
            for j in 0..depth {
                f(
                    j,
                    l0[j] ^ l1[j] ^ l2[j] ^ l3[j] ^ l4[j] ^ l5[j] ^ l6[j] ^ l7[j],
                );
            }
        }
    }
}

/// Monomorphized row storage: concrete hash functions per family, so
/// the all-rows loop never dispatches per row.
#[derive(Clone)]
enum Rows {
    Tab(TabRows),
    Poly(Vec<PolyHash>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Tab(t) => t.depth(),
            Rows::Poly(v) => v.len(),
        }
    }

    #[inline]
    fn raw(&self, j: usize, key: u64) -> u64 {
        match self {
            Rows::Tab(t) => t.hash(j, key),
            Rows::Poly(v) => v[j].hash(key).wrapping_mul(POLY_SPREAD),
        }
    }

    /// Calls `f(row, raw_hash)` for every row of `key`, in row order.
    #[inline(always)]
    fn for_each_raw(&self, key: u64, mut f: impl FnMut(usize, u64)) {
        match self {
            Rows::Tab(t) => t.for_each_row(key, f),
            Rows::Poly(v) => {
                for (j, p) in v.iter().enumerate() {
                    f(j, p.hash(key).wrapping_mul(POLY_SPREAD));
                }
            }
        }
    }
}

/// The full set of row hashers for a depth-`s` sketch.
///
/// Cloning copies the row hash functions byte for byte, so a clone assigns
/// every key the same cells and signs — the property sharded learners rely
/// on to keep per-shard sketches merge-compatible.
#[derive(Clone)]
pub struct RowHashers {
    rows: Rows,
    width: u32,
}

impl std::fmt::Debug for RowHashers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHashers")
            .field("depth", &self.depth())
            .field("width", &self.width)
            .finish()
    }
}

impl RowHashers {
    /// Builds `depth` independent row hashers of the given `width`,
    /// deterministically seeded from `seed`.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`, or if `depth × width`
    /// overflows the `u32` cell-offset space used by [`CoordPlan`].
    #[must_use]
    pub fn new(kind: HashFamilyKind, depth: u32, width: u32, seed: u64) -> Self {
        assert!(depth > 0, "sketch depth must be nonzero");
        assert!(width > 0, "sketch row width must be nonzero");
        assert!(
            u64::from(depth) * u64::from(width) <= u64::from(u32::MAX),
            "sketch cell count {depth}×{width} exceeds the u32 offset space"
        );
        let mut seeds = SplitMix64::new(seed);
        let rows = match kind {
            HashFamilyKind::Tabulation => {
                let row_seeds: Vec<u64> = (0..depth).map(|_| seeds.next_u64()).collect();
                Rows::Tab(TabRows::new(&row_seeds))
            }
            HashFamilyKind::Polynomial(k) => Rows::Poly(
                (0..depth)
                    .map(|_| PolyHash::new(k, seeds.next_u64()))
                    .collect(),
            ),
        };
        Self { rows, width }
    }

    /// Number of rows (sketch depth).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Row width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Heap bytes the row hash functions own. For the tabulation default
    /// this is 16 KiB *per row* (its share of the interleaved tables)
    /// plus one 8-byte `hi_zero` word — typically far more than a small
    /// sketch's cell array, and the reason a memory-governed registry
    /// must not cost models by the paper's §7.1 figure alone (hashers
    /// rebuild deterministically from the config seed, so spilling a
    /// model to disk reclaims this in full).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match &self.rows {
            Rows::Tab(t) => (t.table.len() + t.hi_zero.len()) * std::mem::size_of::<u64>(),
            Rows::Poly(v) => {
                v.capacity() * std::mem::size_of::<PolyHash>()
                    + v.iter().map(PolyHash::resident_bytes).sum::<usize>()
            }
        }
    }

    /// The bucket and sign row `j` assigns to `key`.
    ///
    /// # Panics
    /// Panics if `j >= depth`.
    #[inline]
    #[must_use]
    pub fn bucket_sign(&self, j: usize, key: u64) -> BucketSign {
        split_bucket_sign(self.rows.raw(j, key), u64::from(self.width))
    }

    /// The bucket row `j` assigns to `key` (unsigned sketches). Matches
    /// [`RowHashers::bucket_sign`]'s bucket: the sign bit is excluded from
    /// the reduction.
    #[inline]
    #[must_use]
    pub fn bucket(&self, j: usize, key: u64) -> u32 {
        fast_range(self.rows.raw(j, key) << 1, u64::from(self.width)) as u32
    }

    /// Iterates over `(row_index, BucketSign)` for a feature key.
    ///
    /// This is the *reference* path: it hashes each row on its own,
    /// dispatching on the hash family per row. The all-rows entry points
    /// below sweep every row in one pass; the fused sketch paths use
    /// those.
    #[inline]
    pub fn bucket_signs(&self, key: u64) -> impl Iterator<Item = (usize, BucketSign)> + '_ {
        (0..self.rows.len()).map(move |j| (j, self.bucket_sign(j, key)))
    }

    /// Calls `f(flat_offset, sign)` for every row's cell of `key`, where
    /// `flat_offset = row × width + bucket` indexes a row-major cell array.
    /// Rows come in order, hashed in one sweep.
    #[inline]
    pub fn for_each_coord<F: FnMut(usize, f64)>(&self, key: u64, mut f: F) {
        let width = self.width as usize;
        let w = u64::from(self.width);
        self.rows.for_each_raw(key, |j, h| {
            let bs = split_bucket_sign(h, w);
            f(j * width + bs.bucket as usize, bs.sign);
        });
    }

    /// Calls `f(flat_offset)` for every row's cell of `key` (unsigned
    /// sketches). Buckets match [`RowHashers::bucket`].
    #[inline]
    pub fn for_each_bucket<F: FnMut(usize)>(&self, key: u64, mut f: F) {
        let width = self.width as usize;
        let w = u64::from(self.width);
        self.rows
            .for_each_raw(key, |j, h| f(j * width + fast_range(h << 1, w) as usize));
    }

    /// Rebuilds `plan` to cover `keys`, hashing each key exactly once per
    /// row and writing its run of coordinates in place.
    pub fn fill_plan(&self, plan: &mut CoordPlan, keys: &[u32]) {
        let depth = self.rows.len();
        plan.reset(depth, keys.len());
        let runs = plan
            .offsets
            .chunks_exact_mut(depth)
            .zip(plan.signs.chunks_exact_mut(depth));
        let width = self.width as usize;
        let w = u64::from(self.width);
        for (&key, (offsets, signs)) in keys.iter().zip(runs) {
            self.rows.for_each_raw(u64::from(key), |j, h| {
                let bs = split_bucket_sign(h, w);
                offsets[j] = (j * width + bs.bucket as usize) as u32;
                signs[j] = bs.sign;
            });
        }
    }

    /// Starts an empty plan for incremental [`RowHashers::plan_push`] use
    /// (the AWM-Sketch plans only the features outside its active set).
    pub fn begin_plan(&self, plan: &mut CoordPlan) {
        plan.reset(self.rows.len(), 0);
    }

    /// Appends one key's coordinates to `plan`, returning its slot index.
    pub fn plan_push(&self, plan: &mut CoordPlan, key: u64) -> usize {
        let slot = plan.nnz;
        plan.nnz += 1;
        let width = self.width as usize;
        let w = u64::from(self.width);
        self.rows.for_each_raw(key, |j, h| {
            let bs = split_bucket_sign(h, w);
            plan.offsets.push((j * width + bs.bucket as usize) as u32);
            plan.signs.push(bs.sign);
        });
        slot
    }
}

/// Cached per-example sketch coordinates — the heart of the single-hash
/// update pipeline.
///
/// For each planned key ("slot") the plan stores, per sketch row, the flat
/// cell offset `row × width + bucket` and the ±1 sign, laid out
/// slot-major so one slot's coordinates are a contiguous run. A sketch
/// update builds the plan once per example ([`RowHashers::fill_plan`]) and
/// then replays it for the margin dot-product, the gradient scatter, and
/// the post-scatter median re-estimation, instead of re-hashing the
/// example's features for each pass.
///
/// The plan also owns the median scratch buffer, so estimate recovery
/// during updates never allocates — including at depths past the stack
/// buffer limit of the cold-path `wmsketch-sketch` helper.
///
/// All buffers are retained when a plan is rebuilt; steady-state updates
/// do no allocation at all.
#[derive(Default, Clone)]
pub struct CoordPlan {
    /// `nnz × depth` flat cell offsets, slot-major.
    offsets: Vec<u32>,
    /// `nnz × depth` signs, parallel to `offsets`.
    signs: Vec<f64>,
    /// Rows per slot.
    depth: usize,
    /// Number of planned keys.
    nnz: usize,
    /// Depth-sized scratch for median recovery.
    scratch: Vec<f64>,
}

impl std::fmt::Debug for CoordPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordPlan")
            .field("depth", &self.depth)
            .field("nnz", &self.nnz)
            .finish()
    }
}

impl CoordPlan {
    /// An empty plan; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the plan to `nnz` keys of `depth` rows. The caller
    /// overwrites every coordinate, so retained entries are not cleared.
    fn reset(&mut self, depth: usize, nnz: usize) {
        self.depth = depth;
        self.nnz = nnz;
        self.offsets.resize(depth * nnz, 0);
        self.signs.resize(depth * nnz, 0.0);
    }

    /// Number of planned keys.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap bytes the plan's retained buffers own (offsets, signs, and
    /// the median scratch) — instance-owned working state that the §7.1
    /// memory model deliberately excludes but truthful resident
    /// accounting must include.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.signs.capacity() * std::mem::size_of::<f64>()
            + self.scratch.capacity() * std::mem::size_of::<f64>()
    }

    /// Rows per key.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The flat offsets and signs of slot `slot`, each of length `depth`.
    ///
    /// # Panics
    /// Panics if `slot >= nnz`.
    #[inline]
    #[must_use]
    pub fn coords(&self, slot: usize) -> (&[u32], &[f64]) {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        (&self.offsets[lo..hi], &self.signs[lo..hi])
    }

    /// The sign-corrected dot of slot `slot` against a cell array:
    /// `Σ_j signs[j] · cells[offsets[j]]`, accumulated in row order —
    /// bit-identical to the naive per-row traversal.
    #[inline]
    #[must_use]
    pub fn slot_projection(&self, slot: usize, cells: &[f64]) -> f64 {
        let (offsets, signs) = self.coords(slot);
        let mut acc = 0.0;
        for (&o, &s) in offsets.iter().zip(signs) {
            acc += s * cells[o as usize];
        }
        acc
    }

    /// Adds `signs[j] · delta` to each of slot `slot`'s cells.
    #[inline]
    pub fn slot_scatter(&self, slot: usize, cells: &mut [f64], delta: f64) {
        let (offsets, signs) = self.coords(slot);
        for (&o, &s) in offsets.iter().zip(signs) {
            cells[o as usize] += s * delta;
        }
    }

    /// Fills the plan-owned scratch with slot `slot`'s sign-corrected
    /// scaled cell values — `scale · signs[j] · cells[offsets[j]]` for each
    /// row `j` — and returns it mutably, ready for in-place median
    /// selection. No allocation at any depth once the scratch has grown.
    ///
    /// The median itself lives in `wmsketch-sketch` (`median_inplace`);
    /// keeping it there avoids duplicating the estimator's tie/ordering
    /// conventions across crates.
    #[inline]
    pub fn slot_values(&mut self, slot: usize, cells: &[f64], scale: f64) -> &mut [f64] {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        self.scratch.resize(self.depth, 0.0);
        let coords = self.offsets[lo..hi].iter().zip(&self.signs[lo..hi]);
        for ((&o, &s), v) in coords.zip(&mut self.scratch) {
            *v = scale * s * cells[o as usize];
        }
        &mut self.scratch
    }

    /// Fused scatter + re-estimation gather: adds `signs[j] · delta` to
    /// each of slot `slot`'s cells and, in the same pass, fills the
    /// plan-owned scratch with the *post-update* sign-corrected scaled
    /// values (`scale · signs[j] · cells[offsets[j]]`), returning the
    /// scratch for in-place median selection.
    ///
    /// A slot's offsets land in distinct sketch rows and therefore distinct
    /// cells, so reading each cell immediately after its own write is
    /// bit-identical to a separate [`CoordPlan::slot_scatter`] followed by
    /// [`CoordPlan::slot_values`].
    #[inline]
    pub fn slot_scatter_and_values(
        &mut self,
        slot: usize,
        cells: &mut [f64],
        delta: f64,
        scale: f64,
    ) -> &mut [f64] {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        self.scratch.resize(self.depth, 0.0);
        let coords = self.offsets[lo..hi].iter().zip(&self.signs[lo..hi]);
        for ((&o, &s), v) in coords.zip(&mut self.scratch) {
            let cell = &mut cells[o as usize];
            *cell += s * delta;
            *v = scale * s * *cell;
        }
        &mut self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depths the all-rows kernel is checked at: a single lane, a short
    /// one, the 8 KB WM shape, and a deep one.
    const KERNEL_DEPTHS: [u32; 4] = [1, 2, 14, 80];

    /// Keys at and above `2^32` (the eight-lane path) and keys with every
    /// byte nonzero, besides the `u32` edge values.
    const WIDE_KEYS: [u64; 10] = [
        1 << 32,
        (1 << 32) + 1,
        0xFFFF_FFFF_0000_0000,
        0x0102_0304_0506_0708,
        0x8070_6050_4030_2010,
        0xDEAD_BEEF_CAFE_F00D,
        u64::MAX,
        0x0101_0101,
        0x7F3A_91C5,
        0xFFFF_FFFF,
    ];

    #[test]
    fn buckets_in_range_and_signs_unit() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let h = RowHasher::new(kind, 37, 12);
            for key in 0..5000u64 {
                let bs = h.bucket_sign(key);
                assert!(bs.bucket < 37);
                assert!(bs.sign == 1.0 || bs.sign == -1.0);
            }
        }
    }

    #[test]
    fn signs_are_balanced() {
        let h = RowHasher::new(HashFamilyKind::Tabulation, 64, 5);
        let n = 100_000u64;
        let pos = (0..n).filter(|&k| h.bucket_sign(k).sign > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive-sign fraction {frac}");
    }

    #[test]
    fn buckets_are_balanced() {
        let w = 32u32;
        let h = RowHasher::new(HashFamilyKind::Tabulation, w, 77);
        let n = 320_000u64;
        let mut counts = vec![0u32; w as usize];
        for k in 0..n {
            counts[h.bucket_sign(k).bucket as usize] += 1;
        }
        let expected = n as f64 / f64::from(w);
        for &c in &counts {
            assert!((f64::from(c) - expected).abs() / expected < 0.05);
        }
    }

    #[test]
    fn bucket_matches_bucket_sign_bucket() {
        // Regression test: `bucket` once fed the sign bit into the range
        // reduction, so unsigned and signed users of the same row disagreed
        // on bucket assignment.
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let h = RowHasher::new(kind, 53, 21);
            for key in 0..20_000u64 {
                assert_eq!(h.bucket(key), h.bucket_sign(key).bucket, "key {key}");
            }
            let hs = RowHashers::new(kind, 3, 53, 21);
            for key in 0..2_000u64 {
                for j in 0..3 {
                    assert_eq!(hs.bucket(j, key), hs.bucket_sign(j, key).bucket);
                }
            }
        }
    }

    #[test]
    fn rows_are_mutually_independent_looking() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 4, 256, 3);
        // Two distinct rows should disagree on buckets for most keys.
        let agree = (0..10_000u64)
            .filter(|&k| hs.bucket_sign(0, k).bucket == hs.bucket_sign(1, k).bucket)
            .count();
        // Chance agreement is 1/256 ≈ 39 of 10k.
        assert!(agree < 200, "rows agree on {agree} of 10000 keys");
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = RowHashers::new(HashFamilyKind::Tabulation, 3, 128, 99);
        let b = RowHashers::new(HashFamilyKind::Tabulation, 3, 128, 99);
        for k in 0..100u64 {
            for j in 0..3 {
                assert_eq!(a.bucket_sign(j, k), b.bucket_sign(j, k));
            }
        }
    }

    #[test]
    fn rowhashers_match_single_row_hashers() {
        // RowHashers must agree with RowHasher built from the same derived
        // seeds — i.e. the typed-storage refactor preserved the seeding.
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(3)] {
            let hs = RowHashers::new(kind, 4, 64, 123);
            let mut seeds = SplitMix64::new(123);
            for j in 0..4usize {
                let single = RowHasher::new(kind, 64, seeds.next_u64());
                for k in 0..500u64 {
                    assert_eq!(hs.bucket_sign(j, k), single.bucket_sign(k));
                }
            }
        }
        // Every entry point against independently built single rows, at
        // every kernel depth and on keys past `u32::MAX`.
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(3)] {
            for depth in KERNEL_DEPTHS {
                let hs = RowHashers::new(kind, depth, 1000, 321);
                let mut seeds = SplitMix64::new(321);
                let singles: Vec<RowHasher> = (0..depth)
                    .map(|_| RowHasher::new(kind, 1000, seeds.next_u64()))
                    .collect();
                for key in WIDE_KEYS {
                    let expect: Vec<(usize, f64)> = singles
                        .iter()
                        .enumerate()
                        .map(|(j, r)| {
                            let bs = r.bucket_sign(key);
                            (j * 1000 + bs.bucket as usize, bs.sign)
                        })
                        .collect();
                    let mut coords = Vec::new();
                    hs.for_each_coord(key, |offset, sign| coords.push((offset, sign)));
                    assert_eq!(coords, expect, "kind {kind:?} depth {depth} key {key:#x}");
                    for (j, r) in singles.iter().enumerate() {
                        assert_eq!(hs.bucket_sign(j, key), r.bucket_sign(key));
                        assert_eq!(hs.bucket(j, key), r.bucket(key));
                    }
                }
            }
        }
    }

    #[test]
    fn resident_bytes_are_sixteen_kib_and_a_word_per_tabulation_row() {
        for depth in [1u32, 14, 80] {
            let hs = RowHashers::new(HashFamilyKind::Tabulation, depth, 128, 5);
            assert_eq!(
                hs.resident_bytes(),
                depth as usize * (16_384 + 8),
                "depth {depth}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_sign_past_the_last_row_panics() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 3, 64, 1);
        let _ = hs.bucket_sign(3, 7);
    }

    #[test]
    fn for_each_coord_matches_bucket_signs() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let hs = RowHashers::new(kind, 5, 48, 9);
            for key in 0..1000u64 {
                let mut coords = Vec::new();
                hs.for_each_coord(key, |offset, sign| coords.push((offset, sign)));
                let expect: Vec<(usize, f64)> = hs
                    .bucket_signs(key)
                    .map(|(j, bs)| (j * 48 + bs.bucket as usize, bs.sign))
                    .collect();
                assert_eq!(coords, expect);
                let mut buckets = Vec::new();
                hs.for_each_bucket(key, |offset| buckets.push(offset));
                let expect: Vec<usize> = expect.iter().map(|&(offset, _)| offset).collect();
                assert_eq!(buckets, expect);
            }
            for depth in KERNEL_DEPTHS {
                let hs = RowHashers::new(kind, depth, 48, 9);
                for key in WIDE_KEYS {
                    let mut coords = Vec::new();
                    hs.for_each_coord(key, |offset, sign| coords.push((offset, sign)));
                    let expect: Vec<(usize, f64)> = hs
                        .bucket_signs(key)
                        .map(|(j, bs)| (j * 48 + bs.bucket as usize, bs.sign))
                        .collect();
                    assert_eq!(coords, expect, "kind {kind:?} depth {depth} key {key:#x}");
                    let mut buckets = Vec::new();
                    hs.for_each_bucket(key, |offset| buckets.push(offset));
                    let expect: Vec<usize> = (0..depth as usize)
                        .map(|j| j * 48 + hs.bucket(j, key) as usize)
                        .collect();
                    assert_eq!(buckets, expect, "kind {kind:?} depth {depth} key {key:#x}");
                }
            }
        }
    }

    #[test]
    fn plan_matches_reference_traversal() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            for depth in [1u32, 3, 7] {
                let hs = RowHashers::new(kind, depth, 96, 4);
                let keys: Vec<u32> = vec![0, 5, 17, 96, 1000, u32::MAX];
                let mut plan = CoordPlan::new();
                hs.fill_plan(&mut plan, &keys);
                assert_eq!(plan.nnz(), keys.len());
                assert_eq!(plan.depth(), depth as usize);
                for (slot, &key) in keys.iter().enumerate() {
                    let (offsets, signs) = plan.coords(slot);
                    for (j, bs) in hs.bucket_signs(u64::from(key)) {
                        assert_eq!(
                            offsets[j] as usize,
                            j * 96 + bs.bucket as usize,
                            "kind {kind:?} depth {depth} key {key} row {j}"
                        );
                        assert_eq!(signs[j], bs.sign);
                    }
                }
            }
            // `u64` keys reach the plan through `plan_push`; the `u32`
            // ones through `fill_plan` as well.
            for depth in KERNEL_DEPTHS {
                let hs = RowHashers::new(kind, depth, 96, 4);
                let narrow: Vec<u32> = WIDE_KEYS
                    .iter()
                    .filter_map(|&k| u32::try_from(k).ok())
                    .chain([0, 255, 65_535])
                    .collect();
                let mut plan = CoordPlan::new();
                hs.fill_plan(&mut plan, &narrow);
                for (slot, &key) in narrow.iter().enumerate() {
                    let (offsets, signs) = plan.coords(slot);
                    for (j, bs) in hs.bucket_signs(u64::from(key)) {
                        assert_eq!(offsets[j] as usize, j * 96 + bs.bucket as usize);
                        assert_eq!(signs[j], bs.sign, "kind {kind:?} depth {depth} key {key}");
                    }
                }
                hs.begin_plan(&mut plan);
                for (slot, &key) in WIDE_KEYS.iter().enumerate() {
                    assert_eq!(hs.plan_push(&mut plan, key), slot);
                }
                for (slot, &key) in WIDE_KEYS.iter().enumerate() {
                    let (offsets, signs) = plan.coords(slot);
                    for (j, bs) in hs.bucket_signs(key) {
                        assert_eq!(
                            offsets[j] as usize,
                            j * 96 + bs.bucket as usize,
                            "kind {kind:?} depth {depth} key {key:#x} row {j}"
                        );
                        assert_eq!(signs[j], bs.sign);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_plan_matches_batch_plan() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 4, 64, 77);
        let keys: Vec<u32> = vec![3, 9, 81, 6561];
        let mut batch = CoordPlan::new();
        hs.fill_plan(&mut batch, &keys);
        let mut inc = CoordPlan::new();
        hs.begin_plan(&mut inc);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(hs.plan_push(&mut inc, u64::from(k)), i);
        }
        assert_eq!(inc.nnz(), batch.nnz());
        for slot in 0..keys.len() {
            assert_eq!(inc.coords(slot), batch.coords(slot));
        }
    }

    #[test]
    fn slot_helpers_project_scatter_and_fill_scratch() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 5, 32, 8);
        let mut plan = CoordPlan::new();
        hs.fill_plan(&mut plan, &[7]);
        let mut cells = vec![0.0f64; 5 * 32];
        plan.slot_scatter(0, &mut cells, 2.5);
        // Projection undoes the signs: 5 rows × 2.5.
        assert_eq!(plan.slot_projection(0, &cells), 12.5);
        // Sign-corrected scaled values are all 2 × 2.5.
        assert_eq!(plan.slot_values(0, &cells, 2.0), &[5.0; 5]);
    }

    #[test]
    fn fused_scatter_and_values_matches_separate_calls() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 7, 64, 5);
        let mut plan_a = CoordPlan::new();
        let mut plan_b = CoordPlan::new();
        hs.fill_plan(&mut plan_a, &[11, 22, 33]);
        hs.fill_plan(&mut plan_b, &[11, 22, 33]);
        let mut cells_a: Vec<f64> = (0..7 * 64).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut cells_b = cells_a.clone();
        for slot in 0..3 {
            let delta = 0.25 * (slot as f64 + 1.0);
            let fused: Vec<f64> = plan_a
                .slot_scatter_and_values(slot, &mut cells_a, delta, 2.5)
                .to_vec();
            plan_b.slot_scatter(slot, &mut cells_b, delta);
            let separate = plan_b.slot_values(slot, &cells_b, 2.5).to_vec();
            assert_eq!(fused, separate);
        }
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn plan_is_reusable_without_leaking_previous_contents() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 2, 64, 1);
        let mut plan = CoordPlan::new();
        hs.fill_plan(&mut plan, &[1, 2, 3, 4, 5]);
        hs.fill_plan(&mut plan, &[9]);
        assert_eq!(plan.nnz(), 1);
        let (offsets, signs) = plan.coords(0);
        assert_eq!(offsets.len(), 2);
        assert_eq!(signs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "width must be nonzero")]
    fn zero_width_panics() {
        let _ = RowHasher::new(HashFamilyKind::Tabulation, 0, 1);
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_panics() {
        let _ = RowHashers::new(HashFamilyKind::Tabulation, 0, 4, 1);
    }
}
