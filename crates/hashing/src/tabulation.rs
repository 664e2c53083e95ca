//! Simple tabulation hashing (Zobrist / Carter–Wegman).
//!
//! Splits a 64-bit key into 8 bytes and XORs together one random 64-bit
//! table entry per byte. Simple tabulation is 3-wise independent, which is
//! the independence level the paper's implementation uses (Appendix B:
//! *"our implementation simply uses fast, 3-wise independent tabulation
//! hashing. In our experiments, we did not observe any significant
//! degradation in performance from this choice."*).
//!
//! # Row-interleaved tables
//!
//! A sketch of depth `s` hashes every key with `s` functions, one per
//! row, each named by its own row seed. The rows do not own separate
//! tables: all of them live in one array, where the entry for
//! `(chunk, byte, row)` sits at `(chunk·256 + byte)·depth + row`. The
//! words a key needs from every row are then eight contiguous
//! `depth`-long lanes, one per key byte, and hashing the key for all rows
//! is a sweep that XORs the lanes element by element. A single
//! [`TabulationHash`] is the one-row case of the same array.
//!
//! Feature ids are `u32`, so the four high bytes of a key are almost
//! always zero and their four lanes are the same for every such key. Each
//! row keeps their XOR (`hi_zero`), and a key below `2^32` sweeps only
//! its four low lanes plus `hi_zero`. XOR is associative and commutative,
//! so this gives every row the same hash bit for bit as the eight-lookup
//! [`TabulationHash::hash`].
//!
//! A depth-1 array (the AWM-Sketch's usual shape) skips the sweep and
//! makes the eight lookups directly: with one-word lanes, setting up the
//! lanes costs more per key than the sweep saves.
//!
//! # One copy of each table per process
//!
//! The array is a pure function of its row seeds, and it is never written
//! after it is filled, so every holder of the same seed list reads the
//! same words. A process-wide interner maps each seed list to a weak
//! reference to its array: building hash functions whose seeds a live
//! holder already has takes a reference to that holder's array instead
//! of filling 16 KiB per row again, and the last holder to drop frees it.
//! Snapshots store only the seed, so sharing changes no hash and no
//! snapshot byte. The interner is consulted when hash functions are built
//! (which includes snapshot decode), never while a key is hashed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use crate::mix::SplitMix64;

/// Bytes per key, and so tables per hash function.
const NUM_CHUNKS: usize = 8;
/// Entries per table (one per byte value).
const TABLE_SIZE: usize = 256;

/// Fills `table` with the functions named by `seeds`, one row per seed,
/// row-interleaved: the word for `(chunk, byte, row)` goes to
/// `(chunk·TABLE_SIZE + byte)·seeds.len() + row`. Each row draws its words
/// from its own stream, chunk-major. This is the one place a seed becomes
/// table words.
fn fill_interleaved(seeds: &[u64], table: &mut [u64]) {
    assert_eq!(table.len(), NUM_CHUNKS * TABLE_SIZE * seeds.len());
    for (row, &seed) in seeds.iter().enumerate() {
        let mut stream = SplitMix64::new(seed ^ 0x7AB0_1A7E_0000_0001);
        for word in table[row..].iter_mut().step_by(seeds.len()) {
            *word = stream.next_u64();
        }
    }
}

/// The filled words of one seed list: `NUM_CHUNKS × TABLE_SIZE × depth`
/// words, `(chunk, byte, row)` at `(chunk·TABLE_SIZE + byte)·depth + row`.
/// The words sit behind their own box so that the interner's weak
/// references point at this small header, and a dead entry pins only the
/// header until it is pruned.
struct Tables {
    words: Box<[u64]>,
}

/// Live tables by row-seed list. The map holds only weak references, so
/// it never keeps a table alive; an entry whose table has been freed is
/// pruned when the next table is inserted.
type Interner = Mutex<HashMap<Box<[u64]>, Weak<Tables>>>;

fn interner() -> &'static Interner {
    static LIVE: OnceLock<Interner> = OnceLock::new();
    LIVE.get_or_init(Interner::default)
}

/// Every row's tabulation tables, row-interleaved (see the module docs)
/// and shared with every other holder of the same row seeds.
#[derive(Clone)]
pub(crate) struct TabRows {
    tables: Arc<Tables>,
    /// Per row, the XOR of chunks 4–7 at byte 0: the high half of the
    /// hash of every key below `2^32`. Derived from the shared words,
    /// but each holder keeps its own, so the sweep reads it (and the
    /// depth, its length) without going through the shared allocation.
    hi_zero: Box<[u64]>,
}

impl TabRows {
    /// The functions [`TabulationHash::new`] builds from each of
    /// `row_seeds`, one row per seed: a live holder's tables if one
    /// exists, else freshly filled ones.
    pub(crate) fn new(row_seeds: &[u64]) -> Self {
        // Each map operation either completes or leaves the map as it
        // was, so a panic elsewhere under the lock cannot corrupt it.
        let tables = {
            let mut live = interner().lock().unwrap_or_else(PoisonError::into_inner);
            match live.get(row_seeds).and_then(Weak::upgrade) {
                Some(tables) => tables,
                None => {
                    live.retain(|_, tables| tables.strong_count() > 0);
                    let mut words =
                        vec![0u64; NUM_CHUNKS * TABLE_SIZE * row_seeds.len()].into_boxed_slice();
                    fill_interleaved(row_seeds, &mut words);
                    let tables = Arc::new(Tables { words });
                    live.insert(row_seeds.into(), Arc::downgrade(&tables));
                    tables
                }
            }
        };
        let depth = row_seeds.len();
        let hi_zero = (0..depth)
            .map(|row| {
                (4..NUM_CHUNKS).fold(0, |h, chunk| {
                    h ^ tables.words[chunk * TABLE_SIZE * depth + row]
                })
            })
            .collect();
        Self { tables, hi_zero }
    }

    pub(crate) fn depth(&self) -> usize {
        self.hi_zero.len()
    }

    /// Heap bytes of the tables, charged in full to every holder even
    /// while others share them: 16 KiB and one `hi_zero` word per row.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.tables.words.len() + self.hi_zero.len()) * std::mem::size_of::<u64>()
    }

    /// Whether `self` and `other` read the same table allocation.
    #[cfg(test)]
    pub(crate) fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// A weak handle that dies with the last holder of these tables.
    #[cfg(test)]
    fn downgrade(&self) -> Weak<Tables> {
        Arc::downgrade(&self.tables)
    }

    /// A one-row holder's hash of `key`: eight direct lookups into the
    /// table viewed as one fixed-size array, so no lookup needs a bounds
    /// check.
    ///
    /// # Panics
    /// Panics if the holder has more than one row.
    #[inline]
    fn hash_one_row(&self, key: u64) -> u64 {
        let table: &[u64; NUM_CHUNKS * TABLE_SIZE] = (*self.tables.words)
            .try_into()
            .expect("a one-row holder has one row of words");
        let mut h = 0u64;
        for (chunk, &b) in key.to_le_bytes().iter().enumerate() {
            h ^= table[chunk * TABLE_SIZE + usize::from(b)];
        }
        h
    }

    /// Row `row`'s hash of `key`: eight direct lookups.
    #[inline]
    pub(crate) fn hash(&self, row: usize, key: u64) -> u64 {
        let depth = self.depth();
        assert!(row < depth, "row {row} out of range for depth {depth}");
        let words = &self.tables.words;
        let mut h = 0u64;
        for (chunk, &b) in key.to_le_bytes().iter().enumerate() {
            h ^= words[(chunk * TABLE_SIZE + usize::from(b)) * depth + row];
        }
        h
    }

    /// The all-rows kernel: calls `f(row, hash)` for every row in order,
    /// XORing the key's contiguous lanes (four and `hi_zero` for a key
    /// below `2^32`, else eight) when `depth > 1`.
    #[inline(always)]
    pub(crate) fn for_each_row(&self, key: u64, mut f: impl FnMut(usize, u64)) {
        let depth = self.depth();
        if depth == 1 {
            // One-word lanes: eight direct lookups skip the sweep's
            // per-key lane set-up, which costs more than it saves here.
            return f(0, self.hash_one_row(key));
        }
        let words = &self.tables.words;
        let lane = |chunk: usize, byte: u8| {
            let at = (chunk * TABLE_SIZE + usize::from(byte)) * depth;
            &words[at..at + depth]
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

/// A 3-wise independent hash function `u64 -> u64` via simple tabulation.
///
/// Its table is 8 × 256 random words (16 KiB), filled from the seed by
/// the first holder and shared by every later one while any is alive
/// (see the module docs); evaluation is eight table lookups and XORs,
/// independent of key distribution.
#[derive(Clone)]
pub struct TabulationHash {
    rows: TabRows,
}

impl std::fmt::Debug for TabulationHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabulationHash").finish_non_exhaustive()
    }
}

impl TabulationHash {
    /// Builds a tabulation hash function with tables filled deterministically
    /// from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rows: TabRows::new(&[seed]),
        }
    }

    /// Heap bytes of the 8 × 256-word lookup table (16 KiB), charged in
    /// full even while other holders of the same seed share it, so a sum
    /// over holders is an upper bound on what they hold together.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        NUM_CHUNKS * TABLE_SIZE * std::mem::size_of::<u64>()
    }

    /// Hashes a 64-bit key.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        self.rows.hash_one_row(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = TabulationHash::new(7);
        let b = TabulationHash::new(7);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn hashes_match_pinned_values() {
        // Computed before the tables were shared; a seed must keep naming
        // the same function.
        const PINS: [(u64, u64); 5] = [
            (0, 0x9D23_3A18_94E5_48B9),
            (255, 0xADED_81B6_79EA_C5C5),
            (0xFFFF_FFFF, 0x53C4_8D49_448B_1513),
            (1 << 32, 0x0FAA_D79E_F600_A1A7),
            (u64::MAX, 0x5568_6B34_34CE_7833),
        ];
        let h = TabulationHash::new(7);
        for (key, want) in PINS {
            assert_eq!(h.hash(key), want, "key {key:#x}");
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = TabulationHash::new(1);
        let b = TabulationHash::new(2);
        let differs = (0..64u64).any(|k| a.hash(k) != b.hash(k));
        assert!(differs);
    }

    #[test]
    fn few_collisions_on_sequential_keys() {
        let h = TabulationHash::new(3);
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u64 {
            seen.insert(h.hash(k));
        }
        // With 100k keys into 2^64 outputs, collisions should be absent.
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn output_bits_are_balanced() {
        let h = TabulationHash::new(9);
        let n = 100_000u64;
        let mut ones = [0u32; 64];
        for k in 0..n {
            let v = h.hash(k);
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((v >> bit) & 1) as u32;
            }
        }
        for (bit, &c) in ones.iter().enumerate() {
            let frac = f64::from(c) / n as f64;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "bit {bit} set fraction {frac:.4}"
            );
        }
    }

    // The interner tests use seeds no other test in this crate uses, so
    // a parallel test cannot hold the tables they watch.

    #[test]
    fn same_seed_shares_one_table_and_others_do_not() {
        let a = TabulationHash::new(0x1A7E_0001);
        let b = TabulationHash::new(0x1A7E_0001);
        let c = TabulationHash::new(0x1A7E_0002);
        assert!(a.rows.shares_with(&b.rows));
        assert!(a.rows.shares_with(&a.clone().rows));
        assert!(!a.rows.shares_with(&c.rows));
    }

    #[test]
    fn dropping_the_last_holder_frees_the_tables() {
        let a = TabulationHash::new(0x1A7E_0003);
        let before: Vec<u64> = (0..64).map(|k| a.hash(k)).collect();
        let b = a.clone();
        let weak = a.rows.downgrade();
        drop(a);
        assert!(weak.upgrade().is_some(), "a clone still holds the tables");
        drop(b);
        assert!(weak.upgrade().is_none(), "no holder is left");
        // A new holder fills fresh tables with the same words.
        let c = TabulationHash::new(0x1A7E_0003);
        assert_eq!(Arc::strong_count(&c.rows.tables), 1);
        assert!((0..64).all(|k| c.hash(k) == before[k as usize]));
    }

    #[test]
    fn threads_building_one_seed_get_one_table() {
        // The barrier releases all four builds at once, so they contend
        // for the interner while none of them has tables yet.
        let start = std::sync::Barrier::new(4);
        let rows: Vec<TabRows> = std::thread::scope(|s| {
            let built: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        TabRows::new(&[0x1A7E_0004, 0x1A7E_0005])
                    })
                })
                .collect();
            built.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for other in &rows[1..] {
            assert!(rows[0].shares_with(other));
        }
    }

    #[test]
    fn dead_entries_are_pruned_on_insert() {
        drop(TabRows::new(&[0x1A7E_0006]));
        let _fresh = TabRows::new(&[0x1A7E_0007]);
        let live = interner().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!live.contains_key(&[0x1A7E_0006][..]));
    }
}
