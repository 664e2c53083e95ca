//! Simple tabulation hashing (Zobrist / Carter–Wegman).
//!
//! Splits a 64-bit key into 8 bytes and XORs together one random 64-bit
//! table entry per byte. Simple tabulation is 3-wise independent, which is
//! the independence level the paper's implementation uses (Appendix B:
//! *"our implementation simply uses fast, 3-wise independent tabulation
//! hashing. In our experiments, we did not observe any significant
//! degradation in performance from this choice."*).
//!
//! `fill_interleaved` is the one place a seed becomes table words. It
//! fills the row-interleaved tables of `RowHashers`, and a single
//! [`TabulationHash`] is its one-row case, so the two cannot drift apart:
//! a seed names the same function in either, and snapshots, which store
//! only the seed, restore the same hashes.

use crate::mix::SplitMix64;

/// Bytes per key, and so tables per hash function.
pub(crate) const NUM_CHUNKS: usize = 8;
/// Entries per table (one per byte value).
pub(crate) const TABLE_SIZE: usize = 256;

/// Fills `table` with the functions named by `seeds`, one row per seed,
/// row-interleaved: the word for `(chunk, byte, row)` goes to
/// `(chunk·TABLE_SIZE + byte)·seeds.len() + row`. Each row draws its words
/// from its own stream, chunk-major.
///
/// # Panics
/// Panics if `table` is not `NUM_CHUNKS × TABLE_SIZE × seeds.len()` words
/// long.
pub(crate) fn fill_interleaved(seeds: &[u64], table: &mut [u64]) {
    assert_eq!(table.len(), NUM_CHUNKS * TABLE_SIZE * seeds.len());
    for (row, &seed) in seeds.iter().enumerate() {
        let mut stream = SplitMix64::new(seed ^ 0x7AB0_1A7E_0000_0001);
        for word in table[row..].iter_mut().step_by(seeds.len()) {
            *word = stream.next_u64();
        }
    }
}

/// A 3-wise independent hash function `u64 -> u64` via simple tabulation.
///
/// Construction cost is 8 × 256 random words (16 KiB); evaluation is eight
/// table lookups and XORs, independent of key distribution.
#[derive(Clone)]
pub struct TabulationHash {
    tables: Box<[[u64; TABLE_SIZE]; NUM_CHUNKS]>,
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
        let mut tables = Box::new([[0u64; TABLE_SIZE]; NUM_CHUNKS]);
        fill_interleaved(&[seed], tables.as_flattened_mut());
        Self { tables }
    }

    /// Heap bytes this function owns: the boxed 8 × 256-word lookup
    /// table (16 KiB). Dominates the resident cost of small sketches, so
    /// memory-governed fleets must account for it explicitly.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<[[u64; TABLE_SIZE]; NUM_CHUNKS]>()
    }

    /// Hashes a 64-bit key.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        let mut h = 0u64;
        for (chunk, &b) in bytes.iter().enumerate() {
            h ^= self.tables[chunk][b as usize];
        }
        h
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
}
