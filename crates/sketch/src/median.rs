//! Median selection for Count-Sketch estimators.
//!
//! Two implementations share the lower-median convention:
//!
//! * **Sorting-network selection** for depths ≤ [`NETWORK_MAX_DEPTH`]:
//!   Batcher's odd-even merge network, monomorphized per length so the
//!   compare-exchange schedule is fully unrolled and data-independent
//!   (each compare-exchange compiles to a pair of conditional moves — no
//!   branches on cell values, so no branch mispredictions on the heap
//!   maintenance hot path).
//! * **Introselect** (`select_nth_unstable_by`) above that, where the
//!   `O(n)` expected cost wins over a full `O(n log² n)` network.
//!
//! [`median_inplace`] dispatches between them by length; golden tests pin
//! the two paths to identical results across odd and even depths.
//!
//! [`median_abs_exceeds`] answers `|median| > bound` without selecting at
//! all: two counting passes decide which side of `±bound` the lower median
//! falls on. Callers that only need that comparison (the WM-Sketch asking
//! whether a feature can enter a full top-K heap) skip the selection when
//! the answer is no.

use wmsketch_hashing::RowHashers;

/// Largest slice length routed through the sorting network; deeper inputs
/// fall back to introselect. 16 covers every per-row median the paper's
/// configurations take on the update path (Table 2 depths are ≤ 14).
pub const NETWORK_MAX_DEPTH: usize = 16;

/// One compare-exchange: orders `v[i] ≤ v[j]` without a data-dependent
/// branch (the two conditional selects compile to `cmov`/`minsd`-style
/// code).
///
/// Uses a single `<` comparison rather than `f64::min`/`max` so the
/// element *multiset* is preserved exactly — `min`/`max` may collapse
/// `-0.0`/`+0.0` pairs, and sign-flipped zero cells are common in sparse
/// sketches. NaNs compare false and are left in place (the estimator's
/// cells are never NaN; `median_select_inplace` enforces that by panic).
#[inline(always)]
fn cswap(v: &mut [f64], i: usize, j: usize) {
    let (a, b) = (v[i], v[j]);
    let swap = b < a;
    v[i] = if swap { b } else { a };
    v[j] = if swap { a } else { b };
}

/// Batcher's odd-even merge sorting network for a fixed length `N`,
/// correct for arbitrary (not just power-of-two) `N`. The loop bounds
/// depend only on `N`, so with `N` a const generic the whole schedule
/// unrolls at compile time.
#[inline]
fn oddeven_network<const N: usize>(v: &mut [f64]) {
    debug_assert_eq!(v.len(), N);
    let mut p = 1;
    while p < N {
        let mut k = p;
        loop {
            let mut j = k % p;
            while j + k < N {
                let mut i = 0;
                while i < k && i + j + k < N {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        cswap(v, i + j, i + j + k);
                    }
                    i += 1;
                }
                j += 2 * k;
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// Sorts `values` (of length ≤ [`NETWORK_MAX_DEPTH`]) with the
/// monomorphized network for its exact length and returns the lower
/// median, canonicalized per [`median_inplace`].
///
/// # Panics
/// Panics if `values` is empty or longer than [`NETWORK_MAX_DEPTH`].
#[must_use]
pub fn median_network_inplace(values: &mut [f64]) -> f64 {
    match values.len() {
        1 => {}
        2 => oddeven_network::<2>(values),
        3 => oddeven_network::<3>(values),
        4 => oddeven_network::<4>(values),
        5 => oddeven_network::<5>(values),
        6 => oddeven_network::<6>(values),
        7 => oddeven_network::<7>(values),
        8 => oddeven_network::<8>(values),
        9 => oddeven_network::<9>(values),
        10 => oddeven_network::<10>(values),
        11 => oddeven_network::<11>(values),
        12 => oddeven_network::<12>(values),
        13 => oddeven_network::<13>(values),
        14 => oddeven_network::<14>(values),
        15 => oddeven_network::<15>(values),
        16 => oddeven_network::<16>(values),
        n => panic!("sorting-network median supports 1..={NETWORK_MAX_DEPTH} values, got {n}"),
    }
    // + 0.0 canonicalizes -0.0 to +0.0 and is exact for every other value;
    // see median_inplace.
    values[(values.len() - 1) / 2] + 0.0
}

/// Returns the lower median of `values` by introselect, reordering the
/// slice in place, canonicalized per [`median_inplace`]. This is the
/// fallback path for depths > [`NETWORK_MAX_DEPTH`] and the golden
/// reference the network path is tested against.
///
/// Returns `0.0` for an empty slice.
///
/// # Panics
/// Panics if `values` contains NaN.
#[must_use]
pub fn median_select_inplace(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mid = (values.len() - 1) / 2;
    let (_, m, _) =
        values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("NaN in median input"));
    *m + 0.0
}

/// Returns the median of `values`, reordering the slice in place.
///
/// For an even number of elements this returns the *lower* median, matching
/// the convention of the reference WM-Sketch implementation (a single
/// order-statistic rather than an average keeps the estimator equal to one
/// of the actual per-row estimates).
///
/// Lengths ≤ [`NETWORK_MAX_DEPTH`] run through a branchless sorting
/// network; longer inputs use introselect. Both paths return bit-identical
/// values: a zero median is canonicalized to `+0.0` (via `+ 0.0`, exact
/// for every other value), because the two selection paths may otherwise
/// land a `-0.0` vs a `+0.0` from a mixed-zero tie — numerically equal but
/// with different bit patterns, which would leak through the snapshot
/// codec's bit-identity guarantee.
///
/// Returns `0.0` for an empty slice.
///
/// NaN input is unsupported (sketch cells are never NaN): debug builds
/// assert, release behavior depends on length — the introselect path
/// panics while the network path, whose compare-exchanges are branchless,
/// returns an unspecified element.
#[must_use]
#[inline]
pub fn median_inplace(values: &mut [f64]) -> f64 {
    debug_assert!(values.iter().all(|v| !v.is_nan()), "NaN in median input");
    match values.len() {
        0 => 0.0,
        n if n <= NETWORK_MAX_DEPTH => median_network_inplace(values),
        _ => median_select_inplace(values),
    }
}

/// Whether `|median_inplace(values)| > bound`, decided by counting instead
/// of selecting: the slice is only read, never reordered.
///
/// With `n = values.len()`, lower-median index `k = (n − 1) / 2` and `s`
/// the sorted values, two order-statistic identities hold for every
/// non-NaN `m`:
///
/// * `s[k] > m` ⇔ `#{v > m} ≥ n − k`
/// * `s[k] < −m` ⇔ `#{v < −m} ≥ k + 1`
///
/// and `|s[k]| > m` ⇔ `s[k] > m ∨ s[k] < −m` (for negative `m` both sides
/// are always true). The result therefore equals
/// `median_inplace(values).abs() > bound` exactly — ties, signed zeros
/// (which compare equal, so the `+0.0` canonicalization cannot matter)
/// and infinities included. An empty slice has median `0.0`; a NaN
/// `bound` gives `false`, as `> NaN` does.
#[must_use]
#[inline]
pub fn median_abs_exceeds(values: &[f64], bound: f64) -> bool {
    let n = values.len();
    if n == 0 {
        return 0.0 > bound;
    }
    let k = (n - 1) / 2;
    let (mut above, mut below) = (0usize, 0usize);
    for &v in values {
        above += usize::from(v > bound);
        below += usize::from(v < -bound);
    }
    above >= n - k || below > k
}

/// Row values are recovered into a stack buffer up to this depth; deeper
/// sketches spill to a heap allocation. (The fused update pipeline avoids
/// even that via `CoordPlan`'s plan-owned scratch.)
const STACK_DEPTH: usize = 64;

/// The Count-Sketch point estimate of `key` over a row-major cell array:
/// `median_j(scale · σ_j(key) · cells[j·width + h_j(key)])`.
///
/// This is the one shared implementation of the estimator's recovery step,
/// used by `CountSketch::estimate` (`scale = 1`) and the WM-/AWM-Sketch
/// `query_stored` paths (`scale = √s`, undoing the `R = A/√s` projection
/// scaling).
///
/// Depth 1 — the paper's best AWM shape — skips the buffer and median
/// machinery entirely: a 1-row "median" is just the sign-corrected cell,
/// canonicalized exactly as [`median_inplace`] would (`+ 0.0`). Deeper
/// sketches fill a stack buffer with `scale · σ_j · cell` in row order as
/// the key's coordinates are hashed, then take its median.
#[must_use]
pub fn signed_median_estimate(hashers: &RowHashers, cells: &[f64], key: u64, scale: f64) -> f64 {
    let depth = hashers.depth() as usize;
    if depth == 1 {
        let bs = hashers.bucket_sign(0, key);
        // + 0.0 canonicalizes -0.0 to +0.0, matching median_inplace.
        return scale * bs.sign * cells[bs.bucket as usize] + 0.0;
    }
    let mut val_spill;
    let mut val_buf = [0.0f64; STACK_DEPTH];
    let vals: &mut [f64] = if depth <= STACK_DEPTH {
        &mut val_buf[..depth]
    } else {
        val_spill = vec![0.0; depth];
        &mut val_spill
    };
    let mut j = 0;
    hashers.for_each_coord(key, |offset, sign| {
        vals[j] = scale * sign * cells[offset];
        j += 1;
    });
    median_inplace(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsketch_hashing::HashFamilyKind;

    #[test]
    fn signed_median_estimate_matches_manual_recovery() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            // Depth 80 exercises the spill path too.
            for depth in [1u32, 5, 80] {
                let hashers = RowHashers::new(kind, depth, 32, 9);
                let cells: Vec<f64> = (0..depth as usize * 32).map(|i| (i as f64).sin()).collect();
                for key in 0..200u64 {
                    for scale in [1.0, (f64::from(depth)).sqrt()] {
                        let expect = {
                            let mut vals: Vec<f64> = hashers
                                .bucket_signs(key)
                                .map(|(j, bs)| scale * bs.sign * cells[j * 32 + bs.bucket as usize])
                                .collect();
                            median_inplace(&mut vals)
                        };
                        let got = signed_median_estimate(&hashers, &cells, key, scale);
                        assert_eq!(got, expect, "kind {kind:?} depth {depth} key {key}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(median_inplace(&mut []), 0.0);
    }

    #[test]
    fn singleton() {
        assert_eq!(median_inplace(&mut [3.5]), 3.5);
    }

    #[test]
    fn odd_length() {
        assert_eq!(median_inplace(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_inplace(&mut [9.0, -2.0, 7.0, 4.0, 0.0]), 4.0);
    }

    #[test]
    fn even_length_takes_lower_median() {
        assert_eq!(median_inplace(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_inplace(&mut [10.0, 20.0]), 10.0);
    }

    #[test]
    fn robust_to_one_outlier_in_three() {
        assert_eq!(median_inplace(&mut [2.0, 1e12, 2.0]), 2.0);
    }

    #[test]
    fn duplicates() {
        assert_eq!(median_inplace(&mut [7.0, 7.0, 7.0, 7.0]), 7.0);
    }

    /// The 0–1 principle: a comparison network that sorts every boolean
    /// sequence sorts every sequence. Exhaustively verifying all `2^n`
    /// boolean inputs for every network length proves each monomorphized
    /// network correct, not just spot-checked.
    #[test]
    fn network_sorts_all_boolean_inputs_zero_one_principle() {
        for n in 1..=NETWORK_MAX_DEPTH {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                let _ = median_network_inplace(&mut v);
                let ones = mask.count_ones() as usize;
                let sorted: Vec<f64> = (0..n)
                    .map(|i| if i < n - ones { 0.0 } else { 1.0 })
                    .collect();
                assert_eq!(v, sorted, "n={n} mask={mask:b}");
            }
        }
    }

    /// Golden equality of the two median paths across odd and even
    /// lengths, adversarial value mixes (ties, signed zeros, infinities),
    /// and a deterministic pseudo-random sweep.
    #[test]
    fn network_matches_select_across_depths() {
        use wmsketch_hashing::splitmix64;
        for n in 1..=NETWORK_MAX_DEPTH {
            for case in 0..200u64 {
                let mut vals: Vec<f64> = (0..n)
                    .map(|i| {
                        let h = splitmix64(case * 131 + i as u64);
                        match h % 8 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f64::INFINITY,
                            3 => f64::NEG_INFINITY,
                            4 | 5 => f64::from((h % 5) as u32) - 2.0, // ties
                            _ => (h as f64 / u64::MAX as f64) * 2.0 - 1.0,
                        }
                    })
                    .collect();
                let mut by_select = vals.clone();
                let a = median_network_inplace(&mut vals);
                let b = median_select_inplace(&mut by_select);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "n={n} case={case}: network {a} vs select {b}"
                );
            }
        }
    }

    /// A zero median is always +0.0 on both paths, no matter which signed
    /// zero the selection lands on — the canonicalization that makes the
    /// two paths bit-identical.
    #[test]
    fn zero_median_is_canonical_positive_zero() {
        assert_eq!(median_network_inplace(&mut [-0.0]).to_bits(), 0);
        assert_eq!(median_select_inplace(&mut [-0.0]).to_bits(), 0);
        assert_eq!(median_network_inplace(&mut [0.0, -0.0, -0.0]).to_bits(), 0);
        assert_eq!(median_select_inplace(&mut [0.0, -0.0, -0.0]).to_bits(), 0);
        let mut long: Vec<f64> = vec![-0.0; NETWORK_MAX_DEPTH + 5];
        assert_eq!(median_inplace(&mut long).to_bits(), 0);
        // Nonzero medians are untouched bit for bit.
        assert_eq!(
            median_network_inplace(&mut [-1.5, -1.5, -1.5]).to_bits(),
            (-1.5f64).to_bits()
        );
    }

    #[test]
    fn network_preserves_signed_zero_multiset() {
        let mut v = [0.0, -0.0, -0.0, 0.0, -0.0];
        let _ = median_network_inplace(&mut v);
        let negs = v.iter().filter(|x| x.is_sign_negative()).count();
        assert_eq!(negs, 3, "signed-zero multiset changed: {v:?}");
    }

    /// `median_abs_exceeds` must agree with `|median_inplace| > bound` for
    /// every length on both sides of the network boundary, on tie-heavy
    /// values, and above all at bounds that tie exactly with a slice value
    /// (where `>` vs `≥` in either count would flip the answer).
    #[test]
    fn median_abs_exceeds_matches_sorted_median_at_ties() {
        use wmsketch_hashing::splitmix64;
        let mut checked_ties = 0;
        for n in 0..=NETWORK_MAX_DEPTH + 4 {
            for case in 0..150u64 {
                let vals: Vec<f64> = (0..n)
                    .map(|i| {
                        let h = splitmix64(case * 977 + i as u64 * 31 + n as u64);
                        match h % 9 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f64::INFINITY,
                            3 => f64::NEG_INFINITY,
                            4..=6 => f64::from((h >> 8) as u32 % 5) - 2.0, // ties
                            _ => (h as f64 / u64::MAX as f64) * 2.0 - 1.0,
                        }
                    })
                    .collect();
                let median = median_inplace(&mut vals.clone());
                let mut bounds = vec![0.0, -0.0, -1.0, -0.5, f64::INFINITY, median.abs()];
                bounds.extend(vals.iter().map(|v| v.abs()));
                bounds.extend(vals.iter().copied());
                for bound in bounds {
                    assert_eq!(
                        median_abs_exceeds(&vals, bound),
                        median.abs() > bound,
                        "n={n} case={case} bound={bound} median={median} vals={vals:?}"
                    );
                    checked_ties += usize::from(median.abs() == bound);
                }
            }
        }
        assert!(
            checked_ties > 1000,
            "too few exact-tie bounds: {checked_ties}"
        );
    }

    #[test]
    fn median_abs_exceeds_edge_cases() {
        // Empty: the median is 0.
        assert!(!median_abs_exceeds(&[], 0.0));
        assert!(median_abs_exceeds(&[], -1.0));
        // Exact ties never exceed.
        assert!(!median_abs_exceeds(&[2.0, 2.0, 2.0], 2.0));
        assert!(!median_abs_exceeds(&[-2.0, -2.0, -2.0], 2.0));
        assert!(median_abs_exceeds(&[-2.0, -2.0, -2.0], 1.999));
        // Lower median of an even count.
        assert!(!median_abs_exceeds(&[1.0, 5.0], 1.0));
        assert!(median_abs_exceeds(&[-5.0, -1.0], 1.0));
        // Signed zeros compare equal to a zero bound.
        assert!(!median_abs_exceeds(&[-0.0, 0.0, -0.0], 0.0));
        assert!(!median_abs_exceeds(&[-0.0, 0.0, -0.0], -0.0));
        // Infinities.
        assert!(!median_abs_exceeds(&[f64::INFINITY; 3], f64::INFINITY));
        assert!(median_abs_exceeds(&[f64::NEG_INFINITY; 3], 1e300));
        // A NaN bound compares false, like `> NaN`.
        assert!(!median_abs_exceeds(&[1.0, 2.0, 3.0], f64::NAN));
    }

    #[test]
    fn dispatch_is_seamless_across_the_network_boundary() {
        use wmsketch_hashing::splitmix64;
        for n in [
            NETWORK_MAX_DEPTH - 1,
            NETWORK_MAX_DEPTH,
            NETWORK_MAX_DEPTH + 1,
            63,
            64,
            65,
        ] {
            let mut vals: Vec<f64> = (0..n)
                .map(|i| (splitmix64(i as u64 + 9) as f64 / u64::MAX as f64) - 0.5)
                .collect();
            let mut reference = vals.clone();
            let got = median_inplace(&mut vals);
            let want = median_select_inplace(&mut reference);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }
}
