//! A fixed-size, lock-free, log2-bucketed latency histogram.
//!
//! Bucket `0` holds the sample `0`; bucket `k ≥ 1` holds samples in
//! `[2^(k-1), 2^k)` (bucket 64's upper edge saturates at `u64::MAX`).
//! [`LatencyHistogram`] stores buckets `MIN_BUCKET..=MAX_BUCKET` and
//! clamps samples outside them into the edge buckets. Recording is O(1) —
//! one `leading_zeros`, one compare-exchange, one relaxed `fetch_add` —
//! so the serve hot path can record per-frame latencies without locks.
//! Quantiles come out of a [`HistogramSnapshot`] with within-bucket
//! linear interpolation (always inside the bucket's bounds, so inside the
//! clamped range reported quantiles provably bracket the true order
//! statistic — pinned by the crate's proptests).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// The bucket index a sample lands in: `0` for `0`, else
/// `64 - v.leading_zeros()` (so bucket `k` covers `[2^(k-1), 2^k)`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// The inclusive `(low, high)` sample range of bucket `k`.
///
/// Bucket 0 is `(0, 0)`; bucket 64's high edge saturates at `u64::MAX`.
pub fn bucket_bounds(k: usize) -> (u64, u64) {
    assert!(k < BUCKETS, "bucket index out of range");
    if k == 0 {
        (0, 0)
    } else if k == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (k - 1), (1u64 << k) - 1)
    }
}

/// First stored bucket: samples below `2^(MIN_BUCKET-1)` ns (= 32 ns)
/// land in it.
pub const MIN_BUCKET: usize = 6;
/// Last stored bucket: samples at or above `2^(MAX_BUCKET-1)` ns
/// (≈ 137 s) land in it.
pub const MAX_BUCKET: usize = 38;
/// Buckets a [`LatencyHistogram`] stores: `MIN_BUCKET..=MAX_BUCKET`.
const STORED_BUCKETS: usize = MAX_BUCKET - MIN_BUCKET + 1;

/// A shareable log2 histogram of `u64` samples (nanoseconds by
/// convention), small enough to embed per entity — one per op class per
/// hosted model, where a fleet node multiplies the footprint by tens of
/// thousands. All methods take `&self`; recording never blocks.
///
/// 144 bytes: `u32` bucket counts (pinned at `u32::MAX` instead of
/// wrapping) over the clamped bucket range `[32 ns, ~137 s)` — every
/// realistic service latency — with out-of-range samples absorbed by the
/// edge buckets, so quantile estimates saturate at the clamp edges rather
/// than erring. [`LatencyHistogram::snapshot`] maps into the 65-bucket
/// [`HistogramSnapshot`], which does quantile extraction and exposition.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU32; STORED_BUCKETS],
    /// Sum of all recorded samples (unclamped; wraps only after ~584
    /// years of accumulated nanoseconds).
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU32::new(0) }; STORED_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            let k = bucket_of(v).clamp(MIN_BUCKET, MAX_BUCKET) - MIN_BUCKET;
            // Pin a saturated bucket at u32::MAX instead of wrapping: a
            // compare-exchange that refuses to increment past the cap,
            // rather than add-then-correct — with the latter, a racing
            // record between the wrap to 0 and the corrective decrement
            // would leave the bucket near 0, discarding ~4B samples.
            let bucket = &self.buckets[k];
            let mut seen = bucket.load(Ordering::Relaxed);
            while seen != u32::MAX {
                match bucket.compare_exchange_weak(
                    seen,
                    seen + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(cur) => seen = cur,
                }
            }
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy in the 65-bucket layout (stored bucket `i`
    /// is snapshot bucket `i + MIN_BUCKET`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, src) in self.buckets.iter().enumerate() {
            buckets[i + MIN_BUCKET] = u64::from(src.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`LatencyHistogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The estimated `q`-quantile (`0.0 < q ≤ 1.0`), or `None` when the
    /// histogram is empty. Uses the rank statistic `ceil(q·n)` and
    /// interpolates linearly inside the owning bucket, so the estimate is
    /// always within [`Self::quantile_bounds`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (k, pos, n_k) = self.quantile_bucket(q)?;
        let (lo, hi) = bucket_bounds(k);
        let span = hi - lo;
        // pos ∈ 1..=n_k; spread the rank across the bucket's range.
        let off = (span as u128 * (pos - 1) as u128 / n_k as u128) as u64;
        Some(lo + off)
    }

    /// The inclusive `(low, high)` bounds of the bucket containing the
    /// true `q`-quantile of the recorded samples (`None` when empty). The
    /// true order statistic is guaranteed to lie within these bounds.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let (k, _, _) = self.quantile_bucket(q)?;
        Some(bucket_bounds(k))
    }

    /// Locates the bucket owning rank `ceil(q·n)`: returns
    /// `(bucket, rank_within_bucket, bucket_count)`.
    fn quantile_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c != 0 && cum + c >= rank {
                return Some((k, rank - cum, c));
            }
            cum += c;
        }
        None // unreachable: ranks are clamped to the total count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(k);
            assert_eq!(bucket_of(lo), k);
            assert_eq!(bucket_of(hi), k);
        }
    }

    #[test]
    fn quantiles_of_a_known_stream() {
        let _g = crate::switch_test_guard();
        crate::set_enabled(true);
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        // p50's rank statistic (the 500th smallest = 500) lives in
        // bucket 9 = [256, 511]; the estimate must land inside it.
        let (lo, hi) = s.quantile_bounds(0.5).unwrap();
        assert_eq!((lo, hi), (256, 511));
        let p50 = s.quantile(0.5).unwrap();
        assert!((lo..=hi).contains(&p50));
        // p100 is the max's bucket.
        let (lo, hi) = s.quantile_bounds(1.0).unwrap();
        assert!((lo..=hi).contains(&1000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile(0.5), None);
        assert_eq!(h.snapshot().quantile_bounds(0.99), None);
    }

    #[test]
    fn in_range_samples_keep_their_log2_bucket() {
        let _g = crate::switch_test_guard();
        crate::set_enabled(true);
        let h = LatencyHistogram::new();
        let samples = [32u64, 100, 999, 65_536, 1_000_000, (1 << 37) - 1];
        for v in samples {
            h.record(v);
        }
        let mut want = [0u64; BUCKETS];
        for v in samples {
            want[bucket_of(v)] += 1;
        }
        let s = h.snapshot();
        assert_eq!(s.buckets(), &want);
        assert_eq!(s.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn clamps_out_of_range_samples_to_the_edge_buckets() {
        let _g = crate::switch_test_guard();
        crate::set_enabled(true);
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(31);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets()[MIN_BUCKET], 2);
        assert_eq!(s.buckets()[MAX_BUCKET], 1);
        // The sum stays unclamped (and wraps).
        assert_eq!(s.sum(), u64::MAX.wrapping_add(31));
        // Quantiles saturate at the clamp edge instead of erring.
        let (lo, hi) = s.quantile_bounds(1.0).unwrap();
        assert_eq!((lo, hi), bucket_bounds(MAX_BUCKET));
        assert!((lo..=hi).contains(&s.quantile(1.0).unwrap()));
    }

    #[test]
    fn bucket_pins_at_u32_max() {
        let _g = crate::switch_test_guard();
        crate::set_enabled(true);
        let h = LatencyHistogram::new();
        let k = bucket_of(100).clamp(MIN_BUCKET, MAX_BUCKET) - MIN_BUCKET;
        h.buckets[k].store(u32::MAX - 1, Ordering::Relaxed);
        h.record(100); // reaches the cap
        h.record(100); // refused, stays pinned
        h.record(100);
        assert_eq!(h.buckets[k].load(Ordering::Relaxed), u32::MAX);
    }

    /// `ModelEntry` embeds one histogram per op class inline and the
    /// memory governor charges `size_of::<ModelEntry>()` per model, so
    /// the footprint is part of how a governed fleet spills.
    #[test]
    fn footprint_is_144_bytes() {
        assert_eq!(std::mem::size_of::<LatencyHistogram>(), 144);
    }
}
