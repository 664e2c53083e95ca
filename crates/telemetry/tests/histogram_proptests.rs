//! Property tests for the log2 latency histogram: every sample lands in
//! the bucket whose bounds contain it, and reported quantiles bracket the
//! true order statistics inside the clamped range and report the clamp
//! edge's bucket outside it.

use proptest::prelude::*;
use wmsketch_telemetry::{
    bucket_bounds, bucket_of, LatencyHistogram, BUCKETS, MAX_BUCKET, MIN_BUCKET,
};

/// Sample values spanning every magnitude in `0..u32::MAX`: a uniform
/// draw shifted right by a uniform 0..32 bits, so small values (below the
/// histogram's 32 ns clamp too) are about as common as large ones.
fn samples() -> impl Strategy<Value = Vec<(u64, u32)>> {
    prop::collection::vec((0u64..u32::MAX as u64, 0u32..32), 1..400)
}

fn values(raw: &[(u64, u32)]) -> Vec<u64> {
    raw.iter().map(|&(v, shift)| v >> shift).collect()
}

/// The true `q`-quantile of `sorted` under the rank convention the
/// histogram uses: the `ceil(q·n)`-th smallest sample (1-based).
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

fn record_all(h: &LatencyHistogram, vs: &[u64]) {
    for &v in vs {
        h.record(v);
    }
}

proptest! {
    /// Every sample's bucket bounds contain the sample, the bucket index
    /// is within range, and the mapping is monotone in the value.
    #[test]
    fn samples_land_in_the_right_bucket(raw in samples()) {
        for v in values(&raw) {
            let k = bucket_of(v);
            prop_assert!(k < BUCKETS);
            let (lo, hi) = bucket_bounds(k);
            prop_assert!(lo <= v && v <= hi,
                "sample {v} outside bucket {k} = [{lo}, {hi}]");
            let squared = v.saturating_mul(v); // exercise the high buckets
            let (lo2, hi2) = bucket_bounds(bucket_of(squared));
            prop_assert!(lo2 <= squared && squared <= hi2);
        }
    }

    /// The reported quantiles (p1 to p99.9) lie within the bucket that
    /// holds the true order statistic — i.e. the histogram's quantile
    /// brackets the exact quantile to within one log2 bucket. A true
    /// quantile outside the clamped range (below 32 ns here) is reported
    /// as the clamp edge's bucket.
    #[test]
    fn quantiles_bracket_the_truth(raw in samples()) {
        wmsketch_telemetry::set_enabled(true);
        let vs = values(&raw);
        let h = LatencyHistogram::new();
        record_all(&h, &vs);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), vs.len() as u64);
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let truth = true_quantile(&sorted, q);
            let (lo, hi) = snap.quantile_bounds(q).expect("non-empty");
            let k = bucket_of(truth);
            if !(MIN_BUCKET..=MAX_BUCKET).contains(&k) {
                let edge = bucket_bounds(k.clamp(MIN_BUCKET, MAX_BUCKET));
                prop_assert!((lo, hi) == edge,
                    "true q{q} = {truth} outside the clamp, reported [{lo}, {hi}], not {edge:?}");
            } else {
                prop_assert!(lo <= truth && truth <= hi,
                    "true q{q} = {truth} outside reported bucket [{lo}, {hi}]");
            }
            let reported = snap.quantile(q).expect("non-empty");
            prop_assert!(lo <= reported && reported <= hi,
                "reported q{q} = {reported} escaped its own bucket [{lo}, {hi}]");
        }
    }
}
