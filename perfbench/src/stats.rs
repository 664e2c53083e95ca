//! Order statistics for latency samples.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least ten samples beyond it (capped at p99), together
//! with the sample count, so a tail figure never rests on a handful of
//! observations.

use std::time::Duration;

/// Samples beyond the reported tail percentile, at minimum.
const TAIL_MARGIN: f64 = 10.0;

/// Median and supported tail of one latency sample set, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50_us: f64,
    pub tail_us: f64,
    /// The quantile `tail_us` sits at: 0.99 when the sample supports it.
    pub tail_q: f64,
    pub samples: u64,
}

impl Summary {
    /// Summarises nanosecond samples; an empty set reads as zeros.
    pub fn of(mut ns: Vec<u64>) -> Summary {
        if ns.is_empty() {
            return Summary {
                p50_us: 0.0,
                tail_us: 0.0,
                tail_q: 0.0,
                samples: 0,
            };
        }
        ns.sort_unstable();
        let n = ns.len() as f64;
        let tail_q = tail_quantile(ns.len());
        Summary {
            p50_us: quantile_sorted(&ns, 0.5) / 1e3,
            tail_us: quantile_sorted(&ns, tail_q) / 1e3,
            tail_q,
            samples: n as u64,
        }
    }
}

/// The highest quantile with at least [`TAIL_MARGIN`] samples beyond it,
/// capped at 0.99 and floored at the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - TAIL_MARGIN / n as f64).clamp(0.5, 0.99)
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of a float sample (NaN-free); 0 for an empty one.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_quantile(10), 0.5);
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let s = Summary::of((1..=1000).map(|v| v * 1000).collect());
        assert!((s.p50_us - 500.5).abs() < 1e-9);
        assert!(s.tail_us > 989.0 && s.tail_us < 991.0);
        assert_eq!(s.samples, 1000);
    }
}
