//! # wmsketch-telemetry — zero-external-dep metrics for the serving stack
//!
//! The paper pitches the WM-Sketch as a *monitoring* structure — real-time
//! visibility into a stream in sub-linear space — so the fleet built around
//! it should be observable with the same discipline: no external crates
//! (matching the hand-rolled epoll poller and the offline shims), no locks
//! on hot paths, and bounded memory everywhere.
//!
//! The primitives:
//!
//! * [`Counter`] — a monotone `u64`, relaxed atomic add.
//! * [`Gauge`] — a signed instantaneous value (`set`/`add`), relaxed atomics.
//! * [`LatencyHistogram`] — 144 bytes of log2-spaced `u32` buckets over
//!   nanosecond samples, clamped to `[32 ns, ~137 s)` so it can be embedded
//!   per hosted model at fleet scale. Recording is O(1): one
//!   `leading_zeros`, one compare-exchange, one relaxed `fetch_add`, no
//!   locks. A [`HistogramSnapshot`] (65 buckets) extracts p50/p90/p99/p999
//!   with within-bucket interpolation.
//! * [`Journal`] — a bounded ring buffer of coarse [`SpanEvent`]s (gossip
//!   ticks, delta pulls, drains). Coarse means a mutex is fine here; the
//!   ring never grows past its capacity and overwrites the oldest entry.
//! * [`RateAccountant`] — per-key update/query accounting backed by the
//!   workspace's own [`wmsketch_sketch::CountMinSketch`]: high-cardinality
//!   tenant counting in fixed space, dogfooding the paper's substrate.
//!   (`wmsketch-sketch` is a workspace member — "zero-dep" means zero
//!   *external* dependencies.)
//! * [`expo`] — the `wmsketch-metrics/v1` text exposition format: a stable,
//!   line-oriented rendering plus a parser ([`MetricsReport`]) so clients
//!   can scrape a node without pulling in a metrics stack.
//!
//! ## The global enable switch
//!
//! Instrumentation call sites gate on [`enabled`], resolved **once** from
//! the `WMSKETCH_TELEMETRY` environment variable (`off` / `0` / `false`
//! disable; anything else — including unset — enables). [`set_enabled`]
//! overrides it programmatically, which is how the bench measures the
//! instrumented-vs-off overhead ratio inside one process. Every primitive
//! also checks the switch internally, so a stray `record` while disabled
//! costs one relaxed load and nothing else.
//!
//! ## Exposition format (`wmsketch-metrics/v1`)
//!
//! ```text
//! # wmsketch-metrics/v1
//! <name>{<key>="<value>",...} <number> \n      (labels optional)
//! ```
//!
//! Names and label keys are `[a-z0-9_]`; label values are quoted with `"`
//! and `\` backslash-escaped; numbers are decimal integers or floats.
//! Histograms export as `<name>_count`, `<name>_sum`, and
//! `<name>_p50/_p90/_p99/_p999` samples sharing the same labels. Lines
//! starting with `#` are comments. The format is append-stable: parsers
//! must ignore sample names they don't know.

mod counter;
pub mod expo;
mod histogram;
mod journal;
mod rate;

pub use counter::{Counter, Gauge};
pub use expo::{ExpoWriter, MetricsReport, ParseError, Sample};
pub use histogram::{
    bucket_bounds, bucket_of, HistogramSnapshot, LatencyHistogram, BUCKETS, MAX_BUCKET, MIN_BUCKET,
};
pub use journal::{Journal, SpanEvent};
pub use rate::RateAccountant;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state resolution of the global switch: 0 = unresolved, 1 = on,
/// 2 = off. Resolved lazily from `WMSKETCH_TELEMETRY` on first query.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently enabled. First call resolves the
/// `WMSKETCH_TELEMETRY` environment variable (default: enabled); later
/// calls are a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => resolve_from_env(),
    }
}

/// Programmatically forces telemetry on or off, overriding the
/// environment. The bench uses this to measure instrumented-vs-off
/// overhead within one process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

#[cold]
fn resolve_from_env() -> bool {
    let off = std::env::var("WMSKETCH_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "off" || v == "0" || v == "false"
        })
        .unwrap_or(false);
    ENABLED.store(if off { 2 } else { 1 }, Ordering::Relaxed);
    !off
}

/// Serializes tests that flip the process-global enable switch (unit
/// tests share one binary and run on multiple threads).
#[cfg(test)]
pub(crate) fn switch_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_toggles() {
        let _g = switch_test_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn counters_ignore_records_while_disabled() {
        let _g = switch_test_guard();
        set_enabled(true);
        let c = Counter::new();
        let g = Gauge::new();
        let h = LatencyHistogram::new();
        c.add(3);
        g.set(7);
        h.record(100);
        set_enabled(false);
        c.add(5);
        g.set(99);
        h.record(1);
        set_enabled(true);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 7);
        assert_eq!(h.snapshot().count(), 1);
    }
}
