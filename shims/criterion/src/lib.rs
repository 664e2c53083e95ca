//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crate registry access, so this shim
//! provides the benchmarking API surface the `wmsketch-bench` targets use
//! ([`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Bencher::iter_batched_ref`], the [`criterion_group!`] /
//! [`criterion_main!`] macros) with a simple calibrated-timing harness: each
//! benchmark is warmed up, then timed over several short windows within a
//! fixed wall-clock budget, and the median time per iteration across the
//! windows is printed with its quartiles. One long window's mean lets a
//! single preemption or frequency dip move the figure; the median of many
//! windows does not, and the quartiles show how far the windows spread.
//! No plots or HTML reports — just honest numbers on stdout.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// How long each benchmark is measured (after warm-up), in all.
const MEASURE: Duration = Duration::from_millis(120);
/// How long one measured window runs, at least: a window ends at the
/// first pass or batch boundary past it.
const WINDOW: Duration = Duration::from_millis(10);
/// Warm-up budget per benchmark.
const WARMUP: Duration = Duration::from_millis(30);

/// Batch-size hint for [`Bencher::iter_batched_ref`] (ignored: the shim
/// always re-runs setup per batch).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The timing context handed to each benchmark closure.
pub struct Bencher {
    iters_done: u64,
    /// Time measured over every window so far.
    elapsed: Duration,
    /// Seconds per iteration, one entry per measured window.
    windows: Vec<f64>,
}

impl Bencher {
    fn new() -> Self {
        Self {
            iters_done: 0,
            elapsed: Duration::ZERO,
            windows: Vec::new(),
        }
    }

    /// Records one window of `iters` iterations that took `elapsed`.
    fn record(&mut self, iters: u64, elapsed: Duration) {
        self.iters_done += iters;
        self.elapsed += elapsed;
        self.windows.push(elapsed.as_secs_f64() / iters as f64);
    }

    /// Times `routine` in a loop.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm up and estimate the per-iteration cost.
        let mut n: u64 = 1;
        let mut warm_iters: u64 = 0;
        let warm_start = Instant::now();
        loop {
            for _ in 0..n {
                std::hint::black_box(routine());
            }
            warm_iters += n;
            if warm_start.elapsed() >= WARMUP {
                break;
            }
            n = n.saturating_mul(2);
        }
        // Passes of about an eighth of a window, so a window overshoots
        // its length by little.
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let pass = ((WINDOW.as_secs_f64() / 8.0 / per_iter) as u64).max(1);
        // Measure.
        while self.elapsed < MEASURE {
            let start = Instant::now();
            let mut done = 0u64;
            while start.elapsed() < WINDOW {
                for _ in 0..pass {
                    std::hint::black_box(routine());
                }
                done += pass;
            }
            self.record(done, start.elapsed());
        }
    }

    /// Times `routine` against mutable state rebuilt by `setup` per batch.
    /// A window holds whole batches, so a batch longer than [`WINDOW`] is
    /// a window of its own.
    pub fn iter_batched_ref<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(&mut I) -> R,
    {
        const BATCH: u64 = 4096;
        // Warm up one batch.
        {
            let mut state = setup();
            for _ in 0..BATCH.min(256) {
                std::hint::black_box(routine(&mut state));
            }
        }
        while self.elapsed < MEASURE {
            let mut window = Duration::ZERO;
            let mut done = 0u64;
            while window < WINDOW {
                let mut state = setup();
                let start = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(routine(&mut state));
                }
                window += start.elapsed();
                done += BATCH;
            }
            self.record(done, window);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput annotation.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark and prints its median time per iteration over
    /// the measured windows, with the first and third quartiles.
    pub fn bench_function<N: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: N,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher::new();
        f(&mut b);
        b.windows.sort_by(f64::total_cmp);
        // Nanoseconds per iteration at quantile `q` of the windows.
        let ns = |q: f64| {
            let last = b.windows.len().saturating_sub(1);
            b.windows
                .get((q * last as f64).round() as usize)
                .map_or(f64::NAN, |s| s * 1e9)
        };
        let median = ns(0.5);
        let mut line = format!(
            "{}/{}: {:.1} ns/iter median (q1 {:.1}, q3 {:.1}; {} windows, {} iters)",
            self.name,
            id,
            median,
            ns(0.25),
            ns(0.75),
            b.windows.len(),
            b.iters_done
        );
        if let Some(Throughput::Elements(n)) = self.throughput {
            let per_elem = median / n as f64;
            line.push_str(&format!(
                ", {:.1} ns/elem, {:.2} Melem/s",
                per_elem,
                1e3 / per_elem
            ));
        }
        println!("{line}");
        self
    }

    /// Ends the group (prints a separator).
    pub fn finish(&mut self) {
        println!();
    }
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name} ==");
        BenchmarkGroup {
            name,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<N: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: N,
        f: F,
    ) -> &mut Self {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
