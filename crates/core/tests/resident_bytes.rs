//! Audits `DynLearner::resident_bytes` against *measured* allocation
//! deltas: a counting global allocator tracks the live heap bytes of the
//! calling thread while each learner is built and trained, and the
//! reported resident figure must agree with the measurement within a
//! generous factor. This is the truth-in-accounting test behind the serve
//! crate's memory governor — if these bounds drift, the governor's budget
//! enforcement drifts with them.
//!
//! Models with the same hash seed and depth share one copy of their
//! tabulation tables, so a model built while another holds its seed
//! measures 16 KiB per row less than when alone. Every case therefore
//! uses a seed no other test in this binary uses, and
//! `a_model_sharing_its_tables_still_reports_them` states the contract
//! for a shared one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wmsketch_core::{
    AwmSketch, AwmSketchConfig, DynLearner, MulticlassAwmSketch, MulticlassConfig, WmSketch,
    WmSketchConfig,
};
use wmsketch_learn::SparseVector;

/// A pass-through allocator that tracks each thread's net live bytes, so
/// tests running in parallel do not see each other's allocations.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: delegates every operation to `System`, only adding a
// thread-local counter update.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A named deferred learner constructor for the measurement table.
type BuildCase = Box<dyn FnOnce() -> Box<dyn DynLearner>>;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Builds a learner via `build`, trains it enough to populate retained
/// scratch (coordinate plans, slot buffers), and returns the measured
/// live-byte delta alongside the learner.
fn build_trained(build: impl FnOnce() -> Box<dyn DynLearner>) -> (usize, Box<dyn DynLearner>) {
    let before = live_bytes();
    let mut learner = build();
    for t in 0..64u32 {
        let x = SparseVector::from_pairs(&[(t % 11, 1.0), (100 + t % 7, 0.5), (500 + t, 0.25)]);
        let y = if t % 2 == 0 { 1 } else { -1 };
        if matches!(learner.label_domain(), wmsketch_learn::LabelDomain::Binary) {
            learner.update(&x, y);
        } else {
            learner.update(&x, (t % 3) as i8);
        }
    }
    let measured = usize::try_from(live_bytes() - before).unwrap_or(0);
    (measured, learner)
}

/// The measured live-byte delta of a trained learner and its own
/// resident report.
fn measure(build: impl FnOnce() -> Box<dyn DynLearner>) -> (usize, usize) {
    let (measured, learner) = build_trained(build);
    (measured, learner.resident_bytes())
}

/// Generous two-sided agreement: reporting less than half the real
/// footprint would let a governed node blow its budget; reporting more
/// than ~2× would evict models that actually fit. A fixed slack term
/// absorbs allocator rounding and `size_of::<Self>` (reported but
/// stack/inline, not a separate heap allocation).
fn assert_agrees(name: &str, measured: usize, reported: usize) {
    const SLACK: usize = 8 * 1024;
    assert!(
        reported + SLACK >= measured / 2,
        "{name}: reported {reported} B far below measured {measured} B"
    );
    assert!(
        reported <= measured.saturating_mul(2) + SLACK,
        "{name}: reported {reported} B far above measured {measured} B"
    );
}

#[test]
fn resident_bytes_tracks_measured_allocations() {
    let cases: Vec<(&str, BuildCase)> = vec![
        (
            "WM small",
            Box::new(|| {
                Box::new(WmSketch::new(
                    WmSketchConfig::with_budget_bytes(2048).seed(101),
                ))
            }),
        ),
        (
            "WM wide",
            Box::new(|| Box::new(WmSketch::new(WmSketchConfig::new(4096, 4).seed(102)))),
        ),
        (
            "AWM small",
            Box::new(|| {
                Box::new(AwmSketch::new(
                    AwmSketchConfig::with_budget_bytes(2048).seed(103),
                ))
            }),
        ),
        (
            "AWM wide",
            Box::new(|| Box::new(AwmSketch::new(AwmSketchConfig::new(512, 4096).seed(104)))),
        ),
        (
            "MC-AWM",
            Box::new(|| {
                Box::new(MulticlassAwmSketch::new(MulticlassConfig {
                    // Classes are seeded 105, 106 and 107.
                    classes: 3,
                    per_class: AwmSketchConfig::with_budget_bytes(2048).seed(105),
                }))
            }),
        ),
    ];
    for (name, build) in cases {
        let (measured, reported) = measure(build);
        assert_agrees(name, measured, reported);
        assert!(reported > 0, "{name}: zero resident report");
    }
}

/// The governor's core premise: the §7.1 cost model understates what a
/// hot model really holds (16 KiB of tabulation tables per sketch row
/// alone), so resident accounting must be the larger figure for small
/// sketches.
#[test]
fn resident_exceeds_paper_model_for_small_sketches() {
    let awm = AwmSketch::new(AwmSketchConfig::with_budget_bytes(2048).seed(110));
    assert!(
        AwmSketch::resident_bytes(&awm) > awm.memory_bytes(),
        "resident {} B should exceed §7.1 {} B",
        AwmSketch::resident_bytes(&awm),
        awm.memory_bytes()
    );
}

/// Models with the same seed and depth share their tabulation tables,
/// yet each reports them in full, so the governor's sum over models is an
/// upper bound. A second model built while the first is alive measures
/// the shared words, 16 KiB per row, less than the first did and less
/// than it reports, and reports exactly what the first reports.
#[test]
fn a_model_sharing_its_tables_still_reports_them() {
    type Build = fn() -> Box<dyn DynLearner>;
    let cases: [(&str, u32, Build); 2] = [
        ("8 KB WM", 14, || {
            Box::new(WmSketch::new(
                WmSketchConfig::new(128, 14).heap_capacity(128).seed(120),
            ))
        }),
        ("2 KB AWM", 1, || {
            Box::new(AwmSketch::new(
                AwmSketchConfig::with_budget_bytes(2048).seed(121),
            ))
        }),
    ];
    // Room for bytes the report does not itemise, among them the
    // hash-table interner's entry, which only the first model allocates.
    const SLACK: usize = 1024;
    for (name, depth, build) in cases {
        let tables = depth as usize * 16 * 1024;
        let (alone, first) = build_trained(build);
        let (beside, second) = build_trained(build);
        let reported = second.resident_bytes();
        assert_eq!(reported, first.resident_bytes(), "{name}");
        let saved = alone.saturating_sub(beside);
        assert!(
            saved.abs_diff(tables) <= SLACK,
            "{name}: the second model measured {saved} B less, want {tables} B"
        );
        assert!(
            reported.saturating_sub(beside).abs_diff(tables) <= SLACK,
            "{name}: reported {reported} B, measured {beside} B beside a live twin"
        );
        assert_agrees(name, alone, reported);
    }
}
