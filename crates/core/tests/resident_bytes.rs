//! Audits `DynLearner::resident_bytes` against *measured* allocation
//! deltas: a counting global allocator tracks live heap bytes while each
//! learner is built and trained, and the reported resident figure must
//! agree with the measurement within a generous factor. This is the
//! truth-in-accounting test behind the serve crate's memory governor —
//! if these bounds drift, the governor's budget enforcement drifts with
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wmsketch_core::{
    AwmSketch, AwmSketchConfig, DynLearner, MulticlassAwmSketch, MulticlassConfig, WmSketch,
    WmSketchConfig,
};
use wmsketch_learn::SparseVector;

/// A pass-through allocator that tracks net live bytes.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`, only adding relaxed
// counter updates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A named deferred learner constructor for the measurement table.
type BuildCase = Box<dyn FnOnce() -> Box<dyn DynLearner>>;

fn live_bytes() -> usize {
    ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(FREED.load(Ordering::Relaxed))
}

/// Builds a learner via `build`, trains it enough to populate retained
/// scratch (coordinate plans, slot buffers), and returns the measured
/// live-byte delta alongside the learner's own resident report.
fn measure(build: impl FnOnce() -> Box<dyn DynLearner>) -> (usize, usize) {
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
    let measured = live_bytes().saturating_sub(before);
    let reported = learner.resident_bytes();
    drop(learner);
    (measured, reported)
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
    // One test fn: the counting allocator is process-global and the
    // measurements must not interleave with a sibling test's allocations.
    let cases: Vec<(&str, BuildCase)> = vec![
        (
            "WM small",
            Box::new(|| {
                Box::new(WmSketch::new(
                    WmSketchConfig::with_budget_bytes(2048).seed(7),
                ))
            }),
        ),
        (
            "WM wide",
            Box::new(|| Box::new(WmSketch::new(WmSketchConfig::new(4096, 4).seed(7)))),
        ),
        (
            "AWM small",
            Box::new(|| {
                Box::new(AwmSketch::new(
                    AwmSketchConfig::with_budget_bytes(2048).seed(7),
                ))
            }),
        ),
        (
            "AWM wide",
            Box::new(|| Box::new(AwmSketch::new(AwmSketchConfig::new(512, 4096).seed(7)))),
        ),
        (
            "MC-AWM",
            Box::new(|| {
                Box::new(MulticlassAwmSketch::new(MulticlassConfig {
                    classes: 3,
                    per_class: AwmSketchConfig::with_budget_bytes(2048).seed(7),
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
    let awm = AwmSketch::new(AwmSketchConfig::with_budget_bytes(2048).seed(7));
    assert!(
        AwmSketch::resident_bytes(&awm) > awm.memory_bytes(),
        "resident {} B should exceed §7.1 {} B",
        AwmSketch::resident_bytes(&awm),
        awm.memory_bytes()
    );
}
