//! Steady-state allocation audit of the serve-side UPDATE path: a
//! decoded frame flows from the connection's `ExamplesScratch` straight
//! into the hosted learner's `update_batch` with **zero** allocator
//! traffic once every buffer has warmed up — frame decode reuses the
//! scratch's vectors, and the learners reuse their instance-owned
//! coordinate-plan and median scratch.
//!
//! The learners are built the way a node hosts them: decoded from an
//! untrained template snapshot, one plain learner per model. The WM
//! shape is the 8 KB Figure-7 model with its 128-entry top-K heap; the
//! AWM is depth 1.
//!
//! This file holds exactly one test: the counting allocator tallies the
//! whole process, so concurrent tests would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wmsketch_core::{
    decode_any_learner, AwmSketch, AwmSketchConfig, DynLearner, SnapshotCodec, WmSketch,
    WmSketchConfig,
};
use wmsketch_hashing::codec::{Reader, Writer};
use wmsketch_learn::{Label, LabelDomain, SparseVector};
use wmsketch_serve::protocol::{put_examples, take_examples_into, ExamplesScratch};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// An example at arrival index `i`: a planted signal pair plus two
/// noise features from a 4000-feature domain, same shape throughout so
/// steady-state buffers fit every frame.
fn example(i: u64) -> (SparseVector, Label) {
    let a = 100 + (i * 17 % 4000) as u32;
    let b = 100 + (i * 7919 % 4000) as u32;
    if i.is_multiple_of(2) {
        (
            SparseVector::from_pairs(&[(3, 1.0), (a, 0.5), (b, 0.25)]),
            1,
        )
    } else {
        (
            SparseVector::from_pairs(&[(9, 1.0), (a, 0.5), (b, 0.25)]),
            -1,
        )
    }
}

/// Examples per UPDATE frame (the benchmark's frame size).
const FRAME: u64 = 1024;

/// One UPDATE frame body for arrival indices `start..start + FRAME`,
/// encoded exactly as the wire protocol ships it.
fn frame(start: u64) -> Vec<u8> {
    let batch: Vec<(SparseVector, Label)> = (start..start + FRAME).map(example).collect();
    let mut w = Writer::new();
    put_examples(&mut w, &batch);
    w.into_bytes()
}

#[test]
fn steady_state_update_decode_and_routing_do_not_allocate() {
    let templates = [
        (
            "WM 128x14, heap 128",
            WmSketch::new(WmSketchConfig::new(128, 14).heap_capacity(128).seed(7))
                .to_snapshot_bytes(),
        ),
        (
            "AWM depth 1",
            AwmSketch::new(AwmSketchConfig::new(128, 1024).depth(1).seed(7)).to_snapshot_bytes(),
        ),
    ];
    for (name, template) in templates {
        let mut learner: Box<dyn DynLearner> = decode_any_learner(&template).unwrap();
        let mut scratch = ExamplesScratch::new();

        // Warm-up: whole frames through the real decode + update path,
        // growing the scratch and the learner's per-update buffers to
        // steady state and filling the top-K heap / active set.
        const WARM_FRAMES: u64 = 8;
        for f in 0..WARM_FRAMES {
            let body = frame(f * FRAME);
            take_examples_into(&mut Reader::new(&body), &mut scratch, LabelDomain::Binary).unwrap();
            learner.update_batch(scratch.examples());
        }
        assert_eq!(learner.examples_seen(), WARM_FRAMES * FRAME, "{name}");

        // The measured region: decode a fresh frame into the warmed
        // scratch and train on the borrowed examples.
        let body = frame(WARM_FRAMES * FRAME);
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        take_examples_into(&mut Reader::new(&body), &mut scratch, LabelDomain::Binary).unwrap();
        learner.update_batch(scratch.examples());
        COUNTING.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(
            allocs, 0,
            "{name}: steady-state UPDATE decode+train allocated {allocs} time(s)"
        );
        assert_eq!(learner.examples_seen(), (WARM_FRAMES + 1) * FRAME, "{name}");
        // And the work really happened: the planted signal is in the model.
        assert!(learner.estimate(3) > 0.0, "{name}");
        assert!(learner.estimate(9) < 0.0, "{name}");
    }
}
