//! Measures what shared tabulation tables really hold: a counting global
//! allocator tracks the live heap bytes of the calling thread while row
//! hashers are built and dropped.
//!
//! A second holder of the same seed and depth must add almost nothing,
//! and dropping the last holder must give the table words back. The
//! second point guards the interner's storage: a weak reference to an
//! allocation that holds the words inline would keep all of them alive
//! until its entry is pruned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wmsketch_hashing::{HashFamilyKind, RowHashers, TabulationHash};

/// A pass-through allocator that tracks each thread's net live bytes.
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

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// The words of one tabulation row: 8 tables of 256 `u64`s.
const ROW_BYTES: isize = 16 * 1024;

/// Room for the interner's map, keys and entry headers (allocated, or
/// freed when a dead entry is pruned), none of which grows with a table.
const SLACK: isize = 2 * 1024;

const DEPTH: u32 = 14;

#[test]
fn a_second_holder_adds_no_table_and_the_last_drop_frees_it() {
    // Seeds no other test in this binary uses.
    let tab = HashFamilyKind::Tabulation;
    let tables = ROW_BYTES * DEPTH as isize;

    let start = live_bytes();
    let first = RowHashers::new(tab, DEPTH, 128, 0x0DD5_0001);
    let one = live_bytes() - start;
    assert!(
        (tables - SLACK..tables + SLACK).contains(&one),
        "first holder: {one} B live, want the {tables} B of tables"
    );

    let second = RowHashers::new(tab, DEPTH, 1024, 0x0DD5_0001);
    let two = live_bytes() - start;
    assert!(
        two - one < SLACK,
        "second holder of the same seed added {} B",
        two - one
    );
    assert_eq!(second.resident_bytes(), first.resident_bytes());

    drop(first);
    assert!(
        live_bytes() - start >= tables - SLACK,
        "the second holder is still alive"
    );
    drop(second);
    let after = live_bytes() - start;
    assert!(
        after.abs() < SLACK,
        "{after} B still live after the last holder dropped"
    );

    // The same for a single function, which is the one-row case.
    let start = live_bytes();
    let single = TabulationHash::new(0x0DD5_0002);
    let one = live_bytes() - start;
    assert!(
        (ROW_BYTES - SLACK..ROW_BYTES + SLACK).contains(&one),
        "single function: {one} B live, want the {ROW_BYTES} B table"
    );
    drop(single);
    let after = live_bytes() - start;
    assert!(
        after.abs() < SLACK,
        "{after} B still live after the last holder dropped"
    );
}
