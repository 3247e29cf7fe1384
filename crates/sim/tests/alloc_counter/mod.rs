//! A counting global allocator for the allocation gates (`route_alloc.rs`,
//! `queue_alloc.rs`): exact, so the gates hold with zero tolerance. Flag
//! and counters are all per-thread, so neither the test harness nor a
//! test counting concurrently on another thread can disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(allocations: u64, bytes: i64) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|a| a.set(a.get() + allocations));
        LIVE_BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and the thread-locals are const-initialised and have no destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller guarantees `ptr`/`layout` as for `dealloc` and
        // a non-zero `new_size` that does not overflow when aligned.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `work` with this thread counted; returns `(allocations, live bytes
/// gained)`.
pub fn counted(work: impl FnOnce()) -> (u64, i64) {
    let read = || (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let before = read();
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}
