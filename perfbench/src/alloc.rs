//! A counting global allocator: every heap allocation (including
//! reallocations) bumps a process-wide counter and a per-thread one.
//! The process-wide count feeds `allocs_per_req`; the per-thread count
//! lets a wrapper attribute allocations to the call it brackets even
//! while another thread allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    // Relaxed: a statistic that publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    THREAD.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the whole process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
#[inline]
pub fn thread() -> u64 {
    THREAD.with(Cell::get)
}
