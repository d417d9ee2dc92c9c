//! A counting global allocator for allocation-bound tests.
//!
//! Include it with `#[path = ".../counting_alloc.rs"] mod counting_alloc;`
//! and install it with
//! `#[global_allocator] static A: CountingAllocator = CountingAllocator;`.
//! The counters are process-global, so a test file using it should hold
//! exactly one `#[test]`: a second concurrently-running test would pollute
//! the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

/// Bytes currently allocated.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] (reset by storing the current `LIVE`).
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc` each
/// count one; frees do not).
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        new_ptr
    }
}
