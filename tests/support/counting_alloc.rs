//! A counting global allocator for allocation-bound tests.
//!
//! Include it with `#[path = "support/counting_alloc.rs"] mod counting_alloc;`
//! and install it with
//! `#[global_allocator] static A: CountingAllocator = CountingAllocator;`.
//! The counter is process-global, so a test file using it should hold
//! exactly one `#[test]`: a second concurrently-running test would pollute
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc` each
/// count one; frees do not).
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
