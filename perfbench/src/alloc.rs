//! A counting global allocator: the number of heap allocations a layer
//! makes is a count that repeats exactly from run to run, where its time
//! does not.
//!
//! Counting is off until [`enable`] is called, so the untraced run pays
//! one relaxed load per allocation and nothing more. The counter is
//! process-wide: callers read it around work that runs while no other
//! thread of the process allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls once [`enable`] has been called.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Both atomics are statistics that publish no other data, so `Relaxed`
// suffices: a reader only needs each thread's own increments in order.

/// Starts counting.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocations counted so far.
#[must_use]
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bump() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only other effect is an
// atomic counter update, which touches no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
