//! A counting global allocator. Only the traced binary installs it, so
//! the timed end-to-end run pays nothing for it.
//!
//! It counts heap allocation events (`alloc`, `alloc_zeroed` and
//! `realloc`) on every thread except those that opted out with
//! [`exclude_this_thread`] — the benchmark's own client threads, so a
//! per-request count covers the server's wire path only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus an allocation counter.
pub struct CountingAlloc;

fn count() {
    // `try_with` fails only while this thread's locals are being torn
    // down; count those allocations rather than touch a dead slot.
    if !EXCLUDED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed atomic add that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events counted so far (0 when the allocator is not
/// installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Stops counting allocations made by the calling thread.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}
