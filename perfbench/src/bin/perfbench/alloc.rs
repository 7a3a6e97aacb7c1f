//! A counting global allocator: heap allocation *events* per thread.
//!
//! `ee360_support::alloc::CountingAlloc` tracks live and peak bytes; the
//! per-layer ledger needs the number of allocation calls a phase makes,
//! attributed to the thread that made them, so this binary installs its
//! own wrapper around the system allocator. Counts are thread-local, so
//! the untraced multi-threaded passes never contend on a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and counts `alloc`, `alloc_zeroed` and
/// `realloc` calls on the calling thread.
pub struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn bump() {
    let paused = PAUSED.try_with(Cell::get).unwrap_or(true);
    if !paused {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Allocation events counted on this thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` without counting its allocations on this thread — for the
/// ledger's own bookkeeping, which must not show up in the phase it
/// happens to grow inside.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_and_skips_uncounted_ones() {
        let before = count();
        let v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(count() - before, 1);
        drop(v);
        let before = count();
        let w: Vec<u64> = uncounted(|| Vec::with_capacity(16));
        assert_eq!(count(), before);
        drop(w);
    }
}
