//! A counting global allocator: live heap bytes and the peak since the
//! last [`reset_peak`].
//!
//! The benchmark's own load generator and bookkeeping mark their threads
//! or regions [`uncounted`], so the peak is the system's heap, not the
//! benchmark's. An allocation made in an uncounted region and freed in a
//! counted one (or the reverse) shifts the live count; readings are
//! therefore always taken as growth above a baseline read in the same
//! window, which such a shift made before the window does not affect.
//!
//! Only the benchmark binary installs it (`#[global_allocator]` in
//! `main.rs`); in tests nothing is counted and every reading is zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

// Statistics only: no other data is published through these counters,
// so `Relaxed` suffices. Signed, because cross-region frees (see the
// module docs) may take the live count below its true value.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and free of destructors: reading it never
    // allocates, so the allocator may consult it.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator with live/peak byte accounting.
pub struct CountingAlloc;

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grew(by: usize) {
    if counted() {
        let now = LIVE.fetch_add(by as isize, Ordering::Relaxed) + by as isize;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if counted() {
        LIVE.fetch_sub(by as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a const-initialised thread-local, and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Stops counting on the calling thread for good (a load-generator
/// thread).
pub fn uncount_this_thread() {
    UNCOUNTED.with(|u| u.set(true));
}

/// Runs `f` with counting off on the calling thread (benchmark
/// bookkeeping).
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(was));
    out
}

/// Restarts peak tracking from the current live size and returns that
/// size: the baseline of the window [`peak_since`] reads.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes above `baseline` since the [`reset_peak`] that
/// returned it.
pub fn peak_since(baseline: isize) -> usize {
    (PEAK.load(Ordering::Relaxed) - baseline).max(0) as usize
}

/// Bytes as mebibytes.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
