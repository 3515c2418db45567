//! Live-heap accounting: an allocator wrapper that counts the bytes the
//! program holds and their peak. Memory is reported from these counts
//! rather than from the resident set size, which also holds whatever the
//! system allocator's per-thread arenas kept from the OS — an amount that
//! moves with thread timing from run to run.
//!
//! The binary installs [`Counting`] as its global allocator; without it
//! (as in the library's tests) every count reads 0.
//!
//! Each thread batches its changes locally and folds them into the shared
//! count once they reach [`FLUSH_BYTES`]: one shared atomic updated on every
//! allocation slowed the two-worker batch path by about 8%. The peak is
//! therefore exact to within `FLUSH_BYTES` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread may hold back before folding them into the shared count.
const FLUSH_BYTES: isize = 1 << 16;

// Signed: a thread may fold in a release before another folds in the
// allocation it frees.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

fn record(delta: isize) {
    let fold = PENDING
        .try_with(|pending| {
            let v = pending.get() + delta;
            if v.abs() >= FLUSH_BYTES {
                pending.set(0);
                v
            } else {
                pending.set(v);
                0
            }
        })
        .unwrap_or(delta);
    if fold != 0 {
        let now = LIVE.fetch_add(fold, Ordering::Relaxed) + fold;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

fn grow(bytes: usize) {
    record(isize::try_from(bytes).unwrap_or(isize::MAX));
}

fn shrink(bytes: usize) {
    record(-isize::try_from(bytes).unwrap_or(isize::MAX));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Restarts the peak from the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    usize::try_from(live).unwrap_or(0)
}

/// The most bytes live at once since the last [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    usize::try_from(PEAK.load(Ordering::Relaxed)).unwrap_or(0)
}
