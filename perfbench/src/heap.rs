//! A global allocator that can count: the peak of live heap bytes while
//! one untimed operation runs.
//!
//! The resident-set high-water mark (`VmHWM`) also counts the pages the
//! allocator keeps cached in its per-thread arenas, which depends on
//! which threads ran where; the live-byte peak counts only what the
//! program holds.
//!
//! Counting is off except inside [`peak_during`], so the timed
//! operations pay one relaxed load per allocation and no shared
//! read-modify-write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Forwards to [`System`]; inside [`peak_during`] it also keeps the live
/// and peak byte counts.
pub struct Counting;

// Statistics only: no other data is published through these, so
// `Relaxed` suffices.
static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started. A block
/// allocated before and freed during the count makes it smaller, so it
/// can go below 0.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrink(bytes: usize) {
    if ON.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// updated only after a successful allocation and never touch the memory.
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
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (and so
        // `System`) returned, with its layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Runs `op` with counting on, on every thread; returns its result and
/// the largest number of heap bytes it held at once, beyond those live
/// when it started. Calls from several threads take turns.
pub fn peak_during<T>(op: impl FnOnce() -> T) -> (T, usize) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = op();
    ON.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_what_the_operation_holds() {
        let (v, peak) = peak_during(|| vec![1u8; 1 << 20]);
        assert_eq!(v.len(), 1 << 20);
        // Other tests may allocate at the same time, so only a floor.
        assert!(peak >= 1 << 20, "peak {peak}");
    }
}
