//! A std-only counting allocator for the traced run's `alloc.*` metrics.
//!
//! Counting is off until [`set_enabled`] turns it on, so untraced measurements pay one
//! relaxed load per allocation.  Counts live in cache-line-padded per-thread slots: each
//! thread claims a slot on its first counted allocation and is its only writer, so the
//! allocation path takes no lock and shares no written cache line with other workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside the
    // allocator never allocates and never observes a destroyed slot.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The process's global allocator: the system allocator plus optional counting.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // ordering: Relaxed — an on/off hint; an allocation racing the toggle may or may not
    // be counted, and the traced run only toggles between jobs.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let slot = MY_SLOT
        .try_with(|cell| {
            let mut slot = cell.get();
            if slot == usize::MAX {
                // ordering: Relaxed — slot ids only need to be distinct-ish; two threads
                // sharing a slot stay correct because the counters are atomic.
                slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
                cell.set(slot);
            }
            slot
        })
        .unwrap_or(0);
    // ordering: Relaxed — statistics only; totals are read after the counted threads
    // have been joined.
    COUNTS[slot].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[slot]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the counting path
// touches only atomics and a const thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` through this allocator with `layout`,
        // and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    // ordering: Relaxed — see `count`.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) and requested bytes counted so far.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), slot| {
        (
            a + slot.allocs.load(Ordering::Relaxed),
            b + slot.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Peak resident set size of this process in MiB, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
