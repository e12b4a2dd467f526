//! Allocation regression test for the `ZabState` layout: cloning a reachable state must
//! stay close to allocation-free.  Sid sets, sid maps and partitions are inline
//! bitmasks, histories and the ghost state are shared, so a clone allocates only the
//! server array, the channel table and the queues that are non-empty.
//!
//! A std-only counting global allocator counts the allocations made by the test thread
//! while it clones every state of a 2,000-state mSpec-3 corpus.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use remix_checker::{corpus, CorpusOptions};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

/// Upper bound on the mean number of allocations per `ZabState::clone`.
const MAX_ALLOCS_PER_CLONE: f64 = 4.0;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can read it without
    // allocating.  `None` while counting is off on this thread.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; counting touches
// only a const thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations the current thread made meanwhile.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

#[test]
fn cloning_corpus_states_averages_at_most_four_allocations() {
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::small(CodeVersion::V391));
    let states = corpus(
        &spec,
        CorpusOptions {
            max_states: 2_000,
            max_depth: 64,
        },
    );
    assert_eq!(states.len(), 2_000);
    let mut clones: Vec<ZabState> = Vec::with_capacity(states.len());
    let allocs = allocations_during(|| clones.extend(states.iter().cloned()));
    assert_eq!(clones, states);
    let per_clone = allocs as f64 / states.len() as f64;
    println!("{per_clone:.2} allocations per ZabState clone");
    assert!(
        per_clone <= MAX_ALLOCS_PER_CLONE,
        "{per_clone:.2} allocations per clone (bound {MAX_ALLOCS_PER_CLONE})"
    );
}
