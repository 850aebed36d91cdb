//! A counting/live-bytes tracking global allocator for memory-contract
//! tests.
//!
//! The workspace pins several memory contracts with allocator observation —
//! the slice loop's zero-per-slice allocations, the governors'
//! allocation-free evaluation intervals, and the fold pipeline's O(workers)
//! peak result memory (`tests/integration_perf.rs`). This crate is their
//! **single** tracker definition, so the numbers stay comparable across
//! binaries: each observing binary registers the shared type once,
//!
//! ```ignore
//! use sysscale_alloctrack::TrackingAllocator;
//!
//! #[global_allocator]
//! static ALLOCATOR: TrackingAllocator = TrackingAllocator;
//! ```
//!
//! and reads measurements through [`allocations_during`] /
//! [`peak_growth_during`].
//!
//! The allocation count is per thread: [`allocations_during`] counts only
//! the calling thread's allocations, so another thread (the test harness's
//! main thread, a concurrent test) cannot land inside its window. Live and
//! peak bytes are process-global, because [`peak_growth_during`] measures
//! work that fans out to worker threads; tests observing them should
//! serialize on a lock. A binary that never registers the allocator reads
//! zeros.
//!
//! This lives in its own leaf crate (rather than `sysscale-types`) because
//! a `GlobalAlloc` impl requires `unsafe impl`, and every model crate
//! forbids unsafe code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts allocation calls and tracks
/// live/peak heap bytes (the default `realloc`/`alloc_zeroed` route through
/// `alloc`, so growth is counted too).
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAllocator;

thread_local! {
    // `const`-initialised with no destructor, so touching it from inside
    // the allocator never allocates or registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation to `System` unchanged; the wrapper only
// updates counters around the calls.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread tearing down its TLS still allocates.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is forwarded to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // which is forwarded to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Number of allocation calls the calling thread made while `f` ran.
/// Allocations on other threads, including threads `f` spawns, are not
/// counted.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Peak heap growth (bytes above the level at entry) while `f` ran.
pub fn peak_growth_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(baseline, Ordering::Relaxed);
    let result = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    (peak.saturating_sub(baseline), result)
}
