//! The allocation count is per thread: a window opened by
//! `allocations_during` must not see allocations made by another thread
//! while it is open.

use std::sync::Barrier;

use sysscale_alloctrack::{allocations_during, TrackingAllocator};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

#[test]
fn another_threads_allocations_do_not_land_in_the_window() {
    let (start, done) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        // Spawned before the window opens: spawning allocates on this thread.
        scope.spawn(|| {
            start.wait();
            let boxes: Vec<Box<u64>> = (0..100).map(Box::new).collect();
            done.wait();
            assert_eq!(boxes.len(), 100);
        });
        let (allocs, ()) = allocations_during(|| {
            start.wait();
            done.wait();
        });
        assert_eq!(allocs, 0, "the other thread's allocations were counted");
    });
}
