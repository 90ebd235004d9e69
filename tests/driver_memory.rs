//! Memory held per rank: generated rank programs carry no spare capacity,
//! and `Driver::new` borrows them instead of copying them.
//!
//! A counting global allocator tracks the live heap, so this binary holds
//! exactly one test: no other test may allocate while it counts.

use dosas_repro::dosas::workload::OpenLoopSpec;
use dosas_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STORAGE: usize = 8;

/// An open loop of exactly `requests` arrivals (the horizon never binds),
/// with the benchmark's tenant mix.
fn open_loop(requests: usize) -> Workload {
    Workload::open_loop(&OpenLoopSpec {
        arrival_rate: 200.0,
        horizon: SimSpan::from_secs(1_000_000),
        max_requests: requests,
        size_min: 1 << 20,
        size_max: 64 << 20,
        alpha: 1.3,
        tenants: vec![
            ("gaussian2d".into(), KernelParams::with_width(1024), 2.0),
            ("sum".into(), KernelParams::default(), 1.0),
            ("grep".into(), KernelParams::with_pattern(b"needle"), 1.0),
        ],
        storage_nodes: STORAGE,
        seed: 1,
    })
}

/// Live heap that `Driver::new` leaves allocated for `w`.
fn driver_heap(w: &Workload) -> usize {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.cluster.storage_nodes = STORAGE;
    let before = LIVE.load(Ordering::Relaxed);
    let driver = Driver::new(cfg, w);
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(driver);
    held
}

/// Per-rank ceiling on the heap `Driver::new` holds. A rank costs its
/// interpreter state (64 B, holding a reference to its program), one
/// pre-sized 88 B `AppIoRecord` per I/O op, and an eighth of a compute
/// node (its CPU, fabric port and timers), since the driver adds nodes to
/// give every rank a core: 196 B per open-loop rank in all. A driver that copies each
/// program holds the program's ops and path string on top, about 350 B
/// more per rank.
const DRIVER_BYTES_PER_RANK: usize = 224;

#[test]
fn rank_programs_are_exact_and_the_driver_borrows_them() {
    let n = 4096;
    let (small, large) = (open_loop(n), open_loop(2 * n));
    let uniform = Workload::uniform_active(16, 4, 1 << 20, "sum", KernelParams::default());
    for (name, w) in [("open_loop", &large), ("uniform_active", &uniform)] {
        for (rank, p) in w.programs.iter().enumerate() {
            assert_eq!(
                p.ops.capacity(),
                p.ops.len(),
                "{name} rank {rank}: program carries spare capacity"
            );
        }
    }

    assert_eq!(large.rank_count(), 2 * small.rank_count());
    let per_rank = (driver_heap(&large) - driver_heap(&small)) / n;
    println!("Driver::new holds {per_rank} B per open-loop rank");
    assert!(
        per_rank < DRIVER_BYTES_PER_RANK,
        "Driver::new holds {per_rank} B per rank, bound {DRIVER_BYTES_PER_RANK} B"
    );
}
