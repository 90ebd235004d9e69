//! Memory held per rank: generated rank programs carry no spare capacity
//! and share what every request repeats (path, op name, kernel parameters),
//! `Driver::new` borrows them instead of copying them, and the run's
//! records share the workload's op names.
//!
//! A counting global allocator tracks the live heap, so this binary holds
//! exactly one test: no other test may allocate while it counts.

use dosas_repro::dosas::workload::OpenLoopSpec;
use dosas_repro::mpiio::program::Op;
use dosas_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Live heap that `make` leaves allocated, with what it made.
fn held_by<T>(make: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let made = make();
    (LIVE.load(Ordering::Relaxed) - before, made)
}

/// Live heap that `Driver::new` leaves allocated for `w`.
fn driver_heap(w: &Workload) -> usize {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.cluster.storage_nodes = STORAGE;
    held_by(|| Driver::new(cfg, w)).0
}

/// The path an I/O op reads and the op name it requests, if any.
fn path_and_op(op: &Op) -> (&Arc<str>, Option<&Arc<str>>) {
    match op {
        Op::ReadEx {
            path, operation, ..
        } => (path, Some(operation)),
        Op::Read {
            path, client_op, ..
        } => (path, client_op.as_ref().map(|(op, _)| op)),
        other => panic!("not a read: {other:?}"),
    }
}

/// Per-rank ceiling on the heap an open-loop workload holds. A rank costs
/// its `RankProgram` (24 B), its two 72 B ops (`Sleep` and a `ReadEx`
/// whose path, op name and kernel parameters are shared handles) and its
/// tenant label (8 B): 176 B. A workload that copies the path, op name
/// and parameters into each rank holds about 391 B.
const WORKLOAD_BYTES_PER_RANK: usize = 200;

/// Per-rank ceiling on the heap `Driver::new` holds. A rank costs its
/// interpreter state (48 B, holding a reference to its program; its
/// tenant is read from the workload in place), one pre-sized 80 B
/// `AppIoRecord` per I/O op, and an eighth of a compute node (its CPU,
/// fabric port and timers), since the driver adds nodes to give every rank
/// a core: 172 B per open-loop rank in all. A driver that copies each
/// program holds the program's ops and path string on top, about 350 B
/// more per rank.
const DRIVER_BYTES_PER_RANK: usize = 192;

#[test]
fn rank_programs_are_exact_and_the_driver_borrows_them() {
    let n = 4096;
    let (small_heap, small) = held_by(|| open_loop(n));
    let (large_heap, large) = held_by(|| open_loop(2 * n));
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
    let per_rank = (large_heap - small_heap) / n;
    println!("Workload::open_loop holds {per_rank} B per rank");
    assert!(
        per_rank < WORKLOAD_BYTES_PER_RANK,
        "Workload::open_loop holds {per_rank} B per rank, bound {WORKLOAD_BYTES_PER_RANK} B"
    );

    // Ranks reading one file share its path, and ranks of one tenant
    // share its op name.
    for (name, w) in [("open_loop", &large), ("uniform_active", &uniform)] {
        let io: Vec<_> = w
            .programs
            .iter()
            .map(|p| path_and_op(p.ops.last().expect("an I/O op")))
            .collect();
        let (first, first_op) = io[0];
        let same_file: Vec<_> = io.iter().filter(|(path, _)| *path == first).collect();
        assert!(same_file.len() > 1, "{name}: one rank per file");
        for (path, op) in same_file {
            assert!(Arc::ptr_eq(path, first), "{name}: {path} copied per rank");
            let (op, first_op) = (op.expect("active"), first_op.expect("active"));
            assert!(Arc::ptr_eq(op, first_op), "{name}: {op} copied per rank");
        }
    }

    let per_rank = (driver_heap(&large) - driver_heap(&small)) / n;
    println!("Driver::new holds {per_rank} B per open-loop rank");
    assert!(
        per_rank < DRIVER_BYTES_PER_RANK,
        "Driver::new holds {per_rank} B per rank, bound {DRIVER_BYTES_PER_RANK} B"
    );

    // Records keep the op name the workload shares: two records of one
    // tenant point at one allocation.
    let w = open_loop(64);
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.cluster.storage_nodes = STORAGE;
    let m = Driver::run(cfg, &w);
    let tenant = w.tenants[0];
    let ops: Vec<&Arc<str>> = m
        .records
        .iter()
        .filter(|r| r.tenant == Some(tenant))
        .map(|r| r.op.as_ref().expect("active read"))
        .collect();
    assert!(ops.len() > 1, "tenant {tenant} issued one request");
    let (_, workload_op) = path_and_op(&w.programs[0].ops[1]);
    for op in ops {
        assert!(
            Arc::ptr_eq(op, workload_op.expect("active")),
            "record op {op} copied from the workload"
        );
    }
}
