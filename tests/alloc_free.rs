//! Asserts the headline property of the dense execution engine: once warm,
//! the synchronous (and round-robin) step loop performs **zero heap
//! allocations** — signals are bitmask copies, activation sets and update
//! buffers are reused, and the transition memo rewrites its slots in place.
//! The same holds for the partial-batch apply, closed-neighborhood scans and
//! active-set (dirty-frontier) execution.
//!
//! Measured with a counting global allocator. This file deliberately contains
//! a single `#[test]`: the counter is process-global, so concurrent tests in
//! the same binary would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stone_age_unison::model::algorithm::StateSpace;
use stone_age_unison::model::prelude::*;
use stone_age_unison::unison::{AlgAu, Turn};

mod common;
use common::Promote;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_step_loop_allocates_nothing() {
    let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();

    // --- synchronous scheduler, adversarial (non-uniform) start -------------
    // A random initial configuration keeps the general dense path busy (the
    // uniform-configuration fast path only takes over once the field
    // synchronizes).
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(42)
        .random_initial(&palette);
    assert!(
        exec.uses_dense_signals(),
        "AlgAU must run on the dense engine"
    );
    let mut sched = SynchronousScheduler;
    // Warm up: buffers grow to steady-state capacity, the memo ring fills.
    for _ in 0..50 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "synchronous steps must not allocate once warm"
    );

    // --- synchronous scheduler, synchronized (uniform) start ----------------
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(7)
        .uniform(Turn::Able(1));
    let mut sched = SynchronousScheduler;
    for _ in 0..10 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "uniform lockstep steps must not allocate"
    );

    // --- round-robin scheduler ----------------------------------------------
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(3)
        .random_initial(&palette);
    let mut sched = RoundRobinScheduler::default();
    for _ in 0..(2 * graph.node_count()) {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..(4 * graph.node_count()) {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "round-robin steps must not allocate once warm"
    );

    // --- partial-batch apply -------------------------------------------------
    // Re-seeding zeros through `corrupt` makes every step a near-uniform
    // batch (all zeros move to one, the ones hold): the bulk word-write
    // commit must be allocation-free too.
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let n = graph.node_count();
        let init: Vec<u8> = (0..n).map(|v| (v % 2 == 0) as u8).collect();
        let mut exec = ExecutionBuilder::new(&Promote, &graph)
            .seed(2)
            .initial(init);
        let all: Vec<usize> = (0..n).collect();
        let movers: Vec<usize> = (0..n).step_by(2).collect();
        let batch_round = |exec: &mut Execution<'_, Promote>| {
            for &v in &movers {
                exec.corrupt(v, 0);
            }
            exec.step(&all);
        };
        for _ in 0..3 {
            batch_round(&mut exec);
        }
        let before = allocations();
        for _ in 0..50 {
            batch_round(&mut exec);
        }
        assert_eq!(
            allocations() - before,
            0,
            "partial-batch steps must not allocate once warm"
        );
        assert!(exec.validate_incremental_sensing());
    }

    // --- closed-neighborhood buffer reuse ------------------------------------
    // `closed_neighborhood_into` clears and refills a caller-owned buffer;
    // after one warming call per distinct degree, a scan over every node must
    // not allocate (the CSR adjacency itself is two flat arrays).
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let mut buf = Vec::new();
        graph.closed_neighborhood_into(0, &mut buf);
        let before = allocations();
        for v in 0..graph.node_count() {
            graph.closed_neighborhood_into(v, &mut buf);
            assert_eq!(buf.len(), graph.degree(v) + 1);
        }
        assert_eq!(
            allocations() - before,
            0,
            "closed-neighborhood scans must reuse the buffer"
        );
    }

    // --- active-set (dirty-frontier) execution -------------------------------
    // The frontier is a preallocated bitset; its per-step maintenance (clear
    // unchanged, re-mark changed closed neighborhoods) walks CSR slices, so
    // the warm active-set loop must stay allocation-free like the full scan.
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let d = graph.diameter();
        let alg = AlgAu::new(d);
        let palette = alg.states();
        let mut exec = ExecutionBuilder::new(&alg, &graph)
            .seed(42)
            .active_set(true)
            .random_initial(&palette);
        assert!(exec.uses_active_set());
        let mut sched = SynchronousScheduler;
        for _ in 0..50 {
            exec.step_with(&mut sched);
        }
        let before = allocations();
        for _ in 0..200 {
            exec.step_with(&mut sched);
        }
        assert_eq!(
            allocations() - before,
            0,
            "active-set steps must not allocate once warm"
        );
    }

    // Sanity: the counter actually counts.
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(256);
    drop(v);
    assert!(allocations() > before, "allocator instrumentation is live");
}
