//! Steady-state allocation discipline for the on-line routing arena: once an
//! [`OnlineArena`]'s buffers have grown to a workload's size, further serial
//! [`OnlineArena::run`] calls must perform **zero** heap allocation — the
//! packed-metadata alive list, the leveled used-wire counters, and the
//! counter vectors are all reused. The same discipline holds with telemetry
//! attached: a warmed `MetricsRecorder` observing `run_with` allocates
//! nothing in steady state (its tables are grow-only and `reset` never
//! frees). A live-byte count pins what a warmed arena holds per leaf.
//!
//! Measured with a counting global allocator, so this file is its own
//! integration-test binary and runs with `harness = false`: the libtest
//! harness's main thread allocates concurrently with the measured window,
//! which would read as a spurious steady-state allocation.

use ft_core::rng::SplitMix64;
use ft_core::{FatTree, Message, MessageSet};
use ft_sched::{OnlineArena, OnlineConfig};
use ft_telemetry::MetricsRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (wrapping, so only differences are read).
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

// One test function on the sole thread: the counter is global, so nothing
// else may allocate during the measured window.
fn main() {
    let n = 256u32;
    let ft = FatTree::universal(n, 64);
    let mut arena = OnlineArena::new(&ft);

    // Congested random traffic with duplicates and locals: several delivery
    // cycles per run, so the per-cycle loop (shuffle, claim walk, compact)
    // is exercised many times per measured call. The fixed seed makes every
    // run identical, so warmed capacity is exactly the needed capacity.
    let mut wrng = SplitMix64::seed_from_u64(0xA110C);
    let m: MessageSet = (0..4 * n)
        .map(|_| Message::new(wrng.gen_range(0..n), wrng.gen_range(0..n)))
        .collect();

    let cfg = OnlineConfig::default();

    // --- No-op recorder path (the default `run`) ---
    // Warm-up: buffers grow to size.
    arena.run(&ft, &m, &mut SplitMix64::seed_from_u64(9), cfg);
    let cycles = arena.cycles();
    assert!(cycles > 1, "workload must be congested to be interesting");

    let before = allocs();
    for _ in 0..10 {
        arena.run(&ft, &m, &mut SplitMix64::seed_from_u64(9), cfg);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state OnlineArena::run allocated {grew} times in 10 calls"
    );
    assert_eq!(arena.cycles(), cycles);
    assert_eq!(arena.total_delivered(), m.len());

    // --- MetricsRecorder path (`run_with`) ---
    // One warm run grows the recorder's per-level tables and the
    // delivered-per-cycle series; `reset` zeroes without freeing, so the
    // measured window must stay allocation-free end to end.
    let mut rec = MetricsRecorder::new();
    arena.run_with(&ft, &m, &mut SplitMix64::seed_from_u64(9), cfg, &mut rec);
    let blocked = rec.total_blocked();
    assert!(blocked > 0, "congested workload must block some claims");

    let before = allocs();
    for _ in 0..10 {
        rec.reset();
        arena.run_with(&ft, &m, &mut SplitMix64::seed_from_u64(9), cfg, &mut rec);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state OnlineArena::run_with + MetricsRecorder allocated {grew} times in 10 calls"
    );
    assert_eq!(arena.cycles(), cycles);
    assert_eq!(rec.total_blocked(), blocked);
    assert_eq!(rec.total_delivered() as usize, m.len());

    // --- Footprint: the bytes a warmed 2^16-leaf arena holds per leaf
    // after a permutation: the alive list (8 B) and four counter tables
    // (2 B per node each), plus O(height) bytes. The counters refill from
    // the per-level capacities; a per-node template beside them held 4 B
    // per leaf more.
    let n = 1u32 << 16;
    let ft = FatTree::universal(n, n as u64 / 4);
    let perm: MessageSet = (0..n)
        .map(|i| Message::new(i, (i * 40503 + 7) % n))
        .collect();
    let before = live();
    let mut arena = OnlineArena::new(&ft);
    for _ in 0..2 {
        arena.run(&ft, &perm, &mut SplitMix64::seed_from_u64(9), cfg);
    }
    let per_leaf = live().wrapping_sub(before) as f64 / n as f64;
    drop(arena);
    let bound = 16.01;
    assert!(
        per_leaf <= bound,
        "a warmed OnlineArena holds {per_leaf:.3} B per leaf after a permutation (bound {bound})"
    );
}
