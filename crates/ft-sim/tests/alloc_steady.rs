//! Steady-state allocation discipline: once a [`SimArena`]'s buffers have
//! grown to a workload's size, further cycles on the ideal-switch serial
//! path must perform **zero** heap allocation, a `run_to_completion`
//! must not allocate per cycle (only setup and a few amortized growths),
//! and a run on a thread's warm arena — either run function, either cycle body —
//! allocates only its report.
//!
//! Measured with a counting global allocator, so this file is its own
//! integration-test binary and runs with `harness = false`: the libtest
//! harness's main thread allocates concurrently with the measured window
//! (its mpsc receiver lazily initializes a thread-local context), which
//! would read as a spurious steady-state allocation.

use ft_core::{CapacityProfile, FatTree, Message, MessageSet, MessageStream};
use ft_sim::{
    run_stream_to_completion, run_to_completion, MetaWidth, RunReport, SimArena, SimConfig,
};
use ft_workloads::PermutationStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// One function on the sole thread: the counter is global, so nothing else
// may allocate during the measured windows.
fn main() {
    let n = 256u32;
    let ft = FatTree::universal(n, 64);
    let cfg = SimConfig::default(); // ideal switches, serial
    let msgs: Vec<Message> = (0..n).map(|i| Message::new(i, (i + 3) % n)).collect();

    // --- Part 1: a warmed arena re-runs cycles with zero allocations.
    let mut arena = SimArena::new(&ft, &cfg);
    arena.cycle(&ft, &msgs, &cfg); // warm-up: buffers grow to size
    arena.cycle(&ft, &msgs, &cfg);
    let before = allocs();
    for _ in 0..10 {
        arena.cycle(&ft, &msgs, &cfg);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state SimArena::cycle allocated {grew} times in 10 cycles"
    );

    // --- Part 2: run_to_completion allocates set-up state, not per cycle.
    // A hot spot on 64 processors serializes into 63 delivery cycles; far
    // fewer than 63 allocations proves nothing allocates cycle by cycle.
    let hot: MessageSet = (1..64u32).map(|i| Message::new(i, 0)).collect();
    let small = FatTree::new(64, CapacityProfile::FullDoubling);
    let before = allocs();
    let run = run_to_completion(&small, &hot, &cfg);
    let grew = allocs() - before;
    assert_eq!(run.cycles, 63);
    assert!(
        grew < run.cycles as u64,
        "run_to_completion allocated {grew} times over {} cycles",
        run.cycles
    );

    // --- Part 3: the streamed ingest is just as disciplined on both
    // cycle bodies. Once the fused sweeps' u32 words, destination side
    // array and turn list (`Auto`), or the level passes' u64 words, wires
    // and slot table (`Wide`), have grown, replaying the generator cycle
    // after cycle allocates nothing — the lazy stream really does go
    // straight into reused buffers.
    let stream = PermutationStream::new(n, 0x5EED);
    for meta in [MetaWidth::Auto, MetaWidth::Wide] {
        let cfg = SimConfig {
            meta,
            ..SimConfig::default()
        };
        let mut arena = SimArena::new(&ft, &cfg);
        arena.cycle_stream(&ft, &stream, &cfg); // warm-up
        arena.cycle_stream(&ft, &stream, &cfg);
        let before = allocs();
        for _ in 0..10 {
            arena.cycle_stream(&ft, &stream, &cfg);
        }
        let grew = allocs() - before;
        assert_eq!(
            grew, 0,
            "steady-state streamed {meta:?} cycle allocated {grew} times in 10 cycles"
        );
    }

    // --- Part 4: the run drivers reuse this thread's warm arena. Once a
    // run has warmed it, a second run of the same stream allocates only
    // the returned report's two vectors (`delivered_per_cycle` fits its
    // first allocation: a permutation here takes ≤ 4 cycles), whatever the
    // stream's length.
    for n in [256u32, 4096] {
        let ft = FatTree::universal(n, n as u64 / 4);
        let stream = PermutationStream::new(n, 0x5EED);
        run_stream_to_completion(&ft, &stream, &cfg); // warm-up
        let before = allocs();
        let run = run_stream_to_completion(&ft, &stream, &cfg);
        let grew = allocs() - before;
        assert!(run.cycles <= 4, "{} cycles at n = {n}", run.cycles);
        assert_eq!(
            grew, 2,
            "a warm run_stream_to_completion at n = {n} allocated {grew} times"
        );
    }

    // --- Part 5: both run functions are one loop over a set loaded once, on
    // either body. A warm `run_to_completion` (default body and `Wide`) and
    // a warm `Wide` `run_stream_to_completion` allocate the report's two
    // vectors and nothing else: no pending copy of the set, no id map, no
    // position → submitted-index map outside the arena.
    for n in [256u32, 4096] {
        let ft = FatTree::universal(n, n as u64 / 4);
        let stream = PermutationStream::new(n, 0x5EED);
        let set = stream.collect_set();
        for meta in [MetaWidth::Auto, MetaWidth::Wide] {
            let cfg = SimConfig {
                meta,
                ..SimConfig::default()
            };
            let materialised = || run_to_completion(&ft, &set, &cfg);
            let streamed = || run_stream_to_completion(&ft, &stream, &cfg);
            let mut runs: Vec<(&str, &dyn Fn() -> RunReport)> =
                vec![("run_to_completion", &materialised)];
            if meta == MetaWidth::Wide {
                runs.push(("run_stream_to_completion", &streamed));
            }
            for (name, run) in runs {
                run(); // warm-up
                let before = allocs();
                let report = run();
                let grew = allocs() - before;
                assert!(report.cycles <= 4, "{} cycles at n = {n}", report.cycles);
                assert_eq!(
                    grew, 2,
                    "a warm {meta:?} {name} at n = {n} allocated {grew} times"
                );
            }
        }
    }
}
