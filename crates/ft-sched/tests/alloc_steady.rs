//! Steady-state allocation discipline for the scheduler arena: once a
//! [`SchedArena`]'s buffers have grown to a workload's size, further split,
//! refinement and `schedule_assign` calls must perform **zero** heap
//! allocation — the leaf arrays, mate tables, trace queues and segment
//! stacks are all reused — and `schedule_stream` allocates only the
//! schedule it returns, each cycle once. A live-byte count pins what a
//! warmed arena holds per leaf.
//!
//! Measured with a counting global allocator, so this file is its own
//! integration-test binary and runs with `harness = false`: the libtest
//! harness's main thread allocates concurrently with the measured window
//! (its mpsc receiver lazily initializes a thread-local context), which
//! would read as a spurious steady-state allocation.

use ft_core::{FatTree, Message, MessageSet, MessageStream};
use ft_sched::{CrossDirection, SchedArena};
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

// One function on the sole thread: the counter is global, so nothing else
// may allocate during the measured windows.
fn main() {
    let n = 256u32;
    let ft = FatTree::universal(n, 64);
    let mut arena = SchedArena::new(&ft);

    // Root-crossing workload with duplicates and a hot spot — exercises
    // within-processor pairing, range pairing and tracing.
    let q: Vec<Message> = (0..4 * n)
        .map(|i| Message::new(i % (n / 2), n / 2 + (i * 7) % (n / 2)))
        .collect();

    // Warm-up: buffers grow to size.
    arena.split_even_indices(&ft, 1, &q, CrossDirection::LeftToRight);
    arena.refine_even(&ft, 1, &q, CrossDirection::LeftToRight);

    // --- Part 1: repeated even splits on a warmed arena are alloc-free.
    let before = allocs();
    for _ in 0..10 {
        arena.split_even_indices(&ft, 1, &q, CrossDirection::LeftToRight);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state SchedArena::split_even_indices allocated {grew} times in 10 calls"
    );

    // --- Part 2: full refinement to one-cycle parts — the split loop of the
    // Theorem-1 engine — is also alloc-free once warm.
    let before = allocs();
    for _ in 0..10 {
        arena.refine_even(&ft, 1, &q, CrossDirection::LeftToRight);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state SchedArena::refine_even allocated {grew} times in 10 calls"
    );

    // A whole multi-level schedule: crossings at every level, repeats and
    // a few locals, longer than one ingest chunk and not a multiple of it.
    let mut m: MessageSet = (0..5 * n + 37)
        .map(|i| Message::new(i % n, (i * 7 + i / n) % n))
        .collect();
    m.push(Message::new(5, 5));
    let stream: &dyn MessageStream = &m;
    let mut out = Vec::new();
    arena.schedule_assign(&ft, &m, 1, &mut out);
    arena.schedule_assign(&ft, stream, 1, &mut out);

    // --- Part 3: `schedule_assign` — ft-serve's request loop — allocates
    // nothing once warm, on a set and on a `dyn` stream alike.
    let before = allocs();
    for _ in 0..10 {
        arena.schedule_assign(&ft, &m, 1, &mut out);
        arena.schedule_assign(&ft, stream, 1, &mut out);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state SchedArena::schedule_assign allocated {grew} times in 20 calls"
    );

    // --- Part 4: `schedule_stream` allocates what it returns and nothing
    // else: one buffer per cycle, sized exactly (cycle 0 with the locals),
    // plus the outer vector — at most one allocation per doubling from its
    // first capacity of 4 — and `cycles_per_level`.
    arena.schedule_stream(&ft, stream, 1);
    let before = allocs();
    let (sched, _) = arena.schedule_stream(&ft, stream, 1);
    let grew = allocs() - before;
    let cycles = sched.num_cycles() as u64;
    let outer = 1 + cycles.div_ceil(4).next_power_of_two().trailing_zeros() as u64;
    assert!(cycles > 8, "{cycles} cycles: too few to tell");
    assert!(
        grew <= cycles + outer + 1,
        "SchedArena::schedule_stream allocated {grew} times for {cycles} cycles"
    );
    for (c, set) in sched.into_cycles().into_iter().enumerate() {
        let v = set.into_vec();
        assert_eq!(v.capacity(), v.len(), "cycle {c} was not sized exactly");
    }

    // --- Part 5: footprint. The bytes a warmed 2^16-leaf arena holds per
    // leaf once its run is over (the returned schedule dropped), after a
    // permutation and after a 2-relation: 68.3 and 87.6, where keeping the
    // bucket offsets, the worker's node table and the input slots twice
    // held 88.3 and 111.6. Each bound is the measured value, rounded up.
    let n = 1u32 << 16;
    let ft = FatTree::universal(n, n as u64 / 4);
    let dst = |i: u32| ((i % n) * 40503 + 7 + i / n * 3) % n;
    let perm: MessageSet = (0..n).map(|i| Message::new(i, dst(i))).collect();
    let rel2: MessageSet = (0..2 * n).map(|i| Message::new(i % n, dst(i))).collect();
    for (what, m, bound) in [("permutation", &perm, 69.0), ("2-relation", &rel2, 88.0)] {
        let before = live();
        let mut arena = SchedArena::new(&ft);
        for _ in 0..2 {
            arena.schedule(&ft, m, 1);
        }
        let per_leaf = live().wrapping_sub(before) as f64 / n as f64;
        drop(arena);
        assert!(
            per_leaf <= bound,
            "a warmed SchedArena holds {per_leaf:.1} B per leaf after a {what} (bound {bound})"
        );
    }
}
