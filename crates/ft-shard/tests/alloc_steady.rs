//! Steady-state allocation discipline for the overlapped coordinator and
//! the channel link under it: once the frame pools, merge scratch, verdict
//! bitmaps, and remap buffers have grown to the workload's size, a further
//! delivery cycle may allocate **one `Vec` per frame handed across a
//! queue** (the link's `send` copy, the worker's reply copy) and nothing
//! else — nothing per cycle, nothing per message — in the coordinator's
//! event loop *and* in the shard workers behind it.
//!
//! Measured with a counting global allocator, so this file is its own
//! integration-test binary and runs with `harness = false` — the libtest
//! harness thread's own mpsc machinery would otherwise allocate
//! concurrently with the measured window.
//!
//! The measurement compares two runs of the *same 255 messages* that differ
//! only in how hard they serialize: one hot spot takes 255 delivery cycles,
//! four spread hot spots take 63. Everything else that legitimately
//! allocates — worker spawn, queue setup, arena growth, lazy per-port
//! switch state — scales with the message set and tree, which are
//! identical; so the long run may exceed the short one by the extra frames
//! it exchanged (16 per cycle on four shards; `mpsc` links its queue blocks
//! out of those same counts, one per 31 sends) plus half an allocation per
//! extra cycle of slack, and a single `Vec` per cycle anywhere in
//! `run_loop` or the worker (+ 192) breaks the bound. Empirically the
//! difference sits ≈ 50 above the frame count, all of it queue blocks.

use ft_core::{CapacityProfile, FatTree, Message, MessageSet};
use ft_shard::{run_sharded, ShardConfig};
use ft_sim::SimConfig;
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

/// 255 fixed sources fanned into `spots` hot destinations: same message
/// count and tree every time, cycle count set by how many spots share the
/// load (each hot leaf channel delivers one message per cycle).
fn spots_run(ft: &FatTree, spots: &[u32], cfg: &ShardConfig) -> (usize, u64, u64) {
    let msgs: MessageSet = (0..256u32)
        .filter(|i| !spots.contains(i))
        .enumerate()
        .map(|(j, i)| Message::new(i, spots[j % spots.len()]))
        .collect();
    let before = allocs();
    let report = run_sharded(ft, &msgs, cfg).expect("sharded hot-spot run");
    let frames = report.stats.frames_sent + report.stats.frames_received;
    (report.run.cycles, allocs() - before, frames)
}

// One function on the sole thread: the counter is global and also sees
// the worker threads, which is exactly what the measurement wants.
fn main() {
    let ft = FatTree::new(256, CapacityProfile::FullDoubling);
    let cfg = ShardConfig::new(4, SimConfig::default());

    // Warm the process once (lazy runtime init is not what we measure).
    let _ = spots_run(&ft, &[0], &cfg);

    let (cycles_short, allocs_short, frames_short) = spots_run(&ft, &[0, 64, 128, 192], &cfg);
    let (cycles_long, allocs_long, frames_long) = spots_run(&ft, &[0], &cfg);
    assert_eq!(cycles_short, 63);
    assert_eq!(cycles_long, 255);

    let extra_cycles = (cycles_long - cycles_short) as u64;
    let extra_frames = frames_long - frames_short;
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_allocs <= extra_frames + extra_cycles / 2,
        "{extra_allocs} extra allocations over {extra_frames} extra frames and {extra_cycles} \
         extra delivery cycles ({allocs_long} vs {allocs_short}) — the steady-state loop may \
         allocate one Vec per frame hand-off and nothing per cycle or per message"
    );
}
