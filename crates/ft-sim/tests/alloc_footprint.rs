//! Cold footprint of a [`SimArena`]: the bytes [`SimArena::new`] asks the
//! allocator for, per leaf. A healthy tree keeps its channel capacities
//! per level, so the arena's per-leaf tables are `channel_use` (32 B),
//! `down_cnt` (8 B), `per_leaf` (4 B) and the source sort's `offsets`
//! (4 B); the per-channel capacity table (32 B per leaf) exists only under
//! a fault pattern that can kill a wire.
//!
//! Measured with a byte-counting global allocator, so this file is its own
//! integration-test binary and runs with `harness = false`, like
//! `alloc_steady.rs`: nothing else may allocate during the measured window.

use ft_core::FatTree;
use ft_sim::{FaultModel, SimArena, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Bytes allocated by `SimArena::new(ft, faults)`, per leaf.
fn bytes_per_leaf(ft: &FatTree, faults: FaultModel) -> f64 {
    let cfg = SimConfig {
        faults,
        ..SimConfig::default()
    };
    let before = BYTES.load(Ordering::Relaxed);
    let arena = SimArena::new(ft, &cfg);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(arena);
    bytes as f64 / ft.n() as f64
}

// One function on the sole thread: the counter is global.
fn main() {
    let n = 1u32 << 16;
    let ft = FatTree::universal(n, u64::from(n / 4));

    // 48 B per leaf, plus the level capacities and the sort's extra
    // offset: O(height) bytes, well under 64 KiB / 2^16 = 1 B per leaf.
    let healthy = bytes_per_leaf(&ft, FaultModel::none());
    assert!(
        healthy <= 49.0,
        "a healthy 2^16-leaf arena allocates {healthy:.3} B per leaf (> 48 + O(height))"
    );

    // A pattern under which no wire can die is healthy, whatever its seed.
    let zero = FaultModel {
        dead_wire_fraction: 0.0,
        seed: 1985,
    };
    let zero_bytes = bytes_per_leaf(&ft, zero);
    assert_eq!(
        zero_bytes, healthy,
        "a zero-fraction fault model built a capacity table"
    );

    // Dead wires make channels of one level differ: the table is back.
    let faulty = FaultModel {
        dead_wire_fraction: 0.05,
        seed: 1985,
    };
    let faulted = bytes_per_leaf(&ft, faulty);
    assert!(
        faulted >= healthy + 32.0,
        "a faulted arena allocates {faulted:.1} B per leaf, healthy {healthy:.1}: no table?"
    );

    println!(
        "alloc_footprint: SimArena::new at 2^16 leaves: healthy {healthy:.1} B/leaf, \
         zero-fraction {zero_bytes:.1}, faulted {faulted:.1}"
    );
}
