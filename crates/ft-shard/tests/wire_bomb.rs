//! Length-prefix bomb: `read_frame` sits on the serve port and reads bytes
//! it did not write, so a header may announce any length below the frame
//! cap. Memory must follow the bytes that arrive, not the announcement.
//!
//! Measured with a byte-counting global allocator (live bytes and their
//! high-water mark), so this file is its own integration-test binary with a
//! single test — nothing else allocates inside the measured window.

use ft_shard::wire::{self, FrameKind, MAX_PAYLOAD_WORDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Peak;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static HIGH: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    HIGH.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block may both be live while the contents move.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Peak = Peak;

/// Peak live bytes above the level at entry while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    HIGH.store(base, Ordering::Relaxed);
    let out = f();
    (out, HIGH.load(Ordering::Relaxed).saturating_sub(base))
}

#[test]
fn torn_maximum_length_frame_fails_without_allocating_for_it() {
    // A well-formed header announcing the longest legal payload (128 MiB
    // on the wire), 100 payload bytes, then EOF.
    let mut frame = wire::encode(FrameKind::Req, 0, 1, &[]);
    frame[1] = MAX_PAYLOAD_WORDS - 1;
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, &frame[..2]).unwrap();
    bytes.extend_from_slice(&[0xAB; 100]);

    let (res, peak) = peak_during(|| wire::read_frame(&mut &bytes[..]));
    let err = res.expect_err("a torn frame is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak <= 1 << 20,
        "read_frame held {peak} bytes for a frame that delivered 100"
    );

    // The measurement sees a real large frame: memory tracks what arrived.
    let payload = vec![7u64; 1 << 18]; // 2 MiB
    let frame = wire::encode(FrameKind::Load, 0, 2, &payload);
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, &frame).unwrap();
    let (res, peak) = peak_during(|| wire::read_frame(&mut &bytes[..]));
    assert_eq!(res.unwrap().unwrap(), frame);
    assert!(peak >= 2 << 20, "allocator hook is not counting ({peak})");
    assert!(peak <= 8 << 20, "2 MiB frame peaked at {peak} bytes");
}
