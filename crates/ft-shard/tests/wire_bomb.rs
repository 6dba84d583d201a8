//! Bytes this process did not write, two ways, under one byte-counting
//! global allocator (live bytes and their high-water mark) — so this file
//! is its own integration-test binary with a single test running two
//! sequential phases: nothing else allocates inside a measured window.
//!
//! 1. **Length-prefix bomb.** `read_frame` sits on the serve port, so a
//!    header may announce any length below the frame cap. Memory must
//!    follow the bytes that arrive, not the announcement.
//! 2. **Seeded mutation loop over the shard codec** (ROADMAP 7b). One valid
//!    INIT → LOAD → CYCLE → INCOMING2 → CYCLE exchange is recorded; each of
//!    20 000 SplitMix64-seeded mutants overwrites, flips, truncates or
//!    extends one request's payload, re-seals the checksum so the mutant
//!    reaches the payload decoders, and is played to a fresh
//!    [`WorkerCore`] in place of the frame it came from (the pristine rest
//!    of the exchange follows, so state a mutant poisoned gets exercised).
//!    The recorded CLAIMS2 and OUTCOMES replies are mutated the same way
//!    into the coordinator's decoders. No panic, every reply a decodable
//!    frame, and peak live bytes within [`WORKER_ALLOWANCE`] +
//!    [`PER_BYTE`] × the bytes fed.

use ft_core::{Message, SplitMix64};
use ft_shard::proto::{ClaimsV2, CycleView, InitMsg, LoadMsg, OutcomesView};
use ft_shard::wire::{self, FrameKind, MAX_PAYLOAD_WORDS};
use ft_shard::{FaultPlan, WorkerCore};
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
fn bytes_off_the_wire_neither_bomb_nor_panic() {
    torn_maximum_length_frame_fails_without_allocating_for_it();
    mutated_shard_frames_never_panic_and_stay_small();
}

fn torn_maximum_length_frame_fails_without_allocating_for_it() {
    // A well-formed header announcing the longest legal payload (128 MiB
    // on the wire), 100 payload bytes, then EOF.
    let mut frame = wire::encode(FrameKind::Req, 0, 1, &[]);
    frame[1] = MAX_PAYLOAD_WORDS - 1;
    let mut bytes = Vec::new();
    wire::write_frame_buf(&mut bytes, &frame[..2], &mut Vec::new()).unwrap();
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
    wire::write_frame_buf(&mut bytes, &frame, &mut Vec::new()).unwrap();
    let (res, peak) = peak_during(|| wire::read_frame(&mut &bytes[..]));
    assert_eq!(res.unwrap().unwrap(), frame);
    assert!(peak >= 2 << 20, "allocator hook is not counting ({peak})");
    assert!(peak <= 8 << 20, "2 MiB frame peaked at {peak} bytes");
}

/// What a worker may hold however its requests were mutated: the arena of
/// the largest tree a mutant of the recorded INIT can name (an overwrite
/// draws a small value or a random word, so n ≤ 32 and capacities < 64;
/// partial-concentrator wiring included). The pinned seed peaks at 6.3 KiB;
/// 1.6 M mutants of four other seeds never passed 23 KiB.
const WORKER_ALLOWANCE: usize = 64 << 10;
/// Live bytes a decoder may hold per byte fed: a 24-byte `ShardClaim` per
/// 16-byte wire claim, the replay cache's copy of a reply, growth slack.
const PER_BYTE: usize = 8;

/// The recorded exchange: shard 0 of two on a 16-leaf universal tree.
fn recorded_requests() -> Vec<Vec<u64>> {
    let init = InitMsg {
        n: 16,
        boundary: 1,
        shard: 0,
        proto: wire::PROTO_VERSION,
        sim: ft_sim::SimConfig::default(),
        plan: FaultPlan::none(),
        profile: ft_core::CapacityProfile::Universal { root_capacity: 8 },
    };
    // One local, one intra-shard, two root-crossers.
    let msgs = [(2, 2), (0, 3), (1, 12), (5, 9)].map(|(s, d)| Message::new(s, d));
    let mut load = Vec::new();
    LoadMsg::encode_into(&mut load, 9, &[0, 2, 5, 7], &msgs);
    let mut cycle0 = Vec::new();
    CycleView::encode_into(&mut cycle0, 0, 0, 0, &[], &[0, 2, 5, 7]);
    // One claim descending from the other shard: leaf 26 → leaf 21, turning
    // at the root, on wire 0 of this shard's boundary down channel.
    let incoming = vec![0, 1, 3 << 32, 21 << 34 | 26 << 6];
    // Both exports answered (first delivered, second to retry); the
    // survivor is message 7, now position 1 of the coordinator's array.
    let mut cycle1 = Vec::new();
    CycleView::encode_into(&mut cycle1, 1, 0, 2, &[0b01], &[1]);
    [
        (FrameKind::Init, init.encode()),
        (FrameKind::Load, load),
        (FrameKind::Cycle, cycle0),
        (FrameKind::Incoming2, incoming),
        (FrameKind::Cycle, cycle1),
    ]
    .into_iter()
    .enumerate()
    .map(|(seq, (kind, p))| wire::encode(kind, 0, seq as u32, &p))
    .collect()
}

/// One to three seeded edits of `payload`, sparing the word indices in
/// `spare` from overwrites and flips.
fn mutate(rng: &mut SplitMix64, payload: &mut Vec<u64>, spare: std::ops::Range<usize>) {
    for _ in 0..1 + rng.next_u64() % 3 {
        let r = rng.next_u64();
        let at = (r >> 8) as usize % payload.len().max(1);
        match r % 4 {
            _ if payload.is_empty() => payload.push(rng.next_u64()),
            0 | 1 if spare.contains(&at) => {}
            0 if r >> 63 == 0 => payload[at] = rng.next_u64() % 64,
            0 => payload[at] = rng.next_u64(),
            1 => payload[at] ^= 1 << (rng.next_u64() % 64),
            2 => payload.truncate(at),
            _ => payload.extend((0..1 + at % 4).map(|_| rng.next_u64())),
        }
    }
}

fn mutated_shard_frames_never_panic_and_stay_small() {
    let requests = recorded_requests();
    // The recording is a valid exchange, and yields the two reply payloads
    // the coordinator decodes.
    let mut core = WorkerCore::new();
    let replies: Vec<Vec<u64>> = requests.iter().map(|r| core.step(r).0[0].clone()).collect();
    let kinds: Vec<FrameKind> = replies
        .iter()
        .map(|r| wire::decode(r).unwrap().kind)
        .collect();
    use FrameKind::{Claims2, InitAck, LoadAck, Outcomes};
    assert_eq!(kinds, [InitAck, LoadAck, Claims2, Outcomes, Claims2]);
    let claims2 = wire::decode(&replies[2]).unwrap().payload.to_vec();
    let outcomes = wire::decode(&replies[3]).unwrap().payload.to_vec();
    assert_eq!(
        (claims2[1], outcomes[2]),
        (2, 3),
        "two exports, three deliveries"
    );
    drop(core);

    let mut rng = SplitMix64::seed_from_u64(0x7B_1985);
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    for iter in 0..20_000 {
        let target = rng.next_u64() as usize % requests.len();
        let pristine = wire::decode(&requests[target]).unwrap();
        let mut payload = pristine.payload.to_vec();
        // INIT words 9..14 are the fault plan — the harness's own licence
        // to drop, corrupt and delay replies, not a decoder input.
        let spare = if target == 0 { 9..14 } else { 0..0 };
        mutate(&mut rng, &mut payload, spare);
        wire::begin_frame(&mut frame, pristine.kind, pristine.shard, pristine.seq);
        frame.extend_from_slice(&payload);
        wire::end_frame(&mut frame);

        let (fed, peak) = peak_during(|| {
            let mut core = WorkerCore::new();
            let mut fed = 0;
            for (i, request) in requests.iter().enumerate() {
                let request = if i == target { &frame } else { request };
                fed += request.len() * 8;
                for reply in core.step(request).0 {
                    wire::decode(reply).unwrap_or_else(|e| {
                        panic!("mutant {iter} of request {target} ({payload:?}): reply {e}")
                    });
                }
            }
            fed
        });
        assert!(
            peak <= WORKER_ALLOWANCE + PER_BYTE * fed,
            "mutant {iter} of request {target} ({payload:?}) held {peak} bytes for {fed} fed"
        );

        for (what, pristine) in [("CLAIMS2", &claims2), ("OUTCOMES", &outcomes)] {
            let mut payload = pristine.clone();
            mutate(&mut rng, &mut payload, 0..0);
            let ((), peak) = peak_during(|| {
                scratch.clear();
                scratch.shrink_to_fit();
                if what == "CLAIMS2" {
                    let _ = ClaimsV2::decode_into(&payload, &mut scratch);
                } else {
                    let _ = OutcomesView::parse(&payload);
                }
            });
            // 64: a `ProtoError` owns its one-line message.
            assert!(
                peak <= 64 + PER_BYTE * payload.len() * 8,
                "{what} mutant {iter} ({payload:?}) held {peak} bytes"
            );
        }
    }
}
