//! The coalescing core: batch buffers, the graft-tree compute pass, and
//! byte-identical response demultiplexing.
//!
//! # Why coalescing preserves solo outputs
//!
//! The service fixes one solo shape — a universal fat-tree on `n` leaves
//! with root capacity `w`, height `h = lg n` — and one batch width
//! `slots = B` (a power of two, `g = lg B`). Up to `B` schedule requests
//! coalesce into a single *graft tree*: a fat-tree on `N = n·B` leaves
//! whose per-level capacities are `B` copies of the solo profile grafted
//! under `g` unloaded top levels (`caps = [w; g] ++ solo_caps`). Request
//! `i`'s processor `p` remaps to combined leaf `p + i·n`, placing the whole
//! request inside the subtree rooted at depth-`g` node `B + i` — a subtree
//! that is *capacity-identical* to the solo tree, level for level.
//!
//! One [`SchedArena::schedule_assign`] pass over the combined set is then
//! demultiplexed back per request:
//!
//! * every message's LCA stays inside its request's subtree, so channels
//!   above depth `g` carry no load and each request's λ sites and
//!   refinement subproblems are exactly its solo ones;
//! * the arena's counting sort is stable and buckets are keyed by tree
//!   node, so each request's bucket contents and in-bucket message order
//!   equal the solo run's;
//! * emission merges buckets level by level in key order, so at combined
//!   level `g+ℓ` request `i`'s messages occupy the *first*
//!   `solo_cycles_i(ℓ)` cycles of that level's cycle block;
//! * therefore collecting the distinct combined cycles used by one
//!   request's non-local messages and renumbering them ascending yields
//!   precisely the solo cycle ids — with the one solo special case applied
//!   per request rather than per batch: local (`src == dst`) messages ride
//!   cycle 0, which exists on its own only when a request has *no*
//!   non-local messages.
//!
//! The online engine is *not* merged — its global Fisher–Yates stream
//! would diverge from solo runs — but requests share the warmed
//! [`OnlineArena`] and each runs from its own request seed, which is
//! byte-identical to a solo arena trivially.
//!
//! Everything here is pooled: once a [`BatchBuf`] and [`ServeCompute`]
//! have processed a warmup batch, the decode → coalesce → schedule →
//! demux → encode loop performs zero heap allocation (asserted by
//! `tests/alloc_steady.rs`).

use crate::proto::{Engine, ReqView, ServeError};
use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, Message, MessageStream};
use ft_sched::online::{OnlineArena, OnlineConfig};
use ft_sched::SchedArena;
use ft_shard::wire::{begin_frame, end_frame, FrameKind};
use ft_telemetry::Recorder;

/// Safety valve for online serve runs; trips set the response's truncated
/// flag instead of looping unboundedly on a pathological request.
pub const ONLINE_MAX_CYCLES: usize = 1 << 16;

const NONE: u32 = u32::MAX;

/// The [`OnlineConfig`] every serve-side (and solo-verification) online run
/// uses.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        max_cycles: ONLINE_MAX_CYCLES,
    }
}

/// A borrowed message slice as a [`MessageStream`] (the engines' lazy
/// input trait), so batch buffers feed the arenas without materializing a
/// `MessageSet`.
pub struct SliceStream<'a> {
    msgs: &'a [Message],
    family: &'static str,
}

impl<'a> SliceStream<'a> {
    pub fn new(msgs: &'a [Message], family: &'static str) -> Self {
        SliceStream { msgs, family }
    }
}

impl MessageStream for SliceStream<'_> {
    fn len(&self) -> usize {
        self.msgs.len()
    }

    fn family(&self) -> &'static str {
        self.family
    }

    fn message(&self, j: usize) -> Message {
        self.msgs[j]
    }
}

/// Per-request bookkeeping inside a batch: wire identity (connection, seq,
/// request id), engine and seed, the request's span in the batch's message
/// pool, and the compute pass's numeric outputs.
#[derive(Clone, Copy, Debug)]
pub struct ReqMeta {
    pub conn: u16,
    pub seq: u32,
    pub req_id: u64,
    pub engine: Engine,
    pub seed: u64,
    /// Span into [`BatchBuf`]'s schedule or online message pool.
    offset: u32,
    len: u32,
    /// Online outputs: cycles used, truncation flag, span into the
    /// delivered-per-cycle pool. (Schedule outputs live in `assign`.)
    out_cycles: u32,
    out_flags: u64,
    out_off: u32,
    out_len: u32,
}

/// One encoded response frame's location in [`BatchBuf::frames`].
#[derive(Clone, Copy, Debug)]
pub struct FrameSpan {
    pub conn: u16,
    pub start: usize,
    pub len: usize,
}

/// Per-request pipeline timestamps (ns since the metrics hub's epoch),
/// maintained by the server front end when live metrics are enabled and
/// left empty otherwise — the compute path never reads them. Entry `i`
/// describes the same request as [`BatchBuf::spans`]`()[i]`.
#[derive(Clone, Copy, Debug)]
pub struct ReqTiming {
    /// Monotone request id (span events key on this).
    pub rid: u64,
    pub engine: Engine,
    /// Messages in the request.
    pub msgs: u32,
    /// Frame fully read off the socket.
    pub recv_ns: u64,
    /// Request decoded and validated.
    pub decoded_ns: u64,
    /// Accepted into this batch.
    pub admitted_ns: u64,
}

/// A pooled request batch: admitted requests, their coalesced message
/// pools, the compute pass's outputs, and the encoded response frames.
/// All storage is grow-only; [`BatchBuf::reset`] never frees.
#[derive(Default)]
pub struct BatchBuf {
    /// Remapped (leaf `p + i·n`) messages of all schedule requests,
    /// concatenated in admission order.
    sched_msgs: Vec<Message>,
    /// Unremapped messages of all online requests, concatenated.
    online_msgs: Vec<Message>,
    reqs: Vec<ReqMeta>,
    sched_reqs: u32,
    /// `Busy` rejects since the previous batch (set by the server front
    /// end; reported through [`Recorder::serve_batch`]).
    pub rejected: u64,
    /// Stage timestamps per admitted request (see [`ReqTiming`]); empty
    /// unless the server runs with live metrics.
    pub timings: Vec<ReqTiming>,
    /// When the batcher closed this batch (ns since the metrics epoch; 0
    /// when metrics are off).
    pub closed_ns: u64,
    /// Compute-pass bounds, stamped by the batcher around
    /// [`ServeCompute::run`].
    pub sched_start_ns: u64,
    pub sched_end_ns: u64,
    num_cycles_combined: u32,
    assign: Vec<u32>,
    online_data: Vec<u32>,
    cycle_map: Vec<u32>,
    fbuf: Vec<u64>,
    frames: Vec<u64>,
    spans: Vec<FrameSpan>,
}

impl BatchBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the batch's contents, keeping every buffer's capacity.
    pub fn reset(&mut self) {
        self.sched_msgs.clear();
        self.online_msgs.clear();
        self.reqs.clear();
        self.sched_reqs = 0;
        self.rejected = 0;
        self.timings.clear();
        self.closed_ns = 0;
        self.sched_start_ns = 0;
        self.sched_end_ns = 0;
        self.num_cycles_combined = 0;
        self.assign.clear();
        self.online_data.clear();
        self.frames.clear();
        self.spans.clear();
    }

    /// Requests currently admitted.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when no request has been admitted.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Total messages across admitted requests.
    pub fn total_messages(&self) -> usize {
        self.sched_msgs.len() + self.online_msgs.len()
    }

    /// True if another request of `engine` fits: schedule requests are
    /// bounded by the graft tree's `slots`, online requests only by the
    /// front end's admission control.
    pub fn has_room(&self, engine: Engine, slots: u32) -> bool {
        engine != Engine::Schedule || self.sched_reqs < slots
    }

    /// Admit one decoded request into the batch, validating and remapping
    /// its messages. The caller must have checked [`BatchBuf::has_room`];
    /// admitting a schedule request into a full batch panics in debug.
    pub fn admit(
        &mut self,
        conn: u16,
        seq: u32,
        req: &ReqView<'_>,
        n: u32,
    ) -> Result<(), ServeError> {
        // Validate before mutating anything: a bad message must not leave
        // half a request in the pools.
        for &w in req.msgs {
            let (src, dst) = ((w >> 32) as u32, w as u32);
            if src >= n || dst >= n {
                return Err(ServeError::BadLeaf { src, dst, n });
            }
        }
        let (pool_base, offset) = match req.engine {
            Engine::Schedule => {
                let base = self.sched_reqs * n;
                self.sched_reqs += 1;
                let offset = self.sched_msgs.len();
                for &w in req.msgs {
                    self.sched_msgs
                        .push(Message::new(base + (w >> 32) as u32, base + w as u32));
                }
                (base, offset)
            }
            Engine::Online => {
                let offset = self.online_msgs.len();
                for &w in req.msgs {
                    self.online_msgs
                        .push(Message::new((w >> 32) as u32, w as u32));
                }
                (0, offset)
            }
        };
        let _ = pool_base;
        self.reqs.push(ReqMeta {
            conn,
            seq,
            req_id: req.req_id,
            engine: req.engine,
            seed: req.seed,
            offset: offset as u32,
            len: req.msgs.len() as u32,
            out_cycles: 0,
            out_flags: 0,
            out_off: 0,
            out_len: 0,
        });
        Ok(())
    }

    /// Demultiplex the compute pass's outputs and compose one `Resp` frame
    /// per request (admission order) into the pooled frame buffer. Runs on
    /// the batcher thread right after the batch's compute pass.
    pub fn encode_responses(&mut self) {
        self.frames.clear();
        self.spans.clear();
        for i in 0..self.reqs.len() {
            let r = self.reqs[i];
            self.fbuf.clear();
            begin_frame(&mut self.fbuf, FrameKind::Resp, r.conn, r.seq);
            self.fbuf.push(r.req_id);
            self.fbuf.push(r.engine as u64);
            match r.engine {
                Engine::Schedule => self.encode_schedule_resp(&r),
                Engine::Online => {
                    self.fbuf.push(r.out_cycles as u64);
                    self.fbuf.push(r.out_flags);
                    let (o, l) = (r.out_off as usize, r.out_len as usize);
                    let online_data = &self.online_data;
                    pack_u32_pairs(&mut self.fbuf, l, |k| online_data[o + k]);
                }
            }
            end_frame(&mut self.fbuf);
            self.spans.push(FrameSpan {
                conn: r.conn,
                start: self.frames.len(),
                len: self.fbuf.len(),
            });
            self.frames.extend_from_slice(&self.fbuf);
        }
    }

    /// The coalesced-to-solo cycle renumbering (module docs): mark the
    /// combined cycles this request's non-local messages landed in,
    /// renumber ascending, and emit per-message solo cycle ids with local
    /// messages pinned to cycle 0.
    fn encode_schedule_resp(&mut self, r: &ReqMeta) {
        let (o, l) = (r.offset as usize, r.offset as usize + r.len as usize);
        let nc = self.num_cycles_combined as usize;
        self.cycle_map.clear();
        self.cycle_map.resize(nc, NONE);
        let mut any_nonlocal = false;
        for j in o..l {
            if self.sched_msgs[j].src != self.sched_msgs[j].dst {
                self.cycle_map[self.assign[j] as usize] = 1;
                any_nonlocal = true;
            }
        }
        let mut next = 0u32;
        if any_nonlocal {
            for c in 0..nc {
                if self.cycle_map[c] == 1 {
                    self.cycle_map[c] = next;
                    next += 1;
                } else {
                    self.cycle_map[c] = NONE;
                }
            }
        }
        // A request whose schedule is all-local still uses one cycle (the
        // solo engines' lone-cycle-0 rule); an empty request uses none.
        let solo_cycles = if next == 0 { (r.len > 0) as u32 } else { next };
        self.fbuf.push(solo_cycles as u64);
        self.fbuf.push(0); // reserved: deliberately not the (batch-global) λ
        let sched_msgs = &self.sched_msgs;
        let assign = &self.assign;
        let cycle_map = &self.cycle_map;
        pack_u32_pairs(&mut self.fbuf, r.len as usize, |k| {
            let m = sched_msgs[o + k];
            if m.src == m.dst {
                0
            } else {
                cycle_map[assign[o + k] as usize]
            }
        });
    }

    /// Encoded response frames, in admission order.
    pub fn spans(&self) -> &[FrameSpan] {
        &self.spans
    }

    /// The words of one encoded response frame.
    pub fn frame(&self, span: &FrameSpan) -> &[u64] {
        &self.frames[span.start..span.start + span.len]
    }
}

/// Append `len` u32 values two-per-word (low half first).
fn pack_u32_pairs(buf: &mut Vec<u64>, len: usize, mut get: impl FnMut(usize) -> u32) {
    let mut k = 0;
    while k + 1 < len {
        buf.push(get(k) as u64 | (get(k + 1) as u64) << 32);
        k += 2;
    }
    if k < len {
        buf.push(get(k) as u64);
    }
}

/// The shared compute state: the solo and graft trees and one warmed arena
/// per engine. One instance lives on the server's batcher thread; tests
/// and the in-process baseline drive it directly.
pub struct ServeCompute {
    solo: FatTree,
    graft: FatTree,
    sched: SchedArena,
    online: OnlineArena,
    slots: u32,
}

impl ServeCompute {
    /// Can `slots` requests on `n` leaves share one graft tree? `slots`
    /// must be a power of two, and the graft tree's `n·slots` leaves may
    /// not exceed `2^`[`FatTree::MAX_HEIGHT`].
    pub fn check_slots(n: u32, slots: u32) -> Result<(), String> {
        if !slots.is_power_of_two() {
            return Err(format!("slots must be a power of two, got {slots}"));
        }
        if n as u64 * slots as u64 > 1 << FatTree::MAX_HEIGHT {
            return Err(format!(
                "the graft tree's n·slots = {n}·{slots} leaves exceed the 2^{} a fat-tree may have",
                FatTree::MAX_HEIGHT
            ));
        }
        Ok(())
    }

    /// Build the compute state for solo shape `(n, w)` and batch width
    /// `slots`.
    ///
    /// # Panics
    /// If [`Self::check_slots`] refuses `(n, slots)`.
    pub fn new(n: u32, w: u64, slots: u32) -> Self {
        if let Err(e) = Self::check_slots(n, slots) {
            panic!("{e}");
        }
        assert!(w <= u32::MAX as u64, "root capacity must fit 32 bits");
        let solo = FatTree::universal(n, w);
        let g = slots.trailing_zeros();
        // Graft-level channels never carry intra-request traffic (every
        // request's LCAs stay inside its slot subtree), so their width only
        // has to keep the table monotone: the solo root capacity, not the
        // raw `w`, which the universal law clamps to min(n, w).
        let mut caps = vec![solo.cap_at_level(0); g as usize];
        caps.extend_from_slice(solo.level_caps());
        let graft = FatTree::new(n * slots, CapacityProfile::PerLevel(caps));
        ServeCompute {
            sched: SchedArena::new(&graft),
            online: OnlineArena::new(&solo),
            solo,
            graft,
            slots,
        }
    }

    /// The solo tree requests are scheduled against.
    pub fn solo(&self) -> &FatTree {
        &self.solo
    }

    /// Batch width: schedule requests coalesced per pass.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Run the batch: one coalesced schedule pass over the graft tree,
    /// then each online request on the warmed solo arena. Numeric outputs
    /// land in `b`; frame encoding is a separate step
    /// ([`BatchBuf::encode_responses`]), timed as its own stage.
    pub fn run<R: Recorder>(&mut self, b: &mut BatchBuf, rec: &mut R) {
        debug_assert!(b.sched_reqs <= self.slots, "over-admitted batch");
        let total = b.total_messages() as u64;
        if b.sched_reqs > 0 {
            let stream = SliceStream::new(&b.sched_msgs, "serve");
            let (nc, _lam) =
                self.sched
                    .schedule_assign_with(&self.graft, &stream, 1, &mut b.assign, rec);
            b.num_cycles_combined = nc;
        }
        b.online_data.clear();
        for r in b.reqs.iter_mut() {
            if r.engine != Engine::Online {
                continue;
            }
            let span = &b.online_msgs[r.offset as usize..(r.offset + r.len) as usize];
            let stream = SliceStream::new(span, "serve-online");
            let mut rng = SplitMix64::seed_from_u64(r.seed);
            self.online
                .run_stream_with(&self.solo, &stream, &mut rng, online_config(), rec);
            r.out_cycles = self.online.cycles() as u32;
            r.out_flags = self.online.truncated() as u64;
            r.out_off = b.online_data.len() as u32;
            for &d in self.online.delivered_per_cycle() {
                b.online_data.push(d as u32);
            }
            r.out_len = b.online_data.len() as u32 - r.out_off;
        }
        if R::ENABLED {
            rec.serve_batch(b.reqs.len() as u32, total, b.rejected);
        }
    }
}

/// Compose the `Resp` frame a *solo* run produces for one schedule
/// request: one [`SchedArena::schedule_assign`] pass on the solo tree,
/// encoded exactly as [`BatchBuf::encode_responses`] encodes the demuxed
/// coalesced result. The golden tests and `bench-client --verify` compare
/// this word-for-word against served frames.
#[allow(clippy::too_many_arguments)]
pub fn solo_schedule_frame(
    ft: &FatTree,
    arena: &mut SchedArena,
    msgs: &[Message],
    conn: u16,
    seq: u32,
    req_id: u64,
    scratch: &mut Vec<u32>,
    out: &mut Vec<u64>,
) {
    let stream = SliceStream::new(msgs, "serve");
    let (nc, _lam) = arena.schedule_assign(ft, &stream, 1, scratch);
    begin_frame(out, FrameKind::Resp, conn, seq);
    out.push(req_id);
    out.push(Engine::Schedule as u64);
    out.push(nc as u64);
    out.push(0);
    let vals = &*scratch;
    pack_u32_pairs(out, vals.len(), |k| vals[k]);
    end_frame(out);
}

/// Compose the `Resp` frame a solo run produces for one online request
/// (same seed, same [`online_config`]).
#[allow(clippy::too_many_arguments)]
pub fn solo_online_frame(
    ft: &FatTree,
    arena: &mut OnlineArena,
    msgs: &[Message],
    seed: u64,
    conn: u16,
    seq: u32,
    req_id: u64,
    out: &mut Vec<u64>,
) {
    let stream = SliceStream::new(msgs, "serve-online");
    let mut rng = SplitMix64::seed_from_u64(seed);
    arena.run_stream(ft, &stream, &mut rng, online_config());
    begin_frame(out, FrameKind::Resp, conn, seq);
    out.push(req_id);
    out.push(Engine::Online as u64);
    out.push(arena.cycles() as u64);
    out.push(arena.truncated() as u64);
    let dpc = arena.delivered_per_cycle();
    pack_u32_pairs(out, dpc.len(), |k| dpc[k] as u32);
    end_frame(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_telemetry::NoopRecorder;

    fn packed(src: u32, dst: u32) -> u64 {
        (src as u64) << 32 | dst as u64
    }

    #[test]
    fn graft_tree_levels_match_solo_profile() {
        let c = ServeCompute::new(64, 16, 8);
        assert_eq!(c.graft.n(), 512);
        assert_eq!(c.graft.height(), c.solo.height() + 3);
        for k in 0..=c.solo.height() {
            assert_eq!(c.graft.cap_at_level(3 + k), c.solo.cap_at_level(k));
        }
        for k in 0..3 {
            assert_eq!(c.graft.cap_at_level(k), 16);
        }
    }

    #[test]
    fn single_request_batch_is_byte_identical_to_solo() {
        let mut c = ServeCompute::new(32, 8, 4);
        let mut b = BatchBuf::new();
        let msgs: Vec<u64> = (0..32u32).map(|i| packed(i, (i * 5 + 1) % 32)).collect();
        let req = ReqView {
            req_id: 7,
            engine: Engine::Schedule,
            seed: 0,
            msgs: &msgs,
        };
        b.admit(9, 3, &req, 32).unwrap();
        c.run(&mut b, &mut NoopRecorder);
        b.encode_responses();
        assert_eq!(b.spans().len(), 1);

        let solo_msgs: Vec<Message> = msgs
            .iter()
            .map(|&w| Message::new((w >> 32) as u32, w as u32))
            .collect();
        let mut arena = SchedArena::new(c.solo());
        let (mut scratch, mut want) = (Vec::new(), Vec::new());
        solo_schedule_frame(
            c.solo(),
            &mut arena,
            &solo_msgs,
            9,
            3,
            7,
            &mut scratch,
            &mut want,
        );
        assert_eq!(b.frame(&b.spans()[0]), &want[..]);
    }

    #[test]
    fn admit_rejects_out_of_range_leaves_atomically() {
        let mut b = BatchBuf::new();
        let msgs = [packed(1, 2), packed(40, 2)];
        let req = ReqView {
            req_id: 1,
            engine: Engine::Schedule,
            seed: 0,
            msgs: &msgs,
        };
        assert!(matches!(
            b.admit(0, 0, &req, 32),
            Err(ServeError::BadLeaf { src: 40, .. })
        ));
        assert!(b.is_empty());
        assert_eq!(b.total_messages(), 0);
    }

    #[test]
    fn has_room_bounds_schedule_slots_only() {
        let mut b = BatchBuf::new();
        let msgs = [packed(0, 1)];
        for i in 0..2 {
            assert!(b.has_room(Engine::Schedule, 2));
            let req = ReqView {
                req_id: i,
                engine: Engine::Schedule,
                seed: 0,
                msgs: &msgs,
            };
            b.admit(0, i as u32, &req, 32).unwrap();
        }
        assert!(!b.has_room(Engine::Schedule, 2));
        assert!(b.has_room(Engine::Online, 2));
    }

    #[test]
    fn pack_u32_pairs_layout() {
        let mut buf = Vec::new();
        pack_u32_pairs(&mut buf, 3, |k| [10u32, 20, 30][k]);
        assert_eq!(buf, vec![10u64 | 20 << 32, 30]);
        buf.clear();
        pack_u32_pairs(&mut buf, 0, |_| unreachable!());
        assert!(buf.is_empty());
    }
}
