//! The shard worker: one subtree's half of the cycle protocol.
//!
//! A worker is a pure request/response state machine over frames — the same
//! [`WorkerCore`] runs as a thread on the link's queues ([`run_channel`],
//! [`crate::transport::Transport::inproc`]) or as a child process on
//! stdin/stdout ([`run_pipe`], `ftsim shard-worker`,
//! [`crate::transport::Transport::pipe`]). It holds the shard's
//! [`SimArena`] between the up and down phases of a cycle, so suspended
//! root-crossers keep their slots while the coordinator arbitrates the top.
//!
//! The worker also *retains the shard's pending set*: `Load` ships the
//! messages once, and each `Cycle` request carries only the arbitration
//! seed plus a verdict bitmap over the previous cycle's exported claims.
//! The worker retires delivered messages itself — its own deliveries when
//! it settles a `Incoming2`, remote deliveries from the bitmap — and
//! FIFO-compacts pending in global-id order, reproducing the coordinator's
//! partition of its pending array exactly.
//!
//! Requests are idempotent and mildly pipelined: the coordinator numbers
//! them sequentially per link and may keep up to two in flight, so the
//! worker caches its last [`REPLAY_CACHE`] logical replies. A replayed
//! sequence number re-sends the cached reply (through fresh fault rolls)
//! instead of re-running the phase; a request ahead of the expected
//! sequence by at most [`PIPELINE_WINDOW`] is dropped silently (its lost
//! predecessor will be retransmitted and order restored); anything further
//! ahead is an unrecoverable desync. Corrupted requests are dropped
//! silently — the coordinator's timeout owns recovery.
//!
//! A frame that passes its checksum is still bytes this process did not
//! write: every value that would index, shift, size or assert inside the
//! arena is checked first, and a request that fails answers an `Error`
//! frame ([`ERR_BAD_PAYLOAD`]). No request can panic [`WorkerCore::step`].

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::proto::{
    ClaimCheck, ClaimsV2, CycleView, InitMsg, LoadMsg, OutcomesView, ERR_BAD_PAYLOAD,
    ERR_NOT_LOADED, ERR_SEQ_DESYNC, ERR_UNINITIALIZED,
};
use crate::wire::{self, Frame, FrameKind};
use ft_core::{FatTree, Message};
use ft_sim::{Arbitration, ShardClaim, SimArena, SimConfig};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// Logical replies kept for replay. Two covers the coordinator's pipeline
/// depth (`Incoming2` of cycle c plus `Cycle` of c+1 in flight at once);
/// four leaves slack for retransmit/duplicate interleavings.
pub const REPLAY_CACHE: usize = 4;

/// How far ahead of the expected sequence a request may arrive and be
/// treated as reordering from a lost predecessor (ignored, recovered by
/// retransmission) rather than a desync error.
pub const PIPELINE_WINDOW: u32 = 2;

/// Post-INIT worker state: the shard's arena and its slice of the tree.
struct ShardState {
    ft: FatTree,
    sim: SimConfig,
    /// Config of the cycle in flight (per-cycle arbitration seed applied by
    /// the last `Cycle`); the following `Incoming2` must use the same seed.
    cycle_cfg: SimConfig,
    boundary: u32,
    arena: SimArena,
    /// Root-crossers exported by the last up phase, in export order
    /// (ascending arbitration id) — the list the next `Cycle` bitmap
    /// indexes.
    claims: Vec<ShardClaim>,
    /// Retained pending set (`Load` received), FIFO in load order.
    loaded: bool,
    /// An up phase ran and its down phase has not: the one state in which
    /// `Incoming2` may append to the arena.
    up_done: bool,
    pending_msgs: Vec<Message>,
    /// Stable per-message keys: each pending message's *original* id (its
    /// position in the `Load` frame), parallel to `pending_msgs`.
    orig_ids: Vec<u32>,
    /// This cycle's arbitration ids (positions in the coordinator's
    /// compacted pending array, from the `Cycle` remap), parallel to
    /// `pending_msgs`. Ascending — a subsequence of the global order.
    cur_ids: Vec<u32>,
    /// Original ids of the last export list, parallel to `claims` — what
    /// the next `Cycle` verdict bitmap retires.
    exported_orig: Vec<u32>,
    /// `pend_flag[orig]` — original id currently in this shard's pending
    /// set. One flag per loaded message.
    pend_flag: Vec<bool>,
    /// Decode scratch for `Incoming2`, and the gate it passes before the
    /// arena sees it.
    incoming: Vec<ShardClaim>,
    check: ClaimCheck,
    /// Remembered from INIT so `step` can (re)arm fault injection.
    plan: FaultPlan,
    shard_idx: u32,
}

/// The transport-agnostic worker state machine.
pub struct WorkerCore {
    state: Option<ShardState>,
    /// Sequence number of the last request processed, once any has been.
    last_seq: Option<u32>,
    /// Recent logical replies, keyed by request sequence (ring of
    /// [`REPLAY_CACHE`] grow-only buffers).
    cache: Vec<(u32, Vec<u64>)>,
    cache_next: usize,
    /// Sequence whose reply is the shutdown acknowledgement, if any —
    /// sending (or re-sending) it ends the worker loop.
    shutdown_seq: Option<u32>,
    /// Fault injection on this worker's outgoing frames.
    faults: Option<FaultState>,
    delay: Option<std::time::Duration>,
    /// Reply frame under composition (reused across steps).
    compose: Vec<u64>,
    /// Outgoing physical frames of the current step (reused, grow-only —
    /// `out_n` live entries).
    out: Vec<Vec<u64>>,
    out_n: usize,
}

impl WorkerCore {
    pub fn new() -> Self {
        WorkerCore {
            state: None,
            last_seq: None,
            cache: Vec::with_capacity(REPLAY_CACHE),
            cache_next: 0,
            shutdown_seq: None,
            faults: None,
            delay: None,
            compose: Vec::new(),
            out: Vec::new(),
            out_n: 0,
        }
    }

    /// Feed one received frame; returns the physical frames to send (after
    /// fault rolls — possibly none, possibly a duplicate) and whether the
    /// worker should exit. The returned slice borrows reusable buffers:
    /// send (or copy) before the next `step`.
    pub fn step(&mut self, words: &[u64]) -> (&[Vec<u64>], bool) {
        self.out_n = 0;
        let frame = match wire::decode(words) {
            Ok(f) => f,
            // Corrupted or malformed: say nothing, let the coordinator's
            // timeout drive a retransmit.
            Err(_) => return (&[], false),
        };
        let expected = self.last_seq.map_or(0, |s| s.wrapping_add(1));
        if let Some(i) = self.cache.iter().position(|(s, _)| *s == frame.seq) {
            // A replay of a request we already answered: the reply frame
            // must have been lost. Re-send it, with fresh fault rolls.
            if let Some(d) = self.delay {
                std::thread::sleep(d);
            }
            let cached = std::mem::take(&mut self.cache[i].1);
            self.roll_faults_into_out(&cached);
            self.cache[i].1 = cached;
            let quit = self.shutdown_seq == Some(frame.seq);
            return (&self.out[..self.out_n], quit);
        }
        if frame.seq != expected {
            if frame.seq.wrapping_sub(expected) as i32 <= 0 {
                // Behind and fallen out of the replay cache: a stale
                // duplicate, ignore.
                return (&[], false);
            }
            if frame.seq - expected <= PIPELINE_WINDOW {
                // Slightly ahead: a pipelined successor overtook a lost
                // request. Drop it — the coordinator retransmits both, in
                // order.
                return (&[], false);
            }
            // Far ahead: a whole exchange window was lost — unrecoverable.
            let shard = frame.shard;
            let seq = frame.seq;
            let mut compose = std::mem::take(&mut self.compose);
            wire::begin_frame(&mut compose, FrameKind::Error, shard, seq);
            compose.push(ERR_SEQ_DESYNC);
            wire::end_frame(&mut compose);
            self.finish_reply(seq, &compose);
            self.compose = compose;
            return (&self.out[..self.out_n], false);
        }
        let shard = frame.shard;
        let seq = frame.seq;
        let mut compose = std::mem::take(&mut self.compose);
        let quit = Self::handle(&mut self.state, &frame, shard, seq, &mut compose);
        if quit {
            self.shutdown_seq = Some(seq);
        }
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        // INIT is the one request that (re)arms fault injection.
        if let FrameKind::Init = frame.kind {
            if let Some(st) = &self.state {
                let plan = st.plan;
                self.faults =
                    (!plan.is_none()).then(|| FaultState::new(plan, st.shard_idx as u64 * 2 + 1));
                self.delay = self.faults.as_ref().and_then(|f| f.delay());
            }
        }
        self.finish_reply(seq, &compose);
        self.compose = compose;
        (&self.out[..self.out_n], quit)
    }

    /// Record the composed frame as the logical answer to `seq` (entering
    /// the replay cache) and roll send faults into the out list.
    fn finish_reply(&mut self, seq: u32, frame: &[u64]) {
        self.last_seq = Some(seq);
        if self.cache.len() < REPLAY_CACHE {
            self.cache.push((seq, frame.to_vec()));
        } else {
            let slot = &mut self.cache[self.cache_next];
            slot.0 = seq;
            slot.1.clear();
            slot.1.extend_from_slice(frame);
        }
        self.cache_next = (self.cache_next + 1) % REPLAY_CACHE;
        self.roll_faults_into_out(frame);
    }

    fn roll_faults_into_out(&mut self, logical: &[u64]) {
        match &mut self.faults {
            None => {
                // Healthy link: straight copy into a reused out slot.
                Self::push_out(&mut self.out, &mut self.out_n, logical);
            }
            Some(fs) => {
                let mut copy = logical.to_vec();
                match fs.next(&mut copy) {
                    SendFate::Drop => {}
                    SendFate::Send => Self::push_out(&mut self.out, &mut self.out_n, &copy),
                    SendFate::SendTwice => {
                        Self::push_out(&mut self.out, &mut self.out_n, &copy);
                        Self::push_out(&mut self.out, &mut self.out_n, &copy);
                    }
                }
            }
        }
    }

    fn push_out(out: &mut Vec<Vec<u64>>, out_n: &mut usize, frame: &[u64]) {
        if *out_n == out.len() {
            out.push(Vec::new());
        }
        let slot = &mut out[*out_n];
        slot.clear();
        slot.extend_from_slice(frame);
        *out_n += 1;
    }

    /// Execute a fresh request, composing the complete reply frame into
    /// `compose`. Returns whether this was an acknowledged shutdown.
    fn handle(
        state: &mut Option<ShardState>,
        frame: &Frame<'_>,
        shard: u16,
        seq: u32,
        compose: &mut Vec<u64>,
    ) -> bool {
        let error = |compose: &mut Vec<u64>, code: u64| {
            wire::begin_frame(compose, FrameKind::Error, shard, seq);
            compose.push(code);
            wire::end_frame(compose);
            false
        };
        match frame.kind {
            FrameKind::Init => {
                let init = match InitMsg::decode(frame.payload) {
                    Ok(i) => i,
                    Err(_) => return error(compose, ERR_BAD_PAYLOAD),
                };
                let ft = init.tree();
                let arena = SimArena::new(&ft, &init.sim);
                *state = Some(ShardState {
                    cycle_cfg: init.sim,
                    sim: init.sim,
                    boundary: init.boundary,
                    arena,
                    check: ClaimCheck::new(&ft, init.boundary),
                    ft,
                    claims: Vec::new(),
                    loaded: false,
                    up_done: false,
                    pending_msgs: Vec::new(),
                    orig_ids: Vec::new(),
                    cur_ids: Vec::new(),
                    exported_orig: Vec::new(),
                    pend_flag: Vec::new(),
                    incoming: Vec::new(),
                    plan: init.plan,
                    shard_idx: init.shard,
                });
                wire::begin_frame(compose, FrameKind::InitAck, shard, seq);
                compose.push(wire::PROTO_VERSION as u64);
                wire::end_frame(compose);
                false
            }
            FrameKind::Load => {
                let st = match state {
                    Some(s) => s,
                    None => return error(compose, ERR_UNINITIALIZED),
                };
                let load = match LoadMsg::decode(frame.payload) {
                    Ok(l) => l,
                    Err(_) => return error(compose, ERR_BAD_PAYLOAD),
                };
                // The up passes index per-leaf and per-node tables by these
                // endpoints: both on the tree, the source under this
                // shard's boundary node.
                let (n, check, me) = (st.ft.n(), &st.check, st.shard_idx);
                let inside =
                    |m: &Message| m.src.0 < n && m.dst.0 < n && check.owns(me, n + m.src.0);
                if !load.msgs.iter().all(inside) {
                    return error(compose, ERR_BAD_PAYLOAD);
                }
                // Keyed by position in this frame, not by the wire's ids:
                // the table is as long as what arrived. The first `Cycle`
                // remap supplies the arbitration ids.
                let count = load.msgs.len();
                st.pend_flag.clear();
                st.pend_flag.resize(count, true);
                st.orig_ids.clear();
                st.orig_ids.extend(0..count as u32);
                st.cur_ids.clear();
                st.pending_msgs = load.msgs;
                st.claims.clear();
                st.exported_orig.clear();
                st.loaded = true;
                st.up_done = false;
                wire::begin_frame(compose, FrameKind::LoadAck, shard, seq);
                wire::end_frame(compose);
                false
            }
            FrameKind::Cycle => {
                let st = match state {
                    Some(s) => s,
                    None => return error(compose, ERR_UNINITIALIZED),
                };
                if !st.loaded {
                    return error(compose, ERR_NOT_LOADED);
                }
                let cv = match CycleView::parse(frame.payload) {
                    Ok(c) => c,
                    Err(_) => return error(compose, ERR_BAD_PAYLOAD),
                };
                if cv.verdicts as usize != st.exported_orig.len() {
                    return error(compose, ERR_BAD_PAYLOAD);
                }
                // Retire exports the rest of the machine delivered last
                // cycle; clear bits stay pending and retry.
                for i in 0..cv.verdicts as usize {
                    if cv.bit(i) {
                        st.pend_flag[st.exported_orig[i] as usize] = false;
                    }
                }
                // FIFO compaction — together with the local retirements
                // from the last settle, this reproduces the coordinator's
                // compaction restricted to this shard's messages, so the
                // remap aligns positionally.
                let mut w = 0usize;
                for i in 0..st.orig_ids.len() {
                    if st.pend_flag[st.orig_ids[i] as usize] {
                        st.pending_msgs[w] = st.pending_msgs[i];
                        st.orig_ids[w] = st.orig_ids[i];
                        w += 1;
                    }
                }
                st.pending_msgs.truncate(w);
                st.orig_ids.truncate(w);
                if cv.nids as usize != w {
                    return error(compose, ERR_BAD_PAYLOAD);
                }
                // Ascending, as positions in the coordinator's array are: the
                // export walk below and the settle's binary search lean on it.
                st.cur_ids.clear();
                st.cur_ids.extend((0..w).map(|i| cv.id(i)));
                if st.cur_ids.windows(2).any(|p| p[0] >= p[1]) {
                    return error(compose, ERR_BAD_PAYLOAD);
                }
                st.cycle_cfg = st.sim;
                if let Arbitration::Random(_) = st.sim.arbitration {
                    st.cycle_cfg.arbitration = Arbitration::Random(cv.arb_seed);
                }
                let t0 = Instant::now();
                st.claims.clear();
                st.arena.shard_up(
                    &st.ft,
                    &st.pending_msgs,
                    &st.cur_ids,
                    &st.cycle_cfg,
                    st.boundary,
                    &mut st.claims,
                );
                let ns = t0.elapsed().as_nanos() as u64;
                st.up_done = true;
                // Remember which originals we exported: claims and
                // `cur_ids` are both ascending, so one merge walk maps
                // arbitration id → pending position → original id.
                st.exported_orig.clear();
                let mut pos = 0usize;
                for c in &st.claims {
                    while st.cur_ids[pos] != c.id {
                        pos += 1;
                    }
                    st.exported_orig.push(st.orig_ids[pos]);
                }
                wire::begin_frame(compose, FrameKind::Claims2, shard, seq);
                ClaimsV2::encode_into(compose, ns, &st.claims);
                wire::end_frame(compose);
                false
            }
            FrameKind::Incoming2 => {
                let st = match state {
                    Some(s) => s,
                    None => return error(compose, ERR_UNINITIALIZED),
                };
                // A second descent would re-enter the first one's claims.
                if !std::mem::take(&mut st.up_done) {
                    return error(compose, ERR_NOT_LOADED);
                }
                st.incoming.clear();
                if ClaimsV2::decode_into(frame.payload, &mut st.incoming).is_err()
                    || st.check.check(&st.incoming, st.shard_idx, false).is_err()
                {
                    return error(compose, ERR_BAD_PAYLOAD);
                }
                let t0 = Instant::now();
                let stats = st
                    .arena
                    .shard_down(&st.ft, &st.cycle_cfg, st.boundary, &st.incoming);
                let ns = t0.elapsed().as_nanos() as u64;
                // Retire this shard's own deliveries. Delivered ids are
                // arbitration ids: the ones in `cur_ids` are this shard's
                // pending messages (locals that delivered here); the rest
                // are incoming claims, which belong to their *source*
                // shard's pending and are retired there via the verdict
                // bitmap.
                for &id in st.arena.delivered_indices() {
                    if let Ok(pos) = st.cur_ids.binary_search(&id) {
                        st.pend_flag[st.orig_ids[pos] as usize] = false;
                    }
                }
                wire::begin_frame(compose, FrameKind::Outcomes, shard, seq);
                OutcomesView::encode_into(compose, ns, stats.ticks, st.arena.delivered_indices());
                wire::end_frame(compose);
                false
            }
            FrameKind::Shutdown => {
                wire::begin_frame(compose, FrameKind::ShutdownAck, shard, seq);
                wire::end_frame(compose);
                true
            }
            // Response kinds arriving as requests: a confused peer.
            _ => error(compose, ERR_BAD_PAYLOAD),
        }
    }
}

impl Default for WorkerCore {
    fn default() -> Self {
        WorkerCore::new()
    }
}

/// Worker loop on the link's queues ([`crate::transport::Transport::inproc`]).
/// Replies are tagged with the shard's link index so the coordinator can
/// multiplex every worker onto one receive queue. Exits when the request
/// channel closes, the response channel closes, or a shutdown is
/// acknowledged.
pub fn run_channel(shard: usize, rx: Receiver<Vec<u64>>, tx: Sender<(usize, Vec<u64>)>) {
    let mut core = WorkerCore::new();
    while let Ok(words) = rx.recv() {
        let (replies, quit) = core.step(&words);
        for f in replies {
            if tx.send((shard, f.clone())).is_err() {
                return;
            }
        }
        if quit {
            return;
        }
    }
}

/// Worker loop over a little-endian byte stream (`ftsim shard-worker` on
/// stdin/stdout). Returns on clean EOF or acknowledged shutdown; propagates
/// stream errors (torn frames, closed pipes).
pub fn run_pipe<R: std::io::Read, W: std::io::Write>(mut r: R, mut w: W) -> std::io::Result<()> {
    let mut core = WorkerCore::new();
    let mut bytes = Vec::new();
    while let Some(words) = wire::read_frame(&mut r)? {
        let (replies, quit) = core.step(&words);
        for f in replies {
            wire::write_frame_buf(&mut w, f, &mut bytes)?;
        }
        if quit {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ft_core::{CapacityProfile, Message};

    fn init_frame(seq: u32) -> Vec<u64> {
        let init = InitMsg {
            n: 16,
            boundary: 1,
            shard: 0,
            proto: wire::PROTO_VERSION,
            sim: SimConfig::default(),
            plan: FaultPlan::none(),
            profile: CapacityProfile::FullDoubling,
        };
        wire::encode(FrameKind::Init, 0, seq, &init.encode())
    }

    #[test]
    fn load_cycle_retains_and_retires_pending() {
        let mut core = WorkerCore::new();
        core.step(&init_frame(0));

        // Load the shard's pending set once.
        let msgs = [Message::new(0, 7), Message::new(3, 4)];
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 2, &[0, 1], &msgs);
        let req = wire::encode(FrameKind::Load, 0, 1, &p);
        let (out, _) = core.step(&req);
        assert_eq!(wire::decode(&out[0]).unwrap().kind, FrameKind::LoadAck);

        // Cycle 0: empty verdict bitmap, both messages are intra-shard.
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 0, 0, 0, &[], &[0, 1]);
        let req = wire::encode(FrameKind::Cycle, 0, 2, &p);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        assert_eq!(f.kind, FrameKind::Claims2);
        let mut claims = Vec::new();
        ClaimsV2::decode_into(f.payload, &mut claims).unwrap();
        assert!(claims.is_empty(), "intra-shard traffic never crosses");

        // Settle: both deliver; the worker retires them from its pending.
        let mut p = Vec::new();
        ClaimsV2::encode_into(&mut p, 0, &[]);
        let req = wire::encode(FrameKind::Incoming2, 0, 3, &p);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        assert_eq!(f.kind, FrameKind::Outcomes);
        let v = crate::proto::OutcomesView::parse(f.payload).unwrap();
        assert_eq!(v.delivered.len(), 2);

        // Next cycle: nothing pending — the up phase exports nothing and
        // the pending set is empty without the coordinator re-sending it.
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 1, 0, 0, &[], &[]);
        let req = wire::encode(FrameKind::Cycle, 0, 4, &p);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        let mut claims = Vec::new();
        ClaimsV2::decode_into(f.payload, &mut claims).unwrap();
        assert!(claims.is_empty());
    }

    #[test]
    fn cycle_requires_load_and_validates_bitmap() {
        let mut core = WorkerCore::new();
        core.step(&init_frame(0));
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 0, 0, 0, &[], &[]);
        let req = wire::encode(FrameKind::Cycle, 0, 1, &p);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        assert_eq!(f.kind, FrameKind::Error);
        assert_eq!(f.payload, &[ERR_NOT_LOADED]);

        // Loaded, but the bitmap claims more exports than exist.
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 0, &[], &[]);
        let req = wire::encode(FrameKind::Load, 0, 2, &p);
        core.step(&req);
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 0, 0, 3, &[0], &[]);
        let req = wire::encode(FrameKind::Cycle, 0, 3, &p);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        assert_eq!(f.kind, FrameKind::Error);
        assert_eq!(f.payload, &[ERR_BAD_PAYLOAD]);
    }

    #[test]
    fn replayed_request_resends_cached_reply_without_reexecution() {
        let mut core = WorkerCore::new();
        core.step(&init_frame(0));
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 1, &[0], &[Message::new(1, 2)]);
        core.step(&wire::encode(FrameKind::Load, 0, 1, &p));
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 0, 0, 0, &[], &[0]);
        let cycle = wire::encode(FrameKind::Cycle, 0, 2, &p);
        let first = {
            let (out, _) = core.step(&cycle);
            out.to_vec()
        };
        // Re-executing the cycle would compose a different reply: `Claims2`
        // carries the up phase's measured compute time.
        let (replay, _) = core.step(&cycle);
        assert_eq!(first, replay, "replay must return the identical frame");
    }

    #[test]
    fn replay_cache_covers_pipelined_predecessors() {
        // Answer seqs 0..=2, then replay seq 1 (not the newest): the cache
        // must still hold it.
        let mut core = WorkerCore::new();
        core.step(&init_frame(0));
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 0, &[], &[]);
        let load = wire::encode(FrameKind::Load, 0, 1, &p);
        let load_reply = {
            let (out, _) = core.step(&load);
            out.to_vec()
        };
        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 0, 0, 0, &[], &[]);
        let req = wire::encode(FrameKind::Cycle, 0, 2, &p);
        core.step(&req);
        let (replay, _) = core.step(&load);
        assert_eq!(load_reply, replay);
    }

    #[test]
    fn uninitialized_and_desynced_requests_error() {
        let mut core = WorkerCore::new();
        let mut load = Vec::new();
        LoadMsg::encode_into(&mut load, 0, &[], &[]);
        let mut cycle = Vec::new();
        CycleView::encode_into(&mut cycle, 0, 0, 0, &[], &[]);
        let mut incoming = Vec::new();
        ClaimsV2::encode_into(&mut incoming, 0, &[]);
        for (seq, (kind, payload)) in [
            (FrameKind::Load, &load),
            (FrameKind::Cycle, &cycle),
            (FrameKind::Incoming2, &incoming),
        ]
        .into_iter()
        .enumerate()
        {
            let req = wire::encode(kind, 0, seq as u32, payload);
            let (out, _) = core.step(&req);
            let f = wire::decode(&out[0]).unwrap();
            assert_eq!(f.kind, FrameKind::Error, "{kind:?}");
            assert_eq!(f.payload, &[ERR_UNINITIALIZED], "{kind:?}");
        }

        let mut core = WorkerCore::new();
        core.step(&init_frame(0));
        // Seq jumps from 0 to 5 — beyond the pipeline window: a whole
        // exchange window was lost.
        let req = wire::encode(FrameKind::Shutdown, 0, 5, &[]);
        let (out, _) = core.step(&req);
        let f = wire::decode(&out[0]).unwrap();
        assert_eq!(f.kind, FrameKind::Error);
        assert_eq!(f.payload, &[ERR_SEQ_DESYNC]);
    }

    /// Play `script` to one fresh worker, seq 0 upward: each request must
    /// answer an `Error` frame carrying its code, or (code 0) any other kind.
    fn play(script: &[(FrameKind, &[u64], u64)]) {
        let mut core = WorkerCore::new();
        for (seq, &(kind, p, code)) in script.iter().enumerate() {
            let (out, quit) = core.step(&wire::encode(kind, 0, seq as u32, p));
            let f = wire::decode(&out[0]).unwrap();
            let refused = f.kind == FrameKind::Error && f.payload == [code];
            assert!(
                !quit && refused == (code != 0),
                "{seq}: {kind:?} {p:?} -> {f:?}"
            );
        }
    }

    #[test]
    fn checksummed_nonsense_is_refused_not_run() {
        use FrameKind::{Cycle, Incoming2, Init, Load};
        // Every INIT here panicked the worker (tree or arena assertion,
        // `capacity overflow`) before `InitMsg::decode` validated it.
        let pristine = init_frame(0);
        let with = |at: usize, v: u64| {
            let mut p = wire::decode(&pristine).unwrap().payload.to_vec();
            p[at] = v;
            p
        };
        let table = |caps: &[u64]| {
            let mut p = with(14, 3)[..17].to_vec();
            p[15] = caps.len() as u64;
            p.extend_from_slice(caps);
            p
        };
        let mut bad: Vec<Vec<u64>> = [0, 1, 100, 1 << 27, (1 << 32) + 16]
            .map(|n| with(0, n))
            .into();
        bad.extend([
            with(1, 40),
            with(2, 2 | 2 << 32),
            with(7, f64::NAN.to_bits()),
        ]);
        // A per-level table one short of lg n + 1 entries, one holding a
        // zero, and (profile 1 reads word 15) a constant capacity of 2^40.
        bad.extend([table(&[8, 4, 2, 1]), table(&[8, 4, 2, 0, 1])]);
        bad.push(with(14, 1));
        bad.last_mut().unwrap()[15] = 1 << 40;
        for p in &bad {
            play(&[(Init, p, ERR_BAD_PAYLOAD)]);
        }

        // Shard 0 of two on 16 leaves owns processors 0..8, leaves 16..24.
        let mut load = Vec::new();
        let msgs = [Message::new(0, 9), Message::new(1, 8)];
        LoadMsg::encode_into(&mut load, u32::MAX, &[7, 9], &msgs);
        let (mut unsorted, mut sorted) = (Vec::new(), Vec::new());
        CycleView::encode_into(&mut unsorted, 0, 0, 0, &[], &[5, 5]);
        CycleView::encode_into(&mut sorted, 0, 0, 0, &[], &[0, 1]);
        play(&[
            (Init, &table(&[8, 4, 2, 1, 1]), 0),
            // A count that wraps the length check, a source in the other
            // shard, a destination off the tree.
            (Load, &[0, 1 << 63], ERR_BAD_PAYLOAD),
            (Load, &[1, 1, 0, 9 << 32 | 1], ERR_BAD_PAYLOAD),
            (Load, &[1, 1, 0, 1 << 32 | 16], ERR_BAD_PAYLOAD),
            // A global count of u32::MAX is accepted and sizes nothing.
            (Load, &load, 0),
            (Incoming2, &[0, 0], ERR_NOT_LOADED),
            (Cycle, &unsorted, ERR_BAD_PAYLOAD),
            (Cycle, &sorted, 0),
            // An incoming claim bound for leaf 25, the other shard's: the
            // down pass would index past this shard's slot table.
            (Incoming2, &[0, 1, 0, 25 << 34 | 16 << 6], ERR_BAD_PAYLOAD),
        ]);
    }

    #[test]
    fn slightly_ahead_requests_are_dropped_for_retransmission() {
        let mut core = WorkerCore::new();
        core.step(&init_frame(0));
        // Expected seq is 1; seq 2 is within the pipeline window — the
        // worker stays silent and recovers when 1 is retransmitted.
        let req2 = wire::encode(FrameKind::Shutdown, 0, 2, &[]);
        let (out, quit) = core.step(&req2);
        assert!(out.is_empty() && !quit);
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 0, &[], &[]);
        let req1 = wire::encode(FrameKind::Load, 0, 1, &p);
        let (out, _) = core.step(&req1);
        assert_eq!(wire::decode(&out[0]).unwrap().kind, FrameKind::LoadAck);
        let (out, quit) = core.step(&req2);
        assert!(quit);
        assert_eq!(wire::decode(&out[0]).unwrap().kind, FrameKind::ShutdownAck);
    }

    #[test]
    fn corrupted_request_is_silently_ignored() {
        let mut core = WorkerCore::new();
        let mut f = init_frame(0);
        let last = f.len() - 1;
        f[last] ^= 1;
        let (out, quit) = core.step(&f);
        assert!(out.is_empty() && !quit);
        // The pristine retransmit still works.
        let (out, _) = core.step(&init_frame(0));
        assert_eq!(wire::decode(&out[0]).unwrap().kind, FrameKind::InitAck);
    }
}
