//! [`SchedArena`]: the flat, buffer-reusing engine behind Theorem 1.
//!
//! The clone-based scheduler in [`crate::reference`] (and the first
//! incremental rewrite it was pinned against) materializes a `Vec<Message>`
//! per LCA bucket and fresh index vectors, mate tables and `Q₀`/`Q₁` lists
//! at every level of the split recursion. On large trees the deep levels
//! degenerate into ~`3n/2` tiny buckets, so those allocations dominate the
//! schedule time. This module rebuilds the pipeline the way `ft-sim`'s
//! `SimArena` rebuilt delivery cycles:
//!
//! * **One-pass bucketing by permutation.** The source is read once, in
//!   `fill` chunks, into flat source/destination leaf arrays in input order
//!   while the bucket key `2·lca + direction` (the LCA's child on the source
//!   side) is tallied. A counting sort, its cursors the bucket offsets filled
//!   shifted by one, writes the index array as the stable bucket permutation
//!   of those positions, so no message is copied and each bucket lists its
//!   messages in input order, like the reference's lr/rl `partition`.
//! * **In-place refinement.** The split recursion permutes one global index
//!   array; a segment `[s, e)` of it *is* a subset, so no recursion level
//!   allocates. Feasible segments become parts recorded as end offsets, and
//!   each level's cycles are sized from the part table before any is filled.
//! * **Sort-free matching-and-tracing.** Both inner kernels are sweeps over
//!   one heap-indexed `u32` table that is all zero between calls. The
//!   matching pairs ends inside a processor in one pass over the segment
//!   (at a leaf, the table holds 1 + the position of the end waiting
//!   there), then lets the ≤ 1 leftover per leaf climb one tree level per
//!   round: two survivors that meet under a node are mated, a lone one
//!   moves up. The feasibility walk counts ends per leaf and pushes the
//!   counts up over the touched nodes only, keeping one max load per level,
//!   and never branches on a count. Same partition as
//!   [`crate::split::split_even_indices`] (equivalence arguments in
//!   DESIGN.md §9), zero steady-state allocation (`tests/alloc_steady.rs`).
//! * **No slot table.** Non-locals keep input order, so `schedule_assign`
//!   writes cycles by position and spreads them to their slots back to
//!   front, in place (a slot is never below its position).
//! * **Deterministic fan-out.** Distinct LCA nodes at one tree level own
//!   disjoint messages and channels, so per-node work is sharded over scoped
//!   threads by chunking the bucket range — like the simulator's per-subtree
//!   arbitration. Parts are gathered serially in (node, direction) order, so
//!   the schedule is byte-identical for any thread count (enforced by
//!   `tests/golden_splitter.rs`).

use crate::offline::Theorem1Stats;
use crate::schedule::Schedule;
use crate::split::CrossDirection;
use ft_core::{for_each_message, FatTree, LoadTally, Message, MessageSet, MessageStream};
use ft_telemetry::{EnginePhase, NoopRecorder, PhaseClock, Recorder};

const NONE: u32 = u32::MAX;

/// Bucket key of a message between distinct heap leaves `u` and `v`. Both
/// sit at the same depth, so shifting past their highest differing bit
/// lands on the child of the LCA holding the source leaf: `2·lca +
/// direction` (even = left child = LeftToRight, odd = RightToLeft).
#[inline]
fn bucket_key(u: u32, v: u32) -> u32 {
    u >> (31 - (u ^ v).leading_zeros())
}

/// Sink for the scheduler's emission pass. The refinement is emission-
/// agnostic; what varies is what a delivery-cycle placement *becomes*:
/// [`BuildSchedule`] materializes the classic [`Schedule`] (one
/// `MessageSet` per cycle), [`AssignCycles`] writes a per-input-slot cycle
/// id into a caller-owned flat buffer without materializing anything —
/// the zero-allocation path `ft-serve`'s request loop runs on.
trait Emit {
    /// The next `lens.len()` delivery cycles will receive `lens[t]`
    /// messages each (locals included), before any of them is placed.
    fn sized(&mut self, lens: &[u32]);
    /// The `pos`-th non-local input message, `msg`, placed into delivery
    /// cycle `cycle`, one already announced by [`Emit::sized`].
    fn place(&mut self, cycle: u32, pos: u32, msg: Message);
    /// Local messages (zero load) at ascending input `slots`, attached
    /// after every placement: they ride in cycle 0, or form a lone cycle 0
    /// when the schedule is otherwise empty (`lone`).
    fn locals(&mut self, locals: &[Message], slots: &[u32], lone: bool);
}

/// Builds the classic [`Schedule`], byte-identical to the historical
/// emission loop (cycle sets filled in bucket order, locals appended to
/// cycle 0 last), each cycle allocated once at its exact size.
#[derive(Default)]
struct BuildSchedule {
    cycles: Vec<MessageSet>,
}

impl Emit for BuildSchedule {
    fn sized(&mut self, lens: &[u32]) {
        let sets = lens.iter().map(|&l| MessageSet::with_capacity(l as usize));
        self.cycles.extend(sets);
    }

    fn place(&mut self, cycle: u32, _pos: u32, msg: Message) {
        self.cycles[cycle as usize].push(msg);
    }

    fn locals(&mut self, locals: &[Message], _slots: &[u32], lone: bool) {
        if lone {
            self.cycles.push(MessageSet::from_vec(locals.to_vec()));
        } else {
            for &msg in locals {
                self.cycles[0].push(msg);
            }
        }
    }
}

/// Writes `out[slot] = cycle` for every input slot (by position, then
/// spread by [`Emit::locals`]); local slots get cycle 0.
struct AssignCycles<'a> {
    out: &'a mut [u32],
}

impl Emit for AssignCycles<'_> {
    fn sized(&mut self, _lens: &[u32]) {}

    fn place(&mut self, cycle: u32, pos: u32, _msg: Message) {
        self.out[pos as usize] = cycle;
    }

    /// The non-locals between local `k` and the next sit `k + 1` places
    /// left of their slots; moving the runs back to front reads only places
    /// left of every slot written so far.
    fn locals(&mut self, _locals: &[Message], slots: &[u32], _lone: bool) {
        let mut hi = self.out.len();
        for (k, &s) in slots.iter().enumerate().rev() {
            let s = s as usize;
            self.out.copy_within(s - k..hi - k - 1, s + 1);
            self.out[s] = 0;
            hi = s;
        }
    }
}

/// Shared read-only state for one level's refinement, so worker methods
/// stay within clippy's argument budget.
struct LevelCtx<'a> {
    ft: &'a FatTree,
    bucket_off: &'a [u32],
    sleaf: &'a [u32],
    dleaf: &'a [u32],
}

/// Per-thread scratch: everything one worker needs to refine a contiguous
/// range of buckets. The node table is sized once; the rest is grow-only.
#[derive(Default)]
struct Worker {
    /// Heap-indexed (`2n`), all zero between calls: segment ends under a
    /// node while [`Worker::walk_classify`] sweeps, 1 + the position of the
    /// end waiting at a node while [`match_side`] climbs (never both).
    per_node: Vec<u32>,
    /// The nodes of the tree level either sweep currently stands on.
    front: Vec<u32>,
    mate_src: Vec<u32>,
    mate_dst: Vec<u32>,
    assigned: Vec<u8>,
    q0: Vec<u32>,
    q1: Vec<u32>,
    /// DFS stack of `(start, end, depth, dinf, dfeas)` index segments;
    /// depth is relative to the walk that produced the `dinf`/`dfeas`
    /// classification bounds (see [`Worker::refine_bucket`]).
    stack: Vec<(u32, u32, u32, u32, u32)>,
    /// Absolute part-end offsets for this worker's buckets, in bucket order.
    parts: Vec<u32>,
    /// Part count per bucket in this worker's chunk (0 for empty buckets).
    nparts: Vec<u32>,
}

impl Worker {
    fn new(ft: &FatTree) -> Self {
        let nodes = 2 * ft.n() as usize;
        Worker {
            per_node: vec![0; nodes],
            ..Worker::default()
        }
    }

    /// Refine every bucket in `[key_lo, key_hi)`. `idx_chunk` is the slice
    /// of the global index array covering exactly those buckets and `base`
    /// its absolute offset.
    fn run_level(&mut self, ctx: &LevelCtx, key_lo: u32, key_hi: u32, idx_chunk: &mut [u32]) {
        self.parts.clear();
        self.nparts.clear();
        let base = ctx.bucket_off[key_lo as usize];
        for key in key_lo..key_hi {
            let s = ctx.bucket_off[key as usize] - base;
            let e = ctx.bucket_off[key as usize + 1] - base;
            if s == e {
                self.nparts.push(0);
                continue;
            }
            let np = self.refine_bucket(
                ctx,
                key >> 1,
                &mut idx_chunk[s as usize..e as usize],
                base + s,
            );
            self.nparts.push(np);
        }
    }

    /// The Theorem-1 split loop: repeatedly halve the bucket's index segment
    /// until every part is a one-cycle message set. Parts are emitted as
    /// absolute end offsets in increasing order (the DFS visits `Q₀` before
    /// `Q₁`, and each split writes `Q₀` ahead of `Q₁` in place), matching
    /// the reference's part order exactly.
    ///
    /// Feasibility is decided mostly without walking: an even split leaves
    /// each channel's load in a child at `⌊L/2⌋` or `⌈L/2⌉`, so after `d`
    /// splits every descendant's load on channel `c` lies in
    /// `[⌊L(c)/2^d⌋, ⌈L(c)/2^d⌉]`. One walk therefore classifies whole
    /// depth ranges: depths `≤ dinf` are certainly infeasible (split without
    /// walking), depths `≥ dfeas` certainly feasible (emit without walking),
    /// and only the narrow band in between re-walks for exact loads. The
    /// decisions agree with the reference's per-segment `is_one_cycle`
    /// check at every segment, so the output is byte-identical (pinned by
    /// `tests/golden_scheduler.rs`).
    fn refine_bucket(
        &mut self,
        ctx: &LevelCtx,
        node: u32,
        idx_seg: &mut [u32],
        abs_base: u32,
    ) -> u32 {
        let mut np = 0u32;
        self.stack.clear();
        // (start, end, depth-below-last-walk, dinf, dfeas); the sentinel
        // bounds force a walk at the root segment.
        self.stack.push((0, idx_seg.len() as u32, 1, 0, u32::MAX));
        while let Some((s, e, mut d, mut dinf, mut dfeas)) = self.stack.pop() {
            let m = (e - s) as usize;
            // A single message always fits: it loads each of its channels
            // once and every capacity profile is clamped to ≥ 1 wire.
            if m == 1 || d >= dfeas {
                self.parts.push(abs_base + e);
                np += 1;
                continue;
            }
            if d > dinf {
                // Undetermined: the bounds straddle some capacity. Get
                // exact loads and re-classify from this segment down.
                let (ndinf, ndfeas) =
                    self.walk_classify(ctx, node, &idx_seg[s as usize..e as usize]);
                if ndfeas == 0 {
                    self.parts.push(abs_base + e);
                    np += 1;
                    continue;
                }
                (d, dinf, dfeas) = (0, ndinf, ndfeas);
            }
            if m == 2 {
                // Two messages split into `[first]`, `[second]`: the trace takes
                // string 0 forward and hops to string 1 at its destination end.
                self.parts.extend([abs_base + s + 1, abs_base + e]);
                np += 2;
                continue;
            }
            self.split_segment(ctx.sleaf, ctx.dleaf, &idx_seg[s as usize..e as usize]);
            debug_assert!(
                self.q0.len() < m || !self.q1.is_empty(),
                "split must make progress"
            );
            // Write Q₀ then Q₁ back into the segment.
            let q0n = self.q0.len() as u32;
            idx_seg[s as usize..(s + q0n) as usize].copy_from_slice(&self.q0);
            idx_seg[(s + q0n) as usize..e as usize].copy_from_slice(&self.q1);
            self.stack.push((s + q0n, e, d + 1, dinf, dfeas));
            self.stack.push((s, s + q0n, d + 1, dinf, dfeas));
        }
        np
    }

    /// Exact loads of the segment, classified into split depths. Every
    /// message's LCA is `node`, so a channel below `node` carries one unit
    /// per segment end under it: count ends per leaf, then push the counts
    /// up one level per round over the touched nodes only (source and
    /// destination ends sit under different children of `node`, so one
    /// table serves both directions). Capacities are per level and both
    /// bounds are monotone in the load: each level's heaviest channel decides.
    ///
    /// Returns `(dinf, dfeas)`: depths `d ≤ dinf` have some channel with
    /// `⌊L/2^d⌋ > cap` (every depth-`d` descendant infeasible) and depths
    /// `d ≥ dfeas` have `⌈L/2^d⌉ ≤ cap` on all channels (every depth-`d`
    /// descendant feasible). `dfeas == 0` means the segment itself is a
    /// one-cycle set. `dinf < dfeas` always holds. No step branches on a
    /// count: each node is written to `front`, kept only if it was new.
    fn walk_classify(&mut self, ctx: &LevelCtx, node: u32, seg: &[u32]) -> (u32, u32) {
        let (cnt, front) = (&mut self.per_node, &mut self.front);
        front.clear();
        front.resize(2 * seg.len(), 0);
        let mut kept = 0;
        for &id in seg {
            for lf in [ctx.sleaf[id as usize], ctx.dleaf[id as usize]] {
                front[kept] = lf;
                kept += (cnt[lf as usize] == 0) as usize;
                cnt[lf as usize] += 1;
            }
        }
        front.truncate(kept);
        let mut dinf = 0u32;
        let mut dfeas = 0u32;
        let mut level = ctx.ft.height();
        while front[0] != node {
            let mut max = 0u32;
            let mut kept = 0;
            for r in 0..front.len() {
                let u = front[r] as usize;
                let c = std::mem::take(&mut cnt[u]);
                max = max.max(c);
                front[kept] = (u >> 1) as u32;
                kept += (cnt[u >> 1] == 0) as usize;
                cnt[u >> 1] += c;
            }
            front.truncate(kept);
            let (l, cap) = (max as u64, ctx.ft.cap_at_level(level));
            if l > cap {
                // Smallest d with cap·2^d ≥ l: ceil(log2(ceil(l / cap))).
                let q = l.div_ceil(cap);
                dfeas = dfeas.max(64 - (q - 1).leading_zeros());
                // Largest d with l / 2^d > cap: floor(log2(l / (cap + 1))).
                let r = l / (cap + 1);
                if r >= 1 {
                    dinf = dinf.max(63 - r.leading_zeros());
                }
            }
            level -= 1;
        }
        cnt[node as usize] = 0;
        (dinf, dfeas)
    }

    /// One even split of `idx_seg` (≥ 2 entries): the §III matching and the
    /// alternating tracing pass, over flat index arrays. Results land in
    /// `self.q0` / `self.q1` as the *entries* of `idx_seg` in traced order,
    /// so write-back is a pair of plain copies; the induced partition is
    /// identical to [`crate::split::split_even_indices`] on the
    /// materialized segment.
    fn split_segment(&mut self, sleaf: &[u32], dleaf: &[u32], idx_seg: &[u32]) {
        let m = idx_seg.len();
        debug_assert!(m >= 2);

        // ---- Matching (per side) ----
        let Worker {
            per_node,
            front,
            mate_src,
            mate_dst,
            ..
        } = self;
        let unmatched_src = match_side(per_node, front, mate_src, idx_seg, sleaf);
        match_side(per_node, front, mate_dst, idx_seg, dleaf);

        // ---- Tracing ----
        self.assigned.clear();
        self.assigned.resize(m, 0);
        self.q0.clear();
        self.q1.clear();
        let mut next_start = 0u32;
        let mut cur = unmatched_src;
        loop {
            let i = if cur != NONE && self.assigned[cur as usize] == 0 {
                std::mem::replace(&mut cur, NONE)
            } else {
                cur = NONE;
                // Pick a fresh unassigned message to start a new trace.
                while (next_start as usize) < m && self.assigned[next_start as usize] != 0 {
                    next_start += 1;
                }
                if next_start as usize == m {
                    break;
                }
                next_start
            };
            // Traverse string i source→destination: goes into Q₀.
            self.assigned[i as usize] = 1;
            self.q0.push(idx_seg[i as usize]);
            // Arrived at i's destination end; hop to its mate.
            let j = self.mate_dst[i as usize];
            if j == NONE || self.assigned[j as usize] != 0 {
                continue;
            }
            // Traverse string j destination→source: goes into Q₁.
            self.assigned[j as usize] = 1;
            self.q1.push(idx_seg[j as usize]);
            // Arrived at j's source end; hop to its mate and loop.
            let k = self.mate_src[j as usize];
            if k != NONE {
                cur = k;
            }
        }
    }

    /// Recursive r-way even distribution for Corollary 2: split the segment
    /// and recurse left then right until `width` reaches 1, emitting one
    /// part end per bucket. Mirrors `bigcap`'s original `split_r_ways`
    /// (empty and singleton segments short-circuit the way
    /// `split_even_indices` does: everything stays in the left half).
    fn distribute_rec(
        &mut self,
        sleaf: &[u32],
        dleaf: &[u32],
        idx_seg: &mut [u32],
        abs_base: u32,
        width: usize,
    ) {
        if width == 1 {
            self.parts.push(abs_base + idx_seg.len() as u32);
            return;
        }
        let q0n = if idx_seg.len() >= 2 {
            self.split_segment(sleaf, dleaf, idx_seg);
            let q0n = self.q0.len();
            idx_seg[..q0n].copy_from_slice(&self.q0);
            idx_seg[q0n..].copy_from_slice(&self.q1);
            q0n
        } else {
            idx_seg.len() // 0 or 1 messages: Q₀ takes everything
        };
        let (a, b) = idx_seg.split_at_mut(q0n);
        self.distribute_rec(sleaf, dleaf, a, abs_base, width / 2);
        self.distribute_rec(sleaf, dleaf, b, abs_base + q0n as u32, width / 2);
    }
}

/// Build one side's hierarchical matching over the segment: pair ends
/// within each processor, then pair the ≤-one-per-leaf leftovers within
/// 2-, 4-, …-leaf subtrees. Returns the surviving unmatched end (`NONE` for
/// an even segment). `pend` (1 + waiting position, 0 = none) is all zero
/// on entry and on return.
fn match_side(
    pend: &mut [u32],
    front: &mut Vec<u32>,
    mate: &mut Vec<u32>,
    idx_seg: &[u32],
    leaf: &[u32],
) -> u32 {
    mate.clear();
    mate.resize(idx_seg.len(), NONE);

    // Step 1: pair within each processor, first end with second, third
    // with fourth, in segment-position order — the pairs a `(leaf,
    // position)` sort would form. A leaf is listed once per end parked on
    // it; entries whose end got mated since are stale and skipped below.
    front.clear();
    let mut live = 0usize;
    for (t, &id) in idx_seg.iter().enumerate() {
        let lf = leaf[id as usize];
        let p = std::mem::take(&mut pend[lf as usize]);
        if p == 0 {
            pend[lf as usize] = t as u32 + 1;
            front.push(lf);
            live += 1;
        } else {
            mate[p as usize - 1] = t as u32;
            mate[t] = p - 1;
            live -= 1;
        }
    }

    // Step 2: the leftovers climb one level per round. Two that meet under
    // a node are the survivors of its two subtrees and mate; a lone one
    // moves on — `split::pair_range`'s recursion, evaluated bottom-up.
    while live > 1 {
        let mut kept = 0;
        for r in 0..front.len() {
            let u = front[r] as usize;
            let p = std::mem::take(&mut pend[u]);
            if p == 0 {
                continue;
            }
            let q = std::mem::replace(&mut pend[u >> 1], p);
            if q == 0 {
                front[kept] = (u >> 1) as u32;
                kept += 1;
            } else {
                pend[u >> 1] = 0;
                mate[p as usize - 1] = q - 1;
                mate[q as usize - 1] = p - 1;
                live -= 2;
            }
        }
        front.truncate(kept);
    }
    // At most one end is still waiting (stale entries read 0).
    let waiting = front.iter().find(|&&u| pend[u as usize] != 0);
    waiting.map_or(NONE, |&u| std::mem::take(&mut pend[u as usize]) - 1)
}

/// Reusable scratch for [`crate::schedule_theorem1`]: allocate once, run
/// many schedules. See the module docs for the design; construction is
/// O(n), every buffer is grow-only, and one arena serves any number of
/// `schedule` calls on same-size trees (it transparently rebuilds if the
/// tree size changes).
pub struct SchedArena {
    n: u32,
    locals: Vec<Message>,
    /// Input slots of the local messages, aligned with `locals`.
    local_slots: Vec<u32>,
    /// Prefix offsets into `idx` per bucket key (`2·lca + direction` = the
    /// child of the LCA on the source side; len `2n + 1`).
    bucket_off: Vec<u32>,
    /// Source / destination heap leaves of the non-local messages, in
    /// input order.
    sleaf: Vec<u32>,
    dleaf: Vec<u32>,
    /// Per-level emitted cycle counts, reused across runs (the classic
    /// entry points clone it into [`Theorem1Stats`]).
    cpl: Vec<usize>,
    /// Positions into `sleaf` grouped by bucket key, input order within a
    /// bucket: the permutation the refinement works on.
    idx: Vec<u32>,
    /// Gathered per-level part table (absolute end offsets, bucket order).
    part_ends: Vec<u32>,
    nparts: Vec<u32>,
    /// Message count per cycle of the level being emitted.
    cycle_len: Vec<u32>,
    /// The λ(M) statistic: the ingest pass counts each message into it,
    /// and ft-core's bottom-up sum turns the counts into per-level loads.
    tally: LoadTally,
    workers: Vec<Worker>,
    /// Scratch for the public single-split / single-bucket entry points.
    tmp_sleaf: Vec<u32>,
    tmp_dleaf: Vec<u32>,
    tmp_idx: Vec<u32>,
}

impl SchedArena {
    /// An arena sized for `ft`.
    pub fn new(ft: &FatTree) -> Self {
        SchedArena {
            n: ft.n(),
            locals: Vec::new(),
            local_slots: Vec::new(),
            bucket_off: Vec::new(),
            sleaf: Vec::new(),
            dleaf: Vec::new(),
            cpl: Vec::new(),
            idx: Vec::new(),
            part_ends: Vec::new(),
            nparts: Vec::new(),
            cycle_len: Vec::new(),
            tally: LoadTally::new(ft),
            workers: vec![Worker::new(ft)],
            tmp_sleaf: Vec::new(),
            tmp_dleaf: Vec::new(),
            tmp_idx: Vec::new(),
        }
    }

    fn ensure_tree(&mut self, ft: &FatTree) {
        if self.n != ft.n() {
            *self = SchedArena::new(ft);
        }
    }

    fn ensure_workers(&mut self, ft: &FatTree, count: usize) {
        while self.workers.len() < count {
            self.workers.push(Worker::new(ft));
        }
    }

    /// Schedule `m` on `ft` per Theorem 1, sharding per-node split work over
    /// `threads` scoped threads (1 = serial). The emitted schedule is
    /// byte-identical for every thread count *and* to
    /// [`crate::reference::schedule_theorem1_reference`].
    pub fn schedule(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        threads: usize,
    ) -> (Schedule, Theorem1Stats) {
        self.schedule_with(ft, m, threads, &mut NoopRecorder)
    }

    /// [`SchedArena::schedule`] with a telemetry [`Recorder`] observing the
    /// run: every channel tally in the λ(M) sweep is fed through
    /// [`Recorder::lambda_site`], and each non-empty LCA bucket reports its
    /// size and part count through [`Recorder::bucket_split`] after the
    /// level's refinement. Hooks fire only on the main thread — worker
    /// splitters are untouched — so the schedule stays byte-identical to
    /// [`SchedArena::schedule`] for any recorder and thread count.
    pub fn schedule_with<R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        threads: usize,
        rec: &mut R,
    ) -> (Schedule, Theorem1Stats) {
        self.schedule_build(ft, m, threads, rec)
    }

    /// Theorem-1 scheduling that reports *where* each input message goes
    /// instead of materializing the schedule: after the call,
    /// `out[j]` is the delivery-cycle index of input message `j` (local
    /// messages ride in cycle 0, like [`SchedArena::schedule`] places
    /// them). Returns `(num_cycles, λ(M))`.
    ///
    /// The cycle contents implied by `out` are exactly the cycles
    /// [`SchedArena::schedule`] would emit for the same input — only the
    /// per-cycle `MessageSet` materialization is skipped, so the call
    /// performs **zero steady-state allocation** (`out` is grow-only);
    /// `ft-serve`'s request loop depends on that.
    pub fn schedule_assign<S: MessageStream + ?Sized>(
        &mut self,
        ft: &FatTree,
        m: &S,
        threads: usize,
        out: &mut Vec<u32>,
    ) -> (u32, f64) {
        self.schedule_assign_with(ft, m, threads, out, &mut NoopRecorder)
    }

    /// [`SchedArena::schedule_assign`] with a telemetry [`Recorder`].
    pub fn schedule_assign_with<S: MessageStream + ?Sized, R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &S,
        threads: usize,
        out: &mut Vec<u32>,
        rec: &mut R,
    ) -> (u32, f64) {
        out.clear();
        out.resize(m.len(), 0);
        let mut emit = AssignCycles { out };
        self.schedule_src(ft, m, threads, rec, &mut emit)
    }

    /// Shared body of the `Schedule`-building entry points.
    fn schedule_build<S: MessageStream + ?Sized, R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &S,
        threads: usize,
        rec: &mut R,
    ) -> (Schedule, Theorem1Stats) {
        let mut emit = BuildSchedule::default();
        let (total, lam) = self.schedule_src(ft, m, threads, rec, &mut emit);
        let stats = Theorem1Stats {
            total_cycles: total as usize,
            cycles_per_level: self.cpl.clone(),
            load_factor: lam,
        };
        (Schedule::from_cycles(emit.cycles), stats)
    }

    /// Schedule a lazily generated stream per Theorem 1. The generator runs
    /// once, in `fill` chunks, straight into the arena's flat leaf arrays —
    /// no intermediate input `Vec<Message>` ever exists. Byte-identical to
    /// [`SchedArena::schedule`] on [`MessageStream::collect_set`].
    pub fn schedule_stream(
        &mut self,
        ft: &FatTree,
        stream: &dyn MessageStream,
        threads: usize,
    ) -> (Schedule, Theorem1Stats) {
        self.schedule_stream_with(ft, stream, threads, &mut NoopRecorder)
    }

    /// [`SchedArena::schedule_stream`] with a telemetry [`Recorder`]
    /// ([`Recorder::stream_ingest`] once, then the usual hooks).
    pub fn schedule_stream_with<R: Recorder>(
        &mut self,
        ft: &FatTree,
        stream: &dyn MessageStream,
        threads: usize,
        rec: &mut R,
    ) -> (Schedule, Theorem1Stats) {
        if R::ENABLED {
            rec.stream_ingest(stream.family(), stream.len() as u64);
        }
        self.schedule_build(ft, stream, threads, rec)
    }

    /// The scheduler body, generic over the message source — a materialized
    /// [`MessageSet`] (static dispatch, the classic path) or a lazy
    /// `dyn MessageStream`, read once either way — and over the emission
    /// sink (see [`Emit`]). Returns `(total_cycles, λ(M))`; per-level cycle
    /// counts land in `self.cpl`.
    fn schedule_src<S: MessageStream + ?Sized, R: Recorder, E: Emit>(
        &mut self,
        ft: &FatTree,
        m: &S,
        threads: usize,
        rec: &mut R,
        emit: &mut E,
    ) -> (u32, f64) {
        self.ensure_tree(ft);
        if R::ENABLED {
            rec.run_start(ft.height());
        }
        let mut clock = PhaseClock::start::<R>();
        let n = ft.n();
        let height = ft.height();

        // ---- One pass over the source: leaves in input order, bucket
        // sizes and leaf tallies on the way. ----
        self.locals.clear();
        self.local_slots.clear();
        self.sleaf.clear();
        self.dleaf.clear();
        self.bucket_off.clear();
        self.bucket_off.resize(2 * n as usize + 1, 0);
        for_each_message(m, |j, msg| {
            if msg.is_local() {
                self.locals.push(msg);
                self.local_slots.push(j);
                return;
            }
            self.tally.add(&msg);
            self.sleaf.push(n + msg.src.0);
            self.dleaf.push(n + msg.dst.0);
        });
        // The tally's turn counts are the bucket sizes: its turn node of a
        // message is the message's `bucket_key`. The offsets go in shifted
        // by one, `bucket_off[k + 1]` = bucket k's start, for the sort below.
        let mut end = 0;
        for (off, &c) in self.bucket_off[2..].iter_mut().zip(self.tally.turns()) {
            end += c;
            *off = end;
        }

        // λ(M) from the tally. A recorder sees every channel's load, level
        // by level from the leaves, nodes in reverse heap order.
        let lam = self
            .tally
            .sum_with(|level, t| {
                if R::ENABLED {
                    let cap = ft.cap_at_level(level);
                    for u in (1 << level..2 << level).rev() {
                        let (up, down) = t.channel_loads(u);
                        rec.lambda_site(level, up, cap);
                        rec.lambda_site(level, down, cap);
                    }
                }
            })
            .load_factor(ft);
        // Counting sort: `idx` lists each bucket's positions in input order.
        // Cursor `bucket_off[k + 1]` ends at bucket k's end, k + 1's start.
        self.idx.clear();
        self.idx.resize(self.sleaf.len(), 0);
        for (pos, (&u, &v)) in self.sleaf.iter().zip(&self.dleaf).enumerate() {
            let c = &mut self.bucket_off[bucket_key(u, v) as usize + 1];
            self.idx[*c as usize] = pos as u32;
            *c += 1;
        }
        clock.lap(rec, EnginePhase::Ingest);

        // ---- Level-by-level refinement + emission. ----
        let mut next_cycle = 0u32;
        self.cpl.clear();
        for level in 0..height {
            let key_lo = 1u32 << (level + 1);
            let key_hi = key_lo << 1;
            let lvl_start = self.bucket_off[key_lo as usize] as usize;
            let lvl_end = self.bucket_off[key_hi as usize] as usize;
            if lvl_start == lvl_end {
                self.cpl.push(0);
                continue;
            }
            let nk = (key_hi - key_lo) as usize;
            // Sharding below ~4k messages costs more than it saves; the
            // merge order makes the schedule identical either way.
            let nthreads = if lvl_end - lvl_start >= 4096 {
                threads.max(1).min(nk)
            } else {
                1
            };
            self.ensure_workers(ft, nthreads);
            let SchedArena {
                ref mut idx,
                ref mut workers,
                ref bucket_off,
                ref sleaf,
                ref dleaf,
                ..
            } = *self;
            let ctx = LevelCtx {
                ft,
                bucket_off,
                sleaf,
                dleaf,
            };
            let lvl_idx = &mut idx[lvl_start..lvl_end];
            // Buckets per worker chunk and the resulting chunk count (the
            // last chunk may be short).
            let per = nk.div_ceil(nthreads);
            let used = nk.div_ceil(per);
            if nthreads <= 1 {
                workers[0].run_level(&ctx, key_lo, key_hi, lvl_idx);
            } else {
                let per = per as u32;
                std::thread::scope(|scope| {
                    let ctx = &ctx;
                    let mut rest = lvl_idx;
                    let mut wrest = &mut workers[..nthreads];
                    let mut key = key_lo;
                    while key < key_hi {
                        let chunk_hi = (key + per).min(key_hi);
                        let len =
                            (bucket_off[chunk_hi as usize] - bucket_off[key as usize]) as usize;
                        let (chunk, r) = rest.split_at_mut(len);
                        rest = r;
                        let (wslice, wr) = wrest.split_at_mut(1);
                        wrest = wr;
                        let w = &mut wslice[0];
                        scope.spawn(move || w.run_level(ctx, key, chunk_hi, chunk));
                        key = chunk_hi;
                    }
                });
            }
            clock.lap(rec, EnginePhase::Refine);

            // Gather worker part tables in bucket (= node, direction) order;
            // chunks are contiguous key ranges, so concatenation suffices.
            self.nparts.clear();
            self.part_ends.clear();
            for w in &self.workers[..used] {
                self.nparts.extend_from_slice(&w.nparts);
                self.part_ends.extend_from_slice(&w.parts);
            }
            debug_assert_eq!(self.nparts.len(), nk);
            if R::ENABLED {
                // Buckets at this refinement step live at channel level
                // `level + 1` (their keys are nodes at heap depth
                // `level + 1`, owning the edges to their parents).
                for (bi, &np) in self.nparts.iter().enumerate() {
                    let start = self.bucket_off[key_lo as usize + bi];
                    let end = self.bucket_off[key_lo as usize + bi + 1];
                    if end > start {
                        rec.bucket_split(level + 1, end - start, np);
                    }
                }
            }

            // Emission: cycle t of the level merges every bucket's t-th part
            // in bucket order. Parts tile the level's `idx` range: one walk
            // sizes the cycles (cycle 0 also takes the locals), one fills.
            let level_cycles = self.nparts.iter().copied().max().unwrap_or(0) as usize;
            self.cycle_len.clear();
            self.cycle_len.resize(level_cycles, 0);
            let (mut start, mut ends) = (lvl_start as u32, self.part_ends.iter());
            for &np in &self.nparts {
                for len in &mut self.cycle_len[..np as usize] {
                    let end = *ends.next().unwrap();
                    *len += end - start;
                    start = end;
                }
            }
            if next_cycle == 0 {
                self.cycle_len[0] += self.locals.len() as u32;
            }
            emit.sized(&self.cycle_len);
            let (mut start, mut ends) = (lvl_start, self.part_ends.iter());
            for &np in &self.nparts {
                for t in next_cycle..next_cycle + np {
                    let end = *ends.next().unwrap() as usize;
                    for pos in self.idx[start..end].iter().map(|&p| p as usize) {
                        let msg = Message::new(self.sleaf[pos] - n, self.dleaf[pos] - n);
                        emit.place(t, pos as u32, msg);
                    }
                    start = end;
                }
            }
            next_cycle += level_cycles as u32;
            self.cpl.push(level_cycles);
            clock.lap(rec, EnginePhase::Emit);
        }

        // Attach local messages (zero load) to the first cycle, or emit a
        // cycle for them if the schedule is otherwise empty.
        let mut total = next_cycle;
        if !self.locals.is_empty() {
            let lone = next_cycle == 0;
            emit.locals(&self.locals, &self.local_slots, lone);
            if lone {
                total = 1;
            }
        }
        (total, lam)
    }

    /// One even split over the arena's reusable buffers: partition `q`
    /// (all crossing `node` in direction `dir`) into `(Q₀, Q₁)` index lists
    /// with per-channel loads differing by at most one. Bit-for-bit the
    /// same output as [`crate::split::split_even_indices`], without its
    /// per-call allocations.
    pub fn split_even_indices(
        &mut self,
        ft: &FatTree,
        node: u32,
        q: &[Message],
        dir: CrossDirection,
    ) -> (&[u32], &[u32]) {
        self.ensure_tree(ft);
        debug_validate(ft, node, q, dir);
        let SchedArena {
            ref mut workers,
            ref mut tmp_sleaf,
            ref mut tmp_dleaf,
            ref mut tmp_idx,
            ..
        } = *self;
        let w = &mut workers[0];
        if q.len() <= 1 {
            w.q0.clear();
            w.q1.clear();
            if q.len() == 1 {
                w.q0.push(0);
            }
            return (&w.q0, &w.q1);
        }
        load_tmp(tmp_sleaf, tmp_dleaf, tmp_idx, ft, q);
        w.split_segment(tmp_sleaf, tmp_dleaf, tmp_idx);
        (&w.q0, &w.q1)
    }

    /// Run the full Theorem-1 split loop on one bucket: refine `q` into
    /// one-cycle parts. Returns `(order, part_ends)` — a permutation of
    /// `0..q.len()` and the cumulative end offset of each part within it.
    /// Part contents and order match the reference scheduler's
    /// `refine_to_one_cycle` exactly.
    pub fn refine_even(
        &mut self,
        ft: &FatTree,
        node: u32,
        q: &[Message],
        dir: CrossDirection,
    ) -> (&[u32], &[u32]) {
        self.ensure_tree(ft);
        debug_validate(ft, node, q, dir);
        let SchedArena {
            ref mut workers,
            ref mut tmp_sleaf,
            ref mut tmp_dleaf,
            ref mut tmp_idx,
            ..
        } = *self;
        load_tmp(tmp_sleaf, tmp_dleaf, tmp_idx, ft, q);
        let w = &mut workers[0];
        w.parts.clear();
        if !q.is_empty() {
            let ctx = LevelCtx {
                ft,
                bucket_off: &[],
                sleaf: tmp_sleaf,
                dleaf: tmp_dleaf,
            };
            w.refine_bucket(&ctx, node, tmp_idx, 0);
        }
        (tmp_idx, &w.parts)
    }

    /// Evenly distribute `q` over `width` buckets (a power of two) by
    /// recursive even splitting — the Corollary 2 partition. Returns
    /// `(order, part_ends)` with exactly `width` parts; bucket `j` holds
    /// `order[part_ends[j-1]..part_ends[j]]`.
    pub fn distribute_pow2(
        &mut self,
        ft: &FatTree,
        node: u32,
        q: &[Message],
        dir: CrossDirection,
        width: usize,
    ) -> (&[u32], &[u32]) {
        debug_assert!(width.is_power_of_two());
        self.ensure_tree(ft);
        debug_validate(ft, node, q, dir);
        let SchedArena {
            ref mut workers,
            ref mut tmp_sleaf,
            ref mut tmp_dleaf,
            ref mut tmp_idx,
            ..
        } = *self;
        load_tmp(tmp_sleaf, tmp_dleaf, tmp_idx, ft, q);
        let w = &mut workers[0];
        w.parts.clear();
        w.distribute_rec(tmp_sleaf, tmp_dleaf, tmp_idx, 0, width);
        debug_assert_eq!(w.parts.len(), width);
        (tmp_idx, &w.parts)
    }
}

/// Fill the single-bucket scratch: leaves per message plus the identity
/// index permutation.
fn load_tmp(
    tmp_sleaf: &mut Vec<u32>,
    tmp_dleaf: &mut Vec<u32>,
    tmp_idx: &mut Vec<u32>,
    ft: &FatTree,
    q: &[Message],
) {
    tmp_sleaf.clear();
    tmp_dleaf.clear();
    for msg in q {
        tmp_sleaf.push(ft.leaf(msg.src));
        tmp_dleaf.push(ft.leaf(msg.dst));
    }
    tmp_idx.clear();
    tmp_idx.extend(0..q.len() as u32);
}

/// Debug-only contract check, same as the free splitter's: every message
/// must have `node` as its LCA and cross it in direction `dir`.
#[inline]
fn debug_validate(ft: &FatTree, node: u32, q: &[Message], dir: CrossDirection) {
    #[cfg(not(debug_assertions))]
    let _ = (ft, node, q, dir);
    #[cfg(debug_assertions)]
    for m in q {
        debug_assert_eq!(
            ft.lca(m.src, m.dst),
            node,
            "message {m} does not cross node {node}"
        );
        let src_left = crate::split::is_under(ft.leaf(m.src), 2 * node);
        match dir {
            CrossDirection::LeftToRight => debug_assert!(src_left),
            CrossDirection::RightToLeft => debug_assert!(!src_left),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_even_indices as split_reference;
    use ft_core::{CapacityProfile, Message};

    fn ft(n: u32) -> FatTree {
        FatTree::new(n, CapacityProfile::Constant(1))
    }

    fn assert_split_matches(ftree: &FatTree, node: u32, q: &[Message], dir: CrossDirection) {
        let (ra, rb) = split_reference(ftree, node, q, dir);
        let mut arena = SchedArena::new(ftree);
        let (aa, ab) = arena.split_even_indices(ftree, node, q, dir);
        let aa: Vec<usize> = aa.iter().map(|&i| i as usize).collect();
        let ab: Vec<usize> = ab.iter().map(|&i| i as usize).collect();
        assert_eq!(aa, ra, "Q0 mismatch");
        assert_eq!(ab, rb, "Q1 mismatch");
    }

    #[test]
    fn split_matches_reference_on_basics() {
        let t = ft(16);
        assert_split_matches(&t, 1, &[], CrossDirection::LeftToRight);
        assert_split_matches(&t, 1, &[Message::new(0, 12)], CrossDirection::LeftToRight);
        let q: Vec<Message> = (0..8).map(|i| Message::new(i, 12)).collect();
        assert_split_matches(&t, 1, &q, CrossDirection::LeftToRight);
        let q: Vec<Message> = (0..8).map(|_| Message::new(3, 9)).collect();
        assert_split_matches(&t, 1, &q, CrossDirection::LeftToRight);
        let q: Vec<Message> = (8..16).map(|i| Message::new(i, 15 - i)).collect();
        assert_split_matches(&t, 1, &q, CrossDirection::RightToLeft);
    }

    #[test]
    fn two_message_fast_path_is_the_even_split() {
        // Pairs sharing a source, a destination, both, or neither: on unit
        // capacities each must split, and the split is `[first]`, `[second]`.
        let t = ft(16);
        let mut arena = SchedArena::new(&t);
        let dir = CrossDirection::LeftToRight;
        for (a, b) in [
            ((0, 12), (0, 12)),
            ((0, 12), (0, 9)),
            ((3, 12), (5, 12)),
            ((7, 8), (0, 15)),
        ] {
            let q = [Message::new(a.0, a.1), Message::new(b.0, b.1)];
            assert_eq!(split_reference(&t, 1, &q, dir), (vec![0], vec![1]));
            let (order, ends) = arena.refine_even(&t, 1, &q, dir);
            assert_eq!((order, ends), (&[0u32, 1][..], &[1u32, 2][..]), "{q:?}");
        }
    }

    #[test]
    fn worker_tables_are_all_clear_after_every_entry_point() {
        let t = FatTree::universal(64, 4);
        let mut arena = SchedArena::new(&t);
        let clear = |a: &SchedArena| a.workers.iter().all(|w| w.per_node.iter().all(|&c| c == 0));
        // 65 crossers of the root (odd: one end survives every matching),
        // piled on few leaves, plus deeper traffic.
        let q: Vec<Message> = (0..65).map(|i| Message::new(i % 5, 32 + i % 7)).collect();
        let dir = CrossDirection::LeftToRight;
        arena.split_even_indices(&t, 1, &q, dir);
        assert!(clear(&arena), "split_even_indices");
        arena.refine_even(&t, 1, &q, dir);
        assert!(clear(&arena), "refine_even");
        arena.distribute_pow2(&t, 1, &q, dir, 8);
        assert!(clear(&arena), "distribute_pow2");
        let deeper = (0..64).map(|i| Message::new(i, (i * 5 + 1) % 64));
        let m: MessageSet = q.into_iter().chain(deeper).collect();
        arena.schedule(&t, &m, 2);
        assert!(clear(&arena), "schedule");
    }

    #[test]
    fn schedule_matches_offline_on_small_trees() {
        let t = FatTree::universal(32, 8);
        let m: MessageSet = (0..32)
            .map(|i| Message::new(i, (i * 11 + 5) % 32))
            .collect();
        let (sref, stref) = crate::reference::schedule_theorem1_reference(&t, &m);
        let mut arena = SchedArena::new(&t);
        for threads in [1usize, 2, 4] {
            let (s, st) = arena.schedule(&t, &m, threads);
            assert_eq!(s.num_cycles(), sref.num_cycles(), "threads={threads}");
            for (a, b) in s.cycles().iter().zip(sref.cycles()) {
                assert_eq!(a.as_slice(), b.as_slice(), "threads={threads}");
            }
            assert_eq!(st.cycles_per_level, stref.cycles_per_level);
            assert_eq!(st.total_cycles, stref.total_cycles);
        }
    }

    #[test]
    fn schedule_assign_agrees_with_schedule() {
        let t = FatTree::universal(32, 8);
        // Mixed input: crossings, duplicates, and locals at assorted slots.
        let mut v: Vec<Message> = (0..32).map(|i| Message::new(i, (i * 7 + 3) % 32)).collect();
        v.push(Message::new(5, 5)); // local
        v.push(Message::new(0, 31)); // duplicate-ish crosser
        v.push(Message::new(9, 9)); // local
        assert_assign_spreads(&t, &v, 1);
    }

    /// `schedule_assign` on `v` against `schedule` (cycle count, λ and
    /// each cycle's multiset), and against itself on `v` with the locals
    /// taken out, which needs no spread: slot by slot, a local reads 0 and
    /// the p-th non-local reads the p-th cycle of that run.
    fn assert_assign_spreads(t: &FatTree, v: &[Message], threads: usize) {
        let m = MessageSet::from_vec(v.to_vec());
        let mut arena = SchedArena::new(t);
        let (sched, stats) = arena.schedule(t, &m, threads);
        let mut out = Vec::new();
        let (cycles, lam) = arena.schedule_assign(t, &m, threads, &mut out);
        assert_eq!(cycles as usize, stats.total_cycles, "threads={threads}");
        assert_eq!(lam, stats.load_factor);
        assert_eq!(out.len(), v.len());
        for (c, cyc) in sched.cycles().iter().enumerate() {
            let mut got: Vec<Message> = v
                .iter()
                .zip(&out)
                .filter(|&(_, &a)| a as usize == c)
                .map(|(&msg, _)| msg)
                .collect();
            got.sort_unstable_by_key(|m| (m.src.0, m.dst.0));
            assert_eq!(got, cyc.sorted(), "cycle {c}, threads={threads}");
        }
        let nonlocal: MessageSet = v.iter().copied().filter(|m| !m.is_local()).collect();
        let mut bare = Vec::new();
        arena.schedule_assign(t, &nonlocal, threads, &mut bare);
        let mut bare = bare.into_iter();
        for (j, msg) in v.iter().enumerate() {
            let want = if msg.is_local() {
                0
            } else {
                bare.next().unwrap()
            };
            assert_eq!(out[j], want, "slot {j}, threads={threads}");
        }
    }

    #[test]
    fn schedule_assign_spreads_around_locals_at_every_edge() {
        // 2^11 leaves, 8 crossers each: the top levels hold ≥ 4096
        // messages, so 2 and 4 threads shard them.
        let n = 2048u32;
        let t = FatTree::universal(n, n as u64 / 4);
        let traffic: Vec<Message> = (0..8 * n)
            .map(|i| Message::new(i % n, (i % n + 1 + i * 37 % (n - 1)) % n))
            .collect();
        // Locals at exactly `slots` (ascending), `crossers` in order at
        // the other slots.
        let with_locals = |slots: &[usize], crossers: &[Message]| -> Vec<Message> {
            let mut rest = crossers.iter();
            (0..slots.len() + crossers.len())
                .map(|j| match slots.binary_search(&j) {
                    Ok(_) => Message::new(j as u32 % n, j as u32 % n),
                    Err(_) => *rest.next().unwrap(),
                })
                .collect()
        };
        let last = traffic.len();
        let mut cases = vec![
            with_locals(&[0], &traffic),
            with_locals(&[0, 1, 2], &traffic),
            with_locals(&[9, 10, 11, 12, 5000, 5001, 9999], &traffic),
            with_locals(&[last], &traffic),
            with_locals(&[0, 1, 700, 701, 702, last + 5], &traffic),
        ];
        // All locals but one, the one first, in the middle, last.
        for keep in [0, 31, 63] {
            let slots: Vec<usize> = (0..64).filter(|&j| j != keep).collect();
            cases.push(with_locals(&slots, &traffic[..1]));
        }
        for v in &cases {
            for threads in [1, 2, 4] {
                assert_assign_spreads(&t, v, threads);
            }
        }
    }

    #[test]
    fn schedule_assign_locals_only_and_empty() {
        let t = ft(8);
        let mut arena = SchedArena::new(&t);
        let mut out = Vec::new();
        let empty = MessageSet::new();
        let (cycles, _) = arena.schedule_assign(&t, &empty, 1, &mut out);
        assert_eq!((cycles, out.len()), (0, 0));
        let locals = MessageSet::from_vec(vec![Message::new(2, 2), Message::new(6, 6)]);
        let (cycles, _) = arena.schedule_assign(&t, &locals, 1, &mut out);
        assert_eq!(cycles, 1);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn arena_rebuilds_on_tree_size_change() {
        let t8 = ft(8);
        let t32 = ft(32);
        let mut arena = SchedArena::new(&t8);
        let m8: MessageSet = (0..8).map(|i| Message::new(i, 7 - i)).collect();
        let (s, _) = arena.schedule(&t8, &m8, 1);
        s.validate(&t8, &m8).unwrap();
        let m32: MessageSet = (0..32).map(|i| Message::new(i, 31 - i)).collect();
        let (s, _) = arena.schedule(&t32, &m32, 2);
        s.validate(&t32, &m32).unwrap();
    }
}
