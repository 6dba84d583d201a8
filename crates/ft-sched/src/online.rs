//! On-line randomized routing (§VI): the paper's stated extension, due to
//! Greenberg & Leiserson ("Randomized routing on fat-trees", FOCS 1985,
//! cited as \[8\]): all messages are delivered in O(λ(M) + lg n·lg lg n)
//! delivery cycles with high probability.
//!
//! We model the on-line process at delivery-cycle granularity, exactly as
//! §II describes the hardware: every undelivered message is (re)sent each
//! cycle; it claims one wire on every channel of its path in turn; when a
//! concentrator's output channel is congested (no wire left) the message is
//! dropped *at that point* — the wires it already claimed stay consumed for
//! the cycle, mirroring a partially-established bit-serial path; delivered
//! messages are acknowledged and retire. Random arbitration order per cycle
//! stands in for the random priorities of the Greenberg–Leiserson switch.
//!
//! # Engine structure
//!
//! The process runs on [`OnlineArena`], a flat reusable-buffer engine in the
//! mold of `ft_sim::SimArena` / [`crate::arena::SchedArena`]:
//!
//! * each message's path metadata (source leaf, destination leaf, LCA depth)
//!   is packed into one u64 up front — LCA depth is a single
//!   `xor`/`leading_zeros` on the leaf ids — and the *alive list is the
//!   packed metadata itself* (`Vec<u64>`), compacted in place: the per-cycle
//!   claim walk reads one sequential word per message, with no index
//!   indirection, no LCA recomputation, and no down-run stack (the node at
//!   depth `d` on the down run is just `dleaf >> (height − d)`). Shuffling
//!   it consumes *exactly* the same `SplitMix64` stream as shuffling the
//!   reference's `Vec<Message>` (Fisher–Yates depends only on the length),
//!   so outcomes are byte-identical to
//!   [`crate::reference::route_online_reference`];
//! * the per-cycle used-wire table is split by level and direction into
//!   *compact remaining-wire counters*: u32 slots for every level from the
//!   root down to the deepest one whose capacity exceeds `u16::MAX` (the
//!   top levels of `universal(n, n/4)` from n = 2¹⁸ on) and u16 slots
//!   below, holding wires *left* so a probe is load / test-zero / decrement
//!   with no capacity lookup. The u16 tables for a 4096-leaf universal tree
//!   total ~32 KiB and stay cache-resident across a cycle's random probes —
//!   the dominant cost of both engines — where the clone-based engine
//!   allocates and zeroes a 4n-word `LoadMap` every cycle; resetting them
//!   fills each level's node range `[2^l, 2^(l+1))` with that level's
//!   capacity, read from the arena's per-level caps (no per-node template
//!   is kept), and indices are masked to the power-of-two table lengths
//!   (over slices cut to `mask + 1`), which lets the compiler drop every
//!   per-probe bounds check; one generic climb step and one generic
//!   descend step serve both widths;
//! * the claim walk exits at the first full channel — the lowest saturated
//!   level on the path rejects the message immediately (on capacity-1 leaf
//!   channels that is the very first probe), where the reference walks the
//!   whole path with a dead closure.
//!
//! Contention instrumentation reports through the [`Recorder`] trait from
//! ft-telemetry. There is one claim kernel, `claim_path`: it returns 0 if
//! the message got through, else the node whose channel was full. Only
//! when the compile-time [`Recorder::ENABLED`] constant is set
//! ([`OnlineArena::run_with`] is monomorphized over the recorder type) is
//! that result attributed to levels — the stop node, the LCA depth and the
//! height fix every grant, the block and the wasted grants — and each
//! cycle's per-level claimed / blocked / wasted counts go to
//! [`Recorder::wire_claims`] at its end. A [`NoopRecorder`] run therefore
//! carries zero instrumentation cost and is byte-identical to the untraced
//! engine.
//!
//! Once warmed, a steady-state [`OnlineArena::run`] performs **zero heap
//! allocation** (asserted by `tests/alloc_online.rs`).

use ft_core::rng::SplitMix64;
use ft_core::{for_each_message, FatTree, MessageSet, MessageStream};
use ft_telemetry::{NoopRecorder, Recorder};

/// Configuration for the on-line routing process.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineConfig {
    /// Safety valve: stop after this many delivery cycles even if messages
    /// remain (0 disables the valve). The process always terminates —
    /// at least one message is delivered each cycle — but runaway parameters
    /// are easier to debug with a valve.
    pub max_cycles: usize,
}

/// Internal per-level contention scratch of one cycle, indexed by channel
/// level (1 = root edges … `height` = leaf edges; index 0 is unused).
///
/// `claimed[l]` counts granted wire claims (including claims by messages
/// blocked later the same cycle — the wires stayed consumed), `blocked[l]`
/// counts rejected claim attempts (one per failed message per cycle, at the
/// level that dropped it), and `wasted[l]` counts grants that went to waste
/// because the claiming message was blocked further along its path. The
/// arena zeroes them at each cycle start and reports them through
/// [`Recorder::wire_claims`] at its end; the public mechanism is
/// `ft_telemetry::MetricsRecorder`, not this struct.
#[derive(Default)]
struct OnlineCounters {
    claimed: Vec<u64>,
    blocked: Vec<u64>,
    wasted: Vec<u64>,
}

impl OnlineCounters {
    fn reset(&mut self, height: u32) {
        for v in [&mut self.claimed, &mut self.blocked, &mut self.wasted] {
            v.clear();
            v.resize(height as usize + 1, 0);
        }
    }

    /// Attribute one claim walk to levels from where it stopped: `full` is
    /// [`claim_path`]'s result for the message packed in `meta`, whose LCA
    /// sits at depth `a`. Delivered (`full == 0`), it won one wire per
    /// level `a+1..=h` on the way up and one on the way down. Dropped at
    /// node `full`'s channel, level `L = lg full`, it is blocked at `L` and
    /// wasted every wire it won: levels `L+1..=h` if `full` is on its up
    /// run (an ancestor of the source leaf), else its whole up run and the
    /// down levels `a+1..L`.
    fn attribute(&mut self, meta: u64, full: u32, height: u32) {
        let (sleaf, _, a) = unpack(meta);
        let (a, h) = (a as usize, height as usize);
        if full == 0 {
            for c in &mut self.claimed[a + 1..=h] {
                *c += 2;
            }
            return;
        }
        let l = (31 - full.leading_zeros()) as usize;
        self.blocked[l] += 1;
        let (up_from, down_to) = if sleaf >> (h - l) == full {
            (l + 1, a + 1)
        } else {
            (a + 1, l)
        };
        for lvl in (up_from..=h).chain(a + 1..down_to) {
            self.claimed[lvl] += 1;
            self.wasted[lvl] += 1;
        }
    }
}

/// Outcome of the on-line routing process.
#[derive(Clone, Debug)]
pub struct OnlineResult {
    /// Number of delivery cycles used to deliver every message.
    pub cycles: usize,
    /// Messages delivered in each cycle.
    pub delivered_per_cycle: Vec<usize>,
    /// True if the safety valve tripped before completion.
    pub truncated: bool,
}

impl OnlineResult {
    /// Total messages delivered.
    pub fn total_delivered(&self) -> usize {
        self.delivered_per_cycle.iter().sum()
    }
}

/// Run the on-line delivery-cycle process for message set `m` on `ft`.
///
/// One-shot convenience over [`OnlineArena`]; callers running many trials
/// should hold an arena and call [`OnlineArena::route`] (or the allocation-
/// free [`OnlineArena::run`]) to reuse its buffers.
pub fn route_online(
    ft: &FatTree,
    m: &MessageSet,
    rng: &mut SplitMix64,
    config: OnlineConfig,
) -> OnlineResult {
    OnlineArena::new(ft).route(ft, m, rng, config)
}

// Per-message path metadata packed into one u64: bits 0..28 source leaf,
// bits 28..56 destination leaf, bits 56..62 LCA depth. 28-bit leaf fields
// hold every leaf heap id of a tree `FatTree` admits (`MAX_HEIGHT` = 24).
#[inline]
fn pack(sleaf: u32, dleaf: u32, lca_depth: u32) -> u64 {
    sleaf as u64 | (dleaf as u64) << 28 | (lca_depth as u64) << 56
}

#[inline]
fn unpack(m: u64) -> (u32, u32, u32) {
    (
        m as u32 & 0x0FFF_FFFF,
        (m >> 28) as u32 & 0x0FFF_FFFF,
        (m >> 56) as u32,
    )
}

/// Reusable scratch for the on-line routing process.
///
/// Construct once per tree and feed it any number of runs; every buffer is
/// grow-only. See the module docs for the engine design.
pub struct OnlineArena {
    n: u32,
    height: u32,
    /// Per-level capacities of the tree [`Self::new`] saw: what each cycle
    /// refills the counters from and, with `n`, the key every run checks.
    caps: Vec<u64>,
    /// First node id whose level uses the `u16` counters: node `u` sits at
    /// level `lg u`, so `u >= usplit` is exactly "level ≥ `lsplit`", the
    /// shallowest level from which every capacity fits a `u16`.
    usplit: u32,
    /// Packed path metadata of the still-undelivered messages, in the
    /// current cycle's shuffled order; compacted in place after each cycle.
    alive: Vec<u64>,
    /// Per-cycle *remaining-wire* counters, one slot per directed channel,
    /// indexed directly by heap node id: `u16` slots (tables of length 2n)
    /// for nodes ≥ `usplit`, exact u32 slots (tables of length `usplit`)
    /// for the wide top levels. Each slot starts a cycle at its channel's
    /// level capacity and counts down; a claim is "load, test-zero,
    /// decrement" with no capacity lookup, and no level is tracked during
    /// the walk. Slots no level owns (below `usplit` in the narrow tables,
    /// 0 and 1 in the wide ones) are never probed.
    /// Power-of-two lengths let the hot probes index through `u & mask`,
    /// which the compiler proves in-bounds — no per-probe bounds check, no
    /// `unsafe`.
    up16: Vec<u16>,
    down16: Vec<u16>,
    up32: Vec<u32>,
    down32: Vec<u32>,
    /// Contention counters of the current cycle (recorder-enabled runs
    /// only).
    cnt: OnlineCounters,
    // --- outputs ---
    delivered_per_cycle: Vec<usize>,
    truncated: bool,
}

impl OnlineArena {
    /// Scratch sized for `ft`.
    pub fn new(ft: &FatTree) -> Self {
        let height = ft.height();
        let caps = ft.level_caps();
        // Shallowest level from which every deeper capacity fits a u16
        // (capacities need not be monotone, so scan the whole suffix).
        let mut lsplit = height + 1;
        while lsplit > 1 && caps[lsplit as usize - 1] <= u16::MAX as u64 {
            lsplit -= 1;
        }
        let usplit = 1u32 << lsplit;
        // Heap node ids are 1..2n; 1 is the root. Narrow tables are
        // allocated full-length even when every level is wide, so `len ==
        // mask + 1` holds unconditionally — the claim walk re-slices on
        // that identity to drop per-probe bounds checks.
        let nodes = 2 * ft.n() as usize;
        let wide = nodes.min(usplit as usize);
        OnlineArena {
            n: ft.n(),
            height,
            caps: caps.to_vec(),
            usplit,
            alive: Vec::new(),
            up16: vec![0; nodes],
            down16: vec![0; nodes],
            up32: vec![0; wide],
            down32: vec![0; wide],
            cnt: OnlineCounters::default(),
            delivered_per_cycle: Vec::new(),
            truncated: false,
        }
    }

    /// Was this arena built for `ft`? `n` and the per-level capacities are
    /// everything [`Self::new`] bakes in.
    fn built_for(&self, ft: &FatTree) -> bool {
        self.n == ft.n() && self.caps == ft.level_caps()
    }

    /// Delivery cycles used by the last run (0 before any run).
    pub fn cycles(&self) -> usize {
        self.delivered_per_cycle.len()
    }

    /// Messages delivered per cycle in the last run.
    pub fn delivered_per_cycle(&self) -> &[usize] {
        &self.delivered_per_cycle
    }

    /// Did the last run trip the safety valve?
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Total messages delivered in the last run.
    pub fn total_delivered(&self) -> usize {
        self.delivered_per_cycle.iter().sum()
    }

    /// Run the process and clone the outcome into an [`OnlineResult`].
    ///
    /// # Panics
    /// As every run entry point does, before anything is packed: if `ft` is
    /// not the tree the arena was built for — another `n` or another
    /// per-level capacity, both fixed at construction — an
    /// O(height) check in every build.
    pub fn route(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        rng: &mut SplitMix64,
        config: OnlineConfig,
    ) -> OnlineResult {
        self.route_with(ft, m, rng, config, &mut NoopRecorder)
    }

    /// [`Self::route`] with a telemetry [`Recorder`] observing the run.
    pub fn route_with<R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        rng: &mut SplitMix64,
        config: OnlineConfig,
        rec: &mut R,
    ) -> OnlineResult {
        self.run_with(ft, m, rng, config, rec);
        OnlineResult {
            cycles: self.cycles(),
            delivered_per_cycle: self.delivered_per_cycle.clone(),
            truncated: self.truncated,
        }
    }

    /// Run the process, leaving the outcome readable through the accessors
    /// until the next call. Once warm, this allocates nothing.
    ///
    /// # Panics
    /// If `ft` is not the tree the arena was built for ([`Self::route`]).
    pub fn run(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        rng: &mut SplitMix64,
        config: OnlineConfig,
    ) {
        self.run_with(ft, m, rng, config, &mut NoopRecorder)
    }

    /// [`Self::run`] with a telemetry [`Recorder`] observing the run.
    ///
    /// The engine is monomorphized over the recorder type: with
    /// [`NoopRecorder`] (`R::ENABLED == false`) every instrumentation site
    /// compiles out and the run is instruction-identical to [`Self::run`];
    /// with `R::ENABLED` each claim walk is attributed to levels from where
    /// it stopped (every grant, rejection and wasted grant) and the
    /// recorder receives [`Recorder::cycle_start`] / [`Recorder::cycle_end`]
    /// per delivery cycle plus [`Recorder::wire_claims`] per-(cycle, level)
    /// aggregates — called between cycles, never from the claim walk, so
    /// a warmed `MetricsRecorder` adds no steady-state allocation.
    pub fn run_with<R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &MessageSet,
        rng: &mut SplitMix64,
        config: OnlineConfig,
        rec: &mut R,
    ) {
        self.run_src(ft, m, rng, config, rec)
    }

    /// Run the process on a lazy [`MessageStream`] without materializing it:
    /// path metadata is packed in one generator pass straight into the alive
    /// list, so no `Vec<Message>` of the stream's length ever exists here.
    /// Byte-identical to [`Self::run`] on `stream.collect_set()` — the alive
    /// list and hence the Fisher–Yates stream are the same either way.
    ///
    /// # Panics
    /// If `ft` is not the tree the arena was built for ([`Self::route`]).
    pub fn run_stream(
        &mut self,
        ft: &FatTree,
        stream: &dyn MessageStream,
        rng: &mut SplitMix64,
        config: OnlineConfig,
    ) {
        self.run_stream_with(ft, stream, rng, config, &mut NoopRecorder)
    }

    /// [`Self::run_stream`] with a telemetry [`Recorder`] observing the run.
    pub fn run_stream_with<R: Recorder>(
        &mut self,
        ft: &FatTree,
        stream: &dyn MessageStream,
        rng: &mut SplitMix64,
        config: OnlineConfig,
        rec: &mut R,
    ) {
        if R::ENABLED {
            rec.stream_ingest(stream.family(), stream.len() as u64);
        }
        self.run_src(ft, stream, rng, config, rec)
    }

    /// The engine body, generic over the message source: `MessageSet` runs
    /// statically dispatched, and either source is read once, in `fill`
    /// chunks, by the single packing pass.
    fn run_src<S: MessageStream + ?Sized, R: Recorder>(
        &mut self,
        ft: &FatTree,
        m: &S,
        rng: &mut SplitMix64,
        config: OnlineConfig,
        rec: &mut R,
    ) {
        assert!(self.built_for(ft), "arena built for a different tree");
        let height = self.height;
        if R::ENABLED {
            rec.run_start(height);
        }

        // Pack path metadata once; locals never touch the network. The LCA
        // depth falls out of the leaf ids without walking the tree: the
        // leaves agree on their top `height − bitlen(sleaf ^ dleaf)` levels.
        self.alive.clear();
        let mut locals = 0usize;
        for_each_message(m, |_, msg| {
            if msg.is_local() {
                locals += 1;
                return;
            }
            let (sleaf, dleaf) = (ft.leaf(msg.src), ft.leaf(msg.dst));
            let lca_d = height - (u32::BITS - (sleaf ^ dleaf).leading_zeros());
            debug_assert_eq!(lca_d, 31 - ft.lca(msg.src, msg.dst).leading_zeros());
            self.alive.push(pack(sleaf, dleaf, lca_d));
        });
        self.delivered_per_cycle.clear();
        self.truncated = false;

        while !self.alive.is_empty() {
            if config.max_cycles != 0 && self.delivered_per_cycle.len() >= config.max_cycles {
                self.truncated = true;
                break;
            }
            let cycle = self.delivered_per_cycle.len() as u32;
            if R::ENABLED {
                // Locals retire alongside the first cycle (see below), so
                // the recorder's view matches `delivered_per_cycle`.
                let extra = if cycle == 0 { locals } else { 0 };
                rec.cycle_start(cycle, (self.alive.len() + extra) as u32);
            }
            // Shuffling the packed-meta list consumes the identical
            // SplitMix64 stream as the reference's shuffle of its
            // Vec<Message>: Fisher–Yates depends only on the slice length.
            rng.shuffle(&mut self.alive);
            if R::ENABLED {
                self.cnt.reset(height);
            }
            let delivered = self.serial_cycle::<R>();
            // Progress guarantee: the first message in the shuffled order
            // always claims an empty network.
            debug_assert!(delivered > 0);
            self.delivered_per_cycle.push(delivered);
            if R::ENABLED {
                let c = &self.cnt;
                for lvl in 1..=height as usize {
                    let (cl, bl, wa) = (c.claimed[lvl], c.blocked[lvl], c.wasted[lvl]);
                    if cl | bl | wa != 0 {
                        rec.wire_claims(cycle, lvl as u32, cl, bl, wa);
                    }
                }
                let extra = if cycle == 0 { locals } else { 0 };
                rec.cycle_end(cycle, (delivered + extra) as u32);
            }
        }

        // Local messages are "delivered" in cycle 1 without using the
        // network.
        if locals > 0 {
            if self.delivered_per_cycle.is_empty() {
                self.delivered_per_cycle.push(locals);
                if R::ENABLED {
                    rec.cycle_start(0, locals as u32);
                    rec.cycle_end(0, locals as u32);
                }
            } else {
                self.delivered_per_cycle[0] += locals;
            }
        }
    }

    /// One delivery cycle: walk the shuffled alive list, claim each
    /// message's path with first-full-channel early exit, compact survivors
    /// in place. Returns the number delivered. With `R::ENABLED` each walk
    /// is attributed to levels after [`claim_path`] returns.
    fn serial_cycle<R: Recorder>(&mut self) -> usize {
        let (height, usplit) = (self.height, self.usplit);
        let lsplit = usplit.trailing_zeros() as usize;
        // Down-run shift counts `s ≥ s16` reach the wide levels (`< lsplit`).
        let s16 = height + 1 - lsplit as u32;
        let OnlineArena {
            alive,
            caps,
            up16,
            down16,
            up32,
            down32,
            cnt,
            ..
        } = self;
        let mut narrow = Wires::refill(up16, down16, &caps[lsplit..], lsplit);
        let mut wide = Wires::refill(up32, down32, &caps[1..lsplit], 1);

        // Branchless stable compaction: always write the survivor slot and
        // advance the cursor only on failure. The write is in-bounds and
        // order-preserving because `w <= k`; a "delivered or not" branch
        // here would be data-random in congested cycles and mispredict
        // roughly every other message.
        let mut w = 0usize;
        for k in 0..alive.len() {
            let mv = alive[k];
            let full = claim_path(&mut narrow, &mut wide, usplit, s16, height, mv);
            if R::ENABLED {
                cnt.attribute(mv, full, height);
            }
            alive[w] = mv;
            w += (full != 0) as usize;
        }
        let delivered = alive.len() - w;
        alive.truncate(w);
        delivered
    }
}

/// One counter width's up and down remaining-wire tables for a cycle.
struct Wires<'a, W> {
    up: &'a mut [W],
    down: &'a mut [W],
    mask: u32,
}

impl<'a, W> Wires<'a, W>
where
    W: Copy + PartialEq + std::ops::SubAssign + From<u8> + TryFrom<u64> + std::ops::Not<Output = W>,
{
    /// Both tables restored to cycle-start capacities — the node range
    /// `[2^l, 2^(l+1))` of level `l = first + i` filled with `caps[i]` (a
    /// few-KiB fill where the reference allocates and zeroes a 4n-word
    /// `LoadMap`) — and cut to `mask + 1` slots, their power-of-two length:
    /// with `len == mask + 1` in the compiler's view, `node & mask < len` is
    /// provable and the per-probe bounds checks vanish.
    ///
    /// A capacity past `W`'s range clamps to its maximum, which is exact in
    /// effect: a channel receives fewer than 2^32 claims per cycle, so the
    /// u32 counter can never run down to zero — exactly "never full". (The
    /// narrow levels' capacities all fit a `u16`.)
    fn refill(up: &'a mut [W], down: &'a mut [W], caps: &[u64], first: usize) -> Self {
        for (l, &c) in (first..).zip(caps) {
            let c = W::try_from(c).unwrap_or(!W::from(0));
            up[1 << l..2 << l].fill(c);
            down[1 << l..2 << l].fill(c);
        }
        let mask = up.len() as u32 - 1;
        let len = mask as usize + 1;
        Wires {
            up: &mut up[..len],
            down: &mut down[..len],
            mask,
        }
    }

    /// Load, test-zero, decrement: take one wire if the channel has one.
    #[inline]
    fn take(slot: &mut W) -> bool {
        let free = *slot != W::from(0);
        if free {
            *slot -= W::from(1);
        }
        free
    }

    /// Climb from node `u` while `u > stop`, taking one wire on each up
    /// channel. Returns where it stopped: `≤ stop` if every claim was
    /// granted, else the node whose channel was full.
    #[inline]
    fn climb(&mut self, mut u: u32, stop: u32) -> u32 {
        while u > stop && Self::take(&mut self.up[(u & self.mask) as usize]) {
            u >>= 1;
        }
        u
    }

    /// Descend toward `dleaf`, taking one wire on the down channel of
    /// `dleaf >> t` for `t` from `s − 1` down to `end`. Returns where it
    /// stopped: `end` (or `s`, if already `≤ end`) if every claim was
    /// granted, else one more than the full node's shift count.
    #[inline]
    fn descend(&mut self, dleaf: u32, mut s: u32, end: u32) -> u32 {
        while s > end && Self::take(&mut self.down[((dleaf >> (s - 1)) & self.mask) as usize]) {
            s -= 1;
        }
        s
    }
}

/// The claim walk: take one wire on every channel of the path packed in
/// `meta`, in path order, stopping at the first full channel (the wires
/// already won stay consumed, as on a partially established path).
/// Returns 0 if the message got through, else the heap node whose channel
/// was full.
///
/// Node `u` sits at level `lg u`, so each run is a `u16` segment (nodes
/// `≥ usplit`) and a wide segment: the up run climbs the narrow levels
/// until it reaches the deeper of the LCA and the split, then the wide
/// ones; the down run
/// (the node at depth `d` is `dleaf >> (height − d)`) takes the wide levels
/// first, shift counts `≥ s16`.
#[inline]
fn claim_path(
    narrow: &mut Wires<'_, u16>,
    wide: &mut Wires<'_, u32>,
    usplit: u32,
    s16: u32,
    height: u32,
    meta: u64,
) -> u32 {
    let (sleaf, dleaf, lca_d) = unpack(meta);
    let lca = sleaf >> (height - lca_d);
    let stop16 = lca.max(usplit - 1);
    let u = narrow.climb(sleaf, stop16);
    if u > stop16 {
        return u;
    }
    let u = wide.climb(u, lca);
    if u > lca {
        return u;
    }
    let s = wide.descend(dleaf, height - lca_d, s16);
    if s > s16 {
        return dleaf >> (s - 1);
    }
    let s = narrow.descend(dleaf, s, 0);
    if s > 0 {
        return dleaf >> (s - 1);
    }
    0
}

/// The shape the paper quotes for the on-line bound:
/// `λ(M) + lg n · lg lg n` (unit constants).
pub fn online_bound_shape(ft: &FatTree, load_factor: f64) -> f64 {
    let lgn = ft_core::lg(ft.n() as u64) as f64;
    load_factor.max(1.0) + lgn * lgn.max(2.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::route_online_reference;
    use ft_core::{CapacityProfile, Message};

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(0xFA7EE)
    }

    #[test]
    fn delivers_everything() {
        let n = 64u32;
        let t = FatTree::universal(n, 16);
        let m: MessageSet = (0..n).map(|i| Message::new(i, (i + 31) % n)).collect();
        let res = route_online(&t, &m, &mut rng(), OnlineConfig::default());
        assert!(!res.truncated);
        assert_eq!(res.total_delivered(), m.len());
        assert!(res.cycles >= 1);
    }

    #[test]
    fn one_cycle_set_delivers_in_one_cycle_sometimes_more() {
        // With full-doubling capacities the reversal is a one-cycle set; the
        // online process with congestion-free capacities must finish in 1.
        let n = 32u32;
        let t = FatTree::new(n, CapacityProfile::FullDoubling);
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let res = route_online(&t, &m, &mut rng(), OnlineConfig::default());
        assert_eq!(
            res.cycles, 1,
            "no congestion possible, must finish in one cycle"
        );
    }

    #[test]
    fn hotspot_takes_about_lambda_cycles() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        let m: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        let res = route_online(&t, &m, &mut rng(), OnlineConfig::default());
        // λ = 15 at the destination leaf channel; exactly one message can
        // finish per cycle.
        assert_eq!(res.cycles, (n - 1) as usize);
    }

    #[test]
    fn local_messages_do_not_block() {
        let t = FatTree::new(8, CapacityProfile::Constant(1));
        let m: MessageSet = (0..8).map(|i| Message::new(i, i)).collect();
        let res = route_online(&t, &m, &mut rng(), OnlineConfig::default());
        assert_eq!(res.cycles, 1);
        assert_eq!(res.total_delivered(), 8);
    }

    #[test]
    fn safety_valve_trips() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        let m: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        let cfg = OnlineConfig { max_cycles: 3 };
        let res = route_online(&t, &m, &mut rng(), cfg);
        assert!(res.truncated);
        assert_eq!(res.cycles, 3);
    }

    #[test]
    #[should_panic(expected = "arena built for a different tree")]
    fn run_on_another_capacity_profile_panics() {
        // Same n, another profile: the counters would refill from the wrong caps.
        let built = FatTree::universal(64, 16);
        let other = FatTree::new(64, CapacityProfile::Constant(2));
        let m: MessageSet = [Message::new(0, 63)].into_iter().collect();
        OnlineArena::new(&built).run(&other, &m, &mut rng(), OnlineConfig::default());
    }

    #[test]
    #[should_panic(expected = "arena built for a different tree")]
    fn stream_on_another_n_panics() {
        let built = FatTree::universal(64, 16);
        let other = FatTree::universal(128, 32);
        let m: MessageSet = [Message::new(0, 127)].into_iter().collect();
        OnlineArena::new(&built).run_stream(&other, &m, &mut rng(), OnlineConfig::default());
    }

    #[test]
    fn within_online_bound_shape_on_random_traffic() {
        let n = 256u32;
        let t = FatTree::universal(n, 64);
        let mut r = rng();
        let m: MessageSet = (0..n).map(|i| Message::new(i, r.gen_range(0..n))).collect();
        let lam = ft_core::load_factor(&t, &m);
        let res = route_online(&t, &m, &mut r, OnlineConfig::default());
        // Generous constant: shape is λ + lg n lg lg n; allow 6×.
        let bound = 6.0 * online_bound_shape(&t, lam);
        assert!(
            (res.cycles as f64) <= bound,
            "online cycles {} vs bound {bound:.1} (λ = {lam:.2})",
            res.cycles
        );
    }

    // --- locals / truncation semantics, pinned for BOTH engines ---
    //
    // The contract: local messages always land in cycle 1 exactly once
    // (appended to an existing first cycle, or as the only cycle when no
    // non-local work exists); `cycles == delivered_per_cycle.len()`; the
    // valve trips — `truncated == true` and `cycles == max_cycles` — if and
    // only if non-local messages remain after `max_cycles > 0` cycles, so an
    // all-local set never counts toward (or against) the valve.

    fn both(
        t: &FatTree,
        m: &MessageSet,
        cfg: OnlineConfig,
        seed: u64,
    ) -> (OnlineResult, OnlineResult) {
        let fast = route_online(t, m, &mut SplitMix64::seed_from_u64(seed), cfg);
        let slow = route_online_reference(t, m, &mut SplitMix64::seed_from_u64(seed), cfg);
        assert_eq!(fast.delivered_per_cycle, slow.delivered_per_cycle);
        assert_eq!(fast.cycles, slow.cycles);
        assert_eq!(fast.truncated, slow.truncated);
        (fast, slow)
    }

    #[test]
    fn all_local_reports_one_untruncated_cycle() {
        let t = FatTree::new(8, CapacityProfile::Constant(1));
        let m: MessageSet = (0..8).map(|i| Message::new(i, i)).collect();
        for max_cycles in [0usize, 1, 5] {
            let cfg = OnlineConfig { max_cycles };
            let (res, _) = both(&t, &m, cfg, 11);
            assert_eq!(res.cycles, 1, "max_cycles={max_cycles}");
            assert_eq!(res.delivered_per_cycle, vec![8]);
            assert!(!res.truncated, "locals alone must never trip the valve");
        }
    }

    #[test]
    fn empty_set_routes_in_zero_cycles() {
        let t = FatTree::new(8, CapacityProfile::Constant(1));
        let m = MessageSet::new();
        let (res, _) = both(&t, &m, OnlineConfig::default(), 12);
        assert_eq!(res.cycles, 0);
        assert!(res.delivered_per_cycle.is_empty());
        assert!(!res.truncated);
    }

    #[test]
    fn truncated_first_cycle_counts_locals_exactly_once() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        // Hot spot (one non-local delivery per cycle) plus two locals.
        let mut m: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        m.push(Message::new(3, 3));
        m.push(Message::new(7, 7));
        let cfg = OnlineConfig { max_cycles: 1 };
        let (res, _) = both(&t, &m, cfg, 13);
        assert!(res.truncated);
        assert_eq!(res.cycles, 1);
        // 1 non-local winner + 2 locals; locals must not be double-counted
        // or spill into a phantom extra cycle.
        assert_eq!(res.delivered_per_cycle, vec![3]);
        assert_eq!(res.total_delivered(), 3);
    }

    #[test]
    fn finishing_exactly_at_the_valve_is_not_truncated() {
        let n = 4u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        let m: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        // The hot spot needs exactly n−1 = 3 cycles; a valve of 3 is not hit.
        let cfg = OnlineConfig { max_cycles: 3 };
        let (res, _) = both(&t, &m, cfg, 14);
        assert!(!res.truncated, "completing at the valve is not truncation");
        assert_eq!(res.cycles, 3);
        assert_eq!(res.total_delivered(), m.len());
    }

    // --- recorder-fed contention telemetry ---

    #[test]
    fn recorder_counters_balance_with_delivery_accounting() {
        let n = 64u32;
        let t = FatTree::universal(n, 8);
        let mut r = rng();
        let m: MessageSet = (0..2 * n)
            .map(|_| Message::new(r.gen_range(0..n), r.gen_range(0..n)))
            .collect();
        let mut arena = OnlineArena::new(&t);
        let mut rec = ft_telemetry::MetricsRecorder::new();
        let res = arena.route_with(&t, &m, &mut rng(), OnlineConfig::default(), &mut rec);

        // Each undelivered message is blocked exactly once per cycle, so
        // total blocked = Σ_cycles (alive − delivered) = total resends.
        let nonlocal = m.iter().filter(|msg| !msg.is_local()).count();
        let mut alive = nonlocal;
        let mut resends = 0usize;
        for (cyc, &d) in res.delivered_per_cycle.iter().enumerate() {
            let d_nonlocal = if cyc == 0 {
                d - (m.len() - nonlocal)
            } else {
                d
            };
            alive -= d_nonlocal;
            resends += alive;
        }
        assert_eq!(rec.total_blocked(), resends as u64);
        // Wasted claims are a subset of granted claims, level by level.
        for l in 0..rec.claimed.len() {
            assert!(rec.wasted[l] <= rec.claimed[l], "level {l}");
        }
        // Delivered messages account for the non-wasted claims: a delivered
        // message claims one wire at every level of its path.
        let useful: u64 = rec
            .claimed
            .iter()
            .zip(&rec.wasted)
            .map(|(&cl, &wa)| cl - wa)
            .sum();
        assert!(useful > 0);
        assert_eq!(rec.hottest_level().is_some(), rec.total_blocked() > 0);
        // The recorder's per-cycle view (fed by cycle_end, including the
        // locals that retire alongside cycle 1) matches the engine's.
        let per_cycle: Vec<u64> = res.delivered_per_cycle.iter().map(|&d| d as u64).collect();
        assert_eq!(rec.delivered_per_cycle, per_cycle);
        assert_eq!(rec.cycles as usize, res.cycles);
    }

    #[test]
    fn recorder_does_not_change_outcomes() {
        let n = 64u32;
        let t = FatTree::universal(n, 8);
        let mut r = SplitMix64::seed_from_u64(99);
        let m: MessageSet = (0..n).map(|i| Message::new(i, r.gen_range(0..n))).collect();
        let plain = route_online(
            &t,
            &m,
            &mut SplitMix64::seed_from_u64(7),
            OnlineConfig::default(),
        );
        let mut rec = ft_telemetry::MetricsRecorder::new();
        let counted = OnlineArena::new(&t).route_with(
            &t,
            &m,
            &mut SplitMix64::seed_from_u64(7),
            OnlineConfig::default(),
            &mut rec,
        );
        assert_eq!(plain.delivered_per_cycle, counted.delivered_per_cycle);
        assert!(rec.total_claimed() > 0);
    }

    #[test]
    fn hotspot_counters_blame_the_skinny_levels() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        let m: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        let mut rec = ft_telemetry::MetricsRecorder::new();
        OnlineArena::new(&t).run_with(&t, &m, &mut rng(), OnlineConfig::default(), &mut rec);
        assert!(rec.total_blocked() > 0);
        // All-to-one on a unit-capacity tree serializes on the down spine:
        // every rejection is a down-channel collision, never level 0.
        assert_eq!(rec.blocked[0], 0);
        assert_eq!(rec.claimed[0], 0);
    }
}
