//! Delivery-cycle execution (§II) — the flat-array engine.
//!
//! A delivery cycle: every participating message snakes up from its source
//! leaf toward the LCA and back down, claiming one wire per channel. At
//! every node output port a selector + concentrator decides which messages
//! advance; the rest are lost and negatively acknowledged. The engine
//! processes channels in wormhole order — all up-levels from the leaves to
//! the root, then down-levels back — so a message dropped early never
//! contends downstream.
//!
//! Tick accounting follows the bit-serial protocol (Fig. 2): each node adds
//! one tick to examine the M bit and one for the address bit; once the path
//! is established the remaining bits stream through, so a message's latency
//! is `2·(nodes on path) + payload_bits` and the cycle time is the max over
//! delivered messages — `O(lg n)` for fixed payload, as §II claims.
//!
//! # Engine structure
//!
//! All per-cycle state lives in a reusable [`SimArena`]. Per-message
//! metadata (alive, local, LCA level, leaves) is packed into flat words —
//! each cycle body has its own layout — so each pass streams arrays
//! instead of chasing hash maps.
//! Every scratch buffer is grow-only, so a steady-state
//! [`run_to_completion`] does no per-cycle heap allocation on the
//! ideal-switch path (asserted by `tests/alloc_steady.rs`; partial
//! concentrators run Hopcroft–Karp matchings, which allocate).
//!
//! The retry loop of §II exists once, in one private function behind both
//! public run functions, over two private arena steps. `SimArena::load`
//! packs the submitted messages — a stream or a materialised set, pulled
//! through [`MessageStream::fill`] — and chooses the cycle body for the
//! whole run: the one place the choice is made. `SimArena::step` then runs
//! one cycle on the resident pending set, lists its deliveries by
//! ascending submitted index and compacts the survivors in place, in FIFO
//! order, so each retry costs its pending messages, not `n`, and never
//! replays or re-packs the source. [`SimArena::cycle`] is a load plus one
//! step.
//!
//! A run takes one of two bodies, chosen from the configuration alone:
//!
//! * **Fused sweeps** ([`SimConfig::default`]: [`MetaWidth::Auto`], ideal
//!   switches, slot-order arbitration), on u32 words plus a destination
//!   side array, on every tree [`FatTree`] admits. Slot order on every
//!   channel is the restriction of one global list — source order going
//!   up, (turn level, source) order coming down — so each phase is a
//!   single sweep that tests and bumps per-channel counters: no slot
//!   table, no buckets, no per-level scans (`SimArena::up_phase_fused` /
//!   `SimArena::down_phase_fused`; DESIGN.md §10 carries the proofs). The
//!   pending set is sorted by source leaf once, at load, and in-place
//!   compaction keeps it sorted. When nobody reads the loads, each sweep
//!   visits only the levels that can refuse a message: the up sweep the
//!   binding ones ([`SimArena::binding_up_levels`]), and both sweeps only
//!   those the run's busiest source or destination leaf can fill
//!   ([`SimArena::run_levels`]; masks taken at load hold for every retry,
//!   since the pending set only shrinks).
//! * **Level passes** (everything else: partial switches, random
//!   arbitration, [`MetaWidth::Wide`], and the shard phases), on u64 words
//!   holding both leaves. Each pass scatters its contenders straight
//!   into a generation-stamped (node, slot) table and arbitrates by
//!   walking it — ascending-slot order falls out of the
//!   layout, with no sorting and no intermediate bucket arrays. A step
//!   re-injects the survivors, in submitted order, under identity
//!   arbitration ids, so a retry is exactly a fresh load of the survivors.
//!
//! The original HashMap-based engine is retained verbatim in
//! [`crate::reference`] and the equivalence is enforced by
//! `tests/golden_engine.rs`.
//!
//! # Warm arena
//!
//! The run drivers ([`run_to_completion_with`],
//! [`run_stream_to_completion_with`] and everything built on them) keep one
//! [`SimArena`] per thread in a private `thread_local!` slot, so repeated
//! runs on one tree skip the construction and the page faults of its
//! tables and per-message buffers. The key is exactly what
//! [`SimArena::new`] bakes in — `n`, the per-level capacities and the
//! [`FaultModel`]; the rest of a [`SimConfig`] is read per run, by the load
//! (which body) and by every step. A run takes the arena out of the slot
//! for its whole length (a re-entrant run builds its own; a panic drops
//! it) and puts it back on return, so each thread that ran one retains
//! one arena, sized by the largest run on its current tree, until
//! the thread exits or runs on another tree. [`simulate_cycle`] keeps a
//! fresh arena: its [`CycleReport`] takes the arena's [`LoadMap`] by
//! value.

use crate::faults::{EffectiveCaps, FaultModel};
use crate::node::PortSwitch;
use ft_concentrator::{Concentrator, MatchingArena};
use ft_core::rng::splitmix64;
use ft_core::{
    for_each_message, ChannelId, FatTree, GenTable, LoadMap, Message, MessageSet, MessageStream,
};
use ft_telemetry::{EnginePhase, NoopRecorder, PhaseClock, Recorder};
use std::cell::Cell;

/// Re-export for configuration convenience.
pub use crate::node::SwitchFlavor as SwitchKind;

/// How a congested port chooses which messages to drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// Deterministic: lower input wire wins (a fixed-priority switch).
    SlotOrder,
    /// Random priorities, reseeded per cycle from the given seed — the
    /// arbitration of the Greenberg–Leiserson on-line switch \[8\]: no
    /// message can be starved forever by an unlucky wire position.
    Random(u64),
}

/// Which cycle body plain cycles may run (the module docs describe both;
/// they arbitrate byte-identically, and each has its own metadata layout).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetaWidth {
    /// The fused sweeps (u32 words) whenever the configuration allows them
    /// (ideal switches, slot-order arbitration); the level passes
    /// otherwise.
    #[default]
    Auto,
    /// Always the level passes (u64 words, both leaves resident).
    Wide,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Payload bits per message (Fig. 2 "data" field).
    pub payload_bits: u32,
    /// Concentrator hardware flavor.
    pub switch: SwitchKind,
    /// Congestion arbitration policy.
    pub arbitration: Arbitration,
    /// Wire-fault pattern (§VII fault tolerance): dead wires shrink channel
    /// capacities; the dense-assignment convention drops messages whose
    /// assigned wire index falls beyond the surviving count.
    pub faults: FaultModel,
    /// Cycle-body choice for plain cycles (shard phases always run the
    /// level passes — [`ShardClaim`] carries their u64 words between arenas).
    pub meta: MetaWidth,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            payload_bits: 64,
            switch: SwitchKind::Ideal,
            arbitration: Arbitration::SlotOrder,
            faults: FaultModel::none(),
            meta: MetaWidth::Auto,
        }
    }
}

/// Outcome of one delivery cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleReport {
    /// Indices (into the submitted set) of delivered messages.
    pub delivered: Vec<usize>,
    /// Indices of messages lost to congestion (to retry).
    pub dropped: Vec<usize>,
    /// Cycle time in bit ticks.
    pub ticks: u32,
    /// Wires used per channel (for utilization stats).
    pub channel_use: LoadMap,
}

/// Outcome of running a message set to completion over repeated cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Number of delivery cycles executed.
    pub cycles: usize,
    /// Messages delivered per cycle.
    pub delivered_per_cycle: Vec<usize>,
    /// Total ticks across all cycles.
    pub total_ticks: u64,
    /// Original message indices in delivery order, grouped by cycle:
    /// the first `delivered_per_cycle[0]` entries were delivered in cycle 1,
    /// the next `delivered_per_cycle[1]` in cycle 2, and so on.
    pub delivery_order: Vec<usize>,
}

/// Summary of one arena cycle (the full winner/loser detail stays in the
/// arena's reusable buffers — see [`SimArena::delivered_indices`] etc.).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Messages delivered this cycle.
    pub delivered: usize,
    /// Cycle time in bit ticks.
    pub ticks: u32,
}

/// Sentinel wire value marking a message handed off to the coordinator as a
/// [`ShardClaim`] (suspended locally, not lost to congestion). Real wires
/// are ranks below a channel capacity, so the sentinel cannot collide.
const CROSSED: u32 = u32::MAX;

// Per-message metadata packed into one word so each pass reads a single
// sequential stream. One layout per cycle body:
//
// * **level passes (u64)**: bit 0 alive, bit 1 local, bits 2..8 LCA level,
//   bits 8..36 source leaf, bits 36..64 destination leaf. [`ShardClaim`]
//   carries this word between arenas.
// * **fused sweeps (u32)**: bit 0 alive, bit 1 local, bits 2..7 LCA level,
//   bits 7..32 the source leaf; the destination leaf waits in the side
//   array `SimArena::peer32`, which only the down sweep reads. 25 leaf bits
//   hold a leaf heap id (`height + 1` bits) for height ≤ 24, the
//   `FatTree::MAX_HEIGHT` every tree obeys, and the up sweep streams 4
//   bytes per message.
//
// Both bodies make the decisions of the same ports on the same contenders,
// so outcomes are byte-identical — pinned by the golden tests.
const META_ALIVE: u64 = 1;
const META_LOCAL: u64 = 2;

#[inline]
fn meta_pack(local: bool, lca_level: u32, leaf_src: u32, leaf_dst: u32) -> u64 {
    META_ALIVE
        | (local as u64) << 1
        | (lca_level as u64) << 2
        | (leaf_src as u64) << 8
        | (leaf_dst as u64) << 36
}

/// Participates in level passes: alive and not local.
#[inline]
fn meta_eligible(m: u64) -> bool {
    m & (META_ALIVE | META_LOCAL) == META_ALIVE
}

#[inline]
fn meta_lca(m: u64) -> u32 {
    (m >> 2) as u32 & 0x3F
}

#[inline]
fn meta_src(m: u64) -> u32 {
    (m >> 8) as u32 & 0x0FFF_FFFF
}

#[inline]
fn meta_dst(m: u64) -> u32 {
    (m >> 36) as u32 & 0x0FFF_FFFF
}

const NMETA_ALIVE: u32 = 1;
const NMETA_LOCAL: u32 = 2;
const NMETA_LEAF_SHIFT: u32 = 7;

#[inline]
fn nmeta_pack(local: bool, lca_level: u32, leaf_src: u32) -> u32 {
    NMETA_ALIVE | (local as u32) << 1 | lca_level << 2 | leaf_src << NMETA_LEAF_SHIFT
}

/// Takes part in the sweeps: alive and not local.
#[inline]
fn nmeta_eligible(m: u32) -> bool {
    m & (NMETA_ALIVE | NMETA_LOCAL) == NMETA_ALIVE
}

#[inline]
fn nmeta_lca(m: u32) -> u32 {
    (m >> 2) & 0x1F
}

#[inline]
fn nmeta_src(m: u32) -> u32 {
    m >> NMETA_LEAF_SHIFT
}

/// Most messages one load accepts: the arena indexes them with `u32`s.
pub const MAX_MESSAGES: usize = u32::MAX as usize;

/// Parameters of one level pass (up or down).
struct PhaseParams {
    /// Up phase (toward the root) or down phase.
    up: bool,
    /// The switching-node level being processed.
    node_level: u32,
    /// Tree height (leaves live at this level).
    height: u32,
    /// Up: child-channel capacity (right-child slots start here).
    /// Down: parent-channel capacity (turning slots start here).
    slot_base: u32,
    /// First heap node id whose buckets this pass owns.
    lo: u32,
}

impl PhaseParams {
    /// Input slot of a message with packed metadata `m` on wire `w` for
    /// this pass.
    #[inline]
    fn slot(&self, m: u64, w: u32) -> u32 {
        if self.up {
            // Left child wires [0, capc), right child wires [capc, 2capc).
            let child = meta_src(m) >> (self.height - (self.node_level + 1));
            (child & 1) * self.slot_base + w
        } else if meta_lca(m) == self.node_level {
            // Turning at this node: came up from the other child.
            self.slot_base + w
        } else {
            w
        }
    }

    /// Output channel of bucket `k_rel` (node id `lo + k_rel`).
    #[inline]
    fn channel(&self, k_rel: usize) -> ChannelId {
        let node = self.lo + k_rel as u32;
        if self.up {
            ChannelId::up(node)
        } else {
            ChannelId::down(node)
        }
    }
}

/// Reusable per-cycle scratch for the flat-array engine.
///
/// Construct once per `(tree, fault pattern)` and feed it any number of
/// cycles; every buffer is grow-only, so after the first cycle of a given
/// size the ideal-switch path performs no heap allocation at all.
pub struct SimArena {
    n: u32,
    height: u32,
    faults: FaultModel,
    /// Effective capacity per channel (fault pattern applied): the level
    /// capacities of the tree `new` saw — with `n` and `faults`, the key
    /// every cycle checks — plus a per-channel table only if a wire can die.
    caps: EffectiveCaps,
    /// Port-switch cache keyed by (kind, inputs, outputs); at most a few
    /// per level and kind.
    ports: Vec<((SwitchKind, usize, usize), PortSwitch)>,
    /// The body [`Self::load`] chose for the resident pending set: the
    /// fused sweeps, else the level passes.
    fused_body: bool,
    // --- per-message state, indexed by position in the pending set ---
    /// Level passes (plain cycles and shard phases): packed alive / local /
    /// LCA-level / both-leaves words (layout at the packing constants).
    /// Plain cycles keep them, `wire` and `orig` in submitted order.
    meta: Vec<u64>,
    /// Fused cycles only: the u32 metadata words. The fused body keeps
    /// these, `peer32` and `orig` sorted by source leaf, ascending
    /// submitted index within a leaf, from load to end of run — the order
    /// both fused sweeps are defined over.
    meta32: Vec<u32>,
    /// Fused cycles only: destination leaf of the message at each position.
    peer32: Vec<u32>,
    /// Plain cycles: submitted index of the message at each position.
    orig: Vec<u32>,
    /// Fused cycles only: this cycle's deliveries, one bit per submitted
    /// index; all clear between cycles.
    done: Vec<u64>,
    /// Current wire (rank) on the message's most recent channel. Read by
    /// the per-level passes only; the fused sweeps never need it.
    wire: Vec<u32>,
    /// Arbitration identity of each message. For plain cycles this is the
    /// identity map (position in the pending set, matching the reference
    /// engine, which re-indexes the survivors of every cycle); the shard
    /// entry points load coordinator-global ids here instead, so random
    /// arbitration hashes the same key no matter which arena a message
    /// currently sits in.
    ids: Vec<u32>,
    /// Fused cycles only: the up-phase survivors as `dst_leaf << 32 |
    /// position` words, stable-bucketed by LCA level (root first) — the
    /// order ≺ of [`Self::down_phase_fused`]. Also stages the load sort.
    turn: Vec<u64>,
    /// The binding up levels ([`Self::binding_up_levels`]) as a bit mask,
    /// bit `k` for level `k`.
    up_binding: u32,
    /// Per direction (`[up, down]`) and level `k`: `⌊min eff / 2^(height −
    /// k)⌋` over the level's channels — the most messages per leaf a run
    /// may have at that end and still never fill the level.
    leaf_share: [[u64; 33]; 2],
    /// The levels the fused sweeps visit in the current run, `[up, down]`
    /// masks: every level `1..=height` when loads are read, else the ones
    /// the loaded run can fill ([`Self::run_levels`]).
    levels: [u32; 2],
    /// Fused down sweep: messages admitted this cycle to the down channel
    /// into each heap node (`2n` — a quarter of `channel_use`'s bytes).
    /// All zero between cycles: the sweep clears the levels it visited.
    /// At load, the leaf range `[n, 2n)` counts destinations per leaf.
    down_cnt: Vec<u32>,
    /// Can anyone read [`Self::channel_use`] after a cycle? Always, except
    /// in the run drivers under a disabled recorder, which own their arena;
    /// the fused sweeps then skip the loads and visit only the levels the
    /// run can fill.
    loads_read: bool,
    /// Injection: messages placed so far on each leaf's up channel.
    per_leaf: Vec<u32>,
    /// Counting-sort scratch of the fused load's source sort (`n + 1`).
    offsets: Vec<u32>,
    // --- level-pass slot-table state ---
    /// Generation-stamped global (node, slot) table, one entry per
    /// `node_rel * r + slot` holding the contending message index. Bumping
    /// the generation per pass replaces clearing (see [`GenTable`]).
    tbl: GenTable,
    /// Per-bucket `count << 32 | min_slot`, rebuilt densely each pass.
    bucket_meta: Vec<u64>,
    /// Level-pass arbitration scratch.
    scratch: ArbScratch,
    // --- per-cycle outputs ---
    delivered: Vec<u32>,
    dropped: Vec<u32>,
    channel_use: LoadMap,
}

impl SimArena {
    /// Scratch sized for `ft`, with `cfg`'s fault pattern baked into the
    /// effective capacities.
    pub fn new(ft: &FatTree, cfg: &SimConfig) -> Self {
        let n = ft.n();
        let height = ft.height();
        let caps = EffectiveCaps::new(ft, &cfg.faults);
        // Without faults a level's channels are alike: its first node decides.
        let nodes = |k: u32| 1 << k..(1 << k) + if caps.uniform() { 1 } else { 1 << k };
        let up = |v: u32| caps.eff(ft.level_of(v), ChannelId::up(v));
        let free = |k: u32| k < height && nodes(k).all(|v| up(v) >= up(2 * v) + up(2 * v + 1));
        let up_binding = (1..=height)
            .filter(|&k| !free(k))
            .fold(0, |m, k| m | 1 << k);
        let mut leaf_share = [[0u64; 33]; 2];
        for k in 1..=height {
            for (share, dir) in leaf_share.iter_mut().zip([ChannelId::up, ChannelId::down]) {
                let min = nodes(k).map(|v| caps.eff(k, dir(v))).min();
                share[k as usize] = min.unwrap_or(0) >> (height - k);
            }
        }
        SimArena {
            n,
            height,
            faults: cfg.faults,
            caps,
            ports: Vec::new(),
            fused_body: false,
            meta: Vec::new(),
            meta32: Vec::new(),
            peer32: Vec::new(),
            wire: Vec::new(),
            ids: Vec::new(),
            orig: Vec::new(),
            done: Vec::new(),
            turn: Vec::new(),
            up_binding,
            leaf_share,
            levels: [0; 2],
            down_cnt: vec![0; 2 * n as usize],
            loads_read: true,
            per_leaf: vec![0; n as usize],
            offsets: Vec::with_capacity(n as usize + 1),
            tbl: GenTable::new(),
            bucket_meta: Vec::new(),
            scratch: ArbScratch::default(),
            delivered: Vec::new(),
            dropped: Vec::new(),
            channel_use: LoadMap::zeros(ft),
        }
    }

    /// Delivered message indices from the last cycle: submitted indices,
    /// ascending — or, after [`Self::shard_down`], the coordinator-global
    /// ids of the locals, intra-shard survivors and incoming claims that
    /// survived the final descent.
    pub fn delivered_indices(&self) -> &[u32] {
        &self.delivered
    }

    /// Dropped message indices from the last cycle, as
    /// [`Self::delivered_indices`] lists deliveries (after
    /// [`Self::shard_down`], exported claims are in neither list).
    pub fn dropped_indices(&self) -> &[u32] {
        &self.dropped
    }

    /// Per-channel wire usage from the last cycle.
    pub fn channel_use(&self) -> &LoadMap {
        &self.channel_use
    }

    /// The *binding* up levels, leaf level first: the only ones at which a
    /// climbing message can die. Level `k < height` is *free*, and left
    /// out, iff every node `v` at depth `k` has `eff(up(v)) ≥ eff(up(2v)) +
    /// eff(up(2v+1))` under this arena's faults: at most that many winners
    /// reach `v`'s up port, whose bound `min(outputs, eff)` is `eff`, so it
    /// admits them all whatever other levels do. The leaf level always
    /// binds: a processor may submit any number of messages.
    pub fn binding_up_levels(&self) -> Vec<u32> {
        (1..=self.height)
            .rev()
            .filter(|&k| self.up_binding >> k & 1 == 1)
            .collect()
    }

    /// The levels a fused run of `src` visits when nobody reads its loads,
    /// as `[up, down]` bit masks (bit `k` for level `k`); loads `src` the
    /// way the run drivers do, replacing the arena's pending set.
    ///
    /// Let `D_up` be the most messages of `src` on one source leaf. Up
    /// level `k` is in the mask iff it is binding
    /// ([`Self::binding_up_levels`]) and `D_up · 2^(height − k)` exceeds the
    /// smallest `eff` of the level's up channels; the down mask is
    /// `{k : D_down · 2^(height − k) > min eff(down(v))}` for `D_down`, the
    /// most messages on one destination leaf. A channel at level `k` serves
    /// `2^(height − k)` leaves, so a level outside the mask is never offered
    /// more messages than its wires, in any cycle of the run (the pending
    /// set only shrinks): skipping it changes no decision (DESIGN.md §10,
    /// the run-level lemma).
    ///
    /// # Panics
    /// If `ft` is not the tree the arena was built for.
    pub fn run_levels<S: MessageStream + ?Sized>(&mut self, ft: &FatTree, src: &S) -> [u32; 2] {
        let cfg = SimConfig {
            faults: self.faults,
            ..SimConfig::default()
        };
        let read = std::mem::replace(&mut self.loads_read, false);
        self.load(ft, src, &cfg, &mut NoopRecorder);
        self.loads_read = read;
        self.levels
    }

    /// The levels `1..=height`, as a mask.
    fn all_levels(&self) -> u32 {
        ((2u64 << self.height) - 2) as u32
    }

    /// The levels (of `1..=height`) a run with at most `d` messages per
    /// leaf at the `dir` end (0 up, 1 down) can fill: `d > leaf_share`.
    fn fillable(&self, dir: usize, d: u64) -> u32 {
        let share = &self.leaf_share[dir];
        (1..=self.height)
            .filter(|&k| d > share[k as usize])
            .fold(0, |m, k| m | 1 << k)
    }

    /// `D_down` of the loaded run, or any value above the largest down
    /// `leaf_share` (every down level is fillable then) once one leaf
    /// exceeds it — after reading as few destinations as that takes: about
    /// `√n` for random destinations. Counts in `down_cnt`'s leaf range and
    /// clears what it counted.
    fn dest_bound(&mut self) -> u64 {
        let cap = self.leaf_share[1].iter().copied().max().unwrap_or(0);
        let cnt = &mut self.down_cnt[..];
        let (mut most, mut read) = (0u64, 0);
        for &leaf in &self.peer32 {
            let c = &mut cnt[leaf as usize];
            *c += 1;
            most = most.max(*c as u64);
            read += 1;
            if most > cap {
                break;
            }
        }
        for &leaf in &self.peer32[..read] {
            cnt[leaf as usize] = 0;
        }
        most
    }

    /// Cached port switch for a shape, creating it on first use. Partial
    /// switches are sampled from a seed derived from the shape, so creation
    /// order cannot change their wiring.
    fn port_index(&mut self, kind: SwitchKind, r: usize, s: usize) -> usize {
        if let Some(p) = self.ports.iter().position(|&(key, _)| key == (kind, r, s)) {
            return p;
        }
        self.ports.push(((kind, r, s), PortSwitch::new(kind, r, s)));
        self.ports.len() - 1
    }

    /// Was this arena built for `ft` under `faults`? `n`, the per-level
    /// capacities and the fault pattern are everything [`Self::new`] bakes
    /// in; the rest of a [`SimConfig`] is read per cycle.
    fn built_for(&self, ft: &FatTree, faults: &FaultModel) -> bool {
        self.n == ft.n() && self.caps.level_caps() == ft.level_caps() && self.faults == *faults
    }

    /// Run one delivery cycle of `msgs` on `ft`, reusing all scratch: a
    /// fresh load and one step of the body `cfg` selects.
    ///
    /// Winner/loser indices and channel usage are readable through the
    /// accessors until the next call.
    ///
    /// # Panics
    /// As every `cycle*` entry point does, before anything is allocated: if
    /// there are more than [`MAX_MESSAGES`] messages, or if `ft` or
    /// `cfg.faults` is not what the arena was built for (another `n`,
    /// another per-level capacity, another fault pattern) — an O(height)
    /// check in every build.
    pub fn cycle(&mut self, ft: &FatTree, msgs: &[Message], cfg: &SimConfig) -> CycleStats {
        self.cycle_source(ft, msgs, cfg)
    }

    /// Run one delivery cycle of a lazily generated stream: metadata is
    /// packed directly from the generator in a single replay, so no
    /// `Vec<Message>` of the stream's length ever exists.
    ///
    /// Byte-identical to [`Self::cycle`] on the materialized set (same
    /// cycle body, same arbitration outcomes).
    pub fn cycle_stream(
        &mut self,
        ft: &FatTree,
        stream: &dyn MessageStream,
        cfg: &SimConfig,
    ) -> CycleStats {
        self.cycle_source(ft, stream, cfg)
    }

    /// One cycle from a fresh load of either message source, then the
    /// dropped list: submitted and not delivered (both lists ascend).
    fn cycle_source<S: MessageStream + ?Sized>(
        &mut self,
        ft: &FatTree,
        src: &S,
        cfg: &SimConfig,
    ) -> CycleStats {
        self.load(ft, src, cfg, &mut NoopRecorder);
        let stats = self.step(ft, cfg, &mut NoopRecorder);
        let mut d = self.delivered.iter().peekable();
        self.dropped.clear();
        self.dropped
            .extend((0..src.len() as u32).filter(|i| d.next_if_eq(&i).is_none()));
        stats
    }

    /// Does a run under `cfg` take the fused sweeps (else the level
    /// passes)? Read by [`Self::load`] alone: random-arbitration reseeding
    /// aside, a run's `cfg` never changes, so neither does the answer.
    fn fused(&self, cfg: &SimConfig) -> bool {
        cfg.meta == MetaWidth::Auto
            && matches!(cfg.switch, SwitchKind::Ideal)
            && matches!(cfg.arbitration, Arbitration::SlotOrder)
    }

    /// Make `src` the pending set, packed for the body `cfg` selects — the
    /// one place that choice is made; every [`Self::step`] until the next
    /// load runs that body. Checks the arena's key and the length first
    /// (see [`Self::cycle`]'s panics).
    fn load<S: MessageStream + ?Sized, R: Recorder>(
        &mut self,
        ft: &FatTree,
        src: &S,
        cfg: &SimConfig,
        rec: &mut R,
    ) {
        // Refuse a longer load before anything is sized by its length.
        let len = src.len();
        assert!(
            len <= MAX_MESSAGES,
            "{len} messages exceed the engine's limit of {MAX_MESSAGES} per run (u32 message indices)"
        );
        assert!(
            self.built_for(ft, &cfg.faults),
            "arena built for a different tree or fault pattern"
        );
        self.fused_body = self.fused(cfg);
        if self.fused_body {
            self.load_fused(ft, src, rec);
        } else {
            let mut clock = PhaseClock::start::<R>();
            self.pack(ft, src);
            self.orig.clone_from(&self.ids);
            clock.lap(rec, EnginePhase::Ingest);
        }
    }

    /// One delivery cycle on the resident pending set, on the body the
    /// load chose. Afterwards `delivered` lists the cycle's deliveries by
    /// ascending submitted index, and the survivors are compacted in place,
    /// in their order and revived: exactly the state a fresh load of them
    /// would build.
    fn step<R: Recorder>(&mut self, ft: &FatTree, cfg: &SimConfig, rec: &mut R) -> CycleStats {
        if self.fused_body {
            self.step_fused(cfg, rec)
        } else {
            self.step_passes(ft, cfg, rec)
        }
    }

    /// Pack `meta` for the level passes straight from a message source (a
    /// slice or a lazy stream — no intermediate `Vec<Message>`), with
    /// identity arbitration ids, matching the reference engine (the shard
    /// entry points overwrite them with coordinator-global ids).
    fn pack<S: MessageStream + ?Sized>(&mut self, ft: &FatTree, src: &S) {
        let n_msgs = src.len();
        self.wire.clear();
        self.wire.resize(n_msgs, 0);
        self.meta.clear();
        self.meta.reserve(n_msgs);
        let meta = &mut self.meta;
        for_each_message(src, |_, m| {
            let lca = ft.lca(m.src, m.dst);
            meta.push(meta_pack(
                m.is_local(),
                31 - lca.leading_zeros(),
                ft.leaf(m.src),
                ft.leaf(m.dst),
            ));
        });
        self.ids.clear();
        self.ids.extend(0..n_msgs as u32);
    }

    /// Injection: each processor assigns its (alive, non-local) messages to
    /// leaf up-wires in submission order; overflow beyond the leaf channel
    /// capacity dies immediately.
    fn inject(&mut self) {
        self.per_leaf.fill(0);
        self.channel_use.clear();
        for (i, w) in self.meta.iter_mut().enumerate() {
            let m = *w;
            if m & META_LOCAL != 0 {
                continue;
            }
            let sleaf = meta_src(m);
            let up = ChannelId::up(sleaf);
            let leaf_cap = self.caps.eff(self.height, up) as u32;
            let cnt = &mut self.per_leaf[(sleaf - self.n) as usize];
            if *cnt < leaf_cap {
                self.wire[i] = *cnt;
                *cnt += 1;
                self.channel_use.add_one(up);
            } else {
                *w = m & !META_ALIVE; // source port congested immediately
            }
        }
    }

    /// Load for the fused body: pack `src` into `meta32` / `peer32` (noting
    /// for free whether the sources came non-decreasing, and their longest
    /// run) and counting-sort them by source leaf, `orig` mapping positions
    /// back to submitted indices — once; every later cycle of the run
    /// inherits the order. Sources that come sorted, as most generators'
    /// do, skip the sort. Then the run's `levels`: when loads go unread,
    /// only those its busiest source and destination leaves can fill.
    fn load_fused<S: MessageStream + ?Sized, R: Recorder>(
        &mut self,
        ft: &FatTree,
        src: &S,
        rec: &mut R,
    ) {
        let mut clock = PhaseClock::start::<R>();
        self.meta32.clear();
        self.meta32.reserve(src.len());
        self.peer32.clear();
        self.peer32.reserve(src.len());
        // `run`: messages so far from source `prev`; `d_up`: the longest
        // run, which is `D_up` if the sources come sorted.
        let (mut sorted, mut prev, mut run, mut d_up) = (true, 0, 0, 0);
        let (meta32, peer32) = (&mut self.meta32, &mut self.peer32);
        for_each_message(src, |_, m| {
            let s = m.src.0;
            sorted &= prev <= s;
            run = if s == prev { run + 1 } else { 1 };
            (prev, d_up) = (s, d_up.max(run));
            let lca = ft.lca(m.src, m.dst);
            meta32.push(nmeta_pack(
                m.is_local(),
                31 - lca.leading_zeros(),
                ft.leaf(m.src),
            ));
            peer32.push(ft.leaf(m.dst));
        });
        self.orig.clear();
        self.orig.extend(0..src.len() as u32);
        self.done.clear();
        self.done.resize(src.len().div_ceil(64), 0);
        let d_down = if self.loads_read {
            0
        } else {
            self.dest_bound()
        };
        clock.lap(rec, EnginePhase::Ingest);
        if !sorted {
            d_up = self.sort_by_source();
        }
        self.levels = if self.loads_read {
            [self.all_levels(); 2]
        } else {
            [
                self.up_binding & self.fillable(0, d_up as u64),
                self.fillable(1, d_down),
            ]
        };
        clock.lap(rec, EnginePhase::SourceSort);
    }

    /// The fused load's source sort: stable counting sort of the freshly
    /// packed `meta32` / `peer32` by source leaf (heap ids `[n, 2n)`),
    /// staged through `turn`, leaving each position's submitted index in
    /// `orig`. Returns `D_up`, the largest bucket.
    fn sort_by_source(&mut self) -> u32 {
        let n = self.n as usize;
        let leaf = |m: u32| nmeta_src(m) as usize - n;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &m in self.meta32.iter() {
            self.offsets[leaf(m) + 1] += 1;
        }
        let d_up = self.offsets.iter().copied().max().unwrap_or(0);
        for k in 0..n {
            self.offsets[k + 1] += self.offsets[k];
        }
        self.turn.clear();
        self.turn.resize(self.meta32.len(), 0);
        for (j, (&m, &peer)) in self.meta32.iter().zip(&self.peer32).enumerate() {
            let at = &mut self.offsets[leaf(m)];
            self.turn[*at as usize] = (m as u64) << 32 | peer as u64;
            self.orig[*at as usize] = j as u32;
            *at += 1;
        }
        for ((m, peer), &staged) in self.meta32.iter_mut().zip(&mut self.peer32).zip(&self.turn) {
            (*m, *peer) = ((staged >> 32) as u32, staged as u32);
        }
        d_up
    }

    /// [`Self::step`] on the fused body: both sweeps, then one settle pass
    /// that marks the delivered submitted indices in `done` and compacts
    /// the survivors in place, revived — order-preserving, so the arrays
    /// are exactly what a fresh load of the survivors would build.
    /// Draining the touched words of `done` lists the deliveries by
    /// ascending submitted index: the FIFO order of
    /// [`Self::delivered_indices`] and [`RunReport::delivery_order`].
    fn step_fused<R: Recorder>(&mut self, cfg: &SimConfig, rec: &mut R) -> CycleStats {
        let mut clock = PhaseClock::start::<R>();
        let survivors = self.up_phase_fused();
        clock.lap(rec, EnginePhase::UpSweep);
        self.down_phase_fused(&survivors);
        clock.lap(rec, EnginePhase::DownSweep);
        // Plain slices: indexed through `self`, the three `Vec` headers are
        // reloaded after every store and this pass reads 17 % slower (E18).
        let (meta, peer, orig) = (
            &mut self.meta32[..],
            &mut self.peer32[..],
            &mut self.orig[..],
        );
        let (mut k, mut lo, mut hi, mut ticks) = (0, usize::MAX, 0, 0);
        for p in 0..meta.len() {
            let (m, i) = (meta[p], orig[p]);
            if m & NMETA_ALIVE != 0 {
                if m & NMETA_LOCAL == 0 {
                    ticks = ticks.max(latency(self.height, nmeta_lca(m), cfg.payload_bits));
                }
                let w = (i >> 6) as usize;
                self.done[w] |= 1 << (i & 63);
                (lo, hi) = (lo.min(w), hi.max(w));
            } else {
                (meta[k], peer[k], orig[k]) = (m | NMETA_ALIVE, peer[p], i);
                k += 1;
            }
        }
        self.meta32.truncate(k);
        self.peer32.truncate(k);
        self.orig.truncate(k);
        self.delivered.clear();
        for (w, bits) in self.done.iter_mut().enumerate().take(hi + 1).skip(lo) {
            while *bits != 0 {
                self.delivered.push((w as u32) << 6 | bits.trailing_zeros());
                *bits &= *bits - 1;
            }
        }
        clock.lap(rec, EnginePhase::Settle);
        let delivered = self.delivered.len();
        CycleStats { delivered, ticks }
    }

    /// [`Self::step`] on the level passes (whatever [`Self::fused`] turns
    /// away): injection, one [`Self::level_pass`] per level and direction
    /// over a plain scan of the metadata, then one settle pass that lists
    /// the deliveries through `orig` (positions stay in submitted order, so
    /// the list ascends) and compacts the survivors in place, revived — a
    /// fresh load of the survivors. `ids` is left alone: the load's identity
    /// map, whose prefix is the identity over the survivors' positions,
    /// which is what random arbitration hashes (as the reference engine
    /// does after re-indexing them).
    fn step_passes<R: Recorder>(
        &mut self,
        ft: &FatTree,
        cfg: &SimConfig,
        rec: &mut R,
    ) -> CycleStats {
        let mut clock = PhaseClock::start::<R>();
        self.inject();
        clock.lap(rec, EnginePhase::Ingest);
        for node_level in (0..self.height).rev() {
            self.level_pass(ft, cfg, true, node_level);
        }
        clock.lap(rec, EnginePhase::UpSweep);
        for node_level in 0..self.height {
            self.level_pass(ft, cfg, false, node_level);
        }
        clock.lap(rec, EnginePhase::DownSweep);
        let (meta, orig) = (&mut self.meta[..], &mut self.orig[..]);
        let (mut k, mut ticks) = (0, 0);
        self.delivered.clear();
        for p in 0..meta.len() {
            let (m, i) = (meta[p], orig[p]);
            if m & META_ALIVE != 0 {
                if m & META_LOCAL == 0 {
                    ticks = ticks.max(latency(self.height, meta_lca(m), cfg.payload_bits));
                }
                self.delivered.push(i);
            } else {
                (meta[k], orig[k]) = (m | META_ALIVE, i);
                k += 1;
            }
        }
        self.meta.truncate(k);
        self.orig.truncate(k);
        self.wire.truncate(k);
        clock.lap(rec, EnginePhase::Settle);
        let delivered = self.delivered.len();
        CycleStats { delivered, ticks }
    }

    /// A shard cycle's bookkeeping after its last level pass: the delivered
    /// / dropped lists by arbitration id and the cycle's ticks. A claim
    /// exported by [`Self::shard_up`] is in neither list.
    fn settle(&mut self, cfg: &SimConfig) -> CycleStats {
        self.delivered.clear();
        self.dropped.clear();
        let mut ticks = 0;
        for (i, &m) in self.meta.iter().enumerate() {
            if m & META_ALIVE != 0 {
                self.delivered.push(self.ids[i]);
                if m & META_LOCAL == 0 {
                    ticks = ticks.max(latency(self.height, meta_lca(m), cfg.payload_bits));
                }
            } else if self.wire[i] != CROSSED {
                self.dropped.push(self.ids[i]);
            }
        }
        let delivered = self.delivered.len();
        CycleStats { delivered, ticks }
    }

    /// One level pass: one scan scatters every contender straight into a
    /// generation-stamped global (node, slot) table — `tbl[k·r + slot]`
    /// holds `gen << 32 | message` — while `bucket_meta[k]` accumulates
    /// `count << 32 | min_slot`. Arbitration then walks each bucket's slot
    /// range in place: ascending-slot order falls out of the table layout,
    /// so there is no counting sort, no prefix sum and no bucket array at
    /// all. Winners and losers are written directly into per-message state.
    ///
    /// Correctness leans on slots within a bucket being distinct (wires on
    /// a channel are unique ranks, injection wires are unique per leaf);
    /// the walk visits exactly `count` stamped entries.
    fn level_pass(&mut self, ft: &FatTree, cfg: &SimConfig, up: bool, node_level: u32) {
        let height = self.height;
        // Bucket keys: the switching node for the up phase, the destination
        // child (which already encodes the `goes_right` side) for the down.
        let key_level = if up { node_level } else { node_level + 1 };
        let lo = 1u32 << key_level;
        let nk = lo as usize; // nodes at key_level

        let (r, s) = if up {
            let capc = ft.cap_at_level(node_level + 1) as usize;
            (2 * capc, ft.cap_at_level(node_level) as usize)
        } else {
            let cap_in_parent = ft.cap_at_level(node_level) as usize;
            let cap_side = ft.cap_at_level(node_level + 1) as usize;
            (cap_in_parent + cap_side, cap_side)
        };
        let params = PhaseParams {
            up,
            node_level,
            height,
            slot_base: if up {
                ft.cap_at_level(node_level + 1) as u32
            } else {
                ft.cap_at_level(node_level) as u32
            },
            lo,
        };

        let shift = height - key_level;
        let sw_idx = self.port_index(cfg.switch, r, s);

        self.tbl.begin(nk * r);
        // Bucket table: `count << 32 | min_slot` per node, empty =
        // `EMPTY_BUCKET` (count 0, min-slot MAX).
        const EMPTY_BUCKET: u64 = u32::MAX as u64;
        self.bucket_meta.clear();
        self.bucket_meta.resize(nk, EMPTY_BUCKET);

        let mut any = false;
        for (i, &m) in self.meta.iter().enumerate() {
            if !meta_eligible(m) {
                continue;
            }
            let ll = meta_lca(m);
            if (up && ll >= node_level) || (!up && ll > node_level) {
                continue;
            }
            // Keyed on the source leaf going up, the destination coming down.
            let key_leaf = if up { meta_src(m) } else { meta_dst(m) };
            let k = ((key_leaf >> shift) - lo) as usize;
            let slot = params.slot(m, self.wire[i]);
            let idx = k * r + slot as usize;
            debug_assert!(self.tbl.get(idx).is_none(), "duplicate slot in bucket");
            self.tbl.set(idx, i as u32);
            let bm = &mut self.bucket_meta[k];
            *bm = (((*bm >> 32) + 1) << 32) | ((*bm as u32).min(slot) as u64);
            any = true;
        }
        if !any {
            return;
        }

        let SimArena {
            ports,
            caps,
            meta,
            wire,
            ids,
            channel_use,
            tbl,
            bucket_meta,
            scratch,
            ..
        } = self;
        let sw = &ports[sw_idx].1;
        let arb = cfg.arbitration;

        let mut arbitrate_bucket = |k_rel: usize, bm: u64| {
            let b = (bm >> 32) as u32;
            let min_slot = bm as u32 as usize;
            let chan = params.channel(k_rel);
            let e = caps.eff(key_level, chan);
            let base = k_rel * r;

            // Singleton fast path: one contender on an ideal port always
            // wins wire 0 (effective capacities are floored at 1). By far
            // the common case at deep tree levels.
            if b == 1 && matches!(sw, PortSwitch::Ideal(_)) && matches!(arb, Arbitration::SlotOrder)
            {
                let i = tbl.get(base + min_slot).expect("min_slot entry live") as usize;
                wire[i] = 0;
                channel_use.add_one(chan);
                return;
            }

            match arb {
                Arbitration::SlotOrder => match sw {
                    PortSwitch::Ideal(cb) => {
                        let winners = (cb.outputs() as u64).min(e).min(b as u64) as u32;
                        let mut rank = 0u32;
                        let mut idx = base + min_slot;
                        while rank < b {
                            if let Some(i) = tbl.get(idx) {
                                let i = i as usize;
                                if rank < winners {
                                    wire[i] = rank;
                                    channel_use.add_one(chan);
                                } else {
                                    meta[i] &= !META_ALIVE;
                                }
                                rank += 1;
                            }
                            idx += 1;
                        }
                    }
                    PortSwitch::Partial { .. } => {
                        scratch.sort_buf.clear();
                        scratch.active.clear();
                        let mut seen = 0u32;
                        let mut idx = base + min_slot;
                        while seen < b {
                            if let Some(i) = tbl.get(idx) {
                                scratch.sort_buf.push((i, (idx - base) as u32));
                                scratch.active.push(idx - base);
                                seen += 1;
                            }
                            idx += 1;
                        }
                        let routed = sw.concentrate_with(&mut scratch.matching, &scratch.active);
                        for (&(i, _), w) in scratch.sort_buf.iter().zip(routed) {
                            apply_outcome(i as usize, w, e, chan, meta, wire, channel_use);
                        }
                    }
                },
                Arbitration::Random(seed) => {
                    // Collect all contenders (slot-ascending), then rank by
                    // per-message hash as in the reference. The hash key is
                    // the message's arbitration id (identity map for plain
                    // cycles, coordinator-global for shard cycles).
                    scratch.sort_buf.clear();
                    let mut seen = 0u32;
                    let mut idx = base + min_slot;
                    while seen < b {
                        if let Some(i) = tbl.get(idx) {
                            scratch.sort_buf.push((i, (idx - base) as u32));
                            seen += 1;
                        }
                        idx += 1;
                    }
                    scratch.sort_buf.sort_unstable_by_key(|&(i, s)| {
                        (
                            splitmix64(
                                seed ^ (ids[i as usize] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            ),
                            s,
                        )
                    });
                    match sw {
                        PortSwitch::Ideal(cb) => {
                            let s_out = cb.outputs();
                            for (j, &(i, _)) in scratch.sort_buf.iter().enumerate() {
                                let i = i as usize;
                                if j < s_out && (j as u64) < e {
                                    wire[i] = j as u32;
                                    channel_use.add_one(chan);
                                } else {
                                    meta[i] &= !META_ALIVE;
                                }
                            }
                        }
                        PortSwitch::Partial { .. } => {
                            scratch.active.clear();
                            scratch
                                .active
                                .extend(scratch.sort_buf.iter().map(|&(_, s)| s as usize));
                            let routed =
                                sw.concentrate_with(&mut scratch.matching, &scratch.active);
                            for (&(i, _), w) in scratch.sort_buf.iter().zip(routed) {
                                apply_outcome(i as usize, w, e, chan, meta, wire, channel_use);
                            }
                        }
                    }
                }
            }
        };

        for (k_rel, &bm) in bucket_meta.iter().enumerate() {
            if (bm >> 32) as u32 != 0 {
                arbitrate_bucket(k_rel, bm);
            }
        }
    }

    /// The whole up phase, injection included, in one sweep over the
    /// source-sorted metadata — ideal switches, slot-order arbitration.
    ///
    /// Two facts make this exact (DESIGN.md §10 has the proofs). First,
    /// within any up bucket slot order equals array order: a leaf's run is
    /// in submission order (the load sort is stable), so injection — level
    /// `height` of the climb — hands out wires in array order, and a
    /// level's winners take `wire = rank` in slot order, which in a
    /// source-sorted scan is array order again. Second, an ideal port
    /// admits a contender iff `rank < min(outputs, eff)` — that is `eff`,
    /// for `eff ≤ cap` — so a message's fate at a level depends only on how
    /// many earlier survivors share its node. One counter per level
    /// therefore replaces the per-level scan/fill/arbitrate machinery: each
    /// message walks its own climb (levels `height ..= lca+1`) and loses at
    /// the first full channel. The climb visits only the run's up
    /// `levels`: a free level ([`Self::binding_up_levels`]), or one the
    /// run's busiest source leaf cannot fill ([`Self::run_levels`]), never
    /// is full, so it is climbed only when its load can be read; loads
    /// settle per (level, node) when the sweep leaves the node's contiguous
    /// span. No wire is recorded: [`Self::down_phase_fused`] needs a
    /// survivor's rank among the survivors sharing its last channel, which
    /// is their array order. Returns the survivors per LCA level, which the
    /// down sweep buckets by.
    fn up_phase_fused(&mut self) -> [u32; 32] {
        let height = self.height as usize;
        let mut cur_node = [u32::MAX; 32];
        let mut count = [0u32; 32];
        let mut wincap = [0u32; 32];
        let caps = &self.caps;
        let observed = self.loads_read;
        // The run's up levels as a list, leaf level first: popping the
        // mask's highest bit per step put a `leading_zeros` on the climb's
        // dependency chain and read ≈ 10 % slower on a 2-relation.
        let (mut list, mut len) = ([0usize; 32], 0);
        for k in (1..=height).rev().filter(|&k| self.levels[0] >> k & 1 == 1) {
            (list[len], len) = (k, len + 1);
        }
        let levels = &list[..len];
        let mut survivors = [0u32; 32];
        let channel_use = &mut self.channel_use;
        if observed {
            channel_use.clear();
        }

        for word in self.meta32.iter_mut().filter(|m| nmeta_eligible(**m)) {
            let m = *word;
            let (s, lca) = (nmeta_src(m), nmeta_lca(m) as usize);
            let mut alive = 1;
            for &lvl in levels.iter().take_while(|&&l| l > lca) {
                let node = s >> (height - lvl);
                if cur_node[lvl] != node {
                    if observed && cur_node[lvl] != u32::MAX {
                        channel_use.add_count(ChannelId::up(cur_node[lvl]), count[lvl] as u64);
                    }
                    cur_node[lvl] = node;
                    count[lvl] = 0;
                    wincap[lvl] = caps.eff(lvl as u32, ChannelId::up(node)) as u32;
                }
                if count[lvl] >= wincap[lvl] {
                    *word = m & !NMETA_ALIVE;
                    alive = 0;
                    break;
                }
                count[lvl] += 1;
            }
            survivors[lca] += alive;
        }
        for lvl in 0..=height {
            if observed && cur_node[lvl] != u32::MAX {
                channel_use.add_count(ChannelId::up(cur_node[lvl]), count[lvl] as u64);
            }
        }
        survivors
    }

    /// The whole down phase in one sweep — same configurations as
    /// [`Self::up_phase_fused`], whose survivors (the eligible entries of
    /// the source-sorted `meta32`) it consumes.
    ///
    /// Let ≺ order those survivors by *(LCA level ascending — root first —
    /// then position in `meta32`)*. **Lemma** (proved in DESIGN.md §10): on
    /// every down channel, slot order is ≺ restricted to the channel's
    /// contenders — descenders precede turners, and each group inherits ≺
    /// from the channel it arrived on. An ideal port admits a contender iff
    /// fewer than `min(outputs, eff)` earlier contenders were admitted, so
    /// visiting the survivors in ≺ and letting each walk its whole descent
    /// (`lca+1 ..= height`) reproduces every port's decision: the count of
    /// its ≺-predecessors on a channel *is* the channel's counter. A
    /// message that dies at a deeper port keeps the wires it won above it,
    /// as in the per-level passes. The sweep stable-buckets the survivors
    /// by LCA level into `turn` (that concatenation is ≺; the up sweep
    /// counted the buckets) and runs them against `down_cnt`, on the run's
    /// down `levels` only: a level the run's busiest destination leaf
    /// cannot fill never refuses anyone ([`Self::run_levels`]).
    /// Byte-identical to the per-level passes — pinned by the goldens and
    /// `tests/proptests.rs`.
    fn down_phase_fused(&mut self, survivors: &[u32; 32]) {
        let height = self.height as usize;

        // Bucket boundaries: `start[l]..start[l + 1]` holds LCA level `l`.
        let mut start = [0usize; 33];
        for l in 0..height {
            start[l + 1] = start[l] + survivors[l] as usize;
        }
        self.turn.clear();
        self.turn.resize(start[height], 0);
        let mut cursor = start;
        let words = self.meta32.iter().enumerate();
        for (p, &m) in words.filter(|&(_, &m)| nmeta_eligible(m)) {
            let at = &mut cursor[nmeta_lca(m) as usize];
            self.turn[*at] = (self.peer32[p] as u64) << 32 | p as u64;
            *at += 1;
        }

        let levels = self.levels[1];
        let (cnt, meta32, caps) = (&mut self.down_cnt[..], &mut self.meta32[..], &self.caps);
        for lca in 0..height {
            // The levels below the LCA, top (lowest bit) first.
            let descent = levels & !((2 << lca) - 1);
            if descent == 0 {
                break;
            }
            for &word in &self.turn[start[lca]..start[lca + 1]] {
                let dst = (word >> 32) as u32;
                let mut rest = descent;
                while rest != 0 {
                    let lvl = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let node = (dst >> (height - lvl)) as usize;
                    if cnt[node] as u64 >= caps.eff(lvl as u32, ChannelId::down(node as u32)) {
                        meta32[word as u32 as usize] &= !NMETA_ALIVE;
                        break;
                    }
                    cnt[node] += 1;
                }
            }
        }
        if self.loads_read {
            for (node, &c) in cnt.iter().enumerate().skip(1) {
                self.channel_use
                    .add_count(ChannelId::down(node as u32), c as u64);
            }
        }
        let mut visited = levels;
        while visited != 0 {
            let k = visited.trailing_zeros();
            visited &= visited - 1;
            cnt[1 << k..2 << k].fill(0);
        }
    }
}

/// Bit ticks of a delivered non-local message whose LCA is at `lca`:
/// 2·(nodes on its path) + payload (Fig. 2).
#[inline]
fn latency(height: u32, lca: u32, payload_bits: u32) -> u32 {
    2 * (2 * (height - lca) - 1) + payload_bits
}

/// A root-crossing message suspended at a shard boundary: everything the
/// coordinator needs to finish routing it. `id` is the coordinator-global
/// arbitration id (position in the coordinator's pending slice), `meta` the
/// packed metadata word, and `wire` the message's rank on the boundary-level
/// channel — the up channel of its source-side boundary node after
/// [`SimArena::shard_up`], the down channel of its destination-side boundary
/// node after [`SimArena::shard_top`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardClaim {
    /// Coordinator-global arbitration id.
    pub id: u32,
    /// Packed metadata word (alive/local/LCA level/leaves).
    pub meta: u64,
    /// Rank on the boundary-level channel.
    pub wire: u32,
}

impl ShardClaim {
    /// Has this claim survived every arbitration so far?
    #[inline]
    pub fn alive(&self) -> bool {
        self.meta & META_ALIVE != 0
    }

    /// Compact 62-bit wire descriptor: the LCA level and both leaves,
    /// without the alive/local flags. Exchanged claims are always alive and
    /// never local (locals settle inside their shard; dead claims are not
    /// shipped), so the flags carry no information on the wire and
    /// [`Self::from_descriptor`] reconstructs `meta` exactly.
    #[inline]
    pub fn descriptor(&self) -> u64 {
        debug_assert!(self.alive() && self.meta & META_LOCAL == 0);
        self.meta >> 2
    }

    /// Rebuild a claim from its [`Self::descriptor`] (alive, non-local).
    #[inline]
    pub fn from_descriptor(id: u32, wire: u32, desc: u64) -> ShardClaim {
        ShardClaim {
            id,
            meta: desc << 2 | META_ALIVE,
            wire,
        }
    }

    /// Index of the shard owning this claim's source subtree (the shard
    /// that exported it), mirroring [`Self::dst_shard`].
    #[inline]
    pub fn src_shard(&self, height: u32, boundary: u32) -> u32 {
        (meta_src(self.meta) >> (height - boundary)) - (1 << boundary)
    }

    /// Source leaf (heap id).
    #[inline]
    pub fn src_leaf(&self) -> u32 {
        meta_src(self.meta)
    }

    /// Destination leaf (heap id).
    #[inline]
    pub fn dst_leaf(&self) -> u32 {
        meta_dst(self.meta)
    }

    /// Index of the shard owning this claim's destination subtree, for a
    /// tree of the given height sharded at `boundary` levels below the root.
    #[inline]
    pub fn dst_shard(&self, height: u32, boundary: u32) -> u32 {
        (meta_dst(self.meta) >> (height - boundary)) - (1 << boundary)
    }
}

/// Shard-phase entry points: a distributed delivery cycle splits the plain
/// [`SimArena::cycle`] into three phases at a *boundary* level `k` (shard
/// `s` of `2^k` owns heap node `2^k + s` and the leaves below it). Sibling
/// subtrees use disjoint channels below the boundary, so
///
/// * [`Self::shard_up`] runs injection plus the up passes from the leaves
///   through the boundary nodes — exactly the passes of the single arena
///   restricted to one shard's messages, which are *all* the messages those
///   buckets ever see;
/// * [`Self::shard_top`] arbitrates the levels above the boundary over the
///   concatenation of every shard's surviving root-crossers;
/// * [`Self::shard_down`] finishes the down passes from the boundary to the
///   leaves of the destination shard.
///
/// Byte identity with the single arena holds for any shard count because
/// every bucket of every pass sees the same contender set with the same
/// (slot, arbitration-id) pairs, and bucket arbitration is a pure function
/// of those: slot order depends only on the (distinct) slots, and random
/// order hashes the coordinator-global id — never the position within
/// whichever arena the message happens to occupy.
impl SimArena {
    /// Phase 1 (shard side): load this shard's pending messages (`ids[i]`
    /// is the coordinator-global id of `msgs[i]`), inject, and run the up
    /// passes from the leaves through the boundary-level nodes. Every
    /// surviving message whose LCA lies *above* the boundary is appended to
    /// `claims` — carrying its rank on the boundary node's up channel — and
    /// suspended locally; the coordinator and the destination shard finish
    /// routing it. All of `msgs` must originate inside this shard's subtree.
    pub fn shard_up(
        &mut self,
        ft: &FatTree,
        msgs: &[Message],
        ids: &[u32],
        cfg: &SimConfig,
        boundary: u32,
        claims: &mut Vec<ShardClaim>,
    ) {
        debug_assert_eq!(self.n, ft.n(), "arena built for a different tree");
        debug_assert_eq!(self.faults, cfg.faults);
        assert_eq!(msgs.len(), ids.len());
        assert!(boundary <= self.height, "boundary below the leaves");
        self.pack(ft, msgs);
        self.ids.copy_from_slice(ids);
        self.inject();
        for node_level in (boundary..self.height).rev() {
            self.level_pass(ft, cfg, true, node_level);
        }
        for i in 0..self.meta.len() {
            let m = self.meta[i];
            if !meta_eligible(m) {
                continue;
            }
            if meta_lca(m) < boundary {
                claims.push(ShardClaim {
                    id: self.ids[i],
                    meta: m,
                    wire: self.wire[i],
                });
                self.meta[i] = m & !META_ALIVE;
                self.wire[i] = CROSSED;
            }
        }
    }

    /// Phase 2 (coordinator side): arbitrate the levels above the boundary
    /// over every shard's claims (the concatenation of all
    /// [`Self::shard_up`] outputs; order does not affect outcomes). On
    /// return each claim is either dead (lost to top contention) or alive
    /// with `wire` holding its rank on the boundary-level down channel of
    /// its destination subtree, ready for [`Self::shard_down`].
    pub fn shard_top(
        &mut self,
        ft: &FatTree,
        cfg: &SimConfig,
        boundary: u32,
        claims: &mut [ShardClaim],
    ) {
        debug_assert_eq!(self.n, ft.n(), "arena built for a different tree");
        debug_assert_eq!(self.faults, cfg.faults);
        assert!(boundary <= self.height, "boundary below the leaves");
        self.meta.clear();
        self.wire.clear();
        self.ids.clear();
        for c in claims.iter() {
            debug_assert!(c.alive(), "dead claim submitted to shard_top");
            debug_assert!(meta_lca(c.meta) < boundary, "claim turns below boundary");
            self.meta.push(c.meta);
            self.wire.push(c.wire);
            self.ids.push(c.id);
        }
        self.channel_use.clear();
        for node_level in (0..boundary).rev() {
            self.level_pass(ft, cfg, true, node_level);
        }
        for node_level in 0..boundary {
            self.level_pass(ft, cfg, false, node_level);
        }
        for (i, c) in claims.iter_mut().enumerate() {
            c.meta = self.meta[i];
            c.wire = self.wire[i];
        }
    }

    /// Phase 3 (shard side): append the surviving claims whose destination
    /// lies in this shard's subtree, run the down passes from the boundary
    /// to the leaves, and settle the cycle. Must follow this arena's
    /// [`Self::shard_up`] of the same cycle. Afterwards
    /// [`Self::delivered_indices`] and [`Self::dropped_indices`] report
    /// coordinator-global ids; claims this shard exported are in neither
    /// list (their fate is decided by the top and destination arenas).
    pub fn shard_down(
        &mut self,
        ft: &FatTree,
        cfg: &SimConfig,
        boundary: u32,
        incoming: &[ShardClaim],
    ) -> CycleStats {
        debug_assert_eq!(self.n, ft.n(), "arena built for a different tree");
        debug_assert_eq!(self.faults, cfg.faults);
        for c in incoming {
            debug_assert!(c.alive(), "dead claim submitted to shard_down");
            self.meta.push(c.meta);
            self.wire.push(c.wire);
            self.ids.push(c.id);
        }
        for node_level in boundary..self.height {
            self.level_pass(ft, cfg, false, node_level);
        }
        self.settle(cfg)
    }
}

/// Apply one concentrator outcome to a message: a routed wire under the
/// effective capacity advances, anything else dies.
#[inline]
fn apply_outcome(
    i: usize,
    routed: Option<u32>,
    e: u64,
    chan: ChannelId,
    meta: &mut [u64],
    wire: &mut [u32],
    channel_use: &mut LoadMap,
) {
    match routed {
        Some(w) if (w as u64) < e => {
            wire[i] = w;
            channel_use.add_one(chan);
        }
        _ => meta[i] &= !META_ALIVE,
    }
}

/// Arbitration scratch of [`SimArena::level_pass`].
#[derive(Default)]
struct ArbScratch {
    /// (message index, slot) contenders of one bucket: slot-ascending as
    /// collected, then sorted by priority under random arbitration.
    sort_buf: Vec<(u32, u32)>,
    /// Active slot list handed to partial concentrators.
    active: Vec<usize>,
    /// Reusable Hopcroft–Karp buffers for partial-concentrator matchings.
    matching: MatchingArena,
}

/// Simulate one delivery cycle of `msgs` on `ft`.
///
/// One-shot convenience over [`SimArena`]; callers running many cycles
/// should hold an arena and call [`SimArena::cycle`] to reuse its buffers.
/// Always a fresh arena, never the run drivers' warm one: the report takes
/// the arena's [`LoadMap`] by value.
pub fn simulate_cycle(ft: &FatTree, msgs: &[Message], cfg: &SimConfig) -> CycleReport {
    let mut arena = SimArena::new(ft, cfg);
    let stats = arena.cycle(ft, msgs, cfg);
    CycleReport {
        delivered: arena.delivered.iter().map(|&i| i as usize).collect(),
        dropped: arena.dropped.iter().map(|&i| i as usize).collect(),
        ticks: stats.ticks,
        channel_use: arena.channel_use,
    }
}

thread_local! {
    /// The calling thread's warm arena: see [`with_warm_arena`].
    static WARM: Cell<Option<SimArena>> = const { Cell::new(None) };
}

/// Run `run` on this thread's warm arena (module docs, "Warm arena"),
/// taken out of the slot for the whole run; rebuilt by [`SimArena::new`]
/// when the slot is empty or holds another key's (dropped first). A run
/// while the thread's locals are being destroyed runs cold, not panics.
fn with_warm_arena<T>(ft: &FatTree, cfg: &SimConfig, run: impl FnOnce(&mut SimArena) -> T) -> T {
    let warm = WARM.try_with(Cell::take).ok().flatten();
    let warm = warm.filter(|a| a.built_for(ft, &cfg.faults));
    let mut arena = warm.unwrap_or_else(|| SimArena::new(ft, cfg));
    let out = run(&mut arena);
    let _ = WARM.try_with(|slot| slot.set(Some(arena)));
    out
}

/// Run repeated delivery cycles (with acknowledgments and retries) until
/// every message is delivered.
///
/// The set is loaded once; every retry runs on the arena's compacted
/// pending set (module docs, "Engine structure"), and the identity of
/// every delivered message is recorded in [`RunReport::delivery_order`].
pub fn run_to_completion(ft: &FatTree, msgs: &MessageSet, cfg: &SimConfig) -> RunReport {
    run_to_completion_with(ft, msgs, cfg, &mut NoopRecorder)
}

/// [`run_to_completion`] with a telemetry [`Recorder`] observing the run:
/// [`Recorder::cycle_start`] / [`Recorder::cycle_end`] per delivery cycle,
/// [`Recorder::channel_load`] per channel per cycle and the engine phases.
/// With [`NoopRecorder`] this is exactly [`run_to_completion`]. Runs on
/// the thread's warm [`SimArena`] (module docs, "Warm arena").
pub fn run_to_completion_with<R: Recorder>(
    ft: &FatTree,
    msgs: &MessageSet,
    cfg: &SimConfig,
    rec: &mut R,
) -> RunReport {
    run_source(ft, msgs, cfg, rec)
}

/// [`run_to_completion`] over a lazily generated stream.
///
/// The load packs per-message metadata straight from the generator (the
/// only per-message state is the arena's flat metadata arrays plus a `u32`
/// original-index map — no `Vec<Message>` of the stream's length exists at
/// any point), and the stream is never replayed. The same loop as
/// [`run_to_completion`], so byte-identical to it on
/// [`MessageStream::collect_set`] on either cycle body, and — via the
/// goldens — to the reference engine.
///
/// # Panics
/// If the stream is longer than [`MAX_MESSAGES`] (checked before anything
/// is sized by its length), or a cycle delivers nothing.
pub fn run_stream_to_completion(
    ft: &FatTree,
    stream: &dyn MessageStream,
    cfg: &SimConfig,
) -> RunReport {
    run_stream_to_completion_with(ft, stream, cfg, &mut NoopRecorder)
}

/// [`run_stream_to_completion`] with a telemetry [`Recorder`] observing the
/// run: [`Recorder::stream_ingest`] once, then exactly the hooks of
/// [`run_to_completion_with`], on the same warm [`SimArena`].
pub fn run_stream_to_completion_with<R: Recorder>(
    ft: &FatTree,
    stream: &dyn MessageStream,
    cfg: &SimConfig,
    rec: &mut R,
) -> RunReport {
    if R::ENABLED {
        rec.stream_ingest(stream.family(), stream.len() as u64);
    }
    run_source(ft, stream, cfg, rec)
}

/// The retry loop of §II, the one function that iterates delivery cycles:
/// [`SimArena::load`] `src` once on the thread's warm arena, then
/// [`SimArena::step`] until nothing is pending. Random arbitration is
/// reseeded every cycle so drops are independent.
fn run_source<S: MessageStream + ?Sized, R: Recorder>(
    ft: &FatTree,
    src: &S,
    cfg: &SimConfig,
    rec: &mut R,
) -> RunReport {
    with_warm_arena(ft, cfg, |arena| {
        arena.loads_read = R::ENABLED;
        if R::ENABLED {
            rec.run_start(ft.height());
        }
        arena.load(ft, src, cfg, rec);
        let mut pending = src.len();
        let mut run = RunReport {
            cycles: 0,
            delivered_per_cycle: Vec::new(),
            total_ticks: 0,
            delivery_order: Vec::with_capacity(pending),
        };
        while pending > 0 {
            let cycle = run.cycles as u32;
            let mut cycle_cfg = *cfg;
            if let Arbitration::Random(seed) = cfg.arbitration {
                cycle_cfg.arbitration = Arbitration::Random(
                    seed.wrapping_add(cycle as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
            }
            if R::ENABLED {
                rec.cycle_start(cycle, pending as u32);
            }
            let stats = arena.step(ft, &cycle_cfg, rec);
            assert!(
                stats.delivered > 0,
                "no progress in a delivery cycle — switch cannot route even one message"
            );
            if R::ENABLED {
                for c in ft.channels() {
                    rec.channel_load(c.level(), arena.channel_use.get(c), ft.cap(c));
                }
                rec.cycle_end(cycle, stats.delivered as u32);
            }
            run.cycles += 1;
            run.delivered_per_cycle.push(stats.delivered);
            run.total_ticks += stats.ticks as u64;
            pending -= stats.delivered;
            let mut clock = PhaseClock::start::<R>();
            run.delivery_order
                .extend(arena.delivered.iter().map(|&i| i as usize));
            clock.lap(rec, EnginePhase::Compaction);
        }
        run
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::CapacityProfile;

    fn full(n: u32) -> FatTree {
        FatTree::new(n, CapacityProfile::FullDoubling)
    }

    #[test]
    fn one_cycle_set_delivers_fully_with_ideal_switches() {
        let t = full(32);
        let msgs: Vec<Message> = (0..32).map(|i| Message::new(i, 31 - i)).collect();
        let r = simulate_cycle(&t, &msgs, &SimConfig::default());
        assert_eq!(r.delivered.len(), 32);
        assert!(r.dropped.is_empty());
    }

    #[test]
    fn cycle_time_is_logarithmic() {
        // ticks = 2·(2·lg n − 1) + payload for a root-crossing message.
        let t = full(64);
        let msgs = vec![Message::new(0, 63)];
        let cfg = SimConfig {
            payload_bits: 10,
            switch: SwitchKind::Ideal,
            ..Default::default()
        };
        let r = simulate_cycle(&t, &msgs, &cfg);
        assert_eq!(r.ticks, 2 * (2 * 6 - 1) + 10);
    }

    #[test]
    fn local_messages_free() {
        let t = full(8);
        let msgs = vec![Message::new(3, 3)];
        let r = simulate_cycle(&t, &msgs, &SimConfig::default());
        assert_eq!(r.delivered, vec![0]);
        assert_eq!(r.ticks, 0);
    }

    #[test]
    fn overload_drops_and_retries() {
        // Two messages from the same source on a unit-capacity tree: the
        // source leaf channel forces one drop; completion takes 2 cycles.
        let t = FatTree::new(8, CapacityProfile::Constant(1));
        let msgs: MessageSet = [Message::new(0, 5), Message::new(0, 6)]
            .into_iter()
            .collect();
        let run = run_to_completion(&t, &msgs, &SimConfig::default());
        assert_eq!(run.cycles, 2);
        assert_eq!(run.delivered_per_cycle, vec![1, 1]);
        assert_eq!(run.delivery_order, vec![0, 1]);
    }

    #[test]
    fn hotspot_serializes_at_destination() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::FullDoubling);
        let msgs: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        let run = run_to_completion(&t, &msgs, &SimConfig::default());
        // Destination leaf channel has capacity 1: exactly one per cycle.
        assert_eq!(run.cycles, (n - 1) as usize);
        // Every original message shows up exactly once in the delivery log.
        let mut seen = run.delivery_order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..(n - 1) as usize).collect::<Vec<_>>());
    }

    #[test]
    fn conservation_delivered_plus_dropped() {
        let t = FatTree::new(16, CapacityProfile::Constant(1));
        let msgs: Vec<Message> = (0..16).map(|i| Message::new(i, (i + 5) % 16)).collect();
        let r = simulate_cycle(&t, &msgs, &SimConfig::default());
        assert_eq!(r.delivered.len() + r.dropped.len(), msgs.len());
    }

    #[test]
    fn channel_use_within_capacity() {
        let t = FatTree::universal(32, 8);
        let msgs: Vec<Message> = (0..32).map(|i| Message::new(i, (i + 16) % 32)).collect();
        let r = simulate_cycle(&t, &msgs, &SimConfig::default());
        for c in t.channels() {
            assert!(
                r.channel_use.get(c) <= t.cap(c),
                "channel {c} over capacity"
            );
        }
    }

    #[test]
    fn partial_switches_complete_with_retries() {
        let t = FatTree::universal(32, 16);
        let msgs: MessageSet = (0..32).map(|i| Message::new(i, (i + 7) % 32)).collect();
        let cfg = SimConfig {
            payload_bits: 16,
            switch: SwitchKind::Partial,
            ..Default::default()
        };
        let run = run_to_completion(&t, &msgs, &cfg);
        assert!(run.cycles >= 1);
        assert_eq!(run.delivered_per_cycle.iter().sum::<usize>(), 32);
    }

    #[test]
    fn random_arbitration_completes_and_reorders() {
        let n = 32u32;
        let t = FatTree::new(n, CapacityProfile::Constant(1));
        let msgs: MessageSet = (1..n).map(|i| Message::new(i, 0)).collect();
        let det = run_to_completion(&t, &msgs, &SimConfig::default());
        let rnd_cfg = SimConfig {
            arbitration: Arbitration::Random(7),
            ..Default::default()
        };
        let rnd = run_to_completion(&t, &msgs, &rnd_cfg);
        // Hotspot serializes at the destination either way.
        assert_eq!(det.cycles, (n - 1) as usize);
        assert_eq!(rnd.cycles, (n - 1) as usize);
        assert_eq!(rnd.delivered_per_cycle.iter().sum::<usize>(), msgs.len());
        // The random winners differ from fixed-priority winners somewhere.
        assert_ne!(det.delivery_order, rnd.delivery_order);
    }

    #[test]
    fn random_arbitration_avoids_fixed_priority_starvation_order() {
        // With slot order, the same low-wire messages win every cycle; with
        // random arbitration the first-cycle winner set varies with seed.
        let n = 64u32;
        let t = FatTree::universal(n, 8);
        let msgs: Vec<Message> = (0..n).map(|i| Message::new(i, (i + 32) % n)).collect();
        let first = |seed: u64| {
            let cfg = SimConfig {
                arbitration: Arbitration::Random(seed),
                ..Default::default()
            };
            let mut d = simulate_cycle(&t, &msgs, &cfg).delivered;
            d.sort_unstable();
            d
        };
        let a = first(1);
        let b = first(2);
        let c = first(3);
        assert!(a != b || b != c, "random arbitration never varied winners");
    }

    #[test]
    fn faulty_wires_degrade_but_complete() {
        use crate::faults::FaultModel;
        let n = 64u32;
        let t = FatTree::universal(n, 32);
        let msgs: MessageSet = (0..n).map(|i| Message::new(i, (i + 32) % n)).collect();
        let healthy = run_to_completion(&t, &msgs, &SimConfig::default());
        let faulty_cfg = SimConfig {
            faults: FaultModel {
                dead_wire_fraction: 0.3,
                seed: 5,
            },
            ..Default::default()
        };
        let faulty = run_to_completion(&t, &msgs, &faulty_cfg);
        assert_eq!(faulty.delivered_per_cycle.iter().sum::<usize>(), msgs.len());
        assert!(faulty.cycles >= healthy.cycles);
        // 30% dead wires should cost only a small constant factor.
        assert!(
            faulty.cycles <= 6 * healthy.cycles + 6,
            "fault degradation too steep: {} vs {}",
            faulty.cycles,
            healthy.cycles
        );
    }

    #[test]
    fn total_wire_death_still_terminates() {
        use crate::faults::FaultModel;
        let t = FatTree::new(16, CapacityProfile::FullDoubling);
        let msgs: MessageSet = (0..16).map(|i| Message::new(i, 15 - i)).collect();
        let cfg = SimConfig {
            faults: FaultModel {
                dead_wire_fraction: 0.99,
                seed: 1,
            },
            ..Default::default()
        };
        // Effective capacities floor at 1: the machine degrades to a skinny
        // tree but still delivers everything.
        let run = run_to_completion(&t, &msgs, &cfg);
        assert_eq!(run.delivered_per_cycle.iter().sum::<usize>(), 16);
    }

    #[test]
    fn zero_fraction_fault_model_runs_as_healthy() {
        use crate::faults::FaultModel;
        let t = FatTree::universal(256, 64);
        let msgs: MessageSet = (0..1024u32)
            .map(|i| Message::new(i % 256, (i * 97 + 13) % 256))
            .collect();
        let zero = FaultModel {
            dead_wire_fraction: 0.0,
            seed: 1985,
        };
        assert!(zero.kills_no_wire() && zero != FaultModel::none());
        let bodies = [
            SimConfig::default(),
            SimConfig {
                meta: MetaWidth::Wide,
                ..Default::default()
            },
            SimConfig {
                switch: SwitchKind::Partial,
                arbitration: Arbitration::Random(7),
                ..Default::default()
            },
        ];
        for cfg in bodies {
            let faulted = SimConfig {
                faults: zero,
                ..cfg
            };
            let arena = SimArena::new(&t, &faulted);
            assert!(arena.caps.uniform(), "no wire can die: no table");
            assert_eq!(
                arena.binding_up_levels(),
                SimArena::new(&t, &cfg).binding_up_levels()
            );
            assert_eq!(
                run_to_completion(&t, &msgs, &faulted),
                run_to_completion(&t, &msgs, &cfg)
            );
            let (a, b) = (
                simulate_cycle(&t, msgs.as_slice(), &faulted),
                simulate_cycle(&t, msgs.as_slice(), &cfg),
            );
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.channel_use, b.channel_use);
        }
    }

    #[test]
    fn ideal_vs_partial_cycle_counts() {
        // Partial concentrators may need a few more cycles but not many.
        let t = FatTree::universal(64, 16);
        let msgs: MessageSet = (0..64).map(|i| Message::new(i, 63 - i)).collect();
        let ideal = run_to_completion(&t, &msgs, &SimConfig::default());
        let partial = run_to_completion(
            &t,
            &msgs,
            &SimConfig {
                payload_bits: 64,
                switch: SwitchKind::Partial,
                ..Default::default()
            },
        );
        assert!(partial.cycles >= ideal.cycles);
        assert!(
            partial.cycles <= 6 * ideal.cycles + 6,
            "partial switches too lossy: {} vs {}",
            partial.cycles,
            ideal.cycles
        );
    }

    #[test]
    fn arena_reuse_matches_one_shot() {
        let perm: Vec<Message> = (0..64).map(|i| Message::new(i, (i + 13) % 64)).collect();
        let rel4 = ft_workloads::RelationStream::new(256, 4, 3).collect_set();
        let ideal_random = SimConfig {
            arbitration: Arbitration::Random(7),
            ..Default::default()
        };
        let partial = SimConfig {
            switch: SwitchKind::Partial,
            ..Default::default()
        };
        // Every cycle of an arena fed this sequence of configurations must
        // equal a fresh arena's. The second input runs an ideal cycle, then
        // a partial one on ports of the same shapes: the port cache must not
        // hand the partial cycle the ideal crossbar.
        let cases = [
            (
                FatTree::universal(64, 16),
                &perm[..],
                vec![SimConfig::default(); 3],
            ),
            (
                FatTree::universal(256, 16),
                rel4.as_slice(),
                vec![ideal_random, partial],
            ),
        ];
        for (t, msgs, cfgs) in &cases {
            let mut arena = SimArena::new(t, &cfgs[0]);
            for cfg in cfgs {
                let one_shot = simulate_cycle(t, msgs, cfg);
                let stats = arena.cycle(t, msgs, cfg);
                assert_eq!(stats.delivered, one_shot.delivered.len(), "{cfg:?}");
                assert_eq!(stats.ticks, one_shot.ticks);
                let got: Vec<usize> = arena
                    .delivered_indices()
                    .iter()
                    .map(|&i| i as usize)
                    .collect();
                assert_eq!(got, one_shot.delivered);
                assert_eq!(arena.channel_use(), &one_shot.channel_use);
            }
        }
    }

    #[test]
    #[should_panic(expected = "arena built for a different tree or fault pattern")]
    fn cycle_on_another_capacity_profile_panics() {
        // Same n, another profile: the arena's `eff` would be wrong.
        let built = FatTree::universal(64, 16);
        let other = FatTree::new(64, CapacityProfile::Constant(2));
        let cfg = SimConfig::default();
        let msgs = [Message::new(0, 63)];
        SimArena::new(&built, &cfg).cycle(&other, &msgs, &cfg);
    }

    /// Run one delivery cycle through the three shard phases, manually
    /// composed (the in-process equivalent of what ft-shard's coordinator
    /// does over a transport): partition by source subtree, `shard_up` per
    /// shard, merge claims, `shard_top`, route survivors to their
    /// destination shard, `shard_down` per shard.
    fn sharded_cycle(
        ft: &FatTree,
        msgs: &[Message],
        cfg: &SimConfig,
        boundary: u32,
    ) -> (Vec<u32>, u32) {
        let shards = 1u32 << boundary;
        let shift = ft.height() - boundary;
        let mut batches: Vec<(Vec<Message>, Vec<u32>)> =
            vec![(Vec::new(), Vec::new()); shards as usize];
        for (i, m) in msgs.iter().enumerate() {
            let s = ((ft.leaf(m.src) >> shift) - shards) as usize;
            batches[s].0.push(*m);
            batches[s].1.push(i as u32);
        }
        let mut arenas: Vec<SimArena> = (0..shards).map(|_| SimArena::new(ft, cfg)).collect();
        let mut claims = Vec::new();
        for (s, (msgs, ids)) in batches.iter().enumerate() {
            arenas[s].shard_up(ft, msgs, ids, cfg, boundary, &mut claims);
        }
        claims.sort_unstable_by_key(|c| c.id);
        let mut top = SimArena::new(ft, cfg);
        top.shard_top(ft, cfg, boundary, &mut claims);
        let mut incoming: Vec<Vec<ShardClaim>> = vec![Vec::new(); shards as usize];
        for c in claims {
            if c.alive() {
                incoming[c.dst_shard(ft.height(), boundary) as usize].push(c);
            }
        }
        let mut delivered = Vec::new();
        let mut ticks = 0u32;
        for (s, arena) in arenas.iter_mut().enumerate() {
            let stats = arena.shard_down(ft, cfg, boundary, &incoming[s]);
            ticks = ticks.max(stats.ticks);
            delivered.extend_from_slice(arena.delivered_indices());
        }
        delivered.sort_unstable();
        (delivered, ticks)
    }

    #[test]
    fn shard_phases_compose_to_single_arena_cycle() {
        let mut rng = ft_core::rng::SplitMix64::seed_from_u64(0x5AAD);
        for n in [16u32, 64] {
            let trees = [
                FatTree::universal(n, (n as u64 / 4).max(1)),
                FatTree::new(n, CapacityProfile::Constant(1)),
                FatTree::new(n, CapacityProfile::FullDoubling),
            ];
            for ft in &trees {
                let msgs: Vec<Message> = (0..2 * n)
                    .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
                    .collect();
                for (switch, arb) in [
                    (SwitchKind::Ideal, Arbitration::SlotOrder),
                    (SwitchKind::Ideal, Arbitration::Random(0xAB5E)),
                    (SwitchKind::Partial, Arbitration::SlotOrder),
                    (SwitchKind::Partial, Arbitration::Random(0x11)),
                ] {
                    let cfg = SimConfig {
                        switch,
                        arbitration: arb,
                        ..Default::default()
                    };
                    let single = simulate_cycle(ft, &msgs, &cfg);
                    let want: Vec<u32> = single.delivered.iter().map(|&i| i as u32).collect();
                    for boundary in 0..=3u32.min(ft.height()) {
                        let (got, ticks) = sharded_cycle(ft, &msgs, &cfg, boundary);
                        assert_eq!(
                            got, want,
                            "delivered diverged: n={n} boundary={boundary} {switch:?} {arb:?}"
                        );
                        assert_eq!(
                            ticks, single.ticks,
                            "ticks diverged: n={n} boundary={boundary} {switch:?} {arb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_phases_compose_under_faults() {
        use crate::faults::FaultModel;
        let n = 64u32;
        let ft = FatTree::universal(n, 16);
        let msgs: Vec<Message> = (0..n).map(|i| Message::new(i, (i * 7 + 3) % n)).collect();
        let cfg = SimConfig {
            faults: FaultModel {
                dead_wire_fraction: 0.3,
                seed: 5,
            },
            arbitration: Arbitration::Random(9),
            ..Default::default()
        };
        let single = simulate_cycle(&ft, &msgs, &cfg);
        let want: Vec<u32> = single.delivered.iter().map(|&i| i as u32).collect();
        for boundary in [1u32, 2] {
            let (got, _) = sharded_cycle(&ft, &msgs, &cfg, boundary);
            assert_eq!(got, want, "boundary={boundary}");
        }
    }

    #[test]
    fn recorder_sees_every_phase_of_both_cycle_bodies() {
        use ft_telemetry::MetricsRecorder;
        let t = FatTree::universal(64, 8);
        let msgs: MessageSet = (0..128u32)
            .map(|i| Message::new(i % 64, (i * 7 + 5) % 64))
            .collect();
        let phase = |rec: &MetricsRecorder, p: EnginePhase| rec.phase_ns[p as usize];
        // Fused body: every phase of this arena fires (the run retries, so
        // compaction too); `Refine` and `Emit` are ft-sched's.
        let mut fused = MetricsRecorder::new();
        let plain = run_to_completion(&t, &msgs, &SimConfig::default());
        let run = run_to_completion_with(&t, &msgs, &SimConfig::default(), &mut fused);
        assert_eq!(run, plain);
        assert!(run.cycles > 1);
        for p in EnginePhase::ALL {
            let own = !matches!(p, EnginePhase::Refine | EnginePhase::Emit);
            assert_eq!(phase(&fused, p) > 0, own, "{p:?}");
        }
        // Level-pass body: no source sort — under `Wide`, and under `Auto`
        // once the arbitration or the switches rule the fused sweeps out.
        let mut turned_away = [SimConfig::default(); 3];
        turned_away[0].meta = MetaWidth::Wide;
        turned_away[1].arbitration = Arbitration::Random(3);
        turned_away[2].switch = SwitchKind::Partial;
        for cfg in turned_away {
            let mut walked = MetricsRecorder::new();
            run_to_completion_with(&t, &msgs, &cfg, &mut walked);
            assert_eq!(phase(&walked, EnginePhase::SourceSort), 0, "{cfg:?}");
            assert!(phase(&walked, EnginePhase::DownSweep) > 0, "{cfg:?}");
        }
    }

    #[test]
    fn delivery_order_partitions_by_cycle() {
        let n = 32u32;
        let t = FatTree::universal(n, 4);
        let msgs: MessageSet = (0..n).map(|i| Message::new(i, (i + n / 2) % n)).collect();
        let run = run_to_completion(&t, &msgs, &SimConfig::default());
        assert_eq!(run.delivery_order.len(), msgs.len());
        assert_eq!(
            run.delivered_per_cycle.iter().sum::<usize>(),
            run.delivery_order.len()
        );
        let mut sorted = run.delivery_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..msgs.len()).collect::<Vec<_>>());
    }
}
