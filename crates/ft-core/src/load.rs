//! Channel loads and the load factor λ(M) (§III, Definition).
//!
//! `load(M, c)` counts the messages of `M` whose unique tree path uses
//! channel `c`; `λ(M, c) = load(M, c) / cap(c)`; and
//! `λ(M) = max_c λ(M, c)` lower-bounds the number of delivery cycles any
//! schedule of `M` needs (`d ≥ ⌈λ(M)⌉`).
//!
//! [`LoadTally`] implements that definition without walking a path. A
//! path climbs from its source leaf to the LCA and descends to its
//! destination, so `load(up(u))` is the number of messages sourced under
//! `u` minus those whose LCA lies at or under `u`, and `load(down(u))` the
//! same with destinations. The tally counts both ends per leaf and each
//! message at the LCA's child on its source side, then sums bottom-up over
//! the nodes the set reaches. Every channel of a level has one capacity,
//! so its output,
//! [`LevelLoads`] (the heaviest channel per level and the total path
//! length), decides λ(M), one-cycle feasibility and both cycle lower
//! bounds. Every whole-set count in the workspace goes through it.
//!
//! [`LoadMap`] keeps dense per-channel counts for the callers that need
//! single channels: the engines' channel-use reports and the references.
//! [`LoadMap::of`] walks each message's path ([`for_each_path_channel`]);
//! it is the oracle the tally is tested against, and
//! `ft_sched::reference`'s.

use crate::message::{Message, MessageSet};
use crate::route::for_each_path_channel;
use crate::topology::{ChannelId, FatTree};

/// Dense per-channel load counters for a fixed fat-tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadMap {
    counts: Vec<u64>,
}

impl LoadMap {
    /// Zero loads for every channel of `ft`.
    pub fn zeros(ft: &FatTree) -> Self {
        LoadMap {
            counts: vec![0; ft.channel_index_bound()],
        }
    }

    /// Loads induced by the message set `M` on `ft`.
    pub fn of(ft: &FatTree, m: &MessageSet) -> Self {
        let mut lm = LoadMap::zeros(ft);
        for msg in m {
            lm.add(ft, msg);
        }
        lm
    }

    /// Add one message's path to the loads.
    #[inline]
    pub fn add(&mut self, ft: &FatTree, m: &Message) {
        for_each_path_channel(ft, m, |c| self.counts[c.index()] += 1);
    }

    /// Remove one message's path from the loads.
    ///
    /// # Panics
    /// In debug builds, if a count would underflow (message was not present).
    #[inline]
    pub fn remove(&mut self, ft: &FatTree, m: &Message) {
        for_each_path_channel(ft, m, |c| {
            debug_assert!(self.counts[c.index()] > 0, "load underflow at {c}");
            self.counts[c.index()] -= 1;
        });
    }

    /// `load(M, c)`.
    #[inline]
    pub fn get(&self, c: ChannelId) -> u64 {
        self.counts[c.index()]
    }

    /// Increment the load on a single channel (used by claim-based
    /// simulations that track wire occupancy directly).
    #[inline]
    pub fn add_one(&mut self, c: ChannelId) {
        self.counts[c.index()] += 1;
    }

    /// Add `k` units of load on a single channel (bulk form of
    /// [`Self::add_one`] for engines that settle a whole channel at once).
    #[inline]
    pub fn add_count(&mut self, c: ChannelId, k: u64) {
        self.counts[c.index()] += k;
    }

    /// The channel (first in enumeration order) achieving the maximum
    /// load-to-capacity ratio, with that ratio; `None` if all loads are 0.
    pub fn argmax_factor(&self, ft: &FatTree) -> Option<(ChannelId, f64)> {
        let mut best: Option<(ChannelId, f64)> = None;
        for c in ft.channels() {
            let l = self.get(c);
            if l == 0 {
                continue;
            }
            let f = l as f64 / ft.cap(c) as f64;
            if best.is_none_or(|(_, bf)| f > bf) {
                best = Some((c, f));
            }
        }
        best
    }

    /// The load factor `λ(M) = max_c load(M,c)/cap(c)`; 0.0 for empty loads.
    pub fn load_factor(&self, ft: &FatTree) -> f64 {
        self.argmax_factor(ft).map_or(0.0, |(_, f)| f)
    }

    /// True iff these loads satisfy every capacity constraint, i.e. the
    /// underlying message set is a *one-cycle message set* (λ ≤ 1).
    pub fn is_one_cycle(&self, ft: &FatTree) -> bool {
        ft.channels().all(|c| self.get(c) <= ft.cap(c))
    }

    /// Reset every count to zero without releasing the allocation (for
    /// engines that reuse one `LoadMap` across delivery cycles).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }
}

/// Per-level channel loads of a message set, as [`LoadTally`] sums them.
///
/// Every channel of a level has the level's capacity, so the heaviest
/// channel per level decides every capacity question: λ(M)
/// ([`Self::load_factor`]), one-cycle feasibility ([`Self::is_one_cycle`]),
/// Corollary 2's fictitious λ′ ([`Self::factor`] against other capacities)
/// and, with the total path length, both cycle lower bounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelLoads {
    /// `max[k]`: the heaviest level-`k` channel, either direction
    /// (`height + 1` entries; the external level 0 carries no path).
    max: Vec<u64>,
    /// Σ of every channel's load = the set's total path length.
    total: u64,
}

impl LevelLoads {
    /// The loads of `m` on `ft`.
    ///
    /// # Panics
    /// As [`LoadTally::add`]: if a message has an endpoint outside `ft`.
    pub fn of(ft: &FatTree, m: &MessageSet) -> Self {
        LoadTally::new(ft).count(m).clone()
    }

    /// `max_per_level()[k]` is the heaviest level-`k` channel, either
    /// direction. Generalized topologies (the `ft-topology` crate) use this
    /// to restrict λ to the binary levels that are real channels of the
    /// source topology.
    pub fn max_per_level(&self) -> &[u64] {
        &self.max
    }

    /// Σ of every channel's load: the total path length of the set.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `max_c load(c) / caps[level(c)]` for an explicit per-level capacity
    /// table; 0.0 when nothing is loaded. Bit-equal to the per-channel
    /// maximum: dividing by one level's capacity is monotone in the load.
    pub fn factor(&self, caps: &[u64]) -> f64 {
        self.max
            .iter()
            .zip(caps)
            .filter(|&(&l, _)| l > 0)
            .map(|(&l, &c)| l as f64 / c as f64)
            .fold(0.0, f64::max)
    }

    /// The load factor λ(M) on `ft`'s own capacities.
    pub fn load_factor(&self, ft: &FatTree) -> f64 {
        self.factor(ft.level_caps())
    }

    /// True iff `load(c) ≤ caps[level(c)]` on every channel.
    pub fn fits(&self, caps: &[u64]) -> bool {
        self.max.iter().zip(caps).all(|(l, c)| l <= c)
    }

    /// True iff the set is a *one-cycle message set* on `ft` (λ ≤ 1).
    pub fn is_one_cycle(&self, ft: &FatTree) -> bool {
        self.fits(ft.level_caps())
    }

    /// A second lower bound on delivery cycles, complementing ⌈λ(M)⌉:
    /// each cycle moves at most `total_wires` message-channel traversals,
    /// so `d ≥ ⌈total path length / total_wires⌉`. Usually weaker than λ
    /// but tighter for traffic concentrated on long paths over fat
    /// channels.
    pub fn wire_time_lower_bound(&self, ft: &FatTree) -> u64 {
        self.total.div_ceil(ft.total_wires().max(1))
    }

    /// `max(⌈λ(M)⌉, wire-time bound)`.
    pub fn cycle_lower_bound(&self, ft: &FatTree) -> u64 {
        (self.load_factor(ft).ceil() as u64).max(self.wire_time_lower_bound(ft))
    }
}

/// Reusable scratch that counts a message set's channel loads on one
/// tree: [`LoadTally::add`] each message, then [`LoadTally::sum`].
///
/// `sum` leaves the tables all-zero, so one tally counts any number of sets
/// with no allocation. A set reaching at most n/8 leaves is summed over the
/// nodes it reaches, so a one-message set costs `O(lg n)`; past that, over
/// every node in heap order, which measured faster from about that size on
/// (EXPERIMENTS.md E18, the one-load-tally note). Counts are `u32`, so a
/// set holds fewer than 2³² messages.
#[derive(Clone, Debug)]
pub struct LoadTally {
    n: usize,
    /// Per heap node, messages sourced / destined at or under it (only the
    /// leaves count until [`LoadTally::sum`] adds them up).
    src: Vec<u32>,
    dst: Vec<u32>,
    /// See [`LoadTally::turns`].
    turns: Vec<u32>,
    /// Per heap node, once `sum` has reached it: messages whose LCA lies at
    /// or under it, i.e. whose turn node lies strictly under it.
    below: Vec<u32>,
    /// The leaves holding a count, listed while there are at most n/8; in
    /// a listed `sum`, then each level's parents, level after level.
    reached: Vec<u32>,
    loads: LevelLoads,
}

impl LoadTally {
    /// An empty tally for `ft`'s leaves.
    pub fn new(ft: &FatTree) -> Self {
        let n = ft.n() as usize;
        LoadTally {
            n,
            src: vec![0; 2 * n],
            dst: vec![0; 2 * n],
            turns: vec![0; 2 * n],
            below: vec![0; 2 * n],
            reached: Vec::new(),
            loads: LevelLoads::default(),
        }
    }

    /// Count one message. A local message loads no channel and is skipped.
    ///
    /// # Panics
    /// If a non-local message has an endpoint outside the tree.
    #[inline]
    pub fn add(&mut self, m: &Message) {
        let (u, v) = (self.n + m.src.0 as usize, self.n + m.dst.0 as usize);
        if u == v {
            return;
        }
        if self.reached.len() <= self.n / 8 {
            for leaf in [u, v] {
                if self.src[leaf] | self.dst[leaf] == 0 {
                    self.reached.push(leaf as u32);
                }
            }
        }
        self.src[u] += 1;
        self.dst[v] += 1;
        self.turns[u >> (usize::BITS - 1 - (u ^ v).leading_zeros())] += 1;
    }

    /// Per heap node `x`, the messages added since the last `sum` whose
    /// path climbs through `x` and turns down at `x`'s parent: `x` is the
    /// LCA's child on the source side, `u >> (31 − lz(u ⊕ v))` for heap
    /// leaves `u ≠ v`. `SchedArena` buckets messages by this key and reads
    /// its bucket sizes here.
    pub fn turns(&self) -> &[u32] {
        &self.turns
    }

    /// [`LoadTally::add`] every message of `m`, then [`LoadTally::sum`].
    pub fn count(&mut self, m: &MessageSet) -> &LevelLoads {
        for msg in m {
            self.add(msg);
        }
        self.sum()
    }

    /// Sum the counted messages into per-level loads and reset the tally
    /// for the next set.
    pub fn sum(&mut self) -> &LevelLoads {
        self.sum_with(|_, _| {})
    }

    /// [`LoadTally::sum`], calling `at_level(k, self)` for `k = height`
    /// down to 1 as soon as level `k`'s loads are final: inside the call,
    /// [`LoadTally::channel_loads`] reads any level-`k` node.
    pub fn sum_with(&mut self, mut at_level: impl FnMut(u32, &Self)) -> &LevelLoads {
        let (n, height) = (self.n, self.n.trailing_zeros());
        self.loads.max.clear();
        self.loads.max.resize(height as usize + 1, 0);
        self.loads.total = 0;
        let dense = self.reached.len() > n / 8;
        let mut start = 0;
        for level in (1..=height).rev() {
            let (mut max, mut total) = (0, 0);
            if dense {
                // Every node in heap order, each pulling its children's counts.
                for u in 1 << level..2 << level {
                    if level < height {
                        let (l, r) = (2 * u, 2 * u + 1);
                        self.src[u] = self.src[l] + self.src[r];
                        self.dst[u] = self.dst[l] + self.dst[r];
                        self.below[u] =
                            self.below[l] + self.below[r] + self.turns[l] + self.turns[r];
                    }
                    let (up, down) = self.channel_loads(u as u32);
                    max = max.max(up).max(down);
                    total += up + down;
                }
                at_level(level, self);
            } else {
                // The listed nodes of this level, each pushing its counts to
                // its parent (listed on first touch) and clearing itself.
                at_level(level, self);
                let end = self.reached.len();
                for i in start..end {
                    let u = self.reached[i] as usize;
                    let (up, down) = self.channel_loads(u as u32);
                    max = max.max(up).max(down);
                    total += up + down;
                    let p = u / 2;
                    if self.src[p] | self.dst[p] == 0 {
                        self.reached.push(p as u32);
                    }
                    self.src[p] += self.src[u];
                    self.dst[p] += self.dst[u];
                    self.below[p] += self.below[u] + self.turns[u];
                    (self.src[u], self.dst[u], self.turns[u], self.below[u]) = (0, 0, 0, 0);
                }
                start = end;
            }
            self.loads.max[level as usize] = max;
            self.loads.total += total;
        }
        if dense {
            for t in [
                &mut self.src,
                &mut self.dst,
                &mut self.turns,
                &mut self.below,
            ] {
                t.fill(0);
            }
        }
        // A listed sum cleared every level; the root is left.
        (self.src[1], self.dst[1], self.below[1]) = (0, 0, 0);
        self.reached.clear();
        &self.loads
    }

    /// `(load(up(u)), load(down(u)))` for a node `u` of the level whose
    /// [`LoadTally::sum_with`] callback is running (0 for a node the set
    /// does not reach).
    #[inline]
    pub fn channel_loads(&self, u: u32) -> (u64, u64) {
        let u = u as usize;
        let below = self.below[u];
        ((self.src[u] - below) as u64, (self.dst[u] - below) as u64)
    }
}

/// A generation-stamped dense scratch table.
///
/// An engine that rebuilds a dense per-slot array every level pass pays an
/// `O(len)` clear per pass — the cost the slot tables impose on the
/// simulator. `GenTable` removes it: each slot packs
/// `generation << 32 | payload`, and a slot is live only while its stamp
/// matches the table's current generation. [`GenTable::begin`] bumps the
/// generation, invalidating every slot at once; the `fill(0)` happens only
/// on the (once per ~4 billion passes) generation wrap. Used by
/// `ft_sim::SimArena` for its (node, slot) contender table.
#[derive(Clone, Debug, Default)]
pub struct GenTable {
    /// `gen << 32 | payload`, live iff the stamp equals `self.gen`.
    slots: Vec<u64>,
    gen: u32,
}

impl GenTable {
    /// An empty table; size it with [`GenTable::begin`].
    pub fn new() -> Self {
        GenTable::default()
    }

    /// Start a pass over slot universe `0..len`: grow the table if needed
    /// and bump the generation so every stale entry reads as absent.
    pub fn begin(&mut self, len: usize) {
        if self.slots.len() < len {
            self.slots.resize(len, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.fill(0);
            self.gen = 1;
        }
    }

    /// Number of allocated slots (the high-water mark over all `begin`s).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots have been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The payload stored at `i` this pass, or `None` if the slot is stale.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u32> {
        let e = self.slots[i];
        if (e >> 32) as u32 == self.gen {
            Some(e as u32)
        } else {
            None
        }
    }

    /// Store `v` at slot `i` for the current pass.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        self.slots[i] = ((self.gen as u64) << 32) | v as u64;
    }
}

/// Convenience: `λ(M)` on `ft` in one call.
///
/// ```
/// use ft_core::{load_factor, FatTree, Message, MessageSet};
/// let ft = FatTree::universal(8, 4);
/// // Both messages cross the root; each root channel has capacity 4.
/// let m = MessageSet::from_vec(vec![Message::new(0, 7), Message::new(1, 6)]);
/// assert!(load_factor(&ft, &m) <= 1.0); // a one-cycle message set
/// ```
pub fn load_factor(ft: &FatTree, m: &MessageSet) -> f64 {
    LevelLoads::of(ft, m).load_factor(ft)
}

/// The best known lower bound on delivery cycles for `M`:
/// `max(⌈λ(M)⌉, wire-time bound)` ([`LevelLoads::cycle_lower_bound`]).
pub fn cycle_lower_bound(ft: &FatTree, m: &MessageSet) -> u64 {
    LevelLoads::of(ft, m).cycle_lower_bound(ft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityProfile;
    use crate::route::path_len;

    fn ft(n: u32, profile: CapacityProfile) -> FatTree {
        FatTree::new(n, profile)
    }

    #[test]
    fn empty_set_zero_factor() {
        let t = ft(8, CapacityProfile::Constant(1));
        let m = MessageSet::new();
        assert_eq!(load_factor(&t, &m), 0.0);
        assert!(LevelLoads::of(&t, &m).is_one_cycle(&t));
    }

    #[test]
    fn single_message_loads_its_path_once() {
        let t = ft(8, CapacityProfile::Constant(1));
        let m = MessageSet::from_vec(vec![Message::new(0, 7)]);
        let lm = LoadMap::of(&t, &m);
        let loads = LevelLoads::of(&t, &m);
        assert_eq!(loads.total(), path_len(&t, &m.as_slice()[0]) as u64);
        assert_eq!(loads.max_per_level(), [0, 1, 1, 1]);
        assert_eq!(lm.load_factor(&t), 1.0);
        assert_eq!(loads.load_factor(&t), 1.0);
    }

    #[test]
    fn add_remove_roundtrip() {
        let t = ft(16, CapacityProfile::FullDoubling);
        let msgs: Vec<Message> = (0..16).map(|i| Message::new(i, 15 - i)).collect();
        let mut lm = LoadMap::zeros(&t);
        for m in &msgs {
            lm.add(&t, m);
        }
        for m in &msgs {
            lm.remove(&t, m);
        }
        assert_eq!(lm, LoadMap::zeros(&t));
    }

    #[test]
    fn reversal_permutation_fills_root_exactly() {
        // i -> n-1-i crosses the root for every i.
        let n = 16u32;
        let t = ft(n, CapacityProfile::FullDoubling);
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let lm = LoadMap::of(&t, &m);
        // Each root channel (edges 2 and 3, both directions) carries n/2.
        assert_eq!(lm.get(ChannelId::up(2)), (n / 2) as u64);
        assert_eq!(lm.get(ChannelId::up(3)), (n / 2) as u64);
        assert_eq!(lm.get(ChannelId::down(2)), (n / 2) as u64);
        assert_eq!(lm.get(ChannelId::down(3)), (n / 2) as u64);
        // FullDoubling gives cap = n/2 at level 1, so λ = 1: one cycle.
        assert_eq!(lm.load_factor(&t), 1.0);
        assert!(lm.is_one_cycle(&t));
    }

    #[test]
    fn skinny_tree_reversal_overloads() {
        let n = 16u32;
        let t = ft(n, CapacityProfile::Constant(1));
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let lm = LoadMap::of(&t, &m);
        assert_eq!(lm.load_factor(&t), (n / 2) as f64);
        assert!(!lm.is_one_cycle(&t));
        let (c, f) = lm.argmax_factor(&t).unwrap();
        assert_eq!(f, (n / 2) as f64);
        assert_eq!(c.level(), 1);
    }

    #[test]
    fn identity_permutation_loads_nothing() {
        let n = 8u32;
        let t = ft(n, CapacityProfile::Constant(1));
        let m: MessageSet = (0..n).map(|i| Message::new(i, i)).collect();
        assert_eq!(LoadMap::of(&t, &m), LoadMap::zeros(&t));
        assert_eq!(LevelLoads::of(&t, &m).total(), 0);
    }

    #[test]
    fn lower_bounds_consistent() {
        let n = 16u32;
        let t = ft(n, CapacityProfile::Constant(1));
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let wt = LevelLoads::of(&t, &m).wire_time_lower_bound(&t);
        let lb = cycle_lower_bound(&t, &m);
        // λ = 8 dominates the wire-time bound here.
        assert_eq!(lb, 8);
        assert!(wt <= lb && wt >= 1);
        assert_eq!(
            LevelLoads::of(&t, &MessageSet::new()).wire_time_lower_bound(&t),
            0
        );
    }

    #[test]
    fn tally_reads_every_channel_and_resets_between_sets() {
        for n in [16u32, 8, 32] {
            let t = ft(n, CapacityProfile::Universal { root_capacity: 4 });
            let mut tally = LoadTally::new(&t);
            for shift in 1..n {
                let all: MessageSet = (0..n)
                    .map(|i| Message::new(i, (i * 5 + shift) % n))
                    .collect();
                // The whole permutation sweeps every node; a prefix of one
                // to three messages sums only the nodes it reaches.
                let few = MessageSet::from_vec(all.as_slice()[..1 + shift as usize % 3].to_vec());
                for m in [all, few] {
                    for msg in &m {
                        tally.add(msg);
                    }
                    let lm = LoadMap::of(&t, &m);
                    let mut seen = 0;
                    let loads = tally.sum_with(|level, tally| {
                        assert_eq!(level, t.height() - seen, "levels run leaves first");
                        seen += 1;
                        for u in 1 << level..2 << level {
                            let (up, down) = tally.channel_loads(u);
                            assert_eq!(up, lm.get(ChannelId::up(u)), "n={n} shift={shift} {u}");
                            assert_eq!(down, lm.get(ChannelId::down(u)), "n={n} shift={shift} {u}");
                        }
                    });
                    assert_eq!(seen, t.height());
                    assert_eq!(
                        loads.load_factor(&t).to_bits(),
                        lm.load_factor(&t).to_bits()
                    );
                }
            }
            // A summed tally is empty again: the next set sees no leftovers.
            tally.add(&Message::new(0, 1));
            let one = tally.sum();
            assert_eq!(one.total(), 2);
            assert_eq!(one.max_per_level().iter().sum::<u64>(), 1);
            assert!(tally.reached.is_empty());
            assert!(tally
                .src
                .iter()
                .chain(&tally.dst)
                .chain(&tally.turns)
                .chain(&tally.below)
                .all(|&c| c == 0));
        }
    }

    #[test]
    fn tally_refuses_an_endpoint_outside_the_tree() {
        let t = ft(8, CapacityProfile::Constant(1));
        for out in [
            Message::new(0, 8),
            Message::new(8, 0),
            Message::new(u32::MAX, 3),
        ] {
            let refused = std::panic::catch_unwind(|| {
                let mut tally = LoadTally::new(&t);
                tally.add(&Message::new(1, 2));
                tally.add(&out);
            });
            assert!(refused.is_err(), "{out} was counted");
        }
    }

    #[test]
    fn gen_table_sets_and_invalidates() {
        let mut t = GenTable::new();
        t.begin(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0), None);
        t.set(3, 77);
        assert_eq!(t.get(3), Some(77));
        t.set(1, 0);
        assert_eq!(t.get(1), Some(0));
        assert_eq!(t.get(2), None);
        // A new pass invalidates everything without clearing.
        t.begin(4);
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(3), None);
        // Growth keeps earlier slots addressable.
        t.begin(8);
        assert_eq!(t.len(), 8);
        assert_eq!(t.get(7), None);
    }

    #[test]
    fn gen_table_wrap_survives() {
        // Force the generation to wrap: stale stamps from the old epoch must
        // not leak through as live entries.
        let mut t = GenTable::new();
        t.begin(2);
        t.set(0, 5);
        t.gen = u32::MAX - 1;
        t.slots[1] = ((u32::MAX as u64) << 32) | 9; // stamped in the last pre-wrap pass
        t.begin(2); // gen -> MAX
        assert_eq!(t.get(1), Some(9));
        t.begin(2); // gen wraps -> slots cleared, gen = 1
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn fits_levels_fictitious_capacities() {
        let n = 8u32;
        let t = ft(n, CapacityProfile::Constant(4));
        let m: MessageSet = (0..n).map(|i| Message::new(i, (i + 1) % n)).collect();
        let loads = LevelLoads::of(&t, &m);
        assert!(loads.is_one_cycle(&t));
        // With fictitious caps of 0 everywhere it cannot fit.
        assert!(!loads.fits(&[0, 0, 0, 0]));
        assert!(loads.fits(&[4, 4, 4, 4]));
    }
}
