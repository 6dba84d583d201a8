//! Channel loads and the load factor λ(M) (§III, Definition).
//!
//! `load(M, c)` counts the messages of `M` whose unique tree path uses
//! channel `c`; `λ(M, c) = load(M, c) / cap(c)`; and
//! `λ(M) = max_c λ(M, c)` lower-bounds the number of delivery cycles any
//! schedule of `M` needs (`d ≥ ⌈λ(M)⌉`).

use crate::message::{Message, MessageSet};
use crate::route::for_each_path_channel;
use crate::topology::{ChannelId, Direction, FatTree};

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

    /// Maximum load over all channels.
    pub fn max_load(&self, ft: &FatTree) -> u64 {
        ft.channels().map(|c| self.get(c)).max().unwrap_or(0)
    }

    /// Maximum load over the channels of each level: `out[k]` is the
    /// heaviest level-`k` channel, either direction. Generalized topologies
    /// (the `ft-topology` crate) use this to restrict λ to the binary
    /// levels that correspond to real channels of the source topology.
    pub fn max_per_level(&self, ft: &FatTree) -> Vec<u64> {
        let mut out = vec![0u64; ft.height() as usize + 1];
        for c in ft.channels() {
            let k = c.level() as usize;
            out[k] = out[k].max(self.get(c));
        }
        out
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

    /// True iff these loads satisfy `load(c) ≤ caps[level(c)]` for an
    /// explicit per-level capacity vector (used for the fictitious
    /// capacities of Corollary 2).
    pub fn fits_levels(&self, ft: &FatTree, caps: &[u64]) -> bool {
        ft.channels()
            .all(|c| self.get(c) <= caps[c.level() as usize])
    }

    /// Sum of all channel loads (= total path length of the message set).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Reset every count to zero without releasing the allocation (for
    /// engines that reuse one `LoadMap` across delivery cycles).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }
}

/// A reusable *sparse* load accumulator.
///
/// [`LoadMap`] is dense: building one costs a full `4n`-slot allocation (or
/// zeroing), which is wasteful when a caller repeatedly checks small message
/// subsets — what schedule compression does per cycle. `ScratchLoad`
/// keeps a dense counter array allocated once plus a stack of touched
/// channel indices, so `clear` costs `O(channels touched)` rather than
/// `O(n)`, and a feasibility check over a subset costs only the total path
/// length of that subset.
#[derive(Clone, Debug)]
pub struct ScratchLoad {
    counts: Vec<u64>,
    touched: Vec<u32>,
}

impl ScratchLoad {
    /// An empty accumulator sized for `ft`. Allocate once, reuse forever.
    pub fn new(ft: &FatTree) -> Self {
        ScratchLoad {
            counts: vec![0; ft.channel_index_bound()],
            touched: Vec::with_capacity(4 * ft.height() as usize + 8),
        }
    }

    /// Add one message's path to the loads.
    #[inline]
    pub fn add(&mut self, ft: &FatTree, m: &Message) {
        for_each_path_channel(ft, m, |c| {
            let i = c.index();
            if self.counts[i] == 0 {
                self.touched.push(i as u32);
            }
            self.counts[i] += 1;
        });
    }

    /// Iterate the channels with nonzero accumulated load, with their loads,
    /// in first-touched order.
    pub fn iter_touched(&self) -> impl Iterator<Item = (ChannelId, u64)> + '_ {
        self.touched.iter().map(|&i| {
            let dir = if i & 1 == 0 {
                Direction::Up
            } else {
                Direction::Down
            };
            let c = ChannelId { edge: i >> 1, dir };
            (c, self.counts[i as usize])
        })
    }

    /// Reset to all-zero loads in time proportional to the channels touched.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
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
    LoadMap::of(ft, m).load_factor(ft)
}

/// Convenience: is `M` a one-cycle message set on `ft`?
pub fn is_one_cycle(ft: &FatTree, m: &MessageSet) -> bool {
    LoadMap::of(ft, m).is_one_cycle(ft)
}

/// A second lower bound on delivery cycles, complementing ⌈λ(M)⌉: each
/// cycle moves at most `total_wires` message-channel traversals, so
/// `d ≥ ⌈(Σ_m path_len(m)) / total_wires⌉`. Usually weaker than λ but
/// tighter for traffic concentrated on long paths over fat channels.
pub fn wire_time_lower_bound(ft: &FatTree, m: &MessageSet) -> u64 {
    let work = LoadMap::of(ft, m).total();
    let wires = ft.total_wires();
    work.div_ceil(wires.max(1))
}

/// The best known lower bound on delivery cycles for `M`:
/// `max(⌈λ(M)⌉, wire-time bound)`.
pub fn cycle_lower_bound(ft: &FatTree, m: &MessageSet) -> u64 {
    let lm = LoadMap::of(ft, m);
    let lam = lm.load_factor(ft).ceil() as u64;
    lam.max(lm.total().div_ceil(ft.total_wires().max(1)))
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
        assert!(is_one_cycle(&t, &m));
    }

    #[test]
    fn single_message_loads_its_path_once() {
        let t = ft(8, CapacityProfile::Constant(1));
        let m = MessageSet::from_vec(vec![Message::new(0, 7)]);
        let lm = LoadMap::of(&t, &m);
        assert_eq!(lm.total(), path_len(&t, &m.as_slice()[0]) as u64);
        assert_eq!(lm.max_load(&t), 1);
        assert_eq!(lm.load_factor(&t), 1.0);
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
        assert_eq!(LoadMap::of(&t, &m).total(), 0);
    }

    #[test]
    fn lower_bounds_consistent() {
        let n = 16u32;
        let t = ft(n, CapacityProfile::Constant(1));
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let wt = wire_time_lower_bound(&t, &m);
        let lb = cycle_lower_bound(&t, &m);
        // λ = 8 dominates the wire-time bound here.
        assert_eq!(lb, 8);
        assert!(wt <= lb && wt >= 1);
        assert_eq!(wire_time_lower_bound(&t, &MessageSet::new()), 0);
    }

    #[test]
    fn scratch_load_matches_dense_loadmap() {
        let n = 32u32;
        let t = ft(n, CapacityProfile::Universal { root_capacity: 8 });
        let msgs: Vec<Message> = (0..n).map(|i| Message::new(i, (i * 7 + 3) % n)).collect();
        let mut sl = ScratchLoad::new(&t);
        for m in &msgs {
            sl.add(&t, m);
        }
        // Every touched channel carries the dense load, and no loaded
        // channel is missing from the touched list.
        let lm = LoadMap::of(&t, &MessageSet::from_vec(msgs));
        for (c, l) in sl.iter_touched() {
            assert!(l > 0 && l == lm.get(c), "mismatch at {c}");
        }
        assert_eq!(sl.iter_touched().map(|(_, l)| l).sum::<u64>(), lm.total());
        sl.clear();
        assert_eq!(sl.iter_touched().count(), 0);
        sl.add(&t, &Message::new(1, 9));
        assert!(sl.iter_touched().all(|(_, l)| l == 1), "clear left a count");
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
        let lm = LoadMap::of(&t, &m);
        assert!(lm.is_one_cycle(&t));
        // With fictitious caps of 0 everywhere it cannot fit.
        assert!(!lm.fits_levels(&t, &[0, 0, 0, 0]));
        assert!(lm.fits_levels(&t, &[4, 4, 4, 4]));
    }
}
