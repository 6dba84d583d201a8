//! The fat-tree topology: a complete binary tree of switching nodes with
//! processors at the leaves and two directed channels per edge (§II).

use crate::capacity::CapacityProfile;
use crate::ids::{is_pow2, ProcId};

/// Direction of a channel along a tree edge.
///
/// `Up` runs child→parent (toward the root / external interface); `Down`
/// runs parent→child (toward the processors).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Child → parent.
    Up = 0,
    /// Parent → child.
    Down = 1,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// A directed channel of the fat-tree.
///
/// `edge` is the heap index of the tree node *beneath* the edge, following
/// the paper's convention that a channel carries the level number of the node
/// beneath it. `edge == 1` is the external-interface edge above the root.
/// For a fat-tree on `n` processors, valid edges are `1..2n` (edges `n..2n`
/// attach the processors).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChannelId {
    /// Heap index of the lower endpoint of the edge (1 = external edge).
    pub edge: u32,
    /// Direction of travel along the edge.
    pub dir: Direction,
}

impl ChannelId {
    /// Up-channel on `edge`.
    #[inline]
    pub fn up(edge: u32) -> Self {
        ChannelId {
            edge,
            dir: Direction::Up,
        }
    }

    /// Down-channel on `edge`.
    #[inline]
    pub fn down(edge: u32) -> Self {
        ChannelId {
            edge,
            dir: Direction::Down,
        }
    }

    /// Dense array index for this channel in a fat-tree on `n` processors:
    /// channels occupy `0..4n` (two directions × `2n` edge slots).
    #[inline]
    pub fn index(self) -> usize {
        (self.edge as usize) * 2 + self.dir as usize
    }

    /// The level of this channel: the depth of the node beneath it, which is
    /// `⌊log₂ edge⌋` in heap order.
    #[inline]
    pub fn level(self) -> u32 {
        31 - self.edge.leading_zeros()
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = match self.dir {
            Direction::Up => "↑",
            Direction::Down => "↓",
        };
        write!(f, "c{}{}", self.edge, d)
    }
}

/// A fat-tree routing network `FT` on `n = 2^L` processors (§II, Fig. 1).
///
/// Holds the topology and the per-level channel capacities. Capacities
/// depend only on a channel's level (all the paper's constructions have this
/// symmetry; the arbitrary-capacity generalization is available through
/// [`CapacityProfile::PerLevel`]).
#[derive(Clone, Debug)]
pub struct FatTree {
    n: u32,
    height: u32,
    profile: CapacityProfile,
    /// `caps[k]` = capacity (in wires = simultaneous bit-serial messages) of
    /// each channel at level `k`, for `k` in `0..=height`.
    caps: Vec<u64>,
}

/// `lg n`, asserting what every constructor requires of `n`.
fn checked_height(n: u32) -> u32 {
    let max = FatTree::MAX_HEIGHT;
    assert!(
        (2..=1 << max).contains(&n) && is_pow2(n as u64),
        "n must be a power of two in [2, 2^{max}], got {n}"
    );
    n.trailing_zeros()
}

impl FatTree {
    /// The tallest tree any constructor builds (`n ≤ 2^MAX_HEIGHT`), and
    /// the one size limit spec parsers and decoders check: ft-sim's fused
    /// u32 word holds a leaf heap id (`height + 1` bits) in 25 bits.
    pub const MAX_HEIGHT: u32 = 24;

    /// Build a fat-tree on `n` processors (must be a power of two, `2 ≤ n ≤
    /// 2^`[`Self::MAX_HEIGHT`]) with the given capacity profile.
    ///
    /// # Panics
    /// If `n` is not a power of two in that range, or the profile is
    /// invalid for `n` (see [`CapacityProfile::capacities`]).
    pub fn new(n: u32, profile: CapacityProfile) -> Self {
        let height = checked_height(n);
        let caps = profile.capacities(n);
        debug_assert_eq!(caps.len() as u32, height + 1);
        FatTree {
            n,
            height,
            profile,
            caps,
        }
    }

    /// Build a fat-tree directly from an explicit per-level capacity table,
    /// bypassing [`CapacityProfile::PerLevel`]'s monotonicity validation.
    ///
    /// Embeddings of non-binary topologies (the `ft-topology` crate) expand
    /// each high-radix switch into a cluster of binary levels; the
    /// switch-internal levels model crossbar fan-in and may legitimately
    /// carry *more* wires than the real uplink channel above them — exactly
    /// the shape the user-facing `PerLevel` profile rejects as a likely
    /// transposed table. Only the length and positivity are validated here;
    /// the resulting tree reports a `PerLevel` profile.
    ///
    /// # Panics
    /// If `n` is not a power of two in [`Self::new`]'s range, `caps.len() !=
    /// lg n + 1`, or any capacity is zero.
    pub fn from_level_caps(n: u32, caps: Vec<u64>) -> Self {
        let height = checked_height(n);
        assert_eq!(
            caps.len() as u32,
            height + 1,
            "need lg n + 1 per-level capacities"
        );
        assert!(caps.iter().all(|&c| c >= 1), "capacities must be >= 1");
        FatTree {
            n,
            height,
            profile: CapacityProfile::PerLevel(caps.clone()),
            caps,
        }
    }

    /// Convenience: a *universal fat-tree* on `n` processors with root
    /// capacity `w` (§IV). Requires `n^(2/3) ≤ w ≤ n` up to rounding.
    ///
    /// ```
    /// use ft_core::FatTree;
    /// let ft = FatTree::universal(64, 16);
    /// assert_eq!(ft.root_capacity(), 16);
    /// assert_eq!(ft.cap_at_level(ft.height()), 1); // unit leaf channels
    /// ```
    pub fn universal(n: u32, root_capacity: u64) -> Self {
        FatTree::new(n, CapacityProfile::Universal { root_capacity })
    }

    /// Number of processors `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Tree height `L = lg n`; processors live at level `L`.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The capacity profile this tree was built with.
    #[inline]
    pub fn profile(&self) -> &CapacityProfile {
        &self.profile
    }

    /// Capacity of every channel at level `k` (`0..=height`).
    #[inline]
    pub fn cap_at_level(&self, k: u32) -> u64 {
        self.caps[k as usize]
    }

    /// Every level's channel capacity, root first: `level_caps()[k] ==
    /// cap_at_level(k)`, `height + 1` entries.
    #[inline]
    pub fn level_caps(&self) -> &[u64] {
        &self.caps
    }

    /// Capacity of a specific channel.
    #[inline]
    pub fn cap(&self, c: ChannelId) -> u64 {
        self.caps[c.level() as usize]
    }

    /// Root capacity `w = cap(level 0)`.
    #[inline]
    pub fn root_capacity(&self) -> u64 {
        self.caps[0]
    }

    /// Heap index of the leaf holding processor `p`.
    #[inline]
    pub fn leaf(&self, p: ProcId) -> u32 {
        debug_assert!(p.0 < self.n);
        self.n + p.0
    }

    /// The processor at heap leaf `leaf` (inverse of [`FatTree::leaf`]).
    #[inline]
    pub fn proc_at(&self, leaf: u32) -> ProcId {
        debug_assert!(leaf >= self.n && leaf < 2 * self.n);
        ProcId(leaf - self.n)
    }

    /// Heap index of the least common ancestor of processors `a` and `b`.
    ///
    /// If `a == b` this is the leaf itself. O(1): two leaves' heap ids are
    /// equally long, so their common ancestor is their common bit prefix.
    #[inline]
    pub fn lca(&self, a: ProcId, b: ProcId) -> u32 {
        let (u, v) = (self.leaf(a), self.leaf(b));
        u >> (32 - (u ^ v).leading_zeros())
    }

    /// Total number of directed channels, including the two external-interface
    /// channels at the root: `2·(2n − 1)`.
    #[inline]
    pub fn num_channels(&self) -> usize {
        2 * (2 * self.n as usize - 1)
    }

    /// Size of a dense channel-indexed array (`ChannelId::index` bound): `4n`.
    #[inline]
    pub fn channel_index_bound(&self) -> usize {
        4 * self.n as usize
    }

    /// Iterate over all directed channels of the fat-tree (external edge
    /// included), in increasing `(edge, dir)` order.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (1..2 * self.n).flat_map(|edge| [ChannelId::up(edge), ChannelId::down(edge)].into_iter())
    }

    /// Iterate over the internal switching nodes (heap indices `1..n`).
    pub fn switch_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        1..self.n
    }

    /// Depth (level) of a heap node: `⌊log₂ node⌋`.
    #[inline]
    pub fn level_of(&self, node: u32) -> u32 {
        debug_assert!(node >= 1 && node < 2 * self.n);
        31 - node.leading_zeros()
    }

    /// Parent of a heap node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: u32) -> Option<u32> {
        (node > 1).then_some(node / 2)
    }

    /// Children of a heap node (`None` for leaves).
    #[inline]
    pub fn children(&self, node: u32) -> Option<(u32, u32)> {
        (node < self.n).then_some((2 * node, 2 * node + 1))
    }

    /// The range of processors in the subtree of `node`, as `lo..hi`.
    pub fn subtree_procs(&self, node: u32) -> std::ops::Range<u32> {
        let level = self.level_of(node);
        let span = self.height() - level;
        let first_leaf = node << span;
        (first_leaf - self.n)..(first_leaf - self.n + (1 << span))
    }

    /// Is `node` an ancestor of (or equal to) `other` in the tree?
    pub fn is_ancestor(&self, node: u32, mut other: u32) -> bool {
        while other > node {
            other >>= 1;
        }
        other == node
    }

    /// Number of edges at level `k`: `2^k` (the level-0 "edge" is the
    /// external interface).
    #[inline]
    pub fn edges_at_level(&self, k: u32) -> u32 {
        1 << k
    }

    /// Total wire count: sum of capacities over all directed channels.
    pub fn total_wires(&self) -> u64 {
        (0..=self.height)
            .map(|k| 2 * self.edges_at_level(k) as u64 * self.cap_at_level(k))
            .sum()
    }

    /// Render the per-level structure (Fig. 1) as an ASCII table:
    /// level, number of switch nodes, edges, capacity per channel.
    pub fn render_levels(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "level  nodes  edges  cap/channel");
        for k in 0..=self.height {
            let nodes = if k == self.height {
                self.n // processors
            } else {
                1 << k
            };
            let kind = if k == self.height { "proc" } else { "switch" };
            let _ = writeln!(
                s,
                "{k:>5}  {nodes:>5}  {:>5}  {:>11}  ({kind})",
                self.edges_at_level(k),
                self.cap_at_level(k)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(n: u32) -> FatTree {
        FatTree::new(n, CapacityProfile::Constant(4))
    }

    #[test]
    fn heights_and_counts() {
        let t = ft(8);
        assert_eq!(t.n(), 8);
        assert_eq!(t.height(), 3);
        assert_eq!(t.num_channels(), 2 * 15);
        assert_eq!(t.channels().count(), t.num_channels());
        assert_eq!(t.switch_nodes().count(), 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = ft(6);
    }

    #[test]
    fn leaf_proc_roundtrip() {
        let t = ft(16);
        for i in 0..16 {
            let p = ProcId(i);
            assert_eq!(t.proc_at(t.leaf(p)), p);
        }
    }

    #[test]
    fn lca_structure() {
        let t = ft(8);
        // processors 0 and 1 share the deepest internal node.
        assert_eq!(t.lca(ProcId(0), ProcId(1)), 4);
        // processors 0 and 7 only meet at the root.
        assert_eq!(t.lca(ProcId(0), ProcId(7)), 1);
        assert_eq!(t.lca(ProcId(2), ProcId(3)), 5);
        assert_eq!(t.lca(ProcId(3), ProcId(3)), t.leaf(ProcId(3)));
        assert_eq!(t.lca(ProcId(0), ProcId(3)), 2);
    }

    #[test]
    fn lca_equals_the_climb_until_equal_definition() {
        let by_climbing = |t: &FatTree, a: ProcId, b: ProcId| {
            let (mut u, mut v) = (t.leaf(a), t.leaf(b));
            while u != v {
                u >>= 1;
                v >>= 1;
            }
            u
        };
        for n in [2u32, 4, 8, 16, 32, 64] {
            let t = ft(n);
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (ProcId(a), ProcId(b));
                    assert_eq!(t.lca(a, b), by_climbing(&t, a, b), "n={n} {a} {b}");
                }
            }
        }
        let n = 1u32 << 20;
        let t = ft(n);
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x1CA);
        for case in 0..10_000 {
            let a = ProcId(rng.gen_range(0..n));
            // Every tenth pair is `a == b`; the rest span every LCA level.
            let b = match case % 10 {
                0 => a,
                _ => ProcId(a.0 ^ (rng.gen_range(0..n) >> rng.gen_range(0..21u32))),
            };
            assert_eq!(t.lca(a, b), by_climbing(&t, a, b), "{a} {b}");
        }
    }

    #[test]
    fn channel_levels() {
        assert_eq!(ChannelId::up(1).level(), 0);
        assert_eq!(ChannelId::up(2).level(), 1);
        assert_eq!(ChannelId::up(3).level(), 1);
        assert_eq!(ChannelId::down(7).level(), 2);
        assert_eq!(ChannelId::up(8).level(), 3);
    }

    #[test]
    fn channel_index_dense_and_unique() {
        let t = ft(8);
        let mut seen = vec![false; t.channel_index_bound()];
        for c in t.channels() {
            assert!(c.index() < t.channel_index_bound());
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), t.num_channels());
    }

    #[test]
    fn total_wires_constant_profile() {
        let t = ft(4);
        // levels 0,1,2 with 1,2,4 edges, cap 4, two directions:
        // 2*4*(1+2+4) = 56
        assert_eq!(t.total_wires(), 56);
    }

    #[test]
    fn render_levels_mentions_all_levels() {
        let t = ft(8);
        let s = t.render_levels();
        for k in 0..=3 {
            assert!(
                s.contains(&format!("\n{k:>5}  "))
                    || s.starts_with(&format!("{k:>5}"))
                    || s.contains(&format!("{k:>5}  ")),
                "missing level {k}: {s}"
            );
        }
    }

    #[test]
    fn navigation_helpers() {
        let t = ft(16);
        assert_eq!(t.level_of(1), 0);
        assert_eq!(t.level_of(16), 4);
        assert_eq!(t.parent(1), None);
        assert_eq!(t.parent(9), Some(4));
        assert_eq!(t.children(1), Some((2, 3)));
        assert_eq!(t.children(16), None); // leaf
        assert_eq!(t.children(8), Some((16, 17))); // deepest switch
    }

    #[test]
    fn subtree_proc_ranges() {
        let t = ft(16);
        assert_eq!(t.subtree_procs(1), 0..16);
        assert_eq!(t.subtree_procs(2), 0..8);
        assert_eq!(t.subtree_procs(3), 8..16);
        assert_eq!(t.subtree_procs(5), 4..8);
        assert_eq!(t.subtree_procs(31), 15..16); // a leaf
    }

    #[test]
    fn ancestry() {
        let t = ft(16);
        assert!(t.is_ancestor(1, 31));
        assert!(t.is_ancestor(2, 16));
        assert!(!t.is_ancestor(3, 16));
        assert!(t.is_ancestor(5, 5));
        assert!(!t.is_ancestor(16, 2));
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Up.flip(), Direction::Down);
        assert_eq!(Direction::Down.flip(), Direction::Up);
    }
}
