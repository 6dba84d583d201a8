//! Theorem 8 and Corollary 9 (§V): balanced decomposition trees.
//!
//! A decomposition tree produced by cutting planes can be *unbalanced*: the
//! processor counts on the two sides of a cut may differ wildly. Theorem 8
//! repairs this: if `R` has a `[w₀, w₁, …, w_r]` decomposition tree `T`,
//! it has a **balanced** decomposition tree `T′` (equal processor counts to
//! within one at every node) with
//!
//! `w′_k ≤ 4·Σ_{j≥k} w_j`,
//!
//! hence Corollary 9: a `(w, a)` tree yields a `(4(a/(a−1))·w, a)` balanced
//! tree.
//!
//! The construction colors occupied leaf slots of `T` black and empty slots
//! white, then recursively applies the pearl lemma (Lemma 6): every node of
//! `T′` corresponds to at most two strings of consecutive leaves of `T`,
//! and Lemma 7 converts those strings into a forest of at most two maximal
//! complete subtrees of `T` per height, whose root bandwidths bound the
//! node's external communication.

use crate::pearls::{split_necklace, within, Arc};

/// A leaf-slot interval of the original decomposition tree.
pub type Interval = (u64, u64);

/// One node of a balanced decomposition tree.
#[derive(Clone, Debug)]
pub struct BalancedNode {
    /// At most two intervals of consecutive leaf slots of `T`.
    pub intervals: Vec<Interval>,
    /// Number of processors (black pearls) in this node.
    pub procs: usize,
    /// Bandwidth bound `w′` from Lemma 7 (sum over maximal complete
    /// subtrees covering the intervals of their root bandwidths).
    pub bandwidth: f64,
    /// Depth of this node in `T′` (root = 0).
    pub depth: u32,
    /// Children (absent at leaves).
    pub children: Option<Box<(BalancedNode, BalancedNode)>>,
}

/// A balanced decomposition tree.
#[derive(Clone, Debug)]
pub struct BalancedDecompTree {
    /// Root node.
    pub root: BalancedNode,
    /// Per-level bandwidths `w_j` of the *original* tree `T`.
    pub original_bandwidths: Vec<f64>,
}

impl BalancedDecompTree {
    /// The leaf processors of `T′` in left-to-right order — the order used
    /// to identify processors with fat-tree leaves in Theorem 10. `leaves`
    /// are `T`'s occupied leaf slots and their processors, sorted by slot.
    pub fn procs_in_order(&self, leaves: &[(u64, u32)]) -> Vec<u32> {
        let mut out = Vec::new();
        walk(&self.root, &mut |node| {
            if node.children.is_none() {
                for &(a, b) in &node.intervals {
                    let lo = leaves.partition_point(|&(s, _)| s < a);
                    let hi = leaves.partition_point(|&(s, _)| s < b);
                    out.extend(leaves[lo..hi].iter().map(|&(_, p)| p));
                }
            }
        });
        out
    }

    /// Max over nodes at depth `k` of the bandwidth bound `w′_k`.
    pub fn level_bandwidths(&self) -> Vec<f64> {
        let mut levels: Vec<f64> = Vec::new();
        walk(&self.root, &mut |node| {
            let d = node.depth as usize;
            if levels.len() <= d {
                levels.resize(d + 1, 0.0);
            }
            levels[d] = levels[d].max(node.bandwidth);
        });
        levels
    }

    /// Verify Theorem 8: every node at depth `k` has `w′ ≤ 4·Σ_{j≥k} w_j`.
    /// Returns the worst ratio `w′_k / (4·Σ_{j≥k} w_j)` over the nodes at
    /// depths `k ≤ r`; deeper nodes have an empty sum and are skipped.
    pub fn worst_theorem8_ratio(&self) -> f64 {
        let suffix: Vec<f64> = {
            let mut s = vec![0.0; self.original_bandwidths.len() + 1];
            for j in (0..self.original_bandwidths.len()).rev() {
                s[j] = s[j + 1] + self.original_bandwidths[j];
            }
            s
        };
        let mut worst: f64 = 0.0;
        walk(&self.root, &mut |node| {
            let k = (node.depth as usize).min(suffix.len() - 1);
            let bound = 4.0 * suffix[k];
            if bound > 0.0 {
                worst = worst.max(node.bandwidth / bound);
            }
        });
        worst
    }

    /// Verify balance: at every internal node the children's processor
    /// counts differ by at most one.
    pub fn is_balanced(&self) -> bool {
        let mut ok = true;
        walk(&self.root, &mut |node| {
            if let Some(ch) = &node.children {
                if ch.0.procs.abs_diff(ch.1.procs) > 1 {
                    ok = false;
                }
            }
        });
        ok
    }
}

fn walk<'a, F: FnMut(&'a BalancedNode)>(node: &'a BalancedNode, f: &mut F) {
    f(node);
    if let Some(ch) = &node.children {
        walk(&ch.0, f);
        walk(&ch.1, f);
    }
}

/// Build the balanced decomposition tree from the original tree's depth
/// `r`, its occupied leaf slots (`occupied`: sorted, distinct, each below
/// `2^r`) and its per-level bandwidths `w_0..w_r`.
pub fn balance_decomposition(
    r: u32,
    occupied: &[u64],
    level_bandwidths: &[f64],
) -> BalancedDecompTree {
    assert!(r <= 62, "decomposition deeper than 62 levels");
    assert!(
        occupied.windows(2).all(|w| w[0] < w[1]) && occupied.last().is_none_or(|&s| s >> r == 0),
        "occupied slots must be sorted, distinct and below 2^r"
    );
    assert_eq!(
        level_bandwidths.len(),
        r as usize + 1,
        "need a bandwidth for every level 0..=r"
    );
    let root = build_node(occupied, level_bandwidths, r, vec![(0, 1 << r)], 0);
    BalancedDecompTree {
        root,
        original_bandwidths: level_bandwidths.to_vec(),
    }
}

fn build_node(
    occupied: &[u64],
    ws: &[f64],
    r: u32,
    intervals: Vec<Interval>,
    depth: u32,
) -> BalancedNode {
    debug_assert!(intervals.len() <= 2, "balanced node with > 2 strings");
    // Each interval is a string of pearls; its blacks are a sub-slice of
    // `occupied`. A missing second string is empty.
    let strand = |k: usize| match intervals.get(k) {
        Some(&(a, b)) => (a, b, within(occupied, a, b)),
        None => (0, 0, &[][..]),
    };
    let (first, second) = (strand(0), strand(1));
    let procs = first.2.len() + second.2.len();
    let bandwidth = intervals_bandwidth(&intervals, ws, r);
    let total: u64 = intervals.iter().map(|&(a, b)| b - a).sum();
    if procs <= 1 || total <= 1 {
        return BalancedNode {
            intervals,
            procs,
            bandwidth,
            depth,
            children: None,
        };
    }

    // Pearl-split the (≤ 2) strings; arcs are in slot coordinates.
    let split = split_necklace(first, second);
    let child = |arcs: &[Arc]| {
        let intervals = arcs.iter().map(|&(_, a, b)| (a, b)).collect();
        build_node(occupied, ws, r, intervals, depth + 1)
    };
    let (left, right) = (child(&split.a), child(&split.b));
    BalancedNode {
        intervals,
        procs,
        bandwidth,
        depth,
        children: Some(Box::new((left, right))),
    }
}

/// Lemma 7: cover the intervals with maximal complete subtrees of `T`
/// (≤ 2 per height per interval) and sum the root bandwidths. A subtree
/// with `2^h` leaves has its root at depth `r − h`, hence bandwidth
/// `ws[r − h]`.
fn intervals_bandwidth(intervals: &[Interval], ws: &[f64], r: u32) -> f64 {
    intervals
        .iter()
        .map(|&(a, b)| {
            let mut total = 0.0;
            let mut x = a;
            while x < b {
                // Largest aligned power-of-two block starting at x fitting in [x, b).
                let align = if x == 0 { r } else { x.trailing_zeros().min(r) };
                let h = align.min((b - x).ilog2());
                total += ws[(r - h) as usize];
                x += 1 << h;
            }
            total
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Balance a tree given as one `bool` per leaf slot (`2^r` of them).
    fn balance(occupied: &[bool], ws: &[f64]) -> BalancedDecompTree {
        let slots: Vec<u64> = (0..occupied.len() as u64)
            .filter(|&s| occupied[s as usize])
            .collect();
        balance_decomposition(occupied.len().trailing_zeros(), &slots, ws)
    }

    /// Bandwidths of a (w, ∛4)-style tree: w_j = w / (4^(1/3))^j.
    fn cuberoot4_bandwidths(w: f64, r: u32) -> Vec<f64> {
        (0..=r).map(|j| w / 4f64.powf(j as f64 / 3.0)).collect()
    }

    #[test]
    fn fully_occupied_tree_balances_trivially() {
        let r = 4;
        let occupied = vec![true; 16];
        let ws = cuberoot4_bandwidths(96.0, r);
        let t = balance(&occupied, &ws);
        assert!(t.is_balanced());
        assert_eq!(t.root.procs, 16);
        // Every leaf has exactly one processor.
        let leaves: Vec<(u64, u32)> = (0..16).map(|s| (s, s as u32)).collect();
        let order = t.procs_in_order(&leaves);
        assert_eq!(order.len(), 16);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_occupancy_balances() {
        // All 8 processors crowd the first 8 slots of a 64-slot tree.
        let mut occupied = vec![false; 64];
        for slot in occupied.iter_mut().take(8) {
            *slot = true;
        }
        let ws = cuberoot4_bandwidths(1000.0, 6);
        let t = balance(&occupied, &ws);
        assert!(t.is_balanced());
        assert_eq!(t.root.procs, 8);
        if let Some(ch) = &t.root.children {
            assert_eq!(ch.0.procs, 4);
            assert_eq!(ch.1.procs, 4);
        } else {
            panic!("root must split");
        }
    }

    #[test]
    fn theorem8_bandwidth_bound_holds() {
        // Random-ish occupancy; verify w′_k ≤ 4·Σ_{j≥k} w_j at every node.
        let r = 7u32;
        let nslots = 1usize << r;
        let mut occupied = vec![false; nslots];
        let mut st = 0xABCDEFu64;
        let mut cnt = 0;
        while cnt < 32 {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            let i = (st % nslots as u64) as usize;
            if !occupied[i] {
                occupied[i] = true;
                cnt += 1;
            }
        }
        let ws = cuberoot4_bandwidths(600.0, r);
        let t = balance(&occupied, &ws);
        assert!(t.is_balanced());
        let ratio = t.worst_theorem8_ratio();
        assert!(
            ratio <= 1.0 + 1e-9,
            "Theorem 8 bound violated: ratio {ratio}"
        );
    }

    #[test]
    fn corollary9_constant() {
        // (w, a) tree with a = ∛4: balanced tree root bandwidth ≤
        // 4·(a/(a−1))·w ≈ 6.85·w.
        let r = 8u32;
        let occupied = vec![true; 1 << r];
        let w = 512.0;
        let ws = cuberoot4_bandwidths(w, r);
        let t = balance(&occupied, &ws);
        let a = 4f64.powf(1.0 / 3.0);
        let bound = 4.0 * a / (a - 1.0) * w;
        for (k, wk) in t.level_bandwidths().iter().enumerate() {
            let level_bound = bound / a.powi(k as i32);
            assert!(
                *wk <= level_bound + 1e-6,
                "level {k}: w′ = {wk} > {level_bound}"
            );
        }
    }

    #[test]
    fn leaf_count_matches_processors() {
        let mut occupied = vec![false; 32];
        occupied[3] = true;
        occupied[4] = true;
        occupied[19] = true;
        occupied[31] = true;
        let ws = cuberoot4_bandwidths(100.0, 5);
        let t = balance(&occupied, &ws);
        let mut leaves = 0;
        walk(&t.root, &mut |n| {
            if n.children.is_none() && n.procs == 1 {
                leaves += 1;
            }
        });
        assert_eq!(leaves, 4);
    }

    #[test]
    fn intervals_bandwidth_blocks() {
        // Interval [0, 16) of a 16-slot tree = one block at the root.
        let ws = vec![16.0, 8.0, 4.0, 2.0, 1.0];
        assert_eq!(intervals_bandwidth(&[(0, 16)], &ws, 4), 16.0);
        // [0, 8) = one height-3 block: depth 1.
        assert_eq!(intervals_bandwidth(&[(0, 8)], &ws, 4), 8.0);
        // [1, 4) = leaf at 1 + pair at 2: ws[4] + ws[3] = 3.
        assert_eq!(intervals_bandwidth(&[(1, 4)], &ws, 4), 3.0);
        // [1, 16): ≤ 2 blocks per height.
        let v = intervals_bandwidth(&[(1, 16)], &ws, 4);
        assert_eq!(v, 1.0 + 2.0 + 4.0 + 8.0);
    }

    #[test]
    fn single_processor_is_a_leaf() {
        let mut occupied = vec![false; 8];
        occupied[5] = true;
        let ws = cuberoot4_bandwidths(10.0, 3);
        let t = balance(&occupied, &ws);
        assert!(t.root.children.is_none());
        assert_eq!(t.root.procs, 1);
    }
}
