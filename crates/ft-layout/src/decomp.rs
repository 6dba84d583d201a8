//! Theorem 5 (§V): cutting-plane decomposition trees.
//!
//! *Let R be a routing network that occupies a cube of volume v. Then R has
//! an (O(v^(2/3)), ∛4) decomposition tree.*
//!
//! The construction: slice the cube with a plane perpendicular to the x
//! axis, then y, then z, cycling, until every box holds at most one
//! processor. Each box at depth `i` has volume `v/2^i` and surface area at
//! most `4^(2/3)·(v/2^i)^(2/3)`; with the model's surface-bandwidth
//! assumption (≤ γ·area bits per unit time through area `a`), the bandwidth
//! into the box at depth `i` is `w_i = γ·S_i`, and `S_{i+3} = S_i/4`
//! exactly — the ∛4 ratio.
//!
//! Because all midpoint cuts at the same depth produce congruent boxes, the
//! per-level bandwidths are a closed-form function of the bounding box. The
//! tree structure we must retain is the *leaf order*: the occupied slots of
//! the depth-`r` leaf line, sorted, each with its processor — `n` entries,
//! however deep the cuts go (the `2^r` slots are never materialized). That
//! ordering feeds the balancing construction of Theorem 8 and, ultimately,
//! the processor identification of the universality theorem.

use crate::geom::Cuboid;
use crate::placement::Placement;

/// Default constant γ relating surface area to bandwidth (bits per unit
/// time per unit area). The universality results hold for any constant.
pub const DEFAULT_GAMMA: f64 = 1.0;

/// A decomposition tree of a placement: per-level bandwidths plus the
/// leaf slots of processors produced by recursive bisection.
#[derive(Clone, Debug)]
pub struct DecompTree {
    /// Depth `r` of the tree: leaves are `2^r` slots.
    pub depth: u32,
    /// The occupied leaf slots `(slot, processor)`, sorted by slot (one per
    /// processor; every other slot of `0..2^r` is empty).
    pub leaves: Vec<(u64, u32)>,
    /// `level_bandwidth[i]` = bandwidth `w_i` into any box at depth `i`
    /// (`γ`·surface area), for `i` in `0..=r`.
    pub level_bandwidth: Vec<f64>,
}

impl DecompTree {
    /// Build the cutting-plane decomposition tree of `placement`.
    ///
    /// Axes are cut in cycling order starting from the box's longest side
    /// (for a cube this is x, y, z, x, …, exactly the paper's procedure).
    pub fn build(placement: &Placement, gamma: f64) -> Self {
        assert!(placement.n() >= 1);
        let bounds = placement.bounds();
        // Recursive bisection; record each processor's path bits.
        let mut paths: Vec<(u64, u32, u32)> = Vec::with_capacity(placement.n()); // (bits, depth, proc)
        let idx: Vec<u32> = (0..placement.n() as u32).collect();
        bisect(placement, bounds, idx, 0, 0, &mut paths);
        let r = paths.iter().map(|&(_, d, _)| d).max().unwrap_or(0);
        assert!(
            r <= 62,
            "decomposition deeper than 62 levels; degenerate placement?"
        );

        // `bisect` visits the low half first, so the slots come out sorted.
        let leaves: Vec<(u64, u32)> = paths
            .iter()
            .map(|&(bits, d, p)| (bits << (r - d), p))
            .collect();
        debug_assert!(leaves.windows(2).all(|w| w[0].0 < w[1].0));

        // Closed-form per-level surface areas: every box at depth i is
        // congruent (midpoint cuts, cycling axes).
        let mut level_bandwidth = Vec::with_capacity(r as usize + 1);
        let mut boxdims = [bounds.side(0), bounds.side(1), bounds.side(2)];
        level_bandwidth.push(gamma * surface(boxdims));
        for i in 0..r {
            let axis = (i % 3) as usize;
            boxdims[axis] /= 2.0;
            level_bandwidth.push(gamma * surface(boxdims));
        }

        DecompTree {
            depth: r,
            leaves,
            level_bandwidth,
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.leaves.len()
    }

    /// The root bandwidth `w₀` (into the whole cube).
    pub fn root_bandwidth(&self) -> f64 {
        self.level_bandwidth[0]
    }

    /// Verify the `(w, ∛4)` shape: `w_i / w_{i+3} = 4` exactly for midpoint
    /// cuts of a cube, and more generally `w_{i+3} ≤ w_i / 4 · (1 + ε)`.
    /// Returns the max over `i` of `w_{i+3}·4/w_i`.
    pub fn worst_quartering_ratio(&self) -> f64 {
        let w = &self.level_bandwidth;
        let mut worst: f64 = 0.0;
        for i in 0..w.len().saturating_sub(3) {
            worst = worst.max(4.0 * w[i + 3] / w[i]);
        }
        worst
    }

    /// The processors in leaf order (slot order), i.e. the in-order leaf
    /// sequence of the decomposition tree.
    pub fn procs_in_leaf_order(&self) -> Vec<u32> {
        self.leaves.iter().map(|&(_, p)| p).collect()
    }
}

fn surface(d: [f64; 3]) -> f64 {
    2.0 * (d[0] * d[1] + d[1] * d[2] + d[2] * d[0])
}

/// Recursive midpoint bisection, cycling axes. `bits` is the path (0 = low
/// side, 1 = high side), appended at each level.
fn bisect(
    placement: &Placement,
    region: Cuboid,
    procs: Vec<u32>,
    depth: u32,
    bits: u64,
    out: &mut Vec<(u64, u32, u32)>,
) {
    if procs.len() <= 1 {
        if let Some(&p) = procs.first() {
            out.push((bits, depth, p));
        }
        return;
    }
    assert!(
        depth < 62,
        "placement cannot be separated (coincident processors?)"
    );
    let axis = (depth % 3) as usize;
    let mid = region.mid(axis);
    let (lo_box, hi_box) = region.halves(axis);
    let (lo, hi): (Vec<u32>, Vec<u32>) = procs
        .into_iter()
        .partition(|&p| placement.pos(p as usize)[axis] < mid);
    bisect(placement, lo_box, lo, depth + 1, bits << 1, out);
    bisect(placement, hi_box, hi, depth + 1, (bits << 1) | 1, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_decomposition_separates_everyone() {
        let p = Placement::grid3d(64, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        assert_eq!(t.num_procs(), 64);
        assert_eq!(t.procs_in_leaf_order().len(), 64);
        // 64 processors in a 4×4×4 grid separate after exactly 6 cuts.
        assert_eq!(t.depth, 6);
        assert!(t.leaves.iter().map(|&(s, _)| s).eq(0..64));
    }

    #[test]
    fn every_processor_appears_once() {
        let p = Placement::grid3d(27, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        let mut seen = t.procs_in_leaf_order();
        seen.sort_unstable();
        assert_eq!(seen, (0..27).collect::<Vec<_>>());
    }

    #[test]
    fn root_bandwidth_is_surface_law() {
        // Theorem 5: a cube of volume v has root bandwidth Θ(v^(2/3)):
        // exactly 6·v^(2/3) for γ = 1.
        let p = Placement::grid3d(64, 1.0);
        let t = DecompTree::build(&p, 1.0);
        let v = p.volume();
        assert!((t.root_bandwidth() - 6.0 * v.powf(2.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn quartering_ratio_for_cube() {
        let p = Placement::grid3d(512, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        // For a cube, three cuts shrink every side by 2: w_{i+3} = w_i/4.
        assert!((t.worst_quartering_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_placement_eventually_quarters() {
        let p = Placement::grid2d(256, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        // A flat slab's early cuts reduce area more slowly, but the ratio
        // can never exceed (w, ∛4) shape by more than the aspect-ratio
        // constant; for a 16×16×1 slab it stays within 2×.
        assert!(t.worst_quartering_ratio() <= 2.0 + 1e-9);
        assert_eq!(t.num_procs(), 256);
    }

    #[test]
    fn bandwidths_monotone_decreasing() {
        let p = Placement::grid3d(128, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        for w in t.level_bandwidth.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn single_processor_trivial_tree() {
        let p = Placement::grid3d(1, 1.0);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        assert_eq!(t.depth, 0);
        assert_eq!(t.leaves, vec![(0, 0)]);
    }

    #[test]
    fn random_placement_decomposes() {
        let mut rng = ft_core::rng::SplitMix64::seed_from_u64(123);
        let p = Placement::random_in_cube(50, 8.0, &mut rng);
        let t = DecompTree::build(&p, DEFAULT_GAMMA);
        assert_eq!(t.num_procs(), 50);
        let mut seen = t.procs_in_leaf_order();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
