//! Property tests for the layout theory: Lemma 6 on arbitrary necklaces,
//! Theorem 8 on arbitrary occupancies, Theorem 5 on arbitrary placements
//! (seeded SplitMix64 loops, std-only).

use fat_tree::core::rng::SplitMix64;
use fat_tree::layout::{balance_decomposition, split_necklace, DecompTree, Placement};

const CASES: u64 = 256;

/// The black positions of a string of `bool`s.
fn positions(xs: &[bool]) -> Vec<u64> {
    (0..xs.len() as u64).filter(|&i| xs[i as usize]).collect()
}

#[test]
fn pearl_lemma_holds_for_all_necklaces() {
    let mut rng = SplitMix64::seed_from_u64(0x1A01);
    for case in 0..CASES {
        let (nl, ns) = (rng.gen_range(1usize..64), rng.gen_range(0usize..32));
        let long: Vec<bool> = (0..nl).map(|_| rng.gen_bool(0.5)).collect();
        let short: Vec<bool> = (0..ns).map(|_| rng.gen_bool(0.5)).collect();
        let (lb, sb) = (positions(&long), positions(&short));
        let (l, s) = ((0, nl as u64, &lb[..]), (0, ns as u64, &sb[..]));
        let split = split_necklace(l, s);
        let n = long.len() + short.len();
        let b = lb.len() + sb.len();
        assert!(split.a.len() <= 2, "case {case}");
        assert!(split.b.len() <= 2, "case {case}");
        assert_eq!(split.size_a(), n as u64 / 2, "case {case}");
        let ba = split.blacks_a(l, s);
        assert!(ba >= b / 2 && ba <= b.div_ceil(2), "case {case}");
        assert_eq!(ba + split.blacks_b(l, s), b, "case {case}");
    }
}

#[test]
fn balanced_trees_stay_balanced_and_bounded() {
    let mut rng = SplitMix64::seed_from_u64(0x1A02);
    for case in 0..CASES {
        let r = rng.gen_range(3u32..=8);
        let density = rng.gen_range(1u32..=4);
        let slots = 1usize << r;
        // Power-of-two processor count ≤ slots.
        let nprocs = (slots >> density).max(1);
        let mut occupied = vec![false; slots];
        for i in rng.sample_indices(slots, nprocs) {
            occupied[i] = true;
        }
        let ws: Vec<f64> = (0..=r)
            .map(|j| 1000.0 / 4f64.powf(j as f64 / 3.0))
            .collect();
        let t = balance_decomposition(r, &positions(&occupied), &ws);
        assert!(t.is_balanced(), "case {case}");
        assert_eq!(t.root.procs, nprocs, "case {case}");
        // Theorem 8: w′_k ≤ 4·Σ_{j≥k} w_j at every node.
        assert!(t.worst_theorem8_ratio() <= 1.0 + 1e-9, "case {case}");
    }
}

#[test]
fn decomposition_trees_cover_random_placements() {
    let mut rng = SplitMix64::seed_from_u64(0x1A03);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..=64);
        let p = Placement::random_in_cube(n, 16.0, &mut rng);
        let t = DecompTree::build(&p, 1.0);
        assert_eq!(t.num_procs(), n, "case {case}");
        let mut seen = t.procs_in_leaf_order();
        seen.sort_unstable();
        assert_eq!(seen, (0..n as u32).collect::<Vec<_>>(), "case {case}");
        // Theorem 5 ratio: with midpoint cuts, w_{i+3} = w_i/4 exactly.
        assert!(t.worst_quartering_ratio() <= 1.0 + 1e-9, "case {case}");
    }
}

#[test]
fn end_to_end_identification_from_arbitrary_placement() {
    use fat_tree::universal::Identification;
    let mut rng = fat_tree::core::rng::SplitMix64::seed_from_u64(99);
    let p = Placement::random_in_cube(48, 12.0, &mut rng);
    let id = Identification::from_placement(&p, 1.0);
    assert_eq!(id.fat_tree.n(), 64);
    assert_eq!(id.leaf_to_proc.iter().flatten().count(), 48);
    // Bijectivity of the partial mapping.
    let mut seen = [false; 48];
    for p in id.leaf_to_proc.iter().flatten() {
        assert!(!seen[*p as usize]);
        seen[*p as usize] = true;
    }
}
