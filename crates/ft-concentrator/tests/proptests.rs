//! Property tests for the concentrator substrate (seeded SplitMix64 loops,
//! std-only): matchings are always legal, concentration degrades
//! gracefully, cascades compose.

use ft_concentrator::{max_matching, BipartiteGraph, Cascade, Concentrator, PartialConcentrator};
use ft_core::rng::SplitMix64;

const CASES: u64 = 128;

#[test]
fn matchings_are_legal_and_maximal_enough() {
    let mut rng = SplitMix64::seed_from_u64(0xCC0);
    for case in 0..CASES {
        // 1..16 inputs, each with 0..4 neighbors among 12 outputs.
        let adj: Vec<Vec<u32>> = (0..rng.gen_range(1usize..16))
            .map(|_| {
                (0..rng.gen_range(0usize..4))
                    .map(|_| rng.gen_range(0u32..12))
                    .collect()
            })
            .collect();
        let g = BipartiteGraph::from_adj(12, adj);
        let active: Vec<usize> = (0..g.inputs()).collect();
        let (size, m) = max_matching(&g, &active);
        // Legal: matched outputs distinct and actual neighbors.
        let mut used = std::collections::HashSet::new();
        let mut count = 0;
        for (j, out) in m.iter().enumerate() {
            if let Some(o) = out {
                count += 1;
                assert!(g.neighbors(active[j]).contains(&(*o as u32)), "case {case}");
                assert!(used.insert(*o), "case {case}");
            }
        }
        assert_eq!(count, size, "case {case}");
        // Maximality (weak form): no free input with a free neighbor.
        for (j, out) in m.iter().enumerate() {
            if out.is_none() {
                for &o in g.neighbors(active[j]) {
                    assert!(
                        used.contains(&(o as usize)),
                        "case {case}: augmenting edge left behind: input {j} output {o}"
                    );
                }
            }
        }
    }
}

#[test]
fn pippenger_routes_monotone_in_load() {
    let mut rng = SplitMix64::seed_from_u64(0xCC1);
    for case in 0..CASES {
        let r = rng.gen_range(24usize..120);
        let pc = PartialConcentrator::pippenger(r, &mut rng.fork());
        // If a set routes, every prefix of it routes.
        let step = (r / 8).max(1);
        let active: Vec<usize> = (0..r).step_by(step).collect();
        if pc.route(&active).is_some() {
            for cut in 0..active.len() {
                assert!(pc.route(&active[..cut]).is_some(), "case {case} cut {cut}");
            }
        }
    }
}

#[test]
fn cascade_never_outputs_duplicates() {
    let mut rng = SplitMix64::seed_from_u64(0xCC2);
    for case in 0..CASES {
        let r = rng.gen_range(30usize..90);
        let target = (r / 3).max(2);
        let c = Cascade::new(r, target, &mut rng.fork());
        let k = c.guaranteed().min(8);
        let active: Vec<usize> = (0..k).map(|i| (i * 7) % r).collect();
        if let Some(out) = c.route(&active) {
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                out.len(),
                "case {case}: duplicate output wires"
            );
        }
    }
}
