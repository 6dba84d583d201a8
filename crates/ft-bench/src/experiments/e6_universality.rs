//! E6 — Theorem 10: simulate equal-volume competitor networks on the
//! universal fat-tree; slowdown must stay within O(lg³ n).

use crate::tables::{f, Table};
use ft_core::rng::SplitMix64;
use ft_networks::{
    Butterfly, CubeConnectedCycles, FixedConnectionNetwork, Hypercube, Mesh2D, Mesh3D, Ring,
    ShuffleExchange, Torus2D, TreeMachine,
};
use ft_universal::simulate_on_fat_tree;
use ft_workloads::{cross_root, random_permutation};

fn fleet(scale: u32) -> Vec<Box<dyn FixedConnectionNetwork>> {
    // scale 0: ~64 procs; scale 1: ~256; scale 2: ~1024.
    let side2 = 8usize << scale;
    let side3 = [4usize, 6, 10][scale as usize];
    let d = 6 + 2 * scale;
    let mut fleet: Vec<Box<dyn FixedConnectionNetwork>> = vec![
        Box::new(Mesh2D::new(side2, side2)),
        Box::new(Mesh3D::new(side3)),
        Box::new(Torus2D::new(side2)),
        Box::new(Hypercube::new(d)),
        Box::new(TreeMachine::new(d)),
        Box::new(Butterfly::new(d - 2)),
        Box::new(CubeConnectedCycles::new(4 + scale)),
        Box::new(ShuffleExchange::new(d)),
    ];
    if scale == 0 {
        // Rings serialize global traffic in Θ(n) steps; keep them small.
        fleet.push(Box::new(Ring::new(64)));
    }
    fleet
}

/// Run E6.
pub fn run() -> Vec<Table> {
    let mut out = Vec::new();
    for (workload_name, make_msgs) in [("random permutation", 0u8), ("cross-root 2-relation", 1u8)]
    {
        let mut t = Table::new(
            format!("E6 — Theorem 10: equal-volume simulation, workload = {workload_name}"),
            &[
                "network R",
                "n",
                "volume",
                "w(v)",
                "t_R",
                "λ(M)",
                "d",
                "slowdown",
                "lg³n bound",
                "ok",
            ],
        );
        for scale in 0..3u32 {
            for (i, net) in fleet(scale).iter().enumerate() {
                let mut rng = SplitMix64::seed_from_u64(0xE6 ^ (scale as u64) << 8 ^ i as u64);
                let n = net.n() as u32;
                let msgs = if make_msgs == 0 {
                    random_permutation(n, &mut rng)
                } else {
                    cross_root(n & !1, 2, &mut rng)
                };
                let rep = simulate_on_fat_tree(net.as_ref(), &msgs, 1.0, &mut rng);
                let ok = rep.slowdown <= 8.0 * rep.slowdown_bound.max(1.0);
                t.row(vec![
                    rep.network.clone(),
                    rep.n.to_string(),
                    f(rep.volume),
                    rep.root_capacity.to_string(),
                    rep.t_network.to_string(),
                    f(rep.lambda),
                    rep.cycles.to_string(),
                    f(rep.slowdown),
                    f(rep.slowdown_bound),
                    if ok { "✓".into() } else { "✗".into() },
                ]);
            }
        }
        t.note("slowdown = (d·lg n)/t_R; bound = lg(n/v^(2/3))·lg²n. Who wins: the fat-tree is");
        t.note("never worse than polylog — even against the hypercube, whose n^(3/2) volume the");
        t.note("fat-tree converts into a fat root (large w(v), small λ).");
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_all_rows_within_bound() {
        let tables = super::run();
        crate::experiments::assert_committed(&tables);
        for t in &tables {
            for row in &t.rows {
                assert_eq!(row[9], "✓", "row out of bound: {row:?}");
            }
        }
    }
}
