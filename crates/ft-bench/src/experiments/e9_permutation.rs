//! E9 — §VI: permutation routing on a maximum-volume universal fat-tree
//! (w = n) versus the Beneš network — both Θ(lg n), as the paper claims.

use crate::tables::{f, Table};
use ft_core::FatTree;
use ft_networks::benes::{benes_depth, benes_switch_count, realize_benes};
use ft_sched::schedule_theorem1;
use ft_workloads::{bit_reversal, random_permutation, transpose};

/// Run E9.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "E9 — permutation routing: fat-tree (w = n) vs Beneš",
        &[
            "n",
            "perm",
            "Beneš depth",
            "Beneš switches",
            "FT cycles d",
            "FT time (d·2(2lgn−1))",
            "FT/Beneš time",
        ],
    );
    for &lgn in &[6u32, 8, 10, 12] {
        let n = 1u32 << lgn;
        let perms: Vec<(&str, ft_core::MessageSet)> = vec![
            ("random", random_permutation(n, &mut rng)),
            ("bit-reversal", bit_reversal(n)),
            ("transpose", transpose(n)),
        ];
        for (name, msgs) in perms {
            let mut perm = vec![0usize; n as usize];
            for m in &msgs {
                perm[m.src.idx()] = m.dst.idx();
            }
            let stats = realize_benes(&perm).expect("rearrangeable");
            assert_eq!(stats.depth, benes_depth(n as usize));

            let ft = FatTree::universal(n, n as u64);
            let (schedule, _) = schedule_theorem1(&ft, &msgs);
            schedule.validate(&ft, &msgs).expect("valid");
            let ft_time = schedule.num_cycles() as u32 * 2 * (2 * lgn - 1);
            t.row(vec![
                n.to_string(),
                name.into(),
                stats.depth.to_string(),
                benes_switch_count(n as usize).to_string(),
                schedule.num_cycles().to_string(),
                ft_time.to_string(),
                f(ft_time as f64 / stats.depth as f64),
            ]);
        }
    }
    t.note("Both pay 2·lg n − 1 switch stages per pass, so FT/Beneš time is exactly 2·d. The");
    t.note("Theorem 1 schedule spends d = lg n cycles on a random permutation (lg n / 2 on");
    t.note("bit-reversal and transpose), so the ratio grows with lg n. That lg n is Theorem 1's");
    t.note("2·λ·lg n at λ = 1, not the network's: one delivery cycle with ideal concentrators");
    t.note("routes a whole random permutation at full bisection (E12: 1024/1024), §VI's O(lg n).");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e9_ratio_stays_constant() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        let ratios: Vec<f64> = t[0].rows.iter().map(|r| r[6].parse().unwrap()).collect();
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 6.0, "ratio drifts: {ratios:?}");
    }
}
