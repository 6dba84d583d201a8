//! A2 — ablation: the matching-and-tracing scheduler (Theorem 1) vs the
//! greedy first-fit baseline, in schedule length. (Scheduler timings live
//! in `benchmark/`'s `sched_batch`, not in a committed table.)

use crate::tables::{f, Table};
use ft_core::{load_factor, FatTree};
use ft_sched::{schedule_greedy, schedule_theorem1};
use ft_workloads::{balanced_k_relation, cross_root};

/// Run A2.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "A2 — scheduler ablation: Theorem 1 (matching+tracing) vs greedy first-fit",
        &["n", "workload", "⌈λ⌉", "d thm1", "d greedy"],
    );
    for &n in &[256u32, 1024] {
        let ft = FatTree::universal(n, (n / 8).max(4) as u64);
        let cases: Vec<(String, ft_core::MessageSet)> = vec![
            (
                "balanced 8-relation".into(),
                balanced_k_relation(n, 8, &mut rng),
            ),
            ("cross-root ×4".into(), cross_root(n, 4, &mut rng)),
        ];
        for (name, msgs) in cases {
            let lambda = load_factor(&ft, &msgs).ceil();
            let (s1, _) = schedule_theorem1(&ft, &msgs);
            s1.validate(&ft, &msgs).expect("thm1 valid");
            let sg = schedule_greedy(&ft, &msgs);
            sg.validate(&ft, &msgs).expect("greedy valid");
            t.row(vec![
                n.to_string(),
                name,
                f(lambda),
                s1.num_cycles().to_string(),
                sg.num_cycles().to_string(),
            ]);
        }
    }
    t.note("Greedy packs well on random traffic but has no guarantee; Theorem 1 is provably");
    t.note("within 2·lg n of ⌈λ⌉ and its per-channel even splits show on adversarial sets.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn a2_both_schedulers_close_to_lower_bound() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let lam: f64 = row[2].parse().unwrap();
            let d1: f64 = row[3].parse().unwrap();
            let dg: f64 = row[4].parse().unwrap();
            assert!(d1 >= lam && dg >= lam);
            assert!(d1 <= 20.0 * lam + 20.0);
        }
    }
}
