//! E1 — Theorem 1: off-line schedule length vs. the `2·λ(M)·lg n` bound.
//!
//! Sweep n and the k-relation density; report λ(M), the measured cycle
//! count d, the paper bound, and the gap to the trivial lower bound ⌈λ⌉.

use crate::tables::{f, Table};
use ft_core::{load_factor, FatTree};
use ft_sched::schedule_theorem1;
use ft_workloads::{balanced_k_relation, bit_complement, random_k_relation};

/// Run E1.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "E1 — Theorem 1: d ≤ 2·λ(M)·⌈lg n⌉ (universal fat-tree, w = n/4)",
        &["n", "workload", "λ(M)", "d measured", "2·⌈λ⌉·lg n", "d/⌈λ⌉"],
    );
    for &n in &[64u32, 256, 1024] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let mut cases: Vec<(String, ft_core::MessageSet)> =
            vec![("complement".into(), bit_complement(n))];
        for &k in &[1u32, 4, 16] {
            cases.push((
                format!("random {k}-relation"),
                random_k_relation(n, k, &mut rng),
            ));
            cases.push((
                format!("balanced {k}-relation"),
                balanced_k_relation(n, k, &mut rng),
            ));
        }
        for (name, msgs) in cases {
            let lambda = load_factor(&ft, &msgs);
            let (schedule, stats) = schedule_theorem1(&ft, &msgs);
            schedule.validate(&ft, &msgs).expect("valid schedule");
            t.row(vec![
                n.to_string(),
                name,
                f(lambda),
                schedule.num_cycles().to_string(),
                stats.paper_bound(&ft).to_string(),
                f(schedule.num_cycles() as f64 / lambda.max(1.0).ceil()),
            ]);
        }
    }
    t.note("Paper: any M schedules off-line in O(λ(M)·lg n) delivery cycles (Theorem 1).");
    t.note("Measured d always sits between ⌈λ⌉ (the lower bound) and the theorem's 2·λ·lg n.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_produces_rows() {
        let tables = super::run();
        crate::experiments::assert_committed(&tables);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].rows.len() >= 12);
    }
}
