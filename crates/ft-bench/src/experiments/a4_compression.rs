//! A4 — ablation: post-compressing Theorem 1 schedules (greedy cycle
//! merging) quantifies how loose the 2·λ·lg n analysis is in practice.

use crate::tables::{f, Table};
use ft_core::{cycle_lower_bound, FatTree};
use ft_sched::{compress_schedule, schedule_theorem1};
use ft_workloads::{balanced_k_relation, local_traffic, total_exchange};

/// Run A4.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "A4 — schedule compression: Theorem 1 output vs greedily merged cycles",
        &[
            "n",
            "workload",
            "lower bound",
            "d thm1",
            "d compressed",
            "gain",
            "gap to LB",
        ],
    );
    let mut cases: Vec<(u32, &str, ft_core::MessageSet)> = Vec::new();
    for &n in &[256u32, 1024] {
        cases.push((
            n,
            "balanced 8-relation",
            balanced_k_relation(n, 8, &mut rng),
        ));
        cases.push((n, "local traffic k=4", local_traffic(n, 4, 0.3, &mut rng)));
    }
    // n(n−1) messages: one small tree is enough to show the effect.
    cases.push((128, "total exchange", total_exchange(128)));
    for (n, name, msgs) in cases {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let lb = cycle_lower_bound(&ft, &msgs);
        let (schedule, _) = schedule_theorem1(&ft, &msgs);
        let before = schedule.num_cycles();
        let compressed = compress_schedule(&ft, schedule);
        compressed.validate(&ft, &msgs).expect("still valid");
        t.row(vec![
            n.to_string(),
            name.into(),
            lb.to_string(),
            before.to_string(),
            compressed.num_cycles().to_string(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - compressed.num_cycles() as f64 / before as f64)
            ),
            f(compressed.num_cycles() as f64 / lb as f64),
        ]);
    }
    t.note("Merging recovers the slack Theorem 1's level-by-level analysis leaves (cycles");
    t.note("from different levels rarely conflict). After compression the schedule sits");
    t.note("within a small factor of the max(⌈λ⌉, wire-time) lower bound.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn a4_compression_never_hurts() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        let rows = &t[0].rows;
        for (i, row) in rows.iter().enumerate() {
            assert!(!rows[..i].contains(row), "duplicate row: {row:?}");
        }
        for row in rows {
            let before: usize = row[3].parse().unwrap();
            let after: usize = row[4].parse().unwrap();
            let lb: usize = row[2].parse().unwrap();
            assert!(after <= before);
            assert!(after >= lb);
        }
    }
}
