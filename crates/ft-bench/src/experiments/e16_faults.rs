//! E16 — §VII fault tolerance: dead wires shrink channel capacities;
//! concentrators and retries absorb them with graceful degradation.
//! (The paper poses fault tolerance as an open engineering problem; the
//! fat-tree's wire-bundle redundancy is its structural answer.)

use crate::tables::{f, Table};
use ft_core::FatTree;
use ft_sim::{run_to_completion, FaultModel, SimConfig};
use ft_workloads::{balanced_k_relation, random_permutation};

/// Run E16.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let n = 256u32;
    let ft = FatTree::universal(n, 64);
    let mut t = Table::new(
        format!("E16 — wire faults vs delivery cycles (n = {n}, w = 64, ideal switches)"),
        &[
            "dead wires",
            "measured dead",
            "perm cycles",
            "perm slowdown",
            "4-relation cycles",
            "4-rel slowdown",
        ],
    );
    let perm = random_permutation(n, &mut rng);
    let krel = balanced_k_relation(n, 4, &mut rng);
    let healthy_perm = run_to_completion(&ft, &perm, &SimConfig::default()).cycles;
    let healthy_krel = run_to_completion(&ft, &krel, &SimConfig::default()).cycles;
    for &p in &[0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let fm = FaultModel {
            dead_wire_fraction: p,
            seed: 0xE16,
        };
        let cfg = SimConfig {
            faults: fm,
            ..Default::default()
        };
        let cp = run_to_completion(&ft, &perm, &cfg).cycles;
        let ck = run_to_completion(&ft, &krel, &cfg).cycles;
        t.row(vec![
            format!("{:.0}%", 100.0 * p),
            format!("{:.1}%", 100.0 * fm.measured_fraction(&ft)),
            cp.to_string(),
            f(cp as f64 / healthy_perm as f64),
            ck.to_string(),
            f(ck as f64 / healthy_krel as f64),
        ]);
    }
    t.note("Killing wires shrinks capacities roughly proportionally, and delivery cycles");
    t.note("grow by about the same factor — no reconfiguration, no routing changes: the");
    t.note("concentrators simply use the surviving wires. §VII's robustness in action:");
    t.note("'one need not worry about the exact capacities of channels as long as the");
    t.note("capacities exhibit reasonable growth'.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e16_graceful_degradation() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let s1: f64 = row[3].parse().unwrap();
            let s2: f64 = row[5].parse().unwrap();
            assert!(s1 <= 4.0 && s2 <= 4.0, "degradation not graceful: {row:?}");
        }
        // The 40%-dead row must actually be slower than the healthy row.
        let last: f64 = t[0].rows.last().unwrap()[5].parse().unwrap();
        assert!(last >= 1.0);
    }
}
