//! E10 — the on-line extension (§VI, ref \[8\]): randomized retry routing in
//! O(λ(M) + lg n·lg lg n) delivery cycles with high probability.
//!
//! Runs on [`OnlineArena`] (one arena per tree, reused across k-values and
//! seeds), with a final counted run per cell so the table can say *where*
//! congestion concentrates: `resends` is the total number of blocked claim
//! attempts (= retransmissions), and `blocked by level` breaks them down
//! from the root channels (left) to the leaf channels (right).

use crate::tables::{f, Table};
use ft_core::{load_factor, FatTree};
use ft_sched::online::online_bound_shape;
use ft_sched::{OnlineArena, OnlineConfig};
use ft_telemetry::MetricsRecorder;
use ft_workloads::balanced_k_relation;

/// Run E10.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "E10 — on-line randomized routing: cycles over 20 seeds (universal tree, w = n/4)",
        &[
            "n",
            "k",
            "λ(M)",
            "cycles min",
            "median",
            "max",
            "λ+lgn·lglgn",
            "max/shape",
            "resends",
            "blocked by level (root→leaf)",
        ],
    );
    for &n in &[64u32, 256, 1024] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let mut arena = OnlineArena::new(&ft);
        for &k in &[1u32, 4, 16] {
            let msgs = balanced_k_relation(n, k, &mut rng);
            let lambda = load_factor(&ft, &msgs);
            let mut cycles: Vec<usize> = (0..20)
                .map(|_| {
                    arena.run(&ft, &msgs, &mut rng, OnlineConfig::default());
                    arena.cycles()
                })
                .collect();
            cycles.sort_unstable();
            let shape = online_bound_shape(&ft, lambda);
            // One more run with a metrics recorder attached: outcomes are
            // unchanged (see ft-sched's recorder tests), but we learn the
            // per-level congestion profile of a representative run.
            let mut rec = MetricsRecorder::new();
            arena.run_with(&ft, &msgs, &mut rng, OnlineConfig::default(), &mut rec);
            let by_level: Vec<String> = rec.blocked[1..].iter().map(u64::to_string).collect();
            t.row(vec![
                n.to_string(),
                k.to_string(),
                f(lambda),
                cycles[0].to_string(),
                cycles[10].to_string(),
                cycles[19].to_string(),
                f(shape),
                f(cycles[19] as f64 / shape),
                rec.total_blocked().to_string(),
                by_level.join("/"),
            ]);
        }
    }
    t.note("The max over seeds tracks λ + lg n·lg lg n with a small constant, and the");
    t.note("min–max spread is narrow: the 'with high probability' claim is visible.");
    t.note("Resends = blocked claim attempts in one counted run. The per-level split");
    t.note("explains the congestion: at k = 1 each leaf channel carries one message,");
    t.note("so all contention sits in the upper tree where the w = n/4 root cap binds;");
    t.note("as k grows the leaf channels become the λ(M) bottleneck and rejections");
    t.note("concentrate at the rightmost (leaf) level.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_within_constant_of_shape() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let ratio: f64 = row[7].parse().unwrap();
            assert!(ratio <= 6.0, "online routing exceeded shape: {row:?}");
        }
    }

    #[test]
    fn e10_counter_columns_are_well_formed() {
        let t = super::run();
        for row in &t[0].rows {
            let resends: u64 = row[8].parse().unwrap();
            let by_level: u64 = row[9].split('/').map(|s| s.parse::<u64>().unwrap()).sum();
            assert_eq!(resends, by_level, "level split must account for resends");
        }
    }
}
