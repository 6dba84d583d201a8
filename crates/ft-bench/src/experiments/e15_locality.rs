//! E15 — §II's telephone-exchange claim, measured: "messages can be routed
//! locally without soaking up the precious bandwidth higher up in the tree,
//! much as telephone communications are routed within an exchange without
//! using more expensive trunk lines."
//!
//! We sweep the traffic locality parameter and measure (a) the fraction of
//! messages that ever reach the top levels and (b) the per-level channel
//! utilization of one simulated delivery batch.

use crate::tables::{f, Table};
use ft_core::{load_factor, FatTree};
use ft_sched::schedule_theorem1;
use ft_sim::{simulate_cycle, ChannelUtilization, SimConfig};
use ft_workloads::{fraction_crossing_level, local_traffic};

/// Run E15.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let n = 1024u32;
    let ft = FatTree::universal(n, 64);
    let mut t = Table::new(
        format!("E15 — locality vs trunk-line usage (n = {n}, w = 64)"),
        &[
            "p_far",
            "crosses top-2 levels",
            "λ(M)",
            "cycles",
            "util L1 (trunk)",
            "util L8 (local)",
        ],
    );
    for &pf in &[0.05f64, 0.2, 0.5, 0.8] {
        let msgs = local_traffic(n, 2, pf, &mut rng);
        let lambda = load_factor(&ft, &msgs);
        let (schedule, _) = schedule_theorem1(&ft, &msgs);
        schedule.validate(&ft, &msgs).expect("valid");
        // Utilization of the first (fullest) cycle.
        let first = schedule.cycles().first().expect("nonempty");
        let rep = simulate_cycle(&ft, first.as_slice(), &SimConfig::default());
        let util = ChannelUtilization::of_cycle(&ft, &rep.channel_use);
        t.row(vec![
            f(pf),
            format!("{:.1}%", 100.0 * fraction_crossing_level(&ft, &msgs, 1)),
            f(lambda),
            schedule.num_cycles().to_string(),
            format!("{:.1}%", 100.0 * util.per_level[1]),
            format!(
                "{:.1}%",
                100.0 * util.per_level[8.min(util.per_level.len() - 1)]
            ),
        ]);
    }
    t.note("Local traffic barely touches the trunk channels near the root while the");
    t.note("leaf-side channels stay busy — the telephone-exchange behaviour of §II. As");
    t.note("p_far grows, trunk utilization and the cycle count rise together.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e15_trunk_usage_monotone_in_p_far() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        let cross: Vec<f64> = t[0]
            .rows
            .iter()
            .map(|r| r[1].trim_end_matches('%').parse().unwrap())
            .collect();
        for w in cross.windows(2) {
            assert!(
                w[0] <= w[1] + 5.0,
                "crossing fraction should rise with p_far: {cross:?}"
            );
        }
        // Local traffic leaves trunks nearly idle.
        assert!(
            cross[0] < 10.0,
            "p_far = 0.05 should rarely cross the root: {cross:?}"
        );
    }
}
