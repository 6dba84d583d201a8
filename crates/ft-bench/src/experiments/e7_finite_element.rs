//! E7 — §I's motivation: planar finite-element traffic doesn't need
//! hypercube hardware. Volume and delivery cycles across capacity budgets.

use crate::tables::{f, Table};
use ft_core::{load_factor, FatTree};
use ft_layout::cost;
use ft_sched::schedule_theorem1;
use ft_workloads::FemGrid;

/// Run E7.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E7 — planar FEM sweeps: hardware volume vs delivery cycles (Morton order)",
        &[
            "n",
            "w",
            "volume law",
            "λ(M)",
            "cycles d",
            "vol/hypercube-vol",
        ],
    );
    for &n in &[256u32, 1024, 4096] {
        let g = FemGrid::with_n(n);
        let msgs = g.sweep_messages_morton();
        let hyper = cost::hypercube_volume_law(n as u64);
        let w_min = (n as f64).powf(2.0 / 3.0).ceil() as u64;
        let sqrt4 = 4 * (n as f64).sqrt().ceil() as u64;
        for (label, w) in [
            (format!("n^(2/3) = {w_min}"), w_min),
            (format!("4·√n = {sqrt4}"), sqrt4),
            (format!("n = {n}"), n as u64),
        ] {
            let ft = FatTree::universal(n, w);
            let lambda = load_factor(&ft, &msgs);
            let (schedule, _) = schedule_theorem1(&ft, &msgs);
            schedule.validate(&ft, &msgs).expect("valid");
            let v = cost::theorem4_volume_law(n as u64, w);
            t.row(vec![
                n.to_string(),
                label,
                f(v),
                f(lambda),
                schedule.num_cycles().to_string(),
                f(v / hyper),
            ]);
        }
    }
    t.note("λ is pinned by the element degree (leaf channels), not the root: the cheapest");
    t.note("universal fat-tree (w = n^(2/3), a vanishing fraction of hypercube volume) already");
    t.note("delivers the sweep in as few cycles as the full-bisection tree — §I's thesis.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_cheap_tree_matches_rich_tree_cycles() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        // Within each n group (3 rows), cycles differ by at most ~2×.
        for chunk in t[0].rows.chunks(3) {
            let d_min: f64 = chunk[0][4].parse().unwrap();
            let d_max: f64 = chunk[2][4].parse().unwrap();
            assert!(
                d_min <= 2.5 * d_max + 2.0,
                "cheap tree far worse: {chunk:?}"
            );
        }
    }
}
