//! A1 — ablation: capacity profile. The universal profile vs a constant
//! (skinny) tree vs full doubling, across workload localities.

use crate::tables::{f, Table};
use ft_core::{load_factor, CapacityProfile, FatTree};
use ft_layout::cost;
use ft_sched::schedule_theorem1;
use ft_workloads::{bit_complement, local_traffic, random_permutation, FemGrid};

/// Run A1.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let n = 1024u32;
    let w23 = (n as f64).powf(2.0 / 3.0).ceil() as u64; // ≈ 102
    let profiles: Vec<(String, FatTree)> = vec![
        (
            "constant 4 (skinny)".into(),
            FatTree::new(n, CapacityProfile::Constant(4)),
        ),
        (
            format!("universal w = n^(2/3) = {w23}"),
            FatTree::universal(n, w23),
        ),
        (
            "universal w = n/4".into(),
            FatTree::universal(n, (n / 4) as u64),
        ),
        (
            "full doubling (w = n)".into(),
            FatTree::new(n, CapacityProfile::FullDoubling),
        ),
    ];
    let workloads: Vec<(&str, ft_core::MessageSet)> = vec![
        ("local (p_far = 0.2)", local_traffic(n, 2, 0.2, &mut rng)),
        ("random permutation", random_permutation(n, &mut rng)),
        ("bit complement", bit_complement(n)),
        (
            "FEM sweep (Morton)",
            FemGrid::with_n(n).sweep_messages_morton(),
        ),
    ];

    let mut t = Table::new(
        format!("A1 — capacity-profile ablation (n = {n}): delivery cycles per workload"),
        &[
            "profile",
            "total wires",
            "volume law",
            "local",
            "perm",
            "complement",
            "FEM",
        ],
    );
    for (name, ft) in &profiles {
        let mut cells = vec![
            name.clone(),
            ft.total_wires().to_string(),
            f(cost::constructive_volume(ft)),
        ];
        for (_, msgs) in &workloads {
            let (schedule, _) = schedule_theorem1(ft, msgs);
            schedule.validate(ft, msgs).expect("valid");
            let lambda = load_factor(ft, msgs);
            cells.push(format!("{} (λ {})", schedule.num_cycles(), f(lambda)));
        }
        t.row(cells);
    }
    t.note("The skinny tree collapses on global traffic (λ = Θ(n) at the root); full doubling");
    t.note("wins nothing on local or planar traffic while costing hypercube-class volume.");
    t.note("The universal profile is the knee: §VII's 'build the biggest fat-tree you can");
    t.note("afford and the architecture automatically utilizes the bandwidth effectively'.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn a1_four_profiles() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        assert_eq!(t[0].rows.len(), 4);
    }
}
