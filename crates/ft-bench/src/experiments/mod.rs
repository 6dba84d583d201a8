//! One module per experiment; see crate docs and DESIGN.md §3.

pub mod a1_capacity_ablation;
pub mod a2_scheduler_ablation;
pub mod a3_switch_ablation;
pub mod a4_compression;
pub mod e10_online;
pub mod e11_node_box;
pub mod e12_bit_serial;
pub mod e13_emulation;
pub mod e14_layout;
pub mod e15_locality;
pub mod e16_faults;
pub mod e1_theorem1;
pub mod e21_topology;
pub mod e2_corollary2;
pub mod e3_hardware_cost;
pub mod e4_decomposition;
pub mod e5_balance;
pub mod e6_universality;
pub mod e7_finite_element;
pub mod e8_concentrators;
pub mod e9_permutation;

use ft_core::rng::SplitMix64;

/// The deterministic RNG every experiment uses (reproducible tables).
pub fn rng() -> SplitMix64 {
    SplitMix64::seed_from_u64(0x1985_0C70)
}

/// Assert that every table an experiment rendered appears verbatim in
/// EXPERIMENTS.md, so a change that moves any number fails the
/// experiment's test instead of leaving a stale committed table.
#[cfg(test)]
pub(crate) fn assert_committed(tables: &[crate::Table]) {
    const COMMITTED: &str = include_str!("../../../../EXPERIMENTS.md");
    for t in tables {
        let block = t.render_markdown();
        assert!(
            COMMITTED.contains(&block),
            "EXPERIMENTS.md does not hold this table verbatim; paste `repro` output over it:\n{block}"
        );
    }
}
