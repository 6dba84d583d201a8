//! # ft-bench — the experiment harness
//!
//! The paper is a theory paper: its "evaluation" is Theorems 1–10 and
//! Figures 1–4. Each experiment here regenerates one of those artifacts as
//! a measured table (see DESIGN.md §3 for the index and EXPERIMENTS.md for
//! recorded results):
//!
//! * E1–E2 — scheduling bounds (Theorem 1, Corollary 2),
//! * E3 — universal fat-tree capacities and hardware cost (Theorem 4, Fig. 1),
//! * E4–E5 — decomposition trees and balancing (Theorems 5, 8; Lemmas 6, 7),
//! * E6 — universality (Theorem 10),
//! * E7 — the finite-element motivation (§I),
//! * E8 — concentrator switches (§IV, Fig. 3),
//! * E9 — permutation routing vs Beneš (§VI),
//! * E10 — on-line routing (§VI, ref \[8\]),
//! * E11 — node layout boxes (Lemma 3),
//! * E12 — bit-serial delivery-cycle timing (§II, Fig. 2),
//! * E13–E16 — emulation, constructive layout, locality, wire faults,
//! * E21 — generalized topologies (k-ary pods, two-layer trees),
//! * A1–A4 — ablations (capacity profile, scheduler, switches, compression).
//!
//! Run them all: `cargo run --release -p ft-bench --bin repro -- all`. The
//! tables carry no timings (those live in `benchmark/`), and each
//! experiment's test pins its tables to EXPERIMENTS.md.

pub mod experiments;
pub mod tables;

use experiments::*;
pub use tables::Table;

/// Renders one experiment's tables.
pub type Generator = fn() -> Vec<Table>;

/// Every experiment: its id and its table generator, in presentation order.
pub const ALL_EXPERIMENTS: &[(&str, Generator)] = &[
    ("e1", e1_theorem1::run),
    ("e2", e2_corollary2::run),
    ("e3", e3_hardware_cost::run),
    ("e4", e4_decomposition::run),
    ("e5", e5_balance::run),
    ("e6", e6_universality::run),
    ("e7", e7_finite_element::run),
    ("e8", e8_concentrators::run),
    ("e9", e9_permutation::run),
    ("e10", e10_online::run),
    ("e11", e11_node_box::run),
    ("e12", e12_bit_serial::run),
    ("e13", e13_emulation::run),
    ("e14", e14_layout::run),
    ("e15", e15_locality::run),
    ("e16", e16_faults::run),
    ("a1", a1_capacity_ablation::run),
    ("a2", a2_scheduler_ablation::run),
    ("a3", a3_switch_ablation::run),
    ("a4", a4_compression::run),
    ("e21", e21_topology::run),
];

/// Run one experiment by id.
pub fn run_experiment(id: &str) -> Option<Vec<Table>> {
    let (_, run) = ALL_EXPERIMENTS.iter().find(|(e, _)| *e == id)?;
    Some(run())
}
