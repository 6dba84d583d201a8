//! The flux bounds at the heart of Theorem 10's proof.
//!
//! For a message set `M` that network `R` delivers in time `t`, the proof
//! bounds the number of messages that can cross into or out of any subtree
//! of the balanced decomposition tree:
//!
//! * **surface bound**: at most `O(t·v^(2/3)/2^(2k/3))` messages cross a
//!   region at level `k` (only `O(area)` bits per unit time), and
//! * **pin bound**: at most `O(t·n/2^k)` messages, since each of the
//!   `n/2^k` processors inside has O(1) connections.
//!
//! Dividing by the universal fat-tree's channel capacity at level `k` gives
//! `λ(M) = O(t·lg(n/v^(2/3)))` — the quantity this module measures.

use crate::identify::Identification;
use ft_core::{LevelLoads, MessageSet};

/// Empirical check of the Theorem 10 flux bounds for a translated message
/// set with measured delivery time `t` on the competitor network.
#[derive(Clone, Copy, Debug)]
pub struct FluxReport {
    /// max over channels of `load / (t·surface-bandwidth at that level)` —
    /// the constant hidden in the surface bound (should be O(1)).
    pub surface_constant: f64,
    /// max over channels of `load / (t·processors-below·degree)` — the
    /// constant in the pin bound (should be ≤ 1 for degree-normalized).
    pub pin_constant: f64,
    /// The fat-tree load factor λ(M) of the translated set.
    pub load_factor: f64,
    /// The theorem's predicted λ bound: `c·t·lg(n/v^(2/3))`, unit constant.
    pub lambda_bound: f64,
}

/// Measure the flux constants for `msgs` (already translated to fat-tree
/// leaves) given the network delivery time `t_net` and max degree `degree`.
pub fn flux_report(
    id: &Identification,
    translated: &MessageSet,
    t_net: usize,
    degree: usize,
) -> FluxReport {
    let ft = &id.fat_tree;
    let loads = LevelLoads::of(ft, translated);
    let t = t_net.max(1) as f64;
    let v23 = id.volume.powf(2.0 / 3.0);
    let n = ft.n() as f64;

    let mut surface_constant: f64 = 0.0;
    let mut pin_constant: f64 = 0.0;
    // One level's channels share both denominators, so its heaviest
    // channel decides.
    for (k, &load) in loads.max_per_level().iter().enumerate() {
        let load = load as f64;
        if load == 0.0 {
            continue;
        }
        let k = k as f64;
        // Surface bandwidth of a level-k region: Θ(v^(2/3)/4^(k/3)).
        let surface_bw = 6.0 * v23 / 4f64.powf(k / 3.0);
        surface_constant = surface_constant.max(load / (t * surface_bw));
        // Pin bound: processors below a level-k channel = n/2^k, each with
        // `degree` connections.
        let procs_below = n / 2f64.powf(k);
        pin_constant = pin_constant.max(load / (t * procs_below * degree as f64));
    }

    let lambda_bound = t * ((n / v23).max(2.0)).log2();
    FluxReport {
        surface_constant,
        pin_constant,
        load_factor: loads.load_factor(ft),
        lambda_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::rng::SplitMix64;
    use ft_networks::{simulate_delivery, FixedConnectionNetwork, Mesh3D};
    use ft_workloads::random_permutation;

    #[test]
    fn flux_constants_are_bounded_for_mesh_traffic() {
        let net = Mesh3D::new(4);
        let id = Identification::build(&net, 1.0);
        let mut rng = SplitMix64::seed_from_u64(42);
        let m = random_permutation(64, &mut rng);
        let out = simulate_delivery(&net, &m, 1, &mut rng);
        let translated = id.translate(&m);
        let report = flux_report(&id, &translated, out.steps, net.degree());

        // The proof's constants: O(1). Empirically they should be small.
        assert!(
            report.surface_constant < 8.0,
            "surface constant {} too large",
            report.surface_constant
        );
        assert!(
            report.pin_constant <= 2.0,
            "pin constant {} too large",
            report.pin_constant
        );
        // And λ(M) within the theorem's bound shape (generous constant).
        assert!(
            report.load_factor <= 8.0 * report.lambda_bound,
            "λ = {} vs bound {}",
            report.load_factor,
            report.lambda_bound
        );
    }

    #[test]
    fn empty_set_trivial_report() {
        let net = Mesh3D::new(4);
        let id = Identification::build(&net, 1.0);
        let r = flux_report(&id, &MessageSet::new(), 0, net.degree());
        assert_eq!(r.surface_constant, 0.0);
        assert_eq!(r.pin_constant, 0.0);
        assert_eq!(r.load_factor, 0.0);
    }
}
