//! Fixed-connection network emulation (§VI).
//!
//! "An important application of the universality of fat-trees is to the
//! simulation of fixed-connection networks… Here we relax the technical
//! assumption to allow the processors to have a given number d of
//! connections. Such a universal fat-tree … can simulate an arbitrary
//! degree-d fixed-connection network of volume v on n processors with only
//! O(lg n) time degradation. The idea is that the channel capacities of the
//! universal fat-tree are sufficiently large that the connections implied by
//! the network can be represented as a one-cycle message set, which requires
//! O(lg n) time to be delivered."
//!
//! [`Emulation::build`] finds the smallest root capacity making the
//! network's *entire edge set* a one-cycle message set under the degree-`d`
//! universal profile, using the decomposition-tree identification. Every
//! step of the guest network then costs one O(lg n) delivery cycle.

use crate::identify::Identification;
use ft_core::{CapacityProfile, FatTree, LevelLoads, Message, MessageSet};
use ft_networks::FixedConnectionNetwork;

/// A fixed-connection emulation: the host fat-tree and its guarantees.
pub struct Emulation {
    /// The processor identification (and the volume bookkeeping inside).
    pub identification: Identification,
    /// The degree-`d` host fat-tree with the minimal adequate root capacity.
    pub host: FatTree,
    /// The guest's max degree `d`.
    pub degree: u64,
    /// The translated edge message set (both directions of every edge).
    pub edge_set: MessageSet,
    /// Minimal root capacity found.
    pub root_capacity: u64,
    /// λ of the edge set on the host (≤ 1 by construction).
    pub edge_load_factor: f64,
}

impl Emulation {
    /// Build the emulation for `net` (γ is the surface-bandwidth constant of
    /// the identification step).
    pub fn build(net: &dyn FixedConnectionNetwork, gamma: f64) -> Self {
        let id = Identification::build(net, gamma);
        let degree = net.degree().max(1) as u64;
        let n_ft = id.fat_tree.n();

        // Edge message set: both directions of every adjacency.
        let mut edges = MessageSet::new();
        for u in 0..net.n() {
            for v in net.neighbors(u) {
                edges.push(Message::new(u as u32, v as u32));
            }
        }
        let translated = id.translate(&edges);

        // Binary-search the smallest root capacity w with λ(edges) ≤ 1 under
        // the degree-d profile. λ is monotone nonincreasing in w. Loads do
        // not depend on capacities: count them once, fold per probe.
        let loads = LevelLoads::of(&id.fat_tree, &translated);
        let lambda_for = |w: u64| {
            let profile = CapacityProfile::UniversalWithDegree {
                root_capacity: w.max(1),
                degree,
            };
            loads.factor(&profile.capacities(n_ft))
        };
        let mut lo = 1u64;
        let mut hi = degree * n_ft as u64;
        debug_assert!(lambda_for(hi) <= 1.0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if lambda_for(mid) <= 1.0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let host = FatTree::new(
            n_ft,
            CapacityProfile::UniversalWithDegree {
                root_capacity: lo,
                degree,
            },
        );
        let lam = loads.load_factor(&host);
        Emulation {
            identification: id,
            host,
            degree,
            edge_set: translated,
            root_capacity: lo,
            edge_load_factor: lam,
        }
    }

    /// Emulate `steps` synchronous steps of the guest: each step delivers
    /// the full edge set in one delivery cycle of `Θ(lg n)` ticks. Returns
    /// the total fat-tree time in ticks (the §VI "O(lg n) degradation").
    pub fn emulation_time(&self, steps: usize) -> u64 {
        let lgn = ft_core::lg(self.host.n() as u64) as u64;
        steps as u64 * 2 * (2 * lgn).saturating_sub(1)
    }

    /// Translate one round of guest messages (must travel along guest
    /// edges or be local) and check it fits in a single cycle.
    pub fn round_is_one_cycle(&self, round: &MessageSet) -> bool {
        let translated = self.identification.translate(round);
        LevelLoads::of(&self.host, &translated).is_one_cycle(&self.host)
    }

    /// Host capacity overhead: root capacity relative to the guest's
    /// bisection-scale volume term `v^(2/3)` (the §VI volume premium
    /// `O(lg^(3/2)(n/v^(2/3)))` shows up here as a polylog factor).
    pub fn capacity_overhead(&self) -> f64 {
        let v23 = self.identification.volume.powf(2.0 / 3.0);
        self.root_capacity as f64 / v23.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_networks::{Hypercube, Mesh2D, Mesh3D, Ring, ShuffleExchange};

    #[test]
    fn mesh3d_emulation_is_one_cycle() {
        let net = Mesh3D::new(4);
        let em = Emulation::build(&net, 1.0);
        assert!(em.edge_load_factor <= 1.0 + 1e-9);
        assert_eq!(em.degree, 6);
        // Minimality: one less capacity must overload (unless already 1).
        if em.root_capacity > 1 {
            let thinner = FatTree::new(
                em.host.n(),
                CapacityProfile::UniversalWithDegree {
                    root_capacity: em.root_capacity - 1,
                    degree: em.degree,
                },
            );
            let lam = ft_core::LoadMap::of(&thinner, &em.edge_set).load_factor(&thinner);
            assert!(lam > 1.0, "root capacity not minimal");
        }
    }

    #[test]
    fn ring_needs_tiny_capacity() {
        // A ring's edge set is almost entirely local under the locality
        // preserving identification: w stays far below n.
        let net = Ring::new(64);
        let em = Emulation::build(&net, 1.0);
        // The degree-d profile needs ⌈w/n^(2/3)⌉ ≥ d just to give each
        // processor its d leaf wires: w ≥ d·n^(2/3) − n^(2/3) + 1 = 17 here.
        // The ring (bisection 2) sits exactly at that floor — no mid-tree
        // channel asks for more.
        let floor = (em.degree - 1) * 16 + 1; // n^(2/3) = 16 for n = 64
        assert_eq!(
            em.root_capacity, floor,
            "ring emulation should sit at the degree floor"
        );
    }

    #[test]
    fn hypercube_needs_large_capacity() {
        // The hypercube's edge set has Θ(n) bisection: w = Θ(n) required —
        // and §VI grants it, since the hypercube's volume is Θ(n^(3/2)).
        let net = Hypercube::new(6);
        let em = Emulation::build(&net, 1.0);
        assert!(
            em.root_capacity >= 16,
            "hypercube edges need real root capacity, got {}",
            em.root_capacity
        );
        assert!(em.edge_load_factor <= 1.0 + 1e-9);
    }

    #[test]
    fn ascend_rounds_fit_on_hypercube_host() {
        // The emulation guarantee in action: every round of a hypercube
        // ascend algorithm is one delivery cycle on the host.
        let net = Hypercube::new(5);
        let em = Emulation::build(&net, 1.0);
        for round in ft_workloads::ascend_rounds(32) {
            assert!(em.round_is_one_cycle(&round));
        }
        assert_eq!(em.emulation_time(5), 5 * 2 * (2 * 5 - 1));
    }

    #[test]
    fn mesh2d_cheaper_than_shuffle_exchange() {
        // Bisection ordering: planar mesh ≪ shuffle-exchange (n/lg n).
        let mesh = Emulation::build(&Mesh2D::new(8, 8), 1.0);
        let se = Emulation::build(&ShuffleExchange::new(6), 1.0);
        assert!(
            mesh.root_capacity < se.root_capacity,
            "mesh w = {} should undercut shuffle-exchange w = {}",
            mesh.root_capacity,
            se.root_capacity
        );
    }
}
