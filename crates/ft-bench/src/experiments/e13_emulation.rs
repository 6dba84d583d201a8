//! E13 — §VI fixed-connection emulation: a degree-d universal fat-tree
//! hosts any degree-d network's full edge set as a one-cycle message set,
//! so each guest step costs one O(lg n) delivery cycle.

use crate::tables::{f, Table};
use ft_networks::{
    FixedConnectionNetwork, Hypercube, Mesh2D, Mesh3D, Ring, ShuffleExchange, TreeMachine,
};
use ft_sim::compile_cycle;
use ft_universal::Emulation;

/// Run E13.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E13 — fixed-connection emulation (§VI): minimal host root capacity per guest",
        &[
            "guest network",
            "n",
            "degree d",
            "guest volume",
            "host w (minimal)",
            "λ(edges)",
            "compiles?",
            "ticks/step",
        ],
    );
    let nets: Vec<Box<dyn FixedConnectionNetwork>> = vec![
        Box::new(Ring::new(64)),
        Box::new(TreeMachine::new(6)),
        Box::new(Mesh2D::new(8, 8)),
        Box::new(ShuffleExchange::new(6)),
        Box::new(Mesh3D::new(4)),
        Box::new(Hypercube::new(6)),
    ];
    for net in &nets {
        let em = Emulation::build(net.as_ref(), 1.0);
        // The edge set must compile to switch settings (ideal concentrators):
        // §II's "compiled" emulation of a fixed-connection network.
        let compiled = compile_cycle(&em.host, em.edge_set.as_slice());
        t.row(vec![
            net.name(),
            net.n().to_string(),
            net.degree().to_string(),
            f(net.volume()),
            em.root_capacity.to_string(),
            f(em.edge_load_factor),
            if compiled.is_ok() {
                "✓".into()
            } else {
                "✗".into()
            },
            em.emulation_time(1).to_string(),
        ]);
    }
    t.note("Host capacity ranks guests by communication demand — the degree floor");
    t.note("(d−1)·n^(2/3)+1 for leaf wires plus bisection pressure: ring < tree ≤ mesh2d");
    t.note("< shuffle-exchange < mesh3d < hypercube. Every edge set compiles to static");
    t.note("switch settings (§II's 'compiled' mode: no acknowledgment hardware needed),");
    t.note("and one guest step costs one Θ(lg n)-tick delivery cycle.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_everything_compiles() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            assert_eq!(row[6], "✓", "edge set failed to compile: {row:?}");
            let lam: f64 = row[5].parse().unwrap();
            assert!(lam <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn e13_capacity_ranks_by_bisection() {
        let t = super::run();
        let w: Vec<f64> = t[0].rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // ring ≤ tree ≤ mesh2d ≤ shuffle-exchange ≤ mesh3d ≤ hypercube
        for i in 0..w.len() - 1 {
            assert!(
                w[i] <= w[i + 1] + 1e-9,
                "bisection order violated at row {i}: {w:?}"
            );
        }
    }
}
