//! E8 — §IV concentrator switches (Fig. 3): Pippenger-style partial
//! concentrators vs ideal crossbars — hardware cost and concentration
//! success at the guaranteed load α·s.

use crate::tables::{f, Table};
use ft_concentrator::{Cascade, Concentrator, Crossbar, PartialConcentrator};

/// Run E8.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let mut t = Table::new(
        "E8 — partial concentrators (r → 2r/3, deg ≤ (6,9), α = 3/4) vs crossbars",
        &[
            "r",
            "s",
            "components partial",
            "components crossbar",
            "saving",
            "fail rate @ α·s (500 trials)",
        ],
    );
    for &r in &[48usize, 96, 192, 384, 768] {
        let pc = PartialConcentrator::pippenger(r, &mut rng);
        let s = pc.outputs();
        let cb = Crossbar::new(r, s);
        let failures = pc.verify_random(500, &mut rng);
        t.row(vec![
            r.to_string(),
            s.to_string(),
            pc.components().to_string(),
            cb.components().to_string(),
            format!("{:.0}×", cb.components() as f64 / pc.components() as f64),
            f(failures as f64 / 500.0),
        ]);
    }
    t.note("O(r) components versus Θ(r²) crosspoints; concentration failures at the");
    t.note("guaranteed load are rare and vanish as r grows (Pippenger's probabilistic");
    t.note("construction holds 'for sufficiently large r').");

    let mut casc = Table::new(
        "E8b — cascades: any constant concentration ratio in constant depth",
        &["r", "target", "depth", "components", "guaranteed load"],
    );
    for &(r, target) in &[(243usize, 32usize), (512, 64), (1024, 64), (1024, 256)] {
        let c = Cascade::new(r, target, &mut rng);
        casc.row(vec![
            r.to_string(),
            target.to_string(),
            c.depth().to_string(),
            c.components().to_string(),
            c.guaranteed().to_string(),
        ]);
    }
    casc.note("Depth grows with lg(r/target)/lg(3/2) — constant for any constant ratio,");
    casc.note("exactly the paper's 'pasting outputs to inputs' argument.");

    vec![t, casc]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_failure_rates_are_small() {
        let tables = super::run();
        crate::experiments::assert_committed(&tables);
        for row in &tables[0].rows {
            let rate: f64 = row[5].parse().unwrap();
            assert!(rate <= 0.10, "failure rate too high: {row:?}");
        }
    }
}
