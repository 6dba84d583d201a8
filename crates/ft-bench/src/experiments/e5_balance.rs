//! E5 — Lemma 6 (Fig. 4), Theorem 8 and Corollary 9: balanced
//! decomposition trees and their bandwidth inflation.

use crate::tables::{f, Table};
use ft_layout::{balance_decomposition, split_necklace};

/// Run E5.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();

    // Lemma 6 statistics: how many cuts, how exact the split, over random
    // necklaces (Fig. 4 made quantitative).
    let mut pearls = Table::new(
        "E5a — Lemma 6 (Fig. 4): pearl splits over 1000 random two-string necklaces",
        &[
            "pearls N",
            "splits exact in blacks",
            "max arcs per side",
            "mean arcs per side",
        ],
    );
    for &n in &[16usize, 64, 256] {
        let mut exact = 0usize;
        let mut max_arcs = 0usize;
        let mut total_arcs = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            let cut = rng.gen_range(1..n);
            let long: Vec<bool> = (0..cut.max(n - cut)).map(|_| rng.gen_bool(0.5)).collect();
            let short: Vec<bool> = (0..cut.min(n - cut)).map(|_| rng.gen_bool(0.5)).collect();
            let (lb, sb) = (positions(&long), positions(&short));
            let (l, s) = (
                (0, long.len() as u64, &lb[..]),
                (0, short.len() as u64, &sb[..]),
            );
            let (split, b) = (split_necklace(l, s), lb.len() + sb.len());
            let ba = split.blacks_a(l, s);
            if ba == b / 2 || ba == b.div_ceil(2) {
                exact += 1;
            }
            max_arcs = max_arcs.max(split.a.len()).max(split.b.len());
            total_arcs += split.a.len() + split.b.len();
        }
        pearls.row(vec![
            n.to_string(),
            format!("{exact}/{trials}"),
            max_arcs.to_string(),
            f(total_arcs as f64 / (2 * trials) as f64),
        ]);
    }
    pearls.note("Every split lands within one of half the blacks with at most two arcs per side —");
    pearls.note("the lemma's 'at most two cuts' made empirical.");

    // Theorem 8 / Corollary 9: bandwidth inflation of balancing.
    let mut bal = Table::new(
        "E5b — Theorem 8 / Corollary 9: balanced decomposition trees, a = ∛4",
        &[
            "slots 2^r",
            "processors",
            "balanced?",
            "worst w′/(4·Σ w_j)",
            "root w′/w₀ (≤ 4a/(a−1) ≈ 6.85)",
        ],
    );
    let a = 4f64.powf(1.0 / 3.0);
    for &(r, procs) in &[(6u32, 16usize), (8, 64), (8, 256), (10, 128)] {
        let slots = 1usize << r;
        let mut occupied = vec![false; slots];
        let mut placed = 0;
        while placed < procs {
            let i = rng.gen_range(0..slots);
            if !occupied[i] {
                occupied[i] = true;
                placed += 1;
            }
        }
        let ws: Vec<f64> = (0..=r).map(|j| 4096.0 / a.powi(j as i32)).collect();
        let tree = balance_decomposition(r, &positions(&occupied), &ws);
        bal.row(vec![
            slots.to_string(),
            procs.to_string(),
            tree.is_balanced().to_string(),
            f(tree.worst_theorem8_ratio()),
            f(tree.root.bandwidth / ws[0]),
        ]);
    }
    bal.note("worst w′/(4·Σ_{j≥k} w_j) ≤ 1 everywhere: Theorem 8's bound holds with its stated");
    bal.note("constant. The root inflation stays below Corollary 9's 4a/(a−1).");

    vec![pearls, bal]
}

/// The black positions of a string of `bool`s (the occupied slots of a
/// leaf line).
fn positions(xs: &[bool]) -> Vec<u64> {
    (0..xs.len() as u64).filter(|&i| xs[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_bounds_hold() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[1].rows {
            assert_eq!(row[2], "true");
            let ratio: f64 = row[3].parse().unwrap();
            assert!(ratio <= 1.0 + 1e-9);
        }
    }
}
