//! E4 — Theorem 5: any network in a cube of volume v has an
//! (O(v^(2/3)), ∛4) decomposition tree, built by cutting planes.

use crate::tables::{f, Table};
use ft_layout::{DecompTree, Placement};

/// Run E4.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E4 — Theorem 5: cutting-plane decomposition trees of cubes",
        &[
            "n procs",
            "volume v",
            "root bw w₀",
            "6·v^(2/3)",
            "depth r",
            "max 4·w_{i+3}/w_i",
        ],
    );
    for &n in &[64usize, 512, 4096] {
        let p = Placement::grid3d(n, 1.0);
        let tree = DecompTree::build(&p, 1.0);
        t.row(vec![
            n.to_string(),
            f(p.volume()),
            f(tree.root_bandwidth()),
            f(6.0 * p.volume().powf(2.0 / 3.0)),
            tree.depth.to_string(),
            f(tree.worst_quartering_ratio()),
        ]);
    }
    // Non-cubic competitors: flat (mesh-like) and elongated boxes.
    let mut rng = super::rng();
    for (name, p) in [
        ("2-D slab 32×32×1", Placement::grid2d(1024, 1.0)),
        (
            "random cube",
            Placement::random_in_cube(1000, 10.0, &mut rng),
        ),
    ] {
        let tree = DecompTree::build(&p, 1.0);
        t.row(vec![
            format!("{name} ({})", p.n()),
            f(p.volume()),
            f(tree.root_bandwidth()),
            f(6.0 * p.volume().powf(2.0 / 3.0)),
            tree.depth.to_string(),
            f(tree.worst_quartering_ratio()),
        ]);
    }
    t.note("Root bandwidth equals the surface-area law exactly for cubes (w₀ = 6·v^(2/3))");
    t.note("and exceeds it only by the aspect-ratio constant for non-cubic boxes.");
    t.note("The last column verifies the ∛4 ratio: every three cuts quarter the surface (= 1.00).");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_ratio_column_is_one() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!((ratio - 1.0).abs() < 0.01, "quartering ratio {ratio}");
        }
    }
}
