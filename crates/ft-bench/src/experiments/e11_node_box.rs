//! E11 — Lemma 3: a node with m components wires into an
//! O(h√m) × O(h√m) × O(√m/h) box for any 1 ≤ h ≤ √m.

use crate::tables::{f, Table};
use ft_core::FatTree;
use ft_layout::cost::{node_box, node_box_volume, node_incident_wires, COMPONENTS_PER_WIRE};

/// Run E11.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E11 — Lemma 3: node layout boxes (m components, aspect parameter h)",
        &["m", "h", "box", "volume h·m^(3/2)", "vol/min-vol"],
    );
    for &m in &[64u64, 1024, 16384] {
        let sqrt_m = (m as f64).sqrt();
        for &h in &[1.0, 2.0, 4.0] {
            if h > sqrt_m {
                continue;
            }
            let b = node_box(m, h);
            t.row(vec![
                m.to_string(),
                f(h),
                format!("{}×{}×{}", f(b[0]), f(b[1]), f(b[2])),
                f(node_box_volume(m, h)),
                f(node_box_volume(m, h) / node_box_volume(m, 1.0)),
            ]);
        }
    }
    t.note("Flattening a node (large h) trades volume linearly for a thinner box — the");
    t.note("packaging freedom Lemma 3 provides (Thompson's layered-slice construction).");

    // Where the node sizes come from in a real universal fat-tree.
    let mut sizes = Table::new(
        "E11b — node sizes along a universal fat-tree (n = 4096, w = 512)",
        &[
            "level",
            "incident wires m_k",
            "components ≈ 19·m_k",
            "min box volume",
        ],
    );
    let ft = FatTree::universal(4096, 512);
    for k in [0u32, 2, 4, 6, 8, 10] {
        let m = node_incident_wires(&ft, k);
        let comps = (COMPONENTS_PER_WIRE * m as f64) as u64;
        sizes.row(vec![
            k.to_string(),
            m.to_string(),
            comps.to_string(),
            f(node_box_volume(comps, 1.0)),
        ]);
    }
    sizes.note("Node volume shrinks geometrically from the root — the sum over all nodes is");
    sizes.note("what Theorem 4 integrates into Θ((w·lg(n/w))^(3/2)).");
    vec![t, sizes]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_volume_linear_in_h() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let h: f64 = row[1].parse().unwrap();
            let ratio: f64 = row[4].parse().unwrap();
            assert!((ratio - h).abs() < 1e-6, "volume not linear in h: {row:?}");
        }
    }
}
