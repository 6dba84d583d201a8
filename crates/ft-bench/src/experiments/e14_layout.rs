//! E14 — Theorem 4 constructively: the Leighton–Rosenberg-style recursive
//! 3-D layout of a universal fat-tree, with explicit node boxes.

use crate::tables::{f, Table};
use ft_core::FatTree;
use ft_layout::{cost, FatTreeLayout};

/// Run E14.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E14 — constructive 3-D layout vs the Theorem 4 volume law",
        &[
            "n",
            "w",
            "layout volume",
            "law (w·lg(n/w))^(3/2)",
            "ratio",
            "aspect",
            "machine box",
        ],
    );
    for &lgn in &[8u32, 10, 12, 14] {
        let n = 1u32 << lgn;
        for wsel in [2 * lgn / 3, (5 * lgn) / 6, lgn] {
            let w = 1u64 << wsel;
            let ft = FatTree::universal(n, w);
            let layout = FatTreeLayout::build(&ft);
            let law = cost::theorem4_volume_law(n as u64, w);
            let d = layout.level_dims[0];
            t.row(vec![
                n.to_string(),
                w.to_string(),
                f(layout.volume),
                f(law),
                f(layout.volume / law),
                f(layout.aspect_ratio()),
                format!("{}×{}×{}", f(d[0]), f(d[1]), f(d[2])),
            ]);
        }
    }
    t.note("Per w-scaling the ratio sits in a constant band — the constructive layout");
    t.note("achieves the Theorem 4 shape (its constant is dominated by the 19-components-");
    t.note("per-wire switch slabs). Boxes stay within a constant aspect ratio; Thompson's");
    t.note("slicing (Lemma 3) could re-cube them at a constant volume factor.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e14_ratio_band_per_scaling() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        // Group rows by w-selection (3 per n): ratio across n within 50×.
        for sel in 0..3 {
            let ratios: Vec<f64> = t[0]
                .rows
                .iter()
                .skip(sel)
                .step_by(3)
                .map(|r| r[4].parse().unwrap())
                .collect();
            let max = ratios.iter().cloned().fold(0.0f64, f64::max);
            let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                max / min < 50.0,
                "ratio band too wide for selection {sel}: {ratios:?}"
            );
        }
    }
}
