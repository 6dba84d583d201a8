//! E3 — Theorem 4 and Fig. 1: universal fat-tree capacities, component
//! count Θ(n·lg(w³/n²)), and volume Θ((w·lg(n/w))^(3/2)).

use crate::tables::{f, Table};
use ft_core::capacity::{crossover_level, universal_cap};
use ft_core::FatTree;
use ft_layout::cost;

/// Run E3.
pub fn run() -> Vec<Table> {
    // Fig. 1: the capacity profile of one universal fat-tree.
    let mut fig1 = Table::new(
        "E3a — Fig. 1: channel capacities of a universal fat-tree (n = 4096, w = 256)",
        &["level k", "edges", "cap(k)", "regime"],
    );
    let (n, w) = (4096u64, 256u64);
    let kstar = crossover_level(n, w);
    for k in 0..=12u32 {
        let regime = if k < kstar { "∛4 growth" } else { "doubling" };
        fig1.row(vec![
            k.to_string(),
            (1u64 << k).to_string(),
            universal_cap(n, w, k).to_string(),
            regime.into(),
        ]);
    }
    fig1.note(format!(
        "Crossover at k* = 3·lg(n/w) = {kstar}: above it capacities grow by ∛4 per level \
         toward the root, below it they double (paper §IV, Definition)."
    ));

    // Theorem 4: component count scaling.
    let mut comp = Table::new(
        "E3b — Theorem 4: components = Θ(n·lg(w³/n²))",
        &["n", "w", "components (exact)", "n·lg(w³/n²) law", "ratio"],
    );
    for &lgn in &[10u32, 12, 14, 16, 18] {
        let n = 1u64 << lgn;
        for wsel in ["n^(2/3)", "n^(5/6)", "n"] {
            let w = match wsel {
                "n^(2/3)" => 1u64 << (2 * lgn / 3),
                "n^(5/6)" => 1u64 << (5 * lgn / 6),
                _ => n,
            };
            let exact = cost::universal_components_exact(n, w);
            let law = cost::theorem4_component_law(n, w);
            comp.row(vec![
                n.to_string(),
                format!("{wsel} = {w}"),
                f(exact),
                f(law),
                f(exact / law),
            ]);
        }
    }
    comp.note("The exact/law ratio stays within a constant band per w-scaling: the Θ holds.");
    comp.note("At w = n^(2/3) the count is Θ(n) (ratio flat); at w = n it is Θ(n·lg n).");

    // Theorem 4: volume scaling.
    let mut vol = Table::new(
        "E3c — Theorem 4: volume = Θ((w·lg(n/w))^(3/2)) and the volume→capacity inverse",
        &[
            "n",
            "w",
            "volume law",
            "constructive vol",
            "w(volume law) recovered",
        ],
    );
    for &lgn in &[10u32, 12, 14] {
        let n = 1u64 << lgn;
        for shift in [2 * lgn / 3, 5 * lgn / 6, lgn] {
            let w = 1u64 << shift;
            let v = cost::theorem4_volume_law(n, w);
            let ft = FatTree::universal(n as u32, w);
            let constructive = cost::constructive_volume(&ft);
            let w_back = cost::root_capacity_of_volume(n, v);
            vol.row(vec![
                n.to_string(),
                w.to_string(),
                f(v),
                f(constructive),
                w_back.to_string(),
            ]);
        }
    }
    vol.note("The §IV definition inverts Theorem 4: a universal fat-tree of volume v has root");
    vol.note("capacity Θ(v^(2/3)/lg(n/v^(2/3))); the recovered w tracks the input w within the");
    vol.note("log factor the paper's Θ hides.");

    vec![fig1, comp, vol]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_has_three_tables() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|x| !x.rows.is_empty()));
    }
}
