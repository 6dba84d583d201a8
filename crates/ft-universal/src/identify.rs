//! Processor identification (Theorem 10, step one): "identify the
//! processors at the leaves of the balanced decomposition tree of R, in the
//! natural way, with the processors at the leaves of the fat-tree FT."

use ft_core::{capacity::root_capacity_for_volume, FatTree, Message, MessageSet, ProcId};
use ft_layout::{balance_decomposition, DecompTree, Placement};
use ft_networks::FixedConnectionNetwork;

/// The identification of a network's processors with fat-tree leaves,
/// plus the universal fat-tree of matching volume.
pub struct Identification {
    /// `leaf_to_proc[t]` = network processor at fat-tree leaf `t` (leaves
    /// beyond the network size, when `n` is not a power of two, are `None`).
    pub leaf_to_proc: Vec<Option<u32>>,
    /// `proc_to_leaf[p]` = fat-tree leaf of network processor `p`.
    pub proc_to_leaf: Vec<u32>,
    /// The universal fat-tree of the same volume as the network.
    pub fat_tree: FatTree,
    /// The network's hardware volume `v`.
    pub volume: f64,
    /// Root capacity chosen for the fat-tree: `Θ(v^(2/3)/lg(n/v^(2/3)))`.
    pub root_capacity: u64,
}

impl Identification {
    /// Build the identification for network `net` with surface-bandwidth
    /// constant `gamma`.
    pub fn build(net: &dyn FixedConnectionNetwork, gamma: f64) -> Self {
        let placement: Placement = net.placement();
        Identification::from_placement(&placement, gamma)
    }

    /// Build from a raw placement (any set of processors in a box).
    pub fn from_placement(placement: &Placement, gamma: f64) -> Self {
        let n = placement.n();
        let v = placement.volume();
        let decomp = DecompTree::build(placement, gamma);
        let occupied: Vec<u64> = decomp.leaves.iter().map(|&(s, _)| s).collect();
        let balanced = balance_decomposition(decomp.depth, &occupied, &decomp.level_bandwidth);
        let order = balanced.procs_in_order(&decomp.leaves);
        debug_assert_eq!(order.len(), n);

        let n_ft = (n as u32).next_power_of_two().max(2);
        let mut leaf_to_proc = vec![None; n_ft as usize];
        let mut proc_to_leaf = vec![0u32; n];
        for (leaf, &p) in order.iter().enumerate() {
            leaf_to_proc[leaf] = Some(p);
            proc_to_leaf[p as usize] = leaf as u32;
        }

        let root_capacity = root_capacity_for_volume(n_ft as u64, v);
        let fat_tree = FatTree::universal(n_ft, root_capacity);
        Identification {
            leaf_to_proc,
            proc_to_leaf,
            fat_tree,
            volume: v,
            root_capacity,
        }
    }

    /// Translate a message set stated in network-processor ids into
    /// fat-tree leaf ids.
    pub fn translate(&self, msgs: &MessageSet) -> MessageSet {
        msgs.iter()
            .map(|m| {
                Message::new(
                    self.proc_to_leaf[m.src.idx()],
                    self.proc_to_leaf[m.dst.idx()],
                )
            })
            .collect()
    }

    /// The network processor identified with fat-tree leaf `t`.
    pub fn proc_at_leaf(&self, t: u32) -> Option<ProcId> {
        self.leaf_to_proc[t as usize].map(ProcId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_networks::{
        Butterfly, CubeConnectedCycles, Hypercube, Mesh2D, Mesh3D, Ring, ShuffleExchange, Torus2D,
        TreeMachine,
    };

    #[test]
    fn mesh3d_identification_is_a_bijection() {
        let net = Mesh3D::new(4);
        let id = Identification::build(&net, 1.0);
        assert_eq!(id.fat_tree.n(), 64);
        let mut seen = [false; 64];
        for (leaf, p) in id.leaf_to_proc.iter().enumerate() {
            let p = p.expect("64 = 2^6, all leaves used");
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
            assert_eq!(id.proc_to_leaf[p as usize], leaf as u32);
        }
    }

    #[test]
    fn non_power_of_two_network_pads() {
        let net = Mesh3D::new(3); // 27 processors
        let id = Identification::build(&net, 1.0);
        assert_eq!(id.fat_tree.n(), 32);
        let used = id.leaf_to_proc.iter().flatten().count();
        assert_eq!(used, 27);
    }

    #[test]
    fn identification_preserves_locality() {
        // Neighboring mesh processors should map to nearby fat-tree leaves
        // *on average* — the decomposition tree keeps spatially close
        // processors in common subtrees. Compare mean leaf distance of mesh
        // edges against random pairs.
        let net = Mesh2D::new(8, 8);
        let id = Identification::build(&net, 1.0);
        let mut edge_dist = 0.0;
        let mut edges = 0.0;
        for u in 0..net.n() {
            for v in net.neighbors(u) {
                edge_dist += (id.proc_to_leaf[u] as f64 - id.proc_to_leaf[v] as f64).abs();
                edges += 1.0;
            }
        }
        let mean_edge = edge_dist / edges;
        // Random pairs average ≈ n/3 ≈ 21; locality should beat it well.
        assert!(
            mean_edge < 16.0,
            "identification not locality-preserving: mean edge leaf-distance {mean_edge}"
        );
    }

    #[test]
    fn translate_roundtrip() {
        let net = Hypercube::new(4);
        let id = Identification::build(&net, 1.0);
        let m: MessageSet = (0..16).map(|i| Message::new(i, 15 - i)).collect();
        let t = id.translate(&m);
        assert_eq!(t.len(), 16);
        for (orig, tr) in m.iter().zip(t.iter()) {
            assert_eq!(id.proc_at_leaf(tr.src.0).unwrap().0, orig.src.0);
            assert_eq!(id.proc_at_leaf(tr.dst.0).unwrap().0, orig.dst.0);
        }
    }

    /// E6's fleet at scales 0–2 (plus its `ring(64)`) and a 2¹⁶-processor
    /// mesh.
    fn pinned_networks() -> Vec<Box<dyn FixedConnectionNetwork>> {
        let mut nets: Vec<Box<dyn FixedConnectionNetwork>> = Vec::new();
        for scale in 0..3u32 {
            let side2 = 8usize << scale;
            let d = 6 + 2 * scale;
            nets.push(Box::new(Mesh2D::new(side2, side2)));
            nets.push(Box::new(Mesh3D::new([4usize, 6, 10][scale as usize])));
            nets.push(Box::new(Torus2D::new(side2)));
            nets.push(Box::new(Hypercube::new(d)));
            nets.push(Box::new(TreeMachine::new(d)));
            nets.push(Box::new(Butterfly::new(d - 2)));
            nets.push(Box::new(CubeConnectedCycles::new(4 + scale)));
            nets.push(Box::new(ShuffleExchange::new(d)));
        }
        nets.push(Box::new(Ring::new(64)));
        nets.push(Box::new(Mesh2D::new(256, 256)));
        nets
    }

    /// FNV-1a over the little-endian bytes of `xs`.
    fn fnv1a(xs: &[u32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn identification_order_is_pinned() {
        // Values taken from the dense-slot implementation of the
        // decomposition tree; the sparse one must reproduce them exactly.
        let want = [
            ("mesh2d(8x8)", 2000290523525172133),
            ("mesh3d(4^3)", 9986518574100231973),
            ("torus2d(8x8)", 2000290523525172133),
            ("hypercube(d=6)", 9986518574100231973),
            ("tree(6 levels)", 10091143912012400906),
            ("butterfly(d=4)", 16815270117330863285),
            ("ccc(d=4)", 9986518574100231973),
            ("shuffle-exchange(d=6)", 9986518574100231973),
            ("mesh2d(16x16)", 7298180961394381861),
            ("mesh3d(6^3)", 14350007893490982565),
            ("torus2d(16x16)", 7298180961394381861),
            ("hypercube(d=8)", 12066047295042409445),
            ("tree(8 levels)", 7677749140936648826),
            ("butterfly(d=6)", 9496658865536571493),
            ("ccc(d=5)", 13703398662886180709),
            ("shuffle-exchange(d=8)", 12066047295042409445),
            ("mesh2d(32x32)", 11084527172992901029),
            ("mesh3d(10^3)", 11029445450165256801),
            ("torus2d(32x32)", 11084527172992901029),
            ("hypercube(d=10)", 3992921041940447881),
            ("tree(10 levels)", 1658932354874252711),
            ("butterfly(d=8)", 16951794102007135457),
            ("ccc(d=6)", 5349429726634090465),
            ("shuffle-exchange(d=10)", 3992921041940447881),
            ("ring(64)", 8034630387461049765),
            ("mesh2d(256x256)", 17879869294387879429u64),
        ];
        let got: Vec<(String, u64)> = pinned_networks()
            .iter()
            .map(|net| {
                let id = Identification::build(net.as_ref(), 1.0);
                (net.name(), fnv1a(&id.proc_to_leaf))
            })
            .collect();
        let want: Vec<(String, u64)> = want.iter().map(|&(s, h)| (s.to_string(), h)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn large_identifications_are_bijections() {
        // The tree machine's two-row placement cuts ≈ 2.5·lg n deep: 2^34
        // and 2^43 leaf slots here, of which only n are occupied.
        let nets: [Box<dyn FixedConnectionNetwork>; 3] = [
            Box::new(TreeMachine::new(12)),
            Box::new(TreeMachine::new(16)),
            Box::new(Mesh2D::new(256, 256)),
        ];
        for net in &nets {
            let id = Identification::build(net.as_ref(), 1.0);
            let mut seen = vec![false; net.n()];
            for (leaf, p) in id.leaf_to_proc.iter().enumerate() {
                if let &Some(p) = p {
                    assert!(!seen[p as usize], "{}: {p} twice", net.name());
                    seen[p as usize] = true;
                    assert_eq!(id.proc_to_leaf[p as usize], leaf as u32);
                }
            }
            assert!(
                seen.iter().all(|&x| x),
                "{}: a processor has no leaf",
                net.name()
            );
        }
    }

    #[test]
    fn fat_tree_capacity_tracks_volume() {
        // The hypercube's big volume buys a big root capacity; the 3-D
        // mesh's linear volume buys less.
        let rich = Identification::build(&Hypercube::new(6), 1.0);
        let poor = Identification::build(&Mesh3D::new(4), 1.0);
        assert_eq!(rich.fat_tree.n(), poor.fat_tree.n());
        assert!(rich.root_capacity > poor.root_capacity);
    }
}
