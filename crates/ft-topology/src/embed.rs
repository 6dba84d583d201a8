//! Binary embeddings: run any [`Topology`] on the unmodified binary
//! engines.
//!
//! Every engine in the workspace (SimArena, SchedArena, OnlineArena, the
//! reference oracles) walks heap-ordered complete binary trees and looks
//! channel capacities up *per level*. Rather than teach each flat arena a
//! second node-numbering scheme, a [`Topology`] is compiled once into an
//! equivalent [`FatTree`]:
//!
//! * a radix-`a` switch becomes `g = ⌈lg a⌉` consecutive binary levels —
//!   a little tree standing in for the switch's crossbar;
//! * the *boundary* level below each expansion keeps the topology's real
//!   channel capacity `up·parallel`;
//! * the switch-internal levels get the aggregate of everything beneath
//!   them (`2^j` boundary channels of the level below), so they model the
//!   crossbar's internal fan-in and can never be the binding constraint —
//!   intra-switch traffic keeps behaving like a single cycle through a
//!   crossbar, and λ, schedules, and delivery cycles are decided by real
//!   channels only (pinned by tests);
//! * real leaves map to padded leaves by mixed-radix digits, one digit
//!   field per level, which keeps every locality domain (pod, edge
//!   switch) a contiguous aligned subtree and degenerates to the identity
//!   when every arity is a power of two.
//!
//! For [`Topology::binary`] the embedding *is* `FatTree::new(n, profile)`
//! — the same constructor call every engine already receives — so binary
//! runs are byte-identical to the un-generalized code path.

use crate::model::Topology;
use ft_core::ids::ilog2_ceil;
use ft_core::{FatTree, LevelLoads, Message, MessageSet, MessageStream};

/// A [`Topology`] compiled onto a padded binary [`FatTree`], plus the leaf
/// and level maps between the two views.
#[derive(Clone, Debug)]
pub struct Embedded {
    topo: Topology,
    ft: FatTree,
    /// `g[t]` = binary levels the depth-`t` switches expand into.
    group_bits: Vec<u32>,
    /// `boundaries[t]` = binary level of the real channel above depth-`t`
    /// nodes; strictly increasing, `boundaries[depth]` = padded height.
    boundaries: Vec<u32>,
    /// Binary level → topology level, `Some` only at boundaries.
    real_level: Vec<Option<u32>>,
    /// Real processor → padded leaf; empty when the map is the identity.
    leaf_map: Vec<u32>,
    /// Whether the leaf map is the identity (every arity a power of two).
    identity: bool,
}

impl Embedded {
    /// Compile `topo` into its padded binary tree.
    ///
    /// # Panics
    /// If the padded tree exceeds 2^[`FatTree::MAX_HEIGHT`] leaves or the
    /// topology has fewer than 2 processors.
    pub fn new(topo: Topology) -> Self {
        let depth = topo.depth() as usize;
        let group_bits: Vec<u32> = topo
            .arities()
            .iter()
            .map(|&a| ilog2_ceil(a as u64))
            .collect();
        let mut boundaries = vec![0u32; depth + 1];
        for t in 0..depth {
            boundaries[t + 1] = boundaries[t] + group_bits[t];
        }
        let height = boundaries[depth];
        assert!(
            (1..=FatTree::MAX_HEIGHT).contains(&height),
            "embedded tree would have 2^{height} padded leaves"
        );
        let padded_n = 1u32 << height;
        let identity = topo
            .arities()
            .iter()
            .zip(&group_bits)
            .all(|(&a, &g)| a as u64 == 1u64 << g);

        let ft = if let Some(profile) = topo.binary_profile() {
            // The binary family takes the exact constructor path every
            // engine already uses: byte-identity is by construction.
            FatTree::new(topo.leaves() as u32, profile.clone())
        } else {
            let mut caps = vec![0u64; height as usize + 1];
            for t in 0..=depth {
                caps[boundaries[t] as usize] = topo.cap_up(t as u32);
            }
            for t in 0..depth {
                // Switch-internal levels aggregate the boundary channels
                // beneath them: capacity 2^j × the child boundary's, the
                // exact maximum that can flow through — never binding.
                for b in boundaries[t] + 1..boundaries[t + 1] {
                    caps[b as usize] =
                        (1u64 << (boundaries[t + 1] - b)) * topo.cap_up(t as u32 + 1);
                }
            }
            FatTree::from_level_caps(padded_n, caps)
        };

        let mut real_level = vec![None; height as usize + 1];
        for (t, &b) in boundaries.iter().enumerate() {
            real_level[b as usize] = Some(t as u32);
        }
        let mut emb = Embedded {
            topo,
            ft,
            group_bits,
            boundaries,
            real_level,
            leaf_map: Vec::new(),
            identity,
        };
        if !identity {
            // Digit tuples order like the numbers they spell in either
            // radix, so the padded leaves that stand for a real processor,
            // in increasing order, are the images of processors 0, 1, 2, ….
            emb.leaf_map = (0..padded_n)
                .filter(|&q| emb.unmap_proc(q).is_some())
                .collect();
        }
        emb
    }

    /// The source topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The padded binary tree the engines run on.
    pub fn tree(&self) -> &FatTree {
        &self.ft
    }

    /// Real processor count (≤ [`Embedded::padded_n`]).
    pub fn leaves(&self) -> u32 {
        self.topo.leaves() as u32
    }

    /// Padded leaf count of the binary tree.
    pub fn padded_n(&self) -> u32 {
        self.ft.n()
    }

    /// True when real and padded leaf ids coincide.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Binary level of the real channel above depth-`t` topology nodes.
    pub fn boundary(&self, t: u32) -> u32 {
        self.boundaries[t as usize]
    }

    /// The topology level a binary level corresponds to (`None` for
    /// switch-internal aggregate levels).
    pub fn real_level(&self, b: u32) -> Option<u32> {
        self.real_level[b as usize]
    }

    /// Map a real processor id to its padded leaf (mixed-radix digits to
    /// per-level bit fields), by a table built once in [`Embedded::new`].
    ///
    /// # Panics
    /// On a non-identity embedding, if `p` is not a real processor id.
    #[inline]
    pub fn map_proc(&self, p: u32) -> u32 {
        if self.identity {
            return p;
        }
        self.leaf_map[p as usize]
    }

    /// Map a padded leaf back to its real processor (`None` for padding).
    pub fn unmap_proc(&self, q: u32) -> Option<u32> {
        if self.identity {
            return (q < self.leaves()).then_some(q);
        }
        let mut p = 0u64;
        let mut shift = self.ft.height();
        for (t, &a) in self.topo.arities().iter().enumerate() {
            shift -= self.group_bits[t];
            let d = (q >> shift) & ((1u32 << self.group_bits[t]) - 1);
            if d >= a {
                return None;
            }
            p = p * a as u64 + d as u64;
        }
        Some(p as u32)
    }

    /// Map a message between real processors onto padded leaves.
    #[inline]
    pub fn map_message(&self, m: Message) -> Message {
        Message::new(self.map_proc(m.src.0), self.map_proc(m.dst.0))
    }

    /// Map a whole set (engines with no streaming entry point).
    pub fn map_set(&self, m: &MessageSet) -> MessageSet {
        if self.identity {
            return m.clone();
        }
        m.iter().map(|&msg| self.map_message(msg)).collect()
    }

    /// View a real-id stream as a padded-id stream, lazily: message `j` is
    /// mapped on demand, so the million-leaf streaming paths stay
    /// allocation-free.
    pub fn stream<'a>(&'a self, inner: &'a dyn MessageStream) -> MappedStream<'a> {
        MappedStream { emb: self, inner }
    }

    /// Load factor of a real message set on the embedded tree, as
    /// `(full, real_only)`: over every binary channel, and restricted to
    /// the boundary channels that exist in the source topology. Aggregate
    /// levels are sized to never bind, so the two always agree — kept
    /// separate (and pinned equal by tests) because `real_only` is the
    /// quantity the topology's own λ bound speaks about.
    pub fn lambda(&self, real: &MessageSet) -> (f64, f64) {
        let mapped = self.map_set(real);
        let load = LevelLoads::of(&self.ft, &mapped);
        let full = load.load_factor(&self.ft);
        let real_only = load
            .max_per_level()
            .iter()
            .enumerate()
            .filter(|&(b, _)| self.real_level[b].is_some())
            .map(|(b, &l)| l as f64 / self.ft.cap_at_level(b as u32) as f64)
            .fold(0.0, f64::max);
        (full, real_only)
    }
}

/// Lazy real→padded id adapter over any [`MessageStream`].
pub struct MappedStream<'a> {
    emb: &'a Embedded,
    inner: &'a dyn MessageStream,
}

impl MessageStream for MappedStream<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn family(&self) -> &'static str {
        self.inner.family()
    }

    fn message(&self, j: usize) -> Message {
        self.emb.map_message(self.inner.message(j))
    }

    fn fill(&self, start: usize, out: &mut [Message]) {
        self.inner.fill(start, out);
        for m in out {
            *m = self.emb.map_message(*m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LevelCaps;
    use ft_core::{CapacityProfile, SplitMix64};

    fn perm(n: u32, seed: u64) -> MessageSet {
        // Seeded random permutation over n real ids.
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut dst: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut dst);
        (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
    }

    #[test]
    fn binary_embedding_is_the_exact_tree() {
        let profile = CapacityProfile::Universal { root_capacity: 16 };
        let emb = Embedded::new(Topology::binary(64, profile.clone()));
        let direct = FatTree::new(64, profile);
        assert!(emb.is_identity());
        assert_eq!(emb.tree().n(), direct.n());
        assert_eq!(emb.tree().profile(), direct.profile());
        for k in 0..=direct.height() {
            assert_eq!(emb.tree().cap_at_level(k), direct.cap_at_level(k));
            assert_eq!(emb.real_level(k), Some(k));
        }
        for p in 0..64 {
            assert_eq!(emb.map_proc(p), p);
            assert_eq!(emb.unmap_proc(p), Some(p));
        }
    }

    #[test]
    fn kary_full_bisection_embeds_to_full_doubling() {
        let emb = Embedded::new(Topology::kary_pods(4, 1));
        assert!(emb.is_identity());
        assert_eq!(emb.padded_n(), 16);
        assert_eq!(emb.tree().level_caps(), [16, 8, 4, 2, 1]); // the FullDoubling law
        assert_eq!(emb.real_level(0), Some(0));
        assert_eq!(emb.real_level(1), None); // core-internal aggregate
        assert_eq!(emb.real_level(2), Some(1));
        assert_eq!(emb.real_level(3), Some(2));
        assert_eq!(emb.real_level(4), Some(3));
    }

    #[test]
    fn oversubscribed_kary_needs_from_level_caps() {
        // k = 8, over = 4: edge uplinks thin to 1 wire while the aggregate
        // level just above the servers still carries 2 — a non-monotone
        // table that the user-facing PerLevel profile rightly rejects.
        let emb = Embedded::new(Topology::kary_pods(8, 4));
        assert_eq!(emb.padded_n(), 128);
        assert_eq!(emb.tree().level_caps(), [32, 16, 8, 4, 2, 1, 2, 1]);
        assert_eq!(emb.real_level(5), Some(2));
        assert_eq!(emb.real_level(6), None);
    }

    #[test]
    fn non_pow2_arities_pad_and_map() {
        let topo = Topology::custom(
            vec![3, 2],
            vec![
                LevelCaps::symmetric(6),
                LevelCaps::symmetric(2),
                LevelCaps::symmetric(1),
            ],
        );
        let emb = Embedded::new(topo);
        assert!(!emb.is_identity());
        assert_eq!(emb.leaves(), 6);
        assert_eq!(emb.padded_n(), 8);
        // digits (d0 < 3, d1 < 2) → bit fields (2 bits | 1 bit); with a
        // power-of-two inner arity the map happens to be p itself here.
        for p in 0..6 {
            let q = emb.map_proc(p);
            assert_eq!(q, (p / 2) << 1 | (p % 2), "digit packing of {p}");
            assert_eq!(emb.unmap_proc(q), Some(p), "roundtrip of {p}");
        }
        // Padded leaves under the phantom digit d0 = 3 are unmapped.
        assert_eq!(emb.unmap_proc(6), None);
        assert_eq!(emb.unmap_proc(7), None);
    }

    #[test]
    fn leaf_table_spells_mixed_radix_digits() {
        // Neither arity a power of two: digits (d0 < 5, d1 < 3) land in a
        // 3-bit and a 2-bit field.
        let caps = [4, 2, 1].map(LevelCaps::symmetric).to_vec();
        let emb = Embedded::new(Topology::custom(vec![5, 3], caps));
        assert_eq!((emb.leaves(), emb.padded_n()), (15, 32));
        for p in 0..15 {
            assert_eq!(emb.map_proc(p), (p / 3) << 2 | (p % 3), "digits of {p}");
        }
    }

    #[test]
    #[should_panic]
    fn map_proc_rejects_an_id_past_the_real_leaves() {
        let caps = [4, 2, 1].map(LevelCaps::symmetric).to_vec();
        Embedded::new(Topology::custom(vec![5, 3], caps)).map_proc(15);
    }

    #[test]
    fn map_preserves_pod_locality() {
        // Leaves sharing a deepest switch stay under one padded subtree.
        let emb = Embedded::new(Topology::two_layer(8, 3, 18));
        let pod = emb.topology().pod(); // 3 servers per leaf switch
        let span = emb.tree().height() - emb.boundary(1);
        for p in 0..emb.leaves() {
            let q = emb.map_proc(p);
            assert_eq!(
                q >> span,
                (emb.map_proc(p - p % pod)) >> span,
                "leaf {p} left its switch subtree"
            );
        }
    }

    #[test]
    fn aggregate_levels_never_bind() {
        for (topo, seed) in [
            (Topology::kary_pods(8, 1), 11u64),
            (Topology::kary_pods(8, 4), 12),
            (Topology::two_layer(16, 8, 128), 13),
            (
                Topology::custom(
                    vec![5, 3],
                    vec![
                        LevelCaps::symmetric(4),
                        LevelCaps {
                            up: 2,
                            down: 2,
                            parallel: 2,
                        },
                        LevelCaps::symmetric(1),
                    ],
                ),
                14,
            ),
        ] {
            let emb = Embedded::new(topo);
            for round in 0..8 {
                let m = perm(emb.leaves(), seed * 1000 + round);
                let (full, real_only) = emb.lambda(&m);
                assert_eq!(
                    full,
                    real_only,
                    "aggregate level bound λ on {} round {round}",
                    emb.topology().spec()
                );
            }
        }
    }

    #[test]
    fn mapped_stream_is_lazy_view_of_mapped_set() {
        let emb = Embedded::new(Topology::custom(
            vec![3, 3],
            vec![
                LevelCaps::symmetric(4),
                LevelCaps::symmetric(2),
                LevelCaps::symmetric(1),
            ],
        ));
        let m = perm(emb.leaves(), 99);
        let mapped = emb.map_set(&m);
        let via_stream = emb.stream(&m).collect_set();
        assert_eq!(mapped, via_stream);
        assert_eq!(emb.stream(&m).family(), "materialized");
    }
}
