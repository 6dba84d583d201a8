//! The even-split invariant (the engine of Theorem 1), property-tested on
//! arbitrary root-crossing message multisets (seeded SplitMix64 loops,
//! std-only).

use fat_tree::core::rng::SplitMix64;
use fat_tree::core::{CapacityProfile, FatTree, LoadMap, Message, MessageSet};
use fat_tree::sched::{split_even, CrossDirection};

const CASES: u64 = 256;

/// `len` left→right root-crossing messages on `n` processors.
fn root_crossers(rng: &mut SplitMix64, n: u32, len: usize) -> Vec<Message> {
    let half = n / 2;
    (0..len)
        .map(|_| Message::new(rng.gen_range(0..half), half + rng.gen_range(0..half)))
        .collect()
}

#[test]
fn split_is_even_on_every_channel() {
    let mut rng = SplitMix64::seed_from_u64(0x5B11);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(2u32..=7);
        let ft = FatTree::new(n, CapacityProfile::Constant(1));
        let len = rng.gen_range(0usize..200);
        let q = root_crossers(&mut rng, n, len);

        let (a, b) = split_even(&ft, 1, &q, CrossDirection::LeftToRight);
        assert_eq!(a.len() + b.len(), q.len(), "case {case}");
        assert!(a.len() >= b.len() && a.len() - b.len() <= 1, "case {case}");

        let la = LoadMap::of(&ft, &MessageSet::from_vec(a));
        let lb = LoadMap::of(&ft, &MessageSet::from_vec(b));
        let lq = LoadMap::of(&ft, &MessageSet::from_vec(q));
        for c in ft.channels() {
            let (x, y, t) = (la.get(c), lb.get(c), lq.get(c));
            assert_eq!(x + y, t, "case {case}: loads must partition at {c}");
            assert!(x.abs_diff(y) <= 1, "case {case}: uneven at {c}: {x} vs {y}");
        }
    }
}

#[test]
fn repeated_halving_reaches_singletons() {
    // Splitting t times leaves ⌈len/2^t⌉ messages in every part — the
    // refinement Theorem 1 relies on terminates at one-cycle sets.
    let mut rng = SplitMix64::seed_from_u64(0x5B12);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(2u32..=6);
        let ft = FatTree::new(n, CapacityProfile::Constant(1));
        let len = rng.gen_range(1usize..64);
        let q = root_crossers(&mut rng, n, len);

        let mut parts = vec![q];
        for _ in 0..10 {
            parts = parts
                .into_iter()
                .flat_map(|p| {
                    if p.len() <= 1 {
                        vec![p]
                    } else {
                        let (a, b) = split_even(&ft, 1, &p, CrossDirection::LeftToRight);
                        vec![a, b]
                    }
                })
                .collect();
        }
        assert!(parts.iter().all(|p| p.len() <= 1), "case {case}");
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, len, "case {case}");
    }
}
