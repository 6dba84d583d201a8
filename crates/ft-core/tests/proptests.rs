//! Property tests on the core invariants (seeded SplitMix64 loops,
//! std-only): routing paths, load accounting, and capacity profiles.

use ft_core::rng::SplitMix64;
use ft_core::{
    capacity::universal_cap, cycle_lower_bound, load_factor, route, CapacityProfile, Direction,
    FatTree, LevelLoads, LoadMap, LoadTally, Message, MessageSet,
};

const CASES: u64 = 256;

/// A power of two in 2..=1024.
fn pow2_n(rng: &mut SplitMix64) -> u32 {
    1 << rng.gen_range(1u32..=10)
}

/// `min..max` uniform random messages on `n` processors.
fn random_msgs(rng: &mut SplitMix64, n: u32, min: usize, max: usize) -> Vec<Message> {
    let len = rng.gen_range(min..max);
    (0..len)
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn paths_are_up_then_down_and_minimal() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE0);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::new(n, CapacityProfile::Constant(1));
        let m = Message::new(rng.gen_range(0..n), rng.gen_range(0..n));
        let path = route::path_channels(&ft, &m);
        // Up-run before down-run.
        let first_down = path.iter().position(|c| c.dir == Direction::Down);
        if let Some(i) = first_down {
            assert!(
                path[i..].iter().all(|c| c.dir == Direction::Down),
                "case {case}"
            );
            assert!(
                path[..i].iter().all(|c| c.dir == Direction::Up),
                "case {case}"
            );
        }
        // Length is twice the distance from the LCA to the leaves.
        if !m.is_local() {
            let lca = ft.lca(m.src, m.dst);
            let lca_level = 31 - lca.leading_zeros();
            assert_eq!(
                path.len() as u32,
                2 * (ft.height() - lca_level),
                "case {case}"
            );
        } else {
            assert!(path.is_empty(), "case {case}");
        }
        // No channel repeats.
        let mut idx: Vec<usize> = path.iter().map(|c| c.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), path.len(), "case {case}");
    }
}

#[test]
fn load_is_additive() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE1);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::new(n, CapacityProfile::Constant(1));
        let msgs = random_msgs(&mut rng, n, 0, 64);
        // Sum of single-message loads equals the batch load on every channel.
        let batch = LoadMap::of(&ft, &MessageSet::from_vec(msgs.clone()));
        let mut acc = LoadMap::zeros(&ft);
        for m in &msgs {
            acc.add(&ft, m);
        }
        assert_eq!(batch, acc, "case {case}");
    }
}

#[test]
fn load_factor_scales_linearly_with_duplication() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE2);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::new(n, CapacityProfile::Constant(3));
        let base = MessageSet::from_vec(random_msgs(&mut rng, n, 1, 32));
        let copies = rng.gen_range(1usize..5);
        let mut dup = MessageSet::new();
        for _ in 0..copies {
            dup.extend_from(&base);
        }
        let l1 = load_factor(&ft, &base);
        let lk = load_factor(&ft, &dup);
        assert!((lk - copies as f64 * l1).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn universal_capacities_sandwiched() {
    // For any legal (n, w): 1 ≤ cap(k) ≤ cap(k−1) ≤ 2·cap(k), and the
    // growth toward the root never exceeds doubling.
    let mut rng = SplitMix64::seed_from_u64(0xC0DE3);
    for _ in 0..CASES {
        let nk = rng.gen_range(4u32..=16);
        let wk = rng.gen_range(0u32..=16);
        let n = 1u64 << nk;
        let w = 1u64 << (wk.min(nk).max(2 * nk / 3));
        for k in 1..=nk {
            let hi = universal_cap(n, w, k - 1);
            let lo = universal_cap(n, w, k);
            assert!(lo >= 1, "n=2^{nk} w={w} k={k}");
            assert!(hi >= lo, "n=2^{nk} w={w} k={k}");
            assert!(
                hi <= 2 * lo,
                "n=2^{nk} w={w}: growth above doubling at k={k}: {hi} vs {lo}"
            );
        }
    }
}

#[test]
fn total_wires_matches_channel_sum() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE4);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let c = rng.gen_range(1u64..8);
        let ft = FatTree::new(n, CapacityProfile::Constant(c));
        let by_channels: u64 = ft.channels().map(|ch| ft.cap(ch)).sum();
        assert_eq!(ft.total_wires(), by_channels, "case {case}");
    }
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut SplitMix64, n: u32) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut p);
    p
}

/// The message sets the tally is checked on: a random k-relation (k
/// stacked permutations, so locals and duplicates occur) with extra locals
/// and duplicates, a permutation, an all-to-one, a few random messages
/// (few enough that the tally sums only the nodes they reach from n = 16
/// on), and the empty set.
fn oracle_workloads(rng: &mut SplitMix64, n: u32) -> Vec<MessageSet> {
    let k = rng.gen_range(1u32..=4);
    let mut krel = MessageSet::new();
    for _ in 0..k {
        let p = permutation(rng, n);
        for (s, &d) in p.iter().enumerate() {
            krel.push(Message::new(s as u32, d));
        }
    }
    for _ in 0..rng.gen_range(0..=n) {
        let i = rng.gen_range(0..n);
        krel.push(Message::new(i, i));
        let j = rng.gen_range(0..krel.len());
        krel.push(krel.as_slice()[j]);
    }
    let p = permutation(rng, n);
    let perm: MessageSet = (0..n).map(|s| Message::new(s, p[s as usize])).collect();
    let hot = rng.gen_range(0..n);
    let all_to_one: MessageSet = (0..n).map(|s| Message::new(s, hot)).collect();
    let few: MessageSet = (0..rng.gen_range(1..=(n / 16).max(1)))
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    vec![krel, perm, all_to_one, few, MessageSet::new()]
}

/// Every whole-set quantity the tally answers, read off the per-channel
/// path walk instead: per-level maxima, total, λ, one-cycle feasibility and
/// both lower bounds.
#[test]
fn tally_matches_the_path_walk_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE5);
    for height in 1..=12u32 {
        let n = 1u32 << height;
        let w = 1u64 << (2 * height).div_ceil(3);
        let profiles = [
            CapacityProfile::Universal { root_capacity: w },
            CapacityProfile::Constant(1),
            CapacityProfile::Constant(3),
            CapacityProfile::FullDoubling,
            CapacityProfile::UniversalWithDegree {
                root_capacity: w,
                degree: 2,
            },
        ];
        for profile in profiles {
            let ft = FatTree::new(n, profile.clone());
            let mut reused = LoadTally::new(&ft);
            for (w_i, m) in oracle_workloads(&mut rng, n).iter().enumerate() {
                let case = format!("n={n} {profile:?} workload {w_i}");
                let lm = LoadMap::of(&ft, m);
                let mut max = vec![0u64; height as usize + 1];
                for c in ft.channels() {
                    let k = c.level() as usize;
                    max[k] = max[k].max(lm.get(c));
                }
                let total: u64 = ft.channels().map(|c| lm.get(c)).sum();
                let wire = total.div_ceil(ft.total_wires());
                let lower = (lm.load_factor(&ft).ceil() as u64).max(wire);

                let loads = LevelLoads::of(&ft, m);
                for msg in m {
                    reused.add(msg);
                }
                assert_eq!(reused.sum(), &loads, "{case}: reused tally");
                assert_eq!(loads.max_per_level(), max, "{case}");
                assert_eq!(loads.total(), total, "{case}");
                assert_eq!(
                    load_factor(&ft, m).to_bits(),
                    lm.load_factor(&ft).to_bits(),
                    "{case}"
                );
                assert_eq!(loads.is_one_cycle(&ft), lm.is_one_cycle(&ft), "{case}");
                assert_eq!(loads.wire_time_lower_bound(&ft), wire, "{case}");
                assert_eq!(cycle_lower_bound(&ft, m), lower, "{case}");
            }
        }
    }
}
