//! Property tests for Theorem 1 across workloads, capacity profiles and
//! tree sizes (seeded SplitMix64 loops, std-only — plain seeded sweeps
//! rather than shrinking generators).

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;

const CASES: u64 = 64;

/// A power-of-two n in 4..=128.
fn pow2_n(rng: &mut SplitMix64) -> u32 {
    1 << rng.gen_range(2u32..=7)
}

fn capacity_profile(rng: &mut SplitMix64) -> CapacityProfile {
    match rng.gen_range(0u32..3) {
        0 => CapacityProfile::Constant(rng.gen_range(1u64..=8)),
        1 => CapacityProfile::FullDoubling,
        _ => CapacityProfile::Universal {
            root_capacity: rng.gen_range(1u64..=64),
        },
    }
}

#[test]
fn schedule_is_valid_partition_and_within_bound() {
    let mut rng = SplitMix64::seed_from_u64(0x7E01);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::new(n, capacity_profile(&mut rng));
        // k messages per processor, uniform destinations.
        let k = rng.gen_range(0usize..6);
        let mut msgs = MessageSet::new();
        for i in 0..n {
            for _ in 0..k {
                msgs.push(Message::new(i, rng.gen_range(0..n)));
            }
        }

        let lambda = load_factor(&ft, &msgs);
        let (schedule, stats) = schedule_theorem1(&ft, &msgs);
        assert!(schedule.validate(&ft, &msgs).is_ok(), "case {case}");
        if !msgs.is_empty() {
            // Lower bound d ≥ ⌈λ⌉ (0 messages ⇒ 0 cycles).
            assert!(
                schedule.num_cycles() as f64 >= lambda.ceil() - 1e-9,
                "case {case}"
            );
            // Theorem 1 upper bound.
            assert!(
                schedule.num_cycles() <= stats.paper_bound(&ft),
                "case {case}"
            );
        }
    }
}

#[test]
fn greedy_also_valid_and_theorem1_not_catastrophically_worse() {
    let mut rng = SplitMix64::seed_from_u64(0x7E02);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::universal(n, (n as u64 / 4).max(1));
        let msgs: MessageSet = (0..2 * n)
            .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        let greedy = schedule_greedy(&ft, &msgs);
        assert!(greedy.validate(&ft, &msgs).is_ok(), "case {case}");
        let (t1, _) = schedule_theorem1(&ft, &msgs);
        // Both are valid schedules; Theorem 1 must stay within its bound and
        // not exceed greedy by more than its lg n guarantee factor.
        assert!(
            t1.num_cycles() <= greedy.num_cycles() * 2 * (ft.height() as usize) + 2,
            "case {case}"
        );
    }
}

#[test]
fn permutations_on_full_doubling_need_constant_cycles() {
    let mut rng = SplitMix64::seed_from_u64(0x7E03);
    for case in 0..CASES {
        let n = pow2_n(&mut rng);
        let ft = FatTree::new(n, CapacityProfile::FullDoubling);
        let msgs = fat_tree::workloads::random_permutation(n, &mut rng);
        let lambda = load_factor(&ft, &msgs);
        assert!(
            lambda <= 1.0 + 1e-9,
            "case {case}: permutations are one-cycle sets at full bisection"
        );
        let (schedule, _) = schedule_theorem1(&ft, &msgs);
        assert!(schedule.validate(&ft, &msgs).is_ok(), "case {case}");
        // λ = 1 and per-level refinement: at most ~2 cycles per level.
        assert!(
            schedule.num_cycles() <= 2 * ft.height() as usize + 1,
            "case {case}"
        );
    }
}
