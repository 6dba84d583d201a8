//! Property tests for the schedulers (seeded SplitMix64 loops, std-only):
//! Corollary 2 validity and bound on arbitrary big-capacity trees,
//! compression safety on arbitrary schedules, the shared feasibility
//! floor, and — the law the arena's sweeps rest on — a used `SchedArena`
//! schedules exactly like a fresh one.

use ft_core::rng::SplitMix64;
use ft_core::{lg, CapacityProfile, FatTree, Message, MessageSet};
use ft_sched::bigcap::{corollary2_bound, schedule_bigcap};
use ft_sched::{compress_schedule, schedule_greedy, schedule_theorem1, SchedArena};

const CASES: u64 = 96;

/// Up to `max − 1` uniform random messages on `n` processors.
fn random_msgs(rng: &mut SplitMix64, n: u32, max: usize) -> MessageSet {
    let len = rng.gen_range(0..max);
    (0..len)
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn corollary2_always_valid_and_within_bound() {
    let mut rng = SplitMix64::seed_from_u64(0x5C0);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(3u32..=8);
        let cap = rng.gen_range(2u64..=8) * lg(n as u64) as u64;
        let ft = FatTree::new(n, CapacityProfile::Constant(cap));
        let m = random_msgs(&mut rng, n, 300);
        let (schedule, stats) = schedule_bigcap(&ft, &m).expect("caps > lg n");
        assert!(schedule.validate(&ft, &m).is_ok(), "case {case}");
        if !m.is_empty() {
            let bound = corollary2_bound(&ft, stats.load_factor);
            assert!(
                (schedule.num_cycles() as f64) <= bound.ceil() + 2.0,
                "case {case}: d = {} vs Corollary 2 bound {bound:.2}",
                schedule.num_cycles()
            );
        }
    }
}

#[test]
fn compression_preserves_any_valid_schedule() {
    let mut rng = SplitMix64::seed_from_u64(0x5C1);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(2u32..=7);
        let ft = FatTree::universal(n, rng.gen_range(1u64..64).min(n as u64));
        let m = random_msgs(&mut rng, n, 200);
        let schedule = if rng.gen_bool(0.5) {
            schedule_greedy(&ft, &m)
        } else {
            schedule_theorem1(&ft, &m).0
        };
        let before = schedule.num_cycles();
        let compressed = compress_schedule(&ft, schedule);
        assert!(compressed.validate(&ft, &m).is_ok(), "case {case}");
        assert!(compressed.num_cycles() <= before, "case {case}");
        assert_eq!(compressed.num_cycles() == 0, m.is_empty(), "case {case}");
    }
}

#[test]
fn schedulers_agree_on_feasibility_floor() {
    // All schedulers respect the same lower bound and partition the same
    // multiset.
    let mut rng = SplitMix64::seed_from_u64(0x5C2);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(2u32..=6);
        let ft = FatTree::universal(n, (n / 2).max(1) as u64);
        let m = random_msgs(&mut rng, n, 128);
        let lb = ft_core::cycle_lower_bound(&ft, &m) as usize;
        let (t1, _) = schedule_theorem1(&ft, &m);
        let g = schedule_greedy(&ft, &m);
        assert!(t1.num_cycles() >= lb && g.num_cycles() >= lb, "case {case}");
        assert_eq!(t1.total_messages(), m.len(), "case {case}");
        assert_eq!(g.total_messages(), m.len(), "case {case}");
    }
}

#[test]
fn used_arena_schedules_like_a_fresh_one() {
    // Every `Worker` table is all-clear after any run: whatever an arena
    // scheduled before, its next schedule is the one a fresh arena emits.
    let mut rng = SplitMix64::seed_from_u64(0x5C3);
    for case in 0..CASES {
        let n = 1u32 << rng.gen_range(2u32..=8);
        let ft = match case % 3 {
            0 => FatTree::universal(n, rng.gen_range(1u64..=n as u64)),
            1 => FatTree::new(n, CapacityProfile::Constant(rng.gen_range(1u64..4))),
            _ => FatTree::from_level_caps(
                n,
                (0..=lg(n as u64)).map(|k| 1 + (k % 2) as u64).collect(),
            ),
        };
        let mut used = SchedArena::new(&ft);
        let mut out = Vec::new();
        for round in 0..3 {
            let m = random_msgs(&mut rng, n, 4 * n as usize);
            let threads = rng.gen_range(1usize..=2);
            let (want, want_stats) = SchedArena::new(&ft).schedule(&ft, &m, 1);
            let (got, stats) = used.schedule(&ft, &m, threads);
            assert_eq!(got.cycles(), want.cycles(), "case {case} round {round}");
            assert_eq!(stats.cycles_per_level, want_stats.cycles_per_level);
            let (cycles, _) = used.schedule_assign(&ft, &m, threads, &mut out);
            assert_eq!(cycles as usize, want.num_cycles(), "case {case}");
        }
    }
}
