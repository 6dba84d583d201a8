//! Golden equivalence: the incremental Theorem 1 scheduler must emit the
//! exact schedule of the retained clone-based reference — same cycle count,
//! same messages in the same order within every cycle — across trees,
//! capacity profiles, and workloads. Well over 200 seeded cases.

use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, Message, MessageSet};
use ft_sched::reference::schedule_theorem1_reference;
use ft_sched::schedule_theorem1;

fn trees() -> Vec<FatTree> {
    vec![
        FatTree::new(8, CapacityProfile::Constant(1)),
        FatTree::new(16, CapacityProfile::Constant(2)),
        FatTree::new(32, CapacityProfile::FullDoubling),
        FatTree::universal(32, 8),
        FatTree::universal(64, 16),
        FatTree::universal(128, 16),
    ]
}

/// A seeded workload on `n` processors: permutations, hot spots, k-relations
/// (with locals and repeated pairs), and cross-root shifts.
fn workload(n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    match seed % 4 {
        0 => {
            let mut dst: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut dst);
            (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
        }
        1 => {
            let hot = rng.gen_range(0..n);
            (0..n).map(|i| Message::new(i, hot)).collect()
        }
        2 => {
            let k = 1 + (seed / 4) % 4;
            (0..k * n as u64)
                .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect()
        }
        _ => {
            let shift = 1 + rng.gen_range(0..n - 1);
            (0..n).map(|i| Message::new(i, (i + shift) % n)).collect()
        }
    }
}

fn assert_schedules_equal(ft: &FatTree, m: &MessageSet, tag: &str) {
    let (want_sched, want_stats) = schedule_theorem1_reference(ft, m);
    let (got_sched, got_stats) = schedule_theorem1(ft, m);
    assert_eq!(
        got_sched.num_cycles(),
        want_sched.num_cycles(),
        "cycle count diverged [{tag}]"
    );
    for (t, (got, want)) in got_sched
        .cycles()
        .iter()
        .zip(want_sched.cycles())
        .enumerate()
    {
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "cycle {t} contents diverged [{tag}]"
        );
    }
    assert_eq!(
        got_stats.cycles_per_level, want_stats.cycles_per_level,
        "stats [{tag}]"
    );
    assert_eq!(
        got_stats.total_cycles, want_stats.total_cycles,
        "stats [{tag}]"
    );
    // The arena's λ comes from ft-core's tally, the reference's from the
    // per-channel path walk: the same bits.
    assert_eq!(
        got_stats.load_factor.to_bits(),
        want_stats.load_factor.to_bits(),
        "λ [{tag}]"
    );
}

#[test]
fn theorem1_matches_reference_everywhere() {
    let mut cases = 0usize;
    for ft in trees() {
        for seed in 0..36u64 {
            let m = workload(ft.n(), 1000 + seed);
            let tag = format!("n={} seed={seed}", ft.n());
            assert_schedules_equal(&ft, &m, &tag);
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} golden scheduler cases");
}

#[test]
fn degenerate_sets_match() {
    let ft = FatTree::universal(16, 4);
    assert_schedules_equal(&ft, &MessageSet::new(), "empty");
    let locals: MessageSet = (0..16).map(|i| Message::new(i, i)).collect();
    assert_schedules_equal(&ft, &locals, "all-local");
    let single: MessageSet = [Message::new(0, 15)].into_iter().collect();
    assert_schedules_equal(&ft, &single, "single");
}

#[test]
fn incremental_schedules_stay_valid_and_bounded() {
    // Independent of the reference: the incremental scheduler still honors
    // the Theorem 1 contract on its own.
    for ft in trees() {
        for seed in 0..6u64 {
            let m = workload(ft.n(), 77 + seed);
            let (s, stats) = schedule_theorem1(&ft, &m);
            s.validate(&ft, &m).expect("schedule must be valid");
            if !m.is_empty() {
                assert!(s.num_cycles() <= stats.paper_bound(&ft));
            }
        }
    }
}
