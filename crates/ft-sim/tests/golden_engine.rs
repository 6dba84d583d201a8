//! Golden equivalence: the flat-array engine must reproduce the retained
//! reference engine byte for byte — same delivered/dropped index lists, same
//! tick counts, same channel usage, same run traces — across trees, capacity
//! profiles, switch flavors, arbitration policies, fault patterns, and
//! workloads. Well over 200 seeded cases.

use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, Message, MessageSet};
use ft_sim::reference::{run_to_completion_reference, simulate_cycle_reference};
use ft_sim::{
    run_to_completion, simulate_cycle, Arbitration, FaultModel, MetaWidth, SimConfig, SwitchKind,
};

/// The tree shapes under test.
fn trees() -> Vec<FatTree> {
    vec![
        FatTree::new(8, CapacityProfile::Constant(1)),
        FatTree::new(16, CapacityProfile::Constant(2)),
        FatTree::new(32, CapacityProfile::FullDoubling),
        FatTree::universal(32, 8),
        FatTree::universal(64, 16),
    ]
}

/// The engine configurations under test, each pinned against the
/// HashMap-based reference. Ideal switches under slot order are what the
/// fused sweeps take (`Auto` on these small trees), so that combination
/// also runs `Wide` — the level passes on the same inputs — and the shared
/// oracle makes the two bodies byte-identical to each other. Every other
/// combination runs the level passes whatever `meta` says, once.
fn configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for switch in [SwitchKind::Ideal, SwitchKind::Partial] {
        for arbitration in [Arbitration::SlotOrder, Arbitration::Random(0xFEED)] {
            for faults in [
                FaultModel::none(),
                FaultModel {
                    dead_wire_fraction: 0.2,
                    seed: 3,
                },
            ] {
                let fused = switch == SwitchKind::Ideal && arbitration == Arbitration::SlotOrder;
                for meta in [MetaWidth::Auto, MetaWidth::Wide] {
                    if meta == MetaWidth::Wide && !fused {
                        continue;
                    }
                    cfgs.push(SimConfig {
                        payload_bits: 16,
                        switch,
                        arbitration,
                        faults,
                        meta,
                    });
                }
            }
        }
    }
    cfgs
}

/// A seeded workload on `n` processors: permutations, hot spots, and random
/// many-to-many traffic (including locals and duplicate sources).
fn workload(n: u32, seed: u64) -> Vec<Message> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    match seed % 3 {
        0 => {
            let mut dst: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut dst);
            (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
        }
        1 => {
            let hot = rng.gen_range(0..n);
            (0..n).map(|i| Message::new(i, hot)).collect()
        }
        _ => (0..2 * n)
            .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect(),
    }
}

fn assert_cycles_equal(ft: &FatTree, msgs: &[Message], cfg: &SimConfig, tag: &str) {
    let want = simulate_cycle_reference(ft, msgs, cfg);
    let got = simulate_cycle(ft, msgs, cfg);
    assert_eq!(got.delivered, want.delivered, "delivered diverged [{tag}]");
    assert_eq!(got.dropped, want.dropped, "dropped diverged [{tag}]");
    assert_eq!(got.ticks, want.ticks, "ticks diverged [{tag}]");
    assert_eq!(
        got.channel_use, want.channel_use,
        "channel_use diverged [{tag}]"
    );
}

fn assert_runs_equal(ft: &FatTree, msgs: &MessageSet, cfg: &SimConfig, tag: &str) {
    // Some combinations legitimately stall (e.g. a deterministic partial
    // concentrator that routes nothing at a hot spot): both engines must
    // then hit the same no-progress assertion.
    let want = std::panic::catch_unwind(|| run_to_completion_reference(ft, msgs, cfg));
    let got = std::panic::catch_unwind(|| run_to_completion(ft, msgs, cfg));
    let (want, got) = match (want, got) {
        (Ok(w), Ok(g)) => (w, g),
        (Err(_), Err(_)) => return, // both stalled: equivalent behavior
        (Ok(_), Err(_)) => panic!("only the flat-array engine stalled [{tag}]"),
        (Err(_), Ok(_)) => panic!("only the reference engine stalled [{tag}]"),
    };
    assert_eq!(got.cycles, want.cycles, "cycles diverged [{tag}]");
    assert_eq!(
        got.delivered_per_cycle, want.delivered_per_cycle,
        "delivered_per_cycle diverged [{tag}]"
    );
    assert_eq!(
        got.total_ticks, want.total_ticks,
        "total_ticks diverged [{tag}]"
    );
    assert_eq!(
        got.delivery_order, want.delivery_order,
        "delivery_order diverged [{tag}]"
    );
}

#[test]
fn simulate_cycle_matches_reference_everywhere() {
    let mut cases = 0usize;
    for ft in trees() {
        for cfg in configs() {
            for seed in 0..9u64 {
                let msgs = workload(ft.n(), 101 + seed);
                let tag = format!("n={} cfg={cfg:?} seed={seed}", ft.n());
                assert_cycles_equal(&ft, &msgs, &cfg, &tag);
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} single-cycle golden cases");
}

#[test]
fn run_to_completion_matches_reference_everywhere() {
    let mut cases = 0usize;
    for ft in trees() {
        for cfg in configs() {
            for seed in 0..5u64 {
                let msgs: MessageSet = workload(ft.n(), 211 + seed).into_iter().collect();
                let tag = format!("n={} cfg={cfg:?} seed={seed}", ft.n());
                assert_runs_equal(&ft, &msgs, &cfg, &tag);
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} run-to-completion golden cases");
}

#[test]
fn empty_and_degenerate_sets_match() {
    let ft = FatTree::universal(16, 4);
    let cfg = SimConfig::default();
    assert_cycles_equal(&ft, &[], &cfg, "empty");
    // All-local traffic: delivered without touching the network.
    let locals: Vec<Message> = (0..16).map(|i| Message::new(i, i)).collect();
    assert_cycles_equal(&ft, &locals, &cfg, "all-local");
    let set: MessageSet = locals.into_iter().collect();
    assert_runs_equal(&ft, &set, &cfg, "all-local-run");
}

#[test]
fn wider_tree_single_cycle_matches_reference() {
    let ft = FatTree::universal(128, 32);
    let cfg = SimConfig::default();
    for seed in 0..6u64 {
        let msgs = workload(ft.n(), 401 + seed);
        assert_cycles_equal(&ft, &msgs, &cfg, &format!("n=128 seed={seed}"));
    }
}
