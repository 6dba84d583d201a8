//! Golden equivalence: the flat-array engine must reproduce the retained
//! reference engine byte for byte — same delivered/dropped index lists, same
//! tick counts, same channel usage, same run traces — across trees, capacity
//! profiles, switch flavors, arbitration policies, fault patterns, and
//! workloads. Well over 200 seeded cases.

use ft_core::rng::{splitmix64, SplitMix64};
use ft_core::route::for_each_path_channel;
use ft_core::{CapacityProfile, ChannelId, FatTree, LoadMap, Message, MessageSet};
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

/// The claim walk of DESIGN.md §10's random-priority lemma, written out:
/// each source leaf admits its first `eff(up(leaf))` messages in
/// submission order, then the admitted messages claim the rest of their
/// paths one at a time in `splitmix64(seed ^ i·φ)` order, each stopping at
/// its first full channel (the wires it won stay used). Returns the
/// delivered indices, ascending, and the wires used per channel.
fn priority_walk(
    ft: &FatTree,
    msgs: &[Message],
    seed: u64,
    faults: &FaultModel,
) -> (Vec<usize>, LoadMap) {
    let mut used = LoadMap::zeros(ft);
    let mut delivered = Vec::new();
    let mut admitted = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        if m.is_local() {
            delivered.push(i);
            continue;
        }
        let leaf = ChannelId::up(ft.leaf(m.src));
        if used.get(leaf) < faults.effective_cap(ft, leaf) {
            used.add_one(leaf);
            admitted.push(i);
        }
    }
    admitted.sort_by_key(|&i| splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    for i in admitted {
        let (mut leaf_edge, mut through) = (true, true);
        for_each_path_channel(ft, &msgs[i], |c| {
            if std::mem::take(&mut leaf_edge) || !through {
                return; // the leaf's up channel was claimed at admission
            }
            through = used.get(c) < faults.effective_cap(ft, c);
            if through {
                used.add_one(c);
            }
        });
        if through {
            delivered.push(i);
        }
    }
    delivered.sort_unstable();
    (delivered, used)
}

/// The random-priority lemma (DESIGN.md §10) against the engine: on ideal
/// switches, `Arbitration::Random` picks exactly the winners, and uses
/// exactly the wires, of [`priority_walk`] — per cycle on `golden_engine`'s
/// `Random` cases (with and without faults), and over whole runs with the
/// run drivers' per-cycle reseeding.
#[test]
fn random_arbitration_on_ideal_switches_is_a_priority_walk() {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let seed = 0xFEED;
    for ft in trees() {
        for faults in [
            FaultModel::none(),
            FaultModel {
                dead_wire_fraction: 0.2,
                seed: 3,
            },
        ] {
            let cfg = SimConfig {
                payload_bits: 16,
                switch: SwitchKind::Ideal,
                arbitration: Arbitration::Random(seed),
                faults,
                meta: MetaWidth::Auto,
            };
            for s in 0..9u64 {
                let msgs = workload(ft.n(), 101 + s);
                let tag = format!("n={} faults={faults:?} seed={s}", ft.n());
                let got = simulate_cycle(&ft, &msgs, &cfg);
                let (delivered, used) = priority_walk(&ft, &msgs, seed, &faults);
                assert_eq!(got.delivered, delivered, "delivered set [{tag}]");
                assert_eq!(got.channel_use, used, "channel_use [{tag}]");
            }
            for s in 0..5u64 {
                let msgs: MessageSet = workload(ft.n(), 211 + s).into_iter().collect();
                let run = run_to_completion(&ft, &msgs, &cfg);
                let mut pending: Vec<usize> = (0..msgs.len()).collect();
                let mut order = Vec::new();
                let mut cycle = 0u64;
                while !pending.is_empty() {
                    let sub: Vec<Message> = pending.iter().map(|&i| msgs.as_slice()[i]).collect();
                    let cycle_seed = seed.wrapping_add(cycle).wrapping_mul(PHI);
                    let (delivered, _) = priority_walk(&ft, &sub, cycle_seed, &faults);
                    assert!(!delivered.is_empty(), "walk stalled");
                    order.extend(delivered.iter().map(|&k| pending[k]));
                    let mut next = delivered.iter().peekable();
                    let mut k = 0usize;
                    pending.retain(|_| {
                        let gone = next.next_if_eq(&&k).is_some();
                        k += 1;
                        !gone
                    });
                    cycle += 1;
                }
                let tag = format!("n={} faults={faults:?} run seed={s}", ft.n());
                assert_eq!(run.cycles as u64, cycle, "cycles [{tag}]");
                assert_eq!(run.delivery_order, order, "delivery order [{tag}]");
            }
        }
    }
}
