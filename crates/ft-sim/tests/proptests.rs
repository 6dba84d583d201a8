//! Property tests for the bit-serial machine (seeded SplitMix64 loops,
//! std-only): conservation, capacity respect, retry completeness,
//! compile/simulate agreement, and — the law the fused sweeps rest on —
//! `Auto` (fused) == `Wide` (table walk) == reference, channel by channel.

use ft_core::rng::SplitMix64;
use ft_core::{load_factor, CapacityProfile, ChannelId, FatTree, Message, MessageSet};
use ft_sim::reference::simulate_cycle_reference;
use ft_sim::{
    compile_cycle, execute_compiled, run_to_completion, simulate_cycle, FaultModel, MetaWidth,
    SimConfig, SwitchKind,
};

const CASES: u64 = 96;

/// Up to `max − 1` uniform random messages on `n` processors.
fn random_msgs(rng: &mut SplitMix64, n: u32, max: usize) -> Vec<Message> {
    let len = rng.gen_range(0..max);
    (0..len)
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn conservation_and_capacity() {
    let mut rng = SplitMix64::seed_from_u64(0xC0);
    for case in 0..CASES {
        let ft = FatTree::universal(64, rng.gen_range(16u64..64));
        let msgs = random_msgs(&mut rng, 64, 128);
        let rep = simulate_cycle(&ft, &msgs, &SimConfig::default());
        assert_eq!(
            rep.delivered.len() + rep.dropped.len(),
            msgs.len(),
            "case {case}"
        );
        for c in ft.channels() {
            assert!(
                rep.channel_use.get(c) <= ft.cap(c),
                "case {case}: channel {c} over cap"
            );
        }
    }
}

#[test]
fn retries_always_finish() {
    let mut rng = SplitMix64::seed_from_u64(0xC1);
    let ft = FatTree::new(32, CapacityProfile::Constant(2));
    for case in 0..CASES {
        let msgs = random_msgs(&mut rng, 32, 64);
        let set = MessageSet::from_vec(msgs.clone());
        let run = run_to_completion(&ft, &set, &SimConfig::default());
        assert_eq!(
            run.delivered_per_cycle.iter().sum::<usize>(),
            msgs.len(),
            "case {case}"
        );
        // d is at least the load-factor bound.
        if !msgs.is_empty() {
            let lam = load_factor(&ft, &set);
            assert!(run.cycles as f64 >= lam.floor(), "case {case}");
        }
    }
}

#[test]
fn compiler_and_simulator_agree() {
    // compile_cycle succeeds iff the ideal-switch simulator drops nothing.
    let mut rng = SplitMix64::seed_from_u64(0xC2);
    let ft = FatTree::universal(32, 8);
    for case in 0..CASES {
        let msgs = random_msgs(&mut rng, 32, 48);
        let rep = simulate_cycle(&ft, &msgs, &SimConfig::default());
        let compiled = compile_cycle(&ft, &msgs);
        assert_eq!(rep.dropped.is_empty(), compiled.is_ok(), "case {case}");
        if let Ok(c) = compiled {
            let run = execute_compiled(&ft, &msgs, &c, 64).unwrap();
            assert_eq!(run.delivered, msgs.len(), "case {case}");
        }
    }
}

#[test]
fn partial_switches_subset_of_ideal() {
    // Partial concentrators never deliver a message the ideal switch
    // couldn't count: total per-channel use stays within capacity too.
    let mut rng = SplitMix64::seed_from_u64(0xC3);
    let ft = FatTree::universal(32, 16);
    let cfg = SimConfig {
        payload_bits: 16,
        switch: SwitchKind::Partial,
        ..Default::default()
    };
    for case in 0..CASES {
        let msgs = random_msgs(&mut rng, 32, 64);
        let rep = simulate_cycle(&ft, &msgs, &cfg);
        assert_eq!(
            rep.delivered.len() + rep.dropped.len(),
            msgs.len(),
            "case {case}"
        );
        for c in ft.channels() {
            assert!(rep.channel_use.get(c) <= ft.cap(c), "case {case}");
        }
    }
}

/// A random tree of height 1–10: universal, constant, or a random
/// per-level capacity table.
fn random_tree(rng: &mut SplitMix64) -> FatTree {
    let height = rng.gen_range(1u32..=10);
    let n = 1u32 << height;
    let profile = match rng.gen_range(0u32..3) {
        0 => CapacityProfile::Universal {
            root_capacity: rng.gen_range(1..=n as u64),
        },
        1 => CapacityProfile::Constant(rng.gen_range(1u64..=4)),
        _ => {
            // Leaves first, each level above at least as fat.
            let mut caps = vec![rng.gen_range(1u64..=3)];
            for _ in 0..height {
                caps.push(caps[caps.len() - 1] + rng.gen_range(0u64..=2));
            }
            caps.reverse();
            CapacityProfile::PerLevel(caps)
        }
    };
    FatTree::new(n, profile)
}

/// A random multiset on `n` processors: uniform traffic salted with exact
/// duplicates, locals, and a hot destination leaf.
fn random_multiset(rng: &mut SplitMix64, n: u32) -> Vec<Message> {
    let len = rng.gen_range(0..=3 * n as usize);
    let hot = rng.gen_range(0..n);
    let mut msgs: Vec<Message> = Vec::with_capacity(len);
    for _ in 0..len {
        let m = match rng.gen_range(0u32..8) {
            0 if !msgs.is_empty() => msgs[rng.gen_range(0..msgs.len())],
            1 => {
                let p = rng.gen_range(0..n);
                Message::new(p, p)
            }
            2 | 3 => Message::new(rng.gen_range(0..n), hot),
            _ => Message::new(rng.gen_range(0..n), rng.gen_range(0..n)),
        };
        msgs.push(m);
    }
    msgs
}

#[test]
fn fused_equals_table_walk_equals_reference_every_cycle() {
    let mut rng = SplitMix64::seed_from_u64(0xF05E);
    for case in 0..200u64 {
        let ft = random_tree(&mut rng);
        let faults = if rng.gen_bool(0.5) {
            FaultModel {
                dead_wire_fraction: rng.gen_range(0.05..0.6),
                seed: rng.next_u64(),
            }
        } else {
            FaultModel::none()
        };
        let cfg = |meta| SimConfig {
            faults,
            meta,
            ..SimConfig::default()
        };
        let (auto, wide) = (cfg(MetaWidth::Auto), cfg(MetaWidth::Wide));
        let mut pending = random_multiset(&mut rng, ft.n());
        let mut cycle = 0;
        while !pending.is_empty() {
            let tag = format!("case {case} cycle {cycle} n={}", ft.n());
            let want = simulate_cycle_reference(&ft, &pending, &wide);
            for (name, cfg) in [("auto", &auto), ("wide", &wide)] {
                let got = simulate_cycle(&ft, &pending, cfg);
                assert_eq!(got.delivered, want.delivered, "{name} delivered [{tag}]");
                assert_eq!(got.dropped, want.dropped, "{name} dropped [{tag}]");
                assert_eq!(got.ticks, want.ticks, "{name} ticks [{tag}]");
                for c in ft.channels() {
                    assert_eq!(
                        got.channel_use.get(c),
                        want.channel_use.get(c),
                        "{name} channel_use {c} [{tag}]"
                    );
                }
            }
            assert!(!want.delivered.is_empty(), "no progress [{tag}]");
            pending = want.dropped.iter().map(|&i| pending[i]).collect();
            cycle += 1;
        }
    }
}

#[test]
fn a_message_dropped_deep_still_occupies_the_channels_it_won_above() {
    // Both messages turn at the root and head for processor 7. The level-1
    // and level-2 down channels (capacities 4 and 2) carry both; the leaf
    // channel carries one, so the later source dies there — after it has
    // been counted on the two channels above.
    let ft = FatTree::new(8, CapacityProfile::FullDoubling);
    let msgs = [Message::new(0, 7), Message::new(1, 7)];
    for meta in [MetaWidth::Auto, MetaWidth::Wide] {
        let cfg = SimConfig {
            meta,
            ..SimConfig::default()
        };
        let rep = simulate_cycle(&ft, &msgs, &cfg);
        assert_eq!(rep.delivered, vec![0], "{meta:?}");
        assert_eq!(rep.dropped, vec![1], "{meta:?}");
        let leaf = ft.leaf(msgs[0].dst);
        assert_eq!(
            rep.channel_use.get(ChannelId::down(leaf >> 2)),
            2,
            "{meta:?}"
        );
        assert_eq!(
            rep.channel_use.get(ChannelId::down(leaf >> 1)),
            2,
            "{meta:?}"
        );
        assert_eq!(rep.channel_use.get(ChannelId::down(leaf)), 1, "{meta:?}");
        assert_eq!(rep, simulate_cycle_reference(&ft, &msgs, &cfg), "{meta:?}");
    }
}
