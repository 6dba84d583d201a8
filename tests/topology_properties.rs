//! Property tests for the generalized-topology layer (seeded, std-only —
//! plain exhaustive/seeded sweeps rather than shrinking generators).
//!
//! Three laws are pinned:
//!
//! 1. **Capacity monotonicity** — full-bisection k-ary trees for
//!    k ∈ {2, 4, 8, 16} have non-increasing channel capacities from root
//!    to leaves, their embedded binary boundary capacities inherit that
//!    order, and their permutation λ lower bound is exactly 1.
//! 2. **λ-bound attainability** — for every machine, the block-shift
//!    permutation at the argmax level of `lambda_perm_bound` actually
//!    loads some real channel to the bound, so the bound is tight (not
//!    just a floor), and no engine ever beats ⌈bound⌉ on that traffic.
//! 3. **PerLevel faithfulness** — random monotone capacity tables round
//!    trip through `Topology::binary` into the embedded `FatTree`
//!    unchanged, and the scheduler's measured load factor agrees with the
//!    embedding's λ on random permutations.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::sched::SchedArena;
use fat_tree::topology::{LevelCaps, Topology};

fn perm(n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut dst: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut dst);
    (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
}

/// A uniform k-ary tree of the given depth with full bisection at every
/// level: the channel above a node carries exactly its subtree's leaves.
fn full_bisection_kary(k: u32, depth: u32) -> Topology {
    let arities = vec![k; depth as usize];
    let chan = (0..=depth)
        .map(|t| LevelCaps::symmetric((k as u64).pow(depth - t)))
        .collect();
    Topology::custom(arities, chan)
}

#[test]
fn full_bisection_capacities_are_monotone_and_lambda_is_one() {
    for (k, depth) in [(2u32, 6u32), (4, 3), (8, 2), (16, 2)] {
        let topo = full_bisection_kary(k, depth);
        let spec = topo.spec().to_string();
        // Channel capacities never grow toward the leaves.
        for t in 1..topo.depth() {
            assert!(
                topo.cap_up(t) >= topo.cap_up(t + 1),
                "{spec}: capacity grows from level {t} to {}",
                t + 1
            );
        }
        // Full bisection ⇒ no permutation needs more than one pass per
        // channel: the bound is exactly 1.
        assert!(
            (topo.lambda_perm_bound() - 1.0).abs() < 1e-12,
            "{spec}: λ bound {} ≠ 1",
            topo.lambda_perm_bound()
        );
        // The embedded binary boundary levels inherit the monotone order.
        let emb = Embedded::new(topo);
        let mut last = u64::MAX;
        for b in 0..=emb.tree().height() {
            if emb.real_level(b).is_some() {
                let cap = emb.tree().cap_at_level(b);
                assert!(
                    cap <= last,
                    "{spec}: embedded boundary capacity grows at binary level {b}"
                );
                last = cap;
            }
        }
    }
}

/// The argmax level of `lambda_perm_bound` and the bound's value,
/// recomputed independently of the implementation.
fn bound_argmax(topo: &Topology) -> (u32, f64) {
    let n = topo.leaves();
    let mut best = (1u32, 0.0f64);
    for t in 1..=topo.depth() {
        let s = topo.subtree_leaves(t);
        let ratio = s.min(n - s) as f64 / topo.cap_up(t) as f64;
        if ratio > best.1 {
            best = (t, ratio);
        }
    }
    best
}

#[test]
fn lambda_bound_is_attained_by_the_block_shift_permutation() {
    for topo in [
        Topology::kary_pods(4, 1),
        Topology::kary_pods(8, 2),
        Topology::two_layer(16, 8, 128),
        full_bisection_kary(4, 3),
    ] {
        let (t_star, bound) = bound_argmax(&topo);
        assert!((bound - topo.lambda_perm_bound()).abs() < 1e-12);
        let emb = Embedded::new(topo);
        let spec = emb.topology().spec().to_string();
        let n = emb.leaves();
        // Shift every processor by one depth-t* block: all s leaves of
        // every depth-t* subtree send out of it, loading each up-channel
        // to exactly s — the numerator of the bound (s ≤ n/2 for t ≥ 1).
        let s = emb.topology().subtree_leaves(t_star) as u32;
        let m: MessageSet = (0..n).map(|i| Message::new(i, (i + s) % n)).collect();
        let (_, real) = emb.lambda(&m);
        assert!(
            real >= bound - 1e-9,
            "{spec}: block shift reaches λ = {real} < bound {bound}"
        );
        // No engine beats ⌈bound⌉ on this traffic.
        let (sched, stats) = SchedArena::new(emb.tree()).schedule(emb.tree(), &emb.map_set(&m), 1);
        assert!(stats.load_factor >= bound - 1e-9, "{spec}");
        assert!(
            sched.cycles().len() as f64 >= bound.ceil(),
            "{spec}: scheduler beat ⌈λ bound⌉"
        );
        let run = run_to_completion(emb.tree(), &emb.map_set(&m), &SimConfig::default());
        assert!(
            run.cycles as f64 >= bound.ceil(),
            "{spec}: simulator beat ⌈λ bound⌉"
        );
        assert_eq!(run.delivered_per_cycle.iter().sum::<usize>(), m.len());
    }
}

#[test]
fn random_perlevel_tables_round_trip_and_agree_on_lambda() {
    let n = 64u32;
    let levels = 7usize; // lg n + 1
    for seed in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9E37 ^ seed);
        // Build a random monotone table leaf-up: each level adds 0..8 to
        // the one below, leaves at least 1.
        let mut caps = vec![0u64; levels];
        caps[levels - 1] = 1 + rng.gen_range(0..4u64);
        for i in (0..levels - 1).rev() {
            caps[i] = caps[i + 1] + rng.gen_range(0..8u64);
        }
        let topo = Topology::binary(n, CapacityProfile::PerLevel(caps.clone()));
        // The channel table and the embedded tree reproduce the input
        // capacities exactly.
        for (k, &cap) in caps.iter().enumerate() {
            assert_eq!(topo.cap_up(k as u32), cap, "seed {seed} level {k}");
        }
        let emb = Embedded::new(topo);
        assert!(emb.is_identity());
        for (k, &cap) in caps.iter().enumerate() {
            assert_eq!(
                emb.tree().cap_at_level(k as u32),
                cap,
                "seed {seed} level {k}"
            );
        }
        // The independent bound recomputation matches the implementation.
        let (_, bound) = bound_argmax(emb.topology());
        assert!((bound - emb.topology().lambda_perm_bound()).abs() < 1e-12);
        // Scheduler load factor == embedding λ on a random permutation,
        // and the schedule respects it.
        let m = perm(n, seed);
        let (lambda, _) = emb.lambda(&m);
        let (sched, stats) = SchedArena::new(emb.tree()).schedule(emb.tree(), &emb.map_set(&m), 1);
        assert!(
            (stats.load_factor - lambda).abs() < 1e-9,
            "seed {seed}: scheduler λ {} ≠ embedding λ {lambda}",
            stats.load_factor
        );
        assert!(sched.cycles().len() as f64 >= lambda.ceil(), "seed {seed}");
    }
}

#[test]
fn oversubscription_scales_the_lambda_bound_linearly() {
    // kary:k=8 pods with oversubscription 1, 2, 4: halving the core
    // capacity doubles the permutation bound, exactly.
    let base = Topology::kary_pods(8, 1).lambda_perm_bound();
    for over in [2u64, 4] {
        let b = Topology::kary_pods(8, over).lambda_perm_bound();
        assert!(
            (b - base * over as f64).abs() < 1e-9,
            "over={over}: bound {b} ≠ {base} × {over}"
        );
    }
}
