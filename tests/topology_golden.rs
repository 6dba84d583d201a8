//! Byte-identity goldens for the generalized-topology layer.
//!
//! The acceptance bar for `ft-topology` is that the binary family is not
//! "approximately" the old code path — it *is* the old code path: for
//! every capacity profile, `Embedded::new(Topology::binary(n, p))` must
//! hand the engines the very tree `FatTree::new(n, p)` builds, with the
//! identity leaf map, so simulator runs, Theorem-1 schedules, and the
//! seeded on-line router all reproduce the direct calls bit for bit.
//! Generalized families (k-ary pods, two-layer, custom tables) cannot be
//! compared to a legacy twin, so they are pinned by cross-engine
//! consistency instead: schedules validate on the embedded tree, every
//! engine delivers the whole workload, and nobody beats ⌈λ⌉.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::sched::SchedArena;
use fat_tree::topology::Topology;

fn perm(n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut dst: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut dst);
    (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
}

/// Every `CapacityProfile` variant at n = 64 (lg n + 1 = 7 levels).
fn profiles() -> Vec<CapacityProfile> {
    vec![
        CapacityProfile::Universal { root_capacity: 16 },
        CapacityProfile::FullDoubling,
        CapacityProfile::Constant(3),
        CapacityProfile::PerLevel(vec![20, 16, 12, 8, 4, 2, 1]),
        CapacityProfile::UniversalWithDegree {
            root_capacity: 16,
            degree: 2,
        },
    ]
}

#[test]
fn binary_embedding_is_the_identity() {
    for profile in profiles() {
        let emb = Embedded::new(Topology::binary(64, profile.clone()));
        let ft = FatTree::new(64, profile.clone());
        assert!(
            emb.is_identity(),
            "{profile:?}: binary leaf map not identity"
        );
        assert_eq!(emb.padded_n(), 64);
        assert_eq!(emb.tree().height(), ft.height(), "{profile:?}");
        for k in 0..=ft.height() {
            assert_eq!(
                emb.tree().cap_at_level(k),
                ft.cap_at_level(k),
                "{profile:?}: capacity differs at level {k}"
            );
        }
        let m = perm(64, 11);
        let mapped = emb.map_set(&m);
        assert_eq!(
            mapped.as_slice(),
            m.as_slice(),
            "{profile:?}: map_set moved ids"
        );
    }
}

#[test]
fn binary_simulator_runs_are_byte_identical() {
    let cfg = SimConfig::default();
    for profile in profiles() {
        let emb = Embedded::new(Topology::binary(64, profile.clone()));
        let ft = FatTree::new(64, profile.clone());
        for seed in [1u64, 2, 3] {
            let m = perm(64, seed);
            let direct = run_to_completion(&ft, &m, &cfg);
            let topo = run_to_completion(emb.tree(), &emb.map_set(&m), &cfg);
            assert_eq!(direct.cycles, topo.cycles, "{profile:?} seed {seed}");
            assert_eq!(
                direct.delivered_per_cycle, topo.delivered_per_cycle,
                "{profile:?} seed {seed}"
            );
            assert_eq!(
                direct.delivery_order, topo.delivery_order,
                "{profile:?} seed {seed}"
            );
            assert_eq!(
                direct.total_ticks, topo.total_ticks,
                "{profile:?} seed {seed}"
            );
        }
    }
}

#[test]
fn binary_schedules_are_byte_identical() {
    for profile in profiles() {
        let emb = Embedded::new(Topology::binary(64, profile.clone()));
        let ft = FatTree::new(64, profile.clone());
        for seed in [5u64, 6] {
            let m = perm(64, seed);
            let (direct, dstats) = SchedArena::new(&ft).schedule(&ft, &m, 1);
            let (topo, tstats) =
                SchedArena::new(emb.tree()).schedule(emb.tree(), &emb.map_set(&m), 1);
            assert_eq!(direct.cycles(), topo.cycles(), "{profile:?} seed {seed}");
            assert_eq!(
                dstats.load_factor, tstats.load_factor,
                "{profile:?} seed {seed}"
            );
            assert_eq!(
                dstats.total_cycles, tstats.total_cycles,
                "{profile:?} seed {seed}"
            );
        }
    }
}

#[test]
fn binary_online_routes_are_byte_identical() {
    let cfg = OnlineConfig::default();
    for profile in profiles() {
        let emb = Embedded::new(Topology::binary(64, profile.clone()));
        let ft = FatTree::new(64, profile.clone());
        let m = perm(64, 8);
        let mut rng = SplitMix64::seed_from_u64(13);
        let direct = OnlineArena::new(&ft).route(&ft, &m, &mut rng, cfg);
        let mut rng = SplitMix64::seed_from_u64(13);
        let topo = OnlineArena::new(emb.tree()).route(emb.tree(), &emb.map_set(&m), &mut rng, cfg);
        assert_eq!(direct.cycles, topo.cycles, "{profile:?}");
        assert_eq!(
            direct.delivered_per_cycle, topo.delivered_per_cycle,
            "{profile:?}"
        );
    }
}

/// The generalized families: no legacy twin exists, so pin cross-engine
/// consistency — valid schedules, full delivery, nobody beating ⌈λ⌉, and
/// the lazily mapped stream running exactly the mapped set.
#[test]
fn generalized_families_are_cross_engine_consistent() {
    let machines = vec![
        Topology::kary_pods(8, 1),
        Topology::kary_pods(8, 2),
        Topology::kary_pods(8, 4),
        Topology::kary_pods(6, 2),
        Topology::two_layer(16, 8, 100),
        Topology::two_layer(16, 8, 120),
        Topology::two_layer(8, 4, 30),
        Topology::custom(
            vec![5, 3],
            vec![
                fat_tree::topology::LevelCaps::symmetric(1),
                fat_tree::topology::LevelCaps::symmetric(3),
                fat_tree::topology::LevelCaps::symmetric(1),
            ],
        ),
    ];
    for topo in machines {
        let emb = Embedded::new(topo);
        let spec = emb.topology().spec().to_string();
        let m = perm(emb.leaves(), 23);
        let (lambda, _) = emb.lambda(&m);
        let mapped = emb.map_set(&m);

        // Off-line: the Theorem-1 schedule must be valid on the embedded
        // tree, carry exactly the mapped messages, and respect λ.
        let (sched, stats) = SchedArena::new(emb.tree()).schedule(emb.tree(), &mapped, 1);
        sched.validate(emb.tree(), &mapped).unwrap();
        assert!((stats.load_factor - lambda).abs() < 1e-9, "{spec}");
        assert!(
            sched.cycles().len() as f64 >= lambda.ceil(),
            "{spec}: schedule beat ⌈λ⌉"
        );

        // Simulator: everything delivered, cycles ≥ ⌈λ⌉, and the mapped
        // stream runs the same cycles as the mapped set.
        let cfg = SimConfig::default();
        let run = run_to_completion(emb.tree(), &mapped, &cfg);
        assert_eq!(
            run.delivered_per_cycle.iter().sum::<usize>(),
            m.len(),
            "{spec}: simulator lost messages"
        );
        assert!(run.cycles as f64 >= lambda.ceil(), "{spec}: sim beat ⌈λ⌉");
        let streamed = run_stream_to_completion(emb.tree(), &emb.stream(&m), &cfg);
        assert_eq!(streamed, run, "{spec}: simulator stream != set");

        // On-line: everything delivered; the stream path is identical
        // under the same seed.
        let cfg = OnlineConfig::default();
        let mut arena = OnlineArena::new(emb.tree());
        let r = arena.route(emb.tree(), &mapped, &mut SplitMix64::seed_from_u64(31), cfg);
        assert!(!r.truncated, "{spec}");
        assert_eq!(
            r.delivered_per_cycle.iter().sum::<usize>(),
            m.len(),
            "{spec}: router lost messages"
        );
        let mut rng = SplitMix64::seed_from_u64(31);
        arena.run_stream(emb.tree(), &emb.stream(&m), &mut rng, cfg);
        assert_eq!(
            arena.delivered_per_cycle(),
            r.delivered_per_cycle,
            "{spec}: router stream != set"
        );
    }
}

/// Mixed-radix leaf maps must be bijections onto the padded tree: every
/// real processor maps to a distinct padded leaf and back.
#[test]
fn leaf_maps_are_bijective() {
    for topo in [
        Topology::kary_pods(6, 1),
        Topology::two_layer(16, 8, 100),
        Topology::two_layer(8, 4, 30),
    ] {
        let emb = Embedded::new(topo);
        let spec = emb.topology().spec().to_string();
        let mut seen = vec![false; emb.padded_n() as usize];
        for p in 0..emb.leaves() {
            let q = emb.map_proc(p);
            assert!(q < emb.padded_n(), "{spec}: leaf {p} maps out of range");
            assert!(!seen[q as usize], "{spec}: leaf map collides at {q}");
            seen[q as usize] = true;
            assert_eq!(emb.unmap_proc(q), Some(p), "{spec}: unmap broken at {q}");
        }
    }
}
