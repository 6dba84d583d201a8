//! Streamed-ingest equivalence: running a lazy generator through
//! `run_stream_to_completion` / `SimArena::cycle_stream` must be
//! byte-identical to materializing the same stream and running the classic
//! path — per family, per cycle body, per arbitration policy. Together
//! with `golden_engine.rs` (both bodies vs. the reference engine) this pins
//! the entire streamed+packed path to the original semantics.

use ft_core::{FatTree, MessageStream};
use ft_sim::{
    run_stream_to_completion, run_to_completion, Arbitration, MetaWidth, SimArena, SimConfig,
    SwitchKind,
};
use ft_workloads::{
    AllReduceStream, AllToAllStream, BurstyStream, HotspotStream, IncastStream, PermutationStream,
    RelationStream,
};

/// Every lazy generator family at a given size, boxed for uniform driving.
fn streams(n: u32, seed: u64) -> Vec<Box<dyn MessageStream>> {
    vec![
        Box::new(PermutationStream::new(n, seed)),
        Box::new(HotspotStream::new(n, 2, 3, seed)),
        Box::new(RelationStream::new(n, 2, seed)),
        Box::new(BurstyStream::new(n, 2 * n as usize, 8, seed)),
        Box::new(IncastStream::new(n, (n / 2).max(1), 4, seed)),
        Box::new(AllReduceStream::new(n, (n / 4).max(2).min(n), seed)),
        Box::new(AllToAllStream::new(n, (n / 8).max(2).min(n))),
    ]
}

/// Ideal switches under slot order run `Auto` (the fused sweeps) and `Wide`
/// (the level passes on the same inputs); the other combinations run the
/// level passes whatever `meta` says, once.
fn configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for switch in [SwitchKind::Ideal, SwitchKind::Partial] {
        for arbitration in [Arbitration::SlotOrder, Arbitration::Random(0xABCD)] {
            let fused = switch == SwitchKind::Ideal && arbitration == Arbitration::SlotOrder;
            for meta in [MetaWidth::Auto, MetaWidth::Wide] {
                if meta == MetaWidth::Wide && !fused {
                    continue;
                }
                cfgs.push(SimConfig {
                    switch,
                    arbitration,
                    meta,
                    ..Default::default()
                });
            }
        }
    }
    cfgs
}

#[test]
fn streamed_run_matches_materialized_everywhere() {
    let mut cases = 0usize;
    for n in [32u32, 64] {
        let ft = FatTree::universal(n, (n as u64 / 4).max(1));
        for cfg in configs() {
            for seed in [7u64, 1009, 52_361] {
                for stream in streams(n, seed) {
                    let set = stream.collect_set();
                    let tag = format!("family={} n={n} cfg={cfg:?} seed={seed}", stream.family());
                    let want = std::panic::catch_unwind(|| run_to_completion(&ft, &set, &cfg));
                    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_stream_to_completion(&ft, stream.as_ref(), &cfg)
                    }));
                    match (want, got) {
                        (Ok(w), Ok(g)) => assert_eq!(g, w, "run diverged [{tag}]"),
                        (Err(_), Err(_)) => {} // both stalled: equivalent
                        (Ok(_), Err(_)) => panic!("only the streamed run stalled [{tag}]"),
                        (Err(_), Ok(_)) => panic!("only the materialized run stalled [{tag}]"),
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 200, "only {cases} streamed golden cases");
}

#[test]
fn streamed_cycle_matches_materialized() {
    for n in [32u32, 128] {
        let ft = FatTree::universal(n, (n as u64 / 4).max(1));
        for cfg in configs() {
            for stream in streams(n, 42) {
                let set = stream.collect_set();
                let tag = format!("family={} n={n} cfg={cfg:?}", stream.family());
                let mut a = SimArena::new(&ft, &cfg);
                let want = a.cycle(&ft, set.as_slice(), &cfg);
                let want_delivered = a.delivered_indices().to_vec();
                let want_dropped = a.dropped_indices().to_vec();
                let want_use = a.channel_use().clone();
                let mut b = SimArena::new(&ft, &cfg);
                let got = b.cycle_stream(&ft, stream.as_ref(), &cfg);
                assert_eq!(got, want, "stats diverged [{tag}]");
                assert_eq!(b.delivered_indices(), want_delivered, "delivered [{tag}]");
                assert_eq!(b.dropped_indices(), want_dropped, "dropped [{tag}]");
                assert_eq!(b.channel_use(), &want_use, "channel_use [{tag}]");
            }
        }
    }
}

#[test]
fn same_arena_alternates_widths_and_sources_safely() {
    // One arena per cycle body, reused across families and cycles — the
    // grow-only buffers must not leak state between streamed loads.
    let n = 64u32;
    let ft = FatTree::universal(n, 16);
    for meta in [MetaWidth::Auto, MetaWidth::Wide] {
        let cfg = SimConfig {
            meta,
            ..Default::default()
        };
        let mut arena = SimArena::new(&ft, &cfg);
        for round in 0..3 {
            for stream in streams(n, 9 + round) {
                let set = stream.collect_set();
                let mut oracle = SimArena::new(&ft, &cfg);
                let want = oracle.cycle(&ft, set.as_slice(), &cfg);
                let got = arena.cycle_stream(&ft, stream.as_ref(), &cfg);
                assert_eq!(got, want, "family={} round={round}", stream.family());
                assert_eq!(
                    arena.delivered_indices(),
                    oracle.delivered_indices(),
                    "family={} round={round}",
                    stream.family()
                );
            }
        }
    }
}

#[test]
fn narrow_is_the_default_below_the_height_cap() {
    // Auto (the u32 fused sweeps, on every tree `FatTree` admits) must
    // agree with Wide (the level passes) directly, not only through the
    // goldens' shared oracle.
    let ft = FatTree::universal(256, 64);
    let stream = PermutationStream::new(256, 77);
    let auto = run_stream_to_completion(&ft, &stream, &SimConfig::default());
    let wide = SimConfig {
        meta: MetaWidth::Wide,
        ..Default::default()
    };
    assert_eq!(auto, run_stream_to_completion(&ft, &stream, &wide));
}
