//! Streamed-ingest equivalence for the schedulers: feeding a lazy generator
//! through `SchedArena::schedule_stream` / `OnlineArena::run_stream` must be
//! byte-identical to materializing the same stream and running the classic
//! `MessageSet` paths — per family, per thread count, arena reused across
//! runs. Together with `golden_scheduler.rs` / `golden_online.rs` (classic
//! paths vs. the reference engines) this pins the streamed paths to the
//! original semantics.

use ft_core::rng::SplitMix64;
use ft_core::{FatTree, MessageStream};
use ft_sched::{OnlineArena, OnlineConfig, SchedArena, Schedule, Theorem1Stats};
use ft_workloads::{
    AllReduceStream, AllToAllStream, BurstyStream, HotspotStream, IncastStream, PermutationStream,
    RelationStream,
};

/// Every lazy generator family at a given size, boxed for uniform driving.
/// The arenas ingest in 256-message chunks: at n = 1024 every family spans
/// several (the collectives' pods are capped to keep them small).
fn streams(n: u32, seed: u64) -> Vec<Box<dyn MessageStream>> {
    vec![
        Box::new(PermutationStream::new(n, seed)),
        Box::new(HotspotStream::new(n, 2, 3, seed)),
        Box::new(RelationStream::new(n, 2, seed)),
        Box::new(BurstyStream::new(n, 2 * n as usize, 8, seed)),
        Box::new(IncastStream::new(n, (n / 2).max(1), 4, seed)),
        Box::new(AllReduceStream::new(n, (n / 4).clamp(2, 16), seed)),
        Box::new(AllToAllStream::new(n, (n / 8).clamp(2, 8))),
    ]
}

fn assert_schedules_equal(
    want: &(Schedule, Theorem1Stats),
    got: &(Schedule, Theorem1Stats),
    tag: &str,
) {
    assert_eq!(
        got.0.cycles(),
        want.0.cycles(),
        "schedule cycles diverged [{tag}]"
    );
    assert_eq!(
        got.1.cycles_per_level, want.1.cycles_per_level,
        "cycles_per_level diverged [{tag}]"
    );
    assert_eq!(
        got.1.load_factor, want.1.load_factor,
        "load_factor diverged [{tag}]"
    );
    assert_eq!(
        got.1.total_cycles, want.1.total_cycles,
        "total_cycles diverged [{tag}]"
    );
}

#[test]
fn schedule_stream_matches_materialized_everywhere() {
    let mut cases = 0usize;
    for n in [32u32, 64, 1024] {
        let ft = FatTree::universal(n, (n as u64 / 4).max(1));
        let mut classic = SchedArena::new(&ft);
        let mut streamed = SchedArena::new(&ft);
        for seed in [7u64, 1009] {
            for threads in [1usize, 4] {
                for stream in streams(n, seed) {
                    let set = stream.collect_set();
                    let tag = format!(
                        "family={} n={n} seed={seed} threads={threads}",
                        stream.family()
                    );
                    let want = classic.schedule(&ft, &set, threads);
                    let got = streamed.schedule_stream(&ft, stream.as_ref(), threads);
                    assert_schedules_equal(&want, &got, &tag);
                    // The emitted schedule must still be a valid partition of
                    // the stream's multiset into one-cycle sets.
                    got.0
                        .validate(&ft, &set)
                        .unwrap_or_else(|e| panic!("streamed schedule invalid [{tag}]: {e}"));
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 56, "only {cases} streamed scheduler golden cases");
}

#[test]
fn run_stream_matches_materialized_everywhere() {
    for n in [32u32, 64, 1024] {
        let ft = FatTree::universal(n, (n as u64 / 4).max(1));
        let mut classic = OnlineArena::new(&ft);
        let mut streamed = OnlineArena::new(&ft);
        for seed in [5u64, 613] {
            let cfg = OnlineConfig::default();
            for stream in streams(n, seed) {
                let set = stream.collect_set();
                let tag = format!("family={} n={n} seed={seed}", stream.family());
                // Same rng seed on both sides: the packed alive lists are
                // identical, so the shuffles consume the same stream.
                classic.run(
                    &ft,
                    &set,
                    &mut SplitMix64::seed_from_u64(seed ^ 0xA11E),
                    cfg,
                );
                streamed.run_stream(
                    &ft,
                    stream.as_ref(),
                    &mut SplitMix64::seed_from_u64(seed ^ 0xA11E),
                    cfg,
                );
                assert_eq!(
                    streamed.delivered_per_cycle(),
                    classic.delivered_per_cycle(),
                    "delivered_per_cycle diverged [{tag}]"
                );
                assert_eq!(streamed.cycles(), classic.cycles(), "cycles [{tag}]");
                assert_eq!(
                    streamed.truncated(),
                    classic.truncated(),
                    "truncated [{tag}]"
                );
                assert_eq!(
                    streamed.total_delivered(),
                    stream.len(),
                    "stream length undelivered [{tag}]"
                );
            }
        }
    }
}

#[test]
fn stream_ingest_reaches_the_recorder() {
    let n = 32u32;
    let ft = FatTree::universal(n, 8);
    let stream = PermutationStream::new(n, 3);
    let mut rec = ft_telemetry::MetricsRecorder::new();
    SchedArena::new(&ft).schedule_stream_with(&ft, &stream, 1, &mut rec);
    OnlineArena::new(&ft).run_stream_with(
        &ft,
        &stream,
        &mut SplitMix64::seed_from_u64(1),
        OnlineConfig::default(),
        &mut rec,
    );
    let perm: Vec<_> = rec
        .stream_families
        .iter()
        .filter(|(f, _, _)| *f == "permutation")
        .collect();
    assert_eq!(perm.len(), 1, "one accumulated family row");
    assert_eq!(perm[0].1, 2, "two streamed runs recorded");
    assert_eq!(perm[0].2, 2 * n as u64, "message totals accumulate");
}
