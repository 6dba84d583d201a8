//! Tier-1 guard for ft-sim's two cycle bodies: under the default config
//! the fused sweeps (source sort + fused up sweep + fused down sweep), and
//! under wide metadata, random arbitration or partial switches the
//! per-level table walk, must reproduce the retained HashMap-based
//! reference run byte for byte — cycles, per-cycle deliveries, ticks and
//! delivery order — on congested multi-cycle workloads, streamed (in-arena
//! retry compaction) and materialized alike. The reference is the only
//! cross-check either body has. The exhaustive suites live in
//! `crates/ft-sim/tests/`; this one makes plain `cargo test` fail if a
//! body is wrong.
//!
//! The fused body rests on three lemmas (DESIGN.md §10), each with its own
//! tests here: *order* — the pending set, sorted by source leaf once at
//! load and compacted in place, is in every later cycle the list a fresh
//! load would build; *free levels* — an up level whose ports cannot refuse
//! a message may be skipped, and is climbed exactly when loads can be read;
//! *run levels* — a level the run's busiest source (up) or destination
//! (down) leaf cannot fill may be skipped too, by the same rule, and the
//! masks the load picks equal their definition.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::sim::reference::{run_to_completion_reference, simulate_cycle_reference};
use fat_tree::sim::{
    run_stream_to_completion_with, run_to_completion_with, Arbitration, FaultModel, MetaWidth,
    SimArena,
};
use fat_tree::telemetry::EnginePhase;
use fat_tree::workloads::{
    BurstyStream, HotspotStream, IncastStream, PermutationStream, RelationStream,
};

/// Streamed run == reference run == materialized run; returns the cycles.
fn assert_stream_matches_reference(
    ft: &FatTree,
    stream: &dyn MessageStream,
    cfg: &SimConfig,
    tag: &str,
) -> usize {
    let set = stream.collect_set();
    let got = run_stream_to_completion(ft, stream, cfg);
    assert_eq!(got, run_to_completion_reference(ft, &set, cfg), "{tag}");
    assert_eq!(got, run_to_completion(ft, &set, cfg), "{tag}");
    got.cycles
}

#[test]
fn streamed_default_config_matches_reference_over_retries() {
    let mut multi_cycle = 0;
    for seed in 0..12u64 {
        let base = SimConfig::default();
        let configs = [
            ("default", base),
            (
                "wide",
                SimConfig {
                    meta: MetaWidth::Wide,
                    ..base
                },
            ),
            (
                "random",
                SimConfig {
                    arbitration: Arbitration::Random(seed),
                    ..base
                },
            ),
            (
                "partial",
                SimConfig {
                    switch: SwitchKind::Partial,
                    ..base
                },
            ),
        ];
        let n = [16u32, 64, 256][seed as usize % 3];
        let trees = [
            FatTree::universal(n, (n / 4) as u64),
            FatTree::new(n, CapacityProfile::Constant(2)),
        ];
        for ft in &trees {
            let streams: [(&str, Box<dyn MessageStream>); 5] = [
                ("perm", Box::new(PermutationStream::new(n, seed))),
                ("rel3", Box::new(RelationStream::new(n, 3, seed))),
                ("hotspot", Box::new(HotspotStream::new(n, 2, 3, seed))),
                (
                    "bursty",
                    Box::new(BurstyStream::new(n, 2 * n as usize, 4, seed)),
                ),
                ("incast", Box::new(IncastStream::new(n, n / 4, 3, seed))),
            ];
            for (family, stream) in &streams {
                for (name, cfg) in &configs {
                    let root = ft.root_capacity();
                    let tag = format!("{family} n={n} root={root} seed={seed} cfg={name}");
                    let cycles = assert_stream_matches_reference(ft, stream.as_ref(), cfg, &tag);
                    multi_cycle += (cycles > 1) as u32;
                }
            }
        }
    }
    assert!(multi_cycle >= 240, "only {multi_cycle} of 480 runs retried");
}

/// `len` messages with sources drawn by `src(j)` and uniform destinations.
fn with_sources(n: u32, len: u32, seed: u64, src: impl Fn(u32) -> u32) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|j| Message::new(src(j) % n, rng.gen_range(0..n)))
        .collect()
}

#[test]
fn order_lemma_sources_in_any_order_match_a_fresh_load_every_cycle() {
    let cfg = SimConfig::default();
    let mut retried = 0;
    for seed in 0..8u64 {
        let n = [16u32, 64, 256][seed as usize % 3];
        // Leaf capacity 1 and 2: a leaf's run admits its first `cap`
        // messages in submission order.
        let trees = [
            FatTree::universal(n, (n / 4) as u64),
            FatTree::new(n, CapacityProfile::Constant(2)),
        ];
        let sets: [(&str, MessageSet); 6] = [
            (
                "descending",
                with_sources(n, 3 * n, seed, |j| 3 * n - 1 - j),
            ),
            (
                "interleaved",
                with_sources(n, 3 * n, seed, |j| j * (n / 2 + 1)),
            ),
            ("repeated", with_sources(n, 3 * n, seed, |j| (j / 5) * 7)),
            (
                "few-sources",
                with_sources(n, 2 * n, seed, |j| (j % 3) * (n / 3)),
            ),
            (
                "bursty",
                BurstyStream::new(n, 3 * n as usize, 4, seed).collect_set(),
            ),
            ("incast", IncastStream::new(n, n / 2, 3, seed).collect_set()),
        ];
        for ft in &trees {
            for (name, set) in &sets {
                let tag = format!("{name} n={n} root={} seed={seed}", ft.root_capacity());
                // A `MessageSet` is a stream: the streamed driver keeps its
                // load order for the run, `run_to_completion` reloads the
                // FIFO pending set every cycle.
                retried += (assert_stream_matches_reference(ft, set, &cfg, &tag) > 1) as u32;
            }
        }
    }
    assert!(retried >= 90, "only {retried} of 96 runs retried");
}

/// The binding up levels by the definition: level `k < height` is free iff
/// every node `v` at depth `k` has `eff(up(v)) ≥ eff(up(2v)) + eff(up(2v+1))`.
fn binding_by_definition(ft: &FatTree, faults: &FaultModel) -> Vec<u32> {
    let eff = |v: u32| faults.effective_cap(ft, ChannelId::up(v));
    let free = |k: u32| {
        k < ft.height() && (1u32 << k..2 << k).all(|v| eff(v) >= eff(2 * v) + eff(2 * v + 1))
    };
    (1..=ft.height()).rev().filter(|&k| !free(k)).collect()
}

#[test]
fn free_level_lemma_skipped_levels_change_nothing_and_loads_stay_exact() {
    let n = 64u32;
    let none = FaultModel::none();
    let faulty = FaultModel {
        dead_wire_fraction: 0.3,
        seed: 11,
    };
    // Levels 5, 3 and 1 double the capacity beneath them (free); 4 and 2
    // do not (binding); the leaf level always binds.
    let alternating = CapacityProfile::PerLevel(vec![16, 16, 8, 6, 3, 2, 1]);
    let cases: [(&str, FatTree, FaultModel, Option<&[u32]>); 6] = [
        (
            "universal",
            FatTree::universal(n, 16),
            none,
            Some(&[6, 4, 3, 2, 1]),
        ),
        (
            "doubling",
            FatTree::new(n, CapacityProfile::FullDoubling),
            none,
            Some(&[6]),
        ),
        (
            "constant",
            FatTree::new(n, CapacityProfile::Constant(2)),
            none,
            Some(&[6, 5, 4, 3, 2, 1]),
        ),
        (
            "alternating",
            FatTree::new(n, alternating),
            none,
            Some(&[6, 4, 2]),
        ),
        ("universal+faults", FatTree::universal(n, 16), faulty, None),
        // A few dead wires leave levels 4 and 2 free and break 5, 3 and 1.
        (
            "doubling+faults",
            FatTree::new(n, CapacityProfile::FullDoubling),
            FaultModel {
                dead_wire_fraction: 0.02,
                seed: 9,
            },
            Some(&[6, 5, 3, 1]),
        ),
    ];
    // The benchmark's tree: 7 of its 12 internal levels are free.
    let bench = FatTree::universal(1 << 13, 1 << 11);
    let bench_arena = SimArena::new(&bench, &SimConfig::default());
    assert_eq!(bench_arena.binding_up_levels(), [13, 5, 4, 3, 2, 1]);
    for (name, ft, faults, want_binding) in &cases {
        let cfg = SimConfig {
            faults: *faults,
            ..SimConfig::default()
        };
        let mut arena = SimArena::new(ft, &cfg);
        let binding = binding_by_definition(ft, faults);
        assert_eq!(arena.binding_up_levels(), binding, "{name}");
        if let Some(want) = want_binding {
            assert_eq!(binding, *want, "{name}");
        }
        for seed in 0..6u64 {
            let tag = format!("{name} seed={seed}");
            let stream = RelationStream::new(n, 3, seed);
            let set = stream.collect_set();
            // Nobody reads loads (binding levels only) == a recorder does
            // (every level) == the reference, on both drivers.
            let want = run_to_completion_reference(ft, &set, &cfg);
            assert_eq!(run_stream_to_completion(ft, &stream, &cfg), want, "{tag}");
            assert_eq!(run_to_completion(ft, &set, &cfg), want, "{tag}");
            let mut rec = MetricsRecorder::new();
            let recorded = run_stream_to_completion_with(ft, &stream, &cfg, &mut rec);
            assert_eq!(recorded, want, "{tag}");
            let mut rec = MetricsRecorder::new();
            assert_eq!(
                run_to_completion_with(ft, &set, &cfg, &mut rec),
                want,
                "{tag}"
            );
            assert!(want.cycles > 1, "{tag}: nothing was ever refused");
            // The public single-cycle API always fills every load.
            let mut pending: Vec<Message> = set.iter().copied().collect();
            while !pending.is_empty() {
                let want = simulate_cycle_reference(ft, &pending, &cfg);
                arena.cycle(ft, &pending, &cfg);
                for c in ft.channels() {
                    let (got, want) = (arena.channel_use().get(c), want.channel_use.get(c));
                    assert_eq!(got, want, "{tag}: channel_use {c}");
                }
                let dropped: Vec<usize> = arena
                    .dropped_indices()
                    .iter()
                    .map(|&i| i as usize)
                    .collect();
                assert_eq!(dropped, want.dropped, "{tag}");
                pending = want.dropped.iter().map(|&i| pending[i]).collect();
            }
        }
    }
}

/// The run's levels by the definition (`SimArena::run_levels`): with
/// `D_up` / `D_down` the most messages on one source / destination leaf,
/// up level `k` is visited iff it binds statically and `D_up · 2^(h − k)`
/// exceeds the smallest `eff` of the level's up channels, down level `k`
/// iff `D_down · 2^(h − k)` exceeds the smallest `eff` of its down ones.
fn run_levels_by_definition(ft: &FatTree, faults: &FaultModel, msgs: &[Message]) -> [u32; 2] {
    let h = ft.height();
    let most = |end: fn(&Message) -> u32| {
        let mut per_leaf = vec![0u64; ft.n() as usize];
        msgs.iter().for_each(|m| per_leaf[end(m) as usize] += 1);
        per_leaf.into_iter().max().unwrap_or(0)
    };
    let d = [most(|m| m.src.0), most(|m| m.dst.0)];
    let binding = binding_by_definition(ft, faults);
    let mut masks = [0u32; 2];
    for k in 1..=h {
        for (dir, chan) in [ChannelId::up, ChannelId::down].into_iter().enumerate() {
            let min_eff = (1u32 << k..2 << k)
                .map(|v| faults.effective_cap(ft, chan(v)))
                .min();
            let fillable = d[dir] << (h - k) > min_eff.unwrap();
            if fillable && (dir == 1 || binding.contains(&k)) {
                masks[dir] |= 1 << k;
            }
        }
    }
    masks
}

/// Every level the fused body can visit: `1..=height`.
fn all_levels(ft: &FatTree) -> u32 {
    (2 << ft.height()) - 2
}

/// `d` random permutations' union: every leaf sends and receives exactly
/// `d` messages. Source-major (sorted sources) or permutation-major.
fn d_regular(n: u32, d: u32, seed: u64, source_major: bool) -> MessageSet {
    let mut msgs: Vec<Message> = (0..d as u64)
        .flat_map(|i| {
            PermutationStream::new(n, seed ^ i << 8)
                .collect_set()
                .into_vec()
        })
        .collect();
    if source_major {
        msgs.sort_by_key(|m| m.src.0);
    }
    MessageSet::from_vec(msgs)
}

/// The messages of a permutation whose source passes a seeded coin, in
/// reverse source order: injective at both ends, sources unsorted.
fn injective_subset(n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let perm = PermutationStream::new(n, seed).collect_set();
    let mut msgs: Vec<Message> = perm
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0..3u32) > 0)
        .collect();
    msgs.reverse();
    MessageSet::from_vec(msgs)
}

/// The public single-cycle API reads loads, so it must visit every level:
/// cycle by cycle, the same drops and the same load on every channel as the
/// reference, until the set drains.
fn assert_cycles_fill_every_load(ft: &FatTree, cfg: &SimConfig, set: &MessageSet, tag: &str) {
    let mut arena = SimArena::new(ft, cfg);
    let mut pending: Vec<Message> = set.iter().copied().collect();
    while !pending.is_empty() {
        let want = simulate_cycle_reference(ft, &pending, cfg);
        arena.cycle(ft, &pending, cfg);
        for c in ft.channels() {
            let (got, want) = (arena.channel_use().get(c), want.channel_use.get(c));
            assert_eq!(got, want, "{tag}: channel_use {c}");
        }
        let dropped: Vec<usize> = arena
            .dropped_indices()
            .iter()
            .map(|&i| i as usize)
            .collect();
        assert_eq!(dropped, want.dropped, "{tag}");
        pending = want.dropped.iter().map(|&i| pending[i]).collect();
    }
}

/// One run-level case: the masks equal their definition (and, where the
/// case says so, free something the static list does not, or nothing),
/// and both drivers, with and without a recorder, and the single-cycle API
/// reproduce the reference.
fn assert_run_level_case(
    ft: &FatTree,
    faults: FaultModel,
    set: &MessageSet,
    tag: &str,
) -> [u32; 2] {
    let cfg = SimConfig {
        faults,
        ..SimConfig::default()
    };
    let want_levels = run_levels_by_definition(ft, &faults, set.as_slice());
    let mut arena = SimArena::new(ft, &cfg);
    assert_eq!(arena.run_levels(ft, set), want_levels, "{tag}: run levels");
    let want = run_to_completion_reference(ft, set, &cfg);
    assert_eq!(
        run_stream_to_completion(ft, set, &cfg),
        want,
        "{tag}: streamed"
    );
    assert_eq!(
        run_to_completion(ft, set, &cfg),
        want,
        "{tag}: materialized"
    );
    let mut rec = MetricsRecorder::new();
    assert_eq!(
        run_stream_to_completion_with(ft, set, &cfg, &mut rec),
        want,
        "{tag}: recorded"
    );
    assert_cycles_fill_every_load(ft, &cfg, set, tag);
    want_levels
}

#[test]
fn run_level_lemma_masks_match_their_definition_and_runs_match_the_reference() {
    let none = FaultModel::none();
    // Root capacity d·n/2: a ∛4 crossover near the root, d wires per leaf.
    let degree = |n: u32, d: u64| {
        FatTree::new(
            n,
            CapacityProfile::UniversalWithDegree {
                root_capacity: d * n as u64 / 2,
                degree: d,
            },
        )
    };
    let mut retried = 0;
    for seed in 0..4u64 {
        for n in [64u32, 256] {
            let universal = FatTree::universal(n, n as u64 / 4);
            let static_up = binding_by_definition(&universal, &none)
                .iter()
                .fold(0u32, |m, &k| m | 1 << k);
            let tag = |what: &str| format!("{what} n={n} seed={seed}");
            let runs = [
                ("perm", PermutationStream::new(n, seed).collect_set()),
                ("injective", injective_subset(n, seed)),
            ];
            for (what, set) in &runs {
                // D = 1 frees the leaf level going up (it binds statically)
                // and every doubling level coming down.
                let [up, down] = assert_run_level_case(&universal, none, set, &tag(what));
                assert_eq!(up, static_up & !(1 << universal.height()), "{}", tag(what));
                assert_ne!(down, all_levels(&universal), "{}", tag(what));
            }
            // A random 2-relation piles ≥ 2 messages on some destination,
            // past the most any level admits per leaf: nothing is freed.
            let rel2 = RelationStream::new(n, 2, seed).collect_set();
            let levels = assert_run_level_case(&universal, none, &rel2, &tag("rel2"));
            assert_eq!(
                levels,
                [static_up, all_levels(&universal)],
                "{}",
                tag("rel2")
            );
            // Degree-d trees give every leaf d wires: a D ≤ d run frees the
            // doubling levels at both ends, D > d frees nothing more.
            for (d, big) in [(2u64, 2u32), (4, 4), (4, 2), (2, 4)] {
                let ft = degree(n, d);
                for source_major in [true, false] {
                    let set = d_regular(n, big, seed, source_major);
                    let what = format!("degree {d}, D = {big}, source-major {source_major}");
                    let [up, down] = assert_run_level_case(&ft, none, &set, &tag(&what));
                    let freed = big as u64 <= d;
                    assert_eq!(down != all_levels(&ft), freed, "{}", tag(&what));
                    assert_eq!(up & 1 << ft.height() == 0, freed, "{}", tag(&what));
                    retried +=
                        (run_to_completion(&ft, &set, &SimConfig::default()).cycles > 1) as u32;
                }
            }
        }
    }
    assert!(
        retried >= 16,
        "only {retried} of 64 degree-tree runs retried"
    );
}

#[test]
fn run_level_lemma_takes_a_level_minimum_over_every_node() {
    // A degree-2 tree whose leaves have 2 wires each, minus a few dead ones:
    // the first seed whose faults cut a leaf other than the first to one
    // wire makes the leaf level bind for a D = 2 run — through a node its
    // first channel does not show.
    let n = 256u32;
    let ft = FatTree::new(
        n,
        CapacityProfile::UniversalWithDegree {
            root_capacity: n as u64 / 2,
            degree: 2,
        },
    );
    let leaf_effs = |f: &FaultModel, chan: fn(u32) -> ChannelId| -> Vec<u64> {
        (n..2 * n).map(|v| f.effective_cap(&ft, chan(v))).collect()
    };
    let faults = (0..64u64)
        .map(|seed| FaultModel {
            dead_wire_fraction: 0.02,
            seed,
        })
        .find(|f| {
            [ChannelId::up, ChannelId::down].into_iter().all(|chan| {
                let effs = leaf_effs(f, chan);
                effs[0] == 2 && effs.contains(&1)
            })
        })
        .expect("a fault seed within 64 that cuts a later leaf at both ends");
    for source_major in [true, false] {
        for seed in 0..3u64 {
            let set = d_regular(n, 2, seed, source_major);
            let tag = format!("seed={seed} source-major {source_major}");
            let [up, down] = assert_run_level_case(&ft, faults, &set, &tag);
            assert_ne!(up & 1 << ft.height(), 0, "{tag}: leaf level freed going up");
            assert_ne!(
                down & 1 << ft.height(),
                0,
                "{tag}: leaf level freed coming down"
            );
            // Healthy, the same run frees the leaf level at both ends.
            let [up, down] = assert_run_level_case(&ft, FaultModel::none(), &set, &tag);
            assert_eq!((up | down) & 1 << ft.height(), 0, "{tag}: healthy");
        }
    }
}

#[test]
fn run_levels_differ_by_end_when_the_ends_differ() {
    // Each end gets its own mask: sources and destinations are loaded
    // differently (sorted runs or the counting sort, a capped count).
    let n = 64u32;
    let ft = FatTree::universal(n, 16);
    let sets: [(&str, MessageSet); 3] = [
        // D_up = 2, D_down = 1: the leaf level binds going up only.
        ("fan-out", (0..n).map(|j| Message::new(j / 2, j)).collect()),
        // D_up = 1, D_down = 2: every level binds coming down.
        ("fan-in", (0..n).map(|j| Message::new(j, j / 2)).collect()),
        ("hot spot", (1..n).map(|s| Message::new(s, 0)).collect()),
    ];
    for (what, set) in &sets {
        let [up, down] = assert_run_level_case(&ft, FaultModel::none(), set, what);
        assert_ne!(up, down, "{what}");
    }
}

/// Which cycle each engine phase was reported in.
#[derive(Default)]
struct PhaseLog {
    cycle: u32,
    seen: Vec<(u32, EnginePhase)>,
}

impl Recorder for PhaseLog {
    fn cycle_start(&mut self, cycle: u32, _live: u32) {
        self.cycle = cycle;
    }
    fn engine_phase(&mut self, phase: EnginePhase, _ns: u64) {
        self.seen.push((self.cycle, phase));
    }
}

#[test]
fn streamed_fused_run_sorts_by_source_in_cycle_zero_only() {
    let n = 64u32;
    let ft = FatTree::universal(n, 16);
    // Descending sources: the load-time sort has work to do.
    let set = with_sources(n, 3 * n, 5, |j| 3 * n - 1 - j);
    let mut log = PhaseLog::default();
    let run = run_stream_to_completion_with(&ft, &set, &SimConfig::default(), &mut log);
    assert!(run.cycles > 2);
    let cycles_of = |phase| -> Vec<u32> {
        let of_phase = log.seen.iter().filter(|(_, p)| *p == phase);
        of_phase.map(|&(c, _)| c).collect()
    };
    assert_eq!(cycles_of(EnginePhase::SourceSort), [0]);
    assert_eq!(cycles_of(EnginePhase::Ingest), [0]);
    let every_cycle: Vec<u32> = (0..run.cycles as u32).collect();
    for phase in [
        EnginePhase::UpSweep,
        EnginePhase::DownSweep,
        EnginePhase::Settle,
        EnginePhase::Compaction,
    ] {
        assert_eq!(cycles_of(phase), every_cycle, "{phase:?}");
    }
}

#[test]
fn default_body_runs_fused_on_a_tree_taller_than_2_to_the_20() {
    // Height 21: every leaf heap id sets bit 21, bit 28 of the fused word,
    // which no tree of height ≤ 20 reaches. Random sources, two messages
    // into each of 1 024
    // destinations: a destination's single leaf wire takes one per cycle,
    // so the run retries. (A recorded cycle walks all 2^23 channels, hence
    // only two.)
    let n = 1u32 << 21;
    let ft = FatTree::universal(n, (n / 4) as u64);
    let mut rng = SplitMix64::seed_from_u64(21);
    let set: MessageSet = (0..2048u32)
        .map(|j| Message::new(rng.gen_range(0..n), j % 1024 * (n / 1024)))
        .collect();
    let base = SimConfig::default();
    let mut log = PhaseLog::default();
    let run = run_to_completion_with(&ft, &set, &base, &mut log);
    assert_eq!(run.cycles, 2);
    let sorts = log
        .seen
        .iter()
        .filter(|(_, p)| *p == EnginePhase::SourceSort);
    assert_eq!(sorts.count(), 1, "the default config took the level passes");
    assert_eq!(run, run_to_completion(&ft, &set, &base));
    let wide = SimConfig {
        meta: MetaWidth::Wide,
        ..base
    };
    assert_eq!(run, run_to_completion(&ft, &set, &wide));
    assert_eq!(run, run_to_completion_reference(&ft, &set, &base));
}

/// A stream that only claims to be long: `message` is never reached.
struct Endless(usize);

impl MessageStream for Endless {
    fn len(&self) -> usize {
        self.0
    }
    fn family(&self) -> &'static str {
        "endless"
    }
    fn message(&self, _j: usize) -> Message {
        unreachable!("a refused stream is never read")
    }
}

#[test]
#[cfg(target_pointer_width = "64")]
fn streams_longer_than_u32_indices_are_refused_before_any_allocation() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // 2³² + 5 messages used to be truncated to 5 by `as u32` — after a
    // `Vec::with_capacity` of the full length.
    let ft = FatTree::universal(16, 4);
    let long = Endless(fat_tree::sim::MAX_MESSAGES + 6);
    for meta in [MetaWidth::Auto, MetaWidth::Wide] {
        let cfg = SimConfig {
            meta,
            ..SimConfig::default()
        };
        let run = || drop(run_stream_to_completion(&ft, &long, &cfg));
        let cycle = || {
            SimArena::new(&ft, &cfg).cycle_stream(&ft, &long, &cfg);
        };
        for outcome in [
            catch_unwind(AssertUnwindSafe(run)),
            catch_unwind(AssertUnwindSafe(cycle)),
        ] {
            let panic = outcome.expect_err("accepted 2^32 + 5 messages");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains("4294967301 messages"), "{meta:?}: {msg}");
            assert!(msg.contains("limit of 4294967295"), "{meta:?}: {msg}");
        }
    }
}
