//! Golden byte-identity tests: [`ft_sched::OnlineArena`] must reproduce the
//! clone-based reference router *exactly* — same `SplitMix64` seed, same
//! `delivered_per_cycle`, cycle for cycle — on every workload and tree
//! shape. The delivered set each cycle depends on the arbitration order, so
//! this pins far more than totals: it pins the whole process.

use ft_core::rng::SplitMix64;
use ft_core::route::for_each_path_channel;
use ft_core::{CapacityProfile, FatTree, LoadMap, Message, MessageSet};
use ft_sched::reference::route_online_reference;
use ft_sched::{OnlineArena, OnlineConfig};
use ft_telemetry::MetricsRecorder;
use ft_topology::{parse_spec, Embedded};

/// Random k-relation-ish traffic: k·n messages with uniform endpoints.
fn random_pairs(n: u32, k: u32, rng: &mut SplitMix64) -> MessageSet {
    (0..k * n)
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// Hot spot: everyone sends to processor 0.
fn hotspot(n: u32) -> MessageSet {
    (1..n).map(|i| Message::new(i, 0)).collect()
}

/// Adversarial root-crossers: every message crosses the root (left half ↔
/// right half, pairwise), k copies per pair — maximal pressure on the root
/// channels.
fn cross_root(n: u32, k: u32, rng: &mut SplitMix64) -> MessageSet {
    let half = n / 2;
    (0..k * half)
        .flat_map(|_| {
            let a = rng.gen_range(0..half);
            let b = half + rng.gen_range(0..half);
            [Message::new(a, b), Message::new(b, a)]
        })
        .collect()
}

/// The tree shapes every golden runs on. The last two reach the arena's
/// wide (`u32`) counters, which no paper-shaped tree of these sizes does:
/// top capacities above `u16::MAX`, and a non-monotone table whose wide
/// levels include a small, fillable capacity between two huge ones.
fn trees(n: u32) -> Vec<FatTree> {
    let h = n.trailing_zeros() as usize;
    let mut wide_top: Vec<u64> = (0..=h).map(|k| (n as u64) >> k).collect();
    wide_top[..3].copy_from_slice(&[1 << 20, 100_000, 65_536]);
    let mut mixed = vec![2u64; h + 1];
    (mixed[1], mixed[3], mixed[h]) = (70_000, 80_000, 1);
    vec![
        FatTree::universal(n, (n as u64 / 4).max(1)),
        FatTree::new(n, CapacityProfile::Constant(1)),
        FatTree::new(n, CapacityProfile::FullDoubling),
        FatTree::new(n, CapacityProfile::PerLevel(wide_top)),
        FatTree::from_level_caps(n, mixed),
    ]
}

/// Assert the arena matches the reference for the given config.
fn assert_golden(
    ft: &FatTree,
    m: &MessageSet,
    arena: &mut OnlineArena,
    cfg: OnlineConfig,
    seed: u64,
) {
    let golden = route_online_reference(ft, m, &mut SplitMix64::seed_from_u64(seed), cfg);
    let got = arena.route(ft, m, &mut SplitMix64::seed_from_u64(seed), cfg);
    let tag = format!(
        "n={} max_cycles={} msgs={}",
        ft.n(),
        cfg.max_cycles,
        m.len()
    );
    assert_eq!(
        got.delivered_per_cycle, golden.delivered_per_cycle,
        "delivered_per_cycle diverged [{tag}]"
    );
    assert_eq!(got.cycles, golden.cycles, "cycles diverged [{tag}]");
    assert_eq!(
        got.truncated, golden.truncated,
        "truncated diverged [{tag}]"
    );
}

#[test]
fn byte_identity_across_workloads_and_trees() {
    let mut wrng = SplitMix64::seed_from_u64(0x601D);
    for n in [16u32, 64, 256] {
        for ft in trees(n) {
            let mut arena = OnlineArena::new(&ft);
            let workloads = [
                random_pairs(n, 1, &mut wrng),
                random_pairs(n, 4, &mut wrng),
                hotspot(n),
                cross_root(n, 2, &mut wrng),
            ];
            for (wi, m) in workloads.iter().enumerate() {
                assert_golden(
                    &ft,
                    m,
                    &mut arena,
                    OnlineConfig::default(),
                    0xFEED ^ (wi as u64) << 8 ^ n as u64,
                );
            }
        }
    }
}

#[test]
fn byte_identity_with_recorder() {
    let mut wrng = SplitMix64::seed_from_u64(0xC0DE);
    let n = 128u32;
    for ft in trees(n) {
        let mut arena = OnlineArena::new(&ft);
        for m in [random_pairs(n, 2, &mut wrng), cross_root(n, 1, &mut wrng)] {
            // A metrics recorder attached must not perturb outcomes.
            let cfg = OnlineConfig::default();
            let seed = 0xB0A7 ^ n as u64;
            let golden = route_online_reference(&ft, &m, &mut SplitMix64::seed_from_u64(seed), cfg);
            let mut rec = MetricsRecorder::new();
            let got =
                arena.route_with(&ft, &m, &mut SplitMix64::seed_from_u64(seed), cfg, &mut rec);
            assert_eq!(
                got.delivered_per_cycle, golden.delivered_per_cycle,
                "recorder perturbed outcomes"
            );
            assert_eq!(got.truncated, golden.truncated);
            assert_eq!(rec.cycles as usize, got.cycles);
        }
    }
}

#[test]
fn byte_identity_under_truncation() {
    let n = 64u32;
    let ft = FatTree::new(n, CapacityProfile::Constant(1));
    let mut arena = OnlineArena::new(&ft);
    let m = hotspot(n);
    for max_cycles in [1usize, 2, 7] {
        assert_golden(&ft, &m, &mut arena, OnlineConfig { max_cycles }, 0x7126);
    }
}

/// Per-(cycle, level) `[claimed, blocked, wasted]` as `wire_claims`
/// reports them, in call order.
#[derive(Default)]
struct ClaimLog(Vec<(u32, u32, [u64; 3])>);

impl ft_telemetry::Recorder for ClaimLog {
    const ENABLED: bool = true;
    fn wire_claims(&mut self, cycle: u32, level: u32, claimed: u64, blocked: u64, wasted: u64) {
        self.0.push((cycle, level, [claimed, blocked, wasted]));
    }
}

/// The contention counts of the on-line process, replayed the slow way:
/// `route_online_reference`'s loop (the same `SplitMix64` shuffle of the
/// same `Vec<Message>` each cycle), with every message walking its path on
/// a fresh per-cycle [`LoadMap`]. A granted claim counts at its channel's
/// level; the channel that drops a message counts one block at its level;
/// every grant of a dropped message also counts as wasted. Nonzero
/// (cycle, level) rows only, levels ascending within a cycle.
fn replay_claims(
    ft: &FatTree,
    m: &MessageSet,
    seed: u64,
    cfg: OnlineConfig,
) -> Vec<(u32, u32, [u64; 3])> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut alive: Vec<Message> = m.iter().copied().filter(|m| !m.is_local()).collect();
    let mut rows = Vec::new();
    let mut cycle = 0u32;
    while !alive.is_empty() && (cfg.max_cycles == 0 || (cycle as usize) < cfg.max_cycles) {
        rng.shuffle(&mut alive);
        let mut used = LoadMap::zeros(ft);
        let mut per_level = vec![[0u64; 3]; ft.height() as usize + 1];
        alive.retain(|msg| {
            let mut granted = Vec::new();
            let mut blocked_at = None;
            for_each_path_channel(ft, msg, |c| {
                if blocked_at.is_some() {
                    return;
                }
                if used.get(c) < ft.cap(c) {
                    used.add_one(c);
                    granted.push(c.level() as usize);
                } else {
                    blocked_at = Some(c.level() as usize);
                }
            });
            for &l in &granted {
                per_level[l][0] += 1;
                per_level[l][2] += u64::from(blocked_at.is_some());
            }
            if let Some(l) = blocked_at {
                per_level[l][1] += 1;
            }
            blocked_at.is_some()
        });
        for (l, &counts) in per_level.iter().enumerate() {
            if counts != [0; 3] {
                rows.push((cycle, l as u32, counts));
            }
        }
        cycle += 1;
    }
    rows
}

/// Pin the arena's per-(cycle, level) claimed / blocked / wasted, and
/// `MetricsRecorder`'s per-level totals, to [`replay_claims`] — on both
/// counter widths, hot spots, locals, a non-monotone embedding and a run
/// cut short by the valve.
#[test]
fn contention_counts_match_a_brute_force_replay() {
    let mut wrng = SplitMix64::seed_from_u64(0xA77B);
    let n = 128u32;
    let mut cases: Vec<(String, FatTree, MessageSet, OnlineConfig)> = Vec::new();
    let full = OnlineConfig::default();
    // Every tree of `trees`, the last two of which run the wide counters
    // (levels above `u16::MAX`), under random traffic with locals mixed in.
    for (i, ft) in trees(n).into_iter().enumerate() {
        let mut m = random_pairs(n, 2, &mut wrng);
        for p in (0..n).step_by(9) {
            m.push(Message::new(p, p));
        }
        cases.push((format!("tree {i} 2-relation + locals"), ft, m, full));
    }
    cases.push((
        "universal hot spot".into(),
        FatTree::universal(n, 32),
        hotspot(n),
        full,
    ));
    cases.push((
        "unit hot spot, max_cycles 3".into(),
        FatTree::new(n, CapacityProfile::Constant(1)),
        hotspot(n),
        OnlineConfig { max_cycles: 3 },
    ));
    cases.push((
        "universal cross-root, max_cycles 2".into(),
        FatTree::universal(n, 32),
        cross_root(n, 2, &mut wrng),
        OnlineConfig { max_cycles: 2 },
    ));
    // The non-monotone switch-internal capacities of a padded k-ary tree.
    let emb = Embedded::new(parse_spec("kary:k=24,over=2").unwrap());
    let real = random_pairs(emb.leaves(), 2, &mut wrng);
    cases.push((
        "kary:k=24,over=2 2-relation".into(),
        emb.tree().clone(),
        emb.map_set(&real),
        full,
    ));

    for (tag, ft, m, cfg) in &cases {
        let seed = 0x5EED ^ m.len() as u64;
        let want = replay_claims(ft, m, seed, *cfg);
        assert!(
            want.iter().any(|&(_, _, [_, b, _])| b > 0),
            "{tag}: no contention, nothing pinned"
        );
        let mut arena = OnlineArena::new(ft);
        let mut log = ClaimLog::default();
        arena.run_with(ft, m, &mut SplitMix64::seed_from_u64(seed), *cfg, &mut log);
        assert_eq!(log.0, want, "{tag}: per-(cycle, level) counts");

        let mut rec = MetricsRecorder::new();
        arena.run_with(ft, m, &mut SplitMix64::seed_from_u64(seed), *cfg, &mut rec);
        let levels = ft.height() as usize + 1;
        let mut totals = vec![[0u64; 3]; levels];
        for &(_, l, [c, b, w]) in &want {
            let t = &mut totals[l as usize];
            (t[0], t[1], t[2]) = (t[0] + c, t[1] + b, t[2] + w);
        }
        for (l, t) in totals.iter().enumerate() {
            let got = [rec.claimed[l], rec.blocked[l], rec.wasted[l]];
            assert_eq!(got, *t, "{tag}: MetricsRecorder totals at level {l}");
        }
    }
}
