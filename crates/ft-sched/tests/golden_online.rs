//! Golden byte-identity tests: [`ft_sched::OnlineArena`] must reproduce the
//! clone-based reference router *exactly* — same `SplitMix64` seed, same
//! `delivered_per_cycle`, cycle for cycle — on every workload and tree
//! shape. The delivered set each cycle depends on the arbitration order, so
//! this pins far more than totals: it pins the whole process.

use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, Message, MessageSet};
use ft_sched::reference::route_online_reference;
use ft_sched::{OnlineArena, OnlineConfig};
use ft_telemetry::MetricsRecorder;

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
