//! Golden equivalence for the sharded engine: `delivered_per_cycle`,
//! `delivery_order`, cycle count, and total ticks must be byte-identical to
//! the single-arena engine for every shard count and both spawn modes of
//! the link — worker threads, and real worker *processes* reached over
//! pipes (the `ftsim shard-worker` binary, located via
//! `CARGO_BIN_EXE_ftsim`) — with and without injected frame faults.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::shard::{run_sharded, FaultPlan, ShardConfig, ShardRunReport, TransportKind};
use fat_tree::sim::Arbitration;
use fat_tree::workloads;
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_ftsim").to_string(),
        "shard-worker".to_string(),
    ]
}

fn seeded_workloads(n: u32) -> Vec<(&'static str, MessageSet)> {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_1985);
    vec![
        ("random2", workloads::balanced_k_relation(n, 2, &mut rng)),
        ("transpose", workloads::transpose(n)),
        ("local", workloads::local_traffic(n, 2, 0.3, &mut rng)),
    ]
}

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("slot", SimConfig::default()),
        (
            "random-arb",
            SimConfig {
                arbitration: Arbitration::Random(1985),
                ..SimConfig::default()
            },
        ),
    ]
}

fn assert_identical(got: &ShardRunReport, want: &fat_tree::sim::RunReport, tag: &str) {
    assert_eq!(got.run.cycles, want.cycles, "{tag}");
    assert_eq!(
        got.run.delivered_per_cycle, want.delivered_per_cycle,
        "{tag}"
    );
    assert_eq!(got.run.delivery_order, want.delivery_order, "{tag}");
    assert_eq!(got.run.total_ticks, want.total_ticks, "{tag}");
}

#[test]
fn sharded_runs_are_byte_identical_across_shard_counts_and_transports() {
    let n = 64u32;
    let ft = FatTree::universal(n, 16);
    for (wname, msgs) in seeded_workloads(n) {
        for (cname, sim) in configs() {
            let want = run_to_completion(&ft, &msgs, &sim);
            for shards in [1u32, 2, 4, 8] {
                for transport in [
                    TransportKind::InProcess,
                    TransportKind::Pipe { cmd: worker_cmd() },
                ] {
                    let mut cfg = ShardConfig::new(shards, sim);
                    cfg.transport = transport;
                    let got = run_sharded(&ft, &msgs, &cfg)
                        .unwrap_or_else(|e| panic!("{wname}/{cname}/shards={shards} failed: {e}"));
                    let tag = format!("{wname}/{cname}/shards={shards}/{}", got.stats.transport);
                    assert_identical(&got, &want, &tag);
                }
            }
        }
    }
}

/// Every shard count × {inproc, pipe} under one seeded schedule of drops,
/// duplicates, corruption, and delay. The protocol must absorb all of it —
/// retransmits, replay-cache hits, checksum rejects — without perturbing a
/// single byte of the result.
#[test]
fn fault_schedules_stay_byte_identical_for_every_shard_count() {
    let n = 32u32;
    let ft = FatTree::universal(n, 8);
    let mut rng = SplitMix64::seed_from_u64(77);
    let msgs = workloads::balanced_k_relation(n, 2, &mut rng);
    let sim = SimConfig {
        arbitration: Arbitration::Random(7),
        ..SimConfig::default()
    };
    let want = run_to_completion(&ft, &msgs, &sim);
    for shards in [1u32, 2, 4, 8] {
        for transport in [
            TransportKind::InProcess,
            TransportKind::Pipe { cmd: worker_cmd() },
        ] {
            let mut cfg = ShardConfig::new(shards, sim);
            cfg.transport = transport;
            cfg.faults = FaultPlan {
                drop: 0.08,
                duplicate: 0.08,
                corrupt: 0.08,
                delay_ms: 1,
                seed: 3,
            };
            cfg.timeout = Duration::from_millis(200);
            cfg.retries = 12;
            cfg.backoff = Duration::from_millis(1);
            let got = run_sharded(&ft, &msgs, &cfg)
                .unwrap_or_else(|e| panic!("faulted shards={shards} run must recover: {e}"));
            let tag = format!("faulted/shards={shards}/{}", got.stats.transport);
            assert_identical(&got, &want, &tag);
        }
    }
}

#[test]
fn pipe_transport_survives_injected_faults_byte_identically() {
    let n = 32u32;
    let ft = FatTree::universal(n, 8);
    let mut rng = SplitMix64::seed_from_u64(77);
    let msgs = workloads::balanced_k_relation(n, 2, &mut rng);
    let sim = SimConfig {
        arbitration: Arbitration::Random(7),
        ..SimConfig::default()
    };
    let want = run_to_completion(&ft, &msgs, &sim);
    let mut cfg = ShardConfig::new(2, sim);
    cfg.transport = TransportKind::Pipe { cmd: worker_cmd() };
    cfg.faults = FaultPlan {
        drop: 0.1,
        duplicate: 0.1,
        corrupt: 0.1,
        delay_ms: 0,
        seed: 3,
    };
    cfg.timeout = Duration::from_millis(200);
    cfg.retries = 10;
    cfg.backoff = Duration::from_millis(1);
    let got = run_sharded(&ft, &msgs, &cfg).expect("lossy pipe run must recover");
    assert_eq!(got.run.delivered_per_cycle, want.delivered_per_cycle);
    assert_eq!(got.run.delivery_order, want.delivery_order);
    assert_eq!(got.run.total_ticks, want.total_ticks);
}
