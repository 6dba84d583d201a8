//! # ft-shard — deterministic sharded delivery-cycle engine
//!
//! Runs the fat-tree delivery-cycle simulation (§II of the paper) as `N`
//! communicating shards, one per top-level subtree, coordinated by a
//! deterministic cross-shard barrier — and produces results **byte-identical
//! to the single-arena engine** ([`ft_sim::run_to_completion`]) for every
//! shard count and both ways of spawning the workers.
//!
//! The decomposition follows the tree: with `N = 2^k` shards, shard `s`
//! owns the subtree rooted at heap node `2^k + s`. Each delivery cycle runs
//! as three phases:
//!
//! 1. every shard simulates its own up passes (leaves → boundary) and ships
//!    the surviving root-crossers to the coordinator as *claims*;
//! 2. the coordinator merges all claims in global-id order and arbitrates
//!    the root levels in one [`ft_sim::SimArena`];
//! 3. survivors descend their destination shard, which settles the cycle
//!    and reports delivered ids.
//!
//! Determinism is an invariant, not an accident: per-channel contender sets
//! are identical to the single arena's (a shard sees exactly the messages
//! the full engine would route through its subtree), and random arbitration
//! hashes coordinator-global message ids, so outcomes cannot depend on how
//! the work is split or in which order claims arrive. `tests/shard_golden.rs`
//! enforces equality across shard counts and spawn modes.
//!
//! Shards talk through one [`Transport`] — a pair of frame queues per shard
//! — spawned one of two ways: worker threads draining the queues directly
//! ([`Transport::inproc`]), or worker *processes* on stdin/stdout pipes
//! ([`Transport::pipe`], speaking the little-endian frame encoding of
//! [`wire`]). The protocol is robust by construction — frames carry
//! checksums and sequence numbers, requests are idempotent, lost or
//! corrupted exchanges are retried with bounded backoff, and anything
//! unanswerable degrades into a structured [`ShardError`] instead of a
//! hang. [`FaultPlan`] injects deterministic drops, duplicates, bit flips,
//! and slow shards to prove it. A frame that passes its checksum is still
//! untrusted: every payload decoder ([`proto`]) and the worker behind it
//! reject what they cannot run, and neither side panics on bytes it did not
//! write (`tests/wire_bomb.rs` holds the mutation loop).
//!
//! Since protocol v2 the coordinator is an overlapped event loop rather
//! than a lock-step barrier: messages are loaded onto shards once, each
//! cycle exchanges only deltas (verdict bitmaps, id remaps, compact claim
//! descriptors), claim frames are merged as they arrive, and down-frames
//! stream out as they are encoded. In steady state the only heap
//! allocation is the link's one `Vec` per frame handed across a queue —
//! nothing per cycle or per message (`tests/alloc_steady.rs` pins this).

pub mod coordinator;
pub mod fault;
pub mod proto;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{
    run_sharded, run_sharded_with, LinkCounters, ShardConfig, ShardError, ShardRunReport,
    ShardRunStats, TransportKind,
};
pub use fault::{FaultPlan, FaultState, SendFate};
pub use transport::Transport;
pub use worker::{run_channel, run_pipe, WorkerCore};

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::{CapacityProfile, FatTree, MessageSet, SplitMix64};
    use ft_sim::{run_to_completion, Arbitration, SimConfig, SwitchKind};
    use std::time::Duration;

    fn random_msgs(n: u32, count: usize, seed: u64) -> MessageSet {
        let mut rng = SplitMix64::seed_from_u64(seed);
        MessageSet::from_vec(
            (0..count)
                .map(|_| {
                    ft_core::Message::new((rng.next_u64() % n as u64) as u32, {
                        (rng.next_u64() % n as u64) as u32
                    })
                })
                .collect(),
        )
    }

    fn configs() -> Vec<SimConfig> {
        vec![
            SimConfig::default(),
            SimConfig {
                arbitration: Arbitration::Random(11),
                ..SimConfig::default()
            },
            // Dead-wire fault models are excluded here: a dead leaf channel
            // can legitimately stall `run_to_completion` (the single-cycle
            // shard composition tests in ft-sim cover that path).
            SimConfig {
                switch: SwitchKind::Partial,
                arbitration: Arbitration::Random(3),
                ..SimConfig::default()
            },
        ]
    }

    #[test]
    fn inproc_matches_single_arena_for_every_shard_count() {
        for n in [16u32, 64] {
            let ft = FatTree::universal(n, (n / 4) as u64);
            let msgs = random_msgs(n, 3 * n as usize, 0xFACE ^ n as u64);
            for sim in configs() {
                let want = run_to_completion(&ft, &msgs, &sim);
                for shards in [1u32, 2, 4] {
                    let cfg = ShardConfig::new(shards, sim);
                    let got = run_sharded(&ft, &msgs, &cfg).unwrap();
                    assert_eq!(got.run.cycles, want.cycles, "n={n} shards={shards}");
                    assert_eq!(
                        got.run.delivered_per_cycle, want.delivered_per_cycle,
                        "n={n} shards={shards}"
                    );
                    assert_eq!(
                        got.run.delivery_order, want.delivery_order,
                        "n={n} shards={shards}"
                    );
                    assert_eq!(
                        got.run.total_ticks, want.total_ticks,
                        "n={n} shards={shards}"
                    );
                    assert_eq!(got.stats.transport, "inproc");
                    assert!(got.stats.frames_sent > 0 && got.stats.frames_received > 0);
                }
            }
        }
    }

    #[test]
    fn lossy_transport_recovers_and_stays_byte_identical() {
        let n = 32u32;
        let ft = FatTree::universal(n, 8);
        let msgs = random_msgs(n, 96, 0xBEEF);
        let sim = SimConfig {
            arbitration: Arbitration::Random(5),
            ..SimConfig::default()
        };
        let want = run_to_completion(&ft, &msgs, &sim);
        let mut cfg = ShardConfig::new(4, sim);
        cfg.faults = FaultPlan {
            drop: 0.15,
            duplicate: 0.15,
            corrupt: 0.15,
            delay_ms: 0,
            seed: 77,
        };
        cfg.timeout = Duration::from_millis(100);
        cfg.retries = 12;
        cfg.backoff = Duration::from_millis(1);
        let got = run_sharded(&ft, &msgs, &cfg).unwrap();
        assert_eq!(got.run.delivered_per_cycle, want.delivered_per_cycle);
        assert_eq!(got.run.delivery_order, want.delivery_order);
        assert!(
            got.stats.retries > 0 || got.stats.checksum_rejects > 0 || got.stats.duplicates > 0,
            "fault plan injected nothing: {:?}",
            got.stats
        );
    }

    #[test]
    fn dead_link_degrades_to_structured_timeout() {
        let n = 16u32;
        let ft = FatTree::universal(n, 4);
        let msgs = random_msgs(n, 16, 1);
        let mut cfg = ShardConfig::new(2, SimConfig::default());
        cfg.faults = FaultPlan {
            drop: 1.0,
            ..FaultPlan::none()
        };
        cfg.timeout = Duration::from_millis(20);
        cfg.retries = 2;
        cfg.backoff = Duration::from_millis(1);
        let err = run_sharded(&ft, &msgs, &cfg).unwrap_err();
        match err {
            ShardError::Timeout {
                shard, attempts, ..
            } => {
                assert_eq!(shard, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn invalid_shard_counts_are_rejected() {
        let ft = FatTree::universal(16, 4);
        let msgs = random_msgs(16, 8, 2);
        for shards in [0u32, 3, 6] {
            let err = run_sharded(&ft, &msgs, &ShardConfig::new(shards, SimConfig::default()))
                .unwrap_err();
            assert_eq!(err.kind(), "bad_config", "shards={shards}");
        }
        // More shards than top-level subtrees.
        let err = run_sharded(&ft, &msgs, &ShardConfig::new(64, SimConfig::default())).unwrap_err();
        assert_eq!(err.kind(), "bad_config");
    }

    #[test]
    fn full_doubling_and_constant_profiles_shard_identically() {
        for profile in [CapacityProfile::FullDoubling, CapacityProfile::Constant(2)] {
            let ft = FatTree::new(32, profile);
            let msgs = random_msgs(32, 64, 0xD00D);
            let sim = SimConfig {
                arbitration: Arbitration::Random(21),
                ..SimConfig::default()
            };
            let want = run_to_completion(&ft, &msgs, &sim);
            let got = run_sharded(&ft, &msgs, &ShardConfig::new(4, sim)).unwrap();
            assert_eq!(got.run.delivered_per_cycle, want.delivered_per_cycle);
            assert_eq!(got.run.delivery_order, want.delivery_order);
        }
    }
}
