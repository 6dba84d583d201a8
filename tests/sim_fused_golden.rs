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

use fat_tree::prelude::*;
use fat_tree::sim::reference::run_to_completion_reference;
use fat_tree::sim::{Arbitration, MetaWidth};
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
