//! `shard_run` — one op is one `ft_shard::run_sharded` of a materialised
//! random 2-relation at n = 2¹⁴ over two in-process shards, wide metadata.
//!
//! Why: ft-shard's coordinator and barrier dominate, and the run uses
//! ft-sim *differently* from `sim_stream` — wide metadata, generation-table
//! arbitration, `shard_up/top/down` — so an engine change that helps the
//! narrow streamed path at the wide path's expense shows here.

use super::sim_stream::{fp_run, is_permutation};
use super::{med_self_us, med_us, min_us, pool_seed, Batch};
use crate::consts::{LAT_PCT, SHARDS, SHARD_N, WARMUP_SHARD_RUN};
use crate::stats::{median, percentile_ns};
use crate::trace::{Span, Tracer, NO_PARENT};
use ft_core::{FatTree, MessageSet, MessageStream};
use ft_shard::{run_sharded, ShardConfig, ShardRunReport, ShardRunStats};
use ft_sim::{run_to_completion, MetaWidth, SimConfig};
use ft_workloads::RelationStream;

pub struct ShardRun {
    ft: FatTree,
    cfg: ShardConfig,
    inputs: Vec<MessageSet>,
    /// Stats of every traced op, in op order.
    stats: Vec<ShardRunStats>,
}

impl Batch for ShardRun {
    /// `Err` carries the structured error's text: a failed op, not a panic.
    type Out = Result<ShardRunReport, String>;
    const WARMUP: usize = WARMUP_SHARD_RUN;

    fn setup(seed: u64, inputs: usize, tr: &mut Tracer) -> Self {
        let t = tr.now();
        let ft = FatTree::universal(SHARD_N, (SHARD_N / 4) as u64);
        tr.leaf("core.tree_build", t, NO_PARENT, 0);
        let sim = SimConfig {
            meta: MetaWidth::Wide,
            ..SimConfig::default()
        };
        let inputs = (0..inputs)
            .map(|j| RelationStream::new(SHARD_N, 2, pool_seed(seed, j)).collect_set())
            .collect();
        ShardRun {
            ft,
            cfg: ShardConfig::new(SHARDS, sim),
            inputs,
            stats: Vec::new(),
        }
    }

    fn msgs_per_op(&self) -> u64 {
        self.inputs[0].len() as u64
    }

    fn run(&mut self, input: usize, tr: &mut Tracer, parent: i64, op: u32) -> Self::Out {
        let t = tr.now();
        let out = run_sharded(&self.ft, &self.inputs[input], &self.cfg).map_err(|e| e.to_string());
        if let (true, Ok(r)) = (tr.on(), &out) {
            // The coordinator reports durations, not intervals: lay its
            // three phases end to end from the op's start so the span
            // arithmetic (self time = what they leave uncovered) applies.
            let mut at = t;
            for (name, ns) in [
                ("shard.barrier_wait", r.stats.barrier_wait_ns),
                ("shard.merge", r.stats.merge_ns),
                ("shard.top", r.stats.top_ns),
            ] {
                tr.push(name, at, at + ns, parent, op);
                at += ns;
            }
            self.stats.push(r.stats.clone());
        }
        out
    }

    fn fingerprint(out: &Self::Out) -> u64 {
        out.as_ref().map_or(0, |r| fp_run(&r.run))
    }

    fn cycles(out: &Self::Out) -> u64 {
        out.as_ref().map_or(0, |r| r.run.cycles as u64)
    }

    fn check(&mut self, input: usize, out: &Self::Out) -> Result<(), String> {
        let got = out.as_ref().map_err(String::clone)?;
        let set = &self.inputs[input];
        if !is_permutation(&got.run.delivery_order, set.len()) {
            return Err("delivery order is not a permutation".to_string());
        }
        if got.run != run_to_completion(&self.ft, set, &self.cfg.sim) {
            return Err("sharded report differs from run_to_completion".to_string());
        }
        Ok(())
    }

    fn span_metrics(&self, spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        let med = |f: &dyn Fn(&ShardRunStats) -> f64| {
            median(&self.stats.iter().map(f).collect::<Vec<_>>())
        };
        let max_us = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64 / 1e3;
        put("core.tree_build_us", med_us(spans, "core.tree_build"));
        put("shard.barrier_wait_us", med_us(spans, "shard.barrier_wait"));
        put("shard.merge_us", med_us(spans, "shard.merge"));
        put("shard.top_us", med_us(spans, "shard.top"));
        put("shard.other_us", med_self_us(spans, "op"));
        put("shard.up_us_max", med(&|s| max_us(&s.shard_up_ns)));
        put("shard.down_us_max", med(&|s| max_us(&s.shard_down_ns)));
        // run_sharded waits for every shard, so the slowest sets the pace.
        put(
            "shard.critical_path_us",
            med(&|s| {
                let slowest = s
                    .shard_up_ns
                    .iter()
                    .zip(&s.shard_down_ns)
                    .map(|(u, d)| u + d)
                    .max()
                    .unwrap_or(0);
                (slowest + s.merge_ns + s.top_ns) as f64 / 1e3
            }),
        );
        put(
            "shard.frames_per_op",
            med(&|s| (s.frames_sent + s.frames_received) as f64),
        );
        put(
            "shard.wire_kib_per_op",
            med(&|s| (s.words_sent + s.words_received) as f64 * 8.0 / 1024.0),
        );
        put(
            "shard.retries",
            self.stats.iter().map(|s| s.retries).sum::<u64>() as f64,
        );
    }

    fn extra_metrics(&mut self, spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        // The computation the shards distribute, on one arena.
        let single_us = min_us(5, || {
            run_to_completion(&self.ft, &self.inputs[0], &self.cfg.sim)
        });
        let sharded_us = percentile_ns(
            &spans
                .iter()
                .filter(|s| s.name == "op")
                .map(Span::dur_ns)
                .collect::<Vec<_>>(),
            LAT_PCT,
        ) / 1e3;
        put("sim.single_wide_us", single_us);
        put("shard.vs_single", single_us / sharded_us);
    }
}
