//! `sim_stream` — one op is a round {random permutation, random
//! 2-relation} at n = 2¹⁵ on the universal fat-tree, each streamed through
//! `ft_sim::run_stream_to_completion` under the default config.
//!
//! Why: ft-sim's streamed narrow-metadata path (ingest sort, fused up
//! sweep, retry + compaction) and ft-workloads' generators do nearly all
//! the work; ft-sched, ft-shard and ft-serve do none.

use super::{med_self_us, med_us, min_us, on_off_ratio, pool_seed, time_us, Batch};
use crate::consts::{BIG_N, BIG_RUNS, SIM_N, WARMUP_SIM_STREAM};
use crate::stats::{fnv, FNV_INIT};
use crate::trace::{Span, Tracer, NO_PARENT};
use ft_core::{load_factor, FatTree, MessageStream};
use ft_sim::{
    run_stream_to_completion, run_stream_to_completion_with, run_to_completion, RunReport,
    SimArena, SimConfig,
};
use ft_telemetry::MetricsRecorder;
use ft_workloads::{PermutationStream, RelationStream};

pub struct SimStream {
    ft: FatTree,
    cfg: SimConfig,
    seed: u64,
    inputs: Vec<(PermutationStream, RelationStream)>,
}

/// Fingerprint of a run: cycles, ticks, per-cycle delivery counts and the
/// delivery order.
pub fn fp_run(r: &RunReport) -> u64 {
    let mut h = fnv(fnv(FNV_INIT, r.cycles as u64), r.total_ticks);
    for &d in &r.delivered_per_cycle {
        h = fnv(h, d as u64);
    }
    for &i in &r.delivery_order {
        h = fnv(h, i as u64);
    }
    h
}

/// The delivery order must name every message exactly once.
pub fn is_permutation(order: &[usize], len: usize) -> bool {
    let mut seen = vec![false; len];
    order.len() == len
        && order
            .iter()
            .all(|&i| i < len && !std::mem::replace(&mut seen[i], true))
}

/// Injection attempts of a run: every cycle re-injects what is still
/// pending.
pub fn attempts(total: u64, delivered_per_cycle: impl IntoIterator<Item = u64>) -> u64 {
    let mut pending = total;
    let mut sum = 0;
    for d in delivered_per_cycle {
        sum += pending;
        pending -= d;
    }
    sum
}

/// One drained pass over a stream, ns per message.
pub fn gen_ns_per_msg(s: &dyn MessageStream) -> f64 {
    let us = min_us(3, || {
        for j in 0..s.len() {
            std::hint::black_box(s.message(j));
        }
    });
    us * 1e3 / s.len() as f64
}

impl Batch for SimStream {
    type Out = (RunReport, RunReport);
    const WARMUP: usize = WARMUP_SIM_STREAM;

    fn setup(seed: u64, inputs: usize, tr: &mut Tracer) -> Self {
        let t = tr.now();
        let ft = FatTree::universal(SIM_N, (SIM_N / 4) as u64);
        tr.leaf("core.tree_build", t, NO_PARENT, 0);
        let inputs = (0..inputs)
            .map(|j| {
                let s = pool_seed(seed, j);
                (
                    PermutationStream::new(SIM_N, s),
                    RelationStream::new(SIM_N, 2, s ^ 0x2E1),
                )
            })
            .collect();
        SimStream {
            ft,
            cfg: SimConfig::default(),
            seed,
            inputs,
        }
    }

    fn msgs_per_op(&self) -> u64 {
        let (p, r) = &self.inputs[0];
        (p.len() + r.len()) as u64
    }

    fn run(&mut self, input: usize, tr: &mut Tracer, parent: i64, op: u32) -> Self::Out {
        let (p, r) = &self.inputs[input];
        let t = tr.now();
        let a = run_stream_to_completion(&self.ft, p, &self.cfg);
        tr.leaf("sim.perm", t, parent, op);
        let t = tr.now();
        let b = run_stream_to_completion(&self.ft, r, &self.cfg);
        tr.leaf("sim.rel2", t, parent, op);
        (a, b)
    }

    fn fingerprint(out: &Self::Out) -> u64 {
        fnv(fp_run(&out.0), fp_run(&out.1))
    }

    fn cycles(out: &Self::Out) -> u64 {
        (out.0.cycles + out.1.cycles) as u64
    }

    fn check(&mut self, input: usize, out: &Self::Out) -> Result<(), String> {
        let (p, r) = &self.inputs[input];
        let streams: [(&dyn MessageStream, &RunReport); 2] = [(p, &out.0), (r, &out.1)];
        for (s, got) in streams {
            if !is_permutation(&got.delivery_order, s.len()) {
                return Err(format!(
                    "{}: delivery order is not a permutation",
                    s.family()
                ));
            }
            let want = run_to_completion(&self.ft, &s.collect_set(), &self.cfg);
            if *got != want {
                return Err(format!(
                    "{}: streamed run differs from run_to_completion",
                    s.family()
                ));
            }
        }
        Ok(())
    }

    fn span_metrics(&self, spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        put("core.tree_build_us", med_us(spans, "core.tree_build"));
        put("sim.perm_us", med_us(spans, "sim.perm"));
        put("sim.rel2_us", med_us(spans, "sim.rel2"));
        put("sim.other_us", med_self_us(spans, "op"));
    }

    fn extra_metrics(&mut self, spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        let (p, r) = &self.inputs[0];
        let (perm_us, rel2_us) = (med_us(spans, "sim.perm"), med_us(spans, "sim.rel2"));
        put("core.lambda", load_factor(&self.ft, &r.collect_set()));
        put(
            "workloads.gen_ns_per_msg",
            (gen_ns_per_msg(p) + gen_ns_per_msg(r)) / 2.0,
        );

        // Where a run's time goes: arena construction, the first (ingest)
        // cycle, and the retry cycles that follow it.
        let arena_new_us = min_us(3, || SimArena::new(&self.ft, &self.cfg));
        let cycle1_us = (0..3)
            .map(|_| {
                let mut arena = SimArena::new(&self.ft, &self.cfg);
                time_us(|| arena.cycle_stream(&self.ft, r, &self.cfg)).1
            })
            .fold(f64::INFINITY, f64::min);
        put("sim.arena_new_us", arena_new_us);
        put("sim.cycle1_us", cycle1_us);
        put("sim.retry_us", rel2_us - arena_new_us - cycle1_us);

        // Useful outcomes ÷ attempts, counted by the telemetry recorder at
        // the cycle boundaries of the same two runs.
        let mut tries = 0u64;
        for s in [p as &dyn MessageStream, r] {
            let mut rec = MetricsRecorder::new();
            run_stream_to_completion_with(&self.ft, s, &self.cfg, &mut rec);
            tries += attempts(s.len() as u64, rec.delivered_per_cycle.iter().copied());
        }
        put("sim.attempts", tries as f64);
        put(
            "sim.delivery_ratio",
            self.msgs_per_op() as f64 / tries as f64,
        );
        put(
            "sim.ns_per_attempt",
            (perm_us + rel2_us) * 1e3 / tries as f64,
        );

        // The same round under the metrics recorder and under the no-op.
        let cost = on_off_ratio(|recorded| {
            for s in [p as &dyn MessageStream, r] {
                if recorded {
                    let mut rec = MetricsRecorder::new();
                    run_stream_to_completion_with(&self.ft, s, &self.cfg, &mut rec);
                } else {
                    run_stream_to_completion(&self.ft, s, &self.cfg);
                }
            }
        });
        put("telemetry.recorder_cost", cost);

        // ROADMAP's headline: one streamed 2²⁰-leaf permutation. Too slow
        // an op to gate; reported as the fastest of a few runs.
        let big = FatTree::universal(BIG_N, (BIG_N / 4) as u64);
        let perm = PermutationStream::new(BIG_N, pool_seed(self.seed, 0));
        let big_us = min_us(BIG_RUNS, || {
            run_stream_to_completion(&big, &perm, &self.cfg)
        });
        put("sim.run_2e20_ms", big_us / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_sum_pending_per_cycle() {
        // 10 messages delivered 6, 3, 1: cycles inject 10, 4, 1.
        assert_eq!(attempts(10, [6, 3, 1]), 15);
        assert_eq!(attempts(4, [4]), 4);
    }

    #[test]
    fn permutation_check_rejects_repeats_and_gaps() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[2, 0, 0], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }
}
