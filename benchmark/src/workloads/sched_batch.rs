//! `sched_batch` — one op is a round of four scheduling jobs on warm
//! arenas: Theorem-1 `schedule_stream` of a random 2-relation and of a
//! hot-spot stream at n = 2¹⁴, of a pod all-to-all on a k-ary pod tree
//! through its padded binary embedding, and the §VI on-line router on a
//! 2-relation at n = 2¹⁶.
//!
//! Why: ft-sched (the Theorem-1 splitter and the on-line router) and
//! ft-topology's padded embedding do the work; ft-sim does none. A round,
//! not a mix of op kinds, so the op-time distribution has one mode and its
//! percentiles do not hop between modes.

use super::sim_stream::gen_ns_per_msg;
use super::{med_self_us, med_us, on_off_ratio, pool_seed, Batch};
use crate::consts::{SCHED_HOT, SCHED_N, SCHED_ONLINE_N, SCHED_TOPOLOGY, WARMUP_SCHED_BATCH};
use crate::stats::{fnv, FNV_INIT};
use crate::trace::{Span, Tracer, NO_PARENT};
use ft_core::{FatTree, MessageStream, SplitMix64};
use ft_sched::{OnlineArena, OnlineConfig, SchedArena, Schedule, Theorem1Stats};
use ft_telemetry::MetricsRecorder;
use ft_topology::{parse_spec, Embedded};
use ft_workloads::{HotspotStream, PodAllToAll, RelationStream};

struct Input {
    rel2: RelationStream,
    hot: HotspotStream,
    online: RelationStream,
    rng_seed: u64,
}

pub struct SchedBatch {
    ft: FatTree,
    ft_online: FatTree,
    emb: Embedded,
    kary: PodAllToAll,
    arena: SchedArena,
    arena_kary: SchedArena,
    online: OnlineArena,
    inputs: Vec<Input>,
}

/// What the on-line router left in its arena.
pub struct OnlineOut {
    delivered_per_cycle: Vec<usize>,
    truncated: bool,
}

pub struct Round {
    thm1: [(Schedule, Theorem1Stats); 3],
    online: OnlineOut,
}

/// Fingerprint of a schedule: cycle count, then every cycle's length and
/// message words in order.
fn fp_schedule(h: u64, s: &Schedule) -> u64 {
    let mut h = fnv(h, s.num_cycles() as u64);
    for c in s.cycles() {
        h = fnv(h, c.len() as u64);
        for m in c.iter() {
            h = fnv(h, (m.src.0 as u64) << 32 | m.dst.0 as u64);
        }
    }
    h
}

impl SchedBatch {
    fn job_rel2<R: ft_telemetry::Recorder>(
        &mut self,
        j: usize,
        rec: &mut R,
    ) -> (Schedule, Theorem1Stats) {
        self.arena
            .schedule_stream_with(&self.ft, &self.inputs[j].rel2, 1, rec)
    }

    fn job_hot(&mut self, j: usize) -> (Schedule, Theorem1Stats) {
        self.arena.schedule_stream(&self.ft, &self.inputs[j].hot, 1)
    }

    fn job_kary(&mut self) -> (Schedule, Theorem1Stats) {
        let mapped = self.emb.stream(&self.kary);
        self.arena_kary.schedule_stream(self.emb.tree(), &mapped, 1)
    }

    fn job_online(&mut self, j: usize) -> OnlineOut {
        let inp = &self.inputs[j];
        let mut rng = SplitMix64::seed_from_u64(inp.rng_seed);
        self.online.run_stream(
            &self.ft_online,
            &inp.online,
            &mut rng,
            OnlineConfig::default(),
        );
        OnlineOut {
            delivered_per_cycle: self.online.delivered_per_cycle().to_vec(),
            truncated: self.online.truncated(),
        }
    }
}

impl Batch for SchedBatch {
    type Out = Round;
    const WARMUP: usize = WARMUP_SCHED_BATCH;

    fn setup(seed: u64, inputs: usize, tr: &mut Tracer) -> Self {
        let t = tr.now();
        let ft = FatTree::universal(SCHED_N, (SCHED_N / 4) as u64);
        let ft_online = FatTree::universal(SCHED_ONLINE_N, (SCHED_ONLINE_N / 4) as u64);
        tr.leaf("core.tree_build", t, NO_PARENT, 0);
        let t = tr.now();
        let topo = parse_spec(SCHED_TOPOLOGY).expect("SCHED_TOPOLOGY is a valid spec");
        let kary = PodAllToAll::for_topology(&topo);
        let emb = Embedded::new(topo);
        tr.leaf("topology.embed_build", t, NO_PARENT, 0);
        let t = tr.now();
        let arena = SchedArena::new(&ft);
        let arena_kary = SchedArena::new(emb.tree());
        let online = OnlineArena::new(&ft_online);
        tr.leaf("sched.arena_new", t, NO_PARENT, 0);
        let inputs = (0..inputs)
            .map(|j| {
                let s = pool_seed(seed, j);
                Input {
                    rel2: RelationStream::new(SCHED_N, 2, s),
                    hot: HotspotStream::new(SCHED_N, 1, SCHED_HOT, s ^ 0x407),
                    online: RelationStream::new(SCHED_ONLINE_N, 2, s ^ 0x0E1),
                    rng_seed: s ^ 0x6E6,
                }
            })
            .collect();
        SchedBatch {
            ft,
            ft_online,
            emb,
            kary,
            arena,
            arena_kary,
            online,
            inputs,
        }
    }

    fn msgs_per_op(&self) -> u64 {
        let i = &self.inputs[0];
        (i.rel2.len() + i.hot.len() + self.kary.len() + i.online.len()) as u64
    }

    fn run(&mut self, input: usize, tr: &mut Tracer, parent: i64, op: u32) -> Round {
        let t = tr.now();
        let a = self.job_rel2(input, &mut ft_telemetry::NoopRecorder);
        tr.leaf("sched.thm1_rel2", t, parent, op);
        let t = tr.now();
        let b = self.job_hot(input);
        tr.leaf("sched.thm1_hotspot", t, parent, op);
        let t = tr.now();
        let c = self.job_kary();
        tr.leaf("sched.thm1_kary", t, parent, op);
        let t = tr.now();
        let online = self.job_online(input);
        tr.leaf("sched.online_rel2", t, parent, op);
        Round {
            thm1: [a, b, c],
            online,
        }
    }

    fn fingerprint(out: &Round) -> u64 {
        let mut h = FNV_INIT;
        for (s, _) in &out.thm1 {
            h = fp_schedule(h, s);
        }
        for &d in &out.online.delivered_per_cycle {
            h = fnv(h, d as u64);
        }
        h
    }

    fn cycles(out: &Round) -> u64 {
        let thm1: usize = out.thm1.iter().map(|(s, _)| s.num_cycles()).sum();
        (thm1 + out.online.delivered_per_cycle.len()) as u64
    }

    fn check(&mut self, input: usize, out: &Round) -> Result<(), String> {
        let inp = &self.inputs[input];
        let mapped = self.emb.stream(&self.kary);
        let jobs: [(&str, &FatTree, &dyn MessageStream); 3] = [
            ("rel2", &self.ft, &inp.rel2),
            ("hotspot", &self.ft, &inp.hot),
            ("kary", self.emb.tree(), &mapped),
        ];
        for ((name, ft, stream), (sched, stats)) in jobs.into_iter().zip(&out.thm1) {
            sched
                .validate(ft, &stream.collect_set())
                .map_err(|e| format!("{name}: {e}"))?;
            if sched.num_cycles() > stats.paper_bound(ft) {
                return Err(format!(
                    "{name}: {} cycles exceed the Theorem-1 bound {}",
                    sched.num_cycles(),
                    stats.paper_bound(ft)
                ));
            }
        }
        let delivered: usize = out.online.delivered_per_cycle.iter().sum();
        if out.online.truncated || delivered != inp.online.len() {
            return Err(format!(
                "online: delivered {delivered} of {} (truncated: {})",
                inp.online.len(),
                out.online.truncated
            ));
        }
        Ok(())
    }

    fn span_metrics(&self, spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        let jobs = [
            "sched.thm1_rel2",
            "sched.thm1_hotspot",
            "sched.thm1_kary",
            "sched.online_rel2",
        ];
        let mut round_us = 0.0;
        for name in jobs {
            let us = med_us(spans, name);
            round_us += us;
            put(&format!("{name}_us"), us);
        }
        put("sched.other_us", med_self_us(spans, "op"));
        put("sched.arena_new_us", med_us(spans, "sched.arena_new"));
        put(
            "sched.ns_per_msg",
            round_us * 1e3 / self.msgs_per_op() as f64,
        );
        put("core.tree_build_us", med_us(spans, "core.tree_build"));
        put(
            "topology.embed_build_us",
            med_us(spans, "topology.embed_build"),
        );
        put(
            "topology.pad_ratio",
            self.emb.padded_n() as f64 / self.emb.leaves() as f64,
        );
    }

    fn extra_metrics(&mut self, _spans: &[Span], out: &mut Vec<(String, f64)>) {
        let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
        // What the padded embedding charges per message: a drained pass
        // over the mapped stream minus one over the raw stream.
        let raw = gen_ns_per_msg(&self.kary);
        let mapped = gen_ns_per_msg(&self.emb.stream(&self.kary));
        put("topology.map_ns_per_msg", mapped - raw);
        put(
            "workloads.gen_ns_per_msg",
            (gen_ns_per_msg(&self.inputs[0].rel2) + gen_ns_per_msg(&self.inputs[0].hot)) / 2.0,
        );

        // The paper's own accounting, from the values the jobs return.
        let round = self.run(
            0,
            &mut Tracer::new(std::time::Instant::now(), false),
            NO_PARENT,
            0,
        );
        let ratio = round
            .thm1
            .iter()
            .zip([&self.ft, &self.ft, self.emb.tree()])
            .map(|((s, st), ft)| s.num_cycles() as f64 / st.paper_bound(ft) as f64)
            .fold(0.0, f64::max);
        put("sched.bound_ratio", ratio);
        put(
            "sched.online_cycles",
            round.online.delivered_per_cycle.len() as f64,
        );
        put("core.lambda", round.thm1[0].1.load_factor);

        // The 2-relation job under the metrics recorder and under the no-op.
        let cost = on_off_ratio(|recorded| {
            std::hint::black_box(if recorded {
                self.job_rel2(0, &mut MetricsRecorder::new())
            } else {
                self.job_rel2(0, &mut ft_telemetry::NoopRecorder)
            });
        });
        put("telemetry.recorder_cost", cost);
    }
}
