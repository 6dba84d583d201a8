//! The five workloads. Three are *batch* workloads (an op is a call that
//! returns a result: [`sim_stream`], [`sched_batch`], [`shard_run`]) and
//! share the loop in [`run_batch`]; the two serve workloads drive a live
//! server and live in [`serve`].

pub mod sched_batch;
pub mod serve;
pub mod shard_run;
pub mod sim_stream;

use crate::consts::{BLOCK_BATCH, BLOCK_SERVE_CLOSED, BLOCK_SERVE_PIPELINED, POOL, VERIFIED};
use crate::host;
use crate::slice::{SliceArgs, SliceReport};
use crate::stats;
use crate::trace::{self, Span, Tracer, NO_PARENT};
use ft_core::splitmix64;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimStream,
    SchedBatch,
    ShardRun,
    ServeClosed,
    ServePipelined,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SimStream,
        Workload::SchedBatch,
        Workload::ShardRun,
        Workload::ServeClosed,
        Workload::ServePipelined,
    ];

    /// One workload per layer group: a `--trace 1` run gives each of these
    /// a traced slice (a short probe, unless it is the selected workload),
    /// so every per-layer metric is measured in every traced run.
    /// `serve_closed` shares the serve group and reports `serve.*` itself
    /// when selected.
    pub const PROBES: [Workload; 4] = [
        Workload::SimStream,
        Workload::SchedBatch,
        Workload::ShardRun,
        Workload::ServePipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimStream => "sim_stream",
            Workload::SchedBatch => "sched_batch",
            Workload::ShardRun => "shard_run",
            Workload::ServeClosed => "serve_closed",
            Workload::ServePipelined => "serve_pipelined",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The member of [`Workload::PROBES`] whose layer group `self`'s own
    /// traced slices already report.
    pub fn probe(self) -> Workload {
        match self {
            Workload::ServeClosed => Workload::ServePipelined,
            w => w,
        }
    }

    /// Completions per throughput block.
    pub fn block(self) -> usize {
        match self {
            Workload::ServeClosed => BLOCK_SERVE_CLOSED,
            Workload::ServePipelined => BLOCK_SERVE_PIPELINED,
            _ => BLOCK_BATCH,
        }
    }
}

/// The `j`-th input seed derived from `--seed`.
pub fn pool_seed(seed: u64, j: usize) -> u64 {
    splitmix64(seed ^ (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What the parent's untimed verification pass establishes for a batch
/// workload.
pub struct Verified {
    /// Verified fingerprint of each of the `POOL` timed inputs.
    pub expect: Vec<u64>,
    /// Mean simulated cycles per op over all `VERIFIED` inputs.
    pub cycles: f64,
    /// Fingerprint of all verified results.
    pub fnv: u64,
}

/// Verify `VERIFIED` inputs of a batch workload against its reference.
/// The serve workloads verify inside their slices (their oracle is per
/// request and cheap) and have nothing to verify here.
pub fn verify(w: Workload, seed: u64) -> Result<Option<Verified>, String> {
    match w {
        Workload::SimStream => verify_batch::<sim_stream::SimStream>(seed).map(Some),
        Workload::SchedBatch => verify_batch::<sched_batch::SchedBatch>(seed).map(Some),
        Workload::ShardRun => verify_batch::<shard_run::ShardRun>(seed).map(Some),
        Workload::ServeClosed | Workload::ServePipelined => Ok(None),
    }
}

/// Run one slice in this process.
pub fn run_slice(args: &SliceArgs, t0: Instant) -> Result<SliceReport, String> {
    match args.workload {
        Workload::SimStream => run_batch::<sim_stream::SimStream>(args, t0),
        Workload::SchedBatch => run_batch::<sched_batch::SchedBatch>(args, t0),
        Workload::ShardRun => run_batch::<shard_run::ShardRun>(args, t0),
        Workload::ServeClosed | Workload::ServePipelined => serve::run_slice(args, t0),
    }
}

/// A workload whose op is a call that returns its result.
pub trait Batch: Sized {
    /// Result of one op, fingerprinted outside the timed interval.
    type Out;
    const WARMUP: usize;

    /// Build trees, arenas and the first `inputs` inputs of `seed`'s
    /// sequence.
    fn setup(seed: u64, inputs: usize, tr: &mut Tracer) -> Self;
    fn msgs_per_op(&self) -> u64;
    /// One op on pool input `input`, its layer spans children of `parent`.
    fn run(&mut self, input: usize, tr: &mut Tracer, parent: i64, op: u32) -> Self::Out;
    fn fingerprint(out: &Self::Out) -> u64;
    /// Simulated delivery cycles of one op's result.
    fn cycles(out: &Self::Out) -> u64;
    /// Check `input`'s result against the workload's reference and
    /// invariants (run once per input, by the parent, outside any timing).
    fn check(&mut self, input: usize, out: &Self::Out) -> Result<(), String>;
    /// Layer metrics read off a traced slice's `spans`.
    fn span_metrics(&self, spans: &[Span], out: &mut Vec<(String, f64)>);
    /// Layer metrics that need measurements of their own, made after the
    /// window of the one traced slice per run that is asked for them.
    fn extra_metrics(&mut self, spans: &[Span], out: &mut Vec<(String, f64)>);
}

fn verify_batch<B: Batch>(seed: u64) -> Result<Verified, String> {
    let mut off = Tracer::new(Instant::now(), false);
    let mut b = B::setup(seed, VERIFIED, &mut off);
    let mut expect = Vec::with_capacity(VERIFIED);
    let mut cycles = 0u64;
    for j in 0..VERIFIED {
        let out = b.run(j, &mut off, NO_PARENT, 0);
        b.check(j, &out).map_err(|e| format!("input {j}: {e}"))?;
        expect.push(B::fingerprint(&out));
        cycles += B::cycles(&out);
    }
    let fnv = expect
        .iter()
        .fold(stats::FNV_INIT, |h, &e| stats::fnv(h, e));
    expect.truncate(POOL);
    Ok(Verified {
        expect,
        cycles: cycles as f64 / VERIFIED as f64,
        fnv,
    })
}

fn run_batch<B: Batch>(args: &SliceArgs, t0: Instant) -> Result<SliceReport, String> {
    // A probe slice carries no verified fingerprints: it reports timings
    // only and compares nothing.
    if !args.expect.is_empty() && args.expect.len() != POOL {
        return Err(format!(
            "need {POOL} verified fingerprints, got {}",
            args.expect.len()
        ));
    }
    let mut tr = Tracer::new(t0, args.traced);
    let mut b = B::setup(args.seed, POOL, &mut tr);
    let mut off = Tracer::new(t0, false);
    for i in 0..B::WARMUP {
        std::hint::black_box(b.run((args.index + i) % POOL, &mut off, NO_PARENT, 0));
    }
    let mut r = SliceReport {
        setup_ns: t0.elapsed().as_nanos() as u64,
        msgs_per_op: b.msgs_per_op(),
        first_input: (args.index % POOL) as u64,
        inputs: POOL as u64,
        ..SliceReport::default()
    };
    let cpu0 = host::cpu_ticks();
    let window = Instant::now();
    let length = Duration::from_millis(args.millis);
    loop {
        let op = r.ops as u32;
        let j = (args.index + r.ops as usize) % POOL;
        let span = tr.open("op", NO_PARENT, op);
        let t = Instant::now();
        let out = b.run(j, &mut tr, span, op);
        r.lat_ns.push(t.elapsed().as_nanos() as u64);
        tr.close(span);
        let fp = B::fingerprint(&out);
        drop(out);
        r.done_ns.push(window.elapsed().as_nanos() as u64);
        r.failed += args.expect.get(j).is_some_and(|&e| e != fp) as u64;
        r.ops += 1;
        if args.traced {
            r.ref_kernel_ns.push(host::ref_kernel());
        }
        // A slice runs whole passes over the pool: every input gets the
        // same number of samples and every block is complete.
        if r.ops.is_multiple_of(POOL as u64) && window.elapsed() >= length {
            break;
        }
    }
    r.window_ns = window.elapsed().as_nanos() as u64;
    r.cpu_us = (host::cpu_ticks() - cpu0) * host::TICK_US;
    if args.traced {
        b.span_metrics(tr.spans(), &mut r.layer);
        if args.extras {
            b.extra_metrics(tr.spans(), &mut r.layer);
        }
        r.spans = write_trace(args, tr.spans())?;
    }
    r.rss_kib = host::peak_rss_kib();
    Ok(r)
}

/// Write a traced slice's spans where the parent asked; returns the count.
pub fn write_trace(args: &SliceArgs, spans: &[Span]) -> Result<u64, String> {
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace::to_jsonl(spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(spans.len() as u64)
}

/// Median duration, µs, of the spans called `name` (NaN if there are none).
pub fn med_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    stats::percentile_ns(&d, 50.0) / 1e3
}

/// Median self time, µs, of the spans called `name`: what the named child
/// spans leave uncovered.
pub fn med_self_us(spans: &[Span], name: &str) -> f64 {
    stats::percentile_ns(&trace::self_times_of(spans, name), 50.0) / 1e3
}

/// Wall time of `f`, µs.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos() as f64 / 1e3)
}

/// Fastest of `runs` timings of `f`, µs.
pub fn min_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| time_us(|| std::hint::black_box(f())).1)
        .fold(f64::INFINITY, f64::min)
}

/// Wall time of `f(true)` over wall time of `f(false)`, each the fastest
/// of three alternating runs: what a recorder costs an op.
pub fn on_off_ratio(mut f: impl FnMut(bool)) -> f64 {
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        on = on.min(time_us(|| f(true)).1);
        off = off.min(time_us(|| f(false)).1);
    }
    on / off
}
