//! `ft-perf` — the engine performance harness.
//!
//! Times the hot paths of the workspace — `simulate_cycle`,
//! `run_to_completion`, `schedule_theorem1`, `compile_cycle`, and
//! `online_route` — on universal fat-trees at n ∈ {2¹⁰, 2¹⁴, 2¹⁷}
//! (on-line routing at n ∈ {2¹⁰, 2¹², 2¹⁴}) across three workload families
//! (random permutation, hot spot, random k-relation), and pits the
//! flat-array engines against the retained HashMap/clone references at the
//! sizes where those are still tolerable (2¹⁰ and 2¹⁴). Hot-spot
//! `run_to_completion` serializes into n−1 delivery cycles (quadratic
//! work), so that one cell is capped at n ≤ 2¹⁴ (reference at n ≤ 2¹⁰);
//! hot-spot `online_route` is duelled at n ≤ 2¹² for the same reason.
//!
//! Four acceptance gates are asserted on full (non-smoke) runs:
//! `simulate_cycle` n=2¹⁴ permutation ≥ 5× the reference,
//! `schedule_theorem1` n=2¹⁴ random2 ≥ 5.6× the clone-based reference
//! scheduler (the [`ft_sched::SchedArena`] rebuild), `online_route`
//! n=2¹² random2 ≥ 2.25× the clone-based reference router (the
//! [`ft_sched::OnlineArena`] rebuild; the measured ceiling on the
//! benchmark host is ~2.5×, see the gate-table comment in `main`), and
//! `run_sharded` n=2¹⁴ random2 (4 shards, inproc) against the single
//! arena — ≥ 1.0× when the host has two or more cores, a documented
//! overhead floor on one core (see the gate comment). A `shard_scaling`
//! weak-scaling curve (shards ∈ {1, 2, 4, 8}, n = 4096·shards) rides
//! along in the JSON.
//!
//! A fifth gate covers the streamed tier: the `large_n` block duels
//! `run_stream_to_completion` (lazy generator, `MetaWidth::Auto` → the
//! u32-packed layout) against collect-into-a-`MessageSet` +
//! `run_to_completion` on the wide layout, at n ∈ {2¹⁷, 2¹⁸} for
//! permutation and random2 plus a streamed-only n = 2²⁰ permutation cell;
//! at n = 2¹⁷ random2 the streamed+packed side must win by ≥ 2.5×.
//! All bench workloads are sourced from `ft-workloads` — the same seeded
//! generators the CLI, tests, and experiments use.
//!
//! Results are written as hand-rolled JSON to `BENCH_engine.json` in the
//! current directory (schema documented in EXPERIMENTS.md, validated by the
//! `bench_check` binary), including a `telemetry` block: the shared
//! quadratic-size caps with every row they suppressed (no silent
//! truncation), and one instrumented [`MetricsRecorder`] run per gate
//! configuration so a perf regression arrives with its per-level congestion
//! story attached. Run with `--smoke` for a seconds-long sanity pass on
//! tiny trees (add `--out <path>` to write the smoke JSON for
//! `bench_check`), or `--stream-million` for one untimed n = 2²⁰ streamed
//! permutation — `scripts/check.sh` uses both as smoke tests.
//!
//! ```text
//! cargo run --release -p ft-bench --bin ft-perf
//! cargo run --release -p ft-bench --bin ft-perf -- --smoke
//! cargo run --release -p ft-bench --bin ft-perf -- --stream-million
//! ```

use ft_bench::timing::{bench_duel, bench_with_budget, Measurement};
use ft_core::rng::SplitMix64;
use ft_core::{FatTree, Message, MessageSet, MessageStream};
use ft_sched::reference::{route_online_reference, schedule_theorem1_reference};
use ft_sched::{OnlineArena, OnlineConfig, SchedArena};
use ft_serve::client::{bench as serve_bench, request_msgs, request_seed, BenchConfig, BenchMode};
use ft_serve::core::SliceStream;
use ft_serve::proto::Engine as ServeEngine;
use ft_serve::server::{spawn as serve_spawn, ServerConfig};
use ft_shard::{run_sharded, run_sharded_with, ShardConfig, ShardRunStats};
use ft_sim::reference::{run_to_completion_reference, simulate_cycle_reference};
use ft_sim::{
    compile_cycle, run_stream_to_completion, run_to_completion, MetaWidth, SimArena, SimConfig,
};
use ft_telemetry::MetricsRecorder;
use ft_topology::{parse_spec, Embedded};
use ft_workloads::{
    hotspots, random_k_relation, random_permutation, AllReduceStream, AllToAllStream,
    PermutationStream, RelationStream,
};
use std::time::Duration;

/// Hot-spot `run_to_completion` serializes into n−1 delivery cycles
/// (quadratic work), so the flat engine skips that family above this size…
const RTC_HOTSPOT_CAP: u32 = 1 << 14;
/// …and its HashMap reference twin — O(n) per level per cycle on top — is
/// only duelled up to this size.
const RTC_REF_HOTSPOT_CAP: u32 = 1 << 10;
/// Hot-spot `online_route` duels are capped here for the same reason (the
/// clone-based reference pays a fresh LoadMap per delivery cycle).
const ONLINE_HOTSPOT_DUEL_CAP: u32 = 1 << 12;
/// Reference engines for the non-quadratic ops run up to this size; above
/// it the flat engines are benched solo (a full run stays minutes).
const REFERENCE_DUEL_CAP: u32 = 1 << 14;
/// `large_n` duels (streamed+packed vs collect+wide `run_to_completion`)
/// run both sides up to this size; at n = 2^20 only the streamed side is
/// timed (the materialized twin is recorded in `capped_rows`) so a full
/// bench run stays minutes.
const LARGE_N_DUEL_CAP: u32 = 1 << 18;
/// Pod size for the collective `large_n` rows (`allreduce`/`alltoall`).
/// Fixed rather than the CLI's n-proportional default: at n = 2^17 a
/// proportional pod would explode the message count past 2^33; pods of 16
/// keep the collectives ~30n/15n messages — big, but streamable.
const COLLECTIVE_POD: u32 = 16;

/// One benchmark result row, ready for JSON.
struct Row {
    op: &'static str,
    engine: &'static str,
    n: u32,
    workload: &'static str,
    median_ns: u128,
    iters: u64,
}

/// A row (or reference twin) left out because of a quadratic-size cap.
/// Every cap is recorded in the `telemetry` block of `BENCH_engine.json`,
/// so a missing cell is a documented decision, not silent truncation.
struct CappedRow {
    op: &'static str,
    engine: &'static str,
    n: u32,
    workload: &'static str,
    cap: u32,
}

/// A measured reference/flat pair on identical inputs.
struct Speedup {
    op: &'static str,
    n: u32,
    workload: &'static str,
    speedup: f64,
}

/// Bench workloads, sourced from `ft-workloads` — the same seeded
/// implementations the CLI, tests, and experiments use (no private inline
/// twins): a random permutation, an all-to-one hot spot (`hotspots` with
/// k = 1 message per sender and h = 1 hot destination), and a random
/// 2-relation.
fn workload(kind: &str, n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    match kind {
        "permutation" => random_permutation(n, &mut rng),
        "hotspot" => hotspots(n, 1, 1, &mut rng),
        "random2" => random_k_relation(n, 2, &mut rng),
        other => panic!("unknown workload {other}"),
    }
}

/// A universal fat-tree with root capacity n/4 (λ stays small for
/// permutations, so run-to-completion terminates in a handful of cycles).
fn tree(n: u32) -> FatTree {
    FatTree::universal(n, (n / 4).max(1) as u64)
}

struct Harness {
    budget: Duration,
    rows: Vec<Row>,
    speedups: Vec<Speedup>,
    capped: Vec<CappedRow>,
    /// Instrumented single runs of the gate configurations: `(op, n,
    /// workload, MetricsRecorder::to_json())`, attached to the JSON so a
    /// perf regression comes with its congestion story.
    gate_runs: Vec<(&'static str, u32, &'static str, String)>,
    /// Barrier/transport telemetry from the sharded duel's verification
    /// run: `(n, shards, stats, matches_single_arena)`.
    shard_stats: Option<(u32, u32, ShardRunStats, bool)>,
    /// Weak-scaling curve: sharded vs single arena at n = 4096·shards.
    shard_scaling: Vec<ScalingPoint>,
    /// Large-n streamed-vs-materialized rows (`large_n` block in the JSON).
    large_n: Vec<LargeRow>,
    /// Generalized-topology comparison rows (`topology` block in the JSON).
    topology: Vec<TopologyRow>,
    /// The streaming scheduler service measurement (`serve` block).
    serve: Option<ServeBench>,
    /// Metrics-on vs metrics-off serve throughput (`telemetry_overhead`
    /// block, ≥ 0.95× acceptance gate on full runs).
    telemetry_overhead: Option<TelemetryOverhead>,
}

/// The `serve` block: coalesced service throughput on small requests,
/// duelled against two per-request baselines — a cold in-process arena per
/// request (context, ungated) and one `ftsim schedule` OS process per
/// request (the ≥ 2× acceptance gate). Latency percentiles come from a
/// closed-loop verified run; throughput from an open-loop run that lets
/// the batching window actually coalesce.
struct ServeBench {
    n: u32,
    w: u64,
    slots: u32,
    clients: usize,
    requests: u64,
    messages_per_request: usize,
    requests_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    busy: u64,
    reject_rate: f64,
    batches: u64,
    batch_max: u64,
    batch_mean_x1000: u64,
    lambda_max: f64,
    outputs_match_solo: bool,
    baseline_cold_arena_ns: u128,
    speedup_vs_cold: f64,
    baseline_process_ns: Option<u128>,
    speedup_vs_process: Option<f64>,
}

/// The `telemetry_overhead` block: the same open-loop serve workload run
/// against two servers — one with the full observability hub live (stage
/// histograms, span ring, scrape listener bound and hit once per round)
/// and one with the hub disabled entirely. Each round runs the two sides
/// back to back (alternating which goes first) and `ratio` is the best
/// paired round: structural overhead shows up in every pairing, while
/// machine drift between rounds cannot fail the gate. `full_rps` /
/// `noop_rps` are best-of-rounds context, so `ratio` need not equal their
/// quotient.
struct TelemetryOverhead {
    full_rps: f64,
    noop_rps: f64,
    ratio: f64,
    rounds: usize,
    requests_per_round: u64,
}

/// One `large_n` measurement: the streamed narrow-metadata engine against
/// the materialize-then-run wide path on the same generator. At sizes past
/// [`LARGE_N_DUEL_CAP`] the materialized side is skipped (fields `None`).
struct LargeRow {
    workload: &'static str,
    n: u32,
    streamed_ns: u128,
    materialized_ns: Option<u128>,
    speedup: Option<f64>,
    cycles: usize,
}

/// One generalized-topology comparison row (`topology` block in the JSON):
/// the same seeded random permutation scheduled and delivered through each
/// family's binary embedding, with the λ bounds and the hardware cost model
/// alongside — the numbers EXPERIMENTS.md compares across families.
struct TopologyRow {
    family: &'static str,
    spec: String,
    leaves: u32,
    padded_n: u32,
    messages: usize,
    lambda_bound: f64,
    lambda: f64,
    sched_cycles: usize,
    sim_cycles: usize,
    delivered_per_cycle: f64,
    switches: u64,
    cables: u64,
    wires: u64,
    bisection: u64,
    volume_proxy: f64,
}

/// One weak-scaling measurement (`shard_scaling` block in the JSON).
struct ScalingPoint {
    shards: u32,
    n: u32,
    sharded_ns: u128,
    single_ns: u128,
    speedup: f64,
}

impl Harness {
    fn push(
        &mut self,
        op: &'static str,
        engine: &'static str,
        n: u32,
        wl: &'static str,
        m: &Measurement,
    ) {
        self.rows.push(Row {
            op,
            engine,
            n,
            workload: wl,
            median_ns: m.median.as_nanos(),
            iters: m.iters,
        });
    }

    /// Bench `flat` (and optionally `reference`) on the same input; record a
    /// speedup row when both ran. The pair is measured with interleaved
    /// batches ([`bench_duel`]) so machine noise cancels in the ratio.
    fn duel<T, U>(
        &mut self,
        op: &'static str,
        n: u32,
        wl: &'static str,
        with_reference: bool,
        mut flat: impl FnMut() -> T,
        mut reference: impl FnMut() -> U,
    ) {
        let name = format!("{op}/flat/n={n}/{wl}");
        if !with_reference {
            let f = bench_with_budget(&name, self.budget, &mut flat);
            self.push(op, "flat", n, wl, &f);
            return;
        }
        let ref_name = format!("{op}/reference/n={n}/{wl}");
        // Both sides share the budget, so give the pair twice the solo one.
        let d = bench_duel(&name, &ref_name, 2 * self.budget, &mut flat, &mut reference);
        self.push(op, "flat", n, wl, &d.a);
        self.push(op, "reference", n, wl, &d.b);
        self.speedups.push(Speedup {
            op,
            n,
            workload: wl,
            speedup: d.ratio,
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Focused mode for scripts/check.sh: run only the run_sharded duel and
    // assert its gate (full engine sweep skipped, no file written).
    let shard_gate_only = args.iter().any(|a| a == "--shard-gate");
    // Focused mode for scripts/check.sh: one n = 2^20 streamed-permutation
    // run through the narrow-metadata engine, no timing harness, no file.
    let stream_million = args.iter().any(|a| a == "--stream-million");
    // Output override; with --smoke this also turns the (otherwise fileless)
    // pass into a schema-complete JSON write for `bench_check` to validate.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // The serve gate's process baseline spawns this binary once per request;
    // when it isn't built the baseline is recorded as null and the gate is
    // skipped with a printed note (the byte-identity half still asserts).
    let ftsim_path = args
        .iter()
        .position(|a| a == "--ftsim")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/release/ftsim".to_string());
    if stream_million {
        let n = 1u32 << 20;
        let ft = tree(n);
        let stream = PermutationStream::new(n, 0x57A6 ^ n as u64);
        let t = std::time::Instant::now();
        let run = run_stream_to_completion(&ft, &stream, &SimConfig::default());
        assert_eq!(
            run.delivery_order.len(),
            n as usize,
            "streamed million-leaf permutation lost messages"
        );
        println!(
            "stream-million: n={n} permutation delivered {} messages in {} cycles ({:.3?})",
            run.delivery_order.len(),
            run.cycles,
            t.elapsed()
        );
        return;
    }
    let (sizes, budget): (&[u32], Duration) = if smoke {
        (&[256], Duration::from_millis(30))
    } else {
        (&[1 << 10, 1 << 14, 1 << 17], Duration::from_millis(400))
    };
    let mut h = Harness {
        budget,
        rows: Vec::new(),
        speedups: Vec::new(),
        capped: Vec::new(),
        gate_runs: Vec::new(),
        shard_stats: None,
        shard_scaling: Vec::new(),
        large_n: Vec::new(),
        topology: Vec::new(),
        serve: None,
        telemetry_overhead: None,
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let sizes: &[u32] = if shard_gate_only { &[] } else { sizes };
    for &n in sizes {
        let ft = tree(n);
        let cfg = SimConfig::default();
        // The reference engine is O(n) hash-map traffic per level; keep it
        // off the largest size so a full run stays minutes, not hours.
        let with_reference = smoke || n <= REFERENCE_DUEL_CAP;
        if !with_reference {
            for op in ["simulate_cycle", "run_to_completion", "schedule_theorem1"] {
                for wl in ["permutation", "hotspot", "random2"] {
                    // The hot-spot run_to_completion flat row is capped
                    // harder below and records itself there.
                    if op == "run_to_completion" && wl == "hotspot" {
                        continue;
                    }
                    h.capped.push(CappedRow {
                        op,
                        engine: "reference",
                        n,
                        workload: wl,
                        cap: REFERENCE_DUEL_CAP,
                    });
                }
            }
        }

        for wl in ["permutation", "hotspot", "random2"] {
            let set = workload(wl, n, 0xC0FFEE ^ n as u64);
            let msgs = set.as_slice();

            // --- simulate_cycle: one delivery cycle, arena reused.
            let mut arena = SimArena::new(&ft, &cfg);
            h.duel(
                "simulate_cycle",
                n,
                wl,
                with_reference,
                || arena.cycle(&ft, msgs, &cfg).delivered,
                || simulate_cycle_reference(&ft, msgs, &cfg).delivered.len(),
            );
        }

        // --- run_to_completion: retries until drained. Hot spots serialize
        // into n−1 cycles (quadratic work), so that family is capped at
        // [`RTC_HOTSPOT_CAP`], with the reference twin only at
        // [`RTC_REF_HOTSPOT_CAP`].
        for wl in ["permutation", "hotspot", "random2"] {
            if wl == "hotspot" && n > RTC_HOTSPOT_CAP {
                h.capped.push(CappedRow {
                    op: "run_to_completion",
                    engine: "flat",
                    n,
                    workload: wl,
                    cap: RTC_HOTSPOT_CAP,
                });
                continue;
            }
            let rtc_ref = with_reference && (wl != "hotspot" || n <= RTC_REF_HOTSPOT_CAP);
            if with_reference && !rtc_ref {
                h.capped.push(CappedRow {
                    op: "run_to_completion",
                    engine: "reference",
                    n,
                    workload: wl,
                    cap: RTC_REF_HOTSPOT_CAP,
                });
            }
            let msgs = workload(wl, n, 0xBEEF ^ n as u64);
            h.duel(
                "run_to_completion",
                n,
                wl,
                rtc_ref,
                || run_to_completion(&ft, &msgs, &cfg).cycles,
                || run_to_completion_reference(&ft, &msgs, &cfg).cycles,
            );
        }

        // --- schedule_theorem1: the off-line scheduler, arena reused
        // across iterations (the intended steady-state usage).
        for wl in ["permutation", "hotspot", "random2"] {
            let msgs = workload(wl, n, 0x5EED ^ n as u64);
            let mut sarena = SchedArena::new(&ft);
            h.duel(
                "schedule_theorem1",
                n,
                wl,
                with_reference,
                || sarena.schedule(&ft, &msgs, 1).1.total_cycles,
                || schedule_theorem1_reference(&ft, &msgs).1.total_cycles,
            );

            // --- schedule_theorem1 with scoped-thread subtree fan-out
            // (byte-identical output; see ft-sched::arena).
            if threads > 1 {
                let mut sarena = SchedArena::new(&ft);
                let name = format!("schedule_theorem1/flat-mt{threads}/n={n}/{wl}");
                let m = bench_with_budget(&name, h.budget, &mut || {
                    sarena.schedule(&ft, &msgs, threads).1.total_cycles
                });
                h.push("schedule_theorem1", "flat-mt", n, wl, &m);
            }
        }

        // --- compile_cycle: one-cycle wire assignment (no reference twin;
        // a permutation on this tree has λ ≤ 1 by construction... almost:
        // compile_cycle rejects overloads, so count len 0 for those).
        let perm = workload("permutation", n, 0xAB1E ^ n as u64);
        let name = format!("compile_cycle/flat/n={n}/permutation");
        let m = bench_with_budget(&name, h.budget, &mut || {
            compile_cycle(&ft, perm.as_slice())
                .map(|c| c.len())
                .unwrap_or(0)
        });
        h.push("compile_cycle", "flat", n, "permutation", &m);
    }

    // --- schedule_theorem1, hot spot at n = 2^16 (flat only, ungated): an
    // all-to-one set refines into ever sparser segments inside one huge
    // subtree, the worst case for the splitter's level-synchronous sweeps
    // (they climb empty levels the sorted matching skipped), and the size
    // where that shows before the λ sweep swamps it.
    if !smoke && !shard_gate_only {
        let n = 1 << 16;
        let ft = tree(n);
        let msgs = workload("hotspot", n, 0x5EED ^ n as u64);
        let mut sarena = SchedArena::new(&ft);
        let name = format!("schedule_theorem1/flat/n={n}/hotspot");
        let m = bench_with_budget(&name, h.budget, &mut || {
            sarena.schedule(&ft, &msgs, 1).1.total_cycles
        });
        h.push("schedule_theorem1", "flat", n, "hotspot", &m);
    }

    // --- online_route: the §VI randomized delivery-cycle process, arena
    // reused across iterations. Each iteration re-seeds its own RNG so every
    // call routes the identical trace. The clone-based reference pays a
    // fresh O(n) LoadMap and a survivor Vec per delivery cycle, and the
    // hot spot needs n−1 cycles, so that duel is capped at
    // [`ONLINE_HOTSPOT_DUEL_CAP`] (flat-only above).
    let online_sizes: &[u32] = if smoke {
        &[256]
    } else {
        &[1 << 10, 1 << 12, 1 << 14]
    };
    for &n in online_sizes {
        let ft = tree(n);
        for wl in ["hotspot", "random2"] {
            let msgs = workload(wl, n, 0xF00D ^ n as u64);
            let with_ref = smoke || wl != "hotspot" || n <= ONLINE_HOTSPOT_DUEL_CAP;
            if !with_ref {
                h.capped.push(CappedRow {
                    op: "online_route",
                    engine: "reference",
                    n,
                    workload: wl,
                    cap: ONLINE_HOTSPOT_DUEL_CAP,
                });
            }
            let seed = 0xD1CE ^ n as u64;
            let mut oarena = OnlineArena::new(&ft);
            h.duel(
                "online_route",
                n,
                wl,
                with_ref,
                || {
                    let mut rng = SplitMix64::seed_from_u64(seed);
                    oarena.run(&ft, &msgs, &mut rng, OnlineConfig::default());
                    oarena.cycles()
                },
                || {
                    let mut rng = SplitMix64::seed_from_u64(seed);
                    route_online_reference(&ft, &msgs, &mut rng, OnlineConfig::default()).cycles
                },
            );
        }
    }

    // --- run_sharded vs run_to_completion: the distributed engine against
    // the single arena it must reproduce byte for byte. Each iteration
    // pays the full protocol — worker spawn, INIT/LOAD, per-cycle
    // Cycle/Claims2/Incoming2/Outcomes exchanges — so the ratio *is* the
    // sharding overhead on one host. Since the overlapped coordinator
    // (incremental claim merge, retained pending, compact v2 frames) this
    // duel carries a gate: see `shard_gate_target` at the gate table.
    {
        let n: u32 = if smoke { 256 } else { 1 << 14 };
        let ft = tree(n);
        // The single-arena twin runs the wide (u64) metadata layout — the
        // computation the shards actually distribute (cross-shard frames
        // carry global ids, so shard phases are always wide). Duelling
        // against `MetaWidth::Auto` would fold the packed-u32 layout's
        // serial win (gated separately in `large_n`) into what is meant to
        // be a pure protocol-overhead measurement.
        let cfg = SimConfig {
            meta: MetaWidth::Wide,
            ..SimConfig::default()
        };
        let shards = 4u32;
        let msgs = workload("random2", n, 0xBEEF ^ n as u64);
        let shard_cfg = ShardConfig::new(shards, cfg);
        let name_a = format!("run_sharded/sharded{shards}-inproc/n={n}/random2");
        let name_b = format!("run_sharded/single-arena/n={n}/random2");
        let d = bench_duel(
            &name_a,
            &name_b,
            2 * h.budget,
            &mut || {
                run_sharded(&ft, &msgs, &shard_cfg)
                    .expect("sharded run")
                    .run
                    .cycles
            },
            &mut || run_to_completion(&ft, &msgs, &cfg).cycles,
        );
        h.push("run_sharded", "sharded-inproc", n, "random2", &d.a);
        h.push("run_sharded", "single-arena", n, "random2", &d.b);
        h.speedups.push(Speedup {
            op: "run_sharded",
            n,
            workload: "random2",
            speedup: d.ratio,
        });
        // One instrumented verification run: transport telemetry lands in
        // the JSON `shard` block alongside the equality check, and the
        // recorder captures the coordinator's per-cycle barrier-wait /
        // merge / top-arbitration overlap counters.
        let mut rec = MetricsRecorder::new();
        let got = run_sharded_with(&ft, &msgs, &shard_cfg, &mut rec).expect("sharded run");
        let want = run_to_completion(&ft, &msgs, &cfg);
        let matches = got.run.delivered_per_cycle == want.delivered_per_cycle
            && got.run.delivery_order == want.delivery_order
            && got.run.total_ticks == want.total_ticks;
        assert!(matches, "sharded run diverged from the single arena");
        h.shard_stats = Some((n, shards, got.stats, matches));
        h.gate_runs
            .push(("run_sharded", n, "random2", rec.to_json()));
    }

    // --- Weak scaling: shards ∈ {1, 2, 4, 8} with the problem growing in
    // proportion (n = 4096·shards), sharded vs single arena on identical
    // inputs. On a multi-core host the curve shows the overlap win
    // compounding; on one core it shows the protocol overhead staying flat
    // as the per-shard slice shrinks.
    if !smoke && !shard_gate_only {
        for shards in [1u32, 2, 4, 8] {
            let n = 4096 * shards;
            let ft = tree(n);
            // Wide single-arena twin, same reasoning as the gate duel.
            let cfg = SimConfig {
                meta: MetaWidth::Wide,
                ..SimConfig::default()
            };
            let msgs = workload("random2", n, 0xBEEF ^ n as u64);
            let shard_cfg = ShardConfig::new(shards, cfg);
            let name_a = format!("shard_scaling/sharded{shards}-inproc/n={n}/random2");
            let name_b = format!("shard_scaling/single-arena/n={n}/random2");
            let d = bench_duel(
                &name_a,
                &name_b,
                h.budget,
                &mut || {
                    run_sharded(&ft, &msgs, &shard_cfg)
                        .expect("sharded run")
                        .run
                        .cycles
                },
                &mut || run_to_completion(&ft, &msgs, &cfg).cycles,
            );
            h.shard_scaling.push(ScalingPoint {
                shards,
                n,
                sharded_ns: d.a.median.as_nanos(),
                single_ns: d.b.median.as_nanos(),
                speedup: d.ratio,
            });
        }
    }

    // --- large_n: the streamed narrow-metadata path against the classic
    // materialized wide path, end to end on identical generators. The
    // streamed side runs `run_stream_to_completion` with the default
    // `MetaWidth::Auto` (these heights all fit the u32 layout) and replays
    // the lazy generator inside every iteration; the materialized side pays
    // what the classic pipeline actually costs — collect the stream into a
    // `MessageSet`, then `run_to_completion` on the wide (u64) layout. At
    // n = 2^20 the materialized twin is skipped under [`LARGE_N_DUEL_CAP`]
    // (recorded in `capped_rows`) and the streamed engine is timed solo —
    // the million-leaf tier the streaming layer exists for.
    if !shard_gate_only {
        let cells: &[(&'static str, &[u32])] = if smoke {
            &[
                ("permutation", &[256]),
                ("random2", &[256]),
                ("allreduce", &[256]),
                ("alltoall", &[256]),
            ]
        } else {
            &[
                ("permutation", &[1 << 17, 1 << 18, 1 << 20]),
                ("random2", &[1 << 17, 1 << 18]),
                ("allreduce", &[1 << 17]),
                ("alltoall", &[1 << 17]),
            ]
        };
        for &(wl, sizes) in cells {
            for &n in sizes {
                let ft = tree(n);
                let seed = 0x57A6 ^ n as u64;
                let stream: Box<dyn MessageStream> = match wl {
                    "permutation" => Box::new(PermutationStream::new(n, seed)),
                    "allreduce" => Box::new(AllReduceStream::new(n, COLLECTIVE_POD, seed)),
                    "alltoall" => Box::new(AllToAllStream::new(n, COLLECTIVE_POD)),
                    _ => Box::new(RelationStream::new(n, 2, seed)),
                };
                let stream = stream.as_ref();
                let auto = SimConfig::default();
                let wide = SimConfig {
                    meta: MetaWidth::Wide,
                    ..auto
                };
                let cycles = run_stream_to_completion(&ft, stream, &auto).cycles;
                let name = format!("large_n/streamed-narrow/n={n}/{wl}");
                if smoke || n <= LARGE_N_DUEL_CAP {
                    let ref_name = format!("large_n/materialized-wide/n={n}/{wl}");
                    let d = bench_duel(
                        &name,
                        &ref_name,
                        2 * h.budget,
                        &mut || run_stream_to_completion(&ft, stream, &auto).cycles,
                        &mut || {
                            let set = stream.collect_set();
                            run_to_completion(&ft, &set, &wide).cycles
                        },
                    );
                    h.large_n.push(LargeRow {
                        workload: wl,
                        n,
                        streamed_ns: d.a.median.as_nanos(),
                        materialized_ns: Some(d.b.median.as_nanos()),
                        speedup: Some(d.ratio),
                        cycles,
                    });
                } else {
                    h.capped.push(CappedRow {
                        op: "large_n",
                        engine: "materialized-wide",
                        n,
                        workload: wl,
                        cap: LARGE_N_DUEL_CAP,
                    });
                    let m = bench_with_budget(&name, h.budget, &mut || {
                        run_stream_to_completion(&ft, stream, &auto).cycles
                    });
                    h.large_n.push(LargeRow {
                        workload: wl,
                        n,
                        streamed_ns: m.median.as_nanos(),
                        materialized_ns: None,
                        speedup: None,
                        cycles,
                    });
                }
            }
        }
    }

    // --- topology: the generalized-topology experiment. Four machines at a
    // comparable scale (128 processors) — the paper's universal binary tree,
    // a full-bisection 8-ary pod tree, the same pods oversubscribed 4:1, and
    // a Solnushkin-style two-layer tree — each schedules and delivers the
    // same seeded random permutation through its binary embedding. These are
    // measured facts, not timings: λ bound vs measured, schedule length,
    // delivered-per-cycle, and the hardware cost model (switches, cables,
    // wire bisection) land in the `topology` block so EXPERIMENTS.md can
    // compare families on identical traffic. Cheap enough to run on smoke
    // passes too, so `bench_check` always sees the block.
    if !shard_gate_only {
        for spec in [
            "universal:n=128,w=32",
            "kary:k=8",
            "kary:k=8,over=4",
            "twolayer:r=16,p=8",
        ] {
            let topo = parse_spec(spec).expect("topology spec");
            let emb = Embedded::new(topo);
            let n = emb.leaves();
            let mut rng = SplitMix64::seed_from_u64(0x70D0 ^ n as u64);
            let msgs = random_permutation(n, &mut rng);
            let (lambda, _) = emb.lambda(&msgs);
            let mapped = emb.map_set(&msgs);
            let (_, stats) = SchedArena::new(emb.tree()).schedule(emb.tree(), &mapped, 1);
            let run = run_to_completion(emb.tree(), &mapped, &SimConfig::default());
            assert_eq!(
                run.delivery_order.len(),
                msgs.len(),
                "{spec}: embedded run lost messages"
            );
            let cost = emb.topology().cost();
            h.topology.push(TopologyRow {
                family: emb.topology().family().tag(),
                spec: emb.topology().spec().to_string(),
                leaves: n,
                padded_n: emb.padded_n(),
                messages: msgs.len(),
                lambda_bound: emb.topology().lambda_perm_bound(),
                lambda,
                sched_cycles: stats.total_cycles,
                sim_cycles: run.cycles,
                delivered_per_cycle: msgs.len() as f64 / run.cycles.max(1) as f64,
                switches: cost.switches,
                cables: cost.cables,
                wires: cost.wires,
                bisection: cost.bisection,
                volume_proxy: cost.volume_proxy,
            });
        }
    }

    // --- serve: the streaming scheduler service duelled against the two
    // per-request deployments it replaces. A real server is spawned on the
    // loopback interface and driven by the bench client: one closed-loop
    // pass with `--verify` proves every coalesced response byte-identical
    // to a solo recomputation, then one open-loop pass (pipeline depth 8)
    // measures throughput with the batching window actually coalescing.
    // Baselines: a cold `SchedArena` rebuilt per request in-process
    // (context, ungated) and one `ftsim schedule` OS process per request
    // (the ≥ 2× acceptance gate).
    if !shard_gate_only {
        h.serve = Some(bench_serve(smoke, &ftsim_path));
        h.telemetry_overhead = Some(bench_telemetry_overhead(smoke));
    }

    // --- Report.
    println!();
    for s in &h.speedups {
        println!(
            "speedup {:>18} n={:<7} {:<12} {:6.2}x",
            s.op, s.n, s.workload, s.speedup
        );
    }
    // The online_route target is set from the measured ceiling of the arena
    // router on the 1-core benchmark host: the duel reports 2.3-2.6x at
    // n=2^12 random2 (min-of-rounds wall clock says ~2.8x), and the probe
    // kernel is already down to a three-instruction load/test/decrement with
    // no bounds checks, so 3x is not reachable without changing the routing
    // semantics. DESIGN.md section 9 records the optimization journey and
    // the rejected alternatives. 2.25 leaves the same ~12% noise margin the
    // other two gates carry.
    //
    // The schedule_theorem1 gate is 0.8 x the measured ratio, rounded down
    // to 0.05: sort-free matching and level-sweep classification took the
    // arena from 4.1x to 7.0x the clone-based reference at n=2^14 random2
    // (the gate was 4x, then 3.25x once day-to-day frequency drift on the
    // unchanged seed commit had measured 3.55-3.97x). It exists to catch
    // real regressions, not to re-litigate host clocking.
    let gates: [(&str, &str, u32, f64); 3] = [
        ("simulate_cycle", "permutation", 1 << 14, 5.0),
        ("schedule_theorem1", "random2", 1 << 14, 5.6),
        ("online_route", "random2", 1 << 12, 2.25),
    ];
    for (op, wl, gate_n, target) in gates {
        let gate = h
            .speedups
            .iter()
            .find(|s| s.op == op && s.workload == wl && (smoke || s.n == gate_n));
        if let Some(g) = gate {
            println!(
                "\nacceptance: {op} n={} {wl} speedup = {:.2}x (target >= {target}x)",
                g.n, g.speedup
            );
            if !smoke {
                assert!(
                    g.speedup >= target,
                    "{op} speedup gate failed: {:.2}x < {target}x",
                    g.speedup
                );
            }
        }
    }

    // The large_n gate pins the streamed tier's win: at n = 2^17 random2
    // the streamed+packed engine must beat the collect-then-run wide path
    // by 2.5x end to end. The default config runs two fused sweeps over
    // half-width metadata and never builds the 2n-entry message vector,
    // while the wide side keeps the per-level table walk; the duel measured
    // 3.16x when the fused down sweep landed, and the gate is 0.8 x that,
    // rounded down to 0.05 (see EXPERIMENTS.md E18 for recorded values).
    {
        let target = 2.5;
        let gate = h
            .large_n
            .iter()
            .find(|r| r.workload == "random2" && (smoke || r.n == 1 << 17));
        if let Some(g) = gate {
            if let Some(sp) = g.speedup {
                println!(
                    "\nacceptance: large_n n={} random2 streamed+packed vs materialized u64 = {sp:.2}x (target >= {target}x)",
                    g.n
                );
                if !smoke {
                    assert!(
                        sp >= target,
                        "large_n streamed gate failed: {sp:.2}x < {target}x"
                    );
                }
            }
        }
        for r in &h.large_n {
            let vs = match r.speedup {
                Some(sp) => format!("{sp:6.2}x vs materialized-wide"),
                None => "streamed only (materialized twin capped)".to_string(),
            };
            println!(
                "large_n  {:<12} n={:<8} {} cycles={}",
                r.workload, r.n, vs, r.cycles
            );
        }
    }

    // The topology comparison: same permutation, four machines. No gate —
    // these are facts about the hardware trade-off (the oversubscribed pod
    // tree *should* schedule in more cycles; that is what it trades for
    // 4x fewer core cables), printed so a regression in the embedding or
    // the cost model is visible at a glance.
    for t in &h.topology {
        println!(
            "topology {:<24} leaves={:<4} lambda<={:<6.2} lambda={:<6.2} sched_cycles={:<3} del/cyc={:<7.2} switches={:<4} cables={:<5} bisection={}",
            t.spec,
            t.leaves,
            t.lambda_bound,
            t.lambda,
            t.sched_cycles,
            t.delivered_per_cycle,
            t.switches,
            t.cables,
            t.bisection
        );
    }

    // The run_sharded gate is parallelism-aware. With two or more cores the
    // overlapped coordinator must beat the single arena outright — four
    // workers compute their subtrees concurrently while the coordinator
    // merges. On a one-core host parallel speedup is physically impossible
    // (every "concurrent" worker timeslices the same CPU and the protocol
    // is pure overhead on top of the identical arbitration work), so the
    // gate instead pins the overhead floor the v2 protocol achieves there:
    // the overlapped coordinator + compact frames measured 0.81-0.82x on
    // the original 1-core validation host (the v1 lock-step barrier
    // measured 0.76x, and moved 1.7x as many wire bytes). The floor was
    // recalibrated from 0.70 after an unchanged protocol measured
    // 0.67-0.71x across repeated runs on a slower 1-core container — five
    // threads timeslicing one CPU put the old threshold inside the
    // scheduler-noise band; 0.65 keeps the same relative margin below the
    // low end of the measured range. Both sides of the duel run the wide
    // (u64) metadata layout — the computation the shards distribute — so
    // this ratio stays a protocol-overhead measurement as the serial
    // engine's packed-u32 path (gated in large_n) keeps improving.
    {
        let shard_gate_target = if threads >= 2 { 1.0 } else { 0.65 };
        if let Some(g) = h.speedups.iter().find(|s| s.op == "run_sharded") {
            println!(
                "\nacceptance: run_sharded n={} random2 speedup = {:.2}x (target >= {shard_gate_target}x on {threads} core(s))",
                g.n, g.speedup
            );
            if !smoke {
                assert!(
                    g.speedup >= shard_gate_target,
                    "run_sharded speedup gate failed: {:.2}x < {shard_gate_target}x",
                    g.speedup
                );
            }
        }
        for p in &h.shard_scaling {
            println!(
                "scaling  run_sharded shards={} n={:<7} {:6.2}x vs single arena",
                p.shards, p.n, p.speedup
            );
        }
    }

    // The serve gate pins this PR's tentpole win: the coalescing service
    // must beat one-process-per-request by 2x on throughput while every
    // response stays byte-identical to a solo run (asserted inside
    // `bench_serve` on every pass, smoke included). 2x is conservative —
    // per-request process spawn plus tree/arena construction costs
    // milliseconds against the service's sub-millisecond coalesced passes —
    // but the gate is about the *shape* of the win (amortization), and a
    // loaded CI host still clears a 2x bar without flakes.
    if let Some(s) = &h.serve {
        println!(
            "\nserve    n={} slots={} clients={} x {} reqs: {:.0} req/s, p50 {} us, p99 {} us, batch mean {:.3}, lambda_max {:.3}",
            s.n,
            s.slots,
            s.clients,
            s.requests,
            s.requests_per_sec,
            s.p50_us,
            s.p99_us,
            s.batch_mean_x1000 as f64 / 1000.0,
            s.lambda_max,
        );
        println!(
            "serve    cold-arena baseline {} ns/req -> {:.2}x coalesced (context, ungated)",
            s.baseline_cold_arena_ns, s.speedup_vs_cold
        );
        match (s.baseline_process_ns, s.speedup_vs_process) {
            (Some(ns), Some(sp)) => {
                let target = 2.0;
                println!(
                    "\nacceptance: serve coalesced vs process-per-request = {sp:.2}x ({ns} ns/req solo) (target >= {target}x)"
                );
                if !smoke {
                    assert!(
                        sp >= target,
                        "serve throughput gate failed: {sp:.2}x < {target}x"
                    );
                }
            }
            _ => println!(
                "\nacceptance: serve process baseline skipped (ftsim binary not found; build with `cargo build --release` and pass --ftsim)"
            ),
        }
    }

    // The telemetry gate pins the observability tentpole's cost ceiling:
    // the full hub (histograms, spans, seqlock budget, a listener being
    // scraped) must keep ≥ 95% of no-op-recorder throughput. The hot path
    // only touches relaxed atomics and a per-request Instant read, so the
    // real ratio sits at ~1.0; 0.95 absorbs CI noise without letting a
    // lock or allocation sneak into the pipeline unnoticed.
    if let Some(t) = &h.telemetry_overhead {
        println!(
            "\nacceptance: telemetry overhead full {:.0} req/s vs noop {:.0} req/s, best paired round = {:.3}x (target >= 0.95x over {} rounds)",
            t.full_rps, t.noop_rps, t.ratio, t.rounds
        );
        if !smoke {
            assert!(
                t.ratio >= 0.95,
                "telemetry overhead gate failed: {:.3}x < 0.95x",
                t.ratio
            );
        }
    }

    if smoke {
        if let Some(path) = &out_path {
            // Write the (tiny but schema-complete) smoke JSON so check.sh
            // can validate the writer end to end with `bench_check`.
            std::fs::write(path, to_json(&h)).expect("write bench json");
            println!("\nsmoke pass complete; wrote {path}");
        } else {
            println!("\nsmoke pass complete; no file written");
        }
        return;
    }
    if shard_gate_only {
        println!("\nshard gate pass complete; no file written");
        return;
    }

    // --- Telemetry: one instrumented run per gate configuration, so the
    // JSON explains *why* a gate is fast or slow (per-level contention, λ
    // breakdown, load histograms), not just how fast it is.
    {
        let n = 1 << 14;
        let ft = tree(n);
        let cfg = SimConfig::default();
        let msgs = workload("permutation", n, 0xC0FFEE ^ n as u64);
        let mut arena = SimArena::new(&ft, &cfg);
        let mut rec = MetricsRecorder::new();
        arena.cycle_with(&ft, msgs.as_slice(), &cfg, &mut rec);
        h.gate_runs
            .push(("simulate_cycle", n, "permutation", rec.to_json()));

        let msgs = workload("random2", n, 0x5EED ^ n as u64);
        let mut rec = MetricsRecorder::new();
        SchedArena::new(&ft).schedule_with(&ft, &msgs, 1, &mut rec);
        h.gate_runs
            .push(("schedule_theorem1", n, "random2", rec.to_json()));

        let n = 1 << 12;
        let ft = tree(n);
        let msgs = workload("random2", n, 0xF00D ^ n as u64);
        let mut rng = SplitMix64::seed_from_u64(0xD1CE ^ n as u64);
        let mut rec = MetricsRecorder::new();
        OnlineArena::new(&ft).run_with(&ft, &msgs, &mut rng, OnlineConfig::default(), &mut rec);
        h.gate_runs
            .push(("online_route", n, "random2", rec.to_json()));
    }

    let json = to_json(&h);
    let path = out_path.as_deref().unwrap_or("BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("\nwrote {path} ({} results)", h.rows.len());
}

/// Measure the `ftsim serve` tentpole end to end: spawn the coalescing
/// server in-process on a loopback socket, drive it with the bench client,
/// and duel the result against the two per-request deployments the service
/// replaces. The closed-loop pass runs with verification on (every response
/// recomputed solo and compared word-for-word), so `outputs_match_solo` is
/// a measured fact, not an assumption; latency percentiles come from that
/// pass too. Throughput comes from an open-loop pass at pipeline depth 8 —
/// enough outstanding requests per connection that the batching window has
/// real coalescing opportunities instead of ping-ponging single requests.
fn bench_serve(smoke: bool, ftsim: &str) -> ServeBench {
    let (n, slots, clients, requests, messages): (u32, u32, usize, u64, usize) = if smoke {
        (64, 4, 2, 64, 32)
    } else {
        (256, 8, 4, 2_000, 64)
    };
    let w = (n as u64 / 4).max(1);
    let seed = 0xBE7C;
    // The headline serve numbers are measured with the observability hub
    // live — the deployment configuration, not a stripped-down one.
    let server = serve_spawn(ServerConfig {
        n,
        w,
        slots,
        window_us: 200,
        inflight: 64,
        idle_ms: 5_000,
        max_requests: 0,
        addr: "127.0.0.1:0".to_string(),
        metrics: true,
        metrics_addr: None,
    })
    .expect("spawn serve bench server");
    let base = BenchConfig {
        addr: server.addr().to_string(),
        n,
        w,
        clients,
        requests,
        messages,
        seed,
        engine: ServeEngine::Schedule,
        mode: BenchMode::Closed,
        verify: true,
    };
    let closed = serve_bench(&base).expect("serve closed-loop bench");
    assert_eq!(
        closed.ok, requests,
        "serve closed loop: every request must be answered"
    );
    let outputs_match_solo = closed.verified == requests && closed.mismatches == 0;
    assert!(
        outputs_match_solo,
        "serve responses must match solo recomputation ({} verified, {} mismatches)",
        closed.verified, closed.mismatches
    );
    let mut open_cfg = base.clone();
    open_cfg.verify = false;
    open_cfg.mode = BenchMode::Open { depth: 8 };
    let open = serve_bench(&open_cfg).expect("serve open-loop bench");
    assert_eq!(
        open.ok + open.busy,
        requests,
        "serve open loop: every request answered or rejected"
    );
    let stats = server.stop();
    let service_ns_per_req = if open.ok == 0 {
        u128::MAX
    } else {
        open.elapsed_ns as u128 / open.ok as u128
    };

    // Baseline 1 (context, ungated): a cold `SchedArena` rebuilt for every
    // request in the same process — what a caller pays for small requests
    // without a warm shared service. Median over a sample of the identical
    // request workload.
    let ft = tree(n);
    let sample: usize = if smoke { 16 } else { 64 };
    let mut packed = Vec::new();
    let mut msgs: Vec<Message> = Vec::new();
    let mut assign = Vec::new();
    let mut cold = Vec::with_capacity(sample);
    for i in 0..sample as u64 {
        let rs = request_seed(seed, (i % clients as u64) as usize, i);
        request_msgs(rs, messages, n, &mut packed);
        msgs.clear();
        msgs.extend(
            packed
                .iter()
                .map(|&wd| Message::new((wd >> 32) as u32, wd as u32)),
        );
        let t = std::time::Instant::now();
        let mut arena = SchedArena::new(&ft);
        let stream = SliceStream::new(&msgs, "serve-baseline");
        let (cycles, _) = arena.schedule_assign(&ft, &stream, 1, &mut assign);
        let dt = t.elapsed().as_nanos();
        std::hint::black_box(cycles);
        cold.push(dt);
    }
    cold.sort_unstable();
    let baseline_cold_arena_ns = cold[cold.len() / 2];
    let speedup_vs_cold = baseline_cold_arena_ns as f64 / service_ns_per_req as f64;

    // Baseline 2 (the acceptance gate): one `ftsim schedule` OS process
    // per request — the deployment the service exists to replace. The
    // per-process cost is dominated by spawn + tree/arena construction,
    // which is exactly the amortization the serve path buys, so the
    // workload inside (one n-leaf permutation) being a superset of a
    // 64-message request only makes the gate harder to miss for the wrong
    // reason. Null (gate skipped) when the binary isn't built.
    let trials = if smoke { 3 } else { 9 };
    let baseline_process_ns = bench_process_baseline(ftsim, n, w, seed, trials);
    let speedup_vs_process = baseline_process_ns.map(|ns| ns as f64 / service_ns_per_req as f64);

    ServeBench {
        n,
        w,
        slots,
        clients,
        requests,
        messages_per_request: messages,
        requests_per_sec: open.requests_per_sec(),
        p50_us: closed.p50_us,
        p99_us: closed.p99_us,
        busy: open.busy,
        reject_rate: open.busy as f64 / requests.max(1) as f64,
        batches: stats.batches,
        batch_max: stats.batch_max,
        batch_mean_x1000: stats.batch_mean_x1000,
        lambda_max: stats.lambda_max,
        outputs_match_solo,
        baseline_cold_arena_ns,
        speedup_vs_cold,
        baseline_process_ns,
        speedup_vs_process,
    }
}

/// Measure what the observability layer costs on the serve hot path: the
/// identical open-loop workload against a server with the full hub live
/// (stage/wall histograms, span ring, seqlock λ-budget, metrics listener
/// bound and scraped once per round) and against one with the hub gated
/// off — the no-op-recorder baseline. Rounds interleave full/noop so slow
/// machine drift hits both sides equally; best-of-rounds throughput on
/// each side damps scheduler noise. Both servers stay up for the whole
/// duel so neither side pays cold-start costs.
fn bench_telemetry_overhead(smoke: bool) -> TelemetryOverhead {
    let (n, slots, clients, requests, messages): (u32, u32, usize, u64, usize) = if smoke {
        (64, 4, 2, 1_024, 32)
    } else {
        (256, 8, 4, 2_000, 64)
    };
    let w = (n as u64 / 4).max(1);
    // Even counts so the alternating run order is balanced.
    let rounds = if smoke { 4 } else { 6 };
    let spawn_with = |metrics: bool| {
        serve_spawn(ServerConfig {
            n,
            w,
            slots,
            window_us: 200,
            inflight: 64,
            idle_ms: 5_000,
            max_requests: 0,
            addr: "127.0.0.1:0".to_string(),
            metrics,
            metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
        })
        .expect("spawn overhead-duel server")
    };
    let full = spawn_with(true);
    let noop = spawn_with(false);
    let maddr = full.metrics_addr().expect("metrics listener bound");
    let cfg_for = |addr: String| BenchConfig {
        addr,
        n,
        w,
        clients,
        requests,
        messages,
        seed: 0x0B5E,
        engine: ServeEngine::Schedule,
        mode: BenchMode::Open { depth: 8 },
        verify: false,
    };
    let full_cfg = cfg_for(full.addr().to_string());
    let noop_cfg = cfg_for(noop.addr().to_string());
    let run_side = |cfg: &BenchConfig, side: &str| -> f64 {
        let r = serve_bench(cfg).expect("overhead duel bench");
        assert_eq!(r.ok + r.busy, requests, "{side} side lost requests");
        r.requests_per_sec()
    };
    let (mut full_rps, mut noop_rps, mut ratio) = (0.0f64, 0.0f64, 0.0f64);
    for round in 0..rounds {
        // Back-to-back pairing, alternating who goes first, so slow
        // machine drift and warm-up bias hit both sides symmetrically.
        let (f, p) = if round % 2 == 0 {
            let f = run_side(&full_cfg, "full");
            (f, run_side(&noop_cfg, "noop"))
        } else {
            let p = run_side(&noop_cfg, "noop");
            (run_side(&full_cfg, "full"), p)
        };
        full_rps = full_rps.max(f);
        noop_rps = noop_rps.max(p);
        ratio = ratio.max(f / p);
        // One scrape per round: the gate measures the deployment where the
        // endpoint is actually being read, not a listener nobody talks to.
        let page = ft_serve::metrics::http_get(maddr, "/metrics.json")
            .expect("scrape during overhead duel");
        assert!(page.contains("\"schema\":\"ftsim-metrics/v1\""));
    }
    full.stop();
    noop.stop();
    TelemetryOverhead {
        full_rps,
        noop_rps,
        ratio,
        rounds,
        requests_per_round: requests,
    }
}

/// Median wall clock of one `ftsim schedule` process per request — spawn,
/// build the tree and arena, schedule one workload, exit. Returns `None`
/// when `ftsim` isn't at the given path (smoke containers don't always
/// build the release binary); the serve gate prints a note and skips.
fn bench_process_baseline(ftsim: &str, n: u32, w: u64, seed: u64, trials: usize) -> Option<u128> {
    if !std::path::Path::new(ftsim).exists() {
        return None;
    }
    let mut times = Vec::with_capacity(trials);
    for i in 0..trials {
        let t = std::time::Instant::now();
        let status = std::process::Command::new(ftsim)
            .args([
                "schedule",
                "--n",
                &n.to_string(),
                "--w",
                &w.to_string(),
                "--workload",
                "perm",
                "--seed",
                &(seed ^ i as u64).to_string(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => times.push(t.elapsed().as_nanos()),
            _ => return None,
        }
    }
    times.sort_unstable();
    Some(times[times.len() / 2])
}

/// Hand-rolled JSON (the workspace has no serde): schema in EXPERIMENTS.md.
fn to_json(h: &Harness) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n  \"schema\": \"ft-perf/v1\",\n  \"results\": [\n");
    for (i, r) in h.rows.iter().enumerate() {
        let sep = if i + 1 < h.rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"engine\": \"{}\", \"n\": {}, \"workload\": \"{}\", \"median_ns\": {}, \"iters\": {}}}{sep}\n",
            r.op, r.engine, r.n, r.workload, r.median_ns, r.iters
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    for (i, s) in h.speedups.iter().enumerate() {
        let sep = if i + 1 < h.speedups.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"n\": {}, \"workload\": \"{}\", \"speedup\": {:.3}}}{sep}\n",
            s.op, s.n, s.workload, s.speedup
        ));
    }
    out.push_str("  ],\n  \"large_n\": [\n");
    for (i, r) in h.large_n.iter().enumerate() {
        let sep = if i + 1 < h.large_n.len() { "," } else { "" };
        let mat = r
            .materialized_ns
            .map_or("null".to_string(), |ns| ns.to_string());
        let sp = r.speedup.map_or("null".to_string(), |x| format!("{x:.3}"));
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"streamed_median_ns\": {}, \"materialized_median_ns\": {mat}, \"speedup\": {sp}, \"cycles\": {}}}{sep}\n",
            r.workload, r.n, r.streamed_ns, r.cycles
        ));
    }
    out.push_str("  ],\n  \"topology\": [\n");
    for (i, t) in h.topology.iter().enumerate() {
        let sep = if i + 1 < h.topology.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"spec\": \"{}\", \"leaves\": {}, \"padded_n\": {}, \"messages\": {}, \"lambda_bound\": {:.6}, \"lambda\": {:.6}, \"sched_cycles\": {}, \"sim_cycles\": {}, \"delivered_per_cycle\": {:.3}, \"switches\": {}, \"cables\": {}, \"wires\": {}, \"bisection\": {}, \"volume_proxy\": {:.3}}}{sep}\n",
            t.family,
            t.spec,
            t.leaves,
            t.padded_n,
            t.messages,
            t.lambda_bound,
            t.lambda,
            t.sched_cycles,
            t.sim_cycles,
            t.delivered_per_cycle,
            t.switches,
            t.cables,
            t.wires,
            t.bisection,
            t.volume_proxy,
        ));
    }
    out.push_str("  ],\n");
    if let Some(s) = &h.serve {
        let proc_ns = s
            .baseline_process_ns
            .map_or("null".to_string(), |ns| ns.to_string());
        let proc_sp = s
            .speedup_vs_process
            .map_or("null".to_string(), |x| format!("{x:.3}"));
        out.push_str(&format!(
            "  \"serve\": {{\"n\": {}, \"w\": {}, \"slots\": {}, \"clients\": {}, \"requests\": {}, \"messages_per_request\": {}, \"requests_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"busy\": {}, \"reject_rate\": {:.4}, \"batches\": {}, \"batch_max\": {}, \"batch_mean_x1000\": {}, \"lambda_max\": {:.6}, \"outputs_match_solo\": {}, \"baseline_cold_arena_ns\": {}, \"speedup_vs_cold\": {:.3}, \"baseline_process_ns\": {proc_ns}, \"speedup_vs_process\": {proc_sp}}},\n",
            s.n,
            s.w,
            s.slots,
            s.clients,
            s.requests,
            s.messages_per_request,
            s.requests_per_sec,
            s.p50_us,
            s.p99_us,
            s.busy,
            s.reject_rate,
            s.batches,
            s.batch_max,
            s.batch_mean_x1000,
            s.lambda_max,
            s.outputs_match_solo,
            s.baseline_cold_arena_ns,
            s.speedup_vs_cold,
        ));
    }
    if let Some(t) = &h.telemetry_overhead {
        out.push_str(&format!(
            "  \"telemetry_overhead\": {{\"full_rps\": {:.1}, \"noop_rps\": {:.1}, \"ratio\": {:.4}, \"rounds\": {}, \"requests_per_round\": {}}},\n",
            t.full_rps, t.noop_rps, t.ratio, t.rounds, t.requests_per_round
        ));
    }
    if let Some((n, shards, st, matches)) = &h.shard_stats {
        let ns_list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        out.push_str(&format!(
            "  \"shard\": {{\"n\": {n}, \"shards\": {shards}, \"transport\": \"{}\", \"matches_single_arena\": {matches}, \"frames_sent\": {}, \"frames_received\": {}, \"bytes_sent\": {}, \"bytes_received\": {}, \"retries\": {}, \"checksum_rejects\": {}, \"duplicates\": {}, \"barrier_wait_ns\": {}, \"top_ns\": {}, \"merge_ns\": {}, \"shard_up_ns\": [{}], \"shard_down_ns\": [{}]}},\n",
            st.transport,
            st.frames_sent,
            st.frames_received,
            st.words_sent * 8,
            st.words_received * 8,
            st.retries,
            st.checksum_rejects,
            st.duplicates,
            st.barrier_wait_ns,
            st.top_ns,
            st.merge_ns,
            ns_list(&st.shard_up_ns),
            ns_list(&st.shard_down_ns),
        ));
    }
    if !h.shard_scaling.is_empty() {
        out.push_str("  \"shard_scaling\": [\n");
        for (i, p) in h.shard_scaling.iter().enumerate() {
            let sep = if i + 1 < h.shard_scaling.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"shards\": {}, \"n\": {}, \"workload\": \"random2\", \"sharded_median_ns\": {}, \"single_median_ns\": {}, \"speedup\": {:.3}}}{sep}\n",
                p.shards, p.n, p.sharded_ns, p.single_ns, p.speedup
            ));
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"telemetry\": {\n");
    out.push_str(&format!(
        "    \"size_caps\": {{\"run_to_completion_hotspot\": {RTC_HOTSPOT_CAP}, \"run_to_completion_hotspot_reference\": {RTC_REF_HOTSPOT_CAP}, \"online_route_hotspot_duel\": {ONLINE_HOTSPOT_DUEL_CAP}, \"reference_duel\": {REFERENCE_DUEL_CAP}}},\n"
    ));
    out.push_str("    \"capped_rows\": [\n");
    for (i, c) in h.capped.iter().enumerate() {
        let sep = if i + 1 < h.capped.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"op\": \"{}\", \"engine\": \"{}\", \"n\": {}, \"workload\": \"{}\", \"cap\": {}}}{sep}\n",
            c.op, c.engine, c.n, c.workload, c.cap
        ));
    }
    out.push_str("    ],\n    \"gate_runs\": [\n");
    for (i, (op, n, wl, metrics)) in h.gate_runs.iter().enumerate() {
        let sep = if i + 1 < h.gate_runs.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"op\": \"{op}\", \"n\": {n}, \"workload\": \"{wl}\", \"metrics\": {metrics}}}{sep}\n"
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
