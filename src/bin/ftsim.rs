//! `ftsim` — explore fat-trees from the command line.
//!
//! ```text
//! ftsim tree       --n 256 --w 64                 capacity profile (Fig. 1)
//! ftsim topology   --topology kary:k=8,over=4 [--format json]
//! ftsim schedule   --n 256 --w 64 --workload perm [--scheduler thm1] [--seed 1]
//! ftsim online     --n 256 --w 64 --workload krel:8
//! ftsim simulate   --n 256 --w 64 --workload complement [--switch partial] [--arb random]
//!                  [--format json]
//! ftsim report     --n 256 --w 64 --workload perm [--format json]
//! ftsim trace      --n 64 --workload perm [--engine online|simulate|schedule]
//!                  [--events 4096] [--format jsonl|csv] [--verify 1]
//! ftsim shard      --n 256 --w 64 --workload perm --shards 4
//!                  [--transport inproc|pipe] [--drop 0.1] [--dup 0.1]
//!                  [--corrupt 0.1] [--delay-ms 5] [--fault-seed 7]
//!                  [--timeout-ms 5000] [--retries 4] [--format text|json]
//!                  [--metrics-addr HOST:PORT]
//! ftsim serve      --n 256 --w 64 [--addr 127.0.0.1:0] [--slots 8]
//!                  [--window-us 200] [--inflight 64] [--idle-ms 5000]
//!                  [--max-requests 0] [--metrics 0|1]
//!                  [--metrics-addr HOST:PORT]
//! ftsim bench-client --addr HOST:PORT --n 256 --w 64 [--clients 4]
//!                  [--requests 200] [--messages 64] [--seed 1985]
//!                  [--engine schedule|online] [--mode closed|open|burst|dead]
//!                  [--depth 8] [--hold-ms 500] [--verify 1]
//! ftsim metrics-scrape --addr HOST:PORT [--path /metrics.json]
//! ftsim universality --net mesh3d --side 4
//! ftsim emulate    --net hypercube --dim 6
//! ftsim layout     --n 1024 --w 128
//! ```
//!
//! Workloads: `perm`, `complement`, `reversal`, `transpose`, `shuffle`,
//! `fem`, `hotspot`, `krel:K` (an integer K ≥ 1), `local:P` (P =
//! far-probability percent, an integer in 1..=99), `exchange`.
//!
//! Each subcommand reads only the flags listed beside it in `COMMANDS`;
//! any other `--key` is a usage error (exit 2) that names the key and
//! lists the flags the subcommand does read.
//!
//! Every tree-running subcommand (`tree`, `topology`, `schedule`, `online`,
//! `simulate`, `report`, `trace`, `shard`, `layout`) accepts
//! `--topology SPEC` instead of `--n`/`--w` and then runs on the
//! generalized topology through its binary embedding
//! ([`fat_tree::topology::Embedded`]). Specs (`fat_tree::topology::parse_spec`):
//! `universal:n=256,w=64`, `constant:n=64,c=4`, `doubling:n=64`,
//! `perlevel:n=16,caps=8/4/2/1/1`, `degree:n=64,w=32,d=2`,
//! `kary:k=8,over=4` (Al-Fares-style k-ary pods, k³/4 servers), and
//! `twolayer:r=48,p=24,n=1000` (Solnushkin two-layer, radix-r switches).
//! Workloads are generated over the topology's *real* processor ids and
//! mapped onto the padded tree; the collectives (`allreduce`/`alltoall`)
//! default their pod size to the topology's own pods and work for
//! non-power-of-two pods. `serve` and `bench-client` accept binary
//! `universal:` specs (the streaming engine serves that family);
//! `universality`, `emulate`, and `metrics-scrape` reject the flag.
//! `ftsim topology` prints the per-level structure, the permutation-λ
//! lower bound, and the hardware cost model (switches, cables, wires,
//! bisection, volume proxy) as text or one `ftsim-topology/v1` JSON line.
//!
//! Streamed workloads (lazy generators, never materialized by `simulate`):
//! `streamperm`, `bursty[:BURST]` (2n messages in bursts of BURST, default
//! 8), `incast[:FANIN]` (FANIN sources per sink over 4 waves, default n/2),
//! `allreduce[:POD]` (ring reduce-scatter + all-gather over pods, default
//! n/4), `alltoall[:POD]` (full exchange inside each pod, default n/8).
//! Every command accepts them; `simulate` feeds the generator straight into
//! the arena via the streamed ingest path.
//!
//! `report` runs the workload through every engine with a
//! [`MetricsRecorder`] and prints the per-level λ breakdown, on-line
//! contention, channel load histograms, and cascade matching statistics
//! (one JSON object with `--format json`). `trace` captures packed events
//! from one engine in a ring buffer and writes them as JSONL or CSV;
//! `--verify 1` re-parses the JSONL and fails on any mismatch (with any
//! output format). `shard` runs the workload through the distributed
//! sharded engine — one frame link per shard, spawned as worker threads
//! (`--transport inproc`) or as worker processes speaking the same frames
//! over pipes (`--transport pipe`), optionally under injected frame faults
//! — and checks the result is byte-identical to the single-arena engine.
//! The internal `shard-worker` command is what `--transport pipe` spawns;
//! it is not for interactive use.
//!
//! `serve` runs the streaming scheduler service: concurrent clients submit
//! routing requests over checksummed frames, small requests coalesce into
//! shared arena passes, and responses are byte-identical to solo runs. It
//! prints one `ftsim-serve/v1` JSON line when listening (with the resolved
//! address) and one summary line at shutdown; it stops on stdin EOF or
//! after `--max-requests`. `bench-client` drives a running server with N
//! concurrent connections (closed-loop, fixed-depth open-loop, burst, or
//! dead-client modes) and prints a `ftsim-serve/v1` bench summary;
//! `--verify 1` recomputes every response solo in-process and fails on any
//! mismatch.
//!
//! `serve --metrics-addr` binds a second listener exposing live telemetry
//! without touching the service port: `/metrics` (Prometheus text),
//! `/metrics.json` (a `ftsim-metrics/v1` document), and `/spans`
//! (request-span JSONL replayable through [`parse_jsonl`]).
//! `shard --metrics-addr` exposes live per-link frame / retry / checksum
//! counters the same way while the coordinator runs. `metrics-scrape`
//! fetches one page over plain HTTP/1.0 and prints it — the smoke path
//! needs no curl.

use fat_tree::concentrator::{Cascade, Concentrator, MatchingArena};
use fat_tree::core::rng::SplitMix64;
use fat_tree::core::LevelLoads;
use fat_tree::layout::FatTreeLayout;
use fat_tree::networks::{
    Butterfly, CubeConnectedCycles, FixedConnectionNetwork, Hypercube, Mesh2D, Mesh3D, Ring,
    ShuffleExchange, Torus2D, TreeMachine,
};
use fat_tree::prelude::*;
use fat_tree::sched::online::online_bound_shape;
use fat_tree::sched::SchedArena;
use fat_tree::shard::{run_sharded, run_sharded_with, FaultPlan, ShardConfig, TransportKind};
use fat_tree::sim::{run_to_completion_with, Arbitration, MAX_MESSAGES};
use fat_tree::telemetry::parse_jsonl;
use fat_tree::universal::Emulation;
use fat_tree::workloads;
use fat_tree::workloads::{
    AllReduceStream, AllToAllStream, BurstyStream, IncastStream, PermutationStream, PodAllReduce,
    PodAllToAll,
};
use std::collections::HashMap;
use std::process::exit;

/// A subcommand's entry point.
type Command = fn(&HashMap<String, String>);

/// Every subcommand with the flags it reads — the only `--key`s it accepts.
/// (`metrics-scrape`, `universality` and `emulate` read `--topology` only
/// to refuse it with a reason.)
#[rustfmt::skip]
const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("tree", cmd_tree, &["topology", "n", "w"]),
    ("topology", cmd_topology, &["topology", "n", "w", "format"]),
    ("schedule", cmd_schedule, &["topology", "n", "w", "workload", "seed", "scheduler"]),
    ("online", cmd_online, &["topology", "n", "w", "workload", "seed"]),
    ("simulate", cmd_simulate, &["topology", "n", "w", "workload", "seed", "switch", "arb",
        "payload", "format"]),
    ("report", cmd_report, &["topology", "n", "w", "workload", "seed", "shards", "format"]),
    ("trace", cmd_trace, &["topology", "n", "w", "workload", "seed", "events", "engine",
        "format", "verify"]),
    ("shard", cmd_shard, &["topology", "n", "w", "workload", "seed", "switch", "arb", "payload",
        "shards", "transport", "drop", "dup", "corrupt", "delay-ms", "fault-seed", "timeout-ms",
        "retries", "format", "metrics-addr"]),
    ("shard-worker", cmd_shard_worker, &[]),
    ("serve", cmd_serve, &["topology", "n", "w", "addr", "slots", "window-us", "inflight",
        "idle-ms", "max-requests", "metrics", "metrics-addr"]),
    ("bench-client", cmd_bench_client, &["topology", "n", "w", "addr", "engine", "mode", "depth",
        "hold-ms", "clients", "requests", "messages", "seed", "verify"]),
    ("metrics-scrape", cmd_metrics_scrape, &["topology", "addr", "path"]),
    ("universality", cmd_universality, &["topology", "net", "side", "dim", "seed"]),
    ("emulate", cmd_emulate, &["topology", "net", "side", "dim"]),
    ("layout", cmd_layout, &["topology", "n", "w"]),
    ("help", |_| usage(), &[]),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage();
        exit(2);
    };
    let name = match cmd.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let Some(&(_, run, reads)) = COMMANDS.iter().find(|(c, ..)| *c == name) else {
        eprintln!("unknown command: {cmd}");
        usage();
        exit(2);
    };
    let opts = parse_opts(args.collect());
    let mut unread: Vec<&str> = opts.keys().map(String::as_str).collect();
    unread.retain(|k| !reads.contains(k));
    if !unread.is_empty() {
        unread.sort_unstable();
        let dashed = |keys: &[&str]| keys.iter().map(|k| format!("--{k}")).collect::<Vec<_>>();
        let known = dashed(reads).join(" ");
        eprintln!(
            "`{name}` does not read {}; it reads {}",
            dashed(&unread).join(" "),
            if known.is_empty() { "no flags" } else { &known }
        );
        exit(2);
    }
    run(&opts);
}

/// Internal: the pipe-transport worker half. Speaks frames on stdin/stdout
/// until shutdown or EOF.
fn cmd_shard_worker(_: &HashMap<String, String>) {
    if let Err(e) = fat_tree::shard::run_pipe(std::io::stdin().lock(), std::io::stdout().lock()) {
        eprintln!("shard-worker: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage: ftsim <tree|topology|schedule|online|simulate|report|trace|shard|serve|bench-client|metrics-scrape|universality|emulate|layout> [--key value]…\n\
         see the module docs (src/bin/ftsim.rs) for options"
    );
}

fn parse_opts(args: Vec<String>) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.into_iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            eprintln!("expected --key, got {k}");
            exit(2);
        };
        let Some(v) = it.next() else {
            eprintln!("missing value for --{key}");
            exit(2);
        };
        map.insert(key.to_string(), v);
    }
    map
}

fn get_f64(opts: &HashMap<String, String>, key: &str, default: f64) -> f64 {
    opts.get(key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects a number, got {v}");
            exit(2)
        })
    })
}

fn get_u32(opts: &HashMap<String, String>, key: &str, default: u32) -> u32 {
    opts.get(key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} expects an integer, got {v}");
            exit(2)
        })
    })
}

/// The machine a tree-running subcommand works on: a plain binary fat-tree
/// from `--n`/`--w`, or any generalized topology from `--topology SPEC`,
/// compiled onto its padded binary embedding. Workloads are generated over
/// the *real* processor ids (`0..leaves()`) and mapped onto the padded
/// tree; for the binary family the map is the identity and every engine
/// input is byte-identical to the pre-topology code path.
struct Machine {
    emb: Embedded,
    /// `--topology` was given (drives spec-aware output and pod defaults).
    explicit: bool,
}

impl Machine {
    fn tree(&self) -> &FatTree {
        self.emb.tree()
    }

    fn leaves(&self) -> u32 {
        self.emb.leaves()
    }

    fn spec(&self) -> &str {
        self.emb.topology().spec()
    }

    /// Map a real-id workload onto the padded tree (a clone when binary).
    fn map(&self, msgs: &MessageSet) -> MessageSet {
        self.emb.map_set(msgs)
    }

    /// Extra JSON field announcing the topology, or empty on the classic
    /// `--n`/`--w` path so existing consumers see unchanged documents.
    fn json_field(&self) -> String {
        if self.explicit {
            format!("\"topology\":\"{}\",", self.spec())
        } else {
            String::new()
        }
    }

    /// One text line announcing the embedding, printed only under
    /// `--topology` so classic output stays byte-identical.
    fn announce(&self) {
        if self.explicit {
            println!(
                "topology {}: {} processors embedded on a padded binary tree of n = {}",
                self.spec(),
                self.leaves(),
                self.emb.padded_n()
            );
        }
    }
}

/// The one shared machine resolver: every subcommand gets its topology
/// here, so bad specs die identically everywhere (exit 2). `--n`/`--w` are
/// shorthand for `universal:n=..,w=..` and go through the spec parser too:
/// a size it refuses is a usage error, never an assertion in a constructor.
fn topology_from(opts: &HashMap<String, String>) -> Topology {
    match opts.get("topology") {
        Some(spec) => {
            if opts.contains_key("n") || opts.contains_key("w") {
                eprintln!("--topology replaces --n/--w: sizes live in the spec ({spec})");
                exit(2);
            }
            parse_topology(spec)
        }
        None => {
            let n = get_u32(opts, "n", 256);
            let w = get_u32(opts, "w", (n / 4).max(1));
            parse_topology(&format!("universal:n={n},w={w}"))
        }
    }
}

fn machine_from(opts: &HashMap<String, String>) -> Machine {
    Machine {
        emb: Embedded::new(topology_from(opts)),
        explicit: opts.contains_key("topology"),
    }
}

fn parse_topology(spec: &str) -> Topology {
    parse_spec(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

/// Subcommands with no fat-tree to run on refuse the flag loudly instead
/// of silently ignoring it.
fn reject_topology(opts: &HashMap<String, String>, cmd: &str, why: &str) {
    if opts.contains_key("topology") {
        eprintln!("--topology does not apply to `{cmd}`: {why}");
        exit(2);
    }
}

/// `serve`/`bench-client` speak the binary universal engine's `(n, w)`
/// wire protocol: accept `--topology universal:n=..,w=..` for uniformity
/// and reject other families with a clear error.
fn universal_nw_from(opts: &HashMap<String, String>, cmd: &str) -> (u32, u64) {
    let topo = topology_from(opts);
    match topo.binary_profile() {
        Some(CapacityProfile::Universal { root_capacity }) => {
            (topo.leaves() as u32, *root_capacity)
        }
        _ => {
            eprintln!(
                "`{cmd}` serves the binary universal family only; --topology {} \
                 is not servable (use universal:n=..,w=..)",
                topo.spec()
            );
            exit(2);
        }
    }
}

/// Generalized topologies can have any processor count; the bit-twiddling
/// workloads only speak powers of two.
fn require_pow2_procs(n: u32, what: &str, m: &Machine) {
    if !n.is_power_of_two() {
        eprintln!(
            "workload {what} needs a power-of-two processor count, but topology {} has {n} \
             (modular workloads: perm, complement, krel:K, local:P, hotspot, allreduce, alltoall)",
            m.spec()
        );
        exit(2);
    }
}

/// Generate the workload over the machine's *real* processor ids. Callers
/// map the result through [`Machine::map`] before handing it to an engine.
/// `krel:K` takes an integer K ≥ 1 with K·n ≤ [`MAX_MESSAGES`], `local:P`
/// an integer percentage in 1..=99; anything else is a usage error (exit 2).
fn workload_from(opts: &HashMap<String, String>, m: &Machine, rng: &mut SplitMix64) -> MessageSet {
    let n = m.leaves();
    let spec = opts.get("workload").map(String::as_str).unwrap_or("perm");
    match spec.split_once(':') {
        Some(("krel", k)) => {
            let k = spec_int(spec, k, 1, u32::MAX);
            let len = k as u64 * n as u64;
            if len > MAX_MESSAGES as u64 {
                eprintln!(
                    "workload {spec} is {len} messages; the simulator takes at most \
                     {MAX_MESSAGES} per run (try a smaller K or --n)"
                );
                exit(2);
            }
            workloads::balanced_k_relation(n, k, rng)
        }
        Some(("local", p)) => {
            let p = spec_int(spec, p, 1, 99);
            workloads::local_traffic(n, 2, p as f64 / 100.0, rng)
        }
        _ => match spec {
            "perm" => workloads::random_permutation(n, rng),
            "complement" => workloads::bit_complement(n),
            "reversal" => {
                require_pow2_procs(n, "reversal", m);
                workloads::bit_reversal(n)
            }
            "transpose" => workloads::transpose(n),
            "shuffle" => {
                require_pow2_procs(n, "shuffle", m);
                workloads::perfect_shuffle(n)
            }
            "fem" => {
                require_pow2_procs(n, "fem", m);
                workloads::FemGrid::with_n(n).sweep_messages_morton()
            }
            "hotspot" => workloads::all_to_one(n, 0),
            "exchange" => {
                require_pow2_procs(n, "exchange", m);
                workloads::total_exchange(n)
            }
            other => match stream_from(opts, m) {
                Some(stream) => stream.collect_set(),
                None => {
                    eprintln!("unknown workload: {other}");
                    exit(2);
                }
            },
        },
    }
}

/// The integer after a workload spec's `:`, which must lie in `lo..=hi`;
/// anything else is a usage error naming the spec (exit 2).
fn spec_int(spec: &str, arg: &str, lo: u32, hi: u32) -> u32 {
    match arg.parse() {
        Ok(v) if (lo..=hi).contains(&v) => v,
        _ => {
            eprintln!("workload {spec}: expected an integer in {lo}..={hi} after ':', got {arg:?}");
            exit(2)
        }
    }
}

/// Parse a streamed-workload spec into a lazy generator over *real*
/// processor ids, or `None` when the spec names one of the materialized
/// workloads above. Specs take an optional `:ARG` suffix (burst size,
/// fan-in, pod size). Under `--topology` the collectives default their pod
/// size to the topology's own pods and run in modular arithmetic, so
/// non-power-of-two pod sizes work.
fn stream_from(opts: &HashMap<String, String>, m: &Machine) -> Option<Box<dyn MessageStream>> {
    let n = m.leaves();
    let spec = opts.get("workload").map(String::as_str).unwrap_or("perm");
    let seed = get_u32(opts, "seed", 1985) as u64;
    let (name, arg) = match spec.split_once(':') {
        Some((name, arg)) => (name, Some(arg)),
        None => (spec, None),
    };
    // The suffix if given (it must lie in `lo..=hi`), else the default
    // clamped into that range.
    let arg_in = |default: u32, lo: u32, hi: u32| {
        arg.map_or(default.clamp(lo, hi), |v| spec_int(spec, v, lo, hi))
    };
    Some(match name {
        "streamperm" if arg.is_none() => {
            require_pow2_procs(n, "streamperm", m);
            Box::new(PermutationStream::new(n, seed))
        }
        "bursty" => {
            require_pow2_procs(n, "bursty", m);
            let burst = arg_in(8, 1, u32::MAX);
            Box::new(BurstyStream::new(n, 2 * n as usize, burst, seed))
        }
        "incast" => {
            require_pow2_procs(n, "incast", m);
            let fanin = arg_in(n / 2, 1, n.saturating_sub(1).max(1));
            Box::new(IncastStream::new(n, fanin, 4, seed))
        }
        "allreduce" => {
            if m.explicit {
                let pod = arg_in(m.emb.topology().pod(), 2, n);
                if !n.is_multiple_of(pod) {
                    eprintln!("workload allreduce: pod size {pod} does not divide {n} processors");
                    exit(2);
                }
                Box::new(PodAllReduce::new(n, pod, seed))
            } else {
                let pod = arg_in(n / 4, 2, n);
                if !pod.is_power_of_two() {
                    eprintln!("workload allreduce: pod size {pod} is not a power of two");
                    exit(2);
                }
                Box::new(AllReduceStream::new(n, pod, seed))
            }
        }
        "alltoall" => {
            if m.explicit {
                let pod = arg_in(m.emb.topology().pod(), 2, n);
                if !n.is_multiple_of(pod) {
                    eprintln!("workload alltoall: pod size {pod} does not divide {n} processors");
                    exit(2);
                }
                Box::new(PodAllToAll::new(n, pod))
            } else {
                let pod = arg_in(n / 8, 2, n);
                if !pod.is_power_of_two() {
                    eprintln!("workload alltoall: pod size {pod} is not a power of two");
                    exit(2);
                }
                Box::new(AllToAllStream::new(n, pod))
            }
        }
        _ => return None,
    })
}

/// The `--net` network. Its size flag must lie in the range the family's
/// constructor accepts, narrowed to at most 2^24 processors (the tallest
/// fat-tree, `FatTree::MAX_HEIGHT`); anything else exits 2.
fn network_from(opts: &HashMap<String, String>) -> Box<dyn FixedConnectionNetwork> {
    let name = opts.get("net").map(String::as_str).unwrap_or("mesh3d");
    type Make = fn(usize) -> Box<dyn FixedConnectionNetwork>;
    let (flag, lo, hi, make): (&str, u32, u32, Make) = match name {
        "mesh2d" => ("side", 2, 4096, |s| Box::new(Mesh2D::new(s, s))),
        "mesh3d" => ("side", 2, 256, |s| Box::new(Mesh3D::new(s))),
        "torus" => ("side", 3, 4096, |s| Box::new(Torus2D::new(s))),
        "ring" => ("side", 3, 4096, |s| Box::new(Ring::new(s * s))),
        "hypercube" => ("dim", 1, 24, |d| Box::new(Hypercube::new(d as u32))),
        "tree" => ("dim", 2, 24, |d| Box::new(TreeMachine::new(d as u32))),
        "shuffle" => ("dim", 2, 24, |d| Box::new(ShuffleExchange::new(d as u32))),
        "butterfly" => ("dim", 1, 19, |d| Box::new(Butterfly::new(d as u32))),
        "ccc" => ("dim", 3, 19, |d| {
            Box::new(CubeConnectedCycles::new(d as u32))
        }),
        other => {
            eprintln!("unknown network: {other}");
            exit(2);
        }
    };
    let x = get_u32(opts, flag, if flag == "side" { 4 } else { 6 });
    if !(lo..=hi).contains(&x) {
        eprintln!("--net {name}: expected --{flag} in {lo}..={hi}, got {x}");
        exit(2);
    }
    make(x as usize)
}

fn rng_from(opts: &HashMap<String, String>) -> SplitMix64 {
    SplitMix64::seed_from_u64(get_u32(opts, "seed", 1985) as u64)
}

fn cmd_tree(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    if m.explicit {
        let topo = m.emb.topology();
        println!(
            "topology {}: {} processors, {} switches, embedded on a padded binary tree of n = {}",
            topo.spec(),
            topo.leaves(),
            topo.cost().switches,
            m.emb.padded_n()
        );
        print!("{}", topo.render_levels());
        println!("embedded binary capacity profile:");
        println!("{}", m.tree().render_levels());
        return;
    }
    let ft = m.tree();
    println!(
        "universal fat-tree: n = {}, root capacity w = {}, total wires {}",
        ft.n(),
        ft.root_capacity(),
        ft.total_wires()
    );
    println!("{}", ft.render_levels());
}

/// Describe a topology: per-level structure, the permutation-λ lower
/// bound, and the §IV hardware cost model — text or one
/// `ftsim-topology/v1` JSON line.
fn cmd_topology(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let topo = m.emb.topology();
    let bound = topo.lambda_perm_bound();
    let cost = topo.cost();
    if opts.get("format").map(String::as_str) == Some("json") {
        let levels: Vec<String> = (0..=topo.depth())
            .map(|t| {
                let c = topo.chan()[t as usize];
                let (nodes, arity) = if t == topo.depth() {
                    (topo.leaves(), 0) // arity 0 marks the processor level
                } else {
                    (topo.nodes_at(t), topo.arities()[t as usize] as u64)
                };
                format!(
                    "{{\"level\":{t},\"nodes\":{nodes},\"arity\":{arity},\"up\":{},\
                     \"down\":{},\"parallel\":{},\"cap\":{}}}",
                    c.up,
                    c.down,
                    c.parallel,
                    c.cap_up(),
                )
            })
            .collect();
        println!(
            "{{\"schema\":\"ftsim-topology/v1\",\"family\":\"{}\",\"spec\":\"{}\",\
             \"leaves\":{},\"pod\":{},\"padded_n\":{},\"binary_height\":{},\"identity_map\":{},\
             \"levels\":[{}],\"lambda_perm_bound\":{bound:.6},\
             \"cost\":{{\"switches\":{},\"cables\":{},\"wires\":{},\"bisection\":{},\
             \"volume_proxy\":{:.3}}}}}",
            topo.family().tag(),
            topo.spec(),
            topo.leaves(),
            topo.pod(),
            m.emb.padded_n(),
            m.tree().height(),
            m.emb.is_identity(),
            levels.join(","),
            cost.switches,
            cost.cables,
            cost.wires,
            cost.bisection,
            cost.volume_proxy,
        );
        return;
    }
    println!(
        "topology {} ({} family): {} processors in pods of {}, {} switches",
        topo.spec(),
        topo.family().tag(),
        topo.leaves(),
        topo.pod(),
        cost.switches
    );
    print!("{}", topo.render_levels());
    println!(
        "permutation λ lower bound {bound:.2}; embedding: padded binary n = {} (height {}, {})",
        m.emb.padded_n(),
        m.tree().height(),
        if m.emb.is_identity() {
            "identity leaf map"
        } else {
            "mixed-radix leaf map"
        },
    );
    println!(
        "cost: {} cables, {} wires, bisection {} → volume proxy {:.0}",
        cost.cables, cost.wires, cost.bisection, cost.volume_proxy
    );
}

fn cmd_schedule(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let mut rng = rng_from(opts);
    let msgs = m.map(&workload_from(opts, &m, &mut rng));
    m.announce();
    let loads = LevelLoads::of(&ft, &msgs);
    let scheduler = opts.get("scheduler").map(String::as_str).unwrap_or("thm1");
    let (schedule, label) = match scheduler {
        "thm1" => (schedule_theorem1(&ft, &msgs).0, "Theorem 1"),
        "greedy" => (schedule_greedy(&ft, &msgs), "greedy first-fit"),
        "bigcap" => match schedule_bigcap(&ft, &msgs) {
            Ok((s, _)) => (s, "Corollary 2"),
            Err(e) => {
                eprintln!("Corollary 2 not applicable: {e}");
                exit(1);
            }
        },
        "compressed" => (
            fat_tree::sched::compress_schedule(&ft, schedule_theorem1(&ft, &msgs).0),
            "Theorem 1 + compression",
        ),
        other => {
            eprintln!("unknown scheduler: {other}");
            exit(2);
        }
    };
    schedule
        .validate(&ft, &msgs)
        .expect("schedule invalid — bug");
    println!(
        "{label}: {} messages, λ(M) = {:.2}, lower bound {} ⇒ {} delivery cycles",
        msgs.len(),
        loads.load_factor(&ft),
        loads.cycle_lower_bound(&ft),
        schedule.num_cycles()
    );
}

fn cmd_online(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let mut rng = rng_from(opts);
    let msgs = m.map(&workload_from(opts, &m, &mut rng));
    m.announce();
    let lambda = load_factor(&ft, &msgs);
    let mut rec = MetricsRecorder::new();
    let res =
        OnlineArena::new(&ft).route_with(&ft, &msgs, &mut rng, OnlineConfig::default(), &mut rec);
    println!(
        "on-line: {} messages, λ = {lambda:.2} → {} cycles (shape λ+lg n·lglg n = {:.1})",
        msgs.len(),
        res.cycles,
        online_bound_shape(&ft, lambda)
    );
    match rec.hottest_level() {
        Some(l) => println!(
            "contention: {} resends, hottest at level {l} ({} blocked); blocked root→leaf: {}",
            rec.total_blocked(),
            rec.blocked[l as usize],
            rec.blocked[1..]
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/")
        ),
        None => println!("contention: no message was ever blocked"),
    }
}

fn sim_config_from(opts: &HashMap<String, String>) -> SimConfig {
    let switch = match opts.get("switch").map(String::as_str).unwrap_or("ideal") {
        "ideal" => SwitchKind::Ideal,
        "partial" => SwitchKind::Partial,
        other => {
            eprintln!("unknown switch: {other}");
            exit(2);
        }
    };
    let arbitration = match opts.get("arb").map(String::as_str).unwrap_or("slot") {
        "slot" => Arbitration::SlotOrder,
        "random" => Arbitration::Random(get_u32(opts, "seed", 1985) as u64),
        other => {
            eprintln!("unknown arbitration: {other}");
            exit(2);
        }
    };
    SimConfig {
        payload_bits: get_u32(opts, "payload", 64),
        switch,
        arbitration,
        ..Default::default()
    }
}

/// FNV-1a over the delivery order — one u64 that pins the exact
/// per-message outcome, so smoke tests can assert determinism without
/// embedding the full order in the output.
fn order_fingerprint(order: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in order {
        for b in (i as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cmd_simulate(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let cfg = sim_config_from(opts);
    let spec = opts
        .get("workload")
        .cloned()
        .unwrap_or_else(|| "perm".into());
    // Streamed specs never build a message vector: the generator (lazily
    // mapped onto the padded tree) feeds the arena's ingest directly.
    let (run, n_msgs, streamed) = match stream_from(opts, &m) {
        Some(stream) => {
            let len = stream.len();
            if len > MAX_MESSAGES {
                eprintln!(
                    "workload {spec} is {len} messages; the simulator takes at most \
                     {MAX_MESSAGES} per run (try a smaller --n or pod size)"
                );
                exit(2);
            }
            let mapped = m.emb.stream(stream.as_ref());
            (run_stream_to_completion(&ft, &mapped, &cfg), len, true)
        }
        None => {
            let mut rng = rng_from(opts);
            let msgs = m.map(&workload_from(opts, &m, &mut rng));
            let len = msgs.len();
            (run_to_completion(&ft, &msgs, &cfg), len, false)
        }
    };
    if opts.get("format").map(String::as_str) == Some("json") {
        let per_cycle = run
            .delivered_per_cycle
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let topo = m.json_field();
        println!(
            "{{\"schema\":\"ftsim-simulate/v1\",{topo}\"workload\":\"{spec}\",\"n\":{},\"w\":{},\
             \"messages\":{n_msgs},\"streamed\":{streamed},\"cycles\":{},\"total_ticks\":{},\
             \"delivered_per_cycle\":[{per_cycle}],\"order_fnv\":\"{:016x}\"}}",
            ft.n(),
            ft.root_capacity(),
            run.cycles,
            run.total_ticks,
            order_fingerprint(&run.delivery_order),
        );
        return;
    }
    m.announce();
    println!(
        "bit-serial machine: {} messages in {} delivery cycles, {} total ticks",
        n_msgs, run.cycles, run.total_ticks
    );
    println!("per-cycle deliveries: {:?}", run.delivered_per_cycle);
}

/// Spin up an in-process serve instance, drive it with a short closed-loop
/// bench over loopback, and return its summary counters so the aggregated
/// report covers the live streaming engine too. `None` when the leaf count
/// can't be served (not a power of two) or loopback is unavailable.
fn serve_probe(n: u32, w: u64) -> Option<(fat_tree::serve::ServerStats, u64, u64)> {
    use fat_tree::serve::{bench, spawn, BenchConfig, BenchMode, Engine, ServerConfig};
    if !n.is_power_of_two() || n < 2 {
        return None;
    }
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        n,
        w,
        slots: 4,
        window_us: 200,
        inflight: 64,
        idle_ms: 5_000,
        max_requests: 0,
        metrics: true,
        metrics_addr: None,
    })
    .ok()?;
    let r = bench(&BenchConfig {
        addr: server.addr().to_string(),
        n,
        w,
        clients: 2,
        requests: 32,
        messages: 16,
        seed: 1985,
        engine: Engine::Schedule,
        mode: BenchMode::Closed,
        verify: false,
    })
    .ok();
    let stats = server.stop();
    let r = r?;
    Some((stats, r.p50_us, r.p99_us))
}

/// Every engine, one workload, one machine-readable story: per-level λ
/// breakdown from the Theorem 1 sweep, on-line wire contention, bit-serial
/// channel load histograms, cascade matching statistics, and a live serve
/// probe.
fn cmd_report(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let mut rng = rng_from(opts);
    let spec = opts
        .get("workload")
        .cloned()
        .unwrap_or_else(|| "perm".into());
    let msgs = m.map(&workload_from(opts, &m, &mut rng));
    let as_json = opts.get("format").map(String::as_str) == Some("json");
    let lambda = load_factor(&ft, &msgs);

    // Off-line: the λ(M) sweep and the splitter's bucket behaviour.
    let mut sched_rec = MetricsRecorder::new();
    let (schedule, _) = SchedArena::new(&ft).schedule_with(&ft, &msgs, 1, &mut sched_rec);

    // On-line: per-level claimed/blocked/wasted contention.
    let mut online_rec = MetricsRecorder::new();
    let online_res = OnlineArena::new(&ft).route_with(
        &ft,
        &msgs,
        &mut rng,
        OnlineConfig::default(),
        &mut online_rec,
    );

    // Bit-serial machine: channel load vs. capacity per level per cycle.
    let mut sim_rec = MetricsRecorder::new();
    let run = run_to_completion_with(&ft, &msgs, &SimConfig::default(), &mut sim_rec);

    // Sharded coordinator: per-cycle barrier-wait / merge / top-arbitration
    // counters showing how much communication overlaps compute.
    let mut shard_rec = MetricsRecorder::new();
    let shards = get_u32(opts, "shards", 4).min(1 << ft.height());
    let shard_ok = run_sharded_with(
        &ft,
        &msgs,
        &ShardConfig::new(shards, SimConfig::default()),
        &mut shard_rec,
    )
    .is_ok();

    // Concentrator hardware at the root width: matching sizes, BFS rounds,
    // and augmenting paths per cascade stage over random guaranteed loads.
    let mut conc_rec = MetricsRecorder::new();
    let r = (ft.root_capacity() as usize * 3).max(12);
    let cascade = Cascade::new(r, (r / 3).max(4), &mut rng);
    let k = cascade.guaranteed().min(r);
    let mut matching = MatchingArena::new();
    for _ in 0..8 {
        let active = rng.sample_indices(r, k);
        let _ = cascade.route_traced(&mut matching, &active, &mut conc_rec);
    }

    // Streaming service: a short loopback serve pass so the live engine's
    // λ-feedback, batch occupancy, and reject counters appear alongside the
    // batch engines.
    let probe = serve_probe(ft.n(), ft.root_capacity());

    if as_json {
        let serve_json = match &probe {
            Some((s, p50, p99)) => format!(
                "{{\"served\":{},\"busy_rejected\":{},\"reaped\":{},\"batches\":{},\
                 \"batch_max\":{},\"batch_mean_x1000\":{},\"lambda_max\":{:.6},\
                 \"client_p50_us\":{p50},\"client_p99_us\":{p99}}}",
                s.served,
                s.busy,
                s.reaped,
                s.batches,
                s.batch_max,
                s.batch_mean_x1000,
                s.lambda_max
            ),
            None => "null".into(),
        };
        let topo = m.json_field();
        println!(
            "{{\"schema\":\"ftsim-report/v2\",{topo}\"workload\":\"{spec}\",\"n\":{},\"w\":{},\"messages\":{},\"lambda\":{lambda:.6},\"offline_cycles\":{},\"online_cycles\":{},\"sim_cycles\":{},\"cascade\":{{\"inputs\":{r},\"outputs\":{},\"guaranteed\":{k}}},\"schedule\":{},\"online\":{},\"simulate\":{},\"concentrator\":{},\"shard\":{},\"serve\":{serve_json}}}",
            ft.n(),
            ft.root_capacity(),
            msgs.len(),
            schedule.num_cycles(),
            online_res.cycles,
            run.cycles,
            cascade.outputs(),
            sched_rec.to_json(),
            online_rec.to_json(),
            sim_rec.to_json(),
            conc_rec.to_json(),
            if shard_ok {
                shard_rec.to_json()
            } else {
                "null".into()
            },
        );
        return;
    }

    m.announce();
    println!(
        "report: workload {spec}, n = {}, w = {}, {} messages",
        ft.n(),
        ft.root_capacity(),
        msgs.len()
    );
    println!(
        "λ(M) = {lambda:.2} (max over levels {:.2}); Theorem 1 schedules {} cycles, on-line {}, bit-serial {}",
        sched_rec.lambda_max(),
        schedule.num_cycles(),
        online_res.cycles,
        run.cycles
    );
    println!("λ contribution by level (root = 1):");
    print!("{}", sched_rec.render_lambda());
    println!(
        "splitter: {} buckets split, sizes(log2) {}",
        sched_rec.splits.iter().sum::<u64>(),
        sched_rec.split_sizes.render()
    );
    println!("Theorem-1 arena time by phase (all levels):");
    print!("{}", sched_rec.render_phases());
    match online_rec.hottest_level() {
        Some(l) => println!(
            "on-line contention: {} resends, hottest level {l} ({} blocked)",
            online_rec.total_blocked(),
            online_rec.blocked[l as usize]
        ),
        None => println!("on-line contention: no message was ever blocked"),
    }
    print!("{}", online_rec.render_contention());
    println!("channel load vs. capacity (eighths of cap, per level):");
    print!("{}", sim_rec.render_load());
    println!("bit-serial arena time by phase (all cycles):");
    print!("{}", sim_rec.render_phases());
    println!(
        "concentrator cascade {r} → {} wires (guaranteed load {k}), 8 random trials:",
        cascade.outputs()
    );
    print!("{}", conc_rec.render_stages());
    if shard_ok {
        println!("sharded coordinator overlap ({shards} shards, inproc):");
        print!("{}", shard_rec.render_shard_cycles());
    }
    match &probe {
        Some((s, p50, p99)) => println!(
            "serve probe: {} requests in {} batches (max {}, mean {:.1}), λ_max {:.2}, {} busy, client p50/p99 {p50}/{p99} µs",
            s.served,
            s.batches,
            s.batch_max,
            s.batch_mean_x1000 as f64 / 1000.0,
            s.lambda_max,
            s.busy,
        ),
        None => println!("serve probe: skipped (leaf count not servable)"),
    }
}

/// Capture packed trace events from one engine and export them.
fn cmd_trace(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let mut rng = rng_from(opts);
    let msgs = m.map(&workload_from(opts, &m, &mut rng));
    let events = get_u32(opts, "events", 4096) as usize;
    let engine = opts.get("engine").map(String::as_str).unwrap_or("online");
    let format = opts.get("format").map(String::as_str).unwrap_or("jsonl");
    let verify = opts.get("verify").is_some_and(|v| v != "0" && v != "false");

    let mut rec = MetricsRecorder::with_trace(events);
    match engine {
        "online" => {
            OnlineArena::new(&ft).route_with(
                &ft,
                &msgs,
                &mut rng,
                OnlineConfig::default(),
                &mut rec,
            );
        }
        "simulate" => {
            run_to_completion_with(&ft, &msgs, &SimConfig::default(), &mut rec);
        }
        "schedule" => {
            SchedArena::new(&ft).schedule_with(&ft, &msgs, 1, &mut rec);
        }
        other => {
            eprintln!("unknown engine: {other} (expected online|simulate|schedule)");
            exit(2);
        }
    }

    // Verification always runs on the JSONL round-trip, whatever format is
    // printed: a mismatch must exit non-zero in every branch.
    if verify {
        let out = rec.ring.export_jsonl();
        let parsed = parse_jsonl(&out).unwrap_or_else(|e| {
            eprintln!("trace verify failed: {e}");
            exit(1);
        });
        let original: Vec<_> = rec.ring.iter().collect();
        if parsed != original {
            eprintln!("trace verify failed: round-trip mismatch");
            exit(1);
        }
        eprintln!(
            "trace verified: {} events round-tripped ({} dropped by the ring)",
            parsed.len(),
            rec.ring.dropped()
        );
    }

    match format {
        "jsonl" => print!("{}", rec.ring.export_jsonl()),
        "csv" => print!("{}", rec.ring.export_csv()),
        other => {
            eprintln!("unknown format: {other} (expected jsonl|csv)");
            exit(2);
        }
    }
}

/// Live exposition adapter for `ftsim shard --metrics-addr`: renders the
/// coordinator's per-link counters as the `shard_links` section of a
/// `ftsim-metrics/v1` document plus a Prometheus text page. The serve-side
/// sections don't apply to a one-shot shard run and are omitted.
struct ShardScrape {
    live: std::sync::Arc<fat_tree::shard::LinkCounters>,
}

impl fat_tree::serve::MetricsSource for ShardScrape {
    fn render(&self, path: &str) -> Option<(&'static str, String)> {
        let read = |col: &[std::sync::atomic::AtomicU64]| -> Vec<u64> {
            col.iter()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .collect()
        };
        let sent = read(&self.live.frames_sent);
        let recv = read(&self.live.frames_received);
        let retr = read(&self.live.retries);
        let rej = read(&self.live.checksum_rejects);
        match path {
            "/metrics.json" => {
                let links: Vec<String> = (0..sent.len())
                    .map(|s| {
                        format!(
                            "{{\"shard\":{s},\"frames_sent\":{},\"frames_received\":{},\
                             \"retries\":{},\"checksum_rejects\":{}}}",
                            sent[s], recv[s], retr[s], rej[s]
                        )
                    })
                    .collect();
                Some((
                    "application/json",
                    format!(
                        "{{\"schema\":\"ftsim-metrics/v1\",\"shard_links\":[{}]}}\n",
                        links.join(",")
                    ),
                ))
            }
            "/metrics" => {
                let mut out = String::new();
                for (name, col) in [
                    ("frames_sent", &sent),
                    ("frames_received", &recv),
                    ("retries", &retr),
                    ("checksum_rejects", &rej),
                ] {
                    out.push_str(&format!("# TYPE ftsim_shard_link_{name}_total counter\n"));
                    for (s, v) in col.iter().enumerate() {
                        out.push_str(&format!(
                            "ftsim_shard_link_{name}_total{{shard=\"{s}\"}} {v}\n"
                        ));
                    }
                }
                Some(("text/plain; version=0.0.4", out))
            }
            _ => None,
        }
    }
}

/// Run the workload through the distributed sharded engine and check the
/// result against the single-arena engine.
fn cmd_shard(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    let mut rng = rng_from(opts);
    let spec = opts
        .get("workload")
        .cloned()
        .unwrap_or_else(|| "perm".into());
    let msgs = m.map(&workload_from(opts, &m, &mut rng));
    let sim = sim_config_from(opts);
    let shards = get_u32(opts, "shards", 4);
    let as_json = opts.get("format").map(String::as_str) == Some("json");

    let mut cfg = ShardConfig::new(shards, sim);
    cfg.transport = match opts
        .get("transport")
        .map(String::as_str)
        .unwrap_or("inproc")
    {
        "inproc" => TransportKind::InProcess,
        "pipe" => {
            let exe = std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("cannot locate own executable for pipe workers: {e}");
                exit(1);
            });
            TransportKind::Pipe {
                cmd: vec![exe.to_string_lossy().into_owned(), "shard-worker".into()],
            }
        }
        other => {
            eprintln!("unknown transport: {other} (expected inproc|pipe)");
            exit(2);
        }
    };
    cfg.faults = FaultPlan {
        drop: get_f64(opts, "drop", 0.0),
        duplicate: get_f64(opts, "dup", 0.0),
        corrupt: get_f64(opts, "corrupt", 0.0),
        delay_ms: get_u32(opts, "delay-ms", 0),
        seed: get_u32(opts, "fault-seed", 7) as u64,
    };
    cfg.timeout = std::time::Duration::from_millis(get_u32(opts, "timeout-ms", 5000) as u64);
    cfg.retries = get_u32(opts, "retries", 4);

    // Optional live exposition: bind the scrape listener before the run so
    // per-link counters are observable while the coordinator works, and
    // announce it on stdout so a driver can scrape mid-run.
    let mut scrape = None;
    if let Some(maddr) = opts.get("metrics-addr") {
        use std::sync::Arc;
        let live = Arc::new(fat_tree::shard::LinkCounters::new(shards as usize));
        cfg.live = Some(Arc::clone(&live));
        match fat_tree::serve::spawn_metrics_listener(maddr, Arc::new(ShardScrape { live })) {
            Ok(listener) => {
                println!(
                    "{{\"schema\":\"ftsim-shard/v1\",\"event\":\"metrics-listening\",\
                     \"metrics_addr\":\"{}\"}}",
                    listener.addr()
                );
                use std::io::Write;
                let _ = std::io::stdout().flush();
                scrape = Some(listener);
            }
            Err(e) => {
                eprintln!("shard: cannot bind metrics listener {maddr}: {e}");
                exit(1);
            }
        }
    }

    let report = match run_sharded(&ft, &msgs, &cfg) {
        Ok(r) => r,
        Err(e) => {
            if as_json {
                println!(
                    "{{\"schema\":\"ftsim-shard/v1\",\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
                    e.kind(),
                    e.to_string().replace('"', "'")
                );
            } else {
                eprintln!("sharded run failed: {e}");
            }
            exit(1);
        }
    };
    if let Some(listener) = scrape {
        listener.stop();
    }
    let single = run_to_completion(&ft, &msgs, &sim);
    let matches = report.run.delivered_per_cycle == single.delivered_per_cycle
        && report.run.delivery_order == single.delivery_order
        && report.run.total_ticks == single.total_ticks;
    let st = &report.stats;

    if as_json {
        let per_cycle: Vec<String> = report
            .run
            .delivered_per_cycle
            .iter()
            .map(usize::to_string)
            .collect();
        let ns_list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let topo = m.json_field();
        println!(
            "{{\"schema\":\"ftsim-shard/v1\",{topo}\"workload\":\"{spec}\",\"n\":{},\"w\":{},\"messages\":{},\"shards\":{},\"transport\":\"{}\",\"cycles\":{},\"total_ticks\":{},\"delivered_per_cycle\":[{}],\"matches_single_arena\":{matches},\"stats\":{{\"frames_sent\":{},\"frames_received\":{},\"bytes_sent\":{},\"bytes_received\":{},\"retries\":{},\"checksum_rejects\":{},\"duplicates\":{},\"barrier_wait_ns\":{},\"top_ns\":{},\"merge_ns\":{},\"shard_up_ns\":[{}],\"shard_down_ns\":[{}],\"link_frames_sent\":[{}],\"link_frames_received\":[{}],\"link_retries\":[{}],\"link_checksum_rejects\":[{}]}}}}",
            ft.n(),
            ft.root_capacity(),
            msgs.len(),
            st.shards,
            st.transport,
            report.run.cycles,
            report.run.total_ticks,
            per_cycle.join(","),
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
            ns_list(&st.link_frames_sent),
            ns_list(&st.link_frames_received),
            ns_list(&st.link_retries),
            ns_list(&st.link_checksum_rejects),
        );
    } else {
        m.announce();
        println!(
            "sharded engine: {} messages over {} shards ({}), {} delivery cycles, {} total ticks",
            msgs.len(),
            st.shards,
            st.transport,
            report.run.cycles,
            report.run.total_ticks
        );
        println!(
            "barrier: {} frames / {} bytes exchanged, {} retries, {} checksum rejects, {} duplicates, {:.2} ms waiting",
            st.frames_sent + st.frames_received,
            (st.words_sent + st.words_received) * 8,
            st.retries,
            st.checksum_rejects,
            st.duplicates,
            st.barrier_wait_ns as f64 / 1e6
        );
        println!(
            "overlap: {:.2} ms merging claims, {:.2} ms top arbitration (merge runs while shards compute)",
            st.merge_ns as f64 / 1e6,
            st.top_ns as f64 / 1e6
        );
        println!(
            "single-arena cross-check: {}",
            if matches {
                "byte-identical"
            } else {
                "MISMATCH"
            }
        );
    }
    if !matches {
        eprintln!("sharded run diverged from the single-arena engine — bug");
        exit(1);
    }
}

/// Run the streaming scheduler service until stdin EOF (or
/// `--max-requests`). One JSON line announces the resolved listen address,
/// one summarizes the run at shutdown — both `ftsim-serve/v1`.
fn cmd_serve(opts: &HashMap<String, String>) {
    use fat_tree::serve::{spawn, ServeCompute, ServerConfig};
    use std::io::{Read, Write};

    let (n, w) = universal_nw_from(opts, "serve");
    let cfg = ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".into()),
        n,
        w,
        slots: get_u32(opts, "slots", 8).max(1),
        window_us: get_u32(opts, "window-us", 200) as u64,
        inflight: get_u32(opts, "inflight", 64).max(1) as usize,
        idle_ms: get_u32(opts, "idle-ms", 5000) as u64,
        max_requests: get_u32(opts, "max-requests", 0) as u64,
        metrics: get_u32(opts, "metrics", 1) != 0,
        metrics_addr: opts.get("metrics-addr").cloned(),
    };
    if let Err(e) = ServeCompute::check_slots(cfg.n, cfg.slots) {
        eprintln!("--slots: {e}");
        exit(2);
    }
    let server = spawn(cfg.clone()).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind {}: {e}", cfg.addr);
        exit(1);
    });
    println!(
        "{{\"schema\":\"ftsim-serve/v1\",\"event\":\"listening\",\"addr\":\"{}\",\"n\":{},\"w\":{},\
         \"slots\":{},\"window_us\":{},\"inflight\":{},\"idle_ms\":{},\"max_requests\":{},\
         \"metrics_addr\":{}}}",
        server.addr(),
        cfg.n,
        cfg.w,
        cfg.slots,
        cfg.window_us,
        cfg.inflight,
        cfg.idle_ms,
        cfg.max_requests,
        match server.metrics_addr() {
            Some(a) => format!("\"{a}\""),
            None => "null".into(),
        },
    );
    let _ = std::io::stdout().flush();
    // stdin EOF is the shutdown signal: a driver holds the pipe open while
    // clients run, then closes it (or the user hits ^D).
    let stopper = server.stopper();
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(k) if k > 0) {}
        stopper.stop();
    });
    server.wait();
    let stats = server.stop();
    println!(
        "{{\"schema\":\"ftsim-serve/v1\",\"event\":\"summary\",\"served\":{},\"busy\":{},\
         \"reaped\":{},\"batches\":{},\"batch_max\":{},\"batch_mean_x1000\":{},\
         \"lambda_max\":{:.6},\"conns\":{}}}",
        stats.served,
        stats.busy,
        stats.reaped,
        stats.batches,
        stats.batch_max,
        stats.batch_mean_x1000,
        stats.lambda_max,
        stats.conns,
    );
}

/// Drive a running `ftsim serve` with N concurrent clients and print a
/// bench summary line.
fn cmd_bench_client(opts: &HashMap<String, String>) {
    use fat_tree::serve::{bench, BenchConfig, BenchMode, Engine};

    let Some(addr) = opts.get("addr").cloned() else {
        eprintln!("bench-client: --addr HOST:PORT is required");
        exit(2);
    };
    let (n, w) = universal_nw_from(opts, "bench-client");
    let engine = match opts.get("engine").map(String::as_str).unwrap_or("schedule") {
        "schedule" => Engine::Schedule,
        "online" => Engine::Online,
        other => {
            eprintln!("unknown engine: {other} (expected schedule|online)");
            exit(2);
        }
    };
    let mode_name = opts.get("mode").map(String::as_str).unwrap_or("closed");
    let mode = match mode_name {
        "closed" => BenchMode::Closed,
        "open" => BenchMode::Open {
            depth: get_u32(opts, "depth", 8).max(1) as usize,
        },
        "burst" => BenchMode::Burst {
            size: get_u32(opts, "depth", 32).max(1) as usize,
        },
        "dead" => BenchMode::Dead {
            hold_ms: get_u32(opts, "hold-ms", 500) as u64,
        },
        other => {
            eprintln!("unknown mode: {other} (expected closed|open|burst|dead)");
            exit(2);
        }
    };
    let cfg = BenchConfig {
        addr,
        n,
        w,
        clients: get_u32(opts, "clients", 4).max(1) as usize,
        requests: get_u32(opts, "requests", 200) as u64,
        messages: get_u32(opts, "messages", 64) as usize,
        seed: get_u32(opts, "seed", 1985) as u64,
        engine,
        mode,
        verify: opts.get("verify").is_some_and(|v| v != "0" && v != "false"),
    };
    let r = bench(&cfg).unwrap_or_else(|e| {
        eprintln!("bench-client: {e}");
        exit(1);
    });
    // `busy` stays for older consumers; `busy_rejects` is the canonical
    // name (it matches the serve-side counter), `reaped` counts responses
    // burst mode gave up on when the server closed the connection.
    println!(
        "{{\"schema\":\"ftsim-serve/v1\",\"event\":\"bench\",\"mode\":\"{mode_name}\",\
         \"engine\":\"{}\",\"clients\":{},\"sent\":{},\"ok\":{},\"busy\":{},\
         \"busy_rejects\":{},\"reaped\":{},\"errors\":{},\
         \"verified\":{},\"mismatches\":{},\"elapsed_ns\":{},\"requests_per_sec\":{:.1},\
         \"p50_us\":{},\"p99_us\":{},\"resp_fnv\":\"{:016x}\"}}",
        if engine == Engine::Schedule {
            "schedule"
        } else {
            "online"
        },
        cfg.clients,
        r.sent,
        r.ok,
        r.busy,
        r.busy,
        r.reaped,
        r.errors,
        r.verified,
        r.mismatches,
        r.elapsed_ns,
        r.requests_per_sec(),
        r.p50_us,
        r.p99_us,
        r.resp_fnv,
    );
    if r.mismatches > 0 || r.errors > 0 {
        eprintln!(
            "bench-client: {} mismatches, {} errors — failing",
            r.mismatches, r.errors
        );
        exit(1);
    }
}

/// Fetch one page from a `--metrics-addr` listener and print it verbatim.
/// Works against both `ftsim serve` and `ftsim shard` exposition
/// endpoints; exits non-zero on connection failure or a non-200 status.
fn cmd_metrics_scrape(opts: &HashMap<String, String>) {
    use std::net::ToSocketAddrs;

    reject_topology(opts, "metrics-scrape", "it scrapes a running listener");
    let Some(addr) = opts.get("addr") else {
        eprintln!("metrics-scrape: --addr HOST:PORT is required");
        exit(2);
    };
    let path = opts
        .get("path")
        .cloned()
        .unwrap_or_else(|| "/metrics.json".into());
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| {
            eprintln!("metrics-scrape: cannot resolve {addr}");
            exit(2);
        });
    match fat_tree::serve::http_get(sock, &path) {
        Ok(body) => print!("{body}"),
        Err(e) => {
            eprintln!("metrics-scrape: GET {path} from {addr}: {e}");
            exit(1);
        }
    }
}

fn cmd_universality(opts: &HashMap<String, String>) {
    reject_topology(
        opts,
        "universality",
        "the guest is a fixed-connection network (--net); the host tree is derived from it",
    );
    let net = network_from(opts);
    let mut rng = rng_from(opts);
    let msgs = workloads::random_permutation(net.n() as u32, &mut rng);
    let rep = fat_tree::universal::simulate_on_fat_tree(net.as_ref(), &msgs, 1.0, &mut rng);
    println!(
        "{}: n = {}, volume {:.0} → fat-tree w = {}",
        rep.network, rep.n, rep.volume, rep.root_capacity
    );
    println!(
        "t_R = {}, λ = {:.2}, d = {} ⇒ slowdown {:.2} (lg³n bound {:.1})",
        rep.t_network, rep.lambda, rep.cycles, rep.slowdown, rep.slowdown_bound
    );
}

fn cmd_emulate(opts: &HashMap<String, String>) {
    reject_topology(
        opts,
        "emulate",
        "the guest is a fixed-connection network (--net); the host tree is derived from it",
    );
    let net = network_from(opts);
    let em = Emulation::build(net.as_ref(), 1.0);
    println!(
        "{} (n = {}, degree {}) hosted on a degree-{} universal fat-tree:",
        net.name(),
        net.n(),
        net.degree(),
        em.degree
    );
    println!(
        "minimal root capacity w = {}, λ(edge set) = {:.2}, {} ticks per guest step",
        em.root_capacity,
        em.edge_load_factor,
        em.emulation_time(1)
    );
}

fn cmd_layout(opts: &HashMap<String, String>) {
    let m = machine_from(opts);
    let ft = m.tree().clone();
    m.announce();
    let layout = FatTreeLayout::build(&ft);
    let d = layout.level_dims[0];
    println!(
        "constructive 3-D layout: {:.1} × {:.1} × {:.1} = volume {:.0} (aspect {:.1})",
        d[0],
        d[1],
        d[2],
        layout.volume,
        layout.aspect_ratio()
    );
    println!(
        "Theorem 4 law (w·lg(n/w))^(3/2) = {:.0}",
        fat_tree::layout::cost::theorem4_volume_law(ft.n() as u64, ft.root_capacity())
    );
}
