//! The repository's benchmark. One command measures the selected
//! workloads through the crates' public functions, checks every output,
//! prints every metric by name and unit, and ends with one JSON line:
//!
//! ```text
//! ft-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` all five workloads run, one after the other.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced slices, gives every other layer group a short traced
//! probe, writes `out/trace-<workload>.jsonl`, and prints the per-layer
//! metrics. See `README.md` beside this package.

mod consts;
mod host;
mod metrics;
mod slice;
mod stats;
mod trace;
mod workloads;

use consts::{
    CHILD_GRACE_MS, DEFAULT_SECONDS, DEFAULT_SEED, LAT_PCT, PROBE_MS, RATE_PCT, SETUP_PCT, SLICES,
    TRACED_SLICES,
};
use slice::{SliceArgs, SliceReport};
use stats::{block_rates, median, per_input_percentile_ns, percentile, percentile_ns};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::Workload;

/// What the command line selects.
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set when this process is a slice child of another invocation.
    child: Option<SliceArgs>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| flags.remove(k);
    let num = |k: &str, v: Option<&str>, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{k} {v}: {e}"))
        })
    };
    let workloads = match take("--workload") {
        None => Workload::ALL.to_vec(),
        Some(name) => vec![Workload::from_name(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?],
    };
    let seed = num("--seed", take("--seed"), DEFAULT_SEED)?;
    let seconds = num("--seconds", take("--seconds"), DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1 to 60"));
    }
    let trace = match take("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v}: must be 0 or 1")),
    };
    // The slice flags are how the parent talks to its children; they are
    // not part of the command's interface.
    let child = match take("--slice") {
        None => None,
        Some(index) => Some(SliceArgs {
            workload: workloads[0],
            seed,
            index: num("--slice", Some(index), 0)? as usize,
            millis: num("--millis", take("--millis"), 0)?,
            traced: trace,
            extras: take("--extras") == Some("1"),
            expect: take("--expect")
                .filter(|v| !v.is_empty())
                .map_or(Ok(Vec::new()), |v| {
                    v.split(',')
                        .map(|h| {
                            u64::from_str_radix(h, 16).map_err(|e| format!("--expect {h}: {e}"))
                        })
                        .collect()
                })?,
            trace_out: take("--trace-out").map(PathBuf::from),
        }),
    };
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(Cli {
        workloads,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ft-benchmark: {e}");
            eprintln!(
                "usage: ft-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match &cli.child {
        Some(args) => workloads::run_slice(args, t0).map(|r| print!("{}", r.to_text())),
        None => run(&cli),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ft-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The slices of one workload (the selected one, or a probe).
#[derive(Default)]
struct Collected {
    timed: Vec<SliceReport>,
    traced: Vec<SliceReport>,
}

/// Run one slice in a child process and parse its report. The child is
/// killed, and the run fails, if it outlives its slice by `CHILD_GRACE_MS`.
fn spawn_slice(exe: &Path, a: &SliceArgs) -> Result<SliceReport, String> {
    let expect: Vec<String> = a.expect.iter().map(|h| format!("{h:x}")).collect();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .args(["--slice", &a.index.to_string()])
        .args(["--millis", &a.millis.to_string()])
        .args(["--extras", if a.extras { "1" } else { "0" }])
        .args(["--expect", &expect.join(",")]);
    if let Some(path) = &a.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let what = format!("{} slice {}", a.workload.name(), a.index);
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{what}: spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let res = stdout.read_to_string(&mut text).map(|_| text);
        let _ = tx.send(());
        res
    });
    // The reader finishes when the child closes its stdout, i.e. exits.
    if rx
        .recv_timeout(Duration::from_millis(a.millis + CHILD_GRACE_MS))
        .is_err()
    {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("{what}: wait: {e}"))?;
    let text = reader
        .join()
        .expect("reader thread panicked")
        .map_err(|e| format!("{what}: read: {e}"))?;
    if !status.success() {
        return Err(format!("{what}: child ended with {status}"));
    }
    SliceReport::from_text(&text).map_err(|e| format!("{what}: {e}"))
}

/// Measure the selected workloads one after the other, each the way a
/// `--workload` invocation measures it.
fn run(cli: &Cli) -> Result<(), String> {
    for &w in &cli.workloads {
        if cli.workloads.len() > 1 {
            println!("== {} ==", w.name());
        }
        run_workload(w, cli)?;
    }
    Ok(())
}

fn run_workload(w: Workload, cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if cli.trace {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    }
    let trace_path = |w: Workload| out_dir.join(format!("trace-{}.jsonl", w.name()));

    // Correctness, once per input, before anything is timed.
    let verified =
        workloads::verify(w, cli.seed).map_err(|e| format!("{}: verification: {e}", w.name()))?;
    let expect = verified.as_ref().map_or(Vec::new(), |v| v.expect.clone());

    let steal0 = host::steal_and_total();
    let mut got: BTreeMap<&str, Collected> = BTreeMap::new();
    let slice_ms = cli.seconds * 1000 / SLICES as u64;
    let slices = if cli.trace { TRACED_SLICES } else { SLICES };
    for index in 0..slices {
        let traced = cli.trace && index % 2 == 1;
        let report = spawn_slice(
            &exe,
            &SliceArgs {
                workload: w,
                seed: cli.seed,
                index,
                millis: slice_ms,
                traced,
                extras: traced && index == slices - 1,
                expect: expect.clone(),
                trace_out: traced.then(|| trace_path(w)),
            },
        )?;
        let c = got.entry(w.name()).or_default();
        if traced {
            c.traced.push(report);
        } else {
            c.timed.push(report);
        }
    }
    // The layer groups `w` does not exercise get one short traced probe
    // each, so a traced run measures every layer. Probes report timings
    // only; their results are verified when they are the selected workload.
    if cli.trace {
        for p in Workload::PROBES {
            if w.probe() == p {
                continue;
            }
            let report = spawn_slice(
                &exe,
                &SliceArgs {
                    workload: p,
                    seed: cli.seed,
                    index: 0,
                    millis: PROBE_MS,
                    traced: true,
                    extras: true,
                    expect: Vec::new(),
                    trace_out: Some(trace_path(p)),
                },
            )?;
            got.entry(p.name()).or_default().traced.push(report);
        }
    }
    let steal1 = host::steal_and_total();
    let steal_share = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;

    // Every trace file must read back the way a user of it would read it.
    for (name, c) in &got {
        if let Some(r) = c.traced.last() {
            let path = trace_path(Workload::from_name(name).expect("keys are workload names"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let spans =
                trace::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if spans.len() as u64 != r.spans {
                return Err(format!(
                    "{}: {} spans, {} written",
                    path.display(),
                    spans.len(),
                    r.spans
                ));
            }
            println!("{} re-parses: {} spans", path.display(), spans.len());
        }
    }

    let c = &got[w.name()];
    let all = || c.timed.iter().chain(&c.traced);
    let (attempted, failed) = all().fold((0, 0), |(a, f), r| (a + r.ops, f + r.failed));
    let samples: usize = c.timed.iter().map(|r| r.lat_ns.len()).sum();
    if samples == 0 {
        return Err(format!("{}: no timed op completed", w.name()));
    }
    // Fingerprint and cycles of the verified results. They repeat exactly
    // for a seed however many ops a slice had time for: the batch
    // workloads' come from the parent's verification, the serve workloads'
    // from the solo oracle in each slice.
    let (fnv, cycles) = match &verified {
        Some(v) => (v.fnv, v.cycles),
        None => {
            let first = &c.timed[0];
            if all().any(|r| (r.fnv, r.cycles) != (first.fnv, first.cycles)) {
                return Err(format!("{}: the slices' oracles disagree", w.name()));
            }
            (first.fnv, first.cycles)
        }
    };
    let mut values = if cli.trace {
        layer_values(w, &got, steal_share)
    } else {
        end_to_end_values(w, c, cycles)
    };
    let listed: &[(&str, &str)] = if cli.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut complete = true;
    let mut json = String::new();
    for (name, unit) in listed {
        let v = values.remove(*name).filter(|v| v.is_finite());
        complete &= v.is_some();
        let v = v.unwrap_or(0.0);
        println!("  {name:<28} {v:>16.4} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "  operations attempted / failed: {attempted} / {failed}; timed samples: {samples}; result_fnv: {fnv:016x}"
    );
    if !complete {
        println!("  some metrics were not measured (printed as 0)");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        failed == 0 && complete,
    );
    Ok(())
}

/// One sample list pooled over slices.
fn pooled(slices: &[SliceReport], samples: fn(&SliceReport) -> &Vec<u64>) -> Vec<u64> {
    slices
        .iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect()
}

/// The slices' op times sorted by the pool input each op ran.
fn lat_by_input(slices: &[SliceReport]) -> Vec<Vec<u64>> {
    let inputs = slices.first().map_or(1, |r| r.inputs.max(1)) as usize;
    let mut by_input = vec![Vec::new(); inputs];
    for r in slices {
        for (i, &ns) in r.lat_ns.iter().enumerate() {
            by_input[(r.first_input as usize + i) % inputs].push(ns);
        }
    }
    by_input
}

/// The end-to-end metrics of one workload, from its untraced slices.
fn end_to_end_values(w: Workload, c: &Collected, cycles: f64) -> BTreeMap<String, f64> {
    let setups: Vec<f64> = c.timed.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let rates: Vec<f64> = c
        .timed
        .iter()
        .flat_map(|r| block_rates(&r.done_ns, w.block(), r.msgs_per_op))
        .collect();
    let rss = c.timed.iter().map(|r| r.rss_kib).max().unwrap_or(0);
    BTreeMap::from([
        ("setup_s".to_string(), percentile(&setups, SETUP_PCT)),
        ("msgs_per_s".to_string(), percentile(&rates, RATE_PCT)),
        (
            "lat_p02_us".to_string(),
            per_input_percentile_ns(&lat_by_input(&c.timed), LAT_PCT) / 1e3,
        ),
        ("cycles".to_string(), cycles),
        ("peak_rss_mb".to_string(), rss as f64 / 1024.0),
    ])
}

/// The per-layer metrics of workload `w`: its own traced slices' values
/// for the layer group it exercises, the probe workloads' for the others.
fn layer_values(
    w: Workload,
    got: &BTreeMap<&str, Collected>,
    steal_share: f64,
) -> BTreeMap<String, f64> {
    // A workload's own value of a metric is the median over its traced
    // slices; a metric several layer groups report (tree build, generator
    // cost, recorder cost) is the median over the groups that did.
    let mut by_group: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in Workload::PROBES {
        let source = if w.probe() == p { w } else { p };
        let mut by_slice: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in got.get(source.name()).map_or(&[][..], |c| &c.traced) {
            for (k, v) in &r.layer {
                by_slice.entry(k).or_default().push(*v);
            }
        }
        for (k, v) in by_slice {
            by_group.entry(k).or_default().push(median(&v));
        }
    }
    let mut values: BTreeMap<String, f64> = by_group
        .into_iter()
        .map(|(k, v)| (k.to_string(), median(&v)))
        .collect();

    let c = &got[w.name()];
    let lat = pooled(&c.timed, |r| &r.lat_ns);
    let kernel = pooled(&c.traced, |r| &r.ref_kernel_ns);
    let (msgs, window, cpu, ops) = c.timed.iter().fold((0.0, 0.0, 0.0, 0.0), |a, r| {
        (
            a.0 + (r.lat_ns.len() as u64 * r.msgs_per_op) as f64,
            a.1 + r.window_ns as f64,
            a.2 + r.cpu_us as f64,
            a.3 + r.ops as f64,
        )
    });
    for (k, v) in [
        ("client.lat_p50_us", percentile_ns(&lat, 50.0) / 1e3),
        ("client.lat_p90_us", percentile_ns(&lat, 90.0) / 1e3),
        ("client.lat_p99_us", percentile_ns(&lat, 99.0) / 1e3),
        ("client.rate_mean_per_s", msgs * 1e9 / window.max(1.0)),
        (
            "host.ref_kernel_spread",
            percentile_ns(&kernel, 90.0) / percentile_ns(&kernel, 10.0).max(1.0),
        ),
        ("host.steal_share", steal_share),
        ("host.cpu_us_per_op", cpu / ops.max(1.0)),
        (
            "trace.overhead",
            per_input_percentile_ns(&lat_by_input(&c.traced), LAT_PCT)
                / per_input_percentile_ns(&lat_by_input(&c.timed), LAT_PCT),
        ),
    ] {
        values.insert(k.to_string(), v);
    }
    values
}
