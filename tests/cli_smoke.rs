//! Smoke tests for the `ftsim` CLI: every subcommand runs, prints the
//! expected shape of output, and rejects malformed invocations.

use std::process::Command;

fn ftsim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args(args)
        .output()
        .expect("spawn ftsim");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn tree_prints_levels() {
    let (ok, stdout, _) = ftsim(&["tree", "--n", "64", "--w", "16"]);
    assert!(ok);
    assert!(stdout.contains("root capacity w = 16"));
    assert!(stdout.contains("level"));
}

#[test]
fn schedule_reports_cycles() {
    let (ok, stdout, _) = ftsim(&["schedule", "--n", "64", "--workload", "complement"]);
    assert!(ok);
    assert!(stdout.contains("delivery cycles"), "{stdout}");
    assert!(stdout.contains("λ(M)"));
}

#[test]
fn all_schedulers_run() {
    for sched in ["thm1", "greedy", "compressed"] {
        let (ok, stdout, stderr) = ftsim(&[
            "schedule",
            "--n",
            "64",
            "--workload",
            "krel:2",
            "--scheduler",
            sched,
        ]);
        assert!(ok, "scheduler {sched} failed: {stderr}");
        assert!(stdout.contains("delivery cycles"));
    }
}

#[test]
fn simulate_with_faults_flags() {
    let (ok, stdout, _) = ftsim(&[
        "simulate",
        "--n",
        "64",
        "--workload",
        "perm",
        "--switch",
        "partial",
        "--arb",
        "random",
    ]);
    assert!(ok);
    assert!(stdout.contains("delivery cycles"));
}

#[test]
fn online_universality_emulate_layout() {
    let (ok, stdout, _) = ftsim(&["online", "--n", "64", "--workload", "krel:4"]);
    assert!(ok && stdout.contains("on-line"));
    let (ok, stdout, _) = ftsim(&["universality", "--net", "mesh3d", "--side", "4"]);
    assert!(ok && stdout.contains("slowdown"), "{stdout}");
    let (ok, stdout, _) = ftsim(&["emulate", "--net", "ring", "--side", "8"]);
    assert!(ok && stdout.contains("minimal root capacity"), "{stdout}");
    let (ok, stdout, _) = ftsim(&["layout", "--n", "256", "--w", "64"]);
    assert!(ok && stdout.contains("volume"), "{stdout}");
}

#[test]
fn report_prints_every_section() {
    let (ok, stdout, stderr) = ftsim(&["report", "--n", "64", "--w", "16", "--workload", "perm"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("λ contribution by level"), "{stdout}");
    assert!(stdout.contains("on-line contention"), "{stdout}");
    assert!(stdout.contains("load/cap eighths"), "{stdout}");
    assert!(stdout.contains("down_sweep"), "{stdout}");
    // The scheduler's row names its own phases and none of the simulator's.
    let sched_row = stdout
        .split("Theorem-1 arena time by phase")
        .nth(1)
        .and_then(|rest| rest.lines().nth(1))
        .unwrap_or_else(|| panic!("no scheduler phase row in {stdout}"));
    for phase in ["ingest", "refine", "emit"] {
        assert!(sched_row.contains(phase), "{phase} missing: {sched_row}");
    }
    assert!(!sched_row.contains("sweep"), "{sched_row}");
    assert!(stdout.contains("concentrator cascade"), "{stdout}");
    assert!(stdout.contains("stage 0"), "{stdout}");
    assert!(stdout.contains("serve probe"), "{stdout}");
}

#[test]
fn report_json_carries_every_engine_block() {
    let (ok, stdout, stderr) = ftsim(&[
        "report",
        "--n",
        "64",
        "--w",
        "16",
        "--workload",
        "perm",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    for key in [
        "\"schema\":\"ftsim-report/v2\"",
        "\"lambda\":",
        "\"schedule\":{",
        "\"online\":{",
        "\"simulate\":{",
        "\"concentrator\":{",
        "\"stages\":[",
        "\"phases\":{\"ingest_ns\":",
        // The v2 serve-probe block. Every engine's nested metrics JSON
        // also contains a "serve" histogram object, so assert on a key
        // unique to the probe.
        "\"client_p50_us\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    // The scheduler block attributes its time to its own three phases.
    let sched = line.split("\"schedule\":{").nth(1).expect("checked above");
    for key in ["\"ingest_ns\":", "\"refine_ns\":", "\"emit_ns\":"] {
        let digits = sched.split(key).nth(1).expect(key);
        let ns: u64 = digits[..digits.find([',', '}']).unwrap()].parse().unwrap();
        assert!(ns > 0, "{key} is zero in the schedule block of {line}");
    }
}

#[test]
fn trace_jsonl_round_trips_and_csv_has_header() {
    let (ok, stdout, stderr) = ftsim(&[
        "trace",
        "--n",
        "32",
        "--w",
        "8",
        "--workload",
        "perm",
        "--events",
        "64",
        "--verify",
        "1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("trace verified"), "{stderr}");
    assert!(stdout.lines().count() > 0);
    let parsed = fat_tree::telemetry::parse_jsonl(&stdout).expect("CLI JSONL must parse");
    assert!(!parsed.is_empty());

    for engine in ["simulate", "schedule"] {
        let (ok, stdout, stderr) = ftsim(&[
            "trace", "--n", "32", "--w", "8", "--engine", engine, "--format", "csv",
        ]);
        assert!(ok, "engine {engine}: {stderr}");
        assert!(
            stdout.starts_with(fat_tree::telemetry::CSV_HEADER),
            "engine {engine}: {stdout}"
        );
        assert!(stdout.lines().count() > 1, "engine {engine} traced nothing");
    }
}

#[test]
fn trace_verify_runs_under_every_output_format() {
    // --verify must verify (and be able to fail non-zero) with csv output
    // too, not just jsonl.
    let (ok, stdout, stderr) = ftsim(&[
        "trace", "--n", "32", "--w", "8", "--format", "csv", "--verify", "1",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("trace verified"),
        "csv branch skipped verification: {stderr}"
    );
    assert!(
        stdout.starts_with(fat_tree::telemetry::CSV_HEADER),
        "{stdout}"
    );
}

#[test]
fn shard_json_smoke_and_structured_fault_error() {
    let (ok, stdout, stderr) = ftsim(&[
        "shard",
        "--n",
        "64",
        "--w",
        "16",
        "--workload",
        "perm",
        "--shards",
        "2",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    for key in [
        "\"schema\":\"ftsim-shard/v1\"",
        "\"shards\":2",
        "\"transport\":\"inproc\"",
        "\"matches_single_arena\":true",
        "\"barrier_wait_ns\":",
        "\"shard_up_ns\":[",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }

    // Worker processes behind pipes must produce the same document shape
    // (and the same bytes of simulation output, asserted in-process by
    // matches_single_arena).
    let (ok, stdout, stderr) = ftsim(&[
        "shard",
        "--n",
        "64",
        "--w",
        "16",
        "--workload",
        "perm",
        "--shards",
        "4",
        "--transport",
        "pipe",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    for key in [
        "\"schema\":\"ftsim-shard/v1\"",
        "\"transport\":\"pipe\"",
        "\"matches_single_arena\":true",
        "\"merge_ns\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }

    // The shared-memory rings are gone: one usage line, exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args(["shard", "--n", "32", "--transport", "shm"])
        .output()
        .expect("spawn ftsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.trim(),
        "unknown transport: shm (expected inproc|pipe)"
    );

    // A fully dead link must terminate with a structured error, not hang.
    let (ok, stdout, _) = ftsim(&[
        "shard",
        "--n",
        "32",
        "--shards",
        "2",
        "--drop",
        "1.0",
        "--timeout-ms",
        "50",
        "--retries",
        "1",
        "--format",
        "json",
    ]);
    assert!(!ok, "dead link must exit non-zero");
    assert!(
        stdout.contains("\"error\":{\"kind\":\"timeout\""),
        "{stdout}"
    );
}

/// A worker process reads bytes it did not write: a checksummed INIT for a
/// 100-leaf "tree" (it used to die in `FatTree::new`'s assertion) must come
/// back as one `Error` frame, and the worker must still exit cleanly on EOF.
#[test]
fn shard_worker_answers_a_crafted_init_with_an_error_frame_not_a_panic() {
    use fat_tree::shard::proto::{InitMsg, ERR_BAD_PAYLOAD};
    use fat_tree::shard::wire::{self, FrameKind};
    use std::process::Stdio;
    let mut init = InitMsg {
        n: 128,
        boundary: 1,
        shard: 0,
        proto: wire::PROTO_VERSION,
        sim: fat_tree::sim::SimConfig::default(),
        plan: fat_tree::shard::FaultPlan::none(),
        profile: fat_tree::core::CapacityProfile::FullDoubling,
    }
    .encode();
    init[0] = 100;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftsim shard-worker");
    let mut stdin = child.stdin.take().unwrap();
    let frame = wire::encode(FrameKind::Init, 0, 0, &init);
    wire::write_frame_buf(&mut stdin, &frame, &mut Vec::new()).unwrap();
    let reply = wire::read_frame(child.stdout.as_mut().unwrap())
        .unwrap()
        .expect("one reply frame before EOF");
    let reply = wire::decode(&reply).unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(reply.payload, &[ERR_BAD_PAYLOAD]);
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn rejects_garbage() {
    let (ok, _, stderr) = ftsim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = ftsim(&["schedule", "--n", "sixty-four"]);
    assert!(!ok);
    assert!(stderr.contains("expects an integer"));
    let (ok, _, stderr) = ftsim(&["schedule", "--workload", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
}

/// Pull `"key":value` out of the hand-rolled one-line JSON.
fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let rest = &json[start..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| (c == ',' || c == '}') && !rest[..i].contains('[') || c == ']')
        .map(|(i, c)| if c == ']' { i + 1 } else { i })
        .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn simulate_streamed_specs_emit_json_shape() {
    for spec in [
        "streamperm",
        "bursty",
        "bursty:4",
        "incast:8",
        "allreduce:16",
        "alltoall:8",
    ] {
        let (ok, stdout, stderr) = ftsim(&[
            "simulate",
            "--n",
            "128",
            "--workload",
            spec,
            "--format",
            "json",
        ]);
        assert!(ok, "spec {spec} failed: {stderr}");
        assert!(
            stdout.contains("\"schema\":\"ftsim-simulate/v1\""),
            "{stdout}"
        );
        assert_eq!(json_field(&stdout, "streamed"), "true", "{stdout}");
        assert_eq!(json_field(&stdout, "n"), "128");
        let messages: usize = json_field(&stdout, "messages").parse().unwrap();
        assert!(messages > 0, "{stdout}");
        let cycles: usize = json_field(&stdout, "cycles").parse().unwrap();
        assert!(cycles > 0, "{stdout}");
        let per_cycle = json_field(&stdout, "delivered_per_cycle");
        let delivered: usize = per_cycle
            .trim_matches(['[', ']'])
            .split(',')
            .map(|x| x.parse::<usize>().unwrap())
            .sum();
        assert_eq!(delivered, messages, "{stdout}");
    }
}

#[test]
fn simulate_streamed_reruns_are_deterministic_per_seed() {
    let run = |seed: &str| {
        let (ok, stdout, stderr) = ftsim(&[
            "simulate",
            "--n",
            "128",
            "--workload",
            "bursty",
            "--seed",
            seed,
            "--format",
            "json",
        ]);
        assert!(ok, "{stderr}");
        stdout
    };
    // Same seed twice: the full JSON line (fingerprint included) matches.
    assert_eq!(run("1985"), run("1985"));
    // A different seed reorders deliveries, which the fingerprint catches.
    assert_ne!(
        json_field(&run("1985"), "order_fnv"),
        json_field(&run("7"), "order_fnv")
    );
}

#[test]
fn streamed_specs_feed_every_engine() {
    // The materialized fallback: report runs all engines on a collected set.
    let (ok, stdout, stderr) = ftsim(&[
        "report",
        "--n",
        "64",
        "--workload",
        "incast:4",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"schema\":\"ftsim-report/v2\""));
    assert!(stdout.contains("\"workload\":\"incast:4\""));
    let (ok, stdout, _) = ftsim(&["online", "--n", "64", "--workload", "allreduce:4"]);
    assert!(ok);
    assert!(stdout.contains("cycles"), "{stdout}");
    let (ok, stdout, _) = ftsim(&["schedule", "--n", "64", "--workload", "alltoall:4"]);
    assert!(ok);
    assert!(stdout.contains("delivery cycles"), "{stdout}");
}

/// A running `ftsim serve` child: stdin held open (closing it is the
/// shutdown signal), stdout buffered so the listening and summary event
/// lines can be read in order.
struct ServeProc {
    child: std::process::Child,
    reader: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
    /// The full listening event line, for fields beyond `addr`
    /// (e.g. `metrics_addr` when the server was spawned with one).
    listen_line: String,
}

fn spawn_serve(extra: &[&str]) -> ServeProc {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args(["serve", "--n", "64", "--w", "16", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn ftsim serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    assert!(
        line.contains("\"schema\":\"ftsim-serve/v1\"") && line.contains("\"event\":\"listening\""),
        "{line}"
    );
    let addr = json_field(&line, "addr").trim_matches('"').to_string();
    assert!(addr.contains(':'), "no port in listening line: {line}");
    ServeProc {
        child,
        reader,
        addr,
        listen_line: line,
    }
}

impl ServeProc {
    /// Close stdin (graceful shutdown), wait for exit, return the summary
    /// event line.
    fn shutdown(mut self) -> String {
        use std::io::BufRead;
        drop(self.child.stdin.take());
        let mut summary = String::new();
        self.reader.read_line(&mut summary).expect("summary line");
        let status = self.child.wait().expect("serve exit status");
        assert!(status.success(), "serve exited non-zero");
        assert!(
            summary.contains("\"event\":\"summary\""),
            "missing summary event: {summary}"
        );
        summary
    }
}

#[test]
fn serve_listening_bench_and_summary_shapes() {
    let server = spawn_serve(&[]);
    let (ok, stdout, stderr) = ftsim(&[
        "bench-client",
        "--addr",
        &server.addr,
        "--n",
        "64",
        "--w",
        "16",
        "--clients",
        "2",
        "--requests",
        "40",
        "--messages",
        "16",
        "--seed",
        "7",
        "--verify",
        "1",
    ]);
    assert!(ok, "{stderr}");
    for key in [
        "\"schema\":\"ftsim-serve/v1\"",
        "\"event\":\"bench\"",
        "\"mode\":\"closed\"",
        "\"engine\":\"schedule\"",
        "\"resp_fnv\":\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert_eq!(json_field(&stdout, "ok"), "40", "{stdout}");
    assert_eq!(json_field(&stdout, "verified"), "40", "{stdout}");
    assert_eq!(json_field(&stdout, "mismatches"), "0", "{stdout}");
    assert_eq!(json_field(&stdout, "busy_rejects"), "0", "{stdout}");
    assert_eq!(json_field(&stdout, "reaped"), "0", "{stdout}");
    assert_eq!(json_field(&stdout, "errors"), "0", "{stdout}");
    let summary = server.shutdown();
    assert_eq!(json_field(&summary, "served"), "40", "{summary}");
    assert_eq!(json_field(&summary, "reaped"), "0", "{summary}");
    assert!(summary.contains("\"lambda_max\":"), "{summary}");
}

#[test]
fn serve_bench_fingerprint_is_deterministic_per_seed() {
    // The resp_fnv fold is connection- and order-independent, so two runs
    // of the same (seed, clients, requests) workload against fresh servers
    // must agree bit for bit; a different seed must not.
    let run = |seed: &str| {
        let server = spawn_serve(&[]);
        let (ok, stdout, stderr) = ftsim(&[
            "bench-client",
            "--addr",
            &server.addr,
            "--n",
            "64",
            "--w",
            "16",
            "--clients",
            "2",
            "--requests",
            "30",
            "--messages",
            "16",
            "--seed",
            seed,
        ]);
        assert!(ok, "{stderr}");
        server.shutdown();
        json_field(&stdout, "resp_fnv").to_string()
    };
    assert_eq!(run("1985"), run("1985"));
    assert_ne!(run("1985"), run("7"));
}

#[test]
fn serve_burst_gets_busy_rejects_not_errors() {
    let server = spawn_serve(&["--inflight", "2", "--window-us", "5000"]);
    let (ok, stdout, stderr) = ftsim(&[
        "bench-client",
        "--addr",
        &server.addr,
        "--n",
        "64",
        "--w",
        "16",
        "--clients",
        "2",
        "--requests",
        "80",
        "--messages",
        "16",
        "--mode",
        "burst",
        "--depth",
        "40",
    ]);
    assert!(ok, "{stderr}");
    let ok_n: u64 = json_field(&stdout, "ok").parse().unwrap();
    let busy: u64 = json_field(&stdout, "busy").parse().unwrap();
    assert_eq!(ok_n + busy, 80, "{stdout}");
    assert!(busy > 0, "burst at inflight=2 must trip Busy: {stdout}");
    // The explicit alias must agree with the legacy "busy" field, and the
    // reap counter must be present (zero: no client went silent here).
    assert_eq!(
        json_field(&stdout, "busy_rejects"),
        &busy.to_string(),
        "{stdout}"
    );
    assert_eq!(json_field(&stdout, "reaped"), "0", "{stdout}");
    assert_eq!(json_field(&stdout, "errors"), "0", "{stdout}");
    let summary = server.shutdown();
    assert_eq!(
        json_field(&summary, "served"),
        &ok_n.to_string(),
        "{summary}"
    );
    assert_eq!(json_field(&summary, "busy"), &busy.to_string(), "{summary}");
}

#[test]
fn serve_metrics_scrape_round_trip() {
    let server = spawn_serve(&["--metrics-addr", "127.0.0.1:0"]);
    let maddr = json_field(&server.listen_line, "metrics_addr")
        .trim_matches('"')
        .to_string();
    assert!(maddr.contains(':'), "{}", server.listen_line);

    let (ok, _, stderr) = ftsim(&[
        "bench-client",
        "--addr",
        &server.addr,
        "--n",
        "64",
        "--w",
        "16",
        "--clients",
        "2",
        "--requests",
        "40",
        "--messages",
        "16",
        "--verify",
        "1",
    ]);
    assert!(ok, "{stderr}");

    // JSON page: documented schema, and the served counter reflects the
    // finished bench. A second scrape must never go backwards.
    let scrape = |path: &str| {
        let (ok, body, stderr) = ftsim(&["metrics-scrape", "--addr", &maddr, "--path", path]);
        assert!(ok, "scrape {path}: {stderr}");
        body
    };
    let page1 = scrape("/metrics.json");
    assert!(
        page1.starts_with("{\"schema\":\"ftsim-metrics/v1\""),
        "{page1}"
    );
    let served1: u64 = json_field(&page1, "served").parse().unwrap();
    assert_eq!(served1, 40, "{page1}");
    let page2 = scrape("/metrics.json");
    let served2: u64 = json_field(&page2, "served").parse().unwrap();
    assert!(served2 >= served1, "served went backwards: {page2}");

    // Prometheus page: the counter is there in exposition format.
    let prom = scrape("/metrics");
    assert!(
        prom.contains("# TYPE ftsim_serve_requests_total counter"),
        "{prom}"
    );
    assert!(prom.contains("\nftsim_serve_requests_total 40\n"), "{prom}");

    // Span page: JSONL in the telemetry dialect, one Admit/Batch/Done
    // triple per request (ring capacity is far above 3 * 40 events).
    let spans = scrape("/spans");
    let events = fat_tree::telemetry::parse_jsonl(&spans).expect("span JSONL must parse");
    assert!(!events.is_empty(), "{spans}");

    // Unknown paths 404, which metrics-scrape surfaces as a failure.
    let (ok, _, stderr) = ftsim(&["metrics-scrape", "--addr", &maddr, "--path", "/nope"]);
    assert!(!ok, "scraping an unknown path must fail");
    assert!(stderr.contains("metrics-scrape:"), "{stderr}");

    server.shutdown();
}

#[test]
fn shard_metrics_listener_scrapes_mid_run() {
    use std::io::BufRead;
    // Per-frame delivery delay keeps the run alive long enough that the
    // scrape below lands mid-flight; the listener line is printed before
    // the run starts, so the endpoint is up by the time we read it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args([
            "shard",
            "--n",
            "64",
            "--w",
            "16",
            "--workload",
            "perm",
            "--shards",
            "2",
            "--delay-ms",
            "40",
            "--metrics-addr",
            "127.0.0.1:0",
            "--format",
            "json",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn ftsim shard");
    let stdout = child.stdout.take().expect("shard stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("metrics-listening line");
    assert!(line.contains("\"event\":\"metrics-listening\""), "{line}");
    let maddr = json_field(&line, "metrics_addr")
        .trim_matches('"')
        .to_string();

    let (ok, page, stderr) = ftsim(&["metrics-scrape", "--addr", &maddr]);
    assert!(ok, "mid-run scrape failed: {stderr}");
    assert!(page.contains("\"schema\":\"ftsim-metrics/v1\""), "{page}");
    assert!(page.contains("\"shard_links\":["), "{page}");
    assert!(page.contains("\"frames_sent\":"), "{page}");

    // The run itself must still complete and carry the per-link counter
    // arrays in its stats document.
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("stats line");
    let status = child.wait().expect("shard exit status");
    assert!(status.success(), "shard exited non-zero: {stats}");
    for key in [
        "\"matches_single_arena\":true",
        "\"link_frames_sent\":[",
        "\"link_frames_received\":[",
        "\"link_retries\":[",
        "\"link_checksum_rejects\":[",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
}

#[test]
fn serve_rejects_bad_invocations() {
    let (ok, _, stderr) = ftsim(&["serve", "--n", "63"]);
    assert!(!ok);
    assert!(stderr.contains("power of two"), "{stderr}");
    // A graft tree of n·slots leaves past 2^24 — the first two products
    // wrap a u32 — is refused before anything binds, not left to panic
    // the batcher thread behind a listening line.
    for shape in [
        "--n 1048576 --w 1024 --slots 4096",
        "--n 64 --w 16 --slots 2147483648",
        "--n 1048576 --slots 32",
    ] {
        let args: Vec<&str> = ["serve"].into_iter().chain(shape.split(' ')).collect();
        let (code, stdout, stderr) = ftsim_status(&args);
        assert_eq!(code, Some(2), "{shape}: {stderr}");
        assert!(stdout.is_empty(), "{shape}: {stdout}");
        assert!(stderr.contains("--slots"), "{shape}: {stderr}");
    }
    let (ok, _, stderr) = ftsim(&["bench-client"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
    // Nothing listens on a fresh ephemeral port that was bound and dropped.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let (ok, _, stderr) = ftsim(&[
        "bench-client",
        "--addr",
        &format!("127.0.0.1:{port}"),
        "--requests",
        "1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bench-client:"), "{stderr}");
}

#[test]
fn streamed_spec_argument_errors_are_rejected() {
    let (ok, _, stderr) = ftsim(&["simulate", "--n", "64", "--workload", "bursty:lots"]);
    assert!(!ok);
    assert!(stderr.contains("expected an integer"), "{stderr}");
    let (ok, _, stderr) = ftsim(&["simulate", "--n", "64", "--workload", "allreduce:3"]);
    assert!(!ok);
    assert!(stderr.contains("power of two"), "{stderr}");
}

#[test]
fn simulate_refuses_a_stream_longer_than_the_engine_can_index() {
    // The million-leaf tier with alltoall's default pod (n/8) is 1.4·10¹¹
    // messages — past the engine's u32 indices. Exit 2 with one line, not
    // an allocation abort or a panic backtrace.
    let out = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args(["simulate", "--n", "1048576", "--w", "262144"])
        .args(["--workload", "alltoall", "--format", "json"])
        .output()
        .expect("spawn ftsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("137437904896 messages"), "{stderr}");
    assert!(stderr.contains("at most 4294967295"), "{stderr}");
}

#[test]
fn topology_subcommand_emits_schema_for_all_families() {
    for spec in [
        "universal:n=64,w=16",
        "kary:k=8,over=4",
        "twolayer:r=16,p=8",
    ] {
        let (ok, stdout, stderr) = ftsim(&["topology", "--topology", spec, "--format", "json"]);
        assert!(ok, "{spec}: {stderr}");
        assert!(
            stdout.starts_with("{\"schema\":\"ftsim-topology/v1\""),
            "{stdout}"
        );
        assert!(stdout.contains("\"levels\":["), "{stdout}");
        assert!(stdout.contains("\"cost\":{\"switches\":"), "{stdout}");
        let bound: f64 = json_field(&stdout, "lambda_perm_bound").parse().unwrap();
        assert!(bound > 0.0, "{spec}: λ bound {bound}");
    }
    // Without --topology the subcommand describes the default universal
    // machine (the --n/--w path everything else defaults to).
    let (ok, stdout, _) = ftsim(&["topology", "--format", "json"]);
    assert!(ok);
    assert_eq!(json_field(&stdout, "family"), "\"universal\"", "{stdout}");
    // Text form names the family and renders the level table.
    let (ok, stdout, _) = ftsim(&["topology", "--topology", "kary:k=8"]);
    assert!(ok);
    assert!(stdout.contains("kary:k=8"), "{stdout}");
    assert!(stdout.contains("level"), "{stdout}");
}

#[test]
fn bad_topology_specs_are_rejected() {
    for spec in [
        "nosuch:k=8",
        "kary:k=7",
        "kary:k=8,over=0",
        "universal:n=63,w=16",
        "twolayer:r=16,p=32",
        "perlevel:caps=1/2/4",
        "kary",
    ] {
        let (ok, _, stderr) = ftsim(&["topology", "--topology", spec]);
        assert!(!ok, "{spec} was accepted");
        assert!(stderr.contains("bad --topology spec"), "{spec}: {stderr}");
    }
    // --topology replaces --n/--w: mixing them is a usage error.
    let (ok, _, stderr) = ftsim(&["simulate", "--topology", "kary:k=8", "--n", "64"]);
    assert!(!ok);
    assert!(stderr.contains("--topology replaces --n/--w"), "{stderr}");
}

#[test]
fn bad_n_and_w_are_usage_errors_not_panics() {
    // `--n`/`--w` are shorthand for `universal:n=..,w=..` and are refused by
    // the same parser. These sizes used to reach an assertion in
    // `CapacityProfile` / `Embedded::new`: exit 101 and a backtrace.
    let sizes = [
        "--n 100",
        "--n 1",
        "--n 0",
        "--n 33554432",
        "--n 134217728",
        "--n 64 --w 0",
    ];
    for cmd in [
        "simulate", "tree", "schedule", "online", "report", "trace", "shard",
    ] {
        for size in sizes {
            let out = Command::new(env!("CARGO_BIN_EXE_ftsim"))
                .arg(cmd)
                .args(size.split(' '))
                .output()
                .expect("spawn ftsim");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd} {size:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {size:?}");
            assert_eq!(stderr.lines().count(), 1, "{cmd} {size:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {size:?}: {stderr}");
            let named = if size.contains("--w") { "`w`" } else { "`n`" };
            assert!(stderr.contains(named), "{cmd} {size:?}: {stderr}");
        }
    }
}

#[test]
fn topology_binary_simulate_matches_classic_path() {
    // The universal spec must be the --n/--w path bit for bit: same
    // cycles, same delivery-order fingerprint, same machine dimensions.
    let classic = ftsim(&[
        "simulate",
        "--n",
        "64",
        "--w",
        "16",
        "--workload",
        "perm",
        "--seed",
        "9",
        "--format",
        "json",
    ]);
    let topo = ftsim(&[
        "simulate",
        "--topology",
        "universal:n=64,w=16",
        "--workload",
        "perm",
        "--seed",
        "9",
        "--format",
        "json",
    ]);
    assert!(classic.0 && topo.0, "{} {}", classic.2, topo.2);
    // (substring check: the spec itself contains commas, which the naive
    // json_field extractor splits on)
    assert!(
        topo.1.contains("\"topology\":\"universal:n=64,w=16\","),
        "{}",
        topo.1
    );
    for key in ["n", "w", "cycles", "order_fnv", "delivered_per_cycle"] {
        assert_eq!(
            json_field(&classic.1, key),
            json_field(&topo.1, key),
            "{key} diverged between classic and topology paths"
        );
    }
    // The classic output carries no topology field at all.
    assert!(!classic.1.contains("\"topology\""), "{}", classic.1);
}

#[test]
fn topology_flag_runs_through_engine_subcommands() {
    // Non-power-of-two machine through simulate/schedule/online/report.
    let (ok, stdout, stderr) = ftsim(&[
        "simulate",
        "--topology",
        "twolayer:r=16,p=8,n=100",
        "--workload",
        "perm",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(json_field(&stdout, "messages"), "104"); // rounded up to full pods
    let (ok, stdout, stderr) = ftsim(&[
        "schedule",
        "--topology",
        "kary:k=8,over=4",
        "--workload",
        "perm",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("delivery cycles"), "{stdout}");
    let (ok, stdout, stderr) = ftsim(&["online", "--topology", "kary:k=8", "--workload", "krel:2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("on-line"), "{stdout}");
    let (ok, stdout, stderr) = ftsim(&[
        "report",
        "--topology",
        "kary:k=8",
        "--workload",
        "perm",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("\"topology\":\"kary:k=8,over=1\","),
        "{stdout}"
    );
    // Collectives on a topology default to its own pod size (8-ary pods
    // hold 4 servers each — not a power of two times anything the mask
    // streams could handle at k=6, and modular here).
    let (ok, stdout, stderr) = ftsim(&[
        "simulate",
        "--topology",
        "kary:k=6",
        "--workload",
        "allreduce",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    // k=6 pods hold 3 servers over 54 processors: 2·(3−1)·54 messages.
    assert_eq!(json_field(&stdout, "messages"), "216", "{stdout}");
}

#[test]
fn topology_is_rejected_where_it_cannot_apply() {
    let (ok, _, stderr) = ftsim(&["serve", "--topology", "kary:k=8", "--max-requests", "1"]);
    assert!(!ok);
    assert!(stderr.contains("universal"), "{stderr}");
    let (ok, _, stderr) = ftsim(&[
        "universality",
        "--net",
        "ring",
        "--side",
        "8",
        "--topology",
        "kary:k=8",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--topology"), "{stderr}");
    let (ok, _, stderr) = ftsim(&[
        "emulate",
        "--net",
        "ring",
        "--side",
        "8",
        "--topology",
        "kary:k=8",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--topology"), "{stderr}");
}

/// Exit status, stdout and stderr of one `ftsim` invocation.
fn ftsim_status(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftsim"))
        .args(args)
        .output()
        .expect("spawn ftsim");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn workload_suffixes_are_checked_before_anything_is_generated() {
    // Each of these used to run: `krel:abc` as k = 4, `local:zz` as 30 %,
    // `krel:0` as an empty workload, `krel:"` into a JSON line that was not
    // JSON; `krel:4294967295` aborted on a 34 GB allocation. The streamed
    // suffixes were clamped: `incast:0` ran a fan-in of 1, `bursty:0`
    // bursts of 1, `alltoall:0` / `alltoall:1` pods of 2 and
    // `alltoall:128` / `allreduce:65` pods of 64.
    for (spec, says) in [
        ("krel:abc", "expected an integer in 1..=4294967295"),
        ("local:zz", "expected an integer in 1..=99"),
        ("krel:0", "expected an integer in 1..=4294967295"),
        ("krel:\"", "expected an integer in 1..=4294967295"),
        ("krel:4294967295", "274877906880 messages"),
        ("incast:0", "expected an integer in 1..=63"),
        ("incast:64", "expected an integer in 1..=63"),
        ("bursty:0", "expected an integer in 1..=4294967295"),
        ("alltoall:0", "expected an integer in 2..=64"),
        ("alltoall:1", "expected an integer in 2..=64"),
        ("alltoall:128", "expected an integer in 2..=64"),
        ("allreduce:65", "expected an integer in 2..=64"),
        ("allreduce:x", "expected an integer in 2..=64"),
    ] {
        let (code, stdout, stderr) = ftsim_status(&[
            "simulate",
            "--n",
            "64",
            "--workload",
            spec,
            "--format",
            "json",
        ]);
        assert_eq!(code, Some(2), "{spec}: {stderr}");
        assert!(stdout.is_empty(), "{spec}: {stdout}");
        assert_eq!(stderr.lines().count(), 1, "{spec}: {stderr}");
        assert!(stderr.contains(&format!("workload {spec}")), "{stderr}");
        assert!(stderr.contains(says), "{spec}: {stderr}");
    }
}

#[test]
fn every_subcommand_refuses_a_flag_it_does_not_read() {
    for cmd in [
        "tree",
        "topology",
        "schedule",
        "online",
        "simulate",
        "report",
        "trace",
        "shard",
        "shard-worker",
        "serve",
        "bench-client",
        "metrics-scrape",
        "universality",
        "emulate",
        "layout",
        "help",
    ] {
        let (code, stdout, stderr) = ftsim_status(&[cmd, "--bogus", "1"]);
        assert_eq!(code, Some(2), "{cmd}: {stderr}");
        assert!(stdout.is_empty(), "{cmd}: {stdout}");
        assert_eq!(stderr.lines().count(), 1, "{cmd}: {stderr}");
        assert!(
            stderr.contains(&format!("`{cmd}` does not read --bogus")),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn a_misspelled_flag_is_refused_not_ignored() {
    // `--seeds 5` used to run the default seed and exit 0.
    let (code, stdout, stderr) =
        ftsim_status(&["simulate", "--n", "64", "--seeds", "5", "--format", "json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("`simulate` does not read --seeds"),
        "{stderr}"
    );
    assert!(
        stderr.contains("--seed "),
        "the flags it does read: {stderr}"
    );
}

#[test]
fn network_sizes_outside_their_family_are_refused() {
    // The first three used to panic (exit 101); `butterfly --dim 40` ran
    // d = 10 and `ccc --dim 1` ran d = 3.
    for (cmd, net, flag, size, range) in [
        ("universality", "mesh2d", "--side", "0", "2..=4096"),
        ("emulate", "hypercube", "--dim", "0", "1..=24"),
        ("universality", "tree", "--dim", "1", "2..=24"),
        ("emulate", "butterfly", "--dim", "40", "1..=19"),
        ("universality", "ccc", "--dim", "1", "3..=19"),
    ] {
        let (code, stdout, stderr) = ftsim_status(&[cmd, "--net", net, flag, size]);
        assert_eq!(code, Some(2), "{cmd} --net {net} {flag} {size}: {stderr}");
        assert!(stdout.is_empty(), "{stdout}");
        for part in [net, flag, range] {
            assert!(stderr.contains(part), "{net} {flag} {size}: {stderr}");
        }
    }
}
