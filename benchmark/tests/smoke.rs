//! Drives the built binary the way the command line does, with the
//! shortest slices the flags allow.

use std::process::Command;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ft-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("output is UTF-8"),
    )
}

/// The result lines of a run: one JSON object per selected workload.
fn results(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect()
}

#[test]
fn all_five_workloads_report_zero_failed_operations() {
    let (ok, stdout) = bench(&["--seed", "7", "--seconds", "1", "--trace", "0"]);
    assert!(ok, "{stdout}");
    let lines = results(&stdout);
    assert_eq!(lines.len(), 5, "{stdout}");
    for line in &lines {
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        assert!(
            line.contains(",\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":"),
            "{line}"
        );
        for name in ["msgs_per_s", "lat_p02_us", "cycles", "peak_rss_mb"] {
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{name}: {line}"
            );
        }
    }
    assert_eq!(
        stdout.lines().last(),
        lines.last().copied(),
        "the result is the last line"
    );
}

#[test]
fn traced_run_measures_every_layer_and_its_traces_re_parse() {
    let (ok, stdout) = bench(&[
        "--workload",
        "serve_closed",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(ok, "{stdout}");
    let lines = results(&stdout);
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(lines[0].starts_with("{\"correct\":true,"), "{}", lines[0]);
    assert!(lines[0].contains(",\"failed\":0,"), "{}", lines[0]);
    // One trace file per layer group, each read back by the run itself.
    for w in ["sim_stream", "sched_batch", "shard_run", "serve_closed"] {
        assert!(
            stdout.contains(&format!("trace-{w}.jsonl re-parses: ")),
            "{w}: {stdout}"
        );
    }
    assert!(
        lines[0].contains("\"shard.retries\":{\"value\":0,"),
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains("\"serve.busy_share\":{\"value\":0,"),
        "{}",
        lines[0]
    );
}

#[test]
fn unknown_flags_and_workloads_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate", "1"],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--seed"],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?}");
        assert!(results(&stdout).is_empty(), "{args:?}: {stdout}");
    }
}
