//! `bench_check` — schema validation for `BENCH_engine.json`.
//!
//! `ft-perf` hand-rolls its JSON (the workspace builds offline, no serde),
//! so a formatting slip would ship a file downstream tooling cannot read.
//! This binary parses the file with the strict reader in [`ft_bench::json`]
//! and asserts the `ft-perf/v2` schema: required blocks present, rows carry
//! the documented fields with sane values. `scripts/check.sh` runs it on a
//! `--smoke --out` pass and on the committed file, so malformed bench
//! output fails CI.
//!
//! ```text
//! cargo run --release -p ft-bench --bin bench_check -- BENCH_engine.json
//! ```
//!
//! Exits non-zero with a description of the first violation found.

use ft_bench::json::{parse, Value};

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: {msg}");
    std::process::exit(1);
}

/// `doc[key]` must be an array; return it.
fn req_arr<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .unwrap_or_else(|| fail(&format!("missing required block \"{key}\"")))
        .as_arr()
        .unwrap_or_else(|| fail(&format!("\"{key}\" is not an array")))
}

/// `row[key]` must be a finite number; return it.
fn req_num(row: &Value, key: &str, ctx: &str) -> f64 {
    let x = row
        .get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing numeric \"{key}\"")));
    if !x.is_finite() {
        fail(&format!("{ctx}: \"{key}\" is not finite"));
    }
    x
}

/// `row[key]` must be a finite number ≥ `min`; return it.
fn req_min(row: &Value, key: &str, ctx: &str, min: f64) -> f64 {
    let x = req_num(row, key, ctx);
    if x < min {
        fail(&format!("{ctx}: \"{key}\" < {min}"));
    }
    x
}

/// `row[key]` must be a non-empty string; return it.
fn req_str<'a>(row: &'a Value, key: &str, ctx: &str) -> &'a str {
    let s = row
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail(&format!("{ctx}: missing string \"{key}\"")));
    if s.is_empty() {
        fail(&format!("{ctx}: \"{key}\" is empty"));
    }
    s
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));

    match doc.get("schema").and_then(Value::as_str) {
        Some("ft-perf/v2") => {}
        Some(other) => fail(&format!("unexpected schema \"{other}\"")),
        None => fail("missing \"schema\""),
    }

    // The stamp: which host, toolchain and commit produced the numbers.
    // `rustc` / `commit` are null when the command was unavailable, but the
    // keys must be there.
    let env = doc
        .get("env")
        .unwrap_or_else(|| fail("missing \"env\" block"));
    req_min(env, "available_parallelism", "env", 1.0);
    for key in ["rustc", "commit"] {
        match env.get(key) {
            Some(Value::Null) => {}
            Some(Value::Str(s)) if !s.is_empty() => {}
            _ => fail(&format!(
                "env: \"{key}\" must be a non-empty string or null"
            )),
        }
    }

    let results = req_arr(&doc, "results");
    if results.is_empty() {
        fail("\"results\" is empty");
    }
    for (i, r) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        req_str(r, "op", &ctx);
        req_str(r, "engine", &ctx);
        req_str(r, "workload", &ctx);
        req_min(r, "n", &ctx, 1.0);
        if req_min(r, "min_ns", &ctx, 0.0) > req_num(r, "median_ns", &ctx) {
            fail(&format!("{ctx}: min_ns > median_ns"));
        }
        req_min(r, "mad_ns", &ctx, 0.0);
        req_min(r, "iters", &ctx, 1.0);
    }

    for (i, s) in req_arr(&doc, "speedups").iter().enumerate() {
        let ctx = format!("speedups[{i}]");
        req_str(s, "op", &ctx);
        req_str(s, "workload", &ctx);
        req_num(s, "n", &ctx);
        if req_num(s, "speedup", &ctx) <= 0.0 {
            fail(&format!("{ctx}: speedup <= 0"));
        }
    }

    // The topology block: the generalized-topology comparison. All three
    // constructor families must be present (the experiment exists to compare
    // them), every row must deliver its whole permutation in ≥ 1 cycle, and
    // the measured λ can never beat the permutation lower bound's floor of
    // zero — beating the *bound itself* is legitimate (a random permutation
    // is rarely the worst case), so only internal consistency is asserted.
    let topology = req_arr(&doc, "topology");
    if topology.is_empty() {
        fail("\"topology\" is empty");
    }
    for (i, t) in topology.iter().enumerate() {
        let ctx = format!("topology[{i}]");
        req_str(t, "family", &ctx);
        req_str(t, "spec", &ctx);
        if req_num(t, "padded_n", &ctx) < req_min(t, "leaves", &ctx, 2.0) {
            fail(&format!("{ctx}: padded_n < leaves"));
        }
        let messages = req_min(t, "messages", &ctx, 1.0);
        if req_num(t, "lambda_bound", &ctx) <= 0.0 {
            fail(&format!("{ctx}: lambda_bound <= 0"));
        }
        req_min(t, "lambda", &ctx, 0.0);
        req_min(t, "sched_cycles", &ctx, 1.0);
        let sim_cycles = req_min(t, "sim_cycles", &ctx, 1.0);
        let dpc = req_num(t, "delivered_per_cycle", &ctx);
        if dpc <= 0.0 {
            fail(&format!("{ctx}: delivered_per_cycle <= 0"));
        }
        if (dpc * sim_cycles - messages).abs() > 0.5 * sim_cycles {
            fail(&format!(
                "{ctx}: delivered_per_cycle inconsistent with messages/sim_cycles"
            ));
        }
        for key in ["switches", "cables", "wires", "bisection"] {
            req_min(t, key, &ctx, 1.0);
        }
        req_num(t, "volume_proxy", &ctx);
    }
    for family in ["universal", "kary", "twolayer"] {
        if !topology
            .iter()
            .any(|t| t.get("family").and_then(Value::as_str) == Some(family))
        {
            fail(&format!("topology: missing \"{family}\" family row"));
        }
    }

    let telemetry = doc
        .get("telemetry")
        .unwrap_or_else(|| fail("missing \"telemetry\""));
    if telemetry.get("size_caps").is_none() {
        fail("telemetry: missing \"size_caps\"");
    }
    for (i, c) in req_arr(telemetry, "capped_rows").iter().enumerate() {
        let ctx = format!("capped_rows[{i}]");
        req_str(c, "op", &ctx);
        req_num(c, "cap", &ctx);
    }
    req_arr(telemetry, "gate_runs");

    println!(
        "bench_check: {path} ok ({} results, {} speedups, {} topology rows)",
        results.len(),
        req_arr(&doc, "speedups").len(),
        topology.len()
    );
}
