//! End-to-end scrape tests: spawn a server with a metrics listener,
//! drive it with the bench client, and read the three exposition pages
//! over real TCP. Checks the `ftsim-metrics/v1` document's required
//! keys, counter monotonicity across scrapes, span reconstructibility
//! through `ft_telemetry::parse_jsonl`, that a scrape is answered
//! without an accept-poll delay, and that a no-metrics server refuses to
//! expose anything.

use ft_serve::client::{bench, BenchConfig, BenchMode};
use ft_serve::metrics::http_get;
use ft_serve::proto::Engine;
use ft_serve::server::{spawn, ServerConfig};
use ft_telemetry::EventKind;
use std::time::{Duration, Instant};

fn server_cfg() -> ServerConfig {
    ServerConfig {
        n: 64,
        w: 16,
        slots: 4,
        window_us: 200,
        inflight: 64,
        idle_ms: 5_000,
        max_requests: 0,
        addr: "127.0.0.1:0".to_string(),
        metrics: true,
        metrics_addr: Some("127.0.0.1:0".to_string()),
    }
}

fn client_cfg(addr: &str) -> BenchConfig {
    BenchConfig {
        addr: addr.to_string(),
        n: 64,
        w: 16,
        clients: 2,
        requests: 40,
        messages: 24,
        seed: 7,
        engine: Engine::Schedule,
        mode: BenchMode::Closed,
        verify: true,
    }
}

/// Pull `"key":<int>` out of a flat JSON document (the schemas under
/// test never nest the same key twice).
fn int_field(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {doc}"));
    doc[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {doc}"))
}

#[test]
fn scrape_pages_reflect_served_traffic_and_stay_monotonic() {
    let server = spawn(server_cfg()).expect("spawn server");
    let maddr = server.metrics_addr().expect("metrics listener bound");

    // Before any traffic the document must already parse with its keys.
    let empty = http_get(maddr, "/metrics.json").expect("scrape cold");
    assert!(empty.contains("\"schema\":\"ftsim-metrics/v1\""));
    assert_eq!(int_field(&empty, "served"), 0);

    let r = bench(&client_cfg(&server.addr().to_string())).expect("bench");
    assert_eq!(r.ok, 40);
    assert_eq!(r.mismatches, 0, "metrics must not disturb byte identity");

    let doc1 = http_get(maddr, "/metrics.json").expect("scrape 1");
    for key in [
        "\"schema\":\"ftsim-metrics/v1\"",
        "\"requests\":",
        "\"lambda_budget\":",
        "\"batch_occupancy\":",
        "\"stages\":",
        "\"schedule\":",
        "\"decode\":",
        "\"admit_wait\":",
        "\"batch_wait\":",
        "\"encode\":",
        "\"wall\":",
        "\"wall_by_width\":",
        "\"spans\":",
        "\"shard_links\":null",
    ] {
        assert!(doc1.contains(key), "missing {key} in {doc1}");
    }
    assert_eq!(int_field(&doc1, "served"), 40);
    assert!(int_field(&doc1, "assigned") >= 40);
    assert!(int_field(&doc1, "batches") > 0);
    assert!(int_field(&doc1, "limit") > 0);

    // A second run: every counter is monotonically non-decreasing.
    let r2 = bench(&client_cfg(&server.addr().to_string())).expect("bench 2");
    assert_eq!(r2.ok, 40);
    let doc2 = http_get(maddr, "/metrics.json").expect("scrape 2");
    for key in ["served", "assigned", "batches", "count"] {
        assert!(
            int_field(&doc2, key) >= int_field(&doc1, key),
            "{key} went backwards between scrapes"
        );
    }
    assert_eq!(int_field(&doc2, "served"), 80);

    // Prometheus page agrees with the JSON document.
    let prom = http_get(maddr, "/metrics").expect("prom scrape");
    assert!(prom.contains("ftsim_serve_requests_total 80"), "{prom}");
    assert!(
        prom.contains("ftsim_serve_stage_ns{engine=\"schedule\",stage=\"wall\",quantile=\"0.99\"}")
    );
    assert!(prom.contains("ftsim_serve_batch_occupancy_bucket{le=\"+Inf\"}"));

    // Span JSONL parses back, and a request's path is reconstructible:
    // some rid must appear as admitted → batched → done.
    let spans = http_get(maddr, "/spans").expect("span scrape");
    let events = ft_telemetry::parse_jsonl(&spans).expect("span jsonl parses");
    assert!(!events.is_empty());
    let path_complete = events
        .iter()
        .filter(|e| e.kind == EventKind::ReqAdmit)
        .any(|a| {
            events
                .iter()
                .any(|e| e.kind == EventKind::ReqBatch && e.tag == a.tag)
                && events
                    .iter()
                    .any(|e| e.kind == EventKind::ReqDone && e.tag == a.tag)
        });
    assert!(
        path_complete,
        "no request id traces admit → batch → done in {spans}"
    );

    server.stop();
}

#[test]
fn busy_rejects_show_up_in_counters_and_spans() {
    let mut scfg = server_cfg();
    scfg.inflight = 2;
    scfg.window_us = 5_000;
    let server = spawn(scfg).expect("spawn server");
    let maddr = server.metrics_addr().unwrap();
    let mut cfg = client_cfg(&server.addr().to_string());
    cfg.requests = 80;
    cfg.verify = false;
    cfg.mode = BenchMode::Burst { size: 40 };
    let r = bench(&cfg).expect("bench");
    assert!(r.busy > 0, "burst must overload the tiny budget");

    let doc = http_get(maddr, "/metrics.json").expect("scrape");
    assert_eq!(int_field(&doc, "busy_rejected"), r.busy);
    let events = ft_telemetry::parse_jsonl(&http_get(maddr, "/spans").unwrap()).unwrap();
    let busy_spans = events
        .iter()
        .filter(|e| e.kind == EventKind::ReqBusy)
        .count() as u64;
    // The ring may have wrapped, but with 80 requests it will not have.
    assert_eq!(busy_spans, r.busy, "one ReqBusy span per rejected request");
    server.stop();
}

#[test]
fn sequential_scrapes_are_accepted_without_polling() {
    // The listener blocks in `accept`: 40 back-to-back scrapes of a live
    // server take a few ms, where a 20 ms accept poll costs ≈ 280 ms.
    let server = spawn(server_cfg()).expect("spawn server");
    let maddr = server.metrics_addr().unwrap();
    let r = bench(&client_cfg(&server.addr().to_string())).expect("bench");
    assert_eq!(r.ok, 40);
    let t0 = Instant::now();
    for _ in 0..40 {
        let doc = http_get(maddr, "/metrics.json").expect("scrape");
        assert_eq!(int_field(&doc, "served"), 40);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(150),
        "40 sequential scrapes took {took:?}"
    );
    server.stop();
}

#[test]
fn no_metrics_server_serves_but_does_not_expose() {
    // The overhead-gate baseline: metrics off, no listener, byte-for-byte
    // identical service behaviour.
    let mut scfg = server_cfg();
    scfg.metrics = false;
    scfg.metrics_addr = None;
    let server = spawn(scfg).expect("spawn server");
    assert!(server.metrics_addr().is_none());
    let r = bench(&client_cfg(&server.addr().to_string())).expect("bench");
    assert_eq!(r.ok, 40);
    assert_eq!(r.mismatches, 0);
    let stats = server.stop();
    assert_eq!(stats.served, 40);
}
