//! End-to-end serve tests over real TCP on the loopback interface: spawn
//! the server, drive it with the bench client, and check verification,
//! determinism, backpressure, and dead-client reaping.

use ft_serve::client::{bench, BenchConfig, BenchMode};
use ft_serve::proto::Engine;
use ft_serve::server::{spawn, ServerConfig};

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
        metrics_addr: None,
    }
}

fn client_cfg(addr: &str) -> BenchConfig {
    BenchConfig {
        addr: addr.to_string(),
        n: 64,
        w: 16,
        clients: 3,
        requests: 60,
        messages: 24,
        seed: 42,
        engine: Engine::Schedule,
        mode: BenchMode::Closed,
        verify: true,
    }
}

#[test]
fn closed_loop_serves_verified_responses() {
    for engine in [Engine::Schedule, Engine::Online] {
        let server = spawn(server_cfg()).expect("spawn server");
        let addr = server.addr().to_string();
        let mut cfg = client_cfg(&addr);
        cfg.engine = engine;
        let r = bench(&cfg).expect("bench run");
        assert_eq!(r.sent, 60, "{engine:?}");
        assert_eq!(r.ok, 60, "{engine:?}: every request answered");
        assert_eq!(r.busy, 0, "{engine:?}");
        assert_eq!(r.errors, 0, "{engine:?}");
        assert_eq!(r.verified, 60, "{engine:?}");
        assert_eq!(
            r.mismatches, 0,
            "{engine:?}: served frames must match solo recomputation"
        );
        let stats = server.stop();
        assert_eq!(stats.served, 60, "{engine:?}");
        assert!(stats.batches > 0, "{engine:?}");
    }
}

#[test]
fn response_fingerprint_is_deterministic_across_runs_and_client_counts() {
    // The same (seed, total-requests) workload split across different
    // client counts and pipeline depths must yield the same Resp payload
    // set. resp_fnv is an order-independent fold, so equality means the
    // *contents* matched, regardless of coalescing boundaries.
    //
    // Note the workload is a function of (seed, client, index), so the
    // per-client share must match across runs: keep clients fixed while
    // varying depth/window, and compare fixed-client runs twice.
    let mut fnvs = Vec::new();
    for (depth, window_us) in [(1usize, 50u64), (4, 500), (8, 2_000)] {
        let mut scfg = server_cfg();
        scfg.window_us = window_us;
        let server = spawn(scfg).expect("spawn server");
        let mut cfg = client_cfg(server.addr().to_string().as_str());
        cfg.clients = 2;
        cfg.requests = 40;
        cfg.verify = false;
        cfg.mode = if depth == 1 {
            BenchMode::Closed
        } else {
            BenchMode::Open { depth }
        };
        let r = bench(&cfg).expect("bench run");
        assert_eq!(r.ok, 40);
        assert_eq!(r.busy + r.errors, 0);
        fnvs.push(r.resp_fnv);
        server.stop();
    }
    assert!(
        fnvs.windows(2).all(|w| w[0] == w[1]),
        "resp fingerprints diverged across interleavings: {fnvs:?}"
    );
}

#[test]
fn burst_overload_gets_structured_busy_rejects() {
    // A tiny in-flight budget plus a wide-open burst must trip admission
    // control: some requests bounce with Busy, none hang, none error.
    let mut scfg = server_cfg();
    scfg.inflight = 2;
    scfg.window_us = 5_000;
    let server = spawn(scfg).expect("spawn server");
    let mut cfg = client_cfg(server.addr().to_string().as_str());
    cfg.clients = 2;
    cfg.requests = 80;
    cfg.verify = true;
    cfg.mode = BenchMode::Burst { size: 40 };
    let r = bench(&cfg).expect("bench run");
    assert_eq!(r.sent, 80);
    assert_eq!(r.ok + r.busy, 80, "every request answered or rejected");
    assert!(r.busy > 0, "overload must produce Busy rejects");
    assert_eq!(r.errors, 0);
    assert_eq!(r.mismatches, 0, "accepted requests still verify");
    let stats = server.stop();
    assert_eq!(stats.served, r.ok);
    assert_eq!(stats.busy, r.busy);
}

#[test]
fn dead_client_is_reaped_and_server_keeps_serving() {
    let mut scfg = server_cfg();
    scfg.idle_ms = 100;
    let server = spawn(scfg).expect("spawn server");
    let addr = server.addr().to_string();
    // A client that handshakes then goes silent...
    let mut dead = client_cfg(&addr);
    dead.clients = 1;
    dead.requests = 0;
    dead.mode = BenchMode::Dead { hold_ms: 400 };
    let dead_handle = {
        let dead = dead.clone();
        std::thread::spawn(move || bench(&dead))
    };
    // ...must not stall live clients.
    let mut live = client_cfg(&addr);
    live.clients = 2;
    live.requests = 30;
    let r = bench(&live).expect("live bench");
    assert_eq!(r.ok, 30);
    assert_eq!(r.mismatches, 0);
    dead_handle
        .join()
        .expect("dead client thread")
        .expect("dead client connects cleanly");
    let stats = server.stop();
    assert_eq!(stats.served, 30);
}

#[test]
fn shape_mismatch_is_rejected_at_handshake() {
    let server = spawn(server_cfg()).expect("spawn server");
    let mut cfg = client_cfg(server.addr().to_string().as_str());
    cfg.n = 128; // server is n=64
    cfg.clients = 1;
    cfg.requests = 4;
    let err = bench(&cfg).expect_err("mismatched shape must fail the handshake");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    server.stop();
}

#[test]
fn spawn_refuses_slots_the_graft_tree_cannot_hold() {
    // Not a power of two; n·slots = 2^25 leaves; and 2^37, which a u32
    // product wraps to 0.
    for slots in [3, 1 << 19, 1 << 31] {
        let scfg = ServerConfig {
            slots,
            ..server_cfg()
        };
        let err = spawn(scfg).err().expect("spawned a server");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "slots = {slots}"
        );
    }
}

#[test]
fn max_requests_stops_the_server() {
    let mut scfg = server_cfg();
    scfg.max_requests = 20;
    let server = spawn(scfg).expect("spawn server");
    let mut cfg = client_cfg(server.addr().to_string().as_str());
    cfg.clients = 1;
    cfg.requests = 20;
    let r = bench(&cfg).expect("bench run");
    assert_eq!(r.ok, 20);
    server.wait();
}

#[test]
fn lone_request_waits_one_batching_window() {
    // One closed-loop client, one request in flight: each batch closes
    // when its window expires and is answered as soon as its compute
    // ends, so a request waits one window, not two.
    let mut scfg = server_cfg();
    scfg.window_us = 50_000;
    let server = spawn(scfg).expect("spawn server");
    let mut cfg = client_cfg(&server.addr().to_string());
    cfg.clients = 1;
    cfg.requests = 5;
    let r = bench(&cfg).expect("bench run");
    assert_eq!(r.ok, 5);
    assert_eq!(r.mismatches, 0);
    assert!(
        r.p50_us < 90_000,
        "a lone request waited {} µs for a 50 ms window",
        r.p50_us
    );
    server.stop();
}
