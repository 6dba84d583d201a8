//! `serve_closed` and `serve_pipelined` — 64-message schedule requests
//! against an in-process `ft_serve::spawn(ServerConfig::default())`
//! (n = 256, w = 64, 8 slots, 200 µs window).
//!
//! * `serve_closed`: one connection, one request in flight. Callers that
//!   each wait for a reply make a closed loop; with one connection every
//!   batch has width 1, so this **bypasses coalescing** and measures the
//!   pipeline's fixed cost — reader → batcher → compute → writer hand-offs
//!   and the batching window.
//! * `serve_pipelined`: two connections × depth 4 (8 in flight = `slots`,
//!   so the λ-steered admission limit can never answer `Busy`). The same
//!   layer used the other way — batches of ≈ 7, the grafted splitter pass
//!   and response demux do most of the work — so a change that buys
//!   `serve_closed` latency by closing batches early and costs coalescing
//!   shows here. No open-loop rate sweep: on two cores the generator and
//!   the server share the processors and a sweep would measure the
//!   scheduler.
//!
//! The client is the benchmark's own (per-request timestamps, spans), built
//! from the same public codec functions `ft_serve::client` uses.

use super::{med_self_us, med_us, pool_seed, write_trace, Workload};
use crate::consts::{
    LAT_PCT, SERVE_MSGS, SERVE_PIPE_CONNS, SERVE_PIPE_DEPTH, SERVE_REQ_POOL, WARMUP_SERVE_CLOSED,
    WARMUP_SERVE_PIPELINED,
};
use crate::host;
use crate::slice::{SliceArgs, SliceReport};
use crate::stats::percentile_ns;
use crate::trace::{Span, Tracer, NO_PARENT};
use ft_core::{FatTree, Message};
use ft_sched::SchedArena;
use ft_serve::client::{request_msgs, request_seed};
use ft_serve::core::solo_schedule_frame;
use ft_serve::proto::{self, decode_hello_ack, decode_resp, encode_hello, ReqView};
use ft_serve::{http_get, BatchBuf, Engine, ServeCompute, ServerConfig, ServerStats};
use ft_shard::wire::{self, checksum, end_frame, read_frame, write_frame_buf, FrameKind};
use ft_telemetry::NoopRecorder;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A silent socket for this long is an error, not a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// In-process solo scheduling of one pooled request: the oracle every
/// response is compared with.
struct Oracle {
    solo: FatTree,
    arena: SchedArena,
    msgs: Vec<Message>,
    packed: Vec<u64>,
    scratch: Vec<u32>,
    frame: Vec<u64>,
}

impl Oracle {
    fn new(n: u32, w: u64) -> Self {
        let solo = FatTree::universal(n, w);
        Oracle {
            arena: SchedArena::new(&solo),
            solo,
            msgs: Vec::new(),
            packed: Vec::new(),
            scratch: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The `Resp` frame a solo run produces for request `req_seed`, with
    /// the given header fields echoed in.
    fn frame(&mut self, req_seed: u64, shard: u16, seq: u32) -> &[u64] {
        request_msgs(req_seed, SERVE_MSGS, self.solo.n(), &mut self.packed);
        self.msgs.clear();
        self.msgs.extend(
            self.packed
                .iter()
                .map(|&w| Message::new((w >> 32) as u32, w as u32)),
        );
        solo_schedule_frame(
            &self.solo,
            &mut self.arena,
            &self.msgs,
            shard,
            seq,
            req_seed,
            &mut self.scratch,
            &mut self.frame,
        );
        &self.frame
    }
}

/// How long a client keeps sending.
#[derive(Clone, Copy)]
enum Until {
    Sent(u64),
    Time(Instant),
}

/// One completed request of the timed window.
struct Done {
    /// Index into the connection's request pool.
    pool: u32,
    lat_ns: u64,
    /// Completion time, ns since the process epoch.
    at_ns: u64,
    /// Checksum of the response payload.
    sum: u64,
}

/// One connection and everything its thread records.
struct Client {
    conn: usize,
    seed: u64,
    n: u32,
    /// Requests kept in flight.
    depth: usize,
    /// Completions between reference-kernel probes (traced slices).
    block: usize,
    /// The process epoch all timestamps count from.
    epoch: Instant,
    stream: TcpStream,
    req_buf: Vec<u64>,
    packed: Vec<u64>,
    bytes: Vec<u8>,
    /// Requests sent so far; also the next wire sequence number.
    next: u64,
    /// Frames read so far; `next - answered` requests are in flight.
    answered: u64,
    /// Send time of every request, ns since the process epoch.
    sent_ns: Vec<u64>,
    done: Vec<Done>,
    /// Frames read inside the timed window.
    attempted: u64,
    /// Of those: `Busy`, undecodable or unexpected frames, and (traced)
    /// responses that differ from the oracle's word for word.
    failed: u64,
    ref_kernel_ns: Vec<u64>,
}

impl Client {
    /// Connect and complete the serve handshake.
    /// `depth` requests in flight, a reference-kernel probe every `block`
    /// completions of a traced window, timestamps counted from `epoch`.
    fn connect(
        addr: SocketAddr,
        (conn, seed): (usize, u64),
        (n, w): (u32, u64),
        (depth, block): (usize, usize),
        epoch: Instant,
    ) -> std::io::Result<Client> {
        use std::io::{Error, ErrorKind};
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let (mut buf, mut bytes) = (Vec::new(), Vec::new());
        encode_hello(&mut buf, 0, n, w);
        write_frame_buf(&mut stream, &buf, &mut bytes)?;
        let words = read_frame(&mut stream)?
            .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof, "server closed in handshake"))?;
        let frame =
            wire::decode(&words).map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if frame.kind != FrameKind::HelloAck {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "unexpected handshake reply",
            ));
        }
        decode_hello_ack(frame.payload)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        Ok(Client {
            conn,
            seed,
            n,
            depth,
            block,
            epoch,
            stream,
            req_buf: buf,
            packed: Vec::new(),
            bytes,
            next: 0,
            answered: 0,
            sent_ns: Vec::new(),
            done: Vec::new(),
            attempted: 0,
            failed: 0,
            ref_kernel_ns: Vec::new(),
        })
    }

    fn pool_seed(&self, request: u64) -> u64 {
        request_seed(self.seed, self.conn, request % SERVE_REQ_POOL as u64)
    }

    /// Keep `depth` requests in flight until `until`, then drain. With
    /// `record`, completions are kept as samples. An I/O error ends the
    /// drive and fails every request then in flight (at least one: the one
    /// that could not be written).
    fn drive(&mut self, until: Until, record: bool, tr: &mut Tracer, oracle: Option<&mut Oracle>) {
        if let Err(e) = self.drive_io(until, record, tr, oracle) {
            let lost = (self.next - self.answered).max(1);
            self.attempted += lost;
            self.failed += lost;
            eprintln!("serve: connection {}: {e}: {lost} requests lost", self.conn);
        }
    }

    /// One loop iteration — fill the window, read one response — is one
    /// traced op.
    fn drive_io(
        &mut self,
        until: Until,
        record: bool,
        tr: &mut Tracer,
        mut oracle: Option<&mut Oracle>,
    ) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let start = self.next;
        let mut outstanding = 0usize;
        let mut sending = true;
        loop {
            let op = self.next as u32;
            let span = tr.open("op", NO_PARENT, op);
            while sending && outstanding < self.depth {
                sending = match until {
                    Until::Sent(k) => self.next - start < k,
                    Until::Time(t) => Instant::now() < t,
                };
                if !sending {
                    break;
                }
                let t = tr.now();
                let rs = self.pool_seed(self.next);
                request_msgs(rs, SERVE_MSGS, self.n, &mut self.packed);
                proto::begin_req(
                    &mut self.req_buf,
                    0,
                    self.next as u32,
                    rs,
                    Engine::Schedule,
                    rs,
                );
                self.req_buf.extend_from_slice(&self.packed);
                end_frame(&mut self.req_buf);
                tr.leaf("serve.client_encode", t, span, op);
                let t = tr.now();
                self.sent_ns.push(self.epoch.elapsed().as_nanos() as u64);
                write_frame_buf(&mut self.stream, &self.req_buf, &mut self.bytes)?;
                tr.leaf("serve.client_send", t, span, op);
                self.next += 1;
                outstanding += 1;
            }
            if outstanding == 0 {
                tr.close(span);
                return Ok(());
            }
            let t = tr.now();
            let words = read_frame(&mut self.stream)?
                .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof, "server closed mid-run"))?;
            let at_ns = self.epoch.elapsed().as_nanos() as u64;
            tr.leaf("serve.client_wait", t, span, op);
            outstanding -= 1;
            self.answered += 1;
            self.attempted += record as u64;
            match wire::decode(&words) {
                Ok(frame)
                    if frame.kind == FrameKind::Resp
                        && (frame.seq as usize) < self.sent_ns.len() =>
                {
                    let seq = frame.seq as u64;
                    if let Some(o) = oracle.as_deref_mut() {
                        let t = tr.now();
                        let want = o.frame(self.pool_seed(seq), frame.shard, frame.seq);
                        self.failed += (want != words.as_slice()) as u64;
                        tr.leaf("serve.client_verify", t, span, op);
                    }
                    if record {
                        self.done.push(Done {
                            pool: (seq % SERVE_REQ_POOL as u64) as u32,
                            lat_ns: at_ns - self.sent_ns[seq as usize],
                            at_ns,
                            sum: checksum(frame.payload),
                        });
                        if tr.on() && self.conn == 0 && self.done.len().is_multiple_of(self.block) {
                            self.ref_kernel_ns.push(host::ref_kernel());
                        }
                    }
                }
                _ => self.failed += record as u64,
            }
            tr.close(span);
        }
    }
}

/// Pull the number at `path` (nested keys, in document order) out of the
/// `ftsim-metrics/v1` page.
fn json_num(doc: &str, path: &[&str]) -> Option<f64> {
    let mut rest = doc;
    for key in path {
        let pat = format!("\"{key}\":");
        rest = &rest[rest.find(&pat)? + pat.len()..];
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The server's own stage histograms, as `(count, mean_ns)` per stage.
const STAGES: [&str; 6] = [
    "decode",
    "admit_wait",
    "batch_wait",
    "schedule",
    "encode",
    "wall",
];

struct Scrape {
    served: f64,
    batches: f64,
    stages: [(f64, f64); 6],
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let doc = http_get(addr, "/metrics.json").map_err(|e| format!("scrape: {e}"))?;
    let num = |path: &[&str]| json_num(&doc, path).ok_or_else(|| format!("scrape: no {path:?}"));
    let mut stages = [(0.0, 0.0); 6];
    for (slot, stage) in stages.iter_mut().zip(STAGES) {
        *slot = (
            num(&["stages", "schedule", stage, "count"])?,
            num(&["stages", "schedule", stage, "mean_ns"])?,
        );
    }
    Ok(Scrape {
        served: num(&["requests", "served"])?,
        batches: num(&["lambda_budget", "batches"])?,
        stages,
    })
}

/// `ServeCompute::run` on a batch of `width` pooled requests, µs per
/// request: what the scheduler itself costs at the observed batch width.
fn compute_us_per_req(n: u32, w: u64, slots: u32, width: usize, seed: u64) -> f64 {
    let mut compute = ServeCompute::new(n, w, slots);
    let mut batch = BatchBuf::new();
    let mut packed = Vec::new();
    let mut best = f64::INFINITY;
    for round in 0..200u64 {
        batch.reset();
        for i in 0..width {
            let rs = request_seed(seed, 0, round * width as u64 + i as u64);
            request_msgs(rs, SERVE_MSGS, n, &mut packed);
            let req = ReqView {
                req_id: rs,
                engine: Engine::Schedule,
                seed: rs,
                msgs: &packed,
            };
            batch
                .admit(0, i as u32, &req, n)
                .expect("generated leaves are in range");
        }
        let t = Instant::now();
        compute.run(&mut batch, &mut NoopRecorder);
        best = best.min(t.elapsed().as_nanos() as f64 / 1e3);
    }
    best / width as f64
}

pub fn run_slice(args: &SliceArgs, t0: Instant) -> Result<SliceReport, String> {
    let io = |e: std::io::Error| format!("serve: {e}");
    let pipelined = args.workload == Workload::ServePipelined;
    let (conns, depth, warmup) = if pipelined {
        (SERVE_PIPE_CONNS, SERVE_PIPE_DEPTH, WARMUP_SERVE_PIPELINED)
    } else {
        (1, 1, WARMUP_SERVE_CLOSED)
    };
    let block = args.workload.block();
    let mut tr = Tracer::new(t0, args.traced);

    // The scrape listener exists in the traced pass only.
    let cfg = ServerConfig {
        metrics_addr: args.traced.then(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let (n, w, slots) = (cfg.n, cfg.w, cfg.slots);
    let t = tr.now();
    let server = ft_serve::spawn(cfg).map_err(io)?;
    tr.leaf("serve.spawn", t, NO_PARENT, 0);
    let addr = server.addr();
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        let t = tr.now();
        // Hashed, so that nearby `--seed` values do not merely permute one
        // request pool (`request_seed` xors the index into the seed).
        let id = (c, pool_seed(args.seed, c));
        clients.push(Client::connect(addr, id, (n, w), (depth, block), t0).map_err(io)?);
        tr.leaf("serve.handshake", t, NO_PARENT, 0);
    }

    // Every client warms up, all meet at the barrier, the main thread
    // opens the window, all run until it closes.
    let barrier = Barrier::new(conns + 1);
    let length = Duration::from_millis(args.millis);
    let traced = args.traced;
    let mut r = SliceReport {
        msgs_per_op: SERVE_MSGS as u64,
        inputs: 1,
        ..SliceReport::default()
    };
    let (mut before, mut after) = (None, None);
    let mut cpu0 = 0;
    let results: Vec<(Client, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut off = Tracer::new(t0, false);
                    let mut tr = Tracer::new(t0, traced);
                    let mut oracle = traced.then(|| Oracle::new(n, w));
                    c.drive(Until::Sent(warmup as u64), false, &mut off, None);
                    barrier.wait();
                    barrier.wait();
                    let until = Until::Time(Instant::now() + length);
                    c.drive(until, true, &mut tr, oracle.as_mut());
                    (c, tr)
                })
            })
            .collect();
        barrier.wait();
        if let Some(m) = server.metrics_addr() {
            before = Some(scrape(m));
        }
        r.setup_ns = t0.elapsed().as_nanos() as u64;
        cpu0 = host::cpu_ticks();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    r.window_ns = t0.elapsed().as_nanos() as u64 - r.setup_ns;
    r.cpu_us = (host::cpu_ticks() - cpu0) * host::TICK_US;
    if let Some(m) = server.metrics_addr() {
        after = Some(scrape(m));
    }
    let stats = server.stop();

    // Pool the connections' samples; blocks are cut over the merged
    // completion order.
    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut oracle = Oracle::new(n, w);
    let (mut cycles, mut fnv) = (0u64, 0u64);
    for (c, thread_trace) in results {
        tr.merge(thread_trace);
        // Verified payload checksum and schedule cycles of every pooled
        // request of this connection, from the solo oracle.
        let want: Vec<u64> = (0..SERVE_REQ_POOL as u64)
            .map(|k| {
                let frame =
                    wire::decode(oracle.frame(c.pool_seed(k), 0, 0)).expect("oracle frame decodes");
                cycles += decode_resp(frame.payload).map_or(0, |v| v.num_cycles as u64);
                checksum(frame.payload)
            })
            .collect();
        fnv = want.iter().fold(fnv, |a, &b| a.wrapping_add(b));
        r.failed += c.failed;
        for d in &c.done {
            r.failed += (d.sum != want[d.pool as usize]) as u64;
            done.push((d.at_ns.saturating_sub(r.setup_ns), d.lat_ns));
        }
        r.ops += c.attempted;
        r.ref_kernel_ns.extend(c.ref_kernel_ns);
    }
    done.sort_unstable();
    r.done_ns = done.iter().map(|d| d.0).collect();
    r.lat_ns = done.iter().map(|d| d.1).collect();
    r.cycles = cycles as f64 / (conns * SERVE_REQ_POOL) as f64;
    r.fnv = fnv;
    // A `Busy` answered during warm-up fails the slice too.
    r.failed = r.failed.max(stats.busy);

    // Both scrapes exist exactly when the slice is traced.
    if let (Some(before), Some(after)) = (before, after) {
        let shape = (n, w, slots);
        r.layer = layer_metrics(args, &r, tr.spans(), &stats, &before?, &after?, shape)?;
        r.spans = write_trace(args, tr.spans())?;
    }
    r.rss_kib = host::peak_rss_kib();
    Ok(r)
}

fn layer_metrics(
    args: &SliceArgs,
    r: &SliceReport,
    spans: &[Span],
    stats: &ServerStats,
    before: &Scrape,
    after: &Scrape,
    (n, w, slots): (u32, u64, u32),
) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
    put("serve.spawn_ms", med_us(spans, "serve.spawn") / 1e3);
    put("serve.handshake_us", med_us(spans, "serve.handshake"));
    for name in ["encode", "send", "wait", "verify"] {
        put(
            &format!("serve.client_{name}_us"),
            med_us(spans, &format!("serve.client_{name}")),
        );
    }
    put("serve.other_us", med_self_us(spans, "op"));

    // Window-exact batching figures from the two scrapes.
    let batches = after.batches - before.batches;
    let batch_mean = (after.served - before.served) / batches.max(1.0);
    put("serve.batch_mean", batch_mean);
    put("serve.batches_per_s", batches * 1e9 / r.window_ns as f64);
    put(
        "serve.busy_share",
        stats.busy as f64 / (stats.served + stats.busy).max(1) as f64,
    );
    put("serve.lambda_max", stats.lambda_max);
    for (stage, (b, a)) in STAGES.iter().zip(before.stages.iter().zip(&after.stages)) {
        let count = (a.0 - b.0).max(1.0);
        put(
            &format!("serve.stage.{stage}_us"),
            (a.0 * a.1 - b.0 * b.1) / count / 1e3,
        );
    }

    if !args.extras {
        return Ok(out);
    }
    // The fixed costs under a request: the scheduler at the observed
    // batch width, and the kernel's loopback round trip for frames of the
    // request's and the response's size.
    let width = (batch_mean.round() as usize).clamp(1, slots as usize);
    let compute = compute_us_per_req(n, w, slots, width, args.seed);
    let req_bytes = (wire::OVERHEAD_WORDS + 3 + SERVE_MSGS) * 8;
    let resp_bytes = (wire::OVERHEAD_WORDS + 4 + SERVE_MSGS / 2) * 8;
    let rtts = host::loopback_rtts(req_bytes, resp_bytes).map_err(|e| format!("loopback: {e}"))?;
    let rtt = percentile_ns(&rtts, LAT_PCT) / 1e3;
    put("serve.compute_us_per_req", compute);
    put("host.loopback_rtt_us", rtt);
    put(
        "serve.overhead_ratio",
        percentile_ns(&r.lat_ns, LAT_PCT) / 1e3 / (compute + rtt),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_io_error_fails_the_requests_in_flight() {
        let cfg = ServerConfig::default();
        let shape = (cfg.n, cfg.w);
        let server = ft_serve::spawn(cfg).expect("server spawns");
        let t0 = Instant::now();
        let mut c = Client::connect(server.addr(), (0, 7), shape, (4, 64), t0).expect("handshake");
        let mut off = Tracer::new(t0, false);
        c.drive(Until::Sent(16), true, &mut off, None);
        assert_eq!((c.attempted, c.failed, c.done.len()), (16, 0, 16));
        // The server goes away: the next drive loses what it had in flight.
        server.stop();
        c.drive(Until::Sent(16), true, &mut off, None);
        assert!(c.failed >= 1, "{}", c.failed);
        assert_eq!(c.attempted, 16 + c.failed);
        assert_eq!(c.done.len(), 16);
    }

    #[test]
    fn json_num_walks_nested_keys_in_order() {
        let doc = "{\"requests\":{\"served\":12,\"busy_rejected\":0},\
                   \"stages\":{\"schedule\":{\"decode\":{\"count\":3,\"mean_ns\":410},\
                   \"schedule\":{\"count\":2,\"mean_ns\":18000}},\"online\":{}}}";
        assert_eq!(json_num(doc, &["requests", "served"]), Some(12.0));
        assert_eq!(
            json_num(doc, &["stages", "schedule", "decode", "mean_ns"]),
            Some(410.0)
        );
        assert_eq!(
            json_num(doc, &["stages", "schedule", "schedule", "count"]),
            Some(2.0)
        );
        assert_eq!(json_num(doc, &["stages", "nope"]), None);
    }
}
