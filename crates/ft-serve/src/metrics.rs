//! Live observability for the serve pipeline: a lock-free metrics hub the
//! hot path writes into, and a tiny scrape endpoint that reads it out.
//!
//! The hub ([`ServeMetrics`]) is a bundle of atomics and
//! [`AtomicLatencyHistogram`]s shared by the reader and batcher threads.
//! Everything on the request path is a relaxed `fetch_add` or
//! `fetch_max` into a fixed-size cell — no locks, no allocation, no
//! coordination with scrapers. Two deliberate exceptions:
//!
//! - The **span ring** is a `Mutex<EventRing>`, pushed from the reader
//!   and batcher threads and drained only by the scrape listener. The
//!   batcher takes the lock once per batch, never per request and never
//!   inside the compute pass.
//! - The **λ-budget block** (inflight limit, observed λ_max, last batch
//!   width, batch count) must be read as one consistent unit: a scraper
//!   seeing cycle-`k` λ next to cycle-`k+1` limit would misreport the
//!   steering loop. The fields live behind a seqlock — the batcher thread
//!   (sole writer) bumps a version counter to odd, stores the fields,
//!   and bumps it to even; scrapers retry until they read the same even
//!   version on both sides. Writers never wait, and a torn read is
//!   impossible to return. See DESIGN.md for why this needs a seqlock at
//!   all when every field is individually atomic.
//!
//! Exposition is a second listener ([`spawn_metrics_listener`]) speaking
//! just enough HTTP/1.0 for `curl` and the `ftsim metrics-scrape`
//! subcommand: `GET /metrics` (Prometheus text), `GET /metrics.json`
//! (the `ftsim-metrics/v1` document), `GET /spans` (request-span JSONL,
//! same format `ft_telemetry::parse_jsonl` reads back). The listener is
//! generic over a [`MetricsSource`] so the shard coordinator's scrape
//! page reuses it unchanged. Its thread blocks in `accept`; the
//! [`MetricsListener`] handle stops it.

use crate::proto::Engine;
use ft_telemetry::{
    latency_bucket_floor, AtomicLatencyHistogram, Event, EventKind, EventRing, LatencyHistogram,
    LATENCY_BUCKETS,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Span-ring capacity: enough to reconstruct the recent request history
/// without growing the scrape payload past a few hundred KB.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// `wall_by_width` rows: batch widths bucketed by log2, `2^7 = 128`+ in
/// the last row (the admission window rarely exceeds double digits).
pub const WIDTH_CLASSES: usize = 8;

/// Per-stage latency histograms for one engine. Stage boundaries follow
/// the request's path through the pipeline: decode (reader frame →
/// validated request), admit-wait (validated → accepted into a batch),
/// batch-wait (accepted → batch closed), schedule (compute pass over the
/// closed batch), encode (responses rendered + queued to writers), and
/// wall (frame received → response handed to the connection writer).
#[derive(Default)]
pub struct StageHists {
    pub decode: AtomicLatencyHistogram,
    pub admit_wait: AtomicLatencyHistogram,
    pub batch_wait: AtomicLatencyHistogram,
    pub schedule: AtomicLatencyHistogram,
    pub encode: AtomicLatencyHistogram,
    pub wall: AtomicLatencyHistogram,
}

impl StageHists {
    /// `(name, histogram)` pairs in pipeline order, for renderers.
    fn rows(&self) -> [(&'static str, &AtomicLatencyHistogram); 6] {
        [
            ("decode", &self.decode),
            ("admit_wait", &self.admit_wait),
            ("batch_wait", &self.batch_wait),
            ("schedule", &self.schedule),
            ("encode", &self.encode),
            ("wall", &self.wall),
        ]
    }
}

/// One consistent read of the λ-steering state (see [`ServeMetrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LambdaBudget {
    /// Current admission limit (requests in flight).
    pub limit: u64,
    /// Highest per-channel load factor λ the compute pass has observed.
    pub lambda_max: f64,
    /// Request count of the most recent batch.
    pub last_batch: u64,
    /// Batches computed so far.
    pub batches: u64,
}

/// Counter snapshot the server assembles from its own shared state at
/// scrape time; the hub itself does not duplicate these.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    pub served: u64,
    pub busy: u64,
    pub inflight: u64,
    pub inflight_limit: u64,
    pub conns: u64,
    pub reaped: u64,
}

/// The live metrics hub. One per server, shared `Arc` across the
/// pipeline threads and the scrape listener.
pub struct ServeMetrics {
    /// All pipeline timestamps are nanoseconds since this instant, so
    /// they fit `u64` math with no `Instant` plumbing through `BatchBuf`.
    pub(crate) epoch: Instant,
    /// Monotone request-id source; ids start at 1 (0 = "no request").
    rid_next: AtomicU64,
    /// Stage histograms, indexed by `Engine as usize`.
    pub stages: [StageHists; 2],
    /// Request wall time keyed by batch-width class (log2 of the batch's
    /// request count, saturating at [`WIDTH_CLASSES`]` - 1`).
    pub wall_by_width: [AtomicLatencyHistogram; WIDTH_CLASSES],
    /// Requests-per-batch distribution (log2 buckets over counts, not ns).
    pub batch_occupancy: AtomicLatencyHistogram,
    // λ-budget seqlock: even version = stable, odd = write in progress.
    budget_version: AtomicU64,
    budget_limit: AtomicU64,
    budget_lambda_bits: AtomicU64,
    budget_last_batch: AtomicU64,
    budget_batches: AtomicU64,
    /// Request-span ring. Pushed by the reader and batcher threads, once
    /// per batch on the batcher (see [`ServeMetrics::span_many`]).
    spans: Mutex<EventRing>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new(SPAN_RING_CAPACITY)
    }
}

impl ServeMetrics {
    pub fn new(span_capacity: usize) -> ServeMetrics {
        ServeMetrics {
            epoch: Instant::now(),
            rid_next: AtomicU64::new(0),
            stages: Default::default(),
            wall_by_width: Default::default(),
            batch_occupancy: AtomicLatencyHistogram::new(),
            budget_version: AtomicU64::new(0),
            budget_limit: AtomicU64::new(0),
            budget_lambda_bits: AtomicU64::new(0),
            budget_last_batch: AtomicU64::new(0),
            budget_batches: AtomicU64::new(0),
            spans: Mutex::new(EventRing::new(span_capacity)),
        }
    }

    /// Nanoseconds since the hub was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The next request id — monotone, never 0.
    pub fn next_rid(&self) -> u64 {
        self.rid_next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Ids handed out so far.
    pub fn rids_assigned(&self) -> u64 {
        self.rid_next.load(Ordering::Relaxed)
    }

    /// Append one span event. For rare, connection-level events (Busy
    /// rejects, idle reaps); per-request events on the batch path go
    /// through [`ServeMetrics::span_many`] instead.
    pub fn span(&self, kind: EventKind, tag: u32, level: u32, value: u32) {
        self.spans
            .lock()
            .unwrap()
            .push(Event::new(kind, tag, level, value));
    }

    /// Append a run of span events under a single ring lock. Per-request
    /// spans are staged per batch and flushed here, so lock traffic on the
    /// hot path scales with batches, not requests — on a loaded single
    /// core the difference between an uncontended lock and a futex storm.
    pub fn span_many<I: IntoIterator<Item = Event>>(&self, events: I) {
        let mut ring = self.spans.lock().unwrap();
        for e in events {
            ring.push(e);
        }
    }

    /// `(events held, events dropped)` in the span ring.
    pub fn span_counts(&self) -> (usize, u64) {
        let r = self.spans.lock().unwrap();
        (r.len(), r.dropped())
    }

    pub fn stage(&self, engine: Engine) -> &StageHists {
        &self.stages[engine as usize]
    }

    /// Record a request's wall time under its engine and width class.
    pub fn record_wall(&self, engine: Engine, batch_reqs: usize, ns: u64) {
        self.stage(engine).wall.record(ns);
        let class = (batch_reqs.max(1).ilog2() as usize).min(WIDTH_CLASSES - 1);
        self.wall_by_width[class].record(ns);
    }

    /// Publish the λ-steering state. **Single writer** (the batcher
    /// thread); concurrent writers would corrupt the version protocol.
    pub fn write_budget(&self, b: LambdaBudget) {
        let v = self.budget_version.load(Ordering::Relaxed);
        self.budget_version
            .store(v.wrapping_add(1), Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        self.budget_limit.store(b.limit, Ordering::Relaxed);
        self.budget_lambda_bits
            .store(b.lambda_max.to_bits(), Ordering::Relaxed);
        self.budget_last_batch
            .store(b.last_batch, Ordering::Relaxed);
        self.budget_batches.store(b.batches, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        self.budget_version
            .store(v.wrapping_add(2), Ordering::Release);
    }

    /// One consistent read of the λ-steering state. Retries while a write
    /// is in flight; never blocks the writer.
    pub fn read_budget(&self) -> LambdaBudget {
        loop {
            let v1 = self.budget_version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let b = LambdaBudget {
                limit: self.budget_limit.load(Ordering::Relaxed),
                lambda_max: f64::from_bits(self.budget_lambda_bits.load(Ordering::Relaxed)),
                last_batch: self.budget_last_batch.load(Ordering::Relaxed),
                batches: self.budget_batches.load(Ordering::Relaxed),
            };
            std::sync::atomic::fence(Ordering::Acquire);
            if self.budget_version.load(Ordering::Relaxed) == v1 {
                return b;
            }
        }
    }

    /// The `ftsim-metrics/v1` JSON document. `shard_links` is `null`
    /// here; the shard coordinator's scrape page populates it.
    pub fn render_json(&self, c: &ServeCounters) -> String {
        let budget = self.read_budget();
        let (span_len, span_dropped) = self.span_counts();
        let occ = self.batch_occupancy.snapshot();
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"ftsim-metrics/v1\"");
        out.push_str(&format!(",\"uptime_ns\":{}", self.now_ns()));
        out.push_str(&format!(
            ",\"requests\":{{\"served\":{},\"busy_rejected\":{},\"reaped\":{},\"assigned\":{},\"inflight\":{},\"conns\":{}}}",
            c.served,
            c.busy,
            c.reaped,
            self.rids_assigned(),
            c.inflight,
            c.conns,
        ));
        // Before the first batch the batcher has published nothing;
        // fall back to the live admission limit so the field is never 0.
        let limit = if budget.batches == 0 {
            c.inflight_limit
        } else {
            budget.limit
        };
        out.push_str(&format!(
            ",\"lambda_budget\":{{\"limit\":{},\"lambda_max\":{:.6},\"last_batch\":{},\"batches\":{}}}",
            limit, budget.lambda_max, budget.last_batch, budget.batches,
        ));
        out.push_str(&format!(
            ",\"batch_occupancy\":{{\"count\":{},\"max\":{},\"mean\":{},\"buckets\":{}}}",
            occ.count,
            occ.max_ns,
            occ.mean_ns(),
            occ.to_json_buckets(),
        ));
        out.push_str(",\"stages\":{");
        for (ei, name) in [(0usize, "schedule"), (1, "online")] {
            if ei > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{"));
            for (si, (stage, hist)) in self.stages[ei].rows().iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{stage}\":{}", hist_json(&hist.snapshot())));
            }
            out.push('}');
        }
        out.push('}');
        out.push_str(",\"wall_by_width\":[");
        let mut first = true;
        for (class, hist) in self.wall_by_width.iter().enumerate() {
            let h = hist.snapshot();
            if h.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"width_log2\":{class},\"hist\":{}}}",
                hist_json(&h)
            ));
        }
        out.push(']');
        out.push_str(&format!(
            ",\"spans\":{{\"len\":{span_len},\"dropped\":{span_dropped}}}"
        ));
        out.push_str(",\"shard_links\":null}");
        out
    }

    /// The Prometheus text exposition page.
    pub fn render_prometheus(&self, c: &ServeCounters) -> String {
        let budget = self.read_budget();
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "ftsim_serve_requests_total",
            "Requests served",
            c.served,
        );
        counter(
            &mut out,
            "ftsim_serve_busy_rejected_total",
            "Requests rejected with Busy",
            c.busy,
        );
        counter(
            &mut out,
            "ftsim_serve_reaped_total",
            "Connections reaped by the idle timer",
            c.reaped,
        );
        counter(
            &mut out,
            "ftsim_serve_batches_total",
            "Batches computed",
            budget.batches,
        );
        gauge(
            &mut out,
            "ftsim_serve_inflight",
            "Requests currently admitted",
            c.inflight.to_string(),
        );
        gauge(
            &mut out,
            "ftsim_serve_inflight_limit",
            "Current lambda-steered admission limit",
            c.inflight_limit.to_string(),
        );
        gauge(
            &mut out,
            "ftsim_serve_conns",
            "Connections accepted so far",
            c.conns.to_string(),
        );
        gauge(
            &mut out,
            "ftsim_serve_lambda_max",
            "Highest observed per-channel load factor",
            format!("{:.6}", budget.lambda_max),
        );
        gauge(
            &mut out,
            "ftsim_serve_batch_width_last",
            "Request count of the most recent batch",
            budget.last_batch.to_string(),
        );
        // Batch occupancy as a cumulative Prometheus histogram over the
        // log2 bucket upper bounds.
        let occ = self.batch_occupancy.snapshot();
        out.push_str(
            "# HELP ftsim_serve_batch_occupancy Requests per batch\n\
             # TYPE ftsim_serve_batch_occupancy histogram\n",
        );
        let mut cum = 0u64;
        for b in 0..LATENCY_BUCKETS {
            if occ.buckets[b] == 0 {
                continue;
            }
            cum += occ.buckets[b];
            let le = latency_bucket_floor(b + 1).saturating_sub(1);
            out.push_str(&format!(
                "ftsim_serve_batch_occupancy_bucket{{le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!(
            "ftsim_serve_batch_occupancy_bucket{{le=\"+Inf\"}} {}\n\
             ftsim_serve_batch_occupancy_sum {}\n\
             ftsim_serve_batch_occupancy_count {}\n",
            occ.count, occ.sum_ns, occ.count
        ));
        // Stage latency summaries per engine.
        out.push_str(
            "# HELP ftsim_serve_stage_ns Stage latency quantiles in nanoseconds\n\
             # TYPE ftsim_serve_stage_ns summary\n",
        );
        for (ei, engine) in [(0usize, "schedule"), (1, "online")] {
            for (stage, hist) in self.stages[ei].rows() {
                let h = hist.snapshot();
                if h.is_empty() {
                    continue;
                }
                for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                    out.push_str(&format!(
                        "ftsim_serve_stage_ns{{engine=\"{engine}\",stage=\"{stage}\",quantile=\"{q}\"}} {v}\n"
                    ));
                }
                out.push_str(&format!(
                    "ftsim_serve_stage_ns_sum{{engine=\"{engine}\",stage=\"{stage}\"}} {}\n\
                     ftsim_serve_stage_ns_count{{engine=\"{engine}\",stage=\"{stage}\"}} {}\n",
                    h.sum_ns, h.count
                ));
            }
        }
        out
    }

    /// The span ring as JSONL (the `ft_telemetry::parse_jsonl` dialect).
    pub fn render_spans(&self) -> String {
        self.spans.lock().unwrap().export_jsonl()
    }
}

/// One stage histogram as a JSON summary object.
fn hist_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        h.count,
        h.mean_ns(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.max_ns
    )
}

/// What the scrape listener serves. Implemented by the serve pipeline
/// (over [`ServeMetrics`] + live counters) and by `ftsim shard`'s
/// coordinator page — the listener itself is protocol only.
pub trait MetricsSource: Send + Sync {
    /// `(content-type, body)` for a path, or `None` → 404.
    fn render(&self, path: &str) -> Option<(&'static str, String)>;
}

/// How long one scrape client may dawdle before we hang up on it.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Pause after a failed `accept` (out of descriptors, say), so a
/// persistent error does not spin the listener thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// `addr` with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback:
/// where this host reaches a listener bound to `addr`.
pub(crate) fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A running scrape listener. Its thread blocks in `accept` until
/// [`MetricsListener::stop`]; a handle dropped without `stop` leaves that
/// thread parked.
pub struct MetricsListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl MetricsListener {
    /// The bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the thread: set the flag, then wake the
    /// blocked `accept` with one loopback connect, which goes unanswered.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&loopback(self.addr), SCRAPE_IO_TIMEOUT);
        let _ = self.thread.join();
    }
}

/// Bind `addr` and serve [`MetricsSource`] pages, one connection at a
/// time, until [`MetricsListener::stop`].
pub fn spawn_metrics_listener(
    addr: &str,
    src: Arc<dyn MetricsSource>,
) -> std::io::Result<MetricsListener> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("ftsim-metrics".into())
        .spawn(move || loop {
            let accepted = listener.accept();
            if stopped.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((stream, _)) => serve_one(stream, &*src),
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        })?;
    Ok(MetricsListener {
        addr: local,
        stop,
        thread,
    })
}

/// Answer one scrape connection: parse the request line, render, reply,
/// close. Any client error just drops the connection — the server's
/// health never depends on a scraper's manners.
fn serve_one(mut stream: TcpStream, src: &dyn MetricsSource) {
    let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
    let mut buf = [0u8; 2048];
    let mut used = 0usize;
    // Read until the end of headers, one request per connection.
    while used < buf.len() && !buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => used += n,
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method != "GET" {
        http_response(405, "text/plain", "method not allowed\n")
    } else {
        match src.render(path) {
            Some((ct, body)) => http_response(200, ct, &body),
            None => http_response(404, "text/plain", "not found\n"),
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

fn http_response(code: u32, content_type: &str, body: &str) -> String {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        _ => "Method Not Allowed",
    };
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Minimal scrape client: `GET path` against `addr`, returning the body
/// of a 200 response. Shared by `ftsim metrics-scrape`, the check.sh
/// smoke, and the e2e tests — one HTTP dialect on both sides.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, SCRAPE_IO_TIMEOUT)?;
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: ftsim\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidData, "response without header break")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.0 200") && !status.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqlock_roundtrip_and_single_writer_consistency() {
        let m = ServeMetrics::new(0);
        assert_eq!(m.read_budget(), LambdaBudget::default());
        let b = LambdaBudget {
            limit: 48,
            lambda_max: 3.25,
            last_batch: 17,
            batches: 9,
        };
        m.write_budget(b);
        assert_eq!(m.read_budget(), b);

        // Hammer the seqlock from one writer + readers: every read must
        // observe one of the written tuples, never a torn mix. The tuple
        // is constructed so all four fields agree on one generation.
        let m = Arc::new(ServeMetrics::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (m, stop) = (Arc::clone(&m), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut g = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    m.write_budget(LambdaBudget {
                        limit: g,
                        lambda_max: g as f64,
                        last_batch: g,
                        batches: g,
                    });
                    g += 1;
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        let b = m.read_budget();
                        assert_eq!(b.limit, b.last_batch);
                        assert_eq!(b.limit, b.batches);
                        assert_eq!(b.lambda_max, b.limit as f64);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn rids_are_monotone_from_one() {
        let m = ServeMetrics::new(0);
        assert_eq!(m.next_rid(), 1);
        assert_eq!(m.next_rid(), 2);
        assert_eq!(m.rids_assigned(), 2);
    }

    #[test]
    fn json_document_has_required_keys() {
        let m = ServeMetrics::new(16);
        m.stage(Engine::Schedule).decode.record(1200);
        m.record_wall(Engine::Schedule, 4, 55_000);
        m.batch_occupancy.record(4);
        m.span(EventKind::ReqAdmit, 1, 0, 64);
        m.write_budget(LambdaBudget {
            limit: 32,
            lambda_max: 1.5,
            last_batch: 4,
            batches: 1,
        });
        let c = ServeCounters {
            served: 4,
            busy: 1,
            inflight: 0,
            inflight_limit: 32,
            conns: 2,
            reaped: 0,
        };
        let doc = m.render_json(&c);
        for key in [
            "\"schema\":\"ftsim-metrics/v1\"",
            "\"requests\":",
            "\"busy_rejected\":1",
            "\"lambda_budget\":",
            "\"lambda_max\":1.500000",
            "\"batch_occupancy\":",
            "\"stages\":",
            "\"wall_by_width\":",
            "\"spans\":{\"len\":1",
            "\"shard_links\":null",
        ] {
            assert!(doc.contains(key), "metrics JSON missing {key}: {doc}");
        }
        let prom = m.render_prometheus(&c);
        assert!(prom.contains("ftsim_serve_requests_total 4"));
        assert!(prom.contains("ftsim_serve_busy_rejected_total 1"));
        assert!(prom.contains("ftsim_serve_lambda_max 1.500000"));
        assert!(prom.contains("ftsim_serve_batch_occupancy_bucket{le=\"+Inf\"} 1"));
        let spans = m.render_spans();
        let events = ft_telemetry::parse_jsonl(&spans).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ReqAdmit);
    }

    struct Fixed;

    impl MetricsSource for Fixed {
        fn render(&self, path: &str) -> Option<(&'static str, String)> {
            (path == "/ping").then(|| ("text/plain", "pong\n".to_string()))
        }
    }

    #[test]
    fn listener_serves_and_404s_and_stops() {
        let listener = spawn_metrics_listener("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = listener.addr();
        assert_eq!(http_get(addr, "/ping").unwrap(), "pong\n");
        let err = http_get(addr, "/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        listener.stop();
        assert!(
            http_get(addr, "/ping").is_err(),
            "a stopped listener still answers"
        );
    }
}
