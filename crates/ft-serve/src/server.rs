//! The serving shell: accept loop, per-connection reader/writer threads,
//! and the batcher thread, which only drives `ServeCore`.
//!
//! Thread topology (all std, no async):
//!
//! ```text
//! accept ──spawns──► reader(conn) ──admit queue──► batcher (drives ServeCore)
//!                    writer(conn) ◄────────────────┘
//! ```
//!
//! * **readers** speak the handshake, validate each request (an `Error`
//!   frame answers a bad one), enforce admission control (over-limit
//!   requests get structured `Busy` frames) and close a connection that
//!   sends no complete frame within the idle window.
//! * **batcher** waits on the admit queue as the core asks, hands it each
//!   arrival, expired wait and close, and does everything the core may
//!   not: reads the clock, stamps the metrics hub, publishes the steered
//!   limit, sends each response to its connection's writer and requests
//!   the stop. Every batching decision is the core's (`batcher.rs`).

use crate::batcher::{Admit, Next, ServeCore};
use crate::core::{ReqTiming, ServeCompute};
use crate::metrics::{
    loopback, spawn_metrics_listener, MetricsListener, MetricsSource, ServeCounters, ServeMetrics,
};
use crate::proto::{self, decode_hello, encode_busy, encode_hello_ack, HelloAck, MAX_REQ_MSGS};
use ft_shard::wire::{self, read_frame, write_frame_buf, FrameKind};
use ft_telemetry::{Event, EventKind};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `Error` frame code: handshake shape (n, w) mismatch.
pub const ERR_SHAPE: u64 = 1;
/// `Error` frame code: malformed or out-of-order frame.
pub const ERR_PROTO: u64 = 2;
/// `Error` frame code: request payload failed validation.
pub const ERR_REQUEST: u64 = 3;

/// Server configuration. `Default` gives the benchmark shape: n=256 w=64,
/// 8-slot batches, a 200 µs window, 64 requests in flight.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Solo tree leaves (power of two).
    pub n: u32,
    /// Solo root capacity.
    pub w: u64,
    /// Schedule requests coalesced per batch (power of two).
    pub slots: u32,
    /// Batching window: after the first request of a batch arrives, wait
    /// at most this long for more before dispatching. The batcher aims
    /// its timed wait early by how late recent timed waits woke (at most
    /// half the window), so a lone request's batch closes at the window.
    pub window_us: u64,
    /// Admission ceiling: maximum requests in flight (queued + batched,
    /// responses not yet dispatched). The effective limit floats between
    /// `slots` and this under λ steering.
    pub inflight: usize,
    /// Dead-client timeout: a connection with no complete frame for this
    /// long is closed.
    pub idle_ms: u64,
    /// Stop after serving this many requests (0 = run until stopped).
    pub max_requests: u64,
    /// Live metrics hub (request spans + stage histograms + λ-budget
    /// seqlock). `false` is the overhead gate's no-op baseline: no
    /// telemetry at all (λ steering reads the pass's own return value).
    pub metrics: bool,
    /// Bind a second listener here exposing `/metrics`, `/metrics.json`,
    /// and `/spans` (port 0 picks a free port; read it back from
    /// [`ServerHandle::metrics_addr`]). Implies `metrics`.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            n: 256,
            w: 64,
            slots: 8,
            window_us: 200,
            inflight: 64,
            idle_ms: 5000,
            max_requests: 0,
            metrics: true,
            metrics_addr: None,
        }
    }
}

/// Counters reported at shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Requests answered with a `Resp` frame.
    pub served: u64,
    /// Requests rejected with a `Busy` frame.
    pub busy: u64,
    /// Coalesced batches computed.
    pub batches: u64,
    /// Largest batch (requests).
    pub batch_max: u64,
    /// Mean batch size ×1000 (integer fixed-point, like the harness's
    /// speedup ratios).
    pub batch_mean_x1000: u64,
    /// Maximum combined-pass λ observed.
    pub lambda_max: f64,
    /// Connections accepted.
    pub conns: u64,
    /// Connections closed by the idle timer.
    pub reaped: u64,
}

struct Shared {
    stop: AtomicBool,
    /// `stop`, for [`ServerHandle::wait`] to block on.
    stopped: (Mutex<bool>, Condvar),
    /// Loopback address of the listener: [`Shared::request_stop`] connects
    /// to it once so the accept loop, blocked in `accept`, sees `stop`.
    wake: SocketAddr,
    inflight: AtomicUsize,
    limit: AtomicUsize,
    served: AtomicU64,
    busy_total: AtomicU64,
    conns: AtomicU64,
    reaped: AtomicU64,
    writers: Mutex<HashMap<u16, mpsc::Sender<Vec<u64>>>>,
    /// Live observability hub; `None` runs the pipeline with zero
    /// metrics-side work (the overhead gate's baseline).
    metrics: Option<Arc<ServeMetrics>>,
}

impl Shared {
    /// Set `stop`; the first call also wakes [`ServerHandle::wait`] and
    /// the accept loop.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let (lock, cv) = &self.stopped;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Counter snapshot for the scrape renderers.
    fn counters(&self) -> ServeCounters {
        ServeCounters {
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy_total.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::SeqCst) as u64,
            inflight_limit: self.limit.load(Ordering::SeqCst) as u64,
            conns: self.conns.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
        }
    }
}

/// The serve pipeline's scrape pages, rendered from the hub plus the
/// live counters. Every render is atomics-and-seqlock only — a slow or
/// hostile scraper cannot slow admission or compute.
impl MetricsSource for Shared {
    fn render(&self, path: &str) -> Option<(&'static str, String)> {
        let hub = self.metrics.as_ref()?;
        match path {
            "/metrics" => Some((
                "text/plain; version=0.0.4",
                hub.render_prometheus(&self.counters()),
            )),
            "/metrics.json" => Some(("application/json", hub.render_json(&self.counters()))),
            "/spans" => Some(("application/x-ndjson", hub.render_spans())),
            _ => None,
        }
    }
}

/// A running server. Stop it (and collect stats) with
/// [`ServerHandle::stop`]; `Drop` without `stop` aborts the threads
/// detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    batcher: JoinHandle<ServerStats>,
    scrape: Option<MetricsListener>,
}

/// A cloneable stop trigger (for stdin watchers and signal shims).
#[derive(Clone)]
pub struct Stopper(Arc<Shared>);

impl Stopper {
    /// Request shutdown; idempotent.
    pub fn stop(&self) {
        self.0.request_stop();
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(MetricsListener::addr)
    }

    /// A detached stop trigger.
    pub fn stopper(&self) -> Stopper {
        Stopper(Arc::clone(&self.shared))
    }

    /// Block until shutdown is requested.
    pub fn wait(&self) {
        let (lock, cv) = &self.shared.stopped;
        let _stopped = cv.wait_while(lock.lock().unwrap(), |s| !*s).unwrap();
    }

    /// Request shutdown, join every thread, and report the run's counters.
    pub fn stop(self) -> ServerStats {
        let s = self.shared;
        s.request_stop();
        let _ = self.accept.join();
        let batched = self.batcher.join().unwrap_or_default();
        if let Some(scrape) = self.scrape {
            scrape.stop();
        }
        ServerStats {
            busy: s.busy_total.load(Ordering::Relaxed),
            conns: s.conns.load(Ordering::Relaxed),
            reaped: s.reaped.load(Ordering::Relaxed),
            ..batched
        }
    }
}

/// Bind and start serving. Returns once the listener is live; everything
/// else runs on background threads until [`ServerHandle::stop`].
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], before anything is bound, if
/// [`ServeCompute::check_slots`] refuses `cfg`'s `(n, slots)`; else any
/// error binding `cfg.addr` or `cfg.metrics_addr`.
pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
    ServeCompute::check_slots(cfg.n, cfg.slots)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let hub =
        (cfg.metrics || cfg.metrics_addr.is_some()).then(|| Arc::new(ServeMetrics::default()));
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        stopped: (Mutex::new(false), Condvar::new()),
        wake: loopback(addr),
        inflight: AtomicUsize::new(0),
        limit: AtomicUsize::new(cfg.inflight.max(1)),
        served: AtomicU64::new(0),
        busy_total: AtomicU64::new(0),
        conns: AtomicU64::new(0),
        reaped: AtomicU64::new(0),
        writers: Mutex::new(HashMap::new()),
        metrics: hub,
    });
    let scrape = match &cfg.metrics_addr {
        Some(maddr) => Some(spawn_metrics_listener(maddr, Arc::clone(&shared) as _)?),
        None => None,
    };
    let (admit_tx, admit_rx) = mpsc::sync_channel::<Admit>(cfg.inflight.max(1));

    let accept = {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        std::thread::spawn(move || accept_loop(listener, shared, cfg, admit_tx))
    };
    let batcher = {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        std::thread::spawn(move || batcher_loop(admit_rx, shared, cfg))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept,
        batcher,
        scrape,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: ServerConfig,
    admit_tx: SyncSender<Admit>,
) {
    let mut readers = Vec::new();
    let mut next_conn: u16 = 1;
    loop {
        let accepted = listener.accept();
        // Set before `Shared::request_stop`'s wake-up connect: that one,
        // and any later arrival, is dropped unserved and uncounted.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn = next_conn;
                next_conn = next_conn.wrapping_add(1).max(1);
                shared.conns.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let (wtx, wrx) = mpsc::channel::<Vec<u64>>();
                shared.writers.lock().unwrap().insert(conn, wtx.clone());
                let wstream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let writer = std::thread::spawn(move || writer_loop(wstream, wrx));
                let rshared = Arc::clone(&shared);
                let rtx = admit_tx.clone();
                let rcfg = cfg.clone();
                readers.push(std::thread::spawn(move || {
                    reader_loop(stream, conn, rshared, rcfg, rtx, wtx);
                }));
                readers.push(writer);
            }
            Err(_) => break,
        }
    }
    drop(admit_tx);
    for h in readers {
        let _ = h.join();
    }
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u64>>) {
    let mut bytes = Vec::new();
    for words in rx {
        if write_frame_buf(&mut stream, &words, &mut bytes).is_err() {
            break;
        }
    }
}

fn error_frame(conn: u16, seq: u32, code: u64) -> Vec<u64> {
    wire::encode(FrameKind::Error, conn, seq, &[code])
}

fn reader_loop(
    mut stream: TcpStream,
    conn: u16,
    shared: Arc<Shared>,
    cfg: ServerConfig,
    admit_tx: SyncSender<Admit>,
    writer: mpsc::Sender<Vec<u64>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let idle = Duration::from_millis(cfg.idle_ms.max(1));
    let hub = shared.metrics.clone();
    let mut last = Instant::now();
    let mut hello_done = false;
    let mut busy_buf = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let words = match read_frame(&mut stream) {
            Ok(None) => break,
            Ok(Some(w)) => w,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Dead-client timeout: no complete frame within the idle
                // window closes the connection.
                if last.elapsed() >= idle {
                    shared.reaped.fetch_add(1, Ordering::Relaxed);
                    if let Some(h) = &hub {
                        h.span(EventKind::ConnReap, conn as u32, 0, 0);
                    }
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        last = Instant::now();
        let recv_ns = hub.as_ref().map_or(0, |h| h.now_ns());
        let frame = match wire::decode(&words) {
            Ok(f) => f,
            Err(_) => {
                let _ = writer.send(error_frame(conn, 0, ERR_PROTO));
                break;
            }
        };
        match frame.kind {
            FrameKind::Hello => {
                let ok = match decode_hello(frame.payload) {
                    Ok((n, w)) => n == cfg.n && w == cfg.w,
                    Err(_) => false,
                };
                if !ok {
                    let _ = writer.send(error_frame(conn, frame.seq, ERR_SHAPE));
                    break;
                }
                let mut ack = Vec::new();
                encode_hello_ack(
                    &mut ack,
                    conn,
                    &HelloAck {
                        n: cfg.n,
                        w: cfg.w,
                        slots: cfg.slots,
                        window_us: cfg.window_us as u32,
                        inflight: shared.limit.load(Ordering::SeqCst) as u32,
                        max_msgs: MAX_REQ_MSGS as u32,
                    },
                );
                if writer.send(ack).is_err() {
                    break;
                }
                hello_done = true;
            }
            FrameKind::Req if hello_done => {
                // Validate the payload here so malformed requests answer
                // with an Error frame instead of poisoning a batch.
                let req = proto::decode_req(frame.payload)
                    .and_then(|req| req.check_leaves(cfg.n).map(|()| req));
                let Ok(req) = req else {
                    let _ = writer.send(error_frame(conn, frame.seq, ERR_REQUEST));
                    continue;
                };
                let (req_id, engine, seed, seq) = (req.req_id, req.engine, req.seed, frame.seq);
                // Where the message words sit in the frame, so the batcher
                // admits them from `words` without decoding it again.
                let at = (req.msgs.as_ptr() as usize - words.as_ptr() as usize) / 8;
                let msgs = at..at + req.msgs.len();
                // Decode finished and the request is validated: assign its
                // span id and stamp the decode-stage boundary.
                let timing = ReqTiming {
                    rid: hub.as_ref().map_or(0, |h| h.next_rid()),
                    engine,
                    msgs: req.msgs.len() as u32,
                    recv_ns,
                    decoded_ns: hub.as_ref().map_or(0, |h| h.now_ns()),
                    admitted_ns: 0,
                };
                let rid = timing.rid;
                let cur = shared.inflight.fetch_add(1, Ordering::SeqCst);
                let limit = shared.limit.load(Ordering::SeqCst);
                let over_limit = cur >= limit;
                let rejected = over_limit
                    || admit_tx
                        .try_send(Admit {
                            conn,
                            seq,
                            req_id,
                            engine,
                            seed,
                            words,
                            msgs,
                            timing,
                        })
                        .is_err();
                if rejected {
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    shared.busy_total.fetch_add(1, Ordering::Relaxed);
                    if let Some(h) = &hub {
                        h.span(
                            EventKind::ReqBusy,
                            rid.min(u32::MAX as u64) as u32,
                            0,
                            (cur + 1) as u32,
                        );
                    }
                    encode_busy(
                        &mut busy_buf,
                        conn,
                        seq,
                        req_id,
                        (cur + 1) as u32,
                        limit as u32,
                    );
                    if writer.send(busy_buf.clone()).is_err() {
                        break;
                    }
                }
            }
            _ => {
                let _ = writer.send(error_frame(conn, frame.seq, ERR_PROTO));
                break;
            }
        }
    }
    shared.writers.lock().unwrap().remove(&conn);
}

/// Drive the core on wall time until the admit queue disconnects, or is
/// idle after a stop; return the run's batch figures.
fn batcher_loop(
    admit_rx: mpsc::Receiver<Admit>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) -> ServerStats {
    let mut core = ServeCore::new(&cfg, shared.metrics.as_ref().map(|h| h.epoch));
    loop {
        match core.next(Instant::now()) {
            // Every earlier batch has been answered, so an idle wait only
            // watches for shutdown.
            Next::Idle => match admit_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(a) => core.admit(Instant::now(), a),
                Err(RecvTimeoutError::Timeout) if !shared.stop.load(Ordering::SeqCst) => {}
                Err(_) => return core.stats(),
            },
            Next::Wait(wait) => match admit_rx.recv_timeout(wait) {
                Ok(a) => core.admit(Instant::now(), a),
                Err(RecvTimeoutError::Timeout) => core.timed_out(Instant::now()),
                Err(RecvTimeoutError::Disconnected) => {
                    close_batch(&mut core, &shared);
                    return core.stats();
                }
            },
            Next::Close => close_batch(&mut core, &shared),
        }
    }
}

/// Close, compute and answer the core's open batch, stamping the hub
/// around each stage, and stop the server once the core says so.
fn close_batch(core: &mut ServeCore, shared: &Shared) {
    let hub = shared.metrics.as_deref();
    let now_ns = || hub.map_or(0, |h| h.now_ns());
    let closed_ns = now_ns();
    if let Some(h) = hub {
        // Flush the admission + coalescing spans for every request in the
        // batch under one ring lock.
        let b = core.batch();
        let width = b.len() as u32;
        let seq32 = core.stats().batches.min(u32::MAX as u64) as u32;
        h.span_many(b.timings.iter().flat_map(|t| {
            let rid = t.rid.min(u32::MAX as u64) as u32;
            [
                Event::new(EventKind::ReqAdmit, rid, t.engine as u32, t.msgs),
                Event::new(EventKind::ReqBatch, rid, width, seq32),
            ]
        }));
    }
    let sched_start = now_ns();
    let budget = core.close();
    let sched_end = now_ns();
    shared.limit.store(budget.limit as usize, Ordering::SeqCst);
    if let Some(h) = hub {
        h.write_budget(budget);
    }
    let enc_start = now_ns();
    let b = core.encode();
    let enc_end = now_ns();
    let writers = shared.writers.lock().unwrap();
    for span in b.spans() {
        if let Some(tx) = writers.get(&span.conn) {
            let _ = tx.send(b.frame(span).to_vec());
        }
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
    drop(writers);
    if let Some(h) = hub {
        // A batch opens with a request, so it is never empty.
        let width = b.len();
        h.batch_occupancy.record(width as u64);
        // Schedule and encode are batch-level stages; every request in
        // the batch shares them. The per-request stages come from its
        // `ReqTiming` stamps.
        let now = h.now_ns();
        debug_assert_eq!(b.timings.len(), b.spans().len());
        for t in &b.timings {
            let st = h.stage(t.engine);
            st.decode.record(t.decoded_ns.saturating_sub(t.recv_ns));
            st.admit_wait
                .record(t.admitted_ns.saturating_sub(t.decoded_ns));
            st.batch_wait
                .record(closed_ns.saturating_sub(t.admitted_ns));
            st.schedule.record(sched_end.saturating_sub(sched_start));
            st.encode.record(enc_end.saturating_sub(enc_start));
            h.record_wall(t.engine, width, now.saturating_sub(t.recv_ns));
        }
        h.span_many(b.timings.iter().map(|t| {
            Event::new(
                EventKind::ReqDone,
                t.rid.min(u32::MAX as u64) as u32,
                t.engine as u32,
                (now.saturating_sub(t.recv_ns) / 1_000).min(u32::MAX as u64) as u32,
            )
        }));
    }
    if core.stopping() {
        shared.request_stop();
    }
}

#[cfg(test)]
mod tests {
    // The timer rule the core aims its waits by; the core's own tests are
    // in `batcher`.
    use crate::batcher::{aim, learn};
    use std::time::Duration;

    const WINDOW: Duration = Duration::from_micros(200);

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn aim_never_waits_past_left_and_closes_when_late_covers_it() {
        for left in [0, 1, 30, 60, 200] {
            for late in [0, 1, 30, 60, 100] {
                match aim(us(left), us(late)) {
                    Some(w) => assert!(w <= us(left) && w + us(late) == us(left)),
                    None => assert!(left <= late, "left {left} late {late}"),
                }
            }
        }
    }

    #[test]
    fn late_is_clamped_to_half_the_window() {
        let mut late = Duration::ZERO;
        for over in [us(1_000), Duration::from_secs(1), us(150), us(1_000)] {
            late = learn(late, over, WINDOW);
            assert!(late <= WINDOW / 2, "{late:?}");
        }
        assert_eq!(late, WINDOW / 2);
    }

    #[test]
    fn late_converges_to_a_constant_overshoot() {
        let mut late = Duration::ZERO;
        for _ in 0..40 {
            late = learn(late, us(58), WINDOW);
        }
        assert!(us(58) - late <= Duration::from_nanos(1), "{late:?}");
    }

    #[test]
    fn late_decays_after_one_spike() {
        let mut late = us(58);
        late = learn(late, us(5_000), WINDOW);
        assert_eq!(late, WINDOW / 2);
        let mut prev = late;
        for _ in 0..40 {
            late = learn(late, us(58), WINDOW);
            assert!(late <= prev);
            prev = late;
        }
        assert!(late - us(58) <= Duration::from_nanos(1), "{late:?}");
    }
}
