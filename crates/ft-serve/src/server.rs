//! The serving shell: accept loop, per-connection reader/writer threads,
//! and the batcher, which closes, computes and dispatches each batch.
//!
//! Thread topology (all std, no async):
//!
//! ```text
//! accept ──spawns──► reader(conn) ──admit queue──► batcher
//!                    writer(conn) ◄────────────────┘  (close → compute → dispatch)
//! ```
//!
//! * **readers** speak the handshake, enforce admission control (bounded
//!   in-flight queue; over-limit requests get structured `Busy` frames),
//!   and time out dead clients (no complete frame within the idle window
//!   closes the connection, so a hung client never wedges shutdown).
//! * **batcher** owns one [`BatchBuf`] and the [`ServeCompute`]. It closes
//!   a batch when the window expires (early by the timer's learned
//!   lateness, so it wakes on time) or the slots fill, runs
//!   [`ServeCompute::run`] on it, *steers admission* (the λ that pass
//!   returns raises or halves the effective in-flight limit between the
//!   configured ceiling and the batch width), hands each response to its
//!   connection's writer, and opens the next batch. Requests that arrive
//!   meanwhile wait in the admit queue; a finished batch is answered as
//!   soon as its compute ends.

use crate::core::{BatchBuf, ReqTiming, ServeCompute};
use crate::metrics::{
    loopback, spawn_metrics_listener, LambdaBudget, MetricsListener, MetricsSource, ServeCounters,
    ServeMetrics,
};
use crate::proto::{
    self, decode_hello, encode_busy, encode_hello_ack, Engine, HelloAck, MAX_REQ_MSGS,
};
use ft_shard::wire::{self, begin_frame, end_frame, read_frame, write_frame_buf, FrameKind};
use ft_telemetry::{Event, EventKind, NoopRecorder};
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

/// λ threshold above which the admission controller halves the in-flight
/// limit toward the batch width (contention feedback; see module docs).
const STEER_LAMBDA: f64 = 4.0;

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
    batches: AtomicU64,
    batch_req_total: AtomicU64,
    batch_max: AtomicU64,
    lambda_max_bits: AtomicU64,
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
            batches: self.batches.load(Ordering::Relaxed),
            batch_max: self.batch_max.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
        }
    }
}

/// The serve pipeline's scrape pages, rendered from the hub plus the
/// live counters. Every render is atomics-and-seqlock only — a slow or
/// hostile scraper cannot slow admission or compute.
struct Scrape(Arc<Shared>);

impl MetricsSource for Scrape {
    fn render(&self, path: &str) -> Option<(&'static str, String)> {
        let hub = self.0.metrics.as_ref()?;
        match path {
            "/metrics" => Some((
                "text/plain; version=0.0.4",
                hub.render_prometheus(&self.0.counters()),
            )),
            "/metrics.json" => Some(("application/json", hub.render_json(&self.0.counters()))),
            "/spans" => Some(("application/x-ndjson", hub.render_spans())),
            _ => None,
        }
    }
}

/// One admitted request travelling from a reader to the batcher: the
/// validated frame words, its engine, the originating connection and —
/// when live metrics are on — its request id and reader-side stage
/// timestamps.
struct Admit {
    conn: u16,
    seq: u32,
    engine: Engine,
    words: Vec<u64>,
    /// Monotone request id (0 when metrics are off).
    rid: u64,
    /// Frame fully read (ns since the hub epoch; 0 when metrics are off).
    recv_ns: u64,
    /// Request decoded and validated.
    decoded_ns: u64,
}

/// A running server. Stop it (and collect stats) with
/// [`ServerHandle::stop`]; `Drop` without `stop` aborts the threads
/// detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
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

    /// True once shutdown has been requested (e.g. `max_requests` hit).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested.
    pub fn wait(&self) {
        let (lock, cv) = &self.shared.stopped;
        let _stopped = cv.wait_while(lock.lock().unwrap(), |s| !*s).unwrap();
    }

    /// Request shutdown, join every thread, and report the run's counters.
    pub fn stop(mut self) -> ServerStats {
        self.shared.request_stop();
        for h in [self.accept.take(), self.batcher.take()]
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
        if let Some(scrape) = self.scrape.take() {
            scrape.stop();
        }
        let s = &self.shared;
        let batches = s.batches.load(Ordering::Relaxed);
        let reqs = s.batch_req_total.load(Ordering::Relaxed);
        ServerStats {
            served: s.served.load(Ordering::Relaxed),
            busy: s.busy_total.load(Ordering::Relaxed),
            batches,
            batch_max: s.batch_max.load(Ordering::Relaxed),
            batch_mean_x1000: (reqs * 1000).checked_div(batches).unwrap_or(0),
            lambda_max: f64::from_bits(s.lambda_max_bits.load(Ordering::Relaxed)),
            conns: s.conns.load(Ordering::Relaxed),
            reaped: s.reaped.load(Ordering::Relaxed),
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
        batches: AtomicU64::new(0),
        batch_req_total: AtomicU64::new(0),
        batch_max: AtomicU64::new(0),
        lambda_max_bits: AtomicU64::new(0),
        reaped: AtomicU64::new(0),
        writers: Mutex::new(HashMap::new()),
        metrics: hub,
    });
    let scrape = match &cfg.metrics_addr {
        Some(maddr) => Some(spawn_metrics_listener(
            maddr,
            Arc::new(Scrape(Arc::clone(&shared))),
        )?),
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
        accept: Some(accept),
        batcher: Some(batcher),
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
    let mut buf = Vec::new();
    begin_frame(&mut buf, FrameKind::Error, conn, seq);
    buf.push(code);
    end_frame(&mut buf);
    buf
}

fn dbg_exit(conn: u16, why: &str) {
    if std::env::var_os("FT_SERVE_DEBUG").is_some() {
        eprintln!("[serve dbg] conn {conn}: {why}");
    }
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
            dbg_exit(conn, "stop flag");
            break;
        }
        let words = match read_frame(&mut stream) {
            Ok(None) => {
                if std::env::var_os("FT_SERVE_DEBUG").is_some() {
                    eprintln!("[serve dbg] conn {conn}: client EOF");
                }
                break;
            }
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
                    dbg_exit(conn, "idle timeout");
                    break;
                }
                continue;
            }
            Err(e) => {
                if std::env::var_os("FT_SERVE_DEBUG").is_some() {
                    eprintln!("[serve dbg] conn {conn}: read error {e}");
                }
                break;
            }
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
                    dbg_exit(conn, "hello shape mismatch");
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
                    dbg_exit(conn, "ack send failed");
                    break;
                }
                hello_done = true;
            }
            FrameKind::Req if hello_done => {
                // Validate the payload here so malformed requests answer
                // with an Error frame instead of poisoning a batch.
                let engine = match proto::decode_req(frame.payload) {
                    Ok(req) => req.engine,
                    Err(_) => {
                        let _ = writer.send(error_frame(conn, frame.seq, ERR_REQUEST));
                        continue;
                    }
                };
                let req_id = frame.payload[0];
                let seq = frame.seq;
                // Decode finished and the request is validated: assign its
                // span id and stamp the decode-stage boundary.
                let (rid, decoded_ns) = match &hub {
                    Some(h) => (h.next_rid(), h.now_ns()),
                    None => (0, 0),
                };
                let cur = shared.inflight.fetch_add(1, Ordering::SeqCst);
                let limit = shared.limit.load(Ordering::SeqCst);
                let over_limit = cur >= limit;
                let rejected = over_limit
                    || admit_tx
                        .try_send(Admit {
                            conn,
                            seq,
                            engine,
                            words,
                            rid,
                            recv_ns,
                            decoded_ns,
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
                        dbg_exit(conn, "busy send failed");
                        break;
                    }
                }
            }
            _ => {
                if std::env::var_os("FT_SERVE_DEBUG").is_some() {
                    eprintln!("[serve dbg] conn {conn}: unexpected kind {:?}", frame.kind);
                }
                let _ = writer.send(error_frame(conn, frame.seq, ERR_PROTO));
                break;
            }
        }
    }
    if std::env::var_os("FT_SERVE_DEBUG").is_some() {
        eprintln!("[serve dbg] conn {conn}: reader exit");
    }
    shared.writers.lock().unwrap().remove(&conn);
}

fn batcher_loop(admit_rx: mpsc::Receiver<Admit>, shared: Arc<Shared>, cfg: ServerConfig) {
    let window = Duration::from_micros(cfg.window_us);
    let mut compute = ServeCompute::new(cfg.n, cfg.w, cfg.slots);
    let mut batch = BatchBuf::new();
    let mut late = Duration::ZERO;
    let mut carry: Option<Admit> = None;
    let mut batch_seq: u64 = 0;
    loop {
        // Open a batch: the carried-over request, or the next arrival.
        // Every earlier batch has been answered, so an idle wait only
        // watches for shutdown.
        let first = match carry.take() {
            Some(a) => a,
            None => loop {
                match admit_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(a) => break a,
                    Err(RecvTimeoutError::Timeout) if !shared.stop.load(Ordering::SeqCst) => {}
                    Err(_) => return,
                }
            },
        };
        admit_into(&mut batch, first, &shared, &cfg);
        // Coalesce arrivals until the window closes or the batch fills.
        let deadline = Instant::now() + window;
        while carry.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some(wait) = aim(left, late) else { break };
            let aimed = Instant::now() + wait;
            match admit_rx.recv_timeout(wait) {
                Ok(a) if !batch.has_room(a.engine, cfg.slots) => carry = Some(a),
                Ok(a) => admit_into(&mut batch, a, &shared, &cfg),
                Err(RecvTimeoutError::Timeout) => late = learn(late, aimed.elapsed(), window),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if let Some(h) = &shared.metrics {
            // The batch is closed: stamp the batch-wait boundary and flush
            // the admission + coalescing spans for every request in it
            // under one ring lock.
            batch.closed_ns = h.now_ns();
            let width = batch.len() as u32;
            let seq32 = batch_seq.min(u32::MAX as u64) as u32;
            h.span_many(batch.timings.iter().flat_map(|t| {
                let rid = t.rid.min(u32::MAX as u64) as u32;
                [
                    Event::new(EventKind::ReqAdmit, rid, t.engine as u32, t.msgs),
                    Event::new(EventKind::ReqBatch, rid, width, seq32),
                ]
            }));
        }
        batch_seq += 1;
        if let Some(h) = &shared.metrics {
            batch.sched_start_ns = h.now_ns();
        }
        let lam = compute.run(&mut batch, &mut NoopRecorder);
        if let Some(h) = &shared.metrics {
            batch.sched_end_ns = h.now_ns();
        }
        steer(lam, batch.len(), &shared, &cfg);
        dispatch(&mut batch, &shared, &cfg);
        batch.reset();
    }
}

/// The timed wait for a batch with `left` of its window to go, aimed
/// `late` early; `None` closes the batch now.
fn aim(left: Duration, late: Duration) -> Option<Duration> {
    left.checked_sub(late).filter(|w| !w.is_zero())
}

/// Move the timer's lateness estimate halfway toward a timed-out wait's
/// overshoot `over`, at most half the `window`.
fn learn(late: Duration, over: Duration, window: Duration) -> Duration {
    ((late + over) / 2).min(window / 2)
}

/// Fold one computed batch of `width` requests and λ `lam` into the run's
/// counters, then steer admission: high λ halves the in-flight limit
/// toward the batch width; calm batches grow it back toward the
/// configured ceiling.
fn steer(lam: f64, width: usize, shared: &Shared, cfg: &ServerConfig) {
    // λ ≥ 0, and non-negative floats order as their bit patterns do.
    shared
        .lambda_max_bits
        .fetch_max(lam.to_bits(), Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .batch_req_total
        .fetch_add(width as u64, Ordering::Relaxed);
    shared.batch_max.fetch_max(width as u64, Ordering::Relaxed);
    let cur = shared.limit.load(Ordering::SeqCst);
    let next = if lam > STEER_LAMBDA {
        (cur / 2).max(cfg.slots as usize)
    } else {
        (cur + 1 + cur / 8).min(cfg.inflight.max(1))
    };
    shared.limit.store(next, Ordering::SeqCst);
    if let Some(h) = &shared.metrics {
        // One seqlock write per batch: limit, λ, width, and batch
        // count always read back as one consistent generation.
        h.write_budget(LambdaBudget {
            limit: next as u64,
            lambda_max: f64::from_bits(shared.lambda_max_bits.load(Ordering::Relaxed)),
            last_batch: width as u64,
            batches: shared.batches.load(Ordering::Relaxed),
        });
    }
}

fn admit_into(b: &mut BatchBuf, a: Admit, shared: &Shared, cfg: &ServerConfig) {
    let Ok(frame) = wire::decode(&a.words) else {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let Ok(req) = proto::decode_req(frame.payload) else {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let (engine, msgs) = (req.engine, req.msgs.len() as u32);
    if b.admit(a.conn, a.seq, &req, cfg.n).is_err() {
        // Validation already ran reader-side; a failure here means the
        // connection raced shape changes — drop the request.
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    if let Some(h) = &shared.metrics {
        // Pushed iff the admit succeeded, so `timings[i]` always describes
        // the same request as `spans()[i]` after encoding. The ReqAdmit
        // span is emitted from this record at batch close — one ring lock
        // per batch instead of one per admission.
        b.timings.push(ReqTiming {
            rid: a.rid,
            engine,
            msgs,
            recv_ns: a.recv_ns,
            decoded_ns: a.decoded_ns,
            admitted_ns: h.now_ns(),
        });
    }
}

/// Encode the computed batch's responses and hand each frame to its
/// connection's writer, then (metrics on) settle the batch's stage
/// histograms and completion spans.
fn dispatch(b: &mut BatchBuf, shared: &Shared, cfg: &ServerConfig) {
    let enc_start = shared.metrics.as_ref().map_or(0, |h| h.now_ns());
    b.encode_responses();
    let enc_end = shared.metrics.as_ref().map_or(0, |h| h.now_ns());
    let writers = shared.writers.lock().unwrap();
    for span in b.spans() {
        if let Some(tx) = writers.get(&span.conn) {
            let _ = tx.send(b.frame(span).to_vec());
        }
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
    drop(writers);
    if let Some(h) = &shared.metrics {
        let width = b.len();
        if width > 0 {
            h.batch_occupancy.record(width as u64);
        }
        // Schedule and encode are batch-level stages; every request in
        // the batch shares them. The per-request stages come from its
        // `ReqTiming` stamps.
        let sched_ns = b.sched_end_ns.saturating_sub(b.sched_start_ns);
        let enc_ns = enc_end.saturating_sub(enc_start);
        let now = h.now_ns();
        debug_assert_eq!(b.timings.len(), b.spans().len());
        for t in &b.timings {
            let st = h.stage(t.engine);
            st.decode.record(t.decoded_ns.saturating_sub(t.recv_ns));
            st.admit_wait
                .record(t.admitted_ns.saturating_sub(t.decoded_ns));
            st.batch_wait
                .record(b.closed_ns.saturating_sub(t.admitted_ns));
            st.schedule.record(sched_ns);
            st.encode.record(enc_ns);
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
    if cfg.max_requests > 0 && shared.served.load(Ordering::Relaxed) >= cfg.max_requests {
        shared.request_stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
