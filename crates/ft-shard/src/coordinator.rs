//! The cross-shard coordinator: drives N shard workers through delivery
//! cycles and arbitrates the root levels, reproducing
//! [`ft_sim::run_to_completion`] byte for byte.
//!
//! The protocol is v2 ("retained pending"): `Load` ships each shard its
//! messages once, and every cycle exchanges only deltas —
//!
//! 1. **Cycle → Claims2**: the request carries the arbitration seed, a
//!    verdict bitmap retiring last cycle's exported claims, and the
//!    shard's arbitration-id remap (½ word per pending message); the reply
//!    is the surviving root-crossers in a two-word compact encoding.
//! 2. **Top arbitration** (coordinator-local): the claims of *all* shards,
//!    merged in global-id order, pass through the levels above the shard
//!    boundary in one [`SimArena`]. Merging by id makes the contender set
//!    per root channel independent of shard count and claim arrival order,
//!    and random arbitration hashes the coordinator-global message id — so
//!    outcomes are invariant under resharding.
//! 3. **Incoming2 → Outcomes**: survivors descend their destination
//!    shard's subtree; shards report delivered ids and cycle ticks.
//!
//! Unlike the lock-step v1 engine, the coordinator is an *event loop*: it
//! keeps every link's outstanding request in a deque with its own deadline
//! and retransmit schedule, receives from whichever shard answers first,
//! and processes each reply the moment it lands — claim frames are merged
//! incrementally while slower shards are still computing, down-frames go
//! out one by one as they are encoded, and the next cycle's requests are
//! dispatched the instant the last outcome arrives. The only barrier left
//! is the data dependency itself: root arbitration needs every claim, and
//! the next cycle's id remap needs every delivery verdict. Timeouts and
//! backoffs never sleep the loop — a late shard's retransmit is just
//! another scheduled event.
//!
//! The steady-state loop allocates nothing of its own: request frames come
//! from a buffer pool and every per-cycle structure (merge runs, verdict
//! bitmaps, remaps, delivery flags) is grow-only scratch. What remains is
//! the link's one `Vec` per frame handed across a queue
//! ([`crate::transport`]) — per frame, never per cycle or per message.

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::proto::{ClaimCheck, ClaimsV2, CycleView, InitMsg, LoadMsg, OutcomesView};
use crate::transport::Transport;
use crate::wire::{self, FrameKind};
use ft_core::{FatTree, Message, MessageSet};
use ft_sim::{Arbitration, RunReport, ShardClaim, SimArena, SimConfig};
use ft_telemetry::{NoopRecorder, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the coordinator reaches its workers.
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// Worker threads in this process.
    InProcess,
    /// One worker child process per shard; `cmd[0]` is the executable,
    /// `cmd[1..]` its arguments — typically `[<ftsim>, "shard-worker"]`.
    Pipe { cmd: Vec<String> },
}

/// A sharded run's configuration.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards; a power of two with `lg shards ≤ tree height`.
    /// Shard `s` owns the subtree under heap node `shards + s`.
    pub shards: u32,
    /// The simulation config (shared by every shard and the top arena).
    pub sim: SimConfig,
    pub transport: TransportKind,
    /// Frame-level fault injection on both directions of every link.
    pub faults: FaultPlan,
    /// How long one awaited reply may take before a retry.
    pub timeout: Duration,
    /// Retransmits after the first attempt.
    pub retries: u32,
    /// Delay between a timeout and its retransmit (scheduled, not slept —
    /// other links keep being served).
    pub backoff: Duration,
    /// Optional live per-link counter hub: when set, every transport
    /// event also bumps these atomics, so a scrape endpoint can watch the
    /// run while it is still in flight (post-hoc totals stay in
    /// [`ShardRunStats`]).
    pub live: Option<Arc<LinkCounters>>,
}

impl ShardConfig {
    /// In-process transport, no faults, and retry bounds generous enough
    /// that a healthy run never trips them.
    pub fn new(shards: u32, sim: SimConfig) -> Self {
        ShardConfig {
            shards,
            sim,
            transport: TransportKind::InProcess,
            faults: FaultPlan::none(),
            timeout: Duration::from_secs(5),
            retries: 4,
            backoff: Duration::from_millis(10),
            live: None,
        }
    }
}

/// Live per-link transport counters (index = shard), updated at the same
/// sites as [`ShardRunStats`]'s per-link vectors. All stores are relaxed
/// — readers see each counter monotonically, which is all a scrape page
/// needs.
#[derive(Debug, Default)]
pub struct LinkCounters {
    pub frames_sent: Vec<AtomicU64>,
    pub frames_received: Vec<AtomicU64>,
    pub retries: Vec<AtomicU64>,
    pub checksum_rejects: Vec<AtomicU64>,
}

impl LinkCounters {
    pub fn new(shards: usize) -> Self {
        let col = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        LinkCounters {
            frames_sent: col(shards),
            frames_received: col(shards),
            retries: col(shards),
            checksum_rejects: col(shards),
        }
    }

    fn bump(col: &[AtomicU64], s: usize) {
        if let Some(c) = col.get(s) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Why a sharded run could not complete. Every variant is a terminal,
/// reportable state — the coordinator never hangs on a sick link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The configuration cannot describe a valid sharding.
    BadConfig(String),
    /// A worker thread or process could not be spawned.
    Spawn(String),
    /// A shard never answered within the retry budget.
    Timeout { shard: u32, seq: u32, attempts: u32 },
    /// A link carried something the protocol cannot explain.
    Protocol { shard: u32, what: String },
    /// A worker reported an unrecoverable error code.
    Worker { shard: u32, code: u64 },
    /// A cycle delivered nothing — the switch cannot route even one
    /// message (the sharded analogue of `run_to_completion`'s panic).
    NoProgress { cycle: usize },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BadConfig(why) => write!(f, "bad shard config: {why}"),
            ShardError::Spawn(why) => write!(f, "worker spawn failed: {why}"),
            ShardError::Timeout {
                shard,
                seq,
                attempts,
            } => write!(
                f,
                "shard {shard} never answered request {seq} ({attempts} attempts)"
            ),
            ShardError::Protocol { shard, what } => {
                write!(f, "protocol violation on shard {shard}: {what}")
            }
            ShardError::Worker { shard, code } => {
                write!(f, "shard {shard} failed with worker error code {code}")
            }
            ShardError::NoProgress { cycle } => {
                write!(f, "no progress in delivery cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    /// Machine-readable kind tag, stable for scripts and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardError::BadConfig(_) => "bad_config",
            ShardError::Spawn(_) => "spawn",
            ShardError::Timeout { .. } => "timeout",
            ShardError::Protocol { .. } => "protocol",
            ShardError::Worker { .. } => "worker",
            ShardError::NoProgress { .. } => "no_progress",
        }
    }
}

/// Transport and barrier telemetry for one sharded run.
#[derive(Clone, Debug, Default)]
pub struct ShardRunStats {
    pub shards: u32,
    /// Transport name (`"inproc"` / `"pipe"`).
    pub transport: &'static str,
    /// Physical frames put on the wire (after fault drops/duplicates).
    pub frames_sent: u64,
    pub frames_received: u64,
    /// Word volume of those frames (×8 for bytes).
    pub words_sent: u64,
    pub words_received: u64,
    /// Request retransmits after a timeout.
    pub retries: u64,
    /// Received frames rejected by checksum/decode.
    pub checksum_rejects: u64,
    /// Received frames discarded as stale duplicates.
    pub duplicates: u64,
    /// Total coordinator time blocked waiting on shard replies.
    pub barrier_wait_ns: u64,
    /// Coordinator time in top-level arbitration.
    pub top_ns: u64,
    /// Coordinator time merging claim frames (overlapped with shard
    /// compute: all but the last run's merge happens while other shards
    /// are still in their up phase).
    pub merge_ns: u64,
    /// Per-shard self-reported up-phase compute time.
    pub shard_up_ns: Vec<u64>,
    /// Per-shard self-reported down-phase compute time.
    pub shard_down_ns: Vec<u64>,
    /// Per-link physical frames sent (index = shard; sums to
    /// `frames_sent`).
    pub link_frames_sent: Vec<u64>,
    /// Per-link frames received.
    pub link_frames_received: Vec<u64>,
    /// Per-link request retransmits.
    pub link_retries: Vec<u64>,
    /// Per-link received frames rejected by checksum/decode.
    pub link_checksum_rejects: Vec<u64>,
}

/// A completed sharded run: the engine-identical [`RunReport`] plus
/// transport telemetry.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    pub run: RunReport,
    pub stats: ShardRunStats,
}

/// Run `msgs` to completion over `cfg.shards` shards. The returned
/// [`RunReport`] is byte-identical to `ft_sim::run_to_completion(ft, msgs,
/// &cfg.sim)` for every shard count and transport.
pub fn run_sharded(
    ft: &FatTree,
    msgs: &MessageSet,
    cfg: &ShardConfig,
) -> Result<ShardRunReport, ShardError> {
    run_sharded_with(ft, msgs, cfg, &mut NoopRecorder)
}

/// [`run_sharded`] with a telemetry [`Recorder`] observing cycle
/// boundaries and the coordinator's per-cycle barrier/merge/top counters
/// (matching `run_to_completion_with`; per-channel load stays inside the
/// workers and is not recorded).
pub fn run_sharded_with<R: Recorder>(
    ft: &FatTree,
    msgs: &MessageSet,
    cfg: &ShardConfig,
    rec: &mut R,
) -> Result<ShardRunReport, ShardError> {
    if cfg.shards == 0 || !cfg.shards.is_power_of_two() {
        return Err(ShardError::BadConfig(format!(
            "shard count {} is not a power of two",
            cfg.shards
        )));
    }
    let boundary = cfg.shards.trailing_zeros();
    if boundary > ft.height() {
        return Err(ShardError::BadConfig(format!(
            "{} shards exceed the tree's {} top-level subtrees",
            cfg.shards,
            1u64 << ft.height()
        )));
    }
    let transport = match &cfg.transport {
        TransportKind::InProcess => Transport::inproc(cfg.shards as usize),
        TransportKind::Pipe { cmd } => Transport::pipe(cmd, cfg.shards as usize),
    }
    .map_err(ShardError::Spawn)?;
    let links = Links::new(transport, cfg);
    run_loop(ft, cfg, boundary, links, msgs, rec)
}

/// What reply kind an outstanding request is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplyTag {
    InitAck,
    LoadAck,
    Claims,
    Outcomes,
    ShutdownAck,
}

impl ReplyTag {
    fn expect(self) -> FrameKind {
        match self {
            ReplyTag::InitAck => FrameKind::InitAck,
            ReplyTag::LoadAck => FrameKind::LoadAck,
            ReplyTag::Claims => FrameKind::Claims2,
            ReplyTag::Outcomes => FrameKind::Outcomes,
            ReplyTag::ShutdownAck => FrameKind::ShutdownAck,
        }
    }
}

/// One in-flight request: the pristine frame (kept for retransmission),
/// its reply deadline, and — after a timeout — the scheduled retransmit.
struct OutReq {
    seq: u32,
    tag: ReplyTag,
    frame: Vec<u64>,
    deadline: Instant,
    retransmit_at: Option<Instant>,
    attempts: u32,
}

/// The transport plus everything needed to run it as an event loop:
/// per-link sequence numbers, outstanding requests, fault state, a frame
/// pool, and the shared receive buffer.
struct Links {
    transport: Transport,
    seq_next: Vec<u32>,
    outstanding: Vec<Vec<OutReq>>,
    faults: Vec<Option<FaultState>>,
    /// Recycled frame buffers (requests return here when their reply
    /// lands).
    pool: Vec<Vec<u64>>,
    /// Scratch for the faulted copy of an outgoing frame.
    fault_scratch: Vec<u64>,
    /// Where `poll` leaves the received frame; `payload()` slices it.
    rbuf: Vec<u64>,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
    stats: ShardRunStats,
    /// Mirror of the per-link stats for live scraping (see [`ShardConfig::live`]).
    live: Option<Arc<LinkCounters>>,
}

/// Upper bound on one idle `recv_any` wait when no deadline is near.
const IDLE_WAIT: Duration = Duration::from_millis(100);

impl Links {
    fn new(transport: Transport, cfg: &ShardConfig) -> Self {
        let shards = cfg.shards as usize;
        let stats = ShardRunStats {
            shards: cfg.shards,
            transport: transport.name(),
            shard_up_ns: vec![0; shards],
            shard_down_ns: vec![0; shards],
            link_frames_sent: vec![0; shards],
            link_frames_received: vec![0; shards],
            link_retries: vec![0; shards],
            link_checksum_rejects: vec![0; shards],
            ..ShardRunStats::default()
        };
        Links {
            transport,
            seq_next: vec![0; shards],
            outstanding: (0..shards).map(|_| Vec::new()).collect(),
            faults: (0..shards)
                .map(|s| (!cfg.faults.is_none()).then(|| FaultState::new(cfg.faults, s as u64 * 2)))
                .collect(),
            pool: Vec::new(),
            fault_scratch: Vec::new(),
            rbuf: Vec::new(),
            timeout: cfg.timeout,
            retries: cfg.retries,
            backoff: cfg.backoff,
            stats,
            live: cfg.live.clone(),
        }
    }

    /// Count one physical frame put on shard `s`'s link.
    fn note_sent(&mut self, s: usize, words: usize) {
        self.stats.frames_sent += 1;
        self.stats.words_sent += words as u64;
        self.stats.link_frames_sent[s] += 1;
        if let Some(live) = &self.live {
            LinkCounters::bump(&live.frames_sent, s);
        }
    }

    /// Compose and send a request to shard `s` and register it as
    /// outstanding. `payload` appends the body to the open frame.
    fn request(
        &mut self,
        s: usize,
        kind: FrameKind,
        tag: ReplyTag,
        payload: impl FnOnce(&mut Vec<u64>),
    ) -> Result<(), ShardError> {
        let mut frame = self.pool.pop().unwrap_or_default();
        let seq = self.seq_next[s];
        wire::begin_frame(&mut frame, kind, s as u16, seq);
        payload(&mut frame);
        wire::end_frame(&mut frame);
        self.seq_next[s] = seq.wrapping_add(1);
        self.send_faulted(s, &frame)?;
        self.outstanding[s].push(OutReq {
            seq,
            tag,
            frame,
            deadline: Instant::now() + self.timeout,
            retransmit_at: None,
            attempts: 1,
        });
        Ok(())
    }

    /// Put one logical frame on shard `s`'s link, through fault rolls: a
    /// healthy link sends `logical` itself, a fault plan sends its (possibly
    /// corrupted) scratch copy zero to two times.
    fn send_faulted(&mut self, s: usize, logical: &[u64]) -> Result<(), ShardError> {
        let mut scratch = std::mem::take(&mut self.fault_scratch);
        let (copies, frame) = match &mut self.faults[s] {
            None => (1, logical),
            Some(fs) => {
                scratch.clear();
                scratch.extend_from_slice(logical);
                let copies = match fs.next(&mut scratch) {
                    SendFate::Drop => 0,
                    SendFate::Send => 1,
                    SendFate::SendTwice => 2,
                };
                (copies, &scratch[..])
            }
        };
        for _ in 0..copies {
            self.note_sent(s, frame.len());
            self.transport
                .send(s, frame)
                .map_err(|what| ShardError::Protocol {
                    shard: s as u32,
                    what,
                })?;
        }
        self.fault_scratch = scratch;
        Ok(())
    }

    /// Drive the event loop until one outstanding request completes:
    /// receives from any shard, discards duplicates and corrupt frames,
    /// retransmits whatever times out (without sleeping the loop), and
    /// fails structurally when a retry budget is exhausted. On `Ok((s,
    /// tag))` the reply frame is in `rbuf` — read it via [`payload`].
    fn poll(&mut self) -> Result<(usize, ReplyTag), ShardError> {
        loop {
            // Fire every due deadline and find the next scheduled event.
            let now = Instant::now();
            let mut next_event = now + IDLE_WAIT;
            for s in 0..self.outstanding.len() {
                for i in 0..self.outstanding[s].len() {
                    let req = &mut self.outstanding[s][i];
                    if let Some(rt) = req.retransmit_at {
                        if now >= rt {
                            req.retransmit_at = None;
                            req.deadline = now + self.timeout;
                            req.attempts += 1;
                            self.stats.retries += 1;
                            self.stats.link_retries[s] += 1;
                            if let Some(live) = &self.live {
                                LinkCounters::bump(&live.retries, s);
                            }
                            let frame = std::mem::take(&mut self.outstanding[s][i].frame);
                            self.send_faulted(s, &frame)?;
                            self.outstanding[s][i].frame = frame;
                        }
                    } else if now >= req.deadline {
                        if req.attempts > self.retries {
                            return Err(ShardError::Timeout {
                                shard: s as u32,
                                seq: req.seq,
                                attempts: req.attempts,
                            });
                        }
                        req.retransmit_at = Some(now + self.backoff);
                    }
                    let req = &self.outstanding[s][i];
                    let t = req.retransmit_at.unwrap_or(req.deadline);
                    if t < next_event {
                        next_event = t;
                    }
                }
            }
            let wait = next_event
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(100));
            let t0 = Instant::now();
            let got = self.transport.recv_any(wait, &mut self.rbuf);
            self.stats.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
            let s = match got {
                Ok(Some(s)) => s,
                Ok(None) => continue,
                Err(what) => {
                    // Attribute the dead transport to the earliest waiter.
                    let shard = (0..self.outstanding.len())
                        .find(|&s| !self.outstanding[s].is_empty())
                        .unwrap_or(0) as u32;
                    return Err(ShardError::Protocol { shard, what });
                }
            };
            self.stats.frames_received += 1;
            self.stats.words_received += self.rbuf.len() as u64;
            self.stats.link_frames_received[s] += 1;
            if let Some(live) = &self.live {
                LinkCounters::bump(&live.frames_received, s);
            }
            let (kind, seq, code) = match wire::decode(&self.rbuf) {
                Ok(f) => (f.kind, f.seq, f.payload.first().copied().unwrap_or(0)),
                Err(_) => {
                    // Corrupted in flight: the sender's retransmit (or our
                    // timeout) recovers.
                    self.stats.checksum_rejects += 1;
                    self.stats.link_checksum_rejects[s] += 1;
                    if let Some(live) = &self.live {
                        LinkCounters::bump(&live.checksum_rejects, s);
                    }
                    continue;
                }
            };
            match self.outstanding[s].iter().position(|r| r.seq == seq) {
                Some(i) => {
                    if kind == FrameKind::Error {
                        return Err(ShardError::Worker {
                            shard: s as u32,
                            code,
                        });
                    }
                    let tag = self.outstanding[s][i].tag;
                    if kind != tag.expect() {
                        return Err(ShardError::Protocol {
                            shard: s as u32,
                            what: format!("expected {:?} reply, got {:?}", tag.expect(), kind),
                        });
                    }
                    let req = self.outstanding[s].swap_remove(i);
                    self.pool.push(req.frame);
                    return Ok((s, tag));
                }
                None => {
                    if seq >= self.seq_next[s] {
                        return Err(ShardError::Protocol {
                            shard: s as u32,
                            what: format!("reply seq {seq} was never requested"),
                        });
                    }
                    // A reply to an already-completed request: the echo of
                    // a retransmit or a duplicate roll.
                    self.stats.duplicates += 1;
                }
            }
        }
    }

    /// The payload of the frame `poll` just completed with.
    fn payload(&self) -> &[u64] {
        let len = self.rbuf[1] as usize;
        &self.rbuf[2..2 + len]
    }
}

/// Merge two id-sorted claim runs (disjoint ids) into `out`.
fn merge_sorted(a: &[ShardClaim], b: &[ShardClaim], out: &mut Vec<ShardClaim>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].id <= b[j].id {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

fn run_loop<R: Recorder>(
    ft: &FatTree,
    cfg: &ShardConfig,
    boundary: u32,
    mut links: Links,
    msgs: &MessageSet,
    rec: &mut R,
) -> Result<ShardRunReport, ShardError> {
    let shards = cfg.shards as usize;
    let shift = ft.height() - boundary;
    let proto_err = |s: usize| {
        move |e: crate::proto::ProtoError| ShardError::Protocol {
            shard: s as u32,
            what: e.to_string(),
        }
    };

    // Partition the message set once; `shard_of[orig]` never changes.
    let all: Vec<Message> = msgs.iter().copied().collect();
    let m_total = all.len();
    let mut shard_of = vec![0u32; m_total];
    let mut load_ids: Vec<Vec<u32>> = vec![Vec::new(); shards];
    let mut load_msgs: Vec<Vec<Message>> = vec![Vec::new(); shards];
    for (i, m) in all.iter().enumerate() {
        let s = ((ft.leaf(m.src) >> shift) - cfg.shards) as usize;
        shard_of[i] = s as u32;
        load_ids[s].push(i as u32);
        load_msgs[s].push(*m);
    }

    // INIT and LOAD ride the pipeline window together: both go out
    // back-to-back per link, workers answer them in order.
    for s in 0..shards {
        let init = InitMsg {
            n: ft.n(),
            boundary,
            shard: s as u32,
            proto: wire::PROTO_VERSION,
            sim: cfg.sim,
            plan: cfg.faults,
            profile: ft.profile().clone(),
        };
        let enc = init.encode();
        links.request(s, FrameKind::Init, ReplyTag::InitAck, |b| {
            b.extend_from_slice(&enc)
        })?;
        links.request(s, FrameKind::Load, ReplyTag::LoadAck, |b| {
            LoadMsg::encode_into(b, m_total as u32, &load_ids[s], &load_msgs[s])
        })?;
    }
    for _ in 0..2 * shards {
        links.poll()?;
    }
    if R::ENABLED {
        rec.run_start(ft.height());
    }

    let mut top = SimArena::new(ft, &cfg.sim);
    // The coordinator's id mirror: original ids still pending, FIFO. Its
    // positions ARE this cycle's arbitration ids.
    let mut mirror: Vec<u32> = (0..m_total as u32).collect();
    let mut cycles = 0usize;
    // At least one message delivers per cycle, so `m_total` bounds both.
    let mut delivered_per_cycle = Vec::with_capacity(m_total);
    let mut delivery_order = Vec::with_capacity(m_total);
    let mut total_ticks = 0u64;

    // Grow-only per-cycle scratch.
    let mut remap: Vec<Vec<u32>> = vec![Vec::new(); shards];
    let mut verdict_bits: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut exports_count = vec![0usize; shards];
    // `attr[id]` = (generation, source shard, export index) of the claim
    // with arbitration id `id` this cycle; stale entries are ignored via
    // the generation stamp.
    let mut attr: Vec<(u32, u32, u32)> = vec![(0, 0, 0); m_total];
    let mut merged: Vec<ShardClaim> = Vec::new();
    let mut merge_scratch: Vec<ShardClaim> = Vec::new();
    let mut run_scratch: Vec<ShardClaim> = Vec::new();
    let mut incoming: Vec<Vec<ShardClaim>> = vec![Vec::new(); shards];
    let mut delivered: Vec<bool> = Vec::new();
    let mut claim_check = ClaimCheck::new(ft, boundary);

    for (s, r) in remap.iter_mut().enumerate() {
        r.extend_from_slice(&load_ids[s]);
    }

    while !mirror.is_empty() {
        // Identical per-cycle reseed to `run_to_completion`.
        let arb_seed = match cfg.sim.arbitration {
            Arbitration::Random(seed) => seed
                .wrapping_add(cycles as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Arbitration::SlotOrder => 0,
        };
        if R::ENABLED {
            rec.cycle_start(cycles as u32, mirror.len() as u32);
        }
        let barrier_before = links.stats.barrier_wait_ns;
        // Dispatch the whole cycle: seed + verdicts + remap per shard.
        for s in 0..shards {
            links.request(s, FrameKind::Cycle, ReplyTag::Claims, |b| {
                CycleView::encode_into(
                    b,
                    cycles as u64,
                    arb_seed,
                    exports_count[s] as u32,
                    &verdict_bits[s],
                    &remap[s],
                )
            })?;
        }
        // Claims phase: merge each shard's sorted run the moment it lands,
        // while the stragglers are still computing their up passes.
        let gen = cycles as u32 + 1;
        let mut merge_ns = 0u64;
        merged.clear();
        for _ in 0..shards {
            let (s, tag) = links.poll()?;
            debug_assert_eq!(tag, ReplyTag::Claims);
            run_scratch.clear();
            let ns =
                ClaimsV2::decode_into(links.payload(), &mut run_scratch).map_err(proto_err(s))?;
            // The top arena indexes its slot tables by these leaves and
            // wires: a list no boundary channel could carry stops here.
            claim_check
                .check(&run_scratch, s as u32, true)
                .map_err(proto_err(s))?;
            links.stats.shard_up_ns[s] += ns;
            exports_count[s] = run_scratch.len();
            verdict_bits[s].clear();
            verdict_bits[s].resize(run_scratch.len().div_ceil(64), 0);
            let t0 = Instant::now();
            for (i, c) in run_scratch.iter().enumerate() {
                if c.id as usize >= mirror.len() {
                    return Err(ShardError::Protocol {
                        shard: s as u32,
                        what: format!("claim id {} out of range", c.id),
                    });
                }
                attr[c.id as usize] = (gen, s as u32, i as u32);
            }
            merge_sorted(&merged, &run_scratch, &mut merge_scratch);
            std::mem::swap(&mut merged, &mut merge_scratch);
            merge_ns += t0.elapsed().as_nanos() as u64;
        }
        links.stats.merge_ns += merge_ns;
        // Top arbitration over the claims merged in global-id order.
        let t0 = Instant::now();
        let mut cycle_cfg = cfg.sim;
        if let Arbitration::Random(_) = cycle_cfg.arbitration {
            cycle_cfg.arbitration = Arbitration::Random(arb_seed);
        }
        top.shard_top(ft, &cycle_cfg, boundary, &mut merged);
        for inc in &mut incoming {
            inc.clear();
        }
        for c in &merged {
            if c.alive() {
                incoming[c.dst_shard(ft.height(), boundary) as usize].push(*c);
            }
        }
        let top_ns = t0.elapsed().as_nanos() as u64;
        links.stats.top_ns += top_ns;
        // Down-frames stream out one by one — the first shard starts
        // settling while the rest are still being encoded.
        for (s, inc) in incoming.iter().enumerate() {
            links.request(s, FrameKind::Incoming2, ReplyTag::Outcomes, |b| {
                ClaimsV2::encode_into(b, 0, inc)
            })?;
        }
        // Outcomes phase: apply each verdict as it lands.
        delivered.clear();
        delivered.resize(mirror.len(), false);
        let mut cycle_delivered = 0usize;
        let mut ticks = 0u32;
        for _ in 0..shards {
            let (s, tag) = links.poll()?;
            debug_assert_eq!(tag, ReplyTag::Outcomes);
            let v = OutcomesView::parse(links.payload()).map_err(proto_err(s))?;
            let down_ns = v.compute_ns;
            ticks = ticks.max(v.ticks);
            for &d in v.delivered {
                let id = d as usize;
                let slot = delivered.get_mut(id).ok_or_else(|| ShardError::Protocol {
                    shard: s as u32,
                    what: format!("delivered id {d} out of range"),
                })?;
                if *slot {
                    return Err(ShardError::Protocol {
                        shard: s as u32,
                        what: format!("message {d} delivered twice"),
                    });
                }
                *slot = true;
                cycle_delivered += 1;
                // If this id was an exported claim, tell its source shard
                // to retire it via the next cycle's verdict bitmap.
                let (g, src, idx) = attr[id];
                if g == gen {
                    verdict_bits[src as usize][idx as usize / 64] |= 1 << (idx % 64);
                }
            }
            links.stats.shard_down_ns[s] += down_ns;
        }
        if cycle_delivered == 0 {
            return Err(ShardError::NoProgress { cycle: cycles });
        }
        if R::ENABLED {
            rec.cycle_end(cycles as u32, cycle_delivered as u32);
            rec.shard_cycle(
                cycles as u32,
                links.stats.barrier_wait_ns - barrier_before,
                merge_ns,
                top_ns,
            );
        }
        cycles += 1;
        delivered_per_cycle.push(cycle_delivered);
        total_ticks += ticks as u64;
        // FIFO compaction in pending order — the delivery_order grouping
        // matches the single arena's emit loop exactly — then the next
        // cycle's per-shard id remaps fall out of the surviving positions.
        let mut w = 0usize;
        for i in 0..mirror.len() {
            if delivered[i] {
                delivery_order.push(mirror[i] as usize);
            } else {
                mirror[w] = mirror[i];
                w += 1;
            }
        }
        mirror.truncate(w);
        for r in &mut remap {
            r.clear();
        }
        for (i, &orig) in mirror.iter().enumerate() {
            remap[shard_of[orig as usize] as usize].push(i as u32);
        }
        // The next iteration's Cycle dispatch happens immediately — the
        // workers' up passes for cycle c+1 overlap this loop's bookkeeping
        // and each other.
    }
    // Best-effort shutdown: a shard that dies here changes nothing about
    // the completed run.
    'shutdown: {
        for s in 0..shards {
            if links
                .request(s, FrameKind::Shutdown, ReplyTag::ShutdownAck, |_| {})
                .is_err()
            {
                break 'shutdown;
            }
        }
        for _ in 0..shards {
            if links.poll().is_err() {
                break 'shutdown;
            }
        }
    }
    Ok(ShardRunReport {
        run: RunReport {
            cycles,
            delivered_per_cycle,
            total_ticks,
            delivery_order,
        },
        stats: links.stats,
    })
}
