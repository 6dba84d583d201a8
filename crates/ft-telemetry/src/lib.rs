//! # ft-telemetry — zero-cost-when-disabled observability for the engines
//!
//! The paper's central quantities — load factor λ(M) (§III), per-channel
//! congestion, delivery-cycle counts, and concentrator matching behaviour
//! (§IV) — are exactly what the flat engines compute fastest and explain
//! worst. This crate is the one mechanism every engine reports through:
//!
//! * [`Recorder`] — the observation trait. Every hook has an empty default
//!   body and the trait carries an associated `const ENABLED: bool`, so an
//!   engine monomorphized over [`NoopRecorder`] (`ENABLED = false`) compiles
//!   the instrumentation *to nothing*: the hot loops dispatch on
//!   `R::ENABLED` exactly the way they previously dispatched on a
//!   `const COUNT: bool` parameter, and the golden byte-identity and
//!   counting-allocator tests pin the disabled path to the untraced one.
//! * [`MetricsRecorder`] — flat per-level counter tables (claimed / blocked
//!   / wasted wire claims), fixed-bucket [`Histogram`]s (channel load vs.
//!   capacity, refinement bucket sizes), per-level λ contributions, per-stage
//!   concentrator matching statistics ([`StageStats`]), and delivered-per-
//!   cycle series. All storage is grow-only and [`MetricsRecorder::reset`]
//!   never frees, so a warmed recorder records steady-state runs with zero
//!   heap allocation (asserted by a counting-allocator test in ft-sched).
//! * [`EventRing`] — structured cycle-level tracing: each event packs into
//!   one u64 (`kind | tag | level | value`) in a reusable overwrite-oldest
//!   ring buffer, exported as JSONL or CSV and re-parsed by
//!   [`parse_jsonl`] (round-trip tested). Tracing is off unless a capacity
//!   is requested via [`MetricsRecorder::with_trace`].
//!
//! The crate is dependency-free (std only) and knows nothing about fat
//! trees: engines pass levels, loads, and capacities as plain integers.

use std::time::Instant;

/// Observation hooks called by the engines.
///
/// Implementations accumulate whatever they like; every method has an empty
/// default body. Engines consult [`Recorder::ENABLED`] (a compile-time
/// constant) before doing *any* work on behalf of the recorder — computing a
/// per-level delta, walking a load map — so a [`NoopRecorder`] run is
/// instruction-for-instruction the untraced engine.
pub trait Recorder {
    /// Compile-time switch: `false` only for [`NoopRecorder`]. Engines gate
    /// instrumentation-only work on this constant so the disabled path
    /// optimizes out entirely.
    const ENABLED: bool = true;

    /// A run over a tree of the given height begins (levels are
    /// `1..=height`, root edge first, matching the engines' convention).
    fn run_start(&mut self, height: u32) {
        let _ = height;
    }
    /// A delivery cycle (or baseline step) begins with `live` messages
    /// still undelivered.
    fn cycle_start(&mut self, cycle: u32, live: u32) {
        let _ = (cycle, live);
    }
    /// A delivery cycle ends having delivered `delivered` messages.
    fn cycle_end(&mut self, cycle: u32, delivered: u32) {
        let _ = (cycle, delivered);
    }
    /// The sharded coordinator finished a cycle having spent
    /// `barrier_wait_ns` blocked on shard replies, `merge_ns` merging claim
    /// frames (overlapped with shard compute), and `top_ns` in top-level
    /// arbitration. Only [`run_sharded_with`]-style engines call this.
    fn shard_cycle(&mut self, cycle: u32, barrier_wait_ns: u64, merge_ns: u64, top_ns: u64) {
        let _ = (cycle, barrier_wait_ns, merge_ns, top_ns);
    }
    /// Wire-claim outcome aggregate for one (cycle, level): `claimed` wires
    /// were granted, `blocked` claim attempts were rejected (= resends), and
    /// `wasted` grants were rolled back because the message died higher up.
    fn wire_claims(&mut self, cycle: u32, level: u32, claimed: u64, blocked: u64, wasted: u64) {
        let _ = (cycle, level, claimed, blocked, wasted);
    }
    /// One channel at `level` carried `load` messages against capacity `cap`
    /// during the current cycle.
    fn channel_load(&mut self, level: u32, load: u64, cap: u64) {
        let _ = (level, load, cap);
    }
    /// The Theorem 1 splitter divided a bucket of `size` messages at `level`
    /// into `parts` even parts.
    fn bucket_split(&mut self, level: u32, size: u32, parts: u32) {
        let _ = (level, size, parts);
    }
    /// λ(M) tally site: the channel at `level` carries `load` messages
    /// against capacity `cap` for the whole message set (§III). The maximum
    /// ratio over all sites is the load factor.
    fn lambda_site(&mut self, level: u32, load: u64, cap: u64) {
        let _ = (level, load, cap);
    }
    /// A concentrator matching finished: cascade stage `stage` matched
    /// `matched` of `active` inputs using `rounds` BFS phases and `paths`
    /// augmenting paths (Hopcroft–Karp).
    fn matching_stage(&mut self, stage: u32, active: u32, matched: u32, rounds: u32, paths: u32) {
        let _ = (stage, active, matched, rounds, paths);
    }
    /// An engine ingested a lazily generated message stream of the given
    /// workload family (`"permutation"`, `"bursty"`, `"incast"`, …) holding
    /// `messages` messages. Called once per streamed run, not per cycle.
    fn stream_ingest(&mut self, family: &'static str, messages: u64) {
        let _ = (family, messages);
    }
    /// An arena spent `ns` in `phase` (`ft-sim`: once per phase per cycle;
    /// `ft-sched`: once per phase per tree level). The engine reads the
    /// clock only when [`Recorder::ENABLED`] (see [`PhaseClock`]).
    fn engine_phase(&mut self, phase: EnginePhase, ns: u64) {
        let _ = (phase, ns);
    }
}

/// The stages of one `ft-sim` arena delivery cycle, in execution order,
/// then the two stages of a `ft-sched` `SchedArena` run that follow its
/// own [`EnginePhase::Ingest`] — the unit of [`Recorder::engine_phase`]
/// attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnginePhase {
    /// `ft-sim`: pack metadata from the message source (first cycle) and
    /// inject onto the leaf up-wires (every cycle). `ft-sched`: bucket the
    /// messages by LCA and tally λ(M).
    Ingest,
    /// Counting-sort the injected messages by source leaf (fused cycles).
    SourceSort,
    /// The up phase: the fused sweep, or the per-level up passes.
    UpSweep,
    /// The down phase: the fused sweep, or the per-level down passes.
    DownSweep,
    /// Build the delivered / dropped lists and the cycle's tick count
    /// (`ft-sim`: and compact the retry set in place).
    Settle,
    /// Append the cycle's delivered identities to the run's delivery order.
    Compaction,
    /// `ft-sched`: split one tree level's buckets into one-cycle parts.
    Refine,
    /// `ft-sched`: gather the level's parts and place them into cycles.
    Emit,
}

impl EnginePhase {
    /// Every phase, in execution order.
    pub const ALL: [EnginePhase; 8] = [
        EnginePhase::Ingest,
        EnginePhase::SourceSort,
        EnginePhase::UpSweep,
        EnginePhase::DownSweep,
        EnginePhase::Settle,
        EnginePhase::Compaction,
        EnginePhase::Refine,
        EnginePhase::Emit,
    ];

    /// Stable snake_case name (JSON key stem and table label).
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Ingest => "ingest",
            EnginePhase::SourceSort => "source_sort",
            EnginePhase::UpSweep => "up_sweep",
            EnginePhase::DownSweep => "down_sweep",
            EnginePhase::Settle => "settle",
            EnginePhase::Compaction => "compaction",
            EnginePhase::Refine => "refine",
            EnginePhase::Emit => "emit",
        }
    }
}

/// Laps a clock between engine phases for [`Recorder::engine_phase`]. With
/// a disabled recorder it never reads the clock and every call compiles
/// away.
pub struct PhaseClock(Option<Instant>);

impl PhaseClock {
    /// Start timing; the first [`PhaseClock::lap`] reports from here.
    #[inline]
    pub fn start<R: Recorder>() -> Self {
        PhaseClock(R::ENABLED.then(Instant::now))
    }

    /// Report the time since the previous lap (or the start) as `phase`.
    #[inline]
    pub fn lap<R: Recorder>(&mut self, rec: &mut R, phase: EnginePhase) {
        if R::ENABLED {
            let now = Instant::now();
            if let Some(t0) = self.0.replace(now) {
                rec.engine_phase(phase, (now - t0).as_nanos() as u64);
            }
        }
    }
}

/// The do-nothing recorder: `ENABLED = false`, every hook inherits its empty
/// default. Engines monomorphized over this type carry no instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

/// A fixed eight-bucket histogram.
///
/// Two recording flavours share the storage: [`Histogram::record_ratio`]
/// buckets a load/capacity fraction into eighths (bucket 7 saturating, so it
/// includes 100 % and overload), and [`Histogram::record_log2`] buckets a
/// size by its binary order of magnitude (bucket `k` holds sizes in
/// `[2^k, 2^(k+1))`, bucket 7 saturating).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Raw bucket counts.
    pub buckets: [u64; 8],
}

impl Histogram {
    /// Record `num/den` as a fraction of capacity. `den = 0` counts as full.
    pub fn record_ratio(&mut self, num: u64, den: u64) {
        let b = if den == 0 || num >= den {
            7
        } else {
            ((num * 8) / den).min(7) as usize
        };
        self.buckets[b] += 1;
    }

    /// Record a size by binary order of magnitude.
    pub fn record_log2(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            (v.ilog2() as usize).min(7)
        };
        self.buckets[b] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Reset all buckets (no allocation).
    pub fn clear(&mut self) {
        self.buckets = [0; 8];
    }

    /// Render the counts as `a/b/c/d/e/f/g/h`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                s.push('/');
            }
            s.push_str(&b.to_string());
        }
        s
    }
}

/// Number of buckets in a [`LatencyHistogram`]: one per binary order of
/// magnitude of nanoseconds. Bucket 63 is unreachable for real durations
/// (2^63 ns ≈ 292 years) but keeps the index math branch-free.
pub const LATENCY_BUCKETS: usize = 64;

/// Bucket index for a duration: `ilog2(ns)`, with 0 and 1 ns sharing
/// bucket 0. Bucket `k` (k ≥ 1) holds durations in `[2^k, 2^(k+1))`.
#[inline]
pub fn latency_bucket(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        ns.ilog2() as usize
    }
}

/// Lower bound (in ns) of a latency bucket — the representative value the
/// percentile extractors report. By construction it is within one binary
/// order of magnitude of every duration the bucket holds.
#[inline]
pub fn latency_bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b
    }
}

/// A fixed-bucket log2 latency histogram.
///
/// One bucket per binary order of magnitude of nanoseconds, plus exact
/// count / sum / max side-channels. Storage is a fixed array: recording is
/// a shift, a compare, and three adds — no allocation ever, so a warmed
/// serve loop records into it with the same counting-allocator discipline
/// as every arena. Histograms merge by bucket-wise addition
/// ([`LatencyHistogram::merge`]), which is exactly equivalent to having
/// recorded the union of the two observation sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket counts; index = [`latency_bucket`] of the duration.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all recorded durations (ns), saturating.
    pub sum_ns: u64,
    /// Exact maximum recorded duration (ns).
    pub max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[latency_bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Fold another histogram in. `a.merge(&b)` leaves `a` equal to a
    /// histogram that recorded every observation of both.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Reset to empty (no allocation).
    pub fn clear(&mut self) {
        *self = LatencyHistogram::default();
    }

    /// Mean duration in ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the floor of the bucket holding
    /// the rank-`ceil(q·count)` observation — within one log2 bucket of
    /// the exact order statistic by construction. Returns 0 when empty;
    /// `q >= 1.0` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return latency_bucket_floor(b);
            }
        }
        self.max_ns
    }

    /// Median (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (see [`LatencyHistogram::quantile`]).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (see [`LatencyHistogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as a compact JSON array of `[index, count]` pairs
    /// (dense 64-wide arrays would bloat every scrape).
    pub fn to_json_buckets(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{b},{c}]"));
        }
        out.push(']');
        out
    }
}

/// Wait-free shared twin of [`LatencyHistogram`]: every cell is a relaxed
/// `AtomicU64`, so the serve pipeline's reader and batcher threads
/// record concurrently without locks and a metrics scrape snapshots the
/// whole thing without ever blocking the hot path.
///
/// `max_ns` uses `fetch_max`; everything else is `fetch_add`. A snapshot
/// taken mid-record can be off by the in-flight observation — fine for
/// monitoring, and the counters are monotone so scrapes never go backward.
#[derive(Debug)]
pub struct AtomicLatencyHistogram {
    buckets: [core::sync::atomic::AtomicU64; LATENCY_BUCKETS],
    count: core::sync::atomic::AtomicU64,
    sum_ns: core::sync::atomic::AtomicU64,
    max_ns: core::sync::atomic::AtomicU64,
}

impl Default for AtomicLatencyHistogram {
    fn default() -> Self {
        use core::sync::atomic::AtomicU64;
        AtomicLatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicLatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in nanoseconds (wait-free, relaxed ordering).
    #[inline]
    pub fn record(&self, ns: u64) {
        use core::sync::atomic::Ordering::Relaxed;
        self.buckets[latency_bucket(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Copy the current contents into a plain [`LatencyHistogram`].
    pub fn snapshot(&self) -> LatencyHistogram {
        use core::sync::atomic::Ordering::Relaxed;
        let mut h = LatencyHistogram::default();
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        h.count = self.count.load(Relaxed);
        h.sum_ns = self.sum_ns.load(Relaxed);
        h.max_ns = self.max_ns.load(Relaxed);
        h
    }
}

/// Per-cascade-stage matching statistics (ROADMAP: matching-size and
/// augmenting-path counters for `MatchingArena` and the cascade stack).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Number of matchings run at this stage.
    pub runs: u64,
    /// Total BFS phases (Hopcroft–Karp rounds) across runs.
    pub rounds: u64,
    /// Total successful augmenting paths across runs.
    pub paths: u64,
    /// Total inputs offered across runs.
    pub active: u64,
    /// Total inputs matched across runs.
    pub matched: u64,
    /// Histogram of matching sizes (binary orders of magnitude).
    pub sizes: Histogram,
}

/// The metrics registry: flat per-level counter tables, fixed-bucket
/// histograms, λ contributions, per-stage matching statistics, and an
/// optional [`EventRing`] trace.
///
/// Storage is grow-only: per-level tables expand on first contact with a
/// level and [`MetricsRecorder::reset`] zeroes without freeing, so a warmed
/// recorder is allocation-free in steady state.
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    /// Tree height of the current run (levels are `1..=height`).
    pub height: u32,
    /// Delivery cycles completed (count of [`Recorder::cycle_end`] calls).
    pub cycles: u32,
    /// Messages delivered per cycle, in cycle order.
    pub delivered_per_cycle: Vec<u64>,
    /// Granted wire claims per level (index 0 unused).
    pub claimed: Vec<u64>,
    /// Rejected wire-claim attempts (= resends) per level (index 0 unused).
    pub blocked: Vec<u64>,
    /// Rolled-back grants per level (index 0 unused).
    pub wasted: Vec<u64>,
    /// Channel load vs. capacity histogram per level (index 0 unused).
    pub load_hist: Vec<Histogram>,
    /// Maximum λ contribution (load/cap) seen per level (index 0 unused).
    pub lambda: Vec<f64>,
    /// Splitter buckets processed per level (index 0 unused).
    pub splits: Vec<u64>,
    /// Histogram of splitter bucket sizes (binary orders of magnitude).
    pub split_sizes: Histogram,
    /// Per-cascade-stage matching statistics.
    pub stages: Vec<StageStats>,
    /// Coordinator barrier wait per cycle (ns); empty for unsharded runs.
    pub barrier_wait_ns_per_cycle: Vec<u64>,
    /// Coordinator claim-merge time per cycle (ns); empty for unsharded runs.
    pub merge_ns_per_cycle: Vec<u64>,
    /// Coordinator top-arbitration time per cycle (ns); empty for unsharded
    /// runs.
    pub top_ns_per_cycle: Vec<u64>,
    /// Streamed-ingest tally per workload family: `(family, runs, messages)`.
    /// Empty unless an engine ingested a lazy [`stream_ingest`] workload.
    ///
    /// [`stream_ingest`]: Recorder::stream_ingest
    pub stream_families: Vec<(&'static str, u64, u64)>,
    /// Arena time per [`EnginePhase`] (ns, summed over cycles), indexed in
    /// [`EnginePhase::ALL`] order; all zero unless an arena reported.
    pub phase_ns: [u64; EnginePhase::ALL.len()],
    /// Optional event trace; capacity 0 = tracing off.
    pub ring: EventRing,
    cur_cycle: u32,
}

impl MetricsRecorder {
    /// A metrics-only recorder (no event trace).
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that additionally traces up to `capacity` packed events in
    /// an overwrite-oldest ring.
    pub fn with_trace(capacity: usize) -> Self {
        Self {
            ring: EventRing::new(capacity),
            ..Self::default()
        }
    }

    /// Clear every table and the trace without freeing any storage.
    pub fn reset(&mut self) {
        self.height = 0;
        self.cycles = 0;
        self.cur_cycle = 0;
        self.delivered_per_cycle.clear();
        for v in [&mut self.claimed, &mut self.blocked, &mut self.wasted] {
            v.iter_mut().for_each(|c| *c = 0);
        }
        self.load_hist.iter_mut().for_each(Histogram::clear);
        self.lambda.iter_mut().for_each(|l| *l = 0.0);
        self.splits.iter_mut().for_each(|c| *c = 0);
        self.split_sizes.clear();
        for s in &mut self.stages {
            *s = StageStats::default();
        }
        self.barrier_wait_ns_per_cycle.clear();
        self.merge_ns_per_cycle.clear();
        self.top_ns_per_cycle.clear();
        self.stream_families.clear();
        self.phase_ns = [0; EnginePhase::ALL.len()];
        self.ring.clear();
    }

    fn grow_levels(&mut self, levels: usize) {
        if self.claimed.len() < levels {
            self.claimed.resize(levels, 0);
            self.blocked.resize(levels, 0);
            self.wasted.resize(levels, 0);
            self.load_hist.resize(levels, Histogram::default());
            self.lambda.resize(levels, 0.0);
            self.splits.resize(levels, 0);
        }
    }

    fn level_capacity(&mut self, level: u32) {
        if (level as usize) >= self.claimed.len() {
            self.grow_levels(level as usize + 1);
        }
    }

    /// Total rejected wire-claim attempts across all levels (resends).
    pub fn total_blocked(&self) -> u64 {
        self.blocked.iter().sum()
    }

    /// Total granted wire claims across all levels.
    pub fn total_claimed(&self) -> u64 {
        self.claimed.iter().sum()
    }

    /// Total rolled-back grants across all levels.
    pub fn total_wasted(&self) -> u64 {
        self.wasted.iter().sum()
    }

    /// Total messages delivered across all cycles.
    pub fn total_delivered(&self) -> u64 {
        self.delivered_per_cycle.iter().sum()
    }

    /// The level with the most blocked claims, if any claim was blocked.
    pub fn hottest_level(&self) -> Option<u32> {
        let (mut best, mut at) = (0u64, None);
        for (lvl, &b) in self.blocked.iter().enumerate() {
            if b > best {
                best = b;
                at = Some(lvl as u32);
            }
        }
        at
    }

    /// The maximum λ contribution over all levels (the load factor, when the
    /// scheduler fed every tally site through [`Recorder::lambda_site`]).
    pub fn lambda_max(&self) -> f64 {
        self.lambda.iter().cloned().fold(0.0, f64::max)
    }

    /// Per-level contention table: `level k: claimed/blocked/wasted`.
    pub fn render_contention(&self) -> String {
        let mut out = String::new();
        for lvl in 1..self.claimed.len() {
            out.push_str(&format!(
                "  level {lvl:>2}: claimed {:>8}  blocked {:>8}  wasted {:>8}\n",
                self.claimed[lvl], self.blocked[lvl], self.wasted[lvl]
            ));
        }
        out
    }

    /// Per-level λ contribution table.
    pub fn render_lambda(&self) -> String {
        let mut out = String::new();
        for lvl in 1..self.lambda.len() {
            out.push_str(&format!(
                "  level {lvl:>2}: λ contribution {:>8.3}\n",
                self.lambda[lvl]
            ));
        }
        out
    }

    /// Per-level channel load-vs-capacity histograms (eighths of capacity,
    /// last bucket = full or overloaded).
    pub fn render_load(&self) -> String {
        let mut out = String::new();
        for (lvl, h) in self.load_hist.iter().enumerate().skip(1) {
            if h.total() == 0 {
                continue;
            }
            out.push_str(&format!(
                "  level {lvl:>2}: load/cap eighths {}\n",
                h.render()
            ));
        }
        out
    }

    /// Per-stage matching statistics table.
    pub fn render_stages(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.stages.iter().enumerate() {
            if s.runs == 0 {
                continue;
            }
            out.push_str(&format!(
                "  stage {i}: runs {:>4}  matched {:>7}/{:<7}  rounds {:>5}  aug-paths {:>7}  sizes(log2) {}\n",
                s.runs, s.matched, s.active, s.rounds, s.paths, s.sizes.render()
            ));
        }
        out
    }

    /// Hand-rolled JSON object with every table (no trailing newline). This
    /// is what `ftsim report --format json` prints per engine (the frozen
    /// `BENCH_engine.json` carries the same shape under
    /// `telemetry.gate_runs[].metrics`).
    pub fn to_json(&self) -> String {
        fn nums<T: ToString>(v: impl IntoIterator<Item = T>) -> String {
            let items: Vec<String> = v.into_iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(","))
        }
        let lambda: Vec<String> = self.lambda.iter().map(|l| format!("{l:.6}")).collect();
        let hists: Vec<String> = self
            .load_hist
            .iter()
            .map(|h| nums(h.buckets.iter().copied()))
            .collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"stage\":{i},\"runs\":{},\"rounds\":{},\"paths\":{},\"active\":{},\"matched\":{},\"sizes\":{}}}",
                    s.runs, s.rounds, s.paths, s.active, s.matched,
                    nums(s.sizes.buckets.iter().copied())
                )
            })
            .collect();
        let streams: Vec<String> = self
            .stream_families
            .iter()
            .map(|&(f, runs, messages)| {
                format!("{{\"family\":\"{f}\",\"runs\":{runs},\"messages\":{messages}}}")
            })
            .collect();
        let phases: Vec<String> = EnginePhase::ALL
            .iter()
            .zip(self.phase_ns)
            .map(|(p, ns)| format!("\"{}_ns\":{ns}", p.name()))
            .collect();
        format!(
            "{{\"height\":{},\"cycles\":{},\"delivered_per_cycle\":{},\"claimed\":{},\"blocked\":{},\"wasted\":{},\"lambda\":[{}],\"load_hist\":[{}],\"splits\":{},\"split_sizes\":{},\"stages\":[{}],\"stream_ingest\":[{}],\"phases\":{{{}}},\"barrier_wait_ns\":{},\"merge_ns\":{},\"top_arb_ns\":{},\"events_dropped\":{}}}",
            self.height,
            self.cycles,
            nums(self.delivered_per_cycle.iter().copied()),
            nums(self.claimed.iter().copied()),
            nums(self.blocked.iter().copied()),
            nums(self.wasted.iter().copied()),
            lambda.join(","),
            hists.join(","),
            nums(self.splits.iter().copied()),
            nums(self.split_sizes.buckets.iter().copied()),
            stages.join(","),
            streams.join(","),
            phases.join(","),
            nums(self.barrier_wait_ns_per_cycle.iter().copied()),
            nums(self.merge_ns_per_cycle.iter().copied()),
            nums(self.top_ns_per_cycle.iter().copied()),
            self.ring.dropped()
        )
    }

    /// Streamed-workload ingest table: `family: runs, messages`. Empty
    /// string when nothing was streamed.
    pub fn render_streams(&self) -> String {
        let mut out = String::new();
        for &(family, runs, messages) in &self.stream_families {
            out.push_str(&format!(
                "  {family:<12}: runs {runs:>4}  messages {messages:>12}\n"
            ));
        }
        out
    }

    /// Arena phase attribution: summed time per [`EnginePhase`] that was
    /// reported at all, with its share of the total. Empty string when no
    /// arena reported.
    pub fn render_phases(&self) -> String {
        let total: u64 = self.phase_ns.iter().sum();
        if total == 0 {
            return String::new();
        }
        let mut out = String::from(" ");
        for (p, ns) in EnginePhase::ALL.iter().zip(self.phase_ns) {
            if ns == 0 {
                continue;
            }
            out.push_str(&format!(
                " {} {:.1}µs ({:.0}%)",
                p.name(),
                ns as f64 / 1e3,
                100.0 * ns as f64 / total as f64
            ));
        }
        out.push('\n');
        out
    }

    /// Coordinator overlap table: per-cycle barrier wait vs. merge vs. top
    /// arbitration time, with totals. Empty string for unsharded runs.
    pub fn render_shard_cycles(&self) -> String {
        if self.barrier_wait_ns_per_cycle.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let (mut bw, mut mg, mut tp) = (0u64, 0u64, 0u64);
        for c in 0..self.barrier_wait_ns_per_cycle.len() {
            let (b, m, t) = (
                self.barrier_wait_ns_per_cycle[c],
                self.merge_ns_per_cycle[c],
                self.top_ns_per_cycle[c],
            );
            bw += b;
            mg += m;
            tp += t;
            out.push_str(&format!(
                "  cycle {c:>3}: barrier-wait {:>9}ns  merge {:>8}ns  top-arb {:>8}ns\n",
                b, m, t
            ));
        }
        out.push_str(&format!(
            "  total    : barrier-wait {bw:>9}ns  merge {mg:>8}ns  top-arb {tp:>8}ns\n"
        ));
        out
    }
}

impl Recorder for MetricsRecorder {
    fn run_start(&mut self, height: u32) {
        self.height = self.height.max(height);
        self.grow_levels(height as usize + 1);
    }

    fn cycle_start(&mut self, cycle: u32, live: u32) {
        self.cur_cycle = cycle;
        self.ring
            .push(Event::new(EventKind::CycleStart, cycle, 0, live));
    }

    fn cycle_end(&mut self, cycle: u32, delivered: u32) {
        self.cycles += 1;
        self.delivered_per_cycle.push(delivered as u64);
        self.ring
            .push(Event::new(EventKind::CycleEnd, cycle, 0, delivered));
    }

    fn shard_cycle(&mut self, _cycle: u32, barrier_wait_ns: u64, merge_ns: u64, top_ns: u64) {
        self.barrier_wait_ns_per_cycle.push(barrier_wait_ns);
        self.merge_ns_per_cycle.push(merge_ns);
        self.top_ns_per_cycle.push(top_ns);
    }

    fn wire_claims(&mut self, cycle: u32, level: u32, claimed: u64, blocked: u64, wasted: u64) {
        self.level_capacity(level);
        let l = level as usize;
        self.claimed[l] += claimed;
        self.blocked[l] += blocked;
        self.wasted[l] += wasted;
        if self.ring.capacity() > 0 {
            if claimed > 0 {
                self.ring.push(Event::new(
                    EventKind::WireClaim,
                    cycle,
                    level,
                    claimed as u32,
                ));
            }
            if blocked > 0 {
                self.ring.push(Event::new(
                    EventKind::WireReject,
                    cycle,
                    level,
                    blocked as u32,
                ));
            }
        }
    }

    fn channel_load(&mut self, level: u32, load: u64, cap: u64) {
        self.level_capacity(level);
        self.load_hist[level as usize].record_ratio(load, cap);
        self.ring.push(Event::new(
            EventKind::ChannelLoad,
            self.cur_cycle,
            level,
            load as u32,
        ));
    }

    fn bucket_split(&mut self, level: u32, size: u32, parts: u32) {
        self.level_capacity(level);
        self.splits[level as usize] += 1;
        self.split_sizes.record_log2(size as u64);
        self.ring
            .push(Event::new(EventKind::BucketSplit, parts, level, size));
    }

    fn lambda_site(&mut self, level: u32, load: u64, cap: u64) {
        self.level_capacity(level);
        let ratio = load as f64 / cap.max(1) as f64;
        let l = level as usize;
        if ratio > self.lambda[l] {
            self.lambda[l] = ratio;
        }
        self.ring
            .push(Event::new(EventKind::LambdaSite, 0, level, load as u32));
    }

    fn matching_stage(&mut self, stage: u32, active: u32, matched: u32, rounds: u32, paths: u32) {
        if (stage as usize) >= self.stages.len() {
            self.stages
                .resize(stage as usize + 1, StageStats::default());
        }
        let s = &mut self.stages[stage as usize];
        s.runs += 1;
        s.rounds += rounds as u64;
        s.paths += paths as u64;
        s.active += active as u64;
        s.matched += matched as u64;
        s.sizes.record_log2(matched as u64);
        self.ring
            .push(Event::new(EventKind::MatchingRound, stage, 0, matched));
    }

    fn stream_ingest(&mut self, family: &'static str, messages: u64) {
        for entry in &mut self.stream_families {
            if entry.0 == family {
                entry.1 += 1;
                entry.2 += messages;
                return;
            }
        }
        self.stream_families.push((family, 1, messages));
    }

    fn engine_phase(&mut self, phase: EnginePhase, ns: u64) {
        self.phase_ns[phase as usize] += ns;
    }
}

/// Event kinds, 4 bits in the packed word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A delivery cycle began; `value` = live messages.
    CycleStart = 0,
    /// A delivery cycle ended; `value` = messages delivered.
    CycleEnd = 1,
    /// Granted wire claims at (`tag` = cycle, `level`); `value` = count.
    WireClaim = 2,
    /// Rejected wire claims at (`tag` = cycle, `level`); `value` = count.
    WireReject = 3,
    /// Splitter bucket divided; `tag` = parts, `value` = bucket size.
    BucketSplit = 4,
    /// Matching finished at cascade stage `tag`; `value` = matched inputs.
    MatchingRound = 5,
    /// Channel load observed; `tag` = cycle, `value` = load.
    ChannelLoad = 6,
    /// λ tally site observed; `value` = subtree load.
    LambdaSite = 7,
    /// Serve span: request `tag` admitted; `level` = engine (0 = schedule,
    /// 1 = online), `value` = message count.
    ReqAdmit = 8,
    /// Serve span: request `tag` coalesced into a batch; `level` = batch
    /// width (requests sharing the pass), `value` = batch sequence number.
    ReqBatch = 9,
    /// Serve span: request `tag` rejected with `Busy`; `value` = in-flight
    /// count at the rejection.
    ReqBusy = 10,
    /// Serve span: request `tag` responded; `level` = engine, `value` =
    /// wall time in microseconds (saturating).
    ReqDone = 11,
    /// Serve span: idle connection `tag` reaped by the dead-client timer
    /// (`value` unused, 0).
    ConnReap = 12,
}

impl EventKind {
    fn from_bits(b: u64) -> Option<EventKind> {
        Some(match b {
            0 => EventKind::CycleStart,
            1 => EventKind::CycleEnd,
            2 => EventKind::WireClaim,
            3 => EventKind::WireReject,
            4 => EventKind::BucketSplit,
            5 => EventKind::MatchingRound,
            6 => EventKind::ChannelLoad,
            7 => EventKind::LambdaSite,
            8 => EventKind::ReqAdmit,
            9 => EventKind::ReqBatch,
            10 => EventKind::ReqBusy,
            11 => EventKind::ReqDone,
            12 => EventKind::ConnReap,
            _ => return None,
        })
    }

    /// Stable lowercase name used by the JSONL/CSV exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CycleStart => "cycle_start",
            EventKind::CycleEnd => "cycle_end",
            EventKind::WireClaim => "wire_claim",
            EventKind::WireReject => "wire_reject",
            EventKind::BucketSplit => "bucket_split",
            EventKind::MatchingRound => "matching_round",
            EventKind::ChannelLoad => "channel_load",
            EventKind::LambdaSite => "lambda_site",
            EventKind::ReqAdmit => "req_admit",
            EventKind::ReqBatch => "req_batch",
            EventKind::ReqBusy => "req_busy",
            EventKind::ReqDone => "req_done",
            EventKind::ConnReap => "conn_reap",
        }
    }

    fn from_name(s: &str) -> Option<EventKind> {
        Some(match s {
            "cycle_start" => EventKind::CycleStart,
            "cycle_end" => EventKind::CycleEnd,
            "wire_claim" => EventKind::WireClaim,
            "wire_reject" => EventKind::WireReject,
            "bucket_split" => EventKind::BucketSplit,
            "matching_round" => EventKind::MatchingRound,
            "channel_load" => EventKind::ChannelLoad,
            "lambda_site" => EventKind::LambdaSite,
            "req_admit" => EventKind::ReqAdmit,
            "req_batch" => EventKind::ReqBatch,
            "req_busy" => EventKind::ReqBusy,
            "req_done" => EventKind::ReqDone,
            "conn_reap" => EventKind::ConnReap,
            _ => return None,
        })
    }
}

/// One unpacked trace event. Packs into a single u64:
/// `kind` (bits 60..64) | `tag` (bits 36..60, cycle or stage) |
/// `level` (bits 28..36) | `value` (bits 0..28). Fields saturate at their
/// bit widths when packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Cycle, stage, or parts count — see the kind's documentation.
    pub tag: u32,
    /// Channel level (0 when not applicable).
    pub level: u32,
    /// The kind-specific measurement.
    pub value: u32,
}

const TAG_MAX: u32 = (1 << 24) - 1;
const LEVEL_MAX: u32 = (1 << 8) - 1;
const VALUE_MAX: u32 = (1 << 28) - 1;

impl Event {
    /// Build an event, saturating each field at its packed width.
    pub fn new(kind: EventKind, tag: u32, level: u32, value: u32) -> Event {
        Event {
            kind,
            tag: tag.min(TAG_MAX),
            level: level.min(LEVEL_MAX),
            value: value.min(VALUE_MAX),
        }
    }

    /// Pack into the on-ring u64 representation.
    pub fn pack(self) -> u64 {
        ((self.kind as u64) << 60)
            | ((self.tag as u64) << 36)
            | ((self.level as u64) << 28)
            | self.value as u64
    }

    /// Unpack from the on-ring u64 representation.
    pub fn unpack(w: u64) -> Event {
        Event {
            kind: EventKind::from_bits(w >> 60).expect("4-bit kind in range"),
            tag: ((w >> 36) & TAG_MAX as u64) as u32,
            level: ((w >> 28) & LEVEL_MAX as u64) as u32,
            value: (w & VALUE_MAX as u64) as u32,
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"tag\":{},\"level\":{},\"value\":{}}}",
            self.kind.name(),
            self.tag,
            self.level,
            self.value
        )
    }

    /// One CSV line (no trailing newline); header is [`CSV_HEADER`].
    pub fn to_csv(self) -> String {
        format!(
            "{},{},{},{}",
            self.kind.name(),
            self.tag,
            self.level,
            self.value
        )
    }
}

/// Column header matching [`Event::to_csv`].
pub const CSV_HEADER: &str = "kind,tag,level,value";

/// Reusable overwrite-oldest ring of packed events.
///
/// Capacity 0 (the default) disables tracing: every push is a cheap
/// early-return. The buffer is allocated once at construction and reused
/// across runs; when full, the oldest event is overwritten and counted in
/// [`EventRing::dropped`].
#[derive(Clone, Debug, Default)]
pub struct EventRing {
    buf: Vec<u64>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding up to `capacity` packed events (0 = tracing off).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            buf: vec![0; capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Oldest events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append an event, overwriting the oldest if full. No-op when tracing
    /// is off (capacity 0).
    pub fn push(&mut self, e: Event) {
        let cap = self.buf.len();
        if cap == 0 {
            return;
        }
        let at = (self.head + self.len) % cap;
        self.buf[at] = e.pack();
        if self.len == cap {
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    /// Drop all events (keeps the buffer).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// Events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let cap = self.buf.len().max(1);
        (0..self.len).map(move |i| Event::unpack(self.buf[(self.head + i) % cap]))
    }

    /// Export every event as JSON Lines (one object per line).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.iter() {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Export every event as CSV with a header row.
    pub fn export_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for e in self.iter() {
            out.push_str(&e.to_csv());
            out.push('\n');
        }
        out
    }
}

/// Parse the output of [`EventRing::export_jsonl`] back into events.
///
/// Strict by design: every non-empty line must be exactly one event object
/// with exactly the four known fields, each appearing once — duplicate
/// keys, unknown keys, and trailing garbage after the closing brace (e.g.
/// two concatenated objects on one line) are all rejected. Returns the
/// 1-based offending line in the error. This is the round-trip half used
/// by `ftsim trace --verify` and the exporter tests — hand-rolled, like
/// every JSON in this workspace.
pub fn parse_jsonl(src: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_event_line(line, lineno)?);
    }
    Ok(out)
}

/// One strict event object. Field values never contain braces or commas,
/// so splitting on them is exact, not approximate.
fn parse_event_line(line: &str, lineno: usize) -> Result<Event, String> {
    let inner = line
        .strip_prefix('{')
        .ok_or_else(|| format!("line {lineno}: not a JSON object: {line:?}"))?;
    let (inner, rest) = inner
        .split_once('}')
        .ok_or_else(|| format!("line {lineno}: unterminated object: {line:?}"))?;
    if !rest.trim().is_empty() {
        return Err(format!(
            "line {lineno}: trailing garbage after object: {rest:?}"
        ));
    }
    let mut kind: Option<EventKind> = None;
    let mut tag: Option<u32> = None;
    let mut level: Option<u32> = None;
    let mut value: Option<u32> = None;
    for part in inner.split(',') {
        let part = part.trim();
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("line {lineno}: not a \"key\":value pair: {part:?}"))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("line {lineno}: key is not a string: {:?}", k.trim()))?;
        let v = v.trim();
        match key {
            "kind" => {
                if kind.is_some() {
                    return Err(format!("line {lineno}: duplicate field \"kind\""));
                }
                let name = v
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: kind is not a string: {v:?}"))?;
                kind = Some(
                    EventKind::from_name(name)
                        .ok_or_else(|| format!("line {lineno}: unknown event kind {name:?}"))?,
                );
            }
            "tag" | "level" | "value" => {
                let slot = match key {
                    "tag" => &mut tag,
                    "level" => &mut level,
                    _ => &mut value,
                };
                if slot.is_some() {
                    return Err(format!("line {lineno}: duplicate field {key:?}"));
                }
                *slot = Some(v.parse::<u32>().map_err(|_| {
                    format!("line {lineno}: field {key:?} is not an integer: {v:?}")
                })?);
            }
            other => {
                return Err(format!("line {lineno}: unknown field {other:?}"));
            }
        }
    }
    let missing = |key: &str| format!("line {lineno}: missing field {key:?}");
    Ok(Event::new(
        kind.ok_or_else(|| missing("kind"))?,
        tag.ok_or_else(|| missing("tag"))?,
        level.ok_or_else(|| missing("level"))?,
        value.ok_or_else(|| missing("value"))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_pack_roundtrip_all_kinds_and_extremes() {
        for kind in [
            EventKind::CycleStart,
            EventKind::CycleEnd,
            EventKind::WireClaim,
            EventKind::WireReject,
            EventKind::BucketSplit,
            EventKind::MatchingRound,
            EventKind::ChannelLoad,
            EventKind::LambdaSite,
            EventKind::ReqAdmit,
            EventKind::ReqBatch,
            EventKind::ReqBusy,
            EventKind::ReqDone,
            EventKind::ConnReap,
        ] {
            for (tag, level, value) in [
                (0, 0, 0),
                (1, 2, 3),
                (TAG_MAX, LEVEL_MAX, VALUE_MAX),
                (12345, 17, 9_999_999),
            ] {
                let e = Event::new(kind, tag, level, value);
                assert_eq!(Event::unpack(e.pack()), e);
            }
        }
    }

    #[test]
    fn event_fields_saturate_at_packed_width() {
        let e = Event::new(EventKind::WireClaim, u32::MAX, u32::MAX, u32::MAX);
        assert_eq!((e.tag, e.level, e.value), (TAG_MAX, LEVEL_MAX, VALUE_MAX));
        assert_eq!(Event::unpack(e.pack()), e);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u32 {
            r.push(Event::new(EventKind::CycleEnd, i, 0, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let tags: Vec<u32> = r.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_ignores_pushes() {
        let mut r = EventRing::new(0);
        r.push(Event::new(EventKind::CycleStart, 1, 0, 1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.export_jsonl(), "");
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut r = EventRing::new(16);
        r.push(Event::new(EventKind::CycleStart, 0, 0, 42));
        r.push(Event::new(EventKind::WireClaim, 0, 3, 17));
        r.push(Event::new(EventKind::WireReject, 0, 3, 5));
        r.push(Event::new(EventKind::BucketSplit, 2, 4, 1024));
        r.push(Event::new(EventKind::MatchingRound, 1, 0, 20));
        r.push(Event::new(EventKind::ChannelLoad, 0, 2, 64));
        r.push(Event::new(EventKind::LambdaSite, 0, 1, 999));
        r.push(Event::new(EventKind::ReqAdmit, 7, 0, 64));
        r.push(Event::new(EventKind::ReqBatch, 7, 4, 2));
        r.push(Event::new(EventKind::ReqBusy, 8, 0, 65));
        r.push(Event::new(EventKind::ReqDone, 7, 0, 1200));
        r.push(Event::new(EventKind::ConnReap, 3, 0, 1));
        r.push(Event::new(EventKind::CycleEnd, 0, 0, 42));
        let text = r.export_jsonl();
        let parsed = parse_jsonl(&text).expect("round-trip parse");
        let original: Vec<Event> = r.iter().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn jsonl_parser_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"kind\":\"nope\",\"tag\":0,\"level\":0,\"value\":0}").is_err());
        assert!(
            parse_jsonl("{\"kind\":\"cycle_end\",\"tag\":-1,\"level\":0,\"value\":0}").is_err()
        );
        assert!(parse_jsonl("{\"kind\":\"cycle_end\",\"tag\":0,\"level\":0}").is_err());
        // Empty lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn jsonl_parser_rejects_duplicate_keys() {
        // A duplicate key must not be resolved by find-first or last-wins.
        let dup_int = "{\"kind\":\"cycle_end\",\"tag\":1,\"tag\":2,\"level\":0,\"value\":0}";
        let err = parse_jsonl(dup_int).unwrap_err();
        assert!(err.contains("duplicate field \"tag\""), "got: {err}");
        let dup_kind =
            "{\"kind\":\"cycle_end\",\"kind\":\"cycle_start\",\"tag\":0,\"level\":0,\"value\":0}";
        let err = parse_jsonl(dup_kind).unwrap_err();
        assert!(err.contains("duplicate field \"kind\""), "got: {err}");
    }

    #[test]
    fn jsonl_parser_rejects_trailing_garbage() {
        let ok = "{\"kind\":\"cycle_end\",\"tag\":0,\"level\":0,\"value\":7}";
        assert_eq!(parse_jsonl(ok).unwrap().len(), 1);
        // Two concatenated objects start with '{' and end with '}' — they
        // must still be rejected, not parsed as the first object.
        let glued = format!("{ok}{ok}");
        let err = parse_jsonl(&glued).unwrap_err();
        assert!(err.contains("trailing garbage"), "got: {err}");
        let trailing = format!("{ok} x");
        assert!(parse_jsonl(&trailing).is_err());
        // Unknown fields and non-string keys are rejected too.
        let unknown = "{\"kind\":\"cycle_end\",\"tag\":0,\"level\":0,\"value\":0,\"extra\":1}";
        assert!(parse_jsonl(unknown).unwrap_err().contains("unknown field"));
        let bare_key = "{kind:\"cycle_end\",\"tag\":0,\"level\":0,\"value\":0}";
        assert!(parse_jsonl(bare_key).is_err());
    }

    #[test]
    fn csv_export_shape() {
        let mut r = EventRing::new(4);
        r.push(Event::new(EventKind::CycleEnd, 7, 0, 3));
        let csv = r.export_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(lines.next(), Some("cycle_end,7,0,3"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn metrics_recorder_accumulates_and_resets_without_freeing() {
        let mut m = MetricsRecorder::with_trace(8);
        m.run_start(3);
        m.cycle_start(0, 10);
        m.wire_claims(0, 1, 5, 2, 1);
        m.wire_claims(0, 2, 7, 0, 0);
        m.channel_load(1, 3, 4);
        m.lambda_site(1, 9, 4);
        m.lambda_site(2, 1, 4);
        m.bucket_split(2, 100, 2);
        m.matching_stage(0, 32, 30, 3, 30);
        m.cycle_end(0, 10);

        assert_eq!(m.cycles, 1);
        assert_eq!(m.total_claimed(), 12);
        assert_eq!(m.total_blocked(), 2);
        assert_eq!(m.total_wasted(), 1);
        assert_eq!(m.hottest_level(), Some(1));
        assert!((m.lambda_max() - 2.25).abs() < 1e-12);
        assert_eq!(m.splits[2], 1);
        assert_eq!(m.stages[0].runs, 1);
        assert_eq!(m.stages[0].matched, 30);
        assert!(!m.ring.is_empty());
        let json = m.to_json();
        assert!(json.contains("\"cycles\":1"));
        assert!(json.contains("\"blocked\":[0,2,0,0]"));

        let levels = m.claimed.len();
        let cap = m.claimed.capacity();
        m.reset();
        assert_eq!(m.cycles, 0);
        assert_eq!(m.total_claimed(), 0);
        assert_eq!(m.claimed.len(), levels, "reset must keep level tables");
        assert_eq!(m.claimed.capacity(), cap, "reset must not free");
        assert!(m.ring.is_empty());
    }

    #[test]
    fn stream_ingest_accumulates_per_family() {
        let mut m = MetricsRecorder::new();
        m.stream_ingest("permutation", 1024);
        m.stream_ingest("bursty", 4096);
        m.stream_ingest("permutation", 512);
        assert_eq!(
            m.stream_families,
            vec![("permutation", 2, 1536), ("bursty", 1, 4096)]
        );
        assert!(m.render_streams().contains("permutation"));
        let json = m.to_json();
        assert!(json.contains("\"stream_ingest\":[{\"family\":\"permutation\",\"runs\":2,\"messages\":1536},{\"family\":\"bursty\",\"runs\":1,\"messages\":4096}]"), "got: {json}");
        m.reset();
        assert!(m.stream_families.is_empty());
        assert!(m.to_json().contains("\"stream_ingest\":[]"));
    }

    #[test]
    fn engine_phases_sum_in_declared_order_and_reset() {
        let mut rec = MetricsRecorder::new();
        assert_eq!(rec.render_phases(), "");
        for (k, &p) in EnginePhase::ALL.iter().enumerate() {
            assert_eq!(p as usize, k, "ALL must list phases in declaration order");
            rec.engine_phase(p, 10 * (k as u64 + 1));
            rec.engine_phase(p, 1);
        }
        assert_eq!(rec.phase_ns, [11, 21, 31, 41, 51, 61, 71, 81]);
        assert!(rec
            .to_json()
            .contains("\"phases\":{\"ingest_ns\":11,\"source_sort_ns\":21,"));
        assert!(rec.render_phases().contains("down_sweep"));
        rec.reset();
        assert_eq!(rec.phase_ns, [0; 8]);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::default();
        h.record_ratio(0, 8); // bucket 0
        h.record_ratio(7, 8); // bucket 7
        h.record_ratio(8, 8); // full -> bucket 7
        h.record_ratio(12, 8); // overloaded -> bucket 7
        h.record_ratio(1, 0); // cap 0 counts as full
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[7], 4);
        assert_eq!(h.total(), 5);

        let mut s = Histogram::default();
        s.record_log2(0); // bucket 0
        s.record_log2(1); // bucket 0
        s.record_log2(2); // bucket 1
        s.record_log2(255); // bucket 7
        s.record_log2(1 << 20); // saturates to bucket 7
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[7], 2);
        assert_eq!(s.render(), "2/1/0/0/0/0/0/2");
    }

    #[test]
    fn latency_histogram_records_and_extracts() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for ns in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max_ns, 1_000_000);
        assert_eq!(h.sum_ns, 1_001_106);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[6], 1); // 100
        assert_eq!(h.buckets[9], 1); // 1000
        assert_eq!(h.buckets[19], 1); // 1_000_000
                                      // Rank-4 of 7 sorted values is 3 (bucket 1, floor 2).
        assert_eq!(h.p50(), 2);
        // q >= 1 returns the exact maximum, not a bucket floor.
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.mean_ns(), 1_001_106 / 7);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max_ns, 0);
    }

    #[test]
    fn latency_histogram_merge_equals_union() {
        let (mut a, mut b, mut u) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for ns in [5u64, 80, 3000] {
            a.record(ns);
            u.record(ns);
        }
        for ns in [1u64, 80, 1 << 40] {
            b.record(ns);
            u.record(ns);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn atomic_latency_histogram_snapshot_matches_plain() {
        let atomic = AtomicLatencyHistogram::new();
        let mut plain = LatencyHistogram::new();
        for ns in [0u64, 7, 129, 129, 65_536] {
            atomic.record(ns);
            plain.record(ns);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn latency_json_buckets_are_sparse() {
        let mut h = LatencyHistogram::new();
        h.record(1);
        h.record(1024);
        h.record(1024);
        assert_eq!(h.to_json_buckets(), "[[0,1],[10,2]]");
        assert_eq!(LatencyHistogram::new().to_json_buckets(), "[]");
    }

    #[test]
    fn noop_recorder_is_disabled() {
        const { assert!(!NoopRecorder::ENABLED) };
        const { assert!(MetricsRecorder::ENABLED) };
        // Hooks are callable and inert.
        let mut n = NoopRecorder;
        n.run_start(5);
        n.cycle_start(0, 1);
        n.wire_claims(0, 1, 1, 1, 1);
        n.cycle_end(0, 1);
    }
}
