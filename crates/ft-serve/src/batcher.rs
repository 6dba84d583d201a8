//! The batcher's decisions as a state machine. [`ServeCore`] opens a
//! batch with an arrival, adds arrivals while the batch has room, carries
//! one that does not fit into the next batch, aims the window's timed
//! wait, computes the closed batch, steers the admission limit by the
//! pass's λ, keeps the run's batch tallies and decides the `max_requests`
//! stop. It owns no thread, socket, lock or atomic and reads no clock:
//! every method that needs the time takes `now`. The server's batcher
//! thread drives it on wall time ([`crate::server`]); the tests here drive
//! it on virtual instants.

use crate::core::{BatchBuf, ReqTiming, ServeCompute};
use crate::metrics::LambdaBudget;
use crate::proto::{Engine, ReqView};
use crate::server::{ServerConfig, ServerStats};
use ft_telemetry::NoopRecorder;
use std::ops::Range;
use std::time::{Duration, Instant};

/// λ above which [`steer`] halves the in-flight limit.
const STEER_LAMBDA: f64 = 4.0;

/// One request a reader decoded and validated, on its way to the batcher:
/// its header, the frame it came in, its connection and its stamps.
pub(crate) struct Admit {
    pub conn: u16,
    pub seq: u32,
    pub req_id: u64,
    pub engine: Engine,
    pub seed: u64,
    /// The frame as read; the request's message words are `words[msgs]`.
    pub words: Vec<u64>,
    pub msgs: Range<usize>,
    /// The reader's stamps (all 0 when metrics are off); the core fills
    /// in `admitted_ns`.
    pub timing: ReqTiming,
}

/// What the batcher thread does next.
#[derive(Debug, PartialEq)]
pub(crate) enum Next {
    /// No batch is open: wait for an arrival.
    Idle,
    /// Wait at most this long for an arrival; if none comes, report
    /// [`ServeCore::timed_out`].
    Wait(Duration),
    /// Close the open batch now: [`ServeCore::close`].
    Close,
}

pub(crate) struct ServeCore {
    cfg: ServerConfig,
    /// The metrics hub's epoch, when admissions are stamped.
    epoch: Option<Instant>,
    compute: ServeCompute,
    batch: BatchBuf,
    /// When the open batch's window ends; `None` while no batch is open.
    deadline: Option<Instant>,
    /// An arrival the open batch had no room for; it opens the next one.
    carry: Option<Admit>,
    /// Where the last timed wait was aimed.
    aimed: Option<Instant>,
    /// How late timed waits wake (see [`learn`]).
    late: Duration,
    limit: usize,
    /// The run's batch figures; the readers' counters stay 0.
    stats: ServerStats,
}

impl ServeCore {
    /// The core for `cfg`; `epoch` (the hub's) turns admission stamps on.
    pub fn new(cfg: &ServerConfig, epoch: Option<Instant>) -> Self {
        ServeCore {
            cfg: cfg.clone(),
            epoch,
            compute: ServeCompute::new(cfg.n, cfg.w, cfg.slots),
            batch: BatchBuf::new(),
            deadline: None,
            carry: None,
            aimed: None,
            late: Duration::ZERO,
            limit: cfg.inflight.max(1),
            stats: ServerStats::default(),
        }
    }

    /// The open batch, or the one just closed.
    pub fn batch(&self) -> &BatchBuf {
        &self.batch
    }

    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// True once `max_requests` (if not 0) requests have been computed.
    pub fn stopping(&self) -> bool {
        let max = self.cfg.max_requests;
        max > 0 && self.stats.served >= max
    }

    /// Decide the next step at `now`. A carried arrival opens a batch
    /// here; an open batch closes once it carries an arrival or what is
    /// left of its window is within the timer's lateness.
    pub fn next(&mut self, now: Instant) -> Next {
        if self.deadline.is_none() {
            match self.carry.take() {
                Some(a) => self.open(now, a),
                None => return Next::Idle,
            }
        }
        let left = self
            .deadline
            .map_or(Duration::ZERO, |d| d.saturating_duration_since(now));
        match aim(left, self.late) {
            Some(wait) if self.carry.is_none() => {
                self.aimed = Some(now + wait);
                Next::Wait(wait)
            }
            _ => Next::Close,
        }
    }

    /// An arrival at `now`: it opens a batch, joins the open one, or, when
    /// the open one has no room, is carried into the next.
    pub fn admit(&mut self, now: Instant, a: Admit) {
        if self.deadline.is_none() {
            self.open(now, a);
        } else if self.batch.has_room(a.engine, self.cfg.slots) {
            self.push(now, a);
        } else {
            self.carry = Some(a);
        }
    }

    /// The timed wait [`Next::Wait`] asked for ran out at `now`.
    pub fn timed_out(&mut self, now: Instant) {
        if let Some(aimed) = self.aimed.take() {
            let over = now.saturating_duration_since(aimed);
            let window = Duration::from_micros(self.cfg.window_us);
            self.late = learn(self.late, over, window);
        }
    }

    /// Close the open batch and compute it, steer the limit by the pass's
    /// λ and fold the batch into the tallies. Returns the λ-budget
    /// generation the batcher thread publishes.
    pub fn close(&mut self) -> LambdaBudget {
        let lam = self.compute.run(&mut self.batch, &mut NoopRecorder);
        let width = self.batch.len() as u64;
        self.deadline = None;
        let (slots, ceiling) = (self.cfg.slots as usize, self.cfg.inflight.max(1));
        self.limit = steer(self.limit, lam, slots, ceiling);
        let s = &mut self.stats;
        s.served += width;
        s.batches += 1;
        s.batch_max = s.batch_max.max(width);
        s.batch_mean_x1000 = s.served * 1000 / s.batches;
        s.lambda_max = s.lambda_max.max(lam);
        LambdaBudget {
            limit: self.limit as u64,
            lambda_max: s.lambda_max,
            last_batch: width,
            batches: s.batches,
        }
    }

    /// Encode the closed batch's responses, for the batcher thread to send.
    pub fn encode(&mut self) -> &BatchBuf {
        self.batch.encode_responses();
        &self.batch
    }

    fn open(&mut self, now: Instant, a: Admit) {
        self.batch.reset();
        self.deadline = Some(now + Duration::from_micros(self.cfg.window_us));
        self.push(now, a);
    }

    fn push(&mut self, now: Instant, a: Admit) {
        let req = ReqView {
            req_id: a.req_id,
            engine: a.engine,
            seed: a.seed,
            msgs: &a.words[a.msgs.clone()],
        };
        self.batch
            .admit(a.conn, a.seq, &req, self.cfg.n)
            .expect("readers pass on only requests whose leaves they checked");
        if let Some(epoch) = self.epoch {
            // Pushed iff the request is in the batch, so `timings[i]`
            // describes the same request as `spans()[i]` after encoding.
            let admitted_ns = now.saturating_duration_since(epoch).as_nanos() as u64;
            let t = ReqTiming {
                admitted_ns,
                ..a.timing
            };
            self.batch.timings.push(t);
        }
    }
}

/// The timed wait for a batch with `left` of its window to go, aimed
/// `late` early; `None` closes the batch now.
pub(crate) fn aim(left: Duration, late: Duration) -> Option<Duration> {
    left.checked_sub(late).filter(|w| !w.is_zero())
}

/// Move the timer's lateness estimate halfway toward a timed-out wait's
/// overshoot `over`, at most half the `window`.
pub(crate) fn learn(late: Duration, over: Duration, window: Duration) -> Duration {
    ((late + over) / 2).min(window / 2)
}

/// The admission limit after a pass of λ `lam`: high λ halves `cur`, but
/// not below `slots`; a calm pass grows it, but not above `ceiling`.
fn steer(cur: usize, lam: f64, slots: usize, ceiling: usize) -> usize {
    if lam > STEER_LAMBDA {
        (cur / 2).max(slots)
    } else {
        (cur + 1 + cur / 8).min(ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::rng::SplitMix64;

    const WINDOW: Duration = Duration::from_micros(200);

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// The serve tests' shape: 64 leaves, 4 slots, a 200 µs window, 64 in
    /// flight; admissions stamped from `base`, the virtual clock's zero.
    fn core(max_requests: u64, base: Instant) -> ServeCore {
        let cfg = ServerConfig {
            n: 64,
            w: 16,
            slots: 4,
            window_us: 200,
            inflight: 64,
            max_requests,
            ..ServerConfig::default()
        };
        ServeCore::new(&cfg, Some(base))
    }

    /// A request of 16 messages from leaves 0..16: a seeded shift (calm),
    /// or, when `hot`, all from leaves 1..=16 into leaf 0, whose one-wire
    /// channel then carries λ = 16.
    fn req(rng: &mut SplitMix64, seq: u32, engine: Engine, hot: bool) -> Admit {
        let shift = rng.next_u64() % 64;
        // Two stand-in header words ahead of the message words.
        let mut words = vec![0; 2];
        words.extend((0..16u64).map(|i| match hot {
            true => (i + 1) << 32,
            false => (i << 32) | ((i + shift) % 64),
        }));
        Admit {
            conn: 1,
            seq,
            req_id: seq as u64,
            engine,
            seed: rng.next_u64(),
            msgs: 2..words.len(),
            words,
            timing: ReqTiming {
                rid: seq as u64,
                engine,
                msgs: 16,
                recv_ns: 0,
                decoded_ns: 0,
                admitted_ns: 0,
            },
        }
    }

    /// Close and answer the open batch: `(width, λ_max so far)`.
    fn close(c: &mut ServeCore) -> (u64, f64) {
        let b = c.close();
        assert_eq!(c.encode().spans().len() as u64, b.last_batch);
        (b.last_batch, b.lambda_max)
    }

    #[test]
    fn a_virtual_clock_drives_every_batching_decision() {
        let mut rng = SplitMix64::seed_from_u64(1985);
        let base = Instant::now();
        let at = |t: u64| base + us(t);
        let mut c = core(0, base);
        let mut seq = 0;
        let mut next_req = |rng: &mut SplitMix64, engine, hot| {
            seq += 1;
            req(rng, seq, engine, hot)
        };
        assert_eq!(c.next(at(0)), Next::Idle);

        // A lone request waits its whole window while the timer is on time.
        // Each wait wakes 58 µs past its aim; the core learns half of each
        // overshoot, so later lone batches aim earlier and close nearer
        // their window: opened at 1 000·k, they wake at +258, +229, +214.5.
        let mut late = Duration::ZERO;
        for (k, (wait, woke)) in [(200_000, 258_000), (171_000, 229_000), (156_500, 214_500)]
            .into_iter()
            .enumerate()
        {
            let t0 = at(1_000 * (k as u64 + 1));
            c.admit(t0, next_req(&mut rng, Engine::Schedule, false));
            assert_eq!(c.next(t0), Next::Wait(Duration::from_nanos(wait)));
            let t = t0 + Duration::from_nanos(woke);
            c.timed_out(t);
            late = learn(late, us(58), WINDOW);
            assert_eq!(c.late, late);
            assert_eq!(c.next(t), Next::Close, "lone batch {k}");
            assert_eq!(close(&mut c).0, 1);
            let admitted = c.batch().timings[0].admitted_ns;
            assert_eq!(admitted, 1_000_000 * (k as u64 + 1));
            assert_eq!(c.next(t), Next::Idle);
        }

        // Slots: four schedule requests fill the batch, on-line requests
        // do not count against it, and the fifth schedule request closes
        // it and is carried into the next batch, which it opens.
        let t0 = at(10_000);
        for (i, engine) in [Engine::Schedule, Engine::Online, Engine::Schedule]
            .into_iter()
            .chain([Engine::Online, Engine::Schedule, Engine::Online])
            .chain([Engine::Schedule])
            .enumerate()
        {
            let t = t0 + us(i as u64);
            c.admit(t, next_req(&mut rng, engine, false));
            assert!(matches!(c.next(t), Next::Wait(_)), "arrival {i}");
        }
        assert_eq!(c.batch().len(), 7);
        c.admit(t0 + us(7), next_req(&mut rng, Engine::Online, false));
        assert!(matches!(c.next(t0 + us(7)), Next::Wait(_)));
        c.admit(t0 + us(8), next_req(&mut rng, Engine::Schedule, false));
        assert_eq!(c.next(t0 + us(8)), Next::Close);
        assert_eq!(close(&mut c).0, 8);
        let t1 = t0 + us(30);
        assert_eq!(c.next(t1), Next::Wait(WINDOW - late));
        assert_eq!(c.batch().len(), 1);
        assert_eq!(c.deadline, Some(t1 + WINDOW));
        c.timed_out(t1 + WINDOW);
        assert_eq!(c.next(t1 + WINDOW), Next::Close);
        assert_eq!(close(&mut c).0, 1);

        // Steering: every hot pass (λ = 16 > 4) halves the limit down to
        // the 4 slots and no further; calm passes grow it by an eighth
        // plus one back to the 64-request ceiling and no further.
        assert_eq!(c.limit, 64);
        let mut limits = Vec::new();
        for (k, hot) in [true; 5].into_iter().chain([false; 16]).enumerate() {
            let t = at(20_000 + 1_000 * k as u64);
            c.admit(t, next_req(&mut rng, Engine::Schedule, hot));
            assert_eq!(close(&mut c).1, 16.0, "λ_max after pass {k}");
            limits.push(c.limit);
        }
        assert_eq!(
            limits,
            [32, 16, 8, 4, 4, 5, 6, 7, 8, 10, 12, 14, 16, 19, 22, 25, 29, 33, 38, 43, 49]
        );
        for _ in 0..10 {
            c.admit(at(50_000), next_req(&mut rng, Engine::Schedule, false));
            close(&mut c);
        }
        assert_eq!(c.limit, 64);

        let t = c.stats();
        assert_eq!((t.batches, t.served, t.batch_max), (36, 43, 8));
        assert_eq!(t.batch_mean_x1000, 43_000 / 36);
        assert_eq!(t.lambda_max, 16.0);
        assert!(!c.stopping());
    }

    #[test]
    fn max_requests_stops_once_that_many_are_computed() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let base = Instant::now();
        let mut c = core(3, base);
        for seq in 0..2 {
            c.admit(base, req(&mut rng, seq, Engine::Schedule, false));
        }
        close(&mut c);
        assert!(!c.stopping());
        c.admit(base + WINDOW, req(&mut rng, 2, Engine::Online, false));
        close(&mut c);
        assert!(c.stopping());
    }
}
