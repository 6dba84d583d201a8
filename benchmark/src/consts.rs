//! Every tunable of the benchmark, in one file. The command line selects
//! only *what* to run (`--workload`, `--seed`, `--seconds`, `--trace`);
//! slice counts, block sizes, percentiles and input shapes are constants
//! here so two invocations always measure the same thing.

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1985;
/// Measuring time per workload when `--seconds` is absent (matches
/// `run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// A run is cut into this many slices, each a fresh child process that
/// sets up from scratch: ten set-ups per run for `setup_s`, and samples
/// that pool over fresh heaps, thread placements and sockets.
pub const SLICES: usize = 10;
/// A `--trace 1` run gives the selected workload this many slices of the
/// same length, alternating untraced and traced, and spends the rest of
/// its time on the probes: its metrics are not gated, and the run must
/// cost no more than an untraced one.
pub const TRACED_SLICES: usize = 4;
/// Distinct inputs a batch workload times, derived from `--seed`; op `i`
/// of slice `k` runs input `(k + i) % POOL`, so `POOL` consecutive ops run
/// every input once.
pub const POOL: usize = 8;
/// Inputs of a batch workload the parent verifies against the reference
/// before anything is timed: the `POOL` timed ones and more from the same
/// seed sequence. `cycles` is their mean. A 2-relation at these sizes needs
/// 13 ± 1 delivery cycles, so the mean of 8 moves 5–6 % from seed to seed
/// and the mean of 64 about 2 %.
pub const VERIFIED: usize = 64;
/// Length of the traced probe slice a `--trace 1` run gives each layer
/// group the selected workload does not exercise itself.
pub const PROBE_MS: u64 = 600;
/// A child that has not finished this long after its slice should have
/// ended is killed and the run fails.
pub const CHILD_GRACE_MS: u64 = 60_000;

/// Gated latency statistic: this percentile of per-op wall time, taken per
/// pool input and averaged over the inputs, so every input is gated.
/// Interference on a shared host only ever subtracts speed, so the fast end
/// is the part of the distribution the program under test controls. The
/// 2nd, not the 10th, percentile: the neighbours of the validation host are
/// busy in bursts that often leave less than a tenth of a run untouched,
/// and across identical runs the 10th percentile moved 2-3 times as far as
/// the 2nd (README). A batch workload has 200+ ops per input and run, so
/// the statistic rests on each input's 4th-6th fastest op.
pub const LAT_PCT: f64 = 2.0;
/// Gated throughput statistic: this percentile of block rates (the fast
/// end again). A batch block is `POOL` ops, every input once, so the rate
/// is sustained over the whole pool and no single op sets it.
pub const RATE_PCT: f64 = 98.0;
/// `setup_s` is this percentile of the per-slice set-up times.
pub const SETUP_PCT: f64 = 25.0;

/// Completions per throughput block (≈ 40–90 ms of work each): one pass
/// over the pool for the batch workloads.
pub const BLOCK_BATCH: usize = POOL;
pub const BLOCK_SERVE_CLOSED: usize = 64;
pub const BLOCK_SERVE_PIPELINED: usize = 512;

/// Untimed ops before the timed window (≥ 10): arenas reach steady-state
/// capacity, the server's pools fill, page faults of fresh heap are paid.
/// No longer than that: a set-up of 0.1 s meets fewer of the host's bursts
/// than one of 0.5 s, and `setup_s` repeats accordingly.
pub const WARMUP_SIM_STREAM: usize = 10;
pub const WARMUP_SCHED_BATCH: usize = 10;
pub const WARMUP_SHARD_RUN: usize = 10;
pub const WARMUP_SERVE_CLOSED: usize = 200;
pub const WARMUP_SERVE_PIPELINED: usize = 500; // per connection

/// `sim_stream`: leaves of the simulated tree (root capacity n/4).
pub const SIM_N: u32 = 1 << 13;
/// `sched_batch`: leaves for the two Theorem-1 jobs and the on-line job.
pub const SCHED_N: u32 = 1 << 12;
pub const SCHED_ONLINE_N: u32 = 1 << 14;
/// `sched_batch`: hot destinations of the hot-spot job.
pub const SCHED_HOT: u32 = 4;
/// `sched_batch`: the generalized topology scheduled through `Embedded`.
pub const SCHED_TOPOLOGY: &str = "kary:k=24,over=2";
/// `shard_run`: leaves and in-process shards (= `nproc` of the validation
/// host, so no oversubscription).
pub const SHARD_N: u32 = 1 << 13;
pub const SHARDS: u32 = 2;
/// Both serve workloads: messages per request, connections × depth of the
/// pipelined mode (8 in flight = the server's `slots`, so the λ-steered
/// admission limit can never answer `Busy`), distinct requests per
/// connection.
pub const SERVE_MSGS: usize = 64;
pub const SERVE_PIPE_CONNS: usize = 2;
pub const SERVE_PIPE_DEPTH: usize = 4;
pub const SERVE_REQ_POOL: usize = 1024;
/// Streamed headline run of the traced pass (`sim.run_2e20_ms`).
pub const BIG_N: u32 = 1 << 20;
pub const BIG_RUNS: usize = 2;

/// Iterations of the fixed ALU loop behind `host.ref_kernel_spread`
/// (≈ 0.6 ms on the validation host).
pub const REF_KERNEL_ITERS: u64 = 400_000;
/// Round trips of the loopback echo behind `host.loopback_rtt_us`.
pub const LOOPBACK_ROUNDS: usize = 300;
