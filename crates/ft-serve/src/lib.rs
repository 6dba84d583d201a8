//! # ft-serve — the streaming scheduler service
//!
//! Turns the arenas into a long-running service: many concurrent clients
//! submit routing requests over [`ft_shard::wire`]'s length-prefixed
//! checksummed frames, small requests arriving within a batching window
//! coalesce into one shared [`SchedArena`] pass over a *graft tree* (the
//! solo capacity profile replicated under unloaded top levels — see
//! [`core`]'s module docs for the byte-identity argument), and responses
//! demultiplex word-for-word identical to solo runs.
//!
//! The crate splits the service into three layers:
//!
//! * [`proto`] — serve payload codecs over the shard frame kinds
//!   (`Hello`/`HelloAck`/`Req`/`Resp`/`Busy`);
//! * [`core`] — pooled [`BatchBuf`] + [`ServeCompute`]: the zero-alloc
//!   decode → coalesce → schedule → demux → encode loop, plus the solo
//!   oracles (`solo_schedule_frame` / `solo_online_frame`) the golden
//!   tests and `bench-client --verify` compare against;
//! * [`server`] / [`client`] — the TCP shell: one batcher thread driving
//!   the clock-free `ServeCore` (`batcher`), which closes, computes and
//!   steers each batch, and the load-generating bench client
//!   (`ftsim serve` / `ftsim bench-client`);
//! * [`metrics`] — the live observability hub (request spans, stage
//!   latency histograms, the seqlock λ-budget block) and the scrape
//!   listener behind `ftsim serve --metrics-addr`.
//!
//! [`SchedArena`]: ft_sched::SchedArena
//! [`BatchBuf`]: core::BatchBuf
//! [`ServeCompute`]: core::ServeCompute

mod batcher;
pub mod client;
pub mod core;
pub mod metrics;
pub mod proto;
pub mod server;

pub use crate::core::{BatchBuf, ServeCompute};
pub use client::{bench, BenchConfig, BenchMode, BenchResult};
pub use metrics::{http_get, spawn_metrics_listener, MetricsListener, MetricsSource, ServeMetrics};
pub use proto::{Engine, ServeError, SERVE_PROTO_VERSION};
pub use server::{spawn, ServerConfig, ServerHandle, ServerStats};
