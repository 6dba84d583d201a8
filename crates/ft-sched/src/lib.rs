//! # ft-sched — delivery-cycle scheduling for fat-trees
//!
//! Implements §III of Leiserson's fat-tree paper and the on-line extension
//! sketched in §VI:
//!
//! * [`split`] — the **matching-and-tracing even splitter**: partitions a set
//!   of messages crossing a node into two halves whose loads differ by at
//!   most one on *every* channel (the engine of Theorem 1, reminiscent of
//!   Beneš switch setting and Euler-tour routing),
//! * [`arena`] — the flat, buffer-reusing [`SchedArena`] engine the Theorem-1
//!   pipeline runs on: one-pass bucketing by permutation, in-place index
//!   refinement, sort-free matching, and deterministic scoped-thread fan-out,
//! * [`offline`] — **Theorem 1**: any message set `M` can be scheduled
//!   off-line in `d ≤ 2·λ(M)·⌈lg n⌉` delivery cycles,
//! * [`bigcap`] — **Corollary 2**: when every capacity is at least `a·lg n`,
//!   `d ≤ 2·(a/(a−1))·λ(M)` cycles (fictitious capacities + partition reuse),
//! * [`greedy`] — a first-fit baseline scheduler (ours, for ablation A2),
//! * [`online`] — the randomized on-line delivery-cycle process the paper
//!   attributes to \[8\] (Greenberg–Leiserson): retry until delivered, with
//!   congested concentrators dropping random excess messages,
//! * [`reference`] — the original clone-based Theorem 1 scheduler and
//!   on-line router, retained
//!   verbatim as the golden reference for the incremental one in
//!   [`offline`].
//!
//! All schedulers produce a [`Schedule`], a partition of the input multiset
//! into *one-cycle message sets* (load ≤ capacity on every channel).

pub mod arena;
pub mod bigcap;
pub mod compress;
pub mod greedy;
pub mod offline;
pub mod online;
pub mod reference;
pub mod schedule;
pub mod split;
#[cfg(test)]
mod topology;

pub use arena::SchedArena;
pub use bigcap::schedule_bigcap;
pub use compress::compress_schedule;
pub use greedy::schedule_greedy;
pub use offline::{schedule_theorem1, schedule_theorem1_threads, Theorem1Stats};
pub use online::{route_online, OnlineArena, OnlineConfig, OnlineResult};
pub use schedule::Schedule;
pub use split::{split_even, CrossDirection};
