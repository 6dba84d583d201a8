//! # ft-sim — cycle-level bit-serial simulation of fat-tree routing
//!
//! §II of the paper fixes an "engineering design": synchronous, bit-serial
//! communication batched into *delivery cycles*; messages snake through the
//! tree with leading bits establishing a path (Fig. 2); each node contains
//! three selector + concentrator switch blocks (Fig. 3); messages lost to
//! congestion are negatively acknowledged and retried in later cycles.
//!
//! This crate simulates exactly that machine:
//!
//! * [`protocol`] — the bit-serial message frame: M bit, address bits
//!   (≤ 2·lg n), then data (Fig. 2), with encode/decode over real buffers,
//! * [`node`] — the switching node (Fig. 3): per output port a selector
//!   (route on the current address bit) feeding a concentrator; both ideal
//!   crossbars and Pippenger partial concentrators plug in,
//! * [`engine`] — delivery-cycle execution: wormhole path establishment in
//!   level order, per-port concentration, drops, acknowledgments, retries,
//!   and tick-accurate cycle times (`O(lg n)` per cycle, Theorem 12 of our
//!   experiment index E12). The engine groups port contenders in flat
//!   arrays and reuses every scratch buffer across cycles through
//!   [`SimArena`],
//! * [`reference`] — the original HashMap-grouping engine, retained verbatim
//!   as the golden reference the flat-array engine is tested against,
//! * [`stats`] — utilization and delivery statistics.

pub mod compiled;
pub mod engine;
pub mod faults;
pub mod node;
pub mod protocol;
pub mod reference;
pub mod stats;
#[cfg(test)]
mod topology;

pub use compiled::{compile_cycle, execute_compiled, CompiledCycle, CompiledRun};
pub use engine::{
    run_stream_to_completion, run_stream_to_completion_with, run_to_completion,
    run_to_completion_with, simulate_cycle, Arbitration, CycleReport, CycleStats, MetaWidth,
    RunReport, ShardClaim, SimArena, SimConfig, SwitchKind, MAX_MESSAGES,
};
pub use faults::FaultModel;
pub use protocol::MessageFrame;
pub use stats::ChannelUtilization;
