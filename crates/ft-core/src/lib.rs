//! # ft-core — fat-tree routing-network core
//!
//! This crate implements the structural heart of Leiserson's fat-tree
//! (*"Fat-Trees: Universal Networks for Hardware-Efficient Supercomputing"*,
//! IEEE Trans. Computers C-34(10), 1985, §II and §IV):
//!
//! * the complete-binary-tree **topology** with processors at the leaves and
//!   switching nodes internally ([`FatTree`]),
//! * per-level **channel capacities**, including the *universal fat-tree*
//!   profile `cap(k) = min(⌈n/2^k⌉·d, ⌈w/2^(2k/3)⌉)` ([`CapacityProfile`]),
//! * **messages** and **message sets** ([`Message`], [`MessageSet`]),
//! * the unique up-to-LCA-and-down **routing paths** ([`route`]),
//! * channel **loads** and the **load factor** λ(M), the paper's central
//!   lower bound on delivery cycles ([`load`]).
//!
//! Everything downstream (scheduling, simulation, layout theory, the
//! universality pipeline) builds on these types.
//!
//! ## Conventions
//!
//! Internal switch nodes are numbered in *heap order*: the root is node 1 and
//! node `v` has children `2v` and `2v+1`. With `n = 2^L` processors, leaves
//! occupy heap slots `n..2n`, and processor `i` sits at heap slot `n + i`.
//! The *level* of a node is its distance from the root (root = level 0,
//! processors = level `L`). Every tree edge carries two directed channels
//! (up = child→parent, down = parent→child), identified by the heap index of
//! the *lower* endpoint, matching the paper's rule that a channel has "the
//! same level number as the node beneath it". Heap index 1 denotes the
//! external-interface edge above the root.

pub mod capacity;
pub mod ids;
pub mod load;
pub mod message;
pub mod rng;
pub mod route;
pub mod stream;
pub mod topology;

pub use capacity::CapacityProfile;
pub use ids::{lg, ProcId};
pub use load::{cycle_lower_bound, load_factor, GenTable, LevelLoads, LoadMap, LoadTally};
pub use message::{Message, MessageSet};
pub use rng::{splitmix64, SplitMix64};
pub use route::{path_channels, path_len};
pub use stream::{for_each_message, MessageStream, StreamIter};
pub use topology::{ChannelId, Direction, FatTree};
