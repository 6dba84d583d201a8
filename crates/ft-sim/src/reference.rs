//! The retained reference delivery-cycle engine.
//!
//! This is the original HashMap-grouping implementation of [`crate::engine`],
//! kept verbatim as the *golden reference*: the flat-array engine must
//! produce byte-identical [`CycleReport`]s and [`RunReport`]s (see
//! `tests/golden_engine.rs`). It is deliberately simple — per-port groups
//! are built with hash maps and every cycle allocates fresh state — which
//! makes it easy to audit against §II of the paper but slow; the frozen
//! `BENCH_engine.json` records the gap.
//!
//! Do not "optimize" this module. Its value is that it stays dumb.

use crate::engine::{Arbitration, CycleReport, RunReport, SimConfig};
use crate::node::PortSwitch;
use ft_core::rng::splitmix64;
use ft_core::{ChannelId, FatTree, LoadMap, Message, MessageSet};
use std::collections::HashMap;

/// Simulate one delivery cycle of `msgs` on `ft` (reference implementation).
pub fn simulate_cycle_reference(ft: &FatTree, msgs: &[Message], cfg: &SimConfig) -> CycleReport {
    let mut ports: HashMap<(usize, usize), PortSwitch> = HashMap::new();
    // Per-channel effective capacities under the fault pattern, memoized.
    let mut eff_cache: HashMap<usize, u64> = HashMap::new();
    let mut eff = |c: ChannelId| -> u64 {
        *eff_cache
            .entry(c.index())
            .or_insert_with(|| cfg.faults.effective_cap(ft, c))
    };

    // Per-message state: current wire index on its current channel, or
    // dropped. Messages with src == dst are delivered without the network.
    let n_msgs = msgs.len();
    let mut alive: Vec<bool> = vec![true; n_msgs];
    let mut wire: Vec<u32> = vec![0; n_msgs];
    let mut channel_use = LoadMap::zeros(ft);

    // --- Injection: each processor assigns its messages to leaf up-wires.
    let mut per_leaf: HashMap<u32, u32> = HashMap::new();
    for (i, m) in msgs.iter().enumerate() {
        if m.is_local() {
            continue;
        }
        let leaf_cap = eff(ChannelId::up(ft.leaf(m.src))) as u32;
        let cnt = per_leaf.entry(m.src.0).or_insert(0);
        if *cnt < leaf_cap {
            wire[i] = *cnt;
            *cnt += 1;
            channel_use.add_one(ChannelId::up(ft.leaf(m.src)));
        } else {
            alive[i] = false; // source port congested immediately
        }
    }

    // Precompute per-message path metadata.
    let lca: Vec<u32> = msgs.iter().map(|m| ft.lca(m.src, m.dst)).collect();

    // --- Up phase: walk "node levels" from deepest to the root.
    let height = ft.height();
    for node_level in (0..height).rev() {
        // Messages entering nodes at this level from below, still climbing.
        // Group by (node, port = Up): inputs are left child wires [0, capc)
        // and right child wires [capc, 2capc).
        let capc = ft.cap_at_level(node_level + 1) as usize;
        let cap_out = ft.cap_at_level(node_level) as usize;
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, m) in msgs.iter().enumerate() {
            if !alive[i] || m.is_local() {
                continue;
            }
            let lca_level = 31 - lca[i].leading_zeros();
            if lca_level >= node_level {
                continue; // already turned around (or turning at this node)
            }
            let node = ancestor_at_level(ft.leaf(msgs[i].src), height, node_level);
            groups.entry(node).or_default().push(i);
        }
        for (node, group) in groups {
            // Stable input slots: left child messages first.
            let mut slots: Vec<(usize, usize)> = group
                .iter()
                .map(|&i| {
                    let child = ancestor_at_level(ft.leaf(msgs[i].src), height, node_level + 1);
                    let is_right = child == 2 * node + 1;
                    (i, usize::from(is_right) * capc + wire[i] as usize)
                })
                .collect();
            order_slots(&mut slots, cfg.arbitration);
            let active: Vec<usize> = slots.iter().map(|&(_, s)| s).collect();
            let sw = ports
                .entry((2 * capc, cap_out))
                .or_insert_with(|| PortSwitch::new(cfg.switch, 2 * capc, cap_out));
            let routed = sw.concentrate(&active);
            let eff_up = eff(ChannelId::up(node));
            for ((i, _), out) in slots.into_iter().zip(routed) {
                match out {
                    Some(w) if (w as u64) < eff_up => {
                        wire[i] = w;
                        channel_use.add_one(ChannelId::up(node));
                    }
                    _ => alive[i] = false,
                }
            }
        }
    }

    // --- Down phase: from node level 0 (root) to the leaves.
    for node_level in 0..height {
        let cap_in_parent = ft.cap_at_level(node_level) as usize;
        let cap_side = ft.cap_at_level(node_level + 1) as usize;
        // Port input slots: from parent [0, cap_in_parent), from sibling
        // side (turning messages) [cap_in_parent, cap_in_parent + cap_side).
        let mut groups: HashMap<(u32, bool), Vec<usize>> = HashMap::new();
        for (i, m) in msgs.iter().enumerate() {
            if !alive[i] || m.is_local() {
                continue;
            }
            let lca_level = 31 - lca[i].leading_zeros();
            if lca_level > node_level {
                continue; // hasn't turned yet at this depth
            }
            let node = ancestor_at_level(ft.leaf(m.dst), height, node_level);
            let down_child = ancestor_at_level(ft.leaf(m.dst), height, node_level + 1);
            let goes_right = down_child == 2 * node + 1;
            groups.entry((node, goes_right)).or_default().push(i);
        }
        for ((node, goes_right), group) in groups {
            let down_child = 2 * node + u32::from(goes_right);
            let mut slots: Vec<(usize, usize)> = group
                .iter()
                .map(|&i| {
                    let lca_level = 31 - lca[i].leading_zeros();
                    let slot = if lca_level == node_level {
                        // Turning at this node: came up from the other child.
                        cap_in_parent + wire[i] as usize
                    } else {
                        wire[i] as usize
                    };
                    (i, slot)
                })
                .collect();
            order_slots(&mut slots, cfg.arbitration);
            let active: Vec<usize> = slots.iter().map(|&(_, s)| s).collect();
            let sw = ports
                .entry((cap_in_parent + cap_side, cap_side))
                .or_insert_with(|| PortSwitch::new(cfg.switch, cap_in_parent + cap_side, cap_side));
            let routed = sw.concentrate(&active);
            let eff_down = eff(ChannelId::down(down_child));
            for ((i, _), out) in slots.into_iter().zip(routed) {
                match out {
                    Some(w) if (w as u64) < eff_down => {
                        wire[i] = w;
                        channel_use.add_one(ChannelId::down(down_child));
                    }
                    _ => alive[i] = false,
                }
            }
        }
    }

    // --- Bookkeeping.
    let mut delivered = Vec::new();
    let mut dropped = Vec::new();
    let mut max_latency = 0u32;
    for (i, m) in msgs.iter().enumerate() {
        if m.is_local() {
            delivered.push(i);
            continue;
        }
        if alive[i] {
            delivered.push(i);
            let lca_level = 31 - lca[i].leading_zeros();
            let nodes_on_path = 2 * (height - lca_level) - 1;
            max_latency = max_latency.max(2 * nodes_on_path + cfg.payload_bits);
        } else {
            dropped.push(i);
        }
    }

    CycleReport {
        delivered,
        dropped,
        ticks: max_latency,
        channel_use,
    }
}

/// Run repeated delivery cycles until every message is delivered
/// (reference implementation).
pub fn run_to_completion_reference(ft: &FatTree, msgs: &MessageSet, cfg: &SimConfig) -> RunReport {
    let mut pending: Vec<Message> = msgs.iter().copied().collect();
    let mut ids: Vec<usize> = (0..pending.len()).collect();
    let mut cycles = 0usize;
    let mut delivered_per_cycle = Vec::new();
    let mut delivery_order = Vec::with_capacity(pending.len());
    let mut total_ticks = 0u64;
    while !pending.is_empty() {
        // Reseed random arbitration every cycle so drops are independent.
        let mut cycle_cfg = *cfg;
        if let Arbitration::Random(seed) = cfg.arbitration {
            cycle_cfg.arbitration = Arbitration::Random(
                seed.wrapping_add(cycles as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
        }
        let report = simulate_cycle_reference(ft, &pending, &cycle_cfg);
        assert!(
            !report.delivered.is_empty(),
            "no progress in a delivery cycle — switch cannot route even one message"
        );
        cycles += 1;
        delivered_per_cycle.push(report.delivered.len());
        delivery_order.extend(report.delivered.iter().map(|&i| ids[i]));
        total_ticks += report.ticks as u64;
        let keep: std::collections::HashSet<usize> = report.dropped.iter().copied().collect();
        (pending, ids) = pending
            .into_iter()
            .zip(ids)
            .enumerate()
            .filter_map(|(i, pair)| keep.contains(&i).then_some(pair))
            .unzip();
    }
    RunReport {
        cycles,
        delivered_per_cycle,
        total_ticks,
        delivery_order,
    }
}

/// Order a port's contenders by the arbitration policy (stable sort, exactly
/// as the original engine did).
fn order_slots(slots: &mut [(usize, usize)], arb: Arbitration) {
    match arb {
        Arbitration::SlotOrder => slots.sort_by_key(|&(_, s)| s),
        Arbitration::Random(seed) => {
            slots.sort_by_key(|&(i, s)| {
                (
                    splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    s,
                )
            });
        }
    }
}

/// Heap ancestor of `leaf` at `level` (`leaf` is at `height`).
#[inline]
fn ancestor_at_level(leaf: u32, height: u32, level: u32) -> u32 {
    leaf >> (height - level)
}
