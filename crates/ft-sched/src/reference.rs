//! The retained reference Theorem 1 scheduler.
//!
//! This is the original implementation of [`crate::offline`], kept verbatim
//! as the *golden reference*: the incremental scheduler must emit identical
//! schedules (see `tests/golden_scheduler.rs`). Every feasibility check here
//! builds a fresh whole-tree [`LoadMap`] and every split clones its part —
//! easy to audit against §III, wasteful on purpose.
//!
//! Do not "optimize" this module. Its value is that it stays dumb.

use crate::offline::Theorem1Stats;
use crate::online::{OnlineConfig, OnlineResult};
use crate::schedule::Schedule;
use crate::split::{split_even_indices, CrossDirection};
use ft_core::rng::SplitMix64;
use ft_core::{FatTree, LoadMap, Message, MessageSet};

/// Schedule `m` on `ft` per Theorem 1 (reference implementation).
pub fn schedule_theorem1_reference(ft: &FatTree, m: &MessageSet) -> (Schedule, Theorem1Stats) {
    let n = ft.n();
    let height = ft.height();
    let lam = LoadMap::of(ft, m).load_factor(ft);

    // Bucket messages by LCA node; local messages consume no channels and
    // ride along in the first emitted cycle.
    let mut by_lca: Vec<Vec<Message>> = vec![Vec::new(); (2 * n) as usize];
    let mut locals: Vec<Message> = Vec::new();
    for msg in m {
        if msg.is_local() {
            locals.push(*msg);
        } else {
            by_lca[ft.lca(msg.src, msg.dst) as usize].push(*msg);
        }
    }

    let mut schedule = Schedule::new();
    let mut cycles_per_level = Vec::with_capacity(height as usize);

    for level in 0..height {
        // For every node at this level, refine each direction into one-cycle
        // parts; the level contributes max(part-count) cycles, with all
        // nodes' t-th parts merged into the t-th cycle of the level.
        let mut level_parts: Vec<Vec<Vec<Message>>> = Vec::new();
        for node in (1u32 << level)..(1u32 << (level + 1)) {
            let q = std::mem::take(&mut by_lca[node as usize]);
            if q.is_empty() {
                continue;
            }
            let (lr, rl): (Vec<Message>, Vec<Message>) = q
                .into_iter()
                .partition(|msg| crate::split::is_under(ft.leaf(msg.src), 2 * node));
            for (dir, msgs) in [
                (CrossDirection::LeftToRight, lr),
                (CrossDirection::RightToLeft, rl),
            ] {
                if msgs.is_empty() {
                    continue;
                }
                level_parts.push(refine_to_one_cycle(ft, node, msgs, dir));
            }
        }
        let level_cycles = level_parts.iter().map(|p| p.len()).max().unwrap_or(0);
        for t in 0..level_cycles {
            let mut cyc = MessageSet::new();
            for parts in &level_parts {
                if let Some(p) = parts.get(t) {
                    for msg in p {
                        cyc.push(*msg);
                    }
                }
            }
            schedule.push_cycle(cyc);
        }
        cycles_per_level.push(level_cycles);
    }

    // Attach local messages (zero load) to the first cycle, or emit a cycle
    // for them if the schedule is otherwise empty.
    if !locals.is_empty() {
        if schedule.num_cycles() == 0 {
            schedule.push_cycle(MessageSet::from_vec(locals));
        } else {
            let mut cycles = std::mem::take(&mut schedule).into_cycles();
            for msg in locals {
                cycles[0].push(msg);
            }
            schedule = Schedule::from_cycles(cycles);
        }
    }

    let stats = Theorem1Stats {
        total_cycles: schedule.num_cycles(),
        cycles_per_level,
        load_factor: lam,
    };
    (schedule, stats)
}

/// Repeatedly halve `msgs` (which all cross `node` in direction `dir`) until
/// every part is a one-cycle message set on `ft`.
fn refine_to_one_cycle(
    ft: &FatTree,
    node: u32,
    msgs: Vec<Message>,
    dir: CrossDirection,
) -> Vec<Vec<Message>> {
    let mut out = Vec::new();
    let mut stack = vec![msgs];
    while let Some(q) = stack.pop() {
        if q.is_empty() {
            continue;
        }
        let lm = LoadMap::of(ft, &MessageSet::from_vec(q.clone()));
        if lm.is_one_cycle(ft) {
            out.push(q);
        } else {
            let (a, b) = split_even_indices(ft, node, &q, dir);
            debug_assert!(
                a.len() < q.len() || !b.is_empty(),
                "split must make progress"
            );
            stack.push(b.into_iter().map(|i| q[i]).collect());
            stack.push(a.into_iter().map(|i| q[i]).collect());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// On-line routing reference
// ---------------------------------------------------------------------------

/// Run the §VI on-line delivery-cycle process (reference implementation).
///
/// This is the original clone-based `route_online` kept verbatim as the
/// golden oracle for [`crate::online::OnlineArena`]: a fresh [`LoadMap`] per
/// cycle, a survivor `Vec` per cycle, and a full-path walk per message. The
/// arena must produce byte-identical `delivered_per_cycle` for the same
/// `SplitMix64` seed (see `tests/golden_online.rs`).
/// Telemetry is not implemented here; observe the arena engine through a
/// `ft_telemetry::Recorder` instead.
pub fn route_online_reference(
    ft: &FatTree,
    m: &MessageSet,
    rng: &mut SplitMix64,
    config: OnlineConfig,
) -> OnlineResult {
    // Local messages are "delivered" in cycle 1 without using the network.
    let mut alive: Vec<Message> = m.iter().copied().filter(|m| !m.is_local()).collect();
    let locals = m.len() - alive.len();

    let mut delivered_per_cycle: Vec<usize> = Vec::new();
    let mut truncated = false;

    while !alive.is_empty() {
        if config.max_cycles != 0 && delivered_per_cycle.len() >= config.max_cycles {
            truncated = true;
            break;
        }

        // Random arbitration order for this cycle.
        rng.shuffle(&mut alive);

        let mut used = LoadMap::zeros(ft);
        let mut survivors: Vec<Message> = Vec::new();
        let mut delivered = 0usize;

        for msg in &alive {
            if try_claim_reference(ft, &mut used, msg) {
                delivered += 1;
            } else {
                survivors.push(*msg);
            }
        }

        debug_assert!(delivered > 0, "at least one message must win each cycle");
        delivered_per_cycle.push(delivered);
        alive = survivors;
    }

    if locals > 0 {
        if delivered_per_cycle.is_empty() {
            delivered_per_cycle.push(locals);
        } else {
            delivered_per_cycle[0] += locals;
        }
    }

    OnlineResult {
        cycles: delivered_per_cycle.len(),
        delivered_per_cycle,
        truncated,
    }
}

/// Attempt to claim one wire on every channel of `msg`'s path. On the first
/// congested channel the message is dropped; wires claimed so far stay
/// consumed (they were physically driven this cycle).
fn try_claim_reference(ft: &FatTree, used: &mut LoadMap, msg: &Message) -> bool {
    let mut blocked = false;
    ft_core::route::for_each_path_channel(ft, msg, |c| {
        if blocked {
            return;
        }
        if used.get(c) < ft.cap(c) {
            used.add_one(c);
        } else {
            blocked = true;
        }
    });
    !blocked
}
