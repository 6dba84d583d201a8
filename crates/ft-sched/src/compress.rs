//! Schedule compression (ours; ablation A4).
//!
//! Theorem 1's level-by-level construction can leave capacity on the table:
//! cycles generated for different levels often don't share channels at all.
//! This pass greedily merges cycles whose combined loads still respect every
//! capacity — a pure post-processing step that preserves validity and never
//! lengthens the schedule. It quantifies how loose the `2·λ·lg n` analysis
//! is in practice (the theorem itself needs no merging).

use crate::greedy::CycleLoads;
use crate::schedule::Schedule;
use ft_core::{route::for_each_path_channel, FatTree, MessageSet};
use std::collections::HashMap;

/// Greedily merge compatible delivery cycles. Cycles are considered in
/// decreasing size and packed first-fit into merged slots.
///
/// The fit test inspects only the channels the candidate cycle touches
/// rather than sweeping all `4n` channels per pair: each merged slot's
/// loads already respect every capacity (the input cycles are one-cycle
/// sets), so untouched channels cannot newly overflow. The slots' loads
/// are kept only on the channels they use.
pub fn compress_schedule(ft: &FatTree, schedule: Schedule) -> Schedule {
    let mut cycles = schedule.into_cycles();
    cycles.sort_by_key(|c| std::cmp::Reverse(c.len()));

    let mut merged: Vec<MessageSet> = Vec::new();
    let mut loads = CycleLoads::default();
    let mut add = HashMap::new();
    for cyc in cycles {
        for m in &cyc {
            for_each_path_channel(ft, m, |c| *add.entry(c).or_insert(0) += 1);
        }
        // Deepest channels first: capacities grow toward the root, so a
        // full channel is usually found at the first probes.
        let mut touched: Vec<_> = add.drain().collect();
        touched.sort_unstable_by_key(|(c, _)| (std::cmp::Reverse(c.level()), c.index()));
        let k = (0..merged.len())
            .find(|&k| {
                touched
                    .iter()
                    .all(|&(c, l)| loads.get(k, c) + l <= ft.cap(c))
            })
            .unwrap_or_else(|| {
                merged.push(MessageSet::new());
                merged.len() - 1
            });
        for &(c, l) in &touched {
            loads.add(k, c, l);
        }
        merged[k].extend_from(&cyc);
    }
    Schedule::from_cycles(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::schedule_theorem1;
    use ft_core::{CapacityProfile, Message};

    #[test]
    fn compression_preserves_validity_and_never_lengthens() {
        let n = 64u32;
        let ft = FatTree::universal(n, 16);
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let msgs: MessageSet = (0..4 * n)
            .map(|_| Message::new((next() % n as u64) as u32, (next() % n as u64) as u32))
            .collect();
        let (schedule, _) = schedule_theorem1(&ft, &msgs);
        let before = schedule.num_cycles();
        let compressed = compress_schedule(&ft, schedule);
        compressed.validate(&ft, &msgs).expect("still valid");
        assert!(compressed.num_cycles() <= before);
        assert!(compressed.num_cycles() >= ft_core::cycle_lower_bound(&ft, &msgs) as usize);
    }

    #[test]
    fn disjoint_cycles_merge_to_one() {
        // Two cycles touching different subtrees merge.
        let ft = FatTree::new(8, CapacityProfile::Constant(1));
        let a: MessageSet = [Message::new(0, 1)].into_iter().collect();
        let b: MessageSet = [Message::new(4, 5)].into_iter().collect();
        let s = Schedule::from_cycles(vec![a.clone(), b.clone()]);
        let c = compress_schedule(&ft, s);
        assert_eq!(c.num_cycles(), 1);
        let mut orig = a;
        orig.extend_from(&b);
        c.validate(&ft, &orig).unwrap();
    }

    #[test]
    fn conflicting_cycles_stay_apart() {
        let ft = FatTree::new(8, CapacityProfile::Constant(1));
        let a: MessageSet = [Message::new(0, 5)].into_iter().collect();
        let b: MessageSet = [Message::new(1, 5)].into_iter().collect();
        let s = Schedule::from_cycles(vec![a, b]);
        let c = compress_schedule(&ft, s);
        assert_eq!(c.num_cycles(), 2, "both need leaf 5's down channel (cap 1)");
    }

    #[test]
    fn empty_schedule_stays_empty() {
        let ft = FatTree::new(4, CapacityProfile::Constant(1));
        let c = compress_schedule(&ft, Schedule::new());
        assert_eq!(c.num_cycles(), 0);
    }
}
