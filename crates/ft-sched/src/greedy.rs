//! A first-fit greedy scheduler (baseline for ablation A2).
//!
//! Not from the paper: it assigns each message to the earliest delivery
//! cycle whose capacity constraints it does not violate, opening a new cycle
//! when none fits. Messages are considered longest-path-first, which helps
//! the packing. Greedy gives no 2λ·lg n guarantee — experiment A2 measures
//! how it compares with the matching-and-tracing scheduler in practice.

use crate::schedule::Schedule;
use ft_core::{path_len, route::for_each_path_channel, ChannelId, FatTree, Message, MessageSet};
use std::collections::HashMap;

/// The channel loads of every open cycle, stored only for the channels
/// its messages use: memory follows the paths placed, not cycles × `n`.
#[derive(Default)]
pub(crate) struct CycleLoads(HashMap<(u32, u32), u64>);

impl CycleLoads {
    /// `load(c)` in cycle `k`.
    pub(crate) fn get(&self, k: usize, c: ChannelId) -> u64 {
        self.0
            .get(&(k as u32, c.index() as u32))
            .copied()
            .unwrap_or(0)
    }

    /// Add `l` messages to channel `c` in cycle `k`.
    pub(crate) fn add(&mut self, k: usize, c: ChannelId, l: u64) {
        *self.0.entry((k as u32, c.index() as u32)).or_insert(0) += l;
    }
}

/// Schedule `m` on `ft` by first-fit decreasing.
pub fn schedule_greedy(ft: &FatTree, m: &MessageSet) -> Schedule {
    let mut msgs: Vec<Message> = m.iter().copied().collect();
    msgs.sort_by_key(|msg| std::cmp::Reverse(path_len(ft, msg)));

    let mut cycles: Vec<MessageSet> = Vec::new();
    let mut loads = CycleLoads::default();
    for msg in msgs {
        let k = (0..cycles.len())
            .find(|&k| fits(ft, &loads, k, &msg))
            .unwrap_or_else(|| {
                cycles.push(MessageSet::new());
                cycles.len() - 1
            });
        for_each_path_channel(ft, &msg, |c| loads.add(k, c, 1));
        cycles[k].push(msg);
    }
    Schedule::from_cycles(cycles)
}

/// Would adding `msg` to cycle `k` keep every channel within capacity?
/// The walk starts at the leaves and stops at the first full channel.
fn fits(ft: &FatTree, loads: &CycleLoads, k: usize, msg: &Message) -> bool {
    let (mut u, mut v) = (ft.leaf(msg.src), ft.leaf(msg.dst));
    while u != v {
        let (up, down) = (ChannelId::up(u), ChannelId::down(v));
        if loads.get(k, up) >= ft.cap(up) || loads.get(k, down) >= ft.cap(down) {
            return false;
        }
        u >>= 1;
        v >>= 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::CapacityProfile;

    #[test]
    fn greedy_is_valid_and_meets_lower_bound() {
        let n = 32u32;
        let t = FatTree::universal(n, 8);
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let s = schedule_greedy(&t, &m);
        s.validate(&t, &m).unwrap();
        let lam = ft_core::load_factor(&t, &m);
        assert!(s.num_cycles() as f64 >= lam.ceil() - 1e-9);
    }

    #[test]
    fn greedy_packs_one_cycle_set_into_one_cycle() {
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::FullDoubling);
        let m: MessageSet = (0..n).map(|i| Message::new(i, n - 1 - i)).collect();
        let s = schedule_greedy(&t, &m);
        s.validate(&t, &m).unwrap();
        assert_eq!(s.num_cycles(), 1, "λ = 1 set should fit in a single cycle");
    }

    #[test]
    fn greedy_empty() {
        let t = FatTree::new(4, CapacityProfile::Constant(1));
        let s = schedule_greedy(&t, &MessageSet::new());
        assert_eq!(s.num_cycles(), 0);
    }

    #[test]
    fn greedy_handles_local_messages() {
        let t = FatTree::new(8, CapacityProfile::Constant(1));
        let m: MessageSet = (0..8).map(|i| Message::new(i, i)).collect();
        let s = schedule_greedy(&t, &m);
        s.validate(&t, &m).unwrap();
        assert_eq!(s.num_cycles(), 1);
    }
}
