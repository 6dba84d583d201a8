//! Schedules: partitions of a message set into one-cycle message sets
//! (§III, "A schedule of a message set M is a partition of M into one-cycle
//! message sets M₁, M₂, …, M_d").

use ft_core::{FatTree, LoadMap, LoadTally, MessageSet};

/// A schedule: an ordered list of delivery cycles, each a one-cycle message
/// set. Produced by the schedulers in this crate.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    cycles: Vec<MessageSet>,
}

impl Schedule {
    /// An empty schedule (valid only for the empty message set).
    pub fn new() -> Self {
        Schedule { cycles: Vec::new() }
    }

    /// Wrap existing cycles.
    pub fn from_cycles(cycles: Vec<MessageSet>) -> Self {
        Schedule { cycles }
    }

    /// Number of delivery cycles `d`.
    #[inline]
    pub fn num_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// The cycles, in delivery order.
    #[inline]
    pub fn cycles(&self) -> &[MessageSet] {
        &self.cycles
    }

    /// Append a delivery cycle.
    pub fn push_cycle(&mut self, c: MessageSet) {
        self.cycles.push(c);
    }

    /// Consume the schedule into its cycles.
    pub fn into_cycles(self) -> Vec<MessageSet> {
        self.cycles
    }

    /// Total number of messages across all cycles.
    pub fn total_messages(&self) -> usize {
        self.cycles.iter().map(|c| c.len()).sum()
    }

    /// Check that this schedule is a *valid* schedule of `original` on `ft`:
    /// every cycle is a one-cycle message set, and the cycles partition the
    /// original multiset exactly.
    ///
    /// One [`LoadTally`] counts every cycle (no per-cycle allocation; a
    /// one-message cycle costs `O(lg n)`). Never panics: a message with an
    /// endpoint outside `ft` is an `Err` naming its cycle.
    pub fn validate(&self, ft: &FatTree, original: &MessageSet) -> Result<(), String> {
        let n = ft.n();
        let mut tally = LoadTally::new(ft);
        for (i, cyc) in self.cycles.iter().enumerate() {
            if let Some(m) = cyc.iter().find(|m| m.src.0 >= n || m.dst.0 >= n) {
                return Err(format!(
                    "cycle {i} holds {m}, which has an endpoint outside the {n}-leaf tree"
                ));
            }
            if !tally.count(cyc).is_one_cycle(ft) {
                // Only to name the channel: the path walk's first heaviest.
                let lm = LoadMap::of(ft, cyc);
                let (c, f) = lm.argmax_factor(ft).expect("an overloaded cycle has loads");
                return Err(format!(
                    "cycle {i} is not one-cycle: channel {c} has load factor {f:.3}"
                ));
            }
        }
        let mut got: Vec<_> = self.cycles.iter().flat_map(|c| c.iter().copied()).collect();
        got.sort_unstable_by_key(|m| (m.src.0, m.dst.0));
        let want = original.sorted();
        if got != want {
            return Err(format!(
                "schedule does not partition the input: {} messages scheduled, {} expected",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }

    /// The maximum load factor over the cycles (≤ 1 for a valid schedule).
    pub fn max_cycle_load_factor(&self, ft: &FatTree) -> f64 {
        let mut tally = LoadTally::new(ft);
        self.cycles
            .iter()
            .map(|c| tally.count(c).load_factor(ft))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::rng::SplitMix64;
    use ft_core::{CapacityProfile, Message};

    fn ft() -> FatTree {
        FatTree::new(8, CapacityProfile::Constant(1))
    }

    #[test]
    fn empty_schedule_validates_empty_set() {
        let t = ft();
        let s = Schedule::new();
        assert!(s.validate(&t, &MessageSet::new()).is_ok());
        assert_eq!(s.num_cycles(), 0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn detects_overloaded_cycle() {
        let t = ft();
        // Two messages sharing the up channel from leaf 0's edge: overload cap 1.
        let cyc = MessageSet::from_vec(vec![Message::new(0, 5), Message::new(0, 6)]);
        let s = Schedule::from_cycles(vec![cyc.clone()]);
        let err = s.validate(&t, &cyc).unwrap_err();
        assert_eq!(
            err,
            "cycle 0 is not one-cycle: channel c2↑ has load factor 2.000"
        );
    }

    /// The overload error names the channel the per-channel path walk
    /// ranks first: the largest factor, first in enumeration order.
    #[test]
    fn overload_errors_name_the_path_walks_heaviest_channel() {
        let mut rng = SplitMix64::seed_from_u64(0x5CED);
        let trees = [
            FatTree::new(8, CapacityProfile::Constant(1)),
            FatTree::new(16, CapacityProfile::Constant(3)),
            FatTree::new(32, CapacityProfile::FullDoubling),
            FatTree::universal(64, 16),
        ];
        let mut overloaded = 0;
        for t in &trees {
            let n = t.n();
            for _ in 0..100 {
                let cycles: Vec<MessageSet> = (0..3)
                    .map(|_| {
                        let len = rng.gen_range(0..n as usize);
                        (0..len)
                            .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
                            .collect()
                    })
                    .collect();
                let mut orig = MessageSet::new();
                cycles.iter().for_each(|c| orig.extend_from(c));
                let want = cycles.iter().enumerate().find_map(|(i, cyc)| {
                    let lm = LoadMap::of(t, cyc);
                    (!lm.is_one_cycle(t)).then(|| {
                        let (c, f) = lm.argmax_factor(t).unwrap();
                        format!("cycle {i} is not one-cycle: channel {c} has load factor {f:.3}")
                    })
                });
                overloaded += want.is_some() as usize;
                let got = Schedule::from_cycles(cycles).validate(t, &orig);
                assert_eq!(got, want.map_or(Ok(()), Err), "n={n}");
            }
        }
        assert!(overloaded > 100, "only {overloaded} overloaded cases");
    }

    #[test]
    fn detects_a_duplicate_standing_in_for_a_dropped_message() {
        let t = FatTree::new(8, CapacityProfile::Constant(4));
        let (a, b, c) = (Message::new(0, 5), Message::new(1, 6), Message::new(2, 2));
        let orig = MessageSet::from_vec(vec![a, b, c]);
        for cycles in [
            vec![vec![a, a, c]],
            vec![vec![a], vec![c, a]],
            vec![vec![b, c, c]],
        ] {
            let s = Schedule::from_cycles(cycles.into_iter().map(MessageSet::from_vec).collect());
            assert_eq!(
                s.validate(&t, &orig).unwrap_err(),
                "schedule does not partition the input: 3 messages scheduled, 3 expected"
            );
        }
    }

    #[test]
    fn detects_a_changed_destination() {
        let t = FatTree::new(8, CapacityProfile::Constant(4));
        let orig = MessageSet::from_vec(vec![Message::new(0, 5), Message::new(1, 6)]);
        let s = Schedule::from_cycles(vec![MessageSet::from_vec(vec![
            Message::new(1, 6),
            Message::new(0, 4),
        ])]);
        let err = s.validate(&t, &orig).unwrap_err();
        assert!(err.contains("does not partition"), "{err}");
        // The same messages in another order and cycle split are valid.
        let s = Schedule::from_cycles(vec![
            MessageSet::from_vec(vec![Message::new(1, 6)]),
            MessageSet::from_vec(vec![Message::new(0, 5)]),
        ]);
        assert_eq!(s.validate(&t, &orig), Ok(()));
    }

    #[test]
    fn endpoint_outside_the_tree_is_an_error_not_a_panic() {
        let t = ft();
        let out = Message::new(0, 8);
        let ok = MessageSet::from_vec(vec![Message::new(0, 5)]);
        let bad = MessageSet::from_vec(vec![Message::new(1, 2), out]);
        let s = Schedule::from_cycles(vec![ok.clone(), bad.clone()]);
        let mut orig = ok.clone();
        orig.extend_from(&bad);
        assert_eq!(
            s.validate(&t, &orig).unwrap_err(),
            "cycle 1 holds P0→P8, which has an endpoint outside the 8-leaf tree"
        );
        // In the original only: the cycles cannot hold it, so they do not
        // partition it.
        let s = Schedule::from_cycles(vec![ok.clone()]);
        let orig = MessageSet::from_vec(vec![out]);
        assert_eq!(
            s.validate(&t, &orig).unwrap_err(),
            "schedule does not partition the input: 1 messages scheduled, 1 expected"
        );
    }

    #[test]
    fn detects_missing_messages() {
        let t = ft();
        let orig = MessageSet::from_vec(vec![Message::new(0, 5), Message::new(1, 6)]);
        let s = Schedule::from_cycles(vec![MessageSet::from_vec(vec![Message::new(0, 5)])]);
        let err = s.validate(&t, &orig).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn valid_two_cycle_schedule() {
        let t = ft();
        let orig = MessageSet::from_vec(vec![Message::new(0, 5), Message::new(1, 5)]);
        // Both target leaf 5: its down channel has cap 1, so two cycles.
        let s = Schedule::from_cycles(vec![
            MessageSet::from_vec(vec![Message::new(0, 5)]),
            MessageSet::from_vec(vec![Message::new(1, 5)]),
        ]);
        assert!(s.validate(&t, &orig).is_ok());
        assert!(s.max_cycle_load_factor(&t) <= 1.0);
    }
}
