//! Wire-fault injection (§VII: "problems of maintenance, fault tolerance,
//! clock distribution, and reliable power supply must be solved").
//!
//! The fat-tree's redundancy story is structural: a channel is a *bundle*
//! of interchangeable wires feeding a concentrator, so a dead wire just
//! shrinks the channel's capacity — no route recomputation, no spares
//! protocol. This module models exactly that: each wire dies independently
//! with probability `p` (deterministic per seed), a channel's effective
//! capacity is the count of surviving wires (floored at 1 so the tree stays
//! connected), and the retry machinery absorbs the rest.

use ft_core::{ChannelId, FatTree};

/// A deterministic wire-fault pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Independent death probability per wire.
    pub dead_wire_fraction: f64,
    /// Seed for the per-wire coin flips.
    pub seed: u64,
}

impl FaultModel {
    /// No faults.
    pub fn none() -> Self {
        FaultModel {
            dead_wire_fraction: 0.0,
            seed: 0,
        }
    }

    /// Can no wire die under this pattern? Then every channel's effective
    /// capacity is its level's capacity, whatever the seed.
    pub fn kills_no_wire(&self) -> bool {
        self.dead_wire_fraction <= 0.0
    }

    /// Effective capacity of channel `c`: surviving wires, at least 1
    /// (a fully-dead channel would disconnect processors; the paper's
    /// fault-tolerance question presumes a connected machine).
    pub fn effective_cap(&self, ft: &FatTree, c: ChannelId) -> u64 {
        let cap = ft.cap(c);
        if self.kills_no_wire() {
            return cap;
        }
        let mut alive = 0u64;
        for wire in 0..cap {
            if !self.wire_dead(c, wire) {
                alive += 1;
            }
        }
        alive.max(1)
    }

    /// Is `wire` of channel `c` dead under this pattern?
    pub fn wire_dead(&self, c: ChannelId, wire: u64) -> bool {
        if self.kills_no_wire() {
            return false;
        }
        let h = splitmix(self.seed ^ ((c.index() as u64) << 32) ^ wire);
        // Map to [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.dead_wire_fraction
    }

    /// Fraction of total wires dead across the whole tree (diagnostic).
    pub fn measured_fraction(&self, ft: &FatTree) -> f64 {
        let mut dead = 0u64;
        let mut total = 0u64;
        for c in ft.channels() {
            for w in 0..ft.cap(c) {
                total += 1;
                dead += u64::from(self.wire_dead(c, w));
            }
        }
        dead as f64 / total.max(1) as f64
    }
}

/// The effective capacity of every channel of one tree under one
/// [`FaultModel`]. A channel's capacity depends only on its level unless a
/// wire can die, so a healthy tree keeps the `height + 1` level capacities
/// alone; the per-channel table (one `u64` per directed channel, 32 B per
/// leaf) exists only under a pattern that can kill a wire.
pub(crate) struct EffectiveCaps {
    /// [`FatTree::level_caps`] of the tree this was built for.
    level: Vec<u64>,
    /// Per dense channel index, the surviving wires; empty when
    /// [`FaultModel::kills_no_wire`].
    table: Vec<u64>,
}

impl EffectiveCaps {
    pub(crate) fn new(ft: &FatTree, faults: &FaultModel) -> Self {
        let mut table = Vec::new();
        if !faults.kills_no_wire() {
            table.resize(ft.channel_index_bound(), 0);
            for c in ft.channels() {
                table[c.index()] = faults.effective_cap(ft, c);
            }
        }
        EffectiveCaps {
            level: ft.level_caps().to_vec(),
            table,
        }
    }

    /// Effective capacity of channel `c`, whose level is `level`:
    /// [`FaultModel::effective_cap`]. Every caller already holds the level;
    /// recomputing it from `c` read 5 % slower on a 2-relation's down sweep.
    #[inline]
    pub(crate) fn eff(&self, level: u32, c: ChannelId) -> u64 {
        debug_assert_eq!(level, c.level());
        if self.table.is_empty() {
            self.level[level as usize]
        } else {
            self.table[c.index()]
        }
    }

    /// The level capacities this was built from.
    pub(crate) fn level_caps(&self) -> &[u64] {
        &self.level
    }

    /// Are a level's channels alike, so that its first one speaks for all?
    pub(crate) fn uniform(&self) -> bool {
        self.table.is_empty()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::CapacityProfile;

    #[test]
    fn no_faults_full_capacity() {
        let ft = FatTree::universal(64, 16);
        let fm = FaultModel::none();
        for c in ft.channels() {
            assert_eq!(fm.effective_cap(&ft, c), ft.cap(c));
        }
        assert_eq!(fm.measured_fraction(&ft), 0.0);
    }

    #[test]
    fn effective_caps_match_per_channel_and_keep_a_table_only_under_faults() {
        let ft = FatTree::universal(128, 32);
        let zero = FaultModel {
            dead_wire_fraction: 0.0,
            seed: 5,
        };
        let faulty = FaultModel {
            dead_wire_fraction: 0.3,
            seed: 5,
        };
        for fm in [FaultModel::none(), zero, faulty] {
            let caps = EffectiveCaps::new(&ft, &fm);
            assert_eq!(caps.uniform(), fm.kills_no_wire());
            assert_eq!(caps.level_caps(), ft.level_caps());
            for c in ft.channels() {
                assert_eq!(caps.eff(c.level(), c), fm.effective_cap(&ft, c), "{c}");
            }
        }
    }

    #[test]
    fn fraction_tracks_probability() {
        let ft = FatTree::new(256, CapacityProfile::FullDoubling);
        let fm = FaultModel {
            dead_wire_fraction: 0.2,
            seed: 9,
        };
        let got = fm.measured_fraction(&ft);
        assert!((got - 0.2).abs() < 0.05, "measured fraction {got}");
    }

    #[test]
    fn effective_cap_never_zero() {
        let ft = FatTree::new(32, CapacityProfile::Constant(1));
        let fm = FaultModel {
            dead_wire_fraction: 0.95,
            seed: 3,
        };
        for c in ft.channels() {
            assert!(fm.effective_cap(&ft, c) >= 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ft = FatTree::universal(64, 32);
        let a = FaultModel {
            dead_wire_fraction: 0.3,
            seed: 7,
        };
        let b = FaultModel {
            dead_wire_fraction: 0.3,
            seed: 7,
        };
        let c = FaultModel {
            dead_wire_fraction: 0.3,
            seed: 8,
        };
        let caps = |fm: &FaultModel| -> Vec<u64> {
            ft.channels().map(|ch| fm.effective_cap(&ft, ch)).collect()
        };
        assert_eq!(caps(&a), caps(&b));
        assert_ne!(
            caps(&a),
            caps(&c),
            "different seeds should differ somewhere"
        );
    }
}
