//! Corollary 2 (§III): when every channel capacity is at least `a·lg n` for
//! some `a > 1`, any message set can be scheduled in
//! `d ≤ 2·(a/(a−1))·λ(M)` delivery cycles — the `lg n` factor of Theorem 1
//! disappears.
//!
//! The trick: define *fictitious capacities* `cap′(c) = cap(c) − lg n`,
//! compute `λ′(M) ≤ (a/(a−1))·λ(M)`, and partition `M` into
//! `r = 2^⌈lg λ′⌉ ≤ 2λ′` parts by applying the even splitter at **every**
//! node but reusing the same `r` global buckets throughout the recursion.
//! Each channel then receives at most `⌈load(M,c)/r⌉ + lg n` messages per
//! bucket — the even split is exact per node, and the ±1 rounding error
//! accumulates at most once per tree level. The real capacities absorb the
//! `lg n` error, so every bucket is a one-cycle message set.

use crate::arena::SchedArena;
use crate::schedule::Schedule;
use crate::split::{is_under, CrossDirection};
use ft_core::{lg, FatTree, LevelLoads, Message, MessageSet};

/// Result details from [`schedule_bigcap`].
#[derive(Clone, Debug)]
pub struct BigcapStats {
    /// λ(M) with the true capacities.
    pub load_factor: f64,
    /// λ′(M) with the fictitious capacities `cap − lg n`.
    pub fictitious_load_factor: f64,
    /// Number of buckets `r` used (a power of two).
    pub buckets: usize,
}

/// Schedule `m` on `ft` per Corollary 2.
///
/// # Errors
/// Returns `Err` if some channel capacity is not strictly greater than
/// `lg n` (the corollary needs `cap(c) ≥ a·lg n` with `a > 1`; we only
/// require the fictitious capacities to stay positive, which is the exact
/// precondition the construction needs).
pub fn schedule_bigcap(ft: &FatTree, m: &MessageSet) -> Result<(Schedule, BigcapStats), String> {
    let lgn = lg(ft.n() as u64) as u64;
    for k in 0..=ft.height() {
        if ft.cap_at_level(k) <= lgn {
            return Err(format!(
                "Corollary 2 precondition violated: cap at level {k} is {} ≤ lg n = {lgn}",
                ft.cap_at_level(k)
            ));
        }
    }

    let loads = LevelLoads::of(ft, m);
    let lam = loads.load_factor(ft);
    // λ′ with fictitious capacities.
    let fict: Vec<u64> = ft.level_caps().iter().map(|&c| c - lgn).collect();
    let lam_fict = loads.factor(&fict);

    // r = smallest power of two ≥ λ′, at least 1; then every bucket's load on
    // channel c is ≤ ⌈load(M,c)/r⌉ + (lg n − 1) ≤ cap′(c) + lg n = cap(c).
    let r = (lam_fict.ceil().max(1.0) as u64).next_power_of_two() as usize;

    let mut buckets: Vec<MessageSet> = vec![MessageSet::new(); r];

    // Bucket messages by LCA; distribute local messages round-robin.
    let n = ft.n();
    let mut by_lca: Vec<Vec<Message>> = vec![Vec::new(); (2 * n) as usize];
    let mut rr = 0usize;
    for msg in m {
        if msg.is_local() {
            buckets[rr].push(*msg);
            rr = (rr + 1) % r;
        } else {
            by_lca[ft.lca(msg.src, msg.dst) as usize].push(*msg);
        }
    }

    // The r-way distribution runs on a SchedArena: one set of splitter
    // buffers serves every node instead of fresh mate/trace vectors per
    // recursion level.
    let mut arena = SchedArena::new(ft);
    for node in 1..n {
        let q = std::mem::take(&mut by_lca[node as usize]);
        if q.is_empty() {
            continue;
        }
        let (lr, rl): (Vec<Message>, Vec<Message>) = q
            .into_iter()
            .partition(|msg| is_under(ft.leaf(msg.src), 2 * node));
        for (dir, msgs) in [
            (CrossDirection::LeftToRight, lr),
            (CrossDirection::RightToLeft, rl),
        ] {
            if msgs.is_empty() {
                continue;
            }
            let (order, part_ends) = arena.distribute_pow2(ft, node, &msgs, dir, r);
            let mut start = 0usize;
            for (bucket, &end) in buckets.iter_mut().zip(part_ends) {
                for &p in &order[start..end as usize] {
                    bucket.push(msgs[p as usize]);
                }
                start = end as usize;
            }
        }
    }

    let schedule = Schedule::from_cycles(buckets);
    let stats = BigcapStats {
        load_factor: lam,
        fictitious_load_factor: lam_fict,
        buckets: r,
    };
    Ok((schedule, stats))
}

/// The Corollary 2 bound `2·(a/(a−1))·λ(M)` for a tree whose minimum
/// capacity is `a·lg n` (with `a` inferred from the tree).
pub fn corollary2_bound(ft: &FatTree, load_factor: f64) -> f64 {
    let lgn = lg(ft.n() as u64) as f64;
    let min_cap = ft.level_caps().iter().copied().min().unwrap_or(1) as f64;
    let a = (min_cap / lgn).max(1.0 + 1e-9);
    2.0 * (a / (a - 1.0)) * load_factor.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::CapacityProfile;

    fn big_tree(n: u32, a: u64) -> FatTree {
        let cap = a * lg(n as u64) as u64;
        FatTree::new(n, CapacityProfile::Constant(cap))
    }

    #[test]
    fn rejects_small_capacities() {
        let t = FatTree::new(16, CapacityProfile::Constant(2));
        let m: MessageSet = (0..16).map(|i| Message::new(i, 15 - i)).collect();
        assert!(schedule_bigcap(&t, &m).is_err());
    }

    #[test]
    fn one_bucket_when_load_small() {
        let n = 64u32;
        let t = big_tree(n, 4); // cap = 24 everywhere
        let m: MessageSet = (0..16).map(|i| Message::new(i, i + 16)).collect();
        let (s, stats) = schedule_bigcap(&t, &m).unwrap();
        s.validate(&t, &m).unwrap();
        assert_eq!(stats.buckets, 1);
        assert_eq!(s.num_cycles(), 1);
    }

    #[test]
    fn heavy_relation_respects_corollary_bound() {
        let n = 64u32;
        let a = 3u64;
        let t = big_tree(n, a);
        // 16 copies of the bit-complement permutation: heavy root load.
        let mut msgs = Vec::new();
        for _ in 0..16 {
            for i in 0..n {
                msgs.push(Message::new(i, n - 1 - i));
            }
        }
        let m = MessageSet::from_vec(msgs);
        let (s, stats) = schedule_bigcap(&t, &m).unwrap();
        s.validate(&t, &m).unwrap();
        let bound = corollary2_bound(&t, stats.load_factor);
        assert!(
            (s.num_cycles() as f64) <= bound.ceil(),
            "d = {} exceeds Corollary 2 bound {bound:.2}",
            s.num_cycles()
        );
    }

    #[test]
    fn validates_on_universal_tree_with_big_root() {
        // Universal tree with capacities all > lg n: need a large w and small n.
        let n = 16u32;
        let t = FatTree::new(n, CapacityProfile::PerLevel(vec![64, 48, 32, 16, 8]));
        let mut msgs = Vec::new();
        for rep in 0..6 {
            for i in 0..n {
                msgs.push(Message::new(i, (i + 1 + rep) % n));
            }
        }
        let m = MessageSet::from_vec(msgs);
        let (s, stats) = schedule_bigcap(&t, &m).unwrap();
        s.validate(&t, &m).unwrap();
        assert!(stats.fictitious_load_factor >= stats.load_factor);
    }

    #[test]
    fn locals_distributed() {
        let n = 16u32;
        let t = big_tree(n, 2);
        let mut msgs: Vec<Message> = (0..n).map(|i| Message::new(i, i)).collect();
        for rep in 0..8 {
            for i in 0..n {
                msgs.push(Message::new(i, (i + 3 + rep) % n));
            }
        }
        let m = MessageSet::from_vec(msgs);
        let (s, _) = schedule_bigcap(&t, &m).unwrap();
        s.validate(&t, &m).unwrap();
    }
}
