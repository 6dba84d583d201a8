//! Store-and-forward delivery simulation for fixed-connection networks.
//!
//! Measures the time `t` a network `R` needs to deliver a message set `M` —
//! the left-hand side of Theorem 10's comparison. Each directed link moves
//! at most `link_capacity` messages per step; messages follow the network's
//! deterministic route; contention is resolved in random order per step
//! (oblivious FIFO-with-random-tiebreak, the standard neutral model).

use crate::traits::FixedConnectionNetwork;
use ft_core::rng::SplitMix64;
use ft_core::MessageSet;
use ft_telemetry::{NoopRecorder, Recorder};
use std::collections::HashMap;

/// Result of a delivery simulation.
#[derive(Clone, Debug)]
pub struct DeliveryOutcome {
    /// Steps until the last message arrived.
    pub steps: usize,
    /// Number of messages delivered (always all of them; the process is
    /// deadlock-free since buffers are unbounded).
    pub delivered: usize,
    /// Total hop-traversals performed (network work).
    pub total_hops: usize,
}

/// Simulate delivering `msgs` on `net`. `link_capacity` is the number of
/// messages a directed link carries per step (1 = unit-bandwidth wires).
pub fn simulate_delivery(
    net: &dyn FixedConnectionNetwork,
    msgs: &MessageSet,
    link_capacity: usize,
    rng: &mut SplitMix64,
) -> DeliveryOutcome {
    simulate_delivery_with(net, msgs, link_capacity, rng, &mut NoopRecorder)
}

/// [`simulate_delivery`] with a telemetry [`Recorder`] observing the run:
/// [`Recorder::cycle_start`] / [`Recorder::cycle_end`] per step and one
/// [`Recorder::channel_load`] per used directed link per step (baseline
/// networks have no channel levels, so links report as level 0). With a
/// [`NoopRecorder`] this is exactly [`simulate_delivery`].
pub fn simulate_delivery_with<R: Recorder>(
    net: &dyn FixedConnectionNetwork,
    msgs: &MessageSet,
    link_capacity: usize,
    rng: &mut SplitMix64,
    rec: &mut R,
) -> DeliveryOutcome {
    assert!(link_capacity >= 1);
    // Precompute paths as hop lists: message `i` crosses the directed links
    // `hops[first[i]..first[i + 1]]`, each link named by a dense id given
    // on first sight, so a step counts link use in a flat table. Messages
    // already at their destination have no hops and are delivered at t=0.
    let mut link_id: HashMap<(usize, usize), u32> = HashMap::new();
    let mut hops: Vec<u32> = Vec::new();
    let mut first: Vec<usize> = Vec::with_capacity(msgs.len() + 1);
    for m in msgs {
        let s = m.src.idx();
        let d = m.dst.idx();
        assert!(
            s < net.n() && d < net.n(),
            "message endpoints outside network"
        );
        first.push(hops.len());
        for link in net.route(s, d).windows(2) {
            let next = link_id.len() as u32;
            hops.push(*link_id.entry((link[0], link[1])).or_insert(next));
        }
    }
    first.push(hops.len());
    let mut pos: Vec<usize> = first[..msgs.len()].to_vec(); // index into hops
    let mut live: Vec<usize> = (0..msgs.len())
        .filter(|&i| first[i] < first[i + 1])
        .collect();

    let mut steps = 0usize;
    let mut total_hops = 0usize;
    // Messages each link carried this step; `touched` lists the links
    // with a nonzero count, in first-use order, so a reset is O(touched).
    let mut used: Vec<u32> = vec![0; link_id.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut still: Vec<usize> = Vec::with_capacity(live.len());
    while !live.is_empty() {
        if R::ENABLED {
            rec.cycle_start(steps as u32, live.len() as u32);
        }
        steps += 1;
        rng.shuffle(&mut live);
        still.clear();
        for &i in &live {
            let link = hops[pos[i]];
            let u = &mut used[link as usize];
            if *u == 0 {
                touched.push(link);
            }
            if (*u as usize) < link_capacity {
                *u += 1;
                pos[i] += 1;
                total_hops += 1;
                if pos[i] < first[i + 1] {
                    still.push(i);
                }
            } else {
                still.push(i);
            }
        }
        if R::ENABLED {
            for &link in &touched {
                rec.channel_load(0, used[link as usize] as u64, link_capacity as u64);
            }
            rec.cycle_end(steps as u32 - 1, (live.len() - still.len()) as u32);
        }
        for link in touched.drain(..) {
            used[link as usize] = 0;
        }
        std::mem::swap(&mut live, &mut still);
        debug_assert!(steps <= 1_000_000, "delivery stuck");
    }

    DeliveryOutcome {
        steps,
        delivered: msgs.len(),
        total_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::Hypercube;
    use crate::mesh::Mesh2D;
    use ft_core::Message;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(99)
    }

    #[test]
    fn empty_set_zero_steps() {
        let h = Hypercube::new(3);
        let out = simulate_delivery(&h, &MessageSet::new(), 1, &mut rng());
        assert_eq!(out.steps, 0);
        assert_eq!(out.total_hops, 0);
    }

    #[test]
    fn local_messages_take_no_time() {
        let h = Hypercube::new(3);
        let m: MessageSet = (0..8).map(|i| Message::new(i, i)).collect();
        let out = simulate_delivery(&h, &m, 1, &mut rng());
        assert_eq!(out.steps, 0);
        assert_eq!(out.delivered, 8);
    }

    #[test]
    fn single_message_takes_path_length() {
        let m2 = Mesh2D::square(16);
        let m: MessageSet = [Message::new(0, 15)].into_iter().collect();
        let out = simulate_delivery(&m2, &m, 1, &mut rng());
        assert_eq!(out.steps, 6); // Manhattan distance in a 4×4 mesh
        assert_eq!(out.total_hops, 6);
    }

    #[test]
    fn congestion_serializes() {
        // All processors of a 4×4 mesh send to corner 0: the two final
        // links into 0 carry everything, so steps ≥ (n−1)/2.
        let m2 = Mesh2D::square(16);
        let m: MessageSet = (1..16).map(|i| Message::new(i, 0)).collect();
        let out = simulate_delivery(&m2, &m, 1, &mut rng());
        assert!(
            out.steps >= 7,
            "steps {} too small for a hotspot",
            out.steps
        );
        assert_eq!(out.delivered, 15);
    }

    #[test]
    fn higher_link_capacity_is_faster() {
        let m2 = Mesh2D::square(64);
        let msgs: MessageSet = (1..64).map(|i| Message::new(i, 0)).collect();
        let slow = simulate_delivery(&m2, &msgs, 1, &mut rng());
        let fast = simulate_delivery(&m2, &msgs, 4, &mut rng());
        assert!(fast.steps <= slow.steps);
        assert_eq!(fast.total_hops, slow.total_hops);
    }

    #[test]
    fn recorder_does_not_change_outcome_and_accounts_every_delivery() {
        use ft_telemetry::MetricsRecorder;
        let m2 = Mesh2D::square(16);
        let m: MessageSet = (1..16).map(|i| Message::new(i, 0)).collect();
        let plain = simulate_delivery(&m2, &m, 1, &mut rng());
        let mut rec = MetricsRecorder::new();
        let traced = simulate_delivery_with(&m2, &m, 1, &mut rng(), &mut rec);
        assert_eq!(plain.steps, traced.steps);
        assert_eq!(plain.total_hops, traced.total_hops);
        assert_eq!(rec.cycles as usize, traced.steps);
        // Every non-local message retires in exactly one step.
        assert_eq!(rec.total_delivered(), 15);
        // Links report as level 0; a hotspot must saturate some of them.
        assert!(rec.load_hist[0].total() > 0);
        assert!(
            rec.load_hist[0].buckets[7] > 0,
            "no saturated link at a hotspot"
        );
    }

    /// The per-step map the dense link ids replaced: every live message
    /// looks its next link up by `(here, next)`. Returns `(steps, hops)`.
    fn hashed_delivery(
        net: &dyn FixedConnectionNetwork,
        msgs: &MessageSet,
        cap: usize,
        rng: &mut SplitMix64,
    ) -> (usize, usize) {
        let paths: Vec<Vec<usize>> = msgs
            .iter()
            .map(|m| net.route(m.src.idx(), m.dst.idx()))
            .collect();
        let mut pos = vec![0; paths.len()];
        let mut live: Vec<usize> = (0..paths.len()).filter(|&i| paths[i].len() > 1).collect();
        let (mut steps, mut hops) = (0, 0);
        while !live.is_empty() {
            steps += 1;
            rng.shuffle(&mut live);
            let mut used: HashMap<(usize, usize), usize> = HashMap::new();
            let mut still = Vec::new();
            for &i in &live {
                let u = used
                    .entry((paths[i][pos[i]], paths[i][pos[i] + 1]))
                    .or_insert(0);
                if *u < cap {
                    (*u, pos[i], hops) = (*u + 1, pos[i] + 1, hops + 1);
                    if pos[i] + 1 < paths[i].len() {
                        still.push(i);
                    }
                } else {
                    still.push(i);
                }
            }
            live = still;
        }
        (steps, hops)
    }

    #[test]
    fn dense_link_ids_decide_as_the_per_step_map() {
        let nets: [Box<dyn FixedConnectionNetwork>; 2] =
            [Box::new(Hypercube::new(7)), Box::new(Mesh2D::square(64))];
        for net in &nets {
            let n = net.n() as u32;
            let m: MessageSet = (0..4 * n)
                .map(|i| Message::new(i % n, (i * 37 + 11) % n))
                .collect();
            for cap in [1, 2] {
                let out = simulate_delivery(net.as_ref(), &m, cap, &mut rng());
                let oracle = hashed_delivery(net.as_ref(), &m, cap, &mut rng());
                assert_eq!((out.steps, out.total_hops), oracle);
            }
        }
    }

    #[test]
    fn random_permutation_on_hypercube_is_fast() {
        let h = Hypercube::new(6);
        let n = 64u32;
        let m: MessageSet = (0..n).map(|i| Message::new(i, (i * 37 + 11) % n)).collect();
        let out = simulate_delivery(&h, &m, 1, &mut rng());
        assert_eq!(out.delivered, 64);
        // Dimension-order on a random-ish permutation: O(lg n) with slack.
        assert!(out.steps <= 30, "hypercube took {} steps", out.steps);
    }
}
