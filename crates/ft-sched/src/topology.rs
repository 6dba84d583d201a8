//! The off-line (Theorem 1) scheduler and the §VI on-line router on
//! generalized topologies (k-ary pods, two-layer trees).
//!
//! There is no topology entry point: a caller maps real processor ids
//! with `emb.map_set` / `emb.stream` and runs a `SchedArena` or an
//! `OnlineArena` on `emb.tree()`, exactly as for a plain tree. These
//! tests pin that recipe on non-binary machines.

#[cfg(test)]
mod tests {
    use crate::arena::SchedArena;
    use crate::online::{OnlineArena, OnlineConfig};
    use ft_core::{Message, MessageSet, SplitMix64};
    use ft_topology::{Embedded, Topology};

    fn perm(n: u32, seed: u64) -> MessageSet {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut dst: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut dst);
        (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
    }

    #[test]
    fn generalized_schedule_is_valid_and_meets_lambda() {
        for topo in [
            Topology::kary_pods(8, 1),
            Topology::kary_pods(8, 4),
            Topology::two_layer(16, 8, 120),
        ] {
            let emb = Embedded::new(topo);
            let m = perm(emb.leaves(), 17);
            let (lambda, _) = emb.lambda(&m);
            let mapped = emb.map_set(&m);
            let (sched, stats) = SchedArena::new(emb.tree()).schedule(emb.tree(), &mapped, 1);
            let spec = emb.topology().spec().to_string();
            assert!((stats.load_factor - lambda).abs() < 1e-9, "{spec}");
            assert!(
                sched.cycles().len() as f64 >= lambda.ceil(),
                "{spec}: {} cycles < λ = {lambda}",
                sched.cycles().len()
            );
            // Every cycle must respect the embedded capacities and the
            // schedule must carry exactly the mapped messages.
            sched.validate(emb.tree(), &mapped).unwrap();
        }
    }

    #[test]
    fn generalized_online_run_delivers_everything() {
        let emb = Embedded::new(Topology::two_layer(8, 4, 30));
        let m = perm(emb.leaves(), 29);
        let cfg = OnlineConfig::default();
        let mut arena = OnlineArena::new(emb.tree());
        let mut rng = SplitMix64::seed_from_u64(1);
        let r = arena.route(emb.tree(), &emb.map_set(&m), &mut rng, cfg);
        assert!(!r.truncated);
        assert_eq!(r.delivered_per_cycle.iter().sum::<usize>(), m.len());
        // The lazily mapped stream is byte-identical under the same seed.
        let mut rng = SplitMix64::seed_from_u64(1);
        arena.run_stream(emb.tree(), &emb.stream(&m), &mut rng, cfg);
        assert_eq!(arena.delivered_per_cycle(), r.delivered_per_cycle);
    }
}
