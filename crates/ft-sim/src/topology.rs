//! The delivery-cycle simulator on generalized topologies (k-ary pods,
//! two-layer trees).
//!
//! There is no topology entry point: a caller maps real processor ids
//! with `emb.map_set` (or lazily with `emb.stream`, so no message vector
//! is materialized) and runs the engine on `emb.tree()`. These tests pin
//! that recipe on non-binary machines.

#[cfg(test)]
mod tests {
    use crate::engine::{run_stream_to_completion, run_to_completion, SimConfig};
    use ft_core::{Message, MessageSet, SplitMix64};
    use ft_topology::{Embedded, Topology};

    fn perm(n: u32, seed: u64) -> MessageSet {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut dst: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut dst);
        (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
    }

    #[test]
    fn generalized_run_delivers_everything_and_respects_lambda() {
        for topo in [Topology::kary_pods(8, 1), Topology::two_layer(16, 8, 100)] {
            let emb = Embedded::new(topo);
            let m = perm(emb.leaves(), 21);
            let (lambda, _) = emb.lambda(&m);
            let r = run_to_completion(emb.tree(), &emb.map_set(&m), &SimConfig::default());
            assert_eq!(
                r.delivered_per_cycle.iter().sum::<usize>(),
                m.len(),
                "{}",
                emb.topology().spec()
            );
            assert!(
                r.cycles as f64 >= lambda.ceil(),
                "cycles {} below λ bound {lambda} on {}",
                r.cycles,
                emb.topology().spec()
            );
        }
    }

    #[test]
    fn stream_path_matches_set_path() {
        let emb = Embedded::new(Topology::kary_pods(6, 2));
        let m = perm(emb.leaves(), 5);
        let cfg = SimConfig::default();
        let set = run_to_completion(emb.tree(), &emb.map_set(&m), &cfg);
        let streamed = run_stream_to_completion(emb.tree(), &emb.stream(&m), &cfg);
        assert_eq!(set, streamed);
    }
}
