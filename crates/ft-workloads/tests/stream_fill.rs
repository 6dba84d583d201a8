//! `MessageStream::fill` must equal `message`, index for index, for every
//! implementation the engines pull chunks from: each generator family,
//! the materialized `MessageSet` and `[Message]`, and ft-topology's lazily
//! mapped view. Chunk boundaries are random and include empty and
//! length-1 chunks. Two generators override `fill` with their own kernel:
//! `PermutationStream` is checked exhaustively at every width up to 2¹⁴
//! and on samples at 2²⁰ and 2²⁶, `PodAllToAll` on pods of 2, 3, 12 and
//! one pod spanning every processor.

use ft_core::rng::SplitMix64;
use ft_core::{Message, MessageSet, MessageStream};
use ft_topology::{parse_spec, Embedded, LevelCaps, Topology};
use ft_workloads::{
    AllReduceStream, AllToAllStream, BurstyStream, HotspotStream, IncastStream, PermutationStream,
    PodAllReduce, PodAllToAll, RelationStream,
};

/// A chunk length: empty, one, or anything up to 300 (past the engines'
/// 256).
fn chunk_len(rng: &mut SplitMix64) -> usize {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2..301u32) as usize,
    }
}

/// Fill `s` front to back in random chunks over a poisoned buffer and
/// compare every slot with `message`.
fn assert_fill_matches<S: MessageStream + ?Sized>(s: &S, seed: u64, tag: &str) {
    let poison = Message::new(u32::MAX, u32::MAX);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut buf = [poison; 301];
    let mut start = 0;
    while start < s.len() {
        let len = chunk_len(&mut rng).min(s.len() - start);
        buf = [poison; 301];
        s.fill(start, &mut buf[..len]);
        for (k, got) in buf[..len].iter().enumerate() {
            assert_eq!(*got, s.message(start + k), "{tag}: message {}", start + k);
        }
        assert_eq!(buf[len], poison, "{tag}: wrote past the chunk");
        start += len;
    }
    // An empty chunk at the very end is legal too.
    s.fill(s.len(), &mut buf[..0]);
}

#[test]
fn every_generator_family_fills_what_it_messages() {
    for n in [2u32, 64, 1024] {
        let seed = 0xF111 ^ n as u64;
        let families: [(&str, Box<dyn MessageStream>); 7] = [
            ("perm", Box::new(PermutationStream::new(n, seed))),
            (
                "hotspot",
                Box::new(HotspotStream::new(n, 3, n.min(5), seed)),
            ),
            ("rel3", Box::new(RelationStream::new(n, 3, seed))),
            (
                "bursty",
                Box::new(BurstyStream::new(n, 3 * n as usize, 4, seed)),
            ),
            ("incast", Box::new(IncastStream::new(n, n / 2, 5, seed))),
            ("allreduce", Box::new(AllReduceStream::new(n, 2, seed))),
            ("alltoall", Box::new(AllToAllStream::new(n, n.min(8)))),
        ];
        for (name, s) in &families {
            assert_fill_matches(s.as_ref(), seed, &format!("{name} n={n}"));
        }
    }
    // Pods of 3: the modular-arithmetic collectives.
    let topo = Topology::kary_pods(6, 1);
    assert_fill_matches(&PodAllReduce::for_topology(&topo, 7), 1, "pod allreduce");
    assert_fill_matches(&PodAllToAll::for_topology(&topo), 2, "pod alltoall");
}

#[test]
fn pod_alltoall_fill_steps_across_pods_and_rounds() {
    // `PodAllToAll` overrides `fill`: pods of 12 on the 3 456 processors
    // of `kary:k=24,over=2` (38 016 messages, every chunk start a fresh
    // division), pods of 2 (one round, the destination wraps every
    // message) and one pod spanning every processor.
    let topo = parse_spec("kary:k=24,over=2").unwrap();
    let aa = PodAllToAll::for_topology(&topo);
    assert_eq!((aa.len(), topo.pod()), (38_016, 12));
    assert_fill_matches(&aa, 8, "pods of 12");
    for n in [2u32, 64, 1000] {
        assert_fill_matches(&PodAllToAll::new(n, 2), 9, &format!("pods of 2, n={n}"));
        assert_fill_matches(&PodAllToAll::new(n, n), 10, &format!("one pod, n={n}"));
    }
}

#[test]
fn materialized_streams_fill_by_copying() {
    let set: MessageSet = RelationStream::new(256, 3, 9).collect_set();
    assert_fill_matches(&set, 3, "MessageSet");
    assert_fill_matches(set.as_slice(), 4, "[Message]");
    assert_eq!(set.as_slice().family(), "materialized");
    let empty: &[Message] = &[];
    assert_fill_matches(empty, 5, "empty [Message]");
}

#[test]
fn mapped_streams_fill_through_the_inner_kernel() {
    // Arities 5 and 3 pad to 8 and 4 leaves: a non-identity leaf map.
    let caps = [4, 2, 1].map(LevelCaps::symmetric).to_vec();
    let emb = Embedded::new(Topology::custom(vec![5, 3], caps));
    assert!(!emb.is_identity());
    let perm = PermutationStream::new(16, 6);
    let real: MessageSet = perm
        .iter()
        .filter(|m| m.src.0 < 15 && m.dst.0 < 15)
        .collect();
    assert_fill_matches(&emb.stream(&real), 6, "mapped set");
    let collective = PodAllToAll::for_topology(emb.topology());
    assert_fill_matches(&emb.stream(&collective), 7, "mapped alltoall");
}

#[test]
fn permutation_fill_is_its_message_at_every_width() {
    for bits in 0..=14u32 {
        let n = 1u32 << bits;
        let s = PermutationStream::new(n, 0xB175 ^ bits as u64);
        assert_fill_matches(&s, bits as u64, &format!("perm lg n = {bits}"));
        // And a permutation: every destination exactly once.
        let mut out = vec![Message::new(0, 0); n as usize];
        s.fill(0, &mut out);
        let mut seen = vec![false; n as usize];
        for (j, m) in out.iter().enumerate() {
            assert_eq!(m.src.0, j as u32);
            assert!(
                !std::mem::replace(&mut seen[m.dst.0 as usize], true),
                "lg n = {bits}"
            );
        }
    }
    for bits in [20u32, 26] {
        let n = 1u32 << bits;
        let s = PermutationStream::new(n, 0x5A3 ^ bits as u64);
        let mut rng = SplitMix64::seed_from_u64(bits as u64);
        let mut buf = [Message::new(0, 0); 300];
        for _ in 0..40 {
            let len = chunk_len(&mut rng);
            let start = rng.gen_range(0..n - len as u32) as usize;
            s.fill(start, &mut buf[..len]);
            for (k, got) in buf[..len].iter().enumerate() {
                assert_eq!(
                    *got,
                    s.message(start + k),
                    "lg n = {bits}, j = {}",
                    start + k
                );
            }
        }
    }
}
