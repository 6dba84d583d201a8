//! Tier-1 guard for ft-sched's sort-free Theorem-1 kernels, the
//! scheduler's twin of `sim_fused_golden.rs`: `SchedArena` (matching by a
//! level-synchronous climb, feasibility by per-level max loads, the
//! two-message fast path) must reproduce the retained clone-based
//! reference scheduler cycle for cycle, and `schedule_assign` must name
//! the same cycle for every input slot. The on-line router rides along:
//! `OnlineArena::run_stream` must reproduce the clone-based reference
//! router cycle for cycle on the same machines and workloads — the
//! reference is the only cross-check its one claim walk has. The exhaustive
//! suites live in `crates/ft-sched/tests/`; this one makes plain
//! `cargo test` fail if a sweep is wrong.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::sched::reference::{route_online_reference, schedule_theorem1_reference};
use fat_tree::sched::SchedArena;
use fat_tree::workloads::{
    BurstyStream, HotspotStream, PermutationStream, PodAllToAll, RelationStream,
};

/// `schedule_stream` == reference and `schedule_assign` consistent with
/// it, for 1 and 2 threads on one warm arena; returns the cycle count.
fn assert_matches_reference(
    arena: &mut SchedArena,
    ft: &FatTree,
    stream: &dyn MessageStream,
    tag: &str,
) -> usize {
    let set = stream.collect_set();
    let (want, want_stats) = schedule_theorem1_reference(ft, &set);
    let mut out = Vec::new();
    for threads in [1usize, 2] {
        let tag = format!("{tag} threads={threads}");
        let (got, stats) = arena.schedule_stream(ft, stream, threads);
        assert_eq!(got.cycles(), want.cycles(), "{tag}");
        assert_eq!(stats.cycles_per_level, want_stats.cycles_per_level, "{tag}");
        assert_eq!(stats.total_cycles, want_stats.total_cycles, "{tag}");
        assert_eq!(stats.load_factor, want_stats.load_factor, "{tag}");

        let (cycles, lam) = arena.schedule_assign(ft, stream, threads, &mut out);
        assert_eq!(cycles as usize, want.num_cycles(), "{tag}");
        assert_eq!(lam, want_stats.load_factor, "{tag}");
        let mut by_cycle = vec![Vec::new(); want.num_cycles()];
        for (msg, &c) in set.iter().zip(&out) {
            by_cycle[c as usize].push(*msg);
        }
        for (c, (got, want)) in by_cycle.iter_mut().zip(want.cycles()).enumerate() {
            got.sort_unstable_by_key(|m| (m.src.0, m.dst.0));
            assert_eq!(*got, want.sorted(), "{tag}: assigned cycle {c}");
        }
    }
    want.num_cycles()
}

/// `len` uniform messages on `n` processors, every fourth a repeat of its
/// predecessor and every seventh local.
fn multiset(n: u32, len: usize, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<Message> = Vec::with_capacity(len);
    for j in 0..len {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        v.push(if j % 7 == 6 {
            Message::new(src, src)
        } else if j % 4 == 3 {
            v[j - 1]
        } else {
            Message::new(src, dst)
        });
    }
    MessageSet::from_vec(v)
}

/// Universal, unit-capacity and two padded k-ary pod trees: k = 8, over
/// = 4 has the non-monotone level table (…, 1, 2, 1) on an identity leaf
/// map; k = 6 maps its 54 real processors into 128 padded leaves.
fn machines() -> [Embedded; 5] {
    let machines = [
        Topology::binary(64, CapacityProfile::Universal { root_capacity: 16 }),
        Topology::binary(256, CapacityProfile::Universal { root_capacity: 64 }),
        Topology::binary(64, CapacityProfile::Constant(1)),
        Topology::kary_pods(8, 4),
        Topology::kary_pods(6, 2),
    ]
    .map(Embedded::new);
    assert!(!machines[4].is_identity());
    machines
}

/// The workload families on `emb`'s real processors for one seed.
fn streams(emb: &Embedded, seed: u64) -> Vec<(&'static str, Box<dyn MessageStream>)> {
    let n = emb.leaves();
    let mut streams: Vec<(&str, Box<dyn MessageStream>)> = vec![
        ("multiset", Box::new(multiset(n, 3 * n as usize, seed))),
        (
            "alltoall",
            Box::new(PodAllToAll::for_topology(emb.topology())),
        ),
    ];
    if n.is_power_of_two() {
        streams.push(("perm", Box::new(PermutationStream::new(n, seed))));
        streams.push(("rel2", Box::new(RelationStream::new(n, 2, seed))));
        streams.push(("hotspot", Box::new(HotspotStream::new(n, 2, 3, seed))));
    }
    streams
}

#[test]
fn arena_matches_reference_across_trees_and_workloads() {
    let (mut runs, mut multi_cycle) = (0, 0);
    for emb in &machines() {
        let ft = emb.tree();
        let mut arena = SchedArena::new(ft);
        for seed in 0..12u64 {
            for (family, real) in &streams(emb, seed) {
                let tag = format!("{family} on {} seed={seed}", emb.topology().spec());
                let mapped = emb.stream(real.as_ref());
                let cycles = assert_matches_reference(&mut arena, ft, &mapped, &tag);
                runs += 1;
                multi_cycle += (cycles > 1) as u32;
            }
        }
    }
    assert_eq!(runs, 12 * (4 * 5 + 2));
    assert!(
        multi_cycle >= 200,
        "only {multi_cycle} of {runs} runs split"
    );
}

#[test]
fn online_arena_stream_matches_reference() {
    let (mut runs, mut multi_cycle) = (0, 0);
    for emb in &machines() {
        let ft = emb.tree();
        let mut arena = OnlineArena::new(ft);
        for seed in 0..12u64 {
            for (family, real) in &streams(emb, seed) {
                let tag = format!("{family} on {} seed={seed}", emb.topology().spec());
                let mapped = emb.stream(real.as_ref());
                let cfg = OnlineConfig::default();
                let rng = || SplitMix64::seed_from_u64(seed ^ 0x0A11);
                let want = route_online_reference(ft, &mapped.collect_set(), &mut rng(), cfg);
                arena.run_stream(ft, &mapped, &mut rng(), cfg);
                assert_eq!(arena.cycles(), want.cycles, "{tag}");
                assert_eq!(
                    arena.delivered_per_cycle(),
                    want.delivered_per_cycle,
                    "{tag}"
                );
                assert!(!arena.truncated() && !want.truncated, "{tag}");
                runs += 1;
                multi_cycle += (want.cycles > 1) as u32;
            }
        }
    }
    assert_eq!(runs, 12 * (4 * 5 + 2));
    assert!(
        multi_cycle >= 200,
        "only {multi_cycle} of {runs} runs retried"
    );
}

#[test]
fn threaded_levels_match_reference() {
    // ≥ 4096 messages under the root, so `threads = 2` really shards.
    let ft = FatTree::universal(1024, 64);
    let mut arena = SchedArena::new(&ft);
    for seed in [1u64, 2] {
        let stream = RelationStream::new(1024, 10, seed);
        let tag = format!("rel10 n=1024 seed={seed}");
        assert!(assert_matches_reference(&mut arena, &ft, &stream, &tag) > 10);
    }
}

#[test]
fn odd_segment_keeps_one_unmatched_source_end() {
    // Seven root crossers from five leaves: processors 1 and 4 pair their
    // own ends, three leftovers climb, and the last finds no partner — the
    // trace must start from it.
    let ft = FatTree::new(16, CapacityProfile::Constant(1));
    let m: MessageSet = [(1, 9), (4, 12), (1, 15), (6, 8), (4, 9), (0, 12), (7, 10)]
        .into_iter()
        .map(|(s, d)| Message::new(s, d))
        .collect();
    let cycles = assert_matches_reference(&mut SchedArena::new(&ft), &ft, &m, "odd");
    assert_eq!(cycles, 7);
}

#[test]
fn streamed_ingest_crosses_partial_chunks() {
    // The arenas pull streams in 256-message chunks: a bursty stream whose
    // length is no multiple of 256 ends on a partial chunk, and the pod
    // all-to-all of `kary:k=12,over=2` (2 160 messages, pods of 6) reaches
    // the scheduler through the padded embedding's mapped `fill`.
    let ft = FatTree::universal(256, 64);
    let mut arena = SchedArena::new(&ft);
    for (len, seed) in [(257usize, 1u64), (777, 2), (1000, 3)] {
        let bursty = BurstyStream::new(256, len, 8, seed);
        let tag = format!("bursty len={len}");
        assert!(assert_matches_reference(&mut arena, &ft, &bursty, &tag) > 1);
    }
    let emb = Embedded::new(parse_spec("kary:k=12,over=2").unwrap());
    let kary = PodAllToAll::for_topology(emb.topology());
    let mapped = emb.stream(&kary);
    assert_eq!((mapped.len(), emb.topology().pod()), (2160, 6));
    assert!(!emb.is_identity());
    let mut arena = SchedArena::new(emb.tree());
    assert!(assert_matches_reference(&mut arena, emb.tree(), &mapped, "kary:k=12") > 1);
}

/// FNV-1a over one 64-bit word at a time.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Fingerprint of a schedule and its statistics: cycle count, every
/// cycle's length and `(src, dst)` words in order, cycles per level, λ.
fn fp_schedule(s: &Schedule, st: &fat_tree::sched::Theorem1Stats) -> u64 {
    let mut h = fnv(0xCBF2_9CE4_8422_2325, s.num_cycles() as u64);
    for c in s.cycles() {
        h = fnv(h, c.len() as u64);
        for m in c.iter() {
            h = fnv(h, (m.src.0 as u64) << 32 | m.dst.0 as u64);
        }
    }
    for &c in &st.cycles_per_level {
        h = fnv(h, c as u64);
    }
    fnv(h, st.load_factor.to_bits())
}

#[test]
fn theorem1_schedules_at_benchmark_scale_are_pinned() {
    // The shapes the end-to-end benchmark schedules: a 2-relation and a
    // hot spot on 2^12 leaves, and a pod all-to-all (pods of 12, 38 016
    // messages) through the padded embedding of a 24-ary pod tree. The
    // values were taken from the scheduler before its ingest was chunked.
    let ft = FatTree::universal(4096, 1024);
    let mut arena = SchedArena::new(&ft);
    let mut got = Vec::new();
    for seed in [1986u64, 1987] {
        let rel2 = RelationStream::new(4096, 2, seed);
        let hot = HotspotStream::new(4096, 1, 4, seed);
        for stream in [&rel2 as &dyn MessageStream, &hot] {
            let (s, st) = arena.schedule_stream(&ft, stream, 1);
            got.push(fp_schedule(&s, &st));
        }
    }
    let topo = parse_spec("kary:k=24,over=2").unwrap();
    let kary = PodAllToAll::for_topology(&topo);
    let emb = Embedded::new(topo);
    let mapped = emb.stream(&kary);
    assert_eq!(mapped.len(), 38_016);
    let (s, st) = SchedArena::new(emb.tree()).schedule_stream(emb.tree(), &mapped, 1);
    got.push(fp_schedule(&s, &st));
    let want: [u64; 5] = [
        7007866055997068637, // rel2, seed 1986
        4894721795412114792, // hot spot, seed 1986
        3782376346347994223, // rel2, seed 1987
        3284131123021719508, // hot spot, seed 1987
        8031994114429125401, // pod all-to-all
    ];
    assert_eq!(got, want);
}

#[test]
fn sparse_leftovers_climb_empty_levels_before_meeting() {
    // Three messages out of a 2^10-leaf subtree into another: on either
    // side two ends meet only nine levels up and the third stays alone.
    let ft = FatTree::new(2048, CapacityProfile::Constant(1));
    let m: MessageSet = [(0, 1029), (1023, 2047), (511, 1536)]
        .into_iter()
        .map(|(s, d)| Message::new(s, d))
        .collect();
    let cycles = assert_matches_reference(&mut SchedArena::new(&ft), &ft, &m, "sparse");
    assert_eq!(cycles, 3);
}
