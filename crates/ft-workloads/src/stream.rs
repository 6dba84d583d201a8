//! Lazy workload generators: each family as a [`MessageStream`] whose
//! `j`-th message is a pure function of `(seed, j)`, so the engines can
//! ingest million-leaf workloads without ever materializing a
//! `Vec<Message>`.
//!
//! Three kinds of families live here:
//!
//! * lazy twins of the eager generators ([`PermutationStream`],
//!   [`HotspotStream`], [`RelationStream`]) — same *shapes* (a random
//!   permutation, `k` messages per source to `h` hot spots, a random
//!   k-relation), generated pointwise instead of by Fisher–Yates passes,
//! * datacenter patterns motivated by FatPaths (Besta et al.,
//!   arXiv:1906.10885): [`BurstyStream`] (fixed-length bursts to
//!   Zipf-skewed destinations) and [`IncastStream`] (many→one waves),
//! * GPU-collective patterns over subtree "pods": [`AllReduceStream`]
//!   (ring reduce-scatter + all-gather) and [`AllToAllStream`] (rotation
//!   all-to-all), the traffic of data- and expert-parallel training steps.
//!
//! Random permutations use a balanced Feistel network over `lg n` bits with
//! cycle-walking for odd widths: an O(1) pointwise bijection on `0..n`, so
//! `message(j)` needs no shuffled table. The Feistel permutation is *a*
//! uniform-looking random permutation, not byte-identical to the eager
//! Fisher–Yates [`crate::random_permutation`] — goldens therefore compare a
//! stream against its own [`MessageStream::collect_set`] materialization.

use ft_core::rng::splitmix64;
use ft_core::{Message, MessageStream};

/// Bits of `n` (a power of two): `lg(n)`.
fn lg_pow2(n: u32) -> u32 {
    assert!(n.is_power_of_two(), "stream workloads need power-of-two n");
    n.trailing_zeros()
}

/// A bijection on `0..2^bits` (`bits ≤ 26`): four rounds of a balanced
/// Feistel network on `2·⌈bits/2⌉` bits with round function `f(round, r)`
/// (masked to the half width here), cycle-walked back into the domain when
/// `bits` is odd. Pointwise O(1) expected (the walk escapes the doubled
/// domain with probability ½ per application).
#[inline]
fn feistel(x: u32, bits: u32, f: impl Fn(u32, u32) -> u32) -> u32 {
    if bits == 0 {
        return 0;
    }
    let half = bits.div_ceil(2);
    let mask = (1u32 << half) - 1;
    let mut v = x;
    loop {
        let (mut l, mut r) = (v >> half, v & mask);
        for round in 0..4 {
            (l, r) = (r, l ^ (f(round, r) & mask));
        }
        v = (l << half) | r;
        if v < (1 << bits) {
            return v;
        }
    }
}

/// The seeded round function of [`scramble`].
#[inline]
fn round_value(seed: u64, round: u32, r: u32) -> u32 {
    splitmix64(seed ^ ((round as u64) << 32) ^ r as u64) as u32
}

/// A seeded bijection on `0..2^bits`: [`feistel`] over [`round_value`].
fn scramble(x: u32, bits: u32, seed: u64) -> u32 {
    feistel(x, bits, |round, r| round_value(seed, round, r))
}

/// A random permutation workload: processor `j` sends to `π(j)` for a
/// seeded bijection `π` evaluated pointwise (no shuffled table): `π(j)` is
/// `scramble(j, lg n, seed)` with the four rounds' values read from a
/// table built once (`4 · 2^⌈lg n / 2⌉` words: 2 KiB at n = 2¹³, 16 KiB at
/// 2²⁰) instead of hashed per message.
///
/// `message` and `fill` share one kernel: at odd `lg n` it applies the
/// round network twice unconditionally and selects ([`Self::two_steps`]),
/// so only the quarter of inputs whose first two images both leave `0..n`
/// walk on ([`Self::walk`]); `fill` runs the branch-free half over the
/// whole chunk first.
#[derive(Clone, Debug)]
pub struct PermutationStream {
    n: u32,
    /// `⌈lg n / 2⌉`: the Feistel half width.
    half: u32,
    /// `round_value(seed, round, r)` at index `round << half | r`.
    rounds: Vec<u32>,
}

impl PermutationStream {
    /// Permutation on `n` processors (a power of two), decided by `seed`.
    pub fn new(n: u32, seed: u64) -> Self {
        let half = lg_pow2(n).div_ceil(2);
        PermutationStream {
            n,
            half,
            rounds: (0..4u32 << half)
                .map(|i| round_value(seed, i >> half, i & ((1 << half) - 1)))
                .collect(),
        }
    }

    /// One pass of the four-round network over `2·half` bits: [`feistel`]'s
    /// loop body with the round values read from the table.
    #[inline]
    fn network(&self, v: u32) -> u32 {
        let (half, mask) = (self.half, (1u32 << self.half) - 1);
        let (mut l, mut r) = (v >> half, v & mask);
        for round in 0..4 {
            (l, r) = (r, l ^ (self.rounds[(round << half | r) as usize] & mask));
        }
        (l << half) | r
    }

    /// Does the network's domain, `0..2^(2·half)`, exceed `0..n`?
    #[inline]
    fn odd(&self) -> bool {
        self.n.trailing_zeros() % 2 == 1
    }

    /// The first two steps of [`feistel`]'s cycle walk from `j`, selected
    /// without a branch: `π(j)` unless both leave `0..n`. At even `lg n`
    /// one pass is `π(j)`.
    #[inline]
    fn two_steps(&self, j: u32) -> u32 {
        let a = self.network(j);
        if !self.odd() {
            return a;
        }
        let b = self.network(a);
        if a < self.n {
            a
        } else {
            b
        }
    }

    /// The rest of the cycle walk from a point of it: the first image in
    /// `0..n`.
    #[inline]
    fn walk(&self, mut v: u32) -> u32 {
        while v >= self.n {
            v = self.network(v);
        }
        v
    }
}

impl MessageStream for PermutationStream {
    fn len(&self) -> usize {
        self.n as usize
    }

    fn family(&self) -> &'static str {
        "permutation"
    }

    fn message(&self, j: usize) -> Message {
        Message::new(j as u32, self.walk(self.two_steps(j as u32)))
    }

    fn fill(&self, start: usize, out: &mut [Message]) {
        for (j, slot) in (start as u32..).zip(out.iter_mut()) {
            *slot = Message::new(j, self.two_steps(j));
        }
        if self.odd() {
            for slot in out {
                slot.dst.0 = self.walk(slot.dst.0);
            }
        }
    }
}

/// Hot-spot traffic: each processor sends `k` messages, each to one of `h`
/// seeded hot destinations (chosen uniformly per message) — the lazy twin
/// of [`crate::hotspots`].
#[derive(Clone, Copy, Debug)]
pub struct HotspotStream {
    n: u32,
    bits: u32,
    k: u32,
    h: u32,
    seed: u64,
}

impl HotspotStream {
    /// `n` processors (a power of two) × `k` messages each onto `h` hot
    /// destinations (`1 ≤ h ≤ n`).
    pub fn new(n: u32, k: u32, h: u32, seed: u64) -> Self {
        assert!(h >= 1 && h <= n);
        HotspotStream {
            n,
            bits: lg_pow2(n),
            k,
            h,
            seed,
        }
    }
}

impl MessageStream for HotspotStream {
    fn len(&self) -> usize {
        self.n as usize * self.k as usize
    }

    fn family(&self) -> &'static str {
        "hotspot"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j / self.k as usize) as u32;
        // Hot destination set = image of 0..h under the seeded bijection
        // (distinct by construction); each message picks one uniformly.
        let pick = splitmix64(self.seed ^ 0x4071 ^ j as u64) % self.h as u64;
        let dst = scramble(pick as u32, self.bits, self.seed ^ 0x5E7);
        Message::new(src, dst)
    }
}

/// A random k-relation: each processor sends `k` messages to uniform
/// destinations — the lazy twin of [`crate::random_k_relation`].
#[derive(Clone, Copy, Debug)]
pub struct RelationStream {
    n: u32,
    k: u32,
    seed: u64,
}

impl RelationStream {
    /// `n` processors (a power of two) × `k` uniform messages each.
    pub fn new(n: u32, k: u32, seed: u64) -> Self {
        lg_pow2(n);
        RelationStream { n, k, seed }
    }
}

impl MessageStream for RelationStream {
    fn len(&self) -> usize {
        self.n as usize * self.k as usize
    }

    fn family(&self) -> &'static str {
        "random-relation"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j / self.k as usize) as u32;
        let dst = splitmix64(self.seed ^ j as u64) as u32 & (self.n - 1);
        Message::new(src, dst)
    }
}

/// Bursty traffic with Zipf-skewed destinations: messages arrive in bursts
/// of `burst` consecutive messages sharing one (source, destination) flow;
/// destinations follow a heavy-tailed rank distribution (rank sampled
/// log-uniformly, so the top destination absorbs `≈ 1/lg n` of all flows),
/// scrambled through a seeded bijection so the hot leaves are scattered
/// across subtrees. The skewed/bursty regime of FatPaths (§2, Besta et al.
/// 1906.10885).
#[derive(Clone, Copy, Debug)]
pub struct BurstyStream {
    n: u32,
    bits: u32,
    len: usize,
    burst: u32,
    seed: u64,
}

impl BurstyStream {
    /// `total` messages on `n` processors (a power of two), in bursts of
    /// `burst ≥ 1` messages per flow.
    pub fn new(n: u32, total: usize, burst: u32, seed: u64) -> Self {
        assert!(burst >= 1);
        BurstyStream {
            n,
            bits: lg_pow2(n),
            len: total,
            burst,
            seed,
        }
    }
}

impl MessageStream for BurstyStream {
    fn len(&self) -> usize {
        self.len
    }

    fn family(&self) -> &'static str {
        "bursty"
    }

    fn message(&self, j: usize) -> Message {
        let flow = j as u64 / self.burst as u64;
        let src = splitmix64(self.seed ^ 0xB0 ^ flow) as u32 & (self.n - 1);
        // Zipf-like rank: u uniform in [0,1), rank = ⌊n^u⌋ − 1 clamped, so
        // P(rank = 0) ≈ ln 2 / ln n and mass decays as 1/(rank·ln n).
        let u = (splitmix64(self.seed ^ 0xD1 ^ flow) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let rank = ((self.n as f64).powf(u) as u32).min(self.n) - 1;
        let dst = scramble(rank, self.bits, self.seed ^ 0x21F);
        Message::new(src, dst)
    }
}

/// Incast: waves of `fanin` distinct sources all sending to one seeded
/// target per wave — the many→one pattern of partition/aggregate
/// datacenter services (and the §II hot-spot stress at scale).
#[derive(Clone, Copy, Debug)]
pub struct IncastStream {
    n: u32,
    bits: u32,
    fanin: u32,
    waves: u32,
    seed: u64,
}

impl IncastStream {
    /// `waves` incast waves of `fanin` senders each on `n` processors
    /// (a power of two, `fanin < n`).
    pub fn new(n: u32, fanin: u32, waves: u32, seed: u64) -> Self {
        assert!(fanin >= 1 && fanin < n);
        IncastStream {
            n,
            bits: lg_pow2(n),
            fanin,
            waves,
            seed,
        }
    }
}

impl MessageStream for IncastStream {
    fn len(&self) -> usize {
        self.fanin as usize * self.waves as usize
    }

    fn family(&self) -> &'static str {
        "incast"
    }

    fn message(&self, j: usize) -> Message {
        let wave = (j / self.fanin as usize) as u32;
        let i = (j % self.fanin as usize) as u32;
        let target = scramble(wave & (self.n - 1), self.bits, self.seed ^ 0x17CA);
        let src = (target + 1 + i) & (self.n - 1);
        Message::new(src, target)
    }
}

/// Ring all-reduce over pods: processors are grouped into contiguous
/// subtree pods of `pod` leaves; a reduce-scatter then an all-gather each
/// run `pod − 1` steps, and in every step each processor sends one chunk to
/// its ring successor within the pod. The dominant collective of
/// data-parallel training (cf. SNIPPETS.md's GPU-cluster fat-tree model);
/// all traffic stays below the pod roots, exercising exactly the locality
/// §II says fat-trees exploit.
#[derive(Clone, Copy, Debug)]
pub struct AllReduceStream {
    n: u32,
    pod: u32,
    seed: u64,
}

impl AllReduceStream {
    /// Ring all-reduce on `n` processors in pods of `pod` (both powers of
    /// two, `2 ≤ pod ≤ n`).
    pub fn new(n: u32, pod: u32, seed: u64) -> Self {
        lg_pow2(n);
        assert!(pod.is_power_of_two() && pod >= 2 && pod <= n);
        AllReduceStream { n, pod, seed }
    }
}

impl MessageStream for AllReduceStream {
    fn len(&self) -> usize {
        // 2·(pod−1) ring steps × n participants.
        2 * (self.pod as usize - 1) * self.n as usize
    }

    fn family(&self) -> &'static str {
        "allreduce"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j % self.n as usize) as u32;
        // Rotate ring direction per step (decided by the seed) so the two
        // phases are not byte-identical repeats.
        let step = (j / self.n as usize) as u64;
        let fwd = splitmix64(self.seed ^ step) & 1 == 0;
        let pod_base = src & !(self.pod - 1);
        let pos = src & (self.pod - 1);
        let next = if fwd {
            (pos + 1) & (self.pod - 1)
        } else {
            (pos + self.pod - 1) & (self.pod - 1)
        };
        Message::new(src, pod_base | next)
    }
}

/// Rotation all-to-all over pods: in `pod − 1` rounds every processor
/// sends one message to each other member of its pod (`dst = pod_base |
/// ((pos + t) mod pod)`), the expert-parallel / sharded-shuffle pattern.
#[derive(Clone, Copy, Debug)]
pub struct AllToAllStream {
    n: u32,
    pod: u32,
}

impl AllToAllStream {
    /// All-to-all on `n` processors in pods of `pod` (both powers of two,
    /// `2 ≤ pod ≤ n`).
    pub fn new(n: u32, pod: u32) -> Self {
        lg_pow2(n);
        assert!(pod.is_power_of_two() && pod >= 2 && pod <= n);
        AllToAllStream { n, pod }
    }
}

impl MessageStream for AllToAllStream {
    fn len(&self) -> usize {
        (self.pod as usize - 1) * self.n as usize
    }

    fn family(&self) -> &'static str {
        "alltoall"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j % self.n as usize) as u32;
        let t = (j / self.n as usize) as u32 + 1; // rotation 1..pod
        let pod_base = src & !(self.pod - 1);
        let pos = src & (self.pod - 1);
        Message::new(src, pod_base | ((pos + t) & (self.pod - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::is_permutation;
    use ft_core::MessageSet;

    fn materializes_identically(s: &dyn MessageStream) -> MessageSet {
        let a = s.collect_set();
        let b = s.collect_set();
        assert_eq!(a, b, "stream not restartable");
        assert_eq!(a.len(), s.len(), "len() not exact");
        a
    }

    #[test]
    fn scramble_is_a_bijection_every_width() {
        for bits in 0..=10u32 {
            let n = 1usize << bits;
            let mut seen = vec![false; n];
            for x in 0..n {
                let y = scramble(x as u32, bits, 0xFEED ^ bits as u64) as usize;
                assert!(y < n, "escaped domain");
                assert!(!seen[y], "collision at width {bits}");
                seen[y] = true;
            }
        }
    }

    #[test]
    fn permutation_stream_table_reproduces_scramble() {
        for bits in 0..=12u32 {
            let seed = 0xFE15 ^ bits as u64;
            let s = PermutationStream::new(1 << bits, seed);
            for j in 0..1u32 << bits {
                let want = Message::new(j, scramble(j, bits, seed));
                assert_eq!(s.message(j as usize), want, "bits={bits} j={j}");
            }
        }
        for bits in [20u32, 26] {
            let seed = 0x5EED ^ bits as u64;
            let s = PermutationStream::new(1 << bits, seed);
            for k in 0..2_000u64 {
                let j = splitmix64(k ^ seed) as u32 & ((1 << bits) - 1);
                let want = Message::new(j, scramble(j, bits, seed));
                assert_eq!(s.message(j as usize), want, "bits={bits} j={j}");
            }
        }
    }

    #[test]
    fn permutation_stream_is_a_permutation() {
        for n in [1u32, 2, 8, 64, 1024] {
            let s = PermutationStream::new(n, 7 ^ n as u64);
            let m = materializes_identically(&s);
            assert!(is_permutation(&m, n), "not a permutation at n={n}");
        }
        // Seeds decide the permutation.
        let a = PermutationStream::new(64, 1).collect_set();
        let b = PermutationStream::new(64, 2).collect_set();
        assert_ne!(a, b);
    }

    #[test]
    fn hotspot_stream_hits_h_destinations() {
        let s = HotspotStream::new(32, 2, 3, 44);
        let m = materializes_identically(&s);
        assert_eq!(m.len(), 64);
        let mut dsts: Vec<u32> = m.iter().map(|x| x.dst.0).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert!(dsts.len() <= 3);
        // Every source sends exactly k messages.
        assert!(m.iter().enumerate().all(|(j, x)| x.src.0 == j as u32 / 2));
    }

    #[test]
    fn relation_stream_shape() {
        let s = RelationStream::new(16, 3, 5);
        let m = materializes_identically(&s);
        assert_eq!(m.len(), 48);
        assert!(m.iter().all(|x| x.dst.0 < 16));
        assert!(m.iter().enumerate().all(|(j, x)| x.src.0 == j as u32 / 3));
    }

    #[test]
    fn bursty_stream_is_bursty_and_skewed() {
        let n = 256u32;
        let s = BurstyStream::new(n, 4096, 8, 99);
        let m = materializes_identically(&s);
        // Bursts: messages within one burst share their flow.
        for b in 0..(m.len() / 8) {
            let first = m.as_slice()[b * 8];
            assert!(m.as_slice()[b * 8..(b + 1) * 8].iter().all(|&x| x == first));
        }
        // Skew: the most popular destination takes far more than the
        // uniform share (16 messages) — log-uniform ranks give ≈ ln2/ln n
        // ≈ 12% of 4096.
        let mut by_dst = vec![0u32; n as usize];
        for x in m.iter() {
            by_dst[x.dst.0 as usize] += 1;
        }
        let top = by_dst.iter().copied().max().unwrap();
        assert!(top > 200, "no hot destination: top={top}");
    }

    #[test]
    fn incast_waves_converge_on_one_target() {
        let s = IncastStream::new(64, 8, 10, 3);
        let m = materializes_identically(&s);
        assert_eq!(m.len(), 80);
        for w in 0..10 {
            let wave = &m.as_slice()[w * 8..(w + 1) * 8];
            let t = wave[0].dst;
            assert!(wave.iter().all(|x| x.dst == t), "wave {w} splits targets");
            let mut srcs: Vec<u32> = wave.iter().map(|x| x.src.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), 8, "wave {w} repeats sources");
            assert!(wave.iter().all(|x| x.src != t), "self-send in wave {w}");
        }
    }

    #[test]
    fn collectives_stay_inside_pods() {
        let n = 64u32;
        for pod in [2u32, 8, 64] {
            let ar = AllReduceStream::new(n, pod, 11);
            let m = materializes_identically(&ar);
            assert_eq!(m.len(), 2 * (pod as usize - 1) * n as usize);
            assert!(m.iter().all(|x| x.src.0 / pod == x.dst.0 / pod));
            assert!(m.iter().all(|x| x.src != x.dst));

            let a2a = AllToAllStream::new(n, pod);
            let m = materializes_identically(&a2a);
            assert_eq!(m.len(), (pod as usize - 1) * n as usize);
            assert!(m.iter().all(|x| x.src.0 / pod == x.dst.0 / pod));
            assert!(m.iter().all(|x| x.src != x.dst));
            // Each source reaches every other pod member exactly once.
            let mut hit = vec![0u32; (n * n) as usize];
            for x in m.iter() {
                hit[(x.src.0 * n + x.dst.0) as usize] += 1;
            }
            for s in 0..n {
                for d in 0..n {
                    let want = u32::from(s != d && s / pod == d / pod);
                    assert_eq!(hit[(s * n + d) as usize], want, "pair {s}→{d}");
                }
            }
        }
    }
}
