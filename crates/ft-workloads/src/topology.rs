//! Pod-aware collective streams for generalized topologies.
//!
//! The collective generators in [`crate::stream`] assume power-of-two
//! processor counts and pod sizes (they work in bit masks). Generalized
//! topologies have whatever pod size their deepest switches give them —
//! `k/2` servers per edge switch in a k-ary tree, `p` per leaf switch in
//! a two-layer design — so these variants run the same ring all-reduce
//! and rotation all-to-all in modular arithmetic over *real* processor
//! ids, with the pod size taken from the topology. Where both apply
//! (power-of-two everything) they generate byte-identical streams to the
//! mask-based originals (pinned by tests below).

use ft_core::{splitmix64, Message, MessageStream};
use ft_topology::Topology;

/// Ring all-reduce over pods of arbitrary size: `2·(pod−1)` ring steps in
/// which every processor sends one chunk to its ring neighbour within its
/// pod, direction reseeded per step. Real-id, modular-arithmetic variant
/// of [`crate::stream::AllReduceStream`].
#[derive(Clone, Copy, Debug)]
pub struct PodAllReduce {
    n: u32,
    pod: u32,
    seed: u64,
}

impl PodAllReduce {
    /// All-reduce on `n` processors in pods of `pod` (`2 ≤ pod ≤ n`,
    /// `pod` dividing `n`).
    pub fn new(n: u32, pod: u32, seed: u64) -> Self {
        assert!(pod >= 2 && pod <= n && n.is_multiple_of(pod));
        PodAllReduce { n, pod, seed }
    }

    /// The collective sized for a topology: all its processors, pods as
    /// the leaves under one deepest-level switch.
    pub fn for_topology(topo: &Topology, seed: u64) -> Self {
        PodAllReduce::new(topo.leaves() as u32, topo.pod(), seed)
    }
}

impl MessageStream for PodAllReduce {
    fn len(&self) -> usize {
        2 * (self.pod as usize - 1) * self.n as usize
    }

    fn family(&self) -> &'static str {
        "allreduce"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j % self.n as usize) as u32;
        let step = (j / self.n as usize) as u64;
        let fwd = splitmix64(self.seed ^ step) & 1 == 0;
        let pod_base = src - src % self.pod;
        let pos = src % self.pod;
        let next = if fwd {
            (pos + 1) % self.pod
        } else {
            (pos + self.pod - 1) % self.pod
        };
        Message::new(src, pod_base + next)
    }
}

/// Rotation all-to-all over pods of arbitrary size: in `pod − 1` rounds
/// every processor sends to each other member of its pod. Real-id,
/// modular-arithmetic variant of [`crate::stream::AllToAllStream`].
#[derive(Clone, Copy, Debug)]
pub struct PodAllToAll {
    n: u32,
    pod: u32,
}

impl PodAllToAll {
    /// All-to-all on `n` processors in pods of `pod` (`2 ≤ pod ≤ n`,
    /// `pod` dividing `n`).
    pub fn new(n: u32, pod: u32) -> Self {
        assert!(pod >= 2 && pod <= n && n.is_multiple_of(pod));
        PodAllToAll { n, pod }
    }

    /// The collective sized for a topology's own pods.
    pub fn for_topology(topo: &Topology) -> Self {
        PodAllToAll::new(topo.leaves() as u32, topo.pod())
    }
}

impl MessageStream for PodAllToAll {
    fn len(&self) -> usize {
        (self.pod as usize - 1) * self.n as usize
    }

    fn family(&self) -> &'static str {
        "alltoall"
    }

    fn message(&self, j: usize) -> Message {
        let src = (j % self.n as usize) as u32;
        let round = (j / self.n as usize) as u32 + 1;
        let pod_base = src - src % self.pod;
        let pos = src % self.pod;
        Message::new(src, pod_base + (pos + round) % self.pod)
    }

    /// [`Self::message`] stepped incrementally: the source, its pod base
    /// and the destination's position in the pod advance by one per
    /// message and wrap, so only the chunk's first message divides.
    fn fill(&self, start: usize, out: &mut [Message]) {
        let (n, pod) = (self.n, self.pod);
        let mut src = (start % n as usize) as u32;
        let mut round = (start / n as usize) as u32 + 1;
        let mut pos = src % pod;
        let mut base = src - pos;
        let mut dpos = (pos + round) % pod;
        for slot in out {
            *slot = Message::new(src, base + dpos);
            src += 1;
            pos += 1;
            dpos += 1;
            if dpos == pod {
                dpos = 0;
            }
            if pos == pod {
                pos = 0;
                base += pod;
            }
            if src == n {
                (src, pos, base) = (0, 0, 0);
                round += 1;
                dpos = round % pod;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{AllReduceStream, AllToAllStream};
    use ft_topology::Embedded;

    #[test]
    fn pow2_pods_match_mask_based_streams() {
        let (n, pod, seed) = (64u32, 8u32, 42u64);
        let a = PodAllReduce::new(n, pod, seed);
        let b = AllReduceStream::new(n, pod, seed);
        assert_eq!(a.len(), b.len());
        for j in 0..a.len() {
            assert_eq!(a.message(j), b.message(j), "allreduce step {j}");
        }
        let a = PodAllToAll::new(n, pod);
        let b = AllToAllStream::new(n, pod);
        assert_eq!(a.len(), b.len());
        for j in 0..a.len() {
            assert_eq!(a.message(j), b.message(j), "alltoall step {j}");
        }
    }

    #[test]
    fn collectives_stay_inside_their_pods() {
        // k = 6: pods of 3 — nothing the mask-based streams could model.
        let topo = ft_topology::Topology::kary_pods(6, 1);
        let ar = PodAllReduce::for_topology(&topo, 7);
        let aa = PodAllToAll::for_topology(&topo);
        assert_eq!(ar.len(), 2 * 2 * 54);
        assert_eq!(aa.len(), 2 * 54);
        for j in 0..ar.len() {
            let m = ar.message(j);
            assert_eq!(m.src.0 / 3, m.dst.0 / 3, "allreduce left its pod");
            assert_ne!(m.src, m.dst);
        }
        for j in 0..aa.len() {
            let m = aa.message(j);
            assert_eq!(m.src.0 / 3, m.dst.0 / 3, "alltoall left its pod");
            assert_ne!(m.src, m.dst);
        }
    }

    #[test]
    fn pod_traffic_never_crosses_pod_uplinks() {
        // All collective traffic stays below the deepest switches: the
        // embedded load on every level above the pod boundary is zero.
        let topo = ft_topology::Topology::kary_pods(6, 2);
        let emb = Embedded::new(topo.clone());
        let aa = PodAllToAll::for_topology(&topo);
        let mapped = emb.stream(&aa).collect_set();
        let load = ft_core::LevelLoads::of(emb.tree(), &mapped);
        let per = load.max_per_level();
        let pod_boundary = emb.boundary(topo.depth() - 1);
        for (b, &l) in per.iter().enumerate() {
            if (b as u32) < pod_boundary {
                assert_eq!(l, 0, "traffic escaped the pods at binary level {b}");
            }
        }
    }
}
