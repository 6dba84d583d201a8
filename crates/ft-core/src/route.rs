//! Routing paths (§II): every message follows the unique tree path from its
//! source leaf up to the least common ancestor and back down, so a path is a
//! run of up-channels followed by a run of down-channels.

use crate::message::Message;
use crate::topology::{ChannelId, FatTree};

/// The channels traversed by `m` in `ft`, in order: up-channels from the
/// source leaf to (just below) the LCA, then down-channels to the
/// destination leaf. A local message (`src == dst`) traverses no channels.
pub fn path_channels(ft: &FatTree, m: &Message) -> Vec<ChannelId> {
    if m.is_local() {
        return Vec::new();
    }
    let mut u = ft.leaf(m.src);
    let mut v = ft.leaf(m.dst);
    let mut ups = Vec::new();
    let mut downs = Vec::new();
    while u != v {
        ups.push(ChannelId::up(u));
        downs.push(ChannelId::down(v));
        u >>= 1;
        v >>= 1;
    }
    downs.reverse();
    ups.extend(downs);
    ups
}

/// Number of channels on the path of `m`: `2·(lg n − level(lca))` in the
/// paper's terms; 0 for a local message.
pub fn path_len(ft: &FatTree, m: &Message) -> u32 {
    if m.is_local() {
        return 0;
    }
    let mut u = ft.leaf(m.src);
    let mut v = ft.leaf(m.dst);
    let mut d = 0;
    while u != v {
        u >>= 1;
        v >>= 1;
        d += 2;
    }
    d
}

/// Visit the channels of the path without allocating.
pub fn for_each_path_channel<F: FnMut(ChannelId)>(ft: &FatTree, m: &Message, mut f: F) {
    if m.is_local() {
        return;
    }
    let mut u = ft.leaf(m.src);
    let mut v = ft.leaf(m.dst);
    // Up run first, in order.
    let lca = ft.lca(m.src, m.dst);
    while u != lca {
        f(ChannelId::up(u));
        u >>= 1;
    }
    // Down run: collect levels by walking v upward, then emit in reverse.
    let mut stack = [0u32; 32];
    let mut top = 0;
    while v != lca {
        stack[top] = v;
        top += 1;
        v >>= 1;
    }
    while top > 0 {
        top -= 1;
        f(ChannelId::down(stack[top]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityProfile;
    use crate::topology::Direction;

    fn ft(n: u32) -> FatTree {
        FatTree::new(n, CapacityProfile::FullDoubling)
    }

    #[test]
    fn local_message_empty_path() {
        let t = ft(8);
        let m = Message::new(3, 3);
        assert!(path_channels(&t, &m).is_empty());
        assert_eq!(path_len(&t, &m), 0);
    }

    #[test]
    fn sibling_leaves_two_hops() {
        let t = ft(8);
        let m = Message::new(0, 1);
        let p = path_channels(&t, &m);
        assert_eq!(p, vec![ChannelId::up(8), ChannelId::down(9)]);
        assert_eq!(path_len(&t, &m), 2);
    }

    #[test]
    fn cross_root_path_shape() {
        let t = ft(8);
        let m = Message::new(0, 7);
        let p = path_channels(&t, &m);
        assert_eq!(p.len(), 6);
        // Up run then down run.
        assert_eq!(p[0], ChannelId::up(8));
        assert_eq!(p[1], ChannelId::up(4));
        assert_eq!(p[2], ChannelId::up(2));
        assert_eq!(p[3], ChannelId::down(3));
        assert_eq!(p[4], ChannelId::down(7));
        assert_eq!(p[5], ChannelId::down(15));
        // levels descend then ascend
        let lv: Vec<u32> = p.iter().map(|c| c.level()).collect();
        assert_eq!(lv, vec![3, 2, 1, 1, 2, 3]);
    }

    #[test]
    fn path_len_matches_channels() {
        let t = ft(64);
        for s in 0..64 {
            for d in 0..64 {
                let m = Message::new(s, d);
                assert_eq!(
                    path_channels(&t, &m).len() as u32,
                    path_len(&t, &m),
                    "mismatch for {s}->{d}"
                );
            }
        }
    }

    #[test]
    fn for_each_matches_vec() {
        let t = ft(32);
        for s in 0..32 {
            for d in 0..32 {
                let m = Message::new(s, d);
                let mut got = Vec::new();
                for_each_path_channel(&t, &m, |c| got.push(c));
                assert_eq!(got, path_channels(&t, &m));
            }
        }
    }

    #[test]
    fn path_is_up_then_down_and_simple() {
        let t = ft(64);
        for s in [0u32, 13, 31, 63] {
            for d in [5u32, 13, 42, 62] {
                let m = Message::new(s, d);
                let p = path_channels(&t, &m);
                // no repeated channels
                let mut q = p.clone();
                q.sort_unstable_by_key(|c| c.index());
                q.dedup();
                assert_eq!(q.len(), p.len(), "path not simple for {s}->{d}");
                // up channels precede down channels
                let first_down = p.iter().position(|c| c.dir == Direction::Down);
                if let Some(i) = first_down {
                    assert!(p[i..].iter().all(|c| c.dir == Direction::Down));
                }
            }
        }
    }
}
