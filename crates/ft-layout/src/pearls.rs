//! Lemma 6 (§V, Fig. 4): the pearl-splitting lemma.
//!
//! *Consider any two strings composed of even numbers of black and white
//! pearls. By making at most two cuts, the pearls can be divided into two
//! sets, each containing at most two strings, such that each set has exactly
//! half the pearls of each color.*
//!
//! The proof is a continuity argument over a family of candidate sets `A`
//! that always (a) contain half the pearls and (b) consist of at most two
//! strings, while consecutive family members differ by swapping a single
//! pearl in and out (so the black count changes by at most one per step).
//! The family we trace (equivalent to the paper's rotate-then-break motion
//! of Fig. 4):
//!
//! * start: `A = L[0, H)` — a prefix of the long string (`H = ⌊N/2⌋`);
//! * stage 1 (`t = 0..|S|`): `A = L[0, H−t) ∪ S[0, t)` — trade the tail of
//!   the `L`-piece for a growing prefix of `S`;
//! * stage 2 (`t = 0..l−(H−|S|)`): `A = L[t, t+H−|S|) ∪ S` — slide the
//!   `L`-piece right.
//!
//! The endpoint is (for even `N`) the complement of the start, so the black
//! count walks from `black(A₀)` to `B − black(A₀)` in ±1 steps and must hit
//! `⌊B/2⌋` or `⌈B/2⌉` on the way. Both `A` and its complement consist of at
//! most two intervals of the original strings throughout.

/// One string of pearls: the positions `start..end`, of which the sorted
/// positions in `blacks` are black and the rest white. A string of `bool`s
/// `xs` is `(0, xs.len(), positions of its trues)`.
pub type Strand<'a> = (u64, u64, &'a [u64]);

/// A half-open interval of one of the two input strings:
/// `(string, start, end)` with `string` 0 for the first, 1 for the second,
/// in that string's own positions.
pub type Arc = (usize, u64, u64);

/// The result of a necklace split: two sets of at most two arcs each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NecklaceSplit {
    /// First set (the traced set `A`): at most two arcs.
    pub a: Vec<Arc>,
    /// Second set (the complement): at most two arcs.
    pub b: Vec<Arc>,
}

impl NecklaceSplit {
    /// Total pearls in set `a`.
    pub fn size_a(&self) -> u64 {
        self.a.iter().map(|&(_, s, e)| e - s).sum()
    }

    /// Count black pearls of set `a` given the two strings.
    pub fn blacks_a(&self, first: Strand, second: Strand) -> usize {
        count_blacks(&self.a, [first.2, second.2])
    }

    /// Count black pearls of set `b`.
    pub fn blacks_b(&self, first: Strand, second: Strand) -> usize {
        count_blacks(&self.b, [first.2, second.2])
    }
}

fn count_blacks(arcs: &[Arc], blacks: [&[u64]; 2]) -> usize {
    arcs.iter()
        .map(|&(s, a, b)| within(blacks[s], a, b).len())
        .sum()
}

/// The positions of sorted `xs` that lie in `a..b`.
pub(crate) fn within(xs: &[u64], a: u64, b: u64) -> &[u64] {
    &xs[xs.partition_point(|&x| x < a)..xs.partition_point(|&x| x < b)]
}

/// Split two strings of pearls into two sets of ≤ 2 arcs with
/// `⌊N/2⌋` / `⌈N/2⌉` pearls and `⌊B/2⌋` / `⌈B/2⌉` black pearls.
///
/// When `N` and `B` are both even (the lemma's hypothesis) the split is
/// exact. The generalization to odd counts (±1) is what Theorem 8 uses at
/// the bottom of its recursion. The walk visits only the black pearls
/// (the first-hit lemma, DESIGN.md §10), so a split costs
/// `O(B + lg N)`, however long the strings.
///
/// ```
/// use ft_layout::split_necklace;
/// // 6 pearls, black at 0, 1 and 4; 2 pearls, black at 0.
/// let (long, short) = ((0, 6, &[0, 1, 4][..]), (0, 2, &[0][..]));
/// let split = split_necklace(long, short);
/// assert!(split.a.len() <= 2 && split.b.len() <= 2); // ≤ 2 cuts
/// assert_eq!(split.blacks_a(long, short), 2);        // half of 4 blacks
/// assert_eq!(split.size_a(), 4);                     // half of 8 pearls
/// ```
pub fn split_necklace(first: Strand, second: Strand) -> NecklaceSplit {
    // Normalize: string 0 is the long one.
    let swapped = first.1 - first.0 < second.1 - second.0;
    let ((l0, l1, lb), (s0, s1, sb)) = if swapped {
        (second, first)
    } else {
        (first, second)
    };
    let (l, s) = (l1 - l0, s1 - s0);
    assert!(l + s >= 1, "no pearls to split");
    let h = (l + s) / 2;
    let b = lb.len() + sb.len();
    let hit = |f: usize| f >= b / 2 && f <= b.div_ceil(2);
    let spans = [(l0, l1), (s0, s1)];
    debug_assert!(s <= h, "short string longer than half the pearls?");

    // Stage 1: A = L[0, h−t) ∪ S[0, t), t = 0..=s. The long string's black
    // at p < h leaves at t = h − p; the short string's black at q enters
    // at t = q + 1.
    let inside = within(lb, l0, l0 + h);
    let leave = within(inside, l0 + h - s, l0 + h).iter().rev();
    let enter = sb.iter().map(|&q| q - s0 + 1);
    if let Some(t) = first_hit(inside.len(), leave.map(|&p| h - (p - l0)), enter, hit) {
        return finish([(l0, l0 + h - t), (s0, s0 + t)], spans, swapped);
    }
    // Stage 2: A = L[t, t + piece) ∪ S, piece = h − s, t = 0..=l−piece.
    // The black at p leaves at t = p + 1 and enters at t = p − piece + 1;
    // a hit comes before t passes l − piece.
    let piece = h - s;
    let entering = within(lb, l0 + piece, l1);
    let f0 = lb.len() - entering.len() + sb.len();
    let leave = lb.iter().map(|&p| p - l0 + 1);
    let enter = entering.iter().map(|&p| p - l0 - piece + 1);
    let t = first_hit(f0, leave, enter, hit).expect("continuity guarantees a hit");
    finish([(l0 + t, l0 + t + piece), (s0, s1)], spans, swapped)
}

/// The first-hit lemma: `A`'s black count is `f` at `t = 0` and changes
/// only when a black pearl leaves `A` (at the ascending times `leave`) or
/// enters it (at the ascending times `enter`), so the first `t` whose
/// count is a `hit` is 0 or one of those times. Arrivals apply before
/// departures at the same `t`: a pearl never leaves before it entered.
fn first_hit(
    mut f: usize,
    leave: impl Iterator<Item = u64>,
    enter: impl Iterator<Item = u64>,
    hit: impl Fn(usize) -> bool,
) -> Option<u64> {
    if hit(f) {
        return Some(0);
    }
    let (mut leave, mut enter) = (leave.peekable(), enter.peekable());
    loop {
        let t = match (leave.peek(), enter.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (x, y) => *x.or(y)?,
        };
        while enter.next_if_eq(&t).is_some() {
            f += 1;
        }
        while leave.next_if_eq(&t).is_some() {
            f -= 1;
        }
        if hit(f) {
            return Some(t);
        }
    }
}

/// Assemble the split from set A's arc `[x, y)` of the long and of the
/// short string (either may be empty): its complement within each string's
/// span, with the long/short normalization undone.
fn finish(a_arcs: [(u64, u64); 2], spans: [(u64, u64); 2], swapped: bool) -> NecklaceSplit {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (k, ((x, y), (start, end))) in a_arcs.into_iter().zip(spans).enumerate() {
        let string = k ^ usize::from(swapped);
        // An empty arc leaves the whole span to the complement.
        let (x, y) = if x < y { (x, y) } else { (end, end) };
        if x < y {
            a.push((string, x, y));
        }
        let rest = [(string, start, x), (string, y, end)];
        b.extend(rest.into_iter().filter(|&(_, p, q)| p < q));
    }
    NecklaceSplit { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The black positions of a string of `bool`s.
    fn positions(xs: &[bool]) -> Vec<u64> {
        xs.iter()
            .enumerate()
            .filter_map(|(i, &x)| x.then_some(i as u64))
            .collect()
    }

    /// Split two strings of `bool`s; also return the blacks in `a` and `b`.
    fn split_bools(first: &[bool], second: &[bool]) -> (NecklaceSplit, usize, usize) {
        let (p1, p2) = (positions(first), positions(second));
        let (s1, s2) = (
            (0, first.len() as u64, &p1[..]),
            (0, second.len() as u64, &p2[..]),
        );
        let split = split_necklace(s1, s2);
        let (ba, bb) = (split.blacks_a(s1, s2), split.blacks_b(s1, s2));
        (split, ba, bb)
    }

    /// Split and check the lemma's guarantees; return the split and the
    /// blacks in `a`.
    fn check(long: &[bool], short: &[bool]) -> (NecklaceSplit, usize) {
        let (split, ba, bb) = split_bools(long, short);
        let n = long.len() + short.len();
        let b: usize = long.iter().chain(short).filter(|&&x| x).count();
        assert!(split.a.len() <= 2, "A has {} arcs", split.a.len());
        assert!(split.b.len() <= 2, "B has {} arcs", split.b.len());
        assert_eq!(split.size_a(), n as u64 / 2, "A must hold ⌊N/2⌋ pearls");
        assert_eq!(ba + bb, b);
        assert!(ba >= b / 2 && ba <= b.div_ceil(2), "blacks split {ba}/{bb}");
        // Whites are then automatically within one of half.
        let wa = split.size_a() as usize - ba;
        let w = n - b;
        assert!(
            wa + 1 >= w / 2 && wa <= w / 2 + 1,
            "whites split badly: {wa} of {w}"
        );
        (split, ba)
    }

    #[test]
    fn lemma6_even_case_exact() {
        // Even blacks, even whites in two strings → exact halves.
        let long = vec![true, false, true, false, true, false];
        let short = vec![true, false];
        let (split, ba) = check(&long, &short);
        assert_eq!(ba, 2);
        assert_eq!(split.size_a(), 4);
    }

    #[test]
    fn all_black() {
        let long = vec![true; 8];
        let short = vec![true; 4];
        assert_eq!(check(&long, &short).1, 6);
    }

    #[test]
    fn all_white() {
        assert_eq!(check(&[false; 6], &[false; 2]).1, 0);
    }

    #[test]
    fn single_string_only() {
        let long = vec![true, true, false, false, true, true, false, false];
        check(&long, &[]);
    }

    #[test]
    fn clustered_blacks_need_stage2() {
        // All blacks at the far end of the long string: the initial prefix
        // has none, forcing the family to slide (stage 2).
        let mut long = vec![false; 12];
        long[8..12].fill(true);
        check(&long, &[false; 4]);
    }

    #[test]
    fn odd_counts_within_one() {
        let long = vec![true, false, true];
        let short = vec![true, false];
        check(&long, &short);
    }

    #[test]
    fn short_longer_than_first_argument() {
        // Normalization: pass the shorter string first.
        let a = vec![true, false];
        let b = vec![false, true, false, true, false, false];
        check(&b, &a);
        // And with arguments swapped, arcs must refer to the right strings.
        let (split2, ba, bb) = split_bools(&a, &b);
        assert_eq!(split2.size_a(), 4);
        assert_eq!(ba + bb, 3);
    }

    /// The dense first-hit scan: every `t` of both stages, counting each
    /// candidate set's blacks from prefix sums. The oracle for the split.
    fn dense_split(long: &[bool], short: &[bool]) -> NecklaceSplit {
        let (l, s) = (long.len(), short.len());
        let h = (l + s) / 2;
        let prefix = |xs: &[bool]| -> Vec<usize> {
            let mut p = vec![0];
            for &x in xs {
                p.push(p.last().unwrap() + usize::from(x));
            }
            p
        };
        let (pl, ps) = (prefix(long), prefix(short));
        let b = pl[l] + ps[s];
        let hit = |f: usize| f >= b / 2 && f <= b.div_ceil(2);
        let spans = [(0, l as u64), (0, s as u64)];
        for t in 0..=s {
            if hit(pl[h - t] + ps[t]) {
                return finish([(0, (h - t) as u64), (0, t as u64)], spans, false);
            }
        }
        let piece = h - s;
        for t in 0..=(l - piece) {
            if hit(pl[t + piece] - pl[t] + ps[s]) {
                return finish(
                    [(t as u64, (t + piece) as u64), (0, s as u64)],
                    spans,
                    false,
                );
            }
        }
        unreachable!("continuity guarantees a hit");
    }

    /// `check`, plus: the split equals the dense oracle's, arc for arc.
    fn check_against_oracle(long: &[bool], short: &[bool]) {
        let (split, _) = check(long, short);
        assert_eq!(
            split,
            dense_split(long, short),
            "long {} / short {} pearls",
            long.len(),
            short.len()
        );
    }

    #[test]
    fn exhaustive_small_necklaces() {
        // All color patterns for small sizes: the lemma must never fail,
        // and the split is the dense scan's.
        for llen in 1..=8usize {
            for slen in 0..=llen.min(4) {
                for lmask in 0..(1u32 << llen) {
                    for smask in 0..(1u32 << slen) {
                        let long: Vec<bool> = (0..llen).map(|i| lmask >> i & 1 == 1).collect();
                        let short: Vec<bool> = (0..slen).map(|i| smask >> i & 1 == 1).collect();
                        check_against_oracle(&long, &short);
                    }
                }
            }
        }
    }

    #[test]
    fn long_necklaces_match_the_dense_scan() {
        // Strings up to 2^16 pearls: sparse and dense blacks, empty short
        // strings, all-black and all-white strings.
        let mut rng = ft_core::rng::SplitMix64::seed_from_u64(0x9EA7);
        for case in 0..200u32 {
            let l = rng.gen_range(1usize..=1 << 16);
            let s = match case % 4 {
                0 => 0,
                _ => rng.gen_range(0..=l),
            };
            let p = [0.0, 1.0, 0.001, 0.5, 0.999][case as usize % 5];
            let q = [0.0, 1.0, 0.5, 0.01][case as usize % 4];
            let long: Vec<bool> = (0..l).map(|_| rng.gen_bool(p)).collect();
            let short: Vec<bool> = (0..s).map(|_| rng.gen_bool(q)).collect();
            check_against_oracle(&long, &short);
        }
    }
}
