//! Payload codecs for each frame kind: plain `Vec<u64>` in, typed request
//! out. Everything is fixed-width words — no varints, no strings — so the
//! encodings are trivially deterministic and platform-independent.

use crate::fault::FaultPlan;
use ft_core::{CapacityProfile, FatTree, Message};
use ft_sim::{Arbitration, FaultModel, MetaWidth, ShardClaim, SimConfig, SwitchKind};

/// A malformed payload (valid frame, nonsense contents) — a protocol bug
/// or an adversarial peer, never something to retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

fn err<T>(what: &str) -> Result<T, ProtoError> {
    Err(ProtoError(what.to_string()))
}

/// Is the payload exactly `head + per * count` words long? `count` is the
/// peer's claim, not a fact, so the arithmetic must not wrap; once this
/// holds, `count` is bounded by the words that actually arrived and is
/// safe to `reserve`.
fn len_is(p: &[u64], head: u64, per: u64, count: u64) -> bool {
    count
        .checked_mul(per)
        .and_then(|body| body.checked_add(head))
        == Some(p.len() as u64)
}

/// Most wires (`2^k · cap(k)`) an INIT may put on one tree level: twice the
/// full-doubling tree on the engine's largest `n`. A worker's slot tables
/// are a few words per wire of the widest level, so this is what keeps a
/// crafted capacity from turning 17 payload words into an allocation no
/// machine has.
pub const MAX_LEVEL_WIRES: u64 = 1 << 27;

/// Worker-side error codes carried by an `Error` frame.
pub const ERR_UNINITIALIZED: u64 = 1;
pub const ERR_SEQ_DESYNC: u64 = 2;
pub const ERR_BAD_PAYLOAD: u64 = 3;
/// A `Cycle` arrived before the pending set was shipped with `Load`, or
/// an `Incoming2` with no up phase of its cycle to finish.
pub const ERR_NOT_LOADED: u64 = 4;

/// The INIT request: everything a worker needs to build its arena.
#[derive(Clone, Debug)]
pub struct InitMsg {
    pub n: u32,
    pub boundary: u32,
    pub shard: u32,
    /// Peer protocol version, in the high bits of the shard word. Decoding
    /// accepts [`crate::wire::PROTO_VERSION`] only.
    pub proto: u32,
    pub sim: SimConfig,
    pub plan: FaultPlan,
    pub profile: CapacityProfile,
}

impl InitMsg {
    pub fn encode(&self) -> Vec<u64> {
        let mut p = vec![
            self.n as u64,
            self.boundary as u64,
            self.shard as u64 | (self.proto as u64) << 32,
            self.sim.payload_bits as u64,
            match self.sim.switch {
                SwitchKind::Ideal => 0,
                SwitchKind::Partial => 1,
            },
            match self.sim.arbitration {
                Arbitration::SlotOrder => 0,
                Arbitration::Random(_) => 1,
            },
            match self.sim.arbitration {
                Arbitration::SlotOrder => 0,
                Arbitration::Random(seed) => seed,
            },
            self.sim.faults.dead_wire_fraction.to_bits(),
            self.sim.faults.seed,
            self.plan.drop.to_bits(),
            self.plan.duplicate.to_bits(),
            self.plan.corrupt.to_bits(),
            self.plan.delay_ms as u64,
            self.plan.seed,
        ];
        match &self.profile {
            CapacityProfile::Universal { root_capacity } => p.extend([0, *root_capacity, 0]),
            CapacityProfile::Constant(c) => p.extend([1, *c, 0]),
            CapacityProfile::FullDoubling => p.extend([2, 0, 0]),
            CapacityProfile::PerLevel(caps) => {
                p.extend([3, caps.len() as u64, 0]);
                p.extend(caps.iter().copied());
            }
            CapacityProfile::UniversalWithDegree {
                root_capacity,
                degree,
            } => p.extend([4, *root_capacity, *degree]),
        }
        p
    }

    /// Decode and validate: bytes off a pipe are not a config someone
    /// checked. Every value `FatTree::new` / `from_level_caps` /
    /// `SimArena::new` would assert on, or a later shift or sum would
    /// overflow on, is a [`ProtoError`] here — [`Self::tree`] and the arena
    /// constructor cannot panic on a decoded INIT.
    pub fn decode(p: &[u64]) -> Result<InitMsg, ProtoError> {
        if p.len() < 17 {
            return err("INIT too short");
        }
        let (n, boundary) = (p[0], p[1]);
        if !(2..=1 << FatTree::MAX_HEIGHT).contains(&n) || !n.is_power_of_two() {
            return err("INIT n is not a power of two in [2, 2^FatTree::MAX_HEIGHT]");
        }
        let levels = n.trailing_zeros() as u64 + 1;
        if boundary >= levels || p[2] as u32 as u64 >= 1 << boundary {
            return err("INIT shard boundary or index outside the tree");
        }
        // Zero capacities assert in the tree constructors, and a degree
        // past the wire bound would overflow `d · n/2^k` before the level
        // check below could see it.
        let profile = match (p[14], p[15], p[16]) {
            (0, root_capacity @ 1.., _) => CapacityProfile::Universal { root_capacity },
            (1, c @ 1.., _) => CapacityProfile::Constant(c),
            (2, ..) => CapacityProfile::FullDoubling,
            (3, len, _) if len == levels && len_is(p, 17, 1, len) && !p[17..].contains(&0) => {
                CapacityProfile::PerLevel(p[17..].to_vec())
            }
            (4, root_capacity @ 1.., degree @ 1..) if degree <= MAX_LEVEL_WIRES / n => {
                CapacityProfile::UniversalWithDegree {
                    root_capacity,
                    degree,
                }
            }
            _ => return err("INIT capacity profile unknown, mis-sized or zero"),
        };
        let proto = (p[2] >> 32) as u32;
        if proto != crate::wire::PROTO_VERSION {
            return err("INIT protocol version mismatch");
        }
        // NaN fails the range test too.
        let fraction = |w: u64| (0.0..=1.0).contains(&f64::from_bits(w));
        if ![p[7], p[9], p[10], p[11]].into_iter().all(fraction) {
            return err("INIT fraction outside [0, 1]");
        }
        // Cycle ticks are `payload_bits` plus a path term, summed in u32.
        if p[3] >= 1 << 31 {
            return err("INIT payload bits out of range");
        }
        let init = InitMsg {
            n: n as u32,
            boundary: boundary as u32,
            shard: p[2] as u32,
            proto,
            sim: SimConfig {
                payload_bits: p[3] as u32,
                switch: match p[4] {
                    0 => SwitchKind::Ideal,
                    1 => SwitchKind::Partial,
                    _ => return err("INIT unknown switch kind"),
                },
                arbitration: match p[5] {
                    0 => Arbitration::SlotOrder,
                    1 => Arbitration::Random(p[6]),
                    _ => return err("INIT unknown arbitration"),
                },
                faults: FaultModel {
                    dead_wire_fraction: f64::from_bits(p[7]),
                    seed: p[8],
                },
                // Claims carry u64 metadata words on the wire: shard
                // cycles always run the wide layout.
                meta: MetaWidth::Wide,
            },
            plan: FaultPlan {
                drop: f64::from_bits(p[9]),
                duplicate: f64::from_bits(p[10]),
                corrupt: f64::from_bits(p[11]),
                delay_ms: p[12] as u32,
                seed: p[13],
            },
            profile,
        };
        let ft = init.tree();
        if (0..)
            .zip(ft.level_caps())
            .any(|(k, &c)| c > MAX_LEVEL_WIRES >> k)
        {
            return err("INIT tree exceeds the per-level wire bound");
        }
        Ok(init)
    }

    /// Rebuild the tree this INIT describes. Per-level tables go through
    /// `from_level_caps`: the sender already validated its profile, and
    /// topology embeddings ship switch-internal tables that the stricter
    /// user-facing `PerLevel` constructor would reject.
    pub fn tree(&self) -> FatTree {
        match &self.profile {
            CapacityProfile::PerLevel(caps) => FatTree::from_level_caps(self.n, caps.clone()),
            p => FatTree::new(self.n, p.clone()),
        }
    }
}

/// The LOAD request: a shard's complete pending-message set, shipped
/// once per run. `total` (the coordinator-global message count) and `ids`
/// (each message's position in the coordinator's array) are the
/// coordinator's bookkeeping riding the v2 layout; the worker keys its
/// retained set by position *in this frame* and sizes nothing from them.
pub struct LoadMsg {
    pub total: u32,
    pub ids: Vec<u32>,
    pub msgs: Vec<Message>,
}

impl LoadMsg {
    /// Append the LOAD payload to an open frame (see
    /// [`crate::wire::begin_frame`]).
    pub fn encode_into(out: &mut Vec<u64>, total: u32, ids: &[u32], msgs: &[Message]) {
        debug_assert_eq!(ids.len(), msgs.len());
        out.reserve(2 + 2 * msgs.len());
        out.extend([total as u64, msgs.len() as u64]);
        for (&id, m) in ids.iter().zip(msgs) {
            out.push(id as u64);
            out.push((m.src.0 as u64) << 32 | m.dst.0 as u64);
        }
    }

    pub fn decode(p: &[u64]) -> Result<LoadMsg, ProtoError> {
        if p.len() < 2 {
            return err("LOAD too short");
        }
        if !len_is(p, 2, 2, p[1]) {
            return err("LOAD length mismatch");
        }
        let mut ids = Vec::with_capacity(p[1] as usize);
        let mut msgs = Vec::with_capacity(p[1] as usize);
        for pair in p[2..].chunks_exact(2) {
            ids.push(pair[0] as u32);
            msgs.push(Message::new((pair[1] >> 32) as u32, pair[1] as u32));
        }
        Ok(LoadMsg {
            total: p[0] as u32,
            ids,
            msgs,
        })
    }
}

/// The CYCLE request: the per-cycle arbitration seed, the verdict
/// bitmap over the claims the shard exported last cycle, and the shard's
/// id *remap* for this cycle.
///
/// The bitmap is in export order (both sides hold that list sorted by
/// global id). Bit set = the claim was delivered in its destination shard,
/// retire it; clear = it lost top or destination arbitration, keep it
/// pending and retry.
///
/// Arbitration ids are positions in the coordinator's compacted pending
/// array, so they change every cycle as messages around a survivor
/// deliver; the remap lists this shard's survivors' new ids, in pending
/// (FIFO) order, packed two per word. After retiring the bitmap's verdicts
/// and its own local deliveries, the worker's compacted pending aligns
/// with the remap one-to-one — a length mismatch is a protocol error.
pub struct CycleView<'a> {
    pub cycle: u64,
    pub arb_seed: u64,
    /// Number of meaningful bits (= previous export count).
    pub verdicts: u32,
    pub bits: &'a [u64],
    /// Number of remapped ids (= the shard's pending count this cycle).
    pub nids: u32,
    ids: &'a [u64],
}

impl<'a> CycleView<'a> {
    pub fn encode_into(
        out: &mut Vec<u64>,
        cycle: u64,
        arb_seed: u64,
        verdicts: u32,
        bits: &[u64],
        ids: &[u32],
    ) {
        debug_assert_eq!(bits.len(), verdicts.div_ceil(64) as usize);
        out.reserve(3 + bits.len() + ids.len().div_ceil(2));
        out.extend([cycle, arb_seed, (verdicts as u64) << 32 | ids.len() as u64]);
        out.extend_from_slice(bits);
        for pair in ids.chunks(2) {
            let hi = pair.get(1).copied().unwrap_or(0) as u64;
            out.push(hi << 32 | pair[0] as u64);
        }
    }

    pub fn parse(p: &'a [u64]) -> Result<CycleView<'a>, ProtoError> {
        if p.len() < 3 {
            return err("CYCLE too short");
        }
        let verdicts = (p[2] >> 32) as u32;
        let nids = p[2] as u32;
        let nbits = verdicts.div_ceil(64) as usize;
        // Both counts are u32 fields: the sum cannot wrap in u64.
        if p.len() as u64 != 3 + nbits as u64 + (nids as u64).div_ceil(2) {
            return err("CYCLE length mismatch");
        }
        Ok(CycleView {
            cycle: p[0],
            arb_seed: p[1],
            verdicts,
            bits: &p[3..3 + nbits],
            nids,
            ids: &p[3 + nbits..],
        })
    }

    /// Verdict for export index `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }

    /// Remapped id at pending position `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        (self.ids[i / 2] >> (32 * (i % 2))) as u32
    }
}

/// The claim-list body, two words per claim: `id | wire` packed in one
/// word (the wire rank is the claim's *winner index* on its boundary
/// channel) and the 62-bit descriptor (LCA + leaves, flags implied — see
/// [`ShardClaim::descriptor`]). Rides in `Claims2`
/// (worker → coordinator, `header` = up-phase compute ns) and `Incoming2`
/// (coordinator → worker, `header` = 0).
pub struct ClaimsV2;

impl ClaimsV2 {
    pub fn encode_into(out: &mut Vec<u64>, header: u64, claims: &[ShardClaim]) {
        out.reserve(2 + 2 * claims.len());
        out.extend([header, claims.len() as u64]);
        for c in claims {
            out.push((c.id as u64) << 32 | c.wire as u64);
            out.push(c.descriptor());
        }
    }

    /// Append the decoded claims to `out` (cleared by the caller when a
    /// fresh list is wanted) and return the header word.
    pub fn decode_into(p: &[u64], out: &mut Vec<ShardClaim>) -> Result<u64, ProtoError> {
        if p.len() < 2 {
            return err("CLAIMS2 too short");
        }
        if !len_is(p, 2, 2, p[1]) {
            return err("CLAIMS2 length mismatch");
        }
        out.reserve(p[1] as usize);
        for pair in p[2..].chunks_exact(2) {
            out.push(ShardClaim::from_descriptor(
                (pair[0] >> 32) as u32,
                pair[0] as u32,
                pair[1],
            ));
        }
        Ok(p[0])
    }
}

/// What a healthy peer can put in a claim list crossing one shard's
/// boundary channel. [`ClaimsV2::decode_into`] only shapes words into
/// claims; the level passes then index slot tables by their leaves and
/// wires, so both ends run a decoded list through this before an arena
/// sees it. A claim passes when the leaf on the shard's side lies under its
/// boundary node, the other leaf under a different one (so the path turns
/// above the boundary), the descriptor names exactly that turn, and its
/// wire is a rank of the boundary channel no other claim of the list holds.
pub struct ClaimCheck {
    height: u32,
    boundary: u32,
    /// `taken[w]` — wire `w` of the boundary channel is held by a claim of
    /// the list being checked; all clear between lists.
    taken: Vec<bool>,
}

impl ClaimCheck {
    pub fn new(ft: &FatTree, boundary: u32) -> Self {
        ClaimCheck {
            height: ft.height(),
            boundary,
            taken: vec![false; ft.cap_at_level(boundary) as usize],
        }
    }

    /// Does heap leaf `leaf` lie under `shard`'s boundary node?
    pub fn owns(&self, shard: u32, leaf: u32) -> bool {
        leaf >> (self.height - self.boundary) == (1 << self.boundary) + shard
    }

    /// Check a list that left `shard` (`outbound`: CLAIMS2, sources inside
    /// it) or enters it (INCOMING2, destinations inside it).
    pub fn check(
        &mut self,
        claims: &[ShardClaim],
        shard: u32,
        outbound: bool,
    ) -> Result<(), ProtoError> {
        let ok = claims.iter().all(|c| {
            let (s, d) = (c.src_leaf(), c.dst_leaf());
            let (own, other) = if outbound { (s, d) } else { (d, s) };
            // Two leaves' heap ids differ first at their LCA's child bit;
            // the word layout is `ShardClaim::descriptor`'s.
            let turn = self.height.wrapping_sub(32 - (s ^ d).leading_zeros());
            self.owns(shard, own)
                && other >> self.height == 1
                && !self.owns(shard, other)
                && c.descriptor() == turn as u64 | (s as u64) << 6 | (d as u64) << 34
                && self
                    .taken
                    .get_mut(c.wire as usize)
                    .is_some_and(|t| !std::mem::replace(t, true))
        });
        for c in claims {
            if let Some(t) = self.taken.get_mut(c.wire as usize) {
                *t = false;
            }
        }
        if ok {
            Ok(())
        } else {
            err("claim outside its shard boundary channel")
        }
    }
}

/// Borrowing view of an OUTCOMES payload — the coordinator's hot loop
/// walks delivered ids in place instead of materializing a vector.
pub struct OutcomesView<'a> {
    pub compute_ns: u64,
    pub ticks: u32,
    pub delivered: &'a [u64],
}

impl<'a> OutcomesView<'a> {
    /// Append the OUTCOMES payload to an open frame.
    pub fn encode_into(out: &mut Vec<u64>, compute_ns: u64, ticks: u32, delivered: &[u32]) {
        out.reserve(3 + delivered.len());
        out.extend([compute_ns, ticks as u64, delivered.len() as u64]);
        out.extend(delivered.iter().map(|&d| d as u64));
    }

    pub fn parse(p: &'a [u64]) -> Result<OutcomesView<'a>, ProtoError> {
        if p.len() < 3 {
            return err("OUTCOMES too short");
        }
        if !len_is(p, 3, 1, p[2]) {
            return err("OUTCOMES length mismatch");
        }
        Ok(OutcomesView {
            compute_ns: p[0],
            ticks: p[1] as u32,
            delivered: &p[3..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_roundtrip_every_profile() {
        let profiles = [
            CapacityProfile::Universal { root_capacity: 16 },
            CapacityProfile::Constant(2),
            CapacityProfile::FullDoubling,
            // lg 64 + 1 levels: a shorter table is refused (worker tests).
            CapacityProfile::PerLevel(vec![8, 8, 4, 4, 2, 1, 1]),
            CapacityProfile::UniversalWithDegree {
                root_capacity: 32,
                degree: 3,
            },
        ];
        for profile in profiles {
            let init = InitMsg {
                n: 64,
                boundary: 2,
                shard: 3,
                proto: crate::wire::PROTO_VERSION,
                sim: SimConfig {
                    payload_bits: 48,
                    switch: SwitchKind::Partial,
                    arbitration: Arbitration::Random(77),
                    faults: FaultModel {
                        dead_wire_fraction: 0.25,
                        seed: 5,
                    },
                    meta: MetaWidth::Wide,
                },
                plan: FaultPlan {
                    drop: 0.5,
                    duplicate: 0.25,
                    corrupt: 0.125,
                    delay_ms: 9,
                    seed: 11,
                },
                profile: profile.clone(),
            };
            let back = InitMsg::decode(&init.encode()).unwrap();
            assert_eq!(back.n, 64);
            assert_eq!(back.boundary, 2);
            assert_eq!(back.shard, 3);
            assert_eq!(back.proto, crate::wire::PROTO_VERSION);
            assert_eq!(back.sim.payload_bits, 48);
            assert_eq!(back.sim.arbitration, Arbitration::Random(77));
            assert_eq!(back.sim.faults.dead_wire_fraction, 0.25);
            assert_eq!(back.plan.delay_ms, 9);
            assert_eq!(back.profile, profile);
        }
    }

    #[test]
    fn init_admits_exactly_the_trees_fattree_admits() {
        let init = |n| InitMsg {
            n,
            boundary: 0,
            shard: 0,
            proto: crate::wire::PROTO_VERSION,
            sim: SimConfig::default(),
            plan: FaultPlan::none(),
            profile: CapacityProfile::FullDoubling,
        };
        let max = 1 << FatTree::MAX_HEIGHT;
        assert_eq!(InitMsg::decode(&init(max).encode()).unwrap().n, max);
        let e = InitMsg::decode(&init(2 * max).encode()).unwrap_err();
        assert!(e.0.contains("power of two"), "{e}");
    }

    #[test]
    fn init_rejects_any_other_protocol_version() {
        // 0 is what a version-1 peer sent (it left the high bits clear).
        for proto in [0, 1, crate::wire::PROTO_VERSION + 1] {
            let init = InitMsg {
                n: 64,
                boundary: 2,
                shard: 3,
                proto,
                sim: SimConfig::default(),
                plan: FaultPlan::none(),
                profile: CapacityProfile::FullDoubling,
            };
            let e = InitMsg::decode(&init.encode()).unwrap_err();
            assert!(e.0.contains("version"), "proto={proto}: {e}");
        }
    }

    #[test]
    fn load_cycle_claims2_outcomes_roundtrip() {
        let ids = [2u32, 7, 8];
        let msgs = [Message::new(1, 9), Message::new(4, 0), Message::new(2, 6)];
        let mut p = Vec::new();
        LoadMsg::encode_into(&mut p, 12, &ids, &msgs);
        let l = LoadMsg::decode(&p).unwrap();
        assert_eq!(l.total, 12);
        assert_eq!(l.ids, ids);
        assert_eq!(l.msgs, msgs);

        let mut p = Vec::new();
        CycleView::encode_into(&mut p, 5, 0xFEED, 66, &[u64::MAX, 0b10], &[4, 9, 1000]);
        let c = CycleView::parse(&p).unwrap();
        assert_eq!(
            (c.cycle, c.arb_seed, c.verdicts, c.nids),
            (5, 0xFEED, 66, 3)
        );
        assert!(c.bit(0) && c.bit(63) && !c.bit(64) && c.bit(65));
        assert_eq!((c.id(0), c.id(1), c.id(2)), (4, 9, 1000));

        // Claims survive the two-word compact encoding exactly, including
        // the descriptor round-trip through `ShardClaim::from_descriptor`.
        let claims = [
            ShardClaim::from_descriptor(7, 3, (5 << 34) | (9 << 6) | 1),
            ShardClaim::from_descriptor(8, 0, 2),
        ];
        let mut p = Vec::new();
        ClaimsV2::encode_into(&mut p, 1234, &claims);
        let mut back = Vec::new();
        assert_eq!(ClaimsV2::decode_into(&p, &mut back).unwrap(), 1234);
        assert_eq!(back, claims);
        // Two words per claim on the wire.
        assert_eq!(p.len(), 2 + 2 * claims.len());
        assert!(ClaimsV2::decode_into(&p[..3], &mut back).is_err());

        let mut p = Vec::new();
        OutcomesView::encode_into(&mut p, 9, 88, &[2, 4, 6]);
        let v = OutcomesView::parse(&p).unwrap();
        assert_eq!((v.compute_ns, v.ticks), (9, 88));
        assert_eq!(v.delivered, &[2, 4, 6]);
        assert!(OutcomesView::parse(&[0, 0, 9]).is_err());

        assert!(LoadMsg::decode(&[5]).is_err());
        assert!(CycleView::parse(&[0, 0, 65, 1]).is_err());
        // A count chosen so that `head + per * count` wraps back to the
        // real length must fail the length check, not reach `reserve`.
        assert!(LoadMsg::decode(&[0, 1 << 63]).is_err());
        assert!(ClaimsV2::decode_into(&[0, 1 << 63], &mut back).is_err());
        assert!(OutcomesView::parse(&[0, 0, u64::MAX - 2]).is_err());
    }

    #[test]
    fn claim_check_accepts_only_lists_a_boundary_channel_can_carry() {
        // n = 16 sharded in four: shard 1 owns leaves 20..24, and its
        // boundary channel has 16 >> 2 = 4 wires.
        let ft = FatTree::new(16, CapacityProfile::FullDoubling);
        let mut check = ClaimCheck::new(&ft, 2);
        let claim = |wire, turn: u64, src: u64, dst: u64| {
            ShardClaim::from_descriptor(7, wire, turn | src << 6 | dst << 34)
        };
        let good = [claim(0, 0, 21, 30), claim(3, 1, 22, 16)];
        check.check(&good, 1, true).unwrap();
        check
            .check(&good, 1, true)
            .expect("wires released after a list");
        check.check(&good[..1], 3, false).unwrap();
        for bad in [
            claim(0, 0, 25, 30), // source under shard 2's node
            claim(0, 0, 21, 40), // destination past the last leaf
            claim(0, 2, 21, 23), // turns inside the shard
            claim(0, 1, 21, 30), // descriptor names the wrong turn
            claim(4, 0, 21, 30), // wire past the channel
            claim(3, 0, 21, 30), // wire already held by `good[1]`
        ] {
            assert!(check.check(&[good[1], bad], 1, true).is_err(), "{bad:?}");
        }
    }
}
