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

/// Worker-side error codes carried by an `Error` frame.
pub const ERR_UNINITIALIZED: u64 = 1;
pub const ERR_SEQ_DESYNC: u64 = 2;
pub const ERR_BAD_PAYLOAD: u64 = 3;
/// A `Cycle` arrived before the pending set was shipped with `Load`.
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

    pub fn decode(p: &[u64]) -> Result<InitMsg, ProtoError> {
        if p.len() < 17 {
            return err("INIT too short");
        }
        let profile = match p[14] {
            0 => CapacityProfile::Universal {
                root_capacity: p[15],
            },
            1 => CapacityProfile::Constant(p[15]),
            2 => CapacityProfile::FullDoubling,
            3 => {
                let len = p[15] as usize;
                if p.len() != 17 + len {
                    return err("INIT per-level capacity count mismatch");
                }
                CapacityProfile::PerLevel(p[17..].to_vec())
            }
            4 => CapacityProfile::UniversalWithDegree {
                root_capacity: p[15],
                degree: p[16],
            },
            _ => return err("INIT unknown capacity profile"),
        };
        let proto = (p[2] >> 32) as u32;
        if proto != crate::wire::PROTO_VERSION {
            return err("INIT protocol version mismatch");
        }
        Ok(InitMsg {
            n: p[0] as u32,
            boundary: p[1] as u32,
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
        })
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

/// A shard's settled cycle: delivered global ids and the local tick max.
pub struct OutcomesMsg {
    pub compute_ns: u64,
    pub ticks: u32,
    pub delivered: Vec<u32>,
}

impl OutcomesMsg {
    pub fn encode(compute_ns: u64, ticks: u32, delivered: &[u32]) -> Vec<u64> {
        let mut p = Vec::with_capacity(3 + delivered.len());
        Self::encode_into(&mut p, compute_ns, ticks, delivered);
        p
    }

    /// Append the OUTCOMES payload to an open frame.
    pub fn encode_into(out: &mut Vec<u64>, compute_ns: u64, ticks: u32, delivered: &[u32]) {
        out.reserve(3 + delivered.len());
        out.extend([compute_ns, ticks as u64, delivered.len() as u64]);
        out.extend(delivered.iter().map(|&d| d as u64));
    }

    pub fn decode(p: &[u64]) -> Result<OutcomesMsg, ProtoError> {
        if p.len() < 3 {
            return err("OUTCOMES too short");
        }
        if p.len() != 3 + p[2] as usize {
            return err("OUTCOMES length mismatch");
        }
        Ok(OutcomesMsg {
            compute_ns: p[0],
            ticks: p[1] as u32,
            delivered: p[3..].iter().map(|&d| d as u32).collect(),
        })
    }
}

/// The LOAD request: a shard's complete pending-message set, shipped
/// once per run. `total` is the coordinator-global message count, which
/// bounds every id the worker will ever see (its own and incoming claims'),
/// so the worker can size its membership table up front.
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
        let count = p[1] as usize;
        if p.len() != 2 + 2 * count {
            return err("LOAD length mismatch");
        }
        let mut ids = Vec::with_capacity(count);
        let mut msgs = Vec::with_capacity(count);
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
        if p.len() != 3 + nbits + (nids as usize).div_ceil(2) {
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
        let count = p[1] as usize;
        if p.len() != 2 + 2 * count {
            return err("CLAIMS2 length mismatch");
        }
        out.reserve(count);
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

/// Borrowing view of an OUTCOMES payload — the coordinator's hot loop
/// walks delivered ids in place instead of materializing a vector.
pub struct OutcomesView<'a> {
    pub compute_ns: u64,
    pub ticks: u32,
    pub delivered: &'a [u64],
}

impl<'a> OutcomesView<'a> {
    pub fn parse(p: &'a [u64]) -> Result<OutcomesView<'a>, ProtoError> {
        if p.len() < 3 {
            return err("OUTCOMES too short");
        }
        if p.len() != 3 + p[2] as usize {
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
            CapacityProfile::PerLevel(vec![8, 4, 2, 1]),
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
    fn outcomes_roundtrip() {
        let o = OutcomesMsg::decode(&OutcomesMsg::encode(9, 88, &[2, 4, 6])).unwrap();
        assert_eq!((o.compute_ns, o.ticks), (9, 88));
        assert_eq!(o.delivered, vec![2, 4, 6]);

        assert!(OutcomesMsg::decode(&[0, 0, 9]).is_err());
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

        let p = OutcomesMsg::encode(9, 88, &[2, 4, 6]);
        let v = OutcomesView::parse(&p).unwrap();
        assert_eq!((v.compute_ns, v.ticks), (9, 88));
        assert_eq!(v.delivered, &[2, 4, 6]);

        assert!(LoadMsg::decode(&[5]).is_err());
        assert!(CycleView::parse(&[0, 0, 65, 1]).is_err());
    }
}
