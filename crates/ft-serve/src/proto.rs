//! Serve-protocol payload codecs over [`ft_shard::wire`] frames.
//!
//! The service speaks the same length-prefixed checksummed packed-u64
//! frames as the cross-shard protocol — [`ft_shard::wire::read_frame`] /
//! [`write_frame_buf`] on the byte stream, [`begin_frame`] / [`end_frame`]
//! for pooled in-place composition — with five serve-specific frame kinds
//! (`Hello`, `HelloAck`, `Req`, `Resp`, `Busy`). The `shard` header field
//! carries the server-assigned connection id and `seq` echoes the client's
//! per-connection request sequence, so responses from a coalesced batch
//! demultiplex without any per-request state on the wire.
//!
//! Payload layouts (all words u64):
//!
//! ```text
//! Hello     [version, n<<32 | w]
//! HelloAck  [version, n<<32 | w, slots<<32 | window_us, inflight<<32 | max_msgs]
//! Req       [req_id, engine, seed, msg…]          msg = src<<32 | dst
//! Resp      [req_id, engine, num_cycles, flags, data…]
//! Busy      [req_id, inflight<<32 | limit]
//! ```
//!
//! `Resp.data` packs two u32 values per word (low half first): for the
//! schedule engine, one delivery-cycle id per request message in request
//! order; for the online engine, messages delivered per cycle. `flags` is
//! reserved-zero for schedule responses — deliberately *not* λ, which for a
//! coalesced pass is the batch maximum, not the solo value — and carries
//! the truncation bit for online responses.
//!
//! [`write_frame_buf`]: ft_shard::wire::write_frame_buf
//! [`begin_frame`]: ft_shard::wire::begin_frame
//! [`end_frame`]: ft_shard::wire::end_frame

use ft_shard::wire::{begin_frame, end_frame, FrameKind};

/// Version of the serve handshake/payload layout (independent of the
/// underlying frame protocol's [`ft_shard::wire::PROTO_VERSION`]).
pub const SERVE_PROTO_VERSION: u64 = 1;

/// Hard cap on messages per request; a `Req` announcing more is rejected
/// as a protocol error rather than admitted into a batch.
pub const MAX_REQ_MSGS: usize = 1 << 20;

/// Which engine a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Engine {
    /// Off-line Theorem 1 scheduling: response data is one cycle id per
    /// request message. Coalesced across requests in one shared pass.
    Schedule = 0,
    /// On-line randomized routing: response data is delivered-per-cycle.
    /// Served per-request on the shared warmed arena.
    Online = 1,
}

impl Engine {
    /// Decode an engine selector word.
    pub fn from_u64(v: u64) -> Option<Engine> {
        match v {
            0 => Some(Engine::Schedule),
            1 => Some(Engine::Online),
            _ => None,
        }
    }
}

/// Why a serve payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Payload shorter than the fixed header for its kind.
    Truncated,
    /// Handshake version mismatch.
    BadVersion(u64),
    /// Unknown engine selector.
    BadEngine(u64),
    /// A message endpoint is outside the served tree's leaves.
    BadLeaf { src: u32, dst: u32, n: u32 },
    /// More messages than [`MAX_REQ_MSGS`].
    TooManyMessages(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Truncated => write!(f, "serve payload truncated"),
            ServeError::BadVersion(v) => write!(
                f,
                "serve protocol version mismatch: got {v}, want {SERVE_PROTO_VERSION}"
            ),
            ServeError::BadEngine(v) => write!(f, "unknown engine selector {v}"),
            ServeError::BadLeaf { src, dst, n } => {
                write!(f, "message {src}->{dst} outside tree with {n} leaves")
            }
            ServeError::TooManyMessages(m) => {
                write!(f, "request carries {m} messages (cap {MAX_REQ_MSGS})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Compose a `Hello` frame in place.
pub fn encode_hello(buf: &mut Vec<u64>, conn: u16, n: u32, w: u64) {
    debug_assert!(w <= u32::MAX as u64, "root capacity must fit 32 bits");
    begin_frame(buf, FrameKind::Hello, conn, 0);
    buf.push(SERVE_PROTO_VERSION);
    buf.push((n as u64) << 32 | w);
    end_frame(buf);
}

/// Decode a `Hello` payload into `(n, w)`.
pub fn decode_hello(p: &[u64]) -> Result<(u32, u64), ServeError> {
    if p.len() < 2 {
        return Err(ServeError::Truncated);
    }
    if p[0] != SERVE_PROTO_VERSION {
        return Err(ServeError::BadVersion(p[0]));
    }
    Ok(((p[1] >> 32) as u32, p[1] & 0xFFFF_FFFF))
}

/// Server-side handshake reply: the accepted shape plus the batching and
/// admission limits the client should pace against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    pub n: u32,
    pub w: u64,
    pub slots: u32,
    pub window_us: u32,
    pub inflight: u32,
    pub max_msgs: u32,
}

/// Compose a `HelloAck` frame in place.
pub fn encode_hello_ack(buf: &mut Vec<u64>, conn: u16, ack: &HelloAck) {
    begin_frame(buf, FrameKind::HelloAck, conn, 0);
    buf.push(SERVE_PROTO_VERSION);
    buf.push((ack.n as u64) << 32 | ack.w);
    buf.push((ack.slots as u64) << 32 | ack.window_us as u64);
    buf.push((ack.inflight as u64) << 32 | ack.max_msgs as u64);
    end_frame(buf);
}

/// Decode a `HelloAck` payload.
pub fn decode_hello_ack(p: &[u64]) -> Result<HelloAck, ServeError> {
    if p.len() < 4 {
        return Err(ServeError::Truncated);
    }
    if p[0] != SERVE_PROTO_VERSION {
        return Err(ServeError::BadVersion(p[0]));
    }
    Ok(HelloAck {
        n: (p[1] >> 32) as u32,
        w: p[1] & 0xFFFF_FFFF,
        slots: (p[2] >> 32) as u32,
        window_us: p[2] as u32,
        inflight: (p[3] >> 32) as u32,
        max_msgs: p[3] as u32,
    })
}

/// Borrowed view of a decoded `Req` payload. `msgs` stays packed
/// (`src<<32 | dst` per word); [`crate::core::BatchBuf::admit`] unpacks and
/// validates while copying into the batch.
#[derive(Clone, Copy, Debug)]
pub struct ReqView<'a> {
    pub req_id: u64,
    pub engine: Engine,
    pub seed: u64,
    pub msgs: &'a [u64],
}

impl ReqView<'_> {
    /// Check that every message's endpoints are leaves of an `n`-leaf
    /// tree. The server's reader answers a failure with an `Error` frame;
    /// [`crate::core::BatchBuf::admit`] refuses it without side effects.
    pub fn check_leaves(&self, n: u32) -> Result<(), ServeError> {
        for &w in self.msgs {
            let (src, dst) = ((w >> 32) as u32, w as u32);
            if src >= n || dst >= n {
                return Err(ServeError::BadLeaf { src, dst, n });
            }
        }
        Ok(())
    }
}

/// Begin composing a `Req` frame: header words only. Push packed
/// `src<<32 | dst` message words, then seal with
/// [`ft_shard::wire::end_frame`].
pub fn begin_req(buf: &mut Vec<u64>, conn: u16, seq: u32, req_id: u64, engine: Engine, seed: u64) {
    begin_frame(buf, FrameKind::Req, conn, seq);
    buf.push(req_id);
    buf.push(engine as u64);
    buf.push(seed);
}

/// Decode a `Req` payload.
pub fn decode_req(p: &[u64]) -> Result<ReqView<'_>, ServeError> {
    if p.len() < 3 {
        return Err(ServeError::Truncated);
    }
    let engine = Engine::from_u64(p[1]).ok_or(ServeError::BadEngine(p[1]))?;
    let msgs = &p[3..];
    if msgs.len() > MAX_REQ_MSGS {
        return Err(ServeError::TooManyMessages(msgs.len()));
    }
    Ok(ReqView {
        req_id: p[0],
        engine,
        seed: p[2],
        msgs,
    })
}

/// Borrowed view of a decoded `Resp` payload; `values(i)` unpacks the
/// `i`-th u32 from the pair-packed data words.
#[derive(Clone, Copy, Debug)]
pub struct RespView<'a> {
    pub req_id: u64,
    pub engine: Engine,
    pub num_cycles: u32,
    pub flags: u64,
    pub data: &'a [u64],
}

impl RespView<'_> {
    /// The `i`-th packed u32 value (cycle id or delivered count).
    pub fn value(&self, i: usize) -> u32 {
        let w = self.data[i / 2];
        if i.is_multiple_of(2) {
            w as u32
        } else {
            (w >> 32) as u32
        }
    }
}

/// Decode a `Resp` payload.
pub fn decode_resp(p: &[u64]) -> Result<RespView<'_>, ServeError> {
    if p.len() < 4 {
        return Err(ServeError::Truncated);
    }
    let engine = Engine::from_u64(p[1]).ok_or(ServeError::BadEngine(p[1]))?;
    Ok(RespView {
        req_id: p[0],
        engine,
        num_cycles: p[2] as u32,
        flags: p[3],
        data: &p[4..],
    })
}

/// Compose a `Busy` reject frame in place.
pub fn encode_busy(
    buf: &mut Vec<u64>,
    conn: u16,
    seq: u32,
    req_id: u64,
    inflight: u32,
    limit: u32,
) {
    begin_frame(buf, FrameKind::Busy, conn, seq);
    buf.push(req_id);
    buf.push((inflight as u64) << 32 | limit as u64);
    end_frame(buf);
}

/// Decoded `Busy` payload: `(req_id, inflight, limit)`.
pub fn decode_busy(p: &[u64]) -> Result<(u64, u32, u32), ServeError> {
    if p.len() < 2 {
        return Err(ServeError::Truncated);
    }
    Ok((p[0], (p[1] >> 32) as u32, p[1] as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_shard::wire::{decode, end_frame};

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 3, 256, 64);
        let f = decode(&buf).unwrap();
        assert_eq!(f.kind, FrameKind::Hello);
        assert_eq!(f.shard, 3);
        assert_eq!(decode_hello(f.payload).unwrap(), (256, 64));

        let mut ack_buf = Vec::new();
        let ack = HelloAck {
            n: 256,
            w: 64,
            slots: 8,
            window_us: 200,
            inflight: 64,
            max_msgs: 4096,
        };
        encode_hello_ack(&mut ack_buf, 3, &ack);
        let f = decode(&ack_buf).unwrap();
        assert_eq!(f.kind, FrameKind::HelloAck);
        assert_eq!(decode_hello_ack(f.payload).unwrap(), ack);
    }

    #[test]
    fn req_roundtrip_and_validation() {
        let mut buf = Vec::new();
        begin_req(&mut buf, 7, 42, 99, Engine::Schedule, 1985);
        buf.push(5u64 << 32 | 9);
        buf.push(255); // src 0, dst 255
        end_frame(&mut buf);
        let f = decode(&buf).unwrap();
        assert_eq!((f.kind, f.shard, f.seq), (FrameKind::Req, 7, 42));
        let req = decode_req(f.payload).unwrap();
        assert_eq!((req.req_id, req.seed), (99, 1985));
        assert_eq!(req.engine, Engine::Schedule);
        assert_eq!(req.msgs, &[5u64 << 32 | 9, 255]);
    }

    #[test]
    fn req_rejects_bad_engine_and_truncation() {
        assert!(matches!(decode_req(&[1, 2]), Err(ServeError::Truncated)));
        assert!(matches!(
            decode_req(&[0, 7, 0]),
            Err(ServeError::BadEngine(7))
        ));
        assert!(matches!(
            decode_hello(&[2, 0]),
            Err(ServeError::BadVersion(2))
        ));
    }

    #[test]
    fn resp_value_unpacking() {
        let p = [9u64, 1, 3, 1, 20u64 << 32 | 10, 5];
        let r = decode_resp(&p).unwrap();
        assert_eq!(r.engine, Engine::Online);
        assert_eq!(r.num_cycles, 3);
        assert_eq!(r.flags, 1);
        assert_eq!((r.value(0), r.value(1), r.value(2)), (10, 20, 5));
    }

    #[test]
    fn busy_roundtrip() {
        let mut buf = Vec::new();
        encode_busy(&mut buf, 2, 8, 77, 65, 64);
        let f = decode(&buf).unwrap();
        assert_eq!(f.kind, FrameKind::Busy);
        assert_eq!(decode_busy(f.payload).unwrap(), (77, 65, 64));
    }
}
