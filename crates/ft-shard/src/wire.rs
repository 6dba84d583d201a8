//! The cross-shard wire format: length-prefixed packed-u64 frames.
//!
//! Every coordinator↔worker exchange is one *frame* — a flat `u64` vector
//! so the in-process transport moves it without serialization and the pipe
//! transport writes it as little-endian words:
//!
//! ```text
//! word 0   magic(16) | kind(8) | shard(16) | seq(24)
//! word 1   payload length in words
//! word 2…  payload
//! last     checksum over every preceding word
//! ```
//!
//! The sequence number makes requests idempotent (workers answer a replayed
//! request from cache), the checksum catches corrupted frames, and the
//! length prefix keeps a byte stream self-framing. Fault injection never
//! touches words 0–1 on purpose: a byte-stream transport (pipes) relies on
//! the length word for framing, so injected corruption models a payload
//! flipped in flight, not a desynchronized stream (see [`crate::fault`]).

/// Frame magic, in the top 16 bits of word 0.
pub const MAGIC: u64 = 0xF75D;

/// Protocol version spoken by this build: the overlapped coordinator's
/// frame kinds (`Load`/`Cycle`/`Claims2`/`Incoming2`) and the compact
/// two-word claim encodings. [`crate::proto::InitMsg`] carries the version,
/// and a worker rejects an INIT announcing any other. Version 1's lock-step
/// kinds (3, 4, 5) are retired: their numbers stay unassigned and decode to
/// [`WireError::BadKind`].
pub const PROTO_VERSION: u32 = 2;

/// Hard cap on payload length: a frame announcing more than this is
/// rejected as a protocol error instead of a giant allocation or a hang.
pub const MAX_PAYLOAD_WORDS: u64 = 1 << 24;

/// Frame header + checksum overhead, in words.
pub const OVERHEAD_WORDS: usize = 3;

/// Frame kinds. Requests flow coordinator → worker, responses back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Coordinator → worker: tree shape, sim config, shard index, fault
    /// plan. First frame on every link (seq 0).
    Init = 1,
    /// Worker → coordinator: INIT applied.
    InitAck = 2,
    /// Worker → coordinator: delivered ids and the shard's cycle ticks.
    Outcomes = 6,
    /// Coordinator → worker: drain and exit.
    Shutdown = 7,
    /// Worker → coordinator: exiting.
    ShutdownAck = 8,
    /// Worker → coordinator: unrecoverable worker-side failure (code in
    /// payload word 0, see [`crate::ShardError::Worker`]).
    Error = 9,
    /// Coordinator → worker: the shard's full pending-message set,
    /// shipped once per run. The worker retains and compacts it locally, so
    /// per-cycle traffic no longer carries message bodies.
    Load = 10,
    /// Worker → coordinator: LOAD applied.
    LoadAck = 11,
    /// Coordinator → worker: start a delivery cycle — the per-cycle
    /// arbitration seed plus a verdict bitmap over the claims this shard
    /// exported last cycle (bit set = delivered remotely, drop it from
    /// pending; clear = retry it).
    Cycle = 12,
    /// Worker → coordinator: surviving root-crossers after the up passes,
    /// two words per claim (`id|wire`, descriptor).
    Claims2 = 13,
    /// Coordinator → worker: top-arbitration winners descending into
    /// this shard, in the same two-word encoding.
    Incoming2 = 14,
    /// Client → server (serve): handshake — protocol version and the tree
    /// shape the client expects. First frame on every connection.
    Hello = 15,
    /// Server → client (serve): handshake accepted; echoes the version and
    /// shape, and announces the server's batching/admission limits.
    HelloAck = 16,
    /// Client → server (serve): one routing request — engine selector,
    /// seed, and the message set to schedule.
    Req = 17,
    /// Server → client (serve): the scheduled response for one request,
    /// byte-identical to what a solo run would produce.
    Resp = 18,
    /// Server → client (serve): request rejected by admission control —
    /// the in-flight queue is full. Payload carries the request id and the
    /// queue occupancy/limit so clients can back off.
    Busy = 19,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Init,
            2 => FrameKind::InitAck,
            6 => FrameKind::Outcomes,
            7 => FrameKind::Shutdown,
            8 => FrameKind::ShutdownAck,
            9 => FrameKind::Error,
            10 => FrameKind::Load,
            11 => FrameKind::LoadAck,
            12 => FrameKind::Cycle,
            13 => FrameKind::Claims2,
            14 => FrameKind::Incoming2,
            15 => FrameKind::Hello,
            16 => FrameKind::HelloAck,
            17 => FrameKind::Req,
            18 => FrameKind::Resp,
            19 => FrameKind::Busy,
            _ => return None,
        })
    }
}

/// Why a received word vector is not a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer than the header + checksum words.
    TooShort,
    /// Word 0 does not carry the magic.
    BadMagic,
    /// Unknown frame kind.
    BadKind(u8),
    /// Announced payload length exceeds [`MAX_PAYLOAD_WORDS`].
    Oversize(u64),
    /// Announced payload length disagrees with the vector length.
    LengthMismatch,
    /// Checksum failed — the frame was corrupted in flight.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "frame too short"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "oversize frame ({n} payload words)"),
            WireError::LengthMismatch => write!(f, "frame length mismatch"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// A decoded view into a frame's words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    pub kind: FrameKind,
    pub shard: u16,
    pub seq: u32,
    pub payload: &'a [u64],
}

/// FNV-1a over the words, splitmix-finalized: cheap, and plenty to catch
/// injected bit flips (this is an integrity check, not cryptography).
pub fn checksum(words: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }
    ft_core::rng::splitmix64(h)
}

/// Encode one frame. `seq` is truncated to 24 bits (the coordinator issues
/// seqs sequentially; 16M requests outlive any simulated run).
pub fn encode(kind: FrameKind, shard: u16, seq: u32, payload: &[u64]) -> Vec<u64> {
    let mut words = Vec::with_capacity(payload.len() + OVERHEAD_WORDS);
    begin_frame(&mut words, kind, shard, seq);
    words.extend_from_slice(payload);
    end_frame(&mut words);
    words
}

/// Start composing a frame directly into `buf` (cleared first): header
/// words only. Push the payload, then seal with [`end_frame`]. Splitting
/// the composition this way lets hot paths build payloads in place in a
/// grow-only buffer — no intermediate payload vector, no per-frame
/// allocation once the buffer has reached steady-state size.
pub fn begin_frame(buf: &mut Vec<u64>, kind: FrameKind, shard: u16, seq: u32) {
    buf.clear();
    buf.push(MAGIC << 48 | (kind as u64) << 40 | (shard as u64) << 24 | (seq as u64 & 0x00FF_FFFF));
    buf.push(0); // payload length, patched by `end_frame`
}

/// Seal a frame begun with [`begin_frame`]: patch the length word and
/// append the checksum.
pub fn end_frame(buf: &mut Vec<u64>) {
    debug_assert!(buf.len() >= 2, "end_frame without begin_frame");
    let payload_len = (buf.len() - 2) as u64;
    debug_assert!(payload_len < MAX_PAYLOAD_WORDS);
    buf[1] = payload_len;
    buf.push(checksum(buf));
}

/// Validate and decode a frame.
pub fn decode(words: &[u64]) -> Result<Frame<'_>, WireError> {
    if words.len() < OVERHEAD_WORDS {
        return Err(WireError::TooShort);
    }
    let w0 = words[0];
    if w0 >> 48 != MAGIC {
        return Err(WireError::BadMagic);
    }
    let kind = FrameKind::from_u8((w0 >> 40) as u8).ok_or(WireError::BadKind((w0 >> 40) as u8))?;
    let len = words[1];
    if len >= MAX_PAYLOAD_WORDS {
        return Err(WireError::Oversize(len));
    }
    if words.len() != len as usize + OVERHEAD_WORDS {
        return Err(WireError::LengthMismatch);
    }
    let body = &words[..words.len() - 1];
    if checksum(body) != words[words.len() - 1] {
        return Err(WireError::BadChecksum);
    }
    Ok(Frame {
        kind,
        shard: (w0 >> 24) as u16,
        seq: w0 as u32 & 0x00FF_FFFF,
        payload: &words[2..words.len() - 1],
    })
}

/// Write a frame as little-endian bytes (the pipe link's encoding) through
/// a caller-owned scratch buffer, so a transport thread streaming many
/// frames byte-encodes them without per-frame allocation.
pub fn write_frame_buf<W: std::io::Write>(
    w: &mut W,
    words: &[u64],
    bytes: &mut Vec<u8>,
) -> std::io::Result<()> {
    bytes.clear();
    for &word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    w.write_all(bytes)?;
    w.flush()
}

/// Most payload bytes [`read_frame`] asks the stream for at once, and so
/// the most it allocates ahead of the bytes that have actually arrived.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Read one frame from a little-endian byte stream. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed the stream); propagates a
/// protocol-shaped [`std::io::Error`] on a torn header, bad magic, or an
/// oversize length word — a byte stream that desynchronizes cannot be
/// re-framed, so the reader gives up rather than scanning.
///
/// The length word is the peer's claim, not a fact: the body is read in
/// chunks of at most [`READ_CHUNK_BYTES`] and the frame grows as they
/// arrive, so a header announcing the maximum length followed by silence
/// costs one chunk, not 256 MiB. A frame that fits one chunk (every serve
/// request) is one exact-size allocation and one `read_exact`.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Vec<u64>>> {
    use std::io::{Error, ErrorKind};
    let mut head = [0u8; 16];
    match r.read(&mut head[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut head[1..])?,
    }
    // Cannot fail: `head` is 16 bytes, so each half is exactly a `[u8; 8]`.
    let w0 = u64::from_le_bytes(head[..8].try_into().unwrap());
    let len = u64::from_le_bytes(head[8..].try_into().unwrap());
    if w0 >> 48 != MAGIC {
        return Err(Error::new(ErrorKind::InvalidData, "bad frame magic"));
    }
    if len >= MAX_PAYLOAD_WORDS {
        return Err(Error::new(ErrorKind::InvalidData, "oversize frame"));
    }
    let mut left = (len as usize + 1) * 8; // payload + checksum
    let mut chunk = vec![0u8; left.min(READ_CHUNK_BYTES)];
    let mut words = Vec::with_capacity(2 + chunk.len() / 8);
    words.push(w0);
    words.push(len);
    while left > 0 {
        let take = left.min(READ_CHUNK_BYTES);
        r.read_exact(&mut chunk[..take])?;
        words.extend(
            chunk[..take]
                .chunks_exact(8)
                // Cannot fail: `chunks_exact(8)` yields 8-byte slices only.
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
        left -= take;
    }
    Ok(Some(words))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = [7u64, 0, u64::MAX, 42];
        let words = encode(FrameKind::Claims2, 3, 0x00AB_CDEF, &payload);
        let f = decode(&words).unwrap();
        assert_eq!(f.kind, FrameKind::Claims2);
        assert_eq!(f.shard, 3);
        assert_eq!(f.seq, 0x00AB_CDEF);
        assert_eq!(f.payload, &payload);
    }

    #[test]
    fn in_place_composition_matches_encode() {
        let payload = [3u64, 1, 4, 1, 5];
        let want = encode(FrameKind::Incoming2, 2, 9, &payload);
        let mut buf = vec![0xDEAD; 7]; // stale contents must not leak in
        begin_frame(&mut buf, FrameKind::Incoming2, 2, 9);
        buf.extend_from_slice(&payload);
        end_frame(&mut buf);
        assert_eq!(buf, want);
    }

    #[test]
    fn corruption_detected_everywhere() {
        let words = encode(FrameKind::Cycle, 0, 5, &[1, 2, 3]);
        for i in 2..words.len() {
            for bit in [0, 17, 63] {
                let mut bad = words.clone();
                bad[i] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip word {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn header_validation() {
        assert_eq!(decode(&[1, 2]), Err(WireError::TooShort));
        assert_eq!(decode(&[0, 0, 0]), Err(WireError::BadMagic));
        let mut f = encode(FrameKind::Init, 0, 0, &[]);
        f[0] = MAGIC << 48 | 200u64 << 40;
        assert_eq!(decode(&f), Err(WireError::BadKind(200)));
        // The retired v1 lock-step kinds (Batch / Claims / Incoming).
        for kind in [3u8, 4, 5] {
            let mut f = encode(FrameKind::Init, 0, 0, &[]);
            f[0] = MAGIC << 48 | (kind as u64) << 40;
            assert_eq!(decode(&f), Err(WireError::BadKind(kind)));
        }
        let mut f = encode(FrameKind::Init, 0, 0, &[9]);
        f[1] = MAX_PAYLOAD_WORDS;
        assert_eq!(decode(&f), Err(WireError::Oversize(MAX_PAYLOAD_WORDS)));
        let f = encode(FrameKind::Init, 0, 0, &[9]);
        assert_eq!(decode(&f[..3]), Err(WireError::LengthMismatch));
    }

    #[test]
    fn byte_stream_roundtrip() {
        let a = encode(FrameKind::Cycle, 1, 1, &[10, 20]);
        let b = encode(FrameKind::Shutdown, 1, 2, &[]);
        let mut buf = Vec::new();
        write_frame_buf(&mut buf, &a, &mut Vec::new()).unwrap();
        write_frame_buf(&mut buf, &b, &mut Vec::new()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// Counts the `read` calls that reach the underlying stream
    /// (`read_exact` over an in-memory slice is one `read` per call).
    struct CountingReader<'a>(&'a [u8], usize);

    impl std::io::Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            self.0.read(buf)
        }
    }

    #[test]
    fn byte_stream_roundtrip_across_chunk_boundaries() {
        // Body = payload + checksum word, so a payload of `chunk − 1` words
        // is the largest single-read frame.
        let chunk = READ_CHUNK_BYTES / 8;
        for (len, body_reads) in [
            (0, 1),
            (1, 1),
            (chunk - 2, 1),
            (chunk - 1, 1),
            (chunk, 2),
            (chunk + 1, 2),
            (2 * chunk, 3),
        ] {
            let payload: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(MAGIC)).collect();
            let frame = encode(FrameKind::Load, 2, 7, &payload);
            let mut bytes = Vec::new();
            write_frame_buf(&mut bytes, &frame, &mut Vec::new()).unwrap();
            write_frame_buf(&mut bytes, &frame, &mut Vec::new()).unwrap();
            let mut r = CountingReader(&bytes, 0);
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), frame, "len={len}");
            // Two header reads (first byte, rest), then the body.
            assert_eq!(r.1, 2 + body_reads, "len={len}");
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), frame, "len={len}");
            assert!(read_frame(&mut r).unwrap().is_none());
            // Torn anywhere inside the body: an error, never a short frame.
            let mut torn = &bytes[..bytes.len() / 2 - 8];
            let e = read_frame(&mut torn).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "len={len}");
        }
    }
}
