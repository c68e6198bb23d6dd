//! The wire frame: a fixed-size header plus a length-prefixed payload.
//!
//! Header layout (23 bytes, all integers little-endian):
//!
//! | offset | size | field                                    |
//! |--------|------|------------------------------------------|
//! | 0      | 2    | magic `b"GQ"`                            |
//! | 2      | 1    | kind                                     |
//! | 3      | 8    | link sequence number (`0` = unsequenced) |
//! | 11     | 8    | cumulative ack (highest seq received)    |
//! | 19     | 4    | payload length                           |
//! | 23     | n    | payload                                  |
//!
//! A fixed header keeps the incremental decoder trivial: buffer until 23
//! bytes, read the length, buffer until the payload is complete. The
//! decoder never assumes a read boundary coincides with a frame boundary
//! — that is precisely what the `partial_write` chaos family violates.

use gridq_common::{GridError, Result};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"GQ";

/// Header size in bytes.
pub const HEADER_LEN: usize = 23;

/// Upper bound on a single frame's payload; a length field beyond it is
/// treated as stream corruption rather than an allocation request.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Frame kinds understood by the link layer. Kinds at or above
/// [`kind::MSG`] are application traffic and always sequenced; the rest
/// are link control and carry sequence number `0`.
pub mod kind {
    /// Pure acknowledgement: no payload, not sequenced.
    pub const ACK_ONLY: u8 = 0;
    /// Connection (re)establishment from the connecting side. Payload:
    /// the connector's node index then its `last_received`, as `u64`
    /// little-endian pairs.
    pub const HELLO: u8 = 1;
    /// The accepting side's reply. Payload: its `last_received`.
    pub const HELLO_ACK: u8 = 2;
    /// Sequenced application payload.
    pub const MSG: u8 = 3;
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (see [`kind`]).
    pub kind: u8,
    /// Link sequence number; `0` for unsequenced control frames.
    pub seq: u64,
    /// Cumulative acknowledgement: the highest sequence number the
    /// sender had received on this connection when the frame was built.
    pub ack: u64,
    /// Application bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encodes the frame into its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame's wire bytes to `out`, so a writer can coalesce
    /// several frames into one buffer and one write.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.kind);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ack.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }
}

/// Incremental frame decoder: feed it whatever the socket returned,
/// collect whole frames. Bytes split across reads are buffered until
/// their frame completes.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends `bytes` and returns every frame completed by them, in
    /// order. A malformed header (bad magic, absurd length) is a hard
    /// error: framing is lost and the connection must be dropped.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Frame>> {
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        let mut start = 0usize;
        loop {
            let rest = &self.buf[start..];
            if rest.len() < HEADER_LEN {
                break;
            }
            if rest[0..2] != MAGIC {
                return Err(GridError::Execution(format!(
                    "frame: bad magic {:02x}{:02x}, framing lost",
                    rest[0], rest[1]
                )));
            }
            let kind = rest[2];
            let seq = u64::from_le_bytes(rest[3..11].try_into().map_err(err_slice)?);
            let ack = u64::from_le_bytes(rest[11..19].try_into().map_err(err_slice)?);
            let len = u32::from_le_bytes(rest[19..23].try_into().map_err(err_slice)?);
            if len > MAX_PAYLOAD {
                return Err(GridError::Execution(format!(
                    "frame: payload length {len} exceeds {MAX_PAYLOAD}"
                )));
            }
            let total = HEADER_LEN + len as usize;
            if rest.len() < total {
                break;
            }
            frames.push(Frame {
                kind,
                seq,
                ack,
                payload: rest[HEADER_LEN..total].to_vec(),
            });
            start += total;
        }
        if start > 0 {
            self.buf.drain(..start);
        }
        Ok(frames)
    }
}

fn err_slice(_: std::array::TryFromSliceError) -> GridError {
    GridError::Execution("frame: header slice arithmetic broken".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::check::{Check, Gen};
    use gridq_common::DetRng;

    fn sample(n: u8) -> Frame {
        Frame {
            kind: kind::MSG,
            seq: u64::from(n) + 1,
            ack: u64::from(n),
            payload: (0..n).collect(),
        }
    }

    #[test]
    fn whole_frames_round_trip() {
        let mut d = Decoder::new();
        let frames = vec![sample(0), sample(7), sample(200)];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        assert_eq!(d.feed(&bytes).unwrap(), frames);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles_frames() {
        let frames = vec![sample(3), sample(0), sample(41)];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for b in bytes {
            got.extend(d.feed(&[b]).unwrap());
        }
        assert_eq!(got, frames);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn property_random_split_points_never_corrupt() {
        Check::new("frame_splits").cases(64).run(
            |g: &mut DetRng| {
                let frames: Vec<Frame> = g.vec_of(1, 6, |g| Frame {
                    kind: kind::MSG + g.usize_in(0, 4) as u8,
                    seq: g.next_u64() | 1,
                    ack: g.next_u64(),
                    payload: g.vec_of(0, 40, |g| g.next_u64() as u8),
                });
                let cuts = g.vec_of(0, 8, |g| g.usize_in(0, 2048));
                (frames, cuts)
            },
            |(frames, cuts): &(Vec<Frame>, Vec<usize>)| {
                let mut bytes = Vec::new();
                for f in frames {
                    bytes.extend_from_slice(&f.encode());
                }
                let mut splits: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
                splits.sort_unstable();
                splits.dedup();
                let mut d = Decoder::new();
                let mut got = Vec::new();
                let mut prev = 0usize;
                for s in splits.into_iter().chain(std::iter::once(bytes.len())) {
                    got.extend(
                        d.feed(&bytes[prev..s])
                            .map_err(|e| format!("decode failed: {e}"))?,
                    );
                    prev = s;
                }
                if &got != frames {
                    return Err("frames changed across split feeding".into());
                }
                if d.pending() != 0 {
                    return Err(format!("{} bytes stranded in the decoder", d.pending()));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let mut d = Decoder::new();
        assert!(d.feed(b"XXlolno-this-is-not-a-frame-head").is_err());
        let mut d = Decoder::new();
        let mut bytes = sample(4).encode();
        bytes[20] = 0xff; // inflate the length field past MAX_PAYLOAD
        bytes[21] = 0xff;
        bytes[22] = 0xff;
        assert!(d.feed(&bytes).is_err());
    }
}
