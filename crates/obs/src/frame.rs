//! The workspace's one checksummed frame codec:
//!
//! ```text
//! frame := u32 len | payload (len bytes) | u32 crc32(payload)
//! ```
//!
//! all little-endian, CRC from [`crc32`]. Both byte formats built from
//! such frames — the `alf-lab` campaign manifest (`ALFLAB01`) and the
//! `alf-dist` gradient wire protocol (`ALFDIST1`) — encode and validate
//! through this module, so the layout lives in one place. What differs
//! between them stays with them: their magic, their size cap, what a bad
//! frame *means* (a torn tail to truncate on disk, a lost or corrupt peer
//! on a socket).

use std::io::Read;

use crate::crc32;

/// Bytes a frame adds around its payload (length prefix + CRC).
pub const OVERHEAD: usize = 8;

/// Why [`read_from`] could not produce a payload.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeds the caller's cap; nothing was allocated.
    Oversize {
        /// The declared payload length.
        len: u32,
        /// The cap it was checked against.
        cap: u32,
    },
    /// The stored checksum disagrees with the payload's.
    Crc {
        /// CRC read from the frame.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The reader failed or ended before the frame did.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            FrameError::Crc { stored, computed } => write!(
                f,
                "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Io(e) => write!(f, "short frame read: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One frame around `payload`.
///
/// # Panics
///
/// Panics when `payload` is longer than `u32::MAX` bytes — callers with a
/// size cap check it first.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload fits u32");
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Splits `raw` into the payloads of its leading intact frames, returning
/// them with the byte offset just past the last one. The walk ends at the
/// first frame that is short, longer than `cap`, or fails its CRC; that is
/// not an error here — the caller decides what a non-intact tail means.
pub fn split(raw: &[u8], cap: u32) -> (Vec<&[u8]>, usize) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while let Some(prefix) = raw.get(at..at + 4) {
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice"));
        if len > cap {
            break;
        }
        let end = at + OVERHEAD + len as usize;
        if raw.len() < end {
            break;
        }
        let payload = &raw[at + 4..end - 4];
        let stored = u32::from_le_bytes(raw[end - 4..end].try_into().expect("4-byte slice"));
        if stored != crc32(payload) {
            break;
        }
        frames.push(payload);
        at = end;
    }
    (frames, at)
}

/// Reads one frame from `r` and returns its validated payload. The length
/// prefix is checked against `cap` before the payload is allocated.
///
/// # Errors
///
/// [`FrameError::Oversize`] for a length above `cap`, [`FrameError::Crc`]
/// for a checksum mismatch, [`FrameError::Io`] when `r` fails or ends
/// mid-frame.
pub fn read_from(r: &mut impl Read, cap: u32) -> Result<Vec<u8>, FrameError> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word).map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(word);
    if len > cap {
        return Err(FrameError::Oversize { len, cap });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    r.read_exact(&mut word).map_err(FrameError::Io)?;
    let stored = u32::from_le_bytes(word);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::Crc { stored, computed });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_len_payload_crc_little_endian() {
        let wire = encode(b"123456789");
        assert_eq!(&wire[..4], &9u32.to_le_bytes());
        assert_eq!(&wire[4..13], b"123456789");
        assert_eq!(&wire[13..], &0xCBF4_3926u32.to_le_bytes());
        assert_eq!(encode(b"").len(), OVERHEAD);
    }

    #[test]
    fn read_and_split_agree_with_encode() {
        let mut wire = encode(b"alpha");
        wire.extend(encode(b""));
        wire.extend(encode(&[7u8; 300]));
        let (frames, end) = split(&wire, 1024);
        assert_eq!(frames, vec![&b"alpha"[..], &b""[..], &[7u8; 300][..]]);
        assert_eq!(end, wire.len());
        let mut r = &wire[..];
        assert_eq!(read_from(&mut r, 1024).unwrap(), b"alpha");
        assert_eq!(read_from(&mut r, 1024).unwrap(), b"");
        assert_eq!(read_from(&mut r, 1024).unwrap(), vec![7u8; 300]);
        assert!(matches!(read_from(&mut r, 1024), Err(FrameError::Io(_))));
    }

    #[test]
    fn split_stops_at_the_first_non_intact_frame() {
        let good = encode(b"keep");
        // Torn tail at every cut point of a second frame.
        let second = encode(b"torn-frame");
        for cut in 0..second.len() {
            let mut raw = good.clone();
            raw.extend_from_slice(&second[..cut]);
            let (frames, end) = split(&raw, 1024);
            assert_eq!(frames, vec![&b"keep"[..]], "cut {cut}");
            assert_eq!(end, good.len(), "cut {cut}");
        }
        // A flipped payload bit and an over-cap length end the walk too.
        let mut raw = good.clone();
        raw.extend_from_slice(&second);
        raw[good.len() + 5] ^= 1;
        assert_eq!(split(&raw, 1024).1, good.len());
        assert_eq!(split(&good, 3), (Vec::new(), 0));
    }

    #[test]
    fn read_rejects_oversize_before_allocating_and_bad_crc() {
        // A 4 GiB length prefix with nothing behind it: must be refused on
        // the cap, not attempted.
        let mut r = &u32::MAX.to_le_bytes()[..];
        assert!(matches!(
            read_from(&mut r, 1 << 20),
            Err(FrameError::Oversize {
                len: u32::MAX,
                cap: 0x10_0000
            })
        ));
        let mut wire = encode(b"payload");
        let last = wire.len() - 1;
        wire[last] ^= 0x80;
        assert!(matches!(
            read_from(&mut &wire[..], 1024),
            Err(FrameError::Crc { .. })
        ));
        // Every strict prefix of a frame is a short read.
        let wire = encode(b"payload");
        for cut in 0..wire.len() {
            assert!(
                matches!(read_from(&mut &wire[..cut], 1024), Err(FrameError::Io(_))),
                "cut {cut}"
            );
        }
    }
}
