//! The workspace's one checksummed frame codec:
//!
//! ```text
//! frame := u32 len | payload (len bytes) | u32 crc32(payload)
//! ```
//!
//! all little-endian, CRC from `crc32`. The `alf-lab` campaign
//! manifest (`ALFLAB01`) encodes and validates its frames through this
//! module, so the layout lives in one place; its magic, its size cap and
//! what a bad frame *means* (a torn tail to truncate) stay with it.

use crate::crc32;

/// Bytes a frame adds around its payload (length prefix + CRC).
pub(crate) const OVERHEAD: usize = 8;

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
    fn split_agrees_with_encode() {
        let mut wire = encode(b"alpha");
        wire.extend(encode(b""));
        wire.extend(encode(&[7u8; 300]));
        let (frames, end) = split(&wire, 1024);
        assert_eq!(frames, vec![&b"alpha"[..], &b""[..], &[7u8; 300][..]]);
        assert_eq!(end, wire.len());
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
}
