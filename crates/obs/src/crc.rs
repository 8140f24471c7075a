//! The workspace's one CRC-32 implementation (IEEE 802.3, reflected,
//! polynomial `0xEDB8_8320`).
//!
//! The `alf-lab` campaign manifest (`ALFLAB01`) checksums its frames
//! with [`crc32`] through [`crate::frame`]. Keeping a single table here
//! (rather than a hand-rolled copy per crate) means a second checksummed
//! format cannot drift onto a different polynomial, and
//! `scripts/verify.sh` grep-gates that this stays the only definition in
//! the workspace.
//!
//! The check value pins the exact variant: `crc32(b"123456789") ==
//! 0xCBF4_3926`.

use std::sync::OnceLock;

/// The byte-indexed lookup table for the reflected `0xEDB8_8320`
/// polynomial, built once on first use.
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3) of `data`: init `!0`, reflected table updates,
/// final complement.
#[must_use]
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"alf"), crc32(b"alg"));
        assert_ne!(crc32(b"\x00"), crc32(b"\x00\x00"));
    }

    #[test]
    fn table_agrees_with_bitwise_reference() {
        // The pre-table implementation this module replaced, kept as an
        // executable cross-check of the table construction.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let blob: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        assert_eq!(crc32(&blob), bitwise(&blob));
    }
}
