//! CRC32C (Castagnoli) checksums and the checkpoint payload frame.
//!
//! Torn writes and bit flips on transient storage must be *detected*, not
//! silently decoded (see `DESIGN.md` §5, fault model). This module
//! provides the software CRC32C used by both defenses:
//!
//! - the `HGS2` sharded-store trailer ([`crate::io_binary`]), and
//! - the checkpoint payload frame ([`frame`]/[`unframe`]) wrapped around
//!   every `CheckpointStore` value:
//!
//! ```text
//! magic   "HGF1"                  (4 bytes)
//! len     u64 LE, payload length
//! payload len bytes
//! crc     u32 LE, CRC32C of payload
//! ```
//!
//! [`unframe`] verifies the magic, the exact total length and the
//! checksum, so *any* single-bit flip over a framed blob — header, body
//! or trailer — is rejected.

use crate::{GraphError, Result};

/// CRC32C polynomial (Castagnoli), reflected.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time: `TABLES[0]` is the
/// byte-at-a-time table, `TABLES[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes, so eight table reads advance the checksum by eight bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32C of `data` (initial value 0, i.e. a fresh stream).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends a running CRC32C with more bytes (streamed checksumming).
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Magic prefix of a framed checkpoint payload.
pub const FRAME_MAGIC: &[u8; 4] = b"HGF1";

/// Fixed framing overhead in bytes (magic + length prefix + checksum).
pub const FRAME_OVERHEAD: usize = 4 + 8 + 4;

/// Bytes of a frame ahead of its payload (magic + length prefix).
const FRAME_HEADER: usize = 4 + 8;

/// Wraps `payload` in a checksummed, length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    frame_with(payload.len(), |out| out.extend_from_slice(payload))
}

/// Builds a frame around the payload `fill` appends to the buffer it is
/// handed: a large payload is encoded once, in the place it is stored
/// from, instead of being built and then copied behind a header.
/// `payload_hint` sizes the buffer; a payload that outgrows it reallocates.
pub fn frame_with(payload_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload_hint + FRAME_OVERHEAD);
    out.extend_from_slice(FRAME_MAGIC);
    out.extend_from_slice(&[0; 8]);
    fill(&mut out);
    let len = (out.len() - FRAME_HEADER) as u64;
    out[4..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc32c(&out[FRAME_HEADER..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies a frame written by [`frame`] and returns the payload slice.
///
/// Rejects (with a [`GraphError::Parse`]) a wrong magic, a total length
/// that does not match the length prefix exactly, and any checksum
/// mismatch — every single-bit corruption of the blob lands in one of the
/// three.
pub fn unframe(blob: &[u8]) -> Result<&[u8]> {
    if blob.len() < FRAME_OVERHEAD {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("frame too short: {} bytes", blob.len()),
        });
    }
    if &blob[..4] != FRAME_MAGIC {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("bad frame magic {:?}", &blob[..4]),
        });
    }
    let len = u64::from_le_bytes(blob[4..FRAME_HEADER].try_into().expect("8 bytes"));
    // Compared as u64: a corrupt prefix near u64::MAX must not overflow.
    if (blob.len() - FRAME_OVERHEAD) as u64 != len {
        return Err(GraphError::Parse {
            line: 0,
            message: format!(
                "frame length mismatch: prefix says {len}, blob holds {}",
                blob.len() - FRAME_OVERHEAD
            ),
        });
    }
    let (payload, trailer) = blob[FRAME_HEADER..].split_at(len as usize);
    let want = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let got = crc32c(payload);
    if got != want {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("frame checksum mismatch: stored {want:#010x}, computed {got:#010x}"),
        });
    }
    Ok(payload)
}

/// [`unframe`] for an owned blob: verifies it and strips the frame in
/// place, so reading a large payload allocates nothing beyond the blob.
pub fn unframe_vec(mut blob: Vec<u8>) -> Result<Vec<u8>> {
    let len = unframe(&blob)?.len();
    blob.truncate(FRAME_HEADER + len);
    blob.drain(..FRAME_HEADER);
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 B.4 test vectors for CRC32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn append_matches_one_shot() {
        let data = b"hourglass checkpoint payload";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(data));
        }
    }

    /// The byte-at-a-time loop the sliced one replaced, as the reference.
    fn bytewise_append(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_split() {
        // SplitMix64 bytes: every length 0..=4096 covers each tail length
        // and word count; every split of a buffer each alignment of both.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let start = (len * 7) % (data.len() - len + 1);
            let piece = &data[start..start + len];
            assert_eq!(crc32c(piece), bytewise_append(0, piece), "len {len}");
        }
        let whole = &data[..257];
        let want = bytewise_append(0, whole);
        for split in 0..=whole.len() {
            let (a, b) = whole.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), want, "split {split}");
            assert_eq!(crc32c_append(bytewise_append(0, a), b), want);
        }
    }

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], b"x", b"some checkpoint bytes"] {
            let blob = frame(payload);
            assert_eq!(blob.len(), payload.len() + FRAME_OVERHEAD);
            assert_eq!(unframe(&blob).expect("unframe"), payload);
            // Built in place and stripped in place, the same bytes.
            let built = frame_with(0, |out| out.extend_from_slice(payload));
            assert_eq!(built, blob);
            assert_eq!(unframe_vec(blob).expect("unframe"), payload);
        }
    }

    #[test]
    fn length_prefix_near_u64_max_is_rejected_not_overflowed() {
        let mut blob = frame(b"payload");
        blob[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(unframe(&blob).is_err());
        assert!(unframe_vec(blob).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload: Vec<u8> = (0u8..=63).collect();
        let blob = frame(&payload);
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(unframe(&bad).is_err(), "bit flip at {bit} went undetected");
        }
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let blob = frame(b"payload");
        assert!(unframe(&blob[..blob.len() - 1]).is_err());
        assert!(unframe(&[]).is_err());
        let mut longer = blob.clone();
        longer.push(0);
        assert!(unframe(&longer).is_err());
    }
}
