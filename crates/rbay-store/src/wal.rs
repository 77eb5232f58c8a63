//! WAL record framing and prefix-recovering replay.
//!
//! On disk a WAL is a flat sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [body: len bytes]
//! ```
//!
//! where `body` is [`FORMAT_VERSION`], the varint-encoded address of the
//! member the record belongs to, and the varint-encoded
//! [`WalRecord`](crate::WalRecord) — the layout `rbay_wire::encode_frame_as`
//! gives a `(NodeAddr, WalRecord)` — and `crc32` is the IEEE CRC-32 of
//! `body`. The header is fixed-width so a
//! reader never has to guess where a record starts; the CRC makes any torn
//! or corrupted suffix detectable, and replay simply stops at the first
//! frame that fails validation — everything before it is intact by
//! construction.

use crate::record::WalRecord;
use rbay_wire::{decode_frame_as, Wire, MAX_FRAME_LEN};
use simnet::NodeAddr;

/// The version byte of every body the store writes, WAL records and
/// snapshot images alike. It moves only when a stored layout does, not
/// with the wire protocol's `WIRE_VERSION`. Version 2 is one log per
/// daemon, each record naming its member; version 1 kept one store per
/// member, and a version-1 directory is refused (DESIGN.md §18).
pub(crate) const FORMAT_VERSION: u8 = 2;

/// Fixed bytes before each record body: length + CRC.
pub const RECORD_HEADER_LEN: usize = 8;

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/Ethernet polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Appends one frame to `out` — the header, then [`FORMAT_VERSION`] and
/// what `encode` writes — and returns its total size. WAL records and
/// snapshot images share it.
pub(crate) fn frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    out.push(FORMAT_VERSION);
    encode(out);
    let body = start + RECORD_HEADER_LEN;
    let len = out.len() - body;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    RECORD_HEADER_LEN + len
}

/// Appends one framed record of `member`'s to `out` and returns the
/// frame's total size.
pub fn frame_record(out: &mut Vec<u8>, member: NodeAddr, rec: &WalRecord) -> usize {
    let size = frame(out, |body| {
        member.encode_into(body);
        rec.encode_into(body);
    });
    debug_assert!(
        size <= RECORD_HEADER_LEN + MAX_FRAME_LEN,
        "oversized WAL record"
    );
    size
}

/// The body of the frame `bytes` starts with, if its header is whole, its
/// length at most `max`, and its CRC right.
pub(crate) fn body_of(bytes: &[u8], max: usize) -> Result<&[u8], TornReason> {
    let Some((header, rest)) = bytes.split_first_chunk::<RECORD_HEADER_LEN>() else {
        return Err(TornReason::TornHeader);
    };
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > max || len > rest.len() {
        return Err(TornReason::TornBody);
    }
    let body = &rest[..len];
    if crc32(body) != crc {
        return Err(TornReason::BadCrc);
    }
    Ok(body)
}

/// Why a replay stopped before the end of the input. Every variant is a
/// *recovered* condition, not an error: the prefix before the stop point
/// is fully valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained (torn header).
    TornHeader,
    /// The announced length exceeded the remaining bytes (torn body) or
    /// the [`MAX_FRAME_LEN`] cap (corrupt length).
    TornBody,
    /// The body's CRC did not match the header.
    BadCrc,
    /// The CRC matched but the body did not decode as a record — only
    /// reachable via a corrupted write, since appends encode before
    /// checksumming.
    BadDecode,
}

/// The outcome of scanning one WAL image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalScan {
    /// Records recovered.
    pub records: u64,
    /// Bytes of valid prefix (the safe truncation point for re-opening
    /// the file in append mode).
    pub valid_bytes: usize,
    /// Why the scan stopped early, if it did not consume every byte.
    pub torn: Option<TornReason>,
}

/// Replays every valid prefix record of `bytes`, with the member it
/// belongs to, through `f`, stopping cleanly at the first torn or corrupt
/// frame. Never panics on any input.
pub fn replay(bytes: &[u8], mut f: impl FnMut(NodeAddr, WalRecord)) -> WalScan {
    let mut pos = 0usize;
    let mut records = 0u64;
    let torn = loop {
        if pos == bytes.len() {
            break None;
        }
        let body = match body_of(&bytes[pos..], MAX_FRAME_LEN) {
            Ok(body) => body,
            Err(torn) => break Some(torn),
        };
        match decode_frame_as::<(NodeAddr, WalRecord)>(FORMAT_VERSION, body) {
            Ok((member, rec)) => f(member, rec),
            Err(_) => break Some(TornReason::BadDecode),
        }
        pos += RECORD_HEADER_LEN + body.len();
        records += 1;
    };
    WalScan {
        records,
        valid_bytes: pos,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbay_query::AttrValue;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    fn sample(n: usize) -> Vec<(NodeAddr, WalRecord)> {
        (0..n)
            .map(|i| {
                let rec = WalRecord::AttrPut {
                    attr: format!("attr-{i}"),
                    value: AttrValue::Num(i as f64),
                };
                (NodeAddr(i as u32 % 2), rec)
            })
            .collect()
    }

    fn framed(recs: &[(NodeAddr, WalRecord)]) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for (member, rec) in recs {
            frame_record(&mut buf, *member, rec);
            ends.push(buf.len());
        }
        (buf, ends)
    }

    #[test]
    fn replay_round_trips() {
        let recs = sample(5);
        let (buf, _) = framed(&recs);
        let mut out = Vec::new();
        let scan = replay(&buf, |m, r| out.push((m, r)));
        assert_eq!(out, recs);
        assert_eq!(scan.records, 5);
        assert_eq!(scan.valid_bytes, buf.len());
        assert_eq!(scan.torn, None);
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let recs = sample(3);
        let (buf, ends) = framed(&recs);
        // Cut mid-way through the last record's body.
        let cut = ends[1] + 3;
        let mut out = Vec::new();
        let scan = replay(&buf[..cut], |m, r| out.push((m, r)));
        assert_eq!(out, recs[..2]);
        assert_eq!(scan.valid_bytes, ends[1]);
        assert!(scan.torn.is_some());
    }

    #[test]
    fn replay_stops_at_bit_flip() {
        let recs = sample(3);
        let (mut buf, ends) = framed(&recs);
        // Flip one bit inside the second record's body.
        let target = ends[0] + RECORD_HEADER_LEN + 1;
        buf[target] ^= 0x10;
        let mut out = Vec::new();
        let scan = replay(&buf, |m, r| out.push((m, r)));
        assert_eq!(out, recs[..1]);
        assert_eq!(scan.valid_bytes, ends[0]);
        assert_eq!(scan.torn, Some(TornReason::BadCrc));
    }
}
