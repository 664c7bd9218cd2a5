//! Delta checkpoint frames and the zero-dependency compression codec
//! (DESIGN.md §17).
//!
//! A checkpoint *chain* on disk is one **base frame** (the full payload)
//! followed by **delta frames**, one per later checkpoint, each carrying
//! the word-wise XOR of its payload against its parent's. Consecutive
//! co-search checkpoints differ in a sliver of their bytes (the sampled
//! path's weights, the optimiser slots it touched, the env states), so
//! the XOR stream is mostly zero words and the run-length codec collapses
//! it to a fraction of the full payload.
//!
//! Every frame is self-describing and self-verifying:
//!
//! - base frames record the codec and the payload length; the chain id of
//!   the chain they root is the FNV-1a hash of their payload (derivable,
//!   never trusted from disk);
//! - delta frames record the chain id, their 1-based position in the
//!   chain, the parent's iteration, and FNV-1a sums of both the parent
//!   payload and the reconstructed target payload, so replay verifies the
//!   chain link-by-link *and* the final reconstruction end-to-end.
//!
//! Frames are opaque payloads to the envelope layer: the store still
//! seals every frame with its own checksummed header, so bit rot is
//! caught before a frame is even parsed. All decoding is total — corrupt
//! input yields [`FrameError`], never a panic or an aborting allocation.
//!
//! The [`CheckpointIo`] trait abstracts the three filesystem operations
//! durable writes need, so tests inject write errors, short writes and
//! torn renames deterministically while the production path stays
//! `std::fs` ([`StdIo`]).

use crate::checkpoint::fnv1a64;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic prefix of an encoded base frame.
const BASE_FRAME_MAGIC: &[u8; 8] = b"A3CSFRB1";
/// Magic prefix of an encoded delta frame.
const DELTA_FRAME_MAGIC: &[u8; 8] = b"A3CSFRD1";
/// Codec tag every frame records: run-length encoding of zero `u32` words
/// with varint-counted literal runs. It is the only codec; decoding any
/// other tag is an error.
const RLE_ZERO_TAG: u8 = 1;

/// Why a frame could not be decoded or a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes are not a parsable frame (bad magic, truncated header,
    /// unknown codec, a payload length no buffer can hold, or a compressed
    /// stream that does not decode to the recorded length).
    Malformed(String),
    /// The frame decoded but belongs to a different chain, position or
    /// parent than the replay expected — applying it would reconstruct
    /// garbage.
    ChainMismatch(String),
    /// The reconstructed payload does not hash to the sum recorded in the
    /// frame: the parent the delta was diffed against is not the parent
    /// supplied.
    TargetChecksum {
        /// Sum recorded in the frame.
        stored: u64,
        /// Sum of the payload actually reconstructed.
        computed: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "malformed checkpoint frame: {m}"),
            FrameError::ChainMismatch(m) => write!(f, "checkpoint chain mismatch: {m}"),
            FrameError::TargetChecksum { stored, computed } => write!(
                f,
                "delta reconstruction checksum mismatch: frame says {stored:016x}, \
                 replay produced {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

// --- varint + RLE-of-zero-words codec -----------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // a3cs::allow(lossy-cast): intentional truncation to the low 7
        // bits of the varint; the remaining bits follow in later bytes.
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None // varint longer than 10 bytes cannot encode a u64
}

/// Run-length encode the zero `u32` words of `raw`. The output does not
/// record `raw.len()` — frames carry the length in their header, and
/// [`decompress`] validates exact coverage against it.
fn compress(raw: &[u8]) -> Vec<u8> {
    let words = raw.len() / 4;
    let tail = &raw[words * 4..];
    let word_at = |i: usize| &raw[i * 4..i * 4 + 4];
    let mut out = Vec::with_capacity(raw.len() / 8 + 16);
    let mut i = 0;
    while i < words {
        let zero = word_at(i) == [0u8; 4];
        let mut j = i + 1;
        while j < words && (word_at(j) == [0u8; 4]) == zero {
            j += 1;
        }
        let run = (j - i) as u64;
        if zero {
            put_varint(&mut out, run << 1);
        } else {
            put_varint(&mut out, (run << 1) | 1);
            out.extend_from_slice(&raw[i * 4..j * 4]);
        }
        i = j;
    }
    out.extend_from_slice(tail);
    out
}

/// Invert [`compress`], validating that the stream covers exactly
/// `raw_len` bytes. The output buffer is reserved fallibly, so a header
/// claiming an impossible length is an error rather than an aborted
/// allocation.
fn decompress(compressed: &[u8], raw_len: usize) -> Result<Vec<u8>, FrameError> {
    let words = raw_len / 4;
    let tail_len = raw_len - words * 4;
    let mut out = Vec::new();
    out.try_reserve_exact(raw_len).map_err(|_| {
        FrameError::Malformed(format!("cannot allocate a {raw_len}-byte payload"))
    })?;
    let mut pos = 0;
    while out.len() < words * 4 {
        let Some(op) = get_varint(compressed, &mut pos) else {
            return Err(FrameError::Malformed(
                "compressed stream truncated mid-op".to_string(),
            ));
        };
        let run = usize::try_from(op >> 1).map_err(|_| {
            FrameError::Malformed("run length exceeds the address space".to_string())
        })?;
        if run == 0 || run > words - out.len() / 4 {
            return Err(FrameError::Malformed(format!(
                "run of {run} words at word {} of {words}",
                out.len() / 4
            )));
        }
        if op & 1 == 0 {
            out.resize(out.len() + run * 4, 0);
        } else {
            let lit = compressed
                .get(pos..pos + run * 4)
                .ok_or_else(|| FrameError::Malformed("literal run truncated".to_string()))?;
            out.extend_from_slice(lit);
            pos += run * 4;
        }
    }
    let tail = compressed
        .get(pos..pos + tail_len)
        .ok_or_else(|| FrameError::Malformed("tail bytes truncated".to_string()))?;
    out.extend_from_slice(tail);
    pos += tail_len;
    if pos != compressed.len() {
        return Err(FrameError::Malformed(format!(
            "{} trailing bytes after the stream",
            compressed.len() - pos
        )));
    }
    Ok(out)
}

// --- frame encoding ------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let chunk: [u8; 8] = bytes.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(chunk))
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let chunk: [u8; 4] = bytes.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(chunk))
}

/// Strip `magic` and the codec tag off `frame`, returning the rest.
fn frame_body<'a>(frame: &'a [u8], magic: &[u8; 8], kind: &str) -> Result<&'a [u8], FrameError> {
    let rest = frame
        .strip_prefix(magic.as_slice())
        .ok_or_else(|| FrameError::Malformed(format!("not a {kind} frame (bad magic)")))?;
    match rest.split_first() {
        Some((&RLE_ZERO_TAG, body)) => Ok(body),
        Some((&tag, _)) => Err(FrameError::Malformed(format!("unknown codec tag {tag}"))),
        None => Err(FrameError::Malformed(format!(
            "{kind} frame truncated before the codec tag"
        ))),
    }
}

fn payload_len(raw_len: u64) -> Result<usize, FrameError> {
    usize::try_from(raw_len).map_err(|_| {
        FrameError::Malformed("payload length exceeds the address space".to_string())
    })
}

/// Encode `payload` as a base frame: the root of a new chain whose id is
/// `fnv1a64(payload)`.
#[must_use]
pub fn encode_base_frame(payload: &[u8]) -> Vec<u8> {
    let compressed = compress(payload);
    let mut out = Vec::with_capacity(compressed.len() + 24);
    out.extend_from_slice(BASE_FRAME_MAGIC);
    out.push(RLE_ZERO_TAG);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&compressed);
    out
}

/// Decode a base frame back to its payload.
///
/// # Errors
///
/// [`FrameError::Malformed`] on bad magic, an unknown codec, or a stream
/// that does not decompress to the recorded length.
pub fn decode_base_frame(frame: &[u8]) -> Result<Vec<u8>, FrameError> {
    let body = frame_body(frame, BASE_FRAME_MAGIC, "base")?;
    let mut pos = 0;
    let raw_len = get_u64(body, &mut pos).ok_or_else(|| {
        FrameError::Malformed("base frame truncated in the header".to_string())
    })?;
    decompress(&body[pos..], payload_len(raw_len)?)
}

/// Header fields of a delta frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeltaHeader {
    /// FNV-1a hash of the chain's base payload.
    chain_id: u64,
    /// 1-based position of this delta in its chain.
    position: u32,
    /// FNV-1a hash of the parent payload.
    parent_sum: u64,
    /// FNV-1a hash of the payload this delta reconstructs.
    target_sum: u64,
    /// Length in bytes of the payload this delta reconstructs.
    raw_len: u64,
}

/// XOR `parent` into `bytes`, treating `parent` as zero-padded past its
/// end (and ignoring any of it past the end of `bytes`).
fn xor_into(bytes: &mut [u8], parent: &[u8]) {
    for (b, &p) in bytes.iter_mut().zip(parent) {
        *b ^= p;
    }
}

/// Encode the delta frame that turns `parent` into `target`.
///
/// The XOR stream has `target.len()` bytes: `target[i] ^ parent[i]`, with
/// the parent zero-padded past its end, so growing and shrinking payloads
/// both round-trip.
#[must_use]
pub fn encode_delta_frame(
    parent: &[u8],
    target: &[u8],
    chain_id: u64,
    position: u32,
    parent_iteration: u64,
) -> Vec<u8> {
    let mut xor = target.to_vec();
    xor_into(&mut xor, parent);
    let compressed = compress(&xor);
    let mut out = Vec::with_capacity(compressed.len() + 56);
    out.extend_from_slice(DELTA_FRAME_MAGIC);
    out.push(RLE_ZERO_TAG);
    put_u64(&mut out, chain_id);
    put_u32(&mut out, position);
    put_u64(&mut out, parent_iteration);
    put_u64(&mut out, fnv1a64(parent));
    put_u64(&mut out, fnv1a64(target));
    put_u64(&mut out, target.len() as u64);
    out.extend_from_slice(&compressed);
    out
}

/// Decode the header of a delta frame, returning it with the compressed
/// body that follows.
fn decode_delta_header(frame: &[u8]) -> Result<(DeltaHeader, &[u8]), FrameError> {
    let body = frame_body(frame, DELTA_FRAME_MAGIC, "delta")?;
    let mut pos = 0;
    let header = (|| {
        let chain_id = get_u64(body, &mut pos)?;
        let position = get_u32(body, &mut pos)?;
        // The parent's iteration is recorded for forensics only: replay
        // identifies the parent by its checksum.
        let _parent_iteration = get_u64(body, &mut pos)?;
        Some(DeltaHeader {
            chain_id,
            position,
            parent_sum: get_u64(body, &mut pos)?,
            target_sum: get_u64(body, &mut pos)?,
            raw_len: get_u64(body, &mut pos)?,
        })
    })()
    .ok_or_else(|| FrameError::Malformed("delta frame truncated in the header".to_string()))?;
    Ok((header, &body[pos..]))
}

/// Apply a delta frame to `parent`, verifying every chain invariant:
/// the chain id, the expected position, the parent's checksum before the
/// XOR is applied, and the reconstructed target's checksum after.
///
/// # Errors
///
/// [`FrameError`] on any verification failure; `parent` is never trusted
/// to be right just because the bytes decode.
pub fn apply_delta_frame(
    frame: &[u8],
    parent: &[u8],
    expect_chain_id: u64,
    expect_position: u32,
) -> Result<Vec<u8>, FrameError> {
    let (header, body) = decode_delta_header(frame)?;
    if header.chain_id != expect_chain_id {
        return Err(FrameError::ChainMismatch(format!(
            "frame belongs to chain {:016x}, replaying chain {expect_chain_id:016x}",
            header.chain_id
        )));
    }
    if header.position != expect_position {
        return Err(FrameError::ChainMismatch(format!(
            "frame is chain position {}, expected {expect_position}",
            header.position
        )));
    }
    let parent_sum = fnv1a64(parent);
    if header.parent_sum != parent_sum {
        return Err(FrameError::ChainMismatch(format!(
            "frame was diffed against parent {:016x}, replay has {parent_sum:016x}",
            header.parent_sum
        )));
    }
    let mut target = decompress(body, payload_len(header.raw_len)?)?;
    xor_into(&mut target, parent);
    let computed = fnv1a64(&target);
    if header.target_sum != computed {
        return Err(FrameError::TargetChecksum {
            stored: header.target_sum,
            computed,
        });
    }
    Ok(target)
}

// --- the I/O seam durable writes go through ------------------------------

/// The three filesystem operations durable checkpoint writes need,
/// abstracted so fault-injection tests can fail them deterministically.
/// Directory creation and reads stay on `std::fs` — only the mutations
/// that can tear a frame are behind the seam.
pub trait CheckpointIo {
    /// Write `contents` to `path`, replacing any existing file.
    ///
    /// # Errors
    /// Any I/O failure; a failed write may leave a partial file behind
    /// (that is the point of the injected short-write fault).
    fn write_file(&mut self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` to `to`.
    ///
    /// # Errors
    /// Any I/O failure; on failure `from` may remain on disk.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove the file at `path`.
    ///
    /// # Errors
    /// Any I/O failure.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
}

/// The production [`CheckpointIo`]: plain `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdIo;

impl CheckpointIo for StdIo {
    fn write_file(&mut self, path: &Path, contents: &[u8]) -> io::Result<()> {
        fs::write(path, contents)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn rle_zero_collapses_zero_runs() {
        let mut raw = vec![0u8; 4096];
        raw[100] = 7;
        raw[2000] = 9;
        let compressed = compress(&raw);
        assert!(
            compressed.len() < 32,
            "two dirty words in 1024 must collapse: {} bytes",
            compressed.len()
        );
        assert_eq!(decompress(&compressed, raw.len()).expect("round trip"), raw);
    }

    #[test]
    fn codec_round_trips_unaligned_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 1023] {
            let raw: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let compressed = compress(&raw);
            assert_eq!(
                decompress(&compressed, len).expect("round trip"),
                raw,
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary byte streams survive the codec exactly.
        #[test]
        fn rle_zero_round_trips_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..2048)) {
            let compressed = compress(&raw);
            prop_assert_eq!(decompress(&compressed, raw.len()).expect("round trip"), raw);
        }

        /// Sparse streams (mostly zeros) compress and still round-trip.
        #[test]
        fn rle_zero_round_trips_sparse_streams(
            len in 16usize..2048,
            dirty in prop::collection::vec((0usize..2048, any::<u8>()), 0..8),
        ) {
            let mut raw = vec![0u8; len];
            for (at, v) in dirty {
                raw[at % len] = v;
            }
            let compressed = compress(&raw);
            prop_assert_eq!(decompress(&compressed, len).expect("round trip"), raw);
        }

        /// Truncating or corrupting a compressed stream is an error, never a
        /// panic and never a silent wrong answer of the right length.
        #[test]
        fn corrupted_streams_are_errors_or_detectable(
            raw in prop::collection::vec(any::<u8>(), 1..512),
            cut in 0usize..512,
        ) {
            let compressed = compress(&raw);
            let cut = cut.min(compressed.len().saturating_sub(1));
            // Either the decode fails, or it succeeds with different bytes
            // (caught one level up by the frame checksums).
            if let Ok(out) = decompress(&compressed[..cut], raw.len()) {
                prop_assert_ne!(out, raw);
            }
        }

        /// Base frames round-trip arbitrary payloads.
        #[test]
        fn base_frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
            let frame = encode_base_frame(&payload);
            prop_assert_eq!(decode_base_frame(&frame).expect("round trip"), payload);
        }

        /// Delta frames reconstruct the target exactly, including when the
        /// payload grows or shrinks between checkpoints.
        #[test]
        fn delta_frame_round_trip(
            parent in prop::collection::vec(any::<u8>(), 0..1024),
            target in prop::collection::vec(any::<u8>(), 0..1024),
        ) {
            let chain_id = fnv1a64(&parent);
            let frame = encode_delta_frame(&parent, &target, chain_id, 1, 5);
            prop_assert!(decode_base_frame(&frame).is_err(), "a delta is not a base");
            let back = apply_delta_frame(&frame, &parent, chain_id, 1).expect("round trip");
            prop_assert_eq!(back, target);
        }

        /// Truncating a frame anywhere yields an error, never a panic.
        #[test]
        fn truncated_frames_are_errors(
            payload in prop::collection::vec(any::<u8>(), 0..512),
            cut in 0usize..600,
        ) {
            let base = encode_base_frame(&payload);
            let cut_b = cut.min(base.len().saturating_sub(1));
            prop_assert!(decode_base_frame(&base[..cut_b]).is_err());
            let delta = encode_delta_frame(&payload, &payload, fnv1a64(&payload), 1, 0);
            let cut_d = cut.min(delta.len().saturating_sub(1));
            prop_assert!(apply_delta_frame(&delta[..cut_d], &payload, fnv1a64(&payload), 1).is_err());
        }
    }

    #[test]
    fn apply_verifies_every_chain_invariant() {
        let parent = b"parent payload".to_vec();
        let target = b"target payload!".to_vec();
        let chain_id = fnv1a64(&parent);
        let frame = encode_delta_frame(&parent, &target, chain_id, 3, 7);

        // Happy path.
        assert_eq!(
            apply_delta_frame(&frame, &parent, chain_id, 3).expect("applies"),
            target
        );
        // Wrong chain id.
        assert!(matches!(
            apply_delta_frame(&frame, &parent, chain_id ^ 1, 3),
            Err(FrameError::ChainMismatch(_))
        ));
        // Wrong position.
        assert!(matches!(
            apply_delta_frame(&frame, &parent, chain_id, 4),
            Err(FrameError::ChainMismatch(_))
        ));
        // Wrong parent bytes: caught by the parent sum before any XOR.
        assert!(matches!(
            apply_delta_frame(&frame, b"parent payloaX", chain_id, 3),
            Err(FrameError::ChainMismatch(_))
        ));
        // Flipped byte in the frame body: caught by the target sum.
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let err = apply_delta_frame(&corrupt, &parent, chain_id, 3);
        assert!(
            matches!(
                err,
                Err(FrameError::TargetChecksum { .. }) | Err(FrameError::Malformed(_))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn delta_header_exposes_chain_fields() {
        let parent = vec![1u8; 64];
        let target = vec![2u8; 72];
        let frame = encode_delta_frame(&parent, &target, 42, 9, 100);
        let (header, _) = decode_delta_header(&frame).expect("header decodes");
        assert_eq!(header.chain_id, 42);
        assert_eq!(header.position, 9);
        let parent_iteration = get_u64(&frame, &mut (DELTA_FRAME_MAGIC.len() + 1 + 8 + 4));
        assert_eq!(parent_iteration, Some(100));
        assert_eq!(header.parent_sum, fnv1a64(&parent));
        assert_eq!(header.target_sum, fnv1a64(&target));
        assert_eq!(header.raw_len, 72);
    }

    #[test]
    fn pre_frame_payloads_are_not_base_frames() {
        // Older builds sealed the raw checkpoint (binary magic or JSON)
        // without a frame around it.
        for legacy in [&b"A3CSBIN2...."[..], b"{\"version\":2}", b""] {
            assert!(matches!(
                decode_base_frame(legacy),
                Err(FrameError::Malformed(_))
            ));
        }
    }

    #[test]
    fn unknown_codec_tags_are_malformed() {
        let mut frame = encode_base_frame(b"payload!");
        frame[BASE_FRAME_MAGIC.len()] = 0; // the retired raw codec
        assert!(matches!(
            decode_base_frame(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn impossible_payload_length_is_malformed_not_an_abort() {
        // 26 bytes: magic, codec tag, a 2^62-byte length and one varint
        // zero run covering it. Reserving the output infallibly would
        // abort the process before the run is even read.
        let raw_len: u64 = 1 << 62;
        let mut frame = BASE_FRAME_MAGIC.to_vec();
        frame.push(RLE_ZERO_TAG);
        put_u64(&mut frame, raw_len);
        put_varint(&mut frame, (raw_len / 4) << 1);
        assert_eq!(frame.len(), 26);
        assert!(matches!(
            decode_base_frame(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn identical_payload_delta_is_tiny() {
        let payload = vec![0xabu8; 64 * 1024];
        let frame = encode_delta_frame(&payload, &payload, fnv1a64(&payload), 1, 0);
        assert!(
            frame.len() < 128,
            "an all-zero XOR stream must collapse: {} bytes",
            frame.len()
        );
    }
}
