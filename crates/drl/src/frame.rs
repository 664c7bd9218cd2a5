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
//!   the chain they root is the [`sum64`] of their payload (derivable,
//!   never trusted from disk);
//! - delta frames record their [`ChainLink`] (chain id, 1-based position,
//!   parent sum), the parent's iteration, and the sum of the payload they
//!   reconstruct, so replay verifies the chain link-by-link *and* every
//!   reconstruction end-to-end. Sums are carried, not recomputed: a
//!   delta's parent sum is the previous link's target sum (the chain id at
//!   position 1), so writing or replaying a link hashes one payload.
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

use crate::checkpoint::sum64;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic prefix of an encoded base frame. Version 2 roots chains whose
/// ids are [`sum64`] sums; older base frames are malformed.
const BASE_FRAME_MAGIC: &[u8; 8] = b"A3CSFRB2";
/// Magic prefix of an encoded delta frame. Version 2 records [`sum64`]
/// sums; older delta frames are malformed.
const DELTA_FRAME_MAGIC: &[u8; 8] = b"A3CSFRD2";
/// Codec tag every frame records: run-length encoding of zero `u32` words
/// with varint-counted literal runs. It is the only codec; decoding any
/// other tag is an error.
const RLE_ZERO_TAG: u8 = 1;
/// Words compared at once while skipping a zero run of the XOR stream.
const SKIP_WORDS: usize = 16;

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
    /// frame: the parent bytes supplied are not the ones the delta was
    /// diffed against, or the frame body is corrupt.
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

/// Where a delta frame sits in its chain: what the writer records in the
/// frame and what replay expects of it. Writer and replay both carry the
/// link forward with [`ChainLink::next`] instead of re-hashing parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// [`sum64`] of the chain's base payload.
    pub chain_id: u64,
    /// 1-based position of the delta in its chain.
    pub position: u32,
    /// [`sum64`] of the payload the delta applies to: the chain id at
    /// position 1, the previous delta's target sum after that.
    pub parent_sum: u64,
}

impl ChainLink {
    /// The first delta of the chain rooted at the base payload whose sum
    /// is `chain_id`.
    #[must_use]
    pub fn first(chain_id: u64) -> ChainLink {
        ChainLink {
            chain_id,
            position: 1,
            parent_sum: chain_id,
        }
    }

    /// The link after this one, whose parent is the payload this link
    /// reconstructs (with sum `target_sum`).
    #[must_use]
    pub fn next(self, target_sum: u64) -> ChainLink {
        ChainLink {
            position: self.position.saturating_add(1),
            parent_sum: target_sum,
            ..self
        }
    }
}

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

/// Append to `out` the run-length encoding of the zero `u32` words of
/// `target ^ parent`, the parent read as zeros past its end, in one pass
/// over the words and without materialising the XOR stream. An empty
/// parent encodes `target` itself (a base frame's body). The stream does
/// not record `target.len()` — frames carry it in their header, and
/// [`decompress_onto`] validates exact coverage against it.
fn compress_xor(out: &mut Vec<u8>, target: &[u8], parent: &[u8]) {
    let (words, tail) = target.as_chunks::<4>();
    let (parent_words, parent_tail) = parent.as_chunks::<4>();
    let parent_word = |i: usize| match parent_words.get(i) {
        Some(word) => *word,
        None => {
            let mut word = [0u8; 4];
            if i == parent_words.len() {
                word[..parent_tail.len()].copy_from_slice(parent_tail);
            }
            word
        }
    };
    let xor = |i: usize| {
        let (t, p) = (
            u32::from_le_bytes(words[i]),
            u32::from_le_bytes(parent_word(i)),
        );
        t ^ p
    };
    // Over the parent's whole words, an XOR word is zero exactly where the
    // two words are equal: runs there are found by comparing words (a zero
    // run skips whole blocks), and literal runs are copied and XOR-ed in
    // bulk.
    let shared = words.len().min(parent_words.len());
    let mut i = 0;
    while i < words.len() {
        let zero = xor(i) == 0;
        let mut j = i + 1;
        if zero {
            while j + SKIP_WORDS <= shared
                && words[j..j + SKIP_WORDS] == parent_words[j..j + SKIP_WORDS]
            {
                j += SKIP_WORDS;
            }
        }
        while j < shared && (words[j] == parent_words[j]) == zero {
            j += 1;
        }
        while j < words.len() && (xor(j) == 0) == zero {
            j += 1;
        }
        let run = (j - i) as u64;
        if zero {
            put_varint(out, run << 1);
        } else {
            put_varint(out, (run << 1) | 1);
            let start = out.len();
            out.extend_from_slice(&target[i * 4..j * 4]);
            let covered = parent.get(i * 4..(j * 4).min(parent.len())).unwrap_or_default();
            for (b, &p) in out[start..].iter_mut().zip(covered) {
                *b ^= p;
            }
        }
        i = j;
    }
    let tail_at = words.len() * 4;
    for (k, &b) in tail.iter().enumerate() {
        out.push(b ^ parent.get(tail_at + k).copied().unwrap_or(0));
    }
}

/// Walk a compressed stream that must cover exactly `raw_len` bytes,
/// handing each literal run and the tail to `literal` with its byte
/// offset; zero runs hand over nothing. The whole stream is validated, so
/// a walk with a no-op `literal` proves that a second walk cannot fail.
/// Offsets and lengths never exceed `raw_len`.
fn walk_stream(
    compressed: &[u8],
    raw_len: usize,
    mut literal: impl FnMut(usize, &[u8]),
) -> Result<(), FrameError> {
    let words = raw_len / 4;
    let (mut pos, mut word) = (0, 0);
    while word < words {
        let Some(op) = get_varint(compressed, &mut pos) else {
            return Err(FrameError::Malformed(
                "compressed stream truncated mid-op".to_string(),
            ));
        };
        let run = usize::try_from(op >> 1).map_err(|_| {
            FrameError::Malformed("run length exceeds the address space".to_string())
        })?;
        if run == 0 || run > words - word {
            return Err(FrameError::Malformed(format!(
                "run of {run} words at word {word} of {words}"
            )));
        }
        if op & 1 == 1 {
            let lit = compressed
                .get(pos..)
                .and_then(|rest| rest.get(..run * 4))
                .ok_or_else(|| FrameError::Malformed("literal run truncated".to_string()))?;
            literal(word * 4, lit);
            pos += run * 4;
        }
        word += run;
    }
    let tail = compressed
        .get(pos..)
        .and_then(|rest| rest.get(..raw_len - words * 4))
        .ok_or_else(|| FrameError::Malformed("tail bytes truncated".to_string()))?;
    literal(words * 4, tail);
    pos += tail.len();
    if pos != compressed.len() {
        return Err(FrameError::Malformed(format!(
            "{} trailing bytes after the stream",
            compressed.len() - pos
        )));
    }
    Ok(())
}

/// Grow `buf` with zeros to `len` bytes, reserving fallibly, so a header
/// claiming an impossible length is an error rather than an aborted
/// allocation.
fn zero_extend(buf: &mut Vec<u8>, len: usize) -> Result<(), FrameError> {
    if let Some(more) = len.checked_sub(buf.len()) {
        buf.try_reserve_exact(more).map_err(|_| {
            FrameError::Malformed(format!("cannot allocate a {len}-byte payload"))
        })?;
        buf.resize(len, 0);
    }
    Ok(())
}

/// Invert [`compress_xor`] with an empty parent: the `raw_len`-byte
/// payload a base frame's stream encodes.
fn decompress(compressed: &[u8], raw_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    zero_extend(&mut payload, raw_len)?;
    walk_stream(compressed, raw_len, |at, lit| {
        payload[at..at + lit.len()].copy_from_slice(lit);
    })?;
    Ok(payload)
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
    usize::try_from(raw_len)
        .map_err(|_| FrameError::Malformed("payload length exceeds the address space".to_string()))
}

/// Encode `payload` as a base frame: the root of a new chain whose id is
/// `sum64(payload)`.
#[must_use]
pub fn encode_base_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() / 8 + 32);
    out.extend_from_slice(BASE_FRAME_MAGIC);
    out.push(RLE_ZERO_TAG);
    put_u64(&mut out, payload.len() as u64);
    compress_xor(&mut out, payload, &[]);
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
    let raw_len = get_u64(body, &mut pos)
        .ok_or_else(|| FrameError::Malformed("base frame truncated in the header".to_string()))?;
    decompress(&body[pos..], payload_len(raw_len)?)
}

/// Header fields of a delta frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeltaHeader {
    /// Chain id, position and parent sum the writer recorded.
    link: ChainLink,
    /// [`sum64`] of the payload this delta reconstructs.
    target_sum: u64,
    /// Length in bytes of the payload this delta reconstructs.
    raw_len: u64,
}

/// Encode the delta frame at `link` that turns `parent` into `target`,
/// whose sum the caller has computed once as `target_sum` (the writer
/// carries it into the next link as that link's parent sum).
///
/// The XOR stream has `target.len()` bytes: `target[i] ^ parent[i]`, with
/// the parent zero-padded past its end, so growing and shrinking payloads
/// both round-trip.
#[must_use]
pub fn encode_delta_frame(
    parent: &[u8],
    target: &[u8],
    target_sum: u64,
    link: ChainLink,
    parent_iteration: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(target.len() / 8 + 64);
    out.extend_from_slice(DELTA_FRAME_MAGIC);
    out.push(RLE_ZERO_TAG);
    put_u64(&mut out, link.chain_id);
    put_u32(&mut out, link.position);
    put_u64(&mut out, parent_iteration);
    put_u64(&mut out, link.parent_sum);
    put_u64(&mut out, target_sum);
    put_u64(&mut out, target.len() as u64);
    compress_xor(&mut out, target, parent);
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
            link: ChainLink {
                chain_id,
                position,
                parent_sum: get_u64(body, &mut pos)?,
            },
            target_sum: get_u64(body, &mut pos)?,
            raw_len: get_u64(body, &mut pos)?,
        })
    })()
    .ok_or_else(|| FrameError::Malformed("delta frame truncated in the header".to_string()))?;
    Ok((header, &body[pos..]))
}

/// Apply a delta frame in place to `payload`, the parent replay
/// reconstructed for `link.parent_sum`, verifying every chain invariant:
/// the chain id, the position and the parent sum against the carried
/// `link` before anything is decoded, and the reconstructed target's sum
/// after. On success `payload` holds the target and its verified sum is
/// returned — the next link's parent sum.
///
/// Only the literal runs are touched: zero runs of the XOR stream leave
/// the parent's bytes as they are. The stream is validated before the
/// first write, and a target that fails its sum is XOR-ed back (XOR is
/// its own inverse), so on every error `payload` is left unchanged.
///
/// # Errors
///
/// [`FrameError`] on any verification failure; `payload` is never trusted
/// to be right just because the bytes decode.
pub fn apply_delta_frame(
    frame: &[u8],
    payload: &mut Vec<u8>,
    link: ChainLink,
) -> Result<u64, FrameError> {
    let (header, body) = decode_delta_header(frame)?;
    let found = header.link;
    if found.chain_id != link.chain_id {
        return Err(FrameError::ChainMismatch(format!(
            "frame belongs to chain {:016x}, replaying chain {:016x}",
            found.chain_id, link.chain_id
        )));
    }
    if found.position != link.position {
        return Err(FrameError::ChainMismatch(format!(
            "frame is chain position {}, expected {}",
            found.position, link.position
        )));
    }
    if found.parent_sum != link.parent_sum {
        return Err(FrameError::ChainMismatch(format!(
            "frame was diffed against parent {:016x}, replay has {:016x}",
            found.parent_sum, link.parent_sum
        )));
    }
    let raw_len = payload_len(header.raw_len)?;
    walk_stream(body, raw_len, |_, _| {})?;
    let parent_len = payload.len();
    // The parent reads as zeros past its end.
    zero_extend(payload, raw_len)?;
    let xor = |payload: &mut Vec<u8>| {
        walk_stream(body, raw_len, |at, lit| {
            for (b, &l) in payload[at..at + lit.len()].iter_mut().zip(lit) {
                *b ^= l;
            }
        })
    };
    xor(payload)?;
    let computed = sum64(&payload[..raw_len]);
    if header.target_sum != computed {
        xor(payload)?;
        payload.truncate(parent_len);
        return Err(FrameError::TargetChecksum {
            stored: header.target_sum,
            computed,
        });
    }
    payload.truncate(raw_len);
    Ok(computed)
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

    fn compress(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress_xor(&mut out, raw, &[]);
        out
    }

    /// The codec as it was before XOR and compression were fused: XOR the
    /// zero-padded parent into a copy of the target, then encode the zero
    /// words of that copy one word at a time. Frames must not change.
    fn reference_compress_xor(target: &[u8], parent: &[u8]) -> Vec<u8> {
        let mut raw = target.to_vec();
        for (b, &p) in raw.iter_mut().zip(parent) {
            *b ^= p;
        }
        let words = raw.len() / 4;
        let word_at = |i: usize| &raw[i * 4..i * 4 + 4];
        let mut out = Vec::new();
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
        out.extend_from_slice(&raw[words * 4..]);
        out
    }

    /// A chain link whose parent is `parent`, at `position`.
    fn link_for(parent: &[u8], position: u32) -> ChainLink {
        ChainLink {
            chain_id: 42,
            position,
            parent_sum: sum64(parent),
        }
    }

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

        /// Delta frames reconstruct the target exactly in place, including
        /// when the payload grows or shrinks between checkpoints, and
        /// return its sum. Applied to a parent damaged where the target
        /// reads it, the frame fails its target sum and leaves the damaged
        /// parent exactly as it was.
        #[test]
        fn delta_frame_round_trip(
            parent in prop::collection::vec(any::<u8>(), 0..1024),
            target in prop::collection::vec(any::<u8>(), 0..1024),
            flip in 0usize..1024,
        ) {
            let link = link_for(&parent, 1);
            let frame = encode_delta_frame(&parent, &target, sum64(&target), link, 5);
            prop_assert!(decode_base_frame(&frame).is_err(), "a delta is not a base");
            let mut payload = parent.clone();
            let sum = apply_delta_frame(&frame, &mut payload, link).expect("round trip");
            prop_assert_eq!(sum, sum64(&target));
            prop_assert_eq!(&payload, &target);
            let read = parent.len().min(target.len());
            if read > 0 {
                let mut damaged = parent.clone();
                damaged[flip % read] ^= 0x10;
                let before = damaged.clone();
                let err = apply_delta_frame(&frame, &mut damaged, link);
                prop_assert!(matches!(err, Err(FrameError::TargetChecksum { .. })), "{:?}", err);
                prop_assert_eq!(damaged, before);
            }
        }

        /// Fusing the XOR into the encoder leaves every frame byte as the
        /// two-step codec wrote it, for sparse and dense differences and
        /// for parents shorter or longer than the target.
        #[test]
        fn one_pass_xor_codec_matches_the_two_step_codec(
            parent in prop::collection::vec(any::<u8>(), 0..700),
            len in 0usize..700,
            dirty in prop::collection::vec((0usize..700, any::<u8>()), 0..24),
        ) {
            let mut target: Vec<u8> = (0..len).map(|i| parent.get(i).copied().unwrap_or(0)).collect();
            for (at, v) in dirty {
                if let Some(b) = target.get_mut(at) {
                    *b = v;
                }
            }
            let mut fused = Vec::new();
            compress_xor(&mut fused, &target, &parent);
            prop_assert_eq!(fused, reference_compress_xor(&target, &parent));
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
            let link = link_for(&payload, 1);
            let delta = encode_delta_frame(&payload, &payload, sum64(&payload), link, 0);
            let cut_d = cut.min(delta.len().saturating_sub(1));
            let mut parent = payload.clone();
            prop_assert!(apply_delta_frame(&delta[..cut_d], &mut parent, link).is_err());
            prop_assert_eq!(parent, payload, "a failed apply leaves its parent untouched");
        }
    }

    #[test]
    fn apply_verifies_every_chain_invariant() {
        let parent = b"parent payload".to_vec();
        let target = b"target payload!".to_vec();
        let link = link_for(&parent, 3);
        let frame = encode_delta_frame(&parent, &target, sum64(&target), link, 7);
        // Every failure leaves the payload it was given as it was.
        let apply = |payload: &[u8], link: ChainLink| {
            let mut out = payload.to_vec();
            let result = apply_delta_frame(&frame, &mut out, link);
            if result.is_err() {
                assert_eq!(out, payload, "a failed apply changed its payload");
            }
            result.map(|sum| (out, sum))
        };

        // Happy path.
        assert_eq!(
            apply(&parent, link).expect("applies"),
            (target.clone(), sum64(&target))
        );
        // Wrong chain id.
        let other_chain = ChainLink {
            chain_id: link.chain_id ^ 1,
            ..link
        };
        assert!(matches!(
            apply(&parent, other_chain),
            Err(FrameError::ChainMismatch(_))
        ));
        // Wrong position.
        assert!(matches!(
            apply(&parent, link.next(link.parent_sum)),
            Err(FrameError::ChainMismatch(_))
        ));
        // Wrong carried parent sum: caught before anything is decoded.
        let other_parent = link_for(b"parent payloaX", 3);
        assert!(matches!(
            apply(&parent, other_parent),
            Err(FrameError::ChainMismatch(_))
        ));
        // Wrong parent bytes under the right carried sum: the XOR rebuilds
        // the wrong target, which the target sum catches.
        assert!(matches!(
            apply(b"parent payloaX", link),
            Err(FrameError::TargetChecksum { .. })
        ));
        // Flipped byte in the frame body: caught by the target sum.
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let mut out = parent.clone();
        let err = apply_delta_frame(&corrupt, &mut out, link);
        assert!(
            matches!(
                err,
                Err(FrameError::TargetChecksum { .. }) | Err(FrameError::Malformed(_))
            ),
            "{err:?}"
        );
        assert_eq!(out, parent);
    }

    #[test]
    fn delta_header_exposes_chain_fields() {
        let parent = vec![1u8; 64];
        let target = vec![2u8; 72];
        let link = ChainLink {
            chain_id: 42,
            position: 9,
            parent_sum: sum64(&parent),
        };
        let frame = encode_delta_frame(&parent, &target, sum64(&target), link, 100);
        let (header, _) = decode_delta_header(&frame).expect("header decodes");
        assert_eq!(header.link, link);
        let parent_iteration = get_u64(&frame, &mut (DELTA_FRAME_MAGIC.len() + 1 + 8 + 4));
        assert_eq!(parent_iteration, Some(100));
        assert_eq!(header.target_sum, sum64(&target));
        assert_eq!(header.raw_len, 72);
    }

    #[test]
    fn pre_frame_payloads_are_not_base_frames() {
        // Older builds sealed the raw checkpoint (binary magic or JSON)
        // without a frame around it, or framed it with version 1 magics.
        for legacy in [
            &b"A3CSBIN2...."[..],
            b"{\"version\":2}",
            b"",
            b"A3CSFRB1\x01",
        ] {
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
        let sum = sum64(&payload);
        let frame = encode_delta_frame(&payload, &payload, sum, ChainLink::first(sum), 0);
        assert!(
            frame.len() < 128,
            "an all-zero XOR stream must collapse: {} bytes",
            frame.len()
        );
    }
}
