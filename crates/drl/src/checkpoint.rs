//! Parameter checkpointing: persist and restore agent weights as JSON,
//! plus the durable-write machinery shared by all checkpoint producers —
//! atomic writes, a checksummed envelope format, and a rotating on-disk
//! store with corruption fallback.
//!
//! The harnesses use [`Checkpoint`] to train a teacher once and reuse it
//! across experiments, mirroring how the paper pretrains one ResNet-20
//! teacher per task. The co-search loop's fault-tolerance layer persists
//! its resumable search checkpoints as frame chains in a
//! [`CheckpointStore`], sealed by [`seal_envelope_bytes`].

use crate::agent::ActorCritic;
use crate::frame::{
    apply_delta_frame, decode_base_frame, ChainLink, CheckpointIo, FrameError, StdIo,
};
use a3cs_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// A serialisable snapshot of one agent's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    entries: Vec<ParamEntry>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Error loading or applying a checkpoint.
#[derive(Debug)]
pub enum LoadCheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint.
    Parse(serde_json::Error),
    /// The checkpoint does not match the agent's parameter list.
    Mismatch(String),
}

impl fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadCheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            LoadCheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            LoadCheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl Error for LoadCheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadCheckpointError::Io(e) => Some(e),
            LoadCheckpointError::Parse(e) => Some(e),
            LoadCheckpointError::Mismatch(_) => None,
        }
    }
}

impl From<std::io::Error> for LoadCheckpointError {
    fn from(e: std::io::Error) -> Self {
        LoadCheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for LoadCheckpointError {
    fn from(e: serde_json::Error) -> Self {
        LoadCheckpointError::Parse(e)
    }
}

/// Error saving a checkpoint.
#[derive(Debug)]
pub enum SaveCheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The checkpoint could not be serialised.
    Serialize(serde_json::Error),
}

impl fmt::Display for SaveCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveCheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            SaveCheckpointError::Serialize(e) => {
                write!(f, "checkpoint serialise error: {e}")
            }
        }
    }
}

impl Error for SaveCheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SaveCheckpointError::Io(e) => Some(e),
            SaveCheckpointError::Serialize(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SaveCheckpointError {
    fn from(e: std::io::Error) -> Self {
        SaveCheckpointError::Io(e)
    }
}

/// Write `contents` to `path` atomically: write a sibling `*.tmp` file and
/// rename it into place, so readers never observe a half-written file even
/// if the process dies mid-write.
///
/// # Errors
///
/// Returns any filesystem error encountered; the temporary file is removed
/// on failure when possible.
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> Result<(), std::io::Error> {
    write_atomic_bytes_with(&mut StdIo, path, contents)
}

/// [`write_atomic_bytes`] through an explicit [`CheckpointIo`], so tests
/// can fail the write, short-write it, or tear the rename deterministically.
/// Cleanup of the temporary file is best-effort — a torn rename can leave
/// it behind, which is exactly what [`CheckpointStore::recover_and_scrub`]
/// quarantines.
///
/// # Errors
///
/// Returns any I/O error the injected (or real) filesystem reports.
pub fn write_atomic_bytes_with(
    io: &mut dyn CheckpointIo,
    path: &Path,
    contents: &[u8],
) -> Result<(), std::io::Error> {
    let mut tmp_name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("checkpoint"), ToOwned::to_owned);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    if let Err(e) = io.write_file(&tmp, contents) {
        io.remove_file(&tmp).ok();
        return Err(e);
    }
    match io.rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            io.remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Odd multipliers of the checksum (the 64-bit primes of xxHash64).
const SUM_P1: u64 = 0x9e37_79b1_85eb_ca87;
const SUM_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const SUM_P3: u64 = 0x1656_67b1_9e37_79f9;

/// One word step of a checksum lane. For a fixed lane it is injective in
/// `word`, and for a fixed `word` it is a bijection of the lane, so a
/// word that differs leaves its lane different through every later step.
fn sum_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(SUM_P2))
        .rotate_left(31)
        .wrapping_mul(SUM_P1)
}

/// The checkpoint checksum: the envelope's `sum64`, chain ids, delta
/// frame sums and the config fingerprint.
///
/// Four independent lanes consume the input as little-endian `u64` words,
/// one word per lane per 32-byte stripe, so the lanes' multiplies overlap
/// and the sum runs at memory speed. The lanes are then folded into one
/// value together with the length, the remaining words and the
/// zero-padded tail bytes go through the same word step, and a final
/// avalanche mixes the result. Every step is a bijection of the running
/// value, so flipping any single bit of the input changes the sum; inputs
/// of different lengths differ in the folded length. Not cryptographic:
/// it detects truncation and corruption, not tampering.
#[must_use]
pub fn sum64(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (stripes, rest) = words.as_chunks::<4>();
    let mut lanes = [
        SUM_P1.wrapping_add(SUM_P2),
        SUM_P2,
        0,
        SUM_P1.wrapping_neg(),
    ];
    for &[w0, w1, w2, w3] in stripes {
        lanes = [
            sum_round(lanes[0], u64::from_le_bytes(w0)),
            sum_round(lanes[1], u64::from_le_bytes(w1)),
            sum_round(lanes[2], u64::from_le_bytes(w2)),
            sum_round(lanes[3], u64::from_le_bytes(w3)),
        ];
    }
    let folded = lanes
        .iter()
        .zip([1, 7, 12, 18])
        .fold(0u64, |acc, (&lane, r)| {
            acc.wrapping_add(lane.rotate_left(r))
        });
    let len = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
    let mut sum = rest.iter().fold(folded.wrapping_add(len), |acc, word| {
        sum_round(acc, u64::from_le_bytes(*word))
    });
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        sum = sum_round(sum, u64::from_le_bytes(word));
    }
    sum ^= sum >> 33;
    sum = sum.wrapping_mul(SUM_P2);
    sum ^= sum >> 29;
    sum = sum.wrapping_mul(SUM_P3);
    sum ^ (sum >> 32)
}

/// Magic/version prefix of the checkpoint envelope header line. Version 3
/// carries [`sum64`]; envelopes of older versions are malformed, so their
/// files are skipped and quarantined.
const ENVELOPE_MAGIC: &str = "A3CS-CKPT v3";

/// Wrap `payload` in the checkpoint envelope: a single ASCII header line
/// `A3CS-CKPT v3 sum64=<16 hex digits>` followed by the payload bytes
/// verbatim. [`unseal_envelope_bytes`] verifies the checksum over them.
#[must_use]
pub fn seal_envelope_bytes(payload: &[u8]) -> Vec<u8> {
    let header = format!("{ENVELOPE_MAGIC} sum64={:016x}\n", sum64(payload));
    let mut sealed = Vec::with_capacity(header.len() + payload.len());
    sealed.extend_from_slice(header.as_bytes());
    sealed.extend_from_slice(payload);
    sealed
}

/// Why an envelope failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The header line is missing, has the wrong magic/version, or carries
    /// an unparsable checksum.
    Malformed {
        /// Description of what was wrong with the header.
        detail: String,
    },
    /// The payload bytes do not hash to the checksum in the header —
    /// the file was truncated or corrupted.
    Checksum {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the payload actually present.
        computed: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Malformed { detail } => {
                write!(f, "malformed checkpoint envelope: {detail}")
            }
            EnvelopeError::Checksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header says {stored:016x}, \
                 payload hashes to {computed:016x} (truncated or corrupted)"
            ),
        }
    }
}

impl Error for EnvelopeError {}

/// Verify and strip the envelope added by [`seal_envelope_bytes`],
/// returning the payload.
///
/// # Errors
///
/// [`EnvelopeError`] when the header is malformed or the checksum does not
/// match the payload.
pub fn unseal_envelope_bytes(bytes: &[u8]) -> Result<&[u8], EnvelopeError> {
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(EnvelopeError::Malformed {
            detail: "no header line".to_string(),
        });
    };
    let (header_bytes, payload) = (&bytes[..newline], &bytes[newline + 1..]);
    let Ok(header) = std::str::from_utf8(header_bytes) else {
        return Err(EnvelopeError::Malformed {
            detail: "header line is not UTF-8".to_string(),
        });
    };
    let Some(rest) = header.strip_prefix(ENVELOPE_MAGIC) else {
        return Err(EnvelopeError::Malformed {
            detail: format!("header {header:?} does not start with {ENVELOPE_MAGIC:?}"),
        });
    };
    let Some(hex) = rest.trim().strip_prefix("sum64=") else {
        return Err(EnvelopeError::Malformed {
            detail: format!("header {header:?} lacks a sum64= checksum"),
        });
    };
    let Ok(stored) = u64::from_str_radix(hex, 16) else {
        return Err(EnvelopeError::Malformed {
            detail: format!("unparsable checksum {hex:?}"),
        });
    };
    let computed = sum64(payload);
    if stored != computed {
        return Err(EnvelopeError::Checksum { stored, computed });
    }
    Ok(payload)
}

/// A rotating directory of sealed checkpoint chains: base frames as
/// `ckpt-<iteration>.json`, delta frames as `ckpt-<iteration>.delta`, all
/// written atomically, pruned to the chains of the newest `keep` bases, and
/// read back newest-first with automatic fallback past corrupt frames.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

/// Outcome of [`CheckpointStore::recover_and_scrub`]: what was recovered,
/// what recovery had to step past, and what was quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovery {
    /// `(iteration, payload)` of the newest chain tip that verified end to
    /// end, if any did. Payloads are opaque bytes to the store.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// One human-readable diagnostic per base newer than the recovered one
    /// that had to be skipped (unreadable, malformed, or failed its
    /// checksum), newest first.
    pub skipped: Vec<String>,
    /// The delta frame of the recovered chain that failed verification,
    /// if any, forcing recovery to stop at the verified chain prefix.
    pub fallbacks: Vec<String>,
    /// Original paths of every file quarantined (renamed to `<name>.bad`),
    /// with a reason, formatted `"<path>: <reason>"`. Nothing is ever
    /// deleted, so a human (or a later forensic pass) can inspect them.
    pub quarantined: Vec<String>,
}

/// Rename `path` to `<name>.bad`, recording it in `quarantined` when the
/// rename succeeds.
fn quarantine(
    io: &mut dyn CheckpointIo,
    path: &Path,
    reason: &str,
    quarantined: &mut Vec<String>,
) {
    let mut bad = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("frame"), ToOwned::to_owned);
    bad.push(".bad");
    if io.rename(path, &path.with_file_name(bad)).is_ok() {
        quarantined.push(format!("{}: {reason}", path.display()));
    }
}

impl CheckpointStore {
    /// A store rooted at `dir`, retaining the chains of the newest `keep`
    /// base frames (clamped to at least 1).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        CheckpointStore {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the base frame for `iteration`.
    #[must_use]
    pub fn path_for(&self, iteration: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{iteration:012}.json"))
    }

    /// Path of the delta frame for `iteration`.
    #[must_use]
    pub fn delta_path_for(&self, iteration: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{iteration:012}.delta"))
    }

    /// Files named `ckpt-<iteration>.<ext>` as `(iteration, path)`, oldest
    /// first. Files whose names do not parse are ignored.
    fn files_with_ext(&self, ext: &str) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<(u64, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                let iter = name.strip_prefix("ckpt-")?.strip_suffix(ext)?;
                Some((iter.parse::<u64>().ok()?, path))
            })
            .collect();
        files.sort_by_key(|&(iter, _)| iter);
        files
    }

    /// All base frames currently in the store as `(iteration, path)`,
    /// **newest first** (recovery order).
    #[must_use]
    pub fn candidates(&self) -> Vec<(u64, PathBuf)> {
        let mut files = self.files_with_ext(".json");
        files.reverse();
        files
    }

    /// All delta frames currently in the store as `(iteration, path)`,
    /// **oldest first** (replay order).
    #[must_use]
    pub fn delta_candidates(&self) -> Vec<(u64, PathBuf)> {
        self.files_with_ext(".delta")
    }

    /// Seal `frame` (an encoded base frame) and write it atomically as the
    /// base checkpoint for `iteration`, then prune whole chains beyond the
    /// newest `keep` bases. Returns the path and the sealed on-disk size.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the directory or writing
    /// the file. Pruning failures are ignored — stale files cost disk, not
    /// correctness.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn write_base_frame(
        &self,
        io: &mut dyn CheckpointIo,
        iteration: u64,
        frame: &[u8],
    ) -> Result<(PathBuf, u64), std::io::Error> {
        let written = self.write_sealed(io, self.path_for(iteration), frame)?;
        self.prune_chains();
        Ok(written)
    }

    /// Seal `frame` (an encoded delta frame) and write it atomically as
    /// the delta checkpoint for `iteration`. Deltas are never pruned on
    /// their own — they live and die with the base of their chain.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the directory or writing
    /// the file.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn write_delta_frame(
        &self,
        io: &mut dyn CheckpointIo,
        iteration: u64,
        frame: &[u8],
    ) -> Result<(PathBuf, u64), std::io::Error> {
        self.write_sealed(io, self.delta_path_for(iteration), frame)
    }

    fn write_sealed(
        &self,
        io: &mut dyn CheckpointIo,
        path: PathBuf,
        frame: &[u8],
    ) -> Result<(PathBuf, u64), std::io::Error> {
        fs::create_dir_all(&self.dir)?;
        let sealed = seal_envelope_bytes(frame);
        write_atomic_bytes_with(io, &path, &sealed)?;
        // a3cs::allow(lossy-cast): usize → u64 widens, a frame length is exact
        Ok((path, sealed.len() as u64))
    }

    /// Remove every `.json`/`.delta` file older than the oldest of the
    /// newest `keep` base checkpoints. Whole chains go together: a delta
    /// is attributed to the newest base at or below its iteration, so the
    /// cutoff at a base iteration never strands a kept base's deltas.
    fn prune_chains(&self) {
        let bases = self.candidates();
        let Some(&(cutoff, _)) = bases.get(self.keep - 1).or(bases.last()) else {
            return;
        };
        for (_, stale) in bases.iter().skip(self.keep) {
            fs::remove_file(stale).ok();
        }
        for (iter, stale) in self.delta_candidates() {
            if iter < cutoff {
                fs::remove_file(stale).ok();
            }
        }
    }

    /// Read one sealed frame file, verify its envelope and hand the frame
    /// to `parse`; any failure is described with the file's path.
    fn parse_sealed<T>(
        path: &Path,
        parse: impl FnOnce(&[u8]) -> Result<T, FrameError>,
    ) -> Result<T, String> {
        let bytes = fs::read(path).map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
        let frame =
            unseal_envelope_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        parse(frame).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Recover the newest checkpoint payload that verifies end to end, and
    /// quarantine every frame that does not — in one walk over the store.
    ///
    /// Bases are walked newest-first. Each base is decoded and its deltas
    /// (every delta strictly newer than it and strictly older than the next
    /// newer base) replayed in order, verifying chain id, position, parent
    /// checksum and target checksum at every link. Sums are carried along
    /// the chain: each link hashes only the payload it reconstructs, and
    /// its parent sum is checked against the previous link's target sum
    /// (the base's sum, the chain id, at position 1). The first base that
    /// decodes is the recovery: its replay stops at the verified prefix (a
    /// broken link is recorded in [`Recovery::fallbacks`]), and every newer
    /// base that failed is recorded in [`Recovery::skipped`]. Older chains
    /// are verified too, so one walk quarantines broken bases (with their
    /// now-unreachable deltas), the first broken link of each chain plus
    /// everything downstream of it, orphan deltas older than the oldest
    /// base, and stray `.tmp` files left by torn renames. Quarantine renames
    /// the file to `<name>.bad` — nothing is deleted, so no scrub bug can
    /// destroy the last good copy of anything. Never panics.
    #[must_use = "the recovery lists what was skipped and quarantined, which must be surfaced"]
    pub fn recover_and_scrub(&self, io: &mut dyn CheckpointIo) -> Recovery {
        let mut recovery = Recovery::default();
        let bases = self.candidates();
        let deltas = self.delta_candidates();
        for (idx, (base_iter, base_path)) in bases.iter().enumerate() {
            let next_base = idx.checked_sub(1).map(|i| bases[i].0);
            let chain_deltas = deltas
                .iter()
                .filter(|(i, _)| *i > *base_iter && next_base.is_none_or(|nb| *i < nb));
            let mut current = match Self::parse_sealed(base_path, decode_base_frame) {
                Ok(payload) => payload,
                Err(e) => {
                    if recovery.checkpoint.is_none() {
                        recovery.skipped.push(e.clone());
                    }
                    quarantine(io, base_path, &e, &mut recovery.quarantined);
                    for (_, d_path) in chain_deltas {
                        quarantine(io, d_path, "chain base quarantined", &mut recovery.quarantined);
                    }
                    continue;
                }
            };
            let recovering = recovery.checkpoint.is_none();
            let mut link = ChainLink::first(sum64(&current));
            let mut tip = *base_iter;
            let mut broken = false;
            for (d_iter, d_path) in chain_deltas {
                if broken {
                    let reason = "downstream of a quarantined delta";
                    quarantine(io, d_path, reason, &mut recovery.quarantined);
                    continue;
                }
                match Self::parse_sealed(d_path, |f| apply_delta_frame(f, &mut current, link)) {
                    Ok(target_sum) => {
                        tip = *d_iter;
                        link = link.next(target_sum);
                    }
                    Err(e) => {
                        // A failed apply leaves `current` at the verified
                        // prefix, and later deltas in this chain cannot
                        // verify either: recovery resumes from the prefix.
                        if recovering {
                            recovery.fallbacks.push(e.clone());
                        }
                        quarantine(io, d_path, &e, &mut recovery.quarantined);
                        broken = true;
                    }
                }
            }
            if recovering {
                recovery.checkpoint = Some((tip, current));
            }
        }
        // Orphan deltas older than the oldest base can never replay.
        let oldest_base = bases.last().map(|&(iter, _)| iter);
        for (d_iter, d_path) in &deltas {
            if oldest_base.is_none_or(|oldest| *d_iter <= oldest) {
                quarantine(io, d_path, "orphan delta with no base", &mut recovery.quarantined);
            }
        }
        // Stray temporaries are evidence of a torn rename.
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for path in entries.filter_map(Result::ok).map(|e| e.path()) {
                if path.extension().is_some_and(|e| e == "tmp") {
                    let reason = "stray temporary from a torn rename";
                    quarantine(io, &path, reason, &mut recovery.quarantined);
                }
            }
        }
        recovery
    }
}

impl Checkpoint {
    /// Capture the current parameter values of `agent`.
    #[must_use]
    pub fn capture(agent: &ActorCritic) -> Self {
        let entries = agent
            .params()
            .iter()
            .map(|p| {
                let value = p.value();
                ParamEntry {
                    name: p.name().to_owned(),
                    shape: value.shape().to_vec(),
                    data: value.data().to_vec(),
                }
            })
            .collect();
        Checkpoint { entries }
    }

    /// Number of parameter tensors stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the checkpoint stores no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Write the checkpoint as JSON to `path`, atomically (tmp + rename),
    /// so a crash mid-save never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`SaveCheckpointError`] on serialisation or filesystem
    /// failure.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn save(&self, path: &Path) -> Result<(), SaveCheckpointError> {
        let json = serde_json::to_string(self).map_err(SaveCheckpointError::Serialize)?;
        write_atomic_bytes(path, json.as_bytes())?;
        Ok(())
    }

    /// Read a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadCheckpointError`] on IO or parse failure.
    pub fn load(path: &Path) -> Result<Self, LoadCheckpointError> {
        let json = fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Apply the stored values to `agent` (parameter lists must match in
    /// order, name and shape).
    ///
    /// # Errors
    ///
    /// Returns [`LoadCheckpointError::Mismatch`] when the agent's
    /// architecture differs from the checkpointed one.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn apply(&self, agent: &ActorCritic) -> Result<(), LoadCheckpointError> {
        let params = agent.params();
        if params.len() != self.entries.len() {
            return Err(LoadCheckpointError::Mismatch(format!(
                "agent has {} parameters, checkpoint has {}",
                params.len(),
                self.entries.len()
            )));
        }
        for (p, e) in params.iter().zip(self.entries.iter()) {
            if p.name() != e.name {
                return Err(LoadCheckpointError::Mismatch(format!(
                    "parameter {} vs checkpoint entry {}",
                    p.name(),
                    e.name
                )));
            }
            let tensor = Tensor::from_vec(e.data.clone(), &e.shape).map_err(|err| {
                LoadCheckpointError::Mismatch(format!("entry {}: {err}", e.name))
            })?;
            if tensor.shape() != p.value().shape() {
                return Err(LoadCheckpointError::Mismatch(format!(
                    "parameter {} shape {:?} vs checkpoint {:?}",
                    p.name(),
                    p.value().shape(),
                    tensor.shape()
                )));
            }
            p.set_value(tensor);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_base_frame, encode_delta_frame};
    use a3cs_nn::vanilla;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Flipping any single bit of a payload, or dropping any non-empty
        /// suffix, changes its sum — at lengths of whole stripes, whole
        /// words and ragged tails alike.
        #[test]
        fn sum64_changes_on_any_bit_flip_or_dropped_suffix(
            payload in prop::collection::vec(any::<u8>(), 0..2048),
        ) {
            let sum = sum64(&payload);
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1u8 << (bit % 8);
                prop_assert_ne!(sum64(&flipped), sum, "bit {} of {} bytes", bit, payload.len());
                flipped[bit / 8] ^= 1u8 << (bit % 8);
            }
            for cut in 0..payload.len() {
                prop_assert_ne!(sum64(&payload[..cut]), sum, "prefix of {} bytes", cut);
            }
        }
    }

    #[test]
    fn sum64_is_pinned_across_builds() {
        // Chain ids and envelope sums are persisted: the function must not
        // drift between builds that share the envelope version.
        // 45 bytes: one stripe, one whole word and a 5-byte tail.
        let probe: Vec<u8> = (0u8..45).collect();
        assert_eq!(sum64(b""), 0x9090_306c_6e91_ed59);
        assert_eq!(sum64(b"a3cs"), 0x5b3a_0017_af56_1cb6);
        assert_eq!(sum64(&probe), 0xa7a0_2975_f897_5def);
    }

    fn agent(seed: u64) -> ActorCritic {
        let backbone = vanilla(3, 12, 12, 16, seed);
        ActorCritic::new(Box::new(backbone), 16, (3, 12, 12), 3, seed)
    }

    #[test]
    fn capture_apply_round_trip() {
        let a = agent(1);
        let b = agent(2);
        let obs = vec![0.4; 3 * 12 * 12];
        assert_ne!(a.policy_probs(&obs, 1), b.policy_probs(&obs, 1));
        Checkpoint::capture(&a).apply(&b).expect("compatible agents");
        assert_eq!(a.policy_probs(&obs, 1), b.policy_probs(&obs, 1));
    }

    /// A per-test, per-process scratch directory: tests used to share one
    /// fixed path and could race each other (or stale state from a killed
    /// run) when the suite ran concurrently.
    fn test_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("a3cs_ckpt_{}_{test}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let a = agent(3);
        let dir = test_dir("save_load_round_trip");
        let path = dir.join("agent.json");
        let ck = Checkpoint::capture(&a);
        ck.save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        assert_eq!(ck, loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_tmp_file_behind() {
        let dir = test_dir("save_leaves_no_tmp_file_behind");
        let path = dir.join("agent.json");
        Checkpoint::capture(&agent(6)).save(&path).expect("save");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["agent.json".to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_round_trip_and_rejection() {
        let payload = br#"{"hello": [1, 2, 3]}"#;
        let sealed = seal_envelope_bytes(payload);
        assert_eq!(
            unseal_envelope_bytes(&sealed).expect("round trip"),
            payload.as_slice()
        );

        // Flip one payload byte: checksum must catch it.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        assert!(matches!(
            unseal_envelope_bytes(&flipped),
            Err(EnvelopeError::Checksum { .. })
        ));

        // Truncate mid-payload: checksum must catch it.
        assert!(matches!(
            unseal_envelope_bytes(&sealed[..sealed.len() - 4]),
            Err(EnvelopeError::Checksum { .. })
        ));

        // Not an envelope at all.
        assert!(matches!(
            unseal_envelope_bytes(b"random junk\nmore junk"),
            Err(EnvelopeError::Malformed { .. })
        ));
        assert!(matches!(
            unseal_envelope_bytes(b"no newline at all"),
            Err(EnvelopeError::Malformed { .. })
        ));
    }

    #[test]
    fn binary_envelope_round_trips_non_utf8_payloads() {
        let payload: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let sealed = seal_envelope_bytes(&payload);
        assert_eq!(
            unseal_envelope_bytes(&sealed).expect("round trip"),
            payload.as_slice()
        );
        // A flipped payload byte fails the checksum.
        let mut corrupt = sealed.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert!(matches!(
            unseal_envelope_bytes(&corrupt),
            Err(EnvelopeError::Checksum { .. })
        ));
    }

    /// Persist `payload` as a one-frame chain (a base) at `iteration`.
    fn write_base(store: &CheckpointStore, iteration: u64, payload: &[u8]) {
        store
            .write_base_frame(&mut StdIo, iteration, &encode_base_frame(payload))
            .expect("write base");
    }

    fn walk(store: &CheckpointStore) -> Recovery {
        store.recover_and_scrub(&mut StdIo)
    }

    #[test]
    fn store_rotates_and_recovers_newest() {
        let dir = test_dir("store_rotates_and_recovers_newest");
        let store = CheckpointStore::new(&dir, 2);
        for i in [3u64, 7, 11] {
            write_base(&store, i, format!("payload-{i}").as_bytes());
        }
        let files = store.candidates();
        assert_eq!(
            files.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![11, 7],
            "oldest checkpoint must be pruned"
        );
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((11, b"payload-11".to_vec())));
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        assert!(rec.quarantined.is_empty(), "{:?}", rec.quarantined);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_falls_back_past_corrupt_checkpoints() {
        let dir = test_dir("store_falls_back_past_corrupt_checkpoints");
        let store = CheckpointStore::new(&dir, 3);
        write_base(&store, 1, b"good-old");
        write_base(&store, 2, b"good-new");
        // Corrupt the newest on disk (simulating a torn write from a
        // pre-atomic producer or disk corruption).
        std::fs::write(
            store.path_for(2),
            "A3CS-CKPT v3 sum64=0000000000000000\nbad",
        )
        .expect("corrupt");
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((1, b"good-old".to_vec())));
        assert_eq!(rec.skipped.len(), 1, "{:?}", rec.skipped);
        assert!(rec.skipped[0].contains("checksum"), "{:?}", rec.skipped);
        assert_eq!(rec.quarantined.len(), 1, "{:?}", rec.quarantined);

        // Truncate the survivor too: recovery degrades to None, no panic.
        let bytes = std::fs::read(store.path_for(1)).expect("read");
        std::fs::write(store.path_for(1), &bytes[..bytes.len() - 2]).expect("truncate");
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, None);
        assert_eq!(rec.skipped.len(), 1, "the quarantined base is gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_recover_on_missing_dir_is_empty() {
        let store = CheckpointStore::new("/nonexistent/a3cs-ckpt-store", 2);
        assert_eq!(walk(&store), Recovery::default());
    }

    #[test]
    fn store_recover_on_existing_empty_dir_is_empty() {
        let dir = test_dir("store_recover_on_existing_empty_dir_is_empty");
        let store = CheckpointStore::new(&dir, 2);
        assert_eq!(walk(&store), Recovery::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_rotation_with_keep_one_retains_only_newest() {
        let dir = test_dir("store_rotation_with_keep_one_retains_only_newest");
        // keep = 0 clamps to 1: rotation may never delete every checkpoint.
        let store = CheckpointStore::new(&dir, 0);
        for i in 1u64..=5 {
            write_base(&store, i, format!("p{i}").as_bytes());
        }
        let files = store.candidates();
        assert_eq!(
            files.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![5],
            "keep=1 must retain exactly the newest checkpoint"
        );
        assert_eq!(walk(&store).checkpoint, Some((5, b"p5".to_vec())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_stores_sharing_a_parent_dir_stay_isolated() {
        let parent = test_dir("two_stores_sharing_a_parent_dir_stay_isolated");
        let a = CheckpointStore::new(parent.join("session-0000"), 2);
        let b = CheckpointStore::new(parent.join("session-0001"), 2);
        write_base(&a, 10, b"a-ten");
        write_base(&b, 20, b"b-twenty");
        write_base(&b, 21, b"b-twentyone");
        // Each store sees only its own files; writes and pruning in one
        // never touch the sibling.
        assert_eq!(walk(&a).checkpoint, Some((10, b"a-ten".to_vec())));
        assert_eq!(walk(&b).checkpoint, Some((21, b"b-twentyone".to_vec())));
        assert_eq!(a.candidates().len(), 1);
        assert_eq!(b.candidates().len(), 2);
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn recover_orders_by_name_not_mtime() {
        let dir = test_dir("recover_orders_by_name_not_mtime");
        let store = CheckpointStore::new(&dir, 4);
        // Write the *higher* iteration first, so its mtime is older (or
        // tied, on coarse-granularity filesystems). Recovery must still
        // pick iteration 5: ordering is by parsed iteration in the file
        // name, never by mtime, for determinism across filesystems.
        write_base(&store, 5, b"newest-by-name");
        write_base(&store, 3, b"newest-by-mtime");
        assert_eq!(
            walk(&store).checkpoint,
            Some((5, b"newest-by-name".to_vec()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Build a base + delta chain of `payloads` at iterations 10, 11, …
    /// through the store API.
    fn write_chain(store: &CheckpointStore, payloads: &[&[u8]]) {
        let base = payloads[0];
        write_base(store, 10, base);
        let mut link = ChainLink::first(sum64(base));
        for (i, pair) in payloads.windows(2).enumerate() {
            let target_sum = sum64(pair[1]);
            let frame = encode_delta_frame(pair[0], pair[1], target_sum, link, 10 + i as u64);
            store
                .write_delta_frame(&mut StdIo, 11 + i as u64, &frame)
                .expect("delta");
            link = link.next(target_sum);
        }
    }

    #[test]
    fn chain_recovery_replays_base_and_deltas() {
        let dir = test_dir("chain_recovery_replays_base_and_deltas");
        let store = CheckpointStore::new(&dir, 2);
        write_chain(&store, &[b"state-a!", b"state-b!", b"state-c!"]);
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((12, b"state-c!".to_vec())));
        assert!(rec.skipped.is_empty() && rec.fallbacks.is_empty(), "{rec:?}");
        assert!(rec.quarantined.is_empty(), "{rec:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_delta_falls_back_to_verified_prefix() {
        let dir = test_dir("corrupt_delta_falls_back_to_verified_prefix");
        let store = CheckpointStore::new(&dir, 2);
        write_chain(&store, &[b"state-a!", b"state-b!", b"state-c!"]);
        // Flip a byte in the middle delta: recovery must stop at the base.
        let path = store.delta_path_for(11);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((10, b"state-a!".to_vec())));
        assert_eq!(rec.fallbacks.len(), 1, "{rec:?}");
        // The same walk quarantined the broken delta and everything
        // downstream of it.
        assert_eq!(rec.quarantined.len(), 2, "{rec:?}");
        assert!(store.delta_path_for(11).with_extension("delta.bad").exists());
        // The next recovery is clean (prefix only, no fallbacks).
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((10, b"state-a!".to_vec())));
        assert!(rec.fallbacks.is_empty() && rec.quarantined.is_empty(), "{rec:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_chains_are_scrubbed_without_touching_the_recovery() {
        let dir = test_dir("older_chains_are_scrubbed_without_touching_the_recovery");
        let store = CheckpointStore::new(&dir, 2);
        write_chain(&store, &[b"old-base", b"old-tip!"]); // base 10, delta 11
        write_base(&store, 20, b"new-base");
        let path = store.delta_path_for(11);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((20, b"new-base".to_vec())));
        // The rotten delta belongs to a chain recovery never needed: it is
        // quarantined, but it is neither a skip nor a fallback.
        assert!(rec.skipped.is_empty() && rec.fallbacks.is_empty(), "{rec:?}");
        assert_eq!(rec.quarantined.len(), 1, "{rec:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_base_quarantines_orphan_deltas() {
        let dir = test_dir("missing_base_quarantines_orphan_deltas");
        let store = CheckpointStore::new(&dir, 2);
        write_chain(&store, &[b"state-a!", b"state-b!"]);
        std::fs::remove_file(store.path_for(10)).expect("drop base");
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, None, "{rec:?}");
        assert_eq!(rec.quarantined.len(), 1, "{rec:?}");
        assert!(rec.quarantined[0].contains("orphan"), "{rec:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_quarantines_stray_tmp_files() {
        let dir = test_dir("scrub_quarantines_stray_tmp_files");
        let store = CheckpointStore::new(&dir, 2);
        write_base(&store, 1, b"good");
        std::fs::write(dir.join("ckpt-000000000002.json.tmp"), b"torn").expect("tmp");
        let rec = walk(&store);
        assert_eq!(rec.quarantined.len(), 1, "{rec:?}");
        assert!(rec.quarantined[0].contains("torn rename"), "{rec:?}");
        assert!(dir.join("ckpt-000000000002.json.tmp.bad").exists());
        assert_eq!(rec.checkpoint, Some((1, b"good".to_vec())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruning_removes_whole_chains_together() {
        let dir = test_dir("pruning_removes_whole_chains_together");
        let store = CheckpointStore::new(&dir, 1);
        write_chain(&store, &[b"old-base", b"old-tip!"]); // base 10, delta 11
        // A new base at 20 with keep=1 must remove base 10 *and* delta 11.
        write_base(&store, 20, b"new-base");
        let link = ChainLink::first(sum64(b"new-base"));
        let frame = encode_delta_frame(b"new-base", b"new-tip!", sum64(b"new-tip!"), link, 20);
        store.write_delta_frame(&mut StdIo, 21, &frame).expect("delta");
        assert_eq!(store.candidates().len(), 1);
        assert_eq!(store.delta_candidates().len(), 1);
        let rec = walk(&store);
        assert_eq!(rec.checkpoint, Some((21, b"new-tip!".to_vec())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let a = agent(4);
        let bigger = {
            let backbone = vanilla(3, 12, 12, 32, 5);
            ActorCritic::new(Box::new(backbone), 32, (3, 12, 12), 3, 5)
        };
        let err = Checkpoint::capture(&a).apply(&bigger).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/a3cs.json")).unwrap_err();
        assert!(matches!(err, LoadCheckpointError::Io(_)));
    }
}
