//! Deterministic fault injection for the co-search loop, plus the
//! fault-tolerance configuration knobs.
//!
//! A [`FaultPlan`] schedules one-shot faults at exact co-search iterations,
//! so robustness tests are reproducible: a crash at iteration `N` is a
//! crash at iteration `N` on every run, at every thread count. Faults
//! never fire unless explicitly configured — the default plan is empty.

use crate::fault::io_faults::{flip_byte, truncate_file};
use std::path::{Path, PathBuf};

/// One scheduled fault. Each fires at most once, at the start (or, for
/// checkpoint corruption, the checkpoint write) of the given co-search
/// iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Return [`crate::SearchError::Aborted`] from `run_guarded` at the
    /// start of the iteration — simulating the process dying between two
    /// iterations (the checkpoint on disk is whatever was last written).
    Abort {
        /// Iteration to abort at.
        at_iteration: u64,
    },
    /// Poison the task loss with `NaN` before backward on this iteration,
    /// exercising the divergence sentinel and rollback path.
    NanLoss {
        /// Iteration whose loss is poisoned.
        at_iteration: u64,
    },
    /// After the checkpoint for this iteration is written, truncate the
    /// file to its first `keep_bytes` bytes — simulating a torn write.
    TruncateCheckpoint {
        /// Iteration whose checkpoint file is truncated.
        at_iteration: u64,
        /// Bytes of the file to keep.
        keep_bytes: usize,
    },
    /// After the checkpoint for this iteration is written, XOR one byte at
    /// `offset` (clamped into the file) — simulating bit rot.
    FlipCheckpointByte {
        /// Iteration whose checkpoint file is corrupted.
        at_iteration: u64,
        /// Byte offset to flip.
        offset: usize,
    },
    /// Arm a one-shot panic on the supervised thread pool at the start of
    /// the named phase: the next task a worker dequeues panics before
    /// running its closure. In a restartable region the pool contains it
    /// (quarantine + re-execution); in a stateful region the supervisor
    /// restores the iteration-entry snapshot and replays the iteration.
    WorkerPanic {
        /// Supervised phase (`"das_sweep"`, `"rollout"`, `"update"` or
        /// `"eval"`) in which to arm the panic.
        phase: String,
        /// Iteration at which to arm it.
        at_iteration: u64,
    },
    /// Poison one environment lane so its next `step` panics (the arm flag
    /// clears before the panic, so the fault is transient and a phase retry
    /// replays cleanly).
    EnvPanic {
        /// Environment lane (index into the rollout runner's lanes).
        lane: usize,
        /// Iteration whose rollout is poisoned.
        at_iteration: u64,
    },
    /// Sleep on the supervised thread for `millis` at the start of the
    /// named phase, tripping the stall watchdog's soft deadline.
    Stall {
        /// Supervised phase to stall.
        phase: String,
        /// Iteration at which to stall.
        at_iteration: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Fail the checkpoint write at this iteration before any bytes reach
    /// disk — simulating an I/O error (EIO, failed fsync) mid-frame.
    CheckpointIoError {
        /// Iteration whose checkpoint write fails.
        at_iteration: u64,
    },
    /// Short-write the checkpoint at this iteration: only the first
    /// `keep_bytes` bytes land before the write errors — simulating a full
    /// disk. The partial temporary file is cleaned up best-effort, exactly
    /// as the real path would.
    CheckpointDiskFull {
        /// Iteration whose checkpoint write is cut short.
        at_iteration: u64,
        /// Bytes that make it to disk before the failure.
        keep_bytes: usize,
    },
    /// Tear the atomic rename at this iteration: the temporary file is
    /// written in full, the rename fails, and the cleanup unlink fails too
    /// — leaving a stray `.tmp` behind, exactly what a crash between write
    /// and rename produces.
    CheckpointTornRename {
        /// Iteration whose rename is torn.
        at_iteration: u64,
    },
}

impl Fault {
    fn at_iteration(&self) -> u64 {
        match self {
            Fault::Abort { at_iteration }
            | Fault::NanLoss { at_iteration }
            | Fault::TruncateCheckpoint { at_iteration, .. }
            | Fault::FlipCheckpointByte { at_iteration, .. }
            | Fault::WorkerPanic { at_iteration, .. }
            | Fault::EnvPanic { at_iteration, .. }
            | Fault::Stall { at_iteration, .. }
            | Fault::CheckpointIoError { at_iteration }
            | Fault::CheckpointDiskFull { at_iteration, .. }
            | Fault::CheckpointTornRename { at_iteration } => *at_iteration,
        }
    }
}

/// A deterministic schedule of one-shot faults (empty by default — no
/// faults ever fire unless asked for).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a simulated crash at the start of `iteration`.
    #[must_use]
    pub fn abort_at(mut self, iteration: u64) -> Self {
        self.faults.push(Fault::Abort {
            at_iteration: iteration,
        });
        self
    }

    /// Add a `NaN` loss injection at `iteration`.
    #[must_use]
    pub fn nan_loss_at(mut self, iteration: u64) -> Self {
        self.faults.push(Fault::NanLoss {
            at_iteration: iteration,
        });
        self
    }

    /// Truncate the checkpoint written at `iteration` to `keep_bytes`.
    #[must_use]
    pub fn truncate_checkpoint_at(mut self, iteration: u64, keep_bytes: usize) -> Self {
        self.faults.push(Fault::TruncateCheckpoint {
            at_iteration: iteration,
            keep_bytes,
        });
        self
    }

    /// Flip one byte of the checkpoint written at `iteration`.
    #[must_use]
    pub fn flip_checkpoint_byte_at(mut self, iteration: u64, offset: usize) -> Self {
        self.faults.push(Fault::FlipCheckpointByte {
            at_iteration: iteration,
            offset,
        });
        self
    }

    /// Arm a one-shot worker panic on the supervised pool at the start of
    /// `phase` at `iteration` (see [`Fault::WorkerPanic`]).
    #[must_use]
    pub fn worker_panic_at(mut self, phase: &str, iteration: u64) -> Self {
        self.faults.push(Fault::WorkerPanic {
            phase: phase.to_string(),
            at_iteration: iteration,
        });
        self
    }

    /// Poison environment lane `lane` so its next step at `iteration`
    /// panics once (see [`Fault::EnvPanic`]).
    #[must_use]
    pub fn env_panic_at(mut self, lane: usize, iteration: u64) -> Self {
        self.faults.push(Fault::EnvPanic {
            lane,
            at_iteration: iteration,
        });
        self
    }

    /// Stall `phase` at `iteration` for `millis` milliseconds, tripping the
    /// watchdog's soft deadline (see [`Fault::Stall`]).
    #[must_use]
    pub fn stall_at(mut self, phase: &str, iteration: u64, millis: u64) -> Self {
        self.faults.push(Fault::Stall {
            phase: phase.to_string(),
            at_iteration: iteration,
            millis,
        });
        self
    }

    /// Fail the checkpoint write at `iteration` with an I/O error before
    /// any bytes land (see [`Fault::CheckpointIoError`]).
    #[must_use]
    pub fn io_error_at(mut self, iteration: u64) -> Self {
        self.faults.push(Fault::CheckpointIoError {
            at_iteration: iteration,
        });
        self
    }

    /// Short-write the checkpoint at `iteration` to `keep_bytes` before the
    /// write errors, as a full disk would (see
    /// [`Fault::CheckpointDiskFull`]).
    #[must_use]
    pub fn disk_full_at(mut self, iteration: u64, keep_bytes: usize) -> Self {
        self.faults.push(Fault::CheckpointDiskFull {
            at_iteration: iteration,
            keep_bytes,
        });
        self
    }

    /// Tear the atomic rename of the checkpoint at `iteration`, leaving a
    /// stray `.tmp` behind (see [`Fault::CheckpointTornRename`]).
    #[must_use]
    pub fn torn_rename_at(mut self, iteration: u64) -> Self {
        self.faults.push(Fault::CheckpointTornRename {
            at_iteration: iteration,
        });
        self
    }

    /// `true` if the plan contains an [`Fault::Abort`] (which only
    /// `run_guarded` can surface).
    #[must_use]
    pub fn has_abort(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Abort { .. }))
    }

    /// `true` if the plan schedules any in-process fault that needs the
    /// supervision layer to fire or be contained ([`Fault::WorkerPanic`],
    /// [`Fault::EnvPanic`] or [`Fault::Stall`]). `run_guarded` enables
    /// supervision automatically for such plans.
    #[must_use]
    pub fn has_supervised_fault(&self) -> bool {
        self.faults.iter().any(|f| {
            matches!(
                f,
                Fault::WorkerPanic { .. } | Fault::EnvPanic { .. } | Fault::Stall { .. }
            )
        })
    }
}

/// Runtime driver over a [`FaultPlan`]: tracks which faults have fired so
/// each is one-shot even when the surrounding iteration replays after a
/// rollback.
pub(crate) struct FaultDriver {
    faults: Vec<(Fault, bool)>,
}

impl FaultDriver {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultDriver {
            faults: plan.faults.into_iter().map(|f| (f, false)).collect(),
        }
    }

    /// Fire (at most once) the first unfired fault matching `pred` at
    /// `iteration`, returning it.
    fn fire(&mut self, iteration: u64, pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
        for (fault, fired) in &mut self.faults {
            if !*fired && fault.at_iteration() == iteration && pred(fault) {
                *fired = true;
                return Some(fault.clone());
            }
        }
        None
    }

    /// Should the loop simulate a crash right now?
    pub(crate) fn abort_now(&mut self, iteration: u64) -> bool {
        self.fire(iteration, |f| matches!(f, Fault::Abort { .. }))
            .is_some()
    }

    /// Should this iteration's loss be poisoned?
    pub(crate) fn nan_loss_now(&mut self, iteration: u64) -> bool {
        self.fire(iteration, |f| matches!(f, Fault::NanLoss { .. }))
            .is_some()
    }

    /// Should a worker panic be armed for `phase` right now? Each scheduled
    /// [`Fault::WorkerPanic`] fires once, so a retried phase only panics
    /// again if the plan schedules another one.
    pub(crate) fn worker_panic_now(&mut self, phase: &str, iteration: u64) -> bool {
        self.fire(
            iteration,
            |f| matches!(f, Fault::WorkerPanic { phase: p, .. } if p == phase),
        )
        .is_some()
    }

    /// Environment lane to poison for this iteration's rollout, if any.
    pub(crate) fn env_panic_now(&mut self, iteration: u64) -> Option<usize> {
        match self.fire(iteration, |f| matches!(f, Fault::EnvPanic { .. })) {
            Some(Fault::EnvPanic { lane, .. }) => Some(lane),
            _ => None,
        }
    }

    /// Milliseconds to stall `phase` for right now, if scheduled.
    pub(crate) fn stall_now(&mut self, phase: &str, iteration: u64) -> Option<u64> {
        match self.fire(
            iteration,
            |f| matches!(f, Fault::Stall { phase: p, .. } if p == phase),
        ) {
            Some(Fault::Stall { millis, .. }) => Some(millis),
            _ => None,
        }
    }

    /// Apply every scheduled corruption to the checkpoint file just written
    /// for `iteration`, returning a description of each applied fault.
    pub(crate) fn corrupt_checkpoint_now(&mut self, iteration: u64, path: &Path) -> Vec<String> {
        let mut applied = Vec::new();
        loop {
            let fault = self.fire(iteration, |f| {
                matches!(
                    f,
                    Fault::TruncateCheckpoint { .. } | Fault::FlipCheckpointByte { .. }
                )
            });
            let Some(fault) = fault else { break };
            let outcome = match &fault {
                Fault::TruncateCheckpoint { keep_bytes, .. } => truncate_file(path, *keep_bytes),
                Fault::FlipCheckpointByte { offset, .. } => flip_byte(path, *offset),
                Fault::Abort { .. }
                | Fault::NanLoss { .. }
                | Fault::WorkerPanic { .. }
                | Fault::EnvPanic { .. }
                | Fault::Stall { .. }
                | Fault::CheckpointIoError { .. }
                | Fault::CheckpointDiskFull { .. }
                | Fault::CheckpointTornRename { .. } => {
                    unreachable!("fire() matched only checkpoint corruptions")
                }
            };
            match outcome {
                Ok(()) => applied.push(format!("{fault:?} applied to {}", path.display())),
                Err(e) => applied.push(format!("{fault:?} failed: {e}")),
            }
        }
        applied
    }

    /// The injected I/O failure mode (if any) armed for the checkpoint
    /// write at `iteration`. One-shot, like every fault. The returned mode
    /// plugs into [`FaultyIo`] so the failure happens *inside* the durable
    /// write path, not as post-hoc file surgery.
    pub(crate) fn io_fault_now(&mut self, iteration: u64) -> Option<IoFaultMode> {
        let fault = self.fire(iteration, |f| {
            matches!(
                f,
                Fault::CheckpointIoError { .. }
                    | Fault::CheckpointDiskFull { .. }
                    | Fault::CheckpointTornRename { .. }
            )
        })?;
        Some(match fault {
            Fault::CheckpointIoError { .. } => IoFaultMode::Error,
            Fault::CheckpointDiskFull { keep_bytes, .. } => IoFaultMode::ShortWrite(keep_bytes),
            Fault::CheckpointTornRename { .. } => IoFaultMode::TornRename,
            _ => unreachable!("fire() matched only io faults"),
        })
    }
}

/// How [`FaultyIo`] sabotages the next durable write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoFaultMode {
    /// `write_file` fails immediately; nothing reaches disk.
    Error,
    /// `write_file` persists only the first N bytes, then fails (disk
    /// full).
    ShortWrite(usize),
    /// `write_file` succeeds, `rename` fails, and `remove_file` fails too,
    /// stranding the temporary file (torn rename).
    TornRename,
}

impl IoFaultMode {
    pub(crate) fn describe(self) -> &'static str {
        match self {
            IoFaultMode::Error => "checkpoint write failed with an injected io error",
            IoFaultMode::ShortWrite(_) => "checkpoint write cut short by an injected full disk",
            IoFaultMode::TornRename => "checkpoint rename torn by injection, tmp file stranded",
        }
    }
}

/// A [`CheckpointIo`](a3cs_drl::CheckpointIo) that applies at most one
/// [`IoFaultMode`] and passes everything else through to `std::fs` — so an
/// injected failure exercises exactly the code path a real one would.
pub(crate) struct FaultyIo {
    mode: Option<IoFaultMode>,
}

impl FaultyIo {
    pub(crate) fn new(mode: Option<IoFaultMode>) -> Self {
        FaultyIo { mode }
    }
}

impl a3cs_drl::CheckpointIo for FaultyIo {
    fn write_file(&mut self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
        match self.mode {
            Some(IoFaultMode::Error) => {
                self.mode = None;
                Err(std::io::Error::other("injected checkpoint io error"))
            }
            Some(IoFaultMode::ShortWrite(keep)) => {
                self.mode = None;
                std::fs::write(path, &contents[..keep.min(contents.len())])?;
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected disk-full short write",
                ))
            }
            Some(IoFaultMode::TornRename) | None => std::fs::write(path, contents),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        if matches!(self.mode, Some(IoFaultMode::TornRename)) {
            // Keep the mode armed: the cleanup remove_file must fail too,
            // otherwise the tmp file would not be stranded.
            return Err(std::io::Error::other("injected torn rename"));
        }
        std::fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> std::io::Result<()> {
        if matches!(self.mode, Some(IoFaultMode::TornRename)) {
            self.mode = None;
            return Err(std::io::Error::other(
                "injected torn rename: cleanup unlink fails too",
            ));
        }
        std::fs::remove_file(path)
    }
}

mod io_faults {
    use std::fs;
    use std::path::Path;

    pub(crate) fn truncate_file(path: &Path, keep_bytes: usize) -> std::io::Result<()> {
        let bytes = fs::read(path)?;
        let keep = keep_bytes.min(bytes.len());
        fs::write(path, &bytes[..keep])
    }

    pub(crate) fn flip_byte(path: &Path, offset: usize) -> std::io::Result<()> {
        let mut bytes = fs::read(path)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let at = offset.min(bytes.len() - 1);
        bytes[at] ^= 0xff;
        fs::write(path, bytes)
    }
}

/// Durability knobs for the delta-checkpoint layer (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Maximum delta frames per chain before the writer rolls a fresh base
    /// inline, bounding recovery replay cost. `0` writes every checkpoint
    /// as a base frame.
    pub max_chain_len: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { max_chain_len: 16 }
    }
}

/// Fault-tolerance configuration of a co-search run. The default disables
/// everything — no checkpoints are written, no sentinel checks run, and no
/// faults are injected — so existing behaviour is unchanged unless opted
/// into.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Directory for resumable search checkpoints (`None`: checkpointing
    /// off). `run_guarded` auto-resumes from the newest valid checkpoint
    /// found here.
    pub checkpoint_dir: Option<PathBuf>,
    /// Persist a checkpoint every this many co-search iterations.
    pub checkpoint_every: u64,
    /// On-disk checkpoints to retain (older ones are pruned; keep ≥ 2 to
    /// survive corruption of the newest).
    pub keep: usize,
    /// Enable divergence sentinels: after backward and after each `θ`/`α`
    /// update, check loss and parameters for non-finite values and roll
    /// back to the iteration-entry snapshot when tripped.
    pub sentinel: bool,
    /// How many rollbacks the sentinel may perform before degrading to
    /// skip-and-continue.
    pub max_rollbacks: u32,
    /// Multiply the effective learning rates by this factor on every
    /// rollback (1.0: no back-off). Values < 1.0 trade replay fidelity for
    /// stability, so bit-identity with an uninterrupted run only holds at
    /// 1.0.
    pub lr_backoff: f32,
    /// Deterministic fault-injection schedule (empty: no faults).
    pub plan: FaultPlan,
    /// Enable the supervision layer: bounded retries that replay a failed
    /// iteration from its entry snapshot, an isolation-mode thread pool
    /// (lane quarantine + chunk re-execution + worker respawn), stall
    /// watchdogs and the degradation ladder. Implied when the plan
    /// schedules a supervised fault.
    pub supervision: bool,
    /// How many times an iteration whose phase failed (panicked) is
    /// replayed from its entry snapshot before the run surfaces
    /// [`crate::SearchError::RunAbort`].
    pub max_phase_retries: u32,
    /// Degradation ladder: after this many lane faults at the current
    /// thread count, halve it (N → N/2 → … → 1) instead of aborting.
    /// `0` disables the ladder.
    pub ladder_fault_threshold: u32,
    /// Stall watchdog: a phase's soft deadline is
    /// `max(stall_min_ms, stall_multiplier × EWMA of its past durations)`.
    pub stall_multiplier: u32,
    /// Floor (in milliseconds) for the watchdog's soft deadline, so fast
    /// phases with sub-millisecond EWMAs don't trip on scheduler jitter.
    pub stall_min_ms: u64,
    /// Delta-frame durability knobs (chain length).
    pub durability: DurabilityConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            checkpoint_dir: None,
            checkpoint_every: 1,
            keep: 3,
            sentinel: false,
            max_rollbacks: 3,
            lr_backoff: 1.0,
            plan: FaultPlan::none(),
            supervision: false,
            max_phase_retries: 2,
            ladder_fault_threshold: 4,
            stall_multiplier: 8,
            stall_min_ms: 40,
            durability: DurabilityConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once_at_their_iteration() {
        let plan = FaultPlan::none().abort_at(3).nan_loss_at(5);
        let mut driver = FaultDriver::new(plan);
        assert!(!driver.abort_now(2));
        assert!(!driver.nan_loss_now(3)); // wrong kind
        assert!(driver.abort_now(3));
        assert!(!driver.abort_now(3), "one-shot");
        assert!(driver.nan_loss_now(5));
        assert!(!driver.nan_loss_now(5), "one-shot");
    }

    #[test]
    fn corruption_faults_modify_the_file() {
        let dir = std::env::temp_dir().join(format!("a3cs_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        std::fs::write(&path, "0123456789").expect("seed file");

        let plan = FaultPlan::none()
            .truncate_checkpoint_at(1, 4)
            .flip_checkpoint_byte_at(2, 0);
        let mut driver = FaultDriver::new(plan);
        assert!(driver.corrupt_checkpoint_now(0, &path).is_empty());
        let applied = driver.corrupt_checkpoint_now(1, &path);
        assert_eq!(applied.len(), 1, "{applied:?}");
        assert_eq!(std::fs::read(&path).expect("read"), b"0123");
        let applied = driver.corrupt_checkpoint_now(2, &path);
        assert_eq!(applied.len(), 1, "{applied:?}");
        assert_eq!(std::fs::read(&path).expect("read")[0], b'0' ^ 0xff);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_config_is_fully_disabled() {
        let cfg = FaultConfig::default();
        assert!(cfg.checkpoint_dir.is_none());
        assert!(!cfg.sentinel);
        assert!(cfg.plan.faults.is_empty());
        assert!(!cfg.plan.has_abort());
        assert_eq!(cfg.lr_backoff, 1.0);
        assert!(!cfg.supervision);
        assert!(!cfg.plan.has_supervised_fault());
        assert_eq!(cfg.durability.max_chain_len, 16);
    }

    #[test]
    fn io_faults_arm_once_at_their_iteration() {
        let plan = FaultPlan::none()
            .io_error_at(2)
            .disk_full_at(3, 10)
            .torn_rename_at(4);
        let mut driver = FaultDriver::new(plan);
        assert_eq!(driver.io_fault_now(1), None);
        assert_eq!(driver.io_fault_now(2), Some(IoFaultMode::Error));
        assert_eq!(driver.io_fault_now(2), None, "one-shot");
        assert_eq!(driver.io_fault_now(3), Some(IoFaultMode::ShortWrite(10)));
        assert_eq!(driver.io_fault_now(4), Some(IoFaultMode::TornRename));
    }

    #[test]
    fn faulty_io_modes_fail_like_the_real_failure() {
        use a3cs_drl::write_atomic_bytes_with;
        let dir = std::env::temp_dir().join(format!("a3cs_faulty_io_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        let target = dir.join("frame.json");

        // Injected write error: nothing lands, no tmp remains.
        let mut io = FaultyIo::new(Some(IoFaultMode::Error));
        assert!(write_atomic_bytes_with(&mut io, &target, b"payload").is_err());
        assert!(!target.exists());
        assert!(!dir.join("frame.json.tmp").exists());

        // Disk full: the short write fails and the partial tmp is cleaned
        // up (the fault is spent by the time cleanup runs).
        let mut io = FaultyIo::new(Some(IoFaultMode::ShortWrite(3)));
        assert!(write_atomic_bytes_with(&mut io, &target, b"payload").is_err());
        assert!(!target.exists());
        assert!(!dir.join("frame.json.tmp").exists());

        // Torn rename: the tmp file is stranded in full.
        let mut io = FaultyIo::new(Some(IoFaultMode::TornRename));
        assert!(write_atomic_bytes_with(&mut io, &target, b"payload").is_err());
        assert!(!target.exists());
        assert_eq!(
            std::fs::read(dir.join("frame.json.tmp")).expect("stranded tmp"),
            b"payload"
        );

        // A spent (or absent) fault passes everything through.
        let mut io = FaultyIo::new(None);
        write_atomic_bytes_with(&mut io, &target, b"payload").expect("clean write");
        assert_eq!(std::fs::read(&target).expect("read"), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_faults_fire_once_per_schedule_entry() {
        let plan = FaultPlan::none()
            .worker_panic_at("rollout", 3)
            .worker_panic_at("rollout", 3)
            .env_panic_at(1, 4)
            .stall_at("update", 5, 250);
        assert!(plan.has_supervised_fault());
        assert!(!plan.has_abort());
        let mut driver = FaultDriver::new(plan);

        assert!(!driver.worker_panic_now("update", 3), "wrong phase");
        assert!(driver.worker_panic_now("rollout", 3));
        assert!(driver.worker_panic_now("rollout", 3), "second entry fires");
        assert!(!driver.worker_panic_now("rollout", 3), "both spent");

        assert_eq!(driver.env_panic_now(3), None);
        assert_eq!(driver.env_panic_now(4), Some(1));
        assert_eq!(driver.env_panic_now(4), None, "one-shot");

        assert_eq!(driver.stall_now("rollout", 5), None, "wrong phase");
        assert_eq!(driver.stall_now("update", 5), Some(250));
        assert_eq!(driver.stall_now("update", 5), None, "one-shot");
    }
}
