//! Runtime robustness diagnostics: a structured log of every
//! fault-tolerance action the co-search loop takes — resumes, corrupt
//! checkpoints skipped, divergence sentinel trips, rollbacks, injected
//! faults — surfaced through [`crate::CoSearchResult`] so harnesses can
//! assert on (and operators can audit) how a run survived.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of robustness action happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustnessEventKind {
    /// The run resumed from an on-disk checkpoint instead of starting
    /// fresh.
    Resumed,
    /// A checkpoint file failed integrity verification and was skipped in
    /// favour of an older one.
    CorruptCheckpointSkipped,
    /// A recovered checkpoint parsed but could not be applied (config
    /// fingerprint or shape mismatch); the run started fresh instead.
    ResumeRejected,
    /// Writing a checkpoint failed; the run continued without it.
    CheckpointWriteFailed,
    /// The divergence sentinel saw a non-finite loss after backward.
    NonFiniteLoss,
    /// The divergence sentinel saw a non-finite parameter after an update.
    NonFiniteParam,
    /// The loop state was rolled back to the iteration-entry snapshot.
    RolledBack,
    /// A sentinel tripped but the rollback budget was exhausted; the
    /// offending update was skipped and the run continued degraded.
    RollbackBudgetExhausted,
    /// A sentinel tripped before any checkpoint existed to roll back to;
    /// the offending update was skipped.
    NoCheckpointToRollBackTo,
    /// A configured fault from the injection plan fired.
    FaultInjected,
    /// A supervised phase panicked; the iteration-entry snapshot was
    /// restored.
    PhaseFailed,
    /// The iteration of a failed phase was replayed from its entry
    /// snapshot.
    PhaseRetried,
    /// A failed phase exhausted its retry budget; the run surfaced
    /// [`crate::SearchError::RunAbort`].
    RetriesExhausted,
    /// A phase overran the stall watchdog's soft deadline. No longer
    /// emitted: an overrun is a wall-clock observation, counted by
    /// `GuardedRun::phase_stalls` beside the log, because the log is part
    /// of the result and of every checkpoint. The kind stays so that the
    /// index of every later kind, which checkpoints record, is unchanged.
    PhaseStalled,
    /// A pool worker lane panicked and was quarantined (its restartable
    /// chunks, if any, were re-executed on the supervising thread).
    LaneQuarantined,
    /// A replacement worker was spawned for a quarantined lane.
    WorkerRespawned,
    /// The degradation ladder stepped the supervised thread count down.
    LadderStepped,
    /// A fleet session reached a terminal failed state (its siblings keep
    /// running).
    SessionFailed,
    /// A failed fleet session was scheduled for a restart from its last
    /// good checkpoint after a deterministic backoff.
    SessionRestarted,
    /// A failed fleet session exhausted `max_session_restarts`.
    SessionRestartsExhausted,
    /// A fleet session was cancelled via the session API.
    SessionCancelled,
    /// A store scrub found a broken checkpoint frame and quarantined it
    /// (renamed to `.bad`, never deleted).
    CheckpointQuarantined,
    /// Replaying a delta chain hit an unverifiable frame; recovery resumed
    /// from the longest verified prefix (or an older base) instead.
    DeltaChainFallback,
    /// A long delta chain was folded into a fresh base frame.
    StoreCompacted,
}

impl RobustnessEventKind {
    /// Stable lowercase label (used in logs and summaries).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RobustnessEventKind::Resumed => "resumed",
            RobustnessEventKind::CorruptCheckpointSkipped => "corrupt-checkpoint-skipped",
            RobustnessEventKind::ResumeRejected => "resume-rejected",
            RobustnessEventKind::CheckpointWriteFailed => "checkpoint-write-failed",
            RobustnessEventKind::NonFiniteLoss => "non-finite-loss",
            RobustnessEventKind::NonFiniteParam => "non-finite-param",
            RobustnessEventKind::RolledBack => "rolled-back",
            RobustnessEventKind::RollbackBudgetExhausted => "rollback-budget-exhausted",
            RobustnessEventKind::NoCheckpointToRollBackTo => "no-checkpoint-to-roll-back-to",
            RobustnessEventKind::FaultInjected => "fault-injected",
            RobustnessEventKind::PhaseFailed => "phase-failed",
            RobustnessEventKind::PhaseRetried => "phase-retried",
            RobustnessEventKind::RetriesExhausted => "retries-exhausted",
            RobustnessEventKind::PhaseStalled => "phase-stalled",
            RobustnessEventKind::LaneQuarantined => "lane-quarantined",
            RobustnessEventKind::WorkerRespawned => "worker-respawned",
            RobustnessEventKind::LadderStepped => "ladder-stepped",
            RobustnessEventKind::SessionFailed => "session-failed",
            RobustnessEventKind::SessionRestarted => "session-restarted",
            RobustnessEventKind::SessionRestartsExhausted => "session-restarts-exhausted",
            RobustnessEventKind::SessionCancelled => "session-cancelled",
            RobustnessEventKind::CheckpointQuarantined => "checkpoint-quarantined",
            RobustnessEventKind::DeltaChainFallback => "delta-chain-fallback",
            RobustnessEventKind::StoreCompacted => "store-compacted",
        }
    }

    /// Every kind, in a stable order (the binary checkpoint codec encodes a
    /// kind as its index here; appending new kinds keeps old payloads
    /// readable).
    #[must_use]
    pub fn all() -> &'static [RobustnessEventKind] {
        &[
            RobustnessEventKind::Resumed,
            RobustnessEventKind::CorruptCheckpointSkipped,
            RobustnessEventKind::ResumeRejected,
            RobustnessEventKind::CheckpointWriteFailed,
            RobustnessEventKind::NonFiniteLoss,
            RobustnessEventKind::NonFiniteParam,
            RobustnessEventKind::RolledBack,
            RobustnessEventKind::RollbackBudgetExhausted,
            RobustnessEventKind::NoCheckpointToRollBackTo,
            RobustnessEventKind::FaultInjected,
            RobustnessEventKind::PhaseFailed,
            RobustnessEventKind::PhaseRetried,
            RobustnessEventKind::RetriesExhausted,
            RobustnessEventKind::PhaseStalled,
            RobustnessEventKind::LaneQuarantined,
            RobustnessEventKind::WorkerRespawned,
            RobustnessEventKind::LadderStepped,
            RobustnessEventKind::SessionFailed,
            RobustnessEventKind::SessionRestarted,
            RobustnessEventKind::SessionRestartsExhausted,
            RobustnessEventKind::SessionCancelled,
            RobustnessEventKind::CheckpointQuarantined,
            RobustnessEventKind::DeltaChainFallback,
            RobustnessEventKind::StoreCompacted,
        ]
    }

    /// Inverse of [`RobustnessEventKind::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::all().iter().copied().find(|k| k.label() == label)
    }
}

impl fmt::Display for RobustnessEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One robustness action, stamped with the co-search iteration it happened
/// at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessEvent {
    /// Co-search iteration (outer-loop index, not env steps) at the time.
    pub iteration: u64,
    /// What happened.
    pub kind: RobustnessEventKind,
    /// Human-readable specifics (paths, error messages, fault parameters).
    pub detail: String,
}

impl fmt::Display for RobustnessEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[iter {}] {}: {}", self.iteration, self.kind, self.detail)
    }
}

/// Ordered log of every robustness action a run took. Empty for a run that
/// needed none.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RobustnessLog {
    /// Events in the order they happened.
    pub events: Vec<RobustnessEvent>,
}

impl RobustnessLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Every robustness action is also mirrored into the
    /// telemetry event stream (when a telemetry session is active) so traces
    /// show *why* a rollback or resume happened alongside the phase timings.
    pub fn push(&mut self, iteration: u64, kind: RobustnessEventKind, detail: impl Into<String>) {
        let detail = detail.into();
        if telemetry::enabled() {
            telemetry::instant(kind.label(), &format!("[iter {iteration}] {detail}"));
        }
        self.events.push(RobustnessEvent {
            iteration,
            kind,
            detail,
        });
    }

    /// Number of events of `kind`.
    #[must_use]
    pub fn count(&self, kind: RobustnessEventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// `true` if no robustness action was needed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_counts_by_kind() {
        let mut log = RobustnessLog::new();
        assert!(log.is_empty());
        log.push(3, RobustnessEventKind::NonFiniteLoss, "loss = nan");
        log.push(3, RobustnessEventKind::RolledBack, "to iteration 2");
        log.push(9, RobustnessEventKind::NonFiniteLoss, "loss = inf");
        assert_eq!(log.count(RobustnessEventKind::NonFiniteLoss), 2);
        assert_eq!(log.count(RobustnessEventKind::RolledBack), 1);
        assert_eq!(log.count(RobustnessEventKind::Resumed), 0);
        assert!(!log.is_empty());
    }

    #[test]
    fn event_serialises_round_trip() {
        let mut log = RobustnessLog::new();
        log.push(7, RobustnessEventKind::FaultInjected, "nan loss at 7");
        let json = serde_json::to_string(&log).expect("serialises");
        let back: RobustnessLog = serde_json::from_str(&json).expect("parses");
        assert_eq!(log, back);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for &kind in RobustnessEventKind::all() {
            assert_eq!(RobustnessEventKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(RobustnessEventKind::from_label("no-such-kind"), None);
    }

    #[test]
    fn display_is_readable() {
        let e = RobustnessEvent {
            iteration: 4,
            kind: RobustnessEventKind::RolledBack,
            detail: "to iteration 3".to_string(),
        };
        assert_eq!(e.to_string(), "[iter 4] rolled-back: to iteration 3");
    }
}
