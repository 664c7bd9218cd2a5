//! Rolling aggregation: per-phase latency stats and per-session rollups
//! over a fixed-size window (DESIGN.md §16).
//!
//! The [`Aggregator`] is the single producer of [`ObsSnapshot`]s. It is
//! driven at tick boundaries (fleet observer or solo-run hook), reads the
//! telemetry spine *non-destructively* — `telemetry::metrics_snapshot()`
//! is relaxed atomic loads, `telemetry::snapshot()` clones the record sink
//! — and pushes each publish into ring buffers so short windows of history
//! survive for lag estimation. Nothing here mutates search state, so
//! aggregation preserves the observe-only guarantee.

use crate::ring::Ring;
use a3cs_fleet::{FleetReport, SessionReport};
use a3cs_core::RobustnessEventKind;
use std::collections::BTreeMap;
use telemetry::MetricsSnapshot;

/// Latency rollup of one span family (phase), cumulative over the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Span name (`iteration`, `drl.train`, `das.sweep`, ...).
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total latency across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Worst single span, in nanoseconds.
    pub max_ns: u64,
}

/// One session's health rollup at a publish point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRollup {
    /// Submission index.
    pub id: u64,
    /// Caller-supplied display name.
    pub name: String,
    /// Stable state label (`SessionState::label`).
    pub state: String,
    /// Env steps consumed (live, or the final total when done).
    pub steps: u64,
    /// Restarts spent.
    pub restarts: u32,
    /// Checkpoint bytes persisted across attempts.
    pub checkpoint_bytes_written: u64,
    /// Checkpoint restores (auto-resumes + rollbacks).
    pub checkpoint_restores: u64,
    /// Delta checkpoint frames persisted across attempts.
    pub checkpoint_delta_frames: u64,
    /// Broken frames quarantined by resume-time scrubs across attempts.
    pub checkpoint_quarantined: u64,
    /// Publishes since `checkpoint_bytes_written` last advanced (0 when it
    /// advanced this publish), saturating at the window size — the
    /// "checkpoint lag" a dashboard alerts on.
    pub checkpoint_lag: u64,
    /// `fault-injected` events observed in the session's logs.
    pub fault_events: u64,
    /// `lane-quarantined` events.
    pub quarantine_events: u64,
    /// Stall-watchdog overruns across attempts (the stall score), from
    /// [`SessionReport::phase_stalls`]: stalls are counted beside the
    /// robustness log, never in it.
    pub stall_events: u64,
    /// `phase-retried` supervised retries.
    pub retry_events: u64,
    /// `rolled-back` divergence recoveries.
    pub rollback_events: u64,
}

/// Everything the exposition service renders, produced by one publish.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Monotonic publish counter (1 on the first publish).
    pub seq: u64,
    /// Scheduler ticks consumed (solo runs: outer-loop iteration).
    pub ticks: u64,
    /// Shared-pool budget — the degradation ladder's current rung.
    pub pool_budget: usize,
    /// Session faults observed fleet-wide.
    pub total_faults: u64,
    /// Sessions submitted.
    pub sessions_total: usize,
    /// Sessions in a terminal state.
    pub sessions_terminal: usize,
    /// Memoisation hit rate `hits / (hits + misses)`, when any lookup ran.
    pub memo_hit_rate: Option<f64>,
    /// Per-phase latency rollups, sorted by phase name.
    pub phases: Vec<PhaseStats>,
    /// Per-session rollups, in submission order.
    pub sessions: Vec<SessionRollup>,
    /// Raw catalog snapshot (counters / gauges / histograms).
    pub metrics: MetricsSnapshot,
}

/// Tick-boundary aggregator holding the rolling windows.
#[derive(Debug)]
pub struct Aggregator {
    phases: Ring<Vec<PhaseStats>>,
    sessions: Ring<Vec<SessionRollup>>,
    seq: u64,
}

impl Aggregator {
    /// An aggregator whose rings hold `window` publishes (clamped ≥ 1).
    #[must_use]
    pub fn new(window: usize) -> Aggregator {
        Aggregator {
            phases: Ring::new(window),
            sessions: Ring::new(window),
            seq: 0,
        }
    }

    /// Aggregate one publish: fold the fleet report and the current
    /// telemetry state into an [`ObsSnapshot`] and remember it in the
    /// rolling windows.
    pub fn publish(&mut self, report: &FleetReport) -> ObsSnapshot {
        self.seq += 1;
        let metrics = telemetry::metrics_snapshot();
        let phases = phase_stats(&telemetry::snapshot());
        let sessions: Vec<SessionRollup> = report
            .sessions
            .iter()
            .map(|s| self.session_rollup(s))
            .collect();
        self.phases.push(phases.clone());
        self.sessions.push(sessions.clone());
        let hits = metrics.counter("memo.hits");
        let misses = metrics.counter("memo.misses");
        let lookups = hits + misses;
        ObsSnapshot {
            seq: self.seq,
            ticks: report.ticks,
            pool_budget: report.pool_budget,
            total_faults: report.total_faults,
            sessions_total: report.sessions.len(),
            sessions_terminal: report
                .sessions
                .iter()
                .filter(|s| s.state.is_terminal())
                .count(),
            memo_hit_rate: (lookups > 0).then(|| hits as f64 / lookups as f64),
            phases,
            sessions,
            metrics,
        }
    }

    /// Publishes aggregated so far.
    #[must_use]
    pub fn publishes(&self) -> u64 {
        self.seq
    }

    /// The phase-latency history window, oldest → newest.
    pub fn phase_window(&self) -> impl Iterator<Item = &[PhaseStats]> {
        self.phases.iter().map(Vec::as_slice)
    }

    /// The session-rollup history window, oldest → newest.
    pub fn session_window(&self) -> impl Iterator<Item = &[SessionRollup]> {
        self.sessions.iter().map(Vec::as_slice)
    }

    fn session_rollup(&self, s: &SessionReport) -> SessionRollup {
        let mut faults = 0;
        let mut quarantines = 0;
        let mut retries = 0;
        let mut rollbacks = 0;
        for event in s.robustness.events.iter().chain(s.fleet_events.events.iter()) {
            match event.kind {
                RobustnessEventKind::FaultInjected => faults += 1,
                RobustnessEventKind::LaneQuarantined => quarantines += 1,
                RobustnessEventKind::PhaseRetried => retries += 1,
                RobustnessEventKind::RolledBack => rollbacks += 1,
                _ => {}
            }
        }
        SessionRollup {
            id: s.id.index(),
            name: s.name.clone(),
            state: s.state.label().to_string(),
            steps: s.steps,
            restarts: s.restarts,
            checkpoint_bytes_written: s.checkpoint_bytes_written,
            checkpoint_restores: s.checkpoint_restores,
            checkpoint_delta_frames: s.checkpoint_delta_frames,
            checkpoint_quarantined: s.checkpoint_quarantined,
            checkpoint_lag: self.checkpoint_lag(s.id.index(), s.checkpoint_bytes_written),
            fault_events: faults,
            quarantine_events: quarantines,
            stall_events: s.phase_stalls,
            retry_events: retries,
            rollback_events: rollbacks,
        }
    }

    /// Count how many consecutive window entries (newest first) already
    /// show `bytes` for this session — i.e. for how many publishes the
    /// checkpoint store has not advanced.
    fn checkpoint_lag(&self, id: u64, bytes: u64) -> u64 {
        let mut lag = 0;
        let window: Vec<&Vec<SessionRollup>> = self.sessions.iter().collect();
        for sample in window.iter().rev() {
            match sample.iter().find(|r| r.id == id) {
                Some(r) if r.checkpoint_bytes_written == bytes => lag += 1,
                _ => break,
            }
        }
        lag
    }
}

/// Per-phase latency stats for one session's fault domain: the fleet
/// trace is split with [`telemetry::Trace::for_session`] (records tagged
/// with the session id), then folded like [`phase_stats`]. Pass `None`
/// for untagged (solo / outside-any-session) records.
#[must_use]
pub fn session_phase_stats(trace: &telemetry::Trace, session: Option<u64>) -> Vec<PhaseStats> {
    phase_stats(&trace.for_session(session))
}

/// Fold a trace's spans into per-phase latency stats, sorted by name.
#[must_use]
pub fn phase_stats(trace: &telemetry::Trace) -> Vec<PhaseStats> {
    let mut by_name: BTreeMap<&'static str, PhaseStats> = BTreeMap::new();
    for span in trace.spans() {
        let dur = span.end_ns.saturating_sub(span.begin_ns);
        let entry = by_name.entry(span.name).or_insert_with(|| PhaseStats {
            name: span.name.to_string(),
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += dur;
        entry.max_ns = entry.max_ns.max(dur);
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_core::RobustnessLog;
    use a3cs_fleet::{SessionId, SessionState};

    fn report_with_bytes(bytes: u64) -> FleetReport {
        FleetReport {
            sessions: vec![SessionReport {
                id: SessionId::new(0),
                name: "s".to_string(),
                state: SessionState::Running,
                steps: 10,
                restarts: 0,
                result: None,
                robustness: RobustnessLog::new(),
                fleet_events: RobustnessLog::new(),
                checkpoint_bytes_written: bytes,
                checkpoint_restores: 0,
                checkpoint_delta_frames: 0,
                checkpoint_quarantined: 0,
                phase_stalls: 0,
            }],
            ticks: 1,
            pool_budget: 2,
            total_faults: 0,
            event_totals: BTreeMap::new(),
        }
    }

    #[test]
    fn checkpoint_lag_counts_stalled_publishes() {
        let mut agg = Aggregator::new(8);
        let first = agg.publish(&report_with_bytes(100));
        assert_eq!(first.sessions[0].checkpoint_lag, 0, "no history yet");
        let second = agg.publish(&report_with_bytes(100));
        assert_eq!(second.sessions[0].checkpoint_lag, 1);
        let third = agg.publish(&report_with_bytes(100));
        assert_eq!(third.sessions[0].checkpoint_lag, 2);
        let advanced = agg.publish(&report_with_bytes(160));
        assert_eq!(advanced.sessions[0].checkpoint_lag, 0, "bytes advanced");
        assert_eq!(agg.publishes(), 4);
    }

    #[test]
    fn session_phase_stats_split_a_tagged_trace() {
        use telemetry::{Payload, Record, SpanRecord, Trace};
        let span = |name: &'static str, session: Option<u64>, dur: u64| {
            Record::Span(SpanRecord {
                id: 1,
                parent: None,
                name,
                tid: 0,
                begin_ns: 100,
                end_ns: 100 + dur,
                payload: Payload {
                    arg: None,
                    session,
                    retry: None,
                },
            })
        };
        let trace = Trace {
            records: vec![
                span("iteration", Some(0), 50),
                span("iteration", Some(1), 70),
                span("das.sweep", Some(0), 30),
            ],
            ..Trace::default()
        };
        let s0 = session_phase_stats(&trace, Some(0));
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[0].name, "das.sweep");
        assert_eq!(s0[0].total_ns, 30);
        assert_eq!(s0[1].name, "iteration");
        assert_eq!(s0[1].total_ns, 50);
        let s1 = session_phase_stats(&trace, Some(1));
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].max_ns, 70);
        let all = phase_stats(&trace);
        assert_eq!(all[1].count, 2);
        assert_eq!(all[1].total_ns, 120);
    }

    #[test]
    fn event_kind_counts_split_by_category() {
        let mut report = report_with_bytes(0);
        report.sessions[0].phase_stalls = 1;
        let log = &mut report.sessions[0].robustness;
        log.push(1, RobustnessEventKind::FaultInjected, "a");
        log.push(2, RobustnessEventKind::FaultInjected, "b");
        log.push(3, RobustnessEventKind::LaneQuarantined, "c");
        let snap = Aggregator::new(4).publish(&report);
        let s = &snap.sessions[0];
        assert_eq!(s.fault_events, 2);
        assert_eq!(s.quarantine_events, 1);
        assert_eq!(s.stall_events, 1);
        assert_eq!(s.retry_events, 0);
        assert_eq!(snap.sessions_total, 1);
        assert_eq!(snap.sessions_terminal, 0);
    }
}
