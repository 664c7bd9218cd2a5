//! In-process fault containment for the co-search loop.
//!
//! The pieces here let [`crate::CoSearch::run_guarded`] survive transient
//! faults *without* dying and resuming from disk (see `DESIGN.md` §12):
//!
//! - [`Watchdog`] — a soft-deadline monitor on its own thread. The
//!   supervisor arms it at phase entry with a deadline derived from
//!   [`PhaseTimings`]; if the phase overruns, the watchdog counts a stall
//!   (read through `GuardedRun::phase_stalls`) and fires a live
//!   `watchdog-deadline-exceeded` telemetry instant. It only observes —
//!   wall-clock jitter can never change the search trajectory, the
//!   robustness log or a checkpoint.
//! - [`PhaseTimings`] — an exponentially weighted moving average of each
//!   supervised phase's duration, from which stall deadlines are derived.
//! - [`DegradationLadder`] — pure bookkeeping that steps the supervised
//!   thread count N → N/2 → … → 1 after repeated lane faults. Sound
//!   because the threadpool's fixed `chunk_ranges` splitting makes every
//!   result bit-identical at any lane count.
//! - [`Supervisor`] — bundles the isolation-mode pool, the ladder, the
//!   watchdog and the retry budget for one guarded run.

use crate::fault::FaultConfig;
use crate::robustness::{RobustnessEventKind, RobustnessLog};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use threadpool::ThreadPool;

/// EWMA smoothing factor for phase durations (recent phases dominate, but a
/// single slow outlier cannot halve the deadline headroom on its own).
const EWMA_ALPHA: f64 = 0.3;

// --- stall watchdog ------------------------------------------------------

enum WatchdogMsg {
    Arm {
        phase: &'static str,
        iteration: u64,
        deadline: Duration,
    },
    Disarm,
    Shutdown,
}

/// A soft-deadline monitor on a dedicated thread. `arm` starts a countdown
/// for the current phase; `disarm` cancels it. A countdown that expires
/// counts a stall and fires a live `watchdog-deadline-exceeded` telemetry
/// instant — the only signal with sub-phase latency, since the phase itself
/// is still blocked at that moment.
pub(crate) struct Watchdog {
    tx: Option<Sender<WatchdogMsg>>,
    stalls: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub(crate) fn spawn() -> Watchdog {
        let (tx, rx) = channel();
        let stalls = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(&stalls);
        let handle = std::thread::Builder::new()
            .name("a3cs-watchdog".to_string())
            .spawn(move || watchdog_main(&rx, &shared))
            .ok();
        Watchdog {
            // If the OS refused us a thread, degrade to a no-op watchdog
            // rather than failing the run.
            tx: handle.is_some().then_some(tx),
            stalls,
            handle,
        }
    }

    /// Arm a countdown for `phase`. No-op when `deadline` is `None` (the
    /// phase has no timing history yet) or the watchdog thread is gone.
    pub(crate) fn arm(&self, phase: &'static str, iteration: u64, deadline: Option<Duration>) {
        if let (Some(tx), Some(deadline)) = (self.tx.as_ref(), deadline) {
            let _ = tx.send(WatchdogMsg::Arm {
                phase,
                iteration,
                deadline,
            });
        }
    }

    /// Cancel the active countdown (the phase returned).
    pub(crate) fn disarm(&self) {
        if let Some(tx) = self.tx.as_ref() {
            let _ = tx.send(WatchdogMsg::Disarm);
        }
    }

    /// Countdowns that expired so far. The count publishes no other data,
    /// so it is read and written `Relaxed`.
    pub(crate) fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(WatchdogMsg::Shutdown);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn watchdog_main(rx: &Receiver<WatchdogMsg>, stalls: &AtomicU64) {
    loop {
        let armed = match rx.recv() {
            Ok(WatchdogMsg::Arm {
                phase,
                iteration,
                deadline,
            }) => (phase, iteration, deadline),
            Ok(WatchdogMsg::Disarm) => continue,
            Ok(WatchdogMsg::Shutdown) | Err(_) => return,
        };
        let (phase, iteration, deadline) = armed;
        match rx.recv_timeout(deadline) {
            // Disarmed (or re-armed) before the deadline: nothing stalled.
            Ok(WatchdogMsg::Disarm | WatchdogMsg::Arm { .. }) => {}
            Ok(WatchdogMsg::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => {
                let deadline_ms = deadline.as_millis() as u64;
                stalls.fetch_add(1, Ordering::Relaxed);
                if telemetry::enabled() {
                    telemetry::instant(
                        "watchdog-deadline-exceeded",
                        &format!("[iter {iteration}] {phase} still running after {deadline_ms} ms"),
                    );
                }
                // The overrunning phase will still disarm (or the run will
                // shut us down); wait for that before re-arming.
                match rx.recv() {
                    Ok(WatchdogMsg::Shutdown) | Err(_) => return,
                    Ok(_) => {}
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

// --- phase timing history ------------------------------------------------

/// EWMA of each supervised phase's wall-clock duration. Deadlines are
/// derived only after a phase has at least one sample, so the first
/// iteration is never spuriously flagged.
#[derive(Default)]
pub(crate) struct PhaseTimings {
    ewma_ns: BTreeMap<&'static str, f64>,
}

impl PhaseTimings {
    pub(crate) fn record(&mut self, phase: &'static str, elapsed: Duration) {
        let ns = elapsed.as_nanos() as f64;
        self.ewma_ns
            .entry(phase)
            .and_modify(|e| *e = (1.0 - EWMA_ALPHA) * *e + EWMA_ALPHA * ns)
            .or_insert(ns);
    }

    /// Soft deadline for `phase`: `max(min_ms, multiplier × EWMA)`, or
    /// `None` until the phase has run once.
    pub(crate) fn deadline(
        &self,
        phase: &'static str,
        multiplier: u32,
        min_ms: u64,
    ) -> Option<Duration> {
        let ewma = *self.ewma_ns.get(phase)?;
        let scaled_ms = (ewma * f64::from(multiplier) / 1e6).ceil() as u64;
        Some(Duration::from_millis(scaled_ms.max(min_ms)))
    }
}

// --- degradation ladder --------------------------------------------------

/// Steps the supervised thread count down (N → N/2 → … → 1) as lane faults
/// accumulate, trading parallelism for stability instead of aborting.
///
/// Pure bookkeeping: for a given fault sequence the step sequence is fully
/// deterministic, and because the threadpool splits work by fixed
/// [`threadpool::chunk_ranges`], running the remainder of the search at a
/// lower lane count cannot change any result bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationLadder {
    threads: usize,
    threshold: u32,
    accumulated: u64,
}

impl DegradationLadder {
    /// A ladder starting at `threads` lanes that steps down every
    /// `threshold` lane faults. `threshold == 0` disables stepping.
    #[must_use]
    pub fn new(threads: usize, threshold: u32) -> Self {
        DegradationLadder {
            threads: threads.max(1),
            threshold,
            accumulated: 0,
        }
    }

    /// Current rung: the lane count the supervised pool should have.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record `n` new lane faults. Returns `Some(new_thread_count)` if the
    /// ladder stepped down (possibly more than one rung), `None` otherwise.
    /// Already-serial ladders never step.
    pub fn record_faults(&mut self, n: u64) -> Option<usize> {
        if self.threshold == 0 {
            return None;
        }
        self.accumulated += n;
        let before = self.threads;
        while self.accumulated >= u64::from(self.threshold) && self.threads > 1 {
            self.threads = (self.threads / 2).max(1);
            self.accumulated -= u64::from(self.threshold);
        }
        (self.threads != before).then_some(self.threads)
    }
}

// --- the supervisor ------------------------------------------------------

/// Everything `run_guarded` needs to contain faults in-process: the
/// isolation-mode pool phases run under, the retry budget, the stall
/// watchdog and the degradation ladder, plus the pool-stat highwater marks
/// that turn cumulative counters into per-phase deltas.
pub(crate) struct Supervisor {
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) watchdog: Watchdog,
    pub(crate) timings: PhaseTimings,
    pub(crate) max_retries: u32,
    stall_multiplier: u32,
    stall_min_ms: u64,
    ladder: DegradationLadder,
    seen_faults: u64,
    seen_quarantined: u64,
    seen_respawned: u64,
    seen_reexecuted: u64,
}

impl Supervisor {
    pub(crate) fn new(fault: &FaultConfig, initial_threads: usize) -> Supervisor {
        Supervisor {
            pool: Arc::new(ThreadPool::new_isolated(initial_threads)),
            watchdog: Watchdog::spawn(),
            timings: PhaseTimings::default(),
            max_retries: fault.max_phase_retries,
            stall_multiplier: fault.stall_multiplier,
            stall_min_ms: fault.stall_min_ms,
            ladder: DegradationLadder::new(initial_threads, fault.ladder_fault_threshold),
            seen_faults: 0,
            seen_quarantined: 0,
            seen_respawned: 0,
            seen_reexecuted: 0,
        }
    }

    /// Soft deadline for `phase` from its timing history.
    pub(crate) fn deadline(&self, phase: &'static str) -> Option<Duration> {
        self.timings
            .deadline(phase, self.stall_multiplier, self.stall_min_ms)
    }

    /// Fold the pool's cumulative lane-health counters into the robustness
    /// log (quarantines, respawns) and feed new faults to the degradation
    /// ladder — rebuilding the supervised pool at the lower lane count when
    /// it steps.
    pub(crate) fn absorb_pool_health(&mut self, log: &mut RobustnessLog, iteration: u64) {
        let stats = self.pool.stats();
        let faults = stats.total_faults().saturating_sub(self.seen_faults);
        let quarantined = stats.quarantined.saturating_sub(self.seen_quarantined);
        let respawned = stats.respawned.saturating_sub(self.seen_respawned);
        let reexecuted = stats.reexecuted_chunks.saturating_sub(self.seen_reexecuted);
        if faults == 0 && quarantined == 0 && respawned == 0 {
            return;
        }
        self.seen_faults = stats.total_faults();
        self.seen_quarantined = stats.quarantined;
        self.seen_respawned = stats.respawned;
        self.seen_reexecuted = stats.reexecuted_chunks;
        if quarantined > 0 {
            log.push(
                iteration,
                RobustnessEventKind::LaneQuarantined,
                format!(
                    "{quarantined} lane(s) quarantined, {reexecuted} chunk(s) re-executed \
                     inline; per-lane faults {:?}",
                    stats.lane_faults
                ),
            );
        }
        if respawned > 0 {
            log.push(
                iteration,
                RobustnessEventKind::WorkerRespawned,
                format!("{respawned} replacement worker(s) spawned"),
            );
        }
        if faults > 0 {
            if let Some(next) = self.ladder.record_faults(faults) {
                self.pool = Arc::new(ThreadPool::new_isolated(next));
                self.seen_faults = 0;
                self.seen_quarantined = 0;
                self.seen_respawned = 0;
                self.seen_reexecuted = 0;
                log.push(
                    iteration,
                    RobustnessEventKind::LadderStepped,
                    format!("thread count stepped down to {next} after repeated lane faults"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_halve_until_serial() {
        let mut ladder = DegradationLadder::new(8, 2);
        assert_eq!(ladder.record_faults(1), None);
        assert_eq!(ladder.record_faults(1), Some(4));
        assert_eq!(ladder.record_faults(2), Some(2));
        assert_eq!(ladder.record_faults(2), Some(1));
        assert_eq!(ladder.record_faults(10), None, "serial ladders never step");
        assert_eq!(ladder.threads(), 1);
    }

    #[test]
    fn ladder_threshold_zero_disables_stepping() {
        let mut ladder = DegradationLadder::new(8, 0);
        assert_eq!(ladder.record_faults(1_000), None);
        assert_eq!(ladder.threads(), 8);
    }

    #[test]
    fn ladder_can_step_multiple_rungs_at_once() {
        let mut ladder = DegradationLadder::new(8, 1);
        assert_eq!(ladder.record_faults(2), Some(2));
        assert_eq!(ladder.threads(), 2);
    }

    #[test]
    fn timings_deadline_needs_history_and_respects_floor() {
        let mut timings = PhaseTimings::default();
        assert_eq!(timings.deadline("rollout", 8, 40), None);
        timings.record("rollout", Duration::from_millis(10));
        assert_eq!(
            timings.deadline("rollout", 8, 40),
            Some(Duration::from_millis(80))
        );
        assert_eq!(
            timings.deadline("rollout", 2, 40),
            Some(Duration::from_millis(40)),
            "deadline never drops below the configured floor"
        );
    }

    #[test]
    fn watchdog_records_a_stall_and_survives_disarm_cycles() {
        let dog = Watchdog::spawn();
        dog.arm("rollout", 3, Some(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(120));
        dog.disarm();
        assert_eq!(dog.stalls(), 1);
        // A phase that finishes in time counts nothing.
        dog.arm("update", 4, Some(Duration::from_millis(200)));
        dog.disarm();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(dog.stalls(), 1);
    }
}
