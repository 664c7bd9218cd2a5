//! Fleet supervisor: multi-session co-search orchestration with
//! per-session fault domains (DESIGN.md §15).
//!
//! A [`Fleet`] runs N concurrent [`CoSearch`] sessions sharded over one
//! bounded worker budget. Sessions are *cooperatively* interleaved on the
//! submitting thread — a `CoSearch` is intentionally not `Send` — one
//! [`GuardedRun::step`] per scheduler tick, while the data-parallel work
//! inside each step fans out over the shared [`ThreadPool`]. Because
//! every session's trajectory depends only on its own config and seed
//! (never on the interleaving or the lane count), a fleet session is
//! bit-identical to the same search run solo.
//!
//! Fault domains are per session:
//!
//! - a [`SearchError`] (scheduled abort, supervised retry exhaustion) or a
//!   contained panic marks only that session; siblings proceed untouched;
//! - a faulted session restarts from its last good checkpoint (PR 3's
//!   fingerprint-verified store, namespaced per session) after a
//!   deterministic exponential backoff measured in scheduler ticks,
//!   bounded by [`FleetConfig::max_session_restarts`];
//! - restart exhaustion is a typed terminal state
//!   ([`SessionState::Failed`]), never a panic, and never poisons the
//!   scheduler;
//! - fleet-level backpressure: accumulated faults step a
//!   [`DegradationLadder`] down, shrinking the shared pool budget.
//!
//! Every fleet lifecycle action is recorded as a `session-*`
//! [`RobustnessEventKind`] and tagged (via `telemetry::with_session`) with
//! the session id, so traces and logs split cleanly per fault domain.

#![deny(missing_docs)]

use a3cs_check::Report;
use a3cs_core::{
    preflight, CoSearch, CoSearchConfig, CoSearchResult, DegradationLadder, DurabilityConfig,
    FaultPlan, GuardedRun, RobustnessEventKind, RobustnessLog, SearchError, StepOutcome,
};
use a3cs_drl::EnvFactory;
use a3cs_envs::Environment;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use threadpool::ThreadPool;

mod json;
pub use json::FLEET_REPORT_SCHEMA;

/// SplitMix64: the scheduler's only source of (seeded, deterministic)
/// mixing — no ambient RNG anywhere in the fleet.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Best-effort description of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Stable identifier of a submitted session (its submission index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// A session id from its submission index. Ids minted this way only
    /// match a fleet's own sessions when the index does; the constructor
    /// exists so external mirrors (solo-run observability snapshots,
    /// report deserializers) can build [`SessionReport`]s.
    #[must_use]
    pub const fn new(index: u64) -> SessionId {
        SessionId(index)
    }

    /// The submission index (also the telemetry `session` tag).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{:04}", self.0)
    }
}

/// Why a session reached [`SessionState::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFailure {
    /// The guarded run surfaced a typed error (scheduled abort, supervised
    /// retry exhaustion).
    Search(SearchError),
    /// The session panicked outside any supervised phase; the panic was
    /// contained at the fleet boundary.
    Panicked(String),
    /// The search could not be (re)constructed.
    Rejected(String),
}

impl fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFailure::Search(e) => write!(f, "{e}"),
            SessionFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            SessionFailure::Rejected(msg) => write!(f, "rejected: {msg}"),
        }
    }
}

/// Lifecycle state of a fleet session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, not yet started.
    Queued,
    /// Holds a live [`GuardedRun`]; advances one step per scheduled tick.
    Running,
    /// Faulted with restart budget left; re-admitted (rebuilding the
    /// search, auto-resuming from its checkpoint store) once the fleet
    /// tick counter reaches `until_tick`.
    Backoff {
        /// First tick at which the session may run again.
        until_tick: u64,
    },
    /// Completed; the [`CoSearchResult`] is in the session's report.
    Done,
    /// Terminal failure: fault with no restart budget left (or an
    /// unreconstructable search). Siblings are unaffected.
    Failed(SessionFailure),
    /// Cancelled via [`Fleet::cancel`]. The checkpoint store is left
    /// intact, so [`Fleet::resume`] (or a later fleet) can pick the
    /// session back up from its last persisted iteration.
    Cancelled,
}

impl SessionState {
    /// `true` for states the scheduler never picks again.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Failed(_) | SessionState::Cancelled
        )
    }

    /// Stable lowercase label used by the JSON schema and the metrics
    /// exposition (`queued`, `running`, `backoff`, `done`, `failed`,
    /// `cancelled`). These strings are part of the wire format — never
    /// rename one.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Backoff { .. } => "backoff",
            SessionState::Done => "done",
            SessionState::Failed(_) => "failed",
            SessionState::Cancelled => "cancelled",
        }
    }
}

/// Fleet-wide orchestration knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Lane count of the shared worker pool every session's data-parallel
    /// work runs on (results are bit-identical at any value ≥ 1).
    pub worker_budget: usize,
    /// Restarts a faulted session may spend before it goes
    /// [`SessionState::Failed`]. `0` makes every fault terminal.
    pub max_session_restarts: u32,
    /// Backoff before restart `k` is `base << (k-1)` ticks, capped below.
    pub backoff_base_ticks: u64,
    /// Upper bound on any single backoff delay, in ticks.
    pub backoff_cap_ticks: u64,
    /// Fleet-level [`DegradationLadder`] threshold: every this many
    /// session faults, the shared pool budget halves. `0` disables.
    pub ladder_fault_threshold: u32,
    /// Seeds the scheduler's round-robin phase (and nothing else — the
    /// schedule never influences any session's trajectory).
    pub scheduler_seed: u64,
    /// When set, sessions without an explicit checkpoint dir get a
    /// namespaced store at `<root>/session-<id>`, enabling restart and
    /// resume.
    pub checkpoint_root: Option<PathBuf>,
    /// Drop a session's injected-fault plan when restarting it, so a
    /// deterministic once-per-run fault does not re-fire on every attempt.
    pub clear_fault_plan_on_restart: bool,
    /// Checkpoint durability knobs applied to every fleet session (delta
    /// chains of up to 16 frames by default, as for solo runs).
    pub durability: DurabilityConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            worker_budget: 2,
            max_session_restarts: 1,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 8,
            ladder_fault_threshold: 4,
            scheduler_seed: 0,
            checkpoint_root: None,
            clear_fault_plan_on_restart: true,
            durability: DurabilityConfig::default(),
        }
    }
}

/// Snapshot of one session's progress, from [`Fleet::poll`].
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// Current lifecycle state.
    pub state: SessionState,
    /// Env steps consumed by the live run (0 when none is open).
    pub steps: u64,
    /// Outer-loop iteration of the live run (0 when none is open).
    pub iteration: u64,
    /// Restarts spent so far.
    pub restarts: u32,
    /// Checkpoint bytes persisted across all of this session's attempts.
    pub checkpoint_bytes_written: u64,
    /// Checkpoint restores (auto-resumes + rollbacks) across all attempts.
    pub checkpoint_restores: u64,
    /// Delta checkpoint frames persisted across all attempts.
    pub checkpoint_delta_frames: u64,
    /// Broken frames quarantined by resume-time scrubs across all attempts.
    pub checkpoint_quarantined: u64,
    /// Supervised phases that overran the stall watchdog's soft deadline,
    /// across all attempts ([`GuardedRun::phase_stalls`]).
    pub phase_stalls: u64,
}

/// Final per-session record inside a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session's id.
    pub id: SessionId,
    /// Caller-supplied display name.
    pub name: String,
    /// Terminal (or last observed) state.
    pub state: SessionState,
    /// Env steps consumed — live counter while the session runs, the
    /// result's total once it is done.
    pub steps: u64,
    /// Restarts spent.
    pub restarts: u32,
    /// The search result, for [`SessionState::Done`] sessions.
    pub result: Option<CoSearchResult>,
    /// Robustness log of the session's last attempt (resumes, rollbacks,
    /// injected faults, supervised retries).
    pub robustness: RobustnessLog,
    /// Fleet lifecycle events for this session (`session-*` kinds, with
    /// the `iteration` field holding the fleet tick).
    pub fleet_events: RobustnessLog,
    /// Checkpoint bytes persisted across all attempts.
    pub checkpoint_bytes_written: u64,
    /// Checkpoint restores performed across all attempts.
    pub checkpoint_restores: u64,
    /// Delta checkpoint frames persisted across all attempts.
    pub checkpoint_delta_frames: u64,
    /// Broken frames quarantined by resume-time scrubs across all attempts.
    pub checkpoint_quarantined: u64,
    /// Stall-watchdog overruns across all attempts. A wall-clock
    /// observation: it is left out of [`FleetReport::to_json`], which two
    /// bit-identical runs render byte-identically.
    pub phase_stalls: u64,
}

/// Fleet-wide aggregation returned by [`Fleet::run_to_completion`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One report per submitted session, in submission order.
    pub sessions: Vec<SessionReport>,
    /// Scheduler ticks consumed.
    pub ticks: u64,
    /// Final shared-pool budget (after any ladder steps).
    pub pool_budget: usize,
    /// Session faults observed fleet-wide.
    pub total_faults: u64,
    /// Robustness event counts by label, aggregated over every session's
    /// run log and fleet log.
    pub event_totals: BTreeMap<String, usize>,
}

impl FleetReport {
    /// The report for `id`, if it was part of this fleet.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&SessionReport> {
        self.sessions.iter().find(|s| s.id == id)
    }
}

/// Read-only hook invoked at every tick boundary (including idle ticks
/// that only advance the clock), after the tick's work unit — if any —
/// has fully settled. The fleet hands the observer `&Fleet`, so an
/// observer can [`Fleet::poll`] sessions or take a
/// [`Fleet::report_snapshot`], but can never mutate fleet state: the
/// observe-only guarantee (observed run bit-identical to unobserved,
/// DESIGN.md §16) holds by construction.
pub trait TickObserver {
    /// Called once per completed scheduler tick.
    fn on_tick(&mut self, fleet: &Fleet<'_>);
}

/// What one scheduled work unit did.
enum UnitOutcome {
    /// A queued/backed-off session (re)built its search and opened a run.
    Started,
    /// One co-search step ran.
    Progress,
    /// The run completed; the result is stored.
    Finished,
}

struct Session<'f> {
    id: SessionId,
    name: String,
    cfg: CoSearchConfig,
    seed: u64,
    factory: Box<EnvFactory<'f>>,
    state: SessionState,
    search: Option<CoSearch>,
    run: Option<GuardedRun>,
    restarts_used: u32,
    fleet_log: RobustnessLog,
    last_robustness: RobustnessLog,
    result: Option<CoSearchResult>,
    bytes_written: u64,
    restore_count: u64,
    delta_frames: u64,
    quarantined: u64,
    stalls: u64,
}

/// The multi-session orchestrator. See the crate docs for the model.
pub struct Fleet<'f> {
    config: FleetConfig,
    sessions: Vec<Session<'f>>,
    pool: Arc<ThreadPool>,
    ladder: DegradationLadder,
    tick: u64,
    total_faults: u64,
    observer: Option<Box<dyn TickObserver + 'f>>,
}

impl<'f> Fleet<'f> {
    /// A fleet with no sessions, its shared pool sized to
    /// `config.worker_budget` (isolation mode, so worker panics are
    /// contained per lane, same as supervised execution).
    #[must_use]
    pub fn new(config: FleetConfig) -> Fleet<'f> {
        let budget = config.worker_budget.max(1);
        let ladder = DegradationLadder::new(budget, config.ladder_fault_threshold);
        let pool = Arc::new(ThreadPool::new_isolated(budget));
        Fleet {
            config,
            sessions: Vec::new(),
            pool,
            ladder,
            tick: 0,
            total_faults: 0,
            observer: None,
        }
    }

    /// Attach a [`TickObserver`] notified at every tick boundary (an
    /// `a3cs-obs` publisher, a progress logger, ...). At most one observer
    /// is held; attaching again replaces the previous one.
    pub fn attach_observer(&mut self, observer: Box<dyn TickObserver + 'f>) {
        self.observer = Some(observer);
    }

    /// Notify the attached observer (if any) with the fleet in a settled
    /// state. The take/put-back dance lets the observer borrow `&self`
    /// while the fleet still owns it.
    fn notify_observer(&mut self) {
        if let Some(mut observer) = self.observer.take() {
            observer.on_tick(self);
            self.observer = Some(observer);
        }
    }

    /// Admit a session. Admission control runs [`preflight`] on the
    /// config; a config that fails any static check is rejected with the
    /// full diagnostic [`Report`] and never consumes a scheduler slot.
    ///
    /// The config is normalised for fleet execution: `threads` is cleared
    /// (sessions share the fleet pool and must not reconfigure the global
    /// one), the fleet's [`FleetConfig::durability`] is applied, and —
    /// when [`FleetConfig::checkpoint_root`] is set and the session has no
    /// explicit dir — the checkpoint store is namespaced to
    /// `<root>/session-<id>`. None of this changes the search trajectory,
    /// so the session stays bit-identical to a solo run of `cfg`.
    ///
    /// # Errors
    ///
    /// The [`Report`] of every static-check failure, when there are any.
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        mut cfg: CoSearchConfig,
        seed: u64,
        factory: impl Fn(u64) -> Box<dyn Environment> + 'f,
    ) -> Result<SessionId, Report> {
        let report = preflight(&cfg);
        if !report.is_clean() {
            return Err(report);
        }
        let id = SessionId(self.sessions.len() as u64);
        cfg.threads = None;
        cfg.fault.durability = self.config.durability;
        if cfg.fault.checkpoint_dir.is_none() {
            if let Some(root) = &self.config.checkpoint_root {
                cfg.fault.checkpoint_dir = Some(root.join(id.to_string()));
            }
        }
        self.sessions.push(Session {
            id,
            name: name.into(),
            cfg,
            seed,
            factory: Box::new(factory),
            state: SessionState::Queued,
            search: None,
            run: None,
            restarts_used: 0,
            fleet_log: RobustnessLog::new(),
            last_robustness: RobustnessLog::new(),
            result: None,
            bytes_written: 0,
            restore_count: 0,
            delta_frames: 0,
            quarantined: 0,
            stalls: 0,
        });
        Ok(id)
    }

    /// Progress snapshot for `id` (see [`SessionStatus`]).
    #[must_use]
    pub fn poll(&self, id: SessionId) -> Option<SessionStatus> {
        let s = self.sessions.iter().find(|s| s.id == id)?;
        let live_bytes = s.run.as_ref().map_or(0, GuardedRun::checkpoint_bytes_written);
        let live_restores = s.run.as_ref().map_or(0, GuardedRun::checkpoint_restores);
        let live_deltas = s.run.as_ref().map_or(0, GuardedRun::checkpoint_delta_frames);
        let live_quarantined = s.run.as_ref().map_or(0, GuardedRun::checkpoint_quarantined);
        let live_stalls = s.run.as_ref().map_or(0, GuardedRun::phase_stalls);
        Some(SessionStatus {
            state: s.state.clone(),
            steps: s
                .run
                .as_ref()
                .map(GuardedRun::steps)
                .or_else(|| s.result.as_ref().map(|r| r.steps))
                .unwrap_or(0),
            iteration: s.run.as_ref().map_or(0, GuardedRun::iteration),
            restarts: s.restarts_used,
            checkpoint_bytes_written: s.bytes_written + live_bytes,
            checkpoint_restores: s.restore_count + live_restores,
            checkpoint_delta_frames: s.delta_frames + live_deltas,
            checkpoint_quarantined: s.quarantined + live_quarantined,
            phase_stalls: s.stalls + live_stalls,
        })
    }

    /// Cancel a non-terminal session. Its live run (if any) is dropped
    /// mid-phase; the on-disk checkpoint store is untouched, so the
    /// session is recoverable — [`Fleet::resume`] re-admits it and the
    /// rebuilt run auto-resumes from the last persisted iteration.
    /// Returns `false` for unknown or already-terminal sessions.
    pub fn cancel(&mut self, id: SessionId) -> bool {
        let tick = self.tick;
        let Some(session) = self.sessions.iter_mut().find(|s| s.id == id) else {
            return false;
        };
        if session.state.is_terminal() {
            return false;
        }
        if let Some(run) = session.run.take() {
            session.bytes_written += run.checkpoint_bytes_written();
            session.restore_count += run.checkpoint_restores();
            session.delta_frames += run.checkpoint_delta_frames();
            session.quarantined += run.checkpoint_quarantined();
            session.stalls += run.phase_stalls();
            session.last_robustness = run.robustness().clone();
        }
        session.search = None;
        telemetry::with_session(Some(session.id.0), || {
            session.fleet_log.push(
                tick,
                RobustnessEventKind::SessionCancelled,
                "cancelled via the session api",
            );
        });
        session.state = SessionState::Cancelled;
        true
    }

    /// Re-admit a cancelled or failed session: back to
    /// [`SessionState::Queued`], so its next scheduled tick rebuilds the
    /// search and auto-resumes from the checkpoint store. The restart
    /// budget is *not* replenished. Returns `false` for unknown sessions
    /// or states other than `Cancelled`/`Failed`.
    pub fn resume(&mut self, id: SessionId) -> bool {
        let Some(session) = self.sessions.iter_mut().find(|s| s.id == id) else {
            return false;
        };
        match session.state {
            SessionState::Cancelled | SessionState::Failed(_) => {
                session.state = SessionState::Queued;
                session.result = None;
                true
            }
            _ => false,
        }
    }

    /// Scheduler ticks consumed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Current shared-pool budget (the ladder's rung).
    #[must_use]
    pub fn pool_budget(&self) -> usize {
        self.ladder.threads()
    }

    /// Session faults observed so far, fleet-wide.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    fn all_terminal(&self) -> bool {
        self.sessions.iter().all(|s| s.state.is_terminal())
    }

    /// Run one scheduler tick: pick the next runnable session (seeded
    /// round-robin over queued, running, and woken backoff sessions) and
    /// advance it by one work unit. Ticks where every non-terminal
    /// session is still backing off just advance the clock. Returns
    /// `true` while any session is non-terminal.
    pub fn tick(&mut self) -> bool {
        let runnable: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| match s.state {
                SessionState::Queued | SessionState::Running => true,
                SessionState::Backoff { until_tick } => until_tick <= self.tick,
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        self.tick += 1;
        if !runnable.is_empty() {
            // Fair rotation with a seeded phase: every runnable session is
            // visited once per len ticks, whatever the seed. The pick order
            // can never change any session's result — only its timing.
            let phase = splitmix64(self.config.scheduler_seed);
            let pick =
                runnable[((self.tick.wrapping_add(phase)) % runnable.len() as u64) as usize];
            self.step_session(pick);
        }
        self.notify_observer();
        !self.all_terminal()
    }

    /// Drive every session to a terminal state and aggregate the
    /// [`FleetReport`].
    #[must_use]
    pub fn run_to_completion(mut self) -> FleetReport {
        while self.tick() {}
        self.into_report()
    }

    fn step_session(&mut self, idx: usize) {
        let pool = Arc::clone(&self.pool);
        let session = &mut self.sessions[idx];
        let starting = matches!(
            session.state,
            SessionState::Queued | SessionState::Backoff { .. }
        );
        // The whole unit runs tagged with the session id (so every span,
        // metric instant and robustness mirror lands in this session's
        // fault domain) and under the shared fleet pool. catch_unwind is
        // the outermost fault boundary: a panic that escapes supervised
        // containment is converted into a typed session failure.
        let unit: Result<Result<UnitOutcome, SessionFailure>, _> =
            catch_unwind(AssertUnwindSafe(|| {
                telemetry::with_session(Some(session.id.0), || {
                    threadpool::with_pool(pool, || {
                        if starting {
                            let mut search =
                                match CoSearch::try_new(session.cfg.clone(), session.seed) {
                                    Ok(search) => search,
                                    Err(report) => {
                                        return Err(SessionFailure::Rejected(report.to_string()))
                                    }
                                };
                            let run = search.start_run(&session.factory);
                            session.search = Some(search);
                            session.run = Some(run);
                            return Ok(UnitOutcome::Started);
                        }
                        let (Some(mut search), Some(mut run)) =
                            (session.search.take(), session.run.take())
                        else {
                            return Err(SessionFailure::Rejected(
                                "running session lost its search state".to_string(),
                            ));
                        };
                        match run.step(&mut search, &session.factory, None) {
                            Ok(StepOutcome::Ran) => {
                                session.search = Some(search);
                                session.run = Some(run);
                                Ok(UnitOutcome::Progress)
                            }
                            Ok(StepOutcome::Finished) => {
                                session.bytes_written += run.checkpoint_bytes_written();
                                session.restore_count += run.checkpoint_restores();
                                session.delta_frames += run.checkpoint_delta_frames();
                                session.quarantined += run.checkpoint_quarantined();
                                session.stalls += run.phase_stalls();
                                let result = run.finish(&mut search);
                                session.last_robustness = result.robustness.clone();
                                session.result = Some(result);
                                Ok(UnitOutcome::Finished)
                            }
                            Err(e) => {
                                session.bytes_written += run.checkpoint_bytes_written();
                                session.restore_count += run.checkpoint_restores();
                                session.delta_frames += run.checkpoint_delta_frames();
                                session.quarantined += run.checkpoint_quarantined();
                                session.stalls += run.phase_stalls();
                                session.last_robustness = run.robustness().clone();
                                Err(SessionFailure::Search(e))
                            }
                        }
                    })
                })
            }));
        match unit {
            Ok(Ok(UnitOutcome::Started | UnitOutcome::Progress)) => {
                self.sessions[idx].state = SessionState::Running;
            }
            Ok(Ok(UnitOutcome::Finished)) => {
                let session = &mut self.sessions[idx];
                session.state = SessionState::Done;
                session.search = None;
            }
            Ok(Err(failure)) => self.on_fault(idx, failure),
            Err(payload) => self.on_fault(
                idx,
                SessionFailure::Panicked(panic_message(payload.as_ref())),
            ),
        }
    }

    /// One session faulted: contain it to its own domain, apply fleet
    /// backpressure, and either schedule a deterministic backed-off
    /// restart or mark the session terminally failed.
    fn on_fault(&mut self, idx: usize, failure: SessionFailure) {
        self.total_faults += 1;
        // Backpressure: repeated faults step the shared budget down. The
        // replacement pool takes effect from the next scheduled unit;
        // per-session results are lane-count-invariant, so shrinking the
        // pool never changes any trajectory.
        if let Some(n) = self.ladder.record_faults(1) {
            self.pool = Arc::new(ThreadPool::new_isolated(n));
        }
        let tick = self.tick;
        let max = self.config.max_session_restarts;
        let base = self.config.backoff_base_ticks.max(1);
        let cap = self.config.backoff_cap_ticks.max(base);
        let clear_plan = self.config.clear_fault_plan_on_restart;
        let session = &mut self.sessions[idx];
        session.search = None;
        session.run = None;
        telemetry::with_session(Some(session.id.0), || {
            if session.restarts_used < max {
                session.restarts_used += 1;
                let exp = u64::from(session.restarts_used - 1).min(62);
                let until_tick = tick + (base << exp).min(cap);
                if clear_plan {
                    session.cfg.fault.plan = FaultPlan::none();
                }
                session.fleet_log.push(
                    tick,
                    RobustnessEventKind::SessionRestarted,
                    format!(
                        "restart {} of {max} scheduled for tick {until_tick} after: {failure}",
                        session.restarts_used
                    ),
                );
                session.state = SessionState::Backoff { until_tick };
            } else {
                if max > 0 {
                    session.fleet_log.push(
                        tick,
                        RobustnessEventKind::SessionRestartsExhausted,
                        format!("all {max} restart(s) spent"),
                    );
                }
                session.fleet_log.push(
                    tick,
                    RobustnessEventKind::SessionFailed,
                    failure.to_string(),
                );
                session.state = SessionState::Failed(failure);
            }
        });
    }

    /// A non-consuming [`FleetReport`] of the fleet's *current* state —
    /// the live mirror served by `a3cs-obs` at `/fleet`. For a session
    /// with an open run, the robustness log and checkpoint counters come
    /// from the live [`GuardedRun`]; once every session is terminal the
    /// snapshot is field-for-field identical to the final
    /// [`Fleet::run_to_completion`] report (which is built through this
    /// same path).
    #[must_use]
    pub fn report_snapshot(&self) -> FleetReport {
        let mut event_totals: BTreeMap<String, usize> = BTreeMap::new();
        let sessions = self
            .sessions
            .iter()
            .map(|s| {
                let robustness = s
                    .run
                    .as_ref()
                    .map_or_else(|| s.last_robustness.clone(), |run| run.robustness().clone());
                let live_bytes = s.run.as_ref().map_or(0, GuardedRun::checkpoint_bytes_written);
                let live_restores = s.run.as_ref().map_or(0, GuardedRun::checkpoint_restores);
                let live_deltas =
                    s.run.as_ref().map_or(0, GuardedRun::checkpoint_delta_frames);
                let live_quarantined =
                    s.run.as_ref().map_or(0, GuardedRun::checkpoint_quarantined);
                let live_stalls = s.run.as_ref().map_or(0, GuardedRun::phase_stalls);
                for event in robustness.events.iter().chain(s.fleet_log.events.iter()) {
                    *event_totals.entry(event.kind.label().to_string()).or_insert(0) += 1;
                }
                SessionReport {
                    id: s.id,
                    name: s.name.clone(),
                    state: s.state.clone(),
                    steps: s
                        .run
                        .as_ref()
                        .map(GuardedRun::steps)
                        .or_else(|| s.result.as_ref().map(|r| r.steps))
                        .unwrap_or(0),
                    restarts: s.restarts_used,
                    result: s.result.clone(),
                    robustness,
                    fleet_events: s.fleet_log.clone(),
                    checkpoint_bytes_written: s.bytes_written + live_bytes,
                    checkpoint_restores: s.restore_count + live_restores,
                    checkpoint_delta_frames: s.delta_frames + live_deltas,
                    checkpoint_quarantined: s.quarantined + live_quarantined,
                    phase_stalls: s.stalls + live_stalls,
                }
            })
            .collect();
        FleetReport {
            sessions,
            ticks: self.tick,
            pool_budget: self.ladder.threads(),
            total_faults: self.total_faults,
            event_totals,
        }
    }

    fn into_report(self) -> FleetReport {
        self.report_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn session_id_formats_namespaced() {
        assert_eq!(SessionId(3).to_string(), "session-0003");
        assert_eq!(SessionId(3).index(), 3);
    }

    #[test]
    fn submit_rejects_a_config_that_fails_preflight() {
        let mut fleet = Fleet::new(FleetConfig::default());
        let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
        cfg.supernet.num_cells = 5; // not a multiple of 3: preflight fails
        let err = fleet.submit("bad", cfg, 0, |seed| {
            Box::new(a3cs_envs::Breakout::new(seed)) as Box<dyn Environment>
        });
        assert!(err.is_err(), "admission control must reject broken configs");
        assert!(fleet.sessions.is_empty());
    }

    #[test]
    fn poll_and_cancel_on_unknown_sessions_are_safe() {
        let mut fleet = Fleet::new(FleetConfig::default());
        assert!(fleet.poll(SessionId(9)).is_none());
        assert!(!fleet.cancel(SessionId(9)));
        assert!(!fleet.resume(SessionId(9)));
    }

    #[test]
    fn terminal_states_are_classified() {
        assert!(SessionState::Done.is_terminal());
        assert!(SessionState::Cancelled.is_terminal());
        assert!(
            SessionState::Failed(SessionFailure::Panicked("x".to_string())).is_terminal()
        );
        assert!(!SessionState::Queued.is_terminal());
        assert!(!SessionState::Running.is_terminal());
        assert!(!SessionState::Backoff { until_tick: 3 }.is_terminal());
    }
}
