//! Supervised execution: injected worker panics, environment panics and
//! phase stalls must be contained *in-process* — no checkpoint-restart —
//! and the supervised run must finish bit-identical to a fault-free one,
//! including after the degradation ladder steps the thread count down.
//! Retry exhaustion must surface as a typed error, never a panic.
//!
//! Robustness events mirror into any live telemetry session, so every
//! test serializes on [`lock`].

use a3cs::core::{
    CoSearch, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind, SearchError,
};
use a3cs::envs::{Breakout, Environment};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn factory(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

fn cosearch(cfg: CoSearchConfig, seed: u64) -> CoSearch {
    CoSearch::try_new(cfg, seed).expect("test config passes pre-flight")
}

fn tiny_config(total_steps: u64) -> CoSearchConfig {
    let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
    cfg.total_steps = total_steps;
    cfg.eval_every = 100;
    cfg.eval_episodes = 2;
    cfg.eval_max_steps = 40;
    cfg.das_final_iters = 50;
    cfg
}

fn curve_bits(curve: &[(u64, f32)]) -> Vec<(u64, u32)> {
    curve.iter().map(|&(s, v)| (s, v.to_bits())).collect()
}

fn assert_results_bit_identical(a: &CoSearchResult, b: &CoSearchResult) {
    assert_eq!(format!("{:?}", a.arch), format!("{:?}", b.arch));
    assert_eq!(
        format!("{:?}", a.accelerator),
        format!("{:?}", b.accelerator)
    );
    assert_eq!(curve_bits(&a.score_curve), curve_bits(&b.score_curve));
    assert_eq!(
        curve_bits(&a.alpha_entropy_curve),
        curve_bits(&b.alpha_entropy_curve)
    );
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.report.fps.to_bits(), b.report.fps.to_bits());
    assert_eq!(a.report.dsp_used, b.report.dsp_used);
}

#[test]
fn worker_panic_is_quarantined_without_a_phase_retry() {
    let _guard = lock();
    let reference = cosearch(tiny_config(300), 13).run(&factory, None);
    assert!(reference.robustness.is_empty());

    // Arm a worker panic during the update phase at iteration 5. The pool
    // quarantines the lane, re-executes its chunk inline, respawns the
    // worker — the phase itself never observes the fault.
    let mut cfg = tiny_config(300);
    cfg.threads = Some(2);
    cfg.fault.plan = FaultPlan::none().worker_panic_at("update", 5);
    let result = cosearch(cfg, 13)
        .run_guarded(&factory, None)
        .expect("contained worker panic must not fail the run");

    let log = &result.robustness;
    assert_eq!(log.count(RobustnessEventKind::FaultInjected), 1);
    assert!(
        log.count(RobustnessEventKind::LaneQuarantined) >= 1,
        "panicking lane must be quarantined: {:?}",
        log.events
    );
    assert!(
        log.count(RobustnessEventKind::WorkerRespawned) >= 1,
        "quarantined lane must be respawned: {:?}",
        log.events
    );
    // Containment, not retry: the supervisor never saw a phase failure,
    // and no checkpoint-restart happened.
    assert_eq!(log.count(RobustnessEventKind::PhaseFailed), 0);
    assert_eq!(log.count(RobustnessEventKind::Resumed), 0);
    assert_results_bit_identical(&reference, &result);
}

#[test]
fn env_panic_retries_the_rollout_phase_bit_identically() {
    let _guard = lock();
    let reference = cosearch(tiny_config(300), 17).run(&factory, None);

    // Environment lane 1 panics mid-collect at iteration 4. The phase
    // supervisor catches the unwind, restores the iteration-entry snapshot
    // and replays the iteration — the injection is one-shot, so the replay
    // is clean and the trajectory is unchanged.
    let mut cfg = tiny_config(300);
    cfg.fault.plan = FaultPlan::none().env_panic_at(1, 4);
    let result = cosearch(cfg, 17)
        .run_guarded(&factory, None)
        .expect("retried env panic must not fail the run");

    let log = &result.robustness;
    assert_eq!(log.count(RobustnessEventKind::FaultInjected), 1);
    assert_eq!(
        log.count(RobustnessEventKind::PhaseFailed),
        1,
        "events: {:?}",
        log.events
    );
    assert_eq!(log.count(RobustnessEventKind::PhaseRetried), 1);
    assert_eq!(log.count(RobustnessEventKind::RetriesExhausted), 0);
    assert_eq!(log.count(RobustnessEventKind::Resumed), 0);
    assert_results_bit_identical(&reference, &result);
}

#[test]
fn eval_panic_replays_the_iteration_bit_identically() {
    let _guard = lock();
    let reference = cosearch(tiny_config(300), 13).run(&factory, None);

    // Eval steps its lanes in a `parallel_chunks_mut` region, so a worker
    // panic armed there escapes the pool and fails the phase. Eval runs
    // after the iteration counter advances, so the replay from the
    // iteration entry must rewind the counter as well as the state.
    let mut cfg = tiny_config(300);
    cfg.threads = Some(2);
    cfg.fault.plan = FaultPlan::none().worker_panic_at("eval", 5);
    let result = cosearch(cfg, 13)
        .run_guarded(&factory, None)
        .expect("retried eval panic must not fail the run");

    let log = &result.robustness;
    assert_eq!(log.count(RobustnessEventKind::FaultInjected), 1);
    assert_eq!(
        log.count(RobustnessEventKind::PhaseFailed),
        1,
        "events: {:?}",
        log.events
    );
    assert_eq!(log.count(RobustnessEventKind::PhaseRetried), 1);
    assert_results_bit_identical(&reference, &result);
}

/// Every file of a checkpoint store as `(name, bytes)`, sorted by name.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(Result::ok)
        .map(|e| {
            let bytes = std::fs::read(e.path()).expect("store file reads");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn stall_watchdog_flags_overrun_without_perturbing_the_run() {
    let _guard = lock();
    let reference = cosearch(tiny_config(300), 19).run(&factory, None);

    // Stall the rollout at iteration 5 for 300 ms with an aggressive soft
    // deadline (1× the EWMA of past rollouts, 50 ms floor). The watchdog
    // observes the overrun — it never interrupts the phase — and counts
    // it beside the robustness log, so neither the log, nor any
    // checkpoint, nor the result depends on the host's timing.
    let root = std::env::temp_dir().join(format!("a3cs_sup_stall_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let stalled_run = |stall_min_ms: u64, store: &str| {
        let mut cfg = tiny_config(300);
        cfg.fault.supervision = true;
        cfg.fault.stall_multiplier = 1;
        cfg.fault.stall_min_ms = stall_min_ms;
        cfg.fault.checkpoint_dir = Some(root.join(store));
        cfg.fault.plan = FaultPlan::none().stall_at("rollout", 5, 300);
        let mut stalls = 0;
        let result = cosearch(cfg, 19)
            .run_guarded_observed(&factory, None, |run| stalls = run.phase_stalls())
            .expect("stalled run still completes");
        (result, stalls)
    };

    let session = telemetry::Session::start();
    let (result, stalls) = stalled_run(50, "watched");
    let trace = session.finish();
    assert!(stalls >= 1, "watchdog must count the stalled rollout");
    assert!(
        trace
            .instants()
            .any(|i| i.name == "watchdog-deadline-exceeded"),
        "the watchdog fires a live instant the moment the deadline passes"
    );
    let log = &result.robustness;
    assert_eq!(log.events.len(), 1, "{:?}", log.events);
    assert_eq!(log.count(RobustnessEventKind::FaultInjected), 1);
    assert_results_bit_identical(&reference, &result);

    // The same plan under a watchdog that cannot fire writes the same
    // store, byte for byte.
    let (unwatched, unwatched_stalls) = stalled_run(600_000, "unwatched");
    assert_eq!(unwatched_stalls, 0);
    assert_eq!(unwatched.robustness, result.robustness);
    let watched_files = store_files(&root.join("watched"));
    assert!(!watched_files.is_empty());
    assert!(
        watched_files == store_files(&root.join("unwatched")),
        "a stall observation changed the checkpoint store"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn ladder_steps_down_after_repeated_lane_faults_and_stays_bit_identical() {
    let _guard = lock();
    let reference = cosearch(tiny_config(300), 23).run(&factory, None);

    // With a fault threshold of 1, the very first quarantined lane trips
    // the degradation ladder: the supervised pool steps 2 → 1 threads and
    // the rest of the search runs serially. Chunk schedules are fixed, so
    // the result is still bit-identical.
    let mut cfg = tiny_config(300);
    cfg.threads = Some(2);
    cfg.fault.ladder_fault_threshold = 1;
    cfg.fault.plan = FaultPlan::none().worker_panic_at("update", 3);
    let result = cosearch(cfg, 23)
        .run_guarded(&factory, None)
        .expect("ladder-stepped run still completes");

    let log = &result.robustness;
    assert!(log.count(RobustnessEventKind::LaneQuarantined) >= 1);
    assert_eq!(
        log.count(RobustnessEventKind::LadderStepped),
        1,
        "events: {:?}",
        log.events
    );
    let step = log
        .events
        .iter()
        .find(|e| e.kind == RobustnessEventKind::LadderStepped)
        .expect("ladder event present");
    assert!(
        step.detail.contains("stepped down to 1"),
        "2-thread pool halves to serial: {:?}",
        step.detail
    );
    assert_results_bit_identical(&reference, &result);
}

#[test]
fn retry_exhaustion_surfaces_as_a_typed_abort_with_attempt_history() {
    let _guard = lock();
    // Two scheduled env panics at the same iteration with a retry budget
    // of one: the initial attempt and the single retry both panic, and the
    // supervisor gives up — as an error value, never a propagated panic.
    let mut cfg = tiny_config(300);
    cfg.fault.max_phase_retries = 1;
    cfg.fault.plan = FaultPlan::none().env_panic_at(1, 4).env_panic_at(1, 4);
    let err = cosearch(cfg, 29)
        .run_guarded(&factory, None)
        .expect_err("exhausted retry budget must abort the run");

    match err {
        SearchError::RunAbort {
            phase,
            iteration,
            attempts,
            log,
        } => {
            assert_eq!(phase, "rollout");
            assert_eq!(iteration, 4);
            assert_eq!(attempts, 2);
            // Full attempt history: both failures, the one retry that was
            // granted, and the exhaustion verdict.
            assert_eq!(
                log.count(RobustnessEventKind::PhaseFailed),
                2,
                "events: {:?}",
                log.events
            );
            assert_eq!(log.count(RobustnessEventKind::PhaseRetried), 1);
            assert_eq!(log.count(RobustnessEventKind::RetriesExhausted), 1);
        }
        other => panic!("expected RunAbort, got {other:?}"),
    }
}
