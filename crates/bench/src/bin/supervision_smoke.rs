//! Supervised-execution end-to-end smoke check: run a tiny co-search with
//! one armed worker panic and one injected stall, and validate that the
//! supervision layer contained both *in-process* — the lane was
//! quarantined and respawned, the watchdog counted the overrun and fired
//! its live instant without touching the robustness log, the log mirrored
//! live telemetry instants, and the final result is bit-identical to an
//! undisturbed run. Exits nonzero on any failure,
//! so `scripts/check.sh` can use it as a gate.
//!
//! ```sh
//! cargo run --release -p a3cs-bench --bin supervision_smoke
//! ```

use a3cs_bench::report::{or_exit, status, warn};
use a3cs_core::{
    CoSearch, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind,
};
use a3cs_envs::{Breakout, Environment};

fn factory(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

fn fail(problems: &[String]) -> ! {
    for p in problems {
        warn(p);
    }
    std::process::exit(1);
}

fn tiny_config() -> CoSearchConfig {
    let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
    cfg.total_steps = 300;
    cfg.eval_every = 100;
    cfg.eval_episodes = 2;
    cfg.eval_max_steps = 40;
    cfg.das_final_iters = 50;
    cfg
}

fn curve_bits(curve: &[(u64, f32)]) -> Vec<(u64, u32)> {
    curve.iter().map(|&(s, v)| (s, v.to_bits())).collect()
}

fn check_bit_identical(a: &CoSearchResult, b: &CoSearchResult, problems: &mut Vec<String>) {
    if format!("{:?}", a.arch) != format!("{:?}", b.arch) {
        problems.push("derived architectures differ".to_owned());
    }
    if format!("{:?}", a.accelerator) != format!("{:?}", b.accelerator) {
        problems.push("accelerator configs differ".to_owned());
    }
    if curve_bits(&a.score_curve) != curve_bits(&b.score_curve) {
        problems.push("score curves differ bit-for-bit".to_owned());
    }
    if curve_bits(&a.alpha_entropy_curve) != curve_bits(&b.alpha_entropy_curve) {
        problems.push("entropy curves differ bit-for-bit".to_owned());
    }
    if a.steps != b.steps {
        problems.push(format!("step counts differ: {} vs {}", a.steps, b.steps));
    }
}

fn main() {
    status("supervision smoke: fault-free reference run\n");
    let reference = or_exit(CoSearch::try_new(tiny_config(), 42)).run(&factory, None);

    // Same seed, but a worker panic armed during the update phase at
    // iteration 3 and a 250 ms stall in the rollout at iteration 6, with
    // an aggressive soft deadline so the watchdog actually fires.
    let mut cfg = tiny_config();
    cfg.threads = Some(2);
    cfg.fault.stall_multiplier = 1;
    cfg.fault.stall_min_ms = 50;
    cfg.fault.plan = FaultPlan::none()
        .worker_panic_at("update", 3)
        .stall_at("rollout", 6, 250);

    // The injected worker panic is expected and contained by the pool's
    // isolation layer; keep its backtrace out of the smoke output while
    // still reporting panics from any other thread.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        if thread.name().is_some_and(|n| n.starts_with("a3cs-pool")) {
            return;
        }
        default_hook(info);
    }));

    status("supervision smoke: same seed with an armed worker panic and a stall\n");
    let session = telemetry::Session::start();
    let mut stalls = 0;
    let observed =
        or_exit(CoSearch::try_new(cfg, 42))
            .run_guarded_observed(&factory, None, |run| stalls = run.phase_stalls());
    let supervised = match observed {
        Ok(r) => r,
        Err(e) => {
            let _ = session.finish();
            fail(&[format!("supervised co-search failed: {e}")]);
        }
    };
    let trace = session.finish();

    let mut problems = Vec::new();
    let log = &supervised.robustness;
    for (kind, label) in [
        (RobustnessEventKind::FaultInjected, "both injections logged"),
        (RobustnessEventKind::LaneQuarantined, "panicking lane quarantined"),
        (RobustnessEventKind::WorkerRespawned, "quarantined worker respawned"),
    ] {
        if log.count(kind) == 0 {
            problems.push(format!(
                "expected at least one {:?} event ({label}); log: {:?}",
                kind.label(),
                log.events
            ));
        }
    }
    if stalls == 0 {
        problems.push("the watchdog counted no stall for the stalled rollout".to_owned());
    }
    // Containment, not restart: the supervisor never saw a phase failure
    // and nothing resumed from disk. Stalls are counted beside the log,
    // never in it.
    for kind in [
        RobustnessEventKind::PhaseFailed,
        RobustnessEventKind::RetriesExhausted,
        RobustnessEventKind::Resumed,
        RobustnessEventKind::PhaseStalled,
    ] {
        if log.count(kind) != 0 {
            problems.push(format!(
                "unexpected {:?} event; log: {:?}",
                kind.label(),
                log.events
            ));
        }
    }
    if !trace
        .instants()
        .any(|i| i.name == "watchdog-deadline-exceeded")
    {
        problems.push("watchdog never fired its live deadline instant".to_owned());
    }
    if !trace.instants().any(|i| i.name == "lane-quarantined") {
        problems.push("lane quarantine did not mirror into the live trace".to_owned());
    }
    check_bit_identical(&reference, &supervised, &mut problems);

    if !problems.is_empty() {
        fail(&problems);
    }
    status(format!(
        "ok: {} robustness events, {stalls} stall(s) counted, faults contained in-process, \
         result bit-identical\n",
        log.events.len()
    ));
}
