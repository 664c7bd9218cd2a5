//! Fleet end-to-end smoke check: run four co-search sessions under one
//! fleet supervisor with a simulated crash injected into one of them, and
//! validate the per-session fault domains — the faulted session restarts
//! once from its namespaced checkpoint store and still finishes
//! bit-identically to a fault-free run, every sibling is bit-identical to
//! its solo run, the telemetry trace splits cleanly per session id, and
//! the live JSONL stream mirrors the buffered trace byte-for-byte. Exits
//! nonzero on any failure, so `scripts/check.sh` can use it as a gate.
//!
//! ```sh
//! cargo run --release -p a3cs-bench --bin fleet_smoke
//! ```

use a3cs_bench::report::{or_exit, status, warn};
use a3cs_core::{CoSearch, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind};
use a3cs_envs::{Breakout, Environment};
use a3cs_fleet::{Fleet, FleetConfig, SessionState};
use std::io::Write;
use std::sync::{Arc, Mutex};

const FAULTED_SEED: u64 = 12;

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
    cfg.total_steps = 200;
    cfg.eval_every = 100;
    cfg.eval_episodes = 2;
    cfg.eval_max_steps = 40;
    cfg.das_final_iters = 50;
    cfg
}

fn curve_bits(curve: &[(u64, f32)]) -> Vec<(u64, u32)> {
    curve.iter().map(|&(s, v)| (s, v.to_bits())).collect()
}

fn check_bit_identical(
    what: &str,
    a: &CoSearchResult,
    b: &CoSearchResult,
    problems: &mut Vec<String>,
) {
    if format!("{:?}", a.arch) != format!("{:?}", b.arch) {
        problems.push(format!("{what}: derived architectures differ"));
    }
    if format!("{:?}", a.accelerator) != format!("{:?}", b.accelerator) {
        problems.push(format!("{what}: accelerator configs differ"));
    }
    if curve_bits(&a.score_curve) != curve_bits(&b.score_curve) {
        problems.push(format!("{what}: score curves differ bit-for-bit"));
    }
    if a.steps != b.steps {
        problems.push(format!(
            "{what}: step counts differ: {} vs {}",
            a.steps, b.steps
        ));
    }
}

/// A `Write` the smoke can hand to the streaming sink and inspect after.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Ok(mut inner) = self.0.lock() {
            inner.extend_from_slice(buf);
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() {
    status("fleet smoke: fault-free solo reference runs\n");
    let mut references = Vec::new();
    for seed in 10..14u64 {
        references.push(or_exit(CoSearch::try_new(tiny_config(), seed)).run(&factory, None));
    }

    let root =
        std::env::temp_dir().join(format!("a3cs_fleet_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    status("fleet smoke: 4 sessions, one injected crash, one restart budget\n");
    let mut fleet = Fleet::new(FleetConfig {
        max_session_restarts: 1,
        checkpoint_root: Some(root.clone()),
        scheduler_seed: 42,
        ..FleetConfig::default()
    });
    let mut ids = Vec::new();
    for seed in 10..14u64 {
        let mut cfg = tiny_config();
        if seed == FAULTED_SEED {
            cfg.fault.plan = FaultPlan::none().abort_at(7);
        }
        ids.push((seed, or_exit(fleet.submit(format!("s{seed}"), cfg, seed, factory))));
    }

    let stream_buf = SharedBuf::default();
    let stream = telemetry::StreamingJsonl::attach(Box::new(stream_buf.clone()));
    let session = telemetry::Session::start();
    let report = fleet.run_to_completion();
    let trace = session.finish();
    stream.detach();

    let mut problems = Vec::new();
    if report.total_faults != 1 {
        problems.push(format!("expected exactly 1 fault, saw {}", report.total_faults));
    }

    for (i, (seed, id)) in ids.iter().enumerate() {
        let Some(s) = report.session(*id) else {
            problems.push(format!("session {id} missing from the fleet report"));
            continue;
        };
        if s.state != SessionState::Done {
            problems.push(format!("session {id} did not complete: {:?}", s.state));
            continue;
        }
        let Some(result) = s.result.as_ref() else {
            problems.push(format!("done session {id} has no result"));
            continue;
        };
        check_bit_identical(&format!("seed {seed}"), &references[i], result, &mut problems);
        if *seed == FAULTED_SEED {
            // Isolation proof, part 1: the crashed session spent exactly
            // one restart, resumed from its namespaced store, and still
            // matched the fault-free reference bit-for-bit (checked above).
            if s.restarts != 1 {
                problems.push(format!("faulted session spent {} restarts, not 1", s.restarts));
            }
            if s.fleet_events.count(RobustnessEventKind::SessionRestarted) != 1 {
                problems.push("missing the session-restarted fleet event".to_owned());
            }
            if s.robustness.count(RobustnessEventKind::Resumed) != 1 {
                problems.push("restarted attempt did not auto-resume from disk".to_owned());
            }
            if s.checkpoint_bytes_written == 0 {
                problems.push("faulted session persisted no checkpoint bytes".to_owned());
            }
            if s.checkpoint_restores == 0 {
                problems.push("faulted session recorded no checkpoint restore".to_owned());
            }
        } else {
            // Isolation proof, part 2: siblings never saw the fault.
            if !result.robustness.is_empty() {
                problems.push(format!(
                    "sibling seed {seed} took robustness actions: {:?}",
                    result.robustness.events
                ));
            }
            if s.restarts != 0 {
                problems.push(format!("sibling seed {seed} restarted"));
            }
        }
    }

    // Every session's records are tagged and separable in the one trace.
    for (_, id) in &ids {
        if !trace.spans().any(|s| s.payload.session == Some(id.index())) {
            problems.push(format!("no trace spans tagged with session {id}"));
        }
        if trace.for_session(Some(id.index())).is_empty() {
            problems.push(format!("for_session({id}) split out an empty trace"));
        }
    }
    if trace.metrics.counter("checkpoint.bytes_written") == 0 {
        problems.push("checkpoint.bytes_written metric never incremented".to_owned());
    }
    if trace.metrics.counter("checkpoint.restore_count") == 0 {
        problems.push("checkpoint.restore_count metric never incremented".to_owned());
    }

    // The live stream saw the same bytes the buffered trace serialises.
    let streamed = match stream_buf.0.lock() {
        Ok(inner) => String::from_utf8_lossy(&inner).into_owned(),
        Err(_) => String::new(),
    };
    if streamed.is_empty() {
        problems.push("streaming sink received nothing".to_owned());
    } else if !telemetry::record_lines(&trace).starts_with(&streamed) {
        problems.push("streamed JSONL is not a byte-prefix of the buffered records".to_owned());
    }

    if !problems.is_empty() {
        fail(&problems);
    }
    status(format!(
        "fleet smoke: OK ({} sessions done in {} ticks, {} fault contained, \
         {} checkpoint bytes, pool budget {})\n",
        report.sessions.len(),
        report.ticks,
        report.total_faults,
        report
            .sessions
            .iter()
            .map(|s| s.checkpoint_bytes_written)
            .sum::<u64>(),
        report.pool_budget
    ));
    std::fs::remove_dir_all(&root).ok();
}
