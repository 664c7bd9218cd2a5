//! `fleet_guarded`: the operator's mode. Four supervised, sentinel-guarded
//! co-search sessions share one `Fleet` with delta checkpoints every
//! iteration and a live `ObsPublisher` on every tick. Two sessions crash
//! (mid-chain, and at the last delta before a fresh base) and must resume
//! from their chains bit-identical to their clean twins.

use crate::calib;
use crate::digest::Digest;
use crate::layers::{
    end_to_end, from_trace, measure, median_ms, now_ns, ratio, traced, Block, Piece,
};
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::{breakout, Ctx};
use a3cs_bench::scale::SMOKE;
use a3cs_bench::setup::cosearch_config;
use a3cs_core::{preflight, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind};
use a3cs_fleet::{Fleet, FleetConfig, SessionId, SessionState, SessionStatus, TickObserver};
use a3cs_obs::{ObsPublisher, ObsServer};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

/// Co-search iterations per session: enough for a crash past the first
/// full delta chain and for at least 100 step ticks per fleet.
const ITERATIONS: u64 = 30;
/// Fleets built before the first one runs in an e2e run; `setup_s` is the
/// median of these and of every later fleet's set-up.
const SETUP_REPS: usize = 9;
/// Rolling window of the obs publisher.
const OBS_WINDOW: usize = 16;

pub struct Plan {
    pub base: CoSearchConfig,
    /// Seeds the two clean sessions of every fleet; each crashed session
    /// is a twin of a clean one.
    pub seed: u64,
    /// `abort_at` iterations of the two crashed twins.
    pub aborts: [u64; 2],
    pub fleet: FleetConfig,
}

impl Plan {
    pub fn standard(ctx: &Ctx) -> Result<Plan, String> {
        let mut base = cosearch_config("Breakout", &SMOKE).map_err(|e| e.to_string())?;
        base.total_steps = ITERATIONS * (base.n_envs * base.rollout_len) as u64;
        base.eval_every = SMOKE.eval_every(base.total_steps);
        base.fault.supervision = true;
        base.fault.sentinel = true;
        let fleet = FleetConfig {
            worker_budget: ctx.lanes,
            scheduler_seed: ctx.derive(12),
            checkpoint_root: Some(ctx.scratch.join("fleet")),
            ..FleetConfig::default()
        };
        // A crash at iteration k resumes from a chain of k - 1 deltas: one
        // twin crashes mid-chain, the other at the last delta before the
        // writer rolls a fresh base.
        let chain = fleet.durability.max_chain_len as u64;
        Ok(Plan {
            base,
            seed: ctx.derive(10),
            aborts: [chain / 2 + 2, chain + 1],
            fleet,
        })
    }

    /// `(name, config, seed, clean twin index)` of every session, in
    /// submission order. Every fleet of a run is the same.
    fn sessions(&self) -> Vec<(String, CoSearchConfig, u64, Option<usize>)> {
        let seeds = [crate::mix(self.seed, 0), crate::mix(self.seed, 1)];
        let mut out = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            out.push((format!("clean-{i}"), self.base.clone(), seed, None));
        }
        for (i, (&seed, &abort)) in seeds.iter().zip(&self.aborts).enumerate() {
            let mut cfg = self.base.clone();
            cfg.fault.plan = FaultPlan::none().abort_at(abort);
            out.push((format!("crash-{i}-at-{abort}"), cfg, seed, Some(i)));
        }
        out
    }
}

/// What one scheduler tick did, read from `Fleet::poll` around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    /// A queued session built its search and opened its run.
    Start,
    /// A running session ran one co-search iteration.
    Step,
    /// A crashed session rebuilt its search and resumed from its chain.
    Resume,
    /// A session ran its last iteration and derived its result.
    Finish,
    /// A running session faulted.
    Crash,
    /// Every runnable session was backing off.
    Idle,
}

fn changed(before: &SessionStatus, after: &SessionStatus) -> bool {
    before.state != after.state
        || before.steps != after.steps
        || before.iteration != after.iteration
        || before.restarts != after.restarts
}

/// Classify one tick from the session statuses polled before and after
/// it, returning the kind and the session it advanced.
pub fn classify(
    before: &[Option<SessionStatus>],
    after: &[Option<SessionStatus>],
) -> Result<(TickKind, Option<usize>), String> {
    let moved: Vec<usize> = before
        .iter()
        .zip(after)
        .enumerate()
        .filter_map(|(i, pair)| match pair {
            (Some(b), Some(a)) => changed(b, a).then_some(i),
            _ => Some(i),
        })
        .collect();
    let Some(&i) = moved.first() else {
        return Ok((TickKind::Idle, None));
    };
    if moved.len() > 1 {
        return Err(format!("one tick advanced sessions {moved:?}"));
    }
    let (Some(b), Some(a)) = (&before[i], &after[i]) else {
        return Err(format!("session {i} vanished"));
    };
    let kind = match (&b.state, &a.state) {
        (SessionState::Queued, _) => TickKind::Start,
        (SessionState::Backoff { .. }, _) => TickKind::Resume,
        (SessionState::Running, SessionState::Running) => TickKind::Step,
        (SessionState::Running, SessionState::Done) => TickKind::Finish,
        (SessionState::Running, SessionState::Backoff { .. } | SessionState::Failed(_)) => {
            TickKind::Crash
        }
        (from, to) => return Err(format!("session {i} went {from:?} -> {to:?}")),
    };
    Ok((kind, Some(i)))
}

#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub kind: TickKind,
    pub begin: u64,
    pub end: u64,
}

/// Times of the observer's two calls per tick.
#[derive(Default)]
struct ObsTimes {
    snapshot_ns: Vec<f64>,
    publish_ns: Vec<f64>,
}

/// The `ObsPublisher` tick hook (`publish_report(&report_snapshot())`)
/// with the benchmark's timing around each of its two calls.
struct TimedPublisher {
    publisher: ObsPublisher,
    times: Rc<RefCell<ObsTimes>>,
}

impl TickObserver for TimedPublisher {
    fn on_tick(&mut self, fleet: &Fleet<'_>) {
        let t0 = now_ns();
        let report = fleet.report_snapshot();
        let t1 = now_ns();
        self.publisher.publish_report(&report);
        let t2 = now_ns();
        let mut times = self.times.borrow_mut();
        times.snapshot_ns.push((t1 - t0) as f64);
        times.publish_ns.push((t2 - t1) as f64);
    }
}

pub struct Driven<'f> {
    pub fleet: Fleet<'f>,
    pub ids: Vec<SessionId>,
    pub ticks: Vec<Tick>,
    obs: Rc<RefCell<ObsTimes>>,
    root: Option<PathBuf>,
    /// Mark the calibration after every tick (not during the set-up, which
    /// is timed whole).
    calibrate: bool,
}

impl Driven<'_> {
    /// Tick until `done` holds for the fleet, classifying every tick.
    pub fn tick_until(&mut self, done: impl Fn(&Fleet<'_>) -> bool) -> Result<(), String> {
        while !done(&self.fleet) {
            let before: Vec<_> = self.ids.iter().map(|&id| self.fleet.poll(id)).collect();
            let begin = now_ns();
            let more = self.fleet.tick();
            let end = now_ns();
            let after: Vec<_> = self.ids.iter().map(|&id| self.fleet.poll(id)).collect();
            if self.calibrate {
                calib::mark();
            }
            let (kind, _) = classify(&before, &after)?;
            self.ticks.push(Tick { kind, begin, end });
            if !more {
                break;
            }
        }
        Ok(())
    }

    #[cfg(test)]
    pub fn count(&self, kind: TickKind) -> usize {
        self.ticks.iter().filter(|t| t.kind == kind).count()
    }
}

impl Drop for Driven<'_> {
    fn drop(&mut self) {
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn any_queued(fleet: &Fleet<'_>, ids: &[SessionId]) -> bool {
    ids.iter()
        .any(|&id| matches!(fleet.poll(id).map(|s| s.state), Some(SessionState::Queued)))
}

/// Build a fleet on a fresh checkpoint root, admit every session and run
/// each session's start tick: the fleet workload's set-up.
pub fn build(plan: &Plan, server: &ObsServer) -> Result<Driven<'static>, String> {
    let root = plan.fleet.checkpoint_root.clone();
    if let Some(root) = &root {
        let _ = std::fs::remove_dir_all(root);
    }
    let mut fleet = Fleet::new(plan.fleet.clone());
    let obs = Rc::new(RefCell::new(ObsTimes::default()));
    fleet.attach_observer(Box::new(TimedPublisher {
        publisher: server.publisher(OBS_WINDOW),
        times: Rc::clone(&obs),
    }));
    let mut ids = Vec::new();
    for (name, cfg, seed, _) in plan.sessions() {
        ids.push(
            fleet
                .submit(name, cfg, seed, breakout)
                .map_err(|r| r.to_string())?,
        );
    }
    let mut driven = Driven {
        fleet,
        ids,
        ticks: Vec::new(),
        obs,
        root,
        calibrate: false,
    };
    let ids = driven.ids.clone();
    driven.tick_until(|f| !any_queued(f, &ids))?;
    Ok(driven)
}

fn curve_bits(r: &CoSearchResult) -> Vec<(u64, u32)> {
    r.score_curve
        .iter()
        .map(|&(s, v)| (s, v.to_bits()))
        .collect()
}

fn same_result(a: &CoSearchResult, b: &CoSearchResult) -> bool {
    format!("{:?}", a.arch) == format!("{:?}", b.arch)
        && format!("{:?}", a.accelerator) == format!("{:?}", b.accelerator)
        && curve_bits(a) == curve_bits(b)
        && a.steps == b.steps
}

/// Output checks of one finished fleet; returns its digest.
pub fn check(out: &mut Outcome, plan: &Plan, driven: &Driven<'_>) -> u64 {
    let report = driven.fleet.report_snapshot();
    let sessions = plan.sessions();
    let mut d = Digest::new();
    d.u64(report.ticks).u64(report.total_faults);
    out.attempted += sessions.len() as u64;
    out.check(report.total_faults == 2, || {
        format!("{} session faults, expected 2", report.total_faults)
    });
    for ((name, _, _, twin), id) in sessions.iter().zip(&driven.ids) {
        let Some(s) = report.session(*id) else {
            out.problems
                .push(format!("{name}: missing from the report"));
            continue;
        };
        let Some(result) = s.result.as_ref().filter(|_| s.state == SessionState::Done) else {
            out.problems
                .push(format!("{name}: ended {:?} without a result", s.state));
            continue;
        };
        d.debug(name)
            .debug(&result.arch)
            .debug(&result.accelerator)
            .u64(result.steps);
        d.u64(s.checkpoint_bytes_written);
        for (step, bits) in curve_bits(result) {
            d.u64(step).u64(u64::from(bits));
        }
        match twin {
            None => {
                out.check(s.restarts == 0 && result.robustness.is_empty(), || {
                    format!("{name}: clean session took robustness actions")
                });
            }
            Some(t) => {
                out.check(s.restarts == 1, || {
                    format!("{name}: {} restarts", s.restarts)
                });
                let resumed = s.robustness.count(RobustnessEventKind::Resumed);
                out.check(resumed == 1, || format!("{name}: resumed {resumed} times"));
                let twin_result = report
                    .session(driven.ids[*t])
                    .and_then(|s| s.result.as_ref());
                out.check(twin_result.is_some_and(|r| same_result(r, result)), || {
                    format!("{name}: not bit-identical to its clean twin")
                });
            }
        }
    }
    d.finish()
}

fn durations_ns(ticks: &[Tick], kind: TickKind) -> Vec<f64> {
    ticks
        .iter()
        .filter(|t| t.kind == kind)
        .map(|t| (t.end - t.begin) as f64)
        .collect()
}

/// The workload's own figures of one fleet.
struct Extra {
    resume_ns: Vec<f64>,
    /// Co-search iterations run (step and finish ticks).
    iterations: u64,
    ckpt_bytes: u64,
    ticks: Vec<Tick>,
    obs: ObsTimes,
}

/// One block: a built fleet ticked until every session is done. Its pieces
/// are its ticks, and the units are the step ticks.
fn drive(out: &mut Outcome, plan: &Plan, mut driven: Driven<'static>) -> (Block, Extra) {
    let from = driven.ticks.len();
    // The observer's calls during the start ticks belong to the set-up.
    drop(driven.obs.take());
    driven.calibrate = true;
    let t_block = now_ns();
    if let Err(e) = driven.tick_until(|_| false) {
        out.problems.push(e);
    }
    let wall_ns = now_ns() - t_block;
    let digest = check(out, plan, &driven);
    let ticks = driven.ticks.split_off(from);
    let report = driven.fleet.report_snapshot();
    let env_steps: u64 = report
        .sessions
        .iter()
        .map(|s| s.result.as_ref().map_or(0, |r| r.steps))
        .sum();
    let extra = Extra {
        resume_ns: durations_ns(&ticks, TickKind::Resume),
        iterations: ticks
            .iter()
            .filter(|t| matches!(t.kind, TickKind::Step | TickKind::Finish))
            .count() as u64,
        ckpt_bytes: report
            .sessions
            .iter()
            .map(|s| s.checkpoint_bytes_written)
            .sum(),
        obs: driven.obs.take(),
        ticks,
    };
    let pieces = extra
        .ticks
        .iter()
        .map(|t| Piece {
            begin: t.begin,
            end: t.end,
            unit: t.kind == TickKind::Step,
        })
        .collect();
    let block = Block {
        pieces,
        work: env_steps as f64,
        wall_ns,
        digest,
    };
    (block, extra)
}

pub fn run(ctx: &Ctx, plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let server = match ObsServer::bind_ephemeral() {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("obs server: {e}"));
            return out;
        }
    };
    // Each fleet removes the shared checkpoint root when it is dropped, and
    // the next one starts it afresh.
    let setup = || build(plan, &server);
    let block = |out: &mut Outcome, driven| drive(out, plan, driven);
    if !trace {
        let timed = measure(&mut out, ctx.seconds, SETUP_REPS, ctx.lanes, setup, block);
        end_to_end(&mut out, &timed);
        let resumes: Vec<f64> = timed
            .extras
            .iter()
            .flat_map(|x| x.resume_ns.clone())
            .collect();
        out.notes.push(format!(
            "resume ticks n={} mean {:.1} ms",
            resumes.len(),
            mean(&resumes).unwrap_or(0.0) / 1e6
        ));
        return out;
    }
    let Some(traced) = traced(&mut out, setup, block) else {
        return out;
    };
    drop(server);
    let (trace, extra) = (&traced.trace, &traced.extra);
    from_trace(&mut out, trace, traced.block.wall_ns, ctx.lanes);
    // Self time of a step tick: the tick minus the iteration span it ran.
    let iterations: Vec<(u64, u64)> = trace
        .spans()
        .filter(|s| s.name == "iteration")
        .map(|s| (s.begin_ns, s.end_ns))
        .collect();
    let tick_self: Vec<f64> = extra
        .ticks
        .iter()
        .filter(|t| t.kind == TickKind::Step)
        .map(|t| {
            let inner: u64 = iterations
                .iter()
                .filter(|&&(b, _)| b >= t.begin && b < t.end)
                .map(|&(b, e)| e - b)
                .sum();
            (t.end - t.begin).saturating_sub(inner) as f64
        })
        .collect();
    out.set("fleet.tick_self_ms", mean(&tick_self).unwrap_or(0.0) / 1e6);
    out.set(
        "fleet.report_snapshot_ms",
        mean(&extra.obs.snapshot_ns).unwrap_or(0.0) / 1e6,
    );
    out.set(
        "obs.publish_ms",
        mean(&extra.obs.publish_ns).unwrap_or(0.0) / 1e6,
    );
    out.set(
        "fleet.resume_ms",
        mean(&extra.resume_ns).unwrap_or(0.0) / 1e6,
    );
    out.set(
        "drl.ckpt_bytes_per_iter",
        ratio(extra.ckpt_bytes as f64, extra.iterations as f64),
    );
    let preflight_ms: Vec<f64> = plan
        .sessions()
        .iter()
        .map(|(_, cfg, _, _)| median_ms(5, || drop(preflight(cfg))))
        .collect();
    out.set("check.preflight_ms", median(&preflight_ms).unwrap_or(0.0));
    out.notes.push(format!(
        "traced ticks: {} step, {} resume, {} observer calls",
        tick_self.len(),
        extra.resume_ns.len(),
        extra.obs.publish_ns.len()
    ));
    out.zero_unmeasured_layers();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{ctx, serial};

    fn tiny_plan(ctx: &Ctx) -> Plan {
        let mut base = CoSearchConfig::tiny(3, 12, 12, 3);
        base.total_steps = 200;
        base.eval_every = 100;
        base.eval_episodes = 2;
        base.eval_max_steps = 30;
        base.das_final_iters = 20;
        base.fault.supervision = true;
        base.fault.sentinel = true;
        Plan {
            base,
            seed: ctx.derive(10),
            aborts: [3, 6],
            fleet: FleetConfig {
                worker_budget: ctx.lanes,
                scheduler_seed: 5,
                checkpoint_root: Some(ctx.scratch.clone()),
                ..FleetConfig::default()
            },
        }
    }

    #[test]
    fn ticks_classify_as_start_step_crash_resume_finish() {
        let _serial = serial();
        let ctx = ctx("fleet-ticks");
        let plan = tiny_plan(&ctx);
        let server = ObsServer::bind_ephemeral().expect("loopback server");
        let mut driven = build(&plan, &server).expect("tiny fleet builds");
        assert_eq!(driven.count(TickKind::Start), 4, "{:?}", driven.ticks);
        assert_eq!(driven.ticks.len(), 4, "set-up is exactly the start ticks");
        driven.tick_until(|_| false).expect("every tick classifies");
        let iterations = 10;
        assert_eq!(driven.count(TickKind::Crash), 2);
        assert_eq!(driven.count(TickKind::Resume), 2);
        assert_eq!(driven.count(TickKind::Finish), 4);
        // Each crashed twin re-runs the iteration its last checkpoint
        // opened; every session's last iteration is its finish tick.
        assert_eq!(driven.count(TickKind::Step), 4 * iterations - 2);
        assert_eq!(driven.ticks.len() as u64, driven.fleet.ticks());
        let mut out = Outcome::default();
        check(&mut out, &plan, &driven);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.attempted, 4);
        drop(driven);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }

    #[test]
    fn tiny_fleet_digest_repeats() {
        let _serial = serial();
        let ctx = ctx("fleet-digest");
        let plan = tiny_plan(&ctx);
        let a = run(&ctx, &plan, true);
        let b = run(&ctx, &plan, true);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        assert_eq!(a.digest, b.digest);
        assert!(a.values["fleet.resume_ms"] > 0.0);
        assert!(a.values["drl.ckpt_bytes_per_iter"] > 0.0);
        assert_eq!(
            a.values["drl.ckpt_bytes_per_iter"],
            b.values["drl.ckpt_bytes_per_iter"]
        );
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}
