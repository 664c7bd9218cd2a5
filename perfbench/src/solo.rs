//! `solo_search`: one paper-structure A3C-S co-search on Breakout at the
//! `short` profile, one-level with AC-distillation from the committed
//! teacher, on the default pool with no checkpoints and no supervision —
//! Alg. 1 as a researcher runs it.

use crate::calib;
use crate::digest::Digest;
use crate::layers::{end_to_end, from_trace, measure, median_ms, ms, now_ns, traced, Block, Piece};
use crate::report::Outcome;
use crate::{breakout, Ctx};
use a3cs_bench::scale::SHORT;
use a3cs_bench::setup::{agent_with, build_backbone, cosearch_config, game_info};
use a3cs_core::{preflight, CoSearch, CoSearchConfig, CoSearchResult, GuardedRun, StepOutcome};
use a3cs_drl::{ActorCritic, Checkpoint, EnvFactory};
use std::path::Path;

const GAME: &str = "Breakout";
/// The committed `short`-profile teacher; it is loaded, never retrained.
const TEACHER: &str = "results/teachers/Breakout_short_12000_4000.json";
const TEACHER_SEED: u64 = 4000;
/// Set-ups before the first co-search of an e2e run; `setup_s` is the
/// median of these and of every later co-search's set-up.
const SETUP_REPS: usize = 9;

pub struct Plan {
    pub cfg: CoSearchConfig,
    pub seed: u64,
    pub teacher: &'static str,
}

impl Plan {
    pub fn standard(ctx: &Ctx) -> Result<Plan, String> {
        let mut cfg = cosearch_config(GAME, &SHORT).map_err(|e| e.to_string())?;
        cfg.threads = Some(ctx.lanes);
        Ok(Plan {
            cfg,
            seed: ctx.derive(1),
            teacher: TEACHER,
        })
    }
}

fn load_teacher(path: &str) -> Result<ActorCritic, String> {
    let info = game_info(GAME).map_err(|e| e.to_string())?;
    let backbone = build_backbone("ResNet-20", &info, TEACHER_SEED).map_err(|e| e.to_string())?;
    let agent = agent_with(backbone, &info, TEACHER_SEED + 1);
    let checkpoint = Checkpoint::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    checkpoint
        .apply(&agent)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(agent)
}

struct Started {
    teacher: ActorCritic,
    search: CoSearch,
    run: GuardedRun,
}

/// The workload's set-up: teacher load, `CoSearch::try_new` and
/// `start_run`.
fn start(plan: &Plan, factory: &EnvFactory<'_>) -> Result<Started, String> {
    let teacher = load_teacher(plan.teacher)?;
    let mut search = CoSearch::try_new(plan.cfg.clone(), plan.seed).map_err(|r| r.to_string())?;
    let run = search.start_run(factory);
    Ok(Started {
        teacher,
        search,
        run,
    })
}

fn check(out: &mut Outcome, plan: &Plan, search: &CoSearch, result: &CoSearchResult) {
    let target = &plan.cfg.target;
    out.check(result.steps >= plan.cfg.total_steps, || {
        format!(
            "search stopped at {} of {} steps",
            result.steps, plan.cfg.total_steps
        )
    });
    let layers = search.supernet().most_likely_layer_descs().len();
    let legality = a3cs_check::check_accelerator(&result.accelerator, layers, target);
    out.check(legality.is_clean(), || {
        format!("derived accelerator: {legality}")
    });
    out.check(
        result.report.fps.is_finite() && result.report.fps > 0.0,
        || format!("derived FPS {}", result.report.fps),
    );
    let curve_ok =
        !result.score_curve.is_empty() && result.score_curve.iter().all(|&(_, s)| s.is_finite());
    out.check(curve_ok, || format!("score curve {:?}", result.score_curve));
    out.check(result.robustness.is_empty(), || {
        format!("robustness log not empty: {:?}", result.robustness.events)
    });
}

fn digest(result: &CoSearchResult) -> u64 {
    let mut d = Digest::new();
    d.debug(&result.arch)
        .debug(&result.accelerator)
        .u64(result.steps);
    d.f64(result.report.fps);
    for &(step, score) in &result.score_curve {
        d.u64(step).f32(score);
    }
    d.finish()
}

/// One block: a started co-search stepped to its end and derived. The
/// units are its iterations; the extra figure is the `finish` time.
fn co_search(
    out: &mut Outcome,
    plan: &Plan,
    started: Started,
    factory: &EnvFactory<'_>,
) -> (Block, u64) {
    let Started {
        teacher,
        mut search,
        mut run,
    } = started;
    let t_start = now_ns();
    let mut pieces = Vec::new();
    loop {
        let t0 = now_ns();
        let stepped = run.step(&mut search, factory, Some(&teacher));
        pieces.push(Piece::unit(t0, now_ns()));
        calib::mark();
        out.attempted += 1;
        match stepped {
            Ok(StepOutcome::Ran) => {}
            Ok(StepOutcome::Finished) => break,
            Err(e) => {
                out.problems.push(format!("step failed: {e}"));
                break;
            }
        }
    }
    let t0 = now_ns();
    let result = run.finish(&mut search);
    let t1 = now_ns();
    calib::mark();
    let finish_ns = t1 - t0;
    pieces.push(Piece::other(t0, t1));
    check(out, plan, &search, &result);
    let block = Block {
        pieces,
        work: result.steps as f64,
        wall_ns: now_ns() - t_start,
        digest: digest(&result),
    };
    (block, finish_ns)
}

pub fn run(ctx: &Ctx, plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let factory: &EnvFactory<'_> = &breakout;
    let setup = || start(plan, factory);
    let block = |out: &mut Outcome, s| co_search(out, plan, s, factory);
    if !trace {
        let timed = measure(&mut out, ctx.seconds, SETUP_REPS, ctx.lanes, setup, block);
        end_to_end(&mut out, &timed);
        return out;
    }
    let Some(traced) = traced(&mut out, setup, block) else {
        return out;
    };
    from_trace(&mut out, &traced.trace, traced.block.wall_ns, ctx.lanes);
    out.set("core.derive_ms", ms(traced.extra));
    out.set(
        "check.preflight_ms",
        median_ms(5, || drop(preflight(&plan.cfg))),
    );
    out.zero_unmeasured_layers();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{ctx, serial};

    #[test]
    fn tiny_solo_digest_repeats() {
        let _serial = serial();
        let ctx = ctx("solo-digest");
        let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
        cfg.total_steps = 100;
        cfg.eval_every = 50;
        cfg.eval_episodes = 2;
        cfg.eval_max_steps = 30;
        cfg.das_final_iters = 20;
        let plan = Plan {
            cfg,
            seed: 3,
            teacher: "../results/teachers/Breakout_short_12000_4000.json",
        };
        let a = run(&ctx, &plan, true);
        let b = run(&ctx, &plan, true);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.attempted, 3 * 5, "three legs of five iterations");
        assert!(a.values["core.derive_ms"] > 0.0);
        assert!(a.values["core.loss_backward_ms"] > 0.0);
        assert_eq!(
            a.values["tensor.macs_per_iter"],
            b.values["tensor.macs_per_iter"]
        );
    }
}
