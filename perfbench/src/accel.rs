//! `accel_design`: the hardware half alone (Fig. 3 row 1, the
//! `design_accelerator` example). Every design runs DAS at the `full`
//! profile's budget on one of the five backbones, refines the DAS argmax
//! with beam search, evaluates the result and checks its legality. The
//! backbones span 3 to 76 compute layers, from well inside to well past
//! what the 2^14-entry cost cache holds.

use crate::calib;
use crate::digest::Digest;
use crate::layers::{end_to_end, measure, now_ns, ratio, traced, Block, Piece};
use crate::report::Outcome;
use crate::stats::mean;
use crate::Ctx;
use a3cs_accel::{BeamConfig, BeamSearch, DasConfig, DasEngine, FpgaTarget, MemoStats, PerfModel};
use a3cs_bench::scale::FULL;
use a3cs_bench::setup::{build_backbone, game_info, BACKBONES};
use a3cs_check::check_accelerator;
use a3cs_nn::LayerDesc;

/// Layer-list builds per e2e run, besides the one before each later block;
/// `setup_s` is the median of them all.
const SETUP_REPS: usize = 15;

pub struct Plan {
    pub seed: u64,
    pub das_iters: usize,
    pub beam_width: usize,
    pub beam_generations: usize,
    pub beam_mutations: usize,
    /// Rounds (one design per backbone) per block.
    pub block_rounds: usize,
}

impl Plan {
    pub fn standard(ctx: &Ctx) -> Plan {
        Plan {
            seed: ctx.derive(2),
            das_iters: FULL.das_iters,
            beam_width: 6,
            beam_generations: 8,
            beam_mutations: 4,
            block_rounds: 20,
        }
    }
}

fn layer_lists(seed: u64) -> Result<Vec<Vec<LayerDesc>>, String> {
    let info = game_info("Breakout").map_err(|e| e.to_string())?;
    BACKBONES
        .iter()
        .map(|kind| {
            build_backbone(kind, &info, seed)
                .map(|b| b.layer_descs())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The workload's own timings and cache counters of one block.
#[derive(Default)]
struct Extra {
    das_ns: Vec<f64>,
    beam_ns: Vec<f64>,
    evaluate_ns: Vec<f64>,
    das_hits: u64,
    das_lookups: u64,
    beam_hits: u64,
    beam_lookups: u64,
}

fn chunk_counts(stats: &MemoStats) -> (u64, u64) {
    (stats.chunk_hits, stats.chunk_hits + stats.chunk_misses)
}

/// One design: DAS, beam refinement seeded with the DAS argmax, then
/// evaluation and legality of both designs.
fn design(
    out: &mut Outcome,
    extra: &mut Extra,
    plan: &Plan,
    layers: &[LayerDesc],
    digest: &mut Digest,
) {
    let index = extra.das_ns.len() as u64;
    let target = FpgaTarget::zc706();
    let das_cfg = DasConfig {
        max_layers: layers.len().max(DasConfig::default().max_layers),
        ..DasConfig::default()
    };
    let beam_cfg = BeamConfig {
        space: das_cfg.space.clone(),
        num_chunks: das_cfg.num_chunks,
        width: plan.beam_width,
        mutations_per_parent: plan.beam_mutations,
        cost: das_cfg.cost,
        memo_log2: das_cfg.memo_log2,
    };
    let weights = das_cfg.cost;
    let n = layers.len();

    let t0 = now_ns();
    let mut das = DasEngine::new(das_cfg, crate::mix(plan.seed, 2 * index));
    let das_accel = das.run(layers, &target, plan.das_iters);
    let t1 = now_ns();
    let das_report = PerfModel::evaluate(&das_accel, layers, &target);
    let t2 = now_ns();
    let das_cost = PerfModel::cost(&das_report, &target, &weights);
    let mut beam = BeamSearch::new(beam_cfg, crate::mix(plan.seed, 2 * index + 1));
    let (beam_accel, beam_cost) = beam.run_from(
        &[das.best_choices(n)],
        layers,
        &target,
        plan.beam_generations,
    );
    let t3 = now_ns();
    let report = PerfModel::evaluate(&beam_accel, layers, &target);
    let t4 = now_ns();
    let das_legal = check_accelerator(&das_accel, n, &target);
    let beam_legal = check_accelerator(&beam_accel, n, &target);
    extra.das_ns.push((t1 - t0) as f64);
    extra.beam_ns.push((t3 - t2) as f64);
    extra
        .evaluate_ns
        .extend([(t2 - t1) as f64, (t4 - t3) as f64]);
    if let Some(stats) = das.cache_stats() {
        let (hits, lookups) = chunk_counts(&stats);
        extra.das_hits += hits;
        extra.das_lookups += lookups;
    }
    let (hits, lookups) = chunk_counts(&beam.cache_stats());
    extra.beam_hits += hits;
    extra.beam_lookups += lookups;

    out.attempted += 1;
    out.check(das_legal.is_clean(), || {
        format!("design {index}: DAS design: {das_legal}")
    });
    out.check(beam_legal.is_clean(), || {
        format!("design {index}: beam design: {beam_legal}")
    });
    out.check(beam_cost <= das_cost, || {
        format!("design {index}: beam cost {beam_cost} above its DAS seed's {das_cost}")
    });
    out.check(report.fps.is_finite() && report.fps > 0.0, || {
        format!("design {index}: FPS {}", report.fps)
    });
    digest.u64(n as u64).debug(&das_accel).debug(&beam_accel);
    digest.f64(beam_cost).f64(report.fps);
}

/// One block: `block_rounds` designs of every backbone. The units are the
/// designs.
fn designs(out: &mut Outcome, plan: &Plan, lists: &[Vec<LayerDesc>]) -> (Block, Extra) {
    let mut extra = Extra::default();
    let mut digest = Digest::new();
    let t_block = now_ns();
    let mut pieces = Vec::new();
    for _ in 0..plan.block_rounds {
        for layers in lists {
            let t0 = now_ns();
            design(out, &mut extra, plan, layers, &mut digest);
            pieces.push(Piece::unit(t0, now_ns()));
            calib::mark();
        }
    }
    let block = Block {
        work: pieces.len() as f64,
        pieces,
        wall_ns: now_ns() - t_block,
        digest: digest.finish(),
    };
    (block, extra)
}

pub fn run(ctx: &Ctx, plan: &Plan, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let setup = || layer_lists(plan.seed);
    let block = |out: &mut Outcome, lists: Vec<Vec<LayerDesc>>| designs(out, plan, &lists);
    if !trace {
        // DAS and beam search run on the calling thread alone.
        let timed = measure(&mut out, ctx.seconds, SETUP_REPS, 1, setup, block);
        end_to_end(&mut out, &timed);
        return out;
    }
    let Some(traced) = traced(&mut out, setup, block) else {
        return out;
    };
    let extra = &traced.extra;
    let mean_ms = |v: &[f64]| mean(v).unwrap_or(0.0) / 1e6;
    out.set("accel.das_run_ms", mean_ms(&extra.das_ns));
    out.set("accel.beam_run_ms", mean_ms(&extra.beam_ns));
    out.set("accel.evaluate_ms", mean_ms(&extra.evaluate_ns));
    out.set(
        "accel.das_chunk_hit_rate",
        ratio(extra.das_hits as f64, extra.das_lookups as f64),
    );
    out.set(
        "accel.beam_chunk_hit_rate",
        ratio(extra.beam_hits as f64, extra.beam_lookups as f64),
    );
    out.notes
        .push(format!("traced designs: {}", extra.das_ns.len()));
    out.zero_unmeasured_layers();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{ctx, serial};

    #[test]
    fn tiny_accel_digest_repeats() {
        let _serial = serial();
        let ctx = ctx("accel-digest");
        let plan = Plan {
            seed: 7,
            das_iters: 40,
            beam_width: 3,
            beam_generations: 2,
            beam_mutations: 2,
            block_rounds: 1,
        };
        let a = run(&ctx, &plan, true);
        let b = run(&ctx, &plan, true);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.attempted, 3 * BACKBONES.len() as u64);
        assert!(a.values["accel.das_run_ms"] > 0.0);
        let other = run(&ctx, &Plan { seed: 8, ..plan }, true);
        assert_ne!(a.digest, other.digest, "the seed reaches the designs");
    }
}
