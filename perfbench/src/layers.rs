//! The harness every workload shares: the block loop of an untraced run
//! and its end-to-end figures, and the untraced/traced/untraced legs of a
//! traced run with the per-layer figures read off its spans, counters and
//! pool stats.

use crate::calib::{self, Scale};
use crate::report::Outcome;
use crate::stats::{median, percentile, self_time_ns};
use std::collections::BTreeMap;
use telemetry::Trace;

/// Nanoseconds on the telemetry clock, so the benchmark's own timings and
/// the program's spans can be compared directly.
pub fn now_ns() -> u64 {
    telemetry::now_ns()
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a layer the
/// workload does not exercise).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Fewest blocks an untraced run times, however short `--seconds` is.
pub const MIN_BLOCKS: usize = 2;
/// Blocks an untraced run starts while `--seconds` have not yet passed,
/// even if the last one will end after them: each piece counts at its
/// fastest over the blocks, and a tail unit slowed by the host in two
/// blocks is seldom slowed in a third.
pub const WANT_BLOCKS: usize = 3;

/// One block of work: a whole co-search, a whole fleet, or a round of
/// designs. Every block of a run does the same work from the same seeds,
/// so it runs the same pieces in the same order.
pub struct Block {
    /// Every timed piece, in the order it ran.
    pub pieces: Vec<Piece>,
    /// Env steps or designs done.
    pub work: f64,
    pub wall_ns: u64,
    /// Digest of the block's outputs.
    pub digest: u64,
}

/// One timed piece of a block: a unit whose latency is reported (an
/// iteration, a step tick, a design), or other work inside the block (a
/// derive, a start or resume tick). Times are on [`now_ns`].
#[derive(Clone, Copy)]
pub struct Piece {
    pub begin: u64,
    pub end: u64,
    pub unit: bool,
}

impl Piece {
    pub fn unit(begin: u64, end: u64) -> Piece {
        Piece {
            begin,
            end,
            unit: true,
        }
    }

    pub fn other(begin: u64, end: u64) -> Piece {
        Piece {
            begin,
            end,
            unit: false,
        }
    }
}

/// What an untraced run timed.
pub struct Timed<X> {
    /// `(begin, end)` of every set-up, the first one cold.
    pub setups: Vec<(u64, u64)>,
    pub blocks: Vec<Block>,
    /// The workload's own figures, one per block.
    pub extras: Vec<X>,
    /// Lanes the pieces ran on, and so were calibrated on.
    pub lanes: usize,
    /// Calibrations between pieces and around set-ups.
    pub calibration: Vec<calib::Sample>,
}

fn timed_setup<S>(
    out: &mut Outcome,
    setups: &mut Vec<(u64, u64)>,
    setup: &mut impl FnMut() -> Result<S, String>,
) -> Option<S> {
    calib::mark_one();
    let t0 = now_ns();
    let made = setup();
    setups.push((t0, now_ns()));
    calib::mark_one();
    made.map_err(|e| out.problems.push(e)).ok()
}

/// Whether to start another block after `n` blocks took `elapsed` seconds.
fn another_block(n: usize, elapsed: f64, seconds: f64) -> bool {
    let projected = elapsed * (n + 1) as f64 / n as f64;
    n < MIN_BLOCKS || (n < WANT_BLOCKS && elapsed <= seconds) || projected <= seconds
}

/// Set up `setup_reps` times, then run blocks — each after the first on a
/// set-up of its own — while another block is expected to end within
/// `seconds`, at least [`MIN_BLOCKS`], and up to [`WANT_BLOCKS`] while
/// `seconds` have not passed. Calibration is on throughout, on
/// one lane around the set-ups and on `lanes` for the blocks, whose `run`
/// marks it after every piece. Checks that every block's digest equals the
/// first one's, which becomes the run's digest.
pub fn measure<S, X>(
    out: &mut Outcome,
    seconds: f64,
    setup_reps: usize,
    lanes: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut run: impl FnMut(&mut Outcome, S) -> (Block, X),
) -> Timed<X> {
    let mut timed = Timed {
        setups: Vec::new(),
        blocks: Vec::new(),
        extras: Vec::new(),
        lanes,
        calibration: Vec::new(),
    };
    calib::enable(lanes);
    let mut ready = None;
    for _ in 0..setup_reps.max(1) {
        drop(ready.take());
        ready = timed_setup(out, &mut timed.setups, &mut setup);
    }
    let t_start = now_ns();
    while let Some(s) = ready.take() {
        let (block, extra) = run(out, s);
        timed.blocks.push(block);
        timed.extras.push(extra);
        let elapsed = (now_ns() - t_start) as f64 / 1e9;
        if another_block(timed.blocks.len(), elapsed, seconds) {
            ready = timed_setup(out, &mut timed.setups, &mut setup);
        }
    }
    calib::enable(0);
    timed.calibration = calib::take();
    let digests: Vec<u64> = timed.blocks.iter().map(|b| b.digest).collect();
    out.digest = digests.first().copied().unwrap_or(0);
    out.check(digests.iter().all(|&d| d == out.digest), || {
        format!("blocks of the same work differ: {digests:x?}")
    });
    timed
}

/// The fastest time of each piece over the blocks, which all ran the same
/// pieces, with `time` giving a piece's duration; each entry is `(ns,
/// unit)`. Host noise only ever adds time, and the same piece of every block
/// does the same arithmetic, so its fastest run is its least disturbed one.
pub fn fastest_pieces(
    blocks: &[Block],
    time: impl Fn(&Piece) -> f64,
) -> Result<Vec<(f64, bool)>, String> {
    let Some(first) = blocks.first() else {
        return Err("no block ran".into());
    };
    let same_shape = blocks.iter().all(|b| {
        b.pieces.len() == first.pieces.len()
            && b.pieces
                .iter()
                .zip(&first.pieces)
                .all(|(p, q)| p.unit == q.unit)
    });
    if !same_shape {
        return Err("blocks of the same work ran different pieces".into());
    }
    Ok((0..first.pieces.len())
        .map(|i| {
            let ns = blocks
                .iter()
                .map(|b| time(&b.pieces[i]))
                .fold(f64::INFINITY, f64::min);
            (ns, first.pieces[i].unit)
        })
        .collect())
}

/// Unit latency percentiles (ms) and work per second of one block.
struct Figures {
    p50: f64,
    p90: f64,
    work_per_s: f64,
}

/// The figures of a block made of `pieces` (`(ns, unit)`) that did `work`.
fn figures(pieces: &[(f64, bool)], work: f64) -> Result<Figures, String> {
    let unit_ms: Vec<f64> = pieces.iter().filter(|p| p.1).map(|p| p.0 / 1e6).collect();
    match (percentile(&unit_ms, 0.5), percentile(&unit_ms, 0.9)) {
        (Some(p50), Some(p90)) => Ok(Figures {
            p50,
            p90,
            work_per_s: ratio(work, pieces.iter().map(|p| p.0).sum::<f64>() / 1e9),
        }),
        _ => Err(format!(
            "{} timed units a block: p90 needs 10 beyond it",
            unit_ms.len()
        )),
    }
}

/// The end-to-end metrics shared by every workload (peak RSS is added by
/// the caller). Every time is taken at reference speed (see [`calib`]);
/// each piece counts at its fastest over the run's blocks. The latency
/// percentiles are over the units, and the work rate is one block's work
/// over the sum of its pieces. `setup_s` is the median set-up, so it
/// measures a warm set-up; the cold first one is printed beside it, and so
/// are the figures from raw wall times.
pub fn end_to_end<X>(out: &mut Outcome, timed: &Timed<X>) {
    let scale = Scale::new(&timed.calibration, timed.lanes);
    let setup_scale = Scale::new(&timed.calibration, 1);
    let work = timed.blocks.first().map_or(0.0, |b| b.work);
    let at_ref = fastest_pieces(&timed.blocks, |p| scale.ns(p.begin, p.end))
        .and_then(|pieces| figures(&pieces, work));
    let raw = fastest_pieces(&timed.blocks, |p| (p.end - p.begin) as f64)
        .and_then(|pieces| figures(&pieces, work));
    let (at_ref, raw) = match (at_ref, raw) {
        (Ok(at_ref), Ok(raw)) => (at_ref, raw),
        (Err(e), _) | (_, Err(e)) => return out.problems.push(e),
    };
    out.set("step_p50_ms", at_ref.p50);
    out.set("step_p90_ms", at_ref.p90);
    out.set("work_per_s", at_ref.work_per_s);
    let setups: Vec<f64> = timed
        .setups
        .iter()
        .map(|&(b, e)| setup_scale.ns(b, e))
        .collect();
    out.set("setup_s", median(&setups).unwrap_or(0.0) / 1e9);
    let raw_setups: Vec<f64> = timed.setups.iter().map(|&(b, e)| (e - b) as f64).collect();
    let kernel: Vec<f64> = timed
        .calibration
        .iter()
        .filter(|c| c.lanes == timed.lanes)
        .map(|c| c.ns)
        .collect();
    out.notes.push(format!(
        "samples: set-ups n={} (cold first {:.4} s), blocks n={} of {} pieces; block walls {:?} s",
        setups.len(),
        setups.first().copied().unwrap_or(0.0) / 1e9,
        timed.blocks.len(),
        timed.blocks.first().map_or(0, |b| b.pieces.len()),
        timed
            .blocks
            .iter()
            .map(|b| (b.wall_ns as f64 / 1e7).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "calibration on {} lanes: n={} median {:.3} ms (reference {:.3} ms); raw wall: step_p50 {:.3} ms, step_p90 {:.3} ms, work {:.3}/s, setup {:.4} s",
        timed.lanes,
        kernel.len(),
        median(&kernel).unwrap_or(0.0) / 1e6,
        calib::REF_NS / 1e6,
        raw.p50,
        raw.p90,
        raw.work_per_s,
        median(&raw_setups).unwrap_or(0.0) / 1e9
    ));
}

/// The traced leg of a traced run.
pub struct Traced<X> {
    pub block: Block,
    pub extra: X,
    pub trace: Trace,
}

/// Run one block untraced, one under a `telemetry::Session`, then one
/// untraced again, so warm-up and drift fall on both sides of the
/// telemetry overhead. Checks that all three digests agree and sets
/// `telemetry.overhead_frac`.
pub fn traced<S, X>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<S, String>,
    mut run: impl FnMut(&mut Outcome, S) -> (Block, X),
) -> Option<Traced<X>> {
    let mut untraced_ns = Vec::new();
    let mut digests = Vec::new();
    let mut traced = None;
    for with_trace in [false, true, false] {
        let s = setup().map_err(|e| out.problems.push(e)).ok()?;
        if with_trace {
            let session = telemetry::Session::start();
            let (block, extra) = run(out, s);
            let trace = session.finish();
            digests.push(block.digest);
            traced = Some(Traced {
                block,
                extra,
                trace,
            });
        } else {
            let (block, _) = run(out, s);
            digests.push(block.digest);
            untraced_ns.push(block.wall_ns as f64);
        }
    }
    out.digest = digests[0];
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("traced and untraced legs differ: {digests:x?}")
    });
    let traced = traced?;
    let untraced = median(&untraced_ns).unwrap_or(0.0);
    out.set(
        "telemetry.overhead_frac",
        ratio(traced.block.wall_ns as f64, untraced) - 1.0,
    );
    out.notes.push(format!(
        "telemetry overhead: traced {:.3} s vs untraced median {:.3} s (n={})",
        traced.block.wall_ns as f64 / 1e9,
        untraced / 1e9,
        untraced_ns.len()
    ));
    Some(traced)
}

/// Per-layer metrics every traced leg yields from the program's own phase
/// spans, counters and pool stats. `wall_ns` is the traced leg's timed wall
/// and `lanes` the pool width it ran on.
pub fn from_trace(out: &mut Outcome, trace: &Trace, wall_ns: u64, lanes: usize) {
    let mut total: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in trace.spans() {
        let entry = total.entry(s.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += s.end_ns - s.begin_ns;
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.begin_ns, s.end_ns));
        }
    }
    let count = |name: &str| total.get(name).map_or(0, |t| t.0) as f64;
    let total_ns = |name: &str| total.get(name).map_or(0, |t| t.1) as f64;
    let iterations = count("iteration");
    let per_iteration_ms = |name: &str| ratio(total_ns(name), iterations) / 1e6;

    out.set("core.rollout_ms", per_iteration_ms("rollout"));
    out.set("core.loss_backward_ms", per_iteration_ms("loss_backward"));
    out.set("core.optimizer_step_ms", per_iteration_ms("optimizer_step"));
    out.set("core.das_sweep_ms", per_iteration_ms("das_sweep"));
    out.set("core.checkpoint_io_ms", per_iteration_ms("checkpoint_io"));
    out.set("core.eval_ms", ratio(total_ns("eval"), count("eval")) / 1e6);
    let iteration_self: u64 = trace
        .spans()
        .filter(|s| s.name == "iteration")
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_time_ns(s.begin_ns, s.end_ns, kids)
        })
        .sum();
    out.set(
        "core.iteration_self_ms",
        ratio(iteration_self as f64, iterations) / 1e6,
    );

    let m = &trace.metrics;
    let macs = (m.counter("gemm.macs") + m.counter("conv.macs")) as f64;
    out.set("tensor.macs_per_iter", ratio(macs, iterations));
    let compute_ns = total_ns("rollout") + total_ns("loss_backward") + total_ns("eval");
    out.set("tensor.gmacs_per_s", ratio(macs, compute_ns));
    let busy: u64 = trace.pool.iter().map(|p| p.busy_ns).sum();
    out.set(
        "pool.busy_frac",
        ratio(busy as f64, (lanes as u64 * wall_ns) as f64),
    );
    out.set(
        "drl.ckpt_compression",
        ratio(
            m.counter("checkpoint.bytes") as f64,
            m.counter("checkpoint.bytes_written") as f64,
        ),
    );
    out.notes.push(format!(
        "trace: {} iteration spans, {} eval spans, {} records",
        iterations,
        count("eval"),
        trace.records.len()
    ));
}

/// Median of `reps` timed calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = now_ns();
            f();
            ms(now_ns() - t0)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block of back-to-back pieces of the given lengths.
    fn block(pieces: &[(u64, bool)], digest: u64) -> Block {
        let mut at = 0;
        Block {
            pieces: pieces
                .iter()
                .map(|&(ns, unit)| {
                    at += ns;
                    Piece {
                        begin: at - ns,
                        end: at,
                        unit,
                    }
                })
                .collect(),
            work: 1.0,
            wall_ns: at,
            digest,
        }
    }

    #[test]
    fn fastest_pieces_take_each_piece_minimum() {
        let a = block(&[(5, true), (9, false), (4, true)], 1);
        let b = block(&[(7, true), (3, false), (6, true)], 1);
        let wall = |p: &Piece| (p.end - p.begin) as f64;
        let fastest = fastest_pieces(&[a, b], wall).expect("same shape");
        assert_eq!(fastest, [(5.0, true), (3.0, false), (4.0, true)]);
        let short = block(&[(1, true)], 1);
        let other = block(&[(1, false)], 1);
        assert!(fastest_pieces(&[short, other], wall).is_err());
        assert!(fastest_pieces(&[], wall).is_err());
    }

    #[test]
    fn block_count_follows_the_time_budget() {
        // However long a block takes, two run.
        assert!(another_block(1, 100.0, 30.0));
        assert!(!another_block(2, 31.0, 30.0));
        // A third starts while the budget lasts, even if it ends after.
        assert!(another_block(2, 26.0, 30.0));
        assert!(!another_block(3, 39.0, 30.0));
        // Short blocks go on while the next one is expected to fit.
        assert!(another_block(5, 20.0, 30.0));
        assert!(!another_block(5, 26.0, 30.0));
    }

    #[test]
    fn measure_runs_min_blocks_and_compares_digests() {
        // Calibration is process-global.
        let _serial = crate::tests::serial();
        let mut out = Outcome::default();
        let timed = measure(
            &mut out,
            0.0,
            3,
            2,
            || Ok(()),
            |_, ()| (block(&[(1, true)], 7), ()),
        );
        assert_eq!(timed.blocks.len(), MIN_BLOCKS);
        assert_eq!(timed.setups.len(), 3 + MIN_BLOCKS - 1);
        assert!(
            !timed.calibration.is_empty(),
            "calibrated around every set-up"
        );
        assert!(out.problems.is_empty());
        assert_eq!(out.digest, 7);

        let mut out = Outcome::default();
        let mut digest = 0;
        measure(
            &mut out,
            0.0,
            1,
            1,
            || Ok(()),
            |_, ()| {
                digest += 1;
                (block(&[(1, true)], digest), ())
            },
        );
        assert_eq!(out.problems.len(), 1, "differing digests fail the run");
    }
}
