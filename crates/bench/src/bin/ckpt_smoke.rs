//! Checkpoint durability smoke check: run a co-search until the store
//! holds one base frame plus eight chained deltas, kill it, rot a byte
//! in the middle delta on disk, and resume. The resumed run must fall
//! back to the verified chain prefix, quarantine the rotten frame
//! and everything downstream of it (renamed `.bad`, never deleted), and
//! still finish bit-identically to a run that never faulted. Exits
//! nonzero on any failure, so `scripts/check.sh` can use it as a gate.
//!
//! ```sh
//! cargo run --release -p a3cs-bench --bin ckpt_smoke
//! ```

use a3cs_bench::report::{or_exit, status, warn};
use a3cs_core::{CoSearch, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind};
use a3cs_envs::{Breakout, Environment};
use std::path::{Path, PathBuf};

/// Delta frames the interrupted run must leave behind (iterations 1..=8).
const CHAIN_DELTAS: usize = 8;
/// The chain position whose on-disk frame gets a byte flipped.
const ROTTEN: u64 = 4;
/// Seed shared by the reference, interrupted and resumed runs.
const SEED: u64 = 23;

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

fn count_ext(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count()
        })
        .unwrap_or(0)
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
    if a.steps != b.steps {
        problems.push(format!("step counts differ: {} vs {}", a.steps, b.steps));
    }
}

fn main() {
    status("ckpt smoke: fault-free solo reference run\n");
    let reference = or_exit(CoSearch::try_new(tiny_config(), SEED)).run(&factory, None);

    let dir: PathBuf =
        std::env::temp_dir().join(format!("a3cs_ckpt_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    status(format!(
        "ckpt smoke: checkpointed run, crash after base + {CHAIN_DELTAS} deltas\n"
    ));
    let mut cfg = tiny_config();
    cfg.fault.checkpoint_dir = Some(dir.clone());
    cfg.fault.plan = FaultPlan::none().abort_at(CHAIN_DELTAS as u64 + 1);
    if or_exit(CoSearch::try_new(cfg.clone(), SEED))
        .run_guarded(&factory, None)
        .is_ok()
    {
        fail(&["the interrupted run finished before its abort fired".to_owned()]);
    }

    let mut problems = Vec::new();
    let bases = count_ext(&dir, "json");
    let deltas = count_ext(&dir, "delta");
    if bases != 1 || deltas != CHAIN_DELTAS {
        problems.push(format!(
            "expected 1 base + {CHAIN_DELTAS} deltas on disk, found {bases} + {deltas}"
        ));
    }

    // Bit rot: flip one byte in the middle delta frame, past the envelope
    // header so the frame body (not just the seal) is damaged.
    let rotten = dir.join(format!("ckpt-{ROTTEN:012}.delta"));
    let mut bytes = or_exit(std::fs::read(&rotten));
    if bytes.len() <= 40 {
        fail(&[format!("{} is too short to rot", rotten.display())]);
    }
    bytes[40] ^= 0xff;
    or_exit(std::fs::write(&rotten, bytes));
    status(format!(
        "ckpt smoke: flipped a byte in {}, resuming\n",
        rotten.display()
    ));

    cfg.fault.plan = FaultPlan::none();
    let resumed = match or_exit(CoSearch::try_new(cfg, SEED)).run_guarded(&factory, None) {
        Ok(result) => result,
        Err(e) => fail(&[format!("resume after bit rot failed: {e}")]),
    };

    // Scrub quarantined the rotten frame and every delta downstream of it
    // (positions ROTTEN..=CHAIN_DELTAS), renamed — never deleted.
    let expected_bad = CHAIN_DELTAS - ROTTEN as usize + 1;
    let bad = count_ext(&dir, "bad");
    if bad != expected_bad {
        problems.push(format!(
            "expected {expected_bad} quarantined .bad frames, found {bad}"
        ));
    }
    let log = &resumed.robustness;
    if log.count(RobustnessEventKind::Resumed) != 1 {
        problems.push("resumed run did not log a resume".to_owned());
    }
    if log.count(RobustnessEventKind::DeltaChainFallback) == 0 {
        problems.push("recovery never logged a delta-chain fallback".to_owned());
    }
    if log.count(RobustnessEventKind::CheckpointQuarantined) != expected_bad {
        problems.push(format!(
            "expected {expected_bad} quarantine events, saw {}",
            log.count(RobustnessEventKind::CheckpointQuarantined)
        ));
    }
    check_bit_identical(&reference, &resumed, &mut problems);

    if !problems.is_empty() {
        fail(&problems);
    }
    status(format!(
        "ckpt smoke: OK (fell back past the rotten frame, {bad} frames quarantined, \
         resumed run bit-identical over {} steps)\n",
        resumed.steps
    ));
    std::fs::remove_dir_all(&dir).ok();
}
