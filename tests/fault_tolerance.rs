//! Fault tolerance: a co-search killed mid-run and resumed from disk must
//! finish bit-identically to one that never stopped, injected NaN losses
//! must trigger rollback without changing the trajectory, and corrupted
//! checkpoint files must fall back to an older good one — all driven by
//! the deterministic fault plan, with every action in the robustness log.

use a3cs::core::{
    CoSearch, CoSearchConfig, CoSearchResult, FaultPlan, RobustnessEventKind, SearchError,
};
use a3cs::envs::{Breakout, Environment};
use std::path::{Path, PathBuf};

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

fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a3cs_ft_{}_{}", std::process::id(), test));
    std::fs::remove_dir_all(&dir).ok();
    dir
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
fn crash_resume_is_bit_identical_to_uninterrupted_run() {
    let reference = cosearch(tiny_config(300), 11).run(&factory, None);
    assert!(reference.robustness.is_empty());

    // Kill the loop at iteration 7 (the checkpoint on disk is iteration 6).
    let dir = test_dir("crash_resume");
    let mut cfg = tiny_config(300);
    cfg.fault.checkpoint_dir = Some(dir.clone());
    cfg.fault.keep = 2;
    cfg.fault.plan = FaultPlan::none().abort_at(7);
    let err = cosearch(cfg.clone(), 11)
        .run_guarded(&factory, None)
        .expect_err("abort fault must surface");
    assert_eq!(err, SearchError::Aborted { iteration: 7 });

    // A fresh CoSearch on the same config/seed resumes from disk.
    cfg.fault.plan = FaultPlan::none();
    let resumed = cosearch(cfg, 11)
        .run_guarded(&factory, None)
        .expect("resumed run completes");
    assert_eq!(resumed.robustness.count(RobustnessEventKind::Resumed), 1);
    assert_results_bit_identical(&reference, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nan_loss_rolls_back_and_stays_bit_identical() {
    let reference = cosearch(tiny_config(300), 7).run(&factory, None);

    // Poison the loss at iteration 5; the sentinel catches it before any
    // optimiser step, rolls back to the in-memory checkpoint and replays.
    // With the default lr_backoff of 1.0 the replay is exact, so the final
    // result matches the undisturbed run bit for bit.
    let mut cfg = tiny_config(300);
    cfg.fault.sentinel = true;
    cfg.fault.max_rollbacks = 3;
    cfg.fault.plan = FaultPlan::none().nan_loss_at(5);
    let mut search = cosearch(cfg, 7);
    let result = search
        .run_guarded(&factory, None)
        .expect("run survives the injected NaN");

    let log = &result.robustness;
    assert_eq!(log.count(RobustnessEventKind::FaultInjected), 1);
    assert_eq!(log.count(RobustnessEventKind::NonFiniteLoss), 1);
    assert_eq!(log.count(RobustnessEventKind::RolledBack), 1);
    assert_results_bit_identical(&reference, &result);
}

#[test]
fn exhausted_rollback_budget_degrades_without_panicking() {
    // Two NaN injections at the same iteration: the first rolls back (using
    // the whole budget of 1), the replayed iteration is poisoned again, and
    // the loop degrades to skip-and-continue instead of looping forever.
    let mut cfg = tiny_config(200);
    cfg.fault.sentinel = true;
    cfg.fault.max_rollbacks = 1;
    cfg.fault.plan = FaultPlan::none().nan_loss_at(2).nan_loss_at(2);
    let mut search = cosearch(cfg, 21);
    let result = search
        .run_guarded(&factory, None)
        .expect("degraded run still completes");

    let log = &result.robustness;
    assert_eq!(log.count(RobustnessEventKind::NonFiniteLoss), 2);
    assert_eq!(log.count(RobustnessEventKind::RolledBack), 1);
    assert_eq!(log.count(RobustnessEventKind::RollbackBudgetExhausted), 1);
    assert!(result.steps >= 200);
}

#[test]
fn resume_falls_back_past_corrupted_checkpoints() {
    let reference = cosearch(tiny_config(300), 3).run(&factory, None);

    // Corrupt the two newest checkpoints (torn write at iteration 4, bit
    // rot at iteration 5), then crash at 6: recovery must skip both and
    // resume from iteration 3.
    let dir = test_dir("corrupt_fallback");
    let mut cfg = tiny_config(300);
    cfg.fault.checkpoint_dir = Some(dir.clone());
    cfg.fault.keep = 3;
    cfg.fault.durability.max_chain_len = 0;
    cfg.fault.plan = FaultPlan::none()
        .truncate_checkpoint_at(4, 10)
        .flip_checkpoint_byte_at(5, 40)
        .abort_at(6);
    let err = cosearch(cfg.clone(), 3)
        .run_guarded(&factory, None)
        .expect_err("abort fault must surface");
    assert!(matches!(err, SearchError::Aborted { iteration: 6 }));

    cfg.fault.plan = FaultPlan::none();
    let resumed = cosearch(cfg, 3)
        .run_guarded(&factory, None)
        .expect("resumed run completes");
    let log = &resumed.robustness;
    assert_eq!(
        log.count(RobustnessEventKind::CorruptCheckpointSkipped),
        2,
        "events: {:?}",
        log.events
    );
    assert_eq!(log.count(RobustnessEventKind::Resumed), 1);
    assert_results_bit_identical(&reference, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a 64: the envelope checksum of builds before `A3CS-CKPT v3`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A store file as builds before `A3CS-CKPT v3` wrote it: an `A3CSFRB1`
/// base frame (codec 1, payload length, one literal run of the whole
/// 32-byte payload) sealed in a v2 envelope checksummed with FNV-1a.
fn v2_envelope_around_a_v1_base_frame() -> Vec<u8> {
    let payload = b"A3CSSRCH-a-v3-search-checkpoint!";
    let mut frame = b"A3CSFRB1\x01".to_vec();
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.push(((payload.len() as u8 / 4) << 1) | 1);
    frame.extend_from_slice(payload);
    let mut file = format!("A3CS-CKPT v2 fnv1a={:016x}\n", fnv1a64(&frame)).into_bytes();
    file.extend_from_slice(&frame);
    file
}

#[test]
fn pre_frame_checkpoints_are_skipped_and_quarantined() {
    let reference = cosearch(tiny_config(300), 9).run(&factory, None);

    // Builds before frame-only checkpoints sealed the raw payload (JSON or
    // A3CSBIN2) into `ckpt-*.json`, and builds before the word-wide
    // checksum sealed version 1 frames in a v2 envelope. Neither is a base
    // frame this build reads: the resume must skip and quarantine it, then
    // start fresh.
    let legacy: [(&str, Vec<u8>); 3] = [
        (
            "json",
            a3cs::drl::seal_envelope_bytes(br#"{"version":2,"fingerprint":"0000000000000000"}"#),
        ),
        (
            "binary",
            a3cs::drl::seal_envelope_bytes(b"A3CSBIN2\x02\x00\x00\x00raw search checkpoint"),
        ),
        ("fnv1a_frame", v2_envelope_around_a_v1_base_frame()),
    ];
    for (name, file) in legacy {
        let dir = test_dir(&format!("pre_frame_{name}"));
        std::fs::create_dir_all(&dir).expect("store dir");
        std::fs::write(dir.join("ckpt-000000000005.json"), file).expect("seed the store");
        let mut cfg = tiny_config(300);
        cfg.fault.checkpoint_dir = Some(dir.clone());
        let result = cosearch(cfg, 9)
            .run_guarded(&factory, None)
            .expect("fresh run completes");
        let log = &result.robustness;
        assert_eq!(
            log.count(RobustnessEventKind::CorruptCheckpointSkipped),
            1,
            "{name}: {:?}",
            log.events
        );
        assert_eq!(
            log.count(RobustnessEventKind::CheckpointQuarantined),
            1,
            "{name}"
        );
        assert_eq!(log.count(RobustnessEventKind::Resumed), 0, "{name}");
        assert_results_bit_identical(&reference, &result);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
#[should_panic(expected = "schedules an abort")]
fn run_rejects_abort_plans() {
    let mut cfg = tiny_config(100);
    cfg.fault.plan = FaultPlan::none().abort_at(0);
    let _ = cosearch(cfg, 1).run(&factory, None);
}

// --- durable delta checkpointing (DESIGN.md §17) -------------------------

fn delta_config(total_steps: u64, dir: &Path) -> CoSearchConfig {
    let mut cfg = tiny_config(total_steps);
    cfg.fault.checkpoint_dir = Some(dir.to_path_buf());
    cfg
}

#[test]
fn delta_crash_resume_is_bit_identical_to_uninterrupted_run() {
    let reference = cosearch(tiny_config(300), 11).run(&factory, None);

    let dir = test_dir("delta_crash_resume");
    let mut cfg = delta_config(300, &dir);
    cfg.fault.plan = FaultPlan::none().abort_at(7);
    let err = cosearch(cfg.clone(), 11)
        .run_guarded(&factory, None)
        .expect_err("abort fault must surface");
    assert_eq!(err, SearchError::Aborted { iteration: 7 });

    // The store must actually hold the incremental format: one base frame
    // plus one delta per later iteration.
    let deltas = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "delta"))
        .count();
    assert_eq!(deltas, 6, "iterations 1..=6 persist as delta frames");

    cfg.fault.plan = FaultPlan::none();
    let resumed = cosearch(cfg, 11)
        .run_guarded(&factory, None)
        .expect("resumed run completes");
    assert_eq!(resumed.robustness.count(RobustnessEventKind::Resumed), 1);
    assert_eq!(
        resumed
            .robustness
            .count(RobustnessEventKind::CheckpointQuarantined),
        0,
        "a clean store scrubs clean"
    );
    assert_results_bit_identical(&reference, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_resume_survives_every_injected_io_fault() {
    let reference = cosearch(tiny_config(300), 13).run(&factory, None);

    // Each plan sabotages the checkpoint write at iteration 3 inside the
    // durable I/O path, then crashes at 7. The failed write logs
    // checkpoint-write-failed and forces a fresh base at 4, so recovery
    // replays base 4 + deltas 5..6 and resumes bit-identically.
    let plans: [(&str, FaultPlan); 3] = [
        ("io_error", FaultPlan::none().io_error_at(3).abort_at(7)),
        ("disk_full", FaultPlan::none().disk_full_at(3, 25).abort_at(7)),
        ("torn_rename", FaultPlan::none().torn_rename_at(3).abort_at(7)),
    ];
    for (name, plan) in plans {
        let dir = test_dir(&format!("delta_io_{name}"));
        let mut cfg = delta_config(300, &dir);
        cfg.fault.plan = plan;
        let err = cosearch(cfg.clone(), 13)
            .run_guarded(&factory, None)
            .expect_err("abort fault must surface");
        assert_eq!(err, SearchError::Aborted { iteration: 7 }, "{name}");

        cfg.fault.plan = FaultPlan::none();
        let resumed = cosearch(cfg, 13)
            .run_guarded(&factory, None)
            .expect("resumed run completes");
        let log = &resumed.robustness;
        assert_eq!(log.count(RobustnessEventKind::Resumed), 1, "{name}");
        if name == "torn_rename" {
            // The stranded `.tmp` is evidence of the torn rename; the
            // resume-time scrub quarantines it instead of deleting it.
            assert_eq!(
                log.count(RobustnessEventKind::CheckpointQuarantined),
                1,
                "{name}: {:?}",
                log.events
            );
        }
        assert_results_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn delta_resume_falls_back_past_a_flipped_delta_byte() {
    let reference = cosearch(tiny_config(300), 3).run(&factory, None);

    // Bit rot in the delta at iteration 5: its envelope checksum fails, so
    // chain replay stops at the verified prefix (iteration 4) and the
    // scrub quarantines the rotten frame plus its downstream delta.
    let dir = test_dir("delta_flip");
    let mut cfg = delta_config(300, &dir);
    cfg.fault.plan = FaultPlan::none().flip_checkpoint_byte_at(5, 40).abort_at(7);
    let err = cosearch(cfg.clone(), 3)
        .run_guarded(&factory, None)
        .expect_err("abort fault must surface");
    assert_eq!(err, SearchError::Aborted { iteration: 7 });

    cfg.fault.plan = FaultPlan::none();
    let resumed = cosearch(cfg, 3)
        .run_guarded(&factory, None)
        .expect("resumed run completes");
    let log = &resumed.robustness;
    assert_eq!(
        log.count(RobustnessEventKind::DeltaChainFallback),
        1,
        "events: {:?}",
        log.events
    );
    assert_eq!(log.count(RobustnessEventKind::CheckpointQuarantined), 2);
    assert_eq!(log.count(RobustnessEventKind::Resumed), 1);
    assert_results_bit_identical(&reference, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_resume_survives_a_missing_base() {
    let reference = cosearch(tiny_config(300), 17).run(&factory, None);

    let dir = test_dir("delta_missing_base");
    let mut cfg = delta_config(300, &dir);
    cfg.fault.plan = FaultPlan::none().abort_at(7);
    let err = cosearch(cfg.clone(), 17)
        .run_guarded(&factory, None)
        .expect_err("abort fault must surface");
    assert_eq!(err, SearchError::Aborted { iteration: 7 });

    // Lose the chain's base: the deltas alone can never replay. Recovery
    // must start fresh (no panic), and the scrub must quarantine every
    // orphan rather than deleting it.
    std::fs::remove_file(dir.join("ckpt-000000000000.json")).expect("base exists");
    cfg.fault.plan = FaultPlan::none();
    let resumed = cosearch(cfg, 17)
        .run_guarded(&factory, None)
        .expect("fresh run completes");
    let log = &resumed.robustness;
    assert_eq!(log.count(RobustnessEventKind::Resumed), 0, "started fresh");
    assert_eq!(
        log.count(RobustnessEventKind::CheckpointQuarantined),
        6,
        "all six orphan deltas quarantined: {:?}",
        log.events
    );
    assert_results_bit_identical(&reference, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_chains_roll_a_fresh_base_at_max_chain_len() {
    let reference = cosearch(tiny_config(300), 5).run(&factory, None);

    // (max_chain_len, crash iteration, bases on disk, deltas on disk). A
    // crash at k resumes from the chain holding iteration k - 1. With
    // chains of 2, a crash at 8 finds bases at 0, 3, 6 and deltas at 1, 2,
    // 4, 5, 7; an inline base roll is routine maintenance, not a
    // robustness event. With chains of 4, a crash at 4 resumes mid-chain,
    // and a crash at 5 resumes from a full-length chain: its last delta is
    // the one before the writer rolls a fresh base, the link whose carried
    // sums are easiest to get wrong.
    let cases: [(usize, u64, &[&str], usize); 3] = [
        (
            2,
            8,
            &[
                "ckpt-000000000000.json",
                "ckpt-000000000003.json",
                "ckpt-000000000006.json",
            ],
            5,
        ),
        (4, 4, &["ckpt-000000000000.json"], 3),
        (4, 5, &["ckpt-000000000000.json"], 4),
    ];
    for (max_chain_len, abort, want_bases, want_deltas) in cases {
        let case = format!("max_chain_len {max_chain_len}, crash at {abort}");
        let dir = test_dir(&format!("delta_roll_{max_chain_len}_{abort}"));
        let mut cfg = delta_config(300, &dir);
        cfg.fault.durability.max_chain_len = max_chain_len;
        cfg.fault.plan = FaultPlan::none().abort_at(abort);
        let err = cosearch(cfg.clone(), 5)
            .run_guarded(&factory, None)
            .expect_err("abort fault must surface");
        assert_eq!(err, SearchError::Aborted { iteration: abort }, "{case}");

        let mut bases: Vec<String> = Vec::new();
        let mut deltas: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&dir)
            .expect("store dir")
            .filter_map(Result::ok)
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") {
                bases.push(name);
            } else if name.ends_with(".delta") {
                deltas.push(name);
            }
        }
        bases.sort();
        assert_eq!(bases, want_bases, "{case}");
        assert_eq!(deltas.len(), want_deltas, "{case}: deltas {deltas:?}");

        cfg.fault.plan = FaultPlan::none();
        let resumed = cosearch(cfg, 5)
            .run_guarded(&factory, None)
            .expect("resumed run completes");
        let log = &resumed.robustness;
        assert_eq!(log.count(RobustnessEventKind::Resumed), 1, "{case}");
        assert_eq!(
            log.count(RobustnessEventKind::CheckpointQuarantined),
            0,
            "{case}: {:?}",
            log.events
        );
        assert_results_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
