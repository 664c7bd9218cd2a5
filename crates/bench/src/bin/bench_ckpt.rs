//! Checkpoint durability benchmark: full frames vs delta+compressed
//! frames on the checkpoints a real co-search actually produces.
//!
//! Phase 1 runs a tiny co-search with a long chain budget and kills it
//! after 50 post-base checkpoint boundaries, leaving one base frame plus
//! 50 delta frames on disk. Phase 2 replays that chain to recover the 51
//! real parameter payloads, then re-persists the same sequence through two
//! chain lengths into fresh stores that retain the default 3 chains:
//!
//! * **full** — chains of length 0: one sealed base frame per iteration
//!   (`max_chain_len = 0`);
//! * **delta** — one base frame plus 50 XOR delta frames (the default
//!   incremental format).
//!
//! Save and recover legs are wall-clocked (recovery is the one verifying
//! walk a resume makes), byte totals are the sealed on-disk sizes, and both
//! recoveries must reproduce the final payload bit-for-bit. The
//! steady-state byte reduction (mean full frame over mean delta frame)
//! carries a 5x acceptance floor.
//!
//! Emits `BENCH_ckpt.json` in the working directory.
//!
//! ```sh
//! cargo run --release -p a3cs-bench --bin bench_ckpt
//! ```

use a3cs_bench::report::{or_exit, status, warn};
use a3cs_core::{CoSearch, CoSearchConfig, FaultConfig, FaultPlan};
use a3cs_drl::{
    apply_delta_frame, decode_base_frame, encode_base_frame, encode_delta_frame, sum64,
    unseal_envelope_bytes, ChainLink, CheckpointStore, StdIo,
};
use a3cs_envs::{Breakout, Environment};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Delta frames captured from the real run (iterations 1..=DELTAS).
const DELTAS: usize = 50;
/// Acceptance floor on the steady-state full/delta byte ratio.
const MIN_STEADY_REDUCTION: f64 = 5.0;
/// Seed for the payload-producing co-search.
const SEED: u64 = 29;

#[derive(Serialize)]
struct CkptBench {
    frames: usize,
    payload_bytes: usize,
    full_bytes: u64,
    delta_bytes: u64,
    delta_base_bytes: u64,
    delta_frame_bytes: u64,
    full_save_ms: f64,
    delta_save_ms: f64,
    full_recover_ms: f64,
    delta_recover_ms: f64,
    overall_reduction: f64,
    steady_state_reduction: f64,
    compression_ratio: f64,
    bit_identical: bool,
}

fn factory(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

fn bench_dir(leg: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a3cs_bench_ckpt_{}_{leg}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Read a store file and strip its envelope, exiting on any damage — the
/// chain was written moments ago by a healthy run.
fn read_frame(path: &Path) -> Vec<u8> {
    let sealed = or_exit(std::fs::read(path));
    or_exit(unseal_envelope_bytes(&sealed).map(<[u8]>::to_vec))
}

fn main() {
    // Phase 1: a real co-search writes the chain this bench measures.
    let source = bench_dir("source");
    let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
    cfg.total_steps = 100_000; // never reached: the abort ends the run
    cfg.eval_every = 1_000_000; // skip evals, every iteration is a boundary
    cfg.fault.checkpoint_dir = Some(source.clone());
    cfg.fault.keep = 4;
    cfg.fault.durability.max_chain_len = DELTAS + 8;
    cfg.fault.plan = FaultPlan::none().abort_at(DELTAS as u64 + 1);
    status(format!(
        "ckpt bench: running a co-search for {} checkpoint boundaries (base + {DELTAS} deltas)\n",
        DELTAS + 1
    ));
    let mut search = or_exit(CoSearch::try_new(cfg, SEED));
    if search.run_guarded(&factory, None).is_ok() {
        warn("the payload run finished before its abort fired");
        std::process::exit(1);
    }

    // Phase 2: replay the chain into the real payload sequence.
    let store = CheckpointStore::new(source.clone(), 64);
    let bases = store.candidates();
    let Some(&(base_iter, ref base_path)) = bases.last() else {
        warn("the payload run left no base frame");
        std::process::exit(1);
    };
    let base_payload = or_exit(decode_base_frame(&read_frame(base_path)));
    let mut link = ChainLink::first(sum64(&base_payload));
    let mut payloads = vec![base_payload];
    for (_, delta_path) in store.delta_candidates() {
        if payloads.len() > DELTAS {
            break;
        }
        let mut target = payloads[payloads.len() - 1].clone();
        let target_sum = or_exit(apply_delta_frame(&read_frame(&delta_path), &mut target, link));
        link = link.next(target_sum);
        payloads.push(target);
    }
    if payloads.len() != DELTAS + 1 {
        warn(format!(
            "expected base + {DELTAS} deltas from iteration {base_iter}, replayed {}",
            payloads.len()
        ));
        std::process::exit(1);
    }
    let payload_bytes = payloads[0].len();
    status(format!(
        "ckpt bench: replayed {} real payloads of {payload_bytes} bytes each\n",
        payloads.len()
    ));

    // Phase 3: full leg — chains of length 0, one sealed base per iteration.
    let keep = FaultConfig::default().keep;
    let full_dir = bench_dir("full");
    let full_store = CheckpointStore::new(full_dir.clone(), keep);
    let mut io = StdIo;
    let mut full_bytes = 0u64;
    let t0 = Instant::now();
    for (iteration, payload) in payloads.iter().enumerate() {
        let frame = encode_base_frame(payload);
        let (_, sealed) = or_exit(full_store.write_base_frame(&mut io, iteration as u64, &frame));
        full_bytes += sealed;
    }
    let full_save_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phase 4: delta leg — compressed base, then compressed XOR deltas,
    // each payload hashed once and its sum carried into the next link, as
    // the co-search writer does.
    let delta_dir = bench_dir("delta");
    let delta_store = CheckpointStore::new(delta_dir.clone(), keep);
    let t0 = Instant::now();
    let (_, delta_base_bytes) =
        or_exit(delta_store.write_base_frame(&mut io, 0, &encode_base_frame(&payloads[0])));
    let mut link = ChainLink::first(sum64(&payloads[0]));
    let mut delta_frame_bytes = 0u64;
    for (i, pair) in payloads.windows(2).enumerate() {
        let target_sum = sum64(&pair[1]);
        let frame = encode_delta_frame(&pair[0], &pair[1], target_sum, link, i as u64);
        let (_, sealed) = or_exit(delta_store.write_delta_frame(&mut io, i as u64 + 1, &frame));
        delta_frame_bytes += sealed;
        link = link.next(target_sum);
    }
    let delta_save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delta_bytes = delta_base_bytes + delta_frame_bytes;

    // Phase 5: recover both legs, bit-compare against the final payload.
    let t0 = Instant::now();
    let full_recovery = full_store.recover_and_scrub(&mut io);
    let full_recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let delta_recovery = delta_store.recover_and_scrub(&mut io);
    let delta_recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tip = &payloads[DELTAS]; // length was validated to DELTAS + 1 above
    let bit_identical = full_recovery.checkpoint.as_ref().map(|(_, p)| p) == Some(tip)
        && delta_recovery.checkpoint.as_ref().map(|(_, p)| p) == Some(tip);

    let frames = payloads.len();
    let overall_reduction = full_bytes as f64 / delta_bytes as f64;
    let steady_state_reduction =
        (full_bytes as f64 / frames as f64) / (delta_frame_bytes as f64 / DELTAS as f64);
    let compression_ratio = (frames * payload_bytes) as f64 / delta_bytes as f64;

    status(format!(
        "full  {full_bytes:>10} B  save {full_save_ms:7.1} ms  recover {full_recover_ms:6.1} ms"
    ));
    status(format!(
        "delta {delta_bytes:>10} B  save {delta_save_ms:7.1} ms  recover {delta_recover_ms:6.1} ms"
    ));
    status(format!(
        "reduction {overall_reduction:.1}x overall, {steady_state_reduction:.1}x steady-state \
         ({delta_frame_bytes} B across {DELTAS} deltas)   bit-identical {bit_identical}"
    ));

    let bench = CkptBench {
        frames,
        payload_bytes,
        full_bytes,
        delta_bytes,
        delta_base_bytes,
        delta_frame_bytes,
        full_save_ms,
        delta_save_ms,
        full_recover_ms,
        delta_recover_ms,
        overall_reduction,
        steady_state_reduction,
        compression_ratio,
        bit_identical,
    };
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_ckpt.json", json + "\n") {
                warn(format!("cannot write BENCH_ckpt.json: {e}"));
            } else {
                status("\n(results written to BENCH_ckpt.json)");
            }
        }
        Err(e) => warn(format!("cannot serialise results: {e}")),
    }

    std::fs::remove_dir_all(&source).ok();
    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&delta_dir).ok();

    assert!(bit_identical, "recovered payloads diverged from the chain tip");
    assert!(
        steady_state_reduction >= MIN_STEADY_REDUCTION,
        "steady-state reduction {steady_state_reduction:.2}x below the {MIN_STEADY_REDUCTION}x floor"
    );
}
