//! The A3C-S co-search loop (paper Alg. 1), with an optional
//! fault-tolerance layer: resumable checkpoints, divergence sentinels with
//! rollback, and deterministic fault injection (all off by default — see
//! [`crate::FaultConfig`]).

use crate::checkpoint::{
    apply_tensors, config_fingerprint, named_tensors, CheckpointError, SearchCheckpoint,
};
use crate::config::{CoSearchConfig, DeriveEngine, SearchScheme};
use crate::fault::{FaultDriver, FaultyIo};
use crate::result::CoSearchResult;
use crate::robustness::{RobustnessEventKind, RobustnessLog};
use crate::supervision::Supervisor;
use a3cs_accel::{BeamConfig, BeamSearch, DasEngine, PerfModel};
use a3cs_check::{check_search_setup, check_supernet, max_arch_depth, Report};
use a3cs_drl::{
    a2c_losses, clip_grad_norm, encode_base_frame, encode_delta_frame, evaluate, sum64,
    ActorCritic, Adam, ChainLink, CheckpointStore, DistillConfig, DistillMode, EnvFactory,
    EvalProtocol, LrSchedule, Optimizer, RmsProp, RolloutRunner, StdIo,
};
use a3cs_envs::wrappers::{ClipReward, EpisodeLimit};
use a3cs_envs::Environment;
use a3cs_nas::SuperNet;
use a3cs_nn::Param;
use a3cs_tensor::{Tape, Tensor};
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Why [`CoSearch::run_guarded`] stopped before the search completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// A scheduled [`crate::Fault::Abort`] fired: the loop simulated a
    /// process crash at an iteration boundary. The checkpoint store (if
    /// configured) holds whatever was last written; a fresh `CoSearch` on
    /// the same config/seed resumes from it bit-identically.
    Aborted {
        /// Co-search iteration at which the simulated crash fired.
        iteration: u64,
    },
    /// A supervised phase kept panicking past its retry budget: the
    /// supervisor gave up on in-process containment and surfaced the
    /// failure as a value instead of a panic. `log` carries the full
    /// attempt history.
    RunAbort {
        /// Name of the supervised phase that exhausted its retries.
        phase: String,
        /// Co-search iteration at which the phase kept failing.
        iteration: u64,
        /// Attempts made (initial execution plus retries).
        attempts: u32,
        /// Complete robustness log up to the abort, including one
        /// `phase-failed` event per attempt.
        log: RobustnessLog,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Aborted { iteration } => {
                write!(f, "search aborted by injected crash at iteration {iteration}")
            }
            SearchError::RunAbort {
                phase,
                iteration,
                attempts,
                ..
            } => write!(
                f,
                "supervised phase {phase} failed {attempts} time(s) at iteration {iteration} \
                 and exhausted its retry budget"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Best-effort description of a panic payload for the robustness log.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Everything `run_guarded` mutates per iteration, gathered so the
/// checkpoint capture/apply paths see one coherent bundle.
struct RunState {
    train_runner: RolloutRunner,
    val_runner: Option<RolloutRunner>,
    weight_opt: RmsProp,
    alpha_opt: Adam,
    steps: u64,
    next_eval: u64,
    score_curve: Vec<(u64, f32)>,
    alpha_entropy_curve: Vec<(u64, f32)>,
    iteration: u64,
    /// Multiplier on both learning rates; decays by `lr_backoff` per
    /// rollback (1.0 until a rollback happens).
    lr_scale: f32,
    rollbacks_left: u32,
    log: RobustnessLog,
}

/// First parameter containing a non-finite value, if any.
fn first_non_finite(params: &[Param], what: &str) -> Option<String> {
    params.iter().find_map(|p| {
        if p.value_ref().data().iter().any(|x| !x.is_finite()) {
            Some(format!("{what} parameter {:?} is non-finite", p.name()))
        } else {
            None
        }
    })
}

/// Layer-wise hardware cost of every candidate operator of every supernet
/// cell on `accel` (Eq. 8's `L_cost^{α_i^l}`): the cycle count of the
/// operator's compute layers on the cheapest chunk. Skip operators with
/// no compute layers cost zero.
#[must_use]
pub fn per_op_costs(
    supernet: &SuperNet,
    accel: &a3cs_accel::AcceleratorConfig,
    target: &a3cs_accel::FpgaTarget,
) -> Vec<Vec<f64>> {
    let bw_share = target.dram_bytes_per_cycle() / accel.chunks.len().max(1) as f64;
    supernet
        .candidate_layer_descs()
        .iter()
        .map(|per_op| {
            per_op
                .iter()
                .map(|descs| {
                    if descs.is_empty() {
                        return 0.0;
                    }
                    accel
                        .chunks
                        .iter()
                        .map(|chunk| {
                            descs
                                .iter()
                                .map(|d| {
                                    let dims = a3cs_accel::LayerDims::from_desc(d);
                                    PerfModel::layer_cycles(chunk, &dims, bw_share).0
                                })
                                .sum::<f64>()
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        })
        .collect()
}

/// Static pre-flight verification of a co-search configuration: symbolic
/// shape inference over every operator the supernet can derive, plus
/// legality of the accelerator search setup (knob lists, chunk count,
/// assignment coverage of the deepest derivable network).
///
/// Runs in O(config) — no tensors are allocated and no search step is
/// taken — so it is cheap enough to gate every [`CoSearch`] construction.
#[must_use]
pub fn preflight(config: &CoSearchConfig) -> Report {
    let mut report = check_supernet(&config.supernet);
    report.merge(check_search_setup(
        &config.das.space,
        config.das.num_chunks,
        config.das.max_layers,
        max_arch_depth(&config.supernet),
    ));
    report
}

/// The co-search driver: owns the supernet agent, the DAS engine and the
/// two optimisers (RMSProp for `θ`, Adam for `α` — paper Section V-A).
pub struct CoSearch {
    config: CoSearchConfig,
    /// [`config_fingerprint`] of `config`, stamped into every checkpoint.
    fingerprint: String,
    seed: u64,
    supernet: Rc<SuperNet>,
    agent: ActorCritic,
    das: DasEngine,
}

impl CoSearch {
    /// Construct a fresh co-search with its own supernet and `φ`
    /// distribution, after the [`preflight`] gate passes.
    ///
    /// # Errors
    ///
    /// Returns the full diagnostic [`Report`] when the configuration fails
    /// any static check, so callers can print every problem at once
    /// instead of fixing them one panic at a time.
    pub fn try_new(config: CoSearchConfig, seed: u64) -> Result<Self, Report> {
        let report = preflight(&config);
        if !report.is_clean() {
            return Err(report);
        }
        Ok(Self::build(config, seed))
    }

    fn build(config: CoSearchConfig, seed: u64) -> Self {
        if let Some(n) = config.threads {
            // First caller wins: the pool is process-global, and results
            // are bit-identical for every thread count anyway.
            let _ = threadpool::configure_global(n);
        }
        let supernet = Rc::new(SuperNet::new(config.supernet, seed));
        let (p, h, w) = (
            config.supernet.in_planes,
            config.supernet.height,
            config.supernet.width,
        );
        let agent = ActorCritic::new(
            Box::new(Rc::clone(&supernet)),
            config.supernet.feat_dim,
            (p, h, w),
            config.n_actions,
            seed.wrapping_add(1),
        );
        let das = DasEngine::new(config.das.clone(), seed.wrapping_add(2));
        CoSearch {
            fingerprint: config_fingerprint(&config),
            config,
            seed,
            supernet,
            agent,
            das,
        }
    }

    /// The supernet under search.
    #[must_use]
    pub fn supernet(&self) -> &SuperNet {
        &self.supernet
    }

    /// The supernet-backed agent.
    #[must_use]
    pub fn agent(&self) -> &ActorCritic {
        &self.agent
    }

    /// The accelerator search engine (φ distribution).
    #[must_use]
    pub fn das(&self) -> &DasEngine {
        &self.das
    }

    /// Apply Eq. 8: add `λ ·` (normalised layer-wise hardware cost of the
    /// activated operator on the current accelerator `φ*`) to that
    /// operator's `α` gradient, for every cell.
    fn apply_cost_gradient(&self, sampled: &[usize]) {
        let accel = self.das.best(self.supernet.most_likely_layer_descs().len());
        let costs = per_op_costs(&self.supernet, &accel, &self.config.target);
        for (cell_idx, cell_costs) in costs.iter().enumerate() {
            let max_cost = cell_costs.iter().copied().fold(0.0, f64::max).max(1e-9);
            let activated = sampled[cell_idx];
            let rel = (cell_costs[activated] / max_cost) as f32;
            let num_ops = cell_costs.len();
            let mut grad = Tensor::zeros(&[num_ops]);
            grad.data_mut()[activated] = self.config.lambda * rel;
            self.supernet.arch().cell(cell_idx).accumulate_grad(&grad);
        }
    }

    /// Fresh (iteration-zero) loop state for this search.
    fn fresh_run_state(&self, train_factory: &EnvFactory<'_>) -> RunState {
        let cfg = &self.config;
        RunState {
            train_runner: RolloutRunner::new(train_factory, cfg.n_envs, self.seed),
            // Bi-level mode draws its α updates from held-out rollouts.
            val_runner: match cfg.scheme {
                SearchScheme::BiLevel => Some(RolloutRunner::new(
                    train_factory,
                    cfg.n_envs,
                    self.seed ^ 0x55aa_55aa,
                )),
                _ => None,
            },
            weight_opt: RmsProp::new(cfg.weight_lr),
            alpha_opt: Adam::new(cfg.alpha_lr),
            steps: 0,
            next_eval: cfg.eval_every.min(cfg.total_steps),
            score_curve: Vec::new(),
            alpha_entropy_curve: Vec::new(),
            iteration: 0,
            lr_scale: 1.0,
            rollbacks_left: cfg.fault.max_rollbacks,
            log: RobustnessLog::new(),
        }
    }

    /// Encode the complete loop state at an iteration boundary as one
    /// checkpoint payload. Tensors, optimiser buffers and the fingerprint
    /// are read in place, so the payload is the only copy; `capacity`
    /// pre-sizes its buffer.
    fn capture_checkpoint(&self, st: &RunState, capacity: usize) -> Vec<u8> {
        let (params, state) = (self.agent.params(), self.agent.state());
        let param_values: Vec<_> = params.iter().map(Param::value_ref).collect();
        let state_values: Vec<_> = state.iter().map(Param::value_ref).collect();
        let ck = SearchCheckpoint {
            fingerprint: Cow::Borrowed(&self.fingerprint),
            seed: self.seed,
            steps: st.steps,
            iteration: st.iteration,
            next_eval: st.next_eval,
            score_curve: st.score_curve.clone(),
            entropy_curve: st.alpha_entropy_curve.clone(),
            weight_params: named_tensors(&params, &param_values),
            state_tensors: named_tensors(&state, &state_values),
            supernet: self.supernet.export_search_state(),
            weight_opt: st.weight_opt.export_state(),
            alpha_opt: st.alpha_opt.export_state(),
            das: self.das.export_state(),
            train_runner: st.train_runner.export_state(),
            val_runner: st.val_runner.as_ref().map(RolloutRunner::export_state),
            lr_scale: st.lr_scale,
            rollbacks_left: st.rollbacks_left,
            events: st.log.events.clone(),
        };
        crate::binfmt::encode(&ck, capacity)
    }

    /// Restore the loop to a captured iteration boundary, moving the
    /// checkpoint's tensors into the model. On `Err` the search/run state
    /// may be partially overwritten — callers either rebuild from scratch
    /// (resume path) or know the checkpoint cannot mismatch (in-memory
    /// restore path).
    fn apply_checkpoint(
        &mut self,
        ck: SearchCheckpoint<'_>,
        st: &mut RunState,
    ) -> Result<(), CheckpointError> {
        if ck.fingerprint != self.fingerprint {
            return Err(CheckpointError::Fingerprint {
                expected: self.fingerprint.clone(),
                found: ck.fingerprint.into_owned(),
            });
        }
        if ck.seed != self.seed {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint seed {} vs this run's {}",
                ck.seed, self.seed
            )));
        }
        if ck.val_runner.is_some() != st.val_runner.is_some() {
            return Err(CheckpointError::Incompatible(
                "checkpoint and run disagree on the validation runner".to_string(),
            ));
        }
        apply_tensors(ck.weight_params, &self.agent.params(), "agent params")?;
        apply_tensors(ck.state_tensors, &self.agent.state(), "agent state")?;
        self.supernet
            .import_search_state(&ck.supernet)
            .map_err(|e| CheckpointError::Incompatible(format!("supernet state: {e:?}")))?;
        st.weight_opt
            .import_state(&ck.weight_opt)
            .map_err(|e| CheckpointError::Incompatible(format!("weight optimiser: {e}")))?;
        st.alpha_opt
            .import_state(&ck.alpha_opt)
            .map_err(|e| CheckpointError::Incompatible(format!("alpha optimiser: {e}")))?;
        self.das
            .import_state(&ck.das)
            .map_err(|e| CheckpointError::Incompatible(format!("DAS state: {e}")))?;
        st.train_runner
            .import_state(&ck.train_runner)
            .map_err(|e| CheckpointError::Incompatible(format!("train runner: {e}")))?;
        if let (Some(runner), Some(state)) = (st.val_runner.as_mut(), ck.val_runner.as_ref()) {
            runner
                .import_state(state)
                .map_err(|e| CheckpointError::Incompatible(format!("validation runner: {e}")))?;
        }
        st.steps = ck.steps;
        st.iteration = ck.iteration;
        st.next_eval = ck.next_eval;
        st.score_curve = ck.score_curve;
        st.alpha_entropy_curve = ck.entropy_curve;
        st.lr_scale = ck.lr_scale;
        st.rollbacks_left = ck.rollbacks_left;
        st.log = RobustnessLog { events: ck.events };
        Ok(())
    }

    /// Run `f` as one supervised phase (see `DESIGN.md` §12).
    ///
    /// Without a supervisor this is a plain call. With one, the phase runs
    /// under the supervisor's isolation-mode pool, with any worker panic or
    /// stall the plan schedules for it armed and the stall watchdog
    /// running. The watchdog counts overruns beside the robustness log
    /// ([`GuardedRun::phase_stalls`]): they are wall-clock observations,
    /// and the log is part of the result and of every checkpoint. A panic
    /// anywhere inside the phase comes back as a [`PhaseFailure`]:
    /// [`GuardedRun::step`] then restores the iteration-entry snapshot and
    /// replays the iteration.
    fn supervised<T>(
        &mut self,
        st: &mut RunState,
        driver: &mut FaultDriver,
        sup: &mut Option<Supervisor>,
        phase: &'static str,
        f: impl FnOnce(&mut Self, &mut RunState, &mut FaultDriver) -> T,
    ) -> Result<T, PhaseFailure> {
        let Some(sup) = sup.as_mut() else {
            return Ok(f(self, st, driver));
        };
        if driver.worker_panic_now(phase, st.iteration) {
            st.log.push(
                st.iteration,
                RobustnessEventKind::FaultInjected,
                format!("worker panic armed during {phase}"),
            );
            sup.pool.arm_worker_panic();
        }
        let stall_ms = driver.stall_now(phase, st.iteration);
        sup.watchdog.arm(phase, st.iteration, sup.deadline(phase));
        // a3cs::allow(wall-clock): feeds only the watchdog's EWMA
        // deadline (observe-only); never touches loop state or results.
        let started = Instant::now();
        if let Some(millis) = stall_ms {
            st.log.push(
                st.iteration,
                RobustnessEventKind::FaultInjected,
                format!("{phase} stalled for {millis} ms"),
            );
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        let pool = Arc::clone(&sup.pool);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            threadpool::with_pool(pool, || f(&mut *self, st, driver))
        }));
        sup.watchdog.disarm();
        sup.timings.record(phase, started.elapsed());
        sup.absorb_pool_health(&mut st.log, st.iteration);
        outcome.map_err(|payload| PhaseFailure {
            phase,
            message: panic_message(payload.as_ref()),
        })
    }

    /// Run the full co-search (Alg. 1) against environments from
    /// `factory`, optionally distilling from `teacher`.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan schedules an [`crate::Fault::Abort`] or an
    /// in-process fault (worker panic, env panic, stall) — injected faults
    /// can end a run early, which only [`CoSearch::run_guarded`] can
    /// express in its return type.
    pub fn run(
        &mut self,
        factory: &EnvFactory<'_>,
        teacher: Option<&ActorCritic>,
    ) -> CoSearchResult {
        assert!(
            !self.config.fault.plan.has_abort(),
            "the fault plan schedules an abort: call run_guarded, which \
             surfaces it as SearchError::Aborted"
        );
        assert!(
            !self.config.fault.plan.has_supervised_fault(),
            "the fault plan schedules in-process faults: call run_guarded, \
             which surfaces retry exhaustion as SearchError::RunAbort"
        );
        match self.run_guarded(factory, teacher) {
            Ok(result) => result,
            Err(err) => {
                unreachable!("run_guarded only fails on scheduled faults, ruled out above: {err}")
            }
        }
    }

    /// [`CoSearch::run`] with the full fault-tolerance layer surfaced:
    /// auto-resume from the newest valid checkpoint in
    /// `config.fault.checkpoint_dir`, periodic atomic checkpoint writes,
    /// divergence sentinels with bounded rollback, deterministic fault
    /// injection, and (when `config.fault.supervision` is set or the plan
    /// schedules an in-process fault) supervised execution: iteration
    /// replays from the entry snapshot, lane quarantine with deterministic
    /// chunk re-execution, stall watchdogs and the degradation ladder.
    /// Every robustness action taken is recorded in
    /// [`CoSearchResult::robustness`].
    ///
    /// With the default [`crate::FaultConfig`] this is exactly `run`.
    ///
    /// # Errors
    ///
    /// [`SearchError::Aborted`] when a scheduled [`crate::Fault::Abort`]
    /// fires, and [`SearchError::RunAbort`] when a supervised phase
    /// exhausts its retry budget (real I/O or divergence problems degrade
    /// gracefully and are logged instead).
    pub fn run_guarded(
        &mut self,
        factory: &EnvFactory<'_>,
        teacher: Option<&ActorCritic>,
    ) -> Result<CoSearchResult, SearchError> {
        self.run_guarded_observed(factory, teacher, |_| {})
    }

    /// [`CoSearch::run_guarded`] with a read-only progress hook: `observe`
    /// is called with the open [`GuardedRun`] right after `start_run` and
    /// after every completed step, mirroring the fleet's tick-boundary
    /// observer for solo runs (an `a3cs-obs` publisher hooks in here). The
    /// observer receives `&GuardedRun` — it can read counters and the
    /// robustness log but cannot steer the run, so the observed trajectory
    /// is bit-identical to `run_guarded` with no observer.
    ///
    /// # Errors
    ///
    /// Same contract as [`CoSearch::run_guarded`].
    pub fn run_guarded_observed(
        &mut self,
        factory: &EnvFactory<'_>,
        teacher: Option<&ActorCritic>,
        mut observe: impl FnMut(&GuardedRun),
    ) -> Result<CoSearchResult, SearchError> {
        let mut run = self.start_run(factory);
        observe(&run);
        loop {
            let outcome = run.step(self, factory, teacher)?;
            observe(&run);
            if outcome == StepOutcome::Finished {
                return Ok(run.finish(self));
            }
        }
    }

    /// Begin a guarded run without driving it to completion: the prologue
    /// of [`CoSearch::run_guarded`] — fresh loop state, checkpoint store,
    /// auto-resume from the newest valid on-disk checkpoint (rebuilding the
    /// search from scratch when a recovered checkpoint is rejected), fault
    /// driver and supervisor — reified as a [`GuardedRun`] stepper.
    ///
    /// The fleet orchestrator uses this to interleave many sessions
    /// cooperatively on one thread, one [`GuardedRun::step`] per scheduler
    /// tick; `run_guarded` is exactly `start_run` + `step` to completion +
    /// [`GuardedRun::finish`], so a stepped run is bit-identical to a
    /// driven one.
    pub fn start_run(&mut self, factory: &EnvFactory<'_>) -> GuardedRun {
        let cfg = self.config.clone();
        let distill = match cfg.scheme {
            SearchScheme::DirectNas => DistillConfig {
                mode: DistillMode::None,
                ..cfg.distill
            },
            _ => cfg.distill,
        };

        let cap = cfg.episode_cap;
        let train_factory = move |seed: u64| -> Box<dyn Environment> {
            Box::new(EpisodeLimit::new(ClipReward::new(factory(seed)), cap))
        };
        let mut st = self.fresh_run_state(&train_factory);
        let store = cfg
            .fault
            .checkpoint_dir
            .as_ref()
            .map(|dir| CheckpointStore::new(dir.clone(), cfg.fault.keep));
        let driver = FaultDriver::new(cfg.fault.plan.clone());
        let checkpoint_every = cfg.fault.checkpoint_every.max(1);
        let mut restore_count: u64 = 0;
        let mut quarantined: u64 = 0;

        // --- auto-resume from the newest valid on-disk checkpoint. One walk
        // over the store replays every chain (base + deltas, verified end to
        // end), returns the newest verified tip, and quarantines whatever
        // failed so the next resume starts from a clean store.
        if let Some(store) = &store {
            let recovery = store.recover_and_scrub(&mut StdIo);
            for diagnostic in &recovery.skipped {
                st.log.push(
                    0,
                    RobustnessEventKind::CorruptCheckpointSkipped,
                    diagnostic.clone(),
                );
            }
            for diagnostic in &recovery.fallbacks {
                st.log.push(
                    0,
                    RobustnessEventKind::DeltaChainFallback,
                    diagnostic.clone(),
                );
            }
            quarantined = recovery.quarantined.len() as u64;
            telemetry::CHECKPOINT_SCRUB_RUNS.add(1);
            telemetry::CHECKPOINT_SCRUB_QUARANTINED.add(quarantined);
            for entry in &recovery.quarantined {
                st.log.push(0, RobustnessEventKind::CheckpointQuarantined, entry.clone());
            }
            if let Some((iter, payload)) = recovery.checkpoint {
                let outcome = SearchCheckpoint::decode(&payload).and_then(|ck| {
                    let prior_events = std::mem::take(&mut st.log.events);
                    let applied = self.apply_checkpoint(ck, &mut st);
                    // apply overwrites the log with the checkpoint's events
                    // on success (and leaves it alone on failure): keep the
                    // skip diagnostics either way.
                    st.log.events.extend(prior_events);
                    applied
                });
                match outcome {
                    Ok(()) => {
                        telemetry::CHECKPOINT_RESTORES.add(1);
                        restore_count += 1;
                        st.log.push(
                            st.iteration,
                            RobustnessEventKind::Resumed,
                            format!(
                                "from checkpoint at iteration {iter} ({} env steps)",
                                st.steps
                            ),
                        );
                    }
                    Err(e) => {
                        // The failed apply may have left partial state:
                        // rebuild the search and the run state from scratch.
                        st.log.push(
                            0,
                            RobustnessEventKind::ResumeRejected,
                            format!("checkpoint at iteration {iter}: {e}"),
                        );
                        let log = std::mem::take(&mut st.log);
                        *self = Self::build(self.config.clone(), self.seed);
                        st = self.fresh_run_state(&train_factory);
                        st.log = log;
                    }
                }
            }
        }

        // --- supervision: contain in-process faults instead of dying.
        // Auto-enabled when the plan schedules one, so injected faults are
        // never accidentally fatal.
        let sup: Option<Supervisor> = (cfg.fault.supervision
            || cfg.fault.plan.has_supervised_fault())
        .then(|| {
            let lanes = cfg.threads.unwrap_or_else(|| threadpool::current().threads());
            Supervisor::new(&cfg.fault, lanes)
        });

        let weight_params = self.agent.params();
        let alpha_params = self.supernet.arch().params();
        let schedule = LrSchedule {
            initial_lr: cfg.weight_lr,
            final_lr: cfg.weight_lr * 0.1,
            constant_steps: cfg.total_steps / 3,
            total_steps: cfg.total_steps,
        };

        // Rollouts sample operator paths per Eq. 6 (Alg. 1); evaluations
        // temporarily switch back to the argmax network.
        self.supernet.set_eval_sampling(true);
        GuardedRun {
            cfg,
            distill,
            st,
            store,
            driver,
            checkpoint_every,
            sup,
            weight_params,
            alpha_params,
            schedule,
            bytes_written: 0,
            restore_count,
            chain: None,
            payload_len: 0,
            delta_frames: 0,
            quarantined,
            logical_bytes: 0,
        }
    }
}

/// Outcome of one [`GuardedRun::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One co-search iteration (or a divergence rollback) ran; the step
    /// budget is not yet spent.
    Ran,
    /// The step budget is spent: call [`GuardedRun::finish`] to derive the
    /// final architecture/accelerator pair.
    Finished,
}

/// An in-flight guarded co-search: the fault-tolerance machinery of
/// [`CoSearch::run_guarded`] — auto-resume, periodic checkpoints,
/// divergence rollback, fault injection, supervised phases — reified as a
/// stepper, so a caller can interleave many searches cooperatively (the
/// fleet orchestrator drives one `step` per scheduler tick and polls
/// progress between ticks).
///
/// Holds no borrow of its [`CoSearch`]: the search, environment factory
/// and teacher are passed into every call, and must be the ones
/// [`CoSearch::start_run`] saw (same config, same seed, same factory) or
/// the trajectory diverges from the solo run's.
pub struct GuardedRun {
    cfg: CoSearchConfig,
    distill: DistillConfig,
    st: RunState,
    store: Option<CheckpointStore>,
    driver: FaultDriver,
    checkpoint_every: u64,
    sup: Option<Supervisor>,
    weight_params: Vec<Param>,
    alpha_params: Vec<Param>,
    schedule: LrSchedule,
    bytes_written: u64,
    restore_count: u64,
    /// Open delta chain: the last payload persisted this run, which the
    /// next delta frame diffs against. `None` forces a fresh base frame at
    /// the next checkpoint boundary.
    chain: Option<ChainState>,
    /// Length of the last captured payload, which sizes the next one's
    /// buffer.
    payload_len: usize,
    delta_frames: u64,
    quarantined: u64,
    /// Uncompressed payload bytes this run produced (the numerator of the
    /// `checkpoint.compression_ratio` gauge; `bytes_written` is the
    /// denominator).
    logical_bytes: u64,
}

/// The writer's view of an open delta chain (DESIGN.md §17): enough to
/// encode the next delta frame without hashing its parent again.
struct ChainState {
    /// The chain's tip: the last payload persisted, shared with the entry
    /// snapshot of the iteration that persisted it.
    parent: Rc<Vec<u8>>,
    parent_iteration: u64,
    /// The link the next delta frame records; its parent sum is the sum
    /// of `parent`, carried from when `parent` was written.
    next: ChainLink,
}

/// A supervised phase that panicked; the iteration replays from its entry.
struct PhaseFailure {
    phase: &'static str,
    message: String,
}

impl GuardedRun {
    /// Run one co-search iteration, or conclude that the budget is spent.
    ///
    /// The iteration starts by encoding at most one [`SearchCheckpoint`]
    /// payload — only when the store persists this boundary, or the
    /// sentinel or supervision is on. That payload is the persisted
    /// checkpoint, the divergence-rollback target and the retry point: a
    /// supervised phase that panics restores it by decoding it and replays
    /// the whole iteration, which is bit-identical because execution is
    /// deterministic and injected faults fire once.
    ///
    /// A divergence rollback counts as a step: state rewinds to the
    /// iteration entry and [`StepOutcome::Ran`] is returned without the
    /// iteration counter advancing — exactly the `continue` of the driven
    /// loop.
    ///
    /// # Errors
    ///
    /// Same contract as [`CoSearch::run_guarded`]:
    /// [`SearchError::Aborted`] when a scheduled crash fires,
    /// [`SearchError::RunAbort`] when a supervised phase exhausts its
    /// retries. After an error the run should be dropped; the checkpoint
    /// store (if any) holds the last persisted state for a restart.
    pub fn step(
        &mut self,
        search: &mut CoSearch,
        factory: &EnvFactory<'_>,
        teacher: Option<&ActorCritic>,
    ) -> Result<StepOutcome, SearchError> {
        if self.st.steps >= self.cfg.total_steps {
            return Ok(StepOutcome::Finished);
        }
        let teacher = match self.distill.mode {
            DistillMode::None => None,
            _ => teacher,
        };

        // --- simulated crash (only ever fires from the fault plan).
        if self.driver.abort_now(self.st.iteration) {
            self.st.log.push(
                self.st.iteration,
                RobustnessEventKind::FaultInjected,
                "abort (simulated crash)",
            );
            search.supernet.set_eval_sampling(false);
            return Err(SearchError::Aborted {
                iteration: self.st.iteration,
            });
        }

        // Phase spans are observe-only: they time the iteration but
        // never influence it (see DESIGN.md §11).
        let _iteration_span = telemetry::span!("iteration", self.st.iteration);

        // --- iteration entry: the one snapshot, encoded only when it will
        // be persisted, rolled back to, or retried from.
        let persist =
            self.store.is_some() && self.st.iteration.is_multiple_of(self.checkpoint_every);
        let entry = if persist || self.cfg.fault.sentinel || self.sup.is_some() {
            let _span = telemetry::span!("checkpoint_io");
            // Room for the tail (curves, event log) to grow a little.
            let capacity = self.payload_len + self.payload_len / 64;
            let payload = Rc::new(search.capture_checkpoint(&self.st, capacity));
            self.payload_len = payload.len();
            if persist {
                self.persist(&payload);
            }
            Some(payload)
        } else {
            None
        };
        let entry = entry.as_deref().map(Vec::as_slice);

        let mut attempt: u32 = 0;
        loop {
            // Records a replay produces carry its attempt number; the first
            // execution stays untagged so fault-free traces are unchanged.
            let retry = (attempt > 0).then_some(attempt);
            let outcome =
                telemetry::with_retry(retry, || self.iterate(search, factory, teacher, entry));
            let failure = match outcome {
                Ok(outcome) => return Ok(outcome),
                Err(failure) => failure,
            };
            let (Some(entry), Some(sup)) = (entry, self.sup.as_ref()) else {
                unreachable!("only a supervised phase fails, and supervision captures the entry")
            };
            let max_retries = sup.max_retries;
            let (phase, failed_at) = (failure.phase, self.st.iteration);
            attempt += 1;
            self.st.log.push(
                failed_at,
                RobustnessEventKind::PhaseFailed,
                format!("{phase} attempt {attempt} panicked: {}", failure.message),
            );
            self.restore(search, entry);
            if attempt > max_retries {
                self.st.log.push(
                    failed_at,
                    RobustnessEventKind::RetriesExhausted,
                    format!("{phase} panicked {attempt} time(s), retry budget {max_retries}"),
                );
                return Err(SearchError::RunAbort {
                    phase: phase.to_string(),
                    iteration: failed_at,
                    attempts: attempt,
                    log: self.st.log.clone(),
                });
            }
            self.st.log.push(
                failed_at,
                RobustnessEventKind::PhaseRetried,
                format!(
                    "{phase} failed; replaying iteration {} from its entry (attempt {} of {})",
                    self.st.iteration,
                    attempt + 1,
                    max_retries + 1
                ),
            );
        }
    }

    /// One pass over the iteration body (Alg. 1): the φ update, the
    /// rollout, the (θ, α) update behind the divergence sentinel, and the
    /// periodic evaluation. A supervised phase that panics ends the pass
    /// with its [`PhaseFailure`].
    fn iterate(
        &mut self,
        search: &mut CoSearch,
        factory: &EnvFactory<'_>,
        teacher: Option<&ActorCritic>,
        entry: Option<&[u8]>,
    ) -> Result<StepOutcome, PhaseFailure> {
        search.supernet.set_step(self.st.steps);

        // --- φ update (Eq. 5/9) on the current most-likely network.
        search.supervised(
            &mut self.st,
            &mut self.driver,
            &mut self.sup,
            "das_sweep",
            |s, _st, _driver| {
                let _span = telemetry::span!("das_sweep");
                let proxy_layers = s.supernet.most_likely_layer_descs();
                for _ in 0..s.config.das_steps_per_iter {
                    let _ = s.das.step(&proxy_layers, &s.config.target);
                }
            },
        )?;

        // --- rollout + L_task.
        let use_val =
            matches!(self.cfg.scheme, SearchScheme::BiLevel) && !self.st.iteration.is_multiple_of(2);
        let (update_weights, update_alpha) = match self.cfg.scheme {
            SearchScheme::BiLevel => (!use_val, use_val),
            _ => (true, true),
        };
        let rollout = search.supervised(
            &mut self.st,
            &mut self.driver,
            &mut self.sup,
            "rollout",
            |s, st, driver| {
                if let Some(lane) = driver.env_panic_now(st.iteration) {
                    st.log.push(
                        st.iteration,
                        RobustnessEventKind::FaultInjected,
                        format!("environment lane {lane} poisoned to panic"),
                    );
                    let armed = if use_val {
                        st.val_runner.as_ref()
                    } else {
                        Some(&st.train_runner)
                    };
                    if let Some(runner) = armed {
                        runner.arm_panic(lane);
                    }
                }
                let runner = if use_val {
                    match st.val_runner.as_mut() {
                        Some(runner) => runner,
                        None => unreachable!("bilevel scheme constructs a validation runner"),
                    }
                } else {
                    &mut st.train_runner
                };
                let rollout = runner.collect(&s.agent, s.config.rollout_len);
                st.steps += rollout.transitions() as u64;
                rollout
            },
        )?;

        // --- the update: loss + backward + both optimizers.
        let cfg = &self.cfg;
        let distill = &self.distill;
        let weight_params = &self.weight_params;
        let alpha_params = &self.alpha_params;
        let schedule = &self.schedule;
        let tripped = search.supervised(
            &mut self.st,
            &mut self.driver,
            &mut self.sup,
            "update",
            |s, st, driver| {
                let loss_span = telemetry::span!("loss_backward");
                let tape = Tape::new();
                s.agent.zero_grad();
                s.supernet.arch().zero_grad();
                let (mut loss, _stats) =
                    a2c_losses(&tape, &s.agent, &rollout, &cfg.a2c, distill, teacher);
                if driver.nan_loss_now(st.iteration) {
                    st.log.push(
                        st.iteration,
                        RobustnessEventKind::FaultInjected,
                        "loss poisoned with NaN",
                    );
                    loss = loss.scale(f32::NAN);
                }

                // --- divergence sentinel: a non-finite loss is caught
                // before it can touch the parameters; a non-finite
                // parameter right after the updates that produced it.
                let mut tripped: Option<String> = None;
                if cfg.fault.sentinel {
                    let value = loss.value().item();
                    if !value.is_finite() {
                        st.log.push(
                            st.iteration,
                            RobustnessEventKind::NonFiniteLoss,
                            format!("loss = {value}"),
                        );
                        tripped = Some(format!("non-finite loss {value}"));
                    }
                }
                if tripped.is_none() {
                    loss.backward();
                }
                drop(loss_span);
                if tripped.is_none() {
                    let _span = telemetry::span!("optimizer_step");
                    if update_alpha {
                        // --- λ·L_cost gradient on the activated ops (Eq. 8).
                        let sampled = s.supernet.last_sampled_indices();
                        s.apply_cost_gradient(&sampled);
                        st.alpha_opt.set_lr(cfg.alpha_lr * st.lr_scale);
                        st.alpha_opt.step(alpha_params);
                    }
                    if update_weights {
                        let _ = clip_grad_norm(weight_params, cfg.max_grad_norm);
                        st.weight_opt.set_lr(schedule.at(st.steps) * st.lr_scale);
                        st.weight_opt.step(weight_params);
                    }
                    if cfg.fault.sentinel {
                        let bad = first_non_finite(weight_params, "agent")
                            .or_else(|| first_non_finite(alpha_params, "alpha"));
                        if let Some(bad) = bad {
                            st.log.push(
                                st.iteration,
                                RobustnessEventKind::NonFiniteParam,
                                bad.clone(),
                            );
                            tripped = Some(bad);
                        }
                    }
                }
                tripped
            },
        )?;
        if let Some(reason) = tripped {
            match entry {
                Some(good) if self.st.rollbacks_left > 0 => {
                    let tripped_at = self.st.iteration;
                    self.st.lr_scale *= self.cfg.fault.lr_backoff;
                    self.st.rollbacks_left -= 1;
                    self.restore(search, good);
                    // The replayed iteration re-checkpoints a boundary the
                    // open chain already covers: roll a fresh base instead
                    // of writing a conflicting delta.
                    self.chain = None;
                    telemetry::ROLLBACK_COUNT.add(1);
                    telemetry::CHECKPOINT_RESTORES.add(1);
                    self.restore_count += 1;
                    self.st.log.push(
                        tripped_at,
                        RobustnessEventKind::RolledBack,
                        format!(
                            "to iteration {} after {reason} ({} rollbacks left)",
                            self.st.iteration, self.st.rollbacks_left
                        ),
                    );
                    return Ok(StepOutcome::Ran);
                }
                Some(_) => self.st.log.push(
                    self.st.iteration,
                    RobustnessEventKind::RollbackBudgetExhausted,
                    format!("update skipped after {reason}"),
                ),
                None => self.st.log.push(
                    self.st.iteration,
                    RobustnessEventKind::NoCheckpointToRollBackTo,
                    format!("update skipped after {reason}"),
                ),
            }
        }
        self.st.iteration += 1;

        // --- periodic evaluation of the argmax network (Fig. 2 data).
        if self.st.steps >= self.st.next_eval {
            search.supervised(
                &mut self.st,
                &mut self.driver,
                &mut self.sup,
                "eval",
                |s, st, _driver| {
                    let protocol = EvalProtocol {
                        episodes: s.config.eval_episodes,
                        noop_max: 8,
                        max_steps: s.config.eval_max_steps,
                        seed: s.seed ^ st.steps,
                        greedy: false,
                    };
                    s.supernet.set_eval_sampling(false);
                    let score = evaluate(&s.agent, factory, &protocol);
                    s.supernet.set_eval_sampling(true);
                    st.score_curve.push((st.steps, score));
                    st.alpha_entropy_curve
                        .push((st.steps, s.supernet.arch().mean_entropy()));
                    st.next_eval += s.config.eval_every;
                },
            )?;
        }

        Ok(if self.st.steps >= self.cfg.total_steps {
            StepOutcome::Finished
        } else {
            StepOutcome::Ran
        })
    }

    /// Rewind the loop to `entry`, this iteration's encoded entry snapshot,
    /// by decoding it: the one restore path for phase retries and
    /// divergence rollbacks alike. The event log is monotone and survives
    /// the restore. So do the lr scale and the rollback budget: a rollback
    /// updates them just before it restores, and a phase retry finds them
    /// unchanged since entry.
    fn restore(&mut self, search: &mut CoSearch, entry: &[u8]) {
        let events = std::mem::take(&mut self.st.log.events);
        let (lr_scale, rollbacks_left) = (self.st.lr_scale, self.st.rollbacks_left);
        let restored = SearchCheckpoint::decode(entry)
            .and_then(|ck| search.apply_checkpoint(ck, &mut self.st));
        if let Err(e) = restored {
            unreachable!("a snapshot encoded by this run always decodes and applies: {e}");
        }
        self.st.log.events = events;
        self.st.lr_scale = lr_scale;
        self.st.rollbacks_left = rollbacks_left;
        // A failed eval phase may have left path sampling switched off.
        search.supernet.set_eval_sampling(true);
    }

    /// Persist `payload` as this iteration's checkpoint: a delta frame
    /// against the open chain's tip, or a base frame that opens a new chain
    /// when none is open or the open one reached `max_chain_len`. The
    /// payload is hashed once, for the frame's target sum or the new
    /// chain's id, and that sum is carried as the next delta's parent sum.
    /// A failed write is logged and closes the chain; it never fails the
    /// run.
    fn persist(&mut self, payload: &Rc<Vec<u8>>) {
        let Some(store) = &self.store else {
            return;
        };
        let iteration = self.st.iteration;
        let logical = payload.len() as u64;
        telemetry::CHECKPOINT_BYTES.add(logical);
        telemetry::CHECKPOINT_BYTES_HIST.record(logical);
        // Any injected I/O fault armed for this iteration fails the write
        // *inside* the durable path, exercising exactly the code a real
        // disk error would.
        let armed = self.driver.io_fault_now(iteration);
        if let Some(mode) = armed {
            self.st
                .log
                .push(iteration, RobustnessEventKind::FaultInjected, mode.describe());
        }
        let mut io = FaultyIo::new(armed);
        let max_chain_len = self.cfg.fault.durability.max_chain_len;
        let sum = sum64(payload);
        let chain = self.chain.take();
        let written = match chain
            .as_ref()
            .filter(|c| (c.next.position as usize) <= max_chain_len)
        {
            Some(chain) => {
                let frame = encode_delta_frame(
                    &chain.parent,
                    payload,
                    sum,
                    chain.next,
                    chain.parent_iteration,
                );
                store
                    .write_delta_frame(&mut io, iteration, &frame)
                    .map(|written| (written, Some(chain.next)))
            }
            None => {
                if chain.is_some() {
                    // Inline base roll at max_chain_len: bounds the replay
                    // cost. Routine, so it bumps the compaction counter
                    // without a robustness event.
                    telemetry::CHECKPOINT_COMPACTIONS.add(1);
                }
                store
                    .write_base_frame(&mut io, iteration, &encode_base_frame(payload))
                    .map(|written| (written, None))
            }
        };
        // The old tip is no longer needed: a failed write closes the chain,
        // and a successful one makes this payload the tip.
        drop(chain);
        match written {
            Ok(((path, on_disk), link)) => {
                telemetry::CHECKPOINT_BYTES_WRITTEN.add(on_disk);
                self.bytes_written += on_disk;
                self.logical_bytes += logical;
                telemetry::CHECKPOINT_COMPRESSION_RATIO
                    .set(self.logical_bytes as f64 / self.bytes_written as f64);
                let next = match link {
                    Some(link) => {
                        telemetry::CHECKPOINT_DELTA_FRAMES.add(1);
                        telemetry::CHECKPOINT_DELTA_BYTES.add(on_disk);
                        self.delta_frames += 1;
                        link.next(sum)
                    }
                    None => ChainLink::first(sum),
                };
                self.chain = (max_chain_len > 0).then(|| ChainState {
                    parent: Rc::clone(payload),
                    parent_iteration: iteration,
                    next,
                });
                for applied in self.driver.corrupt_checkpoint_now(iteration, &path) {
                    self.st
                        .log
                        .push(iteration, RobustnessEventKind::FaultInjected, applied);
                }
            }
            Err(e) => {
                // A failed write leaves the on-disk chain state unknown:
                // force a fresh base at the next boundary instead of
                // chaining off a parent that may never have landed.
                self.st.log.push(
                    iteration,
                    RobustnessEventKind::CheckpointWriteFailed,
                    e.to_string(),
                );
            }
        }
    }

    /// Derive the final architecture/accelerator pair and assemble the
    /// [`CoSearchResult`]. Call once [`GuardedRun::step`] returns
    /// [`StepOutcome::Finished`]; finishing earlier derives from whatever
    /// state the search has reached.
    #[must_use]
    pub fn finish(self, search: &mut CoSearch) -> CoSearchResult {
        let cfg = &self.cfg;
        // --- derive the final pair: argmax α network + refined DAS φ.
        let (arch, accelerator, report) = {
            let _span = telemetry::span!("derive");
            search.supernet.set_eval_sampling(false);
            let arch = search.supernet.most_likely_arch();
            let final_layers = search.supernet.most_likely_layer_descs();
            let accelerator = match cfg.derive_engine {
                DeriveEngine::Das => {
                    search
                        .das
                        .run(&final_layers, &cfg.target, cfg.das_final_iters)
                }
                DeriveEngine::DasThenBeam {
                    width,
                    generations,
                    mutations,
                } => {
                    let _ = search
                        .das
                        .run(&final_layers, &cfg.target, cfg.das_final_iters);
                    // Seed the beam with the DAS argmax vector: the seed
                    // stays in the beam, so refinement can only match or
                    // improve the DAS design's cost.
                    let seed_choices = search.das.best_choices(final_layers.len());
                    let mut beam = BeamSearch::new(
                        BeamConfig {
                            space: cfg.das.space.clone(),
                            num_chunks: cfg.das.num_chunks,
                            width,
                            mutations_per_parent: mutations,
                            cost: cfg.das.cost,
                            memo_log2: cfg.das.memo_log2,
                        },
                        search.seed.wrapping_add(3),
                    );
                    let (refined, _) =
                        beam.run_from(&[seed_choices], &final_layers, &cfg.target, generations);
                    refined
                }
            };
            let report = PerfModel::evaluate(&accelerator, &final_layers, &cfg.target);
            (arch, accelerator, report)
        };

        // Surface the aggregated telemetry (a read-only snapshot; the
        // caller's session still owns the raw trace). Inside a fleet the
        // snapshot is scoped to this session's records; solo runs are
        // unscoped, so the filter is the identity there.
        let telemetry_summary = if telemetry::enabled() {
            telemetry::snapshot()
                .for_session(telemetry::current_session())
                .summary()
        } else {
            telemetry::TelemetrySummary::default()
        };

        CoSearchResult {
            arch,
            accelerator,
            report,
            score_curve: self.st.score_curve,
            alpha_entropy_curve: self.st.alpha_entropy_curve,
            steps: self.st.steps,
            robustness: self.st.log,
            telemetry: telemetry_summary,
        }
    }

    /// Env steps consumed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.st.steps
    }

    /// Total env-step budget for this run.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.cfg.total_steps
    }

    /// Outer-loop iteration index (does not advance on a rollback).
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.st.iteration
    }

    /// The robustness log accumulated so far.
    #[must_use]
    pub fn robustness(&self) -> &RobustnessLog {
        &self.st.log
    }

    /// Checkpoint bytes successfully persisted by this run (also counted
    /// in the `checkpoint.bytes_written` telemetry metric).
    #[must_use]
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Checkpoint restores this run performed: auto-resume at start plus
    /// divergence rollbacks (the `checkpoint.restore_count` metric).
    #[must_use]
    pub fn checkpoint_restores(&self) -> u64 {
        self.restore_count
    }

    /// Delta frames this run persisted (the `checkpoint.delta_frames`
    /// metric). Zero when [`crate::DurabilityConfig::max_chain_len`] is 0.
    #[must_use]
    pub fn checkpoint_delta_frames(&self) -> u64 {
        self.delta_frames
    }

    /// Broken checkpoint frames the resume-time scrub quarantined (the
    /// `checkpoint.scrub_quarantined` metric).
    #[must_use]
    pub fn checkpoint_quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Supervised phases that overran the stall watchdog's soft deadline.
    /// A wall-clock observation, so it is counted here, beside the
    /// robustness log, and never enters the log, a checkpoint or the
    /// result. Zero without supervision.
    #[must_use]
    pub fn phase_stalls(&self) -> u64 {
        self.sup.as_ref().map_or(0, |sup| sup.watchdog.stalls())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoSearchConfig;
    use a3cs_envs::Breakout;

    fn factory(seed: u64) -> Box<dyn Environment> {
        Box::new(Breakout::new(seed))
    }

    fn tiny_config(total_steps: u64) -> CoSearchConfig {
        let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
        cfg.total_steps = total_steps;
        cfg.eval_every = total_steps;
        cfg.eval_episodes = 2;
        cfg.eval_max_steps = 40;
        cfg.das_final_iters = 50;
        cfg
    }

    fn search(cfg: CoSearchConfig, seed: u64) -> CoSearch {
        CoSearch::try_new(cfg, seed).expect("stock test config passes preflight")
    }

    #[test]
    fn cosearch_produces_consistent_result() {
        let mut search = search(tiny_config(300), 1);
        let result = search.run(&factory, None);
        assert_eq!(result.arch.len(), 6);
        assert!(result.report.fps > 0.0);
        assert_eq!(
            result.accelerator.assignment.len(),
            search.supernet().most_likely_layer_descs().len()
        );
        assert!(!result.score_curve.is_empty());
        assert!(result.steps >= 300);
    }

    #[test]
    fn beam_refined_derivation_never_loses_to_das_alone() {
        // Same config and seed, so both runs reach the derive phase with
        // identical DAS state; the beam is seeded with the DAS argmax and
        // keeps it in the beam, so its design can only match or improve.
        use a3cs_accel::CostWeights;
        let seed = 4;
        let mut das_only = search(tiny_config(200), seed);
        let das_result = das_only.run(&factory, None);
        let mut cfg = tiny_config(200);
        cfg.derive_engine = DeriveEngine::DasThenBeam {
            width: 6,
            generations: 4,
            mutations: 4,
        };
        let mut refined = search(cfg.clone(), seed);
        let refined_result = refined.run(&factory, None);
        assert_eq!(das_result.arch, refined_result.arch, "α derivation unchanged");
        let layers = refined.supernet().most_likely_layer_descs();
        assert_eq!(refined_result.accelerator.assignment.len(), layers.len());
        assert!(refined_result.accelerator.assignment_contiguous());
        let weights = CostWeights::default();
        let cost_of = |r: &CoSearchResult| PerfModel::cost(&r.report, &cfg.target, &weights);
        assert!(
            cost_of(&refined_result) <= cost_of(&das_result) + 1e-9,
            "beam refinement must not regress: {} vs {}",
            cost_of(&refined_result),
            cost_of(&das_result)
        );
    }

    #[test]
    fn cost_pressure_moves_alpha_away_from_uniform() {
        let mut cfg = tiny_config(600);
        cfg.lambda = 2.0; // strong cost pressure
        let mut search = search(cfg, 2);
        let h0 = search.supernet().arch().mean_entropy();
        let _ = search.run(&factory, None);
        let h1 = search.supernet().arch().mean_entropy();
        assert!(h1 < h0, "α should sharpen under cost pressure: {h0} -> {h1}");
    }

    #[test]
    fn bilevel_mode_runs() {
        let mut cfg = tiny_config(300);
        cfg.scheme = SearchScheme::BiLevel;
        let result = search(cfg, 3).run(&factory, None);
        assert_eq!(result.arch.len(), 6);
    }

    #[test]
    fn direct_nas_ignores_teacher() {
        let mut cfg = tiny_config(200);
        cfg.scheme = SearchScheme::DirectNas;
        // Teacher has incompatible shape on purpose: it must never be used.
        let mut search = search(cfg, 4);
        let result = search.run(&factory, None);
        assert_eq!(result.arch.len(), 6);
    }

    #[test]
    fn cosearch_sharpens_the_phi_distribution() {
        let mut cfg = tiny_config(500);
        cfg.das_steps_per_iter = 3;
        let mut search = search(cfg, 13);
        let h0 = search.das().mean_entropy();
        let _ = search.run(&factory, None);
        assert!(
            search.das().mean_entropy() < h0,
            "φ entropy should fall as DAS commits"
        );
    }

    #[test]
    fn per_op_costs_rank_operators_sensibly() {
        use a3cs_accel::{DasConfig, DasEngine, FpgaTarget};
        use a3cs_nas::{SuperNet, SupernetConfig, ALL_OPS};

        let sn = SuperNet::new(SupernetConfig::tiny(3, 12, 12), 9);
        let das = DasEngine::new(DasConfig::default(), 9);
        let accel = das.best(sn.most_likely_layer_descs().len());
        let costs = per_op_costs(&sn, &accel, &FpgaTarget::zc706());
        assert_eq!(costs.len(), sn.num_cells());
        let skip_idx = ALL_OPS.len() - 1;
        for cell in &costs {
            assert_eq!(cell.len(), ALL_OPS.len());
            // Every op costs something except possibly identity skips.
            assert!(cell.iter().all(|&c| c >= 0.0 && c.is_finite()));
            // conv5x5 (idx 1) is never cheaper than conv3x3 (idx 0).
            assert!(cell[1] >= cell[0]);
            // ir_k3_e5 (idx 4) is never cheaper than ir_k3_e1 (idx 2).
            assert!(cell[4] >= cell[2]);
            // skip is the cheapest option in the cell.
            let min = cell.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(cell[skip_idx], min);
        }
        // Identity skips (stride-1, equal channels) are exactly free.
        assert_eq!(costs[1][skip_idx], 0.0);
    }

    #[test]
    fn preflight_accepts_the_stock_configs() {
        assert!(preflight(&tiny_config(300)).is_clean());
        assert!(preflight(&CoSearchConfig::paper(4, 84, 84, 6)).is_clean());
    }

    #[test]
    fn preflight_rejects_a_broken_cell_count() {
        let mut cfg = tiny_config(300);
        cfg.supernet.num_cells = 5; // not a multiple of 3
        let report = preflight(&cfg);
        assert!(!report.is_clean());
        assert!(report.has_code(a3cs_check::codes::ARCH_BAD_STRUCTURE));
        assert!(CoSearch::try_new(cfg, 0).is_err());
    }

    #[test]
    fn preflight_rejects_insufficient_assignment_coverage() {
        let mut cfg = tiny_config(300);
        cfg.das.max_layers = 3; // far fewer than the deepest derivable net
        let report = preflight(&cfg);
        assert!(report.has_code(a3cs_check::codes::ACCEL_DEPTH_EXCEEDS_KNOBS));
        assert!(CoSearch::try_new(cfg, 0).is_err());
    }

    #[test]
    fn try_new_reports_every_preflight_problem() {
        let mut cfg = tiny_config(300);
        cfg.das.num_chunks = 0;
        let report = match CoSearch::try_new(cfg, 0) {
            Ok(_) => unreachable!("broken config must be rejected"),
            Err(report) => report,
        };
        assert!(!report.is_clean());
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn non_finite_non_sampled_branch_trips_the_sentinel() {
        use a3cs_nas::ALL_OPS;
        use a3cs_nn::Module;
        let mut cfg = tiny_config(300);
        cfg.supernet.top_k = 9;
        cfg.fault.sentinel = true;
        let seed = 6;
        // Cell 0's sample in the first update. Poisoned weights change
        // values only, never the Gumbel draws, so it holds for both runs.
        let sampled = {
            let mut clean = search(cfg.clone(), seed);
            let mut run = clean.start_run(&factory);
            run.step(&mut clean, &factory, None)
                .expect("a clean step runs");
            clean.supernet().last_sampled_indices()[0]
        };
        // An inverted residual (ALL_OPS[2..8]): no ReLU after its
        // projection, so the ∞ makes the operator's output non-finite.
        let poisoned = (2..8).find(|&oi| oi != sampled).expect("six candidates");
        let project = format!("supernet.c0.{}.project.weight", ALL_OPS[poisoned]);

        let mut poisoned_search = search(cfg, seed);
        let mut run = poisoned_search.start_run(&factory);
        poisoned_search
            .supernet()
            .params()
            .into_iter()
            .find(|p| p.name() == project)
            .expect("the inverted residual has a projection")
            .update(|w| w.data_mut()[0] = f32::INFINITY);
        run.step(&mut poisoned_search, &factory, None)
            .expect("a tripped sentinel rolls back");
        assert_ne!(
            poisoned_search.supernet().last_sampled_indices()[0],
            poisoned
        );
        let events = &run.robustness().events;
        // The NaN reaches the loss, so the sentinel trips before the update
        // and the iteration rolls back.
        let first: Vec<_> = events
            .iter()
            .take(2)
            .map(|e| (e.iteration, e.kind))
            .collect();
        assert_eq!(
            first,
            [
                (0, RobustnessEventKind::NonFiniteLoss),
                (0, RobustnessEventKind::RolledBack)
            ],
            "{events:?}"
        );
    }

    #[test]
    fn derived_accelerator_is_dsp_feasible() {
        let mut search = search(tiny_config(300), 5);
        let result = search.run(&factory, None);
        assert!(
            result.report.dsp_used <= 900 * 2,
            "resource penalty should keep DSPs near budget: {}",
            result.report.dsp_used
        );
    }
}
