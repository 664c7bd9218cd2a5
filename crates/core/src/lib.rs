//! A3C-S: the joint agent/accelerator co-search pipeline (paper Alg. 1).
//!
//! This crate ties the substrates together:
//!
//! - a DRL agent whose backbone is the [`a3cs_nas::SuperNet`] (single-path
//!   forward, multi-path backward — Eq. 6–7);
//! - the [`a3cs_accel::DasEngine`] updating the accelerator parameters `φ`
//!   every iteration (Eq. 5/9);
//! - the A2C + AC-distillation task loss `L_task` (Eq. 12) from
//!   [`a3cs_drl`];
//! - the hardware-cost penalty `λ·L_cost` on the activated operators
//!   (Eq. 8);
//! - one-level optimisation of `(θ, α)` (with bi-level and
//!   no-distillation ablation modes for Fig. 2).
//!
//! The end product of [`CoSearch::run`] is a [`CoSearchResult`]: the
//! derived architecture, its matched accelerator, the search-time score
//! curve and the predicted hardware performance.
//!
//! # Example
//!
//! ```
//! use a3cs_core::{CoSearch, CoSearchConfig};
//! use a3cs_envs::{Breakout, Environment};
//!
//! let mut config = CoSearchConfig::tiny(3, 12, 12, 3);
//! config.total_steps = 200;
//! let mut search = CoSearch::try_new(config, 1).expect("tiny config passes pre-flight");
//! let factory = |seed: u64| -> Box<dyn Environment> { Box::new(Breakout::new(seed)) };
//! let result = search.run(&factory, None);
//! assert_eq!(result.arch.len(), 6);
//! assert!(result.report.fps > 0.0);
//! ```

#![deny(missing_docs)]

mod binfmt;
mod checkpoint;
mod config;
mod fault;
mod pipeline;
mod result;
mod robustness;
mod supervision;

pub use checkpoint::{config_fingerprint, CheckpointError, SearchCheckpoint, SEARCH_CHECKPOINT_VERSION};
pub use config::{CoSearchConfig, DeriveEngine, SearchScheme};
pub use fault::{DurabilityConfig, Fault, FaultConfig, FaultPlan};
pub use pipeline::{per_op_costs, preflight, CoSearch, GuardedRun, SearchError, StepOutcome};
pub use result::CoSearchResult;
pub use robustness::{RobustnessEvent, RobustnessEventKind, RobustnessLog};
pub use supervision::DegradationLadder;
