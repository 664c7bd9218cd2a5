//! Actor–critic deep reinforcement learning with AC-distillation.
//!
//! This crate implements the DRL substrate of the A3C-S reproduction
//! (paper Sections III and IV-B):
//!
//! - [`ActorCritic`]: a shared backbone with policy and value heads;
//! - [`a2c_losses`]: the synchronous advantage actor–critic objective with
//!   td-error advantages (Eq. 2–3), entropy regularisation (Eq. 15), and
//!   the paper's **AC-distillation** terms (Eq. 10–12);
//! - [`RmsProp`] / [`Adam`] optimisers and the paper's constant-then-linear
//!   learning-rate schedule ([`LrSchedule`]);
//! - [`collect_rollout`]: n-environment, L-step rollout collection
//!   (Alg. 1's inner loop);
//! - [`evaluate`]: the 30-episode null-op-start evaluation protocol;
//! - [`Trainer`]: the end-to-end training loop producing score curves.
//!
//! # Example
//!
//! ```
//! use a3cs_drl::{ActorCritic, Trainer, TrainerConfig};
//! use a3cs_envs::Breakout;
//! use a3cs_nn::vanilla;
//!
//! let backbone = vanilla(3, 12, 12, 32, 0);
//! let agent = ActorCritic::new(Box::new(backbone), 32, (3, 12, 12), 3, 1);
//! let config = TrainerConfig {
//!     total_steps: 200,
//!     eval_every: 200,
//!     eval_episodes: 2,
//!     ..TrainerConfig::default()
//! };
//! let mut trainer = Trainer::new(config, 5);
//! let curve = trainer.train(&agent, &|seed| Box::new(Breakout::new(seed)), None);
//! assert!(!curve.points.is_empty());
//! ```

#![deny(missing_docs)]

mod a2c;
mod agent;
mod checkpoint;
mod distill;
mod eval;
mod frame;
mod optim;
mod rollout;
mod trainer;

pub use a2c::{a2c_losses, A2cConfig, LossStats};
pub use agent::ActorCritic;
pub use checkpoint::{
    seal_envelope_bytes, sum64, unseal_envelope_bytes, write_atomic_bytes, write_atomic_bytes_with,
    Checkpoint, CheckpointStore, EnvelopeError, LoadCheckpointError, Recovery, SaveCheckpointError,
};
pub use distill::{DistillConfig, DistillMode};
pub use eval::{evaluate, EvalProtocol};
pub use frame::{
    apply_delta_frame, decode_base_frame, encode_base_frame, encode_delta_frame, ChainLink,
    CheckpointIo, FrameError, StdIo,
};
pub use optim::{
    clip_grad_norm, Adam, LrSchedule, OptimStateError, Optimizer, OptimizerState, RmsProp,
};
pub use rollout::{
    batch_to_tensor, collect_rollout, EnvFactory, Rollout, RolloutRunner, RunnerState,
    RunnerStateError,
};
pub use trainer::{Trainer, TrainerConfig, TrainingCurve};
