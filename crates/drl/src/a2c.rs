//! The A2C training objective with optional AC-distillation: the paper's
//! `L_task` (Eq. 12) built from Eq. 2–3, 10, 11 and 15.

use crate::agent::ActorCritic;
use crate::distill::DistillConfig;
use crate::rollout::{batch_to_tensor, Rollout};
use a3cs_tensor::{Tape, Tensor, Var};

/// A2C objective hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct A2cConfig {
    /// Discount factor `γ` (paper: 0.99).
    pub gamma: f32,
    /// Weight of the value loss (`L_value` enters Eq. 12 with weight 1;
    /// the ½ of Eq. 3 is inside the loss).
    pub value_coef: f32,
    /// Entropy weight `β1` (paper: 1e-2).
    pub entropy_beta: f32,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            gamma: 0.99,
            value_coef: 1.0,
            entropy_beta: 1e-2,
        }
    }
}

/// Scalar diagnostics of one loss evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossStats {
    /// Policy-gradient loss (Eq. 2 with td-error advantages).
    pub policy: f32,
    /// Value (td-error) loss (Eq. 3).
    pub value: f32,
    /// Entropy loss `Σ π log π` (Eq. 15; more negative = more exploration).
    pub entropy: f32,
    /// Actor KL distillation loss (Eq. 10), zero when disabled.
    pub actor_distill: f32,
    /// Critic MSE distillation loss (Eq. 11), zero when disabled.
    pub critic_distill: f32,
    /// The combined `L_task` (Eq. 12).
    pub total: f32,
    /// Mean absolute td-error (advantage magnitude diagnostic).
    pub mean_abs_advantage: f32,
}

/// Build the `L_task` loss graph (Eq. 12) for `rollout` on `tape`.
///
/// Returns the scalar loss [`Var`] (backpropagate it to populate parameter
/// gradients) and the numeric [`LossStats`].
///
/// When `teacher` is provided and `distill.mode` enables them, the actor KL
/// (Eq. 10) and critic MSE (Eq. 11) terms are added with weights `β2`/`β3`.
///
/// # Panics
///
/// Panics if the rollout is empty or its observation length does not match
/// the agent.
pub fn a2c_losses(
    tape: &Tape,
    agent: &ActorCritic,
    rollout: &Rollout,
    config: &A2cConfig,
    distill: &DistillConfig,
    teacher: Option<&ActorCritic>,
) -> (Var, LossStats) {
    let n = rollout.n_envs;
    let len = rollout.len;
    let transitions = rollout.transitions();
    assert!(transitions > 0, "rollout has no transitions");
    let obs_shape = agent.obs_shape();
    let obs_len = rollout.obs_len;
    assert_eq!(
        obs_len,
        obs_shape.0 * obs_shape.1 * obs_shape.2,
        "rollout observations do not match the agent's input shape"
    );

    // Decision-time observations and bootstrap observations.
    let dec_data = &rollout.observations[..transitions * obs_len];
    let boot_data = &rollout.observations[transitions * obs_len..];
    let obs_dec = tape.leaf(batch_to_tensor(dec_data, transitions, obs_shape));

    // Bootstrap forward first so that stateful backbones (the NAS
    // supernet) leave their *training-forward* sample as the last
    // recorded path — the co-search reads it for Eq. 8's cost penalty.
    // Its values enter only as numbers, so it records no backward pass.
    let v_boot = {
        let infer = Tape::no_grad();
        let obs_boot = infer.constant(batch_to_tensor(boot_data, n, obs_shape));
        agent.forward(&infer, &obs_boot, false).1.value()
    };
    let (logits, values) = agent.forward(tape, &obs_dec, true);

    // Numeric value estimates for targets/advantages (detached).
    let v_dec = values.value();
    let mut targets = vec![0.0f32; transitions];
    let mut advantages = vec![0.0f32; transitions];
    for t in 0..len {
        for e in 0..n {
            let i = t * n + e;
            let v_next = if rollout.dones[i] {
                0.0
            } else if t + 1 < len {
                v_dec.data()[(t + 1) * n + e]
            } else {
                v_boot.data()[e]
            };
            targets[i] = rollout.rewards[i] + config.gamma * v_next;
            advantages[i] = targets[i] - v_dec.data()[i];
        }
    }
    // Both vectors were allocated as `vec![0.0; transitions]` above, so the
    // shapes match by construction.
    let targets_t = match Tensor::from_vec(targets, &[transitions]) {
        Ok(t) => t,
        Err(e) => unreachable!("targets sized by construction for [{transitions}]: {e:?}"),
    };
    let adv_t = match Tensor::from_vec(advantages.clone(), &[transitions]) {
        Ok(t) => t,
        Err(e) => unreachable!("advantages sized by construction for [{transitions}]: {e:?}"),
    };

    // Value loss: ½ (V(s) - y)².
    let value_loss = values
        .sub(&tape.constant(targets_t))
        .square()
        .mean()
        .scale(0.5);

    // Policy loss: -E[δ · log π(a|s)].
    let logp = logits.log_softmax_rows();
    let logp_a = logp.pick_rows(&rollout.actions);
    let policy_loss = logp_a.mul(&tape.constant(adv_t)).mean().neg();

    // Entropy loss (Eq. 15): E[Σ_a π log π] (negative of entropy).
    let probs = logits.softmax_rows();
    let entropy_loss = probs.mul(&logp).sum_rows().mean();

    // Distillation terms.
    let (mut actor_distill_val, mut critic_distill_val) = (0.0f32, 0.0f32);
    let mut total = policy_loss
        .add(&value_loss.scale(config.value_coef))
        .add(&entropy_loss.scale(config.entropy_beta));

    let beta2 = distill.actor_weight();
    let beta3 = distill.critic_weight();
    if let Some(teacher) = teacher {
        if beta2 > 0.0 || beta3 > 0.0 {
            // The teacher's outputs are targets: no backward pass.
            let infer = Tape::no_grad();
            let (t_logits, t_values) =
                teacher.forward(&infer, &infer.constant(obs_dec.value()), false);
            if beta2 > 0.0 {
                // KL(p_tea || p_stu) = Σ p_tea (log p_tea - log p_stu).
                let p_tea = t_logits.softmax_rows().value().as_ref().clone();
                let logp_tea = t_logits.log_softmax_rows().value().as_ref().clone();
                let tea_self = p_tea.mul(&logp_tea); // constant part
                let const_term = tea_self.sum() / transitions as f32;
                let cross = tape
                    .constant(p_tea)
                    .mul(&logp)
                    .sum_rows()
                    .mean()
                    .neg();
                let actor_distill = cross.add_scalar(const_term);
                actor_distill_val = actor_distill.value().item();
                total = total.add(&actor_distill.scale(beta2));
            }
            if beta3 > 0.0 {
                // MSE toward the teacher's value estimates.
                let v_tea = t_values.value().as_ref().clone();
                let critic_distill = values
                    .sub(&tape.constant(v_tea))
                    .square()
                    .mean()
                    .scale(0.5);
                critic_distill_val = critic_distill.value().item();
                total = total.add(&critic_distill.scale(beta3));
            }
        }
    }

    let stats = LossStats {
        policy: policy_loss.value().item(),
        value: value_loss.value().item(),
        entropy: entropy_loss.value().item(),
        actor_distill: actor_distill_val,
        critic_distill: critic_distill_val,
        total: total.value().item(),
        mean_abs_advantage: advantages.iter().map(|a| a.abs()).sum::<f32>()
            / transitions as f32,
    };
    if telemetry::enabled() {
        telemetry::LOSS_TOTAL.set(f64::from(stats.total));
        telemetry::LOSS_DISTILL_ACTOR.set(f64::from(stats.actor_distill));
        telemetry::LOSS_DISTILL_CRITIC.set(f64::from(stats.critic_distill));
    }
    (total, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::{DistillConfig, DistillMode};
    use crate::rollout::collect_rollout;
    use a3cs_envs::{Breakout, Environment};
    use a3cs_nn::vanilla;

    fn agent(seed: u64) -> ActorCritic {
        let backbone = vanilla(3, 12, 12, 16, seed);
        ActorCritic::new(Box::new(backbone), 16, (3, 12, 12), 3, seed)
    }

    fn factory(seed: u64) -> Box<dyn Environment> {
        Box::new(Breakout::new(seed))
    }

    #[test]
    fn losses_are_finite_and_entropy_is_negative() {
        let a = agent(1);
        let r = collect_rollout(&a, &factory, 2, 5, 3);
        let tape = Tape::new();
        let (loss, stats) = a2c_losses(
            &tape,
            &a,
            &r,
            &A2cConfig::default(),
            &DistillConfig::default(),
            None,
        );
        assert!(loss.value().item().is_finite());
        assert!(stats.value >= 0.0);
        // Entropy loss Σ π log π is ≤ 0; near-uniform policy ≈ -ln(3).
        assert!(stats.entropy < 0.0);
        assert!(stats.entropy > -1.2);
        assert_eq!(stats.actor_distill, 0.0);
        assert_eq!(stats.critic_distill, 0.0);
    }

    #[test]
    fn backward_populates_gradients() {
        let a = agent(2);
        let r = collect_rollout(&a, &factory, 2, 5, 4);
        let tape = Tape::new();
        let (loss, _) = a2c_losses(
            &tape,
            &a,
            &r,
            &A2cConfig::default(),
            &DistillConfig::default(),
            None,
        );
        loss.backward();
        let grads: f32 = a.params().iter().map(|p| p.grad().sq_norm()).sum();
        assert!(grads > 0.0, "no gradient reached the agent");
    }

    #[test]
    fn ac_distillation_adds_both_terms() {
        let student = agent(3);
        let teacher = agent(4);
        let r = collect_rollout(&student, &factory, 2, 5, 5);
        let tape = Tape::new();
        let (_, stats) = a2c_losses(
            &tape,
            &student,
            &r,
            &A2cConfig::default(),
            &DistillConfig::ac_distillation(),
            Some(&teacher),
        );
        assert!(
            stats.actor_distill > 0.0,
            "KL to a different teacher must be positive: {stats:?}"
        );
        assert!(stats.critic_distill >= 0.0);
    }

    #[test]
    fn policy_only_distillation_skips_critic_term() {
        let student = agent(5);
        let teacher = agent(6);
        let r = collect_rollout(&student, &factory, 2, 5, 6);
        let tape = Tape::new();
        let (_, stats) = a2c_losses(
            &tape,
            &student,
            &r,
            &A2cConfig::default(),
            &DistillConfig::policy_only(),
            Some(&teacher),
        );
        assert!(stats.actor_distill > 0.0);
        assert_eq!(stats.critic_distill, 0.0);
    }

    #[test]
    fn self_distillation_kl_is_near_zero() {
        let a = agent(7);
        let r = collect_rollout(&a, &factory, 2, 5, 7);
        let tape = Tape::new();
        let (_, stats) = a2c_losses(
            &tape,
            &a,
            &r,
            &A2cConfig::default(),
            &DistillConfig {
                mode: DistillMode::ActorCritic,
                beta2: 1e-1,
                beta3: 1e-3,
            },
            Some(&a),
        );
        assert!(
            stats.actor_distill.abs() < 1e-4,
            "KL(p||p) should vanish: {}",
            stats.actor_distill
        );
        assert!(stats.critic_distill.abs() < 1e-6);
    }

    #[test]
    fn terminal_steps_cut_bootstrap() {
        // Hand-built rollout: one env, two steps, first step terminal with
        // reward 1. Target for step 0 must be exactly 1.0 (no bootstrap).
        let a = agent(8);
        let obs_len = 3 * 12 * 12;
        let rollout = Rollout {
            n_envs: 1,
            len: 2,
            observations: vec![0.0; 3 * obs_len],
            obs_len,
            actions: vec![0, 1],
            rewards: vec![1.0, 0.0],
            dones: vec![true, false],
        };
        let tape = Tape::new();
        let (_, stats) = a2c_losses(
            &tape,
            &a,
            &rollout,
            &A2cConfig::default(),
            &DistillConfig::default(),
            None,
        );
        assert!(stats.total.is_finite());
    }
}
