//! The actor–critic agent: shared backbone, policy head, value head.

use a3cs_nn::{Linear, Module, Param};
use a3cs_tensor::{Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// An actor–critic agent (paper Section III): a feature-extractor backbone
/// shared by a softmax policy head (the actor, `θ_π`) and a scalar value
/// head (the critic, `θ_v`).
///
/// The policy head is initialised near zero so the initial policy is close
/// to uniform, which the entropy term then maintains early in training.
pub struct ActorCritic {
    backbone: Box<dyn Module>,
    policy_head: Linear,
    value_head: Linear,
    obs_shape: (usize, usize, usize),
    n_actions: usize,
}

impl ActorCritic {
    /// Assemble an agent around `backbone` (which must map observations to
    /// `feat_dim` features).
    ///
    /// # Panics
    ///
    /// Panics if `n_actions == 0` or `feat_dim == 0`.
    #[must_use]
    pub fn new(
        backbone: Box<dyn Module>,
        feat_dim: usize,
        obs_shape: (usize, usize, usize),
        n_actions: usize,
        seed: u64,
    ) -> Self {
        assert!(n_actions > 0, "agent needs at least one action");
        let policy_head =
            Linear::new("policy_head", feat_dim, n_actions, seed).with_init_scale(0.01);
        let value_head =
            Linear::new("value_head", feat_dim, 1, seed.wrapping_add(1)).with_init_scale(0.1);
        ActorCritic {
            backbone,
            policy_head,
            value_head,
            obs_shape,
            n_actions,
        }
    }

    /// The observation shape `(planes, height, width)` this agent consumes.
    #[must_use]
    pub fn obs_shape(&self) -> (usize, usize, usize) {
        self.obs_shape
    }

    /// Number of discrete actions.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The underlying backbone module.
    #[must_use]
    pub fn backbone(&self) -> &dyn Module {
        self.backbone.as_ref()
    }

    /// Forward a batch of observations, returning `(logits [N, A],
    /// values [N])`.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is not `[N, planes, height, width]` for this agent's
    /// observation shape.
    #[must_use]
    pub fn forward(&self, tape: &Tape, obs: &Var, train: bool) -> (Var, Var) {
        let s = obs.shape();
        let (p, h, w) = self.obs_shape;
        assert_eq!(
            &s[1..],
            &[p, h, w],
            "observation batch shape mismatch: got {s:?}"
        );
        let features = self.backbone.forward(tape, obs, train);
        let logits = self.policy_head.forward(tape, &features, train);
        let values = self.value_head.forward(tape, &features, train);
        let n = s[0];
        (logits, values.reshape(&[n]))
    }

    /// Policy probabilities for a batch of raw observations, from a
    /// forward that records no backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `obs_batch` length is not a multiple of the observation
    /// length.
    #[must_use]
    pub fn policy_probs(&self, obs_batch: &[f32], n: usize) -> Tensor {
        let tape = Tape::no_grad();
        let obs = self.obs_tensor(obs_batch, n);
        let (logits, _) = self.forward(&tape, &tape.constant(obs), false);
        logits.softmax_rows().value().as_ref().clone()
    }

    /// Sample one action per observation from the current policy.
    #[must_use]
    pub fn act(&self, obs_batch: &[f32], n: usize, rng: &mut StdRng) -> Vec<usize> {
        let probs = self.policy_probs(obs_batch, n);
        (0..n)
            .map(|r| {
                let row = &probs.data()[r * self.n_actions..(r + 1) * self.n_actions];
                sample_index(row, rng)
            })
            .collect()
    }

    /// Greedy (argmax) actions for a batch of observations.
    #[must_use]
    pub fn act_greedy(&self, obs_batch: &[f32], n: usize) -> Vec<usize> {
        self.policy_probs(obs_batch, n).argmax_rows()
    }

    /// Build an observation batch tensor `[n, planes, h, w]` from raw data.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not equal `n * planes * h * w`.
    #[must_use]
    pub fn obs_tensor(&self, obs_batch: &[f32], n: usize) -> Tensor {
        let (p, h, w) = self.obs_shape;
        assert_eq!(
            obs_batch.len(),
            n * p * h * w,
            "observation batch length {} does not match [{n}, {p}, {h}, {w}]",
            obs_batch.len()
        );
        match Tensor::from_vec(obs_batch.to_vec(), &[n, p, h, w]) {
            Ok(t) => t,
            Err(e) => unreachable!("length asserted above: {e:?}"),
        }
    }

    /// All learnable parameters (backbone + both heads).
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        let mut p = self.backbone.params();
        p.extend(self.policy_head.params());
        p.extend(self.value_head.params());
        p
    }

    /// Non-learnable state tensors (e.g. batch-norm running statistics)
    /// that checkpoints must capture alongside [`ActorCritic::params`] for
    /// evaluation forwards to resume bit-exactly.
    #[must_use]
    pub fn state(&self) -> Vec<Param> {
        let mut s = self.backbone.state();
        s.extend(self.policy_head.state());
        s.extend(self.value_head.state());
        s
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Copy every parameter value from `source` (shapes must match; used
    /// to snapshot teacher agents).
    ///
    /// # Panics
    ///
    /// Panics if the parameter lists differ in length or shapes.
    pub fn copy_params_from(&self, source: &ActorCritic) {
        let mine = self.params();
        let theirs = source.params();
        assert_eq!(
            mine.len(),
            theirs.len(),
            "agents have different parameter lists"
        );
        for (m, t) in mine.iter().zip(theirs.iter()) {
            m.set_value(t.value());
        }
    }
}

/// Sample an index proportional to `weights` (assumed non-negative, not
/// all zero; falls back to argmax on degenerate rows).
pub(crate) fn sample_index(weights: &[f32], rng: &mut StdRng) -> usize {
    let total: f32 = weights.iter().sum();
    // NaN is not finite, so this also rejects a NaN total.
    if !total.is_finite() || total <= 0.0 {
        // Degenerate distribution: be deterministic (first maximum) rather
        // than panic.
        let mut best = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w > weights[best] {
                best = i;
            }
        }
        return best;
    }
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_nn::vanilla;
    use rand::SeedableRng;

    fn tiny_agent(seed: u64) -> ActorCritic {
        let backbone = vanilla(3, 12, 12, 16, seed);
        ActorCritic::new(Box::new(backbone), 16, (3, 12, 12), 4, seed)
    }

    #[test]
    fn forward_shapes() {
        let agent = tiny_agent(1);
        let tape = Tape::new();
        let obs = tape.leaf(Tensor::randn(&[5, 3, 12, 12], 0.3, 2));
        let (logits, values) = agent.forward(&tape, &obs, true);
        assert_eq!(logits.shape(), vec![5, 4]);
        assert_eq!(values.shape(), vec![5]);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let agent = tiny_agent(2);
        let obs = vec![0.5; 3 * 12 * 12];
        let probs = agent.policy_probs(&obs, 1);
        for &p in probs.data() {
            assert!((p - 0.25).abs() < 0.1, "initial policy too peaked: {p}");
        }
    }

    #[test]
    fn act_samples_all_actions_over_time() {
        let agent = tiny_agent(3);
        let obs = vec![0.1; 3 * 12 * 12];
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let a = agent.act(&obs, 1, &mut rng)[0];
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s), "near-uniform policy must explore");
    }

    #[test]
    fn copy_params_transfers_behaviour() {
        let a = tiny_agent(4);
        let b = tiny_agent(5);
        let obs = vec![0.3; 3 * 12 * 12];
        assert_ne!(a.policy_probs(&obs, 1), b.policy_probs(&obs, 1));
        b.copy_params_from(&a);
        assert_eq!(a.policy_probs(&obs, 1), b.policy_probs(&obs, 1));
    }

    #[test]
    fn sample_index_degenerate_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_index(&[0.0, 0.0, 0.0], &mut rng), 0);
        assert_eq!(sample_index(&[0.0, 1.0, 0.0], &mut rng), 1);
    }

    #[test]
    fn sample_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            counts[sample_index(&[0.9, 0.1], &mut rng)] += 1;
        }
        assert!(counts[0] > 700, "heavy side undersampled: {counts:?}");
    }
}
