//! Optimisers (RMSProp, Adam), gradient clipping and the paper's
//! learning-rate schedule.

use a3cs_nn::Param;
use a3cs_tensor::Tensor;
use std::borrow::Cow;

/// A first-order optimiser over a fixed parameter list.
pub trait Optimizer {
    /// Apply one update using each parameter's accumulated gradient, then
    /// zero the gradients.
    fn step(&mut self, params: &[Param]);

    /// Override the learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Export the optimiser's complete mutable state — moment buffers,
    /// parameter identity keys, and algorithm scalars — so a checkpoint
    /// can resume optimisation bit-exactly. The state borrows the
    /// optimiser's buffers, so a checkpoint encodes them without a copy.
    fn export_state(&self) -> OptimizerState<'_>;

    /// Restore state captured by [`Optimizer::export_state`] on the same
    /// algorithm.
    ///
    /// # Errors
    ///
    /// [`OptimStateError`] when the state was produced by a different
    /// algorithm or its buffers are internally inconsistent; nothing is
    /// modified in that case.
    fn import_state(&mut self, state: &OptimizerState<'_>) -> Result<(), OptimStateError>;
}

/// Serialisable snapshot of an optimiser's mutable state.
///
/// The layout is algorithm-agnostic: `slots` holds one buffer per
/// parameter per moment (RMSProp: one slot, the squared-gradient average;
/// Adam: two slots, `m` then `v`) and `scalars` holds algorithm counters
/// (Adam: the running `β1^t`, `β2^t` bias-correction powers).
///
/// [`Optimizer::export_state`] borrows the optimiser's names, shapes and
/// buffers; a decoded checkpoint owns them.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState<'a> {
    /// Producing algorithm (`"rmsprop"` or `"adam"`).
    pub kind: Cow<'a, str>,
    /// Learning rate at capture time.
    pub lr: f32,
    /// `(name, shape)` identity of each tracked parameter, in step order.
    pub keys: Vec<(Cow<'a, str>, Cow<'a, [usize]>)>,
    /// `slots[s][i]`: flat data of moment slot `s` for parameter `i`.
    pub slots: Vec<Vec<Cow<'a, [f32]>>>,
    /// Algorithm scalars (Adam: `[β1^t, β2^t]`; RMSProp: empty).
    pub scalars: Vec<f64>,
}

/// Why an [`OptimizerState`] could not be imported.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimStateError {
    /// The state was produced by a different algorithm.
    KindMismatch {
        /// Algorithm of the importing optimiser.
        expected: &'static str,
        /// Algorithm recorded in the state.
        found: String,
    },
    /// The state's buffers are internally inconsistent (wrong slot or
    /// scalar count, or a buffer that does not match its key's shape).
    Malformed {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for OptimStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimStateError::KindMismatch { expected, found } => {
                write!(f, "optimizer state is for {found:?}, expected {expected:?}")
            }
            OptimStateError::Malformed { detail } => {
                write!(f, "malformed optimizer state: {detail}")
            }
        }
    }
}

impl std::error::Error for OptimStateError {}

/// Validate the cross-buffer invariants shared by both algorithms and
/// rebuild `(keys, per-slot tensors)` from a state.
fn decode_state(
    state: &OptimizerState<'_>,
    expected_kind: &'static str,
    expected_slots: usize,
    expected_scalars: usize,
) -> Result<(Vec<ParamKey>, Vec<Vec<Tensor>>), OptimStateError> {
    if state.kind != expected_kind {
        return Err(OptimStateError::KindMismatch {
            expected: expected_kind,
            found: state.kind.to_string(),
        });
    }
    if state.slots.len() != expected_slots {
        return Err(OptimStateError::Malformed {
            detail: format!(
                "{} slots, {expected_kind} has {expected_slots}",
                state.slots.len()
            ),
        });
    }
    if state.scalars.len() != expected_scalars {
        return Err(OptimStateError::Malformed {
            detail: format!(
                "{} scalars, {expected_kind} has {expected_scalars}",
                state.scalars.len()
            ),
        });
    }
    let keys: Vec<ParamKey> = state
        .keys
        .iter()
        .map(|(name, shape)| ParamKey {
            name: name.to_string(),
            shape: shape.to_vec(),
        })
        .collect();
    let mut slots = Vec::with_capacity(expected_slots);
    for (si, slot) in state.slots.iter().enumerate() {
        if slot.len() != keys.len() {
            return Err(OptimStateError::Malformed {
                detail: format!(
                    "slot {si} has {} buffers for {} keys",
                    slot.len(),
                    keys.len()
                ),
            });
        }
        let mut tensors = Vec::with_capacity(slot.len());
        for (key, data) in keys.iter().zip(slot) {
            let t = Tensor::from_vec(data.to_vec(), &key.shape).map_err(|e| {
                OptimStateError::Malformed {
                    detail: format!("buffer for {:?}: {e}", key.name),
                }
            })?;
            tensors.push(t);
        }
        slots.push(tensors);
    }
    Ok((keys, slots))
}

fn encode_keys(keys: &[ParamKey]) -> Vec<(Cow<'_, str>, Cow<'_, [usize]>)> {
    keys.iter()
        .map(|k| {
            (
                Cow::Borrowed(k.name.as_str()),
                Cow::Borrowed(k.shape.as_slice()),
            )
        })
        .collect()
}

fn encode_slot(slot: &[Tensor]) -> Vec<Cow<'_, [f32]>> {
    slot.iter().map(|t| Cow::Borrowed(t.data())).collect()
}

/// Identity of the parameter an optimiser state slot was created for.
///
/// Moment buffers are only meaningful for the exact parameter they
/// accumulated over, so state is keyed to `(name, shape)` and rebuilt from
/// scratch whenever the parameter list stops matching — a same-length list
/// of different parameters must not silently reuse stale moments.
#[derive(PartialEq, Eq)]
struct ParamKey {
    name: String,
    shape: Vec<usize>,
}

impl ParamKey {
    fn of(p: &Param) -> Self {
        ParamKey {
            name: p.name().to_string(),
            shape: p.shape(),
        }
    }

    fn matches(&self, p: &Param) -> bool {
        self.name == p.name() && self.shape == p.shape()
    }
}

fn keys_match(keys: &[ParamKey], params: &[Param]) -> bool {
    keys.len() == params.len() && keys.iter().zip(params).all(|(k, p)| k.matches(p))
}

/// RMSProp as used for DRL training in the paper (following DQN/A3C
/// practice): squared-gradient moving average, no momentum.
pub struct RmsProp {
    lr: f32,
    alpha: f32,
    eps: f32,
    keys: Vec<ParamKey>,
    square_avg: Vec<Tensor>,
}

impl RmsProp {
    /// Create RMSProp with the paper's defaults (`alpha = 0.99`,
    /// `eps = 1e-5`).
    #[must_use]
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            alpha: 0.99,
            eps: 1e-5,
            keys: Vec::new(),
            square_avg: Vec::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &[Param]) {
        if !keys_match(&self.keys, params) {
            self.keys = params.iter().map(ParamKey::of).collect();
            self.square_avg = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        }
        let (lr, alpha, eps) = (self.lr, self.alpha, self.eps);
        for (p, s) in params.iter().zip(self.square_avg.iter_mut()) {
            let g = p.grad();
            let gd = g.data();
            if gd.iter().all(|&gi| gi == 0.0) {
                // A tensor the step never touched (e.g. a supernet op off
                // the sampled path) keeps its weights *and* its slot
                // bit-frozen — decaying `square_avg` at g = 0 would dirty
                // every slot word and sink delta-checkpoint sparsity for
                // zero optimisation benefit. The grad stays all-zero, so
                // skipping `zero_grad` is also a no-op.
                continue;
            }
            let sd = s.data_mut();
            // One vectorised pass per tensor: update the moving average and
            // apply the delta element-by-element in a single traversal.
            p.update(|t| {
                for ((tv, si), &gi) in t.data_mut().iter_mut().zip(sd.iter_mut()).zip(gd) {
                    let s_new = alpha * *si + (1.0 - alpha) * gi * gi;
                    *si = s_new;
                    *tv -= lr * gi / (s_new.sqrt() + eps);
                }
            });
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn export_state(&self) -> OptimizerState<'_> {
        OptimizerState {
            kind: Cow::Borrowed("rmsprop"),
            lr: self.lr,
            keys: encode_keys(&self.keys),
            slots: vec![encode_slot(&self.square_avg)],
            scalars: Vec::new(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState<'_>) -> Result<(), OptimStateError> {
        let (keys, mut slots) = decode_state(state, "rmsprop", 1, 0)?;
        self.lr = state.lr;
        self.keys = keys;
        self.square_avg = match slots.pop() {
            Some(s) => s,
            None => unreachable!("decode_state guarantees one slot"),
        };
        Ok(())
    }
}

/// Adam, used for the architecture parameters `α` (paper: fixed learning
/// rate `1e-3`, `β1 = 0.9`).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// `β1^t` and `β2^t`, maintained incrementally in `f64` so bias
    /// correction stays exact on arbitrarily long runs (the previous
    /// `powi(step_count as i32)` wrapped once `step_count` exceeded `i32`).
    beta1_pow: f64,
    beta2_pow: f64,
    keys: Vec<ParamKey>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Create Adam with `β = (0.9, 0.999)`, `eps = 1e-8`.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            beta1_pow: 1.0,
            beta2_pow: 1.0,
            keys: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Param]) {
        if !keys_match(&self.keys, params) {
            // A different parameter list is a different optimisation
            // problem: reset the moments and the bias-correction clock.
            self.keys = params.iter().map(ParamKey::of).collect();
            self.m = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
            self.v = self.m.clone();
            self.beta1_pow = 1.0;
            self.beta2_pow = 1.0;
        }
        self.beta1_pow *= f64::from(self.beta1);
        self.beta2_pow *= f64::from(self.beta2);
        let bc1 = (1.0 - self.beta1_pow) as f32;
        let bc2 = (1.0 - self.beta2_pow) as f32;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for ((p, m), v) in params.iter().zip(self.m.iter_mut()).zip(self.v.iter_mut()) {
            let g = p.grad();
            let gd = g.data();
            if gd.iter().all(|&gi| gi == 0.0) {
                // Lazy update: tensors with an all-zero grad keep weights,
                // m and v bit-frozen (instead of decaying m and nudging the
                // weights by stale momentum), so delta checkpoints stay
                // sparse. The bias-correction clock above still advances
                // once per step, identically for every tensor.
                continue;
            }
            let md = m.data_mut();
            let vd = v.data_mut();
            // One vectorised pass per tensor over (value, m, v, grad).
            p.update(|t| {
                for (((tv, mi), vi), &gi) in
                    t.data_mut().iter_mut().zip(md.iter_mut()).zip(vd.iter_mut()).zip(gd)
                {
                    let m_new = beta1 * *mi + (1.0 - beta1) * gi;
                    let v_new = beta2 * *vi + (1.0 - beta2) * gi * gi;
                    *mi = m_new;
                    *vi = v_new;
                    let mhat = m_new / bc1;
                    let vhat = v_new / bc2;
                    *tv -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn export_state(&self) -> OptimizerState<'_> {
        OptimizerState {
            kind: Cow::Borrowed("adam"),
            lr: self.lr,
            keys: encode_keys(&self.keys),
            slots: vec![encode_slot(&self.m), encode_slot(&self.v)],
            scalars: vec![self.beta1_pow, self.beta2_pow],
        }
    }

    fn import_state(&mut self, state: &OptimizerState<'_>) -> Result<(), OptimStateError> {
        let (keys, mut slots) = decode_state(state, "adam", 2, 2)?;
        self.lr = state.lr;
        self.keys = keys;
        self.v = match slots.pop() {
            Some(v) => v,
            None => unreachable!("decode_state guarantees two slots"),
        };
        self.m = match slots.pop() {
            Some(m) => m,
            None => unreachable!("decode_state guarantees two slots"),
        };
        self.beta1_pow = state.scalars[0];
        self.beta2_pow = state.scalars[1];
        Ok(())
    }
}

/// Rescale accumulated gradients so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let total: f32 = params.iter().map(|p| p.grad().sq_norm()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.set_grad(p.grad().scale(scale));
        }
    }
    norm
}

/// The paper's learning-rate schedule: constant for the first
/// `constant_steps`, then linear decay to `final_lr` at `total_steps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Initial learning rate (paper: `1e-3`).
    pub initial_lr: f32,
    /// Final learning rate (paper: `1e-4`).
    pub final_lr: f32,
    /// Steps during which the LR stays at `initial_lr` (paper: first third).
    pub constant_steps: u64,
    /// Total training steps.
    pub total_steps: u64,
}

impl LrSchedule {
    /// Learning rate at `step`.
    #[must_use]
    pub fn at(&self, step: u64) -> f32 {
        if step <= self.constant_steps || self.total_steps <= self.constant_steps {
            return self.initial_lr;
        }
        let span = (self.total_steps - self.constant_steps) as f32;
        let progress = ((step - self.constant_steps) as f32 / span).min(1.0);
        self.initial_lr + (self.final_lr - self.initial_lr) * progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_tensor::Tape;

    fn quadratic_step(opt: &mut dyn Optimizer, p: &Param) {
        // loss = (p - 3)^2, minimised at p = 3.
        let tape = Tape::new();
        let v = p.bind(&tape);
        v.add_scalar(-3.0).square().sum().backward();
        opt.step(std::slice::from_ref(p));
    }

    #[test]
    fn rmsprop_minimises_quadratic() {
        let p = Param::new("p", Tensor::scalar(0.0));
        let mut opt = RmsProp::new(0.1);
        for _ in 0..200 {
            quadratic_step(&mut opt, &p);
        }
        assert!((p.value().item() - 3.0).abs() < 0.1, "got {}", p.value().item());
    }

    #[test]
    fn adam_minimises_quadratic() {
        let p = Param::new("p", Tensor::scalar(10.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            quadratic_step(&mut opt, &p);
        }
        assert!((p.value().item() - 3.0).abs() < 0.1, "got {}", p.value().item());
    }

    #[test]
    fn optimizer_step_zeroes_gradients() {
        let p = Param::new("p", Tensor::scalar(1.0));
        let mut opt = RmsProp::new(0.01);
        quadratic_step(&mut opt, &p);
        assert_eq!(p.grad().item(), 0.0);
    }

    /// One quadratic step on `p`, returning how much the value moved.
    fn one_step_delta(opt: &mut dyn Optimizer, p: &Param) -> f32 {
        let before = p.value().item();
        quadratic_step(opt, p);
        p.value().item() - before
    }

    #[test]
    fn rmsprop_resets_state_for_different_same_length_param_list() {
        // Warm up state on parameter "a", then step a *different* parameter
        // of the same length: the step must match a fresh optimiser exactly
        // (stale moment buffers used to be silently reused).
        let mut warm = RmsProp::new(0.1);
        let a = Param::new("a", Tensor::scalar(50.0));
        for _ in 0..5 {
            quadratic_step(&mut warm, &a);
        }
        let b = Param::new("b", Tensor::scalar(0.0));
        let warm_delta = one_step_delta(&mut warm, &b);

        let mut fresh = RmsProp::new(0.1);
        let b2 = Param::new("b", Tensor::scalar(0.0));
        let fresh_delta = one_step_delta(&mut fresh, &b2);
        assert_eq!(warm_delta, fresh_delta);
    }

    #[test]
    fn adam_resets_state_for_different_same_length_param_list() {
        let mut warm = Adam::new(0.2);
        let a = Param::new("a", Tensor::scalar(50.0));
        for _ in 0..5 {
            quadratic_step(&mut warm, &a);
        }
        let b = Param::new("b", Tensor::scalar(0.0));
        let warm_delta = one_step_delta(&mut warm, &b);

        let mut fresh = Adam::new(0.2);
        let b2 = Param::new("b", Tensor::scalar(0.0));
        let fresh_delta = one_step_delta(&mut fresh, &b2);
        assert_eq!(warm_delta, fresh_delta);
    }

    #[test]
    fn optimizer_state_persists_for_matching_param_list() {
        // Same (name, shape) list across steps must keep its moments: the
        // second step of RMSProp on a constant gradient differs from the
        // first only if square_avg persisted.
        let p = Param::new("p", Tensor::scalar(0.0));
        let mut opt = RmsProp::new(0.1);
        let d1 = {
            let before = p.value().item();
            let tape = Tape::new();
            p.bind(&tape).sum().backward(); // grad = 1
            opt.step(std::slice::from_ref(&p));
            p.value().item() - before
        };
        let d2 = {
            let before = p.value().item();
            let tape = Tape::new();
            p.bind(&tape).sum().backward(); // grad = 1 again
            opt.step(std::slice::from_ref(&p));
            p.value().item() - before
        };
        assert_ne!(d1, d2, "state must persist across matching steps");
    }

    /// A copy of `state` that owns every name, shape and buffer, so the
    /// optimiser it borrows from can keep stepping.
    fn owned(state: OptimizerState<'_>) -> OptimizerState<'static> {
        OptimizerState {
            kind: Cow::Owned(state.kind.into_owned()),
            lr: state.lr,
            keys: state
                .keys
                .into_iter()
                .map(|(name, shape)| {
                    (
                        Cow::Owned(name.into_owned()),
                        Cow::Owned(shape.into_owned()),
                    )
                })
                .collect(),
            slots: state
                .slots
                .into_iter()
                .map(|slot| {
                    slot.into_iter()
                        .map(|b| Cow::Owned(b.into_owned()))
                        .collect()
                })
                .collect(),
            scalars: state.scalars,
        }
    }

    #[test]
    fn zero_grad_tensors_stay_bit_frozen() {
        // A param whose gradient is all-zero for a step must keep its value
        // *and* its optimiser slots bit-identical — this is what makes
        // delta checkpoints sparse when the supernet's off-path ops sit a
        // step out. "touched" gets real gradients both steps; "idle" only
        // on the first.
        for mk in [
            (|lr| Box::new(RmsProp::new(lr)) as Box<dyn Optimizer>) as fn(f32) -> _,
            |lr| Box::new(Adam::new(lr)) as Box<dyn Optimizer>,
        ] {
            let mut opt = mk(0.1);
            let touched = Param::new("touched", Tensor::scalar(0.0));
            let idle = Param::new("idle", Tensor::scalar(5.0));
            let params = [touched.clone(), idle.clone()];
            {
                let tape = Tape::new();
                let t = touched.bind(&tape);
                let i = idle.bind(&tape);
                t.add(&i).square().sum().backward();
                opt.step(&params);
            }
            let idle_value = idle.value().item().to_bits();
            let idle_slots = owned(opt.export_state()).slots;
            {
                let tape = Tape::new();
                touched.bind(&tape).square().sum().backward(); // idle: g = 0
                opt.step(&params);
            }
            assert_eq!(idle.value().item().to_bits(), idle_value);
            // Slot vectors are (key, tensor) aligned with `params`: every
            // word belonging to "idle" must be unchanged.
            for (before, after) in idle_slots.iter().zip(opt.export_state().slots.iter()) {
                assert_eq!(before[1], after[1], "idle slot must stay bit-frozen");
            }
        }
    }

    #[test]
    fn clip_grad_norm_bounds_large_gradients() {
        let p = Param::new("p", Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap());
        let tape = Tape::new();
        let v = p.bind(&tape);
        v.scale(100.0).sum().backward(); // grad = [100, 100]
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!(pre > 100.0);
        assert!((p.grad().sq_norm().sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let p = Param::new("p", Tensor::scalar(0.0));
        let tape = Tape::new();
        p.bind(&tape).scale(0.5).sum().backward();
        let pre = clip_grad_norm(std::slice::from_ref(&p), 10.0);
        assert!((pre - 0.5).abs() < 1e-6);
        assert!((p.grad().item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rmsprop_state_round_trip_is_bit_exact() {
        // Warm up, export, keep stepping; a fresh optimiser that imports the
        // exported state must produce the identical trajectory.
        let p = Param::new("p", Tensor::scalar(0.0));
        let mut opt = RmsProp::new(0.1);
        for _ in 0..7 {
            quadratic_step(&mut opt, &p);
        }
        let state = owned(opt.export_state());

        let p2 = Param::new("p", p.value().clone());
        let mut resumed = RmsProp::new(0.5); // wrong lr, fixed by import
        resumed.import_state(&state).unwrap();
        for _ in 0..7 {
            quadratic_step(&mut opt, &p);
            quadratic_step(&mut resumed, &p2);
        }
        assert_eq!(p.value().item().to_bits(), p2.value().item().to_bits());
    }

    #[test]
    fn adam_state_round_trip_is_bit_exact() {
        let p = Param::new("p", Tensor::scalar(10.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..7 {
            quadratic_step(&mut opt, &p);
        }
        let state = owned(opt.export_state());
        assert_eq!(
            state.scalars.len(),
            2,
            "adam exports bias-correction powers"
        );

        let p2 = Param::new("p", p.value().clone());
        let mut resumed = Adam::new(0.9);
        resumed.import_state(&state).unwrap();
        for _ in 0..7 {
            quadratic_step(&mut opt, &p);
            quadratic_step(&mut resumed, &p2);
        }
        assert_eq!(p.value().item().to_bits(), p2.value().item().to_bits());
    }

    #[test]
    fn import_rejects_wrong_kind_and_malformed_state() {
        let p = Param::new("p", Tensor::scalar(0.0));
        let mut rms = RmsProp::new(0.1);
        quadratic_step(&mut rms, &p);
        let state = rms.export_state();

        let mut adam = Adam::new(0.1);
        assert!(matches!(
            adam.import_state(&state),
            Err(OptimStateError::KindMismatch { .. })
        ));

        let mut truncated = state.clone();
        truncated.slots[0].clear();
        let mut fresh = RmsProp::new(0.1);
        assert!(matches!(
            fresh.import_state(&truncated),
            Err(OptimStateError::Malformed { .. })
        ));

        let mut bad_shape = state.clone();
        bad_shape.slots[0][0].to_mut().push(0.0);
        assert!(matches!(
            fresh.import_state(&bad_shape),
            Err(OptimStateError::Malformed { .. })
        ));
    }

    #[test]
    fn lr_schedule_constant_then_linear() {
        let sched = LrSchedule {
            initial_lr: 1e-3,
            final_lr: 1e-4,
            constant_steps: 100,
            total_steps: 200,
        };
        assert_eq!(sched.at(0), 1e-3);
        assert_eq!(sched.at(100), 1e-3);
        let mid = sched.at(150);
        assert!(mid < 1e-3 && mid > 1e-4);
        assert!((sched.at(200) - 1e-4).abs() < 1e-9);
        assert!((sched.at(10_000) - 1e-4).abs() < 1e-9);
    }
}
