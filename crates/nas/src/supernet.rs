//! The weight-sharing supernet with single-path forward and multi-path
//! (top-K) backward (paper Eq. 6–7).

use crate::arch::ArchParams;
use crate::error::NasError;
use crate::gumbel::{GumbelSoftmax, TemperatureSchedule};
use crate::ops::{build_op, OpChoice, ALL_OPS};
use a3cs_nn::{
    BatchNorm2d, Conv2d, FeatureShape, GlobalAvgPool, Linear, LayerDesc, Module, Param, Relu,
    Sequential,
};
use a3cs_tensor::{Tape, Tensor, Var};
use std::cell::{Cell, RefCell};

/// Structural configuration of the supernet.
///
/// The cell plan follows the paper: the searchable cells inherit the
/// ResNet series' group structure (3 groups; widths `w`, `2w`, `4w`;
/// stride-2 transitions), with a stride-2 stem convolution in front and a
/// global-average-pool + fully-connected feature head behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernetConfig {
    /// Input observation planes.
    pub in_planes: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Number of searchable cells (paper: 12; must be divisible by 3).
    pub num_cells: usize,
    /// Channel width of the first group.
    pub base_width: usize,
    /// Output feature dimensionality of the head.
    pub feat_dim: usize,
    /// Paths activated in the backward pass (`K` of Eq. 7, `1 < K <= N`
    /// trades stability for cost; `K = 1` degenerates to single-path
    /// gradients).
    pub top_k: usize,
    /// Gumbel-Softmax temperature schedule.
    pub temperature: TemperatureSchedule,
}

impl SupernetConfig {
    /// The paper's 12-cell supernet at reproduction scale.
    #[must_use]
    pub fn paper(in_planes: usize, height: usize, width: usize) -> Self {
        SupernetConfig {
            in_planes,
            height,
            width,
            num_cells: 12,
            base_width: 8,
            feat_dim: 64,
            top_k: 2,
            temperature: TemperatureSchedule::default(),
        }
    }

    /// A 6-cell miniature for tests and fast demos.
    #[must_use]
    pub fn tiny(in_planes: usize, height: usize, width: usize) -> Self {
        SupernetConfig {
            in_planes,
            height,
            width,
            num_cells: 6,
            base_width: 8,
            feat_dim: 32,
            top_k: 2,
            temperature: TemperatureSchedule::default(),
        }
    }

    /// `(in_ch, out_ch, stride)` for each searchable cell.
    ///
    /// # Errors
    ///
    /// [`NasError::InvalidCellCount`] unless `num_cells` is a positive
    /// multiple of 3.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn try_cell_plan(&self) -> Result<Vec<(usize, usize, usize)>, NasError> {
        if self.num_cells == 0 || !self.num_cells.is_multiple_of(3) {
            return Err(NasError::InvalidCellCount {
                num_cells: self.num_cells,
            });
        }
        let per_group = self.num_cells / 3;
        let widths = [self.base_width, self.base_width * 2, self.base_width * 4];
        let mut plan = Vec::with_capacity(self.num_cells);
        let mut in_ch = self.base_width; // stem output width
        for (g, &w) in widths.iter().enumerate() {
            for b in 0..per_group {
                let stride = if g > 0 && b == 0 { 2 } else { 1 };
                plan.push((in_ch, w, stride));
                in_ch = w;
            }
        }
        Ok(plan)
    }

    /// Panicking convenience wrapper around
    /// [`SupernetConfig::try_cell_plan`].
    ///
    /// # Panics
    ///
    /// Panics unless `num_cells` is a positive multiple of 3.
    #[must_use]
    pub fn cell_plan(&self) -> Vec<(usize, usize, usize)> {
        match self.try_cell_plan() {
            Ok(plan) => plan,
            // Callers who must handle bad cell counts use `try_cell_plan`;
            // reaching this arm is a caller bug the documented contract
            // rules out.
            Err(e) => unreachable!("cell_plan precondition violated: {e}"),
        }
    }

    /// Feature width entering the head (`4w`).
    #[must_use]
    pub fn head_width(&self) -> usize {
        self.base_width * 4
    }
}

struct SearchCell {
    ops: Vec<Box<dyn Module>>,
}

/// Runs one top-K operator of a training forward: `(operator, tape,
/// input, whether it is the hard sample)` to its output on `tape`.
type BranchFn = fn(&dyn Module, &Tape, &Var, bool) -> Var;

/// A non-sampled top-K path enters Eq. 7 only through α: its forward
/// coefficient is exactly zero, so its own weights and input would get an
/// exactly-zero gradient. It runs forward-only, still in train mode (batch
/// statistics and running-stat updates as on the sampled path), and its
/// output enters `tape` as a constant that `scale_by` differentiates α
/// through.
fn forward_only_unless_sampled(op: &dyn Module, tape: &Tape, h: &Var, hard: bool) -> Var {
    if hard {
        return op.forward(tape, h, true);
    }
    let side = Tape::no_grad();
    let out = op.forward(&side, &side.constant(h.value()), true);
    tape.constant(out.value())
}

/// The architecture-search side of a supernet's state: the `α` logits,
/// the Gumbel sampler's RNG stream, and the temperature-schedule step.
///
/// Together with the supernet *weights* (reachable through
/// [`Module::params`] / [`Module::state`]) this is everything needed to
/// resume a search bit-exactly. The transient forward trace
/// (`last_sampled_indices`) and the `set_eval_sampling` toggle are
/// excluded: both are (re)established by the caller before they are read.
#[derive(Debug, Clone, PartialEq)]
pub struct SupernetSearchState {
    /// Per-cell `α` logit rows (`num_cells × num_ops`).
    pub alpha: Vec<Vec<f32>>,
    /// Gumbel sampler RNG state words.
    pub gumbel_rng: [u64; 4],
    /// Global step driving the temperature schedule.
    pub step: u64,
}

/// The A3C-S supernet: a stem, `num_cells` searchable cells each holding
/// all 9 candidate operators (weight sharing), and a pooled linear head.
///
/// # Forward semantics (Eq. 6–7)
///
/// In training mode each cell hard-samples one operator via Gumbel-Softmax
/// on its `α` logits (single-path forward) while the `top_k` most probable
/// perturbed operators participate in the backward pass through a
/// straight-through relaxation (multi-path backward). The non-sampled ones
/// run forward-only and reach the backward pass through `α` alone. In
/// evaluation mode the argmax-`α` operator runs deterministically.
///
/// The struct uses interior mutability (RNG, step counter, last-sample
/// trace) so it satisfies the `&self`-based [`Module`] trait and can be
/// shared (`Rc`) between an agent and the search driver.
pub struct SuperNet {
    config: SupernetConfig,
    stem: Sequential,
    cells: Vec<SearchCell>,
    head_fc: Linear,
    arch: ArchParams,
    gumbel: RefCell<GumbelSoftmax>,
    step: Cell<u64>,
    last_sample: RefCell<Vec<usize>>,
    eval_sampling: Cell<bool>,
}

impl SuperNet {
    /// Build a supernet with freshly initialised operator weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`SupernetConfig::cell_plan`]) or `top_k` is not in `1..=9`.
    #[must_use]
    pub fn new(config: SupernetConfig, seed: u64) -> Self {
        assert!(
            (1..=ALL_OPS.len()).contains(&config.top_k),
            "top_k must be within 1..={}",
            ALL_OPS.len()
        );
        let plan = config.cell_plan();
        let stem = Sequential::new()
            .push(Conv2d::new(
                "supernet.stem",
                config.in_planes,
                config.base_width,
                3,
                2,
                1,
                false,
                seed,
            ))
            .push(BatchNorm2d::new("supernet.stem_bn", config.base_width))
            .push(Relu::new());
        let mut cells = Vec::with_capacity(plan.len());
        for (ci, &(in_ch, out_ch, stride)) in plan.iter().enumerate() {
            let ops = ALL_OPS
                .iter()
                .enumerate()
                .map(|(oi, &choice)| {
                    build_op(
                        choice,
                        &format!("supernet.c{ci}.{choice}"),
                        in_ch,
                        out_ch,
                        stride,
                        seed.wrapping_add((ci * 31 + oi) as u64 + 1),
                    )
                })
                .collect();
            cells.push(SearchCell { ops });
        }
        let head_fc = Linear::new(
            "supernet.fc",
            config.head_width(),
            config.feat_dim,
            seed.wrapping_add(999),
        );
        let num_cells = plan.len();
        SuperNet {
            config,
            stem,
            cells,
            head_fc,
            arch: ArchParams::new(num_cells, ALL_OPS.len()),
            gumbel: RefCell::new(GumbelSoftmax::new(seed ^ 0x6a5d_39e9)),
            step: Cell::new(0),
            last_sample: RefCell::new(vec![0; num_cells]),
            eval_sampling: Cell::new(false),
        }
    }

    /// Toggle Gumbel path sampling in *evaluation-mode* forwards.
    ///
    /// Alg. 1 performs rollouts with the hard-Gumbel-sampled single path
    /// (Eq. 6); the co-search enables this so that data collection
    /// explores operators, and disables it around score evaluations so
    /// those measure the argmax network.
    pub fn set_eval_sampling(&self, on: bool) {
        self.eval_sampling.set(on);
    }

    /// The structural configuration.
    #[must_use]
    pub fn config(&self) -> &SupernetConfig {
        &self.config
    }

    /// Number of searchable cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The architecture distribution `α`.
    #[must_use]
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// Set the global step (drives the temperature schedule).
    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// Current Gumbel-Softmax temperature.
    #[must_use]
    pub fn temperature(&self) -> f32 {
        self.config.temperature.at(self.step.get())
    }

    /// Operator *indices* sampled in the most recent forward (one per
    /// cell). Training forwards record the hard Gumbel sample; evaluation
    /// forwards record the argmax path.
    #[must_use]
    pub fn last_sampled_indices(&self) -> Vec<usize> {
        self.last_sample.borrow().clone()
    }

    /// Operator choices sampled in the most recent training forward.
    #[must_use]
    pub fn last_sampled_arch(&self) -> Vec<OpChoice> {
        self.last_sample
            .borrow()
            .iter()
            .map(|&i| ALL_OPS[i])
            .collect()
    }

    /// Most likely architecture (argmax `α`) — the derivation rule and the
    /// single-path proxy used for the hardware-cost penalty (Eq. 8).
    #[must_use]
    pub fn most_likely_arch(&self) -> Vec<OpChoice> {
        self.arch.argmax().into_iter().map(|i| ALL_OPS[i]).collect()
    }

    /// Compute-layer descriptors of the most likely architecture at the
    /// supernet's design input shape.
    #[must_use]
    pub fn most_likely_layer_descs(&self) -> Vec<LayerDesc> {
        self.describe(FeatureShape::image(
            self.config.in_planes,
            self.config.height,
            self.config.width,
        ))
        .0
    }

    /// Export the search-side state (α logits, Gumbel RNG, schedule step)
    /// for checkpointing. See [`SupernetSearchState`] for what is and is
    /// not covered.
    #[must_use]
    pub fn export_search_state(&self) -> SupernetSearchState {
        SupernetSearchState {
            alpha: (0..self.cells.len())
                .map(|ci| self.arch.logits(ci))
                .collect(),
            gumbel_rng: self.gumbel.borrow().rng_state(),
            step: self.step.get(),
        }
    }

    /// Restore state captured by [`SuperNet::export_search_state`].
    ///
    /// # Errors
    ///
    /// [`NasError::SearchStateShapeMismatch`] when the α logit shape does
    /// not match this supernet; nothing is modified in that case.
    #[must_use = "the Result reports failure and must be checked"]
    pub fn import_search_state(&self, state: &SupernetSearchState) -> Result<(), NasError> {
        let num_ops = ALL_OPS.len();
        if state.alpha.len() != self.cells.len() {
            return Err(NasError::SearchStateShapeMismatch {
                expected_cells: self.cells.len(),
                expected_ops: num_ops,
                actual_cells: state.alpha.len(),
                actual_ops: state.alpha.first().map_or(0, Vec::len),
            });
        }
        if let Some(row) = state.alpha.iter().find(|row| row.len() != num_ops) {
            return Err(NasError::SearchStateShapeMismatch {
                expected_cells: self.cells.len(),
                expected_ops: num_ops,
                actual_cells: state.alpha.len(),
                actual_ops: row.len(),
            });
        }
        for (ci, row) in state.alpha.iter().enumerate() {
            match Tensor::from_vec(row.clone(), &[num_ops]) {
                Ok(t) => self.arch.cell(ci).set_value(t),
                // Row length was validated against `num_ops` above.
                Err(e) => unreachable!("validated α row must build a tensor: {e}"),
            }
        }
        self.gumbel.borrow_mut().set_rng_state(state.gumbel_rng);
        self.step.set(state.step);
        Ok(())
    }

    /// Per-cell, per-operator layer descriptors at the shapes each cell
    /// sees under the most-likely architecture. Used by Eq. 8's layer-wise
    /// hardware-cost penalty.
    #[must_use]
    pub fn candidate_layer_descs(&self) -> Vec<Vec<Vec<LayerDesc>>> {
        let plan = self.config.cell_plan();
        let (stem_descs, mut shape) = self.stem.describe(FeatureShape::image(
            self.config.in_planes,
            self.config.height,
            self.config.width,
        ));
        let _ = stem_descs;
        let mut out = Vec::with_capacity(plan.len());
        for (ci, _) in plan.iter().enumerate() {
            let mut per_op = Vec::with_capacity(self.cells[ci].ops.len());
            let mut next_shape = shape;
            for (oi, op) in self.cells[ci].ops.iter().enumerate() {
                let (descs, s) = op.describe(shape);
                per_op.push(descs);
                if oi == self.arch.argmax()[ci] {
                    next_shape = s;
                }
            }
            out.push(per_op);
            shape = next_shape;
        }
        out
    }

    /// The forward of [`Module::forward`], with `branch` running each
    /// top-K operator of a training forward.
    fn forward_with(&self, tape: &Tape, x: &Var, train: bool, branch: BranchFn) -> Var {
        let mut h = self.stem.forward(tape, x, train);
        let tau = self.temperature();
        let num_ops = ALL_OPS.len();
        let mut sample = Vec::with_capacity(self.cells.len());
        for (ci, cell) in self.cells.iter().enumerate() {
            if train {
                // Single-path forward, multi-path (top-K) backward.
                let logits = self.arch.logits(ci);
                let noise = self.gumbel.borrow_mut().sample_noise(num_ops);
                let perturbed: Vec<f32> = logits
                    .iter()
                    .zip(noise.iter())
                    .map(|(&l, &g)| (l + g) / tau)
                    .collect();
                let mut order: Vec<usize> = (0..num_ops).collect();
                order.sort_by(|&a, &b| perturbed[b].total_cmp(&perturbed[a]));
                let selected = &order[..self.config.top_k];
                let hard = selected[0];
                sample.push(hard);

                let alpha = self.arch.cell(ci).bind(tape);
                let noise_t = match Tensor::from_vec(noise, &[num_ops]) {
                    Ok(t) => t,
                    Err(e) => unreachable!("one noise value per op always fits: {e:?}"),
                };
                let probs = alpha
                    .add(&tape.constant(noise_t))
                    .scale(1.0 / tau)
                    .reshape(&[1, num_ops])
                    .softmax_rows();

                let mut acc: Option<Var> = None;
                for &oi in selected {
                    let w = probs.pick_rows(&[oi]); // differentiable weight
                    let hard_val = f32::from(oi == hard);
                    let st_shift = hard_val - w.value().item();
                    // Straight-through: forward coefficient is exactly the
                    // one-hot value; gradient flows through `w`.
                    let shift_t = match Tensor::from_vec(vec![st_shift], &[1]) {
                        Ok(t) => t,
                        Err(e) => unreachable!("one value always fits shape [1]: {e:?}"),
                    };
                    let coeff = w.add(&tape.constant(shift_t));
                    let out = branch(cell.ops[oi].as_ref(), tape, &h, oi == hard).scale_by(&coeff);
                    acc = Some(match acc {
                        None => out,
                        Some(a) => a.add(&out),
                    });
                }
                h = match acc {
                    Some(sum) => sum,
                    None => unreachable!("top_k >= 1 guarantees a branch"),
                };
            } else {
                // Evaluation: argmax path, or a hard-Gumbel sample when
                // rollout-time sampling is enabled (Eq. 6 in Alg. 1).
                let oi = if self.eval_sampling.get() {
                    self.gumbel
                        .borrow_mut()
                        .hard(&self.arch.logits(ci), tau)
                } else {
                    self.arch.argmax()[ci]
                };
                sample.push(oi);
                h = cell.ops[oi].forward(tape, &h, train);
            }
        }
        *self.last_sample.borrow_mut() = sample;
        let pooled = GlobalAvgPool::new().forward(tape, &h, train);
        self.head_fc.forward(tape, &pooled, train).relu()
    }
}

impl Module for SuperNet {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        self.forward_with(tape, x, train, forward_only_unless_sampled)
    }

    fn params(&self) -> Vec<Param> {
        // Supernet *weights* θ only; α lives in `arch()` and is updated by
        // its own optimiser (one-level optimisation updates both, but with
        // different optimisers and learning rates).
        let mut p = self.stem.params();
        for cell in &self.cells {
            for op in &cell.ops {
                p.extend(op.params());
            }
        }
        p.extend(self.head_fc.params());
        p
    }

    fn state(&self) -> Vec<Param> {
        // Batch-norm running statistics of the stem and every candidate
        // operator: they steer eval-mode forwards (rollouts, evaluations),
        // so checkpoints must carry them for bit-exact resume.
        let mut s = self.stem.state();
        for cell in &self.cells {
            for op in &cell.ops {
                s.extend(op.state());
            }
        }
        s.extend(self.head_fc.state());
        s
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        // Describe the most-likely (argmax-α) single-path network — the
        // proxy the hardware-cost penalty evaluates (Section IV-A).
        let (mut descs, mut shape) = self.stem.describe(input);
        for (ci, &oi) in self.arch.argmax().iter().enumerate() {
            let (d, s) = self.cells[ci].ops[oi].describe(shape);
            descs.extend(d);
            shape = s;
        }
        let FeatureShape::Image { channels, .. } = shape else {
            unreachable!("every candidate operator preserves the image shape")
        };
        let (d, s) = self
            .head_fc
            .describe(FeatureShape::Flat { features: channels });
        descs.extend(d);
        (descs, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuperNet {
        SuperNet::new(SupernetConfig::tiny(3, 12, 12), 7)
    }

    #[test]
    fn cell_plan_has_group_transitions() {
        let cfg = SupernetConfig::paper(4, 12, 12);
        let plan = cfg.cell_plan();
        assert_eq!(plan.len(), 12);
        assert_eq!(plan[0], (8, 8, 1));
        assert_eq!(plan[4], (8, 16, 2));
        assert_eq!(plan[8], (16, 32, 2));
        assert_eq!(plan[11], (32, 32, 1));
    }

    #[test]
    fn forward_shapes_train_and_eval() {
        let sn = tiny();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[2, 3, 12, 12], 0.3, 1));
        let y_train = sn.forward(&tape, &x, true);
        assert_eq!(y_train.shape(), vec![2, 32]);
        let y_eval = sn.forward(&tape, &x, false);
        assert_eq!(y_eval.shape(), vec![2, 32]);
        assert!(y_train.value().all_finite());
    }

    #[test]
    fn training_forward_samples_vary_but_eval_is_argmax() {
        let sn = tiny();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 3, 12, 12]));
        let mut samples = std::collections::HashSet::new();
        for _ in 0..10 {
            let _ = sn.forward(&tape, &x, true);
            samples.insert(format!("{:?}", sn.last_sampled_arch()));
        }
        assert!(samples.len() > 1, "uniform α must sample diverse paths");
        let _ = sn.forward(&tape, &x, false);
        assert_eq!(sn.last_sampled_arch(), sn.most_likely_arch());
    }

    #[test]
    fn alpha_receives_gradient_through_st_estimator() {
        let sn = tiny();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[1, 3, 12, 12], 0.3, 2));
        let y = sn.forward(&tape, &x, true);
        y.square().sum().backward();
        let alpha_grads: f32 = sn
            .arch()
            .params()
            .iter()
            .map(|p| p.grad().sq_norm())
            .sum();
        assert!(alpha_grads > 0.0, "α must receive gradient");
    }

    #[test]
    fn weights_exclude_alpha() {
        let sn = tiny();
        let weight_names: Vec<String> =
            sn.params().iter().map(|p| p.name().to_owned()).collect();
        assert!(weight_names.iter().all(|n| !n.starts_with("alpha")));
        assert_eq!(sn.arch().params().len(), sn.num_cells());
    }

    #[test]
    fn temperature_follows_schedule() {
        let sn = tiny();
        let t0 = sn.temperature();
        sn.set_step(10_000);
        assert!(sn.temperature() < t0);
    }

    #[test]
    fn describe_follows_argmax_choice() {
        let sn = tiny();
        // Force cell 0 to 'skip' (identity: contributes no layers).
        sn.arch().cell(0).update(|t| t.data_mut()[8] = 10.0);
        let descs_skip = sn.most_likely_layer_descs();
        sn.arch().cell(0).update(|t| {
            t.data_mut()[8] = 0.0;
            t.data_mut()[7] = 10.0; // ir_k5_e5: 3 layers
        });
        let descs_ir = sn.most_likely_layer_descs();
        assert!(descs_ir.len() > descs_skip.len());
    }

    #[test]
    fn candidate_layer_descs_cover_all_ops() {
        let sn = tiny();
        let cands = sn.candidate_layer_descs();
        assert_eq!(cands.len(), sn.num_cells());
        for cell in &cands {
            assert_eq!(cell.len(), ALL_OPS.len());
        }
    }

    #[test]
    fn eval_sampling_toggles_path_choice() {
        let sn = tiny();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 3, 12, 12]));
        // Off (default): eval forward always records the argmax path.
        let _ = sn.forward(&tape, &x, false);
        assert_eq!(sn.last_sampled_indices(), sn.arch().argmax());
        // On: with uniform α the sampled paths vary across forwards.
        sn.set_eval_sampling(true);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..10 {
            let _ = sn.forward(&tape, &x, false);
            distinct.insert(sn.last_sampled_indices());
        }
        assert!(distinct.len() > 1, "eval sampling must explore paths");
        sn.set_eval_sampling(false);
        let _ = sn.forward(&tape, &x, false);
        assert_eq!(sn.last_sampled_indices(), sn.arch().argmax());
    }

    /// The forward before non-sampled top-K paths ran forward-only: every
    /// top-K operator recorded on the tape, backward included.
    fn record_every_branch(op: &dyn Module, tape: &Tape, h: &Var, _hard: bool) -> Var {
        op.forward(tape, h, true)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn grads(params: &[Param]) -> Vec<Vec<f32>> {
        params.iter().map(|p| p.grad().data().to_vec()).collect()
    }

    #[test]
    fn forward_only_branches_change_nothing_the_search_sees() {
        for top_k in [1, 2, 3, 9] {
            for batch in [1, 4] {
                for seed in [3, 11, 29] {
                    let case = format!("top_k {top_k}, batch {batch}, seed {seed}");
                    let mut cfg = SupernetConfig::tiny(3, 12, 12);
                    cfg.top_k = top_k;
                    let (sn, reference) = (SuperNet::new(cfg, seed), SuperNet::new(cfg, seed));
                    let x = Tensor::randn(&[batch, 3, 12, 12], 0.5, seed + 100);
                    let tape = Tape::new();
                    let y = sn.forward(&tape, &tape.leaf(x.clone()), true);
                    y.square().sum().backward();
                    let tape = Tape::new();
                    let y_ref =
                        reference.forward_with(&tape, &tape.leaf(x), true, record_every_branch);
                    y_ref.square().sum().backward();

                    assert_eq!(bits(&y.value()), bits(&y_ref.value()), "{case}: output");
                    // The reference adds ±0 into the non-sampled weights and
                    // the cell inputs, so gradients compare by value.
                    assert_eq!(
                        grads(&sn.arch().params()),
                        grads(&reference.arch().params()),
                        "{case}: α gradient"
                    );
                    assert_eq!(
                        grads(&sn.params()),
                        grads(&reference.params()),
                        "{case}: θ gradient"
                    );
                    let state = |net: &SuperNet| -> Vec<Vec<u32>> {
                        net.state().iter().map(|p| bits(&p.value())).collect()
                    };
                    assert_eq!(state(&sn), state(&reference), "{case}: BN running stats");
                    let sampled = sn.last_sampled_indices();
                    assert_eq!(sampled, reference.last_sampled_indices(), "{case}: sample");
                    for (cell, &hard) in sn.cells.iter().zip(&sampled) {
                        for (oi, op) in cell.ops.iter().enumerate().filter(|&(oi, _)| oi != hard) {
                            for p in op.params() {
                                assert!(
                                    p.grad().data().iter().all(|&g| g == 0.0),
                                    "{case}: non-sampled op {oi} got gradient in {}",
                                    p.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_non_sampled_branch_still_reaches_what_the_sentinel_scans() {
        let mut cfg = SupernetConfig::tiny(3, 12, 12);
        cfg.top_k = 9;
        let sn = SuperNet::new(cfg, 5);
        // ir_k3_e1: no ReLU after its projection, so an ∞ weight there
        // makes the operator's output non-finite.
        let poisoned = 2;
        let project = format!("supernet.c0.{}.project.weight", ALL_OPS[poisoned]);
        let weight = sn.cells[0].ops[poisoned]
            .params()
            .into_iter()
            .find(|p| p.name() == project)
            .expect("the inverted residual has a projection");
        weight.update(|w| w.data_mut()[0] = f32::INFINITY);
        let x = Tensor::randn(&[2, 3, 12, 12], 0.5, 6);
        for _ in 0..50 {
            sn.zero_grad();
            sn.arch().zero_grad();
            let tape = Tape::new();
            let y = sn.forward(&tape, &tape.leaf(x.clone()), true);
            if sn.last_sampled_indices()[0] == poisoned {
                continue;
            }
            // In the top-K but not sampled: forward-only, yet 0 · ∞ = NaN in
            // `scale_by` carries it onto the main tape.
            y.square().sum().backward();
            assert!(
                !sn.arch().params()[0].grad().all_finite(),
                "cell 0's α gradient"
            );
            assert!(
                sn.head_fc.params().iter().any(|p| !p.grad().all_finite()),
                "head gradient"
            );
            return;
        }
        unreachable!("uniform α samples another op within 50 forwards");
    }

    #[test]
    fn top_k_one_is_pure_single_path() {
        let mut cfg = SupernetConfig::tiny(3, 12, 12);
        cfg.top_k = 1;
        let sn = SuperNet::new(cfg, 3);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[1, 3, 12, 12], 0.3, 4));
        let y = sn.forward(&tape, &x, true);
        assert_eq!(y.shape(), vec![1, 32]);
    }
}
