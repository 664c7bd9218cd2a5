//! The Differentiable Accelerator Search (DAS) engine — Eq. 9 of the
//! paper: hard Gumbel-Softmax sampling per accelerator knob `φ^m`, with the
//! overall hardware cost back-propagated to every sampled knob through the
//! softmax relaxation.

use crate::memo::{CachedCostModel, CostModel, MemoStats};
use crate::predictor::{CostWeights, PerfModel, PerfReport};
use crate::space::SearchSpace;
use crate::template::AcceleratorConfig;
use crate::zc706::FpgaTarget;
use a3cs_nn::LayerDesc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DAS hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DasConfig {
    /// The knob space.
    pub space: SearchSpace,
    /// Number of pipeline chunks to instantiate.
    pub num_chunks: usize,
    /// Maximum network depth the assignment knobs cover (longer φ simply
    /// ignores the tail when the current network is shallower).
    pub max_layers: usize,
    /// Initial Gumbel-Softmax temperature for `φ` sampling (annealed
    /// multiplicatively each step down to `min_temperature`).
    pub temperature: f64,
    /// Temperature floor.
    pub min_temperature: f64,
    /// Multiplicative temperature decay per step.
    pub temperature_decay: f64,
    /// Learning rate on the `φ` logits.
    pub lr: f64,
    /// Cost weights fed to the predictor.
    pub cost: CostWeights,
    /// `log2` of the transposition-table cost cache (0 disables caching;
    /// cached and direct evaluation are bit-identical, so this only
    /// trades memory for speed — see `memo.rs`).
    pub memo_log2: u32,
}

impl Default for DasConfig {
    fn default() -> Self {
        DasConfig {
            space: SearchSpace::default(),
            num_chunks: 4,
            max_layers: 48,
            temperature: 2.0,
            min_temperature: 0.5,
            temperature_decay: 0.995,
            lr: 0.5,
            cost: CostWeights::default(),
            memo_log2: 14,
        }
    }
}

/// The searchable accelerator distribution: one logit vector per knob.
///
/// Each [`DasEngine::step`] hard-samples every knob, evaluates the decoded
/// accelerator with the analytical predictor, and updates the logits with
/// the straight-through Gumbel-Softmax gradient of
/// `Σ_m GS_hard(φ^m) · L̂` (Eq. 9), using a moving-average cost baseline
/// for variance reduction (an implementation detail the paper's
/// formulation absorbs into the relaxation).
pub struct DasEngine {
    config: DasConfig,
    logits: Vec<Vec<f64>>,
    rng: StdRng,
    baseline: Option<f64>,
    temperature: f64,
    /// Memoized predictor front-end (`None` when `memo_log2 == 0`).
    /// Deliberately absent from [`DasState`]: cached results are
    /// bit-identical to direct evaluation, so the cache is pure
    /// acceleration state and resume stays exact without it.
    cache: Option<CachedCostModel>,
    /// The step's working storage, sized at construction and overwritten
    /// by every step (so, like the cache, not part of [`DasState`]):
    /// every knob's relaxed sample, flat in knob order (knob `m`'s row
    /// starts after the rows of knobs `0..m`), ...
    soft: Vec<f64>,
    /// ... its hard choice per knob, ...
    choices: Vec<usize>,
    /// ... and the accelerator they decode to.
    accel: AcceleratorConfig,
}

/// The complete mutable state of a [`DasEngine`], as captured by
/// [`DasEngine::export_state`] for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct DasState {
    /// Per-knob φ logit rows.
    pub logits: Vec<Vec<f64>>,
    /// Gumbel sampler RNG state words.
    pub rng: [u64; 4],
    /// Moving-average cost baseline (`None` until the first step).
    pub baseline: Option<f64>,
    /// Current (annealed) sampling temperature.
    pub temperature: f64,
}

/// Why a [`DasState`] could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DasStateError {
    /// The logit table's row lengths do not match the engine's knob
    /// layout (different search space or chunk/layer budget).
    ShapeMismatch {
        /// Row lengths this engine expects.
        expected: Vec<usize>,
        /// Row lengths found in the state.
        actual: Vec<usize>,
    },
}

impl std::fmt::Display for DasStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DasStateError::ShapeMismatch { expected, actual } => write!(
                f,
                "DAS state has {} logit rows {:?}, engine expects {} rows {:?}",
                actual.len(),
                actual,
                expected.len(),
                expected
            ),
        }
    }
}

impl std::error::Error for DasStateError {}

impl DasEngine {
    /// Create an engine with uniform knob distributions.
    ///
    /// # Panics
    ///
    /// Panics if `num_chunks` or `max_layers` is zero.
    #[must_use]
    pub fn new(config: DasConfig, seed: u64) -> Self {
        assert!(config.num_chunks > 0, "need at least one chunk");
        assert!(config.max_layers > 0, "need at least one layer slot");
        let sizes = config.space.knob_sizes(config.num_chunks, config.max_layers);
        let logits = sizes.iter().map(|&s| vec![0.0f64; s]).collect();
        let temperature = config.temperature;
        let cache = (config.memo_log2 > 0).then(|| CachedCostModel::new(config.memo_log2));
        let accel = AcceleratorConfig {
            chunks: Vec::with_capacity(config.num_chunks),
            assignment: Vec::with_capacity(config.max_layers),
        };
        DasEngine {
            config,
            logits,
            rng: StdRng::seed_from_u64(seed),
            baseline: None,
            temperature,
            cache,
            soft: vec![0.0; sizes.iter().sum()],
            choices: Vec::with_capacity(sizes.len()),
            accel,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &DasConfig {
        &self.config
    }

    /// Export the engine's complete mutable state (φ logits, RNG stream,
    /// cost baseline, annealed temperature) for checkpointing.
    #[must_use]
    pub fn export_state(&self) -> DasState {
        DasState {
            logits: self.logits.clone(),
            rng: self.rng.state(),
            baseline: self.baseline,
            temperature: self.temperature,
        }
    }

    /// Restore state captured by [`DasEngine::export_state`].
    ///
    /// # Errors
    ///
    /// [`DasStateError::ShapeMismatch`] when the logit table does not
    /// match this engine's knob layout; nothing is modified in that case.
    pub fn import_state(&mut self, state: &DasState) -> Result<(), DasStateError> {
        let expected: Vec<usize> = self.logits.iter().map(Vec::len).collect();
        let actual: Vec<usize> = state.logits.iter().map(Vec::len).collect();
        if expected != actual {
            return Err(DasStateError::ShapeMismatch { expected, actual });
        }
        self.logits = state.logits.clone();
        self.rng = StdRng::from_state(state.rng);
        self.baseline = state.baseline;
        self.temperature = state.temperature;
        Ok(())
    }

    /// Chunk-knob count: the assignment knobs start here.
    fn chunk_knob_count(&self) -> usize {
        self.config.space.chunk_knob_sizes().len() * self.config.num_chunks
    }

    fn knob_count_for(&self, num_layers: usize) -> usize {
        self.chunk_knob_count() + num_layers
    }

    /// Hard-sample the first `n` knobs (Gumbel-max) at the current
    /// temperature into `choices`, leaving each knob's relaxed sample in
    /// `soft`.
    fn sample(&mut self, n: usize) {
        let tau = self.temperature;
        let DasEngine {
            logits,
            rng,
            soft,
            choices,
            ..
        } = self;
        choices.clear();
        let mut at = 0;
        for logit in logits.iter().take(n) {
            let z = &mut soft[at..at + logit.len()];
            for (zj, &l) in z.iter_mut().zip(logit) {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let g = -(-u.ln()).ln(); // standard Gumbel noise
                *zj = (l + g) / tau;
            }
            choices.push(argmax(z));
            softmax_in_place(z);
            at += logit.len();
        }
    }

    /// Decode a knob-choice vector for a `num_layers`-deep network.
    ///
    /// The assignment tail is sorted so every decoded accelerator is a
    /// *legal* pipeline (each chunk owns a contiguous layer interval).
    /// This repair is gradient-safe: the DAS update (Eq. 9) scales every
    /// knob's straight-through gradient by one global scalar advantage, so
    /// re-ordering the decoded assignment cannot misattribute credit
    /// between knobs — each assignment logit still learns which chunk its
    /// layer-slot prefers, and sorting only canonicalises the decoded
    /// interval boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` exceeds `max_layers`.
    #[must_use]
    pub fn decode(&self, choices: &[usize], num_layers: usize) -> AcceleratorConfig {
        let mut accel = AcceleratorConfig {
            chunks: Vec::new(),
            assignment: Vec::new(),
        };
        decode_into(&self.config, choices, num_layers, &mut accel);
        accel
    }

    /// One DAS iteration on `layers`: sample, evaluate, update `φ`.
    /// Returns the sampled accelerator's report and scalar cost.
    ///
    /// With the cost cache on, the report is the step's only allocation
    /// (besides the cache's one rebuild when `layers` or the target
    /// differs from the previous step's): sampling and decoding fill the
    /// engine's buffers, and the cache re-binds for free.
    pub fn step(&mut self, layers: &[LayerDesc], target: &FpgaTarget) -> (PerfReport, f64) {
        let num_layers = layers.len();
        let n = self.knob_count_for(num_layers);
        self.sample(n);
        decode_into(&self.config, &self.choices, num_layers, &mut self.accel);
        let report = match &mut self.cache {
            Some(cache) => {
                cache.begin(
                    &self.config.space,
                    self.config.num_chunks,
                    layers,
                    target,
                    &self.config.cost,
                );
                cache.evaluate_config(&self.accel)
            }
            None => PerfModel::evaluate(&self.accel, layers, target),
        };
        let cost = PerfModel::cost(&report, target, &self.config.cost);

        // Variance-reduced scalar signal, normalised by the baseline scale.
        let baseline = *self.baseline.get_or_insert(cost);
        let scale = baseline.abs().max(1e-9);
        let advantage = (cost - baseline) / scale;
        self.baseline = Some(0.9 * baseline + 0.1 * cost);

        // Straight-through gradient of y_sel wrt φ_j: y_sel (δ_{j,sel} - y_j)/τ.
        let tau = self.temperature;
        self.temperature =
            (self.temperature * self.config.temperature_decay).max(self.config.min_temperature);
        let lr = self.config.lr;
        let mut at = 0;
        for (logit, &sel) in self.logits.iter_mut().take(n).zip(&self.choices) {
            let soft = &self.soft[at..at + logit.len()];
            let y_sel = soft[sel];
            for (j, l) in logit.iter_mut().enumerate() {
                let indicator = f64::from(j == sel);
                let grad = advantage * y_sel * (indicator - soft[j]) / tau;
                *l -= lr * grad;
            }
            at += logit.len();
        }
        (report, cost)
    }

    /// Run `iters` DAS steps and return the final most-likely accelerator.
    pub fn run(
        &mut self,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        iters: usize,
    ) -> AcceleratorConfig {
        for _ in 0..iters {
            let _ = self.step(layers, target);
        }
        self.best(layers.len())
    }

    /// The argmax-`φ` accelerator for a `num_layers`-deep network.
    #[must_use]
    pub fn best(&self, num_layers: usize) -> AcceleratorConfig {
        self.decode(&self.best_choices(num_layers), num_layers)
    }

    /// The argmax-`φ` choice vector for a `num_layers`-deep network, in
    /// canonical form (assignment tail sorted — the same repair
    /// [`DasEngine::decode`] applies). This is the natural seed for
    /// [`BeamSearch::run_from`] refinement.
    ///
    /// [`BeamSearch::run_from`]: crate::BeamSearch::run_from
    #[must_use]
    pub fn best_choices(&self, num_layers: usize) -> Vec<usize> {
        let n = self.knob_count_for(num_layers);
        let mut choices: Vec<usize> = self.logits[..n].iter().map(|l| argmax(l)).collect();
        choices[self.chunk_knob_count()..].sort_unstable();
        choices
    }

    /// Cost-cache counters, when caching is enabled (`memo_log2 > 0`).
    #[must_use]
    pub fn cache_stats(&self) -> Option<MemoStats> {
        self.cache.as_ref().map(CachedCostModel::stats)
    }

    /// Mean entropy (nats) of the knob distributions — decreases as the
    /// search commits.
    #[must_use]
    pub fn mean_entropy(&self) -> f64 {
        let mut p = Vec::new();
        let total: f64 = self
            .logits
            .iter()
            .map(|l| {
                p.clear();
                p.extend_from_slice(l);
                softmax_in_place(&mut p);
                -p.iter()
                    .map(|&x| if x > 0.0 { x * x.ln() } else { 0.0 })
                    .sum::<f64>()
            })
            .sum();
        total / self.logits.len() as f64
    }
}

/// Decode `choices` for a `num_layers`-deep network into `out`, reusing
/// its storage, with the assignment tail sorted (see
/// [`DasEngine::decode`]).
fn decode_into(
    config: &DasConfig,
    choices: &[usize],
    num_layers: usize,
    out: &mut AcceleratorConfig,
) {
    assert!(
        num_layers <= config.max_layers,
        "network deeper ({num_layers}) than max_layers ({})",
        config.max_layers
    );
    if let Err(e) = config
        .space
        .try_decode_into(config.num_chunks, num_layers, choices, out)
    {
        // Choice vectors come from this engine's own knob layout, whose
        // rows `SearchSpace::knob_sizes` sized; a failure here is a
        // caller bug the documented contract rules out.
        unreachable!("decode precondition violated: {e}");
    }
    out.assignment.sort_unstable();
}

/// Index of the first largest value (0 for an empty slice).
fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Softmax of `v`, in place.
fn softmax_in_place(v: &mut [f64]) {
    let mx = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for x in v.iter_mut() {
        *x = (*x - mx).exp();
    }
    let sum: f64 = v.iter().sum();
    for x in v.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_nn::{resnet, vanilla};

    /// The softmax the sampler used before its step buffers: a fresh
    /// vector per call. Reference for [`softmax_in_place`].
    fn softmax64(z: &[f64]) -> Vec<f64> {
        let mx = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = z.iter().map(|&v| (v - mx).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.iter().map(|&e| e / sum).collect()
    }

    /// The step as it stood before the step buffers, kept as the
    /// reference the shipped step must match bit for bit: it allocates
    /// `z`, its softmax and the decoded design afresh, and evaluates every
    /// design directly.
    struct ReferenceDas(DasEngine);

    impl ReferenceDas {
        fn sample(&mut self, num_layers: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
            let das = &mut self.0;
            let n = das.knob_count_for(num_layers);
            let tau = das.temperature;
            let mut choices = Vec::with_capacity(n);
            let mut softs = Vec::with_capacity(n);
            for logit in das.logits.iter().take(n) {
                let z: Vec<f64> = logit
                    .iter()
                    .map(|&l| {
                        let u: f64 = das.rng.gen_range(f64::EPSILON..1.0);
                        let g = -(-u.ln()).ln(); // standard Gumbel noise
                        (l + g) / tau
                    })
                    .collect();
                let soft = softmax64(&z);
                let mut best = 0;
                for (i, &v) in z.iter().enumerate() {
                    if v > z[best] {
                        best = i;
                    }
                }
                choices.push(best);
                softs.push(soft);
            }
            (choices, softs)
        }

        /// One step; returns the choices and relaxed samples it drew too.
        fn step(
            &mut self,
            layers: &[LayerDesc],
            target: &FpgaTarget,
        ) -> (Vec<usize>, Vec<Vec<f64>>, PerfReport, f64) {
            let num_layers = layers.len();
            let (choices, softs) = self.sample(num_layers);
            let das = &mut self.0;
            let accel = das.decode(&choices, num_layers);
            let report = PerfModel::evaluate(&accel, layers, target);
            let cost = PerfModel::cost(&report, target, &das.config.cost);
            let baseline = *das.baseline.get_or_insert(cost);
            let scale = baseline.abs().max(1e-9);
            let advantage = (cost - baseline) / scale;
            das.baseline = Some(0.9 * baseline + 0.1 * cost);
            let tau = das.temperature;
            das.temperature =
                (das.temperature * das.config.temperature_decay).max(das.config.min_temperature);
            let n = das.knob_count_for(num_layers);
            for ((logit, soft), &sel) in das
                .logits
                .iter_mut()
                .take(n)
                .zip(softs.iter())
                .zip(choices.iter())
            {
                let y_sel = soft[sel];
                for (j, l) in logit.iter_mut().enumerate() {
                    let indicator = f64::from(j == sel);
                    let grad = advantage * y_sel * (indicator - soft[j]) / tau;
                    *l -= das.config.lr * grad;
                }
            }
            (choices, softs, report, cost)
        }
    }

    /// Every field of a report, floats by their bits.
    fn report_bits(r: &PerfReport) -> Vec<u64> {
        let mut bits = vec![
            r.fps.to_bits(),
            r.bottleneck_cycles.to_bits(),
            r.total_latency_cycles.to_bits(),
            r.energy.to_bits(),
            r.dsp_used as u64,
            r.bram_kb_used as u64,
            u64::from(r.feasible),
            r.thrashing_layers as u64,
        ];
        bits.extend(r.chunk_cycles.iter().map(|c| c.to_bits()));
        bits
    }

    fn logit_bits(das: &DasEngine) -> Vec<Vec<u64>> {
        das.logits
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn buffered_step_is_bit_identical_to_the_reference() {
        let target = FpgaTarget::zc706();
        let nets = [
            ("vanilla", vanilla(4, 12, 12, 32, 0).layer_descs()),
            ("resnet14", resnet(14, 4, 12, 12, 8, 32, 0).layer_descs()),
            ("resnet74", resnet(74, 4, 12, 12, 8, 32, 0).layer_descs()),
        ];
        assert!(nets[2].1.len() > DasConfig::default().max_layers);
        const STEPS: usize = 120;
        for (name, layers) in &nets {
            for memo_log2 in [0, 14] {
                for seed in [31, 32] {
                    let config = DasConfig {
                        max_layers: layers.len().max(DasConfig::default().max_layers),
                        memo_log2,
                        ..DasConfig::default()
                    };
                    let mut reference = ReferenceDas(DasEngine::new(
                        DasConfig {
                            memo_log2: 0,
                            ..config.clone()
                        },
                        seed,
                    ));
                    let mut das = DasEngine::new(config.clone(), seed);
                    for step in 0..STEPS {
                        let at = format!("{name}, memo_log2 {memo_log2}, seed {seed}, step {step}");
                        if step == STEPS / 2 {
                            // Resume from a checkpoint in a fresh engine
                            // (other seed, cold cache, unused buffers).
                            let mut resumed = DasEngine::new(config.clone(), seed + 1000);
                            resumed
                                .import_state(&das.export_state())
                                .unwrap_or_else(|e| panic!("{at}: {e}"));
                            das = resumed;
                        }
                        let (choices, softs, want, want_cost) = reference.step(layers, &target);
                        let (report, cost) = das.step(layers, &target);
                        assert_eq!(das.choices, choices, "{at}: choices");
                        let soft_bits =
                            |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            soft_bits(&das.soft[..softs.iter().map(Vec::len).sum()]),
                            soft_bits(&softs.concat()),
                            "{at}: relaxed samples"
                        );
                        assert_eq!(cost.to_bits(), want_cost.to_bits(), "{at}: cost");
                        assert_eq!(report_bits(&report), report_bits(&want), "{at}: report");
                        assert_eq!(logit_bits(&das), logit_bits(&reference.0), "{at}: logits");
                        assert_eq!(das.export_state(), reference.0.export_state(), "{at}");
                    }
                    assert_eq!(das.best(layers.len()), reference.0.best(layers.len()));
                }
            }
        }
    }

    #[test]
    fn in_place_softmax_matches_the_reference() {
        let rows: [&[f64]; 4] = [
            &[0.0, 0.0, 0.0],
            &[-3.5, 1.25, 700.0, -700.0, 2.0],
            &[1e-300, -1e-300],
            &[42.0],
        ];
        for row in rows {
            let mut v = row.to_vec();
            softmax_in_place(&mut v);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v), bits(&softmax64(row)), "{row:?}");
        }
    }

    #[test]
    fn cache_rebuilds_only_on_a_real_context_change() {
        let target = FpgaTarget::zc706();
        let a = vanilla(4, 12, 12, 32, 0).layer_descs();
        let b = resnet(14, 4, 12, 12, 8, 32, 0).layer_descs();
        let mut cached = DasEngine::new(DasConfig::default(), 37);
        let mut direct = DasEngine::new(
            DasConfig {
                memo_log2: 0,
                ..DasConfig::default()
            },
            37,
        );
        let generations = |das: &DasEngine| das.cache_stats().unwrap_or_default().generations;
        let step_both = |cached: &mut DasEngine, direct: &mut DasEngine, layers, at: &str| {
            let (want, want_cost) = direct.step(layers, &target);
            let (report, cost) = cached.step(layers, &target);
            assert_eq!(cost.to_bits(), want_cost.to_bits(), "{at}");
            assert_eq!(report_bits(&report), report_bits(&want), "{at}");
        };
        // Alternate between the two networks; an equal copy of the bound
        // network is the same context.
        let a_copy = a.clone();
        let schedule = [&a, &a, &b, &b, &b, &a, &a_copy, &b, &a, &b, &b, &a_copy];
        let mut changes = 0;
        let mut bound: Option<&Vec<LayerDesc>> = None;
        for (i, &layers) in schedule.iter().enumerate() {
            if bound != Some(layers) {
                changes += 1;
                bound = Some(layers);
            }
            step_both(
                &mut cached,
                &mut direct,
                layers,
                &format!("schedule step {i}"),
            );
            assert_eq!(generations(&cached), changes, "schedule step {i}");
        }
        // New cost weights are one more change, then none while they stay.
        let weights = CostWeights {
            energy_weight: 0.5,
            ..CostWeights::default()
        };
        cached.config.cost = weights;
        direct.config.cost = weights;
        for i in 0..3 {
            step_both(&mut cached, &mut direct, &a, &format!("weighted step {i}"));
            assert_eq!(generations(&cached), changes + 1, "weighted step {i}");
        }
    }

    #[test]
    fn das_improves_over_its_first_samples() {
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut das = DasEngine::new(DasConfig::default(), 3);
        let early: f64 = (0..10)
            .map(|_| das.step(&layers, &target).1)
            .sum::<f64>()
            / 10.0;
        for _ in 0..300 {
            let _ = das.step(&layers, &target);
        }
        let best = das.best(layers.len());
        let final_cost = PerfModel::cost(
            &PerfModel::evaluate(&best, &layers, &target),
            &target,
            &CostWeights::default(),
        );
        assert!(
            final_cost < early,
            "DAS should beat its early average: {final_cost} vs {early}"
        );
    }

    #[test]
    fn das_entropy_decreases() {
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut das = DasEngine::new(DasConfig::default(), 5);
        let h0 = das.mean_entropy();
        for _ in 0..200 {
            let _ = das.step(&layers, &target);
        }
        assert!(das.mean_entropy() < h0);
    }

    #[test]
    fn das_final_design_respects_dsp_budget() {
        let net = resnet(14, 4, 12, 12, 8, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut das = DasEngine::new(DasConfig::default(), 7);
        let best = das.run(&layers, &target, 400);
        let report = PerfModel::evaluate(&best, &layers, &target);
        assert!(
            report.feasible,
            "resource penalty should drive the search feasible: {report:?}"
        );
    }

    #[test]
    fn deeper_network_reuses_prefix_of_phi() {
        let target = FpgaTarget::zc706();
        let shallow = vanilla(4, 12, 12, 32, 0).layer_descs();
        let deep = resnet(14, 4, 12, 12, 8, 32, 0).layer_descs();
        let mut das = DasEngine::new(DasConfig::default(), 9);
        let _ = das.step(&shallow, &target);
        let _ = das.step(&deep, &target);
        let a = das.best(shallow.len());
        let b = das.best(deep.len());
        assert_eq!(a.chunks, b.chunks, "chunk knobs are shared");
        assert_eq!(a.assignment.len(), shallow.len());
        assert_eq!(b.assignment.len(), deep.len());
    }

    #[test]
    fn decoded_assignments_are_contiguous() {
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut das = DasEngine::new(DasConfig::default(), 13);
        for _ in 0..25 {
            let _ = das.step(&layers, &target);
            assert!(das.best(layers.len()).assignment_contiguous());
        }
    }

    #[test]
    fn das_is_deterministic_given_seed() {
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let run = |seed| {
            let mut das = DasEngine::new(DasConfig::default(), seed);
            das.run(&layers, &target, 100)
        };
        assert_eq!(run(11), run(11));
        // Different seeds explore differently (overwhelmingly likely).
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn das_with_and_without_cache_are_bit_identical() {
        // The cost cache must be pure acceleration: any deviation in a
        // cached cost would perturb the gradient stream and diverge the
        // runs, so equal final state proves bit-identity end to end.
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut cached = DasEngine::new(DasConfig::default(), 17);
        let mut direct = DasEngine::new(
            DasConfig {
                memo_log2: 0,
                ..DasConfig::default()
            },
            17,
        );
        let best_cached = cached.run(&layers, &target, 150);
        let best_direct = direct.run(&layers, &target, 150);
        assert_eq!(best_cached, best_direct);
        assert_eq!(cached.export_state(), direct.export_state());
        // At 150 hot-temperature iterations the sampler rarely repeats an
        // exact (knobs, assignment) pair, so assert engagement rather
        // than hits — hit-rate behaviour is covered by the memo tests.
        let stats = cached.cache_stats().unwrap_or_default();
        assert!(stats.chunk_misses > 0, "cache never engaged: {stats:?}");
        assert_eq!(direct.cache_stats(), None);
    }

    #[test]
    fn best_choices_decode_to_best() {
        let net = vanilla(4, 12, 12, 32, 0);
        let layers = net.layer_descs();
        let target = FpgaTarget::zc706();
        let mut das = DasEngine::new(DasConfig::default(), 23);
        let _ = das.run(&layers, &target, 50);
        let choices = das.best_choices(layers.len());
        assert_eq!(
            das.config().space.decode(
                das.config().num_chunks,
                layers.len(),
                &choices
            ),
            das.best(layers.len())
        );
    }

    #[test]
    #[should_panic(expected = "deeper")]
    fn exceeding_max_layers_panics() {
        let das = DasEngine::new(
            DasConfig {
                max_layers: 2,
                ..DasConfig::default()
            },
            0,
        );
        let _ = das.decode(&[], 3);
    }
}
