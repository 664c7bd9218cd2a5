//! Transposition-table memoization for the analytical predictor.
//!
//! The DAS sweep, beam search and exhaustive enumeration all draw
//! candidates from a > 10²⁷ joint space and re-run
//! [`PerfModel::evaluate`] from scratch on every one. This module fronts
//! the predictor with two fixed-size, hash-indexed tables in the style of
//! a chess engine's transposition table (packed entries, no `HashMap`, so
//! lookups are allocation-free and iteration-order questions never
//! arise):
//!
//! - a **full-config cost table**: FNV-1a key over the canonical
//!   `(context, choice vector)` or `(context, decoded config)` encoding →
//!   the scalar search cost, so re-visited candidates skip decode and
//!   evaluation entirely;
//! - a **per-chunk partial table**: key over `(context, chunk knobs,
//!   assigned layers, bandwidth share)` → that chunk's
//!   [`ChunkPartial`], so candidates differing in a single knob `φ^m` or
//!   only in an assignment boundary reuse every unchanged chunk's layer
//!   sweep.
//!
//! Entries carry a **generation tag**: switching evaluation context
//! (network, target, weights or space) bumps the generation, lazily
//! invalidating stale entries instead of clearing the tables. Collisions
//! within a slot follow an always-replace scheme — newer results win —
//! and full 64-bit keys are verified on probe, so a stale or aliased slot
//! reads as a miss, never as a wrong cost. Cached results are
//! **bit-identical** to direct evaluation by construction: hits return
//! values produced by the exact same code path
//! ([`PerfModel::chunk_partial`] / [`PerfModel::assemble`]) that the
//! direct [`PerfModel::evaluate_dims`] runs.

use crate::predictor::{ChunkLayers, ChunkPartial, CostWeights, LayerDims, PerfModel, PerfReport};
use crate::space::SearchSpace;
use crate::template::{AcceleratorConfig, ChunkConfig, Dataflow, NocTopology};
use crate::zc706::FpgaTarget;
use a3cs_nn::LayerDesc;
use serde::{Deserialize, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-level FNV-1a: each `u64` is folded in one xor-multiply round.
/// Word granularity (instead of byte granularity) keeps hashing an order
/// of magnitude cheaper than the predictor sweep it replaces while
/// remaining fully deterministic.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// Start from the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        KeyHasher(FNV_OFFSET)
    }

    /// Start from the offset basis folded with `seed` (used to chain a
    /// pre-computed context key into a candidate key).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut h = Self::new();
        h.word(seed);
        h
    }

    /// Fold one 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Fold a `usize` (widening to 64 bits is lossless on all supported
    /// targets).
    pub fn index(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Fold an `f64` by its bit pattern.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The accumulated key.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

fn noc_tag(noc: NocTopology) -> u64 {
    match noc {
        NocTopology::Broadcast => 0,
        NocTopology::Systolic => 1,
        NocTopology::Multicast => 2,
    }
}

fn dataflow_tag(dataflow: Dataflow) -> u64 {
    match dataflow {
        Dataflow::OutputStationary => 0,
        Dataflow::WeightStationary => 1,
        Dataflow::RowStationary => 2,
    }
}

/// Canonical key of one chunk's knob values.
#[must_use]
pub fn chunk_key(chunk: &ChunkConfig) -> u64 {
    let mut h = KeyHasher::new();
    h.index(chunk.pe.rows);
    h.index(chunk.pe.cols);
    h.word(noc_tag(chunk.noc));
    h.word(dataflow_tag(chunk.dataflow));
    h.index(chunk.buffers.input_kb);
    h.index(chunk.buffers.weight_kb);
    h.index(chunk.buffers.output_kb);
    h.index(chunk.tiling.tm);
    h.index(chunk.tiling.tn);
    h.index(chunk.tiling.tr);
    h.index(chunk.tiling.tc);
    h.finish()
}

fn fold_dims(h: &mut KeyHasher, d: &LayerDims) {
    h.index(d.m);
    h.index(d.n);
    h.index(d.r);
    h.index(d.c);
    h.index(d.k);
    h.index(d.stride);
    h.word(u64::from(d.depthwise));
}

/// Hit/miss/eviction counters of a [`CachedCostModel`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Full-config cost-table hits (decode + evaluation skipped).
    pub hits: u64,
    /// Full-config cost-table misses (predictor actually ran).
    pub misses: u64,
    /// Live full-config entries displaced by newer results.
    pub evictions: u64,
    /// Per-chunk partial-table hits (one chunk's layer sweep skipped).
    pub chunk_hits: u64,
    /// Per-chunk partial-table misses.
    pub chunk_misses: u64,
    /// Live per-chunk entries displaced by newer results.
    pub chunk_evictions: u64,
    /// Context switches that bumped the generation tag.
    pub generations: u64,
}

impl MemoStats {
    /// Full predictor evaluations avoided (full-table hits).
    #[must_use]
    pub fn evals_saved(&self) -> u64 {
        self.hits
    }

    /// Full-table hit rate in `[0, 1]` (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Per-chunk partial-table hit rate in `[0, 1]`.
    #[must_use]
    pub fn chunk_hit_rate(&self) -> f64 {
        let total = self.chunk_hits + self.chunk_misses;
        if total == 0 {
            0.0
        } else {
            self.chunk_hits as f64 / total as f64
        }
    }
}

/// The evaluation context a cost model is currently bound to: search
/// space, chunk count, network, FPGA target and cost weights. Everything
/// a choice vector's cost depends on besides the choices themselves.
#[derive(Debug, Clone)]
struct Context {
    space: SearchSpace,
    num_chunks: usize,
    dims: Vec<LayerDims>,
    target: FpgaTarget,
    weights: CostWeights,
    /// Digest of all of the above; chained into every candidate key.
    key: u64,
}

impl Context {
    fn build(
        space: &SearchSpace,
        num_chunks: usize,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        weights: &CostWeights,
    ) -> Context {
        let dims: Vec<LayerDims> = layers.iter().map(LayerDims::from_desc).collect();
        let mut h = KeyHasher::new();
        h.index(num_chunks);
        for sizes in space.knob_sizes(num_chunks, 0) {
            h.index(sizes);
        }
        for list in [
            &space.pe_rows,
            &space.pe_cols,
            &space.buffer_totals_kb,
            &space.tm,
            &space.tn,
            &space.tr,
            &space.tc,
        ] {
            for &v in list {
                h.index(v);
            }
        }
        for noc in &space.nocs {
            h.word(noc_tag(*noc));
        }
        for dataflow in &space.dataflows {
            h.word(dataflow_tag(*dataflow));
        }
        h.index(dims.len());
        for d in &dims {
            fold_dims(&mut h, d);
        }
        h.index(target.dsp_limit);
        h.index(target.bram_kb_limit);
        h.float(target.clock_mhz);
        h.float(target.dram_gbps);
        h.float(weights.resource_penalty);
        h.float(weights.energy_weight);
        Context {
            space: space.clone(),
            num_chunks,
            dims,
            target: *target,
            weights: *weights,
            key: h.finish(),
        }
    }

    /// Whether [`Context::build`] on these inputs would rebuild this
    /// context: every value the digest folds is equal, floats by their
    /// bits (as the digest folds them).
    fn matches(
        &self,
        space: &SearchSpace,
        num_chunks: usize,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        weights: &CostWeights,
    ) -> bool {
        let same_bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
        self.num_chunks == num_chunks
            && self.target.dsp_limit == target.dsp_limit
            && self.target.bram_kb_limit == target.bram_kb_limit
            && same_bits(self.target.clock_mhz, target.clock_mhz)
            && same_bits(self.target.dram_gbps, target.dram_gbps)
            && same_bits(self.weights.resource_penalty, weights.resource_penalty)
            && same_bits(self.weights.energy_weight, weights.energy_weight)
            && self.dims.len() == layers.len()
            && self
                .dims
                .iter()
                .zip(layers)
                .all(|(d, layer)| *d == LayerDims::from_desc(layer))
            && self.space == *space
    }
}

/// A cost model the search engines evaluate candidates through:
/// [`DirectCost`] recomputes every candidate, [`CachedCostModel`]
/// memoizes. Both are bound to an evaluation context with
/// [`CostModel::begin`] and then score canonical choice vectors.
pub trait CostModel {
    /// Bind the model to an evaluation context. Must be called before any
    /// scoring; calling it again with different arguments re-binds (and,
    /// for the cached model, invalidates stale entries via the generation
    /// tag). The cached model returns at once, without allocating or
    /// hashing, when the arguments equal the bound context's.
    fn begin(
        &mut self,
        space: &SearchSpace,
        num_chunks: usize,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        weights: &CostWeights,
    );

    /// Scalar search cost of the candidate encoded by `choices` (the
    /// canonical `(chunk knobs…, assignment)` vector of
    /// [`SearchSpace::decode`], assignment tail already legal).
    fn cost_choices(&mut self, choices: &[usize]) -> f64;

    /// Full performance report of the candidate encoded by `choices`.
    fn evaluate_choices(&mut self, choices: &[usize]) -> PerfReport;

    /// Cheap lookup: the candidate's cost if it is already known, with no
    /// evaluation and no table mutation. The uncached model knows
    /// nothing.
    #[must_use]
    fn probe_choices(&self, choices: &[usize]) -> Option<f64> {
        let _ = choices;
        None
    }
}

/// The uncached baseline: decodes and evaluates every candidate from
/// scratch. Exists so benches and equivalence tests can run the exact
/// same search code with memoization switched off.
#[derive(Debug, Default)]
pub struct DirectCost {
    ctx: Option<Context>,
}

impl DirectCost {
    /// Create an unbound direct model.
    #[must_use]
    pub fn new() -> Self {
        DirectCost { ctx: None }
    }
}

fn bound_ctx(ctx: &Option<Context>) -> &Context {
    assert!(ctx.is_some(), "call begin() before scoring candidates");
    match ctx {
        Some(c) => c,
        None => unreachable!("asserted bound just above"),
    }
}

impl CostModel for DirectCost {
    fn begin(
        &mut self,
        space: &SearchSpace,
        num_chunks: usize,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        weights: &CostWeights,
    ) {
        self.ctx = Some(Context::build(space, num_chunks, layers, target, weights));
    }

    fn cost_choices(&mut self, choices: &[usize]) -> f64 {
        let report = self.evaluate_choices(choices);
        let ctx = bound_ctx(&self.ctx);
        PerfModel::cost(&report, &ctx.target, &ctx.weights)
    }

    fn evaluate_choices(&mut self, choices: &[usize]) -> PerfReport {
        let ctx = bound_ctx(&self.ctx);
        let accel = ctx
            .space
            .decode(ctx.num_chunks, ctx.dims.len(), choices);
        PerfModel::evaluate_dims(&accel, &ctx.dims, &ctx.target)
    }
}

/// One packed full-config entry: verified 64-bit key, scalar cost,
/// generation tag (`generation == 0` marks an empty slot).
#[derive(Debug, Clone, Copy)]
struct CostEntry {
    key: u64,
    cost: f64,
    generation: u32,
}

const EMPTY_COST: CostEntry = CostEntry {
    key: 0,
    cost: 0.0,
    generation: 0,
};

/// One packed per-chunk entry mirroring [`ChunkPartial`].
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    key: u64,
    cycles: f64,
    energy: f64,
    thrashing: u32,
    generation: u32,
}

const EMPTY_CHUNK: ChunkEntry = ChunkEntry {
    key: 0,
    cycles: 0.0,
    energy: 0.0,
    thrashing: 0,
    generation: 0,
};

/// The memoizing cost model: a transposition-table cost cache fronting
/// [`PerfModel`]. See the module docs for the table layout and the
/// bit-identity argument.
#[derive(Debug)]
pub struct CachedCostModel {
    cost_table: Vec<CostEntry>,
    chunk_table: Vec<ChunkEntry>,
    mask: u64,
    generation: u32,
    stats: MemoStats,
    ctx: Option<Context>,
    /// [`CachedCostModel::evaluate_config`]'s working storage, kept
    /// between calls so an evaluation allocates only its report.
    groups: ChunkLayers,
    partials: Vec<ChunkPartial>,
}

impl CachedCostModel {
    /// Create a cache with `2^log2_entries` slots per table (clamped to
    /// `[4, 24]`; the default [`DasConfig::memo_log2`] is 14 ≈ 16k
    /// entries ≈ 0.9 MiB total).
    ///
    /// [`DasConfig::memo_log2`]: crate::DasConfig::memo_log2
    #[must_use]
    pub fn new(log2_entries: u32) -> Self {
        let log2 = log2_entries.clamp(4, 24);
        let entries = 1usize << log2;
        CachedCostModel {
            cost_table: vec![EMPTY_COST; entries],
            chunk_table: vec![EMPTY_CHUNK; entries],
            mask: (entries - 1) as u64,
            generation: 1,
            stats: MemoStats::default(),
            ctx: None,
            groups: ChunkLayers::default(),
            partials: Vec::new(),
        }
    }

    /// Counters accumulated since construction (or the last
    /// [`CachedCostModel::reset_stats`]).
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Zero the counters (table contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MemoStats::default();
    }

    /// Slots per table.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cost_table.len()
    }

    /// Candidate key: context digest chained with the choice vector.
    fn choices_key(ctx: &Context, choices: &[usize]) -> u64 {
        let mut h = KeyHasher::seeded(ctx.key);
        h.index(choices.len());
        for &c in choices {
            h.index(c);
        }
        h.finish()
    }

    /// Candidate key for an already-decoded config (used by engines that
    /// hold an [`AcceleratorConfig`] rather than a choice vector; the
    /// decoded knob values are the canonical encoding here).
    fn config_key(ctx: &Context, accel: &AcceleratorConfig) -> u64 {
        let mut h = KeyHasher::seeded(ctx.key);
        h.index(accel.chunks.len());
        for chunk in &accel.chunks {
            h.word(chunk_key(chunk));
        }
        h.index(accel.assignment.len());
        for &a in &accel.assignment {
            h.index(a);
        }
        h.finish()
    }

    fn probe_cost(&self, key: u64) -> Option<f64> {
        let entry = &self.cost_table[(key & self.mask) as usize];
        (entry.generation == self.generation && entry.key == key).then_some(entry.cost)
    }

    fn insert_cost(&mut self, key: u64, cost: f64) {
        let slot = (key & self.mask) as usize;
        let entry = &mut self.cost_table[slot];
        if entry.generation == self.generation && entry.key != key && entry.key != 0 {
            self.stats.evictions += 1;
            telemetry::MEMO_EVICTIONS.add(1);
        }
        *entry = CostEntry {
            key,
            cost,
            generation: self.generation,
        };
    }

    /// Memoized [`PerfModel::evaluate`] of a decoded config against the
    /// bound context: per-chunk partials are fetched from the chunk table
    /// when known and recomputed (and stored) when not, then assembled
    /// exactly as the direct path assembles them.
    ///
    /// # Panics
    ///
    /// Panics if [`CostModel::begin`] has not been called, or if `accel`
    /// does not cover the bound network.
    pub fn evaluate_config(&mut self, accel: &AcceleratorConfig) -> PerfReport {
        let CachedCostModel {
            chunk_table,
            mask,
            generation,
            stats,
            ctx,
            groups,
            partials,
            ..
        } = self;
        let ctx = bound_ctx(ctx);
        assert_eq!(
            accel.assignment.len(),
            ctx.dims.len(),
            "assignment must cover every layer of the bound network"
        );
        assert!(accel.assignment_valid(), "assignment indexes missing chunk");
        groups.fill(accel);
        let bw_share = PerfModel::bandwidth_share(groups, &ctx.target);
        partials.clear();
        for (c, chunk) in accel.chunks.iter().enumerate() {
            let layer_ids = groups.chunk(c);
            let mut h = KeyHasher::seeded(ctx.key);
            h.word(chunk_key(chunk));
            h.float(bw_share);
            h.index(layer_ids.len());
            for &l in layer_ids {
                h.index(l);
            }
            let key = h.finish();
            let slot = (key & *mask) as usize;
            let entry = &mut chunk_table[slot];
            if entry.generation == *generation && entry.key == key {
                stats.chunk_hits += 1;
                telemetry::MEMO_CHUNK_HITS.add(1);
                partials.push(ChunkPartial {
                    cycles: entry.cycles,
                    energy: entry.energy,
                    thrashing: entry.thrashing as usize,
                });
                continue;
            }
            stats.chunk_misses += 1;
            if entry.generation == *generation && entry.key != 0 {
                stats.chunk_evictions += 1;
                telemetry::MEMO_EVICTIONS.add(1);
            }
            let partial = PerfModel::chunk_partial(chunk, &ctx.dims, layer_ids, bw_share);
            *entry = ChunkEntry {
                key,
                cycles: partial.cycles,
                energy: partial.energy,
                // Layer counts are far below 2^32; widening back is
                // lossless.
                thrashing: partial.thrashing as u32,
                generation: *generation,
            };
            partials.push(partial);
        }
        PerfModel::assemble(accel, &ctx.target, partials)
    }

    /// Memoized scalar cost of a decoded config (full-table fast path,
    /// falling back to [`CachedCostModel::evaluate_config`] on a miss).
    ///
    /// # Panics
    ///
    /// Panics if [`CostModel::begin`] has not been called, or if `accel`
    /// does not cover the bound network.
    pub fn cost_config(&mut self, accel: &AcceleratorConfig) -> f64 {
        let key = Self::config_key(bound_ctx(&self.ctx), accel);
        if let Some(cost) = self.probe_cost(key) {
            self.stats.hits += 1;
            telemetry::MEMO_HITS.add(1);
            telemetry::MEMO_EVALS_SAVED.add(1);
            return cost;
        }
        self.stats.misses += 1;
        telemetry::MEMO_MISSES.add(1);
        let report = self.evaluate_config(accel);
        let ctx = bound_ctx(&self.ctx);
        let cost = PerfModel::cost(&report, &ctx.target, &ctx.weights);
        self.insert_cost(key, cost);
        cost
    }
}

impl CostModel for CachedCostModel {
    fn begin(
        &mut self,
        space: &SearchSpace,
        num_chunks: usize,
        layers: &[LayerDesc],
        target: &FpgaTarget,
        weights: &CostWeights,
    ) {
        // A search re-binds before every step, almost always to the same
        // context: comparing the inputs is far cheaper than rebuilding
        // and re-hashing them.
        if self
            .ctx
            .as_ref()
            .is_some_and(|c| c.matches(space, num_chunks, layers, target, weights))
        {
            return;
        }
        // Only a *changed* digest pays the (lazy) invalidation cost of a
        // generation bump.
        let next = Context::build(space, num_chunks, layers, target, weights);
        let changed = self.ctx.as_ref().is_none_or(|c| c.key != next.key);
        if changed {
            self.generation = self.generation.wrapping_add(1).max(1);
            self.stats.generations += 1;
        }
        self.ctx = Some(next);
    }

    fn cost_choices(&mut self, choices: &[usize]) -> f64 {
        let key = Self::choices_key(bound_ctx(&self.ctx), choices);
        if let Some(cost) = self.probe_cost(key) {
            self.stats.hits += 1;
            telemetry::MEMO_HITS.add(1);
            telemetry::MEMO_EVALS_SAVED.add(1);
            return cost;
        }
        self.stats.misses += 1;
        telemetry::MEMO_MISSES.add(1);
        let accel = {
            let ctx = bound_ctx(&self.ctx);
            ctx.space.decode(ctx.num_chunks, ctx.dims.len(), choices)
        };
        let report = self.evaluate_config(&accel);
        let ctx = bound_ctx(&self.ctx);
        let cost = PerfModel::cost(&report, &ctx.target, &ctx.weights);
        self.insert_cost(key, cost);
        cost
    }

    fn evaluate_choices(&mut self, choices: &[usize]) -> PerfReport {
        let accel = {
            let ctx = bound_ctx(&self.ctx);
            ctx.space.decode(ctx.num_chunks, ctx.dims.len(), choices)
        };
        self.evaluate_config(&accel)
    }

    fn probe_choices(&self, choices: &[usize]) -> Option<f64> {
        let ctx = self.ctx.as_ref()?;
        self.probe_cost(Self::choices_key(ctx, choices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tiny_space;
    use a3cs_nn::vanilla;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn layers() -> Vec<LayerDesc> {
        vanilla(4, 12, 12, 32, 0).layer_descs()
    }

    fn random_choices(space: &SearchSpace, chunks: usize, n_layers: usize, rng: &mut StdRng) -> Vec<usize> {
        let sizes = space.knob_sizes(chunks, n_layers);
        let split = space.chunk_knob_sizes().len() * chunks;
        let mut c: Vec<usize> = sizes.iter().map(|&s| rng.gen_range(0..s)).collect();
        c[split..].sort_unstable();
        c
    }

    #[test]
    fn cold_warm_and_config_paths_agree_with_direct() {
        let space = SearchSpace::default();
        let layers = layers();
        let target = FpgaTarget::zc706();
        let weights = CostWeights::default();
        let mut cached = CachedCostModel::new(10);
        let mut direct = DirectCost::new();
        cached.begin(&space, 2, &layers, &target, &weights);
        direct.begin(&space, 2, &layers, &target, &weights);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let c = random_choices(&space, 2, layers.len(), &mut rng);
            let want = direct.cost_choices(&c);
            let cold = cached.cost_choices(&c);
            let warm = cached.cost_choices(&c);
            assert_eq!(want.to_bits(), cold.to_bits());
            assert_eq!(want.to_bits(), warm.to_bits());
            let accel = space.decode(2, layers.len(), &c);
            assert_eq!(want.to_bits(), cached.cost_config(&accel).to_bits());
            assert_eq!(direct.evaluate_choices(&c), cached.evaluate_choices(&c));
        }
        let stats = cached.stats();
        assert!(stats.hits >= 40, "{stats:?}");
        assert!(stats.chunk_hits > 0, "{stats:?}");
    }

    #[test]
    fn eviction_pressure_keeps_costs_identical() {
        // 16 slots, hundreds of distinct candidates: every slot gets
        // displaced many times over and probes must still never return a
        // wrong cost.
        let space = tiny_space();
        let layers = layers();
        let target = FpgaTarget::zc706();
        let weights = CostWeights::default();
        let mut cached = CachedCostModel::new(4);
        let mut direct = DirectCost::new();
        cached.begin(&space, 2, &layers, &target, &weights);
        direct.begin(&space, 2, &layers, &target, &weights);
        let mut rng = StdRng::seed_from_u64(11);
        let pool: Vec<Vec<usize>> = (0..120)
            .map(|_| random_choices(&space, 2, layers.len(), &mut rng))
            .collect();
        for round in 0..3 {
            for c in &pool {
                assert_eq!(
                    direct.cost_choices(c).to_bits(),
                    cached.cost_choices(c).to_bits(),
                    "round {round}"
                );
            }
        }
        assert!(cached.stats().evictions > 0, "{:?}", cached.stats());
    }

    #[test]
    fn context_switch_bumps_generation_and_invalidates() {
        let space = tiny_space();
        let layers = layers();
        let target = FpgaTarget::zc706();
        let mut cached = CachedCostModel::new(8);
        let w0 = CostWeights::default();
        let w1 = CostWeights {
            energy_weight: 1.0,
            ..CostWeights::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_choices(&space, 1, layers.len(), &mut rng);
        cached.begin(&space, 1, &layers, &target, &w0);
        let cost0 = cached.cost_choices(&c);
        cached.begin(&space, 1, &layers, &target, &w1);
        let cost1 = cached.cost_choices(&c);
        assert!(cost1 > cost0, "energy weight must change the cost");
        // Re-binding the original context still yields the original cost.
        cached.begin(&space, 1, &layers, &target, &w0);
        assert_eq!(cost0.to_bits(), cached.cost_choices(&c).to_bits());
        assert!(cached.stats().generations >= 3);
    }

    #[test]
    fn rebind_compares_floats_by_their_bits() {
        // `begin` skips the rebuild only when the digest's inputs are
        // bit-equal: a zero weight that flips sign changes the digest, so
        // it is a new context even though `-0.0 == 0.0`.
        let space = tiny_space();
        let layers = layers();
        let target = FpgaTarget::zc706();
        let zero = CostWeights {
            energy_weight: 0.0,
            ..CostWeights::default()
        };
        let negative_zero = CostWeights {
            energy_weight: -0.0,
            ..CostWeights::default()
        };
        let mut cached = CachedCostModel::new(8);
        let mut direct = DirectCost::new();
        let mut rng = StdRng::seed_from_u64(13);
        let c = random_choices(&space, 2, layers.len(), &mut rng);
        for (i, (weights, generations)) in [
            (zero, 1),
            (zero, 1),
            (negative_zero, 2),
            (negative_zero, 2),
            (zero, 3),
        ]
        .into_iter()
        .enumerate()
        {
            cached.begin(&space, 2, &layers, &target, &weights);
            direct.begin(&space, 2, &layers, &target, &weights);
            assert_eq!(cached.stats().generations, generations, "bind {i}");
            assert_eq!(
                cached.cost_choices(&c).to_bits(),
                direct.cost_choices(&c).to_bits(),
                "bind {i}"
            );
        }
    }

    #[test]
    fn probe_is_read_only() {
        let space = tiny_space();
        let layers = layers();
        let target = FpgaTarget::zc706();
        let weights = CostWeights::default();
        let mut cached = CachedCostModel::new(8);
        cached.begin(&space, 1, &layers, &target, &weights);
        let mut rng = StdRng::seed_from_u64(5);
        let c = random_choices(&space, 1, layers.len(), &mut rng);
        assert_eq!(cached.probe_choices(&c), None);
        let stats_before = cached.stats();
        assert_eq!(stats_before.hits + stats_before.misses, 0);
        let cost = cached.cost_choices(&c);
        assert_eq!(cached.probe_choices(&c), Some(cost));
        assert_eq!(cached.stats().hits, 0, "probe must not count as a hit");
    }
}
