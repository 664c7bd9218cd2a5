//! Analytical accelerator performance predictor (DNN-Chip-Predictor
//! style): latency, throughput, resource and energy estimates for a
//! network running on a chunk-pipelined accelerator.

use crate::template::{AcceleratorConfig, ChunkConfig, Dataflow};
use crate::zc706::FpgaTarget;
use a3cs_nn::{LayerDesc, LayerOp};
use serde::{Deserialize, Serialize};

/// Bytes per operand (16-bit fixed point, the usual FPGA deployment width).
const BYTES: f64 = 2.0;
/// Energy per MAC, pJ (relative units; only ratios matter).
const E_MAC: f64 = 1.0;
/// Energy per DRAM byte, pJ.
const E_DRAM: f64 = 160.0;
/// Energy per on-chip buffer byte, pJ.
const E_SRAM: f64 = 6.0;
/// Per-layer fixed scheduling overhead, cycles.
const LAYER_OVERHEAD: f64 = 256.0;
/// Traffic multiplier applied when a layer's tiles overflow the buffers
/// (thrashing penalty; keeps the search landscape smooth instead of a
/// hard infeasibility cliff).
const THRASH_FACTOR: f64 = 4.0;

/// Canonical loop dimensions of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDims {
    /// Output channels `M`.
    pub m: usize,
    /// Input channels `N` (1 for depthwise).
    pub n: usize,
    /// Output rows `R`.
    pub r: usize,
    /// Output cols `C`.
    pub c: usize,
    /// Kernel size `K`.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Depthwise flag (weights are per-channel).
    pub depthwise: bool,
}

impl LayerDims {
    /// Extract canonical dimensions from a layer descriptor.
    #[must_use]
    pub fn from_desc(desc: &LayerDesc) -> Self {
        match desc.op {
            LayerOp::Conv(d) => LayerDims {
                m: d.out_ch,
                n: d.in_ch,
                r: d.out_h(),
                c: d.out_w(),
                k: d.kernel,
                stride: d.stride,
                depthwise: false,
            },
            LayerOp::DepthwiseConv(d) => LayerDims {
                m: d.out_ch,
                n: 1,
                r: d.out_h(),
                c: d.out_w(),
                k: d.kernel,
                stride: d.stride,
                depthwise: true,
            },
            LayerOp::Fc {
                in_features,
                out_features,
            } => LayerDims {
                m: out_features,
                n: in_features,
                r: 1,
                c: 1,
                k: 1,
                stride: 1,
                depthwise: false,
            },
        }
    }

    /// MAC count.
    #[must_use]
    pub fn macs(&self) -> f64 {
        self.m as f64 * self.n as f64 * (self.k * self.k) as f64 * (self.r * self.c) as f64
    }

    /// Input-activation footprint in bytes. `R` output rows at stride `s`
    /// with a `K`-wide kernel read an input halo of `(R-1)·s + K` rows
    /// (the first output needs `K` rows, each further output `s` more) —
    /// an FC layer (`r = c = k = stride = 1`) reads exactly `n` operands.
    #[must_use]
    pub fn input_bytes(&self) -> f64 {
        let in_h = (self.r.saturating_sub(1)) * self.stride + self.k;
        let in_w = (self.c.saturating_sub(1)) * self.stride + self.k;
        let in_ch = if self.depthwise { self.m } else { self.n };
        in_ch as f64 * (in_h * in_w) as f64 * BYTES
    }

    /// Weight footprint in bytes.
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        let n = if self.depthwise { 1 } else { self.n };
        self.m as f64 * n as f64 * (self.k * self.k) as f64 * BYTES
    }

    /// Output-activation footprint in bytes.
    #[must_use]
    pub fn output_bytes(&self) -> f64 {
        self.m as f64 * (self.r * self.c) as f64 * BYTES
    }
}

/// Performance/resource estimate for one accelerator on one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Pipeline-limited throughput, frames per second.
    pub fps: f64,
    /// Latency of the slowest chunk (the pipeline interval), cycles.
    pub bottleneck_cycles: f64,
    /// End-to-end single-frame latency (sum of chunk latencies), cycles.
    pub total_latency_cycles: f64,
    /// Per-chunk latencies, cycles.
    pub chunk_cycles: Vec<f64>,
    /// DSP usage (1 DSP per PE).
    pub dsp_used: usize,
    /// On-chip buffer usage, KiB.
    pub bram_kb_used: usize,
    /// Energy estimate per frame, relative pJ units.
    pub energy: f64,
    /// Whether DSP and BRAM budgets are met.
    pub feasible: bool,
    /// Number of layers whose tiles overflowed the buffers (thrashing).
    pub thrashing_layers: usize,
}

/// Cycle, energy and thrashing contribution of one chunk's assigned
/// layers — the memoizable unit of [`PerfModel::evaluate`] (see
/// [`PerfModel::chunk_partial`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkPartial {
    /// Total cycles over the chunk's assigned layers.
    pub cycles: f64,
    /// Energy contribution of those layers, relative pJ units.
    pub energy: f64,
    /// Assigned layers whose tiles overflowed the buffers.
    pub thrashing: usize,
}

/// The layers of each chunk, in layer order: a design's assignment
/// grouped by chunk in one flat buffer, so [`ChunkLayers::fill`] reuses
/// its storage from one design to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkLayers {
    /// `ends[c]` is one past chunk `c`'s last entry in `layers`; chunk
    /// `c` starts where chunk `c - 1` ends.
    ends: Vec<usize>,
    layers: Vec<usize>,
}

impl ChunkLayers {
    /// Group `accel`'s layers by chunk (a stable counting sort of the
    /// assignment).
    ///
    /// # Panics
    ///
    /// Panics if an assignment entry indexes a missing chunk.
    pub(crate) fn fill(&mut self, accel: &AcceleratorConfig) {
        let ChunkLayers { ends, layers } = self;
        ends.clear();
        ends.resize(accel.chunks.len(), 0);
        for &chunk in &accel.assignment {
            ends[chunk] += 1;
        }
        // Counts to starts; placing each layer then advances its chunk's
        // start to its end.
        let mut start = 0;
        for end in ends.iter_mut() {
            let count = *end;
            *end = start;
            start += count;
        }
        layers.clear();
        layers.resize(accel.assignment.len(), 0);
        for (layer, &chunk) in accel.assignment.iter().enumerate() {
            layers[ends[chunk]] = layer;
            ends[chunk] += 1;
        }
    }

    /// Chunk `c`'s layer indices, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a chunk of the last filled design.
    #[must_use]
    pub(crate) fn chunk(&self, c: usize) -> &[usize] {
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.layers[start..self.ends[c]]
    }

    /// Chunks with at least one layer.
    #[must_use]
    pub(crate) fn active(&self) -> usize {
        (0..self.ends.len())
            .filter(|&c| !self.chunk(c).is_empty())
            .count()
    }
}

/// Weights of the scalar search cost derived from a [`PerfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Multiplier on resource violations (relative to the budget).
    pub resource_penalty: f64,
    /// Weight of the energy term relative to latency (0 = latency only).
    pub energy_weight: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            resource_penalty: 10.0,
            energy_weight: 0.0,
        }
    }
}

/// The analytical performance model.
///
/// The model follows the roofline-style methodology of DNN-Chip Predictor:
/// per layer, compute cycles are `MACs / (active PEs × NoC efficiency)` and
/// memory cycles are `DRAM traffic / bandwidth share`, where traffic is
/// derived from the tiling trip counts of the chunk's dataflow; the two
/// overlap under double buffering, so the layer costs their maximum.
/// Chunks run as a pipeline: throughput is set by the slowest chunk.
pub struct PerfModel;

impl PerfModel {
    /// Cycles one layer takes on `chunk`, given `bw_share` DRAM bytes per
    /// cycle. Also reports whether the layer's tiles overflowed the
    /// buffers.
    #[must_use]
    pub fn layer_cycles(chunk: &ChunkConfig, dims: &LayerDims, bw_share: f64) -> (f64, bool) {
        let t = &chunk.tiling;
        let tm = t.tm.min(dims.m).max(1);
        let tn = t.tn.min(dims.n).max(1);
        let tr = t.tr.min(dims.r).max(1);
        let tc = t.tc.min(dims.c).max(1);

        // --- Compute: PEs map output channels × output pixels.
        let lanes_ch = chunk.pe.rows.min(tm).max(1);
        let lanes_px = chunk.pe.cols.min(tr * tc).max(1);
        let lanes = (lanes_ch * lanes_px) as f64;
        let mut compute = dims.macs() / (lanes * chunk.noc.efficiency());
        // Systolic fill overhead per tile wave.
        let tiles = (div_ceil(dims.m, tm) * div_ceil(dims.n, tn) * div_ceil(dims.r, tr)
            * div_ceil(dims.c, tc)) as f64;
        compute += tiles * (chunk.pe.rows + chunk.pe.cols) as f64 * 0.1;

        // --- Memory traffic via tiling trip counts, adjusted by dataflow.
        let trips_in_base = div_ceil(dims.m, tm) as f64;
        let trips_w_base = (div_ceil(dims.r, tr) * div_ceil(dims.c, tc)) as f64;
        let trips_out_base = (2 * div_ceil(dims.n, tn) - 1) as f64;
        let (trips_in, trips_w, trips_out) = match chunk.dataflow {
            Dataflow::OutputStationary => (trips_in_base, trips_w_base, 1.0),
            Dataflow::WeightStationary => (trips_in_base, 1.0, trips_out_base),
            Dataflow::RowStationary => (
                (trips_in_base / 2.0).max(1.0),
                (trips_w_base / 2.0).max(1.0),
                div_ceil(dims.n, tn) as f64,
            ),
        };
        let mut traffic = dims.input_bytes() * trips_in
            + dims.weight_bytes() * trips_w
            + dims.output_bytes() * trips_out;

        // --- Buffer feasibility (double-buffered tiles must fit). A tile
        // of `Tr` output rows reads a `(Tr-1)·stride + K` input halo.
        let in_tile = tn as f64
            * (((tr - 1) * dims.stride + dims.k) * ((tc - 1) * dims.stride + dims.k)) as f64
            * BYTES;
        let w_tile = if dims.depthwise {
            tm as f64 * (dims.k * dims.k) as f64 * BYTES
        } else {
            tm as f64 * tn as f64 * (dims.k * dims.k) as f64 * BYTES
        };
        let out_tile = tm as f64 * (tr * tc) as f64 * BYTES;
        let thrash = 2.0 * in_tile > chunk.buffers.input_kb as f64 * 1024.0
            || 2.0 * w_tile > chunk.buffers.weight_kb as f64 * 1024.0
            || 2.0 * out_tile > chunk.buffers.output_kb as f64 * 1024.0;
        if thrash {
            traffic *= THRASH_FACTOR;
        }

        let memory = traffic / bw_share.max(1e-9);
        (compute.max(memory) + LAYER_OVERHEAD, thrash)
    }

    /// Evaluate `accel` running `layers` on `target`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match `layers`, or indexes
    /// a missing chunk.
    #[must_use]
    pub fn evaluate(
        accel: &AcceleratorConfig,
        layers: &[LayerDesc],
        target: &FpgaTarget,
    ) -> PerfReport {
        let dims: Vec<LayerDims> = layers.iter().map(LayerDims::from_desc).collect();
        Self::evaluate_dims(accel, &dims, target)
    }

    /// [`PerfModel::evaluate`] over pre-extracted [`LayerDims`] — the form
    /// the memoizing model (`memo.rs`) reuses so cached and direct paths
    /// share one code path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match `dims`, or indexes a
    /// missing chunk.
    #[must_use]
    pub fn evaluate_dims(
        accel: &AcceleratorConfig,
        dims: &[LayerDims],
        target: &FpgaTarget,
    ) -> PerfReport {
        assert_eq!(
            accel.assignment.len(),
            dims.len(),
            "assignment must cover every layer"
        );
        assert!(accel.assignment_valid(), "assignment indexes missing chunk");
        let mut groups = ChunkLayers::default();
        groups.fill(accel);
        let bw_share = Self::bandwidth_share(&groups, target);
        let partials: Vec<ChunkPartial> = accel
            .chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| Self::chunk_partial(chunk, dims, groups.chunk(c), bw_share))
            .collect();
        Self::assemble(accel, target, &partials)
    }

    /// DRAM bytes per cycle available to each *active* chunk of the design
    /// `groups` was filled from. Bandwidth is shared only among chunks
    /// with at least one assigned layer: a chunk that never issues a DRAM
    /// request consumes no bandwidth, so a 4-chunk design routing every
    /// layer to chunk 0 costs exactly what the 1-chunk design costs.
    #[must_use]
    pub(crate) fn bandwidth_share(groups: &ChunkLayers, target: &FpgaTarget) -> f64 {
        target.dram_bytes_per_cycle() / groups.active().max(1) as f64
    }

    /// Cycle, energy and thrashing contribution of the layers `assigned`
    /// to one chunk, accumulated in `assigned` order. This is the unit the
    /// transposition-table cache memoizes: its result depends only on the
    /// chunk's knobs, the assigned layers' dimensions and the bandwidth
    /// share.
    #[must_use]
    pub fn chunk_partial(
        chunk: &ChunkConfig,
        dims: &[LayerDims],
        assigned: &[usize],
        bw_share: f64,
    ) -> ChunkPartial {
        let mut partial = ChunkPartial {
            cycles: 0.0,
            energy: 0.0,
            thrashing: 0,
        };
        for &layer in assigned {
            let d = &dims[layer];
            let (cycles, thrash) = Self::layer_cycles(chunk, d, bw_share);
            partial.cycles += cycles;
            partial.thrashing += usize::from(thrash);
            let macs = d.macs();
            let traffic = d.input_bytes() + d.weight_bytes() + d.output_bytes();
            partial.energy += macs * (E_MAC + chunk.noc.energy_per_hop())
                + traffic * E_DRAM
                + macs * 0.1 * E_SRAM;
        }
        partial
    }

    /// Assemble a [`PerfReport`] from per-chunk partials (one per chunk,
    /// in chunk order). Shared by the direct and memoized paths so both
    /// produce bit-identical reports.
    #[must_use]
    pub fn assemble(
        accel: &AcceleratorConfig,
        target: &FpgaTarget,
        partials: &[ChunkPartial],
    ) -> PerfReport {
        let chunk_cycles: Vec<f64> = partials.iter().map(|p| p.cycles).collect();
        let bottleneck = chunk_cycles.iter().copied().fold(0.0, f64::max);
        let total: f64 = chunk_cycles.iter().sum();
        let energy: f64 = partials.iter().map(|p| p.energy).sum();
        let thrashing_layers: usize = partials.iter().map(|p| p.thrashing).sum();
        let dsp_used = accel.total_pes();
        let bram_kb_used = accel.total_buffer_kb();
        let feasible = dsp_used <= target.dsp_limit && bram_kb_used <= target.bram_kb_limit;
        PerfReport {
            fps: if bottleneck > 0.0 {
                target.clock_hz() / bottleneck
            } else {
                f64::INFINITY
            },
            bottleneck_cycles: bottleneck,
            total_latency_cycles: total,
            chunk_cycles,
            dsp_used,
            bram_kb_used,
            energy,
            feasible,
            thrashing_layers,
        }
    }

    /// Scalar search cost (`L_cost` of Eq. 4/9): pipeline-interval cycles,
    /// inflated by resource violations and optionally energy.
    #[must_use]
    pub fn cost(report: &PerfReport, target: &FpgaTarget, weights: &CostWeights) -> f64 {
        let dsp_over =
            (report.dsp_used as f64 - target.dsp_limit as f64).max(0.0) / target.dsp_limit as f64;
        let bram_over = (report.bram_kb_used as f64 - target.bram_kb_limit as f64).max(0.0)
            / target.bram_kb_limit as f64;
        let penalty = 1.0 + weights.resource_penalty * (dsp_over + bram_over);
        report.bottleneck_cycles * penalty + weights.energy_weight * report.energy
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{BufferAlloc, NocTopology, PeArray, Tiling};
    use a3cs_nn::{ConvDims, LayerOp};

    fn conv_layer(in_ch: usize, out_ch: usize, hw: usize, k: usize) -> LayerDesc {
        LayerDesc {
            name: "l".into(),
            op: LayerOp::Conv(ConvDims {
                in_ch,
                out_ch,
                kernel: k,
                stride: 1,
                padding: k / 2,
                in_h: hw,
                in_w: hw,
            }),
        }
    }

    fn chunk(rows: usize, cols: usize) -> ChunkConfig {
        ChunkConfig {
            pe: PeArray { rows, cols },
            noc: NocTopology::Systolic,
            dataflow: Dataflow::OutputStationary,
            buffers: BufferAlloc {
                input_kb: 64,
                weight_kb: 64,
                output_kb: 32,
            },
            tiling: Tiling {
                tm: 16,
                tn: 16,
                tr: 8,
                tc: 8,
            },
        }
    }

    fn single_chunk_accel(rows: usize, cols: usize, layers: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            chunks: vec![chunk(rows, cols)],
            assignment: vec![0; layers],
        }
    }

    #[test]
    fn more_pes_reduce_latency() {
        let layers = vec![conv_layer(16, 32, 16, 3); 4];
        let target = FpgaTarget::zc706();
        let small = PerfModel::evaluate(&single_chunk_accel(4, 4, 4), &layers, &target);
        let large = PerfModel::evaluate(&single_chunk_accel(16, 16, 4), &layers, &target);
        assert!(large.fps > small.fps, "{} !> {}", large.fps, small.fps);
    }

    #[test]
    fn dsp_budget_flags_infeasible() {
        let layers = vec![conv_layer(8, 8, 8, 3)];
        let target = FpgaTarget::zc706();
        let ok = PerfModel::evaluate(&single_chunk_accel(16, 16, 1), &layers, &target);
        assert!(ok.feasible);
        let over = AcceleratorConfig {
            chunks: vec![chunk(24, 16), chunk(24, 16), chunk(16, 16)],
            assignment: vec![0],
        };
        let bad = PerfModel::evaluate(&over, &layers, &target);
        assert!(bad.dsp_used > 900);
        assert!(!bad.feasible);
        // Cost punishes the violation.
        let w = CostWeights::default();
        assert!(
            PerfModel::cost(&bad, &target, &w)
                > bad.bottleneck_cycles
        );
    }

    #[test]
    fn pipeline_throughput_follows_bottleneck() {
        let layers = vec![conv_layer(16, 16, 16, 3), conv_layer(16, 16, 16, 3)];
        let target = FpgaTarget::zc706();
        // Balanced two-chunk pipeline beats one chunk doing both layers.
        let pipelined = AcceleratorConfig {
            chunks: vec![chunk(8, 8), chunk(8, 8)],
            assignment: vec![0, 1],
        };
        let sequential = AcceleratorConfig {
            chunks: vec![chunk(8, 8), chunk(8, 8)],
            assignment: vec![0, 0],
        };
        let p = PerfModel::evaluate(&pipelined, &layers, &target);
        let s = PerfModel::evaluate(&sequential, &layers, &target);
        assert!(p.fps > s.fps);
        // Total single-frame latency is similar (same work).
        assert!((p.total_latency_cycles / s.total_latency_cycles - 1.0).abs() < 0.3);
    }

    #[test]
    fn tiny_buffers_trigger_thrashing_penalty() {
        let layers = vec![conv_layer(32, 64, 16, 3)];
        let target = FpgaTarget::zc706();
        let mut starved = single_chunk_accel(8, 8, 1);
        starved.chunks[0].buffers = BufferAlloc {
            input_kb: 1,
            weight_kb: 1,
            output_kb: 1,
        };
        let healthy = PerfModel::evaluate(&single_chunk_accel(8, 8, 1), &layers, &target);
        let thrashed = PerfModel::evaluate(&starved, &layers, &target);
        assert_eq!(healthy.thrashing_layers, 0);
        assert_eq!(thrashed.thrashing_layers, 1);
        assert!(thrashed.bottleneck_cycles >= healthy.bottleneck_cycles);
    }

    #[test]
    fn dataflows_change_traffic_profile() {
        // A layer with huge weights relative to activations should prefer
        // weight-stationary.
        let fat_fc = LayerDesc {
            name: "fc".into(),
            op: LayerOp::Fc {
                in_features: 4096,
                out_features: 512,
            },
        };
        let target = FpgaTarget::zc706();
        let mut ws = single_chunk_accel(8, 8, 1);
        ws.chunks[0].dataflow = Dataflow::WeightStationary;
        let mut os = single_chunk_accel(8, 8, 1);
        os.chunks[0].dataflow = Dataflow::OutputStationary;
        let fat_fc = [fat_fc];
        let r_ws = PerfModel::evaluate(&ws, &fat_fc, &target);
        let r_os = PerfModel::evaluate(&os, &fat_fc, &target);
        assert!(
            r_ws.bottleneck_cycles <= r_os.bottleneck_cycles,
            "WS should win on weight-heavy layers: {} vs {}",
            r_ws.bottleneck_cycles,
            r_os.bottleneck_cycles
        );
    }

    #[test]
    fn depthwise_dims_have_unit_input_channels() {
        let d = ConvDims {
            in_ch: 16,
            out_ch: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 8,
            in_w: 8,
        };
        let dense = LayerDims::from_desc(&LayerDesc {
            name: "a".into(),
            op: LayerOp::Conv(d),
        });
        let dw = LayerDims::from_desc(&LayerDesc {
            name: "b".into(),
            op: LayerOp::DepthwiseConv(d),
        });
        assert_eq!(dw.n, 1);
        assert!((dense.macs() / dw.macs() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_noc_costs_more_energy_than_systolic() {
        let layers = vec![conv_layer(16, 16, 12, 3)];
        let target = FpgaTarget::zc706();
        let mut systolic = single_chunk_accel(8, 8, 1);
        systolic.chunks[0].noc = NocTopology::Systolic;
        let mut broadcast = single_chunk_accel(8, 8, 1);
        broadcast.chunks[0].noc = NocTopology::Broadcast;
        let e_sys = PerfModel::evaluate(&systolic, &layers, &target).energy;
        let e_bc = PerfModel::evaluate(&broadcast, &layers, &target).energy;
        assert!(e_bc > e_sys);
    }

    #[test]
    fn energy_weight_changes_the_cost_ranking() {
        // A small, low-energy design vs a big, fast design: with
        // energy_weight = 0 the fast one wins; with a large weight the
        // ranking can flip only through the energy term.
        let layers = vec![conv_layer(32, 32, 12, 3)];
        let target = FpgaTarget::zc706();
        let small = PerfModel::evaluate(&single_chunk_accel(4, 4, 1), &layers, &target);
        let large = PerfModel::evaluate(&single_chunk_accel(16, 16, 1), &layers, &target);
        let latency_only = CostWeights::default();
        assert!(
            PerfModel::cost(&large, &target, &latency_only)
                < PerfModel::cost(&small, &target, &latency_only)
        );
        // Energy term is additive and NoC-dependent; equal NoCs here, so
        // the large array's energy matches but its latency is smaller —
        // cost with energy weight stays finite and ordered.
        let heavy = CostWeights {
            energy_weight: 1.0,
            ..CostWeights::default()
        };
        assert!(PerfModel::cost(&large, &target, &heavy).is_finite());
    }

    #[test]
    fn fc_input_bytes_have_no_halo() {
        // Regression: the input halo is (r-1)*stride + k, not r*stride + k.
        // An FC layer (r = c = k = stride = 1) reads exactly `n` operands —
        // the old formula overcounted its input traffic 4x.
        let fc = LayerDims::from_desc(&LayerDesc {
            name: "fc".into(),
            op: LayerOp::Fc {
                in_features: 4096,
                out_features: 512,
            },
        });
        assert_eq!(fc.input_bytes(), 4096.0 * BYTES);
        assert_eq!(fc.output_bytes(), 512.0 * BYTES);
        assert_eq!(fc.weight_bytes(), 4096.0 * 512.0 * BYTES);
    }

    #[test]
    fn conv_input_halo_matches_sliding_window() {
        // 8 output rows at stride 2 with a 3-wide kernel touch
        // (8-1)*2 + 3 = 17 input rows.
        let d = LayerDims {
            m: 4,
            n: 3,
            r: 8,
            c: 8,
            k: 3,
            stride: 2,
            depthwise: false,
        };
        assert_eq!(d.input_bytes(), 3.0 * (17 * 17) as f64 * BYTES);
    }

    #[test]
    fn idle_chunks_do_not_consume_bandwidth() {
        // Regression: bandwidth is shared among chunks with >= 1 assigned
        // layer, so a 4-chunk design routing everything to chunk 0 costs
        // exactly what the 1-chunk design costs.
        let layers = vec![conv_layer(16, 32, 16, 3); 4];
        let target = FpgaTarget::zc706();
        let four = AcceleratorConfig {
            chunks: vec![chunk(8, 8); 4],
            assignment: vec![0; 4],
        };
        let one = single_chunk_accel(8, 8, 4);
        let r4 = PerfModel::evaluate(&four, &layers, &target);
        let r1 = PerfModel::evaluate(&one, &layers, &target);
        assert!(r4.feasible && r1.feasible);
        assert_eq!(r4.bottleneck_cycles, r1.bottleneck_cycles);
        let w = CostWeights::default();
        assert_eq!(
            PerfModel::cost(&r4, &target, &w),
            PerfModel::cost(&r1, &target, &w)
        );
    }

    #[test]
    fn bandwidth_share_counts_only_active_chunks() {
        let target = FpgaTarget::zc706();
        let accel = AcceleratorConfig {
            chunks: vec![chunk(8, 8); 4],
            assignment: vec![0, 0, 2, 2],
        };
        let mut groups = ChunkLayers::default();
        groups.fill(&accel);
        let share = PerfModel::bandwidth_share(&groups, &target);
        assert_eq!(share, target.dram_bytes_per_cycle() / 2.0);
    }

    #[test]
    fn chunk_layers_match_per_chunk_lists_across_refills() {
        // The flat grouping must hand `chunk_partial` the same layer lists,
        // in the same order, as one growable list per chunk, and count the
        // same active chunks — also when one buffer is refilled with
        // designs of other sizes.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let mut groups = ChunkLayers::default();
        for _ in 0..200 {
            let chunks = rng.gen_range(1..6);
            let layers = rng.gen_range(0..40);
            let mut assignment: Vec<usize> =
                (0..layers).map(|_| rng.gen_range(0..chunks)).collect();
            if rng.gen_bool(0.5) {
                assignment.sort_unstable();
            }
            let accel = AcceleratorConfig {
                chunks: vec![chunk(8, 8); chunks],
                assignment,
            };
            let mut lists: Vec<Vec<usize>> = vec![Vec::new(); chunks];
            for (layer, &c) in accel.assignment.iter().enumerate() {
                lists[c].push(layer);
            }
            groups.fill(&accel);
            for (c, list) in lists.iter().enumerate() {
                assert_eq!(groups.chunk(c), list.as_slice(), "{accel:?}");
            }
            let active = lists.iter().filter(|l| !l.is_empty()).count();
            assert_eq!(groups.active(), active, "{accel:?}");
        }
    }

    #[test]
    fn fps_is_clock_over_bottleneck() {
        let layers = vec![conv_layer(8, 8, 8, 3)];
        let target = FpgaTarget::zc706();
        let r = PerfModel::evaluate(&single_chunk_accel(8, 8, 1), &layers, &target);
        assert!((r.fps - target.clock_hz() / r.bottleneck_cycles).abs() < 1e-6);
    }
}
