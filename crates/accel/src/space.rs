//! The discrete accelerator search space and its knob enumeration.

use crate::template::{
    AcceleratorConfig, BufferAlloc, ChunkConfig, Dataflow, NocTopology, PeArray, Tiling,
};
use serde::{Deserialize, Serialize};

/// Buffer split options as `(input, weight, output)` fractions of a
/// chunk's buffer budget.
const BUFFER_SPLITS: [(f64, f64, f64); 6] = [
    (0.25, 0.50, 0.25),
    (0.50, 0.25, 0.25),
    (0.25, 0.25, 0.50),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    (0.40, 0.40, 0.20),
    (0.20, 0.40, 0.40),
];

/// Discrete choices for every accelerator knob. The joint space (all knobs
/// of all chunks plus the per-layer assignment) matches the paper's
/// "over 10²⁷ searchable choices" at paper scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// PE-array row options.
    pub pe_rows: Vec<usize>,
    /// PE-array column options.
    pub pe_cols: Vec<usize>,
    /// NoC options.
    pub nocs: Vec<NocTopology>,
    /// Dataflow options.
    pub dataflows: Vec<Dataflow>,
    /// Per-chunk buffer budget options (KiB).
    pub buffer_totals_kb: Vec<usize>,
    /// `Tm` options.
    pub tm: Vec<usize>,
    /// `Tn` options.
    pub tn: Vec<usize>,
    /// `Tr` options.
    pub tr: Vec<usize>,
    /// `Tc` options.
    pub tc: Vec<usize>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            pe_rows: vec![2, 4, 8, 12, 16, 24],
            pe_cols: vec![2, 4, 8, 16],
            nocs: vec![
                NocTopology::Broadcast,
                NocTopology::Systolic,
                NocTopology::Multicast,
            ],
            dataflows: vec![
                Dataflow::OutputStationary,
                Dataflow::WeightStationary,
                Dataflow::RowStationary,
            ],
            buffer_totals_kb: vec![32, 64, 128, 256],
            tm: vec![2, 4, 8, 16, 32],
            tn: vec![2, 4, 8, 16],
            tr: vec![2, 4, 8],
            tc: vec![2, 4, 8],
        }
    }
}

/// Knobs per chunk (the length of [`SearchSpace::chunk_knob_sizes`]).
const CHUNK_KNOBS: usize = 10;

/// Number of buffer-split options.
#[must_use]
pub(crate) fn buffer_split_count() -> usize {
    BUFFER_SPLITS.len()
}

/// Apportion `total_kb` KiB among (input, weight, output) by the largest-
/// remainder method: floor each share, then hand the leftover KiB to the
/// largest fractional remainders (ties broken by operand order). The
/// three parts always sum to exactly `total_kb` — naive rounding could
/// exceed the selected budget (e.g. 32 KiB x (1/3, 1/3, 1/3) rounds to
/// 11+11+11 = 33 KiB).
fn split_buffer(total_kb: usize, fractions: (f64, f64, f64)) -> BufferAlloc {
    let fr = [fractions.0, fractions.1, fractions.2];
    let mut parts = [0usize; 3];
    let mut remainders = [0f64; 3];
    for i in 0..3 {
        let raw = total_kb as f64 * fr[i];
        let floor = raw.floor();
        parts[i] = floor as usize;
        remainders[i] = raw - floor;
    }
    let mut leftover = total_kb.saturating_sub(parts.iter().sum::<usize>());
    let mut order = [0usize, 1, 2];
    order.sort_by(|&a, &b| {
        remainders[b]
            .total_cmp(&remainders[a])
            .then(a.cmp(&b))
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        parts[i] += 1;
        leftover -= 1;
    }
    // Every operand needs at least 1 KiB; steal from the largest part
    // (unreachable for the shipped option lists, where the smallest share
    // is 0.2 x 32 KiB, but decode stays total for arbitrary spaces).
    for i in 0..3 {
        if parts[i] == 0 {
            let max = (0..3).fold(0, |m, j| if parts[j] > parts[m] { j } else { m });
            if parts[max] > 1 {
                parts[max] -= 1;
                parts[i] = 1;
            }
        }
    }
    BufferAlloc {
        input_kb: parts[0],
        weight_kb: parts[1],
        output_kb: parts[2],
    }
}

/// Why a choice vector failed to decode against a [`SearchSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    /// A chunk choice vector has the wrong length.
    ChunkArity {
        /// Knobs one chunk needs.
        expected: usize,
        /// Knobs provided.
        actual: usize,
    },
    /// A knob choice indexes past its option list.
    KnobOutOfRange {
        /// Knob position in decode order.
        knob: usize,
        /// The offending choice.
        choice: usize,
        /// The option count of that knob.
        size: usize,
    },
    /// A full-accelerator choice vector has the wrong length.
    AcceleratorArity {
        /// Knobs the accelerator needs.
        expected: usize,
        /// Knobs provided.
        actual: usize,
    },
    /// An assignment entry indexes a chunk that does not exist.
    AssignmentOutOfRange {
        /// The layer whose assignment is invalid.
        layer: usize,
        /// The offending chunk index.
        assignment: usize,
        /// Number of chunks being decoded.
        num_chunks: usize,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SpaceError::ChunkArity { expected, actual } => {
                write!(f, "chunk knob arity mismatch: expected {expected}, got {actual}")
            }
            SpaceError::KnobOutOfRange { knob, choice, size } => {
                write!(f, "knob choice {choice} out of range {size} (knob {knob})")
            }
            SpaceError::AcceleratorArity { expected, actual } => {
                write!(
                    f,
                    "accelerator knob arity mismatch: expected {expected}, got {actual}"
                )
            }
            SpaceError::AssignmentOutOfRange {
                layer,
                assignment,
                num_chunks,
            } => {
                write!(
                    f,
                    "assignment {assignment} out of range: layer {layer} needs a chunk \
                     index below {num_chunks}"
                )
            }
        }
    }
}

impl std::error::Error for SpaceError {}

impl SearchSpace {
    /// A monolithic-template preset: one large compute engine executing
    /// layers back-to-back (pair with `num_chunks = 1`). Demonstrates the
    /// paper's claim that the search "can be applied on top of different
    /// accelerator templates" — the knobs are the same, the template
    /// degenerates to a single-stage design with bigger PE arrays and
    /// buffers.
    #[must_use]
    pub fn monolithic() -> Self {
        SearchSpace {
            pe_rows: vec![8, 16, 24, 30],
            pe_cols: vec![8, 16, 24, 30],
            buffer_totals_kb: vec![256, 512, 1024],
            ..SearchSpace::default()
        }
    }

    /// An Eyeriss-like preset: row-stationary dataflow only, modest PE
    /// arrays, register-file-heavy buffer splits.
    #[must_use]
    pub fn eyeriss_like() -> Self {
        SearchSpace {
            pe_rows: vec![12, 14, 16],
            pe_cols: vec![12, 14, 16],
            dataflows: vec![Dataflow::RowStationary],
            nocs: vec![NocTopology::Multicast],
            ..SearchSpace::default()
        }
    }
}

impl SearchSpace {
    /// Choice counts of one chunk's knobs, in decode order:
    /// `[pe_rows, pe_cols, noc, dataflow, buffer_total, buffer_split,
    /// tm, tn, tr, tc]`.
    #[must_use]
    pub fn chunk_knob_sizes(&self) -> [usize; CHUNK_KNOBS] {
        [
            self.pe_rows.len(),
            self.pe_cols.len(),
            self.nocs.len(),
            self.dataflows.len(),
            self.buffer_totals_kb.len(),
            buffer_split_count(),
            self.tm.len(),
            self.tn.len(),
            self.tr.len(),
            self.tc.len(),
        ]
    }

    /// Decode one chunk's knob choices into a [`ChunkConfig`].
    ///
    /// # Errors
    ///
    /// [`SpaceError::ChunkArity`] or [`SpaceError::KnobOutOfRange`] when
    /// `choices` does not address this space.
    #[must_use = "the decoded chunk config is the whole point of the call"]
    pub fn try_decode_chunk(&self, choices: &[usize]) -> Result<ChunkConfig, SpaceError> {
        let sizes = self.chunk_knob_sizes();
        if choices.len() != sizes.len() {
            return Err(SpaceError::ChunkArity {
                expected: sizes.len(),
                actual: choices.len(),
            });
        }
        for (knob, (&c, &s)) in choices.iter().zip(sizes.iter()).enumerate() {
            if c >= s {
                return Err(SpaceError::KnobOutOfRange {
                    knob,
                    choice: c,
                    size: s,
                });
            }
        }
        Ok(ChunkConfig {
            pe: PeArray {
                rows: self.pe_rows[choices[0]],
                cols: self.pe_cols[choices[1]],
            },
            noc: self.nocs[choices[2]],
            dataflow: self.dataflows[choices[3]],
            buffers: split_buffer(self.buffer_totals_kb[choices[4]], BUFFER_SPLITS[choices[5]]),
            tiling: Tiling {
                tm: self.tm[choices[6]],
                tn: self.tn[choices[7]],
                tr: self.tr[choices[8]],
                tc: self.tc[choices[9]],
            },
        })
    }

    /// Panicking convenience wrapper around
    /// [`SearchSpace::try_decode_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong arity or any index is out of
    /// range.
    #[must_use]
    pub fn decode_chunk(&self, choices: &[usize]) -> ChunkConfig {
        match self.try_decode_chunk(choices) {
            Ok(chunk) => chunk,
            // Callers who must handle malformed choices use
            // `try_decode_chunk`; reaching this arm is a caller bug the
            // documented contract rules out.
            Err(e) => unreachable!("decode_chunk precondition violated: {e}"),
        }
    }

    /// Decode a full accelerator: `num_chunks` consecutive chunk-knob
    /// groups followed by one assignment knob (with `num_chunks` choices)
    /// per layer.
    ///
    /// # Errors
    ///
    /// [`SpaceError::AcceleratorArity`], or the first chunk/assignment
    /// decoding error encountered.
    pub fn try_decode(
        &self,
        num_chunks: usize,
        num_layers: usize,
        choices: &[usize],
    ) -> Result<AcceleratorConfig, SpaceError> {
        let mut accel = AcceleratorConfig {
            chunks: Vec::with_capacity(num_chunks),
            assignment: Vec::with_capacity(num_layers),
        };
        self.try_decode_into(num_chunks, num_layers, choices, &mut accel)?;
        Ok(accel)
    }

    /// [`SearchSpace::try_decode`] into `out`, reusing its storage: once
    /// `out` has held a design of this size, decoding allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`SearchSpace::try_decode`]; `out` is left partly written.
    pub(crate) fn try_decode_into(
        &self,
        num_chunks: usize,
        num_layers: usize,
        choices: &[usize],
        out: &mut AcceleratorConfig,
    ) -> Result<(), SpaceError> {
        let expected = num_chunks * CHUNK_KNOBS + num_layers;
        if choices.len() != expected {
            return Err(SpaceError::AcceleratorArity {
                expected,
                actual: choices.len(),
            });
        }
        let (chunk_choices, assignment) = choices.split_at(num_chunks * CHUNK_KNOBS);
        out.chunks.clear();
        for knobs in chunk_choices.chunks_exact(CHUNK_KNOBS) {
            out.chunks.push(self.try_decode_chunk(knobs)?);
        }
        out.assignment.clear();
        for (layer, &a) in assignment.iter().enumerate() {
            if a >= num_chunks {
                return Err(SpaceError::AssignmentOutOfRange {
                    layer,
                    assignment: a,
                    num_chunks,
                });
            }
            out.assignment.push(a);
        }
        Ok(())
    }

    /// Panicking convenience wrapper around [`SearchSpace::try_decode`].
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range choices.
    #[must_use]
    pub fn decode(
        &self,
        num_chunks: usize,
        num_layers: usize,
        choices: &[usize],
    ) -> AcceleratorConfig {
        match self.try_decode(num_chunks, num_layers, choices) {
            Ok(accel) => accel,
            // Callers who must handle malformed choices use `try_decode`;
            // reaching this arm is a caller bug the documented contract
            // rules out.
            Err(e) => unreachable!("decode precondition violated: {e}"),
        }
    }

    /// Knob sizes for the whole accelerator, in the same order
    /// [`SearchSpace::decode`] expects.
    #[must_use]
    pub fn knob_sizes(&self, num_chunks: usize, num_layers: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        for _ in 0..num_chunks {
            sizes.extend(self.chunk_knob_sizes());
        }
        sizes.extend(std::iter::repeat_n(num_chunks, num_layers));
        sizes
    }

    /// Cardinality of the joint space as `log10`.
    #[must_use]
    pub fn log10_cardinality(&self, num_chunks: usize, num_layers: usize) -> f64 {
        self.knob_sizes(num_chunks, num_layers)
            .iter()
            .map(|&s| (s as f64).log10())
            .sum()
    }

    /// Cardinality of the joint space (may be `inf` for huge spaces; use
    /// [`SearchSpace::log10_cardinality`] for reporting).
    #[must_use]
    pub fn cardinality(&self, num_chunks: usize, num_layers: usize) -> f64 {
        10f64.powf(self.log10_cardinality(num_chunks, num_layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_space_exceeds_1e27() {
        // Paper scale: 4 pipeline chunks and a ResNet-scale layer count.
        let space = SearchSpace::default();
        let log10 = space.log10_cardinality(4, 20);
        assert!(log10 > 27.0, "log10 cardinality {log10} must exceed 27");
    }

    #[test]
    fn decode_round_trips_all_zero_choices() {
        let space = SearchSpace::default();
        let n_knobs = space.knob_sizes(2, 3).len();
        let cfg = space.decode(2, 3, &vec![0; n_knobs]);
        assert_eq!(cfg.chunks.len(), 2);
        assert_eq!(cfg.assignment, vec![0, 0, 0]);
        assert_eq!(cfg.chunks[0].pe.rows, 2);
        assert!(cfg.assignment_valid());
    }

    #[test]
    fn decode_chunk_buffer_split_sums_to_total() {
        // Largest-remainder allocation: the three shares sum to exactly
        // the selected budget for every (total, split) pair in the space.
        let space = SearchSpace::default();
        for (budget, &total_kb) in space.buffer_totals_kb.iter().enumerate() {
            for split in 0..buffer_split_count() {
                let chunk = space.decode_chunk(&[0, 0, 0, 0, budget, split, 0, 0, 0, 0]);
                assert_eq!(
                    chunk.buffers.total_kb(),
                    total_kb,
                    "budget {total_kb} KiB, split {split}: {:?}",
                    chunk.buffers
                );
                assert!(chunk.buffers.input_kb >= 1);
                assert!(chunk.buffers.weight_kb >= 1);
                assert!(chunk.buffers.output_kb >= 1);
            }
        }
    }

    #[test]
    fn split_buffer_handles_thirds_exactly() {
        // 32 x (1/3, 1/3, 1/3): floors are 10+10+10, the 2 leftover KiB go
        // to the two largest remainders (input, weight by operand order).
        let alloc = split_buffer(32, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0));
        assert_eq!((alloc.input_kb, alloc.weight_kb, alloc.output_kb), (11, 11, 10));
        assert_eq!(alloc.total_kb(), 32);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let space = SearchSpace::default();
        let _ = space.decode(1, 1, &[0, 0]);
    }

    #[test]
    fn try_decode_reports_structured_errors() {
        let space = SearchSpace::default();
        let per_chunk = space.chunk_knob_sizes().len();
        assert_eq!(
            space.try_decode(1, 1, &[0, 0]),
            Err(SpaceError::AcceleratorArity {
                expected: per_chunk + 1,
                actual: 2,
            })
        );
        // Knob 0 (pe_rows) has 6 options; choice 6 is one past the end.
        let mut bad_knob = vec![0; per_chunk + 1];
        bad_knob[0] = space.pe_rows.len();
        let err = space.try_decode(1, 1, &bad_knob).unwrap_err();
        assert_eq!(
            err,
            SpaceError::KnobOutOfRange {
                knob: 0,
                choice: space.pe_rows.len(),
                size: space.pe_rows.len(),
            }
        );
        assert!(err.to_string().contains("out of range"));
        // Assignment entry beyond the chunk count.
        let mut bad_assign = vec![0; per_chunk + 2];
        bad_assign[per_chunk + 1] = 1;
        assert_eq!(
            space.try_decode(1, 2, &bad_assign),
            Err(SpaceError::AssignmentOutOfRange {
                layer: 1,
                assignment: 1,
                num_chunks: 1,
            })
        );
        assert_eq!(
            space.try_decode_chunk(&[0; 3]),
            Err(SpaceError::ChunkArity {
                expected: per_chunk,
                actual: 3,
            })
        );
        // The Ok path agrees with the panicking wrapper.
        let ok = space.try_decode(1, 1, &vec![0; per_chunk + 1]).expect("legal");
        assert_eq!(ok, space.decode(1, 1, &vec![0; per_chunk + 1]));
    }

    #[test]
    fn alternative_templates_decode_and_search() {
        use crate::das::{DasConfig, DasEngine};
        use crate::predictor::PerfModel;
        use crate::zc706::FpgaTarget;
        use a3cs_nn::{vanilla, LayerDesc};

        let layers: Vec<LayerDesc> = vanilla(4, 12, 12, 32, 0).layer_descs();
        let target = FpgaTarget::zc706();
        for (space, chunks) in [
            (SearchSpace::monolithic(), 1usize),
            (SearchSpace::eyeriss_like(), 3),
        ] {
            let mut das = DasEngine::new(
                DasConfig {
                    space,
                    num_chunks: chunks,
                    ..DasConfig::default()
                },
                5,
            );
            let best = das.run(&layers, &target, 150);
            let report = PerfModel::evaluate(&best, &layers, &target);
            assert!(report.fps > 0.0 && report.fps.is_finite());
            assert_eq!(best.chunks.len(), chunks);
        }
    }

    #[test]
    fn eyeriss_preset_is_row_stationary_only() {
        let space = SearchSpace::eyeriss_like();
        assert_eq!(space.dataflows, vec![Dataflow::RowStationary]);
        let n = space.knob_sizes(1, 1).len();
        let cfg = space.decode(1, 1, &vec![0; n]);
        assert_eq!(cfg.chunks[0].dataflow, Dataflow::RowStationary);
    }

    #[test]
    fn knob_sizes_align_with_decode() {
        let space = SearchSpace::default();
        let sizes = space.knob_sizes(3, 5);
        // Max-choice vector must decode without panic.
        let choices: Vec<usize> = sizes.iter().map(|&s| s - 1).collect();
        let cfg = space.decode(3, 5, &choices);
        assert!(cfg.assignment_valid());
        assert_eq!(cfg.assignment, vec![2; 5]);
    }
}
