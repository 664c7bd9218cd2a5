//! The candidate operator set of the A3C-S supernet.
//!
//! The paper (Section V-A) searches over: standard convolutions with
//! kernel 3/5, inverted residual blocks with kernel 3/5 × channel
//! expansion 1/3/5, and a skip connection — 9 choices per cell.

use a3cs_nn::{BatchNorm2d, Conv2d, InvertedResidual, Module, Relu, Sequential};

/// One candidate operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpChoice {
    /// Standard convolution with square `kernel` (+BN+ReLU).
    Conv {
        /// Kernel size (3 or 5).
        kernel: usize,
    },
    /// Inverted residual block with `kernel` and channel `expansion`.
    InvertedResidual {
        /// Depthwise kernel size (3 or 5).
        kernel: usize,
        /// Channel expansion factor (1, 3 or 5).
        expansion: usize,
    },
    /// Skip connection (identity, or a 1×1 projection when the shape
    /// changes).
    Skip,
}

impl std::fmt::Display for OpChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OpChoice::Conv { kernel } => write!(f, "conv{kernel}x{kernel}"),
            OpChoice::InvertedResidual { kernel, expansion } => {
                write!(f, "ir_k{kernel}_e{expansion}")
            }
            OpChoice::Skip => write!(f, "skip"),
        }
    }
}

/// The 9 candidate operators, in the canonical `α`-index order.
pub const ALL_OPS: [OpChoice; 9] = [
    OpChoice::Conv { kernel: 3 },
    OpChoice::Conv { kernel: 5 },
    OpChoice::InvertedResidual {
        kernel: 3,
        expansion: 1,
    },
    OpChoice::InvertedResidual {
        kernel: 3,
        expansion: 3,
    },
    OpChoice::InvertedResidual {
        kernel: 3,
        expansion: 5,
    },
    OpChoice::InvertedResidual {
        kernel: 5,
        expansion: 1,
    },
    OpChoice::InvertedResidual {
        kernel: 5,
        expansion: 3,
    },
    OpChoice::InvertedResidual {
        kernel: 5,
        expansion: 5,
    },
    OpChoice::Skip,
];

/// Size of the supernet search space: `ops ^ cells`, reported as `f64`
/// because the paper's full-scale space (`9^12`) overflows small integers
/// when combined with the accelerator space.
#[must_use]
pub fn search_space_size(num_ops: usize, num_cells: usize) -> f64 {
    (num_ops as f64).powi(num_cells as i32)
}

/// Instantiate `choice` as a module mapping `in_ch → out_ch` at `stride`.
///
/// Skip connections become an empty pass-through when the shape is
/// preserved and a 1×1 projection (conv+BN) otherwise.
///
/// # Panics
///
/// Panics if channel counts or stride are zero.
#[must_use]
pub fn build_op(
    choice: OpChoice,
    name: &str,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    seed: u64,
) -> Box<dyn Module> {
    match choice {
        OpChoice::Conv { kernel } => Box::new(
            Sequential::new()
                .push(Conv2d::new(
                    &format!("{name}.conv{kernel}"),
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    kernel / 2,
                    false,
                    seed,
                ))
                .push(BatchNorm2d::new(&format!("{name}.bn"), out_ch))
                .push(Relu::new()),
        ),
        OpChoice::InvertedResidual { kernel, expansion } => Box::new(InvertedResidual::new(
            name, in_ch, out_ch, kernel, stride, expansion, seed,
        )),
        OpChoice::Skip => {
            if in_ch == out_ch && stride == 1 {
                Box::new(Sequential::new())
            } else {
                Box::new(
                    Sequential::new()
                        .push(Conv2d::new(
                            &format!("{name}.skip_proj"),
                            in_ch,
                            out_ch,
                            1,
                            stride,
                            0,
                            false,
                            seed,
                        ))
                        .push(BatchNorm2d::new(&format!("{name}.skip_bn"), out_ch)),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_nn::FeatureShape;
    use a3cs_tensor::{Tape, Tensor};

    #[test]
    fn paper_search_space_size() {
        // 9 ops, 12 cells => 9^12 ≈ 2.8e11 network choices.
        let size = search_space_size(ALL_OPS.len(), 12);
        assert!((2.8e11..2.9e11).contains(&size));
    }

    #[test]
    fn all_ops_are_distinct() {
        for (i, a) in ALL_OPS.iter().enumerate() {
            for b in &ALL_OPS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn every_op_preserves_expected_output_shape() {
        for &choice in &ALL_OPS {
            for (in_ch, out_ch, stride) in [(8, 8, 1), (8, 16, 2)] {
                let op = build_op(choice, "t", in_ch, out_ch, stride, 1);
                let tape = Tape::new();
                let x = tape.leaf(Tensor::randn(&[1, in_ch, 8, 8], 0.3, 2));
                let y = op.forward(&tape, &x, true);
                let hw = if stride == 2 { 4 } else { 8 };
                assert_eq!(
                    y.shape(),
                    vec![1, out_ch, hw, hw],
                    "{choice} {in_ch}->{out_ch} s{stride}"
                );
            }
        }
    }

    #[test]
    fn identity_skip_has_no_params() {
        let skip = build_op(OpChoice::Skip, "t", 8, 8, 1, 0);
        assert_eq!(skip.param_count(), 0);
        let proj = build_op(OpChoice::Skip, "t", 8, 16, 2, 0);
        assert!(proj.param_count() > 0);
    }

    #[test]
    fn describes_compose_with_feature_shapes() {
        for &choice in &ALL_OPS {
            let op = build_op(choice, "t", 4, 8, 2, 3);
            let (descs, out) = op.describe(FeatureShape::image(4, 8, 8));
            assert_eq!(out, FeatureShape::image(8, 4, 4), "{choice}");
            if choice != OpChoice::Skip {
                assert!(!descs.is_empty(), "{choice} should expose compute layers");
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ALL_OPS[0].to_string(), "conv3x3");
        assert_eq!(ALL_OPS[4].to_string(), "ir_k3_e5");
        assert_eq!(ALL_OPS[8].to_string(), "skip");
    }
}
