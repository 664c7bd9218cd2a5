//! Dense `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the A3C-S reproduction. It
//! provides:
//!
//! - [`Tensor`]: a contiguous, shape-tagged `f32` array with elementwise
//!   arithmetic, reductions, matrix multiplication and convolution kernels;
//! - [`Tape`] / [`Var`]: a tape-based reverse-mode autograd engine covering
//!   every operation the DRL + NAS stack needs (dense/depthwise convolution,
//!   batch normalisation, softmax families, gather, pooling, ...);
//! - [`check_gradients`] / [`numeric_gradient`]: finite-difference
//!   gradient verification used by the test-suite.
//!
//! # Example
//!
//! ```
//! use a3cs_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
//! let y = x.mul(&x).sum(); // y = sum(x^2)
//! y.backward();
//! // dy/dx = 2x
//! assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0, 6.0]);
//! ```

#![deny(missing_docs)]

mod grad_check;
mod linalg;
mod pooling;
mod shape;
mod tape;
mod tensor;
mod var;

pub use grad_check::{check_gradients, numeric_gradient, GradCheckReport};
pub use linalg::{col2im, im2col, matmul, matmul_a_bt, matmul_at_b, Conv2dGeometry};
pub use shape::{checked_num_elements, num_elements, strides_for, ShapeError, SizeOverflowError};
pub use tape::Tape;
pub use tensor::Tensor;
pub use var::{BatchStats, Var};
