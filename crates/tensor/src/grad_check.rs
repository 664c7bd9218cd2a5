//! Finite-difference gradient verification.
//!
//! Used throughout the workspace's test-suites to validate the hand-written
//! backward passes in [`crate::Var`].

use crate::tape::Tape;
use crate::tensor::Tensor;
use crate::var::Var;

/// Outcome of a [`check_gradients`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_error: f32,
    /// Largest relative difference (`|a - n| / max(1, |a|, |n|)`).
    pub max_rel_error: f32,
    /// Flat index of the worst element.
    pub worst_index: usize,
}

impl GradCheckReport {
    /// `true` when both error measures are below `tol`.
    #[must_use]
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_error <= tol || self.max_rel_error <= tol
    }
}

/// Central-difference numeric gradient of `f` (a scalar-valued function of
/// one tensor input) at `x`.
///
/// `f` is called with fresh tapes, so it may freely build graphs internally.
#[must_use]
pub fn numeric_gradient(f: &dyn Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros(x.shape());
    let mut probe = x.clone();
    for i in 0..x.len() {
        let orig = probe.data()[i];
        probe.data_mut()[i] = orig + eps;
        let up = f(&probe);
        probe.data_mut()[i] = orig - eps;
        let down = f(&probe);
        probe.data_mut()[i] = orig;
        grad.data_mut()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Verify the analytic gradient of `build` (mapping an input leaf to a
/// scalar loss `Var`) against central differences at `x`.
///
/// # Panics
///
/// Panics if `build` produces a non-scalar loss.
#[must_use]
pub fn check_gradients(build: &dyn Fn(&Tape, &Var) -> Var, x: &Tensor, eps: f32) -> GradCheckReport {
    // Analytic gradient.
    let tape = Tape::new();
    let leaf = tape.leaf(x.clone());
    let loss = build(&tape, &leaf);
    assert_eq!(
        loss.value().len(),
        1,
        "gradient check requires a scalar loss"
    );
    loss.backward();
    let analytic = leaf
        .grad()
        .unwrap_or_else(|| Tensor::zeros(x.shape()));

    // Numeric gradient.
    let f = |probe: &Tensor| -> f32 {
        let tape = Tape::new();
        let leaf = tape.leaf(probe.clone());
        build(&tape, &leaf).value().item()
    };
    let numeric = numeric_gradient(&f, x, eps);

    let mut report = GradCheckReport {
        max_abs_error: 0.0,
        max_rel_error: 0.0,
        worst_index: 0,
    };
    for i in 0..x.len() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        let abs = (a - n).abs();
        let rel = abs / a.abs().max(n.abs()).max(1.0);
        if abs > report.max_abs_error {
            report.max_abs_error = abs;
            report.worst_index = i;
        }
        report.max_rel_error = report.max_rel_error.max(rel);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Conv2dGeometry;

    const TOL: f32 = 2e-2;
    const EPS: f32 = 1e-2;

    fn check(build: &dyn Fn(&Tape, &Var) -> Var, x: &Tensor) {
        let report = check_gradients(build, x, EPS);
        assert!(
            report.passes(TOL),
            "gradient check failed: {report:?} for input {x:?}"
        );
    }

    #[test]
    fn numeric_gradient_of_square() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let g = numeric_gradient(&|t| t.sq_norm(), &x, 1e-3);
        assert!(g.max_abs_diff(&x.scale(2.0)) < 1e-2);
    }

    #[test]
    fn grad_check_elementwise_chain() {
        let x = Tensor::randn(&[6], 0.8, 41);
        check(
            &|_t, v| v.tanh().square().add_scalar(0.3).ln().sum(),
            &x.map(|a| a.abs() + 0.5),
        );
    }

    #[test]
    fn grad_check_relu_away_from_kink() {
        let x = Tensor::from_vec(vec![1.0, -1.0, 2.0, -2.0], &[4]).unwrap();
        check(&|_t, v| v.relu().sum(), &x);
    }

    #[test]
    fn grad_check_softmax_entropy() {
        let x = Tensor::randn(&[2, 4], 1.0, 42);
        check(
            &|_t, v| {
                let p = v.softmax_rows();
                let lp = v.log_softmax_rows();
                p.mul(&lp).sum().neg()
            },
            &x,
        );
    }

    #[test]
    fn grad_check_matmul() {
        let x = Tensor::randn(&[3, 4], 1.0, 43);
        check(
            &|t, v| {
                let w = t.leaf(Tensor::randn(&[4, 2], 1.0, 99));
                v.matmul(&w).square().sum()
            },
            &x,
        );
    }

    #[test]
    fn grad_check_conv2d_input_and_weight() {
        let geom = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 5,
            in_w: 5,
        };
        let x = Tensor::randn(&[2, 2, 5, 5], 0.5, 44);
        check(
            &|t, v| {
                let w = t.leaf(Tensor::randn(&[3, 2, 3, 3], 0.5, 100));
                v.conv2d(&w, geom).square().sum()
            },
            &x,
        );
        // And the weight side.
        let w0 = Tensor::randn(&[3, 2, 3, 3], 0.5, 101);
        check(
            &|t, v| {
                let x = t.leaf(Tensor::randn(&[1, 2, 5, 5], 0.5, 102));
                let w = v.reshape(&[3, 2, 3, 3]);
                x.conv2d(&w, geom).square().sum()
            },
            &w0.reshape(&[3 * 2 * 3 * 3]),
        );
    }

    #[test]
    fn grad_check_depthwise_conv() {
        let geom = Conv2dGeometry {
            in_channels: 3,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 4,
            in_w: 4,
        };
        let x = Tensor::randn(&[1, 3, 4, 4], 0.5, 45);
        check(
            &|t, v| {
                let w = t.leaf(Tensor::randn(&[3, 3, 3], 0.5, 103));
                v.depthwise_conv2d(&w, geom).square().sum()
            },
            &x,
        );
    }

    #[test]
    fn grad_check_batch_norm() {
        let x = Tensor::randn(&[4, 2, 3, 3], 1.0, 46);
        check(
            &|t, v| {
                let gamma = t.leaf(Tensor::from_vec(vec![1.2, 0.8], &[2]).unwrap());
                let beta = t.leaf(Tensor::from_vec(vec![0.1, -0.2], &[2]).unwrap());
                v.batch_norm2d(&gamma, &beta, 1e-3).0.square().sum()
            },
            &x,
        );
    }

    #[test]
    fn grad_check_bias_broadcasts() {
        let x = Tensor::randn(&[3, 4], 1.0, 47);
        check(
            &|t, v| {
                let b = t.leaf(Tensor::randn(&[4], 1.0, 104));
                v.add_bias_row(&b).square().sum()
            },
            &x,
        );
        let x4 = Tensor::randn(&[2, 3, 2, 2], 1.0, 48);
        check(
            &|t, v| {
                let b = t.leaf(Tensor::randn(&[3], 1.0, 105));
                v.add_bias_channel(&b).square().sum()
            },
            &x4,
        );
    }

    #[test]
    fn grad_check_global_avg_pool() {
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, 49);
        check(&|_t, v| v.global_avg_pool().square().sum(), &x);
    }
}
