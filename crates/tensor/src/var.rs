//! Differentiable values ([`Var`]) and the operation set recorded on a
//! [`Tape`].
//!
//! Every method that combines two `Var`s panics if they live on different
//! tapes; this is always a programming error in the caller.

use crate::linalg::{
    col2im, conv_weight_grad, fan_rows, im2col, matmul, matmul_a_bt, matmul_at_b, swap_axes,
    Conv2dGeometry,
};
use crate::tape::{BackwardFn, Tape};
use crate::tensor::Tensor;
use std::rc::Rc;

/// Wrap a buffer whose length the caller derived from `shape` itself.
pub(crate) fn sized(data: Vec<f32>, shape: &[usize], what: &str) -> Tensor {
    match Tensor::from_vec(data, shape) {
        Ok(t) => t,
        // Every call site allocates the buffer from the same dimensions it
        // passes as `shape`, so the length always matches.
        Err(e) => unreachable!("{what}: buffer sized by construction for {shape:?}: {e:?}"),
    }
}

/// A differentiable value: a reference to one node of a [`Tape`].
///
/// `Var` is cheap to clone (it is an id plus an `Rc` tape handle). All
/// arithmetic on `Var`s records backward closures so that [`Var::backward`]
/// can later accumulate gradients, unless the tape is a [`Tape::no_grad`]
/// one.
///
/// # Example
///
/// ```
/// use a3cs_tensor::{Tape, Tensor};
///
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], &[2]).unwrap());
/// let loss = x.relu().sum();
/// loss.backward();
/// assert_eq!(x.grad().unwrap().data(), &[1.0, 0.0]);
/// ```
#[derive(Clone)]
pub struct Var {
    pub(crate) tape: Tape,
    pub(crate) id: usize,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var(id={}, value={:?})", self.id, self.value())
    }
}

impl Var {
    /// The tensor value this node holds.
    #[must_use]
    pub fn value(&self) -> Rc<Tensor> {
        self.tape.value_of(self.id)
    }

    /// Shape of the held value.
    #[must_use]
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
    }

    /// Gradient accumulated at this node by previous [`Var::backward`]
    /// calls, if any.
    #[must_use]
    pub fn grad(&self) -> Option<Tensor> {
        self.tape.grad_of(self.id)
    }

    /// Run reverse-mode differentiation from this node, seeding with a
    /// tensor of ones (for a scalar loss this is the usual `dL/dL = 1`).
    pub fn backward(&self) {
        let seed = Tensor::ones(self.value().shape());
        self.tape.backward_from(self.id, seed);
    }

    /// Run reverse-mode differentiation seeded with an explicit gradient.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not match this node's value shape.
    pub fn backward_with(&self, seed: Tensor) {
        self.tape.backward_from(self.id, seed);
    }

    /// A new leaf on the same tape holding a copy of this value; gradient
    /// does not flow through it (stop-gradient).
    #[must_use]
    pub fn detach(&self) -> Var {
        self.tape.leaf(self.value().as_ref().clone())
    }

    fn assert_same_tape(&self, other: &Var) {
        assert!(
            self.tape.same_tape(&other.tape),
            "operands belong to different tapes"
        );
    }

    pub(crate) fn unary(&self, value: Tensor, backward: BackwardFn) -> Var {
        self.tape.push(Rc::new(value), Some(backward), None)
    }

    // ---------------------------------------------------------------
    // Elementwise binary ops (equal shapes)
    // ---------------------------------------------------------------

    /// Elementwise sum. Panics on shape or tape mismatch.
    #[must_use]
    pub fn add(&self, other: &Var) -> Var {
        self.assert_same_tape(other);
        let (a, b) = (self.id, other.id);
        let value = self.value().add(&other.value());
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.clone()), (b, g.clone())]),
        )
    }

    /// Elementwise difference. Panics on shape or tape mismatch.
    #[must_use]
    pub fn sub(&self, other: &Var) -> Var {
        self.assert_same_tape(other);
        let (a, b) = (self.id, other.id);
        let value = self.value().sub(&other.value());
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.clone()), (b, g.scale(-1.0))]),
        )
    }

    /// Elementwise product. Panics on shape or tape mismatch.
    #[must_use]
    pub fn mul(&self, other: &Var) -> Var {
        self.assert_same_tape(other);
        let (a, b) = (self.id, other.id);
        let (av, bv) = (self.value(), other.value());
        let value = av.mul(&bv);
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.mul(&bv)), (b, g.mul(&av))]),
        )
    }

    /// Elementwise quotient. Panics on shape or tape mismatch.
    #[must_use]
    pub fn div(&self, other: &Var) -> Var {
        self.assert_same_tape(other);
        let (a, b) = (self.id, other.id);
        let (av, bv) = (self.value(), other.value());
        let value = av.div(&bv);
        self.unary(
            value,
            Box::new(move |g| {
                let da = g.div(&bv);
                let db = g.mul(&av).div(&bv).div(&bv).scale(-1.0);
                vec![(a, da), (b, db)]
            }),
        )
    }

    // ---------------------------------------------------------------
    // Elementwise unary ops
    // ---------------------------------------------------------------

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Multiply every element by the constant `c`.
    #[must_use]
    pub fn scale(&self, c: f32) -> Var {
        let a = self.id;
        let value = self.value().scale(c);
        self.unary(value, Box::new(move |g| vec![(a, g.scale(c))]))
    }

    /// Add the constant `c` to every element.
    #[must_use]
    pub fn add_scalar(&self, c: f32) -> Var {
        let a = self.id;
        let value = self.value().add_scalar(c);
        self.unary(value, Box::new(move |g| vec![(a, g.clone())]))
    }

    /// Rectified linear unit `max(x, 0)`, except that NaN propagates: a
    /// non-finite activation must reach the loss, where the non-finite
    /// sentinel sees it before the update (`f32::max` would map it to 0).
    /// Every other input gets the bits optimised code gives `x.max(0.0)`:
    /// `-0` and negative subnormals become `+0`. The comparison pins that
    /// sign, which `f32::max` leaves open for a zero result.
    #[must_use]
    pub fn relu(&self) -> Var {
        let a = self.id;
        let x = self.value();
        // NaN fails the comparison and passes through unchanged.
        let value = x.map(|v| if v <= 0.0 { 0.0 } else { v });
        self.unary(
            value,
            Box::new(move |g| {
                vec![(a, g.zip(&x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }))]
            }),
        )
    }

    /// Elementwise exponential.
    #[must_use]
    pub fn exp(&self) -> Var {
        let a = self.id;
        let value = self.value().map(f32::exp);
        let out = value.clone();
        self.unary(value, Box::new(move |g| vec![(a, g.mul(&out))]))
    }

    /// Elementwise natural logarithm.
    ///
    /// Inputs are expected strictly positive; non-positive values produce
    /// NaN/-inf exactly as `f32::ln` does.
    #[must_use]
    pub fn ln(&self) -> Var {
        let a = self.id;
        let x = self.value();
        let value = x.map(f32::ln);
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.zip(&x, |gv, xv| gv / xv))]),
        )
    }

    /// Elementwise hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Var {
        let a = self.id;
        let value = self.value().map(f32::tanh);
        let out = value.clone();
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.zip(&out, |gv, yv| gv * (1.0 - yv * yv)))]),
        )
    }

    /// Elementwise square.
    #[must_use]
    pub fn square(&self) -> Var {
        let a = self.id;
        let x = self.value();
        let value = x.map(|v| v * v);
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.zip(&x, |gv, xv| gv * 2.0 * xv))]),
        )
    }

    // ---------------------------------------------------------------
    // Shape ops
    // ---------------------------------------------------------------

    /// Reshape to `shape` (element count must match).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[must_use]
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let a = self.id;
        let old_shape = self.value().shape().to_vec();
        let value = self.value().reshape(shape);
        self.unary(
            value,
            Box::new(move |g| vec![(a, g.reshape(&old_shape))]),
        )
    }

    /// Flatten `[N, d1, d2, ...]` to `[N, d1*d2*...]`.
    ///
    /// # Panics
    ///
    /// Panics if the value is rank 0.
    #[must_use]
    pub fn flatten_batch(&self) -> Var {
        let s = self.shape();
        assert!(!s.is_empty(), "flatten_batch requires rank >= 1");
        let n = s[0];
        let rest: usize = s[1..].iter().product();
        self.reshape(&[n, rest])
    }

    // ---------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------

    /// Sum of all elements, as a scalar.
    #[must_use]
    pub fn sum(&self) -> Var {
        let a = self.id;
        let shape = self.value().shape().to_vec();
        let value = Tensor::scalar(self.value().sum());
        self.unary(
            value,
            Box::new(move |g| vec![(a, Tensor::full(&shape, g.item()))]),
        )
    }

    /// Mean of all elements, as a scalar.
    ///
    /// # Panics
    ///
    /// Panics if the value is empty.
    #[must_use]
    pub fn mean(&self) -> Var {
        let n = self.value().len();
        assert!(n > 0, "mean of an empty tensor");
        self.sum().scale(1.0 / n as f32)
    }

    /// Row sums of a rank-2 value: `[N, M] -> [N]`.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 2.
    #[must_use]
    pub fn sum_rows(&self) -> Var {
        let a = self.id;
        let s = self.shape();
        assert_eq!(s.len(), 2, "sum_rows requires a rank-2 value");
        let (n, m) = (s[0], s[1]);
        let x = self.value();
        let mut out = vec![0.0f32; n];
        for (r, o) in out.iter_mut().enumerate() {
            *o = x.data()[r * m..(r + 1) * m].iter().sum();
        }
        self.unary(
            sized(out, &[n], "sum_rows shape"),
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * m];
                for r in 0..n {
                    let gv = g.data()[r];
                    for c in 0..m {
                        dx[r * m + c] = gv;
                    }
                }
                vec![(a, sized(dx, &[n, m], "sum_rows grad shape"))]
            }),
        )
    }

    // ---------------------------------------------------------------
    // Broadcasting helpers
    // ---------------------------------------------------------------

    /// `[N, F] + [F]` bias broadcast over rows.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or tape mismatch.
    #[must_use]
    pub fn add_bias_row(&self, bias: &Var) -> Var {
        self.assert_same_tape(bias);
        let (a, b) = (self.id, bias.id);
        let xs = self.shape();
        let bs = bias.shape();
        assert_eq!(xs.len(), 2, "add_bias_row lhs must be rank 2");
        assert_eq!(bs.len(), 1, "add_bias_row bias must be rank 1");
        assert_eq!(xs[1], bs[0], "bias length must equal feature dim");
        let (n, f) = (xs[0], xs[1]);
        let x = self.value();
        let bv = bias.value();
        let mut out = x.data().to_vec();
        for r in 0..n {
            for c in 0..f {
                out[r * f + c] += bv.data()[c];
            }
        }
        self.unary(
            sized(out, &[n, f], "add_bias_row shape"),
            Box::new(move |g| {
                let mut db = vec![0.0f32; f];
                for r in 0..n {
                    for (d, &gv) in db.iter_mut().zip(&g.data()[r * f..(r + 1) * f]) {
                        *d += gv;
                    }
                }
                vec![
                    (a, g.clone()),
                    (b, sized(db, &[f], "bias grad shape")),
                ]
            }),
        )
    }

    /// `[N, C, H, W] + [C]` bias broadcast over batch and space.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or tape mismatch.
    #[must_use]
    pub fn add_bias_channel(&self, bias: &Var) -> Var {
        self.assert_same_tape(bias);
        let (a, b) = (self.id, bias.id);
        let xs = self.shape();
        let bs = bias.shape();
        assert_eq!(xs.len(), 4, "add_bias_channel lhs must be rank 4 (NCHW)");
        assert_eq!(bs.len(), 1, "add_bias_channel bias must be rank 1");
        assert_eq!(xs[1], bs[0], "bias length must equal channel dim");
        let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
        let hw = h * w;
        let x = self.value();
        let bv = bias.value();
        let mut out = x.data().to_vec();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * hw;
                let add = bv.data()[ci];
                for o in &mut out[base..base + hw] {
                    *o += add;
                }
            }
        }
        self.unary(
            sized(out, &xs, "add_bias_channel shape"),
            Box::new(move |g| {
                let mut db = vec![0.0f32; c];
                for ni in 0..n {
                    for (ci, d) in db.iter_mut().enumerate() {
                        let base = (ni * c + ci) * hw;
                        *d += g.data()[base..base + hw].iter().sum::<f32>();
                    }
                }
                vec![
                    (a, g.clone()),
                    (b, sized(db, &[c], "channel bias grad shape")),
                ]
            }),
        )
    }

    /// Multiply this whole tensor by a scalar (rank-0 or one-element) `Var`.
    ///
    /// Used by the NAS supernet to weight candidate-operator outputs by
    /// Gumbel-Softmax coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `s` holds more than one element, or on tape mismatch.
    #[must_use]
    pub fn scale_by(&self, s: &Var) -> Var {
        self.assert_same_tape(s);
        let (a, b) = (self.id, s.id);
        let x = self.value();
        let sv = s.value();
        assert_eq!(sv.len(), 1, "scale_by expects a one-element scalar Var");
        let s_shape = sv.shape().to_vec();
        let c = sv.data()[0];
        let value = x.scale(c);
        self.unary(
            value,
            Box::new(move |g| {
                let dx = g.scale(c);
                let ds = g
                    .data()
                    .iter()
                    .zip(x.data().iter())
                    .map(|(gv, xv)| gv * xv)
                    .sum::<f32>();
                vec![
                    (a, dx),
                    (b, Tensor::full(&s_shape, ds)),
                ]
            }),
        )
    }

    // ---------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------

    /// Matrix product `[N, K] @ [K, M] -> [N, M]`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or tape mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Var) -> Var {
        self.assert_same_tape(other);
        let (a, b) = (self.id, other.id);
        let (av, bv) = (self.value(), other.value());
        let value = matmul(&av, &bv);
        self.unary(
            value,
            Box::new(move |g| {
                let da = matmul_a_bt(g, &bv); // g @ B^T
                let db = matmul_at_b(&av, g); // A^T @ g
                vec![(a, da), (b, db)]
            }),
        )
    }

    // ---------------------------------------------------------------
    // Softmax family (rows of a rank-2 value)
    // ---------------------------------------------------------------

    /// Row-wise softmax of a `[N, M]` value.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 2.
    #[must_use]
    pub fn softmax_rows(&self) -> Var {
        let a = self.id;
        let s = self.shape();
        assert_eq!(s.len(), 2, "softmax_rows requires a rank-2 value");
        let (n, m) = (s[0], s[1]);
        let x = self.value();
        let mut out = vec![0.0f32; n * m];
        for r in 0..n {
            softmax_into(&x.data()[r * m..(r + 1) * m], &mut out[r * m..(r + 1) * m]);
        }
        let value = sized(out, &[n, m], "softmax shape");
        let y = value.clone();
        self.unary(
            value,
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * m];
                for r in 0..n {
                    let yr = &y.data()[r * m..(r + 1) * m];
                    let gr = &g.data()[r * m..(r + 1) * m];
                    let dot: f32 = yr.iter().zip(gr.iter()).map(|(yv, gv)| yv * gv).sum();
                    for c in 0..m {
                        dx[r * m + c] = yr[c] * (gr[c] - dot);
                    }
                }
                vec![(a, sized(dx, &[n, m], "softmax grad shape"))]
            }),
        )
    }

    /// Row-wise log-softmax of a `[N, M]` value (numerically stable).
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 2.
    #[must_use]
    pub fn log_softmax_rows(&self) -> Var {
        let a = self.id;
        let s = self.shape();
        assert_eq!(s.len(), 2, "log_softmax_rows requires a rank-2 value");
        let (n, m) = (s[0], s[1]);
        let x = self.value();
        let mut out = vec![0.0f32; n * m];
        for r in 0..n {
            let row = &x.data()[r * m..(r + 1) * m];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx + row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln();
            for c in 0..m {
                out[r * m + c] = row[c] - lse;
            }
        }
        let value = sized(out, &[n, m], "log_softmax shape");
        let y = value.clone();
        self.unary(
            value,
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * m];
                for r in 0..n {
                    let yr = &y.data()[r * m..(r + 1) * m];
                    let gr = &g.data()[r * m..(r + 1) * m];
                    let gsum: f32 = gr.iter().sum();
                    for c in 0..m {
                        dx[r * m + c] = gr[c] - yr[c].exp() * gsum;
                    }
                }
                vec![(a, sized(dx, &[n, m], "log_softmax grad shape"))]
            }),
        )
    }

    /// Gather one element per row: `[N, M]` with indices `[N]` to `[N]`.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 2, `indices.len() == N`, and every
    /// index is in bounds.
    #[must_use]
    pub fn pick_rows(&self, indices: &[usize]) -> Var {
        let a = self.id;
        let s = self.shape();
        assert_eq!(s.len(), 2, "pick_rows requires a rank-2 value");
        let (n, m) = (s[0], s[1]);
        assert_eq!(indices.len(), n, "one index per row required");
        let idx = indices.to_vec();
        let x = self.value();
        let mut out = vec![0.0f32; n];
        for r in 0..n {
            assert!(idx[r] < m, "pick index {} out of bounds for {m}", idx[r]);
            out[r] = x.data()[r * m + idx[r]];
        }
        self.unary(
            sized(out, &[n], "pick shape"),
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * m];
                for r in 0..n {
                    dx[r * m + idx[r]] = g.data()[r];
                }
                vec![(a, sized(dx, &[n, m], "pick grad shape"))]
            }),
        )
    }

    // ---------------------------------------------------------------
    // Convolution / pooling / normalisation
    // ---------------------------------------------------------------

    /// Dense 2-D convolution (NCHW) with square kernels.
    ///
    /// `self` is `[N, Ci, H, W]`; `weight` is `[Co, Ci, k, k]`. Output is
    /// `[N, Co, Ho, Wo]` per `geom`. Bias, if any, is added separately via
    /// [`Var::add_bias_channel`].
    ///
    /// The whole batch is lowered at once and multiplied by the weight in
    /// one GEMM (see `linalg` for the per-element order that keeps this
    /// bit-identical to a per-image loop). Its MACs are counted once, by
    /// those GEMMs in `gemm.macs`; `conv.macs` counts only the depthwise
    /// work that no GEMM does.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with `geom` or on tape mismatch.
    #[must_use]
    pub fn conv2d(&self, weight: &Var, geom: Conv2dGeometry) -> Var {
        self.assert_same_tape(weight);
        let (a, b) = (self.id, weight.id);
        let x = self.value();
        let w = weight.value();
        let xs = x.shape().to_vec();
        assert_eq!(xs.len(), 4, "conv2d input must be NCHW");
        assert_eq!(
            &xs[1..],
            &[geom.in_channels, geom.in_h, geom.in_w],
            "conv2d input does not match geometry"
        );
        assert_eq!(
            w.shape(),
            &[
                geom.out_channels,
                geom.in_channels,
                geom.kernel,
                geom.kernel
            ],
            "conv2d weight does not match geometry"
        );
        let n = xs[0];
        let (co, per_image, ckk) = (geom.out_channels, geom.col_cols(), geom.col_rows());
        // [Co, ckk] @ [ckk, N·P] = [Co, N·P], scattered to [N, Co, P].
        let y = matmul(&w.reshape(&[co, ckk]), &im2col(x.data(), &geom));
        let out = swap_axes(y.data(), 1, co, n, per_image);
        let value = sized(out, &[n, co, geom.out_h(), geom.out_w()], "conv2d output");
        self.unary(
            value,
            Box::new(move |g| {
                let gd = g.data();
                // The lowering is rebuilt here rather than kept on the tape,
                // and dropped before the input gradient's column matrix.
                let dw = conv_weight_grad(&im2col(x.data(), &geom), gd, &geom);
                let dw = sized(
                    dw,
                    &[co, geom.in_channels, geom.kernel, geom.kernel],
                    "conv2d weight grad",
                );
                let gmat = sized(
                    swap_axes(gd, 1, n, co, per_image),
                    &[co, n * per_image],
                    "conv2d grad",
                );
                let dx = col2im(&matmul_at_b(&w.reshape(&[co, ckk]), &gmat), &geom);
                vec![(a, dx), (b, dw)]
            }),
        )
    }

    /// Depthwise 2-D convolution (NCHW): one `k x k` filter per channel.
    ///
    /// `self` is `[N, C, H, W]`; `weight` is `[C, k, k]`. `geom` must have
    /// `in_channels == out_channels == C`.
    ///
    /// The kernels run on a channels-last copy (`[N, H·W, C]`), so every
    /// tap is one `C`-wide vector operation, and fan out over images.
    /// Padding bounds are computed once per kernel row and column; taps in
    /// the padding are skipped. Each element keeps the tap order of the
    /// direct per-image loop, and the weight gradient adds one partial per
    /// image in image order.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with `geom` or on tape mismatch.
    #[must_use]
    pub fn depthwise_conv2d(&self, weight: &Var, geom: Conv2dGeometry) -> Var {
        self.assert_same_tape(weight);
        assert_eq!(
            geom.in_channels, geom.out_channels,
            "depthwise conv requires in_channels == out_channels"
        );
        let (a, b) = (self.id, weight.id);
        let x = self.value();
        let w = weight.value();
        let xs = x.shape().to_vec();
        assert_eq!(xs.len(), 4, "depthwise conv input must be NCHW");
        assert_eq!(
            &xs[1..],
            &[geom.in_channels, geom.in_h, geom.in_w],
            "depthwise conv input does not match geometry"
        );
        assert_eq!(
            w.shape(),
            &[geom.in_channels, geom.kernel, geom.kernel],
            "depthwise conv weight must be [C, k, k]"
        );
        let (n, c, h, wd) = (xs[0], xs[1], xs[2], xs[3]);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
        let macs = (n * c * k * k * oh * ow) as u64;
        telemetry::CONV_MACS.add(macs);
        let (plane, out_plane) = (h * wd, oh * ow);
        let (ys, xt) = geom.taps();
        // The in-bounds positions of tap `(ky, kx)`, as (output, input)
        // plane indices in (oy, ox) order.
        let taps = move |ky: usize, kx: usize| {
            let t = xt[kx].clone();
            ys[ky].out.clone().flat_map(move |oy| {
                let iy = oy * s + ky - pad;
                t.out
                    .clone()
                    .enumerate()
                    .map(move |(i, ox)| (oy * ow + ox, iy * wd + t.first + i * s))
            })
        };
        // The `C` channels of position `p` in a channels-last image, or of
        // tap `p` in the `[k·k, C]` weights.
        let at = move |p: usize| p * c..(p + 1) * c;
        let wl = swap_axes(w.data(), 1, c, k * k, 1);
        let mut out = vec![0.0f32; n * out_plane * c];
        {
            let xl = swap_axes(x.data(), n, c, plane, 1);
            // Per output element: taps in (ky, kx) order.
            fan_rows(&mut out, n, out_plane * c, macs as usize, |ni, orow| {
                let xi = &xl[ni * plane * c..(ni + 1) * plane * c];
                orow.fill(0.0);
                for t in 0..k * k {
                    let wt = &wl[at(t)];
                    for (o, i) in taps(t / k, t % k) {
                        for ((acc, &v), &wv) in orow[at(o)].iter_mut().zip(&xi[at(i)]).zip(wt) {
                            *acc += v * wv;
                        }
                    }
                }
            });
        }
        let value = sized(
            swap_axes(&out, n, out_plane, c, 1),
            &[n, c, oh, ow],
            "depthwise conv output",
        );
        self.unary(
            value,
            Box::new(move |g| {
                telemetry::CONV_MACS.add(macs.saturating_mul(2));
                let gl = swap_axes(g.data(), n, c, out_plane, 1);
                let mut dx = vec![0.0f32; n * plane * c];
                // Per input element: contributions in (oy, ox) order, which
                // descending ky and kx visit in ascending oy and ox.
                fan_rows(&mut dx, n, plane * c, macs as usize, |ni, drow| {
                    let gi = &gl[ni * out_plane * c..(ni + 1) * out_plane * c];
                    drow.fill(0.0);
                    for t in (0..k * k).rev() {
                        let wt = &wl[at(t)];
                        for (o, i) in taps(t / k, t % k) {
                            for ((d, &gv), &wv) in drow[at(i)].iter_mut().zip(&gi[at(o)]).zip(wt) {
                                *d += gv * wv;
                            }
                        }
                    }
                });
                // Per weight element: one partial per image over (oy, ox),
                // partials added in image order. The channels-last input is
                // rebuilt here rather than kept on the tape.
                let xl = swap_axes(x.data(), n, c, plane, 1);
                let mut parts = vec![0.0f32; n * k * k * c];
                fan_rows(&mut parts, n, k * k * c, macs as usize, |ni, prow| {
                    let gi = &gl[ni * out_plane * c..(ni + 1) * out_plane * c];
                    let xi = &xl[ni * plane * c..(ni + 1) * plane * c];
                    prow.fill(0.0);
                    for t in 0..k * k {
                        let part = &mut prow[at(t)];
                        for (o, i) in taps(t / k, t % k) {
                            for ((p, &gv), &xv) in part.iter_mut().zip(&gi[at(o)]).zip(&xi[at(i)]) {
                                *p += gv * xv;
                            }
                        }
                    }
                });
                let mut dw = vec![0.0f32; k * k * c];
                for ni in 0..n {
                    for (d, &p) in dw.iter_mut().zip(&parts[ni * k * k * c..]) {
                        *d += p;
                    }
                }
                vec![
                    (
                        a,
                        sized(swap_axes(&dx, n, plane, c, 1), &xs, "depthwise dx"),
                    ),
                    (
                        b,
                        sized(swap_axes(&dw, 1, k * k, c, 1), &[c, k, k], "depthwise dw"),
                    ),
                ]
            }),
        )
    }

    /// Global average pooling `[N, C, H, W] -> [N, C]`.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 4 with non-empty spatial dims.
    #[must_use]
    pub fn global_avg_pool(&self) -> Var {
        let a = self.id;
        let s = self.shape();
        assert_eq!(s.len(), 4, "global_avg_pool requires NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let hw = h * w;
        assert!(hw > 0, "global_avg_pool over empty spatial dims");
        let x = self.value();
        let mut out = vec![0.0f32; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * hw;
                out[ni * c + ci] =
                    x.data()[base..base + hw].iter().sum::<f32>() / hw as f32;
            }
        }
        self.unary(
            sized(out, &[n, c], "gap shape"),
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * c * hw];
                for ni in 0..n {
                    for ci in 0..c {
                        let gv = g.data()[ni * c + ci] / hw as f32;
                        let base = (ni * c + ci) * hw;
                        for d in &mut dx[base..base + hw] {
                            *d = gv;
                        }
                    }
                }
                vec![(a, sized(dx, &[n, c, h, w], "gap grad shape"))]
            }),
        )
    }

    /// Training-mode batch normalisation over `[N, C, H, W]` with per-channel
    /// affine parameters `gamma` / `beta` (both `[C]`).
    ///
    /// Statistics are computed over the `(N, H, W)` axes; the full batch-norm
    /// backward (including the dependence of mean/variance on the input) is
    /// implemented. Also returns the batch statistics the output was
    /// normalised with, for the caller's running-statistics update.
    ///
    /// Every per-channel sum runs in the plain per-channel loop's order;
    /// only several channels' sums run side by side.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, on tape mismatch, or if the per-channel
    /// sample count `N*H*W` is zero.
    #[must_use]
    pub fn batch_norm2d(&self, gamma: &Var, beta: &Var, eps: f32) -> (Var, BatchStats) {
        self.assert_same_tape(gamma);
        self.assert_same_tape(beta);
        let (a, gi, bi) = (self.id, gamma.id, beta.id);
        let s = self.shape();
        assert_eq!(s.len(), 4, "batch_norm2d requires NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = n * h * w;
        assert!(m > 0, "batch_norm2d over an empty batch");
        let gv = gamma.value();
        let bv = beta.value();
        assert_eq!(gv.shape(), &[c], "gamma must be [C]");
        assert_eq!(bv.shape(), &[c], "beta must be [C]");
        let x = self.value();
        let hw = h * w;

        let stats = batch_stats(x.data(), n, c, hw);
        let ivar: Vec<f32> = stats.var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        // x̂ is kept only for the backward pass.
        let records = self.tape.records_grad();
        let affine = (gv.data(), bv.data());
        let (out, xhat) = normalise(x.data(), &stats.mean, &ivar, affine, hw, records);
        let value = sized(out, &s, "bn output shape");
        if !records {
            return (self.tape.constant(value), stats);
        }
        let shape = s.clone();
        let y = self.unary(
            value,
            Box::new(move |g| {
                // Standard BN backward per channel:
                // dx = (gamma*ivar/m) * (m*g - sum(g) - xhat * sum(g*xhat)),
                // and dbeta = sum(g), dgamma = sum(g*xhat).
                let (gsum, gxsum) = grad_sums(g.data(), &xhat, n, c, hw);
                let mf = m as f32;
                let mut dx = vec![0.0f32; g.len()];
                for (p, ((d, gp), xp)) in dx
                    .chunks_mut(hw)
                    .zip(g.data().chunks(hw))
                    .zip(xhat.chunks(hw))
                    .enumerate()
                {
                    let ci = p % c;
                    let k = gv.data()[ci] * ivar[ci] / mf;
                    let (gs, gx) = (gsum[ci], gxsum[ci]);
                    for ((d, &gg), &xh) in d.iter_mut().zip(gp).zip(xp) {
                        *d = k * (mf * gg - gs - xh * gx);
                    }
                }
                vec![
                    (a, sized(dx, &shape, "bn dx shape")),
                    (gi, sized(gxsum, &[c], "bn dgamma shape")),
                    (bi, sized(gsum, &[c], "bn dbeta shape")),
                ]
            }),
        );
        (y, stats)
    }

    /// Inference-mode batch normalisation using fixed statistics.
    ///
    /// `mean`/`var` are treated as constants; gradient flows to the input
    /// and the affine parameters only.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or tape mismatch.
    #[must_use]
    pub fn batch_norm2d_inference(
        &self,
        gamma: &Var,
        beta: &Var,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
    ) -> Var {
        self.assert_same_tape(gamma);
        self.assert_same_tape(beta);
        let (a, gi, bi) = (self.id, gamma.id, beta.id);
        let s = self.shape();
        assert_eq!(s.len(), 4, "batch_norm2d_inference requires NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(mean.shape(), &[c], "running mean must be [C]");
        assert_eq!(var.shape(), &[c], "running var must be [C]");
        let gv = gamma.value();
        let bv = beta.value();
        assert_eq!(gv.shape(), &[c], "gamma must be [C]");
        assert_eq!(bv.shape(), &[c], "beta must be [C]");
        let x = self.value();
        let ivar: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        // x̂ is kept only for the backward pass.
        let records = self.tape.records_grad();
        let affine = (gv.data(), bv.data());
        let (out, xhat) = normalise(x.data(), mean.data(), &ivar, affine, hw, records);
        let value = sized(out, &s, "bn-inf output shape");
        if !records {
            return self.tape.constant(value);
        }
        let shape = s.clone();
        self.unary(
            value,
            Box::new(move |g| {
                let (dbeta, dgamma) = grad_sums(g.data(), &xhat, n, c, hw);
                let mut dx = vec![0.0f32; g.len()];
                for p in 0..n * c {
                    let k = gv.data()[p % c] * ivar[p % c];
                    let span = p * hw..(p + 1) * hw;
                    for (d, &gg) in dx[span.clone()].iter_mut().zip(&g.data()[span]) {
                        *d = gg * k;
                    }
                }
                vec![
                    (a, sized(dx, &shape, "bn-inf dx shape")),
                    (gi, sized(dgamma, &[c], "bn-inf dgamma")),
                    (bi, sized(dbeta, &[c], "bn-inf dbeta")),
                ]
            }),
        )
    }
}

/// The per-channel batch statistics a training-mode [`Var::batch_norm2d`]
/// normalised with.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Mean over `(N, H, W)`, one per channel.
    pub mean: Vec<f32>,
    /// Biased variance over `(N, H, W)`, one per channel.
    pub var: Vec<f32>,
}

/// Channels whose per-channel sums the batch-norm kernels run side by side.
/// Each channel's sum is one dependent chain of float adds; several chains
/// in flight hide the add latency without changing any chain's order.
const BN_LANES: usize = 8;

/// Start of each lane's plane in image `ni` of an `[N, C, hw]` buffer, for
/// the [`BN_LANES`] channels from `c0`. Lanes past the last channel repeat
/// it; [`store_lanes`] drops their sums.
fn lane_planes(ni: usize, c0: usize, c: usize, hw: usize) -> [usize; BN_LANES] {
    std::array::from_fn(|j| (ni * c + (c0 + j).min(c - 1)) * hw)
}

/// Store the sums of the lanes from channel `c0` that are real channels.
fn store_lanes(out: &mut [f32], c0: usize, lanes: [f32; BN_LANES]) {
    for (o, v) in out[c0..].iter_mut().zip(lanes) {
        *o = v;
    }
}

/// Per-channel mean and biased variance of an `[N, C, hw]` buffer, in the
/// per-channel loop's order: the mean adds each plane's `iter().sum()` (a
/// sequential sum from `-0.0`) to a `0.0` accumulator in image order, and
/// the variance adds `(x - mean)²` from `0.0` over images and positions in
/// order. [`BN_LANES`] channels run side by side.
fn batch_stats(x: &[f32], n: usize, c: usize, hw: usize) -> BatchStats {
    let m = (n * hw) as f32;
    let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
    for c0 in (0..c).step_by(BN_LANES) {
        let mut acc = [0.0f32; BN_LANES];
        for ni in 0..n {
            let at = lane_planes(ni, c0, c, hw);
            let mut part = [-0.0f32; BN_LANES];
            for o in 0..hw {
                for (p, &b) in part.iter_mut().zip(&at) {
                    *p += x[b + o];
                }
            }
            for (a, p) in acc.iter_mut().zip(part) {
                *a += p;
            }
        }
        let mu = acc.map(|a| a / m);
        let mut vacc = [0.0f32; BN_LANES];
        for ni in 0..n {
            let at = lane_planes(ni, c0, c, hw);
            for o in 0..hw {
                for ((v, &b), &mu) in vacc.iter_mut().zip(&at).zip(&mu) {
                    let d = x[b + o] - mu;
                    *v += d * d;
                }
            }
        }
        store_lanes(&mut mean, c0, mu);
        store_lanes(&mut var, c0, vacc.map(|v| v / m));
    }
    BatchStats { mean, var }
}

/// Per-channel `Σg` and `Σg·x̂` of an `[N, C, hw]` gradient and its x̂, each
/// a sequential sum from `0.0` over images and positions in order,
/// [`BN_LANES`] channels side by side.
fn grad_sums(g: &[f32], xhat: &[f32], n: usize, c: usize, hw: usize) -> (Vec<f32>, Vec<f32>) {
    let (mut gsum, mut gxsum) = (vec![0.0f32; c], vec![0.0f32; c]);
    for c0 in (0..c).step_by(BN_LANES) {
        let (mut gs, mut gx) = ([0.0f32; BN_LANES], [0.0f32; BN_LANES]);
        for ni in 0..n {
            let at = lane_planes(ni, c0, c, hw);
            for o in 0..hw {
                for ((s, t), &b) in gs.iter_mut().zip(&mut gx).zip(&at) {
                    let gg = g[b + o];
                    *s += gg;
                    *t += gg * xhat[b + o];
                }
            }
        }
        store_lanes(&mut gsum, c0, gs);
        store_lanes(&mut gxsum, c0, gx);
    }
    (gsum, gxsum)
}

/// The batch-norm elementwise pass over the `N·C` planes of an `[N, C, hw]`
/// buffer: `x̂ = (x - mean)·ivar` and `gamma·x̂ + beta`. Returns the output
/// and, if `keep_xhat`, x̂ (empty otherwise).
fn normalise(
    x: &[f32],
    mean: &[f32],
    ivar: &[f32],
    affine: (&[f32], &[f32]),
    hw: usize,
    keep_xhat: bool,
) -> (Vec<f32>, Vec<f32>) {
    let (gamma, beta) = affine;
    let c = mean.len();
    let mut out = vec![0.0f32; x.len()];
    let mut xhat = vec![0.0f32; if keep_xhat { x.len() } else { 0 }];
    // Inference accepts empty planes (`hw == 0`), which hold nothing.
    for p in 0..x.len().checked_div(hw).unwrap_or(0) {
        let (ci, span) = (p % c, p * hw..(p + 1) * hw);
        let (mu, iv, ga, be) = (mean[ci], ivar[ci], gamma[ci], beta[ci]);
        let (xp, op) = (&x[span.clone()], &mut out[span.clone()]);
        if keep_xhat {
            for ((o, h), &xv) in op.iter_mut().zip(&mut xhat[span]).zip(xp) {
                let xh = (xv - mu) * iv;
                *h = xh;
                *o = ga * xh + be;
            }
        } else {
            for (o, &xv) in op.iter_mut().zip(xp) {
                *o = ga * ((xv - mu) * iv) + be;
            }
        }
    }
    (out, xhat)
}

fn softmax_into(row: &[f32], out: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(row.iter()) {
        let e = (v - mx).exp();
        *o = e;
        sum += e;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(tape: &Tape, data: Vec<f32>, shape: &[usize]) -> Var {
        tape.leaf(Tensor::from_vec(data, shape).unwrap())
    }

    #[test]
    fn add_sub_grads() {
        let tape = Tape::new();
        let a = leaf(&tape, vec![1.0, 2.0], &[2]);
        let b = leaf(&tape, vec![3.0, 4.0], &[2]);
        let y = a.add(&b).sub(&a); // y = b, but grads flow through both paths
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 0.0]);
        assert_eq!(b.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn div_grad() {
        let tape = Tape::new();
        let a = leaf(&tape, vec![6.0], &[1]);
        let b = leaf(&tape, vec![2.0], &[1]);
        let y = a.div(&b);
        y.backward();
        assert!((a.grad().unwrap().data()[0] - 0.5).abs() < 1e-6);
        assert!((b.grad().unwrap().data()[0] + 1.5).abs() < 1e-6);
    }

    #[test]
    fn matmul_value_and_grad() {
        let tape = Tape::new();
        let a = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = leaf(&tape, vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let y = a.matmul(&b);
        assert_eq!(y.value().data(), &[19.0, 22.0, 43.0, 50.0]);
        y.sum().backward();
        // dA = ones @ B^T ; dB = A^T @ ones
        assert_eq!(a.grad().unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let y = x.softmax_rows();
        let v = y.value();
        for r in 0..2 {
            let s: f32 = v.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![0.1, 1.5, -2.0, 0.3], &[2, 2]);
        let ls = x.log_softmax_rows().value().as_ref().clone();
        let sl = x.softmax_rows().value().map(f32::ln);
        assert!(ls.max_abs_diff(&sl) < 1e-5);
    }

    #[test]
    fn pick_rows_value_and_grad() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = x.pick_rows(&[2, 0]);
        assert_eq!(y.value().data(), &[3.0, 4.0]);
        y.sum().backward();
        assert_eq!(
            x.grad().unwrap().data(),
            &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![2.0], &[1]);
        let y = x.detach().mul(&x); // treats first factor as a constant 2
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn scale_by_scalar_var() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0], &[3]);
        let s = leaf(&tape, vec![2.0], &[1]);
        let y = x.scale_by(&s);
        assert_eq!(y.value().data(), &[2.0, 4.0, 6.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(s.grad().unwrap().data(), &[6.0]); // sum(x)
    }

    #[test]
    fn sum_rows_value_and_grad() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.sum_rows();
        assert_eq!(y.value().data(), &[3.0, 7.0]);
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 10.0], &[2]).unwrap());
        y.mul(&w).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 1.0, 10.0, 10.0]);
    }

    #[test]
    fn global_avg_pool_value() {
        let tape = Tape::new();
        let x = leaf(&tape, (0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = x.global_avg_pool();
        assert_eq!(y.value().shape(), &[1, 2]);
        assert_eq!(y.value().data(), &[1.5, 5.5]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25; 8]);
    }

    #[test]
    fn conv2d_known_value() {
        // 1x1x2x2 input, single 2x2 kernel of ones, no pad, stride 1 => sum.
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let w = leaf(&tape, vec![1.0; 4], &[1, 1, 2, 2]);
        let geom = Conv2dGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 2,
        };
        let y = x.conv2d(&w, geom);
        assert_eq!(y.value().shape(), &[1, 1, 1, 1]);
        assert_eq!(y.value().item(), 10.0);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0; 4]);
        assert_eq!(w.grad().unwrap().data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn depthwise_conv2d_independent_channels() {
        let tape = Tape::new();
        // Two channels: channel 0 all ones, channel 1 all twos.
        let x = leaf(
            &tape,
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
            &[1, 2, 2, 2],
        );
        // Kernel: channel 0 identity-ish sum, channel 1 zeros.
        let w = leaf(&tape, vec![1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], &[2, 2, 2]);
        let geom = Conv2dGeometry {
            in_channels: 2,
            out_channels: 2,
            kernel: 2,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 2,
        };
        let y = x.depthwise_conv2d(&w, geom);
        assert_eq!(y.value().shape(), &[1, 2, 1, 1]);
        assert_eq!(y.value().data(), &[4.0, 0.0]);
        y.sum().backward();
        // Channel 1 weights see input 2.0 everywhere.
        assert_eq!(
            w.grad().unwrap().data(),
            &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    fn depthwise_backward_propagates_nan_through_zero_gradients() {
        // 0 × NaN and 0 × ∞ must yield NaN per IEEE-754; a zero-gradient
        // skip in the backward pass used to drop them.
        let tape = Tape::new();
        let x = leaf(&tape, vec![f32::NAN, 1.0], &[1, 2, 1, 1]);
        let w = leaf(&tape, vec![1.0, f32::INFINITY], &[2, 1, 1]);
        let geom = Conv2dGeometry {
            in_channels: 2,
            out_channels: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_h: 1,
            in_w: 1,
        };
        x.depthwise_conv2d(&w, geom)
            .backward_with(Tensor::zeros(&[1, 2, 1, 1]));
        let (dx, dw) = (x.grad().unwrap(), w.grad().unwrap());
        assert!(dw.data()[0].is_nan(), "0 * NaN input must reach dw");
        assert!(dx.data()[1].is_nan(), "0 * inf weight must reach dx");
        assert_eq!((dx.data()[0], dw.data()[1]), (0.0, 0.0));
    }

    #[test]
    fn batch_norm_normalises() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0], &[4, 1, 1, 1]);
        let gamma = leaf(&tape, vec![1.0], &[1]);
        let beta = leaf(&tape, vec![0.0], &[1]);
        let (y, _) = x.batch_norm2d(&gamma, &beta, 1e-5);
        let v = y.value();
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        let var: f32 = v.data().iter().map(|&a| (a - mean) * (a - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batch_norm_inference_uses_running_stats() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![10.0, 20.0], &[2, 1, 1, 1]);
        let gamma = leaf(&tape, vec![2.0], &[1]);
        let beta = leaf(&tape, vec![1.0], &[1]);
        let mean = Tensor::from_vec(vec![10.0], &[1]).unwrap();
        let var = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        let y = x.batch_norm2d_inference(&gamma, &beta, &mean, &var, 0.0);
        // (10-10)/2*2+1 = 1 ; (20-10)/2*2+1 = 11
        assert!((y.value().data()[0] - 1.0).abs() < 1e-4);
        assert!((y.value().data()[1] - 11.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn cross_tape_operations_panic() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.leaf(Tensor::scalar(1.0));
        let b = t2.leaf(Tensor::scalar(2.0));
        let _ = a.add(&b);
    }

    #[test]
    fn relu_propagates_nan_and_keeps_the_bits_of_max_elsewhere() {
        let neg_subnormal = -f32::from_bits(1);
        let pos_subnormal = f32::from_bits(1);
        let inputs = [
            -0.0,
            0.0,
            neg_subnormal,
            pos_subnormal,
            -1.5,
            1.5,
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::MIN,
            f32::MAX,
        ];
        let tape = Tape::new();
        let y = leaf(&tape, inputs.to_vec(), &[inputs.len()]).relu();
        let want: [u32; 10] = [
            0,
            0,
            0,
            pos_subnormal.to_bits(),
            0,
            1.5f32.to_bits(),
            0,
            f32::INFINITY.to_bits(),
            0,
            f32::MAX.to_bits(),
        ];
        let got: Vec<u32> = y.value().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);

        // NaN passes through with its bits, sign and payload included.
        let nans = [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_0001)];
        let y = leaf(&tape, nans.to_vec(), &[3]).relu();
        let got: Vec<u32> = y.value().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, nans.map(f32::to_bits));

        // The backward is unchanged: NaN inputs pass no gradient.
        let x = leaf(&tape, vec![f32::NAN, -2.0, 3.0], &[3]);
        x.relu().sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn reshape_grad_flows() {
        let tape = Tape::new();
        let x = leaf(&tape, vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.reshape(&[4]).relu().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().shape(), &[2, 2]);
        assert_eq!(x.grad().unwrap().data(), &[1.0; 4]);
    }
}
