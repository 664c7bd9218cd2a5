//! Pooling and auxiliary elementwise operations on [`Var`].
//!
//! Kept separate from the core op set in `var.rs`: these support the
//! extended operator library (average/max pooling candidate ops, sigmoid
//! gates) beyond the paper's minimum requirements.

use crate::var::{sized, Var};

impl Var {
    /// 2-D average pooling (NCHW) with a square window and stride.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 4 and the window fits the input.
    #[must_use]
    pub fn avg_pool2d(&self, window: usize, stride: usize) -> Var {
        let (n, c, h, w, oh, ow) = pool_dims(&self.shape(), window, stride);
        let x = self.value();
        let inv = 1.0 / (window * window) as f32;
        let mut out = vec![0.0f32; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let ibase = (ni * c + ci) * h * w;
                let obase = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..window {
                            for kx in 0..window {
                                acc += x.data()
                                    [ibase + (oy * stride + ky) * w + ox * stride + kx];
                            }
                        }
                        out[obase + oy * ow + ox] = acc * inv;
                    }
                }
            }
        }
        let id = self.id;
        let shape = self.shape();
        self.unary(
            sized(out, &[n, c, oh, ow], "avg pool"),
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * c * h * w];
                for ni in 0..n {
                    for ci in 0..c {
                        let ibase = (ni * c + ci) * h * w;
                        let obase = (ni * c + ci) * oh * ow;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let gv = g.data()[obase + oy * ow + ox] * inv;
                                for ky in 0..window {
                                    for kx in 0..window {
                                        dx[ibase
                                            + (oy * stride + ky) * w
                                            + ox * stride
                                            + kx] += gv;
                                    }
                                }
                            }
                        }
                    }
                }
                vec![(id, sized(dx, &shape, "avg pool grad"))]
            }),
        )
    }

    /// 2-D max pooling (NCHW) with a square window and stride. Gradient
    /// flows to the (first) maximal element of each window.
    ///
    /// # Panics
    ///
    /// Panics unless the value is rank 4 and the window fits the input.
    #[must_use]
    pub fn max_pool2d(&self, window: usize, stride: usize) -> Var {
        let (n, c, h, w, oh, ow) = pool_dims(&self.shape(), window, stride);
        let x = self.value();
        let mut out = vec![0.0f32; n * c * oh * ow];
        // The argmax routes the backward pass only.
        let records = self.tape.records_grad();
        let mut argmax = vec![0usize; if records { out.len() } else { 0 }];
        for ni in 0..n {
            for ci in 0..c {
                let ibase = (ni * c + ci) * h * w;
                let obase = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for ky in 0..window {
                            for kx in 0..window {
                                let idx =
                                    ibase + (oy * stride + ky) * w + ox * stride + kx;
                                if x.data()[idx] > best {
                                    best = x.data()[idx];
                                    best_i = idx;
                                }
                            }
                        }
                        out[obase + oy * ow + ox] = best;
                        if records {
                            argmax[obase + oy * ow + ox] = best_i;
                        }
                    }
                }
            }
        }
        let id = self.id;
        let shape = self.shape();
        self.unary(
            sized(out, &[n, c, oh, ow], "max pool"),
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * c * h * w];
                for (o, &src) in argmax.iter().enumerate() {
                    dx[src] += g.data()[o];
                }
                vec![(id, sized(dx, &shape, "max pool grad"))]
            }),
        )
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^{-x})`.
    #[must_use]
    pub fn sigmoid(&self) -> Var {
        let id = self.id;
        let value = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        let y = value.clone();
        self.unary(
            value,
            Box::new(move |g| vec![(id, g.zip(&y, |gv, yv| gv * yv * (1.0 - yv)))]),
        )
    }

    /// Elementwise clamp to `[lo, hi]`; gradient is passed only inside the
    /// active range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        let id = self.id;
        let x = self.value();
        let value = x.map(|v| v.clamp(lo, hi));
        self.unary(
            value,
            Box::new(move |g| {
                vec![(
                    id,
                    g.zip(&x, |gv, xv| if (lo..=hi).contains(&xv) { gv } else { 0.0 }),
                )]
            }),
        )
    }
}

fn pool_dims(shape: &[usize], window: usize, stride: usize) -> (usize, usize, usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "pooling requires an NCHW tensor");
    assert!(window > 0 && stride > 0, "window/stride must be positive");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    assert!(
        h >= window && w >= window,
        "pool window {window} does not fit {h}x{w}"
    );
    let oh = (h - window) / stride + 1;
    let ow = (w - window) / stride + 1;
    (n, c, h, w, oh, ow)
}

#[cfg(test)]
mod tests {
    use crate::grad_check::check_gradients;
    use crate::tape::Tape;
    use crate::tensor::Tensor;

    #[test]
    fn avg_pool_known_values() {
        let tape = Tape::new();
        let x = tape.leaf(
            Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap(),
        );
        let y = x.avg_pool2d(2, 2);
        assert_eq!(y.value().shape(), &[1, 1, 2, 2]);
        assert_eq!(y.value().data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn max_pool_known_values_and_grad_routing() {
        let tape = Tape::new();
        let x = tape.leaf(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap(),
        );
        let y = x.max_pool2d(2, 2);
        assert_eq!(y.value().item(), 4.0);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn grad_check_avg_pool() {
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 60);
        let report = check_gradients(&|_t, v| v.avg_pool2d(2, 2).square().sum(), &x, 1e-2);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn grad_check_max_pool_away_from_ties() {
        // Distinct values so the argmax is stable under the probe epsilon.
        let x = Tensor::from_vec(
            (0..16).map(|v| v as f32 * 0.37 - 2.0).collect(),
            &[1, 1, 4, 4],
        )
        .unwrap();
        let report = check_gradients(&|_t, v| v.max_pool2d(2, 2).square().sum(), &x, 1e-3);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn grad_check_sigmoid_and_clamp() {
        let x = Tensor::randn(&[8], 1.5, 61);
        let r1 = check_gradients(&|_t, v| v.sigmoid().square().sum(), &x, 1e-2);
        assert!(r1.passes(2e-2), "{r1:?}");
        // Keep probes away from the clamp kinks at ±1.
        let x2 = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[5]).unwrap();
        let r2 = check_gradients(&|_t, v| v.clamp(-1.0, 1.0).square().sum(), &x2, 1e-3);
        assert!(r2.passes(2e-2), "{r2:?}");
    }

    #[test]
    fn sigmoid_range() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-50.0, 0.0, 50.0], &[3]).unwrap());
        let y = x.sigmoid().value().as_ref().clone();
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_window_panics() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 1, 2, 2]));
        let _ = x.avg_pool2d(3, 1);
    }
}
