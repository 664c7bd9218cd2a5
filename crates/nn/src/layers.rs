//! Primitive layers: convolutions, linear, batch-norm, activation, shaping.

use crate::describe::{ConvDims, FeatureShape, LayerDesc, LayerOp};
use crate::init::{he_std, xavier_std};
use crate::module::Module;
use crate::param::Param;
use a3cs_tensor::{Conv2dGeometry, Tape, Tensor, Var};

/// Dense 2-D convolution layer (square kernels, NCHW, optional bias).
///
/// # Example
///
/// ```
/// use a3cs_nn::{Conv2d, Module};
/// use a3cs_tensor::{Tape, Tensor};
///
/// let conv = Conv2d::new("c1", 3, 8, 3, 2, 1, true, 0);
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::zeros(&[1, 3, 8, 8]));
/// let y = conv.forward(&tape, &x, true);
/// assert_eq!(y.shape(), vec![1, 8, 4, 4]);
/// ```
pub struct Conv2d {
    name: String,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Option<Param>,
}

impl Conv2d {
    /// Create a convolution with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if any structural argument is zero.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        seed: u64,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0,
            "conv dims must be positive"
        );
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(
            &format!("{name}.weight"),
            Tensor::randn(&[out_ch, in_ch, kernel, kernel], he_std(fan_in), seed),
        );
        let bias = bias.then(|| Param::new(&format!("{name}.bias"), Tensor::zeros(&[out_ch])));
        Conv2d {
            name: name.to_owned(),
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
            weight,
            bias,
        }
    }

    fn dims(&self, input: FeatureShape) -> ConvDims {
        assert!(
            !matches!(input, FeatureShape::Flat { .. }),
            "conv {} cannot consume a flat feature vector",
            self.name
        );
        let FeatureShape::Image {
            channels,
            height,
            width,
        } = input
        else {
            // `FeatureShape` has exactly two variants and the assert above
            // rejected `Flat`.
            unreachable!()
        };
        assert_eq!(
            channels, self.in_ch,
            "conv {} expects {} input channels, got {}",
            self.name, self.in_ch, channels
        );
        ConvDims {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            in_h: height,
            in_w: width,
        }
    }
}

impl Module for Conv2d {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        let _ = train;
        let s = x.shape();
        assert_eq!(s.len(), 4, "conv input must be NCHW");
        let geom = Conv2dGeometry {
            in_channels: self.in_ch,
            out_channels: self.out_ch,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            in_h: s[2],
            in_w: s[3],
        };
        let w = self.weight.bind(tape);
        let mut y = x.conv2d(&w, geom);
        if let Some(b) = &self.bias {
            y = y.add_bias_channel(&b.bind(tape));
        }
        y
    }

    fn params(&self) -> Vec<Param> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        let dims = self.dims(input);
        let desc = LayerDesc {
            name: self.name.clone(),
            op: LayerOp::Conv(dims),
        };
        let out = desc.output_shape();
        (vec![desc], out)
    }
}

/// Depthwise 2-D convolution layer: one square filter per channel.
pub struct DepthwiseConv2d {
    name: String,
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
}

impl DepthwiseConv2d {
    /// Create a depthwise convolution with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if any structural argument is zero.
    #[must_use]
    pub fn new(
        name: &str,
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            channels > 0 && kernel > 0 && stride > 0,
            "depthwise conv dims must be positive"
        );
        let weight = Param::new(
            &format!("{name}.weight"),
            Tensor::randn(&[channels, kernel, kernel], he_std(kernel * kernel), seed),
        );
        DepthwiseConv2d {
            name: name.to_owned(),
            channels,
            kernel,
            stride,
            padding,
            weight,
        }
    }
}

impl Module for DepthwiseConv2d {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        let _ = train;
        let s = x.shape();
        assert_eq!(s.len(), 4, "depthwise conv input must be NCHW");
        let geom = Conv2dGeometry {
            in_channels: self.channels,
            out_channels: self.channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            in_h: s[2],
            in_w: s[3],
        };
        x.depthwise_conv2d(&self.weight.bind(tape), geom)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone()]
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        assert!(
            !matches!(input, FeatureShape::Flat { .. }),
            "depthwise conv {} cannot consume a flat feature vector",
            self.name
        );
        let FeatureShape::Image {
            channels,
            height,
            width,
        } = input
        else {
            // `FeatureShape` has exactly two variants and the assert above
            // rejected `Flat`.
            unreachable!()
        };
        assert_eq!(
            channels, self.channels,
            "depthwise conv {} expects {} channels, got {}",
            self.name, self.channels, channels
        );
        let desc = LayerDesc {
            name: self.name.clone(),
            op: LayerOp::DepthwiseConv(ConvDims {
                in_ch: self.channels,
                out_ch: self.channels,
                kernel: self.kernel,
                stride: self.stride,
                padding: self.padding,
                in_h: height,
                in_w: width,
            }),
        };
        let out = desc.output_shape();
        (vec![desc], out)
    }
}

/// Fully connected layer `[N, in] -> [N, out]` with bias.
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Create a linear layer with Xavier-initialised weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    #[must_use]
    pub fn new(name: &str, in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "linear dims must be positive"
        );
        let weight = Param::new(
            &format!("{name}.weight"),
            Tensor::randn(
                &[in_features, out_features],
                xavier_std(in_features, out_features),
                seed,
            ),
        );
        let bias = Param::new(&format!("{name}.bias"), Tensor::zeros(&[out_features]));
        Linear {
            name: name.to_owned(),
            in_features,
            out_features,
            weight,
            bias,
        }
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Scale the initial weights (useful for small-output policy heads).
    #[must_use]
    pub fn with_init_scale(self, scale: f32) -> Self {
        self.weight.update(|t| *t = t.scale(scale));
        self
    }
}

impl Module for Linear {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        let _ = train;
        let s = x.shape();
        assert_eq!(s.len(), 2, "linear input must be [N, F]");
        assert_eq!(
            s[1], self.in_features,
            "linear {} expects {} input features, got {}",
            self.name, self.in_features, s[1]
        );
        x.matmul(&self.weight.bind(tape))
            .add_bias_row(&self.bias.bind(tape))
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        assert!(
            !matches!(input, FeatureShape::Image { .. }),
            "linear {} cannot consume an image tensor",
            self.name
        );
        let FeatureShape::Flat { features } = input else {
            // `FeatureShape` has exactly two variants and the assert above
            // rejected `Image`.
            unreachable!()
        };
        assert_eq!(
            features, self.in_features,
            "linear {} expects {} features, got {}",
            self.name, self.in_features, features
        );
        let desc = LayerDesc {
            name: self.name.clone(),
            op: LayerOp::Fc {
                in_features: self.in_features,
                out_features: self.out_features,
            },
        };
        (
            vec![desc],
            FeatureShape::Flat {
                features: self.out_features,
            },
        )
    }
}

/// 2-D batch normalisation with learned affine and running statistics.
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    gamma: Param,
    beta: Param,
    // Running statistics are non-learnable state: held as `Param` (never
    // handed to an optimizer) so checkpoints can capture and restore them
    // through `Module::state`.
    running_mean: Param,
    running_var: Param,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Create a batch-norm layer (`gamma = 1`, `beta = 0`, running stats
    /// at the standard-normal prior).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn new(name: &str, channels: usize) -> Self {
        assert!(channels > 0, "batch norm needs at least one channel");
        BatchNorm2d {
            name: name.to_owned(),
            channels,
            gamma: Param::new(&format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: Param::new(&format!("{name}.beta"), Tensor::zeros(&[channels])),
            running_mean: Param::new(&format!("{name}.running_mean"), Tensor::zeros(&[channels])),
            running_var: Param::new(&format!("{name}.running_var"), Tensor::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Snapshot of the running mean.
    #[must_use]
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.value()
    }

    /// Snapshot of the running variance.
    #[must_use]
    pub fn running_var(&self) -> Tensor {
        self.running_var.value()
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        let s = x.shape();
        assert_eq!(s.len(), 4, "batch norm input must be NCHW");
        assert_eq!(s[1], self.channels, "batch norm channel mismatch");
        let gamma = self.gamma.bind(tape);
        let beta = self.beta.bind(tape);
        if train {
            // Update running statistics from the batch statistics the
            // output was normalised with.
            let (y, batch) = x.batch_norm2d(&gamma, &beta, self.eps);
            self.running_mean.update(|rm| {
                for (rm_v, &mean_c) in rm.data_mut().iter_mut().zip(&batch.mean) {
                    *rm_v = (1.0 - self.momentum) * *rm_v + self.momentum * mean_c;
                }
            });
            self.running_var.update(|rv| {
                for (rv_v, &var_c) in rv.data_mut().iter_mut().zip(&batch.var) {
                    *rv_v = (1.0 - self.momentum) * *rv_v + self.momentum * var_c;
                }
            });
            y
        } else {
            let rm = self.running_mean.value();
            let rv = self.running_var.value();
            x.batch_norm2d_inference(&gamma, &beta, &rm, &rv, self.eps)
        }
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn state(&self) -> Vec<Param> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        // Folded into the preceding convolution at deployment time.
        let _ = &self.name;
        (Vec::new(), input)
    }
}

/// Rectified linear unit as a module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// Create a ReLU module.
    #[must_use]
    pub fn new() -> Self {
        Relu
    }
}

impl Module for Relu {
    fn forward(&self, _tape: &Tape, x: &Var, _train: bool) -> Var {
        x.relu()
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        (Vec::new(), input)
    }
}

/// Flatten `[N, C, H, W]` (or any rank ≥ 2) to `[N, F]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

impl Flatten {
    /// Create a flatten module.
    #[must_use]
    pub fn new() -> Self {
        Flatten
    }
}

impl Module for Flatten {
    fn forward(&self, _tape: &Tape, x: &Var, _train: bool) -> Var {
        x.flatten_batch()
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        (
            Vec::new(),
            FeatureShape::Flat {
                features: input.elements(),
            },
        )
    }
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Create a global-average-pool module.
    #[must_use]
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Module for GlobalAvgPool {
    fn forward(&self, _tape: &Tape, x: &Var, _train: bool) -> Var {
        x.global_avg_pool()
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        assert!(
            !matches!(input, FeatureShape::Flat { .. }),
            "global average pool needs an image input"
        );
        let FeatureShape::Image { channels, .. } = input else {
            // `FeatureShape` has exactly two variants and the assert above
            // rejected `Flat`.
            unreachable!()
        };
        (Vec::new(), FeatureShape::Flat { features: channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes_and_describe_agree() {
        let conv = Conv2d::new("c", 3, 8, 3, 2, 1, true, 1);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[2, 3, 9, 9], 1.0, 2));
        let y = conv.forward(&tape, &x, true);
        let (descs, out) = conv.describe(FeatureShape::image(3, 9, 9));
        assert_eq!(descs.len(), 1);
        let FeatureShape::Image {
            channels,
            height,
            width,
        } = out
        else {
            panic!("conv output must be an image")
        };
        assert_eq!(y.shape(), vec![2, channels, height, width]);
    }

    #[test]
    fn conv_param_count() {
        let conv = Conv2d::new("c", 4, 6, 3, 1, 1, true, 1);
        assert_eq!(conv.param_count(), 4 * 6 * 9 + 6);
        let no_bias = Conv2d::new("c", 4, 6, 3, 1, 1, false, 1);
        assert_eq!(no_bias.param_count(), 4 * 6 * 9);
    }

    #[test]
    fn linear_forward_matches_manual() {
        let lin = Linear::new("fc", 3, 2, 5);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[1, 3]));
        let y = lin.forward(&tape, &x, true);
        let w = lin.params()[0].value();
        let expect0: f32 = (0..3).map(|i| w.at(&[i, 0])).sum();
        assert!((y.value().data()[0] - expect0).abs() < 1e-5);
    }

    #[test]
    fn batch_norm_train_updates_running_stats() {
        let bn = BatchNorm2d::new("bn", 2);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::full(&[4, 2, 2, 2], 10.0));
        let before = bn.running_mean();
        let _ = bn.forward(&tape, &x, true);
        let after = bn.running_mean();
        assert!(after.data()[0] > before.data()[0]);
        // Eval mode must not touch stats.
        let frozen = bn.running_mean();
        let _ = bn.forward(&tape, &x, false);
        assert_eq!(bn.running_mean(), frozen);

        // The running statistics take the bits of the per-channel
        // double-pass batch mean and biased variance.
        let (n, c, hw, momentum) = (4, 9, 9, 0.1f32);
        let bn = BatchNorm2d::new("bn", c);
        let (mut mean, mut var) = (vec![0.0f32; c], vec![1.0f32; c]);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for seed in [3, 4] {
            let x = Tensor::randn(&[n, c, 3, 3], 2.0, seed);
            let _ = bn.forward(&tape, &tape.leaf(x.clone()), true);
            let m = (n * hw) as f32;
            for ci in 0..c {
                let plane = |ni: usize| &x.data()[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                let mut acc = 0.0f32;
                for ni in 0..n {
                    acc += plane(ni).iter().sum::<f32>();
                }
                let mu = acc / m;
                let mut vacc = 0.0f32;
                for ni in 0..n {
                    for &v in plane(ni) {
                        let d = v - mu;
                        vacc += d * d;
                    }
                }
                mean[ci] = (1.0 - momentum) * mean[ci] + momentum * mu;
                var[ci] = (1.0 - momentum) * var[ci] + momentum * (vacc / m);
            }
            assert_eq!(bits(bn.running_mean().data()), bits(&mean), "seed {seed}");
            assert_eq!(bits(bn.running_var().data()), bits(&var), "seed {seed}");
        }
    }

    #[test]
    fn train_forward_on_a_no_grad_tape_matches_a_recording_one() {
        let build = || {
            crate::Sequential::new()
                .push(Conv2d::new("c", 3, 4, 3, 1, 1, false, 5))
                .push(BatchNorm2d::new("bn", 4))
                .push(Relu::new())
                .push(DepthwiseConv2d::new("dw", 4, 3, 2, 1, 6))
                .push(BatchNorm2d::new("dw_bn", 4))
        };
        let (recorded, forward_only) = (build(), build());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let state = |m: &crate::Sequential| -> Vec<Vec<u32>> {
            m.state().iter().map(|p| bits(&p.value())).collect()
        };
        for (step, train) in [true, true, false].into_iter().enumerate() {
            let x = Tensor::randn(&[2, 3, 6, 6], 1.0, 10 + step as u64);
            let tape = Tape::new();
            let y = recorded.forward(&tape, &tape.leaf(x.clone()), train);
            let side = Tape::no_grad();
            let y_side = forward_only.forward(&side, &side.constant(x), train);
            assert_eq!(bits(&y.value()), bits(&y_side.value()), "step {step}");
            assert_eq!(state(&recorded), state(&forward_only), "step {step}");
        }
        assert_ne!(
            state(&forward_only),
            state(&build()),
            "train forwards moved the stats"
        );
    }

    #[test]
    fn depthwise_preserves_channels() {
        let dw = DepthwiseConv2d::new("dw", 5, 3, 1, 1, 3);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[1, 5, 6, 6], 1.0, 4));
        let y = dw.forward(&tape, &x, true);
        assert_eq!(y.shape(), vec![1, 5, 6, 6]);
    }

    #[test]
    fn flatten_and_gap_describe() {
        let (d1, s1) = Flatten::new().describe(FeatureShape::image(3, 4, 4));
        assert!(d1.is_empty());
        assert_eq!(s1, FeatureShape::Flat { features: 48 });
        let (d2, s2) = GlobalAvgPool::new().describe(FeatureShape::image(7, 4, 4));
        assert!(d2.is_empty());
        assert_eq!(s2, FeatureShape::Flat { features: 7 });
    }

    #[test]
    #[should_panic(expected = "cannot consume a flat")]
    fn conv_describe_rejects_flat_input() {
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, true, 1);
        let _ = conv.describe(FeatureShape::Flat { features: 10 });
    }

    #[test]
    fn linear_init_scale_shrinks_weights() {
        let a = Linear::new("fc", 8, 4, 7);
        let b = Linear::new("fc", 8, 4, 7).with_init_scale(0.01);
        assert!(b.params()[0].value().sq_norm() < a.params()[0].value().sq_norm() * 1e-2);
    }
}
