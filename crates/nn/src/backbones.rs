//! The paper's backbone zoo: the DQN-style *Vanilla* network and the
//! CIFAR-style ResNet family (depths 14/20/38/74, first conv stride 2,
//! fixed-width feature head), scaled down to the reproduction's
//! observation sizes.

use crate::blocks::BasicBlock;
use crate::describe::{FeatureShape, LayerDesc};
use crate::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, Relu};
use crate::module::Module;
use crate::param::Param;
use crate::sequential::Sequential;
use a3cs_tensor::{Tape, Var};

/// A named feature-extractor network with a fixed output feature size.
///
/// This is what the DRL agent wraps with policy/value heads and what the
/// accelerator predictor describes.
pub struct Backbone {
    name: String,
    net: Sequential,
    in_shape: FeatureShape,
    feat_dim: usize,
}

impl Backbone {
    /// Assemble a backbone from parts.
    ///
    /// # Panics
    ///
    /// Panics if `net.describe(in_shape)` does not end in a flat vector of
    /// `feat_dim` features.
    #[must_use]
    pub fn from_parts(
        name: &str,
        net: Sequential,
        in_shape: FeatureShape,
        feat_dim: usize,
    ) -> Self {
        let (_, out) = net.describe(in_shape);
        assert_eq!(
            out,
            FeatureShape::Flat { features: feat_dim },
            "backbone {name} must end in a flat {feat_dim}-feature vector"
        );
        Backbone {
            name: name.to_owned(),
            net,
            in_shape,
            feat_dim,
        }
    }

    /// The backbone's display name (e.g. `"ResNet-20"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output feature dimensionality.
    #[must_use]
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// The observation shape this backbone was built for.
    #[must_use]
    pub fn in_shape(&self) -> FeatureShape {
        self.in_shape
    }

    /// Compute-layer descriptors for the design-time input shape.
    #[must_use]
    pub fn layer_descs(&self) -> Vec<LayerDesc> {
        self.net.describe(self.in_shape).0
    }

    /// Total MACs per inference at the design-time input shape.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layer_descs().iter().map(LayerDesc::macs).sum()
    }
}

impl Module for Backbone {
    fn forward(&self, tape: &Tape, x: &Var, train: bool) -> Var {
        self.net.forward(tape, x, train)
    }

    fn params(&self) -> Vec<Param> {
        self.net.params()
    }

    fn state(&self) -> Vec<Param> {
        self.net.state()
    }

    fn describe(&self, input: FeatureShape) -> (Vec<LayerDesc>, FeatureShape) {
        self.net.describe(input)
    }
}

fn conv_out(side: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (side + 2 * padding - kernel) / stride + 1
}

/// The DQN-style small network ("Vanilla" in the paper), scaled to the
/// reproduction's observation sizes: two stride-2 convolutions followed by
/// a fully connected feature layer.
///
/// # Panics
///
/// Panics if the observation is too small for two stride-2 convolutions.
///
/// # Example
///
/// ```
/// let net = a3cs_nn::vanilla(4, 12, 12, 64, 0);
/// assert_eq!(net.name(), "Vanilla");
/// assert_eq!(net.feat_dim(), 64);
/// ```
#[must_use]
pub fn vanilla(in_planes: usize, height: usize, width: usize, feat_dim: usize, seed: u64) -> Backbone {
    let c1 = 16;
    let c2 = 32;
    let h1 = conv_out(height, 3, 2, 1);
    let w1 = conv_out(width, 3, 2, 1);
    let h2 = conv_out(h1, 3, 2, 1);
    let w2 = conv_out(w1, 3, 2, 1);
    let flat = c2 * h2 * w2;
    let net = Sequential::new()
        .push(Conv2d::new("vanilla.conv1", in_planes, c1, 3, 2, 1, true, seed))
        .push(Relu::new())
        .push(Conv2d::new(
            "vanilla.conv2",
            c1,
            c2,
            3,
            2,
            1,
            true,
            seed.wrapping_add(1),
        ))
        .push(Relu::new())
        .push(Flatten::new())
        .push(Linear::new(
            "vanilla.fc",
            flat,
            feat_dim,
            seed.wrapping_add(2),
        ))
        .push(Relu::new());
    Backbone::from_parts(
        "Vanilla",
        net,
        FeatureShape::image(in_planes, height, width),
        feat_dim,
    )
}

/// Blocks per group for a CIFAR-style ResNet of `depth = 6n + 2`.
///
/// # Panics
///
/// Panics unless `depth` is of the form `6n + 2` with `n >= 1`
/// (the paper uses 14, 20, 38 and 74).
#[must_use]
pub fn resnet_blocks_per_group(depth: usize) -> usize {
    assert!(
        depth >= 8 && (depth - 2).is_multiple_of(6),
        "ResNet depth must be 6n+2 (e.g. 14, 20, 38, 74), got {depth}"
    );
    (depth - 2) / 6
}

/// A CIFAR-style ResNet backbone with the paper's modifications: the stem
/// convolution has stride 2 and the head is a fixed-width fully connected
/// layer (256 in the paper; `feat_dim` here so the scale is configurable).
///
/// `base_width` is the channel count of the first group; groups 2 and 3
/// double and quadruple it with stride-2 transitions.
///
/// # Panics
///
/// Panics if `depth` is not of the form `6n + 2`, or the spatial input is
/// too small for three stride-2 stages.
///
/// # Example
///
/// ```
/// let net = a3cs_nn::resnet(14, 4, 12, 12, 8, 64, 0);
/// assert_eq!(net.name(), "ResNet-14");
/// // depth 14 => 2 blocks per group, 3 groups, plus stem and head.
/// assert!(net.total_macs() > 0);
/// ```
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn resnet(
    depth: usize,
    in_planes: usize,
    height: usize,
    width: usize,
    base_width: usize,
    feat_dim: usize,
    seed: u64,
) -> Backbone {
    let n = resnet_blocks_per_group(depth);
    let name = format!("ResNet-{depth}");
    let mut net = Sequential::new()
        .push(Conv2d::new(
            &format!("{name}.stem"),
            in_planes,
            base_width,
            3,
            2,
            1,
            false,
            seed,
        ))
        .push(BatchNorm2d::new(&format!("{name}.stem_bn"), base_width))
        .push(Relu::new());
    let widths = [base_width, base_width * 2, base_width * 4];
    let mut in_ch = base_width;
    let mut block_seed = seed.wrapping_add(10);
    for (g, &w) in widths.iter().enumerate() {
        for b in 0..n {
            let stride = if g > 0 && b == 0 { 2 } else { 1 };
            net.push_boxed(Box::new(BasicBlock::new(
                &format!("{name}.g{g}b{b}"),
                in_ch,
                w,
                stride,
                block_seed,
            )));
            in_ch = w;
            block_seed = block_seed.wrapping_add(7);
        }
    }
    let net = net
        .push(GlobalAvgPool::new())
        .push(Linear::new(
            &format!("{name}.fc"),
            widths[2],
            feat_dim,
            seed.wrapping_add(3),
        ))
        .push(Relu::new());
    Backbone::from_parts(
        &name,
        net,
        FeatureShape::image(in_planes, height, width),
        feat_dim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3cs_tensor::{Tape, Tensor};

    #[test]
    fn blocks_per_group_matches_paper_depths() {
        assert_eq!(resnet_blocks_per_group(14), 2);
        assert_eq!(resnet_blocks_per_group(20), 3);
        assert_eq!(resnet_blocks_per_group(38), 6);
        assert_eq!(resnet_blocks_per_group(74), 12);
    }

    #[test]
    #[should_panic(expected = "6n+2")]
    fn invalid_depth_panics() {
        let _ = resnet_blocks_per_group(15);
    }

    #[test]
    fn vanilla_forward_shape() {
        let net = vanilla(4, 12, 12, 32, 1);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[3, 4, 12, 12], 0.3, 2));
        let y = net.forward(&tape, &x, true);
        assert_eq!(y.shape(), vec![3, 32]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn resnet_forward_shape_all_depths() {
        for depth in [14, 20] {
            let net = resnet(depth, 4, 12, 12, 8, 32, 1);
            let tape = Tape::new();
            let x = tape.leaf(Tensor::randn(&[2, 4, 12, 12], 0.3, 2));
            let y = net.forward(&tape, &x, true);
            assert_eq!(y.shape(), vec![2, 32], "depth {depth}");
            assert!(y.value().all_finite(), "depth {depth}");
        }
    }

    #[test]
    fn deeper_resnets_have_more_macs_and_params() {
        let r14 = resnet(14, 4, 12, 12, 8, 32, 1);
        let r20 = resnet(20, 4, 12, 12, 8, 32, 1);
        let r38 = resnet(38, 4, 12, 12, 8, 32, 1);
        assert!(r20.total_macs() > r14.total_macs());
        assert!(r38.total_macs() > r20.total_macs());
        assert!(r38.param_count() > r20.param_count());
        assert!(r20.param_count() > r14.param_count());
    }

    #[test]
    fn vanilla_is_much_smaller_than_resnets() {
        let v = vanilla(4, 12, 12, 32, 1);
        let r14 = resnet(14, 4, 12, 12, 8, 32, 1);
        assert!(v.total_macs() < r14.total_macs());
    }

    #[test]
    fn layer_descs_cover_every_conv_and_fc() {
        let r14 = resnet(14, 4, 12, 12, 8, 32, 1);
        let descs = r14.layer_descs();
        // stem + 6 blocks * 2 convs + 2 downsample convs (group transitions)
        // + head fc = 16
        assert_eq!(descs.len(), 16);
        assert!(descs.iter().any(|d| d.name.ends_with(".fc")));
    }

    #[test]
    fn backbone_reports_design_input_shape() {
        let v = vanilla(2, 10, 10, 16, 0);
        assert_eq!(v.in_shape(), FeatureShape::image(2, 10, 10));
    }
}
