//! Deriving the final (fixed) network from a finished search.

use crate::error::NasError;
use crate::ops::{build_op, OpChoice};
use crate::supernet::SupernetConfig;
use a3cs_nn::{
    Backbone, BatchNorm2d, Conv2d, FeatureShape, GlobalAvgPool, Linear, Relu, Sequential,
};

/// Materialise `choices` (one operator per cell) as a standalone
/// [`Backbone`] with fresh weights, following Alg. 1's final step
/// ("derive the final agent with the highest α").
///
/// The derived network keeps the supernet's stem, cell plan and head; only
/// the per-cell operator varies.
///
/// # Errors
///
/// [`NasError::InvalidCellCount`] when the configuration has no valid cell
/// plan; [`NasError::ChoiceArityMismatch`] when `choices.len()` does not
/// equal the configured cell count.
pub fn try_derive_backbone(
    config: &SupernetConfig,
    choices: &[OpChoice],
    seed: u64,
) -> Result<Backbone, NasError> {
    let plan = config.try_cell_plan()?;
    if choices.len() != plan.len() {
        return Err(NasError::ChoiceArityMismatch {
            expected: plan.len(),
            actual: choices.len(),
        });
    }
    let mut net = Sequential::new()
        .push(Conv2d::new(
            "a3cs.stem",
            config.in_planes,
            config.base_width,
            3,
            2,
            1,
            false,
            seed,
        ))
        .push(BatchNorm2d::new("a3cs.stem_bn", config.base_width))
        .push(Relu::new());
    for (ci, (&choice, &(in_ch, out_ch, stride))) in choices.iter().zip(plan.iter()).enumerate() {
        net.push_boxed(build_op(
            choice,
            &format!("a3cs.c{ci}.{choice}"),
            in_ch,
            out_ch,
            stride,
            seed.wrapping_add(ci as u64 * 17 + 1),
        ));
    }
    let net = net
        .push(GlobalAvgPool::new())
        .push(Linear::new(
            "a3cs.fc",
            config.head_width(),
            config.feat_dim,
            seed.wrapping_add(911),
        ))
        .push(Relu::new());
    Ok(Backbone::from_parts(
        "A3C-S",
        net,
        FeatureShape::image(config.in_planes, config.height, config.width),
        config.feat_dim,
    ))
}

/// Panicking convenience wrapper around [`try_derive_backbone`].
///
/// # Panics
///
/// Panics if `choices.len()` does not equal the configured cell count or
/// the configuration has no valid cell plan.
#[must_use]
pub fn derive_backbone(config: &SupernetConfig, choices: &[OpChoice], seed: u64) -> Backbone {
    match try_derive_backbone(config, choices, seed) {
        Ok(backbone) => backbone,
        // Callers who must handle bad configs use `try_derive_backbone`;
        // reaching this arm is a caller bug the documented contract rules
        // out.
        Err(e) => unreachable!("derive_backbone precondition violated: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ALL_OPS;
    use crate::supernet::SuperNet;
    use a3cs_nn::Module;
    use a3cs_tensor::{Tape, Tensor};

    #[test]
    fn derived_backbone_runs_and_matches_feat_dim() {
        let cfg = SupernetConfig::tiny(3, 12, 12);
        let choices = vec![OpChoice::Conv { kernel: 3 }; 6];
        let bb = derive_backbone(&cfg, &choices, 1);
        assert_eq!(bb.name(), "A3C-S");
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[2, 3, 12, 12], 0.3, 2));
        let y = bb.forward(&tape, &x, true);
        assert_eq!(y.shape(), vec![2, 32]);
    }

    #[test]
    fn derived_from_supernet_argmax_matches_description() {
        let cfg = SupernetConfig::tiny(3, 12, 12);
        let sn = SuperNet::new(cfg, 5);
        // Bias the α so argmax is non-trivial and mixed.
        sn.arch().cell(1).update(|t| t.data_mut()[8] = 3.0); // skip
        sn.arch().cell(3).update(|t| t.data_mut()[4] = 3.0); // ir_k3_e5
        let derived = derive_backbone(&cfg, &sn.most_likely_arch(), 2);
        // Same compute-layer inventory as the supernet's argmax description
        // (names differ; op structure must match).
        let sn_descs = sn.most_likely_layer_descs();
        let dv_descs = derived.layer_descs();
        assert_eq!(sn_descs.len(), dv_descs.len());
        for (a, b) in sn_descs.iter().zip(dv_descs.iter()) {
            assert_eq!(a.op, b.op);
        }
    }

    #[test]
    fn all_ops_produce_valid_derivations() {
        let cfg = SupernetConfig::tiny(3, 12, 12);
        for &op in &ALL_OPS {
            let bb = derive_backbone(&cfg, &[op; 6], 3);
            assert!(bb.total_macs() > 0, "{op}");
        }
    }

    #[test]
    fn skip_heavy_architectures_are_cheaper() {
        let cfg = SupernetConfig::tiny(3, 12, 12);
        let heavy = derive_backbone(&cfg, &[OpChoice::Conv { kernel: 5 }; 6], 4);
        let light = derive_backbone(&cfg, &[OpChoice::Skip; 6], 4);
        assert!(heavy.total_macs() > light.total_macs() * 2);
    }

    #[test]
    #[should_panic(expected = "one operator choice per cell")]
    fn wrong_choice_count_panics() {
        let cfg = SupernetConfig::tiny(3, 12, 12);
        let _ = derive_backbone(&cfg, &[OpChoice::Skip], 0);
    }

    #[test]
    fn try_derive_reports_structured_errors() {
        use crate::error::NasError;
        let cfg = SupernetConfig::tiny(3, 12, 12);
        assert_eq!(
            try_derive_backbone(&cfg, &[OpChoice::Skip], 0).err(),
            Some(NasError::ChoiceArityMismatch {
                expected: 6,
                actual: 1,
            })
        );
        let mut bad = cfg;
        bad.num_cells = 5;
        assert_eq!(
            try_derive_backbone(&bad, &[OpChoice::Skip; 5], 0).err(),
            Some(NasError::InvalidCellCount { num_cells: 5 })
        );
        assert_eq!(
            bad.try_cell_plan().err(),
            Some(NasError::InvalidCellCount { num_cells: 5 })
        );
        assert!(try_derive_backbone(&cfg, &[OpChoice::Skip; 6], 0).is_ok());
    }
}
