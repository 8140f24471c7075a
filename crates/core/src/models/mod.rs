//! Model zoo: trainable builders (Plain-20, ResNet-20, small ResNet-18)
//! and the exact layer [`geometry`] of the comparison architectures used in
//! Table III.
//!
//! Every builder comes in a vanilla variant (standard convolutions) and an
//! `_alf` variant (every convolution replaced by an ALF block), mirroring
//! how the paper applies the technique.

pub mod geometry;

use alf_nn::activation::ActivationKind;
use alf_nn::conv::Conv2d;
use alf_nn::linear::Linear;
use alf_nn::pool::GlobalAvgPool;
use alf_tensor::init::Init;
use alf_tensor::rng::Rng;

use crate::block::{AlfBlock, AlfBlockConfig};
use crate::model::{CnnModel, ConvKind, ConvUnit, PadShortcut, ResidualUnit, Unit};
use crate::Result;

/// How to realise each convolution of a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvStyle {
    /// Plain convolution (vanilla baselines).
    Standard,
    /// ALF block with the given configuration.
    Alf(AlfBlockConfig),
}

impl ConvStyle {
    fn build(
        self,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> ConvKind {
        match self {
            ConvStyle::Standard => ConvKind::Standard(Conv2d::new(
                c_in,
                c_out,
                kernel,
                stride,
                pad,
                false,
                Init::He,
                rng,
            )),
            ConvStyle::Alf(cfg) => {
                ConvKind::Alf(AlfBlock::new(c_in, c_out, kernel, stride, pad, cfg, rng))
            }
        }
    }
}

/// The paper's Fig. 3 layer naming: `conv1`, then `conv{stage}{block}{idx}`
/// with stages numbered from 2.
fn layer_name(stage: usize, block: usize, idx: usize) -> String {
    format!("conv{}{}{}", stage + 2, block + 1, idx + 1)
}

/// Shared body builder for the CIFAR-style 20-layer networks: a stem conv
/// plus 3 stages × 3 blocks × 2 convs over widths `w, 2w, 4w`, global
/// average pooling and a linear classifier.
fn cifar20(
    name: &str,
    num_classes: usize,
    width: usize,
    residual: bool,
    style: ConvStyle,
    seed: u64,
) -> Result<CnnModel> {
    let mut rng = Rng::new(seed);
    let mut units = Vec::new();
    units.push(Unit::Conv(ConvUnit::new(
        "conv1",
        style.build(3, width, 3, 1, 1, &mut rng),
        Some(ActivationKind::Relu),
    )));
    let mut c_in = width;
    for stage in 0..3 {
        let c_out = width << stage;
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let a = ConvUnit::new(
                layer_name(stage, block, 0),
                style.build(c_in, c_out, 3, stride, 1, &mut rng),
                Some(ActivationKind::Relu),
            );
            if residual {
                let b = ConvUnit::new(
                    layer_name(stage, block, 1),
                    style.build(c_out, c_out, 3, 1, 1, &mut rng),
                    None,
                );
                let shortcut =
                    (c_in != c_out || stride != 1).then(|| PadShortcut::new(stride, c_out));
                units.push(Unit::Residual(ResidualUnit::new(a, b, shortcut)));
            } else {
                let b = ConvUnit::new(
                    layer_name(stage, block, 1),
                    style.build(c_out, c_out, 3, 1, 1, &mut rng),
                    Some(ActivationKind::Relu),
                );
                units.push(Unit::Conv(a));
                units.push(Unit::Conv(b));
            }
            c_in = c_out;
        }
    }
    units.push(Unit::GlobalPool(GlobalAvgPool::new()));
    units.push(Unit::Classifier(Linear::new(
        c_in,
        num_classes,
        Init::Xavier,
        &mut rng,
    )));
    CnnModel::from_units(name, units, num_classes)
}

/// Plain-20 (He et al.'s non-residual 20-layer CIFAR network) with standard
/// convolutions. `width` is the stem channel count (the paper uses 16).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid arguments).
pub fn plain20(num_classes: usize, width: usize) -> Result<CnnModel> {
    cifar20(
        "plain20",
        num_classes,
        width,
        false,
        ConvStyle::Standard,
        20,
    )
}

/// Plain-20 with every convolution replaced by an ALF block.
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid arguments).
pub fn plain20_alf(
    num_classes: usize,
    width: usize,
    config: AlfBlockConfig,
    seed: u64,
) -> Result<CnnModel> {
    cifar20(
        "alf-plain20",
        num_classes,
        width,
        false,
        ConvStyle::Alf(config),
        seed,
    )
}

/// ResNet-20 with standard convolutions (identity / padded shortcuts,
/// option A — parameter-free, so Params match Plain-20).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid arguments).
pub fn resnet20(num_classes: usize, width: usize) -> Result<CnnModel> {
    cifar20(
        "resnet20",
        num_classes,
        width,
        true,
        ConvStyle::Standard,
        21,
    )
}

/// ResNet-20 with every convolution replaced by an ALF block.
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid arguments).
pub fn resnet20_alf(
    num_classes: usize,
    width: usize,
    config: AlfBlockConfig,
    seed: u64,
) -> Result<CnnModel> {
    cifar20(
        "alf-resnet20",
        num_classes,
        width,
        true,
        ConvStyle::Alf(config),
        seed,
    )
}

/// A ResNet-18-shaped model for the synthetic-ImageNet experiments: 4
/// stages × 2 basic blocks over widths `w..8w`, with a 3×3 stem sized for
/// 64×64 inputs (the 224×224 7×7-stem geometry used for Table III counting
/// lives in [`geometry::resnet18_layers`]).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid arguments).
pub fn resnet18_small(
    num_classes: usize,
    width: usize,
    style: ConvStyle,
    seed: u64,
) -> Result<CnnModel> {
    let mut rng = Rng::new(seed);
    let mut units = Vec::new();
    units.push(Unit::Conv(ConvUnit::new(
        "conv1",
        style.build(3, width, 3, 1, 1, &mut rng),
        Some(ActivationKind::Relu),
    )));
    let mut c_in = width;
    for stage in 0..4 {
        let c_out = width << stage;
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let a = ConvUnit::new(
                layer_name(stage, block, 0),
                style.build(c_in, c_out, 3, stride, 1, &mut rng),
                Some(ActivationKind::Relu),
            );
            let b = ConvUnit::new(
                layer_name(stage, block, 1),
                style.build(c_out, c_out, 3, 1, 1, &mut rng),
                None,
            );
            let shortcut = (c_in != c_out || stride != 1).then(|| PadShortcut::new(stride, c_out));
            units.push(Unit::Residual(ResidualUnit::new(a, b, shortcut)));
            c_in = c_out;
        }
    }
    units.push(Unit::GlobalPool(GlobalAvgPool::new()));
    units.push(Unit::Classifier(Linear::new(
        c_in,
        num_classes,
        Init::Xavier,
        &mut rng,
    )));
    CnnModel::from_units("resnet18-small", units, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NetworkCost;
    use alf_nn::{Layer, RunCtx};
    use alf_tensor::Tensor;

    #[test]
    fn plain20_has_19_convs_and_paper_cost() {
        let model = plain20(10, 16).unwrap();
        let shapes = model.conv_shapes(32, 32);
        assert_eq!(shapes.len(), 19);
        let cost = NetworkCost::of_layers(&shapes);
        assert!((cost.params as f64 / 1e6 - 0.27).abs() < 0.01);
        assert!((cost.ops() as f64 / 1e6 - 81.1).abs() < 1.0);
    }

    #[test]
    fn resnet20_params_match_plain20() {
        // Option-A shortcuts are parameter-free.
        let mut plain = plain20(10, 16).unwrap();
        let mut res = resnet20(10, 16).unwrap();
        assert_eq!(plain.param_count(), res.param_count());
    }

    #[test]
    fn layer_names_follow_fig3_notation() {
        let model = plain20(10, 16).unwrap();
        let names: Vec<String> = model
            .conv_shapes(32, 32)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names[0], "conv1");
        assert_eq!(names[1], "conv211");
        assert_eq!(names[8], "conv312"); // stage 3, block 1, conv 2
        assert_eq!(names[18], "conv432");
    }

    #[test]
    fn plain20_forward_backward_smoke() {
        let mut model = plain20(4, 4).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = model.forward(&x, &mut RunCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        let g = model.backward(&y, &mut RunCtx::train()).unwrap();
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn resnet20_forward_backward_smoke() {
        let mut model = resnet20(4, 4).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = model.forward(&x, &mut RunCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        model.backward(&y, &mut RunCtx::train()).unwrap();
    }

    #[test]
    fn alf_variants_expose_all_blocks() {
        let cfg = crate::block::AlfBlockConfig::paper_default();
        let mut model = plain20_alf(10, 4, cfg, 1).unwrap();
        assert_eq!(model.alf_blocks_mut().len(), 19);
        let mut model = resnet20_alf(10, 4, cfg, 1).unwrap();
        assert_eq!(model.alf_blocks_mut().len(), 19);
        assert_eq!(model.filter_stats().len(), 19);
    }

    #[test]
    fn alf_plain20_forward_shape() {
        let cfg = crate::block::AlfBlockConfig::paper_default();
        let mut model = plain20_alf(3, 4, cfg, 2).unwrap();
        let y = model
            .forward(&Tensor::zeros(&[1, 3, 16, 16]), &mut RunCtx::eval())
            .unwrap();
        assert_eq!(y.dims(), &[1, 3]);
    }

    #[test]
    fn resnet18_small_runs() {
        let mut model = resnet18_small(5, 4, ConvStyle::Standard, 3).unwrap();
        let y = model
            .forward(&Tensor::zeros(&[1, 3, 32, 32]), &mut RunCtx::train())
            .unwrap();
        assert_eq!(y.dims(), &[1, 5]);
        assert_eq!(model.conv_shapes(64, 64).len(), 17);
    }

    #[test]
    fn remaining_filter_fraction_starts_dense() {
        let cfg = crate::block::AlfBlockConfig::paper_default();
        let model = plain20_alf(10, 4, cfg, 4).unwrap();
        assert_eq!(model.remaining_filter_fraction(), 1.0);
        // Vanilla models have no ALF blocks — fraction reports 1.0.
        assert_eq!(plain20(10, 4).unwrap().remaining_filter_fraction(), 1.0);
    }
}
