//! Deployment post-processing (paper §III-C).
//!
//! After training, every ALF block's code `Wcode` contains some filters
//! that are exactly zero (their mask entries were clipped). Deployment:
//!
//! 1. materialises the code as constant weights (the autoencoder is
//!    discarded),
//! 2. strips the zero filters from the code convolution, and
//! 3. removes the matching *input channels* of the 1×1 expansion layer
//!    (their contribution was identically zero).
//!
//! The result is a dense model that computes exactly the same function as
//! the training-form network in evaluation mode — verified by this
//! module's test-suite — but with `Ccode < Co` filters per layer.
//!
//! All deployment transforms are driven by [`Pipeline`]:
//!
//! ```text
//! Pipeline::new()                // strip zero filters (always)
//!     .fold_bn(true)             // absorb BN into conv weight/bias
//!     .quantize(QuantSpec::int8(calib))  // lower to fused int8
//!     .run(&model)? -> Deployed
//! ```
//!
//! [`Deployed`] carries the stripped (and possibly folded) f32 model, the
//! optional [`QuantizedModel`] int8 form with its [`QuantReport`], and
//! per-layer [`LayerProvenance`] records of what each transform did.

use alf_nn::activation::ActivationKind;
use alf_nn::conv::Conv2d;
use alf_tensor::init::Init;
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::block::AlfBlock;
use crate::metrics::{ConvShape, NetworkCost};
use crate::model::{CnnModel, ConvKind};
use crate::qmodel::QuantizedModel;
use crate::quant::{QuantError, QuantReport};
use crate::Result;

/// Per-convolution deployment record: the layer's geometry plus its
/// retained code size (`None` for standard convolutions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployedConvInfo {
    /// Geometry of the (code) convolution.
    pub shape: ConvShape,
    /// Retained code filters `Ccode`, or `None` for standard convs.
    pub c_code: Option<usize>,
}

impl DeployedConvInfo {
    /// Parameter count of this layer as deployed.
    pub fn params(&self) -> u64 {
        match self.c_code {
            Some(c) => self.shape.alf_params(c),
            None => self.shape.params(),
        }
    }

    /// MAC count of this layer as deployed.
    pub fn macs(&self) -> u64 {
        match self.c_code {
            Some(c) => self.shape.alf_macs(c),
            None => self.shape.macs(),
        }
    }
}

fn strip_block(block: &AlfBlock) -> Result<(Conv2d, Conv2d)> {
    let cfg = block.config();
    if cfg.sigma_inter != ActivationKind::Identity || cfg.inter_bn {
        return Err(ShapeError::new(
            "deploy",
            "only σinter = none and no BNinter can be deployed as a linear conv pair",
        ));
    }
    let code = block.code()?; // [Co, Ci, K, K]
    let (co, ci, k) = (code.dims()[0], code.dims()[1], code.dims()[2]);
    let fan = ci * k * k;
    // Keep filters that are not identically zero; guarantee at least one
    // filter so downstream shapes stay valid even for a fully-pruned layer.
    let mut active: Vec<usize> = (0..co)
        .filter(|&j| {
            code.data()[j * fan..(j + 1) * fan]
                .iter()
                .any(|&v| v != 0.0)
        })
        .collect();
    if active.is_empty() {
        active.push(0);
    }
    let c_code = active.len();
    let mut code_w = Tensor::zeros(&[c_code, ci, k, k]);
    for (row, &j) in active.iter().enumerate() {
        code_w.data_mut()[row * fan..(row + 1) * fan]
            .copy_from_slice(&code.data()[j * fan..(j + 1) * fan]);
    }
    let exp_full = block.expansion_weight(); // [Co, Co, 1, 1]
    let mut exp_w = Tensor::zeros(&[co, c_code, 1, 1]);
    for o in 0..co {
        for (row, &j) in active.iter().enumerate() {
            exp_w.data_mut()[o * c_code + row] = exp_full.data()[o * co + j];
        }
    }
    let spec = block.conv_spec();
    let mut rng = Rng::new(0);
    let mut code_conv = Conv2d::new(
        ci,
        c_code,
        spec.kernel,
        spec.stride,
        spec.pad,
        false,
        Init::Zeros,
        &mut rng,
    );
    code_conv.set_weight(code_w)?;
    let mut expansion = Conv2d::new(c_code, co, 1, 1, 0, false, Init::Zeros, &mut rng);
    expansion.set_weight(exp_w)?;
    Ok((code_conv, expansion))
}

fn deploy_conv(kind: &ConvKind) -> Result<ConvKind> {
    Ok(match kind {
        ConvKind::Alf(block) => {
            let (code, expansion) = strip_block(block)?;
            ConvKind::Deployed { code, expansion }
        }
        other => other.clone(),
    })
}

/// Strips every ALF block of the model copy to its dense `code →
/// expansion` pair (the unconditional first stage of every [`Pipeline`]).
fn strip_model(model: &CnnModel) -> Result<CnnModel> {
    let mut out = model.clone();
    for cu in out.conv_units_mut() {
        *cu.conv_mut() = deploy_conv(cu.conv())?;
    }
    out.set_name(format!("deployed-{}", model.name()));
    Ok(out)
}

/// Folds a unit's batch-norm into one convolution's weight and bias:
/// `W'[o] = g[o]·W[o]`, `b'[o] = β[o] − g[o]·μ[o] + g[o]·b[o]` with
/// `g[o] = γ[o]/√(σ²[o]+ε)` — exactly the eval-path normalisation, so the
/// folded conv reproduces conv→BN to rounding error.
fn fold_into_conv(conv: &mut Conv2d, g: &[f32], beta: &[f32], mean: &[f32]) -> Result<()> {
    let co = conv.c_out();
    let old_bias: Vec<f32> = match conv.bias() {
        Some(b) => b.data().to_vec(),
        None => vec![0.0; co],
    };
    let w = conv.weight_mut();
    let fan = w.len() / co;
    for (row, &scale) in w.data_mut().chunks_exact_mut(fan).zip(g) {
        for v in row {
            *v *= scale;
        }
    }
    let bias: Vec<f32> = (0..co)
        .map(|o| beta[o] - g[o] * mean[o] + g[o] * old_bias[o])
        .collect();
    conv.set_bias(Tensor::from_vec(bias, &[co])?)
}

/// Removes every batch-norm layer of the model, absorbing it into the
/// preceding convolution (the expansion conv for a deployed ALF pair).
fn fold_batchnorm(model: &mut CnnModel) -> Result<()> {
    for cu in model.conv_units_mut() {
        let Some(bn) = cu.take_bn() else { continue };
        let eps = bn.eps();
        let g: Vec<f32> = bn
            .scale()
            .data()
            .iter()
            .zip(bn.running_var().data())
            .map(|(&gamma, &var)| gamma / (var + eps).sqrt())
            .collect();
        let (beta, mean) = (bn.shift().data(), bn.running_mean().data());
        match cu.conv_mut() {
            ConvKind::Standard(c) => fold_into_conv(c, &g, beta, mean)?,
            ConvKind::Deployed { expansion, .. } => fold_into_conv(expansion, &g, beta, mean)?,
            ConvKind::Alf(_) => {
                return Err(ShapeError::new(
                    "fold_bn",
                    "training-form ALF block survived stripping",
                ))
            }
        }
    }
    Ok(())
}

/// Quantization request for [`Pipeline::quantize`].
#[derive(Debug, Clone)]
pub struct QuantSpec {
    bits: u8,
    calib: Tensor,
}

impl QuantSpec {
    /// Symmetric int8 with activation scales calibrated on `calib`, an
    /// `NCHW` batch of representative inputs.
    pub fn int8(calib: Tensor) -> Self {
        Self { bits: 8, calib }
    }

    /// Bit-width of the request (currently always 8).
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

/// What one deployment transform pass did to one conv unit.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProvenance {
    /// The conv unit's name.
    pub layer: String,
    /// Retained code filters after stripping (`None` for standard convs).
    pub stripped_to: Option<usize>,
    /// Whether a batch-norm layer was folded away.
    pub folded_bn: bool,
    /// Weight scale of the unit's output conv, when quantized.
    pub weight_scale: Option<f32>,
    /// Output activation scale of the unit, when quantized.
    pub act_scale: Option<f32>,
}

/// Everything [`Pipeline::run`] produces.
#[derive(Debug, Clone)]
pub struct Deployed {
    /// The stripped (and, when requested, BN-folded) f32 model.
    pub model: CnnModel,
    /// The fused int8 form, when quantization was requested.
    pub quantized: Option<QuantizedModel>,
    /// Weight-quantization summary, when quantization was requested.
    pub report: Option<QuantReport>,
    /// Per-conv-unit record of what each transform did.
    pub provenance: Vec<LayerProvenance>,
}

/// A deployment failure: either a structural shape problem or a
/// quantization problem.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// Structural failure (non-foldable block form, geometry mismatch).
    Shape(ShapeError),
    /// Quantization failure (bad calibration, unsupported model form).
    Quant(QuantError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Shape(e) => write!(f, "deploy: {e}"),
            DeployError::Quant(e) => write!(f, "deploy (quantize): {e}"),
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Shape(e) => Some(e),
            DeployError::Quant(e) => Some(e),
        }
    }
}

impl From<ShapeError> for DeployError {
    fn from(e: ShapeError) -> Self {
        DeployError::Shape(e)
    }
}

impl From<QuantError> for DeployError {
    fn from(e: QuantError) -> Self {
        DeployError::Quant(e)
    }
}

impl From<DeployError> for ShapeError {
    /// Lets `Pipeline::run(..)?` flow into the crate-wide
    /// [`Result`] at call sites that don't need the typed
    /// split (bench jobs, examples).
    fn from(e: DeployError) -> Self {
        match e {
            DeployError::Shape(s) => s,
            DeployError::Quant(q) => ShapeError::new("deploy/quantize", q.to_string()),
        }
    }
}

/// Builder for the deployment transform sequence. Stripping zero filters
/// always happens; batch-norm folding and int8 quantization are opt-in,
/// and quantization requires folding (the int8 engine runs pure conv
/// stacks only).
///
/// # Example
///
/// ```
/// use alf_core::deploy::{Pipeline, QuantSpec};
/// use alf_core::models::plain20_alf;
/// use alf_core::AlfBlockConfig;
/// use alf_tensor::init::Init;
/// use alf_tensor::rng::Rng;
/// use alf_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = plain20_alf(10, 4, AlfBlockConfig::paper_default(), 1)?;
/// let calib = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut Rng::new(0));
/// let deployed = Pipeline::new()
///     .fold_bn(true)
///     .quantize(QuantSpec::int8(calib))
///     .run(&model)?;
/// assert!(deployed.quantized.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    fold_bn: bool,
    quant: Option<QuantSpec>,
}

impl Pipeline {
    /// A pipeline that only strips zero filters (the classic
    /// deployment form).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables batch-norm folding: every BN layer is absorbed into its
    /// conv's weight/bias and removed, leaving a pure conv stack.
    pub fn fold_bn(mut self, on: bool) -> Self {
        self.fold_bn = on;
        self
    }

    /// Requests post-training quantization of the folded model.
    pub fn quantize(mut self, spec: QuantSpec) -> Self {
        self.quant = Some(spec);
        self
    }

    /// Runs the transform sequence on (a copy of) `model`.
    ///
    /// # Errors
    ///
    /// [`DeployError::Shape`] when a block uses `σinter ≠ none` or
    /// `BNinter` (not foldable into a linear conv pair); when quantizing,
    /// [`DeployError::Quant`] for unsupported model forms, empty
    /// calibration batches, non-finite weights — and for requesting
    /// quantization without `fold_bn(true)`.
    pub fn run(&self, model: &CnnModel) -> std::result::Result<Deployed, DeployError> {
        let mut out = strip_model(model)?;
        // Taken before folding: a unit is folded exactly when it still has
        // a batch-norm for `fold_batchnorm` to take.
        let mut provenance: Vec<LayerProvenance> = out
            .conv_units()
            .into_iter()
            .map(|cu| LayerProvenance {
                layer: cu.name().to_string(),
                stripped_to: cu.conv().c_code(),
                folded_bn: self.fold_bn && cu.bn().is_some(),
                weight_scale: None,
                act_scale: None,
            })
            .collect();
        if self.fold_bn {
            fold_batchnorm(&mut out)?;
        }
        let (quantized, report) = match &self.quant {
            None => (None, None),
            Some(spec) => {
                if !self.fold_bn {
                    return Err(QuantError::Unsupported {
                        what: format!(
                            "int{} quantization without fold_bn(true) — the int8 engine \
                             runs pure conv stacks only",
                            spec.bits
                        ),
                    }
                    .into());
                }
                let (qm, report) = QuantizedModel::from_folded(&out, &spec.calib)?;
                for info in qm.conv_info() {
                    if let Some(p) = provenance.iter_mut().find(|p| p.layer == info.unit) {
                        // A deployed code→expand pair reports the unit's
                        // output stage.
                        p.weight_scale = Some(info.w_scale);
                        p.act_scale = Some(info.out_scale);
                    }
                }
                (Some(qm), Some(report))
            }
        };
        Ok(Deployed {
            model: out,
            quantized,
            report,
            provenance,
        })
    }
}

/// Per-layer deployment records for an input of `h × w` pixels, pairing
/// each convolution's geometry with its retained code size.
pub fn conv_report(model: &CnnModel, h: usize, w: usize) -> Vec<DeployedConvInfo> {
    model
        .conv_geometry(h, w)
        .into_iter()
        .map(|(cu, shape)| DeployedConvInfo {
            shape,
            c_code: cu.conv().c_code(),
        })
        .collect()
}

/// Aggregate deployed cost of a model at the given input resolution.
pub fn cost(model: &CnnModel, h: usize, w: usize) -> NetworkCost {
    conv_report(model, h, w)
        .iter()
        .fold(NetworkCost::default(), |acc, info| NetworkCost {
            params: acc.params + info.params(),
            macs: acc.macs + info.macs(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::AlfBlockConfig;
    use crate::checkpoint;
    use crate::models::{plain20, plain20_alf, resnet20_alf};
    use crate::schedule::PruneSchedule;
    use alf_nn::{Layer, RunCtx};

    fn pruned_model(seed: u64) -> CnnModel {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 5e-2; // aggressive so pruning happens fast
        let mut model = plain20_alf(4, 4, cfg, seed).unwrap();
        let schedule = PruneSchedule::new(8.0, 0.9);
        for block in model.alf_blocks_mut() {
            for _ in 0..1500 {
                block.autoencoder_step(5e-3, &schedule).unwrap();
            }
        }
        model
    }

    /// Strip-only deployment via the builder (what `compress` used to do).
    fn strip(model: &CnnModel) -> CnnModel {
        Pipeline::new().run(model).unwrap().model
    }

    #[test]
    fn compress_preserves_function_exactly() {
        let mut model = pruned_model(1);
        let mut deployed = strip(&model);
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut rng);
        let y_train_form = model.forward(&x, &mut RunCtx::eval()).unwrap();
        let y_deployed = deployed.forward(&x, &mut RunCtx::eval()).unwrap();
        assert!(
            y_deployed.allclose(&y_train_form, 1e-4),
            "deployment changed the function"
        );
    }

    #[test]
    fn compress_actually_strips_filters() {
        let model = pruned_model(3);
        // Ensure at least one block pruned something.
        assert!(model.remaining_filter_fraction() < 1.0);
        let deployed = strip(&model);
        let infos = conv_report(&deployed, 16, 16);
        let total_code: usize = infos.iter().filter_map(|i| i.c_code).sum();
        let total_out: usize = infos.iter().map(|i| i.shape.c_out).sum();
        assert!(total_code < total_out, "{total_code} vs {total_out}");
    }

    #[test]
    fn deployed_cost_below_vanilla_when_pruned_enough() {
        let model = pruned_model(4);
        let deployed = strip(&model);
        let vanilla = plain20(4, 4).unwrap();
        let v_cost = cost(&vanilla, 16, 16);
        let d_cost = cost(&deployed, 16, 16);
        // With heavy pruning the deployed network must be cheaper.
        if model.remaining_filter_fraction() < 0.5 {
            assert!(d_cost.macs < v_cost.macs, "{d_cost:?} vs {v_cost:?}");
        }
    }

    #[test]
    fn standard_convs_pass_through_unchanged() {
        let vanilla = plain20(4, 4).unwrap();
        let deployed = strip(&vanilla);
        assert_eq!(cost(&vanilla, 16, 16), cost(&deployed, 16, 16));
        assert!(conv_report(&deployed, 16, 16)
            .iter()
            .all(|i| i.c_code.is_none()));
    }

    #[test]
    fn residual_models_deploy_too() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 5e-2;
        let mut model = resnet20_alf(4, 4, cfg, 6).unwrap();
        for block in model.alf_blocks_mut() {
            for _ in 0..1500 {
                block
                    .autoencoder_step(5e-3, &PruneSchedule::new(8.0, 0.9))
                    .unwrap();
            }
        }
        let mut deployed = strip(&model);
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[1, 3, 16, 16], Init::Rand, &mut rng);
        let a = model.forward(&x, &mut RunCtx::eval()).unwrap();
        let b = deployed.forward(&x, &mut RunCtx::eval()).unwrap();
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn non_identity_sigma_inter_is_rejected() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.sigma_inter = ActivationKind::Relu;
        let model = plain20_alf(4, 4, cfg, 8).unwrap();
        assert!(Pipeline::new().run(&model).is_err());
    }

    #[test]
    fn fully_pruned_block_keeps_one_filter() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 1e9; // everything clips
        let model = plain20_alf(4, 4, cfg, 9).unwrap();
        let deployed = strip(&model);
        for info in conv_report(&deployed, 16, 16) {
            assert!(info.c_code.unwrap() >= 1);
        }
    }

    /// Gives every BN layer non-trivial γ/β and running statistics, so a
    /// folding test cannot pass by accident on the fresh-init identity.
    fn roughen_batchnorm(model: &mut CnnModel, seed: u64) {
        let mut rng = Rng::new(seed);
        for cu in model.conv_units_mut() {
            if let Some(bn) = cu.bn_mut() {
                let c = bn.channels();
                *bn.scale_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).map(|v| 1.0 + 0.3 * v);
                *bn.shift_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).scale(0.2);
            }
        }
        // Train-mode forwards push the running statistics off (0, 1).
        let x = Tensor::randn(&[4, 3, 16, 16], Init::Rand, &mut rng);
        for _ in 0..3 {
            model.forward(&x, &mut RunCtx::train()).unwrap();
        }
    }

    #[test]
    fn bn_folding_preserves_function() {
        let mut model = pruned_model(11);
        roughen_batchnorm(&mut model, 12);
        let mut stripped = strip(&model);
        let mut folded = Pipeline::new().fold_bn(true).run(&model).unwrap().model;
        // Every BN layer is gone...
        assert!(folded.conv_units().iter().all(|cu| cu.bn().is_none()));
        // ...and the function is unchanged.
        let x = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut Rng::new(13));
        let a = stripped.forward(&x, &mut RunCtx::eval()).unwrap();
        let b = folded.forward(&x, &mut RunCtx::eval()).unwrap();
        assert!(a.allclose(&b, 1e-4), "BN folding changed the function");
    }

    #[test]
    fn bn_folding_covers_residual_models() {
        let mut model = resnet20_alf(4, 4, AlfBlockConfig::paper_default(), 14).unwrap();
        roughen_batchnorm(&mut model, 15);
        let mut stripped = strip(&model);
        let mut folded = Pipeline::new().fold_bn(true).run(&model).unwrap().model;
        let x = Tensor::randn(&[1, 3, 16, 16], Init::Rand, &mut Rng::new(16));
        let a = stripped.forward(&x, &mut RunCtx::eval()).unwrap();
        let b = folded.forward(&x, &mut RunCtx::eval()).unwrap();
        assert!(a.allclose(&b, 1e-4));
    }

    /// `folded_bn` records what happened to each unit, not what was asked
    /// for: running an already-folded model through `fold_bn(true)` again
    /// finds no batch-norm, folds nothing and says so.
    #[test]
    fn refolding_a_folded_model_reports_nothing_folded() {
        let mut model = plain20(4, 4).unwrap();
        roughen_batchnorm(&mut model, 20);
        let first = Pipeline::new().fold_bn(true).run(&model).unwrap();
        assert!(first.provenance.iter().all(|p| p.folded_bn));
        let second = Pipeline::new().fold_bn(true).run(&first.model).unwrap();
        assert_eq!(second.provenance.len(), first.provenance.len());
        assert!(second.provenance.iter().all(|p| !p.folded_bn));
        assert_eq!(
            checkpoint::save(&second.model)[..],
            checkpoint::save(&first.model)[..],
            "a second fold must leave the weights alone"
        );
        let unfolded = Pipeline::new().run(&model).unwrap();
        assert!(unfolded.provenance.iter().all(|p| !p.folded_bn));
    }

    #[test]
    fn quantize_without_fold_is_a_typed_error() {
        let model = plain20(4, 4).unwrap();
        let calib = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut Rng::new(17));
        let err = Pipeline::new()
            .quantize(QuantSpec::int8(calib))
            .run(&model)
            .unwrap_err();
        assert!(matches!(
            err,
            DeployError::Quant(QuantError::Unsupported { .. })
        ));
    }

    #[test]
    fn int8_lowering_takes_all_zero_calibration_and_all_zero_weights() {
        // Each edge lowers with every scale finite and positive, and the
        // engine's logits stay finite.
        let mut model = plain20(4, 4).unwrap();
        roughen_batchnorm(&mut model, 21);
        let mut dead = model.clone();
        match dead.conv_units_mut()[1].conv_mut() {
            ConvKind::Standard(conv) => conv.weight_mut().data_mut().fill(0.0),
            _ => panic!("plain20's second unit is a standard conv"),
        }
        let mut rng = Rng::new(22);
        let calib = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut rng);
        for (model, calib) in [(&model, Tensor::zeros(&[2, 3, 16, 16])), (&dead, calib)] {
            let spec = QuantSpec::int8(calib);
            let deployed = Pipeline::new().fold_bn(true).quantize(spec).run(model);
            let mut qm = deployed.unwrap().quantized.unwrap();
            for c in qm.conv_info() {
                for scale in [c.w_scale, c.in_scale, c.out_scale] {
                    assert!(scale.is_finite() && scale > 0.0, "{}: {scale}", c.name);
                }
            }
            let x = Tensor::randn(&[2, 3, 16, 16], Init::Rand, &mut rng);
            let logits = qm.forward(&x).unwrap();
            assert!(logits.data().iter().all(|v| v.is_finite()), "{logits:?}");
        }
    }

    #[test]
    fn int8_pipeline_tracks_the_f32_model() {
        let mut model = plain20(4, 4).unwrap();
        roughen_batchnorm(&mut model, 18);
        let mut rng = Rng::new(19);
        let calib = Tensor::randn(&[4, 3, 16, 16], Init::Rand, &mut rng);
        let deployed = Pipeline::new()
            .fold_bn(true)
            .quantize(QuantSpec::int8(calib))
            .run(&model)
            .unwrap();
        let mut qm = deployed.quantized.unwrap();
        let report = deployed.report.unwrap();
        assert_eq!(report.bits, 8);
        assert!(report.tensors > 0 && report.max_abs_error > 0.0);
        // Every conv unit's provenance records folding and scales.
        assert!(!deployed.provenance.is_empty());
        for p in &deployed.provenance {
            assert!(p.folded_bn, "{} not folded", p.layer);
            assert!(p.weight_scale.is_some() && p.act_scale.is_some());
        }
        // The int8 engine's predictions agree with the f32 model on the
        // bulk of a fresh batch.
        let x = Tensor::randn(&[16, 3, 16, 16], Init::Rand, &mut rng);
        let mut f32_model = deployed.model.clone();
        let logits = f32_model.forward(&x, &mut RunCtx::eval()).unwrap();
        let classes = deployed.model.num_classes();
        let f32_top1: Vec<usize> = logits
            .data()
            .chunks_exact(classes)
            .map(|row| {
                (0..classes)
                    .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
                    .unwrap()
            })
            .collect();
        qm.ctx_mut().enable_profiler();
        let q_top1 = qm.predict(&x).unwrap();
        let agree = f32_top1.iter().zip(&q_top1).filter(|(a, b)| a == b).count();
        assert!(
            agree * 10 >= f32_top1.len() * 9,
            "{agree}/{}",
            f32_top1.len()
        );
        // Per-layer profile scopes cover every conv unit exactly once.
        let profile = qm.ctx().report().expect("profiler was attached");
        assert_eq!(profile.layers.len(), deployed.provenance.len());
    }
}
