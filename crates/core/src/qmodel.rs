//! Fused int8 inference form of a deployed model.
//!
//! A [`QuantizedModel`] is built from a *folded* deployment model — one
//! whose batch-norm layers have already been absorbed into conv weights
//! and biases by `deploy::Pipeline` — plus a small calibration batch.
//! Weights are symmetric per-tensor int8 (via [`Quantizer`]), activations
//! are symmetric int8 with scales fitted to the calibration activations,
//! and every convolution — k×k code conv and 1×1 expansion alike — runs as
//! one whole-batch `i8×i8→i32` product with exact i32 accumulation,
//! `alf_tensor::ops::conv_gemm_into`, which builds no column matrix, packs
//! no `B` panel, whatever the stride, and accumulates straight into `NCHW`.
//!
//! Requantization happens on store (`alf_tensor::ops::requantize_into`,
//! one call per output plane, `(image, channel)`): the i32 accumulator is mapped
//! back to real units with `acc · s_in · s_w`, the (f32) bias is added, the
//! ReLU applied, and the result is rounded into the next layer's i8 grid at
//! `s_out`. Max-pooling commutes with any monotonic quantizer, so it runs
//! directly on the i8 feature maps. The network tail (global average pool
//! and classifier) stays in f32 — it is a vanishing fraction of the MACs
//! and quantizing the logits would only cost accuracy.

use alf_nn::activation::ActivationKind;
use alf_nn::conv::Conv2d;
use alf_nn::linear::Linear;
use alf_nn::pool::GlobalAvgPool;
use alf_nn::{Layer, Pass, RunCtx};
use alf_tensor::ops::{conv_gemm_into, requantize_into, Conv2dSpec};
use alf_tensor::{ShapeError, Tensor};

use crate::model::{CnnModel, ConvKind, Unit};
use crate::quant::{QuantError, QuantReport, Quantizer};

/// One int8 convolution stage: quantized weights plus the scales that tie
/// its integer arithmetic back to real units.
#[derive(Debug, Clone)]
struct QConv {
    /// Stage name (`convXYZ`, or `convXYZ/code` / `convXYZ/expand` for a
    /// deployed ALF pair).
    name: String,
    /// Owning `ConvUnit` name — the profiler scope the stage reports under.
    unit: String,
    /// Row-major `[c_out, c_in·k·k]` int8 weights.
    weight: Vec<i8>,
    /// Weight scale `s_w`.
    w_scale: f32,
    /// Full-precision bias, one per output channel (zeros when absent).
    bias: Vec<f32>,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
    /// Apply ReLU before requantizing the output.
    relu: bool,
    /// Input activation scale `s_in`.
    in_scale: f32,
    /// Output activation scale `s_out`.
    out_scale: f32,
}

/// One stage of the int8 pipeline.
#[derive(Debug, Clone)]
enum QStage {
    Conv(QConv),
    MaxPool { window: usize },
}

/// Public per-conv summary (scales and geometry) for provenance reports.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QConvInfo {
    /// Stage name (unit name, with `/code` / `/expand` for ALF pairs).
    pub name: String,
    /// Owning `ConvUnit` name.
    pub unit: String,
    /// Weight scale `s_w`.
    pub w_scale: f32,
    /// Input activation scale `s_in`.
    pub in_scale: f32,
    /// Output activation scale `s_out`.
    pub out_scale: f32,
    /// Output channels.
    pub c_out: usize,
}

/// A deployed model lowered to fused int8 execution.
///
/// Construct via `QuantizedModel::from_folded` (normally through
/// `deploy::Pipeline::quantize`). `forward` takes ordinary f32 `NCHW`
/// input, quantizes it once at the calibrated input scale, runs the conv
/// stack entirely in int8, and returns f32 logits from the f32 tail.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    name: String,
    stages: Vec<QStage>,
    /// Network input activation scale.
    in_scale: f32,
    global_pool: GlobalAvgPool,
    classifier: Linear,
    num_classes: usize,
    /// The engine's one long-lived eval context: GEMM scratch and
    /// accumulators come from its arena, the f32 tail runs on it, and its
    /// profiler (when attached) times each conv stage under its unit name.
    ctx: RunCtx,
    /// Ping-pong i8 activation buffers (kept across calls so the steady
    /// state is allocation-free).
    act_a: Vec<i8>,
    act_b: Vec<i8>,
}

fn fit_scale(t: &Tensor) -> Result<f32, QuantError> {
    Ok(Quantizer::fit(t, 8)?.scale)
}

fn relu_inplace(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = v.max(0.0);
    }
}

/// Quantizes a conv weight `[co, ci, k, k]` to int8 rows, returning the
/// i8 buffer, the scale, and the worst round-trip error.
fn quantize_weight(w: &Tensor) -> Result<(Vec<i8>, f32, f32), QuantError> {
    let q = Quantizer::fit(w, 8)?;
    let mut out = Vec::with_capacity(w.len());
    let mut err = 0.0f32;
    for &v in w.data() {
        let qv = q.quantize(v);
        err = err.max((q.dequantize(qv) - v).abs());
        out.push(qv as i8);
    }
    Ok((out, q.scale, err))
}

struct Builder {
    stages: Vec<QStage>,
    report: QuantReport,
    /// f32 activation flowing through the calibration simulation.
    act: Tensor,
}

impl Builder {
    /// Lowers one (conv, bias, relu) triple: quantizes the weight, runs
    /// the f32 calibration step, and fits the output activation scale.
    fn push_conv(
        &mut self,
        name: String,
        unit: &str,
        conv: &Conv2d,
        relu: bool,
        in_scale: f32,
    ) -> Result<f32, QuantError> {
        let (weight, w_scale, err) = quantize_weight(conv.weight())?;
        self.report.tensors += 1;
        self.report.scalars += conv.weight().len() as u64;
        self.report.max_abs_error = self.report.max_abs_error.max(err);
        let bias = match conv.bias() {
            Some(b) => b.data().to_vec(),
            None => vec![0.0; conv.c_out()],
        };
        let mut sim = conv.clone();
        let mut h =
            sim.forward(&self.act, &mut RunCtx::eval())
                .map_err(|e| QuantError::Unsupported {
                    what: format!("calibration forward of '{name}' failed: {e}"),
                })?;
        if relu {
            relu_inplace(&mut h);
        }
        let out_scale = fit_scale(&h)?;
        self.stages.push(QStage::Conv(QConv {
            name,
            unit: unit.to_string(),
            weight,
            w_scale,
            bias,
            spec: conv.spec(),
            c_in: conv.c_in(),
            c_out: conv.c_out(),
            relu,
            in_scale,
            out_scale,
        }));
        self.act = h;
        Ok(out_scale)
    }
}

impl QuantizedModel {
    /// Lowers a folded deployment model to int8, calibrating activation
    /// scales on `calib` (an `NCHW` batch of representative inputs).
    ///
    /// # Errors
    ///
    /// [`QuantError::EmptyCalibration`] for an empty calibration batch;
    /// [`QuantError::Unsupported`] for model forms outside the int8
    /// engine's reach — a remaining batch-norm layer (fold first), a
    /// training-form ALF block (deploy first), residual units,
    /// or a non-ReLU activation; [`QuantError::NonFinite`] when a weight
    /// or calibration activation holds a NaN or infinity.
    ///
    /// Returns the model together with the weight-quantization report.
    pub(crate) fn from_folded(
        model: &CnnModel,
        calib: &Tensor,
    ) -> Result<(Self, QuantReport), QuantError> {
        if calib.shape().rank() != 4 || calib.dims()[0] == 0 {
            return Err(QuantError::EmptyCalibration {
                layer: "input".into(),
            });
        }
        let in_scale = fit_scale(calib)?;
        let mut b = Builder {
            stages: Vec::new(),
            report: QuantReport {
                bits: 8,
                tensors: 0,
                scalars: 0,
                max_abs_error: 0.0,
            },
            act: calib.clone(),
        };
        let mut scale = in_scale;
        let mut global_pool: Option<GlobalAvgPool> = None;
        let mut classifier: Option<Linear> = None;
        for unit in model.units() {
            if classifier.is_some()
                || (global_pool.is_some() && !matches!(unit, Unit::Classifier(_)))
            {
                return Err(QuantError::Unsupported {
                    what: "units after the global-pool/classifier tail".into(),
                });
            }
            match unit {
                Unit::Conv(cu) => {
                    if cu.bn().is_some() {
                        return Err(QuantError::Unsupported {
                            what: format!("un-folded batch-norm in '{}' (fold first)", cu.name()),
                        });
                    }
                    let relu = match cu.activation() {
                        None => false,
                        Some(ActivationKind::Relu) => true,
                        Some(other) => {
                            return Err(QuantError::Unsupported {
                                what: format!("activation {other:?} in '{}'", cu.name()),
                            })
                        }
                    };
                    match cu.conv() {
                        ConvKind::Standard(c) => {
                            scale = b.push_conv(cu.name().into(), cu.name(), c, relu, scale)?;
                        }
                        ConvKind::Deployed { code, expansion } => {
                            scale = b.push_conv(
                                format!("{}/code", cu.name()),
                                cu.name(),
                                code,
                                false,
                                scale,
                            )?;
                            scale = b.push_conv(
                                format!("{}/expand", cu.name()),
                                cu.name(),
                                expansion,
                                relu,
                                scale,
                            )?;
                        }
                        ConvKind::Alf(_) => {
                            return Err(QuantError::Unsupported {
                                what: format!(
                                    "training-form ALF block in '{}' (deploy first)",
                                    cu.name()
                                ),
                            })
                        }
                    }
                }
                Unit::MaxPool(mp) => {
                    b.stages.push(QStage::MaxPool {
                        window: mp.window(),
                    });
                    let mut sim = mp.clone();
                    b.act = sim.forward(&b.act, &mut RunCtx::eval()).map_err(|e| {
                        QuantError::Unsupported {
                            what: format!("calibration forward of maxpool failed: {e}"),
                        }
                    })?;
                    // Max-pool is monotonic: the input grid is the output
                    // grid, so `scale` carries through unchanged.
                }
                Unit::GlobalPool(gp) => global_pool = Some(gp.clone()),
                Unit::Classifier(fc) => classifier = Some(fc.clone()),
                Unit::Residual(_) => {
                    return Err(QuantError::Unsupported {
                        what: "residual units (int8 engine covers plain conv stacks)".into(),
                    })
                }
            }
        }
        let (Some(global_pool), Some(classifier)) = (global_pool, classifier) else {
            return Err(QuantError::Unsupported {
                what: "model without a global-pool → classifier tail".into(),
            });
        };
        let report = b.report.clone();
        Ok((
            Self {
                name: format!("int8-{}", model.name()),
                stages: b.stages,
                in_scale,
                global_pool,
                classifier,
                num_classes: model.num_classes(),
                ctx: RunCtx::eval(),
                act_a: Vec::new(),
                act_b: Vec::new(),
            },
            report,
        ))
    }

    /// Model name (`int8-<deployed name>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-conv scales and geometry, in execution order.
    pub(crate) fn conv_info(&self) -> Vec<QConvInfo> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                QStage::Conv(c) => Some(QConvInfo {
                    name: c.name.clone(),
                    unit: c.unit.clone(),
                    w_scale: c.w_scale,
                    in_scale: c.in_scale,
                    out_scale: c.out_scale,
                    c_out: c.c_out,
                }),
                QStage::MaxPool { .. } => None,
            })
            .collect()
    }

    /// The engine's execution context. With a profiler attached
    /// (`ctx_mut().enable_profiler()`), every [`forward`](Self::forward)
    /// records one scope per `ConvUnit` in network order; a deployed code →
    /// expansion pair reports as one entry under the unit's name.
    pub fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    /// Mutable context access: profiler control, arena freeze/thaw.
    pub fn ctx_mut(&mut self) -> &mut RunCtx {
        &mut self.ctx
    }

    /// Runs the int8 pipeline on an f32 `NCHW` batch, returning f32
    /// logits `[n, classes]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the input is not an `NCHW` batch
    /// matching the first conv's input channels, or when the spatial
    /// geometry collapses below a stage's window.
    pub fn forward(&mut self, x: &Tensor) -> crate::Result<Tensor> {
        let dims = x.dims();
        if dims.len() != 4 {
            return Err(ShapeError::new(
                "qmodel",
                format!("expected NCHW input, got {}", x.shape()),
            ));
        }
        let (n, mut c, mut h, mut w) = (dims[0], dims[1], dims[2], dims[3]);
        // Quantize the input once at the calibrated scale.
        let q_in = Quantizer {
            bits: 8,
            scale: self.in_scale,
        };
        let mut cur = std::mem::take(&mut self.act_a);
        cur.clear();
        cur.extend(x.data().iter().map(|&v| q_in.quantize(v) as i8));
        let mut nxt = std::mem::take(&mut self.act_b);

        let mut stages = std::mem::take(&mut self.stages);
        let mut result = Ok(());
        for stage in &stages {
            match stage {
                QStage::Conv(conv) => {
                    if conv.c_in != c {
                        result = Err(ShapeError::new(
                            "qmodel",
                            format!(
                                "stage '{}' expects {} channels, got {c}",
                                conv.name, conv.c_in
                            ),
                        ));
                        break;
                    }
                    let (ho, wo) = conv.spec.output_hw(h, w);
                    let deq = conv.in_scale * conv.w_scale;
                    let inv_out = 1.0 / conv.out_scale;
                    let plane = ho * wo;
                    let scope = self.ctx.scope_start();
                    nxt.resize(n * conv.c_out * plane, 0);
                    // One implicit GEMM over the whole batch, read straight
                    // from the i8 activations (no column matrix), into an
                    // NCHW accumulator.
                    let mut acc: Vec<i32> = self.ctx.ws.take("qm_acc", n * conv.c_out * plane);
                    conv_gemm_into(
                        &mut acc,
                        &conv.weight,
                        &cur,
                        conv.c_out,
                        [n, c, h, w],
                        conv.spec,
                        None,
                        &mut self.ctx.ws,
                        1,
                    );
                    // Requantize on store, one (image, channel) plane at a
                    // time.
                    let planes = nxt.chunks_exact_mut(plane).zip(acc.chunks_exact(plane));
                    for ((dst, src), &bias) in planes.zip(conv.bias.iter().cycle()) {
                        requantize_into(dst, src, deq, bias, conv.relu, inv_out);
                    }
                    self.ctx.ws.give("qm_acc", acc);
                    std::mem::swap(&mut cur, &mut nxt);
                    (c, h, w) = (conv.c_out, ho, wo);
                    self.ctx.scope_end(scope, &conv.unit, Pass::Forward);
                }
                QStage::MaxPool { window } => {
                    let k = *window;
                    if h < k || w < k {
                        result = Err(ShapeError::new(
                            "qmodel",
                            format!("input {h}x{w} smaller than pool window {k}"),
                        ));
                        break;
                    }
                    let (ho, wo) = (h / k, w / k);
                    nxt.resize(n * c * ho * wo, 0);
                    for bc in 0..n * c {
                        let src = &cur[bc * h * w..(bc + 1) * h * w];
                        let dst = &mut nxt[bc * ho * wo..(bc + 1) * ho * wo];
                        for oy in 0..ho {
                            for ox in 0..wo {
                                let mut best = i8::MIN;
                                for dy in 0..k {
                                    for dx in 0..k {
                                        best = best.max(src[(oy * k + dy) * w + ox * k + dx]);
                                    }
                                }
                                dst[oy * wo + ox] = best;
                            }
                        }
                    }
                    std::mem::swap(&mut cur, &mut nxt);
                    (h, w) = (ho, wo);
                }
            }
        }
        self.stages = std::mem::take(&mut stages);
        let last_scale = self
            .stages
            .iter()
            .rev()
            .find_map(|s| match s {
                QStage::Conv(cv) => Some(cv.out_scale),
                QStage::MaxPool { .. } => None,
            })
            .unwrap_or(self.in_scale);
        self.act_a = cur;
        self.act_b = nxt;
        result?;
        // Dequantize once for the f32 tail.
        let feat = Tensor::from_vec(
            self.act_a.iter().map(|&q| q as f32 * last_scale).collect(),
            &[n, c, h, w],
        )?;
        let pooled = self.global_pool.forward(&feat, &mut self.ctx)?;
        self.classifier.forward(&pooled, &mut self.ctx)
    }

    /// Top-1 class predictions for a batch (convenience over `forward`).
    ///
    /// # Errors
    ///
    /// Propagates [`forward`](Self::forward) errors.
    pub fn predict(&mut self, x: &Tensor) -> crate::Result<Vec<usize>> {
        let logits = self.forward(x)?;
        let classes = self.num_classes;
        Ok(logits
            .data()
            .chunks_exact(classes)
            .map(alf_tensor::argmax)
            .collect())
    }

    /// Deployed int8 weight bytes (scales stored as one f32 per tensor).
    pub fn weight_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                QStage::Conv(c) => c.weight.len() as u64 + 4,
                QStage::MaxPool { .. } => 0,
            })
            .sum()
    }
}
