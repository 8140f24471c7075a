//! 2-D convolution layer with GEMM forward and exact backward.
//!
//! The hot path is allocation-free after warm-up: the GEMM packing panels
//! and every transient scratch matrix are drawn from the shared
//! [`RunCtx`] workspace arena, while the copy of the input that backward
//! multiplies by — which must survive from `forward` to `backward` — is a
//! layer-owned buffer reused across steps. A steady-state training step
//! therefore allocates nothing beyond the output / input-gradient tensors
//! the `Layer` API returns by value.
//!
//! No pass unfolds the input, and none copies a layout: every product
//! reads and writes `NCHW`. Every mode runs the forward through
//! [`alf_tensor::ops::conv_gemm_into`], straight into the output tensor: a
//! kernel of any stride (1×1 included) runs on the pack-free tile, which
//! packs nothing. Backward reads `grad_output` as it is, computing the
//! weight gradient with [`alf_tensor::ops::conv_weight_grad_into`], on the
//! weight-gradient tile over the cached input, and the input gradient with
//! [`alf_tensor::ops::conv_input_grad_into`], on the forward tile, one
//! stride-1 convolution per input phase, at every stride. All three
//! products follow the live output channels, and so does the FLOP count
//! the profiler records. Every route is bit for bit the unfold-then-pack
//! product (and `col2im` for the input gradient).
//! [`Mode::Train`] caches the input, [`Mode::Eval`] releases it and
//! [`Mode::Stats`] neither reads nor writes it.

use alf_tensor::init::Init;
use alf_tensor::ops::{
    auto_threads, conv_gemm_into, conv_input_grad_into, conv_weight_grad_into, ActiveRows,
    Conv2dSpec,
};
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::ctx::RunCtx;
use crate::layer::{missing_cache, Layer, Mode, Param};
use crate::Result;

/// Convolutional layer (`NCHW` activations, `[c_out, c_in, k, k]` weights).
///
/// The weight is exposed mutably via [`Conv2d::weight_mut`] because the ALF
/// block *writes* the autoencoder code `Wcode` into the convolution before
/// every forward pass; the gradient that `backward` accumulates on the
/// weight is then routed to `W` through the straight-through estimator
/// (paper Eq. 5). A block that injects *masked* codes should also install
/// the live channels with [`Conv2d::set_active_rows`] so the GEMMs skip
/// the all-zero weight rows pruning produces.
///
/// # Example
///
/// ```
/// use alf_nn::{Conv2d, Layer, RunCtx};
/// use alf_tensor::{init::Init, rng::Rng, Tensor};
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::train();
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, false, Init::He, &mut Rng::new(0));
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, &mut ctx)?;
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
    active_rows: Option<ActiveRows>,
    cache: Option<Cache>,
    /// Layer-owned copy of the last training forward's `NCHW` input,
    /// reused across steps: the weight gradient packs its operand from it.
    /// It must survive from `forward` to `backward`, so it cannot live in
    /// the shared arena — every conv would fight over one slot name there.
    /// Empty in a layer that only ever evaluates.
    input: Vec<f32>,
}

/// Forward-pass state the backward pass consumes (the input itself lives
/// in `Conv2d::input` so that cloning the layer clones live data, and its
/// capacity outlives the cache).
#[derive(Debug, Clone)]
struct Cache {
    input_dims: [usize; 4],
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero (via [`Conv2dSpec::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        init: Init,
        rng: &mut Rng,
    ) -> Self {
        let weight = Param::new(
            Tensor::randn(&[c_out, c_in, kernel, kernel], init, rng),
            true,
        );
        let bias = bias.then(|| Param::new(Tensor::zeros(&[c_out]), false));
        Self {
            weight,
            bias,
            spec: Conv2dSpec::new(kernel, stride, pad),
            c_in,
            c_out,
            active_rows: None,
            cache: None,
            input: Vec::new(),
        }
    }

    /// Geometry of the convolution.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Read-only view of the weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Mutable access to the weight tensor (used by the ALF block to inject
    /// `Wcode`).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight.value
    }

    /// Gradient accumulated on the weight by the last backward pass.
    pub fn weight_grad(&self) -> &Tensor {
        &self.weight.grad
    }

    /// Replaces the weight tensor entirely.
    ///
    /// # Errors
    ///
    /// Returns an error when the new weight shape differs from the current
    /// one.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<()> {
        self.weight
            .value
            .shape()
            .expect_same(weight.shape(), "set_weight")?;
        self.weight.value = weight;
        Ok(())
    }

    /// Read-only view of the per-channel bias, when the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| &b.value)
    }

    /// Installs (or replaces) the per-channel bias. BN folding uses this
    /// to push `β − γ·μ/√(σ²+ε)` into the conv it folds into.
    ///
    /// # Errors
    ///
    /// Returns an error unless `bias` is `[c_out]`.
    pub fn set_bias(&mut self, bias: Tensor) -> Result<()> {
        if bias.dims() != [self.c_out] {
            return Err(ShapeError::new(
                "set_bias",
                format!("bias {} vs c_out {}", bias.shape(), self.c_out),
            ));
        }
        self.bias = Some(Param::new(bias, false));
        Ok(())
    }

    /// Installs (or clears) the set of live output channels.
    ///
    /// With a descriptor installed the layer takes the occupancy-aware
    /// path: the forward GEMM and the backward weight-gradient GEMM pack
    /// only the listed rows (pruned channels are never computed — their
    /// output and their weight gradient are exact zeros), and the input
    /// gradient GEMM skips the pruned channels' `k` slices. The caller —
    /// an ALF block deriving the descriptor from its clipped mask —
    /// guarantees that the *weight rows* of inactive channels are exact
    /// zeros; under that contract every produced value is bitwise
    /// identical to the dense path.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the descriptor does not cover exactly
    /// `c_out` rows.
    pub fn set_active_rows(&mut self, rows: Option<ActiveRows>) -> Result<()> {
        if let Some(r) = &rows {
            if r.total() != self.c_out {
                return Err(ShapeError::new(
                    "conv2d set_active_rows",
                    format!(
                        "descriptor covers {} channels but the layer has {}",
                        r.total(),
                        self.c_out
                    ),
                ));
            }
        }
        self.active_rows = rows;
        Ok(())
    }

    /// The installed live-channel descriptor, if any.
    pub fn active_rows(&self) -> Option<&ActiveRows> {
        self.active_rows.as_ref()
    }

    /// The output channels the products compute.
    fn live(&self) -> usize {
        self.active_rows
            .as_ref()
            .map_or(self.c_out, ActiveRows::len)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let dims = input.dims();
        if dims.len() != 4 || dims[1] != self.c_in {
            return Err(ShapeError::new(
                "conv2d forward",
                format!(
                    "input {} vs expected [n x {} x h x w]",
                    input.shape(),
                    self.c_in
                ),
            ));
        }
        let [n, ci, h, w] = [dims[0], dims[1], dims[2], dims[3]];
        let (ho, wo) = self.spec.output_hw(h, w);
        let k = self.spec.kernel;
        let rows = ci * k * k;
        let ncols = n * ho * wo;

        // The [co, ci, k, k] weight is already row-major [co, ci·k²], and
        // the product is written straight into the NCHW output. With a
        // live-channel descriptor only those channels are computed; pruned
        // channels are written as exact zeros, which is what their all-zero
        // weight rows would produce. The output is the only allocation of
        // the steady-state forward pass.
        let mut out = Tensor::zeros(&[n, self.c_out, ho, wo]);
        conv_gemm_into(
            out.data_mut(),
            self.weight.value.data(),
            input.data(),
            self.c_out,
            [n, ci, h, w],
            self.spec,
            self.active_rows.as_ref(),
            &mut ctx.ws,
            auto_threads(self.c_out, rows, ncols),
        );
        if let Some(bias) = &self.bias {
            let channels = bias.value.data().iter().cycle();
            for (plane, &b) in out.data_mut().chunks_exact_mut(ho * wo).zip(channels) {
                plane.iter_mut().for_each(|v| *v += b);
            }
        }
        match ctx.mode() {
            // Backward packs the weight gradient's operand from the input,
            // so a training forward keeps a copy in the layer-owned buffer,
            // which reaches steady capacity after the first step (`clear`
            // keeps the capacity and the refill stays within it).
            Mode::Train => {
                self.input.clear();
                self.input.extend_from_slice(input.data());
            }
            // An eval pass gives the buffer back, as it drops `cache` below
            // — a serving replica cloned from a trained model should not
            // carry one batch of activations per layer.
            Mode::Eval => self.input = Vec::new(),
            // A statistics pass leaves it for the training steps around it.
            Mode::Stats => {}
        }
        ctx.count_flops(2 * (self.live() * rows * ncols) as u64);
        ctx.count_bytes(4 * (input.len() + self.weight.value.len() + self.c_out * ncols) as u64);

        ctx.mode().cache(&mut self.cache, || Cache {
            input_dims: [n, ci, h, w],
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or_else(|| missing_cache("conv2d"))?;
        let [n, ci, h, w] = cache.input_dims;
        let (ho, wo) = self.spec.output_hw(h, w);
        if grad_output.dims() != [n, self.c_out, ho, wo] {
            return Err(ShapeError::new(
                "conv2d backward",
                format!(
                    "grad {} vs expected [{n}x{}x{ho}x{wo}]",
                    grad_output.shape(),
                    self.c_out
                ),
            ));
        }
        let k = self.spec.kernel;
        let rows = ci * k * k;
        let hw = ho * wo;
        let ncols = n * hw;
        // Both products read the NCHW gradient as it is.
        let g = grad_output.data();

        // grad_w = G · unfold(X)ᵀ → [co, ci·k²], read from the cached input
        // and accumulated straight into the [co, ci, k, k] grad buffer (same
        // row-major data). With a live-channel descriptor the pruned
        // channels' rows are never computed: the mask-gated STE discards
        // them anyway (dL/dW through a clipped channel is exactly zero), so
        // they stay exact zeros and accumulate as no-ops below.
        let mut gw = ctx.ws.take("gw", self.c_out * rows);
        conv_weight_grad_into(
            &mut gw,
            g,
            &self.input,
            self.c_out,
            cache.input_dims,
            self.spec,
            self.active_rows.as_ref(),
            &mut ctx.ws,
            auto_threads(self.c_out, ncols, rows),
        );
        for (g, &v) in self.weight.grad.data_mut().iter_mut().zip(gw.iter()) {
            *g += v;
        }
        ctx.ws.give("gw", gw);

        // grad_b = one running sum per channel over its planes, image
        // after image.
        if let Some(bias) = &mut self.bias {
            for (c, grad) in bias.grad.data_mut().iter_mut().enumerate() {
                let planes = g.chunks_exact(hw).skip(c).step_by(self.c_out);
                *grad += planes.flatten().sum::<f32>();
            }
        }

        // grad_x = col2im(Wᵀ·G), formed without the column matrix. Pruned
        // channels contribute Wᵀ rows that are exact zeros; skipping them
        // is bitwise invisible (every accumulator starts at +0.0 and ±0.0
        // products are identity). The input gradient is the only
        // allocation of the steady-state backward pass.
        let mut gx = Tensor::zeros(&[n, ci, h, w]);
        conv_input_grad_into(
            gx.data_mut(),
            self.weight.value.data(),
            g,
            self.c_out,
            cache.input_dims,
            self.spec,
            self.active_rows.as_ref(),
            &mut ctx.ws,
            auto_threads(rows, self.c_out, ncols),
        );
        ctx.count_flops(4 * (self.live() * rows * ncols) as u64);
        ctx.count_bytes(
            4 * (grad_output.len() + 2 * self.weight.value.len() + n * ci * h * w) as u64,
        );
        Ok(gx)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        if let Some(b) = &mut self.bias {
            visitor(b);
        }
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        if let Some(b) = &self.bias {
            visitor(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    fn mk(rng_seed: u64, bias: bool) -> Conv2d {
        Conv2d::new(2, 3, 3, 1, 1, bias, Init::Rand, &mut Rng::new(rng_seed))
    }

    #[test]
    fn forward_shape() {
        let mut ctx = RunCtx::eval();
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, false, Init::He, &mut Rng::new(0));
        let y = conv
            .forward(&Tensor::zeros(&[4, 3, 32, 32]), &mut ctx)
            .unwrap();
        assert_eq!(y.dims(), &[4, 8, 16, 16]);
    }

    #[test]
    fn forward_matches_free_function() {
        let mut ctx = RunCtx::eval();
        let mut rng = Rng::new(14);
        let mut conv = Conv2d::new(3, 5, 3, 2, 1, true, Init::Rand, &mut rng);
        let x = Tensor::randn(&[2, 3, 9, 9], Init::Rand, &mut rng);
        let via_layer = conv.forward(&x, &mut ctx).unwrap();
        let via_free =
            alf_tensor::ops::conv2d(&x, conv.weight(), Some(&Tensor::zeros(&[5])), conv.spec())
                .unwrap();
        assert!(via_layer.allclose(&via_free, 1e-5));
    }

    #[test]
    fn forward_validates_input() {
        let mut ctx = RunCtx::eval();
        let mut conv = mk(0, false);
        assert!(conv
            .forward(&Tensor::zeros(&[1, 3, 4, 4]), &mut ctx)
            .is_err());
        assert!(conv.forward(&Tensor::zeros(&[2, 4, 4]), &mut ctx).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut ctx = RunCtx::train();
        let mut conv = mk(1, false);
        assert!(conv
            .backward(&Tensor::zeros(&[1, 3, 4, 4]), &mut ctx)
            .is_err());
    }

    #[test]
    fn backward_validates_grad_shape() {
        let mut ctx = RunCtx::train();
        let mut conv = mk(2, false);
        conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), &mut ctx)
            .unwrap();
        assert!(conv
            .backward(&Tensor::zeros(&[1, 3, 5, 5]), &mut ctx)
            .is_err());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut ctx = RunCtx::eval();
        let mut conv = mk(3, false);
        conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), &mut ctx)
            .unwrap();
        assert!(conv
            .backward(&Tensor::zeros(&[1, 3, 4, 4]), &mut ctx)
            .is_err());
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = Rng::new(5);
        let x = Tensor::randn(&[2, 2, 5, 5], Init::Rand, &mut rng);
        let conv = mk(6, true);
        let (analytic, numeric) = gradcheck::input_gradients(
            &x,
            |conv_in| {
                let mut ctx = RunCtx::train();
                let mut c = conv.clone();
                let y = c.forward(conv_in, &mut ctx)?;
                Ok(y.data().iter().map(|v| v * v).sum::<f32>() * 0.5)
            },
            |conv_in| {
                let mut ctx = RunCtx::train();
                let mut c = conv.clone();
                let y = c.forward(conv_in, &mut ctx)?;
                c.backward(&y, &mut ctx) // d(0.5·Σy²)/dy = y
            },
        )
        .unwrap();
        gradcheck::assert_close(&analytic, &numeric, 2e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[1, 2, 4, 4], Init::Rand, &mut rng);
        let base = mk(8, false);
        let w0 = base.weight().clone();
        let (analytic, numeric) = gradcheck::input_gradients(
            &w0,
            |w| {
                let mut ctx = RunCtx::train();
                let mut c = base.clone();
                c.set_weight(w.clone())?;
                let y = c.forward(&x, &mut ctx)?;
                Ok(y.data().iter().map(|v| v * v).sum::<f32>() * 0.5)
            },
            |w| {
                let mut ctx = RunCtx::train();
                let mut c = base.clone();
                c.set_weight(w.clone())?;
                let y = c.forward(&x, &mut ctx)?;
                c.backward(&y, &mut ctx)?;
                Ok(c.weight_grad().clone())
            },
        )
        .unwrap();
        gradcheck::assert_close(&analytic, &numeric, 2e-2);
    }

    #[test]
    fn bias_gradient_is_spatial_sum() {
        let mut ctx = RunCtx::train();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, true, Init::Zeros, &mut Rng::new(9));
        let x = Tensor::ones(&[2, 1, 3, 3]);
        conv.forward(&x, &mut ctx).unwrap();
        conv.backward(&Tensor::ones(&[2, 1, 3, 3]), &mut ctx)
            .unwrap();
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push(p.grad.clone()));
        // grads[1] is the bias: 2 samples × 9 pixels.
        assert_eq!(grads[1].data(), &[18.0]);
    }

    #[test]
    fn set_weight_validates_shape() {
        let mut conv = mk(10, false);
        assert!(conv.set_weight(Tensor::zeros(&[3, 2, 3, 3])).is_ok());
        assert!(conv.set_weight(Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn param_count_includes_bias() {
        assert_eq!(mk(11, false).param_count(), 3 * 2 * 9);
        assert_eq!(mk(12, true).param_count(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn active_rows_path_is_bitwise_dense_on_live_channels() {
        // With the pruned channels' weight rows zeroed (as a clipped mask
        // guarantees), the declared-occupancy path must match the dense
        // path bit for bit: outputs, input gradients, and the live rows of
        // the weight gradient. Pruned weight-gradient rows stay exact
        // zeros (the dense path computes them; the mask-gated STE discards
        // them either way).
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(31);
        let x = Tensor::randn(&[2, 2, 6, 6], Init::Rand, &mut rng);
        let mut dense = Conv2d::new(2, 4, 3, 1, 1, false, Init::Rand, &mut Rng::new(32));
        let mut wt = dense.weight().clone();
        let row = 2 * 9;
        for pruned in [1usize, 3] {
            for v in wt.data_mut()[pruned * row..(pruned + 1) * row].iter_mut() {
                *v = 0.0;
            }
        }
        dense.set_weight(wt).unwrap();
        let mut sparse = dense.clone();
        let live = ActiveRows::from_mask(&[1.0, 0.0, 1.0, 0.0]);
        sparse.set_active_rows(Some(live.clone())).unwrap();
        assert_eq!(sparse.active_rows(), Some(&live));

        let yd = dense.forward(&x, &mut ctx).unwrap();
        let ys = sparse.forward(&x, &mut ctx).unwrap();
        assert_eq!(yd.data(), ys.data());
        let gd = dense.backward(&yd, &mut ctx).unwrap();
        let gs = sparse.backward(&ys, &mut ctx).unwrap();
        assert_eq!(gd.data(), gs.data());
        for &c in live.indices() {
            assert_eq!(
                &dense.weight_grad().data()[c * row..(c + 1) * row],
                &sparse.weight_grad().data()[c * row..(c + 1) * row],
                "live channel {c}"
            );
        }
        assert!(sparse.weight_grad().data()[row..2 * row]
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn set_active_rows_rejects_mismatched_descriptor() {
        let mut conv = mk(33, false); // c_out = 3
        let err = conv
            .set_active_rows(Some(ActiveRows::from_mask(&[1.0, 0.0])))
            .unwrap_err();
        assert_eq!(err.op(), "conv2d set_active_rows");
        assert!(conv
            .set_active_rows(Some(ActiveRows::from_mask(&[1.0, 0.0, 1.0])))
            .is_ok());
        assert!(conv.set_active_rows(None).is_ok());
        assert!(conv.active_rows().is_none());
    }

    #[test]
    fn steady_state_step_is_workspace_allocation_free() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(17);
        let x = Tensor::randn(&[2, 2, 8, 8], Init::Rand, &mut rng);
        let mut conv = mk(18, true);
        // Warm up: first step grows every arena slot to steady size.
        for _ in 0..2 {
            let y = conv.forward(&x, &mut ctx).unwrap();
            conv.backward(&y, &mut ctx).unwrap();
        }
        let warm = ctx.ws.alloc_events();
        // Freeze: further growth would trip a debug assertion too.
        ctx.ws.freeze();
        for _ in 0..5 {
            let y = conv.forward(&x, &mut ctx).unwrap();
            conv.backward(&y, &mut ctx).unwrap();
        }
        assert_eq!(ctx.ws.alloc_events(), warm);
    }

    #[test]
    fn every_product_runs_on_the_tile_without_staging() {
        // Three layers at batch 8: the stage-1 code convolution (16→16,
        // 3×3/1/1 at 32×32), a `conv311`-shaped 16→32 3×3/2/1, and a 16→16
        // 1×1. Across a steady-state forward and backward of each, on any
        // host: no product runs the packed driver, the arena stays below
        // the bytes the column route's `Wᵀ·G` matrix, the `[co, n·ho·wo]`
        // forward product and the batched gradient copy took, and nothing
        // grows once it is frozen.
        let mut rng = Rng::new(41);
        let x = Tensor::randn(&[8, 16, 32, 32], Init::Rand, &mut rng);
        for (c_out, k, stride, pad) in [(16, 3, 1, 1), (32, 3, 2, 1), (16, 1, 1, 0)] {
            let mut ctx = RunCtx::train();
            let mut conv = Conv2d::new(16, c_out, k, stride, pad, false, Init::He, &mut rng);
            let step = |conv: &mut Conv2d, ctx: &mut RunCtx| {
                let y = conv.forward(&x, ctx).unwrap();
                conv.backward(&y, ctx).unwrap();
            };
            step(&mut conv, &mut ctx);
            let (warm, before) = (ctx.ws.alloc_events(), ctx.ws.packed_products());
            ctx.ws.freeze();
            step(&mut conv, &mut ctx);
            assert_eq!(ctx.ws.packed_products(), before, "{k}x{k}/{stride}");
            assert_eq!(ctx.ws.alloc_events(), warm, "{k}x{k}/{stride}");
            let (ho, wo) = conv.spec().output_hw(32, 32);
            let out = 8 * ho * wo * 4;
            let staged = 16 * k * k * out + 2 * c_out * out;
            let held = ctx.ws.high_water_bytes();
            assert!(held < staged, "{k}x{k}/{stride}: {held} B of scratch");
        }
    }

    #[test]
    fn bias_gradient_is_one_sequential_sum_over_the_batch() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(43);
        let x = Tensor::randn(&[3, 2, 5, 6], Init::Rand, &mut rng);
        let g = Tensor::randn(&[3, 4, 5, 6], Init::Rand, &mut rng);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, true, Init::Rand, &mut rng);
        conv.forward(&x, &mut ctx).unwrap();
        conv.backward(&g, &mut ctx).unwrap();
        for c in 0..4 {
            let mut sum = 0.0f32;
            for b in 0..3 {
                for &v in &g.data()[(b * 4 + c) * 30..][..30] {
                    sum += v;
                }
            }
            let got = conv.bias.as_ref().unwrap().grad.data()[c];
            assert_eq!(got.to_bits(), (0.0 + sum).to_bits(), "channel {c}");
        }
    }

    #[test]
    fn two_convs_share_one_arena_without_evictions() {
        // Different-shaped convs drawing from the same RunCtx arena: slots
        // settle at the max size and stay allocation-free afterwards.
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(21);
        let mut a = Conv2d::new(2, 3, 3, 1, 1, true, Init::Rand, &mut rng);
        let mut b = Conv2d::new(3, 4, 3, 2, 1, false, Init::Rand, &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], Init::Rand, &mut rng);
        for _ in 0..2 {
            let ya = a.forward(&x, &mut ctx).unwrap();
            let yb = b.forward(&ya, &mut ctx).unwrap();
            let gb = b.backward(&yb, &mut ctx).unwrap();
            a.backward(&gb, &mut ctx).unwrap();
        }
        let warm = ctx.ws.alloc_events();
        ctx.ws.freeze();
        for _ in 0..3 {
            let ya = a.forward(&x, &mut ctx).unwrap();
            let yb = b.forward(&ya, &mut ctx).unwrap();
            let gb = b.backward(&yb, &mut ctx).unwrap();
            a.backward(&gb, &mut ctx).unwrap();
        }
        assert_eq!(ctx.ws.alloc_events(), warm);
    }

    #[test]
    fn cloned_layer_keeps_cached_input() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(19);
        let x = Tensor::randn(&[1, 2, 5, 5], Init::Rand, &mut rng);
        let mut conv = mk(20, false);
        let y = conv.forward(&x, &mut ctx).unwrap();
        // Clone mid-step: the clone carries the layer-owned input copy and
        // must produce the same gradients, even through a fresh ctx.
        let mut clone = conv.clone();
        let mut ctx2 = RunCtx::train();
        let g_orig = conv.backward(&y, &mut ctx).unwrap();
        let g_clone = clone.backward(&y, &mut ctx2).unwrap();
        assert_eq!(g_orig.data(), g_clone.data());
        assert_eq!(conv.weight_grad().data(), clone.weight_grad().data());
        // Backward reads the cached input without consuming it: a second
        // backward after the one forward repeats the input gradient and
        // adds the same weight gradient again.
        let dw = conv.weight_grad().clone();
        let g_again = conv.backward(&y, &mut ctx).unwrap();
        assert_eq!(g_orig.data(), g_again.data());
        assert_eq!(conv.weight_grad().data(), dw.scale(2.0).data());
    }

    #[test]
    fn profiler_counts_conv_flops() {
        // The products run on the live output channels only, and so does
        // the count: two of four live halve it.
        let flops = |live: Option<ActiveRows>| {
            let mut ctx = RunCtx::train().with_profiler();
            let mut conv = Conv2d::new(2, 4, 3, 1, 1, false, Init::Rand, &mut Rng::new(22));
            conv.set_active_rows(live).unwrap();
            let x = Tensor::zeros(&[1, 2, 4, 4]);
            let t = ctx.scope_start();
            let y = conv.forward(&x, &mut ctx).unwrap();
            ctx.scope_end(t, "conv", crate::ctx::Pass::Forward);
            let t = ctx.scope_start();
            conv.backward(&y, &mut ctx).unwrap();
            ctx.scope_end(t, "conv", crate::ctx::Pass::Backward);
            let report = ctx.report().unwrap();
            let l = report.layer("conv").unwrap();
            assert!(l.bytes > 0);
            l.flops
        };
        let full = flops(None);
        assert_eq!(full, 6 * 4 * 2 * 9 * 16);
        assert_eq!(
            flops(Some(ActiveRows::from_mask(&[1.0, 0.0, 0.0, 1.0]))),
            full / 2
        );
    }
}
