//! The ALF block (paper Fig. 1, Eq. 1/2/5).
//!
//! An ALF block replaces a standard convolution `A ∗ W` with
//!
//! ```text
//! Ã  = σinter(A ∗ Wcode)            (code convolution, Ccode filters)
//! A' = Ã ∗ Wexp                     (1×1 expansion back to Co channels)
//! ```
//!
//! where `Wcode` is produced by the block's [`WeightAutoencoder`] from the
//! raw trainable filters `W`. During the backward pass the gradient that
//! lands on `Wcode` is applied *directly* to `W` — the straight-through
//! estimator of Eq. 5 — because `Wenc`, `M` and `σae` belong to the other
//! player and would otherwise inject noise (and the clipped mask would
//! zeroise most of the gradient).

use alf_nn::activation::{Activation, ActivationKind};
use alf_nn::conv::Conv2d;
use alf_nn::layer::{Layer, Param};
use alf_nn::norm::BatchNorm2d;
use alf_nn::RunCtx;
use alf_tensor::init::Init;
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

use crate::autoencoder::{AeStats, WeightAutoencoder};
use crate::schedule::PruneSchedule;
use crate::Result;

/// Configuration of an ALF block — the knobs explored in Fig. 2a/2b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlfBlockConfig {
    /// Autoencoder activation `σae` (paper winner: `tanh`).
    pub sigma_ae: ActivationKind,
    /// Intermediate activation `σinter` between code conv and expansion
    /// (paper winner: none/identity).
    pub sigma_inter: ActivationKind,
    /// Whether to insert `BNinter` between the code conv and expansion.
    pub inter_bn: bool,
    /// Initialiser for the raw filters `W`.
    pub w_init: Init,
    /// Initialiser for `Wenc`/`Wdec` (paper winner: Xavier).
    pub ae_init: Init,
    /// Initialiser for the expansion weights `Wexp` (paper winner: Xavier).
    pub exp_init: Init,
    /// Mask clip threshold `t` (paper trade-off choice: `1e-4`).
    pub threshold: f32,
    /// Whether the pruning mask is active (disabled in Setup 2).
    pub mask_enabled: bool,
    /// Whether the task gradient uses the straight-through estimator
    /// (Eq. 5). Disabling it routes the gradient through the true
    /// encoder/mask chain — provided for the STE ablation bench.
    pub ste: bool,
}

impl AlfBlockConfig {
    /// The configuration selected by the paper's design-space exploration:
    /// Xavier for `Wexp`/`Wae`, `σae = tanh`, `σinter = none`, no
    /// `BNinter`, `t = 1e-4`.
    pub fn paper_default() -> Self {
        Self {
            sigma_ae: ActivationKind::Tanh,
            sigma_inter: ActivationKind::Identity,
            inter_bn: false,
            w_init: Init::He,
            ae_init: Init::Xavier,
            exp_init: Init::Xavier,
            threshold: 1e-4,
            mask_enabled: true,
            ste: true,
        }
    }
}

impl Default for AlfBlockConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A convolution wrapped in the ALF machinery.
///
/// # Example
///
/// ```
/// use alf_core::{AlfBlock, AlfBlockConfig};
/// use alf_nn::{Layer, RunCtx};
/// use alf_tensor::{rng::Rng, Tensor};
///
/// # fn main() -> alf_core::Result<()> {
/// let mut ctx = RunCtx::train();
/// let mut block = AlfBlock::new(3, 16, 3, 1, 1, AlfBlockConfig::paper_default(), &mut Rng::new(0));
/// let y = block.forward(&Tensor::zeros(&[2, 3, 8, 8]), &mut ctx)?;
/// assert_eq!(y.dims(), &[2, 16, 8, 8]); // expansion restores Co channels
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AlfBlock {
    w: Param,
    ae: WeightAutoencoder,
    code_conv: Conv2d,
    inter_act: Activation,
    inter_bn: Option<BatchNorm2d>,
    expansion: Conv2d,
    config: AlfBlockConfig,
    // Occupancy-aware execution switch: when on, the code conv carries an
    // `ActiveRows` descriptor derived from the clipped mask and the
    // autoencoder elides pruned rows in its step. Bitwise-neutral.
    sparse_exec: bool,
    // The descriptor is recomputed only when the mask may have moved since
    // the last forward (autoencoder step, direct mutation, checkpoint
    // load, compaction) — the task player's step never touches the mask.
    active_dirty: bool,
    // `Wcode` is a function of `W`, `Wenc` and `M` only: the code conv's
    // weight is rebuilt on the first forward after any of them may have
    // moved (everything that sets `active_dirty`, plus the mutable
    // parameter/state visitors — the optimizer's and the replica sync's
    // routes to `W`) and reused by every forward until the next change.
    code_dirty: bool,
    #[cfg(test)]
    code_refreshes: usize,
}

impl AlfBlock {
    /// Creates an ALF block replacing a `c_in → c_out`, `kernel × kernel`
    /// convolution.
    ///
    /// # Panics
    ///
    /// Panics when `kernel` or `stride` is zero.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        config: AlfBlockConfig,
        rng: &mut Rng,
    ) -> Self {
        let w = Param::new(
            Tensor::randn(&[c_out, c_in, kernel, kernel], config.w_init, rng),
            // The paper applies no regularisation to W (§III-B).
            false,
        );
        let mut ae = WeightAutoencoder::new(
            c_in,
            c_out,
            kernel,
            config.ae_init,
            config.sigma_ae,
            config.threshold,
            rng,
        );
        if !config.mask_enabled {
            ae = ae.without_mask();
        }
        // The code conv's weight is derived state — overwritten from the
        // autoencoder before every forward pass. Once the mask starts
        // pruning, whole output channels of that weight are zero; forward
        // hands the conv the live rows so its GEMMs skip them.
        let code_conv = Conv2d::new(c_in, c_out, kernel, stride, pad, false, Init::Zeros, rng);
        let expansion = Conv2d::new(c_out, c_out, 1, 1, 0, false, config.exp_init, rng);
        Self {
            w,
            ae,
            code_conv,
            inter_act: Activation::new(config.sigma_inter),
            inter_bn: config.inter_bn.then(|| BatchNorm2d::new(c_out)),
            expansion,
            config,
            sparse_exec: true,
            active_dirty: true,
            code_dirty: true,
            #[cfg(test)]
            code_refreshes: 0,
        }
    }

    /// The block configuration.
    pub fn config(&self) -> &AlfBlockConfig {
        &self.config
    }

    /// The raw trainable filters `W`.
    pub fn raw_weight(&self) -> &Tensor {
        &self.w.value
    }

    /// The block's autoencoder.
    pub fn autoencoder(&self) -> &WeightAutoencoder {
        &self.ae
    }

    /// Mutable access to the block's autoencoder (for experiments that
    /// manipulate the mask or encoder directly). Conservatively invalidates
    /// the cached code and occupancy descriptor, since the caller may move
    /// the mask or the encoder.
    pub fn autoencoder_mut(&mut self) -> &mut WeightAutoencoder {
        self.invalidate_derived();
        &mut self.ae
    }

    /// `W`, `Wenc` or `M` may have changed: the cached code and occupancy
    /// descriptor are stale.
    fn invalidate_derived(&mut self) {
        self.active_dirty = true;
        self.code_dirty = true;
    }

    /// Toggles the occupancy-aware execution paths (the code conv's
    /// `ActiveRows` elision and the autoencoder's sparse step). Purely a
    /// performance switch — both settings produce bitwise-identical
    /// results; the dense references of the sparse/dense tests run with
    /// this off.
    pub fn set_sparse_execution(&mut self, on: bool) {
        self.sparse_exec = on;
        self.ae.set_sparse_exec(on);
        self.active_dirty = true;
    }

    /// Whether the occupancy-aware execution paths are enabled.
    pub fn sparse_execution(&self) -> bool {
        self.sparse_exec
    }

    /// Current code `Wcode` in convolution layout.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the autoencoder (cannot happen for a
    /// block constructed through [`AlfBlock::new`]).
    pub fn code(&self) -> Result<Tensor> {
        self.ae.code(&self.w.value)
    }

    /// Number of code filters surviving the mask clip.
    pub fn active_filters(&self) -> usize {
        self.ae.active_channels().len()
    }

    /// Total code filters of the *original* geometry (`Co`). Physical
    /// compaction does not change this, so `active/total` occupancy stays
    /// continuous across a compaction (removed channels keep counting as
    /// pruned).
    pub fn total_filters(&self) -> usize {
        self.ae.c_out()
    }

    /// Current physical code channels (`Ccode`; equal to
    /// [`AlfBlock::total_filters`] until a compaction shrinks the block).
    pub fn code_channels(&self) -> usize {
        self.code_conv.c_out()
    }

    /// Output channels of the block (after the expansion).
    pub fn c_out(&self) -> usize {
        self.expansion.c_out()
    }

    /// Geometry of the code convolution.
    pub fn conv_spec(&self) -> alf_tensor::ops::Conv2dSpec {
        self.code_conv.spec()
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.code_conv.c_in()
    }

    /// Expansion weights `Wexp` (`[Co, Ccode, 1, 1]`).
    pub fn expansion_weight(&self) -> &Tensor {
        self.expansion.weight()
    }

    /// One optimisation step of the block's autoencoder player: computes
    /// `νprune` from the schedule at the current zero fraction and updates
    /// `Wenc`, `Wdec`, `M`.
    ///
    /// # Errors
    ///
    /// Propagates autoencoder shape errors (cannot happen for a block
    /// constructed through [`AlfBlock::new`]).
    pub fn autoencoder_step(&mut self, lr: f32, schedule: &PruneSchedule) -> Result<AeStats> {
        let nu = schedule.nu(self.ae.zero_fraction());
        self.invalidate_derived();
        self.ae.step(&self.w.value, lr, nu)
    }

    /// [`Self::autoencoder_step`] with GEMM scratch drawn from the run's
    /// shared arena — the path the trainer uses so both players reuse one
    /// set of packing buffers.
    ///
    /// # Errors
    ///
    /// Propagates autoencoder shape errors (cannot happen for a block
    /// constructed through [`AlfBlock::new`]).
    pub fn autoencoder_step_in(
        &mut self,
        lr: f32,
        schedule: &PruneSchedule,
        ctx: &mut RunCtx,
    ) -> Result<AeStats> {
        let nu = schedule.nu(self.ae.zero_fraction());
        self.invalidate_derived();
        self.ae.step_in(&self.w.value, lr, nu, &mut ctx.ws)
    }

    /// Physically compacts the block when live occupancy falls strictly
    /// below `occupancy` (a fraction of the *current* code channels):
    /// gathers the autoencoder's encoder columns / decoder rows / mask into
    /// a dense prefix, rebuilds the code convolution with `Ccode = live`
    /// output channels, and gathers the expansion's input channels and the
    /// inter-BN state consistently. Downstream GEMMs then shrink their
    /// dimensions for real instead of skipping zero rows. Returns whether a
    /// compaction happened.
    ///
    /// Never compacts away the last filter: an all-pruned block keeps its
    /// current geometry (the sparse paths already skip all its work).
    ///
    /// # Errors
    ///
    /// Propagates gather shape errors (cannot happen for a block
    /// constructed through [`AlfBlock::new`]).
    pub fn compact_if_below(&mut self, occupancy: f32) -> Result<bool> {
        if !self.ae.mask_enabled() {
            return Ok(false);
        }
        let rows = self.ae.active_rows();
        if rows.is_all()
            || rows.is_empty()
            || (rows.len() as f32) >= occupancy * rows.total() as f32
        {
            return Ok(false);
        }
        let live = rows.len();
        let cc = rows.total();
        let c_in = self.code_conv.c_in();
        let spec = self.code_conv.spec();
        self.ae.compact(&rows)?;
        // The code conv's weight is derived — rebuilt from the compacted
        // autoencoder on the next forward; only the geometry changes here.
        self.code_conv = Conv2d::new(
            c_in,
            live,
            spec.kernel,
            spec.stride,
            spec.pad,
            false,
            Init::Zeros,
            &mut Rng::new(0),
        );
        // Expansion input channels: exp'[o, i] = exp[o, idx[i]].
        let co = self.expansion.c_out();
        let old = self.expansion.weight().clone();
        let mut gathered = vec![0.0f32; co * live];
        for o in 0..co {
            for (i, &s) in rows.indices().iter().enumerate() {
                gathered[o * live + i] = old.data()[o * cc + s];
            }
        }
        let mut expansion = Conv2d::new(live, co, 1, 1, 0, false, Init::Zeros, &mut Rng::new(0));
        expansion.set_weight(Tensor::from_vec(gathered, &[co, live, 1, 1])?)?;
        self.expansion = expansion;
        if let Some(bn) = &mut self.inter_bn {
            bn.select_channels(rows.indices())?;
        }
        self.invalidate_derived();
        Ok(true)
    }
}

impl Layer for AlfBlock {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        // Refresh the derived code weights from the current W / Wenc / M
        // — once per change, not once per forward.
        if self.code_dirty {
            let code = self.ae.code(&self.w.value)?;
            self.code_conv.set_weight(code)?;
            self.code_dirty = false;
            #[cfg(test)]
            {
                self.code_refreshes += 1;
            }
        }
        self.code_conv.zero_grads();
        // Refresh the cached occupancy descriptor only when the mask may
        // have moved. The descriptor drives the packed-panel elision; it
        // is only handed over when σae(0) == 0, i.e. when pruned code rows
        // are guaranteed to be exact zeros (`sparse_eligible`).
        if self.active_dirty {
            let rows =
                (self.sparse_exec && self.ae.sparse_eligible()).then(|| self.ae.active_rows());
            self.code_conv.set_active_rows(rows)?;
            self.active_dirty = false;
        }
        let mut x = self.code_conv.forward(input, ctx)?;
        x = self.inter_act.forward(&x, ctx)?;
        if let Some(bn) = &mut self.inter_bn {
            x = bn.forward(&x, ctx)?;
        }
        self.expansion.forward(&x, ctx)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let mut g = self.expansion.backward(grad_output, ctx)?;
        if let Some(bn) = &mut self.inter_bn {
            g = bn.backward(&g, ctx)?;
        }
        g = self.inter_act.backward(&g, ctx)?;
        let g_in = self.code_conv.backward(&g, ctx)?;
        if self.config.ste {
            // Straight-through estimator (Eq. 5): the gradient computed for
            // Wcode is applied to W unchanged, skipping encoder, mask and
            // σae. Mask-gated: a clipped channel's code row is constant in
            // W (the clip multiplies by exactly zero), so its true task
            // gradient is zero — those rows are discarded rather than
            // injected into W. This also keeps dense and sparse execution
            // bitwise identical: the rows the sparse conv path leaves as
            // declared zeros are exactly the rows discarded here. Pruned
            // channels recover through the *mask* gradient (Eq. 6), which
            // the autoencoder step keeps flowing.
            if self.ae.mask_enabled() {
                let rows = self.ae.active_rows();
                let kept = self.ae.kept_channels();
                let fan = self.w.value.len() / self.w.value.dims()[0];
                if rows.is_all() && self.ae.c_code() == self.w.value.dims()[0] {
                    // Nothing pruned, nothing compacted: plain accumulate.
                    self.w.grad.axpy(1.0, self.code_conv.weight_grad())?;
                } else {
                    // Row-wise scatter: code row i belongs to raw filter
                    // kept[i] (identity until a compaction reorders rows).
                    let g = self.code_conv.weight_grad().data();
                    let wg = self.w.grad.data_mut();
                    for &i in rows.indices() {
                        let (src, dst) = (i * fan, kept[i] * fan);
                        for f in 0..fan {
                            wg[dst + f] += g[src + f];
                        }
                    }
                }
            } else {
                self.w.grad.axpy(1.0, self.code_conv.weight_grad())?;
            }
        } else {
            // Ablation: true chain gradient through the autoencoder. The
            // mask zeroises most of it and the encoder mixes in noise —
            // the failure mode §III-B describes.
            let true_grad = self
                .ae
                .backproject_task_grad(&self.w.value, self.code_conv.weight_grad())?;
            self.w.grad.axpy(1.0, &true_grad)?;
        }
        Ok(g_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        // W is trained by the task player (via STE); the code conv's weight
        // is derived and must NOT be visited. Wenc/Wdec/M belong to the
        // autoencoder player and are likewise excluded here. The visitor
        // may write W (the optimizer step does), so the code is stale.
        self.code_dirty = true;
        visitor(&mut self.w);
        if let Some(bn) = &mut self.inter_bn {
            bn.visit_params(visitor);
        }
        self.expansion.visit_params(visitor);
    }

    fn zero_grads(&mut self) {
        // Not through `visit_params`: zeroing gradients moves no weight
        // and must not cost a code rebuild.
        self.w.zero_grad();
        if let Some(bn) = &mut self.inter_bn {
            bn.zero_grads();
        }
        self.expansion.zero_grads();
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.w);
        if let Some(bn) = &self.inter_bn {
            bn.visit_params_ref(visitor);
        }
        self.expansion.visit_params_ref(visitor);
    }

    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        // Checkpoints must capture both players: W plus the autoencoder's
        // Wenc/Wdec/M (the code conv's weight is derived and excluded).
        // A checkpoint load or replica sync may overwrite W, the encoder
        // and the mask through this visitor, so the cached code and
        // occupancy descriptor must be recomputed.
        self.invalidate_derived();
        visitor(&mut self.w.value);
        self.ae.visit_state(visitor);
        if let Some(bn) = &mut self.inter_bn {
            bn.visit_state(visitor);
        }
        self.expansion.visit_state(visitor);
    }

    fn visit_state_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.w.value);
        self.ae.visit_state_ref(visitor);
        if let Some(bn) = &self.inter_bn {
            bn.visit_state_ref(visitor);
        }
        self.expansion.visit_state_ref(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_nn::gradcheck;
    use alf_tensor::init::Init;

    fn block(seed: u64) -> AlfBlock {
        AlfBlock::new(
            2,
            4,
            3,
            1,
            1,
            AlfBlockConfig::paper_default(),
            &mut Rng::new(seed),
        )
    }

    #[test]
    fn forward_restores_channel_count() {
        let mut ctx = RunCtx::train();
        let mut b = block(0);
        let y = b.forward(&Tensor::zeros(&[1, 2, 6, 6]), &mut ctx).unwrap();
        assert_eq!(y.dims(), &[1, 4, 6, 6]);
    }

    #[test]
    fn strided_block_downsamples() {
        let mut b = AlfBlock::new(
            2,
            4,
            3,
            2,
            1,
            AlfBlockConfig::paper_default(),
            &mut Rng::new(1),
        );
        let mut ctx = RunCtx::train();
        let y = b.forward(&Tensor::zeros(&[1, 2, 8, 8]), &mut ctx).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn task_params_exclude_autoencoder_and_code_conv() {
        let mut b = block(2);
        // W (4·2·3·3 = 72) + expansion (4·4·1·1 = 16).
        assert_eq!(b.param_count(), 72 + 16);
    }

    #[test]
    fn inter_bn_adds_params() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.inter_bn = true;
        let mut b = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(3));
        assert_eq!(b.param_count(), 72 + 16 + 8);
        let mut ctx = RunCtx::train();
        let y = b.forward(&Tensor::zeros(&[2, 2, 5, 5]), &mut ctx).unwrap();
        assert_eq!(y.dims(), &[2, 4, 5, 5]);
        assert!(b.backward(&y, &mut ctx).is_ok());
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[1, 2, 5, 5], Init::Rand, &mut rng);
        let base = block(5);
        let (a, n) = gradcheck::input_gradients(
            &x,
            |x| {
                let mut ctx = RunCtx::train();
                let mut b = base.clone();
                let y = b.forward(x, &mut ctx)?;
                Ok(0.5 * y.sq_norm())
            },
            |x| {
                let mut ctx = RunCtx::train();
                let mut b = base.clone();
                let y = b.forward(x, &mut ctx)?;
                b.backward(&y, &mut ctx)
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 2e-2);
    }

    #[test]
    fn ste_routes_code_gradient_onto_w() {
        // The STE claim: dLtask/dW == dLtask/dWcode elementwise. Verify by
        // comparing W's gradient against a finite difference taken on the
        // *code* tensor directly.
        let base = block(6);
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[1, 2, 4, 4], Init::Rand, &mut rng);
        let code0 = base.code().unwrap();
        let (a, n) = gradcheck::input_gradients(
            &code0,
            |code| {
                // Loss as a function of the code (bypassing the autoencoder).
                let mut ctx = RunCtx::train();
                let mut conv = base.code_conv.clone();
                conv.set_weight(code.clone())?;
                let mut exp = base.expansion.clone();
                let h = conv.forward(&x, &mut ctx)?;
                let y = exp.forward(&h, &mut ctx)?;
                Ok(0.5 * y.sq_norm())
            },
            |_| {
                // The implementation's W-gradient via the STE.
                let mut ctx = RunCtx::train();
                let mut b = base.clone();
                let y = b.forward(&x, &mut ctx)?;
                b.backward(&y, &mut ctx)?;
                Ok(b.w.grad.clone())
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 2e-2);
    }

    #[test]
    fn pruned_filters_do_not_affect_output() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 0.05; // wide dead zone so clipped channels stay clipped
        let mut b = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(8));
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[1, 2, 5, 5], Init::Rand, &mut rng);
        let mut ctx = RunCtx::eval();
        let y_full = b.forward(&x, &mut ctx).unwrap();
        // Zero a channel via the public path: run the autoencoder with
        // sustained pressure until something clips.
        for _ in 0..5000 {
            b.autoencoder_step(3e-3, &PruneSchedule::new(8.0, 0.95))
                .unwrap();
            if b.active_filters() < b.total_filters() {
                break;
            }
        }
        assert!(b.active_filters() < b.total_filters(), "no filter pruned");
        let code = b.code().unwrap();
        let fan = 18;
        let pruned: Vec<usize> = (0..4)
            .filter(|&j| {
                code.data()[j * fan..(j + 1) * fan]
                    .iter()
                    .all(|&v| v == 0.0)
            })
            .collect();
        assert!(!pruned.is_empty());
        let y = b.forward(&x, &mut ctx).unwrap();
        assert_eq!(y.dims(), y_full.dims());
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn autoencoder_step_reports_schedule_pressure() {
        let mut b = block(10);
        let stats = b
            .autoencoder_step(1e-3, &PruneSchedule::paper_default())
            .unwrap();
        assert!(stats.nu_prune > 0.99); // dense mask ⇒ full pressure
        assert!(stats.l_rec >= 0.0);
        assert!((stats.l_prune - 1.0).abs() < 0.1); // mask ≈ ones
    }

    #[test]
    fn sparse_and_dense_execution_are_bitwise_identical() {
        // Prune two channels via the mask, then run a full forward/backward
        // with and without the occupancy-aware paths: outputs, input
        // gradients and every parameter gradient must match exactly. With
        // a sigmoid σae the pruned code rows are 0.5, not zero, so the
        // block must decline elision and still match.
        for sigma_ae in [ActivationKind::Tanh, ActivationKind::Sigmoid] {
            let mut cfg = AlfBlockConfig::paper_default();
            cfg.sigma_ae = sigma_ae;
            cfg.threshold = 0.05;
            cfg.inter_bn = true;
            let mut sparse = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(20));
            sparse.autoencoder_mut().set_mask_value(1, 0.0);
            sparse.autoencoder_mut().set_mask_value(2, 0.01); // clipped at t=0.05
            let mut dense = sparse.clone();
            dense.set_sparse_execution(false);

            let mut rng = Rng::new(21);
            let x = Tensor::randn(&[2, 2, 5, 5], Init::Rand, &mut rng);
            let mut ctx_s = RunCtx::train();
            let mut ctx_d = RunCtx::train();
            let ys = sparse.forward(&x, &mut ctx_s).unwrap();
            let yd = dense.forward(&x, &mut ctx_d).unwrap();
            assert_eq!(ys.data(), yd.data(), "{sigma_ae:?}: forward outputs differ");
            assert_eq!(
                sparse.code_conv.active_rows().is_some(),
                sigma_ae == ActivationKind::Tanh
            );
            assert!(dense.code_conv.active_rows().is_none());

            let gs = sparse.backward(&ys, &mut ctx_s).unwrap();
            let gd = dense.backward(&yd, &mut ctx_d).unwrap();
            assert_eq!(gs.data(), gd.data(), "{sigma_ae:?}: input gradients differ");
            let mut grads_s = Vec::new();
            sparse.visit_params(&mut |p| grads_s.push(p.grad.clone()));
            let mut i = 0;
            dense.visit_params(&mut |p| {
                assert_eq!(
                    p.grad.data(),
                    grads_s[i].data(),
                    "{sigma_ae:?}: param grad {i} differs"
                );
                i += 1;
            });
        }
    }

    #[test]
    fn gated_ste_discards_pruned_rows_in_both_modes() {
        // The true task gradient through a clipped channel is exactly zero;
        // the gated STE must not inject the conv's raw rows for those
        // channels into W, whether or not the sparse path is on.
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 0.05;
        let mut b = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(22));
        b.autoencoder_mut().set_mask_value(0, 0.0);
        b.set_sparse_execution(false); // conv computes FULL weight grads
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(23);
        let x = Tensor::randn(&[1, 2, 5, 5], Init::Rand, &mut rng);
        let y = b.forward(&x, &mut ctx).unwrap();
        b.backward(&y, &mut ctx).unwrap();
        let fan = 18;
        assert!(
            b.w.grad.data()[..fan].iter().all(|&v| v == 0.0),
            "pruned channel's W rows must receive no task gradient"
        );
        assert!(b.w.grad.data()[fan..].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn compaction_preserves_forward_and_shrinks_geometry() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 0.05;
        cfg.inter_bn = true;
        let mut b = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(24));
        b.autoencoder_mut().set_mask_value(0, 0.0);
        b.autoencoder_mut().set_mask_value(2, 0.02);
        let mut rng = Rng::new(25);
        let x = Tensor::randn(&[2, 2, 6, 6], Init::Rand, &mut rng);
        let mut ctx = RunCtx::eval();
        let y_before = b.forward(&x, &mut ctx).unwrap();

        // Occupancy is 2/4 = 0.5: not below 0.5, then below 0.75.
        assert!(!b.compact_if_below(0.5).unwrap());
        assert!(b.compact_if_below(0.75).unwrap());
        assert_eq!(b.code_channels(), 2);
        assert_eq!(b.total_filters(), 4); // original budget, for occupancy
        assert_eq!(b.active_filters(), 2);
        assert_eq!(b.c_out(), 4);
        assert_eq!(b.expansion_weight().dims(), &[4, 2, 1, 1]);
        assert_eq!(b.autoencoder().kept_channels(), &[1, 3]);

        // Surviving channels' parameters were moved, not recomputed, and
        // the dropped channels contributed exact zeros — the block output
        // is bitwise unchanged.
        let y_after = b.forward(&x, &mut ctx).unwrap();
        assert_eq!(y_before.data(), y_after.data());

        // Training still works end to end on the shrunken geometry.
        let mut tctx = RunCtx::train();
        let y = b.forward(&x, &mut tctx).unwrap();
        assert!(b.backward(&y, &mut tctx).is_ok());
        assert_eq!(b.w.grad.dims(), &[4, 2, 3, 3]);
    }

    #[test]
    fn compaction_never_drops_the_last_filter() {
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 0.05;
        let mut b = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(26));
        for j in 0..4 {
            b.autoencoder_mut().set_mask_value(j, 0.0);
        }
        assert!(!b.compact_if_below(0.9).unwrap());
        assert_eq!(b.code_channels(), 4);
        // And the block still runs with everything pruned.
        let mut ctx = RunCtx::train();
        let y = b.forward(&Tensor::zeros(&[1, 2, 5, 5]), &mut ctx).unwrap();
        assert_eq!(y.dims(), &[1, 4, 5, 5]);
    }

    #[test]
    fn compacted_ste_routes_gradients_to_original_filters() {
        // After compaction, code row i corresponds to raw filter kept[i];
        // the STE must land gradients on those rows of W and leave the
        // removed channels' rows untouched — matching what the gated STE
        // did before the compaction.
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 0.05;
        let mut before = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(27));
        before.autoencoder_mut().set_mask_value(1, 0.0);
        before.autoencoder_mut().set_mask_value(3, 0.0);
        let mut after = before.clone();
        assert!(after.compact_if_below(0.9).unwrap());

        let mut rng = Rng::new(28);
        let x = Tensor::randn(&[1, 2, 5, 5], Init::Rand, &mut rng);
        for b in [&mut before, &mut after] {
            let mut ctx = RunCtx::train();
            let y = b.forward(&x, &mut ctx).unwrap();
            b.backward(&y, &mut ctx).unwrap();
        }
        assert_eq!(before.w.grad.data(), after.w.grad.data());
        let fan = 18;
        assert!(before.w.grad.data()[fan..2 * fan].iter().all(|&v| v == 0.0));
        assert!(before.w.grad.data()[..fan].iter().any(|&v| v != 0.0));
    }

    /// Twin blocks, one with a cached code (it has run a forward) and one
    /// fresh (never forwarded, so it can only build its code from scratch),
    /// go through the same mutation: their next forwards must agree
    /// bitwise, i.e. every route to `W`, `Wenc` or `M` invalidates the
    /// cached `Wcode`.
    #[test]
    fn every_weight_mutation_invalidates_the_cached_code() {
        type Mutation = fn(&mut AlfBlock);
        let mutations: [(&str, Mutation); 6] = [
            ("optimizer step through visit_params", |b| {
                b.visit_params(&mut |p| p.grad = Tensor::full(p.value.dims(), 0.25));
                alf_nn::Sgd::new(0.1, 0.9, 0.0).step_layer(b);
            }),
            ("autoencoder_step_in", |b| {
                let mut ctx = RunCtx::train();
                for _ in 0..3 {
                    b.autoencoder_step_in(0.05, &PruneSchedule::paper_default(), &mut ctx)
                        .unwrap();
                }
            }),
            ("autoencoder_mut().set_mask_value", |b| {
                b.autoencoder_mut().set_mask_value(1, 0.0);
                b.autoencoder_mut().set_mask_value(2, 0.5);
            }),
            // What `StateSnapshot::restore` and a checkpoint load do.
            ("state write through visit_state", |b| {
                b.visit_state(&mut |t| t.data_mut().iter_mut().for_each(|v| *v *= 0.5));
            }),
            ("compact_if_below", |b| {
                b.autoencoder_mut().set_mask_value(0, 0.0);
                b.autoencoder_mut().set_mask_value(3, 0.0);
                assert!(b.compact_if_below(0.9).unwrap());
            }),
            ("clone", |b| *b = b.clone()),
        ];
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.inter_bn = true;
        let x = Tensor::randn(&[2, 2, 5, 5], Init::Rand, &mut Rng::new(31));
        for (name, mutate) in mutations {
            let mut fresh = AlfBlock::new(2, 4, 3, 1, 1, cfg, &mut Rng::new(30));
            let mut cached = fresh.clone();
            let mut ctx = RunCtx::eval();
            cached.forward(&x, &mut ctx).unwrap();
            assert_eq!(cached.code_refreshes, 1, "{name}");
            mutate(&mut cached);
            mutate(&mut fresh);
            assert_eq!(fresh.code_refreshes, 0, "{name}");
            let want = fresh.forward(&x, &mut ctx).unwrap();
            let got = cached.forward(&x, &mut ctx).unwrap();
            assert_eq!(got.data(), want.data(), "{name}");
            assert_eq!(
                cached.code_conv.weight(),
                fresh.code_conv.weight(),
                "{name}"
            );
        }
    }

    #[test]
    fn snapshot_restore_and_checkpoint_load_invalidate_the_cached_code() {
        let cfg = AlfBlockConfig::paper_default();
        let source = crate::models::plain20_alf(4, 4, cfg, 36).unwrap();
        let x = Tensor::randn(&[1, 3, 8, 8], Init::Rand, &mut Rng::new(38));
        let mut ctx = RunCtx::eval();
        let want = source.clone().forward(&x, &mut ctx).unwrap();
        let mut snapshot = crate::StateSnapshot::new();
        snapshot.capture(&source);
        let blob = crate::checkpoint::save(&source);
        for via_snapshot in [true, false] {
            let mut model = crate::models::plain20_alf(4, 4, cfg, 37).unwrap();
            assert_ne!(model.forward(&x, &mut ctx).unwrap().data(), want.data());
            if via_snapshot {
                assert!(snapshot.restore(&mut model));
            } else {
                crate::checkpoint::load(&mut model, &blob).unwrap();
            }
            assert_eq!(model.forward(&x, &mut ctx).unwrap().data(), want.data());
        }
    }

    #[test]
    fn reads_zero_grads_and_forwards_reuse_the_cached_code() {
        let mut b = block(32);
        let x = Tensor::randn(&[1, 2, 4, 4], Init::Rand, &mut Rng::new(33));
        let mut ctx = RunCtx::train();
        let y = b.forward(&x, &mut ctx).unwrap();
        b.backward(&y, &mut ctx).unwrap();
        b.zero_grads();
        b.visit_params_ref(&mut |p| assert_eq!(p.grad.sum(), 0.0));
        b.visit_state_ref(&mut |_| {});
        ctx.set_mode(alf_nn::Mode::Stats);
        b.forward(&x, &mut ctx).unwrap();
        ctx.set_mode(alf_nn::Mode::Train);
        b.forward(&x, &mut ctx).unwrap();
        assert_eq!(b.code_refreshes, 1);
        // A model-level `zero_grads` reaches the block without a mutable
        // parameter visit either.
        let mut model =
            crate::models::plain20_alf(4, 4, AlfBlockConfig::paper_default(), 34).unwrap();
        let x = Tensor::randn(&[1, 3, 8, 8], Init::Rand, &mut Rng::new(35));
        let logits = model.forward(&x, &mut ctx).unwrap();
        model.backward(&logits, &mut ctx).unwrap();
        model.zero_grads();
        model.visit_params_ref(&mut |p| assert_eq!(p.grad.sum(), 0.0));
        model.forward(&x, &mut ctx).unwrap();
        assert!(model.alf_blocks().iter().all(|b| b.code_refreshes == 1));
    }

    #[test]
    fn code_conv_weight_tracks_autoencoder() {
        let mut ctx = RunCtx::train();
        let mut b = block(11);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        b.forward(&x, &mut ctx).unwrap();
        let w1 = b.code_conv.weight().clone();
        // Mutate the autoencoder, forward again: conv weight must change.
        for _ in 0..50 {
            b.autoencoder_step(0.05, &PruneSchedule::paper_default())
                .unwrap();
        }
        b.forward(&x, &mut ctx).unwrap();
        assert_ne!(&w1, b.code_conv.weight());
    }
}
