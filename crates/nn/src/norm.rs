//! Batch normalisation over `NCHW` activations.

use alf_tensor::{ShapeError, Tensor};

use crate::ctx::RunCtx;
use crate::layer::{missing_cache, Layer, Mode, Param};
use crate::stats::{fold_slots, StatLink};
use crate::Result;

/// 2-D batch normalisation with learnable scale/shift and running
/// statistics for evaluation.
///
/// Normalises each channel over the `(n, h, w)` axes during training and
/// over the tracked running statistics during evaluation. The paper's
/// "BNinter" configuration inserts one of these between the ALF convolution
/// and the expansion layer (Fig. 2a).
///
/// # Example
///
/// ```
/// use alf_nn::{BatchNorm2d, Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::train();
/// let mut bn = BatchNorm2d::new(3);
/// let y = bn.forward(&Tensor::ones(&[2, 3, 4, 4]), &mut ctx)?;
/// assert_eq!(y.dims(), &[2, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    /// Whether the statistics were frozen (running stats used as
    /// constants): selects the fixed-statistics gradient in backward.
    frozen: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps
    /// (γ = 1, β = 0, momentum 0.9, ε = 1e-5).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.9,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// Learnable per-channel scale γ.
    pub fn scale(&self) -> &Tensor {
        &self.gamma.value
    }

    /// Mutable per-channel scale γ (used by structured-pruning surgery to
    /// silence channels).
    pub fn scale_mut(&mut self) -> &mut Tensor {
        &mut self.gamma.value
    }

    /// Learnable per-channel shift β.
    pub fn shift(&self) -> &Tensor {
        &self.beta.value
    }

    /// Mutable per-channel shift β.
    pub fn shift_mut(&mut self) -> &mut Tensor {
        &mut self.beta.value
    }

    /// Running mean tracked for evaluation.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance tracked for evaluation.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The numerical-stability epsilon added to the variance. Exposed so
    /// BN folding (`alf-core::deploy`) reproduces the eval-path
    /// `1/√(σ²+ε)` exactly.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Shrinks the layer to the listed channels, gathering γ/β (values
    /// *and* accumulated gradients) and the running statistics in index
    /// order. Used by ALF block compaction, which reorders surviving code
    /// channels into a dense prefix; the forward/backward cache is
    /// dropped because its per-channel buffers no longer line up.
    ///
    /// # Errors
    ///
    /// Returns a typed error when an index is out of range or the list is
    /// not strictly increasing (compaction preserves channel order).
    pub fn select_channels(&mut self, keep: &[usize]) -> Result<()> {
        let c = self.channels();
        for w in keep.windows(2) {
            if w[0] >= w[1] {
                return Err(ShapeError::new(
                    "batchnorm2d select_channels",
                    format!("indices not strictly increasing at {} >= {}", w[0], w[1]),
                ));
            }
        }
        if keep.last().is_some_and(|&last| last >= c) {
            return Err(ShapeError::new(
                "batchnorm2d select_channels",
                format!("index out of range for {c} channels"),
            ));
        }
        let gather = |t: &Tensor| {
            let src = t.data();
            Tensor::from_vec(keep.iter().map(|&i| src[i]).collect(), &[keep.len()])
                .expect("gathered channel vector")
        };
        self.gamma.value = gather(&self.gamma.value);
        self.gamma.grad = gather(&self.gamma.grad);
        self.beta.value = gather(&self.beta.value);
        self.beta.grad = gather(&self.beta.grad);
        self.running_mean = gather(&self.running_mean);
        self.running_var = gather(&self.running_var);
        self.cache = None;
        Ok(())
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize)> {
        match input.dims() {
            &[n, c, h, w] if c == self.channels() => Ok((n, c, h, w)),
            _ => Err(ShapeError::new(
                "batchnorm2d",
                format!("input {} vs {} channels", input.shape(), self.channels()),
            )),
        }
    }
}

/// Per-channel batch mean and (biased) variance of `input`
/// (`[n, c, hw]`), the one definition of the batch-statistics arithmetic:
/// each sample contributes one partial sum per channel — its plane sum,
/// then its plane sum of squared deviations from the batch mean — and the
/// partials are folded in slot order ([`fold_slots`]). With a `link` the
/// fold runs over every participant's samples, so a shard sees exactly the
/// statistics one pass over the whole batch computes.
fn batch_stats(
    input: &[f32],
    [n, c, hw]: [usize; 3],
    link: Option<&StatLink>,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let m = (link.map_or(n, StatLink::slots) * hw) as f32;
    let fold = |partials: &[f32]| match link {
        Some(link) => link.fold(partials, c),
        None => Ok(fold_slots(partials, c)),
    };
    let mut partials = vec![0.0f32; n * c];
    for (p, plane) in partials.iter_mut().zip(0..) {
        *p = input[plane * hw..][..hw].iter().sum::<f32>();
    }
    let mut mean = fold(&partials)?;
    for v in &mut mean {
        *v /= m;
    }
    for (p, plane) in partials.iter_mut().zip(0..) {
        let mu = mean[plane % c];
        *p = input[plane * hw..][..hw]
            .iter()
            .map(|&x| (x - mu) * (x - mu))
            .sum::<f32>();
    }
    let mut var = fold(&partials)?;
    for v in &mut var {
        *v /= m;
    }
    Ok((mean, var))
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let (n, c, h, w) = self.check_input(input)?;
        let hw = h * w;
        let mut out = Tensor::zeros(input.dims());
        ctx.count_flops(10 * input.len() as u64);
        ctx.count_bytes(4 * 3 * input.len() as u64);
        let mode = ctx.mode();
        if mode == Mode::Eval {
            self.cache = None;
            for ch in 0..c {
                let mean = self.running_mean.data()[ch];
                let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                let (g, bta) = (self.gamma.value.data()[ch], self.beta.value.data()[ch]);
                for b in 0..n {
                    let base = (b * c + ch) * hw;
                    for i in 0..hw {
                        out.data_mut()[base + i] =
                            g * (input.data()[base + i] - mean) * inv_std + bta;
                    }
                }
            }
            return Ok(out);
        }
        // Frozen statistics: normalise with the running stats — bitwise
        // the same normalisation evaluation applies — and leave them
        // untouched; backward then treats them as constants. Otherwise
        // batch statistics, which the running stats track.
        let frozen = mode == Mode::Train && ctx.freeze_norm();
        let (mean, var) = if frozen {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        } else {
            let link = ctx.stat_link().filter(|_| mode == Mode::Stats);
            let (mean, var) = batch_stats(input.data(), [n, c, hw], link)?;
            let tracked = self.running_mean.data_mut().iter_mut().zip(&mean);
            for (rm, &mu) in tracked {
                *rm = self.momentum * *rm + (1.0 - self.momentum) * mu;
            }
            let tracked = self.running_var.data_mut().iter_mut().zip(&var);
            for (rv, &v) in tracked {
                *rv = self.momentum * *rv + (1.0 - self.momentum) * v;
            }
            (mean, var)
        };
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        // Only a training pass owns the backward cache; its xhat buffer is
        // reused when the shape matches — every element is overwritten
        // below, so steady state allocates nothing here.
        let mut xhat = (mode == Mode::Train).then(|| match self.cache.take() {
            Some(cache) if cache.xhat.dims() == input.dims() => cache.xhat,
            _ => Tensor::zeros(input.dims()),
        });
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        for plane in 0..n * c {
            let ch = plane % c;
            let (mu, is, g, bta) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            let x = &input.data()[plane * hw..][..hw];
            let y = &mut out.data_mut()[plane * hw..][..hw];
            match &mut xhat {
                Some(xhat) => {
                    let xh = &mut xhat.data_mut()[plane * hw..][..hw];
                    for ((y, xh), &x) in y.iter_mut().zip(xh).zip(x) {
                        *xh = (x - mu) * is;
                        *y = g * *xh + bta;
                    }
                }
                None => {
                    for (y, &x) in y.iter_mut().zip(x) {
                        *y = g * ((x - mu) * is) + bta;
                    }
                }
            }
        }
        if let Some(xhat) = xhat {
            self.cache = Some(Cache {
                xhat,
                inv_std,
                frozen,
            });
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("batchnorm2d"))?;
        ctx.count_flops(12 * grad_output.len() as u64);
        ctx.count_bytes(4 * 3 * grad_output.len() as u64);
        let (n, c, h, w) = self.check_input(grad_output)?;
        cache
            .xhat
            .shape()
            .expect_same(grad_output.shape(), "batchnorm2d backward")?;
        let hw = h * w;
        let m = (n * hw) as f32;
        let mut grad_in = Tensor::zeros(grad_output.dims());
        for ch in 0..c {
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            // Accumulate the channel sums needed by the closed-form gradient.
            let mut sum_dy = 0.0;
            let mut sum_dy_xhat = 0.0;
            for b in 0..n {
                let base = (b * c + ch) * hw;
                for i in 0..hw {
                    let dy = grad_output.data()[base + i];
                    sum_dy += dy;
                    sum_dy_xhat += dy * cache.xhat.data()[base + i];
                }
            }
            self.gamma.grad.data_mut()[ch] += sum_dy_xhat;
            self.beta.grad.data_mut()[ch] += sum_dy;
            if cache.frozen {
                // Statistics were constants in forward, so the input
                // gradient is the plain affine one.
                for b in 0..n {
                    let base = (b * c + ch) * hw;
                    for i in 0..hw {
                        grad_in.data_mut()[base + i] = g * inv_std * grad_output.data()[base + i];
                    }
                }
            } else {
                for b in 0..n {
                    let base = (b * c + ch) * hw;
                    for i in 0..hw {
                        let dy = grad_output.data()[base + i];
                        let xh = cache.xhat.data()[base + i];
                        grad_in.data_mut()[base + i] =
                            g * inv_std / m * (m * dy - sum_dy - xh * sum_dy_xhat);
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.gamma);
        visitor(&self.beta);
    }

    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        visitor(&mut self.gamma.value);
        visitor(&mut self.beta.value);
        visitor(&mut self.running_mean);
        visitor(&mut self.running_var);
    }

    fn visit_state_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.gamma.value);
        visitor(&self.beta.value);
        visitor(&self.running_mean);
        visitor(&self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::stats::StatExchange;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn train_output_is_normalised() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[4, 2, 5, 5], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, &mut ctx).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1.
        let hw = 25;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                vals.extend_from_slice(&y.data()[(b * 2 + ch) * hw..(b * 2 + ch + 1) * hw]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut ctx = RunCtx::train();
        let mut bn = BatchNorm2d::new(1);
        // Feed constant batches so running stats converge to (5, 0).
        let x = Tensor::full(&[2, 1, 3, 3], 5.0);
        for _ in 0..200 {
            bn.forward(&x, &mut ctx).unwrap();
        }
        ctx.set_mode(Mode::Eval);
        let y = bn.forward(&x, &mut ctx).unwrap();
        // (5 - ~5) / sqrt(~0 + eps) ≈ 0.
        assert!(
            y.data().iter().all(|v| v.abs() < 0.05),
            "{:?}",
            &y.data()[..3]
        );
    }

    #[test]
    fn frozen_norm_matches_eval_and_keeps_stats() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[3, 2, 4, 4], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Give the running stats a non-trivial value first.
        let mut ctx = RunCtx::train();
        bn.forward(&x, &mut ctx).unwrap();
        let mean_before = bn.running_mean().data().to_vec();
        let var_before = bn.running_var().data().to_vec();
        // Frozen train forward normalises exactly like eval…
        ctx.set_freeze_norm(true);
        let frozen = bn.forward(&x, &mut ctx).unwrap();
        let eval = bn.forward(&x, &mut RunCtx::eval()).unwrap();
        assert_eq!(frozen.data(), eval.data());
        // …and leaves the running statistics untouched.
        assert_eq!(bn.running_mean().data(), &mean_before[..]);
        assert_eq!(bn.running_var().data(), &var_before[..]);
    }

    #[test]
    fn frozen_backward_supports_training_and_uses_fixed_stats() {
        let mut rng = Rng::new(8);
        let x = Tensor::randn(&[2, 1, 3, 3], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(1);
        // Non-trivial running stats and gamma.
        bn.running_mean = Tensor::from_vec(vec![0.3], &[1]).unwrap();
        bn.running_var = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        bn.gamma.value = Tensor::from_vec(vec![1.5], &[1]).unwrap();
        let mut ctx = RunCtx::train();
        ctx.set_freeze_norm(true);
        bn.forward(&x, &mut ctx).unwrap();
        let dy = Tensor::full(&[2, 1, 3, 3], 0.5);
        let dx = bn.backward(&dy, &mut ctx).unwrap();
        // With frozen stats the input gradient is γ·inv_std·dy elementwise.
        let inv_std = 1.0 / (2.0f32 + 1e-5).sqrt();
        for &g in dx.data() {
            assert!((g - 1.5 * inv_std * 0.5).abs() < 1e-6, "{g}");
        }
        // Parameter gradients still accumulate (β gets Σdy = 9).
        assert!((bn.beta.grad.data()[0] - 9.0).abs() < 1e-4);
    }

    /// Runs `bn` clones over `x` cut into `shards` contiguous shards, one
    /// thread each, as one sharded [`Mode::Stats`] pass; returns the
    /// concatenated outputs and every shard's layer afterwards.
    fn sharded_stats(bn: &BatchNorm2d, x: &Tensor, shards: usize) -> (Vec<f32>, Vec<BatchNorm2d>) {
        let n = x.dims()[0];
        let per = x.len() / n;
        let exchange = Arc::new(StatExchange::new(n));
        let results: Vec<(Tensor, BatchNorm2d)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let (lo, hi) = (s * n / shards, (s + 1) * n / shards);
                    let exchange = Arc::clone(&exchange);
                    let mut bn = bn.clone();
                    scope.spawn(move || {
                        let mut dims = x.dims().to_vec();
                        dims[0] = hi - lo;
                        let shard =
                            Tensor::from_vec(x.data()[lo * per..hi * per].to_vec(), &dims).unwrap();
                        let mut ctx = RunCtx::new(Mode::Stats);
                        ctx.set_stat_link(Some(StatLink::new(exchange, lo)));
                        (bn.forward(&shard, &mut ctx).unwrap(), bn)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut out = Vec::new();
        let mut layers = Vec::new();
        for (y, bn) in results {
            out.extend_from_slice(y.data());
            layers.push(bn);
        }
        (out, layers)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sharded statistics pass is bitwise one whole-batch training
        /// forward: same outputs, same running statistics on every shard,
        /// for every contiguous split — uneven and one-sample shards
        /// included.
        #[test]
        fn sharded_stats_pass_is_bitwise_a_whole_batch_train_forward(
            n in 1usize..8,
            c in 1usize..5,
            h in 1usize..5,
            w in 1usize..4,
            seed in 0u64..1000,
        ) {
            let mut rng = Rng::new(seed);
            let x = Tensor::randn(&[n, c, h, w], Init::He, &mut rng);
            let mut bn = BatchNorm2d::new(c);
            bn.gamma.value = Tensor::randn(&[c], Init::Rand, &mut rng);
            bn.beta.value = Tensor::randn(&[c], Init::Rand, &mut rng);
            bn.running_mean = Tensor::randn(&[c], Init::Rand, &mut rng);
            let mut whole = bn.clone();
            let want = whole.forward(&x, &mut RunCtx::train()).unwrap();
            for shards in [1usize, 2, 3, 5] {
                let (got, layers) = sharded_stats(&bn, &x, shards.min(n));
                prop_assert_eq!(&got[..], want.data());
                for layer in &layers {
                    prop_assert_eq!(layer.running_mean.data(), whole.running_mean.data());
                    prop_assert_eq!(layer.running_var.data(), whole.running_var.data());
                    prop_assert!(layer.cache.is_none());
                }
            }
            // Without a link the pass stands alone over its own input, and
            // it ignores `freeze_norm` (refreshing the statistics is its job).
            let mut alone = bn.clone();
            let mut ctx = RunCtx::new(Mode::Stats);
            ctx.set_freeze_norm(true);
            let got = alone.forward(&x, &mut ctx).unwrap();
            prop_assert_eq!(got.data(), want.data());
            prop_assert_eq!(alone.running_var.data(), whole.running_var.data());
        }
    }

    #[test]
    fn stats_pass_leaves_the_backward_cache_alone() {
        let mut rng = Rng::new(11);
        let one = Tensor::randn(&[1, 2, 3, 3], Init::He, &mut rng);
        let many = Tensor::randn(&[4, 2, 3, 3], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        let mut ctx = RunCtx::train();
        ctx.set_freeze_norm(true);
        bn.forward(&one, &mut ctx).unwrap();
        let mut untouched = bn.clone();
        let ptr = bn.cache.as_ref().unwrap().xhat.data().as_ptr();
        ctx.set_mode(Mode::Stats);
        bn.forward(&many, &mut ctx).unwrap();
        ctx.set_mode(Mode::Train);
        assert_eq!(bn.cache.as_ref().unwrap().xhat.data().as_ptr(), ptr);
        // The pending one-sample backward still sees its own forward.
        let dy = Tensor::ones(one.dims());
        assert_eq!(
            bn.backward(&dy, &mut ctx).unwrap().data(),
            untouched.backward(&dy, &mut ctx).unwrap().data()
        );
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut ctx = RunCtx::train();
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 4, 4]), &mut ctx).is_err());
        assert!(bn.forward(&Tensor::zeros(&[2, 4]), &mut ctx).is_err());
    }

    #[test]
    fn steady_state_reuses_cache_buffers() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[2, 2, 4, 4], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, &mut ctx).unwrap();
        bn.backward(&y, &mut ctx).unwrap();
        let ptr_before = bn.cache.as_ref().unwrap().xhat.data().as_ptr();
        let y = bn.forward(&x, &mut ctx).unwrap();
        bn.backward(&y, &mut ctx).unwrap();
        let ptr_after = bn.cache.as_ref().unwrap().xhat.data().as_ptr();
        assert_eq!(ptr_before, ptr_after, "xhat buffer was reallocated");
    }

    #[test]
    fn input_gradcheck() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[3, 2, 3, 3], Init::He, &mut rng);
        let base = {
            let mut bn = BatchNorm2d::new(2);
            // Non-trivial gamma/beta so the gradient exercises both.
            bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5], &[2]).unwrap();
            bn.beta.value = Tensor::from_vec(vec![-0.3, 0.7], &[2]).unwrap();
            bn
        };
        let target = Tensor::randn(x.dims(), Init::Rand, &mut rng);
        let (a, n) = gradcheck::input_gradients(
            &x,
            |x| {
                let mut ctx = RunCtx::train();
                let mut bn = base.clone();
                let y = bn.forward(x, &mut ctx)?;
                let d = y.sub(&target)?;
                Ok(0.5 * d.sq_norm())
            },
            |x| {
                let mut ctx = RunCtx::train();
                let mut bn = base.clone();
                let y = bn.forward(x, &mut ctx)?;
                bn.backward(&y.sub(&target)?, &mut ctx)
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 3e-2);
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 1, 4, 4], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(1);
        let y = bn.forward(&x, &mut ctx).unwrap();
        bn.backward(&Tensor::ones(y.dims()), &mut ctx).unwrap();
        // dβ = Σ dy = 32; dγ = Σ xhat ≈ 0 (normalised).
        assert!((bn.beta.grad.data()[0] - 32.0).abs() < 1e-3);
        assert!(bn.gamma.grad.data()[0].abs() < 1e-3);
    }

    #[test]
    fn backward_requires_forward() {
        let mut ctx = RunCtx::train();
        let mut bn = BatchNorm2d::new(1);
        assert!(bn
            .backward(&Tensor::zeros(&[1, 1, 2, 2]), &mut ctx)
            .is_err());
    }

    #[test]
    fn select_channels_gathers_state_and_matches_small_layer() {
        let mut ctx = RunCtx::train();
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[2, 4, 3, 3], Init::He, &mut rng);
        let mut bn = BatchNorm2d::new(4);
        bn.gamma.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[4]).unwrap();
        bn.forward(&x, &mut ctx).unwrap(); // gives the running stats values
        bn.select_channels(&[1, 3]).unwrap();
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.scale().data(), &[2.0, 4.0]);
        assert_eq!(bn.shift().data(), &[0.2, 0.4]);
        // The compacted layer normalises the gathered channels exactly as
        // the original normalised them.
        let mut full = BatchNorm2d::new(4);
        full.gamma.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        full.beta.value = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[4]).unwrap();
        let y_full = full.forward(&x, &mut RunCtx::train()).unwrap();
        // Gather channels 1 and 3 of the input.
        let mut xs = Vec::new();
        for b in 0..2 {
            for ch in [1usize, 3] {
                xs.extend_from_slice(&x.data()[(b * 4 + ch) * 9..(b * 4 + ch + 1) * 9]);
            }
        }
        let xsel = Tensor::from_vec(xs, &[2, 2, 3, 3]).unwrap();
        let y_sel = bn.forward(&xsel, &mut RunCtx::train()).unwrap();
        for b in 0..2 {
            for (ci, ch) in [1usize, 3].iter().enumerate() {
                assert_eq!(
                    &y_sel.data()[(b * 2 + ci) * 9..(b * 2 + ci + 1) * 9],
                    &y_full.data()[(b * 4 + ch) * 9..(b * 4 + ch + 1) * 9],
                );
            }
        }
    }

    #[test]
    fn select_channels_rejects_bad_indices() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.select_channels(&[0, 4]).is_err());
        assert!(bn.select_channels(&[2, 1]).is_err());
        assert!(bn.select_channels(&[1, 1]).is_err());
        assert!(bn.select_channels(&[0, 2]).is_ok());
    }

    #[test]
    fn params_are_not_decayed() {
        let mut bn = BatchNorm2d::new(4);
        let mut decays = Vec::new();
        bn.visit_params(&mut |p| decays.push(p.decay));
        assert_eq!(decays, vec![false, false]);
        assert_eq!(bn.param_count(), 8);
    }
}
