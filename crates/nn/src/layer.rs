//! The layer contract shared by every trainable component.

use alf_tensor::Tensor;

use crate::ctx::RunCtx;
use crate::Result;

/// Forward-pass mode.
///
/// Batch normalisation behaves differently during training (batch
/// statistics) and evaluation (running statistics); every layer receives the
/// mode explicitly rather than holding hidden state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: caches for backward are populated; BN uses batch stats.
    Train,
    /// Inference: caches are dropped; BN uses running stats.
    Eval,
    /// Forward-only statistics pass: BN normalises with batch statistics
    /// and updates its running statistics exactly as [`Mode::Train`] does
    /// (over every participant's samples when the context carries a
    /// [`StatLink`](crate::StatLink)), but every backward cache is left
    /// as it was found — a replica can alternate this pass with training
    /// passes of another batch size without reallocating either's buffers.
    Stats,
}

impl Mode {
    /// Applies the mode's policy to a layer's backward cache: `Train`
    /// stores `make()`, `Eval` drops the cache, `Stats` leaves it alone.
    pub fn cache<T>(self, slot: &mut Option<T>, make: impl FnOnce() -> T) {
        match self {
            Mode::Train => *slot = Some(make()),
            Mode::Eval => *slot = None,
            Mode::Stats => {}
        }
    }
}

/// A trainable parameter: value, accumulated gradient, and whether L2
/// weight decay applies to it.
///
/// The paper applies weight decay to ordinary task parameters but explicitly
/// *not* to the ALF block's `W`/`Wcode` (§III-B), hence the per-parameter
/// `decay` flag.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// Whether the optimizer should apply L2 weight decay to this parameter.
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.dims());
        Self { value, grad, decay }
    }

    /// Zeroes the accumulated gradient in place.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A differentiable layer.
///
/// The contract is the classic cache-and-replay scheme: a forward pass in
/// [`Mode::Train`] must store whatever `backward` will need; `backward`
/// consumes the gradient w.r.t. the layer output, accumulates parameter
/// gradients into its [`Param`]s and returns the gradient w.r.t. the layer
/// input. Both passes receive a [`RunCtx`] carrying the mode, the shared
/// scratch arena and the optional profiler — see [`crate::ctx`] for the
/// ownership rules.
///
/// # Example
///
/// ```
/// use alf_nn::{Activation, ActivationKind, Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::train();
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?;
/// let y = relu.forward(&x, &mut ctx)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// let gx = relu.backward(&Tensor::ones(&[1, 2]), &mut ctx)?;
/// assert_eq!(gx.data(), &[0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub trait Layer: std::fmt::Debug {
    /// Computes the layer output.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor>;

    /// Propagates `grad_output` back to the input, accumulating parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error when no forward pass was cached or shapes mismatch.
    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor>;

    /// Visits every trainable parameter in a stable order.
    ///
    /// The default implementation visits nothing (stateless layers).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        let _ = visitor;
    }

    /// Read-only counterpart of [`Layer::visit_params`]: visits the same
    /// parameters in the same order without requiring `&mut self`. This is
    /// what lets checkpointing and replica synchronisation read a model
    /// that is only borrowed immutably (e.g. a model concurrently served
    /// by worker threads). Layers that override `visit_params` must
    /// override this too — the two orders are contractually identical,
    /// which `tests` assert model-wide.
    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        let _ = visitor;
    }

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every tensor that constitutes the layer's persistent state —
    /// trainable parameters plus non-trained buffers (e.g. batch-norm
    /// running statistics) — in a stable order. This is the hook model
    /// checkpointing uses; layers with extra buffers must override it.
    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        self.visit_params(&mut |p| visitor(&mut p.value));
    }

    /// Read-only counterpart of [`Layer::visit_state`]: the same tensors in
    /// the same order through `&self`. Layers that override `visit_state`
    /// (extra non-parameter buffers) must override this too.
    fn visit_state_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        self.visit_params_ref(&mut |p| visitor(&p.value));
    }

    /// Number of trainable scalars in this layer.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

/// Convenience: raises a "backward before forward" shape error.
pub(crate) fn missing_cache(op: &str) -> alf_tensor::ShapeError {
    alf_tensor::ShapeError::new(op, "backward called before forward")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[2, 2]), true);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.dims(), p.value.dims());
        assert!(p.decay);
    }

    #[test]
    fn param_zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[3]), false);
        p.grad = Tensor::full(&[3], 2.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    /// `Mode::Stats` leaves every backward cache as it found it: a
    /// statistics forward of another batch size, slipped between a training
    /// forward and its backward, changes no gradient of any layer.
    #[test]
    fn stats_forward_between_train_forward_and_backward_is_invisible() {
        use crate::{
            pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d},
            Activation, ActivationKind, BatchNorm2d, Conv2d, Linear,
        };
        use alf_tensor::init::Init;
        use alf_tensor::rng::Rng;

        let conv = || Conv2d::new(2, 3, 3, 1, 1, true, Init::Rand, &mut Rng::new(1));
        let image = vec![2, 4, 4];
        type Make = Box<dyn Fn() -> Box<dyn Layer>>;
        let table: Vec<(Make, Vec<usize>)> = vec![
            (Box::new(move || Box::new(conv())), image.clone()),
            (
                Box::new(|| Box::new(Linear::new(32, 3, Init::Rand, &mut Rng::new(2)))),
                vec![32],
            ),
            (
                Box::new(|| Box::new(Activation::new(ActivationKind::Tanh))),
                image.clone(),
            ),
            (Box::new(|| Box::new(BatchNorm2d::new(2))), image.clone()),
            (Box::new(|| Box::new(MaxPool2d::new(2))), image.clone()),
            (Box::new(|| Box::new(AvgPool2d::new(2))), image.clone()),
            (Box::new(|| Box::new(GlobalAvgPool::new())), image.clone()),
            (Box::new(|| Box::new(Flatten::new())), image),
        ];
        let mut rng = Rng::new(3);
        for (make, sample) in table {
            let dims = |n: usize| [&[n][..], &sample[..]].concat();
            let one = Tensor::randn(&dims(1), Init::Rand, &mut rng);
            let many = Tensor::randn(&dims(3), Init::Rand, &mut rng);
            let (mut layer, mut reference) = (make(), make());
            let mut ctx = RunCtx::train();
            ctx.set_freeze_norm(true);
            let y = layer.forward(&one, &mut ctx).unwrap();
            reference.forward(&one, &mut ctx).unwrap();
            ctx.set_mode(Mode::Stats);
            layer.forward(&many, &mut ctx).unwrap();
            ctx.set_mode(Mode::Train);
            let got = layer.backward(&y, &mut ctx).unwrap();
            let want = reference.backward(&y, &mut ctx).unwrap();
            assert_eq!(got.data(), want.data(), "{layer:?}");
            let mut grads = Vec::new();
            reference.visit_params_ref(&mut |p| grads.push(p.grad.clone()));
            let mut i = 0;
            layer.visit_params_ref(&mut |p| {
                assert_eq!(p.grad.data(), grads[i].data());
                i += 1;
            });
        }
    }

    #[test]
    fn default_visit_params_is_empty() {
        #[derive(Debug)]
        struct Null;
        impl Layer for Null {
            fn forward(&mut self, input: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                Ok(input.clone())
            }
            fn backward(&mut self, g: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                Ok(g.clone())
            }
        }
        assert_eq!(Null.param_count(), 0);
    }
}
