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
/// # Leaves and composites
///
/// A *leaf* owns its parameters and overrides [`Layer::visit_params`] /
/// [`Layer::visit_params_ref`] (and the two state visitors when it has
/// non-trained buffers). A *composite* owns none: it lists its children
/// once per borrow kind in [`Layer::children`] / [`Layer::children_mut`]
/// and overrides no visitor — the five defaults recurse through that
/// listing, so the flat parameter order, the state vector and every
/// checkpoint are the children's orders concatenated. A layer that has
/// both (the ALF block: its own `W` plus an expansion conv) lists nothing
/// and overrides all five.
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

    /// Lists the direct children that own parameters or persistent state,
    /// in the order their state is laid out (shared borrow).
    ///
    /// This is the whole traversal contract of a composite: list the
    /// children here and in [`Layer::children_mut`], override no visitor.
    /// The default lists nothing (a leaf).
    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        let _ = visit;
    }

    /// Mutable counterpart of [`Layer::children`]: the same children in
    /// the same order.
    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        let _ = visit;
    }

    /// Visits every trainable parameter in a stable order.
    ///
    /// The default recurses through [`Layer::children_mut`], so it visits
    /// nothing for a stateless leaf; a leaf with parameters overrides it.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.children_mut(&mut |child| child.visit_params(visitor));
    }

    /// Read-only counterpart of [`Layer::visit_params`]: visits the same
    /// parameters in the same order without requiring `&mut self`. This is
    /// what lets checkpointing and replica synchronisation read a model
    /// that is only borrowed immutably (e.g. a model concurrently served
    /// by worker threads). Layers that override `visit_params` must
    /// override this too — the two orders are contractually identical,
    /// which `tests` assert model-wide.
    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        self.children(&mut |child| child.visit_params_ref(visitor));
    }

    /// Zeroes all parameter gradients.
    ///
    /// A composite reaches each child's `zero_grads`, never its
    /// `visit_params`: a mutable parameter visit may move a weight, so an
    /// ALF block answers one by rebuilding its code, which zeroing
    /// gradients must not cost. Only a leaf (no children listed) zeroes
    /// through its own `visit_params`.
    fn zero_grads(&mut self) {
        let mut leaf = true;
        self.children_mut(&mut |child| {
            leaf = false;
            child.zero_grads();
        });
        if leaf {
            self.visit_params(&mut |p| p.zero_grad());
        }
    }

    /// Visits every tensor that constitutes the layer's persistent state —
    /// trainable parameters plus non-trained buffers (e.g. batch-norm
    /// running statistics) — in a stable order. This is the hook model
    /// checkpointing uses. A composite's state is its children's, in
    /// order; a leaf's is its parameter values, and a leaf with extra
    /// buffers must override this.
    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        let mut leaf = true;
        self.children_mut(&mut |child| {
            leaf = false;
            child.visit_state(visitor);
        });
        if leaf {
            self.visit_params(&mut |p| visitor(&mut p.value));
        }
    }

    /// Read-only counterpart of [`Layer::visit_state`]: the same tensors in
    /// the same order through `&self`. Layers that override `visit_state`
    /// (extra non-parameter buffers) must override this too.
    fn visit_state_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        let mut leaf = true;
        self.children(&mut |child| {
            leaf = false;
            child.visit_state_ref(visitor);
        });
        if leaf {
            self.visit_params_ref(&mut |p| visitor(&p.value));
        }
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
            pool::{GlobalAvgPool, MaxPool2d},
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
            (Box::new(|| Box::new(GlobalAvgPool::new())), image),
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

    /// The composite contract on a two-level tree — `Pair(counting,
    /// Pair(linear, bn))` — whose leaves have distinct tensor sizes:
    /// the defaults visit children in declaration order, `visit_state`
    /// reaches batch-norm's running statistics, and `zero_grads` reaches a
    /// child's own `zero_grads` without a mutable parameter visit.
    #[test]
    fn composite_defaults_follow_the_child_listing() {
        use crate::{BatchNorm2d, Linear};
        use alf_tensor::init::Init;
        use alf_tensor::rng::Rng;

        fn stub() -> Result<Tensor> {
            unreachable!("the visitor contract runs no pass")
        }

        /// A params-only leaf that tells `zero_grads` from `visit_params`.
        #[derive(Debug)]
        struct Counting {
            p: Param,
            mutable_visits: usize,
            zero_calls: usize,
        }
        impl Layer for Counting {
            fn forward(&mut self, _: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                stub()
            }
            fn backward(&mut self, _: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                stub()
            }
            fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
                self.mutable_visits += 1;
                v(&mut self.p);
            }
            fn visit_params_ref(&self, v: &mut dyn FnMut(&Param)) {
                v(&self.p);
            }
            fn zero_grads(&mut self) {
                self.zero_calls += 1;
                self.p.zero_grad();
            }
        }

        /// The composite under test: two children, no visitor override.
        #[derive(Debug)]
        struct Pair<A, B>(A, B);
        impl<A: Layer, B: Layer> Layer for Pair<A, B> {
            fn forward(&mut self, _: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                stub()
            }
            fn backward(&mut self, _: &Tensor, _: &mut RunCtx) -> Result<Tensor> {
                stub()
            }
            fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
                visit(&self.0);
                visit(&self.1);
            }
            fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
                visit(&mut self.0);
                visit(&mut self.1);
            }
        }
        type Outer = Pair<Counting, Pair<Linear, BatchNorm2d>>;

        let counting = Counting {
            p: Param::new(Tensor::ones(&[1]), false),
            mutable_visits: 0,
            zero_calls: 0,
        };
        let linear = Linear::new(2, 3, Init::Rand, &mut Rng::new(1));
        let mut outer: Outer = Pair(counting, Pair(linear, BatchNorm2d::new(4)));
        // counting p | linear W, b | bn γ, β | bn running mean, var.
        let params: &[usize] = &[1, 6, 3, 4, 4];
        let state: &[usize] = &[1, 6, 3, 4, 4, 4, 4];
        type Walk = fn(&mut Outer, &mut Vec<usize>);
        let table: [(&str, Walk, &[usize]); 4] = [
            (
                "visit_params",
                |o, seen| o.visit_params(&mut |p| seen.push(p.value.len())),
                params,
            ),
            (
                "visit_params_ref",
                |o, seen| o.visit_params_ref(&mut |p| seen.push(p.value.len())),
                params,
            ),
            (
                "visit_state",
                |o, seen| o.visit_state(&mut |t| seen.push(t.len())),
                state,
            ),
            (
                "visit_state_ref",
                |o, seen| o.visit_state_ref(&mut |t| seen.push(t.len())),
                state,
            ),
        ];
        for (name, walk, want) in table {
            let mut seen = Vec::new();
            walk(&mut outer, &mut seen);
            assert_eq!(seen, want, "{name}");
        }
        assert_eq!(outer.param_count(), params.iter().sum::<usize>());

        outer.visit_params(&mut |p| p.grad = Tensor::ones(p.value.dims()));
        outer.0.mutable_visits = 0;
        outer.zero_grads();
        outer.visit_params_ref(&mut |p| assert_eq!(p.grad.sum(), 0.0));
        assert_eq!(
            (outer.0.zero_calls, outer.0.mutable_visits),
            (1, 0),
            "zero_grads must call the child's override, not visit_params"
        );
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
