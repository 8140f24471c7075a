//! Pointwise non-linearities.
//!
//! The paper's design-space exploration (§IV-A) compares `tanh`, `sigmoid`
//! and `ReLU` as the autoencoder activation `σae`, and `ReLU`/none as the
//! intermediate activation `σinter`; all three are provided both as
//! [`Layer`]s and as pure scalar functions with derivatives (the ALF block
//! applies `σae` to weight tensors directly).

use alf_tensor::Tensor;

use crate::ctx::RunCtx;
use crate::layer::{missing_cache, Layer, Mode};
use crate::Result;

/// Which pointwise non-linearity to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent — the paper's choice for `σae`.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (the "none" configuration in Fig. 2a/2b).
    Identity,
}

impl ActivationKind {
    /// Applies the function to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All four supported functions admit this form, which lets layers cache
    /// only their output.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::Identity => 1.0,
        }
    }

    /// Applies the function to every element of a tensor.
    pub fn apply_tensor(self, t: &Tensor) -> Tensor {
        t.map(|x| self.apply(x))
    }

    /// Short lowercase label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
            ActivationKind::Identity => "none",
        }
    }
}

impl std::fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Stateless activation layer.
///
/// # Example
///
/// ```
/// use alf_nn::{Activation, ActivationKind, Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::eval();
/// let mut tanh = Activation::new(ActivationKind::Tanh);
/// let y = tanh.forward(&Tensor::full(&[1], 100.0), &mut ctx)?;
/// assert!((y.data()[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    output: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, output: None }
    }

    /// The configured non-linearity.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let out = self.kind.apply_tensor(input);
        ctx.count_flops(input.len() as u64);
        ctx.count_bytes(4 * 2 * input.len() as u64);
        match ctx.mode() {
            // Reuse the cached output tensor when the shape matches so the
            // steady-state step stays allocation-free here.
            Mode::Train => match self.output.as_mut() {
                Some(cached) if cached.dims() == out.dims() => {
                    cached.data_mut().copy_from_slice(out.data());
                }
                _ => self.output = Some(out.clone()),
            },
            Mode::Eval => self.output = None,
            Mode::Stats => {}
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let out = self
            .output
            .as_ref()
            .ok_or_else(|| missing_cache("activation"))?;
        ctx.count_flops(2 * grad_output.len() as u64);
        ctx.count_bytes(4 * 3 * grad_output.len() as u64);
        grad_output.zip_map(out, |g, y| g * self.kind.derivative_from_output(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    #[test]
    fn scalar_values() {
        assert_eq!(ActivationKind::Relu.apply(-3.0), 0.0);
        assert_eq!(ActivationKind::Relu.apply(3.0), 3.0);
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert_eq!(ActivationKind::Tanh.apply(0.0), 0.0);
        assert_eq!(ActivationKind::Identity.apply(7.5), 7.5);
    }

    #[test]
    fn derivatives_from_output() {
        // tanh'(0) = 1, sigmoid'(0) = 0.25
        assert_eq!(ActivationKind::Tanh.derivative_from_output(0.0), 1.0);
        assert_eq!(ActivationKind::Sigmoid.derivative_from_output(0.5), 0.25);
        assert_eq!(ActivationKind::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(ActivationKind::Identity.derivative_from_output(123.0), 1.0);
    }

    #[test]
    fn all_kinds_pass_gradcheck() {
        let mut rng = Rng::new(3);
        for kind in [
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
            ActivationKind::Identity,
        ] {
            let x = Tensor::randn(&[2, 5], Init::Rand, &mut rng);
            let (a, n) = gradcheck::input_gradients(
                &x,
                |x| {
                    let mut ctx = RunCtx::train();
                    let mut l = Activation::new(kind);
                    let y = l.forward(x, &mut ctx)?;
                    Ok(y.sum())
                },
                |x| {
                    let mut ctx = RunCtx::train();
                    let mut l = Activation::new(kind);
                    l.forward(x, &mut ctx)?;
                    l.backward(&Tensor::ones(x.dims()), &mut ctx)
                },
            )
            .unwrap();
            gradcheck::assert_close(&a, &n, 1e-2);
        }
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        // ReLU is non-differentiable at 0; probe at values far from it.
        let x = Tensor::from_vec(vec![-2.0, -0.7, 0.9, 3.0], &[4]).unwrap();
        let (a, n) = gradcheck::input_gradients(
            &x,
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = Activation::new(ActivationKind::Relu);
                Ok(l.forward(x, &mut ctx)?.sum())
            },
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = Activation::new(ActivationKind::Relu);
                l.forward(x, &mut ctx)?;
                l.backward(&Tensor::ones(x.dims()), &mut ctx)
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 1e-2);
    }

    #[test]
    fn backward_requires_forward() {
        let mut ctx = RunCtx::train();
        let mut l = Activation::new(ActivationKind::Relu);
        assert!(l.backward(&Tensor::zeros(&[1]), &mut ctx).is_err());
    }

    #[test]
    fn cached_output_buffer_is_reused() {
        let mut ctx = RunCtx::train();
        let mut l = Activation::new(ActivationKind::Tanh);
        let x = Tensor::full(&[2, 3], 0.5);
        l.forward(&x, &mut ctx).unwrap();
        let ptr_before = l.output.as_ref().unwrap().data().as_ptr();
        l.forward(&x, &mut ctx).unwrap();
        let ptr_after = l.output.as_ref().unwrap().data().as_ptr();
        assert_eq!(ptr_before, ptr_after);
    }

    #[test]
    fn labels() {
        assert_eq!(ActivationKind::Identity.label(), "none");
        assert_eq!(ActivationKind::Tanh.to_string(), "tanh");
    }

    #[test]
    fn activation_has_no_params() {
        assert_eq!(Activation::new(ActivationKind::Relu).param_count(), 0);
    }
}
