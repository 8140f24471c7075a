//! Fully-connected layer (the classifier head of every model in the zoo).

use alf_tensor::init::Init;
use alf_tensor::ops::{auto_threads, gemm_into};
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::ctx::RunCtx;
use crate::layer::{missing_cache, Layer, Param};
use crate::Result;

/// Affine layer `y = x·Wᵀ + b` with `x: [n, in]`, `W: [out, in]`.
///
/// All three products (forward, weight gradient, input gradient) run
/// through the blocked GEMM with packing scratch drawn from the shared
/// [`RunCtx`] arena, so a steady-state step allocates only the returned
/// tensors.
///
/// # Example
///
/// ```
/// use alf_nn::{Layer, Linear, RunCtx};
/// use alf_tensor::{init::Init, rng::Rng, Tensor};
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::eval();
/// let mut fc = Linear::new(64, 10, Init::Xavier, &mut Rng::new(0));
/// let y = fc.forward(&Tensor::zeros(&[4, 64]), &mut ctx)?;
/// assert_eq!(y.dims(), &[4, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with the given initialiser and zero bias.
    pub fn new(in_features: usize, out_features: usize, init: Init, rng: &mut Rng) -> Self {
        Self {
            weight: Param::new(Tensor::randn(&[out_features, in_features], init, rng), true),
            bias: Param::new(Tensor::zeros(&[out_features]), false),
            input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Read-only weight view.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(ShapeError::new(
                "linear",
                format!(
                    "input {} vs expected [n x {}]",
                    input.shape(),
                    self.in_features()
                ),
            ));
        }
        let (n, in_f, out_f) = (input.dims()[0], self.in_features(), self.out_features());
        // y = x · Wᵀ; the transpose is absorbed by GEMM packing.
        let mut out = Tensor::zeros(&[n, out_f]);
        gemm_into(
            out.data_mut(),
            input.data(),
            false,
            self.weight.value.data(),
            true,
            n,
            in_f,
            out_f,
            &mut ctx.ws,
            auto_threads(n, in_f, out_f),
        );
        let bd = self.bias.value.data();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v += bd[i % out_f];
        }
        ctx.count_flops(2 * (n * in_f * out_f) as u64);
        ctx.count_bytes(4 * (input.len() + self.weight.value.len() + n * out_f) as u64);
        ctx.mode().cache(&mut self.input, || input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let input = self.input.as_ref().ok_or_else(|| missing_cache("linear"))?;
        if grad_output.dims() != [input.dims()[0], self.out_features()] {
            return Err(ShapeError::new(
                "linear backward",
                format!("grad {}", grad_output.shape()),
            ));
        }
        let (n, in_f, out_f) = (input.dims()[0], self.in_features(), self.out_features());
        // grad_W = gᵀ · x → [out, in], staged in the arena then accumulated.
        let mut gw = ctx.ws.take("lin_gw", out_f * in_f);
        gemm_into(
            &mut gw,
            grad_output.data(),
            true,
            input.data(),
            false,
            out_f,
            n,
            in_f,
            &mut ctx.ws,
            auto_threads(out_f, n, in_f),
        );
        for (g, &v) in self.weight.grad.data_mut().iter_mut().zip(gw.iter()) {
            *g += v;
        }
        ctx.ws.give("lin_gw", gw);
        // grad_b = column sums of g.
        for i in 0..n {
            for j in 0..out_f {
                self.bias.grad.data_mut()[j] += grad_output.data()[i * out_f + j];
            }
        }
        // grad_x = g · W
        let mut gx = Tensor::zeros(&[n, in_f]);
        gemm_into(
            gx.data_mut(),
            grad_output.data(),
            false,
            self.weight.value.data(),
            false,
            n,
            out_f,
            in_f,
            &mut ctx.ws,
            auto_threads(n, out_f, in_f),
        );
        ctx.count_flops(4 * (n * in_f * out_f) as u64);
        ctx.count_bytes(
            4 * (grad_output.len() + input.len() + 2 * self.weight.value.len() + n * in_f) as u64,
        );
        Ok(gx)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    #[test]
    fn forward_affine() {
        let mut ctx = RunCtx::eval();
        let mut fc = Linear::new(2, 2, Init::Zeros, &mut Rng::new(0));
        let y = fc
            .forward(
                &Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap(),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(y.data(), &[0.0, 0.0]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut ctx = RunCtx::eval();
        let mut fc = Linear::new(4, 2, Init::Zeros, &mut Rng::new(0));
        assert!(fc.forward(&Tensor::zeros(&[1, 3]), &mut ctx).is_err());
        assert!(fc.forward(&Tensor::zeros(&[4]), &mut ctx).is_err());
    }

    #[test]
    fn input_gradcheck() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[3, 4], Init::Rand, &mut rng);
        let base = Linear::new(4, 5, Init::Rand, &mut rng);
        let (a, n) = gradcheck::input_gradients(
            &x,
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = base.clone();
                let y = l.forward(x, &mut ctx)?;
                Ok(0.5 * y.sq_norm())
            },
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = base.clone();
                let y = l.forward(x, &mut ctx)?;
                l.backward(&y, &mut ctx)
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 2e-2);
    }

    #[test]
    fn weight_and_bias_gradcheck() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 3], Init::Rand, &mut rng);
        let base = Linear::new(3, 2, Init::Rand, &mut rng);
        let w0 = base.weight().clone();
        let (a, n) = gradcheck::input_gradients(
            &w0,
            |w| {
                let mut ctx = RunCtx::train();
                let mut l = base.clone();
                l.weight.value = w.clone();
                let y = l.forward(&x, &mut ctx)?;
                Ok(0.5 * y.sq_norm())
            },
            |w| {
                let mut ctx = RunCtx::train();
                let mut l = base.clone();
                l.weight.value = w.clone();
                let y = l.forward(&x, &mut ctx)?;
                l.backward(&y, &mut ctx)?;
                Ok(l.weight.grad.clone())
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 2e-2);
    }

    #[test]
    fn backward_requires_forward() {
        let mut ctx = RunCtx::train();
        let mut fc = Linear::new(2, 2, Init::Zeros, &mut Rng::new(0));
        assert!(fc.backward(&Tensor::zeros(&[1, 2]), &mut ctx).is_err());
    }

    #[test]
    fn param_count() {
        let mut fc = Linear::new(10, 4, Init::Zeros, &mut Rng::new(0));
        assert_eq!(fc.param_count(), 44);
    }
}
