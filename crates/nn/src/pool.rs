//! Pooling layers: global average pooling (the head of ResNet/Plain
//! networks) and max pooling (used by the ImageNet-geometry models).

use alf_tensor::{ShapeError, Tensor};

use crate::ctx::RunCtx;
use crate::layer::{missing_cache, Layer, Mode};
use crate::Result;

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Example
///
/// ```
/// use alf_nn::{pool::GlobalAvgPool, Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::eval();
/// let mut gap = GlobalAvgPool::new();
/// let y = gap.forward(&Tensor::full(&[1, 2, 4, 4], 3.0), &mut ctx)?;
/// assert_eq!(y.data(), &[3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let [n, c, h, w] = rank4("global_avg_pool", input)?;
        let hw = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for b in 0..n {
            for ch in 0..c {
                let plane = &input.data()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                out.data_mut()[b * c + ch] = plane.iter().sum::<f32>() / hw;
            }
        }
        ctx.count_flops(input.len() as u64);
        ctx.count_bytes(4 * (input.len() + n * c) as u64);
        ctx.mode().cache(&mut self.input_dims, || [n, c, h, w]);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let [n, c, h, w] = self
            .input_dims
            .ok_or_else(|| missing_cache("global_avg_pool"))?;
        ctx.count_flops((n * c * h * w) as u64);
        ctx.count_bytes(4 * (n * c * h * w + n * c) as u64);
        if grad_output.dims() != [n, c] {
            return Err(ShapeError::new(
                "global_avg_pool backward",
                format!("grad {}", grad_output.shape()),
            ));
        }
        let hw = (h * w) as f32;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for b in 0..n {
            for ch in 0..c {
                let g = grad_output.data()[b * c + ch] / hw;
                for v in &mut grad_in.data_mut()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w] {
                    *v = g;
                }
            }
        }
        Ok(grad_in)
    }
}

/// Max pooling with square window and equal stride (window = stride,
/// the common "downsample by k" configuration).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    argmax: Option<(Vec<usize>, [usize; 4])>,
    /// Retired argmax buffer, kept so consecutive training steps reuse
    /// one allocation instead of growing a fresh `Vec` each forward.
    spare: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window/stride.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            argmax: None,
            spare: Vec::new(),
        }
    }

    /// Window (and stride) size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let [n, c, h, w] = rank4("max_pool2d", input)?;
        let k = self.window;
        if h < k || w < k {
            return Err(ShapeError::new(
                "max_pool2d",
                format!("input {h}x{w} smaller than window {k}"),
            ));
        }
        let (ho, wo) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        // A statistics pass must leave the cached argmax for the backward
        // pass that owns it, so it writes into the spare buffer instead.
        let cached = match ctx.mode() {
            Mode::Stats => None,
            Mode::Train | Mode::Eval => self.argmax.take(),
        };
        let mut argmax = match cached {
            Some((buf, _)) => buf,
            None => std::mem::take(&mut self.spare),
        };
        argmax.resize(n * c * ho * wo, 0);
        for b in 0..n {
            for ch in 0..c {
                let plane = &input.data()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = (oy * k + dy) * w + ox * k + dx;
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = ((b * c + ch) * ho + oy) * wo + ox;
                        out.data_mut()[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        ctx.count_flops(input.len() as u64);
        ctx.count_bytes(4 * (input.len() + n * c * ho * wo) as u64);
        if ctx.mode() == Mode::Train {
            self.argmax = Some((argmax, [n, c, h, w]));
        } else {
            self.spare = argmax;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let (argmax, [n, c, h, w]) = self
            .argmax
            .as_ref()
            .ok_or_else(|| missing_cache("max_pool2d"))?;
        ctx.count_flops((n * c * h * w) as u64);
        ctx.count_bytes(4 * (n * c * h * w) as u64);
        let k = self.window;
        let (ho, wo) = (h / k, w / k);
        if grad_output.dims() != [*n, *c, ho, wo] {
            return Err(ShapeError::new(
                "max_pool2d backward",
                format!("grad {}", grad_output.shape()),
            ));
        }
        let mut grad_in = Tensor::zeros(&[*n, *c, *h, *w]);
        for b in 0..*n {
            for ch in 0..*c {
                let plane_base = (b * c + ch) * h * w;
                for o_local in 0..ho * wo {
                    let o = (b * c + ch) * ho * wo + o_local;
                    grad_in.data_mut()[plane_base + argmax[o]] += grad_output.data()[o];
                }
            }
        }
        Ok(grad_in)
    }
}

fn rank4(op: &str, t: &Tensor) -> Result<[usize; 4]> {
    match t.dims() {
        &[a, b, c, d] => Ok([a, b, c, d]),
        _ => Err(ShapeError::new(
            op,
            format!("expected rank-4 tensor, got {}", t.shape()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    #[test]
    fn gap_averages_planes() {
        let mut ctx = RunCtx::eval();
        let x = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32);
        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x, &mut ctx).unwrap();
        assert_eq!(y.data(), &[1.5]);
    }

    #[test]
    fn gap_backward_spreads_uniformly() {
        let mut ctx = RunCtx::train();
        let mut gap = GlobalAvgPool::new();
        gap.forward(&Tensor::zeros(&[1, 1, 2, 2]), &mut ctx)
            .unwrap();
        let g = gap
            .backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap(), &mut ctx)
            .unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gap_gradcheck() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[2, 3, 3, 3], Init::Rand, &mut rng);
        let (a, n) = gradcheck::input_gradients(
            &x,
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = GlobalAvgPool::new();
                let y = l.forward(x, &mut ctx)?;
                Ok(0.5 * y.sq_norm())
            },
            |x| {
                let mut ctx = RunCtx::train();
                let mut l = GlobalAvgPool::new();
                let y = l.forward(x, &mut ctx)?;
                l.backward(&y, &mut ctx)
            },
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 1e-2);
    }

    #[test]
    fn maxpool_selects_max() {
        let mut ctx = RunCtx::train();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut mp = MaxPool2d::new(2);
        let y = mp.forward(&x, &mut ctx).unwrap();
        assert_eq!(y.data(), &[4.0]);
        let g = mp
            .backward(
                &Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap(),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_rejects_small_input() {
        let mut ctx = RunCtx::eval();
        let mut mp = MaxPool2d::new(3);
        assert!(mp.forward(&Tensor::zeros(&[1, 1, 2, 2]), &mut ctx).is_err());
    }

    #[test]
    fn maxpool_reuses_argmax_buffer() {
        let mut ctx = RunCtx::train();
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| i as f32);
        let mut mp = MaxPool2d::new(2);
        let y = mp.forward(&x, &mut ctx).unwrap();
        mp.backward(&y, &mut ctx).unwrap();
        let ptr_before = mp.argmax.as_ref().unwrap().0.as_ptr();
        let y = mp.forward(&x, &mut ctx).unwrap();
        mp.backward(&y, &mut ctx).unwrap();
        let ptr_after = mp.argmax.as_ref().unwrap().0.as_ptr();
        assert_eq!(ptr_before, ptr_after, "argmax buffer was reallocated");
    }

    #[test]
    fn backward_requires_forward() {
        let mut ctx = RunCtx::train();
        assert!(GlobalAvgPool::new()
            .backward(&Tensor::zeros(&[1, 1]), &mut ctx)
            .is_err());
        assert!(MaxPool2d::new(2)
            .backward(&Tensor::zeros(&[1, 1, 1, 1]), &mut ctx)
            .is_err());
    }
}
