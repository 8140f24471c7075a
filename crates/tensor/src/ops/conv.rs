use crate::{ShapeError, Tensor};

use super::matmul;

/// Geometry of a 2-D convolution: square kernel, symmetric stride/padding.
///
/// # Example
///
/// ```
/// use alf_tensor::ops::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 1, 1); // 3x3, stride 1, "same" padding
/// assert_eq!(spec.output_hw(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Square kernel size `K`.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics when the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        conv_output_hw(h, w, self.kernel, self.stride, self.pad)
    }
}

/// Output spatial size of a convolution (`floor` convention).
///
/// # Panics
///
/// Panics when the padded input is smaller than the kernel.
pub fn conv_output_hw(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "padded input {h}x{w} (+{pad}) smaller than kernel {k}"
    );
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// Unfolds an `NCHW` input into the column matrix used by GEMM convolution.
///
/// The result has shape `[c_in·k·k, n·h_out·w_out]`; column `(b, y, x)`
/// contains the receptive field of output pixel `(y, x)` of batch element
/// `b`, flattened channel-major. Out-of-bounds taps read as zero
/// (zero padding).
///
/// # Errors
///
/// Returns an error unless `input` is rank 4.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor, ShapeError> {
    let [n, ci, h, w] = rank4("im2col", input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let k = spec.kernel;
    let mut out = Tensor::zeros(&[ci * k * k, n * ho * wo]);
    im2col_into(out.data_mut(), input, spec)?;
    Ok(out)
}

/// [`im2col`] into a caller-owned buffer of exactly
/// `ci·k·k · n·h_out·w_out` elements — the allocation-free variant the
/// `alf-nn` conv layer uses with its per-layer workspace. The buffer is
/// fully overwritten (zeroed first, since padding taps are never stored).
///
/// # Errors
///
/// Returns an error unless `input` is rank 4 and `dst` has the exact
/// output length.
pub fn im2col_into(dst: &mut [f32], input: &Tensor, spec: Conv2dSpec) -> Result<(), ShapeError> {
    let [n, ci, h, w] = rank4("im2col_into", input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let k = spec.kernel;
    let rows = ci * k * k;
    let cols = n * ho * wo;
    if dst.len() != rows * cols {
        return Err(ShapeError::new(
            "im2col_into",
            format!(
                "buffer has {} elements, expected {}x{}",
                dst.len(),
                rows,
                cols
            ),
        ));
    }
    unfold(dst, input.data(), n, ci, h, w, spec);
    Ok(())
}

/// The one im2col loop, shared by the f32 and i8 wrappers
/// ([`im2col_into`], [`im2col_i8_into`](super::im2col_i8_into)): copies
/// every in-bounds tap of the `NCHW` `src` into its `[ci·k·k,
/// n·h_out·w_out]` slot of `dst`; padding taps stay at `T::default()`
/// (zero). Callers have checked both lengths.
pub(super) fn unfold<T: Copy + Default>(
    dst: &mut [T],
    src: &[T],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) {
    let (ho, wo) = spec.output_hw(h, w);
    let k = spec.kernel;
    let cols = n * ho * wo;
    dst.fill(T::default());
    for b in 0..n {
        for c in 0..ci {
            let plane = &src[(b * ci + c) * h * w..(b * ci + c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..wo {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (b * ho + oy) * wo + ox;
                            dst[row * cols + col] = plane[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Folds a column matrix back into an `NCHW` tensor, *accumulating*
/// overlapping contributions — the adjoint of [`im2col`], used for the
/// input-gradient of convolution.
///
/// # Errors
///
/// Returns an error when `cols` does not have the shape `im2col` would have
/// produced for the given geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    let (ho, wo) = spec.output_hw(h, w);
    let k = spec.kernel;
    let expected = [ci * k * k, n * ho * wo];
    if cols.dims() != expected {
        return Err(ShapeError::new(
            "col2im",
            format!(
                "got {}, expected [{}x{}]",
                cols.shape(),
                expected[0],
                expected[1]
            ),
        ));
    }
    let mut out = Tensor::zeros(&[n, ci, h, w]);
    col2im_into(out.data_mut(), cols.data(), n, ci, h, w, spec)?;
    Ok(out)
}

/// [`col2im`] into a caller-owned buffer of exactly `n·ci·h·w` elements —
/// the allocation-free variant used by the `alf-nn` conv backward pass.
/// The buffer is zeroed, then overlapping contributions accumulate.
///
/// # Errors
///
/// Returns an error when either buffer length disagrees with the stated
/// geometry.
pub fn col2im_into(
    dst: &mut [f32],
    cols: &[f32],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Result<(), ShapeError> {
    let (ho, wo) = spec.output_hw(h, w);
    let k = spec.kernel;
    let ncols = n * ho * wo;
    if cols.len() != ci * k * k * ncols {
        return Err(ShapeError::new(
            "col2im_into",
            format!(
                "cols has {} elements, expected {}x{}",
                cols.len(),
                ci * k * k,
                ncols
            ),
        ));
    }
    if dst.len() != n * ci * h * w {
        return Err(ShapeError::new(
            "col2im_into",
            format!(
                "buffer has {} elements, expected {n}x{ci}x{h}x{w}",
                dst.len()
            ),
        ));
    }
    dst.fill(0.0);
    let src = cols;
    for b in 0..n {
        for c in 0..ci {
            let base = (b * ci + c) * h * w;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..wo {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (b * ho + oy) * wo + ox;
                            dst[base + iy * w + ix as usize] += src[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// 2-D convolution forward pass: `NCHW` input, `[c_out, c_in, k, k]`
/// weights, optional per-channel bias.
///
/// Implemented as `im2col` followed by a single GEMM, which is also how the
/// backward pass (in `alf-nn`) consumes the saved column matrix.
///
/// # Errors
///
/// Returns an error when ranks mismatch, the weight's `c_in` differs from
/// the input's, or `bias` (when given) is not `[c_out]`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    let [n, ci, h, w] = rank4("conv2d input", input)?;
    let [co, wci, kh, kw] = rank4("conv2d weight", weight)?;
    if wci != ci {
        return Err(ShapeError::new(
            "conv2d",
            format!("input channels {ci} vs weight channels {wci}"),
        ));
    }
    if kh != spec.kernel || kw != spec.kernel {
        return Err(ShapeError::new(
            "conv2d",
            format!("weight kernel {kh}x{kw} vs spec {}", spec.kernel),
        ));
    }
    if let Some(b) = bias {
        if b.dims() != [co] {
            return Err(ShapeError::new(
                "conv2d",
                format!("bias {} vs c_out {co}", b.shape()),
            ));
        }
    }
    let (ho, wo) = spec.output_hw(h, w);
    let cols = im2col(input, spec)?;
    let wmat = weight.reshape(&[co, ci * spec.kernel * spec.kernel])?;
    // [co, ci·k²] × [ci·k², n·ho·wo] → [co, n·ho·wo]
    let prod = matmul(&wmat, &cols)?;
    // Rearrange [co, n·ho·wo] → [n, co, ho, wo].
    let mut out = Tensor::zeros(&[n, co, ho, wo]);
    let pd = prod.data();
    let od = out.data_mut();
    let hw = ho * wo;
    for c in 0..co {
        let bias_v = bias.map_or(0.0, |b| b.data()[c]);
        for b in 0..n {
            let src = &pd[c * n * hw + b * hw..c * n * hw + (b + 1) * hw];
            let dst = &mut od[(b * co + c) * hw..(b * co + c + 1) * hw];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s + bias_v;
            }
        }
    }
    Ok(out)
}

fn rank4(op: &str, t: &Tensor) -> Result<[usize; 4], ShapeError> {
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
    use crate::init::Init;
    use crate::rng::Rng;

    /// Direct (slow) convolution used as a reference implementation.
    fn conv_reference(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, ci, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let co = weight.dims()[0];
        let k = spec.kernel;
        let (ho, wo) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, co, ho, wo]);
        for b in 0..n {
            for o in 0..co {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0;
                        for c in 0..ci {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[b, c, iy as usize, ix as usize])
                                        * weight.at(&[o, c, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[b, o, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_hw_matches_floor_formula() {
        assert_eq!(conv_output_hw(32, 32, 3, 1, 1), (32, 32));
        assert_eq!(conv_output_hw(32, 32, 3, 2, 1), (16, 16));
        assert_eq!(conv_output_hw(7, 7, 3, 1, 0), (5, 5));
        assert_eq!(conv_output_hw(224, 224, 7, 2, 3), (112, 112));
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn output_hw_rejects_tiny_input() {
        conv_output_hw(2, 2, 5, 1, 0);
    }

    #[test]
    fn gemm_conv_matches_reference() {
        let mut rng = Rng::new(7);
        for &(n, ci, co, h, k, s, p) in &[
            (1, 1, 1, 5, 3, 1, 1),
            (2, 3, 4, 8, 3, 1, 1),
            (1, 2, 3, 9, 3, 2, 1),
            (2, 4, 2, 6, 1, 1, 0),
            (1, 3, 5, 7, 5, 1, 2),
            (1, 2, 2, 8, 3, 2, 0),
        ] {
            let spec = Conv2dSpec::new(k, s, p);
            let x = Tensor::randn(&[n, ci, h, h], Init::Rand, &mut rng);
            let wt = Tensor::randn(&[co, ci, k, k], Init::Rand, &mut rng);
            let fast = conv2d(&x, &wt, None, spec).unwrap();
            let slow = conv_reference(&x, &wt, spec);
            assert!(
                fast.allclose(&slow, 1e-4),
                "case {n} {ci} {co} {h} {k} {s} {p}"
            );
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let wt = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let y = conv2d(&x, &wt, Some(&b), Conv2dSpec::new(1, 1, 0)).unwrap();
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 2, 0]), -2.0);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(conv2d(&x, &Tensor::zeros(&[4, 2, 3, 3]), None, spec).is_err());
        assert!(conv2d(&x, &Tensor::zeros(&[4, 3, 5, 5]), None, spec).is_err());
        let w_ok = Tensor::zeros(&[4, 3, 3, 3]);
        assert!(conv2d(&x, &w_ok, Some(&Tensor::zeros(&[3])), spec).is_err());
        assert!(conv2d(&Tensor::zeros(&[3, 8, 8]), &w_ok, None, spec).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the conv backward pass relies on.
        let mut rng = Rng::new(11);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, ci, h, w) = (2, 3, 7, 7);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, n, ci, h, w, spec).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let mut rng = Rng::new(19);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, ci, h, w) = (2, 3, 7, 7);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let mut cols_buf = vec![f32::NAN; cols.data().len()];
        im2col_into(&mut cols_buf, &x, spec).unwrap();
        assert_eq!(cols.data(), &cols_buf[..]);

        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let folded = col2im(&y, n, ci, h, w, spec).unwrap();
        let mut fold_buf = vec![f32::NAN; n * ci * h * w];
        col2im_into(&mut fold_buf, y.data(), n, ci, h, w, spec).unwrap();
        assert_eq!(folded.data(), &fold_buf[..]);
    }

    #[test]
    fn into_variants_validate_buffer_lengths() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(im2col_into(&mut [0.0; 3], &x, spec).is_err());
        assert!(col2im_into(&mut [0.0; 16], &[0.0; 3], 1, 1, 4, 4, spec).is_err());
        assert!(col2im_into(&mut [0.0; 5], &[0.0; 144], 1, 1, 4, 4, spec).is_err());
    }

    #[test]
    fn col2im_validates_shape() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let bad = Tensor::zeros(&[5, 5]);
        assert!(col2im(&bad, 1, 1, 4, 4, spec).is_err());
    }

    #[test]
    fn im2col_zero_padding_reads_zero() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&x, Conv2dSpec::new(3, 1, 1)).unwrap();
        // Corner output (0,0): only the 4 in-bounds taps are 1.
        let col0: f32 = (0..9).map(|r| cols.at(&[r, 0])).sum();
        assert_eq!(col0, 4.0);
    }

    #[test]
    fn pointwise_conv_is_channel_mix() {
        // 1x1 conv must equal a per-pixel matrix multiply over channels.
        let mut rng = Rng::new(13);
        let x = Tensor::randn(&[1, 3, 4, 4], Init::Rand, &mut rng);
        let wt = Tensor::randn(&[2, 3, 1, 1], Init::Rand, &mut rng);
        let y = conv2d(&x, &wt, None, Conv2dSpec::new(1, 1, 0)).unwrap();
        let expected = {
            let mut e = Tensor::zeros(&[1, 2, 4, 4]);
            for o in 0..2 {
                for c in 0..3 {
                    for p in 0..16 {
                        let (py, px) = (p / 4, p % 4);
                        *e.at_mut(&[0, o, py, px]) += wt.at(&[o, c, 0, 0]) * x.at(&[0, c, py, px]);
                    }
                }
            }
            e
        };
        assert!(y.allclose(&expected, 1e-5));
    }
}
