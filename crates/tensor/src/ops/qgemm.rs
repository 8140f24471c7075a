//! Int8 entry points.
//!
//! The quantized deployment path runs convolutions as `i8×i8→i32`
//! products: weights and activations are symmetric int8, accumulation is
//! exact in i32, and requantization back to i8 happens on store
//! ([`requantize_into`], called by `alf-core::qmodel`, where the scales
//! live). Nothing here re-implements blocking or unfolding. The engine's
//! convolutions, strided code convs and 1×1 expansions included, are the
//! `i8` instantiation of [`conv_gemm_into`]: the pack-free tile multiplies
//! i16 channel pairs with `vpmaddwd` into i32 lanes (a scalar loop in i32
//! where the host lacks AVX2), exact in any order because integer sums
//! are. [`gemm_i8_into`] is that route's 1×1
//! convolution: an `[m, k]·[k, n]` product is one `k`-channel, `1×n` image
//! under `m` filters. [`im2col_i8_into`] enters the one unfold loop in
//! `conv.rs` with an `i8` buffer; with [`gemm_i8_into`] it is the unfolded
//! route the convolution is property-tested against. The store that maps
//! the i32 accumulators back to i8 is defined here too: [`requantize`] is
//! the scalar definition, [`requantize_into`] the run-of-a-channel store
//! the engine calls.
//!
//! The int8 product runs on one thread: the shapes the int8 path runs
//! (`m = c_out ≤ 64` for Plain-20) never span more than one
//! [`MC`](super::gemm::MC) row block, the unit the route splits across
//! workers. Serving-level parallelism comes from replica workers instead.

use super::conv::unfold;
use super::workspace::Workspace;
use super::{conv_gemm_into, Conv2dSpec};

/// `C = A · B` for int8 operands with exact i32 accumulation.
///
/// `A` is `[m, k]` row-major i8, `B` is `[k, n]` row-major i8, `C` is
/// `[m, n]` row-major i32 and is fully overwritten. The product is the
/// convolution route's 1×1 convolution of one `k`-channel, `1×n` image
/// (`B`) under `m` filters (`A`), whose `[1, m, 1, n]` output is `C`.
/// Scratch comes from `ws`, so steady-state calls are allocation-free.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions.
pub fn gemm_i8_into(
    c: &mut [i32],
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    assert_eq!(c.len(), m * n, "gemm_i8: C buffer is not [{m}x{n}]");
    assert_eq!(a.len(), m * k, "gemm_i8: A buffer is not [{m}x{k}]");
    assert_eq!(b.len(), k * n, "gemm_i8: B buffer is not [{k}x{n}]");
    if m == 0 || k == 0 || n == 0 {
        c.fill(0);
        return;
    }
    let spec = Conv2dSpec::new(1, 1, 0);
    conv_gemm_into::<i8>(c, a, b, m, [1, k, 1, n], spec, None, ws, 1);
}

/// [`im2col_into`](super::im2col_into) for int8 activations: unfolds an
/// `NCHW` i8 buffer into the `[ci·k·k, n·h_out·w_out]` column matrix
/// [`gemm_i8_into`] consumes. Out-of-bounds taps read as exact zero — in
/// symmetric quantization the zero point *is* 0, so padding needs no
/// offset handling.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated geometry.
#[allow(clippy::too_many_arguments)] // mirrors the f32 im2col geometry args
pub fn im2col_i8_into(
    dst: &mut [i8],
    src: &[i8],
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) {
    let (ho, wo) = spec.output_hw(h, w);
    let rows = ci * spec.kernel * spec.kernel;
    assert_eq!(src.len(), n * ci * h * w, "im2col_i8: bad input length");
    assert_eq!(
        dst.len(),
        rows * n * ho * wo,
        "im2col_i8: bad buffer length"
    );
    unfold(dst, src, n, ci, h, w, spec);
}

/// Maps one i32 accumulator back to the next layer's i8 grid: dequantize
/// (`acc · s_in · s_w`), add bias, optional ReLU, then round into `s_out`
/// steps. The rounding is the branch-free `+±0.5`-then-truncate form of
/// round-half-away-from-zero, which the vector store reproduces lane for
/// lane where `f32::round` would be a libm call. It is **not**
/// `f32::round` on every input: the `+ 0.5` is itself rounded, so the one
/// f32 just below a half (`0.5 − 2⁻²⁵`, and its mirror) sums to exactly
/// `1.0` and lands on 1 where `round` gives 0. This function is the int8 engine's definition of
/// the store — calibration, the serving oracle and the benchmark compare
/// the engine with itself, and [`requantize_into`]'s vector body is tested
/// against it element for element — so the arithmetic stays and a unit
/// test pins the edge.
#[inline(always)]
pub fn requantize(acc: i32, deq: f32, bias: f32, relu: bool, inv_out: f32) -> i8 {
    let mut v = acc as f32 * deq + bias;
    if relu {
        v = v.max(0.0);
    }
    let r = v * inv_out;
    let half = if r >= 0.0 { 0.5 } else { -0.5 };
    (r + half).clamp(-127.0, 127.0) as i8
}

/// `out[i] = requantize(acc[i], deq, bias, relu, inv_out)` for every `i`:
/// the int8 engine's store of one output channel's run of accumulators.
///
/// On an AVX2 host the explicit vector store of `alf-gemm-kernels`
/// (`ConvTile::requantize_into`, bit for bit [`requantize`]) takes every
/// whole 32-element block, and [`requantize`] stores the tail; elsewhere
/// [`requantize`] stores everything.
///
/// # Panics
///
/// Panics when `out` and `acc` differ in length.
pub fn requantize_into(out: &mut [i8], acc: &[i32], deq: f32, bias: f32, relu: bool, inv_out: f32) {
    assert_eq!(
        out.len(),
        acc.len(),
        "requantize: {} outputs for {} accumulators",
        out.len(),
        acc.len()
    );
    #[cfg(target_arch = "x86_64")]
    let done = alf_gemm_kernels::ConvTile::detect().map_or(0, |tile| {
        tile.requantize_into(out, acc, deq, bias, relu, inv_out)
    });
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (o, &a) in out[done..].iter_mut().zip(&acc[done..]) {
        *o = requantize(a, deq, bias, relu, inv_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{KC, MC, NC};

    /// `requantize` of the real value `r` on a unit output grid.
    fn store(r: f32) -> i8 {
        requantize(0, 1.0, r, false, 1.0)
    }

    #[test]
    fn requantize_rounds_half_away_from_zero_and_saturates() {
        for (r, want) in [
            (0.0, 0),
            (0.49, 0),
            (0.5, 1),
            (-0.5, -1),
            (2.5, 3),
            (-2.5, -3),
            (126.4, 126),
            (1e6, 127),
            (-1e6, -127),
        ] {
            assert_eq!(store(r), want, "{r}");
        }
        assert_eq!(
            requantize(-7, 0.5, 1.0, true, 2.0),
            0,
            "ReLU before rounding"
        );
        assert_eq!(requantize(7, 0.5, 1.0, false, 2.0), 9);
    }

    #[test]
    fn requantize_differs_from_f32_round_just_below_a_half() {
        // 0.5 − 2⁻²⁵ is the largest f32 below a half; adding 0.5 lands
        // midway between 1 − 2⁻²⁴ and 1.0 and ties to even, 1.0.
        let below_half = 0.5 - 2.0f32.powi(-25);
        assert!(below_half < 0.5);
        assert_eq!(below_half.round(), 0.0);
        assert_eq!(store(below_half), 1);
        assert_eq!(store(-below_half), -1);
        // One step further from the half the two agree again.
        let next = f32::from_bits(below_half.to_bits() - 1);
        assert_eq!(store(next), 0);
    }

    fn reference_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p] as i32;
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j] as i32;
                }
            }
        }
        c
    }

    fn operands(m: usize, k: usize, n: usize) -> (Vec<i8>, Vec<i8>) {
        // Walks the full i8 range including ±127 and -128.
        let a: Vec<i8> = (0..m * k)
            .map(|i| ((i * 61 + 7) % 256) as u8 as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| ((i * 149 + 3) % 256) as u8 as i8)
            .collect();
        (a, b)
    }

    #[test]
    fn blocked_i8_gemm_is_bitwise_equal_to_scalar_reference() {
        // Integer math must be exact, not approximate: every shape —
        // including ones that straddle MC/KC/NC block boundaries and
        // ragged MR/NR edges — must match the triple loop bit for bit.
        let mut ws = Workspace::new();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (7, 9, 11),
            (17, 33, 5),
            (64, 27, 1024 + 9),
            (MC + 5, KC + 3, 40),
            // Several MC blocks in one packed row range, ragged in all
            // three blocking dimensions at once.
            (2 * MC + 3, KC + 3, NC + 9),
        ] {
            let (a, b) = operands(m, k, n);
            let mut c = vec![-7i32; m * n];
            gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
            assert_eq!(c, reference_i8(&a, &b, m, k, n), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn degenerate_dims_zero_the_output() {
        let mut ws = Workspace::new();
        let mut c = vec![9i32; 6];
        gemm_i8_into(&mut c, &[], &[], 2, 0, 3, &mut ws);
        assert_eq!(c, vec![0; 6]);
        gemm_i8_into(&mut [], &[], &[1, 2], 0, 1, 2, &mut ws);
        gemm_i8_into(&mut [], &[1, 2], &[], 2, 1, 0, &mut ws);
    }

    #[test]
    fn workspace_reuse_is_allocation_free_after_warmup() {
        let (m, k, n) = (24, 30, 50);
        let (a, b) = operands(m, k, n);
        let mut ws = Workspace::new();
        let mut c = vec![0i32; m * n];
        gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
        let warm = ws.alloc_events();
        ws.freeze();
        for _ in 0..5 {
            gemm_i8_into(&mut c, &a, &b, m, k, n, &mut ws);
        }
        assert_eq!(ws.alloc_events(), warm);
        ws.thaw();
    }

    #[test]
    fn i8_im2col_matches_f32_im2col_on_common_values() {
        // Quantize-then-unfold must equal unfold-then-quantize; checking
        // against the f32 im2col on integer-valued data pins the layout.
        use crate::Tensor;
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, ci, h, w) = (2, 3, 7, 7);
        let vals: Vec<i8> = (0..n * ci * h * w)
            .map(|i| (((i * 23) % 200) as i32 - 100) as i8)
            .collect();
        let xf =
            Tensor::from_vec(vals.iter().map(|&v| v as f32).collect(), &[n, ci, h, w]).unwrap();
        let colsf = super::super::im2col(&xf, spec).unwrap();
        let mut cols8 = vec![0i8; colsf.data().len()];
        im2col_i8_into(&mut cols8, &vals, n, ci, h, w, spec);
        for (q, &f) in cols8.iter().zip(colsf.data()) {
            assert_eq!(*q as f32, f);
        }
    }
}
