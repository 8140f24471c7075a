//! Int8 entry points into the shared kernel layer.
//!
//! The quantized deployment path runs convolutions as `i8×i8→i32` matrix
//! products: weights and activations are symmetric int8, accumulation is
//! exact in i32, and requantization back to i8 happens on store (in
//! `alf-core::qmodel`, where the scales live). Nothing here re-implements
//! blocking or unfolding: [`gemm_i8_into`] enters the one blocked driver
//! in [`gemm`](super::gemm) with `i8` operands, and [`im2col_i8_into`]
//! enters the one unfold loop in `conv.rs` with an `i8` buffer. (The
//! engine itself no longer unfolds: its k×k convolutions are the `i8`
//! instantiation of [`conv_gemm_into`](super::conv_gemm_into) — the
//! stride-1 ones on the pack-free AVX2 tile, the rest on the driver's
//! image packer; the pair here is the packed route on an unfolded matrix,
//! which is what that entry is property-tested against, bit for bit.)
//!
//! What the driver's element trait does for `i8`: the packers widen each
//! value into an f32 panel lane, the register tile
//! (`alf_gemm_kernels::microkernel_i8_into`, isolated in its own crate for
//! the same codegen reason as the f32 tile; `ConvTile::i8_into` on the
//! direct convolution route, where the widening happens once, as the image
//! is copied) accumulates those lanes in
//! f32, and the write-back converts to the i32 `C`. That is *exact*, not
//! approximate: every product of two i8 values has magnitude ≤ 127², and
//! a packed panel is at most [`KC`](super::gemm::KC) deep, so every
//! partial sum inside a tile stays below `KC · 127² < 2²⁴`, where f32
//! represents every integer. Sums across `KC` slabs are added in i32. The
//! result is therefore bit-identical to a naive i32 triple loop by
//! construction; there is no evaluation-order subtlety to defend, only
//! cache behaviour.
//!
//! The int8 product runs on one thread with identity gathers on purpose:
//! the conv shapes the int8 path runs (`m = c_out ≤ 64` for Plain-20)
//! never span more than one [`MC`](super::gemm::MC) row block, which is
//! exactly the unit the driver partitions across workers — the f32 path
//! runs these shapes on one thread too. Serving-level parallelism comes
//! from replica workers instead.

use super::conv::unfold;
use super::gemm::{gemm_driver, BOperand, Gather};
use super::workspace::Workspace;
use super::Conv2dSpec;

/// `C = A · B` for int8 operands with exact i32 accumulation.
///
/// `A` is `[m, k]` row-major i8, `B` is `[k, n]` row-major i8, `C` is
/// `[m, n]` row-major i32 and is fully overwritten. Packing panels come
/// from `ws` (the driver's f32 `gemm_apack` / `gemm_bpack` slots — the i8
/// values are widened at pack time), so steady-state calls are
/// allocation-free.
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
    let b = BOperand::Matrix { data: b, tb: false };
    gemm_driver(c, a, false, b, m, k, n, ws, 1, Gather::dense(m, k));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{KC, MC, NC};

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
