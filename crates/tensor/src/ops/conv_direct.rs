//! The pack-free route of [`conv_gemm_into`](super::conv_gemm_into):
//! stride-1 k×k convolutions on the explicit AVX2 tile of
//! `alf-gemm-kernels`, bit for bit the packed route.
//!
//! A code convolution has a handful of filters, so on the packed route
//! every value `pack_b_image` gathers, widens, stores and re-loads feeds
//! `m ≤ 8` multiply-adds and the layer is the packing. At stride 1 the
//! panel row a tap would be packed into is already contiguous in the image
//! — once the image has its zero border — so this route copies each image
//! once into a `[ci, h+2p, w+2p]` f32 scratch and lets the tile load its
//! operands from there (`ConvTile` describes the tile and why the bits
//! cannot differ). What is left to do here is bookkeeping, all of it on
//! named [`Workspace`] slots:
//!
//! * `conv_taps` — for tap `p = (c, ky, kx)` the offset `(c·hp + ky)·wp +
//!   kx` from an output pixel's top-left tap to that tap,
//! * `conv_wpanels` — the live weight rows in [`CONV_MR`]-row panels,
//!   `panel[p·CONV_MR + r]`, widened like every packed `A` panel,
//! * `conv_padded` — the bordered image, plus one row and two vectors of
//!   slack for the lanes a ragged tile computes and discards.
//!
//! The `KC` slab boundary of the blocked driver is kept: a tile is run
//! once per `KC` taps and adds into `C` each time, so an element's partial
//! sums are formed and added in exactly the packed order.

use alf_gemm_kernels::{ConvTile, Placement, TapOffsets, CONV_LANES, CONV_MR};

use super::conv::Conv2dSpec;
use super::gemm::{ActiveRows, Element, KC};
use super::workspace::Workspace;

/// `C = A · unfold(X)` for a stride-1 convolution, `rows` restricting it to
/// the surviving filters; every other row of `C` is zero. The caller
/// ([`conv_gemm_into`](super::conv_gemm_into)) has checked all lengths.
#[allow(clippy::too_many_arguments)] // conv_gemm_into's, plus the tile
pub(super) fn conv_direct_into<T: Element>(
    tile: ConvTile,
    c: &mut [T::Acc],
    a: &[T],
    x: &[T],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
) {
    debug_assert_eq!(spec.stride, 1);
    let [n, ci, h, w] = dims;
    let (kk, pad) = (spec.kernel, spec.pad);
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let (ho, wo) = spec.output_hw(h, w);
    let k = ci * kk * kk;
    let ncols = n * ho * wo;

    c.fill(T::Acc::default());
    let gather = rows.filter(|r| !r.is_all()).map(ActiveRows::indices);
    let live = gather.map_or(m, <[usize]>::len);
    if live == 0 || k == 0 || n == 0 {
        return;
    }
    let row_of = |i: usize| gather.map_or(i, |g| g[i]);

    let mut offsets: Vec<usize> = ws.take("conv_taps", k);
    for (p, o) in offsets.iter_mut().enumerate() {
        *o = (p / (kk * kk) * hp + p / kk % kk) * wp + p % kk;
    }
    let taps = TapOffsets::new(&offsets);

    // Lanes past the last live row of the last panel keep whatever the slot
    // held: a tile of `r` rows reads `r` lanes.
    let mut panels: Vec<f32> = ws.take("conv_wpanels", live.div_ceil(CONV_MR) * k * CONV_MR);
    for i in 0..live {
        let panel = &mut panels[i / CONV_MR * k * CONV_MR..][..k * CONV_MR];
        let src = &a[row_of(i) * k..][..k];
        for (lanes, &v) in panel.chunks_exact_mut(CONV_MR).zip(src) {
            lanes[i % CONV_MR] = v.widen();
        }
    }

    // `take` hands back what the last convolution on this workspace left,
    // another geometry's pixels included. Interiors are overwritten image
    // by image; the border and the slack are zeroed here, once.
    let plane = hp * wp;
    let mut padded: Vec<f32> = ws.take("conv_padded", ci * plane + wp + 2 * CONV_LANES);
    padded[ci * plane..].fill(0.0);
    if pad > 0 {
        for chan in padded[..ci * plane].chunks_exact_mut(plane) {
            // Top rows and the first row's left edge; each row's right edge
            // with the next row's left; the bottom rows.
            chan[..pad * wp + pad].fill(0.0);
            for y in 0..h {
                chan[(pad + y) * wp + pad + w..][..2 * pad].fill(0.0);
            }
            chan[(pad + h) * wp + pad..].fill(0.0);
        }
    }

    for b in 0..n {
        for (chan, src) in padded[..ci * plane]
            .chunks_exact_mut(plane)
            .zip(x[b * ci * h * w..][..ci * h * w].chunks_exact(h * w))
        {
            for (y, src_row) in src.chunks_exact(w).enumerate() {
                let dst_row = &mut chan[(pad + y) * wp + pad..][..w];
                for (d, &v) in dst_row.iter_mut().zip(src_row) {
                    *d = v.widen();
                }
            }
        }

        for (blk, panel) in panels.chunks_exact(k * CONV_MR).enumerate() {
            let r = CONV_MR.min(live - blk * CONV_MR);
            let mut crow = [0usize; CONV_MR];
            for (j, start) in crow[..r].iter_mut().enumerate() {
                *start = row_of(blk * CONV_MR + j) * ncols + b * ho * wo;
            }
            let mut run = |at: Placement| {
                for p0 in (0..k).step_by(KC) {
                    let p1 = k.min(p0 + KC);
                    let slab = &panel[p0 * CONV_MR..p1 * CONV_MR];
                    T::conv_tile(tile, taps.slab(p0..p1), slab, &padded, c, &crow[..r], at);
                }
            };
            if wo <= CONV_LANES {
                // Eight pixels of two output rows; an odd last row runs
                // with its partner's write-back off.
                for oy in (0..ho).step_by(2) {
                    run(Placement {
                        image: [oy * wp, (oy + 1) * wp],
                        col: [oy * wo, (oy + 1) * wo],
                        lanes: [wo, if oy + 1 < ho { wo } else { 0 }],
                    });
                }
            } else {
                // Sixteen pixels of one output row.
                for oy in 0..ho {
                    for ox in (0..wo).step_by(2 * CONV_LANES) {
                        let first = CONV_LANES.min(wo - ox);
                        let second = CONV_LANES.min(wo - ox - first);
                        run(Placement {
                            image: [oy * wp + ox, oy * wp + ox + CONV_LANES],
                            // `+ first`, not `+ CONV_LANES`: a second vector
                            // with nothing to write still needs a column
                            // inside `C`.
                            col: [oy * wo + ox, oy * wo + ox + first],
                            lanes: [first, second],
                        });
                    }
                }
            }
        }
    }

    ws.give("conv_taps", offsets);
    ws.give("conv_wpanels", panels);
    ws.give("conv_padded", padded);
}
