//! The pack-free route of [`conv_gemm_into`](super::conv_gemm_into):
//! convolutions of any stride — k×k code convolutions, strided ones and
//! 1×1 expansions alike — on the explicit AVX2 tile of `alf-gemm-kernels`,
//! bit for bit the packed route.
//!
//! A code convolution has a handful of filters, so on the packed route
//! every value `pack_b_image` gathers, widens, stores and re-loads feeds
//! `m ≤ 8` multiply-adds and the layer is the packing. At stride 1 the
//! panel row a tap would be packed into is already contiguous in the image
//! — once the image has its zero border — so this route copies each image
//! once into a bordered scratch and lets the tile load its operands from
//! there (`ConvTile` describes the tile and why the bits cannot differ).
//!
//! A stride `s` is made stride 1 by the layout of that copy: each channel
//! group's bordered plane (`hp × wp`, `hp = h+2p`, `wp = w+2p`) is stored
//! as `s²` phase planes of `hq × wq`, `hq = ⌈hp/s⌉`, `wq = ⌈wp/s⌉`. Phase
//! `(py, px)` holds the bordered pixels `(r·s + py, c·s + px)` at `(r, c)`,
//! so a tap of the output pixels `(oy, ox), (oy, ox+1), …` reads
//! consecutive pixels of one phase row, exactly as at stride 1. Tap `(grp,
//! ky, kx)` lies
//!
//! ```text
//! (((grp·s² + (ky % s)·s + kx % s)·hq + ky/s)·wq + kx/s)·G
//! ```
//!
//! elements past output pixel `(oy, ox)`'s origin `(oy·wq + ox)·G`.
//! Stride 1 is the case `s = 1`, `hq = hp`, `wq = wp`: one phase, the
//! plain bordered image. Neither the tile, nor the weight panels, nor the
//! tap order changes with the stride.
//!
//! One loop serves both element types, written over the channel group
//! `G = T::GROUP` the element declares: each pixel of the scratch holds
//! `G` channels side by side, of `T::Lane`. For f32 (`G = 1`) a tap is one
//! `(c, ky, kx)`. For int8 (`G = 2`) the pixel is an i16 channel pair — an
//! odd last channel beside a zero — a tap is one `(pair, ky, kx)`, and the
//! tile's `vpmaddwd` consumes both channels of a tap at once, in i32, with
//! no f32 lane anywhere. What is left to do here is bookkeeping, all of it
//! on named [`Workspace`] slots:
//!
//! * `conv_taps` — the offset above for each tap `p = (grp, ky, kx)`, over
//!   `⌈ci/G⌉·k²` taps,
//! * `conv_wpanels` — the live weight rows in [`CONV_MR`]-row panels,
//!   `panel[p·CONV_MR + r]`, each lane one `T::Weight` (a group's `G`
//!   weights, packed by `T::pack_weight`),
//! * `conv_padded` — the phase planes, plus one phase row and two vectors
//!   of slack for the lanes a ragged tile computes and discards; zeroed
//!   once per call, after which each image writes only its own pixels.
//!
//! The `KC` slab boundary of the blocked driver is kept: a tile is run
//! once per `KC` taps and adds into `C` each time, so an f32 element's
//! partial sums are formed and added in exactly the packed order (an
//! integer one is exact in any order).

use alf_gemm_kernels::{ConvTile, Placement, TapOffsets, CONV_LANES, CONV_MR};

use super::conv::Conv2dSpec;
use super::gemm::{ActiveRows, Element, KC};
use super::workspace::Workspace;

/// `C = A · unfold(X)` for a convolution, `rows` restricting it to the
/// surviving filters; every other row of `C` is zero. The caller
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
    let [n, ci, h, w] = dims;
    let (kk, s, pad) = (spec.kernel, spec.stride, spec.pad);
    let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
    let (ho, wo) = spec.output_hw(h, w);
    let (g, k2) = (T::GROUP, kk * kk);
    let groups = ci.div_ceil(g);
    let k = ci * k2;
    let ntaps = groups * k2;
    let ncols = n * ho * wo;

    c.fill(T::Acc::default());
    let gather = rows.filter(|r| !r.is_all()).map(ActiveRows::indices);
    let live = gather.map_or(m, <[usize]>::len);
    if live == 0 || k == 0 || n == 0 {
        return;
    }
    let row_of = |i: usize| gather.map_or(i, |ix| ix[i]);
    // Channels of group `grp` that exist: `G`, or fewer in an odd last one.
    let channels = |grp: usize| g.min(ci - grp * g);

    let mut offsets: Vec<usize> = ws.take("conv_taps", ntaps);
    for (p, o) in offsets.iter_mut().enumerate() {
        let (grp, ky, kx) = (p / k2, p / kk % kk, p % kk);
        let phase = (grp * s + ky % s) * s + kx % s;
        *o = ((phase * hq + ky / s) * wq + kx / s) * g;
    }
    let taps = TapOffsets::new(&offsets);

    // Lanes past the last live row of the last panel keep whatever the slot
    // held: a tile of `r` rows reads `r` lanes.
    let mut panels: Vec<T::Weight> =
        ws.take("conv_wpanels", live.div_ceil(CONV_MR) * ntaps * CONV_MR);
    for i in 0..live {
        let panel = &mut panels[i / CONV_MR * ntaps * CONV_MR..][..ntaps * CONV_MR];
        let src = &a[row_of(i) * k..][..k];
        for (p, lanes) in panel.chunks_exact_mut(CONV_MR).enumerate() {
            let grp = p / k2;
            let first = &src[grp * g * k2 + p % k2..];
            lanes[i % CONV_MR] = T::pack_weight(first, k2, channels(grp));
        }
    }

    // `take` hands back what the last convolution on this workspace left,
    // another geometry's pixels included. The border, the ragged phase
    // cells and the slack are zeroed here, once; each image then
    // overwrites only the interior pixels, which are the same cells for
    // every image.
    let row_len = wq * g;
    let plane = s * s * hq * row_len;
    let mut padded: Vec<T::Lane> =
        ws.take("conv_padded", groups * plane + row_len + 2 * CONV_LANES * g);
    padded.fill(T::Lane::default());

    // The phase coordinates `r` (or `c`) of phase `ph` whose bordered
    // pixel `r·s + ph` lies inside an image side of `len` pixels.
    let interior = |ph: usize, len: usize| {
        (pad.saturating_sub(ph).div_ceil(s))..((pad + len).saturating_sub(ph).div_ceil(s))
    };
    for b in 0..n {
        let image = &x[b * ci * h * w..][..ci * h * w];
        for (grp, chan) in padded[..groups * plane].chunks_exact_mut(plane).enumerate() {
            let src = &image[grp * g * h * w..];
            for (phase, rows) in chan.chunks_exact_mut(hq * row_len).enumerate() {
                let (py, px) = (phase / s, phase % s);
                let cols = interior(px, w);
                if cols.is_empty() {
                    continue;
                }
                for r in interior(py, h) {
                    let from = &src[(r * s + py - pad) * w + cols.start * s + px - pad..];
                    let dst = &mut rows[r * row_len..][cols.start * g..cols.end * g];
                    T::interleave(dst, from, s, h * w, channels(grp));
                }
            }
        }

        for (blk, panel) in panels.chunks_exact(ntaps * CONV_MR).enumerate() {
            let r = CONV_MR.min(live - blk * CONV_MR);
            let mut crow = [0usize; CONV_MR];
            for (j, start) in crow[..r].iter_mut().enumerate() {
                *start = row_of(blk * CONV_MR + j) * ncols + b * ho * wo;
            }
            let mut run = |at: Placement| {
                for p0 in (0..ntaps).step_by(KC) {
                    let p1 = ntaps.min(p0 + KC);
                    let slab = &panel[p0 * CONV_MR..p1 * CONV_MR];
                    T::conv_tile(tile, taps.slab(p0..p1), slab, &padded, c, &crow[..r], at);
                }
            };
            if wo <= CONV_LANES {
                // Eight pixels of two output rows; an odd last row runs
                // with its partner's write-back off.
                for oy in (0..ho).step_by(2) {
                    run(Placement {
                        image: [oy * row_len, (oy + 1) * row_len],
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
                            image: [(oy * wq + ox) * g, (oy * wq + ox + CONV_LANES) * g],
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
