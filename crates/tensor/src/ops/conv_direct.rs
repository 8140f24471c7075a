//! The convolution products, each on one route at every stride, pad and
//! width: the forward [`conv_gemm_into`], f32 and int8, the training weight
//! gradient [`conv_weight_grad_into`] and the input gradient
//! [`conv_input_grad_into`] — bit for bit the unfolded product (`im2col` +
//! the blocked driver, `col2im` for the input gradient) each replaces. The
//! [`Element`] trait describes what the route is generic over, and the
//! int8 matrix product ([`gemm_i8_into`](super::gemm_i8_into)) is this
//! route's 1×1 convolution. All three speak the layer's `NCHW`
//! layout: the input and its gradient are `[n, ci, h, w]`, the output and
//! its gradient `[n, m, ho, wo]`, so a layer neither copies nor reorders
//! what it hands in or gets back.
//!
//! A code convolution has a handful of filters, so packing its image into
//! `B` panels would be the layer: every value gathered, converted, stored
//! and re-loaded feeds `m ≤ 8` multiply-adds. At stride 1 the panel row a tap
//! would be packed into is already contiguous in the image — once the
//! image has its zero border — so these routes copy each image once into a
//! bordered scratch and let the tile load its operands from there
//! (`ConvTile` describes the tiles and why the bits cannot differ).
//!
//! A stride `s` is made stride 1 by the layout of that copy ([`Border`]):
//! each channel group's bordered plane (`hp × wp`, `hp = h+2p`, `wp =
//! w+2p`) is stored as `s²` phase planes of `hq × wq`, `hq = ⌈hp/s⌉`, `wq
//! = ⌈wp/s⌉`. Phase `(py, px)` holds the bordered pixels `(r·s + py, c·s +
//! px)` at `(r, c)`, so a tap of the output pixels `(oy, ox), (oy, ox+1),
//! …` reads consecutive pixels of one phase row, exactly as at stride 1.
//! Tap `(grp, ky, kx)` lies
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
//! One copy loop serves both element types, written over the channel
//! group `G = T::GROUP` the element declares: each pixel of the scratch
//! holds `G` channels side by side, of `T::Lane`. For f32 (`G = 1`) a tap
//! is one `(c, ky, kx)`. For int8 (`G = 2`) the pixel is an i16 channel
//! pair — an odd last channel beside a zero — a tap is one `(pair, ky,
//! kx)`, and the tile's `vpmaddwd` consumes both channels of a tap at once,
//! in i32, with no f32 lane anywhere. What is left to do here is
//! bookkeeping, all of it on named [`Workspace`] slots the three products
//! share:
//!
//! * `conv_taps` — the offset above for each tap,
//! * `conv_wpanels` — the live weight rows in [`CONV_MR`]-row panels,
//!   `panel[p·CONV_MR + r]`, each lane one `T::Weight` (a group's `G`
//!   weights, packed by `T::pack_weight`),
//! * `conv_padded` — the phase planes, plus one phase row and two vectors
//!   of slack for the lanes a ragged tile computes and discards; zeroed
//!   once per call, after which each image writes only its own pixels.
//!
//! **Kernels.** Every block runs on a [`Kernel`]: the explicit AVX2 tiles
//! of `alf-gemm-kernels`, or, on a host without AVX2, the scalar lane —
//! the tiles' per-element operation sequence one element at a time (f32:
//! an accumulator from `+0.0`, a separate multiply and add per tap, added
//! into `C` once per call; int8: exact i32 sums). Both read the same
//! scratch through the same bookkeeping, so nothing but the speed depends
//! on the host.
//!
//! **Workers.** When the filters of a product — the forward's live rows,
//! the input gradient's input channels, the weight gradient's live rows —
//! span more than one `MC` block, whole filter blocks are split across
//! scoped workers ([`for_chunks`]), each owning its rows of an image's
//! output. A gathered forward row set is computed into a compact buffer
//! (`conv_rows_c`) and scattered afterwards. Each element is summed by one
//! worker in one order, so the bits do not depend on `threads`.
//!
//! **Forward.** The `KC` slab boundary of the blocked driver is kept: a
//! tile is run once per `KC` taps and adds into `C` each time, so an f32
//! element's partial sums are formed and added in exactly the unfolded
//! product's order (an integer one is exact in any order).
//!
//! **Input gradient, every stride** ([`input_grad_into`]). `dX =
//! col2im(Wᵀ·G)` is a set of forward convolutions in disguise, one per
//! input phase. An input pixel at bordered position `(Y, X) = (iy+p,
//! ix+p)` has phase `(py, px) = (Y mod s, X mod s)` and phase coordinate
//! `(qy, qx) = (Y div s, X div s)`; its taps are `ky = py + jy·s` for `jy <
//! ⌈(k−py)/s⌉` (columns likewise), and tap `jy` reads the output gradient
//! at row `qy − jy`. So each phase is a stride-1 convolution whose filters
//! are the input channels, whose image is the output gradient of the live
//! output channels under a zero border, and whose weights are the
//! sub-kernel `W[.., py + jy·s, px + jx·s]` transposed and flipped; it is
//! cropped to the phase pixels inside the image. A phase without taps (a
//! 1×1 kernel's odd phases at stride 2) stays zero. The taps run `(jy,
//! jx)` ascending outer — which is `(ky, kx)` ascending — and live `co`
//! inner, and the tile runs once per spatial tap, so each tap's `Σ_co` is
//! formed from `+0.0` in ascending `co` and added into `dX` on its own in
//! ascending `(ky, kx)`: the order in which `col2im` adds the rows of
//! `Wᵀ·G`. (The blocked driver flushes `Σ_co` per `KC` slab, so past `KC`
//! live channels it differs from this one sum.) The border taps `col2im`
//! skips here add `Σ_co w·0 = +0.0`, which changes nothing: the sum starts
//! at `+0.0`, so it is never `−0.0` (for finite weights). At stride 1 the
//! one phase is the image, written in place; at stride `s ≥ 2` each phase
//! is written into `conv_phase` and copied to its pixels of `dX`.
//!
//! **Weight gradient, every stride** ([`weight_grad_into`]). The batch is
//! bordered whole, one image after another, so that a `KC` slab of pixels
//! may cross an image boundary as the unfolded product's does; `conv_pixels`
//! holds each output pixel's origin, and `conv_grad_lanes` the output
//! gradient pixel-major in blocks of [`CONV_LANES`] live channels. The
//! weight-gradient tile then sums each `(co, tap)` element over one `KC`
//! slab of pixels in `(b, oy, ox)` order per call and adds it into
//! `conv_grad_acc` — the per-element sequence of the packed
//! `G · unfold(X)ᵀ`.

#[cfg(target_arch = "x86_64")]
use alf_gemm_kernels::ConvTile;
use alf_gemm_kernels::{Placement, TapOffsets, CONV_GRAD_TAPS, CONV_LANES, CONV_MR};

use super::conv::Conv2dSpec;
use super::gemm::{workers, ActiveRows, KC};
use super::workspace::Workspace;
use std::ops::Range;

/// Convolution as one GEMM, with the im2col matrix never materialised:
/// `C = A · unfold(X)` where `A` is the `[m, ci·k²]` weight matrix, `X` the
/// `NCHW` input (`dims = [n, ci, h, w]`) and `C` the `NCHW` output `[n, m,
/// h_out, w_out]`: row `row` of image `b` starts at `(b·m + row)·h_out·w_out`.
/// `rows` restricts the product to the surviving filters exactly as
/// [`gemm_active_rows_into`](super::gemm_active_rows_into) does; the
/// others are written as zero.
///
/// Every bit of an f32 `C` is that of `im2col_into` +
/// [`gemm_into`](super::gemm_into), whose `[m, n·h_out·w_out]` product
/// holds the same elements image by image, at any stride and kernel (1×1
/// included), without that driver: no `B` is packed. An `i8` `C` is the
/// exact i32 product. Each image is copied once into a zero-bordered
/// scratch (f32, or i16 channel pairs for `i8`), split into phase planes at
/// stride `s` so that every stride reads it as stride 1 does, and the
/// explicit tile of `alf-gemm-kernels` reads it in place — or, on a host
/// without AVX2, a scalar loop in the tile's per-element order (see the
/// module docs). When the live rows span more than one
/// [`MC`](super::gemm::MC) block, `threads` splits each image's rows across
/// workers in whole filter blocks, so the bits do not depend on `threads`.
///
/// Every convolution forward uses it: training, eval, the statistics pass
/// and int8. A training step's backward reads the same image through
/// [`conv_weight_grad_into`] and [`conv_input_grad_into`].
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions,
/// `rows` does not cover `m` rows, or the padded input is smaller than the
/// kernel.
#[allow(clippy::too_many_arguments)] // gemm signature plus the conv geometry
pub fn conv_gemm_into<T: Element>(
    c: &mut [T::Acc],
    a: &[T],
    x: &[T],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let (k, ncols) = unfolded(x.len(), dims, spec, "conv_gemm");
    assert_eq!(a.len(), m * k, "conv_gemm: A buffer is not [{m}x{k}]");
    assert_eq!(
        c.len(),
        m * ncols,
        "conv_gemm: C buffer is not [n x {m} x ho x wo]"
    );
    if let Some(rows) = rows {
        assert_eq!(
            rows.total(),
            m,
            "conv_gemm: descriptor covers {} rows, A has {m}",
            rows.total()
        );
    }
    conv_direct_into(Kernel::detect(), c, a, x, m, dims, spec, rows, ws, threads);
}

/// The weight gradient of a convolution, with the im2col matrix never
/// materialised: `C = G · unfold(X)ᵀ` where `G` is the `NCHW` output
/// gradient `[n, m, h_out, w_out]`, `X` the `NCHW` input (`dims = [n, ci,
/// h, w]`) and `C` the `[m, ci·k²]` gradient of the weight matrix. `rows`
/// restricts the product to the surviving filters exactly as
/// [`gemm_active_rows_into`](super::gemm_active_rows_into) does; the
/// others are written as zero.
///
/// Every bit of `C` is that of `im2col_into` followed by
/// `gemm_into(c, g, false, cols, true, ..)` (or `gemm_active_rows_into(..,
/// tb = true)` on `rows`) with `G` unfolded to `[m, n·h_out·w_out]`, at
/// every stride, without that driver: the
/// weight-gradient tile of `alf-gemm-kernels` (lanes over live output
/// channels, accumulators over taps) reads a zero-bordered, phase-split
/// copy of the batch and a pixel-major copy of `G`, and sums each element
/// over the pixels in the unfolded product's order with the same [`KC`]
/// flushes (see the module docs). Hosts without AVX2 run a scalar loop in
/// that order. The work follows the live rows: a block of up to eight
/// costs one channel vector. When the live rows span more than one
/// [`MC`](super::gemm::MC) block, `threads` splits them across workers,
/// each computing whole elements, so the bits do not depend on `threads`.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions,
/// `rows` does not cover `m` rows, or the padded input is smaller than the
/// kernel.
#[allow(clippy::too_many_arguments)] // gemm signature plus the conv geometry
pub fn conv_weight_grad_into(
    c: &mut [f32],
    g: &[f32],
    x: &[f32],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let (taps, ncols) = unfolded(x.len(), dims, spec, "conv_weight_grad");
    assert_eq!(
        g.len(),
        m * ncols,
        "conv_weight_grad: G buffer is not [n x {m} x ho x wo]"
    );
    assert_eq!(
        c.len(),
        m * taps,
        "conv_weight_grad: C buffer is not [{m}x{taps}]"
    );
    if let Some(rows) = rows {
        assert_eq!(
            rows.total(),
            m,
            "conv_weight_grad: descriptor covers {} rows, G has {m}",
            rows.total()
        );
    }
    weight_grad_into(Kernel::detect(), c, g, x, m, dims, spec, rows, ws, threads);
}

/// The input gradient of a convolution: `dX = col2im(Aᵀ · G)`, where `A`
/// is the `[m, ci·k²]` weight matrix, `G` the `[n, m, h_out, w_out]` output
/// gradient and `dX` the `NCHW` gradient of the input (`dims = [n, ci, h,
/// w]`), fully overwritten. `rows` lists the output channels that survive
/// a clipped mask; the caller guarantees the other rows of `A` are zero,
/// and their terms are skipped.
///
/// No column matrix is formed, at any stride, pad or width: each of the
/// `s²` input phases is a stride-1 convolution of the bordered output
/// gradient with the flipped, transposed sub-kernel of its taps, run on the
/// forward tile (or its scalar loop without AVX2) once per spatial tap (see
/// the module docs). Each element of `dX` adds its taps in ascending `(ky,
/// kx)`, each tap's `Σ_co` formed from `+0.0` over the live channels in
/// ascending order: for finite weights and at most [`KC`] live channels
/// every bit is that of `gemm_into(Aᵀ, G)` (or `gemm_active_k_into` on
/// `rows`) followed by `col2im`. Past `KC` live channels a tap's `Σ_co` is
/// one sum where the blocked driver would flush it per `KC` slab. When the
/// input channels span more than one [`MC`](super::gemm::MC) block,
/// `threads` splits them across workers, so the bits do not depend on
/// `threads`.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions,
/// `rows` does not cover `m` rows, or the padded input is smaller than the
/// kernel.
#[allow(clippy::too_many_arguments)] // gemm signature plus the conv geometry
pub fn conv_input_grad_into(
    dx: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let (k, ncols) = unfolded(dx.len(), dims, spec, "conv_input_grad");
    assert_eq!(a.len(), m * k, "conv_input_grad: A buffer is not [{m}x{k}]");
    assert_eq!(
        g.len(),
        m * ncols,
        "conv_input_grad: G buffer is not [n x {m} x ho x wo]"
    );
    if let Some(rows) = rows {
        assert_eq!(
            rows.total(),
            m,
            "conv_input_grad: descriptor covers {} rows, A has {m}",
            rows.total()
        );
    }
    input_grad_into(Kernel::detect(), dx, a, g, m, dims, spec, rows, ws, threads);
}

/// The shape `(ci·k², n·ho·wo)` of the matrix im2col would unfold the
/// `NCHW` input of `dims` into under `spec`.
///
/// # Panics
///
/// Panics, naming `op`, when the input's length `len` does not hold
/// `dims`, or when the padded input is smaller than the kernel.
fn unfolded(len: usize, dims: [usize; 4], spec: Conv2dSpec, op: &str) -> (usize, usize) {
    let [n, ci, h, w] = dims;
    assert_eq!(len, n * ci * h * w, "{op}: X is not {dims:?}");
    let (ho, wo) = spec.output_hw(h, w);
    (ci * spec.kernel * spec.kernel, n * ho * wo)
}

/// What the convolution route is generic over: the operand element type.
///
/// An element says what `C` accumulates in, and how the route lays it
/// out: a bordered image of its own lane type,
/// [`GROUP`](Element::GROUP) channels interleaved per pixel, read against
/// weights packed one [`Weight`](Element::Weight) per channel group, and
/// which tile of `alf-gemm-kernels` multiplies them. Implemented for `f32`
/// and `i8`; public only so that [`conv_gemm_into`] can name it.
pub trait Element: Copy + Sync {
    /// Element type of `C`.
    type Acc: Copy + Default + std::ops::AddAssign + Send + Sync + 'static;

    /// Channels one pixel of the convolution route's bordered image holds
    /// side by side: 1 for `f32`, 2 for `i8` (one `vpmaddwd` pair).
    const GROUP: usize;

    /// Element type of the convolution route's bordered image.
    type Lane: Copy + Default + Send + Sync + 'static;

    /// One filter's [`GROUP`](Element::GROUP) weights of one tap, packed
    /// as the convolution route's tile reads them.
    type Weight: Copy + Default + Send + Sync + 'static;

    /// Packs the weights of channels `0..channels` of a group, channel `j`
    /// at `src[j·stride]`; channels up to [`GROUP`](Element::GROUP) past
    /// `channels` (an odd last channel's partner) count as zero.
    fn pack_weight(src: &[Self], stride: usize, channels: usize) -> Self::Weight;

    /// Writes every `step`-th pixel of one image row of a channel group
    /// into the bordered image: `dst[x·GROUP + j] = src[j·stride + x·step]`
    /// for `j < channels`, zero for the group's other channels.
    fn interleave(
        dst: &mut [Self::Lane],
        src: &[Self],
        step: usize,
        stride: usize,
        channels: usize,
    );

    /// `acc + w·x` over one tap of one output pixel, `x` the pixel's
    /// [`GROUP`](Element::GROUP) lanes: the step of the convolution route's
    /// scalar loop, with the tile's arithmetic (f32: a separate multiply and
    /// add; int8: exact in i32).
    fn mul_add(acc: Self::Acc, w: Self::Weight, x: &[Self::Lane]) -> Self::Acc;

    /// Adds one convolution product tile into `c`: the arguments of
    /// `ConvTile::f32_into` / `ConvTile::i16_into`.
    #[cfg(target_arch = "x86_64")]
    fn conv_tile(
        tile: ConvTile,
        taps: TapOffsets<'_>,
        weights: &[Self::Weight],
        image: &[Self::Lane],
        c: &mut [Self::Acc],
        rows: &[usize],
        at: Placement,
    );
}

impl Element for f32 {
    type Acc = f32;
    const GROUP: usize = 1;
    type Lane = f32;
    type Weight = f32;

    #[inline]
    fn pack_weight(src: &[f32], _stride: usize, _channels: usize) -> f32 {
        src[0]
    }

    #[inline]
    fn interleave(dst: &mut [f32], src: &[f32], step: usize, _stride: usize, _channels: usize) {
        if step == 1 {
            dst.copy_from_slice(&src[..dst.len()]);
        } else {
            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(step)) {
                *d = v;
            }
        }
    }

    #[inline]
    fn mul_add(acc: f32, w: f32, x: &[f32]) -> f32 {
        acc + w * x[0]
    }

    #[cfg(target_arch = "x86_64")]
    fn conv_tile(
        tile: ConvTile,
        taps: TapOffsets<'_>,
        weights: &[f32],
        image: &[f32],
        c: &mut [f32],
        rows: &[usize],
        at: Placement,
    ) {
        tile.f32_into(taps, weights, image, c, rows, at);
    }
}

impl Element for i8 {
    type Acc = i32;
    const GROUP: usize = 2;
    type Lane = i16;
    /// The channel pair's two i16 in memory order: `w[c]` in the low half,
    /// `w[c+1]` in the high half, as `vpmaddwd` pairs them with the image.
    type Weight = i32;

    #[inline]
    fn pack_weight(src: &[i8], stride: usize, channels: usize) -> i32 {
        let hi = if channels > 1 { src[stride] } else { 0 };
        let [a, b] = i16::from(src[0]).to_ne_bytes();
        let [c, d] = i16::from(hi).to_ne_bytes();
        i32::from_ne_bytes([a, b, c, d])
    }

    #[inline]
    fn interleave(dst: &mut [i16], src: &[i8], step: usize, stride: usize, channels: usize) {
        let (pairs, _) = dst.as_chunks_mut::<2>();
        if step == 1 {
            let lo = &src[..pairs.len()];
            if channels > 1 {
                for ((p, &a), &b) in pairs.iter_mut().zip(lo).zip(&src[stride..]) {
                    *p = [a.into(), b.into()];
                }
            } else {
                for (p, &a) in pairs.iter_mut().zip(lo) {
                    *p = [a.into(), 0];
                }
            }
        } else if channels > 1 {
            let (lo, hi) = (src.iter().step_by(step), src[stride..].iter().step_by(step));
            for ((p, &a), &b) in pairs.iter_mut().zip(lo).zip(hi) {
                *p = [a.into(), b.into()];
            }
        } else {
            for (p, &a) in pairs.iter_mut().zip(src.iter().step_by(step)) {
                *p = [a.into(), 0];
            }
        }
    }

    #[inline]
    fn mul_add(acc: i32, w: i32, x: &[i16]) -> i32 {
        let [a, b, c, d] = w.to_ne_bytes();
        let (lo, hi) = (i16::from_ne_bytes([a, b]), i16::from_ne_bytes([c, d]));
        acc + i32::from(lo) * i32::from(x[0]) + i32::from(hi) * i32::from(x[1])
    }

    #[cfg(target_arch = "x86_64")]
    fn conv_tile(
        tile: ConvTile,
        taps: TapOffsets<'_>,
        weights: &[i32],
        image: &[i16],
        c: &mut [i32],
        rows: &[usize],
        at: Placement,
    ) {
        tile.i16_into(taps, weights, image, c, rows, at);
    }
}

/// The layout of a zero-bordered, phase-split copy of one image: `G`
/// channels per pixel, `s²` phase planes per channel group (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
struct Border {
    g: usize,
    s: usize,
    pad: usize,
    h: usize,
    w: usize,
    hq: usize,
    wq: usize,
}

impl Border {
    /// The copy of an `h × w` image of `g`-channel pixels under a `pad`
    /// border, split for stride `s`.
    fn new(g: usize, h: usize, w: usize, s: usize, pad: usize) -> Self {
        let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
        Self {
            g,
            s,
            pad,
            h,
            w,
            hq,
            wq,
        }
    }

    /// Elements of one phase row.
    fn row_len(&self) -> usize {
        self.wq * self.g
    }

    /// Elements of one channel group: its `s²` phase planes.
    fn plane(&self) -> usize {
        self.s * self.s * self.hq * self.row_len()
    }

    /// Elements past the last plane that the lanes a ragged tile computes
    /// and discards may read.
    fn slack(&self) -> usize {
        self.row_len() + 2 * CONV_LANES * self.g
    }

    /// Offset of tap `(grp, ky, kx)` from an output pixel's origin.
    fn tap(&self, grp: usize, ky: usize, kx: usize) -> usize {
        let s = self.s;
        let phase = (grp * s + ky % s) * s + kx % s;
        ((phase * self.hq + ky / s) * self.wq + kx / s) * self.g
    }

    /// Origin of output pixel `(oy, ox)` in an image's copy.
    fn origin(&self, oy: usize, ox: usize) -> usize {
        (oy * self.wq + ox) * self.g
    }

    /// Writes the interior pixels of one image's `groups` channel groups
    /// into `dst` (which holds their planes and is zero elsewhere). Group
    /// `grp`'s first channel plane starts at `src(grp)`, its other channels
    /// `stride` apart, and it has `channels(grp)` real channels.
    fn copy<'x, T: Element + 'x>(
        &self,
        dst: &mut [T::Lane],
        groups: usize,
        src: impl Fn(usize) -> &'x [T],
        stride: usize,
        channels: impl Fn(usize) -> usize,
    ) {
        let (s, pad, row_len) = (self.s, self.pad, self.row_len());
        // The phase coordinates `r` (or `c`) of phase `ph` whose bordered
        // pixel `r·s + ph` lies inside an image side of `len` pixels.
        let interior = |ph: usize, len: usize| {
            (pad.saturating_sub(ph).div_ceil(s))..((pad + len).saturating_sub(ph).div_ceil(s))
        };
        let plane = self.plane();
        for (grp, chan) in dst[..groups * plane].chunks_exact_mut(plane).enumerate() {
            let src = src(grp);
            for (phase, rows) in chan.chunks_exact_mut(self.hq * row_len).enumerate() {
                let (py, px) = (phase / s, phase % s);
                let cols = interior(px, self.w);
                if cols.is_empty() {
                    continue;
                }
                for r in interior(py, self.h) {
                    let from = &src[(r * s + py - pad) * self.w + cols.start * s + px - pad..];
                    let to = &mut rows[r * row_len..][cols.start * self.g..cols.end * self.g];
                    T::interleave(to, from, s, stride, channels(grp));
                }
            }
        }
    }
}

/// `C = A · unfold(X)` for a convolution on `kernel`, `rows` restricting
/// it to the surviving filters; every other row of `C` is zero. The caller
/// ([`conv_gemm_into`]) has checked all lengths.
/// `threads` splits the filter blocks across workers when the live rows
/// span more than one `MC` block.
#[allow(clippy::too_many_arguments)] // conv_gemm_into's, plus the kernel
pub(super) fn conv_direct_into<T: Element>(
    kernel: Kernel,
    c: &mut [T::Acc],
    a: &[T],
    x: &[T],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let [n, ci, h, w] = dims;
    let kk = spec.kernel;
    let (ho, wo) = spec.output_hw(h, w);
    let (g, k2) = (T::GROUP, kk * kk);
    let groups = ci.div_ceil(g);
    let k = ci * k2;
    let ntaps = groups * k2;
    let hw = ho * wo;

    c.fill(T::Acc::default());
    let gather = rows.filter(|r| !r.is_all()).map(ActiveRows::indices);
    let live = gather.map_or(m, <[usize]>::len);
    if live == 0 || k == 0 || n == 0 {
        return;
    }
    let row_of = |i: usize| gather.map_or(i, |ix| ix[i]);
    // Channels of group `grp` that exist: `G`, or fewer in an odd last one.
    let channels = |grp: usize| g.min(ci - grp * g);
    let border = Border::new(g, h, w, spec.stride, spec.pad);

    let mut offsets: Vec<usize> = ws.take("conv_taps", ntaps);
    for (p, o) in offsets.iter_mut().enumerate() {
        *o = border.tap(p / k2, p / kk % kk, p % kk);
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
    let plane = border.plane();
    let mut padded: Vec<T::Lane> = ws.take("conv_padded", groups * plane + border.slack());
    padded.fill(T::Lane::default());
    let workers = workers(threads, live);
    let compact = workers > 1 && gather.is_some();
    // The compact buffer exists only when used: a workspace slot costs a
    // lookup per call, which the smallest convolutions feel.
    let mut cc: Vec<T::Acc> = Vec::new();
    if compact {
        cc = ws.take("conv_rows_c", live * hw);
    }
    let walk = Walk {
        border,
        ho,
        wo,
        slab: KC,
    };
    let nblocks = live.div_ceil(CONV_MR);

    for (b, slab) in c.chunks_exact_mut(m * hw).enumerate() {
        let image = &x[b * ci * h * w..][..ci * h * w];
        border.copy(
            &mut padded,
            groups,
            |grp| &image[grp * g * h * w..],
            h * w,
            channels,
        );
        // One worker takes the image's whole `[m, ho, wo]` slab of `C` as
        // one chunk and writes the live rows in place; several take a block
        // each, of the slab, or of the compact buffer when the rows are
        // gathered.
        if compact {
            cc.fill(T::Acc::default());
        }
        let (out, len, per) = match (workers, compact) {
            (1, _) => (&mut *slab, m * hw, nblocks),
            (_, true) => (&mut cc[..], CONV_MR * hw, 1),
            (_, false) => (&mut *slab, CONV_MR * hw, 1),
        };
        for_chunks(out, len, workers, |q, out| {
            for blk in q * per..nblocks.min(q * per + per) {
                let first = if workers == 1 { 0 } else { blk * CONV_MR };
                let r = CONV_MR.min(live - blk * CONV_MR);
                let mut crow = [0usize; CONV_MR];
                for (j, start) in crow[..r].iter_mut().enumerate() {
                    let i = blk * CONV_MR + j;
                    let row = if compact { i } else { row_of(i) };
                    *start = (row - first) * hw;
                }
                let panel = &panels[blk * ntaps * CONV_MR..][..ntaps * CONV_MR];
                walk.run::<T>(kernel, taps, panel, &padded, out, &crow[..r]);
            }
        });
        if let Some(ix) = gather.filter(|_| compact) {
            for (&i, row) in ix.iter().zip(cc.chunks_exact(hw)) {
                slab[i * hw..][..hw].copy_from_slice(row);
            }
        }
    }
    if compact {
        ws.give("conv_rows_c", cc);
    }

    ws.give("conv_taps", offsets);
    ws.give("conv_wpanels", panels);
    ws.give("conv_padded", padded);
}

/// The input gradient of a convolution on `kernel`: `dX = col2im(Wᵀ·G)` as
/// one stride-1 convolution per phase, the module docs describe how. `a`
/// is the `[m, ci·k²]` weight matrix, `g` the `NCHW` output gradient, `dx`
/// the `NCHW` input gradient, fully overwritten. The caller
/// ([`conv_input_grad_into`]) has checked all lengths. `threads` splits the input channels across workers when they
/// span more than one `MC` block.
#[allow(clippy::too_many_arguments)] // conv_input_grad_into's, plus the kernel
pub(super) fn input_grad_into(
    kernel: Kernel,
    dx: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let [n, ci, h, w] = dims;
    let (kk, s) = (spec.kernel, spec.stride);
    let (ho, wo) = spec.output_hw(h, w);
    let (k, k2, hw) = (ci * kk * kk, kk * kk, ho * wo);

    dx.fill(0.0);
    let gather = rows.filter(|r| !r.is_all()).map(ActiveRows::indices);
    let live = gather.map_or(m, <[usize]>::len);
    if live == 0 || ci == 0 || n == 0 {
        return;
    }
    let row_of = |i: usize| gather.map_or(i, |ix| ix[i]);
    // The phases with pixels and taps; the others stay zero.
    let phases = || {
        (0..s * s)
            .map(|ph| Phase::new(ph / s, ph % s, [h, w], spec))
            .filter(|ph| ph.out > 0 && ph.taps > 0)
    };
    // The output gradient of each live channel, bordered so that every
    // phase pixel sees all its taps, in or out of the gradient.
    let pad = phases().map(|ph| ph.border([ho, wo])).max().unwrap_or(0);
    let border = Border::new(1, ho, wo, 1, pad);

    // Phase by phase, tap `(j, c)` — spatial tap `j = (jy, jx)` ascending,
    // live output channel `c` inner — reads the gradient at `(q0y − jy,
    // q0x − jx)` from the phase pixel's origin; filter `r` of the phase's
    // convolution is input channel `r`, its weight `W[row_of(c), r, ky, kx]`.
    let ntaps = k2 * live;
    let blocks = ci.div_ceil(CONV_MR);
    let mut offsets: Vec<usize> = ws.take("conv_taps", ntaps);
    let mut panels: Vec<f32> = ws.take("conv_wpanels", blocks * ntaps * CONV_MR);
    let mut first = 0;
    for ph in phases() {
        let taps = ph.taps * live;
        let table = &mut offsets[first..][..taps];
        let panel = &mut panels[first * blocks * CONV_MR..][..blocks * taps * CONV_MR];
        for (t, o) in table.iter_mut().enumerate() {
            let ([ky, kx], [oy, ox]) = ph.tap(t / live, pad);
            *o = border.tap(t % live, oy, ox);
            for r in 0..ci {
                let lanes = &mut panel[(r / CONV_MR * taps + t) * CONV_MR..];
                lanes[r % CONV_MR] = a[row_of(t % live) * k + r * k2 + ky * kk + kx];
            }
        }
        first += taps;
    }

    let plane = border.plane();
    let mut padded: Vec<f32> = ws.take("conv_padded", live * plane + border.slack());
    padded.fill(0.0);
    // At stride 1 the one phase is the image itself and is written in place;
    // a stride-`s` phase is written here, then scattered. (The slot exists
    // only when used: a lookup per call is felt by the smallest layers.)
    let mut staged: Vec<f32> = Vec::new();
    if s > 1 {
        let most = phases().map(|ph| ph.out).max().unwrap_or(0);
        staged = ws.take("conv_phase", ci * most);
    }
    let workers = workers(threads, ci);
    for (b, planes) in dx.chunks_exact_mut(ci * h * w).enumerate() {
        let image = |c: usize| &g[(b * m + row_of(c)) * hw..][..hw];
        border.copy(&mut padded, live, image, hw, |_| 1);
        let mut first = 0;
        for ph in phases() {
            let taps = ph.taps * live;
            let table = TapOffsets::new(&offsets[first..][..taps]);
            let panels = &panels[first * blocks * CONV_MR..][..blocks * taps * CONV_MR];
            first += taps;
            let walk = Walk {
                border,
                ho: ph.rows.len(),
                wo: ph.cols.len(),
                slab: live,
            };
            let out = if s == 1 {
                &mut *planes
            } else {
                let out = &mut staged[..ci * ph.out];
                out.fill(0.0);
                out
            };
            // Input channels `blk·CONV_MR ..` are consecutive planes.
            for_chunks(out, CONV_MR * ph.out, workers, |blk, out| {
                let r = CONV_MR.min(ci - blk * CONV_MR);
                let crow: [usize; CONV_MR] = std::array::from_fn(|j| j * ph.out);
                let panel = &panels[blk * taps * CONV_MR..][..taps * CONV_MR];
                walk.run::<f32>(kernel, table, panel, &padded, out, &crow[..r]);
            });
            if s > 1 {
                ph.scatter(planes, &staged[..ci * ph.out], [h, w], spec.pad);
            }
        }
    }

    ws.give("conv_taps", offsets);
    ws.give("conv_wpanels", panels);
    ws.give("conv_padded", padded);
    if s > 1 {
        ws.give("conv_phase", staged);
    }
}

/// One phase `(py, px)` of a stride-`s` input gradient: the input pixels
/// whose bordered position `(Y, X) = (iy + p, ix + p)` has `Y mod s = py`,
/// `X mod s = px`, at their phase coordinates `(Y div s, X div s)`.
struct Phase {
    /// The residues `(py, px)`.
    at: [usize; 2],
    s: usize,
    /// The phase coordinates inside the image, per axis.
    rows: Range<usize>,
    cols: Range<usize>,
    /// Taps per axis: `ky = py + jy·s < k`, and likewise `kx`.
    per_axis: [usize; 2],
    /// Spatial taps, `per_axis[0] · per_axis[1]`.
    taps: usize,
    /// Pixels, `rows.len() · cols.len()`.
    out: usize,
}

impl Phase {
    fn new(py: usize, px: usize, [h, w]: [usize; 2], spec: Conv2dSpec) -> Self {
        let (s, p, kk) = (spec.stride, spec.pad, spec.kernel);
        let inside = |ph: usize, len: usize| {
            (p.saturating_sub(ph).div_ceil(s))..((p + len).saturating_sub(ph).div_ceil(s))
        };
        let (rows, cols) = (inside(py, h), inside(px, w));
        let per_axis = [
            kk.saturating_sub(py).div_ceil(s),
            kk.saturating_sub(px).div_ceil(s),
        ];
        Self {
            at: [py, px],
            s,
            taps: per_axis[0] * per_axis[1],
            out: rows.len() * cols.len(),
            rows,
            cols,
            per_axis,
        }
    }

    /// The smallest border of the `ho × wo` output gradient inside which
    /// every tap of every pixel of this phase reads: tap `jy` of phase row
    /// `qy` reads gradient row `qy − jy`.
    fn border(&self, [ho, wo]: [usize; 2]) -> usize {
        let need = |q: &Range<usize>, taps: usize, len: usize| {
            (taps - 1)
                .saturating_sub(q.start)
                .max(q.end.saturating_sub(len))
        };
        need(&self.rows, self.per_axis[0], ho).max(need(&self.cols, self.per_axis[1], wo))
    }

    /// Spatial tap `j` (ascending `(jy, jx)`, which is ascending `(ky,
    /// kx)`): its kernel position, and the gradient pixel the phase's first
    /// pixel reads through it under a `pad` border.
    fn tap(&self, j: usize, pad: usize) -> ([usize; 2], [usize; 2]) {
        let (jy, jx) = (j / self.per_axis[1], j % self.per_axis[1]);
        let [py, px] = self.at;
        (
            [py + jy * self.s, px + jx * self.s],
            [self.rows.start + pad - jy, self.cols.start + pad - jx],
        )
    }

    /// Copies the phase's planes `src` to their pixels of one image's
    /// `NCHW` input gradient `dst`, of `h × w` planes under a `pad` border.
    fn scatter(&self, dst: &mut [f32], src: &[f32], [h, w]: [usize; 2], pad: usize) {
        let s = self.s;
        let [y0, x0] = [
            self.rows.start * s + self.at[0] - pad,
            self.cols.start * s + self.at[1] - pad,
        ];
        for (plane, phase) in dst.chunks_exact_mut(h * w).zip(src.chunks_exact(self.out)) {
            for (r, row) in phase.chunks_exact(self.cols.len()).enumerate() {
                let line = &mut plane[(y0 + r * s) * w + x0..];
                for (d, &v) in line.iter_mut().step_by(s).zip(row) {
                    *d = v;
                }
            }
        }
    }
}

/// Runs `body(i, chunk)` on each `len`-element chunk of `out` (the last may
/// be shorter): all of them on this thread for one worker, otherwise
/// contiguous runs of chunks on `workers` scoped threads. Each chunk is one
/// worker's, so what `body` writes cannot depend on `workers`.
fn for_chunks<A: Send>(
    out: &mut [A],
    len: usize,
    workers: usize,
    body: impl Fn(usize, &mut [A]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    let per_worker = out.len().div_ceil(len).div_ceil(workers);
    let run = |first: usize, run: &mut [A]| {
        for (i, chunk) in run.chunks_mut(len).enumerate() {
            body(first + i, chunk);
        }
    };
    if per_worker * len >= out.len() {
        return run(0, out);
    }
    std::thread::scope(|scope| {
        let mut runs = out.chunks_mut(per_worker * len);
        let mine = runs.next();
        for (t, chunk) in runs.enumerate() {
            let run = &run;
            scope.spawn(move || run((t + 1) * per_worker, chunk));
        }
        if let Some(chunk) = mine {
            run(0, chunk);
        }
    });
}

/// How a block of up to [`CONV_MR`] filters walks the `ho × wo` output
/// pixels of one bordered image, running the tile once per `slab` taps at
/// each placement.
#[derive(Clone, Copy)]
struct Walk {
    border: Border,
    ho: usize,
    wo: usize,
    slab: usize,
}

impl Walk {
    /// Adds the block's products into `c` on `kernel`, filter `j`'s output
    /// row starting at `crow[j]`. The kernel is matched once per block, not
    /// once per tile call.
    #[inline]
    fn run<T: Element>(
        self,
        kernel: Kernel,
        taps: TapOffsets<'_>,
        panel: &[T::Weight],
        padded: &[T::Lane],
        c: &mut [T::Acc],
        crow: &[usize],
    ) {
        let weights = |p: &Range<usize>| &panel[p.start * CONV_MR..p.end * CONV_MR];
        match kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Tile(tile) => self.each(taps.len(), |p, at| {
                T::conv_tile(tile, taps.slab(p.clone()), weights(&p), padded, c, crow, at);
            }),
            Kernel::Scalar => self.each(taps.len(), |p, at| {
                scalar_conv::<T>(taps.slab(p.clone()), weights(&p), padded, c, crow, at);
            }),
        }
    }

    /// Calls `tile(taps, at)` for each slab of the `ntaps` taps at each
    /// placement of the walk.
    #[inline]
    fn each(self, ntaps: usize, mut tile: impl FnMut(Range<usize>, Placement)) {
        let Self {
            border,
            ho,
            wo,
            slab,
        } = self;
        let mut run = |at: Placement| {
            for p0 in (0..ntaps).step_by(slab) {
                tile(p0..ntaps.min(p0 + slab), at);
            }
        };
        if wo <= CONV_LANES {
            // Eight pixels of two output rows; an odd last row runs with
            // its partner's write-back off.
            for oy in (0..ho).step_by(2) {
                run(Placement {
                    image: [border.origin(oy, 0), border.origin(oy + 1, 0)],
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
                        image: [border.origin(oy, ox), border.origin(oy, ox + CONV_LANES)],
                        // `+ first`, not `+ CONV_LANES`: a second vector
                        // with nothing to write still needs a column inside
                        // `C`.
                        col: [oy * wo + ox, oy * wo + ox + first],
                        lanes: [first, second],
                    });
                }
            }
        }
    }
}

/// `ConvTile::f32_into`'s contract (`ConvTile::i16_into`'s for int8) on
/// the scalar lane.
fn scalar_conv<T: Element>(
    taps: TapOffsets<'_>,
    weights: &[T::Weight],
    image: &[T::Lane],
    c: &mut [T::Acc],
    rows: &[usize],
    at: Placement,
) {
    let taps = taps.as_slice();
    for (r, &row) in rows.iter().enumerate() {
        for v in 0..2 {
            for l in 0..at.lanes[v] {
                let x = &image[at.image[v] + l * T::GROUP..];
                let mut acc = T::Acc::default();
                for (p, &o) in taps.iter().enumerate() {
                    acc = T::mul_add(acc, weights[p * CONV_MR + r], &x[o..]);
                }
                c[row + at.col[v] + l] += acc;
            }
        }
    }
}

/// What every block of the three products runs on: the AVX2 tiles, or the
/// scalar lane, which runs the tiles' per-element operation sequence one
/// element at a time (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(super) enum Kernel {
    #[cfg(target_arch = "x86_64")]
    Tile(ConvTile),
    Scalar,
}

impl Kernel {
    /// The tiles when the host has AVX2, the scalar lane otherwise.
    pub(super) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(tile) = ConvTile::detect() {
            return Self::Tile(tile);
        }
        Self::Scalar
    }

    /// `ConvTile::weight_grad_into`'s contract, on either kernel.
    fn weight_grad(
        self,
        taps: TapOffsets<'_>,
        pixels: TapOffsets<'_>,
        image: &[f32],
        grad: &[f32],
        out: &mut [f32],
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Tile(tile) => tile.weight_grad_into(taps, pixels, image, grad, out),
            Self::Scalar => {
                let (taps, pixels) = (taps.as_slice(), pixels.as_slice());
                if taps.is_empty() {
                    return;
                }
                let width = out.len() / taps.len();
                for (t, out_t) in out.chunks_exact_mut(width).enumerate() {
                    for (lane, o) in out_t.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for (g, &p) in grad.chunks_exact(width).zip(pixels) {
                            acc += g[lane] * image[p + taps[t]];
                        }
                        *o += acc;
                    }
                }
            }
        }
    }
}

/// `C = G · unfold(X)ᵀ` on `kernel`, `rows` restricting it to the surviving
/// filters; every other row of `C` is zero. The caller
/// ([`conv_weight_grad_into`]) has checked all lengths. `threads` splits the channel blocks across workers when
/// the live rows span more than one `MC` block.
#[allow(clippy::too_many_arguments)] // conv_weight_grad_into's, plus the kernel
pub(super) fn weight_grad_into(
    kernel: Kernel,
    c: &mut [f32],
    g: &[f32],
    x: &[f32],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let [n, ci, h, w] = dims;
    let kk = spec.kernel;
    let (ho, wo) = spec.output_hw(h, w);
    let k2 = kk * kk;
    let ntaps = ci * k2;
    let npix = n * ho * wo;

    c.fill(0.0);
    let gather = rows.filter(|r| !r.is_all()).map(ActiveRows::indices);
    let live = gather.map_or(m, <[usize]>::len);
    if live == 0 || ntaps == 0 || npix == 0 {
        return;
    }
    let row_of = |i: usize| gather.map_or(i, |ix| ix[i]);
    let border = Border::new(1, h, w, spec.stride, spec.pad);

    let mut offsets: Vec<usize> = ws.take("conv_taps", ntaps);
    for (p, o) in offsets.iter_mut().enumerate() {
        *o = border.tap(p / k2, p / kk % kk, p % kk);
    }

    // The whole batch, one bordered image after another: a slab of pixels
    // runs on across an image boundary. Without border or phases that copy
    // would be `x` itself (the tile reads single elements, so it needs no
    // slack), and `x` is read in place.
    let in_place = spec.pad == 0 && spec.stride == 1;
    let image_len = ci * border.plane();
    let len = if in_place {
        0
    } else {
        n * image_len + border.slack()
    };
    let mut padded: Vec<f32> = ws.take("conv_padded", len);
    padded.fill(0.0);
    let mut pixels: Vec<usize> = ws.take("conv_pixels", npix);
    for b in 0..n {
        if !in_place {
            let image = &x[b * ci * h * w..][..ci * h * w];
            let dst = &mut padded[b * image_len..][..image_len];
            border.copy(dst, ci, |c| &image[c * h * w..], h * w, |_| 1);
        }
        for (q, origin) in pixels[b * ho * wo..][..ho * wo].iter_mut().enumerate() {
            *origin = b * image_len + border.origin(q / wo, q % wo);
        }
    }

    // The live channels in blocks of CONV_LANES, paired into groups of two
    // blocks (one for a lone last block): group `q`'s gradient is
    // pixel-major, `width` lanes per pixel, and so is its accumulator per
    // tap. Lanes past the last live channel hold zeros (whatever the slot
    // held could be subnormal, and slow every multiply of its lane); their
    // sums are computed and never read.
    let blocks = live.div_ceil(CONV_LANES);
    let group_lanes = 2 * CONV_LANES;
    let width = |q: usize| CONV_LANES * 2.min(blocks - 2 * q);
    let mut lanes: Vec<f32> = ws.take("conv_grad_lanes", blocks * CONV_LANES * npix);
    for i in 0..blocks * CONV_LANES {
        let (q, lane) = (i / group_lanes, i % group_lanes);
        let mut dst = lanes[q * group_lanes * npix + lane..]
            .iter_mut()
            .step_by(width(q));
        if i < live {
            // Channel `row_of(i)`'s planes, image after image.
            for plane in g.chunks_exact(ho * wo).skip(row_of(i)).step_by(m) {
                for (&v, d) in plane.iter().zip(&mut dst) {
                    *d = v;
                }
            }
        } else {
            dst.take(npix).for_each(|d| *d = 0.0);
        }
    }
    let mut acc: Vec<f32> = ws.take("conv_grad_acc", blocks * CONV_LANES * ntaps);
    acc.fill(0.0);

    let (image, taps, pix) = (
        if in_place { x } else { &padded },
        TapOffsets::new(&offsets),
        TapOffsets::new(&pixels),
    );
    let lanes_ref = lanes.as_slice();
    let group = |q: usize, out: &mut [f32]| {
        let width = width(q);
        let grad = &lanes_ref[q * group_lanes * npix..][..width * npix];
        let step = CONV_GRAD_TAPS * CONV_LANES / width;
        for j0 in (0..npix).step_by(KC) {
            let j1 = npix.min(j0 + KC);
            for t0 in (0..ntaps).step_by(step) {
                let t1 = ntaps.min(t0 + step);
                kernel.weight_grad(
                    taps.slab(t0..t1),
                    pix.slab(j0..j1),
                    image,
                    &grad[j0 * width..j1 * width],
                    &mut out[t0 * width..t1 * width],
                );
            }
        }
    };
    // A worker takes whole groups, so each element is one worker's.
    for_chunks(&mut acc, group_lanes * ntaps, workers(threads, live), group);

    for i in 0..live {
        let (q, lane) = (i / group_lanes, i % group_lanes);
        let src = &acc[q * group_lanes * ntaps + lane..];
        let dst = &mut c[row_of(i) * ntaps..][..ntaps];
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(width(q))) {
            *d = v;
        }
    }

    ws.give("conv_taps", offsets);
    ws.give("conv_padded", padded);
    ws.give("conv_pixels", pixels);
    ws.give("conv_grad_lanes", lanes);
    ws.give("conv_grad_acc", acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::ops::gemm::{MC, NC};
    use crate::ops::gemm_i8_into;
    use crate::rng::Rng;
    use crate::Tensor;

    /// Every product of one geometry on the scalar lane and on `tile`, each
    /// into a NaN-filled (`i32::MIN`-filled) output, through the caller's
    /// (dirty) workspace: the weight gradient, the forward in f32 and in
    /// int8, and the input gradient. Every fifth weight is `−0.0`, and every
    /// third int8 value sits at −128 or 127.
    #[allow(clippy::too_many_arguments)]
    fn kernels_agree(
        tile: Kernel,
        dims: [usize; 4],
        spec: Conv2dSpec,
        m: usize,
        live: Option<Vec<usize>>,
        threads: usize,
        seed: u64,
        ws: &mut Workspace,
    ) {
        let [n, ci, h, w] = dims;
        let (ho, wo) = spec.output_hw(h, w);
        let (taps, ncols) = (ci * spec.kernel * spec.kernel, n * ho * wo);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
        let g = Tensor::randn(&[n, m, ho, wo], Init::Rand, &mut rng);
        let mut a = Tensor::randn(&[m, taps], Init::Rand, &mut rng);
        a.data_mut().iter_mut().step_by(5).for_each(|v| *v = -0.0);
        let quantize = |t: &Tensor| -> Vec<i8> {
            let q = |(i, &v): (usize, &f32)| match (i % 3, v < 0.0) {
                (0, true) => i8::MIN,
                (0, false) => i8::MAX,
                _ => (v * 60.0) as i8,
            };
            t.data().iter().enumerate().map(q).collect()
        };
        let (x8, a8) = (quantize(&x), quantize(&a));
        let rows = live.map(|l| ActiveRows::from_indices(l, m).unwrap());
        let rows = rows.as_ref();
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut run = |kernel: Kernel| {
            let (x, a, g) = (x.data(), a.data(), g.data());
            let mut dw = vec![f32::NAN; m * taps];
            weight_grad_into(kernel, &mut dw, g, x, m, dims, spec, rows, ws, threads);
            let mut c = vec![f32::NAN; m * ncols];
            conv_direct_into(kernel, &mut c, a, x, m, dims, spec, rows, ws, threads);
            let mut c8 = vec![i32::MIN; m * ncols];
            conv_direct_into(kernel, &mut c8, &a8, &x8, m, dims, spec, rows, ws, threads);
            let mut dx = vec![f32::NAN; x.len()];
            input_grad_into(kernel, &mut dx, a, g, m, dims, spec, rows, ws, threads);
            [
                bits(&dw),
                bits(&c),
                c8.iter().map(|&v| v as u32).collect(),
                bits(&dx),
            ]
        };
        let (scalar, tiled) = (run(Kernel::Scalar), run(tile));
        for (product, (s, t)) in ["dW", "f32 forward", "i8 forward", "dX"]
            .iter()
            .zip(scalar.iter().zip(&tiled))
        {
            assert!(
                s == t,
                "{product}: {dims:?} {spec:?}, {m} rows, {threads} threads"
            );
        }
    }

    #[test]
    fn scalar_lane_is_bitwise_the_tile() {
        let tile = Kernel::detect();
        if matches!(tile, Kernel::Scalar) {
            eprintln!("skipped: host has no AVX2");
            return;
        }
        let mut ws = Workspace::new();
        let mut seed = 0;
        let mut next = || {
            seed += 1;
            seed
        };
        // Strides 1–3, kernels 1/3/5, pads 0–2, odd sides, so `wo` comes
        // out below, at and above CONV_LANES and ragged; `m` walks 1–19,
        // so channel and filter blocks come out single, paired and ragged,
        // under a drawn live set, all, one and none.
        for stride in 1..=3 {
            for k in [1, 3, 5] {
                for pad in 0..=2 {
                    let n = 1 + (stride + k + pad) % 3;
                    let m = 1 + (7 * stride + 5 * k + 3 * pad) % 19;
                    let dims = [n, 1 + (k + pad) % 4, k + 4 + stride, k + 7 + pad];
                    let spec = Conv2dSpec::new(k, stride, pad);
                    let drawn = (0..m).filter(|i| (i + stride) % 3 != 0).collect();
                    for live in [Some(drawn), None, Some(vec![m / 2]), Some(vec![])] {
                        kernels_agree(tile, dims, spec, m, live, 1, next(), &mut ws);
                    }
                }
            }
        }
        // More than 2·KC pixels, so three weight-gradient slabs, one
        // crossing an image boundary; sixteen-pixel rows, the last vector
        // ragged.
        let spec = Conv2dSpec::new(3, 1, 1);
        kernels_agree(tile, [3, 2, 13, 21], spec, 9, None, 1, next(), &mut ws);
        // More live rows than one MC block on two workers, gathered (the
        // forward's compact buffer) and dense; more input channels than one
        // MC block on two workers (the input gradient's).
        let wide: Vec<usize> = (0..2 * MC + 9).filter(|i| i % 3 != 1).collect();
        let (m_wide, dims) = (2 * MC + 9, [2, 2, 5, 6]);
        kernels_agree(tile, dims, spec, m_wide, Some(wide), 2, next(), &mut ws);
        kernels_agree(tile, dims, spec, MC + 1, None, 2, next(), &mut ws);
        kernels_agree(tile, [1, MC + 3, 4, 5], spec, 3, None, 2, next(), &mut ws);
    }

    #[test]
    fn conv_products_are_allocation_free_after_warmup() {
        // Strides 1 and 2, each in f32 (dense and row-gathered) and i8,
        // beside the weight and input gradients, dense and row-gathered
        // (the stride-2 input gradient through its phase slot); then calls
        // wider than one `MC` block on two tile workers, f32 dense and
        // gathered (the compact row buffer) and i8. One warm-up per
        // geometry sizes every slot — the phase planes, the weight panels
        // and the tap table included — and nothing grows after, whichever
        // geometry the slots last served.
        let (n, ci, h, w, m) = (2, 5, 11, 19, 9);
        let dims = [n, ci, h, w];
        let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1)];
        let x: Vec<f32> = (0..n * ci * h * w).map(|i| (i % 17) as f32 - 8.0).collect();
        let wide = MC + 1;
        let a_wide: Vec<f32> = (0..wide * ci * 9).map(|i| (i % 13) as f32 - 6.0).collect();
        let (x8, a8_wide): (Vec<i8>, Vec<i8>) = (
            x.iter().map(|&v| v as i8).collect(),
            a_wide.iter().map(|&v| v as i8).collect(),
        );
        let (a, a8) = (&a_wide[..m * ci * 9], &a8_wide[..m * ci * 9]);
        let rows = ActiveRows::from_indices(vec![0, 2, 3, 8], m).unwrap();
        let wide_rows = ActiveRows::from_indices((1..wide).collect(), wide).unwrap();
        let mut ws = Workspace::new();
        let pass = |ws: &mut Workspace| {
            for spec in specs {
                let (ho, wo) = spec.output_hw(h, w);
                let mut c = vec![0.0f32; m * n * ho * wo];
                let mut c8 = vec![0i32; m * n * ho * wo];
                conv_gemm_into(&mut c, a, &x, m, dims, spec, None, ws, 1);
                conv_gemm_into(&mut c, a, &x, m, dims, spec, Some(&rows), ws, 1);
                conv_gemm_into(&mut c8, a8, &x8, m, dims, spec, None, ws, 1);
                let mut dw = vec![0.0f32; a.len()];
                conv_weight_grad_into(&mut dw, &c, &x, m, dims, spec, None, ws, 1);
                conv_weight_grad_into(&mut dw, &c, &x, m, dims, spec, Some(&rows), ws, 1);
                let mut dx = vec![0.0f32; x.len()];
                conv_input_grad_into(&mut dx, a, &c, m, dims, spec, None, ws, 1);
                conv_input_grad_into(&mut dx, a, &c, m, dims, spec, Some(&rows), ws, 1);
            }
            let (ho, wo) = specs[1].output_hw(h, w);
            let mut c = vec![0.0f32; wide * n * ho * wo];
            let mut c8 = vec![0i32; wide * n * ho * wo];
            conv_gemm_into(&mut c, &a_wide, &x, wide, dims, specs[1], None, ws, 2);
            let gathered = Some(&wide_rows);
            conv_gemm_into(&mut c, &a_wide, &x, wide, dims, specs[1], gathered, ws, 2);
            conv_gemm_into(&mut c8, &a8_wide, &x8, wide, dims, specs[1], None, ws, 2);
        };
        pass(&mut ws);
        let warm = ws.alloc_events();
        ws.freeze();
        for _ in 0..3 {
            pass(&mut ws);
        }
        assert_eq!(ws.alloc_events(), warm);
    }

    #[test]
    fn no_conv_product_runs_the_packed_driver() {
        // Each product has one route. The forward in f32 and i8, strides 1
        // and 2, one worker and `MC + 1` rows on two, dense and
        // row-gathered, on the host's kernel and on the scalar lane; the
        // weight and input gradients at strides 1–3, at a pad past `k − 1`
        // and with more than KC live channels; the int8 matrix product at
        // the shapes its own tests use, ragged in MC, KC and NC: not one
        // driver run.
        let dims = [2, 3, 9, 10];
        let x = vec![1.0f32; 2 * 3 * 9 * 10];
        let a = vec![1.0f32; (KC + 1) * 3 * 9];
        let (x8, a8) = (vec![1i8; x.len()], vec![1i8; a.len()]);
        let mut ws = Workspace::new();
        for spec in [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1)] {
            let (ho, wo) = spec.output_hw(9, 10);
            for (m, threads) in [(5, 1), (MC + 1, 2)] {
                let (a, a8) = (&a[..m * 27], &a8[..m * 27]);
                let drawn = ActiveRows::from_indices((0..m).step_by(2).collect(), m).unwrap();
                let mut c = vec![0.0f32; m * 2 * ho * wo];
                let mut c8 = vec![0i32; m * 2 * ho * wo];
                let ws = &mut ws;
                conv_gemm_into(&mut c, a, &x, m, dims, spec, None, ws, threads);
                conv_gemm_into(&mut c8, a8, &x8, m, dims, spec, None, ws, threads);
                for kernel in [Kernel::detect(), Kernel::Scalar] {
                    for rows in [None, Some(&drawn)] {
                        conv_direct_into(kernel, &mut c, a, &x, m, dims, spec, rows, ws, threads);
                        conv_direct_into(
                            kernel, &mut c8, a8, &x8, m, dims, spec, rows, ws, threads,
                        );
                    }
                }
            }
        }
        let specs = [
            (3, 1, 1),
            (1, 1, 0),
            (3, 1, 3),
            (3, 2, 1),
            (3, 3, 0),
            (5, 2, 2),
        ];
        for (spec, m) in specs
            .map(|(k, s, p)| (Conv2dSpec::new(k, s, p), 4))
            .into_iter()
            .chain([(Conv2dSpec::new(1, 2, 0), KC + 1)])
        {
            let (ho, wo) = spec.output_hw(9, 10);
            let (a, g) = (
                &a[..m * 3 * spec.kernel * spec.kernel],
                vec![0.25f32; m * 2 * ho * wo],
            );
            let (mut dx, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; a.len()]);
            conv_input_grad_into(&mut dx, a, &g, m, dims, spec, None, &mut ws, 1);
            conv_weight_grad_into(&mut dw, &g, &x, m, dims, spec, None, &mut ws, 1);
        }
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (7, 9, 11),
            (64, 27, 1024 + 9),
            (MC + 5, KC + 3, 40),
            (2 * MC + 3, KC + 3, NC + 9),
        ] {
            let mut c = vec![0i32; m * n];
            gemm_i8_into(&mut c, &vec![1; m * k], &vec![1; k * n], m, k, n, &mut ws);
        }
        assert_eq!(ws.packed_products(), 0);
    }
}
