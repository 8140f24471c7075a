//! The pack-free convolution tiles of any stride — the forward's and the
//! training weight gradient's — and the int8 requantizing store, in
//! explicit AVX2: the one module of the workspace that contains `unsafe`.
//!
//! The packed tiles in the crate root consume a `B` panel somebody gathered
//! out of the image first. For a convolution with few filters that gather
//! *is* the layer: at `m = 5` every value packed, stored and re-loaded feeds
//! five multiply-adds of an eight-row tile. This tile reads the image in
//! place instead. The caller copies one image into a zero-bordered
//! scratch (split into phase planes at stride 2 and up, which makes every
//! stride read like stride 1); then the eight pixels right of an output
//! pixel's tap are the taps of its eight right-hand neighbours, so one
//! unaligned 256-bit load at `origin + offset[tap]` *is* the panel row a
//! packer would have built out of the unfolded image, and nothing is
//! packed.
//!
//! The tile comes in two element types, one register shape:
//!
//! * **f32** ([`ConvTile::f32_into`]): the scratch is `[ci, h+2p, w+2p]`
//!   f32, a tap is one `(channel, ky, kx)`, a vector is eight pixels of one
//!   channel and each step is a separate `vmulps` and `vaddps`.
//! * **int8** ([`ConvTile::i16_into`]): the scratch is `[⌈ci/2⌉, h+2p,
//!   w+2p, 2]` i16 — each pixel holds channels `c` and `c+1` side by side,
//!   an odd last channel beside a zero — a tap is one `(channel pair, ky,
//!   kx)`, and a weight is the matching pair packed into one i32 (`w[c]` in
//!   the low half, `w[c+1]` in the high half: the pair's two i16 in memory
//!   order). A vector is eight pixels of one pair, and `vpmaddwd` multiplies
//!   both channels and adds them into one i32 lane, so each step does
//!   sixteen MACs per vector where the f32 tile does eight.
//!
//! The register tile is [`CONV_MR`] filters × two vectors (twelve
//! accumulators, two image vectors and one broadcast weight: fifteen of the
//! sixteen AVX2 registers). The two vectors sit at independent positions
//! ([`Placement`]): side by side they are sixteen pixels of one output row,
//! one image row apart they are eight pixels of two output rows, which is
//! how feature maps no wider than a vector keep both busy.
//!
//! **Bit for bit the packed tiles.** For f32 the per-element operation
//! sequence is the one `microkernel_into` runs on packed panels: an
//! accumulator that starts at `+0.0`, `acc = acc + a·x` per tap in
//! ascending tap order with a separate multiply and add (the intrinsics are
//! never contracted into an FMA), then `C += acc`. The caller flushes every
//! `KC` taps by calling once per slab, as the blocked driver does. Border
//! taps multiply a stored `0.0` exactly as the packed panel's padding lanes
//! do. For int8 no order needs keeping: every product of two i8 values and
//! every partial sum is an exact integer — a `vpmaddwd` lane is at most
//! `2·128² = 2¹⁵`, an accumulator after `t` taps at most `t·2¹⁵` — so
//! while the whole dot product fits an i32 (fewer than 2¹⁶ taps, far past
//! any layer) any grouping and order of the adds yields the same i32 as
//! `microkernel_i8_into` or a scalar triple loop.
//!
//! # The weight-gradient tile
//!
//! [`ConvTile::weight_grad_into`] is the f32 tile with weights and image
//! swapped: `dW[co, tap] = Σ_pixels G[co, pixel] · X[tap, pixel]`. Its
//! lanes run over output channels, read from a pixel-major copy of the
//! output gradient (one vector load per pixel and vector), and its
//! accumulators over taps: each pixel step broadcasts one bordered-image
//! value per tap, at the pixel's origin plus the tap's offset. One or two
//! channel vectors by up to [`CONV_GRAD_TAPS`] / vectors taps: twelve
//! accumulators either way. Each element is summed from `+0.0` over the
//! pixels in the order given, with a separate multiply and add, then added
//! into its output slot — the per-element sequence of the packed tile on
//! the unfolded `[pixels, taps]` matrix when the caller passes one `KC`
//! slab of pixels per call.
//!
//! # Unsafe policy
//!
//! Every `unsafe` block is a pointer load or store, or a call from a safe
//! wrapper into a `#[target_feature]` function; each sits behind a length
//! assert in [`ConvTile::f32_into`] / [`ConvTile::i16_into`] /
//! [`ConvTile::weight_grad_into`] / [`ConvTile::requantize_into`] and a proof-of-detection token
//! ([`ConvTile`] cannot be built without AVX2), so no argument safe code
//! can pass reads or writes out of bounds. The value intrinsics are safe
//! inside `#[target_feature(enable = "avx2")]`; the [`Lane`] methods that
//! wrap them are `unsafe` only because a trait method cannot carry a
//! target feature otherwise.
//!
//! # The store
//!
//! [`ConvTile::requantize_into`] maps the int8 engine's i32 accumulators
//! to the next layer's i8 grid, 32 at a time, with the op
//! sequence of `alf-tensor`'s scalar `requantize` — the definition of the
//! store, and the tail and non-AVX2 fallback — so the two agree bit for
//! bit on every input, NaN and ∞ scales included (`tests/proptests.rs`
//! checks it element for element).

use crate::{Placement, TapOffsets, CONV_GRAD_TAPS, CONV_LANES, CONV_MR};
use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_blendv_ps,
    _mm256_castps_si256, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_cvtepi32_ps,
    _mm256_cvttps_epi32, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_maskload_epi32, _mm256_maskload_ps, _mm256_maskstore_epi32, _mm256_maskstore_ps,
    _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_packs_epi16, _mm256_packs_epi32,
    _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
    _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256, _CMP_GE_OQ,
    _CMP_ORD_Q,
};

/// Elements one step of [`ConvTile::requantize_into`] stores: four i32
/// vectors narrowed into one 32-byte store.
const STORE_LANES: usize = 4 * CONV_LANES;

/// Proof that this host executes AVX2 — the only handle on the tile.
#[derive(Debug, Clone, Copy)]
pub struct ConvTile {
    _avx2: (),
}

impl ConvTile {
    /// The tile, when the host has AVX2.
    pub fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Self { _avx2: () })
    }

    /// Adds the product tile of one tap slab into the f32 `c`.
    ///
    /// `weights` holds [`CONV_MR`] lanes per tap (`weights[p·CONV_MR + r]`
    /// is filter `r`'s weight for tap `p`; lanes past `rows.len()` are
    /// never read), `rows[r]` is where filter `r`'s row starts in `c`, and
    /// `at` places the two vectors. Row `r`, lane `l < at.lanes[v]` of
    /// vector `v` receives `Σ_p weights[p·CONV_MR + r] ·
    /// image[at.image[v] + offsets[p] + l]`, accumulated as the module docs
    /// describe; nothing else in `c` is touched.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or longer than [`CONV_MR`], `weights`
    /// does not match `taps`, a lane count exceeds [`CONV_LANES`], or any
    /// read of `image` or write of `c` would fall outside the slice.
    pub fn f32_into(
        self,
        taps: TapOffsets<'_>,
        weights: &[f32],
        image: &[f32],
        c: &mut [f32],
        rows: &[usize],
        at: Placement,
    ) {
        self.run(taps, weights, image, c, rows, at);
    }

    /// [`ConvTile::f32_into`] for int8 operands held as i16 channel pairs,
    /// added into the i32 `c`.
    ///
    /// `image` is the pair-interleaved scratch and `weights[p·CONV_MR + r]`
    /// filter `r`'s packed weight pair for tap `p` (see the module docs);
    /// offsets and placements count i16 elements, two per pixel. Row `r`,
    /// lane `l < at.lanes[v]` of vector `v` receives `Σ_p Σ_{j<2}
    /// w_j(weights[p·CONV_MR + r]) · image[at.image[v] + offsets[p] + 2l +
    /// j]`, where `w_0` / `w_1` are the low / high i16 of the weight. Every
    /// value must lie in the i8 range (−128 ..= 127), which keeps each sum
    /// exact; nothing else in `c` is touched.
    ///
    /// # Panics
    ///
    /// As [`ConvTile::f32_into`].
    pub fn i16_into(
        self,
        taps: TapOffsets<'_>,
        weights: &[i32],
        image: &[i16],
        c: &mut [i32],
        rows: &[usize],
        at: Placement,
    ) {
        self.run(taps, weights, image, c, rows, at);
    }

    /// Adds one pixel slab's weight-gradient tile into the f32 `out`.
    ///
    /// `V` — one or two — is `out.len() / (taps.len() · CONV_LANES)`: the
    /// channel vectors of the tile. `grad[(j·V + v)·CONV_LANES + l]` is
    /// channel lane `v·CONV_LANES + l`'s output gradient at pixel `j` of the
    /// slab, and `pixels` holds each pixel's origin in `image`, against
    /// which `taps` are offsets as in [`ConvTile::f32_into`]. Lane `l` of
    /// `out[(t·V + v)·CONV_LANES ..]` receives
    /// `Σ_j grad[(j·V + v)·CONV_LANES + l] · image[pixels[j] + taps[t]]`,
    /// accumulated as the module docs describe; nothing else is touched. An
    /// empty `taps` does nothing.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not one or two vectors per tap, `taps` is
    /// longer than [`CONV_GRAD_TAPS`] / `V`, `grad` is not `V` vectors per
    /// pixel, or a read of `image` would fall outside the slice.
    pub fn weight_grad_into(
        self,
        taps: TapOffsets<'_>,
        pixels: TapOffsets<'_>,
        image: &[f32],
        grad: &[f32],
        out: &mut [f32],
    ) {
        if taps.is_empty() {
            return;
        }
        let v = out.len() / (taps.len() * CONV_LANES);
        assert!(
            (1..=2).contains(&v) && out.len() == v * taps.len() * CONV_LANES,
            "weight-grad tile: {} outputs for {} taps",
            out.len(),
            taps.len()
        );
        assert!(
            taps.len() <= CONV_GRAD_TAPS / v,
            "weight-grad tile: {} taps of {v} vectors",
            taps.len()
        );
        assert_eq!(
            grad.len(),
            pixels.len() * v * CONV_LANES,
            "weight-grad tile: gradient does not match the pixels"
        );
        assert!(
            pixels.is_empty() || fits([pixels.reach, taps.reach, 1], image.len()),
            "weight-grad tile: a tap reads past the padded image"
        );
        let (taps, pixels) = (taps.offsets, pixels.offsets);
        // SAFETY: `self` proves AVX2 was detected, each arm passes exactly
        // its tap and vector count, and the asserts above are the bounds
        // `grad_tile` documents.
        unsafe {
            macro_rules! by_taps {
                ($v:literal: $($t:literal)*) => {
                    match taps.len() {
                        $($t => grad_tile::<$t, $v>(taps, pixels, image, grad, out),)*
                        n => unreachable!("{n} taps"),
                    }
                };
            }
            if v == 1 {
                by_taps!(1: 1 2 3 4 5 6 7 8 9 10 11 12)
            } else {
                by_taps!(2: 1 2 3 4 5 6)
            }
        }
    }

    /// The int8 engine's requantizing store, 32 elements per step: `out[i]`
    /// becomes `alf-tensor`'s scalar `requantize(acc[i], deq, bias, relu,
    /// inv_out)` — the definition of the store, which these lanes
    /// reproduce bit for bit, NaN and ∞ scales included — for every `i`
    /// below the largest multiple of 32 in `acc.len()`. Returns that count;
    /// the caller stores the tail.
    ///
    /// # Panics
    ///
    /// Panics when `out` and `acc` differ in length.
    pub fn requantize_into(
        self,
        out: &mut [i8],
        acc: &[i32],
        deq: f32,
        bias: f32,
        relu: bool,
        inv_out: f32,
    ) -> usize {
        assert_eq!(
            out.len(),
            acc.len(),
            "requantize: {} outputs for {} accumulators",
            out.len(),
            acc.len()
        );
        let body = acc.len() - acc.len() % STORE_LANES;
        // SAFETY: `self` proves AVX2 was detected, and both slices hold
        // `body` elements, a multiple of STORE_LANES.
        unsafe {
            requantize_blocks(&mut out[..body], &acc[..body], deq, bias, relu, inv_out);
        }
        body
    }

    /// Checks every bound a tile's pointer accesses rely on, then runs the
    /// tile instantiated for the row count — a compile-time constant there,
    /// so the accumulators live in registers.
    fn run<L: Lane>(
        self,
        taps: TapOffsets<'_>,
        weights: &[L::Weight],
        image: &[L],
        c: &mut [L::Out],
        rows: &[usize],
        at: Placement,
    ) {
        assert_eq!(
            weights.len(),
            taps.len() * CONV_MR,
            "conv tile: weight panel does not match the tap table"
        );
        for v in 0..2 {
            assert!(
                at.lanes[v] <= CONV_LANES,
                "conv tile: {} lanes",
                at.lanes[v]
            );
            // Every load is a whole vector, live lanes or not.
            assert!(
                fits(
                    [at.image[v], taps.reach, L::GROUP * CONV_LANES],
                    image.len()
                ),
                "conv tile: vector {v} reads past the padded image"
            );
            for &row in rows {
                assert!(
                    fits([row, at.col[v], at.lanes[v]], c.len()),
                    "conv tile: vector {v} writes past C"
                );
            }
        }
        let offsets = taps.offsets;
        // SAFETY: `self` proves AVX2 was detected, each arm passes
        // `rows.len()` rows, and the asserts above are the bounds `tile`
        // documents.
        unsafe {
            match rows.len() {
                1 => tile::<1, L>(offsets, weights, image, c, rows, at),
                2 => tile::<2, L>(offsets, weights, image, c, rows, at),
                3 => tile::<3, L>(offsets, weights, image, c, rows, at),
                4 => tile::<4, L>(offsets, weights, image, c, rows, at),
                5 => tile::<5, L>(offsets, weights, image, c, rows, at),
                6 => tile::<6, L>(offsets, weights, image, c, rows, at),
                n => panic!("conv tile: {n} rows"),
            }
        }
    }
}

/// `a + b + c ≤ len`, false on overflow: memory safety rests on these sums,
/// and release builds wrap.
fn fits(parts: [usize; 3], len: usize) -> bool {
    parts[0]
        .checked_add(parts[1])
        .and_then(|s| s.checked_add(parts[2]))
        .is_some_and(|end| end <= len)
}

/// An element type of the padded image, and the tile's arithmetic on it.
///
/// Every method needs AVX2, which is why each is `unsafe`: the caller
/// vouches for the feature (and, for the pointer methods, for the memory).
trait Lane: Copy {
    /// Channels one pixel interleaves; a vector spans `GROUP · CONV_LANES`
    /// elements.
    const GROUP: usize;
    /// One filter's weight for one tap.
    type Weight: Copy;
    /// Element type of `C`.
    type Out: Copy;
    /// Eight lanes of image, broadcast weight or accumulator.
    type Vector: Copy;

    /// The accumulator a tile starts from.
    unsafe fn zero() -> Self::Vector;
    /// One vector of eight pixels from `src`.
    ///
    /// # Safety
    ///
    /// `src` must be valid for reading `GROUP · CONV_LANES` elements.
    unsafe fn load(src: *const Self) -> Self::Vector;
    /// `w` in every lane.
    unsafe fn broadcast(w: Self::Weight) -> Self::Vector;
    /// `acc + a·x` per lane — for a channel group, summed over the group.
    unsafe fn mul_add(acc: Self::Vector, a: Self::Vector, x: Self::Vector) -> Self::Vector;
    /// `dst[l] += acc[l]` for the lanes `mask` selects, touching no other.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for reading and writing every lane `mask`
    /// selects.
    unsafe fn add_masked(dst: *mut Self::Out, mask: __m256i, acc: Self::Vector);
}

impl Lane for f32 {
    const GROUP: usize = 1;
    type Weight = f32;
    type Out = f32;
    type Vector = __m256;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn zero() -> __m256 {
        _mm256_setzero_ps()
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(src: *const f32) -> __m256 {
        // SAFETY: the caller vouches for eight readable floats.
        unsafe { _mm256_loadu_ps(src) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn broadcast(w: f32) -> __m256 {
        _mm256_set1_ps(w)
    }

    /// A separate multiply and add: never contracted into an FMA.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_add(acc: __m256, a: __m256, x: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, x))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_masked(dst: *mut f32, mask: __m256i, acc: __m256) {
        // SAFETY: masked-off lanes are not accessed; the caller vouches for
        // the rest.
        unsafe {
            let sum = _mm256_add_ps(_mm256_maskload_ps(dst, mask), acc);
            _mm256_maskstore_ps(dst, mask, sum);
        }
    }
}

impl Lane for i16 {
    const GROUP: usize = 2;
    type Weight = i32;
    type Out = i32;
    type Vector = __m256i;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn zero() -> __m256i {
        _mm256_setzero_si256()
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(src: *const i16) -> __m256i {
        // SAFETY: the caller vouches for sixteen readable i16.
        unsafe { _mm256_loadu_si256(src.cast()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn broadcast(w: i32) -> __m256i {
        _mm256_set1_epi32(w)
    }

    /// `vpmaddwd`: both channels of a pair multiplied and added into one
    /// i32 lane, exactly (see the module docs for the range).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul_add(acc: __m256i, a: __m256i, x: __m256i) -> __m256i {
        _mm256_add_epi32(acc, _mm256_madd_epi16(a, x))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_masked(dst: *mut i32, mask: __m256i, acc: __m256i) {
        // SAFETY: masked-off lanes are not accessed; the caller vouches for
        // the rest.
        unsafe {
            let sum = _mm256_add_epi32(_mm256_maskload_epi32(dst, mask), acc);
            _mm256_maskstore_epi32(dst, mask, sum);
        }
    }
}

/// `acc[r][v] = Σ_p weights[p·CONV_MR + r] · x[v][offsets[p] ..]`, one
/// vector per tap, each lane accumulated from zero in ascending `p` with
/// [`Lane::mul_add`].
///
/// # Safety
///
/// AVX2 must be available, and for every `o` in `offsets` both `x[v].add(o)`
/// must be valid for reading one vector ([`Lane::load`]).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn accumulate<const R: usize, L: Lane>(
    offsets: &[usize],
    weights: &[L::Weight],
    x: [*const L; 2],
) -> [[L::Vector; 2]; R] {
    // SAFETY: AVX2 is enabled in this function.
    let zero = unsafe { L::zero() };
    let mut acc = [[zero; 2]; R];
    for (w, &o) in weights.chunks_exact(CONV_MR).zip(offsets) {
        let w: &[L::Weight; CONV_MR] = w.try_into().expect("chunks_exact yields CONV_MR lanes");
        // SAFETY: the caller guarantees one readable vector at offset `o`
        // from both vector origins.
        let (x0, x1) = unsafe { (L::load(x[0].add(o)), L::load(x[1].add(o))) };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: value intrinsics only, and AVX2 is enabled here.
            unsafe {
                let a = L::broadcast(w[r]);
                acc_r[0] = L::mul_add(acc_r[0], a, x0);
                acc_r[1] = L::mul_add(acc_r[1], a, x1);
            }
        }
    }
    acc
}

/// All-ones in the first `lanes` 32-bit lanes.
#[target_feature(enable = "avx2")]
#[inline]
fn lane_mask(lanes: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(lanes as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// One tile of `R` rows: accumulate over `offsets`, then add into `c`.
///
/// # Safety
///
/// AVX2 must be available; `rows.len() == R`; `image[at.image[v] + o ..]`
/// must hold one vector (`L::GROUP · 8` elements) for every `o` in
/// `offsets` (and for `o = 0`) and both `v`; and `c[row + at.col[v] ..]`
/// must hold `at.lanes[v] ≤ 8` elements for every `row` in `rows` and both
/// `v`.
#[target_feature(enable = "avx2")]
unsafe fn tile<const R: usize, L: Lane>(
    offsets: &[usize],
    weights: &[L::Weight],
    image: &[L],
    c: &mut [L::Out],
    rows: &[usize],
    at: Placement,
) {
    let (image, c) = (image.as_ptr(), c.as_mut_ptr());
    // SAFETY: both origins are inside `image`, and one vector is readable
    // at every tap offset from them (the caller's bound).
    let acc = unsafe { accumulate::<R, L>(offsets, weights, at.image.map(|i| image.add(i))) };
    for (acc_r, &row) in acc.iter().zip(rows) {
        for (v, &acc_rv) in acc_r.iter().enumerate() {
            // SAFETY: the mask selects the first `at.lanes[v]` elements at
            // `row + at.col[v]`, which the caller guarantees lie inside `c`.
            unsafe { L::add_masked(c.add(row + at.col[v]), lane_mask(at.lanes[v]), acc_rv) };
        }
    }
}

/// One weight-gradient tile of `T` taps × `V` channel vectors: accumulate
/// over the slab's pixels, then add into `out`.
///
/// Written with index loops and raw pointers on purpose: the same body over
/// `zip`/`chunks_exact` adapters instantiated iterator code in the codegen
/// unit of the crate's packed tiles, and `microkernel_into` came out in
/// its slow shuffle form (29 → 86 µs on a stride-2 input gradient's
/// `Wᵀ·G`; see the crate docs).
///
/// # Safety
///
/// AVX2 must be available; `taps.len() == T`; `grad` holds `V` vectors per
/// entry of `pixels`; `out` holds `T·V` vectors; and `image[p + o]` must be
/// readable for every `p` in `pixels` and `o` in `taps`.
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)] // the index loops above
unsafe fn grad_tile<const T: usize, const V: usize>(
    taps: &[usize],
    pixels: &[usize],
    image: &[f32],
    grad: &[f32],
    out: &mut [f32],
) {
    let (image, grad, out) = (image.as_ptr(), grad.as_ptr(), out.as_mut_ptr());
    let mut acc = [[_mm256_setzero_ps(); V]; T];
    let mut offsets = [0usize; T];
    offsets.copy_from_slice(taps);
    for j in 0..pixels.len() {
        let origin = pixels[j];
        let mut lanes = [_mm256_setzero_ps(); V];
        for v in 0..V {
            // SAFETY: `grad` holds V vectors per pixel.
            lanes[v] = unsafe { _mm256_loadu_ps(grad.add((j * V + v) * CONV_LANES)) };
        }
        for t in 0..T {
            // SAFETY: `origin + offsets[t]` is inside `image` (the caller's bound).
            let x = _mm256_set1_ps(unsafe { *image.add(origin + offsets[t]) });
            for v in 0..V {
                acc[t][v] = _mm256_add_ps(acc[t][v], _mm256_mul_ps(lanes[v], x));
            }
        }
    }
    for t in 0..T {
        for v in 0..V {
            // SAFETY: `out` holds T·V vectors.
            unsafe {
                let dst = out.add((t * V + v) * CONV_LANES);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc[t][v]));
            }
        }
    }
}

/// [`ConvTile::requantize_into`] over whole [`STORE_LANES`]-element blocks.
///
/// # Safety
///
/// AVX2 must be available, and `out` and `acc` must have the same length,
/// a multiple of [`STORE_LANES`].
#[target_feature(enable = "avx2")]
unsafe fn requantize_blocks(
    out: &mut [i8],
    acc: &[i32],
    deq: f32,
    bias: f32,
    relu: bool,
    inv_out: f32,
) {
    let scales = [deq, bias, inv_out].map(|s| _mm256_set1_ps(s));
    // `packs` narrows within 128-bit halves; this puts the four vectors'
    // 4-byte groups back in order.
    let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (dst, src) in out
        .chunks_exact_mut(STORE_LANES)
        .zip(acc.chunks_exact(STORE_LANES))
    {
        let src = src.as_ptr();
        // SAFETY: `src` holds STORE_LANES = 4·8 readable i32.
        let q = unsafe {
            [0, 1, 2, 3].map(|v| {
                requantize_vector(
                    _mm256_loadu_si256(src.add(v * CONV_LANES).cast()),
                    scales,
                    relu,
                )
            })
        };
        let bytes = _mm256_packs_epi16(
            _mm256_packs_epi32(q[0], q[1]),
            _mm256_packs_epi32(q[2], q[3]),
        );
        // SAFETY: `dst` holds STORE_LANES = 32 writable bytes.
        unsafe {
            _mm256_storeu_si256(
                dst.as_mut_ptr().cast(),
                _mm256_permutevar8x32_epi32(bytes, order),
            );
        }
    }
}

/// Eight lanes of the scalar store, op for op: `acc as f32 · deq + bias`
/// (no FMA), `max(v, 0)` for the ReLU (`maxps` returns its second operand
/// for a NaN, as `f32::max` returns the non-NaN one), `· inv_out`, `± 0.5`
/// by `r ≥ 0` (a NaN takes −0.5), the clamp as `min(127, max(−127, t))`
/// (each returns its NaN second operand, so a NaN passes as `clamp` lets
/// it), then truncation with NaN lanes masked to the `as i8` cast's 0.
/// Lanes leave in [−127, 127], so the narrowing `packs` never saturate.
#[target_feature(enable = "avx2")]
#[inline]
fn requantize_vector(acc: __m256i, [deq, bias, inv_out]: [__m256; 3], relu: bool) -> __m256i {
    let mut v = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), deq), bias);
    if relu {
        v = _mm256_max_ps(v, _mm256_setzero_ps());
    }
    let r = _mm256_mul_ps(v, inv_out);
    let half = _mm256_blendv_ps(
        _mm256_set1_ps(-0.5),
        _mm256_set1_ps(0.5),
        _mm256_cmp_ps::<_CMP_GE_OQ>(r, _mm256_setzero_ps()),
    );
    let t = _mm256_min_ps(
        _mm256_set1_ps(127.0),
        _mm256_max_ps(_mm256_set1_ps(-127.0), _mm256_add_ps(r, half)),
    );
    let ordered = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(t, t));
    _mm256_and_si256(_mm256_cvttps_epi32(t), ordered)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both vector placements, in pixels: sixteen pixels of one row
    /// (ragged: 8 + 5 live), and eight pixels of two rows (7 live each).
    fn placements(wp: usize) -> [Placement; 2] {
        [
            Placement {
                image: [wp + 1, wp + 1 + CONV_LANES],
                col: [3, 3 + CONV_LANES],
                lanes: [8, 5],
            },
            Placement {
                image: [2 * wp, 3 * wp],
                col: [0, 7],
                lanes: [7, 7],
            },
        ]
    }

    /// `rows` row starts of a `C` with rows `stride` apart, out of order
    /// and unevenly spaced, as a row gather scatters them.
    fn row_starts(nrows: usize, stride: usize) -> Vec<usize> {
        (0..nrows).map(|r| ((r * 5) % 7) * stride).collect()
    }

    /// `want[row + at.col[v] + l] += value(r, at.image[v], l)` for every
    /// live lane of `at`.
    fn expected<T: Copy + core::ops::AddAssign>(
        want: &mut [T],
        rows: &[usize],
        at: Placement,
        value: impl Fn(usize, usize, usize) -> T,
    ) {
        for (r, &row) in rows.iter().enumerate() {
            for v in 0..2 {
                for l in 0..at.lanes[v] {
                    want[row + at.col[v] + l] += value(r, at.image[v], l);
                }
            }
        }
    }

    /// A `[ci, hp, wp]` f32 image plus slack, its tap table for a `kk`×`kk`
    /// kernel, and a `taps × CONV_MR` weight panel.
    struct Case {
        image: Vec<f32>,
        offsets: Vec<usize>,
        weights: Vec<f32>,
        wp: usize,
    }

    fn make_case(ci: usize, hp: usize, wp: usize, kk: usize) -> Case {
        let value = |i: usize, mul: usize| ((i * mul) % 29) as f32 * 0.173 - 2.4;
        let offsets: Vec<usize> = (0..ci * kk * kk)
            .map(|p| (p / (kk * kk) * hp + p / kk % kk) * wp + p % kk)
            .collect();
        Case {
            image: (0..ci * hp * wp + wp + 2 * CONV_LANES)
                .map(|i| value(i, 37))
                .collect(),
            weights: (0..offsets.len() * CONV_MR).map(|i| value(i, 91)).collect(),
            offsets,
            wp,
        }
    }

    /// The packed tiles' per-element sequence, one scalar at a time.
    fn reference(case: &Case, row: usize, origin: usize, lane: usize) -> f32 {
        let mut acc = 0.0f32;
        for (p, &o) in case.offsets.iter().enumerate() {
            acc += case.weights[p * CONV_MR + row] * case.image[origin + o + lane];
        }
        acc
    }

    #[test]
    fn f32_tile_is_bitwise_the_scalar_sequence_for_every_row_count() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(3, 9, 20, 3);
        let taps = TapOffsets::new(&case.offsets);
        let stride = 40;
        for nrows in 1..=CONV_MR {
            for at in placements(case.wp) {
                let rows = row_starts(nrows, stride);
                let mut c = vec![0.75f32; 7 * stride];
                tile.f32_into(taps, &case.weights, &case.image, &mut c, &rows, at);
                let mut want = vec![0.75f32; 7 * stride];
                expected(&mut want, &rows, at, |r, origin, l| {
                    reference(&case, r, origin, l)
                });
                let same = c.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{nrows} rows at {at:?}");
            }
        }
    }

    #[test]
    fn weight_grad_tile_is_bitwise_the_scalar_sequence_for_every_shape() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(2, 9, 20, 3);
        let value = |i: usize| ((i * 53) % 31) as f32 * 0.211 - 3.1;
        // Origins out of order and one repeated, as a slab crossing an
        // image boundary has them; the image's slack covers the taps.
        let pixels: Vec<usize> = (0..37).map(|j| (j * 29) % 151).collect();
        for v in 1..=2 {
            for ntaps in 1..=CONV_GRAD_TAPS / v {
                let taps = &case.offsets[3..3 + ntaps];
                let grad: Vec<f32> = (0..pixels.len() * v * CONV_LANES).map(value).collect();
                let mut out: Vec<f32> = (0..ntaps * v * CONV_LANES).map(|i| value(i + 7)).collect();
                let mut want = out.clone();
                tile.weight_grad_into(
                    TapOffsets::new(taps),
                    TapOffsets::new(&pixels),
                    &case.image,
                    &grad,
                    &mut out,
                );
                for (i, w) in want.iter_mut().enumerate() {
                    let (t, lane) = (i / (v * CONV_LANES), i % (v * CONV_LANES));
                    let mut acc = 0.0f32;
                    for (j, &p) in pixels.iter().enumerate() {
                        acc += grad[j * v * CONV_LANES + lane] * case.image[p + taps[t]];
                    }
                    *w += acc;
                }
                let same = out
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{v} vectors × {ntaps} taps");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a tap reads past the padded image")]
    fn a_weight_grad_tap_that_would_read_out_of_bounds_is_refused() {
        let Some(tile) = ConvTile::detect() else {
            panic!("a tap reads past the padded image (skipped: host has no AVX2)");
        };
        // Pixel 7 plus tap 3 reads element 10 of ten.
        let image = vec![0.0f32; 10];
        let mut out = vec![0.0f32; 2 * CONV_LANES];
        tile.weight_grad_into(
            TapOffsets::new(&[0, 3]),
            TapOffsets::new(&[7, 1]),
            &image,
            &[0.0; 2 * CONV_LANES],
            &mut out,
        );
    }

    /// An int8 convolution in two layouts: `[ci, hp, wp]` values and
    /// `[ci·kk², CONV_MR]` weights for the triple loop, and the tile's
    /// pair-interleaved `[⌈ci/2⌉, hp, wp, 2]` i16 image (plus one row and
    /// two vectors of slack), pair tap table and packed weight panel.
    struct PairCase {
        ci: usize,
        kk: usize,
        plane: usize,
        wp: usize,
        values: Vec<i32>,
        weights: Vec<i32>,
        image: Vec<i16>,
        offsets: Vec<usize>,
        packed: Vec<i32>,
    }

    /// `w[c]` in the low half, `w[c+1]` in the high half.
    fn pair(lo: i32, hi: i32) -> i32 {
        let [a, b] = (lo as i16).to_ne_bytes();
        let [c, d] = (hi as i16).to_ne_bytes();
        i32::from_ne_bytes([a, b, c, d])
    }

    /// Values walk the whole i8 range, −128 and 127 included. An odd
    /// `ci`'s missing channel holds −128 in the image: its zero weight, not
    /// the image, must keep it out of the sum.
    fn make_pair_case(ci: usize, hp: usize, wp: usize, kk: usize) -> PairCase {
        let (plane, groups, k2) = (hp * wp, ci.div_ceil(2), kk * kk);
        let i8_at = |i: usize, mul: usize| i32::from(((i * mul + 11) % 256) as u8 as i8);
        let values: Vec<i32> = (0..ci * plane).map(|i| i8_at(i, 37)).collect();
        let weights: Vec<i32> = (0..ci * k2 * CONV_MR).map(|i| i8_at(i, 91)).collect();
        let slack = wp + 2 * CONV_LANES;
        let mut image = vec![-128i16; (groups * plane + slack) * 2];
        for (c, chan) in values.chunks_exact(plane).enumerate() {
            for (q, &v) in chan.iter().enumerate() {
                image[(c / 2 * plane + q) * 2 + c % 2] = v as i16;
            }
        }
        let offsets: Vec<usize> = (0..groups * k2)
            .map(|p| ((p / k2 * hp + p / kk % kk) * wp + p % kk) * 2)
            .collect();
        let weight = |c: usize, s: usize, r: usize| {
            if c < ci {
                weights[(c * k2 + s) * CONV_MR + r]
            } else {
                0
            }
        };
        let packed = (0..groups * k2 * CONV_MR)
            .map(|i| {
                let (p, r) = (i / CONV_MR, i % CONV_MR);
                let (g, s) = (p / k2, p % k2);
                pair(weight(2 * g, s, r), weight(2 * g + 1, s, r))
            })
            .collect();
        PairCase {
            ci,
            kk,
            plane,
            wp,
            values,
            weights,
            image,
            offsets,
            packed,
        }
    }

    /// Filter `r`'s output at pixel `origin + lane`: the i32 triple loop
    /// over channels and taps, on the planar layout.
    fn pair_reference(case: &PairCase, r: usize, origin: usize, lane: usize) -> i32 {
        let mut acc = 0;
        for c in 0..case.ci {
            for s in 0..case.kk * case.kk {
                let q = origin + lane + s / case.kk * case.wp + s % case.kk;
                assert!(q < case.plane, "reference reads inside its plane");
                acc += case.weights[(c * case.kk * case.kk + s) * CONV_MR + r]
                    * case.values[c * case.plane + q];
            }
        }
        acc
    }

    #[test]
    fn i16_tile_is_the_i32_triple_loop_for_every_row_count_and_odd_channels() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let stride = 40;
        for (ci, kk) in [(3, 3), (4, 3), (1, 1), (5, 1), (2, 5)] {
            let case = make_pair_case(ci, 9, 20, kk);
            let taps = TapOffsets::new(&case.offsets);
            for nrows in 1..=CONV_MR {
                for at in placements(case.wp) {
                    let rows = row_starts(nrows, stride);
                    let mut c = vec![-3i32; 7 * stride];
                    let elems = Placement {
                        image: at.image.map(|q| 2 * q),
                        ..at
                    };
                    tile.i16_into(taps, &case.packed, &case.image, &mut c, &rows, elems);
                    let mut want = vec![-3i32; 7 * stride];
                    expected(&mut want, &rows, at, |r, origin, l| {
                        pair_reference(&case, r, origin, l)
                    });
                    assert_eq!(c, want, "ci {ci}, {kk}×{kk}, {nrows} rows at {at:?}");
                }
            }
        }
    }

    #[test]
    fn i16_extreme_values_stay_exact_over_a_deep_slab() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        // −128 · −128 in both halves of every pair: each `vpmaddwd` lane
        // is 2¹⁵, the one sum an i16 `madd` can form that no i8 quantizer
        // step (±127) reaches. 2¹⁶ − 1 such taps end 2¹⁵ short of 2³¹, the
        // deepest dot product the module docs call exact.
        let depth = (1 << 16) - 1;
        let offsets: Vec<usize> = vec![0; depth];
        let image = vec![-128i16; 2 * CONV_LANES];
        let weights = vec![pair(-128, -128); depth * CONV_MR];
        let rows: Vec<usize> = (0..CONV_MR).map(|r| r * 16).collect();
        let at = Placement {
            image: [0, 0],
            col: [0, CONV_LANES],
            lanes: [8, 8],
        };
        let mut c = vec![0i32; CONV_MR * 16];
        let taps = TapOffsets::new(&offsets);
        tile.i16_into(taps, &weights, &image, &mut c, &rows, at);
        assert!(c.iter().all(|&v| v == i32::MAX - ((1 << 15) - 1)));
        // 127 against −128: the most negative product pair.
        let weights = vec![pair(127, 127); depth * CONV_MR];
        c.fill(0);
        tile.i16_into(taps, &weights, &image, &mut c, &rows, at);
        assert!(c.iter().all(|&v| v == -2 * 127 * 128 * depth as i32));
    }

    #[test]
    fn dead_lanes_and_empty_slabs_leave_c_alone() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(1, 4, 12, 2);
        let mut c = vec![2.0f32; 24];
        let at = Placement {
            image: [0, case.wp],
            col: [4, 16],
            lanes: [3, 0],
        };
        let taps = TapOffsets::new(&case.offsets);
        tile.f32_into(taps, &case.weights, &case.image, &mut c, &[0], at);
        for (j, &v) in c.iter().enumerate() {
            assert_eq!(v != 2.0, (4..7).contains(&j), "column {j}");
        }
        let before = c.clone();
        tile.f32_into(taps.slab(0..0), &[], &case.image, &mut c, &[0], at);
        assert_eq!(c, before);
    }

    #[test]
    #[should_panic(expected = "reads past the padded image")]
    fn a_vector_that_would_read_out_of_bounds_is_refused() {
        let Some(tile) = ConvTile::detect() else {
            panic!("reads past the padded image (skipped: host has no AVX2)");
        };
        let offsets = [0usize, 5];
        let image = vec![0.0f32; 20];
        let at = Placement {
            image: [0, 8], // 8 + 5 + 8 > 20
            col: [0, 8],
            lanes: [8, 8],
        };
        let mut c = vec![0.0f32; 16];
        tile.f32_into(
            TapOffsets::new(&offsets),
            &[0.0; 2 * CONV_MR],
            &image,
            &mut c,
            &[0],
            at,
        );
    }

    #[test]
    #[should_panic(expected = "vector 1 reads past the padded image")]
    fn an_i16_vector_reads_two_elements_per_pixel() {
        let Some(tile) = ConvTile::detect() else {
            panic!("vector 1 reads past the padded image (skipped: host has no AVX2)");
        };
        // Vector 1 starts at element 10 and the taps reach 2 further: eight
        // f32 pixels would end at 20, eight i16 pairs end at 28.
        let offsets = [0usize, 2];
        let image = vec![0i16; 27];
        let at = Placement {
            image: [0, 10],
            col: [0, 8],
            lanes: [8, 8],
        };
        let mut c = vec![0i32; 16];
        tile.i16_into(
            TapOffsets::new(&offsets),
            &[0; 2 * CONV_MR],
            &image,
            &mut c,
            &[0],
            at,
        );
    }
}
