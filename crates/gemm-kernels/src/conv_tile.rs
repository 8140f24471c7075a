//! The pack-free stride-1 convolution tile and the int8 requantizing store,
//! in explicit AVX2 — the one module of the workspace that contains
//! `unsafe`.
//!
//! The packed tiles in the crate root consume a `B` panel somebody gathered
//! out of the image first. For a convolution with few filters that gather
//! *is* the layer: at `m = 5` every value packed, stored and re-loaded feeds
//! five multiply-adds of an eight-row tile. This tile reads the image in
//! place instead. The caller copies one image into a zero-bordered
//! `[ci, h+2p, w+2p]` f32 scratch; at stride 1 the eight pixels right of an
//! output pixel's tap are the taps of its eight right-hand neighbours, so
//! one unaligned 256-bit load at `origin + offset[tap]` *is* the panel row
//! `pack_b_image` would have built, and nothing is packed.
//!
//! The register tile is [`CONV_MR`] filters × two `__m256` (twelve
//! accumulators, two image vectors and one broadcast weight: fifteen of the
//! sixteen AVX2 registers). The two vectors sit at independent positions
//! ([`Placement`]): side by side they are sixteen pixels of one output row,
//! one image row apart they are eight pixels of two output rows, which is
//! how feature maps no wider than a vector keep both busy.
//!
//! **Bit for bit the packed tiles.** Per element the operation sequence is
//! the one `microkernel_into` / `microkernel_i8_into` run on packed panels:
//! an accumulator that starts at `+0.0`, `acc = acc + a·x` per tap in
//! ascending tap order with a separate multiply and add (the intrinsics are
//! never contracted into an FMA), then `C += acc` (`C += acc as i32` for
//! int8, `vcvttps2dq` of an exact integer). The caller flushes every `KC`
//! taps by calling once per slab, as the blocked driver does. Border taps
//! multiply a stored `0.0` exactly as the packed panel's padding lanes do.
//!
//! # Unsafe policy
//!
//! Every `unsafe` block is a pointer load or store, or a call from a safe
//! wrapper into a `#[target_feature]` function; each sits behind a length
//! assert in [`ConvTile::f32_into`] / [`ConvTile::i8_into`] /
//! [`ConvTile::requantize_into`] and a proof-of-detection token
//! ([`ConvTile`] cannot be built without AVX2), so no argument safe code
//! can pass reads or writes out of bounds. The value intrinsics are safe
//! inside `#[target_feature(enable = "avx2")]`.
//!
//! # The store
//!
//! [`ConvTile::requantize_into`] maps the int8 engine's i32 accumulators
//! to the next layer's i8 grid, 32 at a time, with the op
//! sequence of `alf-tensor`'s scalar `requantize` — the definition of the
//! store, and the tail and non-AVX2 fallback — so the two agree bit for
//! bit on every input, NaN and ∞ scales included (`tests/proptests.rs`
//! checks it element for element).

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_blendv_ps,
    _mm256_castps_si256, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_cvtepi32_ps,
    _mm256_cvttps_epi32, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_epi32,
    _mm256_maskload_ps, _mm256_maskstore_epi32, _mm256_maskstore_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_mul_ps, _mm256_packs_epi16, _mm256_packs_epi32, _mm256_permutevar8x32_epi32,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_si256,
    _CMP_GE_OQ, _CMP_ORD_Q,
};
use core::ops::Range;

use crate::I8_EXACT_DEPTH;

/// Filters (rows of `C`) one tile accumulates.
pub const CONV_MR: usize = 6;

/// Pixels per vector of the tile; a tile covers two vectors.
pub const CONV_LANES: usize = 8;

/// Elements one step of [`ConvTile::requantize_into`] stores: four i32
/// vectors narrowed into one 32-byte store.
const STORE_LANES: usize = 4 * CONV_LANES;

/// A tap-offset table whose reach has been measured: `offsets[p]` is the
/// distance, in the padded image, from a tile vector's first pixel to the
/// pixel tap `p` multiplies. Built once per convolution so the per-tile
/// bounds check is one comparison instead of a scan.
#[derive(Debug, Clone, Copy)]
pub struct TapOffsets<'a> {
    offsets: &'a [usize],
    /// Largest offset of the table this view was cut from.
    reach: usize,
}

impl<'a> TapOffsets<'a> {
    /// Measures `offsets`.
    pub fn new(offsets: &'a [usize]) -> Self {
        Self {
            offsets,
            reach: offsets.iter().copied().max().unwrap_or(0),
        }
    }

    /// The taps `range` of this table (one `KC` slab), keeping the whole
    /// table's reach as a conservative bound.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds.
    pub fn slab(&self, range: Range<usize>) -> Self {
        Self {
            offsets: &self.offsets[range],
            reach: self.reach,
        }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the table has no taps.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// Where a tile's two vectors sit: vector `v` covers the `lanes[v]` output
/// pixels (`≤` [`CONV_LANES`]; lanes past it are computed and discarded)
/// whose tap-0 pixels start at `image[v]` in the padded image and whose
/// products land at column `col[v]` of each filter's row of `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Padded-image index of each vector's first tap-0 pixel.
    pub image: [usize; 2],
    /// Column, relative to each row start, of each vector's first lane.
    pub col: [usize; 2],
    /// Live lanes of each vector; `0` switches a vector's write-back off.
    pub lanes: [usize; 2],
}

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

    /// [`ConvTile::f32_into`] for int8 operands widened into f32 lanes:
    /// the same accumulation, exact because a slab of at most 1040 taps
    /// keeps every partial sum an f32-representable integer, converted and
    /// added into the i32 `c`.
    ///
    /// # Panics
    ///
    /// As [`ConvTile::f32_into`]; debug builds also reject a slab too deep
    /// for exact accumulation.
    pub fn i8_into(
        self,
        taps: TapOffsets<'_>,
        weights: &[f32],
        image: &[f32],
        c: &mut [i32],
        rows: &[usize],
        at: Placement,
    ) {
        debug_assert!(
            taps.len() <= I8_EXACT_DEPTH,
            "i8 slab too deep for exact f32 accumulation"
        );
        self.run(taps, weights, image, c, rows, at);
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
    fn run<C: Acc>(
        self,
        taps: TapOffsets<'_>,
        weights: &[f32],
        image: &[f32],
        c: &mut [C],
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
                fits([at.image[v], taps.reach, CONV_LANES], image.len()),
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
                1 => tile::<1, C>(offsets, weights, image, c, rows, at),
                2 => tile::<2, C>(offsets, weights, image, c, rows, at),
                3 => tile::<3, C>(offsets, weights, image, c, rows, at),
                4 => tile::<4, C>(offsets, weights, image, c, rows, at),
                5 => tile::<5, C>(offsets, weights, image, c, rows, at),
                6 => tile::<6, C>(offsets, weights, image, c, rows, at),
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

/// `acc[r][v] = Σ_p weights[p·CONV_MR + r] · x[v][offsets[p] ..][.. 8]`,
/// each lane accumulated from `+0.0` in ascending `p` with a separate
/// multiply and add.
///
/// # Safety
///
/// AVX2 must be available, and for every `o` in `offsets` both `x[v].add(o)`
/// must be valid for reading eight `f32`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn accumulate<const R: usize>(
    offsets: &[usize],
    weights: &[f32],
    x: [*const f32; 2],
) -> [[__m256; 2]; R] {
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    for (w, &o) in weights.chunks_exact(CONV_MR).zip(offsets) {
        let w: &[f32; CONV_MR] = w.try_into().expect("chunks_exact yields CONV_MR lanes");
        // SAFETY: the caller guarantees eight readable floats at offset
        // `o` from both vector origins.
        let (x0, x1) = unsafe { (_mm256_loadu_ps(x[0].add(o)), _mm256_loadu_ps(x[1].add(o))) };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = _mm256_set1_ps(w[r]);
            acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(a, x0));
            acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(a, x1));
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

/// An element type of `C`: how a finished accumulator is added into it.
trait Acc: Copy {
    /// `dst[l] += acc[l]` for the lanes `mask` selects, touching no other.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `dst` must be valid for reading and
    /// writing every lane `mask` selects.
    unsafe fn add_masked(dst: *mut Self, mask: __m256i, acc: __m256);
}

impl Acc for f32 {
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

impl Acc for i32 {
    /// The accumulator holds an integer below 2²⁴, so the truncating
    /// conversion is exact — the packed tile's `v as i32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_masked(dst: *mut i32, mask: __m256i, acc: __m256) {
        // SAFETY: masked-off lanes are not accessed; the caller vouches for
        // the rest.
        unsafe {
            let sum = _mm256_add_epi32(_mm256_maskload_epi32(dst, mask), _mm256_cvttps_epi32(acc));
            _mm256_maskstore_epi32(dst, mask, sum);
        }
    }
}

/// One tile of `R` rows: accumulate over `offsets`, then add into `c`.
///
/// # Safety
///
/// AVX2 must be available; `rows.len() == R`; `image[at.image[v] + o ..]`
/// must hold eight floats for every `o` in `offsets` (and for `o = 0`) and
/// both `v`; and `c[row + at.col[v] ..]` must hold `at.lanes[v] ≤ 8`
/// elements for every `row` in `rows` and both `v`.
#[target_feature(enable = "avx2")]
unsafe fn tile<const R: usize, C: Acc>(
    offsets: &[usize],
    weights: &[f32],
    image: &[f32],
    c: &mut [C],
    rows: &[usize],
    at: Placement,
) {
    let (image, c) = (image.as_ptr(), c.as_mut_ptr());
    // SAFETY: both origins are inside `image`, and eight floats are
    // readable at every tap offset from them (the caller's bound).
    let acc = unsafe { accumulate::<R>(offsets, weights, at.image.map(|i| image.add(i))) };
    for (acc_r, &row) in acc.iter().zip(rows) {
        for (v, &acc_rv) in acc_r.iter().enumerate() {
            // SAFETY: the mask selects the first `at.lanes[v]` elements at
            // `row + at.col[v]`, which the caller guarantees lie inside `c`.
            unsafe { C::add_masked(c.add(row + at.col[v]), lane_mask(at.lanes[v]), acc_rv) };
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

    /// A `[ci, hp, wp]` padded image plus slack, its tap table for a `kk`×`kk`
    /// kernel, and a `taps × CONV_MR` weight panel.
    struct Case {
        image: Vec<f32>,
        offsets: Vec<usize>,
        weights: Vec<f32>,
        wp: usize,
    }

    fn make_case(ci: usize, hp: usize, wp: usize, kk: usize, int: bool) -> Case {
        let value = |i: usize, mul: usize| {
            if int {
                f32::from(((i * mul + 11) % 255) as u8 as i8)
            } else {
                ((i * mul) % 29) as f32 * 0.173 - 2.4
            }
        };
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

    /// Both vector placements: sixteen pixels of one row (ragged: 8 + 5
    /// live), and eight pixels of two rows (7 live each).
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

    #[test]
    fn f32_tile_is_bitwise_the_scalar_sequence_for_every_row_count() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(3, 9, 20, 3, false);
        let taps = TapOffsets::new(&case.offsets);
        let stride = 40;
        for nrows in 1..=CONV_MR {
            for at in placements(case.wp) {
                // Rows out of order and unevenly spaced, as a row gather
                // scatters them.
                let rows: Vec<usize> = (0..nrows).map(|r| ((r * 5) % 7) * stride).collect();
                let mut c = vec![0.75f32; 7 * stride];
                tile.f32_into(taps, &case.weights, &case.image, &mut c, &rows, at);
                let mut want = vec![0.75f32; 7 * stride];
                for (r, &row) in rows.iter().enumerate() {
                    for v in 0..2 {
                        for l in 0..at.lanes[v] {
                            want[row + at.col[v] + l] += reference(&case, r, at.image[v], l);
                        }
                    }
                }
                let same = c.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{nrows} rows at {at:?}");
            }
        }
    }

    #[test]
    fn i8_tile_is_exact_for_every_row_count() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(2, 8, 19, 3, true);
        let taps = TapOffsets::new(&case.offsets);
        let stride = 32;
        for nrows in 1..=CONV_MR {
            for at in placements(case.wp) {
                let rows: Vec<usize> = (0..nrows).map(|r| (CONV_MR - 1 - r) * stride).collect();
                let mut c = vec![-3i32; CONV_MR * stride];
                tile.i8_into(taps, &case.weights, &case.image, &mut c, &rows, at);
                let mut want = vec![-3i32; CONV_MR * stride];
                for (r, &row) in rows.iter().enumerate() {
                    for v in 0..2 {
                        for l in 0..at.lanes[v] {
                            let sum: i32 = case
                                .offsets
                                .iter()
                                .enumerate()
                                .map(|(p, &o)| {
                                    case.weights[p * CONV_MR + r] as i32
                                        * case.image[at.image[v] + o + l] as i32
                                })
                                .sum();
                            want[row + at.col[v] + l] += sum;
                        }
                    }
                }
                assert_eq!(c, want, "{nrows} rows at {at:?}");
            }
        }
    }

    #[test]
    fn i8_extreme_values_stay_exact_over_a_full_slab() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        // ±127 · ∓127 over a KC-deep slab: the worst partial sums.
        let kc = 256;
        let offsets: Vec<usize> = (0..kc).collect();
        let image = vec![-127.0f32; kc + 2 * CONV_LANES];
        let weights = vec![127.0f32; kc * CONV_MR];
        let rows: Vec<usize> = (0..CONV_MR).map(|r| r * 16).collect();
        let at = Placement {
            image: [0, CONV_LANES],
            col: [0, CONV_LANES],
            lanes: [8, 8],
        };
        let mut c = vec![0i32; CONV_MR * 16];
        tile.i8_into(
            TapOffsets::new(&offsets),
            &weights,
            &image,
            &mut c,
            &rows,
            at,
        );
        assert!(c.iter().all(|&v| v == -16129 * kc as i32));
    }

    #[test]
    fn dead_lanes_and_empty_slabs_leave_c_alone() {
        let Some(tile) = ConvTile::detect() else {
            eprintln!("skipped: host has no AVX2");
            return;
        };
        let case = make_case(1, 4, 12, 2, false);
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
}
