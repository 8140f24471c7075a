//! Register-tiled GEMM micro-kernels for the blocked matrix multiply in
//! `alf-tensor`, and the pack-free convolution tile and the int8 store
//! beside them.
//!
//! # Which tile is written how
//!
//! * [`microkernel_into`], [`microkernel_into_clipped`] and
//!   [`microkernel_i8_into`] — the `MR`×`NR` tiles every *packed* product
//!   runs on — are safe Rust that **leans on the auto-vectorizer**, and
//!   through it on this crate's isolation and the root `lto = false` (next
//!   section). They are also the portable route: they run on any target.
//! * [`ConvTile`] — the [`CONV_MR`]-row, two-vector tile convolutions of
//!   any stride (k×k and 1×1; a strided one reads its image split into
//!   phase planes, which makes it stride 1 to the tile) run on — is
//!   **explicit AVX2** (`core::arch`
//!   intrinsics in the `conv_tile` module, compiled on x86-64 only and
//!   handed out only after `is_x86_feature_detected!("avx2")`), in f32
//!   lanes ([`ConvTile::f32_into`]) or, for int8, in i16 channel pairs
//!   multiplied into i32 lanes by `vpmaddwd` ([`ConvTile::i16_into`]). Its
//!   codegen does not depend on the vectorizer's mood; the auto-vectorised
//!   form of the same tile spills its accumulators and ran 3–5 GF/s.
//! * [`ConvTile::requantize_into`] — the int8 engine's store, 32
//!   accumulators per step — is explicit AVX2 in the same module, for the
//!   same reason: LLVM left the scalar form (`alf-tensor`'s `requantize`,
//!   which stays the definition and stores the tail) unvectorized at
//!   ≈ 2.2 ns per element.
//!
//! The two kinds of tile produce the same bits for the same convolution.
//! In f32, per element both run `acc = acc + a·b` from `+0.0` in ascending
//! depth order and add the accumulator into `C` once per `KC` slab. In
//! int8 every partial sum is an exact integer, so any order gives the same
//! i32.
//!
//! # Unsafe policy
//!
//! The crate denies `unsafe_code`; `conv_tile` alone carries a scoped
//! `allow`, and every other crate of the workspace keeps
//! `#![forbid(unsafe_code)]` (`scripts/verify.sh` greps for it). That one
//! module holds both explicit kernels — the convolution tile and the int8
//! store — behind one proof of AVX2, the [`ConvTile`] token. Inside it
//! `unsafe` is pointer loads/stores and the dispatch into
//! `#[target_feature]` functions, each behind a slice-length assert in a
//! safe wrapper — see the module docs.
//!
//! # Why the packed tiles live in their own crate
//!
//! The kernels are deliberately written as plain nested iterator loops and
//! rely on LLVM's loop vectorizer to lower them to the classic
//! outer-product form: one vector register per row of the `MR`×`NR`
//! accumulator tile, updated with embedded-broadcast multiplies
//! (`vmulps mem{1to8}, ymm, ymm` on AVX-512 hosts). That shape keeps the
//! whole accumulator in registers with no shuffles and was measured at
//! ~45 GF/s single-threaded on the development host.
//!
//! When the very same source is compiled *in the same LLVM module as its
//! callers*, interprocedural analysis feeds call-site facts (argument
//! ranges, alignment, points-to) into the cost models, and the SLP
//! vectorizer instead rewrites the loop nest into a shuffle-heavy form —
//! four 512-bit accumulators juggled with `vpermt2ps` — that runs ~3x
//! slower (~15 GF/s). Which form wins depends on which codegen unit the
//! callers land in, so performance silently flips with unrelated edits
//! (`#[inline(never)]` does not help: the function body is not inlined,
//! but its callers still inform the analysis). Keeping the kernels in a
//! dedicated crate with LTO disabled severs that channel: rustc compiles
//! this crate as its own LLVM module with no callers in sight, and the
//! fast form is reproduced deterministically.
//!
//! Note for anyone inspecting the output: `rustc --emit asm` (or
//! `--emit obj`) perturbs codegen-unit handling and shows the *slow* form
//! even for this crate. Disassemble the `.rcgu.o` inside the built rlib
//! (or the final binary) instead; the genuine artifact contains the
//! broadcast form.
//!
//! The multiply-accumulate is kept as `c + a * b` on purpose: Rust does
//! not contract it into an FMA, so results are bit-identical to the seed
//! loops' evaluation order requirements (per-element accumulation stays
//! in ascending-`k` order, one accumulator per element).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod conv_tile;
#[cfg(target_arch = "x86_64")]
pub use conv_tile::ConvTile;

use core::ops::Range;

/// A tap-offset table whose reach has been measured: `offsets[p]` is the
/// distance, in elements of the padded image, from a tile vector's first
/// element to the first element tap `p` multiplies. Built once per
/// convolution so the per-tile bounds check is one comparison instead of a
/// scan. The weight-gradient tile measures its pixel origins the same way.
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

    /// The offsets.
    pub fn as_slice(&self) -> &'a [usize] {
        self.offsets
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
/// whose tap-0 pixels start at element `image[v]` of the padded image and
/// whose products land at column `col[v]` of each filter's row of `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Padded-image index of each vector's first tap-0 element.
    pub image: [usize; 2],
    /// Column, relative to each row start, of each vector's first lane.
    pub col: [usize; 2],
    /// Live lanes of each vector; `0` switches a vector's write-back off.
    pub lanes: [usize; 2],
}

/// Filters (rows of `C`) one forward convolution tile accumulates.
pub const CONV_MR: usize = 6;

/// Lanes of one vector of the convolution tiles: pixels in the forward
/// tile (which covers two vectors), output channels in the weight-gradient
/// tile.
pub const CONV_LANES: usize = 8;

/// Taps one weight-gradient tile of one channel vector accumulates; a tile
/// of two vectors takes half as many.
pub const CONV_GRAD_TAPS: usize = 2 * CONV_MR;

/// Rows of the register tile (and of packed `A` panels).
///
/// With `NR = 8` the accumulator is an 8×8 = 64-float block — eight
/// 256-bit registers — which LLVM keeps entirely register-resident.
/// Wider or taller tiles were measured to push it onto the stack and run
/// several times slower.
pub const MR: usize = 8;

/// Columns of the register tile (and of packed `B` panels).
pub const NR: usize = 8;

/// Deepest panel whose int8 partial sums stay exact in f32 lanes:
/// `2²⁴ / 128² = 1024`, so at `kc ≤ 1024` every partial sum is an exactly
/// representable f32 integer, −128 operands included (see
/// [`microkernel_i8_into`]).
const I8_EXACT_DEPTH: usize = (1 << 24) / (128 * 128);

/// Multiplies one packed `A` panel by one packed `B` panel and adds the
/// `MR`×`NR` product tile into `c`, whose rows are `n` apart.
///
/// * `apanel` holds `kc` steps of `MR` values each: `apanel[p*MR + r]` is
///   `A[row0 + r, p]`. Its length must be a multiple of `MR`.
/// * `bpanel` holds `kc` steps of `NR` values each: `bpanel[p*NR + j]` is
///   `B[p, col0 + j]`. Its length must be a multiple of `NR`.
/// * `c` must hold the tile at row stride `n`: element `(r, j)` of the
///   tile lives at `c[r*n + j]`, so `c.len()` must be at least
///   `(MR-1)*n + NR`.
///
/// The accumulator is row-major (`acc[r][j]`), matching the `NR`-wide
/// contiguous rows of both the packed `B` panel and `C`, so the loop
/// vectorizer maps each row to one vector register and broadcasts the
/// `A` scalar — and the write-back needs no transpose.
///
/// `#[inline(never)]` is belt-and-braces on top of the crate isolation:
/// inlining the kernel into a caller would re-expose it to exactly the
/// context-sensitive vectorizer behaviour the crate boundary exists to
/// prevent.
#[inline(never)]
pub fn microkernel_into(apanel: &[f32], bpanel: &[f32], c: &mut [f32], n: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(ap.iter()) {
            for (o, &bv) in accr.iter_mut().zip(bp.iter()) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[r * n..r * n + NR];
        for (o, &v) in crow.iter_mut().zip(accr.iter()) {
            *o += v;
        }
    }
}

/// [`microkernel_into`] for edge tiles: identical compute on the
/// zero-padded panels, write-back clipped to the `rlim`×`clim` live
/// region of `C` (`c.len()` must be at least `(rlim-1)*n + clim`).
///
/// Kept separate so the full-tile kernel's write-back keeps compile-time
/// trip counts; this clipped variant is only reached on the ragged last
/// row/column block of a matrix whose dimension is not a tile multiple.
#[inline(never)]
pub fn microkernel_into_clipped(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    n: usize,
    rlim: usize,
    clim: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(ap.iter()) {
            for (o, &bv) in accr.iter_mut().zip(bp.iter()) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rlim) {
        let crow = &mut c[r * n..r * n + clim];
        for (o, &v) in crow.iter_mut().zip(accr.iter()) {
            *o += v;
        }
    }
}

/// Int8 companion of [`microkernel_into`]: multiplies one packed `A`
/// panel by one packed `B` panel — both holding *exact small-integer
/// values* in f32 slots, as produced by the i8 packing routines in
/// `alf-tensor` — and adds the `MR`×`NR` product tile into the i32 `c`,
/// whose rows are `n` apart. Write-back is clipped to the `rlim`×`clim`
/// live region, so one definition serves both full tiles (`rlim = MR`,
/// `clim = NR`; the zero-padded panel tails contribute exact zeroes) and
/// ragged edge tiles. Panel layouts match the f32 kernel:
/// `apanel[p*MR + r]` is `A[row0 + r, p]`, `bpanel[p*NR + j]` is
/// `B[p, col0 + j]`.
///
/// # Why the accumulator is f32 (and why that is still exact)
///
/// A direct `i8×i8→i32` loop nest forces LLVM into sign-extension
/// shuffles plus the slow vector i32 multiply and was measured at roughly
/// half the f32 kernel's throughput. Holding the i8 values in f32 lanes
/// instead reproduces the f32 kernel's broadcast outer-product lowering
/// exactly — and loses nothing: every product of two i8 values has
/// magnitude ≤ 128² = 2¹⁴, so a panel of up to `kc = 1024` steps keeps
/// every partial sum within 2²⁴, where f32 represents every integer
/// exactly. No rounding can occur, and the i32 write-back (`v as i32`) is
/// an exact conversion. The blocked driver's `KC = 256` is far inside
/// that bound; the kernel debug-asserts the panel depth so a future
/// re-blocking cannot silently break exactness.
#[inline(never)]
pub fn microkernel_i8_into(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [i32],
    n: usize,
    rlim: usize,
    clim: usize,
) {
    debug_assert!(
        apanel.len() <= I8_EXACT_DEPTH * MR,
        "i8 panel too deep for exact f32 accumulation"
    );
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(ap.iter()) {
            for (o, &bv) in accr.iter_mut().zip(bp.iter()) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rlim) {
        let crow = &mut c[r * n..r * n + clim];
        for (o, &v) in crow.iter_mut().zip(accr.iter()) {
            *o += v as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_tile(apanel: &[f32], bpanel: &[f32], kc: usize) -> Vec<f32> {
        let mut tile = vec![0.0f32; MR * NR];
        for p in 0..kc {
            for r in 0..MR {
                for j in 0..NR {
                    tile[r * NR + j] += apanel[p * MR + r] * bpanel[p * NR + j];
                }
            }
        }
        tile
    }

    fn panels(kc: usize) -> (Vec<f32>, Vec<f32>) {
        let apanel: Vec<f32> = (0..kc * MR).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
        let bpanel: Vec<f32> = (0..kc * NR).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        (apanel, bpanel)
    }

    #[test]
    fn full_tile_matches_reference() {
        let kc = 37;
        let (apanel, bpanel) = panels(kc);
        let n = 11;
        let mut c = vec![1.0f32; (MR - 1) * n + NR];
        microkernel_into(&apanel, &bpanel, &mut c, n);
        let tile = reference_tile(&apanel, &bpanel, kc);
        for r in 0..MR {
            for j in 0..NR {
                let got = c[r * n + j];
                let want = 1.0 + tile[r * NR + j];
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "tile ({r},{j}): got {got}, want {want}"
                );
            }
        }
        // Gaps between rows must be untouched.
        for r in 0..MR - 1 {
            for j in NR..n {
                assert_eq!(c[r * n + j], 1.0, "gap ({r},{j}) clobbered");
            }
        }
    }

    #[test]
    fn clipped_tile_writes_only_live_region() {
        let kc = 16;
        let (apanel, bpanel) = panels(kc);
        let (n, rlim, clim) = (9, 5, 3);
        let mut c = vec![0.5f32; (rlim - 1) * n + clim];
        microkernel_into_clipped(&apanel, &bpanel, &mut c, n, rlim, clim);
        let tile = reference_tile(&apanel, &bpanel, kc);
        for r in 0..rlim {
            for j in 0..clim {
                let got = c[r * n + j];
                let want = 0.5 + tile[r * NR + j];
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "clipped ({r},{j}): got {got}, want {want}"
                );
            }
        }
        for r in 0..rlim - 1 {
            for j in clim..n {
                assert_eq!(c[r * n + j], 0.5, "clipped gap ({r},{j}) clobbered");
            }
        }
    }

    #[test]
    fn empty_panels_leave_c_unchanged() {
        let mut c = vec![2.0f32; (MR - 1) * 8 + NR];
        microkernel_into(&[], &[], &mut c, 8);
        assert!(c.iter().all(|&v| v == 2.0));
    }

    /// i8 values widened into the f32 panel slots the int8 kernel takes.
    fn i8_panels(kc: usize) -> (Vec<f32>, Vec<f32>) {
        let apanel: Vec<f32> = (0..kc * MR)
            .map(|i| f32::from(((i * 37) % 255) as i8))
            .collect();
        let bpanel: Vec<f32> = (0..kc * NR)
            .map(|i| f32::from(((i * 91 + 13) % 255) as i8))
            .collect();
        (apanel, bpanel)
    }

    fn reference_i8_tile(apanel: &[f32], bpanel: &[f32], kc: usize) -> Vec<i32> {
        let mut tile = vec![0i32; MR * NR];
        for p in 0..kc {
            for r in 0..MR {
                for j in 0..NR {
                    tile[r * NR + j] += apanel[p * MR + r] as i32 * bpanel[p * NR + j] as i32;
                }
            }
        }
        tile
    }

    #[test]
    fn i8_full_tile_is_bitwise_exact() {
        let kc = 41;
        let (apanel, bpanel) = i8_panels(kc);
        let n = 11;
        let mut c = vec![7i32; (MR - 1) * n + NR];
        microkernel_i8_into(&apanel, &bpanel, &mut c, n, MR, NR);
        let tile = reference_i8_tile(&apanel, &bpanel, kc);
        for r in 0..MR {
            for j in 0..NR {
                assert_eq!(c[r * n + j], 7 + tile[r * NR + j], "tile ({r},{j})");
            }
        }
        for r in 0..MR - 1 {
            for j in NR..n {
                assert_eq!(c[r * n + j], 7, "gap ({r},{j}) clobbered");
            }
        }
    }

    #[test]
    fn i8_clipped_tile_writes_only_live_region() {
        let kc = 23;
        let (apanel, bpanel) = i8_panels(kc);
        let (n, rlim, clim) = (9, 5, 3);
        let mut c = vec![-2i32; (rlim - 1) * n + clim];
        microkernel_i8_into(&apanel, &bpanel, &mut c, n, rlim, clim);
        let tile = reference_i8_tile(&apanel, &bpanel, kc);
        for r in 0..rlim {
            for j in 0..clim {
                assert_eq!(c[r * n + j], -2 + tile[r * NR + j], "clipped ({r},{j})");
            }
        }
        for r in 0..rlim - 1 {
            for j in clim..n {
                assert_eq!(c[r * n + j], -2, "clipped gap ({r},{j}) clobbered");
            }
        }
    }

    #[test]
    fn i8_extreme_values_do_not_overflow_i32() {
        // ±127 · ∓127 over a full KC-depth panel drives every partial sum
        // to its worst case; the kernel must still be exact.
        let kc = 256;
        let apanel = vec![127.0f32; kc * MR];
        let bpanel = vec![-127.0f32; kc * NR];
        let mut c = vec![0i32; (MR - 1) * NR + NR];
        microkernel_i8_into(&apanel, &bpanel, &mut c, NR, MR, NR);
        assert!(c.iter().all(|&v| v == -16129 * kc as i32));
    }
}
