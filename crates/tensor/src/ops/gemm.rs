//! Cache-blocked, register-tiled, optionally multithreaded GEMM.
//!
//! This is the single compute kernel behind every matrix product in the
//! workspace ([`super::matmul`], [`super::matmul_at`],
//! [`super::matmul_bt`], the conv forward/backward GEMMs in `alf-nn`, and
//! the autoencoder player in `alf-core`). The structure is the classic
//! three-level blocking of Goto/BLIS:
//!
//! * the `n` dimension is split into [`NC`]-wide column strips,
//! * the `k` dimension into [`KC`]-deep slabs — for each `(NC, KC)` pair
//!   the corresponding block of `B` is packed once into contiguous
//!   [`NR`]-column panels sized to stay L2/L3-resident,
//! * each worker packs its whole row range of the `A` slab into
//!   [`MR`]-row panels; a panel is L1-resident while the inner loop
//!   streams the packed `B` strip past it,
//! * an `MR`×`NR` register tile at the core, provided by the
//!   `alf-gemm-kernels` crate. These packed tiles are safe Rust shaped for
//!   LLVM's loop vectorizer (`.cargo/config.toml` builds with
//!   `-C target-cpu=native` to unlock AVX2/AVX-512 codegen), and they
//!   live in their own crate because compiling them next to their
//!   callers flips the vectorizer into a ~3x-slower shuffle-based form —
//!   see that crate's docs for the full story. The tile's `C` write-back
//!   lives *inside* the kernel function: the accumulator never crosses a
//!   call boundary, which keeps it in registers instead of round-tripping
//!   through a return slot on the stack. (That crate is also the one place
//!   the workspace allows `unsafe`: its explicit AVX2 convolution tile,
//!   below. This crate and every other keep `#![forbid(unsafe_code)]`.)
//!
//! Transposed operands are handled in the packing routines — `Aᵀ` and
//! `Bᵀ` cost a different read stride during the O(size) pack, never a
//! materialised transpose or a strided inner loop.
//!
//! **Sparsity lives in the packing stage too.** Every entry point funnels
//! into one blocked driver parameterised by an optional row gather (the
//! `m` dimension) and an optional depth gather (the `k` dimension). A
//! gather map shrinks the *logical* problem the driver blocks over:
//! pruned rows or depth slices are never packed, so the micro-kernel
//! never touches a dead panel — elision happens while panels are built,
//! not as a pre-pass copy of a compacted operand. [`ActiveRows`] is the
//! workspace-wide descriptor of which rows survive a clipped ALF mask;
//! [`gemm_active_rows_into`] and [`gemm_active_k_into`] are the sparse
//! entry points. Declared row/depth elision is the *only* sparse
//! mechanism: nothing scans an operand for zeros.
//!
//! **One driver for every element type.** The loop nest, both packers and
//! the per-worker tile walk are generic over a private `Element` trait
//! that hides exactly three things: the accumulator type of `C` (`f32`
//! for `f32` operands, `i32` for `i8`), how an operand value is widened
//! into the f32 lane of a packed panel, and which `alf-gemm-kernels` tile
//! consumes a panel pair. (The trait also tells the direct convolution
//! route its own image layout, below.) The int8 product
//! ([`super::gemm_i8_into`]) is therefore the same code as the f32 one,
//! entered with one thread and identity gathers; see [`super::qgemm`] for
//! why it stays exact.
//!
//! **Convolutions never unfold.** [`conv_gemm_into`] is the forward-only
//! convolution (eval, the statistics pass, int8), and it has two routes,
//! chosen per call from the geometry — never by a flag. The *packed* route
//! is this driver with a second `B` packer that reads each panel out of
//! the `NCHW` input instead of an unfolded column matrix — same panels,
//! same bits, one `ci·k²`-fold copy of the input fewer. The *direct* route
//! (`conv_direct`, stride-1 convolutions on AVX2 hosts) packs no `B`
//! at all: the explicit tile of `alf-gemm-kernels` loads its operands from
//! a zero-bordered copy of the image — f32 in the packed route's
//! per-element operation order, int8 as i16 channel pairs in exact integer
//! arithmetic — so the two routes agree bit for bit and the packed one is
//! the checked portable fallback.
//!
//! Threading partitions the `m` dimension into contiguous multiples of
//! `MC` (one chunk per worker, spawned per `(NC, KC)` block on
//! `std::thread::scope`). Workers share the read-only packed `B` and own
//! disjoint `A`-packing buffers and `C` row ranges, so results are
//! **bitwise identical for every thread count**: each `C` element is
//! accumulated by exactly one worker in exactly the order the
//! single-thread loop uses. [`auto_threads`] gates parallelism on a flop
//! threshold so small products (the common case inside per-layer training
//! steps) never pay thread-spawn latency.
//!
//! All scratch (packing panels, the compact `C` of a row-gathered
//! product) comes from the caller's [`Workspace`], so steady-state calls
//! are allocation-free.

use super::conv::Conv2dSpec;
use super::workspace::Workspace;
use crate::ShapeError;
use alf_gemm_kernels::{microkernel_i8_into, microkernel_into, microkernel_into_clipped};
#[cfg(target_arch = "x86_64")]
use alf_gemm_kernels::{ConvTile, Placement, TapOffsets};

// The micro-kernels and the tile geometry live in `alf-gemm-kernels`, a
// dedicated crate, because their codegen is context-sensitive: compiled in
// the same LLVM module as their callers they come out ~3x slower (see that
// crate's documentation). The blocking parameters below belong to *this*
// layer — they describe how panels are packed and scheduled around the
// fixed MR×NR register tile.
pub use alf_gemm_kernels::{MR, NR};
/// Row granularity of thread partitioning (each worker owns contiguous
/// multiples of `MC` rows of `C`).
pub const MC: usize = 128;
/// Depth of the packed slabs.
pub const KC: usize = 256;
/// Columns of the packed `B` strip (L2/L3 working set: `KC·NC` floats).
pub const NC: usize = 1024;

/// Ceiling on worker threads regardless of core count.
pub const MAX_THREADS: usize = 8;

/// Products below this many flops (`2·m·k·n`) always run single-threaded;
/// at typical single-core throughput this is well under a millisecond of
/// work, where scoped-thread spawn/join overhead would dominate. On a
/// 1-core host the floor is irrelevant — [`auto_threads`] never engages
/// workers there at any size, because extra threads can only time-slice
/// the one core and pay spawn/join on top.
const PAR_FLOP_THRESHOLD: f64 = 8.0e6;

/// The set of surviving (unpruned) rows of a masked operand.
///
/// This is the workspace's single descriptor of structured row sparsity:
/// an ALF block computes it once per step from its clipped autoencoder
/// mask (`Mprune = 1{|m| > t}·m`, so "active" means `|m| > t`), caches it,
/// and hands it to every kernel that can skip pruned work — the code-conv
/// forward GEMM and backward weight-gradient GEMM skip inactive `m` rows
/// ([`gemm_active_rows_into`]), the input-gradient and autoencoder decoder
/// GEMMs skip inactive `k` slices ([`gemm_active_k_into`]).
///
/// Indices are strictly increasing and bounded by `total`, the full row
/// count of the operand the descriptor covers; the constructors enforce
/// this so kernels can gather without bounds anxiety.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveRows {
    idx: Vec<usize>,
    total: usize,
}

impl ActiveRows {
    /// Descriptor with every one of `total` rows active.
    pub fn full(total: usize) -> Self {
        Self {
            idx: (0..total).collect(),
            total,
        }
    }

    /// Rows whose mask entry is nonzero (`±0.0` counts as pruned).
    pub fn from_mask(mask: &[f32]) -> Self {
        Self {
            idx: (0..mask.len()).filter(|&i| mask[i] != 0.0).collect(),
            total: mask.len(),
        }
    }

    /// Rows surviving the ALF clip rule: active iff `|mask[i]| > threshold`
    /// (strict, matching `Mprune = 1{|m| > t}·m`). Works on the *raw* mask,
    /// so callers need not materialise the clipped tensor first.
    pub fn from_clipped_mask(mask: &[f32], threshold: f32) -> Self {
        Self {
            idx: (0..mask.len())
                .filter(|&i| mask[i].abs() > threshold)
                .collect(),
            total: mask.len(),
        }
    }

    /// Descriptor from an explicit index list over `total` rows.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the indices are not strictly increasing
    /// or reach `total` — never panics, so callers can surface descriptor
    /// mismatches as ordinary shape errors.
    pub fn from_indices(idx: Vec<usize>, total: usize) -> Result<Self, ShapeError> {
        for w in idx.windows(2) {
            if w[0] >= w[1] {
                return Err(ShapeError::new(
                    "active_rows",
                    format!("indices not strictly increasing at {} >= {}", w[0], w[1]),
                ));
            }
        }
        if let Some(&last) = idx.last() {
            if last >= total {
                return Err(ShapeError::new(
                    "active_rows",
                    format!("index {last} out of range for {total} rows"),
                ));
            }
        }
        Ok(Self { idx, total })
    }

    /// Number of active rows.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether no row is active.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Full row count of the operand this descriptor covers.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether every row is active (kernels take the plain dense path).
    pub fn is_all(&self) -> bool {
        self.idx.len() == self.total
    }

    /// The surviving row indices, strictly increasing.
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// The surviving rows as maximal `(start, len)` runs of consecutive
    /// indices, in increasing order — the run-length form of `alf-dp`'s
    /// sparse gradient encoding. Concatenating the runs
    /// reproduces [`ActiveRows::indices`] exactly.
    pub fn runs(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for &i in &self.idx {
            match out.last_mut() {
                Some((start, len)) if *start + *len == i => *len += 1,
                _ => out.push((i, 1)),
            }
        }
        out
    }
}

/// Thread count policy for a `[m,k]·[k,n]` product: 1 on single-core
/// hosts and below the flop threshold, otherwise capped by the host's
/// parallelism, [`MAX_THREADS`], and the number of `MC` row blocks. The
/// `ALF_GEMM_THREADS` environment variable overrides the policy (clamped
/// to `[1, MAX_THREADS]`) — useful for benchmarking scaling and for
/// forcing determinism checks across counts.
pub fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    if let Some(t) = thread_override() {
        return t.clamp(1, MAX_THREADS);
    }
    let hw = host_parallelism();
    if hw <= 1 {
        return 1;
    }
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    if flops < PAR_FLOP_THRESHOLD {
        return 1;
    }
    hw.min(MAX_THREADS).min(m.div_ceil(MC)).max(1)
}

/// Cached `std::thread::available_parallelism` (1 when unknown). Cached
/// because it sits on the GEMM dispatch path; public so benchmarks report
/// the same figure the policy actually used.
pub fn host_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

fn thread_override() -> Option<usize> {
    static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    // One shared parser for every ALF_*_THREADS knob (rejects 0 and
    // garbage); cached because this sits on the GEMM dispatch path.
    *OVERRIDE.get_or_init(|| alf_obs::runtime::env_threads("ALF_GEMM_THREADS"))
}

/// Gather maps threaded through the packing stage.
///
/// `rmap` replaces logical row `i` of the blocked problem with physical
/// row `rmap[i]` of `A`; `kmap` replaces logical depth `p` with physical
/// depth `kmap[p]` of both `A` and `B`. `am`/`ak` are the *physical*
/// dimensions of `A` (`[am, ak]` pre-transpose) and the physical depth of
/// `B`; they provide the read strides, which the logical (possibly
/// shrunken) `m`/`k` no longer do. `None` maps degrade to the identity,
/// and with identity maps the packed panels — and therefore the result —
/// are bitwise identical to the plain dense path.
#[derive(Clone, Copy)]
pub(super) struct Gather<'g> {
    rmap: Option<&'g [usize]>,
    kmap: Option<&'g [usize]>,
    am: usize,
    ak: usize,
}

impl<'g> Gather<'g> {
    pub(super) fn dense(m: usize, k: usize) -> Self {
        Self {
            rmap: None,
            kmap: None,
            am: m,
            ak: k,
        }
    }
}

/// `C = op(A) · op(B)` into a caller-provided buffer.
///
/// `op` is transpose when the matching flag is set: `A` is stored `[m,k]`
/// (`ta = false`) or `[k,m]` (`ta = true`); `B` is `[k,n]` or `[n,k]`.
/// `C` is always `[m,n]` row-major and is fully overwritten. Scratch comes
/// from `ws`; `threads` is typically [`auto_threads`] and is clamped to
/// the available row blocks.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature
pub fn gemm_into(
    c: &mut [f32],
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
    threads: usize,
) {
    assert_eq!(c.len(), m * n, "gemm: C buffer is not [{m}x{n}]");
    assert_eq!(a.len(), m * k, "gemm: A buffer is not [{m}x{k}] (ta={ta})");
    assert_eq!(b.len(), k * n, "gemm: B buffer is not [{k}x{n}] (tb={tb})");
    let b = BOperand::Matrix { data: b, tb };
    gemm_driver(c, a, ta, b, m, k, n, ws, threads, Gather::dense(m, k));
}

/// `C = A · op(B)` computing **only** the rows listed in `rows`; every
/// other row of `C` is written as exact `0.0`, regardless of what `A`
/// holds there.
///
/// The caller (an ALF block with a clipped mask) declares which rows
/// survive, so nothing scans `A` and — crucially for the backward pass —
/// the *skipped rows need not be zero in `A`*. The code-conv forward uses
/// it to skip pruned weight rows; the backward weight-gradient GEMM uses
/// it (with `tb = true`) to never compute gradient rows the mask-gated
/// STE would discard anyway.
///
/// Surviving rows are bitwise identical to what the dense kernel would
/// produce for them: the row gather changes *which* rows are packed, not
/// the k-accumulation order of any element. When every row is active this
/// is exactly the dense kernel.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions or
/// `rows.total() != m`.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature
pub fn gemm_active_rows_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
    rows: &ActiveRows,
    ws: &mut Workspace,
    threads: usize,
) {
    assert_eq!(
        rows.total(),
        m,
        "gemm_active_rows: descriptor covers {} rows, A has {m}",
        rows.total()
    );
    assert_eq!(
        c.len(),
        m * n,
        "gemm_active_rows: C buffer is not [{m}x{n}]"
    );
    assert_eq!(
        a.len(),
        m * k,
        "gemm_active_rows: A buffer is not [{m}x{k}]"
    );
    assert_eq!(
        b.len(),
        k * n,
        "gemm_active_rows: B buffer is not [{k}x{n}] (tb={tb})"
    );
    let b = BOperand::Matrix { data: b, tb };
    gemm_rows(c, a, b, m, k, n, Some(rows), ws, threads);
}

/// `C = A · B` restricted to the `rows` of `A` that survive (all of them
/// for `None` or a full descriptor): the one body behind
/// [`gemm_active_rows_into`] and [`conv_gemm_into`]. Skipped rows of `C`
/// are written as zero; callers have checked the buffer lengths.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<T: Element>(
    c: &mut [T::Acc],
    a: &[T],
    b: BOperand<'_, T>,
    m: usize,
    k: usize,
    n: usize,
    rows: Option<&ActiveRows>,
    ws: &mut Workspace,
    threads: usize,
) {
    let Some(rows) = rows.filter(|r| !r.is_all()) else {
        return gemm_driver(c, a, false, b, m, k, n, ws, threads, Gather::dense(m, k));
    };
    c.fill(T::Acc::default());
    let live = rows.len();
    if live == 0 || k == 0 || n == 0 {
        return;
    }
    // The driver blocks over the compact [live, n] problem — pack_a reads
    // A through the row map, so pruned rows are never packed and the
    // micro-kernel never sees a dead panel — then the compact result is
    // scattered to the surviving rows of C.
    let mut cc = ws.take("gemm_rows_c", live * n);
    let gather = Gather {
        rmap: Some(rows.indices()),
        kmap: None,
        am: m,
        ak: k,
    };
    gemm_driver(&mut cc, a, false, b, live, k, n, ws, threads, gather);
    for (ri, &i) in rows.indices().iter().enumerate() {
        c[i * n..(i + 1) * n].copy_from_slice(&cc[ri * n..(ri + 1) * n]);
    }
    ws.give("gemm_rows_c", cc);
}

/// `C = op(A) · B` accumulating **only** the depth slices listed in
/// `active` (over the full depth `k`); contributions from every other
/// slice are skipped.
///
/// The caller asserts, by using this entry point, that the skipped slices
/// contribute exactly-zero products — true when the `k` dimension ranges
/// over pruned code channels whose weight rows (or code rows) are exact
/// zeros. Under that contract the result is bitwise identical to the
/// dense product: every accumulator starts at `+0.0` and is only ever
/// added to, so it can never become `-0.0`, and adding a `±0.0` product
/// to it is the identity. The conv input-gradient GEMM (`Wᵀ·G`) and the
/// autoencoder decoder GEMM use this to make backward cost track mask
/// occupancy.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the stated dimensions or
/// `active.total() != k`.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature
pub fn gemm_active_k_into(
    c: &mut [f32],
    a: &[f32],
    ta: bool,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    active: &ActiveRows,
    ws: &mut Workspace,
    threads: usize,
) {
    assert_eq!(
        active.total(),
        k,
        "gemm_active_k: descriptor covers {} slices, depth is {k}",
        active.total()
    );
    assert_eq!(c.len(), m * n, "gemm_active_k: C buffer is not [{m}x{n}]");
    assert_eq!(
        a.len(),
        m * k,
        "gemm_active_k: A buffer is not [{m}x{k}] (ta={ta})"
    );
    assert_eq!(b.len(), k * n, "gemm_active_k: B buffer is not [{k}x{n}]");
    if active.is_all() {
        return gemm_into(c, a, ta, b, false, m, k, n, ws, threads);
    }
    let ke = active.len();
    if ke == 0 || m == 0 || n == 0 {
        c.fill(0.0);
        return;
    }
    let gather = Gather {
        rmap: None,
        kmap: Some(active.indices()),
        am: m,
        ak: k,
    };
    let b = BOperand::Matrix { data: b, tb: false };
    gemm_driver(c, a, ta, b, m, ke, n, ws, threads, gather);
}

/// Convolution as one GEMM, with the im2col matrix never materialised:
/// `C = A · unfold(X)` where `A` is the `[m, ci·k²]` weight matrix, `X` the
/// `NCHW` input (`dims = [n, ci, h, w]`) and `C` the `[m, n·h_out·w_out]`
/// product the im2col route would give. `rows` restricts the product to
/// the surviving filters exactly as [`gemm_active_rows_into`] does.
///
/// One of two routes runs, and every bit of `C` is the same on both — that
/// of `im2col_into` + [`gemm_into`] (or `im2col_i8_into` + `gemm_i8_into`
/// for `i8`):
///
/// * **Direct** — when `spec.stride == 1` (any kernel, 1×1 included), the
///   host has AVX2, and the packed route would run the call on one thread
///   (the live rows fit one [`MC`] block, or `threads` is 1). No `B` is
///   packed: each image is copied once into a zero-bordered scratch (f32,
///   or i16 channel pairs for `i8`) — for a 1×1 kernel with no padding just
///   the widening or pairing copy — and the explicit tile of
///   `alf-gemm-kernels` reads it in place (see `conv_direct`). `threads` only takes part in that routing test;
///   the direct route itself is single-threaded.
/// * **Packed** — everything else (stride 2, wide-`m` calls that engage
///   workers, hosts without AVX2, other architectures). The blocked
///   driver runs unchanged; only its `B` packer differs — it reads each
///   [`NR`]-column panel straight out of the image (see `pack_b_image`),
///   writing exactly the lanes `pack_b` would copy out of
///   [`im2col_into`](super::im2col_into)'s matrix, without the `ci·k²`-fold
///   copy of the input whose cost no amount of filter pruning shrinks.
///
/// Forward-only callers use it (eval, the statistics pass, int8); a
/// training forward still unfolds, because its backward pass multiplies by
/// the column matrix.
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
    let [n, ci, h, w] = dims;
    let (ho, wo) = spec.output_hw(h, w);
    let k = ci * spec.kernel * spec.kernel;
    let ncols = n * ho * wo;
    assert_eq!(x.len(), n * ci * h * w, "conv_gemm: X is not {dims:?}");
    assert_eq!(a.len(), m * k, "conv_gemm: A buffer is not [{m}x{k}]");
    assert_eq!(
        c.len(),
        m * ncols,
        "conv_gemm: C buffer is not [{m}x{ncols}]"
    );
    if let Some(rows) = rows {
        assert_eq!(
            rows.total(),
            m,
            "conv_gemm: descriptor covers {} rows, A has {m}",
            rows.total()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if spec.stride == 1 && workers(threads, rows.map_or(m, ActiveRows::len)) == 1 {
        if let Some(tile) = ConvTile::detect() {
            return super::conv_direct::conv_direct_into(tile, c, a, x, m, dims, spec, rows, ws);
        }
    }
    let b = BOperand::Image(ConvImage {
        x,
        ci,
        h,
        w,
        ho,
        wo,
        spec,
    });
    gemm_rows(c, a, b, m, k, ncols, rows, ws, threads);
}

/// Workers the blocked driver engages for `m` logical rows when asked for
/// `threads`: one per [`MC`] row block at most.
fn workers(threads: usize, m: usize) -> usize {
    threads.clamp(1, m.div_ceil(MC).max(1)).min(MAX_THREADS)
}

/// What the blocked driver is generic over: the operand element type.
///
/// Packed panels always hold f32 lanes (that is what the register tiles
/// in `alf-gemm-kernels` consume), so an element only has to say how it
/// widens into a lane, what `C` accumulates in, and which tile to run. The
/// direct convolution route (`conv_direct`) reads a bordered image of its
/// own lane type instead, [`GROUP`](Element::GROUP) channels interleaved
/// per pixel, against weights packed one [`Weight`](Element::Weight) per
/// channel group. Implemented for `f32` and `i8`; public only so that
/// [`conv_gemm_into`] can name it.
pub trait Element: Copy + Sync {
    /// Element type of `C`.
    type Acc: Copy + Default + Send + Sync + 'static;

    /// Channels one pixel of the direct route's bordered image holds side
    /// by side: 1 for `f32`, 2 for `i8` (one `vpmaddwd` pair).
    const GROUP: usize;

    /// Element type of the direct route's bordered image.
    type Lane: Copy + Default + Send + Sync + 'static;

    /// One filter's [`GROUP`](Element::GROUP) weights of one tap, packed
    /// as the direct route's tile reads them.
    type Weight: Copy + Default + Send + Sync + 'static;

    /// The value as a packed-panel lane.
    fn widen(self) -> f32;

    /// Packs the weights of channels `0..channels` of a group, channel `j`
    /// at `src[j·stride]`; channels up to [`GROUP`](Element::GROUP) past
    /// `channels` (an odd last channel's partner) count as zero.
    fn pack_weight(src: &[Self], stride: usize, channels: usize) -> Self::Weight;

    /// Writes one image row of a channel group into the bordered image:
    /// `dst[x·GROUP + j] = src[j·stride + x]` for `j < channels`, zero for
    /// the group's other channels.
    fn interleave(dst: &mut [Self::Lane], src: &[Self], stride: usize, channels: usize);

    /// Adds one `apanel · bpanel` product tile into `c` (row stride `n`),
    /// writing only the live `rlim`×`clim` region.
    fn tile(
        apanel: &[f32],
        bpanel: &[f32],
        c: &mut [Self::Acc],
        n: usize,
        rlim: usize,
        clim: usize,
    );

    /// Adds one direct-convolution product tile into `c`: the arguments of
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

    fn widen(self) -> f32 {
        self
    }

    #[inline]
    fn pack_weight(src: &[f32], _stride: usize, _channels: usize) -> f32 {
        src[0]
    }

    #[inline]
    fn interleave(dst: &mut [f32], src: &[f32], _stride: usize, _channels: usize) {
        dst.copy_from_slice(&src[..dst.len()]);
    }

    fn tile(apanel: &[f32], bpanel: &[f32], c: &mut [f32], n: usize, rlim: usize, clim: usize) {
        if rlim == MR && clim == NR {
            microkernel_into(apanel, bpanel, c, n);
        } else {
            microkernel_into_clipped(apanel, bpanel, c, n, rlim, clim);
        }
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

    fn widen(self) -> f32 {
        f32::from(self)
    }

    #[inline]
    fn pack_weight(src: &[i8], stride: usize, channels: usize) -> i32 {
        let hi = if channels > 1 { src[stride] } else { 0 };
        let [a, b] = i16::from(src[0]).to_ne_bytes();
        let [c, d] = i16::from(hi).to_ne_bytes();
        i32::from_ne_bytes([a, b, c, d])
    }

    #[inline]
    fn interleave(dst: &mut [i16], src: &[i8], stride: usize, channels: usize) {
        let (pairs, _) = dst.as_chunks_mut::<2>();
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
    }

    fn tile(apanel: &[f32], bpanel: &[f32], c: &mut [i32], n: usize, rlim: usize, clim: usize) {
        microkernel_i8_into(apanel, bpanel, c, n, rlim, clim);
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

/// The right-hand operand of the blocked driver: where `pack_b` gets the
/// `[k, n]` values it packs.
#[derive(Clone, Copy)]
pub(super) enum BOperand<'b, T> {
    /// A stored matrix, `[k, n]` row-major (`[n, k]` when `tb`).
    Matrix { data: &'b [T], tb: bool },
    /// The im2col matrix of an image, read in place.
    Image(ConvImage<'b, T>),
}

/// An `NCHW` buffer seen as the `[ci·k², n·ho·wo]` matrix im2col would
/// unfold it into.
#[derive(Clone, Copy)]
pub(super) struct ConvImage<'b, T> {
    x: &'b [T],
    ci: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
}

/// The blocked driver behind every entry point. `m` and `k` are the
/// *logical* (post-gather) dimensions the blocking runs over; `gather`
/// carries the physical strides and optional index maps (see [`Gather`]).
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_driver<T: Element>(
    c: &mut [T::Acc],
    a: &[T],
    ta: bool,
    b: BOperand<'_, T>,
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
    threads: usize,
    gather: Gather<'_>,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), gather.am * gather.ak);
    if let BOperand::Matrix { data, .. } = b {
        debug_assert_eq!(data.len(), gather.ak * n);
    }
    debug_assert_eq!(gather.rmap.map_or(gather.am, <[usize]>::len), m);
    debug_assert_eq!(gather.kmap.map_or(gather.ak, <[usize]>::len), k);
    c.fill(T::Acc::default());
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let n_blocks = m.div_ceil(MC);
    let threads = workers(threads, m);
    let kmax = k.min(KC);
    let ncmax = n.min(NC).div_ceil(NR) * NR;
    // Contiguous row chunks, each a whole number of MC blocks, so packed
    // panels never straddle a worker boundary.
    let rows_per_chunk = n_blocks.div_ceil(threads) * MC;
    let mut bpack: Vec<f32> = ws.take("gemm_bpack", kmax * ncmax);
    // Each worker packs its whole row range once per (jc, pc) block, so
    // its buffer spans rows_per_chunk (already an MR multiple) rows.
    let mut apack_all: Vec<f32> = ws.take("gemm_apack", threads * rows_per_chunk * kmax);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            match b {
                BOperand::Matrix { data, tb } => {
                    pack_b(&mut bpack, data, tb, n, pc, kc, jc, nc, gather);
                }
                BOperand::Image(image) => pack_b_image(&mut bpack, image, pc, kc, jc, nc),
            }
            if threads == 1 {
                process_rows(
                    c,
                    0,
                    m,
                    a,
                    ta,
                    n,
                    jc,
                    nc,
                    pc,
                    kc,
                    &bpack,
                    &mut apack_all,
                    gather,
                );
            } else {
                let bref = &bpack;
                std::thread::scope(|scope| {
                    let chunks = c
                        .chunks_mut(rows_per_chunk * n)
                        .zip(apack_all.chunks_mut(rows_per_chunk * kmax))
                        .enumerate();
                    let handles: Vec<_> = chunks
                        .map(|(t, (c_chunk, apack))| {
                            scope.spawn(move || {
                                let row0 = t * rows_per_chunk;
                                let mrows = c_chunk.len() / n;
                                process_rows(
                                    c_chunk, row0, mrows, a, ta, n, jc, nc, pc, kc, bref, apack,
                                    gather,
                                );
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().expect("gemm worker panicked");
                    }
                });
            }
            pc += kc;
        }
        jc += nc;
    }
    ws.give("gemm_bpack", bpack);
    ws.give("gemm_apack", apack_all);
}

/// One worker's share: all `MC` blocks inside its contiguous row range,
/// against the already-packed `B` strip for `(jc, nc, pc, kc)`.
///
/// `c_rows` holds rows `row0 .. row0 + mrows` of `C` at full stride `n`.
#[allow(clippy::too_many_arguments)]
fn process_rows<T: Element>(
    c_rows: &mut [T::Acc],
    row0: usize,
    mrows: usize,
    a: &[T],
    ta: bool,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    bpack: &[f32],
    apack: &mut [f32],
    gather: Gather<'_>,
) {
    let j_panels = nc.div_ceil(NR);
    pack_a(apack, a, ta, row0, mrows, pc, kc, gather);
    let i_panels = mrows.div_ceil(MR);
    for ip in 0..i_panels {
        let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
        let rbase = ip * MR;
        let rlim = MR.min(mrows - rbase);
        for jp in 0..j_panels {
            let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
            let cbase = jc + jp * NR;
            let clim = NR.min(nc - jp * NR);
            let coff = rbase * n + cbase;
            let cend = coff + (rlim - 1) * n + clim;
            T::tile(apanel, bpanel, &mut c_rows[coff..cend], n, rlim, clim);
        }
    }
}

/// Packs `A[i0..i0+mc, p0..p0+kc]` (transpose- and gather-aware) into
/// `MR`-row panels: `apack[(ip·kc + p)·MR + r] = A[rmap(i0 + ip·MR + r),
/// kmap(p0 + p)]`, zero-padding rows past `mc`. This is where row/depth
/// elision physically happens — a pruned row simply has no panel slot.
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Element>(
    apack: &mut [f32],
    a: &[T],
    ta: bool,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    gather: Gather<'_>,
) {
    for ip in 0..mc.div_ceil(MR) {
        let panel = &mut apack[ip * kc * MR..(ip + 1) * kc * MR];
        for (p, out) in panel.chunks_exact_mut(MR).enumerate().take(kc) {
            let pk = gather.kmap.map_or(p0 + p, |km| km[p0 + p]);
            for (r, slot) in out.iter_mut().enumerate() {
                let row = i0 + ip * MR + r;
                *slot = if row < i0 + mc {
                    let pr = gather.rmap.map_or(row, |rm| rm[row]);
                    if ta {
                        a[pk * gather.am + pr].widen()
                    } else {
                        a[pr * gather.ak + pk].widen()
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `B[p0..p0+kc, j0..j0+nc]` (transpose- and gather-aware) into
/// `NR`-column panels: `bpack[(jp·kc + p)·NR + r] = B[kmap(p0 + p),
/// j0 + jp·NR + r]`, zero-padding columns past `nc`. A non-transposed `B`
/// row is contiguous across a panel's columns, so that case is a straight
/// widening copy — this is the O(k·n) stage small-`m` products (every conv
/// at batch 8) spend most of their non-tile time in.
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Element>(
    bpack: &mut [f32],
    b: &[T],
    tb: bool,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    gather: Gather<'_>,
) {
    for jp in 0..nc.div_ceil(NR) {
        let panel = &mut bpack[jp * kc * NR..(jp + 1) * kc * NR];
        let col0 = j0 + jp * NR;
        let live = NR.min(j0 + nc - col0);
        for (p, out) in panel.chunks_exact_mut(NR).enumerate().take(kc) {
            let pk = gather.kmap.map_or(p0 + p, |km| km[p0 + p]);
            let (cols, pad) = out.split_at_mut(live);
            if tb {
                for (r, slot) in cols.iter_mut().enumerate() {
                    *slot = b[(col0 + r) * gather.ak + pk].widen();
                }
            } else {
                let src = &b[pk * n + col0..pk * n + col0 + live];
                for (slot, &v) in cols.iter_mut().zip(src) {
                    *slot = v.widen();
                }
            }
            pad.fill(0.0);
        }
    }
}

/// [`pack_b`] for the implicit im2col matrix of `image`: fills the same
/// panel slots with the same values, `bpack[(jp·kc + p)·NR + r] =
/// unfold(X)[p0 + p, j0 + jp·NR + r]`, but reads them from the `NCHW`
/// buffer. Column `j` of that matrix is output pixel `(b, oy, ox)`, depth
/// `p` is tap `(c, ky, kx)`; the entry is `X[b, c, oy·s + ky − pad,
/// ox·s + kx − pad]`, or zero outside the image.
///
/// A panel's `NR` consecutive columns are decoded once into runs of pixels
/// that share an output row (one run, or two where the panel straddles a
/// row or image boundary; more only when `wo < NR`). For every depth a
/// run then reads from a single input row: the in-bounds part is a
/// contiguous slice at stride 1 and an every-`s`-th gather otherwise, and
/// everything else in the lane group — padding taps and the columns past
/// `nc` — stays at the zero it was filled with.
fn pack_b_image<T: Element>(
    bpack: &mut [f32],
    image: ConvImage<'_, T>,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    /// Columns `r0 .. r0 + len` of a panel: pixels `ox ..` of one output row.
    #[derive(Clone, Copy, Default)]
    struct Run {
        r0: usize,
        len: usize,
        /// Offset of image `b`'s first plane in `x`.
        base: usize,
        /// Input row / column of tap `(ky, kx) = (0, 0)` for the run's
        /// first pixel; negative inside the top / left padding.
        iy0: isize,
        ix0: isize,
    }

    let ConvImage {
        x,
        ci,
        h,
        w,
        ho,
        wo,
        spec,
    } = image;
    let (kk, s, pad) = (spec.kernel, spec.stride, spec.pad as isize);
    for jp in 0..nc.div_ceil(NR) {
        let panel = &mut bpack[jp * kc * NR..(jp + 1) * kc * NR];
        let col0 = j0 + jp * NR;
        let live = NR.min(j0 + nc - col0);

        let mut runs = [Run::default(); NR];
        let mut n_runs = 0;
        let (mut b, mut oy, mut ox) = (col0 / (ho * wo), col0 / wo % ho, col0 % wo);
        let mut r0 = 0;
        while r0 < live {
            let len = (wo - ox).min(live - r0);
            runs[n_runs] = Run {
                r0,
                len,
                base: b * ci * h * w,
                iy0: (oy * s) as isize - pad,
                ix0: (ox * s) as isize - pad,
            };
            n_runs += 1;
            r0 += len;
            ox = 0;
            oy += 1;
            if oy == ho {
                (oy, b) = (0, b + 1);
            }
        }

        let (mut c, mut ky, mut kx) = (p0 / (kk * kk), p0 / kk % kk, p0 % kk);
        for out in panel.chunks_exact_mut(NR).take(kc) {
            out.fill(0.0);
            for run in &runs[..n_runs] {
                let iy = run.iy0 + ky as isize;
                let ix = run.ix0 + kx as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let row = run.base + (c * h + iy as usize) * w;
                // Pixels lo..hi of the run are the ones whose tap column
                // `ix + r·s` lies in `0..w`.
                let (lo, hi) = if s == 1 {
                    let hi = (w as isize - ix).clamp(0, run.len as isize);
                    ((-ix).max(0) as usize, hi as usize)
                } else if ix >= w as isize {
                    (0, 0)
                } else {
                    let last = (w as isize - 1 - ix) as usize / s;
                    (ix.min(0).unsigned_abs().div_ceil(s), run.len.min(last + 1))
                };
                if lo >= hi {
                    continue;
                }
                let first = (row as isize + ix + (lo * s) as isize) as usize;
                if s != 1 {
                    let dst = &mut out[run.r0 + lo..run.r0 + hi];
                    for (slot, &v) in dst.iter_mut().zip(x[first..row + w].iter().step_by(s)) {
                        *slot = v.widen();
                    }
                    continue;
                }
                let src = &x[first..first + (hi - lo)];
                if src.len() == NR {
                    // A whole panel row out of one image row, the common
                    // case: a fixed trip count compiles to one vector move
                    // (plus the widening for i8).
                    for r in 0..NR {
                        out[r] = src[r].widen();
                    }
                } else {
                    for (slot, &v) in out[run.r0 + lo..].iter_mut().zip(src) {
                        *slot = v.widen();
                    }
                }
            }
            kx += 1;
            if kx == kk {
                (kx, ky) = (0, ky + 1);
                if ky == kk {
                    (ky, c) = (0, c + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::ops::reference;
    use crate::rng::Rng;
    use crate::Tensor;

    fn run(a: &Tensor, ta: bool, b: &Tensor, tb: bool, threads: usize) -> Tensor {
        let (m, k) = if ta {
            (a.dims()[1], a.dims()[0])
        } else {
            (a.dims()[0], a.dims()[1])
        };
        let n = if tb { b.dims()[0] } else { b.dims()[1] };
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(&[m, n]);
        gemm_into(
            out.data_mut(),
            a.data(),
            ta,
            b.data(),
            tb,
            m,
            k,
            n,
            &mut ws,
            threads,
        );
        out
    }

    fn run_active_rows(
        a: &Tensor,
        b: &Tensor,
        tb: bool,
        rows: &ActiveRows,
        threads: usize,
    ) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = if tb { b.dims()[0] } else { b.dims()[1] };
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(&[m, n]);
        gemm_active_rows_into(
            out.data_mut(),
            a.data(),
            b.data(),
            tb,
            m,
            k,
            n,
            rows,
            &mut ws,
            threads,
        );
        out
    }

    #[test]
    fn matches_reference_across_shapes_and_transposes() {
        let mut rng = Rng::new(99);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (7, 9, 11),
            (17, 33, 5),
            (64, 64, 64),
            (130, 260, 70),
        ] {
            let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
            let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
            let expect = reference::matmul(&a, &b).unwrap();
            assert!(
                run(&a, false, &b, false, 1).allclose(&expect, 1e-4),
                "{m}x{k}x{n}"
            );
            let at = a.transpose2().unwrap();
            assert!(
                run(&at, true, &b, false, 1).allclose(&expect, 1e-4),
                "ta {m}x{k}x{n}"
            );
            let bt = b.transpose2().unwrap();
            assert!(
                run(&a, false, &bt, true, 1).allclose(&expect, 1e-4),
                "tb {m}x{k}x{n}"
            );
            assert!(
                run(&at, true, &bt, true, 1).allclose(&expect, 1e-4),
                "ta+tb {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn degenerate_dims_produce_zeros_or_empty() {
        let mut ws = Workspace::new();
        // k == 0: C must be all zeros.
        let mut c = vec![7.0f32; 6];
        gemm_into(&mut c, &[], false, &[], false, 2, 0, 3, &mut ws, 1);
        assert_eq!(c, vec![0.0; 6]);
        // m == 0 / n == 0: empty C, must not panic.
        gemm_into(&mut [], &[], false, &[1.0, 2.0], false, 0, 1, 2, &mut ws, 4);
        gemm_into(&mut [], &[1.0, 2.0], false, &[], false, 2, 1, 0, &mut ws, 4);
    }

    #[test]
    fn bitwise_deterministic_across_thread_counts() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&[300, 70], Init::Rand, &mut rng);
        let b = Tensor::randn(&[70, 90], Init::Rand, &mut rng);
        let t1 = run(&a, false, &b, false, 1);
        for threads in [2, 3, 4, 8] {
            let tn = run(&a, false, &b, false, threads);
            assert_eq!(t1.data(), tn.data(), "threads={threads}");
        }
    }

    #[test]
    fn overwrites_stale_output_contents() {
        let a = Tensor::ones(&[4, 4]);
        let b = Tensor::eye(4);
        let mut ws = Workspace::new();
        let mut c = vec![42.0f32; 16];
        gemm_into(
            &mut c,
            a.data(),
            false,
            b.data(),
            false,
            4,
            4,
            4,
            &mut ws,
            1,
        );
        assert_eq!(c, vec![1.0; 16]);
    }

    #[test]
    fn workspace_reuse_is_allocation_free_after_warmup() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[65, 40], Init::Rand, &mut rng);
        let b = Tensor::randn(&[40, 33], Init::Rand, &mut rng);
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; 65 * 33];
        gemm_into(
            &mut c,
            a.data(),
            false,
            b.data(),
            false,
            65,
            40,
            33,
            &mut ws,
            1,
        );
        let warm = ws.alloc_events();
        ws.freeze();
        for _ in 0..5 {
            gemm_into(
                &mut c,
                a.data(),
                false,
                b.data(),
                false,
                65,
                40,
                33,
                &mut ws,
                1,
            );
        }
        assert_eq!(ws.alloc_events(), warm);
    }

    #[test]
    fn active_rows_surviving_rows_match_dense_bitwise() {
        // The row gather must not perturb a single bit of the rows it
        // keeps, even when the skipped rows of A are dense garbage.
        let mut rng = Rng::new(31);
        for &(m, k, n) in &[(16, 9, 12), (40, 32, 24), (130, 64, 48)] {
            let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
            let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
            let dense = run(&a, false, &b, false, 1);
            let idx: Vec<usize> = (0..m).filter(|i| i % 3 != 1).collect();
            let rows = ActiveRows::from_indices(idx.clone(), m).unwrap();
            let got = run_active_rows(&a, &b, false, &rows, 1);
            for i in 0..m {
                if idx.contains(&i) {
                    assert_eq!(
                        &got.data()[i * n..(i + 1) * n],
                        &dense.data()[i * n..(i + 1) * n],
                        "{m}x{k}x{n} row {i}"
                    );
                } else {
                    assert_eq!(
                        &got.data()[i * n..(i + 1) * n],
                        vec![0.0; n].as_slice(),
                        "{m}x{k}x{n} skipped row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn active_rows_transposed_b_matches_dense() {
        let mut rng = Rng::new(32);
        let a = Tensor::randn(&[24, 10], Init::Rand, &mut rng);
        let bt = Tensor::randn(&[14, 10], Init::Rand, &mut rng);
        let dense = run(&a, false, &bt, true, 1);
        let rows = ActiveRows::from_indices(vec![0, 5, 11, 23], 24).unwrap();
        let got = run_active_rows(&a, &bt, true, &rows, 1);
        for &i in rows.indices() {
            assert_eq!(
                &got.data()[i * 14..(i + 1) * 14],
                &dense.data()[i * 14..(i + 1) * 14]
            );
        }
    }

    #[test]
    fn active_rows_all_rows_is_dense_bitwise() {
        let mut rng = Rng::new(33);
        let a = Tensor::randn(&[17, 8], Init::Rand, &mut rng);
        let b = Tensor::randn(&[8, 13], Init::Rand, &mut rng);
        let dense = run(&a, false, &b, false, 1);
        let got = run_active_rows(&a, &b, false, &ActiveRows::full(17), 1);
        assert_eq!(dense.data(), got.data());
    }

    #[test]
    fn active_rows_no_rows_zeroes_output() {
        let mut rng = Rng::new(34);
        let a = Tensor::randn(&[9, 4], Init::Rand, &mut rng);
        let b = Tensor::randn(&[4, 5], Init::Rand, &mut rng);
        let rows = ActiveRows::from_indices(vec![], 9).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![7.0f32; 45];
        gemm_active_rows_into(
            &mut c,
            a.data(),
            b.data(),
            false,
            9,
            4,
            5,
            &rows,
            &mut ws,
            1,
        );
        assert_eq!(c, vec![0.0; 45]);
    }

    #[test]
    fn active_rows_single_surviving_row() {
        let mut rng = Rng::new(35);
        let a = Tensor::randn(&[21, 6], Init::Rand, &mut rng);
        let b = Tensor::randn(&[6, 7], Init::Rand, &mut rng);
        let dense = run(&a, false, &b, false, 1);
        let rows = ActiveRows::from_indices(vec![13], 21).unwrap();
        let got = run_active_rows(&a, &b, false, &rows, 1);
        assert_eq!(&got.data()[13 * 7..14 * 7], &dense.data()[13 * 7..14 * 7]);
        assert!(got.data()[..13 * 7].iter().all(|&v| v == 0.0));
        assert!(got.data()[14 * 7..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn active_rows_bitwise_deterministic_across_thread_counts() {
        let mut rng = Rng::new(36);
        let a = Tensor::randn(&[300, 70], Init::Rand, &mut rng);
        let b = Tensor::randn(&[70, 90], Init::Rand, &mut rng);
        let idx: Vec<usize> = (0..300).filter(|i| i % 4 != 2).collect();
        let rows = ActiveRows::from_indices(idx, 300).unwrap();
        let t1 = run_active_rows(&a, &b, false, &rows, 1);
        for threads in [2, 4, 8] {
            let tn = run_active_rows(&a, &b, false, &rows, threads);
            assert_eq!(t1.data(), tn.data(), "threads={threads}");
        }
    }

    #[test]
    fn active_rows_workspace_reuse_is_allocation_free() {
        let mut rng = Rng::new(37);
        let a = Tensor::randn(&[48, 20], Init::Rand, &mut rng);
        let b = Tensor::randn(&[20, 16], Init::Rand, &mut rng);
        let rows = ActiveRows::from_indices((0..24).map(|i| i * 2).collect(), 48).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; 48 * 16];
        gemm_active_rows_into(
            &mut c,
            a.data(),
            b.data(),
            false,
            48,
            20,
            16,
            &rows,
            &mut ws,
            1,
        );
        let warm = ws.alloc_events();
        ws.freeze();
        for _ in 0..5 {
            gemm_active_rows_into(
                &mut c,
                a.data(),
                b.data(),
                false,
                48,
                20,
                16,
                &rows,
                &mut ws,
                1,
            );
        }
        assert_eq!(ws.alloc_events(), warm);
    }

    #[test]
    fn conv_gemm_is_allocation_free_after_warmup_on_both_routes() {
        // Stride 1 takes the direct route where the host has AVX2, stride 2
        // the packed one; each runs f32 (dense and row-gathered) and i8.
        // One warm-up per geometry sizes every slot — the padded image, the
        // weight panels and the tap table included — and nothing grows
        // after, whichever geometry the slots last served.
        let (n, ci, h, w, m) = (2, 5, 11, 19, 9);
        let dims = [n, ci, h, w];
        let specs = [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(3, 2, 1)];
        let x: Vec<f32> = (0..n * ci * h * w).map(|i| (i % 17) as f32 - 8.0).collect();
        let a: Vec<f32> = (0..m * ci * 9).map(|i| (i % 13) as f32 - 6.0).collect();
        let (x8, a8): (Vec<i8>, Vec<i8>) = (
            x.iter().map(|&v| v as i8).collect(),
            a.iter().map(|&v| v as i8).collect(),
        );
        let rows = ActiveRows::from_indices(vec![0, 2, 3, 8], m).unwrap();
        let mut ws = Workspace::new();
        let pass = |ws: &mut Workspace| {
            for spec in specs {
                let (ho, wo) = spec.output_hw(h, w);
                let mut c = vec![0.0f32; m * n * ho * wo];
                let mut c8 = vec![0i32; m * n * ho * wo];
                conv_gemm_into(&mut c, &a, &x, m, dims, spec, None, ws, 1);
                conv_gemm_into(&mut c, &a, &x, m, dims, spec, Some(&rows), ws, 1);
                conv_gemm_into(&mut c8, &a8, &x8, m, dims, spec, None, ws, 1);
            }
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
    fn active_k_matches_dense_when_skipped_slices_are_zero() {
        // Zero out the inactive k-slices of A so the dense product's
        // skipped contributions are exact ±0 — then active-k elision must
        // be bitwise invisible.
        let mut rng = Rng::new(38);
        let (m, k, n) = (18, 24, 11);
        let mut a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let keep: Vec<usize> = (0..k).filter(|p| p % 3 == 0).collect();
        for row in 0..m {
            for p in 0..k {
                if !keep.contains(&p) {
                    a.data_mut()[row * k + p] = 0.0;
                }
            }
        }
        let dense = run(&a, false, &b, false, 1);
        let active = ActiveRows::from_indices(keep, k).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_active_k_into(
            &mut c,
            a.data(),
            false,
            b.data(),
            m,
            k,
            n,
            &active,
            &mut ws,
            1,
        );
        assert_eq!(c.as_slice(), dense.data());
    }

    #[test]
    fn active_k_transposed_a_matches_dense() {
        // The Wᵀ·G shape of the conv input gradient: A stored [k, m],
        // inactive k rows of A zeroed.
        let mut rng = Rng::new(39);
        let (m, k, n) = (15, 12, 9);
        let mut at = Tensor::randn(&[k, m], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let keep = vec![0, 2, 3, 7, 10];
        for p in 0..k {
            if !keep.contains(&p) {
                for v in at.data_mut()[p * m..(p + 1) * m].iter_mut() {
                    *v = 0.0;
                }
            }
        }
        let dense = run(&at, true, &b, false, 1);
        let active = ActiveRows::from_indices(keep, k).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_active_k_into(
            &mut c,
            at.data(),
            true,
            b.data(),
            m,
            k,
            n,
            &active,
            &mut ws,
            1,
        );
        assert_eq!(c.as_slice(), dense.data());
    }

    #[test]
    fn active_k_empty_zeroes_output() {
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 2]);
        let active = ActiveRows::from_indices(vec![], 4).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![5.0f32; 6];
        gemm_active_k_into(
            &mut c,
            a.data(),
            false,
            b.data(),
            3,
            4,
            2,
            &active,
            &mut ws,
            1,
        );
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn active_rows_descriptor_rejects_bad_indices() {
        // Typed errors, not panics: out-of-range, unsorted, duplicate.
        assert!(ActiveRows::from_indices(vec![0, 3], 3).is_err());
        assert!(ActiveRows::from_indices(vec![2, 1], 4).is_err());
        assert!(ActiveRows::from_indices(vec![1, 1], 4).is_err());
        assert!(ActiveRows::from_indices(vec![0, 1, 3], 4).is_ok());
    }

    #[test]
    fn active_rows_mask_constructors() {
        let rows = ActiveRows::from_mask(&[0.0, 1.0, -0.0, -2.0]);
        assert_eq!(rows.indices(), &[1, 3]);
        assert_eq!(rows.total(), 4);
        // Clip rule is strict: |m| must exceed the threshold.
        let rows = ActiveRows::from_clipped_mask(&[0.05, -0.2, 0.2, 0.0], 0.2);
        assert_eq!(rows.indices(), &[] as &[usize]);
        let rows = ActiveRows::from_clipped_mask(&[0.05, -0.21, 0.2, 0.0], 0.2);
        assert_eq!(rows.indices(), &[1]);
        assert!(!rows.is_all());
        assert!(ActiveRows::full(3).is_all());
    }

    #[test]
    fn active_rows_runs_are_maximal_and_lossless() {
        let rows = ActiveRows::from_indices(vec![0, 1, 2, 5, 7, 8], 10).unwrap();
        assert_eq!(rows.runs(), vec![(0, 3), (5, 1), (7, 2)]);
        // Concatenating runs reproduces the index list exactly.
        let rebuilt: Vec<usize> = rows
            .runs()
            .into_iter()
            .flat_map(|(start, len)| start..start + len)
            .collect();
        assert_eq!(rebuilt, rows.indices());
        assert_eq!(ActiveRows::full(4).runs(), vec![(0, 4)]);
        assert!(ActiveRows::from_indices(vec![], 4)
            .unwrap()
            .runs()
            .is_empty());
    }

    #[test]
    fn auto_threads_stays_single_for_small_products() {
        assert_eq!(auto_threads(8, 8, 8), 1);
        assert_eq!(auto_threads(64, 64, 64), 1);
    }

    #[test]
    fn auto_threads_never_exceeds_host_parallelism() {
        // On a 1-core host even huge products stay single-threaded (the
        // flop floor no longer engages workers that would only time-slice
        // one core); on bigger hosts the cap still applies.
        let t = auto_threads(4096, 4096, 4096);
        assert!(t <= host_parallelism().min(MAX_THREADS));
        if host_parallelism() == 1 {
            assert_eq!(t, 1);
        }
    }
}
