//! Cache-blocked, register-tiled, optionally multithreaded GEMM.
//!
//! This is the single blocked driver behind every matrix product in the
//! workspace ([`super::matmul`], [`super::matmul_at`],
//! [`super::matmul_bt`], the linear layers and the autoencoder player in
//! `alf-core`). No convolution product runs it. The structure is the
//! classic three-level blocking of Goto/BLIS:
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
//! consumes a panel pair. (The trait also tells the convolution route its
//! own image layout, below.) The int8 product ([`super::gemm_i8_into`]) is
//! therefore the same code as the f32 one, entered with one thread and
//! identity gathers; see [`super::qgemm`] for why it stays exact.
//!
//! **Convolutions never unfold, and never pack.** Each of the three
//! convolution products has one route (`conv_direct`), at every stride,
//! pad and width, and each reads and writes its activations in the
//! layer's own `NCHW` layout: [`conv_gemm_into`], the forward of every
//! mode (training, eval, statistics, int8), copies each image once into a
//! zero-bordered, phase-split scratch from which the explicit tile of
//! `alf-gemm-kernels` loads its operands — f32 in the unfolded product's
//! per-element operation order, int8 as i16 channel pairs in exact integer
//! arithmetic — so it is bit for bit `im2col` + this driver. The weight
//! gradient `G · unfold(X)ᵀ` ([`conv_weight_grad_into`]) runs on the
//! weight-gradient tile, and the input gradient ([`conv_input_grad_into`])
//! on the forward tile, one stride-1 convolution per input phase. A host
//! without AVX2 runs the same bookkeeping on a scalar loop with the tiles'
//! per-element sequence, and filters past one [`MC`] block split across
//! workers there as here.
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
use super::conv_direct::{self, Kernel};
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
/// forward and both backward products compute only the live output
/// channels ([`conv_gemm_into`], [`conv_weight_grad_into`],
/// [`conv_input_grad_into`]), and the autoencoder decoder GEMM skips
/// inactive `k` slices ([`gemm_active_k_into`]).
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
    // Cached because this sits on the GEMM dispatch path.
    *OVERRIDE.get_or_init(|| env_threads("ALF_GEMM_THREADS"))
}

/// Parses a positive worker count from `env_var`. Returns `None` when the
/// variable is unset, empty, non-numeric, or zero; surrounding whitespace
/// is tolerated.
fn env_threads(env_var: &str) -> Option<usize> {
    std::env::var(env_var).ok().and_then(|v| parse_threads(&v))
}

fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
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
    gemm_driver(c, a, ta, b, tb, m, k, n, ws, threads, Gather::dense(m, k));
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
    if rows.is_all() {
        return gemm_driver(
            c,
            a,
            false,
            b,
            tb,
            m,
            k,
            n,
            ws,
            threads,
            Gather::dense(m, k),
        );
    }
    c.fill(0.0);
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
    gemm_driver(&mut cc, a, false, b, tb, live, k, n, ws, threads, gather);
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
/// to it is the identity. The autoencoder decoder GEMM uses this to make
/// its cost track mask occupancy.
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
    gemm_driver(c, a, ta, b, false, m, ke, n, ws, threads, gather);
}

/// Convolution as one GEMM, with the im2col matrix never materialised:
/// `C = A · unfold(X)` where `A` is the `[m, ci·k²]` weight matrix, `X` the
/// `NCHW` input (`dims = [n, ci, h, w]`) and `C` the `NCHW` output `[n, m,
/// h_out, w_out]`: row `row` of image `b` starts at `(b·m + row)·h_out·w_out`.
/// `rows` restricts the product to the surviving filters exactly as
/// [`gemm_active_rows_into`] does; the others are written as zero.
///
/// Every bit of `C` is that of `im2col_into` + [`gemm_into`] (or
/// `im2col_i8_into` + `gemm_i8_into` for `i8`), whose `[m, n·h_out·w_out]`
/// product holds the same elements image by image, at any stride and kernel
/// (1×1 included), without that driver: no `B` is packed. Each image is
/// copied once into a zero-bordered scratch (f32, or i16 channel pairs for
/// `i8`), split into phase planes at stride `s` so that every stride reads
/// it as stride 1 does, and the explicit tile of `alf-gemm-kernels` reads
/// it in place — or, on a host without AVX2, a scalar loop in the tile's
/// per-element order (see `conv_direct`). When the live rows span more
/// than one [`MC`] block, `threads` splits each image's rows across
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
    let kernel = Kernel::detect();
    conv_direct::conv_direct_into(kernel, c, a, x, m, dims, spec, rows, ws, threads);
}

/// The weight gradient of a convolution, with the im2col matrix never
/// materialised: `C = G · unfold(X)ᵀ` where `G` is the `NCHW` output
/// gradient `[n, m, h_out, w_out]`, `X` the `NCHW` input (`dims = [n, ci,
/// h, w]`) and `C` the `[m, ci·k²]` gradient of the weight matrix. `rows` restricts the
/// product to the surviving filters exactly as [`gemm_active_rows_into`]
/// does; the others are written as zero.
///
/// Every bit of `C` is that of `im2col_into` followed by
/// `gemm_into(c, g, false, cols, true, ..)` (or `gemm_active_rows_into(..,
/// tb = true)` on `rows`) with `G` unfolded to `[m, n·h_out·w_out]`, at
/// every stride, without that driver: the
/// weight-gradient tile of `alf-gemm-kernels` (lanes over live output
/// channels, accumulators over taps) reads a zero-bordered, phase-split
/// copy of the batch and a pixel-major copy of `G`, and sums each element
/// over the pixels in the unfolded product's order with the same [`KC`]
/// flushes (see `conv_direct`). Hosts without AVX2 run a scalar loop in
/// that order. The work follows the live rows: a block of up to eight
/// costs one channel vector. When the live rows span more than one
/// [`MC`] block, `threads` splits them across workers, each computing
/// whole elements, so the bits do not depend on `threads`.
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
    let kernel = Kernel::detect();
    conv_direct::weight_grad_into(kernel, c, g, x, m, dims, spec, rows, ws, threads);
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
/// `conv_direct`). Each element of `dX` adds its taps in ascending `(ky,
/// kx)`, each tap's `Σ_co` formed from `+0.0` over the live channels in
/// ascending order: for finite weights and at most [`KC`] live channels
/// every bit is that of `gemm_into(Aᵀ, G)` (or `gemm_active_k_into` on
/// `rows`) followed by `col2im`. Past `KC` live channels a tap's `Σ_co` is
/// one sum where the blocked driver would flush it per `KC` slab. When the
/// input channels span more than one [`MC`] block, `threads` splits them
/// across workers, so the bits do not depend on `threads`.
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
    let kernel = Kernel::detect();
    conv_direct::input_grad_into(kernel, dx, a, g, m, dims, spec, rows, ws, threads);
}

/// Workers the blocked driver engages for `m` logical rows when asked for
/// `threads`: one per [`MC`] row block at most.
pub(super) fn workers(threads: usize, m: usize) -> usize {
    threads.clamp(1, m.div_ceil(MC).max(1)).min(MAX_THREADS)
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
    type Acc: Copy + Default + std::ops::AddAssign + Send + Sync + 'static;

    /// Channels one pixel of the convolution route's bordered image holds
    /// side by side: 1 for `f32`, 2 for `i8` (one `vpmaddwd` pair).
    const GROUP: usize;

    /// Element type of the convolution route's bordered image.
    type Lane: Copy + Default + Send + Sync + 'static;

    /// One filter's [`GROUP`](Element::GROUP) weights of one tap, packed
    /// as the convolution route's tile reads them.
    type Weight: Copy + Default + Send + Sync + 'static;

    /// The value as a packed-panel lane.
    fn widen(self) -> f32;

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

    fn widen(self) -> f32 {
        self
    }

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

    fn tile(apanel: &[f32], bpanel: &[f32], c: &mut [f32], n: usize, rlim: usize, clim: usize) {
        if rlim == MR && clim == NR {
            microkernel_into(apanel, bpanel, c, n);
        } else {
            microkernel_into_clipped(apanel, bpanel, c, n, rlim, clim);
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

    fn tile(apanel: &[f32], bpanel: &[f32], c: &mut [i32], n: usize, rlim: usize, clim: usize) {
        microkernel_i8_into(apanel, bpanel, c, n, rlim, clim);
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

/// The blocked driver behind every entry point. `m` and `k` are the
/// *logical* (post-gather) dimensions the blocking runs over; `gather`
/// carries the physical strides and optional index maps (see [`Gather`]).
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_driver<T: Element>(
    c: &mut [T::Acc],
    a: &[T],
    ta: bool,
    b: &[T],
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
    threads: usize,
    gather: Gather<'_>,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), gather.am * gather.ak);
    debug_assert_eq!(b.len(), gather.ak * n);
    debug_assert_eq!(gather.rmap.map_or(gather.am, <[usize]>::len), m);
    debug_assert_eq!(gather.kmap.map_or(gather.ak, <[usize]>::len), k);
    ws.count_packed_product();
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
            pack_b(&mut bpack, b, tb, n, pc, kc, jc, nc, gather);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::ops::reference;
    use crate::rng::Rng;
    use crate::Tensor;

    #[test]
    fn env_threads_rejects_garbage() {
        assert_eq!(env_threads("ALF_GEMM_TEST_UNSET"), None);
        assert_eq!(parse_threads(" 4 "), Some(4));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
    }

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
        // and with more than KC live channels: not one driver run.
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
                        conv_direct::conv_direct_into(
                            kernel, &mut c, a, &x, m, dims, spec, rows, ws, threads,
                        );
                        conv_direct::conv_direct_into(
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
        assert_eq!(ws.packed_products(), 0);
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
