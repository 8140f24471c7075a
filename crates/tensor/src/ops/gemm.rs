//! Cache-blocked, register-tiled, optionally multithreaded f32 GEMM.
//!
//! This is the blocked driver behind every plain f32 matrix product in the
//! workspace ([`super::matmul`], [`super::matmul_at`],
//! [`super::matmul_bt`], the linear layers and the autoencoder player in
//! `alf-core`). It multiplies f32 matrices and nothing else. The structure
//! is the classic three-level blocking of Goto/BLIS:
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
//!   the workspace allows `unsafe`. This crate and every other keep
//!   `#![forbid(unsafe_code)]`.)
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

use super::workspace::Workspace;
use crate::ShapeError;
use alf_gemm_kernels::{microkernel_into, microkernel_into_clipped};

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
/// channels ([`super::conv_gemm_into`], [`super::conv_weight_grad_into`],
/// [`super::conv_input_grad_into`]), and the autoencoder decoder GEMM skips
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
/// parallelism, [`MAX_THREADS`], and the number of `MC` row blocks.
/// Callers that need another count (the determinism tests) pass `threads`
/// to the entry points directly.
pub fn auto_threads(m: usize, k: usize, n: usize) -> usize {
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
struct Gather<'g> {
    rmap: Option<&'g [usize]>,
    kmap: Option<&'g [usize]>,
    am: usize,
    ak: usize,
}

impl<'g> Gather<'g> {
    fn dense(m: usize, k: usize) -> Self {
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

/// Workers the blocked driver engages for `m` logical rows when asked for
/// `threads`: one per [`MC`] row block at most.
pub(super) fn workers(threads: usize, m: usize) -> usize {
    threads.clamp(1, m.div_ceil(MC).max(1)).min(MAX_THREADS)
}

/// The blocked driver behind every entry point. `m` and `k` are the
/// *logical* (post-gather) dimensions the blocking runs over; `gather`
/// carries the physical strides and optional index maps (see [`Gather`]).
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
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
    gather: Gather<'_>,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), gather.am * gather.ak);
    debug_assert_eq!(b.len(), gather.ak * n);
    debug_assert_eq!(gather.rmap.map_or(gather.am, <[usize]>::len), m);
    debug_assert_eq!(gather.kmap.map_or(gather.ak, <[usize]>::len), k);
    ws.count_packed_product();
    c.fill(0.0);
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
fn process_rows(
    c_rows: &mut [f32],
    row0: usize,
    mrows: usize,
    a: &[f32],
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
            let c = &mut c_rows[coff..cend];
            if rlim == MR && clim == NR {
                microkernel_into(apanel, bpanel, c, n);
            } else {
                microkernel_into_clipped(apanel, bpanel, c, n, rlim, clim);
            }
        }
    }
}

/// Packs `A[i0..i0+mc, p0..p0+kc]` (transpose- and gather-aware) into
/// `MR`-row panels: `apack[(ip·kc + p)·MR + r] = A[rmap(i0 + ip·MR + r),
/// kmap(p0 + p)]`, zero-padding rows past `mc`. This is where row/depth
/// elision physically happens — a pruned row simply has no panel slot.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    apack: &mut [f32],
    a: &[f32],
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
                        a[pk * gather.am + pr]
                    } else {
                        a[pr * gather.ak + pk]
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
/// copy — this is the O(k·n) stage small-`m` products spend most of their
/// non-tile time in.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bpack: &mut [f32],
    b: &[f32],
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
                    *slot = b[(col0 + r) * gather.ak + pk];
                }
            } else {
                // Element by element, not `copy_from_slice`: a panel row is
                // at most `NR` floats, and a `memcpy` call per row costs
                // more than the copy.
                let src = &b[pk * n + col0..pk * n + col0 + live];
                for (slot, &v) in cols.iter_mut().zip(src) {
                    *slot = v;
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
