//! Numerical kernels: matrix multiplication and im2col-based convolution.
//!
//! The convolution entry points operate on `NCHW` activations and
//! `[c_out, c_in, k, k]` weights and are shared by the forward *and*
//! backward passes of [`alf-nn`](https://example.invalid/alf): the backward
//! pass is expressed as matmuls against the saved column matrix plus a
//! [`col2im`] scatter.
//!
//! Performance architecture (see `DESIGN.md` for the full picture):
//!
//! * [`gemm`] holds the one cache-blocked, register-tiled, multithreaded
//!   driver every matrix product routes through — f32 and int8 alike: the
//!   loop nest and both packers are generic over the operand element, and
//!   a private element trait picks the accumulator type and the register
//!   tile. [`gemm_into`] / [`gemm_active_rows_into`] /
//!   [`gemm_active_k_into`] are the slice-level f32 entry points hot
//!   loops call with their own [`Workspace`]. [`ActiveRows`] is the
//!   shared descriptor of which rows of a masked operand survive pruning;
//!   declared row/depth elision at pack time is the only sparse mechanism.
//! * [`matmul`] / [`matmul_at`] / [`matmul_bt`] are the tensor-level
//!   conveniences, drawing scratch from a thread-local workspace (the
//!   `_ws` variants take the caller's).
//! * [`qgemm`] holds the int8 entry points: [`gemm_i8_into`] runs
//!   `i8×i8→i32` products through the same driver for the quantized
//!   deployment path, and [`im2col_i8_into`] feeds it.
//! * [`mod@reference`] preserves the seed's naive kernels for differential
//!   tests and as the benchmark baseline.
//! * [`im2col_into`] / [`im2col_i8_into`] share one unfold loop and, like
//!   [`col2im_into`], write into caller-owned buffers so layer code can
//!   keep the whole conv step allocation-free. Only a training forward
//!   needs them: [`conv_gemm_into`] is the forward-only convolution (f32
//!   and i8), bitwise equal to unfold + GEMM without the unfold — the same
//!   driver packing its `B` panels straight from the `NCHW` input, or, for
//!   stride-1 kernels (1×1 included) on AVX2 hosts, the pack-free tile of
//!   `alf-gemm-kernels` reading a zero-bordered copy of the image.
//!   [`requantize_into`] is the int8 engine's store, on the explicit AVX2
//!   store of that crate where the host has it.
//! * [`Workspace`] is the scratch arena: one pool of named slots, generic
//!   over the element type.

mod conv;
#[cfg(target_arch = "x86_64")]
mod conv_direct;
pub mod gemm;
mod matmul;
pub mod qgemm;
pub mod reference;
mod workspace;

pub use conv::{col2im, col2im_into, conv2d, conv_output_hw, im2col, im2col_into, Conv2dSpec};
pub use gemm::{
    auto_threads, conv_gemm_into, gemm_active_k_into, gemm_active_rows_into, gemm_into,
    host_parallelism, ActiveRows,
};
pub use matmul::{matmul, matmul_at, matmul_at_ws, matmul_bt, matmul_bt_ws, matmul_ws};
pub use qgemm::{gemm_i8_into, im2col_i8_into, requantize, requantize_into};
pub use workspace::{with_thread_workspace, Workspace};
