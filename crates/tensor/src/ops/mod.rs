//! Numerical kernels: matrix multiplication and GEMM convolution.
//!
//! The convolution entry points operate on `NCHW` activations and
//! `[c_out, c_in, k, k]` weights and are shared by the forward *and*
//! backward passes of [`alf-nn`](https://example.invalid/alf), none of which
//! unfolds its input: the forward is [`conv_gemm_into`], the weight
//! gradient [`conv_weight_grad_into`] and the input gradient
//! [`conv_input_grad_into`]. Each has one route at every stride, pad and
//! width, and each takes and returns activations and their gradients in
//! `NCHW` (`[n, c, h, w]`), the layout the layers hold them in.
//!
//! Performance architecture (see `DESIGN.md` for the full picture):
//!
//! * [`gemm`] holds the one cache-blocked, register-tiled, multithreaded
//!   driver every plain f32 matrix product routes through.
//!   [`gemm_into`] / [`gemm_active_rows_into`] / [`gemm_active_k_into`]
//!   are the slice-level entry points hot loops call with their own
//!   [`Workspace`]. [`ActiveRows`] is the shared descriptor of which rows
//!   of a masked operand survive pruning; declared row/depth elision at
//!   pack time is the only sparse mechanism.
//! * [`matmul`] / [`matmul_at`] / [`matmul_bt`] are the tensor-level
//!   conveniences, drawing scratch from a thread-local workspace (the
//!   `_ws` variants take the caller's).
//! * [`qgemm`] holds the int8 entry points: [`gemm_i8_into`] runs an
//!   `i8×i8→i32` product as the convolution route's 1×1 convolution, and
//!   [`im2col_i8_into`] unfolds for it. Together they are the unfolded
//!   route the int8 convolution is tested against; the deployed int8
//!   engine runs [`conv_gemm_into`]. [`requantize_into`] is that engine's
//!   store, on the explicit AVX2 store of `alf-gemm-kernels` where the host
//!   has it.
//! * [`mod@reference`] preserves the seed's naive kernels for differential
//!   tests and as the benchmark baseline.
//! * The convolution route sits behind one private module, with the
//!   element trait it is generic over. [`conv_gemm_into`] is the
//!   convolution forward of every mode (f32 and i8) at every stride and
//!   kernel (1×1 included), bitwise equal to unfold + GEMM with neither:
//!   the pack-free tile of `alf-gemm-kernels` reads a zero-bordered copy
//!   of the image, split into phase planes at stride 2 and up. [`conv_weight_grad_into`] is the training weight
//!   gradient `G · unfold(X)ᵀ`, on the weight-gradient tile (lanes over
//!   output channels, accumulators over taps) at every stride.
//!   [`conv_input_grad_into`] is the input gradient, on the forward tile,
//!   one stride-1 convolution per input phase, with no column matrix and
//!   no `col2im`. Without AVX2 all three run the same bookkeeping on a
//!   scalar loop in the tiles' per-element order.
//! * [`im2col_into`] / [`im2col_i8_into`] share one unfold loop. No
//!   training or inference path calls them; with `reference::col2im_into`
//!   they are the reference route the proptests hold the convolution
//!   products to, bit for bit.
//! * [`Workspace`] is the scratch arena: one pool of named slots, generic
//!   over the element type.

mod conv;
mod conv_direct;
pub mod gemm;
mod matmul;
pub mod qgemm;
pub mod reference;
mod workspace;

pub use conv::{conv2d, conv_output_hw, im2col, im2col_into, Conv2dSpec};
pub use conv_direct::{conv_gemm_into, conv_input_grad_into, conv_weight_grad_into};
pub use gemm::{
    auto_threads, gemm_active_k_into, gemm_active_rows_into, gemm_into, host_parallelism,
    ActiveRows,
};
pub use matmul::{matmul, matmul_at, matmul_at_ws, matmul_bt, matmul_bt_ws, matmul_ws};
pub use qgemm::{gemm_i8_into, im2col_i8_into, requantize, requantize_into};
pub use workspace::{with_thread_workspace, Workspace};
