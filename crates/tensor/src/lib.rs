//! Dense tensor math substrate for the DeepMorph reproduction.
//!
//! The paper implements DeepMorph over TensorFlow; this crate is the
//! from-scratch replacement for the numerical kernels that the rest of the
//! workspace builds on. It provides:
//!
//! * [`Tensor`] — a contiguous, row-major, `f32` n-dimensional array with
//!   elementwise arithmetic, reductions, and softmax/log-softmax.
//! * [`conv`] — `im2col`/`col2im` and pooling kernels used by the
//!   convolution layers in `deepmorph-nn`.
//! * [`backend`] — matrix products. [`backend::ComputeCtx`] is the one
//!   door into a dense product: its `matmul`/`matmul_nt`/`matmul_tn`
//!   validate shapes and call [`backend::Backend::gemm`], the one kernel
//!   hook. The cache-blocked scalar kernel is the one f32 GEMM and the
//!   bitwise reference. Quantized serving replicas run the integer
//!   kernel in [`backend::quant`], whose AVX2 path `--features simd`
//!   compiles.
//! * [`workspace`] — the thread-local scratch arena that keeps the
//!   conv/matmul hot loop allocation-free after warm-up.
//! * [`init`] — deterministic weight initialization (uniform, normal,
//!   Xavier/Glorot, He).
//! * [`io`] — the versioned, checksummed binary codec (tensor save/load
//!   plus the byte primitives the higher-layer artifact formats build on).
//! * [`stats`] — distribution/geometry helpers (entropy, KL/JS divergence,
//!   cosine similarity) that the DeepMorph footprint analysis relies on.
//!
//! Layout convention is **NCHW** for 4-D activation tensors and
//! `[rows, cols]` for matrices.
//!
//! # Example
//!
//! ```
//! use deepmorph_tensor::backend::ComputeCtx;
//! use deepmorph_tensor::Tensor;
//!
//! # fn main() -> Result<(), deepmorph_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ComputeCtx::default().matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod chunks;
pub mod conv;
mod error;
mod gemm;
pub mod init;
pub mod io;
mod shape;
pub mod stats;
mod tensor;
pub mod workspace;

pub use error::TensorError;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::backend::{Backend, BackendHandle, ComputeCtx, GemmSpec, MatLayout};
    pub use crate::conv::{self, Conv2dGeometry, Im2colMap, PoolGeometry};
    pub use crate::init::{self, Init};
    pub use crate::io::{self, CodecError};
    pub use crate::stats;
    pub use crate::{workspace, Tensor, TensorError};
}

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
