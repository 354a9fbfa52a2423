//! # fluid-tensor
//!
//! Dense, row-major `f32` tensors and the numerical kernels needed by the
//! Fluid Dynamic DNN reproduction: one strided matrix-multiplication
//! engine (transposed operands are zero-copy [`TensorView`]s, not
//! separate kernels), `im2col`/`col2im` for convolutions, elementwise
//! maps, reductions, and weight initialisers.
//!
//! The crate deliberately mirrors the small subset of a full tensor library
//! that the paper's 3-conv + 1-FC model needs, with exact, deterministic
//! semantics so higher layers can be property-tested.
//!
//! ## Example
//!
//! ```
//! use fluid_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! Shape errors panic with a descriptive message (as in `ndarray`); all
//! panicking functions document this in a *Panics* section.
//!
//! ## Transposed views
//!
//! [`Tensor::view`] borrows a tensor as a [`TensorView`], a dims+strides
//! window; [`TensorView::transpose`] swaps two strides, and the GEMM
//! engine packs straight from them — `a.view().t().matmul(&b.view())` is
//! the transposed product, with no copy and no special kernel. See
//! `docs/TENSOR.md`.
//!
//! ## The byte codec
//!
//! [`codec`] is the one little-endian format for tensors, strings and
//! integers: the distributed runtime's wire messages and the model
//! checkpoint both write and read through it, and it holds the shared
//! FNV-1a and SplitMix64 hashes.
//!
//! ## The compute-kernel layer
//!
//! Every kernel here fans out over the [`pool`] worker threads
//! (`FLUID_THREADS`, default: all cores) using row-partitioned chunks, so
//! results are **bit-identical at any thread count**. Scratch-heavy
//! kernels have `_ws` twins that draw their intermediates from a
//! [`Workspace`] arena instead of the allocator — see
//! `docs/PERFORMANCE.md` for the design and tuning guide.
//!
//! Unsafe code is denied crate-wide; the two exceptions are the
//! documented lifetime-erasure at the heart of [`pool`]'s scoped
//! execution and the `std::arch` microkernels in [`simd`], every block
//! of which carries a `// SAFETY:` comment (enforced by
//! `deny(clippy::undocumented_unsafe_blocks)`).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(missing_docs)]

pub mod codec;
mod gemm;
mod im2col;
mod init;
mod matmul;
mod ops;
pub mod pool;
pub mod quant;
mod reduce;
mod rng;
mod shape;
// The SIMD microkernels are the crate's one deliberate unsafe island
// beyond `pool`'s scoped execution; see `simd.rs` for the safety story.
#[allow(unsafe_code)]
pub mod simd;
mod tensor;
mod view;
mod workspace;

pub use gemm::{
    conv_gemm_dw_ws, conv_gemm_fwd_with, conv_gemm_fwd_ws, PatchMatrix, KC, MR, NC, NR,
};
pub use im2col::{col2im, col2im_ws, im2col, Conv2dGeometry};
pub use init::{kaiming_normal, kaiming_uniform, xavier_uniform};
pub use rng::Prng;
pub use shape::{numel, Shape, MAX_RANK};
pub use tensor::Tensor;
pub use view::TensorView;
pub use workspace::Workspace;
