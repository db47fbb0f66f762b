//! Dense `f32` tensor substrate for the ReVeil reproduction.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the workspace: an owned, row-major, NCHW-oriented [`Tensor`] type together
//! with the linear-algebra and signal-processing primitives the paper's
//! pipeline needs:
//!
//! * elementwise arithmetic and mapping ([`Tensor::map`], operator impls),
//! * matrix multiplication in the transpose flavours required by
//!   backpropagation through one entry point, [`ops::matmul_into`]: an
//!   [`ops::Transpose`] names the operand read transposed in place, `beta`
//!   overwrites, accumulates into or scales the caller-provided output, and
//!   every flavour runs one blocked, packed, auto-vectorized GEMM kernel
//!   ([`ops::matmul`] is the allocating `A·B`),
//! * `im2col`/`col2im` lowering for convolutions ([`conv`]), including
//!   whole-mini-batch variants that feed one large matmul per layer call,
//! * a bit-exact, vectorizable `exp` and the sigmoid built on it
//!   ([`math`]), so no result depends on the platform's `expf`. Other
//!   transcendental functions still come from the platform's libm, which
//!   ties results to the libm they were made with (ROADMAP.md, item 9):
//!   `ln` and `cos` in [`rng::standard_normal`], `ln` in
//!   [`ops::entropy_rows_into`], `cos` in the [`dct`] basis and, outside
//!   this crate, the cross-entropy loss's `ln`, `CosineAnnealing`'s `cos`,
//!   the dataset generator's `cos` and `sin` and Beatrix's `powf`,
//! * an orthonormal 2-D DCT used by the FTrojan frequency-domain trigger
//!   ([`dct`]),
//! * deterministic, stream-splittable random number helpers including a
//!   Box–Muller Gaussian ([`rng`]), and
//! * the worker team that fans whole cells, audits and SISA shards across
//!   threads ([`parallel`]; worker count overridable via `REVEIL_THREADS`).
//!
//! Every kernel above runs single-threaded on its caller's thread; the
//! worker team is the only parallelism in the workspace.
//!
//! # Example
//!
//! ```
//! use reveil_tensor::{Tensor, ops};
//!
//! # fn main() -> Result<(), reveil_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(&[3, 2]);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 6.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod tensor;

pub mod conv;
pub mod dct;
pub mod math;
pub mod ops;
pub mod parallel;
pub mod rng;

pub use error::TensorError;
pub use tensor::Tensor;
