//! # ocular-linalg
//!
//! Small dense linear algebra for the OCuLaR reproduction.
//!
//! The paper's algorithms need only a narrow slice of linear algebra, all of
//! it dense and small:
//!
//! * factor matrices `F ∈ R^{n×K}` with fast row views — [`Matrix`];
//! * vector kernels (dot products, axpy, non-negative projection) on factor
//!   rows — [`ops`];
//! * `K×K` symmetric positive-definite solves for the wALS baseline's
//!   alternating least-squares updates — [`Cholesky`];
//! * Gram matrices `FᵀF` (the wALS "Gram trick" that makes the one-class
//!   objective tractable) — [`Matrix::gram`];
//! * bounded top-K selection under the workspace ranking ties convention,
//!   shared by evaluation and serving — [`topk`];
//! * quantized serving representations (`f32`, affine per-row `int8`) with
//!   blocked, auto-vectorizable score-many kernels, compiled once per ISA
//!   level (baseline, AVX2) and picked at run time — [`quant`].
//!
//! The master representation is `f64`, row-major, and
//! allocation-conscious: the hot kernels in [`ops`] write into
//! caller-provided buffers. [`quant`] narrows item factors for the serve
//! path only; training and fold-in stay `f64`.

// `deny`, not `forbid`: `quant::avx2` carries the crate's one
// `#[allow(unsafe_code)]` — the AVX2 stamp of the scoring kernels
// (`#[target_feature]` fns are `unsafe fn` on the MSRV) and the single
// `unsafe` block that calls it under the CPU feature check.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod matrix;
pub mod ops;
pub mod quant;
pub mod topk;

pub use cholesky::{Cholesky, CholeskyError};
pub use matrix::Matrix;
pub use quant::{KernelLevel, PreparedQuery, QuantDtype, QuantizedFactors};
pub use topk::{top_k_excluding, MonotoneTopK, TopK};
