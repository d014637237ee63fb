//! # ocular-parallel
//!
//! [`fit_parallel`]: [`ocular_core::fit`] under a thread count. `fit` is
//! itself the paper's §VI data-parallel trainer, and bitwise the same at
//! every count, so this one function is all that is left here. The repo
//! benchmark's own manifest names this crate and calls it; new code calls
//! `ocular_linalg::par::with_threads(threads, || fit(data, cfg))` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ocular_core::config::OcularConfig;
use ocular_core::trainer::{fit, TrainResult};
use ocular_sparse::Dataset;

/// Fits OCuLaR on `threads` threads: `None` keeps
/// [`ocular_linalg::par::threads`], `Some(n)` runs on `n`. The same model
/// as [`ocular_core::fit`] at any count.
///
/// # Panics
/// Panics if `cfg` fails validation.
pub fn fit_parallel(data: &Dataset, cfg: &OcularConfig, threads: Option<usize>) -> TrainResult {
    ocular_linalg::par::with_threads(threads, || fit(data, cfg))
}
