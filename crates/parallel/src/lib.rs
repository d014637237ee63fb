//! # ocular-parallel
//!
//! Section VI of the paper ("Using massively parallel processors") on CPU
//! cores instead of a GPU.
//!
//! ## What the paper did, and what this crate does
//!
//! The paper maps training onto CUDA: the training data is copied to the
//! device once; the gradient kernel launches *one thread block per positive
//! rating*, each block computing `⟨f_u, f_i⟩` by a shared-memory reduction
//! and atomically accumulating `−α(p)·f_u` into the item gradient; a
//! GeForce TITAN X reaches the same training likelihood 57× faster than the
//! CPU implementation (Figure 8).
//!
//! Without a GPU we reproduce the *decomposition*, not the silicon — and
//! keep it bit-stable, where `atomicAdd` reorders sums:
//!
//! * [`trainer`] — a data-parallel block-coordinate trainer whose
//!   half-sweeps update all items (then all users) concurrently. Because
//!   each factor row's subproblem reads only the *fixed* side, per-entity
//!   parallelism is exact: the result is bitwise identical to the
//!   sequential trainer, which the tests assert;
//! * [`memory`] — the paper's device-memory footprint model
//!   `O(max(nnz, n_u·K, n_i·K))`, including the Netflix/K=200 ≈ 2.7 GB
//!   worked example;
//! * [`speedup`] — Figure 8 instrumentation: likelihood-vs-wall-clock
//!   traces and the speedup factor at a target accuracy;
//! * [`pool`] — the persistent [`WorkerPool`] the serving tier runs its
//!   network workers and the parts of a split catalog scan on.
//!
//! The measured speedup is bounded by host cores rather than 57×, but the
//! *shape* of Figure 8 — same final likelihood, parallel trace strictly
//! left of the sequential trace — is preserved, which is the claim the
//! substitution needs to support (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod pool;
pub mod speedup;
pub mod trainer;

pub use memory::MemoryModel;
pub use pool::WorkerPool;
pub use speedup::{speedup_at_threshold, TimedTrace};
pub use trainer::fit_parallel;

/// Runs `f` under an explicit rayon thread count, or on the ambient pool
/// when `threads` is `None`.
///
/// This is the one thread knob shared by every data-parallel entry point in
/// the workspace ([`fit_parallel`], `ocular-serve`'s batch path and the
/// number of parts its full-catalog scans split into, the Figure 8
/// harness), so "1 thread vs N threads" comparisons always mean the same
/// thing.
///
/// # Panics
/// Panics if the dedicated pool cannot be built.
pub fn with_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        None => f(),
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("failed to build rayon pool")
            .install(f),
    }
}
