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
//! * [`fit_parallel`] — `ocular_core::fit` under a thread count. The
//!   trainer itself is data-parallel: its half-sweeps update all items (then
//!   all users) in row blocks, because each factor row's subproblem reads
//!   only the *fixed* side, and the per-sweep objective forms its positive
//!   terms the same way. Per-entity parallelism is exact: the model is
//!   bitwise identical at every thread count, which the tests assert;
//! * [`memory`] — the paper's device-memory footprint model
//!   `O(max(nnz, n_u·K, n_i·K))`, including the Netflix/K=200 ≈ 2.7 GB
//!   worked example;
//! * [`speedup`] — Figure 8 instrumentation: likelihood-vs-wall-clock
//!   traces and the speedup factor at a target accuracy;
//! * [`fan_out`] over [`blocks`] (and [`map_slice`]) under the one thread
//!   knob [`with_threads`] — re-exported from `ocular_linalg::par`, below
//!   `ocular-core`, so the trainer, `ocular-serve`'s batches and the grid
//!   search share one executor and one thread count;
//! * [`pool`] — the persistent [`WorkerPool`] for work that must find its
//!   threads running: network workers and split catalog scans.
//!
//! The measured speedup is bounded by host cores rather than 57×, but the
//! *shape* of Figure 8 — same final likelihood, parallel trace strictly
//! left of the sequential trace — is preserved, which is the claim the
//! substitution needs to support (the Figure 8 row of the README's *Paper
//! ↔ code map*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod pool;
pub mod speedup;
pub mod trainer;

pub use memory::MemoryModel;
pub use ocular_linalg::par::{
    blocks, fan_out, host_cores, map_slice, row_blocks, threads, with_threads,
};
pub use pool::WorkerPool;
pub use speedup::{speedup_at_threshold, TimedTrace};
pub use trainer::fit_parallel;
