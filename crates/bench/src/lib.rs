//! # ocular-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section, plus Criterion microbenches and ablations.
//!
//! | target | regenerates | run |
//! |---|---|---|
//! | `table1` | Table I (MAP@50 / recall@50, six methods, three datasets) | `cargo run -p ocular-bench --release --bin table1` |
//! | `figure2` | Fig. 2 (Modularity & BIGCLAM failure on the toy example) | `… --bin figure2` |
//! | `figure5` | Fig. 5 (recall@M and MAP@M curves, Movielens) | `… --bin figure5` |
//! | `figure6` | Fig. 6 (recall + co-cluster metrics across K, λ) | `… --bin figure6` |
//! | `figure7` | Fig. 7 (time/iteration vs dataset fraction and K) | `… --bin figure7` |
//! | `figure8` | Fig. 8 (likelihood-vs-time, sequential vs parallel) | `… --bin figure8` |
//! | `figure9` | Fig. 9 (recall@50 heatmap over the (K, λ) grid) | `… --bin figure9` |
//! | `ablations` | design-choice ablations called out in DESIGN.md | `… --bin ablations` |
//!
//! Every binary accepts `--scale small|medium|paper` (default `small`,
//! ≈10× below the paper's dataset sizes so the full suite runs on a laptop
//! in minutes), `--seed N` and `--instances N`. Absolute numbers differ
//! from the paper (synthetic stand-in data; see DESIGN.md §2) but the
//! qualitative shape — who wins, scaling slopes, where the heatmap peaks —
//! is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod table;

pub use args::Args;
pub use harness::{evaluate_recommender, OcularRecommender};
pub use table::TextTable;
