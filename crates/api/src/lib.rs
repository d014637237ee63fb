//! # ocular-api
//!
//! The canonical model API of the OCuLaR workspace: **one trait hierarchy
//! from training to serving**. Every algorithm in the workspace — OCuLaR
//! itself ([`ocular-core`]'s `FactorModel`) and the Table-I baselines
//! (wALS, BPR, user-/item-kNN, popularity) — implements these traits, so
//! the evaluation protocol, the bench harness and the serving engine all
//! consume `&dyn Recommender` instead of per-crate traits or ad-hoc
//! closures.
//!
//! ```text
//! ScoreItems                 per-item scoring (evaluation's only need)
//!   └── Recommender          top-M via the shared ocular_linalg::topk kernel
//!         ├── FoldIn         request-time cold start (optional capability)
//!         ├── Explain        co-cluster provenance (optional, OCuLaR-only)
//!         └── SnapshotModel  kind-tagged v3 sections, out and in
//!               Model = Recommender + SnapshotModel
//! ```
//!
//! Failures flow through the unified [`OcularError`] — fallible
//! constructors (`try_fit`, `try_new`) return it instead of panicking, and
//! serving requests carry it per response.
//!
//! [`ocular-core`]: https://docs.rs/ocular-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod error;
pub mod traits;

pub use binary::{SectionReader, SectionWriter, SnapshotMeta};
pub use error::OcularError;
pub use traits::{
    validate_basket, ClusterEvidence, Explain, FnScorer, FoldIn, Model, Provenance, Recommender,
    ScoreItems, ScoredItem, SnapshotModel,
};
