//! # ocular
//!
//! Facade crate for the OCuLaR workspace — a from-scratch Rust
//! reproduction of *"Scalable and interpretable product recommendations
//! via overlapping co-clustering"* (Heckel, Vlachos, Parnell, Duenner;
//! ICDE 2017).
//!
//! This crate re-exports the full public API of the member crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`api`] | the canonical trait hierarchy every model implements |
//! | [`sparse`] | binary interaction matrices, splits, samplers, loaders |
//! | [`linalg`] | dense factor matrices, Cholesky, vector kernels |
//! | [`datasets`] | synthetic generators and the paper's dataset profiles |
//! | [`eval`] | recall@M / MAP@M, evaluation protocol, grid search |
//! | [`core`] | OCuLaR, R-OCuLaR, co-clusters, explanations |
//! | [`baselines`] | wALS, BPR, user-/item-based kNN, popularity |
//! | [`community`] | Modularity, Louvain, BIGCLAM comparators |
//! | [`parallel`] | simulated GPU kernels, parallel trainer, memory model |
//! | [`serve`] | online serving: snapshots, candidate generation, batching, hot swap |
//!
//! ## Five-minute tour
//!
//! ```
//! use ocular::prelude::*;
//!
//! // 1. data: any one-class interaction matrix (users × items)
//! let data = ocular::datasets::figure1::figure1();
//!
//! // 2. train OCuLaR
//! let cfg = OcularConfig { k: 3, lambda: 0.05, max_iters: 300, seed: 42, ..Default::default() };
//! let result = fit(&data.matrix, &cfg);
//!
//! // 3. recommend and explain
//! let recs = recommend_top_m(&result.model, &data.matrix, 6, 1);
//! assert_eq!(recs[0].item, 4, "the paper's worked example");
//! let clusters = extract_coclusters(&result.model, default_threshold());
//! let why = explain(&result.model, &data.matrix, &clusters, 6, 4, 3);
//! println!("{}", why.render());
//! ```

pub use ocular_api as api;
pub use ocular_baselines as baselines;
pub use ocular_bytes as bytes;
pub use ocular_community as community;
pub use ocular_core as core;
pub use ocular_datasets as datasets;
pub use ocular_eval as eval;
pub use ocular_linalg as linalg;
pub use ocular_parallel as parallel;
pub use ocular_serve as serve;
pub use ocular_sparse as sparse;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ocular_api::{
        FoldIn as FoldInModel, Model, OcularError, Recommender, ScoreItems, ScoredItem,
        SnapshotModel,
    };
    pub use ocular_baselines::{
        all_baselines, BaselineConfigs, Bpr, BprConfig, ItemKnn, KnnConfig, Popularity, UserKnn,
        Wals, WalsConfig,
    };
    pub use ocular_core::{
        default_threshold, diagnose, explain, extract_coclusters, fit, fold_in_user,
        recommend_for_basket, recommend_top_m, CoCluster, Explanation, FactorModel, OcularConfig,
        Recommendation, TrainResult, Weighting,
    };
    pub use ocular_eval::protocol::{evaluate, EvalReport};
    pub use ocular_parallel::fit_parallel;
    pub use ocular_serve::{
        AnySnapshot, CandidatePolicy, EngineBuilder, QuantDtype, QuantizedFactors, Request,
        ServeConfig, ServeEngine, ServedList, Snapshot, SwapEngine,
    };
    pub use ocular_sparse::{
        CsrMatrix, Dataset, IdMaps, Split, SplitConfig, StreamingTriplets, Triplets,
    };
}
