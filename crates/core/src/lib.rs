//! # ocular-core
//!
//! From-scratch Rust implementation of **OCuLaR** — the *Overlapping
//! co-CLuster Recommendation* algorithm of Heckel, Vlachos, Parnell and
//! Duenner (*Scalable and interpretable product recommendations via
//! overlapping co-clustering*, ICDE 2017) — together with its
//! relative-preference variant **R-OCuLaR** (Section V) and the optional
//! bias extension (Section IV-A).
//!
//! ## The model
//!
//! Users and items carry non-negative affiliation vectors `f_u, f_i ∈ R₊^K`;
//! entry `c` measures how strongly the user/item belongs to co-cluster `c`.
//! Each co-cluster generates a positive example independently, so
//!
//! ```text
//! P[r_ui = 1] = 1 − exp(−⟨f_u, f_i⟩)            (Eq. 1)
//! ```
//!
//! Fitting maximises the regularised likelihood of the observed one-class
//! matrix (Eq. 3–4) by cyclic block coordinate descent: item factors and
//! user factors are updated alternately, each by a **single projected
//! gradient step** with Armijo backtracking line search along the projection
//! arc (Section IV-B/IV-D). The `Σ_u f_u` sum-trick makes a full sweep cost
//! `O(nnz · K)` — linear in the positive examples and in the number of
//! co-clusters, which is the paper's scalability claim (Figure 7).
//!
//! ## Quick start
//!
//! ```
//! use ocular_core::{fit, OcularConfig};
//! use ocular_sparse::{CsrMatrix, Dataset};
//!
//! // two obvious co-clusters
//! let r: Dataset = CsrMatrix::from_pairs(4, 4, &[
//!     (0, 0), (0, 1), (1, 0), (1, 1),
//!     (2, 2), (2, 3), (3, 2), (3, 3),
//! ]).unwrap().into();
//! let result = fit(&r, &OcularConfig { k: 2, lambda: 0.05, seed: 7, ..Default::default() });
//! // inside-cluster pairs score far higher than cross-cluster pairs
//! assert!(result.model.prob(0, 1) > 5.0 * result.model.prob(0, 3));
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`model`] | IV-A | [`FactorModel`], probabilities, persistence |
//! | [`config`] | IV-B, V | [`OcularConfig`], [`Weighting`] |
//! | [`loss`] | IV-B | objective `Q`, numerically safe pair loss |
//! | [`gradient`] | IV-D | per-factor gradients with the sum-trick |
//! | [`linesearch`] | IV-D | Armijo backtracking along the projection arc |
//! | [`trainer`] | IV-B/D | block coordinate descent, telemetry, [`fit`] |
//! | [`recommend`] | IV-C | top-M recommendation lists |
//! | [`recommender`] | — | [`ocular_api`] trait hierarchy impls for [`FactorModel`] |
//! | [`coclusters`] | IV-C | co-cluster extraction and statistics |
//! | [`explain`](mod@explain) | IV-C, VIII | interpretable rationales (Figures 3 & 10) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coclusters;
pub mod config;
pub mod diagnostics;
pub mod explain;
pub mod foldin;
pub mod gradient;
pub mod linesearch;
pub mod loss;
pub mod model;
pub mod recommend;
pub mod recommender;
pub mod trainer;

pub use coclusters::{default_threshold, extract_coclusters, CoCluster};
pub use config::{InitStrategy, OcularConfig, Weighting};
pub use diagnostics::{diagnose, ModelDiagnostics};
pub use explain::{explain, Explanation};
pub use foldin::{fold_in_user, fold_in_user_with, recommend_for_basket, FoldIn, FoldInScratch};
pub use model::FactorModel;
pub use recommend::{recommend_top_m, top_m_for_factors, Recommendation};
pub use trainer::{fit, try_fit, TrainResult, TrainingHistory};
