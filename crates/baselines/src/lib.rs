//! # ocular-baselines
//!
//! The one-class collaborative-filtering baselines OCuLaR is compared
//! against in Table I and Figure 5 of the paper, implemented from scratch:
//!
//! * [`wals`] — **wALS**, weighted alternating least squares (Pan et al.,
//!   *One-class collaborative filtering*, ICDM 2008): matrix factorization
//!   with unknowns down-weighted by `b < 1`, solved with the Gram trick and
//!   `K×K` Cholesky solves. State of the art, *not* interpretable.
//! * [`bpr`] — **BPR** (Rendle et al., UAI 2009): Bayesian personalized
//!   ranking matrix factorization trained by SGD over sampled
//!   (user, positive, unknown) triplets. Not interpretable.
//! * [`neighbors`] — **user-based** and **item-based** cosine kNN
//!   collaborative filtering (Sarwar et al. / Deshpande & Karypis): the
//!   paper's *interpretable* competitors.
//! * [`popularity`] — most-popular ranking; not in the paper but the
//!   standard floor every personalised method must clear.
//!
//! Every model implements the workspace trait hierarchy
//! ([`ocular_api`]): [`ScoreItems`] → [`Recommender`], plus
//! [`SnapshotModel`] (kind-tagged persistence, so the serving tier can
//! load and serve any of them) and, where the algorithm admits it,
//! [`FoldIn`] request-time cold start (wALS via a ridge solve, item-kNN
//! via basket scoring, popularity trivially). Evaluation, the Table I
//! harness and `ocular-serve` all consume them as `&dyn Recommender`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpr;
pub mod neighbors;

pub mod popularity;
pub mod similarity;
pub mod wals;

pub use bpr::{Bpr, BprConfig};
pub use neighbors::{ItemKnn, KnnConfig, UserKnn};
pub use popularity::Popularity;
pub use wals::{Wals, WalsConfig};

// the trait hierarchy these models implement, re-exported so downstream
// code can keep importing it from here
pub use ocular_api::{
    FoldIn, Model, OcularError, Recommender, ScoreItems, ScoredItem, SnapshotModel,
};

use ocular_sparse::Dataset;

/// Per-model hyper-parameters for the Table-I model zoo, so harnesses stop
/// hard-coding each baseline's knobs inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfigs {
    /// wALS hyper-parameters.
    pub wals: WalsConfig,
    /// BPR hyper-parameters.
    pub bpr: BprConfig,
    /// User-based kNN neighbourhood size.
    pub user_knn: KnnConfig,
    /// Item-based kNN neighbourhood size.
    pub item_knn: KnnConfig,
}

impl BaselineConfigs {
    /// Every model's defaults with the given RNG seed threaded into the
    /// seeded fitters (wALS, BPR). The kNN variants are deterministic and
    /// take no seed.
    pub fn seeded(seed: u64) -> Self {
        BaselineConfigs {
            wals: WalsConfig {
                seed,
                ..Default::default()
            },
            bpr: BprConfig {
                seed,
                ..Default::default()
            },
            user_knn: KnnConfig::default(),
            item_knn: KnnConfig::default(),
        }
    }
}

impl Default for BaselineConfigs {
    fn default() -> Self {
        Self::seeded(0)
    }
}

/// Fits every Table-I baseline (plus the popularity floor) with the given
/// per-model configurations and returns `(name, model)` pairs — the name
/// is each model's [`ScoreItems::name`], so report columns and bench
/// tables share one source of truth instead of duplicating the list.
pub fn all_baselines(
    r: &Dataset,
    cfgs: &BaselineConfigs,
) -> Vec<(&'static str, Box<dyn Recommender>)> {
    let models: Vec<Box<dyn Recommender>> = vec![
        Box::new(Wals::fit(r, &cfgs.wals)),
        Box::new(Bpr::fit(r, &cfgs.bpr)),
        Box::new(UserKnn::fit(r, &cfgs.user_knn)),
        Box::new(ItemKnn::fit(r, &cfgs.item_knn)),
        Box::new(Popularity::fit(r)),
    ];
    models
        .into_iter()
        .map(|m| {
            let name = m.name();
            (name, m)
        })
        .collect()
}

/// Test helper: a model through its v3 sections and back.
#[cfg(test)]
fn section_cycle<M: SnapshotModel>(m: &M) -> Result<M, OcularError> {
    let mut bytes = Vec::new();
    let mut w = ocular_api::SectionWriter::new(m.kind(), &mut bytes);
    m.write_sections(&mut w)?;
    w.finish()?;
    let region = ocular_bytes::ModelBytes::from_vec(bytes);
    M::read_sections(&ocular_api::SectionReader::open(region)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_sparse::CsrMatrix;

    #[test]
    fn model_zoo_has_distinct_names() {
        let r = Dataset::from_matrix(
            CsrMatrix::from_pairs(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap(),
        );
        let zoo = all_baselines(&r, &BaselineConfigs::seeded(0));
        let names: Vec<&str> = zoo.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), 5);
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 5, "names must be distinct: {names:?}");
        for (name, m) in &zoo {
            assert_eq!(*name, m.name(), "pair name must be the model's name");
            assert_eq!(m.n_users(), 4);
            assert_eq!(m.n_items(), 4);
        }
    }

    #[test]
    fn zoo_respects_per_model_configs() {
        let r = Dataset::from_matrix(
            CsrMatrix::from_pairs(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap(),
        );
        let a = all_baselines(&r, &BaselineConfigs::seeded(1));
        let b = all_baselines(&r, &BaselineConfigs::seeded(2));
        // the seeded fitters must actually see the seed
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        a[0].1.score_user(0, &mut sa);
        b[0].1.score_user(0, &mut sb);
        assert_ne!(sa, sb, "wALS must differ across seeds");
    }
}
