//! Bridges between the model crates and the evaluation protocol.

use ocular_api::{Recommender, ScoreItems};
use ocular_core::{fit, FactorModel, OcularConfig, Weighting};
use ocular_sparse::Dataset;

/// [`FactorModel`] under a display name, so the Table I harness can carry
/// "OCuLaR" and "R-OCuLaR" columns side by side in one `dyn Recommender`
/// zoo (the model itself always reports `"OCuLaR"`).
pub struct OcularRecommender {
    /// The fitted model.
    pub model: FactorModel,
    name: &'static str,
}

impl OcularRecommender {
    /// Fits plain OCuLaR.
    pub fn fit_absolute(r: &Dataset, cfg: &OcularConfig) -> Self {
        let cfg = OcularConfig {
            weighting: Weighting::Absolute,
            ..cfg.clone()
        };
        OcularRecommender {
            model: fit(r, &cfg).model,
            name: "OCuLaR",
        }
    }

    /// Fits R-OCuLaR (relative weighting).
    pub fn fit_relative(r: &Dataset, cfg: &OcularConfig) -> Self {
        let cfg = OcularConfig {
            weighting: Weighting::Relative,
            ..cfg.clone()
        };
        OcularRecommender {
            model: fit(r, &cfg).model,
            name: "R-OCuLaR",
        }
    }

    /// Wraps an already fitted model.
    pub fn from_model(model: FactorModel, name: &'static str) -> Self {
        OcularRecommender { model, name }
    }
}

impl ScoreItems for OcularRecommender {
    fn name(&self) -> &'static str {
        self.name
    }

    fn n_users(&self) -> usize {
        self.model.n_users()
    }

    fn n_items(&self) -> usize {
        self.model.n_items()
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        self.model.score_user(u, out);
    }
}

impl Recommender for OcularRecommender {
    fn as_fold_in(&self) -> Option<&dyn ocular_api::FoldIn> {
        self.model.as_fold_in()
    }

    fn as_explain(&self) -> Option<&dyn ocular_api::Explain> {
        self.model.as_explain()
    }
}

/// Default OCuLaR hyper-parameters for a dataset with `k_hint` planted
/// co-clusters (the harness's untuned setting; pass `--tune` to grid
/// search instead).
pub fn default_ocular_config(k_hint: usize, seed: u64) -> OcularConfig {
    OcularConfig {
        k: k_hint.max(2),
        lambda: 0.5,
        max_iters: 60,
        tol: 1e-4,
        seed,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_eval::protocol::evaluate;
    use ocular_sparse::{CsrMatrix, Split, SplitConfig};

    #[test]
    fn adapter_scores_match_model() {
        let r = Dataset::from_matrix(
            CsrMatrix::from_pairs(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]).unwrap(),
        );
        let rec = OcularRecommender::fit_absolute(&r, &default_ocular_config(2, 1));
        let mut via_trait = Vec::new();
        rec.score_user(0, &mut via_trait);
        let mut direct = Vec::new();
        rec.model.score_user(0, &mut direct);
        assert_eq!(via_trait, direct);
        assert_eq!(rec.name(), "OCuLaR");
    }

    #[test]
    fn evaluation_pipeline_runs_end_to_end() {
        let mut pairs = Vec::new();
        for b in 0..2 {
            for u in 0..8 {
                for i in 0..8 {
                    pairs.push((b * 8 + u, b * 8 + i));
                }
            }
        }
        let r = Dataset::from_matrix(CsrMatrix::from_pairs(16, 16, &pairs).unwrap());
        let split = Split::new(&r, &SplitConfig::default());
        let rec = OcularRecommender::fit_absolute(&split.train, &default_ocular_config(2, 3));
        let report = evaluate(&rec, &split.train, &split.test, 10);
        assert!(report.recall > 0.5, "block data should be easy: {report}");
    }
}
