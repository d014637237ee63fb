//! Top-M recommendation lists (Section IV-C).
//!
//! *"we recommend item i to user u if r_ui is among the M largest values
//! P[r_ui' = 1], where i' is over all items that user u did not purchase"*.
//! Ties break by ascending item index, matching the evaluation crate's
//! convention, so model + evaluation agree exactly.

use crate::model::{prob_from_affinity, FactorModel};
use ocular_linalg::ops;
use ocular_linalg::topk::MonotoneTopK;
use ocular_sparse::CsrMatrix;

/// One recommendation: an item and the model's confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: usize,
    /// `P[r_ui = 1]` under the fitted model.
    pub probability: f64,
}

/// The `(score, index)` pairs of [`ocular_linalg::topk`] are
/// `(probability, item)`.
impl From<(f64, usize)> for Recommendation {
    fn from((probability, item): (f64, usize)) -> Self {
        Recommendation { item, probability }
    }
}

/// The top-M items for the affiliation vector `factors` (a trained user
/// row or a folded-in one), skipping the ascending item list `exclude`.
/// Sorted by probability descending, ties by item index ascending.
///
/// One pass through [`MonotoneTopK`]: every affinity `⟨factors, f_i⟩` is
/// computed, but `1 − e^(−a)` runs only on those that can still enter the
/// list — bit-identical to selecting from the dense probability vector.
pub fn top_m_for_factors(
    model: &FactorModel,
    factors: &[f64],
    exclude: &[u32],
    m: usize,
) -> Vec<Recommendation> {
    let mut top = MonotoneTopK::new(m, exclude, prob_from_affinity);
    for item in 0..model.n_items() {
        top.offer(item, || ops::dot(factors, model.item_factors.row(item)));
    }
    top.into_sorted()
        .into_iter()
        .map(Recommendation::from)
        .collect()
}

/// The top-M recommendations for user `u`, excluding items the user already
/// has in `r` (the training matrix). Sorted by probability descending,
/// ties by item index ascending.
pub fn recommend_top_m(
    model: &FactorModel,
    r: &CsrMatrix,
    u: usize,
    m: usize,
) -> Vec<Recommendation> {
    top_m_for_factors(model, model.user_factors.row(u), r.row(u), m)
}

/// Top-M lists for every user. Memory: `n_users × m` recommendations.
pub fn recommend_all(model: &FactorModel, r: &CsrMatrix, m: usize) -> Vec<Vec<Recommendation>> {
    (0..model.n_users())
        .map(|u| recommend_top_m(model, r, u, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_linalg::Matrix;

    fn model() -> FactorModel {
        // user 0 strongly in cluster 0; items 0..2 in cluster 0 with
        // decreasing strength; item 3 in cluster 1 only
        FactorModel::new(
            Matrix::from_rows(&[&[2.0, 0.0]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 0.0], &[0.5, 0.0], &[0.0, 2.0]]),
            false,
        )
    }

    #[test]
    fn ranks_by_probability() {
        let r = CsrMatrix::empty(1, 4);
        let recs = recommend_top_m(&model(), &r, 0, 4);
        let items: Vec<usize> = recs.iter().map(|x| x.item).collect();
        assert_eq!(items, vec![0, 1, 2, 3]);
        for w in recs.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn excludes_owned_items() {
        let r = CsrMatrix::from_pairs(1, 4, &[(0, 0)]).unwrap();
        let recs = recommend_top_m(&model(), &r, 0, 4);
        assert!(recs.iter().all(|x| x.item != 0));
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn truncates_to_m() {
        let r = CsrMatrix::empty(1, 4);
        let recs = recommend_top_m(&model(), &r, 0, 2);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].item, 0);
    }

    #[test]
    fn probabilities_match_model() {
        let m = model();
        let r = CsrMatrix::empty(1, 4);
        for rec in recommend_top_m(&m, &r, 0, 4) {
            assert!((rec.probability - m.prob(0, rec.item)).abs() < 1e-15);
        }
    }

    #[test]
    fn recommend_all_covers_every_user() {
        let m = FactorModel::new(
            Matrix::from_rows(&[&[1.0], &[0.5], &[0.0]]),
            Matrix::from_rows(&[&[1.0], &[2.0]]),
            false,
        );
        let r = CsrMatrix::empty(3, 2);
        let all = recommend_all(&m, &r, 1);
        assert_eq!(all.len(), 3);
        // user 2 has zero affinity everywhere → ties, item 0 first
        assert_eq!(all[2][0].item, 0);
    }
}
