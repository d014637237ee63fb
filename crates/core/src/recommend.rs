//! Top-M recommendation lists (Section IV-C).
//!
//! *"we recommend item i to user u if r_ui is among the M largest values
//! P[r_ui' = 1], where i' is over all items that user u did not purchase"*.
//! Ties break by ascending item index, matching the evaluation crate's
//! convention, so model + evaluation agree exactly.

use crate::model::FactorModel;
use ocular_linalg::topk::top_k_excluding;
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

/// The top-M recommendations for user `u`, excluding items the user already
/// has in `r` (the training matrix). Sorted by probability descending,
/// ties by item index ascending.
///
/// Selection runs through the bounded-heap kernel
/// [`top_k_excluding`] — `O(n_items log M)`
/// instead of a full sort — and the exclusion filter compares indices in
/// the `usize` domain, so oversized catalogs can never wrap a `u32` cast
/// and silently corrupt filtering.
pub fn recommend_top_m(
    model: &FactorModel,
    r: &CsrMatrix,
    u: usize,
    m: usize,
) -> Vec<Recommendation> {
    let mut scores = Vec::new();
    model.score_user(u, &mut scores);
    top_k_excluding(&scores, r.row(u), m)
        .into_iter()
        .map(Recommendation::from)
        .collect()
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
