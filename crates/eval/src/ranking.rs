//! Top-M selection from dense score vectors.
//!
//! Recommendation generation (paper Section IV-C): *"we recommend item i to
//! user u if r_ui is among the M largest values P[r_ui' = 1], where i' is
//! over all items that user u did not purchase"*. Training positives are
//! therefore excluded, and ties are broken deterministically (score
//! descending, then item index ascending) so evaluations are reproducible
//! across runs and platforms.

/// Returns the indices of the `m` largest entries of `scores`, skipping the
/// (sorted) indices in `exclude`, ordered by score descending with
/// ascending-index tie-breaks. O(n log m).
///
/// # Panics
/// Panics if any considered score is NaN.
pub fn top_m_excluding(scores: &[f64], exclude: &[u32], m: usize) -> Vec<usize> {
    // one shared kernel with the recommendation/serving paths, so the ties
    // convention cannot diverge between evaluation and serving
    ocular_linalg::topk::top_k_excluding(scores, exclude, m)
        .into_iter()
        .map(|(_, item)| item)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_m_excluding(&scores, &[], 2), vec![1, 3]);
        assert_eq!(top_m_excluding(&scores, &[], 4), vec![1, 3, 2, 0]);
    }

    #[test]
    fn excludes_training_positives() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_m_excluding(&scores, &[1, 3], 2), vec![2, 0]);
    }

    #[test]
    fn ties_break_by_index() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert_eq!(top_m_excluding(&scores, &[], 3), vec![0, 1, 2]);
        assert_eq!(top_m_excluding(&scores, &[0], 3), vec![1, 2, 3]);
    }

    #[test]
    fn m_larger_than_candidates() {
        let scores = [0.3, 0.2];
        assert_eq!(top_m_excluding(&scores, &[0], 10), vec![1]);
    }

    #[test]
    fn m_zero() {
        assert!(top_m_excluding(&[1.0, 2.0], &[], 0).is_empty());
    }

    #[test]
    fn rank_all_matches_sort() {
        // m = n ranks the whole catalog
        let scores = [3.0, 1.0, 2.0, 2.0, 5.0];
        assert_eq!(top_m_excluding(&scores, &[], 5), vec![4, 0, 2, 3, 1]);
    }

    #[test]
    fn negative_scores_fine() {
        let scores = [-1.0, -0.5, -2.0];
        assert_eq!(top_m_excluding(&scores, &[], 2), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_panic() {
        top_m_excluding(&[0.0, f64::NAN, 1.0, 2.0], &[], 2);
    }
}
