//! Fold-in of new users — serving recommendations without retraining.
//!
//! A deployed B2B system (Section VIII) meets clients that were not in the
//! training matrix: a new account, or an anonymous basket mid-session. The
//! factor model supports *fold-in*: with item factors frozen, a new user's
//! affiliation vector is the solution of exactly one user-subproblem
//! (Eq. 5) — convex, so projected gradient iterations converge to its
//! unique minimiser for λ > 0. This costs `O(basket · K)` per step, a few
//! microseconds, against a full retrain.

use crate::config::OcularConfig;
use crate::gradient::PosWeights;
use crate::linesearch::{RowScratch, RowUpdate, SearchStats};
use crate::model::FactorModel;
use crate::recommend::Recommendation;

/// Result of folding in a new user.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIn {
    /// The inferred affiliation vector (length `k_total`).
    pub factors: Vec<f64>,
    /// Local objective value at the solution.
    pub objective: f64,
    /// Projected-gradient steps taken before the Armijo search stalled or
    /// `max_steps` was reached.
    pub steps: usize,
}

/// Reusable working memory for [`fold_in_user_with`] — the sorted basket,
/// the iterate, and the row update's temporaries.
///
/// A serving tier folds users in on every cold request; allocating these
/// vectors per request is pure tail latency. Keep one scratch per
/// worker thread (the buffers are cleared and resized on each call, so
/// results are identical to the allocate-fresh path).
#[derive(Debug, Clone, Default)]
pub struct FoldInScratch {
    positives: Vec<u32>,
    own: Vec<f64>,
    row: RowScratch,
}

impl FoldInScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Infers the affiliation vector of a user with the given `basket` of item
/// indices, against a fitted model's (frozen) item factors.
///
/// `weight` is the positive-example weight, finite and `≥ 0` (1.0 for
/// plain OCuLaR; a R-OCuLaR-style weight `(n_items − |basket|)/|basket|`
/// may be passed).
/// `max_steps` bounds the inner solve; the subproblem is strongly convex
/// for `lambda > 0`, so 50–100 steps reach machine-precision stationarity.
///
/// # Panics
/// Panics if any basket item is out of range, on duplicate items, or if
/// `weight` is negative or not finite (the subproblem would not be convex,
/// and the line search relies on non-negative positive terms).
pub fn fold_in_user(
    model: &FactorModel,
    basket: &[usize],
    cfg: &OcularConfig,
    weight: f64,
    max_steps: usize,
) -> FoldIn {
    let item_sum = model.item_factors.column_sums();
    fold_in_user_with(
        model,
        basket,
        cfg,
        weight,
        max_steps,
        &item_sum,
        &mut FoldInScratch::new(),
    )
}

/// [`fold_in_user`] against caller-owned working memory: `item_sum` is the
/// model's `item_factors.column_sums()` (model-constant — compute it once
/// per loaded model, not once per request) and `scratch` holds the solver
/// buffers, reusable across calls. Returns exactly what [`fold_in_user`]
/// returns for the same inputs.
///
/// # Panics
/// In addition to [`fold_in_user`]'s basket and weight checks, panics if
/// `item_sum.len() != model.k_total()`.
pub fn fold_in_user_with(
    model: &FactorModel,
    basket: &[usize],
    cfg: &OcularConfig,
    weight: f64,
    max_steps: usize,
    item_sum: &[f64],
    scratch: &mut FoldInScratch,
) -> FoldIn {
    let k = model.k_total();
    assert_eq!(
        item_sum.len(),
        k,
        "item_sum must be the model's column_sums()"
    );
    scratch.positives.clear();
    scratch.positives.extend(basket.iter().map(|&i| {
        assert!(i < model.n_items(), "basket item {i} out of range");
        ocular_sparse::col_index(i)
    }));
    scratch.positives.sort_unstable();
    let dups = scratch.positives.windows(2).any(|w| w[0] == w[1]);
    assert!(!dups, "basket contains duplicate items");
    assert!(
        weight >= 0.0 && weight.is_finite(),
        "fold-in weight must be finite and non-negative, got {weight}"
    );
    // bias layout: the user-side frozen dimension is k_clusters + 1
    let fixed_dim = model.has_bias().then(|| model.n_clusters() + 1);
    // warm start: mean of the basket items' factors (a reasonable prior —
    // the user is "like" their items), bias column forced to 1
    let own = &mut scratch.own;
    own.clear();
    own.resize(k, 0.0);
    if !scratch.positives.is_empty() {
        for &i in &scratch.positives {
            for (o, &v) in own.iter_mut().zip(model.item_factors.row(i as usize)) {
                *o += v;
            }
        }
        let inv = 1.0 / scratch.positives.len() as f64;
        for o in own.iter_mut() {
            *o *= inv;
        }
    }
    if let Some(d) = fixed_dim {
        own[d] = 1.0;
    }

    // one user subproblem, solved by up to `max_steps` Armijo steps
    let update = RowUpdate {
        other: &model.item_factors,
        other_sum: item_sum,
        fixed_dim,
        lambda: cfg.lambda,
        search: cfg.into(),
        steps: max_steps,
        fixed_step: None,
    };
    let mut stats = SearchStats::default();
    let q = update.run(
        own,
        &scratch.positives,
        PosWeights::Uniform(weight),
        &mut scratch.row,
        &mut stats,
    );
    FoldIn {
        factors: own.clone(),
        objective: q,
        steps: stats.accepted as usize,
    }
}

/// Recommends top-M items for an *unseen* user described only by a basket,
/// excluding the basket itself. The serving path for new clients.
///
/// Selection runs through [`crate::recommend::top_m_for_factors`], the
/// warm-user path's kernel, so the ties convention matches exactly.
pub fn recommend_for_basket(
    model: &FactorModel,
    basket: &[usize],
    cfg: &OcularConfig,
    m: usize,
) -> (Vec<Recommendation>, FoldIn) {
    let fold = fold_in_user(model, basket, cfg, 1.0, 100);
    let exclude = ocular_api::validate_basket(basket, model.n_items())
        .expect("fold_in_user checked the basket");
    let recs = crate::recommend::top_m_for_factors(model, &fold.factors, &exclude, m);
    (recs, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, OcularConfig};
    use ocular_sparse::CsrMatrix;

    fn trained() -> (FactorModel, CsrMatrix, OcularConfig) {
        // two 4×4 blocks
        let mut pairs = Vec::new();
        for b in 0..2 {
            for u in 0..4 {
                for i in 0..4 {
                    pairs.push((b * 4 + u, b * 4 + i));
                }
            }
        }
        let r = CsrMatrix::from_pairs(8, 8, &pairs).unwrap();
        let cfg = OcularConfig {
            k: 2,
            lambda: 0.1,
            max_iters: 80,
            seed: 3,
            ..Default::default()
        };
        (fit(&r.clone().into(), &cfg).model, r, cfg)
    }

    #[test]
    fn folded_user_matches_block_members() {
        let (model, _r, cfg) = trained();
        // a new user who bought items 0 and 1 (block A)
        let fold = fold_in_user(&model, &[0, 1], &cfg, 1.0, 100);
        assert!(fold.steps > 0, "solver should move from the warm start");
        // their affiliation must resemble an existing block-A user's:
        // high probability on block-A items, low on block-B
        let p_in: f64 = (0..4)
            .map(|i| {
                crate::model::prob_from_affinity(ocular_linalg::ops::dot(
                    &fold.factors,
                    model.item_factors.row(i),
                ))
            })
            .sum::<f64>()
            / 4.0;
        let p_out: f64 = (4..8)
            .map(|i| {
                crate::model::prob_from_affinity(ocular_linalg::ops::dot(
                    &fold.factors,
                    model.item_factors.row(i),
                ))
            })
            .sum::<f64>()
            / 4.0;
        assert!(
            p_in > 3.0 * p_out + 0.1,
            "in-block {p_in} vs out-block {p_out}"
        );
    }

    #[test]
    fn basket_recommendations_complete_the_block() {
        let (model, _r, cfg) = trained();
        let (recs, _) = recommend_for_basket(&model, &[4, 5], &cfg, 2);
        // 6 and 7 are symmetric in the block, so their probabilities tie up
        // to float noise and their relative order is not meaningful
        let mut items: Vec<usize> = recs.iter().map(|r| r.item).collect();
        items.sort_unstable();
        assert_eq!(items, vec![6, 7], "block B should be completed: {recs:?}");
    }

    #[test]
    fn empty_basket_yields_near_zero_factors() {
        let (model, _r, cfg) = trained();
        let fold = fold_in_user(&model, &[], &cfg, 1.0, 100);
        // no positives: the objective pushes the vector to 0
        assert!(fold.factors.iter().all(|&v| v >= 0.0));
        assert!(
            fold.factors.iter().sum::<f64>() < 0.1,
            "factors should collapse: {:?}",
            fold.factors
        );
    }

    #[test]
    fn fold_in_nonnegative_and_deterministic() {
        let (model, _r, cfg) = trained();
        let a = fold_in_user(&model, &[0, 2], &cfg, 1.0, 100);
        let b = fold_in_user(&model, &[0, 2], &cfg, 1.0, 100);
        assert_eq!(a, b);
        assert!(a.factors.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fold_in_close_to_training_solution() {
        // folding in an EXISTING user's basket should land near that user's
        // trained probabilities
        let (model, r, cfg) = trained();
        let u = 1;
        let basket: Vec<usize> = r.row(u).iter().map(|&i| i as usize).collect();
        let fold = fold_in_user(&model, &basket, &cfg, 1.0, 200);
        for i in 0..8 {
            let p_fold = crate::model::prob_from_affinity(ocular_linalg::ops::dot(
                &fold.factors,
                model.item_factors.row(i),
            ));
            let p_train = model.prob(u, i);
            assert!(
                (p_fold - p_train).abs() < 0.15,
                "item {i}: fold {p_fold:.3} vs trained {p_train:.3}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basket_bounds_checked() {
        let (model, _r, cfg) = trained();
        fold_in_user(&model, &[99], &cfg, 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_basket_rejected() {
        let (model, _r, cfg) = trained();
        fold_in_user(&model, &[1, 1], &cfg, 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        let (model, _r, cfg) = trained();
        fold_in_user(&model, &[0, 1], &cfg, -1.0, 10);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn non_finite_weight_rejected() {
        let (model, _r, cfg) = trained();
        fold_in_user(&model, &[0, 1], &cfg, f64::INFINITY, 10);
    }

    #[test]
    fn bias_model_fold_in_keeps_frozen_column() {
        let mut pairs = Vec::new();
        for u in 0..4 {
            for i in 0..4 {
                pairs.push((u, i));
            }
        }
        let r = CsrMatrix::from_pairs(4, 4, &pairs).unwrap();
        let cfg = OcularConfig {
            k: 2,
            bias: true,
            lambda: 0.1,
            max_iters: 30,
            seed: 1,
            ..Default::default()
        };
        let model = fit(&r.clone().into(), &cfg).model;
        let fold = fold_in_user(&model, &[0, 1], &cfg, 1.0, 50);
        assert_eq!(fold.factors[3], 1.0, "frozen user column must stay 1");
    }
}
