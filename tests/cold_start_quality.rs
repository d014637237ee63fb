//! Quality gate for cold start: a user folded in from the basket they were
//! trained on must be served about as well as their trained row.
//!
//! Recall@20 under the paper's protocol (rank every item the user does not
//! own in the training split, score against the held-out quarter), with
//! the user's factors replaced by [`fold_in_user`] on their training row —
//! the whole row, and its first four items only. Fold-in solves the same
//! subproblem training takes one step of per sweep, so with the whole row
//! it should land where training was heading.
//!
//! Measured on this fit (`b2b_like` at a quarter of `Scale::Small`,
//! seed 101; warm recall@20 0.413):
//!
//! | fold-in solver            | whole row      | first four items |
//! |---------------------------|----------------|------------------|
//! | projected Newton (now)    | 0.413 (×1.000) | 0.376 (×0.910)   |
//! | 100 first-order steps     | 0.376 (×0.910) | 0.290 (×0.703)   |
//!
//! The first-order loop loses a tenth of the warm recall because a quarter
//! of its solves end on the all-zero vector (see `ocular_core::foldin`);
//! it fails both floors below. `Scale::Small` itself reads ×1.012 / ×0.886
//! (seed 101) and ×1.010 / ×0.887 (seed 7).

use ocular::api::FnScorer;
use ocular::core::model::prob_from_affinity;
use ocular::datasets::profiles::{b2b_like, Scale};
use ocular::linalg::ops;
use ocular::prelude::*;

#[test]
fn folded_in_users_recall_what_their_trained_rows_recall() {
    let seed = 101;
    let data = b2b_like(Scale::Factor(0.25), seed);
    let cfg = OcularConfig {
        k: data.truth.k(),
        lambda: 1.0,
        max_iters: 15,
        tol: 0.0,
        seed,
        ..Default::default()
    };
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed,
            ..Default::default()
        },
    );
    let model = fit(&split.train, &cfg).model;
    let warm = evaluate(&model, &split.train, &split.test, 20).recall;
    assert!(warm > 0.3, "the fit itself should recommend: {warm}");

    let cold = |prefix: usize| {
        let score = |u: usize, scores: &mut Vec<f64>| {
            let row: Vec<usize> = split.train.row(u).iter().map(|&i| i as usize).collect();
            let basket = &row[..prefix.min(row.len())];
            let fold = fold_in_user(&model, basket, &cfg, 1.0, 100);
            assert!(fold.converged, "user {u}: {} steps", fold.steps);
            for (i, s) in scores.iter_mut().enumerate() {
                *s = prob_from_affinity(ops::dot(&fold.factors, model.item_factors.row(i)));
            }
        };
        let scorer = FnScorer::new("fold-in", model.n_users(), model.n_items(), score);
        evaluate(&scorer, &split.train, &split.test, 20).recall
    };
    let (whole_row, first_four) = (cold(usize::MAX), cold(4));
    assert!(
        whole_row >= 0.95 * warm,
        "fold-in from the whole training row recalls {whole_row:.4}, warm {warm:.4}"
    );
    assert!(
        first_four >= 0.8 * warm,
        "fold-in from four items recalls {first_four:.4}, warm {warm:.4}"
    );
}
