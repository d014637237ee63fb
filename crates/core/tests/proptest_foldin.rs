//! Fold-in solves its subproblem: optimality of [`fold_in_user_with`] on
//! random frozen item factors, and on every user of a fitted model.
//!
//! The reference is the solver fold-in used before it went second order —
//! up to `steps` first-order Armijo steps through [`RowUpdate::run`], each
//! restarting its search at `α = 1`. This file holds its only remaining
//! copy.

use ocular_core::gradient::{negative_sum, LocalProblem, PosWeights};
use ocular_core::linesearch::{RowScratch, RowUpdate, SearchStats};
use ocular_core::loss::positive_coefficient_and_curvature;
use ocular_core::model::P_MIN;
use ocular_core::{fit, fold_in_user, fold_in_user_with, FactorModel, FoldInScratch, OcularConfig};
use ocular_datasets::profiles::{b2b_like, Scale};
use ocular_linalg::{ops, Matrix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The old multi-step loop from `start`; returns the objective it reached.
fn projected_gradient_reference(
    model: &FactorModel,
    positives: &[u32],
    cfg: &OcularConfig,
    weight: f64,
    start: &mut [f64],
    steps: usize,
) -> f64 {
    let update = RowUpdate {
        other: &model.item_factors,
        other_sum: &model.item_factors.column_sums(),
        fixed_dim: model.has_bias().then(|| model.n_clusters() + 1),
        lambda: cfg.lambda,
        search: cfg.into(),
        steps,
        fixed_step: None,
    };
    update.run(
        start,
        positives,
        PosWeights::Uniform(weight),
        &mut RowScratch::default(),
        &mut SearchStats::default(),
    )
}

/// `(KKT residual, allowance)` of `f` on the basket's subproblem. The
/// residual is `|g_j|` on positive coordinates and `−g_j` on zero ones. The
/// allowance is 1e-3 of the gradient's scale — the largest per-coordinate
/// sum of the magnitudes the gradient cancels against each other (`negsum`,
/// `2λf`, the positives' pull) — plus what `Q` cannot resolve: a gradient
/// that predicts a gain below 1e-12·|Q| on the stiffest coordinate, which
/// no line search could confirm (a frozen bias column alone puts λ into
/// `Q`, whatever the free coordinates do).
fn kkt(
    model: &FactorModel,
    positives: &[u32],
    cfg: &OcularConfig,
    weight: f64,
    f: &[f64],
) -> (f64, f64) {
    let k = model.k_total();
    let mut negsum = vec![0.0; k];
    let sum = model.item_factors.column_sums();
    negative_sum(&model.item_factors, &sum, positives, &mut negsum);
    let fixed_dim = model.has_bias().then(|| model.n_clusters() + 1);
    let problem = LocalProblem {
        positives,
        other: &model.item_factors,
        weights: PosWeights::Uniform(weight),
        negsum: &negsum,
        lambda: cfg.lambda,
        fixed_dim,
    };
    let mut grad = vec![0.0; k];
    let q = problem.value_and_gradient(f, &mut grad);
    let residual = f
        .iter()
        .zip(&grad)
        .map(|(&x, &g)| if x > 0.0 { g.abs() } else { -g })
        .fold(0.0, f64::max);
    let mut scale: Vec<f64> = (0..k)
        .map(|j| negsum[j].abs() + 2.0 * cfg.lambda * f[j])
        .collect();
    let mut stiffness = vec![2.0 * cfg.lambda; k];
    for &e in positives {
        let row = model.item_factors.row(e as usize);
        let (coefficient, curvature) = positive_coefficient_and_curvature(ops::dot(f, row), weight);
        ops::axpy(coefficient, row, &mut scale);
        for (s, &r) in stiffness.iter_mut().zip(row) {
            *s += curvature * r * r;
        }
    }
    if let Some(d) = fixed_dim {
        scale[d] = 0.0;
    }
    let largest = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let unresolved = (2.0 * largest(stiffness) * 1e-12 * q.abs()).sqrt();
    // `negsum` is a difference of column sums: with the whole catalog in
    // the basket it is rounding noise, and so is the gradient
    let noise = 1e-12 * largest(sum);
    (residual, 1e-3 * largest(scale) + unresolved + noise)
}

/// Random frozen item factors: all-zero rows, one-hot rows and sparse rows
/// at one magnitude, in either bias layout (`(1, b_i)` trailing columns).
fn arb_items(rng: &mut StdRng, n_items: usize, k: usize, bias: bool, magnitude: f64) -> Matrix {
    let k_total = if bias { k + 2 } else { k };
    let mut items = Matrix::zeros(n_items, k_total);
    for i in 0..n_items {
        let row = items.row_mut(i);
        match rng.gen_range(0..10u32) {
            0 => {}
            1..=3 => row[rng.gen_range(0..k)] = rng.gen::<f64>() * magnitude,
            _ => {
                for v in &mut row[..k] {
                    if rng.gen_bool(0.4) {
                        *v = rng.gen::<f64>() * magnitude;
                    }
                }
            }
        }
        if bias {
            row[k] = 1.0;
            row[k + 1] = rng.gen::<f64>() * magnitude;
        }
    }
    items
}

/// One generated subproblem, printed with a failure so it can be replayed.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    k: usize,
    basket_len: usize,
    magnitude_exp: i32,
    lambda: f64,
    bias: bool,
    relative: bool,
}

fn check(case: Case) -> Result<(), TestCaseError> {
    let Case {
        seed,
        k,
        basket_len,
        magnitude_exp,
        lambda,
        bias,
        relative,
    } = case;
    let mut rng = StdRng::seed_from_u64(seed);
    let n_items = basket_len.max(1) + rng.gen_range(0..40usize);
    let items = arb_items(&mut rng, n_items, k, bias, 10f64.powi(magnitude_exp));
    let model = FactorModel::new(Matrix::zeros(1, items.cols()), items, bias);
    // a basket of distinct items, in arbitrary order
    let mut basket: Vec<usize> = (0..n_items).collect();
    for i in 0..basket_len {
        basket.swap(i, rng.gen_range(i..n_items));
    }
    basket.truncate(basket_len);
    let weight = if relative && basket_len > 0 {
        (n_items - basket_len) as f64 / basket_len as f64
    } else {
        1.0
    };
    let cfg = OcularConfig {
        lambda,
        ..Default::default()
    };

    let sum = model.item_factors.column_sums();
    let mut scratch = FoldInScratch::new();
    let fold = fold_in_user_with(&model, &basket, &cfg, weight, 100, &sum, &mut scratch);
    let f = &fold.factors;
    prop_assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0), "{:?}", f);
    prop_assert!(fold.objective.is_finite());
    if bias {
        prop_assert_eq!(f[k + 1], 1.0, "frozen column moved");
    }
    // same answer from a used scratch and from a fresh one
    let again = fold_in_user_with(&model, &basket, &cfg, weight, 100, &sum, &mut scratch);
    prop_assert_eq!(&again, &fold);
    prop_assert_eq!(&fold_in_user(&model, &basket, &cfg, weight, 100), &fold);

    let mut positives: Vec<u32> = basket.iter().map(|&i| i as u32).collect();
    positives.sort_unstable();
    // a basket item with a non-zero row makes the loss +∞ at zero (in the
    // bias layout the item's own bias can carry it instead)
    let pulled = !bias
        && weight > 0.0
        && basket
            .iter()
            .any(|&i| model.item_factors.row(i).iter().any(|&v| v > 0.0));
    if pulled {
        prop_assert!(f.iter().any(|&v| v > 0.0), "all-zero user");
    }
    // the start fold-in takes: the basket's mean row, scaled down its ray
    let mut start = vec![0.0; f.len()];
    for &i in &basket {
        let share = 1.0 / basket_len as f64;
        ops::axpy(share, model.item_factors.row(i), &mut start);
    }
    let fixed_dim = bias.then_some(k + 1);
    if let Some(d) = fixed_dim {
        start[d] = 0.0;
    }
    let mut negsum = vec![0.0; f.len()];
    negative_sum(&model.item_factors, &sum, &positives, &mut negsum);
    let (mass, pull) = (weight * basket_len as f64, ops::dot(&start, &negsum));
    if pull > mass {
        ops::scale(mass / pull, &mut start);
    }
    if let Some(d) = fixed_dim {
        start[d] = 1.0;
    }
    // A start that leaves a basket item under `P_MIN` (item factors of
    // 1e-6) sits on the plateau the clamp makes of the loss's singularity,
    // where `Q` does not say which way is down; the solve may then stop
    // short, and says so.
    let on_plateau = positives.iter().any(|&e| {
        let a = ops::dot(&start, model.item_factors.row(e as usize));
        a > 0.0 && a < P_MIN
    });
    let first_order = |from: &mut [f64], steps: usize| {
        projected_gradient_reference(&model, &positives, &cfg, weight, from, steps)
    };
    // 1e-9 relative; absolute where Q itself is rounding noise (weight 0)
    let slack = 1e-9 * fold.objective.abs().max(1e-9);
    if lambda == 0.0 {
        // Without the ridge Q may have no minimiser (a coordinate that no
        // item outside the basket uses runs off to infinity) and the
        // Newton system no solution (fewer positives than coordinates):
        // fold-in and the first-order loop are then two truncated descents
        // and neither bounds the other. Fold-in must have descended from
        // its start, and must not claim a convergence it does not have.
        let at_start = first_order(&mut start, 0);
        prop_assert!(
            fold.objective <= at_start + slack,
            "objective went up from the start: {} -> {}",
            at_start,
            fold.objective
        );
    } else if !on_plateau {
        prop_assert!(fold.converged, "stopped after {} steps", fold.steps);
        let (residual, allowed) = kkt(&model, &positives, &cfg, weight, f);
        prop_assert!(
            residual <= allowed,
            "KKT residual {} above {}",
            residual,
            allowed
        );
        // no long first-order run from the same start gets below it …
        let long_run = first_order(&mut start, 400);
        prop_assert!(
            fold.objective <= long_run + slack,
            "objective {} above the long first-order run's {}",
            fold.objective,
            long_run
        );
    }
    if fold.converged {
        // … and none that continues from the answer
        let polished = first_order(&mut f.clone(), 50);
        prop_assert!(
            fold.objective <= polished + slack,
            "first-order steps from the answer went {} -> {}",
            fold.objective,
            polished
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_in_reaches_the_minimiser(
        seed in any::<u64>(),
        k in 1usize..=24,
        basket_len in 0usize..=40,
        magnitude_exp in -3i32..=2,
        lambda_idx in 0usize..4,
        bias in any::<bool>(),
        relative in any::<bool>(),
    ) {
        let lambda = [0.0, 1e-3, 1.0, 100.0][lambda_idx];
        let case = Case { seed, k, basket_len, magnitude_exp, lambda, bias, relative };
        if let Err(e) = check(case) {
            prop_assert!(false, "{e}\n  in {case:?}");
        }
    }
}

/// Every user of a fitted model, folded in from the first 1, 2 and 4 items
/// of their row and from the whole row: the solve always converges inside
/// its cap and never returns the all-zero vector the first-order loop fell
/// into (at the parent commit 1 in 4 of such baskets did).
#[test]
fn every_prefix_basket_of_a_fit_converges_to_a_nonzero_user() {
    let data = b2b_like(Scale::Factor(0.1), 7).matrix;
    let cfg = OcularConfig {
        k: 8,
        lambda: 1.0,
        max_iters: 10,
        tol: 0.0,
        seed: 7,
        ..Default::default()
    };
    let model = fit(&data, &cfg).model;
    let sum = model.item_factors.column_sums();
    let mut scratch = FoldInScratch::new();
    let (mut solves, mut steps) = (0usize, 0usize);
    for u in 0..data.n_rows() {
        let row: Vec<usize> = data.row(u).iter().map(|&i| i as usize).collect();
        for len in [1, 2, 4, row.len()] {
            if len == 0 || len > row.len() {
                continue;
            }
            let basket = &row[..len];
            let fold = fold_in_user_with(&model, basket, &cfg, 1.0, 100, &sum, &mut scratch);
            assert!(
                fold.converged && fold.steps < 100,
                "user {u}, {len} items: stopped after {} steps",
                fold.steps
            );
            assert!(
                fold.factors.iter().any(|&v| v > 0.0),
                "user {u}, {len} items: all-zero vector"
            );
            solves += 1;
            steps += fold.steps;
        }
    }
    assert!(solves > 1000, "only {solves} baskets");
    // measured 4.5 iterations a basket; a first-order solve needs ~40
    assert!(
        steps < 10 * solves,
        "{steps} iterations over {solves} solves"
    );
}

/// Cases the property above found while the solver was written, one per
/// fix: a bound coordinate the Newton solve pushed further out (λ = 0), a
/// zero-weight basket held back by the plateau guard, a stop taken on
/// `|Q|` when a frozen bias column is most of `Q`, a singular system at
/// factors of 100 (a raw gradient step cannot be backtracked far enough),
/// a gain under `Q`'s resolution, and a start under `P_MIN`.
#[test]
fn cases_found_while_writing_the_solver() {
    let case = |seed, k, basket_len, magnitude_exp, lambda, bias, relative| Case {
        seed,
        k,
        basket_len,
        magnitude_exp,
        lambda,
        bias,
        relative,
    };
    for case in [
        case(9319311336632823426, 24, 8, -1, 0.0, true, true),
        case(4050530346140732093, 20, 13, 1, 100.0, false, true),
        case(16562815107517344017, 14, 20, 2, 100.0, true, false),
        case(15131411732076683594, 24, 14, 2, 0.0, false, true),
        case(9156819886916715880, 4, 2, 2, 1.0, true, false),
        case(16565677840405630946, 1, 3, -3, 100.0, false, false),
    ] {
        if let Err(e) = check(case) {
            panic!("{e}\n  in {case:?}");
        }
    }
}
