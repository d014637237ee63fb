//! Property-based invariants of the training loop.

use ocular_api::{SectionReader, SectionWriter, SnapshotModel};
use ocular_core::gradient::{negative_sum, LocalProblem, PosWeights};
use ocular_core::linesearch::{armijo_step, LineSearch, StepOutcome};
use ocular_core::loss::{objective, objective_naive, pair_loss, user_weights};
use ocular_core::{fit, FactorModel, OcularConfig, Weighting};
use ocular_linalg::{ops, Matrix};
use ocular_sparse::{CsrMatrix, Triplets};
use proptest::prelude::*;
use proptest::strategy::ValueTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..10, 2usize..10).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..m), 1..40).prop_map(move |pairs| {
            let mut t = Triplets::new(n, m);
            t.extend_pairs(pairs).unwrap();
            t.into_csr()
        })
    })
}

fn arb_model(n: usize, m: usize) -> impl Strategy<Value = FactorModel> {
    (1usize..4).prop_flat_map(move |k| {
        (
            proptest::collection::vec(0.0f64..2.0, n * k),
            proptest::collection::vec(0.0f64..2.0, m * k),
        )
            .prop_map(move |(u, i)| {
                FactorModel::new(Matrix::from_vec(n, k, u), Matrix::from_vec(m, k, i), false)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn objective_sum_trick_matches_naive(r in arb_matrix(), seed in 0u64..1000, lambda in 0.0f64..2.0) {
        let strategy = arb_model(r.n_rows(), r.n_cols());
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let model = strategy.new_tree(&mut runner).unwrap().current();
        let _ = seed;
        for weighting in [Weighting::Absolute, Weighting::Relative] {
            let w = user_weights(&r, weighting);
            let fast = objective(&r, &model, lambda, &w);
            let naive = objective_naive(&r, &model, lambda, &w);
            let tol = 1e-8 * (1.0 + fast.abs());
            prop_assert!((fast - naive).abs() < tol, "fast {} vs naive {}", fast, naive);
        }
    }

    #[test]
    fn training_is_monotone_and_nonnegative(r in arb_matrix(), seed in 0u64..1000) {
        let cfg = OcularConfig {
            k: 3,
            lambda: 0.1,
            max_iters: 10,
            seed,
            ..Default::default()
        };
        let result = fit(&r.clone().into(), &cfg);
        for w in result.history.objective.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-7, "objective rose: {} -> {}", w[0], w[1]);
        }
        prop_assert!(result.model.user_factors.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert!(result.model.item_factors.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn probabilities_always_valid(r in arb_matrix(), seed in 0u64..1000) {
        let cfg = OcularConfig { k: 2, lambda: 0.1, max_iters: 5, seed, ..Default::default() };
        let result = fit(&r.clone().into(), &cfg);
        for u in 0..r.n_rows() {
            for i in 0..r.n_cols() {
                let p = result.model.prob(u, i);
                prop_assert!((0.0..=1.0).contains(&p), "p({u},{i}) = {p}");
            }
        }
    }

    #[test]
    fn relative_weighting_also_monotone(r in arb_matrix(), seed in 0u64..500) {
        let cfg = OcularConfig {
            k: 2,
            lambda: 0.1,
            max_iters: 8,
            seed,
            weighting: Weighting::Relative,
            ..Default::default()
        };
        let result = fit(&r.clone().into(), &cfg);
        for w in result.history.objective.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-7);
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_model(r in arb_matrix(), seed in 0u64..100) {
        let cfg = OcularConfig { k: 2, lambda: 0.2, max_iters: 3, seed, ..Default::default() };
        let model = fit(&r.clone().into(), &cfg).model;
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(FactorModel::KIND, &mut bytes);
        model.write_sections(&mut w).unwrap();
        w.finish().unwrap();
        let r = SectionReader::open(ocular_bytes::ModelBytes::from_vec(bytes)).unwrap();
        prop_assert_eq!(FactorModel::read_sections(&r).unwrap(), model);
    }
}

/// The search as it was before trials could be rejected early: every trial
/// pays for its whole objective, summed here without the library's help.
fn naive_armijo_step(
    own: &mut [f64],
    grad: &[f64],
    q0: f64,
    problem: &LocalProblem<'_>,
    params: &LineSearch,
    candidate: &mut [f64],
) -> StepOutcome {
    let mut alpha = 1.0;
    for _ in 0..params.max_backtracks {
        ops::projected_step(own, grad, alpha, candidate);
        let predicted = ops::dot_diff(grad, candidate, own);
        if predicted == 0.0 && candidate == own {
            return StepOutcome::Stationary;
        }
        let mut q1 = ops::dot(candidate, problem.negsum) + problem.lambda * ops::norm_sq(candidate);
        for &e in problem.positives {
            let p = ops::dot(candidate, problem.other.row(e as usize));
            q1 += problem.weights.get(e as usize) * pair_loss(p);
        }
        if q1 - q0 <= params.sigma * predicted {
            own.copy_from_slice(candidate);
            return StepOutcome::Accepted { q_new: q1, alpha };
        }
        alpha *= params.beta;
    }
    StepOutcome::Rejected
}

/// What one differential case exercised, for the coverage tally.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
    stationary: usize,
    first_trial_screened: usize,
    first_trial_cut_short: usize,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Builds one random subproblem from `seed`, runs the shipped and the naive
/// search from the same state, and requires the same outcome and the same
/// row, bit for bit. The generator covers degree-0 rows, zero weights,
/// affinities below `P_MIN`, gradients no backtrack can satisfy, a frozen
/// dimension, both weight layouts, and non-finite `q0` / row entries.
fn check_against_naive(seed: u64, tally: &mut Tally) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..6usize);
    let n_other = rng.gen_range(1..12usize);
    // factor magnitudes: ordinary, tiny (affinities under P_MIN), or sparse
    let magnitude = [1.0, 1e-7, 3.0][rng.gen_range(0..3usize)];
    let mut other = Matrix::zeros(n_other, k);
    for v in other.as_mut_slice() {
        *v = if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen::<f64>() * magnitude
        };
    }
    let degree_zero = rng.gen_bool(0.15);
    let positives: Vec<u32> = (0..n_other as u32)
        .filter(|_| !degree_zero && rng.gen_bool(0.6))
        .collect();
    let per_entity: Vec<f64> = (0..n_other)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen::<f64>() * 40.0
            }
        })
        .collect();
    let weights = if rng.gen_bool(0.5) {
        PosWeights::PerEntity(&per_entity)
    } else {
        PosWeights::Uniform(per_entity[0])
    };
    let sum = other.column_sums();
    let mut negsum = vec![0.0; k];
    negative_sum(&other, &sum, &positives, &mut negsum);
    let problem = LocalProblem {
        positives: &positives,
        other: &other,
        weights,
        negsum: &negsum,
        lambda: rng.gen::<f64>() * 2.0,
        fixed_dim: rng.gen_bool(0.3).then(|| rng.gen_range(0..k)),
    };
    let params = LineSearch {
        sigma: 0.001 + 0.998 * rng.gen::<f64>(),
        beta: 0.05 + 0.9 * rng.gen::<f64>(),
        max_backtracks: 20,
    };

    let mut own: Vec<f64> = (0..k)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen::<f64>() * magnitude
            }
        })
        .collect();
    if rng.gen_bool(0.05) {
        own[rng.gen_range(0..k)] = [f64::NAN, f64::INFINITY][rng.gen_range(0..2usize)];
    }
    let mut q0 = problem.objective(&own);
    if rng.gen_bool(0.1) {
        q0 = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
    }
    let mut grad = vec![0.0; k];
    problem.gradient(&own, &mut grad);
    if rng.gen_bool(0.15) {
        // far too long a step at every α = β^t the search will try
        ops::scale(1e12, &mut grad);
    }

    // where the first trial (α = 1) ends in the bounded evaluation
    let mut first = vec![0.0; k];
    ops::projected_step(&own, &grad, 1.0, &mut first);
    let bound = params.sigma * ops::dot_diff(&grad, &first, &own);
    match problem.objective_within(&first, q0, bound) {
        Err(0) => tally.first_trial_screened += 1,
        Err(_) => tally.first_trial_cut_short += 1,
        Ok(_) => {}
    }

    let mut naive_own = own.clone();
    let (mut scratch_a, mut scratch_b) = (vec![0.0; k], vec![0.0; k]);
    let shipped = armijo_step(&mut own, &grad, q0, &problem, &params, &mut scratch_a);
    let naive = naive_armijo_step(&mut naive_own, &grad, q0, &problem, &params, &mut scratch_b);
    match (shipped, naive) {
        (
            StepOutcome::Accepted { q_new, alpha },
            StepOutcome::Accepted {
                q_new: q_ref,
                alpha: alpha_ref,
            },
        ) if q_new.to_bits() == q_ref.to_bits() && alpha.to_bits() == alpha_ref.to_bits() => {
            tally.accepted += 1;
        }
        (StepOutcome::Rejected, StepOutcome::Rejected) => tally.rejected += 1,
        (StepOutcome::Stationary, StepOutcome::Stationary) => tally.stationary += 1,
        _ => {
            return Err(format!(
                "seed {seed}: shipped {shipped:?} vs naive {naive:?}"
            ))
        }
    }
    if bits(&own) != bits(&naive_own) {
        return Err(format!(
            "seed {seed}: rows differ: {own:?} vs {naive_own:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn screened_search_matches_naive_search(seed in any::<u64>()) {
        let outcome = check_against_naive(seed, &mut Tally::default());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// The differential property is only worth its name if the generator reaches
/// every outcome and both early exits; fixed seeds keep this deterministic.
#[test]
fn differential_generator_reaches_every_branch() {
    let mut tally = Tally::default();
    for seed in 0..2000 {
        check_against_naive(seed, &mut tally).unwrap();
    }
    for (what, n) in [
        ("accepted", tally.accepted),
        ("rejected", tally.rejected),
        ("stationary", tally.stationary),
        ("first trial screened", tally.first_trial_screened),
        ("first trial cut short", tally.first_trial_cut_short),
    ] {
        assert!(n >= 20, "{what} reached only {n} times: {tally:?}");
    }
}
