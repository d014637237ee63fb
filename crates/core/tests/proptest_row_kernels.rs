//! Bit-level differentials for the trainer's row kernels at its own sizes.
//!
//! The trainer forms the dots of up to four positives in one pass and the
//! sums of a trial side by side; every sum must still come out in the order
//! of the one-at-a-time evaluation written here, so the checks compare bits,
//! not values within a tolerance. `K` runs over `1..=40` and degrees over
//! `0..=13`, so every remainder of the four-at-a-time grouping appears.

use ocular_core::gradient::{negative_sum, LocalProblem, PosWeights};
use ocular_core::loss::{objective_parts, pair_loss, positive_coefficient, user_weights};
use ocular_core::Weighting;
use ocular_linalg::{ops, Matrix};
use ocular_sparse::CsrMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Factor entries: a quarter exact zeros, the rest uniform times
/// `magnitude`. At `1e-7` every affinity is below `P_MIN`.
fn entries(rng: &mut StdRng, n: usize, magnitude: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen::<f64>() * magnitude
            }
        })
        .collect()
}

/// One random row subproblem: its fixed side, positives, per-entity
/// weights, negative sum, row and settings.
struct Case {
    other: Matrix,
    positives: Vec<u32>,
    per_entity: Vec<f64>,
    uniform: Option<f64>,
    negsum: Vec<f64>,
    own: Vec<f64>,
    lambda: f64,
    fixed_dim: Option<usize>,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(1..41usize);
        let degree = rng.gen_range(0..14usize);
        let n_other = degree + rng.gen_range(1..6usize);
        let magnitude = [1.0, 1e-7, 3.0][rng.gen_range(0..3usize)];
        let other = Matrix::from_vec(n_other, k, entries(&mut rng, n_other * k, magnitude));
        // `degree` distinct counterparts, ascending as in a CSR row
        let mut ids: Vec<u32> = (0..n_other as u32).collect();
        for j in 0..degree {
            let pick = rng.gen_range(j..n_other);
            ids.swap(j, pick);
        }
        let mut positives = ids[..degree].to_vec();
        positives.sort_unstable();
        let per_entity: Vec<f64> = (0..n_other)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen::<f64>() * 40.0
                }
            })
            .collect();
        let uniform = rng.gen_bool(0.5).then_some(per_entity[0]);
        let mut negsum = vec![0.0; k];
        negative_sum(&other, &other.column_sums(), &positives, &mut negsum);
        let own = entries(&mut rng, k, magnitude);
        let lambda = rng.gen::<f64>() * 2.0;
        let fixed_dim = rng.gen_bool(0.3).then(|| rng.gen_range(0..k));
        Case {
            other,
            positives,
            per_entity,
            uniform,
            negsum,
            own,
            lambda,
            fixed_dim,
        }
    }

    fn problem(&self) -> LocalProblem<'_> {
        LocalProblem {
            positives: &self.positives,
            other: &self.other,
            weights: match self.uniform {
                Some(w) => PosWeights::Uniform(w),
                None => PosWeights::PerEntity(&self.per_entity),
            },
            negsum: &self.negsum,
            lambda: self.lambda,
            fixed_dim: self.fixed_dim,
        }
    }
}

/// `Q(own)` and `∇Q(own)` one positive at a time, each affinity its own
/// [`ops::dot`].
fn naive_value_and_gradient(p: &LocalProblem<'_>, own: &[f64]) -> (f64, Vec<f64>) {
    let mut q = ops::dot(own, p.negsum) + p.lambda * ops::norm_sq(own);
    let mut grad = p.negsum.to_vec();
    ops::axpy(2.0 * p.lambda, own, &mut grad);
    for &e in p.positives {
        let row = p.other.row(e as usize);
        let a = ops::dot(own, row);
        let w = p.weights.get(e as usize);
        q += w * pair_loss(a);
        ops::axpy(-positive_coefficient(a, w), row, &mut grad);
    }
    if let Some(d) = p.fixed_dim {
        grad[d] = 0.0;
    }
    (q, grad)
}

/// The bounded sum of [`LocalProblem::objective_within`], one positive at a
/// time.
fn naive_within(p: &LocalProblem<'_>, own: &[f64], q0: f64, bound: f64) -> Result<f64, usize> {
    let mut q = ops::dot(own, p.negsum) + p.lambda * ops::norm_sq(own);
    for (visited, &e) in p.positives.iter().enumerate() {
        if q - q0 > bound {
            return Err(visited);
        }
        q += p.weights.get(e as usize) * pair_loss(ops::dot(own, p.other.row(e as usize)));
    }
    Ok(q)
}

/// Where a bounded evaluation ended, for the coverage tally.
#[derive(Debug, Default)]
struct Tally {
    finished: usize,
    screened: usize,
    cut_short: usize,
}

/// Runs every row-kernel differential on the case drawn from `seed`.
fn check_row_kernels(seed: u64, tally: &mut Tally) -> Result<(), String> {
    let case = Case::new(seed);
    let (p, own) = (case.problem(), &case.own);
    let k = own.len();

    let mut grad = vec![f64::NAN; k];
    let q = p.value_and_gradient(own, &mut grad);
    let mut alone = vec![f64::NAN; k];
    p.gradient(own, &mut alone);
    if q.to_bits() != p.objective(own).to_bits() || bits(&grad) != bits(&alone) {
        return Err(format!(
            "seed {seed}: value_and_gradient {q:e} {grad:?} vs objective {:e} + gradient {alone:?}",
            p.objective(own)
        ));
    }
    let (q_ref, grad_ref) = naive_value_and_gradient(&p, own);
    if q.to_bits() != q_ref.to_bits() || bits(&grad) != bits(&grad_ref) {
        return Err(format!(
            "seed {seed}: value_and_gradient {q:e} {grad:?} vs naive {q_ref:e} {grad_ref:?}"
        ));
    }

    // a bound anywhere from below the O(K) part to past the finished sum
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let q0 = [0.0, q_ref * 0.5][rng.gen_range(0..2usize)];
    let bound = (q_ref - q0) * (1.2 * rng.gen::<f64>() - 0.1);
    let got = p.objective_within(own, q0, bound);
    let want = naive_within(&p, own, q0, bound);
    match (got, want) {
        (Ok(a), Ok(b)) if a.to_bits() == b.to_bits() => tally.finished += 1,
        (Err(0), Err(0)) => tally.screened += 1,
        (Err(a), Err(b)) if a == b => tally.cut_short += 1,
        _ => {
            return Err(format!(
            "seed {seed}: objective_within {got:?} vs naive {want:?} (q0 {q0:e}, bound {bound:e})"
        ))
        }
    }
    Ok(())
}

/// `Q` as a sum of per-user local objectives in user order, each written
/// out one positive at a time: `⟨f_u, negsum_u⟩ + λ‖f_u‖²`, then
/// `w_u · pair_loss` per positive with one [`ops::dot`] each; `λ‖F_I‖²`
/// last.
fn naive_objective(
    r: &CsrMatrix,
    users: &Matrix,
    items: &Matrix,
    lambda: f64,
    weights: &[f64],
) -> f64 {
    let item_sum = items.column_sums();
    let mut negsum = vec![0.0; items.cols()];
    let mut q = 0.0;
    for u in 0..r.n_rows() {
        let own = users.row(u);
        negative_sum(items, &item_sum, r.row(u), &mut negsum);
        let mut q_u = ops::dot(own, &negsum) + lambda * ops::norm_sq(own);
        for &i in r.row(u) {
            q_u += weights[u] * pair_loss(ops::dot(own, items.row(i as usize)));
        }
        q += q_u;
    }
    q + lambda * items.frobenius_sq()
}

/// Compares [`objective_parts`] with the row-order reference, both
/// weightings, on a matrix drawn from `seed`: rows of degree `0..=13`.
fn check_objective(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..41usize);
    let (n_users, n_items) = (rng.gen_range(1..9usize), rng.gen_range(1..20usize));
    let mut pairs = Vec::new();
    for u in 0..n_users {
        let degree = rng.gen_range(0..14usize).min(n_items);
        let mut items: Vec<usize> = (0..n_items).collect();
        for j in 0..degree {
            let pick = rng.gen_range(j..n_items);
            items.swap(j, pick);
            pairs.push((u, items[j]));
        }
    }
    let r = CsrMatrix::from_pairs(n_users, n_items, &pairs).map_err(|e| e.to_string())?;
    let magnitude = [1.0, 1e-7, 3.0][rng.gen_range(0..3usize)];
    let users = Matrix::from_vec(n_users, k, entries(&mut rng, n_users * k, magnitude));
    let items = Matrix::from_vec(n_items, k, entries(&mut rng, n_items * k, magnitude));
    let lambda = rng.gen::<f64>() * 2.0;
    for weighting in [Weighting::Absolute, Weighting::Relative] {
        let w = user_weights(&r, weighting);
        let got = objective_parts(&r, &users, &items, lambda, &w);
        let want = naive_objective(&r, &users, &items, lambda, &w);
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "seed {seed} {weighting:?}: objective_parts {got:e} vs naive {want:e}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_kernels_match_one_positive_at_a_time(seed in any::<u64>()) {
        let outcome = check_row_kernels(seed, &mut Tally::default());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn objective_parts_matches_the_row_order_reference(seed in any::<u64>()) {
        let outcome = check_objective(seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Fixed seeds reach every `K mod 4`, every degree mod 4, and all three
/// ends of a bounded evaluation.
#[test]
fn row_kernel_generator_reaches_every_remainder_and_exit() {
    let mut tally = Tally::default();
    let (mut k_mod, mut degree_mod) = ([0usize; 4], [0usize; 4]);
    for seed in 0..2000 {
        check_row_kernels(seed, &mut tally).unwrap();
        let case = Case::new(seed);
        k_mod[case.own.len() % 4] += 1;
        degree_mod[case.positives.len() % 4] += 1;
    }
    assert!(
        k_mod.iter().chain(&degree_mod).all(|&n| n >= 100),
        "{k_mod:?} {degree_mod:?}"
    );
    for (what, n) in [
        ("finished", tally.finished),
        ("screened", tally.screened),
        ("cut short", tally.cut_short),
    ] {
        assert!(n >= 20, "{what} reached only {n} times: {tally:?}");
    }
}
