//! The regularised negative log-likelihood `Q` (Eq. 2–4).
//!
//! ```text
//! Q = − Σ_{(u,i): r=1} w_u · log(1 − e^{−⟨f_u,f_i⟩})
//!     + Σ_{(u,i): r=0} ⟨f_u, f_i⟩
//!     + λ Σ_u ‖f_u‖² + λ Σ_i ‖f_i‖²
//! ```
//!
//! with `w_u ≡ 1` for plain OCuLaR and `w_u = #neg(u)/#pos(u)` for
//! R-OCuLaR. The unknown-pair term is evaluated with the same sum-trick the
//! gradients use: `Σ_{r=0} ⟨f_u,f_i⟩ = ⟨Σ_u f_u, Σ_i f_i⟩ − Σ_{r=1} ⟨f_u,f_i⟩`,
//! so the whole objective costs `O(nnz·K + (n_u + n_i)·K)`.

use crate::gradient::Affinities;
use crate::model::{FactorModel, P_MIN};
use ocular_linalg::{ops, par, Matrix};
use ocular_sparse::CsrMatrix;

/// Per-positive-example loss `−log(1 − e^{−p})`, clamped at `p = P_MIN`.
#[inline]
pub fn pair_loss(p: f64) -> f64 {
    let p = p.max(P_MIN);
    -(-(-p).exp_m1()).ln()
}

/// Gradient coefficient of a positive example:
/// `d/dp [−w·log(1 − e^{−p})] = −w · e^{−p}/(1 − e^{−p}) = −w / expm1(p)`.
/// Returns the *positive* magnitude `w / expm1(p)` (clamped); callers
/// subtract it. With `w = 1` this is the `α(p) − 1` of the GPU kernel
/// formulation (Eq. 11 uses `α(p) = 1/(1 − e^{−p}) = 1 + 1/expm1(p)`).
#[inline]
pub fn positive_coefficient(p: f64, w: f64) -> f64 {
    w / p.max(P_MIN).exp_m1()
}

/// [`positive_coefficient`] and the matching curvature
/// `d²/dp² [−w·log(1 − e^{−p})] = w·eᵖ/expm1(p)²` from one `exp_m1` — what
/// a second-order solve of a row subproblem (fold-in) reads per positive.
#[inline]
pub fn positive_coefficient_and_curvature(p: f64, w: f64) -> (f64, f64) {
    let e = p.max(P_MIN).exp_m1();
    let coefficient = w / e;
    // eᵖ/e² written as (1 + 1/e)/e: stays 0, not NaN, once `e` is ∞
    (coefficient, coefficient * (1.0 + 1.0 / e))
}

/// Per-user weights for the chosen [`crate::Weighting`].
pub fn user_weights(r: &CsrMatrix, weighting: crate::Weighting) -> Vec<f64> {
    match weighting {
        crate::Weighting::Absolute => vec![1.0; r.n_rows()],
        crate::Weighting::Relative => {
            let n_items = r.n_cols() as f64;
            (0..r.n_rows())
                .map(|u| {
                    let pos = r.row_nnz(u) as f64;
                    if pos == 0.0 {
                        0.0
                    } else {
                        (n_items - pos) / pos
                    }
                })
                .collect()
        }
    }
}

/// Evaluates the full objective `Q` for the current factors.
pub fn objective(r: &CsrMatrix, model: &FactorModel, lambda: f64, weights: &[f64]) -> f64 {
    objective_parts(r, &model.user_factors, &model.item_factors, lambda, weights)
}

/// Positives per window of the objective's terms (256 KiB of pairs).
const WINDOW: usize = 16_384;

/// [`objective`] on raw factor matrices — the trainer's hot path (no model
/// wrapper, no clones).
pub fn objective_parts(
    r: &CsrMatrix,
    user_factors: &Matrix,
    item_factors: &Matrix,
    lambda: f64,
    weights: &[f64],
) -> f64 {
    let (uf, itf) = (user_factors, item_factors);
    objective_parts_in(r, uf, itf, lambda, weights, &mut Vec::new())
}

/// [`objective_parts`] with its window buffer supplied, so a fit reuses
/// one. Each window's `(w·pair_loss(p), p)` are formed in parallel blocks,
/// then the two running sums add them one by one in CSR order, so `Q` has
/// the same bits at every thread count.
pub(crate) fn objective_parts_in(
    r: &CsrMatrix,
    user_factors: &Matrix,
    item_factors: &Matrix,
    lambda: f64,
    weights: &[f64],
    terms: &mut Vec<(f64, f64)>,
) -> f64 {
    debug_assert_eq!(weights.len(), r.n_rows());
    let (_, _, indptr, cols) = r.as_parts();
    let mut q = 0.0;
    // positive-example terms, and ⟨f_u,f_i⟩ over positives for the sum-trick
    let mut pos_affinity_sum = 0.0;
    terms.resize(cols.len().min(WINDOW), (0.0, 0.0));
    for start in (0..cols.len()).step_by(WINDOW) {
        let window = &mut terms[..WINDOW.min(cols.len() - start)];
        par::fan_out(par::row_blocks(window, 1), |(first, out)| {
            // a block is flat CSR positions `at..end`, which may cut rows
            let (mut at, end) = (start + first, start + first + out.len());
            let (mut u, mut out) = (indptr.partition_point(|&p| p <= at) - 1, out.iter_mut());
            while at < end {
                let row_end = indptr[u + 1].min(end);
                let ids = &cols[at..row_end];
                for ((_, _, p), slot) in
                    Affinities::new(user_factors.row(u), item_factors, ids).zip(&mut out)
                {
                    *slot = (weights[u] * pair_loss(p), p);
                }
                (at, u) = (row_end, u + 1);
            }
        });
        for &(loss, p) in window.iter() {
            q += loss;
            pos_affinity_sum += p;
        }
    }
    // unknown-pair term via the sum-trick
    let su = user_factors.column_sums();
    let si = item_factors.column_sums();
    q += ops::dot(&su, &si) - pos_affinity_sum;
    // regularizer
    q += lambda * (user_factors.frobenius_sq() + item_factors.frobenius_sq());
    q
}

/// Naive `O(n_u · n_i · K)` objective used to validate the sum-trick in
/// tests and the ablation bench. Do not call on real data sizes.
pub fn objective_naive(r: &CsrMatrix, model: &FactorModel, lambda: f64, weights: &[f64]) -> f64 {
    let mut q = 0.0;
    for u in 0..r.n_rows() {
        let fu = model.user_factors.row(u);
        for i in 0..r.n_cols() {
            let p = ops::dot(fu, model.item_factors.row(i));
            if r.contains(u, i) {
                q += weights[u] * pair_loss(p);
            } else {
                q += p;
            }
        }
    }
    q + lambda * (model.user_factors.frobenius_sq() + model.item_factors.frobenius_sq())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Weighting;

    fn toy_model() -> FactorModel {
        FactorModel::new(
            Matrix::from_rows(&[&[1.0, 0.2], &[0.1, 0.8]]),
            Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.7], &[0.4, 0.4]]),
            false,
        )
    }

    fn toy_matrix() -> CsrMatrix {
        CsrMatrix::from_pairs(2, 3, &[(0, 0), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn pair_loss_decreases_in_affinity() {
        assert!(pair_loss(0.1) > pair_loss(1.0));
        assert!(pair_loss(1.0) > pair_loss(5.0));
        assert!(pair_loss(5.0) > 0.0);
    }

    #[test]
    fn pair_loss_finite_at_zero() {
        let v = pair_loss(0.0);
        assert!(v.is_finite());
        assert!(v > 20.0, "clamped loss at p=0 should be large: {v}");
    }

    #[test]
    fn positive_coefficient_matches_derivative() {
        // numeric derivative of pair_loss
        for &p in &[0.05f64, 0.3, 1.0, 3.0] {
            let h = 1e-7;
            let numeric = (pair_loss(p + h) - pair_loss(p - h)) / (2.0 * h);
            let analytic = -positive_coefficient(p, 1.0);
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "p={p}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn curvature_is_the_derivative_of_the_coefficient() {
        for &(p, w) in &[(0.05f64, 1.0), (0.3, 2.5), (1.0, 1.0), (3.0, 40.0)] {
            let (coefficient, curvature) = positive_coefficient_and_curvature(p, w);
            assert_eq!(coefficient.to_bits(), positive_coefficient(p, w).to_bits());
            let h = 1e-6;
            let numeric =
                (positive_coefficient(p - h, w) - positive_coefficient(p + h, w)) / (2.0 * h);
            assert!(
                (numeric - curvature).abs() < 1e-6 * curvature.max(1.0),
                "p={p}: numeric {numeric} vs analytic {curvature}"
            );
        }
        // both ends of the range stay finite: the clamp, and expm1 = ∞
        let (c, h) = positive_coefficient_and_curvature(0.0, 1.0);
        assert!(c.is_finite() && h.is_finite() && h > c);
        assert_eq!(positive_coefficient_and_curvature(800.0, 1.0), (0.0, 0.0));
    }

    #[test]
    fn objective_matches_naive() {
        let r = toy_matrix();
        let m = toy_model();
        let w = user_weights(&r, Weighting::Absolute);
        let fast = objective(&r, &m, 0.7, &w);
        let naive = objective_naive(&r, &m, 0.7, &w);
        assert!((fast - naive).abs() < 1e-10, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn objective_matches_naive_weighted() {
        let r = toy_matrix();
        let m = toy_model();
        let w = user_weights(&r, Weighting::Relative);
        let fast = objective(&r, &m, 0.0, &w);
        let naive = objective_naive(&r, &m, 0.0, &w);
        assert!((fast - naive).abs() < 1e-10);
    }

    #[test]
    fn relative_weights_formula() {
        let r = toy_matrix(); // user 0: 1 positive of 3 items; user 1: 2 of 3
        let w = user_weights(&r, Weighting::Relative);
        assert!((w[0] - 2.0).abs() < 1e-12); // (3-1)/1
        assert!((w[1] - 0.5).abs() < 1e-12); // (3-2)/2
    }

    #[test]
    fn relative_weights_zero_for_cold_users() {
        let r = CsrMatrix::from_pairs(2, 3, &[(0, 0)]).unwrap();
        let w = user_weights(&r, Weighting::Relative);
        assert_eq!(w[1], 0.0);
    }

    #[test]
    fn regularizer_increases_objective() {
        let r = toy_matrix();
        let m = toy_model();
        let w = user_weights(&r, Weighting::Absolute);
        assert!(objective(&r, &m, 1.0, &w) > objective(&r, &m, 0.0, &w));
    }

    #[test]
    fn better_fit_has_lower_objective() {
        let r = toy_matrix();
        let w = user_weights(&r, Weighting::Absolute);
        // a model aligned with the positives
        let good = FactorModel::new(
            Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0], &[0.0, 2.0]]),
            false,
        );
        // a model aligned with the *unknowns*
        let bad = FactorModel::new(
            Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0], &[0.0, 2.0]]),
            false,
        );
        assert!(objective(&r, &good, 0.0, &w) < objective(&r, &bad, 0.0, &w));
    }

    /// The objective written out serially: one `dot` per positive in CSR
    /// order, both sums running in that order.
    fn objective_serial(r: &CsrMatrix, uf: &Matrix, itf: &Matrix, lambda: f64, w: &[f64]) -> f64 {
        let (mut q, mut pos_affinity_sum) = (0.0, 0.0);
        for u in 0..r.n_rows() {
            for &i in r.row(u) {
                let p = ops::dot(uf.row(u), itf.row(i as usize));
                q += w[u] * pair_loss(p);
                pos_affinity_sum += p;
            }
        }
        q += ops::dot(&uf.column_sums(), &itf.column_sums()) - pos_affinity_sum;
        q + lambda * (uf.frobenius_sq() + itf.frobenius_sq())
    }

    #[test]
    fn windowed_objective_is_bit_equal_to_the_serial_sum_at_any_thread_count() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // ≈ 4.5 windows; user 0's row alone is longer than a window, and
        // users 1 and 7 have no positives
        let (n_users, n_items, k) = (40, 20_000, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut pairs: Vec<(usize, usize)> = (0..WINDOW + 1_000).map(|i| (0, i)).collect();
        for u in (2..n_users).filter(|&u| u != 7) {
            let degree = rng.gen_range(0..3_000);
            pairs.extend((0..degree).map(|_| (u, rng.gen_range(0..n_items))));
        }
        let r = CsrMatrix::from_pairs(n_users, n_items, &pairs).unwrap();
        assert!(r.nnz() > 4 * WINDOW && r.row_nnz(0) > WINDOW);
        let mut random = |rows| {
            let mut m = Matrix::zeros(rows, k);
            m.as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = rng.gen::<f64>());
            m
        };
        let (uf, itf) = (random(n_users), random(n_items));
        for weighting in [Weighting::Absolute, Weighting::Relative] {
            let w = user_weights(&r, weighting);
            let want = objective_serial(&r, &uf, &itf, 0.3, &w).to_bits();
            for t in [1, 7] {
                let got = par::with_threads(Some(t), || objective_parts(&r, &uf, &itf, 0.3, &w));
                assert_eq!(got.to_bits(), want, "{weighting:?}, {t} threads");
            }
        }
    }
}
