//! Per-factor subproblems: local objective and gradient with the sum-trick.
//!
//! Minimising `Q` with one side fixed decomposes per factor row (Section
//! IV-D). For an item `i` (the user case is symmetric) the local objective
//! is
//!
//! ```text
//! Q(f_i) = Σ_{u: r_ui=1} w_u · pair_loss(⟨f_u,f_i⟩) + ⟨f_i, Σ_{u: r_ui=0} f_u⟩ + λ‖f_i‖²
//! ```
//!
//! and its gradient
//!
//! ```text
//! ∇Q(f_i) = Σ_{u: r_ui=0} f_u + 2λf_i − Σ_{u: r_ui=1} f_u · w_u/expm1(⟨f_u,f_i⟩)
//! ```
//!
//! The negative sums are never formed directly: the trainer precomputes
//! `S = Σ_u f_u` once per half-sweep and each subproblem uses
//! `Σ_{r=0} f_u = S − Σ_{r=1} f_u`, so one factor update costs
//! `O(deg · K)` and a full sweep `O(nnz · K)` — the paper's complexity claim.

use crate::loss::{pair_loss, positive_coefficient};
use ocular_linalg::{ops, Matrix};

/// Weights attached to the positive examples of a subproblem.
///
/// Every weight must be `≥ 0` (or NaN): the line search rejects a trial
/// from a partial sum of the objective, which is exact only while each
/// positive contributes a non-negative term. `Weighting::Relative` yields
/// non-negative weights by construction; fold-in asserts it on the
/// caller-supplied weight.
#[derive(Debug, Clone, Copy)]
pub enum PosWeights<'a> {
    /// Every positive weighs the same (user subproblems: `w_u`; plain
    /// OCuLaR: 1).
    Uniform(f64),
    /// Per-counterpart weights indexed by entity id (item subproblems under
    /// R-OCuLaR: `w_u` varies with the purchasing user).
    PerEntity(&'a [f64]),
}

impl PosWeights<'_> {
    /// Weight of the positive example whose counterpart entity is `e`.
    #[inline]
    pub fn get(&self, e: usize) -> f64 {
        match self {
            PosWeights::Uniform(w) => *w,
            PosWeights::PerEntity(ws) => ws[e],
        }
    }
}

/// One factor-row subproblem, bundling everything the line search needs.
pub struct LocalProblem<'a> {
    /// Counterpart entities with `r = 1` (users of an item, or items of a
    /// user).
    pub positives: &'a [u32],
    /// Factor matrix of the *fixed* side.
    pub other: &'a Matrix,
    /// Weights of the positive examples.
    pub weights: PosWeights<'a>,
    /// Precomputed `Σ_{r=0} f_other` (sum-trick output).
    pub negsum: &'a [f64],
    /// Regularization strength λ.
    pub lambda: f64,
    /// Bias-extension support: a dimension whose value is frozen (the
    /// constant-1 column). Its gradient entry is zeroed so a projected step
    /// never moves it.
    pub fixed_dim: Option<usize>,
}

impl LocalProblem<'_> {
    /// Local objective `Q(f)` for a candidate row `own`.
    pub fn objective(&self, own: &[f64]) -> f64 {
        self.objective_within(own, 0.0, f64::INFINITY)
            .expect("nothing exceeds an infinite bound")
    }

    /// `Q(own)`, summed only as far as deciding `Q(own) − q0 ≤ bound` needs:
    /// `Err(n)` once a partial sum fails it, `n` positives in (`Err(0)`: the
    /// `O(K)` part alone decided) — the terms still to come are `≥ 0`, see
    /// [`crate::linesearch`] — otherwise `Ok(Q(own))`, accumulated in the
    /// order, and so to the bits, of an unbounded evaluation.
    pub fn objective_within(&self, own: &[f64], q0: f64, bound: f64) -> Result<f64, usize> {
        let mut q = ops::dot(own, self.negsum) + self.lambda * ops::norm_sq(own);
        for (visited, &e) in self.positives.iter().enumerate() {
            if q - q0 > bound {
                return Err(visited);
            }
            let p = ops::dot(own, self.other.row(e as usize));
            q += self.weights.get(e as usize) * pair_loss(p);
        }
        Ok(q)
    }

    /// Writes `∇Q(own)` into `grad`.
    pub fn gradient(&self, own: &[f64], grad: &mut [f64]) {
        self.pass::<false>(own, grad);
    }

    /// Writes `∇Q(own)` into `grad` and returns `Q(own)`, computing each
    /// `⟨own, f_e⟩` once for both. Same bits as [`Self::objective`] and
    /// [`Self::gradient`] called separately.
    pub fn value_and_gradient(&self, own: &[f64], grad: &mut [f64]) -> f64 {
        self.pass::<true>(own, grad)
    }

    /// One pass over the positives for the gradient and, if `VALUE`, the
    /// objective (0 otherwise).
    fn pass<const VALUE: bool>(&self, own: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(own.len(), grad.len());
        let mut q = 0.0;
        if VALUE {
            q = ops::dot(own, self.negsum) + self.lambda * ops::norm_sq(own);
        }
        grad.copy_from_slice(self.negsum);
        ops::axpy(2.0 * self.lambda, own, grad);
        for &e in self.positives {
            let row = self.other.row(e as usize);
            let p = ops::dot(own, row);
            let w = self.weights.get(e as usize);
            if VALUE {
                q += w * pair_loss(p);
            }
            ops::axpy(-positive_coefficient(p, w), row, grad);
        }
        if let Some(d) = self.fixed_dim {
            grad[d] = 0.0;
        }
        q
    }
}

/// Computes `negsum = other_sum − Σ_{e ∈ positives} other.row(e)` into `out`
/// — the sum-trick (Section IV-D, credited to Yang & Leskovec).
pub fn negative_sum(other: &Matrix, other_sum: &[f64], positives: &[u32], out: &mut [f64]) {
    out.copy_from_slice(other_sum);
    for &e in positives {
        for (o, &v) in out.iter_mut().zip(other.row(e as usize)) {
            *o -= v;
        }
    }
}

/// Naive `O(n · K)` negative sum for validation. Membership is compared in
/// the `usize` domain so entity counts past `u32::MAX` cannot wrap.
pub fn negative_sum_naive(other: &Matrix, positives: &[u32], out: &mut [f64]) {
    out.iter_mut().for_each(|v| *v = 0.0);
    for e in 0..other.rows() {
        if positives
            .binary_search_by(|&p| (p as usize).cmp(&e))
            .is_err()
        {
            for (o, &v) in out.iter_mut().zip(other.row(e)) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn other() -> Matrix {
        Matrix::from_rows(&[&[0.5, 0.1], &[0.2, 0.9], &[0.7, 0.3], &[0.05, 0.4]])
    }

    #[test]
    fn negative_sum_matches_naive() {
        let o = other();
        let sum = o.column_sums();
        let positives: Vec<u32> = vec![1, 3];
        let mut fast = vec![0.0; 2];
        let mut naive = vec![0.0; 2];
        negative_sum(&o, &sum, &positives, &mut fast);
        negative_sum_naive(&o, &positives, &mut naive);
        for (a, b) in fast.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let o = other();
        let sum = o.column_sums();
        let positives: Vec<u32> = vec![0, 2];
        let weights = vec![1.0, 0.0, 2.5, 0.0];
        let mut negsum = vec![0.0; 2];
        negative_sum(&o, &sum, &positives, &mut negsum);
        let problem = LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::PerEntity(&weights),
            negsum: &negsum,
            lambda: 0.3,
            fixed_dim: None,
        };
        let own = vec![0.4, 0.6];
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let h = 1e-6;
        for d in 0..2 {
            let mut plus = own.clone();
            plus[d] += h;
            let mut minus = own.clone();
            minus[d] -= h;
            let numeric = (problem.objective(&plus) - problem.objective(&minus)) / (2.0 * h);
            assert!(
                (numeric - grad[d]).abs() < 1e-5,
                "dim {d}: numeric {numeric} vs analytic {}",
                grad[d]
            );
        }
    }

    #[test]
    fn gradient_with_uniform_weights_matches_per_entity() {
        let o = other();
        let sum = o.column_sums();
        let positives: Vec<u32> = vec![1, 2];
        let uniform_weights = vec![3.0; 4];
        let mut negsum = vec![0.0; 2];
        negative_sum(&o, &sum, &positives, &mut negsum);
        let own = vec![0.3, 0.2];
        let mut g1 = vec![0.0; 2];
        let mut g2 = vec![0.0; 2];
        LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::Uniform(3.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        }
        .gradient(&own, &mut g1);
        LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::PerEntity(&uniform_weights),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        }
        .gradient(&own, &mut g2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn fixed_dim_gradient_is_zero() {
        let o = other();
        let sum = o.column_sums();
        let positives: Vec<u32> = vec![0];
        let mut negsum = vec![0.0; 2];
        negative_sum(&o, &sum, &positives, &mut negsum);
        let problem = LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.5,
            fixed_dim: Some(1),
        };
        let mut grad = vec![0.0; 2];
        problem.gradient(&[0.2, 1.0], &mut grad);
        assert_eq!(grad[1], 0.0);
        assert_ne!(grad[0], 0.0);
    }

    #[test]
    fn gradient_at_zero_row_is_finite() {
        // degree-0 entity: gradient must be the negsum + 0 (regulariser)
        let o = other();
        let sum = o.column_sums();
        let positives: Vec<u32> = vec![];
        let mut negsum = vec![0.0; 2];
        negative_sum(&o, &sum, &positives, &mut negsum);
        let problem = LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 1.0,
            fixed_dim: None,
        };
        let mut grad = vec![0.0; 2];
        problem.gradient(&[0.0, 0.0], &mut grad);
        assert!(grad.iter().all(|v| v.is_finite()));
        // for an empty row the gradient equals negsum (= full sum here)
        for (g, s) in grad.iter().zip(&sum) {
            assert!((g - s).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_example_pulls_affinity_up() {
        // with a single positive and no negatives/regularisation the
        // gradient must point towards *larger* affinity (negative gradient
        // along the counterpart's direction)
        let o = Matrix::from_rows(&[&[1.0, 0.0]]);
        let positives: Vec<u32> = vec![0];
        let negsum = vec![0.0; 2];
        let problem = LocalProblem {
            positives: &positives,
            other: &o,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.0,
            fixed_dim: None,
        };
        let mut grad = vec![0.0; 2];
        problem.gradient(&[0.5, 0.5], &mut grad);
        assert!(grad[0] < 0.0, "gradient must push dim 0 up");
        assert_eq!(grad[1], 0.0, "orthogonal dim untouched");
    }
}
