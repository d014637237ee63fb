//! Armijo backtracking line search along the projection arc (Section IV-D).
//!
//! The factor update is `f^{k+1} = (f^k − α_k ∇Q(f^k))₊` with
//! `α_k = β^{t_k}`, `t_k` the smallest integer such that
//!
//! ```text
//! Q(f^{k+1}) − Q(f^k) ≤ σ ⟨∇Q(f^k), f^{k+1} − f^k⟩
//! ```
//!
//! (the Armijo rule along the projection arc, Bertsekas §2.3). Because the
//! right-hand side is non-positive for a projected gradient step, every
//! accepted update decreases the local objective, which makes the overall
//! block-coordinate sweep monotone.
//!
//! Most trials fail (about ten per accepted step on the B2B profile), and
//! a failing trial is decided long before its objective is summed:
//!
//! 1. after the `O(K)` part `⟨c, negsum⟩ + λ‖c‖²`, every term of the trial
//!    objective is `w · pair_loss(p) ≥ 0`;
//! 2. floating-point addition of a non-negative term never lowers the
//!    running sum, and `q ↦ q − Q(f^k)` rounds monotonically;
//! 3. so a partial sum that already fails the predicate above means the
//!    finished sum fails the *same* predicate — the trial is dropped there.
//!
//! An accepted trial is summed to the end in the usual order, so the search
//! picks the same `t_k` and writes the same bits as one that evaluates
//! every trial in full ([`LocalProblem::objective_within`]).

use crate::config::OcularConfig;
use crate::gradient::{negative_sum, LocalProblem, PosWeights};
use ocular_linalg::{ops, Matrix};

/// Line-search constants (paper: user-set `σ, β ∈ (0,1)`).
#[derive(Debug, Clone, Copy)]
pub struct LineSearch {
    /// Sufficient-decrease constant σ.
    pub sigma: f64,
    /// Backtracking factor β.
    pub beta: f64,
    /// Maximum trials before giving up on this factor for the sweep.
    pub max_backtracks: usize,
}

impl From<&OcularConfig> for LineSearch {
    fn from(cfg: &OcularConfig) -> Self {
        LineSearch {
            sigma: cfg.sigma,
            beta: cfg.beta,
            max_backtracks: cfg.max_backtracks,
        }
    }
}

/// Outcome of one factor update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The row was updated; contains the new local objective and the
    /// accepted step size.
    Accepted {
        /// Local objective after the step.
        q_new: f64,
        /// The accepted `α = β^t`.
        alpha: f64,
    },
    /// No candidate satisfied the Armijo test within `max_backtracks`; the
    /// row is unchanged.
    Rejected,
    /// The gradient step didn't move the row (already stationary on the
    /// active constraints).
    Stationary,
}

/// What the step search did, as plain counts: they depend on the data and
/// the seed only, never on timing or thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Steps that moved a row (accepted Armijo steps, or fixed steps).
    pub accepted: u64,
    /// Armijo trials evaluated.
    pub trials: u64,
    /// Trials rejected from the `O(K)` part alone, no positive visited.
    pub screened: u64,
    /// Trials abandoned part-way through their positives.
    pub cut_short: u64,
    /// Positives visited inside trials.
    pub visited: u64,
    /// Positives a search evaluating every trial in full would have
    /// visited (`Σ degree` over trials).
    pub visited_unscreened: u64,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, o: SearchStats) {
        self.accepted += o.accepted;
        self.trials += o.trials;
        self.screened += o.screened;
        self.cut_short += o.cut_short;
        self.visited += o.visited;
        self.visited_unscreened += o.visited_unscreened;
    }
}

/// Performs one projected gradient step with backtracking on `own`.
///
/// `grad` must hold `∇Q(own)`; `candidate` is caller-provided scratch of the
/// same length. On acceptance `own` is overwritten with the new row.
pub fn armijo_step(
    own: &mut [f64],
    grad: &[f64],
    q0: f64,
    problem: &LocalProblem<'_>,
    params: &LineSearch,
    candidate: &mut [f64],
) -> StepOutcome {
    let stats = &mut SearchStats::default();
    armijo_counted(own, grad, q0, problem, params, candidate, stats)
}

/// [`armijo_step`], adding what the search did to `stats`.
fn armijo_counted(
    own: &mut [f64],
    grad: &[f64],
    q0: f64,
    problem: &LocalProblem<'_>,
    params: &LineSearch,
    candidate: &mut [f64],
    stats: &mut SearchStats,
) -> StepOutcome {
    debug_assert_eq!(own.len(), grad.len());
    debug_assert_eq!(own.len(), candidate.len());
    let degree = problem.positives.len() as u64;
    let mut alpha = 1.0;
    for _ in 0..params.max_backtracks {
        ops::projected_step(own, grad, alpha, candidate);
        let predicted = ops::dot_diff(grad, candidate, own);
        if predicted == 0.0 {
            // projection absorbed the whole step: stationary w.r.t. the
            // active set (e.g. zero row with non-negative gradient)
            if candidate == own {
                return StepOutcome::Stationary;
            }
        }
        let bound = params.sigma * predicted;
        stats.trials += 1;
        stats.visited_unscreened += degree;
        match problem.objective_within(candidate, q0, bound) {
            Ok(q1) => {
                stats.visited += degree;
                if q1 - q0 <= bound {
                    own.copy_from_slice(candidate);
                    stats.accepted += 1;
                    return StepOutcome::Accepted { q_new: q1, alpha };
                }
            }
            Err(0) => stats.screened += 1,
            Err(visited) => {
                stats.cut_short += 1;
                stats.visited += visited as u64;
            }
        }
        alpha *= params.beta;
    }
    StepOutcome::Rejected
}

/// Fixed-step variant (ablation: `line_search = false`). Always applies
/// `(own − α ∇Q)₊`; returns the new local objective, which may be *worse* —
/// that is the point of the ablation.
pub fn fixed_step(
    own: &mut [f64],
    grad: &[f64],
    alpha: f64,
    problem: &LocalProblem<'_>,
    candidate: &mut [f64],
) -> f64 {
    ops::projected_step(own, grad, alpha, candidate);
    own.copy_from_slice(candidate);
    problem.objective(own)
}

/// Working memory of one row update — negative sum, gradient and
/// candidate, `K` floats each — reusable across rows (one per worker).
#[derive(Debug, Clone, Default)]
pub struct RowScratch(Vec<f64>);

/// The block-coordinate update of one factor row against a fixed other
/// side: the single implementation behind the sequential and parallel
/// half-sweeps and behind fold-in.
#[derive(Debug, Clone, Copy)]
pub struct RowUpdate<'a> {
    /// Factor matrix of the fixed side.
    pub other: &'a Matrix,
    /// `other.column_sums()`, computed once per half-sweep (or per model).
    pub other_sum: &'a [f64],
    /// Frozen bias dimension, if any (see [`LocalProblem::fixed_dim`]).
    pub fixed_dim: Option<usize>,
    /// Regularisation weight λ.
    pub lambda: f64,
    /// Armijo constants.
    pub search: LineSearch,
    /// Steps to take; an Armijo search that stalls (rejected or
    /// stationary) ends the update early.
    pub steps: usize,
    /// `Some(α)` takes fixed steps of size α instead of searching.
    pub fixed_step: Option<f64>,
}

impl RowUpdate<'_> {
    /// Updates `row` in place given its `positives` and their `weights`;
    /// returns the local objective at the updated row.
    pub fn run(
        &self,
        row: &mut [f64],
        positives: &[u32],
        weights: PosWeights<'_>,
        scratch: &mut RowScratch,
        stats: &mut SearchStats,
    ) -> f64 {
        let k = row.len();
        scratch.0.resize(3 * k, 0.0);
        let (negsum, rest) = scratch.0.split_at_mut(k);
        let (grad, candidate) = rest.split_at_mut(k);
        negative_sum(self.other, self.other_sum, positives, negsum);
        let problem = LocalProblem {
            positives,
            other: self.other,
            weights,
            negsum,
            lambda: self.lambda,
            fixed_dim: self.fixed_dim,
        };
        let mut q = problem.value_and_gradient(row, grad);
        for step in 0..self.steps {
            if step > 0 {
                problem.gradient(row, grad);
            }
            if let Some(alpha) = self.fixed_step {
                q = fixed_step(row, grad, alpha, &problem, candidate);
                stats.accepted += 1;
                continue;
            }
            match armijo_counted(row, grad, q, &problem, &self.search, candidate, stats) {
                StepOutcome::Accepted { q_new, .. } => q = q_new,
                StepOutcome::Rejected | StepOutcome::Stationary => break,
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LineSearch {
        LineSearch {
            sigma: 0.1,
            beta: 0.5,
            max_backtracks: 30,
        }
    }

    /// A small concrete subproblem: one positive counterpart, light
    /// regularisation.
    fn setup() -> (Matrix, Vec<u32>, Vec<f64>) {
        let other = Matrix::from_rows(&[&[1.0, 0.2], &[0.1, 0.1]]);
        let positives = vec![0u32];
        let sum = other.column_sums();
        let mut negsum = vec![0.0; 2];
        negative_sum(&other, &sum, &positives, &mut negsum);
        (other, positives, negsum)
    }

    #[test]
    fn accepted_step_decreases_objective() {
        let (other, positives, negsum) = setup();
        let problem = LocalProblem {
            positives: &positives,
            other: &other,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        };
        let mut own = vec![0.5, 0.5];
        let q0 = problem.objective(&own);
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let mut scratch = vec![0.0; 2];
        match armijo_step(&mut own, &grad, q0, &problem, &params(), &mut scratch) {
            StepOutcome::Accepted { q_new, alpha } => {
                assert!(q_new < q0, "objective must decrease: {q_new} vs {q0}");
                assert!(alpha > 0.0 && alpha <= 1.0);
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert!(
            own.iter().all(|&v| v >= 0.0),
            "projection keeps non-negativity"
        );
    }

    #[test]
    fn repeated_steps_converge_to_stationary_point() {
        let (other, positives, negsum) = setup();
        let problem = LocalProblem {
            positives: &positives,
            other: &other,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        };
        let mut own = vec![0.5, 0.5];
        let mut grad = vec![0.0; 2];
        let mut scratch = vec![0.0; 2];
        let mut q = problem.objective(&own);
        for _ in 0..200 {
            problem.gradient(&own, &mut grad);
            match armijo_step(&mut own, &grad, q, &problem, &params(), &mut scratch) {
                StepOutcome::Accepted { q_new, .. } => q = q_new,
                _ => break,
            }
        }
        // at a stationary point the projected gradient must (approximately)
        // vanish: grad ≥ 0 where own = 0, grad ≈ 0 where own > 0
        problem.gradient(&own, &mut grad);
        for (o, g) in own.iter().zip(&grad) {
            if *o > 1e-9 {
                assert!(g.abs() < 1e-4, "free coordinate gradient {g} should vanish");
            } else {
                assert!(*g > -1e-4, "active coordinate gradient {g} should be ≥ 0");
            }
        }
    }

    #[test]
    fn stationary_zero_row_detected() {
        // no positives: objective = ⟨own, negsum⟩ + λ‖own‖², negsum ≥ 0,
        // so own = 0 is optimal and the step must not move
        let other = Matrix::from_rows(&[&[0.4, 0.6]]);
        let positives: Vec<u32> = vec![];
        let sum = other.column_sums();
        let mut negsum = vec![0.0; 2];
        negative_sum(&other, &sum, &positives, &mut negsum);
        let problem = LocalProblem {
            positives: &positives,
            other: &other,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        };
        let mut own = vec![0.0, 0.0];
        let q0 = problem.objective(&own);
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let mut scratch = vec![0.0; 2];
        let outcome = armijo_step(&mut own, &grad, q0, &problem, &params(), &mut scratch);
        assert_eq!(outcome, StepOutcome::Stationary);
        assert_eq!(own, vec![0.0, 0.0]);
    }

    #[test]
    fn fixed_dim_never_moves() {
        let (other, positives, negsum) = setup();
        let problem = LocalProblem {
            positives: &positives,
            other: &other,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: Some(1),
        };
        let mut own = vec![0.5, 1.0];
        let q0 = problem.objective(&own);
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let mut scratch = vec![0.0; 2];
        armijo_step(&mut own, &grad, q0, &problem, &params(), &mut scratch);
        assert_eq!(own[1], 1.0, "frozen dimension must stay at 1.0");
    }

    #[test]
    fn fixed_step_applies_unconditionally() {
        let (other, positives, negsum) = setup();
        let problem = LocalProblem {
            positives: &positives,
            other: &other,
            weights: PosWeights::Uniform(1.0),
            negsum: &negsum,
            lambda: 0.1,
            fixed_dim: None,
        };
        let mut own = vec![0.5, 0.5];
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let before = own.clone();
        let mut scratch = vec![0.0; 2];
        fixed_step(&mut own, &grad, 0.05, &problem, &mut scratch);
        assert_ne!(own, before, "fixed step must move the row");
        assert!(own.iter().all(|&v| v >= 0.0));
    }
}
