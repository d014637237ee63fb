//! Fold-in of new users — serving recommendations without retraining.
//!
//! A deployed B2B system (Section VIII) meets clients that were not in the
//! training matrix: a new account, or an anonymous basket mid-session. The
//! factor model supports *fold-in*: with item factors frozen, a new user's
//! affiliation vector is the solution of exactly one user-subproblem
//! (Eq. 5) — convex, with a unique minimiser for λ > 0.
//!
//! Training takes one projected-gradient step per row per sweep and never
//! needs that minimiser; a request does, so fold-in solves the subproblem
//! by **projected Newton on its free set**. Per iteration one pass over the
//! basket gives `∇Q`, the Hessian diagonal and each positive's curvature
//! `w·eᵖ/(eᵖ−1)²`; the system `2λI + Σ curv·f_i f_iᵀ` is built and
//! Cholesky-solved only on the *free* coordinates — those their own scaled
//! gradient step `x_j − g_j / H_jj` leaves inside the bound; the others
//! head for zero and enter the right-hand side as a cross term — and the
//! step is taken along the projection arc under the training line search's
//! Armijo predicate and constants. The loop stops on the Newton decrement,
//! before searching rather than after a search has failed: when the step it
//! measures is 1e-5 of the iterate, or the gain it predicts is under
//! what `Q` can resolve. A solution has a handful of non-zero coordinates,
//! so the reduced systems are tiny and an iteration costs `O(basket · K)`;
//! half a dozen iterations reach the minimiser.
//!
//! Two details keep it away from the singularity of `−log(1 − e^{−p})` at
//! `p = 0`, which [`P_MIN`] turns into a plateau with a cliff-sized
//! gradient beside it:
//!
//! * the start is the mean of the basket's item rows scaled by
//!   `min(1, w·|basket| / ⟨mean, negsum⟩)` — the exact minimiser along that
//!   ray while affinities are small and the loss is `−log p`. Unscaled, the
//!   mean overshoots by the ratio of the catalog to the basket, the first
//!   full step clamps the row to zero, the plateau makes that look like a
//!   decrease, and no step leaves zero again;
//! * a trial that takes a live positive (`⟨f, f_i⟩ ≥ P_MIN`) onto the
//!   plateau is infeasible — the true loss there is `+∞` — and is
//!   backtracked like any other failing trial.
//!
//! When the reduced system is not positive definite (λ = 0 with fewer
//! independent basket rows than free coordinates), or no point on the
//! Newton step's arc is acceptable, the free coordinates take their own
//! scaled gradient steps instead, uncoupled, under the same search and
//! guard. A plain gradient step would not do there: with item factors of
//! 100 the gradient is 1e7 times the iterate, further than `max_backtracks`
//! halvings reach. What the solve cannot do it reports
//! ([`FoldIn::converged`]): without the ridge `Q` need not have a
//! minimiser, and a start that is itself under `P_MIN` (item factors of
//! 1e-6) has no slope to follow.

use crate::config::OcularConfig;
use crate::gradient::{negative_sum, LocalProblem, PosWeights};
use crate::linesearch::{LineSearch, StepOutcome};
use crate::loss::{pair_loss, positive_coefficient_and_curvature};
use crate::model::{FactorModel, P_MIN};
use crate::recommend::Recommendation;
use ocular_linalg::{ops, Cholesky};

/// The solve stops once the Newton step is this small next to the iterate,
/// both measured in the Hessian norm (the decrement `−⟨∇Q, d⟩` is the
/// step's squared length). The step not taken is about the error left in
/// the iterate: 1e-5 of its length, 1e-10 of `Q`.
const STEP_TOL: f64 = 1e-5;

/// … or once the decrement — twice the decrease a full step predicts — is
/// below this share of `|Q|`, where the line search could not tell the
/// decrease from the rounding of `Q` (≈ 1e-15·|Q| over a basket's terms).
const RESOLUTION: f64 = 1e-12;

/// Result of folding in a new user.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIn {
    /// The inferred affiliation vector (length `k_total`).
    pub factors: Vec<f64>,
    /// Local objective value at the solution.
    pub objective: f64,
    /// Solver iterations taken (accepted steps).
    pub steps: usize,
    /// Whether the solve stopped at a stationary point. `false` means it
    /// ran into `max_steps` or no trial step was accepted; `factors` is
    /// then the best iterate, not the minimiser.
    pub converged: bool,
}

/// Reusable working memory for [`fold_in_user_with`] — the sorted basket,
/// the iterate, and the solver's temporaries.
///
/// A serving tier folds users in on every cold request; allocating these
/// vectors per request is pure tail latency. Keep one scratch per
/// worker thread (the buffers are cleared and resized on each call, so
/// results are identical to the allocate-fresh path).
#[derive(Debug, Clone, Default)]
pub struct FoldInScratch {
    positives: Vec<u32>,
    own: Vec<f64>,
    negsum: Vec<f64>,
    solver: Solver,
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
/// may be passed). `cfg` supplies `lambda` and the Armijo constants
/// `sigma`, `beta`, `max_backtracks`.
/// `max_steps` caps the solver's iterations (see the [module docs](self));
/// a basket of a few dozen items needs 3–10, so a cap of 100 is a guard
/// against degenerate inputs, and reaching it is reported as
/// [`FoldIn::converged`]` == false`.
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
    let FoldInScratch {
        positives,
        own,
        negsum,
        solver,
    } = scratch;
    positives.clear();
    positives.extend(basket.iter().map(|&i| {
        assert!(i < model.n_items(), "basket item {i} out of range");
        ocular_sparse::col_index(i)
    }));
    positives.sort_unstable();
    let dups = positives.windows(2).any(|w| w[0] == w[1]);
    assert!(!dups, "basket contains duplicate items");
    assert!(
        weight >= 0.0 && weight.is_finite(),
        "fold-in weight must be finite and non-negative, got {weight}"
    );
    // bias layout: the user-side frozen dimension is k_clusters + 1
    let fixed_dim = model.has_bias().then(|| model.n_clusters() + 1);
    negsum.resize(k, 0.0);
    negative_sum(&model.item_factors, item_sum, positives, negsum);

    // start: the mean of the basket items' factors (the user is "like"
    // their items), shrunk to the minimiser along that ray of the
    // small-affinity model −w·Σ log(s·⟨mean, f_i⟩) + s·⟨mean, negsum⟩;
    // the bias column is forced to 1 and takes no part in the scaling
    own.clear();
    own.resize(k, 0.0);
    for &i in positives.iter() {
        ops::axpy(1.0, model.item_factors.row(i as usize), own);
    }
    if let Some(d) = fixed_dim {
        own[d] = 0.0;
    }
    if !positives.is_empty() {
        let n = positives.len() as f64;
        ops::scale(1.0 / n, own);
        let (mass, pull) = (weight * n, ops::dot(own, negsum));
        if pull > mass {
            ops::scale(mass / pull, own);
        }
    }
    if let Some(d) = fixed_dim {
        own[d] = 1.0;
    }

    let problem = LocalProblem {
        positives,
        other: &model.item_factors,
        weights: PosWeights::Uniform(weight),
        negsum,
        lambda: cfg.lambda,
        fixed_dim,
    };
    let (objective, steps, converged) = solver.solve(&problem, &cfg.into(), own, max_steps);
    FoldIn {
        factors: own.clone(),
        objective,
        steps,
        converged,
    }
}

/// The projected-Newton solver's temporaries (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
struct Solver {
    /// `∇Q` and the diagonal of `∇²Q` at the iterate.
    grad: Vec<f64>,
    diag: Vec<f64>,
    /// Search direction, and the trial point along it.
    dir: Vec<f64>,
    candidate: Vec<f64>,
    /// Per positive, at the iterate: `⟨own, f_i⟩` and `w·eᵖ/(eᵖ−1)²`.
    affinity: Vec<f64>,
    curvature: Vec<f64>,
    /// The free coordinates, then the Newton system reduced to them: the
    /// lower triangle of an `|free|²` matrix and its right-hand side.
    free: Vec<usize>,
    hessian: Vec<f64>,
    rhs: Vec<f64>,
}

impl Solver {
    /// Minimises `p` over `own ≥ 0` from the start `own` holds; returns
    /// `(Q(own), iterations, converged)`.
    fn solve(
        &mut self,
        p: &LocalProblem<'_>,
        search: &LineSearch,
        own: &mut [f64],
        max_steps: usize,
    ) -> (f64, usize, bool) {
        let (k, n) = (own.len(), p.positives.len());
        for v in [
            &mut self.grad,
            &mut self.diag,
            &mut self.dir,
            &mut self.candidate,
            &mut self.rhs,
        ] {
            v.resize(k, 0.0);
        }
        self.hessian.resize(k * k, 0.0);
        self.affinity.resize(n, 0.0);
        self.curvature.resize(n, 0.0);

        let mut q = self.pass::<true>(p, own);
        let mut steps = 0;
        let converged = loop {
            let (decrement, size) = self.newton_direction(p, own);
            let enough = (STEP_TOL * STEP_TOL * size).max(RESOLUTION * q.abs());
            if (0.0..=enough).contains(&decrement) {
                break true;
            }
            if steps == max_steps {
                break false;
            }
            let mut arc = self.arc_search(p, search, own, q);
            if !matches!(arc, StepOutcome::Accepted { .. }) {
                // no acceptable point on the coupled step's arc: uncouple
                self.split(p, own);
                self.uncoupled_steps();
                arc = self.arc_search(p, search, own, q);
            }
            match arc {
                StepOutcome::Accepted { q_new, .. } => q = q_new,
                StepOutcome::Stationary => break true,
                StepOutcome::Rejected => break false,
            }
            steps += 1;
            self.pass::<false>(p, own);
        };
        (q, steps, converged)
    }

    /// One pass over the basket at `own`: the gradient, the Hessian
    /// diagonal, each positive's affinity and curvature and, if `VALUE`,
    /// `Q(own)` in [`LocalProblem::objective`]'s order (0 otherwise).
    fn pass<const VALUE: bool>(&mut self, p: &LocalProblem<'_>, own: &[f64]) -> f64 {
        let mut q = 0.0;
        if VALUE {
            q = ops::dot(own, p.negsum) + p.lambda * ops::norm_sq(own);
        }
        self.grad.copy_from_slice(p.negsum);
        ops::axpy(2.0 * p.lambda, own, &mut self.grad);
        self.diag.fill(2.0 * p.lambda);
        for (n, &e) in p.positives.iter().enumerate() {
            let row = p.other.row(e as usize);
            let a = ops::dot(own, row);
            let w = p.weights.get(e as usize);
            if VALUE {
                q += w * pair_loss(a);
            }
            let (coefficient, curvature) = positive_coefficient_and_curvature(a, w);
            for ((g, h), &r) in self.grad.iter_mut().zip(&mut self.diag).zip(row) {
                *g -= coefficient * r;
                *h += curvature * r * r;
            }
            self.affinity[n] = a;
            self.curvature[n] = curvature;
        }
        if let Some(d) = p.fixed_dim {
            self.grad[d] = 0.0;
        }
        q
    }

    /// Sorts the coordinates by their own scaled gradient step
    /// `x_j − g_j / H_jj`: one it takes to the bound or past it is bound
    /// for zero, `dir_j = −x_j`; the others are `free`, `dir_j = 0` so far.
    fn split(&mut self, p: &LocalProblem<'_>, own: &[f64]) {
        self.free.clear();
        for (j, d) in self.dir.iter_mut().enumerate() {
            *d = 0.0;
            if Some(j) == p.fixed_dim {
                continue;
            }
            if self.grad[j] < self.diag[j] * own[j] {
                self.free.push(j);
            } else {
                *d = -own[j];
            }
        }
    }

    /// Gives each free coordinate its own scaled gradient step.
    fn uncoupled_steps(&mut self) {
        for &j in &self.free {
            self.dir[j] = -self.grad[j] / self.diag[j];
        }
    }

    /// Writes the projected-Newton direction at `own` into `dir`; returns
    /// its decrement `−⟨∇Q, dir⟩` and the squared length `xᵀ∇²Q x` of the
    /// iterate's free part, the norm the decrement is a squared step in.
    /// Where the system reduced to the free set is not positive definite
    /// the free coordinates are left uncoupled.
    fn newton_direction(&mut self, p: &LocalProblem<'_>, own: &[f64]) -> (f64, f64) {
        self.split(p, own);
        let size = loop {
            let nf = self.free.len();
            let hessian = &mut self.hessian[..nf * nf];
            let rhs = &mut self.rhs[..nf];
            hessian.fill(0.0);
            let mut size = 0.0;
            for (a, &j) in self.free.iter().enumerate() {
                hessian[a * nf + a] = 2.0 * p.lambda;
                rhs[a] = -self.grad[j];
                size += 2.0 * p.lambda * own[j] * own[j];
            }
            for (&e, &curvature) in p.positives.iter().zip(&self.curvature) {
                let row = p.other.row(e as usize);
                // `dir` holds only the zero-bound moves so far: their pull
                // on the free coordinates goes to the right-hand side
                let cross = curvature * ops::dot(row, &self.dir);
                let mut reach = 0.0;
                for (a, &ja) in self.free.iter().enumerate() {
                    let scaled = curvature * row[ja];
                    rhs[a] -= cross * row[ja];
                    reach += row[ja] * own[ja];
                    for (h, &jb) in hessian[a * nf..=a * nf + a].iter_mut().zip(&self.free) {
                        *h += scaled * row[jb];
                    }
                }
                size += curvature * reach * reach;
            }
            if Cholesky::factor_in_place(hessian, nf).is_err() {
                self.uncoupled_steps();
                break size;
            }
            Cholesky::solve_lower_in_place(hessian, nf, rhs);
            // a coordinate on the bound that the solve pushes further out
            // would be clipped, leaving the rest with a step computed for
            // a move that does not happen: bind it and solve again
            let mut a = 0;
            self.free.retain(|&j| {
                a += 1;
                own[j] > 0.0 || rhs[a - 1] >= 0.0
            });
            if self.free.len() == nf {
                for (&j, &d) in self.free.iter().zip(rhs.iter()) {
                    self.dir[j] = d;
                }
                break size;
            }
        };
        (-ops::dot(&self.grad, &self.dir), size)
    }

    /// Backtracks along the projection arc `(own + α·dir)₊`, `α = 1, β,
    /// β², …`, to the first trial that is a descent step and passes the
    /// Armijo test `Q(trial) − q0 ≤ σ⟨∇Q, trial − own⟩`; moves `own` there.
    fn arc_search(
        &mut self,
        p: &LocalProblem<'_>,
        search: &LineSearch,
        own: &mut [f64],
        q0: f64,
    ) -> StepOutcome {
        let mut alpha = 1.0;
        for _ in 0..search.max_backtracks {
            for ((c, &x), &d) in self.candidate.iter_mut().zip(own.iter()).zip(&self.dir) {
                *c = (x + alpha * d).max(0.0);
            }
            if self.candidate == own {
                return StepOutcome::Stationary;
            }
            let predicted = ops::dot_diff(&self.grad, &self.candidate, own);
            if predicted < 0.0 {
                if let Some(q_new) = self.trial(p, q0, search.sigma * predicted) {
                    own.copy_from_slice(&self.candidate);
                    return StepOutcome::Accepted { q_new, alpha };
                }
            }
            alpha *= search.beta;
        }
        StepOutcome::Rejected
    }

    /// `Q(candidate)` if it passes `Q − q0 ≤ bound` and is feasible, summed
    /// like [`LocalProblem::objective_within`]: dropped as soon as a
    /// partial sum fails the test (the terms still to come are `≥ 0`), or
    /// a positive that is live at the iterate lands under [`P_MIN`]. One
    /// with an all-zero item row or zero weight is a constant, and exempt.
    fn trial(&self, p: &LocalProblem<'_>, q0: f64, bound: f64) -> Option<f64> {
        let c = &self.candidate[..];
        let mut q = ops::dot(c, p.negsum) + p.lambda * ops::norm_sq(c);
        for (&e, &live) in p.positives.iter().zip(&self.affinity) {
            if q - q0 > bound {
                return None;
            }
            let a = ops::dot(c, p.other.row(e as usize));
            let w = p.weights.get(e as usize);
            if a < P_MIN && live >= P_MIN && w > 0.0 {
                return None;
            }
            q += w * pair_loss(a);
        }
        (q - q0 <= bound).then_some(q)
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
