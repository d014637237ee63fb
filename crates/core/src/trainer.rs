//! Block coordinate descent training loop (Sections IV-B and IV-D).
//!
//! One *sweep* updates every item factor (users fixed) and then every user
//! factor (items fixed), each with `inner_steps` projected-gradient steps
//! (default 1, per the paper). Before each half-sweep, the fixed side's
//! column sums are computed once so every subproblem gets its negative sum
//! in `O(deg · K)` — the Yang–Leskovec sum-trick that gives the algorithm
//! its `O(nnz · K)` per-sweep complexity.

use crate::config::OcularConfig;
use crate::gradient::PosWeights;
use crate::linesearch::{RowScratch, RowUpdate, SearchStats};
use crate::loss::user_weights;
use crate::model::FactorModel;
use ocular_linalg::Matrix;
use ocular_sparse::{CsrMatrix, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Telemetry recorded by the trainer.
#[derive(Debug, Clone)]
pub struct TrainingHistory {
    /// Objective `Q` before training (`objective[0]`) and after each sweep.
    pub objective: Vec<f64>,
    /// Wall-clock seconds of each sweep (excludes the objective evaluation,
    /// matching the paper's "running time per iteration" in Figure 7).
    pub sweep_seconds: Vec<f64>,
    /// What the step search did in each sweep (both half-sweeps summed):
    /// exact counts, equal between [`fit`] and the parallel trainer at any
    /// thread count.
    pub search: Vec<SearchStats>,
    /// Whether the relative-decrease tolerance was met before `max_iters`.
    pub converged: bool,
}

impl TrainingHistory {
    /// Number of sweeps executed.
    pub fn iterations(&self) -> usize {
        self.sweep_seconds.len()
    }

    /// Final objective value.
    pub fn final_objective(&self) -> f64 {
        *self
            .objective
            .last()
            .expect("objective recorded at least once")
    }

    /// Mean seconds per sweep.
    pub fn mean_sweep_seconds(&self) -> f64 {
        if self.sweep_seconds.is_empty() {
            0.0
        } else {
            self.sweep_seconds.iter().sum::<f64>() / self.sweep_seconds.len() as f64
        }
    }
}

/// A fitted model plus its training telemetry.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The fitted factor model.
    pub model: FactorModel,
    /// Objective trace and timings.
    pub history: TrainingHistory,
}

/// Initialises a factor matrix uniformly in `[0, scale)`; bias layouts get
/// their frozen column set to exactly 1 and their bias column scaled down
/// (biases should start near zero so co-clusters explain the data first).
fn init_factors(
    rows: usize,
    cfg: &OcularConfig,
    rng: &mut StdRng,
    frozen_dim: Option<usize>,
    bias_dim: Option<usize>,
) -> Matrix {
    let k_total = cfg.k_total();
    let scale = cfg.effective_init_scale();
    let mut m = Matrix::zeros(rows, k_total);
    for r in 0..rows {
        let row = m.row_mut(r);
        for (c, v) in row.iter_mut().enumerate() {
            *v = if Some(c) == frozen_dim {
                1.0
            } else if Some(c) == bias_dim {
                rng.gen::<f64>() * scale * 0.01
            } else {
                rng.gen::<f64>() * scale
            };
        }
    }
    m
}

/// Maps a row of the side being updated to the weights of its positives.
pub type WeightsFor<'w> = dyn Fn(usize) -> PosWeights<'w> + Sync + 'w;

/// Updates one side (all items, or all users) in place; returns what the
/// step search did.
fn sweep_side(
    own: &mut Matrix,
    adjacency: &CsrMatrix, // rows = own entities, cols = other entities
    update: &RowUpdate<'_>,
    weights_for_positives: &WeightsFor<'_>,
    scratch: &mut RowScratch,
) -> SearchStats {
    let mut stats = SearchStats::default();
    for e in 0..own.rows() {
        update.run(
            own.row_mut(e),
            adjacency.row(e),
            weights_for_positives(e),
            scratch,
            &mut stats,
        );
    }
    stats
}

/// The bias-extension column layout: `(user_frozen, user_bias, item_frozen,
/// item_bias)` dimensions. Dims `[0..k)` are co-clusters; dim `k` is the
/// user bias (frozen to 1 on items); dim `k+1` the item bias (frozen to 1
/// on users).
pub fn bias_layout(
    cfg: &OcularConfig,
) -> (Option<usize>, Option<usize>, Option<usize>, Option<usize>) {
    if cfg.bias {
        (Some(cfg.k + 1), Some(cfg.k), Some(cfg.k), Some(cfg.k + 1))
    } else {
        (None, None, None, None)
    }
}

/// Seeded factor initialisation, shared by this sequential trainer and the
/// parallel trainer in `ocular-parallel` — both draw from the same RNG
/// stream, so they start from bitwise-identical factors.
///
/// With [`crate::config::InitStrategy::NeighborhoodSeeded`] (the default),
/// the random background is scaled down and each co-cluster dimension is
/// seeded on a random user's purchase neighbourhood, which breaks the
/// symmetry that traps uniform-random starts in poor local optima when `K`
/// is large.
pub fn initial_factors(r: &CsrMatrix, cfg: &OcularConfig) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (user_frozen, user_bias, item_frozen, item_bias) = bias_layout(cfg);
    match cfg.init {
        crate::config::InitStrategy::Random => {
            let user_factors = init_factors(r.n_rows(), cfg, &mut rng, user_frozen, user_bias);
            let item_factors = init_factors(r.n_cols(), cfg, &mut rng, item_frozen, item_bias);
            (user_factors, item_factors)
        }
        crate::config::InitStrategy::NeighborhoodSeeded => {
            // faint random background so unclaimed entities can still move
            let background = OcularConfig {
                init_scale: 0.1 * cfg.effective_init_scale(),
                ..cfg.clone()
            };
            let mut user_factors =
                init_factors(r.n_rows(), &background, &mut rng, user_frozen, user_bias);
            let mut item_factors =
                init_factors(r.n_cols(), &background, &mut rng, item_frozen, item_bias);
            if r.n_rows() > 0 {
                for c in 0..cfg.k {
                    // prefer a seed user that actually has purchases
                    let mut seed_user = rng.gen_range(0..r.n_rows());
                    for _ in 0..16 {
                        if r.row_nnz(seed_user) > 0 {
                            break;
                        }
                        seed_user = rng.gen_range(0..r.n_rows());
                    }
                    user_factors.row_mut(seed_user)[c] = 1.0;
                    for &i in r.row(seed_user) {
                        item_factors.row_mut(i as usize)[c] = 1.0;
                    }
                }
            }
            (user_factors, item_factors)
        }
    }
}

/// Fits an OCuLaR (or R-OCuLaR) model to the one-class interaction store
/// `data`. The item half-sweep reads the dataset's build-once CSC dual
/// view ([`Dataset::item_view`]) — nothing is re-transposed per fit — and
/// all per-sweep buffers are allocated once up front.
///
/// # Panics
/// Panics if `cfg` fails [`OcularConfig::validate`]. Use [`try_fit`] for a
/// fallible variant.
pub fn fit(data: &Dataset, cfg: &OcularConfig) -> TrainResult {
    // the row update's temporaries, allocated once for the whole run
    let mut scratch = RowScratch::default();
    fit_with(data, cfg, &mut |own, adjacency, update, weights| {
        sweep_side(own, adjacency, update, weights, &mut scratch)
    })
}

/// The training loop around a caller-supplied half-sweep, which must apply
/// `update` to every row of `own` (row `e` has positives
/// `adjacency.row(e)`, weighted by `weights(e)`) and return the summed
/// [`SearchStats`]. Rows of one side are independent, so any schedule —
/// [`fit`]'s sequential one, the parallel trainer's — gives the same model.
///
/// # Panics
/// Panics if `cfg` fails [`OcularConfig::validate`].
pub fn fit_with(
    data: &Dataset,
    cfg: &OcularConfig,
    half_sweep: &mut dyn for<'w> FnMut(
        &mut Matrix,
        &CsrMatrix,
        &RowUpdate<'_>,
        &WeightsFor<'w>,
    ) -> SearchStats,
) -> TrainResult {
    if let Err(msg) = cfg.validate() {
        panic!("invalid OcularConfig: {msg}");
    }
    let r: &CsrMatrix = data.matrix();
    let (user_frozen, _, item_frozen, _) = bias_layout(cfg);
    let (mut user_factors, mut item_factors) = initial_factors(r, cfg);

    let rt = data.item_view();
    let weights = user_weights(r, cfg.weighting);
    // the fixed side's column sums: one buffer for the whole run
    let mut other_sum: Vec<f64> = Vec::with_capacity(cfg.k_total());
    let (lambda, search, steps) = (cfg.lambda, cfg.into(), cfg.inner_steps);
    let fixed_step = (!cfg.line_search).then_some(cfg.fixed_step);

    let eval =
        |uf: &Matrix, itf: &Matrix| crate::loss::objective_parts(r, uf, itf, cfg.lambda, &weights);
    let mut q = eval(&user_factors, &item_factors);
    let mut history = TrainingHistory {
        objective: vec![q],
        sweep_seconds: Vec::new(),
        search: Vec::new(),
        converged: false,
    };

    for _ in 0..cfg.max_iters {
        let t0 = Instant::now();
        // item half-sweep: positives of item i are the users rt.row(i);
        // each positive's weight is that user's w_u
        user_factors.column_sums_into(&mut other_sum);
        let mut stats = half_sweep(
            &mut item_factors,
            rt,
            &RowUpdate {
                other: &user_factors,
                other_sum: &other_sum,
                fixed_dim: item_frozen,
                lambda,
                search,
                steps,
                fixed_step,
            },
            &|_| PosWeights::PerEntity(&weights),
        );
        // user half-sweep: positives of user u are r.row(u), all weighted w_u
        item_factors.column_sums_into(&mut other_sum);
        stats += half_sweep(
            &mut user_factors,
            r,
            &RowUpdate {
                other: &item_factors,
                other_sum: &other_sum,
                fixed_dim: user_frozen,
                lambda,
                search,
                steps,
                fixed_step,
            },
            &|u| PosWeights::Uniform(weights[u]),
        );
        history.sweep_seconds.push(t0.elapsed().as_secs_f64());
        history.search.push(stats);

        let q_new = eval(&user_factors, &item_factors);
        history.objective.push(q_new);
        let decrease = q - q_new;
        q = q_new;
        if cfg.line_search && decrease <= cfg.tol * q.abs().max(1.0) {
            history.converged = true;
            break;
        }
    }

    TrainResult {
        model: FactorModel::new(user_factors, item_factors, cfg.bias),
        history,
    }
}

/// Fallible [`fit`]: returns
/// [`OcularError::InvalidConfig`](ocular_api::OcularError) instead of
/// panicking when `cfg` fails [`OcularConfig::validate`].
pub fn try_fit(data: &Dataset, cfg: &OcularConfig) -> Result<TrainResult, ocular_api::OcularError> {
    cfg.validate()
        .map_err(ocular_api::OcularError::InvalidConfig)?;
    Ok(fit(data, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Weighting;

    fn two_blocks() -> Dataset {
        Dataset::from_matrix(two_blocks_matrix())
    }

    fn two_blocks_matrix() -> CsrMatrix {
        CsrMatrix::from_pairs(
            6,
            6,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 3),
                (3, 4),
                (3, 5),
                (4, 3),
                (4, 4),
                (4, 5),
                (5, 3),
                (5, 4),
                (5, 5),
            ],
        )
        .unwrap()
    }

    fn quick_cfg() -> OcularConfig {
        OcularConfig {
            k: 2,
            lambda: 0.05,
            max_iters: 60,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn objective_is_monotone_nonincreasing() {
        let r = two_blocks();
        let result = fit(&r, &quick_cfg());
        let obj = &result.history.objective;
        assert!(obj.len() >= 2);
        for w in obj.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective must not increase: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn factors_stay_nonnegative() {
        let r = two_blocks();
        let result = fit(&r, &quick_cfg());
        assert!(result
            .model
            .user_factors
            .as_slice()
            .iter()
            .all(|&v| v >= 0.0));
        assert!(result
            .model
            .item_factors
            .as_slice()
            .iter()
            .all(|&v| v >= 0.0));
    }

    #[test]
    fn block_structure_recovered() {
        let r = two_blocks();
        let result = fit(&r, &quick_cfg());
        let m = &result.model;
        // within-block probabilities must dominate cross-block ones
        let within = m.prob(0, 1).min(m.prob(4, 5));
        let cross = m.prob(0, 4).max(m.prob(4, 0));
        assert!(
            within > 3.0 * cross + 0.05,
            "within {within} should dominate cross {cross}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r = two_blocks();
        let a = fit(&r, &quick_cfg());
        let b = fit(&r, &quick_cfg());
        assert_eq!(a.model, b.model);
        let c = fit(
            &r,
            &OcularConfig {
                seed: 99,
                ..quick_cfg()
            },
        );
        assert_ne!(a.model, c.model);
    }

    #[test]
    fn converges_on_small_problem() {
        let r = two_blocks();
        let result = fit(
            &r,
            &OcularConfig {
                max_iters: 200,
                ..quick_cfg()
            },
        );
        assert!(
            result.history.converged,
            "should converge within 200 sweeps"
        );
        assert!(result.history.iterations() < 200);
    }

    #[test]
    fn relative_weighting_trains() {
        let r = two_blocks();
        let cfg = OcularConfig {
            weighting: Weighting::Relative,
            ..quick_cfg()
        };
        let result = fit(&r, &cfg);
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        let m = &result.model;
        assert!(m.prob(0, 1) > m.prob(0, 4));
    }

    #[test]
    fn bias_variant_trains_and_freezes_columns() {
        let r = two_blocks();
        let cfg = OcularConfig {
            bias: true,
            ..quick_cfg()
        };
        let result = fit(&r, &cfg);
        let m = &result.model;
        assert!(m.has_bias());
        assert_eq!(m.n_clusters(), 2);
        // frozen columns: users' k+1, items' k must be exactly 1
        for u in 0..6 {
            assert_eq!(m.user_factors.row(u)[3], 1.0);
        }
        for i in 0..6 {
            assert_eq!(m.item_factors.row(i)[2], 1.0);
        }
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn multiple_inner_steps_reach_lower_objective_per_sweep() {
        let r = two_blocks();
        let one = fit(
            &r,
            &OcularConfig {
                inner_steps: 1,
                max_iters: 3,
                ..quick_cfg()
            },
        );
        let five = fit(
            &r,
            &OcularConfig {
                inner_steps: 5,
                max_iters: 3,
                ..quick_cfg()
            },
        );
        assert!(
            five.history.final_objective() <= one.history.final_objective() + 1e-9,
            "more inner steps should fit at least as well per sweep"
        );
    }

    #[test]
    fn empty_matrix_trains_to_zero_factors() {
        let r = Dataset::from_matrix(CsrMatrix::empty(4, 3));
        let result = fit(
            &r,
            &OcularConfig {
                max_iters: 50,
                tol: 1e-9,
                ..quick_cfg()
            },
        );
        // with no positives the optimum is all-zero factors: items collapse
        // immediately (their negative sum dominates); users decay
        // geometrically under the regulariser until tolerance
        let item_max = result
            .model
            .item_factors
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v));
        assert_eq!(item_max, 0.0, "item factors must collapse exactly");
        let user_max = result
            .model
            .user_factors
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v));
        assert!(
            user_max < 0.05,
            "user factors should decay towards 0, max {user_max}"
        );
    }

    #[test]
    fn history_timings_recorded() {
        let r = two_blocks();
        let result = fit(&r, &quick_cfg());
        assert_eq!(
            result.history.sweep_seconds.len(),
            result.history.iterations()
        );
        assert!(result.history.mean_sweep_seconds() >= 0.0);
        assert_eq!(
            result.history.objective.len(),
            result.history.iterations() + 1
        );
    }

    #[test]
    #[should_panic(expected = "invalid OcularConfig")]
    fn invalid_config_panics() {
        fit(
            &two_blocks(),
            &OcularConfig {
                k: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn fixed_step_mode_trains() {
        let r = two_blocks();
        let cfg = OcularConfig {
            line_search: false,
            fixed_step: 0.02,
            max_iters: 80,
            ..quick_cfg()
        };
        let result = fit(&r, &cfg);
        let m = &result.model;
        assert!(
            m.prob(0, 1) > m.prob(0, 4),
            "fixed-step training should still fit"
        );
    }
}
