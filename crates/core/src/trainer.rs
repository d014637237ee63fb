//! Block coordinate descent training loop (Sections IV-B and IV-D).
//!
//! One *sweep* updates every item factor (users fixed) and then every user
//! factor (items fixed), each with `inner_steps` projected-gradient steps
//! (default 1, per the paper). Before each half-sweep, the fixed side's
//! column sums are computed once so every subproblem gets its negative sum
//! in `O(deg · K)` — the Yang–Leskovec sum-trick that gives the algorithm
//! its `O(nnz · K)` per-sweep complexity.
//!
//! Each factor row's subproblem reads only the *fixed* side, so a
//! half-sweep updates its rows in [`par::row_blocks`] at once (Section VI).
//! The user half's row objectives add up to `Q`, so a sweep's objective
//! costs no pass over the positives. The model, the objective trace and the
//! step-search counts are bitwise the same at any thread count.

use crate::config::OcularConfig;
use crate::gradient::PosWeights;
use crate::linesearch::{RowScratch, RowUpdate, SearchStats};
use crate::loss::{objective_parts, user_sum, user_weights};
use crate::model::FactorModel;
use ocular_linalg::{par, Matrix};
use ocular_sparse::{CsrMatrix, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Telemetry recorded by the trainer.
#[derive(Debug, Clone)]
pub struct TrainingHistory {
    /// Objective `Q` before training (`objective[0]`) and after each sweep.
    pub objective: Vec<f64>,
    /// Wall-clock seconds of each sweep (the paper's "running time per
    /// iteration", Figure 7), without adding up its objective.
    pub sweep_seconds: Vec<f64>,
    /// What the step search did in each sweep (both half-sweeps summed):
    /// exact counts, equal at every thread count.
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

/// What [`fit_with`] calls for each half-sweep: [`sweep_side`]'s signature.
pub type HalfSweep<'s> = dyn for<'w> FnMut(
        &mut Matrix,
        &CsrMatrix,
        &RowUpdate<'_>,
        &WeightsFor<'w>,
        &mut [f64],
    ) -> SearchStats
    + 's;

/// [`fit`]'s half-sweep: updates one side (all items, or all users) in
/// place, in [`par::row_blocks`] with one scratch per block, and writes each
/// row's local objective after its update into `values[row]`; returns what
/// the step search did (integer sums, so independent of the schedule).
pub fn sweep_side(
    own: &mut Matrix,
    adjacency: &CsrMatrix, // rows = own entities, cols = other entities
    update: &RowUpdate<'_>,
    weights_for_positives: &WeightsFor<'_>,
    values: &mut [f64],
) -> SearchStats {
    let k = own.cols();
    // equal row counts cut into equal blocks: each value meets its row
    let value_blocks = par::row_blocks(&mut values[..own.rows()], 1);
    let parts = par::row_blocks(own.as_mut_slice(), k)
        .into_iter()
        .zip(value_blocks);
    let per_block = par::fan_out(parts.collect(), |((first, rows), (_, values))| {
        let mut scratch = RowScratch::default();
        let mut stats = SearchStats::default();
        for ((row, q), e) in rows.chunks_mut(k).zip(values).zip(first..) {
            let (positives, weights) = (adjacency.row(e), weights_for_positives(e));
            *q = update.run(row, positives, weights, &mut scratch, &mut stats);
        }
        stats
    });
    let mut stats = SearchStats::default();
    per_block.into_iter().for_each(|block| stats += block);
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

/// Seeded factor initialisation: one RNG stream, drawn on the calling
/// thread, so every thread count starts from bitwise-identical factors.
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
/// its buffers are allocated once per fit (each block's row scratch once
/// per half-sweep). Half-sweeps and the initial objective run on
/// [`par::threads`] threads (size them with [`par::with_threads`]); the
/// result, each sweep's objective included, is the same at every count.
///
/// # Panics
/// Panics if `cfg` fails [`OcularConfig::validate`]. Use [`try_fit`] for a
/// fallible variant.
pub fn fit(data: &Dataset, cfg: &OcularConfig) -> TrainResult {
    fit_with(data, cfg, &mut sweep_side)
}

/// The training loop around a caller-supplied half-sweep, which must apply
/// `update` to every row of `own` (row `e` has positives
/// `adjacency.row(e)`, weighted by `weights(e)`), write what
/// [`RowUpdate::run`] returns for row `e` into `values[e]` and return the
/// summed [`SearchStats`]: [`sweep_side`], or a caller's wrapper around it
/// (the `probe` bench times each half this way). Rows of one side are
/// independent, so any schedule gives the same model.
///
/// # Panics
/// Panics if `cfg` fails [`OcularConfig::validate`].
pub fn fit_with(data: &Dataset, cfg: &OcularConfig, half_sweep: &mut HalfSweep<'_>) -> TrainResult {
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

    // each row's local objective after its update: one buffer for the
    // whole run, long enough for either side
    let mut values = vec![0.0; r.n_rows().max(r.n_cols())];
    let mut q = objective_parts(r, &user_factors, &item_factors, lambda, &weights);
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
            &mut values,
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
            &mut values,
        );
        history.sweep_seconds.push(t0.elapsed().as_secs_f64());
        history.search.push(stats);

        let q_new = user_sum(&values[..r.n_rows()], &item_factors, lambda);
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
    fn try_fit_rejects_a_search_with_no_trials() {
        // with no trial the fit would return its initial factors as
        // "converged" after one sweep of zero decrease
        let cfg = OcularConfig {
            max_backtracks: 0,
            ..quick_cfg()
        };
        match try_fit(&two_blocks(), &cfg) {
            Err(ocular_api::OcularError::InvalidConfig(msg)) => {
                assert!(msg.contains("max_backtracks"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
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

    /// Four dense `n × n` blocks on the diagonal, then one user and one
    /// item with no positives.
    fn diagonal_blocks(n: usize) -> Dataset {
        let mut pairs = Vec::new();
        for b in 0..4 {
            for u in 0..n {
                for i in 0..n {
                    pairs.push((b * n + u, b * n + i));
                }
            }
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(4 * n + 1, 4 * n + 1, &pairs).unwrap())
    }

    fn par_cfg() -> OcularConfig {
        OcularConfig {
            k: 4,
            lambda: 0.1,
            max_iters: 15,
            seed: 11,
            ..Default::default()
        }
    }

    /// `fit` at one thread against 2, 3 and 7: the same model, the same
    /// objective trace bit for bit and the same step-search counts per
    /// sweep. Returns the one-thread fit.
    fn same_at_every_thread_count(data: &Dataset, cfg: &OcularConfig) -> TrainResult {
        let bits = |r: &TrainResult| -> Vec<u64> {
            r.history.objective.iter().map(|q| q.to_bits()).collect()
        };
        let one = par::with_threads(Some(1), || fit(data, cfg));
        for t in [2, 3, 7] {
            let many = par::with_threads(Some(t), || fit(data, cfg));
            assert_eq!(one.model, many.model, "{t} threads: model");
            assert_eq!(bits(&one), bits(&many), "{t} threads: objective");
            assert_eq!(one.history.search, many.history.search, "{t} threads");
        }
        one
    }

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let one = same_at_every_thread_count(&diagonal_blocks(5), &par_cfg());
        // the user and the item with no positives are updated too
        assert_eq!(one.model.item_factors.row(20), &[0.0; 4]);
    }

    #[test]
    fn parallel_identical_across_thread_counts() {
        // fewer users (3) and items (2) than threads (7)
        let r = CsrMatrix::from_pairs(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        same_at_every_thread_count(&Dataset::from_matrix(r), &par_cfg());
    }

    #[test]
    fn parallel_monotone_objective() {
        let result = par::with_threads(Some(7), || fit(&diagonal_blocks(5), &par_cfg()));
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn relative_weighting_supported() {
        let c = OcularConfig {
            weighting: Weighting::Relative,
            ..par_cfg()
        };
        same_at_every_thread_count(&diagonal_blocks(3), &c);
    }

    #[test]
    fn bias_extension_supported() {
        let c = OcularConfig {
            bias: true,
            ..par_cfg()
        };
        same_at_every_thread_count(&diagonal_blocks(3), &c);
    }

    /// Users of degree 1–7 over `n_items`, every seventh user with none.
    fn random_data(n_users: usize, n_items: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        for u in (0..n_users).filter(|u| u % 7 != 3) {
            for _ in 0..rng.gen_range(1..8) {
                pairs.push((u, rng.gen_range(0..n_items)));
            }
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(n_users, n_items, &pairs).unwrap())
    }

    /// Fits on `threads` threads and checks both ends of the objective
    /// trace bit for bit: the first is `objective_parts` on the initial
    /// factors, the last `objective` on the fitted model. Returns the fit.
    ///
    /// After a line-search sweep on data with positives, every row with none
    /// must be exactly 0 (a frozen bias column stays 1): its `Q` is
    /// `⟨f, Σ f_other⟩ + λ‖f‖²`, least at 0, and the search's first trial,
    /// the whole gradient step, lands there once `Σ f_other ≥ (1 − 2λ)·f`
    /// per column. With no positives anywhere `Σ f_other` is 0 and each step
    /// only scales the row by `1 − 2λα`; a fixed step `α = 0.01` stops short
    /// of 0 in the first sweep.
    fn check_trace(data: &Dataset, cfg: &OcularConfig, threads: usize) -> TrainResult {
        let result = par::with_threads(Some(threads), || fit(data, cfg));
        let (r, model, history) = (data.matrix(), &result.model, &result.history);
        let what = format!("{cfg:?} on {threads} threads");
        let factors = model.user_factors.as_slice().iter();
        assert!(
            factors
                .chain(model.item_factors.as_slice())
                .all(|v| v.is_finite()),
            "{what}: non-finite factors"
        );
        if cfg.line_search && r.nnz() > 0 && history.iterations() > 0 {
            let k = model.n_clusters();
            let sides = [
                ("user", data.user_degrees(), &model.user_factors, k + 1),
                ("item", data.item_degrees(), &model.item_factors, k),
            ];
            for (side, degrees, factors, frozen) in sides {
                for row in (0..degrees.len()).filter(|&row| degrees[row] == 0) {
                    for (c, &v) in factors.row(row).iter().enumerate() {
                        if !(model.has_bias() && c == frozen) {
                            assert_eq!(v, 0.0, "{what}: zero-degree {side} {row}, column {c}");
                        }
                    }
                }
            }
        }
        let w = user_weights(r, cfg.weighting);
        let (uf, itf) = initial_factors(r, cfg);
        let initial = objective_parts(r, &uf, &itf, cfg.lambda, &w);
        assert_eq!(history.objective[0].to_bits(), initial.to_bits(), "{what}");
        let last = crate::loss::objective(r, model, cfg.lambda, &w);
        assert_eq!(
            history.final_objective().to_bits(),
            last.to_bits(),
            "{what}: trace ends at {}, the model's objective is {last}",
            history.final_objective()
        );
        result
    }

    #[test]
    fn the_last_trace_value_is_the_models_objective_bit_for_bit() {
        let base = OcularConfig {
            k: 3,
            lambda: 0.5,
            tol: 0.0,
            seed: 4,
            ..Default::default()
        };
        let configs = [
            base.clone(),
            OcularConfig {
                weighting: Weighting::Relative,
                ..base.clone()
            },
            OcularConfig {
                bias: true,
                ..base.clone()
            },
            OcularConfig {
                inner_steps: 3,
                ..base.clone()
            },
            OcularConfig {
                line_search: false,
                fixed_step: 0.01,
                ..base.clone()
            },
        ];
        // random_data has zero-degree users, diagonal_blocks a zero-degree
        // user and item
        for data in [random_data(50, 30, 11), diagonal_blocks(3)] {
            for cfg in &configs {
                for max_iters in [0, 1, 2, 4] {
                    let cfg = OcularConfig {
                        max_iters,
                        ..cfg.clone()
                    };
                    let one = check_trace(&data, &cfg, 1);
                    assert_eq!(one.history.iterations(), max_iters);
                    for threads in [2, 3, 7] {
                        let many = check_trace(&data, &cfg, threads);
                        assert_eq!(many.history.objective, one.history.objective);
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_fit_finitely_with_a_consistent_trace() {
        let cfg = OcularConfig {
            max_iters: 3,
            ..quick_cfg()
        };
        let cases = [
            (
                "no positives",
                Dataset::from_matrix(CsrMatrix::empty(4, 3)),
                cfg.clone(),
            ),
            (
                "0 users",
                Dataset::from_matrix(CsrMatrix::empty(0, 5)),
                cfg.clone(),
            ),
            (
                "0 items",
                Dataset::from_matrix(CsrMatrix::empty(5, 0)),
                cfg.clone(),
            ),
            (
                "zero-degree row under Relative",
                random_data(10, 6, 2),
                OcularConfig {
                    weighting: Weighting::Relative,
                    ..cfg.clone()
                },
            ),
            (
                "K > min(users, items)",
                random_data(5, 3, 8),
                OcularConfig {
                    k: 6,
                    ..cfg.clone()
                },
            ),
            (
                "λ = 0",
                two_blocks(),
                OcularConfig {
                    lambda: 0.0,
                    ..cfg.clone()
                },
            ),
        ];
        for (name, data, cfg) in cases {
            for threads in [1, 3] {
                let result = check_trace(&data, &cfg, threads);
                assert!(
                    result.history.objective.iter().all(|q| q.is_finite()),
                    "{name}: {:?}",
                    result.history.objective
                );
            }
        }
    }
}
