//! wALS — weighted alternating least squares for one-class CF
//! (Pan et al., *One-class collaborative filtering*, ICDM 2008).
//!
//! Minimises
//!
//! ```text
//! Σ_{u,i} w_ui (r_ui − ⟨f_u, f_i⟩)² + λ (Σ_u ‖f_u‖² + Σ_i ‖f_i‖²)
//! ```
//!
//! with `w_ui = 1` for positives and `w_ui = b < 1` for unknowns (Eq. 8 of
//! the OCuLaR paper; it uses `b = 0.01, λ = 0.01`). Each alternating update
//! solves a `K×K` system per entity; the **Gram trick** keeps that cheap:
//!
//! ```text
//! Σ_i w_ui f_i f_iᵀ = b · FᵀF + (1−b) · Σ_{i: r_ui=1} f_i f_iᵀ
//! ```
//!
//! so a sweep costs `O((n_u + n_i) K³ + nnz·K²)` with `FᵀF` computed once
//! per half-sweep. Unlike OCuLaR the factors are unconstrained (may go
//! negative), which is exactly why the paper calls the latent space hard to
//! interpret.
//!
//! The same per-entity solve doubles as request-time **cold start**
//! ([`ocular_api::FoldIn`]): a new user's factor vector is one ridge solve
//! against the frozen item factors — `O(K³ + basket·K²)` per request.

use ocular_api::textio::{bad, read_line, read_matrix};
use ocular_api::{validate_basket, FoldIn, OcularError, Recommender, ScoreItems, SnapshotModel};
use ocular_linalg::{ops, Cholesky, Matrix};
use ocular_sparse::{CsrMatrix, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// wALS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalsConfig {
    /// Latent dimensionality (the paper grid-searches this).
    pub k: usize,
    /// Weight of unknown examples, `0 < b < 1` (paper: 0.01).
    pub b: f64,
    /// Ridge regularization λ (paper: 0.01).
    pub lambda: f64,
    /// Number of alternating sweeps.
    pub iters: usize,
    /// Initialisation scale and seed.
    pub init_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WalsConfig {
    fn default() -> Self {
        WalsConfig {
            k: 16,
            b: 0.01,
            lambda: 0.01,
            iters: 15,
            init_scale: 0.1,
            seed: 0,
        }
    }
}

impl WalsConfig {
    /// Validates parameter ranges.
    fn validate(&self) -> Result<(), OcularError> {
        if self.k == 0 {
            return Err(OcularError::InvalidConfig("k must be positive".into()));
        }
        if !(self.b > 0.0 && self.b < 1.0) {
            return Err(OcularError::InvalidConfig("b must lie in (0, 1)".into()));
        }
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            return Err(OcularError::InvalidConfig(
                "lambda must be finite and positive for SPD solves".into(),
            ));
        }
        Ok(())
    }
}

/// A fitted wALS model.
#[derive(Debug, Clone, PartialEq)]
pub struct Wals {
    /// `n_users × k` latent factors.
    pub user_factors: Matrix,
    /// `n_items × k` latent factors.
    pub item_factors: Matrix,
    /// Weighted squared-error objective after each sweep (for convergence
    /// diagnostics and the Figure 8-style comparisons).
    pub objective_trace: Vec<f64>,
    /// The hyper-parameters the model was fitted with (cold-start fold-in
    /// reuses `b` and `lambda`).
    pub config: WalsConfig,
    /// `FᵀF` of the item factors, cached for request-time fold-in.
    item_gram: Matrix,
}

fn init(rows: usize, k: usize, scale: f64, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, k);
    for v in m.as_mut_slice() {
        *v = (rng.gen::<f64>() - 0.5) * 2.0 * scale;
    }
    m
}

/// One weighted ridge solve: the factor vector of an entity whose positive
/// counterparts (rows of `other`) are `positives`, against the precomputed
/// Gram matrix `gram = otherᵀ·other`. This is the per-entity step of
/// [`half_sweep`] and, with a basket as `positives`, the fold-in solve.
fn solve_entity(other: &Matrix, gram: &Matrix, positives: &[u32], b: f64, lambda: f64) -> Vec<f64> {
    let k = other.cols();
    // A = b·G + (1−b)·Σ_pos f fᵀ + λI  (lower triangle suffices)
    let mut a = Matrix::zeros(k, k);
    for r in 0..k {
        for c in 0..=r {
            a[(r, c)] = b * gram[(r, c)];
        }
        a[(r, r)] += lambda;
    }
    let mut rhs = vec![0.0; k];
    for &i in positives {
        let f = other.row(i as usize);
        for r in 0..k {
            let fr = f[r];
            rhs[r] += fr;
            if fr != 0.0 {
                let w = (1.0 - b) * fr;
                for c in 0..=r {
                    a[(r, c)] += w * f[c];
                }
            }
        }
    }
    let chol = Cholesky::factor(&a).expect("A = b·G + ΣffT + λI is SPD for λ > 0");
    chol.solve_in_place(&mut rhs);
    rhs
}

/// One half-sweep: updates every row of `own` against `other`.
/// `adjacency.row(e)` lists the positive counterparts of entity `e`.
fn half_sweep(own: &mut Matrix, other: &Matrix, adjacency: &CsrMatrix, b: f64, lambda: f64) {
    let gram = other.gram();
    for e in 0..own.rows() {
        let solved = solve_entity(other, &gram, adjacency.row(e), b, lambda);
        own.row_mut(e).copy_from_slice(&solved);
    }
}

/// Weighted squared-error objective, evaluated with the same Gram trick:
/// `Σ w (r − p)² = b·Σ_all p² + Σ_pos [(1−p)² − b·p²] + reg`, and
/// `Σ_all p² = Σ_u f_uᵀ G_i f_u`.
fn wals_objective(r: &CsrMatrix, uf: &Matrix, itf: &Matrix, b: f64, lambda: f64) -> f64 {
    let gi = itf.gram();
    let k = uf.cols();
    let mut all_sq = 0.0;
    for u in 0..uf.rows() {
        let fu = uf.row(u);
        // f G fᵀ
        for r in 0..k {
            let fr = fu[r];
            if fr == 0.0 {
                continue;
            }
            for c in 0..k {
                all_sq += fr * gi[(r, c)] * fu[c];
            }
        }
    }
    let mut q = b * all_sq;
    for u in 0..r.n_rows() {
        let fu = uf.row(u);
        for &i in r.row(u) {
            let p = ops::dot(fu, itf.row(i as usize));
            q += (1.0 - p) * (1.0 - p) - b * p * p;
        }
    }
    q + lambda * (uf.frobenius_sq() + itf.frobenius_sq())
}

impl Wals {
    /// Model name in reports and error messages.
    pub const NAME: &'static str = "wALS";
    /// Snapshot kind tag.
    pub const KIND: &'static str = "wals";

    /// Fits by alternating least squares.
    ///
    /// # Panics
    /// Panics if `k == 0`, `b` is outside `(0, 1)`, or `lambda` is not
    /// finite and positive (the normal equations must stay SPD). Use
    /// [`Wals::try_fit`] for a fallible variant.
    pub fn fit(data: &Dataset, cfg: &WalsConfig) -> Self {
        Self::try_fit(data, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Wals::fit`]: returns [`OcularError::InvalidConfig`] on a
    /// bad configuration instead of panicking. The item half-sweep reads
    /// the dataset's build-once CSC dual view instead of re-transposing.
    pub fn try_fit(data: &Dataset, cfg: &WalsConfig) -> Result<Self, OcularError> {
        cfg.validate()?;
        let r: &CsrMatrix = data.matrix();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut user_factors = init(r.n_rows(), cfg.k, cfg.init_scale, &mut rng);
        let mut item_factors = init(r.n_cols(), cfg.k, cfg.init_scale, &mut rng);
        let rt = data.item_view();
        let mut objective_trace = vec![wals_objective(
            r,
            &user_factors,
            &item_factors,
            cfg.b,
            cfg.lambda,
        )];
        for _ in 0..cfg.iters {
            half_sweep(&mut user_factors, &item_factors, r, cfg.b, cfg.lambda);
            half_sweep(&mut item_factors, &user_factors, rt, cfg.b, cfg.lambda);
            objective_trace.push(wals_objective(
                r,
                &user_factors,
                &item_factors,
                cfg.b,
                cfg.lambda,
            ));
        }
        let item_gram = item_factors.gram();
        Ok(Wals {
            user_factors,
            item_factors,
            objective_trace,
            config: *cfg,
            item_gram,
        })
    }

    /// Predicted preference `⟨f_u, f_i⟩`.
    pub fn predict(&self, u: usize, i: usize) -> f64 {
        ops::dot(self.user_factors.row(u), self.item_factors.row(i))
    }

    /// Folds in an unseen user with the given basket: one weighted ridge
    /// solve against the frozen item factors (the exact user-subproblem of
    /// the training sweep, so an existing user's basket reproduces their
    /// training-time update). Out-of-range or duplicate basket items are
    /// [`OcularError::BadBasket`].
    pub fn fold_in(&self, basket: &[u32]) -> Result<Vec<f64>, OcularError> {
        let items: Vec<usize> = basket.iter().map(|&i| i as usize).collect();
        validate_basket(&items, self.item_factors.rows())?;
        Ok(solve_entity(
            &self.item_factors,
            &self.item_gram,
            basket,
            self.config.b,
            self.config.lambda,
        ))
    }
}

impl ScoreItems for Wals {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn n_users(&self) -> usize {
        self.user_factors.rows()
    }

    fn n_items(&self) -> usize {
        self.item_factors.rows()
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.item_factors.rows(), 0.0);
        let fu = self.user_factors.row(u);
        for (i, o) in out.iter_mut().enumerate() {
            *o = ops::dot(fu, self.item_factors.row(i));
        }
    }
}

impl Recommender for Wals {
    fn as_fold_in(&self) -> Option<&dyn FoldIn> {
        Some(self)
    }
}

impl FoldIn for Wals {
    fn score_basket(&self, basket: &[usize], out: &mut Vec<f64>) -> Result<(), OcularError> {
        let positives = validate_basket(basket, self.item_factors.rows())?;
        // already validated — solve directly rather than through fold_in's
        // second validation pass
        let fu = solve_entity(
            &self.item_factors,
            &self.item_gram,
            &positives,
            self.config.b,
            self.config.lambda,
        );
        out.clear();
        out.resize(self.item_factors.rows(), 0.0);
        for (i, o) in out.iter_mut().enumerate() {
            *o = ops::dot(&fu, self.item_factors.row(i));
        }
        Ok(())
    }
}

impl SnapshotModel for Wals {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn load_model(r: &mut dyn std::io::BufRead) -> Result<Self, OcularError> {
        let header = read_line(r)?;
        let f: Vec<&str> = header.split_whitespace().collect();
        if f.len() != 10 || f[0] != "wals-model" || f[1] != "v1" {
            return Err(bad("bad wals-model header"));
        }
        let n_users: usize = f[2].parse().map_err(|_| bad("bad n_users"))?;
        let n_items: usize = f[3].parse().map_err(|_| bad("bad n_items"))?;
        let config = WalsConfig {
            k: f[4].parse().map_err(|_| bad("bad k"))?,
            b: f[5].parse().map_err(|_| bad("bad b"))?,
            lambda: f[6].parse().map_err(|_| bad("bad lambda"))?,
            iters: f[7].parse().map_err(|_| bad("bad iters"))?,
            init_scale: f[8].parse().map_err(|_| bad("bad init_scale"))?,
            seed: f[9].parse().map_err(|_| bad("bad seed"))?,
        };
        config.validate()?;
        let user_factors = read_matrix(r, n_users, config.k)?;
        let item_factors = read_matrix(r, n_items, config.k)?;
        let trace_line = read_line(r)?;
        let mut fields = trace_line.split_whitespace();
        if fields.next() != Some("trace") {
            return Err(bad("missing trace section"));
        }
        let len: usize = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad trace length"))?;
        let objective_trace: Vec<f64> = fields
            .map(|v| v.parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("bad trace value"))?;
        if objective_trace.len() != len {
            return Err(bad("trace length mismatch"));
        }
        let item_gram = item_factors.gram();
        Ok(Wals {
            user_factors,
            item_factors,
            objective_trace,
            config,
            item_gram,
        })
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        let c = &self.config;
        w.put_u64s(
            "meta",
            &[
                self.user_factors.rows() as u64,
                self.item_factors.rows() as u64,
                c.k as u64,
                c.iters as u64,
                c.seed,
            ],
        );
        w.put_f64s("cfg", &[c.b, c.lambda, c.init_scale]);
        w.put_f64s("ufact", self.user_factors.as_slice());
        w.put_f64s("ifact", self.item_factors.as_slice());
        w.put_f64s("trace", &self.objective_trace);
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        use ocular_api::SectionReader;
        let [n_users, n_items, k, iters, seed] = r.u64_meta::<5>("meta")?;
        let [b, lambda, init_scale] = r.f64_meta::<3>("cfg")?;
        let config = WalsConfig {
            k: SectionReader::shape(k, "k")?,
            b,
            lambda,
            iters: SectionReader::shape(iters, "iters")?,
            init_scale,
            seed,
        };
        config.validate()?;
        let n_users = SectionReader::shape(n_users, "n_users")?;
        let n_items = SectionReader::shape(n_items, "n_items")?;
        let user_factors = Matrix::from_shared(n_users, config.k, r.f64s("ufact")?)
            .map_err(OcularError::Corrupt)?;
        let item_factors = Matrix::from_shared(n_items, config.k, r.f64s("ifact")?)
            .map_err(OcularError::Corrupt)?;
        let item_gram = item_factors.gram();
        Ok(Wals {
            user_factors,
            item_factors,
            objective_trace: r.f64s("trace")?.into_vec(),
            config,
            item_gram,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cfg() -> WalsConfig {
        WalsConfig {
            k: 2,
            iters: 20,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn objective_decreases() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        let t = &m.objective_trace;
        assert!(t.len() >= 2);
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-8,
                "ALS objective must not rise: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn block_structure_recovered() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        let within = m.predict(0, 1).min(m.predict(4, 5));
        let cross = m.predict(0, 4).max(m.predict(4, 0));
        assert!(within > cross + 0.3, "within {within} vs cross {cross}");
    }

    #[test]
    fn positives_predicted_near_one() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        for (u, i) in r.iter_nnz() {
            let p = m.predict(u, i);
            assert!(p > 0.6, "positive ({u},{i}) predicted {p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let r = two_blocks();
        let a = Wals::fit(&r, &cfg());
        let b = Wals::fit(&r, &cfg());
        assert_eq!(a.user_factors, b.user_factors);
        let c = Wals::fit(&r, &WalsConfig { seed: 9, ..cfg() });
        assert_ne!(a.user_factors, c.user_factors);
    }

    #[test]
    fn score_user_matches_predict() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        let mut scores = Vec::new();
        m.score_user(2, &mut scores);
        for i in 0..6 {
            assert!((scores[i] - m.predict(2, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn handles_cold_entities() {
        let r = Dataset::from_matrix(CsrMatrix::from_pairs(3, 3, &[(0, 0)]).unwrap());
        let m = Wals::fit(&r, &cfg());
        // cold user factors shrink towards zero (pure ridge against b-weighted
        // unknowns); predictions stay finite and small
        let p = m.predict(2, 2).abs();
        assert!(p < 0.5, "cold prediction should be small, got {p}");
    }

    #[test]
    fn fold_in_lands_near_training_solution() {
        // folding in an existing user's full basket is the same ridge
        // solve as the training half-sweep, but against the *final* item
        // factors (training's user sweep ran before the last item sweep),
        // so the vectors agree closely rather than bitwise
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        let fu = m.fold_in(r.row(0)).unwrap();
        for (a, b) in fu.iter().zip(m.user_factors.row(0)) {
            assert!((a - b).abs() < 0.1, "fold {a} vs trained {b}");
        }
        // and the induced predictions preserve the block structure
        let p_in = ops::dot(&fu, m.item_factors.row(1));
        let p_out = ops::dot(&fu, m.item_factors.row(4));
        assert!(p_in > p_out + 0.3, "in-block {p_in} vs out-block {p_out}");
        // invalid baskets are typed errors, not index panics
        assert!(matches!(m.fold_in(&[99]), Err(OcularError::BadBasket(_))));
    }

    #[test]
    fn score_basket_validates_and_ranks_in_block() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        let mut scores = Vec::new();
        m.score_basket(&[0, 1], &mut scores).unwrap();
        assert!(
            scores[2] > scores[4],
            "basket in block A must rank item 2 up"
        );
        assert!(matches!(
            m.score_basket(&[99], &mut scores),
            Err(OcularError::BadBasket(_))
        ));
    }

    #[test]
    fn snapshot_roundtrip_bitwise() {
        let r = two_blocks();
        let m = Wals::fit(&r, &cfg());
        assert_eq!(crate::section_cycle(&m).unwrap(), m);
        // "junk", and a header promising terabytes of factors: both typed
        for text in [
            "junk",
            "wals-model v1 1000000000000 1 4 1e-2 1e-2 1 1e-1 0\n",
        ] {
            assert!(matches!(
                Wals::load_model(&mut text.as_bytes()),
                Err(OcularError::Corrupt(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "b must lie in (0, 1)")]
    fn rejects_bad_b() {
        Wals::fit(
            &two_blocks(),
            &WalsConfig {
                b: 1.5,
                ..Default::default()
            },
        );
    }

    #[test]
    fn try_fit_reports_bad_configs() {
        let r = two_blocks();
        assert!(matches!(
            Wals::try_fit(&r, &WalsConfig { k: 0, ..cfg() }),
            Err(OcularError::InvalidConfig(_))
        ));
        for lambda in [0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Wals::try_fit(&r, &WalsConfig { lambda, ..cfg() }),
                Err(OcularError::InvalidConfig(_))
            ));
        }
    }
}
