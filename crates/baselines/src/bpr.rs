//! BPR — Bayesian personalized ranking matrix factorization
//! (Rendle et al., *BPR: Bayesian personalized ranking from implicit
//! feedback*, UAI 2009).
//!
//! BPR treats the one-class data as *relative* preferences: for each triplet
//! `(u, i, j)` with `r_ui = 1, r_uj = 0` the model should rank `i` above
//! `j`. The criterion is
//!
//! ```text
//! max Σ ln σ(x̂_uij) − λ‖Θ‖²,   x̂_uij = ⟨f_u, f_i⟩ − ⟨f_u, f_j⟩
//! ```
//!
//! optimised by SGD with bootstrap-sampled triplets (the LearnBPR algorithm
//! of the original paper). This is the second state-of-the-art,
//! non-interpretable baseline of Table I; the OCuLaR paper used the
//! `theano-bpr` implementation, which this module replaces from scratch.

use crate::bad;
use ocular_api::{OcularError, Recommender, ScoreItems, SnapshotModel};
use ocular_linalg::{ops, Matrix};
use ocular_sparse::{CsrMatrix, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// BPR hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BprConfig {
    /// Latent dimensionality.
    pub k: usize,
    /// Regularization for user and item factors.
    pub lambda: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Epochs; each epoch draws `nnz` bootstrap triplets.
    pub epochs: usize,
    /// Initialisation scale.
    pub init_scale: f64,
    /// RNG seed (initialisation and sampling).
    pub seed: u64,
}

impl Default for BprConfig {
    fn default() -> Self {
        BprConfig {
            k: 16,
            lambda: 0.01,
            learning_rate: 0.05,
            epochs: 30,
            init_scale: 0.1,
            seed: 0,
        }
    }
}

/// A fitted BPR model.
#[derive(Debug, Clone, PartialEq)]
pub struct Bpr {
    /// `n_users × k` latent factors.
    pub user_factors: Matrix,
    /// `n_items × k` latent factors.
    pub item_factors: Matrix,
    /// The hyper-parameters the model was fitted with.
    pub config: BprConfig,
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Bpr {
    /// Model name in reports and error messages.
    pub const NAME: &'static str = "BPR";
    /// Snapshot kind tag.
    pub const KIND: &'static str = "bpr";

    /// Fits by LearnBPR (bootstrap SGD).
    ///
    /// Users with no positives, or with a full row (no unknowns to sample),
    /// are never drawn.
    ///
    /// # Panics
    /// Panics if `k == 0`, the learning rate is not finite and positive, or
    /// `lambda` is not finite and non-negative. Use
    /// [`Bpr::try_fit`] for a fallible variant.
    pub fn fit(data: &Dataset, cfg: &BprConfig) -> Self {
        Self::try_fit(data, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Bpr::fit`]: returns [`OcularError::InvalidConfig`] on a
    /// bad configuration instead of panicking.
    pub fn try_fit(data: &Dataset, cfg: &BprConfig) -> Result<Self, OcularError> {
        if cfg.k == 0 {
            return Err(OcularError::InvalidConfig("k must be positive".into()));
        }
        if !(cfg.learning_rate > 0.0 && cfg.learning_rate.is_finite()) {
            return Err(OcularError::InvalidConfig(
                "learning rate must be finite and positive".into(),
            ));
        }
        if !(cfg.lambda >= 0.0 && cfg.lambda.is_finite()) {
            return Err(OcularError::InvalidConfig(
                "lambda must be finite and non-negative".into(),
            ));
        }
        let r: &CsrMatrix = data.matrix();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut uf = Matrix::zeros(r.n_rows(), cfg.k);
        let mut itf = Matrix::zeros(r.n_cols(), cfg.k);
        for v in uf.as_mut_slice().iter_mut().chain(itf.as_mut_slice()) {
            *v = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.init_scale;
        }
        // users eligible for sampling: ≥1 positive and ≥1 unknown
        let eligible: Vec<u32> = (0..r.n_rows())
            .filter(|&u| r.row_nnz(u) > 0 && r.row_nnz(u) < r.n_cols())
            .map(ocular_sparse::col_index)
            .collect();
        if eligible.is_empty() {
            return Ok(Bpr {
                user_factors: uf,
                item_factors: itf,
                config: *cfg,
            });
        }
        let samples = cfg.epochs * r.nnz().max(1);
        let lr = cfg.learning_rate;
        let reg = cfg.lambda;
        for _ in 0..samples {
            let u = eligible[rng.gen_range(0..eligible.len())] as usize;
            let row = r.row(u);
            let i = row[rng.gen_range(0..row.len())] as usize;
            // rejection-sample an unknown item (row is sparse, terminates
            // fast); widen stored u32s so huge catalogs can't wrap the test
            let j = loop {
                let cand = rng.gen_range(0..r.n_cols());
                if row.binary_search_by(|&e| (e as usize).cmp(&cand)).is_err() {
                    break cand;
                }
            };
            let x = ops::dot(uf.row(u), itf.row(i)) - ops::dot(uf.row(u), itf.row(j));
            let g = 1.0 - sigmoid(x); // = σ(−x), the gradient magnitude
                                      // simultaneous updates on disjoint rows
            let (fi, fj) = itf.rows_mut_pair(i, j);
            let fu = uf.row_mut(u);
            for c in 0..cfg.k {
                let (wu, wi, wj) = (fu[c], fi[c], fj[c]);
                fu[c] += lr * (g * (wi - wj) - reg * wu);
                fi[c] += lr * (g * wu - reg * wi);
                fj[c] += lr * (-g * wu - reg * wj);
            }
        }
        Ok(Bpr {
            user_factors: uf,
            item_factors: itf,
            config: *cfg,
        })
    }

    /// Ranking score `⟨f_u, f_i⟩` (only relative order is meaningful).
    pub fn predict(&self, u: usize, i: usize) -> f64 {
        ops::dot(self.user_factors.row(u), self.item_factors.row(i))
    }

    /// Empirical AUC on a set of held-out positives: the probability that a
    /// held-out positive outranks a random unknown. Diagnostic used in
    /// tests and the harness.
    pub fn auc(&self, train: &CsrMatrix, test: &CsrMatrix, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wins = 0usize;
        let mut total = 0usize;
        for u in 0..test.n_rows() {
            for &i in test.row(u) {
                for _ in 0..4 {
                    let j = rng.gen_range(0..train.n_cols());
                    if train.contains(u, j) || test.contains(u, j) {
                        continue;
                    }
                    total += 1;
                    if self.predict(u, i as usize) > self.predict(u, j) {
                        wins += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.5
        } else {
            wins as f64 / total as f64
        }
    }
}

impl ScoreItems for Bpr {
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

// BPR has no closed-form fold-in (its criterion is defined over sampled
// triplets), so `as_fold_in` stays `None`: cold-start requests against a
// BPR snapshot are a typed `Unsupported` error, not a panic.
impl Recommender for Bpr {}

impl SnapshotModel for Bpr {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        let c = &self.config;
        w.put_u64s(
            "meta",
            &[
                self.user_factors.rows() as u64,
                self.item_factors.rows() as u64,
                c.k as u64,
                c.epochs as u64,
                c.seed,
            ],
        );
        w.put_f64s("cfg", &[c.lambda, c.learning_rate, c.init_scale]);
        w.put_f64s("ufact", self.user_factors.as_slice());
        w.put_f64s("ifact", self.item_factors.as_slice());
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        use ocular_api::SectionReader;
        let [n_users, n_items, k, epochs, seed] = r.u64_meta::<5>("meta")?;
        let [lambda, learning_rate, init_scale] = r.f64_meta::<3>("cfg")?;
        let config = BprConfig {
            k: SectionReader::shape(k, "k")?,
            lambda,
            learning_rate,
            epochs: SectionReader::shape(epochs, "epochs")?,
            init_scale,
            seed,
        };
        if config.k == 0 || config.learning_rate <= 0.0 {
            return Err(bad("bpr-model metadata fails config validation"));
        }
        let n_users = SectionReader::shape(n_users, "n_users")?;
        let n_items = SectionReader::shape(n_items, "n_items")?;
        let user_factors = Matrix::from_shared(n_users, config.k, r.f64s("ufact")?)
            .map_err(OcularError::Corrupt)?;
        let item_factors = Matrix::from_shared(n_items, config.k, r.f64s("ifact")?)
            .map_err(OcularError::Corrupt)?;
        Ok(Bpr {
            user_factors,
            item_factors,
            config,
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

    #[test]
    fn sigmoid_sane() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999999);
        assert!(sigmoid(-30.0) < 1e-6);
        // symmetric: σ(x) + σ(−x) = 1
        for &x in &[0.3, 1.7, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ranks_positives_above_unknowns() {
        let r = two_blocks();
        let m = Bpr::fit(
            &r,
            &BprConfig {
                k: 4,
                epochs: 120,
                seed: 2,
                ..Default::default()
            },
        );
        // block membership: user 0's positives must outrank the other block
        let pos = m.predict(0, 1);
        let neg = m.predict(0, 4);
        assert!(pos > neg, "positive {pos} must outrank unknown {neg}");
    }

    #[test]
    fn cross_block_holdout_auc_high() {
        // hold out one cell per block; BPR should rank it above cross-block
        // items
        let r = two_blocks();
        let m = Bpr::fit(
            &r,
            &BprConfig {
                k: 4,
                epochs: 150,
                seed: 3,
                ..Default::default()
            },
        );
        // within-block unknown... all block cells are positive, so test the
        // relative order directly across many pairs
        let mut correct = 0;
        let mut total = 0;
        for u in 0..3 {
            for i in 0..3 {
                for j in 3..6 {
                    total += 1;
                    if m.predict(u, i) > m.predict(u, j) {
                        correct += 1;
                    }
                }
            }
        }
        let auc = correct as f64 / total as f64;
        assert!(auc > 0.9, "block AUC {auc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let r = two_blocks();
        let cfg = BprConfig {
            epochs: 10,
            seed: 5,
            ..Default::default()
        };
        let a = Bpr::fit(&r, &cfg);
        let b = Bpr::fit(&r, &cfg);
        assert_eq!(a.user_factors, b.user_factors);
        let c = Bpr::fit(&r, &BprConfig { seed: 6, ..cfg });
        assert_ne!(a.user_factors, c.user_factors);
    }

    #[test]
    fn degenerate_matrices_do_not_hang() {
        // empty matrix: no eligible users, returns init factors
        let empty = Dataset::from_matrix(CsrMatrix::empty(3, 3));
        let m = Bpr::fit(
            &empty,
            &BprConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        assert_eq!(m.n_users(), 3);
        // full matrix: no unknowns to sample → also no eligible users
        let mut pairs = Vec::new();
        for u in 0..3 {
            for i in 0..3 {
                pairs.push((u, i));
            }
        }
        let full = Dataset::from_matrix(CsrMatrix::from_pairs(3, 3, &pairs).unwrap());
        let m = Bpr::fit(
            &full,
            &BprConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        assert_eq!(m.n_items(), 3);
    }

    #[test]
    fn snapshot_roundtrip_bitwise() {
        let r = two_blocks();
        let m = Bpr::fit(
            &r,
            &BprConfig {
                k: 3,
                epochs: 10,
                seed: 4,
                ..Default::default()
            },
        );
        assert_eq!(crate::section_cycle(&m).unwrap(), m);
        assert!(crate::read_back::<Bpr>(Bpr::KIND, |_| {}).is_err());
        // metadata promising terabytes of factors is typed, not allocated
        let bomb = crate::read_back::<Bpr>(Bpr::KIND, |w| {
            w.put_u64s("meta", &[1_000_000_000_000, 1, 4, 1, 0]);
            w.put_f64s("cfg", &[1e-2, 5e-2, 1e-1]);
            w.put_f64s("ufact", &[]);
            w.put_f64s("ifact", &[1.0; 4]);
        });
        assert!(matches!(bomb, Err(OcularError::Corrupt(_))));
    }

    #[test]
    fn try_fit_reports_bad_configs() {
        let r = two_blocks();
        assert!(matches!(
            Bpr::try_fit(
                &r,
                &BprConfig {
                    k: 0,
                    ..Default::default()
                }
            ),
            Err(OcularError::InvalidConfig(_))
        ));
        for learning_rate in [0.0, f64::NAN, f64::INFINITY] {
            let cfg = BprConfig {
                learning_rate,
                ..Default::default()
            };
            assert!(matches!(
                Bpr::try_fit(&r, &cfg),
                Err(OcularError::InvalidConfig(_))
            ));
        }
        for lambda in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = BprConfig {
                lambda,
                ..Default::default()
            };
            assert!(matches!(
                Bpr::try_fit(&r, &cfg),
                Err(OcularError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn auc_of_oracle_model_near_one() {
        let r = two_blocks();
        let m = Bpr::fit(
            &r,
            &BprConfig {
                k: 4,
                epochs: 120,
                seed: 7,
                ..Default::default()
            },
        );
        // use the training positives as "test": a fitted model should rank
        // them above random unknowns
        let auc = m.auc(&CsrMatrix::empty(6, 6), &r, 11);
        assert!(auc > 0.8, "auc {auc}");
    }
}
