//! The factor model: non-negative co-cluster affiliation vectors.

use ocular_api::OcularError;
use ocular_linalg::{ops, Matrix};

/// Smallest affinity used inside logs/denominators. With non-negative
/// factors the loss `−log(1 − e^{−p})` is singular at `p = 0`; clamping to
/// `P_MIN` (the guard BIGCLAM uses as well) keeps gradients finite without
/// measurably distorting the objective.
pub const P_MIN: f64 = 1e-10;

/// `P[r_ui = 1] = 1 − e^{−p}` computed as `−expm1(−p)` for accuracy at
/// small affinities.
///
/// The serving scans ([`ocular_linalg::topk::MonotoneTopK`]) skip this call
/// below their cut-off, which is exact only because the map never
/// decreases — pinned by `prob_from_affinity_never_decreases` below.
#[inline]
pub fn prob_from_affinity(p: f64) -> f64 {
    -(-p).exp_m1()
}

/// A fitted OCuLaR model.
///
/// Rows of [`FactorModel::user_factors`] / [`FactorModel::item_factors`] are
/// the affiliation vectors `f_u`, `f_i`. When the bias extension is enabled
/// the last two columns are `(b_u, 1)` for users and `(1, b_i)` for items,
/// so that `⟨f'_u, f'_i⟩ = ⟨f_u, f_i⟩ + b_u + b_i`; co-cluster semantics
/// apply only to the first [`FactorModel::n_clusters`] columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorModel {
    /// `n_users × k_total` affiliation matrix.
    pub user_factors: Matrix,
    /// `n_items × k_total` affiliation matrix.
    pub item_factors: Matrix,
    /// Number of co-cluster dimensions (excludes bias columns).
    n_clusters: usize,
    /// Whether the two trailing bias columns are present.
    has_bias: bool,
}

impl FactorModel {
    /// Wraps factor matrices into a model.
    ///
    /// # Panics
    /// Panics if the factor matrices disagree on `k`, or if `bias` is set
    /// but there is no room for the two bias columns. Use
    /// [`FactorModel::try_new`] for a fallible variant.
    pub fn new(user_factors: Matrix, item_factors: Matrix, has_bias: bool) -> Self {
        Self::try_new(user_factors, item_factors, has_bias).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FactorModel::new`]: returns
    /// [`OcularError::InvalidConfig`](ocular_api::OcularError) instead of
    /// panicking when the factor matrices disagree on `k` or the bias
    /// layout has no room for its two columns.
    pub fn try_new(
        user_factors: Matrix,
        item_factors: Matrix,
        has_bias: bool,
    ) -> Result<Self, OcularError> {
        if user_factors.cols() != item_factors.cols() {
            return Err(OcularError::InvalidConfig(format!(
                "user and item factors must share k ({} vs {})",
                user_factors.cols(),
                item_factors.cols()
            )));
        }
        let k_total = user_factors.cols();
        let n_clusters = if has_bias {
            if k_total < 3 {
                return Err(OcularError::InvalidConfig(
                    "bias model needs k ≥ 1 plus two bias columns".into(),
                ));
            }
            k_total - 2
        } else {
            k_total
        };
        Ok(FactorModel {
            user_factors,
            item_factors,
            n_clusters,
            has_bias,
        })
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.user_factors.rows()
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.item_factors.rows()
    }

    /// Total factor dimensionality (co-clusters + bias columns).
    pub fn k_total(&self) -> usize {
        self.user_factors.cols()
    }

    /// Number of co-cluster dimensions `K`.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Whether the bias extension is active.
    pub fn has_bias(&self) -> bool {
        self.has_bias
    }

    /// Affinity `⟨f_u, f_i⟩` (including bias terms when present).
    #[inline]
    pub fn affinity(&self, u: usize, i: usize) -> f64 {
        ops::dot(self.user_factors.row(u), self.item_factors.row(i))
    }

    /// `P[r_ui = 1] = 1 − e^{−⟨f_u, f_i⟩}` (Eq. 1).
    #[inline]
    pub fn prob(&self, u: usize, i: usize) -> f64 {
        prob_from_affinity(self.affinity(u, i))
    }

    /// Per-cluster contribution `[f_u]_c · [f_i]_c` for `c` in the cluster
    /// dimensions — the quantities the explanation engine decomposes.
    pub fn cluster_contributions(&self, u: usize, i: usize) -> Vec<f64> {
        let fu = self.user_factors.row(u);
        let fi = self.item_factors.row(i);
        (0..self.n_clusters).map(|c| fu[c] * fi[c]).collect()
    }

    /// Fills `buf` (resized to `n_items`) with `P[r_ui = 1]` for every item.
    pub fn score_user(&self, u: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.resize(self.n_items(), 0.0);
        let fu = self.user_factors.row(u);
        for i in 0..self.n_items() {
            buf[i] = prob_from_affinity(ops::dot(fu, self.item_factors.row(i)));
        }
    }

    /// User bias `b_u` (0 when the extension is off).
    pub fn user_bias(&self, u: usize) -> f64 {
        if self.has_bias {
            self.user_factors.row(u)[self.n_clusters]
        } else {
            0.0
        }
    }

    /// Item bias `b_i` (0 when the extension is off).
    pub fn item_bias(&self, i: usize) -> f64 {
        if self.has_bias {
            self.item_factors.row(i)[self.n_clusters + 1]
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_api::{SectionReader, SectionWriter, SnapshotModel};
    use ocular_bytes::ModelBytes;

    fn toy() -> FactorModel {
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]);
        let i = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        FactorModel::new(u, i, false)
    }

    #[test]
    fn probability_formula() {
        let m = toy();
        // affinity(0,0) = 2.0
        assert!((m.affinity(0, 0) - 2.0).abs() < 1e-12);
        assert!((m.prob(0, 0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
        // orthogonal pair → probability 0
        assert_eq!(m.prob(0, 1), 0.0);
    }

    #[test]
    fn prob_is_bounded() {
        let m = toy();
        for u in 0..2 {
            for i in 0..3 {
                let p = m.prob(u, i);
                assert!((0.0..1.0).contains(&p) || p == 0.0);
            }
        }
    }

    #[test]
    fn prob_from_affinity_small_values_accurate() {
        // for tiny p, 1 - e^{-p} ≈ p
        let p = 1e-14;
        let v = prob_from_affinity(p);
        assert!((v - p).abs() < 1e-20, "expm1 path must stay accurate");
    }

    #[test]
    fn prob_from_affinity_never_decreases() {
        // the next float above a finite `a`
        fn next_up(a: f64) -> f64 {
            match a {
                _ if a == 0.0 => f64::from_bits(1),
                _ if a > 0.0 => f64::from_bits(a.to_bits() + 1),
                _ => f64::from_bits(a.to_bits() - 1),
            }
        }
        let mut starts = vec![-0.0, 0.0];
        for exp in -300..=3 {
            for mantissa in [1.0, 1.5, 2.2, 3.3, 5.0, 7.7, 9.99] {
                starts.push(mantissa * 10f64.powi(exp));
            }
        }
        // where libm `expm1` implementations switch branches (in `−a`),
        // approached from a few dozen floats below
        let ln2 = std::f64::consts::LN_2;
        for branch in [
            2f64.powi(-54),
            0.5 * ln2,
            1.5 * ln2,
            56.0 * ln2,
            709.782712893384,
        ] {
            starts.push(branch * (1.0 - 1e-14));
        }
        for start in starts {
            for mut a in [start, -start] {
                for _ in 0..128 {
                    let b = next_up(a);
                    let (pa, pb) = (prob_from_affinity(a), prob_from_affinity(b));
                    assert!(pa <= pb, "P({a:e}) = {pa:e} > P({b:e}) = {pb:e}");
                    a = b;
                }
            }
        }
    }

    #[test]
    fn score_user_matches_pointwise() {
        let m = toy();
        let mut buf = Vec::new();
        m.score_user(1, &mut buf);
        assert_eq!(buf.len(), 3);
        for i in 0..3 {
            assert!((buf[i] - m.prob(1, i)).abs() < 1e-15);
        }
    }

    #[test]
    fn cluster_contributions_sum_to_affinity() {
        let m = toy();
        let contr = m.cluster_contributions(1, 2);
        let total: f64 = contr.iter().sum();
        assert!((total - m.affinity(1, 2)).abs() < 1e-12);
    }

    #[test]
    fn bias_columns_accounted() {
        // k=1 cluster + bias: user row [f, b_u, 1], item row [f, 1, b_i]
        let u = Matrix::from_rows(&[&[2.0, 0.3, 1.0]]);
        let i = Matrix::from_rows(&[&[1.0, 1.0, 0.2]]);
        let m = FactorModel::new(u, i, true);
        assert_eq!(m.n_clusters(), 1);
        assert!((m.affinity(0, 0) - (2.0 + 0.3 + 0.2)).abs() < 1e-12);
        assert!((m.user_bias(0) - 0.3).abs() < 1e-12);
        assert!((m.item_bias(0) - 0.2).abs() < 1e-12);
        assert_eq!(m.cluster_contributions(0, 0), vec![2.0]);
    }

    /// Reads a FactorModel out of the v3 container `body` writes.
    fn read(body: impl FnOnce(&mut SectionWriter)) -> Result<FactorModel, OcularError> {
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(FactorModel::KIND, &mut bytes);
        body(&mut w);
        w.finish().unwrap();
        FactorModel::read_sections(&SectionReader::open(ModelBytes::from_vec(bytes))?)
    }

    #[test]
    fn save_load_roundtrip() {
        let m = toy();
        assert_eq!(read(|w| m.write_sections(w).unwrap()).unwrap(), m);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(read(|_| {}).is_err());
        let corrupt = |meta: [u64; 4], factors: &[f64]| {
            let got = read(|w| {
                w.put_u64s("meta", &meta);
                w.put_f64s("ufact", factors);
                w.put_f64s("ifact", factors);
            });
            matches!(got, Err(OcularError::Corrupt(_)))
        };
        assert!(corrupt([2, 2, 2, 0], &[1.0, 2.0]));
        // a header promising 32 TB of factors is a typed error, not an
        // allocation the process dies in
        assert!(corrupt([1_000_000_000_000, 1, 4, 0], &[]));
        // a bias flag without room for the two bias columns
        assert!(corrupt([0, 0, 2, 1], &[]));
    }

    #[test]
    #[should_panic(expected = "share k")]
    fn mismatched_k_panics() {
        FactorModel::new(Matrix::zeros(2, 3), Matrix::zeros(2, 4), false);
    }
}
