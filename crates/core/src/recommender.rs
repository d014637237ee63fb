//! [`FactorModel`]'s seat in the workspace trait hierarchy
//! ([`ocular_api`]): OCuLaR is just one [`Recommender`] among the model
//! zoo — but the only one with co-cluster [`Explain`] provenance.
//!
//! The impls delegate to the specialised machinery in this crate
//! ([`crate::recommend`], [`crate::foldin`], [`mod@crate::explain`],
//! [`crate::model`]), so trait consumers and direct callers observe
//! bitwise-identical behaviour.

use crate::config::OcularConfig;
use crate::foldin::fold_in_user;
use crate::model::{prob_from_affinity, FactorModel};
use ocular_api::{
    validate_basket, ClusterEvidence, Explain, FoldIn, OcularError, Provenance, Recommender,
    ScoreItems, SnapshotModel,
};
use ocular_linalg::{ops, Matrix};
use ocular_sparse::CsrMatrix;

/// The solver configuration the trait-level cold-start path folds in with:
/// [`OcularConfig::default`] — the same configuration
/// `ocular_serve::ServeConfig::default()` hands the engine's fold-in, so
/// the trait path and a default-configured engine score a basket
/// identically. Callers needing the exact training λ use
/// [`crate::fold_in_user`] directly or configure the serving engine.
fn default_foldin_config() -> OcularConfig {
    OcularConfig::default()
}

impl ScoreItems for FactorModel {
    fn name(&self) -> &'static str {
        "OCuLaR"
    }

    fn n_users(&self) -> usize {
        FactorModel::n_users(self)
    }

    fn n_items(&self) -> usize {
        FactorModel::n_items(self)
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        FactorModel::score_user(self, u, out);
    }
}

impl Recommender for FactorModel {
    fn as_fold_in(&self) -> Option<&dyn FoldIn> {
        Some(self)
    }

    fn as_explain(&self) -> Option<&dyn Explain> {
        Some(self)
    }
}

impl FoldIn for FactorModel {
    fn score_basket(&self, basket: &[usize], out: &mut Vec<f64>) -> Result<(), OcularError> {
        validate_basket(basket, FactorModel::n_items(self))?;
        let fold = fold_in_user(self, basket, &default_foldin_config(), 1.0, 100);
        out.clear();
        out.resize(FactorModel::n_items(self), 0.0);
        for (i, s) in out.iter_mut().enumerate() {
            *s = prob_from_affinity(ops::dot(&fold.factors, self.item_factors.row(i)));
        }
        Ok(())
    }
}

impl Explain for FactorModel {
    fn provenance(
        &self,
        interactions: &CsrMatrix,
        user: usize,
        item: usize,
        max_co_users: usize,
    ) -> Result<Provenance, OcularError> {
        let (n_users, n_items) = (FactorModel::n_users(self), FactorModel::n_items(self));
        if interactions.n_rows() != n_users || interactions.n_cols() != n_items {
            return Err(OcularError::ShapeMismatch {
                expected: (n_users, n_items),
                found: (interactions.n_rows(), interactions.n_cols()),
            });
        }
        if user >= n_users {
            return Err(OcularError::UnknownUser { user, n_users });
        }
        if item >= n_items {
            return Err(OcularError::UnknownItem { item, n_items });
        }
        let clusters = crate::coclusters::extract_coclusters(self, crate::default_threshold());
        let e = crate::explain::explain(self, interactions, &clusters, user, item, max_co_users);
        Ok(Provenance {
            user: e.user,
            item: e.item,
            score: e.probability,
            evidence: e
                .contributions
                .into_iter()
                .map(|c| ClusterEvidence {
                    cluster: c.cluster,
                    share: c.share,
                    co_users: c.co_users,
                    supporting_items: c.supporting_items,
                })
                .collect(),
        })
    }
}

impl FactorModel {
    /// Snapshot kind tag — the single definition both the snapshot writer
    /// and the polymorphic loader dispatch on.
    pub const KIND: &'static str = "ocular";
}

impl SnapshotModel for FactorModel {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        w.put_u64s(
            "meta",
            &[
                self.n_users() as u64,
                self.n_items() as u64,
                self.k_total() as u64,
                u64::from(self.has_bias()),
            ],
        );
        w.put_f64s("ufact", self.user_factors.as_slice());
        w.put_f64s("ifact", self.item_factors.as_slice());
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        use ocular_api::SectionReader;
        let [n_users, n_items, k_total, has_bias] = r.u64_meta::<4>("meta")?;
        if has_bias > 1 {
            return Err(OcularError::Corrupt(format!(
                "bias flag must be 0 or 1, got {has_bias}"
            )));
        }
        let n_users = SectionReader::shape(n_users, "n_users")?;
        let n_items = SectionReader::shape(n_items, "n_items")?;
        let k_total = SectionReader::shape(k_total, "k_total")?;
        // the factor matrices borrow the reader's byte region — the
        // zero-copy serving path
        let user_factors = Matrix::from_shared(n_users, k_total, r.f64s("ufact")?)
            .map_err(OcularError::Corrupt)?;
        let item_factors = Matrix::from_shared(n_items, k_total, r.f64s("ifact")?)
            .map_err(OcularError::Corrupt)?;
        FactorModel::try_new(user_factors, item_factors, has_bias == 1)
            .map_err(|e| OcularError::Corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommend::recommend_top_m;
    use crate::{fit, OcularConfig};

    fn trained() -> (FactorModel, CsrMatrix) {
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
            lambda: 0.5,
            max_iters: 60,
            seed: 3,
            ..Default::default()
        };
        (fit(&r.clone().into(), &cfg).model, r)
    }

    #[test]
    fn trait_recommend_matches_recommend_top_m_bitwise() {
        let (model, r) = trained();
        for u in 0..8 {
            let via_trait = model.recommend(u, r.row(u), 3).unwrap();
            let direct = recommend_top_m(&model, &r, u, 3);
            assert_eq!(via_trait.len(), direct.len());
            for (a, b) in via_trait.iter().zip(&direct) {
                assert_eq!(a.item, b.item);
                assert_eq!(a.score, b.probability, "user {u}: scores must be bitwise");
            }
        }
    }

    #[test]
    fn capabilities_are_discoverable() {
        let (model, r) = trained();
        assert!(model.as_fold_in().is_some());
        assert!(model.as_explain().is_some());
        let mut scores = Vec::new();
        model
            .as_fold_in()
            .unwrap()
            .score_basket(&[0, 1], &mut scores)
            .unwrap();
        assert_eq!(scores.len(), 8);
        // block-A basket scores block A above block B
        assert!(scores[2] > scores[6]);
        let p = model.as_explain().unwrap().provenance(&r, 0, 2, 3).unwrap();
        assert_eq!((p.user, p.item), (0, 2));
        assert!(!p.evidence.is_empty());
    }

    #[test]
    fn provenance_validates_inputs() {
        let (model, r) = trained();
        assert!(matches!(
            model.provenance(&CsrMatrix::empty(2, 2), 0, 0, 3),
            Err(OcularError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            model.provenance(&r, 99, 0, 3),
            Err(OcularError::UnknownUser { .. })
        ));
        assert!(matches!(
            model.provenance(&r, 0, 99, 3),
            Err(OcularError::UnknownItem { .. })
        ));
    }

    #[test]
    fn fold_in_rejects_bad_baskets_without_panicking() {
        let (model, _) = trained();
        let mut scores = Vec::new();
        assert!(matches!(
            model.score_basket(&[99], &mut scores),
            Err(OcularError::BadBasket(_))
        ));
        assert!(matches!(
            model.score_basket(&[1, 1], &mut scores),
            Err(OcularError::BadBasket(_))
        ));
    }

    #[test]
    fn snapshot_model_roundtrips() {
        let (model, _) = trained();
        assert_eq!(SnapshotModel::kind(&model), "ocular");
        let mut bytes = Vec::new();
        let mut w = ocular_api::SectionWriter::new(FactorModel::KIND, &mut bytes);
        model.write_sections(&mut w).unwrap();
        w.finish().unwrap();
        let region = ocular_bytes::ModelBytes::from_vec(bytes);
        let r = ocular_api::SectionReader::open(region).unwrap();
        assert_eq!(FactorModel::read_sections(&r).unwrap(), model);
    }
}
