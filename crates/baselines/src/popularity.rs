//! Most-popular baseline: rank items by global purchase count.
//!
//! Not part of the paper's Table I, but the canonical sanity floor for
//! one-class recommenders — any personalised method that loses to raw
//! popularity is broken. Included in the harness for calibration. The
//! ranking is user-independent, so cold-start fold-in is trivially
//! supported: a basket request gets the same global ranking with the
//! basket excluded.

use crate::bad;
use ocular_api::{validate_basket, FoldIn, OcularError, Recommender, ScoreItems, SnapshotModel};
use ocular_sparse::Dataset;

/// Fitted popularity model: a single global ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Popularity {
    scores: Vec<f64>,
    n_users: usize,
}

impl Popularity {
    /// Model name in reports and error messages.
    pub const NAME: &'static str = "popularity";
    /// Snapshot kind tag.
    pub const KIND: &'static str = "popularity";

    /// Reads the dataset's cached item-degree (popularity) stats.
    pub fn fit(data: &Dataset) -> Self {
        Popularity {
            scores: data.item_degrees().iter().map(|&d| d as f64).collect(),
            n_users: data.n_users(),
        }
    }
}

impl ScoreItems for Popularity {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn n_users(&self) -> usize {
        self.n_users
    }

    fn n_items(&self) -> usize {
        self.scores.len()
    }

    fn score_user(&self, _u: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.scores);
    }
}

impl Recommender for Popularity {
    fn as_fold_in(&self) -> Option<&dyn FoldIn> {
        Some(self)
    }
}

impl FoldIn for Popularity {
    fn score_basket(&self, basket: &[usize], out: &mut Vec<f64>) -> Result<(), OcularError> {
        validate_basket(basket, self.scores.len())?;
        out.clear();
        out.extend_from_slice(&self.scores);
        Ok(())
    }
}

impl SnapshotModel for Popularity {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        w.put_u64s("meta", &[self.n_users as u64, self.scores.len() as u64]);
        w.put_f64s("scores", &self.scores);
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        use ocular_api::SectionReader;
        let [n_users, n_items] = r.u64_meta::<2>("meta")?;
        let n_users = SectionReader::shape(n_users, "n_users")?;
        let n_items = SectionReader::shape(n_items, "n_items")?;
        let scores = r.f64s("scores")?;
        if scores.len() != n_items {
            return Err(bad(format!(
                "scores section holds {} values but metadata says {n_items} items",
                scores.len()
            )));
        }
        Ok(Popularity {
            scores: scores.into_vec(),
            n_users,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_sparse::CsrMatrix;

    #[test]
    fn scores_equal_item_degrees() {
        let r = Dataset::from_matrix(
            CsrMatrix::from_pairs(3, 3, &[(0, 0), (1, 0), (2, 0), (0, 1)]).unwrap(),
        );
        let m = Popularity::fit(&r);
        let mut s = Vec::new();
        m.score_user(0, &mut s);
        assert_eq!(s, vec![3.0, 1.0, 0.0]);
        // identical for every user
        let mut s2 = Vec::new();
        m.score_user(2, &mut s2);
        assert_eq!(s, s2);
    }

    #[test]
    fn cold_baskets_get_the_global_ranking() {
        let r = Dataset::from_matrix(
            CsrMatrix::from_pairs(3, 3, &[(0, 0), (1, 0), (2, 0), (0, 1)]).unwrap(),
        );
        let m = Popularity::fit(&r);
        let recs = m.recommend_for_basket(&[0], 2).unwrap();
        let items: Vec<usize> = recs.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 2], "basket item 0 must be excluded");
        assert!(matches!(
            m.recommend_for_basket(&[9], 2),
            Err(OcularError::BadBasket(_))
        ));
    }

    #[test]
    fn snapshot_roundtrip_bitwise() {
        let r =
            Dataset::from_matrix(CsrMatrix::from_pairs(5, 7, &[(0, 0), (1, 6), (2, 3)]).unwrap());
        let m = Popularity::fit(&r);
        assert_eq!(crate::section_cycle(&m).unwrap(), m);
        assert!(crate::read_back::<Popularity>(Popularity::KIND, |_| {}).is_err());
        // scores that disagree with the declared catalog size
        let short = crate::read_back::<Popularity>(Popularity::KIND, |w| {
            w.put_u64s("meta", &[5, 7]);
            w.put_f64s("scores", &[1.0; 6]);
        });
        assert!(matches!(short, Err(OcularError::Corrupt(_))));
    }

    #[test]
    fn dimensions() {
        let r = Dataset::from_matrix(CsrMatrix::empty(5, 7));
        let m = Popularity::fit(&r);
        assert_eq!(m.n_users(), 5);
        assert_eq!(m.n_items(), 7);
        assert_eq!(m.name(), "popularity");
    }
}
