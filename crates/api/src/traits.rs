//! The canonical trait hierarchy.
//!
//! ```text
//! ScoreItems                 per-item scoring: the capability every model has
//!   └── Recommender          top-M lists via the shared bounded-heap kernel
//!         ├── FoldIn         request-time cold start from a basket (optional)
//!         ├── Explain        co-cluster provenance (optional, OCuLaR-only)
//!         └── SnapshotModel  kind-tagged serialize / deserialize (optional)
//!               Model = Recommender + SnapshotModel (what serving loads)
//! ```
//!
//! Optional capabilities are discovered at runtime through
//! [`Recommender::as_fold_in`] / [`Recommender::as_explain`], so a serving
//! engine holding a `Box<dyn Model>` can degrade gracefully — a cold-start
//! request against a model without [`FoldIn`] is a typed
//! [`OcularError::Unsupported`], not a panic.

use crate::binary::{SectionReader, SectionWriter};
use crate::error::OcularError;
use ocular_linalg::topk::top_k_excluding;
use ocular_sparse::CsrMatrix;
use std::io::BufRead;

/// One ranked item with the score its model assigned. For OCuLaR the score
/// is a probability; for the baselines it is a model score whose scale is
/// only meaningful within one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// The recommended item index.
    pub item: usize,
    /// The model's relevance score (higher is better).
    pub score: f64,
}

/// A fitted model that can score every item for a user — the base
/// capability of the hierarchy, and all the evaluation protocol needs.
///
/// `Send + Sync` is a supertrait bound because trait objects flow into
/// rayon-parallel serving batches.
pub trait ScoreItems: Send + Sync {
    /// Human-readable name for reports and error messages (e.g. `"wALS"`).
    fn name(&self) -> &'static str;

    /// Number of users the model was fitted on.
    fn n_users(&self) -> usize;

    /// Number of items the model was fitted on.
    fn n_items(&self) -> usize;

    /// Fills `out` (cleared and resized to [`ScoreItems::n_items`]) with
    /// relevance scores for user `u`. Higher is better; scales need not be
    /// comparable across models.
    fn score_user(&self, u: usize, out: &mut Vec<f64>);
}

/// A model that produces top-M recommendation lists.
///
/// The default method routes selection through
/// [`ocular_linalg::topk`] — the one shared implementation of the
/// workspace's ranking-ties convention (score descending, ties by
/// ascending item index) — so offline evaluation, batch recommendation and
/// online serving cannot silently diverge.
pub trait Recommender: ScoreItems {
    /// The top-`m` items for user `user`, skipping the ascending exclusion
    /// list `exclude` (typically the user's training basket, in the CSR row
    /// convention). Sorted by score descending, ties by ascending item.
    fn recommend(
        &self,
        user: usize,
        exclude: &[u32],
        m: usize,
    ) -> Result<Vec<ScoredItem>, OcularError> {
        if user >= self.n_users() {
            return Err(OcularError::UnknownUser {
                user,
                n_users: self.n_users(),
            });
        }
        let mut scores = Vec::new();
        self.score_user(user, &mut scores);
        Ok(top_k_excluding(&scores, exclude, m)
            .into_iter()
            .map(|(score, item)| ScoredItem { item, score })
            .collect())
    }

    /// Runtime capability query: the model's cold-start interface, if it
    /// has one. Serving engines use this to answer basket requests for any
    /// model kind and to reject them with a typed error otherwise.
    fn as_fold_in(&self) -> Option<&dyn FoldIn> {
        None
    }

    /// Runtime capability query: the model's provenance interface, if it
    /// has one (OCuLaR-only in this workspace).
    fn as_explain(&self) -> Option<&dyn Explain> {
        None
    }
}

/// Request-time cold start: scoring a user never seen in training from a
/// basket of item indices alone (the paper's Section VIII deployment path).
pub trait FoldIn: ScoreItems {
    /// Fills `out` (cleared and resized to [`ScoreItems::n_items`]) with
    /// scores for an unseen user described only by `basket`. The basket is
    /// validated (bounds, duplicates) but **not** excluded — callers
    /// exclude it when ranking, exactly like a warm user's owned items.
    fn score_basket(&self, basket: &[usize], out: &mut Vec<f64>) -> Result<(), OcularError>;

    /// Top-`m` recommendations for a cold basket, excluding the basket
    /// itself, through the shared selection kernel.
    fn recommend_for_basket(
        &self,
        basket: &[usize],
        m: usize,
    ) -> Result<Vec<ScoredItem>, OcularError> {
        let exclude = validate_basket(basket, self.n_items())?;
        let mut scores = Vec::new();
        self.score_basket(basket, &mut scores)?;
        Ok(top_k_excluding(&scores, &exclude, m)
            .into_iter()
            .map(|(score, item)| ScoredItem { item, score })
            .collect())
    }
}

/// The part of a recommendation's provenance contributed by one co-cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEvidence {
    /// Factor dimension of the contributing co-cluster.
    pub cluster: usize,
    /// This cluster's share of the total affinity, in `[0, 1]`.
    pub share: f64,
    /// Cluster members (strongest first) who bought the recommended item.
    pub co_users: Vec<usize>,
    /// Cluster items the target user already owns.
    pub supporting_items: Vec<usize>,
}

/// A structured recommendation rationale — the interpretability dividend
/// the paper claims over wALS/BPR (Figures 3 and 10).
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The user receiving the recommendation.
    pub user: usize,
    /// The recommended item.
    pub item: usize,
    /// The model's score for the pair.
    pub score: f64,
    /// Contributing co-clusters, largest contribution first.
    pub evidence: Vec<ClusterEvidence>,
}

/// Co-cluster provenance: *why* an item was recommended, grounded in the
/// interaction matrix so every named co-purchase is verifiable.
pub trait Explain: ScoreItems {
    /// Builds the provenance of recommending `item` to `user`.
    /// `interactions` must be the matrix the model was fitted on (shapes
    /// are checked); at most `max_co_users` similar users are named per
    /// cluster.
    fn provenance(
        &self,
        interactions: &CsrMatrix,
        user: usize,
        item: usize,
        max_co_users: usize,
    ) -> Result<Provenance, OcularError>;
}

/// Versioned model persistence with a kind tag, so a serving snapshot can
/// carry *any* model kind and the loader dispatches on the tag instead of
/// guessing at bytes.
///
/// One writable codec per kind — **binary v3**
/// ([`SnapshotModel::write_sections`] / [`SnapshotModel::read_sections`]):
/// typed sections in the mmap-able [`crate::binary`] container.
/// `read_sections` should **borrow** its large payloads from the reader's
/// byte region ([`SectionReader::f64s`] and friends return region-backed
/// buffers), so loading a snapshot is allocation-free for the bulk data.
/// [`SnapshotModel::load_model`] is the read-only text codec the frozen
/// v1/v2 files keep loading through.
pub trait SnapshotModel: ScoreItems {
    /// The stable kind tag written into snapshot envelopes (e.g. `"wals"`).
    /// Lowercase, no spaces; distinct per implementing type.
    fn kind(&self) -> &'static str;

    /// Reads the kind's self-delimiting text payload out of a v1/v2
    /// envelope, validating shape and values.
    fn load_model(r: &mut dyn BufRead) -> Result<Self, OcularError>
    where
        Self: Sized;

    /// Writes the model's payload as typed sections of a v3 binary
    /// snapshot. Must round-trip bitwise against
    /// [`SnapshotModel::read_sections`].
    fn write_sections(&self, w: &mut SectionWriter) -> Result<(), OcularError>;

    /// Reads a payload written by [`SnapshotModel::write_sections`],
    /// validating shapes and values, borrowing large buffers from the
    /// reader's byte region where the platform allows.
    fn read_sections(r: &SectionReader) -> Result<Self, OcularError>
    where
        Self: Sized;
}

/// What a serving engine holds: a recommender that can also be snapshotted.
/// Blanket-implemented, so every model that implements the two supertraits
/// is a [`Model`] automatically.
pub trait Model: Recommender + SnapshotModel {}

impl<T: Recommender + SnapshotModel> Model for T {}

/// Validates a cold-start basket against a catalog of `n_items` items and
/// returns it as the sorted ascending `u32` exclusion list the selection
/// kernels expect. Rejects out-of-range and duplicate items.
pub fn validate_basket(basket: &[usize], n_items: usize) -> Result<Vec<u32>, OcularError> {
    let mut exclude: Vec<u32> = Vec::with_capacity(basket.len());
    for &i in basket {
        if i >= n_items {
            return Err(OcularError::BadBasket(format!(
                "item {i} out of range for {n_items} items"
            )));
        }
        exclude.push(ocular_sparse::col_index(i));
    }
    exclude.sort_unstable();
    if exclude.windows(2).any(|w| w[0] == w[1]) {
        return Err(OcularError::BadBasket("duplicate items".into()));
    }
    Ok(exclude)
}

/// Adapts a scoring function to the hierarchy — the bridge for oracles and
/// synthetic scorers in tests and probes, where fitting a real model would
/// obscure the point.
pub struct FnScorer<F> {
    name: &'static str,
    n_users: usize,
    n_items: usize,
    score: F,
}

impl<F: Fn(usize, &mut Vec<f64>) + Send + Sync> FnScorer<F> {
    /// Wraps `score`, which fills a pre-sized buffer (length `n_items`,
    /// zero-initialised) with scores for the given user.
    pub fn new(name: &'static str, n_users: usize, n_items: usize, score: F) -> Self {
        FnScorer {
            name,
            n_users,
            n_items,
            score,
        }
    }
}

impl<F: Fn(usize, &mut Vec<f64>) + Send + Sync> ScoreItems for FnScorer<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn n_users(&self) -> usize {
        self.n_users
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_items, 0.0);
        (self.score)(u, out);
    }
}

impl<F: Fn(usize, &mut Vec<f64>) + Send + Sync> Recommender for FnScorer<F> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer() -> FnScorer<impl Fn(usize, &mut Vec<f64>) + Send + Sync> {
        // user u scores item i as (i + u) mod 4, producing heavy ties
        FnScorer::new("synthetic", 3, 10, |u, buf| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ((i + u) % 4) as f64;
            }
        })
    }

    #[test]
    fn default_recommend_matches_sort_under_ties() {
        let s = scorer();
        let mut scores = Vec::new();
        for u in 0..3 {
            s.score_user(u, &mut scores);
            for m in 0..=11 {
                let got = s.recommend(u, &[2, 5], m).unwrap();
                let mut want: Vec<ScoredItem> = scores
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| ![2usize, 5].contains(i))
                    .map(|(item, &score)| ScoredItem { item, score })
                    .collect();
                want.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap()
                        .then_with(|| a.item.cmp(&b.item))
                });
                want.truncate(m);
                assert_eq!(got, want, "u={u} m={m}");
            }
        }
    }

    #[test]
    fn recommend_rejects_unknown_users() {
        let s = scorer();
        assert!(matches!(
            s.recommend(99, &[], 3),
            Err(OcularError::UnknownUser { user: 99, .. })
        ));
    }

    #[test]
    fn capability_queries_default_to_none() {
        let s = scorer();
        assert!(s.as_fold_in().is_none());
        assert!(s.as_explain().is_none());
    }

    #[test]
    fn validate_basket_sorts_and_rejects() {
        assert_eq!(validate_basket(&[4, 1, 2], 5).unwrap(), vec![1, 2, 4]);
        assert!(matches!(
            validate_basket(&[5], 5),
            Err(OcularError::BadBasket(_))
        ));
        assert!(matches!(
            validate_basket(&[1, 1], 5),
            Err(OcularError::BadBasket(_))
        ));
        assert_eq!(validate_basket(&[], 0).unwrap(), Vec::<u32>::new());
    }
}
