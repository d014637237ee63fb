//! Per-cluster inverted item lists — the candidate-generation index.
//!
//! The paper's pitch is that co-cluster factors make serving *scalable*: a
//! user's plausible recommendations live in the co-clusters the user
//! belongs to, so a request does not have to score the full catalog
//! (Section IV-C; candidate generation via clusters is the standard
//! production pattern for clustering-based recommenders). The index is
//! built once — at snapshot time or engine load — and maps each co-cluster
//! dimension to the items affiliated with it.
//!
//! Membership is **relative**, mirroring
//! [`extract_coclusters_relative`](ocular_core::coclusters::extract_coclusters_relative):
//! regularised training splits affiliation magnitude asymmetrically between
//! the large side (many users, individually small strengths) and the small
//! side of a co-cluster, so one absolute cutoff cannot fit both. Instead:
//!
//! * item `i` is indexed under cluster `c` iff `[f_i]_c ≥ rel · max_i [f_i]_c`;
//! * a requester (warm row or folded cold-start vector) *activates* cluster
//!   `c` iff `f[c] ≥ rel · max_c f[c]` — relative to its own strongest
//!   dimension, which also works for fold-in vectors never seen in training.
//!
//! Dimensions whose best user·item product cannot reach connection
//! probability ½ (`max_u · max_i < ln 2`) are dead — never clusters — and
//! get empty lists, pushing their (hopeless) requests to the fallback path.

use ocular_bytes::{U32Buf, U64Buf};
use ocular_core::FactorModel;
use ocular_sparse::col_index;

/// Dead-dimension rule: the strongest pair must connect with probability
/// ≥ ½, i.e. affinity ≥ ln 2 (the same rule as co-cluster extraction).
const MIN_TOP_PAIR_AFFINITY: f64 = core::f64::consts::LN_2;

/// Index build parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Relative membership cutoff in `(0, 1]`: item `i` joins cluster `c`'s
    /// list when `[f_i]_c ≥ rel · max_i [f_i]_c`, and a requester activates
    /// `c` when `f[c] ≥ rel · max_c f[c]`.
    pub rel: f64,
    /// Minimum list length per live cluster: lists shorter than this under
    /// the relative rule are topped up with the cluster's next-strongest
    /// items (power-law item strengths otherwise leave lists of a handful
    /// of items, starving candidate generation). Capped by the catalog.
    pub floor: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            rel: 0.5,
            floor: 100,
        }
    }
}

/// Inverted item lists, one per co-cluster dimension, stored **CSR**:
/// one concatenated item array plus a row-pointer array. The CSR layout
/// is exactly what the v3 binary snapshot serialises, so an index loaded
/// from a snapshot **borrows** both arrays from the (possibly mmap'd)
/// byte region — engine start-up rebuilds nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterIndex {
    rel: f64,
    n_items: usize,
    /// `indptr[c]..indptr[c + 1]` bounds cluster `c`'s slice of `items`.
    indptr: U64Buf,
    /// Concatenated ascending item lists.
    items: U32Buf,
}

impl ClusterIndex {
    /// Builds the index from a fitted model's factors. Bias columns (when
    /// present) are never indexed — they are not co-clusters.
    ///
    /// Each live cluster's list holds the items within `cfg.rel` of the
    /// cluster's strongest item, topped up to `cfg.floor` items by strength
    /// (ties by ascending item index, so the build is deterministic).
    ///
    /// # Panics
    /// Panics if `cfg.rel` is outside `(0, 1]`.
    pub fn build(model: &FactorModel, cfg: &IndexConfig) -> Self {
        assert!(
            cfg.rel > 0.0 && cfg.rel <= 1.0,
            "relative membership cutoff must lie in (0, 1]"
        );
        let k = model.n_clusters();
        let column_max = |m: &ocular_linalg::Matrix| {
            (0..m.rows()).fold(vec![0.0f64; k], |mut max, r| {
                (max.iter_mut().zip(m.row(r))).for_each(|(max, &v)| *max = max.max(v));
                max
            })
        };
        let max_u = column_max(&model.user_factors);
        let max_i = column_max(&model.item_factors);
        let dead = |c: usize| max_u[c] * max_i[c] < MIN_TOP_PAIR_AFFINITY;
        // one pass over the item factors, keeping only what a list can
        // take: a trained column is mostly zeros the sort need never see
        let mut by_strength: Vec<Vec<(f64, usize)>> = vec![Vec::new(); k];
        for i in 0..model.n_items() {
            for (c, &s) in model.item_factors.row(i)[..k].iter().enumerate() {
                if s > 0.0 && !dead(c) {
                    by_strength[c].push((s, i));
                }
            }
        }
        let items = (by_strength.into_iter().zip(max_i))
            .map(|(mut by_strength, max_i)| {
                // strength descending, ties by ascending item
                by_strength.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                let mut list: Vec<u32> = (by_strength.into_iter().enumerate())
                    .take_while(|&(rank, (s, _))| rank < cfg.floor || s >= cfg.rel * max_i)
                    .map(|(_, (_, i))| col_index(i))
                    .collect();
                list.sort_unstable();
                list
            })
            .collect();
        Self::from_lists(cfg.rel, model.n_items(), items)
    }

    /// Packs per-cluster lists into the CSR layout (trusted input: the
    /// builder and the validated loaders).
    fn from_lists(rel: f64, n_items: usize, lists: Vec<Vec<u32>>) -> Self {
        let mut indptr: Vec<u64> = Vec::with_capacity(lists.len() + 1);
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut items: Vec<u32> = Vec::with_capacity(total);
        indptr.push(0);
        for list in lists {
            items.extend_from_slice(&list);
            indptr.push(items.len() as u64);
        }
        ClusterIndex {
            rel,
            n_items,
            indptr: indptr.into(),
            items: items.into(),
        }
    }

    /// Assembles an index from raw parts (the text snapshot loader).
    /// Validates that `rel` is in range and every list is strictly
    /// ascending and in-bounds (via [`ClusterIndex::from_csr`], which
    /// checks the packed layout).
    pub fn from_parts(rel: f64, n_items: usize, items: Vec<Vec<u32>>) -> Result<Self, String> {
        let lists = items;
        Self::from_csr(
            rel,
            n_items,
            {
                let mut indptr: Vec<u64> = Vec::with_capacity(lists.len() + 1);
                indptr.push(0);
                for list in &lists {
                    indptr.push(indptr.last().expect("non-empty") + list.len() as u64);
                }
                indptr.into()
            },
            lists.concat().into(),
        )
    }

    /// Assembles an index from (possibly region-borrowed) CSR arrays —
    /// the v3 binary snapshot load path. Validates `rel`, the row-pointer
    /// shape and every list's ordering/bounds, so corrupt bytes are an
    /// error here instead of wrong candidates at request time.
    pub fn from_csr(
        rel: f64,
        n_items: usize,
        indptr: U64Buf,
        items: U32Buf,
    ) -> Result<Self, String> {
        if !(rel > 0.0 && rel <= 1.0) {
            return Err(format!("bad index rel cutoff {rel}"));
        }
        if indptr.is_empty()
            || indptr[0] != 0
            || *indptr.last().expect("non-empty") != items.len() as u64
        {
            return Err("malformed index row-pointer array".into());
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("index row pointers must be monotonic".into());
        }
        for c in 0..indptr.len() - 1 {
            let list = &items[indptr[c] as usize..indptr[c + 1] as usize];
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("cluster {c} item list not strictly ascending"));
            }
            if let Some(&last) = list.last() {
                if last as usize >= n_items {
                    return Err(format!(
                        "cluster {c} item {last} out of bounds for {n_items} items"
                    ));
                }
            }
        }
        Ok(ClusterIndex {
            rel,
            n_items,
            indptr,
            items,
        })
    }

    /// The relative membership cutoff the index was built with.
    pub fn rel(&self) -> f64 {
        self.rel
    }

    /// Number of indexed co-cluster dimensions.
    pub fn n_clusters(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of items in the catalog the index was built over.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The ascending item list of cluster `c`.
    pub fn cluster_items(&self, c: usize) -> &[u32] {
        &self.items[self.indptr[c] as usize..self.indptr[c + 1] as usize]
    }

    /// The CSR row-pointer array (snapshot serialization).
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// The concatenated item array (snapshot serialization).
    pub fn item_data(&self) -> &[u32] {
        &self.items
    }

    /// Whether both CSR arrays borrow a shared byte region (the zero-copy
    /// snapshot load path) rather than owning heap allocations.
    pub fn is_shared(&self) -> bool {
        self.indptr.is_shared() && self.items.is_shared()
    }

    /// The clusters a factor vector activates: dimensions within `rel` of
    /// the vector's own strongest cluster dimension. Bias columns (entries
    /// past `n_clusters()`) never activate.
    pub fn active_clusters(&self, factors: &[f64]) -> Vec<usize> {
        let k = self.n_clusters().min(factors.len());
        let own_max = factors[..k].iter().copied().fold(0.0f64, f64::max);
        if own_max <= 0.0 {
            return Vec::new();
        }
        (0..k)
            .filter(|&c| factors[c] >= self.rel * own_max)
            .collect()
    }

    /// Candidate items for a factor vector: the sorted, deduplicated union
    /// of the item lists of its active clusters. Empty when the vector
    /// activates no (live) cluster — callers fall back to the full catalog.
    pub fn candidates(&self, factors: &[f64]) -> Vec<u32> {
        let active = self.active_clusters(factors);
        match active.len() {
            0 => Vec::new(),
            1 => self.cluster_items(active[0]).to_vec(),
            _ => {
                let mut union: Vec<u32> = active
                    .iter()
                    .flat_map(|&c| self.cluster_items(c).iter().copied())
                    .collect();
                union.sort_unstable();
                union.dedup();
                union
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_linalg::Matrix;

    /// A config with no floor top-up: the pure relative rule.
    fn rel_only(rel: f64) -> IndexConfig {
        IndexConfig { rel, floor: 0 }
    }

    fn model() -> FactorModel {
        // cluster 0: strong items {0, 1}; cluster 1: strong items {1, 3};
        // item 2 weak everywhere
        FactorModel::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.1, 0.1]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 1.5], &[0.2, 0.2], &[0.0, 3.0]]),
            false,
        )
    }

    #[test]
    fn build_inverts_item_memberships_relative() {
        // cluster 0 max_i = 2.0, rel 0.5 → cutoff 1.0 keeps items 0, 1;
        // cluster 1 max_i = 3.0 → cutoff 1.5 keeps items 1, 3
        let idx = ClusterIndex::build(&model(), &rel_only(0.5));
        assert_eq!(idx.n_clusters(), 2);
        assert_eq!(idx.cluster_items(0), &[0, 1]);
        assert_eq!(idx.cluster_items(1), &[1, 3]);
        // tighter cutoff keeps only the strongest item per side
        let tight = ClusterIndex::build(&model(), &rel_only(0.9));
        assert_eq!(tight.cluster_items(0), &[0]);
        assert_eq!(tight.cluster_items(1), &[3]);
    }

    #[test]
    fn active_clusters_relative_to_own_max() {
        let idx = ClusterIndex::build(&model(), &rel_only(0.5));
        assert_eq!(idx.active_clusters(&[1.0, 0.3]), vec![0]);
        assert_eq!(idx.active_clusters(&[1.0, 0.6]), vec![0, 1]);
        assert_eq!(idx.active_clusters(&[0.2, 1.0]), vec![1]);
        // all-zero vector activates nothing
        assert!(idx.active_clusters(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn candidates_union_active_clusters() {
        let idx = ClusterIndex::build(&model(), &rel_only(0.5));
        assert_eq!(idx.candidates(&[1.0, 0.1]), vec![0, 1]);
        assert_eq!(idx.candidates(&[0.1, 1.0]), vec![1, 3]);
        // overlap deduplicated
        assert_eq!(idx.candidates(&[1.0, 1.0]), vec![0, 1, 3]);
        assert!(idx.candidates(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn dead_dimensions_get_empty_lists() {
        // best pair product 0.3 · 0.3 = 0.09 < ln 2 → dead
        let m = FactorModel::new(
            Matrix::from_rows(&[&[2.0, 0.3]]),
            Matrix::from_rows(&[&[2.0, 0.3]]),
            false,
        );
        let idx = ClusterIndex::build(&m, &rel_only(0.5));
        assert_eq!(idx.cluster_items(0), &[0]);
        assert!(idx.cluster_items(1).is_empty());
    }

    /// The construction `build` replaced, kept as its reference: per
    /// cluster, sort every `(strength, item)` pair of the catalog — zeros
    /// included — then keep the positive head.
    fn lists_by_full_sort(model: &FactorModel, cfg: &IndexConfig) -> Vec<Vec<u32>> {
        (0..model.n_clusters())
            .map(|c| {
                let max_u = (0..model.n_users())
                    .map(|u| model.user_factors.row(u)[c])
                    .fold(0.0f64, f64::max);
                let max_i = (0..model.n_items())
                    .map(|i| model.item_factors.row(i)[c])
                    .fold(0.0f64, f64::max);
                if max_u * max_i < MIN_TOP_PAIR_AFFINITY {
                    return Vec::new();
                }
                let mut by_strength: Vec<(f64, usize)> = (0..model.n_items())
                    .map(|i| (model.item_factors.row(i)[c], i))
                    .collect();
                by_strength.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                let mut list: Vec<u32> = by_strength
                    .into_iter()
                    .enumerate()
                    .take_while(|&(rank, (s, _))| {
                        s > 0.0 && (rank < cfg.floor || s >= cfg.rel * max_i)
                    })
                    .map(|(_, (_, i))| i as u32)
                    .collect();
                list.sort_unstable();
                list
            })
            .collect()
    }

    #[test]
    fn build_matches_the_full_sort_construction() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut live, mut topped_up) = (0, 0);
        for case in 0..40 {
            let (n_users, n_items, k) = (1 + case % 7, 1 + (case * 13) % 90, 1 + case % 6);
            let bias = case % 5 == 0;
            let cols = k + 2 * usize::from(bias);
            // sparse rows with few distinct strengths (ties), column 0
            // all-zero on the item side in every third case, and the last
            // cluster column positive on at most three items
            let mut factors = |rows: usize, item_side: bool| {
                let mut m = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        let zero = item_side && c == 0 && case % 3 == 0;
                        let few = item_side && c + 1 == k && r >= 3;
                        if !zero && !few && next() % 3 == 0 {
                            m.row_mut(r)[c] = (1 + next() % 4) as f64 * 0.45;
                        }
                    }
                }
                m
            };
            let model = FactorModel::new(factors(n_users, false), factors(n_items, true), bias);
            for cfg in [
                rel_only(0.5),
                IndexConfig { rel: 1.0, floor: 5 },
                IndexConfig {
                    rel: 0.3,
                    floor: 1000,
                },
            ] {
                let idx = ClusterIndex::build(&model, &cfg);
                let want = lists_by_full_sort(&model, &cfg);
                assert_eq!(idx.n_clusters(), want.len());
                for (c, list) in want.iter().enumerate() {
                    assert_eq!(
                        idx.cluster_items(c),
                        &list[..],
                        "case {case} cluster {c} {cfg:?}"
                    );
                    live += usize::from(!list.is_empty());
                    topped_up += usize::from(!list.is_empty() && list.len() < cfg.floor);
                }
            }
        }
        assert!(
            live > 100 && topped_up > 50,
            "{live} live lists, {topped_up} under the floor"
        );
    }

    #[test]
    fn bias_columns_never_indexed() {
        let m = FactorModel::new(
            Matrix::from_rows(&[&[2.0, 9.0, 1.0]]),
            Matrix::from_rows(&[&[2.0, 1.0, 9.0]]),
            true,
        );
        let idx = ClusterIndex::build(&m, &rel_only(0.5));
        assert_eq!(idx.n_clusters(), 1);
        // and bias entries in a request vector never activate clusters
        assert_eq!(idx.active_clusters(&[2.0, 9.0, 1.0]), vec![0]);
    }

    #[test]
    fn from_parts_validates() {
        assert!(ClusterIndex::from_parts(0.5, 4, vec![vec![0, 1], vec![3]]).is_ok());
        assert!(ClusterIndex::from_parts(0.5, 4, vec![vec![1, 0]]).is_err());
        assert!(ClusterIndex::from_parts(0.5, 4, vec![vec![2, 2]]).is_err());
        assert!(ClusterIndex::from_parts(0.5, 4, vec![vec![4]]).is_err());
        assert!(ClusterIndex::from_parts(0.0, 4, vec![]).is_err());
        assert!(ClusterIndex::from_parts(f64::NAN, 4, vec![]).is_err());
        assert!(ClusterIndex::from_parts(1.5, 4, vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn build_rejects_bad_rel() {
        ClusterIndex::build(&model(), &rel_only(0.0));
    }
}
