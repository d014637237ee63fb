//! User-based and item-based cosine kNN collaborative filtering — the
//! paper's interpretable baselines (Section VII-B2).
//!
//! * **User-based** (Sarwar et al., EC 2000): *"item i is recommended
//!   because the similar users u₁…u_k also bought item i"* —
//!   `score(u, i) = Σ_{v ∈ kNN(u), r_vi = 1} sim(u, v)`.
//! * **Item-based** (Deshpande & Karypis, TOIS 2004): *"item i is
//!   recommended because user u bought the similar items i₁…i_k"* —
//!   `score(u, i) = Σ_{j ∈ basket(u)} sim_k(i, j)`, with similarities kept
//!   only for each basket item's top-k neighbours.
//!
//! The paper grid-searches the neighbourhood size; [`KnnConfig::k`] is that
//! knob. Item-based kNN scores a basket directly, so it supports
//! request-time cold start ([`ocular_api::FoldIn`]); user-based kNN needs
//! the new user's similarity to every training user, which this
//! implementation does not precompute — its `as_fold_in` stays `None`.

use crate::similarity::{top_k_neighbors, Neighbor};
use ocular_api::textio::{bad, read_csr, read_line};
use ocular_api::{validate_basket, FoldIn, OcularError, Recommender, ScoreItems, SnapshotModel};
use ocular_sparse::{CsrMatrix, Dataset};
use std::io::BufRead;

/// Configuration for both kNN models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnConfig {
    /// Neighbourhood size (the paper tunes this by grid search).
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 50 }
    }
}

/// Reads `n` neighbour-list lines, one `len idx:sim …` line per entity.
fn read_neighbors(r: &mut dyn BufRead, n: usize) -> Result<Vec<Vec<Neighbor>>, OcularError> {
    // `n` is the header's word: grow as lines arrive, never pre-size
    let mut lists = Vec::new();
    for e in 0..n {
        let line = read_line(r)?;
        let mut fields = line.split_whitespace();
        let len: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad(format!("entity {e}: bad neighbour count")))?;
        let list: Vec<Neighbor> = fields
            .map(|f| {
                let (idx, sim) = f
                    .split_once(':')
                    .ok_or_else(|| bad(format!("entity {e}: bad neighbour entry")))?;
                let neighbor = Neighbor {
                    index: idx
                        .parse()
                        .map_err(|_| bad(format!("entity {e}: bad neighbour index")))?,
                    similarity: sim
                        .parse()
                        .map_err(|_| bad(format!("entity {e}: bad similarity")))?,
                };
                if !neighbor.similarity.is_finite() {
                    return Err(bad(format!("entity {e}: non-finite similarity")));
                }
                Ok(neighbor)
            })
            .collect::<Result<_, OcularError>>()?;
        if list.len() != len {
            return Err(bad(format!(
                "entity {e}: declared {len} neighbours, found {}",
                list.len()
            )));
        }
        lists.push(list);
    }
    Ok(lists)
}

/// Writes neighbour lists (as a CSR triple) plus the interaction matrix
/// as v3 binary sections — the payload shape shared by both kNN kinds.
fn write_knn_sections(w: &mut ocular_api::SectionWriter, lists: &[Vec<Neighbor>], r: &CsrMatrix) {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut nbrptr: Vec<u64> = Vec::with_capacity(lists.len() + 1);
    let mut nbridx: Vec<u32> = Vec::with_capacity(total);
    let mut nbrsim: Vec<f64> = Vec::with_capacity(total);
    nbrptr.push(0);
    for list in lists {
        for n in list {
            nbridx.push(n.index);
            nbrsim.push(n.similarity);
        }
        nbrptr.push(nbridx.len() as u64);
    }
    w.put_u64s("nbrptr", &nbrptr);
    w.put_u32s("nbridx", &nbridx);
    w.put_f64s("nbrsim", &nbrsim);
    let (rows, cols, indptr, col_ixs) = r.as_parts();
    w.put_u64s("rmeta", &[rows as u64, cols as u64]);
    let rptr: Vec<u64> = indptr.iter().map(|&x| x as u64).collect();
    w.put_u64s("rptr", &rptr);
    w.put_u32s("rcol", col_ixs);
}

/// Validates that a CSR row-pointer array is well-formed for `rows` rows
/// over `nnz` entries: length, leading zero, monotonicity, total.
fn check_indptr(ptr: &[u64], rows: usize, nnz: usize, what: &str) -> Result<(), OcularError> {
    if ptr.len() != rows + 1 || ptr.first() != Some(&0) || ptr.last() != Some(&(nnz as u64)) {
        return Err(bad(format!("{what}: malformed row-pointer array")));
    }
    if ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad(format!("{what}: row pointers must be monotonic")));
    }
    Ok(())
}

/// Reads the payload written by [`write_knn_sections`], validating every
/// shape (corrupt bytes are typed errors, never panics or garbage).
fn read_knn_sections(
    r: &ocular_api::SectionReader,
) -> Result<(Vec<Vec<Neighbor>>, CsrMatrix), OcularError> {
    use ocular_api::SectionReader;
    let nbrptr = r.u64s("nbrptr")?;
    let nbridx = r.u32s("nbridx")?;
    let nbrsim = r.f64s("nbrsim")?;
    if nbridx.len() != nbrsim.len() {
        return Err(bad("neighbour index and similarity arrays disagree"));
    }
    if nbrptr.is_empty() {
        return Err(bad("empty neighbour row-pointer array"));
    }
    let n = nbrptr.len() - 1;
    check_indptr(&nbrptr, n, nbridx.len(), "neighbour lists")?;
    let mut lists = Vec::with_capacity(n);
    for e in 0..n {
        let (lo, hi) = (nbrptr[e] as usize, nbrptr[e + 1] as usize);
        let list: Vec<Neighbor> = (lo..hi)
            .map(|at| Neighbor {
                index: nbridx[at],
                similarity: nbrsim[at],
            })
            .collect();
        if list.iter().any(|nb| !nb.similarity.is_finite()) {
            return Err(bad(format!("entity {e}: non-finite similarity")));
        }
        lists.push(list);
    }
    let [rows, cols] = r.u64_meta::<2>("rmeta")?;
    let rows = SectionReader::shape(rows, "n_rows")?;
    let cols = SectionReader::shape(cols, "n_cols")?;
    let rptr = r.u64s("rptr")?;
    let rcol = r.u32s("rcol")?;
    check_indptr(&rptr, rows, rcol.len(), "interactions")?;
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(rcol.len());
    for u in 0..rows {
        for at in rptr[u] as usize..rptr[u + 1] as usize {
            pairs.push((u, rcol[at] as usize));
        }
    }
    let matrix = CsrMatrix::from_pairs(rows, cols, &pairs).map_err(|e| bad(e.to_string()))?;
    Ok((lists, matrix))
}

/// Validates that every neighbour index in `lists` addresses an entity
/// below `bound` — corrupt snapshots must be rejected at load, not panic
/// at request time.
fn check_neighbor_bounds(lists: &[Vec<Neighbor>], bound: usize) -> Result<(), OcularError> {
    for (e, list) in lists.iter().enumerate() {
        for n in list {
            if n.index as usize >= bound {
                return Err(bad(format!(
                    "entity {e}: neighbour index {} out of bounds for {bound} entities",
                    n.index
                )));
            }
        }
    }
    Ok(())
}

/// Fitted user-based cosine kNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct UserKnn {
    neighbors: Vec<Vec<Neighbor>>,
    r: CsrMatrix,
}

impl UserKnn {
    /// Model name in reports and error messages.
    pub const NAME: &'static str = "user-based";
    /// Snapshot kind tag.
    pub const KIND: &'static str = "user-knn";

    /// Computes every user's top-k neighbours; similarity accumulation
    /// walks the dataset's build-once CSC dual view.
    pub fn fit(data: &Dataset, cfg: &KnnConfig) -> Self {
        UserKnn {
            neighbors: top_k_neighbors(data.matrix(), data.item_view(), cfg.k),
            r: data.matrix().clone(),
        }
    }

    /// The neighbours of `u` (for explanations: "similar users also
    /// bought…").
    pub fn neighbors_of(&self, u: usize) -> &[Neighbor] {
        &self.neighbors[u]
    }
}

impl ScoreItems for UserKnn {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn n_users(&self) -> usize {
        self.r.n_rows()
    }

    fn n_items(&self) -> usize {
        self.r.n_cols()
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.r.n_cols(), 0.0);
        for n in &self.neighbors[u] {
            for &i in self.r.row(n.index as usize) {
                out[i as usize] += n.similarity;
            }
        }
    }
}

// Scoring a cold basket user-based would need similarities against every
// training user, which are not precomputed — `as_fold_in` stays `None`.
impl Recommender for UserKnn {}

impl SnapshotModel for UserKnn {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn load_model(r: &mut dyn BufRead) -> Result<Self, OcularError> {
        let header = read_line(r)?;
        let f: Vec<&str> = header.split_whitespace().collect();
        if f.len() != 3 || f[0] != "user-knn-model" || f[1] != "v1" {
            return Err(bad("bad user-knn-model header"));
        }
        let n: usize = f[2].parse().map_err(|_| bad("bad entity count"))?;
        let neighbors = read_neighbors(r, n)?;
        let matrix = read_csr(r)?;
        if matrix.n_rows() != n {
            return Err(bad("neighbour lists and interactions disagree on users"));
        }
        // user neighbours index rows of the interaction matrix
        check_neighbor_bounds(&neighbors, matrix.n_rows())?;
        Ok(UserKnn {
            neighbors,
            r: matrix,
        })
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        write_knn_sections(w, &self.neighbors, &self.r);
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        let (neighbors, matrix) = read_knn_sections(r)?;
        if matrix.n_rows() != neighbors.len() {
            return Err(bad("neighbour lists and interactions disagree on users"));
        }
        check_neighbor_bounds(&neighbors, matrix.n_rows())?;
        Ok(UserKnn {
            neighbors,
            r: matrix,
        })
    }
}

/// Fitted item-based cosine kNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemKnn {
    /// `neighbors[j]` = top-k items similar to item `j`.
    neighbors: Vec<Vec<Neighbor>>,
    r: CsrMatrix,
}

impl ItemKnn {
    /// Model name in reports and error messages.
    pub const NAME: &'static str = "item-based";
    /// Snapshot kind tag.
    pub const KIND: &'static str = "item-knn";

    /// Computes every item's top-k neighbours (on the dataset's item×user
    /// dual view — no transpose is built here).
    pub fn fit(data: &Dataset, cfg: &KnnConfig) -> Self {
        ItemKnn {
            neighbors: top_k_neighbors(data.item_view(), data.matrix(), cfg.k),
            r: data.matrix().clone(),
        }
    }

    /// The neighbours of item `j` (for explanations: "user bought the
    /// similar items…").
    pub fn neighbors_of(&self, j: usize) -> &[Neighbor] {
        &self.neighbors[j]
    }

    /// Scores an arbitrary basket of items — the shared core of warm
    /// scoring (`basket` = the user's training row) and cold-start fold-in.
    fn score_items(&self, basket: impl Iterator<Item = usize>, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.r.n_cols(), 0.0);
        for j in basket {
            for n in &self.neighbors[j] {
                out[n.index as usize] += n.similarity;
            }
        }
    }
}

impl ScoreItems for ItemKnn {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn n_users(&self) -> usize {
        self.r.n_rows()
    }

    fn n_items(&self) -> usize {
        self.r.n_cols()
    }

    fn score_user(&self, u: usize, out: &mut Vec<f64>) {
        self.score_items(self.r.row(u).iter().map(|&j| j as usize), out);
    }
}

impl Recommender for ItemKnn {
    fn as_fold_in(&self) -> Option<&dyn FoldIn> {
        Some(self)
    }
}

impl FoldIn for ItemKnn {
    fn score_basket(&self, basket: &[usize], out: &mut Vec<f64>) -> Result<(), OcularError> {
        validate_basket(basket, self.r.n_cols())?;
        self.score_items(basket.iter().copied(), out);
        Ok(())
    }
}

impl SnapshotModel for ItemKnn {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn load_model(r: &mut dyn BufRead) -> Result<Self, OcularError> {
        let header = read_line(r)?;
        let f: Vec<&str> = header.split_whitespace().collect();
        if f.len() != 3 || f[0] != "item-knn-model" || f[1] != "v1" {
            return Err(bad("bad item-knn-model header"));
        }
        let n: usize = f[2].parse().map_err(|_| bad("bad entity count"))?;
        let neighbors = read_neighbors(r, n)?;
        let matrix = read_csr(r)?;
        if matrix.n_cols() != n {
            return Err(bad("neighbour lists and interactions disagree on items"));
        }
        // item neighbours index columns of the interaction matrix
        check_neighbor_bounds(&neighbors, matrix.n_cols())?;
        Ok(ItemKnn {
            neighbors,
            r: matrix,
        })
    }

    fn write_sections(&self, w: &mut ocular_api::SectionWriter) -> Result<(), OcularError> {
        write_knn_sections(w, &self.neighbors, &self.r);
        Ok(())
    }

    fn read_sections(r: &ocular_api::SectionReader) -> Result<Self, OcularError> {
        let (neighbors, matrix) = read_knn_sections(r)?;
        if matrix.n_cols() != neighbors.len() {
            return Err(bad("neighbour lists and interactions disagree on items"));
        }
        check_neighbor_bounds(&neighbors, matrix.n_cols())?;
        Ok(ItemKnn {
            neighbors,
            r: matrix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two user groups with one bridge: users {0,1} like items {0,1};
    /// users {2,3} like items {2,3}; user 1 additionally owns item 2.
    fn blocks() -> Dataset {
        Dataset::from_matrix(blocks_matrix())
    }

    fn blocks_matrix() -> CsrMatrix {
        CsrMatrix::from_pairs(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn user_knn_recommends_from_neighbors() {
        let r = blocks();
        let model = UserKnn::fit(&r, &KnnConfig { k: 2 });
        let mut scores = Vec::new();
        model.score_user(0, &mut scores);
        // user 0's only overlapping neighbour is user 1, who owns item 2
        assert!(scores[2] > 0.0, "bridge item must get positive score");
        assert_eq!(scores[3], 0.0, "item 3 is outside the neighbourhood");
        // all of user 1's items receive that single neighbour's similarity
        assert!((scores[0] - scores[2]).abs() < 1e-12);
    }

    #[test]
    fn item_knn_recommends_similar_items() {
        let r = blocks();
        let model = ItemKnn::fit(&r, &KnnConfig { k: 2 });
        let mut scores = Vec::new();
        model.score_user(0, &mut scores);
        // user 0 owns {0,1}; item 2 is similar to both (via user 1)
        assert!(scores[2] > 0.0);
        assert!(scores[2] > scores[3], "item 3 shares no users with 0/1");
    }

    #[test]
    fn item_knn_cold_basket_matches_warm_row() {
        let r = blocks();
        let model = ItemKnn::fit(&r, &KnnConfig { k: 2 });
        // a cold basket equal to user 0's row scores identically
        let mut cold = Vec::new();
        model.score_basket(&[0, 1], &mut cold).unwrap();
        let mut warm = Vec::new();
        model.score_user(0, &mut warm);
        assert_eq!(cold, warm);
        // invalid baskets are typed errors
        assert!(matches!(
            model.score_basket(&[9], &mut cold),
            Err(OcularError::BadBasket(_))
        ));
        assert!(model.as_fold_in().is_some());
        let user_model = UserKnn::fit(&r, &KnnConfig { k: 2 });
        assert!(user_model.as_fold_in().is_none());
    }

    #[test]
    fn scores_zero_for_cold_users() {
        let r = Dataset::from_matrix(CsrMatrix::from_pairs(3, 3, &[(0, 0), (1, 1)]).unwrap());
        let u = UserKnn::fit(&r, &KnnConfig::default());
        let i = ItemKnn::fit(&r, &KnnConfig::default());
        let mut scores = Vec::new();
        u.score_user(2, &mut scores);
        assert!(scores.iter().all(|&s| s == 0.0));
        i.score_user(2, &mut scores);
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn neighbourhood_size_limits_influence() {
        let r = blocks();
        let narrow = UserKnn::fit(&r, &KnnConfig { k: 1 });
        assert!(narrow.neighbors_of(0).len() <= 1);
        let wide = UserKnn::fit(&r, &KnnConfig { k: 10 });
        assert!(wide.neighbors_of(0).len() >= narrow.neighbors_of(0).len());
    }

    #[test]
    fn user_knn_matches_manual_computation() {
        let r = blocks();
        let model = UserKnn::fit(&r, &KnnConfig { k: 10 });
        let mut scores = Vec::new();
        model.score_user(3, &mut scores);
        // manual: neighbours of 3 are users 2 (shares {2,3}) and 1 (shares {2})
        let sim32 = crate::similarity::cosine(&r, 3, 2);
        let sim31 = crate::similarity::cosine(&r, 3, 1);
        assert!((scores[2] - (sim32 + sim31)).abs() < 1e-12);
        assert!((scores[3] - sim32).abs() < 1e-12);
        assert!((scores[0] - sim31).abs() < 1e-12);
    }

    /// The `item-knn-model v1` payload of the committed v2 golden (the
    /// envelope header line stripped; the reader stops where it ends).
    fn golden_item_knn_text() -> &'static str {
        let snap = include_str!("../../../tests/data/golden/v2-item-knn.snap");
        snap.split_once('\n').unwrap().1
    }

    #[test]
    fn snapshot_roundtrips_bitwise_for_both_variants() {
        let r = blocks();
        let user_model = UserKnn::fit(&r, &KnnConfig { k: 2 });
        assert_eq!(crate::section_cycle(&user_model).unwrap(), user_model);
        let item_model = ItemKnn::fit(&r, &KnnConfig { k: 2 });
        assert_eq!(crate::section_cycle(&item_model).unwrap(), item_model);
        // text payloads are kind-tagged: loading one as the other is rejected
        let text = golden_item_knn_text();
        assert!(ItemKnn::load_model(&mut text.as_bytes()).is_ok());
        assert!(UserKnn::load_model(&mut text.as_bytes()).is_err());
        // an entity count nobody checked is not a capacity
        for bomb in [
            "user-knn-model v1 1000000000000\n",
            "item-knn-model v1 1000000000000\n",
        ] {
            assert!(UserKnn::load_model(&mut bomb.as_bytes()).is_err());
            assert!(ItemKnn::load_model(&mut bomb.as_bytes()).is_err());
        }
    }

    #[test]
    fn corrupt_neighbour_payloads_rejected_at_load() {
        let text = golden_item_knn_text();
        // out-of-bounds neighbour index: must fail at load, not panic when
        // a request later indexes the score buffer
        let sim_pos = text.find(':').unwrap();
        let idx_pos = text[..sim_pos].rfind(' ').unwrap() + 1;
        let tampered = format!("{}999{}", &text[..idx_pos], &text[sim_pos..]);
        assert!(matches!(
            ItemKnn::load_model(&mut tampered.as_bytes()),
            Err(OcularError::Corrupt(msg)) if msg.contains("out of bounds")
        ));
        // non-finite similarity: rejected instead of panicking in topk
        let end = text[sim_pos..]
            .find([' ', '\n'])
            .map(|o| sim_pos + o)
            .unwrap();
        let tampered = format!("{}:NaN{}", &text[..sim_pos], &text[end..]);
        assert!(matches!(
            ItemKnn::load_model(&mut tampered.as_bytes()),
            Err(OcularError::Corrupt(msg)) if msg.contains("similarity")
        ));
    }

    #[test]
    fn trait_dimensions() {
        let r = blocks();
        let m = ItemKnn::fit(&r, &KnnConfig::default());
        assert_eq!(m.n_users(), 4);
        assert_eq!(m.n_items(), 4);
        assert_eq!(m.name(), "item-based");
    }
}
