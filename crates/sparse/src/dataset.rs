//! The shared dual-view interaction store — the data backbone every layer
//! of the workspace trains, evaluates, and serves from.
//!
//! Historically each consumer re-derived its own view of the interaction
//! data: the trainer called [`CsrMatrix::transpose`] per fit, item-kNN
//! rebuilt per-item user lists, id lookups were linear scans. [`Dataset`]
//! centralises all of it behind one immutable, cheaply shareable value:
//!
//! * the CSR **user×item** matrix (`Deref`s straight to [`CsrMatrix`], so
//!   every existing accessor keeps working);
//! * a build-once **item×user** dual view ([`Dataset::item_view`]) — the
//!   CSC layout of `R`, computed lazily on first use and then shared by
//!   every item-sweep, kNN build and wALS half-sweep;
//! * cached per-axis degree vectors ([`Dataset::user_degrees`],
//!   [`Dataset::item_degrees`]);
//! * optional **external↔internal id maps** ([`crate::io::IdMaps`], one
//!   open-addressed table per axis) with O(1) lookups in both directions,
//!   shared by `Arc` so train/test splits and serving snapshots agree on
//!   the id space by construction.
//!
//! `Dataset` is immutable after construction, so `&Dataset` (or
//! `Arc<Dataset>`) can be handed to trainers, evaluators and serving
//! engines concurrently without copies.

use crate::io::IdMaps;
use crate::split::{Split, SplitConfig};
use crate::{CsrMatrix, SparseError};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable interaction store: CSR matrix + lazy CSC dual view +
/// cached stats + optional external-id maps. See the [module docs](self).
pub struct Dataset {
    matrix: CsrMatrix,
    /// `None` = identity mapping (internal index `i` ↔ external id `i`).
    ids: Option<Arc<IdMaps>>,
    item_view: OnceLock<CsrMatrix>,
    user_degrees: OnceLock<Vec<usize>>,
    item_degrees: OnceLock<Vec<usize>>,
}

impl Dataset {
    /// Wraps a matrix with the identity id mapping.
    pub fn from_matrix(matrix: CsrMatrix) -> Self {
        Dataset {
            matrix,
            ids: None,
            item_view: OnceLock::new(),
            user_degrees: OnceLock::new(),
            item_degrees: OnceLock::new(),
        }
    }

    /// Wraps a matrix with external-id maps. The maps must cover exactly
    /// the matrix's rows and columns.
    pub fn new(matrix: CsrMatrix, ids: IdMaps) -> Result<Self, SparseError> {
        Self::with_ids(matrix, Arc::new(ids))
    }

    /// Like [`Dataset::new`] but shares an existing `Arc`'d map (splits and
    /// snapshots use this so the whole pipeline points at one table).
    pub fn with_ids(matrix: CsrMatrix, ids: Arc<IdMaps>) -> Result<Self, SparseError> {
        if ids.n_users() != matrix.n_rows() || ids.n_items() != matrix.n_cols() {
            return Err(SparseError::MalformedCsr(format!(
                "id maps cover {}×{} but matrix is {}×{}",
                ids.n_users(),
                ids.n_items(),
                matrix.n_rows(),
                matrix.n_cols()
            )));
        }
        Ok(Dataset {
            matrix,
            ids: Some(ids),
            item_view: OnceLock::new(),
            user_degrees: OnceLock::new(),
            item_degrees: OnceLock::new(),
        })
    }

    /// The CSR user×item matrix (also reachable through `Deref`).
    #[inline]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Consumes the dataset, returning the underlying matrix.
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    /// Number of users (rows).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.matrix.n_rows()
    }

    /// Number of items (columns).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.matrix.n_cols()
    }

    /// The item×user dual view — the CSC layout of `R`, i.e. row `i` lists
    /// the users who purchased item `i`. Built once (O(nnz)) on first
    /// access and cached; every item-sweep and kNN build shares this one
    /// copy instead of re-transposing.
    pub fn item_view(&self) -> &CsrMatrix {
        self.item_view.get_or_init(|| self.matrix.transpose())
    }

    /// Per-user degrees, computed once and cached.
    pub fn user_degrees(&self) -> &[usize] {
        self.user_degrees.get_or_init(|| self.matrix.row_degrees())
    }

    /// Per-item degrees (item popularity), computed once and cached.
    pub fn item_degrees(&self) -> &[usize] {
        self.item_degrees.get_or_init(|| self.matrix.col_degrees())
    }

    /// The external-id maps, if the dataset was built from compacted ids
    /// (`None` = identity mapping).
    pub fn ids(&self) -> Option<&IdMaps> {
        self.ids.as_deref()
    }

    /// The shared `Arc` of the id maps, for handing to snapshots/splits.
    pub fn ids_arc(&self) -> Option<Arc<IdMaps>> {
        self.ids.clone()
    }

    /// Internal row of an external user id, O(1). Under the identity
    /// mapping any `external < n_users` resolves to itself.
    pub fn user_index(&self, external: u64) -> Option<usize> {
        match &self.ids {
            Some(ids) => ids.user_index(external),
            None => usize::try_from(external)
                .ok()
                .filter(|&u| u < self.n_users()),
        }
    }

    /// Internal column of an external item id, O(1).
    pub fn item_index(&self, external: u64) -> Option<usize> {
        match &self.ids {
            Some(ids) => ids.item_index(external),
            None => usize::try_from(external)
                .ok()
                .filter(|&i| i < self.n_items()),
        }
    }

    /// External id of internal user `u`.
    ///
    /// # Panics
    /// Panics if `u >= n_users`.
    pub fn external_user(&self, u: usize) -> u64 {
        match &self.ids {
            Some(ids) => ids.external_user(u).expect("user index in bounds"),
            None => {
                assert!(u < self.n_users(), "user index {u} out of bounds");
                u as u64
            }
        }
    }

    /// External id of internal item `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_items`.
    pub fn external_item(&self, i: usize) -> u64 {
        match &self.ids {
            Some(ids) => ids.external_item(i).expect("item index in bounds"),
            None => {
                assert!(i < self.n_items(), "item index {i} out of bounds");
                i as u64
            }
        }
    }

    /// Restricts the dataset to a subset of positives (same shape, same
    /// shared id maps) — the primitive behind train/test splits and
    /// cross-validation folds, which is how both sides of a split share
    /// one id space by construction.
    pub fn filter_nnz(&self, keep: &[bool]) -> Dataset {
        Dataset {
            matrix: self.matrix.filter_nnz(keep),
            ids: self.ids.clone(),
            item_view: OnceLock::new(),
            user_degrees: OnceLock::new(),
            item_degrees: OnceLock::new(),
        }
    }

    /// Splits into train/test datasets that share this dataset's id maps
    /// (see [`Split::new`]).
    pub fn split(&self, cfg: &SplitConfig) -> Split {
        Split::new(self, cfg)
    }

    /// Starts a delta batch over this dataset — see [`DatasetBuilder`].
    /// The base is cloned: the matrix clone is `O(unique)`, and the id
    /// maps' order and table arrays are copied (or, mapped, copied on the
    /// first never-seen id), never re-hashed.
    pub fn delta_builder(&self) -> DatasetBuilder {
        DatasetBuilder {
            base: self.clone(),
            ids: self.ids().cloned(),
            staged: StreamingTriplets::new(),
            pushed: 0,
            max_row: 0,
            max_col: 0,
        }
    }

    /// Merges a batch of external `(user, item)` records over this dataset
    /// in one pass, extending the id maps for never-seen users and items.
    ///
    /// Cost is `O(new + unique)` — one sorted-run merge over the existing
    /// positives plus compaction of the delta records; the original
    /// interaction log is **not** re-read or re-parsed. The result is
    /// bit-identical to re-ingesting the concatenated base+delta stream
    /// from scratch (property-tested), because new externals are assigned
    /// internal indices in first-appearance order *after* the existing
    /// ones, exactly as a full re-ingest would.
    pub fn append_deltas<I>(&self, records: I) -> Result<Dataset, SparseError>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut b = self.delta_builder();
        for (u, i) in records {
            b.push(u, i)?;
        }
        b.finish()
    }
}

/// Incremental extension of an immutable [`Dataset`]: stage delta records
/// (external ids), then [`finish`](DatasetBuilder::finish) into a new
/// `Dataset` via **one** sorted-run merge over the existing positives —
/// `O(new + unique)`, never a re-ingest of the original log.
///
/// Never-seen users/items extend the id space in first-appearance order,
/// so existing internal indices (and therefore any model trained on the
/// base dataset) stay valid: the base is always an index-prefix of the
/// result. Under the identity mapping (no id maps) the delta records are
/// internal indices and the shape grows to cover them.
pub struct DatasetBuilder {
    base: Dataset,
    /// The base's id maps, growing; `None` = identity.
    ids: Option<IdMaps>,
    staged: StreamingTriplets,
    pushed: usize,
    max_row: usize,
    max_col: usize,
}

impl DatasetBuilder {
    /// Stages one delta record, given as **external** ids (internal
    /// indices under the identity mapping).
    pub fn push(&mut self, user: u64, item: u64) -> Result<(), SparseError> {
        let (r, c) = match &mut self.ids {
            Some(ids) => ids.compact(user, item)?,
            None => {
                let r = usize::try_from(user).map_err(|_| SparseError::RowOutOfBounds {
                    row: usize::MAX,
                    n_rows: u32::MAX as usize,
                })?;
                let c = usize::try_from(item).map_err(|_| SparseError::ColOutOfBounds {
                    col: usize::MAX,
                    n_cols: u32::MAX as usize,
                })?;
                (r, c)
            }
        };
        self.max_row = self.max_row.max(r);
        self.max_col = self.max_col.max(c);
        self.pushed += 1;
        self.staged.push(r, c)
    }

    /// Number of users the result will have (base + never-seen).
    pub fn n_users(&self) -> usize {
        match &self.ids {
            Some(ids) => ids.n_users(),
            None if self.pushed > 0 => self.base.n_users().max(self.max_row + 1),
            None => self.base.n_users(),
        }
    }

    /// Number of items the result will have (base + never-seen).
    pub fn n_items(&self) -> usize {
        match &self.ids {
            Some(ids) => ids.n_items(),
            None if self.pushed > 0 => self.base.n_items().max(self.max_col + 1),
            None => self.base.n_items(),
        }
    }

    /// Merges the staged delta run over the base positives and builds the
    /// extended dataset. One `O(new + unique)` pass; when no never-seen
    /// users/items appeared, the result **shares** the base's id-map
    /// `Arc`, so "same id space" stays checkable by pointer identity.
    pub fn finish(self) -> Result<Dataset, SparseError> {
        let (n_users, n_items) = (self.n_users(), self.n_items());
        if self.pushed == 0 {
            return Ok(self.base);
        }
        let delta = self.staged.into_sorted_pairs();
        let base_pairs: Vec<(u32, u32)> = self
            .base
            .matrix()
            .iter_nnz()
            .map(|(r, c)| (r as u32, c as u32))
            .collect();
        let merged = merge_dedup(&base_pairs, &delta);
        let matrix = CsrMatrix::from_sorted_unique_pairs(n_users, n_items, &merged);
        match self.ids {
            Some(ids) => {
                if n_users == self.base.n_users() && n_items == self.base.n_items() {
                    let ids = self.base.ids_arc().expect("grown maps imply base maps");
                    Dataset::with_ids(matrix, ids)
                } else {
                    Dataset::new(matrix, ids)
                }
            }
            None => Ok(Dataset::from_matrix(matrix)),
        }
    }
}

impl Deref for Dataset {
    type Target = CsrMatrix;

    fn deref(&self) -> &CsrMatrix {
        &self.matrix
    }
}

impl From<CsrMatrix> for Dataset {
    fn from(matrix: CsrMatrix) -> Self {
        Dataset::from_matrix(matrix)
    }
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset {
            matrix: self.matrix.clone(),
            ids: self.ids.clone(),
            // cached views are cheap to rebuild; don't force them here
            item_view: OnceLock::new(),
            user_degrees: OnceLock::new(),
            item_degrees: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("n_users", &self.n_users())
            .field("n_items", &self.n_items())
            .field("nnz", &self.matrix.nnz())
            .field("has_ids", &self.ids.is_some())
            .finish()
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix && self.ids() == other.ids()
    }
}

impl Eq for Dataset {}

/// Chunked COO staging for streaming ingestion.
///
/// [`crate::Triplets`] keeps every staged record (duplicates included) in
/// one `Vec` until conversion — fine for generators, but a repeat-heavy
/// interaction log (the common shape of purchase data) materialises the
/// whole file. `StreamingTriplets` instead sorts and deduplicates in
/// bounded **chunks** and merges sorted runs as it goes, so peak memory is
/// `O(unique pairs + chunk)` regardless of how many raw records stream
/// through. The chunked readers in [`crate::io`] feed records here one at
/// a time; nothing ever holds the raw record list.
#[derive(Debug, Clone)]
pub struct StreamingTriplets {
    chunk: Vec<(u32, u32)>,
    chunk_capacity: usize,
    /// Sorted, deduplicated runs; adjacent runs of comparable size are
    /// merged eagerly (binary-counter discipline), keeping the run count
    /// logarithmic in the total.
    runs: Vec<Vec<(u32, u32)>>,
    max_row: Option<u32>,
    max_col: Option<u32>,
}

/// Default chunk capacity: ~8 MiB of staged pairs.
const DEFAULT_CHUNK: usize = 1 << 20;

impl StreamingTriplets {
    /// An empty builder with the default chunk capacity.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_CHUNK)
    }

    /// An empty builder whose staging chunk holds `cap` pairs (minimum 1).
    /// Small capacities are useful in tests to force the merge machinery.
    pub fn with_chunk_capacity(cap: usize) -> Self {
        StreamingTriplets {
            chunk: Vec::new(),
            chunk_capacity: cap.max(1),
            runs: Vec::new(),
            max_row: None,
            max_col: None,
        }
    }

    /// Stages `r[row, col] = 1`. Errors if either index exceeds the `u32`
    /// storage domain; shape bounds are validated at [`finish`].
    ///
    /// [`finish`]: StreamingTriplets::finish
    pub fn push(&mut self, row: usize, col: usize) -> Result<(), SparseError> {
        let r = u32::try_from(row).map_err(|_| SparseError::RowOutOfBounds {
            row,
            n_rows: u32::MAX as usize,
        })?;
        let c = u32::try_from(col).map_err(|_| SparseError::ColOutOfBounds {
            col,
            n_cols: u32::MAX as usize,
        })?;
        self.max_row = Some(self.max_row.map_or(r, |m| m.max(r)));
        self.max_col = Some(self.max_col.map_or(c, |m| m.max(c)));
        self.chunk.push((r, c));
        if self.chunk.len() >= self.chunk_capacity {
            self.seal_chunk();
        }
        Ok(())
    }

    /// Number of sorted runs currently held (test observability).
    pub fn run_count(&self) -> usize {
        self.runs.len() + usize::from(!self.chunk.is_empty())
    }

    fn seal_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.chunk);
        run.sort_unstable();
        run.dedup();
        self.runs.push(run);
        // merge the binary-counter way: whenever the top two runs are
        // within 2× of each other, collapse them
        while self.runs.len() >= 2 {
            let a = self.runs[self.runs.len() - 2].len();
            let b = self.runs[self.runs.len() - 1].len();
            if a > 2 * b {
                break;
            }
            let top = self.runs.pop().expect("len checked");
            let below = self.runs.pop().expect("len checked");
            self.runs.push(merge_dedup(&below, &top));
        }
    }

    /// Finishes staging: merges all runs and builds the CSR matrix for the
    /// given logical shape. Errors if any staged index is out of bounds.
    pub fn finish(mut self, n_rows: usize, n_cols: usize) -> Result<CsrMatrix, SparseError> {
        self.seal_chunk();
        if let Some(m) = self.max_row {
            if m as usize >= n_rows {
                return Err(SparseError::RowOutOfBounds {
                    row: m as usize,
                    n_rows,
                });
            }
        }
        if let Some(m) = self.max_col {
            if m as usize >= n_cols {
                return Err(SparseError::ColOutOfBounds {
                    col: m as usize,
                    n_cols,
                });
            }
        }
        let pairs = self.into_sorted_pairs();
        Ok(CsrMatrix::from_sorted_unique_pairs(n_rows, n_cols, &pairs))
    }

    /// Collapses all staged runs into one sorted, deduplicated pair list —
    /// the primitive [`finish`] builds its matrix from, and the sorted run
    /// a [`crate::DatasetBuilder`] merges over an existing dataset.
    ///
    /// [`finish`]: StreamingTriplets::finish
    pub fn into_sorted_pairs(mut self) -> Vec<(u32, u32)> {
        self.seal_chunk();
        let mut runs = self.runs;
        while runs.len() >= 2 {
            // merge smallest-last to keep the fold balanced
            runs.sort_by_key(|r| std::cmp::Reverse(r.len()));
            let a = runs.pop().expect("len checked");
            let b = runs.pop().expect("len checked");
            runs.push(merge_dedup(&b, &a));
        }
        runs.pop().unwrap_or_default()
    }
}

impl Default for StreamingTriplets {
    fn default() -> Self {
        Self::new()
    }
}

/// Merges two sorted, deduplicated pair lists into one.
fn merge_dedup(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_pairs(3, 4, &[(0, 0), (0, 1), (1, 3), (2, 0), (2, 2)]).unwrap()
    }

    #[test]
    fn deref_exposes_matrix_accessors() {
        let d = Dataset::from_matrix(sample());
        assert_eq!(d.nnz(), 5);
        assert_eq!(d.row(0), &[0, 1]);
        assert!(d.contains(1, 3));
        assert_eq!(d.n_users(), 3);
        assert_eq!(d.n_items(), 4);
    }

    #[test]
    fn item_view_is_the_transpose_and_cached() {
        let d = Dataset::from_matrix(sample());
        let v1 = d.item_view() as *const CsrMatrix;
        let v2 = d.item_view() as *const CsrMatrix;
        assert_eq!(v1, v2, "second access must hit the cache");
        assert_eq!(*d.item_view(), d.matrix().transpose());
    }

    #[test]
    fn degrees_cached_and_correct() {
        let d = Dataset::from_matrix(sample());
        assert_eq!(d.user_degrees(), &[2, 1, 2]);
        assert_eq!(d.item_degrees(), &[2, 1, 1, 1]);
    }

    #[test]
    fn identity_id_mapping() {
        let d = Dataset::from_matrix(sample());
        assert!(d.ids().is_none());
        assert_eq!(d.user_index(2), Some(2));
        assert_eq!(d.user_index(3), None);
        assert_eq!(d.item_index(3), Some(3));
        assert_eq!(d.item_index(99), None);
        assert_eq!(d.external_user(1), 1);
        assert_eq!(d.external_item(2), 2);
    }

    #[test]
    fn external_id_mapping_round_trips() {
        let ids = IdMaps::new(vec![100, 7, 42], vec![9, 8, 7, 6]).unwrap();
        let d = Dataset::new(sample(), ids).unwrap();
        assert_eq!(d.user_index(7), Some(1));
        assert_eq!(d.user_index(1), None, "internal ids are not external");
        assert_eq!(d.external_user(1), 7);
        assert_eq!(d.item_index(6), Some(3));
        assert_eq!(d.external_item(0), 9);
        for u in 0..d.n_users() {
            assert_eq!(d.user_index(d.external_user(u)), Some(u));
        }
    }

    #[test]
    fn mismatched_id_maps_rejected() {
        let ids = IdMaps::new(vec![1, 2], vec![1, 2, 3, 4]).unwrap();
        assert!(Dataset::new(sample(), ids).is_err());
    }

    #[test]
    fn filter_shares_id_maps() {
        let ids = IdMaps::new(vec![100, 7, 42], vec![9, 8, 7, 6]).unwrap();
        let d = Dataset::new(sample(), ids).unwrap();
        let kept = d.filter_nnz(&[true, false, true, false, true]);
        assert_eq!(kept.nnz(), 3);
        assert_eq!(kept.n_users(), 3, "shape preserved");
        // the id table is the *same* allocation, not a copy
        assert!(Arc::ptr_eq(&d.ids_arc().unwrap(), &kept.ids_arc().unwrap()));
    }

    #[test]
    fn equality_covers_matrix_and_ids() {
        let a = Dataset::from_matrix(sample());
        let b = Dataset::from_matrix(sample());
        assert_eq!(a, b);
        let c = Dataset::new(
            sample(),
            IdMaps::new(vec![5, 6, 7], vec![1, 2, 3, 4]).unwrap(),
        )
        .unwrap();
        assert_ne!(a, c);
        assert_eq!(c, c.clone());
    }

    #[test]
    fn streaming_matches_triplets_on_duplicates() {
        let pairs = [(2usize, 2usize), (0, 1), (0, 1), (1, 3), (0, 1), (2, 0)];
        let mut t = Triplets::new(3, 4);
        let mut s = StreamingTriplets::with_chunk_capacity(2);
        for &(r, c) in &pairs {
            t.push(r, c).unwrap();
            s.push(r, c).unwrap();
        }
        assert_eq!(s.finish(3, 4).unwrap(), t.into_csr());
    }

    #[test]
    fn streaming_chunk_size_never_changes_the_result() {
        let pairs: Vec<(usize, usize)> = (0..200).map(|k| (k % 7, (k * 13) % 11)).collect();
        let reference = {
            let mut s = StreamingTriplets::new();
            for &(r, c) in &pairs {
                s.push(r, c).unwrap();
            }
            s.finish(7, 11).unwrap()
        };
        for cap in [1, 2, 3, 5, 16, 1000] {
            let mut s = StreamingTriplets::with_chunk_capacity(cap);
            for &(r, c) in &pairs {
                s.push(r, c).unwrap();
            }
            assert_eq!(s.finish(7, 11).unwrap(), reference, "chunk capacity {cap}");
        }
    }

    #[test]
    fn streaming_bounds_checked_at_finish() {
        let mut s = StreamingTriplets::new();
        s.push(5, 0).unwrap();
        assert!(matches!(
            s.clone().finish(5, 1),
            Err(SparseError::RowOutOfBounds { .. })
        ));
        assert!(s.finish(6, 1).is_ok());
    }

    #[test]
    fn streaming_bounded_run_count() {
        let mut s = StreamingTriplets::with_chunk_capacity(8);
        for k in 0..10_000usize {
            s.push(k % 50, (k * 31) % 40).unwrap();
        }
        // 10k pushes at chunk 8 would be 1250 naive runs; the eager merge
        // keeps it logarithmic
        assert!(s.run_count() <= 16, "run count {}", s.run_count());
        let m = s.finish(50, 40).unwrap();
        // pairs repeat with period lcm(50, 40) = 200, all distinct within it
        assert_eq!(m.nnz(), 200);
    }

    #[test]
    fn empty_streaming_builder() {
        let s = StreamingTriplets::new();
        let m = s.finish(3, 3).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn into_sorted_pairs_merges_all_runs() {
        let mut s = StreamingTriplets::with_chunk_capacity(2);
        for &(r, c) in &[(2usize, 2usize), (0, 1), (0, 1), (1, 3), (2, 0)] {
            s.push(r, c).unwrap();
        }
        assert_eq!(
            s.into_sorted_pairs(),
            vec![(0, 1), (1, 3), (2, 0), (2, 2)],
            "sorted, deduplicated, fully merged"
        );
    }

    #[test]
    fn append_deltas_extends_id_space_in_order() {
        let ids = IdMaps::new(vec![100, 7, 42], vec![9, 8, 7, 6]).unwrap();
        let base = Dataset::new(sample(), ids).unwrap();
        // one repeat pair, one new pair on old ids, one brand-new user
        let merged = base
            .append_deltas([(100, 9), (7, 7), (55, 11), (55, 9)])
            .unwrap();
        assert_eq!(merged.n_users(), 4);
        assert_eq!(merged.n_items(), 5);
        assert_eq!(merged.user_index(55), Some(3), "new user appended last");
        assert_eq!(merged.item_index(11), Some(4), "new item appended last");
        // old internal indices are untouched
        for u in 0..base.n_users() {
            assert_eq!(merged.user_index(base.external_user(u)), Some(u));
        }
        assert_eq!(merged.nnz(), base.nnz() + 3, "repeat pair collapsed");
        assert!(merged.contains(1, 2), "delta (7, 7) landed on old indices");
        assert!(merged.contains(3, 0), "delta (55, 9) landed");
    }

    #[test]
    fn append_without_new_entities_shares_the_id_arc() {
        let ids = IdMaps::new(vec![100, 7, 42], vec![9, 8, 7, 6]).unwrap();
        let base = Dataset::new(sample(), ids).unwrap();
        let merged = base.append_deltas([(42, 8), (100, 6)]).unwrap();
        assert_eq!(merged.nnz(), base.nnz() + 2);
        assert!(
            Arc::ptr_eq(&base.ids_arc().unwrap(), &merged.ids_arc().unwrap()),
            "unchanged id space stays pointer-identical"
        );
    }

    #[test]
    fn empty_delta_returns_the_base() {
        let base = Dataset::from_matrix(sample());
        let merged = base.append_deltas(std::iter::empty()).unwrap();
        assert_eq!(merged, base);
        let b = base.delta_builder();
        assert_eq!(b.n_users(), base.n_users());
        assert_eq!(b.n_items(), base.n_items());
    }

    #[test]
    fn identity_append_grows_shape() {
        let base = Dataset::from_matrix(sample()); // 3×4
        let merged = base.append_deltas([(5, 1), (0, 6)]).unwrap();
        assert_eq!(merged.n_users(), 6);
        assert_eq!(merged.n_items(), 7);
        assert!(merged.contains(5, 1));
        assert!(merged.contains(0, 6));
        assert!(merged.contains(0, 0), "base positives survive");
        assert!(merged.ids().is_none());
    }
}
