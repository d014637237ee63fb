//! COO (coordinate / triplet) staging area for building sparse matrices.

use crate::{CsrMatrix, SparseError};

/// An unordered collection of `(user, item)` positive examples.
///
/// `Triplets` is the mutable builder used while ingesting data (from a
/// generator or a file); once complete it is converted into the immutable
/// [`CsrMatrix`] consumed by every algorithm. Duplicate pushes of the same
/// pair are collapsed at conversion time, mirroring the paper's binary model
/// where `r_ui ∈ {0, 1}` (a repeated purchase conveys no extra signal to the
/// one-class objective).
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32)>,
}

impl Triplets {
    /// Creates an empty triplet store for an `n_rows × n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Triplets {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty triplet store with pre-allocated capacity.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        Triplets {
            n_rows,
            n_cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows (users).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (items).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of staged entries, *including* not-yet-collapsed duplicates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stages the positive example `r[row, col] = 1`.
    ///
    /// Returns an error if either index is out of bounds; the bound check at
    /// ingestion time lets every downstream consumer skip per-access checks.
    pub fn push(&mut self, row: usize, col: usize) -> Result<(), SparseError> {
        if row >= self.n_rows {
            return Err(SparseError::RowOutOfBounds {
                row,
                n_rows: self.n_rows,
            });
        }
        if col >= self.n_cols {
            return Err(SparseError::ColOutOfBounds {
                col,
                n_cols: self.n_cols,
            });
        }
        // checked: the in-bounds test above does not imply u32 range when
        // the logical shape itself exceeds u32 addressing
        self.entries
            .push((crate::col_index(row), crate::col_index(col)));
        Ok(())
    }

    /// Extends the store from an iterator of `(row, col)` pairs.
    pub fn extend_pairs<I>(&mut self, pairs: I) -> Result<(), SparseError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (r, c) in pairs {
            self.push(r, c)?;
        }
        Ok(())
    }

    /// Read-only view of the staged entries (row, col), in insertion order.
    pub fn entries(&self) -> &[(u32, u32)] {
        &self.entries
    }

    /// Converts into a [`CsrMatrix`], sorting entries and collapsing
    /// duplicates. Runs in O(nnz log nnz).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable();
        sorted.dedup();
        CsrMatrix::from_sorted_unique_pairs(self.n_rows, self.n_cols, &sorted)
    }

    /// Consuming variant of [`Triplets::to_csr`] that avoids cloning the
    /// staged entries.
    pub fn into_csr(mut self) -> CsrMatrix {
        self.entries.sort_unstable();
        self.entries.dedup();
        CsrMatrix::from_sorted_unique_pairs(self.n_rows, self.n_cols, &self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0).unwrap();
        t.push(1, 2).unwrap();
        t.push(0, 2).unwrap();
        let m = t.to_csr();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row(1), &[2]);
    }

    #[test]
    fn duplicates_collapse() {
        let mut t = Triplets::new(2, 2);
        for _ in 0..5 {
            t.push(1, 1).unwrap();
        }
        assert_eq!(t.len(), 5);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 1);
        assert!(m.contains(1, 1));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = Triplets::new(2, 2);
        assert_eq!(
            t.push(2, 0),
            Err(SparseError::RowOutOfBounds { row: 2, n_rows: 2 })
        );
        assert_eq!(
            t.push(0, 5),
            Err(SparseError::ColOutOfBounds { col: 5, n_cols: 2 })
        );
    }

    #[test]
    fn empty_conversion() {
        let t = Triplets::new(3, 3);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(2), &[] as &[u32]);
    }

    #[test]
    fn into_csr_matches_to_csr() {
        let mut t = Triplets::new(5, 5);
        t.extend_pairs([(4, 1), (0, 0), (4, 1), (2, 3)]).unwrap();
        let a = t.to_csr();
        let b = t.into_csr();
        assert_eq!(a, b);
    }
}
