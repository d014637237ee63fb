//! # ocular-sparse
//!
//! Sparse binary interaction-matrix substrate for the OCuLaR reproduction
//! (Heckel et al., *Scalable and interpretable product recommendations via
//! overlapping co-clustering*, ICDE 2017).
//!
//! Every algorithm in the paper — OCuLaR itself, the matrix-factorization
//! baselines, the neighbourhood models and the community-detection
//! comparators — consumes the same input: a binary matrix `R` whose rows are
//! users (clients) and whose columns are items (products), with `r_ui = 1`
//! meaning "user `u` purchased / is interested in item `i`" and `r_ui = 0`
//! meaning *unknown* (One-Class Collaborative Filtering). This crate provides
//! that substrate:
//!
//! * [`Dataset`] — the shared dual-view interaction store every layer
//!   trains, evaluates and serves from: the CSR matrix plus a build-once
//!   CSC (item×user) view, cached degree stats and O(1) external↔internal
//!   id maps — one open-addressed [`RawIdTable`] per axis, the same from
//!   ingest through the v3 snapshot to a served request;
//! * [`Triplets`] — a COO staging area for incrementally collected
//!   `(user, item)` pairs with deduplication, and [`StreamingTriplets`] —
//!   its chunked streaming counterpart for ingestion;
//! * [`CsrMatrix`] — the compressed sparse-row matrix used everywhere else,
//!   with O(1) row access, O(log d) membership tests and an exact
//!   [`CsrMatrix::transpose`] (constructed once per dataset through
//!   [`Dataset::item_view`]);
//! * [`split`] — seeded train/test splitting (the paper's 75/25 protocol);
//! * [`sample`] — uniform sub-sampling of positive examples (used for the
//!   Figure 7 scalability sweep over fractions of the Netflix dataset);
//! * [`io`] — plain-text, CSV, MovieLens `::` and Netflix-style readers and
//!   writers;
//! * [`stats`] — density and degree-distribution summaries.
//!
//! ## Example
//!
//! ```
//! use ocular_sparse::{Dataset, Triplets};
//!
//! let mut t = Triplets::new(3, 4);
//! t.push(0, 1).unwrap();
//! t.push(0, 2).unwrap();
//! t.push(2, 3).unwrap();
//! t.push(2, 3).unwrap(); // duplicates collapse
//! let r = Dataset::from_matrix(t.to_csr());
//! assert_eq!(r.nnz(), 3);
//! assert!(r.contains(0, 2));
//! assert!(!r.contains(1, 0));
//! // the CSC dual view is built once and cached — every consumer
//! // shares this one copy instead of re-transposing
//! assert!(r.item_view().contains(2, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
pub mod dataset;
pub mod io;
pub mod sample;
pub mod split;
pub mod stats;

pub use coo::Triplets;
pub use csr::CsrMatrix;
pub use dataset::{Dataset, DatasetBuilder, StreamingTriplets};
pub use io::{IdMaps, RawIdTable};
pub use split::{Split, SplitConfig};

use std::fmt;

/// Checked conversion of an item/column index to the CSR storage type.
///
/// Column indices are stored as `u32`; a bare `as u32` cast on a catalog
/// near or above `u32::MAX` wraps silently and corrupts membership and
/// exclusion filtering downstream. Every cast site in the workspace routes
/// through this helper (or compares in the `usize` domain), so oversized
/// catalogs fail loudly here instead.
///
/// # Panics
/// Panics if `i > u32::MAX`.
#[inline]
pub fn col_index(i: usize) -> u32 {
    u32::try_from(i).expect("item index exceeds u32::MAX: catalog too large for CsrMatrix columns")
}

/// Errors produced while constructing or manipulating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A row index was `>= n_rows`.
    RowOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Number of rows in the matrix.
        n_rows: usize,
    },
    /// A column index was `>= n_cols`.
    ColOutOfBounds {
        /// Offending column index.
        col: usize,
        /// Number of columns in the matrix.
        n_cols: usize,
    },
    /// Raw CSR arrays handed to [`CsrMatrix::from_raw`] were inconsistent.
    MalformedCsr(
        /// Human-readable description of the inconsistency.
        String,
    ),
    /// An I/O or parse failure while reading a dataset file.
    Io(
        /// Human-readable description of the failure.
        String,
    ),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::RowOutOfBounds { row, n_rows } => {
                write!(f, "row index {row} out of bounds for {n_rows} rows")
            }
            SparseError::ColOutOfBounds { col, n_cols } => {
                write!(f, "column index {col} out of bounds for {n_cols} columns")
            }
            SparseError::MalformedCsr(msg) => write!(f, "malformed CSR arrays: {msg}"),
            SparseError::Io(msg) => write!(f, "sparse I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
