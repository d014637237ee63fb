//! Summary statistics of interaction matrices.
//!
//! Used by the dataset profiles (to check that synthetic stand-ins have the
//! intended shape) and by the experiment harness when reporting workloads.

use crate::CsrMatrix;

/// Degree-distribution summary of one axis of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeSummary {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// Gini coefficient of the degree distribution — 0 for perfectly uniform
    /// degrees, →1 for extreme concentration. Power-law interaction data
    /// (MovieLens, Netflix) typically lands around 0.4–0.7 on the item axis.
    pub gini: f64,
    /// Number of zero-degree entities (cold users / never-bought items).
    pub zeros: usize,
}

fn summarize(mut degrees: Vec<usize>) -> DegreeSummary {
    if degrees.is_empty() {
        return DegreeSummary {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            gini: 0.0,
            zeros: 0,
        };
    }
    degrees.sort_unstable();
    let n = degrees.len();
    let total: usize = degrees.iter().sum();
    let mean = total as f64 / n as f64;
    let zeros = degrees.iter().take_while(|&&d| d == 0).count();
    // Gini via the sorted formula: G = (2·Σ i·x_i) / (n·Σ x_i) − (n+1)/n.
    let gini = if total == 0 {
        0.0
    } else {
        let weighted: f64 = degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
            .sum();
        (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
    };
    DegreeSummary {
        min: degrees[0],
        max: degrees[n - 1],
        mean,
        median: degrees[n / 2],
        gini,
        zeros,
    }
}

/// Full shape report for a matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of users (rows).
    pub n_users: usize,
    /// Number of items (columns).
    pub n_items: usize,
    /// Number of positive examples.
    pub nnz: usize,
    /// `nnz / (n_users · n_items)`.
    pub density: f64,
    /// User-degree distribution summary.
    pub user_degrees: DegreeSummary,
    /// Item-degree distribution summary.
    pub item_degrees: DegreeSummary,
}

impl MatrixStats {
    /// Computes all statistics in O(nnz + n log n).
    pub fn compute(r: &CsrMatrix) -> MatrixStats {
        MatrixStats {
            n_users: r.n_rows(),
            n_items: r.n_cols(),
            nnz: r.nnz(),
            density: r.density(),
            user_degrees: summarize(r.row_degrees()),
            item_degrees: summarize(r.col_degrees()),
        }
    }
}

impl std::fmt::Display for MatrixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} users × {} items, {} positives (density {:.4}%)",
            self.n_users,
            self.n_items,
            self.nnz,
            self.density * 100.0
        )?;
        writeln!(
            f,
            "  user degree: min {} / median {} / mean {:.1} / max {} (gini {:.2}, {} cold)",
            self.user_degrees.min,
            self.user_degrees.median,
            self.user_degrees.mean,
            self.user_degrees.max,
            self.user_degrees.gini,
            self.user_degrees.zeros
        )?;
        write!(
            f,
            "  item degree: min {} / median {} / mean {:.1} / max {} (gini {:.2}, {} cold)",
            self.item_degrees.min,
            self.item_degrees.median,
            self.item_degrees.mean,
            self.item_degrees.max,
            self.item_degrees.gini,
            self.item_degrees.zeros
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn stats_on_small_matrix() {
        let r = CsrMatrix::from_pairs(3, 4, &[(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
        let s = MatrixStats::compute(&r);
        assert_eq!(s.n_users, 3);
        assert_eq!(s.n_items, 4);
        assert_eq!(s.nnz, 5);
        assert_eq!(s.user_degrees.min, 1);
        assert_eq!(s.user_degrees.max, 3);
        assert!((s.user_degrees.mean - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.item_degrees.zeros, 1, "item 3 is cold");
    }

    #[test]
    fn gini_uniform_is_zero() {
        let r = CsrMatrix::from_pairs(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap();
        let s = MatrixStats::compute(&r);
        assert!(s.user_degrees.gini.abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_is_high() {
        // one user owns everything
        let pairs: Vec<(usize, usize)> = (0..10).map(|i| (0usize, i)).collect();
        let r = CsrMatrix::from_pairs(10, 10, &pairs).unwrap();
        let s = MatrixStats::compute(&r);
        assert!(s.user_degrees.gini > 0.85, "gini = {}", s.user_degrees.gini);
    }

    #[test]
    fn empty_matrix_stats() {
        let r = CsrMatrix::empty(0, 0);
        let s = MatrixStats::compute(&r);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.user_degrees.mean, 0.0);
    }

    #[test]
    fn display_formats() {
        let r = CsrMatrix::from_pairs(2, 2, &[(0, 0)]).unwrap();
        let text = MatrixStats::compute(&r).to_string();
        assert!(text.contains("2 users × 2 items"));
        assert!(text.contains("1 positives"));
    }
}
