//! Cholesky factorization and SPD solves.
//!
//! The wALS baseline (Pan et al., ICDM 2008) alternates least-squares
//! updates, each of which solves a `K×K` symmetric positive-definite system
//! `(b·G + (1-b)·Σ f f^T + λI) x = rhs`. K is small (tens to low hundreds),
//! so an unblocked O(K³) Cholesky is the right tool.

use crate::Matrix;

/// Failure of a Cholesky factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum CholeskyError {
    /// The matrix is not square.
    NotSquare {
        /// Actual row count.
        rows: usize,
        /// Actual column count.
        cols: usize,
    },
    /// A non-positive pivot was met: the matrix is not positive definite
    /// (within numerical tolerance).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot before the square root.
        value: f64,
    },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}×{cols}, not square")
            }
            CholeskyError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "non-positive pivot {value:.3e} at index {pivot}; matrix is not SPD"
                )
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `L·Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass matrices
    /// whose upper triangle is stale.
    pub fn factor(a: &Matrix) -> Result<Cholesky, CholeskyError> {
        if a.rows() != a.cols() {
            return Err(CholeskyError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        Self::factor_in_place(l.as_mut_slice(), n)?;
        Ok(Cholesky { l })
    }

    /// [`Cholesky::factor`] on caller-owned storage: `a` is an `n × n`
    /// row-major slice whose lower triangle holds the matrix and is
    /// overwritten by the factor `L`; entries above the diagonal are
    /// neither read nor written. For a solver that factors per request
    /// and cannot afford a `Matrix` per call. On an error the lower
    /// triangle is left partly overwritten.
    ///
    /// # Panics
    /// Panics if `a.len() != n * n`.
    pub fn factor_in_place(a: &mut [f64], n: usize) -> Result<(), CholeskyError> {
        assert_eq!(a.len(), n * n, "storage must be n × n");
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= a[j * n + k] * a[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(CholeskyError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            a[j * n + j] = dj;
            for i in j + 1..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = s / dj;
            }
        }
        Ok(())
    }

    /// Solves `L·Lᵀ x = b` in place (`b` becomes `x`) against the factor
    /// [`Cholesky::factor_in_place`] left in the lower triangle of `l`.
    ///
    /// # Panics
    /// Panics if `l.len() != n * n` or `b.len() != n`.
    pub fn solve_lower_in_place(l: &[f64], n: usize, b: &mut [f64]) {
        assert_eq!(l.len(), n * n, "storage must be n × n");
        assert_eq!(b.len(), n, "rhs length must equal dimension");
        // forward: L y = b
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[i * n + k] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
        // backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in i + 1..n {
                s -= l[k * n + i] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` in place (`b` becomes `x`), via
    /// `L y = b` then `Lᵀ x = y`.
    ///
    /// # Panics
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        Self::solve_lower_in_place(self.l.as_slice(), self.dim(), b);
    }

    /// Solves `A x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B·Bᵀ + I for B = [[1,2],[3,4],[5,6]] — guaranteed SPD.
        Matrix::from_rows(&[&[6.0, 11.0, 17.0], &[11.0, 26.0, 39.0], &[17.0, 39.0, 62.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        assert!(recon.max_abs_diff(&a) < 1e-9, "LLᵀ should equal A");
    }

    #[test]
    fn solve_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(ch.solve(&b), b);
    }

    #[test]
    fn solve_known_system() {
        // A = [[4,2],[2,3]], b = [10, 9]  =>  x = [1.5, 2]
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[10.0, 9.0]);
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_small() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        // residual A x - b
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(CholeskyError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(CholeskyError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_zero_matrix() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn in_place_factor_matches_and_leaves_the_upper_triangle_alone() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let mut store = a.as_slice().to_vec();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            store[i * 3 + j] = f64::NAN;
        }
        Cholesky::factor_in_place(&mut store, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                if j <= i {
                    assert_eq!(store[i * 3 + j].to_bits(), ch.l()[(i, j)].to_bits());
                } else {
                    assert!(store[i * 3 + j].is_nan(), "({i},{j}) was written");
                }
            }
        }
        let mut x = [1.0, 2.0, 3.0];
        Cholesky::solve_lower_in_place(&store, 3, &mut x);
        assert_eq!(x.to_vec(), ch.solve(&[1.0, 2.0, 3.0]));
        // the empty system is trivially factored and solved
        Cholesky::factor_in_place(&mut [], 0).unwrap();
        Cholesky::solve_lower_in_place(&[], 0, &mut []);
    }

    #[test]
    fn reads_lower_triangle_only() {
        let mut a = spd3();
        // poison the upper triangle; factorization must be unaffected
        a[(0, 1)] = f64::NAN;
        a[(0, 2)] = f64::NAN;
        a[(1, 2)] = f64::NAN;
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[1.0, 0.0, 0.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
