//! Row-major dense matrix.

use ocular_bytes::F64Buf;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// Used throughout the workspace for factor matrices (`n_users × K`,
/// `n_items × K`) and for the small `K×K` systems of the wALS baseline.
/// Row views are contiguous slices, which is what every hot kernel wants.
///
/// The element storage is an [`F64Buf`]: matrices built in memory own a
/// `Vec<f64>` as before, while matrices loaded from a binary snapshot can
/// **borrow** their buffer from a shared (possibly memory-mapped) byte
/// region via [`Matrix::from_shared`] — the zero-copy serving path.
/// Mutation promotes a shared buffer to an owned copy first
/// (copy-on-write), so training code is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: F64Buf,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols].into(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix {
            rows,
            cols,
            data: data.into(),
        }
    }

    /// Wraps an owned-or-borrowed [`F64Buf`] as a matrix — the zero-copy
    /// snapshot load path hands buffers borrowed from an mmap'd region
    /// here. Errors (instead of panicking: the buffer typically comes
    /// from untrusted bytes) when the length is not `rows * cols`.
    pub fn from_shared(rows: usize, cols: usize, data: F64Buf) -> Result<Self, String> {
        // the shape comes from untrusted snapshot metadata: a checked
        // multiply keeps a crafted rows×cols overflow a typed error
        // instead of a wrap-around (or debug panic)
        let need = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("{rows}×{cols} overflows the address space"))?;
        if data.len() != need {
            return Err(format!(
                "buffer holds {} values but {rows}×{cols} needs {need}",
                data.len()
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Whether the element buffer borrows a shared byte region (zero-copy
    /// snapshot load) rather than owning a `Vec`.
    pub fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Contiguous view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let cols = self.cols;
        &mut self.data.make_owned()[r * cols..(r + 1) * cols]
    }

    /// Two disjoint mutable row views. Needed when an update reads one factor
    /// row while writing another.
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn rows_mut_pair(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "rows must be distinct");
        let c = self.cols;
        let data = self.data.make_owned();
        if a < b {
            let (lo, hi) = data.split_at_mut(b * c);
            (&mut lo[a * c..(a + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = data.split_at_mut(a * c);
            let (x, y) = (&mut hi[..c], &mut lo[b * c..(b + 1) * c]);
            (x, y)
        }
    }

    /// Flat row-major view of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.make_owned()
    }

    /// Consumes the matrix, returning its flat buffer (copied if the
    /// matrix borrowed a shared region).
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Sum of every row: `out[j] = Σ_r self[r, j]`. This is the paper's
    /// precomputed `Σ_u f_u` (Section IV-D sum-trick).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }

    /// [`Matrix::column_sums`] into a caller-owned buffer (cleared and
    /// resized), so per-sweep callers reuse one allocation for the whole
    /// training run.
    pub fn column_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Gram matrix `AᵀA` (`cols × cols`, symmetric PSD). The wALS baseline
    /// recomputes this once per half-sweep. O(rows · cols²).
    pub fn gram(&self) -> Matrix {
        let k = self.cols;
        let mut g = vec![0.0; k * k];
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..k {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..k {
                    g[i * k + j] += ri * row[j];
                }
            }
        }
        // mirror the upper triangle
        for i in 0..k {
            for j in 0..i {
                g[i * k + j] = g[j * k + i];
            }
        }
        Matrix::from_vec(k, k, g)
    }

    /// Matrix product `self · other`. O(n·m·p); intended for small matrices
    /// and tests, not hot paths.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = vec![0.0; self.rows * other.cols];
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.data[i * self.cols + l];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[i * other.cols + j] += a * other.data[l * other.cols + j];
                }
            }
        }
        Matrix::from_vec(self.rows, other.cols, out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = vec![0.0; self.cols * self.rows];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        Matrix::from_vec(self.cols, self.rows, out)
    }

    /// Frobenius norm squared `Σ a_ij²` — the regularizer `Σ ‖f‖²` of Eq. (4).
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Largest absolute entry difference to `other`; ∞-norm distance used in
    /// tests comparing factorisations.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        let cols = self.cols;
        &mut self.data.make_owned()[r * cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m[(1, 2)] = -1.5;
        assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, -1.5]);
        assert_eq!(m[(0, 1)], 5.0);
    }

    #[test]
    fn from_rows_and_vec_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn from_shared_validates_shape_without_overflow() {
        let buf: ocular_bytes::F64Buf = vec![1.0, 2.0].into();
        assert!(Matrix::from_shared(1, 2, buf.clone()).is_ok());
        assert!(Matrix::from_shared(2, 2, buf.clone()).is_err());
        // untrusted shapes whose product wraps must be a typed error,
        // not a wrap-around that matches an empty buffer
        let empty: ocular_bytes::F64Buf = Vec::new().into();
        assert!(Matrix::from_shared(1 << 32, 1 << 32, empty)
            .unwrap_err()
            .contains("overflows"));
    }

    #[test]
    fn column_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.column_sums(), vec![9.0, 12.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[3.0, -1.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
        // symmetry
        assert_eq!(g[(0, 1)], g[(1, 0)]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_sq(), 25.0);
    }

    #[test]
    fn rows_mut_pair_both_orders() {
        let mut m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        {
            let (a, b) = m.rows_mut_pair(0, 2);
            a[0] = 10.0;
            b[0] = 30.0;
        }
        {
            let (a, b) = m.rows_mut_pair(2, 1);
            assert_eq!(a[0], 30.0);
            b[0] = 20.0;
        }
        assert_eq!(m.as_slice(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rows_mut_pair_same_row_panics() {
        Matrix::zeros(2, 2).rows_mut_pair(1, 1);
    }
}
