//! Shared line-oriented **text** readers for the frozen v1/v2 snapshot
//! payloads (`ocular-model v1`, `wals-model v1`, …). The format is
//! read-only: the files that exist carry their floats as `{:e}` (Rust's
//! shortest round-trippable representation), so parsing one reproduces
//! every `f64` **bitwise**.
//!
//! A header is untrusted input: readers grow their buffers as lines
//! actually arrive and never pre-size from a declared shape.

use crate::error::OcularError;
use ocular_linalg::Matrix;
use ocular_sparse::CsrMatrix;
use std::io::BufRead;

/// Shorthand for a corrupt-payload error.
pub fn bad(msg: impl Into<String>) -> OcularError {
    OcularError::Corrupt(msg.into())
}

/// Reads one line (without the trailing newline); EOF is an error.
pub fn read_line(r: &mut dyn BufRead) -> Result<String, OcularError> {
    let mut line = String::new();
    if r.read_line(&mut line).map_err(OcularError::from)? == 0 {
        return Err(bad("truncated model payload"));
    }
    Ok(line.trim_end_matches(['\n', '\r']).to_string())
}

/// Parses one space-separated float line of exactly `n` values.
pub fn read_floats(r: &mut dyn BufRead, n: usize) -> Result<Vec<f64>, OcularError> {
    let line = read_line(r)?;
    let vals: Vec<f64> = line
        .split_whitespace()
        .map(|f| f.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad("bad float value"))?;
    if vals.len() != n {
        return Err(bad(format!("expected {n} floats, found {}", vals.len())));
    }
    Ok(vals)
}

/// Reads a `rows × cols` matrix, one row of `{:e}` floats per line.
pub fn read_matrix(r: &mut dyn BufRead, rows: usize, cols: usize) -> Result<Matrix, OcularError> {
    rows.checked_mul(cols)
        .ok_or_else(|| bad(format!("matrix shape {rows}×{cols} overflows")))?;
    let mut data = Vec::new();
    for _ in 0..rows {
        data.extend(read_floats(r, cols)?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Reads a binary CSR matrix: an `interactions <rows> <cols>` line, then
/// one `len id id …` line per row.
pub fn read_csr(r: &mut dyn BufRead) -> Result<CsrMatrix, OcularError> {
    let header = read_line(r)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 3 || fields[0] != "interactions" {
        return Err(bad("bad interactions header"));
    }
    let n_rows: usize = fields[1].parse().map_err(|_| bad("bad n_rows"))?;
    let n_cols: usize = fields[2].parse().map_err(|_| bad("bad n_cols"))?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for u in 0..n_rows {
        let line = read_line(r)?;
        let mut fields = line.split_whitespace();
        let len: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad(format!("row {u}: bad length")))?;
        let ids: Vec<usize> = fields
            .map(|f| f.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad(format!("row {u}: bad item id")))?;
        if ids.len() != len {
            return Err(bad(format!(
                "row {u}: declared {len} items, found {}",
                ids.len()
            )));
        }
        pairs.extend(ids.into_iter().map(|i| (u, i)));
    }
    CsrMatrix::from_pairs(n_rows, n_cols, &pairs).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip_is_bitwise() {
        // `{:e}` is what every text snapshot on disk was written with
        let vals = [0.1, -2.5e-17, 3.0, f64::MIN_POSITIVE, 1e300, 0.0];
        let line = |row: &[f64]| row.iter().map(|v| format!("{v:e} ")).collect::<String>();
        let text = format!("{}\n{}\n", line(&vals[..3]), line(&vals[3..]));
        let loaded = read_matrix(&mut text.as_bytes(), 2, 3).unwrap();
        assert_eq!(loaded, Matrix::from_vec(2, 3, vals.to_vec()));
    }

    #[test]
    fn a_declared_shape_is_never_allocated_up_front() {
        // 32 TB by the header, one short line in the file: typed errors
        let huge = 1_000_000_000_000;
        assert!(matches!(
            read_matrix(&mut "1 2 3 4\n".as_bytes(), huge, 4),
            Err(OcularError::Corrupt(_))
        ));
        assert!(read_matrix(&mut "".as_bytes(), usize::MAX, 2).is_err());
    }

    #[test]
    fn csr_roundtrip_and_validation() {
        let m = CsrMatrix::from_pairs(3, 4, &[(0, 1), (0, 3), (2, 0)]).unwrap();
        let text = "interactions 3 4\n2 1 3\n0\n1 0\n";
        assert_eq!(read_csr(&mut text.as_bytes()).unwrap(), m);
        assert!(read_csr(&mut "nope 1 1\n".as_bytes()).is_err());
        assert!(read_csr(&mut "interactions 1 1\n2 0\n".as_bytes()).is_err());
    }

    #[test]
    fn float_lines_validated() {
        assert!(read_floats(&mut "1.0 2.0\n".as_bytes(), 3).is_err());
        assert!(read_floats(&mut "1.0 x\n".as_bytes(), 2).is_err());
        assert_eq!(
            read_floats(&mut "1.0 2.0\n".as_bytes(), 2).unwrap(),
            [1.0, 2.0]
        );
    }
}
