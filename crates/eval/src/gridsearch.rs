//! (K, λ) hyper-parameter grid search — Figures 6 and 9.
//!
//! The paper selects K and λ by cross-validated grid search on recall@M and
//! accelerates the search by fanning the 625 parameter pairs out over a
//! Spark cluster of GPU machines (Section VII-E). Here the same
//! embarrassingly parallel structure is an [`ocular_parallel::map_slice`]
//! over the cells, one block per thread: each `(K, λ)` cell fits a
//! [`Recommender`] independently, and every fitted model is scored with
//! recall@M under the one evaluation protocol
//! ([`crate::protocol::evaluate`]) — the cells cannot drift apart on
//! metric definitions.

use crate::protocol::evaluate;
use ocular_api::Recommender;
use ocular_sparse::CsrMatrix;

/// Result of a grid search: the metric surface plus the best cell.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The K values of the grid (rows of `scores`).
    pub ks: Vec<usize>,
    /// The λ values of the grid (columns of `scores`).
    pub lambdas: Vec<f64>,
    /// `scores[ki][li]` = metric for `(ks[ki], lambdas[li])`.
    pub scores: Vec<Vec<f64>>,
    /// Best (K, λ) and its score.
    pub best: (usize, f64, f64),
}

impl GridResult {
    /// Score at a grid cell.
    pub fn score(&self, ki: usize, li: usize) -> f64 {
        self.scores[ki][li]
    }

    /// Renders the surface as a textual heatmap (the Figure 9 artefact):
    /// one row per K, one column per λ, shaded by score decile.
    pub fn render_heatmap(&self) -> String {
        let (lo, hi) = self.bounds();
        let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        out.push_str("        λ → ");
        for l in &self.lambdas {
            out.push_str(&format!("{l:>8.2}"));
        }
        out.push('\n');
        for (ki, k) in self.ks.iter().enumerate() {
            out.push_str(&format!("K = {k:>5}   "));
            for li in 0..self.lambdas.len() {
                let v = self.scores[ki][li];
                let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
                let shade = shades[((t * 9.0).round() as usize).min(9)];
                out.push_str(&format!("  {shade}{shade}{shade}  "));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "best: K = {}, λ = {} (score {:.4}); range [{:.4}, {:.4}]\n",
            self.best.0, self.best.1, self.best.2, lo, hi
        ));
        out
    }

    /// Serialises the surface as CSV (`k,lambda,score`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("k,lambda,score\n");
        for (ki, k) in self.ks.iter().enumerate() {
            for (li, l) in self.lambdas.iter().enumerate() {
                out.push_str(&format!("{k},{l},{:.6}\n", self.scores[ki][li]));
            }
        }
        out
    }

    fn bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.scores {
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }
}

/// Runs the grid search. `fit_cell(k, λ)` fits a model with those
/// hyper-parameters on `train`; the model is scored with recall@`m` on
/// `test` under the evaluation protocol. Cells are evaluated in parallel
/// ([`ocular_parallel::map_slice`], sized by
/// [`ocular_parallel::with_threads`]), mirroring the paper's cluster
/// fan-out; results are deterministic because each cell is independent and
/// seeded by the caller.
///
/// # Panics
/// Panics if either axis is empty.
pub fn grid_search<F>(
    ks: &[usize],
    lambdas: &[f64],
    train: &CsrMatrix,
    test: &CsrMatrix,
    m: usize,
    fit_cell: F,
) -> GridResult
where
    F: Fn(usize, f64) -> Box<dyn Recommender> + Sync,
{
    assert!(
        !ks.is_empty() && !lambdas.is_empty(),
        "grid axes must be non-empty"
    );
    let cells: Vec<(usize, usize)> = (0..ks.len())
        .flat_map(|ki| (0..lambdas.len()).map(move |li| (ki, li)))
        .collect();
    let flat = ocular_parallel::map_slice(&cells, |&(ki, li)| {
        let model = fit_cell(ks[ki], lambdas[li]);
        evaluate(model.as_ref(), train, test, m).recall
    });
    let mut scores = vec![vec![0.0; lambdas.len()]; ks.len()];
    for (&(ki, li), &v) in cells.iter().zip(&flat) {
        scores[ki][li] = v;
    }
    let mut best = (ks[0], lambdas[0], f64::NEG_INFINITY);
    for (ki, &k) in ks.iter().enumerate() {
        for (li, &l) in lambdas.iter().enumerate() {
            if scores[ki][li] > best.2 {
                best = (k, l, scores[ki][li]);
            }
        }
    }
    GridResult {
        ks: ks.to_vec(),
        lambdas: lambdas.to_vec(),
        scores,
        best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_api::FnScorer;

    const T: usize = 100;

    /// `T` users each own item 0 in training and hold out item 3.
    fn fixture() -> (CsrMatrix, CsrMatrix) {
        let train: Vec<(usize, usize)> = (0..T).map(|u| (u, 0)).collect();
        let test: Vec<(usize, usize)> = (0..T).map(|u| (u, 3)).collect();
        (
            CsrMatrix::from_pairs(T, 4, &train).unwrap(),
            CsrMatrix::from_pairs(T, 4, &test).unwrap(),
        )
    }

    /// A stand-in fitted model whose recall@1 equals `quality` (clamped to
    /// `[0, 1]`, quantised to 1/T): the first `quality·T` users rank their
    /// held-out item first, the rest rank it last.
    fn cell_model(quality: f64) -> Box<dyn Recommender> {
        let winners = (quality.clamp(0.0, 1.0) * T as f64).round() as usize;
        Box::new(FnScorer::new("synthetic-cell", T, 4, move |u, buf| {
            buf[1] = 0.5;
            buf[2] = 0.25;
            buf[3] = if u < winners { 1.0 } else { -1.0 };
        }))
    }

    fn surface(k: usize, l: f64) -> f64 {
        let dk = (k as f64 - 100.0) / 100.0;
        let dl = (l - 30.0) / 50.0;
        1.0 - dk * dk - dl * dl
    }

    #[test]
    fn finds_the_peak() {
        // synthetic unimodal surface peaked at K=100, λ=30
        let (train, test) = fixture();
        let ks = vec![50usize, 100, 200];
        let lambdas = vec![0.0, 30.0, 100.0];
        let result = grid_search(&ks, &lambdas, &train, &test, 1, |k, l| {
            cell_model(surface(k, l))
        });
        assert_eq!(result.best.0, 100);
        assert_eq!(result.best.1, 30.0);
        assert!(
            (result.best.2 - 1.0).abs() < 1e-12,
            "peak recall {}",
            result.best.2
        );
    }

    #[test]
    fn surface_matches_direct_protocol_evaluation() {
        // the parallel fan-out must produce exactly what a sequential
        // evaluate() of each cell's model produces
        let (train, test) = fixture();
        let ks: Vec<usize> = vec![50, 80, 130, 200];
        let lambdas: Vec<f64> = vec![0.0, 10.0, 30.0, 80.0];
        let result = grid_search(&ks, &lambdas, &train, &test, 1, |k, l| {
            cell_model(surface(k, l))
        });
        for (ki, &k) in ks.iter().enumerate() {
            for (li, &l) in lambdas.iter().enumerate() {
                let direct =
                    crate::protocol::evaluate(cell_model(surface(k, l)).as_ref(), &train, &test, 1)
                        .recall;
                assert_eq!(result.score(ki, li), direct, "cell ({k}, {l})");
            }
        }
    }

    #[test]
    fn heatmap_and_csv_render() {
        let (train, test) = fixture();
        let result = grid_search(&[10, 20], &[1.0, 2.0], &train, &test, 1, |k, l| {
            cell_model(k as f64 * l / 100.0)
        });
        let art = result.render_heatmap();
        assert!(art.contains("K ="));
        assert!(art.contains("best: K = 20"));
        let csv = result.to_csv();
        assert!(csv.contains("k,lambda,score"));
        assert!(csv.contains("20,2,0.400000"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let (train, test) = fixture();
        grid_search(&[], &[1.0], &train, &test, 1, |_, _| cell_model(0.0));
    }
}
