//! The "GPU" trainer of Figure 8: [`ocular_core::fit`] under a thread count.
//!
//! `fit` itself is data-parallel — its half-sweeps run in row blocks on
//! [`crate::threads`] threads, and each sweep's objective is added up from
//! the user half's row objectives in user order — and bitwise identical at
//! every count, so the speedup is pure wall-clock. (The paper's CUDA kernel runs one thread
//! block per positive rating and accumulates with `atomicAdd`, whose order
//! varies; per-row parallelism is how the same decomposition is expressed
//! deterministically on a host with tens of threads rather than thousands
//! of CUDA cores.)

use ocular_core::config::OcularConfig;
use ocular_core::trainer::{fit, TrainResult};
use ocular_sparse::Dataset;

/// Fits OCuLaR on `threads` threads: `None` keeps [`crate::threads`];
/// `Some(n)` runs on `n` (the Figure 8 harness compares one thread with
/// all cores on one binary). The same model as [`ocular_core::fit`] at
/// any count.
///
/// # Panics
/// Panics if `cfg` fails validation.
pub fn fit_parallel(data: &Dataset, cfg: &OcularConfig, threads: Option<usize>) -> TrainResult {
    crate::with_threads(threads, || fit(data, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use ocular_sparse::CsrMatrix;

    /// Four dense `n × n` blocks on the diagonal, then one user and one
    /// item with no positives.
    fn blocks(n: usize) -> Dataset {
        let mut pairs = Vec::new();
        for b in 0..4 {
            for u in 0..n {
                for i in 0..n {
                    pairs.push((b * n + u, b * n + i));
                }
            }
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(4 * n + 1, 4 * n + 1, &pairs).unwrap())
    }

    fn cfg() -> OcularConfig {
        OcularConfig {
            k: 4,
            lambda: 0.1,
            max_iters: 15,
            seed: 11,
            ..Default::default()
        }
    }

    /// `fit` at one thread against 2, 3 and 7: the same model, the same
    /// objective trace bit for bit and the same step-search counts per
    /// sweep. Returns the one-thread fit.
    fn same_at_every_thread_count(data: &Dataset, cfg: &OcularConfig) -> TrainResult {
        let bits = |r: &TrainResult| -> Vec<u64> {
            r.history.objective.iter().map(|q| q.to_bits()).collect()
        };
        let one = with_threads(Some(1), || fit(data, cfg));
        for t in [2, 3, 7] {
            let many = with_threads(Some(t), || fit(data, cfg));
            assert_eq!(one.model, many.model, "{t} threads: model");
            assert_eq!(bits(&one), bits(&many), "{t} threads: objective");
            assert_eq!(one.history.search, many.history.search, "{t} threads");
        }
        one
    }

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let r = blocks(5);
        let one = same_at_every_thread_count(&r, &cfg());
        let par = fit_parallel(&r, &cfg(), Some(2));
        assert_eq!(one.model, par.model);
        assert_eq!(one.history.objective, par.history.objective);
        // the user and the item with no positives are updated too
        assert_eq!(one.model.item_factors.row(20), &[0.0; 4]);
    }

    #[test]
    fn parallel_identical_across_thread_counts() {
        // fewer users (3) and items (2) than threads (7)
        let r = CsrMatrix::from_pairs(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        same_at_every_thread_count(&Dataset::from_matrix(r), &cfg());
    }

    #[test]
    fn parallel_monotone_objective() {
        let result = with_threads(Some(7), || fit(&blocks(5), &cfg()));
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn relative_weighting_supported() {
        let c = OcularConfig {
            weighting: ocular_core::Weighting::Relative,
            ..cfg()
        };
        same_at_every_thread_count(&blocks(3), &c);
    }

    #[test]
    fn bias_extension_supported() {
        let c = OcularConfig {
            bias: true,
            ..cfg()
        };
        same_at_every_thread_count(&blocks(3), &c);
    }
}
