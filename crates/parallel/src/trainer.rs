//! Data-parallel block-coordinate trainer — the "GPU" trainer of Figure 8.
//!
//! Within a half-sweep every factor row's subproblem reads only the *fixed*
//! side (plus its own row), so updating all items — and then all users —
//! concurrently is mathematically identical to the sequential sweep, not an
//! approximation. With both trainers starting from
//! [`ocular_core::trainer::initial_factors`], `fit_parallel` produces
//! **bitwise-identical** models to [`ocular_core::fit`]; the speedup is
//! pure wall-clock. (The paper's CUDA kernel runs one thread block per
//! positive rating and accumulates with `atomicAdd`, whose order varies;
//! per-row parallelism is how the same decomposition is expressed
//! deterministically on a host with tens of threads rather than thousands
//! of CUDA cores.)

use ocular_core::config::OcularConfig;
use ocular_core::linesearch::{RowScratch, RowUpdate, SearchStats};
use ocular_core::trainer::{fit_with, TrainResult, WeightsFor};
use ocular_linalg::Matrix;
use ocular_sparse::{CsrMatrix, Dataset};

/// One parallel half-sweep over all rows of `own`, in [`crate::row_blocks`]
/// with one scratch per block; returns what the step search did (integer
/// sums, so independent of how rows were scheduled).
fn parallel_sweep_side(
    own: &mut Matrix,
    adjacency: &CsrMatrix,
    update: &RowUpdate<'_>,
    weights_for_positives: &WeightsFor<'_>,
) -> SearchStats {
    let k = own.cols();
    let blocks = crate::row_blocks(own.as_mut_slice(), k);
    let per_block = crate::fan_out(blocks, |(first, rows)| {
        let mut scratch = RowScratch::default();
        let mut stats = SearchStats::default();
        for (j, row) in rows.chunks_mut(k).enumerate() {
            let e = first + j;
            update.run(
                row,
                adjacency.row(e),
                weights_for_positives(e),
                &mut scratch,
                &mut stats,
            );
        }
        stats
    });
    let mut stats = SearchStats::default();
    for block in per_block {
        stats += block;
    }
    stats
}

/// Fits OCuLaR with data-parallel half-sweeps. Same configuration, same
/// semantics and (given the same seed) the same model as
/// [`ocular_core::fit`] — only faster on multi-core hosts.
///
/// `threads`: `None` uses [`crate::threads`]; `Some(n)` runs on `n` (used
/// by the Figure 8 harness to emulate "CPU" = 1 thread vs "GPU" = all
/// cores on one binary).
///
/// # Panics
/// Panics if `cfg` fails validation.
pub fn fit_parallel(data: &Dataset, cfg: &OcularConfig, threads: Option<usize>) -> TrainResult {
    crate::with_threads(threads, || fit_with(data, cfg, &mut parallel_sweep_side))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_core::fit;

    fn blocks(n: usize) -> Dataset {
        let mut pairs = Vec::new();
        for b in 0..4 {
            for u in 0..n {
                for i in 0..n {
                    pairs.push((b * n + u, b * n + i));
                }
            }
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(4 * n, 4 * n, &pairs).unwrap())
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

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let r = blocks(5);
        let seq = fit(&r, &cfg());
        let par = fit_parallel(&r, &cfg(), None);
        assert_eq!(
            seq.model, par.model,
            "per-row parallelism must not change the math"
        );
        assert_eq!(seq.history.objective, par.history.objective);
    }

    #[test]
    fn parallel_identical_across_thread_counts() {
        let r = blocks(4);
        let one = fit_parallel(&r, &cfg(), Some(1));
        let four = fit_parallel(&r, &cfg(), Some(4));
        assert_eq!(one.model, four.model);
    }

    #[test]
    fn parallel_monotone_objective() {
        let r = blocks(5);
        let result = fit_parallel(&r, &cfg(), None);
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn relative_weighting_supported() {
        let r = blocks(3);
        let c = OcularConfig {
            weighting: ocular_core::Weighting::Relative,
            ..cfg()
        };
        let seq = fit(&r, &c);
        let par = fit_parallel(&r, &c, None);
        assert_eq!(seq.model, par.model);
    }

    #[test]
    fn bias_extension_supported() {
        let r = blocks(3);
        let c = OcularConfig {
            bias: true,
            ..cfg()
        };
        let seq = fit(&r, &c);
        let par = fit_parallel(&r, &c, None);
        assert_eq!(seq.model, par.model);
    }
}
