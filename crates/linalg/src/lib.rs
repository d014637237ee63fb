//! # ocular-linalg
//!
//! Small dense linear algebra for the OCuLaR reproduction.
//!
//! The paper's algorithms need only a narrow slice of linear algebra, all of
//! it dense and small:
//!
//! * factor matrices `F ∈ R^{n×K}` with fast row views — [`Matrix`];
//! * vector kernels (dot products, axpy, non-negative projection) on factor
//!   rows — [`ops`];
//! * `K×K` symmetric positive-definite solves for the wALS baseline's
//!   alternating least-squares updates — [`Cholesky`];
//! * Gram matrices `FᵀF` (the wALS "Gram trick" that makes the one-class
//!   objective tractable) — [`Matrix::gram`];
//! * bounded top-K selection under the workspace ranking ties convention,
//!   shared by evaluation and serving — [`topk`];
//! * quantized serving representations (`f32`, affine per-row `int8`) with
//!   blocked, auto-vectorizable score-many kernels, compiled once per ISA
//!   level (baseline, AVX2) and picked at run time — [`quant`];
//! * the scoped executor every crate fans out through — [`par`].
//!
//! The master representation is `f64`, row-major, and
//! allocation-conscious: the hot kernels in [`ops`] write into
//! caller-provided buffers. [`quant`] narrows item factors for the serve
//! path only; training and fold-in stay `f64`.

// `deny`, not `forbid`: `quant::avx2` carries the crate's one
// `#[allow(unsafe_code)]` — the AVX2 stamp of the scoring kernels
// (`#[target_feature]` fns are `unsafe fn` on the MSRV) and the single
// `unsafe` block that calls it under the CPU feature check.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod matrix;
pub mod ops;
pub mod par;
pub mod quant;
pub mod topk;

pub use cholesky::{Cholesky, CholeskyError};
pub use matrix::Matrix;
pub use quant::{KernelLevel, PreparedQuery, QuantDtype, QuantizedFactors};
pub use topk::{top_k_excluding, MonotoneTopK, TopK};

#[cfg(test)]
mod tests {
    // the scoped executor of `par`
    use super::par::*;
    use std::panic::{catch_unwind, panic_any};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn blocks_are_contiguous_balanced_longest_first_and_at_most_threads() {
        for t in 1..=9 {
            with_threads(Some(t), || {
                for n in 0..40 {
                    let blocks = blocks(n);
                    assert_eq!(blocks.len(), t.min(n).max(1), "{n} units, {t} threads");
                    assert_eq!(blocks[0].start, 0);
                    assert_eq!(blocks[blocks.len() - 1].end, n);
                    for pair in blocks.windows(2) {
                        assert_eq!(pair[0].end, pair[1].start);
                        assert!(pair[0].len() >= pair[1].len());
                        assert!(pair[0].len() - pair[1].len() <= 1);
                    }
                }
            });
        }
    }

    #[test]
    fn map_slice_keeps_input_order() {
        let v: Vec<usize> = (0..1000).collect();
        for t in 1..=8 {
            let doubled = with_threads(Some(t), || map_slice(&v, |&x| x * 2));
            assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
            assert!(with_threads(Some(t), || map_slice(&[] as &[usize], |&x| x)).is_empty());
        }
    }

    #[test]
    fn fan_out_visits_every_index_once() {
        for t in [1, 2, 3, 7] {
            let seen: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            with_threads(Some(t), || {
                fan_out(blocks(seen.len()), |block| {
                    for i in block {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
            });
            assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        }
        assert!(fan_out(Vec::<usize>::new(), |p| p).is_empty());
    }

    #[test]
    fn par_iter_for_each_visits_everything_once() {
        let v: Vec<usize> = (0..257).collect();
        let (count, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
        with_threads(Some(4), || {
            map_slice(&v, |&x| {
                count.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(x, Ordering::Relaxed);
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
        assert_eq!(sum.load(Ordering::Relaxed), 256 * 257 / 2);
    }

    #[test]
    fn range_into_par_iter() {
        let sum = AtomicUsize::new(0);
        with_threads(Some(3), || {
            fan_out(blocks(100), |block| {
                for i in block {
                    sum.fetch_add(10 + i, Ordering::Relaxed);
                }
            })
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..110).sum::<usize>());
    }

    #[test]
    fn par_chunks_mut_indices_and_coverage() {
        for t in 1..=9 {
            let mut data = vec![0usize; 100];
            let shape = with_threads(Some(t), || {
                let blocks = blocks(10);
                let parts = row_blocks(&mut data, 10);
                assert_eq!(parts.len(), blocks.len(), "{t} threads");
                for ((first, part), rows) in parts.iter().zip(&blocks) {
                    assert_eq!((*first, part.len()), (rows.start, rows.len() * 10));
                }
                fan_out(parts, |(first, part)| {
                    for (j, row) in part.chunks_mut(10).enumerate() {
                        row.fill(first + j + 1);
                    }
                })
                .len()
            });
            assert_eq!(shape, t.min(10));
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i / 10 + 1, "element {i}, {t} threads");
            }
        }
    }

    /// The shape of the trainer's half-sweep: a slice of rows carved into
    /// blocks, one scratch state per part, per-row results folded in order.
    fn rows_by_block(data: &mut [usize], k: usize) -> usize {
        let sums = fan_out(row_blocks(data, k), |(first, part)| {
            let offset = 1000;
            let mut sum = 0;
            for (j, row) in part.chunks_mut(k).enumerate() {
                for v in row.iter_mut() {
                    *v += first + j + 1;
                }
                sum += offset * (first + j) + row.iter().sum::<usize>();
            }
            sum
        });
        sums.into_iter().sum()
    }

    #[test]
    fn reduction_is_the_same_at_one_and_seven_threads() {
        let run = |t| with_threads(Some(t), || rows_by_block(&mut vec![0; 110], 10));
        let expect = (0..11).map(|r| 1000 * r + 10 * (r + 1)).sum::<usize>();
        assert_eq!(run(1), expect);
        assert_eq!(run(7), expect);
        let identity = fan_out(Vec::<usize>::new(), |p| p)
            .into_iter()
            .sum::<usize>();
        assert_eq!(identity, 0);
    }

    #[test]
    fn chunked_writes_are_deterministic_across_thread_counts() {
        let run = |t| {
            let mut data = vec![0; 120];
            with_threads(Some(t), || rows_by_block(&mut data, 4));
            data
        };
        let one = run(1);
        for (i, &v) in one.iter().enumerate() {
            assert_eq!(v, i / 4 + 1, "element {i}");
        }
        assert_eq!(run(7), one);
    }

    #[test]
    fn install_overrides_thread_count_and_restores() {
        let outside = threads();
        assert_eq!(outside, host_cores());
        assert_eq!(with_threads(Some(3), threads), 3);
        assert_eq!(with_threads(None, threads), outside);
        with_threads(Some(3), || {
            assert_eq!(with_threads(Some(5), threads), 5);
            assert_eq!(with_threads(Some(0), threads), 3, "Some(0) keeps the count");
            assert_eq!(with_threads(None, threads), 3);
            assert!(catch_unwind(|| with_threads(Some(6), || panic!("in f"))).is_err());
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outside);
    }

    #[test]
    fn every_part_runs_under_the_callers_thread_count() {
        let read = with_threads(Some(3), || fan_out(vec![(); 3], |()| threads()));
        assert_eq!(read, [3, 3, 3]);
        let nested = with_threads(Some(2), || fan_out(blocks(2), |_| blocks(100).len()));
        assert_eq!(nested, [2, 2]);
    }

    #[test]
    fn one_part_runs_on_the_caller_and_spawns_nothing() {
        let caller = std::thread::current().id();
        let on = with_threads(Some(8), || map_slice(&[1], |_| std::thread::current().id()));
        assert_eq!(on, [caller]);
        let parts = with_threads(Some(2), || {
            fan_out(vec![(); 2], |()| std::thread::current().id())
        });
        assert_eq!(parts[0], caller);
        assert_ne!(parts[1], caller);
    }

    #[derive(Debug, PartialEq)]
    struct Payload(usize);

    #[test]
    fn a_panicking_part_re_raises_its_own_payload() {
        for bad in 0..3 {
            let caught = catch_unwind(|| {
                with_threads(Some(3), || {
                    fan_out(vec![0, 1, 2], |p| {
                        if p == bad {
                            panic_any(Payload(p));
                        }
                    })
                })
            })
            .unwrap_err();
            assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(bad)));
        }
    }
}
