//! # ocular-parallel
//!
//! Section VI of the paper ("Using massively parallel processors") on CPU
//! cores instead of a GPU.
//!
//! ## What the paper did, and what this crate does
//!
//! The paper maps training onto CUDA: the training data is copied to the
//! device once; the gradient kernel launches *one thread block per positive
//! rating*, each block computing `⟨f_u, f_i⟩` by a shared-memory reduction
//! and atomically accumulating `−α(p)·f_u` into the item gradient; a
//! GeForce TITAN X reaches the same training likelihood 57× faster than the
//! CPU implementation (Figure 8).
//!
//! Without a GPU we reproduce the *decomposition*, not the silicon — and
//! keep it bit-stable, where `atomicAdd` reorders sums:
//!
//! * [`trainer`] — a data-parallel block-coordinate trainer whose
//!   half-sweeps update all items (then all users) concurrently. Because
//!   each factor row's subproblem reads only the *fixed* side, per-entity
//!   parallelism is exact: the result is bitwise identical to the
//!   sequential trainer, which the tests assert;
//! * [`memory`] — the paper's device-memory footprint model
//!   `O(max(nnz, n_u·K, n_i·K))`, including the Netflix/K=200 ≈ 2.7 GB
//!   worked example;
//! * [`speedup`] — Figure 8 instrumentation: likelihood-vs-wall-clock
//!   traces and the speedup factor at a target accuracy;
//! * [`fan_out`] over [`blocks`] (and [`map_slice`]) under the one thread
//!   knob [`with_threads`] — the scoped fan-out of [`fit_parallel`],
//!   `ocular-serve`'s batches and the grid search;
//! * [`pool`] — the persistent [`WorkerPool`] for work that must find its
//!   threads running: network workers and split catalog scans.
//!
//! The measured speedup is bounded by host cores rather than 57×, but the
//! *shape* of Figure 8 — same final likelihood, parallel trace strictly
//! left of the sequential trace — is preserved, which is the claim the
//! substitution needs to support (the Figure 8 row of the README's *Paper
//! ↔ code map*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod pool;
pub mod speedup;
pub mod trainer;

pub use memory::MemoryModel;
pub use pool::WorkerPool;
pub use speedup::{speedup_at_threshold, TimedTrace};
pub use trainer::fit_parallel;

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;

thread_local! {
    /// The innermost [`with_threads`] count on this thread.
    static THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The host's cores, read once per process: `available_parallelism`
/// re-reads the cgroup files on every call (≈ 11 µs, as much as a whole
/// small request).
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Threads a fan-out started from this thread runs on: the innermost
/// [`with_threads`] count, else [`host_cores`].
pub fn threads() -> usize {
    THREADS.with(Cell::get).unwrap_or_else(host_cores)
}

/// Runs `f` with `threads` installed as what [`threads()`] reads, here and in
/// every part [`fan_out`] starts from here (`None` or `Some(0)` keeps the
/// count in force), and restores the previous count when `f` returns or
/// panics. The one thread knob of [`fit_parallel`], `ocular-serve`'s batches
/// and the parts its catalog scans split into, the grid search and the
/// Figure 8 harness, so "1 thread vs N threads" always means the same.
pub fn with_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.with(|c| c.set(self.0));
        }
    }
    let Some(n) = threads.filter(|&n| n > 0) else {
        return f();
    };
    let _restore = Restore(THREADS.with(|c| c.replace(Some(n))));
    f()
}

/// Splits `n` units into at most [`threads`] contiguous blocks whose
/// lengths differ by at most one, longest first — one block (empty when
/// `n` is 0) if there is nothing to split.
pub fn blocks(n: usize) -> Vec<Range<usize>> {
    let t = threads().min(n).max(1);
    let start = |b: usize| b * (n / t) + b.min(n % t);
    (0..t).map(|b| start(b)..start(b + 1)).collect()
}

/// The rows of a row-major `data` of width `k` in [`blocks`]: per block,
/// its first row's index and its rows.
pub(crate) fn row_blocks<T>(mut data: &mut [T], k: usize) -> Vec<(usize, &mut [T])> {
    blocks(data.len() / k)
        .into_iter()
        .map(|rows| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(rows.len() * k);
            data = tail;
            (rows.start, head)
        })
        .collect()
}

/// Runs `f` on every part and returns the results in part order: part 0
/// on the calling thread, each other part on a scoped thread of its own
/// that runs under the caller's [`threads`]. One part spawns nothing; a
/// panicking part re-raises its own payload here.
pub fn fan_out<P: Send, R: Send>(parts: Vec<P>, f: impl Fn(P) -> R + Sync) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let (n, f, mut parts) = (threads(), &f, parts.into_iter());
    let first = parts.next().expect("two parts or more");
    std::thread::scope(|scope| {
        let rest: Vec<_> = parts
            .map(|part| scope.spawn(move || with_threads(Some(n), || f(part))))
            .collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        for part in rest {
            out.push(part.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        out
    })
}

/// Maps every item through `f` over [`blocks`] of `items`, in input order.
pub fn map_slice<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let parts = blocks(items.len()).into_iter().map(|b| &items[b]).collect();
    let per_block = fan_out(parts, |part: &[T]| part.iter().map(&f).collect::<Vec<R>>());
    per_block.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The shape of `fit_parallel`'s half-sweep: a slice of rows carved into
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
