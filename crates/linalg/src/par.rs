//! The workspace's one scoped executor and its one thread knob,
//! [`with_threads`]; the trainer, the serving batches and the grid search
//! call it here.

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
/// panics. The one thread knob: `ocular-core`'s `fit`, `ocular-serve`'s
/// batches and the parts its catalog scans split into, the grid search and
/// the Figure 8 harness, so "1 thread vs N threads" always means the same.
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
pub fn row_blocks<T>(mut data: &mut [T], k: usize) -> Vec<(usize, &mut [T])> {
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
