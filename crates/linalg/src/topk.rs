//! Bounded top-K selection over dense score vectors — the one shared
//! implementation of the workspace's ranking ties convention.
//!
//! Both the evaluation protocol (`ocular-eval`) and the recommendation /
//! serving paths (`ocular-core`, `ocular-serve`) select the `K` largest
//! scores with ties broken by ascending index. Keeping a single kernel here
//! means the convention cannot silently diverge between what is evaluated
//! and what is served.
//!
//! The structure is a bounded binary min-heap of size `K`: the root is the
//! *worst* retained pair, so a losing candidate is rejected with one
//! comparison — `O(n log K)` total, and for skewed score distributions most
//! pushes are single-comparison rejections. Selection is **exactly**
//! equivalent to full-sort-then-truncate under the same total order
//! (property-tested in `ocular-serve`).
//!
//! Two selectors share that heap. [`TopK`] takes finished scores in any
//! order. [`MonotoneTopK`] takes *raw keys* in ascending index order plus
//! a non-decreasing transform (OCuLaR's `1 − e^(−a)` over affinities) and
//! ranks by the transformed score, but calls the transform only on keys
//! that can still enter the heap — and, offered a contiguous run, rejects
//! sixteen losing keys with one vector compare: the serving paths scan a
//! catalog through it in one pass, with no probability vector in between.

use std::cmp::Ordering;

/// Returns `true` when `a` ranks strictly *below* `b` in the final list
/// order (score descending, ties by ascending index).
///
/// # Panics
/// Panics if either score is NaN — scores are probabilities or model
/// scores in this workspace, so a NaN indicates an upstream bug worth
/// failing loudly on.
#[inline]
fn ranks_below(a: (f64, usize), b: (f64, usize)) -> bool {
    match a.0.partial_cmp(&b.0).expect("scores must not be NaN") {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a.1 > b.1,
    }
}

/// The bounded binary min-heap both selectors run on: at most `k`
/// `(score, index, tag)` entries ordered by [`ranks_below`] on
/// `(score, index)`, `heap[0]` the worst retained. The tag rides along
/// unordered — `()` for [`TopK`], the raw key for [`MonotoneTopK`].
#[derive(Debug, Clone)]
struct BoundedHeap<T> {
    k: usize,
    heap: Vec<(f64, usize, T)>,
}

impl<T: Copy> BoundedHeap<T> {
    fn new(k: usize) -> Self {
        BoundedHeap {
            k,
            heap: Vec::with_capacity(k.min(1024)),
        }
    }

    /// The worst retained entry once `k` are retained — the one a new
    /// entry has to beat.
    #[inline]
    fn full_root(&self) -> Option<&(f64, usize, T)> {
        if self.heap.len() == self.k {
            self.heap.first()
        } else {
            None
        }
    }

    #[inline]
    fn push(&mut self, score: f64, index: usize, tag: T) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push((score, index, tag));
            self.sift_up(self.heap.len() - 1);
        } else if ranks_below(self.key(0), (score, index)) {
            self.heap[0] = (score, index, tag);
            self.sift_down(0);
        }
    }

    /// The ordered `(score, index)` part of entry `i`.
    #[inline]
    fn key(&self, i: usize) -> (f64, usize) {
        (self.heap[i].0, self.heap[i].1)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if ranks_below(self.key(i), self.key(parent)) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut lowest = i;
            if l < n && ranks_below(self.key(l), self.key(lowest)) {
                lowest = l;
            }
            if r < n && ranks_below(self.key(r), self.key(lowest)) {
                lowest = r;
            }
            if lowest == i {
                break;
            }
            self.heap.swap(i, lowest);
            i = lowest;
        }
    }

    fn into_sorted(mut self) -> Vec<(f64, usize)> {
        self.heap.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("scores must not be NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
        self.heap.into_iter().map(|(s, i, _)| (s, i)).collect()
    }
}

/// A bounded binary min-heap keeping the `k` best `(score, index)` pairs
/// seen so far; the root is the *worst* retained pair.
#[derive(Debug, Clone)]
pub struct TopK(BoundedHeap<()>);

impl TopK {
    /// An empty selector that will retain at most `k` pairs.
    pub fn new(k: usize) -> Self {
        TopK(BoundedHeap::new(k))
    }

    /// Number of pairs currently retained (`≤ k`).
    pub fn len(&self) -> usize {
        self.0.heap.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.0.heap.is_empty()
    }

    /// Offers `(index, score)`; keeps it only if it ranks among the best
    /// `k` seen so far.
    #[inline]
    pub fn push(&mut self, index: usize, score: f64) {
        self.0.push(score, index, ());
    }

    /// Consumes the selector, returning the retained `(score, index)` pairs
    /// sorted by score descending, ties by ascending index — identical to
    /// sorting all offered pairs with the same comparator and truncating.
    pub fn into_sorted(self) -> Vec<(f64, usize)> {
        self.0.into_sorted()
    }
}

/// Walks a sorted exclusion list (ascending `u32` indices, the CSR row
/// convention) alongside an ascending index stream.
///
/// The walk runs in the `usize` domain, so no index is ever narrowed to
/// `u32` — catalogs larger than `u32::MAX` cannot silently alias into the
/// exclusion filter.
struct Exclusions<'a> {
    list: &'a [u32],
    cursor: usize,
}

impl<'a> Exclusions<'a> {
    fn new(list: &'a [u32]) -> Self {
        Exclusions { list, cursor: 0 }
    }

    /// Whether `index` is excluded; indices must not decrease over calls.
    #[inline]
    fn contains(&mut self, index: usize) -> bool {
        while self.cursor < self.list.len() && (self.list[self.cursor] as usize) < index {
            self.cursor += 1;
        }
        self.cursor < self.list.len() && self.list[self.cursor] as usize == index
    }
}

/// Keys [`MonotoneTopK::offer_run`] tests against the cutoff in one
/// fold: two cache lines, four 256-bit compares.
const OFFER_CHUNK: usize = 16;

/// Streaming top-`k` over *raw keys* ranked by a non-decreasing transform
/// of them, skipping a sorted exclusion list — output identical, bit for
/// bit, to transforming every key and calling [`top_k_excluding`].
///
/// Keys are offered in **strictly ascending index order**. Once `k` pairs
/// are retained, a key with `raw <= raw_of_root` is rejected without
/// calling the transform. That is exact, not approximate: the transform is
/// non-decreasing, so the key's score cannot exceed the root's, and every
/// retained index is smaller than the offered one, so the key also loses
/// the tie. A NaN key fails `raw <= x`, reaches the heap and panics there
/// like any NaN score.
pub struct MonotoneTopK<'a, F> {
    /// Entries tagged with the raw key their score came from.
    heap: BoundedHeap<f64>,
    /// The root's raw key once `k` pairs are retained — no offer at or
    /// below it can enter. NaN until then, which no key is `<=`.
    cutoff: f64,
    exclude: Exclusions<'a>,
    transform: F,
    /// Smallest index the next offer may carry (checked in debug builds).
    next_index: usize,
}

impl<'a, F: Fn(f64) -> f64> MonotoneTopK<'a, F> {
    /// An empty selector retaining at most `k` pairs, never an index in
    /// the ascending list `exclude`, ranked by `transform(raw)`.
    /// `transform` must be non-decreasing.
    pub fn new(k: usize, exclude: &'a [u32], transform: F) -> Self {
        MonotoneTopK {
            heap: BoundedHeap::new(k),
            cutoff: f64::NAN,
            exclude: Exclusions::new(exclude),
            transform,
            next_index: 0,
        }
    }

    /// Offers item `index`, whose raw key `raw` computes on demand: an
    /// excluded index is dropped before `raw` runs, so callers that score
    /// lazily never score an excluded item.
    #[inline]
    pub fn offer(&mut self, index: usize, raw: impl FnOnce() -> f64) {
        debug_assert!(
            index >= self.next_index,
            "keys must be offered in ascending index order (got {index}, expected at least {})",
            self.next_index
        );
        self.next_index = index + 1;
        if self.exclude.contains(index) {
            return;
        }
        let raw = raw();
        if raw <= self.cutoff {
            return;
        }
        self.heap.push((self.transform)(raw), index, raw);
        if let Some(&(_, _, root_raw)) = self.heap.full_root() {
            self.cutoff = root_raw;
        }
    }

    /// Offers the contiguous run `first, first + 1, …` of already-scored
    /// keys — 16 (`OFFER_CHUNK`) at a time, skipping a chunk in which every
    /// key loses. The test is a branch-free fold over `raw <= cutoff`, so
    /// it runs in vector registers; a NaN key or a NaN cutoff (heap not
    /// full yet) fails it and the chunk takes the per-key path, NaN panic
    /// included. Exclusions inside a skipped chunk need no look: the
    /// cursor catches up on the next offer.
    pub fn offer_run(&mut self, first: usize, raws: &[f64]) {
        debug_assert!(first >= self.next_index, "runs must ascend too");
        let mut chunks = raws.chunks_exact(OFFER_CHUNK);
        // a local, re-read only after a chunk that could move it: storing
        // to `self` per skipped chunk stalls the next chunk's cutoff load
        let mut cutoff = self.cutoff;
        for (at, chunk) in (&mut chunks).enumerate() {
            if !chunk.iter().fold(true, |lost, &raw| lost & (raw <= cutoff)) {
                for (offset, &raw) in chunk.iter().enumerate() {
                    self.offer(first + at * OFFER_CHUNK + offset, || raw);
                }
                cutoff = self.cutoff;
            }
        }
        let tail = chunks.remainder();
        for (offset, &raw) in tail.iter().enumerate() {
            self.offer(first + raws.len() - tail.len() + offset, || raw);
        }
        self.next_index = first + raws.len();
    }

    /// The retained `(transformed score, index)` pairs in ranking order.
    pub fn into_sorted(self) -> Vec<(f64, usize)> {
        self.heap.into_sorted()
    }
}

/// Selects the top-`k` of `scores`, skipping the sorted exclusion list
/// `exclude` (ascending `u32` indices, the CSR row convention). Returns
/// `(score, index)` pairs in ranking order.
pub fn top_k_excluding(scores: &[f64], exclude: &[u32], k: usize) -> Vec<(f64, usize)> {
    let mut heap = TopK::new(k);
    let mut exclude = Exclusions::new(exclude);
    for (index, &score) in scores.iter().enumerate() {
        if !exclude.contains(index) {
            heap.push(index, score);
        }
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_sort(scores: &[f64], exclude: &[u32], k: usize) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = scores
            .iter()
            .enumerate()
            .filter(|(i, _)| exclude.binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| (s, i))
            .collect();
        all.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_sort_on_ties() {
        let scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.5];
        for k in 0..=scores.len() + 1 {
            assert_eq!(
                top_k_excluding(&scores, &[], k),
                by_sort(&scores, &[], k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn exclusion_and_bounds() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let got = top_k_excluding(&scores, &[0, 2], 10);
        assert_eq!(got, vec![(0.8, 1), (0.6, 3)]);
        assert!(top_k_excluding(&scores, &[], 0).is_empty());
    }

    #[test]
    fn monotone_sequences_exercise_both_heap_paths() {
        let inc: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let dec: Vec<f64> = (0..100).map(|i| -(i as f64)).collect();
        for scores in [&inc, &dec] {
            assert_eq!(top_k_excluding(scores, &[], 7), by_sort(scores, &[], 7));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_rejected_loudly() {
        top_k_excluding(&[0.5, f64::NAN], &[], 2);
    }

    /// OCuLaR's probability map, the transform the serving paths pass.
    fn prob(a: f64) -> f64 {
        -(-a).exp_m1()
    }

    fn monotone(raws: &[f64], exclude: &[u32], k: usize) -> Vec<(f64, usize)> {
        let mut top = MonotoneTopK::new(k, exclude, prob);
        top.offer_run(0, raws);
        top.into_sorted()
    }

    #[test]
    fn monotone_selector_matches_transform_then_select() {
        // ties, saturated keys (probability exactly 1.0, index decides),
        // both zeros and a negative key
        let raws = [0.5, 45.0, 0.0, 41.0, -0.0, 0.5, -0.25, 700.0, 41.0, 3.0];
        let probs: Vec<f64> = raws.iter().map(|&a| prob(a)).collect();
        for exclude in [&[][..], &[1], &[0, 7, 9]] {
            for k in 0..=raws.len() + 1 {
                let (got, want) = (
                    monotone(&raws, exclude, k),
                    top_k_excluding(&probs, exclude, k),
                );
                assert_eq!(got.len(), want.len(), "k = {k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.0.to_bits(), g.1), (w.0.to_bits(), w.1), "k = {k}");
                }
            }
        }
    }

    #[test]
    fn monotone_selector_transforms_only_possible_entrants() {
        let calls = std::cell::Cell::new(0usize);
        let mut top = MonotoneTopK::new(2, &[], |a| {
            calls.set(calls.get() + 1);
            prob(a)
        });
        top.offer_run(0, &[3.0, 2.0, 1.0, 2.0, 0.5, 2.5, 2.0]);
        assert_eq!(calls.get(), 3, "only 3.0, 2.0 and 2.5 can enter a top-2");
        let items: Vec<usize> = top.into_sorted().into_iter().map(|p| p.1).collect();
        assert_eq!(items, vec![0, 5]);
    }

    #[test]
    fn monotone_selector_never_scores_an_excluded_index() {
        let mut top = MonotoneTopK::new(1, &[1], prob);
        top.offer(0, || 0.5);
        top.offer(1, || panic!("index 1 is excluded"));
        assert_eq!(top.into_sorted(), vec![(prob(0.5), 0)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn monotone_selector_rejects_nan_keys_loudly() {
        monotone(&[0.5, f64::NAN], &[], 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn monotone_selector_rejects_nan_keys_loudly_when_full() {
        // `NaN <= root` is false, so the filter cannot swallow the key
        monotone(&[0.5, 0.7, f64::NAN], &[], 2);
    }

    /// `offer_run` against one `offer` per key, bit for bit.
    fn assert_run_matches_per_key(raws: &[f64], first: usize, exclude: &[u32], k: usize) {
        let mut run = MonotoneTopK::new(k, exclude, prob);
        run.offer_run(first, raws);
        let mut per_key = MonotoneTopK::new(k, exclude, prob);
        for (offset, &raw) in raws.iter().enumerate() {
            per_key.offer(first + offset, || raw);
        }
        let bits = |sorted: Vec<(f64, usize)>| -> Vec<(u64, usize)> {
            sorted.into_iter().map(|(s, i)| (s.to_bits(), i)).collect()
        };
        let ctx = format!("{} keys from {first}, k = {k}, {exclude:?}", raws.len());
        assert_eq!(
            bits(run.into_sorted()),
            bits(per_key.into_sorted()),
            "{ctx}"
        );
    }

    #[test]
    fn chunked_offer_run_matches_per_key_offers() {
        // a few distinct values, so whole chunks tie with the cutoff and
        // lose, with rare larger keys that make a chunk take the slow path
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let raws: Vec<f64> = (0..40 * OFFER_CHUNK + 5)
            .map(|_| match next() % 64 {
                0 => 3.0 + (next() % 5) as f64,
                r => (r % 4) as f64 * 0.5,
            })
            .collect();
        // exclusions at chunk edges, inside chunks that get skipped, and
        // past the end of every run
        let edge = OFFER_CHUNK as u32;
        let exclude = [
            0,
            1,
            edge - 1,
            edge,
            5 * edge + 3,
            17 * edge,
            39 * edge + 7,
            9999,
        ];
        for k in [0, 1, 3, 10, raws.len() + 1] {
            for exclude in [&[][..], &exclude] {
                // runs shorter than a chunk, exactly chunks, and ragged
                for len in [
                    0,
                    1,
                    OFFER_CHUNK - 1,
                    OFFER_CHUNK,
                    3 * OFFER_CHUNK + 1,
                    raws.len(),
                ] {
                    assert_run_matches_per_key(&raws[..len], 0, exclude, k);
                    assert_run_matches_per_key(&raws[raws.len() - len..], 7, exclude, k);
                }
            }
        }
        // consecutive runs, as the tiled catalog scan offers them
        let mut tiled = MonotoneTopK::new(5, &exclude, prob);
        for (t, tile) in raws.chunks(100).enumerate() {
            tiled.offer_run(t * 100, tile);
        }
        assert_eq!(tiled.into_sorted(), monotone(&raws, &exclude, 5));
    }

    #[test]
    fn chunked_offer_run_skips_transforms_and_exclusion_lookups_of_losing_chunks() {
        let calls = std::cell::Cell::new(0usize);
        let mut top = MonotoneTopK::new(2, &[20, 40], |a| {
            calls.set(calls.get() + 1);
            prob(a)
        });
        let mut raws = vec![1.0; 4 * OFFER_CHUNK];
        raws[0] = 3.0;
        raws[1] = 2.0;
        raws[3 * OFFER_CHUNK + 2] = 2.5;
        top.offer_run(0, &raws);
        // the first chunk fills the heap (3.0, 2.0, and one 1.0 before it
        // was full); two chunks of ties at or under the cutoff are skipped
        // whole, excluded index 20 and 40 included; 2.5 enters from the last
        assert_eq!(calls.get(), 3);
        let items: Vec<usize> = top.into_sorted().into_iter().map(|p| p.1).collect();
        assert_eq!(items, vec![0, 3 * OFFER_CHUNK + 2]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn chunked_offer_run_rejects_a_nan_inside_a_losing_chunk() {
        // every other key of the chunk loses; the NaN must still fail the
        // fold and reach the heap
        let mut raws = vec![0.5; 3 * OFFER_CHUNK];
        raws[0] = 2.0;
        raws[1] = 2.0;
        raws[2 * OFFER_CHUNK + 9] = f64::NAN;
        monotone(&raws, &[], 2);
    }

    // the filter's proof needs every retained index to be smaller than the
    // offered one; release builds compile the check out
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ascending index order")]
    fn monotone_selector_pins_ascending_offers() {
        let mut top = MonotoneTopK::new(2, &[], prob);
        top.offer(3, || 0.5);
        top.offer(3, || 0.7);
    }
}
