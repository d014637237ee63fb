//! Percentile, median and slope maths shared by every phase.

use crate::client::Sample;

/// 1-based nearest rank of quantile `q` among `n` samples: the smallest
/// rank with at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the `q`-quantile's rank — how much evidence a
/// reported tail percentile rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// `(p50, p99)` in microseconds of nanosecond samples (sorted in place).
pub fn p50_p99_us(ns: &mut [u64]) -> (f64, f64) {
    ns.sort_unstable();
    (
        percentile(ns, 0.50) as f64 / 1e3,
        percentile(ns, 0.99) as f64 / 1e3,
    )
}

/// One in this many slices of a load window is kept: the fastest ones.
const QUIET_SHARE: usize = 4;

/// What a load window measured, read from its least-disturbed quarter.
pub struct WindowStats {
    /// Served responses per second of each slice, in time order.
    pub slice_rps: Vec<f64>,
    /// Served responses per second over the kept slices.
    pub rps: f64,
    /// Median of the kept slices' pooled samples.
    pub p50_us: f64,
    /// Median over the kept slices of each slice's own 99th percentile.
    pub p99_us: f64,
    /// Latency samples all three rest on.
    pub samples: usize,
    /// Samples beyond the 99th percentile of the smallest kept slice.
    pub beyond_p99: usize,
}

/// Cuts a window of `window_us` into `k` equal slices of samples and keeps the
/// fastest quarter of them; throughput and the median latency are those of
/// the kept slices' pooled samples. Something outside the benchmark taking
/// a core only ever slows a slice down, so interference spoils the slices
/// it overlaps, not the run. The tail is read slice by slice — the median
/// of the kept slices' 99th percentiles — because a pooled tail belongs to
/// whichever kept slice was disturbed after all: a stall that costs a
/// slice 1% of its rate, too little to rank it out, is that slice's whole
/// top percent. Both the end-to-end and the traced run read their load
/// window through this one function.
pub fn window_stats(served: &[Sample], window_us: u64, k: usize) -> WindowStats {
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); k];
    for &(done_us, latency_ns) in served {
        let slice = (u64::from(done_us) * k as u64 / window_us) as usize;
        slices[slice.min(k - 1)].push(u64::from(latency_ns));
    }
    let per_second = k as f64 * 1e6 / window_us as f64;
    let slice_rps: Vec<f64> = slices.iter().map(|s| s.len() as f64 * per_second).collect();
    slices.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let n_kept = (k / QUIET_SHARE).max(1);
    let kept = &mut slices[..n_kept];
    let mut pooled: Vec<u64> = kept.concat();
    // a server that stopped answering leaves nothing to take a percentile of
    let p50_us = if pooled.is_empty() {
        0.0
    } else {
        p50_p99_us(&mut pooled).0
    };
    let slice_p99_us: Vec<f64> = kept
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| p50_p99_us(s).1)
        .collect();
    let smallest = kept.iter().map(Vec::len).min().unwrap_or(0);
    WindowStats {
        slice_rps,
        rps: pooled.len() as f64 * per_second / n_kept as f64,
        p50_us,
        p99_us: if slice_p99_us.is_empty() {
            0.0
        } else {
            median(&slice_p99_us)
        },
        samples: pooled.len(),
        beyond_p99: samples_beyond(smallest.max(1), 0.99),
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of nanosecond samples, in microseconds.
pub fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3
}

/// Least-squares slope of `ln y` against `ln x` — the exponent `e` of a
/// fitted `y ∝ x^e`.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_counts() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(16_000, 0.99), 160);
        assert_eq!(samples_beyond(1, 0.99), 0);
        // a single sample is every percentile of itself
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn p50_p99_sorts_and_converts_to_microseconds() {
        let mut ns: Vec<u64> = (1..=200).rev().map(|x| x * 1000).collect();
        assert_eq!(p50_p99_us(&mut ns), (100.0, 198.0));
    }

    #[test]
    fn window_stats_rate_every_slice_and_keep_the_fastest_quarter() {
        // 1 s window, 8 slices; the two fastest (800 and 700 completions)
        // are "quiet", every other slice has latencies a thousand times worse
        let counts = [100u32, 800, 300, 200, 700, 400, 500, 600];
        let mut served = Vec::new();
        for (slice, n) in counts.into_iter().enumerate() {
            let latency = if n >= 700 { 1_000 + n } else { 1_000_000 };
            for j in 0..n {
                served.push((slice as u32 * 125_000 + j * 125_000 / n, latency));
            }
        }
        let w = window_stats(&served, 1_000_000, 8);
        let expect: Vec<f64> = counts.iter().map(|&n| f64::from(n) * 8.0).collect();
        assert_eq!(w.slice_rps, expect);
        // the slices' counts add up to the whole window's
        assert_eq!(w.slice_rps.iter().sum::<f64>() / 8.0, served.len() as f64);
        // all three metrics are of the 800 + 700 samples of the kept slices:
        // rate and median of the pool, the tail as the median of the two
        // slices' own 99th percentiles (1.8 and 1.7 us)
        assert_eq!(w.samples, 1500);
        assert_eq!(w.rps, 1500.0 / 0.25);
        assert_eq!((w.p50_us, w.p99_us), (1.8, 1.75));
        assert_eq!(w.beyond_p99, samples_beyond(700, 0.99));

        // a kept slice with a disturbed top percent owns the pooled tail but
        // not the median of the slices' tails
        let mut one_bad = Vec::new();
        for slice in 0..12u32 {
            for j in 0..100u32 {
                let stalled = slice == 0 && j >= 90;
                let latency = if stalled { 9_000_000 } else { 1_000 + j };
                // three fast slices of 100 samples, nine slower ones of 50
                if slice < 3 || j < 50 {
                    one_bad.push((slice * 1000 + j, latency));
                }
            }
        }
        let w = window_stats(&one_bad, 12_000, 12);
        assert_eq!(w.samples, 300);
        assert_eq!(w.p99_us, 1.098);

        // fewer slices than the share: the fastest one is kept
        let two = window_stats(&[(0, 5_000), (1, 6_000), (999_999, 7_000)], 1_000_000, 2);
        assert_eq!((two.rps, two.samples, two.p99_us), (4.0, 2, 6.0));
        // a completion stamped exactly at the window's end lands in the last slice
        let edge = window_stats(&[(1_000_000, 7_000)], 1_000_000, 2);
        assert_eq!(edge.slice_rps, [0.0, 2.0]);
        // nothing served: zeros, not a panic
        let dead = window_stats(&[], 1_000_000, 4);
        assert_eq!((dead.rps, dead.p99_us, dead.samples), (0.0, 0.0, 0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let linear: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        let square: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        assert!((loglog_slope(&xs, &linear) - 1.0).abs() < 1e-12);
        assert!((loglog_slope(&xs, &square) - 2.0).abs() < 1e-12);
    }
}
