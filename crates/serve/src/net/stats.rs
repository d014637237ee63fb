//! Server-side observability: lock-free request counters and log-bucketed
//! latency histograms, merged on demand into the `GET /stats` JSON body.
//!
//! The histogram is the classic HdrHistogram-style log-linear layout: one
//! bucket per nanosecond below 16 ns, then 16 sub-buckets per power of two
//! above, which bounds the relative quantile error at 1/16 (~6%) across
//! the whole range while keeping the table small enough to live as plain
//! `AtomicU64`s. Workers record into their own histogram with relaxed
//! atomics — no locks, no contention — and `/stats` merges the per-worker
//! tables at read time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::ServeEngine;
use crate::json::Json;

/// Sub-buckets per power of two above the linear range.
const SUB_BUCKETS: u64 = 16;
/// Log2 of [`SUB_BUCKETS`]: values below `2^(SUB_BITS)` get exact buckets.
const SUB_BITS: u32 = 4;
/// Total buckets: 16 linear + 16 per octave for octaves 4..=63.
const BUCKETS: usize = (SUB_BUCKETS as usize) + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

/// A log-bucketed histogram of nanosecond durations, recordable from many
/// threads without locks.
pub struct LatencyHistogram {
    counts: Vec<AtomicU64>,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS) as u64 * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
    }

    /// The midpoint of a bucket's value range, in nanoseconds.
    fn representative(bucket: usize) -> u64 {
        if bucket < SUB_BUCKETS as usize {
            return bucket as u64;
        }
        let idx = (bucket - SUB_BUCKETS as usize) as u64;
        let msb = (idx / SUB_BUCKETS) as u32 + SUB_BITS;
        let sub = idx % SUB_BUCKETS;
        let lo = (1u64 << msb) + (sub << (msb - SUB_BITS));
        lo + (1u64 << (msb - SUB_BITS)) / 2
    }

    /// Records one duration.
    pub fn record(&self, duration: std::time::Duration) {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Merges several histograms into one snapshot of bucket counts.
    fn merged(histograms: &[LatencyHistogram]) -> (Vec<u64>, u64) {
        let mut counts = vec![0u64; BUCKETS];
        let mut max_ns = 0u64;
        for h in histograms {
            for (acc, c) in counts.iter_mut().zip(&h.counts) {
                *acc += c.load(Ordering::Relaxed);
            }
            max_ns = max_ns.max(h.max_ns.load(Ordering::Relaxed));
        }
        (counts, max_ns)
    }

    /// The `q`-quantile (0..=1) in nanoseconds over merged histograms;
    /// `None` when no samples were recorded.
    pub fn quantile_merged(histograms: &[LatencyHistogram], q: f64) -> Option<u64> {
        let (counts, max_ns) = Self::merged(histograms);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::representative(b).min(max_ns));
            }
        }
        Some(max_ns)
    }
}

/// Counters and latency histograms for one running server.
pub struct ServerStats {
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Connections closed since start (active = accepted − closed).
    pub closed: AtomicU64,
    /// HTTP requests parsed off the wire.
    pub requests: AtomicU64,
    /// Recommendation requests answered through the engine.
    pub served: AtomicU64,
    /// Requests answered `overloaded` by admission control.
    pub shed: AtomicU64,
    /// Requests rejected before the engine (HTTP or protocol decode).
    pub bad_requests: AtomicU64,
    /// Hot-reload attempts (`POST /admin/reload` + `SIGHUP`), successful
    /// or not; completed swaps are reported separately from the swap
    /// handle.
    pub reloads: AtomicU64,
    /// Per-worker latency histograms (request arrival → response bytes
    /// queued), merged at read time.
    pub histograms: Vec<LatencyHistogram>,
}

impl ServerStats {
    /// Fresh stats for `workers` serve workers.
    pub fn new(workers: usize) -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            histograms: (0..workers.max(1))
                .map(|_| LatencyHistogram::new())
                .collect(),
        }
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        self.accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.closed.load(Ordering::Relaxed))
    }

    /// The `GET /stats` body: counters plus merged latency quantiles in
    /// microseconds.
    pub fn to_json(&self) -> Json {
        let us = |q: f64| {
            LatencyHistogram::quantile_merged(&self.histograms, q)
                .map(|ns| Json::Num(ns as f64 / 1000.0))
                .unwrap_or(Json::Null)
        };
        let count: u64 = self.histograms.iter().map(|h| h.count()).sum();
        let max_ns = self
            .histograms
            .iter()
            .map(|h| h.max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let latency = Json::Obj(vec![
            ("count".into(), Json::Int(count)),
            ("p50".into(), us(0.50)),
            ("p90".into(), us(0.90)),
            ("p99".into(), us(0.99)),
            ("p999".into(), us(0.999)),
            (
                "max".into(),
                if count == 0 {
                    Json::Null
                } else {
                    Json::Num(max_ns as f64 / 1000.0)
                },
            ),
        ]);
        Json::Obj(vec![
            (
                "accepted".into(),
                Json::Int(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "active_connections".into(),
                Json::Int(self.active_connections()),
            ),
            (
                "requests".into(),
                Json::Int(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "served".into(),
                Json::Int(self.served.load(Ordering::Relaxed)),
            ),
            ("shed".into(), Json::Int(self.shed.load(Ordering::Relaxed))),
            (
                "bad_requests".into(),
                Json::Int(self.bad_requests.load(Ordering::Relaxed)),
            ),
            ("latency_us".into(), latency),
        ])
    }

    /// The `/stats` body with the serving model's identity appended:
    /// which `model_generation` and `kind` answer requests right now,
    /// the quantized scoring `dtype` when one is active and the ISA level
    /// of the scoring `kernel` (why two hosts can differ 1.8× on one
    /// snapshot), the OCuLaR full-catalog `scans` by arm —
    /// `{sparse, dense, active_codes_mean, split}`, [`crate::engine::ScanStats`]
    /// — how many hot `swaps` have landed, whether a reload is in
    /// flight, how many `reloads` were attempted, and the fold-in solver
    /// counters `fold_ins` / `fold_in_iterations` / `fold_in_unconverged`
    /// ([`crate::engine::FoldInStats`]).
    pub fn to_json_with_model(&self, engine: &ServeEngine, swaps: u64, reloading: bool) -> Json {
        let Json::Obj(mut fields) = self.to_json() else {
            unreachable!("stats body is an object");
        };
        let text = |s: &str| Json::Str(s.to_string());
        fields.push(("model_generation".into(), Json::Int(engine.generation())));
        fields.push(("kind".into(), text(engine.kind())));
        fields.push(("dtype".into(), text(engine.dtype().unwrap_or("f64"))));
        fields.push(("kernel".into(), text(engine.kernel())));
        let scans = engine.scan_stats();
        let mean = scans.active_codes as f64 / (scans.sparse + scans.dense).max(1) as f64;
        let scans = crate::json::obj(vec![
            ("sparse", Json::Int(scans.sparse)),
            ("dense", Json::Int(scans.dense)),
            ("active_codes_mean", Json::Num(mean)),
            ("split", Json::Int(scans.split)),
        ]);
        fields.push(("scans".into(), scans));
        fields.push(("swaps".into(), Json::Int(swaps)));
        fields.push(("reloading".into(), Json::Bool(reloading)));
        fields.push((
            "reloads".into(),
            Json::Int(self.reloads.load(Ordering::Relaxed)),
        ));
        let fold = engine.fold_in_stats();
        fields.push(("fold_ins".into(), Json::Int(fold.fold_ins)));
        fields.push(("fold_in_iterations".into(), Json::Int(fold.iterations)));
        fields.push(("fold_in_unconverged".into(), Json::Int(fold.unconverged)));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buckets_are_monotone_and_bounded_error() {
        let mut prev = 0usize;
        for &ns in &[0u64, 1, 15, 16, 17, 100, 1_000, 65_537, 1 << 40, u64::MAX] {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(b >= prev, "bucket order broke at {ns}");
            assert!(b < BUCKETS);
            prev = b;
            if ns >= 16 {
                let rep = LatencyHistogram::representative(b) as f64;
                let err = (rep - ns as f64).abs() / ns as f64;
                assert!(err <= 1.0 / 16.0 + 1e-9, "error {err} at {ns}");
            } else {
                assert_eq!(LatencyHistogram::representative(b), ns);
            }
        }
    }

    #[test]
    fn quantiles_over_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 samples: 1µs ×90, 100µs ×9, 10ms ×1.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(10));
        let hs = [h];
        let p50 = LatencyHistogram::quantile_merged(&hs, 0.50).unwrap();
        let p99 = LatencyHistogram::quantile_merged(&hs, 0.99).unwrap();
        let p999 = LatencyHistogram::quantile_merged(&hs, 0.999).unwrap();
        assert!((900..=1100).contains(&p50), "p50 {p50}");
        assert!((90_000..=110_000).contains(&p99), "p99 {p99}");
        assert_eq!(p999, 10_000_000, "p999 clamps to observed max");
    }

    #[test]
    fn merge_combines_worker_histograms() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..10 {
            a.record(Duration::from_micros(5));
            b.record(Duration::from_micros(500));
        }
        let hs = [a, b];
        let p50 = LatencyHistogram::quantile_merged(&hs, 0.5).unwrap();
        assert!((4_500..=5_500).contains(&p50), "p50 {p50}");
        let p99 = LatencyHistogram::quantile_merged(&hs, 0.99).unwrap();
        assert!((450_000..=550_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn stats_json_shape() {
        let stats = ServerStats::new(2);
        stats.accepted.store(3, Ordering::Relaxed);
        stats.closed.store(1, Ordering::Relaxed);
        stats.served.store(7, Ordering::Relaxed);
        stats.histograms[0].record(Duration::from_micros(42));
        let text = stats.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("active_connections").unwrap().as_u64(), Some(2));
        assert_eq!(back.get("served").unwrap().as_u64(), Some(7));
        let lat = back.get("latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        assert!(lat.get("p50").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn stats_json_carries_the_model_identity() {
        use crate::{EngineBuilder, KernelLevel, QuantDtype};
        use ocular_core::FactorModel;
        use ocular_linalg::Matrix;
        use ocular_sparse::{CsrMatrix, Dataset};

        let factors = |rows: usize| Matrix::from_vec(rows, 2, vec![0.5; rows * 2]);
        let builder = || {
            EngineBuilder::from_model(FactorModel::new(factors(5), factors(4), false))
                .dataset(Dataset::from_matrix(CsrMatrix::empty(5, 4)))
                .generation(9)
        };
        let stats = ServerStats::new(1);
        stats.reloads.store(4, Ordering::Relaxed);
        let body = |engine: &ServeEngine, reloading: bool| {
            let text = stats.to_json_with_model(engine, 3, reloading).to_string();
            Json::parse(&text).unwrap()
        };
        let f64_engine = builder().build().unwrap();
        let back = body(&f64_engine, true);
        assert_eq!(back.get("model_generation").unwrap().as_u64(), Some(9));
        assert_eq!(back.get("kind").unwrap().as_str(), Some("ocular"));
        assert_eq!(back.get("dtype").unwrap().as_str(), Some("f64"));
        assert_eq!(back.get("kernel").unwrap().as_str(), Some("baseline"));
        assert_eq!(back.get("swaps").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("reloading"), Some(&Json::Bool(true)));
        assert_eq!(back.get("reloads").unwrap().as_u64(), Some(4));
        // full-catalog scans by arm: none yet, then three through the f64
        // master, which multiplies all k = 2 factors per item
        let scans = |back: &Json, field: &str| back.get("scans").unwrap().get(field).cloned();
        for field in ["sparse", "dense"] {
            assert_eq!(scans(&back, field).unwrap().as_u64(), Some(0));
        }
        assert_eq!(
            scans(&back, "active_codes_mean").unwrap().as_f64(),
            Some(0.0)
        );
        for user in 0..3 {
            let request = crate::Request::Warm { user, m: 2 };
            f64_engine.serve_one(&request).unwrap();
        }
        let back = body(&f64_engine, true);
        assert_eq!(scans(&back, "sparse").unwrap().as_u64(), Some(0));
        assert_eq!(scans(&back, "dense").unwrap().as_u64(), Some(3));
        assert_eq!(
            scans(&back, "active_codes_mean").unwrap().as_f64(),
            Some(2.0)
        );
        // a quantized engine names its representation and kernel level
        let int8 = builder().quantization(QuantDtype::I8).build().unwrap();
        let back = body(&int8, false);
        assert_eq!(back.get("dtype").unwrap().as_str(), Some("int8"));
        assert_eq!(
            back.get("kernel").unwrap().as_str(),
            Some(KernelLevel::detect().name())
        );
    }
}
