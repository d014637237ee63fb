//! The traced run's per-layer phases: each public function of a layer is
//! called inside a span, alone, on the run's own model and request stream.

use crate::client::{closed_loop, open_loop, sample_buffers, ClosedLoop, LoadResult};
use crate::pipeline::{
    load_engine, load_snapshot, reply_bytes, served_path, Inputs, Metric, Spec, M,
};
use crate::stats::{loglog_slope, mean_us, median, p50_p99_us};
use crate::trace::Tracer;
use ocular_core::loss::objective;
use ocular_core::model::prob_from_affinity;
use ocular_core::{
    fit, fold_in_user_with, FactorModel, FoldInScratch, OcularConfig, TrainingHistory,
};
use ocular_linalg::topk::top_k_excluding;
use ocular_linalg::{QuantDtype, QuantizedFactors};
use ocular_serve::net::http::{format_response, parse_request, ParseOutcome};
use ocular_serve::net::{LatencyHistogram, ServerStats};
use ocular_serve::{
    ClusterIndex, IndexConfig, Request, ServeConfig, ServeEngine, Snapshot, SwapEngine, WireRequest,
};
use ocular_sparse::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Requests replayed in process, at most.
const REPLAY_MAX: usize = 20_000;
/// Calls per kernel, at most.
const KERNEL_CALLS: usize = 2_000;
/// Sweeps of each scaling-ladder fit.
const LADDER_SWEEPS: usize = 3;
/// Engines loaded, built and then swapped in.
const SWAPS: usize = 20;

/// What the traced phases read from the run that came before them.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub dir: &'a Path,
    pub inputs: &'a Inputs,
    pub model: &'a FactorModel,
    pub history: &'a TrainingHistory,
    pub bodies: &'a [String],
    pub raw: &'a [Vec<u8>],
    /// A second engine on the served snapshot.
    pub engine: &'a ServeEngine,
    pub addr: SocketAddr,
    pub stats: &'a ServerStats,
    /// The closed-loop phase, taken with no span being recorded.
    pub load: &'a LoadResult,
    pub checks: &'a mut Vec<(String, bool)>,
}

/// Calls `f(i)` inside a span `name`, up to `max_calls` times or until
/// `budget_s` is spent.
fn timed_calls(
    tr: &mut Tracer,
    name: &'static str,
    max_calls: usize,
    budget_s: f64,
    mut f: impl FnMut(usize),
) {
    let started = Instant::now();
    for i in 0..max_calls {
        tr.time(name, i as u64, None, || f(i));
        if started.elapsed().as_secs_f64() > budget_s {
            break;
        }
    }
}

/// The per-layer table being filled in. A metric measured by one span
/// is named after it: `<span>_ms` or `<span>_us`.
struct Table(Vec<Metric>);

impl Table {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric::new(name, value, unit, n));
    }

    /// `<span>_ms`: the first span of that name; returns the value.
    fn first_ms(&mut self, tr: &Tracer, span: &str) -> f64 {
        let ms = tr.durations_ns(span)[0] as f64 / 1e6;
        self.put(&format!("{span}_ms"), ms, "ms", 1);
        ms
    }

    /// `<span>_us`: the median over the spans of that name; returns it.
    fn p50_us(&mut self, tr: &Tracer, span: &str) -> f64 {
        let mut ns = tr.durations_ns(span);
        let us = p50_p99_us(&mut ns).0;
        self.put(&format!("{span}_us"), us, "us", ns.len());
        us
    }
}

/// What one in-process replay of the stream's head saw.
struct Replay {
    requests: usize,
    wall_s: f64,
    scored: usize,
    fell_back: usize,
    request_bytes: usize,
    response_bytes: usize,
}

/// Walks requests through the server's stages in the server's order, on
/// one thread, each stage in its own span under a per-request root.
fn replay(
    engine: &ServeEngine,
    raw: &[Vec<u8>],
    max: usize,
    budget_s: f64,
    tr: &mut Tracer,
) -> Replay {
    let mut out = Replay {
        requests: 0,
        wall_s: 0.0,
        scored: 0,
        fell_back: 0,
        request_bytes: 0,
        response_bytes: 0,
    };
    let started = Instant::now();
    for (i, bytes) in raw.iter().enumerate().take(max) {
        let id = i as u64;
        let root = tr.begin("request", id, None);
        let http = match tr.time("serve.net.http.parse", id, root, || parse_request(bytes)) {
            Ok(ParseOutcome::Complete(request, _)) => request,
            other => panic!("generated request does not parse: {other:?}"),
        };
        let wire = tr.time("serve.protocol.decode", id, root, || {
            WireRequest::decode(&String::from_utf8_lossy(&http.body))
        });
        let request = wire.expect("generated request decodes").request;
        let result = tr.time("serve.engine.serve", id, root, || {
            engine.serve_one(&request)
        });
        let (status, body) = tr.time("serve.protocol.encode", id, root, || {
            reply_bytes(engine, &request, &result)
        });
        let response = tr.time("serve.net.http.format", id, root, || {
            format_response(status, &body, http.keep_alive)
        });
        tr.end(root);
        let served = result.expect("replayed request is served");
        out.requests += 1;
        out.scored += served.scored;
        out.fell_back += usize::from(served.fell_back);
        out.request_bytes += bytes.len();
        out.response_bytes += std::hint::black_box(response).len();
        if started.elapsed().as_secs_f64() > budget_s {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Median sweep seconds of a short fixed-sweep fit.
fn ladder_sweep_s(data: &Dataset, cfg: &OcularConfig, tr: &mut Tracer) -> f64 {
    let cfg = OcularConfig {
        max_iters: LADDER_SWEEPS,
        ..cfg.clone()
    };
    let history = tr
        .time("core.fit.ladder", 0, None, || fit(data, &cfg))
        .history;
    median(&history.sweep_seconds)
}

/// FNV-1a over the bodies, low 32 bits.
fn digest32<'a>(bodies: impl Iterator<Item = &'a [u8]>) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bodies.flatten() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as u32
}

pub fn measure(ctx: &mut Ctx, tr: &mut Tracer) -> Vec<Metric> {
    let mut t = Table(Vec::new());
    training_layers(ctx, tr, &mut t);
    let path = served_path(ctx.spec, ctx.dir);
    let snapshot = load_snapshot(&path);
    snapshot_layers(ctx, tr, &mut t, &path, &snapshot.model);
    request_path(ctx, tr, &mut t);
    kernels(ctx, tr, &mut t, &snapshot);
    network_probes(ctx, &mut t);
    t.0
}

/// Spans of the set-up pass, the sweep history, and the scaling ladders.
fn training_layers(ctx: &mut Ctx, tr: &mut Tracer, t: &mut Table) {
    let train = &ctx.inputs.split.train;
    let cfg = &ctx.inputs.cfg;
    t.first_ms(tr, "sparse.ingest");
    let fresh = Dataset::from_matrix(train.matrix().clone());
    tr.time("sparse.item_view", 0, None, || fresh.item_view().nnz());
    t.first_ms(tr, "sparse.item_view");

    let fit_s = tr.total_s("core.fit");
    t.put("core.fit_s", fit_s, "s", 1);
    let sweeps = &ctx.history.sweep_seconds;
    let n = sweeps.len();
    let p50 = median(sweeps);
    let fastest = sweeps.iter().cloned().fold(f64::INFINITY, f64::min);
    let slowest = sweeps.iter().cloned().fold(0.0, f64::max);
    t.put("core.sweep_ms_p50", p50 * 1e3, "ms", n);
    t.put("core.sweep_ms_max", slowest * 1e3, "ms", n);
    t.put("core.sweep_flatness", sweeps[n - 1] / fastest, "ratio", n);
    let cell_ns = p50 * 1e9 / (train.nnz() * cfg.k) as f64;
    t.put("core.ns_per_nnz_k", cell_ns, "ns", n);

    // the paper's linear-sweep-cost claim: time against nnz at fixed K,
    // and against K at fixed nnz
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x001a_dde4);
    let (mut nnzs, mut by_nnz) = (Vec::new(), Vec::new());
    for share in [0.25, 0.5, 1.0] {
        let keep: Vec<bool> = (0..train.nnz()).map(|_| rng.gen::<f64>() < share).collect();
        let thinned = train.filter_nnz(&keep);
        nnzs.push(thinned.nnz() as f64);
        by_nnz.push(ladder_sweep_s(&thinned, cfg, tr));
    }
    t.put(
        "core.sweep_exponent_nnz",
        loglog_slope(&nnzs, &by_nnz),
        "ratio",
        3,
    );
    let (mut ks, mut by_k) = (Vec::new(), Vec::new());
    for k in [cfg.k.div_ceil(4), cfg.k.div_ceil(2), cfg.k, 2 * cfg.k] {
        ks.push(k as f64);
        by_k.push(ladder_sweep_s(
            train,
            &OcularConfig { k, ..cfg.clone() },
            tr,
        ));
    }
    t.put(
        "core.sweep_exponent_k",
        loglog_slope(&ks, &by_k),
        "ratio",
        4,
    );

    let weights = vec![1.0; train.n_rows()];
    let q = tr.time("core.objective_eval", 0, None, || {
        objective(train, ctx.model, cfg.lambda, &weights)
    });
    t.first_ms(tr, "core.objective_eval");
    t.put("core.final_objective", q, "1", 1);
    ctx.checks.push((
        "the trainer's last objective is the model's objective".into(),
        q.to_bits() == ctx.history.final_objective().to_bits(),
    ));

    let parallel_s = tr.total_s("parallel.fit");
    t.put("parallel.fit_s", parallel_s, "s", 1);
    t.put("parallel.speedup", fit_s / parallel_s, "ratio", 1);
    // `train_wall_s` with `fit_parallel`: ingest → fit → snapshot → file
    let parallel_wall_s = tr.total_s("train_parallel");
    t.put("train_parallel_wall_s", parallel_wall_s, "s", 1);
    t.first_ms(tr, "eval.evaluate");
}

/// Index, snapshot file, engine build and hot swap, on the served model.
fn snapshot_layers(ctx: &Ctx, tr: &mut Tracer, t: &mut Table, path: &Path, served: &FactorModel) {
    tr.time("serve.index.build", 0, None, || {
        ClusterIndex::build(served, &IndexConfig::default())
    });
    t.first_ms(tr, "serve.index.build");

    // save_path = encode + write; writing the served file's bytes again
    // isolates the file write, the rest is the encode (computed, not timed)
    let bytes = std::fs::read(path).expect("read the served snapshot");
    let rewrite = ctx.dir.join("rewrite.snap");
    tr.time("serve.snapshot.write", 0, None, || {
        std::fs::write(&rewrite, &bytes).expect("rewrite the snapshot bytes")
    });
    let save_ms = tr.durations_ns("serve.snapshot.save")[0] as f64 / 1e6;
    let write_ms = t.first_ms(tr, "serve.snapshot.write");
    t.put(
        "serve.snapshot.encode_ms",
        (save_ms - write_ms).max(0.0),
        "ms",
        1,
    );
    t.put("serve.snapshot.bytes", bytes.len() as f64, "B", 1);

    // load + build SWAPS more engines on rising generations, then swap
    // each into an idle handle
    let data = ctx.inputs.served_data();
    let cfg = &ctx.inputs.cfg;
    let mut loads = Tracer::new(true);
    let swap = SwapEngine::new(load_engine(
        path,
        data.clone(),
        ctx.spec,
        cfg,
        0,
        &mut loads,
    ));
    let engines: Vec<ServeEngine> = (1..=SWAPS as u64)
        .map(|g| load_engine(path, data.clone(), ctx.spec, cfg, g, &mut loads))
        .collect();
    for span in ["serve.snapshot.load", "serve.engine.build"] {
        let ms: Vec<f64> = loads
            .durations_ns(span)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        t.put(&format!("{span}_ms"), median(&ms), "ms", ms.len());
    }
    for (i, engine) in engines.into_iter().enumerate() {
        tr.time("serve.swap.swap", i as u64, None, || {
            swap.swap(engine).expect("a rising generation swaps in")
        });
    }
    t.p50_us(tr, "serve.swap.swap");
}

/// The request path stage by stage, and what the server adds around it.
fn request_path(ctx: &mut Ctx, tr: &mut Tracer, t: &mut Table) {
    let budget_s = 0.15 * ctx.seconds;
    // a few untimed requests first, so the untraced replay does not also pay
    // for cold caches and make tracing look free
    replay(ctx.engine, ctx.raw, 256, budget_s, &mut Tracer::new(false));
    let untraced = replay(
        ctx.engine,
        ctx.raw,
        REPLAY_MAX,
        budget_s,
        &mut Tracer::new(false),
    );
    let traced = replay(ctx.engine, ctx.raw, untraced.requests, f64::INFINITY, tr);
    let n = traced.requests;
    t.p50_us(tr, "serve.net.http.parse");
    t.p50_us(tr, "serve.protocol.decode");
    let mut serve_ns = tr.durations_ns("serve.engine.serve");
    let (p50, p99) = p50_p99_us(&mut serve_ns);
    t.put("serve.engine.serve_us_p50", p50, "us", n);
    t.put("serve.engine.serve_us_p99", p99, "us", n);
    t.p50_us(tr, "serve.protocol.encode");
    t.p50_us(tr, "serve.net.http.format");
    let path_us_mean: f64 = [
        "serve.net.http.parse",
        "serve.protocol.decode",
        "serve.engine.serve",
        "serve.protocol.encode",
        "serve.net.http.format",
    ]
    .iter()
    .map(|stage| mean_us(&tr.durations_ns(stage)))
    .sum();
    t.put("serve.engine.path_us_mean", path_us_mean, "us", n);

    // by construction: path + overhead = wall time per served request,
    // 1e6 / `throughput_rps` as the end-to-end run defines it, over this
    // run's own (shorter) load window
    let window = ctx.load.window();
    t.put("latency_p99_us", window.p99_us, "us", window.samples);
    let per_request_us = 1e6 / window.rps;
    let overhead_us = per_request_us - path_us_mean;
    let served_n = window.samples;
    t.put(
        "serve.net.server.wall_us_per_req",
        per_request_us,
        "us",
        served_n,
    );
    t.put("serve.net.server.overhead_us", overhead_us, "us", served_n);
    t.put(
        "serve.net.server.overhead_share",
        overhead_us / per_request_us,
        "ratio",
        served_n,
    );
    // what the fastest-quarter reading leaves out: the same window whole
    let (whole_rps, whole_p50_us, whole_p99_us) = ctx.load.whole_window();
    let whole_n = ctx.load.served.len();
    t.put("loadgen.whole_window_rps", whole_rps, "req/s", whole_n);
    t.put("loadgen.whole_window_p50_us", whole_p50_us, "us", whole_n);
    t.put("loadgen.whole_window_p99_us", whole_p99_us, "us", whole_n);
    let inproc_ns = LatencyHistogram::quantile_merged(&ctx.stats.histograms, 0.5).unwrap_or(0);
    let server_n = ctx.stats.served.load(Ordering::Relaxed) as usize;
    t.put(
        "serve.net.server.inproc_p50_us",
        inproc_ns as f64 / 1e3,
        "us",
        server_n,
    );
    let parsed = ctx.stats.requests.load(Ordering::Relaxed);
    let shed = ctx.stats.shed.load(Ordering::Relaxed);
    t.put(
        "serve.net.server.shed_share",
        shed as f64 / parsed.max(1) as f64,
        "ratio",
        parsed as usize,
    );
    let cpu_us = ctx.load.cpu_s * 1e6 / ctx.load.completed.max(1) as f64;
    t.put(
        "proc.cpu_us_per_req",
        cpu_us,
        "us",
        ctx.load.completed as usize,
    );
    let digest = digest32(ctx.load.samples.iter().map(|(_, body)| body.as_slice()));
    t.put(
        "engine.response_digest32",
        f64::from(digest),
        "1",
        ctx.load.samples.len(),
    );

    let requests: Vec<Request> = ctx.bodies[..n]
        .iter()
        .map(|b| {
            WireRequest::decode(b)
                .expect("generated request decodes")
                .request
        })
        .collect();
    let answers = tr.time("serve.engine.serve_batch", 0, None, || {
        ctx.engine.serve_batch(&requests)
    });
    ctx.checks.push((
        "serve_batch serves every replayed request".into(),
        answers.iter().all(Result::is_ok),
    ));
    let nf = n as f64;
    t.put(
        "serve.engine.batch_rps",
        nf / tr.total_s("serve.engine.serve_batch"),
        "req/s",
        n,
    );
    t.put(
        "serve.engine.scored_items_mean",
        traced.scored as f64 / nf,
        "items",
        n,
    );
    t.put(
        "serve.engine.fallback_share",
        traced.fell_back as f64 / nf,
        "ratio",
        n,
    );
    t.put(
        "serve.net.http.request_bytes_mean",
        traced.request_bytes as f64 / nf,
        "B",
        n,
    );
    t.put(
        "serve.protocol.response_bytes_mean",
        traced.response_bytes as f64 / nf,
        "B",
        n,
    );
    let overhead = (traced.wall_s - untraced.wall_s) / untraced.wall_s;
    t.put("trace.overhead_share", overhead, "ratio", n);
}

/// Each kernel alone: candidates, the three scoring dtypes, the
/// probability transform and top-M on the served model; fold-in on the
/// trained one.
fn kernels(ctx: &Ctx, tr: &mut Tracer, t: &mut Table, snapshot: &Snapshot) {
    let served = &snapshot.model;
    let budget_s = 0.04 * ctx.seconds;
    let user_of = |i: usize| (i * 31) % served.n_users();
    timed_calls(tr, "serve.index.candidates", KERNEL_CALLS, budget_s, |i| {
        let row = served.user_factors.row(user_of(i));
        std::hint::black_box(snapshot.index.candidates(row));
    });
    t.p50_us(tr, "serve.index.candidates");

    let mut scores: Vec<f64> = Vec::new();
    timed_calls(tr, "linalg.score_f64", KERNEL_CALLS, budget_s, |i| {
        served.score_user(user_of(i), &mut scores);
    });
    t.p50_us(tr, "linalg.score_f64");
    let mut affinities = vec![0.0; served.n_items()];
    for (dtype, quantize, score) in [
        (QuantDtype::F32, "linalg.quantize_f32", "linalg.score_f32"),
        (QuantDtype::I8, "linalg.quantize_i8", "linalg.score_i8"),
    ] {
        let quant = tr.time(quantize, 0, None, || {
            QuantizedFactors::quantize(&served.item_factors, dtype)
        });
        t.first_ms(tr, quantize);
        timed_calls(tr, score, KERNEL_CALLS, budget_s, |i| {
            let query = quant.prepare(served.user_factors.row(user_of(i)));
            quant.score_block(&query, 0, &mut affinities);
        });
        let us = t.p50_us(tr, score);
        if dtype == QuantDtype::I8 {
            // computed from the layout, not read from a hardware counter
            let bytes = dtype.bytes_per_row(served.k_total()) * served.n_items();
            let n = tr.durations_ns(score).len();
            t.put(
                "linalg.score_i8_gb_per_s",
                bytes as f64 / (us * 1e3),
                "GB/s",
                n,
            );
        }
    }
    // what the engine does to every affinity before selecting: P = 1 − e^(−a)
    timed_calls(tr, "core.prob_transform", KERNEL_CALLS, budget_s, |_| {
        for a in std::hint::black_box(&mut affinities).iter_mut() {
            *a = prob_from_affinity(*a);
        }
    });
    t.p50_us(tr, "core.prob_transform");
    let owned = ctx.inputs.served_data();
    timed_calls(tr, "linalg.topk", KERNEL_CALLS, budget_s, |i| {
        std::hint::black_box(top_k_excluding(&scores, owned.row(user_of(i)), M));
    });
    t.p50_us(tr, "linalg.topk");

    // baskets drawn as the cold workload draws them
    let train = &ctx.inputs.split.train;
    let baskets: Vec<Vec<usize>> = crate::stream::bodies(ctx.seed, KERNEL_CALLS, M, 1.0, train)
        .iter()
        .map(|b| {
            WireRequest::decode(b)
                .expect("generated request decodes")
                .request
        })
        .filter_map(|request| match request {
            Request::Cold { basket, .. } => Some(basket),
            _ => None,
        })
        .collect();
    let item_sum = ctx.model.item_factors.column_sums();
    let mut scratch = FoldInScratch::new();
    let steps = ServeConfig::default().foldin_steps;
    let cfg = &ctx.inputs.cfg;
    timed_calls(tr, "core.foldin", baskets.len(), budget_s, |i| {
        let basket = &baskets[i];
        std::hint::black_box(fold_in_user_with(
            ctx.model,
            basket,
            cfg,
            1.0,
            steps,
            &item_sum,
            &mut scratch,
        ));
    });
    let mut ns = tr.durations_ns("core.foldin");
    let (p50, p99) = p50_p99_us(&mut ns);
    t.put("core.foldin_us_p50", p50, "us", ns.len());
    t.put("core.foldin_us_p99", p99, "us", ns.len());
}

/// Unloaded round trip and an open-loop probe: diagnostics, too noisy on
/// a shared two-core box to carry a bound.
fn network_probes(ctx: &mut Ctx, t: &mut Table) {
    let probe = Duration::from_secs_f64(0.15 * ctx.seconds);
    let unloaded = closed_loop(
        ctx.addr,
        ctx.raw,
        &ClosedLoop {
            conns: 1,
            window: 1,
            warmup: Duration::from_millis(200),
            timed: probe,
            keep_samples: 0,
            m: M,
        },
        sample_buffers(1),
    );
    let n = unloaded.served.len();
    let rtt = if n > 0 {
        p50_p99_us(&mut unloaded.latencies_ns()).0
    } else {
        0.0
    };
    t.put("net.unloaded_rtt_p50_us", rtt, "us", n);

    let rate = ctx.spec.open_rate;
    let mut open =
        open_loop(ctx.addr, ctx.raw, rate, probe.as_secs_f64(), M).expect("open-loop probe");
    let n = open.latencies_ns.len();
    ctx.checks.push((
        format!(
            "the probes lost no request ({} + {})",
            unloaded.failed, open.failed
        ),
        unloaded.failed == 0 && open.failed == 0 && n > 0,
    ));
    if n > 0 {
        let (p50, p99) = p50_p99_us(&mut open.latencies_ns);
        t.put("net.open_p50_us", p50, "us", n);
        t.put("net.open_p99_us", p99, "us", n);
        t.put(
            "loadgen.late_p99_us",
            p50_p99_us(&mut open.late_ns).1,
            "us",
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_low_bits_over_the_concatenation() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c
        assert_eq!(digest32([b"a".as_slice()].into_iter()), 0x8601_ec8c);
        assert_eq!(
            digest32([b"ab".as_slice(), b"c".as_slice()].into_iter()),
            digest32([b"abc".as_slice()].into_iter())
        );
        assert_ne!(
            digest32([b"abc".as_slice()].into_iter()),
            digest32([b"abd".as_slice()].into_iter())
        );
    }
}
