//! Request-path latency/throughput probe for `ocular-serve`, emitting the
//! `BENCH_serve.json` artifact the CI bench-regression gate consumes.
//!
//! Trains OCuLaR on the powerlaw profile, builds a serving engine, then
//! measures per-request latency percentiles for (a) the retired
//! score-all + full-sort path, (b) the engine in full-catalog (heap) mode
//! and (c) the engine in cluster candidate-generation mode, plus batched
//! throughput and a per-model-kind warm-request row for every baseline
//! the polymorphic engine can serve (wals, bpr, item-knn, popularity).
//! A second section measures the quantized scoring kernels (f64 vs f32 vs
//! int8) on a large synthetic catalog — 100k items by default — where the
//! memory-bandwidth difference between the dtypes is actually visible:
//! per dtype, a full-catalog engine request and, in the same run, the bare
//! scoring kernel over the same catalog (what the request cannot go
//! below), and each int8 arm's bare kernel pinned to each ISA level the
//! CPU has (bench_gate holds the row-major AVX2 stamp at least 1.4× ahead
//! of its baseline stamp).
//! int8 has two scan arms, so it gets two pairs of rows, each naming the
//! path it times: users with 4 active factors (request and bare kernel
//! through the factor-major sidecar) and users with all K active (request
//! and bare kernel row-major); bench_gate holds each request within a
//! bound of its own kernel. A catalog this large scans in parts, one per
//! idle core; both requests run again on one thread, in one part
//! (`int8_single`, `int8_dense_single`), so bench_gate can hold the split
//! against the one-part scan (`int8_parts` parts) and the sparse request at
//! least 2× under the dense one with no split in either; and a requester
//! per core times requests per second with the parts left to the engine
//! and with each requester on one thread (`int8_busy_rps`,
//! `int8_busy_single_rps`), where no core is idle to split onto. The catalog
//! is saved, mmap-loaded, checksummed and served (`catalog_resident_bytes`).
//! Flags: `--scale`, `--seed`, `--requests N`, `--m N`,
//! `--rel R` / `--floor N` (index build knobs),
//! `--quant-items N` / `--quant-k N` / `--quant-requests N` (quantized
//! catalog section), `--out PATH` (default `BENCH_serve.json`).

use ocular_api::Model;
use ocular_baselines::{BaselineConfigs, Bpr, ItemKnn, Popularity, Wals};
use ocular_bench::Args;
use ocular_bytes::fnv1a64;
use ocular_core::{fit, FactorModel, OcularConfig, Recommendation};
use ocular_datasets::profiles;
use ocular_linalg::par::{host_cores, with_threads};
use ocular_linalg::{ops, KernelLevel, QuantizedFactors};
use ocular_serve::engine::scan_parts;
use ocular_serve::json::{obj, Json};
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request, ServeConfig,
    Snapshot, SnapshotFormat,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Per-request wall-clock percentiles, in microseconds.
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
}

fn percentiles(mut micros: Vec<f64>) -> Latency {
    micros.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let at = |q: f64| micros[((micros.len() - 1) as f64 * q).round() as usize];
    Latency {
        p50: at(0.50),
        p90: at(0.90),
        p99: at(0.99),
    }
}

fn measure<F: FnMut(usize)>(requests: usize, mut f: F) -> Latency {
    let mut micros = Vec::with_capacity(requests);
    for i in 0..requests {
        let t0 = Instant::now();
        f(i);
        micros.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    percentiles(micros)
}

/// The pre-heap selection path the engine replaces: score every item, sort
/// the whole candidate vector.
fn full_sort(model: &ocular_core::FactorModel, r: &ocular_sparse::CsrMatrix, u: usize, m: usize) {
    let mut scores = Vec::new();
    model.score_user(u, &mut scores);
    let owned = r.row(u);
    let mut candidates: Vec<Recommendation> = scores
        .into_iter()
        .enumerate()
        .filter(|(i, _)| owned.binary_search_by(|&e| (e as usize).cmp(i)).is_err())
        .map(|(item, probability)| Recommendation { item, probability })
        .collect();
    candidates.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("finite")
            .then_with(|| a.item.cmp(&b.item))
    });
    candidates.truncate(m);
    std::hint::black_box(candidates.len());
}

/// Seeded sparse non-negative affiliation factors, shaped like trained
/// OCuLaR rows (a handful of active clusters each). The scoring kernels
/// only ever see the factor matrices, so the 100k-catalog dtype
/// comparison synthesises them instead of paying a full training run.
fn synth_factors(rows: usize, k: usize, active: usize, rng: &mut StdRng) -> ocular_linalg::Matrix {
    let mut m = ocular_linalg::Matrix::zeros(rows, k);
    for r in 0..rows {
        let row = m.row_mut(r);
        for _ in 0..active {
            row[rng.gen_range(0..k)] += rng.gen::<f64>();
        }
    }
    m
}

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let m = args.get("m", 50usize);
    let n_requests = args.get("requests", 2000usize).max(1);
    let index_cfg = IndexConfig {
        rel: args.get("rel", 0.5f64),
        floor: args.get("floor", 100usize),
    };
    let out_path = args.get("out", "BENCH_serve.json".to_string());

    let data = profiles::b2b_like(args.scale(), seed);
    let r = data.matrix;
    let k = data.truth.k();
    let cfg = OcularConfig {
        k,
        lambda: 1.0,
        max_iters: 15,
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let model = fit(&r, &cfg).model;
    let train_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "powerlaw(b2b) {}×{} nnz={} k={k}: trained in {train_seconds:.2}s",
        r.n_rows(),
        r.n_cols(),
        r.nnz()
    );

    let mk_engine = |candidates| {
        let snapshot = Snapshot::build(model.clone(), &index_cfg);
        EngineBuilder::from_snapshot(AnySnapshot::Ocular(snapshot))
            .dataset(r.clone())
            .config(ServeConfig {
                default_m: m,
                candidates,
                foldin: cfg.clone(),
                ..Default::default()
            })
            .build()
            .expect("engine")
    };
    let engine_full = mk_engine(CandidatePolicy::FullCatalog);
    let engine_clusters = mk_engine(CandidatePolicy::Clusters { min_candidates: m });

    let user_at = |i: usize| (i * 31) % r.n_rows();
    let lat_sort = measure(n_requests, |i| full_sort(&model, &r, user_at(i), m));
    let lat_full = measure(n_requests, |i| {
        std::hint::black_box(
            engine_full
                .serve_one(&Request::Warm {
                    user: user_at(i),
                    m,
                })
                .unwrap()
                .items
                .len(),
        );
    });
    let mut fallbacks = 0usize;
    let mut scored_total = 0usize;
    let lat_clusters = measure(n_requests, |i| {
        let served = engine_clusters
            .serve_one(&Request::Warm {
                user: user_at(i),
                m,
            })
            .unwrap();
        fallbacks += usize::from(served.fell_back);
        scored_total += served.scored;
        std::hint::black_box(served.items.len());
    });
    // cold baskets as the repo benchmark's `http_mixed_cold` draws them:
    // the first 1..=16 items of a user's row
    let cold: Vec<Request> = (0..n_requests)
        .map(|i| {
            let row = r.row(user_at(i));
            let basket = row.iter().take(1 + i % 16).map(|&x| x as usize).collect();
            Request::Cold { basket, m }
        })
        .collect();
    let folds_before = engine_clusters.fold_in_stats();
    let lat_cold = measure(n_requests, |i| {
        std::hint::black_box(
            engine_clusters
                .serve_one(&cold[i])
                .map(|s| s.items.len())
                .unwrap_or(0),
        );
    });
    let folds = engine_clusters.fold_in_stats();
    let cold_solves = (folds.fold_ins - folds_before.fold_ins) as f64;
    let cold_iterations = (folds.iterations - folds_before.iterations) as f64 / cold_solves;
    let cold_unconverged = folds.unconverged - folds_before.unconverged;

    // snapshot cold-start cost on the same model: save once, then the
    // median of seven loads through the production (mmap) loader —
    // bench_gate holds it against the committed baseline
    let snap =
        ocular_serve::AnySnapshot::Ocular(ocular_serve::Snapshot::build(model.clone(), &index_cfg));
    let snap_path = std::env::temp_dir().join(format!("ocular-bench-{}.snap", std::process::id()));
    snap.save_path(&snap_path, r.ids(), ocular_serve::SnapshotFormat::Binary)
        .expect("write snapshot");
    // the loaded snapshots outlive the timing, so unmapping is not in it
    let mut loaded = Vec::new();
    let load_binary_s = measure(7, |_| {
        loaded.push(ocular_serve::AnySnapshot::load_path_full(&snap_path).expect("load snapshot"))
    })
    .p50 / 1e6;
    drop(loaded);
    let _ = std::fs::remove_file(&snap_path);
    eprintln!("snapshot load (mmap): {:.3}ms", load_binary_s * 1e3);

    let batch: Vec<Request> = (0..n_requests)
        .map(|i| Request::Warm {
            user: user_at(i),
            m,
        })
        .collect();
    let t0 = Instant::now();
    let served = engine_clusters.serve_batch(&batch);
    let batch_seconds = t0.elapsed().as_secs_f64();
    assert!(served.iter().all(|s| s.is_ok()));
    let throughput = n_requests as f64 / batch_seconds;

    let report = |name: &str, l: &Latency| {
        eprintln!(
            "{name:<28} p50={:8.1}µs  p90={:8.1}µs  p99={:8.1}µs",
            l.p50, l.p90, l.p99
        );
    };
    report("full-sort (old path)", &lat_sort);
    report("engine full-catalog (heap)", &lat_full);
    report("engine clusters (cand+heap)", &lat_clusters);
    report("engine cold-start (fold-in)", &lat_cold);
    println!(
        "fold-in: {cold_iterations:.2} iterations per solve, {cold_unconverged} of {cold_solves} unconverged, p99/p50 = {:.1}",
        lat_cold.p99 / lat_cold.p50
    );
    eprintln!(
        "cluster mode: mean scored {:.0}/{} items, {fallbacks}/{n_requests} fallbacks; batch throughput {throughput:.0} req/s",
        scored_total as f64 / n_requests as f64,
        r.n_cols()
    );

    // per-model-kind rows: every baseline kind the polymorphic engine can
    // serve, measured on the same warm-request mix (full-catalog — the
    // cluster policy degrades to exactly this path for these kinds)
    let bl = BaselineConfigs::seeded(seed);
    let kind_models: Vec<Box<dyn Model>> = vec![
        Box::new(Wals::fit(
            &r,
            &ocular_baselines::WalsConfig { k, ..bl.wals },
        )),
        Box::new(Bpr::fit(&r, &ocular_baselines::BprConfig { k, ..bl.bpr })),
        Box::new(ItemKnn::fit(&r, &bl.item_knn)),
        Box::new(Popularity::fit(&r)),
    ];
    let mut kind_rows: Vec<(&'static str, Latency)> = Vec::new();
    for model in kind_models {
        let kind = model.kind();
        let engine = EngineBuilder::from_snapshot(AnySnapshot::Other(model))
            .dataset(r.clone())
            .config(ServeConfig {
                default_m: m,
                candidates: CandidatePolicy::FullCatalog,
                ..Default::default()
            })
            .build()
            .expect("baseline engine");
        let lat = measure(n_requests, |i| {
            std::hint::black_box(
                engine
                    .serve_one(&Request::Warm {
                        user: user_at(i),
                        m,
                    })
                    .unwrap()
                    .items
                    .len(),
            );
        });
        report(&format!("engine {kind}"), &lat);
        kind_rows.push((kind, lat));
    }

    // quantized scoring kernels on a large catalog. At the profile sizes
    // above the whole factor matrix sits in cache and every dtype looks
    // alike; at 100k items × k=64 the f64 path streams ~50 MB per request
    // and the narrower dtypes win on memory bandwidth — which is exactly
    // the claim the bench gate pins (f32 p50 < f64 p50, int8 < f32).
    let quant_items = args.get("quant-items", 100_000usize).max(1);
    let quant_k = args.get("quant-k", 64usize).max(1);
    let quant_users = 2048usize;
    let quant_requests = args.get("quant-requests", n_requests.min(300)).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    // users 0..quant_users keep 4 active factors, like trained OCuLaR rows;
    // the next quant_users have all K active — the int8 scan's other arm
    let mut quser_factors = synth_factors(2 * quant_users, quant_k, 4, &mut rng);
    let item_factors = synth_factors(quant_items, quant_k, 4, &mut rng);
    for u in quant_users..2 * quant_users {
        for f in quser_factors.row_mut(u) {
            *f = 0.05 + rng.gen::<f64>();
        }
    }
    let qmodel = FactorModel::new(quser_factors, item_factors, false);
    let qdata = ocular_sparse::Dataset::from_matrix(ocular_sparse::CsrMatrix::empty(
        2 * quant_users,
        quant_items,
    ));
    // (dtype, full-catalog engine request, bare scoring kernel)
    let mut quant_rows: Vec<(&'static str, Latency, Latency)> = Vec::new();
    // int8 again with the all-K users: (request, the same on one thread,
    // bare row-major kernel)
    let mut dense_rows: Option<(Latency, Latency, Latency)> = None;
    // (kernel level, bare int8 kernel pinned to it): row-major, all-K
    // users; factor-major, 4-active users
    let mut level_rows: Vec<(&'static str, Latency)> = Vec::new();
    let mut sparse_level_rows: Vec<(&'static str, Latency)> = Vec::new();
    // (parts per int8 scan here, the 4-active request on one thread, req/s
    // with a requester per core: parts left to the engine, one part each)
    let mut quant_single: Option<(usize, Latency, [f64; 2])> = None;
    let mut affinities = vec![0.0f64; quant_items];
    for (name, quantize) in [
        ("f64", None),
        ("f32", Some(QuantDtype::F32)),
        ("int8", Some(QuantDtype::I8)),
    ] {
        let mut builder = EngineBuilder::from_model(qmodel.clone())
            .dataset(qdata.clone())
            .config(ServeConfig {
                default_m: m,
                candidates: CandidatePolicy::FullCatalog,
                ..Default::default()
            });
        if let Some(dtype) = quantize {
            builder = builder.quantization(dtype);
        }
        let engine = builder.build().expect("quantized engine");
        let sparse_user = |i: usize| (i * 131) % quant_users;
        let dense_user = |i: usize| quant_users + (i * 131) % quant_users;
        let request = |user_of: &dyn Fn(usize) -> usize| {
            measure(quant_requests, |i| {
                let user = user_of(i);
                let served = engine.serve_one(&Request::Warm { user, m }).unwrap();
                std::hint::black_box(served.items.len());
            })
        };
        let lat = request(&sparse_user);
        report(&format!("quant {quant_items}×{quant_k} {name}"), &lat);
        // the same catalog through the scoring kernel alone: every item's
        // raw affinity into a dense vector, no transform, no selection
        let narrowed =
            quantize.map(|dtype| QuantizedFactors::quantize(&qmodel.item_factors, dtype));
        let mut bare_kernel = |narrowed: Option<&QuantizedFactors>,
                               user_of: &dyn Fn(usize) -> usize| {
            measure(quant_requests, |i| {
                let row = qmodel.user_factors.row(user_of(i));
                match narrowed {
                    Some(quant) => quant.score_block(&quant.prepare(row), 0, &mut affinities),
                    None => {
                        for (item, a) in affinities.iter_mut().enumerate() {
                            *a = ops::dot(row, qmodel.item_factors.row(item));
                        }
                    }
                }
                std::hint::black_box(&affinities);
            })
        };
        if quantize != Some(QuantDtype::I8) {
            let kernel = bare_kernel(narrowed.as_ref(), &sparse_user);
            report(&format!("  bare {name} kernel"), &kernel);
            quant_rows.push((name, lat, kernel));
            continue;
        }
        // int8, sparse arm: the 4-active users above went through the
        // factor-major sidecar, and so does their bare kernel; each scan
        // ran in `parts` parts, and a split one still counts once per arm
        let scans = engine.scan_stats();
        assert_eq!((scans.sparse, scans.dense), (quant_requests as u64, 0));
        let parts = scan_parts(quant_items, 0);
        let split = if parts > 1 { quant_requests as u64 } else { 0 };
        assert_eq!(scans.split, split, "{parts} parts per scan");
        // the same request again on one thread, where it is one part: the
        // same-run base bench_gate holds the split scan against
        let single = with_threads(Some(1), || request(&sparse_user));
        assert_eq!(engine.scan_stats().split, split);
        report("quant int8 request, one thread (one part)", &single);
        // a requester per core, as a loaded server's workers are: requests
        // per second with the parts left to the engine, and with every
        // requester on one thread — where no core is idle, the engine must
        // not split; best of two each, interleaved
        let cores = host_cores();
        let busy_rps = |threads: Option<usize>| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for c in 0..cores {
                    let engine = &engine;
                    s.spawn(move || {
                        with_threads(threads, || {
                            for i in 0..4 * quant_requests {
                                let user = sparse_user(i + c * 7);
                                let served = engine.serve_one(&Request::Warm { user, m }).unwrap();
                                std::hint::black_box(served.items.len());
                            }
                        })
                    });
                }
            });
            (cores * 4 * quant_requests) as f64 / t0.elapsed().as_secs_f64()
        };
        let mut busy = [0.0f64; 2];
        for _ in 0..2 {
            for (best, threads) in busy.iter_mut().zip([None, Some(1)]) {
                *best = best.max(busy_rps(threads));
            }
        }
        println!(
            "quant int8 requests, a requester per core ({cores}): {:.0} req/s; one part each {:.0} req/s",
            busy[0], busy[1]
        );
        quant_single = Some((parts, single, busy));
        let sidecar = narrowed
            .clone()
            .map(|q| q.with_factor_major().expect("sidecar"));
        let kernel = bare_kernel(sidecar.as_ref(), &sparse_user);
        report("  bare int8 kernel, factor-major (4-active users)", &kernel);
        quant_rows.push((name, lat, kernel));
        // and that arm's kernel once per ISA level, as the row-major one below
        for level in KernelLevel::available() {
            let pinned = sidecar.clone().map(|q| q.with_kernel_level(level));
            let lat = bare_kernel(pinned.as_ref(), &sparse_user);
            report(&format!("  bare int8 kernel, factor-major @ {level}"), &lat);
            sparse_level_rows.push((level.name(), lat));
        }
        // int8, row-major arm: all-K users, request and bare kernel
        let lat = request(&dense_user);
        assert_eq!(engine.scan_stats().dense, quant_requests as u64);
        report("quant int8 request, all-K users (row-major arm)", &lat);
        let single = with_threads(Some(1), || request(&dense_user));
        report(
            "quant int8 request, all-K users, one thread (one part)",
            &single,
        );
        let kernel = bare_kernel(narrowed.as_ref(), &dense_user);
        report("  bare int8 kernel, row-major (all-K users)", &kernel);
        dense_rows = Some((lat, single, kernel));
        // and the row-major kernel once per ISA level this CPU has, back
        // to back, so the gate can hold the wide stamp to a same-run ratio
        for level in KernelLevel::available() {
            let pinned = narrowed.clone().map(|q| q.with_kernel_level(level));
            let lat = bare_kernel(pinned.as_ref(), &dense_user);
            report(&format!("  bare int8 kernel, row-major @ {level}"), &lat);
            level_rows.push((level.name(), lat));
        }
    }

    // the catalog as a served int8 snapshot: save, mmap load and a bare
    // checksum of its bytes, which bench_gate holds the first two to
    let catalog = AnySnapshot::Ocular(
        Snapshot::build(qmodel, &IndexConfig::default()).with_quantization(QuantDtype::I8),
    );
    let path = std::env::temp_dir().join(format!("ocular-catalog-{}.snap", std::process::id()));
    let save = measure(5, |_| {
        (catalog.save_path(&path, None, SnapshotFormat::Binary)).expect("save catalog")
    });
    let bytes = std::fs::read(&path).expect("read catalog snapshot");
    let checksum = measure(5, |_| {
        std::hint::black_box(fnv1a64(&bytes));
    });
    let mut loaded = Vec::new();
    let load = measure(5, |_| {
        loaded.push(AnySnapshot::load_path_full(&path).expect("load catalog"))
    });
    drop(loaded);
    // and served from its mapping: the file bytes its requests made resident
    let rss_file = || {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let line = status.lines().find(|l| l.starts_with("RssFile:"));
        let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
        kb.unwrap_or(0.0) * 1024.0
    };
    let before = rss_file();
    let loaded = AnySnapshot::load_path_full(&path).expect("load catalog");
    let mapped = EngineBuilder::from_loaded(loaded)
        .dataset(qdata)
        .candidates(CandidatePolicy::FullCatalog);
    let mapped = mapped.build().expect("int8 engine over the mapped catalog");
    for user in (0..quant_requests).map(|i| (i * 131) % quant_users) {
        assert!(mapped.serve_one(&Request::Warm { user, m }).is_ok());
    }
    let resident = rss_file() - before;
    let _ = std::fs::remove_file(&path);
    report(&format!("catalog snapshot save ({} B)", bytes.len()), &save);
    report("  mmap load", &load);
    report("  bare fnv1a64", &checksum);
    eprintln!("  served from the mapping: {resident:.0} B of the file resident");

    let (dense_request, dense_single, dense_kernel) = dense_rows.expect("the int8 row ran");
    let (int8_parts, int8_single, int8_busy) = quant_single.expect("the int8 row ran");
    let lat_json = |l: &Latency| {
        obj(vec![
            ("p50_us", Json::Num(l.p50)),
            ("p90_us", Json::Num(l.p90)),
            ("p99_us", Json::Num(l.p99)),
        ])
    };
    let doc = obj(vec![
        ("bench", Json::Str("serve".into())),
        ("profile", Json::Str("powerlaw-b2b".into())),
        ("n_users", Json::Num(r.n_rows() as f64)),
        ("n_items", Json::Num(r.n_cols() as f64)),
        ("nnz", Json::Num(r.nnz() as f64)),
        ("m", Json::Num(m as f64)),
        ("requests", Json::Num(n_requests as f64)),
        ("train_seconds", Json::Num(train_seconds)),
        ("full_sort", lat_json(&lat_sort)),
        ("engine_full", lat_json(&lat_full)),
        ("engine_clusters", lat_json(&lat_clusters)),
        ("engine_cold", lat_json(&lat_cold)),
        ("engine_cold_iterations", Json::Num(cold_iterations)),
        (
            "engine_cold_unconverged",
            Json::Num(cold_unconverged as f64),
        ),
        (
            "mean_scored_items",
            Json::Num(scored_total as f64 / n_requests as f64),
        ),
        (
            "fallback_rate",
            Json::Num(fallbacks as f64 / n_requests as f64),
        ),
        ("batch_throughput_rps", Json::Num(throughput)),
        (
            "snapshot_load",
            obj(vec![("binary_seconds", Json::Num(load_binary_s))]),
        ),
        ("catalog_save", lat_json(&save)),
        ("catalog_load", lat_json(&load)),
        ("catalog_checksum", lat_json(&checksum)),
        ("catalog_bytes", Json::Num(bytes.len() as f64)),
        ("catalog_resident_bytes", Json::Num(resident)),
        (
            "kinds",
            obj(kind_rows
                .iter()
                .map(|(kind, lat)| (*kind, lat_json(lat)))
                .collect()),
        ),
        (
            "quant",
            obj(vec![
                ("n_items", Json::Num(quant_items as f64)),
                ("k", Json::Num(quant_k as f64)),
                ("f64", lat_json(&quant_rows[0].1)),
                ("f32", lat_json(&quant_rows[1].1)),
                ("int8", lat_json(&quant_rows[2].1)),
                ("f64_kernel", lat_json(&quant_rows[0].2)),
                ("f32_kernel", lat_json(&quant_rows[1].2)),
                ("int8_kernel", lat_json(&quant_rows[2].2)),
                ("int8_parts", Json::Num(int8_parts as f64)),
                ("int8_single", lat_json(&int8_single)),
                ("int8_busy_rps", Json::Num(int8_busy[0])),
                ("int8_busy_single_rps", Json::Num(int8_busy[1])),
                ("int8_dense", lat_json(&dense_request)),
                ("int8_dense_single", lat_json(&dense_single)),
                ("int8_dense_kernel", lat_json(&dense_kernel)),
                (
                    "int8_kernel_levels",
                    obj(level_rows
                        .iter()
                        .map(|(level, lat)| (*level, lat_json(lat)))
                        .collect()),
                ),
                (
                    "int8_sparse_kernel_levels",
                    obj(sparse_level_rows
                        .iter()
                        .map(|(level, lat)| (*level, lat_json(lat)))
                        .collect()),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write bench artifact");
    eprintln!("artifact → {out_path}");
}
