//! Criterion benches for the `ocular-serve` request path: the retired
//! full-sort selection vs the bounded-heap kernel vs co-cluster candidate
//! generation, batched throughput, and the quantized scoring kernels on a
//! 100k-item catalog (per-dtype rows: f64 vs f32 vs int8, plus the int8
//! `serve_one` at the repo benchmark's M = 10 beside the bare int8 kernel
//! it is built on).

use criterion::{criterion_group, criterion_main, Criterion};
use ocular_core::{fit, recommend_top_m, FactorModel, OcularConfig, Recommendation};
use ocular_datasets::powerlaw::{generate, PowerLawConfig};
use ocular_linalg::QuantizedFactors;
use ocular_serve::{CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The pre-heap selection path: score everything, sort everything.
fn full_sort_reference(
    model: &ocular_core::FactorModel,
    r: &ocular_sparse::CsrMatrix,
    u: usize,
    m: usize,
) -> Vec<Recommendation> {
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
            .expect("probabilities are finite")
            .then_with(|| a.item.cmp(&b.item))
    });
    candidates.truncate(m);
    candidates
}

fn bench_serve(c: &mut Criterion) {
    let data = generate(&PowerLawConfig {
        n_users: 800,
        n_items: 400,
        k: 8,
        target_nnz: 20_000,
        ..Default::default()
    });
    let r = data.matrix.clone();
    let model = fit(
        &r,
        &OcularConfig {
            k: 8,
            lambda: 0.5,
            max_iters: 20,
            seed: 0,
            ..Default::default()
        },
    )
    .model;
    let clusters = EngineBuilder::from_model(model.clone())
        .dataset(r.clone())
        .index_config(IndexConfig {
            rel: 0.3,
            floor: 100,
        })
        .config(ServeConfig {
            default_m: 50,
            candidates: CandidatePolicy::Clusters { min_candidates: 50 },
            ..Default::default()
        })
        .build()
        .unwrap();
    let full = EngineBuilder::from_model(model.clone())
        .dataset(r.clone())
        .index_config(IndexConfig {
            rel: 0.3,
            floor: 100,
        })
        .config(ServeConfig {
            default_m: 50,
            candidates: CandidatePolicy::FullCatalog,
            ..Default::default()
        })
        .build()
        .unwrap();
    let user = 17;

    let mut group = c.benchmark_group("serve_one");
    group.bench_function("full_sort_reference_top50", |b| {
        b.iter(|| black_box(full_sort_reference(&model, &r, user, 50).len()))
    });
    group.bench_function("heap_recommend_top50", |b| {
        b.iter(|| black_box(recommend_top_m(&model, &r, user, 50).len()))
    });
    group.bench_function("engine_full_catalog_top50", |b| {
        b.iter(|| {
            black_box(
                full.serve_one(&Request::Warm { user, m: 50 })
                    .unwrap()
                    .items
                    .len(),
            )
        })
    });
    group.bench_function("engine_clusters_top50", |b| {
        b.iter(|| {
            black_box(
                clusters
                    .serve_one(&Request::Warm { user, m: 50 })
                    .unwrap()
                    .items
                    .len(),
            )
        })
    });
    group.bench_function("engine_cold_start_top50", |b| {
        let basket: Vec<usize> = r.row(user).iter().map(|&i| i as usize).collect();
        b.iter(|| {
            black_box(
                clusters
                    .serve_one(&Request::Cold {
                        basket: basket.clone(),
                        m: 50,
                    })
                    .unwrap()
                    .items
                    .len(),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("serve_batch");
    group.sample_size(10);
    let requests: Vec<Request> = (0..r.n_rows())
        .map(|user| Request::Warm { user, m: 50 })
        .collect();
    group.bench_function("all_users_top50", |b| {
        b.iter(|| black_box(clusters.serve_batch(&requests).len()))
    });
    group.finish();
}

/// Sparse non-negative synthetic factors — the same shape `serve_latency`
/// uses for its kernel section (training a 100k-item model here would
/// dominate the bench with setup time without changing what is measured).
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

/// Full-catalog scoring at 100k items × k=64, one row per serving dtype.
/// At this catalog size the scoring kernel — not candidate generation —
/// dominates, which is what separates the dtypes.
fn bench_quant_catalog(c: &mut Criterion) {
    let (n_items, k, n_users) = (100_000, 64, 512);
    let mut rng = StdRng::seed_from_u64(7);
    let model = FactorModel::new(
        synth_factors(n_users, k, 4, &mut rng),
        synth_factors(n_items, k, 4, &mut rng),
        false,
    );
    let data =
        ocular_sparse::Dataset::from_matrix(ocular_sparse::CsrMatrix::empty(n_users, n_items));
    let mut group = c.benchmark_group("quant_catalog_100k");
    group.sample_size(20);
    for (name, quantize) in [
        ("f64", None),
        ("f32", Some(QuantDtype::F32)),
        ("int8", Some(QuantDtype::I8)),
    ] {
        let mut builder = EngineBuilder::from_model(model.clone())
            .dataset(data.clone())
            .config(ServeConfig {
                default_m: 50,
                candidates: CandidatePolicy::FullCatalog,
                ..Default::default()
            });
        if let Some(dtype) = quantize {
            builder = builder.quantization(dtype);
        }
        let engine = builder.build().unwrap();
        let mut user = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                user = (user + 131) % n_users;
                black_box(
                    engine
                        .serve_one(&Request::Warm { user, m: 50 })
                        .unwrap()
                        .items
                        .len(),
                )
            })
        });
        if quantize == Some(QuantDtype::I8) {
            // the repo benchmark's `http_warm_catalog` request (top-10),
            // and what it cannot go below: the scoring kernel alone,
            // every affinity into a dense vector
            group.bench_function("int8_serve_one_top10", |b| {
                b.iter(|| {
                    user = (user + 131) % n_users;
                    black_box(
                        engine
                            .serve_one(&Request::Warm { user, m: 10 })
                            .unwrap()
                            .items
                            .len(),
                    )
                })
            });
            let quant = QuantizedFactors::quantize(&model.item_factors, QuantDtype::I8);
            let mut affinities = vec![0.0f64; n_items];
            group.bench_function("int8_bare_kernel", |b| {
                b.iter(|| {
                    user = (user + 131) % n_users;
                    let query = quant.prepare(model.user_factors.row(user));
                    quant.score_block(&query, 0, &mut affinities);
                    black_box(affinities[n_items - 1])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_serve, bench_quant_catalog);
criterion_main!(benches);
