//! Guard for the serving engine's exactness and determinism: in
//! full-catalog mode, `serve_batch` must return **bitwise-identical**
//! top-M lists to `recommend_top_m` for every warm user, at every thread
//! count — batching and the bounded-heap kernel change wall-clock, never
//! output. Cluster candidate generation is an explicit approximation, but
//! it too must be deterministic across thread counts, and its fallback
//! path must coincide with the exact lists. Every request shape the wire
//! protocol can express — error paths included — answers the same at
//! every thread count and through `serve_one` as through `serve_batch`.

use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::linalg::par::with_threads;
use ocular::prelude::*;
use ocular::serve::engine::scan_parts;
use ocular::serve::{IndexConfig, KernelLevel};
use ocular::sparse::IdMaps;

fn trained() -> (FactorModel, ocular::sparse::Dataset, OcularConfig) {
    let data = generate(&PlantedConfig {
        n_users: 120,
        n_items: 80,
        k: 4,
        users_per_cluster: 36,
        items_per_cluster: 24,
        user_overlap: 0.4,
        item_overlap: 0.4,
        within_density: 0.5,
        noise_density: 0.005,
        seed: 11,
    });
    let cfg = OcularConfig {
        k: 4,
        lambda: 0.3,
        max_iters: 40,
        seed: 6,
        ..Default::default()
    };
    let model = fit(&data.matrix, &cfg).model;
    (model, data.matrix, cfg)
}

fn engine(policy: CandidatePolicy) -> (ServeEngine, ocular::sparse::Dataset) {
    let (model, r, train_cfg) = trained();
    let cfg = ServeConfig {
        default_m: 20,
        candidates: policy,
        foldin: train_cfg,
        ..Default::default()
    };
    let index_cfg = IndexConfig {
        rel: 0.5,
        floor: 10,
    };
    let e = EngineBuilder::from_snapshot(AnySnapshot::Ocular(Snapshot::build(model, &index_cfg)))
        .dataset(r.clone())
        .config(cfg)
        .build()
        .unwrap();
    (e, r)
}

/// The tentpole acceptance criterion: full-catalog serving is bitwise
/// `recommend_top_m` for every warm user, at 1, 2, 4 and 8 threads.
#[test]
fn serve_batch_bitwise_identical_to_recommend_top_m_across_threads() {
    let (e, r) = engine(CandidatePolicy::FullCatalog);
    let m = 20;
    let requests: Vec<Request> = (0..e.model().n_users())
        .map(|user| Request::Warm { user, m })
        .collect();
    let expected: Vec<Vec<Recommendation>> = (0..e.model().n_users())
        .map(|u| recommend_top_m(e.model(), &r, u, m))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let served = with_threads(Some(threads), || e.serve_batch(&requests));
        assert_eq!(served.len(), expected.len());
        for (u, (got, want)) in served.iter().zip(&expected).enumerate() {
            let got = got.as_ref().expect("warm users must serve");
            assert_eq!(
                got.items, *want,
                "user {u} at {threads} threads must match recommend_top_m bitwise"
            );
        }
    }
}

/// Cluster candidate generation must also be thread-count invariant, and
/// its lists must agree with single-request serving.
#[test]
fn cluster_mode_deterministic_across_threads() {
    let policy = CandidatePolicy::Clusters { min_candidates: 5 };
    let (e, r) = engine(policy);
    let requests: Vec<Request> = (0..r.n_users())
        .map(|user| Request::Warm { user, m: 10 })
        .chain([
            Request::Cold {
                basket: vec![0, 1, 2],
                m: 10,
            },
            Request::Cold {
                basket: vec![40, 41],
                m: 10,
            },
        ])
        .collect();
    let reference = with_threads(Some(1), || e.serve_batch(&requests));
    for threads in [2usize, 4, 8] {
        assert_eq!(
            with_threads(Some(threads), || e.serve_batch(&requests)),
            reference,
            "{threads}-thread batch must be identical to the 1-thread batch"
        );
    }
    // and batching is a no-op semantically
    for (req, want) in requests.iter().zip(&reference) {
        assert_eq!(&e.serve_one(req), want);
    }
}

/// When the cluster policy falls back (thin coverage), the served list is
/// exactly the full-catalog list; when it doesn't, the served items carry
/// the same probabilities the model assigns.
#[test]
fn cluster_fallback_is_exact_and_scores_are_model_probabilities() {
    let (e, r) = engine(CandidatePolicy::Clusters { min_candidates: 5 });
    for u in 0..e.model().n_users() {
        let served = e.serve_one(&Request::Warm { user: u, m: 10 }).unwrap();
        if served.fell_back {
            assert_eq!(served.items, recommend_top_m(e.model(), &r, u, 10));
        }
        for rec in &served.items {
            assert_eq!(
                rec.probability,
                e.model().prob(u, rec.item),
                "user {u} item {} must carry the model probability",
                rec.item
            );
            assert!(!r.contains(u, rec.item), "owned items must be excluded");
        }
    }
}

/// A model over a catalog whose full scans split in two at two or more
/// threads: `users` seeded sparse non-negative rows with 1–3 active
/// co-clusters of K = 4 (so both int8 arms run), 32,805 items with 2 each,
/// and no interactions.
fn catalog(users: usize) -> (FactorModel, ocular::sparse::Dataset) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let (items, k) = (32_805, 4);
    let mut rng = StdRng::seed_from_u64(27);
    let mut factors = |rows: usize, active: &mut dyn FnMut(&mut StdRng) -> usize| {
        let mut m = ocular::linalg::Matrix::zeros(rows, k);
        for r in 0..rows {
            for _ in 0..active(&mut rng) {
                m.row_mut(r)[rng.gen_range(0..k)] += rng.gen::<f64>();
            }
        }
        m
    };
    let user_factors = factors(users, &mut |rng| rng.gen_range(1..4));
    let item_factors = factors(items, &mut |_| 2);
    let empty = ocular::sparse::CsrMatrix::empty(users, items);
    (
        FactorModel::new(user_factors, item_factors, false),
        ocular::sparse::Dataset::from_matrix(empty),
    )
}

/// The quantized engines honour the same batching contract as the f64
/// path: thread count never changes output, and `serve_batch` answers
/// exactly what `serve_one` answers — for both dtypes, over warm and
/// cold requests, through both candidate paths. Each runs once per
/// kernel level this CPU has (`None` = the level it would pick itself),
/// and every level must answer what the first did: a baseline box and an
/// AVX2 box serve the same bytes. The int8 engines run under the cluster
/// policy and scanning the full catalog, where users with one co-cluster
/// take the sparse-query arm through the factor-major copy and users with
/// several take the row-major arm. On the large catalog every full scan
/// past one thread runs in parts, and must answer what the one-part scan
/// at one thread does.
#[test]
fn quantized_engines_deterministic_across_threads() {
    let (model, r, train_cfg) = trained();
    let cold = [
        Request::Cold {
            basket: vec![0, 1, 2],
            m: 10,
        },
        Request::Cold {
            basket: vec![40, 41],
            m: 10,
        },
    ];
    let warm = |users: usize| (0..users).map(|user| Request::Warm { user, m: 10 });
    let requests: Vec<Request> = warm(r.n_users()).chain(cold.clone()).collect();
    let (big_model, big_r) = catalog(8);
    let big_requests: Vec<Request> = warm(big_r.n_users()).chain(cold).collect();
    let clusters = CandidatePolicy::Clusters { min_candidates: 5 };
    let full = CandidatePolicy::FullCatalog;
    for (big, dtype, policy) in [
        (false, QuantDtype::F32, clusters),
        (false, QuantDtype::I8, clusters),
        (false, QuantDtype::I8, full),
        (true, QuantDtype::F32, full),
        (true, QuantDtype::I8, full),
    ] {
        let mut first_answer = None;
        let (model, r, requests) = match big {
            false => (&model, &r, &requests),
            true => (&big_model, &big_r, &big_requests),
        };
        for level in std::iter::once(None).chain(KernelLevel::available().map(Some)) {
            let index_cfg = IndexConfig {
                rel: 0.5,
                floor: 10,
            };
            let snapshot = Snapshot::build(model.clone(), &index_cfg);
            let mut builder = EngineBuilder::from_snapshot(AnySnapshot::Ocular(snapshot))
                .dataset(r.clone())
                .config(ServeConfig {
                    default_m: 20,
                    candidates: policy,
                    foldin: train_cfg.clone(),
                    ..Default::default()
                })
                .quantization(dtype);
            if let Some(level) = level {
                builder = builder.kernel_level(level);
            }
            let e = builder.build().unwrap();
            assert_eq!(e.dtype(), Some(dtype.name()));
            assert_eq!(e.kernel(), level.unwrap_or(KernelLevel::detect()).name());
            let reference = with_threads(Some(1), || e.serve_batch(requests));
            assert_eq!(e.scan_stats().split, 0, "one thread scans in one part");
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    with_threads(Some(threads), || e.serve_batch(requests)),
                    reference,
                    "{} engine must be identical at {threads} threads",
                    dtype.name()
                );
            }
            // batches share their threads out over the requests, and scans
            // that overlap share the cores, so not every scan past one
            // thread splits: the first one does, on a host with two cores
            let splits = big && with_threads(Some(2), || scan_parts(model.n_items(), 0)) > 1;
            assert_eq!(e.scan_stats().split > 0, splits, "{:?}", e.scan_stats());
            for (req, want) in requests.iter().zip(&reference) {
                assert_eq!(&e.serve_one(req), want);
            }
            let first = first_answer.get_or_insert_with(|| reference.clone());
            assert_eq!(
                &reference,
                first,
                "{} engine at {level:?} must answer what the engine at the detected level does",
                dtype.name()
            );
            // one factor-major copy (codes + i32 row sums)
            let int8 = dtype == QuantDtype::I8;
            let sidecar = if int8 {
                r.n_items() * (model.k_total() + 4)
            } else {
                0
            };
            assert_eq!(e.sidecar_bytes(), sidecar);
            let scans = e.scan_stats();
            if int8 && policy == CandidatePolicy::FullCatalog {
                assert!(scans.sparse > 0 && scans.dense > 0, "{scans:?}");
            }
        }
    }
}

/// Cold-start serving is a pure function of the request, the first one
/// included: the fold-in's item column sums are summed by whichever cold
/// request comes first, so on a fresh engine per thread count the first
/// fold-ins of a batch race for them, and must still answer bit for bit.
#[test]
fn cold_start_deterministic() {
    let policy = CandidatePolicy::Clusters { min_candidates: 5 };
    let (e, _) = engine(policy);
    let req = Request::Cold {
        basket: vec![3, 7, 11],
        m: 15,
    };
    let a = e.serve_one(&req).unwrap();
    let b = e.serve_one(&req).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.items.len(), 15);
    let baskets: Vec<Request> = (0..16)
        .map(|i| Request::Cold {
            basket: vec![i, i + 20, i + 41],
            m: 15,
        })
        .collect();
    let want: Vec<_> = baskets.iter().map(|req| e.serve_one(req)).collect();
    for threads in [1usize, 2, 4, 8] {
        let (fresh, _) = engine(policy);
        assert_eq!(
            with_threads(Some(threads), || fresh.serve_batch(&baskets)),
            want,
            "first fold-ins at {threads} threads"
        );
    }
}

/// The planted interactions, with or without non-trivial external ids
/// (user `u` ↔ `1000 + 7u`, item `i` ↔ `500 + 3i`).
fn with_id_maps(r: &ocular::sparse::Dataset, with_ids: bool) -> ocular::sparse::Dataset {
    if !with_ids {
        return r.clone();
    }
    let users = (0..r.n_users() as u64).map(|u| 1_000 + 7 * u).collect();
    let items = (0..r.n_items() as u64).map(|i| 500 + 3 * i).collect();
    let ids = IdMaps::new(users, items).unwrap();
    ocular::sparse::Dataset::new(r.matrix().clone(), ids).unwrap()
}

/// `d` grown by three users who arrived after the snapshot was trained —
/// each with two items the model knows, so their warm requests fold in.
fn grown_dataset(d: &ocular::sparse::Dataset, with_ids: bool) -> ocular::sparse::Dataset {
    let mut staged = d.delta_builder();
    for j in 0..3 {
        // an identity-mapped dataset extends by its next row indices
        let user = match with_ids {
            true => 770_001 + j as u64,
            false => (d.n_users() + j) as u64,
        };
        staged.push(user, d.external_item(j)).unwrap();
        staged.push(user, d.external_item(j + 4)).unwrap();
    }
    staged.finish().unwrap()
}

/// Every request shape the wire protocol can express, over the whole user
/// population and every error path: an unknown row and external user, an
/// empty and an out-of-range basket, and an unknown external item.
fn request_zoo(d: &ocular::sparse::Dataset) -> Vec<Request> {
    let n_items = d.n_items();
    let mut reqs = Vec::new();
    for u in 0..d.n_users() {
        reqs.push(Request::Warm { user: u, m: 5 });
        reqs.push(Request::WarmExternal {
            user: d.external_user(u),
            m: 0,
        });
    }
    reqs.extend([
        Request::Warm {
            user: d.n_users() + 3,
            m: 5,
        },
        Request::WarmExternal {
            user: 999_999_999,
            m: 5,
        },
        Request::Cold {
            basket: vec![0, 1, 2],
            m: 7,
        },
        Request::Cold {
            basket: vec![n_items - 1],
            m: 0,
        },
        Request::Cold {
            basket: vec![],
            m: 4,
        },
        Request::Cold {
            basket: vec![n_items + 5],
            m: 4,
        },
        Request::ColdExternal {
            basket: vec![d.external_item(0), d.external_item(2)],
            m: 6,
        },
        Request::ColdExternal {
            basket: vec![123_456_789],
            m: 6,
        },
    ]);
    reqs
}

/// One engine per dtype (f64, f32, int8) over `d`, each labelled.
fn zoo_engines(
    model: &FactorModel,
    d: &ocular::sparse::Dataset,
    foldin: &OcularConfig,
) -> Vec<(ServeEngine, String)> {
    [None, Some(QuantDtype::F32), Some(QuantDtype::I8)]
        .into_iter()
        .map(|quant| {
            let snapshot = Snapshot::build(model.clone(), &IndexConfig { rel: 0.5, floor: 5 });
            let mut builder = EngineBuilder::from_snapshot(AnySnapshot::Ocular(snapshot))
                .dataset(d.clone())
                .config(ServeConfig {
                    default_m: 6,
                    // a small floor, so some requests take the candidate
                    // path and others fall back
                    candidates: CandidatePolicy::Clusters { min_candidates: 8 },
                    foldin: foldin.clone(),
                    ..Default::default()
                })
                .generation(7);
            if let Some(dtype) = quant {
                builder = builder.quantization(dtype);
            }
            (builder.build().unwrap(), format!("quant={quant:?}"))
        })
        .collect()
}

/// `serve_batch` at every thread count answers what `serve_one` does,
/// telemetry and typed errors included.
fn assert_batches_like_serve_one(e: &ServeEngine, reqs: &[Request], label: &str) {
    let one: Vec<_> = reqs.iter().map(|req| e.serve_one(req)).collect();
    for threads in [1usize, 2, 4, 8] {
        let batch = with_threads(Some(threads), || e.serve_batch(reqs));
        for ((req, a), b) in reqs.iter().zip(&one).zip(&batch) {
            assert_eq!(a, b, "{label}: {threads}-thread batch diverged on {req:?}");
        }
    }
}

/// The whole request zoo, at f64, f32 and int8, with and without id maps:
/// exactly the four error paths fail, and every reply batches like
/// `serve_one` at every thread count.
#[test]
fn every_request_shape_batches_like_serve_one_at_every_thread_count() {
    let (model, r, train_cfg) = trained();
    for with_ids in [false, true] {
        let d = with_id_maps(&r, with_ids);
        let reqs = request_zoo(&d);
        for (e, quant) in zoo_engines(&model, &d, &train_cfg) {
            let label = format!("ids={with_ids} {quant}");
            assert_eq!(e.generation(), 7, "{label}");
            let errors = reqs.iter().filter(|req| e.serve_one(req).is_err());
            assert_eq!(
                errors.count(),
                4,
                "{label}: the four error paths, and only those"
            );
            assert_batches_like_serve_one(&e, &reqs, &label);
        }
    }
}

/// Users appended after the snapshot are served by request-time fold-in
/// (`folded_in: true`), by row and by external id, and batch like
/// `serve_one` at every thread count, at f64, f32 and int8.
#[test]
fn post_snapshot_users_fold_in_like_serve_one_at_every_thread_count() {
    let (model, r, train_cfg) = trained();
    for with_ids in [false, true] {
        let d = with_id_maps(&r, with_ids);
        let grown = grown_dataset(&d, with_ids);
        assert_eq!(grown.n_users(), d.n_users() + 3);
        let mut reqs = Vec::new();
        for u in d.n_users()..grown.n_users() {
            reqs.push(Request::Warm { user: u, m: 5 });
            reqs.push(Request::WarmExternal {
                user: grown.external_user(u),
                m: 5,
            });
        }
        for (e, quant) in zoo_engines(&model, &grown, &train_cfg) {
            let label = format!("ids={with_ids} {quant}");
            for req in &reqs {
                let got = e.serve_one(req).unwrap();
                assert!(
                    got.folded_in,
                    "{label}: overhang user must fold in: {req:?}"
                );
            }
            assert_batches_like_serve_one(&e, &reqs, &label);
        }
    }
}
