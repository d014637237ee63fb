//! Trait-conformance suite: every model kind in the workspace zoo must
//! honour the `ocular-api` hierarchy contracts identically —
//!
//! 1. the default [`Recommender::recommend`] equals brute-force
//!    sort-and-truncate under heavy ties (the shared `ocular_linalg::topk`
//!    kernel's convention: score descending, ties by ascending item);
//! 2. kind-tagged snapshots round-trip **bitwise** through
//!    [`AnySnapshot`]'s v3 container;
//! 3. the serving engine's batched output equals offline `recommend` for
//!    every kind, at 1/2/4/8 threads, and a cold basket answers what the
//!    kind's [`FoldInModel`] capability scores — or, for a kind without
//!    one, a typed `Unsupported`.

use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::prelude::*;
use ocular::serve::IndexConfig;

fn dataset() -> ocular::sparse::Dataset {
    generate(&PlantedConfig {
        n_users: 50,
        n_items: 40,
        k: 3,
        users_per_cluster: 18,
        items_per_cluster: 15,
        user_overlap: 0.3,
        item_overlap: 0.3,
        within_density: 0.6,
        noise_density: 0.01,
        seed: 21,
    })
    .matrix
}

fn ocular_model(r: &ocular::sparse::Dataset) -> FactorModel {
    fit(
        r,
        &OcularConfig {
            k: 3,
            lambda: 0.3,
            max_iters: 30,
            seed: 4,
            ..Default::default()
        },
    )
    .model
}

/// Every model kind as a kind-tagged snapshot (the serving artifact).
fn snapshot_zoo(r: &ocular::sparse::Dataset) -> Vec<AnySnapshot> {
    let cfgs = BaselineConfigs::seeded(7);
    vec![
        AnySnapshot::Ocular(ocular::serve::Snapshot::build(
            ocular_model(r),
            &IndexConfig::default(),
        )),
        AnySnapshot::Other(Box::new(Wals::fit(
            r,
            &WalsConfig {
                k: 3,
                iters: 8,
                ..cfgs.wals
            },
        ))),
        AnySnapshot::Other(Box::new(Bpr::fit(
            r,
            &BprConfig {
                k: 3,
                epochs: 10,
                ..cfgs.bpr
            },
        ))),
        AnySnapshot::Other(Box::new(UserKnn::fit(r, &cfgs.user_knn))),
        AnySnapshot::Other(Box::new(ItemKnn::fit(r, &cfgs.item_knn))),
        AnySnapshot::Other(Box::new(Popularity::fit(r))),
    ]
}

/// Scores user `u` through whichever model a snapshot carries.
fn scores_of(snap: &AnySnapshot, u: usize) -> Vec<f64> {
    let mut out = Vec::new();
    match snap {
        AnySnapshot::Ocular(s) => s.model.score_user(u, &mut out),
        AnySnapshot::Other(m) => m.score_user(u, &mut out),
    }
    out
}

/// Offline reference lists via the trait-default `recommend`.
fn recommend_of(snap: &AnySnapshot, u: usize, exclude: &[u32], m: usize) -> Vec<ScoredItem> {
    match snap {
        AnySnapshot::Ocular(s) => s.model.recommend(u, exclude, m).unwrap(),
        AnySnapshot::Other(model) => model.recommend(u, exclude, m).unwrap(),
    }
}

/// Reference implementation: full sort (score descending, ties by
/// ascending item), truncate.
fn by_sort(scores: &[f64], exclude: &[u32], m: usize) -> Vec<ScoredItem> {
    let mut all: Vec<ScoredItem> = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| exclude.binary_search(&(*i as u32)).is_err())
        .map(|(item, &score)| ScoredItem { item, score })
        .collect();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| a.item.cmp(&b.item))
    });
    all.truncate(m);
    all
}

#[test]
fn default_recommend_equals_sort_under_heavy_ties_for_every_kind() {
    let r = dataset();
    let mut tie_witnessed = false;
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        for u in 0..r.n_rows() {
            let scores = scores_of(&snap, u);
            // heavy ties actually occur (popularity/kNN score by counts)
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            tie_witnessed |= sorted.windows(2).any(|w| w[0] == w[1]);
            for m in [0usize, 1, 3, 10, r.n_cols() + 5] {
                let got = recommend_of(&snap, u, r.row(u), m);
                let want = by_sort(&scores, r.row(u), m);
                assert_eq!(got, want, "kind {kind}, user {u}, m {m}");
            }
        }
    }
    assert!(tie_witnessed, "fixture must actually produce tied scores");
}

#[test]
fn unknown_users_rejected_for_every_kind() {
    let r = dataset();
    for snap in snapshot_zoo(&r) {
        let err = match &snap {
            AnySnapshot::Ocular(s) => s.model.recommend(10_000, &[], 3).unwrap_err(),
            AnySnapshot::Other(m) => m.recommend(10_000, &[], 3).unwrap_err(),
        };
        assert!(
            matches!(err, OcularError::UnknownUser { user: 10_000, .. }),
            "kind {}: {err}",
            snap.kind()
        );
    }
}

/// A snapshot through the one writable format and back.
fn v3_cycle(snap: &AnySnapshot) -> (AnySnapshot, Vec<u8>) {
    let v3 = snap.to_v3_bytes(None, None).unwrap();
    let loaded = AnySnapshot::load_v3(ocular::bytes::ModelBytes::from_vec(v3.clone())).unwrap();
    assert_eq!(loaded.ids, None);
    (loaded.snapshot, v3)
}

#[test]
fn snapshots_roundtrip_bitwise_for_every_kind() {
    let r = dataset();
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        let (loaded, v3) = v3_cycle(&snap);
        assert_eq!(loaded.kind(), kind);
        for u in 0..r.n_rows() {
            assert_eq!(
                scores_of(&loaded, u),
                scores_of(&snap, u),
                "kind {kind}: user {u} scores must round-trip bitwise"
            );
            assert_eq!(
                recommend_of(&loaded, u, r.row(u), 10),
                recommend_of(&snap, u, r.row(u), 10),
                "kind {kind}: user {u} lists must round-trip bitwise"
            );
        }
        // and the serialised bytes are a fixed point
        assert_eq!(
            loaded.to_v3_bytes(None, None).unwrap(),
            v3,
            "kind {kind}: serialisation must be stable"
        );
    }
}

#[test]
fn quantized_v3_snapshots_roundtrip_bitwise_through_the_zoo_harness() {
    let r = dataset();
    for dtype in [QuantDtype::F32, QuantDtype::I8] {
        let snap = ocular::serve::Snapshot::build(ocular_model(&r), &IndexConfig::default())
            .with_quantization(dtype);
        let (loaded, v3) = v3_cycle(&AnySnapshot::Ocular(snap.clone()));
        let AnySnapshot::Ocular(cycled) = loaded else {
            panic!("quantized snapshot must stay the ocular kind")
        };
        assert_eq!(
            cycled, snap,
            "{dtype}: model, index and quantized sections must round-trip"
        );
        // binary serialisation is a fixed point — bit-for-bit
        assert_eq!(
            AnySnapshot::Ocular(cycled).to_v3_bytes(None, None).unwrap(),
            v3,
            "{dtype}: v3 serialisation must be stable"
        );
    }
}

#[test]
fn serve_batch_equals_offline_recommend_for_every_kind_across_threads() {
    let r = dataset();
    let m = 10;
    let basket = vec![7, 2, 30];
    let mut without_fold_in = Vec::new();
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        // offline reference before the engine consumes the snapshot
        let expected: Vec<Vec<ScoredItem>> = (0..r.n_rows())
            .map(|u| recommend_of(&snap, u, r.row(u), m))
            .collect();
        // the cold basket, scored densely through the kind's capability
        let cold_expected = snap.model().as_fold_in().map(|fold_in| {
            let mut scores = Vec::new();
            fold_in.score_basket(&basket, &mut scores).unwrap();
            let exclude = ocular::api::validate_basket(&basket, r.n_cols()).unwrap();
            ocular::linalg::topk::top_k_excluding(&scores, &exclude, m)
                .into_iter()
                .map(|(score, item)| (item, score))
                .collect::<Vec<_>>()
        });
        if cold_expected.is_none() {
            without_fold_in.push(kind);
        }
        let engine = EngineBuilder::from_snapshot(snap)
            .dataset(r.clone())
            .config(ServeConfig {
                default_m: m,
                candidates: CandidatePolicy::FullCatalog,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert_eq!(engine.kind(), kind);
        if kind != "ocular" {
            // nothing quantized to report for a kind without factors to narrow
            assert_eq!(
                (engine.dtype(), engine.kernel(), engine.sidecar_bytes()),
                (None, "baseline", 0),
                "kind {kind}"
            );
        }
        let requests: Vec<Request> = (0..r.n_rows())
            .map(|user| Request::Warm { user, m })
            .chain([Request::Cold {
                basket: basket.clone(),
                m,
            }])
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let mut served =
                ocular::parallel::with_threads(Some(threads), || engine.serve_batch(&requests));
            let cold = served.pop().unwrap();
            match &cold_expected {
                Some(want) => {
                    let got = cold.expect("a kind with fold-in serves cold baskets");
                    assert!(got.items.iter().all(|x| !basket.contains(&x.item)));
                    let got: Vec<(usize, f64)> =
                        got.items.iter().map(|x| (x.item, x.probability)).collect();
                    assert_eq!(&got, want, "kind {kind}, cold, {threads} threads: bitwise");
                }
                None => assert!(
                    matches!(cold, Err(OcularError::Unsupported { .. })),
                    "kind {kind}, cold, {threads} threads: {cold:?}"
                ),
            }
            for (u, (got, want)) in served.iter().zip(&expected).enumerate() {
                let got = got.as_ref().expect("warm users must serve");
                assert_eq!(
                    got.items.len(),
                    want.len(),
                    "kind {kind}, user {u}, {threads} threads"
                );
                for (a, b) in got.items.iter().zip(want) {
                    assert_eq!(
                        (a.item, a.probability),
                        (b.item, b.score),
                        "kind {kind}, user {u}, {threads} threads: bitwise"
                    );
                }
            }
        }
    }
    assert_eq!(without_fold_in, ["bpr", "user-knn"]);
}
