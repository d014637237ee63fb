//! Workspace-level integration tests: the full pipeline across crates,
//! asserting the paper's qualitative claims end to end.

use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::datasets::profiles::{movielens_like, Scale};
use ocular::prelude::*;

fn planted() -> ocular::datasets::PlantedDataset {
    generate(&PlantedConfig {
        n_users: 150,
        n_items: 90,
        k: 4,
        users_per_cluster: 45,
        items_per_cluster: 28,
        user_overlap: 0.5,
        item_overlap: 0.5,
        within_density: 0.55,
        noise_density: 0.004,
        seed: 5,
    })
}

#[test]
fn full_pipeline_split_train_recommend_evaluate() {
    let data = planted();
    let split = Split::new(&data.matrix, &SplitConfig::default());
    let result = fit(
        &split.train,
        &OcularConfig {
            k: 4,
            lambda: 0.3,
            max_iters: 60,
            seed: 1,
            ..Default::default()
        },
    );
    let report = evaluate(&result.model, &split.train, &split.test, 20);
    assert!(
        report.recall > 0.45,
        "planted structure should be easy to recover: {report}"
    );
    assert!(report.map > 0.1, "MAP too low: {report}");
}

#[test]
fn ocular_beats_popularity_and_neighbors_on_overlapping_structure() {
    // the Table-I shape assertion: on strongly overlapping co-cluster data,
    // OCuLaR must beat the popularity floor and the one-sided neighbour
    // methods
    let data = planted();
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed: 2,
            ..Default::default()
        },
    );
    let m = 20;

    let ocular_model = fit(
        &split.train,
        &OcularConfig {
            k: 4,
            lambda: 0.3,
            max_iters: 60,
            seed: 1,
            ..Default::default()
        },
    )
    .model;
    let ocular_recall = evaluate(&ocular_model, &split.train, &split.test, m).recall;

    let pop = Popularity::fit(&split.train);
    let pop_recall = evaluate(&pop, &split.train, &split.test, m).recall;
    let uknn = UserKnn::fit(&split.train, &KnnConfig { k: 30 });
    let uknn_recall = evaluate(&uknn, &split.train, &split.test, m).recall;

    assert!(
        ocular_recall > pop_recall + 0.05,
        "OCuLaR {ocular_recall:.3} must clearly beat popularity {pop_recall:.3}"
    );
    assert!(
        ocular_recall >= uknn_recall - 0.02,
        "OCuLaR {ocular_recall:.3} must be at least on par with user-kNN {uknn_recall:.3}"
    );
}

#[test]
fn parallel_trainer_is_a_drop_in_replacement() {
    let data = planted();
    let cfg = OcularConfig {
        k: 4,
        lambda: 0.3,
        max_iters: 20,
        seed: 9,
        ..Default::default()
    };
    let seq = fit(&data.matrix, &cfg);
    let par = fit_parallel(&data.matrix, &cfg, Some(3));
    assert_eq!(seq.model, par.model);
}

#[test]
fn explanations_reference_real_purchases() {
    // every supporting item in a rationale must be an actual purchase of
    // the target user, and every co-user must actually have bought the
    // recommended item — the property that makes the rationale *true*
    let data = planted();
    let result = fit(
        &data.matrix,
        &OcularConfig {
            k: 4,
            lambda: 0.3,
            max_iters: 60,
            seed: 1,
            ..Default::default()
        },
    );
    let clusters = extract_coclusters(&result.model, default_threshold());
    let mut checked = 0;
    for u in 0..data.matrix.n_rows() {
        for rec in recommend_top_m(&result.model, &data.matrix, u, 2) {
            let e = explain(&result.model, &data.matrix, &clusters, u, rec.item, 5);
            for c in &e.contributions {
                for &j in &c.supporting_items {
                    assert!(
                        data.matrix.contains(u, j),
                        "claimed purchase ({u},{j}) is false"
                    );
                }
                for &v in &c.co_users {
                    assert!(
                        data.matrix.contains(v, rec.item),
                        "claimed co-purchase ({v},{}) is false",
                        rec.item
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(
        checked > 100,
        "should have checked many explanations, got {checked}"
    );
}

#[test]
fn profile_dataset_trains_under_protocol() {
    // smoke the real experiment path at reduced size
    let data = movielens_like(Scale::Factor(0.5), 3);
    let split = Split::new(&data.matrix, &SplitConfig::default());
    let result = fit(
        &split.train,
        &OcularConfig {
            k: data.truth.k(),
            lambda: 0.5,
            max_iters: 40,
            seed: 0,
            ..Default::default()
        },
    );
    let report = evaluate(&result.model, &split.train, &split.test, 50);
    assert!(report.recall > 0.2, "profile recall too low: {report}");
    // objective decreased substantially
    let h = &result.history;
    assert!(h.final_objective() < 0.9 * h.objective[0]);
}

#[test]
fn model_persistence_roundtrip_through_facade() {
    let data = planted();
    let model = fit(
        &data.matrix,
        &OcularConfig {
            k: 4,
            lambda: 0.3,
            max_iters: 10,
            seed: 4,
            ..Default::default()
        },
    )
    .model;
    let path = std::env::temp_dir().join(format!("ocular-e2e-{}.snap", std::process::id()));
    let snapshot = Snapshot::build(model.clone(), &ocular::serve::IndexConfig::default());
    AnySnapshot::Ocular(snapshot)
        .save_path(&path, None, ocular::serve::SnapshotFormat::Binary)
        .unwrap();
    let loaded = match AnySnapshot::load_path_full(&path).unwrap().snapshot {
        AnySnapshot::Ocular(s) => s.model,
        AnySnapshot::Other(_) => panic!("saved as ocular"),
    };
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, model);
    // loaded model scores identically
    let mut a = Vec::new();
    let mut b = Vec::new();
    model.score_user(3, &mut a);
    loaded.score_user(3, &mut b);
    assert_eq!(a, b);
}

#[test]
fn determinism_across_full_pipeline() {
    let data = planted();
    let run = || {
        let split = Split::new(
            &data.matrix,
            &SplitConfig {
                seed: 7,
                ..Default::default()
            },
        );
        let result = fit(
            &split.train,
            &OcularConfig {
                k: 4,
                lambda: 0.3,
                max_iters: 30,
                seed: 2,
                ..Default::default()
            },
        );
        evaluate(&result.model, &split.train, &split.test, 10)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the whole pipeline must be reproducible");
}
