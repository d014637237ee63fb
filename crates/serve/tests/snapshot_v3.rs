//! v3 binary snapshot suite: bit-exact round trips for every model
//! kind, a saved file byte-equal to the in-memory container, zero-copy
//! serving from a read-only memory-mapped file, and rejection (typed
//! `OcularError`, never a panic or silent garbage) of truncated and
//! bit-flipped containers.

use ocular_api::{OcularError, SnapshotMeta};
use ocular_baselines::{
    BaselineConfigs, Bpr, BprConfig, ItemKnn, Popularity, UserKnn, Wals, WalsConfig,
};
use ocular_bytes::ModelBytes;
use ocular_core::{fit, OcularConfig};
use ocular_datasets::planted::{generate, PlantedConfig};
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request, ServeConfig,
    Snapshot, SnapshotFormat,
};
use ocular_sparse::{Dataset, IdMaps};
use proptest::prelude::*;

fn dataset() -> Dataset {
    generate(&PlantedConfig {
        n_users: 40,
        n_items: 30,
        k: 3,
        users_per_cluster: 14,
        items_per_cluster: 11,
        user_overlap: 0.25,
        item_overlap: 0.25,
        within_density: 0.6,
        noise_density: 0.02,
        seed: 11,
    })
    .matrix
}

/// The trained dataset with non-trivial external ids attached.
fn dataset_with_ids() -> Dataset {
    let r = dataset();
    let users: Vec<u64> = (0..r.n_users() as u64).map(|u| 1_000 + 7 * u).collect();
    let items: Vec<u64> = (0..r.n_items() as u64).map(|i| 500 + 3 * i).collect();
    let ids = IdMaps::new(users, items).unwrap();
    Dataset::new(r.matrix().clone(), ids).unwrap()
}

fn snapshot_zoo(r: &Dataset) -> Vec<AnySnapshot> {
    let cfgs = BaselineConfigs::seeded(3);
    let model = fit(
        r,
        &OcularConfig {
            k: 3,
            lambda: 0.3,
            max_iters: 25,
            seed: 9,
            ..Default::default()
        },
    )
    .model;
    vec![
        AnySnapshot::Ocular(Snapshot::build(model, &IndexConfig { rel: 0.5, floor: 5 })),
        AnySnapshot::Other(Box::new(Wals::fit(
            r,
            &WalsConfig {
                k: 3,
                iters: 6,
                ..cfgs.wals
            },
        ))),
        AnySnapshot::Other(Box::new(Bpr::fit(
            r,
            &BprConfig {
                k: 3,
                epochs: 8,
                ..cfgs.bpr
            },
        ))),
        AnySnapshot::Other(Box::new(UserKnn::fit(r, &cfgs.user_knn))),
        AnySnapshot::Other(Box::new(ItemKnn::fit(r, &cfgs.item_knn))),
        AnySnapshot::Other(Box::new(Popularity::fit(r))),
    ]
}

fn scores_of(snap: &AnySnapshot, u: usize) -> Vec<f64> {
    let mut out = Vec::new();
    match snap {
        AnySnapshot::Ocular(s) => s.model.score_user(u, &mut out),
        AnySnapshot::Other(m) => m.score_user(u, &mut out),
    }
    out
}

/// Every `f64` the snapshot's model holds, as raw bits — `PartialEq` on
/// floats would let `0.0 == -0.0` through.
fn score_bits(snap: &AnySnapshot, n_users: usize) -> Vec<u64> {
    (0..n_users)
        .flat_map(|u| scores_of(snap, u))
        .map(f64::to_bits)
        .collect()
}

#[test]
fn binary_round_trips_are_bit_exact_for_every_kind() {
    let r = dataset_with_ids();
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        let v3 = snap.to_v3_bytes(r.ids(), None).unwrap();
        let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(v3.clone())).unwrap();
        assert_eq!(loaded.snapshot.kind(), kind);
        assert_eq!(
            loaded.ids.as_ref(),
            r.ids(),
            "kind {kind}: id maps must survive the binary cycle"
        );
        // bitwise: the reloaded model serves the very same scores
        assert_eq!(
            score_bits(&loaded.snapshot, r.n_users()),
            score_bits(&snap, r.n_users()),
            "kind {kind}: binary cycle must be bit-exact"
        );
        if let (AnySnapshot::Ocular(a), AnySnapshot::Ocular(b)) = (&loaded.snapshot, &snap) {
            assert_eq!(a, b);
        }
        // the binary serialisation is itself a fixed point
        assert_eq!(
            loaded
                .snapshot
                .to_v3_bytes(loaded.ids.as_ref(), None)
                .unwrap(),
            v3,
            "kind {kind}: binary serialisation must be stable"
        );
    }
}

/// The bytes `save_path_full` leaves on disk.
fn saved_file(snap: &AnySnapshot, ids: Option<&IdMaps>, meta: Option<&SnapshotMeta>) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("ocular-v3-saved-{}.snap", std::process::id()));
    snap.save_path_full(&path, ids, meta).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn a_saved_file_is_byte_equal_to_the_in_memory_container() {
    let r = dataset_with_ids();
    let meta = SnapshotMeta {
        generation: 3,
        n_users: r.n_users() as u64,
        n_items: r.n_items() as u64,
        nnz: r.nnz() as u64,
    };
    let mut zoo = snapshot_zoo(&r);
    let AnySnapshot::Ocular(ocular) = &zoo[0] else {
        panic!("ocular kind expected")
    };
    let quantized = [QuantDtype::F32, QuantDtype::I8]
        .map(|dtype| AnySnapshot::Ocular(ocular.clone().with_quantization(dtype)));
    zoo.extend(quantized);
    for snap in &zoo {
        for (ids, meta) in [
            (None, None),
            (r.ids(), None),
            (None, Some(&meta)),
            (r.ids(), Some(&meta)),
        ] {
            assert_eq!(
                saved_file(snap, ids, meta),
                snap.to_v3_bytes(ids, meta).unwrap(),
                "kind {}: ids {}, meta {}",
                snap.kind(),
                ids.is_some(),
                meta.is_some()
            );
        }
    }
}

#[test]
fn every_committed_v3_golden_resaves_to_its_own_bytes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden");
    for name in [
        "ocular",
        "ocular-f32",
        "ocular-int8",
        "wals",
        "bpr",
        "user-knn",
        "item-knn",
        "popularity",
    ] {
        let fixture = std::fs::read(dir.join(format!("v3-{name}.snap"))).unwrap();
        let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(fixture.clone())).unwrap();
        assert_eq!(
            saved_file(&loaded.snapshot, loaded.ids.as_ref(), loaded.meta.as_ref()),
            fixture,
            "v3-{name}.snap"
        );
    }
}

#[test]
fn zero_copy_load_borrows_from_the_region() {
    let r = dataset_with_ids();
    let snap = snapshot_zoo(&r).remove(0);
    let v3 = snap.to_v3_bytes(r.ids(), None).unwrap();
    let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(v3)).unwrap();
    let ids = loaded.ids;
    let AnySnapshot::Ocular(s) = loaded.snapshot else {
        panic!("ocular kind expected")
    };
    if cfg!(target_endian = "little") {
        assert!(
            s.model.user_factors.is_shared() && s.model.item_factors.is_shared(),
            "factor matrices must borrow the snapshot region, not re-allocate"
        );
        assert!(
            s.index.is_shared(),
            "cluster index CSR must borrow the snapshot region"
        );
        assert!(
            ids.expect("ids present").is_shared(),
            "id maps (order arrays + raw tables) must borrow the snapshot region"
        );
    }
}

#[test]
fn serves_correctly_from_a_read_only_mapped_file() {
    let r = dataset_with_ids();
    let snap = snapshot_zoo(&r).remove(0);
    let path = std::env::temp_dir().join(format!("ocular-v3-serve-{}.snap", std::process::id()));
    snap.save_path(&path, r.ids(), SnapshotFormat::Binary)
        .unwrap();
    // read-only on disk: serving must not need write access
    let mut perms = std::fs::metadata(&path).unwrap().permissions();
    perms.set_readonly(true);
    std::fs::set_permissions(&path, perms).unwrap();

    let region = ModelBytes::map_file(&path).unwrap();
    if cfg!(all(unix, target_pointer_width = "64")) {
        assert!(region.is_mapped(), "v3 load must map, not read");
    }
    let loaded = AnySnapshot::load_v3(region).unwrap();
    let ids = loaded.ids;
    let mapped_engine = EngineBuilder::from_snapshot(loaded.snapshot)
        .dataset(r.clone())
        .config(ServeConfig {
            default_m: 5,
            candidates: CandidatePolicy::Clusters { min_candidates: 5 },
            ..Default::default()
        })
        .build()
        .unwrap();
    let owned_engine = EngineBuilder::from_snapshot(snapshot_zoo(&r).remove(0))
        .dataset(r.clone())
        .config(ServeConfig {
            default_m: 5,
            candidates: CandidatePolicy::Clusters { min_candidates: 5 },
            ..Default::default()
        })
        .build()
        .unwrap();
    for u in 0..r.n_users() {
        let req = Request::Warm { user: u, m: 5 };
        assert_eq!(
            mapped_engine.serve_one(&req),
            owned_engine.serve_one(&req),
            "user {u}: serving from the mapped file must equal the in-memory engine"
        );
    }
    // external ids resolve through the region-borrowed id maps
    let ids = ids.expect("ids embedded");
    let ext = ids.users()[3];
    assert_eq!(
        mapped_engine
            .serve_one(&Request::WarmExternal { user: ext, m: 4 })
            .unwrap(),
        mapped_engine
            .serve_one(&Request::Warm { user: 3, m: 4 })
            .unwrap()
    );

    let mut perms = std::fs::metadata(&path).unwrap().permissions();
    #[allow(clippy::permissions_set_readonly_false)]
    perms.set_readonly(false);
    std::fs::set_permissions(&path, perms).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncation_rejected_at_every_length_for_every_kind() {
    let r = dataset();
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        let v3 = snap.to_v3_bytes(None, None).unwrap();
        for keep in 0..v3.len() {
            let result = AnySnapshot::load_v3(ModelBytes::from_vec(v3[..keep].to_vec()));
            assert!(
                matches!(result, Err(OcularError::Corrupt(_))),
                "kind {kind}: truncation to {keep} bytes must be a typed Corrupt error"
            );
        }
    }
}

#[test]
fn unknown_kind_in_v3_container_is_typed() {
    let mut bytes = Vec::new();
    let mut w = ocular_api::SectionWriter::new("neural-net", &mut bytes);
    w.put_u64s("meta", &[1, 1]);
    w.finish().unwrap();
    assert!(matches!(
        AnySnapshot::load_v3(ModelBytes::from_vec(bytes)),
        Err(OcularError::UnknownModelKind(k)) if k == "neural-net"
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single flipped bit anywhere in the container — header, payload,
    /// padding, table, checksum — must be rejected with a typed error.
    #[test]
    fn bit_flips_rejected(seed in 0u64..1_000_000, kind_ix in 0usize..6) {
        let r = dataset();
        let v3 = snapshot_zoo(&r)[kind_ix].to_v3_bytes(None, None).unwrap();
        let bit = (seed as usize) % (v3.len() * 8);
        let mut flipped = v3;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let result = AnySnapshot::load_v3(ModelBytes::from_vec(flipped));
        prop_assert!(
            result.is_err(),
            "flipping bit {bit} must be rejected"
        );
    }

    /// Binary round-trips are bit-exact for arbitrary factor values,
    /// including subnormals, huge magnitudes and negative zero.
    #[test]
    fn arbitrary_factor_values_round_trip(bits in proptest::collection::vec(any::<u64>(), 4..24)) {
        // draw raw bit patterns and patch the non-finite ones with edge
        // cases the format must preserve exactly
        const EDGE: [f64; 5] = [0.0, -0.0, f64::MIN_POSITIVE, 1e308, 5e-324];
        let vals: Vec<f64> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let v = f64::from_bits(b);
                if v.is_finite() { v } else { EDGE[i % EDGE.len()] }
            })
            .collect();
        let cols = 2;
        let rows = vals.len() / cols;
        let vals = &vals[..rows * cols];
        let user_factors = ocular_linalg::Matrix::from_vec(rows, cols, vals.to_vec());
        let item_factors = ocular_linalg::Matrix::from_vec(rows, cols, vals.to_vec());
        let model = ocular_core::FactorModel::new(user_factors, item_factors, false);
        let snap = AnySnapshot::Ocular(Snapshot::build(model, &IndexConfig { rel: 0.5, floor: 2 }));
        let v3 = snap.to_v3_bytes(None, None).unwrap();
        let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(v3)).unwrap().snapshot;
        let (AnySnapshot::Ocular(a), AnySnapshot::Ocular(b)) = (&snap, &loaded) else {
            panic!("ocular kind expected")
        };
        // PartialEq on f64 treats 0.0 == -0.0 and NaN != NaN; compare raw
        // bits for true bit-exactness
        let bits = |m: &ocular_linalg::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&a.model.user_factors), bits(&b.model.user_factors));
        prop_assert_eq!(bits(&a.model.item_factors), bits(&b.model.item_factors));
        prop_assert_eq!(&a.index, &b.index);
    }
}
