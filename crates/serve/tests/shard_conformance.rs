//! Partition conformance: sharded serving must be **byte-identical**
//! to the unsharded engine — same wire bytes, same telemetry, same typed
//! errors — for every warm user (internal and external addressing), cold
//! baskets (internal and external), unknown ids, and users appended
//! after the snapshot (fold-in overhang); across shard counts 1 and 4,
//! both id regimes, and every quantized dtype. Plus: per-shard `/stats`
//! telemetry reconciles. Partitions are always the in-memory split of one
//! snapshot; there is no per-shard file to conform.

use ocular_core::{fit, OcularConfig};
use ocular_datasets::planted::{generate, PlantedConfig};
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request, ServeConfig,
    ServeEngine, Snapshot,
};
use ocular_sparse::{Dataset, IdMaps};

fn dataset(with_ids: bool) -> Dataset {
    let r = generate(&PlantedConfig {
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
    .matrix;
    if !with_ids {
        return r;
    }
    let users: Vec<u64> = (0..r.n_users() as u64).map(|u| 1_000 + 7 * u).collect();
    let items: Vec<u64> = (0..r.n_items() as u64).map(|i| 500 + 3 * i).collect();
    let ids = IdMaps::new(users, items).unwrap();
    Dataset::new(r.matrix().clone(), ids).unwrap()
}

fn snapshot(r: &Dataset) -> Snapshot {
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
    Snapshot::build(model, &IndexConfig { rel: 0.5, floor: 5 })
}

fn config() -> ServeConfig {
    ServeConfig {
        default_m: 6,
        // small floor so some baskets take the candidate path and others
        // fall back — both selection branches get exercised
        candidates: CandidatePolicy::Clusters { min_candidates: 8 },
        ..Default::default()
    }
}

fn engines(
    snap: &Snapshot,
    d: &Dataset,
    n_shards: usize,
    quant: Option<QuantDtype>,
) -> (ServeEngine, ServeEngine) {
    let builder = || {
        let b = EngineBuilder::from_snapshot(AnySnapshot::Ocular(snap.clone()))
            .dataset(d.clone())
            .config(config())
            .generation(7);
        match quant {
            Some(dtype) => b.quantization(dtype),
            None => b,
        }
    };
    let single = builder().build().unwrap();
    let sharded = builder().shards(n_shards).build().unwrap();
    (single, sharded)
}

/// Every request shape the wire protocol can express, covering the whole
/// user population plus unknown-id and malformed-basket error paths.
fn request_zoo(d: &Dataset) -> Vec<Request> {
    let n_items = d.n_items();
    let mut reqs = Vec::new();
    for u in 0..d.n_users() {
        reqs.push(Request::Warm { user: u, m: 5 });
        reqs.push(Request::WarmExternal {
            user: d.external_user(u),
            m: 0,
        });
    }
    reqs.push(Request::Warm {
        user: d.n_users() + 3,
        m: 5,
    });
    reqs.push(Request::WarmExternal {
        user: 999_999_999,
        m: 5,
    });
    reqs.push(Request::Cold {
        basket: vec![0, 1, 2],
        m: 7,
    });
    reqs.push(Request::Cold {
        basket: vec![n_items - 1],
        m: 0,
    });
    reqs.push(Request::Cold {
        basket: vec![],
        m: 4,
    });
    reqs.push(Request::Cold {
        basket: vec![n_items + 5],
        m: 4,
    });
    reqs.push(Request::ColdExternal {
        basket: vec![d.external_item(0), d.external_item(2)],
        m: 6,
    });
    reqs.push(Request::ColdExternal {
        basket: vec![123_456_789],
        m: 6,
    });
    reqs
}

/// One-at-a-time and batched serving must both match the unsharded
/// engine byte for byte — wire encoding and structured telemetry alike.
fn assert_identical(single: &ServeEngine, sharded: &ServeEngine, reqs: &[Request], label: &str) {
    for req in reqs {
        let a = single.serve_one(req);
        let b = sharded.serve_one(req);
        assert_eq!(
            single.wire_reply(req, &a).encode(),
            sharded.wire_reply(req, &b).encode(),
            "{label}: serve_one wire bytes diverged on {req:?}"
        );
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{label}: telemetry diverged on {req:?}"),
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{label}: error diverged on {req:?}"
            ),
            _ => panic!("{label}: ok/err disagreement on {req:?}"),
        }
    }
    let batch_single = single.serve_batch(reqs);
    let batch_sharded = sharded.serve_batch(reqs);
    for ((req, x), y) in reqs.iter().zip(&batch_single).zip(&batch_sharded) {
        assert_eq!(
            single.wire_reply(req, x).encode(),
            sharded.wire_reply(req, y).encode(),
            "{label}: batch wire bytes diverged on {req:?}"
        );
    }
}

#[test]
fn sharded_serving_is_byte_identical_to_unsharded() {
    for with_ids in [false, true] {
        let d = dataset(with_ids);
        let snap = snapshot(&d);
        let reqs = request_zoo(&d);
        for quant in [None, Some(QuantDtype::F32), Some(QuantDtype::I8)] {
            for n_shards in [1usize, 4] {
                let (single, sharded) = engines(&snap, &d, n_shards, quant);
                assert_eq!(sharded.n_shards(), n_shards);
                assert_eq!(sharded.generation(), 7);
                assert_eq!(sharded.dtype(), single.dtype());
                assert_identical(
                    &single,
                    &sharded,
                    &reqs,
                    &format!("ids={with_ids} quant={quant:?} shards={n_shards}"),
                );
                // per-shard telemetry reconciles with the population; one
                // partition dispatches nothing and reports no rows
                let stats = sharded.shard_stats();
                if n_shards == 1 {
                    assert!(stats.is_empty());
                    continue;
                }
                assert_eq!(stats.len(), n_shards);
                let users: usize = stats.iter().map(|s| s.users).sum();
                assert_eq!(users, d.n_users());
                assert!(stats.iter().map(|s| s.requests).sum::<u64>() > 0);
            }
        }
    }
}

/// Users appended after the snapshot (the live-refresh overhang) are
/// served by request-time fold-in on their owning shard, byte-identical
/// to the unsharded fold-in path (`folded_in: true` included).
#[test]
fn post_snapshot_users_fold_in_identically_on_their_shard() {
    for with_ids in [false, true] {
        let d = dataset(with_ids);
        let snap = snapshot(&d);
        let mut staged = d.delta_builder();
        for (j, ext) in [770_001u64, 770_002, 770_003].iter().enumerate() {
            // identity datasets extend by their next row indices instead
            let user = if with_ids {
                *ext
            } else {
                (d.n_users() + j) as u64
            };
            staged.push(user, d.external_item(j)).unwrap();
            staged.push(user, d.external_item(j + 4)).unwrap();
        }
        let grown = staged.finish().unwrap();
        assert_eq!(grown.n_users(), d.n_users() + 3);

        let (single, sharded) = engines(&snap, &grown, 4, None);
        let mut reqs = Vec::new();
        for u in d.n_users()..grown.n_users() {
            reqs.push(Request::Warm { user: u, m: 5 });
            reqs.push(Request::WarmExternal {
                user: grown.external_user(u),
                m: 5,
            });
        }
        for req in &reqs {
            let got = sharded.serve_one(req).unwrap();
            assert!(got.folded_in, "overhang user must be folded in: {req:?}");
        }
        assert_identical(
            &single,
            &sharded,
            &reqs,
            &format!("overhang ids={with_ids}"),
        );
    }
}
