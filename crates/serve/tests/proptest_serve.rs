//! Property-based guards for the serving subsystem.
//!
//! 1. The bounded-heap top-M kernel equals sort-based selection on random
//!    score vectors — including heavy ties, which is where a wrong
//!    comparator or heap invariant would diverge.
//!    The streaming raw-key selector the serving scans run on equals
//!    "transform every key, then that kernel", bit for bit.
//! 2. Snapshots round-trip exactly through the v3 container, and
//!    corrupted/truncated snapshot bytes are rejected rather than
//!    mis-loaded (the text reader's damage tests run on the golden corpus,
//!    `tests/golden_snapshots.rs`).

use ocular_bytes::ModelBytes;
use ocular_core::model::prob_from_affinity;
use ocular_core::{FactorModel, Recommendation};
use ocular_linalg::topk::{top_k_excluding, MonotoneTopK};
use ocular_linalg::Matrix;
use ocular_serve::{AnySnapshot, IndexConfig, Snapshot};
use proptest::prelude::*;

/// Reference: score everything, full sort (probability descending, ties by
/// ascending item), truncate — the selection the heap kernel replaced.
fn sort_based(scores: &[f64], exclude: &[u32], m: usize) -> Vec<Recommendation> {
    let mut all: Vec<Recommendation> = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| exclude.binary_search_by(|&e| (e as usize).cmp(i)).is_err())
        .map(|(item, &probability)| Recommendation { item, probability })
        .collect();
    all.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("finite")
            .then_with(|| a.item.cmp(&b.item))
    });
    all.truncate(m);
    all
}

/// Score vectors drawn from a *small* value set so ties are common, plus a
/// sorted exclusion list over the same index range.
fn arb_scores() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (1usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..6, n),
            proptest::collection::btree_set(0..n as u32, 0..n.min(20)),
        )
            .prop_map(|(levels, excl)| {
                let scores: Vec<f64> = levels.into_iter().map(|l| l as f64 / 5.0).collect();
                (scores, excl.into_iter().collect::<Vec<u32>>())
            })
    })
}

/// Raw affinities from a small set, so equal keys are common: negative
/// (int8 reconstruction can dip below zero), both zeros, tiny, ordinary,
/// and saturated keys — past `a ≈ 37` every probability is exactly `1.0`
/// and only the index decides.
const RAW_LEVELS: [f64; 11] = [
    -0.75, -0.0, 0.0, 1e-12, 0.5, 0.5, 2.0, 36.5, 41.0, 45.0, 700.0,
];

fn arb_raws() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (1usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..RAW_LEVELS.len(), n),
            proptest::collection::btree_set(0..n as u32, 0..n.min(20)),
        )
            .prop_map(|(levels, excl)| {
                let raws: Vec<f64> = levels.into_iter().map(|l| RAW_LEVELS[l]).collect();
                (raws, excl.into_iter().collect::<Vec<u32>>())
            })
    })
}

fn v3_bytes(snap: &Snapshot) -> Vec<u8> {
    AnySnapshot::Ocular(snap.clone())
        .to_v3_bytes(None, None)
        .unwrap()
}

fn load(bytes: Vec<u8>) -> Result<Snapshot, ocular_api::OcularError> {
    match AnySnapshot::load_v3(ModelBytes::from_vec(bytes))?.snapshot {
        AnySnapshot::Ocular(s) => Ok(s),
        AnySnapshot::Other(_) => panic!("written as ocular"),
    }
}

fn arb_model() -> impl Strategy<Value = FactorModel> {
    (1usize..6, 1usize..8, 1usize..4).prop_flat_map(|(n_users, n_items, k)| {
        (
            proptest::collection::vec(0u8..40, n_users * k),
            proptest::collection::vec(0u8..40, n_items * k),
        )
            .prop_map(move |(u, i)| {
                let scale = |v: Vec<u8>| v.into_iter().map(|x| x as f64 / 10.0).collect();
                FactorModel::new(
                    Matrix::from_vec(n_users, k, scale(u)),
                    Matrix::from_vec(n_items, k, scale(i)),
                    false,
                )
            })
    })
}

proptest! {
    #[test]
    fn heap_equals_sort_including_ties((scores, exclude) in arb_scores(), m in 0usize..60) {
        let heap: Vec<Recommendation> = top_k_excluding(&scores, &exclude, m)
            .into_iter()
            .map(Recommendation::from)
            .collect();
        let sorted = sort_based(&scores, &exclude, m);
        prop_assert_eq!(heap, sorted);
    }

    #[test]
    fn streaming_selector_equals_transform_all_then_select(
        (raws, exclude) in arb_raws(),
        k in 0usize..122,
    ) {
        let k = k % (raws.len() + 2); // 0 ..= n + 1
        let mut top = MonotoneTopK::new(k, &exclude, prob_from_affinity);
        top.offer_run(0, &raws);
        let got = top.into_sorted();
        let probs: Vec<f64> = raws.iter().map(|&a| prob_from_affinity(a)).collect();
        let want = top_k_excluding(&probs, &exclude, k);
        let bits = |pairs: &[(f64, usize)]| -> Vec<(u64, usize)> {
            pairs.iter().map(|&(p, i)| (p.to_bits(), i)).collect()
        };
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn snapshot_roundtrips_exactly(model in arb_model(), rel in 0.1f64..=1.0, floor in 0usize..8) {
        let snap = Snapshot::build(model, &IndexConfig { rel, floor });
        let loaded = load(v3_bytes(&snap));
        prop_assert_eq!(loaded.ok(), Some(snap));
    }

    #[test]
    fn truncated_snapshots_rejected(model in arb_model(), cut in 0usize..2000) {
        let bytes = v3_bytes(&Snapshot::build(model, &IndexConfig::default()));
        let cut = cut % bytes.len();
        prop_assert!(
            load(bytes[..cut].to_vec()).is_err(),
            "loading only {cut}/{} bytes must fail",
            bytes.len()
        );
    }

    #[test]
    fn corrupted_snapshots_never_misload(model in arb_model(), pos in 0usize..2000, byte in 0u8..=255) {
        let mut bytes = v3_bytes(&Snapshot::build(model, &IndexConfig::default()));
        let pos = pos % bytes.len();
        if bytes[pos] == byte {
            return Ok(()); // not a corruption
        }
        bytes[pos] = byte;
        // the container is checksummed: one wrong byte anywhere — header,
        // payload, padding, section table — is a typed error, never a
        // panic and never a model
        prop_assert!(load(bytes).is_err(), "byte {pos} ← {byte:#04x} must be rejected");
    }
}
