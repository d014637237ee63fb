//! Property-based invariants of the [`ocular_sparse::Dataset`] backbone:
//! streaming chunked ingestion must be byte-for-byte equivalent to the
//! in-memory path, the id tables ingestion grows must be the v3 layout the
//! snapshot writer persists, and the cached CSC dual view must equal the
//! exact transpose for arbitrary matrices.

use ocular_bytes::fnv1a64_key;
use ocular_sparse::io::{append_edge_list_str, read_edge_list_str_chunked};
use ocular_sparse::{CsrMatrix, Dataset, IdMaps, StreamingTriplets, Triplets};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..20, 1usize..20).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..m), 0..100).prop_map(move |pairs| {
            let mut t = Triplets::new(n, m);
            t.extend_pairs(pairs).unwrap();
            t.into_csr()
        })
    })
}

/// Raw record streams: shape + possibly duplicated, unsorted pairs.
fn arb_records() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>)> {
    (1usize..16, 1usize..16).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..m), 0..200).prop_map(move |pairs| (n, m, pairs))
    })
}

/// The v3 id-table layout, written out apart from the crate's own code:
/// the ids inserted in index order, each into the first empty slot of a
/// linear probe from its FNV-1a bucket, at capacity `next_power_of_two(2n)`
/// (none for no ids), `u32::MAX` marking an empty slot.
fn reference_table(order: &[u64]) -> (Vec<u64>, Vec<u32>) {
    if order.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let cap = (2 * order.len()).next_power_of_two();
    let (mut keys, mut vals) = (vec![0u64; cap], vec![u32::MAX; cap]);
    for (ix, &external) in order.iter().enumerate() {
        let mut slot = fnv1a64_key(external) as usize & (cap - 1);
        while vals[slot] != u32::MAX {
            slot = (slot + 1) & (cap - 1);
        }
        keys[slot] = external;
        vals[slot] = ix as u32;
    }
    (keys, vals)
}

/// Both axes' tables, as a save would write them, are the reference layout
/// of their order arrays.
fn assert_reference_tables(ids: Option<&IdMaps>) -> Result<(), TestCaseError> {
    let ids = ids.expect("read datasets carry id maps");
    let (user_table, item_table) = ids.raw_tables();
    for (table, order) in [(user_table, ids.users()), (item_table, ids.items())] {
        let (keys, vals) = reference_table(order);
        prop_assert_eq!(table.keys(), &keys[..]);
        prop_assert_eq!(table.vals(), &vals[..]);
    }
    Ok(())
}

proptest! {
    #[test]
    fn streaming_equals_in_memory_builder(
        (n, m, pairs) in arb_records(),
        chunk in 1usize..32,
    ) {
        // in-memory reference: the Triplets path
        let mut t = Triplets::new(n, m);
        t.extend_pairs(pairs.iter().copied()).unwrap();
        let reference = t.into_csr();
        // streaming path with an arbitrary (often tiny) chunk capacity
        let mut s = StreamingTriplets::with_chunk_capacity(chunk);
        for &(r, c) in &pairs {
            s.push(r, c).unwrap();
        }
        prop_assert_eq!(s.finish(n, m).unwrap(), reference);
    }

    #[test]
    fn streaming_reader_equals_in_memory_reader(
        (_, _, pairs) in arb_records(),
        chunk in 1usize..16,
    ) {
        // render an edge list with sparse external ids and duplicates
        let mut text = String::new();
        for &(r, c) in &pairs {
            text.push_str(&format!("{}\t{}\n", 1000 + r * 13, 7 + c * 11));
        }
        // "in-memory" reference = one chunk big enough to hold everything
        let full = read_edge_list_str_chunked(&text, "\t", None, 1 << 20).unwrap();
        let chunked = read_edge_list_str_chunked(&text, "\t", None, chunk).unwrap();
        // byte-for-byte identical resulting Dataset: same matrix (CSR arrays
        // compare exactly) and same id tables
        prop_assert_eq!(&chunked.matrix, &full.matrix);
        prop_assert_eq!(&chunked.ids, &full.ids);
        let (a, b) = (chunked.into_dataset(), full.into_dataset());
        prop_assert_eq!(a, b);
    }

    /// The delta-merge path must be indistinguishable from a full
    /// re-ingest of the concatenated base+delta stream: same CSR arrays,
    /// same id tables, same internal index for every external id — the
    /// invariant the live-refresh loop (retrain on appended log, hot-swap,
    /// fold in newer users) rests on. Every id table grown on the way —
    /// read at any chunk size, or extended by never-seen ids — is the
    /// layout the snapshot writer persists.
    #[test]
    fn append_deltas_equals_full_reingest(
        (_, _, base_pairs) in arb_records(),
        (_, _, delta_pairs) in arb_records(),
        chunk in 1usize..16,
    ) {
        let render = |pairs: &[(usize, usize)]| {
            let mut text = String::new();
            for &(r, c) in pairs {
                text.push_str(&format!("{}\t{}\n", 1000 + r * 13, 7 + c * 11));
            }
            text
        };
        let base_text = render(&base_pairs);
        let delta_text = render(&delta_pairs);
        let base = read_edge_list_str_chunked(&base_text, "\t", None, chunk)
            .unwrap()
            .into_dataset();

        // delta-merge path: one merge pass over the existing positives
        let merged = append_edge_list_str(&base, &delta_text, "\t", None).unwrap();
        // reference: re-ingest everything from scratch
        let full_text = format!("{base_text}{delta_text}");
        let full = read_edge_list_str_chunked(&full_text, "\t", None, chunk)
            .unwrap()
            .into_dataset();

        prop_assert_eq!(merged.matrix(), full.matrix());
        prop_assert_eq!(merged.ids(), full.ids());
        prop_assert_eq!(&merged, &full);
        // existing internal indices survive the append (prefix property)
        if let (Some(b), Some(m)) = (base.ids(), merged.ids()) {
            prop_assert!(b.is_prefix_of(m));
        }
        assert_reference_tables(base.ids())?;
        assert_reference_tables(merged.ids())?;
        for chunk in [1, 3, 1 << 20] {
            let read = read_edge_list_str_chunked(&full_text, "\t", None, chunk).unwrap();
            assert_reference_tables(Some(&read.ids))?;
        }
        // ids no record has used yet, each twice, on both axes
        let fresh = delta_pairs
            .iter()
            .flat_map(|&(r, c)| [(5_000_000 + r as u64, 9_000_000 + c as u64); 2]);
        let grown = merged.append_deltas(fresh).unwrap();
        assert_reference_tables(grown.ids())?;
        for u in 0..base.n_users() {
            prop_assert_eq!(merged.user_index(base.external_user(u)), Some(u));
        }
        for i in 0..base.n_items() {
            prop_assert_eq!(merged.item_index(base.external_item(i)), Some(i));
        }
    }

    /// Identity-mapped datasets (no id tables) take the same path with
    /// internal indices as external ids, growing the shape to cover the
    /// deltas.
    #[test]
    fn append_deltas_identity_mapping(
        (n, m, base_pairs) in arb_records(),
        (dn, dm, delta_pairs) in arb_records(),
    ) {
        let mut t = Triplets::new(n, m);
        t.extend_pairs(base_pairs.iter().copied()).unwrap();
        let base = Dataset::from_matrix(t.into_csr());
        let merged = base
            .append_deltas(delta_pairs.iter().map(|&(r, c)| (r as u64, c as u64)))
            .unwrap();

        let (rn, rm) = (n.max(dn.min(16)), m.max(dm.min(16)));
        let mut all = Triplets::new(rn.max(16), rm.max(16));
        all.extend_pairs(base_pairs.iter().copied()).unwrap();
        all.extend_pairs(delta_pairs.iter().copied()).unwrap();
        let reference = all.into_csr();
        prop_assert_eq!(merged.nnz(), reference.nnz());
        for (r, c) in reference.iter_nnz() {
            prop_assert!(merged.contains(r, c));
        }
        prop_assert!(merged.ids().is_none());
    }

    #[test]
    fn cached_csc_view_equals_transpose(m in arb_matrix()) {
        let d = Dataset::from_matrix(m.clone());
        prop_assert_eq!(d.item_view(), &m.transpose());
        // involution through the view as well
        prop_assert_eq!(&d.item_view().transpose(), d.matrix());
        // degrees agree with the dual view's rows
        for i in 0..d.n_items() {
            prop_assert_eq!(d.item_degrees()[i], d.item_view().row_nnz(i));
        }
        for u in 0..d.n_users() {
            prop_assert_eq!(d.user_degrees()[u], d.row_nnz(u));
        }
    }

    #[test]
    fn split_shares_one_id_space(m in arb_matrix(), seed in any::<u64>()) {
        let mut text = String::new();
        for (u, i) in m.iter_nnz() {
            text.push_str(&format!("{}\t{}\n", 500 + u * 3, 90 + i * 7));
        }
        let d = read_edge_list_str_chunked(&text, "\t", None, 8).unwrap().into_dataset();
        let s = d.split(&ocular_sparse::SplitConfig { seed, ..Default::default() });
        prop_assert_eq!(s.train.n_users(), s.test.n_users());
        prop_assert_eq!(s.train.n_items(), s.test.n_items());
        // both sides resolve every external id to the same internal index
        for u in 0..d.n_users() {
            let ext = d.external_user(u);
            prop_assert_eq!(s.train.user_index(ext), Some(u));
            prop_assert_eq!(s.test.user_index(ext), Some(u));
        }
        for i in 0..d.n_items() {
            let ext = d.external_item(i);
            prop_assert_eq!(s.train.item_index(ext), Some(i));
            prop_assert_eq!(s.test.item_index(ext), Some(i));
        }
    }
}

/// Regression guard for the id-lookup bugfix: `user_index`/`item_index`
/// used to be O(n) linear scans, which made external-id request handling
/// quadratic at serving time. 10k lookups against a 100k-entity map must
/// complete well inside tier-1 time (the old scan did ~5·10⁸ comparisons
/// here; the hash maps do 10⁴ probes).
#[test]
fn idmaps_lookup_is_constant_time() {
    let n: u64 = 100_000;
    // sparse, shuffled-feeling external ids
    let users: Vec<u64> = (0..n).map(|k| 1_000_000 + k * 7).collect();
    let items: Vec<u64> = (0..n).map(|k| 3_000_000 + k * 11).collect();
    let ids = ocular_sparse::IdMaps::new(users, items).unwrap();
    let t0 = std::time::Instant::now();
    let mut hits = 0usize;
    for k in 0..10_000u64 {
        // probe across the whole range, worst-case for a linear scan
        let probe = 1_000_000 + (n - 1 - k * 9 % n) * 7;
        if let Some(ix) = ids.user_index(probe) {
            assert_eq!(ids.external_user(ix), Some(probe));
            hits += 1;
        }
        let probe = 3_000_000 + (n - 1 - k * 13 % n) * 11;
        if ids.item_index(probe).is_some() {
            hits += 1;
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(hits, 20_000, "every probe lands on a mapped id");
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "10k lookups on a 100k-entity map took {elapsed:?} — lookups are not O(1)"
    );
}
