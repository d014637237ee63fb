//! Horizontal user sharding of a [`Dataset`] — the data-side half of the
//! serving engine's user partitions.
//!
//! Heckel et al. argue OCuLaR scales "across cores and machines" because
//! users decompose independently given the item-side state. This module
//! realises the data layout behind that claim: user rows are partitioned
//! into `N` shards by the **stable hash of the external user id**
//! ([`ocular_bytes::shard_of_key`]), each shard is a full [`Dataset`]
//! over the *complete* item axis, and item-side statistics merge back to
//! exactly the unsharded values — so training and fold-in math see the
//! same numbers whether they read one dataset or `N`.
//!
//! Two invariants make sharded serving bit-exact against the unsharded
//! engine:
//!
//! 1. **Partition by external id.** The router at serve time knows only
//!    the request's external user id; hashing that id (not the internal
//!    row, which shifts as deltas arrive) sends it to the shard that
//!    actually owns the row — no routing table has to travel with the
//!    data.
//! 2. **Shard-local order = ascending global order.** Within a shard,
//!    users keep their relative training order. With one shard the
//!    partition is the identity and shard 0's matrix is byte-identical
//!    to the base; with `N` shards any model rows split along the same
//!    rule line up with the shard dataset's rows by construction, and
//!    users appended after a snapshot (the live-refresh overhang) sort
//!    *after* every snapshot user inside their shard, preserving the
//!    dataset ⊇ model prefix contract per shard.
//!
//! The item axis is **replicated**, not split: every shard keeps the full
//! catalog width, the full item-side id map, and (lazily) its own
//! item×user view of its rows. Item-side aggregates over all users are
//! recovered by summing per-shard statistics
//! ([`ShardedDataset::merged_item_degrees`]).

use crate::io::IdMaps;
use crate::{CsrMatrix, Dataset, SparseError};
use ocular_bytes::shard_of_key;

/// A user-sharded view of one interaction [`Dataset`]: `N` disjoint
/// user-row groups, each a complete `Dataset` over the full item axis,
/// plus the global↔local routing tables. See the [module docs](self).
pub struct ShardedDataset {
    shards: Vec<Dataset>,
    /// Per shard: ascending global user row of each shard-local row.
    global_of: Vec<Vec<u32>>,
    /// Per global user row: `(shard, shard-local row)`.
    assign: Vec<(u32, u32)>,
    n_items: usize,
}

impl ShardedDataset {
    /// Partitions `base` into `n_shards` user shards by the stable hash
    /// of each user's external id (the internal row under the identity
    /// mapping). `n_shards == 1` reproduces `base` exactly as shard 0.
    ///
    /// When `base` carries id maps, every shard gets its own maps: the
    /// shard's users plus the **full** item-side table, so external-id
    /// requests resolve on the owning shard alone. An identity-mapped
    /// base yields identity-mapped shards (no synthesised maps — the
    /// serving tier must keep emitting responses without `item_ids`,
    /// exactly like the unsharded engine).
    pub fn split(base: &Dataset, n_shards: usize) -> Result<ShardedDataset, SparseError> {
        if n_shards == 0 {
            return Err(SparseError::MalformedCsr(
                "shard count must be positive".into(),
            ));
        }
        let n_users = base.n_users();
        if n_users > u32::MAX as usize || n_shards > u32::MAX as usize {
            return Err(SparseError::MalformedCsr(format!(
                "{n_users} users across {n_shards} shards exceeds the u32 routing range"
            )));
        }
        let n_items = base.n_items();
        let mut assign = Vec::with_capacity(n_users);
        let mut global_of: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for g in 0..n_users {
            let s = shard_of_key(base.external_user(g), n_shards);
            assign.push((s as u32, global_of[s].len() as u32));
            global_of[s].push(g as u32);
        }
        let shards = global_of
            .iter()
            .map(|rows| shard_dataset(base, rows, n_items))
            .collect::<Result<Vec<Dataset>, SparseError>>()?;
        Ok(ShardedDataset {
            shards,
            global_of,
            assign,
            n_items,
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total users across all shards (the base dataset's user count).
    pub fn n_users(&self) -> usize {
        self.assign.len()
    }

    /// Item-axis width, identical in every shard.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// All shard datasets, in shard order.
    pub fn shards(&self) -> &[Dataset] {
        &self.shards
    }

    /// One shard's dataset.
    ///
    /// # Panics
    /// Panics if `s >= n_shards`.
    pub fn shard(&self, s: usize) -> &Dataset {
        &self.shards[s]
    }

    /// The `(shard, shard-local row)` owning each global user row.
    pub fn assignments(&self) -> &[(u32, u32)] {
        &self.assign
    }

    /// The `(shard, shard-local row)` owning global user row `g`.
    ///
    /// # Panics
    /// Panics if `g >= n_users`.
    pub fn assignment(&self, g: usize) -> (usize, usize) {
        let (s, l) = self.assign[g];
        (s as usize, l as usize)
    }

    /// Ascending global user rows held by shard `s` (shard-local row `l`
    /// is global row `global_of(s)[l]`).
    ///
    /// # Panics
    /// Panics if `s >= n_shards`.
    pub fn global_of(&self, s: usize) -> &[u32] {
        &self.global_of[s]
    }

    /// Decomposes the partition into its owned pieces — the shard
    /// datasets, the per-shard ascending global-row tables, and the
    /// per-global-row `(shard, local)` assignments — so a consumer (the
    /// serving engine) can take ownership without cloning `N`
    /// datasets.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<Dataset>, Vec<Vec<u32>>, Vec<(u32, u32)>) {
        (self.shards, self.global_of, self.assign)
    }

    /// Per-item degrees summed across shards — equal to the base
    /// dataset's [`Dataset::item_degrees`] (and, the matrix being binary,
    /// to its column sums), because the shards partition the user rows.
    pub fn merged_item_degrees(&self) -> Vec<usize> {
        let mut merged = vec![0usize; self.n_items];
        for shard in &self.shards {
            for (m, &d) in merged.iter_mut().zip(shard.item_degrees()) {
                *m += d;
            }
        }
        merged
    }

    /// Per-user degrees reassembled into global row order — equal to the
    /// base dataset's [`Dataset::user_degrees`].
    pub fn merged_user_degrees(&self) -> Vec<usize> {
        let mut merged = vec![0usize; self.assign.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            for (l, &d) in shard.user_degrees().iter().enumerate() {
                merged[self.global_of[s][l] as usize] = d;
            }
        }
        merged
    }
}

/// Builds one shard's [`Dataset`]: the selected global rows in the given
/// (ascending) order over the full item axis, with shard-scoped id maps
/// when the base has any.
fn shard_dataset(base: &Dataset, rows: &[u32], n_items: usize) -> Result<Dataset, SparseError> {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0usize);
    let mut nnz = 0usize;
    for &g in rows {
        nnz += base.row_nnz(g as usize);
        indptr.push(nnz);
    }
    let mut indices = Vec::with_capacity(nnz);
    for &g in rows {
        indices.extend_from_slice(base.row(g as usize));
    }
    let matrix = CsrMatrix::from_raw(rows.len(), n_items, indptr, indices)?;
    match base.ids() {
        None => Ok(Dataset::from_matrix(matrix)),
        Some(ids) => {
            let users: Vec<u64> = rows
                .iter()
                .map(|&g| base.external_user(g as usize))
                .collect();
            let shard_ids = IdMaps::new(users, ids.items().to_vec())?;
            Dataset::new(matrix, shard_ids)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;

    fn base(n_users: usize, n_items: usize, with_ids: bool) -> Dataset {
        let mut t = Triplets::new(n_users, n_items);
        for u in 0..n_users {
            for j in 0..=(u % 4) {
                t.push(u, (u * 3 + j * 5) % n_items).unwrap();
            }
        }
        let m = t.into_csr();
        if with_ids {
            let users = (0..n_users as u64).map(|u| 1_000 + 7 * u).collect();
            let items = (0..n_items as u64).map(|i| 90_000 + 3 * i).collect();
            Dataset::new(m, IdMaps::new(users, items).unwrap()).unwrap()
        } else {
            Dataset::from_matrix(m)
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        for with_ids in [false, true] {
            let d = base(23, 17, with_ids);
            let sharded = ShardedDataset::split(&d, 1).unwrap();
            assert_eq!(sharded.n_shards(), 1);
            let s0 = sharded.shard(0);
            assert_eq!(s0.as_parts(), d.as_parts());
            assert_eq!(s0.ids(), d.ids());
            for g in 0..d.n_users() {
                assert_eq!(sharded.assignment(g), (0, g));
            }
        }
    }

    #[test]
    fn rows_routing_and_merged_stats_agree_with_base() {
        for with_ids in [false, true] {
            for n_shards in [2usize, 3, 4, 8] {
                let d = base(41, 13, with_ids);
                let sharded = ShardedDataset::split(&d, n_shards).unwrap();
                assert_eq!(sharded.n_users(), d.n_users());
                assert_eq!(sharded.n_items(), d.n_items());
                let total: usize = sharded.shards().iter().map(|s| s.n_users()).sum();
                assert_eq!(total, d.n_users());
                for g in 0..d.n_users() {
                    let (s, l) = sharded.assignment(g);
                    assert_eq!(sharded.global_of(s)[l] as usize, g);
                    assert_eq!(sharded.shard(s).row(l), d.row(g));
                    if with_ids {
                        // identity-mapped shards renumber externals locally
                        // (the serving engine routes those via
                        // `assignments` instead); id-mapped shards keep the
                        // global external ids
                        assert_eq!(sharded.shard(s).external_user(l), d.external_user(g));
                    }
                }
                // shard-local order is ascending global order
                for s in 0..n_shards {
                    assert!(sharded.global_of(s).windows(2).all(|w| w[0] < w[1]));
                    // each shard keeps a working item-side dual view
                    assert_eq!(sharded.shard(s).item_view().n_rows(), d.n_items());
                }
                assert_eq!(sharded.merged_item_degrees(), d.item_degrees());
                assert_eq!(sharded.merged_user_degrees(), d.user_degrees());
            }
        }
    }

    #[test]
    fn external_ids_resolve_only_on_the_owning_shard() {
        let d = base(30, 11, true);
        let sharded = ShardedDataset::split(&d, 4).unwrap();
        for g in 0..d.n_users() {
            let ext = d.external_user(g);
            let owner = ocular_bytes::shard_of_key(ext, 4);
            let (s, l) = sharded.assignment(g);
            assert_eq!(s, owner);
            assert_eq!(sharded.shard(s).user_index(ext), Some(l));
            // items resolve identically on every shard (replicated axis)
            for shard in sharded.shards() {
                assert_eq!(shard.item_index(d.external_item(0)), Some(0));
            }
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let d = base(5, 5, false);
        assert!(ShardedDataset::split(&d, 0).is_err());
    }
}
