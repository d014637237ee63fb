//! Readers and writers for interaction data — streaming, chunked, and
//! id-mapping.
//!
//! Three on-disk formats are supported, covering the paper's public datasets
//! so that users with the real files can reproduce the original numbers:
//!
//! * **Edge list / CSV** — one `user<sep>item[<sep>rating]` record per line
//!   ([`read_edge_list`]); with a rating column, records are kept only if
//!   `rating >= threshold` (the paper keeps MovieLens/Netflix ratings ≥ 3);
//! * **MovieLens `::`** — `UserID::MovieID::Rating::Timestamp`
//!   ([`read_movielens`]);
//! * **Netflix** — per-movie files whose first line is `movie_id:` followed
//!   by `customer,rating,date` lines ([`read_netflix_dir`]).
//!
//! All readers compact arbitrary (sparse, 1-based, hash-like) external ids
//! into dense 0-based indices and return the [`IdMaps`] needed to translate
//! recommendations back to external ids. Parsing is **streaming**: records
//! flow one at a time into a [`crate::StreamingTriplets`] chunked builder,
//! so a repeat-heavy interaction log never materialises its raw record
//! list — peak memory is `O(unique pairs + entities + chunk)`.

use crate::{CsrMatrix, Dataset, SparseError, StreamingTriplets};
use ocular_bytes::{fnv1a64_key, U32Buf, U64Buf};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Sentinel marking an empty slot in a [`RawIdTable`] (the internal
/// indices themselves are bounded by `u32::MAX` entries, enforced at map
/// construction, so the sentinel can never collide with a real index).
const RAW_EMPTY: u32 = u32::MAX;

/// A flat open-addressed hash table mapping external ids to internal
/// indices — the **on-disk** (and mmap-servable) form of one axis of an
/// [`IdMaps`] lookup.
///
/// Layout: two parallel arrays of power-of-two capacity, `keys: u64[cap]`
/// and `vals: u32[cap]`, with `vals[slot] == u32::MAX` marking empty
/// slots. A key hashes to `fnv1a64(key_le_bytes) & (cap - 1)` and probes
/// linearly. The layout is part of the v3 snapshot contract: the writer
/// builds it deterministically and the serving tier probes it **in
/// place**, borrowed from the snapshot's byte region, so engine start-up
/// rebuilds no hash tables.
#[derive(Debug, Clone)]
pub struct RawIdTable {
    keys: U64Buf,
    vals: U32Buf,
}

impl RawIdTable {
    /// Builds the table for an external-id order array (`order[ix]` =
    /// external id of internal index `ix`). Deterministic: the same order
    /// array always produces the same bytes. Capacity is the smallest
    /// power of two holding the entries at ≤ 50% load (minimum one empty
    /// slot, so probes always terminate).
    ///
    /// # Panics
    /// Panics if `order` holds `u32::MAX` or more entries (the internal
    /// index domain; [`IdMaps::new`] rejects this earlier with an error).
    pub fn build(order: &[u64]) -> RawIdTable {
        assert!(
            order.len() < RAW_EMPTY as usize,
            "id table exceeds u32 addressing"
        );
        if order.is_empty() {
            return RawIdTable {
                keys: U64Buf::default(),
                vals: U32Buf::default(),
            };
        }
        let cap = (order.len() * 2).next_power_of_two();
        let mut keys = vec![0u64; cap];
        let mut vals = vec![RAW_EMPTY; cap];
        for (ix, &external) in order.iter().enumerate() {
            let mut slot = fnv1a64_key(external) as usize & (cap - 1);
            while vals[slot] != RAW_EMPTY {
                slot = (slot + 1) & (cap - 1);
            }
            keys[slot] = external;
            vals[slot] = ix as u32;
        }
        RawIdTable {
            keys: keys.into(),
            vals: vals.into(),
        }
    }

    /// Assembles a table from (possibly region-borrowed) arrays, checking
    /// only structural shape — capacity a power of two (or both empty) and
    /// arrays of equal length. Semantic validation against an order array
    /// happens in [`IdMaps::from_raw`].
    pub fn from_parts(keys: U64Buf, vals: U32Buf) -> Result<RawIdTable, SparseError> {
        if keys.len() != vals.len() {
            return Err(SparseError::Io(format!(
                "id table arrays disagree: {} keys vs {} values",
                keys.len(),
                vals.len()
            )));
        }
        if !keys.is_empty() && !keys.len().is_power_of_two() {
            return Err(SparseError::Io(format!(
                "id table capacity {} is not a power of two",
                keys.len()
            )));
        }
        Ok(RawIdTable { keys, vals })
    }

    /// The key array (serialization).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The value array (serialization).
    pub fn vals(&self) -> &[u32] {
        &self.vals
    }

    /// Looks up a key by bounded linear probing. O(1) expected.
    fn probe(&self, key: u64) -> Option<usize> {
        let cap = self.keys.len();
        if cap == 0 {
            return None;
        }
        let (keys, vals) = (self.keys.as_slice(), self.vals.as_slice());
        let mut slot = fnv1a64_key(key) as usize & (cap - 1);
        // bounded by cap so a corrupt all-full table cannot loop forever
        for _ in 0..cap {
            if vals[slot] == RAW_EMPTY {
                return None;
            }
            if keys[slot] == key {
                return Some(vals[slot] as usize);
            }
            slot = (slot + 1) & (cap - 1);
        }
        None
    }

    /// Number of occupied slots.
    fn occupancy(&self) -> usize {
        self.vals.iter().filter(|&&v| v != RAW_EMPTY).count()
    }

    fn is_shared(&self) -> bool {
        self.keys.is_shared() && self.vals.is_shared()
    }
}

/// One direction of id lookup: a heap `HashMap` (maps built in memory) or
/// a [`RawIdTable`] probed in place (maps loaded from a binary snapshot).
#[derive(Debug, Clone)]
enum Lookup {
    Hash(HashMap<u64, u32>),
    Raw(RawIdTable),
}

impl Lookup {
    fn get(&self, external: u64) -> Option<usize> {
        match self {
            Lookup::Hash(map) => map.get(&external).map(|&ix| ix as usize),
            Lookup::Raw(table) => table.probe(external),
        }
    }
}

/// Mapping between external (file) ids and the dense internal indices,
/// with O(1) lookups in both directions.
///
/// The order arrays are [`U64Buf`]s and the lookups either `HashMap`s or
/// raw probed tables, so an `IdMaps` loaded from a binary snapshot
/// borrows everything from the snapshot's (possibly memory-mapped) byte
/// region — engine start-up allocates no id tables. Equality compares the
/// order arrays (the lookups are derived).
#[derive(Debug, Clone)]
pub struct IdMaps {
    /// `users[u]` = external id of internal user `u`.
    users: U64Buf,
    /// `items[i]` = external id of internal item `i`.
    items: U64Buf,
    user_lookup: Lookup,
    item_lookup: Lookup,
}

impl PartialEq for IdMaps {
    fn eq(&self, other: &Self) -> bool {
        self.users() == other.users() && self.items() == other.items()
    }
}

impl Eq for IdMaps {}

impl Default for IdMaps {
    fn default() -> Self {
        IdMaps {
            users: U64Buf::default(),
            items: U64Buf::default(),
            user_lookup: Lookup::Hash(HashMap::new()),
            item_lookup: Lookup::Hash(HashMap::new()),
        }
    }
}

fn build_lookup(order: &[u64], what: &str) -> Result<HashMap<u64, u32>, SparseError> {
    if order.len() > u32::MAX as usize {
        return Err(SparseError::Io(format!(
            "{what} id map exceeds u32 addressing ({} entries)",
            order.len()
        )));
    }
    let mut map = HashMap::with_capacity(order.len());
    for (ix, &external) in order.iter().enumerate() {
        if map.insert(external, ix as u32).is_some() {
            return Err(SparseError::Io(format!(
                "duplicate external {what} id {external} in id map"
            )));
        }
    }
    Ok(map)
}

/// Validates a raw table against its order array: every external id must
/// probe back to its internal index, and the occupancy must be exactly
/// `order.len()` (so the table holds no stray entries that could answer
/// unknown ids, and — capacity exceeding occupancy — probes terminate).
fn validate_raw(order: &[u64], table: &RawIdTable, what: &str) -> Result<(), SparseError> {
    let n = order.len();
    if n > 0 && table.keys.len() <= n {
        return Err(SparseError::Io(format!(
            "{what} id table capacity {} cannot hold {n} entries with a free slot",
            table.keys.len()
        )));
    }
    if table.occupancy() != n {
        return Err(SparseError::Io(format!(
            "{what} id table holds {} entries but the order array has {n}",
            table.occupancy()
        )));
    }
    for (ix, &external) in order.iter().enumerate() {
        if table.probe(external) != Some(ix) {
            return Err(SparseError::Io(format!(
                "{what} id table does not resolve external id {external} to index {ix}"
            )));
        }
    }
    Ok(())
}

impl IdMaps {
    /// Builds maps from the external-id tables (`users[u]` = external id of
    /// internal user `u`). Rejects duplicate external ids.
    pub fn new(users: Vec<u64>, items: Vec<u64>) -> Result<Self, SparseError> {
        let user_lookup = build_lookup(&users, "user")?;
        let item_lookup = build_lookup(&items, "item")?;
        Ok(IdMaps {
            users: users.into(),
            items: items.into(),
            user_lookup: Lookup::Hash(user_lookup),
            item_lookup: Lookup::Hash(item_lookup),
        })
    }

    /// Assembles maps from raw, possibly region-borrowed parts — the v3
    /// binary snapshot load path. The tables are fully validated against
    /// the order arrays (occupancy, round-trip of every id, duplicate
    /// rejection falls out of the round-trip check), so corrupt bytes are
    /// an error here rather than wrong answers at request time. On
    /// success, lookups probe the given tables **in place**.
    pub fn from_raw(
        users: U64Buf,
        items: U64Buf,
        user_table: RawIdTable,
        item_table: RawIdTable,
    ) -> Result<Self, SparseError> {
        if users.len() >= RAW_EMPTY as usize || items.len() >= RAW_EMPTY as usize {
            return Err(SparseError::Io("id map exceeds u32 addressing".into()));
        }
        validate_raw(&users, &user_table, "user")?;
        validate_raw(&items, &item_table, "item")?;
        Ok(IdMaps {
            users,
            items,
            user_lookup: Lookup::Raw(user_table),
            item_lookup: Lookup::Raw(item_table),
        })
    }

    /// The raw lookup tables for both axes, building them when the maps
    /// are hash-backed — what the v3 snapshot writer serialises.
    /// Deterministic for a given pair of order arrays.
    pub fn raw_tables(&self) -> (RawIdTable, RawIdTable) {
        let for_axis = |lookup: &Lookup, order: &[u64]| match lookup {
            Lookup::Raw(t) => t.clone(),
            Lookup::Hash(_) => RawIdTable::build(order),
        };
        (
            for_axis(&self.user_lookup, &self.users),
            for_axis(&self.item_lookup, &self.items),
        )
    }

    /// Whether both order arrays and both lookup tables borrow a shared
    /// byte region (the zero-copy snapshot load path) rather than owning
    /// heap allocations.
    pub fn is_shared(&self) -> bool {
        let lookup_shared = |lookup: &Lookup| match lookup {
            Lookup::Hash(_) => false,
            Lookup::Raw(t) => t.is_shared(),
        };
        self.users.is_shared()
            && self.items.is_shared()
            && lookup_shared(&self.user_lookup)
            && lookup_shared(&self.item_lookup)
    }

    /// Internal-constructor used by the readers: the compactors already
    /// hold exactly the lookup tables, so nothing is rebuilt.
    pub(crate) fn from_compactors(users: Compactor, items: Compactor) -> Self {
        IdMaps {
            users: users.order.into(),
            items: items.order.into(),
            user_lookup: Lookup::Hash(users.map),
            item_lookup: Lookup::Hash(items.map),
        }
    }

    /// External user ids in internal order.
    pub fn users(&self) -> &[u64] {
        &self.users
    }

    /// External item ids in internal order.
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Number of mapped users.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of mapped items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Whether `other` extends this map: every internal index here maps
    /// to the same external id there, on both axes. Delta appends
    /// ([`crate::Dataset::append_deltas`]) preserve exactly this prefix
    /// property, so a serving log that grew past its snapshot is already
    /// aligned to the model's id space and needs no rebuild.
    pub fn is_prefix_of(&self, other: &IdMaps) -> bool {
        other.users().starts_with(self.users()) && other.items().starts_with(self.items())
    }

    /// Internal index of an external user id, if seen. O(1).
    pub fn user_index(&self, external: u64) -> Option<usize> {
        self.user_lookup.get(external)
    }

    /// Internal index of an external item id, if seen. O(1).
    pub fn item_index(&self, external: u64) -> Option<usize> {
        self.item_lookup.get(external)
    }

    /// External id of internal user `u`, if in bounds.
    pub fn external_user(&self, u: usize) -> Option<u64> {
        self.users.get(u).copied()
    }

    /// External id of internal item `i`, if in bounds.
    pub fn external_item(&self, i: usize) -> Option<u64> {
        self.items.get(i).copied()
    }
}

pub(crate) struct Compactor {
    pub(crate) map: HashMap<u64, u32>,
    pub(crate) order: Vec<u64>,
}

impl Compactor {
    fn new() -> Self {
        Compactor {
            map: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// A compactor pre-populated with an existing id order, so further
    /// [`get`](Compactor::get) calls extend it in first-appearance order —
    /// the seed of the delta-merge path ([`crate::DatasetBuilder`]).
    pub(crate) fn seeded(order: &[u64]) -> Self {
        let mut map = HashMap::with_capacity(order.len());
        for (ix, &external) in order.iter().enumerate() {
            map.insert(external, ix as u32);
        }
        Compactor {
            map,
            order: order.to_vec(),
        }
    }

    pub(crate) fn get(&mut self, external: u64) -> u32 {
        if let Some(&ix) = self.map.get(&external) {
            return ix;
        }
        let ix = self.order.len() as u32;
        self.map.insert(external, ix);
        self.order.push(external);
        ix
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }
}

/// A parsed positive-example stream: the compacted matrix plus id maps.
#[derive(Debug)]
pub struct ParsedInteractions {
    /// The compacted interaction matrix.
    pub matrix: CsrMatrix,
    /// External-id translation tables.
    pub ids: IdMaps,
    /// Records dropped because their rating fell below the threshold.
    pub dropped_below_threshold: usize,
}

impl ParsedInteractions {
    /// Splits into the matrix and the id maps (legacy entry point).
    pub fn into_matrix(self) -> (CsrMatrix, IdMaps) {
        (self.matrix, self.ids)
    }

    /// Finishes parsing into the shared [`Dataset`] abstraction the rest
    /// of the workspace trains, evaluates and serves from.
    pub fn into_dataset(self) -> Dataset {
        Dataset::new(self.matrix, self.ids).expect("reader shapes are consistent")
    }
}

/// Streams edge-list records (`user<sep>item[<sep>rating]`) into `sink`,
/// returning how many records the rating threshold dropped. The shared
/// parsing loop behind the full readers **and** the delta-append path.
fn for_each_record<R, F>(
    mut reader: R,
    sep: &str,
    rating_threshold: Option<f64>,
    mut sink: F,
) -> Result<usize, SparseError>
where
    R: BufRead,
    F: FnMut(u64, u64) -> Result<(), SparseError>,
{
    let mut dropped = 0usize;
    // one line buffer for the whole stream, not a `String` per record
    let mut buf = String::new();
    for lineno in 1.. {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(sep);
        let u: u64 = fields
            .next()
            .ok_or_else(|| SparseError::Io(format!("line {}: missing user", lineno)))?
            .trim()
            .parse()
            .map_err(|e| SparseError::Io(format!("line {}: bad user id: {e}", lineno)))?;
        let i: u64 = fields
            .next()
            .ok_or_else(|| SparseError::Io(format!("line {}: missing item", lineno)))?
            .trim()
            .parse()
            .map_err(|e| SparseError::Io(format!("line {}: bad item id: {e}", lineno)))?;
        if let Some(threshold) = rating_threshold {
            let rating: f64 = match fields.next() {
                Some(f) => f
                    .trim()
                    .parse()
                    .map_err(|e| SparseError::Io(format!("line {}: bad rating: {e}", lineno)))?,
                // No rating column: implicit feedback, always positive.
                None => threshold,
            };
            if rating < threshold {
                dropped += 1;
                continue;
            }
        }
        sink(u, i)?;
    }
    Ok(dropped)
}

fn parse_records<R: BufRead>(
    reader: R,
    sep: &str,
    rating_threshold: Option<f64>,
    chunk_capacity: usize,
) -> Result<ParsedInteractions, SparseError> {
    let mut users = Compactor::new();
    let mut items = Compactor::new();
    let mut staged = StreamingTriplets::with_chunk_capacity(chunk_capacity);
    let dropped = for_each_record(reader, sep, rating_threshold, |u, i| {
        staged.push(users.get(u) as usize, items.get(i) as usize)
    })?;
    let matrix = staged.finish(users.len(), items.len())?;
    Ok(ParsedInteractions {
        matrix,
        ids: IdMaps::from_compactors(users, items),
        dropped_below_threshold: dropped,
    })
}

/// Default staging-chunk capacity for the file readers.
const READER_CHUNK: usize = 1 << 20;

/// Reads a separated-value edge list (`user<sep>item[<sep>rating]`).
///
/// With `rating_threshold = Some(t)` the third column is required to be a
/// rating and records with `rating < t` are dropped (paper: `t = 3.0` for
/// MovieLens and Netflix). With `None`, any third column is ignored and
/// every record is a positive example.
pub fn read_edge_list<P: AsRef<Path>>(
    path: P,
    sep: &str,
    rating_threshold: Option<f64>,
) -> Result<ParsedInteractions, SparseError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Io(format!("open {}: {e}", path.as_ref().display())))?;
    parse_records(BufReader::new(file), sep, rating_threshold, READER_CHUNK)
}

/// Reads edge-list records from an in-memory string (same semantics as
/// [`read_edge_list`]); the entry point used by tests and doc examples.
pub fn read_edge_list_str(
    data: &str,
    sep: &str,
    rating_threshold: Option<f64>,
) -> Result<ParsedInteractions, SparseError> {
    parse_records(
        BufReader::new(data.as_bytes()),
        sep,
        rating_threshold,
        READER_CHUNK,
    )
}

/// [`read_edge_list_str`] with an explicit staging-chunk capacity —
/// exercises the chunked merge machinery with tiny chunks; the property
/// tests assert the result is identical for every capacity.
pub fn read_edge_list_str_chunked(
    data: &str,
    sep: &str,
    rating_threshold: Option<f64>,
    chunk_capacity: usize,
) -> Result<ParsedInteractions, SparseError> {
    parse_records(
        BufReader::new(data.as_bytes()),
        sep,
        rating_threshold,
        chunk_capacity,
    )
}

/// Streams a delta edge list over an existing dataset through the
/// delta-merge path ([`crate::DatasetBuilder`]): never-seen users/items
/// extend the id space in first-appearance order and the new positives
/// are merged over the existing ones in **one** `O(new + unique)` pass —
/// the base interaction log is not re-read. Same record format and
/// threshold semantics as [`read_edge_list`].
pub fn append_edge_list<P: AsRef<Path>>(
    base: &Dataset,
    path: P,
    sep: &str,
    rating_threshold: Option<f64>,
) -> Result<Dataset, SparseError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Io(format!("open {}: {e}", path.as_ref().display())))?;
    let mut builder = base.delta_builder();
    for_each_record(BufReader::new(file), sep, rating_threshold, |u, i| {
        builder.push(u, i)
    })?;
    builder.finish()
}

/// [`append_edge_list`] over an in-memory string — tests and doc examples.
pub fn append_edge_list_str(
    base: &Dataset,
    data: &str,
    sep: &str,
    rating_threshold: Option<f64>,
) -> Result<Dataset, SparseError> {
    let mut builder = base.delta_builder();
    for_each_record(BufReader::new(data.as_bytes()), sep, rating_threshold, {
        |u, i| builder.push(u, i)
    })?;
    builder.finish()
}

/// Reads the MovieLens `UserID::MovieID::Rating::Timestamp` format, keeping
/// ratings `>= threshold` as positive examples (paper convention: 3.0).
pub fn read_movielens<P: AsRef<Path>>(
    path: P,
    threshold: f64,
) -> Result<ParsedInteractions, SparseError> {
    read_edge_list(path, "::", Some(threshold))
}

/// Reads a directory of Netflix-prize per-movie files (`mv_*.txt`), each
/// starting with `movie_id:` followed by `customer,rating,date` lines.
/// Ratings `>= threshold` become positives. Streams each file through the
/// chunked builder; nothing holds the raw record list.
pub fn read_netflix_dir<P: AsRef<Path>>(
    dir: P,
    threshold: f64,
) -> Result<ParsedInteractions, SparseError> {
    let mut users = Compactor::new();
    let mut items = Compactor::new();
    let mut staged = StreamingTriplets::with_chunk_capacity(READER_CHUNK);
    let mut dropped = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(dir.as_ref())
        .map_err(|e| SparseError::Io(format!("read dir {}: {e}", dir.as_ref().display())))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "txt").unwrap_or(false))
        .collect();
    entries.sort();
    for path in entries {
        let file = std::fs::File::open(&path)
            .map_err(|e| SparseError::Io(format!("open {}: {e}", path.display())))?;
        let mut movie: Option<u64> = None;
        for line in BufReader::new(file).lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(stripped) = line.strip_suffix(':') {
                movie = Some(stripped.parse().map_err(|e| {
                    SparseError::Io(format!("{}: bad movie id: {e}", path.display()))
                })?);
                continue;
            }
            let movie = movie.ok_or_else(|| {
                SparseError::Io(format!("{}: rating before movie header", path.display()))
            })?;
            let mut fields = line.split(',');
            let customer: u64 = fields
                .next()
                .ok_or_else(|| SparseError::Io("missing customer".into()))?
                .parse()
                .map_err(|e| SparseError::Io(format!("bad customer id: {e}")))?;
            let rating: f64 = fields
                .next()
                .ok_or_else(|| SparseError::Io("missing rating".into()))?
                .parse()
                .map_err(|e| SparseError::Io(format!("bad rating: {e}")))?;
            if rating >= threshold {
                staged.push(users.get(customer) as usize, items.get(movie) as usize)?;
            } else {
                dropped += 1;
            }
        }
    }
    let matrix = staged.finish(users.order.len(), items.order.len())?;
    Ok(ParsedInteractions {
        matrix,
        ids: IdMaps::from_compactors(users, items),
        dropped_below_threshold: dropped,
    })
}

/// Writes a matrix as a tab-separated edge list (`user\titem`), with internal
/// dense indices. Inverse of [`read_edge_list`] with no rating column.
pub fn write_edge_list<W: Write>(w: &mut W, r: &CsrMatrix) -> Result<(), SparseError> {
    let mut buf = std::io::BufWriter::new(w);
    for (u, i) in r.iter_nnz() {
        writeln!(buf, "{u}\t{i}")?;
    }
    buf.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip_via_string() {
        let data = "0\t2\n1\t0\n# comment line\n\n1\t2\n";
        let parsed = read_edge_list_str(data, "\t", None).unwrap();
        let (m, ids) = parsed.into_matrix();
        assert_eq!(m.nnz(), 3);
        assert_eq!(ids.users(), &[0, 1]);
        assert_eq!(ids.items(), &[2, 0]);
        // internal indices are densified: external item 2 -> 0, item 0 -> 1
        assert!(m.contains(0, 0));
        assert!(m.contains(1, 1));
        assert!(m.contains(1, 0));
    }

    #[test]
    fn rating_threshold_filters() {
        let data = "1,10,4\n1,11,2\n2,10,3\n2,12,5\n";
        let parsed = read_edge_list_str(data, ",", Some(3.0)).unwrap();
        assert_eq!(parsed.dropped_below_threshold, 1);
        let (m, ids) = parsed.into_matrix();
        assert_eq!(m.nnz(), 3);
        assert_eq!(ids.n_users(), 2);
        assert_eq!(ids.n_items(), 2, "item 11 never becomes positive");
    }

    #[test]
    fn movielens_format() {
        let dir = std::env::temp_dir().join("ocular_sparse_ml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ratings.dat");
        std::fs::write(
            &path,
            "1::1193::5::978300760\n1::661::3::978302109\n2::1193::1::978298413\n",
        )
        .unwrap();
        let parsed = read_movielens(&path, 3.0).unwrap();
        assert_eq!(parsed.dropped_below_threshold, 1);
        let (m, ids) = parsed.into_matrix();
        assert_eq!(m.nnz(), 2);
        assert_eq!(ids.users(), &[1]);
        assert_eq!(ids.items(), &[1193, 661]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn netflix_format() {
        let dir = std::env::temp_dir().join("ocular_sparse_nf_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("mv_0000001.txt"),
            "1:\n1488844,3,2005-09-06\n822109,5,2005-05-13\n885013,1,2005-10-19\n",
        )
        .unwrap();
        std::fs::write(dir.join("mv_0000002.txt"), "2:\n1488844,4,2005-09-06\n").unwrap();
        let parsed = read_netflix_dir(&dir, 3.0).unwrap();
        assert_eq!(parsed.dropped_below_threshold, 1);
        let (m, ids) = parsed.into_matrix();
        assert_eq!(m.nnz(), 3);
        assert_eq!(ids.items(), &[1, 2]);
        // customer 1488844 liked both movies
        let u = ids.user_index(1488844).unwrap();
        assert_eq!(m.row_nnz(u), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_then_read() {
        let m = CsrMatrix::from_pairs(3, 3, &[(0, 1), (2, 0), (2, 2)]).unwrap();
        let mut buf: Vec<u8> = Vec::new();
        write_edge_list(&mut buf, &m).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = read_edge_list_str(&text, "\t", None).unwrap();
        let (back, _) = parsed.into_matrix();
        assert_eq!(back.nnz(), m.nnz());
    }

    #[test]
    fn malformed_lines_error() {
        assert!(read_edge_list_str("abc\t1\n", "\t", None).is_err());
        assert!(read_edge_list_str("1\n", "\t", None).is_err());
        assert!(read_edge_list_str("1,2,notarating\n", ",", Some(3.0)).is_err());
    }

    #[test]
    fn line_endings_comments_and_line_numbers() {
        // CRLF endings, a comment, blank lines and no newline at the end
        let data = "1\t2\r\n# note\r\n\r\n\n3\t4\r\n 5\t6";
        let (m, ids) = read_edge_list_str(data, "\t", None).unwrap().into_matrix();
        assert_eq!(m.nnz(), 3);
        assert_eq!(ids.users(), &[1, 3, 5]);
        assert_eq!(ids.items(), &[2, 4, 6]);
        // a bad id on line 3 names line 3, with or without blank lines
        for data in [
            "1\t2\n3\t4\nx\t5\n",
            "1\t2\n\nx\t5",
            "# a\r\n1\t2\r\nx\t5\r\n",
        ] {
            match read_edge_list_str(data, "\t", None) {
                Err(SparseError::Io(msg)) => {
                    assert!(msg.starts_with("line 3: bad user id"), "{msg}")
                }
                other => panic!("expected a line-3 error, got {other:?}"),
            }
        }
        // invalid UTF-8 is a typed I/O error, not a panic or a skipped line
        let bytes: &[u8] = b"1\t2\n\xff\t3\n";
        match parse_records(bytes, "\t", None, READER_CHUNK) {
            Err(SparseError::Io(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn missing_rating_column_treated_positive() {
        let parsed = read_edge_list_str("1,2\n3,4\n", ",", Some(3.0)).unwrap();
        assert_eq!(parsed.dropped_below_threshold, 0);
        let (m, _) = parsed.into_matrix();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn into_dataset_carries_id_maps() {
        let data = "1000\t77\n1000\t78\n2000\t77\n";
        let d = read_edge_list_str(data, "\t", None).unwrap().into_dataset();
        assert_eq!(d.n_users(), 2);
        assert_eq!(d.n_items(), 2);
        assert_eq!(d.user_index(2000), Some(1));
        assert_eq!(d.item_index(78), Some(1));
        assert_eq!(d.external_user(0), 1000);
        assert_eq!(d.external_item(0), 77);
        assert!(d.contains(d.user_index(2000).unwrap(), d.item_index(77).unwrap()));
    }

    #[test]
    fn chunked_reader_matches_default() {
        let mut data = String::new();
        for k in 0..500u64 {
            // duplicate-heavy stream with sparse external ids
            data.push_str(&format!("{}\t{}\n", 10 + (k % 40) * 3, 7 + (k % 23) * 5));
        }
        let full = read_edge_list_str(&data, "\t", None).unwrap();
        for cap in [1usize, 2, 7, 64] {
            let chunked = read_edge_list_str_chunked(&data, "\t", None, cap).unwrap();
            assert_eq!(chunked.matrix, full.matrix, "chunk capacity {cap}");
            assert_eq!(chunked.ids, full.ids);
        }
    }

    #[test]
    fn id_maps_reject_duplicates() {
        assert!(IdMaps::new(vec![1, 2, 1], vec![]).is_err());
        assert!(IdMaps::new(vec![], vec![5, 5]).is_err());
        let ids = IdMaps::new(vec![3, 1], vec![2]).unwrap();
        assert_eq!(ids.user_index(1), Some(1));
        assert_eq!(ids.external_user(0), Some(3));
        assert_eq!(ids.external_user(9), None);
    }

    #[test]
    fn raw_tables_round_trip_lookups() {
        let users: Vec<u64> = (0..500).map(|u| 1_000 + 7 * u).collect();
        let items: Vec<u64> = (0..200).map(|i| 900 + 3 * i).collect();
        let ids = IdMaps::new(users.clone(), items.clone()).unwrap();
        let (ut, it) = ids.raw_tables();
        // deterministic: building twice gives identical bytes
        let (ut2, _) = ids.raw_tables();
        assert_eq!(ut.keys(), ut2.keys());
        assert_eq!(ut.vals(), ut2.vals());
        let raw = IdMaps::from_raw(users.clone().into(), items.clone().into(), ut, it).unwrap();
        assert_eq!(raw, ids);
        for (u, &external) in users.iter().enumerate() {
            assert_eq!(raw.user_index(external), Some(u));
        }
        for (i, &external) in items.iter().enumerate() {
            assert_eq!(raw.item_index(external), Some(i));
        }
        assert_eq!(raw.user_index(999), None);
        assert_eq!(raw.item_index(2), None);
        // built in memory — nothing borrows a region
        assert!(!raw.is_shared());
    }

    #[test]
    fn raw_table_empty_axis() {
        let ids = IdMaps::new(vec![], vec![]).unwrap();
        let (ut, it) = ids.raw_tables();
        assert!(ut.keys().is_empty());
        let raw = IdMaps::from_raw(U64Buf::default(), U64Buf::default(), ut, it).unwrap();
        assert_eq!(raw.user_index(0), None);
    }

    #[test]
    fn corrupt_raw_tables_rejected() {
        let users: Vec<u64> = vec![10, 20, 30];
        let items: Vec<u64> = vec![5];
        let ids = IdMaps::new(users.clone(), items.clone()).unwrap();
        let (ut, it) = ids.raw_tables();

        // a stray extra entry (occupancy mismatch)
        let mut keys = ut.keys().to_vec();
        let mut vals = ut.vals().to_vec();
        let empty_slot = vals.iter().position(|&v| v == u32::MAX).unwrap();
        keys[empty_slot] = 77;
        vals[empty_slot] = 0;
        let tampered = RawIdTable::from_parts(keys.into(), vals.into()).unwrap();
        assert!(IdMaps::from_raw(
            users.clone().into(),
            items.clone().into(),
            tampered,
            it.clone()
        )
        .is_err());

        // a flipped value (wrong index for an id)
        let keys = ut.keys().to_vec();
        let mut vals = ut.vals().to_vec();
        let full_slot = vals.iter().position(|&v| v != u32::MAX).unwrap();
        vals[full_slot] = (vals[full_slot] + 1) % 3;
        let tampered = RawIdTable::from_parts(keys.into(), vals.into()).unwrap();
        assert!(IdMaps::from_raw(
            users.clone().into(),
            items.clone().into(),
            tampered,
            it.clone()
        )
        .is_err());

        // non-power-of-two capacity
        let mut keys = ut.keys().to_vec();
        let mut vals = ut.vals().to_vec();
        keys.push(0);
        vals.push(u32::MAX);
        assert!(RawIdTable::from_parts(keys.into(), vals.into()).is_err());

        // capacity too small to terminate probes
        let tiny = RawIdTable::from_parts(vec![10, 20].into(), vec![0, 1].into()).unwrap();
        assert!(IdMaps::from_raw(vec![10, 20].into(), items.into(), tiny, it).is_err());

        // duplicate external ids cannot round-trip
        let dup_order: Vec<u64> = vec![10, 10];
        let table = RawIdTable::build(&dup_order);
        assert!(IdMaps::from_raw(
            dup_order.into(),
            vec![5].into(),
            table,
            RawIdTable::build(&[5])
        )
        .is_err());
    }
}
