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
//! recommendations back to external ids. Each axis of the maps is one
//! [`RawIdTable`] from ingest to request: the readers grow it as new ids
//! appear, the v3 snapshot writes its arrays as they are, and a loaded
//! snapshot probes them in place. Parsing is **streaming**: records
//! flow one at a time into a [`crate::StreamingTriplets`] chunked builder,
//! so a repeat-heavy interaction log never materialises its raw record
//! list — peak memory is `O(unique pairs + entities + chunk)`.

use crate::{CsrMatrix, Dataset, SparseError, StreamingTriplets};
use ocular_bytes::{fnv1a64_key, U32Buf, U64Buf};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Sentinel marking an empty slot in a [`RawIdTable`] (an axis holds fewer
/// than `u32::MAX` ids, enforced by [`RawIdTable`]'s one insert routine and
/// by [`IdMaps::from_raw`], so the sentinel can never collide with a real
/// index).
const RAW_EMPTY: u32 = u32::MAX;

/// A flat open-addressed hash table mapping external ids to internal
/// indices — the one form of one axis of an [`IdMaps`] lookup, in memory,
/// on disk and mapped.
///
/// Layout: two parallel arrays of power-of-two capacity, `keys: u64[cap]`
/// and `vals: u32[cap]`, with `vals[slot] == u32::MAX` marking empty
/// slots. A key hashes to `fnv1a64(key_le_bytes) & (cap - 1)` and probes
/// linearly. The layout is part of the v3 snapshot contract: ingestion
/// grows it deterministically, the writer copies its arrays out, and the
/// serving tier probes it **in place**, borrowed from the snapshot's byte
/// region, so neither a save nor engine start-up builds a table.
#[derive(Debug, Clone, Default)]
pub struct RawIdTable {
    keys: U64Buf,
    vals: U32Buf,
}

impl RawIdTable {
    /// Builds the table for an external-id order array (`order[ix]` =
    /// external id of internal index `ix`), inserting in index order.
    /// Deterministic: the same order array always produces the same bytes.
    /// Capacity is the smallest power of two holding the entries at ≤ 50%
    /// load (so probes always terminate), and zero for no entries. Every
    /// id is inserted, so a duplicate makes a table [`IdMaps::from_raw`]
    /// rejects.
    ///
    /// Errors if `order` holds `u32::MAX` or more entries.
    pub fn build(order: &[u64]) -> Result<RawIdTable, SparseError> {
        let cap = if order.is_empty() {
            0
        } else {
            (order.len() * 2).next_power_of_two()
        };
        RawIdTable::with_entries(order, cap)
    }

    /// The table of `order` at capacity `cap`, each id inserted in index
    /// order.
    fn with_entries(order: &[u64], cap: usize) -> Result<RawIdTable, SparseError> {
        let mut table = RawIdTable {
            keys: vec![0u64; cap].into(),
            vals: vec![RAW_EMPTY; cap].into(),
        };
        for (ix, &external) in order.iter().enumerate() {
            table.insert(external, ix)?;
        }
        Ok(table)
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

    /// Puts `key → ix` in the first empty slot of its probe path — the one
    /// insert routine, and where the axis bound is enforced: an error when
    /// `ix` would make the table hold `u32::MAX` entries or more. It does
    /// not look for `key` first (a caller that must not repeat a key
    /// probes before inserting), and the table must have a free slot.
    fn insert(&mut self, key: u64, ix: usize) -> Result<(), SparseError> {
        if ix + 1 >= RAW_EMPTY as usize {
            return Err(SparseError::Io(format!(
                "id map exceeds u32 addressing ({} entries)",
                ix + 1
            )));
        }
        let mask = self.keys.len() - 1;
        let (keys, vals) = (self.keys.make_owned(), self.vals.make_owned());
        let mut slot = fnv1a64_key(key) as usize & mask;
        while vals[slot] != RAW_EMPTY {
            slot = (slot + 1) & mask;
        }
        keys[slot] = key;
        vals[slot] = ix as u32;
        Ok(())
    }

    /// Looks up a key by bounded linear probing — the one probe routine.
    /// O(1) expected.
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

/// One axis of an [`IdMaps`]: the external ids in internal order and the
/// table that finds their indices. Ingestion grows it id by id, and at
/// every point the table is `RawIdTable::build(order)` byte for byte.
#[derive(Debug, Clone, Default)]
struct Compactor {
    order: U64Buf,
    table: RawIdTable,
}

impl Compactor {
    /// An axis holding exactly `order`, rejecting a repeated id.
    fn of_unique(order: Vec<u64>, what: &str) -> Result<Compactor, SparseError> {
        let table = RawIdTable::build(&order)?;
        // a repeat sits behind its first occurrence, which the probe finds
        if let Some((_, external)) = order
            .iter()
            .enumerate()
            .find(|&(ix, &external)| table.probe(external) != Some(ix))
        {
            return Err(SparseError::Io(format!(
                "duplicate external {what} id {external} in id map"
            )));
        }
        Ok(Compactor {
            order: order.into(),
            table,
        })
    }

    /// The internal index of `external`, giving a never-seen id the next
    /// index (first-appearance order). When the new id takes the load past
    /// half the capacity, the table doubles first and re-inserts the
    /// existing ids in index order — exactly what `build` would lay out.
    fn get(&mut self, external: u64) -> Result<usize, SparseError> {
        if let Some(ix) = self.table.probe(external) {
            return Ok(ix);
        }
        let ix = self.order.len();
        if 2 * (ix + 1) > self.table.keys.len() {
            let cap = (2 * (ix + 1)).next_power_of_two();
            self.table = RawIdTable::with_entries(&self.order, cap)?;
        }
        self.table.insert(external, ix)?;
        self.order.make_owned().push(external);
        Ok(ix)
    }

    fn is_shared(&self) -> bool {
        self.order.is_shared() && self.table.is_shared()
    }
}

/// Mapping between external (file) ids and the dense internal indices,
/// with O(1) lookups in both directions.
///
/// Each axis is an order array ([`U64Buf`]) and a [`RawIdTable`], so an
/// `IdMaps` loaded from a binary snapshot borrows everything from the
/// snapshot's (possibly memory-mapped) byte region — engine start-up
/// allocates no id tables — and one built by ingestion holds the very
/// arrays a save writes. Equality compares the order arrays (the tables
/// are derived).
#[derive(Debug, Clone)]
pub struct IdMaps {
    users: Compactor,
    items: Compactor,
}

impl PartialEq for IdMaps {
    fn eq(&self, other: &Self) -> bool {
        self.users() == other.users() && self.items() == other.items()
    }
}

impl Eq for IdMaps {}

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
        Ok(IdMaps {
            users: Compactor::of_unique(users, "user")?,
            items: Compactor::of_unique(items, "item")?,
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
            users: Compactor {
                order: users,
                table: user_table,
            },
            items: Compactor {
                order: items,
                table: item_table,
            },
        })
    }

    /// The lookup tables of both axes — what the v3 snapshot writer
    /// serialises, as they are.
    pub fn raw_tables(&self) -> (&RawIdTable, &RawIdTable) {
        (&self.users.table, &self.items.table)
    }

    /// Whether both order arrays and both lookup tables borrow a shared
    /// byte region (the zero-copy snapshot load path) rather than owning
    /// heap allocations.
    pub fn is_shared(&self) -> bool {
        self.users.is_shared() && self.items.is_shared()
    }

    /// The internal indices of an external `(user, item)` record, giving
    /// never-seen ids the next index on their axis — ingestion's one
    /// compaction step, shared by the readers and the delta-merge path.
    pub(crate) fn compact(&mut self, user: u64, item: u64) -> Result<(usize, usize), SparseError> {
        Ok((self.users.get(user)?, self.items.get(item)?))
    }

    /// External user ids in internal order.
    pub fn users(&self) -> &[u64] {
        &self.users.order
    }

    /// External item ids in internal order.
    pub fn items(&self) -> &[u64] {
        &self.items.order
    }

    /// Number of mapped users.
    pub fn n_users(&self) -> usize {
        self.users.order.len()
    }

    /// Number of mapped items.
    pub fn n_items(&self) -> usize {
        self.items.order.len()
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
        self.users.table.probe(external)
    }

    /// Internal index of an external item id, if seen. O(1).
    pub fn item_index(&self, external: u64) -> Option<usize> {
        self.items.table.probe(external)
    }

    /// External id of internal user `u`, if in bounds.
    pub fn external_user(&self, u: usize) -> Option<u64> {
        self.users.order.get(u).copied()
    }

    /// External id of internal item `i`, if in bounds.
    pub fn external_item(&self, i: usize) -> Option<u64> {
        self.items.order.get(i).copied()
    }
}

/// The tail every reader shares: compact each record's ids into the
/// growing [`IdMaps`] and stage the pair in a chunked builder.
struct Ingest {
    ids: IdMaps,
    staged: StreamingTriplets,
}

impl Ingest {
    fn new(chunk_capacity: usize) -> Ingest {
        Ingest {
            ids: IdMaps {
                users: Compactor::default(),
                items: Compactor::default(),
            },
            staged: StreamingTriplets::with_chunk_capacity(chunk_capacity),
        }
    }

    fn push(&mut self, user: u64, item: u64) -> Result<(), SparseError> {
        let (r, c) = self.ids.compact(user, item)?;
        self.staged.push(r, c)
    }

    fn finish(self, dropped_below_threshold: usize) -> Result<ParsedInteractions, SparseError> {
        let matrix = self.staged.finish(self.ids.n_users(), self.ids.n_items())?;
        Ok(ParsedInteractions {
            matrix,
            ids: self.ids,
            dropped_below_threshold,
        })
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
    let mut ingest = Ingest::new(chunk_capacity);
    let dropped = for_each_record(reader, sep, rating_threshold, |u, i| ingest.push(u, i))?;
    ingest.finish(dropped)
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
/// chunked builder; nothing holds the raw record list. A malformed line is
/// an error naming its file and line.
pub fn read_netflix_dir<P: AsRef<Path>>(
    dir: P,
    threshold: f64,
) -> Result<ParsedInteractions, SparseError> {
    let mut entries: Vec<_> = std::fs::read_dir(dir.as_ref())
        .map_err(|e| SparseError::Io(format!("read dir {}: {e}", dir.as_ref().display())))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "txt").unwrap_or(false))
        .collect();
    entries.sort();
    let mut ingest = Ingest::new(READER_CHUNK);
    let mut dropped = 0usize;
    // one line buffer for every file, not a `String` per record
    let mut buf = String::new();
    for path in entries {
        let file = std::fs::File::open(&path)
            .map_err(|e| SparseError::Io(format!("open {}: {e}", path.display())))?;
        let mut reader = BufReader::new(file);
        let mut movie: Option<u64> = None;
        for lineno in 1.. {
            let err = |what: String| {
                SparseError::Io(format!("{}: line {lineno}: {what}", path.display()))
            };
            buf.clear();
            if reader.read_line(&mut buf).map_err(|e| err(e.to_string()))? == 0 {
                break;
            }
            let line = buf.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(stripped) = line.strip_suffix(':') {
                movie = Some(
                    stripped
                        .parse()
                        .map_err(|e| err(format!("bad movie id: {e}")))?,
                );
                continue;
            }
            let movie = movie.ok_or_else(|| err("rating before movie header".into()))?;
            let mut fields = line.split(',');
            let customer: u64 = fields
                .next()
                .ok_or_else(|| err("missing customer".into()))?
                .parse()
                .map_err(|e| err(format!("bad customer id: {e}")))?;
            let rating: f64 = fields
                .next()
                .ok_or_else(|| err("missing rating".into()))?
                .parse()
                .map_err(|e| err(format!("bad rating: {e}")))?;
            if rating >= threshold {
                ingest.push(customer, movie)?;
            } else {
                dropped += 1;
            }
        }
    }
    ingest.finish(dropped)
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
    fn netflix_errors_name_file_and_line() {
        let dir = std::env::temp_dir().join(format!("ocular_sparse_nf_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("mv_0000001.txt"), "1:\n7,4,2005-09-06\n").unwrap();
        let second = dir.join("mv_0000002.txt");
        std::fs::write(&second, "2:\n7,4,2005-09-06\n8,four,2005-09-06\n").unwrap();
        match read_netflix_dir(&dir, 3.0) {
            Err(SparseError::Io(msg)) => assert!(
                msg.starts_with(&format!("{}: line 3: bad rating", second.display())),
                "{msg}"
            ),
            other => panic!("expected a line-3 error, got {other:?}"),
        }
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
        // the tables are the layout `build` lays out for the order arrays
        let built = RawIdTable::build(&users).unwrap();
        assert_eq!(ut.keys(), built.keys());
        assert_eq!(ut.vals(), built.vals());
        let raw = IdMaps::from_raw(
            users.clone().into(),
            items.clone().into(),
            ut.clone(),
            it.clone(),
        )
        .unwrap();
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
        let raw =
            IdMaps::from_raw(U64Buf::default(), U64Buf::default(), ut.clone(), it.clone()).unwrap();
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
        assert!(IdMaps::from_raw(vec![10, 20].into(), items.into(), tiny, it.clone()).is_err());

        // duplicate external ids cannot round-trip
        let dup_order: Vec<u64> = vec![10, 10];
        let table = RawIdTable::build(&dup_order).unwrap();
        assert!(IdMaps::from_raw(
            dup_order.into(),
            vec![5].into(),
            table,
            RawIdTable::build(&[5]).unwrap()
        )
        .is_err());
    }
}
