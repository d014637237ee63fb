//! Versioned serving snapshots — kind-tagged, polymorphic over model
//! kinds, in two formats.
//!
//! A snapshot is what training ships to the serving tier. Two on-disk
//! representations carry identical bit content:
//!
//! * the **v3 binary container** ([`ocular_api::binary`]) — magic +
//!   kind tag + 8-aligned little-endian sections + trailing checksum.
//!   [`AnySnapshot::load_path`] memory-maps it and the loaded
//!   `FactorModel` / [`ClusterIndex`] / [`IdMaps`] **borrow** their
//!   large buffers from the mapping ([`AnySnapshot::load_v3`]), so
//!   engine start-up allocates nothing per payload and N serve
//!   processes share one page cache;
//! * the **v2 text envelope** below — human-inspectable, and the format
//!   every pre-v3 snapshot is stored in.
//!
//! [`AnySnapshot::load_path`] sniffs the magic bytes, so both load
//! transparently. The **v2** envelope tags the payload with its model
//! kind, so one serving binary loads and serves *any* model in the
//! workspace zoo:
//!
//! ```text
//! ocular-snapshot v2 <kind>
//! <kind-specific model payload, self-delimiting>
//! [cocluster-index v1 <n_clusters> <n_items> <rel>      (kind = ocular only)
//!  <n_clusters lines: "<len> <ascending item ids>">]
//! [id-maps v1 <n_users> <n_items>                       (optional)
//!  <n_users external user ids, one line>
//!  <n_items external item ids, one line>]
//! ocular-snapshot end
//! ```
//!
//! The optional `id-maps` section carries the training
//! [`Dataset`](ocular_sparse::Dataset)'s external↔internal id tables, so
//! the serving tier can answer requests addressed by external ids without
//! re-deriving the compaction from the raw interaction file — the
//! snapshot and the dataset agree on the id space by construction. Write
//! it with [`AnySnapshot::save_with_ids`]; [`AnySnapshot::load_with_ids`]
//! returns it alongside the model. Snapshots without the section (all
//! pre-existing ones) still load.
//!
//! For `kind = ocular` the payload is the `ocular-model v1` text format
//! plus the co-cluster candidate-generation index (built at snapshot time
//! so an engine can come up without re-deriving the inverted lists). For
//! the baselines the payload is each model's
//! [`SnapshotModel`] format (`wals-model v1`, `bpr-model v1`, …).
//!
//! **v1 snapshots still load**: the v1 envelope (`ocular-snapshot v1`) is
//! the OCuLaR-only predecessor with a byte-identical body, and both
//! [`Snapshot::load`] and [`AnySnapshot::load`] accept it.
//!
//! The trailing sentinel makes truncation detectable: a snapshot cut off
//! at any point — mid-factors, mid-index, or missing the last line — is
//! rejected instead of mis-loading.

use crate::index::{ClusterIndex, IndexConfig};
use ocular_api::binary::{is_v3, SectionReader, SectionWriter, SnapshotMeta};
use ocular_api::textio;
use ocular_api::{Model, OcularError, SnapshotModel};
use ocular_baselines::{Bpr, ItemKnn, Popularity, UserKnn, Wals};
use ocular_bytes::{shard_of_key, ModelBytes};
use ocular_core::FactorModel;
use ocular_linalg::{Matrix, QuantDtype, QuantizedFactors};
use ocular_sparse::{IdMaps, RawIdTable};
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

/// Magic first line of the legacy (OCuLaR-only) snapshot envelope.
const V1_HEADER: &str = "ocular-snapshot v1";
/// Prefix of the kind-tagged v2 envelope header.
const V2_PREFIX: &str = "ocular-snapshot v2";
/// Magic line opening the index section.
const INDEX_HEADER: &str = "cocluster-index v1";
/// Magic line opening the optional external-id-maps section.
const IDS_HEADER: &str = "id-maps v1";
/// Magic line opening the optional live-refresh metadata section
/// (generation + source-data watermark; see
/// [`ocular_api::binary::SnapshotMeta`]).
const META_HEADER: &str = "snapshot-meta v1";
/// Trailing sentinel proving the snapshot was written to completion.
const FOOTER: &str = "ocular-snapshot end";
/// The kind tag of OCuLaR snapshots (canonically defined on
/// [`FactorModel::KIND`], mirrored here for envelope dispatch).
pub const OCULAR_KIND: &str = FactorModel::KIND;

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// [`textio::read_line`] adapted to the `io::Result` the text-envelope
/// loaders still speak.
fn read_line<R: BufRead + ?Sized>(mut r: &mut R) -> std::io::Result<String> {
    textio::read_line(&mut r).map_err(|e| bad(e.to_string()))
}

/// The on-disk representation a snapshot is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// The line-oriented v2 envelope — human-inspectable, and what every
    /// pre-v3 tool reads.
    Text,
    /// The `ocular-snapshot v3` binary container — mmap-able, checksummed,
    /// loaded zero-copy by the serving tier.
    #[default]
    Binary,
}

/// An OCuLaR serving snapshot: the fitted factor model plus its
/// candidate-generation index.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The fitted factor model.
    pub model: FactorModel,
    /// Per-cluster inverted item lists built at snapshot time.
    pub index: ClusterIndex,
    /// Optional quantized item factors (`f32` or per-row affine `int8`)
    /// for the serving fast path. Produced at save time by
    /// [`Snapshot::with_quantization`]; carried only by the v3 binary
    /// container — the text envelope drops it (the f64 master is always
    /// present, so a text round-trip loses nothing but the precomputed
    /// narrow copy).
    pub quant: Option<QuantizedFactors>,
}

impl Snapshot {
    /// Builds a snapshot from a fitted model, deriving the index with the
    /// given build parameters (see [`ClusterIndex::build`]).
    pub fn build(model: FactorModel, cfg: &IndexConfig) -> Self {
        let index = ClusterIndex::build(&model, cfg);
        Snapshot {
            model,
            index,
            quant: None,
        }
    }

    /// Attaches a quantized copy of the item factors, derived from the
    /// f64 master. Serving engines built from this snapshot score the
    /// catalog through the matching blocked kernel
    /// ([`QuantizedFactors::score_block`]) instead of the f64 path.
    pub fn with_quantization(mut self, dtype: QuantDtype) -> Self {
        self.quant = Some(QuantizedFactors::quantize(&self.model.item_factors, dtype));
        self
    }

    /// Serialises the snapshot (v2 envelope: model + index + sentinel) to
    /// a writer. Use [`AnySnapshot::save_with_ids`] to also embed the
    /// dataset's external-id tables.
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(w);
        writeln!(w, "{V2_PREFIX} {OCULAR_KIND}")?;
        self.write_payload(&mut w)?;
        writeln!(w, "{FOOTER}")?;
        w.flush()
    }

    /// Writes the kind-specific payload (model + index), without envelope
    /// header or footer.
    fn write_payload<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.model.save(w)?;
        writeln!(
            w,
            "{INDEX_HEADER} {} {} {:e}",
            self.index.n_clusters(),
            self.index.n_items(),
            self.index.rel()
        )?;
        for c in 0..self.index.n_clusters() {
            let list = self.index.cluster_items(c);
            write!(w, "{}", list.len())?;
            for &i in list {
                write!(w, " {i}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Loads an OCuLaR snapshot, accepting both the v1 envelope and a v2
    /// envelope tagged `ocular`, and validating the envelope, the index
    /// section shape, bounds, ordering, and the trailing sentinel. Any
    /// corruption or truncation is an `InvalidData` error.
    pub fn load<R: BufRead>(r: &mut R) -> std::io::Result<Snapshot> {
        let header = read_line(r)?;
        if header != V1_HEADER && header != format!("{V2_PREFIX} {OCULAR_KIND}") {
            return Err(bad(format!(
                "bad snapshot header, expected `{V1_HEADER}` or `{V2_PREFIX} {OCULAR_KIND}`"
            )));
        }
        Self::load_body(r)
    }

    /// Parses the envelope body after the header line: model, index, an
    /// optional (discarded) id-maps section, footer.
    fn load_body<R: BufRead>(r: &mut R) -> std::io::Result<Snapshot> {
        let snapshot = Self::load_payload(r)?;
        read_ids_then_footer(r).map_err(|e| bad(e.to_string()))?;
        Ok(snapshot)
    }

    /// Parses the kind-specific payload: model + index, stopping before
    /// any trailing section.
    fn load_payload<R: BufRead>(r: &mut R) -> std::io::Result<Snapshot> {
        let model = FactorModel::load(r)?;

        let header = read_line(r)?;
        let rest = header
            .strip_prefix(INDEX_HEADER)
            .ok_or_else(|| bad(format!("bad index header, expected `{INDEX_HEADER} …`")))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(bad("index header needs n_clusters n_items rel".into()));
        }
        let n_clusters: usize = fields[0]
            .parse()
            .map_err(|_| bad("bad index n_clusters".into()))?;
        let n_items: usize = fields[1]
            .parse()
            .map_err(|_| bad("bad index n_items".into()))?;
        let rel: f64 = fields[2]
            .parse()
            .map_err(|_| bad("bad index rel cutoff".into()))?;
        if n_clusters != model.n_clusters() {
            return Err(bad(format!(
                "index has {n_clusters} clusters but model has {}",
                model.n_clusters()
            )));
        }
        if n_items != model.n_items() {
            return Err(bad(format!(
                "index covers {n_items} items but model has {}",
                model.n_items()
            )));
        }

        let mut items = Vec::with_capacity(n_clusters);
        for c in 0..n_clusters {
            let line = read_line(r)?;
            let mut fields = line.split_whitespace();
            let len: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad(format!("cluster {c}: bad list length")))?;
            let list: Vec<u32> = fields
                .map(|f| f.parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad(format!("cluster {c}: bad item id")))?;
            if list.len() != len {
                return Err(bad(format!(
                    "cluster {c}: declared {len} items, found {}",
                    list.len()
                )));
            }
            items.push(list);
        }
        let index =
            ClusterIndex::from_parts(rel, n_items, items).map_err(|e| bad(e.to_string()))?;
        Ok(Snapshot {
            model,
            index,
            quant: None,
        })
    }
}

/// Writes the optional external-id-maps section (header + one line per
/// axis).
fn write_ids_section<W: Write>(w: &mut W, ids: &IdMaps) -> std::io::Result<()> {
    writeln!(w, "{IDS_HEADER} {} {}", ids.n_users(), ids.n_items())?;
    for axis in [ids.users(), ids.items()] {
        let mut first = true;
        for &id in axis {
            if first {
                write!(w, "{id}")?;
                first = false;
            } else {
                write!(w, " {id}")?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads one line of exactly `n` external ids.
fn read_ids_line<R: BufRead + ?Sized>(
    r: &mut R,
    n: usize,
    what: &str,
) -> Result<Vec<u64>, OcularError> {
    let line = read_line(r)?;
    let ids: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| OcularError::Corrupt(format!("id-maps: bad {what} id")))?;
    if ids.len() != n {
        return Err(OcularError::Corrupt(format!(
            "id-maps: declared {n} {what} ids, found {}",
            ids.len()
        )));
    }
    Ok(ids)
}

/// Writes the optional live-refresh metadata section (one line).
fn write_meta_section<W: Write>(w: &mut W, meta: &SnapshotMeta) -> std::io::Result<()> {
    writeln!(
        w,
        "{META_HEADER} {} {} {} {}",
        meta.generation, meta.n_users, meta.n_items, meta.nnz
    )
}

/// After the payload: parses the optional trailing sections in order —
/// `snapshot-meta v1`, then `id-maps v1` — then the trailing sentinel.
fn read_tail_sections<R: BufRead + ?Sized>(
    r: &mut R,
) -> Result<(Option<SnapshotMeta>, Option<IdMaps>), OcularError> {
    let mut line = read_line(r)?;
    let mut meta = None;
    if let Some(rest) = line
        .strip_prefix(META_HEADER)
        .and_then(|rest| rest.strip_prefix(' '))
    {
        let fields: Vec<u64> = rest
            .split_whitespace()
            .map(|f| f.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| OcularError::Corrupt("snapshot-meta: bad value".into()))?;
        let [generation, n_users, n_items, nnz] = fields[..] else {
            return Err(OcularError::Corrupt(
                "snapshot-meta header needs generation n_users n_items nnz".into(),
            ));
        };
        meta = Some(SnapshotMeta {
            generation,
            n_users,
            n_items,
            nnz,
        });
        line = read_line(r)?;
    }
    if line == FOOTER {
        return Ok((meta, None));
    }
    // the separator is part of the required prefix (same convention as
    // the v2 envelope header), so `id-maps v10 …` is corruption, not a
    // v1 section with a mis-binned count
    let rest = line
        .strip_prefix(IDS_HEADER)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| {
            OcularError::Corrupt(format!(
                "expected `{META_HEADER} …`, `{IDS_HEADER} …` or `{FOOTER}`, got `{line}`"
            ))
        })?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() != 2 {
        return Err(OcularError::Corrupt(
            "id-maps header needs n_users n_items".into(),
        ));
    }
    let n_users: usize = fields[0]
        .parse()
        .map_err(|_| OcularError::Corrupt("bad id-maps n_users".into()))?;
    let n_items: usize = fields[1]
        .parse()
        .map_err(|_| OcularError::Corrupt("bad id-maps n_items".into()))?;
    let users = read_ids_line(r, n_users, "user")?;
    let items = read_ids_line(r, n_items, "item")?;
    let ids =
        IdMaps::new(users, items).map_err(|e| OcularError::Corrupt(format!("id-maps: {e}")))?;
    if read_line(r)? != FOOTER {
        return Err(OcularError::Corrupt(format!("missing `{FOOTER}` sentinel")));
    }
    Ok((meta, Some(ids)))
}

/// [`read_tail_sections`] for loaders that only need the id maps.
fn read_ids_then_footer<R: BufRead + ?Sized>(r: &mut R) -> Result<Option<IdMaps>, OcularError> {
    read_tail_sections(r).map(|(_, ids)| ids)
}

impl Snapshot {
    /// Writes the OCuLaR payload (model + candidate index) as v3 binary
    /// sections.
    fn write_sections(&self, w: &mut SectionWriter) -> Result<(), OcularError> {
        self.model.write_sections(w)?;
        w.put_f64s("idxrel", &[self.index.rel()]);
        w.put_u64s("idxptr", self.index.indptr());
        w.put_u32s("idxdat", self.index.item_data());
        // quantized item factors (64-byte-aligned sections, see
        // `put_pod64`) so loaders feed them straight into the blocked
        // kernels without copying
        if let Some(q) = &self.quant {
            match q.dtype() {
                QuantDtype::F32 => w.put_f32s("if32", q.f32_data()),
                QuantDtype::I8 => {
                    let (codes, scale, zero, qsum) = q.i8_parts();
                    w.put_i8s("ii8", codes);
                    w.put_f32s("i8scl", scale);
                    w.put_f32s("i8zp", zero);
                    w.put_f32s("i8sum", qsum);
                }
            }
        }
        Ok(())
    }

    /// Reads the payload written by [`Snapshot::write_sections`], with the
    /// factor matrices and index arrays **borrowed** from the reader's
    /// byte region.
    fn read_sections(r: &SectionReader) -> Result<Snapshot, OcularError> {
        let model = FactorModel::read_sections(r)?;
        let [rel] = r.f64_meta::<1>("idxrel")?;
        let index =
            ClusterIndex::from_csr(rel, model.n_items(), r.u64s("idxptr")?, r.u32s("idxdat")?)
                .map_err(OcularError::Corrupt)?;
        if index.n_clusters() != model.n_clusters() {
            return Err(OcularError::Corrupt(format!(
                "index has {} clusters but model has {}",
                index.n_clusters(),
                model.n_clusters()
            )));
        }
        let (rows, cols) = (model.n_items(), model.item_factors.cols());
        let quant = if r.has("if32") {
            Some(
                QuantizedFactors::from_parts_f32(rows, cols, r.f32s("if32")?)
                    .map_err(OcularError::Corrupt)?,
            )
        } else if r.has("ii8") {
            Some(
                QuantizedFactors::from_parts_i8(
                    rows,
                    cols,
                    r.i8s("ii8")?,
                    r.f32s("i8scl")?,
                    r.f32s("i8zp")?,
                    r.f32s("i8sum")?,
                )
                .map_err(OcularError::Corrupt)?,
            )
        } else {
            None
        };
        Ok(Snapshot {
            model,
            index,
            quant,
        })
    }
}

/// Writes the optional id-map sections: both external-id order arrays
/// plus both raw lookup tables, so the serving tier probes the tables in
/// place instead of rebuilding hash maps.
fn write_ids_sections(w: &mut SectionWriter, ids: &IdMaps) {
    w.put_u64s("uids", ids.users());
    w.put_u64s("iids", ids.items());
    let (ut, it) = ids.raw_tables();
    w.put_u64s("uhk", ut.keys());
    w.put_u32s("uhv", ut.vals());
    w.put_u64s("ihk", it.keys());
    w.put_u32s("ihv", it.vals());
}

/// Reads the id-map sections written by [`write_ids_sections`], if
/// present. The tables are validated in full by
/// [`IdMaps::from_raw`]; on success every array is borrowed from the
/// reader's byte region.
fn read_ids_sections(r: &SectionReader) -> Result<Option<IdMaps>, OcularError> {
    if !r.has("uids") {
        return Ok(None);
    }
    let to_corrupt = |e: ocular_sparse::SparseError| OcularError::Corrupt(e.to_string());
    let user_table = RawIdTable::from_parts(r.u64s("uhk")?, r.u32s("uhv")?).map_err(to_corrupt)?;
    let item_table = RawIdTable::from_parts(r.u64s("ihk")?, r.u32s("ihv")?).map_err(to_corrupt)?;
    IdMaps::from_raw(r.u64s("uids")?, r.u64s("iids")?, user_table, item_table)
        .map(Some)
        .map_err(to_corrupt)
}

/// A snapshot of *any* model kind — what the polymorphic serving path
/// loads. OCuLaR snapshots keep their candidate-generation index; every
/// other kind is a bare [`Model`] trait object.
// One per load; boxing the OCuLaR variant would cost an indirection on
// every request for no memory win that matters at this cardinality.
#[allow(clippy::large_enum_variant)]
pub enum AnySnapshot {
    /// An OCuLaR model with its co-cluster index.
    Ocular(Snapshot),
    /// Any other model kind, served through the trait hierarchy.
    Other(Box<dyn Model>),
}

impl AnySnapshot {
    /// The snapshot's kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            AnySnapshot::Ocular(_) => OCULAR_KIND,
            AnySnapshot::Other(m) => m.kind(),
        }
    }

    /// Serialises the snapshot in the v2 envelope.
    ///
    /// An `Other` payload whose kind tag is `ocular` is rejected: the
    /// `ocular` kind's on-disk format includes the co-cluster index
    /// section, which only [`AnySnapshot::Ocular`] carries — saving a bare
    /// `FactorModel` under that tag would produce an envelope the loader
    /// (correctly) refuses.
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.save_with_ids(None, w)
    }

    /// [`AnySnapshot::save`] plus the optional `id-maps` section: passing
    /// the training dataset's [`IdMaps`] makes the snapshot carry the
    /// external↔internal id tables to the serving tier, so external-id
    /// requests resolve without access to the original interaction file.
    pub fn save_with_ids<W: Write>(&self, ids: Option<&IdMaps>, w: &mut W) -> std::io::Result<()> {
        self.save_full(ids, None, w)
    }

    /// [`AnySnapshot::save_with_ids`] plus the optional `snapshot-meta`
    /// section carrying live-refresh provenance (retrain generation +
    /// source-data watermark).
    pub fn save_full<W: Write>(
        &self,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
        w: &mut W,
    ) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(w);
        match self {
            AnySnapshot::Ocular(s) => {
                writeln!(w, "{V2_PREFIX} {OCULAR_KIND}")?;
                s.write_payload(&mut w)?;
            }
            AnySnapshot::Other(m) => {
                if m.kind() == OCULAR_KIND {
                    return Err(bad(format!(
                        "kind `{OCULAR_KIND}` must be snapshotted as AnySnapshot::Ocular \
                         (its format carries the co-cluster index)"
                    )));
                }
                writeln!(w, "{V2_PREFIX} {}", m.kind())?;
                m.save_model(&mut w)?;
            }
        }
        if let Some(meta) = meta {
            write_meta_section(&mut w, meta)?;
        }
        if let Some(ids) = ids {
            write_ids_section(&mut w, ids)?;
        }
        writeln!(w, "{FOOTER}")?;
        w.flush()
    }

    /// Loads a snapshot of any kind: the v1 envelope (implicitly
    /// `ocular`), or a v2 envelope whose kind tag is dispatched against
    /// the registry of known model kinds. Unknown kinds are
    /// [`OcularError::UnknownModelKind`]; corruption and truncation are
    /// [`OcularError::Corrupt`].
    pub fn load<R: BufRead>(r: &mut R) -> Result<AnySnapshot, OcularError> {
        Ok(Self::load_with_ids(r)?.0)
    }

    /// [`AnySnapshot::load`] that also surfaces the optional `id-maps`
    /// section (`None` for snapshots written without one).
    pub fn load_with_ids<R: BufRead>(
        r: &mut R,
    ) -> Result<(AnySnapshot, Option<IdMaps>), OcularError> {
        let loaded = Self::load_full(r)?;
        Ok((loaded.snapshot, loaded.ids))
    }

    /// [`AnySnapshot::load_with_ids`] that also surfaces the optional
    /// live-refresh metadata section.
    pub fn load_full<R: BufRead>(r: &mut R) -> Result<LoadedSnapshot, OcularError> {
        let header = read_line(r).map_err(OcularError::from)?;
        if header == V1_HEADER {
            let snapshot = Snapshot::load_payload(r).map_err(OcularError::from)?;
            let (meta, ids) = read_tail_sections(r)?;
            return Ok(LoadedSnapshot {
                snapshot: AnySnapshot::Ocular(snapshot),
                ids,
                meta,
            });
        }
        // the separator is part of the required prefix, so `v2wals` (no
        // space) and version strings like `v2.1` are rejected instead of
        // mis-binning into a kind tag
        let kind = header
            .strip_prefix(V2_PREFIX)
            .and_then(|rest| rest.strip_prefix(' '))
            .filter(|kind| !kind.is_empty() && !kind.contains(char::is_whitespace))
            .ok_or_else(|| {
                OcularError::Corrupt(format!(
                    "bad snapshot header, expected `{V1_HEADER}` or `{V2_PREFIX} <kind>`"
                ))
            })?;
        let snapshot = if kind == OCULAR_KIND {
            AnySnapshot::Ocular(Snapshot::load_payload(r).map_err(OcularError::from)?)
        } else {
            let model: Box<dyn Model> = match kind {
                Wals::KIND => Box::new(Wals::load_model(r)?),
                Bpr::KIND => Box::new(Bpr::load_model(r)?),
                UserKnn::KIND => Box::new(UserKnn::load_model(r)?),
                ItemKnn::KIND => Box::new(ItemKnn::load_model(r)?),
                Popularity::KIND => Box::new(Popularity::load_model(r)?),
                other => return Err(OcularError::UnknownModelKind(other.to_string())),
            };
            AnySnapshot::Other(model)
        };
        let (meta, ids) = read_tail_sections(r)?;
        Ok(LoadedSnapshot {
            snapshot,
            ids,
            meta,
        })
    }

    /// Serialises the snapshot (plus optional id maps) as an
    /// `ocular-snapshot v3` binary container and returns the bytes.
    ///
    /// Unlike the text format, the co-cluster index travels as typed
    /// sections alongside the model's own, so the `Other`-arm guard of
    /// [`AnySnapshot::save`] applies here too.
    pub fn to_v3_bytes(&self, ids: Option<&IdMaps>) -> Result<Vec<u8>, OcularError> {
        self.to_v3_bytes_full(ids, None)
    }

    /// [`AnySnapshot::to_v3_bytes`] plus the optional live-refresh
    /// metadata section (retrain generation + source-data watermark).
    pub fn to_v3_bytes_full(
        &self,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> Result<Vec<u8>, OcularError> {
        let mut w = SectionWriter::new(self.kind());
        match self {
            AnySnapshot::Ocular(s) => s.write_sections(&mut w)?,
            AnySnapshot::Other(m) => {
                if m.kind() == OCULAR_KIND {
                    return Err(OcularError::InvalidConfig(format!(
                        "kind `{OCULAR_KIND}` must be snapshotted as AnySnapshot::Ocular \
                         (its format carries the co-cluster index)"
                    )));
                }
                m.write_sections(&mut w)?;
            }
        }
        if let Some(meta) = meta {
            meta.write_section(&mut w);
        }
        if let Some(ids) = ids {
            write_ids_sections(&mut w, ids);
        }
        Ok(w.finish())
    }

    /// Writes the v3 binary container to a writer.
    pub fn save_binary<W: Write>(
        &self,
        ids: Option<&IdMaps>,
        w: &mut W,
    ) -> Result<(), OcularError> {
        let bytes = self.to_v3_bytes(ids)?;
        w.write_all(&bytes).map_err(OcularError::from)
    }

    /// Saves the snapshot to a file in the chosen format.
    pub fn save_path(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        format: SnapshotFormat,
    ) -> Result<(), OcularError> {
        self.save_path_full(path, ids, None, format)
    }

    /// [`AnySnapshot::save_path`] plus the optional live-refresh metadata
    /// section — what a retrain writes so the serving control plane can
    /// report the generation and fold in users newer than the watermark.
    pub fn save_path_full(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
        format: SnapshotFormat,
    ) -> Result<(), OcularError> {
        let mut file = std::fs::File::create(path).map_err(OcularError::from)?;
        match format {
            SnapshotFormat::Text => self
                .save_full(ids, meta, &mut file)
                .map_err(OcularError::from),
            SnapshotFormat::Binary => {
                let bytes = self.to_v3_bytes_full(ids, meta)?;
                file.write_all(&bytes).map_err(OcularError::from)
            }
        }
    }

    /// Loads a v3 binary snapshot from a byte region (owned or mapped).
    /// The factor matrices, cluster index and id maps **borrow** their
    /// large buffers from the region — no per-payload allocation.
    pub fn load_v3(region: ModelBytes) -> Result<(AnySnapshot, Option<IdMaps>), OcularError> {
        let loaded = Self::load_v3_full(region)?;
        Ok((loaded.snapshot, loaded.ids))
    }

    /// [`AnySnapshot::load_v3`] that also surfaces the optional
    /// live-refresh metadata section.
    pub fn load_v3_full(region: ModelBytes) -> Result<LoadedSnapshot, OcularError> {
        let r = SectionReader::open(region)?;
        let snapshot = match r.kind() {
            OCULAR_KIND => AnySnapshot::Ocular(Snapshot::read_sections(&r)?),
            Wals::KIND => AnySnapshot::Other(Box::new(Wals::read_sections(&r)?)),
            Bpr::KIND => AnySnapshot::Other(Box::new(Bpr::read_sections(&r)?)),
            UserKnn::KIND => AnySnapshot::Other(Box::new(UserKnn::read_sections(&r)?)),
            ItemKnn::KIND => AnySnapshot::Other(Box::new(ItemKnn::read_sections(&r)?)),
            Popularity::KIND => AnySnapshot::Other(Box::new(Popularity::read_sections(&r)?)),
            other => return Err(OcularError::UnknownModelKind(other.to_string())),
        };
        let meta = SnapshotMeta::read_section(&r)?;
        let ids = read_ids_sections(&r)?;
        Ok(LoadedSnapshot {
            snapshot,
            ids,
            meta,
        })
    }

    /// Loads a snapshot file of **either** format, sniffing the magic
    /// bytes: v3 containers are memory-mapped and loaded zero-copy, v1/v2
    /// text envelopes keep loading through the line-oriented path — old
    /// snapshots work transparently.
    pub fn load_path(path: &Path) -> Result<(AnySnapshot, Option<IdMaps>), OcularError> {
        let loaded = Self::load_path_full(path)?;
        Ok((loaded.snapshot, loaded.ids))
    }

    /// [`AnySnapshot::load_path`] that also surfaces the optional
    /// live-refresh metadata (generation + watermark), in either format.
    pub fn load_path_full(path: &Path) -> Result<LoadedSnapshot, OcularError> {
        let mut prefix = [0u8; 8];
        let mut file = std::fs::File::open(path).map_err(OcularError::from)?;
        let n = file.read(&mut prefix).map_err(OcularError::from)?;
        if is_v3(&prefix[..n]) {
            drop(file);
            let region = ModelBytes::map_file(path).map_err(OcularError::from)?;
            return Self::load_v3_full(region);
        }
        // text path: re-open from the start (the probe consumed bytes)
        let file = std::fs::File::open(path).map_err(OcularError::from)?;
        Self::load_full(&mut std::io::BufReader::new(file))
    }
}

/// One shard of a user-split snapshot: a standalone [`Snapshot`] over the
/// shard's user-factor rows (item factors, cluster index and quantized
/// copy replicated in full), plus the global training rows those
/// shard-local rows came from, in ascending order.
pub struct SnapshotShard {
    /// The shard's snapshot — loadable and servable on its own.
    pub snapshot: Snapshot,
    /// Ascending global training row of each shard-local user row.
    pub global_rows: Vec<u64>,
}

impl Snapshot {
    /// Splits the model's user rows into `n_shards` groups by the stable
    /// hash of each row's external user id ([`ocular_bytes::shard_of_key`]
    /// over `external_ids`, or over the row index itself under the
    /// identity mapping), keeping ascending row order inside each group.
    ///
    /// The item-side state — item factors, co-cluster index, any
    /// quantized copy — is **replicated** into every shard rather than
    /// split: it is what cold fold-in and candidate generation read, and
    /// replicating it byte-identically is what makes every shard decide
    /// and score exactly like the unsharded engine. This is the same
    /// partition rule as [`ocular_sparse::ShardedDataset::split`], so
    /// shard-local model rows line up with the shard dataset's rows by
    /// construction.
    pub fn split_users(
        &self,
        external_ids: Option<&[u64]>,
        n_shards: usize,
    ) -> Result<Vec<SnapshotShard>, OcularError> {
        if n_shards == 0 {
            return Err(OcularError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        let n_users = self.model.n_users();
        if let Some(ids) = external_ids {
            if ids.len() != n_users {
                return Err(OcularError::InvalidConfig(format!(
                    "{} external user ids cannot address {n_users} model rows",
                    ids.len()
                )));
            }
        }
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
        for g in 0..n_users {
            let ext = external_ids.map_or(g as u64, |ids| ids[g]);
            groups[shard_of_key(ext, n_shards)].push(g as u64);
        }
        let k = self.model.user_factors.cols();
        Ok(groups
            .into_iter()
            .map(|rows| {
                let mut uf = Matrix::zeros(rows.len(), k);
                for (l, &g) in rows.iter().enumerate() {
                    uf.row_mut(l)
                        .copy_from_slice(self.model.user_factors.row(g as usize));
                }
                let model =
                    FactorModel::new(uf, self.model.item_factors.clone(), self.model.has_bias());
                SnapshotShard {
                    snapshot: Snapshot {
                        model,
                        index: self.index.clone(),
                        quant: self.quant.clone(),
                    },
                    global_rows: rows,
                }
            })
            .collect())
    }
}

/// File path of shard `s` of an `n`-way sharded snapshot:
/// `{base}.shard-{s}-of-{n}`. The suffix carries both coordinates so a
/// family of shard files is self-describing on disk and a worker pointed
/// at the wrong `--shards` count fails loudly instead of mapping a
/// mismatched file.
pub fn shard_path(base: &Path, shard: usize, n_shards: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".shard-{shard}-of-{n_shards}"));
    PathBuf::from(os)
}

/// A loaded sharded-snapshot family: one [`LoadedSnapshot`] per shard
/// plus each shard's global-row table, as read back by
/// [`AnySnapshot::load_path_sharded`].
pub struct ShardedLoad {
    /// Per-shard snapshots, in shard order. Every one is `Ocular`.
    pub shards: Vec<LoadedSnapshot>,
    /// Per shard: ascending global training row of each shard-local row.
    pub global_rows: Vec<Vec<u64>>,
}

impl AnySnapshot {
    /// Writes the snapshot as `n_shards` standalone v3 shard files next
    /// to `path` (see [`shard_path`]), splitting the user-factor rows by
    /// [`Snapshot::split_users`] and replicating the item-side state.
    ///
    /// Each shard file is a complete, independently loadable v3 snapshot
    /// — shard user rows, full item factors, full index, any quantized
    /// copy, the shard-scoped id maps (shard users × the full item
    /// table), and the same metadata section — plus two extra sections:
    /// `shgid` (the global training row of each shard-local row) and
    /// `shnfo` (`[shard, n_shards]`). A serve worker therefore mmaps
    /// only its own shard. Only OCuLaR snapshots have user-factor rows
    /// to split; other kinds are an [`OcularError::InvalidConfig`].
    pub fn save_path_sharded(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
        n_shards: usize,
    ) -> Result<Vec<PathBuf>, OcularError> {
        let AnySnapshot::Ocular(snap) = self else {
            return Err(OcularError::InvalidConfig(format!(
                "sharded snapshots require an OCuLaR model; kind `{}` has no \
                 user-factor rows to split",
                self.kind()
            )));
        };
        if let Some(ids) = ids {
            if ids.n_users() != snap.model.n_users() || ids.n_items() != snap.model.n_items() {
                return Err(OcularError::InvalidConfig(format!(
                    "id maps cover {}×{} but the model is {}×{}",
                    ids.n_users(),
                    ids.n_items(),
                    snap.model.n_users(),
                    snap.model.n_items()
                )));
            }
        }
        let shards = snap.split_users(ids.map(IdMaps::users), n_shards)?;
        let mut paths = Vec::with_capacity(n_shards);
        for (s, shard) in shards.iter().enumerate() {
            let shard_ids = match ids {
                None => None,
                Some(ids) => {
                    let users: Vec<u64> = shard
                        .global_rows
                        .iter()
                        .map(|&g| ids.users()[g as usize])
                        .collect();
                    Some(
                        IdMaps::new(users, ids.items().to_vec())
                            .map_err(|e| OcularError::Corrupt(e.to_string()))?,
                    )
                }
            };
            let mut w = SectionWriter::new(OCULAR_KIND);
            shard.snapshot.write_sections(&mut w)?;
            if let Some(meta) = meta {
                meta.write_section(&mut w);
            }
            if let Some(sids) = &shard_ids {
                write_ids_sections(&mut w, sids);
            }
            w.put_u64s("shgid", &shard.global_rows);
            w.put_u64s("shnfo", &[s as u64, n_shards as u64]);
            let p = shard_path(path, s, n_shards);
            std::fs::write(&p, w.finish()).map_err(OcularError::from)?;
            paths.push(p);
        }
        Ok(paths)
    }

    /// Loads an `n_shards`-way shard family written by
    /// [`AnySnapshot::save_path_sharded`], memory-mapping each shard file
    /// zero-copy and validating the family: every file must be an OCuLaR
    /// v3 shard whose `shnfo` coordinates match its name, all files must
    /// carry the same metadata section (one training: one generation, one
    /// watermark — a half-rewritten family is [`OcularError::Corrupt`]),
    /// and the `shgid` tables must be a disjoint ascending cover of
    /// `0..total_users`.
    pub fn load_path_sharded(path: &Path, n_shards: usize) -> Result<ShardedLoad, OcularError> {
        if n_shards == 0 {
            return Err(OcularError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        let mut shards: Vec<LoadedSnapshot> = Vec::with_capacity(n_shards);
        let mut global_rows = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let p = shard_path(path, s, n_shards);
            let region = ModelBytes::map_file(&p).map_err(OcularError::from)?;
            let r = SectionReader::open(region)?;
            if r.kind() != OCULAR_KIND {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} holds kind `{}`, not an OCuLaR shard",
                    p.display(),
                    r.kind()
                )));
            }
            let snapshot = Snapshot::read_sections(&r)?;
            let [shard_id, n] = r.u64_meta::<2>("shnfo")?;
            if shard_id != s as u64 || n != n_shards as u64 {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} says shard {shard_id} of {n}, expected {s} of {n_shards}",
                    p.display()
                )));
            }
            let gid: Vec<u64> = r.u64s("shgid")?.to_vec();
            if gid.len() != snapshot.model.n_users() {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} maps {} global rows onto {} user rows",
                    p.display(),
                    gid.len(),
                    snapshot.model.n_users()
                )));
            }
            if gid.windows(2).any(|w| w[0] >= w[1]) {
                return Err(OcularError::Corrupt(format!(
                    "shard file {} global rows are not strictly ascending",
                    p.display()
                )));
            }
            let meta = SnapshotMeta::read_section(&r)?;
            if let Some(first) = shards.first().filter(|first| first.meta != meta) {
                return Err(OcularError::Corrupt(format!(
                    "shard files {} ({:?}) and {} ({meta:?}) come from different trainings",
                    shard_path(path, 0, n_shards).display(),
                    first.meta,
                    p.display(),
                )));
            }
            let ids = read_ids_sections(&r)?;
            shards.push(LoadedSnapshot {
                snapshot: AnySnapshot::Ocular(snapshot),
                ids,
                meta,
            });
            global_rows.push(gid);
        }
        // the shgid tables must partition 0..total exactly
        let total: usize = global_rows.iter().map(Vec::len).sum();
        let mut seen = vec![false; total];
        for gid in &global_rows {
            for &g in gid {
                let g = usize::try_from(g)
                    .ok()
                    .filter(|&g| g < total)
                    .ok_or_else(|| {
                        OcularError::Corrupt(format!("shard global row {g} outside 0..{total}"))
                    })?;
                if std::mem::replace(&mut seen[g], true) {
                    return Err(OcularError::Corrupt(format!(
                        "global row {g} claimed by two shards"
                    )));
                }
            }
        }
        Ok(ShardedLoad {
            shards,
            global_rows,
        })
    }
}

/// Everything a snapshot file can carry: the model payload, the optional
/// external-id tables, and the optional live-refresh metadata.
pub struct LoadedSnapshot {
    /// The model payload (with its index for `ocular`).
    pub snapshot: AnySnapshot,
    /// The training dataset's id tables, if embedded.
    pub ids: Option<IdMaps>,
    /// Retrain generation + source-data watermark, if embedded.
    pub meta: Option<SnapshotMeta>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_api::ScoreItems;
    use ocular_baselines::WalsConfig;
    use ocular_linalg::Matrix;
    use ocular_sparse::CsrMatrix;

    fn snapshot() -> Snapshot {
        let model = FactorModel::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.2]]),
            Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 1.5], &[0.0, 3.0]]),
            false,
        );
        Snapshot::build(model, &IndexConfig { rel: 0.5, floor: 0 })
    }

    #[test]
    fn roundtrip() {
        let s = snapshot();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Snapshot::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded, s);
    }

    #[test]
    fn v1_envelope_still_loads() {
        let s = snapshot();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("ocular-snapshot v2 ocular\n"));
        let v1 = text.replacen("ocular-snapshot v2 ocular", V1_HEADER, 1);
        let loaded = Snapshot::load(&mut v1.as_bytes()).unwrap();
        assert_eq!(loaded, s);
        // and through the polymorphic loader
        match AnySnapshot::load(&mut v1.as_bytes()).unwrap() {
            AnySnapshot::Ocular(loaded) => assert_eq!(loaded, s),
            AnySnapshot::Other(_) => panic!("v1 must load as ocular"),
        }
    }

    #[test]
    fn truncation_at_every_line_rejected() {
        let s = snapshot();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                Snapshot::load(&mut partial.as_bytes()).is_err(),
                "truncation after {keep} lines must be rejected"
            );
            assert!(
                AnySnapshot::load(&mut partial.as_bytes()).is_err(),
                "AnySnapshot: truncation after {keep} lines must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_sections_rejected() {
        let s = snapshot();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // wrong envelope
        assert!(Snapshot::load(&mut "nope\n".as_bytes()).is_err());
        // tamper with the index header's cluster count
        let tampered = text.replace("cocluster-index v1 2", "cocluster-index v1 3");
        assert!(Snapshot::load(&mut tampered.as_bytes()).is_err());
        // non-numeric item id
        let tampered = text.replace("cocluster-index v1", "cocluster-index v9");
        assert!(Snapshot::load(&mut tampered.as_bytes()).is_err());
    }

    #[test]
    fn list_length_mismatch_rejected() {
        let s = snapshot();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // cluster 0's list line is "2 0 1" (rel 0.5 keeps items 0, 1);
        // lie about its length
        assert!(text.contains("\n2 0 1\n"), "fixture drifted: {text}");
        let tampered = text.replace("\n2 0 1\n", "\n3 0 1\n");
        assert!(Snapshot::load(&mut tampered.as_bytes()).is_err());
        // out-of-order ids
        let tampered = text.replace("\n2 0 1\n", "\n2 1 0\n");
        assert!(Snapshot::load(&mut tampered.as_bytes()).is_err());
    }

    #[test]
    fn baseline_kind_roundtrips_through_any_snapshot() {
        let r = ocular_sparse::Dataset::from_matrix(
            CsrMatrix::from_pairs(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]).unwrap(),
        );
        let wals = Wals::fit(
            &r,
            &WalsConfig {
                k: 2,
                iters: 5,
                ..Default::default()
            },
        );
        let mut want = Vec::new();
        wals.score_user(1, &mut want);
        let snap = AnySnapshot::Other(Box::new(wals));
        assert_eq!(snap.kind(), "wals");
        let mut buf = Vec::new();
        snap.save(&mut buf).unwrap();
        let loaded = AnySnapshot::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.kind(), "wals");
        match loaded {
            AnySnapshot::Other(m) => {
                let mut got = Vec::new();
                m.score_user(1, &mut got);
                assert_eq!(got, want, "scores must round-trip bitwise");
            }
            AnySnapshot::Ocular(_) => panic!("wals must not load as ocular"),
        }
        // truncation of a baseline payload is rejected
        let text = String::from_utf8(buf).unwrap();
        let cut: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(AnySnapshot::load(&mut cut.as_bytes()).is_err());
    }

    #[test]
    fn unknown_kind_rejected_with_typed_error() {
        let doc = "ocular-snapshot v2 neural-net\nwhatever\nocular-snapshot end\n";
        assert!(matches!(
            AnySnapshot::load(&mut doc.as_bytes()),
            Err(OcularError::UnknownModelKind(k)) if k == "neural-net"
        ));
    }

    #[test]
    fn malformed_v2_headers_are_corrupt_not_misbinned() {
        // no separator: must not parse as kind `wals`
        assert!(matches!(
            AnySnapshot::load(&mut "ocular-snapshot v2wals\n".as_bytes()),
            Err(OcularError::Corrupt(_))
        ));
        // future version strings must not strip into a bogus kind
        assert!(matches!(
            AnySnapshot::load(&mut "ocular-snapshot v2.1 wals\n".as_bytes()),
            Err(OcularError::Corrupt(_))
        ));
        // empty kind tag
        assert!(matches!(
            AnySnapshot::load(&mut "ocular-snapshot v2 \n".as_bytes()),
            Err(OcularError::Corrupt(_))
        ));
    }

    fn sample_ids() -> IdMaps {
        IdMaps::new(vec![101, 7], vec![900, 4, 55]).unwrap()
    }

    #[test]
    fn id_maps_section_round_trips_for_ocular() {
        let s = AnySnapshot::Ocular(snapshot());
        let ids = sample_ids();
        let mut buf = Vec::new();
        s.save_with_ids(Some(&ids), &mut buf).unwrap();
        let (loaded, got) = AnySnapshot::load_with_ids(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.kind(), "ocular");
        assert_eq!(got, Some(ids.clone()));
        // the typed loader tolerates (and discards) the section
        let via_typed = Snapshot::load(&mut buf.as_slice()).unwrap();
        match s {
            AnySnapshot::Ocular(inner) => assert_eq!(via_typed, inner),
            AnySnapshot::Other(_) => unreachable!(),
        }
        // truncation anywhere inside the ids section is rejected
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                AnySnapshot::load_with_ids(&mut partial.as_bytes()).is_err(),
                "truncation after {keep} lines must be rejected"
            );
        }
    }

    #[test]
    fn id_maps_section_round_trips_for_baseline_kinds() {
        let r = CsrMatrix::from_pairs(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let pop = ocular_baselines::Popularity::fit(&r.into());
        let ids = sample_ids();
        let mut buf = Vec::new();
        AnySnapshot::Other(Box::new(pop))
            .save_with_ids(Some(&ids), &mut buf)
            .unwrap();
        let (loaded, got) = AnySnapshot::load_with_ids(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.kind(), "popularity");
        assert_eq!(got, Some(ids));
        // ids-free load still works on the same bytes
        assert_eq!(
            AnySnapshot::load(&mut buf.as_slice()).unwrap().kind(),
            "popularity"
        );
    }

    #[test]
    fn snapshots_without_ids_load_with_none() {
        let s = AnySnapshot::Ocular(snapshot());
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let (_, ids) = AnySnapshot::load_with_ids(&mut buf.as_slice()).unwrap();
        assert_eq!(ids, None);
    }

    #[test]
    fn corrupt_id_maps_rejected() {
        let s = AnySnapshot::Ocular(snapshot());
        let ids = sample_ids();
        let mut buf = Vec::new();
        s.save_with_ids(Some(&ids), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // wrong count
        let tampered = text.replace("id-maps v1 2 3", "id-maps v1 3 3");
        assert!(AnySnapshot::load_with_ids(&mut tampered.as_bytes()).is_err());
        // duplicate external id
        let tampered = text.replace("101 7", "101 101");
        assert!(AnySnapshot::load_with_ids(&mut tampered.as_bytes()).is_err());
        // non-numeric id
        let tampered = text.replace("900 4 55", "900 x 55");
        assert!(AnySnapshot::load_with_ids(&mut tampered.as_bytes()).is_err());
        // a future/corrupt section version must not mis-bin into v1
        // (`id-maps v10 …` would otherwise strip to a valid-looking count)
        let tampered = text.replace("id-maps v1 ", "id-maps v10 ");
        assert!(matches!(
            AnySnapshot::load_with_ids(&mut tampered.as_bytes()),
            Err(OcularError::Corrupt(_))
        ));
    }

    fn sample_meta() -> SnapshotMeta {
        SnapshotMeta {
            generation: 2,
            n_users: 2,
            n_items: 3,
            nnz: 4,
        }
    }

    #[test]
    fn snapshot_meta_round_trips_in_text_format() {
        let s = AnySnapshot::Ocular(snapshot());
        let (meta, ids) = (sample_meta(), sample_ids());
        let mut buf = Vec::new();
        s.save_full(Some(&ids), Some(&meta), &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("snapshot-meta v1 2 2 3 4\n"), "{text}");
        let loaded = AnySnapshot::load_full(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, Some(ids));
        // legacy loaders tolerate (and discard) the section
        let (_, got_ids) = AnySnapshot::load_with_ids(&mut buf.as_slice()).unwrap();
        assert!(got_ids.is_some());
        assert!(Snapshot::load(&mut buf.as_slice()).is_ok());

        // meta without ids, and a corrupt meta line
        let mut buf = Vec::new();
        s.save_full(None, Some(&meta), &mut buf).unwrap();
        let loaded = AnySnapshot::load_full(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, None);
        let tampered = String::from_utf8(buf)
            .unwrap()
            .replace("snapshot-meta v1 2 2 3 4", "snapshot-meta v1 2 2 3");
        assert!(AnySnapshot::load_full(&mut tampered.as_bytes()).is_err());
    }

    #[test]
    fn snapshot_meta_round_trips_in_v3_format() {
        let s = AnySnapshot::Ocular(snapshot());
        let (meta, ids) = (sample_meta(), sample_ids());
        let bytes = s.to_v3_bytes_full(Some(&ids), Some(&meta)).unwrap();
        let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes)).unwrap();
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, Some(ids));
        // snapshots without the section load with None
        let bytes = s.to_v3_bytes(None).unwrap();
        let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes)).unwrap();
        assert_eq!(loaded.meta, None);
    }

    #[test]
    fn snapshot_meta_survives_save_path_in_both_formats() {
        let dir = std::env::temp_dir().join("ocular_serve_meta_path_test");
        std::fs::create_dir_all(&dir).unwrap();
        let s = AnySnapshot::Ocular(snapshot());
        let meta = sample_meta();
        for (name, format) in [
            ("snap.txt", SnapshotFormat::Text),
            ("snap.bin", SnapshotFormat::Binary),
        ] {
            let path = dir.join(name);
            s.save_path_full(&path, None, Some(&meta), format).unwrap();
            let loaded = AnySnapshot::load_path_full(&path).unwrap();
            assert_eq!(loaded.meta, Some(meta), "{name}");
            // the meta-blind loader still works on the same file
            assert!(AnySnapshot::load_path(&path).is_ok(), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_sections_round_trip_in_v3_and_are_dropped_by_text() {
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let s = snapshot().with_quantization(dtype);
            assert_eq!(s.quant.as_ref().unwrap().dtype(), dtype);
            let bytes = AnySnapshot::Ocular(s.clone()).to_v3_bytes(None).unwrap();
            let (loaded, _) = AnySnapshot::load_v3(ModelBytes::from_vec(bytes.clone())).unwrap();
            let AnySnapshot::Ocular(loaded) = loaded else {
                panic!("quantized ocular snapshot must load as ocular");
            };
            assert_eq!(loaded, s, "{dtype}: v3 round-trip must preserve quant");
            // v3 re-serialisation of the loaded snapshot is a fixed point
            let again = AnySnapshot::Ocular(loaded).to_v3_bytes(None).unwrap();
            assert_eq!(again, bytes, "{dtype}: v3 must be a fixed point");
            // the text envelope drops the narrow copy, keeping the master
            let mut buf = Vec::new();
            s.save(&mut buf).unwrap();
            let text_loaded = Snapshot::load(&mut buf.as_slice()).unwrap();
            assert_eq!(text_loaded.quant, None);
            assert_eq!(text_loaded.model, s.model);
        }
    }

    #[test]
    fn unquantized_v3_snapshots_load_with_no_quant() {
        let s = AnySnapshot::Ocular(snapshot());
        let bytes = s.to_v3_bytes(None).unwrap();
        let (loaded, _) = AnySnapshot::load_v3(ModelBytes::from_vec(bytes)).unwrap();
        match loaded {
            AnySnapshot::Ocular(inner) => assert_eq!(inner.quant, None),
            AnySnapshot::Other(_) => panic!("must load as ocular"),
        }
    }

    #[test]
    fn bare_factor_model_rejected_in_other_arm_at_save() {
        let model = FactorModel::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            false,
        );
        let snap = AnySnapshot::Other(Box::new(model));
        let mut buf = Vec::new();
        let err = snap.save(&mut buf).unwrap_err();
        assert!(
            err.to_string().contains("AnySnapshot::Ocular"),
            "saving a bare ocular payload must fail loudly: {err}"
        );
    }
}
