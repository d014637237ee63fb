//! Serving snapshots — one file, one format, every model kind.
//!
//! A snapshot is what training ships to the serving tier: exactly one
//! **`ocular-snapshot v3`** container ([`ocular_api::binary`]) — magic +
//! kind tag + 8-aligned little-endian sections + trailing checksum. The
//! kind tag lets one serving binary load *any* model in the workspace zoo;
//! an OCuLaR snapshot also carries its co-cluster candidate index and,
//! optionally, a quantized copy of the item factors. Two optional section
//! groups ride along for every kind: the training
//! [`Dataset`](ocular_sparse::Dataset)'s external↔internal [`IdMaps`] (so
//! external-id requests resolve without re-deriving the compaction from
//! the raw interaction file) and the live-refresh [`SnapshotMeta`]
//! (generation + source-data watermark).
//!
//! * **Write**: one [`SectionWriter`] encoder streams the container into a
//!   `Vec` ([`AnySnapshot::to_v3_bytes`]) or, holding a chunk of it and
//!   never the file, into a temporary `<path>.tmp-<pid>-<n>` unique per
//!   save, which [`AnySnapshot::save_path`] / [`AnySnapshot::save_path_full`]
//!   publish under a path by unlink-and-rename, never by writing into
//!   the file that is there, so a server that has the previous file mapped
//!   keeps serving it untouched.
//! * **Read**: [`AnySnapshot::load_path_full`] memory-maps the file and the
//!   loaded `FactorModel` / [`ClusterIndex`] / [`IdMaps`] **borrow** their
//!   large buffers from the mapping ([`AnySnapshot::load_v3`]) — engine
//!   start-up allocates nothing per payload.
//!
//! ## The read-only text reader
//!
//! Files written before v3 are line-oriented text and keep loading:
//! [`AnySnapshot::load_path_full`] sniffs the magic bytes and hands
//! anything that is not v3 to [`AnySnapshot::load_text`]. The format has
//! no writer — load one and save it to migrate. The grammar, kept as the
//! reader's reference:
//!
//! ```text
//! ocular-snapshot v2 <kind>            (or `ocular-snapshot v1` = ocular)
//! <kind-specific model payload, self-delimiting: `ocular-model v1`,
//!  `wals-model v1`, … — see each kind's `SnapshotModel::load_model`>
//! [cocluster-index v1 <n_clusters> <n_items> <rel>      (kind = ocular only)
//!  <n_clusters lines: "<len> <ascending item ids>">]
//! [snapshot-meta v1 <generation> <n_users> <n_items> <nnz>]   (optional)
//! [id-maps v1 <n_users> <n_items>                             (optional)
//!  <n_users external user ids, one line>
//!  <n_items external item ids, one line>]
//! ocular-snapshot end
//! ```
//!
//! The trailing sentinel makes truncation detectable: a file cut off at
//! any line is rejected instead of mis-loading. Every header count is
//! untrusted — buffers grow as lines arrive.

use crate::index::{ClusterIndex, IndexConfig};
use ocular_api::binary::{is_v3, SectionReader, SectionWriter, SnapshotMeta};
use ocular_api::textio::{bad, read_line};
use ocular_api::{Model, OcularError, SnapshotModel};
use ocular_baselines::{Bpr, ItemKnn, Popularity, UserKnn, Wals};
use ocular_bytes::ModelBytes;
use ocular_core::FactorModel;
use ocular_linalg::{QuantDtype, QuantizedFactors};
use ocular_sparse::{IdMaps, RawIdTable};
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic first line of the legacy (OCuLaR-only) text envelope.
const V1_HEADER: &str = "ocular-snapshot v1";
/// Prefix of the kind-tagged v2 text envelope header.
const V2_PREFIX: &str = "ocular-snapshot v2";
/// Magic line opening the text index section.
const INDEX_HEADER: &str = "cocluster-index v1";
/// Magic line opening the optional text external-id-maps section.
const IDS_HEADER: &str = "id-maps v1";
/// Magic line opening the optional text live-refresh metadata section.
const META_HEADER: &str = "snapshot-meta v1";
/// Trailing sentinel proving a text snapshot was written to completion.
const FOOTER: &str = "ocular-snapshot end";
/// The kind tag of OCuLaR snapshots (canonically defined on
/// [`FactorModel::KIND`], mirrored here for dispatch).
pub const OCULAR_KIND: &str = FactorModel::KIND;

/// The on-disk representation a snapshot is written in. There is one; the
/// type remains so `save_path(path, ids, SnapshotFormat::Binary)` callers
/// keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
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
    /// for the serving fast path, produced at save time by
    /// [`Snapshot::with_quantization`]. The f64 master is always present.
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

    /// Parses the text `ocular` payload: `ocular-model v1` + the
    /// `cocluster-index v1` section, stopping before any trailing section.
    fn load_text_payload(mut r: &mut dyn BufRead) -> Result<Snapshot, OcularError> {
        let model = FactorModel::load(&mut r)?;
        let header = read_line(r)?;
        let rest = header
            .strip_prefix(INDEX_HEADER)
            .ok_or_else(|| bad(format!("bad index header, expected `{INDEX_HEADER} …`")))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let [n_clusters, n_items, rel] = fields[..] else {
            return Err(bad("index header needs n_clusters n_items rel"));
        };
        let n_clusters: usize = n_clusters
            .parse()
            .map_err(|_| bad("bad index n_clusters"))?;
        let n_items: usize = n_items.parse().map_err(|_| bad("bad index n_items"))?;
        let rel: f64 = rel.parse().map_err(|_| bad("bad index rel cutoff"))?;
        if (n_clusters, n_items) != (model.n_clusters(), model.n_items()) {
            return Err(bad(format!(
                "index covers {n_clusters} clusters × {n_items} items but the model has {} × {}",
                model.n_clusters(),
                model.n_items()
            )));
        }
        let mut items = Vec::new();
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

/// Reads one text line of exactly `n` external ids.
fn read_ids_line(r: &mut dyn BufRead, n: usize, what: &str) -> Result<Vec<u64>, OcularError> {
    let line = read_line(r)?;
    let ids: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| bad(format!("id-maps: bad {what} id")))?;
    if ids.len() != n {
        return Err(bad(format!(
            "id-maps: declared {n} {what} ids, found {}",
            ids.len()
        )));
    }
    Ok(ids)
}

/// After a text payload: parses the optional trailing sections in order —
/// `snapshot-meta v1`, then `id-maps v1` — then the trailing sentinel.
fn read_tail_sections(
    r: &mut dyn BufRead,
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
            .map_err(|_| bad("snapshot-meta: bad value"))?;
        let [generation, n_users, n_items, nnz] = fields[..] else {
            return Err(bad(
                "snapshot-meta header needs generation n_users n_items nnz",
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
            bad(format!(
                "expected `{META_HEADER} …`, `{IDS_HEADER} …` or `{FOOTER}`, got `{line}`"
            ))
        })?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let [n_users, n_items] = fields[..] else {
        return Err(bad("id-maps header needs n_users n_items"));
    };
    let n_users: usize = n_users.parse().map_err(|_| bad("bad id-maps n_users"))?;
    let n_items: usize = n_items.parse().map_err(|_| bad("bad id-maps n_items"))?;
    let users = read_ids_line(r, n_users, "user")?;
    let items = read_ids_line(r, n_items, "item")?;
    let ids = IdMaps::new(users, items).map_err(|e| bad(format!("id-maps: {e}")))?;
    if read_line(r)? != FOOTER {
        return Err(bad(format!("missing `{FOOTER}` sentinel")));
    }
    Ok((meta, Some(ids)))
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

    /// Serialises the snapshot as an `ocular-snapshot v3` container, with
    /// the optional id-map sections (the training dataset's [`IdMaps`], so
    /// external-id requests resolve without the original interaction file)
    /// and the optional live-refresh metadata section (retrain generation
    /// + source-data watermark).
    ///
    /// An `Other` payload whose kind tag is `ocular` is rejected: that
    /// kind's sections include the co-cluster index, which only
    /// [`AnySnapshot::Ocular`] carries — a bare `FactorModel` under the tag
    /// would produce a container the loader (correctly) refuses.
    pub fn to_v3_bytes(
        &self,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> Result<Vec<u8>, OcularError> {
        let mut bytes = Vec::new();
        self.write_v3(&mut bytes, ids, meta).map(|()| bytes)
    }

    /// Streams that container into `sink`: the one encoder behind
    /// [`AnySnapshot::to_v3_bytes`] and [`AnySnapshot::save_path_full`].
    fn write_v3(
        &self,
        sink: &mut dyn Write,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> Result<(), OcularError> {
        let mut w = SectionWriter::new(self.kind(), sink);
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
        Ok(w.finish()?)
    }

    /// [`AnySnapshot::save_path_full`] without metadata.
    pub fn save_path(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        _format: SnapshotFormat,
    ) -> Result<(), OcularError> {
        self.save_path_full(path, ids, None)
    }

    /// Publishes the snapshot under `path` without ever writing into the
    /// file that is there: the old file is unlinked, the container streams
    /// (never held whole in memory) into `<path>.tmp-<pid>-<n>` in the same
    /// directory — `n` counts this process's saves and the file is created
    /// exclusively, so two saves never share it — and the temporary is
    /// renamed into place. A process that has the previous file mapped
    /// keeps its inode and its bits — never a truncated or half-written
    /// file — and picks the new one up when it next opens the path
    /// (`/admin/reload`); a file that appears under `path` is complete.
    ///
    /// While the bytes are being written the path names nothing: a reload
    /// landing there fails typed and the old generation keeps serving.
    /// Unlinking first is what keeps a save as cheap as the in-place
    /// rewrite it replaces — the old file's page cache is handed back
    /// before the new file's is asked for. Holding both (write, then
    /// rename over) stalled a 60 MB save by ≈ 0.3 s on every replacement,
    /// and a replace-by-rename also makes ext4 force the new data out
    /// (`auto_da_alloc`), the durability this writer does not promise:
    /// this is about what readers see, and nothing is `fsync`ed. On any
    /// error the temporary is removed.
    pub fn save_path_full(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> Result<(), OcularError> {
        self.publish(path, ids, meta, |file| file)
    }

    /// [`AnySnapshot::save_path_full`] with the temporary file behind
    /// `wrap`, the seam that lets tests fail the write at a chosen byte.
    fn publish<W: Write>(
        &self,
        path: &Path,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
        wrap: impl FnOnce(std::fs::File) -> W,
    ) -> Result<(), OcularError> {
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let n = SAVES.fetch_add(1, Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".tmp-{}-{n}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let file = std::fs::File::create_new(&tmp)?;
        let written = self.write_v3(&mut wrap(file), ids, meta);
        let published = written.and_then(|()| Ok(std::fs::rename(&tmp, path)?));
        if published.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        published
    }

    /// Loads a v3 snapshot from a byte region (owned or mapped). The
    /// factor matrices, cluster index and id maps **borrow** their large
    /// buffers from the region — no per-payload allocation. Unknown kinds
    /// are [`OcularError::UnknownModelKind`]; corruption and truncation
    /// are [`OcularError::Corrupt`].
    pub fn load_v3(region: ModelBytes) -> Result<LoadedSnapshot, OcularError> {
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
        Ok(LoadedSnapshot {
            snapshot,
            ids: read_ids_sections(&r)?,
            meta: SnapshotMeta::read_section(&r)?,
        })
    }

    /// Loads a pre-v3 **text** snapshot (see the module docs for the
    /// grammar): the v1 envelope (implicitly `ocular`), or a v2 envelope
    /// whose kind tag is dispatched against the registry of known model
    /// kinds. Same typed errors as [`AnySnapshot::load_v3`].
    pub fn load_text(r: &mut dyn BufRead) -> Result<LoadedSnapshot, OcularError> {
        let header = read_line(r)?;
        // the separator is part of the required prefix, so `v2wals` (no
        // space) and version strings like `v2.1` are rejected instead of
        // mis-binning into a kind tag
        let kind = if header == V1_HEADER {
            OCULAR_KIND
        } else {
            header
                .strip_prefix(V2_PREFIX)
                .and_then(|rest| rest.strip_prefix(' '))
                .filter(|kind| !kind.is_empty() && !kind.contains(char::is_whitespace))
                .ok_or_else(|| {
                    bad(format!(
                        "bad snapshot header, expected `{V1_HEADER}` or `{V2_PREFIX} <kind>`"
                    ))
                })?
        };
        let snapshot = match kind {
            OCULAR_KIND => AnySnapshot::Ocular(Snapshot::load_text_payload(r)?),
            Wals::KIND => AnySnapshot::Other(Box::new(Wals::load_model(r)?)),
            Bpr::KIND => AnySnapshot::Other(Box::new(Bpr::load_model(r)?)),
            UserKnn::KIND => AnySnapshot::Other(Box::new(UserKnn::load_model(r)?)),
            ItemKnn::KIND => AnySnapshot::Other(Box::new(ItemKnn::load_model(r)?)),
            Popularity::KIND => AnySnapshot::Other(Box::new(Popularity::load_model(r)?)),
            other => return Err(OcularError::UnknownModelKind(other.to_string())),
        };
        let (meta, ids) = read_tail_sections(r)?;
        Ok(LoadedSnapshot {
            snapshot,
            ids,
            meta,
        })
    }

    /// Loads a snapshot file, sniffing the magic bytes: a v3 container is
    /// memory-mapped and loaded zero-copy ([`AnySnapshot::load_v3`]);
    /// anything else goes through the text reader
    /// ([`AnySnapshot::load_text`]), so files from before v3 still load.
    pub fn load_path_full(path: &Path) -> Result<LoadedSnapshot, OcularError> {
        let mut prefix = [0u8; 8];
        let mut file = std::fs::File::open(path)?;
        let n = file.read(&mut prefix)?;
        if is_v3(&prefix[..n]) {
            drop(file);
            return Self::load_v3(ModelBytes::map_file(path)?);
        }
        // text path: re-open from the start (the probe consumed bytes)
        Self::load_text(&mut std::io::BufReader::new(std::fs::File::open(path)?))
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

    fn sample_ids() -> IdMaps {
        IdMaps::new(vec![101, 7], vec![900, 4, 55]).unwrap()
    }

    fn sample_meta() -> SnapshotMeta {
        SnapshotMeta {
            generation: 2,
            n_users: 2,
            n_items: 3,
            nnz: 4,
        }
    }

    /// `snapshot()` with `sample_meta()` and `sample_ids()`, byte for byte
    /// what the v2 text writer produced for them.
    const TEXT: &str = "ocular-snapshot v2 ocular\n\
        ocular-model v1 2 3 2 0\n1e0 0e0\n0e0 1.2e0\n2e0 0e0\n1e0 1.5e0\n0e0 3e0\n\
        cocluster-index v1 2 3 5e-1\n2 0 1\n2 1 2\n\
        snapshot-meta v1 2 2 3 4\n\
        id-maps v1 2 3\n101 7\n900 4 55\n\
        ocular-snapshot end\n";
    const META_LINE: &str = "snapshot-meta v1 2 2 3 4\n";
    const IDS_LINES: &str = "id-maps v1 2 3\n101 7\n900 4 55\n";

    /// `TEXT` without its two optional sections.
    fn bare_text() -> String {
        TEXT.replace(META_LINE, "").replace(IDS_LINES, "")
    }

    fn load_text(text: &str) -> Result<LoadedSnapshot, OcularError> {
        AnySnapshot::load_text(&mut text.as_bytes())
    }

    fn ocular(loaded: LoadedSnapshot) -> Snapshot {
        match loaded.snapshot {
            AnySnapshot::Ocular(s) => s,
            AnySnapshot::Other(_) => panic!("must load as ocular"),
        }
    }

    fn v3_cycle(
        s: &AnySnapshot,
        ids: Option<&IdMaps>,
        meta: Option<&SnapshotMeta>,
    ) -> LoadedSnapshot {
        let bytes = s.to_v3_bytes(ids, meta).unwrap();
        AnySnapshot::load_v3(ModelBytes::from_vec(bytes)).unwrap()
    }

    #[test]
    fn roundtrip() {
        // text → model → v3 → model: every stage is the same snapshot
        let loaded = load_text(TEXT).unwrap();
        assert_eq!(loaded.ids, Some(sample_ids()));
        assert_eq!(loaded.meta, Some(sample_meta()));
        let s = ocular(loaded);
        assert_eq!(s, snapshot());
        let cycled = v3_cycle(&AnySnapshot::Ocular(s), None, None);
        assert_eq!(ocular(cycled), snapshot());
    }

    #[test]
    fn v1_envelope_still_loads() {
        let v1 = bare_text().replacen("ocular-snapshot v2 ocular", V1_HEADER, 1);
        assert_eq!(ocular(load_text(&v1).unwrap()), snapshot());
    }

    #[test]
    fn truncation_at_every_line_rejected() {
        for text in [TEXT.to_string(), bare_text()] {
            let lines: Vec<&str> = text.lines().collect();
            for keep in 0..lines.len() {
                let partial = lines[..keep].join("\n");
                assert!(
                    load_text(&partial).is_err(),
                    "truncation after {keep} lines must be rejected"
                );
            }
        }
    }

    #[test]
    fn corrupt_sections_rejected() {
        // wrong envelope
        assert!(load_text("nope\n").is_err());
        // tamper with the index header's cluster count
        let tampered = TEXT.replace("cocluster-index v1 2", "cocluster-index v1 3");
        assert!(load_text(&tampered).is_err());
        // unknown index section version
        let tampered = TEXT.replace("cocluster-index v1", "cocluster-index v9");
        assert!(load_text(&tampered).is_err());
    }

    #[test]
    fn list_length_mismatch_rejected() {
        // cluster 0's list line is "2 0 1" (rel 0.5 keeps items 0, 1);
        // lie about its length
        let tampered = TEXT.replace("\n2 0 1\n", "\n3 0 1\n");
        assert!(load_text(&tampered).is_err());
        // out-of-order ids
        let tampered = TEXT.replace("\n2 0 1\n", "\n2 1 0\n");
        assert!(load_text(&tampered).is_err());
    }

    #[test]
    fn a_declared_shape_is_never_a_capacity() {
        // 63 bytes whose header count must never become a capacity
        for payload in [
            "ocular-snapshot v2 ocular\nocular-model v1 1000000000000 1 4 0\n",
            "ocular-snapshot v2 wals\nwals-model v1 1000000000000 1 4 1e-2 1e-2 1 1e-1 0\n",
            "ocular-snapshot v2 user-knn\nuser-knn-model v1 1000000000000\n",
        ] {
            assert!(matches!(load_text(payload), Err(OcularError::Corrupt(_))));
        }
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
        let loaded = v3_cycle(&snap, None, None).snapshot;
        assert_eq!(loaded.kind(), "wals");
        match loaded {
            AnySnapshot::Other(m) => {
                let mut got = Vec::new();
                m.score_user(1, &mut got);
                assert_eq!(got, want, "scores must round-trip bitwise");
            }
            AnySnapshot::Ocular(_) => panic!("wals must not load as ocular"),
        }
    }

    #[test]
    fn unknown_kind_rejected_with_typed_error() {
        let doc = "ocular-snapshot v2 neural-net\nwhatever\nocular-snapshot end\n";
        assert!(matches!(
            load_text(doc),
            Err(OcularError::UnknownModelKind(k)) if k == "neural-net"
        ));
    }

    #[test]
    fn malformed_v2_headers_are_corrupt_not_misbinned() {
        for header in [
            // no separator: must not parse as kind `wals`
            "ocular-snapshot v2wals\n",
            // future version strings must not strip into a bogus kind
            "ocular-snapshot v2.1 wals\n",
            // empty kind tag
            "ocular-snapshot v2 \n",
        ] {
            assert!(matches!(load_text(header), Err(OcularError::Corrupt(_))));
        }
    }

    #[test]
    fn id_maps_section_round_trips_for_ocular() {
        let loaded = load_text(&TEXT.replace(META_LINE, "")).unwrap();
        assert_eq!(loaded.snapshot.kind(), "ocular");
        assert_eq!(loaded.ids, Some(sample_ids()));
        assert_eq!(loaded.meta, None);
        let cycled = v3_cycle(&loaded.snapshot, loaded.ids.as_ref(), None);
        assert_eq!(cycled.ids, Some(sample_ids()));
        assert_eq!(ocular(cycled), snapshot());
    }

    #[test]
    fn id_maps_section_round_trips_for_baseline_kinds() {
        let r = CsrMatrix::from_pairs(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let pop = AnySnapshot::Other(Box::new(Popularity::fit(&r.into())));
        let cycled = v3_cycle(&pop, Some(&sample_ids()), None);
        assert_eq!(cycled.snapshot.kind(), "popularity");
        assert_eq!(cycled.ids, Some(sample_ids()));
        // the same model and section in the text envelope
        let text = format!(
            "ocular-snapshot v2 popularity\npopularity-model v1 2 3\n1e0 1e0 1e0\n\
             {IDS_LINES}ocular-snapshot end\n"
        );
        let loaded = load_text(&text).unwrap();
        assert_eq!(loaded.snapshot.kind(), "popularity");
        assert_eq!(loaded.ids, Some(sample_ids()));
    }

    #[test]
    fn snapshots_without_ids_load_with_none() {
        let loaded = load_text(&bare_text()).unwrap();
        assert_eq!((loaded.ids, loaded.meta), (None, None));
        let cycled = v3_cycle(&AnySnapshot::Ocular(snapshot()), None, None);
        assert_eq!((cycled.ids, cycled.meta), (None, None));
    }

    #[test]
    fn corrupt_id_maps_rejected() {
        // wrong count
        let tampered = TEXT.replace("id-maps v1 2 3", "id-maps v1 3 3");
        assert!(load_text(&tampered).is_err());
        // duplicate external id
        let tampered = TEXT.replace("101 7", "101 101");
        assert!(load_text(&tampered).is_err());
        // non-numeric id
        let tampered = TEXT.replace("900 4 55", "900 x 55");
        assert!(load_text(&tampered).is_err());
        // a future/corrupt section version must not mis-bin into v1
        // (`id-maps v10 …` would otherwise strip to a valid-looking count)
        let tampered = TEXT.replace("id-maps v1 ", "id-maps v10 ");
        assert!(matches!(load_text(&tampered), Err(OcularError::Corrupt(_))));
    }

    #[test]
    fn snapshot_meta_round_trips_in_text_format() {
        // meta without ids, and a corrupt meta line
        let loaded = load_text(&TEXT.replace(IDS_LINES, "")).unwrap();
        assert_eq!(loaded.meta, Some(sample_meta()));
        assert_eq!(loaded.ids, None);
        let tampered = TEXT.replace(META_LINE, "snapshot-meta v1 2 2 3\n");
        assert!(load_text(&tampered).is_err());
    }

    #[test]
    fn snapshot_meta_round_trips_in_v3_format() {
        let s = AnySnapshot::Ocular(snapshot());
        let (meta, ids) = (sample_meta(), sample_ids());
        let loaded = v3_cycle(&s, Some(&ids), Some(&meta));
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(loaded.ids, Some(ids));
    }

    #[test]
    fn snapshot_meta_survives_save_path_in_both_formats() {
        // `load_path_full` sniffs the magic: a saved v3 file and a text
        // file from before v3 both come back with their metadata
        let dir = std::env::temp_dir().join(format!("ocular_meta_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (text_path, v3_path) = (dir.join("snap.txt"), dir.join("snap.bin"));
        std::fs::write(&text_path, TEXT).unwrap();
        AnySnapshot::Ocular(snapshot())
            .save_path_full(&v3_path, None, Some(&sample_meta()))
            .unwrap();
        for path in [&text_path, &v3_path] {
            let loaded = AnySnapshot::load_path_full(path).unwrap();
            assert_eq!(loaded.meta, Some(sample_meta()), "{}", path.display());
            assert_eq!(ocular(loaded), snapshot());
        }
        // publishing leaves nothing but the snapshot behind
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_over_a_mapped_snapshot_leaves_the_old_mapping_intact() {
        // what a retrain does to a serving process: the first snapshot is
        // mapped, a smaller one is saved to the same path. Truncating in
        // place would SIGBUS on the next touch of the old mapping.
        let path =
            std::env::temp_dir().join(format!("ocular-save-over-{}.snap", std::process::id()));
        let big = FactorModel::new(
            Matrix::from_vec(3000, 2, vec![0.5; 6000]),
            Matrix::from_vec(3, 2, vec![1.0; 6]),
            false,
        );
        let big = AnySnapshot::Ocular(Snapshot::build(big, &IndexConfig::default()));
        big.save_path(&path, None, SnapshotFormat::Binary).unwrap();
        let old = ocular(AnySnapshot::load_path_full(&path).unwrap());
        AnySnapshot::Ocular(snapshot())
            .save_path(&path, None, SnapshotFormat::Binary)
            .unwrap();
        let sum: f64 = old.model.user_factors.as_slice().iter().sum();
        assert_eq!(sum, 3000.0, "old generation must still read its own bits");
        assert_eq!(
            ocular(AnySnapshot::load_path_full(&path).unwrap()),
            snapshot()
        );
        // a failed save leaves no temporary behind
        let missing = std::env::temp_dir().join("ocular-no-such-dir/x.snap");
        assert!(big
            .save_path(&missing, None, SnapshotFormat::Binary)
            .is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// An OCuLaR snapshot of `items` × 4 factors (≈ 50 file bytes an item),
    /// with an int8 copy so 64-byte padding is in it too.
    fn multi_chunk_snapshot(items: usize) -> AnySnapshot {
        let model = FactorModel::new(
            Matrix::from_vec(40, 4, (0..160).map(|v| v as f64 / 160.0).collect()),
            Matrix::from_vec(
                items,
                4,
                (0..4 * items).map(|v| (v % 97) as f64 / 97.0).collect(),
            ),
            false,
        );
        let snapshot = Snapshot::build(model, &IndexConfig::default());
        AnySnapshot::Ocular(snapshot.with_quantization(QuantDtype::I8))
    }

    /// Passes bytes through to the file until `budget` of them have gone
    /// in, then fails every write.
    struct FailAfter {
        file: std::fs::File,
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = self.file.write(&buf[..buf.len().min(self.budget)])?;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn a_save_failing_at_any_byte_is_typed_and_the_mapped_generation_keeps_answering() {
        let dir = std::env::temp_dir().join(format!("ocular-failing-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.snap");
        // the old generation: published, mapped, behind an engine
        AnySnapshot::Ocular(snapshot())
            .save_path_full(&path, None, None)
            .unwrap();
        let engine = crate::EngineBuilder::from_loaded(AnySnapshot::load_path_full(&path).unwrap())
            .dataset(ocular_sparse::Dataset::from_matrix(CsrMatrix::empty(2, 3)))
            .build()
            .unwrap();
        let request = crate::Request::Warm { user: 1, m: 2 };
        let answer = engine.serve_one(&request).unwrap();

        let next = multi_chunk_snapshot(150_000);
        let meta = sample_meta();
        let bytes = next.to_v3_bytes(None, Some(&meta)).unwrap();
        let at = |offset: usize| {
            let word: [u8; 8] = bytes[offset..offset + 8].try_into().unwrap();
            u64::from_le_bytes(word) as usize
        };
        // cut in the header, in and right after every section body (where
        // padding starts), in the table and across the footer
        let (len, table) = (bytes.len(), at(bytes.len() - 24));
        let mut cuts = vec![0, 9, 24, table + 5, len - 20, len - 8, len - 1];
        for entry in (table..len - 24).step_by(24) {
            let (offset, size) = (at(entry + 8), at(entry + 16));
            cuts.extend([offset + size / 2, offset + size, offset + size + 1]);
        }
        assert!(len > 2 * (2 << 20), "the file must span several chunks");
        for budget in cuts {
            let saved = next.publish(&path, None, Some(&meta), |file| FailAfter { file, budget });
            assert!(
                matches!(saved, Err(OcularError::Io(_))),
                "cut at {budget}: {saved:?}"
            );
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "cut at {budget}: no temporary, nothing under the path"
            );
            assert_eq!(engine.serve_one(&request).unwrap(), answer);
        }
        next.save_path_full(&path, None, Some(&meta)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_publish_a_torn_file() {
        // each save has its own temporary, so neither truncates the other's
        // or renames it into place half-written
        let dir = std::env::temp_dir().join(format!("ocular-racing-saves-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.snap");
        let make = |i: usize| match i {
            0 => AnySnapshot::Ocular(snapshot()),
            _ => multi_chunk_snapshot(5_000),
        };
        let files = [0, 1].map(|i| make(i).to_v3_bytes(None, None).unwrap());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for i in 0..2 {
                let (path, files, start) = (&path, &files, &start);
                s.spawn(move || {
                    let snap = make(i);
                    start.wait();
                    for _ in 0..50 {
                        snap.save_path_full(path, None, None).unwrap();
                        // the other save may be between its unlink and its
                        // rename, when the path names nothing
                        match std::fs::read(path) {
                            Ok(got) => assert!(files.contains(&got), "a torn file was published"),
                            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
                        }
                    }
                });
            }
        });
        let loaded = AnySnapshot::load_path_full(&path).unwrap();
        let again = loaded.snapshot.to_v3_bytes(None, None).unwrap();
        assert!(files.contains(&again));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no temporaries"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quantized_sections_round_trip_in_v3_and_are_dropped_by_text() {
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let s = snapshot().with_quantization(dtype);
            assert_eq!(s.quant.as_ref().unwrap().dtype(), dtype);
            let any = AnySnapshot::Ocular(s.clone());
            let bytes = any.to_v3_bytes(None, None).unwrap();
            let loaded = ocular(AnySnapshot::load_v3(ModelBytes::from_vec(bytes.clone())).unwrap());
            assert_eq!(loaded, s, "{dtype}: v3 round-trip must preserve quant");
            // v3 re-serialisation of the loaded snapshot is a fixed point
            let again = AnySnapshot::Ocular(loaded).to_v3_bytes(None, None).unwrap();
            assert_eq!(again, bytes, "{dtype}: v3 must be a fixed point");
        }
        // the text envelope never had a narrow copy, only the master
        assert_eq!(ocular(load_text(TEXT).unwrap()).quant, None);
    }

    #[test]
    fn unquantized_v3_snapshots_load_with_no_quant() {
        let cycled = v3_cycle(&AnySnapshot::Ocular(snapshot()), None, None);
        assert_eq!(ocular(cycled).quant, None);
    }

    #[test]
    fn bare_factor_model_rejected_in_other_arm_at_save() {
        let model = FactorModel::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            false,
        );
        let snap = AnySnapshot::Other(Box::new(model));
        let err = snap.to_v3_bytes(None, None).unwrap_err();
        assert!(
            err.to_string().contains("AnySnapshot::Ocular"),
            "saving a bare ocular payload must fail loudly: {err}"
        );
    }
}
