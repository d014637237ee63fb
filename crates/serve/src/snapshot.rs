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
//! There is no other format: a file that is not a v3 container, such as a
//! text snapshot from before v3, is a typed [`OcularError::Corrupt`].

use crate::index::{ClusterIndex, IndexConfig};
use ocular_api::binary::{SectionReader, SectionWriter, SnapshotMeta};
use ocular_api::{Model, OcularError, SnapshotModel};
use ocular_baselines::{Bpr, ItemKnn, Popularity, UserKnn, Wals};
use ocular_bytes::ModelBytes;
use ocular_core::FactorModel;
use ocular_linalg::{QuantDtype, QuantizedFactors};
use ocular_sparse::{IdMaps, RawIdTable};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Loads a snapshot file: memory-maps it and loads it zero-copy
    /// ([`AnySnapshot::load_v3`]).
    pub fn load_path_full(path: &Path) -> Result<LoadedSnapshot, OcularError> {
        Self::load_v3(ModelBytes::map_file(path)?)
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

    /// Loads the v3 container `body` writes under `kind`: checksummed and
    /// well-formed, so only the payload is on trial.
    fn load(
        kind: &str,
        body: impl FnOnce(&mut SectionWriter),
    ) -> Result<LoadedSnapshot, OcularError> {
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(kind, &mut bytes);
        body(&mut w);
        w.finish().unwrap();
        AnySnapshot::load_v3(ModelBytes::from_vec(bytes))
    }

    /// `snapshot()`'s model under a hand-written index: `rel = 0.5` keeps
    /// items {0, 1} in cluster 0 and {1, 2} in cluster 1.
    fn with_index(indptr: &[u64], items: &[u32]) -> Result<LoadedSnapshot, OcularError> {
        load(OCULAR_KIND, |w| {
            snapshot().model.write_sections(w).unwrap();
            w.put_f64s("idxrel", &[0.5]);
            w.put_u64s("idxptr", indptr);
            w.put_u32s("idxdat", items);
        })
    }

    #[test]
    fn roundtrip() {
        // model → v3 → model, with both optional sections
        let (meta, ids) = (sample_meta(), sample_ids());
        let loaded = v3_cycle(&AnySnapshot::Ocular(snapshot()), Some(&ids), Some(&meta));
        assert_eq!(loaded.ids, Some(ids));
        assert_eq!(loaded.meta, Some(meta));
        assert_eq!(ocular(loaded), snapshot());
        assert_eq!(
            ocular(with_index(&[0, 2, 4], &[0, 1, 1, 2]).unwrap()),
            snapshot()
        );
    }

    #[test]
    fn corrupt_sections_rejected() {
        // wrong envelope
        let nope = ModelBytes::from_vec(b"nope\n".to_vec());
        assert!(matches!(
            AnySnapshot::load_v3(nope),
            Err(OcularError::Corrupt(_))
        ));
        // an index over three clusters for a two-cluster model
        assert!(matches!(
            with_index(&[0, 2, 4, 4], &[0, 1, 1, 2]),
            Err(OcularError::Corrupt(_))
        ));
        // no index at all
        let bare = load(OCULAR_KIND, |w| snapshot().model.write_sections(w).unwrap());
        assert!(matches!(bare, Err(OcularError::Corrupt(_))));
    }

    #[test]
    fn list_length_mismatch_rejected() {
        // row pointers that disagree with the item array
        assert!(with_index(&[0, 3, 4], &[0, 1, 1, 2]).is_err());
        assert!(with_index(&[0, 2, 5], &[0, 1, 1, 2]).is_err());
        // out-of-order ids
        assert!(with_index(&[0, 2, 4], &[1, 0, 1, 2]).is_err());
        // an item past the catalog
        assert!(with_index(&[0, 2, 4], &[0, 1, 1, 3]).is_err());
    }

    #[test]
    fn a_declared_shape_is_never_a_capacity() {
        // metadata whose counts must never become a capacity
        let ocular = load(OCULAR_KIND, |w| {
            w.put_u64s("meta", &[1_000_000_000_000, 1, 4, 0]);
            w.put_f64s("ufact", &[]);
            w.put_f64s("ifact", &[1.0; 4]);
        });
        let wals = load(Wals::KIND, |w| {
            w.put_u64s("meta", &[1_000_000_000_000, 1, 4, 1, 0]);
            w.put_f64s("cfg", &[1e-2, 1e-2, 1e-1]);
            w.put_f64s("ufact", &[]);
            w.put_f64s("ifact", &[1.0; 4]);
            w.put_f64s("trace", &[]);
        });
        let user_knn = load(UserKnn::KIND, |w| {
            w.put_u64s("nbrptr", &[0]);
            w.put_u32s("nbridx", &[]);
            w.put_f64s("nbrsim", &[]);
            w.put_u64s("rmeta", &[1_000_000_000_000, 1]);
            w.put_u64s("rptr", &[0]);
            w.put_u32s("rcol", &[]);
        });
        for loaded in [ocular, wals, user_knn] {
            assert!(matches!(loaded, Err(OcularError::Corrupt(_))));
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
        assert!(matches!(
            load("neural-net", |_| {}),
            Err(OcularError::UnknownModelKind(k)) if k == "neural-net"
        ));
    }

    #[test]
    fn malformed_v2_headers_are_corrupt_not_misbinned() {
        // text snapshots from before v3 — well-formed or not, shorter than
        // a v3 header or longer — are corrupt, never mis-binned into a kind
        let long = format!(
            "ocular-snapshot v2 ocular\nocular-model v1 1 1 1 0\n{}",
            "1e0\n".repeat(8)
        );
        for text in [
            "ocular-snapshot v2wals\n",
            "ocular-snapshot v2.1 wals\n",
            "ocular-snapshot v2 \n",
            "ocular-snapshot v1\n",
            long.as_str(),
        ] {
            let loaded = AnySnapshot::load_v3(ModelBytes::from_vec(text.as_bytes().to_vec()));
            let Err(OcularError::Corrupt(msg)) = loaded else {
                panic!("{text:?} must be corrupt");
            };
            assert!(msg.contains("v3"), "{msg}");
        }
        let path = std::env::temp_dir().join(format!("ocular-text-era-{}", std::process::id()));
        std::fs::write(&path, &long).unwrap();
        let Err(OcularError::Corrupt(msg)) = AnySnapshot::load_path_full(&path) else {
            panic!("a text file must be corrupt by path too");
        };
        assert!(msg.contains("no longer read"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn id_maps_section_round_trips_for_ocular() {
        let loaded = v3_cycle(&AnySnapshot::Ocular(snapshot()), Some(&sample_ids()), None);
        assert_eq!(loaded.snapshot.kind(), "ocular");
        assert_eq!(loaded.ids, Some(sample_ids()));
        assert_eq!(loaded.meta, None);
        assert_eq!(ocular(loaded), snapshot());
    }

    #[test]
    fn id_maps_section_round_trips_for_baseline_kinds() {
        let r = CsrMatrix::from_pairs(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let pop = AnySnapshot::Other(Box::new(Popularity::fit(&r.into())));
        let cycled = v3_cycle(&pop, Some(&sample_ids()), None);
        assert_eq!(cycled.snapshot.kind(), "popularity");
        assert_eq!(cycled.ids, Some(sample_ids()));
    }

    #[test]
    fn snapshots_without_ids_load_with_none() {
        let cycled = v3_cycle(&AnySnapshot::Ocular(snapshot()), None, None);
        assert_eq!((cycled.ids, cycled.meta), (None, None));
    }

    #[test]
    fn corrupt_id_maps_rejected() {
        let (ut, it) = sample_ids().raw_tables();
        let with_ids = |uids: &[u64], uhk: &[u64]| {
            load(OCULAR_KIND, |w| {
                snapshot().write_sections(w).unwrap();
                w.put_u64s("uids", uids);
                w.put_u64s("iids", sample_ids().items());
                w.put_u64s("uhk", uhk);
                w.put_u32s("uhv", ut.vals());
                w.put_u64s("ihk", it.keys());
                w.put_u32s("ihv", it.vals());
            })
        };
        assert_eq!(
            with_ids(&[101, 7], ut.keys()).unwrap().ids,
            Some(sample_ids())
        );
        // duplicate external id, and an order array the table does not index
        for uids in [&[101, 101][..], &[101, 8], &[101]] {
            assert!(matches!(
                with_ids(uids, ut.keys()),
                Err(OcularError::Corrupt(_))
            ));
        }
        // a lookup table whose two halves disagree in length
        assert!(matches!(
            with_ids(&[101, 7], &ut.keys()[1..]),
            Err(OcularError::Corrupt(_))
        ));
        // an order array without its tables
        let orphan = load(OCULAR_KIND, |w| {
            snapshot().write_sections(w).unwrap();
            w.put_u64s("uids", &[101, 7]);
        });
        assert!(matches!(orphan, Err(OcularError::Corrupt(_))));
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
    fn snapshot_meta_survives_save_path() {
        let dir = std::env::temp_dir().join(format!("ocular_meta_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        AnySnapshot::Ocular(snapshot())
            .save_path_full(&path, None, Some(&sample_meta()))
            .unwrap();
        let loaded = AnySnapshot::load_path_full(&path).unwrap();
        assert_eq!(loaded.meta, Some(sample_meta()));
        assert_eq!(ocular(loaded), snapshot());
        // publishing leaves nothing but the snapshot behind
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
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
    fn quantized_sections_round_trip_in_v3() {
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
