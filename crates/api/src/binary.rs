//! The `ocular-snapshot v3` binary container — a magic-tagged,
//! checksummed, **mmap-able** section file.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset    size  field
//! 0         8     magic  "OCULAR3\0"
//! 8         16    model kind tag, NUL-padded ("ocular", "wals", …)
//! 24        …     payload sections, each starting on an 8-byte boundary
//!                 (zero-padded between sections)
//! T         24·n  section table: n entries of
//!                   { name: [u8; 8] NUL-padded, offset: u64, len: u64 }
//! len-24    8     T  (table offset)
//! len-16    8     n  (section count)
//! len-8     8     FNV-1a 64 checksum of bytes[0 .. len-8]
//! ```
//!
//! Payload sections are flat little-endian arrays of `f64`/`u64`/`u32`
//! (and `f32`/`i8` on 64-byte boundaries). Because every section starts
//! 8-aligned inside an 8-aligned region ([`ocular_bytes::ModelBytes`]), a
//! little-endian target can hand out **borrowed** typed slices over the
//! file bytes — loading a snapshot performs no per-payload allocation, and
//! N serving processes mapping the same file share one page cache.
//!
//! The trailing checksum covers the entire file, so truncation and bit
//! corruption anywhere (header, payload, table, padding) are detected at
//! open — a corrupt snapshot is a typed
//! [`OcularError::Corrupt`], never garbage scores. It is checked before any
//! other byte is read, through `read(2)` for a mapping, which so stays off
//! the resident set (an int8 catalog serves a seventh of its file) and cannot `SIGBUS`.
//!
//! [`SectionWriter`] streams the container into any [`Write`] sink —
//! the snapshot's temporary file, or a `Vec<u8>` — through one 2 MiB
//! staging chunk and one incremental checksum, so a save holds one chunk
//! of the file, never all of it; [`SectionReader`] validates and serves
//! it. Model kinds plug in through
//! [`SnapshotModel::write_sections`](crate::SnapshotModel::write_sections)
//! / [`SnapshotModel::read_sections`](crate::SnapshotModel::read_sections).

use crate::error::OcularError;
use ocular_bytes::{F32Buf, F64Buf, Fnv1a64, I8Buf, ModelBytes, Pod, PodBuf, U32Buf, U64Buf};
use std::io::Write;
use std::sync::Arc;

/// First eight bytes of every v3 binary snapshot.
pub const MAGIC: [u8; 8] = *b"OCULAR3\0";

/// Maximum kind-tag length (the header reserves a fixed field for it).
const KIND_FIELD: usize = 16;

/// Maximum section-name length (one table entry reserves 8 bytes).
const NAME_FIELD: usize = 8;

/// Bytes of the fixed header (magic + kind field).
const HEADER: usize = 8 + KIND_FIELD;

/// Bytes of the fixed footer (table offset + section count + checksum).
const FOOTER: usize = 24;

/// Whether a byte prefix starts with the v3 magic.
fn is_v3(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

fn corrupt(msg: impl Into<String>) -> OcularError {
    OcularError::Corrupt(msg.into())
}

/// Bytes the writer stages before hashing them and writing them to its
/// sink, at file offsets that are multiples of it. 2 MiB is one huge page:
/// a write that fills an aligned 2 MiB of the page cache gets one large
/// folio, so the served mapping of the file is backed by huge-page TLB
/// entries (`FilePmdMapped` in `/proc/<pid>/smaps`). Written 64 KiB at a
/// time it was not, and a 100k-item catalog request over it read 7–29 µs
/// slower (2-core x86-64 VM, Linux 6.18).
const CHUNK: usize = 2 << 20;

/// Streams a v3 container into a sink: typed `put_*` calls append aligned
/// sections, [`SectionWriter::finish`] appends the table and checksum.
///
/// Bytes are encoded into one chunk-sized staging buffer, fed to one
/// incremental FNV-1a state and written out a chunk at a time, so the file
/// is never held whole (a `Vec<u8>` sink is the in-memory case). The first
/// I/O error is kept, every later write is skipped, and `finish` returns it.
pub struct SectionWriter<'a> {
    sink: &'a mut dyn Write,
    staged: Vec<u8>,
    /// Bytes already handed to the sink: the file offset of `staged[0]`.
    flushed: u64,
    hash: Fnv1a64,
    err: Option<std::io::Error>,
    sections: Vec<([u8; NAME_FIELD], u64, u64)>,
}

impl<'a> SectionWriter<'a> {
    /// Starts a container for the given model kind tag, written to `sink`.
    ///
    /// # Panics
    /// Panics if the kind tag is empty, longer than 16 bytes, or contains
    /// NUL — kind tags are compile-time constants, so this is a
    /// programmer error, not input validation.
    pub fn new(kind: &str, sink: &'a mut dyn Write) -> SectionWriter<'a> {
        assert!(
            !kind.is_empty() && kind.len() <= KIND_FIELD && !kind.contains('\0'),
            "kind tag must be 1..=16 NUL-free bytes, got {kind:?}"
        );
        let mut staged = Vec::with_capacity(CHUNK);
        staged.extend_from_slice(&MAGIC);
        staged.extend_from_slice(kind.as_bytes());
        staged.resize(HEADER, 0);
        SectionWriter {
            sink,
            staged,
            flushed: 0,
            hash: Fnv1a64::default(),
            err: None,
            sections: Vec::new(),
        }
    }

    /// The file offset of the next byte.
    fn pos(&self) -> u64 {
        self.flushed + self.staged.len() as u64
    }

    /// Hashes and writes out the staged bytes when they fill a chunk
    /// (whatever is staged when `all`), unless a write has already failed.
    fn flush(&mut self, all: bool) {
        if self.staged.len() < CHUNK && !all {
            return;
        }
        if self.err.is_none() {
            self.hash.update(&self.staged);
            self.err = self.sink.write_all(&self.staged).err();
        }
        self.flushed += self.staged.len() as u64;
        self.staged.clear();
    }

    /// Stages bytes, flushing at every chunk boundary.
    fn stage(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let n = bytes.len().min(CHUNK - self.staged.len());
            self.staged.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            self.flush(false);
        }
    }

    /// Zero-pads the file up to a multiple of `align` (≤ 64).
    fn pad_to(&mut self, align: u64) {
        let pad = self.pos().next_multiple_of(align) - self.pos();
        self.stage(&[0; 64][..pad as usize]);
    }

    /// Appends a section of `vals`, little-endian, starting on a multiple
    /// of `align`, encoded straight into the staging buffer as many
    /// elements at a time as fill the chunk.
    fn put_pod<T: Pod>(&mut self, name: &str, vals: &[T], align: u64) {
        assert!(
            !name.is_empty() && name.len() <= NAME_FIELD && !name.contains('\0'),
            "section name must be 1..=8 NUL-free bytes, got {name:?}"
        );
        let mut tag = [0u8; NAME_FIELD];
        tag[..name.len()].copy_from_slice(name.as_bytes());
        assert!(
            self.sections.iter().all(|(n, _, _)| *n != tag),
            "duplicate section name {name:?}"
        );
        self.pad_to(align);
        let offset = self.pos();
        let mut rest = vals;
        while !rest.is_empty() {
            // the section started 8-aligned, so the room left is whole elements
            let room = (CHUNK - self.staged.len()) / T::WIDTH;
            let (part, tail) = rest.split_at(rest.len().min(room));
            let start = self.staged.len();
            self.staged.resize(start + part.len() * T::WIDTH, 0);
            for (out, &v) in self.staged[start..].chunks_exact_mut(T::WIDTH).zip(part) {
                v.put_le(out);
            }
            self.flush(false);
            rest = tail;
        }
        self.sections.push((tag, offset, self.pos() - offset));
    }

    /// Appends an `f64` array section.
    pub fn put_f64s(&mut self, name: &str, vals: &[f64]) {
        self.put_pod(name, vals, 8);
    }

    /// Appends a `u64` array section.
    pub fn put_u64s(&mut self, name: &str, vals: &[u64]) {
        self.put_pod(name, vals, 8);
    }

    /// Appends a `u32` array section.
    pub fn put_u32s(&mut self, name: &str, vals: &[u32]) {
        self.put_pod(name, vals, 8);
    }

    /// Appends an `f32` array section on a **64-byte** boundary (quantized
    /// factor payloads), so borrowed views over a 64-aligned region (owned
    /// storage and mmap pages both are) land on cache-line boundaries —
    /// the layout the blocked scoring kernels want.
    pub fn put_f32s(&mut self, name: &str, vals: &[f32]) {
        self.put_pod(name, vals, 64);
    }

    /// Appends an `i8` array section on a 64-byte boundary (int8-quantized
    /// factor payloads).
    pub fn put_i8s(&mut self, name: &str, vals: &[i8]) {
        self.put_pod(name, vals, 64);
    }

    /// Appends the section table and the trailing checksum of every byte
    /// before it, and flushes the sink: the container is complete when
    /// this returns `Ok`. The error is the first write that failed.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.pad_to(8);
        let table_offset = self.pos();
        let sections = std::mem::take(&mut self.sections);
        for (name, offset, len) in &sections {
            self.stage(name);
            self.stage(&offset.to_le_bytes());
            self.stage(&len.to_le_bytes());
        }
        self.stage(&table_offset.to_le_bytes());
        self.stage(&(sections.len() as u64).to_le_bytes());
        self.flush(true);
        if let Some(e) = self.err {
            return Err(e);
        }
        self.sink.write_all(&self.hash.finish().to_le_bytes())?;
        self.sink.flush()
    }
}

/// Live-refresh provenance carried by a snapshot: which retrain
/// **generation** produced it and a **watermark** of the source data it
/// was fitted on (shape + positives at train time). The serving tier
/// reports the generation in responses and `/stats`, and compares the
/// watermark against its (possibly delta-extended) dataset to decide
/// which users must be folded in at request time.
///
/// Stored as an optional fixed-shape `u64` section
/// ([`SnapshotMeta::SECTION`]), so pre-existing snapshots without it
/// keep loading unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Monotonically increasing retrain counter (1 = first train).
    pub generation: u64,
    /// Users in the source dataset at train time.
    pub n_users: u64,
    /// Items in the source dataset at train time.
    pub n_items: u64,
    /// Positive interactions in the source dataset at train time.
    pub nnz: u64,
}

impl SnapshotMeta {
    /// The v3 section name holding the metadata.
    pub const SECTION: &'static str = "genmeta";

    /// Appends the metadata section to a container under construction.
    pub fn write_section(&self, w: &mut SectionWriter) {
        w.put_u64s(
            Self::SECTION,
            &[self.generation, self.n_users, self.n_items, self.nnz],
        );
    }

    /// Reads the metadata section if present (`None` for snapshots that
    /// predate live refresh).
    pub fn read_section(r: &SectionReader) -> Result<Option<SnapshotMeta>, OcularError> {
        if !r.has(Self::SECTION) {
            return Ok(None);
        }
        let [generation, n_users, n_items, nnz] = r.u64_meta::<4>(Self::SECTION)?;
        Ok(Some(SnapshotMeta {
            generation,
            n_users,
            n_items,
            nnz,
        }))
    }
}

/// A validated, open v3 container serving typed section views that
/// **borrow** the underlying (possibly memory-mapped) byte region.
pub struct SectionReader {
    region: Arc<ModelBytes>,
    kind: String,
    /// `(name, byte offset, byte length)` per section.
    sections: Vec<(String, usize, usize)>,
}

fn read_u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte read"))
}

/// Decodes a NUL-padded fixed field: UTF-8 content followed only by NULs.
fn padded_str(bytes: &[u8], what: &str) -> Result<String, OcularError> {
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    if bytes[end..].iter().any(|&b| b != 0) {
        return Err(corrupt(format!("{what} field has bytes after the NUL pad")));
    }
    let s = std::str::from_utf8(&bytes[..end])
        .map_err(|_| corrupt(format!("{what} field is not UTF-8")))?;
    if s.is_empty() {
        return Err(corrupt(format!("empty {what} field")));
    }
    Ok(s.to_string())
}

impl SectionReader {
    /// Validates a byte region as a v3 container: checksum (first), magic,
    /// header fields, section-table shape and every section's bounds and
    /// alignment. Any failure is a typed [`OcularError::Corrupt`].
    pub fn open(region: ModelBytes) -> Result<SectionReader, OcularError> {
        let region = Arc::new(region);
        if region.len() < HEADER + FOOTER {
            return Err(corrupt(format!(
                "{} bytes is too short for a v3 snapshot",
                region.len()
            )));
        }
        // first, so a file shrunk under its mapping is `Corrupt`, not SIGBUS
        let mut stored = [0u8; 8];
        let computed = region.fnv1a64_with_trailer(&mut stored)?;
        let bytes = region.as_bytes();
        if !is_v3(bytes) {
            return Err(corrupt(
                "bad magic, not an ocular-snapshot v3 (text snapshots from before v3 are no \
                 longer read)",
            ));
        }
        let checksum = u64::from_le_bytes(stored);
        if checksum != computed {
            return Err(corrupt(format!(
                "checksum mismatch: file says {checksum:#018x}, content hashes to {computed:#018x} \
                 (truncated or corrupt snapshot)"
            )));
        }
        let kind = padded_str(&bytes[8..HEADER], "kind")?;
        let table_offset = read_u64_at(bytes, bytes.len() - FOOTER);
        let n_sections = read_u64_at(bytes, bytes.len() - 16);
        let table_offset = usize::try_from(table_offset)
            .ok()
            .filter(|&t| t >= HEADER && t % 8 == 0 && t <= bytes.len() - FOOTER)
            .ok_or_else(|| corrupt("section table offset out of range"))?;
        let table_bytes = bytes.len() - FOOTER - table_offset;
        if table_bytes % 24 != 0 || n_sections != (table_bytes / 24) as u64 {
            return Err(corrupt(format!(
                "section table of {table_bytes} bytes does not hold {n_sections} entries"
            )));
        }
        let mut sections = Vec::with_capacity(table_bytes / 24);
        for e in 0..table_bytes / 24 {
            let at = table_offset + e * 24;
            let name = padded_str(&bytes[at..at + NAME_FIELD], "section name")?;
            let offset = read_u64_at(bytes, at + 8);
            let len = read_u64_at(bytes, at + 16);
            let offset = usize::try_from(offset)
                .ok()
                .filter(|&o| o >= HEADER && o % 8 == 0)
                .ok_or_else(|| corrupt(format!("section `{name}` offset out of range")))?;
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| offset.checked_add(l).is_some_and(|end| end <= table_offset))
                .ok_or_else(|| corrupt(format!("section `{name}` exceeds the payload area")))?;
            if sections.iter().any(|(n, _, _)| n == &name) {
                return Err(corrupt(format!("duplicate section `{name}`")));
            }
            sections.push((name, offset, len));
        }
        Ok(SectionReader {
            region,
            kind,
            sections,
        })
    }

    /// The container's model kind tag.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Whether a section is present.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _, _)| n == name)
    }

    /// The names of all sections, in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    fn find(&self, name: &str) -> Result<(usize, usize), OcularError> {
        self.sections
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, offset, len)| (offset, len))
            .ok_or_else(|| corrupt(format!("missing section `{name}`")))
    }

    fn pods<T: Pod>(&self, name: &str) -> Result<PodBuf<T>, OcularError> {
        let (offset, len) = self.find(name)?;
        if len % T::WIDTH != 0 {
            return Err(corrupt(format!(
                "section `{name}` of {len} bytes is not a whole number of {}-byte elements",
                T::WIDTH
            )));
        }
        PodBuf::from_region(&self.region, offset, len / T::WIDTH)
            .map_err(|e| corrupt(format!("section `{name}`: {e}")))
    }

    /// A (zero-copy where possible) `f64` view of a section.
    pub fn f64s(&self, name: &str) -> Result<F64Buf, OcularError> {
        self.pods(name)
    }

    /// A (zero-copy where possible) `u64` view of a section.
    pub fn u64s(&self, name: &str) -> Result<U64Buf, OcularError> {
        self.pods(name)
    }

    /// A (zero-copy where possible) `u32` view of a section.
    pub fn u32s(&self, name: &str) -> Result<U32Buf, OcularError> {
        self.pods(name)
    }

    /// A (zero-copy where possible) `f32` view of a section.
    pub fn f32s(&self, name: &str) -> Result<F32Buf, OcularError> {
        self.pods(name)
    }

    /// A (zero-copy where possible) `i8` view of a section.
    pub fn i8s(&self, name: &str) -> Result<I8Buf, OcularError> {
        self.pods(name)
    }

    /// Reads a fixed-shape `u64` metadata section into a small owned
    /// array, validating the element count — the conventional shape of
    /// each kind's `meta` section.
    pub fn u64_meta<const N: usize>(&self, name: &str) -> Result<[u64; N], OcularError> {
        let buf = self.u64s(name)?;
        let slice: &[u64] = &buf;
        <[u64; N]>::try_from(slice).map_err(|_| {
            corrupt(format!(
                "section `{name}` holds {} values, expected {N}",
                buf.len()
            ))
        })
    }

    /// Reads a fixed-shape `f64` metadata section, validating the count.
    pub fn f64_meta<const N: usize>(&self, name: &str) -> Result<[f64; N], OcularError> {
        let buf = self.f64s(name)?;
        let slice: &[f64] = &buf;
        <[f64; N]>::try_from(slice).map_err(|_| {
            corrupt(format!(
                "section `{name}` holds {} values, expected {N}",
                buf.len()
            ))
        })
    }

    /// Converts a `u64` metadata value into a `usize` shape, rejecting
    /// values outside the platform's address space.
    pub fn shape(value: u64, what: &str) -> Result<usize, OcularError> {
        usize::try_from(value).map_err(|_| corrupt(format!("{what} {value} exceeds usize")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_bytes::fnv1a64;

    /// The container `body` writes, streamed into memory.
    fn encode(kind: &str, body: impl FnOnce(&mut SectionWriter)) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(kind, &mut bytes);
        body(&mut w);
        w.finish().unwrap();
        bytes
    }

    fn open(bytes: Vec<u8>) -> SectionReader {
        SectionReader::open(ModelBytes::from_vec(bytes)).unwrap()
    }

    fn sample() -> Vec<u8> {
        encode("test-kind", |w| {
            w.put_u64s("meta", &[3, 4]);
            w.put_f64s("facts", &[1.5, -2.0, 1e-300]);
            w.put_u32s("ids", &[7, 8, 9, 10, 11]);
        })
    }

    #[test]
    fn writer_reader_round_trip() {
        let bytes = sample();
        assert!(is_v3(&bytes));
        let r = SectionReader::open(ModelBytes::from_vec(bytes)).unwrap();
        assert_eq!(r.kind(), "test-kind");
        assert_eq!(r.u64_meta::<2>("meta").unwrap(), [3, 4]);
        assert_eq!(&*r.f64s("facts").unwrap(), &[1.5, -2.0, 1e-300]);
        assert_eq!(&*r.u32s("ids").unwrap(), &[7, 8, 9, 10, 11]);
        assert!(r.has("ids"));
        assert!(!r.has("nope"));
        assert_eq!(r.section_names(), vec!["meta", "facts", "ids"]);
        // zero-copy on little-endian targets
        if cfg!(target_endian = "little") {
            assert!(r.f64s("facts").unwrap().is_shared());
        }
        assert!(matches!(
            r.f64s("nope"),
            Err(OcularError::Corrupt(msg)) if msg.contains("missing section")
        ));
        // wrong element width rejected (20 bytes of u32)
        assert!(r.f64s("ids").is_err());
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample();
        for keep in 0..bytes.len() {
            let partial = ModelBytes::from_vec(bytes[..keep].to_vec());
            assert!(
                matches!(SectionReader::open(partial), Err(OcularError::Corrupt(_))),
                "truncation to {keep} bytes must be rejected"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1;
            assert!(
                SectionReader::open(ModelBytes::from_vec(flipped)).is_err(),
                "bit flip at byte {byte} must be rejected"
            );
        }
    }

    #[test]
    fn snapshot_meta_round_trips_and_is_optional() {
        let meta = SnapshotMeta {
            generation: 3,
            n_users: 10,
            n_items: 20,
            nnz: 55,
        };
        let r = open(encode("k", |w| {
            w.put_u64s("meta", &[1]);
            meta.write_section(w);
        }));
        assert_eq!(SnapshotMeta::read_section(&r).unwrap(), Some(meta));

        // absent section -> None, not an error
        let r = open(encode("k", |w| w.put_u64s("meta", &[1])));
        assert_eq!(SnapshotMeta::read_section(&r).unwrap(), None);

        // wrong shape -> typed corruption error
        let r = open(encode("k", |w| w.put_u64s(SnapshotMeta::SECTION, &[1, 2])));
        assert!(SnapshotMeta::read_section(&r).is_err());
    }

    #[test]
    fn f32_and_i8_sections_round_trip_on_64_byte_boundaries() {
        let r = open(encode("quant", |w| {
            w.put_u64s("meta", &[2, 3]);
            w.put_f32s("if32", &[0.5f32, -1.25, 3.0, 0.0, 9.75, 2.5]);
            w.put_i8s("ii8", &[-128i8, -7, 0, 7, 127, 1]);
            w.put_f32s("i8scl", &[0.01f32, 0.02]);
        }));
        let f = r.f32s("if32").unwrap();
        assert_eq!(&*f, &[0.5f32, -1.25, 3.0, 0.0, 9.75, 2.5]);
        let q = r.i8s("ii8").unwrap();
        assert_eq!(&*q, &[-128i8, -7, 0, 7, 127, 1]);
        assert_eq!(&*r.f32s("i8scl").unwrap(), &[0.01f32, 0.02]);
        if cfg!(target_endian = "little") {
            assert!(f.is_shared(), "f32 sections must borrow the region");
            assert!(q.is_shared(), "i8 sections must borrow the region");
            // quantized sections start on cache-line boundaries inside the
            // 64-aligned region
            assert_eq!(f.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(q.as_slice().as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn empty_container_is_valid() {
        let r = open(encode("k", |_| {}));
        assert_eq!(r.kind(), "k");
        assert!(r.section_names().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate section")]
    fn duplicate_sections_panic_in_writer() {
        encode("k", |w| {
            w.put_u64s("a", &[1]);
            w.put_u64s("a", &[2]);
        });
    }

    #[test]
    fn garbage_rejected() {
        for doc in [
            &b""[..],
            &b"OCULAR3\0"[..],
            &b"ocular-snapshot v2 wals\n..."[..],
            &[0u8; 64][..],
        ] {
            assert!(SectionReader::open(ModelBytes::from_vec(doc.to_vec())).is_err());
        }
    }

    /// A sink that takes at most `max` bytes per `write` call and fails
    /// once `budget` bytes have gone in.
    struct Trickle<'v> {
        out: &'v mut Vec<u8>,
        max: usize,
        budget: usize,
    }

    impl Write for Trickle<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("sink full"));
            }
            let n = buf.len().min(self.max).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The layout written the obvious way — the whole file in memory, one
    /// checksum at the end: the oracle the streaming writer must match.
    /// Sections are `(name, little-endian payload, alignment)`.
    fn one_shot(kind: &str, sections: &[(&str, Vec<u8>, usize)]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(kind.as_bytes());
        out.resize(HEADER, 0);
        let mut table = Vec::new();
        for (name, payload, align) in sections {
            while out.len() % 8 != 0 || out.len() % align != 0 {
                out.push(0);
            }
            let mut tag = [0u8; NAME_FIELD];
            tag[..name.len()].copy_from_slice(name.as_bytes());
            table.extend_from_slice(&tag);
            table.extend_from_slice(&(out.len() as u64).to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        while out.len() % 8 != 0 {
            out.push(0);
        }
        let table_offset = out.len() as u64;
        out.extend_from_slice(&table);
        out.extend_from_slice(&table_offset.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u64).to_le_bytes());
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn streamed_sections_equal_the_one_shot_layout_across_chunk_boundaries() {
        // every width, sections several chunks long, odd lengths so padding
        // lands mid-chunk, and a sink that takes 7 bytes per call
        let f: Vec<f64> = (0..300_001).map(|i| i as f64 * 0.37 - 11.0).collect();
        let u: Vec<u32> = (0..400_003u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let q: Vec<i8> = (0..1_000_001).map(|i| (i % 251) as i8).collect();
        let g: Vec<f32> = (0..250_003).map(|i| i as f32 / 7.0).collect();
        let le = |bytes: Vec<[u8; 8]>| -> Vec<u8> { bytes.concat() };
        let expected = one_shot(
            "big",
            &[
                ("meta", le(vec![9u64.to_le_bytes()]), 8),
                ("f", le(f.iter().map(|v| v.to_le_bytes()).collect()), 8),
                ("u", u.iter().flat_map(|v| v.to_le_bytes()).collect(), 8),
                ("q", q.iter().map(|&v| v as u8).collect(), 64),
                (
                    "ids",
                    [7u32, 8, 9].iter().flat_map(|v| v.to_le_bytes()).collect(),
                    8,
                ),
                ("g", g.iter().flat_map(|v| v.to_le_bytes()).collect(), 64),
            ],
        );
        let body = |w: &mut SectionWriter| {
            w.put_u64s("meta", &[9]);
            w.put_f64s("f", &f);
            w.put_u32s("u", &u);
            w.put_i8s("q", &q);
            w.put_u32s("ids", &[7, 8, 9]);
            w.put_f32s("g", &g);
        };
        assert!(expected.len() > 2 * CHUNK);
        assert_eq!(encode("big", body), expected);
        let mut trickled = Vec::new();
        let mut sink = Trickle {
            out: &mut trickled,
            max: 7,
            budget: usize::MAX,
        };
        let mut w = SectionWriter::new("big", &mut sink);
        body(&mut w);
        w.finish().unwrap();
        assert_eq!(trickled, expected);
    }

    #[test]
    fn a_failing_sink_is_a_sticky_error_out_of_finish() {
        let bytes = sample();
        for budget in 0..=bytes.len() {
            let mut got = Vec::new();
            let mut sink = Trickle {
                out: &mut got,
                max: usize::MAX,
                budget,
            };
            let mut w = SectionWriter::new("test-kind", &mut sink);
            w.put_u64s("meta", &[3, 4]);
            w.put_f64s("facts", &[1.5, -2.0, 1e-300]);
            w.put_u32s("ids", &[7, 8, 9, 10, 11]);
            assert_eq!(w.finish().is_ok(), budget == bytes.len(), "budget {budget}");
            assert_eq!(got, bytes[..budget], "budget {budget}");
        }
    }
}
