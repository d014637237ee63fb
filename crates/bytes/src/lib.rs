//! # ocular-bytes
//!
//! Byte-region primitives for **zero-copy model persistence** — the
//! foundation of the `ocular-snapshot v3` binary format.
//!
//! * [`ModelBytes`] — an immutable, 8-byte-aligned byte region that is
//!   either **owned** (read or assembled in memory) or **memory-mapped**
//!   read-only from a file. Mapping makes engine start-up O(1) in model
//!   size and lets every serve process on a host share one page cache.
//! * [`F64Buf`] / [`U64Buf`] / [`U32Buf`] / [`F32Buf`] / [`I8Buf`] —
//!   typed slices that either own a
//!   `Vec<T>` or **borrow** a range of a shared [`ModelBytes`] region.
//!   Large model payloads (factor matrices, cluster-index CSR arrays,
//!   id-map tables) live in these, so loading a binary snapshot
//!   reinterprets file bytes in place instead of re-allocating.
//!   A mapped region keeps its file open to checksum it through `read(2)`,
//!   so only pages a request reads become resident.
//! * [`fnv1a64`] — the checksum/hash primitive shared by the snapshot
//!   container (trailing integrity checksum) and the id-map raw hash
//!   tables; [`Fnv1a64`] is its incremental form.
//!
//! This crate holds the workspace's `unsafe` code — the mmap syscall
//! wrapper, the `&[u8]` → `&[T]` reinterpretation, and the
//! `epoll`/`eventfd`/signal wrappers behind the network serving tier
//! ([`net`], Linux only) — with one exception outside it: the call into
//! `ocular-linalg`'s AVX2 kernel stamp (`quant::avx2`), which has to sit
//! next to the kernels it enters. Every unsafe block is small and
//! carries a SAFETY comment; every other crate above this one keeps
//! `#![forbid(unsafe_code)]`.
//!
//! Zero-copy reinterpretation is only performed on little-endian targets
//! whose region satisfies the type's alignment (the owned backing store
//! is 64-byte aligned, mmap bases are page aligned, and the container's
//! section layout guarantees 8-byte element alignment).
//! On big-endian targets the typed constructors transparently fall back
//! to decoding an owned copy, so the on-disk format is portable while the
//! fast path costs nothing where it matters.

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod net;

use std::sync::Arc;

/// Incremental FNV-1a 64: bytes fed in any split hash as one [`fnv1a64`]
/// over their concatenation — how a file never held whole is checksummed.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Feeds the next bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash/checksum over a byte slice ([`Fnv1a64`] in one call).
///
/// Used as the v3 snapshot container's trailing integrity checksum and as
/// the bucket hash of the id-map raw tables. Not cryptographic — it
/// detects truncation and bit corruption, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a64`] of one `u64` key's little-endian bytes — the id-map raw
/// tables' bucket hash, shared by the writer and the prober so the table
/// layout is part of the on-disk contract.
#[inline]
pub fn fnv1a64_key(key: u64) -> u64 {
    fnv1a64(&key.to_le_bytes())
}

/// Owned byte storage whose base address is 64-byte aligned (backed by an
/// over-allocated `Vec<u64>` with the base nudged up to a cache-line
/// boundary), so typed views satisfy `f64`/`u64` alignment and blocked
/// scoring kernels see cache-line-aligned factor rows, matching the
/// page-aligned mmap path.
struct AlignedBytes {
    words: Vec<u64>,
    /// Byte offset of the first payload byte within `words` (base is
    /// 8-aligned; skipping `skip` bytes lands on a 64-byte boundary).
    skip: usize,
    len: usize,
}

impl AlignedBytes {
    fn from_bytes(bytes: &[u8]) -> AlignedBytes {
        // 7 spare words guarantee a 64-aligned base within the allocation
        let n_words = bytes.len().div_ceil(8) + 7;
        let mut words = vec![0u64; n_words];
        let base = words.as_ptr() as usize;
        let skip = base.next_multiple_of(64) - base;
        if !bytes.is_empty() {
            // SAFETY: `words` owns `n_words * 8` initialised bytes and u64
            // has no invalid bit patterns; we only copy raw bytes in.
            #[allow(unsafe_code)]
            let dst = unsafe {
                std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), n_words * 8)
            };
            dst[skip..skip + bytes.len()].copy_from_slice(bytes);
        }
        AlignedBytes {
            words,
            skip,
            len: bytes.len(),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: the Vec owns at least `skip + len` initialised bytes
        // (`skip + len <= words.len() * 8` by construction) and u8 has
        // alignment 1.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>().add(self.skip), self.len)
        }
    }
}

/// Read-only memory mapping of a whole file (Linux/Unix 64-bit only; the
/// portable fallback reads the file into owned memory instead).
#[cfg(all(unix, target_pointer_width = "64"))]
mod mapping {
    use core::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    // Bound directly against libc's symbols (always linked by std on
    // unix) instead of adding a dependency. Constants per POSIX/Linux;
    // `MAP_PRIVATE` and `PROT_READ` share values across the unix family.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An owned read-only mapping; unmapped on drop.
    pub(crate) struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated or remapped after
    // construction, so shared references to its bytes are safe to send and
    // share across threads.
    #[allow(unsafe_code)]
    unsafe impl Send for Mmap {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` read-only in full. Fails on empty files (mmap of
        /// length 0 is invalid) — callers fall back to an owned read.
        pub(crate) fn map(file: &File) -> std::io::Result<Mmap> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large")
            })?;
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: requesting a fresh PROT_READ private mapping of a
            // valid open fd; the kernel picks the address. The result is
            // checked against MAP_FAILED before use.
            #[allow(unsafe_code)]
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as usize == usize::MAX {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        pub(crate) fn as_bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `drop` unmaps it; `&self` borrows keep it
            // alive. Page alignment satisfies every primitive alignment.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len)
            }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this struct owns, once.
            #[allow(unsafe_code)]
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum RegionRepr {
    Owned(AlignedBytes),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapping::Mmap, std::fs::File),
}

/// An immutable byte region holding a binary model snapshot — **owned or
/// memory-mapped** — with a 64-byte-aligned base address either way
/// (owned storage is nudged to a cache-line boundary; mappings are page
/// aligned).
///
/// The owned form backs in-memory round-trips and the portable fallback;
/// the mapped form is the zero-copy serving path: `N` engine processes
/// mapping the same snapshot share one page cache, and start-up touches
/// no per-model heap allocations for the large payloads.
pub struct ModelBytes {
    repr: RegionRepr,
}

impl ModelBytes {
    /// Wraps owned bytes (copied once into 64-aligned storage).
    pub fn from_vec(bytes: Vec<u8>) -> ModelBytes {
        ModelBytes {
            repr: RegionRepr::Owned(AlignedBytes::from_bytes(&bytes)),
        }
    }

    /// Reads a whole file into an owned region.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<ModelBytes> {
        Ok(ModelBytes::from_vec(std::fs::read(path)?))
    }

    /// Maps a file read-only when the platform supports it, falling back
    /// to [`ModelBytes::read_file`] (empty files, unsupported targets).
    pub fn map_file(path: &std::path::Path) -> std::io::Result<ModelBytes> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = std::fs::File::open(path)?;
            match mapping::Mmap::map(&file) {
                Ok(m) => Ok(ModelBytes {
                    repr: RegionRepr::Mapped(m, file),
                }),
                Err(_) => ModelBytes::read_file(path),
            }
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        ModelBytes::read_file(path)
    }

    /// The region's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            RegionRepr::Owned(b) => b.as_bytes(),
            #[cfg(all(unix, target_pointer_width = "64"))]
            RegionRepr::Mapped(m, _) => m.as_bytes(),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the region is a file mapping (as opposed to owned memory).
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            RegionRepr::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            RegionRepr::Mapped(..) => true,
        }
    }

    /// [`fnv1a64`] of every byte but the last `trailer.len()`, which it
    /// copies into `trailer`. A mapping is read through its file, 128 KiB
    /// per `read(2)`, so hashing faults in none of it, and a file now
    /// shorter than its mapping is `InvalidData` naming both lengths, not `SIGBUS`.
    pub fn fnv1a64_with_trailer(&self, trailer: &mut [u8]) -> std::io::Result<u64> {
        let body = self.len() - trailer.len();
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let RegionRepr::Mapped(_, file) = &self.repr {
            use std::{io::Error, io::ErrorKind, os::unix::fs::FileExt};
            let shrunk = |e: Error| match file.metadata() {
                Ok(f) if e.kind() == ErrorKind::UnexpectedEof => Error::new(
                    ErrorKind::InvalidData,
                    format!("file is {} bytes, was {} when mapped", f.len(), self.len()),
                ),
                _ => e,
            };
            let (mut stage, mut hash) = (vec![0u8; body.min(HASH_STAGE)], Fnv1a64::default());
            for at in (0..body).step_by(HASH_STAGE) {
                let part = &mut stage[..(body - at).min(HASH_STAGE)];
                file.read_exact_at(part, at as u64).map_err(shrunk)?;
                hash.update(part);
            }
            file.read_exact_at(trailer, body as u64).map_err(shrunk)?;
            return Ok(hash.finish());
        }
        trailer.copy_from_slice(&self.as_bytes()[body..]);
        Ok(fnv1a64(&self.as_bytes()[..body]))
    }
}

/// Bytes per `read(2)` of [`ModelBytes::fnv1a64_with_trailer`]: about an L2.
const HASH_STAGE: usize = 128 << 10;

impl std::fmt::Debug for ModelBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Plain-old-data element types a [`PodBuf`] can view: fixed-width,
/// alignment ≤ 8, no invalid bit patterns, stored little-endian on disk.
/// Sealed — exactly `f64`, `u64`, `u32`, `f32` and `i8`.
pub trait Pod: sealed::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Element width in bytes.
    const WIDTH: usize;
    /// Decodes one element from its little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Writes the element's little-endian bytes into `WIDTH`-byte `out`
    /// (`#[inline]`: the snapshot writer calls it once per element).
    fn put_le(self, out: &mut [u8]);
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}

        impl Pod for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn from_le(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(bytes.try_into().expect("width-checked chunk"))
            }
            #[inline]
            fn put_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_pod!(f64, u64, u32, f32, i8);

enum BufRepr<T: Pod> {
    Owned(Vec<T>),
    Shared {
        region: Arc<ModelBytes>,
        /// Byte offset of the first element within the region.
        offset: usize,
        /// Element count.
        len: usize,
    },
}

/// A typed slice that either owns its elements or **borrows** them from a
/// shared [`ModelBytes`] region — the owned-or-borrowed abstraction the
/// zero-copy load path threads through factor matrices, cluster indices
/// and id maps. Dereferences to `&[T]` either way.
pub struct PodBuf<T: Pod> {
    repr: BufRepr<T>,
}

/// `f64` payload buffer (factor matrices, score tables, objective traces).
pub type F64Buf = PodBuf<f64>;
/// `u64` payload buffer (external-id tables, CSR row pointers).
pub type U64Buf = PodBuf<u64>;
/// `u32` payload buffer (item-index lists, id-map table values).
pub type U32Buf = PodBuf<u32>;
/// `f32` payload buffer (quantized factor matrices, per-row scales).
pub type F32Buf = PodBuf<f32>;
/// `i8` payload buffer (int8-quantized factor matrices).
pub type I8Buf = PodBuf<i8>;

impl<T: Pod> PodBuf<T> {
    /// A typed view of `n` elements starting `byte_offset` bytes into the
    /// region. Zero-copy (keeps an `Arc` to the region) when the target is
    /// little-endian and the address satisfies `T`'s alignment; otherwise
    /// decodes an owned copy. Errors when the range exceeds the region.
    pub fn from_region(
        region: &Arc<ModelBytes>,
        byte_offset: usize,
        n: usize,
    ) -> Result<PodBuf<T>, String> {
        let n_bytes = n
            .checked_mul(T::WIDTH)
            .ok_or_else(|| "section element count overflows".to_string())?;
        let end = byte_offset
            .checked_add(n_bytes)
            .ok_or_else(|| "section range overflows".to_string())?;
        if end > region.len() {
            return Err(format!(
                "section range {byte_offset}..{end} exceeds region of {} bytes",
                region.len()
            ));
        }
        let base = region.as_bytes()[byte_offset..end].as_ptr();
        if cfg!(target_endian = "little") && (base as usize) % std::mem::align_of::<T>() == 0 {
            Ok(PodBuf {
                repr: BufRepr::Shared {
                    region: Arc::clone(region),
                    offset: byte_offset,
                    len: n,
                },
            })
        } else {
            // portable fallback: decode little-endian elements
            let bytes = &region.as_bytes()[byte_offset..end];
            let vals = bytes.chunks_exact(T::WIDTH).map(T::from_le).collect();
            Ok(PodBuf {
                repr: BufRepr::Owned(vals),
            })
        }
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            BufRepr::Owned(v) => v,
            BufRepr::Shared {
                region,
                offset,
                len,
            } => {
                let bytes = &region.as_bytes()[*offset..*offset + *len * T::WIDTH];
                // SAFETY: constructed only on little-endian targets with
                // `bytes.as_ptr()` aligned for `T` (checked in
                // `from_region`), covering exactly `len` elements of a
                // type with no invalid bit patterns; the borrow of
                // `region` through `&self` keeps the mapping alive.
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), *len)
                }
            }
        }
    }

    /// Whether the buffer borrows a shared region (zero-copy) rather than
    /// owning its elements.
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, BufRepr::Shared { .. })
    }

    /// Mutable access, promoting a shared buffer to an owned copy first
    /// (copy-on-write; shared regions are immutable).
    pub fn make_owned(&mut self) -> &mut Vec<T> {
        if let BufRepr::Shared { .. } = self.repr {
            self.repr = BufRepr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            BufRepr::Owned(v) => v,
            BufRepr::Shared { .. } => unreachable!("promoted above"),
        }
    }

    /// Consumes the buffer into an owned `Vec` (copies when shared).
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(self.make_owned())
    }
}

impl<T: Pod> From<Vec<T>> for PodBuf<T> {
    fn from(v: Vec<T>) -> PodBuf<T> {
        PodBuf {
            repr: BufRepr::Owned(v),
        }
    }
}

impl<T: Pod> Default for PodBuf<T> {
    fn default() -> Self {
        PodBuf {
            repr: BufRepr::Owned(Vec::new()),
        }
    }
}

impl<T: Pod> std::ops::Deref for PodBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for PodBuf<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            BufRepr::Owned(v) => PodBuf {
                repr: BufRepr::Owned(v.clone()),
            },
            BufRepr::Shared {
                region,
                offset,
                len,
            } => PodBuf {
                repr: BufRepr::Shared {
                    region: Arc::clone(region),
                    offset: *offset,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod> PartialEq for PodBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> std::fmt::Debug for PodBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PodBuf")
            .field("len", &self.as_slice().len())
            .field("shared", &self.is_shared())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // classic FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_fnv_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        for split in 0..=bytes.len() {
            let mut h = Fnv1a64::default();
            h.update(&bytes[..split]);
            h.update(&[]);
            h.update(&bytes[split..]);
            assert_eq!(h.finish(), fnv1a64(&bytes), "split at {split}");
        }
    }

    #[test]
    fn owned_region_round_trips_bytes() {
        let bytes: Vec<u8> = (0..23u8).collect();
        let region = ModelBytes::from_vec(bytes.clone());
        assert_eq!(region.as_bytes(), &bytes[..]);
        assert_eq!(region.len(), 23);
        assert!(!region.is_mapped());
        // base address is cache-line-aligned so typed views can borrow
        // and blocked kernels see 64-aligned rows
        assert_eq!(region.as_bytes().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn owned_region_base_is_64_aligned_across_sizes() {
        for len in [1usize, 7, 8, 63, 64, 65, 4096 + 13] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let region = ModelBytes::from_vec(bytes.clone());
            assert_eq!(
                region.as_bytes().as_ptr() as usize % 64,
                0,
                "len {len}: owned base must be 64-aligned"
            );
            assert_eq!(region.as_bytes(), &bytes[..]);
        }
    }

    #[test]
    fn f32_and_i8_views_borrow_and_decode() {
        let mut bytes = Vec::new();
        for v in [1.5f32, -0.25, 3.0e10] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [-128i8, -1, 0, 127] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region = Arc::new(ModelBytes::from_vec(bytes));
        let f = F32Buf::from_region(&region, 0, 3).unwrap();
        assert_eq!(&*f, &[1.5f32, -0.25, 3.0e10]);
        assert_eq!(f.is_shared(), cfg!(target_endian = "little"));
        let q = I8Buf::from_region(&region, 12, 4).unwrap();
        assert_eq!(&*q, &[-128i8, -1, 0, 127]);
        // out-of-range rejected
        assert!(I8Buf::from_region(&region, 12, 5).is_err());
    }

    #[test]
    fn empty_region() {
        let region = ModelBytes::from_vec(Vec::new());
        assert!(region.is_empty());
        assert_eq!(region.as_bytes(), &[] as &[u8]);
    }

    #[test]
    fn typed_views_borrow_and_decode() {
        let vals = [1.5f64, -2.25, 1e300, f64::MIN_POSITIVE];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&7u32.to_le_bytes());
        let region = Arc::new(ModelBytes::from_vec(bytes));
        let f = F64Buf::from_region(&region, 0, 4).unwrap();
        assert_eq!(&*f, &vals);
        assert_eq!(f.is_shared(), cfg!(target_endian = "little"));
        let u = U32Buf::from_region(&region, 32, 1).unwrap();
        assert_eq!(&*u, &[7]);
        // out-of-range rejected
        assert!(F64Buf::from_region(&region, 0, 5).is_err());
        assert!(U32Buf::from_region(&region, 36, 1).is_err());
    }

    #[test]
    fn make_owned_promotes_and_preserves() {
        let mut bytes = Vec::new();
        for v in [10u64, 20, 30] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region = Arc::new(ModelBytes::from_vec(bytes));
        let mut buf = U64Buf::from_region(&region, 0, 3).unwrap();
        let snapshot = buf.to_vec();
        buf.make_owned().push(40);
        assert!(!buf.is_shared());
        assert_eq!(&buf[..3], &snapshot[..]);
        assert_eq!(buf.into_vec(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn map_file_round_trips_and_reports_mapping() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ocular-bytes-test-{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096 + 13).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = ModelBytes::map_file(&path).unwrap();
        assert_eq!(mapped.as_bytes(), &payload[..]);
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(mapped.is_mapped());
        }
        let read = ModelBytes::read_file(&path).unwrap();
        assert_eq!(read.as_bytes(), mapped.as_bytes());
        assert!(!read.is_mapped());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_with_trailer_is_the_same_owned_and_mapped_across_read_boundaries() {
        let path =
            std::env::temp_dir().join(format!("ocular-bytes-fnv-{}.bin", std::process::id()));
        for len in [8, 9, HASH_STAGE, HASH_STAGE + 8, 2 * HASH_STAGE + 13] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            std::fs::write(&path, &payload).unwrap();
            let body = len - 8;
            for region in [
                ModelBytes::map_file(&path).unwrap(),
                ModelBytes::from_vec(payload.clone()),
            ] {
                let mut trailer = [0u8; 8];
                let hash = region.fnv1a64_with_trailer(&mut trailer).unwrap();
                assert_eq!(hash, fnv1a64(&payload[..body]), "len {len} {region:?}");
                assert_eq!(trailer, payload[body..], "len {len} {region:?}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn map_file_of_empty_file_falls_back_to_owned() {
        let path =
            std::env::temp_dir().join(format!("ocular-bytes-empty-{}.bin", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let region = ModelBytes::map_file(&path).unwrap();
        assert!(region.is_empty());
        assert!(!region.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
