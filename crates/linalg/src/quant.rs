//! Quantized factor representations and blocked scoring kernels.
//!
//! The serving tier scores `⟨f_u, f_i⟩` over every catalog item (or a
//! cluster candidate set). The master factors are `f64` — training and
//! fold-in need the precision — but recall@K is insensitive to low-order
//! mantissa bits, so serving can run on narrower types:
//!
//! * **f32** — the master rows rounded to single precision, half the
//!   memory traffic of `f64`;
//! * **int8** — affine per-row quantization `v ≈ scale·q + zero` with
//!   `q ∈ [-127, 127]`, an eighth of the traffic, scored through an
//!   `i32`-accumulated integer dot plus a closed-form affine
//!   reconstruction.
//!
//! A [`QuantizedFactors`] holds the item matrix in one of those dtypes,
//! SoA in [`ocular_bytes`] buffers that either own their memory
//! (64-byte-aligned) or borrow it zero-copy from an mmap'd snapshot
//! region, exactly like the `f64` master. [`QuantizedFactors::score_block`]
//! scores a contiguous run of item rows into a caller buffer, processing
//! items in cache-sized tiles with unrolled accumulator lanes so LLVM
//! auto-vectorizes the inner loops — no intrinsics, verified by the
//! workspace benches.
//!
//! # Kernel levels
//!
//! The tile kernels are one source body compiled once per ISA level
//! ([`KernelLevel`]): the x86-64 **baseline** (SSE2, every x86-64 CPU, and
//! the only level on other architectures) and **AVX2**, the same loops
//! under `#[target_feature(enable = "avx2")]` so LLVM vectorizes them at
//! 256 bits. The level is detected once per process and picked per
//! [`QuantizedFactors::score_block`] call — automatically, with nothing
//! to configure. Both levels write the same bits: the int8 dot is an
//! integer sum (exact in any lane order), and the f32 dot fixes its own
//! add order with explicit lane accumulators that the vector width does
//! not change; neither level fuses a multiply into an add. The property
//! tests in `tests/proptest_linalg.rs` pin that.
//!
//! # Sparse queries
//!
//! An OCuLaR user belongs to a few co-clusters, so most codes of an int8
//! query row are one value `b`, the code zero maps to. With
//! `A = {c : q_u[c] ≠ b}`,
//! `Σ_c q_u[c]·q_i[c] = b·qsum_i + Σ_{c∈A} (q_u[c] − b)·q_i[c]` is an
//! integer identity, so a block carrying a factor-major copy of its codes
//! ([`QuantizedFactors::with_factor_major`]) forms the same `i32` dot from
//! `|A|` contiguous column runs instead of `k` products per row, then runs
//! the same float epilogue: the same bits, by construction and by test.
//! The copy keeps every row's `qsum_i` as an `i32` too ([`FactorMajor`]),
//! so each tile starts from `b·sum` in one vector multiply: starting from
//! the stored `f32` sum cost a float→int `as` cast per row, which
//! saturates and which LLVM leaves scalar — ≈ 100 of the ≈ 180 µs the AVX2
//! bare kernel took at 100k rows × `k = 64`, `|A| = 4`. Each column's
//! `δ·q_i[c]` (at most 254·128) is formed in `i16`, which the baseline
//! level multiplies 8 wide; it has no `i32` lane multiply. Per 100k rows
//! the arm costs ≈ 63 + 9·|A| µs under AVX2 and ≈ 85 + 18·|A| at the
//! baseline level (it was ≈ 144 + 10·|A| and ≈ 187 + 34·|A|).
//! [`QuantizedFactors::score_block`] takes that arm when `3·|A| ≤ k` and
//! the run is at least one tile; single rows, candidate lists, denser
//! queries and f32 (float sums do not reassociate) stay row-major — both
//! constants measured at both levels (README, *Sparse queries*).
//! `|b·qsum_i| + Σ|δ·q| < 3·127²·k` fits `i32` for `k < 44,000`.
//!
//! The query side stays `f64` until [`QuantizedFactors::prepare`]
//! narrows one user row per request (warm rows come from the master
//! matrix; cold rows from fold-in — "quantize the folded row on the
//! fly").

use crate::Matrix;
use ocular_bytes::{F32Buf, I8Buf};
use std::sync::{Arc, OnceLock};

/// Accumulator lanes of the unrolled inner loops. Eight `f32` lanes fill
/// a 256-bit vector register; eight `i32` lanes likewise.
const LANES: usize = 8;

/// Item rows per scoring tile: `64 × k` elements stay within L1 for every
/// realistic factor count while giving the compiler a long, branch-free
/// trip count to vectorize.
const TILE: usize = 64;

/// int8 quantization range: symmetric `[-127, 127]` (−128 is unused so
/// the range is symmetric and negation stays in range).
const Q_MAX: f64 = 127.0;

/// Serving dtype of a quantized factor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantDtype {
    /// Single-precision rows (4 bytes/element).
    F32,
    /// Affine per-row int8 (1 byte/element + 12 bytes/row of parameters).
    I8,
}

impl QuantDtype {
    /// Canonical CLI/wire spelling (`"f32"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            QuantDtype::F32 => "f32",
            QuantDtype::I8 => "int8",
        }
    }

    /// Parses the CLI spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<QuantDtype> {
        match s {
            "f32" => Some(QuantDtype::F32),
            "int8" | "i8" => Some(QuantDtype::I8),
            _ => None,
        }
    }

    /// Payload bytes one `k`-column item row occupies in this dtype
    /// (including per-row parameters; the README's dtype table).
    pub fn bytes_per_row(self, k: usize) -> usize {
        match self {
            QuantDtype::F32 => 4 * k,
            // k bytes of codes + scale, zero-point and code-sum (f32 each)
            QuantDtype::I8 => k + 12,
        }
    }
}

impl std::fmt::Display for QuantDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// ISA level a [`QuantizedFactors`] scores at — which compilation of the
/// one kernel source [`QuantizedFactors::score_block`] runs. Picked
/// automatically ([`KernelLevel::detect`]); every level writes the same
/// bits, so the choice moves wall-clock only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// The target's baseline instruction set (SSE2 on x86-64).
    Baseline,
    /// 256-bit integer and float vectors; x86-64 CPUs that report AVX2.
    Avx2,
}

impl KernelLevel {
    /// Every level, narrowest first.
    const ALL: [KernelLevel; 2] = [KernelLevel::Baseline, KernelLevel::Avx2];

    /// `/stats` and log spelling (`"baseline"` / `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Baseline => "baseline",
            KernelLevel::Avx2 => "avx2",
        }
    }

    /// Whether this CPU can run the level.
    pub fn is_available(self) -> bool {
        match self {
            KernelLevel::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelLevel::Avx2 => false,
        }
    }

    /// The levels this CPU can run, narrowest first (tests and benches
    /// that compare them; serving always takes [`KernelLevel::detect`]).
    pub fn available() -> impl Iterator<Item = KernelLevel> {
        Self::ALL.into_iter().filter(|level| level.is_available())
    }

    /// The widest available level, resolved once per process.
    pub fn detect() -> KernelLevel {
        static LEVEL: OnceLock<KernelLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| Self::available().last().unwrap_or(KernelLevel::Baseline))
    }
}

impl std::fmt::Display for KernelLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

enum Repr {
    F32 {
        data: F32Buf,
    },
    I8 {
        data: I8Buf,
        /// Per-row scale (f32, one per row).
        scale: F32Buf,
        /// Per-row zero-point (f32, one per row).
        zero: F32Buf,
        /// Per-row code sums `Σ_c q_rc` (exact in f32: ≤ 127·k < 2²⁴).
        qsum: F32Buf,
    },
}

/// An item factor matrix quantized for serving: `rows × cols`, row-major,
/// SoA in owned-or-borrowed buffers. Built from the `f64` master with
/// [`QuantizedFactors::quantize`] (save time / `--quantize` on load) or
/// reassembled zero-copy from snapshot sections with the `from_parts_*`
/// constructors.
pub struct QuantizedFactors {
    rows: usize,
    cols: usize,
    repr: Repr,
    /// Which stamp of the kernels [`QuantizedFactors::score_block`] runs;
    /// [`KernelLevel::detect`] unless a test pinned it. Not part of the
    /// value: equal matrices score equal bits at any level.
    level: KernelLevel,
    /// The int8 codes again, factor-major, for the sparse-query arm.
    /// Derived, so not part of the value either.
    by_factor: Option<Arc<FactorMajor>>,
}

/// The factor-major copy of an int8 block's codes that the sparse-query
/// arm scans ([`QuantizedFactors::with_factor_major`]): `cols` runs of
/// `rows` codes, plus every row's code sum as the `i32` each tile starts
/// from. RAM only, never persisted.
#[derive(Debug)]
pub struct FactorMajor {
    codes: Box<[i8]>,
    sums: Box<[i32]>,
}

impl FactorMajor {
    /// The codes, column `c` at `c·rows .. (c + 1)·rows`.
    pub(crate) fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// `Σ_c q_rc` per row — the stored `f32` code sums, exactly.
    pub(crate) fn sums(&self) -> &[i32] {
        &self.sums
    }

    /// Resident bytes: `(cols + 4) × rows`.
    pub fn bytes(&self) -> usize {
        self.codes.len() + std::mem::size_of_val(&*self.sums)
    }
}

/// A user row narrowed to a quantized dtype, ready to score against a
/// [`QuantizedFactors`] of the same dtype. One is prepared per request
/// (tiny: `k` narrow elements plus a few scalars).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    repr: QueryRepr,
}

impl PreparedQuery {
    /// Codes a scan multiplies per item row: int8, those off the row's most frequent; f32, all.
    pub fn active_codes(&self) -> usize {
        match &self.repr {
            QueryRepr::F32(u) => u.len(),
            QueryRepr::I8 { active, .. } => active.len(),
        }
    }
}

#[derive(Debug, Clone)]
enum QueryRepr {
    F32(Vec<f32>),
    I8 {
        q: Vec<i8>,
        scale: f64,
        zero: f64,
        qsum: f64,
        /// The row's most frequent code `b` …
        base: i32,
        /// … and `(column, code − b)` of every column that differs from it.
        active: Vec<(usize, i32)>,
    },
}

/// Affine per-row parameters: codes in `[-127, 127]`, `v ≈ scale·q + zero`
/// with `zero` the range midpoint, so the rounding error is at most
/// `scale / 2 = range / (2·254)` per element.
fn row_params(row: &[f64]) -> (f64, f64) {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    for &v in row {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    if !(mn.is_finite() && mx.is_finite()) {
        return (1.0, 0.0);
    }
    let zero = 0.5 * (mn + mx);
    let scale = (mx - mn) / (2.0 * Q_MAX);
    // constant rows quantize to all-zero codes with zero = the value;
    // a unit scale keeps the reconstruction well-defined
    if scale <= 0.0 || !scale.is_finite() {
        (1.0, zero)
    } else {
        (scale, zero)
    }
}

fn quantize_row(row: &[f64], scale: f64, zero: f64, out: &mut Vec<i8>) -> f64 {
    let inv = 1.0 / scale;
    let mut qsum = 0.0f64;
    for &v in row {
        let q = ((v - zero) * inv).round().clamp(-Q_MAX, Q_MAX) as i8;
        qsum += f64::from(q);
        out.push(q);
    }
    qsum
}

impl QuantizedFactors {
    /// Quantizes the `f64` master matrix into the given dtype.
    pub fn quantize(master: &Matrix, dtype: QuantDtype) -> QuantizedFactors {
        let (rows, cols) = (master.rows(), master.cols());
        let repr = match dtype {
            QuantDtype::F32 => {
                let data: Vec<f32> = master.as_slice().iter().map(|&v| v as f32).collect();
                Repr::F32 { data: data.into() }
            }
            QuantDtype::I8 => {
                let mut data = Vec::with_capacity(rows * cols);
                let mut scale = Vec::with_capacity(rows);
                let mut zero = Vec::with_capacity(rows);
                let mut qsum = Vec::with_capacity(rows);
                for r in 0..rows {
                    let row = master.row(r);
                    let (s, z) = row_params(row);
                    let sum = quantize_row(row, s, z, &mut data);
                    scale.push(s as f32);
                    zero.push(z as f32);
                    qsum.push(sum as f32);
                }
                Repr::I8 {
                    data: data.into(),
                    scale: scale.into(),
                    zero: zero.into(),
                    qsum: qsum.into(),
                }
            }
        };
        QuantizedFactors {
            rows,
            cols,
            repr,
            level: KernelLevel::detect(),
            by_factor: None,
        }
    }

    /// Wraps an owned-or-borrowed `f32` buffer as a quantized matrix (the
    /// zero-copy snapshot load path). Errors on shape mismatch.
    pub fn from_parts_f32(rows: usize, cols: usize, data: F32Buf) -> Result<Self, String> {
        let need = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("{rows}×{cols} overflows the address space"))?;
        if data.len() != need {
            return Err(format!(
                "f32 buffer holds {} values but {rows}×{cols} needs {need}",
                data.len()
            ));
        }
        Ok(QuantizedFactors {
            rows,
            cols,
            repr: Repr::F32 { data },
            level: KernelLevel::detect(),
            by_factor: None,
        })
    }

    /// Wraps owned-or-borrowed int8 buffers (codes + per-row scale /
    /// zero-point / code-sum) as a quantized matrix. Errors on any shape
    /// mismatch.
    pub fn from_parts_i8(
        rows: usize,
        cols: usize,
        data: I8Buf,
        scale: F32Buf,
        zero: F32Buf,
        qsum: F32Buf,
    ) -> Result<Self, String> {
        let need = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("{rows}×{cols} overflows the address space"))?;
        if data.len() != need {
            return Err(format!(
                "i8 buffer holds {} codes but {rows}×{cols} needs {need}",
                data.len()
            ));
        }
        for (name, buf) in [("scale", &scale), ("zero", &zero), ("qsum", &qsum)] {
            if buf.len() != rows {
                return Err(format!(
                    "i8 {name} buffer holds {} values but there are {rows} rows",
                    buf.len()
                ));
            }
        }
        Ok(QuantizedFactors {
            rows,
            cols,
            repr: Repr::I8 {
                data,
                scale,
                zero,
                qsum,
            },
            level: KernelLevel::detect(),
            by_factor: None,
        })
    }

    /// Number of item rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Factor count per row.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The dtype this block stores.
    pub fn dtype(&self) -> QuantDtype {
        match self.repr {
            Repr::F32 { .. } => QuantDtype::F32,
            Repr::I8 { .. } => QuantDtype::I8,
        }
    }

    /// The ISA level [`QuantizedFactors::score_block`] runs at.
    pub fn kernel_level(&self) -> KernelLevel {
        self.level
    }

    /// Pins the kernel level instead of the detected one, so tests and
    /// benches can run every available level in one process. Not a tuning
    /// knob: the levels differ in speed only.
    ///
    /// # Panics
    /// Panics if this CPU cannot run `level`.
    #[doc(hidden)]
    pub fn with_kernel_level(mut self, level: KernelLevel) -> Self {
        assert!(
            level.is_available(),
            "kernel level {level} is not available on this CPU"
        );
        self.level = level;
        self
    }

    /// Attaches the [`FactorMajor`] copy of the int8 codes that the
    /// sparse-query arm reads (see the [module docs](self)): `(cols + 4) ×
    /// rows` bytes in RAM, shared by clones, never persisted; other dtypes
    /// come back unchanged. For a block about to be scanned — training and
    /// conversion never scan. This is the one pass over every code, so it
    /// also checks the stored code sums the identity trusts: an `Err` names
    /// the first row whose codes do not add up to its sum (the arms would differ).
    pub fn with_factor_major(mut self) -> Result<Self, String> {
        let Repr::I8 { data, qsum, .. } = &self.repr else {
            return Ok(self);
        };
        let (data, qsum): (&[i8], &[f32]) = (data, qsum);
        let (rows, k) = (self.rows, self.cols);
        let mut codes = vec![0i8; rows * k];
        let mut sums = Vec::with_capacity(rows);
        // a tile of rows at a time, so the strided reads stay in L1
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for r in r0..r1 {
                let sum: i32 = data[r * k..(r + 1) * k].iter().map(|&q| i32::from(q)).sum();
                if sum as f32 != qsum[r] {
                    return Err(format!(
                        "int8 row {r}: codes sum to {sum}, stored {}",
                        qsum[r]
                    ));
                }
                sums.push(sum);
            }
            for c in 0..k {
                let column = &mut codes[c * rows + r0..c * rows + r1];
                for (j, o) in column.iter_mut().enumerate() {
                    *o = data[(r0 + j) * k + c];
                }
            }
        }
        self.by_factor = Some(Arc::new(FactorMajor {
            codes: codes.into(),
            sums: sums.into(),
        }));
        Ok(self)
    }

    /// The factor-major copy, if attached (its size; who shares it).
    pub fn factor_major(&self) -> Option<&Arc<FactorMajor>> {
        self.by_factor.as_ref()
    }

    /// Whether [`QuantizedFactors::score_block`] forms this query's dots from the
    /// factor-major copy on a run of `len` rows: there is one, `3·|A| ≤ cols`, and the run is a
    /// tile or more (a row is one cache line row-major, `|A|` scattered bytes factor-major).
    pub fn scans_sparse(&self, query: &PreparedQuery, len: usize) -> bool {
        self.by_factor.is_some()
            && len >= TILE
            && matches!(&query.repr, QueryRepr::I8 { active, .. } if 3 * active.len() <= self.cols)
    }

    /// The flat `f32` payload (empty for int8) — snapshot persistence.
    pub fn f32_data(&self) -> &[f32] {
        match &self.repr {
            Repr::F32 { data } => data,
            Repr::I8 { .. } => &[],
        }
    }

    /// The int8 parts `(codes, scale, zero, qsum)` — snapshot persistence.
    /// All empty for f32.
    pub fn i8_parts(&self) -> (&[i8], &[f32], &[f32], &[f32]) {
        match &self.repr {
            Repr::F32 { .. } => (&[], &[], &[], &[]),
            Repr::I8 {
                data,
                scale,
                zero,
                qsum,
            } => (data, scale, zero, qsum),
        }
    }

    /// Reconstructs row `r` into `out` (tests, accuracy audits).
    ///
    /// # Panics
    /// Panics if `out.len() != cols`.
    pub fn dequantize_row(&self, r: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "output must hold one row");
        match &self.repr {
            Repr::F32 { data } => {
                for (o, &v) in out
                    .iter_mut()
                    .zip(&data[r * self.cols..(r + 1) * self.cols])
                {
                    *o = f64::from(v);
                }
            }
            Repr::I8 {
                data, scale, zero, ..
            } => {
                let s = f64::from(scale[r]);
                let z = f64::from(zero[r]);
                for (o, &q) in out
                    .iter_mut()
                    .zip(&data[r * self.cols..(r + 1) * self.cols])
                {
                    *o = s * f64::from(q) + z;
                }
            }
        }
    }

    /// Narrows one `f64` user row (master row or freshly folded-in
    /// factors) to this block's dtype. The row is quantized with its own
    /// parameters, independent of the item rows'.
    ///
    /// # Panics
    /// Panics if the row length differs from [`QuantizedFactors::cols`].
    pub fn prepare(&self, user_row: &[f64]) -> PreparedQuery {
        assert_eq!(user_row.len(), self.cols, "query row must have k factors");
        let repr = match &self.repr {
            Repr::F32 { .. } => QueryRepr::F32(user_row.iter().map(|&v| v as f32).collect()),
            Repr::I8 { .. } => {
                let (scale, zero) = row_params(user_row);
                let mut q = Vec::with_capacity(self.cols);
                let qsum = quantize_row(user_row, scale, zero, &mut q);
                // the first code to reach the highest count; on a tie any of
                // the most frequent codes gives the same dot
                let (mut counts, mut most, mut base) = ([0u32; 256], 0, 0);
                for &code in &q {
                    let seen = &mut counts[code as u8 as usize];
                    *seen += 1;
                    if *seen > most {
                        (most, base) = (*seen, i32::from(code));
                    }
                }
                let active = (q.iter().map(|&code| i32::from(code) - base).enumerate())
                    .filter(|&(_, delta)| delta != 0)
                    .collect();
                QueryRepr::I8 {
                    active,
                    q,
                    scale,
                    zero,
                    qsum,
                    base,
                }
            }
        };
        PreparedQuery { repr }
    }

    /// Scores item rows `first .. first + out.len()` against a prepared
    /// query, writing the raw affinities `⟨f_u, f_i⟩` (as `f64`) into
    /// `out`. Items are processed in cache-sized tiles; the per-row inner
    /// loops run unrolled accumulator lanes that LLVM auto-vectorizes, at
    /// this matrix's [`KernelLevel`] — chosen here, once per call.
    ///
    /// # Panics
    /// Panics if the range exceeds the matrix or the query dtype differs.
    pub fn score_block(&self, query: &PreparedQuery, first: usize, out: &mut [f64]) {
        assert!(
            first + out.len() <= self.rows,
            "row range {first}..{} exceeds {} rows",
            first + out.len(),
            self.rows
        );
        // Hoist the owned-or-borrowed buffers to plain slices once per
        // call: `PodBuf` resolves its representation on every deref, which
        // the per-row parameter loads in the kernels must not pay.
        let sparse = (self.by_factor.as_deref()).filter(|_| self.scans_sparse(query, out.len()));
        let scan = match (&self.repr, &query.repr) {
            (Repr::F32 { data }, QueryRepr::F32(u)) => Scan::F32 { data, u },
            (
                Repr::I8 {
                    data,
                    scale,
                    zero,
                    qsum,
                },
                QueryRepr::I8 {
                    q,
                    scale: su,
                    zero: zu,
                    qsum: squ,
                    base,
                    active,
                },
            ) => Scan::I8 {
                codes: match sparse {
                    Some(copy) => Codes::ByFactor {
                        by_factor: copy.codes(),
                        sums: copy.sums(),
                        rows: self.rows,
                        base: *base,
                        active,
                    },
                    None => Codes::ByRow { data, q },
                },
                scale,
                zero,
                qsum,
                su: *su,
                zu: *zu,
                squ: *squ,
            },
            _ => panic!("query dtype does not match the factor dtype"),
        };
        match self.level {
            KernelLevel::Baseline => baseline::score_block(&scan, self.cols, first, out),
            KernelLevel::Avx2 => avx2::score_block(&scan, self.cols, first, out),
        }
    }

    /// Scores a single item row against a prepared query (candidate-set
    /// serving).
    pub fn score_row(&self, query: &PreparedQuery, row: usize) -> f64 {
        let mut out = [0.0f64];
        self.score_block(query, row, &mut out);
        out[0]
    }
}

impl Clone for QuantizedFactors {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::F32 { data } => Repr::F32 { data: data.clone() },
            Repr::I8 {
                data,
                scale,
                zero,
                qsum,
            } => Repr::I8 {
                data: data.clone(),
                scale: scale.clone(),
                zero: zero.clone(),
                qsum: qsum.clone(),
            },
        };
        QuantizedFactors {
            rows: self.rows,
            cols: self.cols,
            repr,
            level: self.level,
            by_factor: self.by_factor.clone(),
        }
    }
}

impl PartialEq for QuantizedFactors {
    fn eq(&self, other: &Self) -> bool {
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::F32 { data: a }, Repr::F32 { data: b }) => a == b,
            (
                Repr::I8 {
                    data: a,
                    scale: asc,
                    zero: az,
                    qsum: aq,
                },
                Repr::I8 {
                    data: b,
                    scale: bsc,
                    zero: bz,
                    qsum: bq,
                },
            ) => a == b && asc == bsc && az == bz && aq == bq,
            _ => false,
        }
    }
}

impl std::fmt::Debug for QuantizedFactors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedFactors")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("dtype", &self.dtype())
            .field("level", &self.level)
            .finish()
    }
}

/// Accumulator lanes of the int8 inner loop. Wider than the f32 unroll:
/// an int8 element is a quarter the width, so 32 lanes are what it takes
/// to feed full vector registers through the widening multiply.
const LANES_I8: usize = 32;

/// One `score_block` call with the owned-or-borrowed buffers resolved to
/// plain slices: what a stamped kernel takes.
enum Scan<'a> {
    F32 {
        data: &'a [f32],
        u: &'a [f32],
    },
    I8 {
        codes: Codes<'a>,
        scale: &'a [f32],
        zero: &'a [f32],
        qsum: &'a [f32],
        su: f64,
        zu: f64,
        squ: f64,
    },
}

/// A tile of kernel scratch on a cache-line boundary. A plain stack array
/// lands wherever the frame puts it, which ASLR moves per process: on the
/// wrong slot the vector stores straddle lines and the sparse arm ran
/// bimodally, 88 or 118 µs per 100k rows under AVX2 (the engine's
/// `ScanTile` is the same fix).
#[repr(align(64))]
struct TileBuf<T>([T; TILE]);

/// Where an int8 scan takes its integer dots `Σ_c q_u[c]·q_i[c]` from.
enum Codes<'a> {
    /// All `k` products of every row of the row-major codes.
    ByRow { data: &'a [i8], q: &'a [i8] },
    /// `base·sums[i]` plus `delta·q_i[c]` over the `active` columns, each a
    /// run of the `rows`-long column `c` of the factor-major copy.
    ByFactor {
        by_factor: &'a [i8],
        sums: &'a [i32],
        rows: usize,
        base: i32,
        active: &'a [(usize, i32)],
    },
}

/// The tile kernels — row dots, int8 epilogue, tile loop — as one source
/// body, stamped into the enclosing module with the given attributes and
/// `fn` qualifiers on **every** function. The attribute has to sit on the
/// loops themselves: a plain `#[inline]` body pulled into a
/// `#[target_feature]` wrapper keeps the code LLVM already vectorized (or
/// failed to) for the narrower target, which measured 2.5× *slower* than
/// the baseline. `bench_gate`'s `simd_vs_baseline` row watches for that.
macro_rules! stamp_kernels {
    ($(#[$attr:meta])* $($qual:ident)+) => {
        use crate::quant::{Codes, Scan, TileBuf, LANES, LANES_I8, TILE};

        /// `f32` dot with [`LANES`] unrolled accumulators. Independent
        /// partial sums break the strict sequential-reduction order, which
        /// is what lets LLVM keep the loop in vector registers — and they
        /// fix the add order per lane, so the sum has the same bits whether
        /// a register holds four lanes or eight.
        $(#[$attr])*
        #[inline]
        $($qual)+ dot_f32(a: &[f32], b: &[f32]) -> f32 {
            debug_assert_eq!(a.len(), b.len());
            let mut acc = [0.0f32; LANES];
            let chunks_a = a.chunks_exact(LANES);
            let chunks_b = b.chunks_exact(LANES);
            let rem_a = chunks_a.remainder();
            let rem_b = chunks_b.remainder();
            for (ca, cb) in chunks_a.zip(chunks_b) {
                for l in 0..LANES {
                    acc[l] += ca[l] * cb[l];
                }
            }
            // The tail accumulates into its own scalar: indexing `acc` with
            // a runtime lane here would force the whole accumulator array
            // onto the stack and de-vectorize the main loop above.
            let mut tail = 0.0f32;
            for (&x, &y) in rem_a.iter().zip(rem_b) {
                tail += x * y;
            }
            // pairwise tree fold of the lanes
            let mut width = LANES / 2;
            while width > 0 {
                for l in 0..width {
                    acc[l] += acc[l + width];
                }
                width /= 2;
            }
            acc[0] + tail
        }

        /// int8 dot accumulated in `i32` with [`LANES_I8`] unrolled
        /// accumulators. The products are formed in `i16` (`127·127` fits)
        /// and widened on accumulation — the pattern LLVM turns into packed
        /// multiply-add (`pmaddwd`, 128 or 256 bits wide) — and
        /// `Σ |q·q| ≤ 127² · k` keeps `i32` safe for any realistic `k`.
        /// Integer sums are exact, so lane order cannot change the result.
        $(#[$attr])*
        #[inline]
        $($qual)+ dot_i8(a: &[i8], b: &[i8]) -> i32 {
            debug_assert_eq!(a.len(), b.len());
            let mut acc = [0i32; LANES_I8];
            let chunks_a = a.chunks_exact(LANES_I8);
            let chunks_b = b.chunks_exact(LANES_I8);
            let rem_a = chunks_a.remainder();
            let rem_b = chunks_b.remainder();
            for (ca, cb) in chunks_a.zip(chunks_b) {
                for l in 0..LANES_I8 {
                    acc[l] += i32::from(i16::from(ca[l]) * i16::from(cb[l]));
                }
            }
            // Same tail discipline as `dot_f32`: a runtime-indexed `acc[l]`
            // write in the tail spills the accumulators and de-vectorizes
            // the main loop (measured 3–30× on the 100k-item bench).
            let mut tail = 0i32;
            for (&x, &y) in rem_a.iter().zip(rem_b) {
                tail += i32::from(i16::from(x) * i16::from(y));
            }
            let mut width = LANES_I8 / 2;
            while width > 0 {
                for l in 0..width {
                    acc[l] += acc[l + width];
                }
                width /= 2;
            }
            acc[0] + tail
        }

        /// One tile's row-major integer dots. Never inlined: sharing registers with its
        /// surroundings, `dot_i8`'s SSE2 widening picks up false dependencies (2× at baseline).
        $(#[$attr])*
        #[inline(never)]
        $($qual)+ tile_dots_i8(q: &[i8], rows: &[i8], qdots: &mut [i32]) {
            for (d, row) in qdots.iter_mut().zip(rows.chunks_exact(q.len())) {
                *d = dot_i8(q, row);
            }
        }

        /// Scores rows `first .. first + out.len()` of a `k`-column matrix,
        /// [`TILE`] rows at a time. The caller checked the range.
        $(#[$attr])*
        pub(super) $($qual)+ score_block(scan: &Scan<'_>, k: usize, first: usize, out: &mut [f64]) {
            match *scan {
                Scan::F32 { data, u } => {
                    for (tile_idx, tile) in out.chunks_mut(TILE).enumerate() {
                        let base = (first + tile_idx * TILE) * k;
                        let rows = &data[base..base + tile.len() * k];
                        for (o, row) in tile.iter_mut().zip(rows.chunks_exact(k)) {
                            *o = f64::from(dot_f32(u, row));
                        }
                    }
                }
                Scan::I8 {
                    ref codes,
                    scale,
                    zero,
                    qsum,
                    su,
                    zu,
                    squ,
                } => {
                    // ⟨u, v⟩ with u ≈ su·qu + zu and v ≈ si·qi + zi expands to
                    //   su·si·Σqu·qi + su·zi·Σqu + zu·si·Σqi + k·zu·zi
                    // = si·(su·qdot + zu·qsum_i) + zi·(su·Σqu + k·zu)
                    let c1 = su * squ + k as f64 * zu;
                    let mut qdots = TileBuf([0i32; TILE]);
                    let mut prods = TileBuf([0i16; TILE]);
                    for (tile_idx, tile) in out.chunks_mut(TILE).enumerate() {
                        let row0 = first + tile_idx * TILE;
                        let s_tile = &scale[row0..row0 + tile.len()];
                        let z_tile = &zero[row0..row0 + tile.len()];
                        let q_tile = &qsum[row0..row0 + tile.len()];
                        // the integer dots of the whole tile first, so the
                        // float epilogue is its own loop over plain arrays
                        // and runs in vector registers too
                        let qdots = &mut qdots.0[..tile.len()];
                        match *codes {
                            Codes::ByRow { data, q } => {
                                tile_dots_i8(q, &data[row0 * k..(row0 + tile.len()) * k], qdots);
                            }
                            Codes::ByFactor { by_factor, sums, rows, base, active } => {
                                // the copy's `i32` sums, not `qs as i32`: that
                                // cast saturates, and LLVM keeps it scalar
                                let sums = &sums[row0..row0 + tile.len()];
                                for (d, &sum) in qdots.iter_mut().zip(sums) {
                                    *d = base * sum;
                                }
                                // |δ·q| ≤ 254·128 fits i16, so each column's
                                // products are formed 8 or 16 wide in i16 (SSE2
                                // has no i32 lane multiply: 33 → 18 µs a column
                                // per 100k rows at baseline), then widened
                                let prods = &mut prods.0[..tile.len()];
                                for &(c, delta) in active {
                                    let col = &by_factor[c * rows + row0..][..tile.len()];
                                    let delta = delta as i16;
                                    for (p, &code) in prods.iter_mut().zip(col) {
                                        *p = delta * i16::from(code);
                                    }
                                    for (d, &p) in qdots.iter_mut().zip(prods.iter()) {
                                        *d += i32::from(p);
                                    }
                                }
                            }
                        }
                        // one epilogue for both: equal dots are equal bits
                        for ((((o, &qdot), &si), &zi), &qs) in tile
                            .iter_mut()
                            .zip(qdots.iter())
                            .zip(s_tile)
                            .zip(z_tile)
                            .zip(q_tile)
                        {
                            *o = f64::from(si) * (su * f64::from(qdot) + zu * f64::from(qs))
                                + f64::from(zi) * c1;
                        }
                    }
                }
            }
        }
    };
}

/// The kernels for the target's baseline instruction set.
mod baseline {
    stamp_kernels!(fn);
}

/// The kernels again under AVX2, behind a safe entry that checks for it.
/// `#[target_feature]` functions have to be `unsafe fn` on the MSRV
/// (1.80), hence the `allow`; the only `unsafe` *block* is the call below.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::Scan;

    mod stamp {
        stamp_kernels!(#[target_feature(enable = "avx2")] unsafe fn);
    }

    /// # Panics
    /// Panics if the CPU lacks AVX2 ([`super::KernelLevel::is_available`]
    /// is the check callers make first).
    pub(super) fn score_block(scan: &Scan<'_>, k: usize, first: usize, out: &mut [f64]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernel level picked on a CPU without AVX2"
        );
        // SAFETY: the stamp is `unsafe` only for its `avx2` target
        // feature, which the assert above just found on this CPU.
        unsafe { stamp::score_block(scan, k, first, out) }
    }
}

/// Off x86-64 no CPU reports [`KernelLevel::Avx2`] available, and
/// [`QuantizedFactors::with_kernel_level`] refuses an unavailable level.
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {
    pub(super) fn score_block(_: &super::Scan<'_>, _: usize, _: usize, _: &mut [f64]) {
        unreachable!("KernelLevel::Avx2 is never available off x86-64")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn master(rows: usize, cols: usize, seed: u64) -> Matrix {
        // deterministic pseudo-random non-negative factors (xorshift)
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next() * 3.0).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn dtype_parsing_and_names() {
        assert_eq!(QuantDtype::parse("f32"), Some(QuantDtype::F32));
        assert_eq!(QuantDtype::parse("int8"), Some(QuantDtype::I8));
        assert_eq!(QuantDtype::parse("i8"), Some(QuantDtype::I8));
        assert_eq!(QuantDtype::parse("f64"), None);
        assert_eq!(QuantDtype::F32.name(), "f32");
        assert_eq!(QuantDtype::I8.name(), "int8");
        assert_eq!(QuantDtype::F32.bytes_per_row(8), 32);
        assert_eq!(QuantDtype::I8.bytes_per_row(8), 20);
    }

    #[test]
    fn f32_scores_match_f64_dots_closely() {
        let m = master(100, 12, 3);
        let q = QuantizedFactors::quantize(&m, QuantDtype::F32);
        let user = m.row(7).to_vec();
        let prepared = q.prepare(&user);
        let mut out = vec![0.0; m.rows()];
        q.score_block(&prepared, 0, &mut out);
        for i in 0..m.rows() {
            let exact = ops::dot(&user, m.row(i));
            assert!(
                (out[i] - exact).abs() <= 1e-4 * exact.abs().max(1.0),
                "item {i}: f32 {} vs f64 {exact}",
                out[i]
            );
            assert_eq!(q.score_row(&prepared, i), out[i]);
        }
    }

    #[test]
    fn i8_scores_track_f64_dots() {
        let m = master(100, 16, 9);
        let q = QuantizedFactors::quantize(&m, QuantDtype::I8);
        let user = m.row(3).to_vec();
        let prepared = q.prepare(&user);
        let mut out = vec![0.0; m.rows()];
        q.score_block(&prepared, 0, &mut out);
        // int8 error: each factor carries ≤ scale/2 ≈ range/254 rounding
        // error, so a k-term dot of O(1) factors stays within a few percent
        for i in 0..m.rows() {
            let exact = ops::dot(&user, m.row(i));
            assert!(
                (out[i] - exact).abs() <= 0.05 * exact.abs().max(1.0),
                "item {i}: int8 {} vs f64 {exact}",
                out[i]
            );
        }
    }

    #[test]
    fn i8_scores_match_dequantized_reference_exactly_in_structure() {
        // the kernel's affine expansion must equal the naive dot of the
        // dequantized rows (same algebra, reassociated), to tight fp slack
        let m = master(40, 8, 17);
        let q = QuantizedFactors::quantize(&m, QuantDtype::I8);
        let user = m.row(0).to_vec();
        let prepared = q.prepare(&user);
        let mut dequser = vec![0.0; 8];
        // reference: dequantize the *query* the same way prepare() does
        let (su, zu) = row_params(&user);
        let mut qv = Vec::new();
        quantize_row(&user, su, zu, &mut qv);
        for (o, &c) in dequser.iter_mut().zip(&qv) {
            *o = su * f64::from(c) + zu;
        }
        let mut item = vec![0.0; 8];
        let mut out = vec![0.0; m.rows()];
        q.score_block(&prepared, 0, &mut out);
        for i in 0..m.rows() {
            q.dequantize_row(i, &mut item);
            let reference = ops::dot(&dequser, &item);
            assert!(
                (out[i] - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                "item {i}: kernel {} vs dequantized reference {reference}",
                out[i]
            );
        }
    }

    #[test]
    fn score_block_offsets_and_tiles() {
        let m = master(2 * TILE + 13, 8, 5);
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let q = QuantizedFactors::quantize(&m, dtype);
            let user = m.row(1).to_vec();
            let prepared = q.prepare(&user);
            let mut all = vec![0.0; m.rows()];
            q.score_block(&prepared, 0, &mut all);
            // an offset block must reproduce the same scores
            let mut part = vec![0.0; TILE + 7];
            q.score_block(&prepared, 39, &mut part);
            assert_eq!(&all[39..39 + part.len()], &part[..], "{dtype}");
        }
    }

    #[test]
    fn every_level_scores_the_same_bits_at_every_tail_length() {
        // k = 1..=130 walks each remainder of the 8- and 32-lane dots
        // after zero to four full chunks; rows end in a partial tile
        for k in 1..=130 {
            let m = master(TILE + 3, k, k as u64);
            for dtype in [QuantDtype::F32, QuantDtype::I8] {
                let q = QuantizedFactors::quantize(&m, dtype);
                assert_eq!(q.kernel_level(), KernelLevel::detect());
                let prepared = q.prepare(m.row(2));
                let bits = |level| {
                    let mut out = vec![f64::NAN; m.rows()];
                    let q = q.clone().with_kernel_level(level);
                    q.score_block(&prepared, 0, &mut out);
                    out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                };
                let baseline = bits(KernelLevel::Baseline);
                for level in KernelLevel::available().skip(1) {
                    assert_eq!(bits(level), baseline, "{dtype} k={k} {level}");
                }
            }
        }
    }

    /// A user row with `active` non-zero entries (so at most that many
    /// codes differ from the code zero maps to), some of them negative.
    fn sparse_user(k: usize, active: usize, salt: usize) -> Vec<f64> {
        let mut user = vec![0.0; k];
        for j in 0..active {
            let sign = if (j + salt) % 3 == 0 { -1.0 } else { 1.0 };
            user[(salt + j * 7) % k] = sign * (0.3 + 0.41 * j as f64);
        }
        user
    }

    #[test]
    fn sparse_arm_scores_the_row_major_bits_at_every_k_and_level() {
        // every k as above; |A| walks 0 ..= k/3 + 1, one past the dispatch
        // rule, and the run starts mid-tile and ends in a partial tile
        for k in 1..=130 {
            let m = master(2 * TILE + 3, k, 77 + k as u64);
            let q = QuantizedFactors::quantize(&m, QuantDtype::I8);
            let sparse = q.clone().with_factor_major().unwrap();
            let copy = sparse.factor_major().unwrap();
            assert_eq!(copy.codes().len(), m.rows() * k);
            assert_eq!(copy.bytes(), m.rows() * (k + 4));
            assert_eq!(sparse, q, "the copy is not part of the value");
            for active in 0..=(k / 3 + 1).min(k) {
                let prepared = q.prepare(&sparse_user(k, active, k));
                assert!(prepared.active_codes() <= active);
                let (first, len) = (5, m.rows() - 5);
                assert_eq!(
                    sparse.scans_sparse(&prepared, len),
                    3 * prepared.active_codes() <= k,
                    "k={k} |A|={active}"
                );
                assert!(!q.scans_sparse(&prepared, len), "no copy, no sparse arm");
                let bits = |q: &QuantizedFactors, level| {
                    let mut out = vec![f64::NAN; len];
                    let q = q.clone().with_kernel_level(level);
                    q.score_block(&prepared, first, &mut out);
                    out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                };
                let row_major = bits(&q, KernelLevel::Baseline);
                for level in KernelLevel::available() {
                    assert_eq!(
                        bits(&sparse, level),
                        row_major,
                        "k={k} |A|={active} {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_queries_split_into_a_base_code_and_the_columns_off_it() {
        let q = QuantizedFactors::quantize(&master(4, 6, 1), QuantDtype::I8);
        let parts = |row: &[f64]| match q.prepare(row).repr {
            QueryRepr::I8 {
                q, base, active, ..
            } => (q, base, active),
            QueryRepr::F32(_) => unreachable!("int8 block"),
        };
        // zeros quantize to −127, the most frequent code
        let (codes, base, active) = parts(&[0.0, 2.0, 0.0, 0.0, 1.0, 0.0]);
        assert_eq!(codes, [-127, 127, -127, -127, 0, -127]);
        assert_eq!((base, active), (-127, vec![(1, 254), (4, 127)]));
        // all-zero and constant rows: unit scale, every code 0, nothing active
        for row in [[0.0; 6], [2.5; 6]] {
            assert_eq!(parts(&row), (vec![0; 6], 0, vec![]));
        }
        // a tie for the most frequent code: either base rebuilds every code
        let (codes, base, active) = parts(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(active.len(), 3);
        let mut rebuilt = vec![base; 6];
        for (c, delta) in active {
            rebuilt[c] += delta;
        }
        assert_eq!(
            rebuilt,
            codes.iter().map(|&c| i32::from(c)).collect::<Vec<_>>()
        );
        // f32 queries multiply every element
        let f32s = QuantizedFactors::quantize(&master(4, 6, 1), QuantDtype::F32);
        assert_eq!(f32s.prepare(&[0.0; 6]).active_codes(), 6);
        assert!(f32s
            .clone()
            .with_factor_major()
            .unwrap()
            .factor_major()
            .is_none());
    }

    #[test]
    fn sparse_arm_needs_a_tile_and_clones_share_the_copy() {
        let m = master(TILE + 1, 8, 4);
        let q = QuantizedFactors::quantize(&m, QuantDtype::I8)
            .with_factor_major()
            .unwrap();
        let prepared = q.prepare(&sparse_user(8, 2, 0));
        assert!(q.scans_sparse(&prepared, TILE));
        assert!(!q.scans_sparse(&prepared, TILE - 1));
        assert!(!q.scans_sparse(&prepared, 1), "score_row stays row-major");
        let clone = q.clone();
        assert!(Arc::ptr_eq(
            clone.factor_major().unwrap(),
            q.factor_major().unwrap()
        ));
    }

    #[test]
    fn factor_major_copy_refuses_code_sums_that_do_not_add_up() {
        let q = QuantizedFactors::quantize(&master(70, 5, 8), QuantDtype::I8);
        let (codes, scale, zero, qsum) = q.i8_parts();
        let rebuild = |qsum: Vec<f32>| {
            QuantizedFactors::from_parts_i8(
                70,
                5,
                codes.to_vec().into(),
                scale.to_vec().into(),
                zero.to_vec().into(),
                qsum.into(),
            )
            .unwrap()
        };
        assert!(rebuild(qsum.to_vec()).with_factor_major().is_ok());
        // NaN and sums past i32 (which `as i32` would saturate, not refuse)
        let cases = [
            (0, 1.0),
            (69, -1.0),
            (33, 0.5),
            (12, f32::NAN),
            (40, f32::INFINITY),
            (50, 3e9),
        ];
        for (row, wrong) in cases {
            let mut bad = qsum.to_vec();
            bad[row] += wrong;
            let err = rebuild(bad).with_factor_major().unwrap_err();
            assert!(err.contains(&format!("row {row}")), "{err}");
        }
    }

    #[test]
    fn sparse_arm_is_exact_at_the_edge_of_the_code_range() {
        // every item code ±127 (rows all +127, all −127, and mixed), and a
        // user zero but for one large entry: b = −127, δ = 254, so the
        // sparse arm's `b·sum` and `δ·q` are as large as codes allow
        for k in [1, 63, 64, 130, 1024] {
            let rows = 2 * TILE + 3;
            let code = |r: usize, c: usize| match r % 3 {
                0 => 127,
                1 => -127,
                _ if (r * 31 + c * 7) % 5 < 2 => -127,
                _ => 127,
            };
            let codes: Vec<i8> = (0..rows * k).map(|i| code(i / k, i % k)).collect();
            let qsum: Vec<f32> = (codes.chunks_exact(k))
                .map(|row| row.iter().map(|&q| f32::from(q)).sum())
                .collect();
            let scale: Vec<f32> = (0..rows).map(|r| 0.01 * (1 + r % 7) as f32).collect();
            let zero: Vec<f32> = (0..rows).map(|r| 0.5 - 0.1 * (r % 4) as f32).collect();
            let build = |qsum: Vec<f32>| {
                QuantizedFactors::from_parts_i8(
                    rows,
                    k,
                    codes.clone().into(),
                    scale.clone().into(),
                    zero.clone().into(),
                    qsum.into(),
                )
                .unwrap()
            };
            let q = build(qsum.clone());
            let sparse = q.clone().with_factor_major().unwrap();
            let sums = sparse.factor_major().unwrap().sums();
            assert_eq!(sums.len(), rows);
            for (&sum, &stored) in sums.iter().zip(&qsum) {
                assert_eq!(sum as f32, stored, "k={k}");
            }
            let mut user = vec![0.0; k];
            user[k / 2] = 5.0;
            let prepared = q.prepare(&user);
            if k >= 3 {
                let QueryRepr::I8 { base, active, .. } = &prepared.repr else {
                    unreachable!("int8 block")
                };
                assert_eq!((*base, active.clone()), (-127, vec![(k / 2, 254)]), "k={k}");
            }
            // starts mid-tile, ends in a partial tile
            let (first, len) = (5, rows - 5);
            assert!(sparse.scans_sparse(&prepared, len), "k={k}");
            let bits = |q: &QuantizedFactors, level| {
                let mut out = vec![f64::NAN; len];
                let q = q.clone().with_kernel_level(level);
                q.score_block(&prepared, first, &mut out);
                out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
            };
            for level in KernelLevel::available() {
                assert_eq!(bits(&sparse, level), bits(&q, level), "k={k} {level}");
            }
            // a stored sum one off at this magnitude is still refused
            let mut off = qsum;
            off[0] += 1.0;
            assert!(build(off).with_factor_major().is_err(), "k={k}");
        }
    }

    #[test]
    fn constant_and_empty_rows_are_handled() {
        let m = Matrix::from_rows(&[&[2.5, 2.5, 2.5], &[0.0, 0.0, 0.0], &[1.0, 2.0, 4.0]]);
        let q = QuantizedFactors::quantize(&m, QuantDtype::I8);
        let mut row = vec![0.0; 3];
        q.dequantize_row(0, &mut row);
        for &v in &row {
            assert!((v - 2.5).abs() < 1e-6);
        }
        q.dequantize_row(1, &mut row);
        assert_eq!(row, vec![0.0, 0.0, 0.0]);
        // zero-row matrices score nothing but construct fine
        let empty = QuantizedFactors::quantize(&Matrix::zeros(0, 3), QuantDtype::F32);
        let prepared = empty.prepare(&[1.0, 2.0, 3.0]);
        empty.score_block(&prepared, 0, &mut []);
    }

    #[test]
    #[should_panic(expected = "dtype")]
    fn mismatched_query_dtype_panics() {
        let m = master(4, 4, 1);
        let qf32 = QuantizedFactors::quantize(&m, QuantDtype::F32);
        let qi8 = QuantizedFactors::quantize(&m, QuantDtype::I8);
        let prepared = qf32.prepare(m.row(0));
        let mut out = vec![0.0; 4];
        qi8.score_block(&prepared, 0, &mut out);
    }

    #[test]
    fn from_parts_validate_shapes() {
        let f: F32Buf = vec![0.0f32; 12].into();
        assert!(QuantizedFactors::from_parts_f32(3, 4, f.clone()).is_ok());
        assert!(QuantizedFactors::from_parts_f32(4, 4, f).is_err());
        let codes: I8Buf = vec![0i8; 12].into();
        let per_row: F32Buf = vec![0.0f32; 3].into();
        assert!(QuantizedFactors::from_parts_i8(
            3,
            4,
            codes.clone(),
            per_row.clone(),
            per_row.clone(),
            per_row.clone()
        )
        .is_ok());
        let short: F32Buf = vec![0.0f32; 2].into();
        assert!(
            QuantizedFactors::from_parts_i8(3, 4, codes, short, per_row.clone(), per_row).is_err()
        );
    }

    #[test]
    fn parts_round_trip_through_from_parts() {
        let m = master(10, 6, 21);
        for dtype in [QuantDtype::F32, QuantDtype::I8] {
            let q = QuantizedFactors::quantize(&m, dtype);
            let rebuilt = match dtype {
                QuantDtype::F32 => {
                    QuantizedFactors::from_parts_f32(10, 6, q.f32_data().to_vec().into()).unwrap()
                }
                QuantDtype::I8 => {
                    let (codes, scale, zero, qsum) = q.i8_parts();
                    QuantizedFactors::from_parts_i8(
                        10,
                        6,
                        codes.to_vec().into(),
                        scale.to_vec().into(),
                        zero.to_vec().into(),
                        qsum.to_vec().into(),
                    )
                    .unwrap()
                }
            };
            assert_eq!(rebuilt, q, "{dtype}");
        }
    }
}
