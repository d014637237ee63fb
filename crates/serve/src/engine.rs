//! The in-process serving engine: candidate generation, heap selection,
//! cold-start fold-in and rayon-parallel batching — polymorphic over model
//! kinds.
//!
//! OCuLaR models keep their specialised request path (co-cluster candidate
//! generation against the [`ClusterIndex`], factor-level scoring); every
//! other kind is served through the [`ocular_api`] trait hierarchy, with
//! [`CandidatePolicy::Clusters`] degrading gracefully to the full catalog
//! — non-co-clustered models have no cluster structure to generate
//! candidates from, so they are served exactly.
//!
//! The OCuLaR path is one fused scan-and-select pass per request: items
//! (candidates or the whole catalog, a 1024-affinity stack tile at a time
//! through a quantized copy) are scored in ascending order straight into
//! [`MonotoneTopK`], which ranks by `1 − e^(−a)` but evaluates it only for
//! affinities above the heap root's — a few hundred calls at 100k items,
//! not 100k. Lists are bit-identical to transforming every score and
//! selecting with [`top_k_excluding`], the path the trait-served kinds
//! (whose contract is a dense score vector) take.
//!
//! Items decompose as independently as users (Heckel et al. §VI): a
//! quantized full-catalog scan of two `SPLIT_ROWS` or more runs that pass
//! once per contiguous part, one per core no other scan of the engine holds
//! ([`scan_parts`]) — part 0 on the requesting thread, the rest on
//! process-wide helpers — and merges the parts' top-Ms under the same
//! order. That is exact: an item in the catalog's top-M is in its part's,
//! since all that outranks it there outranks it in the catalog.
//!
//! A quantized engine's warm requests never read the f64 item master, so
//! the fold-in's column sums of it are summed by the first fold-in, not the
//! build: a mapped master stays on disk until a cold request needs it.

use crate::index::{ClusterIndex, IndexConfig};
use crate::snapshot::{AnySnapshot, LoadedSnapshot, Snapshot, OCULAR_KIND};
use ocular_api::{validate_basket, Model, OcularError};
use ocular_core::model::prob_from_affinity;
use ocular_core::{
    fold_in_user_with, top_m_for_factors, FactorModel, FoldInScratch, OcularConfig, Recommendation,
};
use ocular_linalg::topk::{top_k_excluding, MonotoneTopK, TopK};
use ocular_linalg::{ops, KernelLevel, PreparedQuery, QuantDtype, QuantizedFactors};
use ocular_parallel::WorkerPool;
use ocular_sparse::Dataset;
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

thread_local! {
    // Request working memory, one set per serving thread (rayon workers
    // included): the OCuLaR fold-in solver scratch, and the dense score
    // vector of the trait-served kinds. Allocating these per request is
    // what put the cold path's p99 an order of magnitude over its p50;
    // buffers are cleared and resized on every use, so output is unchanged.
    static FOLD_SCRATCH: RefCell<FoldInScratch> = RefCell::new(FoldInScratch::new());
    static SCORES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Affinities the quantized full-catalog scan scores per `score_block`
/// call: 8 KB on the stack, a whole number of the kernel's own tiles.
const SCAN_TILE: usize = 1024;

/// The scan's tile, on a cache-line boundary. A bare `[f64; SCAN_TILE]`
/// lands on whichever 16-byte slot the caller's frames leave, and where
/// the kernel's vector stores then straddle lines every full-catalog
/// request on that thread runs ≈ 25% slower — same instructions, decided
/// by the frame sizes of unrelated functions up the call chain.
#[repr(align(64))]
struct ScanTile([f64; SCAN_TILE]);

/// The fewest items a part of a split full-catalog scan covers. A part on a
/// helper pays a wake-up (≈ 10 µs), a top-M of its own and a merge:
/// `serve_latency`'s int8 4-active request, two parts against one (p50,
/// 2-core VM), reads 34 vs 29 µs at 16,384 items (AVX2, M = 10); at 32,768,
/// 50–60 vs 49 (M = 10) and 91 vs 96 (M = 50) under AVX2, 97 vs 114 at the
/// baseline level; 58 vs 69 at 49,152 (M = 10). So splits start at 32,768.
const SPLIT_ROWS: usize = 16 * SCAN_TILE;

/// How the engine picks the items a request scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Score every item — exact: output is bitwise identical to
    /// [`ocular_core::recommend_top_m`] for warm users.
    FullCatalog,
    /// Score only items reachable from the requester's co-clusters via the
    /// [`ClusterIndex`]. Falls back to the full catalog when fewer than
    /// `max(m, min_candidates)` un-owned candidates are reachable, so thin
    /// cluster coverage degrades to exact serving instead of short lists.
    /// Non-co-clustered model kinds always take the full-catalog path.
    Clusters {
        /// Fallback floor on usable (un-owned) candidates.
        min_candidates: usize,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Top-M length used when a request does not specify `m`.
    pub default_m: usize,
    /// Candidate-generation policy.
    pub candidates: CandidatePolicy,
    /// Iteration cap of the cold-start fold-in solve. A basket needs 3–10
    /// iterations; one that reaches the cap is counted in
    /// [`FoldInStats::unconverged`].
    pub foldin_steps: usize,
    /// Training hyper-parameters reused by the OCuLaR cold-start fold-in
    /// solve (only `lambda`, `sigma`, `beta`, `max_backtracks` matter
    /// here).
    pub foldin: OcularConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_m: 10,
            candidates: CandidatePolicy::Clusters { min_candidates: 50 },
            foldin_steps: 100,
            foldin: OcularConfig::default(),
        }
    }
}

/// One serving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A user present in the training matrix, addressed by row index.
    Warm {
        /// Training-matrix row of the user.
        user: usize,
        /// List length; 0 means the engine's `default_m`.
        m: usize,
    },
    /// A cold-start user described only by a basket of item indices; the
    /// model's [`ocular_api::FoldIn`] capability scores it at request time
    /// (Section VIII). Model kinds without that capability answer with
    /// [`OcularError::Unsupported`].
    Cold {
        /// Items the unseen user has interacted with.
        basket: Vec<usize>,
        /// List length; 0 means the engine's `default_m`.
        m: usize,
    },
    /// A warm user addressed by **external** id, resolved through the
    /// engine dataset's id maps (O(1)); unknown ids answer with
    /// [`OcularError::UnknownExternalId`]. Under the identity mapping
    /// (no id maps) any in-range id resolves to itself.
    WarmExternal {
        /// External id of the user, as it appeared at ingestion time.
        user: u64,
        /// List length; 0 means the engine's `default_m`.
        m: usize,
    },
    /// A cold-start basket of **external** item ids, each resolved
    /// through the engine dataset's id maps before fold-in.
    ColdExternal {
        /// External ids of the items the unseen user interacted with.
        basket: Vec<u64>,
        /// List length; 0 means the engine's `default_m`.
        m: usize,
    },
}

/// A served recommendation list plus serving telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedList {
    /// The top-M list, score descending, ties by ascending item.
    pub items: Vec<Recommendation>,
    /// Number of items actually scored for this request.
    pub scored: usize,
    /// Whether the cluster policy fell back to the full catalog (always
    /// true under [`CandidatePolicy::Clusters`] for non-co-clustered
    /// kinds).
    pub fell_back: bool,
    /// Whether a *warm* request was answered by request-time fold-in
    /// because the user is newer than the active snapshot (present in the
    /// refreshed dataset, absent from the model). Always false for cold
    /// requests — fold-in is their normal path, not a fallback.
    pub folded_in: bool,
}

/// Request-level serving failures — the workspace-wide
/// [`OcularError`].
pub type ServeError = OcularError;

/// The model a loaded snapshot put behind the engine.
// One lives per engine generation — never in a collection — so the size
// spread between the inline OCuLaR fast path and the boxed generic path
// costs nothing, while boxing would add a pointer chase per request.
#[allow(clippy::large_enum_variant)]
enum EngineModel {
    /// OCuLaR: factor model + co-cluster candidate index (the specialised
    /// fast path), optionally with a quantized copy of the item factors
    /// that scoring dispatches to.
    Ocular {
        model: FactorModel,
        index: ClusterIndex,
        /// Shared with split-scan parts, which may outlive this generation.
        quant: Option<Arc<QuantizedFactors>>,
        /// `item_factors.column_sums()`, model-constant, summed by the
        /// first fold-in: it reads the whole f64 master (module docs).
        item_sum: OnceLock<Vec<f64>>,
    },
    /// Any other kind, served through the trait hierarchy.
    Generic(Box<dyn Model>),
}

/// Settles the quantized copy a snapshot is scanned through: the one it
/// carries when that matches the requested dtype (or none was requested),
/// else a fresh narrowing of the f64 master to `quantize`; `kernel` pins
/// its kernel level (tests only). An int8 copy gets its factor-major
/// sidecar here, and stored code sums that do not match the codes are
/// [`OcularError::Corrupt`].
fn scan_ready(
    snapshot: AnySnapshot,
    quantize: Option<QuantDtype>,
    kernel: Option<KernelLevel>,
) -> Result<AnySnapshot, OcularError> {
    match snapshot {
        AnySnapshot::Ocular(mut s) => {
            let carried = s.quant.take();
            let quant = match quantize {
                Some(dtype) if carried.as_ref().map(QuantizedFactors::dtype) != Some(dtype) => {
                    Some(QuantizedFactors::quantize(&s.model.item_factors, dtype))
                }
                _ => carried,
            };
            let quant = match kernel {
                Some(level) => quant.map(|q| q.with_kernel_level(level)),
                None => quant,
            };
            let quant = quant.map(QuantizedFactors::with_factor_major).transpose();
            s.quant = quant.map_err(OcularError::Corrupt)?;
            Ok(AnySnapshot::Ocular(s))
        }
        AnySnapshot::Other(m) => match quantize {
            Some(dtype) => Err(OcularError::InvalidConfig(format!(
                "quantized serving ({dtype}) needs an OCuLaR snapshot; kind `{}` \
                 has no factor representation to narrow",
                m.kind()
            ))),
            None => Ok(AnySnapshot::Other(m)),
        },
    }
}

impl EngineModel {
    /// Puts a [`scan_ready`] snapshot behind the engine.
    fn new(snapshot: AnySnapshot) -> Self {
        match snapshot {
            AnySnapshot::Ocular(s) => EngineModel::Ocular {
                item_sum: OnceLock::new(),
                model: s.model,
                index: s.index,
                quant: s.quant.map(Arc::new),
            },
            AnySnapshot::Other(m) => EngineModel::Generic(m),
        }
    }

    fn n_users(&self) -> usize {
        match self {
            EngineModel::Ocular { model, .. } => model.n_users(),
            EngineModel::Generic(m) => m.n_users(),
        }
    }

    fn n_items(&self) -> usize {
        match self {
            EngineModel::Ocular { model, .. } => model.n_items(),
            EngineModel::Generic(m) => m.n_items(),
        }
    }

    /// The quantized item factors scoring dispatches to, if any.
    fn quant(&self) -> Option<&QuantizedFactors> {
        match self {
            EngineModel::Ocular { quant, .. } => quant.as_deref(),
            EngineModel::Generic(_) => None,
        }
    }
}

/// OCuLaR fold-in solver telemetry since the engine was built, reported by
/// `/stats` as `fold_ins`, `fold_in_iterations` and `fold_in_unconverged`.
/// Cold requests and warm requests for users newer than the model both
/// count. Iterations per solve far from the usual 3–10, or any unconverged
/// solve, mean cold users are getting a vector that is not the minimiser.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldInStats {
    /// Fold-in solves run.
    pub fold_ins: u64,
    /// Solver iterations over all of them.
    pub iterations: u64,
    /// Solves that stopped at the `foldin_steps` cap or on a failed line
    /// search instead of at a stationary point.
    pub unconverged: u64,
}

/// [`FoldInStats`] as the serving threads write it: statistics only, so
/// every access is relaxed.
#[derive(Debug, Default)]
struct FoldInCounters {
    fold_ins: AtomicU64,
    iterations: AtomicU64,
    unconverged: AtomicU64,
}

impl FoldInCounters {
    fn record(&self, fold: &ocular_core::FoldIn) {
        self.fold_ins.fetch_add(1, Ordering::Relaxed);
        self.iterations
            .fetch_add(fold.steps as u64, Ordering::Relaxed);
        if !fold.converged {
            self.unconverged.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> FoldInStats {
        FoldInStats {
            fold_ins: self.fold_ins.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            unconverged: self.unconverged.load(Ordering::Relaxed),
        }
    }
}

/// OCuLaR full-catalog scans since the engine was built, by the arm that formed their
/// dots — `scans` on `/stats`. An int8 engine whose users are as sparse as trained rows reads
/// almost all `sparse`; `dense` there means more than `k / 3` codes off the most frequent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Scans through the int8 factor-major sidecar.
    pub sparse: u64,
    /// Every other scan: row-major int8, f32, the f64 master.
    pub dense: u64,
    /// [`ocular_linalg::PreparedQuery::active_codes`] over all scans (`k` for f64).
    pub active_codes: u64,
    /// Scans of either arm that ran in more than one part (see the [module
    /// docs](self)), each also counted once in `sparse` or `dense`.
    pub split: u64,
}

/// What an [`EngineBuilder`] builds an engine around.
// Builder-only value, consumed once by `build()`; variant size spread is
// irrelevant.
#[allow(clippy::large_enum_variant)]
enum EngineSource {
    /// A loaded snapshot of any kind.
    Any(AnySnapshot),
    /// An OCuLaR factor model — the builder derives the candidate index
    /// with its configured [`IndexConfig`].
    Model(FactorModel),
}

/// The one way to construct a [`ServeEngine`] — from a snapshot, an
/// OCuLaR model, or any boxed [`Model`], plus the serving dataset and
/// knobs.
///
/// ```ignore
/// let engine = EngineBuilder::from_loaded(loaded)   // LoadedSnapshot
///     .dataset(interactions)
///     .candidates(CandidatePolicy::Clusters { min_candidates: 50 })
///     .build()?;
/// ```
///
/// The dataset may be **larger** than the model on both axes (dataset ⊇
/// model): users and items appended after the snapshot was trained are
/// served by request-time fold-in until the next retrain/hot-swap — the
/// live-refresh contract. A dataset *smaller* than the model is still a
/// [`OcularError::ShapeMismatch`].
pub struct EngineBuilder {
    source: EngineSource,
    dataset: Option<Dataset>,
    cfg: ServeConfig,
    index_cfg: IndexConfig,
    generation: u64,
    quantize: Option<QuantDtype>,
    kernel: Option<KernelLevel>,
}

impl EngineBuilder {
    fn new(source: EngineSource) -> Self {
        EngineBuilder {
            source,
            dataset: None,
            cfg: ServeConfig::default(),
            index_cfg: IndexConfig::default(),
            generation: 0,
            quantize: None,
            kernel: None,
        }
    }

    /// Starts from a snapshot of any model kind.
    pub fn from_snapshot(snapshot: AnySnapshot) -> Self {
        Self::new(EngineSource::Any(snapshot))
    }

    /// Starts from a freshly loaded snapshot, adopting its generation
    /// metadata when the file carries any (see
    /// [`crate::snapshot::LoadedSnapshot`]).
    pub fn from_loaded(loaded: LoadedSnapshot) -> Self {
        let generation = loaded.meta.map_or(0, |m| m.generation);
        Self::from_snapshot(loaded.snapshot).generation(generation)
    }

    /// Starts from an OCuLaR factor model; the builder derives the
    /// co-cluster candidate index with the configured
    /// [`EngineBuilder::index_config`].
    pub fn from_model(model: FactorModel) -> Self {
        Self::new(EngineSource::Model(model))
    }

    /// Starts from any boxed [`Model`] — the programmatic path for
    /// baseline kinds.
    pub fn from_recommender(model: Box<dyn Model>) -> Self {
        Self::from_snapshot(AnySnapshot::Other(model))
    }

    /// The serving interaction [`Dataset`] — owned-item exclusion, id
    /// maps, and fold-in baskets for users newer than the model. Required.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Replaces the whole [`ServeConfig`] at once.
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Candidate-generation policy knob.
    pub fn candidates(mut self, policy: CandidatePolicy) -> Self {
        self.cfg.candidates = policy;
        self
    }

    /// Top-M length used when a request does not specify `m`.
    pub fn default_m(mut self, m: usize) -> Self {
        self.cfg.default_m = m;
        self
    }

    /// Index build parameters, used only by [`EngineBuilder::from_model`].
    pub fn index_config(mut self, index_cfg: IndexConfig) -> Self {
        self.index_cfg = index_cfg;
        self
    }

    /// Model generation served by this engine (reported in responses and
    /// `/stats`; the hot-swap tier keeps it monotone across reloads).
    pub fn generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// Serves the catalog through a quantized item-factor representation
    /// (`f32` or per-row affine `int8`) instead of the f64 master.
    ///
    /// If the snapshot already carries a matching quantized copy (written
    /// by `--quantize` at train time) it is used as-is; otherwise the
    /// builder re-quantizes from the f64 master at build time — old
    /// snapshots opt in without retraining. Only OCuLaR sources have a
    /// factor representation to narrow; requesting quantization for any
    /// other kind is an [`OcularError::InvalidConfig`] at build.
    pub fn quantization(mut self, dtype: QuantDtype) -> Self {
        self.quantize = Some(dtype);
        self
    }

    /// Pins the quantized copy's kernel level instead of the detected one,
    /// so tests can hold every available level to the same replies. Not a
    /// serving knob — levels differ in speed only.
    ///
    /// # Panics
    /// [`EngineBuilder::build`] panics if this CPU cannot run `level`.
    #[doc(hidden)]
    pub fn kernel_level(mut self, level: KernelLevel) -> Self {
        self.kernel = Some(level);
        self
    }

    /// Builds the engine, validating the fold-in hyper-parameters
    /// ([`OcularConfig::validate`]) and dataset ⊇ model.
    pub fn build(self) -> Result<ServeEngine, OcularError> {
        let owned = self.dataset.ok_or_else(|| {
            OcularError::InvalidConfig(
                "EngineBuilder needs a serving dataset (call .dataset(...))".into(),
            )
        })?;
        self.cfg
            .foldin
            .validate()
            .map_err(OcularError::InvalidConfig)?;
        let snapshot = scan_ready(
            match self.source {
                EngineSource::Any(s) => s,
                EngineSource::Model(m) => AnySnapshot::Ocular(Snapshot::build(m, &self.index_cfg)),
            },
            self.quantize,
            self.kernel,
        )?;
        let model = EngineModel::new(snapshot);
        // dataset ⊇ model: equal shapes are the steady state, a strictly
        // larger dataset means deltas arrived since the snapshot was
        // trained and the overhang is served by fold-in.
        if owned.n_users() < model.n_users() || owned.n_items() < model.n_items() {
            return Err(OcularError::ShapeMismatch {
                expected: (model.n_users(), model.n_items()),
                found: (owned.n_users(), owned.n_items()),
            });
        }
        Ok(ServeEngine {
            model,
            owned,
            fold_ins: FoldInCounters::default(),
            scans: Default::default(),
            busy: AtomicUsize::new(0),
            cfg: self.cfg,
            generation: self.generation,
        })
    }
}

/// The in-process serving engine.
///
/// Holds the loaded model (any snapshot kind) and the training
/// interaction [`Dataset`] — used both for owned-item exclusion and for
/// resolving external-id requests through the dataset's id maps. All
/// serving methods take `&self`, so one engine can be shared across
/// threads; [`ServeEngine::serve_batch`] does exactly that via rayon.
///
/// Construct through [`EngineBuilder`].
pub struct ServeEngine {
    model: EngineModel,
    owned: Dataset,
    fold_ins: FoldInCounters,
    /// [`ScanStats`] in field order; statistics, so every access is relaxed.
    scans: [AtomicU64; 4],
    /// Cores this engine's quantized full-catalog scans of a splittable
    /// catalog hold right now, one per part ([`scan_parts`]).
    busy: AtomicUsize,
    cfg: ServeConfig,
    generation: u64,
}

impl ServeEngine {
    /// The training interaction store behind the engine — owned-item
    /// exclusion lists plus the external↔internal id maps.
    pub fn dataset(&self) -> &Dataset {
        &self.owned
    }

    /// External id of internal item `i` (identity when the dataset has no
    /// id maps) — what responses should print when requests arrived with
    /// external ids.
    ///
    /// # Panics
    /// Panics if `i >= n_items`.
    pub fn external_item(&self, i: usize) -> u64 {
        self.dataset().external_item(i)
    }

    /// The engine's factor model.
    ///
    /// # Panics
    /// Panics if the engine serves a non-OCuLaR kind; check
    /// [`ServeEngine::kind`] first, or use the trait-level accessors.
    pub fn model(&self) -> &FactorModel {
        match &self.model {
            EngineModel::Ocular { model, .. } => model,
            EngineModel::Generic(m) => {
                panic!("engine serves kind `{}`, not an OCuLaR model", m.kind())
            }
        }
    }

    /// The engine's candidate-generation index.
    ///
    /// # Panics
    /// Panics if the engine serves a non-OCuLaR kind (no index exists).
    pub fn index(&self) -> &ClusterIndex {
        match &self.model {
            EngineModel::Ocular { index, .. } => index,
            EngineModel::Generic(m) => {
                panic!(
                    "engine serves kind `{}`, which has no cluster index",
                    m.kind()
                )
            }
        }
    }

    /// The kind tag of the model being served.
    pub fn kind(&self) -> &'static str {
        match &self.model {
            EngineModel::Ocular { .. } => OCULAR_KIND,
            EngineModel::Generic(m) => m.kind(),
        }
    }

    /// Name of the active quantized scoring dtype (`"f32"` / `"int8"`),
    /// or `None` when the engine scores through the f64 master —
    /// reported in wire responses and `/stats`.
    pub fn dtype(&self) -> Option<&'static str> {
        self.model.quant().map(|q| q.dtype().name())
    }

    /// Name of the ISA level the scoring kernels run at (`"baseline"` /
    /// `"avx2"`, see [`KernelLevel`]) — reported by `/stats` and the
    /// start-up line, never in responses: replies are identical across
    /// levels. Only the quantized kernels come in more than one level, so
    /// an engine scoring through the f64 master says `"baseline"`.
    pub fn kernel(&self) -> &'static str {
        let level = self.model.quant().map(QuantizedFactors::kernel_level);
        level.unwrap_or(KernelLevel::Baseline).name()
    }

    /// The model generation this engine serves (0 when never set) —
    /// stamped into responses and `/stats`, kept monotone across hot
    /// swaps by [`crate::swap::SwapEngine`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Users in the serving dataset.
    pub fn n_users(&self) -> usize {
        self.owned.n_users()
    }

    /// Users the model was trained on; dataset users past the model's rows
    /// arrived after the snapshot and are served by fold-in.
    pub fn model_users(&self) -> usize {
        self.model.n_users()
    }

    /// Items the model was trained on (recommendable catalog).
    pub fn model_items(&self) -> usize {
        self.model.n_items()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Fold-in solver telemetry since the engine was built.
    pub fn fold_in_stats(&self) -> FoldInStats {
        self.fold_ins.snapshot()
    }

    /// Full-catalog scan telemetry since the engine was built.
    pub fn scan_stats(&self) -> ScanStats {
        let [sparse, dense, active_codes, split] =
            self.scans.each_ref().map(|c| c.load(Ordering::Relaxed));
        ScanStats {
            sparse,
            dense,
            active_codes,
            split,
        }
    }

    fn count_scan(&self, sparse: bool, parts: usize, active_codes: usize) {
        self.scans[usize::from(!sparse)].fetch_add(1, Ordering::Relaxed);
        self.scans[2].fetch_add(active_codes as u64, Ordering::Relaxed);
        self.scans[3].fetch_add(u64::from(parts > 1), Ordering::Relaxed);
    }

    /// Resident bytes of the int8 factor-major scan sidecar: `(k + 4) ×
    /// items` (codes and `i32` row sums), 0 without int8.
    pub fn sidecar_bytes(&self) -> usize {
        let copy = self.model.quant().and_then(|q| q.factor_major());
        copy.map_or(0, |c| c.bytes())
    }

    /// Serves one request on the calling thread. External-id requests
    /// resolve through the dataset's id maps first and then take exactly
    /// the warm/cold paths.
    pub fn serve_one(&self, req: &Request) -> Result<ServedList, ServeError> {
        match req {
            Request::Warm { user, m } => {
                if *user >= self.owned.n_users() {
                    return Err(OcularError::UnknownUser {
                        user: *user,
                        n_users: self.n_users(),
                    });
                }
                self.serve_warm(*user, self.effective_m(*m))
            }
            Request::WarmExternal { user, m } => {
                let row = self
                    .owned
                    .user_index(*user)
                    .ok_or(OcularError::UnknownExternalId {
                        external: *user,
                        entity: "user",
                    })?;
                self.serve_warm(row, self.effective_m(*m))
            }
            Request::Cold { basket, m } => self.serve_cold(basket, self.effective_m(*m)),
            Request::ColdExternal { basket, m } => {
                let internal = basket
                    .iter()
                    .map(|&ext| {
                        self.owned
                            .item_index(ext)
                            .ok_or(OcularError::UnknownExternalId {
                                external: ext,
                                entity: "item",
                            })
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                self.serve_cold(&internal, self.effective_m(*m))
            }
        }
    }

    /// Serves a batch of requests in parallel on the ambient rayon pool
    /// (size it with [`ocular_parallel::with_threads`]). Responses are
    /// returned in request order, and every response is identical to what
    /// [`ServeEngine::serve_one`] returns for that request — batching
    /// changes wall-clock, never output.
    pub fn serve_batch(&self, requests: &[Request]) -> Vec<Result<ServedList, ServeError>> {
        requests.par_iter().map(|r| self.serve_one(r)).collect()
    }

    /// Renders a serving result as the wire protocol's reply — the one
    /// encoding every transport (stdin CLI, TCP front-end) emits.
    /// `item_ids` are included exactly when the dataset has id maps.
    pub fn wire_reply(
        &self,
        req: &Request,
        result: &Result<ServedList, ServeError>,
    ) -> crate::protocol::WireReply {
        use crate::protocol::{WireReply, WireResponse};
        match result {
            Err(e) => WireReply::Err(e.into()),
            Ok(list) => {
                let external = |i: usize| self.external_item(i);
                let translate: Option<&dyn Fn(usize) -> u64> = if self.dataset().ids().is_some() {
                    Some(&external)
                } else {
                    None
                };
                WireReply::Ok(
                    WireResponse::new(req, list, translate)
                        .with_model(self.generation, self.kind())
                        .with_dtype(self.dtype()),
                )
            }
        }
    }

    fn effective_m(&self, m: usize) -> usize {
        if m == 0 {
            self.cfg.default_m
        } else {
            m
        }
    }

    /// Serves dataset row `user` (`user < self.owned.n_users()`).
    fn serve_warm(&self, user: usize, m: usize) -> Result<ServedList, ServeError> {
        if user >= self.model.n_users() {
            // dataset ⊇ model: a row past the model but inside the dataset
            // belongs to a user appended after the snapshot was trained —
            // serve them by request-time fold-in on their interactions
            // (truncated to the model's catalog) until the next hot swap.
            let basket: Vec<usize> = self
                .owned
                .row(user)
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i < self.model.n_items())
                .collect();
            let mut list = self.serve_cold(&basket, m)?;
            list.folded_in = true;
            return Ok(list);
        }
        match &self.model {
            EngineModel::Ocular {
                model,
                index,
                quant,
                ..
            } => {
                let factors = model.user_factors.row(user);
                Ok(self.select(
                    model,
                    index,
                    quant.as_ref(),
                    factors,
                    self.owned.row(user),
                    m,
                ))
            }
            EngineModel::Generic(model) => self.select_dense(self.owned.row(user), m, |scores| {
                model.score_user(user, scores);
                Ok(())
            }),
        }
    }

    fn serve_cold(&self, basket: &[usize], m: usize) -> Result<ServedList, ServeError> {
        let exclude = validate_basket(basket, self.model.n_items())?;
        match &self.model {
            EngineModel::Ocular {
                model,
                index,
                quant,
                item_sum,
            } => {
                let fold = FOLD_SCRATCH.with(|s| {
                    fold_in_user_with(
                        model,
                        basket,
                        &self.cfg.foldin,
                        1.0,
                        self.cfg.foldin_steps,
                        item_sum.get_or_init(|| model.item_factors.column_sums()),
                        &mut s.borrow_mut(),
                    )
                });
                self.fold_ins.record(&fold);
                Ok(self.select(model, index, quant.as_ref(), &fold.factors, &exclude, m))
            }
            EngineModel::Generic(model) => {
                let fold_in = model.as_fold_in().ok_or(OcularError::Unsupported {
                    kind: model.name(),
                    capability: "cold-start fold-in",
                })?;
                self.select_dense(&exclude, m, |scores| fold_in.score_basket(basket, scores))
            }
        }
    }

    /// Generic selection: `fill` scores the whole catalog into this
    /// thread's dense vector (the [`ocular_api`] contract), then the shared
    /// bounded-heap kernel selects from it.
    fn select_dense(
        &self,
        exclude: &[u32],
        m: usize,
        fill: impl FnOnce(&mut Vec<f64>) -> Result<(), ServeError>,
    ) -> Result<ServedList, ServeError> {
        SCORES.with(|cell| {
            let mut scores = cell.borrow_mut();
            fill(&mut scores)?;
            let top = to_recommendations(top_k_excluding(&scores, exclude, m));
            Ok(self.full_catalog_list(top, scores.len()))
        })
    }

    /// A list selected from all `scored` catalog items. Under the cluster
    /// policy this *is* the fallback path, so `fell_back` reports it as
    /// such.
    fn full_catalog_list(&self, items: Vec<Recommendation>, scored: usize) -> ServedList {
        ServedList {
            items,
            scored,
            fell_back: !matches!(self.cfg.candidates, CandidatePolicy::FullCatalog),
            folded_in: false,
        }
    }

    /// OCuLaR core selection: candidate generation per policy, else the
    /// full catalog, in one scan-and-select pass with the workspace ties
    /// convention (probability descending, ties by ascending item index).
    /// `exclude` is ascending.
    fn select(
        &self,
        model: &FactorModel,
        index: &ClusterIndex,
        quant: Option<&Arc<QuantizedFactors>>,
        factors: &[f64],
        exclude: &[u32],
        m: usize,
    ) -> ServedList {
        if let CandidatePolicy::Clusters { min_candidates } = self.cfg.candidates {
            let candidates = index.candidates(factors);
            // usable = candidates not excluded (both lists ascending)
            let usable = candidates.len() - intersection_size(&candidates, exclude);
            if usable >= m.max(min_candidates) {
                let quant = quant.map(Arc::as_ref);
                return select_candidates(model, quant, factors, &candidates, exclude, m);
            }
        }
        let n = model.n_items();
        let items = match quant {
            // [`ocular_core::recommend_top_m`]'s own kernel, hence
            // bitwise-identical lists for a warm user
            None => {
                self.count_scan(false, 1, factors.len());
                top_m_for_factors(model, factors, exclude, m)
            }
            // the user row (warm or folded-in) narrows once; the selector
            // takes each tile of the blocked kernel while it is in L1
            Some(quant) => {
                let query = quant.prepare(factors);
                let sparse = quant.scans_sparse(&query, n.min(SCAN_TILE));
                let cores = self.hold_cores(n);
                let parts = cores.parts();
                self.count_scan(sparse, parts, query.active_codes());
                let top = if parts == 1 {
                    scan_part(quant, &query, 0..n, exclude, m)
                } else {
                    split_scan(quant, query, exclude, m, parts)
                };
                to_recommendations(top)
            }
        };
        self.full_catalog_list(items, n)
    }

    /// The cores a full-catalog scan of `n` items takes from
    /// [`ServeEngine::busy`] until it returns: one per part, as many parts
    /// as [`scan_parts`] leaves it beside the scans already running.
    fn hold_cores(&self, n: usize) -> HeldCores<'_> {
        let mut held = 0;
        if n / SPLIT_ROWS > 1 {
            let take = |busy| {
                held = scan_parts(n, busy);
                Some(busy + held)
            };
            let _ = self
                .busy
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, take);
        }
        HeldCores {
            busy: &self.busy,
            held,
        }
    }
}

/// Cores held on [`ServeEngine::busy`], given back on drop — a panicking
/// scan included. A catalog too small to split holds none.
struct HeldCores<'a> {
    busy: &'a AtomicUsize,
    held: usize,
}

impl HeldCores<'_> {
    fn parts(&self) -> usize {
        self.held.max(1)
    }
}

impl Drop for HeldCores<'_> {
    fn drop(&mut self) {
        if self.held > 0 {
            self.busy.fetch_sub(self.held, Ordering::Relaxed);
        }
    }
}

/// The host's cores, read once: a scan runs in at most this many parts, on
/// the requester and one fewer helper.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Parts a quantized full-catalog scan of `n` items runs in from this thread
/// while its engine's other scans hold `busy` cores (0 on an idle engine):
/// one per thread ([`ocular_parallel::with_threads`], else
/// `RAYON_NUM_THREADS`, else the host) and per core the host has, less the
/// busy ones, at most one per `SPLIT_ROWS` items — never fewer than one.
///
/// A part only pays where a core would otherwise wait. With every core
/// serving a request, splitting costs each request more CPU for no wall
/// time: two requesters on the 2-core VM, each looping on the
/// `http_warm_catalog` model, read 14,035–14,701 req/s unsplit and
/// 11,261–11,650 with every scan in two parts.
pub fn scan_parts(n: usize, busy: usize) -> usize {
    let free = rayon::current_num_threads()
        .min(host_cores())
        .saturating_sub(busy);
    free.clamp(1, (n / SPLIT_ROWS).max(1))
}

/// Items of part `part` of `parts` over `n`: whole [`SCAN_TILE`]s, so the
/// parts score the one-part scan's tiles, and so its bits.
fn part_items(n: usize, parts: usize, part: usize) -> Range<usize> {
    let tiles = n.div_ceil(SCAN_TILE);
    let at = |part: usize| (part * tiles / parts * SCAN_TILE).min(n);
    at(part)..at(part + 1)
}

/// Scores `items` a [`ScanTile`] at a time into a top-`m` of their own,
/// skipping `exclude`: a whole full-catalog scan, or one part of a split one.
fn scan_part(
    quant: &QuantizedFactors,
    query: &PreparedQuery,
    items: Range<usize>,
    exclude: &[u32],
    m: usize,
) -> Vec<(f64, usize)> {
    let mut top = MonotoneTopK::new(m, exclude, prob_from_affinity);
    let mut tile = ScanTile([0.0; SCAN_TILE]);
    for first in items.clone().step_by(SCAN_TILE) {
        let tile = &mut tile.0[..SCAN_TILE.min(items.end - first)];
        quant.score_block(query, first, tile);
        top.offer_run(first, tile);
    }
    top.into_sorted()
}

/// A scan in parts, owning what a part reads, so a part can run on a helper
/// after the request's borrows — or its generation — are gone.
struct SplitScan {
    quant: Arc<QuantizedFactors>,
    query: PreparedQuery,
    exclude: Vec<u32>,
    m: usize,
    /// Per part, whether a thread took it: it decides only who runs the
    /// part — the list travels through a channel — so it is relaxed.
    claimed: Box<[AtomicBool]>,
}

impl SplitScan {
    fn claim(&self, part: usize) -> bool {
        let flag = &self.claimed[part];
        (flag.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)).is_ok()
    }

    fn run(&self, part: usize) -> Vec<(f64, usize)> {
        let items = part_items(self.quant.rows(), self.claimed.len(), part);
        scan_part(&self.quant, &self.query, items, &self.exclude, self.m)
    }
}

/// Scans in `parts` parts and merges their lists. Parts 1… are offered to
/// the helpers; the caller runs part 0 and every part no helper has started,
/// so a busy pool costs no more than one part and nothing waits on a queue.
///
/// The helpers are a [`WorkerPool`] because they must already be running
/// when a request arrives: the workspace's `rayon` starts a scoped thread per
/// call. A `par_iter` over the parts, merged the same way, read 6,210–7,624
/// req/s with one requester looping on the `http_warm_catalog` model (2-core
/// VM, three runs) — no better than the one-part scan's 7,145–7,576 —
/// against 9,622–10,883 here.
fn split_scan(
    quant: &Arc<QuantizedFactors>,
    query: PreparedQuery,
    exclude: &[u32],
    m: usize,
    parts: usize,
) -> Vec<(f64, usize)> {
    // one fewer than the host's cores, as the caller scans a part too;
    // started by the first split
    static HELPERS: OnceLock<WorkerPool> = OnceLock::new();
    let helpers = HELPERS.get_or_init(|| WorkerPool::new(host_cores() - 1));
    let scan = Arc::new(SplitScan {
        quant: Arc::clone(quant),
        query,
        exclude: exclude.to_vec(),
        m,
        claimed: (0..parts).map(|_| AtomicBool::new(false)).collect(),
    });
    let (done, lists) = mpsc::channel();
    for part in 1..parts {
        let (scan, done) = (Arc::clone(&scan), done.clone());
        helpers.execute(move || {
            if scan.claim(part) {
                // a panicking part panics the request instead of leaving it waiting
                let _ = done.send(catch_unwind(AssertUnwindSafe(|| scan.run(part))));
            }
        });
    }
    drop(done);
    let mut top = TopK::new(m);
    let mut merge = |list: Vec<(f64, usize)>| {
        for (probability, item) in list {
            top.push(item, probability);
        }
    };
    let mut running = 0;
    for part in 0..parts {
        match scan.claim(part) {
            true => merge(scan.run(part)),
            false => running += 1,
        }
    }
    for _ in 0..running {
        let list = lists.recv().expect("a claimed part always reports");
        merge(list.unwrap_or_else(|panic| resume_unwind(panic)));
    }
    top.into_sorted()
}

fn to_recommendations(pairs: Vec<(f64, usize)>) -> Vec<Recommendation> {
    pairs.into_iter().map(Recommendation::from).collect()
}

/// Scores only the candidate list (ascending), skipping exclusions.
fn select_candidates(
    model: &FactorModel,
    quant: Option<&QuantizedFactors>,
    factors: &[f64],
    candidates: &[u32],
    exclude: &[u32],
    m: usize,
) -> ServedList {
    let query = quant.map(|q| (q, q.prepare(factors)));
    let mut top = MonotoneTopK::new(m, exclude, prob_from_affinity);
    let mut scored = 0usize;
    for &c in candidates {
        let item = c as usize;
        top.offer(item, || {
            scored += 1;
            match &query {
                Some((quant, q)) => quant.score_row(q, item),
                None => ops::dot(factors, model.item_factors.row(item)),
            }
        });
    }
    ServedList {
        items: to_recommendations(top.into_sorted()),
        scored,
        fell_back: false,
        folded_in: false,
    }
}

/// Size of the intersection of two ascending `u32` lists.
fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_api::Recommender as _;
    use ocular_baselines::{ItemKnn, KnnConfig, Popularity, UserKnn};
    use ocular_core::{fit, recommend_top_m};
    use ocular_datasets::planted::{generate, PlantedConfig};
    use ocular_linalg::Matrix;
    use ocular_sparse::CsrMatrix;

    fn trained() -> (FactorModel, Dataset, OcularConfig) {
        let data = generate(&PlantedConfig {
            n_users: 60,
            n_items: 40,
            k: 3,
            users_per_cluster: 20,
            items_per_cluster: 14,
            user_overlap: 0.2,
            item_overlap: 0.2,
            within_density: 0.6,
            noise_density: 0.01,
            seed: 5,
        });
        let cfg = OcularConfig {
            k: 3,
            lambda: 0.2,
            max_iters: 40,
            seed: 2,
            ..Default::default()
        };
        let model = fit(&data.matrix, &cfg).model;
        (model, data.matrix, cfg)
    }

    fn engine(policy: CandidatePolicy) -> (ServeEngine, Dataset) {
        let (model, r, train_cfg) = trained();
        let cfg = ServeConfig {
            default_m: 5,
            candidates: policy,
            foldin: train_cfg,
            ..Default::default()
        };
        let e = EngineBuilder::from_model(model)
            .dataset(r.clone())
            .index_config(IndexConfig {
                rel: 0.5,
                floor: 10,
            })
            .config(cfg)
            .build()
            .unwrap();
        (e, r)
    }

    #[test]
    fn full_catalog_matches_recommend_top_m_bitwise() {
        let (e, r) = engine(CandidatePolicy::FullCatalog);
        assert_eq!(e.kind(), "ocular");
        for u in 0..e.model().n_users() {
            let served = e.serve_one(&Request::Warm { user: u, m: 10 }).unwrap();
            assert_eq!(served.items, recommend_top_m(e.model(), &r, u, 10));
            assert!(!served.fell_back);
            assert_eq!(served.scored, e.model().n_items());
        }
    }

    #[test]
    fn cluster_policy_scores_fewer_items() {
        let (e, _) = engine(CandidatePolicy::Clusters { min_candidates: 1 });
        let mut restricted = 0;
        for u in 0..e.model().n_users() {
            let served = e.serve_one(&Request::Warm { user: u, m: 3 }).unwrap();
            assert_eq!(served.items.len(), 3);
            if !served.fell_back {
                assert!(served.scored <= e.model().n_items());
                restricted += usize::from(served.scored < e.model().n_items());
            }
        }
        assert!(
            restricted > 0,
            "a planted-cluster model must restrict at least one user's candidates"
        );
    }

    #[test]
    fn cluster_fallback_when_coverage_thin() {
        // min_candidates above the catalog forces fallback for everyone
        let (e, r) = engine(CandidatePolicy::Clusters {
            min_candidates: 10_000,
        });
        let served = e.serve_one(&Request::Warm { user: 0, m: 5 }).unwrap();
        assert!(served.fell_back);
        assert_eq!(served.items, recommend_top_m(e.model(), &r, 0, 5));
    }

    #[test]
    fn unknown_user_rejected() {
        let (e, _) = engine(CandidatePolicy::FullCatalog);
        let err = e
            .serve_one(&Request::Warm { user: 9999, m: 5 })
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownUser { user: 9999, .. }));
    }

    #[test]
    fn cold_request_served_and_validated() {
        let (e, _) = engine(CandidatePolicy::Clusters { min_candidates: 1 });
        let served = e
            .serve_one(&Request::Cold {
                basket: vec![0, 1, 2],
                m: 5,
            })
            .unwrap();
        assert_eq!(served.items.len(), 5);
        assert!(served.items.iter().all(|r| ![0, 1, 2].contains(&r.item)));
        // invalid baskets are errors, not panics
        assert!(matches!(
            e.serve_one(&Request::Cold {
                basket: vec![9999],
                m: 5
            }),
            Err(ServeError::BadBasket(_))
        ));
        assert!(matches!(
            e.serve_one(&Request::Cold {
                basket: vec![1, 1],
                m: 5
            }),
            Err(ServeError::BadBasket(_))
        ));
    }

    #[test]
    fn batch_matches_serve_one_in_order() {
        let (e, _) = engine(CandidatePolicy::Clusters { min_candidates: 5 });
        let reqs: Vec<Request> = (0..e.model().n_users())
            .map(|user| Request::Warm { user, m: 7 })
            .chain([Request::Cold {
                basket: vec![3, 4],
                m: 7,
            }])
            .collect();
        let batch = ocular_parallel::with_threads(Some(4), || e.serve_batch(&reqs));
        assert_eq!(batch.len(), reqs.len());
        for (req, got) in reqs.iter().zip(&batch) {
            assert_eq!(got, &e.serve_one(req));
        }
    }

    #[test]
    fn default_m_applies_when_zero() {
        let (e, _) = engine(CandidatePolicy::FullCatalog);
        let served = e.serve_one(&Request::Warm { user: 1, m: 0 }).unwrap();
        assert_eq!(served.items.len(), e.config().default_m);
    }

    #[test]
    fn shape_mismatch_rejected() {
        // a dataset *smaller* than the model is unusable — exclusion rows
        // and fold-in baskets would be missing
        let (model, _r, _) = trained();
        let bad = Dataset::from_matrix(ocular_sparse::CsrMatrix::empty(3, 3));
        assert!(matches!(
            EngineBuilder::from_model(model).dataset(bad).build(),
            Err(OcularError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn builder_requires_a_dataset() {
        let (model, _, _) = trained();
        assert!(matches!(
            EngineBuilder::from_model(model).build(),
            Err(OcularError::InvalidConfig(_))
        ));
    }

    #[test]
    fn builder_rejects_a_fold_in_lambda_that_is_not_finite_and_non_negative() {
        // NaN and ∞ pass a bare `lambda < 0` test and fold every cold
        // basket into a vector that never left its start
        let (model, r, train_cfg) = trained();
        for lambda in [f64::NAN, f64::INFINITY, -1.0] {
            let built = EngineBuilder::from_model(model.clone())
                .dataset(r.clone())
                .config(ServeConfig {
                    foldin: OcularConfig {
                        lambda,
                        ..train_cfg.clone()
                    },
                    ..Default::default()
                })
                .build();
            assert!(
                matches!(&built, Err(OcularError::InvalidConfig(why)) if why.contains("lambda")),
                "λ = {lambda}: {:?}",
                built.err()
            );
        }
    }

    #[test]
    fn users_newer_than_the_model_are_served_by_fold_in() {
        let (model, r, train_cfg) = trained();
        let (model_users, model_items) = (model.n_users(), model.n_items());
        // append a delta: one brand-new user interacting with items the
        // model knows, plus a brand-new item the model does not
        let grown = r
            .append_deltas([
                (model_users as u64, 0),
                (model_users as u64, 3),
                (model_users as u64, model_items as u64), // beyond the catalog
            ])
            .unwrap();
        let e = EngineBuilder::from_model(model)
            .dataset(grown)
            .config(ServeConfig {
                default_m: 5,
                candidates: CandidatePolicy::FullCatalog,
                foldin: train_cfg,
                ..Default::default()
            })
            .generation(3)
            .build()
            .unwrap();
        assert_eq!(e.generation(), 3);
        assert_eq!(e.model_users(), model_users);

        // the new user serves via fold-in on the model-known part of
        // their basket, and the response says so
        let served = e
            .serve_one(&Request::Warm {
                user: model_users,
                m: 5,
            })
            .unwrap();
        assert!(served.folded_in);
        assert_eq!(served.items.len(), 5);
        assert!(served.items.iter().all(|x| ![0, 3].contains(&x.item)));
        // identical to the equivalent cold request, telemetry aside
        let cold = e
            .serve_one(&Request::Cold {
                basket: vec![0, 3],
                m: 5,
            })
            .unwrap();
        assert_eq!(served.items, cold.items);
        assert!(!cold.folded_in);

        // existing users still serve warm
        assert!(
            !e.serve_one(&Request::Warm { user: 0, m: 5 })
                .unwrap()
                .folded_in
        );
        // both solves were counted (the warm row lookup was not), they
        // iterated, and they stopped at a stationary point
        let stats = e.fold_in_stats();
        assert_eq!((stats.fold_ins, stats.unconverged), (2, 0), "{stats:?}");
        assert!(
            stats.iterations >= 2 && stats.iterations % 2 == 0,
            "{stats:?}"
        );
        // users beyond even the dataset are still unknown, reported
        // against the dataset's user count
        let err = e
            .serve_one(&Request::Warm {
                user: model_users + 1,
                m: 5,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownUser { n_users, .. }
            if n_users == model_users + 1));
    }

    #[test]
    fn generic_kind_served_exactly_with_cluster_policy_degrading() {
        let (_, r, _) = trained();
        let knn = ItemKnn::fit(&r, &KnnConfig { k: 10 });
        let e = EngineBuilder::from_recommender(Box::new(knn.clone()))
            .dataset(r.clone())
            .default_m(5)
            .candidates(CandidatePolicy::Clusters { min_candidates: 5 })
            .build()
            .unwrap();
        assert_eq!(e.kind(), "item-knn");
        for u in 0..r.n_rows() {
            let served = e.serve_one(&Request::Warm { user: u, m: 7 }).unwrap();
            assert!(served.fell_back, "cluster policy must degrade to exact");
            assert_eq!(served.scored, r.n_cols());
            let want = knn.recommend(u, r.row(u), 7).unwrap();
            assert_eq!(served.items.len(), want.len());
            for (a, b) in served.items.iter().zip(&want) {
                assert_eq!((a.item, a.probability), (b.item, b.score));
            }
        }
        // cold start flows through the model's FoldIn capability
        let served = e
            .serve_one(&Request::Cold {
                basket: vec![0, 1],
                m: 5,
            })
            .unwrap();
        assert_eq!(served.items.len(), 5);
        assert!(served.items.iter().all(|x| ![0, 1].contains(&x.item)));
    }

    #[test]
    fn generic_kind_without_fold_in_rejects_cold_requests() {
        let (_, r, _) = trained();
        let e = EngineBuilder::from_recommender(Box::new(UserKnn::fit(&r, &KnnConfig { k: 10 })))
            .dataset(r.clone())
            .build()
            .unwrap();
        assert!(matches!(
            e.serve_one(&Request::Cold {
                basket: vec![0],
                m: 3
            }),
            Err(OcularError::Unsupported { .. })
        ));
        // warm requests still serve
        assert!(e.serve_one(&Request::Warm { user: 0, m: 3 }).is_ok());
    }

    #[test]
    fn generic_batch_deterministic_across_threads() {
        let (_, r, _) = trained();
        let e = EngineBuilder::from_recommender(Box::new(Popularity::fit(&r)))
            .dataset(r.clone())
            .build()
            .unwrap();
        let reqs: Vec<Request> = (0..r.n_rows())
            .map(|user| Request::Warm { user, m: 6 })
            .collect();
        let reference = ocular_parallel::with_threads(Some(1), || e.serve_batch(&reqs));
        for threads in [2usize, 4] {
            assert_eq!(
                ocular_parallel::with_threads(Some(threads), || e.serve_batch(&reqs)),
                reference
            );
        }
    }

    #[test]
    fn quantized_engines_report_dtype_and_score_within_tolerance() {
        let (model, r, train_cfg) = trained();
        let cfg = ServeConfig {
            default_m: 5,
            candidates: CandidatePolicy::FullCatalog,
            foldin: train_cfg,
            ..Default::default()
        };
        let f64_engine = EngineBuilder::from_model(model.clone())
            .dataset(r.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        assert_eq!(f64_engine.dtype(), None);
        for (dtype, name, tol) in [
            (QuantDtype::F32, "f32", 1e-5),
            (QuantDtype::I8, "int8", 5e-2),
        ] {
            let e = EngineBuilder::from_model(model.clone())
                .dataset(r.clone())
                .config(cfg.clone())
                .quantization(dtype)
                .build()
                .unwrap();
            assert_eq!(e.dtype(), Some(name));
            for u in 0..e.model().n_users() {
                let got = e.serve_one(&Request::Warm { user: u, m: 5 }).unwrap();
                let want = f64_engine
                    .serve_one(&Request::Warm { user: u, m: 5 })
                    .unwrap();
                // per-item probabilities stay within the dtype's error
                // envelope of the f64 path
                for (g, w) in got.items.iter().zip(&want.items) {
                    assert!(
                        (g.probability - w.probability).abs() <= tol,
                        "{name} user {u}: |{} - {}| > {tol}",
                        g.probability,
                        w.probability
                    );
                }
            }
            // cold requests fold in at f64 and narrow the folded row
            let served = e
                .serve_one(&Request::Cold {
                    basket: vec![0, 1],
                    m: 5,
                })
                .unwrap();
            assert_eq!(served.items.len(), 5);
        }
    }

    #[test]
    fn quantized_cluster_policy_serves_both_paths() {
        let (model, r, train_cfg) = trained();
        let e = EngineBuilder::from_model(model)
            .dataset(r)
            .index_config(IndexConfig {
                rel: 0.5,
                floor: 10,
            })
            .config(ServeConfig {
                default_m: 5,
                candidates: CandidatePolicy::Clusters { min_candidates: 1 },
                foldin: train_cfg,
                ..Default::default()
            })
            .quantization(QuantDtype::I8)
            .build()
            .unwrap();
        let (mut restricted, mut full) = (0, 0);
        for u in 0..e.model().n_users() {
            let served = e.serve_one(&Request::Warm { user: u, m: 3 }).unwrap();
            assert_eq!(served.items.len(), 3);
            if served.scored < e.model().n_items() {
                restricted += 1;
            } else {
                full += 1;
            }
        }
        assert!(restricted > 0, "candidate path must be exercised");
        let _ = full;
    }

    #[test]
    fn snapshot_carried_quant_is_adopted_or_requantized() {
        let (model, r, _) = trained();
        let snap =
            Snapshot::build(model, &IndexConfig::default()).with_quantization(QuantDtype::I8);
        // no builder request: the snapshot's copy is served as-is
        let e = EngineBuilder::from_snapshot(AnySnapshot::Ocular(snap.clone()))
            .dataset(r.clone())
            .build()
            .unwrap();
        assert_eq!(e.dtype(), Some("int8"));
        // a mismatching request re-quantizes from the f64 master
        let e = EngineBuilder::from_snapshot(AnySnapshot::Ocular(snap))
            .dataset(r)
            .quantization(QuantDtype::F32)
            .build()
            .unwrap();
        assert_eq!(e.dtype(), Some("f32"));
    }

    #[test]
    fn a_quantized_copy_with_a_wrong_code_sum_fails_the_build_and_the_reload() {
        // a file can carry a valid checksum over sums that do not match its
        // codes; the row-major and factor-major arms would then disagree
        let (model, r, _) = trained();
        let good =
            Snapshot::build(model, &IndexConfig::default()).with_quantization(QuantDtype::I8);
        let mut bad = good.clone();
        let quant = bad.quant.take().unwrap();
        let (codes, scale, zero, qsum) = quant.i8_parts();
        let mut qsum = qsum.to_vec();
        qsum[17] += 1.0;
        bad.quant = Some(
            QuantizedFactors::from_parts_i8(
                quant.rows(),
                quant.cols(),
                codes.to_vec().into(),
                scale.to_vec().into(),
                zero.to_vec().into(),
                qsum.into(),
            )
            .unwrap(),
        );
        let build = move |snap: &Snapshot, generation| {
            EngineBuilder::from_snapshot(AnySnapshot::Ocular(snap.clone()))
                .dataset(r.clone())
                .candidates(CandidatePolicy::FullCatalog)
                .generation(generation)
                .build()
        };
        let built = build(&bad, 1);
        assert!(
            matches!(&built, Err(OcularError::Corrupt(why)) if why.contains("row 17")),
            "{:?}",
            built.err()
        );
        // reloading such a generation leaves the old one serving
        let request = Request::Warm { user: 3, m: 5 };
        let before = build(&good, 1).unwrap().serve_one(&request).unwrap();
        let swap = crate::swap::SwapEngine::with_reload(
            build(&good, 1).unwrap(),
            Box::new(move |current| build(&bad, current + 1)),
        );
        assert!(matches!(
            swap.reload(),
            Err(crate::swap::ReloadError::Failed(OcularError::Corrupt(_)))
        ));
        assert_eq!((swap.generation(), swap.swap_count()), (1, 0));
        assert_eq!(swap.engine().serve_one(&request).unwrap(), before);
    }

    #[test]
    fn quantization_rejected_for_generic_kinds() {
        let (_, r, _) = trained();
        let built = EngineBuilder::from_recommender(Box::new(Popularity::fit(&r)))
            .dataset(r)
            .quantization(QuantDtype::F32)
            .build();
        assert!(matches!(built, Err(OcularError::InvalidConfig(_))));
    }

    #[test]
    fn intersection_size_counts() {
        assert_eq!(intersection_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersection_size(&[], &[1]), 0);
    }

    /// Attaches non-trivial external ids (user `u` ↔ `1000 + 7u`, item `i`
    /// ↔ `500 + 3i`) to the trained interactions.
    fn engine_with_ids(policy: CandidatePolicy) -> (ServeEngine, Dataset) {
        let (model, r, train_cfg) = trained();
        let users: Vec<u64> = (0..r.n_users() as u64).map(|u| 1000 + 7 * u).collect();
        let items: Vec<u64> = (0..r.n_items() as u64).map(|i| 500 + 3 * i).collect();
        let ids = ocular_sparse::IdMaps::new(users, items).unwrap();
        let d = Dataset::new(r.matrix().clone(), ids).unwrap();
        let cfg = ServeConfig {
            default_m: 5,
            candidates: policy,
            foldin: train_cfg,
            ..Default::default()
        };
        let e = EngineBuilder::from_model(model)
            .dataset(d.clone())
            .index_config(IndexConfig {
                rel: 0.5,
                floor: 10,
            })
            .config(cfg)
            .build()
            .unwrap();
        (e, d)
    }

    #[test]
    fn external_id_requests_resolve_to_internal_paths() {
        let (e, d) = engine_with_ids(CandidatePolicy::FullCatalog);
        for u in 0..d.n_users() {
            let via_external = e
                .serve_one(&Request::WarmExternal {
                    user: d.external_user(u),
                    m: 8,
                })
                .unwrap();
            let via_internal = e.serve_one(&Request::Warm { user: u, m: 8 }).unwrap();
            assert_eq!(
                via_external, via_internal,
                "external addressing must be a pure id translation for user {u}"
            );
        }
        // items in the response translate back through the engine's maps
        let served = e
            .serve_one(&Request::WarmExternal { user: 1000, m: 3 })
            .unwrap();
        for rec in &served.items {
            assert_eq!(e.external_item(rec.item), 500 + 3 * rec.item as u64);
            assert_eq!(
                e.dataset().item_index(e.external_item(rec.item)),
                Some(rec.item)
            );
        }
    }

    #[test]
    fn external_cold_basket_resolves_items() {
        let (e, d) = engine_with_ids(CandidatePolicy::Clusters { min_candidates: 5 });
        let internal = vec![0usize, 1, 2];
        let external: Vec<u64> = internal.iter().map(|&i| d.external_item(i)).collect();
        let a = e
            .serve_one(&Request::ColdExternal {
                basket: external,
                m: 5,
            })
            .unwrap();
        let b = e
            .serve_one(&Request::Cold {
                basket: internal,
                m: 5,
            })
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_external_ids_rejected_with_typed_error() {
        let (e, _) = engine_with_ids(CandidatePolicy::FullCatalog);
        assert!(matches!(
            e.serve_one(&Request::WarmExternal { user: 1, m: 3 }),
            Err(OcularError::UnknownExternalId {
                external: 1,
                entity: "user"
            })
        ));
        assert!(matches!(
            e.serve_one(&Request::ColdExternal {
                basket: vec![500, 2],
                m: 3
            }),
            Err(OcularError::UnknownExternalId {
                external: 2,
                entity: "item"
            })
        ));
    }

    #[test]
    fn identity_mapping_serves_external_ids_in_range() {
        // no id maps: external ids are the internal indices
        let (e, _) = engine(CandidatePolicy::FullCatalog);
        let a = e
            .serve_one(&Request::WarmExternal { user: 3, m: 4 })
            .unwrap();
        let b = e.serve_one(&Request::Warm { user: 3, m: 4 }).unwrap();
        assert_eq!(a, b);
        assert!(matches!(
            e.serve_one(&Request::WarmExternal {
                user: u64::MAX,
                m: 4
            }),
            Err(OcularError::UnknownExternalId { .. })
        ));
    }

    /// What the fused scan must reproduce: score the whole catalog in one
    /// call, transform **every** affinity, then select with
    /// [`top_k_excluding`]. On the candidate path everything outside the
    /// candidate list joins the exclusions.
    fn transform_all_reference(
        model: &FactorModel,
        index: &ClusterIndex,
        quantize: Option<QuantDtype>,
        policy: CandidatePolicy,
        factors: &[f64],
        exclude: &[u32],
        m: usize,
    ) -> ServedList {
        let n = model.n_items();
        let mut scores = vec![0.0; n];
        match quantize {
            Some(dtype) => {
                let quant = QuantizedFactors::quantize(&model.item_factors, dtype);
                quant.score_block(&quant.prepare(factors), 0, &mut scores);
            }
            None => {
                for (i, s) in scores.iter_mut().enumerate() {
                    *s = ops::dot(factors, model.item_factors.row(i));
                }
            }
        }
        for s in scores.iter_mut() {
            *s = prob_from_affinity(*s);
        }
        let mut list = ServedList {
            items: Vec::new(),
            scored: n,
            fell_back: policy != CandidatePolicy::FullCatalog,
            folded_in: false,
        };
        let mut skip = exclude.to_vec();
        if let CandidatePolicy::Clusters { min_candidates } = policy {
            let candidates = index.candidates(factors);
            let usable = candidates.len() - intersection_size(&candidates, exclude);
            if usable >= m.max(min_candidates) {
                skip.extend((0..n as u32).filter(|i| candidates.binary_search(i).is_err()));
                skip.sort_unstable();
                skip.dedup();
                (list.scored, list.fell_back) = (usable, false);
            }
        }
        list.items = to_recommendations(top_k_excluding(&scores, &skip, m));
        list
    }

    /// The two models the hostile-shapes tests scan, `n_users × n_items`,
    /// K = 3. In `tied` few distinct factor values make affinities tie in
    /// long runs; in `saturated` every affinity is ≥ 3·4·4 = 48, so each
    /// probability is exactly 1.0 and the whole list is ordered by index
    /// alone. In both, user 0 keeps one code off its most frequent (the
    /// sparse int8 arm) and user 1 three distinct codes (the row-major arm).
    fn hostile_models(n_users: usize, n_items: usize) -> [FactorModel; 2] {
        let k = 3;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut ties = |rows: usize| {
            Matrix::from_vec(
                rows,
                k,
                (0..rows * k).map(|_| (next() % 4) as f64 * 0.5).collect(),
            )
        };
        let with_users = |mut users: Matrix, sparse: [f64; 3], dense: [f64; 3]| {
            users.row_mut(0).copy_from_slice(&sparse);
            users.row_mut(1).copy_from_slice(&dense);
            users
        };
        let tied = FactorModel::new(
            with_users(ties(n_users), [1.5, 0.0, 0.0], [0.5, 1.0, 1.5]),
            ties(n_items),
            false,
        );
        let mut high = |rows: usize| {
            Matrix::from_vec(
                rows,
                k,
                (0..rows * k).map(|_| 4.0 + (next() % 3) as f64).collect(),
            )
        };
        let saturated = FactorModel::new(
            with_users(high(n_users), [4.0, 4.0, 6.0], [4.0, 5.0, 6.0]),
            high(n_items),
            false,
        );
        [tied, saturated]
    }

    /// Interactions where every row `0..=n_users` owns `owned` and item
    /// `7·u`; row `n_users` belongs to a user newer than the model.
    fn owning(n_users: usize, n_items: usize, owned: &[usize]) -> Dataset {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for u in 0..=n_users {
            pairs.extend(owned.iter().map(|&i| (u, i)));
            pairs.push((u, u * 7));
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(n_users + 1, n_items, &pairs).unwrap())
    }

    #[test]
    fn fused_scan_matches_transform_all_on_hostile_shapes() {
        let n_items = 2 * SCAN_TILE + 37;
        let (n_users, k, default_m) = (6usize, 3usize, 5usize);
        let [tied, saturated] = hostile_models(n_users, n_items);

        // owned items straddle a tile boundary and include the last index
        let owned = [SCAN_TILE - 1, SCAN_TILE, SCAN_TILE + 1, n_items - 1];
        let data = owning(n_users, n_items, &owned);
        let index_cfg = IndexConfig {
            rel: 0.5,
            floor: 10,
        };

        let mut candidate_lists = 0usize;
        for model in [&tied, &saturated] {
            let index = Snapshot::build(model.clone(), &index_cfg).index;
            for quantize in [None, Some(QuantDtype::F32), Some(QuantDtype::I8)] {
                for policy in [
                    CandidatePolicy::FullCatalog,
                    CandidatePolicy::Clusters { min_candidates: 20 },
                ] {
                    // the pinned kernel level: the quantized scans once per
                    // level this CPU has, against the one row-major reference
                    let mut levels = vec![None];
                    if quantize.is_some() {
                        levels.extend(KernelLevel::available().map(Some));
                    }
                    for level in levels {
                        let mut builder = EngineBuilder::from_model(model.clone())
                            .dataset(data.clone())
                            .index_config(index_cfg)
                            .candidates(policy)
                            .default_m(default_m);
                        if let Some(dtype) = quantize {
                            builder = builder.quantization(dtype);
                        }
                        if let Some(level) = level {
                            builder = builder.kernel_level(level);
                        }
                        let e = builder.build().unwrap();
                        if let Some(level) = level {
                            assert_eq!(e.kernel(), level.name());
                        }
                        // one factor-major copy (codes + i32 row sums)
                        let int8 = quantize == Some(QuantDtype::I8);
                        let sidecar = if int8 { n_items * (k + 4) } else { 0 };
                        assert_eq!(e.sidecar_bytes(), sidecar);
                        let fold = |basket: &[usize]| {
                            ocular_core::fold_in_user(
                                model,
                                basket,
                                &e.cfg.foldin,
                                1.0,
                                e.cfg.foldin_steps,
                            )
                            .factors
                        };
                        for m in [0, 7, n_items, n_items + 5] {
                            let expected = |factors: &[f64], exclude: &[u32]| {
                                let m = if m == 0 { default_m } else { m };
                                transform_all_reference(
                                    model, &index, quantize, policy, factors, exclude, m,
                                )
                            };
                            let ctx = format!("{quantize:?} {level:?} {policy:?} m={m}");
                            for user in 0..n_users {
                                let got = e.serve_one(&Request::Warm { user, m }).unwrap();
                                let want = expected(model.user_factors.row(user), data.row(user));
                                assert_eq!(got, want, "warm user {user} {ctx}");
                                candidate_lists += usize::from(got.scored < n_items);
                                if std::ptr::eq(model, &saturated) {
                                    assert!(got.items.iter().all(|r| r.probability == 1.0));
                                }
                            }
                            // the user newer than the model folds in on their row
                            let basket: Vec<usize> =
                                data.row(n_users).iter().map(|&i| i as usize).collect();
                            let got = e.serve_one(&Request::Warm { user: n_users, m }).unwrap();
                            let mut want = expected(&fold(&basket), data.row(n_users));
                            want.folded_in = true;
                            assert_eq!(got, want, "new user {ctx}");
                            // cold baskets, one of them unsorted across tiles
                            for basket in [vec![0], vec![n_items - 1, SCAN_TILE, 3]] {
                                let got = e
                                    .serve_one(&Request::Cold {
                                        basket: basket.clone(),
                                        m,
                                    })
                                    .unwrap();
                                let exclude = validate_basket(&basket, n_items).unwrap();
                                let want = expected(&fold(&basket), &exclude);
                                assert_eq!(got, want, "cold {basket:?} {ctx}");
                            }
                        }
                        // every full-catalog scan was counted, in one part,
                        // and the int8 ones went through both arms
                        let scans = e.scan_stats();
                        if policy == CandidatePolicy::FullCatalog {
                            assert_eq!(scans.sparse + scans.dense, 4 * (n_users as u64 + 3));
                        }
                        if int8 {
                            assert!(scans.sparse > 0 && scans.dense > 0, "{scans:?}");
                        } else {
                            assert_eq!(scans.sparse, 0);
                        }
                        assert_eq!(scans.split, 0, "{scans:?}");
                    }
                }
            }
        }
        assert!(candidate_lists > 0, "the candidate path must be exercised");
    }

    #[test]
    fn split_scans_match_transform_all_across_part_boundaries() {
        // the hostile models on a catalog that splits in two at two threads,
        // at `boundary`; a host with one core scans it in one part, so the
        // parts are also run directly, two and four of them, below
        let n_items = 2 * SPLIT_ROWS + 37;
        let (n_users, threads, default_m) = (6usize, 2, 5usize);
        let parts = ocular_parallel::with_threads(Some(threads), || scan_parts(n_items, 0));
        assert_eq!(parts, host_cores().min(threads));
        let boundary = part_items(n_items, 2, 1).start;
        let [tied, saturated] = hostile_models(n_users, n_items);
        // owned items on both sides of the part boundary, and the last one
        let owned = [boundary - 1, boundary, boundary + 1, n_items - 1];
        let data = owning(n_users, n_items, &owned);
        let cfg = ServeConfig::default();
        let fold = |model: &FactorModel, basket: &[usize]| {
            ocular_core::fold_in_user(model, basket, &cfg.foldin, 1.0, cfg.foldin_steps).factors
        };
        let full = CandidatePolicy::FullCatalog;

        for model in [&tied, &saturated] {
            let index = ClusterIndex::build(model, &IndexConfig::default());
            for dtype in [QuantDtype::F32, QuantDtype::I8] {
                // (request, the query it scans, its exclusions and M, the
                // one-part reference's answer); M past part 0's un-owned
                // items, and past the catalog, too
                let mut cases = Vec::new();
                for m in [0, 7, boundary + 3, n_items + 5] {
                    let m_or_default = if m == 0 { default_m } else { m };
                    let mut case = |request, factors: Vec<f64>, exclude: &[u32], folded| {
                        let mut want = transform_all_reference(
                            model,
                            &index,
                            Some(dtype),
                            full,
                            &factors,
                            exclude,
                            m_or_default,
                        );
                        want.folded_in = folded;
                        cases.push((request, factors, exclude.to_vec(), m_or_default, want));
                    };
                    for user in 0..n_users {
                        let factors = model.user_factors.row(user).to_vec();
                        case(Request::Warm { user, m }, factors, data.row(user), false);
                    }
                    // the user newer than the model folds in on their row
                    let basket: Vec<usize> =
                        data.row(n_users).iter().map(|&i| i as usize).collect();
                    let factors = fold(model, &basket);
                    case(
                        Request::Warm { user: n_users, m },
                        factors,
                        data.row(n_users),
                        true,
                    );
                    // cold baskets, one of them unsorted across tiles and parts
                    for basket in [vec![0], vec![n_items - 1, boundary, SCAN_TILE, 3]] {
                        let exclude = validate_basket(&basket, n_items).unwrap();
                        let factors = fold(model, &basket);
                        case(Request::Cold { basket, m }, factors, &exclude, false);
                    }
                }

                // the engines, at each level this CPU has
                let int8 = dtype == QuantDtype::I8;
                for level in KernelLevel::available() {
                    let e = EngineBuilder::from_model(model.clone())
                        .dataset(data.clone())
                        .candidates(full)
                        .default_m(default_m)
                        .quantization(dtype)
                        .kernel_level(level)
                        .build()
                        .unwrap();
                    let ctx = format!("{dtype:?} {level:?}");
                    for (request, .., want) in &cases {
                        let got =
                            ocular_parallel::with_threads(Some(threads), || e.serve_one(request));
                        assert_eq!(got.as_ref(), Ok(want), "{request:?} {ctx}");
                        let trained =
                            matches!(request, Request::Warm { user, .. } if *user < n_users);
                        if trained && std::ptr::eq(model, &saturated) {
                            assert!(want.items.iter().all(|r| r.probability == 1.0));
                        }
                    }
                    // each scan counted once, split wherever it could be
                    let scans = e.scan_stats();
                    let served = cases.len() as u64;
                    assert_eq!(scans.sparse + scans.dense, served, "{scans:?}");
                    assert_eq!(scans.split, if parts > 1 { served } else { 0 });
                    assert_eq!(scans.sparse > 0 && scans.dense > 0, int8, "{scans:?}");
                }

                // the parts themselves, on any host: two, at `boundary`, and
                // four — more than the helpers on a small host, so the
                // requester runs the ones no helper took
                let quant = QuantizedFactors::quantize(&model.item_factors, dtype);
                let quant = Arc::new(match int8 {
                    true => quant.with_factor_major().unwrap(),
                    false => quant,
                });
                for (request, factors, exclude, m, want) in &cases {
                    for parts in [2, 4] {
                        let query = quant.prepare(factors);
                        let got = to_recommendations(split_scan(&quant, query, exclude, *m, parts));
                        assert_eq!(got, want.items, "{request:?} {dtype:?} in {parts} parts");
                    }
                }
            }
        }
    }

    #[test]
    fn split_scans_from_many_threads_match_the_one_part_scan_and_never_hang() {
        // more requesters than the host has cores, each splitting its scans
        // four ways into the one helper pool: parts queue behind other
        // requests' parts, and each requester runs whichever of its own no
        // helper has started. A tile per part keeps 4,000 scans cheap; the
        // hand-off is the same at any part size.
        let (parts, k, n_users, m) = (4, 4, 16, 10);
        let (requesters, scans_each) = (4, 1000);
        let n_items = parts * SCAN_TILE - 5;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut factors = |rows: usize| {
            let values = (0..rows * k).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 5) as f64 * 0.25
            });
            Matrix::from_vec(rows, k, values.collect())
        };
        let quant = QuantizedFactors::quantize(&factors(n_items), QuantDtype::I8);
        let quant = Arc::new(quant.with_factor_major().unwrap());
        let users = factors(n_users);
        let exclude = [3, SCAN_TILE as u32, 2 * SCAN_TILE as u32 - 1];
        let one_part: Vec<_> = (0..n_users)
            .map(|u| {
                let query = quant.prepare(users.row(u));
                scan_part(&quant, &query, 0..n_items, &exclude, m)
            })
            .collect();
        let (users, one_part) = (Arc::new(users), Arc::new(one_part));
        let (done, finished) = mpsc::channel();
        for t in 0..requesters {
            let (quant, users, one_part) = (quant.clone(), users.clone(), one_part.clone());
            let done = done.clone();
            std::thread::spawn(move || {
                let wrong = (0..scans_each)
                    .filter(|i| {
                        let u = (t * 7 + i) % n_users;
                        let query = quant.prepare(users.row(u));
                        split_scan(&quant, query, &exclude, m, parts) != one_part[u]
                    })
                    .count();
                done.send(wrong).unwrap();
            });
        }
        drop(done);
        for _ in 0..requesters {
            // a lost wake-up leaves a requester waiting forever: fail, not hang
            let wrong = finished
                .recv_timeout(std::time::Duration::from_secs(300))
                .expect("every requester finishes its split scans");
            assert_eq!(wrong, 0, "split scans that differ from the one-part scan");
        }
    }
}
