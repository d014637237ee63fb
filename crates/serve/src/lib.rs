//! # ocular-serve
//!
//! The online serving subsystem for the OCuLaR reproduction — the piece
//! that turns trained co-cluster factors into a request-path engine, per
//! the paper's scalability pitch (*"Scalable and interpretable product
//! recommendations via overlapping co-clustering"*, Heckel et al., ICDE
//! 2017, Sections IV-C and VIII).
//!
//! ## What serving adds over batch evaluation
//!
//! * **Snapshots** ([`snapshot`]) — one **kind-tagged, checksummed,
//!   mmap-able file** per model (`ocular-snapshot v3`), published by
//!   rename so a serving process never sees a half-written one; factor
//!   matrices, cluster-index CSR, quantized factors and id-map tables are
//!   **borrowed zero-copy** from the mapping at engine start. Every model
//!   kind in the workspace zoo (`ocular`, `wals`, `bpr`, `user-knn`,
//!   `item-knn`, `popularity`) snapshots through
//!   [`ocular_api::SnapshotModel`] and loads back through [`AnySnapshot`];
//!   a file in any other format (the text snapshots from before v3) is a
//!   typed [`ocular_api::OcularError::Corrupt`].
//! * **One engine** ([`engine`]) — [`ServeEngine`], built by
//!   [`EngineBuilder`] around the [`AnySnapshot`] it serves and one serving
//!   dataset, each held once.
//! * **Candidate generation** ([`index`]) — per-cluster inverted item
//!   lists built once at load; a request scores only items reachable from
//!   the requester's co-clusters, with a full-catalog fallback knob
//!   ([`CandidatePolicy`]).
//! * **Bounded-heap selection** — top-M via [`ocular_linalg::topk`],
//!   `O(candidates · log M)` instead of a full sort; in
//!   [`CandidatePolicy::FullCatalog`] mode the served lists are
//!   **bitwise identical** to [`ocular_core::recommend_top_m`].
//! * **Quantized scoring** — f32 / per-row affine int8 item factors
//!   ([`QuantizedFactors`]) scored through a blocked kernel, compiled at
//!   two ISA levels ([`KernelLevel`]: baseline and AVX2) and picked per
//!   process from what the CPU reports — automatically, with identical
//!   replies at either; `/stats` names the level in use. A large catalog is
//!   scanned in parts, one per core no other scan of the engine holds,
//!   merged exactly ([`engine`]).
//! * **Cold start** — unseen users are folded in at request time
//!   (OCuLaR via [`ocular_core::fold_in_user`], a projected-Newton solve
//!   of the user's own subproblem whose iteration and non-convergence
//!   counts `/stats` reports — [`FoldInStats`]; other kinds through their
//!   [`ocular_api::FoldIn`] capability, with a typed
//!   [`ocular_api::OcularError::Unsupported`] answer where the algorithm
//!   admits none), then served through the same selection path.
//! * **Batching** ([`ServeEngine::serve_batch`], the stdin CLI's path) —
//!   parallel over requests (one [`ocular_linalg::par::map_slice`] block
//!   per thread), deterministic in request order and output regardless of
//!   thread count.
//! * **A wire protocol and a network tier** ([`protocol`], [`net`]) — one
//!   versioned request/response/error encoding behind both the stdin CLI
//!   and the epoll HTTP/1.1 front-end (keep-alive, pipelining, typed 429
//!   shedding, `/stats`). The front-end's parallelism is its persistent
//!   workers, one per core by default, each answering its batch with
//!   [`ServeEngine::serve_one`] in a loop — no thread is started per batch.
//! * **Hot swap** ([`swap`]) — [`SwapEngine`] replaces the serving engine
//!   under load with zero dropped requests and monotone generations
//!   (`POST /admin/reload`, `SIGHUP`).
//! * **A CLI** (`serve` binary) — JSON-lines requests on stdin or
//!   `--listen` over TCP, plus a `--train` mode that fits a model from an
//!   edge list and writes a snapshot. See the README's *Serving* section.
//!
//! ## Example
//!
//! ```
//! use ocular_serve::Request;
//! use ocular_core::{fit, OcularConfig};
//! use ocular_sparse::io::read_edge_list_str;
//!
//! // ingestion → Dataset: external ids compacted, id maps kept
//! let r = read_edge_list_str(
//!     "100\t7\n100\t8\n200\t7\n200\t8\n300\t55\n300\t56\n400\t55\n400\t56\n",
//!     "\t", None,
//! ).unwrap().into_dataset();
//! let model = fit(&r, &OcularConfig { k: 2, lambda: 0.05, seed: 7, ..Default::default() }).model;
//! let engine = ocular_serve::EngineBuilder::from_model(model).dataset(r).build().unwrap();
//! // requests can arrive with the ingestion-time external ids
//! let out = engine.serve_one(&Request::WarmExternal { user: 100, m: 2 }).unwrap();
//! assert_eq!(out.items.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod json;
pub mod net;
mod pool;
pub mod protocol;
pub mod snapshot;
pub mod swap;

pub use engine::{
    CandidatePolicy, EngineBuilder, FoldInStats, Request, ScanStats, ServeConfig, ServeEngine,
    ServeError, ServedList,
};
pub use index::{ClusterIndex, IndexConfig};
pub use protocol::{WireError, WireReply, WireRequest, WireResponse, PROTOCOL_VERSION};
pub use snapshot::{AnySnapshot, LoadedSnapshot, Snapshot, SnapshotFormat, OCULAR_KIND};
// re-exported so CLI/transport layers name the quantized dtypes without a
// direct linalg dependency
pub use ocular_linalg::{KernelLevel, QuantDtype, QuantizedFactors};
pub use swap::SwapEngine;
