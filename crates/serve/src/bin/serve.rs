//! JSON-lines serving CLI — polymorphic over model kinds.
//!
//! Two modes:
//!
//! **Train & snapshot** — fit a model on an edge list and write a
//! kind-tagged serving snapshot:
//!
//! ```text
//! serve --train data.tsv --snapshot model.snap \
//!       [--delta more.tsv]... [--generation 1] \
//!       [--quantize f32|int8]            (ocular only) \
//!       [--algo ocular|wals|bpr|user-knn|item-knn|popularity] \
//!       [--k 8] [--lambda 0.5] [--iters 60] [--seed 0] [--sep '\t'] \
//!       [--threads N]                    (ocular training) \
//!       [--rel 0.5] [--floor 100]        (ocular index build) \
//!       [--b 0.01] [--lr 0.05]           (wals / bpr)
//! ```
//!
//! Each `--delta` file is appended to the base edge list through the
//! delta-merge ingestion path (one merge pass, never a re-ingest) before
//! training; `--generation` stamps the snapshot's deployment generation
//! into its metadata section alongside the source-data watermark
//! (trained shape + nnz).
//!
//! The snapshot is one mmap-able `ocular-snapshot v3` file, published by
//! unlink-and-rename: saving to the path a server has mapped never
//! disturbs it. Serving loads it through a zero-copy memory mapping
//! (start-up cost independent of model size, page cache shared across
//! serve processes); a text snapshot from before v3 is no longer read —
//! `serve --model` exits 1 naming the format. The measured load time is
//! reported on stderr as `snapshot_load_seconds=…`.
//!
//! `--k` is the latent dimensionality for the factor models and the
//! neighbourhood size for the kNN variants; `--iters` maps to each
//! fitter's sweep/epoch knob; `--lambda` is each model's own
//! regularization (defaults differ per algorithm). `--threads N` caps
//! the OCuLaR fit at `N` threads (default: the host's cores); the model is
//! the same at every count.
//!
//! **Serve** — load a snapshot of *any* kind plus the training
//! interactions (for owned-item exclusion), read one JSON request per
//! stdin line, write one JSON response per stdout line, in order:
//!
//! ```text
//! serve --model model.snap --interactions data.tsv \
//!       [--mode clusters|full] [--min-candidates 50] [--m 10] \
//!       [--quantize f32|int8] \
//!       [--lambda 0.5] [--threads N] [--batch 256] [--sep '\t']
//! ```
//!
//! `--quantize` at train time stores a narrowed copy of the item factors
//! (`f32`, or per-row affine `int8`) as extra v3 sections next to the f64
//! master, and serving scores the catalog through the matching blocked
//! kernel; at serve time the same flag re-quantizes any OCuLaR snapshot
//! on load, so old snapshots opt in without retraining. Responses and
//! `GET /stats` report the active `dtype`; the start-up line and
//! `GET /stats` also name the `kernel` level (`baseline` / `avx2`) the
//! process detected — replies are identical at either. Cold-start fold-in
//! always solves in f64 and narrows the folded row per request.
//!
//! **Listen** (Linux) — same engine behind the non-blocking TCP/HTTP
//! front-end instead of stdin ([`ocular_serve::net::server`]): request
//! bodies `POST`ed to `/recommend` are decoded by the identical
//! [`ocular_serve::protocol`] path, plus `GET /stats` (counters and
//! latency histograms) and `GET /healthz`:
//!
//! ```text
//! serve --model model.snap --interactions data.tsv \
//!       --listen 127.0.0.1:7878 \
//!       [--queue-cap 1024] [--batch 256] [--threads N] \
//!       [--max-connections 1024]    (+ the serve-mode engine flags)
//! ```
//!
//! `--threads N` runs `N` serve workers (default: one per core), each
//! answering up to `--batch` requests per wakeup.
//!
//! A flag no mode reads (a typo, a removed flag such as `--format`) is
//! an error — exit status 2, naming the flag — never silently ignored.
//!
//! `SIGINT`/`SIGTERM` drain in-flight requests and exit cleanly. When
//! the admission queue (`--queue-cap`) is full, requests are answered
//! with HTTP 429 and a typed `overloaded` error body — never dropped.
//!
//! **Live refresh**: `POST /admin/reload` (or `SIGHUP`) re-loads the
//! snapshot and interaction log from the same `--model` /
//! `--interactions` / `--delta` paths on a dedicated thread and
//! hot-swaps the engine with zero dropped requests — in-flight and
//! pipelined requests finish on the engine that admitted them, and the
//! old snapshot's mmap is released when its last borrower completes.
//! Responses and `GET /stats` carry `model_generation` (strictly
//! monotone across swaps) and `kind`, so clients can watch a deploy
//! land. A second reload while one runs answers HTTP 503 with code
//! `reloading`. Warm requests for users that appear in the (refreshed)
//! log but postdate the active snapshot are served by request-time
//! fold-in (`"folded_in":true`) until the next retrain/swap.
//!
//! `--lambda` here is the regularization the OCuLaR cold-start fold-in
//! solves with; pass the value the model was trained with (both modes
//! default to 0.5). Baseline kinds carry their fold-in parameters inside
//! the snapshot. The `clusters` candidate mode only applies to `ocular`
//! snapshots; other kinds are always served against the full catalog.
//!
//! Requests: `{"user": 17}` or `{"user": 17, "m": 5}` for warm users by
//! **internal** (compacted) index, `{"basket": [0, 4, 9], "m": 5}` for
//! cold-start fold-in over internal item indices — or the **external-id**
//! forms `{"user_id": 90210}` and `{"basket_ids": [1193, 661]}`, which
//! resolve through the id maps the training run embedded in the snapshot
//! (falling back to the maps derived from `--interactions`). Responses
//! echo the request key and carry `items`, `probs`, `scored`, `fallback`;
//! when id maps are available they also carry `item_ids` — the served
//! items as external ids, completing the external→external round trip.
//! Failures (including cold requests against kinds without fold-in, and
//! unknown external ids) become `{"error": "..."}` without aborting the
//! stream.

use ocular_api::SnapshotMeta;
use ocular_baselines::{Bpr, BprConfig, ItemKnn, KnnConfig, Popularity, UserKnn, Wals, WalsConfig};
use ocular_core::{try_fit, OcularConfig};
use ocular_linalg::par::with_threads;
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, QuantDtype, Request, ServeConfig, ServeEngine,
    Snapshot, WireReply, WireRequest,
};
use ocular_sparse::io::{append_edge_list, read_edge_list};
use ocular_sparse::{CsrMatrix, Dataset, IdMaps};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Every `--key` some mode reads.
#[rustfmt::skip]
const KNOWN_FLAGS: [&str; 25] = [
    "train", "snapshot", "delta", "generation", "quantize", "algo", "k", "lambda", "iters",
    "seed", "sep", "rel", "floor", "b", "lr", "model", "interactions", "mode", "min-candidates",
    "m", "threads", "batch", "listen", "queue-cap", "max-connections",
];

/// `--key value` / bare `--flag` parsing (same dialect as ocular-bench),
/// except that a key nothing reads is an error.
#[derive(Clone)]
struct Flags {
    values: Vec<(String, String)>,
}

impl Flags {
    fn parse(tokens: &[String]) -> Result<Flags, String> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if let Some(key) = tokens[i].strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    values.push((key.to_string(), tokens[i + 1].clone()));
                    i += 2;
                } else {
                    values.push((key.to_string(), String::new()));
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        let flags = Flags { values };
        if let Some((key, _)) = flags
            .values
            .iter()
            .find(|(k, _)| !KNOWN_FLAGS.contains(&&**k))
        {
            return Err(match key.as_str() {
                "format" => {
                    "--format is gone: a snapshot is always one `ocular-snapshot v3` file".into()
                }
                _ => format!("unknown flag --{key} (see the crate docs for each mode's flags)"),
            });
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in order (`--delta a --delta b`).
    fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        self.values
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric flag when present; malformed values are an error, never
    /// a silent default.
    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} must be a number, got `{v}`"))
            })
            .transpose()
    }

    /// [`Flags::opt_num`] with a default for an absent flag.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// The `--quantize {f32,int8}` flag, when present and well-formed.
    fn quantize(&self) -> Result<Option<QuantDtype>, String> {
        match self.get("quantize") {
            None => Ok(None),
            Some(s) => QuantDtype::parse(s)
                .map(Some)
                .ok_or_else(|| format!("--quantize must be `f32` or `int8`, got `{s}`")),
        }
    }
}

/// Streams the edge list into a [`Dataset`] (chunked ingestion; external
/// ids compacted in first-appearance order and kept as the id maps),
/// then appends every `--delta` file through the delta-merge path — one
/// merge pass per delta over the already-ingested positives, never a
/// re-ingest of the base.
fn load_dataset(flags: &Flags, path: &str, sep: &str) -> Result<Dataset, String> {
    let parsed = read_edge_list(path, sep, None).map_err(|e| e.to_string())?;
    let mut d = parsed.into_dataset();
    for delta in flags.all("delta") {
        let t0 = std::time::Instant::now();
        d = append_edge_list(&d, std::path::Path::new(delta), sep, None)
            .map_err(|e| format!("append {delta}: {e}"))?;
        eprintln!(
            "delta_append_seconds={:.6} file={delta} now {}×{} nnz={}",
            t0.elapsed().as_secs_f64(),
            d.n_users(),
            d.n_items(),
            d.nnz()
        );
    }
    Ok(d)
}

/// Aligns an interaction log to a snapshot's id space, so the exclusion
/// lists land on the model's rows no matter what order the serving-side
/// file lists them in.
///
/// Two no-copy fast paths cover the steady state and the live-refresh
/// state: the log's maps equal the snapshot's (serving the training
/// file), or the snapshot's maps are a **prefix** of the log's (the log
/// grew by delta appends since the snapshot was trained — already
/// aligned, the overhang is served by fold-in). Anything else re-aligns
/// through the delta-merge path: the snapshot's maps seed an empty
/// dataset and the whole log is appended as one sorted run — records
/// with ids the model never saw extend the id space past the model and
/// become fold-in users/items instead of errors.
fn align_to_ids(d: Dataset, ids: IdMaps) -> Result<Dataset, String> {
    match d.ids() {
        Some(got) if got == &ids || ids.is_prefix_of(got) => return Ok(d),
        _ => {}
    }
    let empty = CsrMatrix::empty(ids.n_users(), ids.n_items());
    let base = Dataset::new(empty, ids).map_err(|e| e.to_string())?;
    let mut staged = base.delta_builder();
    for (u, i) in d.iter_nnz() {
        staged
            .push(d.external_user(u), d.external_item(i))
            .map_err(|e| e.to_string())?;
    }
    staged.finish().map_err(|e| e.to_string())
}

fn train_mode(flags: &Flags) -> Result<(), String> {
    let data = flags.get("train").expect("checked by caller");
    let out = flags
        .get("snapshot")
        .ok_or("--train requires --snapshot <path>")?;
    let sep = flags.get("sep").unwrap_or("\t");
    let algo = flags.get("algo").unwrap_or("ocular");
    let r = load_dataset(flags, data, sep)?;
    let seed = flags.num("seed", 0u64)?;
    let quantize = flags.quantize()?;
    if quantize.is_some() && algo != "ocular" {
        return Err(format!(
            "--quantize only applies to --algo ocular (got `{algo}`)"
        ));
    }
    let t0 = std::time::Instant::now();
    let snapshot: AnySnapshot = match algo {
        "ocular" => {
            let cfg = OcularConfig {
                k: flags.num("k", 8)?,
                lambda: flags.num("lambda", 0.5)?,
                max_iters: flags.num("iters", 60)?,
                seed,
                ..Default::default()
            };
            let threads: Option<usize> = flags.opt_num("threads")?;
            let fitted = with_threads(threads, || try_fit(&r, &cfg));
            let model = fitted.map_err(|e| e.to_string())?.model;
            let index_cfg = ocular_serve::IndexConfig {
                rel: flags.num("rel", 0.5)?,
                floor: flags.num("floor", 100)?,
            };
            let mut snap = Snapshot::build(model, &index_cfg);
            if let Some(dtype) = quantize {
                snap = snap.with_quantization(dtype);
            }
            AnySnapshot::Ocular(snap)
        }
        "wals" => {
            let cfg = WalsConfig {
                k: flags.num("k", 16)?,
                b: flags.num("b", 0.01)?,
                lambda: flags.num("lambda", 0.01)?,
                iters: flags.num("iters", 15)?,
                seed,
                ..Default::default()
            };
            AnySnapshot::Other(Box::new(
                Wals::try_fit(&r, &cfg).map_err(|e| e.to_string())?,
            ))
        }
        "bpr" => {
            let cfg = BprConfig {
                k: flags.num("k", 16)?,
                lambda: flags.num("lambda", 0.01)?,
                learning_rate: flags.num("lr", 0.05)?,
                epochs: flags.num("iters", 30)?,
                seed,
                ..Default::default()
            };
            AnySnapshot::Other(Box::new(Bpr::try_fit(&r, &cfg).map_err(|e| e.to_string())?))
        }
        "user-knn" => {
            let cfg = KnnConfig {
                k: flags.num("k", 50)?,
            };
            AnySnapshot::Other(Box::new(UserKnn::fit(&r, &cfg)))
        }
        "item-knn" => {
            let cfg = KnnConfig {
                k: flags.num("k", 50)?,
            };
            AnySnapshot::Other(Box::new(ItemKnn::fit(&r, &cfg)))
        }
        "popularity" => AnySnapshot::Other(Box::new(Popularity::fit(&r))),
        other => {
            return Err(format!(
                "--algo must be one of ocular|wals|bpr|user-knn|item-knn|popularity, got `{other}`"
            ))
        }
    };
    // Every trained snapshot carries its deployment generation plus the
    // source-data watermark (shape + nnz it was trained on) — what the
    // hot-swap tier and `/stats` report, and what lets an operator check
    // a snapshot against the log it is about to serve.
    let meta = SnapshotMeta {
        generation: flags.num("generation", 1u64)?,
        n_users: r.n_users() as u64,
        n_items: r.n_items() as u64,
        nnz: r.nnz() as u64,
    };
    snapshot
        .save_path_full(std::path::Path::new(out), r.ids(), Some(&meta))
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "trained {} gen={} on {}×{} (nnz={}) in {:.2}s → {out} (id maps embedded)",
        snapshot.kind(),
        meta.generation,
        r.n_users(),
        r.n_items(),
        r.nnz(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The serving knobs.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    let candidates = match flags.get("mode").unwrap_or("clusters") {
        "full" => CandidatePolicy::FullCatalog,
        "clusters" => CandidatePolicy::Clusters {
            min_candidates: flags.num("min-candidates", 50)?,
        },
        other => {
            return Err(format!(
                "--mode must be `full` or `clusters`, got `{other}`"
            ))
        }
    };
    Ok(ServeConfig {
        default_m: flags.num("m", 10)?,
        candidates,
        // cold-start fold-in solves with the regularization the model was
        // trained with — the snapshot does not carry it, so `--lambda` here
        // must match the training run (both default to 0.5)
        foldin: OcularConfig {
            lambda: flags.num("lambda", 0.5)?,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Loads the snapshot + interactions named by the flags and builds the
/// engine — the common front half of the stdin and TCP serve modes, and
/// the body of the hot-reload closure in listen mode. `floor_generation`
/// keeps reloads monotone: the engine's generation is the larger of the
/// snapshot's own and this floor (0 for a fresh start).
fn build_engine(flags: &Flags, floor_generation: u64) -> Result<ServeEngine, String> {
    let snap_path = flags.get("model").expect("checked by caller");
    let data = flags
        .get("interactions")
        .ok_or("serving requires --interactions <edge list> (owned-item exclusion)")?;
    let sep = flags.get("sep").unwrap_or("\t");

    // the v3 container is mmap'd and borrowed zero-copy
    let t_load = std::time::Instant::now();
    let mut loaded = AnySnapshot::load_path_full(std::path::Path::new(snap_path))
        .map_err(|e| format!("load {snap_path}: {e}"))?;
    let (ids, meta) = (loaded.ids.take(), loaded.meta);
    let builder = EngineBuilder::from_loaded(loaded);
    eprintln!(
        "snapshot_load_seconds={:.6}",
        t_load.elapsed().as_secs_f64()
    );
    let r = load_dataset(flags, data, sep)?;
    // When the snapshot embeds id maps, they are authoritative for the
    // model's row/column space: re-align the interaction log to them so
    // exclusion lists land on the model's rows regardless of the file's
    // record order (no-op when the log equals or extends the training
    // file). Otherwise the file's own first-appearance compaction must
    // reproduce the training-time mapping (same file → same maps).
    let r = match ids {
        Some(ids) => align_to_ids(r, ids)?,
        None => r,
    };
    let mut builder = builder
        .dataset(r)
        .config(serve_config(flags)?)
        .generation(meta.map_or(0, |m| m.generation).max(floor_generation));
    // `--quantize` at serve time re-quantizes from the f64 master when
    // the snapshot does not already carry the requested dtype, so old
    // snapshots opt in without retraining; without the flag a
    // snapshot-embedded quantized copy is served as-is
    if let Some(dtype) = flags.quantize()? {
        builder = builder.quantization(dtype);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    eprintln!(
        "serving `{}` snapshot from {snap_path} (generation {}, dtype {}, kernel {}, \
         scan sidecar {} bytes)",
        engine.kind(),
        engine.generation(),
        engine.dtype().unwrap_or("f64"),
        engine.kernel(),
        engine.sidecar_bytes()
    );
    Ok(engine)
}

/// The JSON-lines stdin transport: decode each line through
/// [`ocular_serve::protocol`], serve in batches, encode every reply —
/// success or typed error — through the same protocol. Malformed lines
/// answer with a structured `{"error": ..., "code": "bad_request"}`
/// object and the stream keeps going.
fn serve_mode(flags: &Flags) -> Result<(), String> {
    let threads: Option<usize> = flags.opt_num("threads")?;
    let batch_size: usize = flags.num("batch", 256)?.max(1);
    let engine = build_engine(flags, 0)?;

    let mut out = BufWriter::new(std::io::stdout().lock());
    let mut pending: Vec<Result<Request, WireReply>> = Vec::with_capacity(batch_size);
    let flush_batch = |pending: &mut Vec<Result<Request, WireReply>>,
                       out: &mut BufWriter<std::io::StdoutLock<'_>>|
     -> Result<(), String> {
        let requests: Vec<Request> = pending
            .iter()
            .filter_map(|p| p.as_ref().ok().cloned())
            .collect();
        let mut served = with_threads(threads, || engine.serve_batch(&requests)).into_iter();
        for parsed in pending.drain(..) {
            let reply = match parsed {
                Err(reply) => reply,
                Ok(req) => {
                    let result = served.next().expect("one response per request");
                    engine.wire_reply(&req, &result)
                }
            };
            writeln!(out, "{}", reply.encode()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    };

    // a batch also ends where no further line is buffered, so every request
    // read is answered before a read that could block
    let mut input = BufReader::with_capacity(1 << 16, std::io::stdin().lock());
    while let Some(line) = (&mut input).lines().next() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.trim().is_empty() {
            pending.push(
                WireRequest::decode(&line)
                    .map(|w| w.request)
                    .map_err(WireReply::Err),
            );
        }
        if pending.len() >= batch_size || !input.buffer().contains(&b'\n') {
            flush_batch(&mut pending, &mut out)?;
        }
    }
    flush_batch(&mut pending, &mut out)?;
    Ok(())
}

/// The TCP transport (Linux): the same engine behind the epoll front-end,
/// with `SIGINT`/`SIGTERM` honored as a drain-and-exit request and
/// `POST /admin/reload` / `SIGHUP` as a zero-downtime hot swap — the
/// reload closure re-loads the snapshot and interaction log (plus any
/// `--delta` files) from the same paths and publishes the fresh engine
/// atomically; in-flight requests finish on the engine that admitted
/// them.
#[cfg(target_os = "linux")]
fn listen_mode(flags: &Flags, addr: &str) -> Result<(), String> {
    use ocular_serve::net::Server;
    use ocular_serve::SwapEngine;

    let initial = build_engine(flags, 0)?;
    let reload_flags = flags.clone();
    let swap = std::sync::Arc::new(SwapEngine::with_reload(
        initial,
        Box::new(move |current| {
            build_engine(&reload_flags, current + 1).map_err(ocular_api::OcularError::Io)
        }),
    ));
    let server =
        Server::bind(swap, addr, server_config(flags)?).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("listening on {}", server.local_addr());
    server.run().map_err(|e| e.to_string())
}

/// The TCP front-end's knobs from the flags: `--threads` workers (default
/// one per core), `--batch`, `--queue-cap`, `--max-connections`; each
/// absent flag keeps [`ocular_serve::net::ServerConfig::default`]'s
/// value, and the server reads a zero `--threads` or `--batch` as 1.
#[cfg(target_os = "linux")]
fn server_config(flags: &Flags) -> Result<ocular_serve::net::ServerConfig, String> {
    use ocular_serve::net::ServerConfig;
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        queue_cap: flags.num("queue-cap", defaults.queue_cap)?,
        batch_max: flags.num("batch", defaults.batch_max)?,
        workers: flags.num("threads", defaults.workers)?,
        max_connections: flags.num("max-connections", defaults.max_connections)?,
        handle_signals: true,
    })
}

#[cfg(not(target_os = "linux"))]
fn listen_mode(_flags: &Flags, _addr: &str) -> Result<(), String> {
    Err("--listen requires Linux (epoll)".into())
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let flags = match Flags::parse(&tokens) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("serve: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = if flags.get("train").is_some() {
        train_mode(&flags)
    } else if let Some(addr) = flags.get("listen") {
        if flags.get("model").is_some() {
            listen_mode(&flags, addr)
        } else {
            Err("--listen requires --model <snap> --interactions <edges>".into())
        }
    } else if flags.get("model").is_some() {
        serve_mode(&flags)
    } else {
        Err("usage: serve --train <edges> --snapshot <out> | serve --model <snap> --interactions <edges> [--listen <addr>]  (see crate docs)".into())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Flags, String> {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::parse(&tokens)
    }

    #[test]
    fn flags_nothing_reads_are_errors_that_name_the_flag() {
        let flags = parse("--model m.snap --interactions e.tsv --threads 4 --delta a --delta b");
        let flags = flags.unwrap();
        assert_eq!(flags.get("model"), Some("m.snap"));
        assert_eq!(flags.num("threads", 1usize), Ok(4));
        assert_eq!(flags.all("delta").collect::<Vec<_>>(), ["a", "b"]);
        // a typo is not a silently unquantized model
        let err = parse("--train e.tsv --snapshot m.snap --quantise int8")
            .err()
            .unwrap();
        assert!(err.contains("--quantise"), "{err}");
        // removed flags explain themselves
        let err = parse("--train e.tsv --snapshot m.snap --format text")
            .err()
            .unwrap();
        assert!(err.contains("--format is gone"), "{err}");
        let err = parse("--model m.snap --interactions e.tsv --shards 4")
            .err()
            .unwrap();
        assert!(err.contains("unknown flag --shards"), "{err}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn listen_threads_default_to_the_server_default() {
        use ocular_serve::net::ServerConfig;
        let flags = parse("--model m.snap --interactions e.tsv --listen 127.0.0.1:0").unwrap();
        let cfg = server_config(&flags).unwrap();
        assert_eq!(cfg.workers, ServerConfig::default().workers);
        assert_eq!(cfg.workers, ocular_linalg::par::host_cores());
        assert_eq!(cfg.batch_max, 256);
        let flags = parse("--model m.snap --interactions e.tsv --listen x --threads 3").unwrap();
        assert_eq!(server_config(&flags).unwrap().workers, 3);
    }
}
