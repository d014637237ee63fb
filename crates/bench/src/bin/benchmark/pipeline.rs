//! The one pipeline every workload runs — make inputs → train → snapshot
//! → mmap-load → engine → bind → HTTP load → checks — sized per workload
//! so that a different layer dominates each.

use crate::client::{closed_loop, sample_buffers, ClosedLoop, LoadResult};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{layers, stream};
use ocular_core::{fit, FactorModel, OcularConfig, TrainingHistory};
use ocular_datasets::profiles::{b2b_like, Scale};
use ocular_eval::protocol::evaluate;
use ocular_linalg::{Matrix, QuantDtype};
use ocular_parallel::fit_parallel;
use ocular_serve::net::{RunningServer, Server, ServerConfig};
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, Request, ServeConfig, ServeEngine,
    ServeError, ServedList, Snapshot, SnapshotFormat, SwapEngine, WireRequest,
};
use ocular_sparse::io::{read_edge_list_str, write_edge_list};
use ocular_sparse::{CsrMatrix, Dataset, Split, SplitConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// List length every request asks for.
pub const M: usize = 10;
/// Load-generator connections, one thread each. Fixed (not `nproc`) so
/// numbers compare across machines.
const CONNS: usize = 2;
/// Threads of the parallel training run.
pub const TRAIN_THREADS: usize = 2;
/// Distinct requests generated per run; connections wrap around them.
const STREAM_LEN: usize = 32_768;
/// Replies compared byte for byte against a second engine.
const SAMPLES: usize = 256;
/// Set-up passes in an end-to-end run; `setup_s` is the median over them
/// and `train_wall_s` the fastest of them.
const SETUP_PASSES: usize = 3;
/// Parallel training runs; `train_parallel_wall_s` is the fastest.
const PARALLEL_RUNS: usize = 3;
/// Untimed head of the closed loop, seconds.
const WARMUP_S: f64 = 1.0;
/// Cutoff of the recall protocol.
const RECALL_AT: usize = 20;
/// Users on which the served int8 top-M is compared with an f64 full sort.
const OVERLAP_USERS: usize = 200;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value rests on.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        }
    }
}

/// Shape of the synthetic catalog model `http_warm_catalog` serves
/// instead of its trained one: seeded sparse non-negative factors with
/// `CATALOG_ACTIVE` clusters per row, shaped like trained OCuLaR rows.
const CATALOG_USERS: usize = 2048;
const CATALOG_ITEMS: usize = 100_000;
const CATALOG_K: usize = 64;
const CATALOG_ACTIVE: usize = 4;

/// One workload: the pipeline's sizes and load shape.
pub struct Spec {
    pub name: &'static str,
    /// Size of the b2b-like training data.
    pub scale: Scale,
    /// Fixed training sweeps (`tol = 0`).
    pub sweeps: usize,
    /// Quantized item factors written into the snapshot and served.
    pub quantize: Option<QuantDtype>,
    pub policy: CandidatePolicy,
    /// Pipelined requests in flight per connection.
    pub window: usize,
    /// Share of cold-start basket requests in the stream.
    pub cold_share: f64,
    /// Serve the synthetic catalog model instead of the trained one.
    pub catalog: bool,
    /// Rate of the traced run's open-loop probe, requests per second.
    pub open_rate: f64,
}

pub const WORKLOADS: [&str; 4] = [
    "train_b2b",
    "http_warm_small",
    "http_warm_catalog",
    "http_mixed_cold",
];

pub fn spec(name: &str) -> Option<Spec> {
    let small = Spec {
        name: "http_warm_small",
        scale: Scale::Small,
        sweeps: 15,
        quantize: None,
        policy: CandidatePolicy::Clusters { min_candidates: M },
        window: 16,
        cold_share: 0.0,
        catalog: false,
        open_rate: 5000.0,
    };
    match name {
        "train_b2b" => Some(Spec {
            name: "train_b2b",
            scale: Scale::Factor(3.0),
            sweeps: 8,
            quantize: Some(QuantDtype::I8),
            ..small
        }),
        "http_warm_small" => Some(small),
        "http_warm_catalog" => Some(Spec {
            name: "http_warm_catalog",
            quantize: Some(QuantDtype::I8),
            policy: CandidatePolicy::FullCatalog,
            window: 1,
            catalog: true,
            open_rate: 200.0,
            ..small
        }),
        "http_mixed_cold" => Some(Spec {
            name: "http_mixed_cold",
            cold_share: 0.5,
            ..small
        }),
        _ => None,
    }
}

/// Everything a run is made from, generated from the seed.
pub struct Inputs {
    pub split: Split,
    /// The training interactions rendered as the edge-list log a
    /// deployment would ingest.
    pub edge_text: String,
    pub cfg: OcularConfig,
    /// Interactions behind the synthetic catalog model, when the
    /// workload serves one.
    pub catalog_data: Option<Dataset>,
}

impl Inputs {
    /// The interactions the serving engine excludes owned items with.
    pub fn served_data(&self) -> &Dataset {
        self.catalog_data.as_ref().unwrap_or(&self.split.train)
    }
}

/// The snapshot file the HTTP phase serves.
pub fn served_path(spec: &Spec, dir: &Path) -> PathBuf {
    dir.join(if spec.catalog {
        "catalog.snap"
    } else {
        "model.snap"
    })
}

fn synth_factors(rows: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, CATALOG_K);
    for r in 0..rows {
        let row = m.row_mut(r);
        for _ in 0..CATALOG_ACTIVE {
            row[rng.gen_range(0..CATALOG_K)] += rng.gen::<f64>();
        }
    }
    m
}

/// The snapshot a workload publishes for `model`: index built, item
/// factors quantized when the workload serves a narrow dtype.
fn snapshot_of(model: FactorModel, spec: &Spec) -> Snapshot {
    let snapshot = Snapshot::build(model, &IndexConfig::default());
    match spec.quantize {
        Some(dtype) => snapshot.with_quantization(dtype),
        None => snapshot,
    }
}

/// Writes the v3 file inside a span. Only the file the HTTP phase
/// serves gets the span the per-layer table reads.
fn save(
    snapshot: Snapshot,
    path: &Path,
    served: bool,
    parent: Option<usize>,
    tr: &mut Tracer,
) -> Snapshot {
    let span = if served {
        "serve.snapshot.save"
    } else {
        "serve.snapshot.save_unserved"
    };
    let any = AnySnapshot::Ocular(snapshot);
    tr.time(span, 0, parent, || {
        any.save_path(path, None, SnapshotFormat::Binary)
            .expect("write v3 snapshot")
    });
    match any {
        AnySnapshot::Ocular(s) => s,
        AnySnapshot::Other(_) => unreachable!("built as an OCuLaR snapshot"),
    }
}

fn make_inputs(spec: &Spec, seed: u64, dir: &Path, tr: &mut Tracer) -> Inputs {
    let root = tr.begin("setup.inputs", 0, None);
    let data = tr.time("datasets.generate", 0, root, || b2b_like(spec.scale, seed));
    let cfg = OcularConfig {
        k: data.truth.k(),
        lambda: 1.0,
        max_iters: spec.sweeps,
        tol: 0.0,
        seed,
        ..Default::default()
    };
    let split = tr.time("sparse.split", 0, root, || {
        Split::new(
            &data.matrix,
            &SplitConfig {
                seed,
                ..Default::default()
            },
        )
    });
    let edge_text = tr.time("sparse.render", 0, root, || {
        let mut text = Vec::new();
        write_edge_list(&mut text, &split.train).expect("render edge list");
        String::from_utf8(text).expect("ascii edge list")
    });
    let catalog_data = spec.catalog.then(|| {
        let model = tr.time("setup.catalog.synthesise", 0, root, || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
            FactorModel::new(
                synth_factors(CATALOG_USERS, &mut rng),
                synth_factors(CATALOG_ITEMS, &mut rng),
                false,
            )
        });
        let snapshot = tr.time("setup.catalog.snapshot", 0, root, || {
            snapshot_of(model, spec)
        });
        save(snapshot, &served_path(spec, dir), true, root, tr);
        Dataset::from_matrix(CsrMatrix::empty(CATALOG_USERS, CATALOG_ITEMS))
    });
    tr.end(root);
    Inputs {
        split,
        edge_text,
        cfg,
        catalog_data,
    }
}

/// The `train_wall_s` interval: ingest the log → fit → build the
/// snapshot (+ quantize) → v3 file on disk (`served`: the file the HTTP
/// phase serves).
fn train_to_file(
    inputs: &Inputs,
    spec: &Spec,
    path: &Path,
    served: bool,
    parallel: bool,
    tr: &mut Tracer,
) -> (FactorModel, TrainingHistory) {
    let root = tr.begin(if parallel { "train_parallel" } else { "train" }, 0, None);
    let ingested = tr.time("sparse.ingest", 0, root, || {
        read_edge_list_str(&inputs.edge_text, "\t", None)
            .expect("re-ingest the rendered edge list")
            .into_dataset()
    });
    assert_eq!(
        ingested.nnz(),
        inputs.split.train.nnz(),
        "ingestion must be lossless"
    );
    // the model is fitted on the split's own index space so the held-out
    // positives line up; the ingested copy only proves the log round-trips
    let result = if parallel {
        tr.time("parallel.fit", 0, root, || {
            fit_parallel(&inputs.split.train, &inputs.cfg, Some(TRAIN_THREADS))
        })
    } else {
        tr.time("core.fit", 0, root, || {
            fit(&inputs.split.train, &inputs.cfg)
        })
    };
    let snapshot = tr.time("serve.snapshot.build", 0, root, || {
        snapshot_of(result.model, spec)
    });
    let snapshot = save(snapshot, path, served, root, tr);
    tr.end(root);
    (snapshot.model, result.history)
}

/// The OCuLaR snapshot in a v3 file, mmap-loaded.
pub fn load_snapshot(path: &Path) -> Snapshot {
    match AnySnapshot::load_path_full(path)
        .expect("load v3 snapshot")
        .snapshot
    {
        AnySnapshot::Ocular(s) => s,
        AnySnapshot::Other(_) => unreachable!("written as an OCuLaR snapshot"),
    }
}

/// An engine built the production way: mmap-load the v3 file, then the
/// builder. `generation` only matters to hot swaps.
pub fn load_engine(
    path: &Path,
    data: Dataset,
    spec: &Spec,
    cfg: &OcularConfig,
    generation: u64,
    tr: &mut Tracer,
) -> ServeEngine {
    let loaded = tr.time("serve.snapshot.load", 0, None, || {
        AnySnapshot::load_path_full(path).expect("load v3 snapshot")
    });
    tr.time("serve.engine.build", 0, None, || {
        EngineBuilder::from_loaded(loaded)
            .generation(generation)
            .dataset(data)
            .config(ServeConfig {
                default_m: M,
                candidates: spec.policy,
                foldin: cfg.clone(),
                ..Default::default()
            })
            .build()
            .expect("engine")
    })
}

fn publish(inputs: &Inputs, spec: &Spec, dir: &Path, tr: &mut Tracer) -> RunningServer {
    let engine = load_engine(
        &served_path(spec, dir),
        inputs.served_data().clone(),
        spec,
        &inputs.cfg,
        0,
        tr,
    );
    tr.time("serve.net.bind", 0, None, || {
        Server::bind(
            Arc::new(SwapEngine::new(engine)),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind an ephemeral port")
        .spawn()
    })
}

/// The shortest of repeated timings of the same deterministic work:
/// whatever else ran on the box can only have made a repetition longer.
fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Status and body the server answers a served request with: the wire
/// reply, encoded, newline-terminated.
pub fn reply_bytes(
    engine: &ServeEngine,
    request: &Request,
    result: &Result<ServedList, ServeError>,
) -> (u16, Vec<u8>) {
    let reply = engine.wire_reply(request, result);
    let mut body = reply.encode().into_bytes();
    body.push(b'\n');
    (reply.http_status(), body)
}

/// The body the server must answer `body` with, computed in process.
fn expected_reply(engine: &ServeEngine, body: &str) -> Vec<u8> {
    let request = WireRequest::decode(body)
        .expect("generated request decodes")
        .request;
    reply_bytes(engine, &request, &engine.serve_one(&request)).1
}

/// Mean overlap of the engine's served top-M with the exact top-M of the
/// f64 scores, over [`OVERLAP_USERS`] users.
fn quantized_overlap(engine: &ServeEngine, model: &FactorModel, data: &Dataset) -> f64 {
    let mut scores = Vec::new();
    let mut hits = 0usize;
    for i in 0..OVERLAP_USERS {
        let user = (i * 131) % model.n_users();
        model.score_user(user, &mut scores);
        let owned = data.row(user);
        let mut exact: Vec<usize> = (0..scores.len())
            .filter(|&item| owned.binary_search(&(item as u32)).is_err())
            .collect();
        // the M best under a total order, which is all a full sort would
        // be read for
        exact.select_nth_unstable_by(M, |&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("finite scores")
                .then(a.cmp(&b))
        });
        let served = engine
            .serve_one(&Request::Warm { user, m: M })
            .expect("warm request");
        hits += served
            .items
            .iter()
            .filter(|r| exact[..M].contains(&r.item))
            .count();
    }
    hits as f64 / (OVERLAP_USERS * M) as f64
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
}

/// What a set-up pass leaves behind for the phases after it.
struct Live {
    inputs: Inputs,
    model: FactorModel,
    history: TrainingHistory,
    server: RunningServer,
}

/// One set-up pass: seed → inputs → trained snapshot on disk → bound
/// server. Returns the pass's `setup_s` and its `train_wall_s` interval.
/// The catalog workload does not serve what it trains, so its training
/// stays outside its `setup_s`.
fn set_up(spec: &Spec, seed: u64, dir: &Path, tr: &mut Tracer) -> (Live, f64, f64) {
    let t0 = Instant::now();
    let inputs = make_inputs(spec, seed, dir, tr);
    let t1 = Instant::now();
    let path = dir.join("model.snap");
    let (model, history) = train_to_file(&inputs, spec, &path, !spec.catalog, false, tr);
    let train_s = t1.elapsed().as_secs_f64();
    let server = publish(&inputs, spec, dir, tr);
    let pass_s = t0.elapsed().as_secs_f64();
    let live = Live {
        inputs,
        model,
        history,
        server,
    };
    let setup_s = if spec.catalog {
        pass_s - train_s
    } else {
        pass_s
    };
    (live, setup_s, train_s)
}

/// One `train_parallel_wall_s` interval; whether the factors came out
/// bitwise equal to the sequential `model`'s.
fn train_parallel(
    inputs: &Inputs,
    model: &FactorModel,
    spec: &Spec,
    dir: &Path,
    tr: &mut Tracer,
) -> (f64, bool) {
    let t = Instant::now();
    let path = dir.join("model-parallel.snap");
    let (parallel, _) = train_to_file(inputs, spec, &path, false, true, tr);
    let same = bits_equal(&model.user_factors, &parallel.user_factors)
        && bits_equal(&model.item_factors, &parallel.item_factors);
    (t.elapsed().as_secs_f64(), same)
}

/// The output checks every run makes on what the server answered.
fn check_replies(
    spec: &Spec,
    dir: &Path,
    inputs: &Inputs,
    bodies: &[String],
    load: &LoadResult,
    reference: &ServeEngine,
    checks: &mut Vec<(String, bool)>,
) {
    checks.push((
        format!("no request failed ({} of {})", load.failed, load.completed),
        load.failed == 0 && !load.served.is_empty(),
    ));
    checks.push((
        format!(
            "the engine scores in {}",
            spec.quantize.map_or("f64", QuantDtype::name)
        ),
        reference.dtype() == spec.quantize.map(QuantDtype::name),
    ));
    // a second engine from the same file must produce the same bytes
    let equal = load
        .samples
        .iter()
        .filter(|(index, body)| *body == expected_reply(reference, &bodies[*index]))
        .count();
    checks.push((
        format!("{equal} of {SAMPLES} TCP replies byte-equal to the in-process engine"),
        equal == SAMPLES && load.samples.len() == SAMPLES,
    ));
    if spec.catalog {
        let served = load_snapshot(&served_path(spec, dir)).model;
        let overlap = quantized_overlap(reference, &served, inputs.served_data());
        checks.push((
            format!("served int8 top-{M} overlaps the exact f64 top-{M} by {overlap:.3} >= 0.9"),
            overlap >= 0.9,
        ));
    }
}

/// Runs `spec` once. With `trace` off the metrics are the end-to-end
/// ones; with it on, one set-up pass is traced, the load phase is
/// shortened to make room for the per-layer phases, and the metrics are
/// the per-layer ones.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let mut tr = Tracer::new(trace);
    let mut checks: Vec<(String, bool)> = Vec::new();
    let buffers = sample_buffers(CONNS);

    // repetitions of the same measurement are kept apart in time — a
    // parallel fit after each set-up pass but the last, the last one after
    // the load window — so that one disturbed stretch does not hold them all
    let (passes, parallel_first) = if trace {
        (1, 1)
    } else {
        (SETUP_PASSES, PARALLEL_RUNS - 1)
    };
    let (mut live, mut setup_s, mut train_s) = (None, Vec::new(), Vec::new());
    let (mut train_parallel_s, mut same_factors) = (Vec::new(), true);
    for pass in 0..passes {
        if let Some(Live { server, .. }) = live.take() {
            RunningServer::shutdown(server).expect("clean shutdown");
        }
        let (this, pass_s, pass_train_s) = set_up(spec, seed, dir, &mut tr);
        setup_s.push(pass_s);
        train_s.push(pass_train_s);
        if pass < parallel_first {
            let (s, same) = train_parallel(&this.inputs, &this.model, spec, dir, &mut tr);
            train_parallel_s.push(s);
            same_factors &= same;
        }
        live = Some(this);
    }
    let Live {
        inputs,
        model,
        history,
        server,
    } = live.expect("at least one set-up pass");
    let report = tr.time("eval.evaluate", 0, None, || {
        evaluate(&model, &inputs.split.train, &inputs.split.test, RECALL_AT)
    });
    checks.push((
        format!("recall_at_20 {:.4} >= 0.20", report.recall),
        report.recall >= 0.20,
    ));

    let bodies = stream::bodies(seed, STREAM_LEN, M, spec.cold_share, inputs.served_data());
    let raw: Vec<Vec<u8>> = bodies.iter().map(|b| stream::frame(b)).collect();
    let timed = if trace { 0.4 * seconds } else { seconds };
    let load = closed_loop(
        server.addr(),
        &raw,
        &ClosedLoop {
            conns: CONNS,
            window: spec.window,
            warmup: Duration::from_secs_f64(WARMUP_S),
            timed: Duration::from_secs_f64(timed),
            keep_samples: SAMPLES,
            m: M,
        },
        buffers,
    );
    if !trace {
        let (s, same) = train_parallel(&inputs, &model, spec, dir, &mut tr);
        train_parallel_s.push(s);
        same_factors &= same;
    }
    checks.push((
        "fit and fit_parallel factors are bitwise equal".into(),
        same_factors,
    ));
    let stats = Arc::clone(server.stats());
    let shed = stats.shed.load(Ordering::Relaxed);
    checks.push((format!("no request shed ({shed})"), shed == 0));
    let reference = load_engine(
        &served_path(spec, dir),
        inputs.served_data().clone(),
        spec,
        &inputs.cfg,
        0,
        &mut Tracer::new(false),
    );
    check_replies(spec, dir, &inputs, &bodies, &load, &reference, &mut checks);

    let metrics = if trace {
        layers::measure(
            &mut layers::Ctx {
                spec,
                seed,
                seconds,
                dir,
                inputs: &inputs,
                model: &model,
                history: &history,
                bodies: &bodies,
                raw: &raw,
                engine: &reference,
                addr: server.addr(),
                stats: &stats,
                load: &load,
                checks: &mut checks,
            },
            &mut tr,
        )
    } else {
        let window = load.window();
        // two lines per run: whether something outside the benchmark took a
        // core for part of the window, and what the whole window read
        let per_slice: Vec<String> = window.slice_rps.iter().map(|r| format!("{r:.0}")).collect();
        eprintln!("benchmark: req/s by slice: {}", per_slice.join(" "));
        let (whole_rps, whole_p50_us, whole_p99_us) = load.whole_window();
        eprintln!(
            "benchmark: whole window: {whole_rps:.0} req/s, p50 {whole_p50_us:.0} us, p99 {whole_p99_us:.0} us over {} samples",
            load.served.len()
        );
        let n = window.samples;
        eprintln!(
            "benchmark: fastest quarter of {} slices: {n} samples, at least {} beyond each slice's p99",
            window.slice_rps.len(),
            window.beyond_p99
        );
        // the two figures that do not repeat well enough on a shared box to
        // carry a bound; the traced run reports them as per-layer metrics
        eprintln!(
            "benchmark: unbounded: latency_p99_us {:.0} (median of the kept slices' p99), train_parallel_wall_s {:.4} (fastest of {})",
            window.p99_us,
            fastest(&train_parallel_s),
            train_parallel_s.len()
        );
        let users = report.evaluated_users;
        vec![
            Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("throughput_rps", window.rps, "req/s", n),
            Metric::new("latency_p50_us", window.p50_us, "us", n),
            Metric::new("train_wall_s", fastest(&train_s), "s", train_s.len()),
            Metric::new("recall_at_20", report.recall, "ratio", users),
            Metric::new("peak_rss_mb", load.peak_rss_mb, "MB", 1),
        ]
    };
    RunningServer::shutdown(server).expect("clean shutdown");
    if trace {
        let path = dir
            .parent()
            .expect("run directory has a parent")
            .join(format!("trace-{}.jsonl", spec.name));
        tr.write_jsonl(&path).expect("write the span file");
        eprintln!("benchmark: spans written to {}", path.display());
        println!("{:<32} {:>9} {:>14}", "span", "n", "self_ms");
        for (name, (n, self_ns)) in tr.self_time_by_name() {
            println!("{name:<32} {n:>9} {:>14.3}", self_ns as f64 / 1e6);
        }
    }
    Outcome {
        metrics,
        attempted: load.completed.max(1),
        failed: load.failed,
        checks,
    }
}
