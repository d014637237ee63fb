//! CI bench-regression gate.
//!
//! Compares fresh `BENCH_serve.json` / `BENCH_train.json` /
//! `BENCH_net.json` artifacts against the committed baseline
//! (`ci/bench-baseline.json`) and exits non-zero when p50 serve latency,
//! train time, or network serving performance regresses more than the
//! tolerance (default 25%). Latencies and durations gate higher-is-worse;
//! network throughput gates lower-is-worse. A
//! machine-independent check compares cluster-mode p50 against the same
//! run's full-sort p50, so "candidate generation stopped helping" is
//! caught even when absolute wall-clock differs across runner hardware;
//! another holds the int8 full-catalog request within a bound of the bare int8 scoring
//! kernel on each of its two scan arms (all-K users against the row-major
//! kernel, 4-active users against the factor-major one), so a probability
//! transform or selection pass creeping back over the whole catalog fails
//! on any runner, and the 4-active request at least 2× under the all-K
//! one, both on one thread, so the sparse arm silently falling out of
//! dispatch fails too, and
//! the 4-active bare kernel at most 0.33× the all-K one, so a scalar
//! per-row loop coming back into the sparse arm fails at either level;
//! where the runner has AVX2, the bare row-major int8 kernel's AVX2 stamp
//! must beat its baseline stamp by 1.4× in the same run; saving and
//! mmap-loading the int8 catalog snapshot may cost 1.5× and 1.25× a bare
//! checksum of its bytes, and serving it from its mapping may leave at most
//! 0.35 of the file resident; where the runner
//! has two cores, the 4-active request scanned in parts may cost at most
//! 1.1× itself on one thread (`split_vs_single`), and a requester on every
//! core must get at least 0.9× the requests per second it gets with every
//! scan in one part (`busy_vs_single`); a last one, on an
//! exact count, holds
//! the positives the Armijo search visits inside its trials to at most
//! 0.63 of what evaluating every trial in full would visit. Skipped
//! entirely — exit 0 — when the `BENCH_BASELINE_RESET` environment
//! variable is set to `1` (CI sets it from the `bench-baseline-reset` PR
//! label), in which case the gate prints the JSON to commit as the new
//! baseline.
//!
//! ```text
//! bench_gate --baseline ci/bench-baseline.json \
//!            --serve BENCH_serve.json --train BENCH_train.json \
//!            --net BENCH_net.json [--tolerance 0.25]
//! ```

use ocular_bench::Args;
use ocular_serve::json::{obj, Json};
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Pulls a numeric field along a dotted path (`"engine_clusters.p50_us"`).
fn field(doc: &Json, path: &str) -> Result<f64, String> {
    let mut v = doc;
    for key in path.split('.') {
        v = v.get(key).ok_or(format!("missing field `{path}`"))?;
    }
    v.as_f64()
        .filter(|n| *n > 0.0)
        .ok_or(format!("field `{path}` is not a positive number"))
}

fn run() -> Result<Vec<String>, String> {
    let args = Args::parse();
    let tolerance = args.get("tolerance", 0.25f64);
    let baseline_path = args.get("baseline", "ci/bench-baseline.json".to_string());
    let serve_path = args.get("serve", "BENCH_serve.json".to_string());
    let train_path = args.get("train", "BENCH_train.json".to_string());
    let net_path = args.get("net", "BENCH_net.json".to_string());

    let serve = load(&serve_path)?;
    let train = load(&train_path)?;
    let net = load(&net_path)?;
    let serve_p50 = field(&serve, "engine_clusters.p50_us")?;
    let full_sort_p50 = field(&serve, "full_sort.p50_us")?;
    let train_seconds = field(&train, "train_seconds")?;
    let ingest_seconds = field(&train, "ingest_seconds")?;
    let delta_append_seconds = field(&train, "delta_append_seconds")?;
    // mean per-sweep seconds of the probe's 12-sweep line-search fit
    let per_sweep = train
        .get("per_sweep_seconds")
        .and_then(|v| v.as_array())
        .ok_or("missing field `per_sweep_seconds`")?;
    let sweep_times: Vec<f64> = per_sweep
        .iter()
        .map(|j| {
            j.as_f64()
                .filter(|n| *n > 0.0)
                .ok_or("`per_sweep_seconds` entries must be positive numbers")
        })
        .collect::<Result<_, _>>()?;
    if sweep_times.is_empty() {
        return Err("`per_sweep_seconds` is empty".into());
    }
    let train_sweep_seconds = sweep_times.iter().sum::<f64>() / sweep_times.len() as f64;
    let sweep_flatness = field(&train, "sweep_flatness")?;
    // positives visited inside Armijo trials ÷ (trials × degree): a count,
    // not a timing, so it repeats exactly on any runner
    let visited_share = field(&train, "line_search.visited_share")?;
    // per-model-kind serving rows (baseline key = "<kind>_p50_us", with
    // `-` mapped to `_`)
    let kinds = ["wals", "bpr", "item-knn", "popularity"];
    let kind_p50 = kinds
        .iter()
        .map(|kind| field(&serve, &format!("kinds.{kind}.p50_us")))
        .collect::<Result<Vec<f64>, _>>()?;
    // cold path: the fold-in solve is most of a cold request, so the shape
    // of its latency distribution and its convergence count are gated
    let cold_p50 = field(&serve, "engine_cold.p50_us")?;
    let cold_p99 = field(&serve, "engine_cold.p99_us")?;
    let cold_unconverged = serve
        .get("engine_cold_unconverged")
        .and_then(|v| v.as_f64())
        .ok_or("missing field `engine_cold_unconverged` in serve artifact")?;
    // quantized scoring kernels on the large catalog (f64/f32/int8)
    let quant_f64 = field(&serve, "quant.f64.p50_us")?;
    let quant_f32 = field(&serve, "quant.f32.p50_us")?;
    let quant_i8 = field(&serve, "quant.int8.p50_us")?;
    let kernel_i8 = field(&serve, "quant.int8_kernel.p50_us")?;
    // the same request again on one thread, where its scan is one part, and
    // the parts it ran in above
    let quant_i8_single = field(&serve, "quant.int8_single.p50_us")?;
    let int8_parts = field(&serve, "quant.int8_parts")?;
    // the same pair for users with all K factors active: the row-major arm
    let quant_i8_dense = field(&serve, "quant.int8_dense.p50_us")?;
    let quant_i8_dense_single = field(&serve, "quant.int8_dense_single.p50_us")?;
    let kernel_i8_dense = field(&serve, "quant.int8_dense_kernel.p50_us")?;
    // the same kernel pinned to each ISA level; the AVX2 row exists only
    // on a runner that has AVX2
    let kernel_i8_baseline = field(&serve, "quant.int8_kernel_levels.baseline.p50_us")?;
    let kernel_i8_avx2 = field(&serve, "quant.int8_kernel_levels.avx2.p50_us").ok();
    // snapshot cold-start cost (mmap load of the v3 file)
    let load_binary = field(&serve, "snapshot_load.binary_seconds")?;
    // the int8 catalog's snapshot: save, mmap load, bare checksum of its bytes
    let catalog_save = field(&serve, "catalog_save.p50_us")?;
    let catalog_load = field(&serve, "catalog_load.p50_us")?;
    let catalog_checksum = field(&serve, "catalog_checksum.p50_us")?;
    let catalog_resident = field(&serve, "catalog_resident_bytes")?;
    let catalog_bytes = field(&serve, "catalog_bytes")?;
    // end-to-end TCP serving tier: sustained closed-loop throughput and
    // round-trip latency quantiles from the loadgen run
    let net_throughput = field(&net, "throughput_rps")?;
    let net_p50 = field(&net, "p50_us")?;
    let net_p99 = field(&net, "p99_us")?;
    let net_errors = net
        .get("errors")
        .and_then(|v| v.as_f64())
        .ok_or("missing field `errors` in net artifact")?;

    if std::env::var("BENCH_BASELINE_RESET").as_deref() == Ok("1") {
        let mut fields = vec![
            ("serve_p50_us".to_string(), Json::Num(serve_p50)),
            ("train_seconds".to_string(), Json::Num(train_seconds)),
            ("ingest_seconds".to_string(), Json::Num(ingest_seconds)),
            (
                "train_sweep_seconds".to_string(),
                Json::Num(train_sweep_seconds),
            ),
        ];
        for (kind, p50) in kinds.iter().zip(&kind_p50) {
            fields.push((
                format!("{}_p50_us", kind.replace('-', "_")),
                Json::Num(*p50),
            ));
        }
        fields.push(("quant_f64_p50_us".to_string(), Json::Num(quant_f64)));
        fields.push(("quant_f32_p50_us".to_string(), Json::Num(quant_f32)));
        fields.push(("quant_int8_p50_us".to_string(), Json::Num(quant_i8)));
        fields.push((
            "snapshot_load_binary_seconds".to_string(),
            Json::Num(load_binary),
        ));
        fields.push(("net_throughput_rps".to_string(), Json::Num(net_throughput)));
        fields.push(("net_p50_us".to_string(), Json::Num(net_p50)));
        fields.push(("net_p99_us".to_string(), Json::Num(net_p99)));
        let fresh = obj(fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect());
        println!("bench_gate: BENCH_BASELINE_RESET=1 — gate skipped.");
        println!("new baseline for {baseline_path}:\n{fresh}");
        return Ok(vec![]);
    }

    let baseline = load(&baseline_path)?;
    let base_serve = field(&baseline, "serve_p50_us")?;
    let base_train = field(&baseline, "train_seconds")?;

    let mut failures = Vec::new();
    let mut check = |name: &str, current: f64, base: f64| {
        let ratio = current / base;
        let verdict = if ratio > 1.0 + tolerance {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {name:<14} current={current:10.1}  baseline={base:10.1}  ratio={ratio:5.2}  {verdict}"
        );
        if ratio > 1.0 + tolerance {
            failures.push(format!(
                "{name} regressed {:.0}% (> {:.0}% tolerance)",
                (ratio - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    };
    check("serve_p50_us", serve_p50, base_serve);
    check("train_seconds", train_seconds, base_train);
    check(
        "ingest_seconds",
        ingest_seconds,
        field(&baseline, "ingest_seconds")?,
    );
    check(
        "train_sweep_s",
        train_sweep_seconds,
        field(&baseline, "train_sweep_seconds")?,
    );
    // machine-independent same-run check: per-sweep time must stay flat
    // across a training run — last sweep within tolerance of the fastest
    // (the probe asserts a 1.2× bound on the same ratio at run time)
    check("sweep_flatness", sweep_flatness, 1.0);
    // machine-independent same-run check: merging the 10% delta must not
    // cost as much as the full re-ingest it replaces — the live-refresh
    // "one merge pass, never a full re-ingest" guarantee, gated on the
    // same run so hardware noise cancels
    check("delta_append_s", delta_append_seconds, ingest_seconds);
    // machine-independent same-run check: candidate generation + heap
    // selection must not serve slower than the retired full-sort path — a
    // hardware-noise-proof signal that the serving optimization still works
    check("vs_full_sort", serve_p50, full_sort_p50);
    // per-model-kind serving gates (baseline entries are required once the
    // kinds exist in the artifact, so a silently dropped row fails loudly)
    for (kind, p50) in kinds.iter().zip(&kind_p50) {
        let key = format!("{}_p50_us", kind.replace('-', "_"));
        let base = field(&baseline, &key)?;
        check(&key, *p50, base);
    }
    // quantized kernel gates: no dtype may regress against its baseline…
    check(
        "quant_f64_p50",
        quant_f64,
        field(&baseline, "quant_f64_p50_us")?,
    );
    check(
        "quant_f32_p50",
        quant_f32,
        field(&baseline, "quant_f32_p50_us")?,
    );
    check(
        "quant_i8_p50",
        quant_i8,
        field(&baseline, "quant_int8_p50_us")?,
    );
    // snapshot cold-start gate
    check(
        "snap_binary_s",
        load_binary,
        field(&baseline, "snapshot_load_binary_seconds")?,
    );
    // end-to-end TCP round-trip latency gates (higher is worse, like every
    // other latency row)
    check("net_p50_us", net_p50, field(&baseline, "net_p50_us")?);
    check("net_p99_us", net_p99, field(&baseline, "net_p99_us")?);
    // sustained network throughput gates in the opposite direction: the
    // current run must not fall more than the tolerance *below* baseline
    {
        let base = field(&baseline, "net_throughput_rps")?;
        let ratio = net_throughput / base;
        let verdict = if ratio < 1.0 - tolerance {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {:<14} current={net_throughput:10.1}  baseline={base:10.1}  ratio={ratio:5.2}  {verdict}",
            "net_rps"
        );
        if ratio < 1.0 - tolerance {
            failures.push(format!(
                "net_throughput_rps dropped {:.0}% (> {:.0}% tolerance)",
                (1.0 - ratio) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    // machine-independent same-run check: a healthy server never errors
    // under closed-loop load — shedding is typed, failures are not allowed
    if net_errors > 0.0 {
        failures.push(format!(
            "loadgen observed {net_errors:.0} transport/protocol errors (must be 0)"
        ));
    }
    // machine-independent same-run checks on the cold path, over baskets
    // of 1..=16 items. A solve that converges costs a few iterations
    // whatever the basket, so the cold p99 stays within a small multiple
    // of the cold p50 (measured ≈ 3); the first-order loop this replaced
    // gave up after one step on a quarter of the baskets and ran to its
    // 100-step cap on others, which read ≈ 25 here and ≈ 110 on the
    // repo benchmark's baskets. A per-request allocation creeping back
    // into the solver shows in the same ratio.
    println!(
        "bench_gate: cold_tail      p50={cold_p50:8.1}µs  p99={cold_p99:8.1}µs  ratio={:5.2}",
        cold_p99 / cold_p50
    );
    if cold_p99 > 8.0 * cold_p50 {
        failures.push(format!(
            "cold-start p99 ({cold_p99:.1}µs) is more than 8× its p50 ({cold_p50:.1}µs)"
        ));
    }
    println!("bench_gate: cold_unconverged {cold_unconverged:.0} fold-in solves stopped short");
    if cold_unconverged != 0.0 {
        failures.push(format!(
            "{cold_unconverged:.0} fold-in solves hit the iteration cap or a failed line search \
             (must be 0)"
        ));
    }
    // machine-independent same-run check: a failing Armijo trial must be
    // rejected from its O(K) part or cut short, not summed to the end. The
    // share is 1.0 when every trial pays for its whole objective; the
    // probe's small profile, run 12 sweeps to near convergence where
    // trials fail by narrow margins, measures 0.569 (0.22 in its first
    // sweep, 0.20 on the repo benchmark's 24k × 900 fit), and the count
    // repeats exactly, so the bound is 1.1× that
    println!(
        "bench_gate: ls_visited     positives visited inside trials = {visited_share:.3} of trials × degree"
    );
    if visited_share > 0.63 {
        failures.push(format!(
            "line search visits {visited_share:.3} of trials × degree positives (> 0.63): \
             failing trials are being evaluated in full again"
        ));
    }
    // …and, machine-independently within the same run, each narrower
    // dtype must score the 100k catalog *strictly* faster than the wider
    // one — the whole point of quantized serving, gated not asserted
    println!(
        "bench_gate: quant_ladder   f64={quant_f64:8.1}µs  f32={quant_f32:8.1}µs  int8={quant_i8:8.1}µs"
    );
    if quant_f32 >= quant_f64 {
        failures.push(format!(
            "f32 full-catalog p50 ({quant_f32:.1}µs) is not strictly below f64's \
             ({quant_f64:.1}µs)"
        ));
    }
    if quant_i8 >= quant_f32 {
        failures.push(format!(
            "int8 full-catalog p50 ({quant_i8:.1}µs) is not strictly below f32's \
             ({quant_f32:.1}µs)"
        ));
    }
    // …and the int8 request must stay a scoring kernel plus a thin fused
    // selection, on each arm against that arm's own kernel: transforming
    // all 100k scores costs ~4× the row-major kernel and more of the
    // factor-major one. The sparse arm's bound is wider because its kernel
    // is a fifth the size and the top-50 selection is not: 1.37–1.42 when
    // each row paid a saturating f32→i32 cast, 1.50–1.81 (median 1.73,
    // request 162–240µs over kernel 94–134µs, nine runs) once the kernel
    // halved, so 1.7 became 2.0; a transform pass over the catalog reads > 10.
    // The kernels run on one thread and a 2-core runner's requests in two
    // parts: 0.65–0.96 row-major and 1.38–1.76 factor-major there (four
    // runs); the bounds stay what a one-part scan needs
    for (path, request, kernel, bound) in [
        (
            "row-major, all-K users",
            quant_i8_dense,
            kernel_i8_dense,
            1.3,
        ),
        ("factor-major, 4-active users", quant_i8, kernel_i8, 2.0),
    ] {
        println!(
            "bench_gate: scan_vs_kernel int8 {path}: request={request:8.1}µs  bare kernel={kernel:8.1}µs  ratio={:5.2}",
            request / kernel
        );
        if request > bound * kernel {
            failures.push(format!(
                "int8 full-catalog request p50 ({request:.1}µs, {path}) is more than {bound}× \
                 its bare kernel's ({kernel:.1}µs)"
            ));
        }
    }
    // …and a catalog scanned in parts must not cost more than in one: the
    // 4-active request against itself on one thread, same run. Twelve runs
    // on a 2-core VM read 0.72–0.82 in seven processes and 0.92–1.02 in five
    // (both parts then take about as long as the whole one-part scan, so the
    // split is hidden, not broken), so the bound is 1.1: a split that costs
    // the request more than it saves fails
    let split_vs_single = quant_i8 / quant_i8_single;
    match int8_parts >= 2.0 {
        false => println!("bench_gate: split_vs_single unmeasured — this runner scans in one part"),
        true => println!(
            "bench_gate: split_vs_single int8 request one part={quant_i8_single:8.1}µs  {int8_parts} parts={quant_i8:8.1}µs  ratio={split_vs_single:5.2}"
        ),
    }
    if int8_parts >= 2.0 && split_vs_single > 1.1 {
        failures.push(format!(
            "the int8 request in parts costs {split_vs_single:.2}× itself in one part (> 1.1)"
        ));
    }
    // …and with a requester on every core the engine must not split: a
    // part pays only on an idle core, and costs each request CPU. Requests
    // per second with a requester per core, parts left to the engine,
    // against the same with every requester on one thread: 0.99–1.03 under
    // the idle-core rule and 0.62–0.68 with the rule removed, so that every
    // scan split (three runs each, 2-core VM), so 0.9
    let busy_rps = field(&serve, "quant.int8_busy_rps")?;
    let busy_single_rps = field(&serve, "quant.int8_busy_single_rps")?;
    let busy_vs_single = busy_rps / busy_single_rps;
    match int8_parts >= 2.0 {
        false => println!("bench_gate: busy_vs_single unmeasured — this runner scans in one part"),
        true => println!(
            "bench_gate: busy_vs_single int8 requests, a requester per core: one part each={busy_single_rps:8.0} req/s  parts left to the engine={busy_rps:8.0} req/s  ratio={busy_vs_single:5.2}"
        ),
    }
    if int8_parts >= 2.0 && busy_vs_single < 0.9 {
        failures.push(format!(
            "with a requester on every core the engine serves {busy_vs_single:.2}× the int8 \
             requests it serves in one part each (< 0.9): it splits scans with no idle core"
        ));
    }
    // …and the sparse arm's kernel must stay a few vector column passes
    // plus the epilogue: the 4-active factor-major kernel against the all-K
    // row-major one, same level, same run. 0.16–0.25 under AVX2 and ≈ 0.20
    // at the baseline level; 0.39–0.45 and ≈ 0.42 when a scalar per-row
    // f32→i32 cast started every tile, so 0.33 fails that at either level
    println!(
        "bench_gate: sparse_kernel_vs_dense_kernel int8 bare kernel all-K={kernel_i8_dense:8.1}µs  4-active={kernel_i8:8.1}µs  ratio={:5.2}",
        kernel_i8 / kernel_i8_dense
    );
    if kernel_i8 > 0.33 * kernel_i8_dense {
        failures.push(format!(
            "the bare int8 kernel for a 4-active user ({kernel_i8:.1}µs) is more than 0.33× \
             the all-K one ({kernel_i8_dense:.1}µs): a per-row loop of the sparse arm is no \
             longer vectorized"
        ));
    }
    // …and the sparse arm must be what a sparse user gets: the same
    // engine answers a 4-active user at least 2× faster than an all-K one
    // (measured 3.1–3.6×; 1.2–2.1× before the i32 row sums, on or under
    // this bound); a sidecar that is not built, or a dispatch rule that
    // stops matching trained-shaped rows, reads 1.0 here. Both requests are
    // timed on one thread, in one part: split, each part pays a whole top-M,
    // which weighs more on the smaller request and read 1.77–3.03
    println!(
        "bench_gate: sparse_vs_dense int8 request, one part, all-K={quant_i8_dense_single:8.1}µs  4-active={quant_i8_single:8.1}µs  ratio={:5.2}",
        quant_i8_dense_single / quant_i8_single
    );
    if quant_i8_dense_single < 2.0 * quant_i8_single {
        failures.push(format!(
            "the int8 request for a 4-active user ({quant_i8_single:.1}µs, one part) is less \
             than 2× faster than for an all-K user ({quant_i8_dense_single:.1}µs): the \
             sparse-query arm is not running"
        ));
    }
    // …and saving or mmap-loading the 61 MB int8 catalog snapshot must stay
    // the byte-serial FNV-1a checksum both pay plus a little: 92–105 ms for
    // the checksum on a 2-core x86-64 VM, the streaming save 1.23–1.43× it, the
    // load through `read(2)` 1.08–1.09× (0.99–1.04 through the mapping); a
    // save that built the whole file in a `Vec` read 1.8–2.1. Served, 0.175
    // of the file is resident, ≈ 1.0 when the load's checksum walked the mapping
    for (row, ratio, bound) in [
        ("save_vs_checksum", catalog_save / catalog_checksum, 1.5),
        ("load_vs_checksum", catalog_load / catalog_checksum, 1.25),
        ("resident_vs_file", catalog_resident / catalog_bytes, 0.35),
    ] {
        println!("bench_gate: {row} catalog snapshot ratio={ratio:5.2}");
        if ratio > bound {
            failures.push(format!("{row} = {ratio:.2} (> {bound})"));
        }
    }
    // …and the AVX2 stamp of that kernel must actually be wide: the same
    // source under `#[target_feature]` de-vectorizes silently when the
    // attribute misses the loop (measured 2.5× *slower* than baseline), so
    // the two stamps are timed back to back and AVX2 must lead by 1.4×
    match kernel_i8_avx2 {
        Some(avx2) => {
            println!(
                "bench_gate: simd_vs_baseline int8 kernel baseline={kernel_i8_baseline:8.1}µs  avx2={avx2:8.1}µs  ratio={:5.2}",
                kernel_i8_baseline / avx2
            );
            if kernel_i8_baseline < 1.4 * avx2 {
                failures.push(format!(
                    "the AVX2 int8 kernel ({avx2:.1}µs) is less than 1.4× faster than the \
                     baseline stamp ({kernel_i8_baseline:.1}µs): it is no longer vectorized wide"
                ));
            }
        }
        None => println!("bench_gate: simd_vs_baseline skipped — this runner has no AVX2 level"),
    }
    Ok(failures)
}

fn main() -> ExitCode {
    match run() {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            for f in &failures {
                eprintln!("bench_gate: {f}");
            }
            eprintln!(
                "bench_gate: to accept a new baseline, apply the `bench-baseline-reset` label \
                 (or set BENCH_BASELINE_RESET=1) and commit the printed JSON to ci/bench-baseline.json"
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}
