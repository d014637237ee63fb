//! Scratch probe for hyper-parameter sensitivity on one profile (not part
//! of the documented experiment suite; used to calibrate defaults).
//!
//! Beyond the sweep it runs two data-backbone guards:
//!
//! * a fixed-work training run whose **per-sweep** wall-clock must stay
//!   flat (last sweep ≤ 1.2× the fastest sweep) — the regression guard
//!   for per-sweep allocation churn, which once crept 0.138 s → 0.226 s
//!   over a run. The run takes fixed steps: the Armijo search drops
//!   failing trials early, more of them in the first sweeps than near
//!   convergence, so its sweeps do not do equal work;
//! * a streaming-**ingestion** timing (edge-list text → [`Dataset`] via
//!   the chunked reader).
//!
//! The same fit with the Armijo search reports what the search did —
//! trials per accepted step, and how many trials were rejected from their
//! `O(K)` part or cut short — from the exact counts in
//! `TrainingHistory::search`.
//!
//! With `--bench-out PATH` it additionally writes a `BENCH_train.json`
//! artifact (fastest OCuLaR fit wall-clock over the sweep, per-sweep
//! times, line-search counts, ingestion seconds) for the CI
//! bench-regression gate.

use ocular_baselines::{ItemKnn, KnnConfig, UserKnn};
use ocular_bench::harness::{evaluate_recommender, OcularRecommender};
use ocular_bench::Args;
use ocular_core::linesearch::SearchStats;
use ocular_core::OcularConfig;
use ocular_datasets::profiles;
use ocular_eval::protocol::evaluate;
use ocular_serve::json::{obj, Json};
use ocular_sparse::io::{append_edge_list_str, read_edge_list_str, write_edge_list};
use ocular_sparse::{Dataset, Split, SplitConfig};

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let which = args.get("data", "b2b".to_string());
    let data = match which.as_str() {
        "ml" => profiles::movielens_like(args.scale(), seed),
        "cu" => profiles::citeulike_like(args.scale(), seed),
        _ => profiles::b2b_like(args.scale(), seed),
    };
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed,
            ..Default::default()
        },
    );
    let kh = data.truth.k();
    println!(
        "profile {which}: k_hint={kh}, nnz={}, density={:.4}, users/cluster≈{:.0}, items/cluster≈{:.0}",
        data.matrix.nnz(),
        data.matrix.density(),
        data.truth.user_sets.iter().map(|s| s.len()).sum::<usize>() as f64 / kh as f64,
        data.truth.item_sets.iter().map(|s| s.len()).sum::<usize>() as f64 / kh as f64,
    );

    // oracle: knows the planted clusters and global popularity
    let item_deg: Vec<f64> = data
        .matrix
        .col_degrees()
        .iter()
        .map(|&d| d as f64)
        .collect();
    let max_deg = item_deg.iter().cloned().fold(1.0, f64::max);
    let truth = &data.truth;
    let oracle_fn = |u: usize, buf: &mut Vec<f64>| {
        for (i, b) in buf.iter_mut().enumerate() {
            let mut s = 0.0;
            for c in 0..truth.k() {
                if truth.user_sets[c].binary_search(&u).is_ok()
                    && truth.item_sets[c].binary_search(&i).is_ok()
                {
                    s += 1.0 + item_deg[i] / max_deg;
                }
            }
            *b = s + 0.01 * item_deg[i] / max_deg;
        }
    };
    let oracle = ocular_api::FnScorer::new(
        "oracle",
        split.train.n_rows(),
        split.train.n_cols(),
        oracle_fn,
    );
    let r = evaluate(&oracle, &split.train, &split.test, 50);
    println!(
        "ORACLE (planted truth): recall@50={:.4} MAP@50={:.4}",
        r.recall, r.map
    );

    for knn in [20, 50, 150, 400] {
        let m = ItemKnn::fit(&split.train, &KnnConfig { k: knn });
        let r = evaluate_recommender(&m, &split.train, &split.test, 50);
        println!(
            "item-kNN k={knn:<4} recall@50={:.4} MAP@50={:.4}",
            r.recall, r.map
        );
        let m = UserKnn::fit(&split.train, &KnnConfig { k: knn });
        let r = evaluate_recommender(&m, &split.train, &split.test, 50);
        println!(
            "user-kNN k={knn:<4} recall@50={:.4} MAP@50={:.4}",
            r.recall, r.map
        );
    }

    let mut fit_seconds: Vec<f64> = Vec::new();
    for k in [kh, kh * 2] {
        for lambda in [1.0, 2.0, 5.0, 10.0] {
            let cfg = OcularConfig {
                k,
                lambda,
                max_iters: 100,
                tol: 1e-5,
                seed,
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let rec = OcularRecommender::fit_absolute(&split.train, &cfg);
            let elapsed = t0.elapsed().as_secs_f64();
            fit_seconds.push(elapsed);
            let r = evaluate_recommender(&rec, &split.train, &split.test, 50);
            println!(
                "OCuLaR k={k:>3} λ={lambda:<5} recall@50={:.4} MAP@50={:.4}  ({elapsed:.1}s)",
                r.recall, r.map,
            );
        }
    }

    // per-sweep flatness guard: fixed K, fixed steps and no convergence
    // break below the iteration budget, so every sweep does the same work
    // — a monotone per-sweep slowdown means state is leaking across sweeps
    // (the seed-era symptom was allocation churn: 0.138 s → 0.226 s). The
    // Armijo search cannot serve here: it drops failing trials early, more
    // of them in the first sweeps than near convergence, so its sweeps
    // legitimately differ in work. Four inner steps keep a sweep at the
    // ≈ 2 ms the 1.2× bound was set on; the step is small enough (the
    // gradient grows with the entity count) that the fit descends
    let search_cfg = OcularConfig {
        k: kh * 2,
        lambda: 2.0,
        max_iters: 12,
        tol: 0.0,
        seed,
        ..Default::default()
    };
    let flat_cfg = OcularConfig {
        line_search: false,
        fixed_step: 0.2 / split.train.n_rows().max(split.train.n_cols()) as f64,
        inner_steps: 4,
        ..search_cfg.clone()
    };
    let flat_history = ocular_core::fit(&split.train, &flat_cfg).history;
    assert!(
        flat_history.final_objective() < flat_history.objective[0],
        "the fixed-step flatness fit must train, not diverge"
    );
    let flat_sweeps = flat_history.sweep_seconds;
    let min_sweep = flat_sweeps.iter().cloned().fold(f64::INFINITY, f64::min);
    let last_sweep = *flat_sweeps.last().expect("at least one sweep");
    let flatness = last_sweep / min_sweep;
    println!(
        "per-sweep seconds (K={}, fixed steps): min={min_sweep:.4} last={last_sweep:.4} last/min={flatness:.2}",
        flat_cfg.k
    );
    assert!(
        flatness <= 1.2,
        "per-sweep time is not flat: last sweep {last_sweep:.4}s > 1.2× min sweep \
         {min_sweep:.4}s — per-sweep state is leaking (allocation churn?)"
    );

    // the same run with the Armijo search: its per-sweep seconds (what
    // `bench_gate` holds to the baseline) and, as telemetry only, seconds
    // per positive visited — the exact count inside trials, one O(K) part
    // per trial, and each half-sweep's value-and-gradient pass
    let search_fit = ocular_core::fit(&split.train, &search_cfg);
    let per_sweep = search_fit.history.sweep_seconds;
    let ns_per_visit: Vec<f64> = per_sweep
        .iter()
        .zip(&search_fit.history.search)
        .map(|(s, st)| 1e9 * s / (st.visited + st.trials + 2 * split.train.nnz() as u64) as f64)
        .collect();
    println!(
        "line-search sweep seconds: first={:.4} last={:.4}; ns per positive visited: first={:.1} last={:.1}",
        per_sweep[0],
        per_sweep[per_sweep.len() - 1],
        ns_per_visit[0],
        ns_per_visit[ns_per_visit.len() - 1],
    );

    // what a failing Armijo trial costs: exact counts, so the shares repeat
    // on any runner
    let mut search = SearchStats::default();
    search_fit.history.search.iter().for_each(|&s| search += s);
    let trials = search.trials as f64;
    let trials_per_step = trials / search.accepted as f64;
    let screened_share = search.screened as f64 / trials;
    let cut_short_share = search.cut_short as f64 / trials;
    let visited_share = search.visited as f64 / search.visited_unscreened as f64;
    println!(
        "line search: {trials_per_step:.1} trials/step over {} steps; {:.0}% of trials screened \
         in O(K), {:.0}% cut short; positives visited inside trials: {:.0}% of trials × degree",
        search.accepted,
        100.0 * screened_share,
        100.0 * cut_short_share,
        100.0 * visited_share,
    );

    // streaming-ingestion timing: render the training interactions as an
    // edge list and stream them back through the chunked reader
    let mut edge_text: Vec<u8> = Vec::new();
    write_edge_list(&mut edge_text, &data.matrix).expect("render edge list");
    let edge_text = String::from_utf8(edge_text).expect("ascii edge list");
    let t0 = std::time::Instant::now();
    let ingested: Dataset = read_edge_list_str(&edge_text, "\t", None)
        .expect("re-ingest the rendered edge list")
        .into_dataset();
    let ingest_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        ingested.nnz(),
        data.matrix.nnz(),
        "ingestion must be lossless"
    );
    println!(
        "streaming ingestion: {} records in {ingest_seconds:.4}s",
        ingested.nnz()
    );

    // delta-append timing: split the same log ~90/10, ingest the base,
    // then merge the tail through the delta path. Live refresh rests on
    // this being one merge pass over the existing positives — never a
    // full re-ingest of the grown log — so the merged dataset must equal
    // the full ingest bit-for-bit and the append must come in below the
    // full-ingest wall-clock it replaces (same-run, machine-independent).
    let lines: Vec<&str> = edge_text.lines().collect();
    let cut = lines.len() - lines.len() / 10;
    let base_text: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
    let delta_text: String = lines[cut..].iter().map(|l| format!("{l}\n")).collect();
    let base: Dataset = read_edge_list_str(&base_text, "\t", None)
        .expect("ingest the base log")
        .into_dataset();
    let t0 = std::time::Instant::now();
    let merged = append_edge_list_str(&base, &delta_text, "\t", None).expect("delta merge");
    let delta_append_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        merged, ingested,
        "delta merge must equal a full re-ingest of the concatenated log"
    );
    println!(
        "delta append: {} records merged in {delta_append_seconds:.4}s \
         (full re-ingest: {ingest_seconds:.4}s)",
        lines.len() - cut
    );
    assert!(
        delta_append_seconds <= ingest_seconds * 1.25 + 0.01,
        "appending a 10% delta took {delta_append_seconds:.4}s — not meaningfully cheaper \
         than the {ingest_seconds:.4}s full re-ingest it is supposed to avoid"
    );

    let bench_out = args.get("bench-out", String::new());
    if !bench_out.is_empty() {
        // the fastest fit is the least noisy proxy for "did training get
        // slower" — the sweep's slower configs vary with k and λ by design
        let fastest = fit_seconds.iter().cloned().fold(f64::INFINITY, f64::min);
        let doc = obj(vec![
            ("bench", Json::Str("train".into())),
            ("profile", Json::Str(which.clone())),
            ("n_users", Json::Num(split.train.n_rows() as f64)),
            ("n_items", Json::Num(split.train.n_cols() as f64)),
            ("nnz", Json::Num(split.train.nnz() as f64)),
            ("train_seconds", Json::Num(fastest)),
            (
                "sweep_seconds",
                Json::Arr(fit_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "per_sweep_seconds",
                Json::Arr(per_sweep.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("sweep_flatness", Json::Num(flatness)),
            (
                "line_search",
                obj(vec![
                    ("steps", Json::Num(search.accepted as f64)),
                    ("trials", Json::Num(trials)),
                    ("trials_per_step", Json::Num(trials_per_step)),
                    ("screened_share", Json::Num(screened_share)),
                    ("cut_short_share", Json::Num(cut_short_share)),
                    ("visited_share", Json::Num(visited_share)),
                ]),
            ),
            ("ingest_seconds", Json::Num(ingest_seconds)),
            ("delta_append_seconds", Json::Num(delta_append_seconds)),
        ]);
        std::fs::write(&bench_out, format!("{doc}\n")).expect("write bench artifact");
        eprintln!("artifact → {bench_out}");
    }
}
