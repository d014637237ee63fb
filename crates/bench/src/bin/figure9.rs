//! **Figure 9** — recall@50 heatmap over the (K, λ) hyper-parameter grid
//! for the B2B dataset.
//!
//! Paper setup: 625 parameter pairs fanned out with Spark over 8 GPU
//! machines in ~8 minutes (vs >2 days on one CPU). Here the same
//! embarrassingly parallel fan-out runs on `ocular_linalg::par`'s scoped
//! threads ([`ocular_eval::gridsearch`]); the default grid is 5×5 to stay
//! laptop-friendly — pass `--grid 25` for the paper's resolution.
//!
//! Paper result: the optimal pairs lie *outside* the coarse grid used for
//! the CPU-only Table I experiments, i.e. a finer search buys extra recall.
//!
//! Usage: `cargo run -p ocular-bench --release --bin figure9 --
//!   [--scale …] [--seed S] [--grid 5] [--m 50] [--csv]`

use ocular_bench::harness::OcularRecommender;
use ocular_bench::Args;
use ocular_core::OcularConfig;
use ocular_datasets::profiles;
use ocular_eval::gridsearch::grid_search;
use ocular_sparse::{Split, SplitConfig};

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let m = args.get("m", 50usize);
    let grid = args.get("grid", 5usize).max(2);
    let data = profiles::b2b_like(args.scale(), seed);
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed,
            ..Default::default()
        },
    );
    let base_k = data.truth.k();

    // K axis: geometric range around the planted count (the paper sweeps
    // 80..1000 around its optimum); λ axis: 0 plus a geometric ladder
    let ks: Vec<usize> = (0..grid)
        .map(|i| {
            let lo = (base_k / 2).max(2) as f64;
            let hi = (base_k * 4) as f64;
            (lo * (hi / lo).powf(i as f64 / (grid - 1) as f64)).round() as usize
        })
        .collect();
    // λ axis: 0 plus a geometric ladder spanning under- to over-regularised
    // (the probes place the optimum for the B2B stand-in around λ ≈ 2–10)
    let lambdas: Vec<f64> = (0..grid)
        .map(|i| {
            if i == 0 {
                0.0
            } else {
                0.5 * 64.0f64.powf((i - 1) as f64 / (grid - 2).max(1) as f64)
            }
        })
        .collect();

    println!(
        "Figure 9 — recall@{m} over a {}×{} (K, λ) grid (B2B-like, scale {:?}, {} cells in parallel)\n",
        ks.len(),
        lambdas.len(),
        args.scale(),
        ks.len() * lambdas.len()
    );

    let t0 = std::time::Instant::now();
    let result = grid_search(&ks, &lambdas, &split.train, &split.test, m, |k, lambda| {
        let cfg = OcularConfig {
            k,
            lambda,
            max_iters: 40,
            seed,
            ..Default::default()
        };
        Box::new(OcularRecommender::fit_absolute(&split.train, &cfg))
    });
    let elapsed = t0.elapsed().as_secs_f64();

    println!("{}", result.render_heatmap());
    println!(
        "grid evaluated in {elapsed:.1} s on {} threads (paper: 8 min on 8 GPUs vs >2 days on 1 CPU)",
        ocular_linalg::par::threads()
    );
    if args.flag("csv") {
        println!("{}", result.to_csv());
    }
}
