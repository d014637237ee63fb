//! **Figure 6** — recall and co-cluster metrics for varying K and λ.
//!
//! Paper result (Section VII-C, Movielens): *"either too little (λ = 0) or
//! too much regularization (λ = 100) can hurt the recommendation
//! accuracy"*; growing K shrinks the average co-cluster while each user's
//! membership count stays moderate; co-cluster densities sit far above the
//! global matrix density.
//!
//! Usage: `cargo run -p ocular-bench --release --bin figure6 --
//!   [--scale …] [--seed S] [--m 50] [--csv]`
//!
//! λ values follow the paper's panels {0, 30, 100}, rescaled by `--lambda-unit`
//! (default 0.01 — the synthetic stand-in is ~10× smaller than Movielens-1M,
//! so the paper's absolute λ range over-regularises it).

use ocular_bench::harness::OcularRecommender;
use ocular_bench::{Args, TextTable};
use ocular_core::coclusters::{cocluster_stats, extract_coclusters_relative};
use ocular_core::OcularConfig;
use ocular_datasets::profiles;
use ocular_eval::protocol::evaluate;
use ocular_sparse::{Split, SplitConfig};

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let m = args.get("m", 50usize);
    let lambda_unit = args.get("lambda-unit", 0.01f64);
    let data = profiles::movielens_like(args.scale(), seed);
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed,
            ..Default::default()
        },
    );

    let base_k = data.truth.k();
    let ks: Vec<usize> = [base_k / 2, base_k, base_k * 2, base_k * 4]
        .into_iter()
        .filter(|&k| k >= 2)
        .collect();
    let lambdas: Vec<f64> = vec![0.0, 30.0 * lambda_unit, 100.0 * lambda_unit];

    println!(
        "Figure 6 — recall@{m} and co-cluster metrics across K × λ (Movielens-like, scale {:?})",
        args.scale()
    );
    println!("matrix density: {:.4}\n", data.matrix.density());

    let mut table = TextTable::new([
        "K",
        "lambda",
        "recall",
        "co-clusters",
        "users/cluster",
        "items/cluster",
        "density",
        "memberships",
    ]);
    for &k in &ks {
        for &lambda in &lambdas {
            let cfg = OcularConfig {
                k,
                lambda,
                max_iters: 60,
                seed,
                ..Default::default()
            };
            let rec = OcularRecommender::fit_absolute(&split.train, &cfg);
            let report = evaluate(&rec, &split.train, &split.test, m);
            // relative membership threshold: regularised magnitudes split
            // asymmetrically between the user and item side, so absolute
            // thresholds under-count the large side
            let clusters = extract_coclusters_relative(&rec.model, 0.3);
            let stats = cocluster_stats(&clusters, &split.train);
            table.row([
                k.to_string(),
                format!("{lambda}"),
                format!("{:.4}", report.recall),
                stats.count.to_string(),
                format!("{:.1}", stats.mean_users),
                format!("{:.1}", stats.mean_items),
                format!("{:.3}", stats.mean_density),
                format!("{:.2}", stats.mean_user_memberships),
            ]);
            eprintln!("[figure6] K={k} λ={lambda} done");
        }
    }
    println!("{}", table.render());
    if args.flag("csv") {
        println!("{}", table.to_csv());
    }
    println!("expected shape (paper): recall peaks at moderate λ; λ=0 and the");
    println!("largest λ hurt; co-cluster density ≫ matrix density; users/items");
    println!("per cluster shrink as K grows.");
}
