//! Ablations of the design choices the paper calls out:
//!
//! 1. **single PGD step vs (near-)exact subproblem solves** — Section IV-B:
//!    *"performing only one gradient descent step significantly speeds up
//!    the algorithm"*;
//! 2. **regularization λ > 0 vs λ = 0** — Section II: regularization is
//!    the key difference from BIGCLAM and *"crucial for recommendation
//!    performance"*;
//! 3. **Armijo line search vs fixed step** — Section IV-D;
//! 4. **bias terms on vs off** — Section IV-A: *"fitting the corresponding
//!    model does not increase the recommendation performance"*;
//! 5. **sum-trick vs naive negative sums** — Section IV-D (the
//!    `O(nnz·K)` complexity claim).
//!
//! Usage: `cargo run -p ocular-bench --release --bin ablations --
//!   [--scale …] [--seed S] [--m 50]`

use ocular_bench::harness::OcularRecommender;
use ocular_bench::{Args, TextTable};
use ocular_core::gradient::{negative_sum, negative_sum_naive};
use ocular_core::{fit, OcularConfig};
use ocular_datasets::profiles;
use ocular_eval::protocol::evaluate;
use ocular_sparse::{Split, SplitConfig};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let m = args.get("m", 50usize);
    let data = profiles::movielens_like(args.scale(), seed);
    let split = Split::new(
        &data.matrix,
        &SplitConfig {
            seed,
            ..Default::default()
        },
    );
    let k = data.truth.k();
    let base = OcularConfig {
        k,
        lambda: 0.5,
        max_iters: 60,
        seed,
        ..Default::default()
    };

    println!(
        "Ablations (Movielens-like, scale {:?}, K={k})\n",
        args.scale()
    );

    // 1 + 3 + 4: train variants and compare recall, time, iterations
    let variants: Vec<(&str, OcularConfig)> = vec![
        ("baseline (1 PGD step, line search, λ=0.5)", base.clone()),
        (
            "inner_steps = 5 (≈ exact subproblems)",
            OcularConfig {
                inner_steps: 5,
                ..base.clone()
            },
        ),
        (
            "inner_steps = 10",
            OcularConfig {
                inner_steps: 10,
                ..base.clone()
            },
        ),
        (
            "λ = 0 (no regularization — the BIGCLAM setting)",
            OcularConfig {
                lambda: 0.0,
                ..base.clone()
            },
        ),
        (
            "λ = 10 (over-regularized)",
            OcularConfig {
                lambda: 10.0,
                ..base.clone()
            },
        ),
        (
            "fixed step 0.01 (no line search)",
            OcularConfig {
                line_search: false,
                fixed_step: 0.01,
                ..base.clone()
            },
        ),
        (
            "bias terms enabled",
            OcularConfig {
                bias: true,
                ..base.clone()
            },
        ),
        (
            "uniform random init (no neighbourhood seeding)",
            OcularConfig {
                init: ocular_core::InitStrategy::Random,
                ..base.clone()
            },
        ),
        ("R-OCuLaR weighting", base.clone().relative()),
    ];

    let mut table = TextTable::new([
        "variant",
        "recall@M",
        "MAP@M",
        "sweeps",
        "train (s)",
        "final Q",
    ]);
    let mut baseline_recall = None;
    for (name, cfg) in &variants {
        let t0 = Instant::now();
        let result = fit(&split.train, cfg);
        let secs = t0.elapsed().as_secs_f64();
        let rec = OcularRecommender::from_model(result.model.clone(), "variant");
        let report = evaluate(&rec, &split.train, &split.test, m);
        if baseline_recall.is_none() {
            baseline_recall = Some(report.recall);
        }
        table.row([
            name.to_string(),
            format!("{:.4}", report.recall),
            format!("{:.4}", report.map),
            result.history.iterations().to_string(),
            format!("{secs:.2}"),
            format!("{:.1}", result.history.final_objective()),
        ]);
        eprintln!("[ablations] {name} done");
    }
    println!("{}", table.render());

    // 5: sum-trick vs naive negative sums (microbenchmark, exactness check)
    let (uf, _) = ocular_core::trainer::initial_factors(&split.train, &base);
    let rt = split.train.item_view();
    let sums = uf.column_sums();
    let mut fast_buf = vec![0.0; base.k_total()];
    let mut naive_buf = vec![0.0; base.k_total()];
    let items = rt.n_rows().min(200);
    let t0 = Instant::now();
    for i in 0..items {
        negative_sum(&uf, &sums, rt.row(i), &mut fast_buf);
    }
    let fast_t = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for i in 0..items {
        negative_sum_naive(&uf, rt.row(i), &mut naive_buf);
    }
    let naive_t = t0.elapsed().as_secs_f64();
    // exactness on the last item
    let max_diff = fast_buf
        .iter()
        .zip(&naive_buf)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "sum-trick ablation ({items} item negative-sums, {} users):",
        uf.rows()
    );
    println!("  sum-trick: {fast_t:.4} s   naive: {naive_t:.4} s   speedup {:.0}×   max |Δ| = {max_diff:.2e}",
        naive_t / fast_t.max(1e-12));
    println!("\nexpected shape (paper): extra inner steps trade wall-clock time for at");
    println!("most marginal accuracy (the paper picks 1 step per subproblem for speed);");
    println!("removing the line search destroys training; bias ≈ baseline (Section");
    println!("IV-A's finding); the sum-trick is orders of magnitude faster and");
    println!("numerically identical.");
}
