//! **Figure 8** — distance to optimal training likelihood versus time:
//! sequential ("CPU") versus the simulated massively-parallel engine
//! ("GPU").
//!
//! Paper result: the CUDA implementation reaches the same training
//! accuracy 57× faster than the C++/boost CPU implementation on Netflix
//! with K = 200. Our substitute runs the paper's kernel
//! decomposition on host threads, so the *shape* reproduces — identical
//! final likelihood, parallel trace strictly left of the sequential one —
//! with the speedup bounded by host cores instead of 57×.
//!
//! Also prints the §VI memory-footprint model for the run and for the
//! paper's Netflix/K=200 worked example.
//!
//! Usage: `cargo run -p ocular-bench --release --bin figure8 --
//!   [--scale …] [--seed S] [--k 32] [--sweeps 12] [--csv]`

use ocular_bench::{Args, TextTable};
use ocular_core::{fit, OcularConfig};
use ocular_datasets::profiles;
use ocular_parallel::memory::paper_netflix_example;
use ocular_parallel::{fit_parallel, speedup_at_threshold, MemoryModel, TimedTrace};

fn main() {
    let args = Args::parse();
    let seed = args.seed();
    let k = args.get("k", 32usize);
    let sweeps = args.get("sweeps", 12usize);
    let data = profiles::netflix_like(args.scale(), seed);
    let cfg = OcularConfig {
        k,
        lambda: 0.5,
        max_iters: sweeps,
        tol: 0.0,
        seed,
        ..Default::default()
    };

    println!(
        "Figure 8 — likelihood vs time, sequential vs parallel (Netflix-like, {} positives, K={k})\n",
        data.matrix.nnz()
    );

    eprintln!("[figure8] sequential (CPU reference) training…");
    let cpu = fit(&data.matrix, &cfg);
    eprintln!("[figure8] parallel (simulated GPU) training…");
    let gpu = fit_parallel(&data.matrix, &cfg, None);
    assert_eq!(
        cpu.model, gpu.model,
        "the parallel engine must reach the identical model"
    );

    let cpu_trace = TimedTrace::from_history(&cpu.history);
    let gpu_trace = TimedTrace::from_history(&gpu.history);
    let q_opt = cpu_trace.best().min(gpu_trace.best());

    let mut table = TextTable::new([
        "sweep",
        "CPU time (s)",
        "GPU-sim time (s)",
        "distance to optimal",
    ]);
    let cpu_d = cpu_trace.distance_to(q_opt);
    for (i, d) in cpu_d.iter().enumerate() {
        table.row([
            i.to_string(),
            format!("{:.3}", cpu_trace.seconds[i]),
            format!("{:.3}", gpu_trace.seconds[i]),
            format!("{d:.1}"),
        ]);
    }
    println!("{}", table.render());

    for gap in [1e-2, 1e-3, 1e-4] {
        match speedup_at_threshold(&cpu_trace, &gpu_trace, gap) {
            Some(s) => println!("speedup at relative gap {gap:.0e}: {s:.1}×"),
            None => println!("speedup at relative gap {gap:.0e}: target not reached"),
        }
    }
    let threads = ocular_parallel::threads();
    println!("(host parallelism: {threads} threads — the paper's GPU reached 57×)\n");

    let here = MemoryModel::host_f64(
        data.matrix.nnz(),
        data.matrix.n_rows(),
        data.matrix.n_cols(),
        k,
    );
    let paper = paper_netflix_example();
    println!("§VI memory model:");
    println!(
        "  this run:          {:>10.3} MB (training data {:.1} MB, factors {:.1} MB, gradients {:.1} MB)",
        here.total_bytes() as f64 / 1e6,
        here.training_data_bytes() as f64 / 1e6,
        here.factor_bytes() as f64 / 1e6,
        here.gradient_bytes() as f64 / 1e6
    );
    println!(
        "  paper Netflix/K=200: {:>8.2} GB (paper reports ≈2.7 GB; fits 12 GB GPU: {})",
        paper.total_bytes() as f64 / 1e9,
        paper.fits_in_gb(12.0)
    );

    if args.flag("csv") {
        println!("# CPU\n{}", cpu_trace.to_csv());
        println!("# GPU-sim\n{}", gpu_trace.to_csv());
    }
}
