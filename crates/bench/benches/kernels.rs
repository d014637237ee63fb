//! Criterion microbenches of the computational kernels: the sum-trick vs
//! naive negative sums, the objective via sum-trick vs naive evaluation,
//! gradient computation, and the simulated GPU reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocular_core::gradient::{negative_sum, negative_sum_naive, LocalProblem, PosWeights};
use ocular_core::loss::{objective, objective_naive, user_weights};
use ocular_core::model::FactorModel;
use ocular_core::Weighting;
use ocular_datasets::planted::{generate, PlantedConfig};
use ocular_linalg::ops::{self, block_dot};
use ocular_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn setup(k: usize) -> (ocular_sparse::Dataset, Matrix, Matrix) {
    let d = generate(&PlantedConfig {
        n_users: 400,
        n_items: 300,
        k: 6,
        users_per_cluster: 80,
        items_per_cluster: 60,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(1);
    let mut uf = Matrix::zeros(400, k);
    let mut itf = Matrix::zeros(300, k);
    for v in uf.as_mut_slice().iter_mut().chain(itf.as_mut_slice()) {
        *v = rng.gen::<f64>() * 0.5;
    }
    (d.matrix, uf, itf)
}

fn bench_negative_sum(c: &mut Criterion) {
    let (r, uf, _) = setup(16);
    let rt = r.item_view();
    let sums = uf.column_sums();
    let mut buf = vec![0.0; 16];
    let mut group = c.benchmark_group("negative_sum");
    group.bench_function("sum_trick_all_items", |b| {
        b.iter(|| {
            for i in 0..rt.n_rows() {
                negative_sum(&uf, &sums, rt.row(i), &mut buf);
            }
            black_box(buf[0])
        })
    });
    group.bench_function("naive_all_items", |b| {
        b.iter(|| {
            for i in 0..rt.n_rows() {
                negative_sum_naive(&uf, rt.row(i), &mut buf);
            }
            black_box(buf[0])
        })
    });
    group.finish();
}

fn bench_objective(c: &mut Criterion) {
    let (r, uf, itf) = setup(16);
    let model = FactorModel::new(uf, itf, false);
    let w = user_weights(&r, Weighting::Absolute);
    let mut group = c.benchmark_group("objective");
    group.bench_function("sum_trick", |b| {
        b.iter(|| black_box(objective(&r, &model, 0.5, &w)))
    });
    group.bench_function("naive", |b| {
        b.iter(|| black_box(objective_naive(&r, &model, 0.5, &w)))
    });
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("item_gradient");
    for k in [8usize, 32, 128] {
        let (r, uf, itf) = setup(k);
        let rt = r.item_view();
        let sums = uf.column_sums();
        let weights = vec![1.0; r.n_rows()];
        let mut negsum = vec![0.0; k];
        let mut grad = vec![0.0; k];
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                for i in 0..rt.n_rows() {
                    negative_sum(&uf, &sums, rt.row(i), &mut negsum);
                    let problem = LocalProblem {
                        positives: rt.row(i),
                        other: &uf,
                        weights: PosWeights::PerEntity(&weights),
                        negsum: &negsum,
                        lambda: 0.5,
                        fixed_dim: None,
                    };
                    problem.gradient(itf.row(i), &mut grad);
                }
                black_box(grad[0])
            })
        });
    }
    group.finish();
}

fn bench_reduction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a: Vec<f64> = (0..256).map(|_| rng.gen()).collect();
    let b_: Vec<f64> = (0..256).map(|_| rng.gen()).collect();
    let mut group = c.benchmark_group("dot256");
    group.bench_function("scalar", |b| b.iter(|| black_box(ops::dot(&a, &b_))));
    group.bench_function("block_warp32", |b| {
        b.iter(|| black_box(block_dot(&a, &b_, 32)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_negative_sum,
    bench_objective,
    bench_gradient,
    bench_reduction
);
criterion_main!(benches);
