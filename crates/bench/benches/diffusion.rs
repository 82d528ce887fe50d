//! Microbenchmarks for the exact FJ solver (the DM building block):
//! cold fixed-horizon solves, as every DM greedy iteration's baseline
//! recording runs them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use vom_datasets::{twitter_mask_like, ReplicaParams};
use vom_diffusion::{SolveOptions, Solver};

fn fj_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fj_solve");
    group.sample_size(20);
    for scale in [0.0005, 0.001, 0.002] {
        let ds = twitter_mask_like(&ReplicaParams::at_scale(scale, 3));
        let mut solver = Solver::new(Arc::clone(ds.instance.candidate(0).system()));
        let n = ds.instance.num_nodes();
        group.bench_with_input(BenchmarkId::new("t20", n), &n, |b, _| {
            b.iter(|| {
                solver.solve(&[0, 1, 2], &SolveOptions::exact(20), None);
                std::hint::black_box(solver.opinions()[0])
            });
        });
    }
    group.finish();
}

fn horizon_scaling(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.001, 3));
    let mut solver = Solver::new(Arc::clone(ds.instance.candidate(0).system()));
    let mut group = c.benchmark_group("fj_horizon_scaling");
    group.sample_size(20);
    for t in [5usize, 10, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                solver.solve(&[7], &SolveOptions::exact(t), None);
                std::hint::black_box(solver.opinions()[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fj_iteration, horizon_scaling);
criterion_main!(benches);
