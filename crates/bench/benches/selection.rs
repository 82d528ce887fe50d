//! End-to-end seed-selection benchmarks: the DM / RW / RS engines per
//! score, plus the sketch and scoring building blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use vom_core::rs::RsConfig;
use vom_core::rw::RwConfig;
use vom_core::{Engine, Problem, SeedSelector, SelectionMode};
use vom_datasets::{twitter_mask_like, yelp_like, ReplicaParams};
use vom_sketch::SketchSet;
use vom_voting::ScoringFunction;

fn engines_cumulative(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.0005, 3));
    let problem = Problem::new(&ds.instance, 0, 10, 20, ScoringFunction::Cumulative).unwrap();
    let mut group = c.benchmark_group("select_cumulative_k10");
    group.sample_size(10);
    group.bench_function("DM", |b| {
        b.iter(|| {
            std::hint::black_box(
                Engine::Dm
                    .select_once(&problem, SelectionMode::Plain)
                    .unwrap()
                    .seeds,
            )
        })
    });
    group.bench_function("RW", |b| {
        b.iter(|| {
            let m = Engine::Rw(RwConfig::default());
            std::hint::black_box(m.select_once(&problem, SelectionMode::Plain).unwrap().seeds)
        })
    });
    group.bench_function("RS", |b| {
        b.iter(|| {
            let m = Engine::Rs(RsConfig::default());
            std::hint::black_box(m.select_once(&problem, SelectionMode::Plain).unwrap().seeds)
        })
    });
    group.finish();
}

fn engines_plurality(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.0005, 3));
    let problem = Problem::new(&ds.instance, 0, 10, 20, ScoringFunction::Plurality).unwrap();
    let mut group = c.benchmark_group("select_plurality_k10");
    group.sample_size(10);
    group.bench_function("RW", |b| {
        b.iter(|| {
            let m = Engine::Rw(RwConfig {
                max_lambda: 150,
                gamma_floor: 0.1,
                ..RwConfig::default()
            });
            std::hint::black_box(m.select_once(&problem, SelectionMode::Plain).unwrap().seeds)
        })
    });
    group.bench_function("RS", |b| {
        b.iter(|| {
            let m = Engine::Rs(RsConfig::default());
            std::hint::black_box(m.select_once(&problem, SelectionMode::Plain).unwrap().seeds)
        })
    });
    group.finish();
}

fn scoring(c: &mut Criterion) {
    let ds = yelp_like(&ReplicaParams::at_scale(0.002, 3));
    let b = ds.instance.opinions_at(20, 0, &[1, 2, 3]);
    let mut group = c.benchmark_group("score_evaluation_r10");
    for score in [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::PApproval { p: 3 },
        ScoringFunction::Copeland,
    ] {
        group.bench_function(score.to_string(), |bch| {
            bch.iter(|| std::hint::black_box(score.score(&b, 0)))
        });
    }
    group.finish();
}

fn sketch_building(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.001, 3));
    let cand = ds.instance.candidate(0);
    let mut group = c.benchmark_group("sketch_generate");
    group.sample_size(10);
    for theta in [1024usize, 8192] {
        group.bench_function(format!("theta_{theta}"), |b| {
            b.iter(|| {
                let s = SketchSet::generate(
                    &cand.graph,
                    &cand.stubbornness,
                    &cand.initial,
                    20,
                    theta,
                    5,
                );
                std::hint::black_box(s.theta())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    engines_cumulative,
    engines_plurality,
    scoring,
    sketch_building
);
criterion_main!(benches);
