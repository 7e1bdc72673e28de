//! Microbenchmarks for FBDT construction and exhaustive small-function
//! conquest — the two circuit-learning paths of paper §IV-D.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cirlearn::fbdt::{build_fbdt, learn_exhaustive, FbdtConfig};
use cirlearn::sampling::seeded_rng;
use cirlearn::support::identify_supports;
use cirlearn::{Budget, LearnerConfig};
use cirlearn_oracle::generate;
use cirlearn_telemetry::Telemetry;

fn bench_fbdt_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("fbdt_build");
    group.sample_size(10);
    for &support in &[6usize, 10, 14] {
        group.bench_with_input(
            BenchmarkId::new("eco_cone", support),
            &support,
            |b, &sup| {
                let mut oracle = generate::eco_case_with_support(30, 1, sup, 5);
                let cfg = LearnerConfig::fast();
                let mut rng = seeded_rng(3);
                let info =
                    identify_supports(&mut oracle, &[0], &cfg.support_sampling, &mut rng).remove(0);
                b.iter(|| {
                    let mut rng = seeded_rng(4);
                    let (cover, stats) = build_fbdt(
                        &mut oracle,
                        0,
                        &info.support,
                        info.truth_ratio,
                        &FbdtConfig::fast(),
                        &Budget::unlimited(),
                        &mut rng,
                        &Telemetry::disabled(),
                    );
                    black_box((cover.sop.cubes().len(), stats.splits))
                });
            },
        );
    }
    group.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive_conquest");
    group.sample_size(10);
    for &k in &[8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut oracle = generate::eco_case_with_support(k + 4, 1, k, 9);
            let support: Vec<usize> = oracle.reveal().output_support(0);
            b.iter(|| {
                let mut rng = seeded_rng(5);
                let (cover, queries) = learn_exhaustive(&mut oracle, 0, &support, &mut rng);
                black_box((cover.sop.cubes().len(), queries))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fbdt_build, bench_exhaustive);
criterion_main!(benches);
