//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * literal (thesis) vs potential-based pruning in DFPG;
//! * the uniformization-rate choice (`Λ = max E` vs `1.02 · max E`);
//! * the engine comparison on the same query (uniformization vs
//!   discretization vs the state-reward-free baseline that ignores the
//!   reward bound).

use mrmc_bench::harness::Criterion;
use mrmc_bench::tables::{thesis_lambda, tmr_dependability_sets};
use mrmc_bench::{criterion_group, criterion_main};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_numerics::baseline;
use mrmc_numerics::discretization::{self, DiscretizationOptions};
use mrmc_numerics::uniformization::{until_probability, UniformOptions};

fn bench_pruning(c: &mut Criterion) {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let (phi, psi) = tmr_dependability_sets(&m);
    let lambda = thesis_lambda(&m, &phi, &psi);
    let start = config.state_with_working(3);

    let mut group = c.benchmark_group("ablation_pruning_rule");
    group.sample_size(10);
    group.bench_function("literal_t=400_w=1e-11", |b| {
        b.iter(|| {
            until_probability(
                &m,
                &phi,
                &psi,
                400.0,
                3000.0,
                start,
                UniformOptions::new()
                    .with_truncation(1e-11)
                    .with_lambda(lambda),
            )
            .unwrap()
            .probability
        });
    });
    group.bench_function("potential_t=400_w=1e-11", |b| {
        b.iter(|| {
            until_probability(
                &m,
                &phi,
                &psi,
                400.0,
                3000.0,
                start,
                UniformOptions::new()
                    .with_truncation(1e-11)
                    .with_lambda(lambda)
                    .with_improved_pruning(),
            )
            .unwrap()
            .probability
        });
    });
    group.finish();
}

fn bench_lambda_choice(c: &mut Criterion) {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let (phi, psi) = tmr_dependability_sets(&m);
    let lambda = thesis_lambda(&m, &phi, &psi);
    let start = config.state_with_working(3);

    let mut group = c.benchmark_group("ablation_lambda_choice");
    group.sample_size(10);
    group.bench_function("max_exit", |b| {
        b.iter(|| {
            until_probability(
                &m,
                &phi,
                &psi,
                300.0,
                3000.0,
                start,
                UniformOptions::new()
                    .with_truncation(1e-9)
                    .with_lambda(lambda),
            )
            .unwrap()
            .probability
        });
    });
    group.bench_function("slack_1.02", |b| {
        b.iter(|| {
            until_probability(
                &m,
                &phi,
                &psi,
                300.0,
                3000.0,
                start,
                UniformOptions::new().with_truncation(1e-9),
            )
            .unwrap()
            .probability
        });
    });
    group.finish();
}

fn bench_engine_comparison(c: &mut Criterion) {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let (phi, psi) = tmr_dependability_sets(&m);
    let lambda = thesis_lambda(&m, &phi, &psi);
    let start = config.state_with_working(3);

    let mut group = c.benchmark_group("ablation_engine_comparison_t=100");
    group.sample_size(10);
    group.bench_function("uniformization_w=1e-8", |b| {
        b.iter(|| {
            until_probability(
                &m,
                &phi,
                &psi,
                100.0,
                3000.0,
                start,
                UniformOptions::new()
                    .with_truncation(1e-8)
                    .with_lambda(lambda),
            )
            .unwrap()
            .probability
        });
    });
    group.bench_function("discretization_d=0.25", |b| {
        b.iter(|| {
            discretization::until_probability(
                &m,
                &phi,
                &psi,
                100.0,
                3000.0,
                start,
                DiscretizationOptions::with_step(0.25),
            )
            .unwrap()
            .probability
        });
    });
    group.bench_function("baseline_no_reward_bound", |b| {
        b.iter(|| baseline::until_time_bounded(&m, &phi, &psi, 100.0, 1e-10).unwrap()[start]);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pruning,
    bench_lambda_choice,
    bench_engine_comparison
);
criterion_main!(benches);
