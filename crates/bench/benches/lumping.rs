//! Cost of the lumpability pipeline: partition refinement ([`analyze`]),
//! independent certificate re-validation ([`LumpingCertificate::verify`]),
//! and quotient construction, on the shipped case studies and on seeded
//! random models of growing size. The point of the numbers: refinement is
//! the expensive half, verification stays `O(m)`-cheap, so re-checking a
//! certificate before trusting it costs next to nothing.
//!
//! [`analyze`]: mrmc_analysis::lumping::analyze
//! [`LumpingCertificate::verify`]: mrmc_analysis::lumping::LumpingCertificate::verify

use mrmc_analysis::lumping::analyze;
use mrmc_bench::harness::{black_box, Criterion};
use mrmc_bench::{criterion_group, criterion_main};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_mrm::transform;

fn bench_case_studies(c: &mut Criterion) {
    let cases = [
        ("tmr_pure_ap", tmr(&TmrConfig::classic()), "Sup"),
        ("tmr_steady", tmr(&TmrConfig::classic()), "S(> 0.9) (Sup)"),
        (
            "cluster4_pure_ap",
            cluster(&ClusterConfig::new(4)),
            "premium",
        ),
        (
            "cluster4_until",
            cluster(&ClusterConfig::new(4)),
            "P(>= 0.1) [TT U[0,1] down]",
        ),
        // 2312 states: refinement at a size where signing only what a
        // round's moves changed (the predecessors of moved states, and
        // moved states with a successor left in their old block) matters.
        (
            "cluster16_until",
            cluster(&ClusterConfig::new(16)),
            "P(>= 0.1) [TT U[0,1] down]",
        ),
    ];

    let mut group = c.benchmark_group("lumping_analyze");
    group.sample_size(20);
    for (name, mrm, formula) in &cases {
        let phi = mrmc_csrl::parse(formula).unwrap();
        group.bench_function(*name, |b| {
            b.iter(|| black_box(analyze(mrm, &phi)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("lumping_verify_and_quotient");
    group.sample_size(20);
    for (name, mrm, formula) in &cases {
        let phi = mrmc_csrl::parse(formula).unwrap();
        let Some(cert) = analyze(mrm, &phi).certificate else {
            continue; // identity partition: nothing to certify or build
        };
        group.bench_function(format!("verify_{name}"), |b| {
            b.iter(|| cert.verify(black_box(mrm)).unwrap());
        });
        group.bench_function(format!("quotient_{name}"), |b| {
            b.iter(|| transform::quotient(black_box(mrm), &cert.partition).unwrap());
        });
    }
    group.finish();
}

fn bench_random_scaling(c: &mut Criterion) {
    let phi = mrmc_csrl::parse("goal").unwrap();
    let mut group = c.benchmark_group("lumping_random_scaling");
    group.sample_size(10);
    for states in [64, 256, 1024] {
        let config = RandomMrmConfig {
            states,
            ..RandomMrmConfig::default()
        };
        let mrm = random_mrm(7, &config);
        group.bench_function(format!("analyze_n={states}"), |b| {
            b.iter(|| black_box(analyze(&mrm, &phi)));
        });
        if let Some(cert) = analyze(&mrm, &phi).certificate {
            group.bench_function(format!("verify_n={states}"), |b| {
                b.iter(|| cert.verify(black_box(&mrm)).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_case_studies, bench_random_scaling);
criterion_main!(benches);
