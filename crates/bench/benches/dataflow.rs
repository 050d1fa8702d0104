//! Before/after evidence for qualitative slicing: every case runs twice,
//! once with slicing disabled (`dataflow_baseline` group) and once with
//! the default pre-pass on (`dataflow` group), under identical benchmark
//! ids. The paired `BENCH_dataflow_baseline.json` / `BENCH_dataflow.json`
//! snapshots then show the pruning directly in the embedded work
//! counters, not just in wall time:
//!
//! * `tmr_gs_tt_u_failed` / `cluster4_gs_tt_u_down` — unbounded untils on
//!   irreducible repair models, where Prob1 proves *every* state
//!   certain-one and the Eq. 3.8 linear solve (`solver_solves`)
//!   disappears entirely (the ids keep the name of the Gauss–Seidel
//!   solve the unsliced run used before the direct solver replaced it);
//! * `cluster4_grid_premium_u_down` — a time/reward-bounded until whose
//!   invariant cannot hold all the way to the goal (premium service never
//!   degrades straight to `down`), so Prob0 marks every `premium` start
//!   certain-zero. The discretization engine runs one backward sweep for
//!   all states either way (`grid_runs` 1), so the sliced run only skips
//!   reading the certain-zero states;
//! * `cluster4_uniform_premium_u_down` — the same formula under the
//!   default uniformization engine, where the sliced invariant empties
//!   and the path exploration (`nodes_explored`) shrinks to
//!   the goal states.

use mrmc::{CheckOptions, ModelChecker, UntilEngine};
use mrmc_bench::harness::{black_box, Criterion};
use mrmc_bench::{criterion_group, criterion_main};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_mrm::Mrm;

/// The shared case list: id, model, formula, per-case engine options.
fn cases() -> Vec<(&'static str, Mrm, &'static str, CheckOptions)> {
    let tmr = tmr(&TmrConfig::classic());
    let cluster = cluster(&ClusterConfig::new(4));
    vec![
        (
            "tmr_gs_tt_u_failed",
            tmr,
            "P(> 0.1) [TT U failed]",
            CheckOptions::new(),
        ),
        (
            "cluster4_gs_tt_u_down",
            cluster.clone(),
            "P(> 0.1) [TT U down]",
            CheckOptions::new(),
        ),
        (
            "cluster4_grid_premium_u_down",
            cluster.clone(),
            "P(> 0.001) [premium U[0,1][0,4] down]",
            CheckOptions::new().with_engine(UntilEngine::discretization(0.1)),
        ),
        (
            "cluster4_uniform_premium_u_down",
            cluster,
            "P(> 0.001) [premium U[0,1][0,4] down]",
            CheckOptions::new(),
        ),
    ]
}

fn run_group(c: &mut Criterion, group_name: &str, slicing: bool) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (id, mrm, formula, options) in cases() {
        let options = if slicing {
            options
        } else {
            options.without_slicing()
        };
        let checker = ModelChecker::new(mrm, options);
        let parsed = mrmc_csrl::parse(formula).unwrap();
        group.bench_function(id, |b| {
            b.iter(|| black_box(checker.check(black_box(&parsed)).unwrap()));
        });
    }
    group.finish();
}

fn bench_dataflow(c: &mut Criterion) {
    run_group(c, "dataflow_baseline", false);
    run_group(c, "dataflow", true);
}

criterion_group!(benches, bench_dataflow);
criterion_main!(benches);
