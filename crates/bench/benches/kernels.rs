//! Scaling benches for the numerical kernels underneath the engines:
//! Poisson layers, the Omega recursion, sparse matrix–vector products,
//! BSCC decomposition, the Eq. 3.8 solvers and the choice between them,
//! certified lumping, the discretization grid sweep at the paper's
//! parameters, and whole-engine scaling on the breakdown queue.
//!
//! All benchmarks share the single group `kernels`, so one snapshot file
//! (`BENCH_kernels.json` at the repository root) captures the whole kernel
//! layer; ids are namespaced `section/benchmark/param`.

use mrmc_analysis::lumping;
use mrmc_bench::harness::{BenchmarkId, Criterion};
use mrmc_bench::{criterion_group, criterion_main};
use mrmc_ctmc::bscc::SccDecomposition;
use mrmc_ctmc::poisson::{pmf, FoxGlynn};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::phone;
use mrmc_models::queue::{queue, QueueConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_numerics::discretization::{until_probabilities_all, DiscretizationOptions};
use mrmc_numerics::omega::OmegaEvaluator;
use mrmc_numerics::uniformization::{until_probability, UniformOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    // Poisson layers.
    group.sample_size(10);
    for lt in [5.0, 50.0, 500.0] {
        group.bench_with_input(BenchmarkId::new("poisson/fox_glynn", lt), &lt, |b, &lt| {
            b.iter(|| FoxGlynn::new(lt, 1e-10).weights().len());
        });
        group.bench_with_input(
            BenchmarkId::new("poisson/log_pmf_100", lt),
            &lt,
            |b, &lt| {
                b.iter(|| (0..100u64).map(|n| pmf(lt, n)).sum::<f64>());
            },
        );
    }

    // The Omega recursion (Alg. 4.8).
    group.sample_size(20);
    for n in [8u32, 16, 32] {
        group.bench_with_input(BenchmarkId::new("omega/cold_cache", n), &n, |b, &n| {
            b.iter(|| {
                let mut o = OmegaEvaluator::new(vec![5.0, 3.0, 1.0, 0.0]).unwrap();
                o.evaluate(1.7, &[n / 4, n / 4, n / 4, n / 4])
            });
        });
        group.bench_with_input(BenchmarkId::new("omega/warm_cache", n), &n, |b, &n| {
            let mut o = OmegaEvaluator::new(vec![5.0, 3.0, 1.0, 0.0]).unwrap();
            let counts = [n / 4, n / 4, n / 4, n / 4];
            o.evaluate(1.7, &counts);
            b.iter(|| o.evaluate(1.7, &counts));
        });
    }

    // Sparse matrix–vector products and BSCC decomposition.
    group.sample_size(20);
    for states in [100usize, 1000] {
        let cfg = RandomMrmConfig {
            states,
            extra_transitions_per_state: 3.0,
            ..RandomMrmConfig::default()
        };
        let m = random_mrm(42, &cfg);
        let rates = m.ctmc().rates().clone();
        let x = vec![1.0 / states as f64; states];
        group.bench_with_input(BenchmarkId::new("graph/vec_mul", states), &rates, |b, r| {
            b.iter(|| r.vec_mul(&x));
        });
        group.bench_with_input(BenchmarkId::new("graph/mul_vec", states), &rates, |b, r| {
            b.iter(|| r.mul_vec(&x));
        });
        group.bench_with_input(BenchmarkId::new("graph/bscc", states), &rates, |b, r| {
            b.iter(|| SccDecomposition::new(r).num_components());
        });
    }

    // Whole-engine scaling on the breakdown queue.
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        let config = QueueConfig::new(k);
        let m = queue(&config);
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("full");
        let start = config.up_state(0);
        group.bench_with_input(BenchmarkId::new("queue/uniformization", k), &k, |b, _| {
            b.iter(|| {
                until_probability(
                    &m,
                    &phi,
                    &psi,
                    2.0,
                    25.0,
                    start,
                    UniformOptions::new().with_truncation(1e-7),
                )
                .unwrap()
                .probability
            });
        });
    }

    // The discretization grid sweep (Algorithm 4.6) for every start state,
    // Richardson companion included: Table 5.1 on the phone model at
    // d = 1/16 and 1/64, and Table 5.8 on TMR(3) at t = 200.
    group.sample_size(10);
    {
        let m = phone::phone();
        let phi: Vec<bool> = (0..m.num_states())
            .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
            .collect();
        let psi = m.labeling().states_with("Call_Initiated");
        for inv_d in [16u32, 64] {
            let options = DiscretizationOptions::with_step(1.0 / f64::from(inv_d));
            group.bench_with_input(BenchmarkId::new("grid/phone_5_1", inv_d), &(), |b, _| {
                b.iter(|| until_probabilities_all(&m, &phi, &psi, 24.0, 600.0, options).unwrap());
            });
        }
        let m = tmr(&TmrConfig::classic());
        let phi = m.labeling().states_with("Sup");
        let psi = m.labeling().states_with("failed");
        let options = DiscretizationOptions::with_step(0.25);
        group.bench_with_input(BenchmarkId::new("grid/tmr_5_8", 200), &(), |b, _| {
            b.iter(|| until_probabilities_all(&m, &phi, &psi, 200.0, 3000.0, options).unwrap());
        });
    }

    // Whole-pipeline scaling on the cluster model: steady state and the
    // reward-blind baseline until, across state-space sizes.
    group.sample_size(10);
    for n in [2usize, 4, 8] {
        let config = ClusterConfig::new(n);
        let m = cluster(&config);
        let states = m.num_states();
        let phi = vec![true; states];
        let psi = m.labeling().states_with("down");
        group.bench_with_input(
            BenchmarkId::new("cluster/baseline_until_t24", states),
            &m,
            |b, m| {
                b.iter(|| {
                    mrmc_numerics::baseline::until_time_bounded(m, &phi, &psi, 24.0, 1e-9).unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cluster/steady_state", states),
            &m,
            |b, m| {
                b.iter(|| {
                    mrmc_ctmc::steady::steady_state_strongly_connected(
                        m.ctmc(),
                        mrmc_sparse::solver::SolverOptions::new().with_tolerance(1e-9),
                    )
                    .unwrap()
                });
            },
        );
    }

    // Gauss–Seidel on the unbounded-reachability system of the largest
    // cluster instance above: the iterative fallback of Eq. 3.8.
    group.sample_size(10);
    {
        let m = cluster(&ClusterConfig::new(8));
        let embedded = m.ctmc().embedded_dtmc();
        // Φ-constrained until: the substochastic system `P[backbone_up U
        // down]` (paths leaving Φ are losses), which keeps the iteration
        // matrix a strict contraction.
        let phi = m.labeling().states_with("backbone_up");
        let psi = m.labeling().states_with("down");
        let system = mrmc_ctmc::reach::until_system(embedded.probabilities(), &phi, &psi).unwrap();
        let start = vec![0.0; system.states.len()];
        group.bench_with_input(BenchmarkId::new("solver/plain_gs", 1usize), &(), |b, _| {
            b.iter(|| {
                mrmc_sparse::solver::gauss_seidel(
                    &system.matrix,
                    &system.rhs,
                    &start,
                    mrmc_sparse::solver::SolverOptions::new().with_tolerance(1e-9),
                )
                .unwrap()
            });
        });
    }

    // The direct Eq. 3.8 solve (banded LU plus its error certificate),
    // end to end from the embedded DTMC, for `minimum U !backbone_up` —
    // one of the cluster-analysis benchmark's unbounded untils.
    for n in [2usize, 8, 32] {
        let m = cluster(&ClusterConfig::new(n));
        let embedded = m.ctmc().embedded_dtmc();
        let phi = m.labeling().states_with("minimum");
        let psi: Vec<bool> = m
            .labeling()
            .states_with("backbone_up")
            .into_iter()
            .map(|up| !up)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("solver/reach_direct", m.num_states()),
            &(),
            |b, _| {
                b.iter(|| {
                    mrmc_ctmc::reach::until_unbounded_certified(
                        embedded.probabilities(),
                        &phi,
                        &psi,
                        &psi,
                        mrmc_sparse::solver::SolverOptions::new(),
                    )
                    .unwrap()
                });
            },
        );
    }

    // The choice between the two Eq. 3.8 solvers, on seeded random chains
    // either side of `reach::DIRECT_WORK_PER_NONZERO`: the 250-state
    // system's elimination takes about 5·10³ steps per nonzero and is
    // solved directly, the 600-state one's about 2.4·10⁴, and Gauss–Seidel
    // solves it (`solver_iterations` tells the two apart).
    for states in [250usize, 600] {
        let cfg = RandomMrmConfig {
            states,
            extra_transitions_per_state: 2.0,
            max_rate: 4.0,
            reward_levels: vec![0.0],
            impulse_levels: vec![0.0],
            goal_fraction: 0.05,
        };
        let m = random_mrm(0, &cfg);
        let embedded = m.ctmc().embedded_dtmc();
        let phi = vec![true; states];
        let psi = m.labeling().states_with("goal");
        group.bench_with_input(
            BenchmarkId::new("solver/reach_random", states),
            &(),
            |b, _| {
                b.iter(|| {
                    mrmc_ctmc::reach::until_unbounded_certified(
                        embedded.probabilities(),
                        &phi,
                        &psi,
                        &psi,
                        mrmc_sparse::solver::SolverOptions::new(),
                    )
                    .unwrap()
                });
            },
        );
    }

    // A certificate-cache miss of the lumping layer on the cluster-analysis
    // model: refinement plus quotient (`lumping::certify`, the checker's
    // entry point) and the independent re-verification.
    let m = cluster(&ClusterConfig::new(32));
    for (name, formula) in [
        ("premium", "S(> 0.5) (premium)"),
        ("backbone_up_down", "P(> 0.5) [backbone_up U down]"),
    ] {
        let phi = mrmc_csrl::parse(formula).unwrap();
        group.bench_with_input(BenchmarkId::new("lumping/cluster32", name), &(), |b, _| {
            b.iter(|| {
                let cert = lumping::certify(&m, &phi).expect("the cluster model lumps");
                cert.verify(&m).unwrap();
                cert.quotient.num_states()
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
