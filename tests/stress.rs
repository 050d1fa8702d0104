//! Larger-state-space sanity: the analyses stay correct and tractable on
//! models well beyond the paper's 5–13-state examples.

use mrmc::{CheckOptions, ModelChecker};
use mrmc_ctmc::bscc::SccDecomposition;
use mrmc_ctmc::steady::SteadyStateAnalysis;
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_numerics::baseline;
use mrmc_sparse::solver::SolverOptions;

#[test]
fn cluster_200_states_full_checker_pass() {
    // N = 4 → 200 states.
    let config = ClusterConfig::new(4);
    let m = cluster(&config);
    assert_eq!(m.num_states(), 200);
    let start = config.all_up();

    let checker = ModelChecker::new(m, CheckOptions::new());

    // Steady state: premium service is the common case.
    let out = checker.check_str("S(> 0.9) (premium)").unwrap();
    assert!(out.holds_in(start));
    let p = out.probabilities().unwrap();
    assert!(p[start] > 0.9 && p[start] <= 1.0);

    // Time-bounded until: losing minimum QoS within a week is rare.
    let out = checker
        .check_str("P(< 0.05) [minimum U[0,168] down]")
        .unwrap();
    assert!(out.holds_in(start));

    // Interval-time until through the two-phase method.
    let out = checker.check_str("P(< 0.5) [TT U[24,168] down]").unwrap();
    let p = out.probabilities().unwrap();
    assert!((0.0..=1.0).contains(&p[start]));
}

#[test]
fn cluster_unbounded_reachability_is_certain() {
    // The repair unit keeps the chain irreducible: `down` is eventually
    // reached from everywhere, and so is `premium`. The chain is stiff
    // (failures are ~200× slower than repairs): the direct solve does not
    // mind, but a Gauss–Seidel fallback would need a bigger iteration
    // budget than the defaults.
    let config = ClusterConfig::new(3);
    let m = cluster(&config);
    let phi = vec![true; m.num_states()];
    let solver = SolverOptions::new()
        .with_max_iterations(3_000_000)
        .with_tolerance(1e-10);
    for target in ["down", "premium"] {
        let psi = m.labeling().states_with(target);
        let embedded = m.ctmc().embedded_dtmc();
        let r = mrmc_ctmc::reach::until_unbounded(embedded.probabilities(), &phi, &psi, solver)
            .unwrap();
        for (s, &p) in r.iter().enumerate() {
            assert!(p > 1.0 - 1e-4, "{target} from state {s}: {p}");
        }
    }
}

#[test]
fn random_500_state_model_analyses() {
    let cfg = RandomMrmConfig {
        states: 500,
        extra_transitions_per_state: 3.0,
        max_rate: 4.0,
        reward_levels: vec![0.0, 1.0, 2.0],
        impulse_levels: vec![0.0, 1.0],
        goal_fraction: 0.1,
    };
    let m = random_mrm(2024, &cfg);

    // BSCC decomposition partitions the state space.
    let scc = SccDecomposition::new(m.ctmc().rates());
    let mut seen = vec![false; 500];
    for c in 0..scc.num_components() {
        for &s in scc.component(c) {
            assert!(!seen[s], "state {s} in two components");
            seen[s] = true;
        }
    }
    assert!(seen.iter().all(|&b| b));

    // Steady-state distribution from state 0 sums to one.
    let analysis = SteadyStateAnalysis::new(m.ctmc(), SolverOptions::new()).unwrap();
    let d = analysis.distribution_from(0);
    let total: f64 = d.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "total {total}");

    // Time-bounded until over all 500 states at once.
    let phi = vec![true; 500];
    let psi = m.labeling().states_with("goal");
    let probs = baseline::until_time_bounded(&m, &phi, &psi, 1.0, 1e-9).unwrap();
    for &p in &probs {
        assert!((0.0..=1.0).contains(&p));
    }
    // The spanning chain guarantees goal states are reachable from 0.
    assert!(probs[0] > 0.0);
}

#[test]
fn cluster_steady_state_matches_across_solvers() {
    // Gauss–Seidel-based chain analysis vs power iteration on the
    // uniformized chain, on a 128-state cluster.
    let config = ClusterConfig::new(3);
    let m = cluster(&config);
    let pi_gs =
        mrmc_ctmc::steady::steady_state_strongly_connected(m.ctmc(), SolverOptions::new()).unwrap();
    let (uni, _) = m.ctmc().uniformized(None).unwrap();
    let start = vec![1.0 / m.num_states() as f64; m.num_states()];
    let pi_pw =
        mrmc_sparse::solver::power_iteration(uni.probabilities(), &start, SolverOptions::new())
            .unwrap();
    for (s, (a, b)) in pi_gs.iter().zip(&pi_pw).enumerate() {
        assert!((a - b).abs() < 1e-7, "state {s}: {a} vs {b}");
    }
}
