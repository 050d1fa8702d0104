//! The telemetry determinism contract, tested end to end: checking any
//! model with any recorder installed — the no-op sink, the in-memory
//! metrics aggregator, or the JSONL trace writer — yields outcomes
//! bit-for-bit identical to an uninstrumented run.
//!
//! This is the workspace's load-bearing guarantee that instrumentation is
//! observation-only (`mrmc-obs` crate docs): `CheckOutcome` derives
//! `PartialEq`, so the assertions below compare satisfying sets, unknown
//! sets, probabilities, error bounds, and full error budgets exactly.

use std::sync::Arc;

use mrmc::{CheckOptions, CheckOutcome, ModelChecker, UntilEngine};
use mrmc_mrm::Mrm;
use mrmc_obs::{JsonlTraceRecorder, MetricsRecorder, NullRecorder, ProfileNode, ProfileRecorder};

use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_models::wavelan::wavelan;

fn random_cfg() -> RandomMrmConfig {
    RandomMrmConfig {
        states: 6,
        extra_transitions_per_state: 1.0,
        max_rate: 2.0,
        reward_levels: vec![0.0, 1.0, 3.0],
        impulse_levels: vec![0.0, 0.5],
        goal_fraction: 0.3,
    }
}

fn check(mrm: &Mrm, formula: &str) -> CheckOutcome {
    let checker = ModelChecker::new(mrm.clone(), CheckOptions::new());
    checker
        .check_str(formula)
        .unwrap_or_else(|e| panic!("`{formula}` failed: {e}"))
}

/// A profile tree node's children must never account for more time than
/// the node itself, and self time is non-negative by construction.
fn assert_profile_invariants(node: &ProfileNode, ctx: &str) {
    let child_total: f64 = node.children.iter().map(|c| c.total_s).sum();
    assert!(
        child_total <= node.total_s + 1e-9,
        "{ctx}: phase `{}` children total {child_total} exceeds parent total {}",
        node.name,
        node.total_s
    );
    assert!(node.self_s >= 0.0, "{ctx}: negative self time");
    for child in &node.children {
        assert_profile_invariants(child, ctx);
    }
}

/// Check every formula on `mrm` five ways — uninstrumented, under the
/// null sink, under the metrics aggregator, under the wall-time profiler,
/// and under a trace writer — asserting bitwise-identical outcomes.
fn assert_recording_is_invisible(name: &str, mrm: &Mrm, formulas: &[&str]) {
    for (i, formula) in formulas.iter().enumerate() {
        let ctx = format!("model {name}, formula `{formula}`");
        let plain = check(mrm, formula);

        let nulled = mrmc_obs::with_recorder(Arc::new(NullRecorder), || check(mrm, formula));
        assert_eq!(plain, nulled, "null recorder changed the outcome: {ctx}");

        let metrics = Arc::new(MetricsRecorder::new());
        let metered = mrmc_obs::with_recorder(metrics.clone(), || check(mrm, formula));
        assert_eq!(
            plain, metered,
            "metrics recorder changed the outcome: {ctx}"
        );

        let profiler = Arc::new(ProfileRecorder::new());
        let profiled = mrmc_obs::with_recorder(profiler.clone(), || check(mrm, formula));
        assert_eq!(
            plain, profiled,
            "profile recorder changed the outcome: {ctx}"
        );
        // While we're here: the reconstructed tree is structurally
        // sound — engines always emit spans, and a child phase can
        // never out-total its parent.
        let report = profiler.report();
        assert!(!report.roots.is_empty(), "no spans recorded: {ctx}");
        for root in &report.roots {
            assert_profile_invariants(root, &ctx);
        }

        let path = std::env::temp_dir().join(format!(
            "mrmc-telemetry-{name}-{i}-{}.jsonl",
            std::process::id()
        ));
        let trace = Arc::new(JsonlTraceRecorder::create(&path).expect("create trace"));
        let traced = mrmc_obs::with_recorder(trace.clone(), || check(mrm, formula));
        drop(trace);
        assert_eq!(plain, traced, "trace recorder changed the outcome: {ctx}");

        // While we're here: the trace is well-formed JSONL with
        // consecutive sequence numbers.
        let text = std::fs::read_to_string(&path).expect("trace written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "empty trace: {ctx}");
        for (seq, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\":{seq},\"kind\":\"")) && line.ends_with('}'),
                "malformed trace line {seq} ({ctx}): {line}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn recording_never_changes_outcomes_on_the_paper_models() {
    let tmr_model = tmr(&TmrConfig::classic());
    assert_recording_is_invisible(
        "tmr",
        &tmr_model,
        &[
            "P(> 0.1) [TT U[0,1][0,10] failed]",
            "P(> 0.01) [allUp U[0,2] failed]",
            "S(> 0.5) (allUp)",
        ],
    );

    let cluster_model = cluster(&ClusterConfig::new(2));
    assert_recording_is_invisible(
        "cluster",
        &cluster_model,
        &[
            "P(>= 0.1) [TT U[0,1] down]",
            "P(>= 0.0) [backbone_up U[0,1][0,5] down]",
        ],
    );

    let wavelan_model = wavelan();
    assert_recording_is_invisible(
        "wavelan",
        &wavelan_model,
        &["P(> 0.01) [TT U[0,0.5][0,2] busy]", "S(> 0.1) (idle)"],
    );
}

#[test]
fn recording_never_changes_outcomes_on_random_models() {
    for seed in 0u64..8 {
        let m = random_mrm(seed, &random_cfg());
        assert_recording_is_invisible(
            &format!("random{seed}"),
            &m,
            &["P(< 0.5) [TT U[0,1][0,4] goal]", "goal"],
        );
    }
}

#[test]
fn omega_term_cache_reuses_tables_across_adaptive_runs() {
    use mrmc_numerics::adaptive::{uniformization_until, AdaptiveOptions};
    use mrmc_numerics::omega::{with_omega_cache, OmegaTermCache};
    use mrmc_numerics::uniformization::UniformOptions;

    let m = wavelan();
    let phi = m.labeling().states_with("idle");
    let psi = m.labeling().states_with("busy");

    let run = |eps: f64| {
        let metrics = Arc::new(MetricsRecorder::new());
        let res = mrmc_obs::with_recorder(metrics.clone(), || {
            uniformization_until(
                &m,
                &phi,
                &psi,
                2.0,
                2000.0,
                2,
                UniformOptions::new(),
                AdaptiveOptions::new(eps),
            )
            .expect("adaptive run")
        });
        (res, metrics.snapshot())
    };

    // Standalone runs: each driver call self-installs a fresh per-run cache.
    let (base_loose, _) = run(1e-3);
    let (base_tight, tight_alone) = run(1e-6);

    // One externally installed cache shared by both tolerances: the tight
    // run re-generates most of the loose run's path classes, so its Omega
    // requests hit the shared cache.
    let cache = Arc::new(OmegaTermCache::new());
    let (loose_shared, tight_shared) = with_omega_cache(cache.clone(), || (run(1e-3), run(1e-6)));
    let (shared_loose, _) = loose_shared;
    let (shared_tight, tight_shared_metrics) = tight_shared;

    // Caching is exact: outcomes are bit-identical to the uncached runs.
    assert_eq!(
        base_loose.probability.to_bits(),
        shared_loose.probability.to_bits()
    );
    assert_eq!(
        base_tight.probability.to_bits(),
        shared_tight.probability.to_bits()
    );
    assert_eq!(
        base_tight.budget.total().to_bits(),
        shared_tight.budget.total().to_bits()
    );

    // The warm run performed strictly fewer table computations than the
    // same tolerance standalone, and said so in the telemetry.
    assert!(
        tight_shared_metrics.omega_requests < tight_alone.omega_requests,
        "shared-cache run must compute fewer tables: {} vs {}",
        tight_shared_metrics.omega_requests,
        tight_alone.omega_requests
    );
    assert!(cache.hits() > 0, "shared cache saw no hits");
    assert!(
        tight_shared_metrics.counters[mrmc_obs::counters::OMEGA_CACHE_HITS] > 0,
        "{:?}",
        tight_shared_metrics.counters
    );
}

#[test]
fn metrics_reflect_the_work_the_engines_did() {
    // Not just invisible — the aggregator must actually see the engine
    // events: path exploration for uniformization, the span timers for
    // every phase.
    let m = tmr(&TmrConfig::classic());
    let checker = ModelChecker::new(m, CheckOptions::new());
    let metrics = Arc::new(MetricsRecorder::new());
    mrmc_obs::with_recorder(metrics.clone(), || {
        checker
            .check_str("P(> 0.1) [TT U[0,1][0,10] failed]")
            .unwrap();
    });
    let snap = metrics.snapshot();
    assert!(snap.paths_generated > 0, "{snap:?}");
    assert!(snap.nodes_explored >= snap.paths_generated, "{snap:?}");
    assert!(snap.phases.contains_key("engine"), "{snap:?}");
    assert!(snap.phases.contains_key("preflight"), "{snap:?}");
}

#[test]
fn merged_path_exploration_expands_fewer_groups_than_nodes() {
    // Table 5.4, t = 400: prefixes with identical subtrees merge into one
    // group, while `nodes_explored` still counts every path-tree node the
    // per-path depth-first search visited (463 070 from the fully
    // operational state).
    use mrmc_numerics::uniformization::{until_probability, UniformOptions};

    let config = TmrConfig::classic();
    let m = tmr(&config);
    let phi = m.labeling().states_with("Sup");
    let psi = m.labeling().states_with("failed");
    let options = UniformOptions::new()
        .with_truncation(1e-11)
        .with_lambda(0.0505);
    let start = config.state_with_working(config.modules);
    let metrics = Arc::new(MetricsRecorder::new());
    let res = mrmc_obs::with_recorder(metrics.clone(), || {
        until_probability(&m, &phi, &psi, 400.0, 3000.0, start, options).unwrap()
    });
    let snap = metrics.snapshot();
    assert_eq!(snap.nodes_explored, 463_070, "{snap:?}");
    assert_eq!(res.explored_nodes, snap.nodes_explored);
    assert!(snap.path_groups > 0, "{snap:?}");
    assert!(snap.path_groups < snap.nodes_explored, "{snap:?}");
}

#[test]
fn discretization_check_runs_one_grid_for_all_states() {
    // One backward sweep answers every start state, so a non-adaptive
    // discretization check records one grid, not one per evaluated state.
    let m = tmr(&TmrConfig::classic());
    let options = CheckOptions::new().with_engine(UntilEngine::discretization(0.25));
    let checker = ModelChecker::new(m, options);
    let metrics = Arc::new(MetricsRecorder::new());
    let outcome = mrmc_obs::with_recorder(metrics.clone(), || {
        checker
            .check_str("P(> 0.1) [Sup U[0,50][0,3000] failed]")
            .unwrap()
    });
    let evaluated = outcome
        .probabilities()
        .expect("a P2 check reports probabilities")
        .iter()
        .filter(|&&p| p > 0.0)
        .count();
    assert!(evaluated > 1, "{outcome:?}");
    let snap = metrics.snapshot();
    assert_eq!(snap.grid_runs, 1, "{snap:?}");
    assert_eq!(snap.grid_time_steps, 200, "{snap:?}");
}
