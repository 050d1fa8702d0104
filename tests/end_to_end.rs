//! End-to-end checks of the `ModelChecker` on the evaluation models, using
//! the concrete CSRL syntax throughout.

use mrmc::{CheckError, CheckOptions, ModelChecker, UntilEngine};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_models::wavelan;

fn tmr3_checker() -> (ModelChecker, TmrConfig) {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    (ModelChecker::new(m, CheckOptions::new()), config)
}

#[test]
fn tmr_dependability_formula_of_the_evaluation() {
    // P(>0.1)[Sup U[0,100][0,3000] failed]: at t = 100 the probability is
    // ≈ 0.0102 — no state satisfies the >0.1 bound.
    let (checker, config) = tmr3_checker();
    let out = checker
        .check_str("P(> 0.1) [Sup U[0,100][0,3000] failed]")
        .unwrap();
    let p = out.probabilities().unwrap();
    let full = config.state_with_working(3);
    assert!((p[full] - 0.0102).abs() < 5e-4, "P = {}", p[full]);
    assert!(!out.holds_in(full));
    // failed states satisfy the path formula immediately: P = 1 > 0.1.
    assert!(out.holds_in(config.vdown_state()));
}

#[test]
fn tmr_steady_state_availability() {
    let (checker, config) = tmr3_checker();
    // Long-run unavailability is tiny: S(< 0.01)(failed) holds everywhere.
    let out = checker.check_str("S(< 0.01) (failed)").unwrap();
    assert_eq!(out.count(), config.num_states());
    let p = out.probabilities().unwrap();
    assert!(p[config.state_with_working(3)] < 0.01);
}

#[test]
fn tmr_next_step_failure() {
    let (checker, config) = tmr3_checker();
    // From 2up, the next transition is a failure (to 1up or vdown) with
    // probability (0.0004 + 0.0001)/0.0505 ≈ 0.0099.
    let out = checker.check_str("P(< 0.05) [X failed]").unwrap();
    let p = out.probabilities().unwrap();
    let two_up = config.state_with_working(2);
    assert!((p[two_up] - 0.0005 / 0.0505).abs() < 1e-9);
    assert!(out.holds_in(two_up));
}

#[test]
fn engine_switch_changes_nothing_semantically() {
    let config = TmrConfig::classic();
    let formula = "P(> 0.005) [Sup U[0,50][0,3000] failed]";

    let uni = ModelChecker::new(tmr(&config), CheckOptions::new())
        .check_str(formula)
        .unwrap();
    let disc = ModelChecker::new(
        tmr(&config),
        CheckOptions::new().with_engine(UntilEngine::discretization(0.25)),
    )
    .check_str(formula)
    .unwrap();
    assert_eq!(uni.sat(), disc.sat());
    let (pu, pd) = (
        uni.probabilities().unwrap()[3],
        disc.probabilities().unwrap()[3],
    );
    assert!((pu - pd).abs() < 1e-4, "{pu} vs {pd}");
}

#[test]
fn wavelan_quickstart_formulas() {
    let checker = ModelChecker::new(wavelan(), CheckOptions::new());

    // Atomic and boolean structure.
    assert_eq!(checker.check_str("busy").unwrap().count(), 2);
    assert_eq!(checker.check_str("!busy && !off").unwrap().count(), 2);

    // Unbounded until: the chain is irreducible, so busy is reached
    // almost surely from everywhere.
    let out = checker.check_str("P(> 0.999) [TT U busy]").unwrap();
    assert_eq!(out.count(), 5);

    // Time-bounded until from idle.
    let out = checker.check_str("P(> 0.1) [idle U[0,2] busy]").unwrap();
    assert!(out.holds_in(2));

    // Next with time and reward bounds.
    let out = checker.check_str("P(> 0.1) [X[0,1][0,2000] busy]").unwrap();
    assert!(out.holds_in(2));
    assert!(!out.holds_in(0));
}

#[test]
fn error_reporting_is_actionable() {
    let checker = ModelChecker::new(wavelan(), CheckOptions::new());

    // The pre-flight lint intercepts unsupported bounds (F002) before any
    // engine starts.
    let e = checker
        .check_str("P(>= 0.5) [idle U[2,3][0,50] busy]")
        .unwrap_err();
    assert!(matches!(e, CheckError::Preflight(_)), "{e}");
    assert!(e.to_string().contains("F002"), "{e}");

    // With pre-flight disabled, the engine-level error surfaces instead.
    let raw = ModelChecker::new(wavelan(), CheckOptions::new().without_preflight());
    let e = raw
        .check_str("P(>= 0.5) [idle U[2,3][0,50] busy]")
        .unwrap_err();
    assert!(matches!(e, CheckError::UnsupportedBounds { .. }), "{e}");

    let e = checker.check_str("no_such_label").unwrap_err();
    assert!(matches!(e, CheckError::Preflight(_)), "{e}");
    assert!(e.to_string().contains("no_such_label"));

    let e = checker.check_str("P(>= 2) [TT U busy]").unwrap_err();
    assert!(matches!(e, CheckError::Parse(_)), "{e}");
}

#[test]
fn path_counts_beyond_u64_are_a_check_error() {
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_numerics::uniformization::UniformOptions;
    use mrmc_numerics::NumericsError;

    // At Λ = 2 every step probability is a power of two, so the merged
    // exploration stays a handful of groups per depth while the paths it
    // stands for double with each step: their count passes 2^64 − 1
    // long before the truncation probability stops the search.
    let mut b = CtmcBuilder::new(3);
    b.transition(0, 1, 1.0)
        .transition(1, 0, 0.5)
        .transition(1, 2, 0.5);
    b.label(0, "a").label(1, "a").label(2, "goal");
    let m = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
    let engine = UntilEngine::Uniformization(UniformOptions {
        truncation: 1e-300,
        lambda: Some(2.0),
        ..UniformOptions::new()
    });
    let checker = ModelChecker::new(m, CheckOptions::new().with_engine(engine));
    let e = checker
        .check_str("P(> 0.5) [a U[0,50][0,1000] goal]")
        .unwrap_err();
    assert_eq!(e, CheckError::Numerics(NumericsError::PathCountOverflow));
    assert!(e.to_string().contains("2^64"), "{e}");
}

#[test]
fn outcome_accessors_are_consistent() {
    let checker = ModelChecker::new(wavelan(), CheckOptions::new());
    let out = checker.check_str("S(> 0.0) (busy)").unwrap();
    assert_eq!(
        out.satisfying_states().count(),
        out.count(),
        "iterator and count agree"
    );
    let probs = out.probabilities().unwrap();
    assert_eq!(probs.len(), 5);
    for &p in probs {
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn derived_eventually_and_globally_operators() {
    // Two-state chain: up --(0.5)--> down (absorbing).
    let mut b = mrmc_ctmc::CtmcBuilder::new(2);
    b.transition(0, 1, 0.5);
    b.label(0, "up").label(1, "down");
    let m = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
    let checker = ModelChecker::new(m, CheckOptions::new());

    // F: Pr(◇^{[0,2]} down) = 1 − e^{−1} ≈ 0.632.
    let out = checker.check_str("P(> 0.6) [F[0,2] down]").unwrap();
    let p = out.probabilities().unwrap();
    assert!((p[0] - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    assert!(out.holds_in(0));

    // G: Pr(□^{[0,2]} up) = e^{−1} ≈ 0.368 from the up state.
    // P(>= 0.3)[G[0,2] up] must hold in state 0 and fail in state 1.
    let out = checker.check_str("P(>= 0.3) [G[0,2] up]").unwrap();
    assert!(out.holds_in(0));
    assert!(!out.holds_in(1));
    // And with a bound above e^{−1} it must fail in state 0 too.
    let out = checker.check_str("P(>= 0.4) [G[0,2] up]").unwrap();
    assert!(!out.holds_in(0));
}

#[test]
fn interval_time_until_through_the_surface_syntax() {
    // The checker evaluates time-interval until exactly when the reward
    // bound is trivial (the two-phase decomposition).
    let mut b = mrmc_ctmc::CtmcBuilder::new(2);
    b.transition(0, 1, 2.0);
    b.label(0, "up").label(1, "failed");
    let m = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
    let checker = ModelChecker::new(m, CheckOptions::new());

    // Pr(tt U^{[0.5, 1]} failed) from up = 1 − e^{−2} ≈ 0.8647.
    let out = checker.check_str("P(> 0.8) [TT U[0.5,1] failed]").unwrap();
    assert!(out.holds_in(0));
    let p = out.probabilities().unwrap();
    assert!((p[0] - (1.0 - (-2.0f64).exp())).abs() < 1e-9);

    let out = checker.check_str("P(> 0.9) [TT U[0.5,1] failed]").unwrap();
    assert!(!out.holds_in(0));
}
