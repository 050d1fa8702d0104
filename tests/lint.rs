//! Library-level tests of the static-analysis (lint) pipeline: the
//! repository's clean reference models must produce zero Error-grade
//! diagnostics, the pre-flight gate in [`mrmc::ModelChecker::check`] must
//! intercept broken formulas before any engine starts, and the analyzer
//! must be total (no panics) over randomly generated models.

use mrmc::{Analyzer, CheckError, CheckOptions, ModelChecker, Severity, UntilEngine};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::{tmr, wavelan, TmrConfig};

#[test]
fn clean_reference_models_have_no_error_diagnostics() {
    let analyzer = Analyzer::new();
    for (name, mrm) in [
        ("tmr", tmr(&TmrConfig::classic())),
        ("cluster", cluster(&ClusterConfig::new(4))),
        ("wavelan", wavelan()),
    ] {
        let report = analyzer.check_model(&mrm);
        assert!(
            !report.has_errors(),
            "{name}: model lint reported errors:\n{report}"
        );
    }
}

#[test]
fn well_formed_formulas_pass_the_formula_lints() {
    let analyzer = Analyzer::new();
    let mrm = tmr(&TmrConfig::classic());
    for text in [
        "S(> 0.9) (Sup)",
        "P(> 0.99) [TT U allUp]",
        "P(< 0.05) [Sup U[0,2][0,10] failed]",
        "P(> 0.1) [X[0,1][0,5] Sup]",
    ] {
        let f = mrmc_csrl::parse(text).unwrap();
        let report = analyzer.check_formula(&mrm, &f, UntilEngine::default());
        assert!(
            !report.has_errors(),
            "`{text}` flagged with errors:\n{report}"
        );
    }
}

#[test]
fn preflight_gates_check_before_the_engines() {
    let checker = ModelChecker::new(tmr(&TmrConfig::classic()), CheckOptions::new());

    // Unknown proposition: F001 aborts the check.
    let e = checker.check_str("no_such_ap").unwrap_err();
    let CheckError::Preflight(report) = e else {
        panic!("expected a pre-flight abort, got {e}");
    };
    assert!(report.codes().contains(&"F001"), "{report}");

    // Unsupported bound combination: F002 aborts the check.
    let e = checker
        .check_str("P(>= 0.5) [Sup U[1,2][0,10] failed]")
        .unwrap_err();
    let CheckError::Preflight(report) = e else {
        panic!("expected a pre-flight abort, got {e}");
    };
    assert!(report.codes().contains(&"F002"), "{report}");

    // A checkable formula passes the gate and produces a verdict.
    assert!(checker.check_str("S(> 0.0) (Sup)").is_ok());
}

#[test]
fn preflight_report_is_available_without_checking() {
    let checker = ModelChecker::new(tmr(&TmrConfig::classic()), CheckOptions::new());
    let f = mrmc_csrl::parse("P(< 0.05) [Sup U[0,2][0,10] failed]").unwrap();
    let report = checker.preflight(&f);
    assert!(!report.has_errors(), "{report}");
    // The cost forecast (C103) rides along as a note.
    assert!(report.codes().contains(&"C103"), "{report}");
    assert_eq!(report.count(Severity::Error), 0);
}

#[test]
fn analyzer_is_total_over_random_models() {
    let analyzer = Analyzer::new();
    let config = RandomMrmConfig::default();
    for seed in 0..32 {
        let mrm = random_mrm(seed, &config);
        let report = analyzer.check_model(&mrm);
        // Random models are connected and positively labeled by
        // construction: warnings are possible, errors are not (the model
        // passes produce only Warning/Note grades).
        assert!(
            !report.has_errors(),
            "seed {seed}: unexpected errors:\n{report}"
        );
        for text in ["P(> 0.1) [TT U[0,1][0,2] goal]", "S(> 0.1) (goal)"] {
            let f = mrmc_csrl::parse(text).unwrap();
            let fr = analyzer.check_formula(&mrm, &f, UntilEngine::default());
            assert!(!fr.has_errors(), "seed {seed} `{text}`:\n{fr}");
        }
    }
}

#[test]
fn preflight_and_checker_agree_on_every_bound_shape() {
    // The pre-flight must classify each until exactly as the checker
    // does: F002 where the checker has no engine for the bounds, and a
    // cost forecast (C0xx/C1xx) exactly for the time- and reward-bounded
    // class I = [0, t], J = [0, r] (Algorithm 4.5's P2), the only one that
    // runs the configured engine over the reward dimension.
    let mut b = mrmc_ctmc::CtmcBuilder::new(3);
    b.transition(0, 1, 1.0)
        .transition(0, 2, 0.5)
        .transition(1, 0, 1.0)
        .transition(1, 2, 2.0);
    b.label(0, "a").label(1, "a").label(2, "goal");
    let mut impulses = mrmc_mrm::ImpulseRewards::new();
    impulses.set(0, 1, 0.5).unwrap();
    let mrm = mrmc_mrm::Mrm::new(
        b.build().unwrap(),
        mrmc_mrm::StateRewards::new(vec![1.0, 2.0, 0.0]).unwrap(),
        impulses,
    )
    .unwrap();

    // (text, is [0, t] with t finite) and (text, is [0, r] with r finite).
    let times = [
        ("[0,~]", false),
        ("[0,1]", true),
        ("[0.5,1]", false),
        ("[0.5,~]", false),
        ("[1,1]", false),
    ];
    let rewards = [
        ("[0,~]", false),
        ("[0,2]", true),
        ("[1,2]", false),
        ("[1,~]", false),
        ("[0,0]", true),
    ];
    for engine in [
        UntilEngine::uniformization(1e-6),
        UntilEngine::discretization(0.05),
        UntilEngine::simulation(200),
    ] {
        let options = CheckOptions::new().with_engine(engine);
        let gated = ModelChecker::new(mrm.clone(), options);
        let raw = ModelChecker::new(mrm.clone(), options.without_preflight());
        for &(time, time_upto) in &times {
            for &(reward, reward_upto) in &rewards {
                let text = format!("P(>= 0.5) [a U{time}{reward} goal]");
                let f = mrmc_csrl::parse(&text).unwrap();
                let report = gated.preflight(&f);
                let unsupported = match raw.check(&f) {
                    Ok(_) => false,
                    Err(CheckError::UnsupportedBounds { .. }) => true,
                    Err(e) => panic!("{engine:?} `{text}`: {e}"),
                };
                assert_eq!(
                    report.codes().contains(&"F002"),
                    unsupported,
                    "{engine:?} `{text}`:\n{report}"
                );
                let forecast = report.codes().iter().any(|c| c.starts_with('C'));
                assert_eq!(
                    forecast,
                    time_upto && reward_upto,
                    "{engine:?} `{text}`:\n{report}"
                );
            }
        }
    }
}
