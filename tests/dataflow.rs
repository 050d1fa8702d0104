//! Property tests for qualitative precomputation and formula-driven
//! slicing: checking with slicing (the default) must agree with checking
//! the full state space (`--no-slicing`). When the certificate prunes
//! nothing (`slice_states_removed == 0`) the two runs are the same
//! computation and must agree **bitwise**; when it prunes, probabilities
//! must agree within the *sum* of the error budgets both runs report
//! (each run is within its own budget of the truth), and definite
//! verdicts must never contradict. The corpus covers the paper's models
//! and 32 seeded random MRMs, plus a mutation corpus the independent
//! certificate verifier must reject.

use mrmc::{CheckOptions, CheckOutcome, ModelChecker, Reduction, UntilEngine};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::{tmr, wavelan, TmrConfig};
use mrmc_mrm::Mrm;

/// The total error the outcome admits on state `s`'s probability: the
/// budget when the engine accounts for it, the raw truncation bound
/// otherwise, zero for exact computations.
fn slack(o: &CheckOutcome, s: usize) -> f64 {
    if let Some(b) = o.budgets() {
        b[s].total()
    } else if let Some(e) = o.error_bounds() {
        e[s]
    } else {
        0.0
    }
}

/// Check every formula with and without slicing and compare outcomes.
/// Reduction is off on both sides so the comparison isolates slicing.
fn assert_slicing_agrees(name: &str, mrm: &Mrm, formulas: &[&str], options: CheckOptions) {
    let options = options.with_reduction(Reduction::Off);
    let sliced_checker = ModelChecker::new(mrm.clone(), options);
    let full_checker = ModelChecker::new(mrm.clone(), options.without_slicing());
    for text in formulas {
        let sliced = sliced_checker
            .check_str(text)
            .unwrap_or_else(|e| panic!("{name} `{text}` (sliced): {e}"));
        let full = full_checker
            .check_str(text)
            .unwrap_or_else(|e| panic!("{name} `{text}` (full): {e}"));
        assert_eq!(
            full.dataflow(),
            None,
            "{name} `{text}`: --no-slicing still ran the pre-pass"
        );

        let removed = sliced.dataflow().map_or(0, |d| d.slice_states_removed);
        let (sp, fp) = match (sliced.probabilities(), full.probabilities()) {
            (Some(s), Some(f)) => (s, f),
            (None, None) => continue,
            _ => panic!("{name} `{text}`: probability availability diverged"),
        };
        assert_eq!(sp.len(), fp.len(), "{name} `{text}`: vector lengths");

        if removed == 0 {
            // Nothing pruned: identical control flow, bitwise identical.
            for s in 0..sp.len() {
                assert_eq!(
                    sp[s].to_bits(),
                    fp[s].to_bits(),
                    "{name} `{text}` state {s}: unpruned sliced run must be bitwise \
                     identical ({} vs {})",
                    sp[s],
                    fp[s]
                );
            }
            assert_eq!(sliced.sat(), full.sat(), "{name} `{text}`: sat sets");
            assert_eq!(
                sliced.unknown(),
                full.unknown(),
                "{name} `{text}`: unknown sets"
            );
        } else {
            // Pruned: each run is within its own budget of the truth, so
            // the two may differ by at most the summed budgets. Budgets on
            // pruned states collapse to zero, which can flip a verdict
            // from unknown to definite — definite verdicts must still
            // never contradict each other.
            for s in 0..sp.len() {
                let tol = slack(&sliced, s) + slack(&full, s) + 1e-9;
                assert!(
                    (sp[s] - fp[s]).abs() <= tol,
                    "{name} `{text}` state {s}: |{} - {}| > {tol}",
                    sp[s],
                    fp[s]
                );
                let definite = |o: &CheckOutcome, s: usize| !o.unknown()[s];
                if definite(&sliced, s) && definite(&full, s) {
                    assert_eq!(
                        sliced.sat()[s],
                        full.sat()[s],
                        "{name} `{text}` state {s}: definite verdicts contradict"
                    );
                }
            }
        }
    }
}

#[test]
fn tmr_sliced_runs_agree_with_full() {
    let mrm = tmr(&TmrConfig::classic());
    let formulas = [
        "P(> 0.99) [TT U allUp]",
        "P(> 0.1) [TT U failed]",
        "P(> 0.01) [allUp U[0,2] failed]",
        "P(< 0.05) [Sup U[0,2][0,10] failed]",
        "P(> 0.1) [TT U[0,1][0,10] failed]",
    ];
    assert_slicing_agrees("tmr", &mrm, &formulas, CheckOptions::new());
}

#[test]
fn cluster_sliced_runs_agree_with_full() {
    let mrm = cluster(&ClusterConfig::new(4));
    let formulas = [
        "P(>= 0.0) [premium U down]",
        "P(>= 0.1) [TT U[0,1] down]",
        "P(>= 0.0) [backbone_up U[0,1][0,5] down]",
    ];
    assert_slicing_agrees("cluster", &mrm, &formulas, CheckOptions::new());
}

#[test]
fn wavelan_sliced_runs_agree_with_full() {
    let mrm = wavelan();
    let formulas = [
        "P(> 0.01) [TT U busy]",
        "P(> 0.01) [TT U[0,0.5][0,2] busy]",
        "P(> 0.01) [idle U[0,0.5][0,2] busy]",
    ];
    assert_slicing_agrees("wavelan", &mrm, &formulas, CheckOptions::new());
}

#[test]
fn discretization_sliced_runs_agree_with_full() {
    // The grid engine's slicing skips certain-zero start states outright;
    // phi-restricted invariants make that set nonempty on these models.
    let formulas = ["P(> 0.01) [Sup U[0,1][0,10] failed]"];
    let mrm = tmr(&TmrConfig::classic());
    assert_slicing_agrees(
        "tmr/d",
        &mrm,
        &formulas,
        CheckOptions::new().with_engine(UntilEngine::discretization(0.05)),
    );
}

#[test]
fn random_models_sliced_runs_agree_with_full() {
    // 32 seeded random MRMs; `s0 U goal` keeps the invariant tight so the
    // certain-zero fixpoint actually prunes on many seeds.
    let config = RandomMrmConfig::default();
    let formulas = [
        "P(> 0.2) [TT U goal]",
        "P(> 0.2) [s0 U goal]",
        "P(> 0.2) [TT U[0,1] goal]",
        "P(< 0.5) [s1 U[0,1][0,4] goal]",
    ];
    for seed in 0..32 {
        let mrm = random_mrm(seed, &config);
        assert_slicing_agrees(
            &format!("random-{seed}"),
            &mrm,
            &formulas,
            CheckOptions::new(),
        );
    }
}

#[test]
fn slicing_reports_dataflow_and_no_slicing_suppresses_it() {
    let mrm = tmr(&TmrConfig::classic());
    let sliced = ModelChecker::new(mrm.clone(), CheckOptions::new())
        .check_str("P(> 0.99) [TT U allUp]")
        .unwrap();
    let d = sliced.dataflow().expect("sliced until reports dataflow");
    assert!(d.scc_count >= 1);
    assert_eq!(
        d.slice_states_removed,
        d.qual_zero_states + d.qual_one_states
            - mrm
                .labeling()
                .states_with("allUp")
                .iter()
                .filter(|&&b| b)
                .count(),
        "removed = |zero ∩ phi| + |one \\ psi| with phi = TT"
    );
    let full = ModelChecker::new(mrm, CheckOptions::new().without_slicing())
        .check_str("P(> 0.99) [TT U allUp]")
        .unwrap();
    assert_eq!(full.dataflow(), None);
}

#[test]
fn verifier_rejects_mutated_certificates() {
    // Eight distinct corruptions of a freshly computed (and verified)
    // certificate, each violating a different invariant the independent
    // verifier re-checks. None may slip through. The chain is built so
    // both qualitative sets are nontrivial and known exactly:
    // 0:a -> 1:a -> {2:goal, 3:a-trap}, 4:b absorbing.
    // zero = {3, 4}, one = {2}.
    use mrmc_ctmc::CtmcBuilder;
    let mut b = CtmcBuilder::new(5);
    b.transition(0, 1, 1.0);
    b.transition(1, 2, 1.0).transition(1, 3, 1.0);
    b.label(0, "a").label(1, "a").label(3, "a");
    b.label(2, "goal");
    b.label(4, "b");
    let mrm = Mrm::without_rewards(b.build().unwrap());
    let phi = mrm.labeling().states_with("a");
    let psi = mrm.labeling().states_with("goal");
    let base = mrmc::dataflow::qualitative_until(&mrm, &phi, &psi, true);
    base.verify(&mrm).expect("the honest certificate verifies");
    assert_eq!(base.zero, [false, false, false, true, true]);
    assert_eq!(base.one, [false, false, true, false, false]);

    type Mutation = (
        &'static str,
        fn(&mut mrmc::dataflow::QualitativeCertificate),
    );
    let mutations: [Mutation; 8] = [
        ("zero claims the goal state", |c| c.zero[2] = true),
        ("zero not successor-closed", |c| c.zero[0] = true),
        ("zero and one overlap", |c| c.one[3] = true),
        ("one without the invariant", |c| {
            c.zero[4] = false;
            c.one[4] = true;
        }),
        ("zero vector truncated", |c| {
            c.zero.pop();
        }),
        ("one vector truncated", |c| {
            c.one.pop();
        }),
        ("spurious certain-one claim on the trap", |c| {
            c.zero[3] = false;
            c.one[3] = true;
        }),
        ("bounded cert claims one beyond the goal", |c| {
            c.unbounded = false;
            c.one[1] = true;
        }),
    ];
    for (what, mutate) in mutations {
        let mut cert = base.clone();
        mutate(&mut cert);
        assert!(
            cert.verify(&mrm).is_err(),
            "mutated certificate ({what}) passed verification"
        );
    }
}
