//! Property-style integration tests over randomly generated (but valid)
//! reward models.
//!
//! These were originally `proptest` properties; they now run each law over a
//! fixed range of deterministic seeds (the in-tree generator in
//! `mrmc_models::random` is reproducible per seed), so the suite is hermetic
//! and every failure names the seed that produced it.

use mrmc::{CheckOptions, ModelChecker};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_numerics::uniformization::{until_probability, UniformOptions};

fn small_cfg() -> RandomMrmConfig {
    RandomMrmConfig {
        states: 5,
        extra_transitions_per_state: 1.0,
        max_rate: 2.0,
        reward_levels: vec![0.0, 1.0, 3.0],
        impulse_levels: vec![0.0, 0.5],
        goal_fraction: 0.3,
    }
}

#[test]
fn until_probability_is_monotone_in_t_and_r() {
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");
        let opts = UniformOptions::new().with_truncation(1e-9);

        let mut prev = 0.0;
        for t in [0.25, 0.5, 1.0] {
            let p = until_probability(&m, &phi, &psi, t, 10.0, 0, opts).unwrap();
            assert!(
                p.probability + p.error_bound + 1e-9 >= prev,
                "seed {seed}, t = {t}: {} (+{}) < {prev}",
                p.probability,
                p.error_bound
            );
            prev = p.probability - p.error_bound;
        }

        let mut prev = 0.0;
        for r in [0.5, 2.0, 8.0] {
            let p = until_probability(&m, &phi, &psi, 0.5, r, 0, opts).unwrap();
            assert!(p.probability + p.error_bound + 1e-9 >= prev, "seed {seed}");
            prev = p.probability - p.error_bound;
        }
    }
}

#[test]
fn formula_negation_complements_sat() {
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let checker = ModelChecker::new(m, CheckOptions::new());
        let pos = checker.check_str("goal").unwrap();
        let neg = checker.check_str("!goal").unwrap();
        for s in 0..pos.sat().len() {
            assert_eq!(pos.holds_in(s), !neg.holds_in(s), "seed {seed}, state {s}");
        }
    }
}

#[test]
fn steady_state_probabilities_form_a_distribution() {
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let n = m.num_states();
        let checker = ModelChecker::new(m, CheckOptions::new());
        // π(s, Sat(tt)) = 1 for every s.
        let out = checker.check_str("S(>= 0.999999) TT").unwrap();
        assert_eq!(out.count(), n, "seed {seed}");
    }
}

#[test]
fn probability_bounds_partition_the_state_space() {
    // Sat(P(<p)[φ]) and Sat(P(>=p)[φ]) partition S.
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let checker = ModelChecker::new(m, CheckOptions::new());
        let lt = checker.check_str("P(< 0.5) [TT U[0,1] goal]").unwrap();
        let ge = checker.check_str("P(>= 0.5) [TT U[0,1] goal]").unwrap();
        for s in 0..lt.sat().len() {
            assert!(lt.holds_in(s) ^ ge.holds_in(s), "seed {seed}, state {s}");
        }
    }
}

#[test]
fn next_probabilities_stay_in_unit_interval() {
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let checker = ModelChecker::new(m, CheckOptions::new());
        let out = checker.check_str("P(>= 0) [X[0,2][0,5] goal]").unwrap();
        for &p in out.probabilities().unwrap() {
            assert!((0.0..=1.0).contains(&p), "seed {seed}: {p}");
        }
        // op = >= 0 is a tautology over probabilities.
        assert_eq!(out.count(), out.sat().len(), "seed {seed}");
    }
}

#[test]
fn error_bound_shrinks_with_truncation() {
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");
        let loose = until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            UniformOptions::new().with_truncation(1e-4),
        )
        .unwrap();
        let tight = until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            UniformOptions::new().with_truncation(1e-10),
        )
        .unwrap();
        assert!(
            tight.error_bound <= loose.error_bound + 1e-15,
            "seed {seed}"
        );
        // Results agree within the looser bound.
        assert!(
            (tight.probability - loose.probability).abs() <= loose.error_bound + 1e-12,
            "seed {seed}"
        );
    }
}

/// Budget monotonicity: tightening the engine knob (`w` for
/// uniformization, `d` for discretization) never increases the reported
/// total error budget. Discretization runs on the a-priori bound here
/// (`without_error_estimate`), which is exactly monotone in `d`; the
/// a-posteriori Richardson estimate is only asymptotically so.
#[test]
fn budget_is_monotone_in_the_engine_knob() {
    use mrmc_numerics::discretization::{self, DiscretizationOptions};
    for seed in 0u64..12 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");

        let mut prev = f64::INFINITY;
        for w in [1e-4, 1e-7, 1e-10] {
            let r = until_probability(
                &m,
                &phi,
                &psi,
                0.5,
                5.0,
                0,
                UniformOptions::new().with_truncation(w),
            )
            .unwrap();
            assert!(
                r.budget.total() <= prev + 1e-15,
                "seed {seed}, w = {w}: {} > {prev}",
                r.budget.total()
            );
            prev = r.budget.total();
        }

        let mut prev = f64::INFINITY;
        for d in [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0] {
            let r = discretization::until_probability(
                &m,
                &phi,
                &psi,
                0.5,
                5.0,
                0,
                DiscretizationOptions::with_step(d).without_error_estimate(),
            )
            .unwrap();
            assert!(
                r.budget.total() <= prev + 1e-15,
                "seed {seed}, d = {d}: {} > {prev}",
                r.budget.total()
            );
            prev = r.budget.total();
        }
    }
}

/// The budget's named components sum (bitwise) to its total, for both
/// reward-aware engines on random models.
#[test]
fn budget_components_sum_to_total() {
    use mrmc_numerics::discretization::{self, DiscretizationOptions};
    for seed in 0u64..12 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");

        let uni = until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            UniformOptions::new().with_truncation(1e-8),
        )
        .unwrap();
        let disc = discretization::until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            DiscretizationOptions::with_step(1.0 / 32.0),
        )
        .unwrap();
        for (what, b) in [
            ("uniformization", uni.budget),
            ("discretization", disc.budget),
        ] {
            assert!(b.is_well_formed(), "seed {seed} ({what})");
            let sum: f64 = b.components().iter().map(|&(_, v)| v).sum();
            assert_eq!(
                sum.to_bits(),
                b.total().to_bits(),
                "seed {seed} ({what}): components sum {sum} != total {}",
                b.total()
            );
        }
    }
}

/// Two adaptive runs at different tolerances describe the same number:
/// their results differ by at most the larger ε (each is within its own
/// reported budget of the true probability).
#[test]
fn adaptive_results_agree_across_tolerances() {
    use mrmc_numerics::adaptive::{self, AdaptiveOptions};
    for seed in 0u64..8 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");

        let loose = adaptive::uniformization_until(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            UniformOptions::new(),
            AdaptiveOptions::new(1e-3),
        )
        .unwrap();
        let tight = adaptive::uniformization_until(
            &m,
            &phi,
            &psi,
            0.5,
            5.0,
            0,
            UniformOptions::new(),
            AdaptiveOptions::new(1e-6),
        )
        .unwrap();
        assert!(loose.budget.total() <= 1e-3, "seed {seed}");
        assert!(tight.budget.total() <= 1e-6, "seed {seed}");
        assert!(
            (loose.probability - tight.probability).abs()
                <= loose.budget.total() + tight.budget.total(),
            "seed {seed}: {} vs {}",
            loose.probability,
            tight.probability
        );
    }
}

/// The exact path-level until semantics agree with the inline trajectory
/// predicate used by the restricted estimator: estimating via sampled
/// `TimedPath`s and via `estimate_until` must coincide statistically on
/// `[0, t]`/`[0, r]` bounds.
#[test]
fn path_semantics_consistent_with_inline_simulation() {
    use mrmc_csrl::Interval;
    use mrmc_numerics::monte_carlo::{estimate_until, estimate_until_general, SimulationOptions};
    for seed in 0u64..12 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");
        let opts = SimulationOptions::with_samples(8_000).with_seed(seed);
        let a = estimate_until(&m, &phi, &psi, 0.8, 5.0, 0, opts).unwrap();
        let b = estimate_until_general(
            &m,
            &phi,
            &psi,
            &Interval::upto(0.8),
            &Interval::upto(5.0),
            0,
            opts,
        )
        .unwrap();
        let tol = 4.0 * (a.std_error + b.std_error) + 0.01;
        assert!(
            (a.mean - b.mean).abs() <= tol,
            "seed {seed}: {} vs {}",
            a.mean,
            b.mean
        );
    }
}

/// Model files round-trip for arbitrary generated models.
#[test]
fn io_roundtrip_on_random_models() {
    use mrmc_mrm::io::{self, ModelFiles};
    for seed in 0u64..12 {
        let m = random_mrm(seed, &small_cfg());
        let files = ModelFiles {
            tra: io::write_tra(&m),
            lab: io::write_lab(&m),
            rewr: io::write_rewr(&m),
            rewi: io::write_rewi(&m),
        };
        let back = files.assemble().unwrap();
        assert_eq!(back, m, "seed {seed}");
    }
}

/// Definition 4.1 laws on random models: idempotence and composition by
/// union.
#[test]
fn make_absorbing_laws() {
    use mrmc_mrm::transform::make_absorbing;
    for seed in 0u64..24 {
        let m = random_mrm(seed, &small_cfg());
        let goal = m.labeling().states_with("goal");
        let s0 = m.labeling().states_with("s0");

        let once = make_absorbing(&m, &goal).unwrap();
        let twice = make_absorbing(&once, &goal).unwrap();
        assert_eq!(&once, &twice, "seed {seed}");

        let union: Vec<bool> = goal.iter().zip(&s0).map(|(&a, &b)| a || b).collect();
        let sequential = make_absorbing(&once, &s0).unwrap();
        let joint = make_absorbing(&m, &union).unwrap();
        assert_eq!(sequential, joint, "seed {seed}");
    }
}

/// The absorbing transformation leaves until probabilities invariant (the
/// engine applies it internally, so applying it beforehand must change
/// nothing) — the computational content of Theorem 4.1.
#[test]
fn until_invariant_under_pre_absorption() {
    use mrmc_mrm::transform::make_absorbing;
    use mrmc_numerics::baseline;
    for seed in 0u64..16 {
        let m = random_mrm(seed, &small_cfg());
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");
        let absorb: Vec<bool> = phi.iter().zip(&psi).map(|(&p, &q)| !p || q).collect();
        let pre = make_absorbing(&m, &absorb).unwrap();

        let a = baseline::until_time_bounded(&m, &phi, &psi, 0.7, 1e-11).unwrap();
        let b = baseline::until_time_bounded(&pre, &phi, &psi, 0.7, 1e-11).unwrap();
        for (s, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() < 1e-9, "seed {seed}, state {s}: {x} vs {y}");
        }
    }
}

/// Uniformization-rate invariance: transient distributions agree for
/// different admissible Λ (random models, seed-derived horizon).
#[test]
fn transient_is_lambda_invariant() {
    use mrmc_ctmc::poisson::FoxGlynn;
    for seed in 0u64..16 {
        let t = 0.1 + 1.9 * (seed as f64 / 16.0);
        let m = random_mrm(seed, &small_cfg());
        let n = m.num_states();
        let mut initial = vec![0.0; n];
        initial[0] = 1.0;

        let run = |lambda: f64| -> Vec<f64> {
            let (uni, l) = m.ctmc().uniformized(Some(lambda)).unwrap();
            let fg = FoxGlynn::new(l * t, 1e-12);
            let mut v = initial.clone();
            let mut acc = vec![0.0; n];
            for step in 0..=fg.right() {
                if step >= fg.left() {
                    let w = fg.weights()[(step - fg.left()) as usize];
                    for (a, x) in acc.iter_mut().zip(&v) {
                        *a += w * x;
                    }
                }
                if step < fg.right() {
                    v = uni.probabilities().vec_mul(&v);
                }
            }
            acc
        };
        let max_exit = m
            .ctmc()
            .exit_rates()
            .iter()
            .fold(0.0_f64, |a, &b| a.max(b))
            .max(1e-9);
        let p1 = run(max_exit);
        let p2 = run(3.0 * max_exit);
        for (s, (x, y)) in p1.iter().zip(&p2).enumerate() {
            assert!((x - y).abs() < 1e-8, "seed {seed}, state {s}: {x} vs {y}");
        }
    }
}
