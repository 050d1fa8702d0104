//! Adaptive refinement: drive an engine until its *reported* error budget
//! meets a requested tolerance.
//!
//! The engines expose raw accuracy knobs (`w`, `d`, sample counts); this
//! module closes the loop the thesis leaves to the user: the caller states
//! a tolerance `ε` on the probability and the driver tightens the knob
//! geometrically — truncation `w` by [`AdaptiveOptions::refinement`] per
//! round, step `d` by halving, samples by Hoeffding sizing — until
//! `budget.total() ≤ ε` or the work cap is hit, in which case a structured
//! [`NumericsError::ToleranceNotMet`] carries the tightest bound achieved.
//!
//! The uniformization driver always enables potential-based pruning: the
//! thesis' literal rule discards the root outright once `e^{−Λt} < w`
//! (the error blow-up visible in Table 5.3 at large `t`), which would make
//! the budget *non-monotone* in `w` and defeat refinement.

use std::sync::Arc;

use mrmc_mrm::Mrm;

use crate::discretization::{self, DiscretizationOptions, DiscretizationResult};
use crate::error::NumericsError;
use crate::monte_carlo;
use crate::omega::{cache_installed, with_omega_cache, OmegaTermCache};
use crate::uniformization::{self, UniformOptions, UntilResult};

/// Confidence parameter for Hoeffding sizing of the simulation driver:
/// the statistical budget holds with probability `1 − δ`.
pub const SIMULATION_DELTA: f64 = 1e-6;

/// Hard cap on the Hoeffding-sized sample count; tolerances requiring more
/// samples fail upfront with `ToleranceNotMet`.
pub const MAX_SAMPLES: u64 = 10_000_000;

/// Refinement policy shared by the adaptive drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// The target: drive the reported `budget.total()` to at most this.
    pub tolerance: f64,
    /// Maximum refinement rounds before giving up. Default `12`.
    pub max_rounds: u32,
    /// Factor applied to the truncation probability `w` per round
    /// (uniformization only; the discretization driver halves `d`).
    /// Default `1e-3`.
    pub refinement: f64,
}

impl AdaptiveOptions {
    /// Default policy for the given tolerance: 12 rounds, `w ×= 1e-3`.
    pub fn new(tolerance: f64) -> Self {
        AdaptiveOptions {
            tolerance,
            max_rounds: 12,
            refinement: 1e-3,
        }
    }

    /// Change the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    fn validate(&self) -> Result<(), NumericsError> {
        if !(self.tolerance > 0.0 && self.tolerance < 1.0) {
            return Err(NumericsError::InvalidParameter {
                name: "tolerance",
                value: self.tolerance,
                requirement: "must be in (0, 1)",
            });
        }
        if !(self.refinement > 0.0 && self.refinement < 1.0) {
            return Err(NumericsError::InvalidParameter {
                name: "refinement",
                value: self.refinement,
                requirement: "must be in (0, 1)",
            });
        }
        if self.max_rounds == 0 {
            return Err(NumericsError::InvalidParameter {
                name: "max_rounds",
                value: 0.0,
                requirement: "must be positive",
            });
        }
        Ok(())
    }

    /// Initial truncation for a base `w`: no looser than the base, and at
    /// least two decades below the tolerance so round one has a chance.
    fn initial_truncation(&self, base: f64) -> f64 {
        base.min(self.tolerance * 1e-2).max(1e-300)
    }
}

/// Drive the uniformization engine from one start state until
/// `budget.total() ≤ tolerance`.
///
/// # Errors
///
/// [`NumericsError::ToleranceNotMet`] when the round cap is reached or a
/// round stops making progress (the floating-point floor of the budget
/// cannot be refined away by `w`); other [`NumericsError`]s as for
/// [`uniformization::until_probability`].
#[expect(
    clippy::too_many_arguments,
    reason = "the engine inputs are the formula operands, bounds and knobs, each its own argument"
)]
pub fn uniformization_until(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    base: UniformOptions,
    adaptive: AdaptiveOptions,
) -> Result<UntilResult, NumericsError> {
    refine_truncation(
        base,
        adaptive,
        |opts| uniformization::until_probability(mrm, phi, psi, t, r, start, opts),
        |res| res.budget.total(),
        |res| res.budget.components().to_vec(),
    )
}

/// Drive the uniformization engine for **every** state at once: the whole
/// vector is refined under one `w` until the *worst* per-state budget
/// meets the tolerance, sharing the absorbed model across states.
///
/// # Errors
///
/// See [`uniformization_until`].
pub fn uniformization_until_all(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    base: UniformOptions,
    adaptive: AdaptiveOptions,
) -> Result<Vec<UntilResult>, NumericsError> {
    refine_truncation(
        base,
        adaptive,
        |opts| uniformization::until_probabilities_all(mrm, phi, psi, t, r, opts),
        |res| res.iter().map(|r| r.budget.total()).fold(0.0f64, f64::max),
        |_| Vec::new(),
    )
}

/// The refinement loop behind both uniformization drivers: `run` is one
/// engine round at the given options, `worst` reads the budget a round's
/// result must bring under the tolerance, and `components` is what its
/// attempt event reports. Each round tightens `w` by
/// [`AdaptiveOptions::refinement`]; refinement stops early once a round
/// improves the best result by less than 10%.
fn refine_truncation<R>(
    base: UniformOptions,
    adaptive: AdaptiveOptions,
    run: impl Fn(UniformOptions) -> Result<R, NumericsError>,
    worst: impl Fn(&R) -> f64,
    components: impl Fn(&R) -> Vec<(&'static str, f64)>,
) -> Result<R, NumericsError> {
    adaptive.validate()?;
    with_run_omega_cache(|| {
        let mut w = adaptive.initial_truncation(base.truncation);
        let mut best: Option<R> = None;
        for round in 0..adaptive.max_rounds {
            let res = run(base.with_truncation(w).with_improved_pruning())?;
            let achieved = worst(&res);
            mrmc_obs::record(|| mrmc_obs::Event::AdaptiveAttempt {
                round: u64::from(round) + 1,
                knob: "truncation",
                value: w,
                achieved: Some(achieved),
                components: components(&res),
            });
            if achieved <= adaptive.tolerance {
                return Ok(res);
            }
            let stalled = best.as_ref().is_some_and(|b| achieved > 0.9 * worst(b));
            if best.as_ref().is_none_or(|b| achieved < worst(b)) {
                best = Some(res);
            }
            if stalled || w <= 1e-300 {
                break;
            }
            w *= adaptive.refinement;
        }
        Err(NumericsError::ToleranceNotMet {
            requested: adaptive.tolerance,
            achieved: best.map_or(1.0, |b| worst(&b)),
        })
    })
}

/// Run `f` under a per-run Omega-term cache unless one is installed.
///
/// Successive rounds tighten `w`, re-generating most of the previous
/// round's path classes; the per-run cache lets re-attempts reuse the
/// tables already computed (Ω is pure, so results are bit-identical). In
/// the all-states driver the reuse also spans start states within one
/// round. An externally installed cache is honored instead, which also
/// shares tables across runs.
fn with_run_omega_cache<T>(f: impl FnOnce() -> T) -> T {
    if cache_installed() {
        f()
    } else {
        with_omega_cache(Arc::new(OmegaTermCache::new()), f)
    }
}

/// Drive the discretization engine: halve `d` until the reported budget
/// (Richardson estimate + float accumulation) meets the tolerance.
///
/// The starting step is clamped to the stability limit `1/max_s E(s)` and
/// to `t`, then shrunk to divide `t`, so a too-coarse base step refines
/// instead of erroring and every round's grid ends exactly at `t`.
///
/// # Errors
///
/// [`NumericsError::ToleranceNotMet`] when the round cap or the reward-grid
/// memory guard halts refinement first; other [`NumericsError`]s as for
/// [`discretization::until_probability`].
#[expect(
    clippy::too_many_arguments,
    reason = "the engine inputs are the formula operands, bounds and knobs, each its own argument"
)]
pub fn discretization_until(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    base: DiscretizationOptions,
    adaptive: AdaptiveOptions,
) -> Result<DiscretizationResult, NumericsError> {
    let mut results = discretization_until_states(mrm, phi, psi, t, r, &[start], base, adaptive)?;
    Ok(results.swap_remove(0))
}

/// [`discretization_until`] for several start states at once: each round
/// is one all-states sweep ([`discretization::until_probabilities_all`]),
/// and each state keeps the result of the first round whose own budget
/// meets the tolerance — the step [`discretization_until`] would pick for
/// it alone. Rounds go on while any state is still open; results come
/// back in the order of `states`.
///
/// # Errors
///
/// As for [`discretization_until`], reported for the first state in
/// `states` order that does not meet the tolerance.
#[expect(
    clippy::too_many_arguments,
    reason = "the engine inputs are the formula operands, bounds and knobs, each its own argument"
)]
pub fn discretization_until_states(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    states: &[usize],
    base: DiscretizationOptions,
    adaptive: AdaptiveOptions,
) -> Result<Vec<DiscretizationResult>, NumericsError> {
    adaptive.validate()?;
    let n = mrm.num_states();
    if let Some(&s) = states.iter().find(|&&s| s >= n) {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: s,
        });
    }
    if states.is_empty() {
        return Ok(Vec::new());
    }
    let mut d = initial_step(mrm, t, base.step);
    let mut met: Vec<Option<DiscretizationResult>> = vec![None; states.len()];
    let mut best: Vec<Option<DiscretizationResult>> = vec![None; states.len()];
    let mut halted = None;
    for round in 0..adaptive.max_rounds {
        let mut opts = base;
        opts.step = d;
        let all = match discretization::until_probabilities_all(mrm, phi, psi, t, r, opts) {
            Ok(all) => all,
            // The memory guard reports the step as invalid; if refinement
            // already produced a result, report the bound it achieved.
            Err(e @ NumericsError::InvalidParameter { name: "step", .. }) => {
                halted = Some(e);
                break;
            }
            Err(e) => return Err(e),
        };
        let open: Vec<usize> = (0..states.len()).filter(|&i| met[i].is_none()).collect();
        let worst = open
            .iter()
            .map(|&i| &all[states[i]].budget)
            .max_by(|a, b| a.total().total_cmp(&b.total()))
            .expect("a round runs only while a state is open");
        mrmc_obs::record(|| mrmc_obs::Event::AdaptiveAttempt {
            round: u64::from(round) + 1,
            knob: "step",
            value: d,
            achieved: Some(worst.total()),
            components: worst.components().to_vec(),
        });
        for i in open {
            let res = &all[states[i]];
            let achieved = res.budget.total();
            if achieved <= adaptive.tolerance {
                met[i] = Some(res.clone());
            } else if best[i].as_ref().is_none_or(|b| achieved < b.budget.total()) {
                best[i] = Some(res.clone());
            }
        }
        if met.iter().all(Option::is_some) {
            return Ok(met.into_iter().flatten().collect());
        }
        d *= 0.5;
    }
    let failing = met
        .iter()
        .position(Option::is_none)
        .expect("refinement stopped with a state open");
    Err(match (&best[failing], halted) {
        (None, Some(e)) => e,
        (best, _) => NumericsError::ToleranceNotMet {
            requested: adaptive.tolerance,
            achieved: best.as_ref().map_or(1.0, |b| b.budget.total()),
        },
    })
}

/// The discretization driver's first step: `base` clamped to the stability
/// limit `1/max_s E(s)` and to `t`, then shrunk to `t / ⌈t/d⌉` so the
/// grid's `round(t/d)` steps end exactly at `t` in this and every halved
/// round. A step that does not divide `t` would end the grid up to `d/2`
/// away from `t`, a shift the Richardson budget does not see.
fn initial_step(mrm: &Mrm, t: f64, base: f64) -> f64 {
    let max_exit = mrm
        .ctmc()
        .exit_rates()
        .iter()
        .fold(0.0f64, |m, &e| m.max(e));
    let mut d = base;
    if max_exit > 0.0 {
        d = d.min(1.0 / max_exit);
    }
    d = d.min(t);
    let steps = (t / d).ceil();
    // Rounding in `t / steps` may land one ulp above `d`; take one more
    // step rather than exceed the stability limit.
    if t / steps > d {
        t / (steps + 1.0)
    } else {
        t / steps
    }
}

/// The simulation sample count: `base`, raised to the Hoeffding-sized
/// count — the smallest `n` with `√(ln(2/δ)/2n) ≤ tolerance` at `δ =`
/// [`SIMULATION_DELTA`] — when a tolerance is requested.
///
/// # Errors
///
/// [`NumericsError::ToleranceNotMet`] when more than [`MAX_SAMPLES`]
/// trajectories would be needed; the achieved bound is the radius at the
/// cap.
pub fn simulation_samples(base: u64, tolerance: Option<f64>) -> Result<u64, NumericsError> {
    let Some(eps) = tolerance else {
        return Ok(base);
    };
    match monte_carlo::hoeffding_samples(eps, SIMULATION_DELTA) {
        Some(n) if n <= MAX_SAMPLES => Ok(n.max(base)),
        _ => Err(NumericsError::ToleranceNotMet {
            requested: eps,
            achieved: monte_carlo::hoeffding_radius(MAX_SAMPLES, SIMULATION_DELTA),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    fn wavelan() -> Mrm {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 0.1);
        b.transition(1, 0, 0.05).transition(1, 2, 5.0);
        b.transition(2, 1, 12.0)
            .transition(2, 3, 1.5)
            .transition(2, 4, 0.75);
        b.transition(3, 2, 10.0);
        b.transition(4, 2, 15.0);
        b.label(2, "idle");
        b.label(3, "busy");
        b.label(4, "busy");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 80.0, 1319.0, 1675.0, 1425.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(2, 3, 0.42545).unwrap();
        iota.set(2, 4, 0.36195).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn uniformization_meets_the_requested_tolerance() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        for &eps in &[1e-3, 1e-6] {
            let res = uniformization_until(
                &m,
                &phi,
                &psi,
                2.0,
                2000.0,
                2,
                UniformOptions::new(),
                AdaptiveOptions::new(eps),
            )
            .unwrap();
            assert!(
                res.budget.total() <= eps,
                "eps = {eps}: budget {}",
                res.budget.total()
            );
            // Example 3.6 closed form: the answer itself must be right.
            assert!((res.probability - 0.15789).abs() < eps + 1e-3);
        }
    }

    #[test]
    fn unreachable_tolerance_reports_the_achieved_bound() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        // 1e-16 sits below the floating-point accumulation floor of the
        // Omega fold (~1e-13 here): no truncation refinement can reach it,
        // and the stall detector must stop the loop with the achieved bound.
        let err = uniformization_until(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            UniformOptions::new(),
            AdaptiveOptions::new(1e-16).with_max_rounds(6),
        )
        .unwrap_err();
        match err {
            NumericsError::ToleranceNotMet {
                requested,
                achieved,
            } => {
                assert_eq!(requested, 1e-16);
                assert!(achieved > 1e-16 && achieved <= 1.0, "achieved {achieved}");
            }
            other => panic!("expected ToleranceNotMet, got {other:?}"),
        }
    }

    #[test]
    fn all_states_driver_bounds_every_state() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let all = uniformization_until_all(
            &m,
            &phi,
            &psi,
            1.0,
            2000.0,
            UniformOptions::new(),
            AdaptiveOptions::new(1e-6),
        )
        .unwrap();
        assert_eq!(all.len(), m.num_states());
        for (s, r) in all.iter().enumerate() {
            assert!(r.budget.total() <= 1e-6, "state {s}: {}", r.budget.total());
        }
    }

    #[test]
    fn discretization_driver_refines_the_step() {
        // Reward-free two-state chain: the exact answer is 1 − e^{−2t}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let res = discretization_until(
            &m,
            &phi,
            &psi,
            1.0,
            10.0,
            0,
            // Deliberately unstable base step: the driver must clamp it.
            DiscretizationOptions::with_step(5.0),
            AdaptiveOptions::new(1e-3).with_max_rounds(16),
        )
        .unwrap();
        assert!(res.budget.total() <= 1e-3, "{}", res.budget.total());
        let exact = 1.0 - (-2.0f64).exp();
        assert!(
            (res.probability - exact).abs() <= res.budget.total(),
            "{} vs {exact} (budget {})",
            res.probability,
            res.budget.total()
        );
    }

    /// Collects the `(time_steps, step)` of every discretization grid run.
    #[derive(Default)]
    struct Grids(std::sync::Mutex<Vec<(u64, f64)>>);

    impl mrmc_obs::Recorder for Grids {
        fn record(&self, event: &mrmc_obs::Event) {
            if let mrmc_obs::Event::DiscretizationGrid {
                time_steps, step, ..
            } = *event
            {
                self.0.lock().unwrap().push((time_steps, step));
            }
        }
    }

    #[test]
    fn every_discretization_round_ends_the_grid_at_t() {
        // WaveLAN's largest exit rate is 15: the clamped step 1/15 is 28.5
        // steps into t = 1.9, and running round(28.5) = 29 such steps would
        // end the grid at t ≈ 1.933.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let t = 1.9;
        let grids = Arc::new(Grids::default());
        let res = mrmc_obs::with_recorder(grids.clone(), || {
            discretization_until(
                &m,
                &phi,
                &psi,
                t,
                100.0,
                2,
                DiscretizationOptions::with_step(1.0),
                AdaptiveOptions::new(1e-12).with_max_rounds(3),
            )
        });
        assert!(matches!(res, Err(NumericsError::ToleranceNotMet { .. })));
        let grids = grids.0.lock().unwrap();
        assert_eq!(grids.len(), 3);
        assert_eq!(grids[0].0, 29);
        for &(time_steps, d) in grids.iter() {
            assert!(
                d <= 1.0 / 15.0 && (time_steps as f64 * d - t).abs() <= 1e-12 * t,
                "{time_steps} steps of {d} end at {}",
                time_steps as f64 * d
            );
        }
    }

    #[test]
    fn many_state_discretization_driver_matches_the_one_state_driver() {
        let m = wavelan();
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("busy");
        let states: Vec<usize> = (0..m.num_states()).collect();
        let run = |states: &[usize], adaptive: AdaptiveOptions| {
            discretization_until_states(
                &m,
                &phi,
                &psi,
                0.5,
                300.0,
                states,
                DiscretizationOptions::with_step(1.0 / 16.0),
                adaptive,
            )
        };
        // Met for every state: each keeps its own first passing round.
        let adaptive = AdaptiveOptions::new(1e-2);
        let all = run(&states, adaptive).unwrap();
        for (&s, res) in states.iter().zip(&all) {
            let alone = run(&[s], adaptive).unwrap().remove(0);
            assert_eq!(res, &alone, "state {s}");
            assert_eq!(res.probability.to_bits(), alone.probability.to_bits());
        }
        assert!(all.iter().any(|r| r.time_steps != all[0].time_steps));
        // Not met for some: the first failing state's error is reported.
        let adaptive = AdaptiveOptions::new(1e-4).with_max_rounds(2);
        let first_failure = states
            .iter()
            .find_map(|&s| run(&[s], adaptive).err())
            .expect("some state misses 1e-4 in two rounds");
        let err = run(&states, adaptive).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{first_failure:?}"));
    }

    #[test]
    fn simulation_driver_sizes_samples_by_hoeffding() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        // No tolerance: the base count stands.
        assert_eq!(simulation_samples(1_000, None).unwrap(), 1_000);
        let samples = simulation_samples(1_000, Some(5e-3)).unwrap();
        assert!(samples >= monte_carlo::hoeffding_samples(5e-3, SIMULATION_DELTA).unwrap());
        let opts = monte_carlo::SimulationOptions::with_samples(samples);
        let est = monte_carlo::estimate_until(&m, &phi, &psi, 1.0, f64::INFINITY, 0, opts).unwrap();
        assert!(est.hoeffding_radius(SIMULATION_DELTA) <= 5e-3);
        // A larger base count is never lowered.
        assert_eq!(
            simulation_samples(5_000_000, Some(5e-3)).unwrap(),
            5_000_000
        );
        // A tolerance needing more than the cap fails upfront.
        let err = simulation_samples(1_000, Some(1e-6)).unwrap_err();
        assert!(matches!(err, NumericsError::ToleranceNotMet { .. }));
    }

    #[test]
    fn bad_adaptive_parameters_rejected() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        for eps in [0.0, 1.0, -1e-3, f64::NAN] {
            assert!(matches!(
                uniformization_until(
                    &m,
                    &phi,
                    &psi,
                    1.0,
                    100.0,
                    2,
                    UniformOptions::new(),
                    AdaptiveOptions::new(eps),
                ),
                Err(NumericsError::InvalidParameter {
                    name: "tolerance",
                    ..
                })
            ));
        }
        assert!(matches!(
            uniformization_until(
                &m,
                &phi,
                &psi,
                1.0,
                100.0,
                2,
                UniformOptions::new(),
                AdaptiveOptions::new(1e-3).with_max_rounds(0),
            ),
            Err(NumericsError::InvalidParameter {
                name: "max_rounds",
                ..
            })
        ));
    }
}
