//! Model checking until formulas (Section 4.3.2, Algorithm 4.5).
//!
//! [`UntilEngine::route`] decides the method from the bound shape,
//! following the thesis' property classes, and [`until_probabilities`]
//! runs it:
//!
//! * **P0** `Φ U Ψ` (no bounds) — a linear system over the embedded DTMC
//!   (Eq. 3.8);
//! * **P1** `Φ U^{[0,t]} Ψ` (time only) — Fox–Glynn uniformization
//!   (`[Bai03]`, [`mrmc_numerics::baseline`]), with two phases for a
//!   time lower bound;
//! * **P2** `Φ U^{[0,t]}_{[0,r]} Ψ` (time and reward) — the uniformization
//!   path engine or discretization, per the configured [`UntilEngine`].
//!
//! General lower bounds are not supported by the numerical methods (the
//! thesis' Chapter 6 limitation) and yield
//! [`CheckError::UnsupportedBounds`] — except under the
//! [`UntilEngine::Simulation`] engine, whose trajectory-level semantics
//! evaluate arbitrary closed intervals exactly (statistical model
//! checking; see [`mrmc_numerics::monte_carlo::estimate_until_general`]).

use mrmc_analysis::dataflow as qual;
use mrmc_csrl::Interval;
use mrmc_ctmc::reach;
use mrmc_numerics::monte_carlo::{Estimate, SimulationOptions};
use mrmc_numerics::{
    adaptive, baseline, discretization, monte_carlo, uniformization, ErrorBudget, UntilEngine,
    UntilRoute,
};

use crate::error::CheckError;
use crate::outcome::{DataflowInfo, OperatorResult};
use crate::sat::Ctx;

/// Compute `P^M(s, Φ U^I_J Ψ)` for every state by the method the
/// configured engine's [`UntilRoute`] names: `"reachability"` (P0),
/// `"baseline"` (P1 and trivial-reward windows), or the configured engine
/// (P2 and simulated general bounds).
///
/// # Errors
///
/// [`CheckError::UnsupportedBounds`] for a route no engine supports;
/// numerical failures are propagated.
pub(crate) fn until_probabilities(
    ctx: &Ctx<'_>,
    time: &Interval,
    reward: &Interval,
    phi: &[bool],
    psi: &[bool],
) -> Result<OperatorResult, CheckError> {
    let Ctx { mrm, options, .. } = *ctx;
    if let Some(eps) = options.tolerance {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(CheckError::Numerics(
                mrmc_numerics::NumericsError::InvalidParameter {
                    name: "tolerance",
                    value: eps,
                    requirement: "must be in (0, 1)",
                },
            ));
        }
    }
    let n = mrm.num_states();
    // The Fox–Glynn truncation ε' of each of a baseline route's `phases`;
    // a requested tolerance tightens it directly, so these routes always
    // meet it.
    let baseline_eps = |phases: f64| match options.tolerance {
        Some(eps) => options.transient_epsilon.min(eps / phases),
        None => options.transient_epsilon,
    };
    let route = options.until_engine.route(time, reward);
    match route {
        // P0: Φ U Ψ — unbounded reachability over the embedded DTMC. The
        // direct solve certifies a rounding-error bound per state, which
        // becomes the float-accumulation budget; the Gauss–Seidel fallback
        // for systems too wide to factor bounds nothing (no budget).
        UntilRoute::Reachability => {
            let _span = mrmc_obs::span("until/reachability");
            let df = dataflow_prepass(ctx, route, phi, psi);
            let embedded = mrm.ctmc().embedded_dtmc();
            // The certificate's certain-one set enlarges the solver's
            // sure set: those states are pre-assigned probability 1 and
            // the linear system covers only the undetermined block. With
            // nothing pruned the sure set *is* Ψ and the run is bitwise
            // identical to an unsliced one.
            let one = df.as_ref().map_or(psi, |(cert, _)| &cert.one);
            let reach = reach::until_unbounded_certified(
                embedded.probabilities(),
                phi,
                psi,
                one,
                options.solver,
            )?;
            Ok(OperatorResult {
                budgets: reach.error_bounds.map(|bounds| {
                    bounds
                        .into_iter()
                        .map(ErrorBudget::from_float_accumulation)
                        .collect()
                }),
                dataflow: df.map(|(_, info)| info),
                ..OperatorResult::new(reach.probabilities, "reachability")
            })
        }
        // P1: time bound only — the state-reward-free baseline suffices,
        // regardless of the configured engine. The Fox–Glynn window is
        // truncated at ε', which IS the budget.
        UntilRoute::TimeBounded { t } => {
            let _span = mrmc_obs::span("until/baseline");
            let eps_used = baseline_eps(1.0);
            let probabilities = baseline::until_time_bounded(mrm, phi, psi, t, eps_used)?;
            Ok(OperatorResult {
                budgets: Some(vec![ErrorBudget::from_poisson_tail(eps_used); n]),
                ..OperatorResult::new(probabilities, "baseline")
            })
        }
        // A time window with a trivial reward bound: the standard
        // two-phase decomposition ([Bai03]). Two Fox–Glynn phases, each
        // truncated at ε': the budget is their sum.
        UntilRoute::TimeInterval { t1, t2 } => {
            let eps_used = baseline_eps(2.0);
            let _span = mrmc_obs::span("until/baseline");
            let probabilities = baseline::until_time_interval(mrm, phi, psi, t1, t2, eps_used)?;
            Ok(OperatorResult {
                budgets: Some(vec![ErrorBudget::from_poisson_tail(2.0 * eps_used); n]),
                ..OperatorResult::new(probabilities, "baseline")
            })
        }
        // Φ U^{[t1,∞)} Ψ: unbounded reachability as phase 2, the
        // Φ-constrained backward transient as phase 1. Phase 2's bound is
        // not carried through phase 1 — no budget is claimed.
        UntilRoute::TimeFrom { t1 } => {
            let _span = mrmc_obs::span("until/baseline");
            let embedded = mrm.ctmc().embedded_dtmc();
            let mut u = reach::until_unbounded(embedded.probabilities(), phi, psi, options.solver)?;
            for (s, value) in u.iter_mut().enumerate() {
                if !phi[s] {
                    *value = 0.0;
                }
            }
            let probabilities =
                baseline::phi_constrained_backward(mrm, phi, u, t1, options.transient_epsilon)?;
            Ok(OperatorResult::new(probabilities, "baseline"))
        }
        // P2: time and reward bounds — run the configured engine for every
        // state, under the adaptive driver when a tolerance was requested.
        UntilRoute::RewardBounded { t, r } => {
            let df = dataflow_prepass(ctx, route, phi, psi);
            // Certain-zero states contribute exactly 0 — the slicer skips
            // them (discretization/simulation) or makes them absorbing
            // (uniformization's φ′) and folds the sliced-away mass, which
            // is exactly zero by the verified certificate, into a zero
            // error budget. With nothing pruned φ′ equals Φ bitwise and
            // the skip set equals the engines' own dead-state skip.
            let zero_sliced = |s: usize| matches!(&df, Some((cert, _)) if cert.zero[s]);
            let result = match options.until_engine {
                UntilEngine::Uniformization(uopts) => {
                    let _span = mrmc_obs::span("until/uniformization");
                    // φ′ = Φ ∧ ¬certain-zero: dead subtrees become
                    // absorbing, so path exploration never descends into
                    // regions the certificate proved irrelevant.
                    let phi_sliced: Vec<bool> = (0..n).map(|s| phi[s] && !zero_sliced(s)).collect();
                    let results = match options.tolerance {
                        Some(eps) => adaptive::uniformization_until_all(
                            mrm,
                            &phi_sliced,
                            psi,
                            t,
                            r,
                            uopts,
                            adaptive::AdaptiveOptions::new(eps),
                        )?,
                        None => uniformization::until_probabilities_all(
                            mrm,
                            &phi_sliced,
                            psi,
                            t,
                            r,
                            uopts,
                        )?,
                    };
                    OperatorResult {
                        error_bounds: Some(results.iter().map(|r| r.error_bound).collect()),
                        budgets: Some(results.iter().map(|r| r.budget).collect()),
                        ..OperatorResult::new(
                            results.iter().map(|r| r.probability).collect(),
                            "uniformization",
                        )
                    }
                }
                UntilEngine::Discretization(dopts) => {
                    let _span = mrmc_obs::span("until/discretization");
                    // One backward sweep answers every start state;
                    // certain-zero and ¬Φ∧¬Ψ states are not read from it
                    // and keep probability 0 with a zero budget.
                    let states: Vec<usize> = (0..n)
                        .filter(|&s| !zero_sliced(s) && (phi[s] || psi[s]))
                        .collect();
                    let results = match options.tolerance {
                        Some(eps) => adaptive::discretization_until_states(
                            mrm,
                            phi,
                            psi,
                            t,
                            r,
                            &states,
                            dopts,
                            adaptive::AdaptiveOptions::new(eps),
                        )?,
                        None if states.is_empty() => Vec::new(),
                        None => {
                            let all = discretization::until_probabilities_all(
                                mrm, phi, psi, t, r, dopts,
                            )?;
                            states.iter().map(|&s| all[s].clone()).collect()
                        }
                    };
                    let mut probabilities = vec![0.0; n];
                    let mut budgets = vec![ErrorBudget::zero(); n];
                    for (&s, res) in states.iter().zip(results) {
                        probabilities[s] = res.probability;
                        budgets[s] = res.budget;
                    }
                    OperatorResult {
                        budgets: Some(budgets),
                        ..OperatorResult::new(probabilities, "discretization")
                    }
                }
                UntilEngine::Simulation(sopts) => simulate(
                    ctx,
                    sopts,
                    |s| !zero_sliced(s) && (phi[s] || psi[s]),
                    |s, opts| monte_carlo::estimate_until(mrm, phi, psi, t, r, s, opts),
                )?,
            };
            Ok(OperatorResult {
                dataflow: df.map(|(_, info)| info),
                ..result
            })
        }
        // A lower bound with a reward bound: only the statistical engine
        // evaluates it.
        UntilRoute::Simulated(sopts) => simulate(
            ctx,
            sopts,
            |s| phi[s] || psi[s],
            |s, opts| monte_carlo::estimate_until_general(mrm, phi, psi, time, reward, s, opts),
        ),
        UntilRoute::Unsupported(why) => Err(CheckError::UnsupportedBounds { what: why.what() }),
    }
}

/// The simulation engine: `estimate` samples each state `live` admits,
/// with the sample count the requested tolerance calls for and a seed
/// de-correlated per state (and still deterministic). Other states keep
/// probability 0 with a zero budget. The error-bound slot holds the
/// standard errors, which are statistical, not guaranteed bounds; the
/// budget carries the distribution-free Hoeffding radius.
fn simulate(
    ctx: &Ctx<'_>,
    mut sopts: SimulationOptions,
    live: impl Fn(usize) -> bool,
    estimate: impl Fn(usize, SimulationOptions) -> Result<Estimate, mrmc_numerics::NumericsError>,
) -> Result<OperatorResult, CheckError> {
    let _span = mrmc_obs::span("until/simulation");
    sopts.samples = adaptive::simulation_samples(sopts.samples, ctx.options.tolerance)?;
    let radius = monte_carlo::hoeffding_radius(sopts.samples, adaptive::SIMULATION_DELTA);
    let n = ctx.mrm.num_states();
    let mut probabilities = vec![0.0; n];
    let mut errors = vec![0.0; n];
    let mut budgets = vec![ErrorBudget::zero(); n];
    for s in (0..n).filter(|&s| live(s)) {
        let est = estimate(s, sopts.with_seed(sopts.seed.wrapping_add(s as u64)))?;
        probabilities[s] = est.mean;
        errors[s] = est.std_error;
        budgets[s] = ErrorBudget::from_statistical(radius);
    }
    Ok(OperatorResult {
        error_bounds: Some(errors),
        budgets: Some(budgets),
        ..OperatorResult::new(probabilities, "simulation")
    })
}

/// The qualitative dataflow pre-pass for one until operator on a route
/// that [`slices`](UntilRoute::slices): the model's condensation (served
/// from the session's [`SccCache`](crate::cache::SccCache)), the
/// Prob0/Prob1 fixpoints, and the certificate — **independently
/// re-verified** before any engine may prune with it.
///
/// `None` when slicing is off, and — mirroring the lumping `Auto`
/// fallback — when re-verification fails: the engines then solve the
/// full model, trading the pruning for safety.
fn dataflow_prepass(
    ctx: &Ctx<'_>,
    route: UntilRoute,
    phi: &[bool],
    psi: &[bool],
) -> Option<(qual::QualitativeCertificate, DataflowInfo)> {
    let Ctx { mrm, options, memo } = *ctx;
    if !options.slicing || !route.slices() {
        return None;
    }
    let scc = memo.condensation(mrm);
    let cert = qual::qualitative_until(mrm, phi, psi, route == UntilRoute::Reachability);
    if cert.verify(mrm).is_err() {
        return None;
    }
    let info = DataflowInfo {
        scc_count: scc.num_components(),
        qual_zero_states: cert.zero_count(),
        qual_one_states: cert.one_count(),
        slice_states_removed: cert.slice_states_removed(),
        certificate_hash: cert.content_hash(),
    };
    for (name, value) in info.counts() {
        mrmc_obs::count(name, value as u64);
    }
    Some((cert, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{model_hash, Caches};
    use crate::options::CheckOptions;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::Mrm;
    use mrmc_numerics::uniformization::UniformOptions;

    /// [`until_probabilities`] on a fresh memo.
    fn until(
        mrm: &Mrm,
        options: &CheckOptions,
        time: &Interval,
        reward: &Interval,
        phi: &[bool],
        psi: &[bool],
    ) -> Result<OperatorResult, CheckError> {
        let caches = Caches::default();
        let ctx = Ctx {
            mrm,
            options,
            memo: caches.memo(model_hash(mrm), options),
        };
        until_probabilities(&ctx, time, reward, phi, psi)
    }

    fn triangle() -> Mrm {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(0, 2, 0.5)
            .transition(1, 2, 2.0);
        b.label(0, "a").label(1, "a").label(2, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn p0_unbounded_until() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let a = until(
            &m,
            &CheckOptions::new(),
            &Interval::unbounded(),
            &Interval::unbounded(),
            &phi,
            &psi,
        )
        .unwrap();
        // Everything eventually reaches the absorbing goal.
        for (s, p) in a.probabilities.iter().enumerate() {
            assert!((p - 1.0).abs() < 1e-9, "state {s}");
        }
        assert!(a.error_bounds.is_none());
    }

    #[test]
    fn p1_time_bounded_until() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let a = until(
            &m,
            &CheckOptions::new(),
            &Interval::upto(1.0),
            &Interval::unbounded(),
            &phi,
            &psi,
        )
        .unwrap();
        // From state 1: 1 − e^{−2}.
        assert!((a.probabilities[1] - (1.0 - (-2.0f64).exp())).abs() < 1e-9);
        assert!((a.probabilities[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn p2_engines_agree() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let time = Interval::upto(1.0);
        let reward = Interval::upto(100.0);

        let uni_opts = CheckOptions::new().with_engine(UntilEngine::Uniformization(
            UniformOptions::new().with_truncation(1e-12),
        ));
        let u = until(&m, &uni_opts, &time, &reward, &phi, &psi).unwrap();
        assert!(u.error_bounds.is_some());

        let disc_opts = CheckOptions::new().with_engine(UntilEngine::discretization(1.0 / 128.0));
        let d = until(&m, &disc_opts, &time, &reward, &phi, &psi).unwrap();
        for s in 0..3 {
            assert!(
                (u.probabilities[s] - d.probabilities[s]).abs() < 0.01,
                "state {s}: {} vs {}",
                u.probabilities[s],
                d.probabilities[s]
            );
        }
    }

    #[test]
    fn dead_states_skip_the_engine() {
        let m = triangle();
        let phi = vec![false, false, false];
        let psi = vec![false, false, true];
        let a = until(
            &m,
            &CheckOptions::new(),
            &Interval::upto(1.0),
            &Interval::upto(10.0),
            &phi,
            &psi,
        )
        .unwrap();
        assert_eq!(a.probabilities[0], 0.0);
        assert_eq!(a.probabilities[1], 0.0);
        assert!((a.probabilities[2] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn trivial_reward_time_window_uses_the_exact_method() {
        // 0 →(2) goal (absorbing): Pr(tt U^{[0.5,1]} goal) = 1 − e^{−2},
        // computed exactly by the two-phase decomposition (no error bars).
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let window = Interval::new(0.5, 1.0).unwrap();
        let a = until(
            &m,
            &CheckOptions::new(),
            &window,
            &Interval::unbounded(),
            &phi,
            &psi,
        )
        .unwrap();
        assert!(a.error_bounds.is_none());
        let exact = 1.0 - (-2.0f64).exp();
        assert!(
            (a.probabilities[0] - exact).abs() < 1e-9,
            "{} vs {exact}",
            a.probabilities[0]
        );
        assert!((a.probabilities[1] - 1.0).abs() < 1e-9);

        // And the unbounded-upper variant [0.5, ∞): same value here
        // (goal is absorbing and reached almost surely).
        let tail = Interval::new(0.5, f64::INFINITY).unwrap();
        let a = until(
            &m,
            &CheckOptions::new(),
            &tail,
            &Interval::unbounded(),
            &phi,
            &psi,
        )
        .unwrap();
        assert!(
            (a.probabilities[0] - 1.0).abs() < 1e-7,
            "{}",
            a.probabilities[0]
        );
    }

    #[test]
    fn simulation_engine_handles_general_lower_bounds() {
        // A time window *combined with a reward bound* has no exact engine;
        // the simulation engine estimates it. Chain: 0 →(2) goal with
        // ρ(0) = 1: witness needs jump time T ∈ [0, 1] (goal absorbing,
        // reward frozen afterwards) with accumulated reward T·1 ≤ 0.5 at
        // the (arbitrarily late) witness τ ∈ [0.5, 1]… reward stays T, so
        // Pr = Pr{T ≤ 0.5} = 1 − e^{−1}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let ctmc = b.build().unwrap();
        let m = Mrm::new(
            ctmc,
            mrmc_mrm::StateRewards::new(vec![1.0, 0.0]).unwrap(),
            mrmc_mrm::ImpulseRewards::new(),
        )
        .unwrap();
        let phi = vec![true, true];
        let psi = vec![false, true];
        let opts = CheckOptions::new().with_engine(UntilEngine::simulation(60_000));
        let window = Interval::new(0.5, 1.0).unwrap();
        let a = until(&m, &opts, &window, &Interval::upto(0.5), &phi, &psi).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        let se = a.error_bounds.as_ref().unwrap()[0];
        assert!(
            (a.probabilities[0] - exact).abs() <= 4.0 * se + 1e-9,
            "{} ± {se} vs {exact}",
            a.probabilities[0]
        );
    }

    #[test]
    fn unsupported_bounds_are_reported() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        // Time lower bound *with* a reward bound: no exact engine.
        let lower_time = Interval::new(1.0, 2.0).unwrap();
        assert!(matches!(
            until(
                &m,
                &CheckOptions::new(),
                &lower_time,
                &Interval::upto(10.0),
                &phi,
                &psi
            ),
            Err(CheckError::UnsupportedBounds { what })
                if what.starts_with("time lower bound")
        ));
        let lower_reward = Interval::new(0.5, 2.0).unwrap();
        assert!(matches!(
            until(
                &m,
                &CheckOptions::new(),
                &Interval::unbounded(),
                &lower_reward,
                &phi,
                &psi
            ),
            Err(CheckError::UnsupportedBounds { what })
                if what.starts_with("reward lower bound")
        ));
        assert!(matches!(
            until(
                &m,
                &CheckOptions::new(),
                &Interval::unbounded(),
                &Interval::upto(5.0),
                &phi,
                &psi
            ),
            Err(CheckError::UnsupportedBounds { .. })
        ));
    }
}
