//! Monte-Carlo simulation of reward models — an engine-independent
//! validation path.
//!
//! The thesis establishes correctness by agreement between uniformization
//! and discretization (§5.3.3); this module adds a third, structurally
//! unrelated estimator: direct simulation of the CTMC race semantics with
//! reward accumulation along the sampled trajectory. The integration tests
//! cross-check all three.

use mrmc_sparse::rng::Xoshiro256StarStar;

use mrmc_csrl::Interval;
use mrmc_mrm::{Mrm, TimedPath};

use crate::error::NumericsError;
use crate::path_semantics;

/// Options for the simulation estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationOptions {
    /// Number of independent trajectories.
    pub samples: u64,
    /// RNG seed (estimates are deterministic per seed).
    pub seed: u64,
}

impl SimulationOptions {
    /// `samples` trajectories from a fixed default seed.
    pub fn with_samples(samples: u64) -> Self {
        SimulationOptions {
            samples,
            seed: 0x5EED_CAFE,
        }
    }

    /// Change the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A simulation estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of samples used.
    pub samples: u64,
}

impl Estimate {
    /// `true` when `value` lies within `sigmas` standard errors of the
    /// mean — the acceptance test used when validating the numerical
    /// engines.
    pub fn is_consistent_with(&self, value: f64, sigmas: f64) -> bool {
        (value - self.mean).abs() <= sigmas * self.std_error + 1e-12
    }

    /// The distribution-free Hoeffding radius of this estimate at
    /// confidence `1 − delta`: `Pr{|mean − p| ≥ radius} ≤ delta` for *any*
    /// Bernoulli parameter `p`, with no normality assumption. This is the
    /// value the simulation engine reports in its statistical budget
    /// component.
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        hoeffding_radius(self.samples, delta)
    }

    /// The Wilson score interval `(lo, hi)` at `z` standard normal
    /// quantiles — sharper than Hoeffding near 0 and 1, used by the
    /// oracle-backed validation tests.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        let n = self.samples as f64;
        let z2 = z * z;
        let center = (self.mean + z2 / (2.0 * n)) / (1.0 + z2 / n);
        let half = (z / (1.0 + z2 / n))
            * ((self.mean * (1.0 - self.mean) / n) + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

/// Hoeffding radius for a Bernoulli mean over `samples` draws at
/// confidence `1 − delta`: `√(ln(2/δ) / 2n)`.
pub fn hoeffding_radius(samples: u64, delta: f64) -> f64 {
    ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
}

/// The smallest sample count whose Hoeffding radius is at most `epsilon`
/// at confidence `1 − delta`: `⌈ln(2/δ) / 2ε²⌉`. Returns `None` when the
/// count would overflow practical limits (> 2^53).
pub fn hoeffding_samples(epsilon: f64, delta: f64) -> Option<u64> {
    if !(epsilon > 0.0 && delta > 0.0 && delta < 1.0) {
        return None;
    }
    let n = ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil();
    if n.is_finite() && n <= 9.0e15 {
        Some(n.max(1.0) as u64)
    } else {
        None
    }
}

fn validate(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    options: &SimulationOptions,
) -> Result<(), NumericsError> {
    let n = mrm.num_states();
    if phi.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: phi.len(),
        });
    }
    if psi.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: psi.len(),
        });
    }
    if start >= n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: start,
        });
    }
    if !(t.is_finite() && t >= 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "t",
            value: t,
            requirement: "must be finite and non-negative",
        });
    }
    if r.is_nan() || r < 0.0 {
        return Err(NumericsError::InvalidParameter {
            name: "r",
            value: r,
            requirement: "must be non-negative",
        });
    }
    if options.samples == 0 {
        return Err(NumericsError::InvalidParameter {
            name: "samples",
            value: 0.0,
            requirement: "must be positive",
        });
    }
    Ok(())
}

/// Sample one sojourn time from `Exp(rate)`.
fn sample_exp(rng: &mut Xoshiro256StarStar, rate: f64) -> f64 {
    // Inverse CDF on (0, 1]; `1 - gen::<f64>()` avoids ln(0).
    -(1.0 - rng.next_f64()).ln() / rate
}

/// Pick the successor of `state` according to the race semantics.
fn sample_next_state(mrm: &Mrm, rng: &mut Xoshiro256StarStar, state: usize, exit: f64) -> usize {
    let mut u = rng.next_f64() * exit;
    let mut last = state;
    for (target, rate) in mrm.ctmc().rates().row(state) {
        last = target;
        if u < rate {
            return target;
        }
        u -= rate;
    }
    // Floating-point slack lands on the final transition.
    last
}

/// Simulate one trajectory and report whether it satisfies
/// `Φ U^{[0,t]}_{[0,r]} Ψ`.
fn simulate_until(
    mrm: &Mrm,
    rng: &mut Xoshiro256StarStar,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
) -> bool {
    let mut state = start;
    let mut time = 0.0;
    let mut reward = 0.0;
    loop {
        // Reward only grows along a trajectory, so one failed bound check
        // is terminal.
        if reward > r {
            return false;
        }
        if psi[state] {
            return true;
        }
        if !phi[state] {
            return false;
        }
        let exit = mrm.ctmc().exit_rate(state);
        if exit == 0.0 {
            return false; // absorbing non-Ψ state
        }
        let sojourn = sample_exp(rng, exit);
        if time + sojourn > t {
            return false; // the deadline passes during this sojourn
        }
        time += sojourn;
        reward += mrm.state_reward(state) * sojourn;
        let next = sample_next_state(mrm, rng, state, exit);
        reward += mrm.impulse_reward(state, next);
        state = next;
    }
}

/// Estimate `P^M(start, Φ U^{[0,t]}_{[0,r]} Ψ)` by simulation.
///
/// ```
/// use mrmc_numerics::monte_carlo::{estimate_until, SimulationOptions};
///
/// // up --(2.0)--> down: Pr(tt U^{[0,1]} down) = 1 − e^{−2} ≈ 0.8647.
/// let mut b = mrmc_ctmc::CtmcBuilder::new(2);
/// b.transition(0, 1, 2.0);
/// let mrm = mrmc_mrm::Mrm::without_rewards(b.build()?);
/// let est = estimate_until(
///     &mrm, &[true, true], &[false, true], 1.0, f64::INFINITY, 0,
///     SimulationOptions::with_samples(20_000),
/// )?;
/// assert!(est.is_consistent_with(1.0 - (-2.0f64).exp(), 4.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`NumericsError`] for size mismatches or invalid parameters.
pub fn estimate_until(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    options: SimulationOptions,
) -> Result<Estimate, NumericsError> {
    validate(mrm, phi, psi, t, r, start, &options)?;
    let mut rng = Xoshiro256StarStar::seed_from_u64(options.seed);
    let mut hits = 0u64;
    for _ in 0..options.samples {
        if simulate_until(mrm, &mut rng, phi, psi, t, r, start) {
            hits += 1;
        }
    }
    let n = options.samples as f64;
    let mean = hits as f64 / n;
    Ok(Estimate {
        mean,
        std_error: (mean * (1.0 - mean) / n).sqrt(),
        samples: options.samples,
    })
}

/// Sample one trajectory up to `horizon` as a [`TimedPath`] (the final
/// recorded state holds the remainder), drawing from a shared RNG.
fn sample_path_with(
    mrm: &Mrm,
    rng: &mut Xoshiro256StarStar,
    start: usize,
    horizon: f64,
) -> TimedPath {
    let mut states = vec![start];
    let mut sojourns = Vec::new();
    let mut time = 0.0;
    loop {
        let state = *states.last().expect("non-empty");
        let exit = mrm.ctmc().exit_rate(state);
        if exit == 0.0 {
            break;
        }
        let sojourn = sample_exp(rng, exit);
        if time + sojourn >= horizon {
            break;
        }
        time += sojourn;
        sojourns.push(sojourn);
        states.push(sample_next_state(mrm, rng, state, exit));
    }
    TimedPath::new(states, sojourns).expect("sampled path is well-formed")
}

/// Statistically estimate `P^M(start, Φ U^I_J Ψ)` for **general** closed
/// intervals `I` and `J` — including the time/reward *lower* bounds the
/// thesis leaves as future work (Chapter 6). Each sampled trajectory is
/// evaluated exactly by [`path_semantics::until_holds`].
///
/// # Errors
///
/// [`NumericsError::UnsupportedBounds`] when `sup I = ∞` (a sampled
/// trajectory cannot certify an unbounded-time until unless it ends in an
/// absorbing state, so no finite simulation horizon suffices); size and
/// parameter errors as for [`estimate_until`].
pub fn estimate_until_general(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    time: &Interval,
    reward: &Interval,
    start: usize,
    options: SimulationOptions,
) -> Result<Estimate, NumericsError> {
    validate(mrm, phi, psi, time.lo(), reward.lo(), start, &options)?;
    if time.is_upper_unbounded() {
        return Err(NumericsError::UnsupportedBounds {
            what: "unbounded time horizon in the statistical checker",
        });
    }
    let horizon = (time.hi() * 1.0000001).max(1e-9);
    let mut rng = Xoshiro256StarStar::seed_from_u64(options.seed);
    let mut hits = 0u64;
    for _ in 0..options.samples {
        let path = sample_path_with(mrm, &mut rng, start, horizon);
        if path_semantics::until_holds(mrm, &path, phi, psi, time, reward)? {
            hits += 1;
        }
    }
    let n = options.samples as f64;
    let mean = hits as f64 / n;
    Ok(Estimate {
        mean,
        std_error: (mean * (1.0 - mean) / n).sqrt(),
        samples: options.samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{until_probability, UniformOptions};
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    fn two_state(lambda: f64) -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, lambda);
        b.label(1, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn exponential_cdf_recovered() {
        let m = two_state(2.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let est = estimate_until(
            &m,
            &phi,
            &psi,
            1.0,
            f64::INFINITY,
            0,
            SimulationOptions::with_samples(50_000),
        )
        .unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        assert!(
            est.is_consistent_with(exact, 4.0),
            "estimate {} ± {} vs exact {exact}",
            est.mean,
            est.std_error
        );
    }

    #[test]
    fn agrees_with_uniformization_on_reward_bounded_until() {
        // The WaveLAN Example 3.6 setting.
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
        let m = Mrm::new(ctmc, rho, iota).unwrap();

        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        // Tight reward bound so the impulse/rate interplay matters:
        // jump must happen before reward 700 is exhausted.
        let engine = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            700.0,
            2,
            UniformOptions::new()
                .with_truncation(1e-10)
                .with_improved_pruning(),
        )
        .unwrap();
        let est = estimate_until(
            &m,
            &phi,
            &psi,
            2.0,
            700.0,
            2,
            SimulationOptions::with_samples(60_000),
        )
        .unwrap();
        assert!(
            est.is_consistent_with(engine.probability, 4.0),
            "simulation {} ± {} vs engine {}",
            est.mean,
            est.std_error,
            engine.probability
        );
    }

    #[test]
    fn hoeffding_radius_and_sample_count_are_inverses() {
        let (eps, delta) = (1e-2, 1e-6);
        let n = hoeffding_samples(eps, delta).unwrap();
        assert!(hoeffding_radius(n, delta) <= eps);
        assert!(hoeffding_radius(n - 1, delta) > eps);
        // Degenerate requests are refused rather than rounded.
        assert!(hoeffding_samples(0.0, delta).is_none());
        assert!(hoeffding_samples(1e-2, 0.0).is_none());
        assert!(hoeffding_samples(1e-2, 1.0).is_none());
        // 1e-9 would need ~7·10^18 samples: unrepresentable, refused.
        assert!(hoeffding_samples(1e-9, delta).is_none());
    }

    #[test]
    fn confidence_intervals_cover_the_exponential_cdf() {
        let m = two_state(2.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let est = estimate_until(
            &m,
            &phi,
            &psi,
            1.0,
            f64::INFINITY,
            0,
            SimulationOptions::with_samples(50_000),
        )
        .unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        let radius = est.hoeffding_radius(1e-6);
        assert!(
            (est.mean - exact).abs() <= radius,
            "Hoeffding: {} ± {radius} vs {exact}",
            est.mean
        );
        let (lo, hi) = est.wilson_interval(4.0);
        assert!(
            lo <= exact && exact <= hi,
            "Wilson: [{lo}, {hi}] vs {exact}"
        );
        // Wilson at z = 4 is sharper than Hoeffding at δ = 1e-6 here.
        assert!(hi - lo < 2.0 * radius);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let opts = SimulationOptions::with_samples(1_000).with_seed(7);
        let a = estimate_until(&m, &phi, &psi, 1.0, 1.0, 0, opts).unwrap();
        let b = estimate_until(&m, &phi, &psi, 1.0, 1.0, 0, opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_paths_are_valid() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 2.0)
            .transition(2, 0, 0.5);
        let m = Mrm::without_rewards(b.build().unwrap());
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        for _ in 0..20 {
            let p = sample_path_with(&m, &mut rng, 0, 10.0);
            p.validate_in(&m).unwrap();
            assert!(p.horizon() < 10.0);
            assert_eq!(p.state(0), 0);
        }
    }

    #[test]
    fn sample_path_stops_at_absorbing_state() {
        let m = two_state(100.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let p = sample_path_with(&m, &mut rng, 0, 1000.0);
        assert_eq!(p.last_state(), 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        assert!(estimate_until(
            &m,
            &phi,
            &psi,
            1.0,
            1.0,
            0,
            SimulationOptions::with_samples(0)
        )
        .is_err());
        assert!(estimate_until(
            &m,
            &phi[..1],
            &psi,
            1.0,
            1.0,
            0,
            SimulationOptions::with_samples(10)
        )
        .is_err());
    }
}

#[cfg(test)]
mod general_bounds_tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    fn two_state(lambda: f64) -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, lambda);
        b.label(1, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn general_estimator_matches_the_restricted_one_on_upper_bounds() {
        let m = two_state(2.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let opts = SimulationOptions::with_samples(40_000);
        let restricted = estimate_until(&m, &phi, &psi, 1.0, f64::INFINITY, 0, opts).unwrap();
        let general = estimate_until_general(
            &m,
            &phi,
            &psi,
            &Interval::upto(1.0),
            &Interval::unbounded(),
            0,
            opts,
        )
        .unwrap();
        // Same estimator class; agreement within combined standard errors.
        let tol = 4.0 * (restricted.std_error + general.std_error) + 1e-9;
        assert!(
            (restricted.mean - general.mean).abs() <= tol,
            "{} vs {}",
            restricted.mean,
            general.mean
        );
    }

    #[test]
    fn time_lower_bound_window() {
        // 0 →(λ=2) 1(goal, absorbing): the jump time T ~ Exp(2); the until
        // with I = [a, b] holds iff T ≤ b (goal is absorbing, so being
        // there at max(T, a) works — the witness τ can be any time ≥ T).
        // Pr = 1 − e^{−2b}.
        let m = two_state(2.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let window = Interval::new(0.5, 1.0).unwrap();
        let est = estimate_until_general(
            &m,
            &phi,
            &psi,
            &window,
            &Interval::unbounded(),
            0,
            SimulationOptions::with_samples(60_000),
        )
        .unwrap();
        let exact = 1.0 - (-2.0f64 * 1.0).exp();
        assert!(
            est.is_consistent_with(exact, 4.0),
            "{} ± {} vs {exact}",
            est.mean,
            est.std_error
        );
    }

    #[test]
    fn reward_lower_bound_window() {
        // Same chain with ρ(goal) = 1: after reaching goal the reward grows
        // linearly, so J = [c, ∞) is eventually met whenever the jump
        // happens early enough for the witness to stay inside I = [0, b]:
        // need T + (waiting for reward c) ≤ b with reward earned only in
        // goal ⇒ witness exists iff T + c ≤ b. Pr = 1 − e^{−2(b−c)}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let ctmc = b.build().unwrap();
        let m = Mrm::new(
            ctmc,
            mrmc_mrm::StateRewards::new(vec![0.0, 1.0]).unwrap(),
            mrmc_mrm::ImpulseRewards::new(),
        )
        .unwrap();
        let phi = vec![true, true];
        let psi = vec![false, true];
        let (bound_t, bound_r) = (2.0, 0.5);
        let est = estimate_until_general(
            &m,
            &phi,
            &psi,
            &Interval::upto(bound_t),
            &Interval::new(bound_r, f64::INFINITY).unwrap(),
            0,
            SimulationOptions::with_samples(60_000),
        )
        .unwrap();
        let exact = 1.0 - (-2.0f64 * (bound_t - bound_r)).exp();
        assert!(
            est.is_consistent_with(exact, 4.0),
            "{} ± {} vs {exact}",
            est.mean,
            est.std_error
        );
    }

    #[test]
    fn unbounded_time_rejected() {
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        assert!(matches!(
            estimate_until_general(
                &m,
                &phi,
                &psi,
                &Interval::unbounded(),
                &Interval::unbounded(),
                0,
                SimulationOptions::with_samples(10),
            ),
            Err(NumericsError::UnsupportedBounds { .. })
        ));
    }
}
