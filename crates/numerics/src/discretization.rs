//! Discretization-based evaluation of time- and reward-bounded until
//! (Section 4.4.1 and Algorithm 4.6).
//!
//! Both time and accumulated reward are discretized with the same step `d`.
//! `F^j(s, k)` is the probability density of being in state `s` at time
//! `j·d` with accumulated reward `k·d`; the recursion adds the self term
//! (no transition in the last step) and one term per incoming transition,
//! with the impulse reward shifting the reward index by `ι/d` cells.
//!
//! State rewards must be integers after scaling (the reward index advances
//! by `ρ(s)` cells per step); the engine finds a power-of-ten scale
//! automatically and rescales the bound accordingly.

use mrmc_mrm::{transform::make_absorbing, Mrm};

use crate::budget::ErrorBudget;
use crate::error::NumericsError;

/// Options for the discretization engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscretizationOptions {
    /// The step size `d` (in time units). Must satisfy `d ≤ 1/max_s E(s)` so
    /// `1 − E(s)·d` stays a probability.
    pub step: f64,
    /// Upper bound on the reward grid size (memory guard). Default `5·10^7`
    /// cells per state.
    pub max_cells: usize,
    /// Run a Richardson companion at step `2d` to estimate the
    /// discretization error a posteriori (default). The companion grid is
    /// half as wide and half as deep, so it costs about a quarter of the
    /// main run; disabling it falls back to a coarse a-priori bound.
    pub estimate_error: bool,
}

impl DiscretizationOptions {
    /// Use step size `d` with the default memory guard and a-posteriori
    /// error estimation.
    pub fn with_step(step: f64) -> Self {
        DiscretizationOptions {
            step,
            max_cells: 50_000_000,
            estimate_error: true,
        }
    }

    /// Skip the Richardson companion run; the budget then carries the
    /// coarse a-priori step-error bound instead of the sharper estimate.
    pub fn without_error_estimate(mut self) -> Self {
        self.estimate_error = false;
        self
    }
}

/// The outcome of a discretization run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizationResult {
    /// The computed probability, clamped into `[0, 1]`.
    pub probability: f64,
    /// The error decomposition. `budget.discretization` is the Richardson
    /// step-doubling estimate `2·|P_d − P_{2d}|` when the companion run was
    /// possible (the scheme is first-order, so `P_d − P_{2d} ≈ C·d` and the
    /// doubled gap over-covers the remaining error of `P_d`); otherwise a
    /// coarse a-priori bound `min(E_max²·t·d, 1)`.
    pub budget: ErrorBudget,
    /// Number of time steps `T = t/d` performed.
    pub time_steps: usize,
    /// Number of reward cells `R = r/d` (after scaling).
    pub reward_cells: usize,
    /// The power-of-ten factor applied to make state rewards integral.
    pub reward_scale: f64,
}

/// Find a power-of-ten scale making every reward integral (within `1e-9`
/// relative tolerance).
fn integer_scale(rewards: &[f64]) -> Result<f64, NumericsError> {
    'scales: for exp in 0..=6 {
        let scale = 10f64.powi(exp);
        for &r in rewards {
            let scaled = r * scale;
            if (scaled - scaled.round()).abs() > 1e-9 * (1.0 + scaled.abs()) {
                continue 'scales;
            }
        }
        return Ok(scale);
    }
    let offending = rewards
        .iter()
        .copied()
        .find(|r| {
            let s = r * 1e6;
            (s - s.round()).abs() > 1e-9 * (1.0 + s.abs())
        })
        .unwrap_or(f64::NAN);
    Err(NumericsError::NonIntegerRewards { reward: offending })
}

/// Evaluate `P^M(start, Φ U^{[0,t]}_{[0,r]} Ψ)` by discretization
/// (Algorithm 4.6).
///
/// # Errors
///
/// [`NumericsError`] for size mismatches, an unstable or degenerate step
/// size, rewards that cannot be scaled to integers, or a reward grid
/// exceeding the memory guard.
pub fn until_probability(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    options: DiscretizationOptions,
) -> Result<DiscretizationResult, NumericsError> {
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
    if !(t.is_finite() && t > 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "t",
            value: t,
            requirement: "must be finite and positive",
        });
    }
    if !(r.is_finite() && r >= 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "r",
            value: r,
            requirement: "must be finite and non-negative (use the uniformization engine for unbounded rewards)",
        });
    }
    let d = options.step;
    if !(d.is_finite() && d > 0.0 && d <= t) {
        return Err(NumericsError::InvalidParameter {
            name: "step",
            value: d,
            requirement: "must be positive and at most t",
        });
    }

    // Theorem 4.1: absorb (¬Φ ∨ Ψ)-states, then evaluate
    // Pr{Y(t) ≤ r, X(t) ⊨ Ψ}.
    let _span = mrmc_obs::span("grid");
    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    let absorbed = make_absorbing(mrm, &absorb)?;
    let exit = absorbed.ctmc().exit_rates();
    let max_exit = exit.iter().fold(0.0_f64, |m, &e| m.max(e));
    let stable_limit = if max_exit > 0.0 {
        1.0 / max_exit
    } else {
        f64::INFINITY
    };
    if d > stable_limit {
        return Err(NumericsError::InvalidParameter {
            name: "step",
            value: d,
            requirement: "must be at most 1/max exit rate for stability",
        });
    }

    let scale = integer_scale(absorbed.state_rewards().as_slice())?;
    let grid = GridProblem {
        absorbed: &absorbed,
        psi,
        start,
        t,
        r,
        scale,
        max_cells: options.max_cells,
    };
    let (probability, time_steps, reward_cells) = evolve_grid(&grid, d)?;
    mrmc_obs::record(|| mrmc_obs::Event::DiscretizationGrid {
        time_steps: time_steps as u64,
        reward_cells: reward_cells as u64,
        reward_scale: scale,
        step: d,
    });

    // A-posteriori step error: Richardson companion at 2d where the
    // doubled step is still stable and fits the horizon; otherwise a
    // coarse a-priori bound from the per-step local truncation error
    // O((E·d)²) accumulated over t/d steps.
    let a_priori = (max_exit * max_exit * t * d).min(1.0);
    let discretization = if options.estimate_error && 2.0 * d <= stable_limit && 2.0 * d <= t {
        match evolve_grid(&grid, 2.0 * d) {
            Ok((coarse, _, _)) => 2.0 * (probability - coarse).abs(),
            Err(_) => a_priori,
        }
    } else {
        a_priori
    };
    // Per step, each density cell receives one self term plus the incoming
    // transition terms — first-order rounding model on an O(1) total mass.
    let ops_per_step = 2.0 + absorbed.ctmc().rates().nnz() as f64 / n as f64;
    let budget = ErrorBudget {
        discretization,
        float_accumulation: f64::EPSILON * time_steps as f64 * ops_per_step,
        ..ErrorBudget::zero()
    };

    Ok(DiscretizationResult {
        probability,
        budget,
        time_steps,
        reward_cells,
        reward_scale: scale,
    })
}

/// The fixed part of a discretization run: everything except the step size.
struct GridProblem<'a> {
    absorbed: &'a Mrm,
    psi: &'a [bool],
    start: usize,
    t: f64,
    r: f64,
    scale: f64,
    max_cells: usize,
}

/// One incoming transition of a destination row: source state, `rate·d`,
/// and the reward shift in cells.
#[derive(Debug, Clone, Copy)]
struct Incoming {
    from: usize,
    rate_d: f64,
    shift: usize,
}

/// Compute one destination row of the next grid layer from the current
/// layer: the self term (stay in `to` for another `d` time units) followed
/// by every incoming transition in ascending source order.
#[allow(clippy::too_many_arguments)] // the sweep's full per-row context
fn update_row(
    to: usize,
    dst: &mut [f64],
    current: &[f64],
    width: usize,
    reward_cells: usize,
    stay: f64,
    rho_to: usize,
    incoming: &[Incoming],
) {
    dst.fill(0.0);
    if stay != 0.0 && rho_to <= reward_cells {
        let src = &current[to * width..(to + 1) * width];
        for k in rho_to..width {
            dst[k] += src[k - rho_to] * stay;
        }
    }
    for &Incoming {
        from,
        rate_d,
        shift,
    } in incoming
    {
        if shift > reward_cells {
            continue;
        }
        let src = &current[from * width..(from + 1) * width];
        for k in shift..width {
            dst[k] += src[k - shift] * rate_d;
        }
    }
}

/// Run Algorithm 4.6 on the absorbed model with step `d`, returning the
/// clamped probability, the time-step count and the reward-cell count.
/// Factored out of [`until_probability`] so the Richardson companion can
/// re-run the same problem at `2d`.
///
/// The density grid is one flat `n·width` buffer (state-major), double
/// buffered. Transitions are stored incoming-major, so each destination row
/// of the next layer is one pass over the *current* layer in a fixed order
/// (self term, then sources ascending).
fn evolve_grid(g: &GridProblem<'_>, d: f64) -> Result<(f64, usize, usize), NumericsError> {
    let n = g.absorbed.num_states();
    let exit = g.absorbed.ctmc().exit_rates();
    let cells = ((g.r * g.scale) / d).floor();
    if !(cells.is_finite() && cells >= 0.0) || cells as usize > g.max_cells {
        return Err(NumericsError::InvalidParameter {
            name: "step",
            value: d,
            requirement: "reward grid exceeds the memory guard; increase d or max_cells",
        });
    }
    let reward_cells = cells as usize;
    let time_steps = (g.t / d).round().max(1.0) as usize;

    // Per-state reward advance (cells per step) and stay probability.
    let rho: Vec<usize> = g
        .absorbed
        .state_rewards()
        .as_slice()
        .iter()
        .map(|&x| (x * g.scale).round() as usize)
        .collect();
    let stay: Vec<f64> = exit.iter().map(|&e| 1.0 - e * d).collect();
    // Incoming-major transition lists. `rates.iter()` is row-major (source
    // ascending), so each destination's list comes out sorted by source —
    // the accumulation order `update_row` promises.
    let rates = g.absorbed.ctmc().rates();
    let mut incoming: Vec<Vec<Incoming>> = vec![Vec::new(); n];
    for (from, to, rate) in rates.iter() {
        let shift =
            rho[from] + ((g.absorbed.impulse_reward(from, to) * g.scale) / d).round() as usize;
        incoming[to].push(Incoming {
            from,
            rate_d: rate * d,
            shift,
        });
    }

    // Double-buffered flat density F[s·width + k].
    let width = reward_cells + 1;
    let mut current = vec![0.0f64; n * width];
    let mut next = vec![0.0f64; n * width];
    if rho[g.start] <= reward_cells {
        current[g.start * width + rho[g.start]] = 1.0 / d;
    }

    // Progress is throttled by step count (at most ~100 events per run) so
    // the emitted sequence is reproducible run-to-run.
    let progress_step = (time_steps as u64).div_ceil(100).max(1);
    for step_index in 1..time_steps {
        if (step_index as u64).is_multiple_of(progress_step) {
            mrmc_obs::record(|| mrmc_obs::Event::Progress {
                phase: "grid",
                done: step_index as u64,
                total: time_steps as u64,
            });
        }
        for (to, dst) in next.chunks_mut(width).enumerate() {
            update_row(
                to,
                dst,
                &current,
                width,
                reward_cells,
                stay[to],
                rho[to],
                &incoming[to],
            );
        }
        std::mem::swap(&mut current, &mut next);
    }

    let mut probability = 0.0;
    for (row, &in_psi) in current.chunks(width).zip(g.psi.iter()).take(n) {
        if in_psi {
            probability += row.iter().sum::<f64>() * d;
        }
    }
    Ok((probability.clamp(0.0, 1.0), time_steps, reward_cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{self, UniformOptions};
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
    fn example_3_6_by_discretization() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let res = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            DiscretizationOptions::with_step(1.0 / 64.0),
        )
        .unwrap();
        // Closed form 0.15789; discretization error is O(d).
        assert!(
            (res.probability - 0.15789).abs() < 0.02,
            "got {}",
            res.probability
        );
        assert_eq!(res.time_steps, 128);
    }

    #[test]
    fn halving_d_converges_toward_uniformization() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let reference = uniformization::until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            UniformOptions::new().with_truncation(1e-13),
        )
        .unwrap()
        .probability;

        let mut errors = Vec::new();
        for &d in &[1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0] {
            let p = until_probability(
                &m,
                &phi,
                &psi,
                2.0,
                2000.0,
                2,
                DiscretizationOptions::with_step(d),
            )
            .unwrap()
            .probability;
            errors.push((p - reference).abs());
        }
        assert!(
            errors[2] < errors[0],
            "errors should shrink with d: {errors:?}"
        );
        assert!(errors[2] < 0.01, "final error too large: {errors:?}");
    }

    #[test]
    fn reward_free_model_matches_exponential() {
        // 0 →(2) 1 absorbing, no rewards: P(tt U^[0,t]_[0,r] goal) with any
        // r ≥ 0 equals 1 − e^{−2t}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let res = until_probability(
            &m,
            &phi,
            &psi,
            1.0,
            10.0,
            0,
            DiscretizationOptions::with_step(1.0 / 256.0),
        )
        .unwrap();
        let expect = 1.0 - (-2.0f64).exp();
        assert!(
            (res.probability - expect).abs() < 0.01,
            "{}",
            res.probability
        );
    }

    #[test]
    fn fractional_rewards_are_scaled() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        b.label(1, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.25, 0.0]).unwrap();
        let m = Mrm::new(ctmc, rho, ImpulseRewards::new()).unwrap();
        let phi = vec![true, true];
        let psi = vec![false, true];
        let res = until_probability(
            &m,
            &phi,
            &psi,
            1.0,
            100.0,
            0,
            DiscretizationOptions::with_step(1.0 / 64.0),
        )
        .unwrap();
        assert_eq!(res.reward_scale, 100.0);
        assert!(res.probability > 0.5);
    }

    #[test]
    fn irrational_rewards_rejected() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![std::f64::consts::PI, 0.0]).unwrap();
        let m = Mrm::new(ctmc, rho, ImpulseRewards::new()).unwrap();
        let phi = vec![true, true];
        let psi = vec![false, true];
        assert!(matches!(
            until_probability(
                &m,
                &phi,
                &psi,
                1.0,
                10.0,
                0,
                DiscretizationOptions::with_step(0.1),
            ),
            Err(NumericsError::NonIntegerRewards { .. })
        ));
    }

    #[test]
    fn unstable_step_rejected() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        // max exit rate of the absorbed model is 14.25: d = 0.1 > 1/14.25.
        assert!(matches!(
            until_probability(
                &m,
                &phi,
                &psi,
                2.0,
                100.0,
                2,
                DiscretizationOptions::with_step(0.1),
            ),
            Err(NumericsError::InvalidParameter { name: "step", .. })
        ));
    }

    #[test]
    fn bad_parameters_rejected() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let opts = DiscretizationOptions::with_step(0.01);
        assert!(until_probability(&m, &phi, &psi, 0.0, 1.0, 2, opts).is_err());
        assert!(until_probability(&m, &phi, &psi, 1.0, f64::INFINITY, 2, opts).is_err());
        assert!(until_probability(&m, &phi, &psi, 1.0, -1.0, 2, opts).is_err());
        assert!(until_probability(&m, &[true], &psi, 1.0, 1.0, 2, opts).is_err());
        assert!(until_probability(&m, &phi, &psi, 1.0, 1.0, 99, opts).is_err());
        // Step larger than t.
        assert!(until_probability(
            &m,
            &phi,
            &psi,
            0.001,
            1.0,
            2,
            DiscretizationOptions::with_step(0.01)
        )
        .is_err());
    }

    #[test]
    fn memory_guard_triggers() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let mut opts = DiscretizationOptions::with_step(0.01);
        opts.max_cells = 10;
        assert!(matches!(
            until_probability(&m, &phi, &psi, 2.0, 2000.0, 2, opts),
            Err(NumericsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn tight_reward_bound_suppresses_probability() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let tight = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            1.0,
            2,
            DiscretizationOptions::with_step(1.0 / 64.0),
        )
        .unwrap()
        .probability;
        // Idle earns 1319/h: reward 1 is exhausted almost immediately.
        assert!(tight < 0.01, "tight = {tight}");
    }
}
