//! Discretization-based evaluation of time- and reward-bounded until
//! (Section 4.4.1 and Algorithm 4.6), run backward.
//!
//! Both time and accumulated reward are discretized with the same step `d`.
//! Algorithm 4.6 pushes a density `F^j(s, k)` — the probability density of
//! being in state `s` at time `j·d` with accumulated reward `k·d` — forward
//! from one start state. Its answer `Σ_{s ⊨ Ψ} Σ_k F^T(s, k)·d` is linear in
//! the initial density, so the adjoint recursion computes the same quantity
//! for every start state at once: `G(s, k)` is the probability of ending in
//! a Ψ-state within the remaining steps, starting in `s` with `k` reward
//! cells already spent. It starts from `G(s, k) = [s ⊨ Ψ]` and each step
//! reads the self term (stay in `s` another `d` time units, spending
//! `ρ(s)` cells) and one term per outgoing transition, with the impulse
//! reward shifting the reward index by a further `ι/d` cells; cells past
//! the reward bound read as 0. `P(s) = G(s, ρ(s))`. One sweep therefore
//! costs what one forward run from a single start state cost, and answers
//! all of them.
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
/// (Algorithm 4.6): the sweep of [`until_probabilities_all`], read at
/// `start`, so the two agree bit for bit.
///
/// # Errors
///
/// As for [`until_probabilities_all`], plus a size mismatch when `start`
/// is not a state.
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
    if start >= n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: start,
        });
    }
    let mut all = until_probabilities_all(mrm, phi, psi, t, r, options)?;
    Ok(all.swap_remove(start))
}

/// Evaluate `P^M(s, Φ U^{[0,t]}_{[0,r]} Ψ)` for every state `s` by one
/// backward sweep at step `d` (plus one at `2d` for the Richardson
/// budgets, which stay per state).
///
/// # Errors
///
/// [`NumericsError`] for size mismatches, an unstable or degenerate step
/// size, rewards that cannot be scaled to integers, or a reward grid
/// exceeding the memory guard.
pub fn until_probabilities_all(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    options: DiscretizationOptions,
) -> Result<Vec<DiscretizationResult>, NumericsError> {
    let n = mrm.num_states();
    for len in [phi.len(), psi.len()] {
        if len != n {
            return Err(NumericsError::SizeMismatch {
                expected: n,
                found: len,
            });
        }
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
        t,
        r,
        scale,
        max_cells: options.max_cells,
    };
    let fine = evolve_grid(&grid, d)?;
    mrmc_obs::record(|| mrmc_obs::Event::DiscretizationGrid {
        time_steps: fine.time_steps as u64,
        reward_cells: fine.reward_cells as u64,
        reward_scale: scale,
        step: d,
    });

    // A-posteriori step error: Richardson companion at 2d where the
    // doubled step is still stable and fits the horizon; otherwise a
    // coarse a-priori bound from the per-step local truncation error
    // O((E·d)²) accumulated over t/d steps.
    let a_priori = (max_exit * max_exit * t * d).min(1.0);
    let coarse = if options.estimate_error && 2.0 * d <= stable_limit && 2.0 * d <= t {
        evolve_grid(&grid, 2.0 * d).ok()
    } else {
        None
    };
    // Per step, each value cell receives one self term plus one term per
    // outgoing transition — first-order rounding model on an O(1) value.
    let ops_per_step = 2.0 + absorbed.ctmc().rates().nnz() as f64 / n as f64;
    let float_accumulation = f64::EPSILON * fine.time_steps as f64 * ops_per_step;

    Ok(fine
        .probabilities
        .iter()
        .enumerate()
        .map(|(s, &probability)| DiscretizationResult {
            probability,
            budget: ErrorBudget {
                discretization: coarse
                    .as_ref()
                    .map_or(a_priori, |c| 2.0 * (probability - c.probabilities[s]).abs()),
                float_accumulation,
                ..ErrorBudget::zero()
            },
            time_steps: fine.time_steps,
            reward_cells: fine.reward_cells,
            reward_scale: scale,
        })
        .collect())
}

/// The fixed part of a discretization run: everything except the step size.
struct GridProblem<'a> {
    absorbed: &'a Mrm,
    psi: &'a [bool],
    t: f64,
    r: f64,
    scale: f64,
    max_cells: usize,
}

/// The grid's shape at one step size: `T = t/d` time steps and `R = r/d`
/// reward cells (after scaling), and the per-state reward advance `ρ(s)`
/// in cells.
struct GridShape {
    time_steps: usize,
    reward_cells: usize,
    rho: Vec<usize>,
}

impl GridProblem<'_> {
    fn shape(&self, d: f64) -> Result<GridShape, NumericsError> {
        let cells = ((self.r * self.scale) / d).floor();
        if !(cells.is_finite() && cells >= 0.0) || cells as usize > self.max_cells {
            return Err(NumericsError::InvalidParameter {
                name: "step",
                value: d,
                requirement: "reward grid exceeds the memory guard; increase d or max_cells",
            });
        }
        let rho = self
            .absorbed
            .state_rewards()
            .as_slice()
            .iter()
            .map(|&x| (x * self.scale).round() as usize)
            .collect();
        Ok(GridShape {
            time_steps: (self.t / d).round().max(1.0) as usize,
            reward_cells: cells as usize,
            rho,
        })
    }
}

/// One outgoing transition of a source row: destination state, `rate·d`,
/// and the reward shift in cells (`ρ(source)` plus the impulse).
#[derive(Debug, Clone, Copy)]
struct Outgoing {
    to: usize,
    rate_d: f64,
    shift: usize,
}

/// The per-state answers of one sweep, and the grid they came from.
struct Sweep {
    /// `P(s)` for every state, clamped into `[0, 1]`.
    probabilities: Vec<f64>,
    time_steps: usize,
    reward_cells: usize,
}

/// Run Algorithm 4.6 backward on the absorbed model with step `d`.
/// Factored out of [`until_probabilities_all`] so the Richardson companion
/// can re-run the same problem at `2d`.
///
/// The value grid is one flat `n·width` buffer (state-major), double
/// buffered. Transitions are stored source-major in CSR row order, so each
/// source row of the next layer is one pass over the *current* layer in a
/// fixed order (self term, then destinations ascending), each a zipped
/// slice iteration that reads `width − shift` cells starting `shift` cells
/// ahead.
fn evolve_grid(g: &GridProblem<'_>, d: f64) -> Result<Sweep, NumericsError> {
    let n = g.absorbed.num_states();
    let GridShape {
        time_steps,
        reward_cells,
        rho,
    } = g.shape(d)?;
    let width = reward_cells + 1;
    let stay: Vec<f64> = g
        .absorbed
        .ctmc()
        .exit_rates()
        .iter()
        .map(|&e| 1.0 - e * d)
        .collect();
    // Source-major transition lists; a shift past the grid reads only
    // cells that are 0, so such transitions are dropped here.
    let rates = g.absorbed.ctmc().rates();
    let mut outgoing: Vec<Outgoing> = Vec::with_capacity(rates.nnz());
    let mut row_end: Vec<usize> = Vec::with_capacity(n);
    for (from, &rho_from) in rho.iter().enumerate() {
        for (to, rate) in rates.row(from) {
            let shift =
                rho_from + ((g.absorbed.impulse_reward(from, to) * g.scale) / d).round() as usize;
            if shift <= reward_cells {
                outgoing.push(Outgoing {
                    to,
                    rate_d: rate * d,
                    shift,
                });
            }
        }
        row_end.push(outgoing.len());
    }

    // Double-buffered flat values G[s·width + k].
    let mut current = vec![0.0f64; n * width];
    let mut next = vec![0.0f64; n * width];
    for (row, _) in current.chunks_mut(width).zip(g.psi).filter(|(_, &q)| q) {
        row.fill(1.0);
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
        let row = |s: usize| &current[s * width..(s + 1) * width];
        let mut first = 0;
        for (s, dst) in next.chunks_mut(width).enumerate() {
            let own = row(s).get(rho[s]..).unwrap_or(&[]);
            let (head, tail) = dst.split_at_mut(own.len());
            for (y, &x) in head.iter_mut().zip(own) {
                *y = x * stay[s];
            }
            tail.fill(0.0);
            for &Outgoing { to, rate_d, shift } in &outgoing[first..row_end[s]] {
                for (y, &x) in dst.iter_mut().zip(&row(to)[shift..]) {
                    *y += x * rate_d;
                }
            }
            first = row_end[s];
        }
        std::mem::swap(&mut current, &mut next);
    }

    let probabilities = current
        .chunks(width)
        .zip(&rho)
        .map(|(row, &rho_s)| row.get(rho_s).map_or(0.0, |&p| p.clamp(0.0, 1.0)))
        .collect();
    Ok(Sweep {
        probabilities,
        time_steps,
        reward_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{self, UniformOptions};
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_models::phone;
    use mrmc_models::random::{random_mrm, RandomMrmConfig};
    use mrmc_models::tmr::{tmr, TmrConfig};
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    /// One incoming transition of a destination row: source state, `rate·d`,
    /// and the reward shift in cells.
    #[derive(Debug, Clone, Copy)]
    struct Incoming {
        from: usize,
        rate_d: f64,
        shift: usize,
    }

    /// The reference: Algorithm 4.6 as written, pushing the density of one
    /// start state forward (destination-major: self term, then incoming
    /// transitions by ascending source).
    fn forward_grid(g: &GridProblem<'_>, start: usize, d: f64) -> f64 {
        let n = g.absorbed.num_states();
        let GridShape {
            time_steps,
            reward_cells,
            rho,
        } = g.shape(d).unwrap();
        let width = reward_cells + 1;
        let exit = g.absorbed.ctmc().exit_rates();
        let stay: Vec<f64> = exit.iter().map(|&e| 1.0 - e * d).collect();
        let mut incoming: Vec<Vec<Incoming>> = vec![Vec::new(); n];
        for (from, to, rate) in g.absorbed.ctmc().rates().iter() {
            let shift =
                rho[from] + ((g.absorbed.impulse_reward(from, to) * g.scale) / d).round() as usize;
            incoming[to].push(Incoming {
                from,
                rate_d: rate * d,
                shift,
            });
        }
        let mut current = vec![0.0f64; n * width];
        let mut next = vec![0.0f64; n * width];
        if rho[start] <= reward_cells {
            current[start * width + rho[start]] = 1.0 / d;
        }
        for _ in 1..time_steps {
            for (to, dst) in next.chunks_mut(width).enumerate() {
                dst.fill(0.0);
                if rho[to] <= reward_cells {
                    let src = &current[to * width..(to + 1) * width];
                    for (y, &x) in dst[rho[to]..].iter_mut().zip(src) {
                        *y += x * stay[to];
                    }
                }
                for &Incoming {
                    from,
                    rate_d,
                    shift,
                } in &incoming[to]
                {
                    if shift > reward_cells {
                        continue;
                    }
                    let src = &current[from * width..(from + 1) * width];
                    for (y, &x) in dst[shift..].iter_mut().zip(src) {
                        *y += x * rate_d;
                    }
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        let mut probability = 0.0;
        for (row, &in_psi) in current.chunks(width).zip(g.psi) {
            if in_psi {
                probability += row.iter().sum::<f64>() * d;
            }
        }
        probability.clamp(0.0, 1.0)
    }

    /// Check the backward sweep against [`forward_grid`] for every start
    /// state: within `1e-13` and within the reported float accumulation.
    fn assert_matches_forward(
        name: &str,
        m: &Mrm,
        phi: &[bool],
        psi: &[bool],
        t: f64,
        r: f64,
        d: f64,
    ) {
        let opts = DiscretizationOptions::with_step(d);
        let all = until_probabilities_all(m, phi, psi, t, r, opts).unwrap();
        assert_eq!(all.len(), m.num_states());
        let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
        let absorbed = make_absorbing(m, &absorb).unwrap();
        let grid = GridProblem {
            absorbed: &absorbed,
            psi,
            t,
            r,
            scale: integer_scale(absorbed.state_rewards().as_slice()).unwrap(),
            max_cells: opts.max_cells,
        };
        for (s, res) in all.iter().enumerate() {
            let expect = forward_grid(&grid, s, d);
            let deviation = (res.probability - expect).abs();
            assert!(
                deviation <= 1e-13 && deviation <= res.budget.float_accumulation,
                "{name}, d = {d}, state {s}: backward {} vs forward {expect} (budget {})",
                res.probability,
                res.budget.float_accumulation
            );
        }
    }

    /// [`until_probability`] is [`until_probabilities_all`] read at the
    /// start state, bit for bit.
    fn assert_single_reads_the_sweep(m: &Mrm, phi: &[bool], psi: &[bool], t: f64, r: f64, d: f64) {
        let opts = DiscretizationOptions::with_step(d);
        let all = until_probabilities_all(m, phi, psi, t, r, opts).unwrap();
        for (s, res) in all.iter().enumerate() {
            let single = until_probability(m, phi, psi, t, r, s, opts).unwrap();
            assert_eq!(
                single.probability.to_bits(),
                res.probability.to_bits(),
                "d = {d}, state {s}"
            );
            assert_eq!(single, *res, "d = {d}, state {s}");
        }
    }

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

    #[test]
    fn backward_sweep_matches_forward_on_the_phone_model() {
        let m = phone::phone();
        let phi: Vec<bool> = (0..m.num_states())
            .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
            .collect();
        let psi = m.labeling().states_with("Call_Initiated");
        // Table 5.1's formula on a shorter horizon and reward bound, so the
        // per-state reference runs stay quick in unoptimized test builds.
        for d in [1.0 / 16.0, 1.0 / 64.0] {
            assert_matches_forward("phone", &m, &phi, &psi, 4.0, 100.0, d);
            assert_single_reads_the_sweep(&m, &phi, &psi, 4.0, 100.0, d);
        }
        let all = until_probabilities_all(
            &m,
            &phi,
            &psi,
            4.0,
            100.0,
            DiscretizationOptions::with_step(1.0 / 64.0),
        )
        .unwrap();
        assert!(all[phone::DOZE].probability > 0.01, "{all:?}");
    }

    #[test]
    fn backward_sweep_matches_forward_on_tmr_at_the_table_5_8_horizons() {
        let config = TmrConfig::classic();
        let m = tmr(&config);
        let phi = m.labeling().states_with("Sup");
        let psi = m.labeling().states_with("failed");
        for t in [50.0, 100.0, 150.0, 200.0] {
            assert_matches_forward("tmr", &m, &phi, &psi, t, 3000.0, 0.25);
        }
        assert_single_reads_the_sweep(&m, &phi, &psi, 50.0, 3000.0, 0.25);
    }

    #[test]
    fn backward_sweep_matches_forward_with_impulses() {
        // WaveLAN's impulses shift the reward index by 27 and 23 cells at
        // d = 1/64. r = 206.25 is 13 200 cells, 10 past ten idle steps of
        // 1319 cells, so leaving idle after ten steps counts only when the
        // impulse is left out. A tight bound makes the idle state's own
        // reward overrun the grid: ρ(start) > reward_cells.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        assert_matches_forward("wavelan", &m, &phi, &psi, 1.0, 206.25, 1.0 / 64.0);
        assert_single_reads_the_sweep(&m, &phi, &psi, 1.0, 206.25, 1.0 / 64.0);
        let tight = until_probabilities_all(
            &m,
            &phi,
            &psi,
            1.0,
            10.0,
            DiscretizationOptions::with_step(1.0 / 64.0),
        )
        .unwrap();
        assert!(tight[0].reward_cells < 1319);
        assert_eq!(tight[2].probability, 0.0);
        assert_matches_forward("wavelan, tight r", &m, &phi, &psi, 1.0, 10.0, 1.0 / 64.0);
    }

    #[test]
    fn backward_sweep_matches_forward_on_random_models() {
        let config = RandomMrmConfig {
            states: 7,
            extra_transitions_per_state: 1.5,
            max_rate: 2.0,
            reward_levels: vec![0.0, 1.0, 3.0],
            impulse_levels: vec![0.0, 0.5, 2.0],
            goal_fraction: 0.3,
        };
        for seed in 0..6 {
            let m = random_mrm(seed, &config);
            let phi = vec![true; m.num_states()];
            let psi = m.labeling().states_with("goal");
            let max_exit = m.ctmc().exit_rates().iter().fold(0.0f64, |a, &e| a.max(e));
            let d = 1.0 / (8.0 * max_exit.ceil());
            assert_matches_forward(&format!("random seed {seed}"), &m, &phi, &psi, 1.0, 4.0, d);
            assert_single_reads_the_sweep(&m, &phi, &psi, 1.0, 4.0, d);
        }
    }
}
