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
//!
//! # The sweep
//!
//! Only a *live* state owns a row of the grid: one with a positive exit
//! rate in the absorbed model whose own reward `ρ(s)` fits the `R + 1`
//! cells. Every other row keeps its initial value for good. A Ψ-state's
//! row stays all ones, so all of them read one shared row of ones. Any
//! other row stays all zeros: it is not Ψ, and it either has no transition
//! or its own reward overruns the grid, which drops its self term and,
//! every shift being at least `ρ(s)`, each of its transitions. A term
//! reading a zero row is left out.
//!
//! Each row carries `max shift` cells of zero padding, so a term reads a
//! plain slice at any cell. A row's terms are its self term, then its
//! transitions in CSR row order. The row is summed in blocks of 512 cells,
//! each assigned from the first term and accumulated over the rest, two
//! terms per pass, so the block being written stays in L1. Each row also
//! tracks `flat`, the length of its leading run of equal cells: it starts
//! at `R + 1`, and each step sets `flat'(s)` to the least
//! `flat(source) − shift` over the row's terms, the ones row counting as
//! `R + 1`. Below that cell every term reads equal operands, so the block
//! loop computes only the run's last cell and the cells above it, and the
//! lower cells copy that one.
//!
//! Every cell gets the same IEEE operations on the same operands in the
//! same order as in a full pass over every row (the tests keep that pass
//! as `reference_sweep` and compare bits). All values are non-negative,
//! since `d ≤ 1/E_max` keeps `1 − E(s)·d ≥ 0`, and three facts make the
//! shortcuts exact:
//! - a dropped term adds `+0` to a non-negative sum, which changes no bit;
//!   that covers the terms into zero rows, and the padding cells a term
//!   reads where the full pass skipped it;
//! - `1.0·c` is exact: the full pass rewrote each Ψ-row as `1.0·1.0` every
//!   step, so the shared row stays ones;
//! - a first term that assigns equals `0 + x·c`: where the full pass
//!   cleared a cell past `R − ρ(s)` and accumulated onto it, the self term
//!   here assigns the `+0` it reads from the padding.

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
    until_probabilities_with(mrm, phi, psi, t, r, options, evolve_grid)
}

/// [`until_probabilities_all`] with the sweep passed in, so the tests can
/// run the same problem, budgets included, through a reference sweep.
fn until_probabilities_with(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    options: DiscretizationOptions,
    sweep: fn(&GridProblem<'_>, f64) -> Result<Sweep, NumericsError>,
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
    let fine = sweep(&grid, d)?;
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
        sweep(&grid, 2.0 * d).ok()
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

/// The per-state answers of one sweep, and the grid they came from.
struct Sweep {
    /// `P(s)` for every state, clamped into `[0, 1]`.
    probabilities: Vec<f64>,
    time_steps: usize,
    reward_cells: usize,
}

/// Cells of one row summed together: every term of the row streams its
/// source slice past the block, which stays in L1 meanwhile.
const BLOCK: usize = 512;

/// Index of the shared row of ones, which every Ψ-state reads.
const ONES: usize = 0;

/// One term of a live row: the row it reads, its weight (`1 − E(s)·d` for
/// the self term, `rate·d` for a transition) and its reward shift in cells
/// (`ρ(s)`, plus the impulse for a transition).
#[derive(Debug, Clone, Copy)]
struct Term {
    row: usize,
    weight: f64,
    shift: usize,
}

/// Run Algorithm 4.6 backward on the absorbed model with step `d`, over
/// the live rows only (see the module doc). Factored out of
/// [`until_probabilities_all`] so the Richardson companion can re-run the
/// same problem at `2d`.
fn evolve_grid(g: &GridProblem<'_>, d: f64) -> Result<Sweep, NumericsError> {
    let GridShape {
        time_steps,
        reward_cells,
        rho,
    } = g.shape(d)?;
    let width = reward_cells + 1;
    let exit = g.absorbed.ctmc().exit_rates();
    // Row 0 is the ones row; live rows follow in state order.
    let mut live = Vec::new();
    let row_of: Vec<Option<usize>> = (0..exit.len())
        .map(|s| {
            if g.psi[s] {
                Some(ONES)
            } else if exit[s] > 0.0 && rho[s] <= reward_cells {
                live.push(s);
                Some(live.len())
            } else {
                None
            }
        })
        .collect();
    // A shift past the grid reads only cells that are 0, so such
    // transitions are dropped with those into the zero rows.
    let rates = g.absorbed.ctmc().rates();
    let mut terms: Vec<Term> = Vec::with_capacity(live.len() + rates.nnz());
    let mut terms_end: Vec<usize> = Vec::with_capacity(live.len());
    for (own, &s) in live.iter().enumerate() {
        terms.push(Term {
            row: own + 1,
            weight: 1.0 - exit[s] * d,
            shift: rho[s],
        });
        for (to, rate) in rates.row(s) {
            let shift =
                rho[s] + ((g.absorbed.impulse_reward(s, to) * g.scale) / d).round() as usize;
            if let (Some(row), true) = (row_of[to], shift <= reward_cells) {
                terms.push(Term {
                    row,
                    weight: rate * d,
                    shift,
                });
            }
        }
        terms_end.push(terms.len());
    }
    let stride = width + terms.iter().map(|t| t.shift).max().unwrap_or(0);

    // Double-buffered values G[row·stride + k], every live row 0 at the
    // start, and the length of each row's leading run of equal cells.
    let mut current = vec![0.0f64; (live.len() + 1) * stride];
    current[..width].fill(1.0);
    let mut next = current.clone();
    let mut flat = vec![width; live.len() + 1];
    let mut next_flat = flat.clone();

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
        let mut first = 0;
        for (own, dst) in next.chunks_exact_mut(stride).enumerate().skip(1) {
            let row_terms = &terms[first..terms_end[own - 1]];
            first = terms_end[own - 1];
            let (head, rest) = row_terms
                .split_first()
                .expect("a live row has its self term");
            let run = row_terms
                .iter()
                .map(|t| flat[t.row].saturating_sub(t.shift))
                .min()
                .unwrap_or(0);
            next_flat[own] = run;
            let from = run.saturating_sub(1);
            let src =
                |t: &Term, at: usize, len: usize| &current[t.row * stride + t.shift + at..][..len];
            for at in (from..width).step_by(BLOCK) {
                let len = BLOCK.min(width - at);
                let block = &mut dst[at..at + len];
                for (y, &x) in block.iter_mut().zip(src(head, at, len)) {
                    *y = x * head.weight;
                }
                // Two terms per pass: `(y + a) + b` is what two passes
                // compute, with one load and store of the block fewer.
                let mut pairs = rest.chunks_exact(2);
                for pair in &mut pairs {
                    let (a, b) = (&pair[0], &pair[1]);
                    for ((y, &x), &z) in block.iter_mut().zip(src(a, at, len)).zip(src(b, at, len))
                    {
                        *y = (*y + x * a.weight) + z * b.weight;
                    }
                }
                for t in pairs.remainder() {
                    for (y, &x) in block.iter_mut().zip(src(t, at, len)) {
                        *y += x * t.weight;
                    }
                }
            }
            let (low, high) = dst.split_at_mut(from);
            low.fill(high[0]);
        }
        std::mem::swap(&mut current, &mut next);
        std::mem::swap(&mut flat, &mut next_flat);
    }

    let probabilities = row_of
        .iter()
        .zip(&rho)
        .map(|(row, &rho_s)| match row {
            Some(row) if rho_s <= reward_cells => current[row * stride + rho_s].clamp(0.0, 1.0),
            _ => 0.0,
        })
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

    /// One outgoing transition of a source row: destination state, `rate·d`,
    /// and the reward shift in cells (`ρ(source)` plus the impulse).
    #[derive(Debug, Clone, Copy)]
    struct Outgoing {
        to: usize,
        rate_d: f64,
        shift: usize,
    }

    /// The reference for [`evolve_grid`]: the backward sweep with a full
    /// row for every state, recomputed in full each step. Each cell is
    /// assigned from the self term (0 where the own reward overruns the
    /// row), then accumulates the outgoing transitions in CSR row order,
    /// each over the cells whose source cell lies inside the grid.
    fn reference_sweep(g: &GridProblem<'_>, d: f64) -> Result<Sweep, NumericsError> {
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
        let rates = g.absorbed.ctmc().rates();
        let mut outgoing: Vec<Outgoing> = Vec::with_capacity(rates.nnz());
        let mut row_end: Vec<usize> = Vec::with_capacity(n);
        for (from, &rho_from) in rho.iter().enumerate() {
            for (to, rate) in rates.row(from) {
                let shift = rho_from
                    + ((g.absorbed.impulse_reward(from, to) * g.scale) / d).round() as usize;
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
        let mut current = vec![0.0f64; n * width];
        let mut next = vec![0.0f64; n * width];
        for (row, _) in current.chunks_mut(width).zip(g.psi).filter(|(_, &q)| q) {
            row.fill(1.0);
        }
        for _ in 1..time_steps {
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

    /// [`until_probabilities_all`] against the same problem swept by
    /// [`reference_sweep`], with and without the Richardson companion:
    /// every probability and every budget component, bit for bit.
    fn assert_bitwise_reference(
        name: &str,
        m: &Mrm,
        phi: &[bool],
        psi: &[bool],
        t: f64,
        r: f64,
        d: f64,
    ) {
        let bits = |x: &DiscretizationResult| {
            let b = &x.budget;
            [
                x.probability,
                b.path_truncation,
                b.poisson_tail,
                b.float_accumulation,
                b.discretization,
                b.statistical,
                b.propagation,
                x.reward_scale,
            ]
            .map(f64::to_bits)
        };
        let with = DiscretizationOptions::with_step(d);
        for opts in [with, with.without_error_estimate()] {
            let fast = until_probabilities_all(m, phi, psi, t, r, opts).unwrap();
            let reference =
                until_probabilities_with(m, phi, psi, t, r, opts, reference_sweep).unwrap();
            assert_eq!(fast.len(), reference.len());
            for (s, (a, b)) in fast.iter().zip(&reference).enumerate() {
                let at = format!("{name}, t = {t}, r = {r}, d = {d}, {opts:?}, state {s}");
                assert_eq!(bits(a), bits(b), "{at}: {a:?} vs {b:?}");
                assert_eq!(
                    (a.time_steps, a.reward_cells),
                    (b.time_steps, b.reward_cells),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn sweep_is_bitwise_the_reference_row_pass() {
        // Table 5.1's formula; d = 1/E_max is the stability limit, t = d
        // runs no step, and at r = 0 no state of the absorbed phone model
        // owns a row.
        for m in [phone::phone(), phone::phone_with_impulses()] {
            let phi: Vec<bool> = (0..m.num_states())
                .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
                .collect();
            let psi = m.labeling().states_with("Call_Initiated");
            assert_bitwise_reference("phone", &m, &phi, &psi, 24.0, 600.0, 1.0 / 16.0);
            let absorb: Vec<bool> = phi.iter().zip(&psi).map(|(&p, &q)| !p || q).collect();
            let absorbed = make_absorbing(&m, &absorb).unwrap();
            let max_exit = absorbed
                .ctmc()
                .exit_rates()
                .iter()
                .fold(0.0f64, |a, &e| a.max(e));
            assert_bitwise_reference("phone", &m, &phi, &psi, 24.0, 600.0, 1.0 / max_exit);
            assert_bitwise_reference("phone", &m, &phi, &psi, 1.0, 600.0, 1.0);
            assert_bitwise_reference("phone", &m, &phi, &psi, 24.0, 0.0, 1.0 / 16.0);
        }

        let m = tmr(&TmrConfig::classic());
        let phi = m.labeling().states_with("Sup");
        let psi = m.labeling().states_with("failed");
        for t in [50.0, 100.0, 150.0, 200.0] {
            assert_bitwise_reference("tmr", &m, &phi, &psi, t, 3000.0, 0.25);
        }

        // ρ(idle) = 1319 cells per step overruns the 640-cell grid at r = 10.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        for r in [10.0, 206.25] {
            assert_bitwise_reference("wavelan", &m, &phi, &psi, 1.0, r, 1.0 / 64.0);
        }

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
            let phi: Vec<bool> = (0..m.num_states())
                .map(|s| !(s + seed as usize).is_multiple_of(3))
                .collect();
            let psi = m.labeling().states_with("goal");
            let max_exit = m.ctmc().exit_rates().iter().fold(0.0f64, |a, &e| a.max(e));
            let d = 1.0 / (8.0 * max_exit.ceil());
            for r in [0.0, 4.0] {
                assert_bitwise_reference(&format!("random seed {seed}"), &m, &phi, &psi, 1.0, r, d);
            }
        }

        // State 2 is absorbing by itself, a Φ∧¬Ψ state with ρ = 3; the
        // transition 1 → 3 into the Ψ-state carries an impulse. Both moving
        // states exit at rate 2, so at d = 1/2 their stay weight is 0.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.5).transition(0, 2, 0.5);
        b.transition(1, 0, 1.0).transition(1, 3, 1.0);
        b.label(3, "goal");
        let rho = StateRewards::new(vec![1.0, 2.0, 3.0, 0.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 2.0).unwrap();
        iota.set(1, 3, 1.5).unwrap();
        let m = Mrm::new(b.build().unwrap(), rho, iota).unwrap();
        let psi = m.labeling().states_with("goal");
        for d in [1.0 / 2.0, 1.0 / 8.0] {
            assert_bitwise_reference("absorbing", &m, &[true; 4], &psi, 2.0, 5.0, d);
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
