//! Unbounded reachability probabilities (Eq. 3.8 of the thesis).
//!
//! `P(s, Φ U Ψ)` is the least solution of a linear system over the embedded
//! DTMC. A graph pre-pass identifies the states with probability zero so the
//! remaining system `(I − P_mm)·x = P_m1·1` over the "maybe" states `m` has
//! a unique solution ([`until_system`]).
//!
//! Every maybe state reaches a sure state, so `I − P_mm` is a nonsingular
//! M-matrix. A banded LU without pivoting ([`BandedLu`]), in reverse
//! Cuthill–McKee order, solves it directly, and the same factors certify a
//! bound on each state's error ([`until_unbounded_certified`]).
//! Gauss–Seidel ([`mrmc_sparse::solver::gauss_seidel`]) runs instead, with
//! no bound, when the elimination would take more than
//! [`DIRECT_WORK_PER_NONZERO`] steps per nonzero of the system, when the
//! band would take more than [`DIRECT_MAX_BYTES`], or when the
//! factorization or the certificate fails.

use mrmc_sparse::solver::{gauss_seidel, reverse_cuthill_mckee, BandedLu, SolverOptions};
use mrmc_sparse::{CooBuilder, CsrMatrix};

use crate::error::ModelError;

/// Largest elimination work `n·(kl + 1)·(ku + 1)` per nonzero of the
/// Eq. 3.8 system that the direct solver takes on; past it Gauss–Seidel
/// is expected to be the cheaper method.
///
/// The work counts banded multiply-adds; a Gauss–Seidel sweep costs one
/// sparse multiply-add per nonzero. Timed on seeded `random_mrm` chains of
/// 150–3000 states and on the cluster model at N = 8–64 (2-core x86-64
/// host, Gauss–Seidel at its default 1e-12 tolerance), the direct solve
/// was the faster one on every system up to 8.3·10³ steps per nonzero,
/// between 0.7× and 2× Gauss–Seidel's time from 1.0·10⁴ to 1.7·10⁴, and
/// 1.7× to 58× slower from 2.2·10⁴ to 6.3·10⁵. The cluster systems lie at
/// 1.6·10³ (N = 32) to 6.0·10³ (N = 64) and solve 30–110× faster directly.
pub const DIRECT_WORK_PER_NONZERO: usize = 1 << 13;

/// Largest band, in bytes, the direct solver of Eq. 3.8 may allocate;
/// wider systems are solved by Gauss–Seidel. It bounds memory, which
/// [`DIRECT_WORK_PER_NONZERO`] alone leaves growing with the system.
pub const DIRECT_MAX_BYTES: usize = 32 << 20;

/// Compute `P(s, Φ U Ψ)` for every state over a (sub)stochastic transition
/// matrix `probs` (typically an embedded DTMC).
///
/// `phi` and `psi` are characteristic vectors of the Φ- and Ψ-states.
/// The returned vector holds, per state, the probability of reaching a
/// Ψ-state along Φ-states only.
///
/// # Errors
///
/// * [`ModelError::LabelingSizeMismatch`] — `phi`/`psi` of the wrong length;
/// * solver failures are propagated as [`ModelError::Solve`].
pub fn until_unbounded(
    probs: &CsrMatrix,
    phi: &[bool],
    psi: &[bool],
    options: SolverOptions,
) -> Result<Vec<f64>, ModelError> {
    until_unbounded_with(probs, phi, psi, psi, options)
}

/// [`until_unbounded`] with an enlarged *sure* set: every state in `one`
/// is pre-assigned probability 1 and acts as an absorbing goal for the
/// linear system, exactly as the Ψ-states do.
///
/// `one` must be a superset of the Ψ-states for which `P(s, Φ U Ψ) = 1`
/// is already known (e.g. a verified qualitative certificate's certain-one
/// set); passing `one = psi` reproduces [`until_unbounded`] bit for bit.
/// A strictly larger `one` shrinks the "maybe" block the solver works on
/// — that is the slicing win — at the price of a (tiny, certified) difference
/// in the remaining states' floats.
///
/// # Errors
///
/// * [`ModelError::LabelingSizeMismatch`] — any vector of the wrong length;
/// * solver failures are propagated as [`ModelError::Solve`].
pub fn until_unbounded_with(
    probs: &CsrMatrix,
    phi: &[bool],
    psi: &[bool],
    one: &[bool],
    options: SolverOptions,
) -> Result<Vec<f64>, ModelError> {
    until_unbounded_certified(probs, phi, psi, one, options).map(|r| r.probabilities)
}

/// The probabilities of [`until_unbounded_with`] — the same vector, bit
/// for bit — together with a certified bound on each one's error.
///
/// # Errors
///
/// See [`until_unbounded_with`].
pub fn until_unbounded_certified(
    probs: &CsrMatrix,
    phi: &[bool],
    psi: &[bool],
    one: &[bool],
    options: SolverOptions,
) -> Result<Reachability, ModelError> {
    until_unbounded_capped(probs, phi, psi, one, options, DIRECT_WORK_PER_NONZERO)
}

/// Unbounded-until probabilities with their error bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Reachability {
    /// `P(s, Φ U Ψ)` per state.
    pub probabilities: Vec<f64>,
    /// Per state, a bound on `|P(s, Φ U Ψ) − probabilities[s]|` that
    /// covers every rounding error of the solve and of the bound itself,
    /// for the system over the floating-point `probs` as given. `None`
    /// when Gauss–Seidel solved the system: its stopping rule bounds
    /// nothing.
    pub error_bounds: Option<Vec<f64>>,
}

/// The linear system of Eq. 3.8 over the "maybe" states: those that reach
/// a sure state through Φ-states without being sure themselves.
#[derive(Debug, Clone)]
pub struct UntilSystem {
    /// The maybe states, ascending; unknown `i` belongs to `states[i]`.
    pub states: Vec<usize>,
    /// `I − P_mm`.
    pub matrix: CsrMatrix,
    /// `P_m1 · 1`: the one-step probability of entering the sure set.
    pub rhs: Vec<f64>,
    /// Per unknown, the probability of leaving the maybe block in one
    /// step, summed from non-negative terms: the row sums of `matrix`
    /// without cancellation.
    exit: Vec<f64>,
    /// The unknown of each state, `usize::MAX` outside the block.
    unknown: Vec<usize>,
}

/// Assemble the Eq. 3.8 system of `Φ U Ψ` over `probs`, with `one` as the
/// sure set (Ψ, or a verified superset of the Ψ-states with probability 1).
///
/// # Errors
///
/// [`ModelError::LabelingSizeMismatch`] — `phi` or `one` of the wrong
/// length.
pub fn until_system(
    probs: &CsrMatrix,
    phi: &[bool],
    one: &[bool],
) -> Result<UntilSystem, ModelError> {
    let n = probs.nrows();
    for v in [phi, one] {
        if v.len() != n {
            return Err(ModelError::LabelingSizeMismatch {
                states: n,
                labeled: v.len(),
            });
        }
    }

    // Backward graph pass: `can_reach[s]` iff a sure state is reachable
    // from `s` through Φ-states. Everything else has probability exactly
    // zero, and excluding it makes the linear system non-singular.
    let reverse = probs.transpose();
    let mut can_reach = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for s in 0..n {
        if one[s] {
            can_reach[s] = true;
            queue.push(s);
        }
    }
    while let Some(t) = queue.pop() {
        for (s, v) in reverse.row(t) {
            if v > 0.0 && !can_reach[s] && phi[s] && !one[s] {
                can_reach[s] = true;
                queue.push(s);
            }
        }
    }

    let states: Vec<usize> = (0..n).filter(|&s| can_reach[s] && !one[s]).collect();
    let mut unknown = vec![usize::MAX; n];
    for (i, &s) in states.iter().enumerate() {
        unknown[s] = i;
    }

    // Assemble (I - P_mm) x = P_m1 · 1.
    let m = states.len();
    let mut a = CooBuilder::new(m, m);
    let mut rhs = vec![0.0; m];
    let mut exit = vec![0.0; m];
    for (i, &s) in states.iter().enumerate() {
        a.push(i, i, 1.0);
        let mut row_mass = 0.0;
        for (t, p) in probs.row(s) {
            if p <= 0.0 {
                continue;
            }
            row_mass += p;
            if one[t] {
                rhs[i] += p;
            } else if unknown[t] != usize::MAX {
                a.push(i, unknown[t], -p);
                continue;
            }
            exit[i] += p;
        }
        // A substochastic row also leaves through its missing mass.
        exit[i] += (1.0 - row_mass).max(0.0);
    }
    let matrix = a.build().expect("reachability system is well-formed");
    Ok(UntilSystem {
        states,
        matrix,
        rhs,
        exit,
        unknown,
    })
}

/// [`until_unbounded_certified`] with the direct solver's work cap per
/// nonzero as a parameter.
fn until_unbounded_capped(
    probs: &CsrMatrix,
    phi: &[bool],
    psi: &[bool],
    one: &[bool],
    options: SolverOptions,
    work_per_nonzero: usize,
) -> Result<Reachability, ModelError> {
    let n = probs.nrows();
    if psi.len() != n {
        return Err(ModelError::LabelingSizeMismatch {
            states: n,
            labeled: psi.len(),
        });
    }
    let system = until_system(probs, phi, one)?;
    let mut probabilities: Vec<f64> = one.iter().map(|&o| if o { 1.0 } else { 0.0 }).collect();
    if system.states.is_empty() {
        return Ok(Reachability {
            probabilities,
            error_bounds: Some(vec![0.0; n]),
        });
    }

    let (x, bounds) = match solve_direct(probs, one, &system, work_per_nonzero) {
        Some((x, bounds)) => (x, Some(bounds)),
        None => {
            let start = vec![0.0; system.states.len()];
            (
                gauss_seidel(&system.matrix, &system.rhs, &start, options)?,
                None,
            )
        }
    };
    // The exact values lie in [0, 1], so clamping only moves closer.
    for (&s, xi) in system.states.iter().zip(x) {
        probabilities[s] = xi.clamp(0.0, 1.0);
    }
    let error_bounds = bounds.map(|bounds| {
        let mut full = vec![0.0; n];
        for (&s, b) in system.states.iter().zip(bounds) {
            full[s] = b;
        }
        full
    });
    Ok(Reachability {
        probabilities,
        error_bounds,
    })
}

/// Solve the system with a banded LU and certify each unknown's error;
/// `None` when the elimination exceeds `work_per_nonzero` steps per
/// nonzero or [`DIRECT_MAX_BYTES`], or a pivot or the certificate fails.
///
/// The certificate: `A = I − P_mm` is a nonsingular M-matrix, so
/// `A⁻¹ ≥ 0`. For any `ŷ` with `A·ŷ ≥ c·1`, `c > 0`, this gives
/// `A⁻¹·1 ≤ ŷ/c`, and therefore
/// `|x − x̂| = |A⁻¹·(b − A·x̂)| ≤ ŷ/c · ‖b − A·x̂‖∞`. The factors give `ŷ`
/// from `A·ŷ = 1`; `c` and the residual are evaluated from the rows of
/// `probs` with their rounding error subtracted and added.
fn solve_direct(
    probs: &CsrMatrix,
    one: &[bool],
    system: &UntilSystem,
    work_per_nonzero: usize,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let _span = mrmc_obs::span("solver");
    let order = reverse_cuthill_mckee(&system.matrix);
    let max_work = work_per_nonzero.saturating_mul(system.matrix.nnz());
    let lu = BandedLu::factor_m_matrix(
        &system.matrix,
        &system.exit,
        order,
        max_work,
        DIRECT_MAX_BYTES,
    )?;
    let x = lu.solve(&system.rhs);
    let y = lu.solve(&vec![1.0; system.states.len()]);

    let c = defect(probs, one, system, &y, 0.0)
        .into_iter()
        .map(|(ay, slack)| ay - slack)
        .fold(f64::INFINITY, f64::min);
    let (mut residual, mut rho) = (0.0_f64, 0.0_f64);
    for (r, slack) in defect(probs, one, system, &x, 1.0) {
        residual = residual.max(r.abs());
        rho = rho.max(r.abs() + slack);
    }
    if !(c > 0.0 && rho.is_finite()) {
        return None;
    }
    // The relative slack covers the rounding of c, ρ and this product.
    let scale = rho / c * (1.0 + 8.0 * f64::EPSILON);
    let bounds: Vec<f64> = y.iter().map(|&yi| yi * scale).collect();
    if !bounds.iter().all(|b| b.is_finite()) {
        return None;
    }
    mrmc_obs::record(|| mrmc_obs::Event::SolverDone {
        iterations: 0,
        residual,
        converged: true,
    });
    Some((x, bounds))
}

/// `(A·v)_i − weight·b_i` for each unknown, summed straight from the row of
/// `probs` (so the rounding of the assembled `1 − p_ii` does not enter),
/// paired with a bound on the rounding error of that sum.
fn defect(
    probs: &CsrMatrix,
    one: &[bool],
    system: &UntilSystem,
    v: &[f64],
    weight: f64,
) -> Vec<(f64, f64)> {
    system
        .states
        .iter()
        .zip(v)
        .map(|(&s, &vi)| {
            let (mut sum, mut magnitude, mut terms) = (vi, vi.abs(), 1_u32);
            for (t, p) in probs.row(s) {
                let term = if p <= 0.0 {
                    continue;
                } else if one[t] {
                    weight * p
                } else if system.unknown[t] != usize::MAX {
                    p * v[system.unknown[t]]
                } else {
                    continue;
                };
                sum -= term;
                magnitude += term.abs();
                terms += 1;
            }
            // Each term carries one rounding and the running sum one per
            // addition: γ_k·Σ|term| bounds the error of `sum` for k = terms
            // + 1; doubling k also covers the rounding of `magnitude`.
            (sum, gamma(2 * terms + 2) * magnitude)
        })
        .collect()
}

/// `γ_k = k·u / (1 − k·u)` with the unit roundoff `u = 2⁻⁵³`.
fn gamma(k: u32) -> f64 {
    let ku = f64::from(k) * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
}

/// `P(s, ◇ target)`: unbounded reachability with `Φ = tt`.
///
/// # Errors
///
/// See [`until_unbounded`].
pub fn reach_probability(
    probs: &CsrMatrix,
    target: &[bool],
    options: SolverOptions,
) -> Result<Vec<f64>, ModelError> {
    let phi = vec![true; probs.nrows()];
    until_unbounded(probs, &phi, target, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[Vec<f64>]) -> CsrMatrix {
        let mut b = CooBuilder::new(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn example_3_5_reach_probability() {
        // Embedded DTMC of Figure 3.2: P(s1, ◇B1) = 4/7 where B1 = {s3, s4}.
        // States 0..=4 for s1..=s5; rates 2,1 from s1; 2,1 from s2; etc.
        // s1 -> s2 with 2/3, s1 -> s5 with 1/3;
        // s2 -> s3 with 2/3, s2 -> s1 with 1/3;
        // s3 <-> s4; s5 absorbing.
        let p = matrix(&[
            vec![0.0, 2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0],
            vec![1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ]);
        let target = vec![false, false, true, true, false];
        let r = reach_probability(&p, &target, SolverOptions::new()).unwrap();
        assert!((r[0] - 4.0 / 7.0).abs() < 1e-10);
        assert!((r[1] - 6.0 / 7.0).abs() < 1e-10);
        assert_eq!(r[2], 1.0);
        assert_eq!(r[3], 1.0);
        assert_eq!(r[4], 0.0);
    }

    #[test]
    fn phi_constraint_blocks_paths() {
        // 0 -> 1 -> 2(target); 1 is not a Φ-state, so P(0, Φ U Ψ) = 0.
        let p = matrix(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let phi = vec![true, false, true];
        let psi = vec![false, false, true];
        let r = until_unbounded(&p, &phi, &psi, SolverOptions::new()).unwrap();
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], 0.0);
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn psi_state_counts_even_if_not_phi() {
        // Ψ-states satisfy the until immediately regardless of Φ.
        let p = matrix(&[vec![0.0, 1.0], vec![0.0, 1.0]]);
        let phi = vec![true, false];
        let psi = vec![false, true];
        let r = until_unbounded(&p, &phi, &psi, SolverOptions::new()).unwrap();
        assert_eq!(r, vec![1.0, 1.0]);
    }

    #[test]
    fn self_loop_maybe_state_converges() {
        // State 0 loops with 0.9, escapes to target with 0.1: probability 1.
        let p = matrix(&[vec![0.9, 0.1], vec![0.0, 1.0]]);
        let psi = vec![false, true];
        let r = reach_probability(&p, &psi, SolverOptions::new()).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn competing_absorbing_targets() {
        // 0 -> target with 0.3, -> sink with 0.7.
        let p = matrix(&[
            vec![0.0, 0.3, 0.7],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let psi = vec![false, true, false];
        let r = reach_probability(&p, &psi, SolverOptions::new()).unwrap();
        assert!((r[0] - 0.3).abs() < 1e-12);
        assert_eq!(r[2], 0.0);
    }

    #[test]
    fn empty_target_gives_zero_everywhere() {
        let p = matrix(&[vec![1.0]]);
        let r = reach_probability(&p, &[false], SolverOptions::new()).unwrap();
        assert_eq!(r, vec![0.0]);
    }

    #[test]
    fn wrong_lengths_rejected() {
        let p = matrix(&[vec![1.0]]);
        assert!(matches!(
            until_unbounded(&p, &[true, true], &[false], SolverOptions::new()),
            Err(ModelError::LabelingSizeMismatch { .. })
        ));
        assert!(matches!(
            until_unbounded(&p, &[true], &[false, false], SolverOptions::new()),
            Err(ModelError::LabelingSizeMismatch { .. })
        ));
    }

    #[test]
    fn sure_set_equal_to_psi_is_bitwise_identical() {
        let p = matrix(&[
            vec![0.0, 2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0],
            vec![1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ]);
        let phi = vec![true; 5];
        let psi = vec![false, false, true, true, false];
        let plain = until_unbounded(&p, &phi, &psi, SolverOptions::new()).unwrap();
        let with = until_unbounded_with(&p, &phi, &psi, &psi, SolverOptions::new()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&with));
    }

    #[test]
    fn enlarged_sure_set_preassigns_ones_and_shrinks_the_system() {
        // 0 -> 1 -> 2(target); every state reaches the target surely, so a
        // certificate may pre-assign 1 everywhere — no solve remains.
        let p = matrix(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let phi = vec![true, true, true];
        let psi = vec![false, false, true];
        let one = vec![true, true, true];
        let r = until_unbounded_with(&p, &phi, &psi, &one, SolverOptions::new()).unwrap();
        assert_eq!(r, vec![1.0, 1.0, 1.0]);
    }

    /// Gambler's ruin on `0..=n` with fair steps: `0` and `n` absorb, and
    /// `P(i, ◇ n) = i / n`.
    fn gamblers_ruin(n: usize) -> (CsrMatrix, Vec<bool>) {
        let mut b = CooBuilder::new(n + 1, n + 1);
        b.push(0, 0, 1.0).push(n, n, 1.0);
        for i in 1..n {
            b.push(i, i - 1, 0.5).push(i, i + 1, 0.5);
        }
        let target = (0..=n).map(|i| i == n).collect();
        (b.build().unwrap(), target)
    }

    #[test]
    fn direct_solve_is_certified_where_gauss_seidel_stops_short() {
        let n = 200;
        let (p, target) = gamblers_ruin(n);
        let exact = |i: usize| i as f64 / n as f64;

        // Gauss–Seidel's stop rule (largest update ≤ 1e-12) fires while
        // the slowest mode is still far from converged.
        let system = until_system(&p, &vec![true; n + 1], &target).unwrap();
        let gs = gauss_seidel(
            &system.matrix,
            &system.rhs,
            &vec![0.0; system.states.len()],
            SolverOptions::new().with_max_iterations(1_000_000),
        )
        .unwrap();
        let gs_error = system
            .states
            .iter()
            .zip(&gs)
            .map(|(&s, x)| (x - exact(s)).abs())
            .fold(0.0, f64::max);
        assert!(gs_error > 1e-10, "Gauss–Seidel error {gs_error:e}");

        // The direct solve lies within its certified bound of the closed
        // form (which itself carries one rounding, hence the ε).
        let phi = vec![true; n + 1];
        let r =
            until_unbounded_certified(&p, &phi, &target, &target, SolverOptions::new()).unwrap();
        let bounds = r.error_bounds.expect("the direct solver ran");
        for (i, (&x, &bound)) in r.probabilities.iter().zip(&bounds).enumerate() {
            assert!(
                (x - exact(i)).abs() <= bound + f64::EPSILON * exact(i),
                "state {i}: {x} ± {bound:e} vs {}",
                exact(i)
            );
            assert!(bound <= 1e-9, "state {i}: bound {bound:e}");
        }
        assert!(
            bounds[0] == 0.0 && bounds[n] == 0.0,
            "absorbing states are exact"
        );
    }

    #[test]
    fn zero_work_cap_falls_back_to_gauss_seidel_bitwise() {
        let (p, target) = gamblers_ruin(20);
        let phi = vec![true; 21];
        let options = SolverOptions::new().with_tolerance(1e-9);
        let r = until_unbounded_capped(&p, &phi, &target, &target, options, 0).unwrap();
        assert!(r.error_bounds.is_none());

        let system = until_system(&p, &phi, &target).unwrap();
        let x = gauss_seidel(&system.matrix, &system.rhs, &[0.0; 19], options).unwrap();
        let mut expect = vec![0.0; 21];
        expect[20] = 1.0;
        for (i, &s) in system.states.iter().enumerate() {
            expect[s] = x[i].clamp(0.0, 1.0);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.probabilities), bits(&expect));

        // With the default cap the same system is solved directly.
        let direct =
            until_unbounded_capped(&p, &phi, &target, &target, options, DIRECT_WORK_PER_NONZERO)
                .unwrap();
        assert!(direct.error_bounds.is_some());
    }

    #[test]
    fn unreachable_component_gets_zero_without_solver_issues() {
        // Two disconnected cycles; target in the second one.
        let p = matrix(&[
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ]);
        let psi = vec![false, false, false, true];
        let r = reach_probability(&p, &psi, SolverOptions::new()).unwrap();
        assert_eq!(r, vec![0.0, 0.0, 1.0, 1.0]);
    }
}
