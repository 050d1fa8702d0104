//! Unbounded reachability probabilities (Eq. 3.8 of the thesis).
//!
//! `P(s, Φ U Ψ)` is the least solution of a linear system over the embedded
//! DTMC. A graph pre-pass identifies the states with probability zero so the
//! remaining system has a unique solution, which Gauss–Seidel
//! ([`mrmc_sparse::solver::gauss_seidel`]) then finds.

use mrmc_sparse::solver::{gauss_seidel, SolverOptions};
use mrmc_sparse::{CooBuilder, CsrMatrix};

use crate::error::ModelError;

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
/// A strictly larger `one` shrinks the "maybe" block the solver sweeps
/// over — that is the slicing win — at the price of a (tiny, bounded by
/// solver tolerance) difference in the remaining states' floats.
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
    let n = probs.nrows();
    for v in [phi, psi, one] {
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

    // "Maybe" states need the linear solve.
    let maybe: Vec<usize> = (0..n).filter(|&s| can_reach[s] && !one[s]).collect();
    let mut local_of = vec![usize::MAX; n];
    for (i, &s) in maybe.iter().enumerate() {
        local_of[s] = i;
    }

    let mut result = vec![0.0; n];
    for s in 0..n {
        if one[s] {
            result[s] = 1.0;
        }
    }
    if maybe.is_empty() {
        return Ok(result);
    }

    // Assemble (I - P_mm) x = P_my · 1.
    let m = maybe.len();
    let mut a = CooBuilder::new(m, m);
    let mut b = vec![0.0; m];
    for (i, &s) in maybe.iter().enumerate() {
        a.push(i, i, 1.0);
        for (t, p) in probs.row(s) {
            if p <= 0.0 {
                continue;
            }
            if one[t] {
                b[i] += p;
            } else if local_of[t] != usize::MAX {
                a.push(i, local_of[t], -p);
            }
        }
    }
    let a = a.build().expect("reachability system is well-formed");
    let x = gauss_seidel(&a, &b, &vec![0.0; m], options)?;
    for (i, &s) in maybe.iter().enumerate() {
        result[s] = x[i].clamp(0.0, 1.0);
    }
    Ok(result)
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
