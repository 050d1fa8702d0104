//! Exact CSRL path-formula semantics on concrete trajectories
//! (Definition 3.6), for *general* closed time and reward intervals.
//!
//! The numerical engines are restricted to `[0, t]`/`[0, r]` bounds
//! (Section 4.6); evaluating the satisfaction relation on sampled paths has
//! no such restriction, which is what makes the statistical checker in
//! [`crate::monte_carlo`] able to handle the thesis' "future work" bounds.
//!
//! Satisfaction of `Φ U^I_J Ψ` on a path σ requires a witness time
//! `τ ∈ I` with `σ@τ ⊨ Ψ`, `y_σ(τ) ∈ J`, and `σ@τ' ⊨ Φ` for all
//! `τ' < τ`. Within one residence period the accumulated reward is an
//! affine function of τ, so the witness search reduces to interval
//! intersections per period — evaluated exactly, without discretizing the
//! trajectory.

use mrmc_csrl::Interval;
use mrmc_mrm::{Mrm, TimedPath};

use crate::error::NumericsError;

fn validate_sets(mrm: &Mrm, phi: &[bool], psi: &[bool]) -> Result<(), NumericsError> {
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
    Ok(())
}

/// Does the (finite prefix of a) path satisfy `Φ U^I_J Ψ`?
///
/// The final recorded state is treated as held forever, matching
/// [`TimedPath`]'s convention; for sampled paths make sure the recorded
/// horizon covers `sup I` (or ends in an absorbing state).
///
/// # Errors
///
/// [`NumericsError::SizeMismatch`] when `phi`/`psi` have the wrong length
/// or the path mentions out-of-range states.
pub fn until_holds(
    mrm: &Mrm,
    path: &TimedPath,
    phi: &[bool],
    psi: &[bool],
    time: &Interval,
    reward: &Interval,
) -> Result<bool, NumericsError> {
    validate_sets(mrm, phi, psi)?;
    for &s in path.states() {
        if s >= mrm.num_states() {
            return Err(NumericsError::SizeMismatch {
                expected: mrm.num_states(),
                found: s,
            });
        }
    }

    // Walk the residence periods [a, b) of each recorded state; the last
    // period is unbounded. `y0` is the accumulated reward at period start.
    let mut a = 0.0_f64;
    let mut y0 = 0.0_f64;
    for (i, &state) in path.states().iter().enumerate() {
        let is_last = i + 1 == path.len();
        let b = if is_last {
            f64::INFINITY
        } else {
            a + path.sojourns()[i]
        };
        let rho = mrm.state_reward(state);

        if psi[state] {
            // Witness window within this period. Φ must hold strictly
            // before τ: earlier periods were all checked below, and within
            // this period σ@τ' = state for τ' ∈ (a, τ), so a ¬Φ Ψ-state only
            // admits the boundary witness τ = a.
            let window_hi = if phi[state] { b } else { a };
            // τ constraints: τ ∈ [a, window_hi] ∩ I and y0 + ρ·(τ − a) ∈ J.
            let lo = a.max(time.lo());
            let hi = window_hi.min(time.hi());
            if lo <= hi {
                if rho == 0.0 {
                    if reward.contains(y0) {
                        return Ok(true);
                    }
                } else {
                    // y(τ) ∈ [J.lo, J.hi] ⇔ τ ∈ [a + (J.lo − y0)/ρ, …].
                    let tau_lo = lo.max(a + (reward.lo() - y0) / rho);
                    let tau_hi = if reward.hi() == f64::INFINITY {
                        hi
                    } else {
                        hi.min(a + (reward.hi() - y0) / rho)
                    };
                    if tau_lo <= tau_hi {
                        return Ok(true);
                    }
                }
            }
        }

        if !phi[state] {
            // No later witness is possible: Φ fails from this period on.
            return Ok(false);
        }
        if a > time.hi() {
            return Ok(false); // past the timing window, no witness left
        }
        if is_last {
            return Ok(false);
        }
        y0 += rho * path.sojourns()[i];
        y0 += mrm.impulse_reward(state, path.states()[i + 1]);
        a = b;
    }
    Ok(false)
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
        iota.set(0, 1, 0.02).unwrap();
        iota.set(1, 2, 0.32975).unwrap();
        iota.set(2, 3, 0.42545).unwrap();
        iota.set(2, 4, 0.36195).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    /// The Example 3.4 path: 1 →100 2 →40 3 →20 4 →37.5 3 →10 5 →25 3 …
    fn example_path() -> TimedPath {
        TimedPath::new(
            vec![0, 1, 2, 3, 2, 4, 2],
            vec![100.0, 40.0, 20.0, 37.5, 10.0, 25.0],
        )
        .unwrap()
    }

    #[test]
    fn example_3_4_satisfies_the_until() {
        // σ ⊨ tt U^{[0,600]}_{[0,50000]} busy (the thesis' 50 J in mJ after
        // scaling: the witness at τ = 160 carries y ≈ 29581 mJ).
        let m = wavelan();
        let p = example_path();
        let phi = vec![true; 5];
        let psi = m.labeling().states_with("busy");
        assert!(until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::upto(600.0),
            &Interval::upto(50_000.0),
        )
        .unwrap());
        // A reward bound below the witness reward (~29.58 kJ·ms) fails at
        // τ = 160 but a later cheaper witness cannot exist (reward grows):
        assert!(!until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::upto(600.0),
            &Interval::upto(20_000.0),
        )
        .unwrap());
    }

    #[test]
    fn phi_constraint_cuts_paths() {
        // Φ = idle only: the prefix passes through off/sleep, so the until
        // fails immediately.
        let m = wavelan();
        let p = example_path();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        assert!(!until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::unbounded(),
            &Interval::unbounded(),
        )
        .unwrap());
    }

    #[test]
    fn time_lower_bounds_are_respected() {
        let m = wavelan();
        let p = example_path();
        let phi = vec![true; 5];
        let psi = m.labeling().states_with("busy");
        // The path is busy during [160, 197.5) and [207.5, 232.5).
        let in_window = Interval::new(170.0, 180.0).unwrap();
        assert!(until_holds(&m, &p, &phi, &psi, &in_window, &Interval::unbounded()).unwrap());
        let between_visits = Interval::new(198.0, 207.0).unwrap();
        assert!(!until_holds(&m, &p, &phi, &psi, &between_visits, &Interval::unbounded()).unwrap());
        let after_everything = Interval::new(1000.0, 2000.0).unwrap();
        assert!(!until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &after_everything,
            &Interval::unbounded()
        )
        .unwrap());
    }

    #[test]
    fn reward_lower_bounds_pick_later_witnesses() {
        let m = wavelan();
        let p = example_path();
        let phi = vec![true; 5];
        let psi = m.labeling().states_with("busy");
        // y at first busy entry (τ = 160) is ≈ 29580.77; requiring at least
        // 40000 forces the witness into a later part of a busy period.
        let reward = Interval::new(40_000.0, f64::INFINITY).unwrap();
        assert!(until_holds(&m, &p, &phi, &psi, &Interval::unbounded(), &reward).unwrap());
        // Between 29581 and the reward at τ=197.5 end of first busy period
        // (29580.77 + 1675·37.5 = 92393): a mid-period witness exists.
        let mid = Interval::new(50_000.0, 60_000.0).unwrap();
        assert!(until_holds(&m, &p, &phi, &psi, &Interval::unbounded(), &mid).unwrap());
    }

    #[test]
    fn psi_state_that_fails_phi_admits_only_the_boundary_witness() {
        // 0 (Φ) → 1 (Ψ ∧ ¬Φ): the witness must be the entry instant.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        let m = Mrm::new(
            ctmc,
            StateRewards::new(vec![1.0, 1.0]).unwrap(),
            ImpulseRewards::new(),
        )
        .unwrap();
        let p = TimedPath::new(vec![0, 1], vec![2.0]).unwrap();
        let phi = vec![true, false];
        let psi = vec![false, true];
        // Entry at τ = 2 with y = 2: a reward window above it fails because
        // later times in the Ψ-period violate the Φ-before-τ requirement.
        assert!(until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::unbounded(),
            &Interval::new(1.9, 2.1).unwrap(),
        )
        .unwrap());
        assert!(!until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::unbounded(),
            &Interval::new(3.0, 4.0).unwrap(),
        )
        .unwrap());
    }

    #[test]
    fn psi_start_state_is_an_immediate_witness() {
        let m = wavelan();
        let p = TimedPath::new(vec![3], vec![]).unwrap();
        let phi = vec![true; 5];
        let psi = m.labeling().states_with("busy");
        assert!(until_holds(
            &m,
            &p,
            &phi,
            &psi,
            &Interval::unbounded(),
            &Interval::upto(0.0),
        )
        .unwrap());
    }

    #[test]
    fn size_mismatches_rejected() {
        let m = wavelan();
        let p = example_path();
        assert!(until_holds(
            &m,
            &p,
            &[true],
            &[false],
            &Interval::unbounded(),
            &Interval::unbounded(),
        )
        .is_err());
    }
}
