//! Model checking next formulas (Section 4.3.1, Algorithm 4.4).
//!
//! `P^M(s, X^I_J Φ) = Σ_{s' ⊨ Φ} P(s, s') ·
//! (e^{−E(s)·inf K(s,s')} − e^{−E(s)·sup K(s,s')})` (Eq. 3.4), where
//! `K(s, s') = {x ∈ I | ρ(s)·x + ι(s, s') ∈ J}` is the set of residence
//! times meeting both the timing and the reward constraint. Unlike the
//! until engines, the closed form supports *general* closed intervals for
//! both `I` and `J`.

use mrmc_csrl::Interval;
use mrmc_mrm::Mrm;

use crate::error::CheckError;

/// The interval `K(s, s')` for residence in `s` followed by the jump to
/// `s'`; `None` when empty.
fn k_interval(
    mrm: &Mrm,
    s: usize,
    s_prime: usize,
    time: &Interval,
    reward: &Interval,
) -> Option<Interval> {
    let rho = mrm.state_reward(s);
    let iota = mrm.impulse_reward(s, s_prime);
    if rho == 0.0 {
        // Reward is constant in the residence time: either the impulse
        // alone meets the bound (K = I) or nothing does.
        return if reward.contains(iota) {
            Some(*time)
        } else {
            None
        };
    }
    // ρ·x + ι ∈ [lo, hi]  ⇔  x ∈ [(lo − ι)/ρ, (hi − ι)/ρ].
    let lo = ((reward.lo() - iota) / rho).max(0.0);
    let hi = if reward.hi() == f64::INFINITY {
        f64::INFINITY
    } else {
        (reward.hi() - iota) / rho
    };
    if hi < lo {
        return None;
    }
    let from_reward = Interval::new(lo, hi).expect("derived interval is valid");
    time.intersect(&from_reward)
}

/// Compute `P^M(s, X^I_J Φ)` for every state.
///
/// # Errors
///
/// [`CheckError`] if `phi.len()` differs from the state count.
pub fn next_probabilities(
    mrm: &Mrm,
    time: &Interval,
    reward: &Interval,
    phi: &[bool],
) -> Result<Vec<f64>, CheckError> {
    let n = mrm.num_states();
    if phi.len() != n {
        return Err(CheckError::Numerics(
            mrmc_numerics::NumericsError::SizeMismatch {
                expected: n,
                found: phi.len(),
            },
        ));
    }

    let mut out = vec![0.0; n];
    #[expect(clippy::needless_range_loop, reason = "s also indexes the rate matrix")]
    for s in 0..n {
        let exit = mrm.ctmc().exit_rate(s);
        if exit == 0.0 {
            continue; // absorbing: no next step ever happens
        }
        let mut prob = 0.0;
        for (target, rate) in mrm.ctmc().rates().row(s) {
            if !phi[target] {
                continue;
            }
            let Some(k) = k_interval(mrm, s, target, time, reward) else {
                continue;
            };
            let p_branch = rate / exit;
            let weight = (-exit * k.lo()).exp()
                - if k.hi() == f64::INFINITY {
                    0.0
                } else {
                    (-exit * k.hi()).exp()
                };
            prob += p_branch * weight;
        }
        out[s] = prob.clamp(0.0, 1.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    /// 0 →(1.0) 1, 0 →(3.0) 2; ρ(0) = 2, ι(0,1) = 5.
    fn model() -> Mrm {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0).transition(0, 2, 3.0);
        b.label(1, "a").label(2, "b");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![2.0, 0.0, 0.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 5.0).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn unbounded_next_is_branching_probability() {
        // Eq. 3.5: P(s, X Φ) = Σ_{s' ⊨ Φ} P(s, s').
        let m = model();
        let phi = m.labeling().states_with("a");
        let p =
            next_probabilities(&m, &Interval::unbounded(), &Interval::unbounded(), &phi).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert_eq!(p[1], 0.0); // absorbing
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn time_bound_truncates_the_exponential() {
        let m = model();
        let phi = m.labeling().states_with("a");
        // Within time 0.5: P(0→1 in [0, 0.5]) = 1/4 · (1 − e^{−4·0.5}).
        let p = next_probabilities(&m, &Interval::upto(0.5), &Interval::unbounded(), &phi).unwrap();
        let expect = 0.25 * (1.0 - (-2.0f64).exp());
        assert!((p[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn reward_bound_with_impulse_shifts_the_window() {
        let m = model();
        let phi = m.labeling().states_with("a");
        // J = [0, 9]: need 2x + 5 ≤ 9 ⇔ x ≤ 2.
        let p = next_probabilities(&m, &Interval::unbounded(), &Interval::upto(9.0), &phi).unwrap();
        let expect = 0.25 * (1.0 - (-4.0 * 2.0f64).exp());
        assert!((p[0] - expect).abs() < 1e-12);
        // J = [0, 4]: the impulse alone (5) exceeds the bound; K is empty.
        let p = next_probabilities(&m, &Interval::unbounded(), &Interval::upto(4.0), &phi).unwrap();
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn lower_bounds_are_supported() {
        let m = model();
        let phi = m.labeling().states_with("b");
        // Jump to state 2 (no impulse) in time [1, 2]:
        // P = 3/4 · (e^{−4·1} − e^{−4·2}).
        let time = Interval::new(1.0, 2.0).unwrap();
        let p = next_probabilities(&m, &time, &Interval::unbounded(), &phi).unwrap();
        let expect = 0.75 * ((-4.0f64).exp() - (-8.0f64).exp());
        assert!((p[0] - expect).abs() < 1e-12);
        // Reward lower bound: 2x ∈ [3, ∞) ⇔ x ≥ 1.5.
        let reward = Interval::new(3.0, f64::INFINITY).unwrap();
        let p = next_probabilities(&m, &Interval::unbounded(), &reward, &phi).unwrap();
        let expect = 0.75 * (-4.0 * 1.5f64).exp();
        assert!((p[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_reward_state_depends_on_impulse_only() {
        // From state 1 (ρ = 0) there are no transitions; extend the model:
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let ctmc = b.build().unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 3.0).unwrap();
        let m = Mrm::new(ctmc, StateRewards::zero(2), iota).unwrap();
        let phi = m.labeling().states_with("goal");
        // J = [0, 2]: impulse 3 > 2, never satisfied.
        let p = next_probabilities(&m, &Interval::unbounded(), &Interval::upto(2.0), &phi).unwrap();
        assert_eq!(p[0], 0.0);
        // J = [0, 3]: impulse fits for any residence time.
        let p = next_probabilities(&m, &Interval::unbounded(), &Interval::upto(3.0), &phi).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_phi_length_rejected() {
        let m = model();
        assert!(
            next_probabilities(&m, &Interval::unbounded(), &Interval::unbounded(), &[true])
                .is_err()
        );
    }
}
