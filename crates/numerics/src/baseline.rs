//! The state-reward-free baseline: time-bounded until via Fox–Glynn
//! uniformization (`[Bai03]`, property class P1 of Section 4.3.2).
//!
//! This is the pre-existing method the thesis compares its reward-bounded
//! engines against; it ignores reward structures entirely and computes
//! `P^M(s, Φ U^{[0,t]} Ψ)` for *all* states simultaneously by backward
//! vector iterations.

use mrmc_ctmc::poisson::FoxGlynn;
use mrmc_mrm::{transform::make_absorbing, Mrm};

use crate::error::NumericsError;

/// Compute `P^M(s, Φ U^{[0,t]} Ψ)` for every state `s`.
///
/// `epsilon` bounds the truncation error of the Poisson sum (default choice
/// `1e-10` is appropriate for probability-bound checks).
///
/// # Errors
///
/// [`NumericsError`] for size mismatches or invalid parameters.
pub fn until_time_bounded(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    epsilon: f64,
) -> Result<Vec<f64>, NumericsError> {
    let n = mrm.num_states();
    check_len(n, phi)?;
    check_len(n, psi)?;
    if !(t.is_finite() && t >= 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "t",
            value: t,
            requirement: "must be finite and non-negative",
        });
    }
    check_epsilon(epsilon)?;

    let indicator: Vec<f64> = psi.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    if t == 0.0 {
        return Ok(indicator);
    }
    // u_n[s] = Pr{X_n ⊨ Ψ | X_0 = s} = (P^n · 1_Ψ)[s] on M[¬Φ ∨ Ψ].
    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    poisson_weighted_backward(mrm, &absorb, indicator, t, epsilon)
}

/// Compute `P^M(s, Φ U^{[t1,t2]} Ψ)` for every state — time-*interval*
/// bounded until without reward bounds, by the standard two-phase
/// decomposition (`[Bai03]`):
///
/// ```text
/// P(s, Φ U^{[t1,t2]} Ψ) = Σ_{s' ⊨ Φ} π^{M[¬Φ]}(s, s', t1) · P(s', Φ U^{[0, t2−t1]} Ψ)
/// ```
///
/// — the path must stay in Φ-states throughout `[0, t1]` (hence the
/// transient distribution of `M[¬Φ]`), then satisfy an ordinary bounded
/// until over the remaining `t2 − t1` time units. Both phases run backward
/// over all states simultaneously.
///
/// The thesis' reward-bounded engines cannot handle time lower bounds
/// (Chapter 6); this exact method covers the reward-free case, and the
/// statistical checker covers the general one.
///
/// # Errors
///
/// [`NumericsError`] for size mismatches or invalid parameters
/// (`0 ≤ t1 ≤ t2 < ∞`).
pub fn until_time_interval(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t1: f64,
    t2: f64,
    epsilon: f64,
) -> Result<Vec<f64>, NumericsError> {
    let n = mrm.num_states();
    check_len(n, phi)?;
    check_len(n, psi)?;
    if !(t1.is_finite() && t2.is_finite() && 0.0 <= t1 && t1 <= t2) {
        return Err(NumericsError::InvalidParameter {
            name: "t1",
            value: t1,
            requirement: "need 0 <= t1 <= t2 < infinity",
        });
    }
    check_epsilon(epsilon)?;
    if t1 == 0.0 {
        return until_time_bounded(mrm, phi, psi, t2, epsilon);
    }

    // Phase 2: ordinary bounded until over [0, t2 − t1], zeroed outside Φ
    // (mass sitting in a ¬Φ-state at time t1 has already failed — even a
    // Ψ ∧ ¬Φ state, since its entry time was strictly before t1).
    let mut u = until_time_bounded(mrm, phi, psi, t2 - t1, epsilon)?;
    for (s, value) in u.iter_mut().enumerate() {
        if !phi[s] {
            *value = 0.0;
        }
    }

    // Phase 1: propagate backward through M[¬Φ] for t1 time units.
    phi_constrained_backward(mrm, phi, u, t1, epsilon)
}

/// Propagate per-state values `u` backward through `M[¬Φ]` for `t1` time
/// units: result(s) = `Σ_{s'} π^{M[¬Φ]}(s, s', t1) · u(s')`.
///
/// This is the phase-1 kernel of the interval-until decomposition, exposed
/// so callers can compose it with other phase-2 values (e.g. unbounded
/// reachability for `Φ U^{[t1,∞)} Ψ`).
///
/// # Errors
///
/// [`NumericsError`] for size mismatches or invalid parameters.
pub fn phi_constrained_backward(
    mrm: &Mrm,
    phi: &[bool],
    u: Vec<f64>,
    t1: f64,
    epsilon: f64,
) -> Result<Vec<f64>, NumericsError> {
    let n = mrm.num_states();
    if phi.len() != n || u.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: phi.len().min(u.len()),
        });
    }
    if !(t1.is_finite() && t1 >= 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "t1",
            value: t1,
            requirement: "must be finite and non-negative",
        });
    }
    check_epsilon(epsilon)?;
    let absorb: Vec<bool> = phi.iter().map(|&p| !p).collect();
    poisson_weighted_backward(mrm, &absorb, u, t1, epsilon)
}

/// The backward kernel both phases share: `Σ_n ψ_n(Λt) · (P^n u)`
/// clamped to `[0, 1]`, where `P` is the uniformized chain of `mrm` with
/// the `absorb` states made absorbing, `Λ` its uniformization rate and
/// `ψ_n` the Fox–Glynn weights for `epsilon`.
fn poisson_weighted_backward(
    mrm: &Mrm,
    absorb: &[bool],
    mut u: Vec<f64>,
    t: f64,
    epsilon: f64,
) -> Result<Vec<f64>, NumericsError> {
    let absorbed = make_absorbing(mrm, absorb)?;
    let (uni, lambda) = absorbed.ctmc().uniformized(None)?;
    let p = uni.probabilities();
    let fg = FoxGlynn::new(lambda * t, epsilon);
    let mut acc = vec![0.0; u.len()];
    for step in 0..=fg.right() {
        if step >= fg.left() {
            let w = fg.weights()[(step - fg.left()) as usize];
            for (a, x) in acc.iter_mut().zip(&u) {
                *a += w * x;
            }
        }
        if step < fg.right() {
            u = p.mul_vec(&u);
        }
    }
    for a in &mut acc {
        *a = a.clamp(0.0, 1.0);
    }
    Ok(acc)
}

fn check_len(n: usize, v: &[bool]) -> Result<(), NumericsError> {
    if v.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: v.len(),
        });
    }
    Ok(())
}

fn check_epsilon(epsilon: f64) -> Result<(), NumericsError> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(NumericsError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
            requirement: "must be in (0, 1)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{self, UniformOptions};
    use mrmc_ctmc::CtmcBuilder;

    fn triangle() -> Mrm {
        // 0 → 1 → 2 (absorbing), plus an escape 0 → 2 directly.
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(0, 2, 0.5)
            .transition(1, 2, 2.0);
        b.label(0, "a").label(1, "a").label(2, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn exponential_single_step() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 3.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let r = until_time_bounded(&m, &phi, &psi, 0.7, 1e-12).unwrap();
        let expect = 1.0 - (-3.0 * 0.7f64).exp();
        assert!((r[0] - expect).abs() < 1e-10);
        assert!((r[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn t_zero_is_the_indicator() {
        let m = triangle();
        let phi = vec![true, true, true];
        let psi = vec![false, false, true];
        assert_eq!(
            until_time_bounded(&m, &phi, &psi, 0.0, 1e-10).unwrap(),
            vec![0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn agrees_with_path_engine_at_infinite_reward_bound() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let baseline = until_time_bounded(&m, &phi, &psi, 1.5, 1e-12).unwrap();
        #[expect(clippy::needless_range_loop, reason = "s is also the start state")]
        for s in 0..3 {
            let engine = uniformization::until_probability(
                &m,
                &phi,
                &psi,
                1.5,
                f64::INFINITY,
                s,
                UniformOptions::new().with_truncation(1e-13),
            )
            .unwrap();
            assert!(
                (baseline[s] - engine.probability).abs() < 1e-7 + engine.error_bound,
                "state {s}: {} vs {}",
                baseline[s],
                engine.probability
            );
        }
    }

    #[test]
    fn phi_restriction_matters() {
        // 0 → 1 → 2: if 1 is not a Φ-state, only the direct 0 → 2 jump
        // counts.
        let m = triangle();
        let phi = vec![true, false, true];
        let psi = vec![false, false, true];
        let r = until_time_bounded(&m, &phi, &psi, 10.0, 1e-12).unwrap();
        // From 0: race between 0→1 (rate 1, loses) and 0→2 (rate 0.5,
        // wins); over long t: P = 0.5/1.5 = 1/3.
        assert!((r[0] - 1.0 / 3.0).abs() < 1e-6, "{}", r[0]);
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn probability_increases_with_t() {
        let m = triangle();
        let phi = vec![true, true, true];
        let psi = vec![false, false, true];
        let mut prev = 0.0;
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let r = until_time_bounded(&m, &phi, &psi, t, 1e-12).unwrap();
            assert!(r[0] >= prev - 1e-12);
            prev = r[0];
        }
        assert!(prev > 0.95);
    }

    #[test]
    fn interval_until_on_absorbing_goal() {
        // 0 →(2) goal (absorbing): a witness in [a, b] exists iff the jump
        // happens by b (goal persists): P = 1 − e^{−2b}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 2.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let r = until_time_interval(&m, &phi, &psi, 0.5, 1.0, 1e-12).unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        assert!((r[0] - exact).abs() < 1e-9, "{} vs {exact}", r[0]);
        assert!((r[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interval_until_with_phi_constraint() {
        // 0 →(1) trap(¬Φ), 0 →(1) goal: with I = [a, b] the path must stay
        // in Φ (state 0 or goal) up to the witness. From 0:
        // P = Pr{first jump ≤ b and it goes to goal} = ½(1 − e^{−2b}).
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.label(0, "a").label(2, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, false, true];
        let psi = vec![false, false, true];
        let (a, bb) = (0.3, 1.2);
        let r = until_time_interval(&m, &phi, &psi, a, bb, 1e-12).unwrap();
        let exact = 0.5 * (1.0 - (-2.0 * bb).exp());
        assert!((r[0] - exact).abs() < 1e-9, "{} vs {exact}", r[0]);
        // The trap state can never satisfy the formula.
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn interval_until_transient_goal_requires_presence_in_window() {
        // 0 →(1) goal →(3) 0 (goal is left again): the witness must fall in
        // [t1, t2] while the path is in goal, with Φ = tt. Cross-check the
        // exact two-phase value against the statistical checker.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 3.0);
        b.label(1, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = vec![true, true];
        let psi = vec![false, true];
        let window = mrmc_csrl::Interval::new(0.5, 0.9).unwrap();
        let exact = until_time_interval(&m, &phi, &psi, 0.5, 0.9, 1e-12).unwrap();
        let sim = crate::monte_carlo::estimate_until_general(
            &m,
            &phi,
            &psi,
            &window,
            &mrmc_csrl::Interval::unbounded(),
            0,
            crate::monte_carlo::SimulationOptions::with_samples(120_000),
        )
        .unwrap();
        assert!(
            sim.is_consistent_with(exact[0], 4.0),
            "exact {} vs sim {} ± {}",
            exact[0],
            sim.mean,
            sim.std_error
        );
    }

    #[test]
    fn interval_until_degenerates_to_bounded_until() {
        let m = triangle();
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let a = until_time_interval(&m, &phi, &psi, 0.0, 1.5, 1e-12).unwrap();
        let b = until_time_bounded(&m, &phi, &psi, 1.5, 1e-12).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn interval_until_rejects_bad_windows() {
        let m = triangle();
        let phi = vec![true; 3];
        let psi = vec![false, false, true];
        assert!(until_time_interval(&m, &phi, &psi, 2.0, 1.0, 1e-10).is_err());
        assert!(until_time_interval(&m, &phi, &psi, -1.0, 1.0, 1e-10).is_err());
        assert!(until_time_interval(&m, &phi, &psi, 0.0, f64::INFINITY, 1e-10).is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = triangle();
        let phi = vec![true, true, true];
        let psi = vec![false, false, true];
        assert!(until_time_bounded(&m, &phi[..2], &psi, 1.0, 1e-10).is_err());
        assert!(until_time_bounded(&m, &phi, &psi[..2], 1.0, 1e-10).is_err());
        assert!(until_time_bounded(&m, &phi, &psi, f64::NAN, 1e-10).is_err());
        assert!(until_time_bounded(&m, &phi, &psi, 1.0, 0.0).is_err());
        assert!(until_time_bounded(&m, &phi, &psi, 1.0, 1.5).is_err());
    }
}
