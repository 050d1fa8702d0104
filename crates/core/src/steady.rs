//! Model checking the steady-state operator (Section 4.2, Algorithm 4.3).

use mrmc_ctmc::steady::SteadyStateAnalysis;
use mrmc_mrm::Mrm;

use crate::error::CheckError;
use crate::options::CheckOptions;

/// Compute `π(s, Sat(Φ))` for every state `s` (Eq. 3.2): the long-run
/// probability of the Φ-states, weighted by BSCC-reachability.
///
/// The [`SteadyStateAnalysis`] depends on the chain and the solver options
/// only, never on Φ: the first call builds it into `analysis`, and later
/// calls with the same slot reuse it.
///
/// # Errors
///
/// Propagates BSCC/steady-state solver failures.
pub fn steady_probabilities(
    mrm: &Mrm,
    options: &CheckOptions,
    analysis: &mut Option<SteadyStateAnalysis>,
    phi: &[bool],
) -> Result<Vec<f64>, CheckError> {
    let _span = mrmc_obs::span("steady/solve");
    let analysis = match analysis {
        Some(analysis) => analysis,
        slot => slot.insert(SteadyStateAnalysis::new(mrm.ctmc(), options.solver)?),
    };
    Ok(analysis.probabilities(phi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    #[test]
    fn figure_3_2_from_every_state() {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 2.0).transition(0, 4, 1.0);
        b.transition(1, 0, 1.0).transition(1, 2, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 2, 1.0);
        b.label(3, "b");
        let m = Mrm::without_rewards(b.build().unwrap());

        let p = steady_probabilities(
            &m,
            &CheckOptions::new(),
            &mut None,
            &m.labeling().states_with("b"),
        )
        .unwrap();
        // π(s1, b) = 8/21; from inside B1 it is π^B1(s4) = 2/3; from the
        // sink it is 0.
        assert!((p[0] - 8.0 / 21.0).abs() < 1e-9);
        assert!((p[2] - 2.0 / 3.0).abs() < 1e-9);
        assert!((p[3] - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(p[4], 0.0);
    }

    #[test]
    fn irreducible_chain_is_state_independent() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 3.0);
        b.label(0, "up");
        let m = Mrm::without_rewards(b.build().unwrap());
        let p = steady_probabilities(
            &m,
            &CheckOptions::new(),
            &mut None,
            &m.labeling().states_with("up"),
        )
        .unwrap();
        assert!((p[0] - 0.75).abs() < 1e-9);
        assert!((p[1] - 0.75).abs() < 1e-9);
    }
}
