//! Model checking the steady-state operator (Section 4.2, Algorithm 4.3).

use std::sync::Arc;

use mrmc_ctmc::steady::SteadyStateAnalysis;

use crate::error::CheckError;
use crate::sat::Ctx;

/// Compute `π(s, Sat(Φ))` for every state `s` (Eq. 3.2): the long-run
/// probability of the Φ-states, weighted by BSCC-reachability.
///
/// The [`SteadyStateAnalysis`] depends on the chain and the solver options
/// only, never on Φ: it comes from the session memo, which builds it on
/// the first `S` operator over the checked model (under the `steady/solve`
/// span) and serves it to every later one.
///
/// # Errors
///
/// Propagates BSCC/steady-state solver failures.
pub(crate) fn steady_probabilities(ctx: &Ctx<'_>, phi: &[bool]) -> Result<Vec<f64>, CheckError> {
    let Ctx { mrm, options, memo } = *ctx;
    let analysis = memo.steady(options.solver, || {
        let _span = mrmc_obs::span("steady/solve");
        Ok(Arc::new(SteadyStateAnalysis::new(
            mrm.ctmc(),
            options.solver,
        )?))
    })?;
    Ok(analysis.probabilities(phi))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{model_hash, Caches};
    use crate::{CheckOptions, CheckOutcome, CheckSession, ModelHandle, Reduction, UntilEngine};
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::Mrm;
    use mrmc_sparse::solver::SolverOptions;

    /// [`steady_probabilities`] on a fresh memo under the default options.
    fn steady(m: &Mrm, phi: &[bool]) -> Vec<f64> {
        let caches = Caches::default();
        let options = CheckOptions::new();
        let ctx = Ctx {
            mrm: m,
            options: &options,
            memo: caches.memo(model_hash(m), &options),
        };
        steady_probabilities(&ctx, phi).unwrap()
    }

    #[test]
    fn figure_3_2_from_every_state() {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 2.0).transition(0, 4, 1.0);
        b.transition(1, 0, 1.0).transition(1, 2, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 2, 1.0);
        b.label(3, "b");
        let m = Mrm::without_rewards(b.build().unwrap());

        let p = steady(&m, &m.labeling().states_with("b"));
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
        let p = steady(&m, &m.labeling().states_with("up"));
        assert!((p[0] - 0.75).abs() < 1e-9);
        assert!((p[1] - 0.75).abs() < 1e-9);
    }

    /// Two BSCCs, {1, 2} and {3, 4}, entered from 0 at equal rates.
    fn two_bsccs() -> Mrm {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 1.0).transition(0, 3, 1.0);
        b.transition(1, 2, 2.0).transition(2, 1, 1.0);
        b.transition(3, 4, 1.0).transition(4, 3, 1.0);
        b.label(1, "a").label(2, "goal").label(3, "c").label(4, "c");
        Mrm::without_rewards(b.build().unwrap())
    }

    /// Check `formula` in `session` under a metrics recorder: the outcome,
    /// which must equal a fresh session's, and how many times the check
    /// opened `steady/solve`.
    fn check_counting_solves(
        session: &CheckSession,
        handle: &ModelHandle,
        formula: &str,
        options: &CheckOptions,
    ) -> (CheckOutcome, u64) {
        let metrics = Arc::new(mrmc_obs::MetricsRecorder::new());
        let outcome = mrmc_obs::with_recorder(metrics.clone(), || {
            session.check_str(handle, formula, options)
        })
        .unwrap();
        let fresh = CheckSession::new();
        let fresh_handle = fresh.insert(handle.mrm().clone());
        let expected = fresh.check_str(&fresh_handle, formula, options).unwrap();
        assert_eq!(outcome, expected, "`{formula}`");
        let solves = metrics
            .snapshot()
            .phases
            .get("steady/solve")
            .map_or(0, |&(count, _)| count);
        (outcome, solves)
    }

    #[test]
    fn one_session_solves_each_chain_once() {
        let session = CheckSession::new();
        let handle = session.insert(two_bsccs());
        let options = CheckOptions::new();
        let solves = |formula: &str, options: &CheckOptions| {
            check_counting_solves(&session, &handle, formula, options).1
        };
        assert_eq!(solves("S(> 0.5) (a)", &options), 1);
        assert_eq!(solves("S(< 0.2) (a)", &options), 0);
        // Another engine is another Sat cache key, but the same chain
        // under the same solver options.
        let other_engine = options.with_engine(UntilEngine::uniformization(1e-10));
        assert_eq!(solves("S(> 0.5) (a)", &other_engine), 0);
        // A different solver tolerance is a different analysis.
        let mut tighter = options;
        tighter.solver = SolverOptions::new().with_tolerance(1e-10);
        assert_eq!(solves("S(> 0.5) (a)", &tighter), 1);
        assert_eq!(solves("S(< 0.2) (a)", &tighter), 0);
    }

    #[test]
    fn two_run_widening_solves_once() {
        // The inner until is undecided in state 1 under a crippled
        // engine, so the outer S runs on two argument sets.
        let session = CheckSession::new();
        let handle = session.insert(two_bsccs());
        let options = CheckOptions::new()
            .with_engine(UntilEngine::uniformization(0.5))
            .with_reduction(Reduction::Off);
        let (outcome, solves) = check_counting_solves(
            &session,
            &handle,
            "S(> 0.5) (P(> 0.3) [a U[0,0.5][0,2000] goal])",
            &options,
        );
        let budgets = outcome.budgets().expect("widening attaches budgets");
        assert!(budgets[1].propagation > 0.0, "the two runs must differ");
        assert_eq!(solves, 1);
    }
}
