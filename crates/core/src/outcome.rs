//! The result of checking a formula.

use mrmc_mrm::Partition;
use mrmc_numerics::ErrorBudget;
use mrmc_obs::counters::{self, Counter};

/// How the state space was reduced before checking (see
/// [`Reduction`](crate::Reduction)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionInfo {
    /// States in the original model.
    pub original_states: usize,
    /// States in the certified quotient the engines actually ran on.
    pub reduced_states: usize,
}

/// What the qualitative dataflow pre-pass decided before the outermost
/// operator's engine ran (see [`CheckOptions::slicing`](crate::CheckOptions)):
/// condensation size, certain-0/1 set sizes, how many states the slicer
/// pruned from the numerical solve, and the hash of the verified
/// [`QualitativeCertificate`](mrmc_analysis::QualitativeCertificate) the
/// pruning is justified by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowInfo {
    /// SCCs in the model's rate graph (Tarjan condensation).
    pub scc_count: usize,
    /// States proved to satisfy the until operator with probability 0.
    pub qual_zero_states: usize,
    /// States proved to satisfy the until operator with probability 1.
    pub qual_one_states: usize,
    /// States removed from the numerical solve beyond the engines' own
    /// dead-state skip. `0` guarantees the run was bitwise identical to
    /// an unsliced one.
    pub slice_states_removed: usize,
    /// Content hash of the independently re-verified certificate.
    pub certificate_hash: u64,
}

impl DataflowInfo {
    /// The four counts paired with their registered counter names, in
    /// the order the pre-pass emits them and `--json` prints them.
    pub fn counts(&self) -> [(&'static Counter, usize); 4] {
        [
            (counters::SCC_COUNT, self.scc_count),
            (counters::QUAL_ZERO_STATES, self.qual_zero_states),
            (counters::QUAL_ONE_STATES, self.qual_one_states),
            (counters::SLICE_STATES_REMOVED, self.slice_states_removed),
        ]
    }
}

/// A bound-aware, three-valued verdict for one state.
///
/// When the computed probability's error budget straddles the threshold of
/// a `P⋈p`/`S⋈p` operator, the checker refuses to pick a side: the state
/// is [`Unknown`](Verdict::Unknown) rather than silently mis-classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The formula definitely holds (at every probability inside the
    /// budget interval).
    Holds,
    /// The formula definitely fails.
    Fails,
    /// The threshold lies inside the budget interval: undecidable at this
    /// accuracy. Request a tighter tolerance to resolve it.
    Unknown,
}

/// What one probabilistic operator (`S`, `X` or `U`) computed for every
/// state, before its threshold is applied. Engines return it with
/// `Vec<ErrorBudget>` budgets, the session memo keeps it column-wise
/// (`sat::BudgetColumns`), and [`CheckOutcome`] carries the outermost one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OperatorResult<B = Vec<ErrorBudget>> {
    pub(crate) probabilities: Vec<f64>,
    /// See [`CheckOutcome::error_bounds`].
    pub(crate) error_bounds: Option<Vec<f64>>,
    /// Per-state error budgets; `None` where the engine claims no bound:
    /// the `X` closed form, and Gauss–Seidel solves stopped at their
    /// update tolerance (steady state, the `[t1, ∞)` window, unbounded
    /// until too wide for the direct solver).
    pub(crate) budgets: Option<B>,
    /// See [`CheckOutcome::engine`].
    pub(crate) engine: &'static str,
    /// See [`CheckOutcome::dataflow`].
    pub(crate) dataflow: Option<DataflowInfo>,
}

impl OperatorResult {
    /// A result that carries only `probabilities`.
    pub(crate) fn new(probabilities: Vec<f64>, engine: &'static str) -> Self {
        OperatorResult {
            probabilities,
            error_bounds: None,
            budgets: None,
            engine,
            dataflow: None,
        }
    }
}

impl<B> OperatorResult<B> {
    /// The same result with its budgets stored as `f` makes them.
    pub(crate) fn map_budgets<C>(self, f: impl FnOnce(B) -> C) -> OperatorResult<C> {
        OperatorResult {
            probabilities: self.probabilities,
            error_bounds: self.error_bounds,
            budgets: self.budgets.map(f),
            engine: self.engine,
            dataflow: self.dataflow,
        }
    }
}

/// The outcome of `Sat(Φ)`: the satisfying set, the undecided set, plus —
/// when the outermost operator was probabilistic — the computed per-state
/// probabilities, error bounds and budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    sat: Vec<bool>,
    unknown: Vec<bool>,
    operator: Option<OperatorResult>,
    reduction: Option<ReductionInfo>,
}

impl CheckOutcome {
    pub(crate) fn new(
        sat: Vec<bool>,
        unknown: Vec<bool>,
        operator: Option<OperatorResult>,
    ) -> Self {
        CheckOutcome {
            sat,
            unknown,
            operator,
            reduction: None,
        }
    }

    /// Lift a per-block outcome computed on a quotient back to the
    /// original state space: every state receives the result of its block,
    /// and the outcome records the reduction that took place.
    pub(crate) fn lift(self, partition: &Partition, info: ReductionInfo) -> Self {
        CheckOutcome {
            sat: partition.lift(&self.sat),
            unknown: partition.lift(&self.unknown),
            operator: self.operator.map(|o| OperatorResult {
                probabilities: partition.lift(&o.probabilities),
                error_bounds: o.error_bounds.map(|e| partition.lift(&e)),
                budgets: o.budgets.map(|b| partition.lift(&b)),
                ..o
            }),
            reduction: Some(info),
        }
    }

    /// The characteristic vector of `Sat(Φ)` — the states where the
    /// formula *definitely* holds. Undecided states read `false` here;
    /// consult [`verdict`](Self::verdict) or [`unknown`](Self::unknown)
    /// to tell them apart from definite failures.
    pub fn sat(&self) -> &[bool] {
        &self.sat
    }

    /// The characteristic vector of the undecided states.
    pub fn unknown(&self) -> &[bool] {
        &self.unknown
    }

    /// `true` when `state` definitely satisfies the formula.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn holds_in(&self, state: usize) -> bool {
        self.sat[state]
    }

    /// The three-valued verdict for `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn verdict(&self, state: usize) -> Verdict {
        if self.sat[state] {
            Verdict::Holds
        } else if self.unknown[state] {
            Verdict::Unknown
        } else {
            Verdict::Fails
        }
    }

    /// Iterate over the indices of satisfying states.
    pub fn satisfying_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.sat
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(s, _)| s)
    }

    /// Iterate over the indices of undecided states.
    pub fn unknown_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.unknown
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(s, _)| s)
    }

    /// `true` when any state is undecided at the achieved accuracy.
    pub fn has_unknown(&self) -> bool {
        self.unknown.iter().any(|&b| b)
    }

    /// Number of satisfying states.
    pub fn count(&self) -> usize {
        self.sat.iter().filter(|&&b| b).count()
    }

    /// The per-state probabilities computed for the outermost `S`/`P`
    /// operator (absent for purely boolean formulas).
    pub fn probabilities(&self) -> Option<&[f64]> {
        Some(&self.operator.as_ref()?.probabilities)
    }

    /// The outermost operator's engine-native error per state: the
    /// uniformization engine's truncation bound, or the simulation
    /// engine's standard error (a statistical estimate, not a bound).
    pub fn error_bounds(&self) -> Option<&[f64]> {
        self.operator.as_ref()?.error_bounds.as_deref()
    }

    /// Per-state error budgets for the outermost operator, when its
    /// engine accounts for its error (see
    /// [`ErrorBudget`](mrmc_numerics::ErrorBudget)).
    pub fn budgets(&self) -> Option<&[ErrorBudget]> {
        self.operator.as_ref()?.budgets.as_deref()
    }

    /// The engine that actually computed the outermost operator's
    /// probabilities — which the bound shape may override away from the
    /// configured [`UntilEngine`](crate::UntilEngine): `"reachability"`,
    /// `"baseline"`, `"uniformization"`, `"discretization"`,
    /// `"simulation"`, `"steady"`, or `"next"`. Absent for purely boolean
    /// formulas.
    pub fn engine(&self) -> Option<&'static str> {
        Some(self.operator.as_ref()?.engine)
    }

    /// The state-space reduction applied before checking, when the checker
    /// ran on a certified lumping quotient (see
    /// [`Reduction`](crate::Reduction)); `None` when the full model was
    /// checked.
    pub fn reduction(&self) -> Option<ReductionInfo> {
        self.reduction
    }

    /// The qualitative dataflow pre-pass result for the outermost
    /// operator, when slicing was enabled and an until engine ran with a
    /// verified certificate; `None` for boolean formulas, non-until
    /// operators, and `--no-slicing` runs.
    pub fn dataflow(&self) -> Option<DataflowInfo> {
        self.operator.as_ref()?.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let o = CheckOutcome::new(vec![true, false, true], vec![false; 3], None);
        assert_eq!(o.sat(), &[true, false, true]);
        assert!(o.holds_in(0));
        assert!(!o.holds_in(1));
        assert_eq!(o.satisfying_states().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(o.count(), 2);
        assert!(o.probabilities().is_none());
        assert!(o.error_bounds().is_none());
        assert!(o.budgets().is_none());
        assert!(!o.has_unknown());
        assert_eq!(o.verdict(0), Verdict::Holds);
        assert_eq!(o.verdict(1), Verdict::Fails);
    }

    #[test]
    fn probability_outcome() {
        let o = CheckOutcome::new(
            vec![false, true],
            vec![false, false],
            Some(OperatorResult {
                error_bounds: Some(vec![1e-9, 2e-9]),
                budgets: Some(vec![
                    ErrorBudget::from_truncation(1e-9),
                    ErrorBudget::from_truncation(2e-9),
                ]),
                ..OperatorResult::new(vec![0.2, 0.9], "uniformization")
            }),
        );
        assert_eq!(o.engine(), Some("uniformization"));
        assert_eq!(o.probabilities().unwrap()[1], 0.9);
        assert_eq!(o.error_bounds().unwrap()[0], 1e-9);
        assert_eq!(o.budgets().unwrap()[0].path_truncation, 1e-9);
    }

    #[test]
    fn lift_replicates_block_results_per_state() {
        // Blocks {0, 2} and {1, 3}: a 2-block outcome becomes a 4-state one.
        let p = Partition::from_assignment(&[0, 1, 0, 1]);
        let o = CheckOutcome::new(
            vec![true, false],
            vec![false, true],
            Some(OperatorResult {
                error_bounds: Some(vec![1e-9, 2e-9]),
                ..OperatorResult::new(vec![0.9, 0.4], "baseline")
            }),
        );
        assert_eq!(o.reduction(), None);
        let info = ReductionInfo {
            original_states: 4,
            reduced_states: 2,
        };
        let lifted = o.lift(&p, info);
        assert_eq!(lifted.engine(), Some("baseline"));
        assert_eq!(lifted.sat(), &[true, false, true, false]);
        assert_eq!(lifted.unknown(), &[false, true, false, true]);
        assert_eq!(lifted.probabilities().unwrap(), &[0.9, 0.4, 0.9, 0.4]);
        assert_eq!(lifted.error_bounds().unwrap(), &[1e-9, 2e-9, 1e-9, 2e-9]);
        assert_eq!(lifted.reduction(), Some(info));
    }

    #[test]
    fn unknown_states_are_not_satisfying() {
        let o = CheckOutcome::new(
            vec![false, true, false],
            vec![true, false, false],
            Some(OperatorResult::new(vec![0.5, 0.9, 0.1], "steady")),
        );
        assert_eq!(o.verdict(0), Verdict::Unknown);
        assert_eq!(o.verdict(1), Verdict::Holds);
        assert_eq!(o.verdict(2), Verdict::Fails);
        assert!(!o.holds_in(0));
        assert!(o.has_unknown());
        assert_eq!(o.unknown_states().collect::<Vec<_>>(), vec![0]);
        assert_eq!(o.count(), 1);
    }
}
