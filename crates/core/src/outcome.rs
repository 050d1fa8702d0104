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

/// The outcome of `Sat(Φ)`: the satisfying set, the undecided set, plus —
/// when the outermost operator was probabilistic — the computed per-state
/// probabilities, error bounds and budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    sat: Vec<bool>,
    unknown: Vec<bool>,
    probabilities: Option<Vec<f64>>,
    error_bounds: Option<Vec<f64>>,
    budgets: Option<Vec<ErrorBudget>>,
    engine: Option<&'static str>,
    reduction: Option<ReductionInfo>,
    dataflow: Option<DataflowInfo>,
}

impl CheckOutcome {
    pub(crate) fn with_probabilities(
        sat: Vec<bool>,
        unknown: Vec<bool>,
        probabilities: Vec<f64>,
        error_bounds: Option<Vec<f64>>,
        budgets: Option<Vec<ErrorBudget>>,
        engine: &'static str,
        dataflow: Option<DataflowInfo>,
    ) -> Self {
        CheckOutcome {
            sat,
            unknown,
            probabilities: Some(probabilities),
            error_bounds,
            budgets,
            engine: Some(engine),
            reduction: None,
            dataflow,
        }
    }

    pub(crate) fn with_unknown(sat: Vec<bool>, unknown: Vec<bool>) -> Self {
        CheckOutcome {
            sat,
            unknown,
            probabilities: None,
            error_bounds: None,
            budgets: None,
            engine: None,
            reduction: None,
            dataflow: None,
        }
    }

    /// Lift a per-block outcome computed on a quotient back to the
    /// original state space: every state receives the result of its block,
    /// and the outcome records the reduction that took place.
    pub(crate) fn lift(self, partition: &Partition, info: ReductionInfo) -> Self {
        CheckOutcome {
            sat: partition.lift(&self.sat),
            unknown: partition.lift(&self.unknown),
            probabilities: self.probabilities.map(|p| partition.lift(&p)),
            error_bounds: self.error_bounds.map(|e| partition.lift(&e)),
            budgets: self.budgets.map(|b| partition.lift(&b)),
            engine: self.engine,
            reduction: Some(info),
            dataflow: self.dataflow,
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
        self.probabilities.as_deref()
    }

    /// Per-state truncation error bounds, when the outermost operator used
    /// the uniformization engine.
    pub fn error_bounds(&self) -> Option<&[f64]> {
        self.error_bounds.as_deref()
    }

    /// Per-state error budgets for the outermost operator, when its
    /// engine accounts for its error (see
    /// [`ErrorBudget`](mrmc_numerics::ErrorBudget)).
    pub fn budgets(&self) -> Option<&[ErrorBudget]> {
        self.budgets.as_deref()
    }

    /// The engine that actually computed the outermost operator's
    /// probabilities — which the bound shape may override away from the
    /// configured [`UntilEngine`](crate::UntilEngine): `"reachability"`,
    /// `"baseline"`, `"uniformization"`, `"discretization"`,
    /// `"simulation"`, `"steady"`, or `"next"`. Absent for purely boolean
    /// formulas.
    pub fn engine(&self) -> Option<&'static str> {
        self.engine
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
        self.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let o = CheckOutcome::with_unknown(vec![true, false, true], vec![false; 3]);
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
        let o = CheckOutcome::with_probabilities(
            vec![false, true],
            vec![false, false],
            vec![0.2, 0.9],
            Some(vec![1e-9, 2e-9]),
            Some(vec![
                ErrorBudget::from_truncation(1e-9),
                ErrorBudget::from_truncation(2e-9),
            ]),
            "uniformization",
            None,
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
        let o = CheckOutcome::with_probabilities(
            vec![true, false],
            vec![false, true],
            vec![0.9, 0.4],
            Some(vec![1e-9, 2e-9]),
            None,
            "baseline",
            None,
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
        let o = CheckOutcome::with_probabilities(
            vec![false, true, false],
            vec![true, false, false],
            vec![0.5, 0.9, 0.1],
            None,
            None,
            "steady",
            None,
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
