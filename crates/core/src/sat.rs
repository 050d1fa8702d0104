//! The `Sat(Φ)` recursion (Section 4.1, Algorithm 4.1), extended with
//! bound-aware three-valued verdicts.
//!
//! Every probability the engines report comes with an
//! [`ErrorBudget`](mrmc_numerics::ErrorBudget). A threshold operator
//! `P⋈p`/`S⋈p` is therefore evaluated on the *interval*
//! `[p̂ − E, p̂ + E]`: when the whole interval falls on one side of the
//! bound the verdict is definite, otherwise the state is *unknown*
//! (Kleene's strong three-valued logic) instead of silently guessed.
//!
//! Unknown inner sets are propagated through nested `S`/`P` operators by
//! monotone two-run widening: steady-state, next and until probabilities
//! are all nondecreasing in their argument state sets, so running the
//! engine on the definite set (lower) and on definite ∪ unknown (upper)
//! brackets the true probability. The midpoint is reported, and the
//! half-width is charged to the budget's `propagation` component.
//!
//! The three operators share that path: each arm of
//! [`sat_node`](Ctx::sat_node) hands its engine, as a closure from
//! argument sets to an [`OperatorResult`], to one helper,
//! [`operator`](Ctx::operator), which runs it, widens when an argument is
//! undecided, and applies the threshold. The same `OperatorResult` type
//! is what the engines return, what the session memo stores (budgets
//! column-wise, in a [`SatNode`]) and what [`CheckOutcome`] reports.
//!
//! The recursion is a method of [`Ctx`]: the model, the options and the
//! memo of the [`CheckSession`](crate::CheckSession) the check runs in.
//! Engine-backed nodes are served from that memo, and the steady-state and
//! until operators receive the same context, so every cache a check
//! touches is visible in the signatures; none is reached through
//! thread-local state.

use mrmc_csrl::{CompareOp, PathFormula, StateFormula};
use mrmc_mrm::Mrm;
use mrmc_numerics::ErrorBudget;

use crate::cache::Memo;
use crate::error::CheckError;
use crate::next::next_probabilities;
use crate::options::CheckOptions;
use crate::outcome::{CheckOutcome, OperatorResult};
use crate::steady::steady_probabilities;
use crate::until::until_probabilities;

/// Per-state error budgets as the session memo keeps them: one column per
/// component that is not `+0.0` in every state. An operator's budget
/// usually has one or two such components (unbounded until only
/// `float_accumulation`, the time-bounded baseline only `poisson_tail`),
/// so a memo entry takes 8–16 bytes per state where `Vec<ErrorBudget>`
/// takes 48. The round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BudgetColumns {
    states: usize,
    columns: [Option<Vec<f64>>; 6],
}

impl BudgetColumns {
    fn new(budgets: Vec<ErrorBudget>) -> Self {
        let columns = std::array::from_fn(|c| {
            let column: Vec<f64> = budgets.iter().map(|b| b.components()[c].1).collect();
            column.iter().any(|v| v.to_bits() != 0).then_some(column)
        });
        BudgetColumns {
            states: budgets.len(),
            columns,
        }
    }

    fn to_vec(&self) -> Vec<ErrorBudget> {
        let at = |c: usize, s: usize| self.columns[c].as_ref().map_or(0.0, |column| column[s]);
        (0..self.states)
            .map(|s| ErrorBudget {
                path_truncation: at(0, s),
                poisson_tail: at(1, s),
                float_accumulation: at(2, s),
                discretization: at(3, s),
                statistical: at(4, s),
                propagation: at(5, s),
            })
            .collect()
    }
}

/// One node of the recursion: `Sat(Φ)`, its undecided states and, for an
/// `S`/`P` operator, the operator's result with its budgets stored as the
/// session memo keeps them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SatNode {
    sat: Vec<bool>,
    unknown: Vec<bool>,
    operator: Option<OperatorResult<BudgetColumns>>,
}

impl SatNode {
    pub(crate) fn sets(sat: Vec<bool>, unknown: Vec<bool>) -> Self {
        SatNode {
            sat,
            unknown,
            operator: None,
        }
    }

    /// `true` when the formula definitely fails in `state`.
    fn fails(&self, state: usize) -> bool {
        !self.sat[state] && !self.unknown[state]
    }
}

/// One `Sat(Φ)` run: the model it checks, the options, and the memos of
/// the [`CheckSession`](crate::CheckSession) it runs in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) mrm: &'a Mrm,
    pub(crate) options: &'a CheckOptions,
    pub(crate) memo: Memo<'a>,
}

/// `a ∪ b` as characteristic vectors.
fn union(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(&x, &y)| x || y).collect()
}

fn any(v: &[bool]) -> bool {
    v.iter().any(|&b| b)
}

/// Combine the lower and upper runs of monotone two-run widening: the
/// midpoint estimate, and a budget charging the half-width to the
/// `propagation` component on top of the component-wise worst case of the
/// two runs' own budgets. Engine-native error bounds combine by maximum.
/// The engine and the dataflow pre-pass are the lower run's: it analyzed
/// the definite argument sets the verdicts are anchored to.
fn widen(lo: OperatorResult, hi: OperatorResult) -> OperatorResult {
    let (probabilities, budgets) = (0..lo.probabilities.len())
        .map(|s| {
            // The engines' own error can perturb the bracketing by up to
            // their budget, so order the endpoints defensively.
            let (a, b) = if lo.probabilities[s] <= hi.probabilities[s] {
                (lo.probabilities[s], hi.probabilities[s])
            } else {
                (hi.probabilities[s], lo.probabilities[s])
            };
            let base = match (&lo.budgets, &hi.budgets) {
                (Some(l), Some(h)) => l[s].max(&h[s]),
                (Some(l), None) => l[s],
                (None, Some(h)) => h[s],
                (None, None) => ErrorBudget::zero(),
            };
            (0.5 * (a + b), base.widened_by(0.5 * (b - a)))
        })
        .unzip();
    let error_bounds = match (lo.error_bounds, hi.error_bounds) {
        (Some(l), Some(h)) => Some(l.iter().zip(&h).map(|(&a, &b)| a.max(b)).collect()),
        _ => None,
    };
    OperatorResult {
        probabilities,
        error_bounds,
        budgets: Some(budgets),
        ..lo
    }
}

/// Evaluate `⋈ bound` on each probability. With budgets the comparison is
/// interval-valued: a threshold inside `[p − E, p + E]` yields *unknown*.
fn threshold_verdicts(
    op: CompareOp,
    bound: f64,
    result: &OperatorResult,
) -> (Vec<bool>, Vec<bool>) {
    let verdict = |s: usize, p: f64| match &result.budgets {
        None => Some(op.eval(p, bound)),
        Some(bs) => {
            let e = bs[s].total();
            // Probabilities live in [0, 1]; clamping the interval keeps
            // trivial thresholds (≥ 0, ≤ 1) decidable under any budget.
            op.eval_interval((p - e).max(0.0), (p + e).min(1.0), bound)
        }
    };
    result
        .probabilities
        .iter()
        .enumerate()
        .map(|(s, &p)| verdict(s, p).map_or((false, true), |v| (v, false)))
        .unzip()
}

impl Ctx<'_> {
    /// Compute `Sat(Φ)` with a post-order traversal of the formula.
    pub(crate) fn satisfy(&self, formula: &StateFormula) -> Result<CheckOutcome, CheckError> {
        let node = self.sat_rec(formula)?;
        let operator = node.operator.map(|o| o.map_budgets(|b| b.to_vec()));
        Ok(CheckOutcome::new(node.sat, node.unknown, operator))
    }

    /// One recursion step, with the session memo consulted first.
    ///
    /// Engine-backed nodes (`S`/`P` operators) are served from the memo's
    /// [`SatCache`](crate::cache::SatCache); boolean nodes are recomputed —
    /// they cost a vector scan, less than a cache round-trip.
    fn sat_rec(&self, formula: &StateFormula) -> Result<SatNode, CheckError> {
        match formula {
            StateFormula::Steady { .. } | StateFormula::Prob { .. } => {
                self.memo.sat(formula, || self.sat_node(formula))
            }
            _ => self.sat_node(formula),
        }
    }

    /// A probabilistic operator `⋈ bound` over the argument formulas
    /// `args`: `run` maps their definite sets to the operator's result.
    /// When some argument has undecided states, `run` runs again on
    /// definite ∪ undecided and the two runs are [widened](widen); the
    /// verdicts then come from the result's budgets.
    fn operator(
        &self,
        op: CompareOp,
        bound: f64,
        args: &[&StateFormula],
        mut run: impl FnMut(&[Vec<bool>]) -> Result<OperatorResult, CheckError>,
    ) -> Result<SatNode, CheckError> {
        let mut sets = Vec::with_capacity(args.len());
        let mut unknowns = Vec::with_capacity(args.len());
        for arg in args {
            let node = self.sat_rec(arg)?;
            sets.push(node.sat);
            unknowns.push(node.unknown);
        }
        let lo = run(&sets)?;
        let result = if unknowns.iter().any(|u| any(u)) {
            let upper: Vec<Vec<bool>> = sets
                .iter()
                .zip(&unknowns)
                .map(|(s, u)| union(s, u))
                .collect();
            widen(lo, run(&upper)?)
        } else {
            lo
        };
        let (sat, unknown) = threshold_verdicts(op, bound, &result);
        Ok(SatNode {
            sat,
            unknown,
            operator: Some(result.map_budgets(BudgetColumns::new)),
        })
    }

    fn sat_node(&self, formula: &StateFormula) -> Result<SatNode, CheckError> {
        let mrm = self.mrm;
        let n = mrm.num_states();
        match formula {
            StateFormula::True => Ok(SatNode::sets(vec![true; n], vec![false; n])),
            StateFormula::False => Ok(SatNode::sets(vec![false; n], vec![false; n])),
            StateFormula::Ap(name) => {
                let sat = mrm.labeling().states_with(name);
                if !any(&sat) {
                    return Err(CheckError::UnknownProposition { name: name.clone() });
                }
                Ok(SatNode::sets(sat, vec![false; n]))
            }
            StateFormula::Not(inner) => {
                let inner = self.sat_rec(inner)?;
                // ¬unknown stays unknown; only definite-false flips to true.
                let sat = (0..n).map(|s| inner.fails(s)).collect();
                Ok(SatNode::sets(sat, inner.unknown))
            }
            StateFormula::Or(a, b) => {
                let (a, b) = (self.sat_rec(a)?, self.sat_rec(b)?);
                let sat: Vec<bool> = union(&a.sat, &b.sat);
                let unknown = (0..n)
                    .map(|s| !sat[s] && (a.unknown[s] || b.unknown[s]))
                    .collect();
                Ok(SatNode::sets(sat, unknown))
            }
            StateFormula::And(a, b) => {
                let (a, b) = (self.sat_rec(a)?, self.sat_rec(b)?);
                let sat: Vec<bool> = (0..n).map(|s| a.sat[s] && b.sat[s]).collect();
                // Definitely false as soon as either side definitely fails.
                let unknown = (0..n)
                    .map(|s| !sat[s] && !a.fails(s) && !b.fails(s))
                    .collect();
                Ok(SatNode::sets(sat, unknown))
            }
            StateFormula::Implies(a, b) => {
                // a ⇒ b ≡ ¬a ∨ b in Kleene logic.
                let (a, b) = (self.sat_rec(a)?, self.sat_rec(b)?);
                let sat: Vec<bool> = (0..n).map(|s| a.fails(s) || b.sat[s]).collect();
                let unknown = (0..n)
                    .map(|s| !sat[s] && (a.unknown[s] || b.unknown[s]))
                    .collect();
                Ok(SatNode::sets(sat, unknown))
            }
            StateFormula::Steady { op, bound, inner } => {
                self.operator(*op, *bound, &[inner], |sets| {
                    let p = steady_probabilities(self, &sets[0])?;
                    Ok(OperatorResult::new(p, "steady"))
                })
            }
            StateFormula::Prob { op, bound, path } => match path.as_ref() {
                PathFormula::Next {
                    time,
                    reward,
                    inner,
                } => self.operator(*op, *bound, &[inner], |sets| {
                    let p = next_probabilities(mrm, time, reward, &sets[0])?;
                    Ok(OperatorResult::new(p, "next"))
                }),
                PathFormula::Until {
                    time,
                    reward,
                    lhs,
                    rhs,
                } => self.operator(*op, *bound, &[lhs, rhs], |sets| {
                    until_probabilities(self, time, reward, &sets[0], &sets[1])
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Verdict;
    use crate::{ModelChecker, Reduction, UntilEngine};
    use mrmc_csrl::Interval;
    use mrmc_ctmc::steady::SteadyStateAnalysis;
    use mrmc_ctmc::CtmcBuilder;

    #[test]
    fn budget_columns_round_trip_bit_for_bit() {
        let budgets = vec![
            ErrorBudget::from_float_accumulation(3e-13),
            ErrorBudget::zero(),
            ErrorBudget {
                path_truncation: 1e-9,
                propagation: -0.0,
                ..ErrorBudget::from_poisson_tail(2e-10)
            },
        ];
        let columns = BudgetColumns::new(budgets.clone());
        // Statistical and discretization are +0.0 everywhere: not stored.
        assert_eq!(columns.columns.iter().flatten().count(), 4);
        let bits = |v: &[ErrorBudget]| {
            v.iter()
                .flat_map(|b| b.components().map(|(_, x)| x.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&columns.to_vec()), bits(&budgets));
        assert!(BudgetColumns::new(Vec::new()).to_vec().is_empty());
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
        b.label(0, "off");
        b.label(1, "sleep");
        b.label(2, "idle");
        b.label(3, "receive").label(3, "busy");
        b.label(4, "transmit").label(4, "busy");
        Mrm::without_rewards(b.build().unwrap())
    }

    fn checker() -> ModelChecker {
        ModelChecker::new(wavelan(), CheckOptions::new())
    }

    /// A checker whose uniformization engine is crippled (huge truncation
    /// probability), so interior thresholds become undecidable.
    fn sloppy_checker() -> ModelChecker {
        ModelChecker::new(
            wavelan(),
            CheckOptions::new().with_engine(UntilEngine::uniformization(0.5)),
        )
    }

    #[test]
    fn boolean_layer() {
        let c = checker();
        assert_eq!(c.check_str("TT").unwrap().count(), 5);
        assert_eq!(c.check_str("FF").unwrap().count(), 0);
        assert_eq!(
            c.check_str("busy").unwrap().sat(),
            &[false, false, false, true, true]
        );
        assert_eq!(
            c.check_str("busy || idle").unwrap().sat(),
            &[false, false, true, true, true]
        );
        assert_eq!(
            c.check_str("busy && receive").unwrap().sat(),
            &[false, false, false, true, false]
        );
        assert_eq!(
            c.check_str("!busy").unwrap().sat(),
            &[true, true, true, false, false]
        );
        // busy => receive fails only in the transmit state.
        assert_eq!(
            c.check_str("busy => receive").unwrap().sat(),
            &[true, true, true, true, false]
        );
    }

    #[test]
    fn unknown_proposition_is_an_error() {
        // Caught by the pre-flight lint (F001) before any engine runs.
        let c = checker();
        let e = c.check_str("buzzy").unwrap_err();
        assert!(matches!(e, CheckError::Preflight(_)), "{e}");
        assert!(e.to_string().contains("buzzy"));

        // With pre-flight disabled, the recursion itself reports it.
        let c = ModelChecker::new(wavelan(), CheckOptions::new().without_preflight());
        let e = c.check_str("buzzy").unwrap_err();
        assert!(matches!(e, CheckError::UnknownProposition { .. }));
        assert!(e.to_string().contains("buzzy"));
    }

    #[test]
    fn steady_state_formula_on_irreducible_chain() {
        // Long-run probabilities of the WaveLAN chain: the off/sleep pair
        // dominates because wake-up is slow.
        let c = checker();
        let out = c.check_str("S(> 0.5) (off || sleep)").unwrap();
        // The chain is irreducible: all states agree.
        assert!(out.sat().iter().all(|&b| b) || out.sat().iter().all(|&b| !b));
        let p = out.probabilities().unwrap();
        assert!((p[0] - p[4]).abs() < 1e-9);
    }

    #[test]
    fn nested_probability_formula() {
        // From idle, one jump reaches busy with probability 2.25/14.25.
        let c = checker();
        let out = c.check_str("P(> 0.15) [X busy]").unwrap();
        assert!(out.holds_in(2));
        assert!(!out.holds_in(0));
        let p = out.probabilities().unwrap();
        assert!((p[2] - 2.25 / 14.25).abs() < 1e-12);

        // Nested: states satisfying P(>0.9)[X (P(>0.15)[X busy])] — one
        // jump into a state from which busy is reachable in one jump with
        // probability > 0.15 (i.e. into idle).
        let out = c.check_str("P(> 0.9) [X (P(> 0.15) [X busy])]").unwrap();
        // receive and transmit jump to idle with probability 1.
        assert!(out.holds_in(3));
        assert!(out.holds_in(4));
        assert!(!out.holds_in(0));
    }

    #[test]
    fn until_formula_end_to_end() {
        let c = checker();
        // Unbounded until: from anywhere, busy is eventually reached (the
        // chain is irreducible). The iterative solver converges to 1 up to
        // its tolerance, so compare against a slightly smaller bound.
        let out = c.check_str("P(> 0.9999) [TT U busy]").unwrap();
        assert_eq!(out.count(), 5);
        // Time-bounded with generous bound.
        let out = c.check_str("P(> 0.1) [idle U[0,2] busy]").unwrap();
        assert!(out.holds_in(2));
        assert!(out.probabilities().is_some());
    }

    #[test]
    fn reward_bounded_until_uses_the_engine() {
        let c = checker();
        let out = c
            .check_str("P(> 0.1) [idle U[0,0.5][0,2000] busy]")
            .unwrap();
        assert!(out.error_bounds().is_some());
        let budgets = out.budgets().expect("uniformization reports budgets");
        assert!(budgets
            .iter()
            .all(mrmc_numerics::ErrorBudget::is_well_formed));
        let p = out.probabilities().unwrap();
        assert!(p[2] > 0.1);
        assert_eq!(p[0], 0.0);
        // Far from the bound at w = 1e-8: every verdict is definite.
        assert!(!out.has_unknown());
    }

    #[test]
    fn straddled_threshold_is_unknown_not_guessed() {
        // With truncation probability 0.5 the budget covers half the unit
        // interval: an interior threshold cannot be decided, and the
        // checker must say so rather than pick a side.
        let out = sloppy_checker()
            .check_str("P(> 0.3) [idle U[0,0.5][0,2000] busy]")
            .unwrap();
        assert_eq!(out.verdict(2), Verdict::Unknown);
        assert!(!out.holds_in(2));
        assert!(out.has_unknown());
        // A trivial threshold stays decidable under any budget.
        let out = sloppy_checker()
            .check_str("P(>= 0) [idle U[0,0.5][0,2000] busy]")
            .unwrap();
        assert!(!out.has_unknown());
        assert_eq!(out.count(), 5);
    }

    #[test]
    fn kleene_connectives_propagate_unknown() {
        let c = sloppy_checker();
        let u = "P(> 0.3) [idle U[0,0.5][0,2000] busy]";
        // ¬unknown is unknown.
        let out = c.check_str(&format!("!({u})")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Unknown);
        // unknown ∨ TT is true; unknown ∧ FF is false.
        let out = c.check_str(&format!("({u}) || TT")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Holds);
        let out = c.check_str(&format!("({u}) && FF")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Fails);
        // unknown ∨ FF and unknown ∧ TT stay unknown.
        let out = c.check_str(&format!("({u}) || FF")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Unknown);
        let out = c.check_str(&format!("({u}) && TT")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Unknown);
        // unknown ⇒ FF is unknown; FF ⇒ unknown is true.
        let out = c.check_str(&format!("({u}) => FF")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Unknown);
        let out = c.check_str(&format!("FF => ({u})")).unwrap();
        assert_eq!(out.verdict(2), Verdict::Holds);
    }

    #[test]
    fn nested_unknown_widens_the_outer_budget() {
        // The inner formula is undecidable in state idle under the sloppy
        // engine; the outer X-operator then runs on bracketing inner sets
        // and charges the spread to the propagation component.
        let c = sloppy_checker();
        let inner = "P(> 0.3) [idle U[0,0.5][0,2000] busy]";
        let out = c.check_str(&format!("P(> 0.9) [X ({inner})]")).unwrap();
        let budgets = out.budgets().expect("widening must attach budgets");
        // From receive/transmit every jump lands in idle, the unknown
        // state: the bracketing runs disagree by the full jump probability.
        assert!(budgets[3].propagation > 0.4);
        assert_eq!(out.verdict(3), Verdict::Unknown);
        // From off the next state is sleep (definite on both runs).
        assert_eq!(budgets[0].propagation, 0.0);
        assert_eq!(out.verdict(0), Verdict::Fails);
    }

    /// `mrm` under the sloppy engine, without lumping, so the outer
    /// operator runs on the very model the bracketing runs below use.
    fn sloppy_unreduced(mrm: Mrm) -> ModelChecker {
        let options = CheckOptions::new()
            .with_engine(UntilEngine::uniformization(0.5))
            .with_reduction(Reduction::Off);
        ModelChecker::new(mrm, options)
    }

    /// The argument sets of the two widening runs over `inner`: its
    /// definite set and definite ∪ undecided.
    fn bracketing_sets(c: &ModelChecker, inner: &str) -> (Vec<bool>, Vec<bool>) {
        let inner = c.check_str(inner).unwrap();
        assert!(
            inner.has_unknown(),
            "the inner formula must be undecided somewhere"
        );
        (inner.sat().to_vec(), union(inner.sat(), inner.unknown()))
    }

    /// `out` reports each state's bracketing midpoint and charges half the
    /// spread to `propagation`.
    fn assert_widened(out: &CheckOutcome, lo: &[f64], hi: &[f64]) {
        let p = out.probabilities().unwrap();
        let budgets = out.budgets().expect("widening attaches budgets");
        for s in 0..lo.len() {
            let (a, b) = (lo[s].min(hi[s]), lo[s].max(hi[s]));
            assert_eq!(p[s], 0.5 * (a + b), "state {s}");
            assert_eq!(budgets[s].propagation, 0.5 * (b - a), "state {s}");
        }
    }

    #[test]
    fn nested_unknown_widens_a_next_operator() {
        let c = sloppy_unreduced(wavelan());
        let inner = "P(> 0.3) [idle U[0,0.5][0,2000] busy]";
        let (lo_set, hi_set) = bracketing_sets(&c, inner);
        let out = c.check_str(&format!("P(> 0.9) [X ({inner})]")).unwrap();
        assert_eq!(out.engine(), Some("next"));
        let any = Interval::unbounded();
        let lo = next_probabilities(c.mrm(), &any, &any, &lo_set).unwrap();
        let hi = next_probabilities(c.mrm(), &any, &any, &hi_set).unwrap();
        assert_widened(&out, &lo, &hi);
        let budgets = out.budgets().unwrap();
        assert!(budgets[3].propagation > 0.4);
        // Off's only successor, sleep, is definite in both runs.
        assert_eq!(budgets[0].propagation, 0.0);
        assert_eq!(out.verdict(0), Verdict::Fails);
    }

    #[test]
    fn nested_unknown_widens_a_steady_operator() {
        // Two BSCCs, {1, 2} and {3, 4}, entered from 0 at equal rates.
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 1.0).transition(0, 3, 1.0);
        b.transition(1, 2, 2.0).transition(2, 1, 1.0);
        b.transition(3, 4, 1.0).transition(4, 3, 1.0);
        b.label(1, "a").label(2, "goal").label(3, "c").label(4, "c");
        let c = sloppy_unreduced(Mrm::without_rewards(b.build().unwrap()));
        let inner = "P(> 0.3) [a U[0,0.5][0,2000] goal]";
        let (lo_set, hi_set) = bracketing_sets(&c, inner);
        let out = c.check_str(&format!("S(> 0.5) ({inner})")).unwrap();
        assert_eq!(out.engine(), Some("steady"));
        let analysis = SteadyStateAnalysis::new(c.mrm().ctmc(), c.options().solver).unwrap();
        let (lo, hi) = (
            analysis.probabilities(&lo_set),
            analysis.probabilities(&hi_set),
        );
        assert_widened(&out, &lo, &hi);
        let budgets = out.budgets().unwrap();
        assert!(budgets[1].propagation > 0.0);
        // The BSCC {3, 4} holds no undecided state: no spread there.
        for s in [3, 4] {
            assert_eq!(budgets[s].propagation, 0.0, "state {s}");
            assert_eq!(out.verdict(s), Verdict::Fails);
        }
    }
}
