//! Qualitative dataflow analysis: certified Prob0/Prob1 precomputation
//! and graph condensation (`X` codes).
//!
//! Every verdict the numerical engines produce is earned with floating
//! point, even when pure graph structure already decides it: a state from
//! which no `Φ`-path reaches a `Ψ`-state satisfies `P(Φ U Ψ) = 0`
//! *exactly*, and a state from which the chain almost surely reaches `Ψ`
//! through `Φ` satisfies it with probability *exactly* 1. This module
//! computes those two sets **statically, before any numerics**, and
//! packages them as a [`QualitativeCertificate`] that an independent
//! `O(n + m)` verifier re-checks before any engine is allowed to prune
//! with it — the same trust discipline as the lumping certificates.
//!
//! # The fixpoints
//!
//! For a finite CTMC the qualitative sets of `Φ U Ψ` depend only on the
//! digraph of strictly positive rates:
//!
//! * **certain-zero** (`Prob0`): the complement of the backward cone of
//!   `Ψ` through `Φ`-states. Computed by one backward BFS from `Ψ`,
//!   expanding to predecessors satisfying `Φ ∧ ¬Ψ`. Sound for **every**
//!   bound shape `U^I_J` — a witness path for any time/reward bound is in
//!   particular a graph path through `Φ` to `Ψ`.
//! * **certain-one** (`Prob1`): for the *unbounded* operator only, the
//!   complement of the backward cone of the certain-zero set through
//!   `Φ ∧ ¬Ψ`-states — in a finite Markov chain a trajectory almost
//!   surely leaves the transient `Φ ∧ ¬Ψ` region, so `P(s) < 1` iff `s`
//!   can reach a certain-zero state without passing through `Ψ`. Bounded
//!   operators get the conservative `Ψ` itself (time can run out in any
//!   transient region, so no strictly larger set is certain).
//!
//! # The certificate
//!
//! [`QualitativeCertificate::verify`] re-establishes soundness from
//! scratch, using only the model's rate graph and the stored `Φ`/`Ψ`
//! vectors — it shares no code with the fixpoint computation above:
//!
//! * **zero-closure** — no certain-zero state satisfies `Ψ`, and every
//!   positive-rate successor of a certain-zero `Φ`-state is certain-zero
//!   again. Any `Φ`-path from the set to `Ψ` would have to leave it, so
//!   membership really implies probability 0.
//! * **one-closure** — every certain-one non-`Ψ` state satisfies `Φ` and
//!   all its successors are certain-one: trajectories cannot escape the
//!   set before reaching `Ψ`.
//! * **one-liveness** — a backward BFS from `Ψ ∩ one` *inside* the
//!   certain-one set covers it completely: `Ψ` stays reachable from
//!   everywhere in the set, so (finite chain, closed region) it is hit
//!   almost surely.
//!
//! # Diagnostics
//!
//! The passes (registered by `mrmc lint --dataflow`, *not* part of the
//! default set) report:
//!
//! * `X001` (error) — a qualitative certificate failed re-verification
//!   (a bug trap: analysis and verifier disagree);
//! * `X002` (note) — the model's condensation: SCC and BSCC counts;
//! * `X003` (note) — qualitative set sizes, with the certificate hash, for
//!   each until the checker slices (route P0 or P2, see
//!   [`UntilRoute::slices`]);
//! * `X004` (note) — states the slicer prunes from such an until's
//!   numerical solve (certain-zero `Φ`-states and certain-one non-`Ψ`
//!   states).

use std::error::Error;
use std::fmt;

use mrmc_csrl::{PathFormula, StateFormula};
use mrmc_ctmc::bscc::SccDecomposition;
use mrmc_mrm::Mrm;
use mrmc_numerics::UntilRoute;

use crate::{Diagnostic, LintContext, Pass, Report, Scope, Severity};

/// The qualitative result of one until-subformula: the certain-0 and
/// certain-1 state sets, with everything the independent verifier needs
/// to re-establish their soundness against a model.
///
/// Plain data by design — serializable, hashable, and checkable without
/// trusting the analysis that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualitativeCertificate {
    /// The `Φ` (invariant) satisfaction vector the sets were computed for.
    pub phi: Vec<bool>,
    /// The `Ψ` (goal) satisfaction vector the sets were computed for.
    pub psi: Vec<bool>,
    /// `zero[s]` — `P(s, Φ U Ψ) = 0` exactly, for every bound shape.
    pub zero: Vec<bool>,
    /// `one[s]` — `P(s, Φ U Ψ) = 1` exactly. For bounded operators this
    /// is conservatively `Ψ` itself.
    pub one: Vec<bool>,
    /// Whether `one` used the full unbounded fixpoint (`true`) or the
    /// conservative bounded approximation `one = Ψ` (`false`).
    pub unbounded: bool,
}

/// Why a [`QualitativeCertificate`] failed re-verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QualitativeError {
    /// A stored vector's length does not match the model's state count.
    LengthMismatch {
        /// Which vector (`"phi"`, `"psi"`, `"zero"`, `"one"`).
        vector: &'static str,
        /// The model's state count.
        expected: usize,
        /// The stored vector's length.
        found: usize,
    },
    /// A certain-zero state satisfies `Ψ` (its probability is ≥ its
    /// probability of being a goal state — trivially nonzero).
    ZeroContainsGoal {
        /// The offending state (0-indexed).
        state: usize,
    },
    /// A certain-zero `Φ`-state has a positive-rate successor outside the
    /// set — a potential escape route towards `Ψ`.
    ZeroNotClosed {
        /// The certain-zero state (0-indexed).
        state: usize,
        /// Its successor outside the set (0-indexed).
        successor: usize,
    },
    /// A state is flagged both certain-zero and certain-one.
    Contradiction {
        /// The offending state (0-indexed).
        state: usize,
    },
    /// A certain-one non-`Ψ` state does not satisfy `Φ` — its until
    /// probability is 0, not 1.
    OneWithoutInvariant {
        /// The offending state (0-indexed).
        state: usize,
    },
    /// A certain-one non-`Ψ` state has a positive-rate successor outside
    /// the set — trajectories can escape before reaching `Ψ`.
    OneNotClosed {
        /// The certain-one state (0-indexed).
        state: usize,
        /// Its successor outside the set (0-indexed).
        successor: usize,
    },
    /// A certain-one state cannot reach `Ψ` inside the set, so the chain
    /// does not hit `Ψ` almost surely from it.
    OneCannotReachGoal {
        /// The offending state (0-indexed).
        state: usize,
    },
    /// A bounded-operator certificate claims certain-one states beyond
    /// `Ψ` — only the unbounded fixpoint may do that.
    BoundedOneBeyondGoal {
        /// The offending state (0-indexed).
        state: usize,
    },
}

impl fmt::Display for QualitativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualitativeError::LengthMismatch {
                vector,
                expected,
                found,
            } => write!(
                f,
                "certificate vector '{vector}' has length {found}, model has {expected} states"
            ),
            QualitativeError::ZeroContainsGoal { state } => write!(
                f,
                "certain-zero state {} satisfies the goal formula",
                state + 1
            ),
            QualitativeError::ZeroNotClosed { state, successor } => write!(
                f,
                "certain-zero state {} has successor {} outside the certain-zero set",
                state + 1,
                successor + 1
            ),
            QualitativeError::Contradiction { state } => write!(
                f,
                "state {} is flagged both certain-zero and certain-one",
                state + 1
            ),
            QualitativeError::OneWithoutInvariant { state } => write!(
                f,
                "certain-one state {} satisfies neither the invariant nor the goal",
                state + 1
            ),
            QualitativeError::OneNotClosed { state, successor } => write!(
                f,
                "certain-one state {} has successor {} outside the certain-one set",
                state + 1,
                successor + 1
            ),
            QualitativeError::OneCannotReachGoal { state } => write!(
                f,
                "certain-one state {} cannot reach the goal inside the certain-one set",
                state + 1
            ),
            QualitativeError::BoundedOneBeyondGoal { state } => write!(
                f,
                "bounded-operator certificate claims certain-one state {} beyond the goal set",
                state + 1
            ),
        }
    }
}

impl Error for QualitativeError {}

impl QualitativeCertificate {
    /// Independently re-verify this certificate against `mrm`: establish
    /// the zero-closure, one-closure and one-liveness invariants from
    /// scratch in `O(n + m)` (see the module docs for why they imply
    /// soundness). Shares no code with [`qualitative_until`].
    ///
    /// # Errors
    ///
    /// The first violated invariant, in the fixed check order
    /// lengths → zero-closure → contradiction → one-closure →
    /// one-liveness.
    pub fn verify(&self, mrm: &Mrm) -> Result<(), QualitativeError> {
        let n = mrm.num_states();
        for (vector, v) in [
            ("phi", &self.phi),
            ("psi", &self.psi),
            ("zero", &self.zero),
            ("one", &self.one),
        ] {
            if v.len() != n {
                return Err(QualitativeError::LengthMismatch {
                    vector,
                    expected: n,
                    found: v.len(),
                });
            }
        }
        let rates = mrm.ctmc().rates();

        // Zero-closure: no goal states inside, and Φ-members cannot leave.
        for s in 0..n {
            if !self.zero[s] {
                continue;
            }
            if self.psi[s] {
                return Err(QualitativeError::ZeroContainsGoal { state: s });
            }
            if self.phi[s] {
                for (t, rate) in rates.row(s) {
                    if rate > 0.0 && !self.zero[t] {
                        return Err(QualitativeError::ZeroNotClosed {
                            state: s,
                            successor: t,
                        });
                    }
                }
            }
        }

        if let Some(s) = (0..n).find(|&s| self.zero[s] && self.one[s]) {
            return Err(QualitativeError::Contradiction { state: s });
        }

        // One-closure: non-goal members satisfy Φ and cannot leave.
        for s in 0..n {
            if !self.one[s] || self.psi[s] {
                continue;
            }
            if !self.unbounded {
                return Err(QualitativeError::BoundedOneBeyondGoal { state: s });
            }
            if !self.phi[s] {
                return Err(QualitativeError::OneWithoutInvariant { state: s });
            }
            for (t, rate) in rates.row(s) {
                if rate > 0.0 && !self.one[t] {
                    return Err(QualitativeError::OneNotClosed {
                        state: s,
                        successor: t,
                    });
                }
            }
        }

        // One-liveness: Ψ stays reachable from every member, inside the
        // set. Backward BFS from Ψ ∩ one over the transposed graph.
        let transpose = rates.transpose();
        let mut covered: Vec<bool> = (0..n).map(|s| self.one[s] && self.psi[s]).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&s| covered[s]).collect();
        while let Some(t) = stack.pop() {
            for (s, rate) in transpose.row(t) {
                if rate > 0.0 && self.one[s] && !covered[s] {
                    covered[s] = true;
                    stack.push(s);
                }
            }
        }
        if let Some(s) = (0..n).find(|&s| self.one[s] && !covered[s]) {
            return Err(QualitativeError::OneCannotReachGoal { state: s });
        }
        Ok(())
    }

    /// How many states are certain-zero.
    pub fn zero_count(&self) -> usize {
        self.zero.iter().filter(|&&b| b).count()
    }

    /// How many states are certain-one.
    pub fn one_count(&self) -> usize {
        self.one.iter().filter(|&&b| b).count()
    }

    /// How many states the slicer prunes from the numerical solve beyond
    /// what the engines already skip: certain-zero `Φ`-states (the
    /// engines only skip `¬Φ ∧ ¬Ψ` states on their own) and certain-one
    /// non-`Ψ` states (pre-assigned verdict 1 without solving).
    ///
    /// Zero here is the bitwise-identity guarantee: when nothing is
    /// pruned, a sliced run takes exactly the unsliced control path.
    pub fn slice_states_removed(&self) -> usize {
        (0..self.phi.len())
            .filter(|&s| (self.zero[s] && self.phi[s]) || (self.one[s] && !self.psi[s]))
            .count()
    }

    /// A stable FNV-1a content hash of the certificate (vectors and bound
    /// flag), reported in diagnostics and `--json` output so runs can be
    /// correlated with the exact qualitative result they pruned with.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut byte = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        for v in [&self.phi, &self.psi, &self.zero, &self.one] {
            for &bit in v {
                byte(u8::from(bit));
            }
            byte(0xff);
        }
        byte(u8::from(self.unbounded));
        h
    }
}

/// Compute the qualitative sets of `Φ U Ψ` over `mrm`'s rate graph.
///
/// `unbounded` selects the full `Prob1` fixpoint; bounded operators must
/// pass `false` and get the conservative `one = Ψ` (see module docs).
///
/// # Panics
///
/// If `phi` or `psi` length differs from the model's state count.
pub fn qualitative_until(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    unbounded: bool,
) -> QualitativeCertificate {
    let n = mrm.num_states();
    assert_eq!(phi.len(), n, "phi length must match the state count");
    assert_eq!(psi.len(), n, "psi length must match the state count");
    let transpose = mrm.ctmc().rates().transpose();

    // Prob0: backward cone of Ψ through Φ-states; zero = complement.
    let mut can_reach = psi.to_vec();
    let mut stack: Vec<usize> = (0..n).filter(|&s| can_reach[s]).collect();
    while let Some(t) = stack.pop() {
        for (s, rate) in transpose.row(t) {
            if rate > 0.0 && phi[s] && !psi[s] && !can_reach[s] {
                can_reach[s] = true;
                stack.push(s);
            }
        }
    }
    let zero: Vec<bool> = can_reach.iter().map(|&r| !r).collect();

    // Prob1 (unbounded only): states that cannot reach the certain-zero
    // set through Φ ∧ ¬Ψ-states — in a finite chain the transient region
    // is a.s. left, so avoiding `zero` means hitting Ψ with probability 1.
    let one: Vec<bool> = if unbounded {
        let mut reaches_zero = zero.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&s| reaches_zero[s]).collect();
        while let Some(t) = stack.pop() {
            for (s, rate) in transpose.row(t) {
                if rate > 0.0 && phi[s] && !psi[s] && !reaches_zero[s] {
                    reaches_zero[s] = true;
                    stack.push(s);
                }
            }
        }
        reaches_zero.iter().map(|&r| !r).collect()
    } else {
        psi.to_vec()
    };

    QualitativeCertificate {
        phi: phi.to_vec(),
        psi: psi.to_vec(),
        zero,
        one,
        unbounded,
    }
}

/// Evaluate a *boolean* state formula (propositional connectives over
/// atomic propositions) to a satisfaction vector. `None` as soon as a
/// nested `S`/`P` operator appears — those need an engine, and the lint
/// passes here never run one.
pub fn eval_boolean(mrm: &Mrm, formula: &StateFormula) -> Option<Vec<bool>> {
    let n = mrm.num_states();
    match formula {
        StateFormula::True => Some(vec![true; n]),
        StateFormula::False => Some(vec![false; n]),
        StateFormula::Ap(name) => Some(mrm.labeling().states_with(name)),
        StateFormula::Not(g) => {
            let mut v = eval_boolean(mrm, g)?;
            for b in &mut v {
                *b = !*b;
            }
            Some(v)
        }
        StateFormula::And(a, b) => {
            let va = eval_boolean(mrm, a)?;
            let vb = eval_boolean(mrm, b)?;
            Some(va.iter().zip(&vb).map(|(&x, &y)| x && y).collect())
        }
        StateFormula::Or(a, b) => {
            let va = eval_boolean(mrm, a)?;
            let vb = eval_boolean(mrm, b)?;
            Some(va.iter().zip(&vb).map(|(&x, &y)| x || y).collect())
        }
        StateFormula::Implies(a, b) => {
            let va = eval_boolean(mrm, a)?;
            let vb = eval_boolean(mrm, b)?;
            Some(va.iter().zip(&vb).map(|(&x, &y)| !x || y).collect())
        }
        StateFormula::Steady { .. } | StateFormula::Prob { .. } => None,
    }
}

/// `X002`: the model's condensation — SCC/BSCC counts over the rate
/// graph. Model scope, so it fires once per model.
pub fn condensation_pass(ctx: &LintContext<'_>, report: &mut Report) {
    let scc = SccDecomposition::new(ctx.mrm.ctmc().rates());
    let bottoms = scc.bsccs().count();
    report.push(Diagnostic::new(
        "X002",
        Severity::Note,
        format!(
            "condensation: {} SCC{} ({} bottom) over {} states",
            scc.num_components(),
            if scc.num_components() == 1 { "" } else { "s" },
            bottoms,
            ctx.mrm.num_states()
        ),
    ));
}

/// `X001`/`X003`/`X004`: per until-subformula qualitative analysis, for
/// exactly the untils the checker slices — those whose [`UntilRoute`]
/// under the configured engine [`slices`](UntilRoute::slices) (P0 and
/// P2). Formula scope; operands that need an engine (nested `S`/`P`) are
/// skipped — the checker computes their real satisfaction vectors at
/// engine time and runs the same analysis there.
pub fn qualitative_pass(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else {
        return;
    };
    formula.visit(&mut |f, _| {
        let StateFormula::Prob { path, .. } = f else {
            return;
        };
        let PathFormula::Until {
            time,
            reward,
            lhs,
            rhs,
        } = path.as_ref()
        else {
            return;
        };
        let route = ctx.engine.route(time, reward);
        if !route.slices() {
            return;
        }
        let (Some(phi), Some(psi)) = (eval_boolean(ctx.mrm, lhs), eval_boolean(ctx.mrm, rhs))
        else {
            return;
        };
        let unbounded = route == UntilRoute::Reachability;
        let cert = qualitative_until(ctx.mrm, &phi, &psi, unbounded);
        if let Err(err) = cert.verify(ctx.mrm) {
            report.push(Diagnostic::new(
                "X001",
                Severity::Error,
                format!("qualitative certificate failed re-verification: {err}"),
            ));
            return;
        }
        report.push(Diagnostic::new(
            "X003",
            Severity::Note,
            format!(
                "qualitative sets for '{} U {}': {} certain-zero, {} certain-one of {} states \
                 ({}; certificate {:016x} verified)",
                lhs,
                rhs,
                cert.zero_count(),
                cert.one_count(),
                ctx.mrm.num_states(),
                if unbounded {
                    "unbounded fixpoint"
                } else {
                    "bounded: certain-one conservatively equals the goal set"
                },
                cert.content_hash(),
            ),
        ));
        let removed = cert.slice_states_removed();
        if removed > 0 {
            report.push(
                Diagnostic::new(
                    "X004",
                    Severity::Note,
                    format!(
                        "slicing prunes {removed} state{} from the numerical solve \
                         (verdict decided by graph structure alone)",
                        if removed == 1 { "" } else { "s" }
                    ),
                )
                .with_suggestion(
                    "this is the default; pass --no-slicing to force the full numerical solve",
                ),
            );
        }
    });
}

/// The model-scope condensation pass, for `mrmc lint --dataflow`.
pub const CONDENSATION_PASS: Pass = Pass {
    name: "dataflow-condensation",
    scope: Scope::Model,
    run: condensation_pass,
};

/// The formula-scope qualitative pass, for `mrmc lint --dataflow`.
pub const PASS: Pass = Pass {
    name: "dataflow-qualitative",
    scope: Scope::Formula,
    run: qualitative_pass,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_csrl::parse;
    use mrmc_ctmc::CtmcBuilder;

    /// 0:a → 1:a → 2:goal, 3:trap → 3 (absorbing, no goal), 1 → 3.
    fn chain_with_trap() -> Mrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 1.0)
            .transition(1, 3, 1.0);
        b.label(0, "a").label(1, "a").label(2, "goal").label(3, "a");
        Mrm::without_rewards(b.build().unwrap())
    }

    /// 0:a → 1:goal (certain), 2:b absorbing.
    fn certain_chain() -> Mrm {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 2.0);
        b.label(0, "a").label(1, "goal").label(2, "b");
        Mrm::without_rewards(b.build().unwrap())
    }

    fn sets(mrm: &Mrm, phi: &str, psi: &str, unbounded: bool) -> QualitativeCertificate {
        let phi = eval_boolean(mrm, &parse(phi).unwrap()).unwrap();
        let psi = eval_boolean(mrm, &parse(psi).unwrap()).unwrap();
        qualitative_until(mrm, &phi, &psi, unbounded)
    }

    #[test]
    fn prob0_is_the_backward_cone_complement() {
        let m = chain_with_trap();
        let c = sets(&m, "a", "goal", true);
        // State 3 is an a-labelled trap: no path to goal.
        assert_eq!(c.zero, vec![false, false, false, true]);
        c.verify(&m).unwrap();
    }

    #[test]
    fn prob1_finds_certain_states_beyond_the_goal() {
        let m = certain_chain();
        let c = sets(&m, "a", "goal", true);
        // State 0 reaches goal with probability one; state 2 never.
        assert_eq!(c.zero, vec![false, false, true]);
        assert_eq!(c.one, vec![true, true, false]);
        assert_eq!(c.slice_states_removed(), 1);
        c.verify(&m).unwrap();
    }

    #[test]
    fn bounded_certificates_keep_one_at_the_goal() {
        let m = certain_chain();
        let c = sets(&m, "a", "goal", false);
        assert_eq!(c.one, vec![false, true, false]);
        c.verify(&m).unwrap();
        // Prob0 is bound-shape independent, so zero is unchanged.
        assert_eq!(c.zero, sets(&m, "a", "goal", true).zero);
    }

    #[test]
    fn branching_keeps_uncertain_states_out_of_one() {
        let m = chain_with_trap();
        let c = sets(&m, "a", "goal", true);
        // 1 branches to the trap, so neither 0 nor 1 is certain.
        assert_eq!(c.one, vec![false, false, true, false]);
        c.verify(&m).unwrap();
    }

    #[test]
    fn eval_boolean_handles_connectives_and_rejects_operators() {
        let m = certain_chain();
        let f = parse("a || goal").unwrap();
        assert_eq!(eval_boolean(&m, &f).unwrap(), vec![true, true, false]);
        let f = parse("!(a => goal)").unwrap();
        assert_eq!(eval_boolean(&m, &f).unwrap(), vec![true, false, false]);
        let f = parse("P(>= 0.5) [a U goal]").unwrap();
        assert!(eval_boolean(&m, &f).is_none());
    }

    #[test]
    fn content_hash_is_input_sensitive() {
        let m = certain_chain();
        let a = sets(&m, "a", "goal", true);
        let b = sets(&m, "a", "goal", false);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), sets(&m, "a", "goal", true).content_hash());
    }

    #[test]
    fn mutated_certificates_are_rejected() {
        let m = chain_with_trap();
        let good = sets(&m, "a", "goal", true);
        good.verify(&m).unwrap();

        // 1: a goal state claimed certain-zero.
        let mut c = good.clone();
        c.zero[2] = true;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::ZeroContainsGoal { state: 2 })
        ));

        // 2: a Φ-state with an escape route claimed certain-zero.
        let mut c = good.clone();
        c.zero[1] = true;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::ZeroNotClosed { state: 1, .. })
        ));

        // 3: certain-zero and certain-one at once.
        let mut c = good.clone();
        c.one[3] = true;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::Contradiction { state: 3 })
        ));

        // 4: a non-invariant state claimed certain-one.
        let mut c = good.clone();
        c.phi[0] = false;
        c.one[0] = true;
        c.zero[0] = false;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::OneWithoutInvariant { state: 0 })
        ));

        // 5: a branching state claimed certain-one (successor outside).
        let mut c = good.clone();
        c.one[1] = true;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::OneNotClosed { state: 1, .. })
        ));

        // 6: a goal-free absorbing trap claimed certain-one (closure
        // holds vacuously, liveness catches it).
        let mut c = good.clone();
        c.zero[3] = false;
        c.one[3] = true;
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::OneCannotReachGoal { state: 3 })
        ));

        // 7: a bounded certificate smuggling in unbounded certain-ones.
        let m2 = certain_chain();
        let mut c = sets(&m2, "a", "goal", false);
        c.one[0] = true;
        assert!(matches!(
            c.verify(&m2),
            Err(QualitativeError::BoundedOneBeyondGoal { state: 0 })
        ));

        // 8: truncated vector.
        let mut c = good.clone();
        c.one.pop();
        assert!(matches!(
            c.verify(&m),
            Err(QualitativeError::LengthMismatch {
                vector: "one",
                expected: 4,
                found: 3,
            })
        ));
    }

    #[test]
    fn passes_emit_x_codes() {
        use crate::Analyzer;
        use mrmc_numerics::UntilEngine;
        let m = chain_with_trap();
        let mut a = Analyzer::empty();
        a.register(CONDENSATION_PASS).register(PASS);
        let f = parse("P(>= 0.5) [a U goal]").unwrap();
        let model = a.check_model(&m);
        assert_eq!(model.codes(), vec!["X002"]);
        let formula = a.check_formula(&m, &f, UntilEngine::default());
        let codes = formula.codes();
        assert!(codes.contains(&"X003"), "{formula}");
        assert!(codes.contains(&"X004"), "{formula}");
        assert!(!formula.has_errors());
    }
}
