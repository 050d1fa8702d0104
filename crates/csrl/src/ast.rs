//! The abstract syntax of CSRL (Definition 3.5).

use crate::interval::Interval;

/// A comparison operator `⊴ ∈ {<, ≤, >, ≥}` used in probability bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Evaluate `actual ⊴ bound`.
    pub fn eval(self, actual: f64, bound: f64) -> bool {
        match self {
            CompareOp::Lt => actual < bound,
            CompareOp::Le => actual <= bound,
            CompareOp::Gt => actual > bound,
            CompareOp::Ge => actual >= bound,
        }
    }

    /// Evaluate `actual ⊴ bound` when `actual` is only known to lie in
    /// `[lo, hi]`: `Some(verdict)` when every value in the interval agrees,
    /// `None` when the bound falls inside the interval and the comparison
    /// is undecidable at this accuracy. All four operators are monotone in
    /// `actual`, so checking the endpoints suffices.
    pub fn eval_interval(self, lo: f64, hi: f64, bound: f64) -> Option<bool> {
        let at_lo = self.eval(lo, bound);
        let at_hi = self.eval(hi, bound);
        if at_lo == at_hi {
            Some(at_lo)
        } else {
            None
        }
    }

    /// The dual comparison under complementation: `P(q) ⊴ p` iff
    /// `P(¬q) = 1 − P(q)` satisfies the dual against `1 − p`. Used to
    /// desugar the globally operator (`□φ ≡ ¬◇¬φ`).
    pub fn dual(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// The concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A CSRL state formula.
///
/// `∧` and `⇒` are kept as first-class constructors (the thesis derives them
/// from `¬` and `∨`, and [`StateFormula::desugared`] performs exactly that
/// rewriting when a minimal core is preferable).
#[derive(Debug, Clone, PartialEq)]
pub enum StateFormula {
    /// `tt` — true in every state.
    True,
    /// `ff` — false in every state (`¬tt`).
    False,
    /// An atomic proposition.
    Ap(String),
    /// Negation `¬Φ`.
    Not(Box<StateFormula>),
    /// Disjunction `Φ ∨ Ψ`.
    Or(Box<StateFormula>, Box<StateFormula>),
    /// Conjunction `Φ ∧ Ψ`.
    And(Box<StateFormula>, Box<StateFormula>),
    /// Implication `Φ ⇒ Ψ`.
    Implies(Box<StateFormula>, Box<StateFormula>),
    /// The steady-state measure `S_{⊴p}(Φ)`.
    Steady {
        /// The comparison operator `⊴`.
        op: CompareOp,
        /// The probability bound `p`.
        bound: f64,
        /// The inner state formula `Φ`.
        inner: Box<StateFormula>,
    },
    /// The transient probability measure `P_{⊴p}(φ)`.
    Prob {
        /// The comparison operator `⊴`.
        op: CompareOp,
        /// The probability bound `p`.
        bound: f64,
        /// The path formula `φ`.
        path: Box<PathFormula>,
    },
}

/// A CSRL path formula.
#[derive(Debug, Clone, PartialEq)]
pub enum PathFormula {
    /// `X^I_J Φ`: the next transition reaches a Φ-state at a time in `I`
    /// with accumulated reward in `J`.
    Next {
        /// The timing constraint `I`.
        time: Interval,
        /// The accumulated-reward bound `J`.
        reward: Interval,
        /// The target state formula `Φ`.
        inner: StateFormula,
    },
    /// `Φ U^I_J Ψ`: a Ψ-state is reached at a time in `I` with accumulated
    /// reward in `J`, through Φ-states only.
    Until {
        /// The timing constraint `I`.
        time: Interval,
        /// The accumulated-reward bound `J`.
        reward: Interval,
        /// The left-hand (invariant) state formula `Φ`.
        lhs: StateFormula,
        /// The right-hand (goal) state formula `Ψ`.
        rhs: StateFormula,
    },
}

impl StateFormula {
    /// `Φ ∨ Ψ`.
    pub fn or(self, rhs: StateFormula) -> StateFormula {
        StateFormula::Or(Box::new(self), Box::new(rhs))
    }

    /// `Φ ∧ Ψ`.
    pub fn and(self, rhs: StateFormula) -> StateFormula {
        StateFormula::And(Box::new(self), Box::new(rhs))
    }

    /// `¬Φ`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a named constructor of the AST, not the `!` operator on formulas"
    )]
    pub fn not(self) -> StateFormula {
        StateFormula::Not(Box::new(self))
    }

    /// An atomic proposition.
    pub fn ap(name: impl Into<String>) -> StateFormula {
        StateFormula::Ap(name.into())
    }

    /// `P_{⊴p}(Φ U^I_J Ψ)`.
    pub fn prob_until(
        op: CompareOp,
        bound: f64,
        time: Interval,
        reward: Interval,
        lhs: StateFormula,
        rhs: StateFormula,
    ) -> StateFormula {
        StateFormula::Prob {
            op,
            bound,
            path: Box::new(PathFormula::Until {
                time,
                reward,
                lhs,
                rhs,
            }),
        }
    }

    /// `P_{⊴p}(◇^I_J Φ) = P_{⊴p}(tt U^I_J Φ)` (the derived eventually).
    pub fn prob_eventually(
        op: CompareOp,
        bound: f64,
        time: Interval,
        reward: Interval,
        goal: StateFormula,
    ) -> StateFormula {
        StateFormula::prob_until(op, bound, time, reward, StateFormula::True, goal)
    }

    /// `P_{⊴p}(□^I_J Φ)`, desugared through the duality
    /// `Pr(□φ) = 1 − Pr(◇¬φ)`: the probability bound becomes `1 − p`
    /// under the dual comparison, with no outer negation —
    /// `Pr(□φ) ⊴ p ⟺ Pr(◇¬φ) ⊴ᵈ (1 − p)`.
    pub fn prob_globally(
        op: CompareOp,
        bound: f64,
        time: Interval,
        reward: Interval,
        inner: StateFormula,
    ) -> StateFormula {
        StateFormula::prob_eventually(op.dual(), 1.0 - bound, time, reward, inner.not())
    }

    /// `P_{⊴p}(X^I_J Φ)`.
    pub fn prob_next(
        op: CompareOp,
        bound: f64,
        time: Interval,
        reward: Interval,
        inner: StateFormula,
    ) -> StateFormula {
        StateFormula::Prob {
            op,
            bound,
            path: Box::new(PathFormula::Next {
                time,
                reward,
                inner,
            }),
        }
    }

    /// Rewrite to the minimal core of Definition 3.5:
    /// `ff ↦ ¬tt`, `Φ ∧ Ψ ↦ ¬(¬Φ ∨ ¬Ψ)`, `Φ ⇒ Ψ ↦ ¬Φ ∨ Ψ`.
    pub fn desugared(&self) -> StateFormula {
        match self {
            StateFormula::True => StateFormula::True,
            StateFormula::False => StateFormula::True.not(),
            StateFormula::Ap(a) => StateFormula::Ap(a.clone()),
            StateFormula::Not(f) => f.desugared().not(),
            StateFormula::Or(a, b) => a.desugared().or(b.desugared()),
            StateFormula::And(a, b) => a.desugared().not().or(b.desugared().not()).not(),
            StateFormula::Implies(a, b) => a.desugared().not().or(b.desugared()),
            StateFormula::Steady { op, bound, inner } => StateFormula::Steady {
                op: *op,
                bound: *bound,
                inner: Box::new(inner.desugared()),
            },
            StateFormula::Prob { op, bound, path } => StateFormula::Prob {
                op: *op,
                bound: *bound,
                path: Box::new(match path.as_ref() {
                    PathFormula::Next {
                        time,
                        reward,
                        inner,
                    } => PathFormula::Next {
                        time: *time,
                        reward: *reward,
                        inner: inner.desugared(),
                    },
                    PathFormula::Until {
                        time,
                        reward,
                        lhs,
                        rhs,
                    } => PathFormula::Until {
                        time: *time,
                        reward: *reward,
                        lhs: lhs.desugared(),
                        rhs: rhs.desugared(),
                    },
                }),
            },
        }
    }

    /// Call `visit` on every state subformula, outermost first and left
    /// before right, with the number of `S`/`P` operators enclosing it
    /// (0 for `self`).
    pub fn visit<'a>(&'a self, visit: &mut impl FnMut(&'a StateFormula, usize)) {
        fn walk<'a>(
            f: &'a StateFormula,
            depth: usize,
            visit: &mut impl FnMut(&'a StateFormula, usize),
        ) {
            visit(f, depth);
            match f {
                StateFormula::True | StateFormula::False | StateFormula::Ap(_) => {}
                StateFormula::Not(g) => walk(g, depth, visit),
                StateFormula::Or(a, b) | StateFormula::And(a, b) | StateFormula::Implies(a, b) => {
                    walk(a, depth, visit);
                    walk(b, depth, visit);
                }
                StateFormula::Steady { inner, .. } => walk(inner, depth + 1, visit),
                StateFormula::Prob { path, .. } => match path.as_ref() {
                    PathFormula::Next { inner, .. } => walk(inner, depth + 1, visit),
                    PathFormula::Until { lhs, rhs, .. } => {
                        walk(lhs, depth + 1, visit);
                        walk(rhs, depth + 1, visit);
                    }
                },
            }
        }
        walk(self, 0, visit);
    }

    /// All atomic propositions mentioned, sorted and de-duplicated.
    pub fn propositions(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |f, _| {
            if let StateFormula::Ap(a) = f {
                out.push(a.as_str());
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_eval() {
        assert!(CompareOp::Lt.eval(0.2, 0.5));
        assert!(!CompareOp::Lt.eval(0.5, 0.5));
        assert!(CompareOp::Le.eval(0.5, 0.5));
        assert!(CompareOp::Gt.eval(0.7, 0.5));
        assert!(CompareOp::Ge.eval(0.5, 0.5));
        assert!(!CompareOp::Ge.eval(0.4, 0.5));
        assert_eq!(CompareOp::Ge.symbol(), ">=");
    }

    #[test]
    fn interval_eval_three_valued() {
        // Interval entirely on one side: decided.
        assert_eq!(CompareOp::Gt.eval_interval(0.6, 0.7, 0.5), Some(true));
        assert_eq!(CompareOp::Gt.eval_interval(0.2, 0.3, 0.5), Some(false));
        // Bound inside the interval: undecidable.
        assert_eq!(CompareOp::Gt.eval_interval(0.4, 0.6, 0.5), None);
        assert_eq!(CompareOp::Le.eval_interval(0.4, 0.6, 0.5), None);
        // Endpoint cases follow strictness: [0.5, 0.6] > 0.5 is undecided
        // (lo fails the strict test), but ≥ 0.5 holds throughout.
        assert_eq!(CompareOp::Gt.eval_interval(0.5, 0.6, 0.5), None);
        assert_eq!(CompareOp::Ge.eval_interval(0.5, 0.6, 0.5), Some(true));
        // Degenerate interval: plain eval.
        assert_eq!(CompareOp::Lt.eval_interval(0.3, 0.3, 0.5), Some(true));
    }

    #[test]
    fn builders_compose() {
        let f = StateFormula::ap("busy")
            .or(StateFormula::ap("idle"))
            .and(StateFormula::True.not());
        assert!(matches!(f, StateFormula::And(..)));
        assert_eq!(f.propositions(), vec!["busy", "idle"]);
    }

    #[test]
    fn desugar_removes_derived_operators() {
        let f = StateFormula::ap("a").and(StateFormula::ap("b"));
        let d = f.desugared();
        // ¬(¬a ∨ ¬b)
        match &d {
            StateFormula::Not(inner) => match inner.as_ref() {
                StateFormula::Or(l, r) => {
                    assert!(matches!(l.as_ref(), StateFormula::Not(_)));
                    assert!(matches!(r.as_ref(), StateFormula::Not(_)));
                }
                other => panic!("expected Or, got {other:?}"),
            },
            other => panic!("expected Not, got {other:?}"),
        }

        let imp = StateFormula::Implies(
            Box::new(StateFormula::ap("a")),
            Box::new(StateFormula::ap("b")),
        )
        .desugared();
        assert!(matches!(imp, StateFormula::Or(..)));

        assert_eq!(StateFormula::False.desugared(), StateFormula::True.not());
    }

    #[test]
    fn desugar_descends_into_operators() {
        let f = StateFormula::prob_until(
            CompareOp::Ge,
            0.5,
            Interval::upto(10.0),
            Interval::unbounded(),
            StateFormula::ap("x").and(StateFormula::ap("y")),
            StateFormula::False,
        );
        let d = f.desugared();
        if let StateFormula::Prob { path, .. } = &d {
            if let PathFormula::Until { lhs, rhs, .. } = path.as_ref() {
                assert!(matches!(lhs, StateFormula::Not(_)));
                assert_eq!(*rhs, StateFormula::True.not());
                return;
            }
        }
        panic!("unexpected shape: {d:?}");
    }

    #[test]
    fn visit_is_pre_order_with_operator_depth() {
        let f = crate::parse("a && P(> 0.5) [b U S(> 0.1) (c)]").unwrap();
        let mut seen = Vec::new();
        f.visit(&mut |g, depth| {
            let tag = match g {
                StateFormula::Ap(a) => a.clone(),
                StateFormula::And(..) => "&&".into(),
                StateFormula::Prob { .. } => "P".into(),
                StateFormula::Steady { .. } => "S".into(),
                other => panic!("unexpected {other:?}"),
            };
            seen.push((tag, depth));
        });
        let expected = [("&&", 0), ("a", 0), ("P", 0), ("b", 1), ("S", 1), ("c", 2)];
        let expected: Vec<(String, usize)> =
            expected.iter().map(|&(t, d)| (t.to_string(), d)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn propositions_of_nested_formula() {
        let f = StateFormula::Steady {
            op: CompareOp::Ge,
            bound: 0.3,
            inner: Box::new(StateFormula::prob_next(
                CompareOp::Lt,
                0.9,
                Interval::unbounded(),
                Interval::unbounded(),
                StateFormula::ap("z").or(StateFormula::ap("a")),
            )),
        };
        assert_eq!(f.propositions(), vec!["a", "z"]);
    }
}
