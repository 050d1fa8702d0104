//! The error budget: a named decomposition of the total numerical error of
//! `Pr{Y(t) ≤ r, X(t) ⊨ Ψ}`.
//!
//! The engines expose raw accuracy knobs — the path-truncation probability
//! `w` (Eq. 4.6) for uniformization, the step size `d` for the
//! Tijms–Veldman discretization (Algorithm 4.6), the sample count for the
//! Monte-Carlo estimator — but a caller asking `P ⋈ p [Φ U^I_J Ψ]` needs a
//! *bound on the probability itself*. [`ErrorBudget`] is that accounting:
//! every engine reports where its error comes from, component by
//! component, and the total is the half-width of an interval around the
//! reported value. That interval is guaranteed to contain the true
//! probability only as far as each component is a bound: the
//! [`statistical`](ErrorBudget::statistical) component holds with its
//! stated confidence, and the
//! [`discretization`](ErrorBudget::discretization) component is a
//! Richardson estimate of the step error, not a bound on it.
//!
//! # Components and their provenance
//!
//! | component | source | producer |
//! |---|---|---|
//! | [`path_truncation`](ErrorBudget::path_truncation) | Eq. 4.6: mass of the discarded path prefixes, each weighted by the Poisson upper tail `Pr{N ≥ n}` of its depth — this *includes* the Poisson right-tail mass of every pruned suffix, so the uniformization engine has no separate tail term | uniformization |
//! | [`poisson_tail`](ErrorBudget::poisson_tail) | the left/right window truncation of the Fox–Glynn weights ([`poisson::FoxGlynn`](mrmc_ctmc::poisson::FoxGlynn)) used by the reward-free baseline (`transient_epsilon`) | baseline (P1) |
//! | [`float_accumulation`](ErrorBudget::float_accumulation) | floating-point error of the Omega recursion (Algorithm 4.8) and the Eq. 4.5 fold: per term a first-order `(n + K)·ε` model on the compensated sums, plus the relative error of the log-space Poisson pmf; for unbounded until, the certified bound `ŷ/c · ‖b − A·x̂‖∞` of the banded direct solve of Eq. 3.8 ([`mrmc_ctmc::reach::until_unbounded_certified`]) | uniformization, discretization, reachability (P0) |
//! | [`discretization`](ErrorBudget::discretization) | step error of Algorithm 4.6, estimated a posteriori by a Richardson companion run at step `2d` (the scheme is first-order: `P_d − P_{2d} ≈ C·d`, so `2·|P_d − P_{2d}|` over-covers the error of `P_d`) | discretization |
//! | [`statistical`](ErrorBudget::statistical) | distribution-free Hoeffding radius `√(ln(2/δ)/2n)` of the Monte-Carlo estimator at confidence `1 − δ` — unlike the other components this holds with probability `1 − δ`, not certainty | simulation |
//! | [`propagation`](ErrorBudget::propagation) | widening from *unknown* sub-verdicts: when a nested probability operator is undecidable within its own budget, the outer operator is evaluated on both the optimistic and the pessimistic satisfying set and the half-gap lands here | checker (`Sat`) |
//!
//! The invariant under test (see `tests/properties.rs`): the components are
//! non-negative and [`total`](ErrorBudget::total) is exactly their sum.

use std::fmt;

/// A named decomposition of the absolute error of a computed probability.
///
/// The true probability lies within `total()` of the reported value
/// (with confidence `1 − δ` when the [`statistical`](Self::statistical)
/// component is non-zero), except that the
/// [`discretization`](Self::discretization) component is an estimate of
/// the step error, not a bound on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBudget {
    /// Path-truncation mass per Eq. 4.6 (uniformization engine).
    pub path_truncation: f64,
    /// Fox–Glynn left/right Poisson window truncation (baseline engine).
    pub poisson_tail: f64,
    /// Floating-point accumulation: of the Omega evaluation and final fold
    /// (uniformization, discretization), or the certified rounding error
    /// of the direct Eq. 3.8 solve (unbounded until).
    pub float_accumulation: f64,
    /// Discretization step error (Richardson estimate, Algorithm 4.6).
    pub discretization: f64,
    /// Hoeffding radius of the Monte-Carlo estimator (statistical, holds
    /// with the configured confidence rather than with certainty).
    pub statistical: f64,
    /// Interval widening propagated from unknown nested verdicts.
    pub propagation: f64,
}

impl ErrorBudget {
    /// The zero budget: an exact result.
    pub fn zero() -> Self {
        ErrorBudget::default()
    }

    /// A budget consisting solely of the Eq. 4.6 truncation bound.
    pub fn from_truncation(path_truncation: f64) -> Self {
        ErrorBudget {
            path_truncation,
            ..ErrorBudget::zero()
        }
    }

    /// A budget consisting solely of the Fox–Glynn tail truncation.
    pub fn from_poisson_tail(poisson_tail: f64) -> Self {
        ErrorBudget {
            poisson_tail,
            ..ErrorBudget::zero()
        }
    }

    /// A budget consisting solely of floating-point accumulation error.
    pub fn from_float_accumulation(float_accumulation: f64) -> Self {
        ErrorBudget {
            float_accumulation,
            ..ErrorBudget::zero()
        }
    }

    /// A budget consisting solely of the statistical (Hoeffding) radius.
    pub fn from_statistical(statistical: f64) -> Self {
        ErrorBudget {
            statistical,
            ..ErrorBudget::zero()
        }
    }

    /// The components as `(name, value)` pairs, in declaration order.
    pub fn components(&self) -> [(&'static str, f64); 6] {
        [
            ("path_truncation", self.path_truncation),
            ("poisson_tail", self.poisson_tail),
            ("float_accumulation", self.float_accumulation),
            ("discretization", self.discretization),
            ("statistical", self.statistical),
            ("propagation", self.propagation),
        ]
    }

    /// The total error half-width: the exact sum of the components.
    ///
    /// The components are summed in declaration order with plain `+`; the
    /// property suite asserts `total() == components().sum()` bitwise, so
    /// the budget is auditable from its parts.
    pub fn total(&self) -> f64 {
        self.path_truncation
            + self.poisson_tail
            + self.float_accumulation
            + self.discretization
            + self.statistical
            + self.propagation
    }

    /// The dominant component, for diagnostics (`(name, value)`).
    pub fn dominant(&self) -> (&'static str, f64) {
        self.components()
            .into_iter()
            .fold(("path_truncation", f64::NEG_INFINITY), |best, c| {
                if c.1 > best.1 {
                    c
                } else {
                    best
                }
            })
    }

    /// Component-wise maximum of two budgets — the sound combination when
    /// a result must be covered by either of two runs (e.g. the
    /// optimistic/pessimistic pair used for unknown-set propagation).
    pub fn max(&self, other: &ErrorBudget) -> ErrorBudget {
        ErrorBudget {
            path_truncation: self.path_truncation.max(other.path_truncation),
            poisson_tail: self.poisson_tail.max(other.poisson_tail),
            float_accumulation: self.float_accumulation.max(other.float_accumulation),
            discretization: self.discretization.max(other.discretization),
            statistical: self.statistical.max(other.statistical),
            propagation: self.propagation.max(other.propagation),
        }
    }

    /// Return this budget with `width` added to the propagation component.
    pub fn widened_by(mut self, width: f64) -> ErrorBudget {
        self.propagation += width;
        self
    }

    /// `true` when every component is non-negative and finite — the
    /// well-formedness condition every engine must maintain.
    pub fn is_well_formed(&self) -> bool {
        self.components()
            .into_iter()
            .all(|(_, v)| v.is_finite() && v >= 0.0)
    }
}

impl fmt::Display for ErrorBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} (", self.total())?;
        let mut first = true;
        for (name, value) in self.components() {
            if value > 0.0 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{name} {value:.3e}")?;
                first = false;
            }
        }
        if first {
            write!(f, "exact")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_exact_component_sum() {
        let b = ErrorBudget {
            path_truncation: 1e-9,
            poisson_tail: 3e-12,
            float_accumulation: 2e-16,
            discretization: 0.0,
            statistical: 0.0,
            propagation: 5e-7,
        };
        let sum: f64 = b
            .components()
            .into_iter()
            .map(|(_, v)| v)
            .fold(0.0, |a, v| a + v);
        assert_eq!(b.total(), sum);
        assert!(b.is_well_formed());
    }

    #[test]
    fn constructors_populate_one_component() {
        assert_eq!(ErrorBudget::zero().total(), 0.0);
        let t = ErrorBudget::from_truncation(1e-6);
        assert_eq!(t.path_truncation, 1e-6);
        assert_eq!(t.total(), 1e-6);
        let p = ErrorBudget::from_poisson_tail(1e-10);
        assert_eq!(p.poisson_tail, 1e-10);
        let s = ErrorBudget::from_statistical(0.01);
        assert_eq!(s.statistical, 0.01);
        assert_eq!(s.dominant(), ("statistical", 0.01));
    }

    #[test]
    fn max_and_widen() {
        let a = ErrorBudget::from_truncation(1e-6);
        let b = ErrorBudget::from_poisson_tail(1e-8);
        let m = a.max(&b);
        assert_eq!(m.path_truncation, 1e-6);
        assert_eq!(m.poisson_tail, 1e-8);
        let w = m.widened_by(0.25);
        assert_eq!(w.propagation, 0.25);
        assert!(w.total() > 0.25);
    }

    #[test]
    fn display_names_nonzero_components() {
        let b = ErrorBudget::from_truncation(1e-6).widened_by(1e-3);
        let s = b.to_string();
        assert!(s.contains("path_truncation"), "{s}");
        assert!(s.contains("propagation"), "{s}");
        assert!(!s.contains("statistical"), "{s}");
        assert!(ErrorBudget::zero().to_string().contains("exact"));
    }

    #[test]
    fn ill_formed_budgets_detected() {
        let b = ErrorBudget {
            path_truncation: -1e-9,
            ..ErrorBudget::zero()
        };
        assert!(!b.is_well_formed());
        let b = ErrorBudget {
            statistical: f64::NAN,
            ..ErrorBudget::zero()
        };
        assert!(!b.is_well_formed());
    }
}
