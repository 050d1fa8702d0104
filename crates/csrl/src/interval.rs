//! Closed intervals of non-negative reals for time and reward bounds.

use std::error::Error;
use std::fmt;

/// An error raised while constructing an [`Interval`].
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// The lower bound is negative, NaN, or infinite.
    BadLowerBound {
        /// The offending value.
        value: f64,
    },
    /// The upper bound is NaN or below the lower bound.
    BadUpperBound {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::BadLowerBound { value } => {
                write!(
                    f,
                    "invalid lower bound {value}: must be finite and non-negative"
                )
            }
            IntervalError::BadUpperBound { value } => {
                write!(f, "invalid upper bound {value}: must be >= the lower bound")
            }
        }
    }
}

impl Error for IntervalError {}

/// A closed interval `[lo, hi] ⊆ ℝ≥0`, with `hi = ∞` permitted.
///
/// CSRL uses such intervals both as timing constraints `I` and as
/// accumulated-reward bounds `J`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// [`IntervalError`] when `lo` is not finite/non-negative or
    /// `hi < lo`/NaN.
    pub fn new(lo: f64, hi: f64) -> Result<Self, IntervalError> {
        if !(lo.is_finite() && lo >= 0.0) {
            return Err(IntervalError::BadLowerBound { value: lo });
        }
        if hi.is_nan() || hi < lo {
            return Err(IntervalError::BadUpperBound { value: hi });
        }
        Ok(Interval { lo, hi })
    }

    /// `[0, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi` is negative or NaN.
    pub fn upto(hi: f64) -> Self {
        Interval::new(0.0, hi).expect("upper bound must be non-negative")
    }

    /// `[0, ∞)` — the trivial constraint.
    pub fn unbounded() -> Self {
        Interval {
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    /// The degenerate point interval `[x, x]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or non-finite.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x).expect("point must be finite and non-negative")
    }

    /// Lower endpoint `inf I`.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint `sup I` (possibly `∞`).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// `x ∈ [lo, hi]`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// `true` for `[0, ∞)`.
    pub fn is_trivial(&self) -> bool {
        self.lo == 0.0 && self.hi == f64::INFINITY
    }

    /// `true` when the upper endpoint is `∞`.
    pub fn is_upper_unbounded(&self) -> bool {
        self.hi == f64::INFINITY
    }

    /// Intersection, `None` when empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::unbounded()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},", self.lo)?;
        if self.hi == f64::INFINITY {
            write!(f, "~]")
        } else {
            write!(f, "{}]", self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_sparse::rng::Xoshiro256StarStar;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(1.0, 3.0).unwrap();
        assert_eq!(i.lo(), 1.0);
        assert_eq!(i.hi(), 3.0);
        assert!(i.contains(1.0));
        assert!(i.contains(3.0));
        assert!(!i.contains(0.999));
        assert!(!i.is_trivial());
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(matches!(
            Interval::new(-1.0, 2.0),
            Err(IntervalError::BadLowerBound { .. })
        ));
        assert!(matches!(
            Interval::new(f64::INFINITY, f64::INFINITY),
            Err(IntervalError::BadLowerBound { .. })
        ));
        assert!(matches!(
            Interval::new(2.0, 1.0),
            Err(IntervalError::BadUpperBound { .. })
        ));
        assert!(matches!(
            Interval::new(0.0, f64::NAN),
            Err(IntervalError::BadUpperBound { .. })
        ));
    }

    #[test]
    fn unbounded_and_point() {
        let u = Interval::unbounded();
        assert!(u.is_trivial());
        assert!(u.contains(1e300));
        assert!(u.is_upper_unbounded());
        assert_eq!(Interval::default(), u);

        let p = Interval::point(2.0);
        assert!(p.contains(2.0));
        assert!(!p.contains(2.0 + 1e-9));
    }

    #[test]
    fn intersect_basics() {
        let a = Interval::new(0.0, 3.0).unwrap();
        let b = Interval::new(2.0, 5.0).unwrap();
        assert_eq!(a.intersect(&b), Some(Interval::new(2.0, 3.0).unwrap()));
        let c = Interval::new(4.0, 5.0).unwrap();
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.intersect(&Interval::unbounded()), Some(a));
    }

    #[test]
    fn display_uses_tilde_for_infinity() {
        assert_eq!(Interval::new(0.0, 2.5).unwrap().to_string(), "[0,2.5]");
        assert_eq!(Interval::unbounded().to_string(), "[0,~]");
    }

    #[test]
    fn contains_respects_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x171);
        for _ in 0..256 {
            let lo = rng.range_f64(0.0, 100.0);
            let len = rng.range_f64(0.0, 100.0);
            let x = rng.range_f64(-10.0, 250.0);
            let i = Interval::new(lo, lo + len).unwrap();
            assert_eq!(i.contains(x), x >= lo && x <= lo + len);
        }
    }
}
