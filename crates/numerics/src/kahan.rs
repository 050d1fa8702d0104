//! Compensated (Kahan) summation.
//!
//! The path-exploration engine accumulates millions of tiny path
//! probabilities into per-class totals and into the Eq. 4.6 error bound;
//! compensated summation keeps those folds accurate independent of length.

/// A running compensated sum.
///
/// ```
/// use mrmc_numerics::kahan::KahanSum;
///
/// let mut acc = KahanSum::new();
/// for _ in 0..10 {
///     acc.add(0.1);
/// }
/// assert_eq!(acc.value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// An empty sum.
    pub fn new() -> Self {
        KahanSum::default()
    }

    /// Add one term (Kahan's compensated update).
    pub fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// The current value of the sum.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_representable_sums() {
        let mut acc = KahanSum::new();
        for _ in 0..4 {
            acc.add(0.25);
        }
        assert_eq!(acc.value(), 1.0);
    }

    #[test]
    fn beats_naive_summation() {
        // 1 + n·ε where each ε alone underflows the addition.
        let eps = 1e-16;
        let n = 100_000;
        let mut naive = 1.0_f64;
        let mut kahan = KahanSum::new();
        kahan.add(1.0);
        for _ in 0..n {
            naive += eps;
            kahan.add(eps);
        }
        let exact = 1.0 + n as f64 * eps;
        assert!((kahan.value() - exact).abs() <= (naive - exact).abs());
        assert!((kahan.value() - exact).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_order() {
        let xs = [0.1, 1e-9, 7.25, 1e-17, 0.3];
        let mut a = KahanSum::new();
        let mut b = KahanSum::new();
        for &x in &xs {
            a.add(x);
            b.add(x);
        }
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }
}
