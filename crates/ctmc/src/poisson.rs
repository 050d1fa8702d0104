//! Poisson probabilities for uniformization.
//!
//! Two evaluation layers, matching the needs of the algorithms in the
//! thesis:
//!
//! * [`pmf`]/[`cdf`]/[`upper_tail`] — direct, log-space-stable point
//!   evaluations, used for the path probabilities and error bounds of
//!   Algorithm 4.7 (Eq. 4.6);
//! * [`FoxGlynn`] — the Fox–Glynn style weighting used for transient state
//!   probabilities and the state-reward-only baseline, stable for large
//!   `Λt`.

/// Natural log of the gamma function by the Lanczos approximation (g = 7,
/// n = 9), accurate to ~1e-13 for positive arguments.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    const G: f64 = 7.0;
    #[expect(
        clippy::excessive_precision,
        reason = "the Lanczos coefficients are kept as published"
    )]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The Poisson probability `e^{-λt}·(λt)^n / n!`, evaluated in log space.
///
/// `lambda_t` must be non-negative and finite; `lambda_t == 0` gives the
/// degenerate distribution at `n = 0`.
///
/// # Panics
///
/// Panics if `lambda_t` is negative or non-finite.
pub fn pmf(lambda_t: f64, n: u64) -> f64 {
    assert!(
        lambda_t.is_finite() && lambda_t >= 0.0,
        "lambda_t must be finite and non-negative"
    );
    if lambda_t == 0.0 {
        return if n == 0 { 1.0 } else { 0.0 };
    }
    let ln_p = n as f64 * lambda_t.ln() - lambda_t - ln_gamma(n as f64 + 1.0);
    ln_p.exp()
}

/// `Pr{N ≤ n}` for `N ~ Poisson(λt)`.
///
/// The ratio recursion is anchored at `min(n, mode)` where the log-space
/// pmf is representable, so the result stays accurate for large `λt`
/// (anchoring at `pmf(λt, 0)` would underflow to an all-zero sum).
pub fn cdf(lambda_t: f64, n: u64) -> f64 {
    if lambda_t == 0.0 {
        return 1.0;
    }
    let anchor = (lambda_t.floor() as u64).min(n);
    let mut acc = 0.0;

    // Walk down from the anchor: pmf(i−1) = pmf(i) · i/λt.
    let mut term = pmf(lambda_t, anchor);
    let mut i = anchor;
    loop {
        acc += term;
        if i == 0 || term < acc * 1e-18 + 1e-320 {
            break;
        }
        term *= i as f64 / lambda_t;
        i -= 1;
    }

    // Walk up from the anchor to n: pmf(j) = pmf(j−1) · λt/j.
    let mut term = pmf(lambda_t, anchor);
    for j in anchor + 1..=n {
        term *= lambda_t / j as f64;
        acc += term;
        if term < acc * 1e-18 + 1e-320 {
            break;
        }
    }
    acc.min(1.0)
}

/// `Pr{N ≥ n}`, the truncation error of stopping a uniformization sum after
/// `n - 1` terms; `1` for `n = 0`.
///
/// Evaluated by summing the smaller side of the distribution, so it stays
/// accurate when the tail is tiny.
pub fn upper_tail(lambda_t: f64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    if (n as f64) <= lambda_t {
        return (1.0 - cdf(lambda_t, n - 1)).max(0.0);
    }
    // Sum the right tail directly.
    let mut term = pmf(lambda_t, n);
    let mut acc = 0.0;
    let mut i = n;
    loop {
        acc += term;
        i += 1;
        term *= lambda_t / i as f64;
        if term < acc * 1e-18 + 1e-320 {
            break;
        }
    }
    acc.min(1.0)
}

/// Fox–Glynn style truncated Poisson weights.
///
/// Computes a window `[left, right]` whose total probability mass is at least
/// `1 - epsilon`, with weights evaluated by the ratio recursion from the mode
/// (numerically stable for large `Λt` where `e^{-Λt}` underflows).
#[derive(Debug, Clone)]
pub struct FoxGlynn {
    left: u64,
    weights: Vec<f64>,
}

impl FoxGlynn {
    /// Compute the window and normalized weights for `lambda_t` with total
    /// truncation error at most `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_t` is negative/non-finite or `epsilon` is not in
    /// `(0, 1)`.
    pub fn new(lambda_t: f64, epsilon: f64) -> Self {
        assert!(
            lambda_t.is_finite() && lambda_t >= 0.0,
            "lambda_t must be finite and non-negative"
        );
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        if lambda_t == 0.0 {
            return FoxGlynn {
                left: 0,
                weights: vec![1.0],
            };
        }

        let mode = lambda_t.floor() as u64;
        // Unnormalized weights from the mode outward; the scale constant
        // cancels during normalization.
        const SCALE: f64 = 1e250;
        let mut down: Vec<f64> = Vec::new();
        let mut up: Vec<f64> = Vec::new();

        // Downward: w_{i-1} = (i / λt) · w_i.
        let mut w = SCALE;
        let mut i = mode;
        while i > 0 {
            w *= i as f64 / lambda_t;
            if w < SCALE * 1e-30 {
                break;
            }
            down.push(w);
            i -= 1;
        }
        let left = i + u64::from(i > 0);

        // Upward: w_{i+1} = (λt / (i+1)) · w_i.
        w = SCALE;
        let mut j = mode;
        loop {
            let next = w * lambda_t / (j + 1) as f64;
            if next < SCALE * 1e-30 {
                break;
            }
            up.push(next);
            w = next;
            j += 1;
        }

        let mut weights = Vec::with_capacity(down.len() + 1 + up.len());
        weights.extend(down.iter().rev());
        weights.push(SCALE);
        weights.extend(up.iter());

        // Normalize, then trim the tails down to epsilon/2 on each side.
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let mut lo = 0usize;
        let mut acc = 0.0;
        while lo < weights.len() && acc + weights[lo] < epsilon / 2.0 {
            acc += weights[lo];
            lo += 1;
        }
        let mut hi = weights.len();
        acc = 0.0;
        while hi > lo + 1 && acc + weights[hi - 1] < epsilon / 2.0 {
            acc += weights[hi - 1];
            hi -= 1;
        }
        let fg = FoxGlynn {
            left: left + lo as u64,
            weights: weights[lo..hi].to_vec(),
        };
        mrmc_obs::record(|| mrmc_obs::Event::PoissonWindow {
            lambda_t,
            left: fg.left(),
            right: fg.right(),
            tail_bound: epsilon,
        });
        fg
    }

    /// First index of the window.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// Last index of the window (inclusive).
    pub fn right(&self) -> u64 {
        self.left + self.weights.len() as u64 - 1
    }

    /// The normalized weight of index `left() + k`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Iterate `(n, weight)` pairs over the window.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(move |(k, &w)| (self.left + k as u64, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..=n).map(|k| k as f64).product();
            assert!(
                (ln_gamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-10,
                "n = {n}"
            );
        }
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn pmf_basics() {
        assert_eq!(pmf(0.0, 0), 1.0);
        assert_eq!(pmf(0.0, 3), 0.0);
        assert!((pmf(2.0, 0) - (-2.0f64).exp()).abs() < 1e-15);
        assert!((pmf(2.0, 1) - 2.0 * (-2.0f64).exp()).abs() < 1e-14);
        // Large λt does not underflow near the mode.
        assert!(pmf(5000.0, 5000) > 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        let total: f64 = (0..200).map(|n| pmf(20.0, n)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_match_pmf() {
        // P_0 = e^{-Λt}, P_i = (Λt/i)·P_{i-1} (Section 4.6.2).
        let lt: f64 = 7.3;
        let mut w = (-lt).exp();
        for n in 0..40u64 {
            if n > 0 {
                w *= lt / n as f64;
            }
            assert!((w - pmf(lt, n)).abs() < 1e-12 * (1.0 + w), "n = {n}");
        }
    }

    #[test]
    fn cdf_and_upper_tail_are_complementary() {
        let lt = 4.2;
        for n in 1..30u64 {
            let s = cdf(lt, n - 1) + upper_tail(lt, n);
            assert!((s - 1.0).abs() < 1e-12, "n = {n}: {s}");
        }
        assert_eq!(upper_tail(lt, 0), 1.0);
    }

    #[test]
    fn cdf_is_stable_for_large_lambda_t() {
        // λt = 1020: e^{−λt} underflows, but the CDF near the mode must
        // still be ≈ 0.5 (previously an all-zero sum).
        let lt = 1020.0;
        let at_mode = cdf(lt, 1020);
        assert!((at_mode - 0.5).abs() < 0.05, "cdf at mode = {at_mode}");
        assert!(cdf(lt, 900) < 1e-4);
        assert!(cdf(lt, 1150) > 0.9999);
        // Tail/CDF complementarity holds across the mode.
        for n in [950u64, 1000, 1020, 1050, 1100] {
            let s = cdf(lt, n - 1) + upper_tail(lt, n);
            assert!((s - 1.0).abs() < 1e-9, "n = {n}: {s}");
        }
    }

    #[test]
    fn upper_tail_is_accurate_in_far_tail() {
        // Pr{N >= 40} with λt = 2 is tiny; log-space evaluation keeps
        // relative accuracy where 1 - cdf would return 0.
        let t = upper_tail(2.0, 40);
        assert!(t > 0.0);
        assert!(t < 1e-30);
        let direct: f64 = (40..80).map(|n| pmf(2.0, n)).sum();
        assert!((t - direct).abs() <= 1e-12 * direct.max(1e-300));
    }

    #[test]
    fn fox_glynn_weights_sum_to_one() {
        for &lt in &[0.5, 5.0, 50.0, 500.0, 5000.0] {
            let fg = FoxGlynn::new(lt, 1e-10);
            let total: f64 = fg.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "λt = {lt}: total {total}");
            assert!(fg.left() <= lt as u64 + 1);
            assert!(fg.right() as f64 >= lt);
        }
    }

    #[test]
    fn fox_glynn_matches_pmf_in_window() {
        let lt = 30.0;
        let fg = FoxGlynn::new(lt, 1e-12);
        for (n, w) in fg.iter() {
            let p = pmf(lt, n);
            assert!((w - p).abs() < 1e-9 * (1.0 + p), "n = {n}: {w} vs {p}");
        }
    }

    #[test]
    fn fox_glynn_zero_lambda() {
        let fg = FoxGlynn::new(0.0, 1e-9);
        assert_eq!(fg.left(), 0);
        assert_eq!(fg.weights(), &[1.0]);
    }

    #[test]
    fn fox_glynn_window_covers_requested_mass() {
        let lt = 100.0;
        let fg = FoxGlynn::new(lt, 1e-8);
        let mass: f64 = fg.iter().map(|(n, _)| pmf(lt, n)).sum();
        assert!(mass > 1.0 - 1e-7);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_panics() {
        pmf(-1.0, 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        FoxGlynn::new(1.0, 0.0);
    }
}
