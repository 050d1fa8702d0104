//! Experiment harness regenerating every table and figure of the
//! evaluation chapter (Chapter 5) of *Model Checking Markov Reward Models
//! with Impulse Rewards*.
//!
//! Each `table_*` function reproduces one table's rows; the figure series
//! (Figures 5.3–5.5) are the same data, exported as CSV by the
//! `experiments` binary. Absolute probabilities depend on this crate's
//! documented reward calibration (see `DESIGN.md`); the *shapes* — growth
//! with `t`, the reward-bound plateau, the error blow-up at constant `w`,
//! monotonicity in the number of working modules, uniformization vs
//! discretization agreement — are the reproduction targets recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod harness;
pub mod tables;

use std::time::Instant;

/// Measure the wall-clock seconds a closure takes, returning its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "timing is what a benchmark reports"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Format a probability the way the thesis tables print them.
pub fn fmt_p(p: f64) -> String {
    format!("{p:.12}")
}

/// Format an error bound in scientific notation.
pub fn fmt_e(e: f64) -> String {
    format!("{e:.6e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_p(0.5), "0.500000000000");
        assert!(fmt_e(1.5e-9).contains("e-9"));
    }
}
