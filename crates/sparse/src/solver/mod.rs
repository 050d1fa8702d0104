//! Solvers for the linear systems that model checking produces.
//!
//! * [`BandedLu`] with [`reverse_cuthill_mckee`] — a direct solver for
//!   M-matrix systems such as unbounded reachability (Eq. 3.8): the
//!   ordering narrows the band, and LU without pivoting stays inside it;
//! * [`gauss_seidel`] — the thesis' iterative method, for per-BSCC steady
//!   state and for reachability systems whose band is too wide to store;
//! * [`power_iteration`] — power iteration `x ← x·P` for the stationary vector of an
//!   aperiodic stochastic matrix (the uniformized DTMC is always aperiodic
//!   when `Λ` strictly exceeds the maximal exit rate).

mod banded_lu;
mod gauss_seidel;
mod power;
mod rcm;

pub use banded_lu::BandedLu;
pub use gauss_seidel::gauss_seidel;
pub use power::power_iteration;
pub use rcm::reverse_cuthill_mckee;

/// Convergence controls shared by the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Give up after this many sweeps.
    pub max_iterations: usize,
    /// Declare convergence when the maximum absolute update falls below this.
    pub tolerance: f64,
}

impl SolverOptions {
    /// `max_iterations = 100_000`, `tolerance = 1e-12` — tight enough for the
    /// probabilities the checker compares against bounds.
    pub fn new() -> Self {
        SolverOptions {
            max_iterations: 100_000,
            tolerance: 1e-12,
        }
    }

    /// Replace the iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Replace the convergence tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder() {
        let o = SolverOptions::new()
            .with_max_iterations(5)
            .with_tolerance(1e-3);
        assert_eq!(o.max_iterations, 5);
        assert_eq!(o.tolerance, 1e-3);
        assert_eq!(SolverOptions::default(), SolverOptions::new());
    }
}
