//! Checker configuration.

use mrmc_numerics::UntilEngine;
use mrmc_sparse::solver::SolverOptions;

/// Whether the checker may run on a certified lumping quotient
/// (see [`mrmc_analysis::lumping`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Analyze lumpability for each formula, independently verify the
    /// certificate, and check on the quotient when it is strictly smaller
    /// than the original model; silently fall back to the full model
    /// otherwise. The default — the reduction is exact (bitwise), so there
    /// is no accuracy trade-off.
    #[default]
    Auto,
    /// Never reduce; always check on the full model (the CLI's
    /// `--no-reduction`).
    Off,
}

/// Options steering the model checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOptions {
    /// Engine for reward-bounded until formulas.
    pub until_engine: UntilEngine,
    /// Gauss–Seidel controls: the steady-state solves, and unbounded
    /// reachability only where its Eq. 3.8 system is too wide for the
    /// direct solver (whose result does not depend on these).
    pub solver: SolverOptions,
    /// Truncation error for the Fox–Glynn baseline used on until formulas
    /// without reward bounds.
    pub transient_epsilon: f64,
    /// Requested accuracy `ε` on computed probabilities. When set, until
    /// engines run under the adaptive driver
    /// ([`mrmc_numerics::adaptive`]): their knobs (`w`, `d`, samples) are
    /// refined until the reported error budget is ≤ `ε`, and checking
    /// fails with [`CheckError::ToleranceNotMet`](crate::CheckError) if
    /// the driver's work cap is hit first. `None` (the default) runs each
    /// engine once at its configured knob.
    pub tolerance: Option<f64>,
    /// Run the static pre-flight lint ([`mrmc_analysis::preflight`])
    /// before any numerical engine starts. Error-grade findings abort the
    /// check with [`CheckError::Preflight`](crate::CheckError) instead of
    /// surfacing later (or never) from deep inside an engine. On by
    /// default; [`without_preflight`](CheckOptions::without_preflight)
    /// turns it off for callers that want the raw engine errors.
    pub preflight: bool,
    /// Whether to check on a certified lumping quotient when one exists
    /// (see [`Reduction`]). [`Reduction::Auto`] by default.
    pub reduction: Reduction,
    /// Qualitative precomputation and formula-driven slicing: before an
    /// until engine runs, a verified
    /// [`QualitativeCertificate`](mrmc_analysis::QualitativeCertificate)
    /// pre-assigns exact 0/1 probabilities to the certain-zero/one states
    /// and the engine solves only the undetermined block. On by default —
    /// when the certificate prunes nothing the run is bitwise identical
    /// to an unsliced one; [`without_slicing`](CheckOptions::without_slicing)
    /// (the CLI's `--no-slicing`) forces the full numerical solve.
    pub slicing: bool,
}

impl CheckOptions {
    /// The thesis tool's defaults: uniformization with `w = 1e-8`.
    pub fn new() -> Self {
        CheckOptions {
            until_engine: UntilEngine::default(),
            solver: SolverOptions::new(),
            transient_epsilon: 1e-10,
            tolerance: None,
            preflight: true,
            reduction: Reduction::Auto,
            slicing: true,
        }
    }

    /// Disable the static pre-flight lint (see
    /// [`preflight`](CheckOptions::preflight)).
    pub fn without_preflight(mut self) -> Self {
        self.preflight = false;
        self
    }

    /// Disable qualitative slicing (see
    /// [`slicing`](CheckOptions::slicing)): every until engine solves the
    /// full state space numerically.
    pub fn without_slicing(mut self) -> Self {
        self.slicing = false;
        self
    }

    /// The configured until engine: the same value as
    /// [`until_engine`](CheckOptions::until_engine), which the pre-flight
    /// takes.
    pub fn engine_hint(&self) -> UntilEngine {
        self.until_engine
    }

    /// Replace the until engine.
    pub fn with_engine(mut self, engine: UntilEngine) -> Self {
        self.until_engine = engine;
        self
    }

    /// Request a guaranteed accuracy `ε` on computed probabilities (see
    /// [`tolerance`](CheckOptions::tolerance)).
    pub fn with_tolerance(mut self, epsilon: f64) -> Self {
        self.tolerance = Some(epsilon);
        self
    }

    /// Set the reduction policy (see [`Reduction`]).
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_tool() {
        let o = CheckOptions::new();
        match o.until_engine {
            UntilEngine::Uniformization(u) => assert_eq!(u.truncation, 1e-8),
            _ => panic!("default must be uniformization"),
        }
        assert_eq!(CheckOptions::default(), o);
    }

    #[test]
    fn preflight_defaults_on_and_can_be_disabled() {
        assert!(CheckOptions::new().preflight);
        assert!(!CheckOptions::new().without_preflight().preflight);
    }

    #[test]
    fn slicing_defaults_on_and_can_be_disabled() {
        assert!(CheckOptions::new().slicing);
        assert!(!CheckOptions::new().without_slicing().slicing);
    }

    #[test]
    fn engine_hint_mirrors_the_until_engine() {
        for engine in [
            UntilEngine::uniformization(1e-11),
            UntilEngine::discretization(0.25),
            UntilEngine::simulation(5_000),
        ] {
            assert_eq!(
                CheckOptions::new().with_engine(engine).engine_hint(),
                engine
            );
        }
    }

    #[test]
    fn reduction_defaults_to_auto() {
        let o = CheckOptions::new();
        assert_eq!(o.reduction, Reduction::Auto);
        assert_eq!(o.with_reduction(Reduction::Off).reduction, Reduction::Off);
    }

    #[test]
    fn tolerance_builder() {
        let o = CheckOptions::new();
        assert_eq!(o.tolerance, None);
        assert_eq!(o.with_tolerance(1e-6).tolerance, Some(1e-6));
    }

    #[test]
    fn builders() {
        let o = CheckOptions::new().with_engine(UntilEngine::discretization(0.25));
        match o.until_engine {
            UntilEngine::Discretization(d) => assert_eq!(d.step, 0.25),
            _ => panic!("expected discretization"),
        }
        match UntilEngine::simulation(5_000) {
            UntilEngine::Simulation(s) => assert_eq!(s.samples, 5_000),
            _ => panic!("expected simulation"),
        }
        match UntilEngine::uniformization(1e-11) {
            UntilEngine::Uniformization(u) => assert_eq!(u.truncation, 1e-11),
            _ => panic!("expected uniformization"),
        }
    }
}
