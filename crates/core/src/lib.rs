//! `mrmc` — a CSRL model checker for Markov reward models with impulse
//! rewards.
//!
//! This crate is the primary contribution of *Model Checking Markov Reward
//! Models with Impulse Rewards* (Khattri & Pulungan, 2004 / DSN 2005): given
//! an [`Mrm`] and a CSRL formula, it computes the set of
//! states satisfying the formula, together with the computed probabilities
//! and error bounds.
//!
//! The checking procedure (Chapter 4) is a post-order traversal of the
//! formula (Algorithm 4.1) dispatching to:
//!
//! * steady-state formulas — BSCC analysis, per-BSCC steady-state solves,
//!   and reachability weighting (Algorithm 4.3);
//! * next formulas — the closed form of Eq. 3.4 over the `K(s, s')`
//!   intervals (Algorithm 4.4);
//! * until formulas — the make-absorbing transformation (Theorems 4.1–4.3)
//!   followed by one of two engines (Algorithm 4.5): uniformization with
//!   level-synchronous, merged path generation, or discretization.
//!
//! Every check runs through one pipeline, [`CheckSession::check`]: the
//! pre-flight lint, the certified lumping reduction, then that recursion,
//! with the session's caches passed down explicitly. A long-lived
//! [`CheckSession`] (the CLI, the server) shares those caches across
//! formulas and models; [`ModelChecker`] checks each formula on a fresh
//! session and keeps nothing between checks.
//!
//! # Quickstart
//!
//! ```
//! use mrmc::{ModelChecker, CheckOptions};
//! use mrmc_ctmc::CtmcBuilder;
//! use mrmc_mrm::Mrm;
//!
//! // A two-state chain: up --(0.1)--> down, down --(0.9)--> up.
//! let mut b = CtmcBuilder::new(2);
//! b.transition(0, 1, 0.1).transition(1, 0, 0.9);
//! b.label(0, "up").label(1, "down");
//! let mrm = Mrm::without_rewards(b.build()?);
//!
//! let checker = ModelChecker::new(mrm, CheckOptions::new());
//! // Long-run availability is 0.9: every state satisfies S(>= 0.85)(up).
//! let outcome = checker.check_str("S(>= 0.85) (up)")?;
//! assert!(outcome.satisfying_states().all(|s| s < 2));
//! assert_eq!(outcome.sat(), &[true, true]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod error;
mod next;
mod options;
mod outcome;
pub mod report;
mod sat;
pub mod session;
mod steady;
mod until;

pub use cache::{model_hash, options_fingerprint};
pub use error::CheckError;
pub use next::next_probabilities;
pub use options::{CheckOptions, Reduction};
pub use outcome::{CheckOutcome, DataflowInfo, ReductionInfo, Verdict};
pub use session::{CheckSession, ModelHandle, SessionStats};

pub use mrmc_numerics::{ErrorBudget, UntilEngine};

// Re-export the static-analysis vocabulary so downstream users (and the
// CLI's `lint` subcommand) need not depend on `mrmc-analysis` directly.
pub use mrmc_analysis::{
    dataflow, diagnose_load_error, lumping, Analyzer, Diagnostic, Pass, Report, Scope, Severity,
};

use mrmc_csrl::StateFormula;
use mrmc_mrm::Mrm;

/// A model checker bound to one model and one set of numerical options.
///
/// Each check runs on a fresh [`CheckSession`], so nothing is kept
/// between checks.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    model: ModelHandle,
    options: CheckOptions,
}

impl ModelChecker {
    /// Create a checker for `mrm` with the given options.
    pub fn new(mrm: Mrm, options: CheckOptions) -> Self {
        ModelChecker {
            model: ModelHandle::new(mrm),
            options,
        }
    }

    /// The model being checked.
    pub fn mrm(&self) -> &Mrm {
        self.model.mrm()
    }

    /// The active options.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// Run the static pre-flight lint for `formula` against this model
    /// and the configured engine, without starting any engine.
    ///
    /// This is the same report [`check`](ModelChecker::check) gates on;
    /// callers that want to surface Warning/Note findings (the CLI prints
    /// them to stderr) obtain them here.
    pub fn preflight(&self, formula: &StateFormula) -> mrmc_analysis::Report {
        mrmc_analysis::preflight(self.mrm(), formula, self.options.until_engine)
    }

    /// Compute `Sat(Φ)` for a parsed formula on a fresh [`CheckSession`];
    /// see [`CheckSession::check`] for the pipeline.
    ///
    /// # Errors
    ///
    /// As for [`CheckSession::check`].
    pub fn check(&self, formula: &StateFormula) -> Result<CheckOutcome, CheckError> {
        CheckSession::new().check(&self.model, formula, &self.options)
    }

    /// Parse and check a formula given in concrete syntax.
    ///
    /// # Errors
    ///
    /// [`CheckError::Parse`] for syntax errors, otherwise as
    /// [`check`](ModelChecker::check).
    pub fn check_str(&self, formula: &str) -> Result<CheckOutcome, CheckError> {
        let parsed = mrmc_csrl::parse(formula)?;
        self.check(&parsed)
    }
}
