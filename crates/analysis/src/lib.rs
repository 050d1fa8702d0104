//! Static semantic analysis over Markov reward models and CSRL formulas.
//!
//! The numerical engines of the checker (Sat recursion, make-absorbing
//! until, the uniformization and discretization engines) silently assume
//! well-formed inputs: stochastic generator rows, non-negative rewards,
//! reachable states, non-degenerate `I`/`J` intervals. When those
//! assumptions fail the engines misbehave or waste enormous compute. This
//! crate catches the *structural* trouble **statically, before any engine
//! runs**, complementing the error-budget subsystem that reports
//! *numerical* trouble after the fact.
//!
//! # Pipeline
//!
//! A compiler-style diagnostics pipeline: independent lint *passes* inspect
//! a [`LintContext`] (the model, optionally a formula, and the engine that
//! would run) and push typed [`Diagnostic`]s into a [`Report`]. Passes are
//! registered on an [`Analyzer`]; [`Analyzer::default_passes`] carries the
//! built-in set and custom passes can be appended with
//! [`Analyzer::register`].
//!
//! * **Model passes** (`M` codes) look at the MRM alone: unreachable
//!   states, impulses on zero-rate transitions, zero-reward BSCCs,
//!   stiffness, unused label declarations.
//! * **Formula passes** (`F` codes) look at a formula against the model:
//!   unknown atomic propositions, bound shapes no engine supports,
//!   unsatisfiable or trivial probability thresholds, vacuous reward
//!   bounds, nesting that triggers two-run widening.
//! * **Cost passes** (`C` codes) predict engine cost ([`cost`]):
//!   path-explosion and grid-memory estimates, surfaced as warnings with
//!   suggested knob changes.
//!
//! Severities follow the compiler convention: `Error` findings abort
//! checking (the checker's mandatory pre-flight refuses to start an
//! engine), `Warning`s proceed unless denied, `Note`s are informational.
//!
//! ```
//! use mrmc_analysis::{Analyzer, Severity};
//! # let mut b = mrmc_ctmc::CtmcBuilder::new(2);
//! # b.transition(0, 1, 1.0).transition(1, 0, 1.0);
//! # b.label(0, "up").label(1, "down");
//! # let mrm = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
//! let formula = mrmc_csrl::parse("P(>= 0.5) [up U misspelled]").unwrap();
//! let report = Analyzer::new().check_formula(&mrm, &formula, Default::default());
//! assert!(report.has_errors());
//! assert_eq!(report.codes(), vec!["F001"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dataflow;
pub mod diagnostic;
pub mod formula;
pub mod lumping;
pub mod model;

pub use dataflow::{qualitative_until, QualitativeCertificate, QualitativeError};
pub use diagnostic::{Diagnostic, Report, Severity};
pub use lumping::{
    AnalysisInputs, CertificateError, LumpingAnalysis, LumpingCertificate, Observation,
};

use mrmc_csrl::StateFormula;
use mrmc_mrm::io::LoadError;
use mrmc_mrm::Mrm;
use mrmc_numerics::UntilEngine;

/// Which inputs a pass needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Inspects the model alone; runs once per model.
    Model,
    /// Inspects a formula against the model; runs once per formula.
    Formula,
}

/// Everything a pass may look at.
#[derive(Debug, Clone, Copy)]
pub struct LintContext<'a> {
    /// The model under analysis.
    pub mrm: &'a Mrm,
    /// The formula under analysis; `None` while running model-scope passes.
    pub formula: Option<&'a StateFormula>,
    /// The engine the checker would use for until formulas; the passes
    /// read each until's [`UntilRoute`](mrmc_numerics::UntilRoute) from it.
    pub engine: UntilEngine,
    /// Verbose mode (`mrmc lint --verbose`): passes that aggregate by
    /// default (e.g. per-SCC unreachable-state grouping) fall back to
    /// their flat per-state form.
    pub verbose: bool,
}

/// The signature of a lint pass: inspect the context, push findings.
pub type PassFn = fn(&LintContext<'_>, &mut Report);

/// A registered lint pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Short kebab-case name, shown in `--verbose` pass listings and docs.
    pub name: &'static str,
    /// Which inputs the pass needs.
    pub scope: Scope,
    /// The implementation.
    pub run: PassFn,
}

/// An ordered collection of lint passes.
///
/// [`Analyzer::new`] starts from the built-in set; [`Analyzer::empty`]
/// starts blank for embedders that want full control. Passes run in
/// registration order, so diagnostics are deterministic.
#[derive(Debug, Clone)]
pub struct Analyzer {
    passes: Vec<Pass>,
    verbose: bool,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// All built-in passes, in stable order.
    pub fn new() -> Self {
        Analyzer {
            passes: Self::default_passes().to_vec(),
            verbose: false,
        }
    }

    /// No passes; register your own.
    pub fn empty() -> Self {
        Analyzer {
            passes: Vec::new(),
            verbose: false,
        }
    }

    /// Enable verbose mode: aggregating passes (per-SCC unreachable-state
    /// grouping) report their flat per-state form instead.
    pub fn set_verbose(&mut self, verbose: bool) -> &mut Self {
        self.verbose = verbose;
        self
    }

    /// The built-in pass set.
    pub fn default_passes() -> &'static [Pass] {
        &[
            Pass {
                name: "model-reachability",
                scope: Scope::Model,
                run: model::reachability,
            },
            Pass {
                name: "model-impulse-structure",
                scope: Scope::Model,
                run: model::impulse_structure,
            },
            Pass {
                name: "model-bscc-rewards",
                scope: Scope::Model,
                run: model::bscc_rewards,
            },
            Pass {
                name: "model-stiffness",
                scope: Scope::Model,
                run: model::stiffness,
            },
            Pass {
                name: "model-label-usage",
                scope: Scope::Model,
                run: model::label_usage,
            },
            Pass {
                name: "formula-propositions",
                scope: Scope::Formula,
                run: formula::propositions,
            },
            Pass {
                name: "formula-bound-support",
                scope: Scope::Formula,
                run: formula::bound_support,
            },
            Pass {
                name: "formula-thresholds",
                scope: Scope::Formula,
                run: formula::thresholds,
            },
            Pass {
                name: "formula-vacuity",
                scope: Scope::Formula,
                run: formula::vacuity,
            },
            Pass {
                name: "formula-nesting",
                scope: Scope::Formula,
                run: formula::nesting,
            },
            Pass {
                name: "cost-prediction",
                scope: Scope::Formula,
                run: cost::prediction,
            },
        ]
    }

    /// Append a custom pass; it runs after all previously registered ones.
    pub fn register(&mut self, pass: Pass) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The registered passes, in execution order.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Run every model-scope pass.
    pub fn check_model(&self, mrm: &Mrm) -> Report {
        let ctx = LintContext {
            mrm,
            formula: None,
            engine: UntilEngine::default(),
            verbose: self.verbose,
        };
        let mut report = Report::new();
        for pass in self.passes.iter().filter(|p| p.scope == Scope::Model) {
            (pass.run)(&ctx, &mut report);
        }
        report
    }

    /// Run every formula-scope pass against `formula`.
    pub fn check_formula(&self, mrm: &Mrm, formula: &StateFormula, engine: UntilEngine) -> Report {
        let ctx = LintContext {
            mrm,
            formula: Some(formula),
            engine,
            verbose: self.verbose,
        };
        let mut report = Report::new();
        for pass in self.passes.iter().filter(|p| p.scope == Scope::Formula) {
            (pass.run)(&ctx, &mut report);
        }
        report
    }

    /// Run everything: model passes once, formula passes per formula.
    pub fn check_all(&self, mrm: &Mrm, formulas: &[StateFormula], engine: UntilEngine) -> Report {
        let mut report = self.check_model(mrm);
        for f in formulas {
            report.extend(self.check_formula(mrm, f, engine));
        }
        report
    }
}

/// The checker's mandatory pre-flight: the built-in formula-scope passes.
///
/// `mrmc-core` calls this before starting any engine and aborts on
/// Error-level findings. The pass set is exactly
/// [`Analyzer::default_passes`] restricted to [`Scope::Formula`], so a
/// formula that survives pre-flight cannot fail with an unknown
/// proposition or unsupported bound shape at engine time.
pub fn preflight(mrm: &Mrm, formula: &StateFormula, engine: UntilEngine) -> Report {
    Analyzer::new().check_formula(mrm, formula, engine)
}

/// Map a model [`LoadError`] to the diagnostic vocabulary, so `mrmc lint`
/// reports unloadable models with stable codes instead of a bare error
/// string:
///
/// * `M001` — unreadable file or malformed header/format;
/// * `M002` — duplicate transition entry (`.tra`/`.rewi`);
/// * `M003` — duplicate label, declaration, or reward entry;
/// * `M004` — the files parse but violate the MRM definition
///   (negative rates/rewards, self-loop impulses, size mismatches).
///
/// Format errors carry the 1-based line of the offending record
/// ([`Diagnostic::line`]), so editors and scripts can jump straight to it.
pub fn diagnose_load_error(err: &LoadError) -> Diagnostic {
    use mrmc_mrm::io::FormatErrorKind;
    let (code, line) = match err {
        LoadError::Format { source, .. } => {
            let code = match source.kind {
                FormatErrorKind::DuplicateTransition { .. } => "M002",
                FormatErrorKind::DuplicateReward { .. }
                | FormatErrorKind::DuplicateLabel { .. }
                | FormatErrorKind::DuplicateDeclaration { .. } => "M003",
                _ => "M001",
            };
            // Line 0 is the parser's "end of file" sentinel, not a record.
            (code, (source.line > 0).then_some(source.line))
        }
        LoadError::Io { .. } => ("M001", None),
        LoadError::Model(_) => ("M004", None),
    };
    let d = Diagnostic::new(code, Severity::Error, err.to_string());
    match line {
        Some(l) => d.with_line(l),
        None => d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    fn two_state() -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        b.label(0, "up").label(1, "down");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn default_passes_cover_both_scopes() {
        let a = Analyzer::new();
        assert!(a.passes().iter().any(|p| p.scope == Scope::Model));
        assert!(a.passes().iter().any(|p| p.scope == Scope::Formula));
        // Names are unique (they key the docs table).
        let mut names: Vec<_> = a.passes().iter().map(|p| p.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn clean_model_and_formula_produce_no_errors() {
        let mrm = two_state();
        let f = mrmc_csrl::parse("P(>= 0.5) [up U down]").unwrap();
        let report = Analyzer::new().check_all(&mrm, &[f], UntilEngine::default());
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn custom_passes_run_after_builtins() {
        fn always_note(_: &LintContext<'_>, report: &mut Report) {
            report.push(Diagnostic::new("X999", Severity::Note, "custom"));
        }
        let mut a = Analyzer::empty();
        a.register(Pass {
            name: "custom",
            scope: Scope::Model,
            run: always_note,
        });
        let report = a.check_model(&two_state());
        assert_eq!(report.codes(), vec!["X999"]);
    }

    #[test]
    fn load_errors_map_to_stable_codes() {
        use mrmc_mrm::io::ModelFiles;
        let broken = ModelFiles {
            tra: "STATES 2\nTRANSITIONS 2\n1 2 1.0\n1 2 1.0\n".into(),
            lab: String::new(),
            rewr: String::new(),
            rewi: String::new(),
        };
        let d = diagnose_load_error(&broken.assemble().unwrap_err());
        assert_eq!(d.code, "M002");
        assert_eq!(d.severity, Severity::Error);
        // The duplicate `1 2` record sits on line 4 of the .tra file.
        assert_eq!(d.line, Some(4));

        let bad_header = ModelFiles {
            tra: "garbage".into(),
            lab: String::new(),
            rewr: String::new(),
            rewi: String::new(),
        };
        let d = diagnose_load_error(&bad_header.assemble().unwrap_err());
        assert_eq!(d.code, "M001");

        let dup_label = ModelFiles {
            tra: "STATES 1\nTRANSITIONS 0\n".into(),
            lab: "#DECLARATION\nup\n#END\n1 up,up\n".into(),
            rewr: String::new(),
            rewi: String::new(),
        };
        let d = diagnose_load_error(&dup_label.assemble().unwrap_err());
        assert_eq!(d.code, "M003");
        // The `1 up,up` record sits on line 4 of the .lab file.
        assert_eq!(d.line, Some(4));

        let negative_rate = ModelFiles {
            tra: "STATES 2\nTRANSITIONS 1\n1 2 -1.0\n".into(),
            lab: String::new(),
            rewr: String::new(),
            rewi: String::new(),
        };
        let d = diagnose_load_error(&negative_rate.assemble().unwrap_err());
        assert_eq!(d.code, "M004");
        // Model-level violations have no single source line.
        assert_eq!(d.line, None);

        let dup_reward = ModelFiles {
            tra: "STATES 2\nTRANSITIONS 2\n1 2 1.0\n2 1 1.0\n".into(),
            lab: String::new(),
            rewr: "1 2.0\n1 3.0\n".into(),
            rewi: String::new(),
        };
        let d = diagnose_load_error(&dup_reward.assemble().unwrap_err());
        assert_eq!(d.code, "M003");
        // The repeated `1 ...` reward record sits on line 2 of the .rewr
        // file.
        assert_eq!(d.line, Some(2));
    }
}
