//! The checker's error type.

use std::error::Error;
use std::fmt;

use mrmc_csrl::ParseError;
use mrmc_ctmc::ModelError;
use mrmc_mrm::MrmError;
use mrmc_numerics::NumericsError;

/// An error raised while checking a formula.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The formula text failed to parse.
    Parse(ParseError),
    /// An atomic proposition does not occur in the model's labeling.
    ///
    /// This is a warning-grade condition in some tools; this checker
    /// reports it as an error because a typo silently yields `ff`.
    UnknownProposition {
        /// The unmatched proposition.
        name: String,
    },
    /// The requested bounds fall outside what the numerical engines
    /// support (time/reward intervals must be of the form `[0, x]`; see
    /// Section 4.6 and Chapter 6 of the thesis).
    UnsupportedBounds {
        /// Which bound was out of scope.
        what: &'static str,
    },
    /// The adaptive driver could not refine the engine far enough to meet
    /// the requested [`tolerance`](crate::CheckOptions::tolerance).
    ToleranceNotMet {
        /// The tolerance the caller asked for.
        requested: f64,
        /// The tightest total error budget achieved.
        achieved: f64,
    },
    /// The static pre-flight lint found Error-grade diagnostics; no
    /// numerical engine was started. The report carries every finding
    /// (including any warnings and notes that accompanied the errors).
    Preflight(mrmc_analysis::Report),
    /// A numerical engine failed.
    Numerics(NumericsError),
    /// A chain-level analysis failed.
    Model(ModelError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Parse(e) => write!(f, "{e}"),
            CheckError::UnknownProposition { name } => {
                write!(f, "atomic proposition `{name}` does not label any state")
            }
            CheckError::UnsupportedBounds { what } => write!(
                f,
                "unsupported {what}: only [0, t] time and [0, r] reward bounds are supported for until formulas"
            ),
            CheckError::ToleranceNotMet {
                requested,
                achieved,
            } => write!(
                f,
                "tolerance not met: requested {requested:e}, achieved error bound {achieved:e}"
            ),
            CheckError::Preflight(report) => {
                write!(f, "pre-flight lint failed:")?;
                for d in report.errors() {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            CheckError::Numerics(e) => write!(f, "{e}"),
            CheckError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Parse(e) => Some(e),
            CheckError::Numerics(e) => Some(e),
            CheckError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for CheckError {
    fn from(e: ParseError) -> Self {
        CheckError::Parse(e)
    }
}

impl From<NumericsError> for CheckError {
    fn from(e: NumericsError) -> Self {
        // Normalize the numerics-level structured reports.
        match e {
            NumericsError::UnsupportedBounds { what } => CheckError::UnsupportedBounds { what },
            NumericsError::ToleranceNotMet {
                requested,
                achieved,
            } => CheckError::ToleranceNotMet {
                requested,
                achieved,
            },
            other => CheckError::Numerics(other),
        }
    }
}

impl From<ModelError> for CheckError {
    fn from(e: ModelError) -> Self {
        CheckError::Model(e)
    }
}

impl From<MrmError> for CheckError {
    fn from(e: MrmError) -> Self {
        CheckError::Numerics(NumericsError::Model(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CheckError::UnknownProposition {
            name: "buzy".into(),
        };
        assert!(e.to_string().contains("buzy"));
        assert!(std::error::Error::source(&e).is_none());

        let e = CheckError::UnsupportedBounds {
            what: "time lower bound",
        };
        assert!(e.to_string().contains("[0, t]"));

        let e: CheckError = mrmc_csrl::parse("a &&").unwrap_err().into();
        assert!(matches!(e, CheckError::Parse(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: CheckError = NumericsError::UnsupportedBounds { what: "x" }.into();
        assert!(matches!(e, CheckError::UnsupportedBounds { what: "x" }));

        let e: CheckError = NumericsError::ToleranceNotMet {
            requested: 1e-6,
            achieved: 1e-4,
        }
        .into();
        assert!(matches!(
            e,
            CheckError::ToleranceNotMet {
                requested: 1e-6,
                achieved: 1e-4
            }
        ));
        assert!(e.to_string().contains("1e-6"));

        let e: CheckError = ModelError::EmptyModel.into();
        assert!(e.to_string().contains("no states"));
    }

    #[test]
    fn preflight_display_lists_the_error_diagnostics() {
        use mrmc_analysis::{Diagnostic, Report, Severity};
        let mut report = Report::new();
        report.push(Diagnostic::new(
            "F001",
            Severity::Error,
            "atomic proposition `buzzy` does not label any state",
        ));
        report.push(Diagnostic::new("M106", Severity::Warning, "unused label"));
        let e = CheckError::Preflight(report);
        let s = e.to_string();
        assert!(s.contains("pre-flight lint failed"));
        assert!(s.contains("error[F001]"));
        assert!(s.contains("buzzy"));
        // Only Error-grade findings are shown in the compact message.
        assert!(!s.contains("M106"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
