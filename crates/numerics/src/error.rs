//! Error type shared by the numerical engines.

use std::error::Error;
use std::fmt;

use mrmc_ctmc::ModelError;
use mrmc_mrm::MrmError;

/// An error raised by a numerical engine.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A problem with the model being analysed.
    Model(MrmError),
    /// A parameter outside its admissible range.
    InvalidParameter {
        /// Name of the parameter (e.g. `"truncation"` or `"step"`).
        name: &'static str,
        /// The offending value.
        value: f64,
        /// What would have been admissible.
        requirement: &'static str,
    },
    /// The engines only support `I = [0, t]`, `J = [0, r]` bounds
    /// (Section 4.6; also listed as future work in Chapter 6).
    UnsupportedBounds {
        /// Which bound was out of scope.
        what: &'static str,
    },
    /// Discretization needs integer state rewards after scaling
    /// (Section 4.4.1).
    NonIntegerRewards {
        /// The reward that could not be scaled to an integer.
        reward: f64,
    },
    /// A characteristic vector has the wrong length.
    SizeMismatch {
        /// Expected length (number of states).
        expected: usize,
        /// Found length.
        found: usize,
    },
    /// The adaptive driver exhausted its work cap before the reported
    /// error budget reached the requested tolerance.
    ToleranceNotMet {
        /// The tolerance the caller asked for.
        requested: f64,
        /// The tightest total budget the driver achieved.
        achieved: f64,
    },
    /// The merged path exploration stands for more path-tree nodes or
    /// paths than a `u64` counts: its work counters would wrap.
    PathCountOverflow,
    /// One depth of the merged path exploration holds more than
    /// `groups` distinct groups: the frontier would exhaust memory.
    FrontierTooWide {
        /// The cap on groups per depth.
        groups: usize,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::Model(e) => write!(f, "{e}"),
            NumericsError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "invalid {name} = {value}: {requirement}"),
            NumericsError::UnsupportedBounds { what } => write!(
                f,
                "unsupported {what}: the numerical engines handle [0, t] time and [0, r] reward bounds only"
            ),
            NumericsError::NonIntegerRewards { reward } => write!(
                f,
                "state reward {reward} cannot be scaled to an integer for discretization"
            ),
            NumericsError::SizeMismatch { expected, found } => {
                write!(f, "expected a vector of length {expected}, found {found}")
            }
            NumericsError::ToleranceNotMet {
                requested,
                achieved,
            } => write!(
                f,
                "tolerance not met: requested {requested:e}, achieved error bound {achieved:e}"
            ),
            NumericsError::PathCountOverflow => write!(
                f,
                "path exploration stands for more than 2^64 - 1 paths; raise the truncation probability or shorten the time bound"
            ),
            NumericsError::FrontierTooWide { groups } => write!(
                f,
                "path exploration frontier exceeds its memory guard of {groups} groups per depth; raise the truncation probability or shorten the time bound"
            ),
        }
    }
}

impl Error for NumericsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NumericsError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MrmError> for NumericsError {
    fn from(e: MrmError) -> Self {
        NumericsError::Model(e)
    }
}

impl From<ModelError> for NumericsError {
    fn from(e: ModelError) -> Self {
        NumericsError::Model(MrmError::Model(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(NumericsError::InvalidParameter {
            name: "truncation",
            value: 0.0,
            requirement: "must be in (0, 1)"
        }
        .to_string()
        .contains("truncation"));
        assert!(NumericsError::UnsupportedBounds {
            what: "time lower bound"
        }
        .to_string()
        .contains("[0, t]"));
        assert!(NumericsError::NonIntegerRewards { reward: 0.3 }
            .to_string()
            .contains("0.3"));
        assert!(NumericsError::SizeMismatch {
            expected: 4,
            found: 2
        }
        .to_string()
        .contains('4'));
        let e = NumericsError::ToleranceNotMet {
            requested: 1e-9,
            achieved: 3.2e-7,
        };
        let s = e.to_string();
        assert!(s.contains("1e-9") && s.contains("3.2e-7"), "{s}");
        assert!(NumericsError::PathCountOverflow
            .to_string()
            .contains("2^64"));
        assert!(NumericsError::FrontierTooWide { groups: 4 }
            .to_string()
            .contains("4 groups"));
    }

    #[test]
    fn conversions_set_source() {
        let e: NumericsError = MrmError::RewardSizeMismatch {
            states: 1,
            rewarded: 2,
        }
        .into();
        assert!(std::error::Error::source(&e).is_some());
        let e: NumericsError = ModelError::EmptyModel.into();
        assert!(e.to_string().contains("no states"));
    }
}
