//! Structured errors for scenario construction, training and measurement.
//!
//! Every failure mode of an experiment cell — attack crafting, provider
//! training, unlearning execution, defense auditing — now surfaces as an
//! [`EvalError`] instead of a panic, so sweep binaries can report which
//! cell failed and continue or exit cleanly.

use std::error::Error;
use std::fmt;

use reveil_core::AttackError;
use reveil_defense::DefenseError;
use reveil_explain::ExplainError;
use reveil_unlearn::UnlearnError;

/// Error type for the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Attack crafting/injection failed (usually a profile/scale bug).
    Attack(AttackError),
    /// Provider training or unlearning failed.
    Unlearn(UnlearnError),
    /// A defense audit failed.
    Defense(DefenseError),
    /// A GradCAM attribution or heat-map rendering failed.
    Explain(ExplainError),
    /// A scenario specification or profile name is invalid (e.g. a
    /// negative camouflage ratio or an unknown `REVEIL_PROFILE`).
    InvalidSpec {
        /// Description of the problem.
        message: String,
    },
    /// An aggregation was requested over zero results.
    EmptyResults {
        /// What was being aggregated.
        what: &'static str,
    },
    /// An underlying dataset operation failed.
    Dataset(String),
    /// An executor invariant was violated (a bug in the harness itself,
    /// not in the scenario being run).
    Internal {
        /// Description of the broken invariant.
        message: &'static str,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Attack(e) => write!(f, "attack stage failed: {e}"),
            EvalError::Unlearn(e) => write!(f, "unlearning stage failed: {e}"),
            EvalError::Defense(e) => write!(f, "defense audit failed: {e}"),
            EvalError::Explain(e) => write!(f, "attribution failed: {e}"),
            EvalError::InvalidSpec { message } => {
                write!(f, "invalid scenario specification: {message}")
            }
            EvalError::EmptyResults { what } => {
                write!(f, "cannot aggregate zero results for {what}")
            }
            EvalError::Dataset(message) => write!(f, "dataset operation failed: {message}"),
            EvalError::Internal { message } => {
                write!(f, "internal harness invariant violated: {message}")
            }
        }
    }
}

impl Error for EvalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvalError::Attack(e) => Some(e),
            EvalError::Unlearn(e) => Some(e),
            EvalError::Defense(e) => Some(e),
            EvalError::Explain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AttackError> for EvalError {
    fn from(e: AttackError) -> Self {
        EvalError::Attack(e)
    }
}

impl From<UnlearnError> for EvalError {
    fn from(e: UnlearnError) -> Self {
        EvalError::Unlearn(e)
    }
}

impl From<DefenseError> for EvalError {
    fn from(e: DefenseError) -> Self {
        EvalError::Defense(e)
    }
}

impl From<reveil_datasets::DatasetError> for EvalError {
    fn from(e: reveil_datasets::DatasetError) -> Self {
        EvalError::Dataset(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_stage() {
        let e = EvalError::from(AttackError::InvalidConfig {
            message: "bad cr".into(),
        });
        assert!(e.to_string().contains("attack"));
        assert!(e.to_string().contains("bad cr"));

        let e = EvalError::EmptyResults { what: "mean" };
        assert!(e.to_string().contains("mean"));

        let e = EvalError::InvalidSpec {
            message: "negative camouflage ratio".into(),
        };
        assert!(e.to_string().contains("specification"));
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        let e = EvalError::from(UnlearnError::EmptyForgetSet);
        assert!(e.source().is_some());
        assert_eq!(e, EvalError::Unlearn(UnlearnError::EmptyForgetSet));
    }
}
