//! Error types for the specification framework.

use std::fmt;

/// Errors produced while building, composing or analysing specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A composition plan selected a module that is not available in the library.
    UnknownModule {
        /// The requested module identifier.
        module: String,
        /// The requested granularity.
        granularity: String,
    },
    /// Two module specifications claim the same module identifier in one composition.
    DuplicateModule {
        /// The duplicated module identifier.
        module: String,
    },
    /// The composition plan left a required module unassigned.
    MissingModule {
        /// The missing module identifier.
        module: String,
    },
    /// A coarsened module violates the interaction-preservation constraints.
    InteractionNotPreserved {
        /// Human-readable description of the violated constraint.
        detail: String,
    },
    /// An invariant identifier was requested but is not registered.
    UnknownInvariant {
        /// The requested invariant identifier.
        id: String,
    },
    /// The model configuration is outside what the specification supports.
    InvalidConfig {
        /// Human-readable description of the rejected setting.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownModule {
                module,
                granularity,
            } => {
                write!(
                    f,
                    "no specification for module `{module}` at granularity `{granularity}`"
                )
            }
            SpecError::DuplicateModule { module } => {
                write!(
                    f,
                    "module `{module}` selected more than once in the composition"
                )
            }
            SpecError::MissingModule { module } => {
                write!(f, "composition plan does not cover module `{module}`")
            }
            SpecError::InteractionNotPreserved { detail } => {
                write!(f, "interaction preservation violated: {detail}")
            }
            SpecError::UnknownInvariant { id } => write!(f, "unknown invariant `{id}`"),
            SpecError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_identifiers() {
        let e = SpecError::UnknownModule {
            module: "Election".to_owned(),
            granularity: "Coarse".to_owned(),
        };
        assert!(e.to_string().contains("Election"));
        assert!(e.to_string().contains("Coarse"));
        let e = SpecError::UnknownInvariant {
            id: "I-8".to_owned(),
        };
        assert!(e.to_string().contains("I-8"));
    }
}
