//! The workspace-wide error type.
//!
//! Every fallible public entry point — fallible constructors, snapshot
//! loading, serving requests — reports failures through [`OcularError`]
//! instead of panicking or inventing a per-crate error enum. The enum is
//! `#[non_exhaustive]`: new failure modes can be added without a breaking
//! release, so downstream `match`es must carry a wildcard arm.

use std::fmt;

/// The unified error of the OCuLaR workspace.
///
/// Variants carry rendered context (no borrowed data, no `io::Error`
/// payloads) so the type stays `Clone + PartialEq` — serving batches store
/// per-request results, and tests compare them directly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OcularError {
    /// A hyper-parameter or solver knob is outside its legal range.
    InvalidConfig(String),
    /// Two shapes that must agree (model vs. interactions, user vs. item
    /// factors) do not.
    ShapeMismatch {
        /// Rows × columns the operation expected.
        expected: (usize, usize),
        /// Rows × columns it was given.
        found: (usize, usize),
    },
    /// A request named a user row outside the model.
    UnknownUser {
        /// The requested user index.
        user: usize,
        /// Number of users the model was fitted on.
        n_users: usize,
    },
    /// A request named an item outside the catalog.
    UnknownItem {
        /// The requested item index.
        item: usize,
        /// Number of items the model was fitted on.
        n_items: usize,
    },
    /// A request referenced an external id absent from the dataset's id
    /// maps (serving with external ids requires the id to have been seen
    /// at ingestion time).
    UnknownExternalId {
        /// The external id as it appeared in the request.
        external: u64,
        /// Which axis was addressed: `"user"` or `"item"`.
        entity: &'static str,
    },
    /// A cold-start basket was unusable (out-of-range or duplicate items).
    BadBasket(String),
    /// The model kind does not implement the requested capability (e.g.
    /// cold-start fold-in on a model without a [`crate::FoldIn`] impl).
    Unsupported {
        /// The model's [`crate::ScoreItems::name`].
        kind: &'static str,
        /// What was asked of it.
        capability: &'static str,
    },
    /// A snapshot carried a kind tag no loader is registered for.
    UnknownModelKind(String),
    /// A snapshot or model payload failed validation (truncated, tampered,
    /// or shape-inconsistent).
    Corrupt(String),
    /// An underlying I/O operation failed (message pre-rendered).
    Io(String),
}

impl fmt::Display for OcularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcularError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OcularError::ShapeMismatch { expected, found } => write!(
                f,
                "shape mismatch: expected {}×{}, found {}×{}",
                expected.0, expected.1, found.0, found.1
            ),
            OcularError::UnknownUser { user, n_users } => {
                write!(f, "unknown user {user} (model has {n_users} users)")
            }
            OcularError::UnknownItem { item, n_items } => {
                write!(f, "unknown item {item} (model has {n_items} items)")
            }
            OcularError::UnknownExternalId { external, entity } => {
                write!(f, "unknown external {entity} id {external}")
            }
            OcularError::BadBasket(msg) => write!(f, "bad basket: {msg}"),
            OcularError::Unsupported { kind, capability } => {
                write!(f, "model kind `{kind}` does not support {capability}")
            }
            OcularError::UnknownModelKind(kind) => write!(f, "unknown model kind `{kind}`"),
            OcularError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            OcularError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for OcularError {}

impl From<std::io::Error> for OcularError {
    fn from(e: std::io::Error) -> Self {
        // InvalidData is how a byte region reports bytes that are not what
        // they claimed to be; everything else is a genuine I/O problem
        if e.kind() == std::io::ErrorKind::InvalidData {
            OcularError::Corrupt(e.to_string())
        } else {
            OcularError::Io(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = OcularError::UnknownUser {
            user: 9,
            n_users: 4,
        };
        assert!(e.to_string().contains("unknown user 9"));
        let e = OcularError::InvalidConfig("b must lie in (0, 1)".into());
        assert!(e.to_string().contains("b must lie in (0, 1)"));
        let e = OcularError::Unsupported {
            kind: "BPR",
            capability: "cold-start fold-in",
        };
        assert!(e.to_string().contains("BPR"));
        assert!(e.to_string().contains("cold-start"));
    }

    #[test]
    fn io_errors_split_by_kind() {
        let bad = std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated");
        assert!(matches!(OcularError::from(bad), OcularError::Corrupt(_)));
        let gone = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        assert!(matches!(OcularError::from(gone), OcularError::Io(_)));
    }

    #[test]
    fn clone_and_eq_work_for_request_results() {
        let a = OcularError::BadBasket("duplicate items".into());
        assert_eq!(a.clone(), a);
        assert_ne!(a, OcularError::Io("disk".into()));
    }
}
