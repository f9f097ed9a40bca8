//! Error type for the serving layer.

use std::error::Error;
use std::fmt;

use ncl_snn::SnnError;

/// Error returned by serving operations.
#[derive(Debug)]
pub enum ServeError {
    /// A request line was malformed (bad JSON, unknown op, out-of-range
    /// spike indices, ...). The connection stays open; the detail is
    /// echoed back to the client.
    InvalidRequest {
        /// Human-readable detail.
        detail: String,
    },
    /// The underlying network rejected the work (shape mismatch, bad
    /// checkpoint bytes, ...).
    Snn(SnnError),
    /// A swap would change the serving contract (input/output width), so
    /// in-flight and future requests built against the old shape would
    /// break mid-connection.
    IncompatibleModel {
        /// Human-readable detail naming both shapes.
        detail: String,
    },
    /// Socket/file I/O failure.
    Io(std::io::Error),
    /// The service is draining; no new work is accepted.
    ShuttingDown,
    /// A replication operation (delta/checkpoint fetch or apply) failed,
    /// or this replica does not participate in replication.
    Replication {
        /// Human-readable detail.
        detail: String,
    },
    /// A delta fetch found no retained delta from `base_version`. The
    /// refusal names the learner's `published` version so the caller can
    /// tell whether a full checkpoint could advance it at all.
    NoRetainedDelta {
        /// The version the requested delta would start from.
        base_version: u64,
        /// The latest version the learner has published.
        published: u64,
    },
    /// A swap/apply proposed a version at or behind the one already
    /// serving — wire-visible versions are monotonic, so the stale
    /// update is refused instead of silently regressing.
    StaleVersion {
        /// The version currently serving.
        current: u64,
        /// The version the rejected update proposed.
        proposed: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ServeError::Snn(e) => write!(f, "model failure: {e}"),
            ServeError::IncompatibleModel { detail } => {
                write!(f, "incompatible model: {detail}")
            }
            ServeError::Io(e) => write!(f, "i/o failure: {e}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Replication { detail } => write!(f, "replication failure: {detail}"),
            ServeError::NoRetainedDelta {
                base_version,
                published,
            } => write!(
                f,
                "replication failure: no retained delta from v{base_version} (published v{published})"
            ),
            ServeError::StaleVersion { current, proposed } => write!(
                f,
                "stale version: serving v{current}, refused proposed v{proposed}"
            ),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Snn(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnnError> for ServeError {
    fn from(e: SnnError) -> Self {
        ServeError::Snn(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_detail() {
        let e = ServeError::InvalidRequest {
            detail: "bad op".into(),
        };
        assert!(e.to_string().contains("bad op"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
        let io = ServeError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        let e = ServeError::StaleVersion {
            current: 5,
            proposed: 3,
        };
        assert!(e.to_string().contains("serving v5"));
        assert!(e.to_string().contains("v3"));
        let e = ServeError::Replication {
            detail: "no sync handler".into(),
        };
        assert!(e.to_string().contains("no sync handler"));
    }
}
