//! Storage-layer errors.
//!
//! Every error carries enough context to name the failing device or file,
//! and classifies as *transient* (worth a bounded retry) or *permanent*
//! (retrying cannot help) — the distinction the query path's retry and
//! degradation policies are built on.

use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the storage engine. Cloning is cheap, so the
/// mediator can hand one node's error to every query of a shared scan.
#[derive(Debug, Clone)]
pub enum StorageError {
    /// Underlying file-system failure. `file` names the partition file
    /// when known (empty when the error arose outside any file context).
    Io {
        file: String,
        source: Arc<std::io::Error>,
    },
    /// A block or footer failed validation.
    Corrupt { file: String, detail: String },
    /// Bulk-load input violated the sorted-unique-key contract.
    KeyOrder { detail: String },
    /// A record payload did not match the table's component count.
    SchemaMismatch { expected_ncomp: u8, got_ncomp: u8 },
    /// Data that should have been ingested was not found.
    MissingData { detail: String },
    /// A fault injected by a [`crate::faults::FaultPlan`].
    Injected {
        site: String,
        detail: String,
        transient: bool,
    },
    /// A whole database node is out of service.
    NodeUnavailable { node: usize, detail: String },
    /// A broken internal invariant (a bug, not an environmental failure):
    /// surfaced as a typed error so one bad query fails cleanly over the
    /// wire instead of panicking its handler thread.
    Internal { detail: String },
}

impl StorageError {
    /// Whether a bounded retry may succeed: injected transient faults and
    /// the retryable I/O error kinds (interrupted / timed-out reads).
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { source, .. } => matches!(
                source.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            StorageError::Injected { transient, .. } => *transient,
            _ => false,
        }
    }

    /// Whether the error means a whole node is out of service (the
    /// mediator degrades instead of failing the query).
    pub fn is_unavailable(&self) -> bool {
        matches!(self, StorageError::NodeUnavailable { .. })
    }

    /// Attaches a file name to an I/O error that lacks one, so retry
    /// decisions and error messages name the failing partition.
    #[must_use]
    pub fn in_file(self, file: &str) -> Self {
        match self {
            StorageError::Io { file: f, source } if f.is_empty() => StorageError::Io {
                file: file.to_string(),
                source,
            },
            other => other,
        }
    }

    /// A broken-invariant error (the typed replacement for `panic!` /
    /// `.expect()` on the query path).
    pub fn internal(detail: impl Into<String>) -> Self {
        StorageError::Internal {
            detail: detail.into(),
        }
    }
}

/// Attaches file context to `io::Error` results at the propagation site:
/// `file.read_exact_at(..).at_file(&self.path)?`. The `error-context`
/// lint requires one of these (or an explicit `map_err`) on every
/// `io::Error` that crosses `?` in tdb-storage.
pub trait IoResultExt<T> {
    /// Converts the `io::Error` into [`StorageError::Io`] carrying `file`.
    fn at_file(self, file: impl AsRef<str>) -> StorageResult<T>;
}

impl<T> IoResultExt<T> for Result<T, std::io::Error> {
    fn at_file(self, file: impl AsRef<str>) -> StorageResult<T> {
        self.map_err(|source| StorageError::Io {
            file: file.as_ref().to_string(),
            source: Arc::new(source),
        })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { file, source } if file.is_empty() => {
                write!(f, "I/O error: {source}")
            }
            StorageError::Io { file, source } => write!(f, "I/O error in {file}: {source}"),
            StorageError::Corrupt { file, detail } => {
                write!(f, "corrupt partition file {file}: {detail}")
            }
            StorageError::KeyOrder { detail } => {
                write!(f, "bulk-load key order violation: {detail}")
            }
            StorageError::SchemaMismatch {
                expected_ncomp,
                got_ncomp,
            } => write!(
                f,
                "schema mismatch: table stores {expected_ncomp} components, record has {got_ncomp}"
            ),
            StorageError::MissingData { detail } => write!(f, "missing data: {detail}"),
            StorageError::Injected {
                site,
                detail,
                transient,
            } => write!(
                f,
                "injected {} fault at {site}: {detail}",
                if *transient { "transient" } else { "permanent" }
            ),
            StorageError::NodeUnavailable { node, detail } => {
                write!(f, "node {node} unavailable: {detail}")
            }
            StorageError::Internal { detail } => {
                write!(f, "internal invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io {
            file: String::new(),
            source: Arc::new(e),
        }
    }
}

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::Corrupt {
            file: "part_3.tdb".into(),
            detail: "bad crc".into(),
        };
        let s = e.to_string();
        assert!(s.contains("part_3.tdb") && s.contains("bad crc"));
        let e = StorageError::SchemaMismatch {
            expected_ncomp: 3,
            got_ncomp: 1,
        };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn in_file_attaches_context_once() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = StorageError::from(io).in_file("node0/velocity_part_1.tdb");
        assert!(e.to_string().contains("velocity_part_1.tdb"));
        // a second context never overwrites the first
        let e = e.in_file("other.tdb");
        assert!(e.to_string().contains("velocity_part_1.tdb"));
    }

    #[test]
    fn transient_classification() {
        let t = StorageError::from(std::io::Error::new(std::io::ErrorKind::Interrupted, "x"));
        assert!(t.is_transient());
        let p = StorageError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert!(!p.is_transient());
        assert!(StorageError::Injected {
            site: "block_read".into(),
            detail: "x".into(),
            transient: true
        }
        .is_transient());
        assert!(!StorageError::Corrupt {
            file: "f".into(),
            detail: "d".into()
        }
        .is_transient());
    }

    #[test]
    fn at_file_and_internal() {
        let r: Result<(), std::io::Error> =
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        let e = r.at_file("node1/p_2.tdb").unwrap_err();
        assert!(e.to_string().contains("node1/p_2.tdb"));
        let e = StorageError::internal("slots drained twice");
        assert!(e.to_string().contains("slots drained twice"));
        assert!(!e.is_transient() && !e.is_unavailable());
    }

    #[test]
    fn unavailable_classification() {
        let e = StorageError::NodeUnavailable {
            node: 3,
            detail: "killed".into(),
        };
        assert!(e.is_unavailable() && !e.is_transient());
        assert!(e.to_string().contains("node 3"));
    }
}
