//! The serving tier's error contract.

use pathix_core::QueryError;
use std::fmt;
use std::time::Duration;

/// Everything a serving-tier request can come back with besides an answer.
///
/// The variants encode the tier's robustness contract: [`Overloaded`] and
/// [`ReadOnly`] are *shedding* responses carrying a retry hint — the request
/// was never executed and retrying later is safe. [`DeadlineExceeded`] and
/// [`Cancelled`] interrupt an execution cooperatively; the snapshot the query
/// was streaming from is untouched. [`Query`] wraps the database's own
/// errors.
///
/// [`Overloaded`]: ServeError::Overloaded
/// [`ReadOnly`]: ServeError::ReadOnly
/// [`DeadlineExceeded`]: ServeError::DeadlineExceeded
/// [`Cancelled`]: ServeError::Cancelled
/// [`Query`]: ServeError::Query
///
/// A shed and an interruption, end to end:
///
/// ```
/// use pathix_core::{GraphBuilder, PathDb, PathDbConfig, QueryOptions};
/// use pathix_serve::{retry_with_backoff, RetryPolicy, ServeConfig, ServeError, Server};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// // Dense enough that `(e|e-){4,6}` would run for minutes.
/// let mut b = GraphBuilder::new();
/// for i in 0..150u32 {
///     for j in 1..=8u32 {
///         b.add_edge_named(&format!("v{i}"), "e", &format!("v{}", (i * j + j * j) % 150));
///     }
/// }
/// let db = Arc::new(PathDb::build(b.build(), PathDbConfig::with_k(2)));
/// let config = ServeConfig { workers: 1, max_in_flight: 1, ..ServeConfig::default() };
/// let server = Server::new(db, config);
///
/// let running = server.submit_query("(e|e-){4,6}", QueryOptions::new()).unwrap();
/// // One request in flight is this tier's limit: the next is shed, never queued.
/// let shed = server.query("e", QueryOptions::new().limit(1)).unwrap_err();
/// assert!(matches!(shed, ServeError::Overloaded { queue_depth: 1, .. }), "{shed}");
/// assert!(shed.is_transient());
///
/// // The submitter gives up; the worker stops at its next batch boundary.
/// running.cancel();
/// assert_eq!(running.wait().unwrap_err(), ServeError::Cancelled);
/// assert!(!ServeError::Cancelled.is_transient());
///
/// // A shed is safe to retry: the slot frees up and the lookup goes through.
/// let policy = RetryPolicy {
///     attempts: 100,
///     initial_backoff: Duration::from_millis(1),
///     max_backoff: Duration::from_millis(20),
/// };
/// let reply = retry_with_backoff(&policy, || server.query("e", QueryOptions::new().limit(1)));
/// assert_eq!(reply.unwrap().result.len(), 1);
/// assert!(server.health().counters.shed_overload >= 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the submission queue or the
    /// in-flight limit is full. The request was not queued; retry after the
    /// suggested backoff.
    Overloaded {
        /// Queued + executing requests at the moment of rejection.
        queue_depth: usize,
        /// Suggested client backoff before resubmitting.
        retry_after: Duration,
    },
    /// The request's deadline passed before its answer was complete (either
    /// while queued or mid-stream).
    DeadlineExceeded,
    /// The request's cancellation token was tripped by its submitter.
    Cancelled,
    /// The tier is serving reads off the last published snapshot but the
    /// write path is down (writer poisoned or sticky flush failure). Writes
    /// are rejected until the database is reopened from durable state.
    ReadOnly {
        /// Suggested client backoff before resubmitting the write.
        retry_after: Duration,
    },
    /// The server is shutting down; the request was not (fully) processed.
    ShuttingDown,
    /// The worker processing the request disappeared without replying. This
    /// indicates a bug (worker panic); the request may or may not have taken
    /// effect.
    WorkerLost,
    /// The database reported an error executing the request.
    Query(QueryError),
}

impl ServeError {
    /// `true` for shedding responses that were never executed and are safe
    /// (and useful) to retry after a short backoff. Dead-machine failures —
    /// injected-fault or real I/O errors latched by the writer — are *not*
    /// transient: the writer stays down until the database is reopened, so
    /// retrying only burns cycles and masks the fault.
    pub fn is_transient(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                retry_after,
            } => write!(
                f,
                "overloaded: {queue_depth} request(s) queued or executing; \
                 retry after {retry_after:?}"
            ),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline passed before the answer was complete")
            }
            ServeError::Cancelled => write!(f, "request cancelled by its submitter"),
            ServeError::ReadOnly { retry_after } => write!(
                f,
                "serving read-only off the last snapshot; writes rejected — \
                 retry after {retry_after:?} or reopen the database"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "worker disappeared without replying"),
            ServeError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Cancelled => ServeError::Cancelled,
            QueryError::DeadlineExceeded => ServeError::DeadlineExceeded,
            other => ServeError::Query(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_variants_lift_out_of_query_errors() {
        assert_eq!(
            ServeError::from(QueryError::Cancelled),
            ServeError::Cancelled
        );
        assert_eq!(
            ServeError::from(QueryError::DeadlineExceeded),
            ServeError::DeadlineExceeded
        );
        assert_eq!(
            ServeError::from(QueryError::WriterPoisoned),
            ServeError::Query(QueryError::WriterPoisoned)
        );
    }

    #[test]
    fn only_shedding_is_transient() {
        assert!(ServeError::Overloaded {
            queue_depth: 3,
            retry_after: Duration::from_millis(1),
        }
        .is_transient());
        for e in [
            ServeError::DeadlineExceeded,
            ServeError::Cancelled,
            ServeError::ReadOnly {
                retry_after: Duration::from_millis(1),
            },
            ServeError::ShuttingDown,
            ServeError::WorkerLost,
            ServeError::Query(QueryError::WriterPoisoned),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn display_is_informative() {
        let e = ServeError::Overloaded {
            queue_depth: 7,
            retry_after: Duration::from_millis(10),
        };
        assert!(e.to_string().contains('7'));
        assert!(ServeError::ReadOnly {
            retry_after: Duration::from_millis(10)
        }
        .to_string()
        .contains("read-only"));
        let q = ServeError::Query(QueryError::WriterPoisoned);
        assert!(std::error::Error::source(&q).is_some());
        assert!(std::error::Error::source(&ServeError::WorkerLost).is_none());
    }
}
