//! The structured error taxonomy of the public API.
//!
//! Every failure surfaced by `rbqa-api` is an [`ApiError`]: a stable,
//! machine-readable [`ApiErrorCode`] plus a human-readable detail string.
//! Clients (and the wire layer) dispatch on the code; the detail text may
//! change between versions, the codes may not. Errors from lower layers
//! ([`rbqa_service::ServiceError`], [`rbqa_logic::parser::ParseError`])
//! convert losslessly into this taxonomy.

use rbqa_logic::parser::ParseError;
use rbqa_service::ServiceError;

/// Stable machine-readable error codes of the v1 API.
///
/// The wire form of a code is its SCREAMING_SNAKE_CASE name
/// ([`ApiErrorCode::as_str`]); codes are append-only across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiErrorCode {
    /// The request referenced a catalog that is not registered.
    UnknownCatalog,
    /// A catalog with this name is already registered.
    DuplicateCatalog,
    /// `Execute` was requested but the catalog has no dataset attached.
    NoDataset,
    /// `Execute` was requested but no executable plan set exists.
    NoPlan,
    /// Plan execution failed inside the simulator.
    ExecutionFailed,
    /// The request's union has no disjuncts.
    EmptyUnion,
    /// The request's disjuncts disagree on answer arity.
    UnionArityMismatch,
    /// Plan execution exceeded the request's `call_budget` option and
    /// failed fast.
    BudgetExhausted,
    /// The execution backend was unavailable.
    BackendUnavailable,
    /// The query DSL (or a wire line) failed to parse.
    ParseError,
    /// A query atom references a relation the catalog does not declare.
    UnknownRelation,
    /// A query atom's argument count disagrees with the relation's arity.
    ArityMismatch,
    /// A free (answer) variable does not occur in any body atom.
    UnboundFreeVariable,
    /// A query constant was not interned by the request's value factory.
    UnknownConstant,
    /// A malformed wire-protocol line or directive.
    ProtocolError,
    /// The wire stream announced an unsupported protocol version (or none).
    UnsupportedVersion,
    /// The request ran past its deadline (`net.timeout` and/or
    /// `exec.deadline`). The deadline is cooperative and propagated: the
    /// chase aborts between rounds, plan execution between accesses, and
    /// cache waiters give up — an aborted computation caches *nothing*
    /// (the in-flight slot is vacated, never poisoned). This is the only
    /// source of the code: a request that completes is answered, and a
    /// resident cache hit is served even at an expired deadline.
    RequestTimeout,
    /// `poll`/`fetch` referenced a `query_id` no batch enqueue on this
    /// server produced (or one whose result was already evicted).
    UnknownQueryId,
    /// The server refused the connection or request under admission
    /// control (accept queue full).
    ServerBusy,
    /// Any other invalid request input.
    InvalidRequest,
}

impl ApiErrorCode {
    /// The stable wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ApiErrorCode::UnknownCatalog => "UNKNOWN_CATALOG",
            ApiErrorCode::DuplicateCatalog => "DUPLICATE_CATALOG",
            ApiErrorCode::NoDataset => "NO_DATASET",
            ApiErrorCode::NoPlan => "NO_PLAN",
            ApiErrorCode::ExecutionFailed => "EXECUTION_FAILED",
            ApiErrorCode::EmptyUnion => "EMPTY_UNION",
            ApiErrorCode::UnionArityMismatch => "UNION_ARITY_MISMATCH",
            ApiErrorCode::BudgetExhausted => "BUDGET_EXHAUSTED",
            ApiErrorCode::BackendUnavailable => "BACKEND_UNAVAILABLE",
            ApiErrorCode::ParseError => "PARSE_ERROR",
            ApiErrorCode::UnknownRelation => "UNKNOWN_RELATION",
            ApiErrorCode::ArityMismatch => "ARITY_MISMATCH",
            ApiErrorCode::UnboundFreeVariable => "UNBOUND_FREE_VARIABLE",
            ApiErrorCode::UnknownConstant => "UNKNOWN_CONSTANT",
            ApiErrorCode::ProtocolError => "PROTOCOL_ERROR",
            ApiErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ApiErrorCode::RequestTimeout => "REQUEST_TIMEOUT",
            ApiErrorCode::UnknownQueryId => "UNKNOWN_QUERY_ID",
            ApiErrorCode::ServerBusy => "SERVER_BUSY",
            ApiErrorCode::InvalidRequest => "INVALID_REQUEST",
        }
    }
}

impl std::fmt::Display for ApiErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured API error: stable code + human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The machine-readable code clients dispatch on.
    pub code: ApiErrorCode,
    /// Human-readable context; not part of the stable contract.
    pub detail: String,
}

impl ApiError {
    /// Builds an error from its parts.
    pub fn new(code: ApiErrorCode, detail: impl Into<String>) -> Self {
        ApiError {
            code,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        let code = match &e {
            ServiceError::UnknownCatalog(_) => ApiErrorCode::UnknownCatalog,
            ServiceError::DuplicateCatalog(_) => ApiErrorCode::DuplicateCatalog,
            ServiceError::NoDataset(_) => ApiErrorCode::NoDataset,
            ServiceError::NoPlan => ApiErrorCode::NoPlan,
            ServiceError::Execution(_) => ApiErrorCode::ExecutionFailed,
            ServiceError::EmptyUnion => ApiErrorCode::EmptyUnion,
            ServiceError::UnionArityMismatch => ApiErrorCode::UnionArityMismatch,
            ServiceError::BudgetExhausted { .. } => ApiErrorCode::BudgetExhausted,
            ServiceError::Unavailable { .. } => ApiErrorCode::BackendUnavailable,
            ServiceError::DeadlineExceeded => ApiErrorCode::RequestTimeout,
            ServiceError::Invalid(_) => ApiErrorCode::InvalidRequest,
        };
        ApiError::new(code, e.to_string())
    }
}

impl From<ParseError> for ApiError {
    fn from(e: ParseError) -> Self {
        let code = match &e {
            ParseError::Syntax(_) => ApiErrorCode::ParseError,
            // Signature-level parse failures are arity conflicts with an
            // existing declaration — except `parse_fd`'s unknown-relation
            // case, which the wire layer re-codes to UNKNOWN_RELATION.
            ParseError::Signature(_) => ApiErrorCode::ArityMismatch,
            ParseError::ConstantInConstraint(_) => ApiErrorCode::ParseError,
        };
        ApiError::new(code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably_and_match_service_errors() {
        let e: ApiError = ServiceError::NoPlan.into();
        assert_eq!(e.code, ApiErrorCode::NoPlan);
        assert_eq!(e.code.as_str(), "NO_PLAN");
        // ApiError's code matches the underlying ServiceError's code.
        assert_eq!(e.code.as_str(), ServiceError::NoPlan.code());
        let e: ApiError = ServiceError::EmptyUnion.into();
        assert_eq!(e.code.as_str(), ServiceError::EmptyUnion.code());
        assert!(e.to_string().starts_with("EMPTY_UNION: "));
        // Backend errors keep their structured codes through the mapping.
        let budget = ServiceError::BudgetExhausted {
            budget: 5,
            calls: 6,
        };
        let e: ApiError = budget.clone().into();
        assert_eq!(e.code, ApiErrorCode::BudgetExhausted);
        assert_eq!(e.code.as_str(), budget.code());
        let unavailable = ServiceError::Unavailable {
            retryable: true,
            detail: "flaky".into(),
        };
        let e: ApiError = unavailable.clone().into();
        assert_eq!(e.code, ApiErrorCode::BackendUnavailable);
        assert_eq!(e.code.as_str(), unavailable.code());
        // A mid-flight deadline abort, armed by `exec.deadline` or
        // `net.timeout`, is the wire's `REQUEST_TIMEOUT`.
        let e: ApiError = ServiceError::DeadlineExceeded.into();
        assert_eq!(e.code, ApiErrorCode::RequestTimeout);
        assert_eq!(e.code.as_str(), ServiceError::DeadlineExceeded.code());
    }

    #[test]
    fn parse_errors_split_into_syntax_and_arity() {
        let e: ApiError = ParseError::Syntax("bad".into()).into();
        assert_eq!(e.code, ApiErrorCode::ParseError);
        let e: ApiError = ParseError::Signature("arity".into()).into();
        assert_eq!(e.code, ApiErrorCode::ArityMismatch);
    }

    #[test]
    fn api_error_is_a_std_error() {
        let boxed: Box<dyn std::error::Error> =
            Box::new(ApiError::new(ApiErrorCode::ProtocolError, "x"));
        assert!(boxed.to_string().contains("PROTOCOL_ERROR"));
    }
}
