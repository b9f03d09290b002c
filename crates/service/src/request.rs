//! The request/response vocabulary of the service.
//!
//! Requests carry a **union of conjunctive queries** (the paper states its
//! results for UCQs throughout); a plain CQ is the one-disjunct special
//! case and the [`AnswerRequest::decide`]/[`AnswerRequest::synthesize`]/
//! [`AnswerRequest::execute`] constructors wrap it for you. Prefer building
//! requests through `rbqa_api::RequestBuilder`, which validates the query
//! against the catalog before a request ever reaches the service.

use std::sync::Arc;

use rbqa_access::Plan;
use rbqa_common::{Value, ValueFactory};
use rbqa_core::{AnswerabilityOptions, DecisionSummary};
use rbqa_engine::{ExecOptions, PlanMetrics};
use rbqa_logic::{ConjunctiveQuery, UnionOfConjunctiveQueries};

use crate::catalog::CatalogId;
use crate::fingerprint::Fingerprint;

/// What the client wants done with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMode {
    /// Decide monotone answerability only.
    Decide,
    /// Decide and synthesise crawling plans when answerable.
    Synthesize,
    /// Decide, synthesise, and execute the plans against the catalog's
    /// registered dataset through the simulated services.
    Execute,
}

impl RequestMode {
    /// The wire name of the mode (also the request verb of the v1
    /// protocol).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestMode::Decide => "decide",
            RequestMode::Synthesize => "synthesize",
            RequestMode::Execute => "execute",
        }
    }
}

/// One query-answering request against a registered catalog.
///
/// Build queries with a [`ValueFactory`] derived from
/// [`crate::QueryService::catalog_values`] so that constants shared with
/// the catalog (instance data, constraint constants) keep their identity;
/// the *fingerprint* is factory-independent either way (constants are
/// resolved to strings), so α-equivalent requests from independent
/// factories still share a cache entry.
#[derive(Debug, Clone)]
pub struct AnswerRequest {
    /// The catalog to answer against.
    pub catalog: CatalogId,
    /// The query: a union of conjunctive queries (one disjunct for a plain
    /// CQ). All disjuncts must have the same number of free variables.
    pub query: UnionOfConjunctiveQueries,
    /// The factory that interned the query's constants.
    pub values: ValueFactory,
    /// What to do.
    pub mode: RequestMode,
    /// Decision options (budget etc.). `synthesize_plan` is forced on for
    /// [`RequestMode::Synthesize`] and [`RequestMode::Execute`].
    pub options: AnswerabilityOptions,
    /// Execution options for `Execute` requests: which
    /// [`rbqa_engine::BackendSpec`] runs the plans and an optional
    /// per-request call budget (spanning all disjunct plans). Part of the
    /// fingerprint of `Execute` requests, so executes with different
    /// backends/budgets never share a cache entry; `Decide`/`Synthesize`
    /// ignore it (see [`AnswerRequest::effective_exec`]).
    pub exec: ExecOptions,
    /// Whether to record a per-request [`rbqa_obs::Trace`] and return it
    /// in [`AnswerResponse::trace`]. Deliberately **not** part of the
    /// fingerprint: tracing observes a request, it never changes its
    /// answer, so a traced and an untraced spelling share a cache entry
    /// (a traced cache *hit* therefore yields a short trace covering
    /// only the lookup, not the original decision work).
    pub trace: bool,
    /// Cooperative deadline for the whole request: when set, the chase
    /// (per round), plan execution (per access) and cache waits abort
    /// with [`ServiceError::DeadlineExceeded`] once this much time has
    /// elapsed since `submit` began. Like `trace` it is deliberately
    /// **not** part of the fingerprint — a deadline changes how long we
    /// try, never what the answer is — so deadlined and undeadlined
    /// spellings share a cache entry, and an aborted computation caches
    /// nothing (the single-flight slot is vacated, not poisoned).
    pub deadline: Option<std::time::Duration>,
}

impl AnswerRequest {
    /// A `Decide` request for a single CQ with default options.
    pub fn decide(catalog: CatalogId, query: ConjunctiveQuery, values: ValueFactory) -> Self {
        Self::decide_union(catalog, UnionOfConjunctiveQueries::single(query), values)
    }

    /// A `Synthesize` request for a single CQ with default options.
    pub fn synthesize(catalog: CatalogId, query: ConjunctiveQuery, values: ValueFactory) -> Self {
        Self::synthesize_union(catalog, UnionOfConjunctiveQueries::single(query), values)
    }

    /// An `Execute` request for a single CQ with default options.
    pub fn execute(catalog: CatalogId, query: ConjunctiveQuery, values: ValueFactory) -> Self {
        Self::execute_union(catalog, UnionOfConjunctiveQueries::single(query), values)
    }

    /// A `Decide` request for a union with default options.
    pub fn decide_union(
        catalog: CatalogId,
        query: UnionOfConjunctiveQueries,
        values: ValueFactory,
    ) -> Self {
        AnswerRequest {
            catalog,
            query,
            values,
            mode: RequestMode::Decide,
            options: AnswerabilityOptions::default(),
            exec: ExecOptions::default(),
            trace: false,
            deadline: None,
        }
    }

    /// Returns the request with its execution options replaced.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Returns the request with per-request tracing switched on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Returns the request with a cooperative deadline (`None` clears it).
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// A `Synthesize` request for a union with default options.
    pub fn synthesize_union(
        catalog: CatalogId,
        query: UnionOfConjunctiveQueries,
        values: ValueFactory,
    ) -> Self {
        AnswerRequest {
            mode: RequestMode::Synthesize,
            ..Self::decide_union(catalog, query, values)
        }
    }

    /// An `Execute` request for a union with default options.
    pub fn execute_union(
        catalog: CatalogId,
        query: UnionOfConjunctiveQueries,
        values: ValueFactory,
    ) -> Self {
        AnswerRequest {
            mode: RequestMode::Execute,
            ..Self::decide_union(catalog, query, values)
        }
    }

    /// The options the decision actually runs with: `Synthesize` and
    /// `Execute` imply plan synthesis (this normalisation happens *before*
    /// fingerprinting, so a `Synthesize` and an `Execute` request for the
    /// same query share one cache entry).
    pub fn effective_options(&self) -> AnswerabilityOptions {
        let mut options = self.options;
        if matches!(self.mode, RequestMode::Synthesize | RequestMode::Execute) {
            options.synthesize_plan = true;
        }
        options
    }

    /// The execution options that actually matter for this request: only
    /// `Execute` runs plans, so for `Decide`/`Synthesize` the exec options
    /// normalise to the default. Like [`AnswerRequest::effective_options`]
    /// this happens *before* fingerprinting — a stream-scoped
    /// `option exec.*` directive (or a builder `.backend(..)` left on a
    /// non-Execute request) must not fragment the decision cache for
    /// requests whose outcome cannot depend on it.
    pub fn effective_exec(&self) -> ExecOptions {
        match self.mode {
            RequestMode::Execute => self.exec,
            RequestMode::Decide | RequestMode::Synthesize => ExecOptions::default(),
        }
    }

    /// Structural sanity of the request itself (before any catalog is
    /// consulted): the union must be non-empty, its disjuncts must agree
    /// on answer arity, and the exec options must be well-formed.
    pub fn validate_shape(&self) -> Result<(), ServiceError> {
        if self.query.is_empty() {
            return Err(ServiceError::EmptyUnion);
        }
        if self.query.uniform_free_arity().is_none() {
            return Err(ServiceError::UnionArityMismatch);
        }
        if let rbqa_engine::BackendSpec::Sharded { shards } = self.exec.backend {
            if shards == 0 || shards > rbqa_engine::MAX_SHARDS {
                return Err(ServiceError::Invalid(format!(
                    "shard count {shards} outside 1..={}",
                    rbqa_engine::MAX_SHARDS
                )));
            }
        }
        Ok(())
    }
}

/// The service's answer to one [`AnswerRequest`].
#[derive(Debug, Clone)]
pub struct AnswerResponse {
    /// The request fingerprint (cache key); equal fingerprints mean the
    /// requests were semantically identical.
    pub fingerprint: Fingerprint,
    /// Whether the decision came from the cache (hit or coalesced wait)
    /// rather than a fresh run of the decision procedure.
    pub cache_hit: bool,
    /// Flat summary of the decision.
    pub summary: DecisionSummary,
    /// The synthesised plans, one per disjunct, when plans were requested
    /// and *every* disjunct has one (executing all of them and unioning
    /// rows computes the union). Shared, not cloned: many responses point
    /// at one cached plan set.
    ///
    /// Ordering caveat: plans follow the disjunct order of the request
    /// that **populated the cache entry** — fingerprints are invariant
    /// under disjunct reordering and duplication, so on a cache hit the
    /// order (and, for duplicated disjuncts, the count) may differ from
    /// this request's own disjunct list. Treat `plans` as an unordered
    /// executable set for the union, not as positionally matched to your
    /// disjuncts.
    pub plans: Vec<Arc<Plan>>,
    /// `Execute` only: the union of the plans' output rows, always sorted
    /// and deduplicated (exactly
    /// [`rbqa_logic::UnionOfConjunctiveQueries::evaluate`] semantics), so
    /// α-equivalent requests observe identical rows no matter which
    /// spelling populated the cache.
    pub rows: Option<Vec<Vec<Value>>>,
    /// `Execute` only: aggregated plan metrics from the simulator (summed
    /// across disjunct plans).
    pub plan_metrics: Option<PlanMetrics>,
    /// Wall-clock time the service spent on this request, in microseconds.
    pub micros: u128,
    /// The request trace, when [`AnswerRequest::trace`] was set: spans,
    /// kernel counters, and exclusive per-phase timings covering this
    /// request's own work (cache hits trace only the lookup). `None`
    /// when tracing was off.
    pub trace: Option<rbqa_obs::Trace>,
    /// `Execute` with `exec.degraded` only: when some union disjuncts
    /// faulted but others succeeded, this lists the failed disjuncts and
    /// [`AnswerResponse::rows`] holds the union of the *surviving*
    /// disjuncts' rows. `None` means the response is complete (or
    /// degraded mode was off — then any disjunct failure fails the whole
    /// request). Partial rows are per-response only; nothing partial is
    /// ever cached (the decision cache stores decisions and plans, and a
    /// degraded run changes neither).
    pub partial: Option<Vec<DisjunctFailure>>,
}

/// One failed disjunct of a degraded (partial) union Execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctFailure {
    /// Index of the failed plan in [`AnswerResponse::plans`].
    pub plan_index: usize,
    /// The stable [`ServiceError::code`] of the failure.
    pub code: &'static str,
    /// Human-readable detail (not part of the stable contract).
    pub detail: String,
}

impl AnswerResponse {
    /// Whether the verdict certified answerability.
    pub fn is_answerable(&self) -> bool {
        matches!(
            self.summary.answerability,
            rbqa_core::Answerability::Answerable
        )
    }

    /// Whether the verdict was `Unknown` (budget exhausted, or no complete
    /// procedure for the class).
    pub fn is_unknown(&self) -> bool {
        matches!(
            self.summary.answerability,
            rbqa_core::Answerability::Unknown
        )
    }

    /// The single plan of a one-disjunct request, when present.
    pub fn plan(&self) -> Option<&Arc<Plan>> {
        match self.plans.as_slice() {
            [p] => Some(p),
            _ => None,
        }
    }
}

/// Errors surfaced by the service facade.
///
/// Every variant has a stable machine-readable code ([`ServiceError::code`])
/// that the wire layer (`rbqa-api`) ships in error responses; match on the
/// code, not the `Display` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request referenced an unregistered catalog.
    UnknownCatalog(CatalogId),
    /// A catalog with this name is already registered.
    DuplicateCatalog(String),
    /// `Execute` was requested but the catalog has no dataset attached.
    NoDataset(String),
    /// `Execute` was requested but no executable plan set is available
    /// (query not answerable, a disjunct only answerable via the union, or
    /// synthesis found no crawling plan).
    NoPlan,
    /// Plan execution failed inside the simulator.
    Execution(String),
    /// The request's union has no disjuncts.
    EmptyUnion,
    /// The request's disjuncts disagree on answer arity.
    UnionArityMismatch,
    /// Plan execution exceeded the request's `call_budget`: the
    /// over-quota run fails fast instead of returning (partial) rows.
    BudgetExhausted {
        /// The quota in force.
        budget: usize,
        /// The 1-based number of the call that violated it.
        calls: usize,
    },
    /// The execution backend (or the simulated service behind it) was
    /// unavailable.
    Unavailable {
        /// Whether retrying the request may succeed.
        retryable: bool,
        /// Human-readable context (not part of the stable contract).
        detail: String,
    },
    /// The request's cooperative deadline expired mid-flight (chase
    /// round, plan access, or cache wait); the work was abandoned and
    /// nothing was cached.
    DeadlineExceeded,
    /// Invalid registration input.
    Invalid(String),
}

impl ServiceError {
    /// The stable machine-readable code of this error.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownCatalog(_) => "UNKNOWN_CATALOG",
            ServiceError::DuplicateCatalog(_) => "DUPLICATE_CATALOG",
            ServiceError::NoDataset(_) => "NO_DATASET",
            ServiceError::NoPlan => "NO_PLAN",
            ServiceError::Execution(_) => "EXECUTION_FAILED",
            ServiceError::EmptyUnion => "EMPTY_UNION",
            ServiceError::UnionArityMismatch => "UNION_ARITY_MISMATCH",
            ServiceError::BudgetExhausted { .. } => "BUDGET_EXHAUSTED",
            ServiceError::Unavailable { .. } => "BACKEND_UNAVAILABLE",
            ServiceError::DeadlineExceeded => "REQUEST_TIMEOUT",
            ServiceError::Invalid(_) => "INVALID_REQUEST",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownCatalog(id) => write!(f, "unknown catalog id {}", id.index()),
            ServiceError::DuplicateCatalog(name) => {
                write!(f, "catalog `{name}` is already registered")
            }
            ServiceError::NoDataset(name) => {
                write!(f, "catalog `{name}` has no dataset attached for Execute")
            }
            ServiceError::NoPlan => write!(f, "no executable plan set available"),
            ServiceError::Execution(e) => write!(f, "plan execution failed: {e}"),
            ServiceError::EmptyUnion => write!(f, "the request's union has no disjuncts"),
            ServiceError::UnionArityMismatch => {
                write!(f, "the request's disjuncts disagree on answer arity")
            }
            ServiceError::BudgetExhausted { budget, calls } => write!(
                f,
                "plan execution exhausted its call budget: call {calls} exceeds budget {budget}"
            ),
            ServiceError::Unavailable { retryable, detail } => write!(
                f,
                "execution backend unavailable ({}): {detail}",
                if *retryable { "retryable" } else { "permanent" }
            ),
            ServiceError::DeadlineExceeded => {
                write!(f, "request deadline expired before the work completed")
            }
            ServiceError::Invalid(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_logic::CqBuilder;

    fn unary_query(free: bool) -> ConjunctiveQuery {
        let mut b = CqBuilder::new();
        let x = b.var("x");
        if free {
            b.free(x);
        }
        b.atom(rbqa_common::RelationId::from_index(0), vec![x.into()])
            .build()
    }

    #[test]
    fn modes_normalise_options() {
        let q = unary_query(false);
        let vf = ValueFactory::new();
        let d = AnswerRequest::decide(CatalogId::from_index(0), q.clone(), vf.clone());
        assert!(!d.effective_options().synthesize_plan);
        assert_eq!(d.query.len(), 1);
        let s = AnswerRequest::synthesize(CatalogId::from_index(0), q.clone(), vf.clone());
        assert!(s.effective_options().synthesize_plan);
        let e = AnswerRequest::execute(CatalogId::from_index(0), q, vf);
        assert!(e.effective_options().synthesize_plan);
        assert_eq!(e.mode, RequestMode::Execute);
        assert_eq!(e.mode.as_str(), "execute");
    }

    #[test]
    fn shape_validation_rejects_degenerate_unions() {
        let vf = ValueFactory::new();
        let empty = AnswerRequest::decide_union(
            CatalogId::from_index(0),
            UnionOfConjunctiveQueries::new(),
            vf.clone(),
        );
        assert_eq!(
            empty.validate_shape(),
            Err(ServiceError::EmptyUnion),
            "empty unions are rejected before fingerprinting"
        );
        let mixed = AnswerRequest::decide_union(
            CatalogId::from_index(0),
            UnionOfConjunctiveQueries::from_disjuncts(vec![unary_query(true), unary_query(false)]),
            vf.clone(),
        );
        assert_eq!(
            mixed.validate_shape(),
            Err(ServiceError::UnionArityMismatch)
        );
        let ok = AnswerRequest::decide(CatalogId::from_index(0), unary_query(true), vf);
        assert!(ok.validate_shape().is_ok());
    }

    #[test]
    fn errors_render_with_stable_codes() {
        let e = ServiceError::DuplicateCatalog("uni".into());
        assert!(e.to_string().contains("uni"));
        assert_eq!(e.code(), "DUPLICATE_CATALOG");
        assert!(ServiceError::NoPlan.to_string().contains("plan"));
        assert_eq!(ServiceError::NoPlan.code(), "NO_PLAN");
        assert_eq!(ServiceError::EmptyUnion.code(), "EMPTY_UNION");
        // `ServiceError` is a real `std::error::Error`.
        let boxed: Box<dyn std::error::Error> = Box::new(ServiceError::NoPlan);
        assert!(boxed.source().is_none());
    }
}
