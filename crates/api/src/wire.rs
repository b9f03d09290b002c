//! The v1 wire protocol: line-oriented DSL requests in, JSON responses out.
//!
//! A wire stream is processed line by line ([`WireServer::handle_line`]).
//! The first non-comment line must be the version header `rbqa/1`; after
//! that, *directives* build catalogs and set options, and *request* lines
//! submit queries:
//!
//! ```text
//! rbqa/1
//! # directives accumulate a catalog until the first request uses it
//! catalog uni
//! relation Prof/3
//! relation Udirectory/3
//! constraint Prof(i, n, s) -> Udirectory(i, a, p)
//! method pr Prof in=1
//! method ud Udirectory in= bound=100
//! fact Prof('7', 'ada', '10000')
//!
//! # requests: VERB CATALOG QUERY [|| QUERY ...]
//! decide uni Q() :- Udirectory(i, a, p)
//! decide uni Q(n) :- Prof(i, n, '10000') || Q(a) :- Udirectory(i, a, p)
//! execute uni Q(n) :- Prof(i, n, '10000')
//! ```
//!
//! * `relation NAME/ARITY` declares a relation (declaration order is part
//!   of the catalog's identity).
//! * `constraint ...` parses a TGD (`body -> head`) or, when the line
//!   starts with `FD`, a functional dependency (`FD Rel: 1 -> 2`).
//! * `method NAME REL in=P1,P2 [bound=K]` declares an access method with
//!   1-based input positions (empty `in=` means input-free) and an
//!   optional result bound.
//! * `fact Rel('a', 'b', ...)` adds a ground fact to the catalog's
//!   dataset (enables `execute`).
//! * `option budget generous|small|tiny` sets the chase budget for
//!   subsequent requests.
//! * `option exec.backend instance|sharded:N|remote [seed=S] [latency=L]
//!   [faults=P] [transient]` selects the data-source backend `execute`
//!   requests run against (the remote surfaces every fault at once;
//!   `transient` makes its faults retryable, with fresh fault coins per
//!   retry; `latency` is at most
//!   `MAX_LATENCY_MICROS`), and `option exec.calls K|none`
//!   caps the number of accesses one request may perform across all its
//!   disjunct plans (the over-quota run fails with `BUDGET_EXHAUSTED`).
//!   Both are stream-scoped and part of the fingerprint of `execute`
//!   requests (other modes normalise them away).
//! * `option exec.retry RETRIES|off` wraps `execute` backends in a
//!   resilient decorator retrying retryable faults up to RETRIES extra
//!   attempts per access (deterministic seeded backoff, accounted in
//!   `simulated_latency_micros`; each retry spends `exec.calls` like a
//!   first attempt), and `option exec.breaker K:C|off` adds
//!   a per-method circuit breaker (open after K consecutive failures,
//!   half-open probe after C rejected calls). Fingerprinted only when
//!   set, like every `exec.*` option.
//! * `option exec.degraded on|off` makes union `execute` requests
//!   *degradable*: when some disjuncts fault and others succeed, the
//!   response carries the surviving rows with `"partial":true` and a
//!   `failed_disjuncts` block of per-disjunct error codes instead of
//!   failing outright. Off by default; never affects what is cached
//!   (only decisions and plans are cached, never rows).
//! * `option exec.adaptive on|off` runs `execute` requests adaptively:
//!   one `(method, binding)` memo serves every access of the request's
//!   disjunct plans, and a disjunct identical to an earlier successful
//!   one reuses its rows. The rows are those of `off` (the default); only
//!   the backend calls drop. Fingerprinted only when `on`.
//! * `option exec.deadline MICROS|off` arms an in-flight cooperative
//!   deadline on every subsequent request: the chase aborts between
//!   rounds, plan execution between accesses, and cache waits time out,
//!   answering `REQUEST_TIMEOUT` — an aborted computation caches
//!   nothing. A resident `decide`/`synthesize` hit needs none of that
//!   work and is served even at an expired deadline (an `execute` hit
//!   still runs its plans, access by access). Combines with `net.timeout`
//!   by taking the tighter bound. Not fingerprinted (a deadline changes
//!   how long we try, not the answer).
//! * `option obs.trace on|off` attaches a per-request `trace` block
//!   (spans, kernel counters, exclusive per-phase timings) to every
//!   subsequent response. Stream-scoped and **never** part of the
//!   fingerprint: tracing observes a request without changing its
//!   answer, so traced and untraced requests share cache entries.
//! * `option mode interactive|batch` selects how subsequent requests are
//!   served: `interactive` (the default) answers in-line; `batch`
//!   enqueues on the server's background materializer and immediately
//!   returns `{"query_id":N,"state":"queued"}`, to be tracked with the
//!   `poll N` / `fetch N` verbs (states `queued|running|done|error`).
//! * `option net.timeout SECS|none` arms the same in-flight deadline as
//!   `exec.deadline`, in whole seconds: over-limit work is abandoned
//!   mid-pipeline with `REQUEST_TIMEOUT` and caches nothing, and a
//!   resident `decide`/`synthesize` hit is served. A request that
//!   completes is answered, however long it took. A limit past the
//!   clock's range is no limit.
//! * `option cache.bytes BYTES|none` re-points the decision cache's byte
//!   budget. **Service-global**, not per-session: every connection shares
//!   the one cache, so the budget disciplines them all; shrinking evicts
//!   LRU-first immediately.
//! * `ping` always answers `{"v":1,"status":"ok","pong":true}` — the
//!   sync point interactive TCP clients use to flush directive errors,
//!   since successful directives produce no output.
//! * `stats` answers the service-wide counters as one JSON object:
//!   lookups/hits/misses/coalesced/warm_hits, the hit ratio, decisions
//!   computed, chase rounds saved, executions, and a `cache` block
//!   (budget, occupancy, entries, evictions, bytes evicted, uncacheable)
//!   — the load harness's window into cache discipline.
//!
//! Every request line yields exactly one JSON object on its own line —
//! `{"v":1,"status":"ok",...}` or `{"v":1,"status":"error","code":...}` —
//! so a stream of N requests produces N lines of output, in order. The
//! `rbqa-serve` binary replays a request file through this module, and
//! `rbqa-net` serves it per-connection over TCP (one `WireServer` session
//! per connection, with a private catalog namespace so independent
//! clients can replay identical streams against one shared service —
//! fingerprints are content-based, so their cache entries still
//! coalesce).
//!
//! Sessions configured with inline limits and an
//! [`rbqa_service::ExportStore`] split large `execute` results out of
//! band: when a row set exceeds `inline_row_limit`/`inline_byte_limit`
//! the response carries `row_count`/`output_location`/`output_bytes`
//! instead of `rows`, and the full row set is persisted at
//! `output_location`.

use std::sync::Arc;
use std::time::Duration;

use rbqa_access::{AccessMethod, Schema};
use rbqa_chase::Budget;
use rbqa_common::{Instance, Signature, Value, ValueFactory};
use rbqa_core::Answerability;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::parser::{parse_cq, parse_fd, parse_tgd};
use rbqa_logic::Term;
use rbqa_service::{
    AnswerResponse, BackendSpec, BatchRegistry, BatchState, ExecOptions, ExportStore, QueryService,
    RequestMode,
};

use crate::builder::ServiceApi;
use crate::error::{ApiError, ApiErrorCode};
use crate::json::{json_array, json_string, JsonObject};

/// The protocol version this module speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// The exact version header expected as the first non-comment line.
pub const VERSION_HEADER: &str = "rbqa/1";

/// Rendering controls for [`response_to_json_with`]: the inline/export
/// split plus optional batch identity fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderOptions<'a> {
    /// Row sets larger than this are exported instead of inlined.
    pub inline_row_limit: Option<usize>,
    /// Rendered row arrays larger than this many bytes are exported.
    pub inline_byte_limit: Option<usize>,
    /// Where over-limit results go. With no store configured the limits
    /// are ignored and everything inlines (replay compatibility).
    pub exports: Option<&'a ExportStore>,
    /// Filename tag for exports produced by this response (`res` for
    /// interactive responses, `qN` for batch fetches).
    pub export_tag: Option<&'a str>,
    /// `fetch` responses carry the job's `query_id` and a
    /// `"state":"done"` marker so clients can correlate them.
    pub query_id: Option<u64>,
}

/// Serialises a successful response as one JSON object. `values` is used
/// to render `Execute` rows (pass the catalog's factory). Inlines
/// everything — the wire-compatible historical behaviour; see
/// [`response_to_json_with`] for the inline/export split.
pub fn response_to_json(
    response: &AnswerResponse,
    mode: RequestMode,
    catalog: &str,
    values: &ValueFactory,
) -> String {
    response_to_json_with(response, mode, catalog, values, &RenderOptions::default())
        .expect("inline rendering is infallible")
}

/// Serialises a successful response under [`RenderOptions`]: row sets
/// over the inline limits are written to the export store and the
/// response carries `row_count`/`output_location`/`output_bytes` instead
/// of `rows`. Fails only when an export write fails.
pub fn response_to_json_with(
    response: &AnswerResponse,
    mode: RequestMode,
    catalog: &str,
    values: &ValueFactory,
    opts: &RenderOptions<'_>,
) -> Result<String, ApiError> {
    let answerable = match response.summary.answerability {
        Answerability::Answerable => "yes",
        Answerability::NotAnswerable => "no",
        Answerability::Unknown => "unknown",
    };
    let mut obj = JsonObject::new()
        .field_u128("v", PROTOCOL_VERSION as u128)
        .field_str("status", "ok")
        .field_str("mode", mode.as_str())
        .field_str("catalog", catalog);
    if let Some(id) = opts.query_id {
        obj = obj
            .field_u128("query_id", id as u128)
            .field_str("state", "done");
    }
    let mut obj = obj
        .field_str("fingerprint", &response.fingerprint.to_string())
        .field_bool("cache_hit", response.cache_hit)
        .field_str("answerable", answerable)
        .field_bool("complete", response.summary.complete)
        .field_str(
            "constraint_class",
            &format!("{:?}", response.summary.constraint_class),
        )
        .field_str(
            "simplification",
            &format!("{:?}", response.summary.simplification),
        )
        .field_str("strategy", &format!("{:?}", response.summary.strategy))
        .field_u128("chase_rounds", response.summary.chase_rounds as u128)
        .field_u128("plans", response.plans.len() as u128);
    if let Some(rows) = &response.rows {
        let rendered = rows.iter().map(|row| {
            json_array(
                row.iter()
                    .map(|v: &Value| json_string(&values.display(*v)))
                    .collect::<Vec<_>>(),
            )
        });
        let rendered = json_array(rendered.collect::<Vec<_>>());
        let over_rows = opts
            .inline_row_limit
            .is_some_and(|limit| rows.len() > limit);
        let over_bytes = opts
            .inline_byte_limit
            .is_some_and(|limit| rendered.len() > limit);
        match opts.exports {
            Some(store) if over_rows || over_bytes => {
                // The export document is self-describing: a reader needs
                // no response context to interpret the file.
                let doc = JsonObject::new()
                    .field_u128("v", PROTOCOL_VERSION as u128)
                    .field_str("kind", "export")
                    .field_str("catalog", catalog)
                    .field_str("fingerprint", &response.fingerprint.to_string())
                    .field_u128("row_count", rows.len() as u128)
                    .field_raw("rows", &rendered)
                    .finish();
                let handle = store
                    .write_export(opts.export_tag.unwrap_or("res"), &doc, rows.len())
                    .map_err(|e| {
                        ApiError::new(
                            ApiErrorCode::ExecutionFailed,
                            format!("result export failed: {e}"),
                        )
                    })?;
                obj = obj
                    .field_u128("row_count", rows.len() as u128)
                    .field_str("output_location", &handle.location)
                    .field_u128("output_bytes", handle.bytes as u128);
            }
            _ => obj = obj.field_raw("rows", &rendered),
        }
    }
    if let Some(pm) = &response.plan_metrics {
        // The historical top-level fields stay for compatibility; the
        // `metrics` block is the full access-accounting contract.
        let mut per_method: Vec<(&String, &usize)> = pm.calls_per_method.iter().collect();
        per_method.sort();
        let mut calls = JsonObject::new();
        for (method, count) in per_method {
            calls = calls.field_u128(method, *count as u128);
        }
        let metrics = JsonObject::new()
            .field_u128("total_calls", pm.total_calls as u128)
            .field_u128("tuples_fetched", pm.tuples_fetched as u128)
            .field_u128("tuples_matched", pm.tuples_matched as u128)
            .field_u128("truncated_accesses", pm.truncated_accesses as u128)
            // The cost-model/wall-clock split: `simulated_latency_micros`
            // is the backend cost model's charge for the accesses,
            // `wall_micros` is real elapsed time in the executor.
            // `latency_micros` remains as an alias of the simulated
            // figure for pre-split rbqa/1 consumers.
            .field_u128("simulated_latency_micros", pm.latency_micros as u128)
            .field_u128("wall_micros", pm.wall_micros as u128)
            .field_u128("latency_micros", pm.latency_micros as u128)
            .field_u128("retries", pm.retries as u128)
            .field_u128("breaker_rejections", pm.breaker_rejections as u128)
            // Adaptive execution (`option exec.adaptive`): accesses the
            // window memo answered without a backend call, and union
            // disjuncts short-circuited as identical to an earlier one.
            // Both 0 on the naive path; fields are append-only per the
            // §5.1 contract.
            .field_u128("accesses_skipped", pm.accesses_skipped as u128)
            .field_u128(
                "disjuncts_short_circuited",
                pm.disjuncts_short_circuited as u128,
            )
            // Deprecated, emitted for rbqa/1 compatibility only: always
            // `true` since quota violations became the structured
            // `BUDGET_EXHAUSTED` / `BACKEND_UNAVAILABLE` error responses
            // (an over-quota run fails fast instead of reporting a soft
            // flag). Match on those error codes, not on this field.
            .field_bool("within_rate_limit", pm.within_rate_limit)
            .field_raw("calls_per_method", &calls.finish())
            .finish();
        obj = obj
            .field_u128("total_calls", pm.total_calls as u128)
            .field_u128("tuples_fetched", pm.tuples_fetched as u128)
            .field_raw("metrics", &metrics);
    }
    if let Some(failures) = &response.partial {
        // Degraded union result (`option exec.degraded on`): the rows
        // above cover only the surviving disjuncts; each failed disjunct
        // is reported with its stable error code.
        let rendered = failures.iter().map(|f| {
            JsonObject::new()
                .field_u128("plan_index", f.plan_index as u128)
                .field_str("code", f.code)
                .field_str("detail", &f.detail)
                .finish()
        });
        obj = obj.field_bool("partial", true).field_raw(
            "failed_disjuncts",
            &json_array(rendered.collect::<Vec<_>>()),
        );
    }
    if let Some(trace) = &response.trace {
        obj = obj.field_raw("trace", &rbqa_obs::export::trace_to_json(trace));
    }
    Ok(obj.field_u128("micros", response.micros).finish())
}

/// Serialises an [`ApiError`] as one JSON object.
pub fn error_to_json(error: &ApiError) -> String {
    JsonObject::new()
        .field_u128("v", PROTOCOL_VERSION as u128)
        .field_str("status", "error")
        .field_str("code", error.code.as_str())
        .field_str("detail", &error.detail)
        .finish()
}

/// A catalog under construction from `catalog`/`relation`/`constraint`/
/// `method`/`fact` directives; registered lazily when first needed.
struct PendingCatalog {
    name: String,
    sig: Signature,
    values: ValueFactory,
    constraints: ConstraintSet,
    methods: Vec<AccessMethod>,
    facts: Vec<(rbqa_common::RelationId, Vec<Value>)>,
}

impl PendingCatalog {
    fn new(name: &str) -> Self {
        PendingCatalog {
            name: name.to_owned(),
            sig: Signature::new(),
            values: ValueFactory::new(),
            constraints: ConstraintSet::new(),
            methods: Vec::new(),
            facts: Vec::new(),
        }
    }
}

/// A stateful v1 protocol interpreter — one *session* — over a shared
/// [`QueryService`].
///
/// Feed it lines; directives mutate state and return `None` on success,
/// request lines (and any failure) return `Some(json)`.
///
/// Many sessions may share one service ([`WireServer::with_shared_service`]):
/// the network server runs one session per connection. A session with a
/// [namespace](WireServer::with_namespace) registers and resolves its
/// catalogs under `{namespace}::{name}` internally while echoing the
/// client's own names on the wire, so independent connections can replay
/// identical streams without `DUPLICATE_CATALOG` collisions — and because
/// request fingerprints hash catalog *content*, not names, their decision
/// cache entries still coalesce.
pub struct WireServer {
    service: Arc<QueryService>,
    pending: Option<PendingCatalog>,
    version_seen: bool,
    budget: Budget,
    exec: ExecOptions,
    trace: bool,
    namespace: Option<String>,
    inline_row_limit: Option<usize>,
    inline_byte_limit: Option<usize>,
    exports: Option<Arc<ExportStore>>,
    batch: Option<Arc<BatchRegistry>>,
    batch_mode: bool,
    net_timeout: Option<Duration>,
    exec_deadline: Option<Duration>,
}

impl Default for WireServer {
    fn default() -> Self {
        Self::new()
    }
}

impl WireServer {
    /// A server over a fresh [`QueryService`].
    pub fn new() -> Self {
        Self::with_service(QueryService::new())
    }

    /// A server over an existing service (catalogs registered through code
    /// remain addressable from the wire).
    pub fn with_service(service: QueryService) -> Self {
        Self::with_shared_service(Arc::new(service))
    }

    /// A session over a service shared with other sessions (the network
    /// server's per-connection constructor).
    pub fn with_shared_service(service: Arc<QueryService>) -> Self {
        WireServer {
            service,
            pending: None,
            version_seen: false,
            budget: Budget::generous(),
            exec: ExecOptions::default(),
            trace: false,
            namespace: None,
            inline_row_limit: None,
            inline_byte_limit: None,
            exports: None,
            batch: None,
            batch_mode: false,
            net_timeout: None,
            exec_deadline: None,
        }
    }

    /// The in-flight deadline for the next request: the tighter of
    /// `net.timeout` and `exec.deadline` (either alone when only one is
    /// set).
    fn effective_deadline(&self) -> Option<Duration> {
        match (self.net_timeout, self.exec_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Namespaces this session's catalogs: registered and resolved as
    /// `{namespace}::{name}` internally, echoed un-prefixed on the wire.
    pub fn with_namespace(mut self, namespace: impl Into<String>) -> Self {
        self.namespace = Some(namespace.into());
        self
    }

    /// Sets the inline-result limits; results over either limit spill to
    /// the export store (no-ops without one, see
    /// [`WireServer::with_exports`]).
    pub fn with_inline_limits(mut self, rows: Option<usize>, bytes: Option<usize>) -> Self {
        self.inline_row_limit = rows;
        self.inline_byte_limit = bytes;
        self
    }

    /// Attaches the export store over-limit results are written to.
    pub fn with_exports(mut self, exports: Arc<ExportStore>) -> Self {
        self.exports = Some(exports);
        self
    }

    /// Attaches a shared batch registry (the network server passes one
    /// registry to every session so `query_id`s are server-global).
    /// Sessions without one lazily spawn a private single-worker registry
    /// on the first batch request, so `option mode batch` also works in
    /// offline replay.
    pub fn with_batch(mut self, batch: Arc<BatchRegistry>) -> Self {
        self.batch = Some(batch);
        self
    }

    /// The underlying service (for inspecting metrics or cache state).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// A shareable handle to the underlying service.
    pub fn shared_service(&self) -> Arc<QueryService> {
        Arc::clone(&self.service)
    }

    /// This session's internal name for a wire catalog name.
    fn internal_name(&self, wire_name: &str) -> String {
        match &self.namespace {
            Some(ns) => format!("{ns}::{wire_name}"),
            None => wire_name.to_owned(),
        }
    }

    /// Strips this session's namespace prefix out of error details, so
    /// internal names never leak onto the wire.
    fn demangle(&self, mut error: ApiError) -> ApiError {
        if let Some(ns) = &self.namespace {
            error.detail = error.detail.replace(&format!("{ns}::"), "");
        }
        error
    }

    /// The batch registry, spawning the session-private fallback on first
    /// use (see [`WireServer::with_batch`]).
    fn batch_registry(&mut self) -> Arc<BatchRegistry> {
        if self.batch.is_none() {
            self.batch = Some(Arc::new(BatchRegistry::new(Arc::clone(&self.service), 1)));
        }
        Arc::clone(self.batch.as_ref().expect("just installed"))
    }

    /// Processes one line of the wire stream. Returns `None` for blank
    /// lines, comments and successful directives; `Some(json)` for request
    /// responses and for any error.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        if !self.version_seen {
            return if line == VERSION_HEADER {
                self.version_seen = true;
                None
            } else {
                Some(error_to_json(&ApiError::new(
                    ApiErrorCode::UnsupportedVersion,
                    format!("expected version header `{VERSION_HEADER}`, got `{line}`"),
                )))
            };
        }
        match self.dispatch(line) {
            Ok(output) => output,
            Err(e) => Some(error_to_json(&self.demangle(e))),
        }
    }

    /// Processes every line of a stream and collects the outputs.
    pub fn handle_stream(&mut self, input: &str) -> Vec<String> {
        input
            .lines()
            .filter_map(|line| self.handle_line(line))
            .collect()
    }

    fn dispatch(&mut self, line: &str) -> Result<Option<String>, ApiError> {
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb {
            "catalog" => {
                self.flush_pending()?;
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(ApiError::new(
                        ApiErrorCode::ProtocolError,
                        "usage: catalog NAME",
                    ));
                }
                self.pending = Some(PendingCatalog::new(rest));
                Ok(None)
            }
            "relation" => {
                let pending = self.pending_mut()?;
                let (name, arity) = rest.split_once('/').ok_or_else(|| {
                    ApiError::new(ApiErrorCode::ProtocolError, "usage: relation NAME/ARITY")
                })?;
                let arity: usize = arity.trim().parse().map_err(|_| {
                    ApiError::new(
                        ApiErrorCode::ProtocolError,
                        format!("bad arity `{}`", arity.trim()),
                    )
                })?;
                pending
                    .sig
                    .add_relation(name.trim(), arity)
                    .map_err(|e| ApiError::new(ApiErrorCode::ArityMismatch, e.to_string()))?;
                Ok(None)
            }
            "constraint" => {
                let pending = self.pending_mut()?;
                // Exact-token check: a TGD over a relation whose name merely
                // starts with "FD" (e.g. `FDept(x) -> ...`) is not an FD.
                if rest.split_whitespace().next() == Some("FD") {
                    // parse_fd reports an undeclared relation as a generic
                    // signature error; re-code it so FD lines agree with the
                    // TGD and fact paths on UNKNOWN_RELATION.
                    let fd = parse_fd(rest, &mut pending.sig).map_err(|e| {
                        let api: ApiError = e.into();
                        if api.detail.contains("unknown relation") {
                            ApiError::new(ApiErrorCode::UnknownRelation, api.detail)
                        } else {
                            api
                        }
                    })?;
                    pending.constraints.push_fd(fd);
                } else {
                    // Parse against a scratch signature so a typo'd relation
                    // (which parse_tgd would silently auto-declare) is
                    // rejected instead of becoming a phantom relation in the
                    // catalog.
                    let mut sig = pending.sig.clone();
                    let declared = sig.len();
                    let tgd = parse_tgd(rest, &mut sig, &mut pending.values)?;
                    if sig.len() > declared {
                        return Err(undeclared_relation_error(&sig, declared));
                    }
                    pending.constraints.push_tgd(tgd);
                }
                Ok(None)
            }
            "method" => {
                let pending = self.pending_mut()?;
                let method = parse_method(rest, &pending.sig)?;
                pending.methods.push(method);
                Ok(None)
            }
            "fact" => {
                let pending = self.pending_mut()?;
                // Reuse the CQ parser: a fact is a ground single-atom body.
                // Like `constraint`, parse against a scratch signature so a
                // typo'd relation name is an error, not a phantom relation
                // holding invisible facts.
                let mut sig = pending.sig.clone();
                let declared = sig.len();
                let q = parse_cq(&format!("Q() :- {rest}"), &mut sig, &mut pending.values)?;
                if sig.len() > declared {
                    return Err(undeclared_relation_error(&sig, declared));
                }
                let atom = match q.atoms() {
                    [atom] => atom,
                    _ => {
                        return Err(ApiError::new(
                            ApiErrorCode::ProtocolError,
                            "usage: fact Rel('c1', 'c2', ...)",
                        ))
                    }
                };
                let tuple: Vec<Value> = atom
                    .args()
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => Ok(*v),
                        Term::Var(_) => Err(ApiError::new(
                            ApiErrorCode::ProtocolError,
                            "facts must be ground (no variables)",
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                pending.facts.push((atom.relation(), tuple));
                Ok(None)
            }
            "option" => {
                match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
                    ["budget", level] => {
                        self.budget = match *level {
                            "generous" => Budget::generous(),
                            "small" => Budget::small(),
                            // Deliberately starved: drives the chase into
                            // budget exhaustion so `unknown` verdicts can be
                            // exercised over the wire.
                            "tiny" => Budget::small()
                                .with_max_facts(8)
                                .with_max_rounds(1)
                                .with_max_depth(1)
                                .with_max_nulls(4),
                            other => {
                                return Err(ApiError::new(
                                    ApiErrorCode::ProtocolError,
                                    format!("unknown budget level `{other}`"),
                                ))
                            }
                        };
                        Ok(None)
                    }
                    ["exec.backend", spec @ ..] => {
                        self.exec.backend = parse_backend_spec(spec)?;
                        Ok(None)
                    }
                    ["exec.calls", "none"] => {
                        self.exec.call_budget = None;
                        Ok(None)
                    }
                    ["exec.calls", k] => {
                        let k: usize = k.parse().map_err(|_| {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!("bad call budget `{k}` (usage: option exec.calls K|none)"),
                            )
                        })?;
                        self.exec.call_budget = Some(k);
                        Ok(None)
                    }
                    ["exec.retry", "off"] => {
                        self.exec.retry = None;
                        Ok(None)
                    }
                    ["exec.retry", retries] => {
                        let retries: usize = retries.parse().map_err(|_| {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!(
                                    "bad retry count `{retries}` \
                                     (usage: option exec.retry RETRIES|off)"
                                ),
                            )
                        })?;
                        self.exec.retry = Some(rbqa_service::RetryPolicy::with_retries(retries));
                        Ok(None)
                    }
                    ["exec.breaker", "off"] => {
                        self.exec.breaker = None;
                        Ok(None)
                    }
                    ["exec.breaker", policy] => {
                        let bad = || {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!(
                                    "bad breaker policy `{policy}` \
                                     (usage: option exec.breaker K:C|off — open after K \
                                     consecutive failures, half-open probe after C rejections)"
                                ),
                            )
                        };
                        let (k, c) = policy.split_once(':').ok_or_else(bad)?;
                        let failure_threshold: u32 = k.parse().map_err(|_| bad())?;
                        let cooldown_calls: u32 = c.parse().map_err(|_| bad())?;
                        if failure_threshold == 0 {
                            return Err(bad());
                        }
                        self.exec.breaker = Some(rbqa_service::BreakerPolicy {
                            failure_threshold,
                            cooldown_calls,
                        });
                        Ok(None)
                    }
                    ["exec.degraded", switch] => {
                        self.exec.degraded = match *switch {
                            "on" => true,
                            "off" => false,
                            other => {
                                return Err(ApiError::new(
                                    ApiErrorCode::ProtocolError,
                                    format!(
                                        "bad degraded switch `{other}` \
                                         (usage: option exec.degraded on|off)"
                                    ),
                                ))
                            }
                        };
                        Ok(None)
                    }
                    ["exec.adaptive", switch] => {
                        self.exec.adaptive = match *switch {
                            "on" => rbqa_service::AdaptiveMode::On,
                            "off" => rbqa_service::AdaptiveMode::Off,
                            other => {
                                return Err(ApiError::new(
                                    ApiErrorCode::ProtocolError,
                                    format!(
                                        "bad adaptive switch `{other}` \
                                         (usage: option exec.adaptive on|off)"
                                    ),
                                ))
                            }
                        };
                        Ok(None)
                    }
                    ["exec.deadline", "off"] => {
                        self.exec_deadline = None;
                        Ok(None)
                    }
                    ["exec.deadline", micros] => {
                        let micros: u64 = micros.parse().map_err(|_| {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!(
                                    "bad deadline `{micros}` \
                                     (usage: option exec.deadline MICROS|off)"
                                ),
                            )
                        })?;
                        self.exec_deadline = Some(Duration::from_micros(micros));
                        Ok(None)
                    }
                    ["obs.trace", switch] => {
                        self.trace = match *switch {
                            "on" => true,
                            "off" => false,
                            other => {
                                return Err(ApiError::new(
                                    ApiErrorCode::ProtocolError,
                                    format!("bad trace switch `{other}` (usage: option obs.trace on|off)"),
                                ))
                            }
                        };
                        Ok(None)
                    }
                    ["mode", submit_mode] => {
                        self.batch_mode = match *submit_mode {
                            "interactive" => false,
                            "batch" => true,
                            other => {
                                return Err(ApiError::new(
                                    ApiErrorCode::ProtocolError,
                                    format!("bad mode `{other}` (usage: option mode interactive|batch)"),
                                ))
                            }
                        };
                        Ok(None)
                    }
                    ["cache.bytes", "none"] => {
                        // Service-global, not per-session: the budget
                        // disciplines the one decision cache every
                        // connection shares.
                        self.service.set_cache_budget(None);
                        Ok(None)
                    }
                    ["cache.bytes", bytes] => {
                        let bytes: u64 = bytes.parse().map_err(|_| {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!("bad cache budget `{bytes}` (usage: option cache.bytes BYTES|none)"),
                            )
                        })?;
                        self.service.set_cache_budget(Some(bytes));
                        Ok(None)
                    }
                    ["net.timeout", "none"] => {
                        self.net_timeout = None;
                        Ok(None)
                    }
                    ["net.timeout", secs] => {
                        let secs: u64 = secs.parse().map_err(|_| {
                            ApiError::new(
                                ApiErrorCode::ProtocolError,
                                format!("bad timeout `{secs}` (usage: option net.timeout SECS|none)"),
                            )
                        })?;
                        self.net_timeout = Some(Duration::from_secs(secs));
                        Ok(None)
                    }
                    _ => Err(ApiError::new(
                        ApiErrorCode::ProtocolError,
                        "usage: option budget generous|small|tiny | option exec.backend instance|sharded:N|remote [seed=S] [latency=L] [faults=P] [transient] | option exec.calls K|none | option exec.retry RETRIES|off | option exec.breaker K:C|off | option exec.degraded on|off | option exec.adaptive on|off | option exec.deadline MICROS|off | option obs.trace on|off | option mode interactive|batch | option cache.bytes BYTES|none | option net.timeout SECS|none",
                    )),
                }
            }
            "decide" | "synthesize" | "execute" => {
                // The verb IS the mode (RequestMode::as_str is the wire
                // name); map it exactly once so the submitted mode and the
                // reported mode can never drift apart.
                let mode = match verb {
                    "decide" => RequestMode::Decide,
                    "synthesize" => RequestMode::Synthesize,
                    _ => RequestMode::Execute,
                };
                self.flush_pending()?;
                let (catalog, query_text) =
                    rest.split_once(char::is_whitespace).ok_or_else(|| {
                        ApiError::new(
                            ApiErrorCode::ProtocolError,
                            format!("usage: {verb} CATALOG QUERY [|| QUERY ...]"),
                        )
                    })?;
                let internal = self.internal_name(catalog);
                let builder = self
                    .service
                    .request_named(&internal)?
                    .query_text(query_text.trim())
                    .with_budget(self.budget)
                    .with_exec(self.exec)
                    .with_trace(self.trace);
                let builder = match mode {
                    RequestMode::Decide => builder.decide(),
                    RequestMode::Synthesize => builder.synthesize(),
                    RequestMode::Execute => builder.execute(),
                };
                let request = builder.build()?.with_deadline(self.effective_deadline());
                if self.batch_mode {
                    let id = self.batch_registry().enqueue(request, catalog);
                    return Ok(Some(
                        JsonObject::new()
                            .field_u128("v", PROTOCOL_VERSION as u128)
                            .field_str("status", "ok")
                            .field_str("mode", mode.as_str())
                            .field_str("catalog", catalog)
                            .field_u128("query_id", id as u128)
                            .field_str("state", "queued")
                            .finish(),
                    ));
                }
                let response = self.service.submit(&request).map_err(ApiError::from)?;
                let id = self
                    .service
                    .catalog_by_name(&internal)
                    .expect("just served");
                let values = self.service.catalog_values(id)?;
                let opts = RenderOptions {
                    inline_row_limit: self.inline_row_limit,
                    inline_byte_limit: self.inline_byte_limit,
                    exports: self.exports.as_deref(),
                    export_tag: None,
                    query_id: None,
                };
                Ok(Some(response_to_json_with(
                    &response, mode, catalog, &values, &opts,
                )?))
            }
            "ping" => Ok(Some(
                JsonObject::new()
                    .field_u128("v", PROTOCOL_VERSION as u128)
                    .field_str("status", "ok")
                    .field_bool("pong", true)
                    .finish(),
            )),
            "stats" => {
                if !rest.is_empty() {
                    return Err(ApiError::new(ApiErrorCode::ProtocolError, "usage: stats"));
                }
                // Service-wide counters (shared across every session of
                // this service), so a load harness can read cache
                // effectiveness and budget discipline over the wire.
                let m = self.service.metrics();
                let cache = JsonObject::new()
                    .field_raw(
                        "budget_bytes",
                        &m.cache_budget_bytes
                            .map_or_else(|| "null".to_owned(), |b| b.to_string()),
                    )
                    .field_u128("occupancy_bytes", m.cache_occupancy_bytes as u128)
                    .field_u128("entries", m.cache_entries as u128)
                    .field_u128("evictions", m.cache_evictions as u128)
                    .field_u128("bytes_evicted", m.cache_bytes_evicted as u128)
                    .field_u128("uncacheable", m.cache_uncacheable as u128)
                    .finish();
                let resilience = JsonObject::new()
                    .field_u128("degraded_responses", m.degraded_responses as u128)
                    .field_u128("deadline_timeouts", m.deadline_timeouts as u128)
                    .field_u128("retries", m.retries as u128)
                    .field_u128("breaker_rejections", m.breaker_rejections as u128)
                    .finish();
                let stats = JsonObject::new()
                    .field_u128("lookups", m.cache_lookups() as u128)
                    .field_u128("hits", m.cache_hits as u128)
                    .field_u128("misses", m.cache_misses as u128)
                    .field_u128("coalesced", m.cache_coalesced as u128)
                    .field_u128("warm_hits", m.cache_warm_hits as u128)
                    .field_raw("hit_ratio", &format!("{:.4}", m.cache_hit_ratio()))
                    .field_u128("decisions_computed", m.decisions_computed as u128)
                    .field_u128("chase_rounds_saved", m.chase_rounds_saved as u128)
                    .field_u128("executions", m.executions as u128)
                    .field_raw("cache", &cache)
                    .field_raw("resilience", &resilience)
                    .finish();
                Ok(Some(
                    JsonObject::new()
                        .field_u128("v", PROTOCOL_VERSION as u128)
                        .field_str("status", "ok")
                        .field_raw("stats", &stats)
                        .finish(),
                ))
            }
            "poll" => self.poll_or_fetch(rest, false),
            "fetch" => self.poll_or_fetch(rest, true),
            other => Err(ApiError::new(
                ApiErrorCode::ProtocolError,
                format!("unknown directive `{other}`"),
            )),
        }
    }

    /// Serves the `poll`/`fetch` verbs. `poll` reports the job's current
    /// state (`queued|running|done|error`, with the error code attached
    /// on `error`); `fetch` additionally renders the full response — or
    /// the full error object — for a finished job, and behaves exactly
    /// like `poll` while the job is still pending.
    fn poll_or_fetch(&mut self, rest: &str, fetch: bool) -> Result<Option<String>, ApiError> {
        let verb = if fetch { "fetch" } else { "poll" };
        let id: u64 = rest.trim().parse().map_err(|_| {
            ApiError::new(
                ApiErrorCode::ProtocolError,
                format!("usage: {verb} QUERY_ID"),
            )
        })?;
        let view = self
            .batch
            .as_ref()
            .and_then(|registry| registry.view(id))
            .ok_or_else(|| {
                ApiError::new(
                    ApiErrorCode::UnknownQueryId,
                    format!("no batch query with id {id} (unknown, or its result was evicted)"),
                )
            })?;
        let status_line = |state: &str| {
            JsonObject::new()
                .field_u128("v", PROTOCOL_VERSION as u128)
                .field_str("status", "ok")
                .field_u128("query_id", id as u128)
                .field_str("state", state)
        };
        match view.state {
            BatchState::Queued | BatchState::Running => {
                Ok(Some(status_line(view.state.name()).finish()))
            }
            BatchState::Failed(e) => {
                if fetch {
                    let api: ApiError = self.demangle(e.into());
                    Ok(Some(
                        JsonObject::new()
                            .field_u128("v", PROTOCOL_VERSION as u128)
                            .field_str("status", "error")
                            .field_str("code", api.code.as_str())
                            .field_str("detail", &api.detail)
                            .field_u128("query_id", id as u128)
                            .field_str("state", "error")
                            .finish(),
                    ))
                } else {
                    Ok(Some(
                        status_line("error").field_str("code", e.code()).finish(),
                    ))
                }
            }
            BatchState::Done(response) => {
                if !fetch {
                    return Ok(Some(status_line("done").finish()));
                }
                // Render with the display name captured at enqueue time;
                // resolution happens in *this* session's namespace, so a
                // fetch must come from the session that enqueued the job
                // (or one sharing its namespace).
                let internal = self.internal_name(&view.catalog);
                let catalog_id = self.service.catalog_by_name(&internal).ok_or_else(|| {
                    ApiError::new(
                        ApiErrorCode::UnknownCatalog,
                        format!(
                            "batch query {id} was enqueued against catalog `{}` \
                             from a different session namespace",
                            view.catalog
                        ),
                    )
                })?;
                let values = self.service.catalog_values(catalog_id)?;
                let tag = format!("q{id}");
                let opts = RenderOptions {
                    inline_row_limit: self.inline_row_limit,
                    inline_byte_limit: self.inline_byte_limit,
                    exports: self.exports.as_deref(),
                    export_tag: Some(&tag),
                    query_id: Some(id),
                };
                Ok(Some(response_to_json_with(
                    &response,
                    view.mode,
                    &view.catalog,
                    &values,
                    &opts,
                )?))
            }
        }
    }

    fn pending_mut(&mut self) -> Result<&mut PendingCatalog, ApiError> {
        self.pending.as_mut().ok_or_else(|| {
            ApiError::new(
                ApiErrorCode::ProtocolError,
                "this directive requires a preceding `catalog NAME` line",
            )
        })
    }

    /// Registers the catalog under construction, if any.
    fn flush_pending(&mut self) -> Result<(), ApiError> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        let mut schema = Schema::with_parts(pending.sig.clone(), pending.constraints, vec![])
            .map_err(|e| ApiError::new(ApiErrorCode::InvalidRequest, e.to_string()))?;
        for method in pending.methods {
            schema
                .add_method(method)
                .map_err(|e| ApiError::new(ApiErrorCode::InvalidRequest, e.to_string()))?;
        }
        let id = self.service.register_catalog(
            &self.internal_name(&pending.name),
            schema,
            pending.values,
        )?;
        if !pending.facts.is_empty() {
            let mut data = Instance::new(pending.sig);
            for (rel, tuple) in pending.facts {
                data.insert(rel, tuple)
                    .map_err(|e| ApiError::new(ApiErrorCode::InvalidRequest, e.to_string()))?;
            }
            self.service.attach_dataset(id, data)?;
        }
        Ok(())
    }
}

/// The error for a `constraint`/`fact` line that references a relation no
/// `relation` directive declared (`sig` is the scratch signature the parse
/// auto-declared into; `declared` is how many relations the catalog
/// actually has).
fn undeclared_relation_error(sig: &Signature, declared: usize) -> ApiError {
    let name = sig
        .iter()
        .nth(declared)
        .map(|(_, rel)| rel.name().to_owned())
        .unwrap_or_default();
    ApiError::new(
        ApiErrorCode::UnknownRelation,
        format!("relation `{name}` is not declared by the catalog (add a `relation` line)"),
    )
}

/// Parses the operand of `option exec.backend`: `instance` | `sharded:N`
/// | `remote [seed=S] [latency=L] [faults=P] [transient]`.
fn parse_backend_spec(tokens: &[&str]) -> Result<BackendSpec, ApiError> {
    let usage = || {
        ApiError::new(
            ApiErrorCode::ProtocolError,
            "usage: option exec.backend instance|sharded:N|remote [seed=S] [latency=L] [faults=P] [transient]",
        )
    };
    match tokens {
        ["instance"] => Ok(BackendSpec::Instance),
        [spec] if spec.starts_with("sharded:") => {
            let shards: usize = spec["sharded:".len()..].parse().map_err(|_| usage())?;
            // Bounded: every access fans out to each shard, so an
            // unchecked wire-supplied count would multiply the cost of
            // every access.
            if shards == 0 || shards > rbqa_service::MAX_SHARDS {
                return Err(ApiError::new(
                    ApiErrorCode::ProtocolError,
                    format!(
                        "shard count {shards} outside 1..={}",
                        rbqa_service::MAX_SHARDS
                    ),
                ));
            }
            Ok(BackendSpec::Sharded { shards })
        }
        ["remote", opts @ ..] => {
            let mut seed = 0u64;
            let mut latency_micros = 150u64;
            let mut fault_rate_pct = 0u8;
            let mut transient = false;
            for opt in opts {
                if let Some(v) = opt.strip_prefix("seed=") {
                    seed = v.parse().map_err(|_| usage())?;
                } else if let Some(v) = opt.strip_prefix("latency=") {
                    latency_micros = v.parse().map_err(|_| usage())?;
                    if latency_micros > rbqa_service::MAX_LATENCY_MICROS {
                        return Err(ApiError::new(
                            ApiErrorCode::ProtocolError,
                            format!(
                                "latency= is in microseconds (0-{})",
                                rbqa_service::MAX_LATENCY_MICROS
                            ),
                        ));
                    }
                } else if let Some(v) = opt.strip_prefix("faults=") {
                    fault_rate_pct = v.parse().map_err(|_| usage())?;
                    if fault_rate_pct > 100 {
                        return Err(ApiError::new(
                            ApiErrorCode::ProtocolError,
                            "faults= is a percentage (0-100)",
                        ));
                    }
                } else if *opt == "transient" {
                    transient = true;
                } else {
                    return Err(usage());
                }
            }
            Ok(BackendSpec::SimulatedRemote {
                seed,
                latency_micros,
                fault_rate_pct,
                transient,
            })
        }
        _ => Err(usage()),
    }
}

/// Parses `NAME REL in=P1,P2 [bound=K]` into an [`AccessMethod`]
/// (positions are 1-based on the wire, as in the paper's FD notation).
fn parse_method(rest: &str, sig: &Signature) -> Result<AccessMethod, ApiError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let (name, rel_name, opts) = match parts.as_slice() {
        [name, rel, opts @ ..] => (*name, *rel, opts),
        _ => {
            return Err(ApiError::new(
                ApiErrorCode::ProtocolError,
                "usage: method NAME REL in=POSITIONS [bound=K]",
            ))
        }
    };
    let relation = sig.relation_by_name(rel_name).ok_or_else(|| {
        ApiError::new(
            ApiErrorCode::UnknownRelation,
            format!("method `{name}` references undeclared relation `{rel_name}`"),
        )
    })?;
    let mut inputs: Vec<usize> = Vec::new();
    let mut bound: Option<usize> = None;
    for opt in opts {
        if let Some(positions) = opt.strip_prefix("in=") {
            for p in positions.split(',').filter(|p| !p.is_empty()) {
                let p: usize = p.parse().map_err(|_| {
                    ApiError::new(ApiErrorCode::ProtocolError, format!("bad position `{p}`"))
                })?;
                if p == 0 || p > sig.arity(relation) {
                    return Err(ApiError::new(
                        ApiErrorCode::ProtocolError,
                        format!("position {p} out of range (1-based) for `{rel_name}`"),
                    ));
                }
                inputs.push(p - 1);
            }
        } else if let Some(k) = opt.strip_prefix("bound=") {
            bound = Some(k.parse().map_err(|_| {
                ApiError::new(ApiErrorCode::ProtocolError, format!("bad bound `{k}`"))
            })?);
        } else {
            return Err(ApiError::new(
                ApiErrorCode::ProtocolError,
                format!("unknown method option `{opt}`"),
            ));
        }
    }
    Ok(match bound {
        None => AccessMethod::unbounded(name, relation, &inputs),
        Some(k) => AccessMethod::bounded(name, relation, &inputs, k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PREAMBLE: &str = "rbqa/1
catalog uni
relation Prof/3
relation Udirectory/3
constraint Prof(i, n, s) -> Udirectory(i, a, p)
method pr Prof in=1
method ud Udirectory in= bound=100
";

    #[test]
    fn version_header_is_required() {
        let mut server = WireServer::new();
        let out = server.handle_line("decide uni Q() :- R(x)").unwrap();
        assert!(out.contains("UNSUPPORTED_VERSION"), "{out}");
        assert!(server.handle_line("rbqa/1").is_none());
    }

    #[test]
    fn preamble_plus_request_round_trips() {
        let mut server = WireServer::new();
        let stream = format!("{PREAMBLE}\ndecide uni Q() :- Udirectory(i, a, p)\n");
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 1, "{outputs:?}");
        assert!(outputs[0].contains("\"status\":\"ok\""), "{}", outputs[0]);
        assert!(outputs[0].contains("\"answerable\":\"yes\""));
        assert!(outputs[0].contains("\"cache_hit\":false"));
    }

    #[test]
    fn alpha_variant_union_requests_hit_the_cache() {
        let mut server = WireServer::new();
        let stream = format!(
            "{PREAMBLE}\n\
             decide uni Q(n) :- Prof(i, n, '10000') || Q(a) :- Udirectory(i, a, p)\n\
             decide uni Q(ad) :- Udirectory(row, ad, ph) || Q(nm) :- Prof(pid, nm, '10000')\n"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 2);
        assert!(outputs[0].contains("\"cache_hit\":false"));
        assert!(outputs[1].contains("\"cache_hit\":true"), "{}", outputs[1]);
        assert_eq!(server.service().metrics().decisions_computed, 1);
    }

    #[test]
    fn execute_over_wire_facts_returns_rows() {
        let mut server = WireServer::new();
        let stream = "rbqa/1
catalog uni
relation Prof/3
relation Udirectory/3
constraint Prof(i, n, s) -> Udirectory(i, a, p)
method pr Prof in=1
method ud Udirectory in=
fact Prof('7', 'ada', '10000')
fact Udirectory('7', 'mainst', '555')
execute uni Q(n) :- Prof(i, n, '10000')
";
        let outputs = server.handle_stream(stream);
        assert_eq!(outputs.len(), 1);
        assert!(
            outputs[0].contains("\"rows\":[[\"ada\"]]"),
            "{}",
            outputs[0]
        );
        assert!(outputs[0].contains("\"total_calls\""));
    }

    #[test]
    fn errors_are_structured() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        let out = server.handle_line("decide nowhere Q() :- R(x)").unwrap();
        assert!(out.contains("\"code\":\"UNKNOWN_CATALOG\""), "{out}");
        let out = server.handle_line("gibberish").unwrap();
        assert!(out.contains("\"code\":\"PROTOCOL_ERROR\""));
        let out = server.handle_line("relation X/2").unwrap();
        assert!(out.contains("requires a preceding"), "{out}");
    }

    #[test]
    fn typoed_relations_in_facts_and_constraints_are_rejected() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        server.handle_line("catalog uni");
        server.handle_line("relation Prof/3");
        let out = server
            .handle_line("fact Porf('7', 'ada', '10000')")
            .expect("typo'd fact relation is an error");
        assert!(out.contains("\"code\":\"UNKNOWN_RELATION\""), "{out}");
        assert!(out.contains("Porf"));
        let out = server
            .handle_line("constraint Prof(i, n, s) -> Udirectry(i, a, p)")
            .expect("typo'd constraint relation is an error");
        assert!(out.contains("\"code\":\"UNKNOWN_RELATION\""), "{out}");
        assert!(out.contains("Udirectry"));
        // FD constraints agree with TGDs and facts on the code.
        let out = server
            .handle_line("constraint FD Porf: 1 -> 2")
            .expect("typo'd FD relation is an error");
        assert!(out.contains("\"code\":\"UNKNOWN_RELATION\""), "{out}");
        // The catalog itself is unpolluted: declaring the relation properly
        // afterwards still works and the catalog registers cleanly.
        assert!(server.handle_line("relation Udirectory/3").is_none());
        assert!(server
            .handle_line("constraint Prof(i, n, s) -> Udirectory(i, a, p)")
            .is_none());
        assert!(server.handle_line("method ud Udirectory in=").is_none());
        let out = server
            .handle_line("decide uni Q() :- Udirectory(i, a, p)")
            .unwrap();
        assert!(out.contains("\"status\":\"ok\""), "{out}");
    }

    #[test]
    fn fd_token_does_not_swallow_fd_prefixed_relation_names() {
        let mut server = WireServer::new();
        let stream = "rbqa/1
catalog deps
relation FDept/1
relation Grant/1
constraint FDept(x) -> Grant(x)
constraint FD Grant: 1 -> 1
method mf FDept in=
method mg Grant in=1
decide deps Q() :- Grant(g)
";
        let outputs = server.handle_stream(stream);
        assert_eq!(outputs.len(), 1, "{outputs:?}");
        assert!(outputs[0].contains("\"status\":\"ok\""), "{}", outputs[0]);
    }

    const EXEC_PREAMBLE: &str = "rbqa/1
catalog uni
relation Prof/3
relation Udirectory/3
constraint Prof(i, n, s) -> Udirectory(i, a, p)
method pr Prof in=1
method ud Udirectory in=
fact Prof('7', 'ada', '10000')
fact Prof('8', 'alan', '10000')
fact Udirectory('7', 'mainst', '555')
fact Udirectory('8', 'sidest', '556')
";

    #[test]
    fn exec_options_select_backends_and_report_metrics() {
        let mut server = WireServer::new();
        let stream = format!(
            "{EXEC_PREAMBLE}\
             execute uni Q(n) :- Prof(i, n, '10000')\n\
             option exec.backend sharded:3\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n\
             option exec.backend remote seed=7 latency=200 faults=0\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 3, "{outputs:?}");
        for out in &outputs {
            assert!(out.contains("\"rows\":[[\"ada\"],[\"alan\"]]"), "{out}");
            assert!(out.contains("\"metrics\":{"), "{out}");
            assert!(out.contains("\"tuples_matched\""), "{out}");
            assert!(out.contains("\"calls_per_method\":{"), "{out}");
        }
        // The in-memory backend reports zero latency; the remote one does
        // not.
        assert!(
            outputs[0].contains("\"latency_micros\":0"),
            "{}",
            outputs[0]
        );
        assert!(
            !outputs[2].contains("\"latency_micros\":0"),
            "{}",
            outputs[2]
        );
        // Different backends are different fingerprints: none of the three
        // rode another's cache entry.
        assert_eq!(server.service().metrics().decisions_computed, 3);
    }

    #[test]
    fn exec_adaptive_option_dedups_union_accesses_and_refingerprints() {
        let mut server = WireServer::new();
        let union = "execute uni Q(n) :- Prof(i, n, '10000') || Q(n) :- Prof(i, n, '20000')\n";
        let stream = format!(
            "{EXEC_PREAMBLE}\
             {union}\
             option exec.adaptive on\n\
             {union}\
             option exec.adaptive off\n\
             {union}"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 3, "{outputs:?}");
        for out in &outputs {
            assert!(out.contains("\"rows\":[[\"ada\"],[\"alan\"]]"), "{out}");
            assert!(out.contains("\"accesses_skipped\""), "{out}");
            assert!(out.contains("\"disjuncts_short_circuited\""), "{out}");
        }
        // The two disjuncts crawl the same Prof/Udirectory frontier;
        // adaptive execution serves the repeats from the window cache.
        let field = |out: &str, key: &str| -> u64 {
            let tail =
                &out[out.find(key).unwrap_or_else(|| panic!("{key} in {out}")) + key.len()..];
            tail[..tail.find(|c: char| !c.is_ascii_digit()).unwrap()]
                .parse()
                .unwrap()
        };
        let naive_calls = field(&outputs[0], "\"total_calls\":");
        assert_eq!(field(&outputs[0], "\"accesses_skipped\":"), 0);
        let adaptive = &outputs[1];
        let calls = field(adaptive, "\"total_calls\":");
        let skipped = field(adaptive, "\"accesses_skipped\":");
        assert!(
            calls * 2 <= naive_calls,
            "adaptive made {calls} calls vs naive {naive_calls}"
        );
        assert_eq!(calls + skipped, naive_calls, "{adaptive}");
        // The adaptive flag is part of the Execute fingerprint: on and
        // off are two distinct cache entries (off rode the first
        // request's entry).
        assert_eq!(server.service().metrics().decisions_computed, 2);
        assert!(outputs[2].contains("\"cache_hit\":true"), "{}", outputs[2]);
    }

    #[test]
    fn metrics_block_splits_simulated_and_wall_time() {
        let mut server = WireServer::new();
        let stream = format!("{EXEC_PREAMBLE}execute uni Q(n) :- Prof(i, n, '10000')\n");
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 1, "{outputs:?}");
        let out = &outputs[0];
        assert!(out.contains("\"simulated_latency_micros\""), "{out}");
        assert!(out.contains("\"wall_micros\""), "{out}");
        // The pre-split alias survives for rbqa/1 consumers, as does the
        // deprecated rate-limit flag (always true; quota violations are
        // BUDGET_EXHAUSTED error responses now).
        assert!(out.contains("\"latency_micros\""), "{out}");
        assert!(out.contains("\"within_rate_limit\":true"), "{out}");
    }

    #[test]
    fn obs_trace_option_attaches_a_trace_block() {
        let mut server = WireServer::new();
        let stream = format!(
            "{EXEC_PREAMBLE}\
             option obs.trace on\n\
             decide uni Q(n) :- Prof(i, n, '10000')\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n\
             option obs.trace off\n\
             decide uni Q(a) :- Udirectory(i, a, p)\n"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 3, "{outputs:?}");
        // Traced decide: the spec'd trace block with spans, counters and
        // exclusive phase timings (docs/wire-protocol.md §5.3).
        let traced = &outputs[0];
        for key in [
            "\"trace\":{",
            "\"total_micros\"",
            "\"balanced\":true",
            "\"phases_micros\"",
            "\"chase\"",
            "\"counters\"",
            "\"chase_rounds\"",
            "\"spans\":[",
            "\"name\":\"decide\"",
        ] {
            assert!(traced.contains(key), "missing {key} in {traced}");
        }
        // Traced execute additionally records per-access spans.
        assert!(outputs[1].contains("\"name\":\"access\""), "{}", outputs[1]);
        assert!(outputs[1].contains("\"method\":"), "{}", outputs[1]);
        // After `off`, responses carry no trace block.
        assert!(!outputs[2].contains("\"trace\":{"), "{}", outputs[2]);
        // Tracing is not part of the fingerprint: the traced and untraced
        // decide of the same query share one cache entry... (first decide
        // computed, execute re-used it, third decide is a new query).
        let out = server
            .handle_line("decide uni Q(n) :- Prof(i, n, '10000')")
            .unwrap();
        assert!(out.contains("\"cache_hit\":true"), "{out}");
        assert!(!out.contains("\"trace\":{"), "{out}");
    }

    #[test]
    fn exec_call_budget_fails_fast_with_a_stable_code() {
        let mut server = WireServer::new();
        let stream = format!(
            "{EXEC_PREAMBLE}\
             option exec.calls 1\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n\
             option exec.calls none\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 2, "{outputs:?}");
        assert!(
            outputs[0].contains("\"code\":\"BUDGET_EXHAUSTED\""),
            "{}",
            outputs[0]
        );
        assert!(!outputs[0].contains("\"rows\""), "no partial rows");
        assert!(outputs[1].contains("\"status\":\"ok\""), "{}", outputs[1]);
    }

    #[test]
    fn degraded_union_over_the_wire_reports_failed_disjuncts() {
        let mut server = WireServer::new();
        server.handle_stream(EXEC_PREAMBLE);
        server.handle_line("option exec.degraded on");
        // The remote backend is deterministic per (seed, access): scan
        // seeds for one that kills some — not all — disjuncts.
        let union = "execute uni Q(n) :- Prof(i, n, '10000') || Q(a) :- Udirectory(i, a, p)";
        let mut partial = None;
        for seed in 0..256u64 {
            if let Some(out) = server.handle_line(&format!(
                "option exec.backend remote seed={seed} latency=0 faults=30"
            )) {
                panic!("option rejected: {out}");
            }
            let out = server.handle_line(union).unwrap();
            if out.contains("\"partial\":true") {
                partial = Some(out);
                break;
            }
        }
        let out = partial.expect("some seed in 0..256 degrades exactly one disjunct");
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"failed_disjuncts\":[{"), "{out}");
        assert!(out.contains("\"code\":\"BACKEND_UNAVAILABLE\""), "{out}");
        assert!(out.contains("\"plan_index\":"), "{out}");
        assert!(out.contains("\"rows\":[["), "{out}");
        // Degraded mode is fingerprinted: switching it off re-runs the
        // same faults strictly and the whole request fails.
        server.handle_line("option exec.degraded off");
        let strict = server.handle_line(union).unwrap();
        assert!(
            strict.contains("\"code\":\"BACKEND_UNAVAILABLE\""),
            "{strict}"
        );
        assert!(!strict.contains("\"partial\""), "{strict}");
    }

    #[test]
    fn exec_retry_option_rides_out_a_transient_backend() {
        let mut server = WireServer::new();
        server.handle_stream(EXEC_PREAMBLE);
        let outputs = server.handle_stream(
            "option exec.backend remote seed=2 latency=0 faults=40 transient\n\
             option exec.retry 6\n\
             execute uni Q(n) :- Prof(i, n, '10000')\n",
        );
        assert_eq!(outputs.len(), 1, "{outputs:?}");
        let out = &outputs[0];
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"rows\":[[\"ada\"],[\"alan\"]]"), "{out}");
        // The remote never retries on its own, so the retry wrapper sees
        // every fault and the metrics block counts its retries.
        assert!(out.contains("\"retries\":"), "{out}");
        assert!(!out.contains("\"retries\":0"), "{out}");
        assert!(out.contains("\"breaker_rejections\":"), "{out}");
    }

    #[test]
    fn stats_verb_reports_resilience_counters() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        let out = server.handle_line("stats").unwrap();
        assert!(out.contains("\"resilience\":{"), "{out}");
        for key in [
            "\"degraded_responses\":0",
            "\"deadline_timeouts\":0",
            "\"retries\":0",
            "\"breaker_rejections\":0",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn malformed_exec_options_are_protocol_errors() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        for bad in [
            "option exec.backend warp-drive",
            "option exec.backend sharded:0",
            "option exec.backend sharded:x",
            "option exec.backend sharded:4000000000",
            "option exec.backend remote faults=200",
            "option exec.backend remote latency=60000001",
            "option exec.backend remote latency=18446744073709551615",
            "option exec.backend remote bogus=1",
            "option exec.calls many",
            "option exec.retry lots",
            "option exec.breaker 3",
            "option exec.breaker 0:5",
            "option exec.breaker k:c",
            "option exec.degraded maybe",
            "option exec.adaptive maybe",
            "option exec.adaptive validate",
            "option exec.deadline soon",
            "option obs.trace maybe",
        ] {
            let out = server.handle_line(bad).expect("error output");
            assert!(out.contains("\"code\":\"PROTOCOL_ERROR\""), "{bad}: {out}");
        }
    }

    #[test]
    fn method_parsing_validates_positions() {
        let mut sig = Signature::new();
        sig.add_relation("R", 2).unwrap();
        assert!(parse_method("m R in=1,2", &sig).is_ok());
        assert!(parse_method("m R in=", &sig).is_ok());
        assert!(parse_method("m R in=3", &sig).is_err());
        assert!(parse_method("m R in=0", &sig).is_err());
        assert!(parse_method("m Nope in=1", &sig).is_err());
        let bounded = parse_method("m R in=1 bound=5", &sig).unwrap();
        assert!(bounded.result_bound().is_some());
    }

    #[test]
    fn ping_answers_even_before_any_catalog() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        let out = server.handle_line("ping").unwrap();
        assert_eq!(out, "{\"v\":1,\"status\":\"ok\",\"pong\":true}");
    }

    #[test]
    fn stats_verb_reports_cache_block() {
        let mut server = WireServer::new();
        let cold = server.handle_stream("rbqa/1\nstats\n").pop().unwrap();
        assert!(cold.contains("\"lookups\":0"), "{cold}");
        assert!(cold.contains("\"budget_bytes\":null"), "{cold}");
        let stream = format!(
            "{PREAMBLE}\ndecide uni Q() :- Udirectory(i, a, p)\n\
             decide uni Q() :- Udirectory(i, a, p)\n"
        );
        let mut server = WireServer::new();
        server.handle_stream(&stream);
        let out = server.handle_line("stats").unwrap();
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"lookups\":2"), "{out}");
        assert!(out.contains("\"hits\":1"), "{out}");
        assert!(out.contains("\"misses\":1"), "{out}");
        assert!(out.contains("\"warm_hits\":0"), "{out}");
        assert!(out.contains("\"hit_ratio\":0.5000"), "{out}");
        assert!(out.contains("\"decisions_computed\":1"), "{out}");
        assert!(out.contains("\"cache\":{"), "{out}");
        assert!(out.contains("\"entries\":1"), "{out}");
        assert!(out.contains("\"evictions\":0"), "{out}");
        let err = server.handle_line("stats now").unwrap();
        assert!(err.contains("PROTOCOL_ERROR"), "{err}");
    }

    #[test]
    fn cache_bytes_option_repoints_the_shared_budget() {
        let mut server = WireServer::new();
        server.handle_stream(PREAMBLE);
        assert!(server.handle_line("option cache.bytes 4096").is_none());
        assert_eq!(server.service().cache_budget(), Some(4096));
        let out = server.handle_line("stats").unwrap();
        assert!(out.contains("\"budget_bytes\":4096"), "{out}");
        assert!(server.handle_line("option cache.bytes none").is_none());
        assert_eq!(server.service().cache_budget(), None);
        let err = server.handle_line("option cache.bytes lots").unwrap();
        assert!(err.contains("PROTOCOL_ERROR"), "{err}");
        // A budget of zero still serves requests (pass-through cache).
        assert!(server.handle_line("option cache.bytes 0").is_none());
        let out = server
            .handle_line("decide uni Q() :- Udirectory(i, a, p)")
            .unwrap();
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"cache_hit\":false"), "{out}");
        let stats = server.handle_line("stats").unwrap();
        assert!(stats.contains("\"occupancy_bytes\":0"), "{stats}");
        assert!(stats.contains("\"uncacheable\":1"), "{stats}");
    }

    #[test]
    fn namespaced_sessions_isolate_names_but_share_the_cache() {
        let service = std::sync::Arc::new(QueryService::new());
        let replay = |ns: &str| {
            let mut session =
                WireServer::with_shared_service(std::sync::Arc::clone(&service)).with_namespace(ns);
            let stream = format!("{PREAMBLE}\ndecide uni Q() :- Udirectory(i, a, p)\n");
            session.handle_stream(&stream)
        };
        let first = replay("conn1");
        let second = replay("conn2");
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        // The wire echoes the client's own name, never the internal one.
        assert!(first[0].contains("\"catalog\":\"uni\""), "{}", first[0]);
        assert!(!first[0].contains("conn1"), "{}", first[0]);
        // Same catalog *content* under different internal names: the
        // second session's decision is a cache hit.
        assert!(first[0].contains("\"cache_hit\":false"));
        assert!(second[0].contains("\"cache_hit\":true"), "{}", second[0]);
        assert_eq!(service.metrics().decisions_computed, 1);
    }

    #[test]
    fn namespace_never_leaks_into_error_details() {
        let service = std::sync::Arc::new(QueryService::new());
        let mut session = WireServer::with_shared_service(service).with_namespace("conn9");
        session.handle_line("rbqa/1");
        let out = session.handle_line("decide uni Q() :- R(x)").unwrap();
        assert!(out.contains("\"code\":\"UNKNOWN_CATALOG\""), "{out}");
        assert!(out.contains("`uni`"), "{out}");
        assert!(!out.contains("conn9"), "{out}");
    }

    #[test]
    fn zero_deadline_aborts_misses_serves_hits_and_disarms() {
        // `exec.deadline` and `net.timeout` arm the one in-flight
        // deadline, so both spellings behave identically.
        for (arm, disarm) in [
            ("exec.deadline 0", "exec.deadline off"),
            ("net.timeout 0", "net.timeout none"),
        ] {
            let mut server = WireServer::new();
            let stream = format!(
                "{PREAMBLE}\
                 decide uni Q() :- Udirectory(i, a, p)\n\
                 option {arm}\n\
                 decide uni Q() :- Udirectory(i, a, p)\n\
                 decide uni Q() :- Prof(i, n, s)\n\
                 option {disarm}\n\
                 decide uni Q() :- Prof(i, n, s)\n\
                 decide uni Q() :- Prof(i, n, s)\n"
            );
            let outputs = server.handle_stream(&stream);
            assert_eq!(outputs.len(), 5, "{arm}: {outputs:?}");
            // A resident hit needs no chase: it is served even at the
            // deadline.
            assert!(
                outputs[1].contains("\"cache_hit\":true"),
                "{arm}: {}",
                outputs[1]
            );
            // A miss needs the chase, which the expired deadline aborts…
            assert!(
                outputs[2].contains("\"code\":\"REQUEST_TIMEOUT\""),
                "{arm}: {}",
                outputs[2]
            );
            // …before anything landed in the cache, so after disarming the
            // re-ask recomputes from a vacated (never poisoned) slot…
            assert!(
                outputs[3].contains("\"cache_hit\":false"),
                "{arm}: {}",
                outputs[3]
            );
            // …and then serves hits normally.
            assert!(
                outputs[4].contains("\"cache_hit\":true"),
                "{arm}: {}",
                outputs[4]
            );
        }
    }

    #[test]
    fn bad_mode_and_timeout_options_are_protocol_errors() {
        let mut server = WireServer::new();
        server.handle_line("rbqa/1");
        for bad in [
            "option mode turbo",
            "option net.timeout fast",
            "option net.timeout",
        ] {
            let out = server.handle_line(bad).expect("error output");
            assert!(out.contains("\"code\":\"PROTOCOL_ERROR\""), "{bad}: {out}");
        }
    }

    #[test]
    fn batch_mode_round_trips_through_poll_and_fetch() {
        let mut server = WireServer::new();
        // Interactive reference first.
        let stream = format!("{EXEC_PREAMBLE}execute uni Q(n) :- Prof(i, n, '10000')\n");
        let reference = server.handle_stream(&stream).remove(0);
        let inline_rows = "\"rows\":[[\"ada\"],[\"alan\"]]";
        assert!(reference.contains(inline_rows), "{reference}");
        // Same request through batch mode.
        server.handle_line("option mode batch");
        let ack = server
            .handle_line("execute uni Q(n) :- Prof(i, n, '10000')")
            .unwrap();
        assert!(ack.contains("\"query_id\":1"), "{ack}");
        assert!(ack.contains("\"state\":\"queued\""), "{ack}");
        assert!(ack.contains("\"mode\":\"execute\""), "{ack}");
        // Poll to completion (the job runs on a background worker).
        let mut state = String::new();
        for _ in 0..1000 {
            state = server.handle_line("poll 1").unwrap();
            if state.contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(state.contains("\"state\":\"done\""), "{state}");
        let fetched = server.handle_line("fetch 1").unwrap();
        assert!(fetched.contains("\"query_id\":1"), "{fetched}");
        assert!(fetched.contains("\"state\":\"done\""), "{fetched}");
        assert!(fetched.contains(inline_rows), "{fetched}");
        // Fetch is repeatable.
        assert_eq!(server.handle_line("fetch 1").unwrap(), fetched);
        // A failing request reaches the error state with its code.
        server.handle_line("option exec.calls 1");
        let ack = server
            .handle_line("execute uni Q(n) :- Prof(i, n, '10000')")
            .unwrap();
        assert!(ack.contains("\"query_id\":2"), "{ack}");
        let mut polled = String::new();
        for _ in 0..1000 {
            polled = server.handle_line("poll 2").unwrap();
            if polled.contains("\"state\":\"error\"") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(polled.contains("\"code\":\"BUDGET_EXHAUSTED\""), "{polled}");
        let fetched = server.handle_line("fetch 2").unwrap();
        assert!(fetched.contains("\"status\":\"error\""), "{fetched}");
        assert!(
            fetched.contains("\"code\":\"BUDGET_EXHAUSTED\""),
            "{fetched}"
        );
        assert!(fetched.contains("\"query_id\":2"), "{fetched}");
        // Unknown ids are structured errors; non-numeric ids are protocol
        // errors.
        let out = server.handle_line("poll 99").unwrap();
        assert!(out.contains("\"code\":\"UNKNOWN_QUERY_ID\""), "{out}");
        let out = server.handle_line("fetch soon").unwrap();
        assert!(out.contains("\"code\":\"PROTOCOL_ERROR\""), "{out}");
    }

    #[test]
    fn over_limit_results_export_with_an_output_location() {
        let dir =
            std::env::temp_dir().join(format!("rbqa-wire-export-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exports = std::sync::Arc::new(ExportStore::create(&dir).unwrap());
        let mut server = WireServer::new()
            .with_exports(std::sync::Arc::clone(&exports))
            .with_inline_limits(Some(1), None);
        let stream = format!(
            "{EXEC_PREAMBLE}\
             execute uni Q(n) :- Prof(i, n, '10000')\n\
             execute uni Q(s) :- Prof('7', n, s)\n"
        );
        let outputs = server.handle_stream(&stream);
        assert_eq!(outputs.len(), 2, "{outputs:?}");
        // Two rows > limit 1: exported.
        let exported = &outputs[0];
        assert!(!exported.contains("\"rows\":["), "{exported}");
        assert!(exported.contains("\"row_count\":2"), "{exported}");
        assert!(exported.contains("\"output_location\":"), "{exported}");
        // The export file holds the full row set, self-described.
        let location = exported
            .split("\"output_location\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap();
        let body = ExportStore::read_location(location).unwrap();
        assert!(body.contains("\"kind\":\"export\""), "{body}");
        assert!(body.contains("\"rows\":[[\"ada\"],[\"alan\"]]"), "{body}");
        // One row ≤ limit: inlined as always.
        assert!(
            outputs[1].contains("\"rows\":[[\"10000\"]]"),
            "{}",
            outputs[1]
        );
        assert_eq!(exports.exports_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
