//! The fluent, validating request builder — the sanctioned construction
//! path for service requests.
//!
//! ```
//! use rbqa_api::ServiceApi;
//! use rbqa_service::QueryService;
//! # use rbqa_access::{AccessMethod, Schema};
//! # use rbqa_common::{Signature, ValueFactory};
//! let service = QueryService::new();
//! # let mut sig = Signature::new();
//! # let prof = sig.add_relation("Prof", 3).unwrap();
//! # let mut schema = Schema::new(sig);
//! # schema.add_method(AccessMethod::unbounded("pr", prof, &[])).unwrap();
//! let catalog = service
//!     .register_catalog("uni", schema, ValueFactory::new())
//!     .unwrap();
//! let response = service
//!     .request(catalog)
//!     .query_text("Q(n) :- Prof(i, n, '10000')")
//!     .synthesize()
//!     .submit()
//!     .unwrap();
//! assert!(response.is_answerable());
//! ```
//!
//! The builder validates at [`RequestBuilder::build`] time — catalog
//! existence, relation identity and arity, free-variable safety, union
//! well-formedness — and reports failures as structured [`ApiError`]s
//! instead of letting malformed requests reach the decision pipeline.

use rbqa_chase::Budget;
use rbqa_common::ValueFactory;
use rbqa_core::AnswerabilityOptions;
use rbqa_logic::parser::parse_cq;
use rbqa_logic::{ConjunctiveQuery, UnionOfConjunctiveQueries};
use rbqa_service::{
    AnswerRequest, AnswerResponse, BackendSpec, CatalogId, ExecOptions, QueryService, RequestMode,
};

use crate::error::{ApiError, ApiErrorCode};

/// The wire separator between UCQ disjuncts in query text.
pub const DISJUNCT_SEPARATOR: &str = "||";

/// Splits query text on [`DISJUNCT_SEPARATOR`] occurring *outside* quoted
/// constants, so a constant like `'a||b'` never breaks a disjunct apart.
/// Both quote characters of the DSL (`'` and `"`) are respected.
fn split_disjuncts(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut pieces = Vec::new();
    let mut start = 0;
    let mut quote: Option<u8> = None;
    let mut i = 0;
    while i < bytes.len() {
        match (quote, bytes[i]) {
            (Some(q), b) if b == q => quote = None,
            (Some(_), _) => {}
            (None, b'\'') | (None, b'"') => quote = Some(bytes[i]),
            (None, b'|') if bytes.get(i + 1) == Some(&b'|') => {
                pieces.push(&text[start..i]);
                i += 2;
                start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    pieces.push(&text[start..]);
    pieces
}

/// Extension trait adding the builder entry points to
/// [`rbqa_service::QueryService`]. This is the public face of the service:
/// `service.request(catalog)` starts a validated request.
pub trait ServiceApi {
    /// Starts a request against a catalog id.
    fn request(&self, catalog: CatalogId) -> RequestBuilder<'_>;

    /// Starts a request against a catalog name.
    fn request_named(&self, name: &str) -> Result<RequestBuilder<'_>, ApiError>;
}

impl ServiceApi for QueryService {
    fn request(&self, catalog: CatalogId) -> RequestBuilder<'_> {
        RequestBuilder::new(self, catalog)
    }

    fn request_named(&self, name: &str) -> Result<RequestBuilder<'_>, ApiError> {
        let id = self.catalog_by_name(name).ok_or_else(|| {
            ApiError::new(
                ApiErrorCode::UnknownCatalog,
                format!("no catalog named `{name}`"),
            )
        })?;
        Ok(self.request(id))
    }
}

/// A fluent, validating builder for one [`AnswerRequest`].
///
/// Queries can be added as in-memory [`ConjunctiveQuery`] values
/// ([`RequestBuilder::query`]) or as DSL text parsed against the catalog's
/// signature ([`RequestBuilder::query_text`], with `||` separating UCQ
/// disjuncts). Errors are deferred: the first failure is remembered and
/// returned from [`RequestBuilder::build`]/[`RequestBuilder::submit`], so
/// call chains stay fluent.
pub struct RequestBuilder<'s> {
    service: &'s QueryService,
    catalog: CatalogId,
    mode: RequestMode,
    options: AnswerabilityOptions,
    exec: ExecOptions,
    trace: bool,
    disjuncts: Vec<ConjunctiveQuery>,
    values: Option<ValueFactory>,
    parsed_text: bool,
    deferred: Option<ApiError>,
}

impl<'s> RequestBuilder<'s> {
    fn new(service: &'s QueryService, catalog: CatalogId) -> Self {
        RequestBuilder {
            service,
            catalog,
            mode: RequestMode::Decide,
            options: AnswerabilityOptions::default(),
            exec: ExecOptions::default(),
            trace: false,
            disjuncts: Vec::new(),
            values: None,
            parsed_text: false,
            deferred: None,
        }
    }

    /// Adds an in-memory disjunct. Pair with [`RequestBuilder::with_values`]
    /// when the query's constants were interned by a non-catalog factory.
    pub fn query(mut self, query: ConjunctiveQuery) -> Self {
        self.disjuncts.push(query);
        self
    }

    /// Adds disjuncts parsed from DSL text (`Q(x) :- R(x, y) || Q(x) :- S(x)`).
    /// Parsing uses the catalog's signature and a catalog-derived value
    /// factory, so constants keep their catalog identity and relations are
    /// checked against the registered arities.
    pub fn query_text(mut self, text: &str) -> Self {
        if self.deferred.is_some() {
            return self;
        }
        let mut sig = match self.service.catalog_signature(self.catalog) {
            Ok(sig) => sig,
            Err(e) => {
                self.deferred = Some(e.into());
                return self;
            }
        };
        let catalog_len = sig.len();
        let mut values = match self.values.take() {
            Some(vf) => vf,
            None => match self.service.catalog_values(self.catalog) {
                Ok(vf) => vf,
                Err(e) => {
                    self.deferred = Some(e.into());
                    return self;
                }
            },
        };
        for piece in split_disjuncts(text) {
            match parse_cq(piece.trim(), &mut sig, &mut values) {
                Ok(q) => {
                    // `parse_cq` auto-declares unknown relations; against a
                    // registered catalog that is an error, not a feature.
                    if let Some(atom) = q
                        .atoms()
                        .iter()
                        .find(|a| a.relation().index() >= catalog_len)
                    {
                        self.deferred = Some(ApiError::new(
                            ApiErrorCode::UnknownRelation,
                            format!(
                                "relation `{}` is not declared by the catalog",
                                sig.name(atom.relation())
                            ),
                        ));
                        break;
                    }
                    self.disjuncts.push(q);
                }
                Err(e) => {
                    self.deferred = Some(e.into());
                    break;
                }
            }
        }
        self.values = Some(values);
        self.parsed_text = true;
        self
    }

    /// Sets `Decide` mode (the default).
    pub fn decide(mut self) -> Self {
        self.mode = RequestMode::Decide;
        self
    }

    /// Sets `Synthesize` mode (decide + plan synthesis).
    pub fn synthesize(mut self) -> Self {
        self.mode = RequestMode::Synthesize;
        self
    }

    /// Sets `Execute` mode (decide + synthesise + run against the dataset).
    pub fn execute(mut self) -> Self {
        self.mode = RequestMode::Execute;
        self
    }

    /// Overrides the chase budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.options.budget = budget;
        self
    }

    /// Overrides all decision options at once.
    pub fn with_options(mut self, options: AnswerabilityOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the crawl-round count used by plan synthesis.
    pub fn crawl_rounds(mut self, rounds: usize) -> Self {
        self.options.crawl_rounds = rounds;
        self
    }

    /// Selects the data-source backend `Execute` runs the plans against
    /// (in-memory instance, simulated remote, sharded federation). The
    /// choice is part of the fingerprint of `Execute` requests; other
    /// modes ignore it. Shard counts outside `1..=MAX_SHARDS` are
    /// rejected.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        if let BackendSpec::Sharded { shards } = backend {
            if self.deferred.is_none() && (shards == 0 || shards > rbqa_service::MAX_SHARDS) {
                self.deferred = Some(ApiError::new(
                    ApiErrorCode::InvalidRequest,
                    format!(
                        "shard count {shards} outside 1..={}",
                        rbqa_service::MAX_SHARDS
                    ),
                ));
                return self;
            }
        }
        self.exec.backend = backend;
        self
    }

    /// Caps the total number of accesses one `Execute` request may
    /// perform **across all its disjunct plans**; the over-quota run
    /// fails fast with `BUDGET_EXHAUSTED` instead of returning partial
    /// rows. Part of the fingerprint of `Execute` requests; other modes
    /// ignore it.
    pub fn call_budget(mut self, budget: usize) -> Self {
        self.exec.call_budget = Some(budget);
        self
    }

    /// Overrides all execution options at once.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the adaptive execution mode for `Execute` requests: `On`
    /// memoizes every `(method, binding)` access for the request window
    /// and short-circuits disjuncts identical to one that already
    /// succeeded. Part of the fingerprint of `Execute` requests; other
    /// modes ignore it.
    pub fn adaptive(mut self, mode: rbqa_service::AdaptiveMode) -> Self {
        self.exec.adaptive = mode;
        self
    }

    /// Requests a per-request [`rbqa_obs::Trace`] on the response (spans,
    /// kernel counters, exclusive per-phase timings). Tracing never
    /// affects the answer or the cache key; a traced cache hit traces
    /// only the lookup.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Declares the value factory that interned the constants of queries
    /// added via [`RequestBuilder::query`]. Defaults to a catalog-derived
    /// factory (which is also what [`RequestBuilder::query_text`] uses).
    ///
    /// Must be called **before** [`RequestBuilder::query_text`]: text
    /// disjuncts intern their constants into the factory in effect at parse
    /// time, so replacing it afterwards would silently re-map their ids.
    pub fn with_values(mut self, values: ValueFactory) -> Self {
        if self.deferred.is_none() && self.parsed_text {
            self.deferred = Some(ApiError::new(
                ApiErrorCode::InvalidRequest,
                "with_values must be called before query_text (parsed constants would be re-mapped)",
            ));
            return self;
        }
        self.values = Some(values);
        self
    }

    /// Validates and produces the request.
    ///
    /// Checks, in order: deferred parse errors, catalog existence, union
    /// non-emptiness, uniform answer arity across disjuncts, relation
    /// identity and arity of every atom, and that every free variable
    /// occurs in its disjunct's body.
    pub fn build(self) -> Result<AnswerRequest, ApiError> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        let sig = self.service.catalog_signature(self.catalog)?;
        if self.disjuncts.is_empty() {
            return Err(ApiError::new(
                ApiErrorCode::EmptyUnion,
                "a request needs at least one query disjunct",
            ));
        }
        let arity = self.disjuncts[0].free_vars().len();
        for (i, q) in self.disjuncts.iter().enumerate() {
            if q.free_vars().len() != arity {
                return Err(ApiError::new(
                    ApiErrorCode::UnionArityMismatch,
                    format!(
                        "disjunct {i} has {} answer variables, disjunct 0 has {arity}",
                        q.free_vars().len()
                    ),
                ));
            }
            for atom in q.atoms() {
                if atom.relation().index() >= sig.len() {
                    return Err(ApiError::new(
                        ApiErrorCode::UnknownRelation,
                        format!(
                            "disjunct {i} references relation id {} beyond the catalog's {} relations",
                            atom.relation().index(),
                            sig.len()
                        ),
                    ));
                }
                let declared = sig.arity(atom.relation());
                if atom.args().len() != declared {
                    return Err(ApiError::new(
                        ApiErrorCode::ArityMismatch,
                        format!(
                            "disjunct {i}: atom over `{}` has {} arguments, relation arity is {declared}",
                            sig.name(atom.relation()),
                            atom.args().len()
                        ),
                    ));
                }
            }
            let body_vars = q.all_variables();
            if let Some(v) = q.free_vars().iter().find(|v| !body_vars.contains(v)) {
                return Err(ApiError::new(
                    ApiErrorCode::UnboundFreeVariable,
                    format!(
                        "disjunct {i}: free variable `{}` does not occur in any body atom",
                        q.vars().name(*v)
                    ),
                ));
            }
        }
        let values = match self.values {
            Some(vf) => vf,
            None => self.service.catalog_values(self.catalog)?,
        };
        // Every constant must have been interned by the request's factory:
        // a query built on a foreign factory would otherwise have its
        // constant ids resolved against the wrong interner — a panic at
        // best, a silently wrong (and cached!) decision at worst. Only the
        // id range is checkable here; pairing queries with the factory
        // that actually interned them remains the caller's contract
        // (`query_text` guarantees it; `query` + `with_values` must).
        let interned = values.constant_count();
        for (i, q) in self.disjuncts.iter().enumerate() {
            if let Some(c) = q
                .constants()
                .iter()
                .find_map(|v| v.as_const().filter(|c| c.index() >= interned))
            {
                return Err(ApiError::new(
                    ApiErrorCode::UnknownConstant,
                    format!(
                        "disjunct {i} references constant id {} beyond the request factory's {interned} interned constants — build the query on a factory derived from catalog_values (or pass yours via with_values)",
                        c.index()
                    ),
                ));
            }
        }
        Ok(AnswerRequest {
            catalog: self.catalog,
            query: UnionOfConjunctiveQueries::from_disjuncts(self.disjuncts),
            values,
            mode: self.mode,
            options: self.options,
            exec: self.exec,
            trace: self.trace,
            deadline: None,
        })
    }

    /// Builds and submits the request in one step.
    pub fn submit(self) -> Result<AnswerResponse, ApiError> {
        let service = self.service;
        let request = self.build()?;
        service.submit(&request).map_err(ApiError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::{AccessMethod, Schema};
    use rbqa_common::{RelationId, Signature};
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::CqBuilder;

    fn university(bound: Option<usize>) -> (Schema, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        (schema, ValueFactory::new())
    }

    fn service_with_catalog() -> (QueryService, CatalogId) {
        let service = QueryService::new();
        let (schema, values) = university(Some(100));
        let id = service.register_catalog("uni", schema, values).unwrap();
        (service, id)
    }

    #[test]
    fn fluent_request_round_trip() {
        let (service, id) = service_with_catalog();
        let response = service
            .request(id)
            .query_text("Q() :- Udirectory(i, a, p)")
            .decide()
            .submit()
            .unwrap();
        assert!(response.is_answerable());
        let named = service
            .request_named("uni")
            .unwrap()
            .query_text("Q() :- Udirectory(row, addr, ph)")
            .submit()
            .unwrap();
        assert!(named.cache_hit, "α-variant through the builder is a hit");
    }

    #[test]
    fn union_text_splits_on_the_separator() {
        let (service, id) = service_with_catalog();
        let request = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, '10000') || Q(a) :- Udirectory(i, a, p)")
            .build()
            .unwrap();
        assert_eq!(request.query.len(), 2);
    }

    #[test]
    fn unknown_catalog_is_reported() {
        let service = QueryService::new();
        let err = service
            .request(CatalogId::from_index(5))
            .query_text("Q() :- R(x)")
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnknownCatalog);
        assert_eq!(
            service.request_named("nope").err().unwrap().code,
            ApiErrorCode::UnknownCatalog
        );
    }

    #[test]
    fn unknown_relation_and_arity_are_reported() {
        let (service, id) = service_with_catalog();
        let err = service
            .request(id)
            .query_text("Q() :- Nonexistent(x)")
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnknownRelation);
        assert!(err.detail.contains("Nonexistent"));

        let err = service
            .request(id)
            .query_text("Q() :- Prof(x, y)")
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::ArityMismatch);
    }

    #[test]
    fn hand_built_queries_are_validated() {
        let (service, id) = service_with_catalog();
        // Wrong arity on a known relation.
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let bad = b.atom(RelationId::from_index(0), vec![x.into()]).build();
        let err = service.request(id).query(bad).build().unwrap_err();
        assert_eq!(err.code, ApiErrorCode::ArityMismatch);

        // Free variable not bound by any atom.
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let unbound = b
            .free(y)
            .atom(
                RelationId::from_index(0),
                vec![x.into(), x.into(), x.into()],
            )
            .build();
        let err = service.request(id).query(unbound).build().unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnboundFreeVariable);

        // Relation id beyond the catalog.
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let foreign = b.atom(RelationId::from_index(9), vec![x.into()]).build();
        let err = service.request(id).query(foreign).build().unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnknownRelation);
    }

    #[test]
    fn empty_and_mismatched_unions_are_reported() {
        let (service, id) = service_with_catalog();
        let err = service.request(id).build().unwrap_err();
        assert_eq!(err.code, ApiErrorCode::EmptyUnion);

        let err = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, s) || Q() :- Udirectory(i, a, p)")
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnionArityMismatch);
    }

    #[test]
    fn disjunct_separator_inside_quoted_constants_is_preserved() {
        let (service, id) = service_with_catalog();
        // `||` inside a quoted constant is query content, not a disjunct
        // boundary.
        let request = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, 'a||b')")
            .build()
            .unwrap();
        assert_eq!(request.query.len(), 1);
        // And it still splits outside quotes, even with quoted constants
        // present.
        let request = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, 'a||b') || Q(a) :- Udirectory(i, a, p)")
            .build()
            .unwrap();
        assert_eq!(request.query.len(), 2);
    }

    #[test]
    fn foreign_factory_constants_are_rejected_not_misresolved() {
        let (service, id) = service_with_catalog();
        // A query whose constant was interned by a throwaway factory, paired
        // (by the default fallback) with a catalog-derived factory that has
        // interned nothing: the dangling ConstId must be an error, not a
        // panic or a silently wrong cached decision.
        let mut b = CqBuilder::new();
        let (i, n) = (b.var("i"), b.var("n"));
        let salary = b.constant("10000");
        let q = b
            .free(n)
            .atom(RelationId::from_index(0), vec![i.into(), n.into(), salary])
            .build();
        let err = service.request(id).query(q).submit().unwrap_err();
        assert_eq!(err.code, ApiErrorCode::UnknownConstant);

        // Replacing the factory *after* query_text parsed constants into the
        // previous one is rejected outright.
        let err = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, '10000')")
            .with_values(ValueFactory::new())
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::InvalidRequest);

        // The sanctioned orderings still work: with_values first, or a
        // catalog-derived factory for hand-built queries.
        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let q =
            rbqa_logic::parser::parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let response = service
            .request(id)
            .with_values(vf)
            .query(q)
            .submit()
            .unwrap();
        assert!(!response.is_answerable());
    }

    #[test]
    fn budget_and_mode_flow_into_the_request() {
        let (service, id) = service_with_catalog();
        let request = service
            .request(id)
            .query_text("Q() :- Udirectory(i, a, p)")
            .synthesize()
            .with_budget(Budget::small())
            .crawl_rounds(3)
            .build()
            .unwrap();
        assert_eq!(request.mode, RequestMode::Synthesize);
        assert_eq!(request.options.crawl_rounds, 3);
        assert!(request.effective_options().synthesize_plan);
    }

    #[test]
    fn adaptive_mode_flows_into_the_request_and_fingerprint() {
        use rbqa_service::AdaptiveMode;
        let (service, id) = service_with_catalog();
        let build = |mode: AdaptiveMode, exec_mode: bool| {
            let mut builder = service
                .request(id)
                .query_text("Q() :- Udirectory(i, a, p)")
                .adaptive(mode);
            if exec_mode {
                builder = builder.execute();
            }
            builder.build().unwrap()
        };
        let on = build(AdaptiveMode::On, true);
        assert_eq!(on.exec.adaptive, AdaptiveMode::On);
        // Off and on are two distinct Execute cache keys.
        let f_off = service
            .fingerprint_of(&build(AdaptiveMode::Off, true))
            .unwrap();
        let f_on = service.fingerprint_of(&on).unwrap();
        assert_ne!(f_off, f_on);
        // Decide normalises exec options away: the adaptive flag must not
        // fragment the decision cache.
        assert_eq!(
            service
                .fingerprint_of(&build(AdaptiveMode::Off, false))
                .unwrap(),
            service
                .fingerprint_of(&build(AdaptiveMode::On, false))
                .unwrap()
        );
    }

    #[test]
    fn backend_and_call_budget_flow_into_the_request_and_fingerprint() {
        let (service, id) = service_with_catalog();
        let build = |b: Option<BackendSpec>, budget: Option<usize>, exec_mode: bool| {
            let mut builder = service.request(id).query_text("Q() :- Udirectory(i, a, p)");
            if exec_mode {
                builder = builder.execute();
            }
            if let Some(b) = b {
                builder = builder.backend(b);
            }
            if let Some(k) = budget {
                builder = builder.call_budget(k);
            }
            builder.build().unwrap()
        };
        let sharded = build(Some(BackendSpec::Sharded { shards: 3 }), Some(25), true);
        assert_eq!(sharded.exec.backend, BackendSpec::Sharded { shards: 3 });
        assert_eq!(sharded.exec.call_budget, Some(25));
        // Different backend/budget choices are different Execute cache
        // keys.
        let default = build(None, None, true);
        let budgeted = build(None, Some(25), true);
        let f_default = service.fingerprint_of(&default).unwrap();
        let f_budgeted = service.fingerprint_of(&budgeted).unwrap();
        let f_sharded = service.fingerprint_of(&sharded).unwrap();
        assert_ne!(f_default, f_budgeted);
        assert_ne!(f_default, f_sharded);
        assert_ne!(f_budgeted, f_sharded);
        // Decide/Synthesize outcomes cannot depend on exec options, so
        // their fingerprints normalise them away: a stream-scoped
        // `option exec.*` must not fragment the decision cache.
        let decide_plain = build(None, None, false);
        let decide_sharded = build(Some(BackendSpec::Sharded { shards: 3 }), Some(25), false);
        assert_eq!(
            service.fingerprint_of(&decide_plain).unwrap(),
            service.fingerprint_of(&decide_sharded).unwrap()
        );
        // A zero-shard federation is rejected outright.
        let err = service
            .request(id)
            .query_text("Q() :- Udirectory(i, a, p)")
            .backend(BackendSpec::Sharded { shards: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err.code, ApiErrorCode::InvalidRequest);
    }
}
