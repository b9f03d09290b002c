//! The query-answering service facade.
//!
//! [`QueryService`] ties the pieces together: catalogs register schemas
//! once; requests are fingerprinted, looked up in the sharded decision
//! cache, and only on a miss is the full Table-1 decision pipeline
//! (classification → simplification → AMonDet containment → chase) run.
//! `Execute` requests additionally run the cached crawling plan against
//! the catalog's simulated services.
//!
//! Batches fan out over a scoped thread pool with work stealing; results
//! come back **in submission order** regardless of which worker finished
//! first, so batch responses are deterministic and positionally matched
//! to their requests.

use std::cell::Cell;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use rbqa_common::{Instance, ValueFactory};
use rbqa_core::{decide_monotone_answerability_union, DecisionSummary};
use rbqa_engine::PlanMetrics;
use rbqa_logic::{Atom, ConjunctiveQuery, Term, UnionOfConjunctiveQueries};
use rustc_hash::FxHashMap;

use crate::cache::{CacheOutcome, CacheStatsSnapshot, ShardedCache};
use crate::catalog::{CatalogEntry, CatalogId, CatalogRegistry};
use crate::fingerprint::{request_fingerprint, Fingerprint};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::request::{AnswerRequest, AnswerResponse, DisjunctFailure, RequestMode, ServiceError};
use crate::snapshot::{self, SnapshotStats};

/// Re-expresses a CQ's constants in another value space: every constant is
/// resolved to its string form in `from` and re-interned in `to`.
/// Variables are untouched. This is how the service keeps cached decisions
/// valid for every requester whose fingerprint matches, no matter which
/// factory built the request — and how any cross-factory component can
/// establish constant identity before comparing or evaluating queries.
pub fn rebase_cq_constants(
    query: &ConjunctiveQuery,
    from: &ValueFactory,
    to: &mut ValueFactory,
) -> ConjunctiveQuery {
    let atoms = query
        .atoms()
        .iter()
        .map(|atom| {
            let args = atom
                .args()
                .iter()
                .map(|term| match term {
                    Term::Const(v) => Term::Const(to.constant(&from.display(*v))),
                    Term::Var(v) => Term::Var(*v),
                })
                .collect();
            Atom::new(atom.relation(), args)
        })
        .collect();
    ConjunctiveQuery::new(query.vars().clone(), query.free_vars().to_vec(), atoms)
}

/// [`rebase_cq_constants`] lifted to a union: every disjunct is rebased
/// into the target value space, preserving disjunct order.
pub fn rebase_constants(
    union: &UnionOfConjunctiveQueries,
    from: &ValueFactory,
    to: &mut ValueFactory,
) -> UnionOfConjunctiveQueries {
    UnionOfConjunctiveQueries::from_disjuncts(
        union
            .disjuncts()
            .iter()
            .map(|q| rebase_cq_constants(q, from, to))
            .collect(),
    )
}

/// Drops α-equivalent duplicate disjuncts (keeping first occurrences), by
/// the same canonical codes the fingerprint hashes. The fingerprint
/// already identifies `Q ∨ Q'` with `Q` (for α-variants `Q'`), so the
/// *decision* must be computed over the deduplicated union too — otherwise
/// whichever spelling populates the shared cache entry dictates how many
/// times the pipeline runs, how many plans the entry carries, and how much
/// simulator work every later Execute performs.
fn dedup_disjuncts(
    union: UnionOfConjunctiveQueries,
    signature: &rbqa_common::Signature,
    values: &ValueFactory,
) -> UnionOfConjunctiveQueries {
    if union.len() <= 1 {
        return union;
    }
    let resolve = |v| values.display(v);
    let mut seen = std::collections::HashSet::new();
    UnionOfConjunctiveQueries::from_disjuncts(
        union
            .disjuncts()
            .iter()
            .filter(|q| seen.insert(rbqa_logic::canonical_query_code(q, signature, &resolve)))
            .cloned()
            .collect(),
    )
}

/// Sums two per-run plan metrics: union execution runs one plan per
/// disjunct and the response reports the aggregate (calls and tuples are
/// additive; the deprecated `within_rate_limit` flag is conjunctive).
fn merge_plan_metrics(mut acc: PlanMetrics, other: PlanMetrics) -> PlanMetrics {
    for (method, calls) in other.calls_per_method {
        *acc.calls_per_method.entry(method).or_insert(0) += calls;
    }
    acc.total_calls += other.total_calls;
    acc.tuples_fetched += other.tuples_fetched;
    acc.tuples_matched += other.tuples_matched;
    acc.truncated_accesses += other.truncated_accesses;
    acc.latency_micros += other.latency_micros;
    acc.wall_micros += other.wall_micros;
    acc.output_size += other.output_size;
    acc.within_rate_limit &= other.within_rate_limit;
    acc.retries += other.retries;
    acc.breaker_rejections += other.breaker_rejections;
    acc.accesses_skipped += other.accesses_skipped;
    acc.disjuncts_short_circuited += other.disjuncts_short_circuited;
    acc
}

/// Maps a plan-execution failure onto the service taxonomy: structured
/// backend errors (quota exhaustion, unavailability) keep their own stable
/// codes so clients can fail fast / retry appropriately; everything else
/// is a generic execution failure.
fn plan_error_to_service_error(e: rbqa_access::plan::PlanError) -> ServiceError {
    use rbqa_access::AccessError;
    match e {
        rbqa_access::plan::PlanError::Access(AccessError::BudgetExhausted { budget, calls }) => {
            ServiceError::BudgetExhausted { budget, calls }
        }
        rbqa_access::plan::PlanError::Access(AccessError::Unavailable { retryable, detail }) => {
            ServiceError::Unavailable { retryable, detail }
        }
        rbqa_access::plan::PlanError::DeadlineExceeded => ServiceError::DeadlineExceeded,
        other => ServiceError::Execution(other.to_string()),
    }
}

/// A cached decision: what one pipeline run leaves behind, shared by every
/// request whose fingerprint matches. Deliberately flat — the summary
/// carries everything the hit path serves (including the union's total
/// chase rounds), and `encoded` is the decision's snapshot form, built at
/// compute time while the constants' spellings are still at hand, so
/// persistence never needs the pipeline's intermediate state.
#[derive(Debug)]
pub struct CachedDecision {
    /// The flat decision summary served on hits.
    pub summary: DecisionSummary,
    /// The executable plan set — one plan per disjunct, in disjunct order —
    /// lifted out behind `Arc`s so responses can share it without touching
    /// the rest of the result. Empty when no complete plan set exists
    /// (plans not requested, some disjunct unanswerable alone, or a
    /// disjunct only rescued by the union).
    pub plans: Vec<Arc<rbqa_access::Plan>>,
    /// The snapshot-record payload for this decision
    /// ([`crate::snapshot::encode_decision`]).
    pub encoded: Vec<u8>,
}

/// Approximate resident bytes of one cached decision, for the cache's
/// byte budget. The encoded snapshot payload is an honest proxy for the
/// heap data (the same strings and vectors dominate both forms); the
/// multiplier covers the in-memory `Vec`/`Arc`/enum overhead.
fn decision_cost(decision: &CachedDecision) -> usize {
    std::mem::size_of::<CachedDecision>() + decision.encoded.len() * 4
}

/// Tuning knobs for [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of cache shards (lock domains).
    pub cache_shards: usize,
    /// Maximum worker threads a batch may fan out over.
    pub max_batch_threads: usize,
    /// Decision-cache byte budget (`None` = unbounded). Adjustable later
    /// via [`QueryService::set_cache_budget`] / `option cache.bytes`.
    pub cache_bytes: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_shards: 16,
            max_batch_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_bytes: None,
        }
    }
}

/// The concurrent, caching query-answering service (DESIGN.md §6).
pub struct QueryService {
    catalogs: RwLock<CatalogRegistry>,
    cache: ShardedCache<CachedDecision>,
    /// Snapshot records loaded at startup but not yet claimed by a
    /// request. Records stay encoded (catalogs may not exist yet when the
    /// snapshot loads); the first miss on a matching fingerprint decodes
    /// its record instead of running the pipeline — a *warm hit*.
    warm: Mutex<FxHashMap<u128, Vec<u8>>>,
    metrics: ServiceMetrics,
    config: ServiceConfig,
}

impl Default for QueryService {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryService {
    /// A service with default configuration.
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit configuration.
    pub fn with_config(config: ServiceConfig) -> Self {
        QueryService {
            catalogs: RwLock::new(CatalogRegistry::new()),
            cache: ShardedCache::with_shards(config.cache_shards)
                .with_cost_fn(Box::new(decision_cost))
                .with_budget(config.cache_bytes),
            warm: Mutex::new(FxHashMap::default()),
            metrics: ServiceMetrics::new(),
            config,
        }
    }

    /// Registers a schema (with its constraints and the factory that
    /// interned its constants) under a unique name.
    pub fn register_catalog(
        &self,
        name: &str,
        schema: rbqa_access::Schema,
        values: ValueFactory,
    ) -> Result<CatalogId, ServiceError> {
        let entry = CatalogEntry::new(name, schema, values);
        self.catalogs
            .write()
            .expect("catalog registry poisoned")
            .register(entry)
            .map_err(ServiceError::DuplicateCatalog)
    }

    /// Attaches (or replaces) the dataset served by a catalog's simulated
    /// services, enabling `Execute`-mode requests.
    pub fn attach_dataset(&self, id: CatalogId, data: Instance) -> Result<(), ServiceError> {
        let mut registry = self.catalogs.write().expect("catalog registry poisoned");
        let entry = registry.get(id).ok_or(ServiceError::UnknownCatalog(id))?;
        let replaced = registry.replace(id, entry.with_dataset(data));
        debug_assert!(replaced);
        Ok(())
    }

    /// Looks a catalog up by name.
    pub fn catalog_by_name(&self, name: &str) -> Option<CatalogId> {
        self.catalogs
            .read()
            .expect("catalog registry poisoned")
            .by_name(name)
            .map(|(id, _)| id)
    }

    /// A clone of the catalog's value factory. Build request queries on
    /// top of this so constants shared with the catalog keep their ids.
    /// The catalog's constants are frozen and shared, so the clone copies
    /// none of them; only the constants it interns later are its own.
    pub fn catalog_values(&self, id: CatalogId) -> Result<ValueFactory, ServiceError> {
        Ok(self.entry(id)?.values.clone())
    }

    /// A clone of the catalog's schema signature, for parsing queries.
    pub fn catalog_signature(&self, id: CatalogId) -> Result<rbqa_common::Signature, ServiceError> {
        Ok(self.entry(id)?.schema.signature().clone())
    }

    fn entry(&self, id: CatalogId) -> Result<Arc<CatalogEntry>, ServiceError> {
        self.catalogs
            .read()
            .expect("catalog registry poisoned")
            .get(id)
            .ok_or(ServiceError::UnknownCatalog(id))
    }

    /// Current metrics, with the cache's budget-discipline block filled
    /// in from the live cache counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.cache.stats();
        snap.cache_budget_bytes = cache.budget_bytes;
        snap.cache_occupancy_bytes = cache.occupancy_bytes;
        snap.cache_entries = cache.entries;
        snap.cache_evictions = cache.evictions;
        snap.cache_bytes_evicted = cache.bytes_evicted;
        snap.cache_uncacheable = cache.uncacheable;
        snap
    }

    /// The full latency distribution of one request mode (microseconds).
    /// The Copy-friendly [`MetricsSnapshot`] carries only the p50/p95/p99
    /// summaries; this exposes the whole histogram for reports.
    pub fn latency_histogram(&self, mode: RequestMode) -> rbqa_obs::HistogramSnapshot {
        self.metrics.latency_histogram(mode)
    }

    /// Number of distinct cached decisions.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops all cached decisions (catalogs stay registered).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Re-points the decision cache's byte budget (`None` = unbounded).
    /// Shrinking below current occupancy evicts LRU-first until it fits.
    pub fn set_cache_budget(&self, bytes: Option<u64>) {
        self.cache.set_budget(bytes);
    }

    /// The decision cache's configured byte budget.
    pub fn cache_budget(&self) -> Option<u64> {
        self.cache.budget()
    }

    /// The decision cache's budget-discipline counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// Snapshot records loaded from disk but not yet claimed by a request.
    pub fn warm_pending(&self) -> usize {
        self.warm.lock().expect("warm store poisoned").len()
    }

    /// Loads a cache snapshot into the warm store. Records stay encoded
    /// until a request with a matching fingerprint claims one (catalogs
    /// need not be registered yet). Damaged records were already skipped
    /// by the reader; an undecodable payload is quietly recomputed later.
    /// The only `Err` is file-level I/O (missing file = cold start).
    pub fn load_snapshot(&self, path: &Path) -> std::io::Result<SnapshotStats> {
        let (records, stats) = snapshot::read_snapshot(path)?;
        let mut warm = self.warm.lock().expect("warm store poisoned");
        warm.extend(records);
        Ok(stats)
    }

    /// Writes the cache to a snapshot file (atomic temp + rename): every
    /// resident decision plus any still-unclaimed warm records, so a short
    /// session never throws away warmth it didn't happen to touch.
    pub fn save_snapshot(&self, path: &Path) -> std::io::Result<SnapshotStats> {
        let resident = self.cache.ready_entries();
        let warm = self.warm.lock().expect("warm store poisoned");
        let mut records: Vec<(u128, &[u8])> = Vec::with_capacity(warm.len() + resident.len());
        // Unclaimed warm records first, live entries after: on load,
        // later records win compaction.
        for (fingerprint, payload) in warm.iter() {
            records.push((*fingerprint, payload.as_slice()));
        }
        for (fingerprint, decision) in &resident {
            records.push((fingerprint.0, decision.encoded.as_slice()));
        }
        snapshot::write_snapshot(path, &records)
    }

    /// The cache key of a request against a resolved catalog entry: the
    /// single place fingerprints are computed, shared by
    /// [`QueryService::fingerprint_of`] and [`QueryService::submit`].
    fn fingerprint_for(
        entry: &CatalogEntry,
        request: &AnswerRequest,
        options: &rbqa_core::AnswerabilityOptions,
    ) -> Fingerprint {
        request_fingerprint(
            entry.fingerprint,
            &request.query,
            entry.schema.signature(),
            &|v| request.values.display(v),
            options,
            &request.effective_exec(),
        )
    }

    /// Computes the fingerprint a request would be cached under (exposed
    /// for tests and observability; `submit` uses the same computation).
    pub fn fingerprint_of(&self, request: &AnswerRequest) -> Result<Fingerprint, ServiceError> {
        let entry = self.entry(request.catalog)?;
        Ok(Self::fingerprint_for(
            &entry,
            request,
            &request.effective_options(),
        ))
    }

    /// Serves one request.
    ///
    /// When [`AnswerRequest::trace`] is set, the whole pipeline runs
    /// under a per-thread [`rbqa_obs::Tracer`] and the harvested
    /// [`rbqa_obs::Trace`] is attached to the response. The tracer is
    /// uninstalled on *every* exit path (including mid-pipeline errors
    /// such as `BudgetExhausted`), so a failing traced request never
    /// leaks an armed tracer into the next request served by this
    /// thread.
    pub fn submit(&self, request: &AnswerRequest) -> Result<AnswerResponse, ServiceError> {
        // Arm the cooperative deadline for the whole request, on *this*
        // thread (batch workers each arm their own). The guard restores
        // any enclosing deadline on every exit path; nested arms keep
        // whichever deadline is tighter.
        let _deadline = request.deadline.map(rbqa_obs::arm_deadline);
        let result = if !request.trace {
            self.submit_inner(request)
        } else {
            rbqa_obs::install(rbqa_obs::Tracer::new());
            let result = self.submit_inner(request);
            let trace = rbqa_obs::uninstall();
            result.map(|mut response| {
                response.trace = trace;
                response
            })
        };
        if matches!(result, Err(ServiceError::DeadlineExceeded)) {
            self.metrics.record_timeout();
        }
        result
    }

    /// Claims (removes) the warm snapshot record for a fingerprint, if
    /// one was loaded.
    fn take_warm(&self, fingerprint: Fingerprint) -> Option<Vec<u8>> {
        self.warm
            .lock()
            .expect("warm store poisoned")
            .remove(&fingerprint.0)
    }

    fn submit_inner(&self, request: &AnswerRequest) -> Result<AnswerResponse, ServiceError> {
        let start = Instant::now();
        request.validate_shape()?;
        let entry = self.entry(request.catalog)?;
        let options = request.effective_options();
        let fingerprint = Self::fingerprint_for(&entry, request, &options);

        let warm = Cell::new(false);
        let (decision, outcome) = self.cache.get_or_try_compute(
            fingerprint,
            || {
                // Miss path: the only place the decision pipeline (and hence
                // the chase) runs. Fingerprints are deliberately independent
                // of the requester's ValueFactory (constants are resolved to
                // strings), so the cached artifact must be too: rebase the
                // query's constants onto the *catalog's* value space before
                // deciding. Otherwise the first requester's interner ids
                // would be baked into a result served to every α-equivalent
                // requester — wrong whenever the factories disagree (e.g.
                // Execute against catalog data, or constraints with
                // constants).
                let mut values = entry.values.clone();
                // Warm path: a snapshot record with this fingerprint replaces
                // the pipeline run entirely — decode (re-interning constants
                // into the catalog's value space, exactly like the rebase
                // below) and serve. An undecodable record falls through to a
                // genuine compute.
                if let Some(encoded) = self.take_warm(fingerprint) {
                    if let Some((summary, plans)) = snapshot::decode_decision(&encoded, &mut values)
                    {
                        warm.set(true);
                        return Ok(CachedDecision {
                            summary,
                            plans,
                            encoded,
                        });
                    }
                }
                let query = rebase_constants(&request.query, &request.values, &mut values);
                // Canonical-dedup before deciding, mirroring the fingerprint:
                // the cached artifact for `Q ∨ Qα` must be the artifact for `Q`.
                let query = dedup_disjuncts(query, entry.schema.signature(), &values);
                let result = decide_monotone_answerability_union(
                    &entry.schema,
                    &query,
                    &mut values,
                    &options,
                );
                // A deadline that expired mid-pipeline truncated the chase
                // (the engines abort cooperatively between rounds), so the
                // summary may claim exhaustion it never proved. Abandon it:
                // the `Err` vacates the in-flight slot — nothing partial is
                // ever cached — and a waiter or retry recomputes from
                // scratch.
                if rbqa_obs::deadline_expired() {
                    return Err(ServiceError::DeadlineExceeded);
                }
                let plans: Vec<Arc<rbqa_access::Plan>> = result
                    .union_plans()
                    .map(|plans| plans.into_iter().cloned().map(Arc::new).collect())
                    .unwrap_or_default();
                // `summary()` folds the union's total chase rounds in, so the
                // flat summary is all the hit path (and the snapshot) needs.
                let summary = result.summary();
                let encoded = snapshot::encode_decision(&summary, &plans, &|v| values.display(v));
                Ok(CachedDecision {
                    summary,
                    plans,
                    encoded,
                })
            },
            // Waiters that run out of deadline while an unrelated thread
            // computes give up with the same timeout error.
            || ServiceError::DeadlineExceeded,
        )?;
        let rounds_skipped = decision.summary.chase_rounds;
        match outcome {
            CacheOutcome::Miss if warm.get() => self.metrics.record_warm_hit(rounds_skipped),
            CacheOutcome::Miss => self.metrics.record_miss(),
            CacheOutcome::Hit => self.metrics.record_hit(false, rounds_skipped),
            CacheOutcome::Coalesced => self.metrics.record_hit(true, rounds_skipped),
        }

        let summary = decision.summary;
        let plans = match request.mode {
            RequestMode::Decide => Vec::new(),
            RequestMode::Synthesize | RequestMode::Execute => decision.plans.clone(),
        };

        let (rows, plan_metrics, partial) = if request.mode == RequestMode::Execute {
            if plans.is_empty() {
                return Err(ServiceError::NoPlan);
            }
            let simulator = entry
                .simulator
                .as_ref()
                .ok_or_else(|| ServiceError::NoDataset(entry.name.clone()))?;
            let mut rows: Vec<Vec<rbqa_common::Value>> = Vec::new();
            let mut metrics: Option<PlanMetrics> = None;
            let mut failures: Vec<DisjunctFailure> = Vec::new();
            let mut first_error: Option<ServiceError> = None;
            // One backend + one call-budget window serves every disjunct
            // plan: `call_budget` caps the request's total accesses, not
            // each plan's.
            let plan_refs: Vec<&rbqa_access::Plan> = plans.iter().map(|p| p.as_ref()).collect();
            let (runs, resilience) = simulator
                .run_plans_exec_results(&plan_refs, &request.exec)
                .map_err(plan_error_to_service_error)?;
            // The window's retries and breaker sheds count whether or not
            // its plans succeed, so record them before any error return.
            self.metrics
                .record_resilience(resilience.retries, resilience.breaker_rejections);
            for (index, run) in runs.into_iter().enumerate() {
                match run {
                    Ok((plan_rows, plan_metrics)) => {
                        rows.extend(plan_rows);
                        metrics = Some(match metrics {
                            None => plan_metrics,
                            Some(acc) => merge_plan_metrics(acc, plan_metrics),
                        });
                    }
                    Err(e) => {
                        let error = plan_error_to_service_error(e);
                        // A deadline abort is request-global, never a
                        // per-disjunct degradation: partial rows from a
                        // timed-out request would be indistinguishable
                        // from a complete answer that happens to be small.
                        if error == ServiceError::DeadlineExceeded || !request.exec.degraded {
                            return Err(error);
                        }
                        failures.push(DisjunctFailure {
                            plan_index: index,
                            code: error.code(),
                            detail: error.to_string(),
                        });
                        first_error.get_or_insert(error);
                    }
                }
            }
            // Degraded mode rescues a union only when something survived:
            // if every disjunct faulted there are no rows to serve and the
            // first failure is the honest answer.
            let Some(merged) = metrics else {
                return Err(first_error.expect("a failed Execute run recorded its error"));
            };
            // Union semantics: deduplicated, sorted answers (matching
            // `UnionOfConjunctiveQueries::evaluate`). Applied even for a
            // single plan so that the rows of a cached entry never depend
            // on which α-equivalent spelling populated it (the cached plan
            // set mirrors the *first* requester's disjunct list — e.g.
            // `Q ∨ Q` and `Q` share one fingerprint but synthesise
            // different plan counts).
            rows.sort();
            rows.dedup();
            self.metrics.record_execution();
            let partial = if failures.is_empty() {
                None
            } else {
                self.metrics.record_degraded();
                Some(failures)
            };
            (Some(rows), Some(merged), partial)
        } else {
            (None, None, None)
        };

        let micros = start.elapsed().as_micros();
        self.metrics.record_latency(request.mode, micros);
        Ok(AnswerResponse {
            fingerprint,
            // A warm-store decode skipped the pipeline just like a
            // resident hit did; clients (and the load harness) read
            // `cache_hit` as "no chase ran for this request".
            cache_hit: outcome != CacheOutcome::Miss || warm.get(),
            summary,
            plans,
            rows,
            plan_metrics,
            micros,
            trace: None,
            partial,
        })
    }

    /// Serves a batch of requests concurrently.
    ///
    /// Requests fan out over `min(batch_len, max_batch_threads)` scoped
    /// worker threads with atomic work stealing; the returned vector is
    /// index-aligned with the input (`responses[i]` answers
    /// `requests[i]`), so ordering is deterministic even though execution
    /// order is not. Identical or α-equivalent requests inside one batch
    /// are coalesced by the cache: the decision pipeline runs once.
    pub fn submit_batch(
        &self,
        requests: &[AnswerRequest],
    ) -> Vec<Result<AnswerResponse, ServiceError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = self.config.max_batch_threads.max(1).min(requests.len());
        if workers == 1 {
            return requests.iter().map(|r| self.submit(r)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<AnswerResponse, ServiceError>>>> =
            Mutex::new((0..requests.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Each worker drains its answers into a local buffer
                    // first, taking the shared results lock once.
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        local.push((i, self.submit(&requests[i])));
                    }
                    let mut results = results.lock().expect("batch results poisoned");
                    for (i, response) in local {
                        results[i] = Some(response);
                    }
                });
            }
        });
        results
            .into_inner()
            .expect("batch results poisoned")
            .into_iter()
            .map(|slot| slot.expect("every request index was claimed by a worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::AccessMethod;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::parse_cq;

    fn university(bound: Option<usize>) -> (rbqa_access::Schema, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = rbqa_access::Schema::with_parts(sig, constraints, vec![]).unwrap();
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

    #[test]
    fn rebase_constants_establishes_cross_factory_identity() {
        // Two factories intern the same constant names at different ids;
        // after rebasing, the query's constants are *identical* (same
        // `Value`) to the target factory's, so instance evaluation and
        // chase seeding work unchanged.
        let mut sig = Signature::new();
        let mut foreign = ValueFactory::new();
        foreign.constant("padding0");
        foreign.constant("padding1");
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut foreign).unwrap();
        let q2 = parse_cq(
            "Q() :- Udirectory('10000', a, '555')",
            &mut sig,
            &mut foreign,
        )
        .unwrap();

        let mut catalog = ValueFactory::new();
        let ten_k = catalog.constant("10000");
        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1.clone(), q2.clone()]);
        let rebased = rebase_constants(&union, &foreign, &mut catalog);

        assert_eq!(rebased.len(), 2);
        // Both disjuncts now reference the catalog's '10000'.
        assert_eq!(rebased.disjuncts()[0].constants(), vec![ten_k]);
        assert!(rebased.disjuncts()[1].constants().contains(&ten_k));
        // The original ids disagreed (padding shifted them).
        assert_ne!(q1.constants(), rebased.disjuncts()[0].constants());
        // Structure (relations, variables, free vars) is untouched.
        assert_eq!(
            rebased.disjuncts()[0].free_vars(),
            q1.free_vars(),
            "only constants are rewritten"
        );
        // Every constant resolves to the same string in the new space.
        assert_eq!(catalog.display(ten_k), "10000");
    }

    #[test]
    fn union_requests_share_cache_entries_and_execute_unions() {
        let service = QueryService::new();
        let (schema, values) = university(None);
        let id = service.register_catalog("uni", schema, values).unwrap();
        let make_union = |texts: [&str; 2]| {
            let mut vf = service.catalog_values(id).unwrap();
            let mut sig = service.catalog_signature(id).unwrap();
            let disjuncts = texts
                .iter()
                .map(|t| parse_cq(t, &mut sig, &mut vf).unwrap())
                .collect();
            (UnionOfConjunctiveQueries::from_disjuncts(disjuncts), vf)
        };
        let (u1, vf1) = make_union(["Q(n) :- Prof(i, n, '10000')", "Q(a) :- Udirectory(i, a, p)"]);
        // α-renamed and disjunct-permuted.
        let (u2, vf2) = make_union([
            "Q(ad) :- Udirectory(row, ad, ph)",
            "Q(nm) :- Prof(pid, nm, '10000')",
        ]);
        let first = service
            .submit(&AnswerRequest::decide_union(id, u1, vf1))
            .unwrap();
        let second = service
            .submit(&AnswerRequest::decide_union(id, u2, vf2))
            .unwrap();
        assert!(first.is_answerable());
        assert!(!first.cache_hit);
        assert!(second.cache_hit, "permuted α-variant union is a hit");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(service.metrics().decisions_computed, 1);
    }

    #[test]
    fn duplicate_disjuncts_decide_and_cache_as_the_single_query() {
        // `Q ∨ Qα` fingerprints as `Q` — and must also *decide* as `Q`:
        // one pipeline run, one plan, so a later plain-`Q` requester
        // hitting the shared entry sees a single-disjunct artifact.
        let service = QueryService::new();
        let (schema, values) = university(None);
        let id = service.register_catalog("uni", schema, values).unwrap();
        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let q = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let q_alpha = parse_cq("Q(nm) :- Prof(pid, nm, '10000')", &mut sig, &mut vf).unwrap();

        let doubled = service
            .submit(&AnswerRequest::synthesize_union(
                id,
                UnionOfConjunctiveQueries::from_disjuncts(vec![q.clone(), q_alpha]),
                vf.clone(),
            ))
            .unwrap();
        assert!(doubled.is_answerable());
        assert_eq!(
            doubled.plans.len(),
            1,
            "duplicates collapse before synthesis"
        );

        let single = service
            .submit(&AnswerRequest::synthesize(id, q, vf))
            .unwrap();
        assert!(single.cache_hit, "Q rides the Q ∨ Qα entry");
        assert_eq!(single.fingerprint, doubled.fingerprint);
        assert!(single.plan().is_some(), "single-plan accessor works");
        assert_eq!(service.metrics().decisions_computed, 1);
    }

    #[test]
    fn degenerate_unions_are_rejected() {
        let service = QueryService::new();
        let (schema, values) = university(None);
        let id = service.register_catalog("uni", schema, values).unwrap();
        let vf = service.catalog_values(id).unwrap();
        let empty = AnswerRequest::decide_union(id, UnionOfConjunctiveQueries::new(), vf.clone());
        assert!(matches!(
            service.submit(&empty),
            Err(ServiceError::EmptyUnion)
        ));
        let mut sig = service.catalog_signature(id).unwrap();
        let mut vf2 = vf.clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, s)", &mut sig, &mut vf2).unwrap();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf2).unwrap();
        let mixed = AnswerRequest::decide_union(
            id,
            UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]),
            vf2,
        );
        assert!(matches!(
            service.submit(&mixed),
            Err(ServiceError::UnionArityMismatch)
        ));
    }

    #[test]
    fn decide_and_cache_roundtrip() {
        let service = QueryService::new();
        let (schema, values) = university(Some(100));
        let id = service.register_catalog("uni", schema, values).unwrap();

        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let request = AnswerRequest::decide(id, q, vf);

        let first = service.submit(&request).unwrap();
        assert!(first.is_answerable());
        assert!(!first.cache_hit);
        let second = service.submit(&request).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(service.cache_len(), 1);
        let m = service.metrics();
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.decisions_computed, 1);
    }

    #[test]
    fn unknown_catalog_is_an_error() {
        let service = QueryService::new();
        let mut b = rbqa_logic::CqBuilder::new();
        let x = b.var("x");
        let q = b
            .atom(rbqa_common::RelationId::from_index(0), vec![x.into()])
            .build();
        let request = AnswerRequest::decide(CatalogId::from_index(3), q, ValueFactory::new());
        assert!(matches!(
            service.submit(&request),
            Err(ServiceError::UnknownCatalog(_))
        ));
    }

    #[test]
    fn duplicate_catalog_names_rejected() {
        let service = QueryService::new();
        let (schema, values) = university(None);
        service
            .register_catalog("uni", schema.clone(), values.clone())
            .unwrap();
        assert!(matches!(
            service.register_catalog("uni", schema, values),
            Err(ServiceError::DuplicateCatalog(_))
        ));
        assert!(service.catalog_by_name("uni").is_some());
        assert!(service.catalog_by_name("other").is_none());
    }

    #[test]
    fn execute_without_dataset_fails_cleanly() {
        let service = QueryService::new();
        let (schema, values) = university(None);
        let id = service.register_catalog("uni", schema, values).unwrap();
        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let request = AnswerRequest::execute(id, q, vf);
        assert!(matches!(
            service.submit(&request),
            Err(ServiceError::NoDataset(_))
        ));
    }

    #[test]
    fn clear_cache_forces_recompute() {
        let service = QueryService::new();
        let (schema, values) = university(Some(100));
        let id = service.register_catalog("uni", schema, values).unwrap();
        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let request = AnswerRequest::decide(id, q, vf);
        service.submit(&request).unwrap();
        service.clear_cache();
        assert_eq!(service.cache_len(), 0);
        let again = service.submit(&request).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(service.metrics().decisions_computed, 2);
    }

    #[test]
    fn batch_preserves_order() {
        let service = QueryService::new();
        let (schema, values) = university(Some(100));
        let id = service.register_catalog("uni", schema, values).unwrap();
        let mut vf = service.catalog_values(id).unwrap();
        let mut sig = service.catalog_signature(id).unwrap();
        let answerable = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let not_answerable = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let mut requests = Vec::new();
        for k in 0..12 {
            let q = if k % 2 == 0 {
                answerable.clone()
            } else {
                not_answerable.clone()
            };
            requests.push(AnswerRequest::decide(id, q, vf.clone()));
        }
        let responses = service.submit_batch(&requests);
        assert_eq!(responses.len(), 12);
        for (k, response) in responses.iter().enumerate() {
            let response = response.as_ref().unwrap();
            assert_eq!(response.is_answerable(), k % 2 == 0, "slot {k}");
        }
        // Two distinct decision shapes → exactly two pipeline runs.
        assert_eq!(service.metrics().decisions_computed, 2);
    }
}
