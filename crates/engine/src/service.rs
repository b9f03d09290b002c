//! A simulated web-service stack built on pluggable access backends.
//!
//! [`ServiceSimulator`] hides an [`Instance`] behind the access methods of
//! a [`Schema`] and executes plans against it through any
//! [`AccessBackend`]: the in-memory [`InstanceBackend`] (the paper's
//! access-selection semantics), a [`SimulatedRemoteBackend`] with seeded
//! latency and faults, or a [`ShardedBackend`] federation over hash
//! partitions of the hidden data. [`ExecOptions`] names the backend and a
//! per-run call budget so higher layers (`rbqa-service`, the wire
//! protocol) can select them declaratively — and fingerprint the choice.
//!
//! Call budgets are **hard**: a window that exceeds
//! [`ExecOptions::call_budget`] fails fast with
//! [`rbqa_access::AccessError::BudgetExhausted`] (surfaced as
//! `PlanError::Access`) instead of completing and setting a soft flag.

use rbqa_access::backend::{
    AccessBackend, BudgetedBackend, InstanceBackend, RemoteProfile, ShardedBackend,
    SimulatedRemoteBackend,
};
use rbqa_access::plan::{
    execute_plan_adaptive, execute_with_backend, AdaptiveWindow, PlanError, PlanRun,
};
use rbqa_access::{
    AccessSelection, BreakerPolicy, Plan, ResilienceStats, ResilientBackend, RetryPolicy, Schema,
    TruncatingSelection,
};
use rbqa_common::{Instance, Value};
use rustc_hash::FxHashMap;

/// Upper bound on the shard count a request may name. Building a sharded
/// backend allocates one instance per shard before any access runs, so an
/// unchecked wire-supplied count would be a one-line memory bomb; 64
/// comfortably covers every realistic federation at simulator scale.
pub const MAX_SHARDS: usize = 64;

/// Upper bound on the simulated base latency per call a request may name
/// (one minute). Latency is accounted, not slept, and summed in `u64`
/// per access and per window, so an unchecked wire-supplied value would
/// overflow those sums.
pub const MAX_LATENCY_MICROS: u64 = 60_000_000;

/// Which data-source backend executes a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// The in-memory instance with the deterministic truncating selection.
    #[default]
    Instance,
    /// A simulated remote service over the instance: deterministic seeded
    /// latency accounting and fault injection. It never retries; see
    /// [`ExecOptions::retry`].
    SimulatedRemote {
        /// Seed of the latency/fault stream.
        seed: u64,
        /// Base per-call latency, microseconds (`0..=MAX_LATENCY_MICROS`).
        latency_micros: u64,
        /// Percentage (0–100) of calls that fault, one draw per call.
        fault_rate_pct: u8,
        /// Whether surfaced faults are *transient*: retryable, with a
        /// per-access attempt cursor so a later retry of the same access
        /// draws fresh fault coins instead of replaying the same one.
        transient: bool,
    },
    /// A sharded federation: the instance hash-partitioned across N child
    /// backends, every access fanned out and merged.
    Sharded {
        /// Number of shards (`1..=MAX_SHARDS`).
        shards: usize,
    },
}

impl BackendSpec {
    /// A canonical, stable code for fingerprints and reports.
    pub fn code(&self) -> String {
        match self {
            BackendSpec::Instance => "instance".to_owned(),
            BackendSpec::SimulatedRemote {
                seed,
                latency_micros,
                fault_rate_pct,
                transient,
            } => {
                // The suffix appears only when set, keeping every
                // pre-existing fingerprint byte-identical.
                let t = if *transient { ":transient" } else { "" };
                format!("remote:{seed}:{latency_micros}:{fault_rate_pct}{t}")
            }
            BackendSpec::Sharded { shards } => format!("sharded:{shards}"),
        }
    }
}

/// Declarative execution options for a plan run: the backend, an optional
/// per-run call budget, and the resilience envelope (retry policy,
/// circuit breaker, degraded-union tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// The backend to execute against.
    pub backend: BackendSpec,
    /// Hard cap on the total number of accesses one execution window may
    /// perform — every disjunct plan of a union shares it, as they would
    /// share a real service's quota; the over-quota call fails with
    /// `BudgetExhausted` and the window returns **no rows**.
    pub call_budget: Option<usize>,
    /// Retry policy of the [`ResilientBackend`] wrapping the whole
    /// execution window, the only place an access is ever retried.
    /// `None` = no retries: every fault surfaces on first occurrence.
    /// Each retry is one more call and spends call budget like a first
    /// attempt: the budget sits *beneath* the resilient decorator, as a
    /// real quota would, so a window that succeeds needs a budget of its
    /// logical calls plus its retries.
    pub retry: Option<RetryPolicy>,
    /// Per-method circuit breaker on the same window. Requires nothing
    /// of `retry` (a breaker without retries still sheds load); `None` =
    /// no breaker.
    pub breaker: Option<BreakerPolicy>,
    /// Union Execute only: tolerate per-disjunct failures, returning the
    /// rows of the disjuncts that succeeded plus a `partial` report of
    /// those that didn't. Off by default — then any disjunct failure
    /// fails the whole request.
    pub degraded: bool,
    /// Adaptive execution: a per-window `(method, binding)` memo and the
    /// identical-disjunct short-circuit. Off by default — then plans
    /// execute naively, byte-identical to the historical behaviour.
    pub adaptive: AdaptiveMode,
}

/// Declarative adaptive-execution mode, carried by [`ExecOptions`] and
/// fingerprinted through [`ExecOptions::code`] (an `|adaptive` segment
/// appends only for `On`, keeping historical fingerprints byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptiveMode {
    /// Naive execution (the historical behaviour, and the default).
    #[default]
    Off,
    /// Adaptive execution: every plan of the window runs through
    /// [`execute_plan_adaptive`] with one shared [`AdaptiveWindow`], and
    /// a disjunct identical to an earlier successful one reuses its rows.
    On,
}

impl ExecOptions {
    /// Options selecting a backend with no extra call budget.
    pub fn with_backend(backend: BackendSpec) -> Self {
        ExecOptions {
            backend,
            ..ExecOptions::default()
        }
    }

    /// A canonical, stable code for cache fingerprints: two requests with
    /// different exec codes must not share a cached Execute artifact.
    /// Resilience segments append **only when non-default**, so every
    /// fingerprint computed before they existed is unchanged.
    pub fn code(&self) -> String {
        let budget = match self.call_budget {
            None => "none".to_owned(),
            Some(k) => k.to_string(),
        };
        let mut code = format!("backend:{}|calls:{budget}", self.backend.code());
        if let Some(retry) = &self.retry {
            code.push_str(&format!("|retry:{}", retry.code()));
        }
        if let Some(breaker) = &self.breaker {
            code.push_str(&format!("|breaker:{}", breaker.code()));
        }
        if self.degraded {
            code.push_str("|degraded");
        }
        if self.adaptive == AdaptiveMode::On {
            code.push_str("|adaptive");
        }
        code
    }
}

/// One plan run's result: the output rows plus the collected metrics.
pub type PlanRunResult = (Vec<Vec<Value>>, PlanMetrics);

/// Execution metrics for one plan run against the simulated services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMetrics {
    /// Number of accesses performed, per method name.
    pub calls_per_method: FxHashMap<String, usize>,
    /// Total number of accesses performed.
    pub total_calls: usize,
    /// Total number of tuples returned by the services.
    pub tuples_fetched: usize,
    /// Total number of tuples that matched at the source (result bounds
    /// dropped `tuples_matched - tuples_fetched` of them).
    pub tuples_matched: usize,
    /// Number of accesses truncated by a result bound.
    pub truncated_accesses: usize,
    /// Total simulated backend latency, microseconds (0 for the in-memory
    /// backend).
    pub latency_micros: u64,
    /// Wall-clock time of the plan run, microseconds (real elapsed time,
    /// as opposed to the backend's simulated cost model).
    pub wall_micros: u64,
    /// Number of rows in the plan's output.
    pub output_size: usize,
    /// Whether the run stayed within its call budget. Since over-quota
    /// runs fail fast with `BudgetExhausted`, this is `true` for every
    /// completed run; the field is kept for wire compatibility.
    pub within_rate_limit: bool,
    /// Retry attempts the resilience wrapper spent on this plan's
    /// accesses (0 without [`ExecOptions::retry`]).
    pub retries: u64,
    /// Accesses rejected by an open circuit breaker during this plan
    /// (0 without [`ExecOptions::breaker`]).
    pub breaker_rejections: u64,
    /// Binding-level accesses answered without a backend call: window
    /// memo hits, or all of a short-circuited disjunct's accesses (0 on
    /// the naive path).
    pub accesses_skipped: usize,
    /// 1 when this disjunct was short-circuited because an identical plan
    /// already succeeded in the same window (0 on the naive path).
    pub disjuncts_short_circuited: usize,
}

impl PlanMetrics {
    fn from_run(run: PlanRun) -> PlanRunResult {
        let metrics = PlanMetrics {
            calls_per_method: run.calls_per_method,
            total_calls: run.accesses_performed,
            tuples_fetched: run.tuples_fetched,
            tuples_matched: run.tuples_matched,
            truncated_accesses: run.truncated_accesses,
            latency_micros: run.latency_micros,
            wall_micros: run.wall_micros,
            output_size: run.output.len(),
            within_rate_limit: true,
            retries: 0,
            breaker_rejections: 0,
            accesses_skipped: run.accesses_skipped,
            disjuncts_short_circuited: 0,
        };
        (run.output, metrics)
    }
}

/// Union short-circuit for the next plan of an adaptive window: when an
/// earlier plan of `done` is identical and succeeded, its rows are the
/// next plan's rows, and every access the earlier plan accounted for
/// (fresh or memoized) is skipped.
fn reuse_identical_disjunct(
    plans: &[&Plan],
    done: &[Result<PlanRunResult, PlanError>],
) -> Option<PlanRunResult> {
    let next = plans[done.len()];
    let (rows, earlier) = plans
        .iter()
        .zip(done)
        .find_map(|(plan, result)| match result {
            Ok(run) if *plan == next => Some(run),
            _ => None,
        })?;
    let skipped = earlier.total_calls + earlier.accesses_skipped;
    rbqa_obs::counters::add_adaptive(skipped as u64, 1);
    Some((
        rows.clone(),
        PlanMetrics {
            calls_per_method: FxHashMap::default(),
            total_calls: 0,
            tuples_fetched: 0,
            tuples_matched: 0,
            truncated_accesses: 0,
            latency_micros: 0,
            wall_micros: 0,
            output_size: rows.len(),
            within_rate_limit: true,
            retries: 0,
            breaker_rejections: 0,
            accesses_skipped: skipped,
            disjuncts_short_circuited: 1,
        },
    ))
}

/// A simulated collection of web services: an instance hidden behind the
/// access methods of a schema, as in the paper's motivating examples
/// (Section 1). Plans are the only way to look at the data; the simulator
/// tracks how many calls each method receives, how many tuples travel over
/// the (simulated) wire, and enforces call budgets as hard errors.
///
/// The simulator is `Clone` so higher layers (the `rbqa-service` catalog)
/// can share it across worker threads; cloning copies the schema and the
/// hidden instance.
#[derive(Debug, Clone)]
pub struct ServiceSimulator {
    schema: Schema,
    data: Instance,
}

impl ServiceSimulator {
    /// Creates a simulator over `schema` hiding `data`.
    pub fn new(schema: Schema, data: Instance) -> Self {
        ServiceSimulator { schema, data }
    }

    /// The schema exposed by the services.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The hidden data (visible to the test harness, not to plans).
    pub fn data(&self) -> &Instance {
        &self.data
    }

    /// Executes a plan through the in-memory backend under the given access
    /// selection — the way to run a plan under the paper's other access
    /// selections (e.g. [`rbqa_access::AdversarialSelection`], Example
    /// 1.3). Every other execution goes through
    /// [`ServiceSimulator::run_plans_exec_results`].
    pub fn run_plan(
        &self,
        plan: &Plan,
        selection: &mut dyn AccessSelection,
    ) -> Result<PlanRunResult, PlanError> {
        let mut backend = InstanceBackend::new(&self.data, selection);
        execute_with_backend(plan, &self.schema, &mut backend).map(PlanMetrics::from_run)
    }

    /// Builds the backend named by `spec` over the hidden instance, with
    /// deterministic truncating selections throughout.
    ///
    /// `Sharded` pays an O(|instance|) partition per call — one full
    /// hash-partition copy of the hidden data per execution window.
    /// Acceptable at simulator scale; caching the shard instances per
    /// (dataset, shard count) is the obvious optimisation once datasets
    /// grow.
    fn build_backend(&self, spec: BackendSpec) -> Result<Box<dyn AccessBackend + '_>, PlanError> {
        Ok(match spec {
            BackendSpec::Instance => Box::new(InstanceBackend::with_selection(
                &self.data,
                Box::new(TruncatingSelection::new()),
            )),
            BackendSpec::SimulatedRemote { latency_micros, .. }
                if latency_micros > MAX_LATENCY_MICROS =>
            {
                return Err(PlanError::Malformed(format!(
                    "simulated latency {latency_micros}us above {MAX_LATENCY_MICROS}us"
                )))
            }
            BackendSpec::SimulatedRemote {
                seed,
                latency_micros,
                fault_rate_pct,
                transient,
            } => Box::new(SimulatedRemoteBackend::new(
                InstanceBackend::with_selection(&self.data, Box::new(TruncatingSelection::new())),
                RemoteProfile {
                    seed,
                    base_latency_micros: latency_micros,
                    fault_rate_pct,
                    transient_faults: transient,
                    ..RemoteProfile::default()
                },
            )),
            BackendSpec::Sharded { shards } if shards == 0 || shards > MAX_SHARDS => {
                return Err(PlanError::Malformed(format!(
                    "shard count {shards} outside 1..={MAX_SHARDS}"
                )))
            }
            BackendSpec::Sharded { shards } => {
                Box::new(ShardedBackend::over_instance(&self.data, shards))
            }
        })
    }

    /// Runs every plan of a union request under declarative
    /// [`ExecOptions`] and returns the **per-plan** outcomes in plan
    /// order, so degraded union execution can keep the rows of the
    /// disjuncts that succeeded, next to the whole window's
    /// [`ResilienceStats`]. Each successful plan's metrics carry the
    /// retries and breaker rejections it incurred; the window's stats
    /// also count those of the plans that failed.
    ///
    /// One backend (and one call-budget window) serves the **whole set**:
    /// this is the `Execute` semantics of a union request, whose
    /// `call_budget` caps the request's total accesses across all
    /// disjunct plans — not each plan separately. The shared backend also
    /// keeps accesses idempotent across plans (one selection cache, one
    /// remote latency/fault stream). Under [`AdaptiveMode::On`] one
    /// [`AdaptiveWindow`] memo serves the whole set as well.
    ///
    /// The outer `Err` is a setup failure (e.g. an invalid shard count)
    /// before any plan ran. A failed plan does not stop the ones after it
    /// (though a shared condition — an exhausted budget, an expired
    /// deadline — naturally fails them too, each with its own error).
    ///
    /// The decorator stack is always `Resilient(Budgeted(base))`, so
    /// every attempt — first try, retry or breaker probe — is one counted
    /// call. An unset `call_budget` is an unlimited one, and without
    /// `retry` or `breaker` the resilient layer passes calls straight
    /// through. A `BudgetExhausted` bubbling up is non-retryable, so the
    /// wrapper never burns the remaining window on a lost cause.
    pub fn run_plans_exec_results(
        &self,
        plans: &[&Plan],
        exec: &ExecOptions,
    ) -> Result<(Vec<Result<PlanRunResult, PlanError>>, ResilienceStats), PlanError> {
        let mut window = match exec.adaptive {
            AdaptiveMode::Off => None,
            AdaptiveMode::On => Some(AdaptiveWindow::new()),
        };
        let mut base = self.build_backend(exec.backend)?;
        let budgeted = BudgetedBackend::new(base.as_mut(), exec.call_budget.unwrap_or(usize::MAX));
        let mut backend =
            ResilientBackend::new(budgeted, exec.retry.unwrap_or_else(RetryPolicy::none));
        if let Some(policy) = exec.breaker {
            backend = backend.with_breaker(policy);
        }
        let mut results: Vec<Result<PlanRunResult, PlanError>> = Vec::with_capacity(plans.len());
        let mut prev = ResilienceStats::default();
        for plan in plans {
            let run = match window.as_mut() {
                None => execute_with_backend(plan, &self.schema, &mut backend),
                Some(window) => match reuse_identical_disjunct(plans, &results) {
                    Some(reused) => {
                        results.push(Ok(reused));
                        continue;
                    }
                    None => execute_plan_adaptive(plan, &self.schema, &mut backend, window),
                },
            };
            // Attribute the window's resilience activity to the plan that
            // incurred it by diffing the cumulative stats around each run.
            let now = backend.stats();
            results.push(run.map(|run| {
                let (rows, mut metrics) = PlanMetrics::from_run(run);
                metrics.retries = now.retries - prev.retries;
                metrics.breaker_rejections = now.breaker_rejections - prev.breaker_rejections;
                (rows, metrics)
            }));
            prev = now;
        }
        Ok((results, backend.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::university_instance;
    use rbqa_access::{
        AccessError, AccessMethod, Condition, PlanBuilder, RaExpr, TruncatingSelection,
    };
    use rbqa_common::{Signature, ValueFactory};

    fn setup(ud_bound: Option<usize>, n: usize) -> (ServiceSimulator, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::new(sig.clone());
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match ud_bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        let mut vf = ValueFactory::new();
        let data = university_instance(&sig, &mut vf, n, 99);
        (ServiceSimulator::new(schema, data), vf)
    }

    fn salary_plan(vf: &mut ValueFactory, salary: &str) -> Plan {
        let salary = vf.constant(salary);
        PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("profs", "pr", RaExpr::table("ids"), vec![0], vec![0, 1, 2])
            .middleware(
                "matching",
                RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, salary)),
            )
            .middleware("names", RaExpr::project(RaExpr::table("matching"), vec![1]))
            .returns("names")
    }

    /// Runs one plan as a single-disjunct window.
    fn run_one(
        sim: &ServiceSimulator,
        plan: &Plan,
        exec: &ExecOptions,
    ) -> Result<PlanRunResult, PlanError> {
        sim.run_plans_exec_results(&[plan], exec)?.0.remove(0)
    }

    #[test]
    fn metrics_count_calls_per_method() {
        let (sim, mut vf) = setup(None, 10);
        let plan = salary_plan(&mut vf, "10000");
        let mut sel = TruncatingSelection::new();
        let (output, metrics) = sim.run_plan(&plan, &mut sel).unwrap();
        assert!(!output.is_empty());
        assert_eq!(metrics.calls_per_method["ud"], 1);
        // One pr call per directory id.
        assert_eq!(metrics.calls_per_method["pr"], 10);
        assert_eq!(metrics.total_calls, 11);
        assert!(metrics.within_rate_limit);
        assert!(metrics.tuples_fetched >= metrics.output_size);
        // Unbounded methods never truncate; local backend has no latency.
        assert_eq!(metrics.truncated_accesses, 0);
        assert_eq!(metrics.tuples_matched, metrics.tuples_fetched);
        assert_eq!(metrics.latency_micros, 0);
    }

    #[test]
    fn call_budget_violations_fail_fast() {
        let (sim, mut vf) = setup(None, 30);
        let plan = salary_plan(&mut vf, "10000");
        let exec = ExecOptions {
            call_budget: Some(5),
            ..ExecOptions::default()
        };
        assert_eq!(
            run_one(&sim, &plan, &exec).unwrap_err(),
            PlanError::Access(AccessError::BudgetExhausted {
                budget: 5,
                calls: 6
            })
        );
    }

    #[test]
    fn result_bound_reduces_fetched_tuples() {
        let (sim_unbounded, mut vf1) = setup(None, 20);
        let (sim_bounded, mut vf2) = setup(Some(3), 20);
        let plan1 = salary_plan(&mut vf1, "10000");
        let plan2 = salary_plan(&mut vf2, "10000");
        let mut sel = TruncatingSelection::new();
        let (out_full, m_full) = sim_unbounded.run_plan(&plan1, &mut sel).unwrap();
        let mut sel = TruncatingSelection::new();
        let (out_bounded, m_bounded) = sim_bounded.run_plan(&plan2, &mut sel).unwrap();
        assert!(m_bounded.tuples_fetched < m_full.tuples_fetched);
        assert!(out_bounded.len() <= out_full.len());
        assert_eq!(m_bounded.truncated_accesses, 1, "the bounded ud access");
        assert!(m_bounded.tuples_matched > m_bounded.tuples_fetched);
    }

    #[test]
    fn sharded_and_remote_backends_match_instance_rows() {
        let (sim, mut vf) = setup(None, 16);
        let plan = salary_plan(&mut vf, "10000");
        let (instance_rows, _) = run_one(&sim, &plan, &ExecOptions::default()).unwrap();
        for shards in 1..=4 {
            let exec = ExecOptions::with_backend(BackendSpec::Sharded { shards });
            let (rows, metrics) = run_one(&sim, &plan, &exec).unwrap();
            assert_eq!(rows, instance_rows, "{shards} shards");
            assert_eq!(metrics.truncated_accesses, 0);
        }
        let exec = ExecOptions::with_backend(BackendSpec::SimulatedRemote {
            seed: 3,
            latency_micros: 100,
            fault_rate_pct: 0,
            transient: false,
        });
        let (rows, metrics) = run_one(&sim, &plan, &exec).unwrap();
        assert_eq!(rows, instance_rows);
        assert!(
            metrics.latency_micros >= 100 * metrics.total_calls as u64,
            "remote latency is accounted per call"
        );
    }

    #[test]
    fn union_call_budget_spans_all_plans() {
        // Two plans, ~11 calls each: a 15-call budget admits the first
        // plan but must exhaust during the second — the budget is per
        // request window, not per plan. The per-plan results keep the
        // first plan's rows while reporting the second's failure.
        let (sim, mut vf) = setup(None, 10);
        let plan = salary_plan(&mut vf, "10000");
        let exec = ExecOptions {
            call_budget: Some(15),
            ..ExecOptions::default()
        };
        assert!(run_one(&sim, &plan, &exec).is_ok());
        let (results, _) = sim.run_plans_exec_results(&[&plan, &plan], &exec).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(PlanError::Access(AccessError::BudgetExhausted {
                budget: 15,
                calls: 16
            }))
        );
    }

    #[test]
    fn out_of_range_backends_are_rejected() {
        let (sim, mut vf) = setup(None, 4);
        let plan = salary_plan(&mut vf, "10000");
        for backend in [
            BackendSpec::Sharded { shards: 0 },
            BackendSpec::SimulatedRemote {
                seed: 0,
                latency_micros: u64::MAX,
                fault_rate_pct: 0,
                transient: false,
            },
        ] {
            let exec = ExecOptions::with_backend(backend);
            assert!(matches!(
                sim.run_plans_exec_results(&[&plan], &exec),
                Err(PlanError::Malformed(_))
            ));
        }
    }

    #[test]
    fn exec_codes_are_stable() {
        assert_eq!(ExecOptions::default().code(), "backend:instance|calls:none");
        let exec = ExecOptions {
            backend: BackendSpec::Sharded { shards: 3 },
            call_budget: Some(10),
            ..ExecOptions::default()
        };
        assert_eq!(exec.code(), "backend:sharded:3|calls:10");
        let remote = BackendSpec::SimulatedRemote {
            seed: 1,
            latency_micros: 150,
            fault_rate_pct: 5,
            transient: false,
        };
        assert_eq!(remote.code(), "remote:1:150:5");
        let transient = BackendSpec::SimulatedRemote {
            seed: 1,
            latency_micros: 150,
            fault_rate_pct: 5,
            transient: true,
        };
        assert_eq!(transient.code(), "remote:1:150:5:transient");
    }

    #[test]
    fn resilience_segments_append_only_when_set() {
        // The default code is pinned byte-for-byte: cached fingerprints
        // from before the resilience options existed must not move.
        assert_eq!(ExecOptions::default().code(), "backend:instance|calls:none");
        let exec = ExecOptions {
            retry: Some(RetryPolicy {
                max_attempts: 4,
                base_backoff_micros: 500,
                max_backoff_micros: 8_000,
                retry_budget: 12,
                seed: 7,
            }),
            breaker: Some(BreakerPolicy {
                failure_threshold: 3,
                cooldown_calls: 6,
            }),
            degraded: true,
            ..ExecOptions::default()
        };
        assert_eq!(
            exec.code(),
            "backend:instance|calls:none|retry:a4:b500:c8000:r12:s7|breaker:k3:c6|degraded"
        );
    }

    #[test]
    fn retried_execution_clears_transient_faults() {
        // A transient-fault remote with external retries: the wrapper's
        // retries advance the per-access attempt cursor, so the run
        // converges on the same rows the in-memory backend produces.
        let (sim, mut vf) = setup(None, 12);
        let plan = salary_plan(&mut vf, "10000");
        let (instance_rows, _) = run_one(&sim, &plan, &ExecOptions::default()).unwrap();
        let exec = ExecOptions {
            backend: BackendSpec::SimulatedRemote {
                seed: 11,
                latency_micros: 50,
                fault_rate_pct: 40,
                transient: true,
            },
            retry: Some(RetryPolicy {
                max_attempts: 8,
                retry_budget: 400,
                ..RetryPolicy::default()
            }),
            ..ExecOptions::default()
        };
        let (rows, metrics) = run_one(&sim, &plan, &exec).unwrap();
        assert_eq!(rows, instance_rows);
        assert!(metrics.retries > 0, "a 40% fault rate must retry");
    }

    #[test]
    fn adaptive_code_segments_append_only_when_set() {
        // The default code stays pinned byte-for-byte.
        assert_eq!(ExecOptions::default().code(), "backend:instance|calls:none");
        let on = ExecOptions {
            adaptive: AdaptiveMode::On,
            ..ExecOptions::default()
        };
        assert_eq!(on.code(), "backend:instance|calls:none|adaptive");
        let stacked = ExecOptions {
            degraded: true,
            adaptive: AdaptiveMode::On,
            ..ExecOptions::default()
        };
        assert_eq!(
            stacked.code(),
            "backend:instance|calls:none|degraded|adaptive"
        );
    }

    #[test]
    fn adaptive_union_dedups_shared_accesses_with_identical_rows() {
        // A union of two salary disjuncts shares the ud crawl and all pr
        // lookups: adaptive execution must halve the backend calls while
        // returning exactly the naive rows.
        let (sim, mut vf) = setup(None, 10);
        let plans = [salary_plan(&mut vf, "10000"), salary_plan(&mut vf, "20000")];
        let plan_refs: Vec<&Plan> = plans.iter().collect();
        let run = |adaptive| {
            let exec = ExecOptions {
                adaptive,
                ..ExecOptions::default()
            };
            let (results, _) = sim.run_plans_exec_results(&plan_refs, &exec).unwrap();
            results.into_iter().map(Result::unwrap).collect::<Vec<_>>()
        };
        let naive = run(AdaptiveMode::Off);
        let adaptive = run(AdaptiveMode::On);
        assert_eq!(naive[0].0, adaptive[0].0);
        assert_eq!(naive[1].0, adaptive[1].0);
        let naive_calls: usize = naive.iter().map(|(_, m)| m.total_calls).sum();
        let adaptive_calls: usize = adaptive.iter().map(|(_, m)| m.total_calls).sum();
        assert_eq!(naive_calls, 22);
        assert_eq!(adaptive_calls, 11, "the second disjunct is fully deduped");
        assert_eq!(adaptive[1].1.accesses_skipped, 11);
        assert_eq!(adaptive[0].1.accesses_skipped, 0);
        assert!(adaptive
            .iter()
            .all(|(_, m)| m.disjuncts_short_circuited == 0));
    }

    #[test]
    fn identical_disjuncts_short_circuit_within_one_window() {
        // Plan 2 repeats plan 0: it reuses plan 0's rows, performs no
        // call, and counts every access plan 0 accounted for as skipped.
        let (sim, mut vf) = setup(None, 10);
        let plans = [
            salary_plan(&mut vf, "10000"),
            salary_plan(&mut vf, "20000"),
            salary_plan(&mut vf, "10000"),
        ];
        let plan_refs: Vec<&Plan> = plans.iter().collect();
        let exec = ExecOptions {
            adaptive: AdaptiveMode::On,
            ..ExecOptions::default()
        };
        let (results, _) = sim.run_plans_exec_results(&plan_refs, &exec).unwrap();
        let (rows0, first) = results[0].as_ref().unwrap();
        let (rows2, repeat) = results[2].as_ref().unwrap();
        assert_eq!(rows2, rows0);
        assert_eq!(repeat.total_calls, 0);
        assert!(repeat.calls_per_method.is_empty());
        assert_eq!(
            repeat.accesses_skipped,
            first.total_calls + first.accesses_skipped
        );
        assert_eq!(repeat.disjuncts_short_circuited, 1);
        assert_eq!(repeat.output_size, rows0.len());
        assert_eq!(results[1].as_ref().unwrap().1.disjuncts_short_circuited, 0);
        // The naive window executes every plan.
        let (naive, _) = sim
            .run_plans_exec_results(&plan_refs, &ExecOptions::default())
            .unwrap();
        assert_eq!(naive[2].as_ref().unwrap().1.total_calls, first.total_calls);
        assert_eq!(naive[2].as_ref().unwrap().1.disjuncts_short_circuited, 0);
    }

    #[test]
    fn adaptive_skipping_stays_inside_budgets_naive_exhausts() {
        // Two identical disjuncts, ~11 calls each, under a 15-call window:
        // naive exhausts on the second disjunct, adaptive short-circuits
        // it and stays within budget.
        let (sim, mut vf) = setup(None, 10);
        let plan = salary_plan(&mut vf, "10000");
        for adaptive in [AdaptiveMode::Off, AdaptiveMode::On] {
            let exec = ExecOptions {
                call_budget: Some(15),
                adaptive,
                ..ExecOptions::default()
            };
            let (results, _) = sim.run_plans_exec_results(&[&plan, &plan], &exec).unwrap();
            assert_eq!(
                results.iter().all(|r| r.is_ok()),
                adaptive != AdaptiveMode::Off,
                "{adaptive:?}: {results:?}"
            );
        }
    }

    #[test]
    fn retries_are_not_double_counted_in_calls() {
        // `calls_per_method` counts *logical* accesses — retried attempts
        // happen inside one `access()` call of the Resilient decorator and
        // must not inflate the per-method call counts.
        let (sim, mut vf) = setup(None, 12);
        let plan = salary_plan(&mut vf, "10000");
        let calm = ExecOptions {
            adaptive: AdaptiveMode::On,
            ..ExecOptions::default()
        };
        let (calm_rows, calm_metrics) = run_one(&sim, &plan, &calm).unwrap();
        let faulty = ExecOptions {
            backend: BackendSpec::SimulatedRemote {
                seed: 11,
                latency_micros: 50,
                fault_rate_pct: 40,
                transient: true,
            },
            retry: Some(RetryPolicy {
                max_attempts: 8,
                retry_budget: 400,
                ..RetryPolicy::default()
            }),
            adaptive: AdaptiveMode::On,
            ..ExecOptions::default()
        };
        let (rows, metrics) = run_one(&sim, &plan, &faulty).unwrap();
        assert_eq!(rows, calm_rows);
        assert!(metrics.retries > 0, "a 40% fault rate must retry");
        assert_eq!(
            metrics.calls_per_method, calm_metrics.calls_per_method,
            "logical per-method call counts are retry-invariant"
        );
        assert_eq!(metrics.total_calls, calm_metrics.total_calls);
    }
}
