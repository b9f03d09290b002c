//! Execution of monotone plans against a pluggable
//! [`AccessBackend`].
//!
//! The executor is backend-generic: it resolves each access command's
//! method against the schema, evaluates the input expression, and performs
//! one [`crate::backend::AccessBackend::access`] per binding tuple —
//! whether the tuples come from a local instance, a simulated remote
//! service, or a sharded federation is the backend's business. The
//! historical entry point [`execute`] over `(&Instance, &mut dyn
//! AccessSelection)` is preserved as a thin wrapper around the in-memory
//! [`InstanceBackend`].
//!
//! [`execute_plan_adaptive`] runs the same loop with an
//! [`AdaptiveWindow`]: a memo of every `(method, binding)` response
//! fetched in one execution window, so a repeated access is answered
//! without a backend call (runtime access relevance, after
//! Benedikt–Gottlob–Senellart). Within one window the backend is
//! idempotent (one selection cache, one seeded latency/fault stream), so
//! a memoized response is exactly what the backend would return again.

use rbqa_common::{Instance, Value};
use rustc_hash::FxHashMap;

use crate::backend::{AccessBackend, InstanceBackend};
use crate::plan::ra::{project_into, PlanError, TempTable};
use crate::plan::{Command, Plan};
use crate::schema::Schema;
use crate::selection::AccessSelection;

/// The result of executing a plan: the output rows plus execution metrics.
///
/// The counters account *fresh backend calls only*: an access answered
/// from an [`AdaptiveWindow`] adds to `accesses_skipped` and to nothing
/// else.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// Rows of the output table, sorted for deterministic comparison.
    pub output: Vec<Vec<Value>>,
    /// Number of individual accesses performed (one per binding tuple per
    /// access command).
    pub accesses_performed: usize,
    /// Total number of tuples returned by the services across all accesses.
    pub tuples_fetched: usize,
    /// Total number of tuples that *matched* the bindings at the source
    /// (`>= tuples_fetched`; the difference is what result bounds dropped).
    pub tuples_matched: usize,
    /// Number of accesses whose output was truncated by a result bound.
    pub truncated_accesses: usize,
    /// Total simulated backend latency across all accesses, microseconds
    /// (0 for purely local backends).
    pub latency_micros: u64,
    /// Wall-clock time of the whole plan run, microseconds. Unlike
    /// `latency_micros` (the backend's *simulated* cost model) this is
    /// real elapsed time on the executing thread.
    pub wall_micros: u64,
    /// Accesses performed, per method name.
    pub calls_per_method: FxHashMap<String, usize>,
    /// Binding-level accesses answered from the [`AdaptiveWindow`] memo
    /// without a backend call. Always 0 without a window.
    pub accesses_skipped: usize,
    /// Final contents of every temporary table (for inspection/debugging).
    pub tables: FxHashMap<String, TempTable>,
}

impl PlanRun {
    /// Whether the output is non-empty (the Boolean reading of a plan whose
    /// output table has arity 0, as in Example 2.1).
    pub fn boolean_output(&self) -> bool {
        !self.output.is_empty()
    }
}

/// The access memo of one execution window: the source-arity tuples of
/// every fresh `(method, binding)` response, kept *before* output
/// projection so different access commands sharing a binding reuse them.
///
/// Create one per execution window — one `Execute` request, all disjunct
/// plans included — and drop it with the window: that scope is what
/// makes replaying a memoized response sound.
#[derive(Debug, Default)]
pub struct AdaptiveWindow {
    memo: FxHashMap<String, MethodMemo>,
}

/// One method's memo: binding → the response's source-arity tuples.
type MethodMemo = FxHashMap<Vec<(usize, Value)>, Vec<Vec<Value>>>;

impl AdaptiveWindow {
    /// A fresh window with nothing memoized.
    pub fn new() -> Self {
        AdaptiveWindow::default()
    }
}

/// Executes `plan` under `schema` against an arbitrary
/// [`AccessBackend`].
///
/// The semantics follows Section 2 of the paper: commands run in order;
/// access commands evaluate their input expression, perform one access per
/// binding tuple, take the union of the returned outputs, rename it
/// through the output map and store it; middleware commands evaluate their
/// monotone relational algebra expression over the temporary tables
/// produced so far. Backend failures surface as [`PlanError::Access`].
pub fn execute_with_backend(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
) -> Result<PlanRun, PlanError> {
    run_plan(plan, schema, backend, None)
}

/// Executes `plan` like [`execute_with_backend`], answering every
/// `(method, binding)` access `window` already memoized without a backend
/// call and memoizing every fresh one.
///
/// Call this once per disjunct with one shared `window` per request to
/// dedup accesses across a union's plans; a fresh window dedups repeated
/// bindings within the plan only. The output rows are always exactly
/// [`execute_with_backend`]'s.
pub fn execute_plan_adaptive(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
    window: &mut AdaptiveWindow,
) -> Result<PlanRun, PlanError> {
    run_plan(plan, schema, backend, Some(window))
}

/// Counts an expired deadline (and the accesses skipped so far) and
/// returns the abort.
fn deadline_abort(accesses_skipped: usize) -> PlanError {
    rbqa_obs::counters::add_deadline_expiry();
    rbqa_obs::counters::add_adaptive(accesses_skipped as u64, 0);
    PlanError::DeadlineExceeded
}

/// The one per-binding executor loop behind both entry points.
fn run_plan(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
    mut window: Option<&mut AdaptiveWindow>,
) -> Result<PlanRun, PlanError> {
    plan.validate(schema)?;
    let wall_start = std::time::Instant::now();
    let mut tables: FxHashMap<String, TempTable> = FxHashMap::default();
    let mut accesses_performed = 0usize;
    let mut accesses_skipped = 0usize;
    let mut tuples_fetched = 0usize;
    let mut tuples_matched = 0usize;
    let mut truncated_accesses = 0usize;
    let mut latency_micros = 0u64;
    let mut calls_per_method: FxHashMap<String, usize> = FxHashMap::default();
    let mut binding: Vec<(usize, Value)> = Vec::new();
    let mut scratch: Vec<Value> = Vec::new();

    for command in plan.commands() {
        // Cooperative deadline check, once per command: a timed-out
        // request stops before its next middleware command too.
        if rbqa_obs::deadline_expired() {
            return Err(deadline_abort(accesses_skipped));
        }
        match command {
            Command::Middleware { output, expr } => {
                let table = expr.eval(&tables)?.into_owned();
                tables.insert(output.clone(), table);
            }
            Command::Access {
                output,
                method,
                input,
                input_map,
                output_map,
            } => {
                let mut access_span = rbqa_obs::span("access");
                access_span.str("method", method);
                let (performed0, fetched0, matched0, truncated0, skipped0) = (
                    accesses_performed,
                    tuples_fetched,
                    tuples_matched,
                    truncated_accesses,
                    accesses_skipped,
                );
                let m = schema
                    .method(method)
                    .ok_or_else(|| PlanError::UnknownMethod(method.clone()))?;
                let bindings_table = input.eval(&tables)?;
                access_span.num("bindings", bindings_table.len() as u64);
                let input_positions = m.input_positions_vec();
                let mut out = TempTable::new(output_map.len());
                let mut memo = window
                    .as_deref_mut()
                    .map(|w| w.memo.entry(method.clone()).or_default());
                for binding_row in bindings_table.rows() {
                    // And once per access: a long access command stops
                    // occupying the worker mid-command.
                    if rbqa_obs::deadline_expired() {
                        return Err(deadline_abort(accesses_skipped));
                    }
                    binding.clear();
                    binding.extend(
                        input_positions
                            .iter()
                            .zip(input_map.iter())
                            .map(|(&pos, &col)| (pos, binding_row[col])),
                    );
                    if let Some(tuples) =
                        memo.as_ref().and_then(|memo| memo.get(binding.as_slice()))
                    {
                        accesses_skipped += 1;
                        project_into(tuples, output_map, &mut out, &mut scratch)?;
                        continue;
                    }
                    let response = backend.access(m, &binding)?;
                    accesses_performed += 1;
                    tuples_fetched += response.tuples.len();
                    tuples_matched += response.tuples_matched;
                    truncated_accesses += response.truncated as usize;
                    latency_micros += response.latency_micros;
                    project_into(&response.tuples, output_map, &mut out, &mut scratch)?;
                    if let Some(memo) = memo.as_mut() {
                        memo.insert(binding.clone(), response.tuples);
                    }
                }
                drop(bindings_table);
                if accesses_performed > performed0 {
                    *calls_per_method.entry(method.clone()).or_insert(0) +=
                        accesses_performed - performed0;
                }
                access_span.num("fetched", (tuples_fetched - fetched0) as u64);
                access_span.num("matched", (tuples_matched - matched0) as u64);
                access_span.num("truncated", (truncated_accesses - truncated0) as u64);
                if memo.is_some() {
                    access_span.num("pruned", (accesses_skipped - skipped0) as u64);
                }
                tables.insert(output.clone(), out);
            }
        }
    }

    let output_table = tables
        .get(plan.output_table())
        .ok_or_else(|| PlanError::UnknownTable(plan.output_table().to_owned()))?;
    rbqa_obs::counters::add_adaptive(accesses_skipped as u64, 0);
    Ok(PlanRun {
        output: output_table.sorted_rows(),
        accesses_performed,
        tuples_fetched,
        tuples_matched,
        truncated_accesses,
        latency_micros,
        wall_micros: wall_start.elapsed().as_micros() as u64,
        calls_per_method,
        accesses_skipped,
        tables,
    })
}

/// Executes `plan` on `instance` under `schema`, using `selection` to choose
/// the output of each (result-bounded) access — the in-memory special case
/// of [`execute_with_backend`] over an
/// [`InstanceBackend`].
pub fn execute(
    plan: &Plan,
    schema: &Schema,
    instance: &Instance,
    selection: &mut dyn AccessSelection,
) -> Result<PlanRun, PlanError> {
    let mut backend = InstanceBackend::new(instance, selection);
    execute_with_backend(plan, schema, &mut backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::AccessMethod;
    use crate::plan::ra::{Condition, RaExpr};
    use crate::plan::PlanBuilder;
    use crate::selection::{AdversarialSelection, TruncatingSelection};
    use rbqa_common::{Signature, ValueFactory};

    /// University schema and instance: 5 employees, each professor earning
    /// 10000 except one earning 20000.
    fn setup(ud_bound: Option<usize>) -> (Schema, Instance, ValueFactory) {
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
        let mut inst = Instance::new(sig);
        for i in 0..5 {
            let id = vf.constant(&format!("id{i}"));
            let name = vf.constant(&format!("name{i}"));
            let salary = if i == 3 {
                vf.constant("20000")
            } else {
                vf.constant("10000")
            };
            let addr = vf.constant(&format!("addr{i}"));
            let phone = vf.constant(&format!("phone{i}"));
            inst.insert(prof, vec![id, name, salary]).unwrap();
            inst.insert(udir, vec![id, addr, phone]).unwrap();
        }
        (schema, inst, vf)
    }

    /// The plan of Example 1.2 (with `salary` = 10000): ud for ids, pr per
    /// id, filter salary, return names.
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

    #[test]
    fn example_1_2_plan_returns_all_names_without_bound() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        // 4 professors earn 10000.
        assert_eq!(run.output.len(), 4);
        // 1 input-free access + 5 per-id accesses.
        assert_eq!(run.accesses_performed, 6);
        assert_eq!(run.tuples_fetched, 10);
    }

    #[test]
    fn example_1_3_result_bound_makes_plan_incomplete() {
        // With a result bound of 2 on ud, the same plan misses answers, and
        // different access selections give different outputs: the plan no
        // longer answers the query.
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = salary_plan(&mut vf, "10000");
        let mut first = TruncatingSelection::new();
        let run_first = execute(&plan, &schema, &inst, &mut first).unwrap();
        assert!(run_first.output.len() < 4);
        let mut second = AdversarialSelection::new();
        let run_second = execute(&plan, &schema, &inst, &mut second).unwrap();
        assert_ne!(run_first.output, run_second.output);
    }

    #[test]
    fn example_2_1_boolean_plan_is_robust_to_bounds() {
        // The plan of Examples 1.4 / 2.1: return whether Udirectory is
        // non-empty. A result bound cannot change its (Boolean) output.
        let (schema, inst, _vf) = setup(Some(1));
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
            .returns("T0");
        let mut t = TruncatingSelection::new();
        let mut a = AdversarialSelection::new();
        let run_t = execute(&plan, &schema, &inst, &mut t).unwrap();
        let run_a = execute(&plan, &schema, &inst, &mut a).unwrap();
        assert!(run_t.boolean_output());
        assert!(run_a.boolean_output());
        assert_eq!(run_t.output, run_a.output);

        // On an empty instance the plan returns false.
        let empty = Instance::new(schema.signature().clone());
        let mut t = TruncatingSelection::new();
        let run_empty = execute(&plan, &schema, &empty, &mut t).unwrap();
        assert!(!run_empty.boolean_output());
    }

    #[test]
    fn access_with_constant_binding() {
        // Call pr directly with a constant id taken from a singleton
        // constant relation.
        let (schema, inst, mut vf) = setup(Some(1));
        let id2 = vf.constant("id2");
        let plan = PlanBuilder::new()
            .middleware("seed", RaExpr::singleton(vec![id2]))
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1, 2])
            .returns("prof");
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert_eq!(run.output.len(), 1);
        assert_eq!(run.accesses_performed, 1);
        let name2 = vf.constant("name2");
        assert_eq!(run.output[0][0], name2);
    }

    #[test]
    fn tables_are_available_for_inspection() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert!(run.tables.contains_key("ids"));
        assert_eq!(run.tables["ids"].arity(), 1);
        assert_eq!(run.tables["ids"].len(), 5);
        assert_eq!(run.tables["profs"].len(), 5);
    }

    #[test]
    fn run_accounting_tracks_matches_and_truncation() {
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = salary_plan(&mut vf, "10000");
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        // ud matched 5 rows but returned 2 (bound), so exactly one access
        // was truncated; the per-id pr accesses are unbounded.
        assert_eq!(run.truncated_accesses, 1);
        assert!(run.tuples_matched > run.tuples_fetched);
        assert_eq!(run.calls_per_method["ud"], 1);
        assert_eq!(run.calls_per_method["pr"], 2, "one pr call per fetched id");
        assert_eq!(run.latency_micros, 0, "instance backend is local");
    }

    #[test]
    fn backend_generic_execution_matches_the_selection_path() {
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = salary_plan(&mut vf, "10000");
        let mut sel = TruncatingSelection::new();
        let direct = execute(&plan, &schema, &inst, &mut sel).unwrap();
        let mut backend = crate::backend::InstanceBackend::truncating(&inst);
        let via_backend = execute_with_backend(&plan, &schema, &mut backend).unwrap();
        assert_eq!(direct.output, via_backend.output);
        assert_eq!(direct.accesses_performed, via_backend.accesses_performed);
        assert_eq!(direct.tuples_fetched, via_backend.tuples_fetched);
    }

    #[test]
    fn backend_errors_surface_as_plan_errors() {
        use crate::backend::{AccessError, BudgetedBackend, InstanceBackend};
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let mut backend = BudgetedBackend::new(InstanceBackend::truncating(&inst), 2);
        let err = execute_with_backend(&plan, &schema, &mut backend).unwrap_err();
        assert_eq!(
            err,
            PlanError::Access(AccessError::BudgetExhausted {
                budget: 2,
                calls: 3
            })
        );
    }

    #[test]
    fn invalid_plan_fails_before_executing() {
        let (schema, inst, _vf) = setup(None);
        let plan = PlanBuilder::new()
            .access("T", "missing_method", RaExpr::unit(), vec![], vec![0])
            .returns("T");
        let mut sel = TruncatingSelection::new();
        assert!(execute(&plan, &schema, &inst, &mut sel).is_err());
    }

    #[test]
    fn adaptive_matches_naive_rows_with_no_prior_state() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let mut naive_backend = InstanceBackend::truncating(&inst);
        let naive = execute_with_backend(&plan, &schema, &mut naive_backend).unwrap();
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_plan_adaptive(&plan, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.output, naive.output);
        assert_eq!(run.accesses_performed, naive.accesses_performed);
        assert_eq!(run.accesses_skipped, 0, "cold window: nothing to skip");
        assert_eq!(run.calls_per_method, naive.calls_per_method);
    }

    #[test]
    fn shared_window_dedups_union_disjunct_accesses() {
        // The fixture union shape: Q(n) :- Prof(i, n, '10000') ∨ '20000'.
        // Both disjuncts crawl the same ud + pr accesses; the second must
        // answer every access from the window memo.
        let (schema, inst, mut vf) = setup(None);
        let p1 = salary_plan(&mut vf, "10000");
        let p2 = salary_plan(&mut vf, "20000");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let r1 = execute_plan_adaptive(&p1, &schema, &mut backend, &mut window).unwrap();
        let r2 = execute_plan_adaptive(&p2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r1.accesses_performed, 6);
        assert_eq!(r2.accesses_performed, 0, "all 6 accesses deduped");
        assert_eq!(r2.accesses_skipped, 6);
        assert_eq!(r2.tuples_fetched, 0, "memo hits account no backend traffic");
        assert_eq!(r1.output.len(), 4);
        assert_eq!(r2.output.len(), 1);
        // Naive parity for both disjuncts.
        for (plan, run) in [(&p1, &r1), (&p2, &r2)] {
            let mut nb = InstanceBackend::truncating(&inst);
            assert_eq!(
                execute_with_backend(plan, &schema, &mut nb).unwrap().output,
                run.output
            );
        }
        // Repeating a plan answers every access from the memo.
        let r3 = execute_plan_adaptive(&p1, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r3.output, r1.output);
        assert_eq!(r3.accesses_performed, 0);
        assert_eq!(r3.accesses_skipped, 6);
    }

    #[test]
    fn duplicate_bindings_within_one_access_are_deduped() {
        // A seed table with one id listed twice through a union: the
        // union dedups to one row, so the first run degenerates to a cold
        // call — but a different plan asking for the same binding in the
        // same window is answered from the memo.
        let (schema, inst, mut vf) = setup(None);
        let id2 = vf.constant("id2");
        let plan = PlanBuilder::new()
            .middleware(
                "seed",
                RaExpr::union(
                    RaExpr::singleton(vec![id2]),
                    RaExpr::project(RaExpr::singleton(vec![id2, id2]), vec![1]),
                ),
            )
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1, 2])
            .returns("prof");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_plan_adaptive(&plan, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.accesses_performed, 1);
        let p2 = PlanBuilder::new()
            .middleware("seed2", RaExpr::singleton(vec![id2]))
            .access("prof2", "pr", RaExpr::table("seed2"), vec![0], vec![1, 2])
            .returns("prof2");
        let r2 = execute_plan_adaptive(&p2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r2.accesses_performed, 0);
        assert_eq!(r2.accesses_skipped, 1);
        assert_eq!(r2.output, run.output);
    }

    #[test]
    fn empty_binding_sets_skip_the_access() {
        let (schema, inst, _vf) = setup(None);
        let plan = PlanBuilder::new()
            .middleware(
                "seed",
                RaExpr::Constant {
                    arity: 1,
                    rows: vec![],
                },
            )
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1])
            .returns("prof");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_plan_adaptive(&plan, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.accesses_performed, 0);
        assert!(run.output.is_empty());
    }

    #[test]
    fn deadline_aborts_adaptive_execution() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let _guard = rbqa_obs::arm_deadline(std::time::Duration::from_micros(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let err = execute_plan_adaptive(&plan, &schema, &mut backend, &mut window).unwrap_err();
        assert_eq!(err, PlanError::DeadlineExceeded);
    }
}
