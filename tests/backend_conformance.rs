//! Backend conformance and differential tests.
//!
//! Part 1 is a conformance suite run against all four [`AccessBackend`]
//! implementations (instance, simulated-remote, sharded, recording): every
//! backend must return valid outputs for the method's result bound, report
//! consistent accounting, and be idempotent per (method, binding). Its
//! retry contract: the simulated remote surfaces every fault at once, the
//! resilient layer's retries spend the window's call budget, and the
//! service-wide `stats` count every retry and shed call, including those
//! of plans that failed.
//!
//! Part 2 is differential: a verbatim copy of the **pre-refactor**
//! executor (the `(&Instance, &mut dyn AccessSelection)` loop that
//! `execute` used to be), evaluating middleware with a copy of the
//! nested-loop relational algebra evaluator the kernel replaced, is run
//! against the backend-generic executor over random plans, random data
//! and random selections — row sets and accounting must be identical. The
//! same reference evaluator checks the kernel's `RaExpr::evaluate` on
//! random expression trees: same arity, same rows in the same insertion
//! order, same error. A second differential asserts that a
//! [`ShardedBackend`] with 1..=4 shards produces exactly the rows and the
//! accounting of the truncating [`InstanceBackend`] on schemas whose
//! methods are unbounded or carry an exact result bound (where merging
//! each shard's `k` smallest tuples and cutting the merge to `k` gives
//! the global `k` smallest, whatever the shard assignment).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbqa::access::plan::{execute, execute_with_backend, PlanError};
use rbqa::access::{
    AccessBackend, AccessError, AccessMethod, AccessSelection, Condition, InstanceBackend, Plan,
    PlanBuilder, RaExpr, RandomSelection, RecordingBackend, RemoteProfile, RetryPolicy, Schema,
    ShardedBackend, SimulatedRemoteBackend, TempTable, TruncatingSelection,
};
use rbqa::api::WireServer;
use rbqa::common::{Instance, Signature, Value, ValueFactory};
use rbqa::engine::{BackendSpec, ExecOptions, ServiceSimulator};
use rustc_hash::{FxHashMap, FxHashSet};

// ---------------------------------------------------------------------------
// Part 1: conformance suite over all four backends
// ---------------------------------------------------------------------------

/// R/2 with 8 rows sharing the key `a`, exposed through a bounded and an
/// unbounded method.
fn conformance_fixture() -> (AccessMethod, AccessMethod, Instance, ValueFactory) {
    let mut sig = Signature::new();
    let rel = sig.add_relation("R", 2).unwrap();
    let bounded = AccessMethod::bounded("m_bounded", rel, &[0], 3);
    let unbounded = AccessMethod::unbounded("m_all", rel, &[0]);
    let mut vf = ValueFactory::new();
    let mut inst = Instance::new(sig);
    let a = vf.constant("a");
    for i in 0..8 {
        let v = vf.constant(&format!("v{i}"));
        inst.insert(rel, vec![a, v]).unwrap();
    }
    (bounded, unbounded, inst, vf)
}

/// Runs the conformance assertions against one backend instance.
fn assert_conforms(backend: &mut dyn AccessBackend, name: &str) {
    let (bounded, unbounded, inst, mut vf) = conformance_fixture();
    let _ = inst;
    let a = vf.constant("a");
    let b = vf.constant("b");

    // Unbounded: the full match set comes back, accounting agrees.
    let full = backend.access(&unbounded, &[(0, a)]).unwrap();
    assert_eq!(full.tuples.len(), 8, "{name}: unbounded returns everything");
    assert_eq!(full.tuples_matched, 8, "{name}");
    assert!(!full.truncated, "{name}");

    // Bounded: min(k, |M|) tuples, all drawn from the match set, truncation
    // flagged, matched count preserved.
    let capped = backend.access(&bounded, &[(0, a)]).unwrap();
    assert_eq!(capped.tuples.len(), 3, "{name}: bound of 3 enforced");
    assert_eq!(capped.tuples_matched, 8, "{name}");
    assert!(capped.truncated, "{name}");
    for tuple in &capped.tuples {
        assert!(full.tuples.contains(tuple), "{name}: subset of matches");
    }
    assert_eq!(
        capped.truncated,
        capped.tuples.len() < capped.tuples_matched,
        "{name}: truncated flag is consistent with the counts"
    );

    // Idempotence per (method, binding).
    let again = backend.access(&bounded, &[(0, a)]).unwrap();
    assert_eq!(again.tuples, capped.tuples, "{name}: idempotent");
    assert_eq!(again.tuples_matched, capped.tuples_matched, "{name}");

    // Empty match set: no tuples, no truncation.
    let empty = backend.access(&bounded, &[(0, b)]).unwrap();
    assert!(empty.tuples.is_empty(), "{name}");
    assert_eq!(empty.tuples_matched, 0, "{name}");
    assert!(!empty.truncated, "{name}");
}

#[test]
fn all_four_backends_conform() {
    let (_, _, inst, _) = conformance_fixture();

    let mut instance = InstanceBackend::truncating(&inst);
    assert_conforms(&mut instance, "instance");

    let mut remote = SimulatedRemoteBackend::new(
        InstanceBackend::truncating(&inst),
        RemoteProfile {
            seed: 11,
            fault_rate_pct: 0,
            ..RemoteProfile::default()
        },
    );
    assert_conforms(&mut remote, "simulated-remote");

    for shards in 1..=4 {
        let mut sharded = ShardedBackend::over_instance(&inst, shards);
        assert_conforms(&mut sharded, &format!("sharded:{shards}"));
    }

    let mut recording = RecordingBackend::new(InstanceBackend::truncating(&inst));
    assert_conforms(&mut recording, "recording");
    let trace = recording.into_trace();
    assert!(!trace.is_empty(), "the conformance run left a trace");
    // The captured trace replays the same suite (replay serves recorded
    // (method, binding) pairs, so it conforms wherever the recording did).
    let mut replay = trace.replayer();
    assert_conforms(&mut replay, "replay");
}

#[test]
fn the_one_retry_path_hides_no_backoff_and_charges_every_retry() {
    // (a) The remote never retries on its own: each call makes one fault
    // draw and a fault surfaces at once, so no success carries a hidden
    // retry's backoff. With a fixed 100 us latency and no jitter, every
    // successful access reports exactly 100 us.
    let (bounded, unbounded, inst, mut vf) = conformance_fixture();
    let a = vf.constant("a");
    let profile = RemoteProfile {
        base_latency_micros: 100,
        jitter_micros: 0,
        per_tuple_latency_micros: 0,
        fault_rate_pct: 60,
        transient_faults: true,
        ..RemoteProfile::default()
    };
    let (mut successes, mut faults) = (0, 0);
    for seed in 0..32 {
        let mut remote = SimulatedRemoteBackend::new(
            InstanceBackend::truncating(&inst),
            RemoteProfile { seed, ..profile },
        );
        for method in [&bounded, &unbounded] {
            for _ in 0..4 {
                match remote.access(method, &[(0, a)]) {
                    Ok(response) => {
                        successes += 1;
                        assert_eq!(response.latency_micros, 100, "seed {seed}");
                    }
                    Err(e) => {
                        faults += 1;
                        assert!(e.is_retryable(), "seed {seed}: {e}");
                    }
                }
            }
        }
    }
    assert!(
        successes > 0 && faults > 0,
        "{successes} ok, {faults} faults"
    );

    // (b) Retries happen only in the resilient layer, above the call
    // budget: the smallest budget a window succeeds with is its logical
    // calls plus its retries, and one call less exhausts it.
    let schema = differential_schema(None);
    let pairs: Vec<(u8, u8)> = (0..6).map(|i| (i, i)).collect();
    let (data, _) = differential_instance(&schema, &pairs, &pairs, &[]);
    let plan = random_plan(&[]);
    let simulator = ServiceSimulator::new(schema, data);
    let exec = ExecOptions {
        backend: BackendSpec::SimulatedRemote {
            seed: 1,
            latency_micros: 100,
            fault_rate_pct: 40,
            transient: true,
        },
        retry: Some(RetryPolicy {
            max_attempts: 8,
            retry_budget: 64,
            ..RetryPolicy::default()
        }),
        ..ExecOptions::default()
    };
    let run = |call_budget| {
        let exec = ExecOptions {
            call_budget,
            ..exec
        };
        simulator
            .run_plans_exec_results(&[&plan], &exec)
            .unwrap()
            .0
            .remove(0)
    };
    let (rows, metrics) = run(None).unwrap();
    assert_eq!(
        (metrics.total_calls, metrics.retries),
        (7, 3),
        "seed 1: 7 logical calls take 3 retries"
    );
    let needed = metrics.total_calls + metrics.retries as usize;
    let (budgeted_rows, budgeted) = run(Some(needed)).unwrap();
    assert_eq!(budgeted_rows, rows);
    assert_eq!(budgeted.retries, metrics.retries);
    assert_eq!(
        run(Some(needed - 1)).unwrap_err(),
        PlanError::Access(AccessError::BudgetExhausted {
            budget: needed - 1,
            calls: needed,
        })
    );
}

/// Replays `stream` followed by `stats` on a fresh session and returns
/// every response, the `stats` one last.
fn replay_then_stats(stream: &str) -> Vec<String> {
    WireServer::new().handle_stream(&format!("{stream}\nstats\n"))
}

#[test]
fn stats_count_the_retries_and_sheds_of_failed_plans() {
    // A single-plan execute whose retries do not clear its transient
    // faults: the request fails, and `stats` still counts both retries.
    let failed = replay_then_stats(
        "rbqa/1
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
option exec.backend remote seed=3 latency=0 faults=90 transient
option exec.retry 1
execute uni Q(n) :- Prof(i, n, '10000')",
    );
    assert_eq!(failed.len(), 2, "{failed:?}");
    assert!(
        failed[0].contains("\"code\":\"BACKEND_UNAVAILABLE\""),
        "{}",
        failed[0]
    );
    assert!(
        failed[1].contains("\"retries\":2,\"breaker_rejections\":0}"),
        "{}",
        failed[1]
    );

    // The chaos corpus: its breaker sheds the last Prof disjunct of a
    // degraded union. That failed disjunct's shed call is missing from
    // the response's metrics block but counted in `stats`.
    let chaos = replay_then_stats(include_str!("../fixtures/chaos/faults.rbqa"));
    let stats = chaos.last().unwrap();
    assert!(
        stats.contains("\"retries\":7,\"breaker_rejections\":1}"),
        "{stats}"
    );
}

// ---------------------------------------------------------------------------
// Part 2: differential against the pre-refactor executor
// ---------------------------------------------------------------------------

/// The deduplicated temporary table of the nested-loop evaluator: rows
/// in insertion order plus a set of every row (a second copy of each).
#[derive(Debug, Clone)]
struct RefTable {
    arity: usize,
    rows: Vec<Vec<Value>>,
    present: FxHashSet<Vec<Value>>,
}

impl RefTable {
    fn new(arity: usize) -> Self {
        RefTable {
            arity,
            rows: Vec::new(),
            present: FxHashSet::default(),
        }
    }

    fn from_rows(arity: usize, rows: Vec<Vec<Value>>) -> Result<Self, PlanError> {
        let mut t = RefTable::new(arity);
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    fn insert(&mut self, row: Vec<Value>) -> Result<bool, PlanError> {
        if row.len() != self.arity {
            return Err(PlanError::Malformed(format!(
                "row of length {} inserted into table of arity {}",
                row.len(),
                self.arity
            )));
        }
        if self.present.contains(&row) {
            return Ok(false);
        }
        self.present.insert(row.clone());
        self.rows.push(row);
        Ok(true)
    }

    fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// A verbatim copy of the nested-loop `RaExpr::evaluate` the RA kernel
/// replaced: every scan clones its table, every union level copies both
/// sides, joins are nested loops. Its insertion order is the contract the
/// kernel keeps.
fn reference_evaluate(
    expr: &RaExpr,
    env: &FxHashMap<String, RefTable>,
) -> Result<RefTable, PlanError> {
    match expr {
        RaExpr::Table(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| PlanError::UnknownTable(name.clone())),
        RaExpr::Constant { arity, rows } => RefTable::from_rows(*arity, rows.clone()),
        RaExpr::Select { input, condition } => {
            let table = reference_evaluate(input, env)?;
            let mut out = RefTable::new(table.arity);
            for row in &table.rows {
                if condition.matches(row) {
                    out.insert(row.clone())?;
                }
            }
            Ok(out)
        }
        RaExpr::Project { input, columns } => {
            let table = reference_evaluate(input, env)?;
            let mut out = RefTable::new(columns.len());
            for row in &table.rows {
                let projected: Vec<Value> = columns.iter().map(|&c| row[c]).collect();
                out.insert(projected)?;
            }
            Ok(out)
        }
        RaExpr::Join { left, right, on } => {
            let lt = reference_evaluate(left, env)?;
            let rt = reference_evaluate(right, env)?;
            let mut out = RefTable::new(lt.arity + rt.arity);
            for lrow in &lt.rows {
                for rrow in &rt.rows {
                    if on.iter().all(|(l, r)| lrow[*l] == rrow[*r]) {
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().copied());
                        out.insert(row)?;
                    }
                }
            }
            Ok(out)
        }
        RaExpr::Union { left, right } => {
            let lt = reference_evaluate(left, env)?;
            let rt = reference_evaluate(right, env)?;
            if lt.arity != rt.arity {
                return Err(PlanError::Malformed(
                    "union of tables with different arities".to_owned(),
                ));
            }
            let mut out = RefTable::new(lt.arity);
            for row in lt.rows.iter().chain(rt.rows.iter()) {
                out.insert(row.clone())?;
            }
            Ok(out)
        }
    }
}

/// A verbatim copy of the pre-refactor `execute` loop: instance +
/// selection, no backend indirection, middleware through
/// [`reference_evaluate`]. This is the semantics the backend-generic
/// executor must reproduce exactly.
fn reference_execute(
    plan: &Plan,
    schema: &Schema,
    instance: &Instance,
    selection: &mut dyn AccessSelection,
) -> Result<(Vec<Vec<Value>>, usize, usize), PlanError> {
    use rbqa::access::plan::Command;
    plan.validate(schema)?;
    let mut tables: FxHashMap<String, RefTable> = FxHashMap::default();
    let mut accesses_performed = 0usize;
    let mut tuples_fetched = 0usize;
    let mut row_ids: Vec<u32> = Vec::new();
    for command in plan.commands() {
        match command {
            Command::Middleware { output, expr } => {
                let table = reference_evaluate(expr, &tables)?;
                tables.insert(output.clone(), table);
            }
            Command::Access {
                output,
                method,
                input,
                input_map,
                output_map,
            } => {
                let m = schema
                    .method(method)
                    .ok_or_else(|| PlanError::UnknownMethod(method.clone()))?;
                let bindings_table = reference_evaluate(input, &tables)?;
                let input_positions = m.input_positions_vec();
                let mut out = RefTable::new(output_map.len());
                for binding_row in &bindings_table.rows {
                    let binding: Vec<(usize, Value)> = input_positions
                        .iter()
                        .zip(input_map.iter())
                        .map(|(&pos, &col)| (pos, binding_row[col]))
                        .collect();
                    row_ids.clear();
                    instance.matching_rows_into(m.relation(), &binding, &mut row_ids);
                    let matching: Vec<Vec<Value>> = row_ids
                        .iter()
                        .map(|&id| instance.row(m.relation(), id).to_vec())
                        .collect();
                    let selected = selection.select(m, &binding, &matching);
                    accesses_performed += 1;
                    tuples_fetched += selected.len();
                    for tuple in selected {
                        let projected: Vec<Value> = output_map.iter().map(|&p| tuple[p]).collect();
                        out.insert(projected)?;
                    }
                }
                tables.insert(output.clone(), out);
            }
        }
    }
    let output_table = tables
        .get(plan.output_table())
        .ok_or_else(|| PlanError::UnknownTable(plan.output_table().to_owned()))?;
    Ok((
        output_table.sorted_rows(),
        accesses_performed,
        tuples_fetched,
    ))
}

/// Random-plan fixture: R/2 keyed by position 0, S/2 behind an input-free
/// (optionally bounded) listing, T/1 behind an input-free listing.
fn differential_schema(s_bound: Option<usize>) -> Schema {
    let mut sig = Signature::new();
    let r = sig.add_relation("R", 2).unwrap();
    let s = sig.add_relation("S", 2).unwrap();
    let t = sig.add_relation("T", 1).unwrap();
    let mut schema = Schema::new(sig);
    schema
        .add_method(AccessMethod::unbounded("r_by0", r, &[0]))
        .unwrap();
    let s_all = match s_bound {
        None => AccessMethod::unbounded("s_all", s, &[]),
        Some(k) => AccessMethod::bounded("s_all", s, &[], k),
    };
    schema.add_method(s_all).unwrap();
    schema
        .add_method(AccessMethod::unbounded("t_all", t, &[]))
        .unwrap();
    schema
}

fn differential_instance(
    schema: &Schema,
    pairs_r: &[(u8, u8)],
    pairs_s: &[(u8, u8)],
    singles_t: &[u8],
) -> (Instance, ValueFactory) {
    let sig = schema.signature().clone();
    let r = sig.require("R").unwrap();
    let s = sig.require("S").unwrap();
    let t = sig.require("T").unwrap();
    let mut vf = ValueFactory::new();
    let mut inst = Instance::new(sig);
    let val = |vf: &mut ValueFactory, x: u8| vf.constant(&format!("v{x}"));
    for (a, b) in pairs_r {
        let (a, b) = (val(&mut vf, *a), val(&mut vf, *b));
        inst.insert(r, vec![a, b]).unwrap();
    }
    for (a, b) in pairs_s {
        let (a, b) = (val(&mut vf, *a), val(&mut vf, *b));
        inst.insert(s, vec![a, b]).unwrap();
    }
    for a in singles_t {
        let a = val(&mut vf, *a);
        inst.insert(t, vec![a]).unwrap();
    }
    (inst, vf)
}

/// Builds a random (but always valid) plan: seed the crawl with the S
/// listing, follow with per-key R lookups, then a few random monotone
/// middleware commands chosen by `ops`, and return the last table
/// projected to one column.
fn random_plan(ops: &[(u8, u8)]) -> Plan {
    let mut builder = PlanBuilder::new()
        .access("t0", "s_all", RaExpr::unit(), vec![], vec![0, 1])
        .access(
            "t1",
            "r_by0",
            RaExpr::project(RaExpr::table("t0"), vec![1]),
            vec![0],
            vec![0, 1],
        );
    let mut last = "t1".to_owned();
    let mut arity = 2usize;
    for (i, (kind, pick)) in ops.iter().enumerate() {
        let name = format!("m{i}");
        match kind % 4 {
            // Project onto a single random column.
            0 => {
                let col = (*pick as usize) % arity;
                builder =
                    builder.middleware(&name, RaExpr::project(RaExpr::table(&last), vec![col]));
                arity = 1;
            }
            // Select rows where two (possibly equal) columns agree.
            1 => {
                let c1 = (*pick as usize) % arity;
                let c2 = (*pick as usize / 3) % arity;
                builder = builder.middleware(
                    &name,
                    RaExpr::select(RaExpr::table(&last), Condition::eq_columns(c1, c2)),
                );
            }
            // Self-join on a random column pair.
            2 => {
                let c1 = (*pick as usize) % arity;
                let c2 = (*pick as usize / 3) % arity;
                builder = builder.middleware(
                    &name,
                    RaExpr::join(RaExpr::table(&last), RaExpr::table(&last), vec![(c1, c2)]),
                );
                arity *= 2;
            }
            // Union with the S listing's first column paired with itself
            // (kept monotone and arity-correct by projecting both sides).
            _ => {
                let col = (*pick as usize) % arity;
                builder = builder.middleware(
                    &name,
                    RaExpr::union(
                        RaExpr::project(RaExpr::table(&last), vec![col]),
                        RaExpr::project(RaExpr::table("t0"), vec![0]),
                    ),
                );
                arity = 1;
            }
        }
        last = name;
    }
    builder = builder.middleware("answers", RaExpr::project(RaExpr::table(&last), vec![0]));
    builder.returns("answers")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The backend-generic executor over an `InstanceBackend` reproduces
    /// the pre-refactor executor exactly: same rows, same access count,
    /// same fetched-tuple count — across random plans, random data, random
    /// result bounds and random (seeded) selections.
    #[test]
    fn instance_backend_execution_equals_the_pre_refactor_path(
        pairs_r in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        pairs_s in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        singles_t in prop::collection::vec(0u8..6, 0..4),
        ops in prop::collection::vec((0u8..4, 0u8..9), 0..4),
        s_bound in 0usize..4,
        seed in 0u64..64,
    ) {
        let bound = if s_bound == 0 { None } else { Some(s_bound) };
        let schema = differential_schema(bound);
        let (inst, _vf) = differential_instance(&schema, &pairs_r, &pairs_s, &singles_t);
        let plan = random_plan(&ops);

        let mut reference_selection = RandomSelection::new(seed);
        let (expected_rows, expected_accesses, expected_fetched) =
            reference_execute(&plan, &schema, &inst, &mut reference_selection).unwrap();

        let mut selection = RandomSelection::new(seed);
        let run = execute(&plan, &schema, &inst, &mut selection).unwrap();
        prop_assert_eq!(&run.output, &expected_rows);
        prop_assert_eq!(run.accesses_performed, expected_accesses);
        prop_assert_eq!(run.tuples_fetched, expected_fetched);
        prop_assert!(run.tuples_matched >= run.tuples_fetched,
            "bounds can only drop tuples, never add them");
    }
}

/// Random expression trees over the tables `tables` (name, arity) and
/// the value domain `values`, small enough that every join stays cheap.
struct ExprGen<'a> {
    rng: StdRng,
    tables: &'a [(String, usize)],
    values: &'a [Value],
    joins_left: usize,
}

impl ExprGen<'_> {
    fn value(&mut self) -> Value {
        self.values[self.rng.gen_range(0..self.values.len())]
    }

    /// Up to three rows of `arity` random values, duplicates included.
    fn constant(&mut self, arity: usize) -> RaExpr {
        let rows = (0..self.rng.gen_range(0..4))
            .map(|_| (0..arity).map(|_| self.value()).collect())
            .collect();
        RaExpr::Constant { arity, rows }
    }

    fn condition(&mut self, arity: usize) -> Condition {
        if arity == 0 {
            return Condition::True;
        }
        let simple = |g: &mut Self| match g.rng.gen_range(0..3) {
            0 => Condition::eq_const(g.rng.gen_range(0..arity), g.value()),
            1 => Condition::eq_columns(g.rng.gen_range(0..arity), g.rng.gen_range(0..arity)),
            _ => Condition::True,
        };
        if self.rng.gen_bool(1.0 / 3.0) {
            simple(self).and(simple(self))
        } else {
            simple(self)
        }
    }

    /// `expr` (of arity `from`) turned into an expression of arity `to`.
    fn coerce(&mut self, expr: RaExpr, from: usize, to: usize) -> RaExpr {
        if from == to {
            expr
        } else if from == 0 {
            let constant = self.constant(to);
            RaExpr::join(expr, constant, vec![])
        } else {
            let columns = (0..to).map(|_| self.rng.gen_range(0..from)).collect();
            RaExpr::project(expr, columns)
        }
    }

    /// A random expression with at most `depth` operator levels, and its
    /// arity. One table reference in sixteen names a missing table.
    fn expr(&mut self, depth: usize) -> (RaExpr, usize) {
        let kind = if depth == 0 {
            self.rng.gen_range(0..3)
        } else {
            self.rng.gen_range(0..8)
        };
        match kind {
            0 if self.rng.gen_bool(1.0 / 16.0) => (RaExpr::table("missing"), 1),
            0 => {
                let (name, arity) = &self.tables[self.rng.gen_range(0..self.tables.len())];
                (RaExpr::table(name), *arity)
            }
            1 => {
                let arity = self.rng.gen_range(0..3);
                (self.constant(arity), arity)
            }
            2 => (RaExpr::unit(), 0),
            3 => {
                let (input, arity) = self.expr(depth - 1);
                let condition = self.condition(arity);
                (RaExpr::select(input, condition), arity)
            }
            4 => {
                let (input, arity) = self.expr(depth - 1);
                let width = if arity == 0 {
                    0
                } else {
                    self.rng.gen_range(0..4)
                };
                let columns: Vec<usize> =
                    (0..width).map(|_| self.rng.gen_range(0..arity)).collect();
                (RaExpr::project(input, columns), width)
            }
            5 if self.joins_left > 0 => {
                self.joins_left -= 1;
                let (left, la) = match self.rng.gen_range(0..4) {
                    0 => (RaExpr::unit(), 0),
                    _ => self.expr(depth - 1),
                };
                let (right, ra) = match self.rng.gen_range(0..4) {
                    0 => (RaExpr::unit(), 0),
                    _ => self.expr(depth - 1),
                };
                let pairs = if la == 0 || ra == 0 {
                    0
                } else {
                    self.rng.gen_range(0..3)
                };
                let on = (0..pairs)
                    .map(|_| (self.rng.gen_range(0..la), self.rng.gen_range(0..ra)))
                    .collect();
                (RaExpr::join(left, right, on), la + ra)
            }
            5 => self.expr(depth - 1),
            // A union chain of 2–4 leaves, left-deep or right-deep; one
            // chain in eight has a leaf of another arity.
            _ => {
                let leaves = self.rng.gen_range(2..5);
                let (first, arity) = self.expr(depth - 1);
                let mismatch = self
                    .rng
                    .gen_bool(1.0 / 8.0)
                    .then(|| self.rng.gen_range(0..leaves - 1));
                let mut chain = vec![first];
                for i in 0..leaves - 1 {
                    let (leaf, leaf_arity) = self.expr(depth - 1);
                    let want = if mismatch == Some(i) {
                        arity + 1
                    } else {
                        arity
                    };
                    chain.push(self.coerce(leaf, leaf_arity, want));
                }
                let tree = if self.rng.gen_bool(0.5) {
                    let first = chain.remove(0);
                    chain.into_iter().fold(first, RaExpr::union)
                } else {
                    let last = chain.pop().expect("two leaves or more");
                    chain
                        .into_iter()
                        .rev()
                        .fold(last, |acc, e| RaExpr::union(e, acc))
                };
                (tree, arity)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The RA kernel (borrowed scans, one-pass unions, hash joins) returns
    /// exactly what the nested-loop reference returns: the same arity and
    /// the same rows in the same insertion order, or the same error.
    #[test]
    fn ra_kernel_matches_the_nested_loop_reference(seed in any::<u64>()) {
        let mut vf = ValueFactory::new();
        let values: Vec<Value> = (0..3).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = Vec::new();
        let mut env = FxHashMap::default();
        let mut reference_env = FxHashMap::default();
        for t in 0..3 {
            let name = format!("t{t}");
            let arity = rng.gen_range(1..4);
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..7))
                .map(|_| (0..arity).map(|_| values[rng.gen_range(0..values.len())]).collect())
                .collect();
            env.insert(name.clone(), TempTable::from_rows(arity, rows.clone()).unwrap());
            reference_env.insert(name.clone(), RefTable::from_rows(arity, rows).unwrap());
            tables.push((name, arity));
        }
        let mut gen = ExprGen { rng, tables: &tables, values: &values, joins_left: 2 };
        for _ in 0..4 {
            gen.joins_left = 2;
            let (expr, _) = gen.expr(4);
            match (expr.evaluate(&env), reference_evaluate(&expr, &reference_env)) {
                (Ok(kernel), Ok(reference)) => {
                    prop_assert_eq!(kernel.arity(), reference.arity, "{:?}", expr);
                    prop_assert_eq!(kernel.rows(), &reference.rows[..], "{:?}", expr);
                }
                (Err(kernel), Err(reference)) => prop_assert_eq!(kernel, reference, "{:?}", expr),
                (kernel, reference) => panic!("{expr:?}: kernel {kernel:?}, reference {reference:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded methods return the full match set and an exact bound of
    /// `k` the `k` smallest matching tuples, from one instance or from any
    /// number of shards: a sharded federation must produce exactly the
    /// truncating instance backend's rows and accounting.
    #[test]
    fn sharded_matches_instance_on_unbounded_methods(
        pairs_r in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        pairs_s in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        singles_t in prop::collection::vec(0u8..6, 0..4),
        ops in prop::collection::vec((0u8..4, 0u8..9), 0..4),
        shards in 1usize..=4,
        s_bound in 0usize..=5,
    ) {
        // 0 draws an unbounded `s_all`, 1..=5 an exact bound.
        let schema = differential_schema((s_bound > 0).then_some(s_bound));
        let (inst, _vf) = differential_instance(&schema, &pairs_r, &pairs_s, &singles_t);
        let plan = random_plan(&ops);

        let mut selection = TruncatingSelection::new();
        let direct = execute(&plan, &schema, &inst, &mut selection).unwrap();

        let mut sharded = ShardedBackend::over_instance(&inst, shards);
        let federated = execute_with_backend(&plan, &schema, &mut sharded).unwrap();
        prop_assert_eq!(&federated.output, &direct.output, "{} shards", shards);
        // Every matching row sits on exactly one shard: the same tuples
        // matched overall.
        prop_assert_eq!(federated.tuples_matched, direct.tuples_matched);
        prop_assert_eq!(federated.tuples_fetched, direct.tuples_fetched);
        prop_assert_eq!(federated.truncated_accesses, direct.truncated_accesses);
        prop_assert_eq!(federated.accesses_performed, direct.accesses_performed);
    }
}

#[test]
fn budget_exhaustion_is_deterministic_across_executors() {
    // The budgeted backend fails on the same call number no matter which
    // plan shape drove it there.
    let schema = differential_schema(None);
    let (inst, _) = differential_instance(&schema, &[(0, 1), (1, 2)], &[(0, 1), (1, 0)], &[]);
    let plan = random_plan(&[]);
    let mut backend = rbqa::access::BudgetedBackend::new(InstanceBackend::truncating(&inst), 2);
    let err = execute_with_backend(&plan, &schema, &mut backend).unwrap_err();
    assert_eq!(
        err,
        PlanError::Access(AccessError::BudgetExhausted {
            budget: 2,
            calls: 3
        })
    );
}
