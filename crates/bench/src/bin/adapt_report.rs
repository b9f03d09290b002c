//! FIG-adapt report: naive vs adaptive plan execution over union windows.
//!
//! Each scenario executes one union (several disjunct plans sharing a
//! backend window) twice — once naively and once with `exec.adaptive on`
//! — and reports the backend-call reduction the adaptive window achieves
//! through its `(method, binding)` memo (duplicate bindings and accesses
//! shared across disjuncts) and the identical-disjunct short-circuit.
//! The report asserts that the two executions return byte-identical
//! sorted row sets on every scenario; the acceptance bar is a >= 25%
//! total-call reduction on the web-services and sharded scenarios.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rbqa-bench --bin adapt_report [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the instances — the CI smoke mode. The committed
//! `BENCH_adapt.json` is produced by the full run; see EXPERIMENTS.md
//! ("FIG-adapt") before regenerating it.

use rbqa_access::{Condition, Plan, PlanBuilder, RaExpr};
use rbqa_bench::example_1_2_salary_plan;
use rbqa_common::Value;
use rbqa_engine::{
    movie_instance, university_instance, AdaptiveMode, BackendSpec, ExecOptions, ServiceSimulator,
};
use rbqa_workloads::scenarios;

/// The IMDb-style crawl: search all movies, list each movie's cast, look
/// every cast row's actor up by id. Feeding the raw `(movie, actor)`
/// cast pairs into `actor_by_id` deliberately repeats actor bindings —
/// the naive executor performs one backend call per cast row, the
/// adaptive one per distinct actor.
fn movie_crawl(filter: Option<Value>) -> Plan {
    let builder = PlanBuilder::new()
        .access(
            "movies",
            "movie_search",
            RaExpr::unit(),
            vec![],
            vec![0, 1, 2],
        )
        .middleware(
            "movie_ids",
            RaExpr::project(RaExpr::table("movies"), vec![0]),
        )
        .access(
            "casts",
            "cast_by_movie",
            RaExpr::table("movie_ids"),
            vec![0],
            vec![0, 1],
        )
        .access(
            "actors",
            "actor_by_id",
            RaExpr::table("casts"),
            vec![1],
            vec![0, 1],
        );
    match filter {
        Some(name) => builder
            .middleware(
                "picked",
                RaExpr::select(RaExpr::table("actors"), Condition::eq_const(1, name)),
            )
            .middleware("names", RaExpr::project(RaExpr::table("picked"), vec![1]))
            .returns("names"),
        None => builder
            .middleware("names", RaExpr::project(RaExpr::table("actors"), vec![1]))
            .returns("names"),
    }
}

/// The Example 1.2 crawl with a parameterised salary filter; two
/// disjuncts over different salaries share the whole directory/professor
/// access frontier.
fn salary_crawl(values: &mut rbqa_common::ValueFactory, salary: &str) -> Plan {
    let salary = values.constant(salary);
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

struct ScenarioRow {
    name: &'static str,
    backend: &'static str,
    naive: UnionOutcome,
    adaptive: UnionOutcome,
}

struct UnionOutcome {
    rows: Vec<Vec<Value>>,
    total_calls: usize,
    accesses_skipped: usize,
    disjuncts_short_circuited: usize,
}

impl ScenarioRow {
    fn reduction_pct(&self) -> f64 {
        let naive = self.naive.total_calls.max(1) as f64;
        100.0 * (naive - self.adaptive.total_calls as f64) / naive
    }

    fn rows_identical(&self) -> bool {
        // Byte-identical, not just set-equal: both executors produce
        // their union rows through the same interning factory, so equal
        // debug renderings mean equal bytes on the wire.
        format!("{:?}", self.naive.rows) == format!("{:?}", self.adaptive.rows)
    }
}

/// Runs the union once under `mode`, folding the per-plan outcomes into
/// one sorted, deduplicated row set and summed metrics (the service's
/// union semantics). Panics if any disjunct fails — these scenarios run
/// without budgets or fault injection.
fn run_union(simulator: &ServiceSimulator, plans: &[&Plan], exec: &ExecOptions) -> UnionOutcome {
    let (results, _) = simulator
        .run_plans_exec_results(plans, exec)
        .expect("union executes");
    let mut outcome = UnionOutcome {
        rows: Vec::new(),
        total_calls: 0,
        accesses_skipped: 0,
        disjuncts_short_circuited: 0,
    };
    for result in results {
        let (plan_rows, metrics) = result.expect("disjunct executes");
        outcome.rows.extend(plan_rows);
        outcome.total_calls += metrics.total_calls;
        outcome.accesses_skipped += metrics.accesses_skipped;
        outcome.disjuncts_short_circuited += metrics.disjuncts_short_circuited;
    }
    outcome.rows.sort();
    outcome.rows.dedup();
    outcome
}

fn run_scenario(
    name: &'static str,
    backend_label: &'static str,
    simulator: &ServiceSimulator,
    plans: &[&Plan],
    backend: BackendSpec,
) -> ScenarioRow {
    let mut exec = ExecOptions::with_backend(backend);
    let naive = run_union(simulator, plans, &exec);
    exec.adaptive = AdaptiveMode::On;
    let adaptive = run_union(simulator, plans, &exec);
    ScenarioRow {
        name,
        backend: backend_label,
        naive,
        adaptive,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_adapt.json".to_owned());

    let (movies, actors, employees) = if quick { (15, 8, 30) } else { (120, 40, 200) };

    // Web-services scenario: the IMDb-style crawl union. Disjunct 2
    // repeats disjunct 1's access frontier under a different final
    // filter (every access cached); disjunct 3 is structurally identical
    // to disjunct 1 (short-circuited without touching the backend).
    let mut movie = scenarios::movie_services(10_000);
    let movie_data = movie_instance(
        movie.schema.signature(),
        &mut movie.values,
        movies,
        actors,
        11,
    );
    let movie_sim = ServiceSimulator::new(movie.schema.clone(), movie_data);
    let star = movie.values.constant("actor_name0");
    let crawl_all = movie_crawl(None);
    let crawl_star = movie_crawl(Some(star));
    let crawl_again = movie_crawl(None);
    let movie_plans = [&crawl_all, &crawl_star, &crawl_again];

    // Sharded scenario: the Example 1.2 salary union over a sharded
    // federation; both disjuncts crawl the identical directory frontier.
    let mut uni = scenarios::university(None);
    let low = salary_crawl(&mut uni.values, "10000");
    let high = salary_crawl(&mut uni.values, "20000");
    let example = example_1_2_salary_plan(&mut uni.values);
    debug_assert_eq!(format!("{low:?}"), format!("{example:?}"));
    let uni_data = university_instance(uni.schema.signature(), &mut uni.values, employees, 5);
    let uni_sim = ServiceSimulator::new(uni.schema.clone(), uni_data);
    let uni_plans = [&low, &high];

    let remote = BackendSpec::SimulatedRemote {
        seed: 7,
        latency_micros: 150,
        fault_rate_pct: 0,
        transient: false,
    };
    let rows: Vec<ScenarioRow> = vec![
        run_scenario(
            "web-services-movies",
            "instance",
            &movie_sim,
            &movie_plans,
            BackendSpec::Instance,
        ),
        run_scenario(
            "web-services-movies-remote",
            "remote",
            &movie_sim,
            &movie_plans,
            remote,
        ),
        run_scenario(
            "sharded-university",
            "sharded3",
            &uni_sim,
            &uni_plans,
            BackendSpec::Sharded { shards: 3 },
        ),
    ];

    println!("FIG-adapt: naive vs adaptive union execution\n");
    println!(
        "{:<28} {:<10} {:>12} {:>15} {:>9} {:>15} {:>11} {:>9}",
        "scenario",
        "backend",
        "naive calls",
        "adaptive calls",
        "skipped",
        "short-circuits",
        "reduction",
        "parity"
    );
    println!("{}", "-".repeat(116));
    let mut scenario_objs: Vec<String> = Vec::new();
    let mut min_reduction = f64::INFINITY;
    for row in &rows {
        let reduction = row.reduction_pct();
        min_reduction = min_reduction.min(reduction);
        println!(
            "{:<28} {:<10} {:>12} {:>15} {:>9} {:>15} {:>10.1}% {:>9}",
            row.name,
            row.backend,
            row.naive.total_calls,
            row.adaptive.total_calls,
            row.adaptive.accesses_skipped,
            row.adaptive.disjuncts_short_circuited,
            reduction,
            row.rows_identical()
        );
        assert!(
            row.rows_identical(),
            "{}: adaptive rows diverged from naive rows",
            row.name
        );
        assert!(
            reduction >= 25.0,
            "{}: call reduction {reduction:.1}% below the 25% acceptance bar",
            row.name
        );
        scenario_objs.push(
            rbqa_api::json::JsonObject::new()
                .field_str("scenario", row.name)
                .field_str("backend", row.backend)
                .field_u128("disjuncts", if row.name.starts_with("web") { 3 } else { 2 })
                .field_u128("naive_calls", row.naive.total_calls as u128)
                .field_u128("adaptive_calls", row.adaptive.total_calls as u128)
                .field_u128("accesses_skipped", row.adaptive.accesses_skipped as u128)
                .field_u128(
                    "disjuncts_short_circuited",
                    row.adaptive.disjuncts_short_circuited as u128,
                )
                .field_u128("rows", row.adaptive.rows.len() as u128)
                .field_raw("reduction_pct", &format!("{reduction:.1}"))
                .field_bool("rows_identical", row.rows_identical())
                .finish(),
        );
    }

    println!(
        "\nminimum call reduction: {min_reduction:.1}% (acceptance bar: 25%); \
         all scenarios row-identical"
    );

    let report = rbqa_api::json::JsonObject::new()
        .field_str(
            "generated_by",
            "cargo run --release -p rbqa-bench --bin adapt_report",
        )
        .field_bool("quick", quick)
        .field_raw("scenarios", &rbqa_api::json::json_array(scenario_objs))
        .field_raw("min_reduction_pct", &format!("{min_reduction:.1}"))
        .field_bool("pass", true)
        .finish();
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("wrote {out_path}");
}
