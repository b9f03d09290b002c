//! Web-service integration scenarios modelled on the paper's motivating
//! examples (Section 1): a ChEBI-style chemistry service whose lookups are
//! capped at 5000 rows, and an IMDb-style movie catalogue whose title
//! listing is capped at 10000 rows and every run has a call budget.
//!
//! For each service we ask which queries can still be answered *completely*
//! through the interfaces, and we execute a plan against the simulator to
//! see the number of calls and transferred tuples — through the pluggable
//! backend API: the same plan runs against the in-memory instance, a
//! 3-shard federation, and a simulated remote service with seeded latency,
//! and a hard call quota makes an over-budget crawl fail fast.
//!
//! Run with: `cargo run --example web_services`

use rbqa::access::plan::PlanError;
use rbqa::access::{AccessError, Condition, PlanBuilder, RaExpr, TruncatingSelection};
use rbqa::core::{decide_monotone_answerability, AnswerabilityOptions};
use rbqa::engine::{movie_instance, BackendSpec, ExecOptions, ServiceSimulator};
use rbqa::workloads::scenarios;

fn main() {
    // --- ChEBI-style biological entities -----------------------------------
    let mut bio = scenarios::bio_services(5000);
    println!("== {} ==", bio.name);
    let queries = bio.queries.clone();
    for (name, query, expected) in &queries {
        let result = decide_monotone_answerability(
            &bio.schema,
            query,
            &mut bio.values,
            &AnswerabilityOptions::default(),
        );
        println!(
            "  {:<28} -> {:?} (paper expectation: {:?})",
            name, result.answerability, expected
        );
    }
    println!(
        "  A bounded per-id lookup still answers point queries (the id determines name and \
         mass), but \"list all compounds\" cannot be answered completely.\n"
    );

    // --- IMDb-style movie catalogue -----------------------------------------
    let mut movies = scenarios::movie_services(10_000);
    println!("== {} ==", movies.name);
    let queries = movies.queries.clone();
    for (name, query, expected) in &queries {
        let result = decide_monotone_answerability(
            &movies.schema,
            query,
            &mut movies.values,
            &AnswerabilityOptions::default(),
        );
        println!(
            "  {:<28} -> {:?} (paper expectation: {:?})",
            name, result.answerability, expected
        );
    }

    // Execute a hand-written plan for "names of the cast of movie0" against
    // the simulated services, once per backend: the in-memory instance, a
    // 3-shard hash federation, and a simulated remote with 150µs base
    // latency per call. All three must return the same names.
    let data = movie_instance(movies.schema.signature(), &mut movies.values, 200, 40, 11);
    let services = ServiceSimulator::new(movies.schema.clone(), data);
    let movie0 = movies.values.constant("movie0");
    let plan = PlanBuilder::new()
        .middleware("seed", RaExpr::singleton(vec![movie0]))
        .access(
            "cast",
            "cast_by_movie",
            RaExpr::table("seed"),
            vec![0],
            vec![0, 1],
        )
        .access(
            "actors",
            "actor_by_id",
            RaExpr::project(RaExpr::table("cast"), vec![1]),
            vec![0],
            vec![0, 1],
        )
        .middleware("names", RaExpr::project(RaExpr::table("actors"), vec![1]))
        .returns("names");
    println!("\n  Cast of movie0 through each backend (call budget 50 calls/run):");
    for (label, backend) in [
        ("instance", BackendSpec::Instance),
        ("sharded:3", BackendSpec::Sharded { shards: 3 }),
        (
            "remote",
            BackendSpec::SimulatedRemote {
                seed: 42,
                latency_micros: 150,
                fault_rate_pct: 0,
                transient: false,
            },
        ),
    ] {
        let exec = ExecOptions {
            backend,
            call_budget: Some(50),
            ..ExecOptions::default()
        };
        let (mut runs, _) = services.run_plans_exec_results(&[&plan], &exec).unwrap();
        let (names, metrics) = runs.remove(0).unwrap();
        println!(
            "    {:<10} {} actors, {} calls, {} tuples fetched ({} matched), simulated latency {} µs",
            label,
            names.len(),
            metrics.total_calls,
            metrics.tuples_fetched,
            metrics.tuples_matched,
            metrics.latency_micros
        );
    }

    // Quotas are hard errors now: a crawl that would exceed its call
    // budget fails fast instead of returning partial rows.
    let starved = ExecOptions {
        backend: BackendSpec::Instance,
        call_budget: Some(1),
        ..ExecOptions::default()
    };
    match services
        .run_plans_exec_results(&[&plan], &starved)
        .and_then(|(mut runs, _)| runs.remove(0))
    {
        Err(PlanError::Access(AccessError::BudgetExhausted { budget, calls })) => println!(
            "  With a budget of {budget} calls the crawl fails fast on call {calls} — no partial \
             answers."
        ),
        other => println!("  unexpected outcome under a starved budget: {other:?}"),
    }

    // A plan that tries to list every title through the bounded search is
    // incomplete: compare its output size with the hidden data.
    let all_titles_plan = PlanBuilder::new()
        .access("m", "movie_search", RaExpr::unit(), vec![], vec![0, 1, 2])
        .middleware(
            "titles",
            RaExpr::project(RaExpr::select(RaExpr::table("m"), Condition::True), vec![1]),
        )
        .returns("titles");
    // Rebuild the simulator with a small search bound to make the truncation
    // visible at this scale.
    let mut small = scenarios::movie_services(50);
    let data = movie_instance(small.schema.signature(), &mut small.values, 200, 40, 11);
    let movie_rel = small.schema.signature().require("Movie").unwrap();
    let total_movies = data.relation_len(movie_rel);
    let services = ServiceSimulator::new(small.schema.clone(), data);
    let mut selection = TruncatingSelection::new();
    let (titles, _) = services.run_plan(&all_titles_plan, &mut selection).unwrap();
    println!(
        "  \"All titles\" through a search capped at 50: got {} of {} titles — incomplete, as \
         the answerability analysis predicted.",
        titles.len(),
        total_movies
    );
}
