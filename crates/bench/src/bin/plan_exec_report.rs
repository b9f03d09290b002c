//! FIG-plan-exec report: executes synthesised plans against the simulated
//! web services and reports completeness and access costs, reproducing the
//! motivation of Section 1 (complete answers despite result-bounded
//! interfaces, bounded data transferred).
//!
//! The first section lists every answerable query of the `rbqa_workloads`
//! scenarios with its plan kind (read off the containment's proof, or the
//! crawl as a counted fallback), the access commands of its plan, and the
//! calls the plan and the crawl make on the scenario's dataset.
//!
//! Run with `cargo run --release -p rbqa-bench --bin plan_exec_report`.
//! Exits 1 when a plan is missing or uncounted, returns incomplete
//! answers, fails validation or gets a Boolean query's answer wrong.

use rbqa_access::{Command, Plan, Schema, TruncatingSelection};
use rbqa_common::{Instance, ValueFactory};
use rbqa_core::{
    decide_monotone_answerability, synthesize_crawling_plan, AnswerabilityOptions, PlanKind,
};
use rbqa_engine::{
    movie_instance, random_instance_satisfying, university_instance, validate_plan,
    ServiceSimulator,
};
use rbqa_logic::evaluate;
use rbqa_workloads::scenarios;

/// A dataset for `schema` that satisfies its constraints: the university
/// and movie generators where the relations match, else a small random
/// world.
fn scenario_dataset(schema: &Schema, values: &mut ValueFactory) -> Instance {
    let sig = schema.signature();
    if sig.require("Prof").is_ok() {
        return university_instance(sig, values, 50, 7);
    }
    if sig.require("Movie").is_ok() {
        return movie_instance(sig, values, 50, 30, 7);
    }
    (0..64)
        .find_map(|seed| random_instance_satisfying(sig, schema.constraints(), values, 6, 8, seed))
        .expect("some seed gives a world that satisfies the constraints")
}

/// The methods `plan`'s access commands call, in order.
fn access_sequence(plan: &Plan) -> String {
    let methods: Vec<&str> = plan
        .commands()
        .iter()
        .filter_map(|command| match command {
            Command::Access { method, .. } => Some(method.as_str()),
            Command::Middleware { .. } => None,
        })
        .collect();
    methods.join(", ")
}

/// The calls `plan` makes on `data`.
fn calls(plan: &Plan, schema: &Schema, data: &Instance) -> usize {
    let simulator = ServiceSimulator::new(schema.clone(), data.clone());
    let mut selection = TruncatingSelection::new();
    simulator
        .run_plan(plan, &mut selection)
        .map_or(0, |(_, metrics)| metrics.total_calls)
}

/// Plans every answerable scenario query; returns the number of failed
/// checks.
fn scenario_plans() -> usize {
    let mut failures = 0usize;
    println!("Plans of the answerable scenario queries (calls on the scenario's dataset):\n");
    println!(
        "{:<48} {:<24} {:<10} {:>11} {:>11}  accesses",
        "scenario", "query", "plan", "plan calls", "crawl calls"
    );
    println!("{}", "-".repeat(130));
    let options = AnswerabilityOptions {
        synthesize_plan: true,
        ..Default::default()
    };
    for mut scenario in scenarios::all_scenarios() {
        let data = scenario_dataset(&scenario.schema, &mut scenario.values);
        for (label, query, _) in scenario.queries.clone() {
            let result = decide_monotone_answerability(
                &scenario.schema,
                &query,
                &mut scenario.values,
                &options,
            );
            if !result.is_answerable() {
                continue;
            }
            let (Some(plan), Some(kind)) = (&result.plan, result.plan_kind) else {
                println!(
                    "{:<48} {label:<24} no plan, or an uncounted one",
                    scenario.name
                );
                failures += 1;
                continue;
            };
            let rounds = (result.containment.chase_stats.max_depth_reached + 1).max(2);
            let crawl_calls = synthesize_crawling_plan(&scenario.schema, &query, rounds)
                .map_or(0, |crawl| calls(&crawl, &scenario.schema, &data));
            let kind_label = match kind {
                PlanKind::Proof => "proof".to_owned(),
                PlanKind::Fallback(reason) => format!("{reason:?}"),
            };
            println!(
                "{:<48} {label:<24} {kind_label:<10} {:>11} {:>11}  {}",
                scenario.name,
                calls(plan, &scenario.schema, &data),
                crawl_calls,
                access_sequence(plan)
            );
            if kind == PlanKind::Proof {
                let report = validate_plan(
                    &scenario.schema,
                    plan,
                    &query,
                    std::slice::from_ref(&data),
                    2,
                );
                if !report.is_valid() {
                    println!("  validation found a discrepancy: {:?}", report.discrepancy);
                    failures += 1;
                }
            }
        }
    }
    println!();
    failures
}

fn main() {
    let mut failures = 0usize;
    println!("FIG-plan-exec: plan execution over simulated result-bounded services\n");
    failures += scenario_plans();
    println!(
        "{:<12} {:<28} {:<12} {:<10} {:<10} {:<12} {:<10}",
        "instance", "query", "answerable", "calls", "tuples", "output", "complete"
    );
    println!("{}", "-".repeat(100));

    for size in [10usize, 50, 200] {
        // The university scenario without a bound on ud: Q1 is answerable and
        // the synthesised plan must return complete answers.
        let mut scenario = scenarios::university(None);
        let query = scenario.query("Q1_salary_names").unwrap().clone();
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            ..Default::default()
        };
        let result =
            decide_monotone_answerability(&scenario.schema, &query, &mut scenario.values, &options);
        let plan = match &result.plan {
            Some(p) => p.clone(),
            None => {
                println!("no plan synthesised for Q1 (unexpected)");
                failures += 1;
                continue;
            }
        };
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, size, 7);
        let expected = evaluate(&query, &data).expect("benchmark queries are safe");
        let simulator = ServiceSimulator::new(scenario.schema.clone(), data.clone());
        let mut selection = TruncatingSelection::new();
        let (output, metrics) = simulator
            .run_plan(&plan, &mut selection)
            .expect("plan executes");
        let complete = output == expected;
        failures += usize::from(!complete);
        println!(
            "{:<12} {:<28} {:<12} {:<10} {:<10} {:<12} {:<10}",
            format!("univ-{size}"),
            "Q1_salary_names",
            format!("{:?}", result.answerability),
            metrics.total_calls,
            metrics.tuples_fetched,
            output.len(),
            complete
        );

        // Cross-check with the validation harness under several selections.
        let report = validate_plan(&scenario.schema, &plan, &query, &[data], 2);
        if !report.is_valid() {
            println!("  validation found a discrepancy: {:?}", report.discrepancy);
            failures += 1;
        }
    }

    println!();
    println!("Existence-check query under a result bound (Example 1.4 shape):");
    for bound in [1usize, 10, 100] {
        let mut scenario = scenarios::university(Some(bound));
        let query = scenario.query("Q2_directory_nonempty").unwrap().clone();
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            ..Default::default()
        };
        let result =
            decide_monotone_answerability(&scenario.schema, &query, &mut scenario.values, &options);
        let Some(plan) = result.plan.clone() else {
            println!("  bound {bound}: no plan synthesised");
            failures += 1;
            continue;
        };
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, 100, 3);
        let simulator = ServiceSimulator::new(scenario.schema.clone(), data.clone());
        let mut selection = TruncatingSelection::new();
        let (output, metrics) = simulator
            .run_plan(&plan, &mut selection)
            .expect("plan executes");
        let expected = evaluate(&query, &data).expect("benchmark queries are safe");
        let matches = output.is_empty() == expected.is_empty();
        failures += usize::from(!matches);
        println!(
            "  bound {:>4}: answerable={:?}, calls={}, tuples fetched={}, boolean output matches={}",
            bound, result.answerability, metrics.total_calls, metrics.tuples_fetched, matches
        );
    }

    if failures > 0 {
        eprintln!("{failures} plan-execution check(s) failed");
        std::process::exit(1);
    }
    println!("\nEvery plan is complete, valid and answers its Boolean query correctly.");
}
