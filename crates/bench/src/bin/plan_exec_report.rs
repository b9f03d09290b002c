//! FIG-plan-exec report: executes synthesised plans against the simulated
//! web services and reports completeness and access costs, reproducing the
//! motivation of Section 1 (complete answers despite result-bounded
//! interfaces, bounded data transferred).
//!
//! Run with `cargo run --release -p rbqa-bench --bin plan_exec_report`.
//! Exits 1 when a plan is missing, returns incomplete answers, fails
//! validation or gets a Boolean query's answer wrong.

use rbqa_access::TruncatingSelection;
use rbqa_core::{decide_monotone_answerability, AnswerabilityOptions};
use rbqa_engine::{university_instance, validate_plan, ServiceSimulator};
use rbqa_logic::evaluate;
use rbqa_workloads::scenarios;

fn main() {
    let mut failures = 0usize;
    println!("FIG-plan-exec: plan execution over simulated result-bounded services\n");
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
            crawl_rounds: 2,
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
            crawl_rounds: 1,
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
