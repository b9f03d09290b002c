//! Regenerates the qualitative content of the paper's Table 1 as a report:
//! for every constraint class, which simplification the pipeline applies and
//! which of the class's representative queries are (not) answerable, checked
//! against the paper's expectations where stated.
//!
//! Run with `cargo run -p rbqa-bench --bin table1_report` (add `--release`
//! for faster decisions). Pass `--json <path>` to also dump the records as
//! JSON (consumed when updating EXPERIMENTS.md). Exits 1 when a worked
//! example's verdict differs from the paper's.

use rbqa_bench::{
    bench_options, records_to_json_pretty, render_table, run_decision, run_workload, DecisionRecord,
};
use rbqa_core::ConstraintClass;
use rbqa_workloads::random::{RandomClass, RandomSchemaConfig};
use rbqa_workloads::scenarios;

fn scenario_records() -> Vec<DecisionRecord> {
    let mut records = Vec::new();
    for mut scenario in scenarios::all_scenarios() {
        let name = scenario.name.clone();
        let queries = scenario.queries.clone();
        for (label, query, expected) in queries {
            let (_, record) = run_decision(
                &name,
                &label,
                &scenario.schema,
                &query,
                &mut scenario.values,
                &bench_options(),
                expected,
            );
            records.push(record);
        }
    }
    records
}

fn random_records() -> Vec<DecisionRecord> {
    let mut records = Vec::new();
    let configs = [
        ("row IDs (width 2)", RandomClass::Ids { width: 2 }),
        (
            "row bounded-width IDs (UIDs)",
            RandomClass::Ids { width: 1 },
        ),
        ("row FDs", RandomClass::Fds),
        ("row UIDs+FDs", RandomClass::UidsAndFds),
    ];
    for (label, class) in configs {
        let config = RandomSchemaConfig {
            relations: 4,
            dependencies: 4,
            class,
            ..Default::default()
        };
        let mut workload = config.generate(17);
        records.extend(run_workload(label, &mut workload));
    }
    records
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    println!("Table 1 (paper) — simplification and complexity per constraint class\n");
    for class in [
        ConstraintClass::IdsOnly { max_width: 3 },
        ConstraintClass::IdsOnly { max_width: 1 },
        ConstraintClass::FdsOnly,
        ConstraintClass::UidsAndFds,
        ConstraintClass::FrontierGuardedTgds,
        ConstraintClass::ArbitraryTgds,
    ] {
        println!("  {:<38} {}", format!("{class:?}"), class.complexity());
    }
    println!();

    println!("== Paper scenarios (worked examples) ==\n");
    let mut records = scenario_records();
    println!("{}", render_table(&records));

    // Check expectations: an inconclusive verdict matches neither.
    let mismatches: Vec<&DecisionRecord> = records
        .iter()
        .filter(|r| {
            r.expected_answerable
                .is_some_and(|e| r.answerable != if e { "yes" } else { "no" })
        })
        .collect();
    let mismatched = mismatches.len();
    if mismatches.is_empty() {
        println!("All worked-example verdicts match the paper's statements.\n");
    } else {
        println!("MISMATCHES against the paper:");
        for r in &mismatches {
            println!("  {} / {}: got {}", r.workload, r.query, r.answerable);
        }
        println!();
    }

    println!("== Random workloads per Table-1 row ==\n");
    let random = random_records();
    println!("{}", render_table(&random));
    records.extend(random);

    if let Some(path) = json_path {
        let json = records_to_json_pretty(&records);
        std::fs::write(&path, json).expect("write JSON report");
        println!("JSON report written to {path}");
    }
    if mismatched > 0 {
        eprintln!("{mismatched} verdict(s) differ from the paper");
        std::process::exit(1);
    }
}
