//! Regenerates the qualitative content of the paper's Table 1 as a report:
//! for every constraint class, which simplification the pipeline applies and
//! which of the class's representative queries are (not) answerable, checked
//! against the paper's expectations where stated.
//!
//! Run with `cargo run -p rbqa-bench --bin table1_report` (add `--release`
//! for faster decisions). Pass `--json <path>` to also dump the records as
//! JSON (consumed when updating EXPERIMENTS.md). It also counts, per
//! class, how many answerable random queries and two-disjunct unions get
//! a plan read off their containment's proof and how many fall back to
//! the crawl. Exits 1 when a worked example's verdict differs from the
//! paper's, or when an answerable query or union gets no plan without a
//! counted fallback.

use rbqa_bench::{
    bench_options, records_to_json_pretty, render_table, run_decision, run_workload, DecisionRecord,
};
use rbqa_core::{
    decide_monotone_answerability, decide_monotone_answerability_union, AnswerabilityOptions,
    ConstraintClass, PlanKind,
};
use rbqa_logic::UnionOfConjunctiveQueries;
use rbqa_workloads::random::{RandomClass, RandomSchemaConfig, RandomWorkload};
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

/// The random workload of each Table-1 row.
fn random_workloads() -> Vec<(&'static str, RandomWorkload)> {
    let configs = [
        ("row IDs (width 2)", RandomClass::Ids { width: 2 }),
        (
            "row bounded-width IDs (UIDs)",
            RandomClass::Ids { width: 1 },
        ),
        ("row FDs", RandomClass::Fds),
        ("row UIDs+FDs", RandomClass::UidsAndFds),
    ];
    configs
        .into_iter()
        .map(|(label, class)| {
            let config = RandomSchemaConfig {
                relations: 4,
                dependencies: 4,
                class,
                ..Default::default()
            };
            (label, config.generate(17))
        })
        .collect()
}

fn random_records() -> Vec<DecisionRecord> {
    let mut records = Vec::new();
    for (label, mut workload) in random_workloads() {
        records.extend(run_workload(label, &mut workload));
    }
    records
}

/// Plan kinds over one row's answerable queries and unions.
#[derive(Default)]
struct PlanCounts {
    answerable: usize,
    proof: usize,
    fallback: usize,
    unplanned: usize,
}

impl PlanCounts {
    /// Counts one answerable query or union. A fallback may leave it
    /// without a plan (a rescue's proof fell back); any other missing plan
    /// is an uncounted miss.
    fn count(&mut self, planned: bool, kind: Option<PlanKind>) {
        match kind {
            Some(PlanKind::Proof) if planned => self.proof += 1,
            Some(PlanKind::Fallback(_)) => self.fallback += 1,
            _ => self.unplanned += 1,
        }
    }
}

/// Counts, per row, the plan kinds of the answerable chain queries and of
/// the unions of the first chain query with each longer one. Returns the
/// number of uncounted misses.
fn plan_counts() -> usize {
    let options = AnswerabilityOptions {
        synthesize_plan: true,
        ..bench_options()
    };
    let mut misses = 0;
    println!(
        "{:<32} {:>10} {:>7} {:>9} {:>10}",
        "row", "answerable", "proof", "fallback", "uncounted"
    );
    for (label, mut workload) in random_workloads() {
        let mut counts = PlanCounts::default();
        let queries = workload.queries.clone();
        for query in &queries {
            let result = decide_monotone_answerability(
                &workload.schema,
                query,
                &mut workload.values,
                &options,
            );
            if result.is_answerable() {
                counts.answerable += 1;
                counts.count(result.plan.is_some(), result.plan_kind);
            }
        }
        for longer in &queries[1..] {
            let union =
                UnionOfConjunctiveQueries::from_disjuncts(vec![queries[0].clone(), longer.clone()]);
            let result = decide_monotone_answerability_union(
                &workload.schema,
                &union,
                &mut workload.values,
                &options,
            );
            if !result.is_answerable() {
                continue;
            }
            counts.answerable += 1;
            let kinds: Vec<PlanKind> = result.plan_kinds().collect();
            let fallback = kinds.iter().find(|k| **k != PlanKind::Proof).copied();
            let kind = match kinds.len() == union.len() {
                true => Some(fallback.unwrap_or(PlanKind::Proof)),
                false => None,
            };
            counts.count(result.union_plans().is_some(), kind);
        }
        println!(
            "{label:<32} {:>10} {:>7} {:>9} {:>10}",
            counts.answerable, counts.proof, counts.fallback, counts.unplanned
        );
        misses += counts.unplanned;
    }
    println!();
    misses
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

    println!("== Plan kinds over the random workloads (queries and two-disjunct unions) ==\n");
    let misses = plan_counts();

    if let Some(path) = json_path {
        let json = records_to_json_pretty(&records);
        std::fs::write(&path, json).expect("write JSON report");
        println!("JSON report written to {path}");
    }
    if mismatched > 0 {
        eprintln!("{mismatched} verdict(s) differ from the paper");
    }
    if misses > 0 {
        eprintln!("{misses} answerable query or union(s) without a counted plan");
    }
    if mismatched > 0 || misses > 0 {
        std::process::exit(1);
    }
}
