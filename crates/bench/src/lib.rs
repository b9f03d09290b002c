//! # rbqa-bench
//!
//! Shared harness code for the report binaries that regenerate the paper's
//! Table 1 and the derived figures (DESIGN.md §4, EXPERIMENTS.md).
//!
//! Every binary under `src/bin/` asserts what it prints and exits nonzero
//! when a check fails: `table1_report` (the worked examples' verdicts),
//! `plan_exec_report` (plans are complete, valid and correct),
//! `adapt_report` (row parity and the call-reduction bar; writes
//! `BENCH_adapt.json`) and `trace_report` (the tracing-off overhead guard;
//! writes `BENCH_profile.json`). The paper's claims themselves are
//! asserted as deterministic counts by the root `tests/`; end-to-end
//! timings belong to perfbench (`python3 perfbench/run.py`).

use rbqa_access::Schema;
use rbqa_chase::Budget;
use rbqa_common::ValueFactory;
use rbqa_core::{
    decide_monotone_answerability, Answerability, AnswerabilityOptions, AnswerabilityResult,
};
use rbqa_logic::ConjunctiveQuery;
use rbqa_workloads::random::RandomWorkload;

/// A single decision record, serialisable for the experiment reports.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Workload / scenario label.
    pub workload: String,
    /// Query label.
    pub query: String,
    /// Detected constraint class (human readable).
    pub constraint_class: String,
    /// Simplification applied.
    pub simplification: String,
    /// Strategy used.
    pub strategy: String,
    /// The verdict.
    pub answerable: String,
    /// Whether the verdict is certified complete.
    pub complete: bool,
    /// Chase rounds performed by the decision.
    pub chase_rounds: usize,
    /// Facts produced by the decision's chase.
    pub chased_facts: usize,
    /// Wall-clock time of the decision in microseconds.
    pub micros: u128,
    /// The paper's expectation, when the scenario records one.
    pub expected_answerable: Option<bool>,
}

/// Runs one answerability decision and packages it as a [`DecisionRecord`].
pub fn run_decision(
    workload: &str,
    query_label: &str,
    schema: &Schema,
    query: &ConjunctiveQuery,
    values: &mut ValueFactory,
    options: &AnswerabilityOptions,
    expected: Option<bool>,
) -> (AnswerabilityResult, DecisionRecord) {
    let start = std::time::Instant::now();
    let result = decide_monotone_answerability(schema, query, values, options);
    let micros = start.elapsed().as_micros();
    let record = DecisionRecord {
        workload: workload.to_owned(),
        query: query_label.to_owned(),
        constraint_class: format!("{:?}", result.constraint_class),
        simplification: format!("{:?}", result.simplification),
        strategy: format!("{:?}", result.strategy),
        answerable: match result.answerability {
            Answerability::Answerable => "yes".to_owned(),
            Answerability::NotAnswerable => "no".to_owned(),
            Answerability::Unknown => "unknown".to_owned(),
        },
        complete: result.containment.complete,
        chase_rounds: result.containment.chase_stats.rounds,
        chased_facts: result.containment.chased_facts,
        micros,
        expected_answerable: expected,
    };
    (result, record)
}

/// Default options used by the reports (generous budget, no plan
/// synthesis).
pub fn bench_options() -> AnswerabilityOptions {
    AnswerabilityOptions {
        budget: Budget::generous(),
        ..Default::default()
    }
}

/// Runs a decision for every query of a generated random workload and
/// returns the records.
pub fn run_workload(label: &str, workload: &mut RandomWorkload) -> Vec<DecisionRecord> {
    let options = bench_options();
    let mut records = Vec::new();
    let queries = workload.queries.clone();
    for (i, query) in queries.iter().enumerate() {
        let (_, record) = run_decision(
            label,
            &format!("chain_{}", i + 1),
            &workload.schema,
            query,
            &mut workload.values,
            &options,
            None,
        );
        records.push(record);
    }
    records
}

/// Renders decision records as an aligned text table.
pub fn render_table(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42} {:<24} {:<22} {:<16} {:<10} {:<9} {:>10}\n",
        "workload", "query", "class", "simplification", "answerable", "complete", "time(us)"
    ));
    out.push_str(&"-".repeat(140));
    out.push('\n');
    for r in records {
        out.push_str(&format!(
            "{:<42} {:<24} {:<22} {:<16} {:<10} {:<9} {:>10}\n",
            truncate(&r.workload, 41),
            truncate(&r.query, 23),
            truncate(&r.constraint_class, 21),
            truncate(&r.simplification, 15),
            r.answerable,
            r.complete,
            r.micros
        ));
    }
    out
}

impl DecisionRecord {
    /// Renders the record as a single JSON object, using the workspace's
    /// shared hand-rolled writer ([`rbqa_api::json`] — the environment has
    /// no crates.io access, so there is no serde).
    pub fn to_json(&self) -> String {
        let expected = match self.expected_answerable {
            Some(b) => b.to_string(),
            None => "null".to_owned(),
        };
        rbqa_api::json::JsonObject::new()
            .field_str("workload", &self.workload)
            .field_str("query", &self.query)
            .field_str("constraint_class", &self.constraint_class)
            .field_str("simplification", &self.simplification)
            .field_str("strategy", &self.strategy)
            .field_str("answerable", &self.answerable)
            .field_bool("complete", self.complete)
            .field_u128("chase_rounds", self.chase_rounds as u128)
            .field_u128("chased_facts", self.chased_facts as u128)
            .field_u128("micros", self.micros)
            .field_raw("expected_answerable", &expected)
            .finish()
    }
}

/// Renders a slice of records as a pretty-printed JSON array (one record
/// per line).
pub fn records_to_json_pretty(records: &[DecisionRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!("[\n{}\n]", body.join(",\n"))
}

// ---------------------------------------------------------------------------
// Table-1 decide cases (trace_report, tests/hom_kernel_chase_modes.rs)
// ---------------------------------------------------------------------------

use rbqa_workloads::random::{RandomClass, RandomSchemaConfig};

/// One end-to-end uncached Decide case of a Table-1 suite: the full
/// `decide_monotone_answerability` pipeline (classification, simplification,
/// AMonDet axiomatisation, chase, containment) on a generated schema.
#[derive(Debug, Clone)]
pub struct DecideCase {
    /// Suite id, matching DESIGN.md §4 (e.g. `T1-row-IDs`).
    pub suite: String,
    /// Case label (schema size).
    pub label: String,
    /// The access schema decided over.
    pub schema: Schema,
    /// The query decided.
    pub query: ConjunctiveQuery,
    /// Factory supplying fresh nulls (cloned per run).
    pub values: ValueFactory,
    /// Decision options (budget matches the suite's depth cap).
    pub options: AnswerabilityOptions,
}

/// Builds the uncached-Decide cases of the phase profile and of the root
/// kernel-mode differential: the last chain query over a generated schema
/// of each of four Table-1 suites (cyclic IDs, bounded-width IDs, FDs,
/// UIDs + FDs), three schema sizes each, with the schema seeded by its
/// size. `quick` keeps the smallest size per suite.
pub fn decide_cases(quick: bool) -> Vec<DecideCase> {
    let suites: &[(&str, RandomClass, usize, &[usize])] = &[
        (
            "T1-row-IDs",
            RandomClass::Ids { width: 2 },
            26,
            &[8, 10, 12],
        ),
        (
            "T1-row-BWIDs",
            RandomClass::Ids { width: 1 },
            44,
            &[14, 18, 22],
        ),
        ("T1-row-FDs", RandomClass::Fds, 48, &[10, 14, 18]),
        ("T1-row-UIDFD", RandomClass::UidsAndFds, 30, &[10, 12, 14]),
    ];
    let mut cases = Vec::new();
    for &(suite, class, max_depth, sizes) in suites {
        let sizes: &[usize] = if quick { &sizes[..1] } else { sizes };
        for &relations in sizes {
            let config = RandomSchemaConfig {
                relations,
                dependencies: 2 * relations,
                class,
                result_bound: 100,
                ..Default::default()
            };
            let workload = config.generate(relations as u64);
            let query = workload
                .queries
                .last()
                .expect("generator emits queries")
                .clone();
            cases.push(DecideCase {
                suite: suite.to_owned(),
                label: format!("{suite}/rel{relations}"),
                schema: workload.schema,
                query,
                values: workload.values,
                options: AnswerabilityOptions {
                    budget: Budget::generous().with_max_depth(max_depth),
                    ..Default::default()
                },
            });
        }
    }
    cases
}

// ---------------------------------------------------------------------------
// Phase-profile harness (trace_report, BENCH_profile.json, FIG-profile)
// ---------------------------------------------------------------------------

use rbqa_obs::{Trace, Tracer};

/// Runs the full decision of `case` once under an armed per-thread tracer
/// and returns the harvested trace: spans, kernel counters, and exclusive
/// per-phase timings. The tracer is uninstalled before returning, so
/// subsequent untraced measurements on the same thread pay only the
/// disabled one-branch hooks.
pub fn trace_decide_case(case: &DecideCase) -> Trace {
    rbqa_obs::install(Tracer::new());
    let mut vf = case.values.clone();
    std::hint::black_box(decide_monotone_answerability(
        &case.schema,
        &case.query,
        &mut vf,
        &case.options,
    ));
    rbqa_obs::uninstall().expect("tracer was installed")
}

/// Mean wall-clock time of one uncached, *untraced* Decide in
/// microseconds (`iters` timed runs after one warm-up).
pub fn measure_decide_untraced(case: &DecideCase, iters: usize) -> f64 {
    let run = || {
        let mut vf = case.values.clone();
        decide_monotone_answerability(&case.schema, &case.query, &mut vf, &case.options)
    };
    std::hint::black_box(run()); // warm-up
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(run());
    }
    start.elapsed().as_micros() as f64 / iters.max(1) as f64
}

/// Measures the disabled-hook cost: mean nanoseconds of one inert span
/// crossing (the thread-local load plus branch every hook performs when
/// no tracer is installed). Used by the overhead guard to *project* the
/// tracing-off tax instead of trying to measure a sub-noise-floor
/// wall-clock delta directly.
pub fn disabled_hook_cost_ns() -> f64 {
    assert!(
        !rbqa_obs::enabled(),
        "hook-cost probe must run with tracing off"
    );
    const ITERS: u64 = 1_000_000;
    let start = std::time::Instant::now();
    for _ in 0..ITERS {
        let _ = std::hint::black_box(rbqa_obs::span("overhead_probe"));
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Upper-bound estimate of the hook crossings one traced run performed:
/// every recorded (or evicted) span is one hook, plus the per-event
/// counter hooks (trigger firings) and the per-round/pass/iteration
/// flush sites. This is the number of one-branch checks the same run
/// pays when tracing is *off*.
pub fn hook_crossings(trace: &Trace) -> u64 {
    let c = &trace.counters;
    (trace.spans.len() as u64 + trace.dropped_spans)
        + c.trigger_firings
        + c.chase_rounds
        + c.fd_passes
        + c.saturation_iters
        // Flush hooks (kernel, firings, chase totals) fire a handful of
        // times per run; over-count generously.
        + 16
}

/// The Example 1.2 crawling plan over the university scenario: list the
/// directory, look each professor up by id, filter on salary, return
/// names. `adapt_report` checks that its salary crawl is this plan.
pub fn example_1_2_salary_plan(values: &mut ValueFactory) -> rbqa_access::Plan {
    use rbqa_access::{Condition, PlanBuilder, RaExpr};
    let salary = values.constant("10000");
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

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let prefix: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_workloads::random::{RandomClass, RandomSchemaConfig};
    use rbqa_workloads::scenarios;

    #[test]
    fn run_decision_produces_a_record() {
        let mut scenario = scenarios::university(Some(100));
        let query = scenario.query("Q2_directory_nonempty").unwrap().clone();
        let name = scenario.name.clone();
        let (result, record) = run_decision(
            &name,
            "Q2",
            &scenario.schema,
            &query,
            &mut scenario.values,
            &bench_options(),
            Some(true),
        );
        assert!(result.is_answerable());
        assert_eq!(record.answerable, "yes");
        assert_eq!(record.expected_answerable, Some(true));
    }

    #[test]
    fn run_workload_covers_every_query() {
        let config = RandomSchemaConfig {
            relations: 3,
            dependencies: 3,
            class: RandomClass::Ids { width: 1 },
            ..Default::default()
        };
        let mut workload = config.generate(7);
        let n_queries = workload.queries.len();
        let records = run_workload("ids-3", &mut workload);
        assert_eq!(records.len(), n_queries);
        assert!(records.iter().all(|r| !r.answerable.is_empty()));
    }

    #[test]
    fn table_rendering_contains_headers_and_rows() {
        let mut scenario = scenarios::university(None);
        let query = scenario.query("Q1_salary_names").unwrap().clone();
        let name = scenario.name.clone();
        let (_, record) = run_decision(
            &name,
            "Q1",
            &scenario.schema,
            &query,
            &mut scenario.values,
            &bench_options(),
            Some(true),
        );
        let table = render_table(&[record]);
        assert!(table.contains("workload"));
        assert!(table.contains("Q1"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn records_serialize_to_json() {
        let mut scenario = scenarios::university_fd();
        let query = scenario.query("Q3_address_of_id").unwrap().clone();
        let name = scenario.name.clone();
        let (_, record) = run_decision(
            &name,
            "Q3",
            &scenario.schema,
            &query,
            &mut scenario.values,
            &bench_options(),
            Some(true),
        );
        let json = record.to_json();
        assert!(json.contains("\"answerable\""));
        let pretty = records_to_json_pretty(&[record]);
        assert!(pretty.starts_with("[\n"));
        assert!(pretty.ends_with("\n]"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        // The writer is shared with the wire layer (promoted to rbqa-api).
        use rbqa_api::json::json_escape;
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    /// Structural JSON balance check: every `{`/`[` outside string
    /// literals closes in order (the same check the CI smoke applies to
    /// the emitted report files).
    fn json_balanced(doc: &str) -> bool {
        let mut stack = Vec::new();
        let (mut in_str, mut escaped) = (false, false);
        for c in doc.chars() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => stack.push('}'),
                '[' => stack.push(']'),
                '}' | ']' => match stack.pop() {
                    Some(open) if open == c => {}
                    _ => return false,
                },
                _ => {}
            }
        }
        stack.is_empty() && !in_str
    }

    #[test]
    fn traced_decide_yields_balanced_phase_attributed_traces() {
        let case = &decide_cases(true)[0];
        let trace = trace_decide_case(case);
        assert!(trace.balanced, "decide closed every span");
        assert!(
            trace.spans.iter().any(|s| s.name == "decide"),
            "top-level decide span recorded"
        );
        assert!(
            trace.phase_micros(rbqa_obs::Phase::Chase) > 0,
            "the ID suite spends measurable time chasing"
        );
        assert!(
            trace.counters.chase_rounds > 0,
            "chase-round counter flushed"
        );
        assert!(
            !rbqa_obs::enabled(),
            "trace_decide_case uninstalls its tracer"
        );
        // The overhead projection inputs are sane.
        assert!(hook_crossings(&trace) > 0);
        assert!(
            disabled_hook_cost_ns() < 1_000.0,
            "inert hook is nanoseconds"
        );
    }

    #[test]
    fn trace_report_chrome_trace_is_perfetto_loadable() {
        // The structural contract of the Chrome trace_event format: an
        // object with a traceEvents array of M (metadata) and X
        // (complete) events carrying ts/dur/pid/tid — what about:tracing
        // and Perfetto require to render the document at all.
        let case = &decide_cases(true)[0];
        let trace = trace_decide_case(case);
        let doc = rbqa_obs::export::chrome_trace(&[(case.label.clone(), &trace)]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"displayTimeUnit\":\"ms\""));
        assert!(doc.contains("\"ph\":\"M\""), "thread_name metadata event");
        assert!(doc.contains("\"ph\":\"X\""), "complete events");
        assert!(doc.contains("\"name\":\"decide\""));
        assert!(doc.contains("\"pid\":1"));
        assert!(json_balanced(&doc), "unbalanced chrome trace");
    }

    #[test]
    fn truncate_handles_long_and_short_strings() {
        assert_eq!(truncate("short", 10), "short");
        let long = "a".repeat(50);
        let t = truncate(&long, 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }
}
