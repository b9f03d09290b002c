//! Differential property test: adaptive execution (`exec.adaptive on`)
//! is row-equivalent to naive execution.
//!
//! For random university instances, random union shapes (one to three
//! salary-crawl disjuncts, duplicates included so the identical-disjunct
//! short-circuit fires) and every backend family — in-memory instance,
//! sharded federations of 1..=4 shards, the fault-injecting simulated
//! remote (with retries), and a recorded-trace replay — the adaptive
//! executor must return exactly the naive row set for every disjunct
//! where both succeed, and account for exactly the naive calls: each one
//! either performed or skipped. Failures may only ever tilt in adaptive's
//! favour: the window memo lets adaptive fit inside a call budget the
//! naive run exhausts (that asymmetry is the feature), while the reverse
//! direction — adaptive failing where naive succeeded, or any row
//! divergence — is a bug. This test, not a production mode, is where the
//! two executors are compared. A final case drives a deadline abort: an
//! expired deadline must surface as `DeadlineExceeded` under both
//! executors, never as a partial row set.

use std::time::Duration;

use proptest::prelude::*;
use rbqa::access::plan::{execute_plan_adaptive, execute_with_backend, AdaptiveWindow, PlanError};
use rbqa::access::{
    Condition, InstanceBackend, Plan, PlanBuilder, RaExpr, RecordingBackend, RetryPolicy,
};
use rbqa::common::ValueFactory;
use rbqa::engine::{university_instance, AdaptiveMode, BackendSpec, ExecOptions, ServiceSimulator};
use rbqa::workloads::scenarios;

const SALARIES: [&str; 3] = ["10000", "20000", "30000"];

/// The Example 1.2 crawl parameterised by salary: list the directory,
/// look every professor up by id, filter, return names. `"30000"` never
/// occurs in the generated data, so that pick yields an empty disjunct.
fn salary_crawl(values: &mut ValueFactory, salary: &str) -> Plan {
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

fn backend_for(pick: usize) -> BackendSpec {
    match pick {
        0 => BackendSpec::Instance,
        1..=4 => BackendSpec::Sharded { shards: pick },
        _ => BackendSpec::SimulatedRemote {
            seed: 23,
            latency_micros: 40,
            fault_rate_pct: 15,
            transient: true,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Naive/adaptive parity over every simulator backend, including
    /// degraded unions where individual disjuncts fail (injected faults,
    /// exhausted budgets) while the rest keep their rows.
    #[test]
    fn adaptive_matches_naive_across_backends_and_unions(
        n in 5usize..40,
        data_seed in 0u64..200,
        backend_pick in 0usize..6,
        budget_pick in 0usize..3,
        salary_picks in proptest::collection::vec(0usize..3, 1..4),
    ) {
        let mut scenario = scenarios::university(None);
        let plans: Vec<Plan> = salary_picks
            .iter()
            .map(|&pick| salary_crawl(&mut scenario.values, SALARIES[pick]))
            .collect();
        let plan_refs: Vec<&Plan> = plans.iter().collect();
        let data = university_instance(
            scenario.schema.signature(),
            &mut scenario.values,
            n,
            data_seed,
        );
        let simulator = ServiceSimulator::new(scenario.schema.clone(), data);

        let mut exec = ExecOptions::with_backend(backend_for(backend_pick));
        exec.call_budget = [None, Some(10), Some(60)][budget_pick];
        if backend_pick == 5 {
            exec.retry = Some(RetryPolicy::with_retries(2));
        }

        let (naive, _) = simulator.run_plans_exec_results(&plan_refs, &exec).unwrap();
        exec.adaptive = AdaptiveMode::On;
        let (adaptive, _) = simulator.run_plans_exec_results(&plan_refs, &exec).unwrap();
        for (index, (n_res, a_res)) in naive.iter().zip(&adaptive).enumerate() {
            match (n_res, a_res) {
                (Ok((n_rows, n_metrics)), Ok((a_rows, a_metrics))) => {
                    prop_assert_eq!(n_rows, a_rows, "disjunct {} rows diverged", index);
                    // The fresh-calls-only accounting contract: every
                    // naive call is either performed or skipped.
                    prop_assert_eq!(
                        n_metrics.total_calls,
                        a_metrics.total_calls + a_metrics.accesses_skipped,
                        "disjunct {} call accounting diverged", index
                    );
                }
                (Ok(_), Err(e)) => prop_assert!(
                    false,
                    "disjunct {} failed only under adaptive execution: {}", index, e
                ),
                // Naive-only failure (a budget the cache dodged) and
                // shared failure (same deterministic fault coin) are both
                // legitimate.
                (Err(_), _) => {}
            }
        }
    }

    /// Replay parity: a trace recorded from a naive run replays through
    /// the adaptive executor with identical rows. The replay backend is
    /// keyed by (method, binding), so adaptive's skipping must stay
    /// within the recorded access set — a miss on an unrecorded access
    /// would fail the replay outright.
    #[test]
    fn adaptive_replays_recorded_traces_with_identical_rows(
        n in 5usize..30,
        data_seed in 0u64..200,
        salary_pick in 0usize..3,
    ) {
        let mut scenario = scenarios::university(None);
        let plan = salary_crawl(&mut scenario.values, SALARIES[salary_pick]);
        let data = university_instance(
            scenario.schema.signature(),
            &mut scenario.values,
            n,
            data_seed,
        );

        let mut recorder = RecordingBackend::new(InstanceBackend::truncating(&data));
        let recorded = execute_with_backend(&plan, &scenario.schema, &mut recorder).unwrap();
        let trace = recorder.into_trace();

        let mut naive_replay = trace.replayer();
        let naive = execute_with_backend(&plan, &scenario.schema, &mut naive_replay).unwrap();
        let mut adaptive_replay = trace.replayer();
        let mut window = AdaptiveWindow::new();
        let adaptive =
            execute_plan_adaptive(&plan, &scenario.schema, &mut adaptive_replay, &mut window)
                .unwrap();

        prop_assert_eq!(&naive.output, &recorded.output);
        prop_assert_eq!(&adaptive.output, &naive.output);
    }
}

/// An expired deadline aborts every disjunct of a union and surfaces as
/// `DeadlineExceeded` in naive and adaptive execution alike, never as a
/// partial row set.
#[test]
fn deadline_abort_is_a_timeout_not_a_mismatch() {
    let mut scenario = scenarios::university(None);
    let plans = [
        salary_crawl(&mut scenario.values, "10000"),
        salary_crawl(&mut scenario.values, "20000"),
    ];
    let plan_refs: Vec<&Plan> = plans.iter().collect();
    let data = university_instance(scenario.schema.signature(), &mut scenario.values, 25, 7);
    let simulator = ServiceSimulator::new(scenario.schema.clone(), data);

    let _guard = rbqa::obs::arm_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    for adaptive in [AdaptiveMode::Off, AdaptiveMode::On] {
        let mut exec = ExecOptions::with_backend(BackendSpec::Sharded { shards: 3 });
        exec.adaptive = adaptive;
        let (results, _) = simulator.run_plans_exec_results(&plan_refs, &exec).unwrap();
        for result in results {
            match result {
                Err(PlanError::DeadlineExceeded) => {}
                other => panic!("{adaptive:?}: expected DeadlineExceeded, got {other:?}"),
            }
        }
    }
}
