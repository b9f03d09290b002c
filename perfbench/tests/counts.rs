//! Counts the benchmark reports must repeat exactly at a fixed seed, so a
//! nondeterminism regression shows as a count change rather than as noise.
//! Each run measures a single pass over its workload's keys.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, RunConfig, Workload};

fn one_pass(workload: Workload, trace: bool) -> perfbench::Outcome {
    let outcome = run(&RunConfig {
        workload,
        seed: 7,
        seconds: 1e-6,
        trace,
    })
    .expect("the run completes");
    assert_eq!(outcome.failed, 0, "{} answered wrongly", workload.name());
    outcome
}

fn counts(workload: Workload, names: &[&str]) -> Vec<f64> {
    let outcome = one_pass(workload, true);
    names
        .iter()
        .map(|name| {
            outcome
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is not reported"))
                .1
        })
        .collect()
}

#[test]
fn exec_crawl_access_counts_repeat_exactly() {
    let names = [
        "backend_calls_per_req",
        "access.calls",
        "access.tuples_fetched",
    ];
    let first = counts(Workload::ExecCrawl, &names);
    assert!(first.iter().all(|&v| v > 0.0), "{first:?}");
    assert_eq!(first, counts(Workload::ExecCrawl, &names));
}

#[test]
fn exec_crawl_untraced_calls_match_the_ledger() {
    let untraced = one_pass(Workload::ExecCrawl, false);
    let ledgered = counts(Workload::ExecCrawl, &["backend_calls_per_req"])[0];
    assert!(
        untraced.notes[0].starts_with(&format!("backend_calls_per_req {ledgered} ")),
        "{:?} vs {ledgered}",
        untraced.notes
    );
}

#[test]
fn decide_chase_counts_repeat_exactly() {
    let names = ["chase.rounds", "chase.trigger_firings"];
    for workload in [Workload::DecideIds, Workload::DecideFds] {
        let first = counts(workload, &names);
        assert!(first.iter().all(|&v| v > 0.0), "{first:?}");
        assert_eq!(first, counts(workload, &names), "{}", workload.name());
    }
}
