//! Compares the naive and semi-naive chase engines on the Table-1 suites
//! and writes the machine-readable report `BENCH_chase.json`.
//!
//! For every suite/size the binary chases the same AMonDet problem with
//! both engines, reports mean wall-clock times, the speedup, and the
//! saturation behaviour (completion kind, rounds, firings, result size) —
//! the speed numbers are only meaningful next to evidence that both
//! engines did the same logical work.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rbqa-bench --bin chase_report [-- --quick] [--iters N] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sweep to one size per suite and few iterations —
//! the CI smoke mode that keeps `BENCH_chase.json` generation from rotting.
//! The committed report is produced by the full (non-quick) run; see
//! EXPERIMENTS.md ("Benchmark methodology") before regenerating it.

use rbqa_bench::{chase_engine_cases, measure_chase_case, ChaseMeasurement};
use rbqa_chase::{chase, chase_naive};
use std::collections::BTreeMap;

struct CaseRow {
    suite: String,
    label: String,
    naive: ChaseMeasurement,
    semi: ChaseMeasurement,
}

impl CaseRow {
    fn speedup(&self) -> f64 {
        self.naive.mean_micros / self.semi.mean_micros.max(f64::MIN_POSITIVE)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iters: usize = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 3 } else { 20 });
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_chase.json".to_owned());

    let cases = chase_engine_cases(quick);
    println!(
        "chase engine comparison — naive vs semi-naive ({} cases, {} iters each)\n",
        cases.len(),
        iters
    );
    println!(
        "{:<22} {:<12} {:>7} {:>7} {:>9} {:>14} {:>14} {:>9}",
        "case", "completion", "rounds", "facts", "firings", "naive(us)", "seminaive(us)", "speedup"
    );
    println!("{}", "-".repeat(100));

    let mut rows: Vec<CaseRow> = Vec::new();
    for case in &cases {
        let naive = measure_chase_case(case, chase_naive, iters);
        let semi = measure_chase_case(case, chase, iters);
        assert_eq!(
            naive.completion, semi.completion,
            "engines disagree on completion for {}",
            case.label
        );
        let row = CaseRow {
            suite: case.suite.clone(),
            label: case.label.clone(),
            naive,
            semi,
        };
        println!(
            "{:<22} {:<12} {:>7} {:>7} {:>9} {:>14.1} {:>14.1} {:>8.1}x",
            row.label,
            format!("{:?}", row.semi.completion),
            row.semi.rounds,
            row.semi.facts,
            row.semi.tgd_firings,
            row.naive.mean_micros,
            row.semi.mean_micros,
            row.speedup()
        );
        rows.push(row);
    }

    // Per-suite aggregation (mean of case means; the acceptance criterion
    // is the mean speedup per suite).
    let mut by_suite: BTreeMap<String, Vec<&CaseRow>> = BTreeMap::new();
    for row in &rows {
        by_suite.entry(row.suite.clone()).or_default().push(row);
    }
    println!("\nper-suite mean speedup:");
    let mut suite_objs: Vec<String> = Vec::new();
    for (suite, suite_rows) in &by_suite {
        let n = suite_rows.len() as f64;
        let naive_mean = suite_rows.iter().map(|r| r.naive.mean_micros).sum::<f64>() / n;
        let semi_mean = suite_rows.iter().map(|r| r.semi.mean_micros).sum::<f64>() / n;
        let speedup_mean = suite_rows.iter().map(|r| r.speedup()).sum::<f64>() / n;
        println!("  {suite:<16} {speedup_mean:>6.1}x  (naive {naive_mean:.1} us -> semi-naive {semi_mean:.1} us)");
        suite_objs.push(
            rbqa_api::json::JsonObject::new()
                .field_str("suite", suite)
                .field_raw("mean_naive_micros", &format!("{naive_mean:.2}"))
                .field_raw("mean_seminaive_micros", &format!("{semi_mean:.2}"))
                .field_raw("mean_speedup", &format!("{speedup_mean:.2}"))
                .finish(),
        );
    }

    let case_objs: Vec<String> = rows
        .iter()
        .map(|r| {
            rbqa_api::json::JsonObject::new()
                .field_str("suite", &r.suite)
                .field_str("case", &r.label)
                .field_str("completion", &format!("{:?}", r.semi.completion))
                .field_u128("rounds", r.semi.rounds as u128)
                .field_u128("facts", r.semi.facts as u128)
                .field_u128("tgd_firings", r.semi.tgd_firings as u128)
                .field_raw("naive_micros", &format!("{:.2}", r.naive.mean_micros))
                .field_raw("seminaive_micros", &format!("{:.2}", r.semi.mean_micros))
                .field_raw("speedup", &format!("{:.2}", r.speedup()))
                .finish()
        })
        .collect();

    let report = rbqa_api::json::JsonObject::new()
        .field_str(
            "generated_by",
            "cargo run --release -p rbqa-bench --bin chase_report",
        )
        .field_bool("quick", quick)
        .field_u128("iters", iters as u128)
        .field_raw("suites", &rbqa_api::json::json_array(suite_objs))
        .field_raw("cases", &rbqa_api::json::json_array(case_objs))
        .finish();
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("\nwrote {out_path}");
}
