//! Compares the compiled homomorphism kernel against the retained
//! reference search and writes the machine-readable report
//! `BENCH_hom.json`.
//!
//! Two sections:
//!
//! * **kernel** — the matching microbenchmarks ([`rbqa_bench::hom_kernel_cases`]):
//!   full homomorphism enumeration on path/triangle/star/constant-join
//!   shapes over deterministic random instances, per-kernel mean times and
//!   speedups (the match counts are asserted identical — the speed numbers
//!   are only meaningful next to evidence both kernels did the same work);
//! * **decide** — end-to-end *uncached* `decide_monotone_answerability` on
//!   the four Table-1 suites ([`rbqa_bench::decide_cases`]), per-suite mean
//!   times under each kernel (the verdicts are asserted identical).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rbqa-bench --bin hom_report \
//!     [-- --quick] [--iters N] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sweep to one size per shape/suite and few
//! iterations — the CI smoke mode that keeps `BENCH_hom.json` generation
//! from rotting. The committed report is produced by the full (non-quick) run; see
//! EXPERIMENTS.md ("FIG-hom-kernel") before regenerating it.

use rbqa_bench::{
    decide_cases, hom_kernel_cases, measure_decide_case, measure_hom_case, DecideMeasurement,
    HomMeasurement,
};
use rbqa_logic::KernelMode;
use std::collections::BTreeMap;

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
        .unwrap_or_else(|| "BENCH_hom.json".to_owned());

    // --- Section 1: kernel microbenchmarks -------------------------------
    let cases = hom_kernel_cases(quick);
    println!(
        "homomorphism kernel — compiled vs reference ({} cases, {} iters each)\n",
        cases.len(),
        iters
    );
    println!(
        "{:<18} {:>9} {:>15} {:>15} {:>9}",
        "case", "matches", "reference(us)", "compiled(us)", "speedup"
    );
    println!("{}", "-".repeat(70));

    struct KernelRow {
        label: String,
        reference: HomMeasurement,
        compiled: HomMeasurement,
    }
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    for case in &cases {
        let reference = measure_hom_case(case, KernelMode::Reference, iters);
        let compiled = measure_hom_case(case, KernelMode::Compiled, iters);
        assert_eq!(
            reference.matches, compiled.matches,
            "kernels disagree on match count for {}",
            case.label
        );
        println!(
            "{:<18} {:>9} {:>15.1} {:>15.1} {:>8.1}x",
            case.label,
            compiled.matches,
            reference.mean_micros,
            compiled.mean_micros,
            reference.mean_micros / compiled.mean_micros.max(f64::MIN_POSITIVE)
        );
        kernel_rows.push(KernelRow {
            label: case.label.clone(),
            reference,
            compiled,
        });
    }
    let kernel_mean_speedup = kernel_rows
        .iter()
        .map(|r| r.reference.mean_micros / r.compiled.mean_micros.max(f64::MIN_POSITIVE))
        .sum::<f64>()
        / kernel_rows.len().max(1) as f64;
    println!("\nkernel microbench mean speedup: {kernel_mean_speedup:.1}x");

    // --- Section 2: end-to-end uncached Decide ---------------------------
    let decide = decide_cases(quick);
    println!(
        "\nuncached Decide — compiled vs reference kernel ({} cases, {} iters each)\n",
        decide.len(),
        iters
    );
    println!(
        "{:<22} {:>10} {:>15} {:>15} {:>9}",
        "case", "answerable", "reference(us)", "compiled(us)", "speedup"
    );
    println!("{}", "-".repeat(76));

    struct DecideRow {
        suite: String,
        label: String,
        reference: DecideMeasurement,
        compiled: DecideMeasurement,
    }
    let mut decide_rows: Vec<DecideRow> = Vec::new();
    for case in &decide {
        let reference = measure_decide_case(case, KernelMode::Reference, iters);
        let compiled = measure_decide_case(case, KernelMode::Compiled, iters);
        assert_eq!(
            reference.answerable, compiled.answerable,
            "kernels disagree on the verdict for {}",
            case.label
        );
        println!(
            "{:<22} {:>10} {:>15.1} {:>15.1} {:>8.1}x",
            case.label,
            compiled.answerable,
            reference.mean_micros,
            compiled.mean_micros,
            reference.mean_micros / compiled.mean_micros.max(f64::MIN_POSITIVE)
        );
        decide_rows.push(DecideRow {
            suite: case.suite.clone(),
            label: case.label.clone(),
            reference,
            compiled,
        });
    }

    let mut by_suite: BTreeMap<String, Vec<&DecideRow>> = BTreeMap::new();
    for row in &decide_rows {
        by_suite.entry(row.suite.clone()).or_default().push(row);
    }
    println!("\nper-suite mean uncached-Decide speedup:");
    let mut suite_objs: Vec<String> = Vec::new();
    for (suite, rows) in &by_suite {
        let n = rows.len() as f64;
        let ref_mean = rows.iter().map(|r| r.reference.mean_micros).sum::<f64>() / n;
        let comp_mean = rows.iter().map(|r| r.compiled.mean_micros).sum::<f64>() / n;
        let speedup = rows
            .iter()
            .map(|r| r.reference.mean_micros / r.compiled.mean_micros.max(f64::MIN_POSITIVE))
            .sum::<f64>()
            / n;
        println!(
            "  {suite:<16} {speedup:>6.1}x vs reference kernel  (reference {ref_mean:.1} us -> compiled {comp_mean:.1} us)"
        );
        suite_objs.push(
            rbqa_api::json::JsonObject::new()
                .field_str("suite", suite)
                .field_raw("mean_reference_micros", &format!("{ref_mean:.2}"))
                .field_raw("mean_compiled_micros", &format!("{comp_mean:.2}"))
                .field_raw("mean_speedup_vs_reference", &format!("{speedup:.2}"))
                .finish(),
        );
    }

    let kernel_objs: Vec<String> = kernel_rows
        .iter()
        .map(|r| {
            rbqa_api::json::JsonObject::new()
                .field_str("case", &r.label)
                .field_u128("matches", r.compiled.matches as u128)
                .field_raw(
                    "reference_micros",
                    &format!("{:.2}", r.reference.mean_micros),
                )
                .field_raw("compiled_micros", &format!("{:.2}", r.compiled.mean_micros))
                .field_raw(
                    "speedup",
                    &format!(
                        "{:.2}",
                        r.reference.mean_micros / r.compiled.mean_micros.max(f64::MIN_POSITIVE)
                    ),
                )
                .finish()
        })
        .collect();
    let decide_objs: Vec<String> = decide_rows
        .iter()
        .map(|r| {
            rbqa_api::json::JsonObject::new()
                .field_str("suite", &r.suite)
                .field_str("case", &r.label)
                .field_str("answerable", &r.compiled.answerable)
                .field_raw(
                    "reference_micros",
                    &format!("{:.2}", r.reference.mean_micros),
                )
                .field_raw("compiled_micros", &format!("{:.2}", r.compiled.mean_micros))
                .field_raw(
                    "speedup_vs_reference",
                    &format!(
                        "{:.2}",
                        r.reference.mean_micros / r.compiled.mean_micros.max(f64::MIN_POSITIVE)
                    ),
                )
                .finish()
        })
        .collect();

    let report = rbqa_api::json::JsonObject::new()
        .field_str(
            "generated_by",
            "cargo run --release -p rbqa-bench --bin hom_report",
        )
        .field_bool("quick", quick)
        .field_u128("iters", iters as u128)
        .field_raw("kernel_mean_speedup", &format!("{kernel_mean_speedup:.2}"))
        .field_raw("kernel_cases", &rbqa_api::json::json_array(kernel_objs))
        .field_raw("decide_suites", &rbqa_api::json::json_array(suite_objs))
        .field_raw("decide_cases", &rbqa_api::json::json_array(decide_objs))
        .finish();
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("\nwrote {out_path}");
}
