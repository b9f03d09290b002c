//! FIG-backend report: per-backend plan-execution cost and row parity.
//!
//! For each backend (in-memory instance, sharded federation, simulated
//! remote) the Example 1.2 crawling plan runs over growing university
//! instances; the report asserts that every backend returns the same row
//! set (unbounded methods, so any valid selection is the full match set)
//! and prints the mean wall-clock cost per run and per access, plus the
//! accounting the backend layer now surfaces (matched vs fetched tuples,
//! truncations, simulated latency).
//!
//! Run with `cargo run --release -p rbqa-bench --bin backend_report`
//! (`--quick` shrinks sizes and iterations for CI smoke).

use std::time::Instant;

use rbqa_bench::{example_1_2_salary_plan, fig_backend_roster};
use rbqa_engine::{university_instance, ExecOptions, ServiceSimulator};
use rbqa_workloads::scenarios;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, iters): (&[usize], usize) = if quick {
        (&[20, 50], 5)
    } else {
        (&[50, 200, 800], 25)
    };

    println!("FIG-backend: plan execution cost per data-source backend\n");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "instance",
        "backend",
        "mean µs",
        "µs/access",
        "calls",
        "fetched",
        "matched",
        "latency µs",
        "parity"
    );
    println!("{}", "-".repeat(96));

    for &size in sizes {
        let mut scenario = scenarios::university(None);
        let plan = example_1_2_salary_plan(&mut scenario.values);
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, size, 5);
        let simulator = ServiceSimulator::new(scenario.schema.clone(), data);

        let run = |exec: &ExecOptions| {
            let (mut runs, _) = simulator
                .run_plans_exec_results(&[&plan], exec)
                .expect("plan executes");
            runs.remove(0).expect("plan executes")
        };
        let baseline_rows = run(&ExecOptions::default()).0;

        for (name, backend) in fig_backend_roster() {
            let exec = ExecOptions::with_backend(backend);
            // Warm-up run also provides rows + metrics for the parity and
            // accounting columns.
            let (rows, metrics) = run(&exec);
            let parity = rows == baseline_rows;
            let start = Instant::now();
            for _ in 0..iters {
                run(&exec);
            }
            let mean_us = start.elapsed().as_micros() as f64 / iters as f64;
            println!(
                "{:<10} {:<10} {:>10.1} {:>12.2} {:>8} {:>10} {:>10} {:>12} {:>8}",
                format!("univ-{size}"),
                name,
                mean_us,
                mean_us / metrics.total_calls.max(1) as f64,
                metrics.total_calls,
                metrics.tuples_fetched,
                metrics.tuples_matched,
                metrics.latency_micros,
                parity
            );
            assert!(parity, "backend `{name}` diverged from the instance rows");
        }
    }

    println!("\nper-backend row parity: ok (all backends returned identical row sets)");
}
