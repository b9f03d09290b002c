//! FIG-backend: per-access overhead of the pluggable data-source backends.
//!
//! Runs the Example 1.2 crawling plan through the same
//! [`rbqa_engine::ServiceSimulator`] under each [`rbqa_engine::BackendSpec`]
//! — in-memory instance, sharded federation (2 and 4 shards), and the
//! simulated remote service — so the measured difference is purely the
//! backend indirection: partitioning fan-out + merge for sharding, the
//! deterministic latency/fault bookkeeping for the remote (latency is
//! accounted, not slept).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbqa_bench::{example_1_2_salary_plan, fig_backend_roster};
use rbqa_engine::{university_instance, ExecOptions, ServiceSimulator};
use rbqa_workloads::scenarios;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_backend");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [50usize, 200] {
        let mut scenario = scenarios::university(None);
        let plan = example_1_2_salary_plan(&mut scenario.values);
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, size, 5);
        let simulator = ServiceSimulator::new(scenario.schema.clone(), data);
        for (name, backend) in fig_backend_roster() {
            let exec = ExecOptions::with_backend(backend);
            let label = format!("{name}/{size}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &size, |b, _| {
                b.iter(|| {
                    simulator
                        .run_plans_exec_results(&[&plan], &exec)
                        .expect("backend builds")
                        .remove(0)
                        .expect("plan executes")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
