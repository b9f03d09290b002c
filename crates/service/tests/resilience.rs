//! Resilient execution at the service boundary: cooperative deadlines
//! (REQUEST_TIMEOUT, no cache poisoning) and degraded union Execute
//! (surviving disjuncts answer, failures are reported per-disjunct).

use std::time::Duration;

use rbqa_access::AccessMethod;
use rbqa_common::{Instance, Signature, Value, ValueFactory};
use rbqa_logic::constraints::tgd::inclusion_dependency;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::parser::parse_cq;
use rbqa_logic::UnionOfConjunctiveQueries;
use rbqa_service::{
    AnswerRequest, BackendSpec, ExecOptions, QueryService, RequestMode, ServiceError,
};

/// The university scenario with a dataset attached (mirrors the
/// `obs_concurrency` harness): `Prof` reachable through `pr` keyed by id,
/// `Udirectory` through the unbounded `ud`.
fn university_service() -> (QueryService, rbqa_service::CatalogId) {
    let mut sig = Signature::new();
    let prof = sig.add_relation("Prof", 3).unwrap();
    let udir = sig.add_relation("Udirectory", 3).unwrap();
    let mut constraints = ConstraintSet::new();
    constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
    let mut schema = rbqa_access::Schema::with_parts(sig.clone(), constraints, vec![]).unwrap();
    schema
        .add_method(AccessMethod::unbounded("pr", prof, &[0]))
        .unwrap();
    schema
        .add_method(AccessMethod::unbounded("ud", udir, &[]))
        .unwrap();
    let mut values = ValueFactory::new();
    let mut data = Instance::new(sig);
    for (i, name) in [("7", "ada"), ("8", "alan"), ("9", "grace")] {
        let row: Vec<Value> = [i, name, "10000"]
            .iter()
            .map(|s| values.constant(s))
            .collect();
        data.insert(prof, row).unwrap();
        let row: Vec<Value> = [i, "mainst", "555"]
            .iter()
            .map(|s| values.constant(s))
            .collect();
        data.insert(udir, row).unwrap();
    }
    let service = QueryService::new();
    let id = service.register_catalog("uni", schema, values).unwrap();
    service.attach_dataset(id, data).unwrap();
    (service, id)
}

fn union_execute(service: &QueryService, id: rbqa_service::CatalogId) -> AnswerRequest {
    let mut vf = service.catalog_values(id).unwrap();
    let mut sig = service.catalog_signature(id).unwrap();
    let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
    let q2 = parse_cq("Q(a) :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
    AnswerRequest {
        mode: RequestMode::Execute,
        ..AnswerRequest::decide_union(
            id,
            UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]),
            vf,
        )
    }
}

#[test]
fn expired_deadline_times_out_without_poisoning_the_cache() {
    let (service, id) = university_service();
    let request = union_execute(&service, id);

    // An already-expired deadline: the chase aborts between rounds and
    // the compute is abandoned with the stable timeout code.
    let doomed = request.clone().with_deadline(Some(Duration::ZERO));
    let err = service.submit(&doomed).unwrap_err();
    assert_eq!(err, ServiceError::DeadlineExceeded);
    assert_eq!(err.code(), "REQUEST_TIMEOUT");
    assert_eq!(
        service.cache_len(),
        0,
        "an abandoned compute must cache nothing"
    );
    assert_eq!(service.metrics().deadline_timeouts, 1);

    // The vacated in-flight slot is free: the same request without a
    // deadline recomputes from scratch and then serves hits normally.
    let fresh = service.submit(&request).unwrap();
    assert!(!fresh.cache_hit, "slot was vacated, not poisoned");
    assert!(fresh.partial.is_none());
    let again = service.submit(&request).unwrap();
    assert!(again.cache_hit);

    // A generous deadline changes nothing (and is not fingerprinted:
    // it rides the same cache entry).
    let relaxed = request.with_deadline(Some(Duration::from_secs(30)));
    let response = service.submit(&relaxed).unwrap();
    assert!(response.cache_hit);
    assert_eq!(response.fingerprint, again.fingerprint);
}

#[test]
fn degraded_union_serves_surviving_disjuncts_and_reports_the_rest() {
    let (service, id) = university_service();

    // Find a fault seed that kills some — not all — disjuncts. The remote
    // backend is deterministic per (seed, access), so the scan is exact
    // and the chosen seed replays identically forever.
    let mut partial_seed = None;
    for seed in 0..256u64 {
        let exec = ExecOptions {
            backend: BackendSpec::SimulatedRemote {
                seed,
                latency_micros: 0,
                fault_rate_pct: 30,
                transient: false,
            },
            degraded: true,
            ..ExecOptions::default()
        };
        let request = union_execute(&service, id).with_exec(exec);
        match service.submit(&request) {
            Ok(response) if response.partial.is_some() => {
                let failures = response.partial.as_ref().unwrap();
                assert_eq!(failures.len(), 1, "one of two disjuncts failed");
                assert_eq!(failures[0].code, "BACKEND_UNAVAILABLE");
                assert!(failures[0].plan_index < 2);
                let rows = response.rows.as_ref().unwrap();
                assert!(!rows.is_empty(), "the surviving disjunct's rows are served");
                partial_seed = Some(seed);
                break;
            }
            Ok(_) | Err(_) => continue,
        }
    }
    let seed = partial_seed.expect("some seed in 0..256 degrades exactly one disjunct");
    assert_eq!(service.metrics().degraded_responses, 1);

    // The same faults with degraded mode off fail the whole request:
    // partial answers are strictly opt-in.
    let strict = ExecOptions {
        backend: BackendSpec::SimulatedRemote {
            seed,
            latency_micros: 0,
            fault_rate_pct: 30,
            transient: false,
        },
        ..ExecOptions::default()
    };
    let request = union_execute(&service, id).with_exec(strict);
    assert!(matches!(
        service.submit(&request),
        Err(ServiceError::Unavailable { .. })
    ));
}

#[test]
fn exec_retry_policy_rides_out_transient_faults() {
    let (service, id) = university_service();

    // Baseline rows from the deterministic in-memory backend.
    let clean = service.submit(&union_execute(&service, id)).unwrap();
    let clean_rows = clean.rows.clone().unwrap();
    assert!(!clean_rows.is_empty());

    // A heavily faulting transient remote, ridden out by the retry
    // wrapper: same rows, no partial block, retries accounted. The
    // remote never retries on its own, so every fault reaches the
    // wrapper, and each retry is counted.
    let exec = ExecOptions {
        backend: BackendSpec::SimulatedRemote {
            seed: 0,
            latency_micros: 10,
            fault_rate_pct: 70,
            transient: true,
        },
        retry: Some(rbqa_service::RetryPolicy {
            max_attempts: 10,
            retry_budget: 500,
            ..rbqa_service::RetryPolicy::default()
        }),
        ..ExecOptions::default()
    };
    let response = service
        .submit(&union_execute(&service, id).with_exec(exec))
        .unwrap();
    assert_eq!(response.rows.as_ref().unwrap(), &clean_rows);
    assert!(response.partial.is_none());
    let metrics = response.plan_metrics.as_ref().unwrap();
    assert_eq!(
        (metrics.total_calls, metrics.retries),
        (26, 11),
        "seed 0: 26 logical calls take 11 retries"
    );
    assert_eq!(service.metrics().retries, metrics.retries);
}
