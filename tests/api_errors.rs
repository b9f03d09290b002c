//! Integration tests for the structured error taxonomy of the v1 API:
//! every failure mode a client can trigger surfaces as an `ApiError` with
//! a stable machine-readable code — unknown catalogs, arity-mismatched
//! atoms, unbound answer variables, degenerate unions — and decision-side
//! `Unknown` verdicts (budget exhaustion) surface through the response,
//! not as errors.

use rbqa::prelude::*;

fn university(bound: Option<usize>) -> (Schema, ValueFactory) {
    let mut sig = Signature::new();
    let prof = sig.add_relation("Prof", 3).unwrap();
    let udir = sig.add_relation("Udirectory", 3).unwrap();
    let mut values = ValueFactory::new();
    let mut parse_sig = sig.clone();
    let tau = parse_tgd(
        "Prof(i, n, s) -> Udirectory(i, a, p)",
        &mut parse_sig,
        &mut values,
    )
    .unwrap();
    let mut constraints = rbqa::logic::ConstraintSet::new();
    constraints.push_tgd(tau);
    let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
    schema
        .add_method(AccessMethod::unbounded("pr", prof, &[0]))
        .unwrap();
    let ud = match bound {
        None => AccessMethod::unbounded("ud", udir, &[]),
        Some(k) => AccessMethod::bounded("ud", udir, &[], k),
    };
    schema.add_method(ud).unwrap();
    (schema, values)
}

fn service_with_catalog() -> (QueryService, CatalogId) {
    let service = QueryService::new();
    let (schema, values) = university(Some(100));
    let id = service.register_catalog("uni", schema, values).unwrap();
    (service, id)
}

#[test]
fn unknown_catalog_by_id_and_name() {
    let service = QueryService::new();
    let err = service
        .request(CatalogId::from_index(7))
        .query_text("Q() :- R(x)")
        .submit()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::UnknownCatalog);
    assert_eq!(err.code.as_str(), "UNKNOWN_CATALOG");

    let err = service
        .request_named("missing")
        .err()
        .expect("unknown name is an error");
    assert_eq!(err.code, ApiErrorCode::UnknownCatalog);
    assert!(err.detail.contains("missing"));
}

#[test]
fn arity_mismatched_atom_is_rejected_at_build_time() {
    let (service, id) = service_with_catalog();
    // Text path: Prof is declared at arity 3.
    let err = service
        .request(id)
        .query_text("Q() :- Prof(x, y)")
        .build()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::ArityMismatch);

    // Hand-built path: an atom with the wrong argument count never reaches
    // the decision pipeline.
    let mut b = CqBuilder::new();
    let x = b.var("x");
    let bad = b
        .atom(rbqa::common::RelationId::from_index(0), vec![x.into()])
        .build();
    let err = service.request(id).query(bad).submit().unwrap_err();
    assert_eq!(err.code, ApiErrorCode::ArityMismatch);
    assert!(err.detail.contains("Prof"), "{}", err.detail);
}

#[test]
fn unbound_free_variable_is_rejected() {
    let (service, id) = service_with_catalog();
    // The parser already rejects unsafe queries in text form…
    let err = service
        .request(id)
        .query_text("Q(z) :- Prof(i, n, s)")
        .build()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::ParseError);

    // …and the builder catches hand-built queries that bypass the parser.
    let mut b = CqBuilder::new();
    let x = b.var("x");
    let z = b.var("z");
    let unbound = b
        .free(z)
        .atom(
            rbqa::common::RelationId::from_index(0),
            vec![x.into(), x.into(), x.into()],
        )
        .build();
    let err = service.request(id).query(unbound).submit().unwrap_err();
    assert_eq!(err.code, ApiErrorCode::UnboundFreeVariable);
    assert!(err.detail.contains('z'), "{}", err.detail);
}

#[test]
fn degenerate_unions_are_rejected() {
    let (service, id) = service_with_catalog();
    let err = service.request(id).build().unwrap_err();
    assert_eq!(err.code, ApiErrorCode::EmptyUnion);

    let err = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, s) || Q() :- Udirectory(i, a, p)")
        .build()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::UnionArityMismatch);
}

#[test]
fn execute_without_dataset_and_without_plan_have_distinct_codes() {
    let (service, id) = service_with_catalog();
    // Not answerable → no plan set to execute.
    let err = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000')")
        .execute()
        .submit()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::NoPlan);

    // Answerable, but the catalog has no dataset attached.
    let err = service
        .request(id)
        .query_text("Q() :- Udirectory(i, a, p)")
        .execute()
        .submit()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::NoDataset);
}

#[test]
fn budget_exhausted_unknown_surfaces_through_the_response() {
    // A starved budget stops the chase before saturation; the verdict is
    // `Unknown` and is reported through the response summary (with
    // `complete == false`), not as an error — the request itself was valid.
    let (service, id) = service_with_catalog();
    let starved = Budget::small()
        .with_max_facts(2)
        .with_max_rounds(1)
        .with_max_depth(1)
        .with_max_nulls(1);
    let response = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000'), Udirectory(i, a, p)")
        .with_budget(starved)
        .decide()
        .submit()
        .expect("a starved budget is not a request error");
    assert!(response.is_unknown(), "summary: {:?}", response.summary);
    assert!(!response.summary.complete);

    // The same query under a generous budget is decided definitively —
    // and cached separately (the budget is part of the fingerprint).
    let decided = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000'), Udirectory(i, a, p)")
        .decide()
        .submit()
        .unwrap();
    assert!(!decided.cache_hit, "different options, different entry");
    assert!(!decided.is_unknown());
    assert!(decided.summary.complete);
    assert_ne!(response.fingerprint, decided.fingerprint);
}

#[test]
fn exec_backends_agree_and_budgets_fail_fast_through_the_api() {
    let service = QueryService::new();
    let (schema, mut values) = university(None);
    let sig = schema.signature().clone();
    let prof = sig.require("Prof").unwrap();
    let udir = sig.require("Udirectory").unwrap();
    let mut data = rbqa::common::Instance::new(sig);
    for i in 0..6 {
        let id = values.constant(&format!("id{i}"));
        let name = values.constant(&format!("name{i}"));
        let salary = values.constant("10000");
        let addr = values.constant(&format!("addr{i}"));
        let phone = values.constant(&format!("phone{i}"));
        data.insert(prof, vec![id, name, salary]).unwrap();
        data.insert(udir, vec![id, addr, phone]).unwrap();
    }
    let id = service.register_catalog("uni", schema, values).unwrap();
    service.attach_dataset(id, data).unwrap();

    let run = |backend: Option<BackendSpec>| {
        let mut builder = service
            .request(id)
            .query_text("Q(n) :- Prof(i, n, '10000')")
            .execute();
        if let Some(b) = backend {
            builder = builder.backend(b);
        }
        builder.submit().unwrap()
    };
    let default = run(None);
    let sharded = run(Some(BackendSpec::Sharded { shards: 3 }));
    let remote = run(Some(BackendSpec::SimulatedRemote {
        seed: 5,
        latency_micros: 120,
        fault_rate_pct: 0,
        transient: false,
    }));
    assert_eq!(default.rows, sharded.rows, "sharded rows match in-memory");
    assert_eq!(default.rows, remote.rows, "remote rows match in-memory");
    assert_ne!(
        default.fingerprint, sharded.fingerprint,
        "backend choice separates cache entries"
    );
    let metrics = remote.plan_metrics.as_ref().unwrap();
    assert!(metrics.latency_micros > 0, "remote latency is accounted");
    assert_eq!(default.plan_metrics.as_ref().unwrap().latency_micros, 0);

    // An over-quota Execute fails fast with the stable code instead of
    // returning partial rows.
    let err = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000')")
        .execute()
        .call_budget(2)
        .submit()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::BudgetExhausted);
    assert_eq!(err.code.as_str(), "BUDGET_EXHAUSTED");

    // The budget caps the whole request: a union whose first disjunct
    // alone fits exactly must still exhaust once the second disjunct's
    // plan (one `ud` listing) pushes the request past the cap.
    let single_calls = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000')")
        .execute()
        .submit()
        .unwrap()
        .plan_metrics
        .unwrap()
        .total_calls;
    let err = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000') || Q(a) :- Udirectory(i, a, p)")
        .execute()
        .call_budget(single_calls)
        .submit()
        .unwrap_err();
    assert_eq!(err.code, ApiErrorCode::BudgetExhausted);

    // Exec options leave Decide fingerprints alone: the same decide
    // request with and without a backend override is one cache entry.
    let plain = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000')")
        .submit()
        .unwrap();
    let with_backend = service
        .request(id)
        .query_text("Q(n) :- Prof(i, n, '10000')")
        .backend(BackendSpec::Sharded { shards: 2 })
        .submit()
        .unwrap();
    assert_eq!(plain.fingerprint, with_backend.fingerprint);
    assert!(with_backend.cache_hit);
}

#[test]
fn duplicate_catalog_registration_is_reported() {
    let (service, _) = service_with_catalog();
    let (schema, values) = university(Some(100));
    let err: ApiError = service
        .register_catalog("uni", schema, values)
        .unwrap_err()
        .into();
    assert_eq!(err.code, ApiErrorCode::DuplicateCatalog);
}
