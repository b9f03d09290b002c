//! Cross-crate integration tests for the schema-simplification theorems:
//! decisions must be invariant under `ElimUB` (Proposition 3.3), invariant
//! under the *value* of result bounds for the classes covered by Sections 4
//! and 6 (down to the chase's round and fact counts), and consistent
//! between a schema and its simplification; the naive cardinality axioms
//! of Example 3.5 only add search work.

use rbqa::access::{AccessMethod, Schema};
use rbqa::chase::Budget;
use rbqa::common::{Signature, ValueFactory};
use rbqa::core::{
    choice_simplification, decide_monotone_answerability, existence_check_simplification,
    fd_simplification, Answerability, AnswerabilityOptions, AxiomStyle,
};
use rbqa::logic::parser::parse_cq;
use rbqa::workloads::random::{RandomClass, RandomSchemaConfig};
use rbqa::workloads::scenarios;

fn decide(
    schema: &Schema,
    query: &rbqa::logic::ConjunctiveQuery,
    values: &mut ValueFactory,
) -> Answerability {
    decide_monotone_answerability(schema, query, values, &AnswerabilityOptions::default())
        .answerability
}

#[test]
fn elim_ub_does_not_change_decisions() {
    for bound in [1, 10, 100] {
        let mut scenario = scenarios::university(Some(bound));
        let relaxed = scenario.schema.eliminate_upper_bounds();
        for name in ["Q1_salary_names", "Q2_directory_nonempty"] {
            let query = scenario.query(name).unwrap().clone();
            let original = decide(&scenario.schema, &query, &mut scenario.values);
            let after = decide(&relaxed, &query, &mut scenario.values);
            assert_eq!(original, after, "ElimUB changed the verdict of {name}");
        }
    }
}

#[test]
fn result_bound_value_is_irrelevant_for_id_schemas() {
    // Theorem 4.2 / choice simplifiability (FIG-bound-sweep): only the
    // existence of a bound matters, never its value. The simplified
    // schema does not mention the value, so the decision does not just
    // reach the same verdict; it runs the very same chase, round for
    // round and fact for fact.
    let outcome = |bound: usize, name: &str| {
        let mut scenario = scenarios::university(Some(bound));
        let query = scenario.query(name).unwrap().clone();
        let result = decide_monotone_answerability(
            &scenario.schema,
            &query,
            &mut scenario.values,
            &AnswerabilityOptions::default(),
        );
        (
            result.answerability,
            result.containment.chase_stats.rounds,
            result.containment.chased_facts,
        )
    };
    for (name, verdict) in [
        ("Q1_salary_names", Answerability::NotAnswerable),
        ("Q2_directory_nonempty", Answerability::Answerable),
    ] {
        let first = outcome(1, name);
        assert_eq!(first.0, verdict, "{name}");
        for bound in [2, 5, 7, 10, 100, 1000, 5000] {
            assert_eq!(outcome(bound, name), first, "{name}, bound {bound}");
        }
    }
}

#[test]
fn naive_cardinality_axioms_only_add_matching_work() {
    // FIG-ablation-naive (Example 3.5 vs Section 4): the naive
    // axiomatisation expands a result bound `k` into counting axioms for
    // every `j <= k`, each with `j` body copies of the relation. Without
    // inequalities those axioms derive nothing the `j = 1` axiom does not,
    // so the chase stays the same size while the homomorphism search for
    // their triggers grows with `k`. The simplified pipeline never sees
    // `k`, so its search work is flat.
    let run = |bound: usize, options: &AnswerabilityOptions| {
        let mut scenario = scenarios::university(Some(bound));
        let q2 = scenario.query("Q2_directory_nonempty").unwrap().clone();
        rbqa::obs::install(rbqa::obs::Tracer::new());
        let result =
            decide_monotone_answerability(&scenario.schema, &q2, &mut scenario.values, options);
        let trace = rbqa::obs::uninstall().expect("the tracer was installed");
        assert_eq!(
            result.answerability,
            Answerability::Answerable,
            "bound {bound}"
        );
        (
            trace.counters.posting_probes,
            result.containment.chased_facts,
        )
    };
    let caps = [1, 2, 4, 8, 12];
    let naive: Vec<(u64, usize)> = caps
        .iter()
        .map(|&cap| {
            let options = AnswerabilityOptions {
                axiom_style_override: Some(AxiomStyle::NaiveCardinality { cap }),
                budget: Budget::small(),
                ..AnswerabilityOptions::default()
            };
            run(cap, &options)
        })
        .collect();
    assert!(
        naive.windows(2).all(|w| w[0].0 < w[1].0),
        "naive posting probes must grow with the cap: {naive:?}"
    );
    assert!(
        naive.iter().all(|&(_, facts)| facts == naive[0].1),
        "naive chased facts must not depend on the cap: {naive:?}"
    );
    let simplified: Vec<(u64, usize)> = caps
        .iter()
        .map(|&bound| run(bound, &AnswerabilityOptions::default()))
        .collect();
    assert!(
        simplified.iter().all(|&run| run == simplified[0]),
        "simplified pipeline's work must not depend on the bound: {simplified:?}"
    );
}

#[test]
fn result_bound_value_is_irrelevant_for_fd_schemas() {
    for bound in [1, 3, 50, 1000] {
        let mut sig = Signature::new();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = rbqa::logic::constraints::ConstraintSet::new();
        constraints.push_fd(rbqa::logic::Fd::new(udir, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], bound))
            .unwrap();
        let mut values = ValueFactory::new();
        let mut parse_sig = schema.signature().clone();
        let q = parse_cq(
            "Q() :- Udirectory('12345', 'mainst', p)",
            &mut parse_sig,
            &mut values,
        )
        .unwrap();
        assert_eq!(
            decide(&schema, &q, &mut values),
            Answerability::Answerable,
            "bound {bound}"
        );
    }
}

#[test]
fn existence_check_simplification_preserves_decisions_on_id_schemas() {
    // Theorem 4.2 both ways: a query is answerable over an ID schema iff it
    // is answerable over its existence-check simplification (the
    // simplification has no result bounds at all).
    for bound in [1, 100] {
        let mut scenario = scenarios::university(Some(bound));
        let simplified = existence_check_simplification(&scenario.schema);
        assert!(!simplified.has_result_bounds());
        for name in ["Q1_salary_names", "Q2_directory_nonempty"] {
            let query = scenario.query(name).unwrap().clone();
            let original = decide(&scenario.schema, &query, &mut scenario.values);
            let over_simplified = decide(&simplified, &query, &mut scenario.values);
            assert_eq!(
                original, over_simplified,
                "existence-check simplification changed the verdict of {name} (bound {bound})"
            );
        }
    }
}

#[test]
fn fd_simplification_preserves_decisions_on_fd_schemas() {
    let mut scenario = scenarios::university_fd();
    let simplified = fd_simplification(&scenario.schema);
    assert!(!simplified.has_result_bounds());
    for name in ["Q3_address_of_id", "Q3b_phone_of_id"] {
        let query = scenario.query(name).unwrap().clone();
        let original = decide(&scenario.schema, &query, &mut scenario.values);
        let over_simplified = decide(&simplified, &query, &mut scenario.values);
        assert_eq!(
            original, over_simplified,
            "FD simplification changed the verdict of {name}"
        );
    }
}

#[test]
fn choice_simplification_preserves_decisions_on_tgd_schema() {
    let mut scenario = scenarios::tgd_example_6_1();
    let simplified = choice_simplification(&scenario.schema);
    let query = scenario.query("Q_some_T").unwrap().clone();
    let original = decide(&scenario.schema, &query, &mut scenario.values);
    let over_simplified = decide(&simplified, &query, &mut scenario.values);
    assert_eq!(original, over_simplified);
    assert_eq!(original, Answerability::Answerable);
}

#[test]
fn decisions_on_random_id_workloads_are_bound_invariant() {
    // Sweep the bound value over the same random ID schema: every chain
    // query must keep its verdict (Theorem 4.2).
    for seed in 0..3u64 {
        let mut reference: Option<Vec<Answerability>> = None;
        for bound in [1usize, 50, 2000] {
            let config = RandomSchemaConfig {
                relations: 4,
                dependencies: 4,
                class: RandomClass::Ids { width: 1 },
                result_bound: bound,
                bounded_percent: 100,
                ..Default::default()
            };
            let mut workload = config.generate(seed);
            let verdicts: Vec<Answerability> = workload
                .queries
                .clone()
                .iter()
                .map(|q| decide(&workload.schema, q, &mut workload.values))
                .collect();
            match &reference {
                None => reference = Some(verdicts),
                Some(expected) => assert_eq!(expected, &verdicts, "seed {seed}, bound {bound}"),
            }
        }
    }
}

#[test]
fn unknown_is_never_reported_for_complete_classes_on_small_workloads() {
    // FDs and (bounded-width) IDs have complete procedures: on small random
    // workloads the pipeline must always reach a decision.
    for (seed, class) in [(1u64, RandomClass::Fds), (2, RandomClass::Ids { width: 1 })] {
        let config = RandomSchemaConfig {
            relations: 3,
            dependencies: 3,
            class,
            ..Default::default()
        };
        let mut workload = config.generate(seed);
        for q in workload.queries.clone() {
            let verdict = decide(&workload.schema, &q, &mut workload.values);
            assert_ne!(verdict, Answerability::Unknown);
        }
    }
}
