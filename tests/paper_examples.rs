//! End-to-end integration tests for every worked example of the paper,
//! exercised through the public API of the umbrella crate: scenario →
//! answerability decision → (where applicable) plan synthesis → execution on
//! simulated services → empirical validation.

use rbqa::access::{AccessMethod, Schema, TruncatingSelection};
use rbqa::common::{Signature, ValueFactory};
use rbqa::core::{
    decide_monotone_answerability, Answerability, AnswerabilityOptions, ConstraintClass,
    SimplificationKind, Strategy,
};
use rbqa::engine::{university_instance, validate_plan, ServiceSimulator};
use rbqa::logic::constraints::ConstraintSet;
use rbqa::logic::parser::{parse_cq, parse_tgd};
use rbqa::logic::{evaluate, ConjunctiveQuery};
use rbqa::workloads::scenarios;

fn default_options() -> AnswerabilityOptions {
    AnswerabilityOptions::default()
}

#[test]
fn example_1_2_salary_query_answerable_without_bounds() {
    let mut scenario = scenarios::university(None);
    let q1 = scenario.query("Q1_salary_names").unwrap().clone();
    let result = decide_monotone_answerability(
        &scenario.schema,
        &q1,
        &mut scenario.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::Answerable);
    assert_eq!(result.strategy, Strategy::IdLinearization);
    assert_eq!(result.simplification, SimplificationKind::ExistenceCheck);
}

#[test]
fn example_1_3_salary_query_not_answerable_with_bound() {
    let mut scenario = scenarios::university(Some(100));
    let q1 = scenario.query("Q1_salary_names").unwrap().clone();
    let result = decide_monotone_answerability(
        &scenario.schema,
        &q1,
        &mut scenario.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::NotAnswerable);
    assert!(result.containment.complete);
}

#[test]
fn example_1_4_existence_check_answerable_for_any_bound() {
    for bound in [1, 5, 100, 5000] {
        let mut scenario = scenarios::university(Some(bound));
        let q2 = scenario.query("Q2_directory_nonempty").unwrap().clone();
        let result = decide_monotone_answerability(
            &scenario.schema,
            &q2,
            &mut scenario.values,
            &default_options(),
        );
        assert_eq!(
            result.answerability,
            Answerability::Answerable,
            "bound {bound}"
        );
    }
}

#[test]
fn example_1_5_fd_makes_address_lookup_answerable() {
    let mut scenario = scenarios::university_fd();
    let q3 = scenario.query("Q3_address_of_id").unwrap().clone();
    let result = decide_monotone_answerability(
        &scenario.schema,
        &q3,
        &mut scenario.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::Answerable);
    assert_eq!(result.constraint_class, ConstraintClass::FdsOnly);
    assert_eq!(result.simplification, SimplificationKind::Fd);

    let q3b = scenario.query("Q3b_phone_of_id").unwrap().clone();
    let result = decide_monotone_answerability(
        &scenario.schema,
        &q3b,
        &mut scenario.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::NotAnswerable);
}

/// The Example 6.1 family of Table 1's frontier-guarded row: relations
/// `T` and `S0, ..., S{levels-1}`, the full TGD `T(y), Si(x) -> T(x)` for
/// every level plus `T(y) -> ∃x S0(x)`, an input-free method with result
/// bound 1 on each `Si` and a Boolean method on `T`. With one level it is
/// the schema of `scenarios::tgd_example_6_1`. The query asks `∃y T(y)`.
fn example_6_1_family(levels: usize) -> (Schema, ConjunctiveQuery, ValueFactory) {
    let mut sig = Signature::new();
    let t = sig.add_relation("T", 1).unwrap();
    let s: Vec<_> = (0..levels)
        .map(|i| sig.add_relation(&format!("S{i}"), 1).unwrap())
        .collect();
    let mut values = ValueFactory::new();
    let mut parse_sig = sig.clone();
    let mut constraints = ConstraintSet::new();
    for i in 0..levels {
        let tgd = format!("T(y), S{i}(x) -> T(x)");
        constraints.push_tgd(parse_tgd(&tgd, &mut parse_sig, &mut values).unwrap());
    }
    constraints.push_tgd(parse_tgd("T(y) -> S0(x)", &mut parse_sig, &mut values).unwrap());
    let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
    for (i, &rel) in s.iter().enumerate() {
        schema
            .add_method(AccessMethod::bounded(&format!("mtS{i}"), rel, &[], 1))
            .unwrap();
    }
    schema
        .add_method(AccessMethod::unbounded("mtT", t, &[0]))
        .unwrap();
    let q = parse_cq("Q() :- T(y)", &mut parse_sig, &mut values).unwrap();
    (schema, q, values)
}

#[test]
fn example_6_1_choice_simplification_handles_tgds() {
    let mut scenario = scenarios::tgd_example_6_1();
    let q = scenario.query("Q_some_T").unwrap().clone();
    let result = decide_monotone_answerability(
        &scenario.schema,
        &q,
        &mut scenario.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::Answerable);
    assert_eq!(result.simplification, SimplificationKind::Choice);

    // T1-row-FGTGD: frontier-guarded TGDs are choice simplifiable
    // (Theorems 6.3 and 7.1), and the decision is complete at every depth
    // of the family.
    for levels in 1..=4 {
        let (schema, q, mut values) = example_6_1_family(levels);
        let result = decide_monotone_answerability(&schema, &q, &mut values, &default_options());
        assert_eq!(
            (
                result.answerability,
                result.constraint_class,
                result.simplification,
                result.containment.complete,
            ),
            (
                Answerability::Answerable,
                ConstraintClass::FrontierGuardedTgds,
                SimplificationKind::Choice,
                true,
            ),
            "{levels} levels"
        );
    }
}

#[test]
fn paper_expectations_hold_across_all_scenarios() {
    for mut scenario in scenarios::all_scenarios() {
        let queries = scenario.queries.clone();
        for (name, query, expected) in queries {
            let Some(expected) = expected else { continue };
            let result = decide_monotone_answerability(
                &scenario.schema,
                &query,
                &mut scenario.values,
                &default_options(),
            );
            let got = match result.answerability {
                Answerability::Answerable => true,
                Answerability::NotAnswerable => false,
                Answerability::Unknown => {
                    panic!("{} / {name}: decision was inconclusive", scenario.name)
                }
            };
            assert_eq!(
                got, expected,
                "{} / {name}: paper expects answerable={expected}",
                scenario.name
            );
        }
    }
}

#[test]
fn example_1_2_plan_executes_completely_on_simulated_services() {
    let mut scenario = scenarios::university(None);
    let q1 = scenario.query("Q1_salary_names").unwrap().clone();
    let options = AnswerabilityOptions {
        synthesize_plan: true,
        crawl_rounds: 2,
        ..Default::default()
    };
    let result =
        decide_monotone_answerability(&scenario.schema, &q1, &mut scenario.values, &options);
    let plan = result.plan.expect("answerable query gets a plan");

    let data = university_instance(scenario.schema.signature(), &mut scenario.values, 25, 3);
    let expected = evaluate(&q1, &data).expect("example query is safe");
    let services = ServiceSimulator::new(scenario.schema.clone(), data.clone());
    let mut selection = TruncatingSelection::new();
    let (answers, metrics) = services.run_plan(&plan, &mut selection).unwrap();
    assert_eq!(answers, expected);
    assert!(metrics.total_calls > 0);

    let report = validate_plan(&scenario.schema, &plan, &q1, &[data], 3);
    assert!(report.is_valid(), "{:?}", report.discrepancy);
}

#[test]
fn example_2_1_boolean_plan_for_q2_is_selection_independent() {
    use rbqa::access::{AdversarialSelection, PlanBuilder, RaExpr};
    let mut scenario = scenarios::university(Some(1));
    let q2 = scenario.query("Q2_directory_nonempty").unwrap().clone();
    let plan = PlanBuilder::new()
        .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
        .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
        .returns("T0");
    let data = university_instance(scenario.schema.signature(), &mut scenario.values, 15, 9);
    let report = validate_plan(&scenario.schema, &plan, &q2, std::slice::from_ref(&data), 3);
    assert!(report.is_valid(), "{:?}", report.discrepancy);

    let services = ServiceSimulator::new(scenario.schema.clone(), data);
    let mut a = TruncatingSelection::new();
    let mut b = AdversarialSelection::new();
    let (out_a, _) = services.run_plan(&plan, &mut a).unwrap();
    let (out_b, _) = services.run_plan(&plan, &mut b).unwrap();
    assert_eq!(out_a, out_b);
}

#[test]
fn bio_and_movie_scenarios_follow_expectations() {
    let mut bio = scenarios::bio_services(5000);
    let q_point = bio.query("Q_compound_name_check").unwrap().clone();
    let result =
        decide_monotone_answerability(&bio.schema, &q_point, &mut bio.values, &default_options());
    assert_eq!(result.answerability, Answerability::Answerable);

    let q_all = bio.query("Q_all_compound_names").unwrap().clone();
    let result =
        decide_monotone_answerability(&bio.schema, &q_all, &mut bio.values, &default_options());
    assert_eq!(result.answerability, Answerability::NotAnswerable);

    let mut movies = scenarios::movie_services(10_000);
    let q_any = movies.query("Q_any_movie").unwrap().clone();
    let result = decide_monotone_answerability(
        &movies.schema,
        &q_any,
        &mut movies.values,
        &default_options(),
    );
    assert_eq!(result.answerability, Answerability::Answerable);
}
