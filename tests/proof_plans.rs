//! Plans from proofs, checked differentially.
//!
//! Every answerable query's plan is read off the chase proof of its
//! AMonDet containment, or is the crawl as a counted fallback. On small
//! random schemas of every Table-1 class, and on the movie scenario, that
//! plan must return exactly the query's answers on worlds that satisfy the
//! constraints: under every access selection, sharded, and recorded then
//! replayed (`validate_plan`). The crawl's rows are compared too, as the
//! oracle the proof plans replaced. A union disjunct that is answerable
//! only through the union rescue gets its plan from the rescue's proof,
//! so Execute answers it instead of `NO_PLAN`.

use proptest::prelude::*;
use rbqa::access::{Command, Plan, Schema, TruncatingSelection};
use rbqa::api::ServiceApi;
use rbqa::common::{Instance, ValueFactory};
use rbqa::core::{
    decide_monotone_answerability, synthesize_crawling_plan, AnswerabilityOptions, PlanKind,
};
use rbqa::engine::dataset::{movie_instance, random_instance_satisfying, university_instance};
use rbqa::engine::validate_plan;
use rbqa::logic::constraints::TgdBuilder;
use rbqa::logic::parser::parse_cq;
use rbqa::logic::{evaluate, ConjunctiveQuery, Term, UnionOfConjunctiveQueries};
use rbqa::service::QueryService;
use rbqa::workloads::random::{RandomClass, RandomSchemaConfig, RandomWorkload};
use rbqa::workloads::scenarios;

/// The decision options of Synthesize and Execute.
fn plans() -> AnswerabilityOptions {
    AnswerabilityOptions {
        synthesize_plan: true,
        ..Default::default()
    }
}

/// Plan kinds and crawl disagreements seen over one class's workloads.
#[derive(Debug, Default)]
struct Tally {
    answerable: usize,
    proof: usize,
    fallback: usize,
    crawl_disagreements: usize,
}

/// A small random schema of `class` (half its methods bounded), with its
/// chain queries.
fn random_workload(class: RandomClass, seed: u64) -> RandomWorkload {
    RandomSchemaConfig {
        relations: 4,
        dependencies: 4,
        class,
        result_bound: 3,
        bounded_percent: 50,
        ..Default::default()
    }
    .generate(seed)
}

/// A random ID schema plus the frontier-guarded, unguarded TGD
/// `R0(x, ..), R1(y, ..) -> R2(x, ..)`.
fn random_fgtgd_workload(seed: u64) -> RandomWorkload {
    let mut workload = random_workload(RandomClass::Ids { width: 1 }, seed);
    let schema = &workload.schema;
    let sig = schema.signature();
    let mut b = TgdBuilder::new();
    let mut atom = |name: &str, first: &str, prefix: &str| {
        let rel = sig.require(name).unwrap();
        let args: Vec<Term> = (0..sig.arity(rel))
            .map(|p| match p {
                0 => Term::Var(b.var(first)),
                _ => Term::Var(b.var(&format!("{prefix}{p}"))),
            })
            .collect();
        (rel, args)
    };
    let (r0, body0) = atom("R0", "x", "u");
    let (r1, body1) = atom("R1", "y", "v");
    let (r2, head) = atom("R2", "x", "z");
    b.body_atom(r0, body0);
    b.body_atom(r1, body1);
    b.head_atom(r2, head);
    let mut constraints = schema.constraints().clone();
    constraints.push_tgd(b.build());
    workload.schema =
        Schema::with_parts(sig.clone(), constraints, schema.methods().to_vec()).unwrap();
    workload
}

/// The random classes, by index.
const CLASSES: [&str; 5] = ["IDs", "BWIDs", "FDs", "UIDs+FDs", "FGTGDs"];

/// The workload of class `class` (an index into [`CLASSES`]) and `seed`.
fn class_workload(class: usize, seed: u64) -> RandomWorkload {
    match class {
        0 => random_workload(RandomClass::Ids { width: 1 }, seed),
        1 => random_workload(RandomClass::Ids { width: 2 }, seed),
        2 => random_workload(RandomClass::Fds, seed),
        3 => random_workload(RandomClass::UidsAndFds, seed),
        _ => random_fgtgd_workload(seed),
    }
}

/// Up to three worlds over `schema` that satisfy its constraints.
fn worlds(schema: &Schema, values: &mut ValueFactory, seed: u64) -> Vec<Instance> {
    (0..6)
        .filter_map(|k| {
            random_instance_satisfying(
                schema.signature(),
                schema.constraints(),
                values,
                4,
                5,
                seed * 17 + k,
            )
        })
        .take(3)
        .collect()
}

/// The rows of `plan` on `world` under the truncating selection.
fn rows(plan: &Plan, schema: &Schema, world: &Instance) -> Vec<Vec<rbqa::common::Value>> {
    let mut selection = TruncatingSelection::new();
    rbqa::access::plan::execute(plan, schema, world, &mut selection)
        .expect("plans execute")
        .output
}

/// Decides `query` with plans; for an answerable one, validates its plan
/// on `worlds` and compares the crawl's rows with `evaluate`.
fn check_query(
    label: &str,
    schema: &Schema,
    query: &ConjunctiveQuery,
    values: &mut ValueFactory,
    worlds: &[Instance],
    tally: &mut Tally,
) {
    let result = decide_monotone_answerability(schema, query, values, &plans());
    if !result.is_answerable() {
        assert!(result.plan.is_none() && result.plan_kind.is_none());
        return;
    }
    tally.answerable += 1;
    match result.plan_kind {
        Some(PlanKind::Proof) => tally.proof += 1,
        Some(PlanKind::Fallback(_)) => tally.fallback += 1,
        None => panic!("{label}: an answerable query's plan is uncounted"),
    }
    let plan = result.plan.expect("every answerable query gets a plan");
    plan.validate(schema).unwrap();
    let report = validate_plan(schema, &plan, query, worlds, 2);
    assert!(
        report.is_valid(),
        "{label}: {:?} plan of {query:?} fails validation: {:?}\n{plan:#?}",
        result.plan_kind,
        report.discrepancy,
    );

    // The crawl, with the rounds the pipeline's fallback would give it.
    let rounds = (result.containment.chase_stats.max_depth_reached + 1).max(2);
    let crawl = synthesize_crawling_plan(schema, query, rounds).expect("the crawl always exists");
    for world in worlds {
        if rows(&crawl, schema, world) != evaluate(query, world).unwrap() {
            tally.crawl_disagreements += 1;
        }
    }
}

/// Runs every chain query of `class`'s workload of `seed`.
fn check_workload(label: &str, workload: RandomWorkload, seed: u64, tally: &mut Tally) {
    let RandomWorkload {
        schema,
        mut values,
        queries,
    } = workload;
    let worlds = worlds(&schema, &mut values, seed);
    if worlds.is_empty() {
        return;
    }
    for query in &queries {
        check_query(label, &schema, query, &mut values, &worlds, tally);
    }
}

#[test]
fn proof_plans_answer_random_workloads_of_every_class() {
    let mut report = Vec::new();
    for (class, label) in CLASSES.iter().enumerate() {
        let mut tally = Tally::default();
        for seed in 0..12 {
            check_workload(label, class_workload(class, seed), seed, &mut tally);
        }
        assert!(tally.answerable > 0, "{label}: no answerable query checked");
        assert_eq!(
            tally.crawl_disagreements, 0,
            "{label}: the crawl oracle disagrees"
        );
        report.push(format!(
            "{label}: {} answerable, {} proof plans, {} fallbacks",
            tally.answerable, tally.proof, tally.fallback
        ));
    }
    println!("{}", report.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same check on seeds the deterministic sweep does not reach.
    #[test]
    fn proof_plans_answer_sampled_workloads(class in 0usize..5, seed in 100u64..10_000) {
        let mut tally = Tally::default();
        check_workload(CLASSES[class], class_workload(class, seed), seed, &mut tally);
        prop_assert_eq!(tally.crawl_disagreements, 0);
    }
}

/// The number of access calls each plan makes on `world`.
fn calls(plan: &Plan, schema: &Schema, world: &Instance) -> usize {
    let mut selection = TruncatingSelection::new();
    rbqa::access::plan::execute(plan, schema, world, &mut selection)
        .expect("plans execute")
        .accesses_performed
}

#[test]
fn movie_cast_plans_make_the_proofs_accesses() {
    for bound in [10usize, 40] {
        let mut scenario = scenarios::movie_services(bound);
        let schema = scenario.schema.clone();
        let worlds: Vec<Instance> = (0..3)
            .map(|seed| movie_instance(schema.signature(), &mut scenario.values, 30, 20, seed))
            .collect();
        let cast = schema.signature().require("Cast").unwrap();
        for (a, b) in [(0, 7), (3, 29)] {
            let mut sig = schema.signature().clone();
            let disjuncts: Vec<ConjunctiveQuery> = [a, b]
                .iter()
                .map(|m| {
                    let text = format!("Q(n) :- Cast('movie{m}', c), Actor(c, n)");
                    parse_cq(&text, &mut sig, &mut scenario.values).unwrap()
                })
                .collect();
            let mut tally = Tally::default();
            for (query, movie) in disjuncts.iter().zip([a, b]) {
                check_query(
                    "movies",
                    &schema,
                    query,
                    &mut scenario.values,
                    &worlds,
                    &mut tally,
                );
                let result =
                    decide_monotone_answerability(&schema, query, &mut scenario.values, &plans());
                assert_eq!(result.plan_kind, Some(PlanKind::Proof));
                let plan = result.plan.unwrap();
                let methods: Vec<&str> = plan
                    .commands()
                    .iter()
                    .filter_map(|c| match c {
                        Command::Access { method, .. } => Some(method.as_str()),
                        Command::Middleware { .. } => None,
                    })
                    .collect();
                assert_eq!(methods, ["cast_by_movie", "actor_by_id"]);
                let id = scenario.values.constant(&format!("movie{movie}"));
                for world in &worlds {
                    let entries = world.matching_tuples(cast, &[(0, id)]).len();
                    assert!(calls(&plan, &schema, world) <= 1 + entries);
                }
            }
            assert_eq!(
                (tally.proof, tally.fallback, tally.crawl_disagreements),
                (2, 0, 0)
            );
        }
    }
}

#[test]
fn a_rescued_disjunct_executes_instead_of_no_plan() {
    // Q1 = ∃ Prof is not answerable alone over the bounded directory (pr
    // needs an id), but every professor is listed in the directory, so the
    // union is answerable: the rescue chase matches Q2' from CanonDB(Q1),
    // and its proof is the existence check `ud` that answers Q1 too.
    let scenario = scenarios::university(Some(100));
    let mut values = scenario.values.clone();
    let data = university_instance(scenario.schema.signature(), &mut values, 12, 3);
    let service = QueryService::new();
    let id = service
        .register_catalog("uni", scenario.schema.clone(), values)
        .unwrap();
    service.attach_dataset(id, data.clone()).unwrap();

    let text = "Q() :- Prof(i, n, s) || Q() :- Udirectory(i, a, p)";
    let response = service
        .request(id)
        .query_text(text)
        .execute()
        .submit()
        .expect("the rescued union executes");
    assert!(response.is_answerable());
    assert_eq!(response.plans.len(), 2, "one plan per disjunct");

    let mut vf = service.catalog_values(id).unwrap();
    let mut sig = service.catalog_signature(id).unwrap();
    let disjuncts = text
        .split("||")
        .map(|q| parse_cq(q.trim(), &mut sig, &mut vf).unwrap())
        .collect();
    let expected = UnionOfConjunctiveQueries::from_disjuncts(disjuncts)
        .evaluate(&data)
        .unwrap();
    assert_eq!(expected, vec![Vec::new()]);
    assert_eq!(response.rows.as_deref(), Some(expected.as_slice()));
}
