//! Differential property test: the semi-naive (delta-driven) chase engine
//! is equivalent to the naive engine.
//!
//! For random instances and random constraint sets (inclusion dependencies
//! in both directions — so cyclic sets occur —, functional dependencies,
//! full transitivity-style TGDs and two-atom join rules), both engines must
//!
//! * report the **same [`Completion`]** (saturation, depth capping, budget
//!   exhaustion, FD failure), and
//! * produce **homomorphically equivalent instances** whenever the chase
//!   saturates (two saturated restricted-chase results are universal model
//!   prefixes of the same theory, so each must map into the other fixing
//!   the constants).
//!
//! Besides the random inputs, both engines chase the AMonDet problems the
//! Decide pipeline runs on four Table-1 suites (cyclic IDs, bounded-width
//! IDs, FDs, UIDs + FDs). Together with the engine-parametrised unit tests
//! of `rbqa-chase` this is the evidence that the delta optimisation
//! preserves restricted-chase semantics, derivation-depth accounting and
//! budget behaviour.

use proptest::prelude::*;
use rbqa::chase::{chase, chase_naive, Budget, ChaseConfig, Completion};
use rbqa::common::{Instance, Signature, Value, ValueFactory};
use rbqa::core::{fd_simplification, AmondetProblem, AxiomStyle};
use rbqa::logic::constraints::tgd::{inclusion_dependency, TgdBuilder};
use rbqa::logic::constraints::ConstraintSet;
use rbqa::logic::homomorphism::holds;
use rbqa::logic::{CqBuilder, Fd, Term};
use rbqa::workloads::random::{RandomClass, RandomSchemaConfig};

/// A small fixed signature: R/2, S/2, T/1.
fn signature() -> (
    Signature,
    rbqa::common::RelationId,
    rbqa::common::RelationId,
    rbqa::common::RelationId,
) {
    let mut sig = Signature::new();
    let r = sig.add_relation("R", 2).unwrap();
    let s = sig.add_relation("S", 2).unwrap();
    let t = sig.add_relation("T", 1).unwrap();
    (sig, r, s, t)
}

fn build_instance(
    pairs_r: &[(u8, u8)],
    pairs_s: &[(u8, u8)],
    singles_t: &[u8],
) -> (Instance, ValueFactory) {
    let (sig, r, s, t) = signature();
    let mut vf = ValueFactory::new();
    let mut inst = Instance::new(sig);
    let val = |vf: &mut ValueFactory, x: u8| vf.constant(&format!("v{x}"));
    for (a, b) in pairs_r {
        let (a, b) = (val(&mut vf, *a), val(&mut vf, *b));
        inst.insert(r, vec![a, b]).unwrap();
    }
    for (a, b) in pairs_s {
        let (a, b) = (val(&mut vf, *a), val(&mut vf, *b));
        inst.insert(s, vec![a, b]).unwrap();
    }
    for a in singles_t {
        let a = val(&mut vf, *a);
        inst.insert(t, vec![a]).unwrap();
    }
    (inst, vf)
}

/// Interprets generated triples as a constraint set over {R, S, T}. The
/// eight shapes cover acyclic and cyclic IDs, FDs on both binary relations,
/// full (null-free) transitivity rules and a two-atom join rule — jointly
/// exercising delta restriction, the dependency map, FD rewriting of the
/// delta and the pending-trigger bookkeeping of the semi-naive engine.
fn build_constraints(sig: &Signature, specs: &[(u8, u8, u8)]) -> ConstraintSet {
    let (_, r, s, t) = signature();
    let mut constraints = ConstraintSet::new();
    for (kind, a, b) in specs {
        let (pa, pb) = ((*a % 2) as usize, (*b % 2) as usize);
        match kind % 8 {
            0 => constraints.push_tgd(inclusion_dependency(sig, r, &[pa], s, &[pb])),
            1 => constraints.push_tgd(inclusion_dependency(sig, s, &[pa], r, &[pb])),
            2 => constraints.push_tgd(inclusion_dependency(sig, r, &[pa], t, &[0])),
            3 => constraints.push_tgd(inclusion_dependency(sig, t, &[0], r, &[pb])),
            4 => constraints.push_fd(Fd::new(r, vec![pa], 1 - pa)),
            5 => constraints.push_fd(Fd::new(s, vec![pb], 1 - pb)),
            6 => {
                // Full transitivity on R or S: X(x, y), X(y, z) -> X(x, z).
                let rel = if pa == 0 { r } else { s };
                let mut bld = TgdBuilder::new();
                let (x, y, z) = (bld.var("x"), bld.var("y"), bld.var("z"));
                bld.body_atom(rel, vec![Term::Var(x), Term::Var(y)]);
                bld.body_atom(rel, vec![Term::Var(y), Term::Var(z)]);
                bld.head_atom(rel, vec![Term::Var(x), Term::Var(z)]);
                constraints.push_tgd(bld.build());
            }
            _ => {
                // Join rule R(x, y), S(y, z) -> T(y) or -> ∃w R(x, w).
                let mut bld = TgdBuilder::new();
                let (x, y, z) = (bld.var("x"), bld.var("y"), bld.var("z"));
                bld.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
                bld.body_atom(s, vec![Term::Var(y), Term::Var(z)]);
                if pb == 0 {
                    bld.head_atom(t, vec![Term::Var(y)]);
                } else {
                    let w = bld.var("w");
                    bld.head_atom(r, vec![Term::Var(x), Term::Var(w)]);
                }
                constraints.push_tgd(bld.build());
            }
        }
    }
    constraints
}

/// Views `instance` as a Boolean conjunctive query: nulls become variables,
/// constants stay constants. A homomorphism of that query into `other` is
/// exactly a constant-fixing homomorphism `instance → other`.
fn maps_into(instance: &Instance, other: &Instance) -> bool {
    let mut builder = CqBuilder::new();
    let mut null_vars: rustc_hash::FxHashMap<Value, Term> = rustc_hash::FxHashMap::default();
    let mut next = 0usize;
    let mut atoms: Vec<(rbqa::common::RelationId, Vec<Term>)> = Vec::new();
    for fact in instance.iter_facts() {
        let terms: Vec<Term> = fact
            .args()
            .iter()
            .map(|&v| {
                if v.is_null() {
                    *null_vars.entry(v).or_insert_with(|| {
                        let var = builder.var(&format!("n{next}"));
                        next += 1;
                        Term::Var(var)
                    })
                } else {
                    Term::Const(v)
                }
            })
            .collect();
        atoms.push((fact.relation(), terms));
    }
    for (rel, terms) in atoms {
        builder.atom(rel, terms);
    }
    holds(&builder.build(), other)
}

/// Chases with both engines, applies the differential assertions and
/// returns the agreed completion. Saturated results are checked for
/// homomorphic equivalence when they hold at most `max_equivalence_facts`
/// facts: the check compiles one result as a query, which takes time cubic
/// in its fact count (seconds in release for a thousand facts).
fn assert_engines_agree(
    inst: &Instance,
    constraints: &ConstraintSet,
    vf: &ValueFactory,
    budget: Budget,
    max_equivalence_facts: usize,
) -> Completion {
    let mut vf_naive = vf.clone();
    let mut vf_semi = vf.clone();
    let config = ChaseConfig::with_budget(budget);
    let naive = chase_naive(inst, constraints, &mut vf_naive, config);
    let semi = chase(inst, constraints, &mut vf_semi, config);

    prop_assert_eq!(
        naive.completion,
        semi.completion,
        "engines disagree on completion: naive={:?} semi={:?} on\n{}",
        naive.completion,
        semi.completion,
        inst.dump()
    );
    let small = naive.instance.len().max(semi.instance.len()) <= max_equivalence_facts;
    if naive.completion == Completion::Saturated && small {
        prop_assert!(
            maps_into(&naive.instance, &semi.instance),
            "no homomorphism naive -> semi-naive:\n{}\n--- vs ---\n{}",
            naive.instance.dump(),
            semi.instance.dump()
        );
        prop_assert!(
            maps_into(&semi.instance, &naive.instance),
            "no homomorphism semi-naive -> naive:\n{}\n--- vs ---\n{}",
            semi.instance.dump(),
            naive.instance.dump()
        );
    }
    if naive.completion != Completion::FdFailure && constraints.fds().is_empty() {
        // Without FD rewriting the chase only extends the input.
        prop_assert!(inst.is_subinstance_of(&naive.instance));
        prop_assert!(inst.is_subinstance_of(&semi.instance));
    }
    naive.completion
}

/// The Table-1 AMonDet chases: (suite class, axiom style, relations, depth
/// cap). Each schema is generated with `dependencies = 2 * relations`,
/// result bound 100 and seed `relations`; the chase is the one the Decide
/// pipeline runs for the schema's last chain query after the class
/// simplification.
const TABLE1_CHASES: [(RandomClass, AxiomStyle, usize, usize); 4] = [
    (RandomClass::Ids { width: 2 }, AxiomStyle::Simplified, 8, 26),
    (
        RandomClass::Ids { width: 1 },
        AxiomStyle::Simplified,
        14,
        44,
    ),
    (RandomClass::Fds, AxiomStyle::Simplified, 10, 48),
    (
        RandomClass::UidsAndFds,
        AxiomStyle::SeparabilityRewriting,
        10,
        30,
    ),
];

#[test]
fn engines_agree_on_table1_amondet_chases() {
    for (class, style, relations, max_depth) in TABLE1_CHASES {
        let config = RandomSchemaConfig {
            relations,
            dependencies: 2 * relations,
            class,
            result_bound: 100,
            ..Default::default()
        };
        let mut workload = config.generate(relations as u64);
        let query = workload
            .queries
            .last()
            .expect("generator emits queries")
            .clone();
        let prepared = match class {
            RandomClass::Fds => fd_simplification(&workload.schema),
            _ => workload.schema.choice_simplification(),
        };
        let problem = AmondetProblem::build(&prepared, &query, &mut workload.values, style);
        let budget = Budget::generous().with_max_depth(max_depth);
        // The FD and UID + FD chases end with 34 and 47 facts and get the
        // equivalence check; the ID chases end with about 1,100 each and
        // are compared by completion.
        let completion = assert_engines_agree(
            &problem.start,
            &problem.constraints,
            &workload.values,
            budget,
            100,
        );
        assert_eq!(
            completion,
            Completion::Saturated,
            "{class:?} rel{relations}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Generous budget, random constraint mixes: most runs saturate or end
    /// in an FD failure; cyclic ID sets are stopped by the depth cap.
    #[test]
    fn engines_agree_on_random_schemas(
        pairs_r in prop::collection::vec((0u8..6, 0u8..6), 0..10),
        pairs_s in prop::collection::vec((0u8..6, 0u8..6), 0..10),
        singles_t in prop::collection::vec(0u8..6, 0..5),
        specs in prop::collection::vec((0u8..8, 0u8..2, 0u8..2), 0..5),
        depth in 3usize..9,
    ) {
        let (inst, vf) = build_instance(&pairs_r, &pairs_s, &singles_t);
        let constraints = build_constraints(inst.signature(), &specs);
        let budget = Budget::generous().with_max_depth(depth);
        assert_engines_agree(&inst, &constraints, &vf, budget, usize::MAX);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Deliberately cyclic ID sets with low depth caps: every run exercises
    /// the semi-naive engine's pending-trigger bookkeeping (DepthCapped must
    /// be distinguished from Saturated exactly as the naive engine does).
    #[test]
    fn engines_agree_on_cyclic_ids(
        pairs_r in prop::collection::vec((0u8..4, 0u8..4), 1..6),
        positions in (0u8..2, 0u8..2, 0u8..2, 0u8..2),
        depth in 2usize..7,
        with_fd in any::<bool>(),
    ) {
        let (inst, vf) = build_instance(&pairs_r, &[], &[]);
        let (_, r, s, _t) = signature();
        let (p0, p1, p2, p3) = positions;
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(
            inst.signature(), r, &[(p0 % 2) as usize], s, &[(p1 % 2) as usize],
        ));
        constraints.push_tgd(inclusion_dependency(
            inst.signature(), s, &[(p2 % 2) as usize], r, &[(p3 % 2) as usize],
        ));
        if with_fd {
            constraints.push_fd(Fd::new(s, vec![0], 1));
        }
        let budget = Budget::generous().with_max_depth(depth);
        assert_engines_agree(&inst, &constraints, &vf, budget, usize::MAX);
    }
}
