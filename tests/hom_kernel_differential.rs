//! Differential property test: the compiled homomorphism kernel (match
//! programs over dense bindings and flat posting-list storage) is
//! equivalent to the retained reference backtracking search.
//!
//! For random conjunctive queries (random atoms over R/2, S/2, T/1 mixing
//! variables, repeated variables and constants) and random instances, both
//! kernels must enumerate **identical homomorphism sets** — same
//! assignments, compared as canonicalised sorted sets — both unseeded and
//! under random partial seed assignments. Unseeded, the fixed path,
//! triangle, star and constant-join shapes are matched against every
//! random instance as well, and must give the same match counts. Together
//! with `tests/chase_differential.rs` (which runs the chase differential
//! suite on top of the same storage and kernel) this is the evidence that
//! the kernel rewrite preserves matching semantics.

use proptest::prelude::*;
use rbqa::common::{Instance, Signature, Value, ValueFactory};
use rbqa::logic::homomorphism::{self, reference, Homomorphism};
use rbqa::logic::{ConjunctiveQuery, CqBuilder, Term, VarId};

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

/// Interprets a term spec: 0..4 are variables x0..x3, 4..7 are the
/// constants v0..v2 (shared with the instance's value factory).
fn term_of(spec: u8, builder: &mut CqBuilder, vf: &mut ValueFactory) -> Term {
    match spec % 7 {
        v @ 0..=3 => builder.var(&format!("x{v}")).into(),
        c => Term::Const(vf.constant(&format!("v{}", c - 4))),
    }
}

/// Builds a random Boolean CQ from generated atom specs. Every query keeps
/// variable ids aligned with `x0..x3` so seeds can reference them.
fn build_query(specs: &[(u8, u8, u8)], vf: &mut ValueFactory) -> (ConjunctiveQuery, Vec<VarId>) {
    let (_, r, s, t) = signature();
    let mut builder = CqBuilder::new();
    // Pre-declare the variable pool so VarIds are stable across queries.
    let vars: Vec<VarId> = (0..4).map(|v| builder.var(&format!("x{v}"))).collect();
    for (kind, a, b) in specs {
        let ta = term_of(*a, &mut builder, vf);
        let tb = term_of(*b, &mut builder, vf);
        match kind % 3 {
            0 => builder.atom(r, vec![ta, tb]),
            1 => builder.atom(s, vec![ta, tb]),
            _ => builder.atom(t, vec![ta]),
        };
    }
    (builder.build(), vars)
}

/// The fixed join shapes the chase, containment and evaluation paths run:
/// a two-edge path, a triangle, a three-edge star around a shared source,
/// and a constant-filtered atom joined with an edge.
fn fixed_shapes(vf: &mut ValueFactory) -> [(&'static str, ConjunctiveQuery); 4] {
    let (_, r, s, _) = signature();
    let v0 = Term::Const(vf.constant("v0"));
    let shape = |edges: &[(&str, &str)], filter: Option<Term>| {
        let mut b = CqBuilder::new();
        if let Some(c) = filter {
            let x = b.var("x");
            b.atom(s, vec![x.into(), c]);
        }
        for (from, to) in edges {
            let (from, to) = (b.var(from), b.var(to));
            b.atom(r, vec![from.into(), to.into()]);
        }
        b.build()
    };
    [
        ("path", shape(&[("x", "y"), ("y", "z")], None)),
        (
            "triangle",
            shape(&[("x", "y"), ("y", "z"), ("z", "x")], None),
        ),
        ("star", shape(&[("x", "y"), ("x", "z"), ("x", "w")], None)),
        ("constant-join", shape(&[("x", "y")], Some(v0))),
    ]
}

/// Canonicalises a homomorphism set for comparison.
fn canonical(homs: Vec<Homomorphism>) -> Vec<Vec<(VarId, Value)>> {
    let mut keys: Vec<Vec<(VarId, Value)>> = homs
        .into_iter()
        .map(|h| {
            let mut pairs: Vec<(VarId, Value)> = h.into_iter().collect();
            pairs.sort_unstable();
            pairs
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Unseeded enumeration: identical homomorphism sets on random CQs and
    /// instances, and agreeing existence checks.
    #[test]
    fn kernels_enumerate_identical_homomorphism_sets(
        pairs_r in prop::collection::vec((0u8..5, 0u8..5), 0..10),
        pairs_s in prop::collection::vec((0u8..5, 0u8..5), 0..10),
        singles_t in prop::collection::vec(0u8..5, 0..5),
        specs in prop::collection::vec((0u8..3, 0u8..7, 0u8..7), 1..5),
    ) {
        let (inst, mut vf) = build_instance(&pairs_r, &pairs_s, &singles_t);
        let (query, _) = build_query(&specs, &mut vf);

        let compiled = canonical(homomorphism::all_homomorphisms(&query, &inst, usize::MAX));
        let baseline = canonical(reference::all_homomorphisms(&query, &inst, usize::MAX));
        prop_assert_eq!(
            &compiled,
            &baseline,
            "kernels disagree on {} over\n{}",
            query.display(inst.signature()),
            inst.dump()
        );
        prop_assert_eq!(homomorphism::holds(&query, &inst), !baseline.is_empty());
        prop_assert_eq!(
            homomorphism::find_homomorphism(&query, &inst, &Homomorphism::default()).is_some(),
            !baseline.is_empty()
        );

        for (shape, query) in fixed_shapes(&mut vf) {
            let compiled = homomorphism::all_homomorphisms(&query, &inst, usize::MAX);
            let baseline = reference::all_homomorphisms(&query, &inst, usize::MAX);
            prop_assert_eq!(
                compiled.len(),
                baseline.len(),
                "kernels disagree on the {} match count over\n{}",
                shape,
                inst.dump()
            );
            prop_assert_eq!(
                canonical(compiled),
                canonical(baseline),
                "kernels disagree on the {} matches over\n{}",
                shape,
                inst.dump()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded enumeration (the semi-naive chase's entry point): identical
    /// sets when some variables are pre-assigned — including seeds naming
    /// values absent from the instance.
    #[test]
    fn kernels_agree_under_seed_assignments(
        pairs_r in prop::collection::vec((0u8..4, 0u8..4), 0..8),
        pairs_s in prop::collection::vec((0u8..4, 0u8..4), 0..8),
        specs in prop::collection::vec((0u8..3, 0u8..7, 0u8..7), 1..4),
        seed_spec in prop::collection::vec((0u8..4, 0u8..6), 0..3),
    ) {
        let (inst, mut vf) = build_instance(&pairs_r, &pairs_s, &[]);
        let (query, vars) = build_query(&specs, &mut vf);

        // Random partial seed over x0..x3; value v5 never occurs in the
        // instance, exercising the no-match path.
        let mut seed = Homomorphism::default();
        for (var, val) in &seed_spec {
            seed.insert(vars[*var as usize % 4], vf.constant(&format!("v{val}")));
        }

        let compiled =
            canonical(homomorphism::all_homomorphisms_seeded(&query, &inst, &seed, usize::MAX));
        let baseline =
            canonical(reference::all_homomorphisms_seeded(&query, &inst, &seed, usize::MAX));
        prop_assert_eq!(
            &compiled,
            &baseline,
            "seeded kernels disagree on {} over\n{}",
            query.display(inst.signature()),
            inst.dump()
        );
        prop_assert_eq!(
            homomorphism::find_homomorphism(&query, &inst, &seed).is_some(),
            !baseline.is_empty()
        );
    }
}
