//! The one-pass semi-width decomposition against the clone-per-width
//! procedure it replaced. The reference below is that procedure verbatim:
//! per candidate width it clones the wider dependencies and rebuilds their
//! position graph with hash sets. Both must return the same greedy split
//! at every width and the same completeness depth bound on the
//! linearizations of random ID and bounded-width-ID schemas, on the chaos
//! harness's heavy chain and on random linear TGD sets, cyclic wide sets
//! among them.

use proptest::prelude::*;
use rbqa::access::{AccessMethod, Schema};
use rbqa::common::{RelationId, Signature, ValueFactory};
use rbqa::containment::bounds::{completeness_depth_for, semi_width_depth_bound};
use rbqa::containment::linearization::LinearizedSchema;
use rbqa::containment::saturation::MethodSignature;
use rbqa::containment::semi_width::{
    max_width, semi_width_decomposition, smallest_semi_width_decomposition, SemiWidthDecomposition,
};
use rbqa::logic::constraints::tgd::inclusion_dependency;
use rbqa::logic::constraints::TgdBuilder;
use rbqa::logic::{Term, Tgd};
use rbqa::workloads::random::{RandomClass, RandomSchemaConfig};
use rustc_hash::{FxHashMap, FxHashSet};

mod reference {
    use super::*;

    pub type PosNode = (RelationId, usize);

    pub fn position_graph(tgds: &[Tgd]) -> Vec<(PosNode, PosNode)> {
        let mut edges = Vec::new();
        for tgd in tgds {
            let exported: FxHashSet<_> = tgd.exported_variables().into_iter().collect();
            for body_atom in tgd.body() {
                for x in body_atom.variables() {
                    if !exported.contains(&x) {
                        continue;
                    }
                    for bpos in body_atom.positions_of(x) {
                        for head_atom in tgd.head() {
                            for hpos in head_atom.positions_of(x) {
                                edges.push((
                                    (body_atom.relation(), bpos),
                                    (head_atom.relation(), hpos),
                                ));
                            }
                        }
                    }
                }
            }
        }
        edges
    }

    pub fn position_graph_is_acyclic(tgds: &[Tgd]) -> bool {
        let edges = position_graph(tgds);
        let mut nodes: Vec<PosNode> = Vec::new();
        for (a, b) in &edges {
            nodes.push(*a);
            nodes.push(*b);
        }
        nodes.sort();
        nodes.dedup();
        let index: FxHashMap<PosNode, usize> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let n = nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (a, b) in &edges {
            adj[index[a]].push(index[b]);
            indegree[index[b]] += 1;
        }
        // Kahn's algorithm: the graph is acyclic iff all nodes can be removed.
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut removed = 0;
        while let Some(v) = queue.pop() {
            removed += 1;
            for &w in &adj[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    queue.push(w);
                }
            }
        }
        removed == n
    }

    pub fn semi_width_decomposition(tgds: &[Tgd], w: usize) -> Option<SemiWidthDecomposition> {
        let mut bounded = Vec::new();
        let mut rest = Vec::new();
        for (i, tgd) in tgds.iter().enumerate() {
            if tgd.width() <= w {
                bounded.push(i);
            } else {
                rest.push(i);
            }
        }
        let rest_tgds: Vec<Tgd> = rest.iter().map(|&i| tgds[i].clone()).collect();
        if position_graph_is_acyclic(&rest_tgds) {
            Some(SemiWidthDecomposition {
                bounded_part: bounded,
                acyclic_part: rest,
                width: w,
            })
        } else {
            None
        }
    }

    pub fn completeness_depth_for(tgds: &[Tgd], rhs_atoms: usize, max_arity: usize) -> usize {
        let width_cap = max_width(tgds);
        let mut chosen: Option<(usize, usize, usize)> = None; // (w, |Σ1|, |Σ2|)
        for w in 0..=width_cap {
            if let Some(d) = semi_width_decomposition(tgds, w) {
                chosen = Some((w, d.bounded_part.len(), d.acyclic_part.len()));
                break;
            }
        }
        let (w, n1, n2) = chosen.unwrap_or((width_cap, tgds.len(), 0));
        semi_width_depth_bound(rhs_atoms, n1, n2, max_arity, w)
    }
}

/// Asserts that the one-pass procedure agrees with the reference on
/// `tgds` at every width and on the depth bound; returns whether the greedy
/// split failed at some width.
fn assert_agrees(tgds: &[Tgd], max_arity: usize, what: &str) -> bool {
    let mut some_split_failed = false;
    for w in 0..=max_width(tgds) + 1 {
        let expected = reference::semi_width_decomposition(tgds, w);
        some_split_failed |= expected.is_none();
        assert_eq!(
            semi_width_decomposition(tgds, w),
            expected,
            "{what}: decomposition at width {w}"
        );
    }
    let smallest = smallest_semi_width_decomposition(tgds);
    assert_eq!(
        Some(&smallest),
        (0..=max_width(tgds))
            .find_map(|w| reference::semi_width_decomposition(tgds, w))
            .as_ref(),
        "{what}: smallest decomposition"
    );
    for rhs_atoms in [1, 3, 7] {
        assert_eq!(
            completeness_depth_for(tgds, rhs_atoms, max_arity),
            reference::completeness_depth_for(tgds, rhs_atoms, max_arity),
            "{what}: bound for {rhs_atoms} right-hand atoms"
        );
    }
    some_split_failed
}

/// The linearization the Table-1 pipeline builds for an ID schema.
fn linearize(schema: &Schema) -> LinearizedSchema {
    let methods: Vec<MethodSignature> = schema
        .methods()
        .iter()
        .map(|m| {
            MethodSignature::new(
                m.relation(),
                &m.input_positions_vec(),
                m.is_result_bounded(),
            )
        })
        .collect();
    LinearizedSchema::build(
        schema.signature(),
        schema.constraints().tgds(),
        &methods,
        schema.constraints().max_id_width(),
    )
}

#[test]
fn one_pass_decomposition_matches_the_reference_on_random_id_linearizations() {
    let mut some_split_failed = false;
    for (class, sizes) in [
        (RandomClass::Ids { width: 2 }, [8, 10, 12]),
        (RandomClass::Ids { width: 1 }, [14, 18, 22]),
    ] {
        for relations in sizes {
            for seed in [relations as u64, 1, 2, 3] {
                let workload = RandomSchemaConfig {
                    relations,
                    dependencies: 2 * relations,
                    class,
                    result_bound: 100,
                    ..Default::default()
                }
                .generate(seed);
                let lin = linearize(&workload.schema);
                some_split_failed |= assert_agrees(
                    lin.rules.tgds(),
                    lin.lin_signature.max_arity(),
                    &format!("{class:?}, {relations} relations, seed {seed}"),
                );
            }
        }
    }
    // The chain IDs wrap around, so the lifted rules are cyclic.
    assert!(some_split_failed, "some greedy split failed");
}

#[test]
fn one_pass_decomposition_matches_the_reference_on_the_heavy_chain() {
    // The chaos harness's heavy catalog: C0 -> C1 -> ... -> C191, each
    // `C{i}(x, y, w) -> C{i+1}(y, z, v)`, an input-free method on C0 and a
    // method taking the first position (wire `in=1`) on every other one.
    const CHAIN: usize = 192;
    let mut sig = Signature::new();
    let rels: Vec<RelationId> = (0..CHAIN)
        .map(|i| sig.add_relation(&format!("C{i}"), 3).unwrap())
        .collect();
    let mut constraints = rbqa::logic::ConstraintSet::new();
    for pair in rels.windows(2) {
        constraints.push_tgd(inclusion_dependency(&sig, pair[0], &[1], pair[1], &[0]));
    }
    let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
    schema
        .add_method(AccessMethod::unbounded("hm0", rels[0], &[]))
        .unwrap();
    for (i, &rel) in rels.iter().enumerate().skip(1) {
        schema
            .add_method(AccessMethod::unbounded(&format!("hm{i}"), rel, &[0]))
            .unwrap();
    }
    let lin = linearize(&schema);
    assert!(lin.rules.tgds().len() > 1000, "a large linearization");
    assert_agrees(lin.rules.tgds(), 3, "heavy chain");
}

const ARITIES: [usize; 4] = [2, 3, 3, 4];

/// A linear TGD over relations `R0..R3` (arities [`ARITIES`]): the body
/// atom takes variable `x(p % 3)` at position `p` (so variables repeat), or
/// the constant `c` where the pick is 5; head position `q` copies body
/// position `pick` when it exists and is otherwise existential. A second
/// head atom over the next relation copies the first one's picks.
fn linear_tgd(
    sig: &Signature,
    values: &mut ValueFactory,
    (body, head, picks, second_head): (usize, usize, Vec<usize>, bool),
) -> Tgd {
    let rel = |i: usize| sig.require(&format!("R{}", i % ARITIES.len())).unwrap();
    let mut b = TgdBuilder::new();
    let c = Term::Const(values.constant("c"));
    let body_args: Vec<Term> = (0..ARITIES[body])
        .map(|p| match picks[p] {
            5 => c,
            pick => Term::Var(b.var(&format!("x{}", pick % 3))),
        })
        .collect();
    let head_atom = |b: &mut TgdBuilder, relation: usize| {
        let args: Vec<Term> = (0..ARITIES[relation % ARITIES.len()])
            .map(|q| match body_args.get(picks[q]) {
                Some(&term) => term,
                None => Term::Var(b.var(&format!("z{q}"))),
            })
            .collect();
        b.head_atom(rel(relation), args);
    };
    head_atom(&mut b, head);
    if second_head {
        head_atom(&mut b, head + 1);
    }
    b.body_atom(rel(body), body_args.clone());
    b.build()
}

fn linear_signature() -> Signature {
    let mut sig = Signature::new();
    for (i, &arity) in ARITIES.iter().enumerate() {
        sig.add_relation(&format!("R{i}"), arity).unwrap();
    }
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random linear TGD sets; with `wide_cycle` the set also gets the
    /// width-2 IDs R1[0,1] ⊆ R2[0,1] ⊆ R1[0,1], so the greedy split fails
    /// below width 2.
    #[test]
    fn one_pass_decomposition_matches_the_reference_on_random_linear_sets(
        rules in proptest::collection::vec(
            (0usize..4, 0usize..4, proptest::collection::vec(0usize..6, 4), any::<bool>()),
            0..12,
        ),
        wide_cycle in any::<bool>(),
    ) {
        let sig = linear_signature();
        let mut values = ValueFactory::new();
        let mut tgds: Vec<Tgd> = rules
            .into_iter()
            .map(|spec| linear_tgd(&sig, &mut values, spec))
            .collect();
        if wide_cycle {
            let (r1, r2) = (sig.require("R1").unwrap(), sig.require("R2").unwrap());
            tgds.push(inclusion_dependency(&sig, r1, &[0, 1], r2, &[0, 1]));
            tgds.push(inclusion_dependency(&sig, r2, &[0, 1], r1, &[0, 1]));
        }
        prop_assert!(tgds.iter().all(|t| t.is_linear()));
        let failed = assert_agrees(&tgds, 4, &format!("{} rules", tgds.len()));
        prop_assert!(!wide_cycle || failed, "the wide cycle fails the greedy split");
    }
}
