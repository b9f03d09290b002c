//! Property-based tests (proptest) for the core invariants of the stack:
//! chase soundness, homomorphism/evaluation monotonicity, FD-closure
//! idempotence, finite-closure soundness, access-selection validity and
//! accessible-part monotonicity.

use proptest::prelude::*;
use rbqa::access::{
    accessible_part, AccessMethod, GreedySelection, RandomSelection, Schema, TruncatingSelection,
};
use rbqa::chase::{chase, Budget, ChaseConfig};
use rbqa::common::{Instance, RelationId, Signature, Value, ValueFactory};
use rbqa::logic::constraints::tgd::inclusion_dependency;
use rbqa::logic::constraints::ConstraintSet;
use rbqa::logic::implication::{det_by, fd_closure, finite_closure, Uid};
use rbqa::logic::{evaluate, CqBuilder, Fd};
use rustc_hash::FxHashSet;
use std::collections::BTreeSet;

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

/// Builds an instance from generated pairs: R gets the pairs, S gets the
/// reversed pairs of the second list, T gets the singletons.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A saturated chase result satisfies every TGD of the constraint set
    /// (soundness of the chase fixpoint).
    #[test]
    fn chase_result_satisfies_ids(
        pairs_r in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        pairs_s in prop::collection::vec((0u8..6, 0u8..6), 0..12),
    ) {
        let (inst, mut vf) = build_instance(&pairs_r, &pairs_s, &[]);
        let (sig, r, s, t) = signature();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, s, &[0], t, &[0]));
        let out = chase(&inst, &constraints, &mut vf, ChaseConfig::with_budget(Budget::generous()));
        prop_assert!(out.is_saturated());
        // Every R(x, y) has a witness S(y, _), every S(x, y) has T(x).
        for tuple in out.instance.tuples(r) {
            prop_assert!(!out.instance.matching_tuples(s, &[(0, tuple[1])]).is_empty());
        }
        for tuple in out.instance.tuples(s) {
            prop_assert!(out.instance.contains(t, &[tuple[0]]));
        }
        // The chase only extends the input.
        prop_assert!(inst.is_subinstance_of(&out.instance));
    }

    /// The FD chase repairs every repairable instance: the result satisfies
    /// the FDs, and original facts survive up to the applied unification.
    #[test]
    fn fd_chase_repairs_or_fails_cleanly(
        pairs_r in prop::collection::vec((0u8..4, 0u8..4), 0..10),
    ) {
        let (inst, mut vf) = build_instance(&pairs_r, &[], &[]);
        let (_sig, r, _s, _t) = signature();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(Fd::new(r, vec![0], 1));
        let out = chase(&inst, &constraints, &mut vf, ChaseConfig::with_budget(Budget::generous()));
        if out.is_saturated() {
            prop_assert!(Fd::new(r, vec![0], 1).holds_on(&out.instance));
        } else {
            // Distinct constants had to be merged: the input really violates
            // the FD on two constant tuples.
            prop_assert!(out.is_fd_failure());
            prop_assert!(!Fd::new(r, vec![0], 1).holds_on(&inst));
        }
    }

    /// CQ evaluation is monotone: answers over a subinstance are a subset of
    /// answers over the full instance.
    #[test]
    fn evaluation_is_monotone(
        pairs_r in prop::collection::vec((0u8..5, 0u8..5), 1..14),
        keep in prop::collection::vec(any::<bool>(), 14),
    ) {
        let (full, _vf) = build_instance(&pairs_r, &[], &[]);
        let (sig, r, _s, _t) = signature();
        // Build the subinstance from the kept prefix flags.
        let mut sub = Instance::new(sig);
        for (i, tuple) in full.tuples(r).enumerate() {
            if *keep.get(i).unwrap_or(&false) {
                sub.insert(r, tuple.to_vec()).unwrap();
            }
        }
        // Q(x) :- R(x, y), R(y, x)
        let mut b = CqBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        let q = b.free(x).atom(r, vec![x.into(), y.into()]).atom(r, vec![y.into(), x.into()]).build();
        let small = evaluate(&q, &sub).unwrap();
        let big = evaluate(&q, &full).unwrap();
        for answer in &small {
            prop_assert!(big.contains(answer));
        }
    }

    /// FD closure is monotone, idempotent and contains its input.
    #[test]
    fn fd_closure_properties(
        fds_raw in prop::collection::vec((0usize..3, 0usize..3), 0..6),
        start_raw in prop::collection::vec(0usize..3, 0..3),
    ) {
        let (_sig, _r, s, _t) = signature();
        // S has arity 2; map positions into range.
        let fds: Vec<Fd> = fds_raw
            .iter()
            .map(|(a, b)| Fd::new(s, vec![a % 2], b % 2))
            .collect();
        let start: BTreeSet<usize> = start_raw.iter().map(|p| p % 2).collect();
        let closure = fd_closure(&fds, s, &start);
        prop_assert!(start.is_subset(&closure));
        let twice = fd_closure(&fds, s, &closure);
        prop_assert_eq!(closure.clone(), twice);
        // DetBy of the full position set is the full position set.
        let all = det_by(&fds, s, &[0, 1]);
        prop_assert_eq!(all, BTreeSet::from([0, 1]));
    }

    /// Every access selection returns a valid output: a subset of the
    /// matching tuples, of valid size for the method's bound.
    #[test]
    fn selections_return_valid_outputs(
        pairs_r in prop::collection::vec((0u8..5, 0u8..5), 0..20),
        bound in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (inst, _vf) = build_instance(&pairs_r, &[], &[]);
        let (_sig, r, _s, _t) = signature();
        let method = AccessMethod::bounded("m", r, &[], bound);
        let matching: Vec<Vec<Value>> = inst.tuples(r).map(|t| t.to_vec()).collect();
        let mut selections: Vec<Box<dyn rbqa::access::AccessSelection>> = vec![
            Box::new(TruncatingSelection::new()),
            Box::new(GreedySelection::new()),
            Box::new(RandomSelection::new(seed)),
        ];
        for sel in selections.iter_mut() {
            let output = sel.select(&method, &[], &matching);
            prop_assert!(rbqa::access::selection::is_valid_output(&method, &matching, &output));
        }
    }

    /// Accessible parts grow with the result bound: a larger bound (with the
    /// same deterministic selection) never reveals fewer facts.
    #[test]
    fn accessible_part_grows_with_bound(
        pairs_r in prop::collection::vec((0u8..5, 0u8..5), 0..16),
        small_bound in 1usize..4,
    ) {
        let (inst, _vf) = build_instance(&pairs_r, &[], &[]);
        let (sig, r, _s, _t) = signature();
        let large_bound = small_bound + 3;
        let part_of = |bound: usize| {
            let mut schema = Schema::new(sig.clone());
            schema.add_method(AccessMethod::bounded("m", r, &[], bound)).unwrap();
            let mut sel = TruncatingSelection::new();
            accessible_part(&inst, &schema, &mut sel, &FxHashSet::default())
        };
        let small = part_of(small_bound);
        let large = part_of(large_bound);
        prop_assert!(small.is_subinstance_of(&large));
        prop_assert!(large.is_subinstance_of(&inst));
    }
}

/// Whether the FD holds on `instance`: tuples agreeing on its determiners
/// agree on its determined position.
fn fd_holds(instance: &Instance, fd: &Fd) -> bool {
    let mut seen: rustc_hash::FxHashMap<Vec<Value>, Value> = Default::default();
    instance.tuples(fd.relation()).all(|t| {
        let key = fd.determiners().iter().map(|&p| t[p]).collect();
        *seen.entry(key).or_insert(t[fd.determined()]) == t[fd.determined()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The finite closure of UIDs and FDs (Theorem 7.4's cycle rule) is
    /// sound on finite instances: Σ is a random subset of the UIDs and
    /// unary FDs that hold on a finite instance over R/2 and S/2, and every
    /// member of the closure of Σ must hold there too.
    #[test]
    fn finite_closure_holds_on_finite_instances(
        pairs_r in prop::collection::vec((0u8..4, 0u8..4), 0..6),
        pairs_s in prop::collection::vec((0u8..4, 0u8..4), 0..6),
        pick in any::<u64>(),
    ) {
        let (inst, _vf) = build_instance(&pairs_r, &pairs_s, &[]);
        let (_sig, r, s, _t) = signature();
        let column = |(rel, p): (RelationId, usize)| -> FxHashSet<Value> {
            inst.tuples(rel).map(|t| t[p]).collect()
        };
        let uid_holds = |uid: &Uid| column(uid.from).is_subset(&column(uid.to));
        let positions = [(r, 0), (r, 1), (s, 0), (s, 1)];
        let uids: Vec<Uid> = positions
            .iter()
            .flat_map(|&from| positions.iter().map(move |&to| Uid::new(from, to)))
            .filter(|uid| !uid.is_trivial() && uid_holds(uid))
            .collect();
        let fds: Vec<Fd> = [r, s]
            .iter()
            .flat_map(|&rel| [Fd::new(rel, vec![0], 1), Fd::new(rel, vec![1], 0)])
            .filter(|fd| fd_holds(&inst, fd))
            .collect();
        // Bit i of `pick` keeps the i-th dependency that holds.
        let kept = |i: usize| pick & (1 << i) != 0;
        let sigma_uids: Vec<Uid> =
            uids.iter().enumerate().filter(|&(i, _)| kept(i)).map(|(_, &u)| u).collect();
        let sigma_fds: Vec<Fd> = fds
            .iter()
            .enumerate()
            .filter(|&(i, _)| kept(uids.len() + i))
            .map(|(_, fd)| fd.clone())
            .collect();
        let (closed_uids, closed_fds) = finite_closure(inst.signature(), &sigma_uids, &sigma_fds);
        for uid in &closed_uids {
            prop_assert!(
                uid_holds(uid),
                "{:?} from {:?} + {:?} fails on\n{}",
                uid,
                sigma_uids,
                sigma_fds,
                inst.dump()
            );
        }
        for fd in &closed_fds {
            prop_assert!(
                fd_holds(&inst, fd),
                "{:?} from {:?} + {:?} fails on\n{}",
                fd,
                sigma_uids,
                sigma_fds,
                inst.dump()
            );
        }
    }
}
