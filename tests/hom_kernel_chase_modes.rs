//! End-to-end kernel differential: running the chase with the compiled
//! matching kernel and with the reference kernel produces the same
//! [`Completion`] and homomorphically equivalent results.
//!
//! The kernel selector is process-wide ([`rbqa::logic::homomorphism::set_kernel_mode`]),
//! so this comparison lives in its own integration-test binary: nothing
//! else in this process observes the temporary switch to the reference
//! kernel. (The per-call kernel equivalence is covered by the proptest in
//! `tests/hom_kernel_differential.rs`.)

use rbqa::chase::{chase, chase_naive, Budget, ChaseConfig, ChaseOutcome, Completion};
use rbqa::common::{Instance, Signature, Value, ValueFactory};
use rbqa::logic::constraints::tgd::{inclusion_dependency, TgdBuilder};
use rbqa::logic::constraints::ConstraintSet;
use rbqa::logic::homomorphism::{holds, set_kernel_mode, KernelMode};
use rbqa::logic::{CqBuilder, Fd, Term};

/// Views `instance` as a Boolean CQ (nulls become variables) and checks a
/// constant-fixing homomorphism into `other`.
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

/// A mixed workload: cyclic IDs, a join rule, a full transitivity rule and
/// an FD, over a seeded deterministic instance.
fn workload(seed: u64) -> (Instance, ConstraintSet, ValueFactory, Budget) {
    let mut sig = Signature::new();
    let r = sig.add_relation("R", 2).unwrap();
    let s = sig.add_relation("S", 2).unwrap();
    let t = sig.add_relation("T", 1).unwrap();
    let mut vf = ValueFactory::new();
    let vals: Vec<Value> = (0..6).map(|i| vf.constant(&format!("v{i}"))).collect();
    let mut inst = Instance::new(sig.clone());
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    for _ in 0..(4 + seed as usize % 5) {
        let (a, b) = (vals[next() % 6], vals[next() % 6]);
        inst.insert(r, vec![a, b]).unwrap();
    }
    for _ in 0..(2 + seed as usize % 4) {
        let (a, b) = (vals[next() % 6], vals[next() % 6]);
        inst.insert(s, vec![a, b]).unwrap();
    }

    let mut constraints = ConstraintSet::new();
    constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
    constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));
    let mut bld = TgdBuilder::new();
    let (x, y, z) = (bld.var("x"), bld.var("y"), bld.var("z"));
    bld.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
    bld.body_atom(s, vec![Term::Var(y), Term::Var(z)]);
    bld.head_atom(t, vec![Term::Var(y)]);
    constraints.push_tgd(bld.build());
    if seed.is_multiple_of(2) {
        constraints.push_fd(Fd::new(s, vec![0], 1));
    }
    let budget = Budget::generous().with_max_depth(3 + (seed as usize % 4));
    (inst, constraints, vf, budget)
}

/// Both chase engines, by name: the semi-naive [`chase`] and its
/// [`chase_naive`] oracle.
type Engine = fn(&Instance, &ConstraintSet, &mut ValueFactory, ChaseConfig) -> ChaseOutcome;
const ENGINES: [(&str, Engine); 2] = [("naive", chase_naive), ("seminaive", chase)];

#[test]
fn chase_agrees_across_kernel_modes() {
    for seed in 0..24u64 {
        for (engine, run) in ENGINES {
            let (inst, constraints, vf, budget) = workload(seed);
            let config = ChaseConfig::with_budget(budget);

            set_kernel_mode(KernelMode::Compiled);
            let mut vf_compiled = vf.clone();
            let compiled = run(&inst, &constraints, &mut vf_compiled, config);

            set_kernel_mode(KernelMode::Reference);
            let mut vf_reference = vf.clone();
            let baseline = run(&inst, &constraints, &mut vf_reference, config);
            set_kernel_mode(KernelMode::Compiled);

            assert_eq!(
                compiled.completion, baseline.completion,
                "kernels disagree on completion (seed {seed}, {engine})"
            );
            assert_eq!(
                compiled.instance.len(),
                baseline.instance.len(),
                "kernels disagree on result size (seed {seed}, {engine})"
            );
            if compiled.completion == Completion::Saturated {
                assert!(
                    maps_into(&compiled.instance, &baseline.instance)
                        && maps_into(&baseline.instance, &compiled.instance),
                    "saturated results are not hom-equivalent (seed {seed}, {engine})"
                );
            }
        }
    }
}
