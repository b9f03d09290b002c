//! The AMonDet containment construction (Section 3 of the paper).
//!
//! Monotone answerability of `Q` over a schema `Sch` is equivalent to
//! *access monotonic-determinacy* (AMonDet, Theorem 3.1), which in turn is
//! equivalent to a query containment `Q ⊆_Γ Q'` over an expanded signature
//! (Proposition 3.4):
//!
//! * each base relation `R` gets two copies `R_Accessed` and `R'`, plus a
//!   unary predicate `accessible`;
//! * `Γ` contains the original constraints `Σ`, their primed copies `Σ'`,
//!   and *accessibility axioms*: a non-result-bounded method transfers a
//!   fact with accessible inputs into `R_Accessed`; a result-bounded method
//!   (after `ElimUB` and, typically, the choice simplification) transfers
//!   *some* matching fact; and `R_Accessed` facts are both `R` and `R'`
//!   facts whose values are all accessible;
//! * the containment asks whether the primed copy `Q'` of `Q` follows.
//!
//! The module supports three axiomatisation styles: the standard simplified
//! one, the separability rewriting used for UIDs + FDs (Theorem 7.2), and a
//! "naive cardinality" proxy used only by the ablation test to measure the
//! cost of *not* applying the paper's schema simplifications.

use rbqa_access::Schema;
#[cfg(test)]
use rbqa_chase::Budget;
use rbqa_chase::ChaseConfig;
use rbqa_common::{Instance, RelationId, Signature, ValueFactory};
use rbqa_containment::generic::{
    decide_from_instance_any_with_proof, decide_from_instance_seeded, ContainmentProof,
};
use rbqa_containment::ContainmentOutcome;
use rbqa_logic::constraints::{ConstraintSet, TgdBuilder};
use rbqa_logic::homomorphism::Homomorphism;
use rbqa_logic::implication::det_by;
use rbqa_logic::{Atom, ConjunctiveQuery, Fd, Term, Tgd, VarId, VarPool};
use rustc_hash::FxHashMap;

/// How the accessibility axioms for result-bounded methods are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiomStyle {
    /// Result bounds are treated as result lower bounds of 1 (the sound
    /// outcome of `ElimUB` + choice simplification): one accessibility axiom
    /// per method.
    Simplified,
    /// Like [`AxiomStyle::Simplified`], but the axiom for a result-bounded
    /// method also exports the positions functionally determined by its
    /// input positions — the rewriting that makes the UIDs + FDs constraint
    /// set separable (Theorem 7.2).
    SeparabilityRewriting,
    /// A proxy for the naive axiomatisation of Example 3.5, which would use
    /// counting quantifiers `∃≥j`: for each `j ≤ min(k, cap)` the axiom is
    /// expanded into a TGD with `j` body copies and `j` head copies of the
    /// relation. Without inequalities these TGDs are logically no stronger
    /// than the `j = 1` axiom; the point of this style is to *measure* the
    /// axiom-size and chase-cost blow-up that the schema simplification
    /// results avoid (counted by the root test
    /// `simplification_soundness::naive_cardinality_axioms_only_add_matching_work`).
    NaiveCardinality {
        /// Cap on the expansion (that test sets it to the result bound it
        /// sweeps).
        cap: usize,
    },
}

/// The AMonDet containment problem for a query and a schema.
#[derive(Debug, Clone)]
pub struct AmondetProblem {
    /// The expanded signature (base relations, `R_Accessed`, `R'`,
    /// `accessible`).
    pub signature: Signature,
    /// The constraint set `Γ`.
    pub constraints: ConstraintSet,
    /// The starting instance: the canonical database of `Q` plus
    /// `accessible(c)` for every constant `c` of `Q`.
    pub start: Instance,
    /// The right-hand query `Q'` (the primed copy of `Q`).
    pub rhs: ConjunctiveQuery,
    /// Required assignment of the free (answer) variables of `Q'`: they must
    /// be matched to the values frozen for them in the canonical database —
    /// the non-Boolean reading of answerability (a plan must return every
    /// answer tuple, not merely witness one).
    pub rhs_seed: Homomorphism,
    /// The `accessible` predicate.
    pub accessible: RelationId,
    /// The values frozen for the build query's free variables, in free-variable
    /// order. Union targets ([`AmondetProblem::union_targets`]) seed their own
    /// free variables positionally against these values: every disjunct of a
    /// well-formed UCQ produces answers of the same arity, so recovering the
    /// same tuple through *any* disjunct certifies answerability.
    pub answer_values: Vec<rbqa_common::Value>,
    primed: FxHashMap<RelationId, RelationId>,
    accessed: FxHashMap<RelationId, RelationId>,
    /// `R_Accessed` → `R`, for walking proofs back.
    accessed_base: FxHashMap<RelationId, RelationId>,
    /// Per TGD of `constraints`: the index (in the built schema) of the
    /// method whose accessibility axiom it is, `None` for every other rule.
    axiom_methods: Vec<Option<usize>>,
}

impl AmondetProblem {
    /// Builds the AMonDet containment for `query` over `schema`.
    ///
    /// `query` must be a (Boolean or non-Boolean) CQ over the schema's
    /// signature; the containment is built for its Boolean closure, which is
    /// sufficient for answerability (the paper restricts to Boolean CQs,
    /// noting that the results extend to the non-Boolean case).
    pub fn build(
        schema: &Schema,
        query: &ConjunctiveQuery,
        values: &mut ValueFactory,
        style: AxiomStyle,
    ) -> AmondetProblem {
        let base = schema.signature().clone();
        let mut signature = base.clone();
        let accessible = signature
            .add_relation("accessible", 1)
            .expect("fresh relation name");
        let mut accessed: FxHashMap<RelationId, RelationId> = FxHashMap::default();
        let mut primed: FxHashMap<RelationId, RelationId> = FxHashMap::default();
        let mut name = String::new();
        for (rid, rel) in base.iter() {
            for (suffix, copies) in [("__accessed", &mut accessed), ("__prime", &mut primed)] {
                name.clear();
                name.push_str(rel.name());
                name.push_str(suffix);
                let copy = signature
                    .add_relation(&name, rel.arity())
                    .expect("fresh relation name");
                copies.insert(rid, copy);
            }
        }

        let mut constraints = ConstraintSet::new();
        let mut axiom_methods: Vec<Option<usize>> = Vec::new();
        // Σ and Σ'.
        for tgd in schema.constraints().tgds() {
            constraints.push_tgd(tgd.clone());
            constraints.push_tgd(tgd.map_relations(|r| primed.get(&r).copied().unwrap_or(r)));
        }
        for fd in schema.constraints().fds() {
            constraints.push_fd(fd.clone());
            constraints.push_fd(Fd::new(
                primed[&fd.relation()],
                fd.determiners().iter().copied().collect(),
                fd.determined(),
            ));
        }

        // Accessibility axioms per method.
        axiom_methods.resize(constraints.tgds().len(), None);
        for (method_index, method) in schema.methods().iter().enumerate() {
            let relation = method.relation();
            let arity = base.arity(relation);
            let inputs = method.input_positions_vec();
            match method.result_bound() {
                None => {
                    constraints.push_tgd(transfer_axiom(
                        relation,
                        accessed[&relation],
                        arity,
                        &inputs,
                        accessible,
                        &[],
                    ));
                }
                Some(_) => {
                    let exported_extra: Vec<usize> = match style {
                        AxiomStyle::SeparabilityRewriting => {
                            det_by(schema.constraints().fds(), relation, &inputs)
                                .into_iter()
                                .filter(|p| !inputs.contains(p))
                                .collect()
                        }
                        _ => Vec::new(),
                    };
                    match style {
                        AxiomStyle::NaiveCardinality { cap } => {
                            // The proxy expansion is clamped: a rule with j
                            // body copies has up to n^j triggers, so large
                            // expansions are priced out of the chase anyway
                            // (they exhaust the budget). The clamp keeps the
                            // ablation finite while still showing the growth
                            // the simplification theorems avoid.
                            const MAX_NAIVE_EXPANSION: usize = 16;
                            let bound = method
                                .result_bound()
                                .map(|rb| rb.limit)
                                .unwrap_or(1)
                                .clamp(1, cap.clamp(1, MAX_NAIVE_EXPANSION));
                            for j in 1..=bound {
                                constraints.push_tgd(naive_cardinality_axiom(
                                    relation,
                                    accessed[&relation],
                                    arity,
                                    &inputs,
                                    accessible,
                                    j,
                                ));
                            }
                        }
                        _ => {
                            constraints.push_tgd(lower_bound_axiom(
                                relation,
                                accessed[&relation],
                                arity,
                                &inputs,
                                accessible,
                                &exported_extra,
                            ));
                        }
                    }
                }
            }
            axiom_methods.resize(constraints.tgds().len(), Some(method_index));
        }

        // R_Accessed(w) -> R(w) ∧ R'(w) ∧ accessible(w_i).
        for (rid, rel) in base.iter() {
            let arity = rel.arity();
            let terms = positional_terms(arity);
            let mut head = vec![
                Atom::new(rid, terms.clone()),
                Atom::new(primed[&rid], terms.clone()),
            ];
            head.extend(terms.iter().map(|&t| Atom::new(accessible, vec![t])));
            constraints.push_tgd(Tgd::new(
                VarPool::numbered("w", arity),
                vec![Atom::new(accessed[&rid], terms)],
                head,
            ));
        }
        axiom_methods.resize(constraints.tgds().len(), None);

        // Start instance: CanonDB(Q) + accessible(c) for query constants.
        // Only the query's *constants* are seeded as accessible; the frozen
        // free variables are not (a plan must produce the answer values, it
        // does not receive them).
        let canon = query.canonical_database(&signature, values);
        let mut start = canon.instance;
        for c in query.constants() {
            start
                .insert(accessible, vec![c])
                .expect("accessible is unary");
        }

        // Q' : the primed copy of Q, whose free variables must recover the
        // same frozen values.
        let rhs_atoms: Vec<Atom> = query
            .atoms()
            .iter()
            .map(|a| Atom::new(primed[&a.relation()], a.args().to_vec()))
            .collect();
        let rhs = ConjunctiveQuery::new(query.vars().clone(), Vec::new(), rhs_atoms);
        let rhs_seed: Homomorphism = query
            .free_vars()
            .iter()
            .filter_map(|v| canon.assignment.get(v).map(|val| (*v, *val)))
            .collect();
        let answer_values: Vec<rbqa_common::Value> = query
            .free_vars()
            .iter()
            .filter_map(|v| canon.assignment.get(v).copied())
            .collect();

        AmondetProblem {
            signature,
            constraints,
            start,
            rhs,
            rhs_seed,
            accessible,
            answer_values,
            primed,
            accessed_base: accessed.iter().map(|(&r, &a)| (a, r)).collect(),
            accessed,
            axiom_methods,
        }
    }

    /// Marks extra constants as accessible in the start instance. The union
    /// decision uses this to seed the constants of *every* disjunct, not just
    /// the one whose canonical database is being chased: a plan answering the
    /// union may call methods on any constant the union mentions.
    pub fn seed_accessible(&mut self, constants: &[rbqa_common::Value]) {
        for &c in constants {
            self.start
                .insert(self.accessible, vec![c])
                .expect("accessible is unary");
        }
    }

    /// Builds the disjunctive right-hand side for a union decision: the
    /// primed copy of each disjunct, seeded so that its free variables must
    /// recover (positionally) the values frozen for the build query's answer
    /// variables. Each target carries its original disjunct index. Pass the
    /// result to [`AmondetProblem::decide_union`].
    ///
    /// Disjuncts that cannot recover the answer tuple by construction are
    /// **excluded** rather than under-constrained: a disjunct whose answer
    /// arity disagrees with the build query's, or whose free-variable list
    /// repeats a variable that would have to take two different frozen
    /// values (only constructible by bypassing the parser/builder, which
    /// deduplicate answer variables). Including them with a truncated or
    /// last-write-wins seed would make the union check unsound.
    pub fn union_targets(
        &self,
        disjuncts: &[ConjunctiveQuery],
    ) -> Vec<(usize, ConjunctiveQuery, Homomorphism)> {
        disjuncts
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                if q.free_vars().len() != self.answer_values.len() {
                    return None;
                }
                let mut seed = Homomorphism::default();
                for (v, val) in q.free_vars().iter().zip(self.answer_values.iter()) {
                    match seed.insert(*v, *val) {
                        Some(prev) if prev != *val => return None,
                        _ => {}
                    }
                }
                let atoms: Vec<Atom> = q
                    .atoms()
                    .iter()
                    .map(|a| {
                        Atom::new(
                            *self.primed.get(&a.relation()).unwrap_or(&a.relation()),
                            a.args().to_vec(),
                        )
                    })
                    .collect();
                let primed = ConjunctiveQuery::new(q.vars().clone(), Vec::new(), atoms);
                Some((i, primed, seed))
            })
            .collect()
    }

    /// Decides the union containment: chases the start instance once and
    /// checks whether **any** target matches. Returns the outcome and the
    /// original disjunct index of the matching target, if one matched.
    pub fn decide_union(
        &self,
        targets: &[(usize, ConjunctiveQuery, Homomorphism)],
        values: &mut ValueFactory,
        config: ChaseConfig,
    ) -> (ContainmentOutcome, Option<usize>) {
        let candidates: Vec<(&ConjunctiveQuery, &Homomorphism)> =
            targets.iter().map(|(_, q, seed)| (q, seed)).collect();
        let (outcome, matched) = rbqa_containment::generic::decide_from_instance_any(
            &self.start,
            &candidates,
            &self.constraints,
            values,
            config,
            None,
        );
        (outcome, matched.map(|k| targets[k].0))
    }

    /// Like [`AmondetProblem::decide_union`], but the chase records its
    /// derivations and a match comes back as a proof, whose `target`
    /// indexes `targets`. Plan extraction for a rescued disjunct reads it.
    pub fn decide_union_with_proof(
        &self,
        targets: &[(usize, ConjunctiveQuery, Homomorphism)],
        values: &mut ValueFactory,
        config: ChaseConfig,
    ) -> (ContainmentOutcome, Option<ContainmentProof>) {
        let candidates: Vec<(&ConjunctiveQuery, &Homomorphism)> =
            targets.iter().map(|(_, q, seed)| (q, seed)).collect();
        decide_from_instance_any_with_proof(
            &self.start,
            &candidates,
            &self.constraints,
            values,
            config,
            None,
        )
    }

    /// Like [`AmondetProblem::decide`], but the chase records its
    /// derivations and a match of [`AmondetProblem::rhs`] comes back as a
    /// proof. Plan extraction reads it; Decide never asks for one.
    pub fn decide_with_proof(
        &self,
        values: &mut ValueFactory,
        config: ChaseConfig,
    ) -> (ContainmentOutcome, Option<ContainmentProof>) {
        decide_from_instance_any_with_proof(
            &self.start,
            &[(&self.rhs, &self.rhs_seed)],
            &self.constraints,
            values,
            config,
            None,
        )
    }

    /// The index, among the built schema's methods, of the method whose
    /// accessibility axiom is TGD `tgd_index` of [`AmondetProblem::constraints`].
    pub(crate) fn axiom_method(&self, tgd_index: usize) -> Option<usize> {
        self.axiom_methods.get(tgd_index).copied().flatten()
    }

    /// The base relation `R` of an `R_Accessed` relation.
    pub(crate) fn base_of_accessed(&self, relation: RelationId) -> Option<RelationId> {
        self.accessed_base.get(&relation).copied()
    }

    /// The primed copy of a base relation.
    pub fn primed_relation(&self, relation: RelationId) -> Option<RelationId> {
        self.primed.get(&relation).copied()
    }

    /// The `R_Accessed` copy of a base relation.
    pub fn accessed_relation(&self, relation: RelationId) -> Option<RelationId> {
        self.accessed.get(&relation).copied()
    }

    /// Decides the containment with the generic budgeted chase.
    pub fn decide(&self, values: &mut ValueFactory, config: ChaseConfig) -> ContainmentOutcome {
        decide_from_instance_seeded(
            &self.start,
            &self.rhs,
            &self.rhs_seed,
            &self.constraints,
            values,
            config,
            None,
        )
    }
}

/// The terms `v0, …, v{arity-1}` of a pool whose variable `i` names
/// position `i` ([`VarPool::numbered`]).
fn positional_terms(arity: usize) -> Vec<Term> {
    (0..arity)
        .map(|i| Term::Var(VarId::from_index(i)))
        .collect()
}

/// `accessible(x_i for i ∈ inputs) ∧ R(x) → R_Accessed(x)` — the axiom for a
/// method without a result bound (`extra_exported` unused here, kept for
/// symmetry).
fn transfer_axiom(
    relation: RelationId,
    accessed: RelationId,
    arity: usize,
    inputs: &[usize],
    accessible: RelationId,
    _extra_exported: &[usize],
) -> Tgd {
    let terms = positional_terms(arity);
    let mut body: Vec<Atom> = inputs
        .iter()
        .map(|&i| Atom::new(accessible, vec![terms[i]]))
        .collect();
    body.push(Atom::new(relation, terms.clone()));
    Tgd::new(
        VarPool::numbered("x", arity),
        body,
        vec![Atom::new(accessed, terms)],
    )
}

/// `accessible(x_i) ∧ R(x, y) → ∃z R_Accessed(x, z)` — the axiom for a
/// result-bounded method (treated as a result lower bound of 1). Positions
/// in `inputs` or `extra_exported` keep their body variable; the rest are
/// existentially quantified.
fn lower_bound_axiom(
    relation: RelationId,
    accessed: RelationId,
    arity: usize,
    inputs: &[usize],
    accessible: RelationId,
    extra_exported: &[usize],
) -> Tgd {
    let mut vars = VarPool::numbered("x", arity);
    let terms = positional_terms(arity);
    let mut body: Vec<Atom> = inputs
        .iter()
        .map(|&i| Atom::new(accessible, vec![terms[i]]))
        .collect();
    body.push(Atom::new(relation, terms.clone()));
    let head_terms: Vec<Term> = (0..arity)
        .map(|i| {
            if inputs.contains(&i) || extra_exported.contains(&i) {
                terms[i]
            } else {
                Term::Var(vars.var(&format!("z{i}")))
            }
        })
        .collect();
    Tgd::new(vars, body, vec![Atom::new(accessed, head_terms)])
}

/// The `j`-th naive-cardinality proxy axiom: `j` body copies of `R` sharing
/// the input variables, `j` head copies of `R_Accessed` with fresh
/// existential variables.
fn naive_cardinality_axiom(
    relation: RelationId,
    accessed: RelationId,
    arity: usize,
    inputs: &[usize],
    accessible: RelationId,
    j: usize,
) -> Tgd {
    let mut b = TgdBuilder::new();
    let input_vars: Vec<_> = inputs.iter().map(|i| b.var(&format!("x{i}"))).collect();
    for v in &input_vars {
        b.body_atom(accessible, vec![Term::Var(*v)]);
    }
    for copy in 0..j {
        let terms: Vec<Term> = (0..arity)
            .map(|i| match inputs.iter().position(|&p| p == i) {
                Some(k) => Term::Var(input_vars[k]),
                None => Term::Var(b.var(&format!("y{copy}_{i}"))),
            })
            .collect();
        b.body_atom(relation, terms);
    }
    for copy in 0..j {
        let terms: Vec<Term> = (0..arity)
            .map(|i| match inputs.iter().position(|&p| p == i) {
                Some(k) => Term::Var(input_vars[k]),
                None => Term::Var(b.var(&format!("z{copy}_{i}"))),
            })
            .collect();
        b.head_atom(accessed, terms);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::AccessMethod;
    use rbqa_containment::Verdict;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::parser::parse_cq;

    /// Example 1.1 schema; `ud_bound` controls the result bound on ud.
    fn university(ud_bound: Option<usize>) -> (Schema, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        // τ: every Prof id appears in Udirectory.
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match ud_bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        (schema, ValueFactory::new())
    }

    #[test]
    fn expanded_signature_and_axiom_counts() {
        let (schema, mut vf) = university(Some(100));
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let problem = AmondetProblem::build(&schema, &q, &mut vf, AxiomStyle::Simplified);
        // 2 base + accessible + 2 accessed + 2 primed.
        assert_eq!(problem.signature.len(), 7);
        // Σ + Σ' (2 TGDs) + 2 method axioms + 2 accessed-propagation axioms.
        assert_eq!(problem.constraints.tgds().len(), 6);
        assert!(problem.constraints.fds().is_empty());
        assert!(problem
            .accessed_relation(schema.signature().require("Prof").unwrap())
            .is_some());
        assert!(problem
            .primed_relation(schema.signature().require("Udirectory").unwrap())
            .is_some());
        // Start: one canonical fact, no accessible constants.
        assert_eq!(problem.start.len(), 1);
    }

    #[test]
    fn example_1_2_holds_without_result_bounds() {
        let (schema, mut vf) = university(None);
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q() :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let problem = AmondetProblem::build(&schema, &q1, &mut vf, AxiomStyle::Simplified);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn example_1_3_does_not_hold_with_result_bound() {
        // With the result bound on ud, Q1 is not answerable. The generic
        // chase saturates here (the accessibility axioms cannot keep
        // firing), so the negative answer is certified.
        let (schema, mut vf) = university(Some(100)).clone();
        let choice = schema.choice_simplification();
        let mut sig = choice.signature().clone();
        let q1 = parse_cq("Q() :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let problem = AmondetProblem::build(&choice, &q1, &mut vf, AxiomStyle::Simplified);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
    }

    #[test]
    fn example_1_4_existence_check_holds_with_result_bound() {
        let (schema, mut vf) = university(Some(100));
        let mut sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let problem = AmondetProblem::build(&schema, &q2, &mut vf, AxiomStyle::Simplified);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn example_1_5_fd_determined_output_with_separability() {
        // Udirectory(id, address, phone) with FD id -> address, method ud2
        // keyed on id with bound 1; the Boolean form of Q3 asks whether the
        // given id has the given address. With the FD, the single returned
        // tuple is guaranteed to carry *the* address, so the query is
        // answerable.
        let mut sig = Signature::new();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(Fd::new(udir, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], 1))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut sig2 = schema.signature().clone();
        let q3 = parse_cq(
            "Q() :- Udirectory('12345', 'mainst', p)",
            &mut sig2,
            &mut vf,
        )
        .unwrap();

        // With the separability rewriting the address is exported and the
        // containment holds.
        let problem =
            AmondetProblem::build(&schema, &q3, &mut vf, AxiomStyle::SeparabilityRewriting);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn example_1_5_needs_the_fd() {
        // Same as above but without the FD: the single tuple returned by ud2
        // may carry any address, so the query is not answerable.
        let mut sig = Signature::new();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::with_parts(sig, ConstraintSet::new(), vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], 1))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut sig2 = schema.signature().clone();
        let q3 = parse_cq(
            "Q() :- Udirectory('12345', 'mainst', p)",
            &mut sig2,
            &mut vf,
        )
        .unwrap();
        let problem =
            AmondetProblem::build(&schema, &q3, &mut vf, AxiomStyle::SeparabilityRewriting);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::DoesNotHold);

        // The pure existence check on the same id (no address constant)
        // remains answerable even without the FD (Example 1.4's intuition).
        let q_exists = parse_cq("Q() :- Udirectory('12345', a, p)", &mut sig2, &mut vf).unwrap();
        let problem = AmondetProblem::build(&schema, &q_exists, &mut vf, AxiomStyle::Simplified);
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn naive_cardinality_style_generates_more_axioms() {
        let (schema, mut vf) = university(Some(10));
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let simplified = AmondetProblem::build(&schema, &q, &mut vf, AxiomStyle::Simplified);
        let naive = AmondetProblem::build(
            &schema,
            &q,
            &mut vf,
            AxiomStyle::NaiveCardinality { cap: 10 },
        );
        assert!(naive.constraints.tgds().len() > simplified.constraints.tgds().len());
        assert_eq!(
            naive.constraints.tgds().len() - simplified.constraints.tgds().len(),
            9
        );
        // The naive axiomatisation still reaches the same (positive) verdict
        // (under a small budget: its chase is intentionally wasteful, which
        // is the very point of the ablation).
        let out = naive.decide(&mut vf, ChaseConfig::with_budget(Budget::small()));
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn query_constants_are_seeded_as_accessible() {
        let (schema, mut vf) = university(Some(100));
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Prof('7', n, s)", &mut sig, &mut vf).unwrap();
        let problem = AmondetProblem::build(&schema, &q, &mut vf, AxiomStyle::Simplified);
        assert_eq!(problem.start.relation_len(problem.accessible), 1);
        // The constant id is accessible, so pr can be called on it: Q holds.
        let out = problem.decide(&mut vf, ChaseConfig::with_budget(Budget::generous()));
        assert_eq!(out.verdict, Verdict::Holds);
    }
}
