//! Linearization of bounded-width IDs with accessibility axioms
//! (Proposition 5.5 / Appendix E.3.5 and E.5.2).
//!
//! The AMonDet containment problem for a schema whose constraints are IDs
//! involves the IDs `Σ`, their primed copies `Σ'`, and accessibility axioms
//! `∆` (truncated accessibility + transfer) which are *not* IDs. The
//! linearization construction simulates the chase of `Σ ∪ ∆` with a set
//! `Σ^Lin` of *linear* dependencies of bounded semi-width over an expanded
//! signature: for every relation `R` and every subset `P` of its positions
//! of size at most the ID width `w`, a relation `R_P` represents "an
//! `R`-fact whose positions in `P` hold accessible values". The rules are:
//!
//! * **(Lift)** — for every ID `R(u) → ∃z S(z, u)` and every `P`, an ID from
//!   `R_P` to `S_P'''` where `P'''` is the image of the positions
//!   *transferred by* `P` (closed under the derived truncated accessibility
//!   axioms of [`crate::saturation`]) through the ID's exported positions;
//! * **(Transfer)** — `R_P(x) → R'(x)` whenever the positions transferred by
//!   `P` cover the input positions of some access method on `R` without a
//!   result bound;
//! * **(Result-bounded Fact Transfer)** — `R_P(x, y) → ∃z R'(x, z)` for each
//!   result-bounded method on `R` (`x` its input positions), reflecting that
//!   result-bounded methods are only useful as existence checks for ID
//!   constraints (Theorem 4.2 / Appendix E.5.2);
//! * the primed copies `Σ'` of the original IDs.
//!
//! The initial instance `I0^Lin` is obtained from the canonical database of
//! the left-hand query by closing its accessible values under the derived
//! axioms and annotating each fact with every accessible subset `P` of size
//! at most `w`.

#[cfg(test)]
use rbqa_chase::Budget;
use rbqa_common::{Instance, RelationId, Signature, Value, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::{Atom, ConjunctiveQuery, Term, Tgd};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

use crate::bounds::completeness_depth_for;
use crate::problem::ContainmentOutcome;
use crate::saturation::{
    saturate_truncated_axioms, subsets_up_to, MethodSignature, TruncatedAxiom,
};

/// The linearized signature, rules and derived axioms for one schema.
#[derive(Debug, Clone)]
pub struct LinearizedSchema {
    /// The original signature `S`.
    pub base_signature: Signature,
    /// The expanded signature: `S` plus the `R_P` relations and the primed
    /// relations `R'`.
    pub lin_signature: Signature,
    /// The ID width bound `w` used for the construction.
    pub width: usize,
    /// Derived truncated accessibility axioms of breadth at most `w`.
    pub axioms: Vec<TruncatedAxiom>,
    /// The linear rules `Σ^Lin` (Lift, Transfer, Result-bounded Fact
    /// Transfer) together with the primed copies of the original IDs.
    pub rules: ConstraintSet,
    rp: FxHashMap<(RelationId, Vec<usize>), RelationId>,
    primed: FxHashMap<RelationId, RelationId>,
}

/// Renames every atom of `tgd` through `map` (identity on unmapped
/// relations), keeping terms unchanged.
fn remap_tgd(tgd: &Tgd, map: &FxHashMap<RelationId, RelationId>) -> Tgd {
    let remap_atoms = |atoms: &[Atom]| -> Vec<Atom> {
        atoms
            .iter()
            .map(|a| {
                let rel = *map.get(&a.relation()).unwrap_or(&a.relation());
                Atom::new(rel, a.args().to_vec())
            })
            .collect()
    };
    Tgd::new(
        tgd.vars().clone(),
        remap_atoms(tgd.body()),
        remap_atoms(tgd.head()),
    )
}

impl LinearizedSchema {
    /// Builds the linearization for IDs `ids` over `sig` with access methods
    /// `methods`, using width bound `width` (typically the maximal width of
    /// the IDs; it is raised to at least 1).
    pub fn build(
        sig: &Signature,
        ids: &[Tgd],
        methods: &[MethodSignature],
        width: usize,
    ) -> LinearizedSchema {
        let _obs = rbqa_obs::span("linearize");
        // The construction needs annotated relations for every exported-
        // position set of every ID, so the width bound is at least the
        // maximal ID width (and at least 1).
        let id_width = ids.iter().map(|t| t.width()).max().unwrap_or(0);
        let width = width.max(id_width).max(1);
        let axioms = saturate_truncated_axioms(sig, ids, methods, width);

        // One pass over the axioms instead of a rescan per (relation,
        // subset) in the rule loops below.
        let mut transferred_of: FxHashMap<(RelationId, Vec<usize>), BTreeSet<usize>> =
            FxHashMap::default();
        for ax in &axioms {
            transferred_of
                .entry((ax.relation, ax.premises.iter().copied().collect()))
                .or_default()
                .insert(ax.conclusion);
        }
        let transferred_of = |rid: RelationId, subset: &BTreeSet<usize>| -> BTreeSet<usize> {
            let key: Vec<usize> = subset.iter().copied().collect();
            let mut out = subset.clone();
            if let Some(extra) = transferred_of.get(&(rid, key)) {
                out.extend(extra.iter().copied());
            }
            out
        };

        // Expanded signature.
        let mut lin_signature = sig.clone();
        let mut rp: FxHashMap<(RelationId, Vec<usize>), RelationId> = FxHashMap::default();
        let mut primed: FxHashMap<RelationId, RelationId> = FxHashMap::default();
        for (rid, rel) in sig.iter() {
            for subset in subsets_up_to(rel.arity(), width) {
                let key: Vec<usize> = subset.iter().copied().collect();
                let suffix: Vec<String> = key.iter().map(|p| p.to_string()).collect();
                let name = format!("{}__acc_{}", rel.name(), suffix.join("_"));
                let new_rel = lin_signature
                    .add_relation(&name, rel.arity())
                    .expect("fresh relation name");
                rp.insert((rid, key), new_rel);
            }
            let primed_rel = lin_signature
                .add_relation(&format!("{}__prime", rel.name()), rel.arity())
                .expect("fresh relation name");
            primed.insert(rid, primed_rel);
        }

        let mut rules = ConstraintSet::new();

        // Primed copies of the original IDs.
        for id in ids {
            rules.push_tgd(remap_tgd(id, &primed));
        }

        // (Transfer) and (Result-bounded Fact Transfer).
        for (rid, rel) in sig.iter() {
            let arity = rel.arity();
            for subset in subsets_up_to(arity, width) {
                let key: Vec<usize> = subset.iter().copied().collect();
                let rp_rel = rp[&(rid, key)];
                let transferred = transferred_of(rid, &subset);

                // (Transfer): some non-result-bounded method's inputs are
                // covered by the transferred positions.
                let has_full_access = methods.iter().any(|m| {
                    m.relation == rid
                        && !m.result_bounded
                        && m.input_positions.iter().all(|i| transferred.contains(i))
                });
                if has_full_access {
                    let mut b = rbqa_logic::constraints::TgdBuilder::new();
                    let vars: Vec<_> = (0..arity).map(|i| b.var(&format!("x{i}"))).collect();
                    b.body_atom(rp_rel, vars.iter().map(|v| Term::Var(*v)).collect());
                    b.head_atom(primed[&rid], vars.iter().map(|v| Term::Var(*v)).collect());
                    rules.push_tgd(b.build());
                }

                // (Result-bounded Fact Transfer): for each result-bounded
                // method on R, R_P(x, y) → ∃z R'(x, z).
                for m in methods
                    .iter()
                    .filter(|m| m.relation == rid && m.result_bounded)
                {
                    let mut b = rbqa_logic::constraints::TgdBuilder::new();
                    let body_vars: Vec<_> = (0..arity).map(|i| b.var(&format!("x{i}"))).collect();
                    let head_terms: Vec<Term> = (0..arity)
                        .map(|i| {
                            if m.input_positions.contains(&i) {
                                Term::Var(body_vars[i])
                            } else {
                                Term::Var(b.var(&format!("z{i}")))
                            }
                        })
                        .collect();
                    b.body_atom(rp_rel, body_vars.iter().map(|v| Term::Var(*v)).collect());
                    b.head_atom(primed[&rid], head_terms);
                    rules.push_tgd(b.build());
                }
            }
        }

        // (Lift): IDs propagated through the annotated relations.
        for id in ids {
            let map = id
                .id_position_map()
                .expect("linearization input must consist of IDs");
            let body_rel = id.body()[0].relation();
            let head_rel = id.head()[0].relation();
            let body_arity = sig.arity(body_rel);
            for subset in subsets_up_to(body_arity, width) {
                let key: Vec<usize> = subset.iter().copied().collect();
                let body_rp = rp[&(body_rel, key)];
                let transferred = transferred_of(body_rel, &subset);
                // Exported body positions whose accessibility transfers.
                let head_positions: BTreeSet<usize> = map
                    .iter()
                    .filter(|(b, _)| transferred.contains(b))
                    .map(|(_, h)| *h)
                    .collect();
                let head_key: Vec<usize> = head_positions.iter().copied().collect();
                let head_rp = rp[&(head_rel, head_key)];
                let mut relmap = FxHashMap::default();
                relmap.insert(body_rel, body_rp);
                relmap.insert(head_rel, head_rp);
                rules.push_tgd(remap_tgd(id, &relmap));
            }
        }

        LinearizedSchema {
            base_signature: sig.clone(),
            lin_signature,
            width,
            axioms,
            rules,
            rp,
            primed,
        }
    }

    /// The annotated relation `R_P`, if `R` belongs to the base signature
    /// and `|P| ≤ w`.
    pub fn rp_relation(
        &self,
        relation: RelationId,
        positions: &BTreeSet<usize>,
    ) -> Option<RelationId> {
        let key: Vec<usize> = positions.iter().copied().collect();
        self.rp.get(&(relation, key)).copied()
    }

    /// The primed copy `R'` of a base relation.
    pub fn primed_relation(&self, relation: RelationId) -> Option<RelationId> {
        self.primed.get(&relation).copied()
    }

    /// Rewrites a query over the base signature into the same query over the
    /// primed relations.
    pub fn primed_query(&self, query: &ConjunctiveQuery) -> ConjunctiveQuery {
        let atoms: Vec<Atom> = query
            .atoms()
            .iter()
            .map(|a| {
                let rel = self
                    .primed_relation(a.relation())
                    .expect("query must be over the base signature");
                Atom::new(rel, a.args().to_vec())
            })
            .collect();
        ConjunctiveQuery::new(query.vars().clone(), query.free_vars().to_vec(), atoms)
    }

    /// Computes the accessible-value closure of `instance` under the derived
    /// truncated accessibility axioms, starting from `seed`.
    pub fn accessible_closure(
        &self,
        instance: &Instance,
        seed: &FxHashSet<Value>,
    ) -> FxHashSet<Value> {
        let mut accessible = seed.clone();
        // Group the axioms per relation once; the fixpoint then scans each
        // tuple against its own relation's axioms only.
        let mut by_relation: FxHashMap<RelationId, Vec<&TruncatedAxiom>> = FxHashMap::default();
        for ax in &self.axioms {
            by_relation.entry(ax.relation).or_default().push(ax);
        }
        loop {
            let mut changed = false;
            for (rid, _) in self.base_signature.iter() {
                let Some(axioms) = by_relation.get(&rid) else {
                    continue;
                };
                for tuple in instance.tuples(rid) {
                    for ax in axioms {
                        if ax.premises.iter().all(|&p| accessible.contains(&tuple[p]))
                            && accessible.insert(tuple[ax.conclusion])
                        {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return accessible;
            }
        }
    }

    /// Builds the linearized initial instance `I0^Lin` from a base-signature
    /// instance (typically the canonical database of the left-hand query)
    /// and a set of initially accessible values (typically the constants of
    /// the query).
    pub fn initial_instance(&self, base: &Instance, seed: &FxHashSet<Value>) -> Instance {
        let accessible = self.accessible_closure(base, seed);
        let mut out = Instance::new(self.lin_signature.clone());
        for (rid, rel) in self.base_signature.iter() {
            let arity = rel.arity();
            // One subset lattice per relation, not per tuple.
            let subsets = subsets_up_to(arity, self.width);
            for tuple in base.tuples(rid) {
                // Keep the original fact (harmless; the rules only read the
                // annotated and primed relations).
                out.insert(rid, tuple.to_vec()).expect("same arity");
                let acc_positions: BTreeSet<usize> = (0..arity)
                    .filter(|&i| accessible.contains(&tuple[i]))
                    .collect();
                for subset in &subsets {
                    if subset.is_subset(&acc_positions) {
                        let rp_rel = self.rp_relation(rid, subset).expect("subset within width");
                        out.insert(rp_rel, tuple.to_vec()).expect("same arity");
                    }
                }
                if acc_positions.len() == arity {
                    let primed = self.primed_relation(rid).expect("base relation");
                    out.insert(primed, tuple.to_vec()).expect("same arity");
                }
            }
        }
        out
    }

    /// Decides the AMonDet-style containment `Q ⊆ Q'` through the
    /// linearization: chase `I0^Lin` with `Σ^Lin` (depth-bounded by the
    /// semi-width completeness bound) and check the primed right-hand query.
    ///
    /// `lhs` and `rhs` must be queries over the base signature; for the
    /// AMonDet containment of the paper both are the same query `Q` (the
    /// right-hand side is automatically primed). When `rhs` shares its
    /// variable pool with `lhs` (the usual case where both *are* `Q`), the
    /// free variables of `rhs` are required to match the values frozen for
    /// them in the canonical database of `lhs` — the non-Boolean reading of
    /// answerability (every answer tuple must be recovered).
    pub fn decide(
        &self,
        lhs: &ConjunctiveQuery,
        rhs: &ConjunctiveQuery,
        values: &mut ValueFactory,
        config: rbqa_chase::ChaseConfig,
    ) -> ContainmentOutcome {
        if let Some(stopped) = ContainmentOutcome::on_expired_deadline() {
            return stopped;
        }
        let canon = lhs.canonical_database(&self.base_signature, values);
        let seed: FxHashSet<Value> = lhs.constants().into_iter().collect();
        let start = self.initial_instance(&canon.instance, &seed);
        let rhs_primed = self.primed_query(rhs);
        let rhs_seed: rbqa_logic::homomorphism::Homomorphism = rhs
            .free_vars()
            .iter()
            .filter_map(|v| canon.assignment.get(v).map(|val| (*v, *val)))
            .collect();
        if let Some(stopped) = ContainmentOutcome::on_expired_deadline() {
            return stopped;
        }
        let bound = completeness_depth_for(
            self.rules.tgds(),
            rhs_primed.size(),
            self.lin_signature.max_arity(),
        );
        let depth = bound.min(config.budget.max_depth);
        let config = rbqa_chase::ChaseConfig {
            budget: config.budget.with_max_depth(depth),
            ..config
        };
        crate::generic::decide_from_instance_seeded(
            &start,
            &rhs_primed,
            &rhs_seed,
            &self.rules,
            values,
            config,
            Some(bound),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Verdict;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::parser::parse_cq;

    /// The university schema of Example 1.1 with the referential constraint
    /// of Example 1.2: Udirectory(id, addr, phone) ⊆ Prof(id, _, _) is *not*
    /// what the paper states — the constraint goes from Prof into
    /// Udirectory. Methods: pr on Prof with input id (no bound), ud on
    /// Udirectory input-free (result-bounded in Example 1.3).
    fn university() -> (Signature, RelationId, RelationId, Tgd) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let referential = inclusion_dependency(&sig, prof, &[0], udir, &[0]);
        (sig, prof, udir, referential)
    }

    #[test]
    fn build_creates_annotated_and_primed_relations() {
        let (sig, prof, udir, referential) = university();
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], true),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        // 2 original + per relation: 1 + 3 annotated (|P| ≤ 1) + 1 primed.
        assert_eq!(lin.lin_signature.len(), 2 + 2 * 5);
        assert!(lin.rp_relation(prof, &BTreeSet::new()).is_some());
        assert!(lin.rp_relation(prof, &BTreeSet::from([2])).is_some());
        assert!(lin.rp_relation(prof, &BTreeSet::from([0, 1])).is_none());
        assert!(lin.primed_relation(udir).is_some());
        // Rules: primed ID + transfers + lifts are all linear.
        assert!(lin.rules.tgds().iter().all(|t| t.is_linear()));
        assert!(!lin.rules.tgds().is_empty());
    }

    #[test]
    fn q2_existence_check_is_answerable_example_1_4() {
        // Example 1.4: Q2 = ∃ Udirectory(i, a, p), ud result-bounded and
        // input-free. The AMonDet containment holds: the linearized chase
        // transfers the Udirectory fact to Udirectory' via the
        // result-bounded fact transfer rule.
        let (mut sig, prof, udir, referential) = university();
        let mut vf = ValueFactory::new();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], true),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        let out = lin.decide(
            &q2,
            &q2,
            &mut vf,
            rbqa_chase::ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn q1_salary_query_not_answerable_with_result_bound_example_1_3() {
        // Example 1.3: Q1(n) = ∃i Prof(i, n, 10000) with ud result-bounded:
        // the plan of Example 1.2 no longer works and the query is not
        // monotone answerable, hence the AMonDet containment fails.
        let (mut sig, prof, udir, _referential) = university();
        let mut vf = ValueFactory::new();
        let q1 = parse_cq("Q() :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        // The referential constraint of the paper: every Prof id appears in
        // Udirectory.
        let referential = inclusion_dependency(&sig, prof, &[0], udir, &[0]);
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], true),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        let out = lin.decide(
            &q1,
            &q1,
            &mut vf,
            rbqa_chase::ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
    }

    #[test]
    fn q1_salary_query_answerable_without_result_bound_example_1_2() {
        // Example 1.2: with ud *not* result-bounded, Q1 is monotone
        // answerable (access ud, then pr with each id, filter on salary).
        let (mut sig, prof, udir, _referential) = university();
        let mut vf = ValueFactory::new();
        let q1 = parse_cq("Q() :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let referential = inclusion_dependency(&sig, prof, &[0], udir, &[0]);
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], false),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        let out = lin.decide(
            &q1,
            &q1,
            &mut vf,
            rbqa_chase::ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn accessible_closure_uses_derived_axioms() {
        let (sig, prof, udir, referential) = university();
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], false),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        let mut vf = ValueFactory::new();
        let id = vf.constant("12345");
        let name = vf.constant("ada");
        let salary = vf.constant("10000");
        let mut inst = Instance::new(sig.clone());
        inst.insert(prof, vec![id, name, salary]).unwrap();
        // The input-free method on Udirectory yields nothing here (no
        // Udirectory fact), but the Prof method keyed on id makes name and
        // salary accessible once the id is.
        let closure = lin.accessible_closure(&inst, &FxHashSet::from_iter([id]));
        assert!(closure.contains(&name));
        assert!(closure.contains(&salary));
        // Even with an empty seed, the derived axioms know that a Prof id is
        // accessible: the referential constraint puts it into Udirectory,
        // which the input-free unbounded ud method returns in full.
        let empty_seed = lin.accessible_closure(&inst, &FxHashSet::default());
        assert!(empty_seed.contains(&id));
        assert!(empty_seed.contains(&name));
    }

    #[test]
    fn initial_instance_annotates_accessible_positions() {
        let (sig, prof, udir, referential) = university();
        let methods = vec![
            MethodSignature::new(prof, &[0], false),
            MethodSignature::new(udir, &[], true),
        ];
        let lin = LinearizedSchema::build(&sig, &[referential], &methods, 1);
        let mut vf = ValueFactory::new();
        let id = vf.constant("12345");
        let name = vf.constant("ada");
        let salary = vf.constant("10000");
        let mut inst = Instance::new(sig.clone());
        inst.insert(prof, vec![id, name, salary]).unwrap();
        let start = lin.initial_instance(&inst, &FxHashSet::from_iter([id]));
        // With the id accessible and the pr method, every value of the Prof
        // fact is accessible: the fully-annotated and primed facts appear.
        let all_prof = lin.primed_relation(prof).unwrap();
        assert_eq!(start.relation_len(all_prof), 1);
        let acc0 = lin.rp_relation(prof, &BTreeSet::from([0])).unwrap();
        assert_eq!(start.relation_len(acc0), 1);
        // The empty annotation is always present.
        let acc_empty = lin.rp_relation(prof, &BTreeSet::new()).unwrap();
        assert_eq!(start.relation_len(acc_empty), 1);
    }
}
