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
use rbqa_logic::{Atom, ConjunctiveQuery, Term, Tgd, VarId, VarPool};
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::bounds::completeness_depth_for;
use crate::problem::ContainmentOutcome;
use crate::saturation::{mask_positions, saturate_transfers, MethodSignature, Transfers};

/// The linearized signature, rules and derived axioms for one schema.
///
/// Position sets are packed into `u32` bitmasks throughout (arities are at
/// most [`rbqa_common::MAX_ARITY`]), rules share their variable pools, and
/// the relations and variables are named once each, so the build allocates
/// per relation and per rule, not per position set looked up.
#[derive(Debug, Clone)]
pub struct LinearizedSchema {
    /// The original signature `S`.
    pub base_signature: Signature,
    /// The expanded signature: `S` plus the `R_P` relations and the primed
    /// relations `R'`.
    pub lin_signature: Signature,
    /// The ID width bound `w` used for the construction.
    pub width: usize,
    /// The linear rules `Σ^Lin` (Lift, Transfer, Result-bounded Fact
    /// Transfer) together with the primed copies of the original IDs.
    pub rules: ConstraintSet,
    /// The derived truncated accessibility axioms of breadth at most `w`,
    /// packed per premise set (see [`crate::saturation`]).
    transfers: Transfers,
    /// `(R, P)` → `R_P`, with `P` as a position mask.
    rp: FxHashMap<(RelationId, u32), RelationId>,
    /// Per base relation index: the primed copy `R'`.
    primed: Vec<RelationId>,
}

/// The mask of a position set.
fn mask_of(positions: &BTreeSet<usize>) -> u32 {
    positions.iter().fold(0, |mask, &p| mask | (1 << p))
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
        let transfers = saturate_transfers(sig, ids, methods, width);

        // Expanded signature: per relation, its annotated relations in the
        // premise-set order of the saturation, then its primed copy.
        let mut name = String::new();
        let mut lin_signature = sig.clone();
        let mut rp: FxHashMap<(RelationId, u32), RelationId> = FxHashMap::default();
        let mut primed: Vec<RelationId> = Vec::with_capacity(sig.len());
        for (rid, rel) in sig.iter() {
            for &(premises, _) in &transfers.per_relation[rid.index()] {
                name.clear();
                let _ = write!(name, "{}__acc_", rel.name());
                for (k, p) in mask_positions(premises).enumerate() {
                    let _ = write!(name, "{}{p}", if k == 0 { "" } else { "_" });
                }
                let new_rel = lin_signature
                    .add_relation(&name, rel.arity())
                    .expect("fresh relation name");
                rp.insert((rid, premises), new_rel);
            }
            name.clear();
            let _ = write!(name, "{}__prime", rel.name());
            primed.push(
                lin_signature
                    .add_relation(&name, rel.arity())
                    .expect("fresh relation name"),
            );
        }

        let mut rules = ConstraintSet::new();

        // Primed copies of the original IDs.
        for id in ids {
            rules.push_tgd(id.map_relations(|r| primed.get(r.index()).copied().unwrap_or(r)));
        }

        // (Transfer) and (Result-bounded Fact Transfer). The rules of one
        // relation differ only in their body relation, so each shape (its
        // variable pool and terms) is built once per relation or method.
        let input_mask = |m: &MethodSignature| mask_of(&m.input_positions);
        for (rid, rel) in sig.iter() {
            let arity = rel.arity();
            let on_rel: Vec<&MethodSignature> =
                methods.iter().filter(|m| m.relation == rid).collect();
            if on_rel.is_empty() {
                continue;
            }
            let x_pool = VarPool::numbered("x", arity);
            let x_terms: Vec<Term> = (0..arity)
                .map(|i| Term::Var(VarId::from_index(i)))
                .collect();
            // Per result-bounded method: `R_P(x, y) → ∃z R'(x, z)`, whose
            // pool adds `zi` for every non-input position `i`.
            let bounded: Vec<(VarPool, Vec<Term>)> = on_rel
                .iter()
                .filter(|m| m.result_bounded)
                .map(|m| {
                    let mut pool = x_pool.clone();
                    let head = (0..arity)
                        .map(|i| {
                            if m.input_positions.contains(&i) {
                                x_terms[i]
                            } else {
                                name.clear();
                                let _ = write!(name, "z{i}");
                                Term::Var(pool.var(&name))
                            }
                        })
                        .collect();
                    (pool, head)
                })
                .collect();
            let rule = |pool: &VarPool, body_rel: RelationId, head: &[Term]| {
                Tgd::new(
                    pool.clone(),
                    vec![Atom::new(body_rel, x_terms.clone())],
                    vec![Atom::new(primed[rid.index()], head.to_vec())],
                )
            };
            for &(premises, transferred) in &transfers.per_relation[rid.index()] {
                let rp_rel = rp[&(rid, premises)];
                // (Transfer): some non-result-bounded method's inputs are
                // covered by the transferred positions.
                let has_full_access = on_rel
                    .iter()
                    .any(|m| !m.result_bounded && input_mask(m) & !transferred == 0);
                if has_full_access {
                    rules.push_tgd(rule(&x_pool, rp_rel, &x_terms));
                }
                // (Result-bounded Fact Transfer): for each result-bounded
                // method on R, R_P(x, y) → ∃z R'(x, z).
                for (pool, head) in &bounded {
                    rules.push_tgd(rule(pool, rp_rel, head));
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
            for &(premises, transferred) in &transfers.per_relation[body_rel.index()] {
                let body_rp = rp[&(body_rel, premises)];
                // Exported body positions whose accessibility transfers.
                let head_premises = map
                    .iter()
                    .filter(|&&(b, _)| transferred & (1 << b) != 0)
                    .fold(0u32, |mask, &(_, h)| mask | (1 << h));
                let head_rp = rp[&(head_rel, head_premises)];
                // The head relation is mapped last: an ID from R into R
                // reads and writes R's head annotation.
                rules.push_tgd(id.map_relations(|r| {
                    if r == head_rel {
                        head_rp
                    } else if r == body_rel {
                        body_rp
                    } else {
                        r
                    }
                }));
            }
        }

        LinearizedSchema {
            base_signature: sig.clone(),
            lin_signature,
            width,
            rules,
            transfers,
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
        if positions.iter().any(|&p| p >= 32) {
            return None;
        }
        self.rp.get(&(relation, mask_of(positions))).copied()
    }

    /// The primed copy `R'` of a base relation.
    pub fn primed_relation(&self, relation: RelationId) -> Option<RelationId> {
        self.primed.get(relation.index()).copied()
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
        loop {
            let mut changed = false;
            for (rid, _) in self.base_signature.iter() {
                let sets = &self.transfers.per_relation[rid.index()];
                for tuple in instance.tuples(rid) {
                    for &(premises, transferred) in sets {
                        if mask_positions(premises).all(|p| accessible.contains(&tuple[p])) {
                            for j in mask_positions(transferred) {
                                changed |= accessible.insert(tuple[j]);
                            }
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
            let sets = &self.transfers.per_relation[rid.index()];
            for tuple in base.tuples(rid) {
                // Keep the original fact (harmless; the rules only read the
                // annotated and primed relations).
                out.insert_slice(rid, tuple).expect("same arity");
                let acc_positions = (0..arity)
                    .filter(|&i| accessible.contains(&tuple[i]))
                    .fold(0u32, |mask, i| mask | (1 << i));
                for &(premises, _) in sets {
                    if premises & !acc_positions == 0 {
                        let rp_rel = self.rp[&(rid, premises)];
                        out.insert_slice(rp_rel, tuple).expect("same arity");
                    }
                }
                if acc_positions.count_ones() as usize == arity {
                    out.insert_slice(self.primed[rid.index()], tuple)
                        .expect("same arity");
                }
            }
        }
        out
    }

    /// The chase depth at which [`LinearizedSchema::decide`] certifies a
    /// missing match of `rhs`: the semi-width completeness bound of the
    /// linearized rules for the primed copy of `rhs`.
    pub fn completeness_depth(&self, rhs: &ConjunctiveQuery) -> usize {
        completeness_depth_for(
            self.rules.tgds(),
            rhs.size(),
            self.lin_signature.max_arity(),
        )
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
        let bound = self.completeness_depth(rhs);
        let depth = bound.min(config.budget.max_depth);
        let config = rbqa_chase::ChaseConfig {
            budget: config.budget.with_max_depth(depth),
            ..config
        };
        // The start instance exists only for this chase, which takes it
        // over instead of copying it.
        crate::generic::decide_any(
            Cow::Owned(start),
            &[(&rhs_primed, &rhs_seed)],
            &self.rules,
            values,
            config,
            Some(bound),
            None,
        )
        .0
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
