//! Plans from proofs: the monotone plan a chase proof of the AMonDet
//! containment describes.
//!
//! Monotone answerability reduces to the AMonDet containment `Q ⊆_Γ Q'`
//! (Section 3), which holds when the chase of `CanonDB(Q)` under `Γ`
//! derives a match of the primed query `Q'`. In the line of work the paper
//! builds on (Benedikt, Leblay, ten Cate and Tsamoura, *Generating Plans
//! from Proofs*, 2016), such a proof is itself a plan: one access per
//! accessibility-axiom firing, bound to values that query constants or
//! earlier accesses made accessible. `extract_plan` reads that plan off a
//! [`ContainmentProof`]:
//!
//! 1. **Support.** Walk back from the primed facts of the match through the
//!    firings of `Σ'` and of the rule
//!    `R_Accessed(w) → R(w) ∧ R'(w) ∧ accessible(w)`. The `R_Accessed`
//!    facts reached are the *support*: `Σ'` derives the match from their
//!    primed copies.
//! 2. **Accesses.** Each support fact was derived by the accessibility
//!    axiom of some method `mt`: that is an access to `mt`. The value at
//!    each input position of `mt` is accessible, and its *source* is the
//!    first derivation of its `accessible` fact: a seeded constant becomes
//!    a constant table, position `j` of an earlier `R_Accessed` fact
//!    becomes the projection onto column `j` of that fact's access table
//!    (extracted first, recursively). Several inputs take the product of
//!    their sources. There is one access command per (method, input
//!    sources), and it keeps every position of the relation.
//! 3. **Answer.** The support facts, read as a CQ over their access tables
//!    — nulls (the canonical database freezes variables as nulls) become
//!    variables, constants stay constants — with the values frozen for
//!    `Q`'s free variables as output columns, in free-variable order.
//!
//! Simplifications map back to the original methods. A choice-simplified
//! (bound 1) or existence-check firing calls the original result-bounded
//! method, and the plan keeps every tuple the call returns. The view method
//! `{mt}__check` of the FD simplification is an access to `mt` that keeps
//! the view's positions (`MethodOrigin`).
//!
//! **Why the plans are right.** Let `S` be the support and `Q_S` the CQ of
//! step 3.
//! * *Sound.* `Σ'` derives `Q'` from the primed copies of `S`, so
//!   `Q_S ⊆_Σ Q` with the same output values. Every row the plan joins is
//!   a fact an access returned, so on any instance that satisfies `Σ`
//!   every returned tuple is an answer of `Q`. (A view access returns the
//!   view's projection of real facts, which satisfies the simplified
//!   schema's constraints.)
//! * *Complete.* Let `t` be an answer of `Q` on an instance `I` that
//!   satisfies `Σ`, witnessed by a homomorphism `h` from `CanonDB(Q)` into
//!   `I`. Extend `h` along the proof, in firing order. A `Σ` firing extends
//!   because `I` satisfies `Σ`. The axiom firing of a made access maps its
//!   fresh nulls to a tuple that access returned for the `h`-image of its
//!   binding: `h` maps the axiom's body fact into `I`, and a method returns
//!   at least one matching tuple whenever one exists (and, under FDs, every
//!   such tuple agrees on the determined positions a view or the
//!   separability rewriting keeps). Other firings map like their body. By
//!   induction every accessible value's image lies in its source table, so
//!   every access receives the image of its binding, every support fact
//!   lands in its access table, and `Q_S` returns `t`.
//!
//! The crawl of [`crate::plan_synthesis`] stays as the fallback, counted as
//! a [`Fallback`], when the chase merged values (an FD unification rewrites
//! rows the proof log points to) or found no proof within its budget.

use rbqa_access::{Command, Plan, RaExpr, Schema};
use rbqa_chase::trigger::assignment_get;
use rbqa_chase::Firing;
use rbqa_common::{RelationId, Value};
use rbqa_containment::generic::ContainmentProof;
use rbqa_containment::ContainmentOutcome;
use rbqa_logic::{Atom, ConjunctiveQuery, Term, VarId, VarPool};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::amondet::AmondetProblem;
use crate::plan_synthesis::query_to_ra;
use crate::simplification::MethodOrigin;

/// Why an answerable query's plan is the crawl instead of its proof's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// The chase unified values (`fd_unifications > 0`), which rewrites the
    /// rows the proof log points to.
    FdMerge,
    /// No proof was found within the budget.
    NoProof,
}

/// Where a synthesised plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Extracted from the chase proof of the AMonDet containment.
    Proof,
    /// The proof was unusable; for a single CQ the plan is the crawl, and
    /// a rescued union disjunct gets no plan.
    Fallback(Fallback),
}

/// Where an input value of an access comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Source {
    /// A seeded constant.
    Constant(Value),
    /// Column `1` of the table of access `0`.
    Column(usize, usize),
}

/// The extraction state of one proof.
struct Extraction<'a> {
    problem: &'a AmondetProblem,
    schema: &'a Schema,
    origins: Option<&'a [MethodOrigin]>,
    proof: &'a ContainmentProof,
    /// The access of each `R_Accessed` fact already extracted.
    access_of_fact: FxHashMap<(RelationId, u32), usize>,
    /// The access of each (method index, input sources).
    access_of_key: FxHashMap<(usize, Vec<Source>), usize>,
    /// Facts whose extraction is under way (a cycle means a broken log).
    in_progress: FxHashSet<(RelationId, u32)>,
    /// The access commands, in dependency order.
    commands: Vec<Command>,
}

/// The name of access `index`'s table.
fn table_name(index: usize) -> String {
    format!("proof_{index}")
}

/// Extracts the plan of `proof`, a proof that the chase of `problem`
/// matched `target` (the primed query, or the matched union target).
/// `schema` is the schema `problem` was built from; `origins` maps its
/// methods to the original schema's (`None` when they are the original
/// ones).
pub(crate) fn extract_plan(
    problem: &AmondetProblem,
    schema: &Schema,
    origins: Option<&[MethodOrigin]>,
    target: &ConjunctiveQuery,
    proof: &ContainmentProof,
    outcome: &ContainmentOutcome,
) -> Result<Plan, Fallback> {
    if outcome.chase_stats.fd_unifications > 0 {
        return Err(Fallback::FdMerge);
    }
    let mut extraction = Extraction {
        problem,
        schema,
        origins,
        proof,
        access_of_fact: FxHashMap::default(),
        access_of_key: FxHashMap::default(),
        in_progress: FxHashSet::default(),
        commands: Vec::new(),
    };
    let support = extraction.support(target)?;

    // The support as a CQ over the access tables.
    let mut vars = VarPool::new();
    let mut var_of: FxHashMap<Value, VarId> = FxHashMap::default();
    let mut atoms = Vec::with_capacity(support.len());
    let mut tables = Vec::with_capacity(support.len());
    for &fact in &support {
        let access = extraction.access(fact)?;
        tables.push(table_name(access));
        let args = proof
            .instance
            .row(fact.0, fact.1)
            .iter()
            .map(|&v| match v.is_const() {
                true => Term::Const(v),
                false => Term::Var(*var_of.entry(v).or_insert_with(|| vars.fresh("v"))),
            })
            .collect();
        let base = problem.base_of_accessed(fact.0).ok_or(Fallback::NoProof)?;
        atoms.push(Atom::new(base, args));
    }
    let free = problem
        .answer_values
        .iter()
        .map(|v| var_of.get(v).copied().ok_or(Fallback::NoProof))
        .collect::<Result<Vec<_>, _>>()?;
    let answer = query_to_ra(&ConjunctiveQuery::new(vars, free, atoms), &tables);

    let mut commands = extraction.commands;
    commands.push(Command::Middleware {
        output: "answers".to_owned(),
        expr: answer,
    });
    Ok(Plan::new(commands, "answers".to_owned()))
}

impl Extraction<'_> {
    /// The row of a fact of the chased instance.
    fn row(&self, relation: RelationId, tuple: &[Value]) -> Result<(RelationId, u32), Fallback> {
        self.proof
            .instance
            .row_id(relation, tuple)
            .map(|row| (relation, row))
            .ok_or(Fallback::NoProof)
    }

    /// The body facts `firing` used, in body order.
    fn body_facts(&self, firing: Firing<'_>) -> Result<Vec<(RelationId, u32)>, Fallback> {
        self.problem.constraints.tgds()[firing.tgd_index]
            .body()
            .iter()
            .map(|atom| {
                let tuple = atom
                    .instantiate_with(|v| assignment_get(firing.assignment, v))
                    .ok_or(Fallback::NoProof)?;
                self.row(atom.relation(), &tuple)
            })
            .collect()
    }

    /// The support of the match of `target`, in (relation, row) order.
    fn support(&self, target: &ConjunctiveQuery) -> Result<Vec<(RelationId, u32)>, Fallback> {
        let mut stack = Vec::with_capacity(target.atoms().len());
        for atom in target.atoms() {
            let tuple = atom
                .instantiate(&self.proof.homomorphism)
                .ok_or(Fallback::NoProof)?;
            stack.push(self.row(atom.relation(), &tuple)?);
        }
        let mut seen: FxHashSet<(RelationId, u32)> = FxHashSet::default();
        let mut support = Vec::new();
        while let Some(fact) = stack.pop() {
            if !seen.insert(fact) {
                continue;
            }
            if self.problem.base_of_accessed(fact.0).is_some() {
                support.push(fact);
                continue;
            }
            // A primed fact: derived by Σ' from primed facts, or by the
            // propagation rule from its `R_Accessed` fact.
            let firing = self
                .proof
                .log
                .creator(fact.0, fact.1)
                .ok_or(Fallback::NoProof)?;
            stack.extend(self.body_facts(firing)?);
        }
        support.sort_unstable();
        Ok(support)
    }

    /// The access whose table holds the `R_Accessed` fact `fact`,
    /// extracting it (and the accesses its inputs come from) on first use.
    fn access(&mut self, fact: (RelationId, u32)) -> Result<usize, Fallback> {
        if let Some(&access) = self.access_of_fact.get(&fact) {
            return Ok(access);
        }
        if !self.in_progress.insert(fact) {
            return Err(Fallback::NoProof);
        }
        let proof = self.proof;
        let firing = proof.log.creator(fact.0, fact.1).ok_or(Fallback::NoProof)?;
        let method_index = self
            .problem
            .axiom_method(firing.tgd_index)
            .ok_or(Fallback::NoProof)?;
        let method = &self.schema.methods()[method_index];
        let tuple = proof.instance.row(fact.0, fact.1);
        let sources = method
            .input_positions_vec()
            .into_iter()
            .map(|p| self.source(tuple[p]))
            .collect::<Result<Vec<_>, _>>()?;
        let key = (method_index, sources);
        let access = match self.access_of_key.get(&key) {
            Some(&access) => access,
            None => {
                let access = self.commands.len();
                self.commands.push(self.command(access, &key.0, &key.1));
                self.access_of_key.insert(key, access);
                access
            }
        };
        self.in_progress.remove(&fact);
        self.access_of_fact.insert(fact, access);
        Ok(access)
    }

    /// The access command number `index`: `method_index` called on the
    /// product of `sources`.
    fn command(&self, index: usize, &method_index: &usize, sources: &[Source]) -> Command {
        let method = &self.schema.methods()[method_index];
        let (name, output_map) = match self.origins {
            Some(origins) => (
                origins[method_index].method.clone(),
                origins[method_index].output_map.clone(),
            ),
            None => (
                method.name().to_owned(),
                (0..self.schema.signature().arity(method.relation())).collect(),
            ),
        };
        let input = sources
            .iter()
            .map(|source| match *source {
                Source::Constant(c) => RaExpr::singleton(vec![c]),
                Source::Column(access, column) => {
                    RaExpr::project(RaExpr::table(&table_name(access)), vec![column])
                }
            })
            .reduce(|product, next| RaExpr::join(product, next, Vec::new()))
            .unwrap_or_else(RaExpr::unit);
        Command::Access {
            output: table_name(index),
            method: name,
            input,
            input_map: (0..sources.len()).collect(),
            output_map,
        }
    }

    /// The source of the accessible value `value`: the first derivation of
    /// its `accessible` fact.
    fn source(&mut self, value: Value) -> Result<Source, Fallback> {
        let proof = self.proof;
        let accessible = self.row(self.problem.accessible, &[value])?;
        let Some(firing) = proof.log.creator(accessible.0, accessible.1) else {
            // A start fact: the constants seeded as accessible.
            return Ok(Source::Constant(value));
        };
        // Only the propagation rule derives `accessible`; its one body
        // atom is the `R_Accessed` fact the value came from.
        let [from] = self.body_facts(firing)?[..] else {
            return Err(Fallback::NoProof);
        };
        if self.problem.base_of_accessed(from.0).is_none() {
            return Err(Fallback::NoProof);
        }
        let column = proof
            .instance
            .row(from.0, from.1)
            .iter()
            .position(|&v| v == value)
            .ok_or(Fallback::NoProof)?;
        Ok(Source::Column(self.access(from)?, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amondet::AxiomStyle;
    use rbqa_access::{AccessMethod, TruncatingSelection};
    use rbqa_chase::{Budget, ChaseConfig};
    use rbqa_common::{Instance, Signature, ValueFactory};
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::parse_cq;

    /// The proof plan of `query` over `schema` with the plain simplified
    /// axioms, and the methods its access commands call, in order.
    fn proof_plan(
        schema: &Schema,
        query: &ConjunctiveQuery,
        vf: &mut ValueFactory,
    ) -> (Plan, Vec<String>) {
        let problem = AmondetProblem::build(schema, query, vf, AxiomStyle::Simplified);
        let config = ChaseConfig::with_budget(Budget::generous());
        let (outcome, proof) = problem.decide_with_proof(vf, config);
        let proof = proof.expect("the containment holds");
        let plan = extract_plan(&problem, schema, None, &problem.rhs, &proof, &outcome).unwrap();
        plan.validate(schema).unwrap();
        let methods = plan
            .commands()
            .iter()
            .filter_map(|c| match c {
                Command::Access { method, .. } => Some(method.clone()),
                Command::Middleware { .. } => None,
            })
            .collect();
        (plan, methods)
    }

    /// Movie(id, title, year), Cast(movie, actor), Actor(id, name) with the
    /// Cast → Movie and Cast → Actor IDs, a bounded title search and
    /// unbounded by-id lookups.
    fn movies() -> (Schema, ValueFactory) {
        let mut sig = Signature::new();
        let movie = sig.add_relation("Movie", 3).unwrap();
        let cast = sig.add_relation("Cast", 2).unwrap();
        let actor = sig.add_relation("Actor", 2).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, cast, &[0], movie, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, cast, &[1], actor, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        for method in [
            AccessMethod::bounded("movie_search", movie, &[], 10),
            AccessMethod::unbounded("movie_by_id", movie, &[0]),
            AccessMethod::unbounded("cast_by_movie", cast, &[0]),
            AccessMethod::unbounded("actor_by_id", actor, &[0]),
        ] {
            schema.add_method(method).unwrap();
        }
        (schema, ValueFactory::new())
    }

    #[test]
    fn cast_of_a_known_movie_makes_the_proofs_two_accesses() {
        let (schema, mut vf) = movies();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q(n) :- Cast('m1', c), Actor(c, n)", &mut sig, &mut vf).unwrap();
        let (plan, methods) = proof_plan(&schema, &q, &mut vf);
        assert_eq!(methods, ["cast_by_movie", "actor_by_id"]);

        let rel = |name: &str| schema.signature().require(name).unwrap();
        let mut world = Instance::new(schema.signature().clone());
        let v = |vf: &mut ValueFactory, s: &str| vf.constant(s);
        for (m, a) in [("m1", "a1"), ("m1", "a2"), ("m2", "a3")] {
            let (m, a) = (v(&mut vf, m), v(&mut vf, a));
            world.insert(rel("Cast"), vec![m, a]).unwrap();
        }
        for a in ["a1", "a2", "a3"] {
            let (id, name) = (v(&mut vf, a), v(&mut vf, &format!("{a}-name")));
            world.insert(rel("Actor"), vec![id, name]).unwrap();
        }
        let mut selection = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &world, &mut selection).unwrap();
        let expected = rbqa_logic::evaluate(&q, &world).unwrap();
        assert_eq!(run.output, expected);
        assert_eq!(run.output.len(), 2);
        // One cast lookup, then one actor lookup per cast entry.
        assert_eq!(run.accesses_performed, 3);
    }

    #[test]
    fn a_bounded_input_free_method_feeds_a_keyed_lookup() {
        // Example 1.2's shape with a bounded listing: the existence check
        // calls the listing once and keeps what it returns.
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        schema
            .add_method(AccessMethod::bounded("ud", udir, &[], 5))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let (_, methods) = proof_plan(&schema, &q, &mut vf);
        assert_eq!(methods, ["ud"]);
    }
}
