//! Conjunctive queries and their canonical databases.
//!
//! A conjunctive query (CQ) is `∃ x1 ... xk (A1 ∧ ... ∧ Am)` possibly with
//! free variables (the answer variables). A CQ is *Boolean* when it has no
//! free variables. The *canonical database* of a CQ freezes its variables
//! into labelled nulls, yielding an instance used as the starting point of
//! chase proofs (paper, Section 2, "Query containment and chase proofs").

use rbqa_common::{Instance, Signature, Value, ValueFactory};
use rustc_hash::FxHashMap;

use crate::atom::Atom;
use crate::term::{Term, VarId, VarPool};

/// A conjunctive query.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    vars: VarPool,
    free: Vec<VarId>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates a query from its parts. Prefer [`CqBuilder`] for construction.
    pub fn new(vars: VarPool, free: Vec<VarId>, atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery { vars, free, atoms }
    }

    /// The variable pool (names) of this query.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// The free (answer) variables, in declaration order.
    pub fn free_vars(&self) -> &[VarId] {
        &self.free
    }

    /// The atoms of the query body.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Whether the query is Boolean (no free variables).
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// Number of atoms.
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// All distinct variables occurring in the query body, in order of first
    /// occurrence.
    pub fn all_variables(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// All distinct constants occurring in the query body.
    pub fn constants(&self) -> Vec<Value> {
        let mut seen = Vec::new();
        for atom in &self.atoms {
            for term in atom.args() {
                if let Term::Const(c) = term {
                    if !seen.contains(c) {
                        seen.push(*c);
                    }
                }
            }
        }
        seen
    }

    /// Returns the Boolean version of this query (all free variables become
    /// existentially quantified).
    pub fn boolean_closure(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            vars: self.vars.clone(),
            free: Vec::new(),
            atoms: self.atoms.clone(),
        }
    }

    /// Builds the canonical database of the query: one fact per atom, with
    /// each variable frozen into a fresh labelled null and constants kept.
    ///
    /// The returned [`CanonicalDatabase`] records the variable-to-value map
    /// so that callers can later read back answers or seed accessibility
    /// facts for the query constants.
    pub fn canonical_database(
        &self,
        signature: &Signature,
        values: &mut ValueFactory,
    ) -> CanonicalDatabase {
        let mut assignment: FxHashMap<VarId, Value> = FxHashMap::default();
        for v in self.all_variables() {
            assignment.entry(v).or_insert_with(|| values.fresh_null());
        }
        let mut instance = Instance::new(signature.clone());
        for atom in &self.atoms {
            let tuple = atom
                .instantiate(&assignment)
                .expect("every variable was assigned");
            instance
                .insert(atom.relation(), tuple)
                .expect("query atoms must respect the signature arity");
        }
        CanonicalDatabase {
            instance,
            assignment,
        }
    }

    /// Renders the query in a Datalog-like concrete syntax.
    pub fn display(&self, sig: &Signature) -> String {
        let head_args: Vec<String> = self
            .free
            .iter()
            .map(|v| self.vars.name(*v).to_owned())
            .collect();
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|a| a.display(sig, |v| self.vars.name(v).to_owned()))
            .collect();
        format!("Q({}) :- {}", head_args.join(", "), body.join(", "))
    }
}

/// The canonical database of a CQ, together with the freezing assignment.
#[derive(Debug, Clone)]
pub struct CanonicalDatabase {
    /// The instance containing one fact per query atom.
    pub instance: Instance,
    /// The value assigned to each query variable.
    pub assignment: FxHashMap<VarId, Value>,
}

/// Fluent builder for [`ConjunctiveQuery`].
///
/// ```
/// use rbqa_common::Signature;
/// use rbqa_logic::CqBuilder;
/// let mut sig = Signature::new();
/// let prof = sig.add_relation("Prof", 3).unwrap();
/// let mut b = CqBuilder::new();
/// let (i, n) = (b.var("i"), b.var("n"));
/// let s = b.constant_value();
/// // Q1(n) :- Prof(i, n, '10000')
/// let q = b
///     .free(n)
///     .atom(prof, vec![i.into(), n.into(), s])
///     .build();
/// assert_eq!(q.size(), 1);
/// assert!(!q.is_boolean());
/// ```
#[derive(Debug, Default)]
pub struct CqBuilder {
    vars: VarPool,
    free: Vec<VarId>,
    atoms: Vec<Atom>,
    values: ValueFactory,
}

impl CqBuilder {
    /// Creates an empty builder with its own [`ValueFactory`]. Use
    /// [`CqBuilder::with_values`] to share a factory with other components.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that uses (a clone of) the provided value factory
    /// for constants. Prefer passing constants explicitly via
    /// [`Term::Const`] when a factory is shared across the whole task.
    pub fn with_values(values: ValueFactory) -> Self {
        CqBuilder {
            values,
            ..Self::default()
        }
    }

    /// Returns (creating if needed) the variable named `name`.
    pub fn var(&mut self, name: &str) -> VarId {
        self.vars.var(name)
    }

    /// Interns a constant by name and returns it as a [`Term`].
    pub fn constant(&mut self, name: &str) -> Term {
        Term::Const(self.values.constant(name))
    }

    /// Helper for doctests: an arbitrary distinct constant term.
    pub fn constant_value(&mut self) -> Term {
        let k = self.values.constant_count();
        self.constant(&format!("const_{k}"))
    }

    /// Declares a free (answer) variable.
    pub fn free(&mut self, var: VarId) -> &mut Self {
        if !self.free.contains(&var) {
            self.free.push(var);
        }
        self
    }

    /// Adds a body atom.
    pub fn atom(&mut self, relation: rbqa_common::RelationId, args: Vec<Term>) -> &mut Self {
        self.atoms.push(Atom::new(relation, args));
        self
    }

    /// Finalises the query.
    pub fn build(&mut self) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            std::mem::take(&mut self.vars),
            std::mem::take(&mut self.free),
            std::mem::take(&mut self.atoms),
        )
    }

    /// Consumes the builder, returning the query and the value factory used
    /// for its constants.
    pub fn build_with_values(mut self) -> (ConjunctiveQuery, ValueFactory) {
        let q = self.build();
        (q, self.values)
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Term {
        Term::Var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_signature() -> (Signature, rbqa_common::RelationId, rbqa_common::RelationId) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        (sig, prof, udir)
    }

    #[test]
    fn builder_constructs_query() {
        let (_sig, prof, _) = example_signature();
        let mut b = CqBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let salary = b.constant("10000");
        let q = b
            .free(n)
            .atom(prof, vec![i.into(), n.into(), salary])
            .build();
        assert_eq!(q.size(), 1);
        assert_eq!(q.free_vars(), &[n]);
        assert!(!q.is_boolean());
        assert_eq!(q.all_variables().len(), 2);
        assert_eq!(q.constants().len(), 1);
    }

    #[test]
    fn boolean_closure_removes_free_vars() {
        let (_sig, prof, _) = example_signature();
        let mut b = CqBuilder::new();
        let i = b.var("i");
        let q = b
            .free(i)
            .atom(prof, vec![i.into(), i.into(), i.into()])
            .build();
        let bq = q.boolean_closure();
        assert!(bq.is_boolean());
        assert_eq!(bq.size(), q.size());
    }

    #[test]
    fn canonical_database_freezes_variables() {
        let (sig, prof, udir) = example_signature();
        let mut b = CqBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let a = b.var("a");
        let p = b.var("p");
        let (q, mut values) = {
            b.atom(prof, vec![i.into(), n.into(), n.into()])
                .atom(udir, vec![i.into(), a.into(), p.into()]);
            b.build_with_values()
        };
        let canon = q.canonical_database(&sig, &mut values);
        assert_eq!(canon.instance.len(), 2);
        // Each distinct variable became a distinct null.
        assert_eq!(canon.assignment.len(), 4);
        let mut nulls: Vec<_> = canon.assignment.values().collect();
        nulls.sort();
        nulls.dedup();
        assert_eq!(nulls.len(), 4);
        // The shared variable i links the two facts.
        let prof_fact = canon.instance.tuples(prof).next().unwrap().to_vec();
        let udir_fact = canon.instance.tuples(udir).next().unwrap().to_vec();
        assert_eq!(prof_fact[0], udir_fact[0]);
    }

    #[test]
    fn canonical_database_keeps_constants() {
        let (sig, prof, _) = example_signature();
        let mut b = CqBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let salary = b.constant("10000");
        let (q, mut values) = {
            b.atom(prof, vec![i.into(), n.into(), salary]);
            b.build_with_values()
        };
        let canon = q.canonical_database(&sig, &mut values);
        let fact = canon.instance.tuples(prof).next().unwrap();
        assert!(fact[2].is_const());
        assert!(fact[0].is_null());
    }

    #[test]
    fn display_round_trips_names() {
        let (sig, prof, _) = example_signature();
        let mut b = CqBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let q = b
            .free(n)
            .atom(prof, vec![i.into(), n.into(), n.into()])
            .build();
        let s = q.display(&sig);
        assert!(s.contains("Q(n)"));
        assert!(s.contains("Prof(i, n, n)"));
    }

    #[test]
    fn free_is_idempotent() {
        let (_sig, prof, _) = example_signature();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let q = b
            .free(x)
            .free(x)
            .atom(prof, vec![x.into(), x.into(), x.into()])
            .build();
        assert_eq!(q.free_vars().len(), 1);
    }
}
