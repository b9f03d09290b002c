//! Tuple-generating dependencies (TGDs) and their syntactic classes.
//!
//! A TGD is a sentence `∀x (φ(x) → ∃y ψ(x, y))` where `φ` (the *body*) and
//! `ψ` (the *head*) are conjunctions of relational atoms. The *exported*
//! (frontier) variables are the body variables that also occur in the head.
//! The paper's constraint classes are all syntactic restrictions of TGDs:
//!
//! * **full** TGD — no existentially quantified head variable;
//! * **guarded** TGD (GTGD) — some body atom contains every body variable;
//! * **frontier-guarded** TGD (FGTGD) — some body atom contains every
//!   exported variable;
//! * **inclusion dependency** (ID) — single body atom and single head atom,
//!   each without repeated variables;
//! * **unary inclusion dependency** (UID) — an ID of width 1, i.e. a single
//!   exported variable;
//! * **linear** TGD — single body atom (repetitions allowed).

use rbqa_common::{RelationId, Signature};
use rustc_hash::FxHashSet;

use crate::atom::Atom;
use crate::term::{Term, VarId, VarPool};

/// A tuple-generating dependency.
#[derive(Debug, Clone)]
pub struct Tgd {
    vars: VarPool,
    body: Vec<Atom>,
    head: Vec<Atom>,
}

impl Tgd {
    /// Creates a TGD from its parts. Prefer [`TgdBuilder`].
    pub fn new(vars: VarPool, body: Vec<Atom>, head: Vec<Atom>) -> Self {
        Tgd { vars, body, head }
    }

    /// The variable pool of this dependency.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// The body atoms.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// The head atoms.
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// Distinct variables of the body, in order of first occurrence.
    pub fn body_variables(&self) -> Vec<VarId> {
        distinct_vars(&self.body)
    }

    /// Distinct variables of the head, in order of first occurrence.
    pub fn head_variables(&self) -> Vec<VarId> {
        distinct_vars(&self.head)
    }

    /// The exported (frontier) variables: body variables occurring in the
    /// head, in order of first occurrence in the body.
    pub fn exported_variables(&self) -> Vec<VarId> {
        let mut exported = Vec::new();
        for term in self.body.iter().flat_map(|a| a.args()) {
            if let Term::Var(v) = term {
                if !exported.contains(v) && self.head.iter().any(|h| h.args().contains(term)) {
                    exported.push(*v);
                }
            }
        }
        exported
    }

    /// The existential variables: head variables not occurring in the body,
    /// in order of first occurrence in the head.
    pub fn existential_variables(&self) -> Vec<VarId> {
        let mut existential = Vec::new();
        for term in self.head.iter().flat_map(|a| a.args()) {
            if let Term::Var(v) = term {
                if !existential.contains(v) && !self.body.iter().any(|b| b.args().contains(term)) {
                    existential.push(*v);
                }
            }
        }
        existential
    }

    /// Whether the TGD is full (no existential head variable).
    pub fn is_full(&self) -> bool {
        self.existential_variables().is_empty()
    }

    /// Whether the TGD is guarded: some body atom contains all body
    /// variables.
    pub fn is_guarded(&self) -> bool {
        let body_vars: FxHashSet<VarId> = self.body_variables().into_iter().collect();
        self.body.iter().any(|a| {
            let atom_vars: FxHashSet<VarId> = a.variables().into_iter().collect();
            body_vars.is_subset(&atom_vars)
        })
    }

    /// Whether the TGD is frontier-guarded: some body atom contains all
    /// exported variables.
    pub fn is_frontier_guarded(&self) -> bool {
        let frontier: FxHashSet<VarId> = self.exported_variables().into_iter().collect();
        self.body.iter().any(|a| {
            let atom_vars: FxHashSet<VarId> = a.variables().into_iter().collect();
            frontier.is_subset(&atom_vars)
        })
    }

    /// Whether the TGD is linear (single body atom).
    pub fn is_linear(&self) -> bool {
        self.body.len() == 1
    }

    /// Whether the TGD is an inclusion dependency: single body atom and
    /// single head atom, both without repeated variables or constants.
    pub fn is_id(&self) -> bool {
        self.body.len() == 1
            && self.head.len() == 1
            && !self.body[0].has_repeated_variable()
            && !self.head[0].has_repeated_variable()
            && !self.body[0].has_constants()
            && !self.head[0].has_constants()
    }

    /// The width of the dependency: the number of exported variables. For
    /// IDs this is the paper's notion of width.
    pub fn width(&self) -> usize {
        self.exported_variables().len()
    }

    /// Whether the TGD is a unary inclusion dependency (an ID of width 1).
    pub fn is_uid(&self) -> bool {
        self.is_id() && self.width() == 1
    }

    /// For an ID, the pairs `(body position, head position)` at which each
    /// exported variable travels from the body atom to the head atom.
    /// Returns `None` when the TGD is not an ID.
    pub fn id_position_map(&self) -> Option<Vec<(usize, usize)>> {
        if !self.is_id() {
            return None;
        }
        let body = &self.body[0];
        let head = &self.head[0];
        let mut map = Vec::new();
        for v in self.exported_variables() {
            let bpos = body.positions_of(v);
            let hpos = head.positions_of(v);
            debug_assert_eq!(bpos.len(), 1);
            debug_assert_eq!(hpos.len(), 1);
            map.push((bpos[0], hpos[0]));
        }
        Some(map)
    }

    /// The relations mentioned by the dependency (body then head, deduped).
    pub fn relations(&self) -> Vec<RelationId> {
        let mut out = Vec::new();
        for a in self.body.iter().chain(self.head.iter()) {
            if !out.contains(&a.relation()) {
                out.push(a.relation());
            }
        }
        out
    }

    /// The same dependency over renamed relations: every atom's relation
    /// goes through `map`, terms and variable pool stay (the pool is shared,
    /// not copied).
    pub fn map_relations(&self, map: impl Fn(RelationId) -> RelationId) -> Tgd {
        let remap = |atoms: &[Atom]| -> Vec<Atom> {
            atoms
                .iter()
                .map(|a| Atom::new(map(a.relation()), a.args().to_vec()))
                .collect()
        };
        Tgd::new(self.vars.clone(), remap(&self.body), remap(&self.head))
    }

    /// Renders the TGD in the `body -> head` concrete syntax.
    pub fn display(&self, sig: &Signature) -> String {
        let names = |v: VarId| self.vars.name(v).to_owned();
        let body: Vec<String> = self.body.iter().map(|a| a.display(sig, names)).collect();
        let head: Vec<String> = self.head.iter().map(|a| a.display(sig, names)).collect();
        format!("{} -> {}", body.join(", "), head.join(", "))
    }
}

fn distinct_vars(atoms: &[Atom]) -> Vec<VarId> {
    let mut seen = Vec::new();
    for atom in atoms {
        for v in atom.variables() {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
    }
    seen
}

/// Fluent builder for [`Tgd`].
#[derive(Debug, Default)]
pub struct TgdBuilder {
    vars: VarPool,
    body: Vec<Atom>,
    head: Vec<Atom>,
}

impl TgdBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if needed) the variable named `name`.
    pub fn var(&mut self, name: &str) -> VarId {
        self.vars.var(name)
    }

    /// Adds a body atom.
    pub fn body_atom(&mut self, relation: RelationId, args: Vec<Term>) -> &mut Self {
        self.body.push(Atom::new(relation, args));
        self
    }

    /// Adds a head atom.
    pub fn head_atom(&mut self, relation: RelationId, args: Vec<Term>) -> &mut Self {
        self.head.push(Atom::new(relation, args));
        self
    }

    /// Finalises the dependency.
    pub fn build(&mut self) -> Tgd {
        Tgd::new(
            std::mem::take(&mut self.vars),
            std::mem::take(&mut self.body),
            std::mem::take(&mut self.head),
        )
    }
}

/// Convenience constructor for an inclusion dependency.
///
/// `body_positions` and `head_positions` must have equal length `k`; the
/// resulting ID exports `k` variables, exporting the value at
/// `body_positions[i]` of `from` into `head_positions[i]` of `to`, with all
/// other head positions existentially quantified.
pub fn inclusion_dependency(
    sig: &Signature,
    from: RelationId,
    body_positions: &[usize],
    to: RelationId,
    head_positions: &[usize],
) -> Tgd {
    assert_eq!(
        body_positions.len(),
        head_positions.len(),
        "inclusion dependency requires matching position lists"
    );
    let mut b = TgdBuilder::new();
    let from_arity = sig.arity(from);
    let to_arity = sig.arity(to);
    // Body: one distinct variable per position of `from`.
    let body_vars: Vec<VarId> = (0..from_arity).map(|i| b.var(&format!("x{i}"))).collect();
    // Head: exported variables where dictated, fresh variables elsewhere.
    let mut head_terms: Vec<Term> = (0..to_arity)
        .map(|i| Term::Var(b.var(&format!("y{i}"))))
        .collect();
    for (bp, hp) in body_positions.iter().zip(head_positions.iter()) {
        assert!(*bp < from_arity, "body position out of range");
        assert!(*hp < to_arity, "head position out of range");
        head_terms[*hp] = Term::Var(body_vars[*bp]);
    }
    b.body_atom(from, body_vars.iter().map(|v| Term::Var(*v)).collect());
    b.head_atom(to, head_terms);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> (Signature, RelationId, RelationId, RelationId) {
        let mut s = Signature::new();
        let r = s.add_relation("R", 2).unwrap();
        let t = s.add_relation("T", 1).unwrap();
        let u = s.add_relation("U", 3).unwrap();
        (s, r, t, u)
    }

    #[test]
    fn uid_from_paper_example() {
        // R(x, y) -> ∃z w  S(z, y, w) : a UID (paper, Section 2).
        let (sig, r, _t, u) = sig();
        let tgd = inclusion_dependency(&sig, r, &[1], u, &[1]);
        assert!(tgd.is_id());
        assert!(tgd.is_uid());
        assert!(tgd.is_linear());
        assert!(tgd.is_guarded());
        assert!(tgd.is_frontier_guarded());
        assert!(!tgd.is_full());
        assert_eq!(tgd.width(), 1);
        assert_eq!(tgd.id_position_map(), Some(vec![(1, 1)]));
        assert_eq!(tgd.exported_variables().len(), 1);
        assert_eq!(tgd.existential_variables().len(), 2);
    }

    #[test]
    fn full_tgd_with_two_body_atoms() {
        // T(y), R(x, y) -> T(x) (Example 6.1's first constraint shape).
        let (sig, r, t, _u) = sig();
        let mut b = TgdBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        b.body_atom(t, vec![Term::Var(y)]);
        b.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
        b.head_atom(t, vec![Term::Var(x)]);
        let tgd = b.build();
        assert!(tgd.is_full());
        assert!(!tgd.is_id());
        assert!(!tgd.is_linear());
        // R(x, y) guards both body variables.
        assert!(tgd.is_guarded());
        assert!(tgd.is_frontier_guarded());
        assert_eq!(tgd.width(), 1);
        let _ = tgd.display(&sig);
    }

    #[test]
    fn non_guarded_tgd() {
        // T(x), T(y) -> R(x, y) : no body atom contains both x and y.
        let (_sig, r, t, _u) = sig();
        let mut b = TgdBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        b.body_atom(t, vec![Term::Var(x)]);
        b.body_atom(t, vec![Term::Var(y)]);
        b.head_atom(r, vec![Term::Var(x), Term::Var(y)]);
        let tgd = b.build();
        assert!(!tgd.is_guarded());
        assert!(!tgd.is_frontier_guarded());
        assert!(tgd.is_full());
        assert_eq!(tgd.width(), 2);
    }

    #[test]
    fn frontier_guarded_but_not_guarded() {
        // R(x, y), T(z) -> T(x) : frontier {x} is guarded by R(x, y) but the
        // body variable z is in no common atom with x and y.
        let (_sig, r, t, _u) = sig();
        let mut b = TgdBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
        b.body_atom(t, vec![Term::Var(z)]);
        b.head_atom(t, vec![Term::Var(x)]);
        let tgd = b.build();
        assert!(!tgd.is_guarded());
        assert!(tgd.is_frontier_guarded());
    }

    #[test]
    fn exported_variables_follow_the_body_order() {
        // U(y, x, z), R(x, z) -> R(z, y): x stays in the body, and the
        // frontier lists y before z, as the body first mentions them.
        let (_sig, r, _t, u) = sig();
        let mut b = TgdBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body_atom(u, vec![Term::Var(y), Term::Var(x), Term::Var(z)]);
        b.body_atom(r, vec![Term::Var(x), Term::Var(z)]);
        b.head_atom(r, vec![Term::Var(z), Term::Var(y)]);
        let tgd = b.build();
        assert_eq!(tgd.exported_variables(), vec![y, z]);
        assert_eq!(tgd.width(), 2);
    }

    #[test]
    fn repeated_variable_breaks_id() {
        // R(x, x) -> T(x) is linear and guarded but not an ID.
        let (_sig, r, t, _u) = sig();
        let mut b = TgdBuilder::new();
        let x = b.var("x");
        b.body_atom(r, vec![Term::Var(x), Term::Var(x)]);
        b.head_atom(t, vec![Term::Var(x)]);
        let tgd = b.build();
        assert!(!tgd.is_id());
        assert!(tgd.is_linear());
        assert!(tgd.is_guarded());
    }

    #[test]
    fn inclusion_dependency_width_two() {
        let (sig, _r, _t, u) = sig();
        let mut s2 = sig.clone();
        let v = s2.add_relation("V", 2).unwrap();
        let tgd = inclusion_dependency(&s2, u, &[0, 2], v, &[0, 1]);
        assert!(tgd.is_id());
        assert!(!tgd.is_uid());
        assert_eq!(tgd.width(), 2);
        assert_eq!(tgd.id_position_map(), Some(vec![(0, 0), (2, 1)]));
    }

    #[test]
    fn relations_listed_once() {
        let (sig, r, t, _u) = sig();
        let tgd = inclusion_dependency(&sig, r, &[0], t, &[0]);
        assert_eq!(tgd.relations(), vec![r, t]);
    }
}
