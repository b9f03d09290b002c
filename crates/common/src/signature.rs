//! Relational signatures.
//!
//! A *signature* (paper, Section 2) is a set of relation names with
//! associated arities. Positions are 0-based throughout the code base (the
//! paper uses 1-based positions; the translation is purely presentational).
//!
//! Signatures are append-only and cheap to clone; the answerability pipeline
//! frequently *extends* a signature with fresh relations (`R'`,
//! `R_Accessed`, `accessible`, existence-check views `R_mt`, ...), which is
//! supported by [`Signature::add_relation`] on a cloned signature.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::error::{Error, Result};

/// Identifier of a relation within a [`Signature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(u32);

impl RelationId {
    /// Builds a `RelationId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        RelationId(u32::try_from(index).expect("more than u32::MAX relations declared"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A relation declaration: a name and an arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    arity: usize,
}

impl Relation {
    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity (number of positions).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Iterator over the 0-based positions of the relation.
    pub fn positions(&self) -> impl Iterator<Item = usize> {
        0..self.arity
    }
}

/// A relational signature: an ordered collection of relation declarations.
///
/// ```
/// use rbqa_common::Signature;
/// let mut sig = Signature::new();
/// let prof = sig.add_relation("Prof", 3).unwrap();
/// let udir = sig.add_relation("Udirectory", 3).unwrap();
/// assert_ne!(prof, udir);
/// assert_eq!(sig.relation(prof).name(), "Prof");
/// assert_eq!(sig.arity(udir), 3);
/// ```
///
/// The declarations are shared copy-on-write: cloning a signature (as every
/// [`crate::Instance`] over it and every extended copy does) costs no
/// allocation, and the first [`Signature::add_relation`] on a shared
/// signature copies it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Signature {
    /// `None` while no relation is declared, so an empty signature
    /// allocates nothing.
    shared: Option<Arc<Declarations>>,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Declarations {
    relations: Vec<Relation>,
    by_name: FxHashMap<String, RelationId>,
}

/// Maximum supported relation arity.
///
/// Position sets are packed into `u32` bitmasks by the containment layer's
/// truncated-axiom saturation; enforcing the bound here, at declaration
/// time, turns an unsupported schema into a structured [`Error`] at the API
/// boundary instead of a panic deep inside a Decide.
pub const MAX_ARITY: usize = 32;

impl Signature {
    /// Creates an empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation. Re-declaring an existing relation with the same
    /// arity returns the existing id; declaring it with a different arity —
    /// or with an arity above [`MAX_ARITY`] — is an error.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Result<RelationId> {
        if arity > MAX_ARITY {
            return Err(Error::Invalid(format!(
                "relation `{name}` declares arity {arity}, above the supported maximum {MAX_ARITY}"
            )));
        }
        if let Some(id) = self.relation_by_name(name) {
            let existing = self.arity(id);
            if existing == arity {
                return Ok(id);
            }
            return Err(Error::ConflictingArity {
                name: name.to_owned(),
                existing,
                requested: arity,
            });
        }
        let decls = Arc::make_mut(self.shared.get_or_insert_with(Default::default));
        let id = RelationId::from_index(decls.relations.len());
        decls.relations.push(Relation {
            name: name.to_owned(),
            arity,
        });
        decls.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    fn relations(&self) -> &[Relation] {
        self.shared.as_deref().map_or(&[], |d| &d.relations)
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.shared.as_deref()?.by_name.get(name).copied()
    }

    /// Looks up a relation by name, returning an error if it is unknown.
    pub fn require(&self, name: &str) -> Result<RelationId> {
        self.relation_by_name(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_owned()))
    }

    /// The declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this signature.
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations()[id.index()]
    }

    /// Shorthand for `self.relation(id).arity()`.
    pub fn arity(&self, id: RelationId) -> usize {
        self.relation(id).arity()
    }

    /// Shorthand for `self.relation(id).name()`.
    pub fn name(&self, id: RelationId) -> &str {
        self.relation(id).name()
    }

    /// Whether `id` belongs to this signature.
    pub fn contains(&self, id: RelationId) -> bool {
        id.index() < self.relations().len()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations().len()
    }

    /// Whether no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations().is_empty()
    }

    /// Iterates over `(id, relation)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &Relation)> {
        self.relations()
            .iter()
            .enumerate()
            .map(|(i, r)| (RelationId::from_index(i), r))
    }

    /// Maximum arity over all relations (0 for an empty signature).
    pub fn max_arity(&self) -> usize {
        self.relations().iter().map(|r| r.arity).max().unwrap_or(0)
    }

    /// Validates that `position` is a legal position of `relation`.
    pub fn check_position(&self, relation: RelationId, position: usize) -> Result<()> {
        let decl = self.relation(relation);
        if position < decl.arity {
            Ok(())
        } else {
            Err(Error::PositionOutOfRange {
                relation: decl.name.clone(),
                arity: decl.arity,
                position,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        assert_eq!(sig.relation_by_name("R"), Some(r));
        assert_eq!(sig.name(r), "R");
        assert_eq!(sig.arity(r), 2);
        assert!(sig.contains(r));
    }

    #[test]
    fn redeclaration_same_arity_is_idempotent() {
        let mut sig = Signature::new();
        let a = sig.add_relation("R", 2).unwrap();
        let b = sig.add_relation("R", 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(sig.len(), 1);
    }

    #[test]
    fn redeclaration_with_conflicting_arity_fails() {
        let mut sig = Signature::new();
        sig.add_relation("R", 2).unwrap();
        let err = sig.add_relation("R", 3).unwrap_err();
        assert!(matches!(err, Error::ConflictingArity { .. }));
    }

    #[test]
    fn require_unknown_relation_fails() {
        let sig = Signature::new();
        assert!(matches!(
            sig.require("Missing"),
            Err(Error::UnknownRelation(_))
        ));
    }

    #[test]
    fn max_arity_and_iteration() {
        let mut sig = Signature::new();
        sig.add_relation("A", 1).unwrap();
        sig.add_relation("B", 4).unwrap();
        sig.add_relation("C", 2).unwrap();
        assert_eq!(sig.max_arity(), 4);
        let names: Vec<_> = sig.iter().map(|(_, r)| r.name().to_owned()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn check_position_bounds() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        assert!(sig.check_position(r, 0).is_ok());
        assert!(sig.check_position(r, 1).is_ok());
        assert!(sig.check_position(r, 2).is_err());
    }

    #[test]
    fn positions_iterator() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 3).unwrap();
        let ps: Vec<_> = sig.relation(r).positions().collect();
        assert_eq!(ps, vec![0, 1, 2]);
    }

    #[test]
    fn clones_share_declarations_until_one_extends() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let mut extended = sig.clone();
        assert_eq!(extended, sig);
        let s = extended.add_relation("S", 1).unwrap();
        assert_eq!(extended.name(s), "S");
        assert_eq!(extended.relation_by_name("R"), Some(r));
        // The original does not see the extension.
        assert_eq!(sig.len(), 1);
        assert_eq!(sig.relation_by_name("S"), None);
        assert_ne!(extended, sig);
    }

    #[test]
    fn empty_signature() {
        let sig = Signature::new();
        assert!(sig.is_empty());
        assert_eq!(sig.max_arity(), 0);
    }
}
