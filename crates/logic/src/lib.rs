//! # rbqa-logic
//!
//! Logical layer of the `rbqa` workspace: conjunctive queries, unions of
//! conjunctive queries, homomorphisms and query evaluation, integrity
//! constraints (tuple-generating dependencies and functional dependencies)
//! together with their syntactic classification (IDs, UIDs, guarded,
//! frontier-guarded, full, linear, width), dependency implication closures,
//! and a small text parser used by examples and tests.
//!
//! This is the vocabulary of the paper's Section 2 ("Preliminaries"):
//!
//! * [`cq::ConjunctiveQuery`] — CQs with free variables, Boolean CQs, and
//!   their canonical databases;
//! * [`constraints::Tgd`] / [`constraints::Fd`] — TGDs (`∀x φ(x) → ∃y ψ(x,y)`)
//!   and FDs (`D → j` on a relation);
//! * [`homomorphism`] — the matching kernel: homomorphism search from a CQ
//!   into an instance (the semantics of Boolean CQs), implemented as
//!   compiled match programs over dense bindings with the original
//!   backtracking search retained as the differential baseline;
//! * [`implication`] — FD closure / `DetBy`, UID closure, and the finite
//!   closure of UIDs + FDs used in Section 7;
//! * [`parser`] — a compact concrete syntax for atoms, queries and
//!   dependencies.

pub mod atom;
pub mod canonical;
pub mod constraints;
pub mod cq;
pub mod evaluate;
pub mod homomorphism;
pub mod implication;
pub mod minimize;
pub mod parser;
pub mod term;
pub mod ucq;

pub use atom::Atom;
pub use canonical::{canonical_atoms_code, canonical_query_code, canonical_ucq_code};
pub use constraints::{Constraint, ConstraintSet, Fd, Tgd};
pub use cq::{CanonicalDatabase, ConjunctiveQuery, CqBuilder};
pub use evaluate::evaluate;
pub use homomorphism::{
    find_homomorphism, holds, Binding, Homomorphism, KernelMode, MatchProgram, MatchScratch,
};
pub use minimize::{cq_contained_in, cq_equivalent, minimize, minimize_under_fds};
pub use term::{Term, VarId, VarPool};
pub use ucq::UnionOfConjunctiveQueries;
