//! # rbqa-core
//!
//! The paper's primary contribution: deciding **monotone answerability** of
//! conjunctive queries over schemas with *result-bounded* access methods,
//! and synthesising candidate monotone plans.
//!
//! The pipeline mirrors the paper's structure:
//!
//! 1. **Classify** the schema's integrity constraints into one of the
//!    constraint classes of Table 1 ([`classify`]).
//! 2. **Simplify** the schema: existence-check simplification for IDs
//!    (Theorem 4.2), FD simplification for FDs (Theorem 4.5), choice
//!    simplification for TGDs and for UIDs + FDs (Theorems 6.3 and 6.4)
//!    ([`simplification`]). Every stage reads a result bound as a lower
//!    bound, so `ElimUB` (Proposition 3.3) needs no stage of its own.
//! 3. **Reduce to query containment**: build the AMonDet containment
//!    `Q ⊆_Γ Q'` with accessibility axioms over an expanded signature
//!    (Section 3, Proposition 3.4) ([`amondet`]).
//! 4. **Decide the containment** with the back-end suited to the class:
//!    the linearization of Proposition 5.5 for (bounded-width) IDs, the
//!    terminating chase for FDs, the separability rewriting for UIDs + FDs
//!    (Theorem 7.2), and the generic budgeted chase otherwise
//!    ([`answerability`]).
//! 5. Optionally **extract a plan** from the chase proof of that
//!    containment ([`proof_plan`]), with the crawl of [`plan_synthesis`]
//!    as the counted fallback.

pub mod amondet;
pub mod answerability;
pub mod classify;
pub mod finite;
pub mod plan_synthesis;
pub mod proof_plan;
pub mod simplification;

pub use amondet::{AmondetProblem, AxiomStyle};
pub use answerability::{
    decide_monotone_answerability, decide_monotone_answerability_union, Answerability,
    AnswerabilityOptions, AnswerabilityResult, DecisionSummary, Strategy, UnionAnswerabilityResult,
    UnionRescue,
};
pub use classify::{classify_constraints, ConstraintClass};
pub use finite::{
    decide_finite_monotone_answerability, FiniteAnswerabilityResult, FiniteReduction,
};
pub use plan_synthesis::synthesize_crawling_plan;
pub use proof_plan::{Fallback, PlanKind};
pub use simplification::{
    choice_simplification, existence_check_simplification, fd_simplification, SimplificationKind,
};
