//! # rbqa-containment
//!
//! Query containment under constraints — the reasoning problem that every
//! answerability question of the paper is reduced to (Section 3).
//!
//! The crate provides:
//!
//! * [`problem::ContainmentProblem`] / [`problem::Verdict`] — the problem
//!   statement `Q ⊆_Σ Q'` and three-valued verdicts (`Holds`,
//!   `DoesNotHold`, `Unknown` when a budget was exhausted before a decision
//!   could be certified);
//! * [`generic`] — the chase-based decision procedure: chase the canonical
//!   database of `Q` with `Σ`, then check whether `Q'` holds (paper,
//!   Section 2, "Query containment and chase proofs");
//! * [`bounds`] — Johnson–Klug style depth bounds for (semi-)bounded-width
//!   inclusion dependencies (Propositions 5.6 / E.7 / E.8) and the
//!   depth-bounded decision wrapper used for IDs;
//! * [`semi_width`] — position graphs, width and semi-width of sets of
//!   linear dependencies (Section 5);
//! * [`saturation`] — the truncated-accessibility-axiom saturation algorithm
//!   of Proposition E.1;
//! * [`linearization`] — the linearization construction of Proposition 5.5 /
//!   Appendix E.3.5: simulating the chase of bounded-width IDs together with
//!   accessibility axioms by linear dependencies of bounded semi-width over
//!   an expanded signature.
//!
//! Every procedure takes a [`rbqa_chase::ChaseConfig`], so callers choose
//! the budget; the chase itself is always the delta-driven semi-naive
//! engine ([`rbqa_chase::chase`]).
//!
//! ```
//! use rbqa_chase::{Budget, ChaseConfig};
//! use rbqa_common::{Signature, ValueFactory};
//! use rbqa_containment::{decide, ContainmentProblem, Verdict};
//! use rbqa_logic::constraints::ConstraintSet;
//! use rbqa_logic::parser::{parse_cq, parse_tgd};
//!
//! // Σ: Udirectory(i, a, p) -> Prof(i, n, s)  (Example 1.1's referential
//! // constraint, reversed). Then ∃ Udirectory ⊆_Σ ∃ Prof.
//! let mut sig = Signature::new();
//! let mut values = ValueFactory::new();
//! let lhs = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut values).unwrap();
//! let rhs = parse_cq("Q() :- Prof(i2, n, s)", &mut sig, &mut values).unwrap();
//! let tgd = parse_tgd("Udirectory(i, a, p) -> Prof(i, n, s)", &mut sig, &mut values).unwrap();
//! let mut constraints = ConstraintSet::new();
//! constraints.push_tgd(tgd);
//!
//! let problem = ContainmentProblem { signature: sig, lhs, rhs, constraints };
//! let outcome = decide(
//!     &problem,
//!     &mut values,
//!     ChaseConfig::with_budget(Budget::generous()),
//! );
//! assert_eq!(outcome.verdict, Verdict::Holds);
//! assert!(outcome.complete);
//! ```

pub mod bounds;
pub mod generic;
pub mod linearization;
pub mod problem;
pub mod saturation;
pub mod semi_width;

pub use bounds::{decide_bounded_depth, johnson_klug_depth_bound};
pub use generic::decide;
pub use problem::{ContainmentOutcome, ContainmentProblem, Verdict};
