//! # rbqa-chase
//!
//! The chase engine used throughout the `rbqa` workspace.
//!
//! Query containment under constraints — the problem every answerability
//! question is reduced to (paper, Section 3) — is solved by *chase proofs*
//! (paper, Section 2): starting from the canonical database of a query,
//! dependencies are fired on *active triggers* until no violation remains or
//! a budget is exhausted, and the target query is then checked against the
//! result.
//!
//! ## What the engine implements
//!
//! * the **restricted (standard) chase** for TGDs — only active triggers are
//!   fired, with fresh labelled nulls for existential head variables
//!   ([`engine::chase`]);
//! * the **FD / EGD chase** — violated FDs unify values, substituting nulls
//!   and failing when two distinct constants would have to be equated;
//! * **depth tracking** — each fact carries a derivation depth so callers
//!   (e.g. bounded-depth containment for guarded constraints, Johnson–Klug
//!   style) can cap the chase tree depth;
//! * **budgets** ([`budget::Budget`]) on facts, rounds, depth, nulls and
//!   per-rule trigger enumeration ([`Budget::trigger_limit`]), so that
//!   non-terminating chases surface as explicit
//!   [`result::Completion::BudgetExhausted`] outcomes rather than hangs;
//! * **proof logs** ([`chase_with_proof`], [`ProofLog`]): on request, the
//!   rule and trigger behind every derived fact, so a caller can walk a
//!   match back to the firings it depends on (plan extraction does);
//! * a **weak acyclicity** test ([`termination::is_weakly_acyclic`]) which
//!   guarantees chase termination for the constraint sets produced by the FD
//!   simplification pipeline.
//!
//! ## Two engines, one semantics
//!
//! Two implementations of the same restricted-chase semantics:
//!
//! * [`chase`] — the delta-driven (semi-naive) engine of [`seminaive`]:
//!   per-relation indexes, a TGD→relation dependency map, and
//!   delta-restricted trigger search (at least one body atom must match a
//!   fact derived in the previous round). 5–10× faster on the chase-heavy
//!   Table-1 suites (see `BENCH_chase.json`). This is the engine every
//!   caller runs.
//! * [`chase_naive`] — the textbook engine: each round re-enumerates every
//!   body homomorphism of every TGD against the full instance.
//!   `O(rounds × |hom space|)`; kept only as the differential oracle of the
//!   tests and the baseline of `chase_report`. No option selects it.
//!
//! Both report the same [`Completion`] and produce homomorphically
//! equivalent instances; `tests/chase_differential.rs` (repo root) checks
//! this on 256 random schema/constraint cases:
//!
//! ```
//! use rbqa_chase::{chase, chase_naive, Budget, ChaseConfig};
//! use rbqa_common::{Instance, Signature, ValueFactory};
//! use rbqa_logic::constraints::tgd::inclusion_dependency;
//! use rbqa_logic::constraints::ConstraintSet;
//!
//! // R(x, y) -> ∃z S(y, z) and S(x, y) -> ∃z R(y, z): an infinite chase,
//! // cut off at depth 4 by the budget.
//! let mut sig = Signature::new();
//! let r = sig.add_relation("R", 2).unwrap();
//! let s = sig.add_relation("S", 2).unwrap();
//! let mut constraints = ConstraintSet::new();
//! constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
//! constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));
//!
//! let mut values = ValueFactory::new();
//! let (a, b) = (values.constant("a"), values.constant("b"));
//! let mut instance = Instance::new(sig);
//! instance.insert(r, vec![a, b]).unwrap();
//!
//! let config = ChaseConfig::with_budget(Budget::generous().with_max_depth(4));
//! let naive = chase_naive(&instance, &constraints, &mut values.clone(), config);
//! let semi = chase(&instance, &constraints, &mut values.clone(), config);
//! // Same completion (the depth cap stopped both), same instance size here
//! // (one new fact per depth level).
//! assert_eq!(naive.completion, semi.completion);
//! assert_eq!(naive.instance.len(), semi.instance.len());
//! ```

pub mod budget;
pub mod engine;
pub mod proof;
pub mod result;
pub mod seminaive;
pub mod termination;
pub mod trigger;

pub use budget::Budget;
pub use engine::{chase, chase_naive, chase_with_proof, ChaseConfig};
pub use proof::{Firing, ProofLog};
pub use result::{ChaseOutcome, ChaseStats, Completion};
pub use termination::is_weakly_acyclic;
