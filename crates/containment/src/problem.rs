//! Containment problem statements and verdicts.

use rbqa_chase::{ChaseStats, Completion};
use rbqa_common::Signature;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::ConjunctiveQuery;

/// The query containment problem `Q ⊆_Σ Q'`: does every instance satisfying
/// `lhs` (as a Boolean query) and `constraints` also satisfy `rhs`?
#[derive(Debug, Clone)]
pub struct ContainmentProblem {
    /// The signature over which both queries and constraints are expressed.
    pub signature: Signature,
    /// The containing-side query `Q`.
    pub lhs: ConjunctiveQuery,
    /// The contained-side query `Q'`.
    pub rhs: ConjunctiveQuery,
    /// The constraints `Σ`.
    pub constraints: ConstraintSet,
}

/// The answer to a containment question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Q ⊆_Σ Q'` holds (a chase proof was found, or the left-hand side is
    /// unsatisfiable under the constraints).
    Holds,
    /// `Q ⊆_Σ Q'` does not hold: the chase saturated (or reached a depth at
    /// which matches are guaranteed to appear, see
    /// [`crate::bounds::decide_bounded_depth`]) without a match of `Q'`.
    DoesNotHold,
    /// The procedure ran out of budget before it could certify either
    /// answer.
    Unknown,
}

impl Verdict {
    /// Whether the verdict is decisive (not [`Verdict::Unknown`]).
    pub fn is_decided(self) -> bool {
        !matches!(self, Verdict::Unknown)
    }

    /// Whether containment was certified.
    pub fn holds(self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// The outcome of a containment decision: the verdict plus diagnostics.
#[derive(Debug, Clone)]
pub struct ContainmentOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// How the underlying chase run ended.
    pub chase_completion: Completion,
    /// Chase statistics (facts fired, nulls created, rounds, depth).
    pub chase_stats: ChaseStats,
    /// Number of facts in the chased instance when the decision was made.
    pub chased_facts: usize,
    /// Whether the negative answer (if any) is certified complete: either
    /// the chase saturated, or the depth cap used was at least the
    /// completeness bound supplied by the caller.
    pub complete: bool,
}

impl ContainmentOutcome {
    /// `Some` once the request deadline has expired (counting the
    /// expiry): the outcome a chase aborted before its first round
    /// reports — an uncertified [`Verdict::Unknown`] with no rounds and no
    /// facts. Every stage that runs ahead of the chase checks it (the
    /// linearization or AMonDet build, the completeness bound, the chase
    /// setup), so a timed-out decision stops at the next stage rather than
    /// at the first chase round.
    pub fn on_expired_deadline() -> Option<Self> {
        if !rbqa_obs::deadline_expired() {
            return None;
        }
        rbqa_obs::counters::add_deadline_expiry();
        Some(ContainmentOutcome {
            verdict: Verdict::Unknown,
            chase_completion: Completion::BudgetExhausted,
            chase_stats: ChaseStats::default(),
            chased_facts: 0,
            complete: false,
        })
    }

    /// Convenience constructor for a decided outcome without chase work
    /// (e.g. trivial containments).
    pub fn trivial(verdict: Verdict) -> Self {
        ContainmentOutcome {
            verdict,
            chase_completion: Completion::Saturated,
            chase_stats: ChaseStats::default(),
            chased_facts: 0,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Holds.is_decided());
        assert!(Verdict::Holds.holds());
        assert!(Verdict::DoesNotHold.is_decided());
        assert!(!Verdict::DoesNotHold.holds());
        assert!(!Verdict::Unknown.is_decided());
        assert!(!Verdict::Unknown.holds());
    }

    #[test]
    fn trivial_outcome_is_complete() {
        let o = ContainmentOutcome::trivial(Verdict::Holds);
        assert!(o.complete);
        assert_eq!(o.verdict, Verdict::Holds);
        assert_eq!(o.chased_facts, 0);
    }
}
