//! Johnson–Klug style depth bounds and the depth-bounded decision wrapper.
//!
//! For containment under IDs of width `w` over a signature of arity `m`,
//! Johnson and Klug show that if the right-hand query (of size `k` atoms)
//! has a match in the chase then it has a match within depth
//! `k · |Σ| · m^(w+1)` of the chase tree (paper, Lemma E.6); the result
//! extends to *semi-width* `w` with an additive `|Σ2|` factor
//! (Proposition E.8). Exploring the chase up to that depth therefore decides
//! containment.
//!
//! Deterministically materialising the chase to that depth can be expensive
//! (the NP procedure guesses the relevant branches), so
//! [`decide_bounded_depth`] combines the bound with the caller's budget: the
//! verdict is flagged as *complete* when the explored depth reaches the
//! bound (or the chase saturates earlier), and [`Verdict::Unknown`] is
//! returned when the budget stops exploration before that.

#[cfg(test)]
use rbqa_chase::Budget;
use rbqa_chase::ChaseConfig;
use rbqa_common::ValueFactory;

use crate::generic::decide_with_completeness;
use crate::problem::{ContainmentOutcome, ContainmentProblem, Verdict};
use crate::semi_width::smallest_semi_width_decomposition;

/// The Johnson–Klug depth bound `k · |Σ| · m^(w+1)` for a right-hand query
/// of `query_atoms` atoms, `n_dependencies` dependencies, signature arity
/// `max_arity` and width `width`. Saturates instead of overflowing.
pub fn johnson_klug_depth_bound(
    query_atoms: usize,
    n_dependencies: usize,
    max_arity: usize,
    width: usize,
) -> usize {
    let pow = (max_arity.max(1) as u128).saturating_pow(width as u32 + 1);
    let bound = (query_atoms.max(1) as u128)
        .saturating_mul(n_dependencies.max(1) as u128)
        .saturating_mul(pow);
    usize::try_from(bound).unwrap_or(usize::MAX)
}

/// The depth bound for a set of dependencies of semi-width `w`: the
/// Johnson–Klug bound for the bounded-width part plus the size of the
/// acyclic part (a value can propagate through the acyclic dependencies at
/// most `|Σ2|` consecutive steps, Proposition E.8).
pub fn semi_width_depth_bound(
    query_atoms: usize,
    n_bounded: usize,
    n_acyclic: usize,
    max_arity: usize,
    width: usize,
) -> usize {
    johnson_klug_depth_bound(query_atoms, n_bounded + n_acyclic, max_arity, width)
        .saturating_add(n_acyclic)
}

/// The completeness depth for a set of linear dependencies and a right-hand
/// query of `rhs_atoms` atoms: the semi-width bound for the smallest width at
/// which the greedy semi-width decomposition succeeds (at the latest the
/// maximal width of the set, where the acyclic part is empty).
pub fn completeness_depth_for(
    tgds: &[rbqa_logic::Tgd],
    rhs_atoms: usize,
    max_arity: usize,
) -> usize {
    let _obs = rbqa_obs::span("completeness_bound");
    let d = smallest_semi_width_decomposition(tgds);
    semi_width_depth_bound(
        rhs_atoms,
        d.bounded_part.len(),
        d.acyclic_part.len(),
        max_arity,
        d.width,
    )
}

/// Decides `problem` (whose TGDs should be linear — IDs or linearized rules)
/// with a depth-bounded chase.
///
/// The depth used is `min(bound, config.budget.max_depth)` where `bound` is
/// the semi-width depth bound computed from the constraint set (using the
/// smallest `w` for which the greedy semi-width decomposition succeeds, and
/// falling back to the maximal width otherwise). The outcome's `complete`
/// flag records whether the explored depth reached the bound.
pub fn decide_bounded_depth(
    problem: &ContainmentProblem,
    values: &mut ValueFactory,
    config: ChaseConfig,
) -> ContainmentOutcome {
    let bound = completeness_depth_for(
        problem.constraints.tgds(),
        problem.rhs.size(),
        problem.signature.max_arity(),
    );
    let depth = bound.min(config.budget.max_depth);
    let config = ChaseConfig {
        budget: config.budget.with_max_depth(depth),
        ..config
    };
    let mut outcome = decide_with_completeness(problem, values, config, Some(bound));
    // `decide_with_completeness` flags completeness when max_depth >= bound;
    // saturation also certifies it. Nothing further to adjust, but make the
    // invariant explicit for readers of the outcome.
    if outcome.verdict == Verdict::DoesNotHold && !outcome.complete {
        outcome.verdict = Verdict::Unknown;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::parse_cq;

    #[test]
    fn depth_bound_formula() {
        assert_eq!(johnson_klug_depth_bound(2, 3, 2, 1), 2 * 3 * 4);
        assert_eq!(johnson_klug_depth_bound(1, 1, 3, 2), 27);
        // Saturating behaviour on absurd inputs.
        assert_eq!(
            johnson_klug_depth_bound(usize::MAX, usize::MAX, 10, 30),
            usize::MAX
        );
        assert_eq!(semi_width_depth_bound(1, 1, 2, 2, 1), 3 * 4 + 2);
    }

    #[test]
    fn bounded_depth_decides_cyclic_uids() {
        // Cyclic UIDs R[1] ⊆ S[0], S[1] ⊆ R[0]: the chase is infinite, but
        // the Johnson–Klug bound makes the negative answer definitive.
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, y)", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- T(u)", &mut sig, &mut vf).unwrap();
        sig.add_relation("T", 1).unwrap();
        let r = sig.require("R").unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        let out = decide_bounded_depth(
            &problem,
            &mut vf,
            ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
    }

    #[test]
    fn bounded_depth_finds_positive_answers_through_cycles() {
        // R[1] ⊆ S[0] and S[1] ⊆ R[0]; asking for ∃ S is entailed by ∃ R.
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, y)", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- S(u, v)", &mut sig, &mut vf).unwrap();
        let r = sig.require("R").unwrap();
        let s = sig.require("S").unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        let out = decide_bounded_depth(
            &problem,
            &mut vf,
            ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::Holds);
    }

    #[test]
    fn tiny_budget_yields_unknown_not_wrong_answer() {
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, y)", &mut sig, &mut vf).unwrap();
        // A long chain requirement that needs several chase steps.
        let rhs = parse_cq(
            "Q() :- R(a, b), S(b, c), R(c, d), S(d, e)",
            &mut sig,
            &mut vf,
        )
        .unwrap();
        let r = sig.require("R").unwrap();
        let s = sig.require("S").unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        // Deny the budget needed to reach the completeness bound: the
        // procedure must answer Unknown rather than a wrong DoesNotHold
        // (the chain actually exists in the infinite chase).
        let budget = Budget {
            max_facts: 3,
            max_rounds: 1,
            max_depth: 1,
            max_nulls: 3,
        };
        let out = decide_bounded_depth(&problem, &mut vf, ChaseConfig::with_budget(budget));
        assert_eq!(out.verdict, Verdict::Unknown);

        // And with a real budget it is found to hold.
        let out = decide_bounded_depth(
            &problem,
            &mut vf,
            ChaseConfig::with_budget(Budget::generous()),
        );
        assert_eq!(out.verdict, Verdict::Holds);
    }
}
