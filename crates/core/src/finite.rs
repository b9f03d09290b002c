//! Finite monotone answerability (Section 2, Proposition 2.2 and Section 7,
//! Corollary 7.3).
//!
//! The paper studies answerability over all instances (finite and infinite)
//! and over finite instances only. For *finitely controllable* constraint
//! classes — FDs, IDs, frontier-guarded TGDs — the two notions coincide
//! (Proposition 2.2). UIDs + FDs are **not** finitely controllable, but
//! Theorem 7.4 (Cosmadakis–Kanellakis–Vardi) reduces the finite variant to
//! the unrestricted variant over the *finite closure* `Σ*` of the
//! constraints (Corollary 7.3). This module implements that dispatch on top
//! of [`crate::answerability`].

use rbqa_access::Schema;
use rbqa_common::ValueFactory;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::implication::{finite_closure, Uid};
use rbqa_logic::ConjunctiveQuery;

use crate::answerability::{
    decide_monotone_answerability, AnswerabilityOptions, AnswerabilityResult,
};
use crate::classify::{classify_constraints, ConstraintClass};

/// How the finite variant was reduced to the unrestricted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiniteReduction {
    /// The constraint class is finitely controllable: the unrestricted
    /// decision applies verbatim (Proposition 2.2).
    FinitelyControllable,
    /// UIDs + FDs: the constraints were replaced by their finite closure
    /// `Σ*` before deciding (Theorem 7.4 / Corollary 7.3).
    FiniteClosure {
        /// Number of dependencies added by the closure.
        added_dependencies: usize,
    },
    /// No finite-controllability argument is implemented for this class; the
    /// unrestricted decision is reported as a best-effort answer.
    BestEffort,
}

/// The result of a finite monotone answerability decision.
#[derive(Debug, Clone)]
pub struct FiniteAnswerabilityResult {
    /// The underlying (unrestricted) decision, possibly over the finite
    /// closure of the constraints.
    pub result: AnswerabilityResult,
    /// How the reduction to the unrestricted problem was performed.
    pub reduction: FiniteReduction,
}

/// Decides whether `query` is finitely monotone answerable over `schema`.
pub fn decide_finite_monotone_answerability(
    schema: &Schema,
    query: &ConjunctiveQuery,
    values: &mut ValueFactory,
    options: &AnswerabilityOptions,
) -> FiniteAnswerabilityResult {
    let class = classify_constraints(schema.constraints());
    match class {
        ConstraintClass::NoConstraints
        | ConstraintClass::FdsOnly
        | ConstraintClass::IdsOnly { .. }
        | ConstraintClass::FrontierGuardedTgds => {
            // Finitely controllable (Proposition 2.2 and Appendix B): the
            // unrestricted decision is the finite decision.
            let result = decide_monotone_answerability(schema, query, values, options);
            FiniteAnswerabilityResult {
                result,
                reduction: FiniteReduction::FinitelyControllable,
            }
        }
        ConstraintClass::UidsAndFds => {
            // Corollary 7.3: decide over the finite closure Σ*.
            let uids: Vec<Uid> = schema
                .constraints()
                .tgds()
                .iter()
                .filter_map(Uid::from_tgd)
                .collect();
            let fds = schema.constraints().fds().to_vec();
            let before = uids.len() + fds.len();
            let (closed_uids, closed_fds) = finite_closure(schema.signature(), &uids, &fds);
            let after = closed_uids.len() + closed_fds.len();

            let mut closed_constraints = ConstraintSet::new();
            for uid in &closed_uids {
                closed_constraints.push_tgd(uid.to_tgd(schema.signature()));
            }
            for fd in closed_fds {
                closed_constraints.push_fd(fd);
            }
            let closed_schema = Schema::with_parts(
                schema.signature().clone(),
                closed_constraints,
                schema.methods().to_vec(),
            )
            .expect("the closed schema reuses the original signature and methods");

            let result = decide_monotone_answerability(&closed_schema, query, values, options);
            FiniteAnswerabilityResult {
                result,
                reduction: FiniteReduction::FiniteClosure {
                    added_dependencies: after.saturating_sub(before),
                },
            }
        }
        ConstraintClass::ArbitraryTgds | ConstraintClass::Mixed => {
            let result = decide_monotone_answerability(schema, query, values, options);
            FiniteAnswerabilityResult {
                result,
                reduction: FiniteReduction::BestEffort,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answerability::Answerability;
    use rbqa_access::AccessMethod;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::parser::parse_cq;
    use rbqa_logic::Fd;

    #[test]
    fn finitely_controllable_classes_reuse_the_unrestricted_decision() {
        // The university schema (IDs only).
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
            .add_method(AccessMethod::bounded("ud", udir, &[], 100))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut parse_sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut parse_sig, &mut vf).unwrap();
        let finite = decide_finite_monotone_answerability(
            &schema,
            &q2,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(finite.reduction, FiniteReduction::FinitelyControllable);
        assert_eq!(finite.result.answerability, Answerability::Answerable);
    }

    #[test]
    fn finite_and_unrestricted_agree_on_finitely_controllable_scenarios() {
        let mut scenario = rbqa_workloads_test_scenario();
        let q = scenario.1.clone();
        let unrestricted = decide_monotone_answerability(
            &scenario.0,
            &q,
            &mut scenario.2,
            &AnswerabilityOptions::default(),
        );
        let finite = decide_finite_monotone_answerability(
            &scenario.0,
            &q,
            &mut scenario.2,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(finite.result.answerability, unrestricted.answerability);
    }

    /// A small FD-only scenario used by the agreement test (kept local to
    /// avoid a dev-dependency cycle with `rbqa-workloads`).
    fn rbqa_workloads_test_scenario() -> (Schema, ConjunctiveQuery, ValueFactory) {
        let mut sig = Signature::new();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(Fd::new(udir, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], 1))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut parse_sig = schema.signature().clone();
        let q = parse_cq(
            "Q() :- Udirectory('12345', 'mainst', p)",
            &mut parse_sig,
            &mut vf,
        )
        .unwrap();
        (schema, q, vf)
    }
}
