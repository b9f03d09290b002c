//! The generic chase-based containment procedure.
//!
//! To decide `Q ⊆_Σ Q'` we chase the canonical database of `Q` with `Σ` and
//! check whether `Q'` holds in the result (paper, Section 2). The procedure
//! is:
//!
//! * **sound for `Holds`** as soon as a match of `Q'` appears in any chase
//!   prefix (chase steps only add logical consequences);
//! * **complete** when the chase saturates (the result is then a universal
//!   model of `Q ∧ Σ`), or — for constraint classes with a known depth bound
//!   on matches, such as bounded-width IDs — when the chase has been explored
//!   up to that depth (see [`crate::bounds`]);
//! * otherwise the verdict is [`Verdict::Unknown`].
//!
//! An FD failure during the chase (two distinct constants forced equal)
//! means `Q ∧ Σ` is unsatisfiable, so the containment holds vacuously.

use std::borrow::Cow;

use rbqa_chase::{chase, chase_owned, chase_with_proof, ChaseConfig, Completion, ProofLog};
use rbqa_common::{Instance, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::homomorphism::{find_homomorphism, Homomorphism};
use rbqa_logic::ConjunctiveQuery;

use crate::problem::{ContainmentOutcome, ContainmentProblem, Verdict};

/// Decides the containment problem with the given chase configuration.
///
/// `completeness_depth` is the depth (if any) at which the caller knows that
/// every potential match of `Q'` must have appeared (e.g. the Johnson–Klug
/// bound for bounded-width IDs). When the chase is stopped by the depth cap
/// but `config.budget.max_depth >= completeness_depth`, a missing match is
/// reported as a definitive [`Verdict::DoesNotHold`].
pub fn decide_with_completeness(
    problem: &ContainmentProblem,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
) -> ContainmentOutcome {
    let canon = problem.lhs.canonical_database(&problem.signature, values);
    decide_from_instance(
        &canon.instance,
        &problem.rhs,
        &problem.constraints,
        values,
        config,
        completeness_depth,
    )
}

/// Decides whether every instance extending `start` under `constraints`
/// satisfies `rhs`: the chase-based containment check starting from an
/// arbitrary instance instead of a canonical database. This is the entry
/// point used by the linearization pipeline, whose starting instance is the
/// translated canonical database `I0^Lin` rather than a plain `CanonDB(Q)`.
pub fn decide_from_instance(
    start: &Instance,
    rhs: &ConjunctiveQuery,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
) -> ContainmentOutcome {
    decide_from_instance_seeded(
        start,
        rhs,
        &Homomorphism::default(),
        constraints,
        values,
        config,
        completeness_depth,
    )
}

/// Like [`decide_from_instance`], but the match of `rhs` must extend the
/// given partial assignment `rhs_seed`.
///
/// The seed is how non-Boolean answerability is handled: the free (answer)
/// variables of the query are frozen in the canonical database, and the
/// right-hand (primed) query must recover *the same* frozen values — a plan
/// must return every answer tuple, not merely witness that some tuple
/// exists.
pub fn decide_from_instance_seeded(
    start: &Instance,
    rhs: &ConjunctiveQuery,
    rhs_seed: &Homomorphism,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
) -> ContainmentOutcome {
    decide_from_instance_any(
        start,
        &[(rhs, rhs_seed)],
        constraints,
        values,
        config,
        completeness_depth,
    )
    .0
}

/// Disjunctive form of [`decide_from_instance_seeded`]: the containment
/// holds as soon as **any** of the `(rhs, seed)` targets matches the chased
/// instance. This is the right-hand side of the AMonDet containment for a
/// *union* of conjunctive queries — the chase of one disjunct's canonical
/// database may be matched by any disjunct of the union.
///
/// Returns the outcome together with the index of the first target that
/// matched (in slice order), when one did. The chase runs once regardless
/// of the number of targets.
pub fn decide_from_instance_any(
    start: &Instance,
    targets: &[(&ConjunctiveQuery, &Homomorphism)],
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
) -> (ContainmentOutcome, Option<usize>) {
    let (outcome, matched) = decide_any(
        Cow::Borrowed(start),
        targets,
        constraints,
        values,
        config,
        completeness_depth,
        None,
    );
    (outcome, matched.map(|(index, _, _)| index))
}

/// A chase proof of a containment: what a caller needs to walk the match
/// of the target back to the firings that derived it.
#[derive(Debug, Clone)]
pub struct ContainmentProof {
    /// The chased instance the target matched in.
    pub instance: Instance,
    /// The firing behind every derived fact of `instance`.
    pub log: ProofLog,
    /// Index of the matched target in the caller's target list.
    pub target: usize,
    /// The match: the target's variables mapped into `instance`, extending
    /// the target's seed.
    pub homomorphism: Homomorphism,
}

/// Like [`decide_from_instance_any`], but the chase records its
/// derivations, and a match comes back as a [`ContainmentProof`]. The
/// chase and the verdict are those of [`decide_from_instance_any`]; there
/// is no proof when no target matched (including a vacuous `Holds` from an
/// FD failure).
pub fn decide_from_instance_any_with_proof(
    start: &Instance,
    targets: &[(&ConjunctiveQuery, &Homomorphism)],
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
) -> (ContainmentOutcome, Option<ContainmentProof>) {
    let mut log = ProofLog::new();
    let (outcome, matched) = decide_any(
        Cow::Borrowed(start),
        targets,
        constraints,
        values,
        config,
        completeness_depth,
        Some(&mut log),
    );
    let proof = matched.map(|(target, homomorphism, instance)| ContainmentProof {
        instance: instance.expect("a proof run keeps its instance"),
        log,
        target,
        homomorphism,
    });
    (outcome, proof)
}

/// The shared body of the `decide_from_instance_any` entry points: chases
/// `start` (recording into `proof` when given) and returns the outcome with
/// the first matching target, its match, and — on a proof run — the chased
/// instance. An owned `start` is chased in place (see
/// [`rbqa_chase::chase_owned`]).
#[allow(clippy::type_complexity)]
pub(crate) fn decide_any(
    start: Cow<'_, Instance>,
    targets: &[(&ConjunctiveQuery, &Homomorphism)],
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    completeness_depth: Option<usize>,
    proof: Option<&mut ProofLog>,
) -> (
    ContainmentOutcome,
    Option<(usize, Homomorphism, Option<Instance>)>,
) {
    if let Some(stopped) = ContainmentOutcome::on_expired_deadline() {
        return (stopped, None);
    }
    let keep_instance = proof.is_some();
    let outcome = match (proof, start) {
        (Some(log), start) => chase_with_proof(&start, constraints, values, config, log),
        (None, Cow::Borrowed(start)) => chase(start, constraints, values, config),
        (None, Cow::Owned(start)) => chase_owned(start, constraints, values, config),
    };

    if outcome.is_fd_failure() {
        // Q ∧ Σ is unsatisfiable: containment holds vacuously.
        return (
            ContainmentOutcome {
                verdict: Verdict::Holds,
                chase_completion: outcome.completion,
                chase_stats: outcome.stats,
                chased_facts: outcome.instance.len(),
                complete: true,
            },
            None,
        );
    }

    let matched = {
        // The chase above is attributed to `Phase::Chase` by the chase
        // crate; only the target-match search is containment self-time.
        let mut obs = rbqa_obs::phase_span("containment_match", rbqa_obs::Phase::Containment);
        obs.num("targets", targets.len() as u64);
        obs.num("facts", outcome.instance.len() as u64);
        targets.iter().enumerate().find_map(|(index, (rhs, seed))| {
            find_homomorphism(&rhs.boolean_closure(), &outcome.instance, seed)
                .map(|hom| (index, hom))
        })
    };
    let saturated = outcome.completion == Completion::Saturated;
    // A missing match is only certified when the chase explored everything
    // up to the depth cap (it was not stopped by another budget) *and* the
    // cap reaches the caller-supplied completeness depth.
    let depth_complete = match completeness_depth {
        Some(required) => {
            outcome.completion.explored_to_depth_cap() && config.budget.max_depth >= required
        }
        None => false,
    };
    let complete = saturated || depth_complete;

    let verdict = if matched.is_some() {
        Verdict::Holds
    } else if complete {
        Verdict::DoesNotHold
    } else {
        Verdict::Unknown
    };

    let decided = ContainmentOutcome {
        verdict,
        chase_completion: outcome.completion,
        chase_stats: outcome.stats,
        chased_facts: outcome.instance.len(),
        complete,
    };
    let instance = keep_instance.then_some(outcome.instance);
    (decided, matched.map(|(index, hom)| (index, hom, instance)))
}

/// Decides the containment problem using only chase saturation as the
/// completeness criterion.
pub fn decide(
    problem: &ContainmentProblem,
    values: &mut ValueFactory,
    config: ChaseConfig,
) -> ContainmentOutcome {
    decide_with_completeness(problem, values, config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_chase::Budget;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::{parse_cq, parse_fd, parse_tgd};

    fn config() -> ChaseConfig {
        ChaseConfig::with_budget(Budget::generous())
    }

    #[test]
    fn containment_without_constraints_is_homomorphism_check() {
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        // Q :- E(x, y), E(y, z)     Q' :- E(u, v)
        let lhs = parse_cq("Q() :- E(x, y), E(y, z)", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- E(u, v)", &mut sig, &mut vf).unwrap();
        let problem = ContainmentProblem {
            signature: sig.clone(),
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            constraints: ConstraintSet::new(),
        };
        let out = decide(&problem, &mut vf, config());
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.complete);

        // The converse direction does not hold.
        let problem = ContainmentProblem {
            signature: sig,
            lhs: rhs,
            rhs: lhs,
            constraints: ConstraintSet::new(),
        };
        let out = decide(&problem, &mut vf, config());
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
    }

    #[test]
    fn id_constraint_makes_containment_hold() {
        // Σ: Udirectory(i, a, p) -> Prof(i, n, s) (referential constraint of
        // Example 1.1). Then ∃ Udirectory ⊆_Σ ∃ Prof.
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- Prof(i2, n, s)", &mut sig, &mut vf).unwrap();
        let tgd = parse_tgd("Udirectory(i, a, p) -> Prof(i, n, s)", &mut sig, &mut vf).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(tgd);
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        let out = decide(&problem, &mut vf, config());
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.chase_stats.tgd_firings >= 1);
    }

    #[test]
    fn fd_constraint_merges_nulls_to_entail_rhs() {
        // Σ: FD R: 1 -> 2. Q :- R(x, y), R(x, z), S(y)  entails  Q' :- R(x, z), S(z).
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, y), R(x, z), S(y)", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- R(x, z), S(z)", &mut sig, &mut vf).unwrap();
        let fd = parse_fd("FD R: 1 -> 2", &mut sig).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(fd);
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        let out = decide(&problem, &mut vf, config());
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.chase_stats.fd_unifications >= 1);
    }

    #[test]
    fn unsatisfiable_lhs_gives_vacuous_containment() {
        // Σ: FD R: 1 -> 2. Q uses two distinct constants for the same key,
        // so Q ∧ Σ is unsatisfiable and containment holds vacuously.
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, 'a'), R(x, 'b')", &mut sig, &mut vf).unwrap();
        let rhs = parse_cq("Q() :- T(u)", &mut sig, &mut vf).unwrap();
        let fd = parse_fd("FD R: 1 -> 2", &mut sig).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(fd);
        let problem = ContainmentProblem {
            signature: sig,
            lhs,
            rhs,
            constraints,
        };
        let out = decide(&problem, &mut vf, config());
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.complete);
    }

    #[test]
    fn cyclic_ids_give_unknown_without_completeness_bound() {
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
        let budget = Budget::small().with_max_depth(5);
        let out = decide(&problem, &mut vf, ChaseConfig::with_budget(budget));
        assert_eq!(out.verdict, Verdict::Unknown);
        assert!(!out.complete);

        // With an explicit completeness bound below the cap, the same run is
        // decisive.
        let out =
            decide_with_completeness(&problem, &mut vf, ChaseConfig::with_budget(budget), Some(4));
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
    }

    #[test]
    fn any_target_match_decides_the_disjunction() {
        // Σ: R(x, y) -> S(x). CanonDB(∃ R) satisfies neither T nor U, but
        // chasing derives S — so the disjunction (T ∨ S ∨ U) holds, matched
        // at index 1, while (T ∨ U) definitively does not.
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, y)", &mut sig, &mut vf).unwrap();
        let t = parse_cq("Q() :- T(u)", &mut sig, &mut vf).unwrap();
        let s = parse_cq("Q() :- S(u)", &mut sig, &mut vf).unwrap();
        let u = parse_cq("Q() :- U(u)", &mut sig, &mut vf).unwrap();
        let tgd = parse_tgd("R(x, y) -> S(x)", &mut sig, &mut vf).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(tgd);
        let canon = lhs.canonical_database(&sig, &mut vf);

        let empty_seed = Homomorphism::default();
        let targets: Vec<(&ConjunctiveQuery, &Homomorphism)> =
            vec![(&t, &empty_seed), (&s, &empty_seed), (&u, &empty_seed)];
        let (out, matched) = decide_from_instance_any(
            &canon.instance,
            &targets,
            &constraints,
            &mut vf,
            config(),
            None,
        );
        assert_eq!(out.verdict, Verdict::Holds);
        assert_eq!(matched, Some(1));

        let (out, matched) = decide_from_instance_any(
            &canon.instance,
            &targets[..1],
            &constraints,
            &mut vf,
            config(),
            None,
        );
        assert_eq!(out.verdict, Verdict::DoesNotHold);
        assert!(out.complete);
        assert_eq!(matched, None);
    }

    #[test]
    fn rhs_with_constant_requires_that_constant() {
        let mut sig = Signature::new();
        let mut vf = ValueFactory::new();
        let lhs = parse_cq("Q() :- R(x, 'a')", &mut sig, &mut vf).unwrap();
        let rhs_same = parse_cq("Q() :- R(y, 'a')", &mut sig, &mut vf).unwrap();
        let rhs_diff = parse_cq("Q() :- R(y, 'b')", &mut sig, &mut vf).unwrap();
        let p1 = ContainmentProblem {
            signature: sig.clone(),
            lhs: lhs.clone(),
            rhs: rhs_same,
            constraints: ConstraintSet::new(),
        };
        assert_eq!(decide(&p1, &mut vf, config()).verdict, Verdict::Holds);
        let p2 = ContainmentProblem {
            signature: sig,
            lhs,
            rhs: rhs_diff,
            constraints: ConstraintSet::new(),
        };
        assert_eq!(decide(&p2, &mut vf, config()).verdict, Verdict::DoesNotHold);
    }
}
