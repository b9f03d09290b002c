//! The monotone answerability decision pipeline (Table 1).
//!
//! [`decide_monotone_answerability`] classifies the schema's constraints,
//! applies the schema simplification recommended by the paper, reduces to
//! the AMonDet query containment (Section 3), and dispatches to the
//! containment back-end matching the constraint class:
//!
//! | class                  | simplification   | back-end                               |
//! |------------------------|------------------|----------------------------------------|
//! | no constraints / IDs   | existence-check  | linearization + depth-bounded chase    |
//! | FDs                    | FD               | terminating chase                      |
//! | UIDs + FDs             | choice           | separability rewriting + budgeted chase|
//! | (frontier-guarded) TGDs| choice           | budgeted chase                         |
//! | other mixes            | choice           | budgeted chase (best effort)           |
//!
//! Positive and negative answers are certified whenever the back-end is
//! complete for the class (saturation, or the Johnson–Klug depth bound for
//! IDs); otherwise the result is [`Answerability::Unknown`].

use rbqa_access::{Plan, Schema};
use rbqa_chase::{Budget, ChaseConfig};
use rbqa_common::ValueFactory;
use rbqa_containment::linearization::LinearizedSchema;
use rbqa_containment::saturation::MethodSignature;
use rbqa_containment::{ContainmentOutcome, Verdict};
use rbqa_logic::{ConjunctiveQuery, UnionOfConjunctiveQueries};

use crate::amondet::{AmondetProblem, AxiomStyle};
use crate::classify::{classify_constraints, ConstraintClass};
use crate::plan_synthesis::synthesize_crawling_plan;
use crate::simplification::{fd_simplification, SimplificationKind};

/// The outcome of an answerability decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answerability {
    /// The query is monotone answerable over the schema.
    Answerable,
    /// The query is not monotone answerable over the schema.
    NotAnswerable,
    /// The decision procedure ran out of budget (or the class has no
    /// complete procedure in this implementation).
    Unknown,
}

/// The back-end strategy used for the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Linearization of Proposition 5.5 plus depth-bounded chase
    /// (IDs / no constraints).
    IdLinearization,
    /// FD simplification plus the terminating chase of Theorem 5.2.
    FdSimplificationChase,
    /// Choice simplification plus the separability rewriting of Theorem 7.2
    /// (UIDs + FDs).
    ChoiceSeparabilityChase,
    /// Choice simplification plus the generic budgeted chase (TGDs, mixes).
    ChoiceChase,
    /// The caller forced a specific axiomatisation style (ablation mode).
    ForcedAxiomStyle,
}

/// Options controlling the decision.
#[derive(Debug, Clone, Copy)]
pub struct AnswerabilityOptions {
    /// Budget for the underlying chase.
    pub budget: Budget,
    /// When set, bypass the class dispatch and use the given AMonDet
    /// axiomatisation style directly with the generic chase (used by the
    /// naive-cardinality ablation test).
    pub axiom_style_override: Option<AxiomStyle>,
    /// Whether to synthesise a crawling plan when the query is answerable.
    pub synthesize_plan: bool,
    /// Number of crawl rounds used for plan synthesis (0 = derive from the
    /// containment chase depth).
    pub crawl_rounds: usize,
}

impl Default for AnswerabilityOptions {
    fn default() -> Self {
        AnswerabilityOptions {
            budget: Budget::generous(),
            axiom_style_override: None,
            synthesize_plan: false,
            crawl_rounds: 0,
        }
    }
}

impl AnswerabilityOptions {
    /// The chase configuration implied by these options (FD chasing on).
    pub fn chase_config(&self) -> ChaseConfig {
        ChaseConfig::with_budget(self.budget)
    }
}

/// The result of an answerability decision.
#[derive(Debug, Clone)]
pub struct AnswerabilityResult {
    /// The verdict.
    pub answerability: Answerability,
    /// The detected constraint class.
    pub constraint_class: ConstraintClass,
    /// The schema simplification that was applied.
    pub simplification: SimplificationKind,
    /// The back-end strategy used.
    pub strategy: Strategy,
    /// The underlying containment outcome (chase statistics, completeness).
    pub containment: ContainmentOutcome,
    /// A synthesised crawling plan, when requested and the query is
    /// answerable.
    pub plan: Option<Plan>,
}

impl AnswerabilityResult {
    /// Whether the query was certified answerable.
    pub fn is_answerable(&self) -> bool {
        self.answerability == Answerability::Answerable
    }

    /// A cheap `Copy` snapshot of the decision, suitable for caching layers
    /// and service responses that must hand results to many concurrent
    /// readers without cloning the plan or the chase diagnostics
    /// (`rbqa-service` stores the full result behind an `Arc` and copies
    /// this summary into every response).
    pub fn summary(&self) -> DecisionSummary {
        DecisionSummary {
            answerability: self.answerability,
            constraint_class: self.constraint_class,
            simplification: self.simplification,
            strategy: self.strategy,
            complete: self.containment.complete,
            chase_rounds: self.containment.chase_stats.rounds,
            chased_facts: self.containment.chased_facts,
            has_plan: self.plan.is_some(),
        }
    }
}

/// A flat, `Copy` summary of an [`AnswerabilityResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionSummary {
    /// The verdict.
    pub answerability: Answerability,
    /// The detected constraint class.
    pub constraint_class: ConstraintClass,
    /// The schema simplification that was applied.
    pub simplification: SimplificationKind,
    /// The back-end strategy used.
    pub strategy: Strategy,
    /// Whether the (negative) answer is certified complete.
    pub complete: bool,
    /// Chase rounds performed by the decision.
    pub chase_rounds: usize,
    /// Facts in the chased instance when the decision was made.
    pub chased_facts: usize,
    /// Whether a crawling plan was synthesised.
    pub has_plan: bool,
}

fn verdict_to_answerability(verdict: Verdict) -> Answerability {
    match verdict {
        Verdict::Holds => Answerability::Answerable,
        Verdict::DoesNotHold => Answerability::NotAnswerable,
        Verdict::Unknown => Answerability::Unknown,
    }
}

/// Converts the schema's access methods into the abstract method signatures
/// used by the saturation / linearization machinery.
fn method_signatures(schema: &Schema) -> Vec<MethodSignature> {
    schema
        .methods()
        .iter()
        .map(|m| {
            MethodSignature::new(
                m.relation(),
                &m.input_positions_vec(),
                m.is_result_bounded(),
            )
        })
        .collect()
}

/// Decides whether `query` is monotone answerable over `schema`.
///
/// `values` must be the value factory that interned the constants of
/// `query` (and of any instances the caller wants to keep consistent).
pub fn decide_monotone_answerability(
    schema: &Schema,
    query: &ConjunctiveQuery,
    values: &mut ValueFactory,
    options: &AnswerabilityOptions,
) -> AnswerabilityResult {
    let class = classify_constraints(schema.constraints());
    decide_in_class(schema, class, query, values, options)
}

/// The per-CQ pipeline over a schema already classified as `class`.
fn decide_in_class(
    schema: &Schema,
    class: ConstraintClass,
    query: &ConjunctiveQuery,
    values: &mut ValueFactory,
    options: &AnswerabilityOptions,
) -> AnswerabilityResult {
    // Pipeline-level span: the chase / FD-fixpoint / saturation /
    // containment work below attributes itself to its own phases, and the
    // linearization build and completeness bound have their own spans, so
    // this span's self-time is simplification and AMonDet axiom
    // construction ("other" in the phase breakdown).
    let mut obs = rbqa_obs::span("decide");
    let (simplification, strategy) = match (options.axiom_style_override, class) {
        // Ablation mode: forced axiomatisation style, no simplification.
        (Some(_), _) => (SimplificationKind::None, Strategy::ForcedAxiomStyle),
        (None, ConstraintClass::NoConstraints | ConstraintClass::IdsOnly { .. }) => (
            SimplificationKind::ExistenceCheck,
            Strategy::IdLinearization,
        ),
        (None, ConstraintClass::FdsOnly) => {
            (SimplificationKind::Fd, Strategy::FdSimplificationChase)
        }
        (None, ConstraintClass::UidsAndFds) => (
            SimplificationKind::Choice,
            Strategy::ChoiceSeparabilityChase,
        ),
        (
            None,
            ConstraintClass::FrontierGuardedTgds
            | ConstraintClass::ArbitraryTgds
            | ConstraintClass::Mixed,
        ) => (SimplificationKind::Choice, Strategy::ChoiceChase),
    };
    obs.str(
        "strategy",
        match strategy {
            Strategy::IdLinearization => "id_linearization",
            Strategy::FdSimplificationChase => "fd_simplification_chase",
            Strategy::ChoiceSeparabilityChase => "choice_separability_chase",
            Strategy::ChoiceChase => "choice_chase",
            Strategy::ForcedAxiomStyle => "forced_axiom_style",
        },
    );
    let result = |containment: ContainmentOutcome, plan| AnswerabilityResult {
        answerability: verdict_to_answerability(containment.verdict),
        constraint_class: class,
        simplification,
        strategy,
        containment,
        plan,
    };

    // An expired request deadline stops the pipeline before each stage
    // that runs ahead of the chase, not only at the next chase round.
    if let Some(stopped) = ContainmentOutcome::on_expired_deadline() {
        return result(stopped, None);
    }
    // No stage below reads a result bound as an upper bound: the method
    // signatures, the FD simplification and the axioms only ask whether a
    // method is bounded, the choice simplification sets every bound to 1,
    // and the naive ablation reads only the limit. So `ElimUB`
    // (Proposition 3.3) holds without building the relaxed schema.

    let containment = match strategy {
        Strategy::ForcedAxiomStyle => {
            let style = options
                .axiom_style_override
                .expect("the forced strategy is chosen only with a style");
            let problem = AmondetProblem::build(schema, query, values, style);
            problem.decide(values, options.chase_config())
        }
        Strategy::IdLinearization => {
            // Existence-check simplifiability (Theorem 4.2) is realised
            // directly by the linearization, which handles result-bounded
            // methods through the result-bounded fact-transfer rules
            // (Appendix E.5.2).
            let width = schema.constraints().max_id_width();
            let lin = LinearizedSchema::build(
                schema.signature(),
                schema.constraints().tgds(),
                &method_signatures(schema),
                width,
            );
            lin.decide(query, query, values, options.chase_config())
        }
        Strategy::FdSimplificationChase => {
            // FD simplification (Theorem 4.5) removes every result bound;
            // the resulting chase terminates (Theorem 5.2).
            let simplified = fd_simplification(schema);
            let problem = AmondetProblem::build(&simplified, query, values, AxiomStyle::Simplified);
            problem.decide(values, options.chase_config())
        }
        Strategy::ChoiceSeparabilityChase => {
            // Choice simplification (Theorem 6.4) then the separability
            // rewriting of Theorem 7.2.
            let choice = schema.choice_simplification();
            let problem =
                AmondetProblem::build(&choice, query, values, AxiomStyle::SeparabilityRewriting);
            problem.decide(values, options.chase_config())
        }
        Strategy::ChoiceChase => {
            // Choice simplification (Theorem 6.3); the generic chase is
            // budgeted and may report Unknown.
            let choice = schema.choice_simplification();
            let problem = AmondetProblem::build(&choice, query, values, AxiomStyle::Simplified);
            problem.decide(values, options.chase_config())
        }
    };

    obs.num("chase_rounds", containment.chase_stats.rounds as u64);
    let answerability = verdict_to_answerability(containment.verdict);
    let plan = maybe_plan(schema, query, options, answerability, &containment);
    result(containment, plan)
}

/// Diagnostics of one cross-disjunct rescue attempt during a union decision:
/// disjunct `disjunct` was not answerable through its own Table-1 pipeline,
/// so the union containment was chased — `matched` records which disjunct of
/// the union (if any) recovered the answer.
#[derive(Debug, Clone)]
pub struct UnionRescue {
    /// Index of the disjunct whose canonical database was chased.
    pub disjunct: usize,
    /// The union containment outcome for that disjunct.
    pub outcome: ContainmentOutcome,
    /// Index of the disjunct whose primed copy matched, when one did.
    pub matched: Option<usize>,
}

/// The result of a monotone answerability decision for a **union** of
/// conjunctive queries (the paper states its results for UCQs throughout).
///
/// A union is monotone answerable iff *every* disjunct's canonical database,
/// chased under the AMonDet constraints, entails *some* disjunct of the
/// (primed) union. The decision first runs the full per-CQ Table-1 pipeline
/// on each disjunct — sound, and complete per class — and only for disjuncts
/// that fail on their own does it chase the union containment
/// ([`UnionRescue`]): a disjunct may be "rescued" by a cross-disjunct match.
#[derive(Debug, Clone)]
pub struct UnionAnswerabilityResult {
    /// The verdict for the union.
    pub answerability: Answerability,
    /// Whether the verdict is certified (positive verdicts are always sound;
    /// a negative or positive verdict is *complete* when every contributing
    /// chase saturated or reached its completeness depth).
    pub complete: bool,
    /// The detected constraint class (a property of the schema).
    pub constraint_class: ConstraintClass,
    /// Per-disjunct results of the standalone Table-1 pipeline, index-aligned
    /// with the union's disjuncts.
    pub disjuncts: Vec<AnswerabilityResult>,
    /// Cross-disjunct rescue attempts, for disjuncts not answerable alone.
    pub rescues: Vec<UnionRescue>,
}

impl UnionAnswerabilityResult {
    /// Whether the union was certified answerable.
    pub fn is_answerable(&self) -> bool {
        self.answerability == Answerability::Answerable
    }

    /// The synthesised plans of the disjuncts, in disjunct order, when every
    /// disjunct carries one. Executing all plans and unioning their rows
    /// computes the union query (each plan computes its disjunct exactly).
    /// `None` when some disjunct has no plan — in particular when a disjunct
    /// was only *rescued* (answerable as part of the union but not alone):
    /// plan synthesis for that case is not implemented.
    pub fn union_plans(&self) -> Option<Vec<&Plan>> {
        self.disjuncts
            .iter()
            .map(|r| r.plan.as_ref())
            .collect::<Option<Vec<_>>>()
    }

    /// Total chase rounds across all per-disjunct decisions and rescues.
    pub fn total_chase_rounds(&self) -> usize {
        self.disjuncts
            .iter()
            .map(|r| r.containment.chase_stats.rounds)
            .sum::<usize>()
            + self
                .rescues
                .iter()
                .map(|r| r.outcome.chase_stats.rounds)
                .sum::<usize>()
    }

    /// A flat, `Copy` summary of the union decision (the union analogue of
    /// [`AnswerabilityResult::summary`]). Simplification and strategy are
    /// taken from the first disjunct — the schema-determined parts of the
    /// pipeline are identical across disjuncts.
    pub fn summary(&self) -> DecisionSummary {
        let (simplification, strategy) = self
            .disjuncts
            .first()
            .map(|r| (r.simplification, r.strategy))
            .unwrap_or((SimplificationKind::None, Strategy::ChoiceChase));
        DecisionSummary {
            answerability: self.answerability,
            constraint_class: self.constraint_class,
            simplification,
            strategy,
            complete: self.complete,
            chase_rounds: self.total_chase_rounds(),
            chased_facts: self
                .disjuncts
                .iter()
                .map(|r| r.containment.chased_facts)
                .sum::<usize>()
                + self
                    .rescues
                    .iter()
                    .map(|r| r.outcome.chased_facts)
                    .sum::<usize>(),
            has_plan: !self.disjuncts.is_empty() && self.union_plans().is_some(),
        }
    }
}

/// Decides whether the union query is monotone answerable over `schema`.
///
/// The empty union (constantly false) is trivially answerable by the empty
/// plan. The schema is classified once; a single disjunct then runs the
/// per-CQ pipeline of [`decide_monotone_answerability`] unchanged. For
/// larger unions, each disjunct runs the full per-CQ pipeline; disjuncts
/// that are not answerable alone get a *union rescue* chase — the AMonDet
/// containment over the choice-simplified schema whose right-hand side is
/// the whole primed union and whose accessible seed includes every
/// constant of the union. The union is:
///
/// * `Answerable` when every disjunct is answerable alone or rescued;
/// * `NotAnswerable` when some disjunct's union containment definitively
///   fails (the rescue chase was complete and matched nothing);
/// * `Unknown` otherwise (some disjunct unresolved within budget).
pub fn decide_monotone_answerability_union(
    schema: &Schema,
    union: &UnionOfConjunctiveQueries,
    values: &mut ValueFactory,
    options: &AnswerabilityOptions,
) -> UnionAnswerabilityResult {
    let mut obs = rbqa_obs::span("decide_union");
    obs.num("disjuncts", union.len() as u64);
    let class = classify_constraints(schema.constraints());
    if union.is_empty() {
        return UnionAnswerabilityResult {
            answerability: Answerability::Answerable,
            complete: true,
            constraint_class: class,
            disjuncts: Vec::new(),
            rescues: Vec::new(),
        };
    }
    // Malformed unions cannot be decided soundly: disjuncts disagreeing on
    // answer arity have no positional correspondence between answer tuples,
    // and a free variable missing from its disjunct's body would be frozen
    // into no canonical-database value (the rescue's positional seeds would
    // silently under-constrain, risking a wrong certificate). The
    // sanctioned construction paths (`rbqa-api` builder, `rbqa-service`
    // shape validation, the parser) reject both before reaching this
    // function; for direct callers the verdict is an uncertified `Unknown`
    // rather than a wrong certificate.
    let unsafe_free_vars = union.disjuncts().iter().any(|q| {
        let body_vars = q.all_variables();
        q.free_vars().iter().any(|v| !body_vars.contains(v))
    });
    if union.uniform_free_arity().is_none() || unsafe_free_vars {
        return UnionAnswerabilityResult {
            answerability: Answerability::Unknown,
            complete: false,
            constraint_class: class,
            disjuncts: Vec::new(),
            rescues: Vec::new(),
        };
    }

    let disjuncts: Vec<AnswerabilityResult> = union
        .disjuncts()
        .iter()
        .map(|q| decide_in_class(schema, class, q, values, options))
        .collect();

    let mut rescues = Vec::new();
    let mut any_certified_fail = false;
    let mut any_unresolved = false;

    if union.len() > 1 {
        // Cross-disjunct rescue for disjuncts that fail alone. The choice
        // simplification is sound for every constraint class (Thms
        // 6.3/6.4, with ElimUB of Prop. 3.3 implicit as in the per-CQ
        // pipeline), so the generic budgeted chase over the simplified
        // schema is a sound union check; it is complete whenever
        // that chase saturates. The axiomatisation style must match the
        // class, exactly as in the per-CQ dispatch: for UIDs + FDs the
        // plain simplified axioms under-derive (the separability rewriting
        // of Thm 7.2 additionally exports FD-determined positions), so a
        // saturated no-match under them would be a wrong negative
        // certificate.
        let rescue_style = match class {
            ConstraintClass::UidsAndFds => AxiomStyle::SeparabilityRewriting,
            _ => AxiomStyle::Simplified,
        };
        let mut choice = None;
        for (i, own) in disjuncts.iter().enumerate() {
            if own.answerability == Answerability::Answerable {
                continue;
            }
            // An expired deadline leaves this disjunct (and the rest)
            // unresolved instead of building another rescue problem.
            if ContainmentOutcome::on_expired_deadline().is_some() {
                any_unresolved = true;
                break;
            }
            let choice = choice.get_or_insert_with(|| schema.choice_simplification());
            let mut problem =
                AmondetProblem::build(choice, &union.disjuncts()[i], values, rescue_style);
            problem.seed_accessible(&union.constants());
            let targets = problem.union_targets(union.disjuncts());
            let (outcome, matched) = problem.decide_union(&targets, values, options.chase_config());
            match outcome.verdict {
                Verdict::Holds => {}
                Verdict::DoesNotHold if outcome.complete => any_certified_fail = true,
                _ => any_unresolved = true,
            }
            rescues.push(UnionRescue {
                disjunct: i,
                outcome,
                matched,
            });
        }
    } else if disjuncts[0].answerability != Answerability::Answerable {
        // Single disjunct: the per-CQ pipeline *is* the union decision.
        match disjuncts[0].answerability {
            Answerability::NotAnswerable => any_certified_fail = true,
            _ => any_unresolved = true,
        }
    }

    let answerability = if any_certified_fail {
        Answerability::NotAnswerable
    } else if any_unresolved {
        Answerability::Unknown
    } else {
        Answerability::Answerable
    };

    UnionAnswerabilityResult {
        answerability,
        // Positive verdicts are sound by construction (a match in any chase
        // prefix is a proof); negatives are only produced from complete
        // chases. Only `Unknown` is uncertified.
        complete: answerability != Answerability::Unknown,
        constraint_class: class,
        disjuncts,
        rescues,
    }
}

fn maybe_plan(
    schema: &Schema,
    query: &ConjunctiveQuery,
    options: &AnswerabilityOptions,
    answerability: Answerability,
    containment: &ContainmentOutcome,
) -> Option<Plan> {
    if !options.synthesize_plan || answerability != Answerability::Answerable {
        return None;
    }
    let rounds = if options.crawl_rounds > 0 {
        options.crawl_rounds
    } else {
        // Enough rounds to replay the accessibility derivations observed in
        // the containment chase, with a small floor.
        (containment.chase_stats.max_depth_reached + 1).max(2)
    };
    synthesize_crawling_plan(schema, query, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::AccessMethod;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::{parse_cq, parse_tgd};
    use rbqa_logic::Fd;

    /// Example 1.1 schema with the referential constraint τ.
    fn university(ud_bound: Option<usize>) -> Schema {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match ud_bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        schema
    }

    #[test]
    fn example_1_2_answerable_without_bounds() {
        let schema = university(None);
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let result =
            decide_monotone_answerability(&schema, &q1, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.strategy, Strategy::IdLinearization);
        assert_eq!(result.simplification, SimplificationKind::ExistenceCheck);
        assert!(matches!(
            result.constraint_class,
            ConstraintClass::IdsOnly { max_width: 1 }
        ));
    }

    #[test]
    fn example_1_3_not_answerable_with_bound() {
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let result =
            decide_monotone_answerability(&schema, &q1, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.answerability, Answerability::NotAnswerable);
        assert!(result.containment.complete);
    }

    #[test]
    fn example_1_4_existence_check_answerable_with_bound() {
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let result =
            decide_monotone_answerability(&schema, &q2, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.answerability, Answerability::Answerable);
    }

    #[test]
    fn result_bound_value_does_not_change_the_answer() {
        // Theorems 4.2 / 6.3: the value of the bound never matters.
        for bound in [1, 2, 10, 1000, 5000] {
            let schema = university(Some(bound));
            let mut vf = ValueFactory::new();
            let mut sig = schema.signature().clone();
            let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
            let r2 = decide_monotone_answerability(
                &schema,
                &q2,
                &mut vf,
                &AnswerabilityOptions::default(),
            );
            assert_eq!(r2.answerability, Answerability::Answerable, "bound {bound}");

            let mut vf = ValueFactory::new();
            let mut sig = schema.signature().clone();
            let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
            let r1 = decide_monotone_answerability(
                &schema,
                &q1,
                &mut vf,
                &AnswerabilityOptions::default(),
            );
            assert_eq!(
                r1.answerability,
                Answerability::NotAnswerable,
                "bound {bound}"
            );
        }
    }

    #[test]
    fn example_1_5_fd_schema_uses_fd_simplification() {
        // FD id -> address on Udirectory, method ud2 keyed on id, bound 1.
        let mut sig = Signature::new();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(Fd::new(udir, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], 1))
            .unwrap();

        let mut vf = ValueFactory::new();
        let mut sig2 = schema.signature().clone();
        let q3 = parse_cq(
            "Q() :- Udirectory('12345', 'mainst', p)",
            &mut sig2,
            &mut vf,
        )
        .unwrap();
        let result =
            decide_monotone_answerability(&schema, &q3, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.strategy, Strategy::FdSimplificationChase);
        assert_eq!(result.simplification, SimplificationKind::Fd);
        assert_eq!(result.constraint_class, ConstraintClass::FdsOnly);

        // Asking for a specific phone number (not determined) is not
        // answerable.
        let q_phone = parse_cq("Q() :- Udirectory('12345', a, '555')", &mut sig2, &mut vf).unwrap();
        let result = decide_monotone_answerability(
            &schema,
            &q_phone,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::NotAnswerable);
    }

    #[test]
    fn example_6_1_tgd_schema_answerable_via_choice() {
        // Example 6.1: constraints T(y), S(x) -> T(x) and T(y) -> ∃x S(x);
        // method mtS on S input-free with bound 1, Boolean method mtT on T;
        // Q = ∃y T(y) is answerable.
        let mut sig = Signature::new();
        let s = sig.add_relation("S", 1).unwrap();
        let t = sig.add_relation("T", 1).unwrap();
        let mut vf = ValueFactory::new();
        let mut constraints = ConstraintSet::new();
        let mut sig_for_parse = sig.clone();
        constraints.push_tgd(parse_tgd("T(y), S(x) -> T(x)", &mut sig_for_parse, &mut vf).unwrap());
        constraints.push_tgd(parse_tgd("T(y) -> S(x)", &mut sig_for_parse, &mut vf).unwrap());
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("mtS", s, &[], 1))
            .unwrap();
        schema
            .add_method(AccessMethod::unbounded("mtT", t, &[0]))
            .unwrap();

        let q = parse_cq("Q() :- T(y)", &mut sig_for_parse, &mut vf).unwrap();
        let result =
            decide_monotone_answerability(&schema, &q, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.simplification, SimplificationKind::Choice);
    }

    #[test]
    fn plan_synthesis_on_request() {
        let schema = university(None);
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            crawl_rounds: 2,
            ..Default::default()
        };
        let result = decide_monotone_answerability(&schema, &q1, &mut vf, &options);
        assert!(result.is_answerable());
        let plan = result.plan.expect("plan requested for answerable query");
        assert!(plan.validate(&schema).is_ok());
        assert!(plan.access_command_count() > 0);
    }

    #[test]
    fn forced_naive_style_is_consistent_with_the_pipeline() {
        let schema = university(Some(8));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let options = AnswerabilityOptions {
            axiom_style_override: Some(AxiomStyle::NaiveCardinality { cap: 8 }),
            budget: Budget::small(),
            ..Default::default()
        };
        let result = decide_monotone_answerability(&schema, &q2, &mut vf, &options);
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.strategy, Strategy::ForcedAxiomStyle);
        assert_eq!(result.simplification, SimplificationKind::None);
    }

    #[test]
    fn union_of_answerable_disjuncts_is_answerable_with_plans() {
        let schema = university(None);
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let q2 = parse_cq("Q(a) :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]);
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            crawl_rounds: 2,
            ..Default::default()
        };
        let result = decide_monotone_answerability_union(&schema, &union, &mut vf, &options);
        assert_eq!(result.answerability, Answerability::Answerable);
        assert!(result.complete);
        assert!(result.rescues.is_empty());
        let plans = result.union_plans().expect("both disjuncts carry plans");
        assert_eq!(plans.len(), 2);
        assert!(result.summary().has_plan);
    }

    #[test]
    fn union_with_unanswerable_disjunct_is_not_answerable() {
        // Salary names and directory addresses are both non-Boolean and
        // neither is answerable over the bounded schema (the listing may
        // drop rows); no cross-disjunct match can recover the frozen answer
        // values, so the union is definitively NotAnswerable.
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let q2 = parse_cq("Q(a) :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]);
        let result = decide_monotone_answerability_union(
            &schema,
            &union,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::NotAnswerable);
        assert!(result.complete);
        assert_eq!(result.rescues.len(), 2);
        assert!(result.rescues.iter().all(|r| r.matched.is_none()));
    }

    #[test]
    fn constraint_subsumed_boolean_disjunct_rides_the_union() {
        // Q1 = ∃ Prof with salary 10000 is not answerable alone over the
        // bounded schema, but under τ every Prof row yields a Udirectory
        // row, so Q1 ⊨_Σ Q2 = ∃ Udirectory — the chase of CanonDB(Q1)
        // satisfies Q2', and the union is answerable (it is equivalent to
        // the answerable Q2 under the constraints).
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q() :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]);
        let result = decide_monotone_answerability_union(
            &schema,
            &union,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.rescues.len(), 1);
        assert_eq!(result.rescues[0].matched, Some(1));
    }

    #[test]
    fn cross_disjunct_match_rescues_a_disjunct() {
        // Boolean disjuncts Q1 = ∃ Prof and Q2 = ∃ Udirectory over the
        // bounded schema. Q1 alone is answerable? ∃ Prof requires knowing a
        // professor id (pr needs an input), so Q1 alone is NOT answerable —
        // but the referential constraint Prof ⊆ Udirectory means CanonDB(Q1)
        // chases into a Udirectory fact, and the result-bounded ud method
        // makes ∃ Udirectory accessible: Q2's primed copy matches, so the
        // union IS answerable.
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q() :- Prof(i, n, s)", &mut sig, &mut vf).unwrap();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();

        // Sanity: Q1 alone is not answerable.
        let alone =
            decide_monotone_answerability(&schema, &q1, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(alone.answerability, Answerability::NotAnswerable);

        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]);
        let result = decide_monotone_answerability_union(
            &schema,
            &union,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::Answerable);
        assert_eq!(result.rescues.len(), 1);
        assert_eq!(result.rescues[0].matched, Some(1), "rescued by Q2'");
        // A rescued disjunct has no standalone plan, so no union plan.
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            ..Default::default()
        };
        let with_plans = decide_monotone_answerability_union(&schema, &union, &mut vf, &options);
        assert!(with_plans.is_answerable());
        assert!(with_plans.union_plans().is_none());
        assert!(!with_plans.summary().has_plan);
    }

    #[test]
    fn arity_mismatched_union_is_uncertified_unknown() {
        // The sanctioned entry points reject mixed-arity unions before they
        // reach core; a direct caller gets an uncertified Unknown, never a
        // wrong certificate (a truncated positional seed would otherwise
        // let a Boolean disjunct "rescue" a non-Boolean one).
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let union = UnionOfConjunctiveQueries::from_disjuncts(vec![q1, q2]);
        let result = decide_monotone_answerability_union(
            &schema,
            &union,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::Unknown);
        assert!(!result.complete);
        assert!(result.disjuncts.is_empty());
    }

    #[test]
    fn empty_union_is_trivially_answerable() {
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let union = UnionOfConjunctiveQueries::new();
        let result = decide_monotone_answerability_union(
            &schema,
            &union,
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(result.answerability, Answerability::Answerable);
        assert!(result.complete);
        assert!(!result.summary().has_plan);
    }

    #[test]
    fn single_disjunct_union_matches_the_cq_decision() {
        let schema = university(Some(100));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let cq =
            decide_monotone_answerability(&schema, &q, &mut vf, &AnswerabilityOptions::default());
        let union = decide_monotone_answerability_union(
            &schema,
            &UnionOfConjunctiveQueries::single(q),
            &mut vf,
            &AnswerabilityOptions::default(),
        );
        assert_eq!(union.answerability, cq.answerability);
        assert_eq!(union.disjuncts.len(), 1);
        assert!(union.rescues.is_empty());
        assert_eq!(union.summary().strategy, cq.strategy);
    }

    #[test]
    fn uids_and_fds_schema_uses_separability() {
        // R(a, b) with UID into S(a) and FD on R; a result-bounded method on
        // R keyed on position 0 and an unbounded method on S.
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 1).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[0], s, &[0]));
        constraints.push_fd(Fd::new(r, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::bounded("mr", r, &[0], 7))
            .unwrap();
        schema
            .add_method(AccessMethod::unbounded("ms", s, &[]))
            .unwrap();

        let mut vf = ValueFactory::new();
        let mut sig2 = schema.signature().clone();
        // Is ('k', 'v') in R? The FD makes the single returned tuple carry
        // the value determined by 'k', so this is answerable.
        let q = parse_cq("Q() :- R('k', 'v')", &mut sig2, &mut vf).unwrap();
        let result =
            decide_monotone_answerability(&schema, &q, &mut vf, &AnswerabilityOptions::default());
        assert_eq!(result.constraint_class, ConstraintClass::UidsAndFds);
        assert_eq!(result.strategy, Strategy::ChoiceSeparabilityChase);
        assert_eq!(result.answerability, Answerability::Answerable);
    }
}
