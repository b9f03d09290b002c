//! Empirical plan validation.
//!
//! A plan *answers* a query when, on every instance satisfying the
//! constraints and under every valid access selection, its output equals the
//! query's answer (paper, Section 2). The harness below checks this
//! empirically: it executes the plan under several access selections on each
//! supplied instance and compares the outputs against the query evaluated
//! directly on the instance. It reports the first counterexample found, or
//! success over all trials. This is how the synthesised crawling plans of
//! `rbqa-core` are vetted (they are produced heuristically rather than
//! extracted from proofs — see DESIGN.md).

use rbqa_access::backend::{AccessBackend, InstanceBackend, RecordingBackend, ShardedBackend};
use rbqa_access::plan::execute_with_backend;
use rbqa_access::{
    AccessSelection, AdversarialSelection, GreedySelection, Plan, RandomSelection, Schema,
    TruncatingSelection,
};
use rbqa_common::{Instance, Value};
use rbqa_logic::{evaluate, ConjunctiveQuery};

/// The kind of discrepancy found by the validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discrepancy {
    /// The plan returned a tuple that is not an answer of the query
    /// (soundness violation — should never happen for crawling plans).
    Unsound {
        /// Index of the instance in the supplied list.
        instance_index: usize,
        /// Name of the selection under which the violation occurred.
        selection: String,
        /// The offending tuple.
        tuple: Vec<Value>,
    },
    /// The plan missed an answer of the query (completeness violation: the
    /// plan does not answer the query on this instance/selection).
    Incomplete {
        /// Index of the instance in the supplied list.
        instance_index: usize,
        /// Name of the selection under which the violation occurred.
        selection: String,
        /// The missed tuple.
        tuple: Vec<Value>,
    },
    /// The plan failed to execute (structural error).
    ExecutionError {
        /// Index of the instance in the supplied list.
        instance_index: usize,
        /// The error message.
        message: String,
    },
    /// Two backends disagreed where they must not: a replayed access trace
    /// produced different rows than the recorded live run.
    BackendMismatch {
        /// Index of the instance in the supplied list.
        instance_index: usize,
        /// Name of the offending backend.
        backend: String,
        /// What diverged.
        detail: String,
    },
}

/// The outcome of validating a plan.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Number of (instance, selection) trials executed.
    pub trials: usize,
    /// The first discrepancy found, if any.
    pub discrepancy: Option<Discrepancy>,
}

impl ValidationReport {
    /// Whether every trial agreed with the query answer.
    pub fn is_valid(&self) -> bool {
        self.discrepancy.is_none()
    }
}

/// Compares one run's output against the expected query answer:
/// soundness (every output tuple is an answer) then completeness (every
/// answer is output).
fn check_output(
    expected: &[Vec<Value>],
    output: &[Vec<Value>],
    instance_index: usize,
    selection: &str,
) -> Option<Discrepancy> {
    for tuple in output {
        if !expected.contains(tuple) {
            return Some(Discrepancy::Unsound {
                instance_index,
                selection: selection.to_owned(),
                tuple: tuple.clone(),
            });
        }
    }
    for tuple in expected {
        if !output.contains(tuple) {
            return Some(Discrepancy::Incomplete {
                instance_index,
                selection: selection.to_owned(),
                tuple: tuple.clone(),
            });
        }
    }
    None
}

/// Validates `plan` against `query` over the given instances.
///
/// For each instance, the plan is executed under a deterministic, an
/// adversarial, a greedy and `random_trials` seeded random access
/// selections; each output is compared with `query` evaluated directly on
/// the instance. The runs are then repeated **across backends**: a sharded
/// federation (2 and 3 shard views of the instance) — whose merged,
/// re-bounded accesses are themselves a valid access selection, so a valid
/// plan must still answer the query — and a record/replay pair, whose
/// replayed output must equal the recorded run exactly
/// ([`Discrepancy::BackendMismatch`] otherwise). Instances are assumed to
/// satisfy the schema's constraints (use `rbqa-engine::dataset`
/// generators).
pub fn validate_plan(
    schema: &Schema,
    plan: &Plan,
    query: &ConjunctiveQuery,
    instances: &[Instance],
    random_trials: usize,
) -> ValidationReport {
    let mut trials = 0;
    for (idx, instance) in instances.iter().enumerate() {
        // An unsafe query (free variable absent from the body) has no
        // defined answer to validate against; report it instead of
        // silently comparing to an empty answer set.
        let expected = match evaluate(query, instance) {
            Ok(rows) => rows,
            Err(e) => {
                return ValidationReport {
                    trials,
                    discrepancy: Some(Discrepancy::ExecutionError {
                        instance_index: idx,
                        message: format!("query evaluation failed: {e}"),
                    }),
                }
            }
        };
        let mut selections: Vec<(String, Box<dyn AccessSelection>)> = vec![
            (
                "truncating".to_owned(),
                Box::new(TruncatingSelection::new()),
            ),
            (
                "adversarial".to_owned(),
                Box::new(AdversarialSelection::new()),
            ),
            ("greedy".to_owned(), Box::new(GreedySelection::new())),
        ];
        for seed in 0..random_trials {
            selections.push((
                format!("random#{seed}"),
                Box::new(RandomSelection::new(seed as u64)),
            ));
        }
        for (name, mut selection) in selections {
            trials += 1;
            let run = match rbqa_access::plan::execute(plan, schema, instance, selection.as_mut()) {
                Ok(run) => run,
                Err(e) => {
                    return ValidationReport {
                        trials,
                        discrepancy: Some(Discrepancy::ExecutionError {
                            instance_index: idx,
                            message: e.to_string(),
                        }),
                    }
                }
            };
            if let Some(discrepancy) = check_output(&expected, &run.output, idx, &name) {
                return ValidationReport {
                    trials,
                    discrepancy: Some(discrepancy),
                };
            }
        }

        // Cross-backend trials: sharded federations (each a valid access
        // selection in its own right) …
        let mut backends: Vec<(String, Box<dyn AccessBackend>)> = Vec::new();
        for shards in [2usize, 3] {
            backends.push((
                format!("sharded#{shards}"),
                Box::new(ShardedBackend::over_instance(instance, shards)),
            ));
        }
        for (name, mut backend) in backends {
            trials += 1;
            let run = match execute_with_backend(plan, schema, backend.as_mut()) {
                Ok(run) => run,
                Err(e) => {
                    return ValidationReport {
                        trials,
                        discrepancy: Some(Discrepancy::ExecutionError {
                            instance_index: idx,
                            message: e.to_string(),
                        }),
                    }
                }
            };
            if let Some(discrepancy) = check_output(&expected, &run.output, idx, &name) {
                return ValidationReport {
                    trials,
                    discrepancy: Some(discrepancy),
                };
            }
        }

        // … and a record/replay pair: replaying the captured trace without
        // the data source must reproduce the recorded run bit for bit.
        trials += 1;
        let mut recording = RecordingBackend::new(InstanceBackend::truncating(instance));
        let replayed = execute_with_backend(plan, schema, &mut recording)
            .map(|recorded_run| (recorded_run, recording.into_trace()))
            .and_then(|(recorded_run, trace)| {
                let mut replay = trace.replayer();
                execute_with_backend(plan, schema, &mut replay)
                    .map(|replay_run| (recorded_run, replay_run))
            });
        match replayed {
            Ok((recorded_run, replay_run)) => {
                if recorded_run.output != replay_run.output {
                    return ValidationReport {
                        trials,
                        discrepancy: Some(Discrepancy::BackendMismatch {
                            instance_index: idx,
                            backend: "replay".to_owned(),
                            detail: format!(
                                "replayed trace produced {} row(s), recorded run {}",
                                replay_run.output.len(),
                                recorded_run.output.len()
                            ),
                        }),
                    };
                }
            }
            Err(e) => {
                return ValidationReport {
                    trials,
                    discrepancy: Some(Discrepancy::BackendMismatch {
                        instance_index: idx,
                        backend: "replay".to_owned(),
                        detail: e.to_string(),
                    }),
                }
            }
        }
    }
    ValidationReport {
        trials,
        discrepancy: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::university_instance;
    use rbqa_access::{AccessMethod, Condition, PlanBuilder, RaExpr};
    use rbqa_common::{Signature, ValueFactory};
    use rbqa_logic::parser::parse_cq;

    fn university_schema(ud_bound: Option<usize>) -> Schema {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::new(sig);
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

    fn salary_plan(vf: &mut ValueFactory) -> Plan {
        let salary = vf.constant("10000");
        PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("profs", "pr", RaExpr::table("ids"), vec![0], vec![0, 1, 2])
            .middleware(
                "matching",
                RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, salary)),
            )
            .middleware("names", RaExpr::project(RaExpr::table("matching"), vec![1]))
            .returns("names")
    }

    #[test]
    fn example_1_2_plan_is_valid_without_bounds() {
        let schema = university_schema(None);
        let mut vf = ValueFactory::new();
        let instances: Vec<Instance> = (0..3)
            .map(|i| university_instance(schema.signature(), &mut vf, 8 + i, i as u64))
            .collect();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let plan = salary_plan(&mut vf);
        let report = validate_plan(&schema, &plan, &q1, &instances, 2);
        assert!(report.is_valid(), "{:?}", report.discrepancy);
        assert!(report.trials >= 15);
    }

    #[test]
    fn example_1_3_plan_is_incomplete_with_bound() {
        let schema = university_schema(Some(2));
        let mut vf = ValueFactory::new();
        let instances = vec![university_instance(schema.signature(), &mut vf, 12, 5)];
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let plan = salary_plan(&mut vf);
        let report = validate_plan(&schema, &plan, &q1, &instances, 1);
        assert!(!report.is_valid());
        assert!(matches!(
            report.discrepancy,
            Some(Discrepancy::Incomplete { .. })
        ));
    }

    #[test]
    fn boolean_existence_plan_is_valid_under_bounds() {
        // Example 1.4 / 2.1: the existence-check plan answers Q2 even when
        // ud is result-bounded.
        let schema = university_schema(Some(1));
        let mut vf = ValueFactory::new();
        let instances: Vec<Instance> = (0..2)
            .map(|i| university_instance(schema.signature(), &mut vf, 6, 40 + i as u64))
            .collect();
        let mut sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
            .returns("T0");
        let report = validate_plan(&schema, &plan, &q2, &instances, 2);
        assert!(report.is_valid(), "{:?}", report.discrepancy);
    }

    #[test]
    fn execution_errors_are_reported() {
        let schema = university_schema(None);
        let mut vf = ValueFactory::new();
        let instances = vec![university_instance(schema.signature(), &mut vf, 3, 1)];
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Prof(i, n, s)", &mut sig, &mut vf).unwrap();
        let broken = PlanBuilder::new()
            .access("T", "does_not_exist", RaExpr::unit(), vec![], vec![0])
            .returns("T");
        let report = validate_plan(&schema, &broken, &q, &instances, 0);
        assert!(matches!(
            report.discrepancy,
            Some(Discrepancy::ExecutionError { .. })
        ));
    }

    #[test]
    fn empty_instance_list_is_trivially_valid() {
        let schema = university_schema(None);
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Prof(i, n, s)", &mut sig, &mut vf).unwrap();
        let plan = salary_plan(&mut vf);
        let report = validate_plan(&schema, &plan, &q, &[], 3);
        assert!(report.is_valid());
        assert_eq!(report.trials, 0);
    }
}
