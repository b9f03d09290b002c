//! Random workload generators, parameterised by constraint class.
//!
//! The Table-1 reports and perfbench's decide workloads need families of
//! schemas of increasing size for each constraint class. The generator below produces, from a seed:
//!
//! * a signature of `relations` relations with arities in
//!   `[min_arity, max_arity]`;
//! * a constraint set of the requested class (FDs, IDs of bounded width,
//!   UIDs + FDs, ...);
//! * one access method per relation, a configurable fraction of which carry
//!   a result bound;
//! * chain-shaped conjunctive queries of a requested size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbqa_access::{AccessMethod, Schema};
use rbqa_common::{RelationId, Signature, ValueFactory};
use rbqa_logic::constraints::tgd::inclusion_dependency;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::{ConjunctiveQuery, CqBuilder, Fd, Term};

/// Which constraint class the generated schema should fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomClass {
    /// No integrity constraints.
    NoConstraints,
    /// Functional dependencies only.
    Fds,
    /// Inclusion dependencies of the given maximal width.
    Ids {
        /// Maximal number of exported variables per ID.
        width: usize,
    },
    /// Unary inclusion dependencies plus FDs.
    UidsAndFds,
}

/// Parameters of the random schema generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomSchemaConfig {
    /// Number of relations.
    pub relations: usize,
    /// Minimum relation arity.
    pub min_arity: usize,
    /// Maximum relation arity.
    pub max_arity: usize,
    /// Number of dependencies to generate.
    pub dependencies: usize,
    /// Constraint class.
    pub class: RandomClass,
    /// Result bound attached to the bounded methods.
    pub result_bound: usize,
    /// Fraction (0–100) of methods that carry the result bound.
    pub bounded_percent: u32,
    /// Number of input positions per method (capped by the arity).
    pub method_inputs: usize,
}

impl Default for RandomSchemaConfig {
    fn default() -> Self {
        RandomSchemaConfig {
            relations: 4,
            min_arity: 2,
            max_arity: 3,
            dependencies: 4,
            class: RandomClass::Ids { width: 1 },
            result_bound: 100,
            bounded_percent: 50,
            method_inputs: 1,
        }
    }
}

/// A generated workload: schema, value factory and a few queries.
#[derive(Debug)]
pub struct RandomWorkload {
    /// The generated schema.
    pub schema: Schema,
    /// The value factory used for query constants.
    pub values: ValueFactory,
    /// Chain queries of increasing size (1 atom, 2 atoms, ...).
    pub queries: Vec<ConjunctiveQuery>,
}

impl RandomSchemaConfig {
    /// Generates a workload from this configuration and a seed.
    pub fn generate(&self, seed: u64) -> RandomWorkload {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sig = Signature::new();
        let rels: Vec<RelationId> = (0..self.relations)
            .map(|i| {
                let arity = rng.gen_range(self.min_arity..=self.max_arity.max(self.min_arity));
                sig.add_relation(&format!("R{i}"), arity).unwrap()
            })
            .collect();

        let mut constraints = ConstraintSet::new();
        for k in 0..self.dependencies {
            match self.class {
                RandomClass::NoConstraints => {}
                RandomClass::Fds => {
                    let rel = rels[rng.gen_range(0..rels.len())];
                    let arity = sig.arity(rel);
                    if arity >= 2 {
                        let lhs = rng.gen_range(0..arity);
                        let mut rhs = rng.gen_range(0..arity);
                        if rhs == lhs {
                            rhs = (rhs + 1) % arity;
                        }
                        constraints.push_fd(Fd::new(rel, vec![lhs], rhs));
                    }
                }
                RandomClass::Ids { width } => {
                    // Chain-shaped IDs R_k -> R_{k+1} keep the schema
                    // connected; the exported width is min(width, arities).
                    let from = rels[k % rels.len()];
                    let to = rels[(k + 1) % rels.len()];
                    let w = width.min(sig.arity(from)).min(sig.arity(to)).max(1);
                    let from_positions: Vec<usize> = (0..w).collect();
                    let to_positions: Vec<usize> = (0..w).collect();
                    constraints.push_tgd(inclusion_dependency(
                        &sig,
                        from,
                        &from_positions,
                        to,
                        &to_positions,
                    ));
                }
                RandomClass::UidsAndFds => {
                    if k % 2 == 0 {
                        let from = rels[k % rels.len()];
                        let to = rels[(k + 1) % rels.len()];
                        constraints.push_tgd(inclusion_dependency(&sig, from, &[0], to, &[0]));
                    } else {
                        let rel = rels[rng.gen_range(0..rels.len())];
                        let arity = sig.arity(rel);
                        if arity >= 2 {
                            constraints.push_fd(Fd::new(rel, vec![0], 1));
                        }
                    }
                }
            }
        }

        let mut schema = Schema::with_parts(sig.clone(), constraints, vec![]).unwrap();
        for (i, &rel) in rels.iter().enumerate() {
            let arity = sig.arity(rel);
            let inputs: Vec<usize> = (0..self.method_inputs.min(arity)).collect();
            let bounded = rng.gen_range(0..100u32) < self.bounded_percent;
            let method = if bounded {
                AccessMethod::bounded(&format!("m{i}"), rel, &inputs, self.result_bound)
            } else {
                AccessMethod::unbounded(&format!("m{i}"), rel, &inputs)
            };
            schema.add_method(method).unwrap();
        }
        // Always provide at least one input-free entry point so that plans
        // can start somewhere.
        schema
            .add_method(AccessMethod::unbounded("entry", rels[0], &[]))
            .unwrap();

        // Chain queries Q_k :- R_0(x_0, ...), R_1(x_1, ...), ... sharing the
        // first variable of consecutive atoms.
        let values = ValueFactory::new();
        let mut queries = Vec::new();
        for size in 1..=self.relations {
            let mut builder = CqBuilder::new();
            let mut prev_var = None;
            for a in 0..size {
                let rel = rels[a % rels.len()];
                let arity = sig.arity(rel);
                let mut args: Vec<Term> = Vec::with_capacity(arity);
                for p in 0..arity {
                    let var = if p == 0 {
                        match prev_var {
                            Some(v) if a > 0 => v,
                            _ => builder.var(&format!("x{a}_{p}")),
                        }
                    } else {
                        builder.var(&format!("x{a}_{p}"))
                    };
                    args.push(Term::Var(var));
                }
                // Link consecutive atoms through their last/first positions.
                prev_var = args.last().and_then(|t| t.as_var());
                builder.atom(rel, args);
            }
            queries.push(builder.build());
        }

        RandomWorkload {
            schema,
            values,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_core::{classify_constraints, ConstraintClass};

    #[test]
    fn generated_ids_schema_is_classified_as_ids() {
        let config = RandomSchemaConfig {
            class: RandomClass::Ids { width: 1 },
            ..Default::default()
        };
        let workload = config.generate(1);
        let class = classify_constraints(workload.schema.constraints());
        assert!(matches!(class, ConstraintClass::IdsOnly { .. }));
        assert!(!workload.queries.is_empty());
    }

    #[test]
    fn generated_fds_schema_is_classified_as_fds() {
        let config = RandomSchemaConfig {
            class: RandomClass::Fds,
            dependencies: 6,
            ..Default::default()
        };
        let workload = config.generate(2);
        assert_eq!(
            classify_constraints(workload.schema.constraints()),
            ConstraintClass::FdsOnly
        );
    }

    #[test]
    fn generated_uid_fd_schema_is_classified_as_uids_and_fds() {
        let config = RandomSchemaConfig {
            class: RandomClass::UidsAndFds,
            dependencies: 6,
            ..Default::default()
        };
        let workload = config.generate(3);
        let class = classify_constraints(workload.schema.constraints());
        assert!(
            class == ConstraintClass::UidsAndFds
                || matches!(class, ConstraintClass::IdsOnly { max_width: 1 })
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let config = RandomSchemaConfig::default();
        let w1 = config.generate(42);
        let w2 = config.generate(42);
        assert_eq!(w1.schema.methods().len(), w2.schema.methods().len());
        assert_eq!(w1.schema.constraints().len(), w2.schema.constraints().len());
        assert_eq!(w1.queries.len(), w2.queries.len());
    }

    #[test]
    fn bounded_percent_controls_result_bounds() {
        let all_bounded = RandomSchemaConfig {
            bounded_percent: 100,
            ..Default::default()
        }
        .generate(5);
        // Every per-relation method is bounded (the extra entry point is not).
        let bounded_count = all_bounded
            .schema
            .methods()
            .iter()
            .filter(|m| m.is_result_bounded())
            .count();
        assert_eq!(bounded_count, all_bounded.schema.methods().len() - 1);

        let none_bounded = RandomSchemaConfig {
            bounded_percent: 0,
            ..Default::default()
        }
        .generate(5);
        assert!(!none_bounded.schema.has_result_bounds());
    }

    #[test]
    fn queries_grow_with_requested_size() {
        let workload = RandomSchemaConfig::default().generate(9);
        for (i, q) in workload.queries.iter().enumerate() {
            assert_eq!(q.size(), i + 1);
        }
    }
}
