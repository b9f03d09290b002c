//! The crawling plan: the fallback plan and the test oracle.
//!
//! An answerable query's plan is extracted from the chase proof of its
//! AMonDet containment ([`crate::proof_plan`]). When no usable proof is
//! available — the chase merged values, or found no match within its
//! budget — the pipeline falls back to the *crawling plan* synthesised
//! here, and counts the fallback:
//!
//! 1. seed the set of known values with the constants of the query;
//! 2. for a bounded number of rounds, call every access method with every
//!    combination of known values on its input positions, accumulate the
//!    returned tuples per relation and enlarge the set of known values;
//! 3. finally evaluate the query over the accumulated relation tables with
//!    monotone relational algebra (joins on shared variables, selections on
//!    constants and repeated variables, projection onto the free
//!    variables).
//!
//! The crawling plan realises the accessible-part characterisation of
//! Section 3 directly. It is always *sound* (its output is a subset of the
//! query answer, by monotonicity); its *completeness* depends on enough
//! rounds, so it is validated empirically by `rbqa-engine`'s harness rather
//! than proven. The number of crawling rounds is a parameter; the
//! answerability pipeline derives it from the chase statistics of the
//! containment proof. The differential tests keep the crawl as an oracle
//! next to the proof plans.

use rbqa_access::{Condition, Plan, PlanBuilder, RaExpr, Schema};
use rbqa_logic::{ConjunctiveQuery, Term};
use rustc_hash::FxHashMap;

/// Synthesises a crawling plan for `query` over `schema` with the given
/// number of crawl rounds.
///
/// Returns `None` when the query uses a relation for which the schema has no
/// access method at all and which cannot therefore ever be populated (the
/// plan would trivially return the empty set; callers may still want that,
/// but an explicit `None` surfaces the situation).
pub fn synthesize_crawling_plan(
    schema: &Schema,
    query: &ConjunctiveQuery,
    rounds: usize,
) -> Option<Plan> {
    let sig = schema.signature();

    // Every relation used by the query must be reachable through some
    // method; otherwise the crawl can never populate it.
    for atom in query.atoms() {
        if schema.methods_on(atom.relation()).is_empty() {
            return None;
        }
    }

    let mut builder = PlanBuilder::new();

    // Known values table: starts with the query constants.
    let constants = query.constants();
    let seed_rows: Vec<Vec<rbqa_common::Value>> = constants.iter().map(|c| vec![*c]).collect();
    builder = builder.middleware(
        "known_0",
        RaExpr::Constant {
            arity: 1,
            rows: seed_rows,
        },
    );

    // Relation accumulators start empty.
    let relations: Vec<_> = sig.iter().map(|(rid, rel)| (rid, rel.arity())).collect();
    for (rid, arity) in &relations {
        builder = builder.middleware(
            &format!("rel_{}_0", rid.index()),
            RaExpr::Constant {
                arity: *arity,
                rows: Vec::new(),
            },
        );
    }

    for round in 0..rounds {
        let known = format!("known_{round}");
        let mut new_known_exprs: Vec<RaExpr> = vec![RaExpr::table(&known)];
        // Per-relation accumulated expressions for this round.
        let mut per_relation: FxHashMap<usize, Vec<RaExpr>> = FxHashMap::default();
        for (rid, _arity) in &relations {
            per_relation.insert(
                rid.index(),
                vec![RaExpr::table(&format!("rel_{}_{round}", rid.index()))],
            );
        }

        for (mi, method) in schema.methods().iter().enumerate() {
            let arity = sig.arity(method.relation());
            let inputs = method.input_positions_vec();
            // Bindings: the |inputs|-fold product of the known-values table
            // (the unit relation when the method is input-free).
            let mut input_expr = RaExpr::unit();
            for _ in 0..inputs.len() {
                input_expr = RaExpr::join(input_expr, RaExpr::table(&known), vec![]);
            }
            let input_map: Vec<usize> = (0..inputs.len()).collect();
            let access_table = format!("acc_{round}_{mi}");
            builder = builder.access(
                &access_table,
                method.name(),
                input_expr,
                input_map,
                (0..arity).collect(),
            );
            per_relation
                .get_mut(&method.relation().index())
                .expect("all relations initialised")
                .push(RaExpr::table(&access_table));
            for position in 0..arity {
                new_known_exprs.push(RaExpr::project(
                    RaExpr::table(&access_table),
                    vec![position],
                ));
            }
        }

        // Fold the unions.
        for (rid, _arity) in &relations {
            let exprs = per_relation.remove(&rid.index()).expect("initialised");
            let folded = fold_union(exprs);
            builder = builder.middleware(&format!("rel_{}_{}", rid.index(), round + 1), folded);
        }
        builder = builder.middleware(&format!("known_{}", round + 1), fold_union(new_known_exprs));
    }

    // Evaluate the query over the accumulated relation tables.
    let tables: Vec<String> = query
        .atoms()
        .iter()
        .map(|atom| format!("rel_{}_{rounds}", atom.relation().index()))
        .collect();
    builder = builder.middleware("answers", query_to_ra(query, &tables));
    Some(builder.returns("answers"))
}

/// Folds a non-empty list of same-arity expressions into a union.
fn fold_union(mut exprs: Vec<RaExpr>) -> RaExpr {
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, RaExpr::union)
}

/// Translates a CQ into a monotone RA expression in which atom `i` ranges
/// over the table `tables[i]`: selections for constants and repeated
/// variables, joins on shared variables, and a projection onto the free
/// variables (the empty projection for a Boolean CQ). The crawl scans each
/// relation's accumulated table; a proof plan scans each support fact's
/// access table.
pub(crate) fn query_to_ra(query: &ConjunctiveQuery, tables: &[String]) -> RaExpr {
    debug_assert_eq!(query.atoms().len(), tables.len());
    let mut combined: Option<RaExpr> = None;
    let mut var_columns: FxHashMap<rbqa_logic::VarId, usize> = FxHashMap::default();
    let mut width = 0usize;

    for (atom, table) in query.atoms().iter().zip(tables) {
        let table = RaExpr::table(table);
        // Intra-atom conditions: constants and repeated variables.
        let mut condition = Condition::True;
        let mut local_first: FxHashMap<rbqa_logic::VarId, usize> = FxHashMap::default();
        for (pos, term) in atom.args().iter().enumerate() {
            match term {
                Term::Const(c) => {
                    condition = condition.and(Condition::eq_const(pos, *c));
                }
                Term::Var(v) => {
                    if let Some(&first) = local_first.get(v) {
                        condition = condition.and(Condition::eq_columns(first, pos));
                    } else {
                        local_first.insert(*v, pos);
                    }
                }
            }
        }
        let selected = RaExpr::select(table, condition);

        match combined.take() {
            None => {
                combined = Some(selected);
                for (v, pos) in local_first {
                    var_columns.insert(v, pos);
                }
                width = atom.arity();
            }
            Some(previous) => {
                // Join on the variables shared with the accumulated part.
                let mut on: Vec<(usize, usize)> = Vec::new();
                for (v, pos) in &local_first {
                    if let Some(&col) = var_columns.get(v) {
                        on.push((col, *pos));
                    }
                }
                combined = Some(RaExpr::join(previous, selected, on));
                for (v, pos) in local_first {
                    var_columns.entry(v).or_insert(width + pos);
                }
                width += atom.arity();
            }
        }
    }

    let combined = combined.unwrap_or(RaExpr::unit());
    // Project onto the free variables (empty projection for Boolean CQs).
    let columns: Vec<usize> = query
        .free_vars()
        .iter()
        .filter_map(|v| var_columns.get(v).copied())
        .collect();
    RaExpr::project(combined, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::{AccessMethod, TruncatingSelection};
    use rbqa_common::{Instance, Signature, ValueFactory};
    use rbqa_logic::parser::parse_cq;

    /// Example 1.1 schema with data; ud is unbounded here so the crawl is
    /// complete.
    fn setup() -> (Schema, Instance, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::new(sig.clone());
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        schema
            .add_method(AccessMethod::unbounded("ud", udir, &[]))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut inst = Instance::new(sig);
        for i in 0..4 {
            let id = vf.constant(&format!("id{i}"));
            let name = vf.constant(&format!("name{i}"));
            let salary = if i % 2 == 0 {
                vf.constant("10000")
            } else {
                vf.constant("20000")
            };
            let addr = vf.constant(&format!("addr{i}"));
            let phone = vf.constant(&format!("phone{i}"));
            inst.insert(prof, vec![id, name, salary]).unwrap();
            inst.insert(udir, vec![id, addr, phone]).unwrap();
        }
        (schema, inst, vf)
    }

    #[test]
    fn crawling_plan_answers_example_1_2() {
        let (schema, inst, mut vf) = setup();
        let mut sig = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let plan = synthesize_crawling_plan(&schema, &q1, 2).unwrap();
        assert!(plan.validate(&schema).is_ok());
        let mut sel = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &inst, &mut sel).unwrap();
        // Professors 0 and 2 earn 10000.
        assert_eq!(run.output.len(), 2);
        let expected: Vec<Vec<rbqa_common::Value>> =
            vec![vec![vf.constant("name0")], vec![vf.constant("name2")]];
        let mut expected = expected;
        expected.sort();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn crawling_plan_handles_boolean_queries() {
        let (schema, inst, mut vf) = setup();
        let mut sig = schema.signature().clone();
        let q2 = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let plan = synthesize_crawling_plan(&schema, &q2, 1).unwrap();
        let mut sel = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert!(run.boolean_output());

        // On the empty instance the plan returns false.
        let empty = Instance::new(schema.signature().clone());
        let mut sel = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &empty, &mut sel).unwrap();
        assert!(!run.boolean_output());
    }

    #[test]
    fn more_rounds_reach_more_data() {
        // With 0 rounds nothing is accessed; with 2 rounds the id -> prof
        // chain is followed.
        let (schema, inst, mut vf) = setup();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q(n) :- Prof(i, n, s)", &mut sig, &mut vf).unwrap();
        let shallow = synthesize_crawling_plan(&schema, &q, 0).unwrap();
        let deep = synthesize_crawling_plan(&schema, &q, 2).unwrap();
        let mut sel = TruncatingSelection::new();
        let run_shallow = rbqa_access::plan::execute(&shallow, &schema, &inst, &mut sel).unwrap();
        let mut sel = TruncatingSelection::new();
        let run_deep = rbqa_access::plan::execute(&deep, &schema, &inst, &mut sel).unwrap();
        assert!(run_shallow.output.is_empty());
        assert_eq!(run_deep.output.len(), 4);
    }

    #[test]
    fn query_constant_seeds_keyed_access() {
        // A query about a specific id can be answered in one round by
        // calling pr directly with that constant.
        let (schema, inst, mut vf) = setup();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q(n) :- Prof('id1', n, s)", &mut sig, &mut vf).unwrap();
        let plan = synthesize_crawling_plan(&schema, &q, 1).unwrap();
        let mut sel = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert_eq!(run.output, vec![vec![vf.constant("name1")]]);
    }

    #[test]
    fn missing_method_yields_none() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 1).unwrap();
        sig.add_relation("S", 1).unwrap();
        let mut schema = Schema::new(sig.clone());
        schema
            .add_method(AccessMethod::unbounded("mr", r, &[]))
            .unwrap();
        let mut vf = ValueFactory::new();
        let mut sig2 = schema.signature().clone();
        let q = parse_cq("Q() :- S(x)", &mut sig2, &mut vf).unwrap();
        assert!(synthesize_crawling_plan(&schema, &q, 1).is_none());
    }

    #[test]
    fn join_query_over_two_relations() {
        let (schema, inst, mut vf) = setup();
        let mut sig = schema.signature().clone();
        // Names and addresses of professors earning 20000.
        let q = parse_cq(
            "Q(n, a) :- Prof(i, n, '20000'), Udirectory(i, a, p)",
            &mut sig,
            &mut vf,
        )
        .unwrap();
        let plan = synthesize_crawling_plan(&schema, &q, 2).unwrap();
        let mut sel = TruncatingSelection::new();
        let run = rbqa_access::plan::execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert_eq!(run.output.len(), 2);
        for row in &run.output {
            assert_eq!(row.len(), 2);
        }
    }
}
