//! Schema simplifications (Sections 4 and 6 of the paper).
//!
//! A *simplification* rewrites a schema with result-bounded methods into a
//! schema whose result bounds are simpler (or gone), such that monotone
//! answerability is preserved for the constraint classes covered by the
//! corresponding theorem:
//!
//! * **Existence-check simplification** (Theorem 4.2, sound for IDs): each
//!   result-bounded method `mt` on `R` becomes a Boolean method on a fresh
//!   view relation `R_mt` holding the projection of `R` onto the input
//!   positions of `mt` — result-bounded methods are only useful to test
//!   whether matching tuples exist (Example 1.4).
//! * **FD simplification** (Theorem 4.5, sound for FDs): the view `R_mt`
//!   holds the projection of `R` onto `DetBy(mt)`, the positions determined
//!   by the input positions of `mt` — result-bounded methods are only useful
//!   to retrieve the functionally determined part of their output
//!   (Example 1.5).
//! * **Choice simplification** (Theorems 6.3 and 6.4, sound for equality-free
//!   FO / TGDs and for UIDs + FDs): every result bound is replaced by 1 —
//!   the *value* of the bound never matters.
//!
//! `ElimUB` (Proposition 3.3) is not a stage: every stage reads a result
//! bound as a lower bound. The relaxed schema itself is
//! [`rbqa_access::Schema::eliminate_upper_bounds`], against which the root
//! test `simplification_soundness::elim_ub_does_not_change_decisions`
//! checks the proposition.

use rbqa_access::{AccessMethod, Schema};
use rbqa_logic::constraints::TgdBuilder;
use rbqa_logic::implication::det_by;
use rbqa_logic::Term;

use crate::classify::ConstraintClass;

/// The simplification applied before reducing to query containment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplificationKind {
    /// No simplification (no result-bounded methods, or none applicable).
    None,
    /// Existence-check simplification (Theorem 4.2).
    ExistenceCheck,
    /// FD simplification (Theorem 4.5).
    Fd,
    /// Choice simplification (Theorems 6.3 / 6.4).
    Choice,
}

impl SimplificationKind {
    /// The simplification recommended by Table 1 for a constraint class.
    pub fn recommended_for(class: ConstraintClass) -> SimplificationKind {
        match class {
            ConstraintClass::NoConstraints | ConstraintClass::IdsOnly { .. } => {
                SimplificationKind::ExistenceCheck
            }
            ConstraintClass::FdsOnly => SimplificationKind::Fd,
            ConstraintClass::UidsAndFds
            | ConstraintClass::FrontierGuardedTgds
            | ConstraintClass::ArbitraryTgds
            | ConstraintClass::Mixed => SimplificationKind::Choice,
        }
    }
}

/// The existence-check simplification of `schema` (Section 4).
///
/// For each result-bounded method `mt` on a relation `R` with input
/// positions `I`, the simplified schema has a fresh relation `R_mt` of arity
/// `|I|`, the two IDs `R(x, y) → R_mt(x_I)` and `R_mt(x) → ∃y R(x, y)`, and
/// a Boolean (all-input) method on `R_mt` without a result bound. Methods
/// without result bounds are kept unchanged.
pub fn existence_check_simplification(schema: &Schema) -> Schema {
    view_based_simplification(schema, |_schema, method| method.input_positions_vec())
}

/// The FD simplification of `schema` (Section 4).
///
/// Like the existence-check simplification, but the view `R_mt` projects `R`
/// onto `DetBy(mt)` — every position determined by the input positions of
/// `mt` under the schema's FDs — and the new method on `R_mt` keeps the
/// (images of the) original input positions as inputs. When the schema
/// implies no FDs this coincides with the existence-check simplification.
pub fn fd_simplification(schema: &Schema) -> Schema {
    view_based_simplification(schema, |schema, method| {
        det_by(
            schema.constraints().fds(),
            method.relation(),
            &method.input_positions_vec(),
        )
        .into_iter()
        .collect()
    })
}

/// The choice simplification of `schema` (Section 6): every result bound is
/// replaced by 1.
pub fn choice_simplification(schema: &Schema) -> Schema {
    schema.choice_simplification()
}

/// Shared construction for the existence-check and FD simplifications: the
/// `view_positions` callback chooses which positions of the accessed
/// relation the view retains (the input positions for existence-check,
/// `DetBy(mt)` for FD simplification).
fn view_based_simplification<F>(schema: &Schema, view_positions: F) -> Schema
where
    F: Fn(&Schema, &AccessMethod) -> Vec<usize>,
{
    let mut signature = schema.signature().clone();
    let mut constraints = schema.constraints().clone();
    let mut methods: Vec<AccessMethod> = schema
        .methods()
        .iter()
        .filter(|m| !m.is_result_bounded())
        .cloned()
        .collect();

    for method in schema.methods().iter().filter(|m| m.is_result_bounded()) {
        let relation = method.relation();
        let arity = schema.signature().arity(relation);
        let relation_name = schema.signature().name(relation).to_owned();
        let mut kept: Vec<usize> = view_positions(schema, method);
        kept.sort_unstable();
        kept.dedup();

        let view_name = format!("{}__{}", relation_name, method.name());
        let view = signature
            .add_relation(&view_name, kept.len())
            .expect("view relation names are unique per method");

        // R(x0 ... xn-1) -> R_mt(x_kept)
        {
            let mut b = TgdBuilder::new();
            let vars: Vec<_> = (0..arity).map(|i| b.var(&format!("x{i}"))).collect();
            b.body_atom(relation, vars.iter().map(|v| Term::Var(*v)).collect());
            b.head_atom(view, kept.iter().map(|&p| Term::Var(vars[p])).collect());
            constraints.push_tgd(b.build());
        }
        // R_mt(x_kept) -> ∃ other positions  R(x0 ... xn-1)
        {
            let mut b = TgdBuilder::new();
            let vars: Vec<_> = (0..arity).map(|i| b.var(&format!("x{i}"))).collect();
            b.body_atom(view, kept.iter().map(|&p| Term::Var(vars[p])).collect());
            b.head_atom(relation, vars.iter().map(|v| Term::Var(*v)).collect());
            constraints.push_tgd(b.build());
        }

        // The new method on the view: the input positions are the images of
        // the original input positions within the kept positions. For the
        // existence-check simplification this makes the method Boolean.
        let new_inputs: Vec<usize> = method
            .input_positions_vec()
            .iter()
            .map(|p| {
                kept.iter()
                    .position(|&k| k == *p)
                    .expect("input positions are always kept")
            })
            .collect();
        methods.push(AccessMethod::unbounded(
            &format!("{}__check", method.name()),
            view,
            &new_inputs,
        ));
    }

    Schema::with_parts(signature, constraints, methods)
        .expect("the simplified schema is well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::Fd;

    /// Example 1.1 / 1.5: Prof(id, name, salary) with method pr(id);
    /// Udirectory(id, address, phone) with the result-bounded method ud2
    /// keyed on id (bound 1), and the FD id -> address.
    fn example_schema() -> Schema {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_fd(Fd::new(udir, vec![0], 1));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        schema
            .add_method(AccessMethod::bounded("ud2", udir, &[0], 1))
            .unwrap();
        schema
    }

    #[test]
    fn existence_check_builds_view_and_boolean_method() {
        // Example 4.1: the existence-check simplification adds
        // Udirectory_ud2 of arity 1 with a Boolean method and two IDs.
        let schema = example_schema();
        let simplified = existence_check_simplification(&schema);
        let view = simplified.signature().require("Udirectory__ud2").unwrap();
        assert_eq!(simplified.signature().arity(view), 1);
        assert!(!simplified.has_result_bounds());
        // pr kept, ud2 replaced by ud2__check.
        assert!(simplified.method("pr").is_some());
        assert!(simplified.method("ud2").is_none());
        let check = simplified.method("ud2__check").unwrap();
        assert!(check.is_boolean(simplified.signature()));
        // Two new IDs were added.
        assert_eq!(
            simplified.constraints().tgds().len(),
            schema.constraints().tgds().len() + 2
        );
        assert!(simplified.constraints().tgds().iter().all(|t| t.is_id()));
    }

    #[test]
    fn fd_simplification_keeps_determined_positions() {
        // Example 4.4: with the FD id -> address, DetBy(ud2) = {id, address},
        // so the view has arity 2 and the new method keeps id as its input.
        let schema = example_schema();
        let simplified = fd_simplification(&schema);
        let view = simplified.signature().require("Udirectory__ud2").unwrap();
        assert_eq!(simplified.signature().arity(view), 2);
        let m = simplified.method("ud2__check").unwrap();
        assert_eq!(m.input_positions_vec(), vec![0]);
        assert!(!m.is_boolean(simplified.signature()));
        assert!(!simplified.has_result_bounds());
        // The FD itself is retained.
        assert_eq!(simplified.constraints().fds().len(), 1);
    }

    #[test]
    fn fd_simplification_equals_existence_check_without_fds() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 3).unwrap();
        let mut schema = Schema::new(sig);
        schema
            .add_method(AccessMethod::bounded("m", r, &[0], 10))
            .unwrap();
        let ec = existence_check_simplification(&schema);
        let fd = fd_simplification(&schema);
        let ec_view = ec.signature().require("R__m").unwrap();
        let fd_view = fd.signature().require("R__m").unwrap();
        assert_eq!(ec.signature().arity(ec_view), fd.signature().arity(fd_view));
        assert_eq!(ec.methods().len(), fd.methods().len());
    }

    #[test]
    fn choice_simplification_only_rewrites_bounds() {
        let schema = example_schema();
        let choice = choice_simplification(&schema);
        assert_eq!(choice.methods().len(), schema.methods().len());
        assert_eq!(
            choice.method("ud2").unwrap().result_bound().unwrap().limit,
            1
        );
        assert_eq!(choice.signature().len(), schema.signature().len());
    }

    #[test]
    fn unbounded_methods_are_untouched() {
        let schema = example_schema();
        for simplified in [
            existence_check_simplification(&schema),
            fd_simplification(&schema),
        ] {
            let pr = simplified.method("pr").unwrap();
            assert_eq!(pr.input_positions_vec(), vec![0]);
            assert!(!pr.is_result_bounded());
        }
    }

    #[test]
    fn recommended_simplifications_follow_table_1() {
        assert_eq!(
            SimplificationKind::recommended_for(ConstraintClass::IdsOnly { max_width: 2 }),
            SimplificationKind::ExistenceCheck
        );
        assert_eq!(
            SimplificationKind::recommended_for(ConstraintClass::FdsOnly),
            SimplificationKind::Fd
        );
        assert_eq!(
            SimplificationKind::recommended_for(ConstraintClass::UidsAndFds),
            SimplificationKind::Choice
        );
        assert_eq!(
            SimplificationKind::recommended_for(ConstraintClass::FrontierGuardedTgds),
            SimplificationKind::Choice
        );
        assert_eq!(
            SimplificationKind::recommended_for(ConstraintClass::NoConstraints),
            SimplificationKind::ExistenceCheck
        );
    }

    #[test]
    fn multiple_result_bounded_methods_get_distinct_views() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let mut schema = Schema::new(sig);
        schema
            .add_method(AccessMethod::bounded("m1", r, &[0], 5))
            .unwrap();
        schema
            .add_method(AccessMethod::bounded("m2", r, &[1], 5))
            .unwrap();
        let simplified = existence_check_simplification(&schema);
        assert!(simplified.signature().require("R__m1").is_ok());
        assert!(simplified.signature().require("R__m2").is_ok());
        assert_eq!(simplified.methods().len(), 2);
        assert_eq!(simplified.constraints().tgds().len(), 4);
    }
}
