//! Monotone plans: middleware commands over a monotone relational algebra
//! plus access commands (paper, Section 2, "Plans").
//!
//! A monotone plan is a sequence of commands producing temporary tables:
//!
//! * *query middleware commands* `T := E`, with `E` a monotone relational
//!   algebra expression ([`RaExpr`]: scans of earlier tables, selection,
//!   projection, join, union, constants — no difference operator);
//! * *access commands* `T ⇐ mt ⇐ E`: evaluate `E`, use each result tuple as
//!   a binding for the input positions of the method `mt`, take the union of
//!   the accessed outputs, and store a projection of it in `T`.
//!
//! The plan returns the contents of a designated output table. Its semantics
//! is defined relative to an [`crate::selection::AccessSelection`]
//! (see [`exec`]).

pub mod exec;
pub mod ra;

pub use exec::{execute, execute_plan_adaptive, execute_with_backend, AdaptiveWindow, PlanRun};
pub use ra::{Condition, PlanError, RaExpr, TempTable};

use rustc_hash::FxHashMap;

/// A single plan command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `output := expr` — a query middleware command.
    Middleware {
        /// Name of the produced temporary table.
        output: String,
        /// The monotone relational algebra expression to evaluate.
        expr: RaExpr,
    },
    /// `output ⇐_outputMap method ⇐_inputMap input` — an access command.
    Access {
        /// Name of the produced temporary table.
        output: String,
        /// Name of the access method (must exist in the schema).
        method: String,
        /// Expression producing the binding tuples.
        input: RaExpr,
        /// For the i-th input position of the method (in sorted position
        /// order), which column of `input` supplies the value.
        input_map: Vec<usize>,
        /// The positions of the accessed relation projected (in order) into
        /// the output table.
        output_map: Vec<usize>,
    },
}

impl Command {
    /// The name of the table this command produces.
    pub fn output(&self) -> &str {
        match self {
            Command::Middleware { output, .. } => output,
            Command::Access { output, .. } => output,
        }
    }
}

/// A monotone plan: a sequence of commands and the name of the output table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    commands: Vec<Command>,
    output_table: String,
}

impl Plan {
    /// Creates a plan from its parts. Prefer [`PlanBuilder`].
    pub fn new(commands: Vec<Command>, output_table: String) -> Self {
        Plan {
            commands,
            output_table,
        }
    }

    /// The commands of the plan, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// The name of the returned table.
    pub fn output_table(&self) -> &str {
        &self.output_table
    }

    /// Number of access commands in the plan.
    pub fn access_command_count(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::Access { .. }))
            .count()
    }

    /// Validates the plan against a schema: every table is defined before
    /// use, no table is defined twice, arities are consistent, methods
    /// exist and their input/output maps are well-formed.
    pub fn validate(&self, schema: &crate::Schema) -> Result<(), PlanError> {
        let mut arities: FxHashMap<String, usize> = FxHashMap::default();
        for command in &self.commands {
            // A later command must not shadow an earlier temp table: the
            // second definition would silently replace the first (possibly
            // at a different arity), so duplicates are structural errors.
            if arities.contains_key(command.output()) {
                return Err(PlanError::DuplicateTable(command.output().to_owned()));
            }
            match command {
                Command::Middleware { output, expr } => {
                    let arity = expr.arity(&arities)?;
                    arities.insert(output.clone(), arity);
                }
                Command::Access {
                    output,
                    method,
                    input,
                    input_map,
                    output_map,
                } => {
                    let input_arity = input.arity(&arities)?;
                    let m = schema
                        .method(method)
                        .ok_or_else(|| PlanError::UnknownMethod(method.clone()))?;
                    let inputs = m.input_positions_vec();
                    if inputs.len() != input_map.len() {
                        return Err(PlanError::Malformed(format!(
                            "access command `{output}`: method `{method}` has {} input positions but the input map has {} entries",
                            inputs.len(),
                            input_map.len()
                        )));
                    }
                    for &col in input_map {
                        if col >= input_arity {
                            return Err(PlanError::Malformed(format!(
                                "access command `{output}`: input map column {col} out of range for expression of arity {input_arity}"
                            )));
                        }
                    }
                    let relation_arity = schema.signature().arity(m.relation());
                    for &pos in output_map {
                        if pos >= relation_arity {
                            return Err(PlanError::Malformed(format!(
                                "access command `{output}`: output position {pos} out of range for relation of arity {relation_arity}"
                            )));
                        }
                    }
                    arities.insert(output.clone(), output_map.len());
                }
            }
        }
        if !arities.contains_key(&self.output_table) {
            return Err(PlanError::UnknownTable(self.output_table.clone()));
        }
        Ok(())
    }
}

/// Fluent builder for [`Plan`].
///
/// ```
/// use rbqa_access::{PlanBuilder, RaExpr};
/// // The plan of Example 2.1: access ud with the trivial binding, project
/// // to the empty tuple, return.
/// let plan = PlanBuilder::new()
///     .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
///     .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
///     .returns("T0");
/// assert_eq!(plan.commands().len(), 2);
/// assert_eq!(plan.output_table(), "T0");
/// ```
#[derive(Debug, Default)]
pub struct PlanBuilder {
    commands: Vec<Command>,
}

impl PlanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a middleware command `output := expr`.
    pub fn middleware(mut self, output: &str, expr: RaExpr) -> Self {
        self.commands.push(Command::Middleware {
            output: output.to_owned(),
            expr,
        });
        self
    }

    /// Appends an access command.
    pub fn access(
        mut self,
        output: &str,
        method: &str,
        input: RaExpr,
        input_map: Vec<usize>,
        output_map: Vec<usize>,
    ) -> Self {
        self.commands.push(Command::Access {
            output: output.to_owned(),
            method: method.to_owned(),
            input,
            input_map,
            output_map,
        });
        self
    }

    /// Finalises the plan, naming its output table.
    pub fn returns(self, output_table: &str) -> Plan {
        Plan::new(self.commands, output_table.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::AccessMethod;
    use crate::schema::Schema;
    use rbqa_common::Signature;

    fn schema() -> Schema {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::new(sig);
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        schema
            .add_method(AccessMethod::bounded("ud", udir, &[], 100))
            .unwrap();
        schema
    }

    #[test]
    fn example_2_1_plan_validates() {
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
            .returns("T0");
        assert!(plan.validate(&schema()).is_ok());
        assert_eq!(plan.access_command_count(), 1);
    }

    #[test]
    fn unknown_method_rejected() {
        let plan = PlanBuilder::new()
            .access("T", "nope", RaExpr::unit(), vec![], vec![0])
            .returns("T");
        assert!(matches!(
            plan.validate(&schema()),
            Err(PlanError::UnknownMethod(_))
        ));
    }

    #[test]
    fn undefined_table_rejected() {
        let plan = PlanBuilder::new()
            .middleware("T", RaExpr::table("missing"))
            .returns("T");
        assert!(matches!(
            plan.validate(&schema()),
            Err(PlanError::UnknownTable(_))
        ));
        let plan = PlanBuilder::new()
            .middleware("T", RaExpr::unit())
            .returns("T1");
        assert!(matches!(
            plan.validate(&schema()),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    fn bad_input_map_rejected() {
        // pr has one input position but the map has none.
        let plan = PlanBuilder::new()
            .access("T", "pr", RaExpr::unit(), vec![], vec![1])
            .returns("T");
        assert!(plan.validate(&schema()).is_err());
        // Column out of range of the input expression.
        let plan = PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("T", "pr", RaExpr::table("ids"), vec![5], vec![1])
            .returns("T");
        assert!(plan.validate(&schema()).is_err());
    }

    #[test]
    fn duplicate_table_names_rejected() {
        // A middleware command shadowing an earlier table of a *different*
        // arity used to validate silently; now any duplicate output name
        // is a structural error.
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .middleware("T", RaExpr::project(RaExpr::table("T"), vec![]))
            .returns("T");
        assert_eq!(
            plan.validate(&schema()),
            Err(PlanError::DuplicateTable("T".to_owned()))
        );
        // Access commands are checked too.
        let plan = PlanBuilder::new()
            .middleware("T", RaExpr::unit())
            .access("T", "ud", RaExpr::unit(), vec![], vec![0])
            .returns("T");
        assert!(matches!(
            plan.validate(&schema()),
            Err(PlanError::DuplicateTable(_))
        ));
    }

    #[test]
    fn bad_output_map_rejected() {
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 7])
            .returns("T");
        assert!(plan.validate(&schema()).is_err());
    }

    #[test]
    fn example_1_2_plan_validates() {
        // Access ud to get ids, then pr with each id, filter salary = 10000,
        // return names.
        let mut vf = rbqa_common::ValueFactory::new();
        let salary = vf.constant("10000");
        let plan = PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("profs", "pr", RaExpr::table("ids"), vec![0], vec![0, 1, 2])
            .middleware(
                "matching",
                RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, salary)),
            )
            .middleware("names", RaExpr::project(RaExpr::table("matching"), vec![1]))
            .returns("names");
        assert!(plan.validate(&schema()).is_ok());
        assert_eq!(plan.access_command_count(), 2);
        assert_eq!(plan.output_table(), "names");
    }
}
