//! Monotone relational algebra expressions over temporary tables.
//!
//! Expressions are *monotone*: they use selection, projection, join, union
//! and constants, but no difference operator — adding rows to any input can
//! only add rows to the output. This is the middleware language of monotone
//! plans (paper, Section 2).

use rbqa_common::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;

/// Errors raised while validating or evaluating plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A referenced temporary table has not been produced yet.
    UnknownTable(String),
    /// A command re-defines a temporary table an earlier command already
    /// produced (silent shadowing — possibly at a different arity — is
    /// rejected outright).
    DuplicateTable(String),
    /// A referenced access method does not exist in the schema.
    UnknownMethod(String),
    /// Column index out of range, arity mismatch, or similar structural
    /// problem.
    Malformed(String),
    /// The data-source backend failed an access (quota exhausted, service
    /// unavailable, method not served).
    Access(crate::backend::AccessError),
    /// The request's deadline expired mid-execution and the plan run was
    /// aborted cooperatively (checked before every access).
    DeadlineExceeded,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown temporary table `{t}`"),
            PlanError::DuplicateTable(t) => {
                write!(
                    f,
                    "duplicate temporary table `{t}`: a command already produced it"
                )
            }
            PlanError::UnknownMethod(m) => write!(f, "unknown access method `{m}`"),
            PlanError::Malformed(msg) => write!(f, "malformed plan: {msg}"),
            PlanError::Access(e) => write!(f, "access failed: {e}"),
            PlanError::DeadlineExceeded => {
                write!(f, "plan execution aborted: request deadline expired")
            }
        }
    }
}

impl From<crate::backend::AccessError> for PlanError {
    fn from(e: crate::backend::AccessError) -> Self {
        PlanError::Access(e)
    }
}

impl std::error::Error for PlanError {}

/// A deduplicated temporary table with a fixed arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TempTable {
    arity: usize,
    rows: Vec<Vec<Value>>,
    present: FxHashSet<Vec<Value>>,
}

impl TempTable {
    /// Creates an empty table of the given arity.
    pub fn new(arity: usize) -> Self {
        TempTable {
            arity,
            rows: Vec::new(),
            present: FxHashSet::default(),
        }
    }

    /// Creates a table from rows (all of which must have length `arity`).
    pub fn from_rows(arity: usize, rows: Vec<Vec<Value>>) -> Result<Self, PlanError> {
        let mut t = TempTable::new(arity);
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// The table's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The rows, in insertion order (deduplicated).
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row, ignoring duplicates.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<bool, PlanError> {
        if row.len() != self.arity {
            return Err(PlanError::Malformed(format!(
                "row of length {} inserted into table of arity {}",
                row.len(),
                self.arity
            )));
        }
        if self.present.contains(&row) {
            return Ok(false);
        }
        self.present.insert(row.clone());
        self.rows.push(row);
        Ok(true)
    }

    /// The rows as a sorted vector (for deterministic comparison).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// A selection condition over the columns of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// Always true.
    True,
    /// Column `0` equals column `1`.
    EqColumns(usize, usize),
    /// Column equals a constant.
    EqConst(usize, Value),
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
}

impl Condition {
    /// `column = value`.
    pub fn eq_const(column: usize, value: Value) -> Condition {
        Condition::EqConst(column, value)
    }

    /// `left = right` (two columns).
    pub fn eq_columns(left: usize, right: usize) -> Condition {
        Condition::EqColumns(left, right)
    }

    /// Conjunction of two conditions.
    pub fn and(self, other: Condition) -> Condition {
        Condition::And(Box::new(self), Box::new(other))
    }

    /// Evaluates the condition on a row.
    pub fn matches(&self, row: &[Value]) -> bool {
        match self {
            Condition::True => true,
            Condition::EqColumns(a, b) => row.get(*a) == row.get(*b),
            Condition::EqConst(a, v) => row.get(*a) == Some(v),
            Condition::And(l, r) => l.matches(row) && r.matches(row),
        }
    }

    /// The largest column index mentioned (for validation).
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Condition::True => None,
            Condition::EqColumns(a, b) => Some(*a.max(b)),
            Condition::EqConst(a, _) => Some(*a),
            Condition::And(l, r) => match (l.max_column(), r.max_column()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
        }
    }
}

/// A monotone relational algebra expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaExpr {
    /// Scan of a previously produced temporary table.
    Table(String),
    /// A constant relation containing exactly the given rows (all of the
    /// same length). `RaExpr::unit()` — the nullary relation with one empty
    /// row — is used to feed input-free access commands.
    Constant {
        /// The arity of the constant relation.
        arity: usize,
        /// Its rows.
        rows: Vec<Vec<Value>>,
    },
    /// Selection.
    Select {
        /// Input expression.
        input: Box<RaExpr>,
        /// Filter condition.
        condition: Condition,
    },
    /// Projection onto the given columns (in order, repetitions allowed).
    Project {
        /// Input expression.
        input: Box<RaExpr>,
        /// Output columns.
        columns: Vec<usize>,
    },
    /// Join: the output rows are concatenations `left ++ right` of pairs
    /// agreeing on the listed column pairs.
    Join {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
        /// Pairs `(left column, right column)` that must be equal.
        on: Vec<(usize, usize)>,
    },
    /// Union of two expressions of the same arity.
    Union {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
    },
}

impl RaExpr {
    /// Scan of a temporary table.
    pub fn table(name: &str) -> RaExpr {
        RaExpr::Table(name.to_owned())
    }

    /// The nullary relation with a single (empty) row: the trivial binding
    /// used to call input-free methods.
    pub fn unit() -> RaExpr {
        RaExpr::Constant {
            arity: 0,
            rows: vec![Vec::new()],
        }
    }

    /// A single-row constant relation.
    pub fn singleton(row: Vec<Value>) -> RaExpr {
        RaExpr::Constant {
            arity: row.len(),
            rows: vec![row],
        }
    }

    /// Selection.
    pub fn select(input: RaExpr, condition: Condition) -> RaExpr {
        RaExpr::Select {
            input: Box::new(input),
            condition,
        }
    }

    /// Projection.
    pub fn project(input: RaExpr, columns: Vec<usize>) -> RaExpr {
        RaExpr::Project {
            input: Box::new(input),
            columns,
        }
    }

    /// Join on the given column pairs.
    pub fn join(left: RaExpr, right: RaExpr, on: Vec<(usize, usize)>) -> RaExpr {
        RaExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            on,
        }
    }

    /// Union.
    pub fn union(left: RaExpr, right: RaExpr) -> RaExpr {
        RaExpr::Union {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Computes the arity of the expression given the arities of the
    /// temporary tables produced so far.
    pub fn arity(&self, env: &FxHashMap<String, usize>) -> Result<usize, PlanError> {
        match self {
            RaExpr::Table(name) => env
                .get(name)
                .copied()
                .ok_or_else(|| PlanError::UnknownTable(name.clone())),
            RaExpr::Constant { arity, rows } => {
                if rows.iter().any(|r| r.len() != *arity) {
                    return Err(PlanError::Malformed(
                        "constant relation with rows of inconsistent arity".to_owned(),
                    ));
                }
                Ok(*arity)
            }
            RaExpr::Select { input, condition } => {
                let arity = input.arity(env)?;
                if let Some(max) = condition.max_column() {
                    if max >= arity {
                        return Err(PlanError::Malformed(format!(
                            "selection condition mentions column {max} but the input has arity {arity}"
                        )));
                    }
                }
                Ok(arity)
            }
            RaExpr::Project { input, columns } => {
                let arity = input.arity(env)?;
                if let Some(&max) = columns.iter().max() {
                    if max >= arity {
                        return Err(PlanError::Malformed(format!(
                            "projection column {max} out of range for arity {arity}"
                        )));
                    }
                }
                Ok(columns.len())
            }
            RaExpr::Join { left, right, on } => {
                let la = left.arity(env)?;
                let ra = right.arity(env)?;
                for (l, r) in on {
                    if *l >= la || *r >= ra {
                        return Err(PlanError::Malformed(format!(
                            "join condition ({l}, {r}) out of range for arities ({la}, {ra})"
                        )));
                    }
                }
                Ok(la + ra)
            }
            RaExpr::Union { left, right } => {
                let la = left.arity(env)?;
                let ra = right.arity(env)?;
                if la != ra {
                    return Err(PlanError::Malformed(format!(
                        "union of expressions with different arities {la} and {ra}"
                    )));
                }
                Ok(la)
            }
        }
    }

    /// Evaluates the expression against the environment of temporary
    /// tables.
    pub fn evaluate(&self, env: &FxHashMap<String, TempTable>) -> Result<TempTable, PlanError> {
        match self {
            RaExpr::Table(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| PlanError::UnknownTable(name.clone())),
            RaExpr::Constant { arity, rows } => TempTable::from_rows(*arity, rows.clone()),
            RaExpr::Select { input, condition } => {
                let table = input.evaluate(env)?;
                let mut out = TempTable::new(table.arity());
                for row in table.rows() {
                    if condition.matches(row) {
                        out.insert(row.clone())?;
                    }
                }
                Ok(out)
            }
            RaExpr::Project { input, columns } => {
                let table = input.evaluate(env)?;
                let mut out = TempTable::new(columns.len());
                for row in table.rows() {
                    let projected: Vec<Value> = columns.iter().map(|&c| row[c]).collect();
                    out.insert(projected)?;
                }
                Ok(out)
            }
            RaExpr::Join { left, right, on } => {
                let lt = left.evaluate(env)?;
                let rt = right.evaluate(env)?;
                let mut out = TempTable::new(lt.arity() + rt.arity());
                for lrow in lt.rows() {
                    for rrow in rt.rows() {
                        if on.iter().all(|(l, r)| lrow[*l] == rrow[*r]) {
                            let mut row = lrow.clone();
                            row.extend(rrow.iter().copied());
                            out.insert(row)?;
                        }
                    }
                }
                Ok(out)
            }
            RaExpr::Union { left, right } => {
                let lt = left.evaluate(env)?;
                let rt = right.evaluate(env)?;
                if lt.arity() != rt.arity() {
                    return Err(PlanError::Malformed(
                        "union of tables with different arities".to_owned(),
                    ));
                }
                let mut out = TempTable::new(lt.arity());
                for row in lt.rows().iter().chain(rt.rows().iter()) {
                    out.insert(row.clone())?;
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::ValueFactory;

    fn env_with(name: &str, table: TempTable) -> FxHashMap<String, TempTable> {
        let mut env = FxHashMap::default();
        env.insert(name.to_owned(), table);
        env
    }

    #[test]
    fn unit_has_one_empty_row() {
        let unit = RaExpr::unit();
        let table = unit.evaluate(&FxHashMap::default()).unwrap();
        assert_eq!(table.arity(), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn select_project_pipeline() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let ten = vf.constant("10000");
        let twenty = vf.constant("20000");
        let table = TempTable::from_rows(3, vec![vec![a, a, ten], vec![b, b, twenty]]).unwrap();
        let env = env_with("profs", table);
        let expr = RaExpr::project(
            RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, ten)),
            vec![1],
        );
        let result = expr.evaluate(&env).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.rows()[0], vec![a]);
        let mut arities = FxHashMap::default();
        arities.insert("profs".to_owned(), 3);
        assert_eq!(expr.arity(&arities).unwrap(), 1);
    }

    #[test]
    fn join_combines_matching_rows() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let c = vf.constant("c");
        let left = TempTable::from_rows(2, vec![vec![a, b], vec![b, c]]).unwrap();
        let right = TempTable::from_rows(2, vec![vec![b, c], vec![c, a]]).unwrap();
        let mut env = FxHashMap::default();
        env.insert("l".to_owned(), left);
        env.insert("r".to_owned(), right);
        // Join l.1 = r.0 : path of length 2.
        let expr = RaExpr::join(RaExpr::table("l"), RaExpr::table("r"), vec![(1, 0)]);
        let result = expr.evaluate(&env).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.arity(), 4);
        assert!(result.rows().contains(&vec![a, b, b, c]));
        assert!(result.rows().contains(&vec![b, c, c, a]));
    }

    #[test]
    fn union_deduplicates() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let t1 = TempTable::from_rows(1, vec![vec![a], vec![b]]).unwrap();
        let t2 = TempTable::from_rows(1, vec![vec![a]]).unwrap();
        let mut env = FxHashMap::default();
        env.insert("t1".to_owned(), t1);
        env.insert("t2".to_owned(), t2);
        let expr = RaExpr::union(RaExpr::table("t1"), RaExpr::table("t2"));
        assert_eq!(expr.evaluate(&env).unwrap().len(), 2);
    }

    #[test]
    fn union_arity_mismatch_is_error() {
        let t1 = TempTable::new(1);
        let t2 = TempTable::new(2);
        let mut env = FxHashMap::default();
        env.insert("t1".to_owned(), t1);
        env.insert("t2".to_owned(), t2);
        let expr = RaExpr::union(RaExpr::table("t1"), RaExpr::table("t2"));
        assert!(expr.evaluate(&env).is_err());
        let mut arities = FxHashMap::default();
        arities.insert("t1".to_owned(), 1);
        arities.insert("t2".to_owned(), 2);
        assert!(expr.arity(&arities).is_err());
    }

    #[test]
    fn condition_evaluation() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let row = vec![a, b, a];
        assert!(Condition::True.matches(&row));
        assert!(Condition::eq_columns(0, 2).matches(&row));
        assert!(!Condition::eq_columns(0, 1).matches(&row));
        assert!(Condition::eq_const(1, b).matches(&row));
        assert!(Condition::eq_columns(0, 2)
            .and(Condition::eq_const(0, a))
            .matches(&row));
        assert!(!Condition::eq_columns(0, 1)
            .and(Condition::eq_const(0, a))
            .matches(&row));
        assert_eq!(Condition::True.max_column(), None);
        assert_eq!(
            Condition::eq_columns(0, 2)
                .and(Condition::eq_const(5, a))
                .max_column(),
            Some(5)
        );
    }

    #[test]
    fn unknown_table_reported() {
        let expr = RaExpr::table("missing");
        assert!(matches!(
            expr.evaluate(&FxHashMap::default()),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    fn temp_table_rejects_bad_arity() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let mut t = TempTable::new(2);
        assert!(t.insert(vec![a]).is_err());
        assert!(t.insert(vec![a, a]).is_ok());
        assert!(!t.insert(vec![a, a]).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn projection_out_of_range_detected_in_arity_check() {
        let mut arities = FxHashMap::default();
        arities.insert("t".to_owned(), 2);
        let expr = RaExpr::project(RaExpr::table("t"), vec![0, 5]);
        assert!(expr.arity(&arities).is_err());
    }
}
