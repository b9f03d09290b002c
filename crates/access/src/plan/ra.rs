//! Monotone relational algebra expressions over temporary tables.
//!
//! Expressions are *monotone*: they use selection, projection, join, union
//! and constants, but no difference operator — adding rows to any input can
//! only add rows to the output. This is the middleware language of monotone
//! plans (paper, Section 2).

use rbqa_common::Value;
use rustc_hash::{FxHashMap, FxHasher};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};

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
    /// aborted cooperatively (checked before every command and every
    /// access).
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
///
/// Each row is stored once, in insertion order; a hash index over the row
/// store rejects a duplicate without copying it. Equality compares the
/// arity and the rows only.
#[derive(Debug, Clone)]
pub struct TempTable {
    arity: usize,
    rows: Vec<Vec<Value>>,
    index: HashChains,
}

impl PartialEq for TempTable {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.rows == other.rows
    }
}

impl Eq for TempTable {}

impl TempTable {
    /// Creates an empty table of the given arity.
    pub fn new(arity: usize) -> Self {
        TempTable {
            arity,
            rows: Vec::new(),
            index: HashChains::default(),
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
        let Some(hash) = self.vacancy(&row)? else {
            return Ok(false);
        };
        self.push(hash, row);
        Ok(true)
    }

    /// Inserts a copy of `row`, ignoring duplicates; a duplicate allocates
    /// nothing.
    pub(crate) fn insert_slice(&mut self, row: &[Value]) -> Result<bool, PlanError> {
        let Some(hash) = self.vacancy(row)? else {
            return Ok(false);
        };
        self.push(hash, row.to_vec());
        Ok(true)
    }

    /// The hash under which `row` would be stored, or `None` when the
    /// table already holds it.
    fn vacancy(&self, row: &[Value]) -> Result<Option<u64>, PlanError> {
        if row.len() != self.arity {
            return Err(PlanError::Malformed(format!(
                "row of length {} inserted into table of arity {}",
                row.len(),
                self.arity
            )));
        }
        let hash = hash_values(row);
        let present = self.index.chain(hash).any(|i| self.rows[i] == row);
        Ok((!present).then_some(hash))
    }

    /// Appends a row the table does not hold, under its hash.
    fn push(&mut self, hash: u64, row: Vec<Value>) {
        self.index.push(hash);
        self.rows.push(row);
    }

    /// The rows as a sorted vector (for deterministic comparison).
    pub fn into_sorted_rows(self) -> Vec<Vec<Value>> {
        let mut rows = self.rows;
        rows.sort();
        rows
    }
}

/// Positions `0..n` grouped by a 64-bit hash: each chain lists the
/// positions pushed under one hash, in push order.
#[derive(Debug, Clone, Default)]
struct HashChains {
    /// Hash → the first and the last position of its chain.
    ends: FxHashMap<u64, (u32, u32)>,
    /// Position → the next position in its chain, or [`CHAIN_END`].
    next: Vec<u32>,
}

const CHAIN_END: u32 = u32::MAX;

impl HashChains {
    /// Appends the next position to the chain of `hash`.
    fn push(&mut self, hash: u64) {
        assert!(
            self.next.len() < CHAIN_END as usize,
            "a hash chain indexes fewer than u32::MAX positions"
        );
        let position = self.next.len() as u32;
        self.next.push(CHAIN_END);
        match self.ends.entry(hash) {
            Entry::Occupied(mut ends) => {
                let last = &mut ends.get_mut().1;
                self.next[*last as usize] = position;
                *last = position;
            }
            Entry::Vacant(ends) => {
                ends.insert((position, position));
            }
        }
    }

    /// The positions pushed under `hash`, in push order.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut position = self.ends.get(&hash).map_or(CHAIN_END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (position != CHAIN_END).then(|| {
                let current = position as usize;
                position = self.next[current];
                current
            })
        })
    }
}

/// The hash of a sequence of values (a row, or a row's join key).
fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    for value in values {
        value.hash(&mut hasher);
    }
    hasher.finish()
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
        self.eval(env).map(Cow::into_owned)
    }

    /// Evaluates the expression, copying only the rows it outputs.
    ///
    /// A result that is one table of `env` unchanged (a scan, `unit ⋈ E`,
    /// a `True` selection) is borrowed. Every other result holds exactly
    /// the rows of the nested-loop evaluation in the same insertion order,
    /// so the order of the access calls a plan makes does not depend on
    /// this kernel.
    pub(crate) fn eval<'a>(
        &self,
        env: &'a FxHashMap<String, TempTable>,
    ) -> Result<Cow<'a, TempTable>, PlanError> {
        match self {
            RaExpr::Table(name) => env
                .get(name)
                .map(Cow::Borrowed)
                .ok_or_else(|| PlanError::UnknownTable(name.clone())),
            RaExpr::Constant { arity, rows } => {
                let mut out = TempTable::new(*arity);
                for row in rows {
                    out.insert_slice(row)?;
                }
                Ok(Cow::Owned(out))
            }
            RaExpr::Select { input, condition } => {
                let table = input.eval(env)?;
                if matches!(condition, Condition::True) {
                    return Ok(table);
                }
                let mut out = TempTable::new(table.arity());
                for row in table.rows() {
                    if condition.matches(row) {
                        out.insert_slice(row)?;
                    }
                }
                Ok(Cow::Owned(out))
            }
            RaExpr::Project { input, columns } => {
                let table = input.eval(env)?;
                let mut out = TempTable::new(columns.len());
                project_into(table.rows(), columns, &mut out, &mut Vec::new())?;
                Ok(Cow::Owned(out))
            }
            RaExpr::Join { left, right, on } => {
                let lt = left.eval(env)?;
                let rt = right.eval(env)?;
                if on.is_empty() && is_unit(&lt) {
                    return Ok(rt);
                }
                Ok(Cow::Owned(hash_join(&lt, &rt, on)))
            }
            // A union chain is left-deep (plan synthesis folds it so): the
            // left side's owned result is extended in place, so each leaf's
            // rows are inserted once, and a projected leaf streams its rows
            // in without a table of its own.
            RaExpr::Union { left, right } => {
                let mut out = left.eval(env)?.into_owned();
                let mismatch =
                    || PlanError::Malformed("union of tables with different arities".to_owned());
                if let RaExpr::Project { input, columns } = &**right {
                    let table = input.eval(env)?;
                    if out.arity() != columns.len() {
                        return Err(mismatch());
                    }
                    project_into(table.rows(), columns, &mut out, &mut Vec::new())?;
                } else {
                    let rt = right.eval(env)?;
                    if out.arity() != rt.arity() {
                        return Err(mismatch());
                    }
                    for row in rt.rows() {
                        out.insert_slice(row)?;
                    }
                }
                Ok(Cow::Owned(out))
            }
        }
    }
}

/// Inserts the projection of every row of `rows` onto `columns` into
/// `out`, building each projected row in `scratch`.
pub(crate) fn project_into(
    rows: &[Vec<Value>],
    columns: &[usize],
    out: &mut TempTable,
    scratch: &mut Vec<Value>,
) -> Result<(), PlanError> {
    for row in rows {
        scratch.clear();
        scratch.extend(columns.iter().map(|&c| row[c]));
        out.insert_slice(scratch)?;
    }
    Ok(())
}

/// Whether `table` is the unit relation: arity 0, one (empty) row.
fn is_unit(table: &TempTable) -> bool {
    table.arity() == 0 && table.len() == 1
}

/// `left ⋈ right` on the column pairs `on`, by hashing `right` on its join
/// columns. Left rows are probed in order and each bucket is visited in
/// right order, which is the nested loop's output order.
fn hash_join(left: &TempTable, right: &TempTable, on: &[(usize, usize)]) -> TempTable {
    let mut buckets = HashChains::default();
    for row in right.rows() {
        buckets.push(hash_values(on.iter().map(|&(_, r)| &row[r])));
    }
    let mut out = TempTable::new(left.arity() + right.arity());
    for lrow in left.rows() {
        let key = hash_values(on.iter().map(|&(l, _)| &lrow[l]));
        for i in buckets.chain(key) {
            let rrow = &right.rows()[i];
            if on.iter().all(|&(l, r)| lrow[l] == rrow[r]) {
                let mut row = Vec::with_capacity(out.arity());
                row.extend_from_slice(lrow);
                row.extend_from_slice(rrow);
                // Distinct input rows of fixed arities concatenate to
                // distinct output rows, so no duplicate check is needed.
                out.push(hash_values(&row), row);
            }
        }
    }
    out
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
    fn unchanged_tables_are_borrowed_not_copied() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let env = env_with("t", TempTable::from_rows(2, vec![vec![a, a]]).unwrap());
        let t = RaExpr::table("t");
        for expr in [
            t.clone(),
            RaExpr::join(RaExpr::unit(), t.clone(), vec![]),
            RaExpr::select(t.clone(), Condition::True),
        ] {
            assert!(
                matches!(expr.eval(&env).unwrap(), Cow::Borrowed(_)),
                "{expr:?}"
            );
        }
        let swapped = RaExpr::project(t, vec![1, 0]);
        assert!(matches!(swapped.eval(&env).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn hash_join_keeps_nested_loop_order() {
        let mut vf = ValueFactory::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| vf.constant(n));
        let left = TempTable::from_rows(2, vec![vec![b, a], vec![a, b], vec![c, a]]).unwrap();
        let right = TempTable::from_rows(2, vec![vec![a, d], vec![b, c], vec![a, c]]).unwrap();
        let mut env = env_with("l", left);
        env.insert("r".to_owned(), right);
        let expr = RaExpr::join(RaExpr::table("l"), RaExpr::table("r"), vec![(1, 0)]);
        let joined = expr.evaluate(&env).unwrap();
        // Left rows in order, each with its matches in right order.
        assert_eq!(
            joined.rows(),
            &[
                vec![b, a, a, d],
                vec![b, a, a, c],
                vec![a, b, b, c],
                vec![c, a, a, d],
                vec![c, a, a, c],
            ]
        );
        let product = RaExpr::join(RaExpr::table("l"), RaExpr::table("r"), vec![]);
        assert_eq!(product.evaluate(&env).unwrap().len(), 9);
    }

    #[test]
    fn union_chains_keep_first_occurrence_order() {
        let mut vf = ValueFactory::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| vf.constant(n));
        let mut env = env_with(
            "x",
            TempTable::from_rows(1, vec![vec![b], vec![a]]).unwrap(),
        );
        env.insert(
            "y".to_owned(),
            TempTable::from_rows(2, vec![vec![c, a], vec![a, b]]).unwrap(),
        );
        let leaves = || {
            [
                RaExpr::table("x"),
                RaExpr::project(RaExpr::table("y"), vec![0]),
                RaExpr::select(RaExpr::table("x"), Condition::eq_const(0, a)),
                RaExpr::singleton(vec![c]),
            ]
        };
        let left_deep = leaves().into_iter().reduce(RaExpr::union).unwrap();
        let right_deep = leaves()
            .into_iter()
            .rev()
            .reduce(|acc, e| RaExpr::union(e, acc))
            .unwrap();
        for expr in [left_deep, right_deep] {
            assert_eq!(
                expr.evaluate(&env).unwrap().rows(),
                &[vec![b], vec![a], vec![c]]
            );
        }
        // A leaf of another arity fails with the nested evaluator's error.
        let bad = RaExpr::union(
            RaExpr::table("x"),
            RaExpr::union(RaExpr::table("x"), RaExpr::table("y")),
        );
        assert_eq!(
            bad.evaluate(&env).unwrap_err(),
            PlanError::Malformed("union of tables with different arities".to_owned())
        );
    }

    #[test]
    fn equality_compares_arity_and_rows_only() {
        let mut vf = ValueFactory::new();
        let [a, b] = ["a", "b"].map(|n| vf.constant(n));
        let mut t = TempTable::new(1);
        assert!(t.insert_slice(&[a]).unwrap());
        assert!(!t.insert_slice(&[a]).unwrap());
        assert!(t.insert(vec![b]).unwrap());
        assert_eq!(t, TempTable::from_rows(1, vec![vec![a], vec![b]]).unwrap());
        assert_ne!(t, TempTable::from_rows(1, vec![vec![b], vec![a]]).unwrap());
        assert_ne!(TempTable::new(1), TempTable::new(2));
    }

    #[test]
    fn projection_out_of_range_detected_in_arity_check() {
        let mut arities = FxHashMap::default();
        arities.insert("t".to_owned(), 2);
        let expr = RaExpr::project(RaExpr::table("t"), vec![0, 5]);
        assert!(expr.arity(&arities).is_err());
    }
}
