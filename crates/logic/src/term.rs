//! Terms: variables and constants appearing in atoms.

use rbqa_common::Value;
use rustc_hash::FxHashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Identifier of a variable within one query or dependency.
///
/// Variable identifiers are *local* to the [`VarPool`] (and hence to the
/// query / dependency) that created them; two different queries may both use
/// `VarId(0)` for unrelated variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Builds a `VarId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        VarId(u32::try_from(index).expect("more than u32::MAX variables"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: either a variable or a domain constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, identified within its owning query/dependency.
    Var(VarId),
    /// A domain constant.
    Const(Value),
}

impl Term {
    /// Whether the term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Whether the term is a constant.
    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// The variable id, if this term is a variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant value, if this term is a constant.
    pub fn as_const(self) -> Option<Value> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Allocator of named variables for one query or dependency.
///
/// The names are shared copy-on-write: cloning a pool (as every renamed or
/// relation-remapped copy of a query or dependency does) costs no
/// allocation, and the first [`VarPool::var`] or [`VarPool::fresh`] that
/// adds a name to a shared pool copies it.
///
/// ```
/// use rbqa_logic::VarPool;
/// let mut pool = VarPool::new();
/// let x = pool.var("x");
/// assert_eq!(pool.var("x"), x);
/// assert_ne!(pool.var("y"), x);
/// assert_eq!(pool.name(x), "x");
/// ```
#[derive(Debug, Default, Clone)]
pub struct VarPool {
    /// `None` while the pool is empty, so an empty pool allocates nothing.
    shared: Option<Arc<PoolNames>>,
}

#[derive(Debug, Default, Clone)]
struct PoolNames {
    names: Vec<String>,
    by_name: FxHashMap<String, VarId>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn names(&self) -> &[String] {
        self.shared.as_deref().map_or(&[], |pool| &pool.names)
    }

    /// The pool `{prefix}0, …, {prefix}{count-1}`: variable `i` is named
    /// `{prefix}{i}`.
    pub fn numbered(prefix: &str, count: usize) -> Self {
        let mut pool = VarPool::new();
        let mut name = String::new();
        for i in 0..count {
            name.clear();
            let _ = write!(name, "{prefix}{i}");
            pool.var(&name);
        }
        pool
    }

    /// Returns the variable named `name`, creating it if necessary.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(v) = self.get(name) {
            return v;
        }
        let pool = Arc::make_mut(self.shared.get_or_insert_with(Default::default));
        let v = VarId::from_index(pool.names.len());
        pool.names.push(name.to_owned());
        pool.by_name.insert(name.to_owned(), v);
        v
    }

    /// Creates a fresh variable with a generated name.
    pub fn fresh(&mut self, hint: &str) -> VarId {
        let mut k = self.len();
        loop {
            let candidate = format!("{hint}_{k}");
            if self.get(&candidate).is_none() {
                return self.var(&candidate);
            }
            k += 1;
        }
    }

    /// Looks up a variable by name without creating it.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.shared.as_deref()?.by_name.get(name).copied()
    }

    /// The name of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not created by this pool.
    pub fn name(&self, var: VarId) -> &str {
        &self.names()[var.index()]
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.names().len()
    }

    /// Whether no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.names().is_empty()
    }

    /// Iterates over all variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> {
        (0..self.len()).map(VarId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::ValueFactory;

    #[test]
    fn var_pool_deduplicates_names() {
        let mut pool = VarPool::new();
        let x = pool.var("x");
        assert_eq!(pool.var("x"), x);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.name(x), "x");
    }

    #[test]
    fn fresh_vars_never_collide() {
        let mut pool = VarPool::new();
        pool.var("z_0");
        let f1 = pool.fresh("z");
        let f2 = pool.fresh("z");
        assert_ne!(f1, f2);
        assert_ne!(pool.name(f1), "z_0");
    }

    #[test]
    fn term_classification() {
        let mut vf = ValueFactory::new();
        let c = vf.constant("a");
        let t_const = Term::Const(c);
        let t_var = Term::Var(VarId::from_index(3));
        assert!(t_const.is_const() && !t_const.is_var());
        assert!(t_var.is_var() && !t_var.is_const());
        assert_eq!(t_const.as_const(), Some(c));
        assert_eq!(t_var.as_var(), Some(VarId::from_index(3)));
        assert_eq!(t_const.as_var(), None);
        assert_eq!(t_var.as_const(), None);
    }

    #[test]
    fn get_does_not_create() {
        let mut pool = VarPool::new();
        assert!(pool.get("x").is_none());
        pool.var("x");
        assert!(pool.get("x").is_some());
    }

    #[test]
    fn clones_share_names_until_one_adds_a_variable() {
        let mut pool = VarPool::new();
        let x = pool.var("x");
        let mut copy = pool.clone();
        assert_eq!(copy.var("x"), x);
        let y = copy.var("y");
        assert_eq!(copy.name(y), "y");
        assert_eq!(copy.len(), 2);
        // The original is untouched by the copy's addition.
        assert_eq!(pool.len(), 1);
        assert!(pool.get("y").is_none());
        assert!(VarPool::new().is_empty());
    }

    #[test]
    fn numbered_pools_name_variables_by_index() {
        let pool = VarPool::numbered("x", 3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.get("x2"), Some(VarId::from_index(2)));
        assert_eq!(pool.name(VarId::from_index(0)), "x0");
    }

    #[test]
    fn iter_yields_all_vars() {
        let mut pool = VarPool::new();
        pool.var("a");
        pool.var("b");
        assert_eq!(pool.iter().count(), 2);
    }
}
