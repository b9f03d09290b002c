//! Domain values: interned constants and labelled nulls.
//!
//! The paper distinguishes ordinary domain elements (constants of the
//! instance / query) from *nulls*, the fresh elements introduced when the
//! chase fires a tuple-generating dependency with existentially quantified
//! head variables. Both are represented by the [`Value`] enum; nulls carry a
//! monotonically increasing [`NullId`] handed out by a [`ValueFactory`].

use std::fmt;
use std::sync::Arc;

use crate::Interner;

/// Identifier of an interned constant symbol (see [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

impl ConstId {
    /// Builds a `ConstId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        ConstId(u32::try_from(index).expect("more than u32::MAX constants interned"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a labelled null created during the chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(u64);

impl NullId {
    /// Builds a `NullId` from a raw counter value.
    pub fn from_raw(raw: u64) -> Self {
        NullId(raw)
    }

    /// The raw counter value backing this id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A domain value: either a named constant or a labelled null.
///
/// Ordering is defined (constants before nulls, then by id) so that tuples
/// of values can be sorted deterministically, which keeps chase runs and
/// benchmark workloads reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An interned constant symbol.
    Const(ConstId),
    /// A labelled null introduced by a chase step.
    Null(NullId),
}

impl Value {
    /// Whether the value is a constant.
    pub fn is_const(self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Whether the value is a labelled null.
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the constant id if the value is a constant.
    pub fn as_const(self) -> Option<ConstId> {
        match self {
            Value::Const(c) => Some(c),
            Value::Null(_) => None,
        }
    }

    /// Returns the null id if the value is a null.
    pub fn as_null(self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(n),
            Value::Const(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "c{}", c.index()),
            Value::Null(n) => write!(f, "_n{}", n.raw()),
        }
    }
}

/// Factory for fresh values: owns the constant interner and the null
/// counter.
///
/// A single factory is shared by a whole reasoning task (query, constraints,
/// instances, chase) so that constant identity is global and nulls are never
/// reused.
///
/// The constants live in two layers: a frozen *base*, shared by every clone
/// through an [`Arc`], and a private *overlay* whose ids continue after the
/// base's. [`ValueFactory::freeze`] moves the overlay into a new base, so a
/// factory that is cloned per request (a catalog's) is frozen once and each
/// clone then copies only the constants it interns itself. Freezing never
/// changes an id: a frozen factory hands out exactly the ids an unfrozen one
/// would under the same interning sequence.
#[derive(Debug, Default, Clone)]
pub struct ValueFactory {
    base: Arc<Interner>,
    overlay: Interner,
    next_null: u64,
}

impl ValueFactory {
    /// Creates a factory with no interned constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant symbol and returns it as a [`Value`].
    pub fn constant(&mut self, name: &str) -> Value {
        if let Some(id) = self.base.get(name) {
            return Value::Const(id);
        }
        let local = self.overlay.intern(name);
        Value::Const(ConstId::from_index(self.base.len() + local.index()))
    }

    /// Returns the already-interned constant for `name`, if any.
    pub fn lookup_constant(&self, name: &str) -> Option<Value> {
        let id = match self.base.get(name) {
            Some(id) => id,
            None => ConstId::from_index(self.base.len() + self.overlay.get(name)?.index()),
        };
        Some(Value::Const(id))
    }

    /// Creates a fresh labelled null, never equal to any previously created
    /// value.
    pub fn fresh_null(&mut self) -> Value {
        let id = NullId::from_raw(self.next_null);
        self.next_null += 1;
        Value::Null(id)
    }

    /// Number of nulls created so far.
    pub fn nulls_created(&self) -> u64 {
        self.next_null
    }

    /// Renders a value for human consumption (constants by their original
    /// string, nulls as `_nK`).
    pub fn display(&self, value: Value) -> String {
        match value {
            Value::Const(c) => match c.index().checked_sub(self.base.len()) {
                None => self.base.resolve(c),
                Some(local) => self.overlay.resolve(ConstId::from_index(local)),
            }
            .to_owned(),
            Value::Null(n) => format!("_n{}", n.raw()),
        }
    }

    /// Number of constants interned so far; their ids are exactly
    /// `0..constant_count()`.
    pub fn constant_count(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    /// Moves every constant interned so far into the shared base, so that
    /// clones made afterwards share those constants instead of copying
    /// them. Ids are unchanged. Clones made earlier keep their own layers.
    pub fn freeze(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let mut base = Arc::unwrap_or_clone(std::mem::take(&mut self.base));
        let overlay = std::mem::take(&mut self.overlay);
        for (_, name) in overlay.iter() {
            base.intern(name);
        }
        self.base = Arc::new(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_deduplicated() {
        let mut f = ValueFactory::new();
        let a = f.constant("alice");
        let b = f.constant("alice");
        assert_eq!(a, b);
        assert!(a.is_const());
    }

    #[test]
    fn nulls_are_always_fresh() {
        let mut f = ValueFactory::new();
        let n1 = f.fresh_null();
        let n2 = f.fresh_null();
        assert_ne!(n1, n2);
        assert!(n1.is_null());
        assert_eq!(f.nulls_created(), 2);
    }

    #[test]
    fn constants_and_nulls_never_collide() {
        let mut f = ValueFactory::new();
        let c = f.constant("x");
        let n = f.fresh_null();
        assert_ne!(c, n);
        assert!(c.as_const().is_some());
        assert!(c.as_null().is_none());
        assert!(n.as_null().is_some());
        assert!(n.as_const().is_none());
    }

    #[test]
    fn display_resolves_original_names() {
        let mut f = ValueFactory::new();
        let c = f.constant("12345");
        let n = f.fresh_null();
        assert_eq!(f.display(c), "12345");
        assert_eq!(f.display(n), "_n0");
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut f = ValueFactory::new();
        let c0 = f.constant("a");
        let c1 = f.constant("b");
        let n0 = f.fresh_null();
        let mut values = vec![n0, c1, c0];
        values.sort();
        assert_eq!(values, vec![c0, c1, n0]);
    }

    #[test]
    fn lookup_constant_does_not_intern() {
        let mut f = ValueFactory::new();
        assert!(f.lookup_constant("zzz").is_none());
        f.constant("zzz");
        assert!(f.lookup_constant("zzz").is_some());
    }

    /// Interns `names` in order, returning the ids.
    fn intern_all(f: &mut ValueFactory, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| f.constant(n)).collect()
    }

    #[test]
    fn freezing_never_changes_an_id() {
        let sequence = ["a", "b", "a", "c", "d", "b", "e"];
        let mut plain = ValueFactory::new();
        let expected = intern_all(&mut plain, &sequence);
        // Freeze after every prefix: the ids stay those of the unfrozen
        // factory, before and after the boundary.
        for cut in 0..=sequence.len() {
            let mut f = ValueFactory::new();
            let mut ids = intern_all(&mut f, &sequence[..cut]);
            f.freeze();
            ids.extend(intern_all(&mut f, &sequence[cut..]));
            assert_eq!(ids, expected, "frozen after {cut} constants");
            assert_eq!(f.constant_count(), plain.constant_count());
        }
    }

    #[test]
    fn clones_share_the_base_but_not_their_overlays() {
        let mut catalog = ValueFactory::new();
        let a = catalog.constant("a");
        let b = catalog.constant("b");
        catalog.freeze();
        let mut left = catalog.clone();
        let mut right = catalog.clone();
        let x = left.constant("x");
        let y = right.constant("y");
        // Both clones continue after the base: the same id, different
        // constants, and neither leaks into the base or the sibling.
        assert_eq!(x, y);
        assert_eq!(left.display(x), "x");
        assert_eq!(right.display(y), "y");
        assert_eq!(catalog.lookup_constant("x"), None);
        assert_eq!(right.lookup_constant("x"), None);
        assert_eq!(left.lookup_constant("y"), None);
        assert_eq!(catalog.constant_count(), 2);
        assert_eq!(left.constant_count(), 3);
        // Constants of the base resolve the same way in every clone.
        for f in [&catalog, &left, &right] {
            assert_eq!(f.lookup_constant("a"), Some(a));
            assert_eq!(f.lookup_constant("b"), Some(b));
            assert_eq!(f.display(b), "b");
        }
        // Re-interning a base constant in a clone reuses its id.
        assert_eq!(left.constant("a"), a);
        assert_eq!(left.constant_count(), 3);
    }

    #[test]
    fn display_and_lookup_work_across_the_boundary() {
        let mut f = ValueFactory::new();
        let below = f.constant("below");
        f.freeze();
        let above = f.constant("above");
        assert_eq!(f.display(below), "below");
        assert_eq!(f.display(above), "above");
        assert_eq!(f.lookup_constant("below"), Some(below));
        assert_eq!(f.lookup_constant("above"), Some(above));
        assert_eq!(f.lookup_constant("neither"), None);
        // A second freeze folds the overlay into a new base.
        f.freeze();
        assert_eq!(f.display(above), "above");
        assert_eq!(f.lookup_constant("above"), Some(above));
        assert_eq!(f.constant("above"), above);
        assert_eq!(f.constant_count(), 2);
    }
}
