//! Access selections: which valid output a (result-bounded) access returns.
//!
//! The semantics of plans is defined relative to a *valid access selection*
//! `σ` mapping each access `(mt, AccBind)` to a valid output (paper,
//! Section 2). Validity means: without a result bound, all matching tuples
//! are returned; with a result bound `k`, at most `k` tuples are returned
//! and at least `min(k, |M|)`; with a result lower bound, at least
//! `min(k, |M|)`.
//!
//! All implementations below are *idempotent*: repeating the same access
//! returns the same output (this is the paper's default semantics; it is
//! also shown there — Proposition A.2 — that the choice of semantics does
//! not affect answerability).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rbqa_common::Value;
use rustc_hash::FxHashMap;

use crate::method::AccessMethod;

/// A (stateful, idempotent) access selection.
pub trait AccessSelection {
    /// Selects a valid output among `matching` for an access to `method`
    /// with the given `binding` (pairs of input position and value).
    ///
    /// `matching` is the full set of matching tuples of the underlying
    /// instance; implementations must return a valid subset of it.
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>>;
}

impl<S: AccessSelection + ?Sized> AccessSelection for &mut S {
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>> {
        (**self).select(method, binding, matching)
    }
}

/// Cache key: method name plus the binding.
type AccessKey = (String, Vec<(usize, Value)>);

/// The size of the smallest valid output out of `matching` tuples: all of
/// them without a result bound, `min(k, matching)` under a bound (or lower
/// bound) of `k`. The truncating picks return exactly this many.
pub(crate) fn bounded_size(method: &AccessMethod, matching: usize) -> usize {
    match method.result_bound() {
        None => matching,
        Some(rb) => rb.valid_output_sizes(matching).0,
    }
}

/// Deterministic selection returning the first `min(k, |M|)` matching tuples
/// in sorted order. This models a service that returns results in a fixed
/// (e.g. primary-key) order.
#[derive(Debug, Default)]
pub struct TruncatingSelection {
    cache: FxHashMap<AccessKey, Vec<Vec<Value>>>,
}

impl TruncatingSelection {
    /// Creates the selection.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessSelection for TruncatingSelection {
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>> {
        let key = (method.name().to_owned(), binding.to_vec());
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let mut sorted: Vec<Vec<Value>> = matching.to_vec();
        sorted.sort();
        sorted.truncate(bounded_size(method, matching.len()));
        self.cache.insert(key, sorted.clone());
        sorted
    }
}

/// Deterministic selection returning the *last* `min(k, |M|)` tuples in
/// sorted order — a simple adversary relative to [`TruncatingSelection`],
/// useful to check that plans do not depend on which valid output is chosen.
#[derive(Debug, Default)]
pub struct AdversarialSelection {
    cache: FxHashMap<AccessKey, Vec<Vec<Value>>>,
}

impl AdversarialSelection {
    /// Creates the selection.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessSelection for AdversarialSelection {
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>> {
        let key = (method.name().to_owned(), binding.to_vec());
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let mut sorted: Vec<Vec<Value>> = matching.to_vec();
        sorted.sort();
        sorted.reverse();
        sorted.truncate(bounded_size(method, matching.len()));
        self.cache.insert(key, sorted.clone());
        sorted
    }
}

/// Random (but idempotent and seed-reproducible) selection of a valid
/// output.
#[derive(Debug)]
pub struct RandomSelection {
    rng: StdRng,
    cache: FxHashMap<AccessKey, Vec<Vec<Value>>>,
}

impl RandomSelection {
    /// Creates the selection from a seed.
    pub fn new(seed: u64) -> Self {
        RandomSelection {
            rng: StdRng::seed_from_u64(seed),
            cache: FxHashMap::default(),
        }
    }
}

impl AccessSelection for RandomSelection {
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>> {
        let key = (method.name().to_owned(), binding.to_vec());
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let mut shuffled: Vec<Vec<Value>> = matching.to_vec();
        shuffled.sort();
        shuffled.shuffle(&mut self.rng);
        shuffled.truncate(bounded_size(method, matching.len()));
        self.cache.insert(key, shuffled.clone());
        shuffled
    }
}

/// Selection that returns as many tuples as validity allows: all matching
/// tuples for unbounded methods and for result *lower* bounds, and
/// `min(k, |M|)` for exact bounds. Useful as the "most helpful service"
/// baseline.
#[derive(Debug, Default)]
pub struct GreedySelection {
    cache: FxHashMap<AccessKey, Vec<Vec<Value>>>,
}

impl GreedySelection {
    /// Creates the selection.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessSelection for GreedySelection {
    fn select(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
        matching: &[Vec<Value>],
    ) -> Vec<Vec<Value>> {
        let key = (method.name().to_owned(), binding.to_vec());
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let max = match method.result_bound() {
            None => matching.len(),
            Some(rb) => rb.valid_output_sizes(matching.len()).1,
        };
        let mut sorted: Vec<Vec<Value>> = matching.to_vec();
        sorted.sort();
        sorted.truncate(max);
        self.cache.insert(key, sorted.clone());
        sorted
    }
}

/// Checks that `output` is a valid output for an access to `method` with the
/// given matching tuples: it is a subset of the matching tuples and has a
/// valid size.
pub fn is_valid_output(
    method: &AccessMethod,
    matching: &[Vec<Value>],
    output: &[Vec<Value>],
) -> bool {
    if !output.iter().all(|t| matching.contains(t)) {
        return false;
    }
    let n = output.len();
    match method.result_bound() {
        None => n == matching.len(),
        Some(rb) => {
            let (min, max) = rb.valid_output_sizes(matching.len());
            n >= min && n <= max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::{RelationId, ValueFactory};

    fn method_with_bound(bound: Option<usize>) -> AccessMethod {
        let r = RelationId::from_index(0);
        match bound {
            None => AccessMethod::unbounded("m", r, &[]),
            Some(k) => AccessMethod::bounded("m", r, &[], k),
        }
    }

    fn tuples(n: usize) -> Vec<Vec<Value>> {
        let mut vf = ValueFactory::new();
        (0..n)
            .map(|i| vec![vf.constant(&format!("v{i}"))])
            .collect()
    }

    #[test]
    fn truncating_selection_respects_bound_and_idempotence() {
        let m = method_with_bound(Some(3));
        let matching = tuples(10);
        let mut sel = TruncatingSelection::new();
        let out1 = sel.select(&m, &[], &matching);
        let out2 = sel.select(&m, &[], &matching);
        assert_eq!(out1.len(), 3);
        assert_eq!(out1, out2);
        assert!(is_valid_output(&m, &matching, &out1));
    }

    #[test]
    fn unbounded_methods_return_everything() {
        let m = method_with_bound(None);
        let matching = tuples(5);
        let mut sel = TruncatingSelection::new();
        let out = sel.select(&m, &[], &matching);
        assert_eq!(out.len(), 5);
        assert!(is_valid_output(&m, &matching, &out));
    }

    #[test]
    fn bound_larger_than_matching_returns_all() {
        let m = method_with_bound(Some(100));
        let matching = tuples(4);
        let mut sel = RandomSelection::new(7);
        let out = sel.select(&m, &[], &matching);
        assert_eq!(out.len(), 4);
        assert!(is_valid_output(&m, &matching, &out));
    }

    #[test]
    fn adversarial_and_truncating_differ_but_are_both_valid() {
        let m = method_with_bound(Some(2));
        let matching = tuples(6);
        let mut t = TruncatingSelection::new();
        let mut a = AdversarialSelection::new();
        let out_t = t.select(&m, &[], &matching);
        let out_a = a.select(&m, &[], &matching);
        assert_ne!(out_t, out_a);
        assert!(is_valid_output(&m, &matching, &out_t));
        assert!(is_valid_output(&m, &matching, &out_a));
    }

    #[test]
    fn random_selection_is_reproducible_by_seed() {
        let m = method_with_bound(Some(3));
        let matching = tuples(8);
        let mut s1 = RandomSelection::new(42);
        let mut s2 = RandomSelection::new(42);
        assert_eq!(s1.select(&m, &[], &matching), s2.select(&m, &[], &matching));
    }

    #[test]
    fn greedy_selection_returns_more_under_lower_bounds() {
        let r = RelationId::from_index(0);
        let m = AccessMethod::unbounded("m", r, &[])
            .with_result_bound(Some(crate::method::ResultBound::lower(2)));
        let matching = tuples(5);
        let mut g = GreedySelection::new();
        let out = g.select(&m, &[], &matching);
        assert_eq!(out.len(), 5);
        assert!(is_valid_output(&m, &matching, &out));
        // But a truncating selection may return only 2 under the lower bound.
        let mut t = TruncatingSelection::new();
        let out_t = t.select(&m, &[], &matching);
        assert_eq!(out_t.len(), 2);
        assert!(is_valid_output(&m, &matching, &out_t));
    }

    #[test]
    fn invalid_outputs_detected() {
        let m = method_with_bound(Some(3));
        let matching = tuples(5);
        // Too few tuples.
        assert!(!is_valid_output(&m, &matching, &matching[0..1]));
        // Tuples not among the matching ones.
        let foreign = tuples(1);
        assert!(!is_valid_output(&m, &matching, &foreign));
        // Unbounded method must return everything.
        let unbounded = method_with_bound(None);
        assert!(!is_valid_output(&unbounded, &matching, &matching[0..3]));
    }

    #[test]
    fn different_bindings_are_cached_separately() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let m = method_with_bound(Some(1));
        let matching = tuples(3);
        let mut sel = RandomSelection::new(1);
        let out_a = sel.select(&m, &[(0, a)], &matching);
        let out_b = sel.select(&m, &[(0, b)], &matching);
        // Both valid (size 1), possibly different.
        assert_eq!(out_a.len(), 1);
        assert_eq!(out_b.len(), 1);
        // Idempotent per binding.
        assert_eq!(out_a, sel.select(&m, &[(0, a)], &matching));
    }
}
