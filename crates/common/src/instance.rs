//! In-memory relational instances with flat columnar storage and
//! per-position posting lists.
//!
//! An [`Instance`] stores, for each relation, a single stride-`arity`
//! value arena (`Vec<Value>`, one contiguous row per tuple), a tuple-hash
//! table mapping each tuple's hash to the row ids carrying it (O(1)
//! membership without re-hashing whole `Vec<Value>` keys), and one sorted
//! posting list of row ids per `(position, value)` pair. Row ids are handed
//! out in insertion order, so posting lists are ascending by construction
//! and probe conjunctions are answered by allocation-free galloping
//! intersection — including an early-exit "first match only" mode used by
//! existence checks. This storage is the substrate of the homomorphism
//! kernel (`rbqa-logic`'s match programs), trigger enumeration in the
//! chase, and access-method lookups (bindings on input positions).

use std::hash::BuildHasher;

use rustc_hash::{FxBuildHasher, FxHashMap, FxHashSet};

use crate::error::{Error, Result};
use crate::fact::Fact;
use crate::signature::{RelationId, Signature, MAX_ARITY};
use crate::value::Value;

/// Hash of a tuple slice, used as the membership key.
fn tuple_hash(tuple: &[Value]) -> u64 {
    FxBuildHasher::default().hash_one(tuple)
}

/// Smallest index `i >= start` with `list[i] >= target`, found by galloping
/// (exponential probe, then binary search inside the last doubling window).
/// Cursor-driven callers advance through ascending posting lists in
/// amortised `O(log gap)` per step instead of `O(log n)`.
fn gallop(list: &[u32], start: usize, target: u32) -> usize {
    if start >= list.len() || list[start] >= target {
        return start;
    }
    let mut step = 1;
    let mut lo = start;
    // Invariant: list[lo] < target.
    while lo + step < list.len() && list[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(list.len());
    lo + 1 + list[lo + 1..hi].partition_point(|&v| v < target)
}

/// Tuples of one relation: flat arena, tuple-hash membership and posting
/// lists.
#[derive(Debug, Clone)]
struct RelationData {
    /// Declared arity (row stride in `columns`).
    arity: usize,
    /// Row-major tuple arena; row `r` occupies
    /// `columns[r * arity .. (r + 1) * arity]`.
    columns: Vec<Value>,
    /// Number of (deduplicated) rows stored.
    rows: usize,
    /// Tuple hash -> row ids with that hash (collision bucket; membership
    /// compares against the arena).
    seen: FxHashMap<u64, Vec<u32>>,
    /// `(position, value)` -> ascending row ids. Sorted by construction:
    /// row ids only ever grow.
    index: FxHashMap<(u32, Value), Vec<u32>>,
}

impl RelationData {
    fn new(arity: usize) -> Self {
        RelationData {
            arity,
            columns: Vec::new(),
            rows: 0,
            seen: FxHashMap::default(),
            index: FxHashMap::default(),
        }
    }

    #[inline]
    fn row(&self, id: u32) -> &[Value] {
        let start = id as usize * self.arity;
        &self.columns[start..start + self.arity]
    }

    fn row_id_of(&self, tuple: &[Value]) -> Option<u32> {
        let bucket = self.seen.get(&tuple_hash(tuple))?;
        bucket.iter().copied().find(|&id| self.row(id) == tuple)
    }

    fn insert(&mut self, tuple: &[Value]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let hash = tuple_hash(tuple);
        let bucket = self.seen.entry(hash).or_default();
        let columns = &self.columns;
        let arity = self.arity;
        if bucket
            .iter()
            .any(|&id| &columns[id as usize * arity..(id as usize + 1) * arity] == tuple)
        {
            return false;
        }
        let id = u32::try_from(self.rows).expect("more than u32::MAX tuples in one relation");
        bucket.push(id);
        self.columns.extend_from_slice(tuple);
        self.rows += 1;
        for (pos, &value) in tuple.iter().enumerate() {
            self.index.entry((pos as u32, value)).or_default().push(id);
        }
        true
    }

    fn contains(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity && self.row_id_of(tuple).is_some()
    }

    fn posting(&self, pos: usize, value: Value) -> Option<&[u32]> {
        self.index
            .get(&(pos as u32, value))
            .map(|list| list.as_slice())
    }

    /// Appends to `out` the ascending row ids matching every
    /// `(position, value)` pair of `probe`. An empty probe matches all rows.
    fn matching_into(&self, probe: &[(usize, Value)], out: &mut Vec<u32>) {
        match probe {
            [] => out.extend(0..self.rows as u32),
            [(pos, value)] => {
                if let Some(list) = self.posting(*pos, *value) {
                    out.extend_from_slice(list);
                }
            }
            _ => {
                self.intersect(probe, |id| {
                    out.push(id);
                    true
                });
            }
        }
    }

    /// First (smallest) row id matching `probe`, or `None`. The early-exit
    /// twin of [`RelationData::matching_into`] for existence checks.
    fn first_matching(&self, probe: &[(usize, Value)]) -> Option<u32> {
        match probe {
            [] => (self.rows > 0).then_some(0),
            [(pos, value)] => self.posting(*pos, *value).and_then(|l| l.first().copied()),
            _ => {
                let mut first = None;
                self.intersect(probe, |id| {
                    first = Some(id);
                    false
                });
                first
            }
        }
    }

    /// Visits, ascending, the row ids in every posting list of a multi-pair
    /// probe, until `visit` returns `false`. The shortest list drives a
    /// galloping intersection. A probe of at most [`MAX_ARITY`] pairs (one
    /// per position, as the kernel builds them) keeps its lists and cursors
    /// on the stack.
    fn intersect(&self, probe: &[(usize, Value)], mut visit: impl FnMut(u32) -> bool) {
        let mut inline: [(&[u32], usize); MAX_ARITY] = [(&[], 0); MAX_ARITY];
        let mut spilled: Vec<(&[u32], usize)>;
        let lists: &mut [(&[u32], usize)] = if probe.len() <= MAX_ARITY {
            &mut inline[..probe.len()]
        } else {
            spilled = vec![(&[], 0); probe.len()];
            &mut spilled
        };
        for (slot, &(pos, value)) in lists.iter_mut().zip(probe) {
            match self.posting(pos, value) {
                Some(list) => slot.0 = list,
                None => return,
            }
        }
        lists.sort_unstable_by_key(|(list, _)| list.len());
        let (driver, rest) = lists.split_first_mut().expect("probe is non-empty");
        'candidates: for &id in driver.0 {
            for (list, cursor) in rest.iter_mut() {
                *cursor = gallop(list, *cursor, id);
                if list.get(*cursor) != Some(&id) {
                    continue 'candidates;
                }
            }
            if !visit(id) {
                return;
            }
        }
    }

    fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.rows as u32).map(|id| self.row(id))
    }
}

/// An instance of a relational signature: a finite set of facts.
///
/// ```
/// use rbqa_common::{Instance, Signature, ValueFactory};
/// let mut sig = Signature::new();
/// let prof = sig.add_relation("Prof", 3).unwrap();
/// let mut values = ValueFactory::new();
/// let (id, name, salary) = (
///     values.constant("12345"),
///     values.constant("ada"),
///     values.constant("10000"),
/// );
/// let mut instance = Instance::new(sig.clone());
/// instance.insert(prof, vec![id, name, salary]).unwrap();
/// assert_eq!(instance.len(), 1);
/// assert!(instance.contains(prof, &[id, name, salary]));
/// assert_eq!(instance.active_domain().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    signature: Signature,
    relations: Vec<RelationData>,
    fact_count: usize,
}

impl Instance {
    /// Creates an empty instance over `signature`.
    pub fn new(signature: Signature) -> Self {
        let relations = (0..signature.len())
            .map(|i| RelationData::new(signature.arity(RelationId::from_index(i))))
            .collect();
        Instance {
            signature,
            relations,
            fact_count: 0,
        }
    }

    /// The signature of this instance.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    fn data(&self, relation: RelationId) -> Option<&RelationData> {
        self.relations.get(relation.index())
    }

    /// Grows `relations` to cover every relation of the current signature.
    fn grow_storage(&mut self) {
        for i in self.relations.len()..self.signature.len() {
            self.relations.push(RelationData::new(
                self.signature.arity(RelationId::from_index(i)),
            ));
        }
    }

    fn data_mut(&mut self, relation: RelationId) -> Result<&mut RelationData> {
        // The signature may have grown after this instance was created (the
        // answerability pipeline extends signatures); grow storage lazily.
        if relation.index() >= self.relations.len() {
            if relation.index() >= self.signature.len() {
                return Err(Error::Invalid(format!(
                    "relation id {} outside of instance signature",
                    relation.index()
                )));
            }
            self.grow_storage();
        }
        Ok(&mut self.relations[relation.index()])
    }

    /// Replaces the signature with an extended one (must contain at least as
    /// many relations as the current one, with identical prefixes).
    pub fn upgrade_signature(&mut self, signature: Signature) -> Result<()> {
        if signature.len() < self.signature.len() {
            return Err(Error::Invalid(
                "cannot upgrade to a smaller signature".to_owned(),
            ));
        }
        self.signature = signature;
        self.grow_storage();
        Ok(())
    }

    /// Inserts a tuple into `relation`. Returns `Ok(true)` if the fact was
    /// new, `Ok(false)` if it was already present.
    pub fn insert(&mut self, relation: RelationId, tuple: Vec<Value>) -> Result<bool> {
        self.insert_slice(relation, &tuple)
    }

    /// Slice-borrowing variant of [`Instance::insert`]: the tuple is copied
    /// into the relation's arena only when it is new.
    pub fn insert_slice(&mut self, relation: RelationId, tuple: &[Value]) -> Result<bool> {
        let arity = self.signature.arity(relation);
        if tuple.len() != arity {
            return Err(Error::ArityMismatch {
                relation: self.signature.name(relation).to_owned(),
                expected: arity,
                actual: tuple.len(),
            });
        }
        let inserted = self.data_mut(relation)?.insert(tuple);
        if inserted {
            self.fact_count += 1;
        }
        Ok(inserted)
    }

    /// Inserts a [`Fact`].
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool> {
        let (relation, args) = fact.into_parts();
        self.insert(relation, args)
    }

    /// Inserts every fact of `other` into `self`.
    pub fn absorb(&mut self, other: &Instance) -> Result<usize> {
        let mut added = 0;
        for (ri, data) in other.relations.iter().enumerate() {
            let rid = RelationId::from_index(ri);
            for tuple in data.iter_rows() {
                if self.insert_slice(rid, tuple)? {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Whether the tuple is present in `relation`.
    pub fn contains(&self, relation: RelationId, tuple: &[Value]) -> bool {
        self.data(relation).is_some_and(|d| d.contains(tuple))
    }

    /// Whether the fact is present.
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains(fact.relation(), fact.args())
    }

    /// Number of facts in the instance.
    pub fn len(&self) -> usize {
        self.fact_count
    }

    /// Whether the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.fact_count == 0
    }

    /// Number of tuples in `relation`.
    pub fn relation_len(&self, relation: RelationId) -> usize {
        self.data(relation).map_or(0, |d| d.rows)
    }

    /// The tuple stored at `row` of `relation` (row ids are dense and in
    /// insertion order, `0..relation_len`).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, relation: RelationId, row: u32) -> &[Value] {
        self.relations[relation.index()].row(row)
    }

    /// Iterates over the tuples of `relation` in insertion order.
    pub fn tuples(&self, relation: RelationId) -> impl Iterator<Item = &[Value]> {
        self.data(relation).into_iter().flat_map(|d| d.iter_rows())
    }

    /// Iterates over all facts of the instance.
    pub fn iter_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations.iter().enumerate().flat_map(|(ri, data)| {
            data.iter_rows()
                .map(move |t| Fact::new(RelationId::from_index(ri), t.to_vec()))
        })
    }

    /// Appends to `out` the (ascending) row ids of `relation` whose tuples
    /// match every `(position, value)` pair of `probe`; an empty probe
    /// matches all rows. Conjunctive probes are answered by galloping
    /// intersection of the sorted posting lists — no per-call hash sets.
    /// Callers reuse `out` across calls to stay allocation-free.
    pub fn matching_rows_into(
        &self,
        relation: RelationId,
        probe: &[(usize, Value)],
        out: &mut Vec<u32>,
    ) {
        if let Some(data) = self.data(relation) {
            data.matching_into(probe, out);
        }
    }

    /// The row id of `tuple` in `relation`, if present. Row ids are stable
    /// for the lifetime of the instance (insertion order, no removals), so
    /// callers can maintain per-row side tables (e.g. the chase's
    /// derivation depths) without hashing whole tuples again.
    pub fn row_id(&self, relation: RelationId, tuple: &[Value]) -> Option<u32> {
        let data = self.data(relation)?;
        if tuple.len() != data.arity {
            return None;
        }
        data.row_id_of(tuple)
    }

    /// The first (smallest) row id of `relation` matching `probe`, if any:
    /// the early-exit "first match only" mode used by existence checks.
    pub fn first_matching_row(
        &self,
        relation: RelationId,
        probe: &[(usize, Value)],
    ) -> Option<u32> {
        self.data(relation).and_then(|d| d.first_matching(probe))
    }

    /// Tuples of `relation` matching every `(position, value)` pair of
    /// `binding`. An empty binding returns all tuples.
    pub fn matching_tuples(
        &self,
        relation: RelationId,
        binding: &[(usize, Value)],
    ) -> Vec<&[Value]> {
        match self.data(relation) {
            None => Vec::new(),
            Some(data) => {
                let mut rows = Vec::new();
                data.matching_into(binding, &mut rows);
                rows.into_iter().map(|id| data.row(id)).collect()
            }
        }
    }

    /// Number of tuples of `relation` matching `binding` (cheaper than
    /// materialising them when only cardinality is needed).
    pub fn count_matching(&self, relation: RelationId, binding: &[(usize, Value)]) -> usize {
        match self.data(relation) {
            None => 0,
            Some(data) => match binding {
                [] => data.rows,
                [(pos, value)] => data.posting(*pos, *value).map_or(0, |l| l.len()),
                _ => {
                    let mut rows = Vec::new();
                    data.matching_into(binding, &mut rows);
                    rows.len()
                }
            },
        }
    }

    /// The active domain: every value occurring in some fact.
    pub fn active_domain(&self) -> FxHashSet<Value> {
        let mut dom = FxHashSet::default();
        for data in &self.relations {
            dom.extend(data.columns.iter().copied());
        }
        dom
    }

    /// Whether every fact of `self` is a fact of `other`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        for (ri, data) in self.relations.iter().enumerate() {
            let rid = RelationId::from_index(ri);
            for tuple in data.iter_rows() {
                if !other.contains(rid, tuple) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds a new instance containing the facts of `self` whose relation
    /// satisfies `keep`. Used to restrict expanded instances back to the
    /// original schema relations.
    pub fn restrict<F: Fn(RelationId) -> bool>(&self, keep: F) -> Instance {
        let mut out = Instance::new(self.signature.clone());
        for (ri, data) in self.relations.iter().enumerate() {
            let rid = RelationId::from_index(ri);
            if !keep(rid) {
                continue;
            }
            for tuple in data.iter_rows() {
                out.insert_slice(rid, tuple).expect("same signature");
            }
        }
        out
    }

    /// Applies a value substitution to every fact, producing a new instance.
    /// Values not present in `map` are kept unchanged.
    pub fn map_values(&self, map: &FxHashMap<Value, Value>) -> Instance {
        let mut out = Instance::new(self.signature.clone());
        let mut scratch: Vec<Value> = Vec::new();
        for (ri, data) in self.relations.iter().enumerate() {
            let rid = RelationId::from_index(ri);
            for tuple in data.iter_rows() {
                scratch.clear();
                scratch.extend(tuple.iter().map(|v| *map.get(v).unwrap_or(v)));
                out.insert_slice(rid, &scratch).expect("same signature");
            }
        }
        out
    }

    /// Renders all facts, sorted, one per line — intended for tests and
    /// debugging output.
    pub fn dump(&self) -> String {
        let mut lines: Vec<String> = self
            .iter_facts()
            .map(|f| f.display(&self.signature))
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueFactory;

    fn setup() -> (Signature, ValueFactory, RelationId, RelationId) {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 1).unwrap();
        (sig, ValueFactory::new(), r, s)
    }

    #[test]
    fn insert_and_contains() {
        let (sig, mut vf, r, _) = setup();
        let mut inst = Instance::new(sig);
        let a = vf.constant("a");
        let b = vf.constant("b");
        assert!(inst.insert(r, vec![a, b]).unwrap());
        assert!(!inst.insert(r, vec![a, b]).unwrap());
        assert!(inst.contains(r, &[a, b]));
        assert!(!inst.contains(r, &[b, a]));
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.relation_len(r), 1);
        assert_eq!(inst.row(r, 0), &[a, b]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (sig, mut vf, r, _) = setup();
        let mut inst = Instance::new(sig);
        let a = vf.constant("a");
        assert!(inst.insert(r, vec![a]).is_err());
        assert!(!inst.contains(r, &[a]));
    }

    #[test]
    fn matching_tuples_with_binding() {
        let (sig, mut vf, r, _) = setup();
        let mut inst = Instance::new(sig);
        let a = vf.constant("a");
        let b = vf.constant("b");
        let c = vf.constant("c");
        inst.insert(r, vec![a, b]).unwrap();
        inst.insert(r, vec![a, c]).unwrap();
        inst.insert(r, vec![b, c]).unwrap();
        assert_eq!(inst.matching_tuples(r, &[(0, a)]).len(), 2);
        assert_eq!(inst.matching_tuples(r, &[(0, a), (1, c)]).len(), 1);
        assert_eq!(inst.matching_tuples(r, &[(1, a)]).len(), 0);
        assert_eq!(inst.matching_tuples(r, &[]).len(), 3);
        assert_eq!(inst.count_matching(r, &[(0, a)]), 2);
        assert_eq!(inst.count_matching(r, &[(0, a), (1, b)]), 1);
    }

    #[test]
    fn matching_rows_and_first_match() {
        let (sig, mut vf, r, _) = setup();
        let mut inst = Instance::new(sig);
        let vals: Vec<_> = (0..8).map(|i| vf.constant(&format!("v{i}"))).collect();
        let a = vals[0];
        for &v in &vals {
            inst.insert(r, vec![a, v]).unwrap();
            inst.insert(r, vec![v, v]).unwrap();
        }
        let mut rows = Vec::new();
        inst.matching_rows_into(r, &[(0, a)], &mut rows);
        assert_eq!(rows.len(), 8); // (a, v) for all 8 values; (a, a) deduped
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        rows.clear();
        inst.matching_rows_into(r, &[(0, a), (1, vals[3])], &mut rows);
        assert_eq!(rows.len(), 1);
        assert_eq!(inst.row(r, rows[0]), &[a, vals[3]]);
        assert_eq!(
            inst.first_matching_row(r, &[(0, a), (1, vals[3])]),
            Some(rows[0])
        );
        assert_eq!(inst.first_matching_row(r, &[(1, a), (0, vals[3])]), None);
        assert_eq!(inst.first_matching_row(r, &[]), Some(0));
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        // Three-pair probes on a relation crafted so posting lists have very
        // different lengths (exercises driver choice and cursor galloping).
        let mut sig = Signature::new();
        let t = sig.add_relation("T", 3).unwrap();
        let mut vf = ValueFactory::new();
        let common = vf.constant("common");
        let rare = vf.constant("rare");
        let vals: Vec<_> = (0..40).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig);
        for (i, &v) in vals.iter().enumerate() {
            let third = if i % 7 == 0 { rare } else { v };
            inst.insert(t, vec![common, v, third]).unwrap();
            inst.insert(t, vec![v, common, third]).unwrap();
        }
        let probe = [(0usize, common), (2usize, rare)];
        let mut rows = Vec::new();
        inst.matching_rows_into(t, &probe, &mut rows);
        let naive: Vec<u32> = (0..inst.relation_len(t) as u32)
            .filter(|&id| probe.iter().all(|&(p, v)| inst.row(t, id)[p] == v))
            .collect();
        assert_eq!(rows, naive);
        assert_eq!(inst.first_matching_row(t, &probe), naive.first().copied());
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let list: Vec<u32> = vec![1, 3, 5, 9, 12, 30, 31, 32, 100];
        for start in 0..list.len() {
            for target in 0..=101u32 {
                let expect = list
                    .iter()
                    .enumerate()
                    .skip(start)
                    .find(|(_, &v)| v >= target)
                    .map_or(list.len(), |(i, _)| i);
                assert_eq!(
                    gallop(&list, start, target),
                    expect,
                    "start={start} target={target}"
                );
            }
        }
    }

    #[test]
    fn active_domain_collects_all_values() {
        let (sig, mut vf, r, s) = setup();
        let mut inst = Instance::new(sig);
        let a = vf.constant("a");
        let b = vf.constant("b");
        let n = vf.fresh_null();
        inst.insert(r, vec![a, n]).unwrap();
        inst.insert(s, vec![b]).unwrap();
        let dom = inst.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&a) && dom.contains(&b) && dom.contains(&n));
    }

    #[test]
    fn subinstance_check() {
        let (sig, mut vf, r, s) = setup();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut small = Instance::new(sig.clone());
        small.insert(r, vec![a, b]).unwrap();
        let mut big = Instance::new(sig);
        big.insert(r, vec![a, b]).unwrap();
        big.insert(s, vec![a]).unwrap();
        assert!(small.is_subinstance_of(&big));
        assert!(!big.is_subinstance_of(&small));
        assert!(small.is_subinstance_of(&small));
    }

    #[test]
    fn absorb_unions_facts() {
        let (sig, mut vf, r, s) = setup();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut i1 = Instance::new(sig.clone());
        i1.insert(r, vec![a, b]).unwrap();
        let mut i2 = Instance::new(sig);
        i2.insert(s, vec![a]).unwrap();
        i2.insert(r, vec![a, b]).unwrap();
        let added = i1.absorb(&i2).unwrap();
        assert_eq!(added, 1);
        assert_eq!(i1.len(), 2);
    }

    #[test]
    fn restrict_drops_relations() {
        let (sig, mut vf, r, s) = setup();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig);
        inst.insert(r, vec![a, b]).unwrap();
        inst.insert(s, vec![a]).unwrap();
        let only_r = inst.restrict(|rel| rel == r);
        assert_eq!(only_r.len(), 1);
        assert!(only_r.contains(r, &[a, b]));
        assert!(!only_r.contains(s, &[a]));
    }

    #[test]
    fn map_values_substitutes() {
        let (sig, mut vf, r, _) = setup();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let n = vf.fresh_null();
        let mut inst = Instance::new(sig);
        inst.insert(r, vec![a, n]).unwrap();
        let mut map = FxHashMap::default();
        map.insert(n, b);
        let mapped = inst.map_values(&map);
        assert!(mapped.contains(r, &[a, b]));
        assert!(!mapped.contains(r, &[a, n]));
    }

    #[test]
    fn upgrade_signature_allows_new_relations() {
        let (sig, mut vf, r, _) = setup();
        let a = vf.constant("a");
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, a]).unwrap();
        let mut bigger = sig;
        let t = bigger.add_relation("T", 1).unwrap();
        inst.upgrade_signature(bigger).unwrap();
        inst.insert(t, vec![a]).unwrap();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn iter_facts_round_trips() {
        let (sig, mut vf, r, s) = setup();
        let a = vf.constant("a");
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, a]).unwrap();
        inst.insert(s, vec![a]).unwrap();
        let mut copy = Instance::new(sig);
        for fact in inst.iter_facts() {
            copy.insert_fact(fact).unwrap();
        }
        assert!(copy.is_subinstance_of(&inst) && inst.is_subinstance_of(&copy));
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let (sig, mut vf, r, s) = setup();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig);
        inst.insert(s, vec![b]).unwrap();
        inst.insert(r, vec![a, b]).unwrap();
        let d1 = inst.dump();
        let d2 = inst.dump();
        assert_eq!(d1, d2);
        assert!(d1.lines().count() == 2);
    }
}
