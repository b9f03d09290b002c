//! Truncated-accessibility-axiom saturation (Proposition E.1).
//!
//! A *truncated accessibility axiom* has the form
//! `(⋀_{i ∈ P} accessible(x_i)) ∧ R(x) → accessible(x_j)`: when the values
//! at the positions `P` of an `R`-fact are accessible, performing an access
//! makes the value at position `j` accessible too. The original axioms come
//! from access methods without result bounds; chasing them together with the
//! schema's IDs implies further *derived* axioms. Proposition E.1 shows that
//! all derived axioms of breadth at most `w` (the ID width) can be computed
//! by a polynomial saturation procedure with three rules — (ID),
//! (Transitivity) and (Access) — which this module implements. The derived
//! axioms feed the linearization construction
//! ([`crate::linearization`]).

use rbqa_common::{RelationId, Signature};
use rbqa_logic::Tgd;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// Abstract description of an access method, decoupled from the plan layer:
/// the relation it accesses, its input positions, and whether it carries a
/// result bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSignature {
    /// The relation accessed by the method.
    pub relation: RelationId,
    /// The 0-based input positions of the method.
    pub input_positions: BTreeSet<usize>,
    /// Whether the method has a result bound. Result-bounded methods do not
    /// participate in the (Access) saturation rule (their outputs are not
    /// guaranteed to be retrievable in full); they are handled separately by
    /// the linearization's "result-bounded fact transfer" rule.
    pub result_bounded: bool,
}

impl MethodSignature {
    /// Convenience constructor.
    pub fn new(relation: RelationId, input_positions: &[usize], result_bounded: bool) -> Self {
        MethodSignature {
            relation,
            input_positions: input_positions.iter().copied().collect(),
            result_bounded,
        }
    }
}

/// A truncated accessibility axiom `(⋀_{i∈premises} accessible(x_i)) ∧ R(x)
/// → accessible(x_conclusion)`, represented as the triple `(R, P, j)` of the
/// appendix.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruncatedAxiom {
    /// The relation `R`.
    pub relation: RelationId,
    /// The premise positions `P` (breadth = `|P|`).
    pub premises: BTreeSet<usize>,
    /// The concluded position `j`.
    pub conclusion: usize,
}

impl TruncatedAxiom {
    /// Creates an axiom.
    pub fn new(relation: RelationId, premises: BTreeSet<usize>, conclusion: usize) -> Self {
        TruncatedAxiom {
            relation,
            premises,
            conclusion,
        }
    }

    /// Whether the axiom is trivial (`j ∈ P`).
    pub fn is_trivial(&self) -> bool {
        self.premises.contains(&self.conclusion)
    }
}

/// All subsets of `{0, ..., positions-1}` of size at most `k`, in a
/// deterministic order (by size, then lexicographically).
pub fn subsets_up_to(positions: usize, k: usize) -> Vec<BTreeSet<usize>> {
    subset_masks_up_to(positions, k)
        .into_iter()
        .map(|mask| mask_positions(mask).collect())
        .collect()
}

/// [`subsets_up_to`] as position bitmasks (bit `p` set for position `p`),
/// in the same order. Positions fit a `u32`: `Signature::add_relation` caps
/// arities at [`rbqa_common::MAX_ARITY`] (= 32).
pub(crate) fn subset_masks_up_to(positions: usize, k: usize) -> Vec<u32> {
    let mut out: Vec<u32> = vec![0];
    let mut level = 0..1;
    for _ in 1..=k.min(positions) {
        let next_start = out.len();
        for i in level {
            let s = out[i];
            let start = if s == 0 {
                0
            } else {
                32 - s.leading_zeros() as usize
            };
            for p in start..positions {
                out.push(s | (1 << p));
            }
        }
        level = next_start..out.len();
    }
    out
}

/// The positions of a bitmask, ascending.
pub(crate) fn mask_positions(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |p| mask & (1 << p) != 0)
}

/// The derived truncated accessibility axioms in packed form: per relation
/// index, every premise set of at most the saturation's breadth (in
/// [`subsets_up_to`] order) with the positions it transfers, both as
/// position bitmasks. The transferred set always contains the premises (the
/// trivial axioms).
#[derive(Debug, Clone)]
pub(crate) struct Transfers {
    pub(crate) per_relation: Vec<Vec<(u32, u32)>>,
}

impl Transfers {
    /// Unpacks into the public axiom representation, sorted.
    pub(crate) fn axioms(&self) -> Vec<TruncatedAxiom> {
        let mut out: Vec<TruncatedAxiom> = Vec::new();
        for (rel, sets) in self.per_relation.iter().enumerate() {
            let rid = RelationId::from_index(rel);
            for &(premises, transferred) in sets {
                let premise_set: BTreeSet<usize> = mask_positions(premises).collect();
                for j in mask_positions(transferred) {
                    out.push(TruncatedAxiom::new(rid, premise_set.clone(), j));
                }
            }
        }
        out.sort();
        out
    }
}

/// Runs the saturation algorithm of Proposition E.1: computes every derived
/// truncated accessibility axiom of breadth at most `breadth` implied by the
/// IDs `ids` and the access methods `methods` (result-bounded methods are
/// ignored by the (Access) rule).
///
/// The output contains the trivial axioms `(R, P, j)` with `j ∈ P`, matching
/// the initialisation of the algorithm in the appendix.
pub fn saturate_truncated_axioms(
    sig: &Signature,
    ids: &[Tgd],
    methods: &[MethodSignature],
    breadth: usize,
) -> Vec<TruncatedAxiom> {
    saturate_transfers(sig, ids, methods, breadth).axioms()
}

/// [`saturate_truncated_axioms`] in packed form, as the linearization reads
/// it.
pub(crate) fn saturate_transfers(
    sig: &Signature,
    ids: &[Tgd],
    methods: &[MethodSignature],
    breadth: usize,
) -> Transfers {
    let mut obs = rbqa_obs::phase_span("saturation", rbqa_obs::Phase::Saturation);

    // The saturation state is a map from `(relation, premise set)` to the
    // set of transferred positions. Premise and conclusion sets are packed
    // into `u32` bitmasks (arities are tiny), so the fixpoint manipulates
    // machine words instead of allocated `BTreeSet`s — the snapshot-free
    // formulation below is what keeps `LinearizedSchema::build` off the
    // Decide hot path.

    // Dense premise-set table per relation: `premise_sets[rel]` lists every
    // subset of the relation's positions of size at most `breadth` (as
    // masks), and `reachable[rel][k]` is the transferred-position mask of
    // `premise_sets[rel][k]`, initialised to the trivial axioms (P itself).
    let relation_count = sig.len();
    let mut premise_sets: Vec<Vec<u32>> = Vec::with_capacity(relation_count);
    let mut reachable: Vec<Vec<u32>> = Vec::with_capacity(relation_count);
    for (_, rel) in sig.iter() {
        // `Signature::add_relation` caps arities at `MAX_ARITY` (= 32), so
        // every position set fits a u32 mask; this guards the invariant.
        debug_assert!(
            rel.arity() <= rbqa_common::MAX_ARITY,
            "saturation packs positions into u32"
        );
        let masks = subset_masks_up_to(rel.arity(), breadth);
        reachable.push(masks.clone());
        premise_sets.push(masks);
    }
    // O(1) slot lookup for the (ID) rule, built once outside the fixpoint.
    let slot_of: FxHashMap<(usize, u32), usize> = premise_sets
        .iter()
        .enumerate()
        .flat_map(|(rel, masks)| masks.iter().enumerate().map(move |(k, &m)| ((rel, m), k)))
        .collect();
    let index_of = |rel: usize, mask: u32| -> usize { slot_of[&(rel, mask)] };

    // Pre-compute the ID position maps once: (body relation, head relation,
    // exported (body position, head position) pairs) plus the head-image
    // mask and the head->body translation table.
    struct IdMap {
        body_rel: usize,
        head_rel: usize,
        image: u32,
        back: Vec<usize>, // indexed by head position (valid where `image` set)
    }
    let id_maps: Vec<IdMap> = ids
        .iter()
        .filter_map(|tgd| {
            tgd.id_position_map().map(|m| {
                let head_arity = sig.arity(tgd.head()[0].relation());
                let mut image = 0u32;
                let mut back = vec![usize::MAX; head_arity];
                // Mirror the reference formulation: the first body position
                // mapping to a head position wins.
                for &(b, h) in &m {
                    if back[h] == usize::MAX {
                        back[h] = b;
                        image |= 1 << h;
                    }
                }
                IdMap {
                    body_rel: tgd.body()[0].relation().index(),
                    head_rel: tgd.head()[0].relation().index(),
                    image,
                    back,
                }
            })
        })
        .collect();
    let back_mask = |id: &IdMap, mask: u32| -> u32 {
        let mut out = 0u32;
        for h in 0..id.back.len() {
            if mask & (1 << h) != 0 {
                out |= 1 << id.back[h];
            }
        }
        out
    };

    let mut changed = true;
    let mut iters = 0u64;
    while changed {
        changed = false;
        iters += 1;

        // (Access): if all input positions of a (non-result-bounded) method
        // on R are transferred by P, then every position of R is.
        for m in methods.iter().filter(|m| !m.result_bounded) {
            let rel = m.relation.index();
            let arity = sig.arity(m.relation);
            // All-positions mask; written shift-free so arity = 32 (the
            // `MAX_ARITY` cap) does not overflow the u32 shift.
            let full: u32 = if arity == 0 {
                0
            } else {
                u32::MAX >> (32 - arity)
            };
            let inputs = m
                .input_positions
                .iter()
                .fold(0u32, |acc, &i| acc | (1 << i));
            for t in reachable[rel].iter_mut() {
                if *t & inputs == inputs && *t != full {
                    *t = full;
                    changed = true;
                }
            }
        }

        // (ID): an axiom on the head relation of an ID, whose positions are
        // all exported, pulls back to the body relation.
        for id in &id_maps {
            for k in 0..premise_sets[id.head_rel].len() {
                let premises = premise_sets[id.head_rel][k];
                if premises & !id.image != 0 {
                    continue;
                }
                let conclusions = reachable[id.head_rel][k] & id.image;
                let body_premises = back_mask(id, premises);
                let body_conclusions = back_mask(id, conclusions);
                let target = index_of(id.body_rel, body_premises);
                let t = &mut reachable[id.body_rel][target];
                if *t | body_conclusions != *t {
                    *t |= body_conclusions;
                    changed = true;
                }
            }
        }

        // (Transitivity): positions transferred by P can serve as premises
        // for further transfers from P: fold in the reachable set of every
        // premise set covered by P's current closure.
        for rel in 0..relation_count {
            for k in 0..premise_sets[rel].len() {
                let closure = premise_sets[rel][k] | reachable[rel][k];
                let mut grown = reachable[rel][k];
                for k2 in 0..premise_sets[rel].len() {
                    if premise_sets[rel][k2] & !closure == 0 {
                        grown |= reachable[rel][k2];
                    }
                }
                if grown != reachable[rel][k] {
                    reachable[rel][k] = grown;
                    changed = true;
                }
            }
        }
    }

    let per_relation: Vec<Vec<(u32, u32)>> = premise_sets
        .into_iter()
        .zip(reachable)
        .map(|(premises, reachable)| premises.into_iter().zip(reachable).collect())
        .collect();
    let axioms: u32 = per_relation
        .iter()
        .flatten()
        .map(|&(_, transferred)| transferred.count_ones())
        .sum();
    rbqa_obs::counters::add_saturation_iters(iters);
    obs.num("iters", iters);
    obs.num("axioms", axioms as u64);
    Transfers { per_relation }
}

/// The positions of `relation` *transferred by* the premise set `premises`
/// under `axioms`: all `j` with `(relation, premises, j)` derived. Always a
/// superset of `premises` (by the trivial axioms).
pub fn transferred_positions(
    axioms: &[TruncatedAxiom],
    relation: RelationId,
    premises: &BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut out: BTreeSet<usize> = premises.clone();
    for ax in axioms {
        if ax.relation == relation && &ax.premises == premises {
            out.insert(ax.conclusion);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_logic::constraints::tgd::inclusion_dependency;

    fn setup() -> (Signature, RelationId, RelationId) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        (sig, prof, udir)
    }

    #[test]
    fn subset_masks_follow_the_subset_order() {
        for (positions, k) in [(3, 2), (4, 3), (5, 1), (0, 2), (6, 6)] {
            let sets: Vec<u32> = subsets_up_to(positions, k)
                .iter()
                .map(|s| s.iter().fold(0, |m, &p| m | (1 << p)))
                .collect();
            assert_eq!(subset_masks_up_to(positions, k), sets);
        }
        // The reference order: by size, then lexicographically.
        assert_eq!(subset_masks_up_to(3, 2), vec![0, 1, 2, 4, 3, 5, 6]);
    }

    #[test]
    fn subsets_enumeration() {
        let subs = subsets_up_to(3, 2);
        // {}, {0}, {1}, {2}, {0,1}, {0,2}, {1,2}
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&BTreeSet::new()));
        assert!(subs.contains(&BTreeSet::from([0, 2])));
        assert!(!subs.contains(&BTreeSet::from([0, 1, 2])));
        assert_eq!(subsets_up_to(2, 5).len(), 4);
        assert_eq!(subsets_up_to(0, 3), vec![BTreeSet::new()]);
    }

    #[test]
    fn access_rule_derives_full_output_accessibility() {
        // Method pr on Prof with input {0} and no result bound: from an
        // accessible id every position of Prof becomes accessible.
        let (sig, prof, _) = setup();
        let methods = vec![MethodSignature::new(prof, &[0], false)];
        let axioms = saturate_truncated_axioms(&sig, &[], &methods, 1);
        for j in 0..3 {
            assert!(axioms.contains(&TruncatedAxiom::new(prof, BTreeSet::from([0]), j)));
        }
        // Nothing is derivable from position 1 alone (no method keyed on it).
        assert!(!axioms.contains(&TruncatedAxiom::new(prof, BTreeSet::from([1]), 0)));
    }

    #[test]
    fn input_free_method_makes_everything_accessible() {
        let (sig, _prof, udir) = setup();
        let methods = vec![MethodSignature::new(udir, &[], false)];
        let axioms = saturate_truncated_axioms(&sig, &[], &methods, 1);
        for j in 0..3 {
            assert!(axioms.contains(&TruncatedAxiom::new(udir, BTreeSet::new(), j)));
        }
    }

    #[test]
    fn result_bounded_methods_do_not_fire_access_rule() {
        let (sig, prof, _) = setup();
        let methods = vec![MethodSignature::new(prof, &[0], true)];
        let axioms = saturate_truncated_axioms(&sig, &[], &methods, 1);
        assert!(!axioms.contains(&TruncatedAxiom::new(prof, BTreeSet::from([0]), 1)));
    }

    #[test]
    fn id_rule_pulls_axioms_back_through_ids() {
        // Udirectory(i, a, p) -> Prof(i, n, s), exporting position 0 to 0.
        // The (ID) rule pulls back axioms on Prof whose positions are all
        // exported; (Prof, {0}, 1) concludes a non-exported position, so it
        // does not pull back, while the trivial (Prof, {0}, 0) does.
        let (sig, prof, udir) = setup();
        let id = inclusion_dependency(&sig, udir, &[0], prof, &[0]);
        let methods = vec![MethodSignature::new(prof, &[0], false)];
        let axioms = saturate_truncated_axioms(&sig, &[id], &methods, 1);
        assert!(axioms.contains(&TruncatedAxiom::new(udir, BTreeSet::from([0]), 0)));
        assert!(!axioms.contains(&TruncatedAxiom::new(udir, BTreeSet::from([0]), 1)));
    }

    #[test]
    fn id_rule_with_wider_export() {
        // R(x, y) ⊆ S(x, y) (width 2) plus an input-free method on S: from
        // an empty premise set every position of S is accessible, and the
        // (ID) rule pulls these derived axioms back to R.
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        let id = inclusion_dependency(&sig, r, &[0, 1], s, &[0, 1]);
        let methods = vec![MethodSignature::new(s, &[], false)];
        let axioms = saturate_truncated_axioms(&sig, &[id], &methods, 2);
        assert!(axioms.contains(&TruncatedAxiom::new(s, BTreeSet::new(), 0)));
        assert!(axioms.contains(&TruncatedAxiom::new(r, BTreeSet::new(), 0)));
        assert!(axioms.contains(&TruncatedAxiom::new(r, BTreeSet::new(), 1)));
    }

    #[test]
    fn transitivity_chains_methods() {
        // m1 keyed on position 0 reveals position 1; m2 keyed on position 1
        // reveals position 2: from {0} alone, position 2 becomes derivable.
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 3).unwrap();
        let methods = vec![
            MethodSignature::new(r, &[0], false),
            MethodSignature::new(r, &[1], false),
        ];
        let axioms = saturate_truncated_axioms(&sig, &[], &methods, 1);
        assert!(axioms.contains(&TruncatedAxiom::new(r, BTreeSet::from([0]), 2)));
        let transferred = transferred_positions(&axioms, r, &BTreeSet::from([0]));
        assert_eq!(transferred, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn transferred_positions_contains_premises() {
        let (sig, prof, _) = setup();
        let axioms = saturate_truncated_axioms(&sig, &[], &[], 2);
        let t = transferred_positions(&axioms, prof, &BTreeSet::from([1, 2]));
        assert_eq!(t, BTreeSet::from([1, 2]));
    }

    #[test]
    fn trivial_axiom_detection() {
        let (_sig, prof, _) = setup();
        assert!(TruncatedAxiom::new(prof, BTreeSet::from([0, 1]), 1).is_trivial());
        assert!(!TruncatedAxiom::new(prof, BTreeSet::from([0]), 1).is_trivial());
    }
}
