//! The delta-driven (semi-naive) chase engine.
//!
//! The naive engine re-enumerates *every* body homomorphism of *every* TGD
//! against the *full* instance on each round — `O(rounds × |hom space|)`
//! work even though a round typically adds a handful of facts. This module
//! implements the classic semi-naive optimisation, adapted to the
//! restricted chase:
//!
//! 1. **Delta restriction.** A trigger discovered in round `k` must use at
//!    least one fact derived in round `k − 1` (otherwise all its body facts
//!    existed earlier and the trigger was already examined). Each round
//!    therefore unifies every body atom with every *delta* fact of its
//!    relation and completes the match against the full instance through a
//!    per-(TGD, atom) cached seeded match program
//!    ([`rbqa_logic::homomorphism::MatchProgram`]), which runs on the
//!    sorted per-position posting lists of [`rbqa_common::Instance`].
//! 2. **Rule dependency map.** A TGD is only considered in a round when
//!    some body relation gained facts ([`DependencyMap`]).
//! 3. **Deferred triggers.** Restricted-chase bookkeeping that naive gets
//!    "for free" by re-enumerating: a trigger whose firing would exceed
//!    `max_depth` cannot simply be dropped — an FD merge may later *lower*
//!    the depth of its body facts, or the final round must report it as
//!    [`Completion::DepthCapped`]. Such triggers are parked in a pending
//!    set and re-examined when an FD rewrite occurs or the run would
//!    otherwise end.
//! 4. **FD rewrites re-enter the delta.** When the EGD fixpoint merges
//!    values, every rewritten or collapsed fact is added back to the delta
//!    (and pending assignments are substituted), so trigger knowledge is
//!    never stale.
//! 5. **Allocation per round, not per trigger.** A run owns one set of
//!    buffers: the kernel's [`rbqa_logic::homomorphism::MatchScratch`] and
//!    the seed buffer that unification and the head check fill, the
//!    firing's extended assignment, the FD fixpoint's grouping. A round's
//!    candidate triggers and the deferred ones are slices of two arenas
//!    ([`crate::trigger`]), deduplicated by hashing the slice — and only
//!    for bodies of several atoms, since a one-atom body cannot reach one
//!    homomorphism from two delta facts. The delta grouping, the affected
//!    rule list and the dedup tables keep their capacity from round to
//!    round, each TGD's plan caches its existential variables, and an
//!    instance built only to be chased ([`crate::engine::chase_owned`]) is
//!    taken over, not copied. What a run still allocates follows the facts
//!    it inserts and the rules it compiles.
//!
//! The engine preserves the naive engine's semantics: same [`Completion`]
//! classification (saturation, depth capping, budget exhaustion, FD
//! failure), same depth accounting, same restricted-chase head checks —
//! with one deliberate, sound-direction exception. The
//! [`crate::Budget::trigger_limit`] cap applies to what each engine
//! actually enumerates per rule per round: *all* body homomorphisms for
//! naive, only the delta-restricted ones here. Since the delta count is
//! never larger, this engine truncates no earlier than naive — it may
//! saturate where naive reports
//! [`crate::Completion::BudgetExhausted`], never the reverse, and a
//! truncation here is still a sound `BudgetExhausted`. The differential
//! property test in `tests/chase_differential.rs` exercises the
//! equivalence on random schemas and constraint sets (away from the
//! enumeration cap).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use rbqa_common::{Instance, RelationId, Value, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::homomorphism::MatchProgram;
use rbqa_logic::{Atom, Term, Tgd, VarId};
use rustc_hash::{FxHashMap, FxHasher};

use crate::engine::{
    apply_fds_to_fixpoint, fire_trigger, ChaseConfig, DepthMap, FdScratch, FireResult, FireScratch,
    RowSet,
};
use crate::proof::ProofLog;
use crate::result::{ChaseOutcome, ChaseStats, Completion};
use crate::trigger::{HeadCheck, SearchScratch, TriggerArena};

/// Maps each relation to the (ascending, deduplicated) indices of the TGDs
/// whose *body* mentions it: the rules that must be re-evaluated when the
/// relation gains facts.
#[derive(Debug, Default)]
pub struct DependencyMap {
    by_relation: FxHashMap<RelationId, Vec<usize>>,
}

impl DependencyMap {
    /// Builds the map for a TGD list (indices refer to slice positions).
    pub fn new(tgds: &[Tgd]) -> Self {
        let mut by_relation: FxHashMap<RelationId, Vec<usize>> = FxHashMap::default();
        for (i, tgd) in tgds.iter().enumerate() {
            for atom in tgd.body() {
                let deps = by_relation.entry(atom.relation()).or_default();
                if deps.last() != Some(&i) {
                    deps.push(i);
                }
            }
        }
        DependencyMap { by_relation }
    }

    /// Writes to `out` (cleared first) the TGD indices affected by a set of
    /// changed relations, ascending.
    pub fn affected_into(&self, relations: &[RelationId], out: &mut Vec<usize>) {
        out.clear();
        for deps in relations.iter().filter_map(|rel| self.by_relation.get(rel)) {
            out.extend_from_slice(deps);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The rules whose body mentions `relation`.
    pub fn rules_for(&self, relation: RelationId) -> &[usize] {
        self.by_relation
            .get(&relation)
            .map_or(&[], |v| v.as_slice())
    }
}

/// Unifies `atom` with a ground `tuple`, writing the induced partial
/// assignment to `seed` (cleared first) as `(variable, value)` pairs sorted
/// by variable. Returns `false` when a constant mismatches or a repeated
/// variable would need two values.
fn unify_atom_into(atom: &Atom, tuple: &[Value], seed: &mut Vec<(VarId, Value)>) -> bool {
    debug_assert_eq!(atom.args().len(), tuple.len());
    seed.clear();
    for (term, &val) in atom.args().iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if *c != val {
                    return false;
                }
            }
            Term::Var(v) => match seed.iter().find(|(sv, _)| sv == v) {
                Some(&(_, prev)) if prev != val => return false,
                Some(_) => {}
                None => seed.push((*v, val)),
            },
        }
    }
    seed.sort_unstable_by_key(|&(v, _)| v);
    true
}

/// Per-TGD state compiled on a TGD's first use in a chase run.
///
/// * `rest[i]`, for a body of several atoms, is the body without atom `i`,
///   seeded with atom `i`'s variables: unifying a delta fact against atom
///   `i` pins all of that atom's variables, so only the other atoms are
///   joined. A one-atom body (IDs, the dominant class) has no `rest`: the
///   unified delta fact is the whole match.
/// * `head` is the engine-shared [`HeadCheck`] (the compiled head program
///   seeded with the frontier variables), so the restricted-chase
///   activeness check neither rebuilds queries nor re-plans the atom order
///   per check — and cannot drift from the naive engine's.
/// * `existentials` are the TGD's existential variables, for every firing.
struct TgdPlan {
    rest: Vec<MatchProgram>,
    head: HeadCheck,
    existentials: Vec<VarId>,
}

impl TgdPlan {
    fn new(tgd: &Tgd) -> Self {
        let body = tgd.body();
        let rest = if body.len() > 1 {
            (0..body.len())
                .map(|skip| MatchProgram::compile_atoms_except(body, skip))
                .collect()
        } else {
            Vec::new()
        };
        TgdPlan {
            rest,
            head: HeadCheck::new(tgd),
            existentials: tgd.existential_variables(),
        }
    }
}

/// Which triggers of a [`TriggerArena`] are distinct, by hash of their TGD
/// index and assignment: the candidates' and the deferred triggers' dedup,
/// without a key allocation per trigger. Cleared each round; its table keeps
/// its capacity.
#[derive(Debug, Default)]
struct SeenTriggers {
    /// Hash → the first recorded trigger with that hash.
    first: FxHashMap<u64, u32>,
    /// Recorded triggers whose hash an earlier, different trigger holds.
    collided: Vec<u32>,
}

impl SeenTriggers {
    fn clear(&mut self) {
        self.first.clear();
        self.collided.clear();
    }

    /// Whether the newest trigger of `arena` differs from every trigger
    /// recorded so far; records it when it does.
    fn insert_last(&mut self, arena: &TriggerArena) -> bool {
        let last = arena.len() - 1;
        let key = arena.get(last);
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        match self.first.entry(hasher.finish()) {
            Entry::Vacant(slot) => {
                slot.insert(last as u32);
                true
            }
            Entry::Occupied(slot) => {
                let same = |i: u32| arena.get(i as usize) == key;
                if same(*slot.get()) || self.collided.iter().any(|&i| same(i)) {
                    false
                } else {
                    self.collided.push(last as u32);
                    true
                }
            }
        }
    }
}

/// A round's delta grouped by relation, each relation's rows ascending, so
/// that the enumeration order (and hence null naming) is deterministic
/// regardless of hash-set iteration order — row ids reflect insertion order,
/// which is itself deterministic. Refilled every round; its lists keep their
/// capacity.
#[derive(Debug, Default)]
struct DeltaByRelation {
    /// Per relation index: the delta's rows of that relation.
    rows: Vec<Vec<u32>>,
    /// The relations with delta rows.
    relations: Vec<RelationId>,
}

impl DeltaByRelation {
    fn fill(&mut self, delta: &RowSet) {
        for rel in self.relations.drain(..) {
            self.rows[rel.index()].clear();
        }
        for &(rel, row) in delta {
            if rel.index() >= self.rows.len() {
                self.rows.resize_with(rel.index() + 1, Vec::new);
            }
            let rows = &mut self.rows[rel.index()];
            if rows.is_empty() {
                self.relations.push(rel);
            }
            rows.push(row);
        }
        for rel in &self.relations {
            self.rows[rel.index()].sort_unstable();
        }
    }

    fn rows(&self, relation: RelationId) -> &[u32] {
        self.rows.get(relation.index()).map_or(&[], Vec::as_slice)
    }
}

/// Appends to `found` the triggers of `tgd` (index `tgd_index`) that touch
/// the delta: body homomorphisms into `instance` mapping at least one body
/// atom to a delta fact. At most `limit` distinct triggers of this rule are
/// added; the result reports truncation (the run is then budget exhausted,
/// mirroring [`crate::trigger::active_triggers`]). A body of several atoms
/// can reach one homomorphism from two delta facts, so its triggers go
/// through `seen`; a one-atom body cannot (distinct delta rows unify to
/// distinct assignments), so its triggers skip the dedup.
///
/// Unlike [`crate::trigger::active_triggers`] this does *not* pre-filter
/// head-satisfied triggers: the firing loop re-checks activeness against
/// the evolving instance anyway (the authoritative restricted-chase check),
/// so pre-filtering would only double the number of head searches.
#[allow(clippy::too_many_arguments)]
fn delta_triggers(
    tgd: &Tgd,
    tgd_index: usize,
    plan: &TgdPlan,
    instance: &Instance,
    delta: &DeltaByRelation,
    limit: usize,
    found: &mut TriggerArena,
    seen: &mut SeenTriggers,
    scratch: &mut SearchScratch,
) -> bool {
    let first = found.len();
    for (atom_idx, atom) in tgd.body().iter().enumerate() {
        for &row in delta.rows(atom.relation()) {
            let tuple = instance.row(atom.relation(), row);
            if !unify_atom_into(atom, tuple, &mut scratch.seed) {
                continue;
            }
            let Some(rest) = plan.rest.get(atom_idx) else {
                found.push(tgd_index, scratch.seed.iter().copied());
                if found.len() - first >= limit {
                    return true;
                }
                continue;
            };
            // The seed pins every variable of `atom` to the delta fact
            // (which is present by construction), so only the remaining
            // atoms are joined against the full instance by the cached
            // match program over the sorted posting lists.
            let mut hit_limit = false;
            rest.for_each_in(instance, &scratch.seed, &mut scratch.matcher, |binding| {
                // `iter_bound` yields in slot order: the assignment comes
                // sorted.
                found.push(tgd_index, binding.iter_bound());
                if !seen.insert_last(found) {
                    found.pop();
                } else if found.len() - first >= limit {
                    hit_limit = true;
                    return false;
                }
                true
            });
            if hit_limit {
                return true;
            }
        }
    }
    false
}

/// The delta-driven restricted chase, run by [`crate::engine::chase`]. A
/// run keeps one set of buffers for trigger search, activeness checks,
/// firings and the FD fixpoint, and reuses each round's delta grouping,
/// rule list and trigger arenas in the next, so its allocations follow the
/// facts it inserts and the rules it compiles, not the triggers it visits.
pub(crate) fn chase_seminaive(
    instance: Cow<'_, Instance>,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    mut proof: Option<&mut ProofLog>,
) -> ChaseOutcome {
    let budget = config.budget;
    let tgds = constraints.tgds();
    let mut current = instance.into_owned();
    let mut depths = DepthMap::zeros(&current);
    let mut stats = ChaseStats::default();
    let mut fire = FireScratch::default();
    let mut fd = FdScratch::default();

    // Initial FD fixpoint, as in the naive engine. No delta bookkeeping is
    // needed yet: the first round treats every fact as new.
    if config.apply_fds
        && apply_fds_to_fixpoint(
            &mut current,
            constraints.fds(),
            &mut depths,
            &mut stats,
            None,
            &mut fd,
        )
        .is_err()
    {
        return ChaseOutcome {
            instance: current,
            completion: Completion::FdFailure,
            stats,
        };
    }

    let deps = DependencyMap::new(tgds);
    // Per-TGD plans are compiled on first use: the delta restriction means
    // rules whose body relations never gain facts are never examined at
    // all, and constraint sets like the ID linearization carry hundreds of
    // rules over annotated relations that stay empty on a given run.
    let mut plans: Vec<Option<TgdPlan>> = tgds.iter().map(|_| None).collect();
    let trigger_limit = budget.trigger_limit();

    // Round 1 sees the whole (FD-repaired) instance as its delta, so its
    // trigger enumeration coincides with the naive engine's first round.
    let mut delta: RowSet = (0..current.signature().len())
        .flat_map(|i| {
            let rel = RelationId::from_index(i);
            (0..current.relation_len(rel) as u32).map(move |row| (rel, row))
        })
        .collect();
    let mut new_delta = RowSet::default();
    let mut delta_by_rel = DeltaByRelation::default();
    let mut affected: Vec<usize> = Vec::new();
    let mut search = SearchScratch::default();
    let mut candidates = TriggerArena::default();
    let mut candidates_seen = SeenTriggers::default();

    // Depth-deferred triggers: active triggers whose firing would exceed
    // `max_depth`. Their status can only change when an FD merge lowers a
    // body depth (or satisfies their head), so they are re-examined after
    // FD rewrites and on otherwise-quiescent rounds — the latter is what
    // tells `DepthCapped` from `Saturated`.
    let mut pending = TriggerArena::default();
    let mut pending_seen = SeenTriggers::default();
    let mut recheck_pending = false;

    loop {
        if stats.rounds >= budget.max_rounds {
            return ChaseOutcome {
                instance: current,
                completion: Completion::BudgetExhausted,
                stats,
            };
        }
        // Cooperative deadline check, once per round (see the naive
        // engine): a timed-out request aborts here and the caller tells
        // the two apart by re-checking the deadline.
        if rbqa_obs::deadline_expired() {
            rbqa_obs::counters::add_deadline_expiry();
            return ChaseOutcome {
                instance: current,
                completion: Completion::BudgetExhausted,
                stats,
            };
        }
        stats.rounds += 1;
        let mut round_span = rbqa_obs::span("chase_round");
        round_span.num("round", stats.rounds as u64);

        let mut skipped_for_depth = false;
        let mut fired_any = false;
        let mut over_budget = false;

        // Candidate triggers: the deferred ones (when due for
        // re-examination), then the delta-derived ones in TGD order
        // (mirroring the naive engine's enumeration order as closely as
        // the restriction allows).
        delta_by_rel.fill(&delta);
        // Whether every trigger in `pending` has been examined by the end
        // of this round: true when the carried-over ones are re-candidated
        // now, or when there were none to carry (anything deferred *during*
        // this round was by definition examined this round).
        let pending_examined = recheck_pending || pending.is_empty();
        candidates.clear();
        if recheck_pending {
            std::mem::swap(&mut candidates, &mut pending);
        }
        recheck_pending = false;
        {
            let mut search_span = rbqa_obs::span("trigger_search");
            deps.affected_into(&delta_by_rel.relations, &mut affected);
            candidates_seen.clear();
            for &i in &affected {
                let plan = plans[i].get_or_insert_with(|| TgdPlan::new(&tgds[i]));
                if delta_triggers(
                    &tgds[i],
                    i,
                    plan,
                    &current,
                    &delta_by_rel,
                    trigger_limit,
                    &mut candidates,
                    &mut candidates_seen,
                    &mut search,
                ) {
                    over_budget = true;
                }
            }
            search_span.num("triggers", candidates.len() as u64);
        }

        new_delta.clear();
        pending_seen.clear();
        for k in 0..candidates.len() {
            let (tgd_index, assignment) = candidates.get(k);
            // Restricted-chase activeness check against the evolving
            // instance: earlier firings in this round (or of past rounds,
            // for deferred triggers) may have satisfied the head already.
            let plan = plans[tgd_index].get_or_insert_with(|| TgdPlan::new(&tgds[tgd_index]));
            if plan.head.satisfied(&current, assignment, &mut search) {
                continue;
            }
            match fire_trigger(
                &tgds[tgd_index],
                tgd_index,
                assignment,
                &plan.existentials,
                &mut current,
                &mut depths,
                &mut stats,
                values,
                budget,
                Some(&mut new_delta),
                &mut fire,
                proof.as_deref_mut(),
            ) {
                FireResult::Fired => {
                    fired_any = true;
                    rbqa_obs::counters::add_firing(tgd_index);
                }
                FireResult::SkippedForDepth => {
                    skipped_for_depth = true;
                    pending.push(tgd_index, assignment.iter().copied());
                    if !pending_seen.insert_last(&pending) {
                        pending.pop();
                    }
                }
                FireResult::OverBudget => {
                    over_budget = true;
                    break;
                }
            }
            if current.len() > budget.max_facts {
                over_budget = true;
                break;
            }
        }

        // Re-establish the FDs; a value merge invalidates trigger
        // knowledge, so rewritten rows re-enter the delta (translated in
        // place by the fixpoint) and deferred assignments are substituted.
        if config.apply_fds {
            match apply_fds_to_fixpoint(
                &mut current,
                constraints.fds(),
                &mut depths,
                &mut stats,
                Some(&mut new_delta),
                &mut fd,
            ) {
                Err(()) => {
                    return ChaseOutcome {
                        instance: current,
                        completion: Completion::FdFailure,
                        stats,
                    };
                }
                Ok(rewrite) if rewrite.rewrote() => {
                    for val in pending.values_mut() {
                        if let Some(mapped) = rewrite.subst.get(val) {
                            *val = *mapped;
                        }
                    }
                    // Merged values may have lowered a deferred trigger's
                    // body depth (or satisfied its head): re-examine.
                    recheck_pending = !pending.is_empty();
                }
                Ok(_) => {}
            }
        }

        if over_budget {
            return ChaseOutcome {
                instance: current,
                completion: Completion::BudgetExhausted,
                stats,
            };
        }
        if !fired_any {
            if !pending_examined {
                // Quiescent, but triggers deferred in *earlier* rounds were
                // not looked at this round: run one more round over them.
                // They either fire (an FD merge lowered their depth), turn
                // out head-satisfied, or re-defer and set the depth flag.
                // (Triggers deferred during this round need no extra look —
                // the naive engine would classify them identically.)
                recheck_pending = true;
                delta.clear();
                continue;
            }
            let completion = if skipped_for_depth {
                Completion::DepthCapped
            } else {
                Completion::Saturated
            };
            return ChaseOutcome {
                instance: current,
                completion,
                stats,
            };
        }
        std::mem::swap(&mut delta, &mut new_delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::Trigger;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::{inclusion_dependency, TgdBuilder};

    /// The delta triggers of one rule.
    fn triggers_of(tgd: &Tgd, inst: &Instance, delta: &RowSet) -> (Vec<Trigger>, bool) {
        let mut by_rel = DeltaByRelation::default();
        by_rel.fill(delta);
        let mut found = TriggerArena::default();
        let truncated = delta_triggers(
            tgd,
            0,
            &TgdPlan::new(tgd),
            inst,
            &by_rel,
            usize::MAX,
            &mut found,
            &mut SeenTriggers::default(),
            &mut SearchScratch::default(),
        );
        let triggers = (0..found.len())
            .map(|k| {
                let (tgd_index, assignment) = found.get(k);
                Trigger {
                    tgd_index,
                    assignment: assignment.to_vec(),
                }
            })
            .collect();
        (triggers, truncated)
    }

    #[test]
    fn dependency_map_indexes_body_relations() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        let t = sig.add_relation("T", 2).unwrap();
        let tgds = vec![
            inclusion_dependency(&sig, r, &[1], s, &[0]), // body R
            inclusion_dependency(&sig, s, &[1], t, &[0]), // body S
            inclusion_dependency(&sig, r, &[0], t, &[1]), // body R
        ];
        let map = DependencyMap::new(&tgds);
        assert_eq!(map.rules_for(r), &[0, 2]);
        assert_eq!(map.rules_for(s), &[1]);
        assert!(map.rules_for(t).is_empty());
        let mut affected = vec![9];
        map.affected_into(&[s, r], &mut affected);
        assert_eq!(affected, vec![0, 1, 2]);
        map.affected_into(&[t], &mut affected);
        assert_eq!(affected, Vec::<usize>::new());
    }

    #[test]
    fn unify_atom_respects_constants_and_repeats() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");

        let mut builder = TgdBuilder::new();
        let x = builder.var("x");
        builder.body_atom(r, vec![Term::Var(x), Term::Var(x)]);
        builder.head_atom(r, vec![Term::Var(x), Term::Var(x)]);
        let tgd = builder.build();
        let atom = &tgd.body()[0];

        // R(x, x) unifies with (a, a) but not (a, b).
        let mut seed = Vec::new();
        assert!(unify_atom_into(atom, &[a, a], &mut seed));
        assert_eq!(seed, vec![(x, a)]);
        assert!(!unify_atom_into(atom, &[a, b], &mut seed));
    }

    #[test]
    fn seen_triggers_tell_apart_rules_and_assignments() {
        let mut vf = ValueFactory::new();
        let (a, b) = (vf.constant("a"), vf.constant("b"));
        let x = VarId::from_index(0);
        let mut arena = TriggerArena::default();
        let mut seen = SeenTriggers::default();
        for (tgd, value, new) in [(0, a, true), (0, b, true), (1, a, true), (0, a, false)] {
            arena.push(tgd, [(x, value)]);
            assert_eq!(seen.insert_last(&arena), new, "({tgd}, {value:?})");
        }
        seen.clear();
        arena.push(0, [(x, a)]);
        assert!(seen.insert_last(&arena));
    }

    #[test]
    fn delta_triggers_only_touch_new_facts() {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        let mut vf = ValueFactory::new();
        let vals: Vec<_> = (0..4).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for &v in &vals {
            inst.insert(r, vec![v, v]).unwrap();
        }
        let tgd = inclusion_dependency(&sig, r, &[0], s, &[0]);

        // Only v0's fact (row 0 of R) is "new": a single trigger is found
        // even though four body homomorphisms exist in the full instance.
        let mut delta = RowSet::default();
        let row = inst.row_id(r, &[vals[0], vals[0]]).unwrap();
        delta.insert((r, row));
        let (triggers, truncated) = triggers_of(&tgd, &inst, &delta);
        assert!(!truncated);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].assignment.len(), 2);

        // An empty delta yields no triggers at all.
        let (triggers, truncated) = triggers_of(&tgd, &inst, &RowSet::default());
        assert!(!truncated);
        assert!(triggers.is_empty());
    }

    #[test]
    fn delta_triggers_dedupe_multi_delta_matches() {
        // Both body atoms of a 2-atom rule match delta facts: the joint
        // homomorphism must be reported once, not once per delta atom.
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 1).unwrap();
        let mut vf = ValueFactory::new();
        let (a, b, c) = (vf.constant("a"), vf.constant("b"), vf.constant("c"));
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, b]).unwrap();
        inst.insert(r, vec![b, c]).unwrap();

        let mut builder = TgdBuilder::new();
        let (x, y, z) = (builder.var("x"), builder.var("y"), builder.var("z"));
        builder.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
        builder.body_atom(r, vec![Term::Var(y), Term::Var(z)]);
        builder.head_atom(s, vec![Term::Var(x)]);
        let tgd = builder.build();

        let delta: RowSet = (0..inst.relation_len(r) as u32)
            .map(|row| (r, row))
            .collect();
        let (triggers, _) = triggers_of(&tgd, &inst, &delta);
        // Exactly one join: R(a,b) ⋈ R(b,c).
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].assignment, vec![(x, a), (y, b), (z, c)]);
    }
}
