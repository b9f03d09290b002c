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

use rbqa_common::{Instance, RelationId, Value, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::homomorphism::MatchProgram;
use rbqa_logic::{Atom, Term, Tgd, VarId};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::engine::{
    apply_fds_to_fixpoint, fire_trigger, ChaseConfig, DepthMap, FireResult, RowSet,
};
use crate::proof::ProofLog;
use crate::result::{ChaseOutcome, ChaseStats, Completion};
use crate::trigger::{HeadCheck, Trigger, TriggerAssignment};

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

    /// The TGD indices affected by a set of changed relations, ascending.
    pub fn affected<'a>(&self, relations: impl Iterator<Item = &'a RelationId>) -> Vec<usize> {
        let mut out: Vec<usize> = relations
            .filter_map(|rel| self.by_relation.get(rel))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The rules whose body mentions `relation`.
    pub fn rules_for(&self, relation: RelationId) -> &[usize] {
        self.by_relation
            .get(&relation)
            .map_or(&[], |v| v.as_slice())
    }
}

/// Unifies `atom` with a ground `tuple`, producing the induced partial
/// assignment as sorted `(variable, value)` seed pairs, or `None` when a
/// constant mismatches or a repeated variable would need two values.
fn unify_atom(atom: &Atom, tuple: &[Value]) -> Option<Vec<(VarId, Value)>> {
    debug_assert_eq!(atom.args().len(), tuple.len());
    let mut seed: Vec<(VarId, Value)> = Vec::with_capacity(atom.args().len());
    for (term, &val) in atom.args().iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if *c != val {
                    return None;
                }
            }
            Term::Var(v) => match seed.iter().find(|(sv, _)| sv == v) {
                Some(&(_, prev)) if prev != val => return None,
                Some(_) => {}
                None => seed.push((*v, val)),
            },
        }
    }
    seed.sort_unstable_by_key(|&(v, _)| v);
    Some(seed)
}

/// Per-TGD state precompiled once per chase run: one [`MatchProgram`] per
/// seeded body shape plus the shared activeness check.
///
/// * `without_atom[i]` is the compiled body with atom `i` removed, declared
///   to be seeded with atom `i`'s variables: unifying a delta fact against
///   atom `i` pins all of that atom's variables, so the removed atom needs
///   no re-join — for linear TGDs (IDs, the dominant class) the remaining
///   program is empty and delta matching is O(1) per delta fact.
/// * `head` is the engine-shared [`HeadCheck`] (the compiled head program
///   seeded with the frontier variables), so the restricted-chase
///   activeness check neither rebuilds queries nor re-plans the atom order
///   per check — and cannot drift from the naive engine's.
struct TgdPlan {
    without_atom: Vec<MatchProgram>,
    head: HeadCheck,
}

impl TgdPlan {
    fn new(tgd: &Tgd) -> Self {
        let without_atom = (0..tgd.body().len())
            .map(|skip| {
                let atoms: Vec<Atom> = tgd
                    .body()
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != skip)
                    .map(|(_, a)| a.clone())
                    .collect();
                MatchProgram::compile_atoms(&atoms, &tgd.body()[skip].variables())
            })
            .collect();
        TgdPlan {
            without_atom,
            head: HeadCheck::new(tgd),
        }
    }

    /// Whether `assignment` extends to a head match in `instance` (the
    /// trigger is then inactive). See [`HeadCheck`].
    fn head_satisfied(&self, instance: &Instance, assignment: &[(VarId, Value)]) -> bool {
        self.head.satisfied(instance, assignment)
    }
}

/// Enumerates the *active* triggers of `tgd` that touch the delta: body
/// homomorphisms into `instance` mapping at least one body atom to a fact
/// in `delta_by_rel`. At most `limit` distinct homomorphisms are collected;
/// the second component reports truncation (the run is then budget
/// exhausted, mirroring [`crate::trigger::active_triggers`]).
/// Unlike [`crate::trigger::active_triggers`] this does *not* pre-filter
/// head-satisfied triggers: the firing loop re-checks activeness against
/// the evolving instance anyway (the authoritative restricted-chase check),
/// so pre-filtering would only double the number of head searches.
fn delta_triggers(
    tgd: &Tgd,
    tgd_index: usize,
    plan: &TgdPlan,
    instance: &Instance,
    delta_by_rel: &FxHashMap<RelationId, Vec<u32>>,
    limit: usize,
) -> (Vec<Trigger>, bool) {
    let mut seen: FxHashSet<TriggerAssignment> = FxHashSet::default();
    let mut triggers: Vec<Trigger> = Vec::new();
    let mut truncated = false;

    'atoms: for (atom_idx, atom) in tgd.body().iter().enumerate() {
        let Some(new_rows) = delta_by_rel.get(&atom.relation()) else {
            continue;
        };
        let rest = &plan.without_atom[atom_idx];
        for &row in new_rows {
            let tuple = instance.row(atom.relation(), row);
            let Some(seed) = unify_atom(atom, tuple) else {
                continue;
            };
            // The seed pins every variable of `atom` to the delta fact
            // (which is present by construction), so only the remaining
            // atoms are joined against the full instance by the cached
            // match program over the sorted posting lists.
            let mut hit_limit = false;
            rest.for_each(instance, &seed, |binding| {
                // `iter_bound` yields in slot order, so the assignment is
                // already sorted — it doubles as its own dedup key.
                let assignment: TriggerAssignment = binding.iter_bound().collect();
                if seen.insert(assignment.clone()) {
                    triggers.push(Trigger {
                        tgd_index,
                        assignment,
                    });
                    if triggers.len() >= limit {
                        hit_limit = true;
                        return false;
                    }
                }
                true
            });
            if hit_limit {
                truncated = true;
                break 'atoms;
            }
        }
    }
    (triggers, truncated)
}

/// Sorted, per-relation view of a delta row set. Row ids are sorted so that
/// the enumeration order (and hence null naming) is deterministic
/// regardless of hash-set iteration order — row ids reflect insertion
/// order, which is itself deterministic.
fn group_delta(delta: &RowSet) -> FxHashMap<RelationId, Vec<u32>> {
    let mut by_rel: FxHashMap<RelationId, Vec<u32>> = FxHashMap::default();
    for &(rel, row) in delta {
        by_rel.entry(rel).or_default().push(row);
    }
    for rows in by_rel.values_mut() {
        rows.sort_unstable();
    }
    by_rel
}

/// The delta-driven restricted chase, run by [`crate::engine::chase`].
pub(crate) fn chase_seminaive(
    instance: &Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    mut proof: Option<&mut ProofLog>,
) -> ChaseOutcome {
    let budget = config.budget;
    let mut current = instance.clone();
    let mut depths = DepthMap::zeros(&current);
    let mut stats = ChaseStats::default();
    let mut scratch: Vec<Value> = Vec::new();

    // Initial FD fixpoint, as in the naive engine. No delta bookkeeping is
    // needed yet: the first round treats every fact as new.
    if config.apply_fds
        && apply_fds_to_fixpoint(
            &mut current,
            constraints.fds(),
            &mut depths,
            &mut stats,
            None,
        )
        .is_err()
    {
        return ChaseOutcome {
            instance: current,
            completion: Completion::FdFailure,
            stats,
        };
    }

    let deps = DependencyMap::new(constraints.tgds());
    // Per-TGD plans are compiled on first use: the delta restriction means
    // rules whose body relations never gain facts are never examined at
    // all, and constraint sets like the ID linearization carry hundreds of
    // rules over annotated relations that stay empty on a given run.
    let mut plans: Vec<Option<TgdPlan>> = constraints.tgds().iter().map(|_| None).collect();
    let trigger_limit = budget.trigger_limit();

    // Round 1 sees the whole (FD-repaired) instance as its delta, so its
    // trigger enumeration coincides with the naive engine's first round.
    let mut delta: RowSet = (0..current.signature().len())
        .flat_map(|i| {
            let rel = RelationId::from_index(i);
            (0..current.relation_len(rel) as u32).map(move |row| (rel, row))
        })
        .collect();

    // Depth-deferred triggers: active triggers whose firing would exceed
    // `max_depth`. Their status can only change when an FD merge lowers a
    // body depth (or satisfies their head), so they are re-examined after
    // FD rewrites and on otherwise-quiescent rounds — the latter is what
    // tells `DepthCapped` from `Saturated`.
    let mut pending: Vec<Trigger> = Vec::new();
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
        let delta_by_rel = group_delta(&delta);
        // Whether every trigger in `pending` has been examined by the end
        // of this round: true when the carried-over ones are re-candidated
        // now, or when there were none to carry (anything deferred *during*
        // this round was by definition examined this round).
        let pending_examined = recheck_pending || pending.is_empty();
        let mut candidates = if recheck_pending {
            std::mem::take(&mut pending)
        } else {
            Vec::new()
        };
        recheck_pending = false;
        {
            let mut search_span = rbqa_obs::span("trigger_search");
            for i in deps.affected(delta_by_rel.keys()) {
                let plan = plans[i].get_or_insert_with(|| TgdPlan::new(&constraints.tgds()[i]));
                let (mut found, truncated) = delta_triggers(
                    &constraints.tgds()[i],
                    i,
                    plan,
                    &current,
                    &delta_by_rel,
                    trigger_limit,
                );
                if truncated {
                    over_budget = true;
                }
                candidates.append(&mut found);
            }
            search_span.num("triggers", candidates.len() as u64);
        }

        let mut new_delta: RowSet = RowSet::default();
        let mut pending_keys: FxHashSet<(usize, TriggerAssignment)> = FxHashSet::default();

        for trigger in candidates {
            let tgd = &constraints.tgds()[trigger.tgd_index];
            // Restricted-chase activeness check against the evolving
            // instance: earlier firings in this round (or of past rounds,
            // for deferred triggers) may have satisfied the head already.
            let plan = plans[trigger.tgd_index]
                .get_or_insert_with(|| TgdPlan::new(&constraints.tgds()[trigger.tgd_index]));
            if plan.head_satisfied(&current, &trigger.assignment) {
                continue;
            }
            match fire_trigger(
                tgd,
                &trigger,
                &mut current,
                &mut depths,
                &mut stats,
                values,
                budget,
                Some(&mut new_delta),
                &mut scratch,
                proof.as_deref_mut(),
            ) {
                FireResult::Fired => {
                    fired_any = true;
                    rbqa_obs::counters::add_firing(trigger.tgd_index);
                }
                FireResult::SkippedForDepth => {
                    skipped_for_depth = true;
                    if pending_keys.insert((trigger.tgd_index, trigger.assignment.clone())) {
                        pending.push(trigger);
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
            ) {
                Err(()) => {
                    return ChaseOutcome {
                        instance: current,
                        completion: Completion::FdFailure,
                        stats,
                    };
                }
                Ok(rewrite) if rewrite.rewrote() => {
                    for trigger in &mut pending {
                        for (_, val) in trigger.assignment.iter_mut() {
                            if let Some(mapped) = rewrite.subst.get(val) {
                                *val = *mapped;
                            }
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
                delta = RowSet::default();
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
        delta = new_delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::{inclusion_dependency, TgdBuilder};

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
        assert_eq!(map.affected([r, s].iter()), vec![0, 1, 2]);
        assert_eq!(map.affected([t].iter()), Vec::<usize>::new());
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
        let seed = unify_atom(atom, &[a, a]).unwrap();
        assert_eq!(seed.len(), 1);
        assert!(unify_atom(atom, &[a, b]).is_none());
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
        let plan = TgdPlan::new(&tgd);
        let by_rel = group_delta(&delta);
        let (triggers, truncated) = delta_triggers(&tgd, 0, &plan, &inst, &by_rel, usize::MAX);
        assert!(!truncated);
        assert_eq!(triggers.len(), 1);

        // An empty delta yields no triggers at all.
        let by_rel = group_delta(&RowSet::default());
        let (triggers, truncated) = delta_triggers(&tgd, 0, &plan, &inst, &by_rel, usize::MAX);
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
        let by_rel = group_delta(&delta);
        let (triggers, _) =
            delta_triggers(&tgd, 0, &TgdPlan::new(&tgd), &inst, &by_rel, usize::MAX);
        // Exactly one join: R(a,b) ⋈ R(b,c).
        assert_eq!(triggers.len(), 1);
    }
}
