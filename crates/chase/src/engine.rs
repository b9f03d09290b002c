//! The restricted chase engine with FD (EGD) handling, depth tracking and
//! budgets.
//!
//! Two engines implement the same restricted-chase semantics:
//!
//! * [`chase`] — the delta-driven (semi-naive) engine of
//!   [`crate::seminaive`]: a round only re-evaluates rules whose body
//!   mentions a relation that gained facts, and homomorphism search is
//!   seeded from the newly derived facts. Every caller in the workspace
//!   runs this one.
//! * [`chase_naive`] — the textbook engine: every round re-enumerates all
//!   body homomorphisms of all TGDs against the full instance. It is the
//!   differential oracle of the tests and the benchmark baseline; no option
//!   reaches it. It shares `fire_trigger` and the FD fixpoint with the
//!   semi-naive engine, so depth bookkeeping and budget checks cannot drift.
//!
//! Both engines produce the same [`Completion`] and homomorphically
//! equivalent instances whenever the budget does not truncate enumeration
//! (the differential property test in `tests/chase_differential.rs` checks
//! this on random schemas and constraint sets). At the
//! [`Budget::trigger_limit`] cap the engines can differ in the sound
//! direction only: the semi-naive engine enumerates strictly fewer
//! homomorphisms per round, so it may still saturate where the naive
//! engine reports [`Completion::BudgetExhausted`] — never the reverse.

use rbqa_common::{Instance, RelationId, Value, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::Fd;
use rustc_hash::{FxHashMap, FxHashSet};

use crate::budget::Budget;
use crate::proof::ProofLog;
use crate::result::{ChaseOutcome, ChaseStats, Completion};
use crate::trigger::{assignment_get, TgdKernel, Trigger};

/// Per-row derivation depths, aligned with the instance's stable row ids
/// (`relation index → row id → depth`). Replaces the former `Fact`-keyed
/// hash map: depth reads and writes are array indexing instead of hashing
/// whole tuples, and no `Fact` is materialised on the firing path.
#[derive(Debug, Default, Clone)]
pub(crate) struct DepthMap {
    per_rel: Vec<Vec<u32>>,
}

impl DepthMap {
    /// All-zero depths for every current row of `instance` (the input facts
    /// of the chase).
    pub(crate) fn zeros(instance: &Instance) -> Self {
        let per_rel = (0..instance.signature().len())
            .map(|i| vec![0u32; instance.relation_len(RelationId::from_index(i))])
            .collect();
        DepthMap { per_rel }
    }

    /// Sentinel-initialised map for an FD-rewritten instance, filled by
    /// [`DepthMap::record_min`].
    fn unset(instance: &Instance) -> Self {
        let per_rel = (0..instance.signature().len())
            .map(|i| vec![u32::MAX; instance.relation_len(RelationId::from_index(i))])
            .collect();
        DepthMap { per_rel }
    }

    #[inline]
    fn get(&self, relation: RelationId, row: u32) -> usize {
        self.per_rel[relation.index()][row as usize] as usize
    }

    /// Records the depth of a freshly inserted row (must be the relation's
    /// newest row).
    fn push(&mut self, relation: RelationId, row: u32, depth: usize) {
        if relation.index() >= self.per_rel.len() {
            self.per_rel.resize_with(relation.index() + 1, Vec::new);
        }
        let rows = &mut self.per_rel[relation.index()];
        debug_assert_eq!(rows.len(), row as usize);
        rows.push(u32::try_from(depth).expect("depth fits in u32"));
    }

    /// Lowers (or sets) the depth of `row`; returns `true` when the slot
    /// was already set — i.e. two pre-rewrite facts collapsed into it.
    fn record_min(&mut self, relation: RelationId, row: u32, depth: usize) -> bool {
        let slot = &mut self.per_rel[relation.index()][row as usize];
        let collided = *slot != u32::MAX;
        *slot = (*slot).min(u32::try_from(depth).expect("depth fits in u32"));
        collided
    }
}

/// Configuration of a chase run.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Resource limits.
    pub budget: Budget,
    /// Whether FDs are chased (value unification). When `false`, FDs in the
    /// constraint set are ignored.
    pub apply_fds: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            budget: Budget::default(),
            apply_fds: true,
        }
    }
}

impl ChaseConfig {
    /// Config with the given budget and FD chasing enabled.
    pub fn with_budget(budget: Budget) -> Self {
        ChaseConfig {
            budget,
            ..ChaseConfig::default()
        }
    }
}

/// Runs the restricted chase of `constraints` on `instance` with the
/// semi-naive engine.
///
/// * TGDs are fired on active triggers only, with fresh nulls drawn from
///   `values` for existentially quantified head variables.
/// * FDs are applied as EGDs: when two facts violate an FD, the values at
///   the determined position are unified (nulls are substituted away;
///   equating two distinct constants aborts with
///   [`Completion::FdFailure`]).
/// * Every fact carries a derivation depth (input facts have depth 0; a
///   fired head fact has depth one more than the largest depth among the
///   facts matched by its trigger). Triggers whose result would exceed
///   `budget.max_depth` are not fired; if any such trigger is skipped the
///   run ends as [`Completion::DepthCapped`] instead of
///   [`Completion::Saturated`].
///
/// ```
/// use rbqa_chase::{chase, ChaseConfig};
/// use rbqa_common::{Instance, Signature, ValueFactory};
/// use rbqa_logic::constraints::tgd::inclusion_dependency;
/// use rbqa_logic::constraints::ConstraintSet;
///
/// let mut sig = Signature::new();
/// let r = sig.add_relation("R", 2).unwrap();
/// let s = sig.add_relation("S", 2).unwrap();
/// let mut values = ValueFactory::new();
/// let (a, b) = (values.constant("a"), values.constant("b"));
/// let mut instance = Instance::new(sig.clone());
/// instance.insert(r, vec![a, b]).unwrap();
///
/// // R(x, y) -> ∃z S(y, z): the chase adds one S-fact with a fresh null.
/// let mut constraints = ConstraintSet::new();
/// constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
/// let out = chase(&instance, &constraints, &mut values, ChaseConfig::default());
/// assert!(out.is_saturated());
/// assert_eq!(out.instance.relation_len(s), 1);
/// ```
pub fn chase(
    instance: &Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
) -> ChaseOutcome {
    traced_chase(instance, constraints, values, config, None)
}

/// Runs [`chase`] and records in `log` the firing behind every derived
/// fact (see [`ProofLog`]). The run itself — rounds, firings, nulls and the
/// chased instance — is the one [`chase`] makes; only the recording is
/// added.
pub fn chase_with_proof(
    instance: &Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    log: &mut ProofLog,
) -> ChaseOutcome {
    traced_chase(instance, constraints, values, config, Some(log))
}

fn traced_chase(
    instance: &Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
    proof: Option<&mut ProofLog>,
) -> ChaseOutcome {
    let mut obs = rbqa_obs::phase_span("chase", rbqa_obs::Phase::Chase);
    let outcome = crate::seminaive::chase_seminaive(instance, constraints, values, config, proof);
    rbqa_obs::counters::add_chase_rounds(outcome.stats.rounds as u64);
    obs.num("rounds", outcome.stats.rounds as u64);
    obs.num("firings", outcome.stats.tgd_firings as u64);
    obs.num("facts", outcome.instance.len() as u64);
    outcome
}

/// The naive engine: each round enumerates all body homomorphisms of all
/// TGDs against the full current instance.
///
/// The differential oracle for [`chase`], called directly by the tests and
/// the chase benchmark; it is quadratic in the number of rounds and no
/// production path runs it. Same semantics, same [`Completion`] away from
/// the enumeration cap (see the module docs).
pub fn chase_naive(
    instance: &Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
) -> ChaseOutcome {
    let budget = config.budget;
    let mut current = instance.clone();
    let mut depths = DepthMap::zeros(&current);
    let mut stats = ChaseStats::default();
    let mut scratch: Vec<Value> = Vec::new();

    // Apply the FDs once before any TGD round so that the input instance is
    // already consistent.
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

    // Per-rule, per-round cap on trigger enumeration, derived once from the
    // budget (see `Budget::trigger_limit` for the formula and rationale).
    let trigger_limit = budget.trigger_limit();

    // One compiled body/head match program per TGD, reused every round.
    let kernels: Vec<TgdKernel> = constraints.tgds().iter().map(TgdKernel::new).collect();

    loop {
        if stats.rounds >= budget.max_rounds {
            return ChaseOutcome {
                instance: current,
                completion: Completion::BudgetExhausted,
                stats,
            };
        }
        // Cooperative deadline check, once per round: a timed-out request
        // surrenders the worker here instead of chasing to completion.
        // The caller distinguishes a real budget exhaustion from an
        // expired deadline by re-checking the deadline itself.
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

        // Collect the active triggers against the instance at the start of
        // the round. Rules with many body atoms can have exponentially many
        // homomorphisms; reaching the enumeration cap turns that into an
        // explicit budget exhaustion instead of a hang.
        let mut skipped_for_depth = false;
        let mut fired_any = false;
        let mut over_budget = false;

        let mut triggers = Vec::new();
        {
            let mut search_span = rbqa_obs::span("trigger_search");
            for (i, kernel) in kernels.iter().enumerate() {
                let (mut found, truncated) = kernel.active_triggers(i, &current, trigger_limit);
                if truncated {
                    over_budget = true;
                }
                triggers.append(&mut found);
            }
            search_span.num("triggers", triggers.len() as u64);
        }

        for trigger in triggers {
            let tgd = &constraints.tgds()[trigger.tgd_index];
            // Re-check activeness against the *current* instance: earlier
            // firings in this round may have satisfied the head already
            // (this is what makes the chase "restricted").
            if kernels[trigger.tgd_index].head_satisfied(&current, &trigger.assignment) {
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
                None,
                &mut scratch,
                None,
            ) {
                FireResult::Fired => {
                    fired_any = true;
                    rbqa_obs::counters::add_firing(trigger.tgd_index);
                }
                FireResult::SkippedForDepth => skipped_for_depth = true,
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

        // Re-establish the FDs after the round.
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

        if over_budget {
            return ChaseOutcome {
                instance: current,
                completion: Completion::BudgetExhausted,
                stats,
            };
        }
        if !fired_any {
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
    }
}

/// Outcome of attempting to fire one trigger.
pub(crate) enum FireResult {
    /// Head facts were added (or re-confirmed present).
    Fired,
    /// The new facts would exceed `budget.max_depth`; nothing was added.
    SkippedForDepth,
    /// The null budget was exhausted mid-firing.
    OverBudget,
}

/// Fires `tgd` on `trigger` (its sorted `(variable, value)` assignment):
/// computes the derivation depth from the matched body facts, draws fresh
/// nulls for the existential variables and inserts every head atom. Newly
/// inserted rows are also recorded in `new_rows` when provided (the
/// semi-naive engine's delta), and attributed to this firing in `proof`
/// when provided. `scratch` is a reusable tuple buffer — the firing path
/// materialises no `Fact` at all. Shared by [`chase`] and [`chase_naive`] so
/// that depth bookkeeping and budget checks cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fire_trigger(
    tgd: &rbqa_logic::Tgd,
    trigger: &Trigger,
    current: &mut Instance,
    depths: &mut DepthMap,
    stats: &mut ChaseStats,
    values: &mut ValueFactory,
    budget: Budget,
    mut new_rows: Option<&mut RowSet>,
    scratch: &mut Vec<Value>,
    mut proof: Option<&mut ProofLog>,
) -> FireResult {
    let assignment = &trigger.assignment[..];
    // Depth of the new facts: the maximum depth among the matched body rows
    // (depth 0 when a body fact is no longer resolvable — matching the
    // previous engine's defensive `unwrap_or(0)` for FD-rewritten facts).
    let mut body_depth = 0usize;
    for atom in tgd.body() {
        let ok = atom.instantiate_into(|v| assignment_get(assignment, v), scratch);
        debug_assert!(ok, "trigger assigns every body variable");
        if let Some(row) = current.row_id(atom.relation(), scratch) {
            body_depth = body_depth.max(depths.get(atom.relation(), row));
        }
    }
    let new_depth = body_depth + 1;
    if new_depth > budget.max_depth {
        return FireResult::SkippedForDepth;
    }

    // Extend the assignment with fresh nulls for the existential variables,
    // then add every head atom.
    let mut extended = assignment.to_vec();
    for v in tgd.existential_variables() {
        if stats.nulls_created >= budget.max_nulls {
            return FireResult::OverBudget;
        }
        extended.push((v, values.fresh_null()));
        stats.nulls_created += 1;
    }
    extended.sort_unstable_by_key(|&(v, _)| v);
    let firing = proof
        .as_deref_mut()
        .map(|log| log.push_firing(trigger.tgd_index, assignment));
    for atom in tgd.head() {
        let ok = atom.instantiate_into(|v| assignment_get(&extended, v), scratch);
        debug_assert!(ok, "all head variables are assigned");
        if current
            .insert_slice(atom.relation(), scratch)
            .expect("head atoms respect the signature")
        {
            let row = (current.relation_len(atom.relation()) - 1) as u32;
            depths.push(atom.relation(), row, new_depth);
            stats.max_depth_reached = stats.max_depth_reached.max(new_depth);
            if let Some(delta) = new_rows.as_deref_mut() {
                delta.insert((atom.relation(), row));
            }
            if let (Some(log), Some(firing)) = (proof.as_deref_mut(), firing) {
                log.record(atom.relation(), row, firing);
            }
        }
    }
    stats.tgd_firings += 1;
    FireResult::Fired
}

/// Union-find over values used by the FD chase.
struct UnionFind {
    parent: FxHashMap<Value, Value>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: FxHashMap::default(),
        }
    }

    fn find(&mut self, v: Value) -> Value {
        let p = *self.parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    /// Unions the classes of `a` and `b`, preferring a constant (then the
    /// smaller value) as representative. Returns `Err(())` if two distinct
    /// constants would be merged.
    fn union(&mut self, a: Value, b: Value) -> Result<bool, ()> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        let (root, child) = match (ra.is_const(), rb.is_const()) {
            (true, true) => return Err(()),
            (true, false) => (ra, rb),
            (false, true) => (rb, ra),
            (false, false) => {
                if ra <= rb {
                    (ra, rb)
                } else {
                    (rb, ra)
                }
            }
        };
        self.parent.insert(child, root);
        Ok(true)
    }
}

/// A set of instance rows — the chase's delta currency. Rows are stable
/// between FD rewrites, so the delta carries `(relation, row id)` pairs
/// instead of owned `Fact`s (no tuple clones or hashing on the firing
/// path); [`apply_fds_to_fixpoint`] translates the set through instance
/// rewrites.
pub(crate) type RowSet = FxHashSet<(RelationId, u32)>;

/// The value substitution produced by one run of the FD fixpoint. Consumed
/// by the semi-naive engine, which must rewrite its deferred trigger
/// assignments whenever values are merged (the delta itself is translated
/// in place by [`apply_fds_to_fixpoint`]).
#[derive(Debug, Default)]
pub(crate) struct FdRewrite {
    /// The composed substitution over all fixpoint iterations (empty when
    /// no values were merged).
    pub subst: FxHashMap<Value, Value>,
}

impl FdRewrite {
    /// Whether any value was merged.
    pub fn rewrote(&self) -> bool {
        !self.subst.is_empty()
    }
}

/// Applies the FDs as EGDs until no violation remains. Returns the
/// substitution on success and `Err(())` on a hard failure (two distinct
/// constants equated).
///
/// When `delta` is provided, its rows are translated through every rewrite,
/// and rows of the final instance that were rewritten — or into which two
/// pre-rewrite rows collapsed (their recorded depth may have decreased) —
/// are added to it: every piece of trigger knowledge derived from those
/// rows is stale and must be re-examined by the caller.
pub(crate) fn apply_fds_to_fixpoint(
    instance: &mut Instance,
    fds: &[Fd],
    depths: &mut DepthMap,
    stats: &mut ChaseStats,
    delta: Option<&mut RowSet>,
) -> Result<FdRewrite, ()> {
    if fds.is_empty() {
        return Ok(FdRewrite::default());
    }
    // Observability wrapper: the pass/unification counts are flushed even
    // when the fixpoint aborts on an FD failure, so a traced request that
    // errors still reports how much EGD work preceded the failure.
    let mut obs = rbqa_obs::phase_span("fd_fixpoint", rbqa_obs::Phase::FdFixpoint);
    let unifications_before = stats.fd_unifications;
    let mut passes = 0u64;
    let result = fd_fixpoint_loop(instance, fds, depths, stats, delta, &mut passes);
    rbqa_obs::counters::add_fd_fixpoint(
        passes,
        (stats.fd_unifications - unifications_before) as u64,
    );
    obs.num("passes", passes);
    result
}

/// The fixpoint loop of [`apply_fds_to_fixpoint`]; `passes` counts loop
/// iterations (including the final quiescent one).
fn fd_fixpoint_loop(
    instance: &mut Instance,
    fds: &[Fd],
    depths: &mut DepthMap,
    stats: &mut ChaseStats,
    mut delta: Option<&mut RowSet>,
    passes: &mut u64,
) -> Result<FdRewrite, ()> {
    let mut rewrite = FdRewrite::default();
    loop {
        *passes += 1;
        let mut uf = UnionFind::new();
        let mut merged_any = false;
        for fd in fds {
            // Group tuples of the FD's relation by their determiner values.
            let mut groups: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
            for tuple in instance.tuples(fd.relation()) {
                let key: Vec<Value> = fd.determiners().iter().map(|&p| tuple[p]).collect();
                groups.entry(key).or_default().push(tuple[fd.determined()]);
            }
            for (_, vals) in groups {
                for pair in vals.windows(2) {
                    if uf.find(pair[0]) != uf.find(pair[1]) && uf.union(pair[0], pair[1])? {
                        merged_any = true;
                        stats.fd_unifications += 1;
                    }
                }
            }
        }
        if !merged_any {
            return Ok(rewrite);
        }
        // Build the substitution and rewrite the instance and depth map.
        let dom = instance.active_domain();
        let mut subst: FxHashMap<Value, Value> = FxHashMap::default();
        for v in dom {
            let r = uf.find(v);
            if r != v {
                subst.insert(v, r);
            }
        }
        if subst.is_empty() {
            return Ok(rewrite);
        }
        let new_instance = instance.map_values(&subst);
        let mut new_depths = DepthMap::unset(&new_instance);
        let mut changed_now: RowSet = RowSet::default();
        // Old row -> new row, per relation (map_values preserves relations).
        let mut row_map: Vec<Vec<u32>> = Vec::with_capacity(instance.signature().len());
        let mut mapped: Vec<Value> = Vec::new();
        for i in 0..instance.signature().len() {
            let rel = RelationId::from_index(i);
            let mut rel_rows: Vec<u32> = Vec::with_capacity(instance.relation_len(rel));
            for (row, tuple) in instance.tuples(rel).enumerate() {
                mapped.clear();
                mapped.extend(tuple.iter().map(|v| *subst.get(v).unwrap_or(v)));
                let fact_changed = mapped != tuple;
                let depth = depths.get(rel, row as u32);
                let new_row = new_instance
                    .row_id(rel, &mapped)
                    .expect("mapped fact present in rewritten instance");
                rel_rows.push(new_row);
                if new_depths.record_min(rel, new_row, depth) || fact_changed {
                    // Rewritten, or two pre-rewrite facts collapsed.
                    changed_now.insert((rel, new_row));
                }
            }
            row_map.push(rel_rows);
        }
        *instance = new_instance;
        *depths = new_depths;

        // Fold this iteration's substitution into the composed rewrite.
        for v in rewrite.subst.values_mut() {
            if let Some(next) = subst.get(v) {
                *v = *next;
            }
        }
        for (k, v) in &subst {
            rewrite.subst.entry(*k).or_insert(*v);
        }
        if let Some(delta) = delta.as_deref_mut() {
            let translated: RowSet = delta
                .iter()
                .map(|&(rel, row)| (rel, row_map[rel.index()][row as usize]))
                .collect();
            *delta = translated;
            delta.extend(changed_now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::{inclusion_dependency, TgdBuilder};
    use rbqa_logic::Term;

    fn sig2() -> (Signature, rbqa_common::RelationId, rbqa_common::RelationId) {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        (sig, r, s)
    }

    /// A chase entry point: [`chase`] or the [`chase_naive`] oracle.
    type Engine = fn(&Instance, &ConstraintSet, &mut ValueFactory, ChaseConfig) -> ChaseOutcome;

    /// Runs every engine-parametrised test under both engines.
    fn both_engines(check: impl Fn(Engine)) {
        check(chase_naive);
        check(chase);
    }

    #[test]
    fn chase_terminates_on_acyclic_ids() {
        both_engines(|engine| {
            let (sig, r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let mut inst = Instance::new(sig.clone());
            inst.insert(r, vec![a, b]).unwrap();

            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));

            let out = engine(&inst, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            assert_eq!(out.instance.relation_len(s), 1);
            assert_eq!(out.stats.tgd_firings, 1);
            assert_eq!(out.stats.nulls_created, 1);
            // The new S-fact carries b forward and a fresh null.
            let s_fact = out.instance.tuples(s).next().unwrap();
            assert_eq!(s_fact[0], b);
            assert!(s_fact[1].is_null());
        });
    }

    #[test]
    fn chase_is_restricted_no_redundant_witnesses() {
        both_engines(|engine| {
            let (sig, r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let c = vf.constant("c");
            let mut inst = Instance::new(sig.clone());
            inst.insert(r, vec![a, b]).unwrap();
            inst.insert(s, vec![b, c]).unwrap(); // head already satisfied

            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));

            let out = engine(&inst, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            assert_eq!(out.stats.tgd_firings, 0);
            assert_eq!(out.instance.len(), 2);
        });
    }

    #[test]
    fn cyclic_ids_hit_budget() {
        both_engines(|engine| {
            // R(x, y) -> ∃z S(y, z) and S(x, y) -> ∃z R(y, z): infinite chase.
            let (sig, r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let mut inst = Instance::new(sig.clone());
            inst.insert(r, vec![a, b]).unwrap();

            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
            constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));

            let budget = Budget::small().with_max_depth(6);
            let out = engine(
                &inst,
                &constraints,
                &mut vf,
                ChaseConfig::with_budget(budget),
            );
            assert_eq!(out.completion, Completion::DepthCapped);
            assert!(out.stats.max_depth_reached <= 6);
            assert!(out.instance.len() > 2);
        });
    }

    #[test]
    fn fd_chase_unifies_nulls() {
        both_engines(|engine| {
            // S(x, y) with FD 0 -> 1: two facts S(a, n) and S(a, b) must
            // unify n with b.
            let (sig, _r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let n = vf.fresh_null();
            let mut inst = Instance::new(sig.clone());
            inst.insert(s, vec![a, n]).unwrap();
            inst.insert(s, vec![a, b]).unwrap();

            let mut constraints = ConstraintSet::new();
            constraints.push_fd(Fd::new(s, vec![0], 1));

            let out = engine(&inst, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            assert_eq!(out.instance.len(), 1);
            assert!(out.instance.contains(s, &[a, b]));
            assert!(out.stats.fd_unifications >= 1);
        });
    }

    #[test]
    fn fd_chase_fails_on_distinct_constants() {
        both_engines(|engine| {
            let (sig, _r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let c = vf.constant("c");
            let mut inst = Instance::new(sig.clone());
            inst.insert(s, vec![a, b]).unwrap();
            inst.insert(s, vec![a, c]).unwrap();

            let mut constraints = ConstraintSet::new();
            constraints.push_fd(Fd::new(s, vec![0], 1));

            let out = engine(&inst, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_fd_failure());
        });
    }

    #[test]
    fn fds_ignored_when_disabled() {
        both_engines(|engine| {
            let (sig, _r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let c = vf.constant("c");
            let mut inst = Instance::new(sig.clone());
            inst.insert(s, vec![a, b]).unwrap();
            inst.insert(s, vec![a, c]).unwrap();

            let mut constraints = ConstraintSet::new();
            constraints.push_fd(Fd::new(s, vec![0], 1));

            let config = ChaseConfig {
                budget: Budget::default(),
                apply_fds: false,
            };
            let out = engine(&inst, &constraints, &mut vf, config);
            assert!(out.is_saturated());
            assert_eq!(out.instance.len(), 2);
        });
    }

    #[test]
    fn interaction_of_tgds_and_fds() {
        both_engines(|engine| {
            // R(x, y) -> ∃z S(x, z); FD S: 0 -> 1. Chasing R(a, b) and
            // S(a, c) does not fire the TGD (restricted chase); chasing
            // R(a, b) alone creates S(a, n) which stays.
            let (sig, r, s) = sig2();
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let c = vf.constant("c");

            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(inclusion_dependency(&sig, r, &[0], s, &[0]));
            constraints.push_fd(Fd::new(s, vec![0], 1));

            let mut with_s = Instance::new(sig.clone());
            with_s.insert(r, vec![a, b]).unwrap();
            with_s.insert(s, vec![a, c]).unwrap();
            let out = engine(&with_s, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            assert_eq!(out.instance.len(), 2);

            let mut without_s = Instance::new(sig.clone());
            without_s.insert(r, vec![a, b]).unwrap();
            let out = engine(&without_s, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            assert_eq!(out.instance.relation_len(s), 1);
        });
    }

    #[test]
    fn full_tgd_closure() {
        both_engines(|engine| {
            // Transitivity-like full TGD: R(x, y), R(y, z) -> R(x, z) over a
            // chain of length 3 produces the full transitive closure.
            let (sig, r, _s) = sig2();
            let mut vf = ValueFactory::new();
            let v: Vec<_> = (0..4).map(|i| vf.constant(&format!("v{i}"))).collect();
            let mut inst = Instance::new(sig.clone());
            for i in 0..3 {
                inst.insert(r, vec![v[i], v[i + 1]]).unwrap();
            }
            let mut b = TgdBuilder::new();
            let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
            b.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
            b.body_atom(r, vec![Term::Var(y), Term::Var(z)]);
            b.head_atom(r, vec![Term::Var(x), Term::Var(z)]);
            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(b.build());

            let out = engine(&inst, &constraints, &mut vf, ChaseConfig::default());
            assert!(out.is_saturated());
            // Closure of a 3-edge chain has 3 + 2 + 1 = 6 edges.
            assert_eq!(out.instance.relation_len(r), 6);
            assert_eq!(out.stats.nulls_created, 0);
        });
    }

    #[test]
    fn trigger_limit_truncation_is_budget_exhaustion() {
        // Pin the truncation contract of `Budget::trigger_limit`: a rule
        // whose per-round (delta-restricted, for the semi-naive engine)
        // body-homomorphism count reaches `max_facts + 2` ends the run as
        // `BudgetExhausted`, never as a silent hang or a fake saturation.
        both_engines(|engine| {
            let (sig, r, _s) = sig2();
            let mut vf = ValueFactory::new();
            let v: Vec<_> = (0..4).map(|i| vf.constant(&format!("v{i}"))).collect();
            let mut inst = Instance::new(sig.clone());
            for &x in &v {
                for &y in &v {
                    inst.insert(r, vec![x, y]).unwrap(); // complete digraph: 16 facts
                }
            }
            // R(x, y), R(y, z) -> R(x, z): already closed (64 body homs, no
            // new facts), so the only way the run can end is saturation —
            // unless the enumeration cap truncates it.
            let mut b = TgdBuilder::new();
            let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
            b.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
            b.body_atom(r, vec![Term::Var(y), Term::Var(z)]);
            b.head_atom(r, vec![Term::Var(x), Term::Var(z)]);
            let mut constraints = ConstraintSet::new();
            constraints.push_tgd(b.build());

            // 64 homs < trigger_limit = 100 + 2: saturates.
            let roomy = Budget::generous().with_max_facts(100);
            assert_eq!(roomy.trigger_limit(), 102);
            let out = engine(
                &inst,
                &constraints,
                &mut vf,
                ChaseConfig::with_budget(roomy),
            );
            assert!(out.is_saturated());
            assert_eq!(out.instance.len(), 16);

            // 64 homs >= trigger_limit = 30 + 2: explicit exhaustion.
            let tight = Budget::generous().with_max_facts(30);
            assert_eq!(tight.trigger_limit(), 32);
            let out = engine(
                &inst,
                &constraints,
                &mut vf,
                ChaseConfig::with_budget(tight),
            );
            assert_eq!(out.completion, Completion::BudgetExhausted);
        });
    }

    #[test]
    fn engines_agree_at_the_rounds_budget_edge() {
        // Regression: the semi-naive engine must not spend an extra round
        // re-examining triggers it deferred in the same round, or a
        // depth-capped run finishing exactly at `max_rounds` would come
        // back BudgetExhausted from one engine and DepthCapped from the
        // other. Cyclic IDs with depth cap 4 finish in exactly 5 rounds
        // (4 firing rounds + 1 quiescent round) on both engines.
        let (sig, r, s) = sig2();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, r, &[1], s, &[0]));
        constraints.push_tgd(inclusion_dependency(&sig, s, &[1], r, &[0]));

        let run = |engine: Engine, max_rounds: usize| {
            let mut vf = ValueFactory::new();
            let a = vf.constant("a");
            let b = vf.constant("b");
            let mut inst = Instance::new(sig.clone());
            inst.insert(r, vec![a, b]).unwrap();
            let budget = Budget::generous()
                .with_max_depth(4)
                .with_max_rounds(max_rounds);
            engine(
                &inst,
                &constraints,
                &mut vf,
                ChaseConfig::with_budget(budget),
            )
        };
        for max_rounds in [5, 6, 50] {
            let naive = run(chase_naive, max_rounds);
            let semi = run(chase, max_rounds);
            assert_eq!(naive.completion, semi.completion, "max_rounds={max_rounds}");
            assert_eq!(
                naive.stats.rounds, semi.stats.rounds,
                "max_rounds={max_rounds}"
            );
            assert_eq!(naive.completion, Completion::DepthCapped);
        }
    }

    #[test]
    fn seminaive_truncation_diverges_soundly_at_the_trigger_cap() {
        // Documented, intended divergence (see `Budget::trigger_limit`):
        // the cap applies to what each engine enumerates. Transitivity over
        // a 20-edge chain closes at 210 facts, but late naive rounds
        // re-enumerate > 1002 body homomorphisms and truncate, while the
        // semi-naive engine's delta enumeration stays under the cap and
        // saturates. The divergence is only ever in this direction.
        let (sig, r, _s) = sig2();
        let mut vf = ValueFactory::new();
        let v: Vec<_> = (0..21).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for i in 0..20 {
            inst.insert(r, vec![v[i], v[i + 1]]).unwrap();
        }
        let mut b = TgdBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body_atom(r, vec![Term::Var(x), Term::Var(y)]);
        b.body_atom(r, vec![Term::Var(y), Term::Var(z)]);
        b.head_atom(r, vec![Term::Var(x), Term::Var(z)]);
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(b.build());

        let budget = Budget::generous().with_max_facts(1000);
        let naive = chase_naive(
            &inst,
            &constraints,
            &mut vf.clone(),
            ChaseConfig::with_budget(budget),
        );
        let semi = chase(
            &inst,
            &constraints,
            &mut vf.clone(),
            ChaseConfig::with_budget(budget),
        );
        assert_eq!(naive.completion, Completion::BudgetExhausted);
        assert_eq!(semi.completion, Completion::Saturated);
        // 20 + 19 + ... + 1 = 210 facts either way: the naive run had in
        // fact finished the closure before its enumeration cap tripped.
        assert_eq!(semi.instance.relation_len(r), 210);
        assert_eq!(naive.instance.relation_len(r), 210);
    }
}
