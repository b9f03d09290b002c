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

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use rbqa_common::{Instance, RelationId, Value, ValueFactory};
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::{Fd, VarId};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::budget::Budget;
use crate::proof::ProofLog;
use crate::result::{ChaseOutcome, ChaseStats, Completion};
use crate::trigger::{assignment_get, SearchScratch, TgdKernel};

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
    traced_chase(Cow::Borrowed(instance), constraints, values, config, None)
}

/// [`chase`] of an instance the caller built only to chase it: the run
/// takes it over instead of copying it.
pub fn chase_owned(
    instance: Instance,
    constraints: &ConstraintSet,
    values: &mut ValueFactory,
    config: ChaseConfig,
) -> ChaseOutcome {
    traced_chase(Cow::Owned(instance), constraints, values, config, None)
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
    traced_chase(
        Cow::Borrowed(instance),
        constraints,
        values,
        config,
        Some(log),
    )
}

fn traced_chase(
    instance: Cow<'_, Instance>,
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
    let mut fire = FireScratch::default();
    let mut fd = FdScratch::default();
    let mut search = SearchScratch::default();

    // Apply the FDs once before any TGD round so that the input instance is
    // already consistent.
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
            if kernels[trigger.tgd_index].head_satisfied(&current, &trigger.assignment, &mut search)
            {
                continue;
            }
            match fire_trigger(
                tgd,
                trigger.tgd_index,
                &trigger.assignment,
                &tgd.existential_variables(),
                &mut current,
                &mut depths,
                &mut stats,
                values,
                budget,
                None,
                &mut fire,
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

/// Reusable buffers of [`fire_trigger`]: the tuple under construction and
/// the trigger's assignment extended with fresh nulls. One per chase run, so
/// a firing allocates only what the instance keeps.
#[derive(Debug, Default)]
pub(crate) struct FireScratch {
    tuple: Vec<Value>,
    extended: Vec<(VarId, Value)>,
}

/// Fires `tgd` (index `tgd_index`) on `assignment`, its trigger's sorted
/// `(variable, value)` body assignment: computes the derivation depth from
/// the matched body facts, draws fresh nulls for the `existentials` (the
/// TGD's [`rbqa_logic::Tgd::existential_variables`], cached by the caller)
/// and inserts every head atom. Newly inserted rows are also recorded in
/// `new_rows` when provided (the semi-naive engine's delta), and attributed
/// to this firing in `proof` when provided. The firing path materialises no
/// `Fact` and, through `scratch`, allocates nothing of its own. Shared by
/// [`chase`] and [`chase_naive`] so that depth bookkeeping and budget checks
/// cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fire_trigger(
    tgd: &rbqa_logic::Tgd,
    tgd_index: usize,
    assignment: &[(VarId, Value)],
    existentials: &[VarId],
    current: &mut Instance,
    depths: &mut DepthMap,
    stats: &mut ChaseStats,
    values: &mut ValueFactory,
    budget: Budget,
    mut new_rows: Option<&mut RowSet>,
    scratch: &mut FireScratch,
    mut proof: Option<&mut ProofLog>,
) -> FireResult {
    let FireScratch { tuple, extended } = scratch;
    // Depth of the new facts: the maximum depth among the matched body rows
    // (depth 0 when a body fact is no longer resolvable — matching the
    // previous engine's defensive `unwrap_or(0)` for FD-rewritten facts).
    let mut body_depth = 0usize;
    for atom in tgd.body() {
        let ok = atom.instantiate_into(|v| assignment_get(assignment, v), tuple);
        debug_assert!(ok, "trigger assigns every body variable");
        if let Some(row) = current.row_id(atom.relation(), tuple) {
            body_depth = body_depth.max(depths.get(atom.relation(), row));
        }
    }
    let new_depth = body_depth + 1;
    if new_depth > budget.max_depth {
        return FireResult::SkippedForDepth;
    }

    // Extend the assignment with fresh nulls for the existential variables,
    // then add every head atom.
    extended.clear();
    extended.extend_from_slice(assignment);
    for &v in existentials {
        if stats.nulls_created >= budget.max_nulls {
            return FireResult::OverBudget;
        }
        extended.push((v, values.fresh_null()));
        stats.nulls_created += 1;
    }
    extended.sort_unstable_by_key(|&(v, _)| v);
    let firing = proof
        .as_deref_mut()
        .map(|log| log.push_firing(tgd_index, assignment));
    for atom in tgd.head() {
        let ok = atom.instantiate_into(|v| assignment_get(extended, v), tuple);
        debug_assert!(ok, "all head variables are assigned");
        if current
            .insert_slice(atom.relation(), tuple)
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
    scratch: &mut FdScratch,
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
    let result = fd_fixpoint_loop(instance, fds, depths, stats, delta, scratch, &mut passes);
    rbqa_obs::counters::add_fd_fixpoint(
        passes,
        (stats.fd_unifications - unifications_before) as u64,
    );
    obs.num("passes", passes);
    result
}

/// The determiner values of one tuple under an FD, borrowed from the tuple.
/// It hashes exactly as the `Vec` of those values would, so a map keyed by
/// it lays out, and iterates, its groups as a map keyed by owned value
/// vectors does: the grouping allocates no key per tuple, and value pairs
/// reach the union-find in the same order as they would through owned keys.
#[derive(Clone, Copy)]
struct DeterminerKey<'a> {
    tuple: &'a [Value],
    positions: &'a [usize],
}

impl Hash for DeterminerKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `<[T] as Hash>::hash`: a length prefix, then every element.
        state.write_usize(self.positions.len());
        for &p in self.positions {
            self.tuple[p].hash(state);
        }
    }
}

impl PartialEq for DeterminerKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.positions.len() == other.positions.len()
            && self
                .positions
                .iter()
                .zip(other.positions)
                .all(|(&p, &q)| self.tuple[p] == other.tuple[q])
    }
}

impl Eq for DeterminerKey<'_> {}

/// Reusable buffers of the FD fixpoint's grouping: the FD's determiner
/// positions, each tuple's group, the groups' bounds, and the determined
/// values laid out group after group.
#[derive(Debug, Default)]
pub(crate) struct FdScratch {
    positions: Vec<usize>,
    group_of: Vec<u32>,
    starts: Vec<u32>,
    fill: Vec<u32>,
    grouped: Vec<Value>,
}

impl FdScratch {
    /// Groups the tuples of `fd`'s relation by their determiner values and
    /// calls `pair` on consecutive determined values of each group: groups in
    /// the grouping map's iteration order, values in tuple order.
    fn for_each_pair(
        &mut self,
        instance: &Instance,
        fd: &Fd,
        mut pair: impl FnMut(Value, Value) -> Result<(), ()>,
    ) -> Result<(), ()> {
        let FdScratch {
            positions,
            group_of,
            starts,
            fill,
            grouped,
        } = self;
        positions.clear();
        positions.extend(fd.determiners().iter().copied());
        let positions = positions.as_slice();
        // A fresh map per FD and pass: reusing one across calls would keep
        // its capacity, and with it change the iteration order.
        let mut groups: FxHashMap<DeterminerKey<'_>, u32> = FxHashMap::default();
        group_of.clear();
        for tuple in instance.tuples(fd.relation()) {
            let next = groups.len() as u32;
            let group = *groups
                .entry(DeterminerKey { tuple, positions })
                .or_insert(next);
            group_of.push(group);
        }
        // Counting sort of the determined values by group.
        starts.clear();
        starts.resize(groups.len() + 1, 0);
        for &g in group_of.iter() {
            starts[g as usize + 1] += 1;
        }
        for g in 0..groups.len() {
            starts[g + 1] += starts[g];
        }
        fill.clear();
        fill.extend_from_slice(&starts[..groups.len()]);
        grouped.clear();
        grouped.resize(
            group_of.len(),
            Value::Null(rbqa_common::NullId::from_raw(0)),
        );
        for (tuple, &g) in instance.tuples(fd.relation()).zip(group_of.iter()) {
            grouped[fill[g as usize] as usize] = tuple[fd.determined()];
            fill[g as usize] += 1;
        }
        for &g in groups.values() {
            let vals = &grouped[starts[g as usize] as usize..starts[g as usize + 1] as usize];
            for w in vals.windows(2) {
                pair(w[0], w[1])?;
            }
        }
        Ok(())
    }
}

/// The fixpoint loop of [`apply_fds_to_fixpoint`]; `passes` counts loop
/// iterations (including the final quiescent one).
fn fd_fixpoint_loop(
    instance: &mut Instance,
    fds: &[Fd],
    depths: &mut DepthMap,
    stats: &mut ChaseStats,
    mut delta: Option<&mut RowSet>,
    scratch: &mut FdScratch,
    passes: &mut u64,
) -> Result<FdRewrite, ()> {
    let mut rewrite = FdRewrite::default();
    loop {
        *passes += 1;
        let mut uf = UnionFind::new();
        let mut merged_any = false;
        for fd in fds {
            scratch.for_each_pair(instance, fd, |a, b| {
                if uf.find(a) != uf.find(b) && uf.union(a, b)? {
                    merged_any = true;
                    stats.fd_unifications += 1;
                }
                Ok(())
            })?;
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
    fn determiner_keys_group_in_the_order_of_owned_keys() {
        // The FD fixpoint feeds value pairs to the union-find in the
        // grouping map's iteration order: the borrowed keys must reproduce
        // the order of a map keyed by owned determiner vectors.
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 3).unwrap();
        let mut vf = ValueFactory::new();
        let mut vals: Vec<Value> = (0..5).map(|i| vf.constant(&format!("c{i}"))).collect();
        vals.extend((0..5).map(|_| vf.fresh_null()));
        let mut inst = Instance::new(sig);
        let mut state = 7u64;
        for _ in 0..300 {
            let tuple: Vec<Value> = (0..3)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    vals[(state >> 33) as usize % vals.len()]
                })
                .collect();
            inst.insert(r, tuple).unwrap();
        }
        for fd in [Fd::new(r, vec![0, 2], 1), Fd::new(r, vec![1], 0)] {
            let mut owned: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
            for tuple in inst.tuples(r) {
                let key: Vec<Value> = fd.determiners().iter().map(|&p| tuple[p]).collect();
                owned.entry(key).or_default().push(tuple[fd.determined()]);
            }
            let expected: Vec<(Value, Value)> = owned
                .values()
                .flat_map(|vals| vals.windows(2).map(|w| (w[0], w[1])))
                .collect();
            let mut got = Vec::new();
            FdScratch::default()
                .for_each_pair(&inst, &fd, |a, b| {
                    got.push((a, b));
                    Ok(())
                })
                .unwrap();
            assert!(!expected.is_empty());
            assert_eq!(got, expected);
        }
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
