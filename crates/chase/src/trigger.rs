//! Trigger enumeration for TGDs.
//!
//! A *trigger* for a TGD `δ` in an instance `I` is a homomorphism from the
//! body of `δ` into `I`; the trigger is *active* when it cannot be extended
//! to a homomorphism from the head into `I` (paper, Section 2). Firing a
//! dependency on an active trigger adds head facts with fresh nulls for the
//! existentially quantified variables.
//!
//! A trigger assignment is a list of `(variable, value)` pairs sorted by
//! variable ([`TriggerAssignment`]), read with a branch-free binary search
//! and produced directly from the kernel's dense
//! [`rbqa_logic::homomorphism::Binding`]. The semi-naive engine keeps a
//! round's candidate triggers, its deferred triggers and a proof's firings
//! as slices of flat arenas (`TriggerArena`): one buffer per round, not
//! one allocation per trigger. The activeness check runs on a reusable
//! [`SearchScratch`], so checking a trigger allocates nothing either.

use rbqa_common::{Instance, Value};
use rbqa_logic::homomorphism::{MatchProgram, MatchScratch};
use rbqa_logic::{Tgd, VarId};

/// A body-variable assignment as `(variable, value)` pairs sorted by
/// variable — the chase's flat trigger representation.
pub type TriggerAssignment = Vec<(VarId, Value)>;

/// The value assigned to `var` by a sorted assignment, if any.
#[inline]
pub fn assignment_get(assignment: &[(VarId, Value)], var: VarId) -> Option<Value> {
    assignment
        .binary_search_by_key(&var, |&(v, _)| v)
        .ok()
        .map(|i| assignment[i].1)
}

/// A trigger: the assignment of the TGD's body variables to instance values.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Index of the dependency in the caller's TGD list.
    pub tgd_index: usize,
    /// The body homomorphism, sorted by variable.
    pub assignment: TriggerAssignment,
}

/// Trigger assignments back to back in one flat buffer, each tagged with its
/// TGD index: a list of triggers that costs a few buffers, however many
/// triggers it holds, and keeps their capacity across
/// [`TriggerArena::clear`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct TriggerArena {
    pairs: Vec<(VarId, Value)>,
    /// Per trigger: its TGD index and the end of its assignment in `pairs`
    /// (the start is the previous trigger's end).
    ends: Vec<(u32, u32)>,
}

impl TriggerArena {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Trigger `index`: its TGD index and sorted assignment.
    pub(crate) fn get(&self, index: usize) -> (usize, &[(VarId, Value)]) {
        let (tgd, end) = self.ends[index];
        let start = match index {
            0 => 0,
            _ => self.ends[index - 1].1 as usize,
        };
        (tgd as usize, &self.pairs[start..end as usize])
    }

    /// Appends a trigger of TGD `tgd_index` (the pairs must come sorted by
    /// variable) and returns its index.
    pub(crate) fn push(
        &mut self,
        tgd_index: usize,
        assignment: impl IntoIterator<Item = (VarId, Value)>,
    ) -> u32 {
        self.pairs.extend(assignment);
        let index = u32::try_from(self.ends.len()).expect("trigger count fits in u32");
        let end = u32::try_from(self.pairs.len()).expect("trigger arena fits in u32");
        self.ends.push((
            u32::try_from(tgd_index).expect("TGD index fits in u32"),
            end,
        ));
        index
    }

    /// Removes the newest trigger.
    pub(crate) fn pop(&mut self) {
        self.ends.pop();
        let end = self.ends.last().map_or(0, |&(_, end)| end as usize);
        self.pairs.truncate(end);
    }

    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
        self.ends.clear();
    }

    /// Every assigned value, for rewriting in place.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.pairs.iter_mut().map(|(_, value)| value)
    }
}

/// Reusable buffers of trigger searches and activeness checks: the kernel's
/// [`MatchScratch`] and a seed-pair buffer. One per chase run.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) matcher: MatchScratch,
    pub(crate) seed: Vec<(VarId, Value)>,
}

/// The cached restricted-chase activeness check of one TGD: the compiled
/// head program seeded with the exported (frontier) variables. Shared by
/// both engines' per-TGD caches ([`TgdKernel`] for the naive engine, the
/// semi-naive engine's plans) so the check cannot drift between them.
#[derive(Debug)]
pub struct HeadCheck {
    head: MatchProgram,
}

impl HeadCheck {
    /// Compiles the head program of `tgd`, seeded with its exported
    /// variables.
    pub fn new(tgd: &Tgd) -> Self {
        HeadCheck {
            head: MatchProgram::compile_atoms(tgd.head(), &tgd.exported_variables()),
        }
    }

    /// Whether the full body `assignment` extends to a head match in
    /// `instance` (the trigger is then inactive). The assignment must bind
    /// every exported variable — which any body homomorphism does.
    pub fn satisfied(
        &self,
        instance: &Instance,
        assignment: &[(VarId, Value)],
        scratch: &mut SearchScratch,
    ) -> bool {
        let SearchScratch { matcher, seed } = scratch;
        seed.clear();
        seed.extend(
            self.head
                .seed_vars()
                .iter()
                .filter_map(|&v| assignment_get(assignment, v).map(|val| (v, val))),
        );
        self.head.exists_in(instance, seed, matcher)
    }
}

/// Per-TGD compiled match programs, built once per chase run and reused
/// across rounds: the body program enumerates triggers, the [`HeadCheck`]
/// answers the restricted-chase activeness check. Compiling once amortises
/// the atom ordering and variable-pool handling that the one-shot entry
/// points redo per call.
#[derive(Debug)]
pub struct TgdKernel {
    body: MatchProgram,
    head: HeadCheck,
}

impl TgdKernel {
    /// Compiles the body and head programs of `tgd`.
    pub fn new(tgd: &Tgd) -> Self {
        TgdKernel {
            body: MatchProgram::compile_atoms(tgd.body(), &[]),
            head: HeadCheck::new(tgd),
        }
    }

    /// Whether the full body `assignment` extends to a head match in
    /// `instance` (the trigger is then inactive). See [`HeadCheck`].
    pub fn head_satisfied(
        &self,
        instance: &Instance,
        assignment: &[(VarId, Value)],
        scratch: &mut SearchScratch,
    ) -> bool {
        self.head.satisfied(instance, assignment, scratch)
    }

    /// Enumerates the active triggers of this TGD (identified by
    /// `tgd_index`) in `instance`. At most `limit` body homomorphisms are
    /// enumerated; the second component reports truncation (the chase
    /// engine then treats the run as budget-exhausted rather than
    /// saturated). Rules with many body atoms over large instances can have
    /// exponentially many triggers, so an explicit cap is required to keep
    /// the engine responsive on adversarial inputs.
    pub fn active_triggers(
        &self,
        tgd_index: usize,
        instance: &Instance,
        limit: usize,
    ) -> (Vec<Trigger>, bool) {
        let mut scratch = SearchScratch::default();
        let mut assignments: Vec<TriggerAssignment> = Vec::new();
        if limit > 0 {
            self.body
                .for_each_in(instance, &[], &mut scratch.matcher, |binding| {
                    assignments.push(binding.iter_bound().collect());
                    assignments.len() < limit
                });
        }
        let truncated = assignments.len() >= limit;
        let triggers = assignments
            .into_iter()
            .filter(|assignment| !self.head_satisfied(instance, assignment, &mut scratch))
            .map(|assignment| Trigger {
                tgd_index,
                assignment,
            })
            .collect();
        (triggers, truncated)
    }
}

/// Whether a body assignment can be extended to the head of `tgd` inside
/// `instance` (i.e. whether the trigger is *inactive*). One-shot
/// compatibility wrapper over [`HeadCheck`] (only the head program is
/// compiled); engines cache a [`TgdKernel`] per TGD instead.
pub fn head_satisfied(tgd: &Tgd, instance: &Instance, assignment: &[(VarId, Value)]) -> bool {
    HeadCheck::new(tgd).satisfied(instance, assignment, &mut SearchScratch::default())
}

/// Enumerates the *active* triggers of `tgd` (identified by `tgd_index`) in
/// `instance`. One-shot compatibility wrapper over
/// [`TgdKernel::active_triggers`].
pub fn active_triggers(
    tgd: &Tgd,
    tgd_index: usize,
    instance: &Instance,
    limit: usize,
) -> (Vec<Trigger>, bool) {
    TgdKernel::new(tgd).active_triggers(tgd_index, instance, limit)
}

/// The instance facts matched by the body of `tgd` under `assignment`
/// (used by tests and diagnostics to inspect a trigger; the engine computes
/// derivation depths without materialising facts).
pub fn matched_body_facts(
    tgd: &Tgd,
    assignment: &[(VarId, Value)],
) -> Vec<(rbqa_common::RelationId, Vec<Value>)> {
    tgd.body()
        .iter()
        .map(|atom| {
            let tuple = atom
                .instantiate_with(|v| assignment_get(assignment, v))
                .expect("trigger assigns every body variable");
            (atom.relation(), tuple)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::{Signature, ValueFactory};
    use rbqa_logic::constraints::tgd::inclusion_dependency;

    fn setup() -> (Signature, rbqa_common::RelationId, rbqa_common::RelationId) {
        let mut sig = Signature::new();
        let r = sig.add_relation("R", 2).unwrap();
        let s = sig.add_relation("S", 2).unwrap();
        (sig, r, s)
    }

    #[test]
    fn active_trigger_found_when_head_missing() {
        let (sig, r, s) = setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, b]).unwrap();
        // R(x, y) -> ∃z S(y, z)
        let tgd = inclusion_dependency(&sig, r, &[1], s, &[0]);
        let (triggers, truncated) = active_triggers(&tgd, 0, &inst, usize::MAX);
        assert!(!truncated);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].tgd_index, 0);
        let matched = matched_body_facts(&tgd, &triggers[0].assignment);
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].0, r);
    }

    #[test]
    fn trigger_inactive_when_head_witness_exists() {
        let (sig, r, s) = setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let c = vf.constant("c");
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, b]).unwrap();
        inst.insert(s, vec![b, c]).unwrap();
        let tgd = inclusion_dependency(&sig, r, &[1], s, &[0]);
        assert!(active_triggers(&tgd, 0, &inst, usize::MAX).0.is_empty());
    }

    #[test]
    fn multiple_triggers_for_multiple_matches() {
        let (sig, r, s) = setup();
        let mut vf = ValueFactory::new();
        let vals: Vec<_> = (0..3).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for &v in &vals {
            inst.insert(r, vec![v, v]).unwrap();
        }
        let tgd = inclusion_dependency(&sig, r, &[0], s, &[0]);
        assert_eq!(active_triggers(&tgd, 7, &inst, usize::MAX).0.len(), 3);
        // A limit of 2 truncates the enumeration and reports it.
        let (triggers, truncated) = active_triggers(&tgd, 7, &inst, 2);
        assert_eq!(triggers.len(), 2);
        assert!(truncated);
    }

    #[test]
    fn tgd_kernel_agrees_with_one_shot_helpers() {
        let (sig, r, s) = setup();
        let mut vf = ValueFactory::new();
        let vals: Vec<_> = (0..4).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for &v in &vals {
            inst.insert(r, vec![v, v]).unwrap();
        }
        inst.insert(s, vec![vals[0], vals[1]]).unwrap(); // witness for v0 only
        let tgd = inclusion_dependency(&sig, r, &[0], s, &[0]);
        let kernel = TgdKernel::new(&tgd);
        let (fast, fast_trunc) = kernel.active_triggers(3, &inst, usize::MAX);
        let (slow, slow_trunc) = active_triggers(&tgd, 3, &inst, usize::MAX);
        assert_eq!(fast_trunc, slow_trunc);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.len(), 3); // v1..v3 are active; v0 is head-satisfied
        for trigger in &fast {
            assert_eq!(trigger.tgd_index, 3);
            assert_eq!(
                kernel.head_satisfied(&inst, &trigger.assignment, &mut SearchScratch::default()),
                head_satisfied(&tgd, &inst, &trigger.assignment)
            );
        }
    }

    #[test]
    fn head_satisfied_respects_exported_values() {
        let (sig, r, s) = setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(r, vec![a, b]).unwrap();
        inst.insert(s, vec![a, a]).unwrap(); // witness for a, not for b
        let tgd = inclusion_dependency(&sig, r, &[1], s, &[0]);
        // The only trigger maps the exported variable to b, and S has no
        // fact with b in position 0, so the trigger is active.
        assert_eq!(active_triggers(&tgd, 0, &inst, usize::MAX).0.len(), 1);
    }

    #[test]
    fn arena_triggers_round_trip_and_pop() {
        let mut vf = ValueFactory::new();
        let (a, b) = (vf.constant("a"), vf.constant("b"));
        let (x, y) = (VarId::from_index(0), VarId::from_index(1));
        let mut arena = TriggerArena::default();
        assert_eq!(arena.push(3, [(x, a)]), 0);
        assert_eq!(arena.push(5, [(x, b), (y, a)]), 1);
        assert_eq!(arena.get(0), (3, &[(x, a)][..]));
        assert_eq!(arena.get(1), (5, &[(x, b), (y, a)][..]));
        arena.pop();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.push(7, []), 1);
        assert_eq!(arena.get(1), (7, &[][..]));
        for value in arena.values_mut() {
            *value = b;
        }
        assert_eq!(arena.get(0), (3, &[(x, b)][..]));
        arena.clear();
        assert!(arena.is_empty());
    }

    #[test]
    fn assignment_lookup_by_binary_search() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let (x, y, z) = (
            VarId::from_index(0),
            VarId::from_index(4),
            VarId::from_index(9),
        );
        let assignment: TriggerAssignment = vec![(x, a), (y, b)];
        assert_eq!(assignment_get(&assignment, x), Some(a));
        assert_eq!(assignment_get(&assignment, y), Some(b));
        assert_eq!(assignment_get(&assignment, z), None);
    }
}
