//! Homomorphisms from conjunctive queries into instances.
//!
//! A Boolean CQ `Q` holds in an instance `I` exactly when there is a
//! homomorphism from `Q` to `I`: a mapping of the variables of `Q` to values
//! of `I` (identity on constants) sending every atom of `Q` to a fact of `I`
//! (paper, Section 2). This module is the matching kernel every decision
//! procedure of the workspace bottoms out in — chase trigger enumeration,
//! AMonDet containment, query evaluation and plan validation.
//!
//! Two implementations share one semantics:
//!
//! * **The compiled kernel** (default). A CQ body is compiled once into a
//!   [`MatchProgram`]: an atom order fixed up front (most-constrained-first
//!   with bound-variable lookahead), with every position classified at
//!   compile time as a constant probe, a bound-variable probe, a
//!   first-occurrence bind or a repeated-variable check. Execution walks the
//!   program with a dense [`Binding`] (a flat slot per variable, undo-stack
//!   backtracking — no hash maps, no per-step clones), probing the flat
//!   posting-list storage of [`Instance`] (`matching_rows_into`,
//!   `first_matching_row`); fully-bound atoms degrade to a single O(1)
//!   membership test. Programs are cached per TGD by the chase engines (see
//!   `rbqa-chase`), and compiled on the fly by the one-shot entry points
//!   below. A run's binding, probe, tuple and per-step row buffers live in
//!   a caller-owned [`MatchScratch`], so a caller that runs many programs
//!   allocates them once.
//! * **The [`mod@reference`] kernel**. The original backtracking join, kept as
//!   the executable specification: the differential property test in
//!   `tests/hom_kernel_differential.rs` pins the compiled kernel against it
//!   on random queries and instances, and the `hom_report` benchmark
//!   binary uses it as the speedup baseline via [`set_kernel_mode`].
//!
//! The free functions ([`find_homomorphism`], [`holds`],
//! [`all_homomorphisms`], [`all_homomorphisms_seeded`]) are the stable
//! compatibility surface: same signatures as before the kernel rewrite,
//! dispatching on the process-wide [`KernelMode`].

use std::sync::atomic::{AtomicU8, Ordering};

use rbqa_common::{Instance, RelationId, Value};
use rustc_hash::FxHashMap;

use crate::atom::Atom;
use crate::cq::ConjunctiveQuery;
use crate::term::{Term, VarId};

/// A variable assignment witnessing a homomorphism.
pub type Homomorphism = FxHashMap<VarId, Value>;

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

/// Which matching kernel the free functions and [`MatchProgram`] execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The compiled match-program kernel over flat storage (default).
    #[default]
    Compiled,
    /// The retained reference backtracking search — the baseline
    /// implementation used by differential tests and benchmark baselines.
    Reference,
}

impl KernelMode {
    /// Stable lowercase name, used in benchmark reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Compiled => "compiled",
            KernelMode::Reference => "reference",
        }
    }
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the process-wide matching kernel. Intended for benchmark
/// harnesses and differential tests that need the [`KernelMode::Reference`]
/// baseline; production code leaves the default in place.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The currently selected matching kernel.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        0 => KernelMode::Compiled,
        _ => KernelMode::Reference,
    }
}

// ---------------------------------------------------------------------------
// Dense bindings
// ---------------------------------------------------------------------------

/// A dense variable assignment: one slot per [`VarId`], with an undo trail
/// for backtracking. Replaces the hash-map `Homomorphism` inside the search
/// (zero clones and zero hashing per search step); convert with
/// [`Binding::to_homomorphism`] at the boundary.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    slots: Vec<Option<Value>>,
    trail: Vec<VarId>,
}

impl Binding {
    /// A binding with `slots` unbound variable slots.
    pub fn new(slots: usize) -> Self {
        Binding {
            slots: vec![None; slots],
            trail: Vec::new(),
        }
    }

    /// The value bound to `var`, if any.
    #[inline]
    pub fn get(&self, var: VarId) -> Option<Value> {
        self.slots.get(var.index()).copied().flatten()
    }

    /// Binds `var` to `value`, recording the assignment on the undo trail.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `var` is already bound — rebinding
    /// without undoing first would corrupt the trail.
    #[inline]
    pub fn bind(&mut self, var: VarId, value: Value) {
        debug_assert!(self.slots[var.index()].is_none(), "rebinding {var:?}");
        self.slots[var.index()] = Some(value);
        self.trail.push(var);
    }

    /// A checkpoint of the current trail position.
    #[inline]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbinds every variable bound after `mark` (stack discipline).
    #[inline]
    pub fn undo_to(&mut self, mark: usize) {
        for var in self.trail.drain(mark..) {
            self.slots[var.index()] = None;
        }
    }

    /// Number of currently bound variables.
    pub fn bound_count(&self) -> usize {
        self.trail.len()
    }

    /// Iterates over the bound `(variable, value)` pairs in slot order.
    pub fn iter_bound(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|val| (VarId::from_index(i), val)))
    }

    /// Converts to the hash-map representation used at API boundaries.
    pub fn to_homomorphism(&self) -> Homomorphism {
        self.iter_bound().collect()
    }

    /// Makes room for `slots` variables; the binding must be empty.
    fn reserve_slots(&mut self, slots: usize) {
        debug_assert!(
            self.trail.is_empty(),
            "reusing a binding that is still bound"
        );
        if self.slots.len() < slots {
            self.slots.resize(slots, None);
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled match programs
// ---------------------------------------------------------------------------

/// One compiled body atom: positions classified against the variables known
/// to be bound when the step runs. The operations live in the program's flat
/// `consts` and `vars` arrays; a step holds the bounds of its sections.
#[derive(Debug, Clone)]
struct Step {
    relation: RelationId,
    /// Index of the atom in the source list (the reference kernel rebuilds
    /// the atoms in source order).
    source: u32,
    /// `consts[consts_lo..consts_hi]`: `(position, constant)` probe pairs,
    /// resolved at compile time.
    consts_lo: u32,
    consts_hi: u32,
    /// `vars[probes_lo..binds_lo]`: `(position, variable)` pairs whose
    /// variable is bound before this step (probe values read from the
    /// binding at run time); `vars[binds_lo..checks_lo]`: first occurrences
    /// of unbound variables, bound from the matched row;
    /// `vars[checks_lo..checks_hi]`: repeated occurrences within this atom,
    /// checked against the value just bound.
    probes_lo: u32,
    binds_lo: u32,
    checks_lo: u32,
    checks_hi: u32,
}

impl Step {
    /// Whether the probe determines the whole tuple (no binds, no checks):
    /// the step degrades to a single membership test.
    fn is_full_probe(&self) -> bool {
        self.binds_lo == self.checks_hi
    }

    /// Whether no repeated variable of the atom needs checking.
    fn has_no_checks(&self) -> bool {
        self.checks_lo == self.checks_hi
    }
}

/// A CQ body compiled for repeated matching against instances: atom order
/// and per-position operations fixed at compile time, relative to a declared
/// set of seed variables (the variables the caller binds before running).
///
/// Compile once, run many times — the chase engines cache one program per
/// TGD body/head (see `rbqa-chase`); the free functions of this module
/// compile throwaway programs for one-shot queries. A program is three flat
/// arrays (steps, constant probes, variable operations) plus its seed list,
/// so compiling one costs a handful of allocations whatever its size.
///
/// Every run goes through one path, [`MatchProgram::for_each_in`] /
/// [`MatchProgram::exists_in`], on a caller-owned [`MatchScratch`]; a caller
/// that runs many programs (the chase) keeps one scratch and allocates
/// nothing per run. The scratch-free entry points are thin wrappers that
/// bring a fresh scratch.
///
/// ```
/// use rbqa_common::{Instance, Signature, ValueFactory};
/// use rbqa_logic::homomorphism::MatchProgram;
/// use rbqa_logic::CqBuilder;
/// let mut sig = Signature::new();
/// let e = sig.add_relation("E", 2).unwrap();
/// let mut vf = ValueFactory::new();
/// let (a, b) = (vf.constant("a"), vf.constant("b"));
/// let mut inst = Instance::new(sig);
/// inst.insert(e, vec![a, b]).unwrap();
/// let mut builder = CqBuilder::new();
/// let (x, y) = (builder.var("x"), builder.var("y"));
/// let q = builder.atom(e, vec![x.into(), y.into()]).build();
/// let program = MatchProgram::compile(&q, &[]);
/// assert!(program.exists(&inst, &[]));
/// // A program declares its seed variables at compile time.
/// let seeded = MatchProgram::compile(&q, &[x]);
/// assert_eq!(seeded.find(&inst, &[(x, b)]), None); // b has no outgoing edge
/// assert!(seeded.find(&inst, &[(x, a)]).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MatchProgram {
    /// Compiled steps in execution order.
    steps: Vec<Step>,
    /// Constant probe pairs of every step, step after step.
    consts: Vec<(usize, Value)>,
    /// Variable operations of every step, step after step (see [`Step`]).
    vars: Vec<(usize, VarId)>,
    /// Variables the caller must bind before running (sorted).
    seed_vars: Vec<VarId>,
    /// Dense slot count covering every variable of atoms and seed.
    slots: usize,
}

/// Reusable run-time buffers of [`MatchProgram`]: the dense binding and its
/// undo trail, the probe and tuple buffers and one row-id buffer per program
/// depth. A run leaves the binding empty, so one scratch serves any number of
/// runs of any programs; its buffers only grow.
#[derive(Debug, Default)]
pub struct MatchScratch {
    binding: Binding,
    probe: Vec<(usize, Value)>,
    tuple: Vec<Value>,
    rows: Vec<Vec<u32>>,
}

impl MatchScratch {
    /// An empty scratch (allocates nothing until its first run).
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchProgram {
    /// Compiles the body of `query`, assuming the variables in `seed_vars`
    /// are bound by the caller before execution.
    pub fn compile(query: &ConjunctiveQuery, seed_vars: &[VarId]) -> MatchProgram {
        Self::compile_from(
            query.atoms(),
            None,
            seed_vars.iter().copied(),
            query.vars().len(),
        )
    }

    /// Compiles a bare atom list (used by the chase, whose TGD bodies and
    /// heads share one variable pool without being full queries).
    pub fn compile_atoms(atoms: &[Atom], seed_vars: &[VarId]) -> MatchProgram {
        Self::compile_from(atoms, None, seed_vars.iter().copied(), 0)
    }

    /// Compiles `atoms` without `atoms[skip]`, seeded with the variables of
    /// `atoms[skip]`: the delta-driven shape, where a new fact unified with
    /// one atom pins its variables and the program joins the other atoms.
    pub fn compile_atoms_except(atoms: &[Atom], skip: usize) -> MatchProgram {
        let seed = atoms[skip].args().iter().filter_map(|t| t.as_var());
        Self::compile_from(atoms, Some(skip), seed, 0)
    }

    fn compile_from(
        atoms: &[Atom],
        skip: Option<usize>,
        seed: impl Iterator<Item = VarId> + Clone,
        min_slots: usize,
    ) -> MatchProgram {
        let included = |i: usize| Some(i) != skip;
        let mut slots = min_slots;
        for (_, atom) in atoms.iter().enumerate().filter(|(i, _)| included(*i)) {
            for v in atom.args().iter().filter_map(|t| t.as_var()) {
                slots = slots.max(v.index() + 1);
            }
        }
        for v in seed.clone() {
            slots = slots.max(v.index() + 1);
        }
        let mut seed_vars: Vec<VarId> = seed.clone().collect();
        seed_vars.sort_unstable();
        seed_vars.dedup();
        let step_count = atoms.len() - usize::from(skip.is_some());
        let mut program = MatchProgram {
            steps: Vec::with_capacity(step_count),
            consts: Vec::new(),
            vars: Vec::new(),
            seed_vars,
            slots,
        };
        if step_count == 0 {
            return program;
        }

        // One flag buffer: which variables are bound, then which atoms are
        // placed.
        let mut flags = vec![false; slots + atoms.len()];
        let (bound, placed) = flags.split_at_mut(slots);
        for v in seed {
            bound[v.index()] = true;
        }
        if let Some(skip) = skip {
            placed[skip] = true;
        }
        // Positions of `atom` determined when `bound` holds, and also the
        // variables of `with` when given (the lookahead).
        let determined = |atom: &Atom, bound: &[bool], with: Option<&Atom>| {
            atom.args()
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound[v.index()] || with.is_some_and(|w| w.args().contains(t)),
                })
                .count()
        };

        for _ in 0..step_count {
            // Most-constrained-first ordering with bound-variable lookahead:
            // pick the atom with the most probe-able positions; break ties by
            // how many positions of the *other* remaining atoms become bound
            // once this atom's variables are, then by original index (for
            // determinism).
            let mut best: Option<(usize, (usize, usize))> = None;
            for (ai, atom) in atoms.iter().enumerate() {
                if placed[ai] {
                    continue;
                }
                let score = determined(atom, bound, None);
                let lookahead: usize = atoms
                    .iter()
                    .enumerate()
                    .filter(|&(other, _)| other != ai && !placed[other])
                    .map(|(_, other)| determined(other, bound, Some(atom)))
                    .sum();
                if best.is_none_or(|(_, key)| (score, lookahead) > key) {
                    best = Some((ai, (score, lookahead)));
                }
            }
            let (ai, _) = best.expect("an unplaced atom remains");
            placed[ai] = true;

            // Classify every position of the atom against the variables
            // bound before it, section by section.
            let atom = &atoms[ai];
            let args = atom.args();
            let first_in_atom = |pos: usize, v: VarId| !args[..pos].contains(&Term::Var(v));
            let consts_lo = program.consts.len() as u32;
            for (pos, term) in args.iter().enumerate() {
                if let Term::Const(c) = term {
                    program.consts.push((pos, *c));
                }
            }
            let consts_hi = program.consts.len() as u32;
            let probes_lo = program.vars.len() as u32;
            let unbound = |t: &Term| t.as_var().filter(|v| !bound[v.index()]);
            for (pos, term) in args.iter().enumerate() {
                if let Term::Var(v) = term {
                    if bound[v.index()] {
                        program.vars.push((pos, *v));
                    }
                }
            }
            let binds_lo = program.vars.len() as u32;
            for (pos, term) in args.iter().enumerate() {
                if let Some(v) = unbound(term).filter(|&v| first_in_atom(pos, v)) {
                    program.vars.push((pos, v));
                }
            }
            let checks_lo = program.vars.len() as u32;
            for (pos, term) in args.iter().enumerate() {
                if let Some(v) = unbound(term).filter(|&v| !first_in_atom(pos, v)) {
                    program.vars.push((pos, v));
                }
            }
            let checks_hi = program.vars.len() as u32;
            for v in args.iter().filter_map(|t| t.as_var()) {
                bound[v.index()] = true;
            }
            program.steps.push(Step {
                relation: atom.relation(),
                source: ai as u32,
                consts_lo,
                consts_hi,
                probes_lo,
                binds_lo,
                checks_lo,
                checks_hi,
            });
        }
        program
    }

    /// The declared seed variables (sorted).
    pub fn seed_vars(&self) -> &[VarId] {
        &self.seed_vars
    }

    /// Number of dense variable slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn step_consts(&self, step: &Step) -> &[(usize, Value)] {
        &self.consts[step.consts_lo as usize..step.consts_hi as usize]
    }

    fn step_vars(&self, lo: u32, hi: u32) -> &[(usize, VarId)] {
        &self.vars[lo as usize..hi as usize]
    }

    /// Runs the program, calling `visit` for every homomorphism extending
    /// `seed`; `visit` returns `false` to stop the enumeration. The seed
    /// must bind exactly the variables declared at compile time.
    pub fn for_each<F: FnMut(&Binding) -> bool>(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        mut visit: F,
    ) {
        self.run(instance, seed, false, &mut MatchScratch::new(), &mut visit);
    }

    /// [`MatchProgram::for_each`] on a caller-owned scratch: a run allocates
    /// nothing once the scratch has grown to the program's size.
    pub fn for_each_in<F: FnMut(&Binding) -> bool>(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        scratch: &mut MatchScratch,
        mut visit: F,
    ) {
        self.run(instance, seed, false, scratch, &mut visit);
    }

    fn run<F: FnMut(&Binding) -> bool>(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        first_only: bool,
        scratch: &mut MatchScratch,
        visit: &mut F,
    ) {
        if kernel_mode() == KernelMode::Reference {
            self.for_each_reference(instance, seed, visit);
            return;
        }
        debug_assert!(
            seed.iter()
                .all(|(v, _)| self.seed_vars.binary_search(v).is_ok())
                && self
                    .seed_vars
                    .iter()
                    .all(|v| seed.iter().any(|(s, _)| s == v)),
            "seed variables differ from the compile-time declaration"
        );
        let MatchScratch {
            binding,
            probe,
            tuple,
            rows,
        } = scratch;
        binding.reserve_slots(self.slots);
        for &(var, value) in seed {
            binding.bind(var, value);
        }
        if rows.len() < self.steps.len() {
            rows.resize_with(self.steps.len(), Vec::new);
        }
        let mut ctx = ExecContext {
            instance,
            probe,
            tuple,
            rows,
            first_only,
            probes: 0,
            backtracks: 0,
        };
        self.exec(0, binding, &mut ctx, visit);
        binding.undo_to(0);
        // Profiling counts are batched in the context (register
        // increments) and flushed once per run, so the kernel's hot loop
        // never pays even the tracing-disabled branch.
        rbqa_obs::counters::flush_kernel(ctx.probes, ctx.backtracks);
    }

    /// The first homomorphism extending `seed`, if any, in hash-map form.
    pub fn find(&self, instance: &Instance, seed: &[(VarId, Value)]) -> Option<Homomorphism> {
        let mut found = None;
        self.for_each(instance, seed, |binding| {
            found = Some(binding.to_homomorphism());
            false
        });
        found
    }

    /// Whether any homomorphism extends `seed` (early-exit existence mode:
    /// a final check-free step resolves through
    /// [`Instance::first_matching_row`] instead of materialising its
    /// candidate rows, so the visited binding may leave that step's
    /// variables unbound — irrelevant for existence).
    pub fn exists(&self, instance: &Instance, seed: &[(VarId, Value)]) -> bool {
        self.exists_in(instance, seed, &mut MatchScratch::new())
    }

    /// [`MatchProgram::exists`] on a caller-owned scratch.
    pub fn exists_in(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        scratch: &mut MatchScratch,
    ) -> bool {
        let mut found = false;
        self.run(instance, seed, true, scratch, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Collects up to `limit` homomorphisms extending `seed`.
    pub fn collect(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        limit: usize,
    ) -> Vec<Homomorphism> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        self.for_each(instance, seed, |binding| {
            out.push(binding.to_homomorphism());
            out.len() < limit
        });
        out
    }

    fn exec<F: FnMut(&Binding) -> bool>(
        &self,
        depth: usize,
        binding: &mut Binding,
        ctx: &mut ExecContext<'_>,
        visit: &mut F,
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return visit(binding);
        };

        // Assemble the probe: compile-time constants plus bound-variable
        // values read from the binding.
        ctx.probe.clear();
        ctx.probe.extend_from_slice(self.step_consts(step));
        for &(pos, var) in self.step_vars(step.probes_lo, step.binds_lo) {
            let value = binding.get(var).expect("probe variable is bound");
            ctx.probe.push((pos, value));
        }

        if step.is_full_probe() {
            // Every position determined: one O(1) membership test instead
            // of a posting-list scan.
            ctx.tuple.clear();
            ctx.tuple.resize(
                ctx.probe.len(),
                Value::Null(rbqa_common::NullId::from_raw(0)),
            );
            for &(pos, value) in ctx.probe.iter() {
                ctx.tuple[pos] = value;
            }
            ctx.probes += 1;
            if ctx.instance.contains(step.relation, ctx.tuple) {
                return self.exec(depth + 1, binding, ctx, visit);
            }
            return true;
        }

        // Existence mode, final step, no equality checks pending: any row
        // matching the probe completes a match, so the early-exit
        // intersection suffices and no candidate rows are materialised
        // (the step's bind variables are left unbound — the visitor only
        // records that a match exists).
        if ctx.first_only && depth + 1 == self.steps.len() && step.has_no_checks() {
            ctx.probes += 1;
            if ctx
                .instance
                .first_matching_row(step.relation, ctx.probe)
                .is_some()
            {
                return visit(binding);
            }
            return true;
        }

        // Enumerate candidate rows via sorted-posting-list intersection,
        // then bind/check the undetermined positions per row.
        let mut rows = std::mem::take(&mut ctx.rows[depth]);
        rows.clear();
        ctx.probes += 1;
        ctx.instance
            .matching_rows_into(step.relation, ctx.probe, &mut rows);
        let binds = self.step_vars(step.binds_lo, step.checks_lo);
        let checks = self.step_vars(step.checks_lo, step.checks_hi);
        let mut keep_going = true;
        for &row in &rows {
            let tuple = ctx.instance.row(step.relation, row);
            let mark = binding.mark();
            let mut ok = true;
            for &(pos, var) in binds {
                match binding.get(var) {
                    None => binding.bind(var, tuple[pos]),
                    // Defensive: tolerate a caller that over-seeds.
                    Some(v) if v == tuple[pos] => {}
                    Some(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for &(pos, var) in checks {
                    if binding.get(var) != Some(tuple[pos]) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                keep_going = self.exec(depth + 1, binding, ctx, visit);
            }
            binding.undo_to(mark);
            ctx.backtracks += 1;
            if !keep_going {
                break;
            }
        }
        ctx.rows[depth] = rows;
        keep_going
    }

    /// The source atoms, rebuilt from the steps in source order: the
    /// reference kernel's input.
    fn source_atoms(&self) -> Vec<Atom> {
        let mut steps: Vec<&Step> = self.steps.iter().collect();
        steps.sort_unstable_by_key(|s| s.source);
        steps
            .into_iter()
            .map(|step| {
                let ops = self.step_vars(step.probes_lo, step.checks_hi);
                let mut args = vec![None; self.step_consts(step).len() + ops.len()];
                for &(pos, c) in self.step_consts(step) {
                    args[pos] = Some(Term::Const(c));
                }
                for &(pos, v) in ops {
                    args[pos] = Some(Term::Var(v));
                }
                let args = args
                    .into_iter()
                    .map(|t| t.expect("every position compiled"));
                Atom::new(step.relation, args.collect())
            })
            .collect()
    }

    /// Reference-mode execution: delegate to the retained baseline search
    /// over the source atoms, then re-present each result as a [`Binding`].
    fn for_each_reference<F: FnMut(&Binding) -> bool>(
        &self,
        instance: &Instance,
        seed: &[(VarId, Value)],
        visit: &mut F,
    ) {
        let seed_map: Homomorphism = seed.iter().copied().collect();
        let mut slots = self.slots;
        let mut keep_going = true;
        reference::search_atoms(
            &self.source_atoms(),
            instance,
            seed_map,
            &mut |assignment| {
                for v in assignment.keys() {
                    slots = slots.max(v.index() + 1);
                }
                let mut binding = Binding::new(slots);
                let mut pairs: Vec<(VarId, Value)> =
                    assignment.iter().map(|(v, val)| (*v, *val)).collect();
                pairs.sort_unstable();
                for (v, val) in pairs {
                    binding.bind(v, val);
                }
                keep_going = visit(&binding);
                keep_going
            },
        );
    }
}

/// One run's view of a [`MatchScratch`], plus its mode and batched counts.
struct ExecContext<'a> {
    instance: &'a Instance,
    probe: &'a mut Vec<(usize, Value)>,
    tuple: &'a mut Vec<Value>,
    rows: &'a mut Vec<Vec<u32>>,
    /// Existence mode: the caller only needs to know whether a match
    /// exists, enabling the final-step `first_matching_row` short-circuit.
    first_only: bool,
    /// Posting-list probes this run (batched; flushed to `rbqa-obs` once
    /// at the end of the run).
    probes: u64,
    /// Bindings undone after exploring a row (batched like `probes`).
    backtracks: u64,
}

// ---------------------------------------------------------------------------
// Compatibility entry points
// ---------------------------------------------------------------------------

fn seed_pairs(seed: &Homomorphism) -> Vec<(VarId, Value)> {
    let mut pairs: Vec<(VarId, Value)> = seed.iter().map(|(v, val)| (*v, *val)).collect();
    pairs.sort_unstable();
    pairs
}

/// Searches for a single homomorphism from `query` into `instance`
/// extending `seed` (which may pre-assign some variables, e.g. the free
/// variables of a non-Boolean query).
pub fn find_homomorphism(
    query: &ConjunctiveQuery,
    instance: &Instance,
    seed: &Homomorphism,
) -> Option<Homomorphism> {
    if kernel_mode() == KernelMode::Reference {
        return reference::find_homomorphism(query, instance, seed);
    }
    let pairs = seed_pairs(seed);
    let vars: Vec<VarId> = pairs.iter().map(|(v, _)| *v).collect();
    MatchProgram::compile(query, &vars).find(instance, &pairs)
}

/// Whether the Boolean closure of `query` holds in `instance`.
pub fn holds(query: &ConjunctiveQuery, instance: &Instance) -> bool {
    if kernel_mode() == KernelMode::Reference {
        return reference::find_homomorphism(query, instance, &Homomorphism::default()).is_some();
    }
    MatchProgram::compile(query, &[]).exists(instance, &[])
}

/// Enumerates homomorphisms from `query` into `instance`, up to `limit`
/// results (use `usize::MAX` for all). Enumeration order is deterministic.
pub fn all_homomorphisms(
    query: &ConjunctiveQuery,
    instance: &Instance,
    limit: usize,
) -> Vec<Homomorphism> {
    all_homomorphisms_seeded(query, instance, &Homomorphism::default(), limit)
}

/// Enumerates homomorphisms from `query` into `instance` that extend the
/// partial assignment `seed`, up to `limit` results. Every returned
/// assignment contains the seed bindings. This is the entry point used by
/// the semi-naive chase: a body atom is unified with a freshly derived fact
/// and the remaining atoms are joined against the full instance, so only
/// matches touching the delta are enumerated.
pub fn all_homomorphisms_seeded(
    query: &ConjunctiveQuery,
    instance: &Instance,
    seed: &Homomorphism,
    limit: usize,
) -> Vec<Homomorphism> {
    if kernel_mode() == KernelMode::Reference {
        return reference::all_homomorphisms_seeded(query, instance, seed, limit);
    }
    let pairs = seed_pairs(seed);
    let vars: Vec<VarId> = pairs.iter().map(|(v, _)| *v).collect();
    MatchProgram::compile(query, &vars).collect(instance, &pairs, limit)
}

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

/// The original backtracking join, retained verbatim as the baseline
/// implementation: a dynamically ordered (most-bound-atom-first) search over
/// hash-map assignments and materialised candidate tuples. The compiled
/// kernel is differentially tested against it, and the benchmark harness
/// measures speedups relative to it.
pub mod reference {
    use super::*;

    /// Searches for a single homomorphism extending `seed` with the
    /// reference kernel.
    pub fn find_homomorphism(
        query: &ConjunctiveQuery,
        instance: &Instance,
        seed: &Homomorphism,
    ) -> Option<Homomorphism> {
        let mut found = None;
        search_atoms(query.atoms(), instance, seed.clone(), &mut |assignment| {
            found = Some(assignment.clone());
            false
        });
        found
    }

    /// Enumerates up to `limit` homomorphisms with the reference kernel.
    pub fn all_homomorphisms(
        query: &ConjunctiveQuery,
        instance: &Instance,
        limit: usize,
    ) -> Vec<Homomorphism> {
        all_homomorphisms_seeded(query, instance, &Homomorphism::default(), limit)
    }

    /// Enumerates up to `limit` homomorphisms extending `seed` with the
    /// reference kernel.
    pub fn all_homomorphisms_seeded(
        query: &ConjunctiveQuery,
        instance: &Instance,
        seed: &Homomorphism,
        limit: usize,
    ) -> Vec<Homomorphism> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        search_atoms(query.atoms(), instance, seed.clone(), &mut |assignment| {
            out.push(assignment.clone());
            out.len() < limit
        });
        out
    }

    /// Visits every homomorphism extending `seed` in the reference kernel's
    /// native representation (no per-result cloning); `visit` returns
    /// `false` to stop. This is the baseline side of the kernel
    /// microbenchmarks — the mirror of [`MatchProgram::for_each`].
    pub fn for_each_homomorphism(
        query: &ConjunctiveQuery,
        instance: &Instance,
        seed: &Homomorphism,
        visit: &mut dyn FnMut(&Homomorphism) -> bool,
    ) {
        search_atoms(query.atoms(), instance, seed.clone(), visit);
    }

    /// Backtracking search over a bare atom list. `atoms` is processed in a
    /// dynamically chosen order: at each step the atom with the most
    /// already-bound terms is expanded first (a cheap proxy for
    /// selectivity). `visit` is called on every complete assignment and
    /// returns `true` to continue the enumeration.
    pub(super) fn search_atoms(
        atoms: &[Atom],
        instance: &Instance,
        assignment: Homomorphism,
        visit: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> bool {
        fn bound_count(atom: &Atom, assignment: &Homomorphism) -> usize {
            atom.args()
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => assignment.contains_key(v),
                })
                .count()
        }

        fn recurse(
            remaining: &mut Vec<&Atom>,
            instance: &Instance,
            assignment: &mut Homomorphism,
            visit: &mut dyn FnMut(&Homomorphism) -> bool,
        ) -> bool {
            if remaining.is_empty() {
                return visit(assignment);
            }
            // Pick the most-bound atom.
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, a)| (i, bound_count(a, assignment)))
                .max_by_key(|&(_, c)| c)
                .expect("remaining is non-empty");
            let atom = remaining.swap_remove(best_idx);

            // Build the binding of already-determined positions.
            let mut binding: Vec<(usize, Value)> = Vec::new();
            for (pos, term) in atom.args().iter().enumerate() {
                match term {
                    Term::Const(c) => binding.push((pos, *c)),
                    Term::Var(v) => {
                        if let Some(val) = assignment.get(v) {
                            binding.push((pos, *val));
                        }
                    }
                }
            }

            let candidates: Vec<Vec<Value>> = instance
                .matching_tuples(atom.relation(), &binding)
                .into_iter()
                .map(|t| t.to_vec())
                .collect();

            let mut keep_going = true;
            'tuples: for tuple in candidates {
                // Try to extend the assignment consistently with this tuple.
                let mut newly_bound: Vec<VarId> = Vec::new();
                for (pos, term) in atom.args().iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            if tuple[pos] != *c {
                                for v in newly_bound.drain(..) {
                                    assignment.remove(&v);
                                }
                                continue 'tuples;
                            }
                        }
                        Term::Var(v) => match assignment.get(v) {
                            Some(val) => {
                                if tuple[pos] != *val {
                                    for v in newly_bound.drain(..) {
                                        assignment.remove(&v);
                                    }
                                    continue 'tuples;
                                }
                            }
                            None => {
                                assignment.insert(*v, tuple[pos]);
                                newly_bound.push(*v);
                            }
                        },
                    }
                }
                keep_going = recurse(remaining, instance, assignment, visit);
                for v in newly_bound {
                    assignment.remove(&v);
                }
                if !keep_going {
                    break;
                }
            }
            remaining.push(atom);
            // Restore position irrelevant: order is re-chosen dynamically.
            keep_going
        }

        let mut remaining: Vec<&Atom> = atoms.iter().collect();
        let mut assignment = assignment;
        recurse(&mut remaining, instance, &mut assignment, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CqBuilder;
    use rbqa_common::{Instance, Signature, ValueFactory};

    fn graph_setup() -> (Signature, rbqa_common::RelationId) {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2).unwrap();
        (sig, e)
    }

    #[test]
    fn path_query_holds_on_path() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let c = vf.constant("c");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![a, b]).unwrap();
        inst.insert(e, vec![b, c]).unwrap();

        // Q :- E(x, y), E(y, z)
        let mut builder = CqBuilder::new();
        let (x, y, z) = (builder.var("x"), builder.var("y"), builder.var("z"));
        let q = builder
            .atom(e, vec![x.into(), y.into(), z.into()][..2].to_vec())
            .atom(e, vec![y.into(), z.into()])
            .build();
        assert!(holds(&q, &inst));
    }

    #[test]
    fn triangle_query_fails_on_path() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let c = vf.constant("c");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![a, b]).unwrap();
        inst.insert(e, vec![b, c]).unwrap();

        // Q :- E(x, y), E(y, z), E(z, x)
        let mut builder = CqBuilder::new();
        let (x, y, z) = (builder.var("x"), builder.var("y"), builder.var("z"));
        let q = builder
            .atom(e, vec![x.into(), y.into()])
            .atom(e, vec![y.into(), z.into()])
            .atom(e, vec![z.into(), x.into()])
            .build();
        assert!(!holds(&q, &inst));

        // Adding the closing edge makes it hold.
        inst.insert(e, vec![c, a]).unwrap();
        assert!(holds(&q, &inst));
    }

    #[test]
    fn constants_must_match_exactly() {
        let (sig, e) = graph_setup();
        let mut builder = CqBuilder::new();
        let x = builder.var("x");
        let a_term = builder.constant("a");
        let (q, mut vf) = {
            builder.atom(e, vec![a_term, x.into()]);
            builder.build_with_values()
        };
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![b, b]).unwrap();
        assert!(!holds(&q, &inst));
        inst.insert(e, vec![a, b]).unwrap();
        assert!(holds(&q, &inst));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![a, b]).unwrap();

        // Q :- E(x, x) : requires a self-loop.
        let mut builder = CqBuilder::new();
        let x = builder.var("x");
        let q = builder.atom(e, vec![x.into(), x.into()]).build();
        assert!(!holds(&q, &inst));
        inst.insert(e, vec![b, b]).unwrap();
        assert!(holds(&q, &inst));
    }

    #[test]
    fn seed_constrains_search() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![a, b]).unwrap();
        inst.insert(e, vec![b, b]).unwrap();

        let mut builder = CqBuilder::new();
        let (x, y) = (builder.var("x"), builder.var("y"));
        let q = builder.atom(e, vec![x.into(), y.into()]).build();

        let mut seed = Homomorphism::default();
        seed.insert(x, a);
        let h = find_homomorphism(&q, &inst, &seed).unwrap();
        assert_eq!(h[&x], a);
        assert_eq!(h[&y], b);

        let mut bad_seed = Homomorphism::default();
        bad_seed.insert(y, a);
        assert!(find_homomorphism(&q, &inst, &bad_seed).is_none());
    }

    #[test]
    fn all_homomorphisms_enumerates_and_respects_limit() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let vals: Vec<_> = (0..4).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for &u in &vals {
            for &w in &vals {
                inst.insert(e, vec![u, w]).unwrap();
            }
        }
        let mut builder = CqBuilder::new();
        let (x, y) = (builder.var("x"), builder.var("y"));
        let q = builder.atom(e, vec![x.into(), y.into()]).build();
        assert_eq!(all_homomorphisms(&q, &inst, usize::MAX).len(), 16);
        assert_eq!(all_homomorphisms(&q, &inst, 5).len(), 5);
    }

    #[test]
    fn empty_query_always_holds() {
        let (sig, _) = graph_setup();
        let inst = Instance::new(sig);
        let q = CqBuilder::new().build();
        assert!(holds(&q, &inst));
    }

    #[test]
    fn binding_trail_discipline() {
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let (x, y) = (VarId::from_index(0), VarId::from_index(1));
        let mut binding = Binding::new(2);
        assert_eq!(binding.get(x), None);
        binding.bind(x, a);
        let mark = binding.mark();
        binding.bind(y, b);
        assert_eq!(binding.get(y), Some(b));
        assert_eq!(binding.bound_count(), 2);
        binding.undo_to(mark);
        assert_eq!(binding.get(y), None);
        assert_eq!(binding.get(x), Some(a));
        let h = binding.to_homomorphism();
        assert_eq!(h.len(), 1);
        assert_eq!(h[&x], a);
    }

    #[test]
    fn compiled_program_reports_fully_bound_atoms() {
        // With both variables seeded, the single atom degrades to a
        // membership probe; the program still enumerates exactly one match.
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let b = vf.constant("b");
        let mut inst = Instance::new(sig.clone());
        inst.insert(e, vec![a, b]).unwrap();
        let mut builder = CqBuilder::new();
        let (x, y) = (builder.var("x"), builder.var("y"));
        let q = builder.atom(e, vec![x.into(), y.into()]).build();
        let program = MatchProgram::compile(&q, &[x, y]);
        assert!(program.steps[0].is_full_probe());
        assert_eq!(program.source_atoms(), q.atoms());
        assert!(program.exists(&inst, &[(x, a), (y, b)]));
        assert!(!program.exists(&inst, &[(x, b), (y, a)]));
        assert_eq!(
            program.collect(&inst, &[(x, a), (y, b)], usize::MAX).len(),
            1
        );
    }

    #[test]
    fn kernel_modes_agree_on_a_join() {
        let (sig, e) = graph_setup();
        let mut vf = ValueFactory::new();
        let vals: Vec<_> = (0..5).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig.clone());
        for w in vals.windows(2) {
            inst.insert(e, vec![w[0], w[1]]).unwrap();
        }
        inst.insert(e, vec![vals[4], vals[0]]).unwrap();
        let mut builder = CqBuilder::new();
        let (x, y, z) = (builder.var("x"), builder.var("y"), builder.var("z"));
        let q = builder
            .atom(e, vec![x.into(), y.into()])
            .atom(e, vec![y.into(), z.into()])
            .build();
        let canonical = |homs: Vec<Homomorphism>| {
            let mut keys: Vec<Vec<(VarId, Value)>> = homs
                .into_iter()
                .map(|h| {
                    let mut pairs: Vec<_> = h.into_iter().collect();
                    pairs.sort_unstable();
                    pairs
                })
                .collect();
            keys.sort();
            keys
        };
        let compiled = canonical(all_homomorphisms(&q, &inst, usize::MAX));
        let reference = canonical(reference::all_homomorphisms(&q, &inst, usize::MAX));
        assert_eq!(compiled, reference);
        assert_eq!(compiled.len(), 5);
    }
}
