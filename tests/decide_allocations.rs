//! Allocation gate for the uncached Decide, on both Table-1 paths.
//!
//! Timings cannot be checked in a test, but allocation counts are
//! deterministic: this binary installs its own counting global allocator
//! (it affects no other binary) and counts per thread, so the two tests can
//! run in parallel. Each test takes eight cases shaped like the decide
//! benchmark's corpora (`perfbench/src/decide.rs`) and, per case:
//!
//! * decides the query through the public pipeline;
//! * builds the containment the pipeline chases — the ID linearization or
//!   the AMonDet problem — and chases its start instance through the public
//!   [`rbqa::chase::chase`];
//! * pins the verdict, the chase's rounds, firings and nulls, and an FNV
//!   digest of every relation's rows in row order, so a lean path must
//!   chase exactly the facts, in exactly the order, that the code before it
//!   chased;
//! * caps the allocations per compiled rule, per chase firing and per
//!   Decide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rbqa::access::Schema;
use rbqa::chase::{chase, Budget, ChaseConfig, ChaseOutcome};
use rbqa::common::{Instance, RelationId, Value, ValueFactory};
use rbqa::containment::linearization::LinearizedSchema;
use rbqa::containment::saturation::MethodSignature;
use rbqa::core::{
    classify_constraints, decide_monotone_answerability_union, fd_simplification, AmondetProblem,
    Answerability, AnswerabilityOptions, AxiomStyle, ConstraintClass,
};
use rbqa::logic::{ConjunctiveQuery, UnionOfConjunctiveQueries};
use rbqa::workloads::random::{RandomClass, RandomSchemaConfig};
use rustc_hash::FxHashSet;
use Answerability::{Answerable, NotAnswerable};

/// Counts allocations (fresh and resized blocks) of the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread-local without a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One generated case, as the decide benchmark generates them.
struct Case {
    schema: Schema,
    values: ValueFactory,
    query: ConjunctiveQuery,
    budget: Budget,
}

/// The first `n` cases of a decide corpus at seed 1: cases alternate
/// between the family's two Table-1 rows (generator class, relation counts
/// `lo..=hi` by `step`, depth cap) and cycle through each row's counts.
fn corpus(rows: [(RandomClass, usize, usize, usize, usize); 2], n: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n)
        .map(|i| {
            let (class, lo, hi, step, max_depth) = rows[i % 2];
            let relations = lo + step * ((i / 2) % ((hi - lo) / step + 1));
            let workload = RandomSchemaConfig {
                relations,
                dependencies: 2 * relations,
                class,
                result_bound: 100,
                ..Default::default()
            }
            .generate(rng.next_u64());
            Case {
                query: workload.queries.last().expect("a chain query").clone(),
                schema: workload.schema,
                values: workload.values,
                budget: Budget::generous().with_max_depth(max_depth),
            }
        })
        .collect()
}

/// What one case must reproduce: the verdict, and the chase's rounds,
/// firings, nulls and row digest.
type Pinned = (Answerability, usize, usize, usize, u64);

/// The chase's counters and an FNV-1a digest of every relation's rows, in
/// relation and row order.
fn observed(verdict: Answerability, out: &ChaseOutcome) -> Pinned {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let instance: &Instance = &out.instance;
    for i in 0..instance.signature().len() {
        let rel = RelationId::from_index(i);
        eat(instance.relation_len(rel) as u64);
        for tuple in instance.tuples(rel) {
            for value in tuple {
                eat(match value {
                    Value::Const(c) => c.index() as u64,
                    Value::Null(n) => n.raw() | 1 << 63,
                });
            }
        }
    }
    let stats = out.stats;
    (
        verdict,
        stats.rounds,
        stats.tgd_firings,
        stats.nulls_created,
        digest,
    )
}

fn method_signatures(schema: &Schema) -> Vec<MethodSignature> {
    schema
        .methods()
        .iter()
        .map(|m| {
            MethodSignature::new(
                m.relation(),
                &m.input_positions_vec(),
                m.is_result_bounded(),
            )
        })
        .collect()
}

/// Allocations of one case: the Decide, the rule compilation with its rule
/// count, and the chase.
struct Counts {
    decide: u64,
    compile: u64,
    rules: usize,
    chase: u64,
}

/// Decides `case` and chases its containment's start instance.
fn run(case: &Case) -> (Pinned, Counts) {
    let options = AnswerabilityOptions {
        budget: case.budget,
        ..Default::default()
    };
    let union = UnionOfConjunctiveQueries::single(case.query.clone());
    let mut values = case.values.clone();
    let (decision, decide) = counted(|| {
        decide_monotone_answerability_union(&case.schema, &union, &mut values, &options)
    });

    let schema = &case.schema;
    let query = &case.query;
    let mut values = case.values.clone();
    let config = options.chase_config();
    let class = classify_constraints(schema.constraints());
    let (out, compile, rules, chased) = match class {
        ConstraintClass::NoConstraints | ConstraintClass::IdsOnly { .. } => {
            let methods = method_signatures(schema);
            let width = schema.constraints().max_id_width();
            let (lin, compile) = counted(|| {
                LinearizedSchema::build(
                    schema.signature(),
                    schema.constraints().tgds(),
                    &methods,
                    width,
                )
            });
            let canon = query.canonical_database(&lin.base_signature, &mut values);
            let seed: FxHashSet<Value> = query.constants().into_iter().collect();
            let start = lin.initial_instance(&canon.instance, &seed);
            let depth = lin.completeness_depth(query).min(config.budget.max_depth);
            let config = ChaseConfig {
                budget: config.budget.with_max_depth(depth),
                ..config
            };
            let (out, chased) = counted(|| chase(&start, &lin.rules, &mut values, config));
            (out, compile, lin.rules.len(), chased)
        }
        _ => {
            let (simplified, style) = match class {
                ConstraintClass::FdsOnly => (fd_simplification(schema), AxiomStyle::Simplified),
                _ => (
                    schema.choice_simplification(),
                    AxiomStyle::SeparabilityRewriting,
                ),
            };
            let (problem, compile) =
                counted(|| AmondetProblem::build(&simplified, query, &mut values, style));
            let (out, chased) =
                counted(|| chase(&problem.start, &problem.constraints, &mut values, config));
            (out, compile, problem.constraints.len(), chased)
        }
    };
    let counts = Counts {
        decide,
        compile,
        rules,
        chase: chased,
    };
    (observed(decision.answerability, &out), counts)
}

/// Checks every case against its pinned outcome and the ceilings:
/// allocations per compiled rule and per chase firing (over the eight
/// cases), and per Decide (the largest case).
fn gate(
    cases: &[Case],
    pinned: &[Pinned],
    per_rule_cap: f64,
    per_firing_cap: f64,
    per_decide_cap: u64,
) {
    let (mut compile, mut rules, mut chased, mut firings, mut worst_decide) = (0, 0, 0, 0, 0);
    let mut outcomes = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let (got, counts) = run(case);
        println!(
            "case {i}: {got:?}; decide {} allocations, compile {} for {} rules, chase {}",
            counts.decide, counts.compile, counts.rules, counts.chase
        );
        outcomes.push(got);
        compile += counts.compile;
        rules += counts.rules;
        chased += counts.chase;
        firings += got.2;
        worst_decide = worst_decide.max(counts.decide);
    }
    assert_eq!(outcomes, pinned, "the chases differ from the pinned ones");
    let per_rule = compile as f64 / rules as f64;
    let per_firing = chased as f64 / firings as f64;
    println!(
        "{per_rule:.1} per rule, {per_firing:.1} per firing, {worst_decide} per Decide at most"
    );
    assert!(
        per_rule <= per_rule_cap,
        "{per_rule:.1} allocations per compiled rule, above {per_rule_cap}"
    );
    assert!(
        per_firing <= per_firing_cap,
        "{per_firing:.1} allocations per chase firing, above {per_firing_cap}"
    );
    assert!(
        worst_decide <= per_decide_cap,
        "{worst_decide} allocations in one Decide, above {per_decide_cap}"
    );
}

#[test]
fn id_decides_stay_within_allocation_ceilings() {
    let cases = corpus(
        [
            (RandomClass::Ids { width: 2 }, 8, 12, 1, 26),
            (RandomClass::Ids { width: 1 }, 14, 22, 1, 44),
        ],
        8,
    );
    let pinned: [Pinned; 8] = [
        (Answerable, 9, 119, 28, 5929065205985804),
        (NotAnswerable, 15, 472, 632, 11887488156874574231),
        (Answerable, 11, 170, 104, 6833894392537657925),
        (NotAnswerable, 16, 563, 650, 17751154578711366957),
        (Answerable, 10, 180, 18, 14210190094549610882),
        (NotAnswerable, 17, 558, 606, 10462707245962296493),
        (Answerable, 12, 240, 120, 5336507265632460287),
        (NotAnswerable, 18, 771, 966, 7473074327094409356),
    ];
    gate(&cases, &pinned, 14.0, 15.0, 12_000);
}

#[test]
fn fd_decides_stay_within_allocation_ceilings() {
    let cases = corpus(
        [
            (RandomClass::Fds, 10, 18, 1, 48),
            (RandomClass::UidsAndFds, 10, 14, 2, 30),
        ],
        8,
    );
    let pinned: [Pinned; 8] = [
        (NotAnswerable, 14, 19, 1, 13653764168242883971),
        (NotAnswerable, 5, 12, 15, 13413975454777682158),
        (NotAnswerable, 8, 10, 1, 14536449211704226261),
        (NotAnswerable, 7, 17, 10, 16814155760456834976),
        (NotAnswerable, 10, 23, 1, 13176728255594777568),
        (NotAnswerable, 7, 18, 10, 13633827595961898741),
        (NotAnswerable, 10, 15, 1, 10456211808811750989),
        (NotAnswerable, 9, 18, 11, 17793621118523492235),
    ];
    gate(&cases, &pinned, 12.0, 90.0, 3_500);
}
