//! `decide-ids` and `decide-fds`: uncached Decide over a seeded corpus of
//! generated Table-1 schemas, one closed-loop client on one thread through
//! the in-process request API (`RequestBuilder::submit`).
//!
//! A pass submits every case once; the cache is cleared between passes
//! (outside the timed requests), so every timed request runs the decision
//! pipeline and writes a cache entry. The two families are separate
//! workloads because ID cases take 4–10× longer than FD cases: pooled, the
//! ID cases would set both percentiles.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rbqa_access::{Plan, Schema};
use rbqa_api::{RequestBuilder, ServiceApi};
use rbqa_chase::Budget;
use rbqa_common::ValueFactory;
use rbqa_containment::linearization::LinearizedSchema;
use rbqa_containment::saturation::MethodSignature;
use rbqa_containment::{ContainmentOutcome, Verdict};
use rbqa_core::{
    classify_constraints, decide_monotone_answerability_union, fd_simplification,
    synthesize_crawling_plan, AmondetProblem, Answerability, AnswerabilityOptions, AxiomStyle,
    ConstraintClass,
};
use rbqa_logic::homomorphism::{set_kernel_mode, KernelMode};
use rbqa_logic::{canonical_ucq_code, ConjunctiveQuery, UnionOfConjunctiveQueries};
use rbqa_obs::Phase;
use rbqa_service::{CatalogId, QueryService};
use rbqa_workloads::random::{RandomClass, RandomSchemaConfig};

use crate::ledger::{set_residual, set_trace_overhead, Ledger};
use crate::{micros_since, segmented, time_is_up, Outcome, RunConfig, Timer};

/// Generated schemas per corpus. With 64, a run's `p90_us` on decide-fds
/// still moved about ±5% with the seed (the few heaviest schemas set it).
pub const CASES: usize = 128;

/// The constraint family of a decide workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// IDs and bounded-width IDs (linearization + TGD chase).
    Ids,
    /// FDs and UIDs+FDs (FD / choice simplification + AMonDet chase).
    Fds,
}

/// One Table-1 row of a family: the generator class, the relation counts
/// drawn from (`lo..=hi` in steps of `step`) and the chase depth cap. The
/// counts span `rbqa_bench::decide_cases`.
struct Row {
    class: RandomClass,
    lo: usize,
    hi: usize,
    step: usize,
    max_depth: usize,
}

fn rows(family: Family) -> [Row; 2] {
    let row = |class, lo, hi, step, max_depth| Row {
        class,
        lo,
        hi,
        step,
        max_depth,
    };
    match family {
        Family::Ids => [
            row(RandomClass::Ids { width: 2 }, 8, 12, 1, 26),
            row(RandomClass::Ids { width: 1 }, 14, 22, 1, 44),
        ],
        // UIDs+FDs keeps even relation counts, as `decide_cases` does: with
        // an odd count the generator's UIDs close a cycle through every
        // relation and the chase runs to its depth cap, a second latency
        // population 6-10x slower than every other FD-family case.
        Family::Fds => [
            row(RandomClass::Fds, 10, 18, 1, 48),
            row(RandomClass::UidsAndFds, 10, 14, 2, 30),
        ],
    }
}

/// One generated decision case.
#[derive(Debug, Clone)]
pub struct Case {
    pub schema: Schema,
    pub values: ValueFactory,
    pub query: ConjunctiveQuery,
    pub budget: Budget,
}

impl Case {
    fn options(&self) -> AnswerabilityOptions {
        AnswerabilityOptions {
            budget: self.budget,
            ..Default::default()
        }
    }
}

/// The seeded corpus: cases alternate between the family's two rows and
/// cycle through each row's relation counts, so every seed decides the
/// same mix of sizes; the seed draws each case's generator seed.
pub fn corpus(family: Family, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CASES)
        .map(|i| {
            let row = &rows(family)[i % 2];
            let sizes = (row.hi - row.lo) / row.step + 1;
            let relations = row.lo + row.step * ((i / 2) % sizes);
            let workload = RandomSchemaConfig {
                relations,
                dependencies: 2 * relations,
                class: row.class,
                result_bound: 100,
                ..Default::default()
            }
            .generate(rng.next_u64());
            let query = workload
                .queries
                .last()
                .expect("the generator emits one chain query per size")
                .clone();
            Case {
                schema: workload.schema,
                values: workload.values,
                query,
                budget: Budget::generous().with_max_depth(row.max_depth),
            }
        })
        .collect()
}

/// A set-up decide workload: the service with one catalog per case.
pub struct Bench {
    pub service: QueryService,
    pub catalogs: Vec<CatalogId>,
    pub cases: Vec<Case>,
}

impl Bench {
    pub fn setup(family: Family, seed: u64) -> Result<Bench, String> {
        let cases = corpus(family, seed);
        let service = QueryService::new();
        let catalogs = cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                service
                    .register_catalog(&format!("case{i}"), c.schema.clone(), c.values.clone())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bench {
            service,
            catalogs,
            cases,
        })
    }

    fn request(&self, i: usize) -> RequestBuilder<'_> {
        let case = &self.cases[i];
        self.service
            .request(self.catalogs[i])
            .query(case.query.clone())
            .with_budget(case.budget)
            .decide()
    }

    /// Every case's verdict under the reference matching kernel, computed
    /// by the direct pipeline call (the answer check's oracle).
    pub fn reference_verdicts(&self) -> Vec<Answerability> {
        set_kernel_mode(KernelMode::Reference);
        let verdicts = self
            .cases
            .iter()
            .map(|c| {
                let mut values = c.values.clone();
                let union = UnionOfConjunctiveQueries::single(c.query.clone());
                decide_monotone_answerability_union(&c.schema, &union, &mut values, &c.options())
                    .answerability
            })
            .collect();
        set_kernel_mode(KernelMode::Compiled);
        verdicts
    }
}

pub fn run(family: Family, config: &RunConfig) -> Result<Outcome, String> {
    let setup = || Bench::setup(family, config.seed);
    if config.trace {
        return run_ledger(&setup()?, config);
    }
    let n = CASES;
    let mut timer = Timer::new(config.seed);
    // Verdicts per case; `None` marks an error or an unexpected cache hit.
    let mut got: Vec<Vec<Option<Answerability>>> = vec![Vec::new(); n];
    let bench = segmented(
        config.seconds,
        &mut timer,
        setup,
        |bench: &mut Bench, timer| {
            for (i, verdicts) in got.iter_mut().enumerate() {
                let response = timer.request(|| bench.request(i).submit());
                verdicts.push(match response {
                    Ok(r) if !r.cache_hit => Some(r.summary.answerability),
                    _ => None,
                });
            }
            bench.service.clear_cache();
        },
    )?;
    let (metrics, measured) = timer.end_to_end()?;
    let expected = bench.reference_verdicts();
    let failed = got
        .iter()
        .zip(&expected)
        .map(|(verdicts, want)| verdicts.iter().filter(|v| **v != Some(*want)).count() as u64)
        .sum();
    let attempted = timer.count();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!("{} passes over {n} cases", attempted / n as u64),
            measured,
        ],
    })
}

/// Per-request times of the core stages, called from outside in the
/// order `decide_monotone_answerability` runs them.
#[derive(Debug, Default)]
struct Stages {
    classify: f64,
    simplify: f64,
    amondet_build: f64,
    linearize: f64,
    decide: f64,
    plan: f64,
}

impl Stages {
    /// The stages on a Decide request's path (plan synthesis is not).
    fn on_decide_path(&self) -> f64 {
        self.classify + self.simplify + self.amondet_build + self.linearize + self.decide
    }
}

/// Core's private `method_signatures`, rebuilt from the public schema API
/// (untimed: its cost stays in the pipeline's residual).
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

fn core_stages(case: &Case, options: &AnswerabilityOptions) -> Stages {
    let mut s = Stages::default();
    let schema = &case.schema;
    let query = &case.query;
    let mut values = case.values.clone();
    let config = options.chase_config();

    let t = Instant::now();
    let class = classify_constraints(schema.constraints());
    s.classify = micros_since(t);

    let t = Instant::now();
    let lb = schema.eliminate_upper_bounds();
    let simplified = match class {
        ConstraintClass::NoConstraints | ConstraintClass::IdsOnly { .. } => None,
        ConstraintClass::FdsOnly => Some(fd_simplification(&lb)),
        _ => Some(lb.choice_simplification()),
    };
    s.simplify = micros_since(t);

    let outcome: ContainmentOutcome = match simplified {
        None => {
            let ids = lb.constraints().tgds().to_vec();
            let width = lb.constraints().max_id_width();
            let methods = method_signatures(&lb);
            let t = Instant::now();
            let lin = LinearizedSchema::build(lb.signature(), &ids, &methods, width);
            s.linearize = micros_since(t);
            let t = Instant::now();
            let out = lin.decide(query, query, &mut values, config);
            s.decide = micros_since(t);
            out
        }
        Some(simplified) => {
            let style = match class {
                ConstraintClass::UidsAndFds => AxiomStyle::SeparabilityRewriting,
                _ => AxiomStyle::Simplified,
            };
            let t = Instant::now();
            let problem = AmondetProblem::build(&simplified, query, &mut values, style);
            s.amondet_build = micros_since(t);
            let t = Instant::now();
            let out = problem.decide(&mut values, config);
            s.decide = micros_since(t);
            out
        }
    };
    if outcome.verdict == Verdict::Holds {
        let rounds = (outcome.chase_stats.max_depth_reached + 1).max(2);
        let t = Instant::now();
        black_box(synthesize_crawling_plan(schema, query, rounds));
        s.plan = micros_since(t);
    }
    s
}

fn run_ledger(bench: &Bench, config: &RunConfig) -> Result<Outcome, String> {
    let service = &bench.service;
    let expected = bench.reference_verdicts();
    let mut ledger = Ledger::default();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut api_gap, mut service_gap, mut core_gap, mut covered) = (0.0, 0.0, 0.0, 0.0);
    let start = Instant::now();
    loop {
        for (i, case) in bench.cases.iter().enumerate() {
            // End to end, untraced and traced, each on a cleared cache; their
            // order alternates so that neither always runs on warm caches.
            let timed = |trace: bool| {
                service.clear_cache();
                let t = Instant::now();
                let response = bench.request(i).with_trace(trace).submit();
                (micros_since(t), response)
            };
            let traced_early = (attempted % 2 == 1).then(|| timed(true));
            let (t_req, response) = timed(false);
            let (t_traced, traced_response) = traced_early.unwrap_or_else(|| timed(true));
            untraced.push(t_req);
            traced.push(t_traced);
            attempted += 1;
            match response {
                Ok(r) if !r.cache_hit && r.summary.answerability == expected[i] => {}
                _ => failed += 1,
            }
            let trace = traced_response
                .map_err(|e| e.to_string())?
                .trace
                .ok_or("a traced request returned no trace")?;
            let phase = |p: Phase| trace.phase_nanos[p as usize] as f64 / 1000.0;
            ledger.add("chase.chase_us", phase(Phase::Chase));
            ledger.add("chase.fd_fixpoint_us", phase(Phase::FdFixpoint));
            ledger.add("containment.saturation_us", phase(Phase::Saturation));
            ledger.add("containment.match_us", phase(Phase::Containment));
            let c = &trace.counters;
            ledger.add("chase.rounds", c.chase_rounds as f64);
            ledger.add("chase.trigger_firings", c.trigger_firings as f64);
            ledger.add("logic.posting_probes", c.posting_probes as f64);
            ledger.add("logic.backtracks", c.backtracks as f64);

            // api and service layers.
            let t = Instant::now();
            let request = bench.request(i).build().map_err(|e| e.to_string())?;
            let t_build = micros_since(t);
            let t = Instant::now();
            service
                .fingerprint_of(&request)
                .map_err(|e| e.to_string())?;
            let t_fp = micros_since(t);
            let display = |v| case.values.display(v);
            let t = Instant::now();
            black_box(canonical_ucq_code(
                &request.query,
                case.schema.signature(),
                &display,
            ));
            ledger.add("logic.canonical_us", micros_since(t));
            // The miss overhead is a difference of two pipeline runs; their
            // order alternates so that neither always runs on warm caches.
            let options = request.effective_options();
            let mut values = case.values.clone();
            let submit = || {
                service.clear_cache();
                let t = Instant::now();
                service.submit(&request).map_err(|e| e.to_string())?;
                Ok::<f64, String>(micros_since(t))
            };
            let t_early = if attempted % 2 == 0 {
                Some(submit()?)
            } else {
                None
            };
            let t = Instant::now();
            let direct = decide_monotone_answerability_union(
                &case.schema,
                &request.query,
                &mut values,
                &options,
            );
            let t_direct = micros_since(t);
            let t_submit = match t_early {
                Some(t) => t,
                None => submit()?,
            };
            let plans: Vec<Arc<Plan>> = Vec::new();
            let t = Instant::now();
            black_box(rbqa_service::snapshot::encode_decision(
                &direct.summary(),
                &plans,
                &|v| values.display(v),
            ));
            let t_encode = micros_since(t);

            let stages = core_stages(case, &options);
            ledger.add("api.build_us", t_build);
            ledger.add("service.fingerprint_us", t_fp);
            ledger.add("service.miss_overhead_us", t_submit - t_direct);
            ledger.add("service.encode_us", t_encode);
            ledger.add("core.classify_us", stages.classify);
            ledger.add("core.simplify_us", stages.simplify);
            ledger.add("core.amondet_build_us", stages.amondet_build);
            ledger.add("core.plan_us", stages.plan);
            ledger.add("containment.linearize_us", stages.linearize);
            ledger.add("containment.decide_us", stages.decide);
            covered += t_build + t_fp + t_encode + stages.on_decide_path();
            api_gap += t_req - t_build - t_submit;
            service_gap += t_submit - t_direct - t_fp - t_encode;
            core_gap += t_direct - stages.on_decide_path();
            ledger.request_done();
        }
        if time_is_up(start, config.seconds) {
            break;
        }
    }
    let n = ledger.requests() as f64;
    let end_to_end_us = untraced.iter().sum::<f64>() / n;
    let note = set_residual(
        &mut ledger,
        end_to_end_us,
        covered / n,
        &[
            ("RequestBuilder::submit (api)", api_gap / n),
            ("QueryService::submit (service)", service_gap / n),
            ("decide_monotone_answerability_union (core)", core_gap / n),
        ],
    );
    set_trace_overhead(&mut ledger, &traced, &untraced);
    Ok(Outcome {
        attempted,
        failed,
        metrics: ledger.finish(),
        notes: note.into_iter().collect(),
    })
}
