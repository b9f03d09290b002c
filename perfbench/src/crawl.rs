//! `exec-crawl`: Execute over a generated IMDb-style world.
//!
//! The world (`Movie`, `Cast`, `Actor`, ~5×10³ facts) satisfies the
//! Cast→Movie and Cast→Actor IDs; `movie_search` is result-bounded and the
//! by-id lookups are not — the paper's motivating service shape. Every
//! request is a 2-disjunct union of cast-of-a-known-movie CQs run on a
//! 4-shard backend with adaptive execution at its default (off), one
//! closed-loop client on one thread through `RequestBuilder::submit`.
//! Decisions are resident, so engine, backends and executor do the work.
//!
//! Each key serves the world through its own catalog, with a
//! `movie_search` bound from 10 to 40: the crawl grows with the bound, so
//! request costs spread over a range instead of forming one narrow mode
//! whose median would jump between the host's speed regimes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbqa_access::{execute_with_backend, Plan, Schema, ShardedBackend};
use rbqa_adapt::{execute_plan_adaptive, AdaptiveWindow};
use rbqa_api::{RequestBuilder, ServiceApi, WireServer};
use rbqa_common::{Instance, Value};
use rbqa_engine::{movie_instance, BackendSpec, ExecOptions, ServiceSimulator};
use rbqa_logic::parser::parse_cq;
use rbqa_logic::{canonical_ucq_code, ConjunctiveQuery, UnionOfConjunctiveQueries};
use rbqa_service::{AnswerRequest, AnswerResponse, CatalogId, QueryService};
use rbqa_workloads::scenarios::movie_services;

use crate::ledger::{set_residual, set_trace_overhead, Ledger, Metered};
use crate::{micros_since, segmented, time_is_up, Outcome, RunConfig, Timer};

/// Movies and actors in the generated world (about 5×10³ facts with the
/// 1–4 cast entries per movie). At 2×10⁴ facts every request copies and
/// frees several MB (world partition, value-factory clones), and its
/// latency followed the host's memory-speed regimes: p50 spread 0.19–0.21
/// and p90 up to 0.63 over seeded 25 s runs, against 0.05 and 0.03 here.
pub const MOVIES: usize = 1100;
pub const ACTORS: usize = 1100;
/// Shards of the federated backend.
pub const SHARDS: usize = 4;
/// Resident union requests; a pass executes each once.
pub const KEYS: usize = 16;

/// The `movie_search` bound of key `k`: 10, 12, …, 40.
fn search_bound(k: usize) -> usize {
    10 + 2 * k
}

const BACKEND: BackendSpec = BackendSpec::Sharded { shards: SHARDS };

/// One resident request: a union of two cast-of-a-known-movie CQs over
/// the key's own catalog.
pub struct Key {
    catalog: CatalogId,
    name: String,
    schema: Schema,
    text: [String; 2],
    disjuncts: [ConjunctiveQuery; 2],
}

/// A set-up exec-crawl workload.
pub struct Bench {
    service: Arc<QueryService>,
    world: Instance,
    keys: Vec<Key>,
}

impl Bench {
    pub fn setup(seed: u64) -> Result<Bench, String> {
        let scenario = movie_services(search_bound(0));
        let mut values = scenario.values;
        let world = movie_instance(
            scenario.schema.signature(),
            &mut values,
            MOVIES,
            ACTORS,
            seed,
        );
        let service = Arc::new(QueryService::new());
        let err = |e: rbqa_service::ServiceError| e.to_string();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = Vec::with_capacity(KEYS);
        for k in 0..KEYS {
            // Every bound's schema has the same signature, so the world and
            // its value factory serve each catalog unchanged.
            let schema = movie_services(search_bound(k)).schema;
            let name = format!("movies-b{}", search_bound(k));
            let catalog = service
                .register_catalog(&name, schema.clone(), values.clone())
                .map_err(err)?;
            service
                .attach_dataset(catalog, world.clone())
                .map_err(err)?;
            let a = rng.gen_range(0..MOVIES);
            let b = (a + rng.gen_range(1..MOVIES)) % MOVIES;
            let text = [a, b].map(|m| format!("Q(n) :- Cast('movie{m}', c), Actor(c, n)"));
            let mut sig = schema.signature().clone();
            let mut parse = |t: &str| parse_cq(t, &mut sig, &mut values).map_err(|e| e.to_string());
            let disjuncts = [parse(&text[0])?, parse(&text[1])?];
            keys.push(Key {
                catalog,
                name,
                schema,
                text,
                disjuncts,
            });
        }
        let bench = Bench {
            service,
            world,
            keys,
        };
        // Make every decision resident: one miss per key.
        for k in 0..KEYS {
            bench.request(k).submit().map_err(|e| e.to_string())?;
        }
        Ok(bench)
    }

    fn request(&self, k: usize) -> RequestBuilder<'_> {
        self.union(k).backend(BACKEND).execute()
    }

    /// Key `k`'s union, before its mode is chosen.
    fn union(&self, k: usize) -> RequestBuilder<'_> {
        let key = &self.keys[k];
        let [d1, d2] = &key.disjuncts;
        self.service
            .request(key.catalog)
            .query(d1.clone())
            .query(d2.clone())
    }

    /// Each key's answer by the paper's definition: the union evaluated
    /// over the hidden world.
    fn expected_rows(&self) -> Result<Vec<Vec<Vec<Value>>>, String> {
        self.keys
            .iter()
            .map(|key| {
                UnionOfConjunctiveQueries::from_disjuncts(key.disjuncts.to_vec())
                    .evaluate(&self.world)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

/// Whether a response is a resident decision with the expected rows, and
/// its fresh backend calls.
fn check(response: &AnswerResponse, expected: &[Vec<Value>]) -> (bool, usize) {
    let calls = response.plan_metrics.as_ref().map_or(0, |m| m.total_calls);
    let ok = response.cache_hit && response.rows.as_deref() == Some(expected);
    (ok, calls)
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let setup = || Bench::setup(config.seed);
    if config.trace {
        let bench = setup()?;
        let expected = bench.expected_rows()?;
        return run_ledger(&bench, &expected, config);
    }
    // Every set-up builds the same world and keys from the seed, so one
    // set of expected rows checks every segment.
    let expected = setup()?.expected_rows()?;
    let mut timer = Timer::new(config.seed);
    let (mut failed, mut calls) = (0u64, 0usize);
    segmented(
        config.seconds,
        &mut timer,
        setup,
        |bench: &mut Bench, timer| {
            for (k, want) in expected.iter().enumerate() {
                let response = timer.request(|| bench.request(k).submit());
                match response {
                    Ok(r) => {
                        let (ok, c) = check(&r, want);
                        failed += u64::from(!ok);
                        calls += c;
                    }
                    Err(_) => failed += 1,
                }
            }
        },
    )?;
    let attempted = timer.count();
    let per_req = calls as f64 / attempted as f64;
    let (metrics, measured) = timer.end_to_end()?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "backend_calls_per_req {per_req} calls over {} passes of {KEYS} unions",
                attempted / KEYS as u64
            ),
            measured,
        ],
    })
}

fn run_ledger(
    bench: &Bench,
    expected: &[Vec<Vec<Value>>],
    config: &RunConfig,
) -> Result<Outcome, String> {
    let service = &bench.service;
    // A second in-process session on the same service: `handle_line` on
    // the wire spelling of each request.
    let mut session = WireServer::with_shared_service(Arc::clone(service));
    for line in ["rbqa/1", &format!("option exec.backend sharded:{SHARDS}")] {
        if let Some(error) = session.handle_line(line) {
            return Err(format!("in-process session rejected `{line}`: {error}"));
        }
    }
    let lines: Vec<String> = bench
        .keys
        .iter()
        .map(|k| format!("execute {} {} || {}", k.name, k.text[0], k.text[1]))
        .collect();
    let simulators: Vec<ServiceSimulator> = bench
        .keys
        .iter()
        .map(|k| ServiceSimulator::new(k.schema.clone(), bench.world.clone()))
        .collect();
    let exec = ExecOptions::with_backend(BACKEND);
    let values = service
        .catalog_values(bench.keys[0].catalog)
        .map_err(|e| e.to_string())?;
    let display = |v| values.display(v);
    // The service's hit path alone is timed on a Synthesize of each key's
    // union: resident like the Execute, but serving no rows.
    let synthesize: Vec<AnswerRequest> = (0..KEYS)
        .map(|k| {
            bench
                .union(k)
                .synthesize()
                .build()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    for request in &synthesize {
        service.submit(request).map_err(|e| e.to_string())?;
    }

    let mut ledger = Ledger::default();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut hits) = (0u64, 0u64, 0u64);
    let (mut covered, mut api_gap, mut service_gap, mut engine_gap) = (0.0, 0.0, 0.0, 0.0);
    let (mut calls, mut useful, mut distinct) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    loop {
        for (k, want) in expected.iter().enumerate() {
            let schema = &bench.keys[k].schema;
            // End to end, untraced and traced; their order alternates so
            // that neither always runs on warm caches.
            let timed = |trace: bool| {
                let t = Instant::now();
                let response = bench.request(k).with_trace(trace).submit();
                (micros_since(t), response)
            };
            let traced_early = (attempted % 2 == 1).then(|| timed(true));
            let (t_req, response) = timed(false);
            let (t_traced, traced_response) = traced_early.unwrap_or_else(|| timed(true));
            traced_response.map_err(|e| e.to_string())?;
            untraced.push(t_req);
            traced.push(t_traced);
            attempted += 1;
            let response = response.map_err(|e| e.to_string())?;
            let (ok, c) = check(&response, want);
            failed += u64::from(!ok);
            hits += u64::from(response.cache_hit);
            ledger.add("backend_calls_per_req", c as f64);

            let t = Instant::now();
            let handled = session.handle_line(&lines[k]);
            ledger.add("api.handle_us", micros_since(t));
            if !handled.is_some_and(|r| r.contains("\"cache_hit\":true")) {
                return Err(format!(
                    "in-process session missed resident key `{}`",
                    lines[k]
                ));
            }

            let t = Instant::now();
            let request = bench.request(k).build().map_err(|e| e.to_string())?;
            let t_build = micros_since(t);
            let t = Instant::now();
            service
                .fingerprint_of(&request)
                .map_err(|e| e.to_string())?;
            let t_fp = micros_since(t);
            let t = Instant::now();
            let answer = service.submit(&request).map_err(|e| e.to_string())?;
            let t_submit = micros_since(t);
            // Hit path: a resident Synthesize minus its fingerprint, the two
            // calls in alternating order so neither always runs warm.
            let fingerprint = || {
                let t = Instant::now();
                service
                    .fingerprint_of(&synthesize[k])
                    .map_err(|e| e.to_string())?;
                Ok::<f64, String>(micros_since(t))
            };
            let t_fp_early = if attempted % 2 == 0 {
                Some(fingerprint()?)
            } else {
                None
            };
            let t = Instant::now();
            let hit = service.submit(&synthesize[k]).map_err(|e| e.to_string())?;
            let t_hit = micros_since(t)
                - match t_fp_early {
                    Some(t) => t,
                    None => fingerprint()?,
                };
            if !hit.cache_hit {
                return Err(format!("synthesize of resident key {k} missed the cache"));
            }
            let t = Instant::now();
            black_box(canonical_ucq_code(
                &request.query,
                schema.signature(),
                &display,
            ));
            ledger.add("logic.canonical_us", micros_since(t));

            let plans: Vec<&Plan> = answer.plans.iter().map(|p| p.as_ref()).collect();
            let t = Instant::now();
            black_box(
                simulators[k]
                    .run_plans_exec_results(&plans, &exec)
                    .map_err(|e| e.to_string())?,
            );
            let t_run = micros_since(t);

            // The engine's two steps from outside: partition the world, then
            // run every plan in one backend window through the timing
            // decorator.
            let t = Instant::now();
            let sharded = ShardedBackend::over_instance(&bench.world, SHARDS);
            let t_partition = micros_since(t);
            let mut metered = Metered::new(sharded);
            let mut t_exec = 0.0;
            for plan in &plans {
                let t = Instant::now();
                execute_with_backend(plan, schema, &mut metered).map_err(|e| e.to_string())?;
                t_exec += micros_since(t);
            }
            let t_backend = metered.backend_nanos as f64 / 1000.0;

            let mut adaptive = Metered::new(ShardedBackend::over_instance(&bench.world, SHARDS));
            let mut window = AdaptiveWindow::new();
            let t = Instant::now();
            for plan in &plans {
                execute_plan_adaptive(plan, schema, &mut adaptive, &mut window)
                    .map_err(|e| e.to_string())?;
            }
            ledger.add("adapt.exec_us", micros_since(t));
            ledger.add("adapt.calls", adaptive.calls as f64);

            ledger.add("api.build_us", t_build);
            ledger.add("service.fingerprint_us", t_fp);
            ledger.add("service.hit_us", t_hit);
            ledger.add("engine.run_us", t_run);
            ledger.add("engine.partition_us", t_partition);
            ledger.add("access.exec_us", t_exec);
            ledger.add("access.backend_us", t_backend);
            ledger.add("access.executor_self_us", t_exec - t_backend);
            ledger.add("access.calls", metered.calls as f64);
            ledger.add("access.tuples_matched", metered.tuples_matched as f64);
            ledger.add("access.tuples_fetched", metered.tuples_fetched as f64);
            calls += metered.calls;
            useful += metered.useful;
            distinct += metered.distinct_calls() as u64;
            covered += t_build + t_fp + t_hit + t_partition + t_exec;
            api_gap += t_req - t_build - t_submit;
            service_gap += t_submit - t_fp - t_hit - t_run;
            engine_gap += t_run - t_partition - t_exec;
            ledger.request_done();
        }
        if time_is_up(start, config.seconds) {
            break;
        }
    }
    let n = ledger.requests() as f64;
    ledger.set("service.hit_ratio", hits as f64 / n);
    ledger.set("access.useful_call_share", useful as f64 / calls as f64);
    ledger.set("access.distinct_call_share", distinct as f64 / calls as f64);
    let end_to_end_us = untraced.iter().sum::<f64>() / n;
    let note = set_residual(
        &mut ledger,
        end_to_end_us,
        covered / n,
        &[
            ("RequestBuilder::submit (api)", api_gap / n),
            (
                "QueryService::submit (service: row union, metrics)",
                service_gap / n,
            ),
            (
                "ServiceSimulator::run_plans_exec_results (engine)",
                engine_gap / n,
            ),
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
