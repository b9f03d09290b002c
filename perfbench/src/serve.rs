//! `serve-hot`: cached Decide and Synthesize over TCP.
//!
//! One client on one loopback connection to an in-process `NetServer`
//! with one worker: two busy threads on two cores, closed loop. Set-up
//! registers the paper's university, movie and bio catalogs through wire
//! directives and makes ~256 keys resident (1–5-atom CQs and 2–3-disjunct
//! UCQs). Each timed request re-spells a resident key with renamed
//! variables and permuted atoms and disjuncts, so the server re-parses
//! and re-canonicalizes every request but never decides: net, api
//! framing, fingerprinting and the cache hit path do the work.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rbqa_api::{response_to_json, ServiceApi, WireClient, WireServer};
use rbqa_logic::canonical_ucq_code;
use rbqa_net::{NetServer, ServerConfig, ServerHandle};
use rbqa_service::{QueryService, RequestMode};

use crate::ledger::{set_residual, set_trace_overhead, Ledger};
use crate::{micros_since, segmented, time_is_up, Outcome, RunConfig, Timer};

/// Resident keys per run.
pub const KEYS: usize = 256;

/// The catalogs, as the wire directives that register them.
const CATALOG_DIRECTIVES: &str = "\
catalog uni
relation Prof/3
relation Udirectory/3
constraint Prof(i, n, s) -> Udirectory(i, a, p)
method pr Prof in=1
method ud Udirectory in= bound=100
catalog movies
relation Movie/3
relation Cast/2
relation Actor/2
constraint Cast(m, a) -> Movie(m, t, y)
constraint Cast(m, a) -> Actor(a, n)
method movie_search Movie in= bound=20
method movie_by_id Movie in=1
method cast_by_movie Cast in=1
method actor_by_id Actor in=1
catalog bio
relation Compound/3
relation Synonym/2
constraint Synonym(i, s) -> Compound(i, n, m)
constraint FD Compound: 1 -> 2
constraint FD Compound: 1 -> 3
method compound_by_id Compound in=1 bound=5000
method synonyms_by_id Synonym in=1";

/// A catalog's relations and the constants keys may mention.
struct Shape {
    name: &'static str,
    relations: &'static [(&'static str, usize)],
    constants: &'static [&'static str],
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "uni",
        relations: &[("Prof", 3), ("Udirectory", 3)],
        constants: &["10000", "20000", "mainst"],
    },
    Shape {
        name: "movies",
        relations: &[("Movie", 3), ("Cast", 2), ("Actor", 2)],
        constants: &["movie0", "movie1", "1999"],
    },
    Shape {
        name: "bio",
        relations: &[("Compound", 3), ("Synonym", 2)],
        constants: &["water", "chebi:15377"],
    },
];

#[derive(Debug, Clone, Copy)]
enum Term {
    Var(usize),
    Const(usize),
}

#[derive(Debug, Clone)]
struct Disjunct {
    /// The answer variable; `None` for a Boolean query.
    head: Option<usize>,
    atoms: Vec<(usize, Vec<Term>)>,
}

/// Largest variable pool of a disjunct (five atoms plus one).
const MAX_VARS: usize = 6;

/// One resident key and what its warm-up returned.
#[derive(Debug, Clone)]
pub struct Key {
    catalog: usize,
    synthesize: bool,
    disjuncts: Vec<Disjunct>,
    fingerprint: String,
    answerable: String,
}

impl Key {
    fn generate(rng: &mut StdRng) -> Key {
        let catalog = rng.gen_range(0..SHAPES.len());
        let shape = &SHAPES[catalog];
        let boolean = rng.gen_range(0..2) == 0;
        let count = if rng.gen_range(0..10) < 7 {
            1
        } else {
            rng.gen_range(2..=3)
        };
        let disjuncts = (0..count)
            .map(|_| {
                let atoms: usize = rng.gen_range(1..=5);
                let pool = atoms + 1;
                let atoms = (0..atoms)
                    .map(|a| {
                        let rel = rng.gen_range(0..shape.relations.len());
                        let terms = (0..shape.relations[rel].1)
                            .map(|p| {
                                if a == 0 && p == 0 {
                                    Term::Var(0)
                                } else if rng.gen_range(0..10) == 0 {
                                    Term::Const(rng.gen_range(0..shape.constants.len()))
                                } else {
                                    Term::Var(rng.gen_range(0..pool))
                                }
                            })
                            .collect();
                        (rel, terms)
                    })
                    .collect();
                Disjunct {
                    head: (!boolean).then_some(0),
                    atoms,
                }
            })
            .collect();
        Key {
            catalog,
            synthesize: rng.gen_range(0..2) == 0,
            disjuncts,
            fingerprint: String::new(),
            answerable: String::new(),
        }
    }

    fn verb(&self) -> &'static str {
        if self.synthesize {
            "synthesize"
        } else {
            "decide"
        }
    }

    /// The query text. With `respell`, variables get fresh names and atoms
    /// and disjuncts are permuted: an α-equivalent spelling of the key.
    fn query_text(&self, rng: &mut StdRng, respell: bool) -> String {
        let shape = &SHAPES[self.catalog];
        let mut order: Vec<usize> = (0..self.disjuncts.len()).collect();
        if respell {
            order.shuffle(rng);
        }
        let parts: Vec<String> = order
            .iter()
            .map(|&d| {
                let disjunct = &self.disjuncts[d];
                let salt = if respell { rng.gen_range(0..1000) } else { 0 };
                let mut names: Vec<usize> = (0..MAX_VARS).collect();
                let mut atoms: Vec<usize> = (0..disjunct.atoms.len()).collect();
                if respell {
                    names.shuffle(rng);
                    atoms.shuffle(rng);
                }
                let var = |v: usize| format!("v{salt}_{}", names[v]);
                let body: Vec<String> = atoms
                    .iter()
                    .map(|&a| {
                        let (rel, terms) = &disjunct.atoms[a];
                        let args: Vec<String> = terms
                            .iter()
                            .map(|t| match t {
                                Term::Var(v) => var(*v),
                                Term::Const(c) => format!("'{}'", shape.constants[*c]),
                            })
                            .collect();
                        format!("{}({})", shape.relations[*rel].0, args.join(", "))
                    })
                    .collect();
                let head = disjunct.head.map(var).unwrap_or_default();
                format!("Q({head}) :- {}", body.join(", "))
            })
            .collect();
        parts.join(" || ")
    }

    fn line(&self, query_text: &str) -> String {
        format!("{} {} {query_text}", self.verb(), SHAPES[self.catalog].name)
    }

    /// Whether `response` is this key's cache hit with its warm-up answer.
    fn answered_by(&self, response: &str) -> bool {
        json_field(response, "cache_hit") == Some("true")
            && json_field(response, "fingerprint") == Some(&self.fingerprint)
            && json_field(response, "answerable") == Some(&self.answerable)
    }
}

/// The value of a top-level scalar field of a one-line JSON response.
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// The server, shut down when dropped (after the client has hung up, so
/// its one worker is free).
struct Server(Option<ServerHandle>);

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.shutdown_and_join();
        }
    }
}

/// A set-up serve-hot workload. Field order is drop order: the client
/// hangs up before the server stops.
pub struct Bench {
    client: WireClient,
    server: Server,
    keys: Vec<Key>,
}

impl Bench {
    pub fn setup(seed: u64) -> Result<Bench, String> {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = NetServer::bind(config, Arc::new(QueryService::new()))
            .map_err(|e| format!("cannot bind the server: {e}"))?
            .spawn();
        let server = Server(Some(server));
        let addr = server.0.as_ref().expect("just started").addr();
        let mut client = WireClient::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let io = |e: std::io::Error| format!("connection failed: {e}");
        client.send_line("rbqa/1").map_err(io)?;
        for line in CATALOG_DIRECTIVES.lines() {
            client.send_line(line).map_err(io)?;
        }
        let errors = client.sync().map_err(io)?;
        if !errors.is_empty() {
            return Err(format!("catalog directives failed: {errors:?}"));
        }
        // Warm-up: decide each candidate once; a candidate whose
        // fingerprint is already resident is dropped.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<Key> = Vec::with_capacity(KEYS);
        let mut candidates = 0;
        while keys.len() < KEYS {
            candidates += 1;
            if candidates > 16 * KEYS {
                return Err(format!("only {} distinct keys", keys.len()));
            }
            let mut key = Key::generate(&mut rng);
            let line = key.line(&key.query_text(&mut rng, false));
            let response = client.request(&line).map_err(io)?;
            if json_field(&response, "status") != Some("ok") {
                return Err(format!("warm-up request `{line}` failed: {response}"));
            }
            if json_field(&response, "cache_hit") == Some("true") {
                continue;
            }
            key.fingerprint = json_field(&response, "fingerprint")
                .unwrap_or_default()
                .into();
            key.answerable = json_field(&response, "answerable")
                .unwrap_or_default()
                .into();
            keys.push(key);
        }
        Ok(Bench {
            client,
            server,
            keys,
        })
    }

    fn service(&self) -> Arc<QueryService> {
        self.server.0.as_ref().expect("server runs").service()
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let setup = || Bench::setup(config.seed);
    if config.trace {
        return run_ledger(&mut setup()?, config);
    }
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut timer = Timer::new(config.seed);
    let mut failed = 0;
    segmented(
        config.seconds,
        &mut timer,
        setup,
        |bench: &mut Bench, timer| {
            let key = &bench.keys[rng.gen_range(0..bench.keys.len())];
            let line = key.line(&key.query_text(&mut rng, true));
            let response = timer.request(|| bench.client.request(&line));
            if !response.is_ok_and(|r| key.answered_by(&r)) {
                failed += 1;
            }
        },
    )?;
    let (metrics, measured) = timer.end_to_end()?;
    Ok(Outcome {
        attempted: timer.count(),
        failed,
        metrics,
        notes: vec![format!("{KEYS} resident keys"), measured],
    })
}

fn run_ledger(bench: &mut Bench, config: &RunConfig) -> Result<Outcome, String> {
    let service = bench.service();
    // A second in-process session on the same service, with the catalogs
    // under their plain names: `handle_line` timed without the socket.
    let mut session = WireServer::with_shared_service(Arc::clone(&service));
    for line in std::iter::once("rbqa/1").chain(CATALOG_DIRECTIVES.lines()) {
        if let Some(error) = session.handle_line(line) {
            return Err(format!("in-process session rejected `{line}`: {error}"));
        }
    }
    let io = |e: std::io::Error| format!("connection failed: {e}");
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut ledger = Ledger::default();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut hits) = (0u64, 0u64, 0u64);
    let (mut covered, mut handle_gap) = (0.0, 0.0);
    let start = Instant::now();
    while !time_is_up(start, config.seconds) {
        let key = bench.keys[rng.gen_range(0..bench.keys.len())].clone();
        let text = key.query_text(&mut rng, true);
        let line = key.line(&text);

        // The same line with the connection's tracing on, just before or
        // just after the untraced round trip by turns, so that neither
        // always runs on warm caches. The toggles are synced with `ping`
        // outside the timed round trip.
        let traced_rtt = |client: &mut WireClient| {
            client.send_line("option obs.trace on").map_err(io)?;
            client.sync().map_err(io)?;
            let t = Instant::now();
            let response = client.request(&line).map_err(io)?;
            let micros = micros_since(t);
            client.send_line("option obs.trace off").map_err(io)?;
            client.sync().map_err(io)?;
            if !key.answered_by(&response) {
                return Err(format!("traced request missed resident key `{line}`"));
            }
            Ok(micros)
        };
        let traced_early = if attempted % 2 == 1 {
            Some(traced_rtt(&mut bench.client)?)
        } else {
            None
        };
        let t = Instant::now();
        let response = bench.client.request(&line).map_err(io)?;
        let t_rtt = micros_since(t);
        let t_traced = match traced_early {
            Some(t) => t,
            None => traced_rtt(&mut bench.client)?,
        };
        untraced.push(t_rtt);
        traced.push(t_traced);
        attempted += 1;
        if !key.answered_by(&response) {
            failed += 1;
        }

        let t = Instant::now();
        let handled = session.handle_line(&line);
        let t_handle = micros_since(t);
        if !handled.is_some_and(|r| key.answered_by(&r)) {
            return Err(format!("in-process session missed resident key `{line}`"));
        }

        let catalog = SHAPES[key.catalog].name;
        let t = Instant::now();
        let builder = service
            .request_named(catalog)
            .map_err(|e| e.to_string())?
            .query_text(&text);
        let builder = if key.synthesize {
            builder.synthesize()
        } else {
            builder.decide()
        };
        let request = builder.build().map_err(|e| e.to_string())?;
        let t_build = micros_since(t);

        // The hit time is a difference of two calls that both fingerprint
        // the request; their order alternates so that neither always runs
        // on warm caches.
        let fingerprint = || {
            let t = Instant::now();
            service
                .fingerprint_of(&request)
                .map_err(|e| e.to_string())?;
            Ok::<f64, String>(micros_since(t))
        };
        let t_fp_early = if attempted % 2 == 0 {
            Some(fingerprint()?)
        } else {
            None
        };
        let t = Instant::now();
        let answer = service.submit(&request).map_err(|e| e.to_string())?;
        let t_submit = micros_since(t);
        hits += u64::from(answer.cache_hit);
        let t_fp = match t_fp_early {
            Some(t) => t,
            None => fingerprint()?,
        };
        let sig = service
            .catalog_signature(request.catalog)
            .map_err(|e| e.to_string())?;
        let display = |v| request.values.display(v);
        let t = Instant::now();
        black_box(canonical_ucq_code(&request.query, &sig, &display));
        let t_canonical = micros_since(t);
        let mode = if key.synthesize {
            RequestMode::Synthesize
        } else {
            RequestMode::Decide
        };
        let t = Instant::now();
        black_box(response_to_json(&answer, mode, catalog, &request.values));
        let t_render = micros_since(t);

        ledger.add("net.rtt_us", t_rtt);
        ledger.add("net.transport_us", t_rtt - t_handle);
        ledger.add("api.handle_us", t_handle);
        ledger.add("api.build_us", t_build);
        ledger.add("api.render_us", t_render);
        ledger.add("service.fingerprint_us", t_fp);
        ledger.add("logic.canonical_us", t_canonical);
        ledger.add("service.hit_us", t_submit - t_fp);
        covered += (t_rtt - t_handle) + t_build + t_submit + t_render;
        handle_gap += t_handle - t_build - t_submit - t_render;
        ledger.request_done();
    }
    let n = ledger.requests() as f64;
    ledger.set("service.hit_ratio", hits as f64 / n);
    let end_to_end_us = untraced.iter().sum::<f64>() / n;
    let note = set_residual(
        &mut ledger,
        end_to_end_us,
        covered / n,
        &[(
            "WireServer::handle_line (api: line parsing and dispatch)",
            handle_gap / n,
        )],
    );
    set_trace_overhead(&mut ledger, &traced, &untraced);
    Ok(Outcome {
        attempted,
        failed,
        metrics: ledger.finish(),
        notes: note.into_iter().collect(),
    })
}
