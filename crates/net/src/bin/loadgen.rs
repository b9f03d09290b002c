//! `rbqa-loadgen` — a self-contained load harness for cache discipline.
//!
//! Spawns in-process [`rbqa_net::NetServer`]s on ephemeral loopback
//! ports and drives them with Zipf-skewed query popularity over many
//! generated catalogs, mixing `decide`, `execute` and batch traffic
//! across `--connections` parallel client connections. Four phases
//! measure the cache-discipline story end to end:
//!
//! 1. **cold** — a fresh, unbounded cache with a snapshot path: every
//!    popular key misses exactly once, then hits. The post-phase `stats`
//!    snapshot is the *unbounded baseline* (hit ratio + occupancy).
//! 2. **steady** — the same server, same traffic: everything is cached,
//!    giving the steady-state `decide` latency distribution.
//!    Shutting this server down writes the cache snapshot.
//! 3. **warm** — a brand-new server restarted from the snapshot replays
//!    identical traffic. `decisions_computed` must stay **zero** (every
//!    decision decodes from the snapshot instead of re-chasing) and the
//!    warm `decide` p50 must land within 2x of the steady-state p50.
//! 4. **bounded** — a fresh cold server whose byte budget is a quarter
//!    of the unbounded occupancy replays the cold traffic while a
//!    monitor connection polls `stats`. Occupancy must never exceed the
//!    budget, and the Zipf skew must keep the hit ratio at >= 80 % of
//!    the unbounded baseline.
//!
//! The traffic generator is fully deterministic (`--seed`): the warm
//! phase replays byte-identical request sequences, which is what makes
//! the `decisions_computed == 0` assertion meaningful.
//!
//! **Chaos mode** (`--chaos`) swaps the cache-discipline phases for a
//! resilience storm against one server (the `BENCH_chaos.json` story):
//!
//! 1. **clean** — union `execute` traffic against fault-free simulated
//!    remotes: the availability and latency baseline.
//! 2. **all_or_nothing** — the identical request stream, but ~10 % of
//!    requests ride a fault-injecting backend (`faults=25 transient`),
//!    and every connection asks for `option exec.retry 2`: the retry
//!    wrapper re-drives each faulted access up to twice, every retry a
//!    counted call. Degraded mode is off, so one disjunct whose faults
//!    outlast the retries fails the whole union — the availability foil.
//! 3. **degraded** — same stream, `option exec.degraded on`: unions
//!    answer from surviving disjuncts with a `partial` block. Built-in
//!    acceptance demands availability >= 99 % here, and no worse than
//!    the all-or-nothing foil (same storm, same JSON).
//! 4. **timeout** — fresh heavy-chase decides under `option
//!    exec.deadline`: every mid-flight abort must surface
//!    `REQUEST_TIMEOUT` within 2x the configured deadline, and replaying
//!    the same requests with the deadline off must succeed — aborted
//!    computes vacated (never poisoned) their cache slots.
//!
//! Every fault coin is a hash of (seed, access, attempt), so the
//! availability figures are bit-reproducible across machines; only the
//! latency columns vary. The chaos run exits non-zero when any
//! acceptance criterion fails (wedged worker, poisoned slot, code
//! outside the configured policy, unbounded timeout, availability gap,
//! fault passes that never retried).
//!
//! ```sh
//! cargo run --release -p rbqa-net --bin rbqa-loadgen -- --out BENCH_load.json
//! rbqa-loadgen --quick --out /tmp/load.json           # CI smoke preset
//! rbqa-loadgen --chaos --out BENCH_chaos.json         # resilience storm
//! rbqa-loadgen --chaos --quick --out /tmp/chaos.json  # CI chaos smoke
//! ```
//!
//! Exits 0 when every acceptance criterion holds, 1 otherwise, 2 on
//! usage or I/O errors.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rbqa_api::json::JsonObject;
use rbqa_api::WireClient;
use rbqa_net::{NetServer, ServerConfig};
use rbqa_service::QueryService;

const USAGE: &str = "usage: rbqa-loadgen [--quick] [--out PATH]
                    [--connections K] [--requests N] [--catalogs C]
                    [--queries Q] [--zipf S] [--seed N]
                    [--open-rate R] [--snapshot PATH]
                    [--mix default|exec]
       rbqa-loadgen --chaos [--quick] [--out PATH]
                    [--connections K] [--requests N] [--seed N]";

// --- deterministic RNG + Zipf sampler -----------------------------------

/// xorshift64* — tiny, seedable, good enough for load skew.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `0..n`: key `i` has probability proportional to
/// `1 / (i + 1)^s`. Sampled by inverse CDF over a precomputed table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for p in cdf.iter_mut() {
            *p /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

// --- workload generation -------------------------------------------------

/// One cacheable unit of work: a query against a generated catalog, with
/// a distinct fingerprint (the selecting constant differs per key).
struct Key {
    decide: String,
    execute: String,
}

struct Workload {
    /// Catalog/relation/method/fact directives, replayed per connection.
    setup: Vec<String>,
    keys: Vec<Key>,
}

/// `catalogs` catalogs in the shape of the paper's university example
/// (an id-producing enumerator feeding an id-keyed lookup), each with
/// `queries` distinct selecting constants => `catalogs * queries` keys.
fn generate_workload(catalogs: usize, queries: usize) -> Workload {
    let mut setup = Vec::new();
    let mut keys = Vec::new();
    for g in 0..catalogs {
        setup.push(format!("catalog load{g}"));
        setup.push(format!("relation R{g}/3"));
        setup.push(format!("relation S{g}/3"));
        setup.push(format!("constraint R{g}(i, n, s) -> S{g}(i, a, p)"));
        setup.push(format!("method mr{g} R{g} in=1"));
        setup.push(format!("method ms{g} S{g} in="));
        // A little data so `execute` has rows to chase through.
        for row in 0..3 {
            setup.push(format!("fact R{g}('{row}', 'name{g}_{row}', 'c0')"));
            setup.push(format!("fact S{g}('{row}', 'addr{g}_{row}', 'p{row}')"));
        }
        for j in 0..queries {
            let body = format!("Q(n) :- R{g}(i, n, 'c{j}')");
            keys.push(Key {
                decide: format!("decide load{g} {body}"),
                execute: format!("execute load{g} {body}"),
            });
        }
    }
    Workload { setup, keys }
}

// --- load phases ---------------------------------------------------------

#[derive(Default)]
struct PassResult {
    /// Round-trip latencies of `decide` requests, microseconds.
    decide_micros: Vec<u64>,
    /// Round-trip latencies of every request, microseconds.
    all_micros: Vec<u64>,
    requests: usize,
    errors: usize,
    /// Wall time of the slowest connection, microseconds.
    elapsed_micros: u64,
}

struct PassParams<'a> {
    addr: String,
    workload: &'a Workload,
    connections: usize,
    requests_per_conn: usize,
    zipf_s: f64,
    seed: u64,
    /// Target per-connection request rate; `0.0` means closed loop.
    open_rate: f64,
    mix: VerbMix,
}

/// Verb mix preset: the percentage of the RNG stream routed to each
/// request verb.
#[derive(Clone, Copy, PartialEq, Eq)]
enum VerbMix {
    /// Cache-friendly read traffic: ~70 % decide, ~24 % execute, ~6 % batch.
    Default,
    /// Execute-heavy traffic for the plan-execution path (adaptive
    /// windows, backends, budgets): ~10 % decide, ~85 % execute, ~5 % batch.
    Exec,
}

impl VerbMix {
    /// `(decide_below, execute_below)` thresholds over a 0..100 roll.
    fn thresholds(self) -> (u64, u64) {
        match self {
            VerbMix::Default => (70, 94),
            VerbMix::Exec => (10, 95),
        }
    }

    fn label(self) -> &'static str {
        match self {
            VerbMix::Default => "default",
            VerbMix::Exec => "exec",
        }
    }
}

/// Runs one traffic pass: `connections` threads, each replaying the
/// setup then issuing `requests_per_conn` Zipf-sampled requests. The
/// verb mix is deterministic in the RNG and set by [`VerbMix`]; batch
/// requests submit, flip back to interactive, and poll to done.
fn run_pass(params: &PassParams) -> Result<PassResult, String> {
    let zipf = Arc::new(Zipf::new(params.workload.keys.len(), params.zipf_s));
    let result = thread::scope(|scope| {
        let mut workers = Vec::new();
        for conn_idx in 0..params.connections {
            let zipf = Arc::clone(&zipf);
            workers.push(scope.spawn(move || -> Result<PassResult, String> {
                let mut client = WireClient::connect(params.addr.as_str())
                    .map_err(|e| format!("cannot connect to {}: {e}", params.addr))?;
                client
                    .send_line("rbqa/1")
                    .map_err(|e| format!("version header: {e}"))?;
                for line in &params.workload.setup {
                    client
                        .send_line(line)
                        .map_err(|e| format!("setup write failed: {e}"))?;
                }
                let pending = client.sync().map_err(|e| format!("setup sync: {e}"))?;
                if let Some(err) = pending.iter().find(|l| l.contains("\"status\":\"error\"")) {
                    return Err(format!("setup directive failed: {err}"));
                }

                // Distinct stream per connection, identical across passes
                // with the same seed (what warm replay relies on).
                let mut rng = Rng::new(params.seed.wrapping_add(conn_idx as u64 * 0x1000));
                let mut out = PassResult::default();
                let interval = if params.open_rate > 0.0 {
                    Some(Duration::from_secs_f64(1.0 / params.open_rate))
                } else {
                    None
                };
                let started = Instant::now();
                let mut next_at = started;
                for _ in 0..params.requests_per_conn {
                    if let Some(interval) = interval {
                        // Open loop: dispatch on a fixed schedule so
                        // latency includes queueing delay.
                        let now = Instant::now();
                        if next_at > now {
                            thread::sleep(next_at - now);
                        }
                        next_at += interval;
                    }
                    let key = &params.workload.keys[zipf.sample(&mut rng)];
                    let verb = rng.next_u64() % 100;
                    let (decide_below, execute_below) = params.mix.thresholds();
                    let sent = Instant::now();
                    let (response, is_decide) = if verb < decide_below {
                        (
                            client
                                .request(&key.decide)
                                .map_err(|e| format!("decide failed: {e}"))?,
                            true,
                        )
                    } else if verb < execute_below {
                        (
                            client
                                .request(&key.execute)
                                .map_err(|e| format!("execute failed: {e}"))?,
                            false,
                        )
                    } else {
                        (
                            run_batch_request(&mut client, &key.decide)
                                .map_err(|e| format!("batch failed: {e}"))?,
                            false,
                        )
                    };
                    let micros = sent.elapsed().as_micros() as u64;
                    out.requests += 1;
                    out.all_micros.push(micros);
                    if is_decide {
                        out.decide_micros.push(micros);
                    }
                    if response.contains("\"status\":\"error\"") {
                        out.errors += 1;
                    }
                }
                out.elapsed_micros = started.elapsed().as_micros() as u64;
                Ok(out)
            }));
        }
        let mut merged = PassResult::default();
        for worker in workers {
            let part = worker
                .join()
                .map_err(|_| "load connection thread panicked".to_string())??;
            merged.decide_micros.extend(part.decide_micros);
            merged.all_micros.extend(part.all_micros);
            merged.requests += part.requests;
            merged.errors += part.errors;
            merged.elapsed_micros = merged.elapsed_micros.max(part.elapsed_micros);
        }
        Ok::<PassResult, String>(merged)
    })?;
    Ok(result)
}

/// One batch round trip: submit in batch mode, restore interactive mode,
/// poll the returned `query_id` to completion.
fn run_batch_request(client: &mut WireClient, line: &str) -> std::io::Result<String> {
    client.send_line("option mode batch")?;
    let queued = client.request(line)?;
    client.send_line("option mode interactive")?;
    let Some(id) = json_u64(&queued, "query_id") else {
        // Submission itself failed; surface that response.
        return Ok(queued);
    };
    client.poll_until_finished(id, Duration::from_secs(10))
}

// --- stats-over-the-wire helpers -----------------------------------------

/// Extracts `"key":<digits>` from a JSON response line. Good enough for
/// the flat numeric fields the harness reads back.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn json_f64(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let number: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

/// Service-wide counters read over the wire (`stats` verb).
#[derive(Debug, Default, Clone, Copy)]
struct WireStats {
    lookups: u64,
    hit_ratio: f64,
    decisions_computed: u64,
    warm_hits: u64,
    occupancy_bytes: u64,
    entries: u64,
    evictions: u64,
}

fn fetch_stats(addr: &str) -> Result<WireStats, String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("stats connect failed: {e}"))?;
    client
        .send_line("rbqa/1")
        .map_err(|e| format!("stats header: {e}"))?;
    let line = client
        .request("stats")
        .map_err(|e| format!("stats request failed: {e}"))?;
    parse_stats(&line).ok_or_else(|| format!("malformed stats response: {line}"))
}

fn parse_stats(line: &str) -> Option<WireStats> {
    Some(WireStats {
        lookups: json_u64(line, "lookups")?,
        hit_ratio: json_f64(line, "hit_ratio")?,
        decisions_computed: json_u64(line, "decisions_computed")?,
        warm_hits: json_u64(line, "warm_hits")?,
        occupancy_bytes: json_u64(line, "occupancy_bytes")?,
        entries: json_u64(line, "entries")?,
        evictions: json_u64(line, "evictions")?,
    })
}

/// Polls `stats` until `stop` flips, recording the highest occupancy the
/// server ever reports — the over-the-wire check that the budget holds
/// *during* the run, not just at the end.
fn monitor_occupancy(addr: String, stop: Arc<AtomicBool>, peak: Arc<AtomicU64>) {
    let Ok(mut client) = WireClient::connect(addr.as_str()) else {
        return;
    };
    if client.send_line("rbqa/1").is_err() {
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        let Ok(line) = client.request("stats") else {
            return;
        };
        if let Some(occupancy) = json_u64(&line, "occupancy_bytes") {
            peak.fetch_max(occupancy, Ordering::Relaxed);
        }
        thread::sleep(Duration::from_millis(2));
    }
}

// --- latency summaries ---------------------------------------------------

fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn latency_json(micros: &mut [u64]) -> String {
    micros.sort_unstable();
    let mean = if micros.is_empty() {
        0
    } else {
        micros.iter().sum::<u64>() / micros.len() as u64
    };
    JsonObject::new()
        .field_u128("p50", pct(micros, 0.50) as u128)
        .field_u128("p95", pct(micros, 0.95) as u128)
        .field_u128("p99", pct(micros, 0.99) as u128)
        .field_u128("mean", mean as u128)
        .field_u128("count", micros.len() as u128)
        .finish()
}

fn phase_json(name: &str, result: &mut PassResult, stats: &WireStats) -> String {
    let throughput = if result.elapsed_micros > 0 {
        result.requests as f64 / (result.elapsed_micros as f64 / 1_000_000.0)
    } else {
        0.0
    };
    JsonObject::new()
        .field_str("phase", name)
        .field_u128("requests", result.requests as u128)
        .field_u128("errors", result.errors as u128)
        .field_raw("requests_per_sec", &format!("{throughput:.1}"))
        .field_raw(
            "decide_latency_micros",
            &latency_json(&mut result.decide_micros),
        )
        .field_raw("all_latency_micros", &latency_json(&mut result.all_micros))
        .field_u128("lookups", stats.lookups as u128)
        .field_raw("hit_ratio", &format!("{:.4}", stats.hit_ratio))
        .field_u128("decisions_computed", stats.decisions_computed as u128)
        .field_u128("warm_hits", stats.warm_hits as u128)
        .field_u128("occupancy_bytes", stats.occupancy_bytes as u128)
        .field_u128("entries", stats.entries as u128)
        .field_u128("evictions", stats.evictions as u128)
        .finish()
}

// --- configuration -------------------------------------------------------

struct LoadConfig {
    out: Option<PathBuf>,
    chaos: bool,
    connections: usize,
    requests_per_conn: usize,
    catalogs: usize,
    queries: usize,
    zipf_s: f64,
    seed: u64,
    open_rate: f64,
    snapshot: Option<PathBuf>,
    mix: VerbMix,
}

fn parse_args(args: &[String]) -> Result<LoadConfig, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let chaos = args.iter().any(|a| a == "--chaos");
    let mut config = if chaos {
        // Chaos sizes: enough requests that the ~10 % fault burst has a
        // three-digit sample in the full run.
        LoadConfig {
            out: None,
            chaos: true,
            connections: if quick { 2 } else { 4 },
            requests_per_conn: if quick { 120 } else { 300 },
            catalogs: 3,
            queries: 8,
            zipf_s: 1.1,
            seed: 0xC0FFEE,
            open_rate: 0.0,
            snapshot: None,
            mix: VerbMix::Default,
        }
    } else if quick {
        // The keyspace must stay wide enough for LRU to matter: with too
        // few keys the top-quarter Zipf mass is small and the bounded
        // phase cannot reach 80 % of the unbounded hit ratio.
        LoadConfig {
            out: None,
            chaos: false,
            connections: 2,
            requests_per_conn: 150,
            catalogs: 4,
            queries: 15,
            zipf_s: 1.5,
            seed: 0xC0FFEE,
            open_rate: 0.0,
            snapshot: None,
            mix: VerbMix::Default,
        }
    } else {
        LoadConfig {
            out: None,
            chaos: false,
            connections: 4,
            requests_per_conn: 400,
            catalogs: 8,
            queries: 25,
            zipf_s: 1.3,
            seed: 0xC0FFEE,
            open_rate: 0.0,
            snapshot: None,
            mix: VerbMix::Default,
        }
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" | "--chaos" => {}
            "--out" => config.out = Some(value("--out")?.into()),
            "--snapshot" => config.snapshot = Some(value("--snapshot")?.into()),
            "--connections" => config.connections = parse_count(&value("--connections")?)?,
            "--requests" => config.requests_per_conn = parse_count(&value("--requests")?)?,
            "--catalogs" => config.catalogs = parse_count(&value("--catalogs")?)?,
            "--queries" => config.queries = parse_count(&value("--queries")?)?,
            "--zipf" => {
                config.zipf_s = value("--zipf")?
                    .parse()
                    .map_err(|_| "--zipf expects a number".to_string())?
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--open-rate" => {
                config.open_rate = value("--open-rate")?
                    .parse()
                    .map_err(|_| "--open-rate expects a number".to_string())?
            }
            "--mix" => {
                config.mix = match value("--mix")?.as_str() {
                    "default" => VerbMix::Default,
                    "exec" => VerbMix::Exec,
                    other => return Err(format!("unknown mix `{other}` (default|exec)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(config)
}

fn parse_count(text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("expected a positive integer, got `{text}`")),
    }
}

// --- chaos mode ----------------------------------------------------------

/// Fault-burst probability of the chaos storm, percent of requests.
const CHAOS_BURST_PCT: u64 = 10;
/// Per-access fault rate inside a burst request. Transient faults at
/// this rate outlast [`CHAOS_RETRIES`] retries often enough to fail
/// whole unions in all-or-nothing mode, while a degraded union almost
/// always keeps one disjunct alive (disjunct failures correlate through
/// shared access keys, so the rate is tuned against the measured — and
/// seed-deterministic — both-disjuncts-fail probability).
const CHAOS_FAULT_PCT: u64 = 25;
/// `option exec.retry` of the fault passes: three attempts per access.
/// Each retry spends a call and shows in `stats`, and the window's retry
/// budget (16 by default) bounds a request's retries.
const CHAOS_RETRIES: u32 = 2;
/// `option exec.deadline` of the timeout phase, microseconds. The heavy
/// chain catalog's fresh decide takes well past this, so every request
/// times out. The decision checks the deadline before each stage that
/// runs ahead of the chase (the linearization build, the completeness
/// bound, the chase setup) and at every chase round, so a request
/// overshoots by at most its longest unchecked stage — the linearization
/// build, a few milliseconds on the heavy chain — plus scheduler jitter.
/// The deadline is sized to leave the 2x response-time bound a full
/// deadline's worth of slack for that on a noisy CI box.
const CHAOS_DEADLINE_MICROS: u64 = 10_000;
/// Length of the heavy catalog's constraint chain. The chase runs to the
/// budget's depth along it, and [`CHAOS_HEAVY_BRANCHES`] sets the work
/// per round, so an undisturbed fresh decide takes ~1.5x the deadline:
/// long enough that all storm requests time out, short enough that the
/// no-deadline replay stays cheap.
const CHAOS_HEAVY_CHAIN: usize = 192;
/// Constant-led side atoms of the heavy decide's query (see
/// [`heavy_decide`]): chase work that checks the deadline every round,
/// where a longer chain would also lengthen the unchecked linearization
/// build. With six, an undisturbed fresh decide takes about 1.5x the
/// deadline; a faster decide needs more of them, or the storm stops
/// timing out.
const CHAOS_HEAVY_BRANCHES: usize = 6;
/// Requests in the timeout storm (and its no-deadline replay).
const CHAOS_TIMEOUT_REQUESTS: usize = 12;

/// The chaos traffic: union `execute` keys over the generated catalogs
/// (two disjuncts per union — the degradable unit) plus a heavy
/// chain-of-constraints catalog whose fresh decides run long enough to
/// hit an armed deadline.
struct ChaosWorkload {
    setup: Vec<String>,
    unions: Vec<String>,
}

fn generate_chaos_workload(catalogs: usize, queries: usize) -> ChaosWorkload {
    let base = generate_workload(catalogs, queries);
    let mut setup = base.setup;
    let mut unions = Vec::new();
    for g in 0..catalogs {
        for j in 0..queries {
            unions.push(format!(
                "execute load{g} Q(n) :- R{g}(i, n, 'c{j}') || Q(a) :- S{g}(i, a, p)"
            ));
        }
    }
    setup.push("catalog heavy".to_string());
    for i in 0..CHAOS_HEAVY_CHAIN {
        setup.push(format!("relation C{i}/3"));
    }
    for i in 0..CHAOS_HEAVY_CHAIN - 1 {
        setup.push(format!("constraint C{i}(x, y, w) -> C{}(y, z, v)", i + 1));
    }
    setup.push("method hm0 C0 in=".to_string());
    for i in 1..CHAOS_HEAVY_CHAIN {
        setup.push(format!("method hm{i} C{i} in=1"));
    }
    for r in 0..8 {
        setup.push(format!("fact C0('a{r}', 'b{r}', 'c{r}')"));
    }
    ChaosWorkload { setup, unions }
}

/// A decide against the heavy catalog with a fresh selecting constant:
/// a guaranteed cache miss, so the full multi-millisecond chase runs.
/// Each of the [`CHAOS_HEAVY_BRANCHES`] side atoms `C{3+j}('k{j}', ..)`
/// starts one more chain whose values are all accessible (its first
/// position is a constant and the method on it takes that position), so
/// every chase round carries its annotated and primed copies too.
fn heavy_decide(tag: &str, idx: usize) -> String {
    let branches: String = (0..CHAOS_HEAVY_BRANCHES)
        .map(|j| format!(", C{}('k{j}', b{j}, c{j})", 3 + j))
        .collect();
    format!("decide heavy Q(y) :- C0(x, y, w), C1(y, z, v), C2(z, u, '{tag}{idx}'){branches}")
}

#[derive(Default)]
struct ChaosPassResult {
    requests: usize,
    ok: usize,
    partials: usize,
    /// `"code" -> count` over error responses.
    errors_by_code: std::collections::BTreeMap<String, usize>,
    all_micros: Vec<u64>,
}

impl ChaosPassResult {
    fn availability(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.ok as f64 / self.requests as f64
        }
    }

    fn merge(&mut self, other: ChaosPassResult) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.partials += other.partials;
        for (code, n) in other.errors_by_code {
            *self.errors_by_code.entry(code).or_default() += n;
        }
        self.all_micros.extend(other.all_micros);
    }

    fn record(&mut self, response: &str, micros: u64) {
        self.requests += 1;
        self.all_micros.push(micros);
        if response.contains("\"status\":\"error\"") {
            let code = json_str(response, "code").unwrap_or_else(|| "UNPARSEABLE".to_string());
            *self.errors_by_code.entry(code).or_default() += 1;
        } else {
            self.ok += 1;
            if response.contains("\"partial\":true") {
                self.partials += 1;
            }
        }
    }
}

/// Extracts `"key":"value"` from a JSON response line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let rest = &line[line.find(&marker)? + marker.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// One storm pass: every connection replays the setup, then issues
/// `requests_per_conn` Zipf-sampled union executes. Each request first
/// selects its backend over the wire: ~`CHAOS_BURST_PCT` % ride a
/// fault-injecting remote, the rest a fault-free one. The RNG stream is
/// a pure function of (seed, connection), so the all-or-nothing and
/// degraded passes see byte-identical request/burst/seed sequences —
/// the availability gap is attributable to `exec.degraded` alone.
fn run_chaos_pass(
    addr: &str,
    workload: &ChaosWorkload,
    config: &LoadConfig,
    faults: bool,
    degraded: bool,
) -> Result<ChaosPassResult, String> {
    let zipf = Arc::new(Zipf::new(workload.unions.len(), config.zipf_s));
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for conn_idx in 0..config.connections {
            let zipf = Arc::clone(&zipf);
            workers.push(scope.spawn(move || -> Result<ChaosPassResult, String> {
                let mut client = WireClient::connect(addr)
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                client
                    .send_line("rbqa/1")
                    .map_err(|e| format!("version header: {e}"))?;
                for line in &workload.setup {
                    client
                        .send_line(line)
                        .map_err(|e| format!("setup write failed: {e}"))?;
                }
                if faults {
                    client
                        .send_line(&format!("option exec.retry {CHAOS_RETRIES}"))
                        .map_err(|e| format!("retry option: {e}"))?;
                }
                if degraded {
                    client
                        .send_line("option exec.degraded on")
                        .map_err(|e| format!("degraded option: {e}"))?;
                }
                let pending = client.sync().map_err(|e| format!("setup sync: {e}"))?;
                if let Some(err) = pending.iter().find(|l| l.contains("\"status\":\"error\"")) {
                    return Err(format!("setup directive failed: {err}"));
                }
                let mut rng = Rng::new(config.seed.wrapping_add(conn_idx as u64 * 0x1000));
                let mut out = ChaosPassResult::default();
                for _ in 0..config.requests_per_conn {
                    let key = &workload.unions[zipf.sample(&mut rng)];
                    let burst = rng.next_u64() % 100 < CHAOS_BURST_PCT;
                    let backend_seed = rng.next_u64() % 1_000;
                    let spec = if faults && burst {
                        format!(
                            "option exec.backend remote seed={backend_seed} latency=0 \
                             faults={CHAOS_FAULT_PCT} transient"
                        )
                    } else {
                        format!("option exec.backend remote seed={backend_seed} latency=0 faults=0")
                    };
                    client
                        .send_line(&spec)
                        .map_err(|e| format!("backend option: {e}"))?;
                    let sent = Instant::now();
                    let response = client
                        .request(key)
                        .map_err(|e| format!("chaos request failed: {e}"))?;
                    out.record(&response, sent.elapsed().as_micros() as u64);
                }
                Ok(out)
            }));
        }
        let mut merged = ChaosPassResult::default();
        for worker in workers {
            // A worker that cannot report back is the wedged-worker
            // signal the acceptance gate looks for.
            merged.merge(
                worker.join().map_err(|_| {
                    "chaos connection thread panicked (wedged worker)".to_string()
                })??,
            );
        }
        Ok(merged)
    })
}

struct TimeoutPassResult {
    storm: ChaosPassResult,
    /// Client-observed round-trip of every `REQUEST_TIMEOUT` response —
    /// the bound the acceptance gate checks is what the *client* waits.
    timeout_micros: Vec<u64>,
    /// The no-deadline replay of the same requests (poisoning probe).
    replay: ChaosPassResult,
}

/// The timeout storm: fresh heavy decides under an armed
/// `exec.deadline`, then the same requests replayed with the deadline
/// off. The replay proves the aborted computes left vacated — not
/// poisoned — cache slots: every replayed request must now complete.
fn run_timeout_pass(addr: &str, workload: &ChaosWorkload) -> Result<TimeoutPassResult, String> {
    let mut client =
        WireClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .send_line("rbqa/1")
        .map_err(|e| format!("version header: {e}"))?;
    for line in &workload.setup {
        client
            .send_line(line)
            .map_err(|e| format!("setup write failed: {e}"))?;
    }
    let pending = client.sync().map_err(|e| format!("setup sync: {e}"))?;
    if let Some(err) = pending.iter().find(|l| l.contains("\"status\":\"error\"")) {
        return Err(format!("setup directive failed: {err}"));
    }

    // Warm-up decide before arming the deadline: the first request on a
    // fresh catalog pays its (unbounded, one-off) lazy registration,
    // which is not part of the deadline-governed computation the 2x
    // response bound is about.
    let warmup = client
        .request(&heavy_decide("warmup", 0))
        .map_err(|e| format!("warmup request failed: {e}"))?;
    if warmup.contains("\"status\":\"error\"") {
        return Err(format!("heavy-catalog warmup failed: {warmup}"));
    }

    client
        .send_line(&format!("option exec.deadline {CHAOS_DEADLINE_MICROS}"))
        .map_err(|e| format!("deadline option: {e}"))?;
    let mut storm = ChaosPassResult::default();
    let mut timeout_micros = Vec::new();
    for idx in 0..CHAOS_TIMEOUT_REQUESTS {
        let sent = Instant::now();
        let response = client
            .request(&heavy_decide("t", idx))
            .map_err(|e| format!("timeout request failed: {e}"))?;
        let micros = sent.elapsed().as_micros() as u64;
        storm.record(&response, micros);
        if response.contains("\"code\":\"REQUEST_TIMEOUT\"") {
            timeout_micros.push(micros);
        }
    }

    client
        .send_line("option exec.deadline off")
        .map_err(|e| format!("deadline option: {e}"))?;
    let mut replay = ChaosPassResult::default();
    for idx in 0..CHAOS_TIMEOUT_REQUESTS {
        let sent = Instant::now();
        let response = client
            .request(&heavy_decide("t", idx))
            .map_err(|e| format!("timeout replay failed: {e}"))?;
        replay.record(&response, sent.elapsed().as_micros() as u64);
    }
    Ok(TimeoutPassResult {
        storm,
        timeout_micros,
        replay,
    })
}

fn chaos_phase_json(name: &str, result: &mut ChaosPassResult) -> String {
    let mut codes = JsonObject::new();
    for (code, n) in &result.errors_by_code {
        codes = codes.field_u128(code, *n as u128);
    }
    JsonObject::new()
        .field_str("phase", name)
        .field_u128("requests", result.requests as u128)
        .field_u128("ok", result.ok as u128)
        .field_u128("partials", result.partials as u128)
        .field_raw("availability", &format!("{:.4}", result.availability()))
        .field_raw("errors_by_code", &codes.finish())
        .field_raw("latency_micros", &latency_json(&mut result.all_micros))
        .finish()
}

fn run_chaos(config: &LoadConfig) -> Result<bool, String> {
    let workload = generate_chaos_workload(config.catalogs, config.queries);
    // +1 worker so the timeout/probe connection never queues behind load.
    let (server, addr) = spawn_server(None, None, config.connections + 1)?;
    eprintln!(
        "rbqa-loadgen: chaos storm — {} connections x {} requests over {} union keys, \
         {CHAOS_BURST_PCT}% burst @ faults={CHAOS_FAULT_PCT} with {CHAOS_RETRIES} retries, \
         deadline {CHAOS_DEADLINE_MICROS} us",
        config.connections,
        config.requests_per_conn,
        workload.unions.len(),
    );

    // Phase 1: fault-free baseline (availability + latency reference).
    let mut clean = run_chaos_pass(&addr, &workload, config, false, false)?;
    // Phase 2: the fault storm with all-or-nothing unions (the foil).
    let mut strict = run_chaos_pass(&addr, &workload, config, true, false)?;
    // Phase 3: the identical storm with degraded unions.
    let mut degraded = run_chaos_pass(&addr, &workload, config, true, true)?;
    // Phase 4: deadline storm + no-deadline replay on the heavy catalog.
    let mut timeout = run_timeout_pass(&addr, &workload)?;

    // Liveness probe: after the storms every pool worker must still
    // serve a fresh connection (no wedged workers), and the service
    // counters must be readable.
    let mut probe_ok = true;
    for _ in 0..config.connections + 1 {
        let mut client =
            WireClient::connect(addr.as_str()).map_err(|e| format!("probe connect: {e}"))?;
        client
            .send_line("rbqa/1")
            .map_err(|e| format!("probe header: {e}"))?;
        let pong = client
            .request("ping")
            .map_err(|e| format!("probe ping failed: {e}"))?;
        probe_ok &= pong.contains("\"pong\":true");
    }
    let stats_line = {
        let mut client =
            WireClient::connect(addr.as_str()).map_err(|e| format!("stats connect: {e}"))?;
        client
            .send_line("rbqa/1")
            .map_err(|e| format!("stats header: {e}"))?;
        client
            .request("stats")
            .map_err(|e| format!("stats request failed: {e}"))?
    };
    let stat = |key: &str| json_u64(&stats_line, key).unwrap_or(0);
    let (stats_degraded, stats_timeouts, stats_retries, stats_rejections) = (
        stat("degraded_responses"),
        stat("deadline_timeouts"),
        stat("retries"),
        stat("breaker_rejections"),
    );
    server
        .shutdown_and_join()
        .map_err(|e| format!("chaos server shutdown failed: {e}"))?;

    // Acceptance criteria (ISSUE 9 tentpole d).
    let clean_ok = clean.availability() == 1.0 && clean.partials == 0;
    let degraded_available = degraded.availability() >= 0.99;
    let degraded_beats_strict = degraded.availability() >= strict.availability();
    let partials_served = degraded.partials > 0 && strict.partials == 0;
    let policy_codes_only = clean.errors_by_code.is_empty()
        && strict
            .errors_by_code
            .keys()
            .all(|c| c == "BACKEND_UNAVAILABLE")
        && degraded
            .errors_by_code
            .keys()
            .all(|c| c == "BACKEND_UNAVAILABLE")
        && timeout
            .storm
            .errors_by_code
            .keys()
            .all(|c| c == "REQUEST_TIMEOUT");
    let timeouts_fired = !timeout.timeout_micros.is_empty();
    let timeout_bound = 2 * CHAOS_DEADLINE_MICROS;
    let timeouts_bounded = timeout.timeout_micros.iter().all(|&m| m <= timeout_bound);
    let no_poisoned_slots = timeout.replay.availability() == 1.0;
    let timeouts_counted = stats_timeouts >= timeout.timeout_micros.len() as u64
        && stats_degraded >= degraded.partials as u64;
    let retries_counted = stats_retries > 0;
    clean.all_micros.sort_unstable();
    strict.all_micros.sort_unstable();
    degraded.all_micros.sort_unstable();
    let clean_p99 = pct(&clean.all_micros, 0.99);
    let storm_p99 = pct(&strict.all_micros, 0.99).max(pct(&degraded.all_micros, 0.99));
    // The storm may re-chase burst fingerprints, so the bound is a wide
    // multiple of clean p99 with an absolute floor for fast machines.
    let p99_cap = (20 * clean_p99).max(10_000);
    let p99_bounded = storm_p99 <= p99_cap;
    let no_wedged_workers = probe_ok;
    let pass = clean_ok
        && degraded_available
        && degraded_beats_strict
        && partials_served
        && policy_codes_only
        && timeouts_fired
        && timeouts_bounded
        && no_poisoned_slots
        && timeouts_counted
        && retries_counted
        && p99_bounded
        && no_wedged_workers;

    eprintln!(
        "rbqa-loadgen: clean {:.4} | all-or-nothing {:.4} | degraded {:.4} \
         ({} partials) | {} timeouts (max {} us, bound {timeout_bound} us) | \
         storm p99 {storm_p99} us (cap {p99_cap} us)",
        clean.availability(),
        strict.availability(),
        degraded.availability(),
        degraded.partials,
        timeout.timeout_micros.len(),
        timeout.timeout_micros.iter().max().copied().unwrap_or(0),
    );
    for (ok, what) in [
        (clean_ok, "fault-free pass fully available, no partials"),
        (
            degraded_available,
            "degraded availability >= 99% under the burst",
        ),
        (
            degraded_beats_strict,
            "degraded availability >= all-or-nothing foil",
        ),
        (
            partials_served,
            "partials served only under exec.degraded on",
        ),
        (
            policy_codes_only,
            "error codes match policy (BACKEND_UNAVAILABLE / REQUEST_TIMEOUT)",
        ),
        (
            timeouts_fired,
            "deadline storm produced mid-flight timeouts",
        ),
        (
            timeouts_bounded,
            "every timeout answered within 2x the configured deadline",
        ),
        (
            no_poisoned_slots,
            "no-deadline replay fully available (no poisoned cache slots)",
        ),
        (
            timeouts_counted,
            "service counters account the timeouts and degraded responses",
        ),
        (
            retries_counted,
            "the fault passes retried transient faults (stats retries > 0)",
        ),
        (p99_bounded, "storm p99 within the latency cap"),
        (
            no_wedged_workers,
            "every pool worker answered the liveness probe",
        ),
    ] {
        eprintln!("rbqa-loadgen: [{}] {what}", if ok { "ok" } else { "FAIL" });
    }

    if let Some(path) = &config.out {
        let acceptance = JsonObject::new()
            .field_bool("clean_fully_available", clean_ok)
            .field_bool("degraded_availability_at_least_99pct", degraded_available)
            .field_bool("degraded_beats_all_or_nothing", degraded_beats_strict)
            .field_bool("partials_only_when_degraded", partials_served)
            .field_bool("error_codes_match_policy", policy_codes_only)
            .field_bool("timeouts_fired", timeouts_fired)
            .field_bool("timeouts_within_2x_deadline", timeouts_bounded)
            .field_bool("no_poisoned_cache_slots", no_poisoned_slots)
            .field_bool("resilience_counters_consistent", timeouts_counted)
            .field_bool("retries_counted", retries_counted)
            .field_bool("p99_bounded", p99_bounded)
            .field_bool("no_wedged_workers", no_wedged_workers)
            .field_bool("pass", pass)
            .finish();
        let timeout_detail = JsonObject::new()
            .field_u128("deadline_micros", CHAOS_DEADLINE_MICROS as u128)
            .field_u128("bound_micros", timeout_bound as u128)
            .field_u128("timeouts", timeout.timeout_micros.len() as u128)
            .field_u128(
                "max_timeout_micros",
                timeout.timeout_micros.iter().max().copied().unwrap_or(0) as u128,
            )
            .finish();
        let resilience = JsonObject::new()
            .field_u128("degraded_responses", stats_degraded as u128)
            .field_u128("deadline_timeouts", stats_timeouts as u128)
            .field_u128("retries", stats_retries as u128)
            .field_u128("breaker_rejections", stats_rejections as u128)
            .finish();
        let phases = format!(
            "[{},{},{},{},{}]",
            chaos_phase_json("clean", &mut clean),
            chaos_phase_json("all_or_nothing", &mut strict),
            chaos_phase_json("degraded", &mut degraded),
            chaos_phase_json("timeout_storm", &mut timeout.storm),
            chaos_phase_json("timeout_replay", &mut timeout.replay),
        );
        let report = JsonObject::new()
            .field_u128("v", 1)
            .field_str("kind", "bench")
            .field_str("target", "chaos")
            .field_u128("connections", config.connections as u128)
            .field_u128("requests_per_connection", config.requests_per_conn as u128)
            .field_u128("union_keys", workload.unions.len() as u128)
            .field_u128("burst_pct", CHAOS_BURST_PCT as u128)
            .field_u128("fault_pct", CHAOS_FAULT_PCT as u128)
            .field_u128("exec_retry", CHAOS_RETRIES as u128)
            .field_u128("seed", config.seed as u128)
            .field_raw("timeout", &timeout_detail)
            .field_raw("resilience_counters", &resilience)
            .field_raw("phases", &phases)
            .field_raw("acceptance", &acceptance)
            .finish();
        std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        eprintln!("rbqa-loadgen: wrote {}", path.display());
    }
    Ok(pass)
}

// --- main ----------------------------------------------------------------

fn spawn_server(
    cache_bytes: Option<u64>,
    snapshot: Option<PathBuf>,
    workers: usize,
) -> Result<(rbqa_net::ServerHandle, String), String> {
    let config = ServerConfig {
        workers,
        cache_bytes,
        cache_snapshot: snapshot,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(config, Arc::new(QueryService::new()))
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok((server.spawn(), addr))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("rbqa-loadgen: {msg}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let config = parse_args(args)?;
    if config.chaos {
        return run_chaos(&config);
    }
    let snapshot = config.snapshot.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("rbqa-loadgen-{}.snap", std::process::id()))
    });
    // A stale snapshot from a previous run would fake the warm phase.
    let _ = std::fs::remove_file(&snapshot);

    let workload = generate_workload(config.catalogs, config.queries);
    let keys = workload.keys.len();
    // +1 worker so the stats/monitor connection never queues behind load.
    let workers = config.connections + 1;
    let params = |addr: String| PassParams {
        addr,
        workload: &workload,
        connections: config.connections,
        requests_per_conn: config.requests_per_conn,
        zipf_s: config.zipf_s,
        seed: config.seed,
        open_rate: config.open_rate,
        mix: config.mix,
    };
    eprintln!(
        "rbqa-loadgen: {} connections x {} requests over {keys} keys \
         ({} catalogs), zipf s={}, {} loop, {} mix",
        config.connections,
        config.requests_per_conn,
        config.catalogs,
        config.zipf_s,
        if config.open_rate > 0.0 {
            "open"
        } else {
            "closed"
        },
        config.mix.label(),
    );

    // Phase 1+2: cold then steady on one unbounded server with a
    // snapshot path; shutdown writes the snapshot.
    let (server, addr) = spawn_server(None, Some(snapshot.clone()), workers)?;
    let mut cold = run_pass(&params(addr.clone()))?;
    let cold_stats = fetch_stats(&addr)?;
    let mut steady = run_pass(&params(addr.clone()))?;
    let steady_stats = fetch_stats(&addr)?;
    server
        .shutdown_and_join()
        .map_err(|e| format!("cold server shutdown failed: {e}"))?;

    // Phase 3: warm restart from the snapshot, identical traffic.
    let (server, addr) = spawn_server(None, Some(snapshot.clone()), workers)?;
    let mut warm = run_pass(&params(addr.clone()))?;
    let warm_stats = fetch_stats(&addr)?;
    server
        .shutdown_and_join()
        .map_err(|e| format!("warm server shutdown failed: {e}"))?;

    // Phase 4: a fresh cold server at a quarter of the unbounded
    // occupancy, with a live occupancy monitor.
    let budget = (cold_stats.occupancy_bytes / 4).max(1);
    let (server, addr) = spawn_server(Some(budget), None, workers)?;
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let monitor = {
        let (addr, stop, peak) = (addr.clone(), Arc::clone(&stop), Arc::clone(&peak));
        thread::spawn(move || monitor_occupancy(addr, stop, peak))
    };
    let mut bounded = run_pass(&params(addr.clone()))?;
    let bounded_stats = fetch_stats(&addr)?;
    stop.store(true, Ordering::Relaxed);
    monitor.join().map_err(|_| "monitor thread panicked")?;
    server
        .shutdown_and_join()
        .map_err(|e| format!("bounded server shutdown failed: {e}"))?;
    let peak_occupancy = peak
        .load(Ordering::Relaxed)
        .max(bounded_stats.occupancy_bytes);

    if config.snapshot.is_none() {
        let _ = std::fs::remove_file(&snapshot);
    }

    // Acceptance criteria.
    steady.decide_micros.sort_unstable();
    warm.decide_micros.sort_unstable();
    let steady_p50 = pct(&steady.decide_micros, 0.50);
    let warm_p50 = pct(&warm.decide_micros, 0.50);
    let warm_within_2x = warm_p50 <= steady_p50.saturating_mul(2);
    let warm_no_recompute = warm_stats.decisions_computed == 0;
    let warm_beats_cold = warm_stats.hit_ratio > cold_stats.hit_ratio;
    let bounded_ratio_ok = bounded_stats.hit_ratio >= 0.8 * cold_stats.hit_ratio;
    let occupancy_bounded = peak_occupancy <= budget;
    let no_errors = cold.errors + steady.errors + warm.errors + bounded.errors == 0;
    let pass = warm_within_2x
        && warm_no_recompute
        && warm_beats_cold
        && bounded_ratio_ok
        && occupancy_bounded
        && no_errors;

    eprintln!(
        "rbqa-loadgen: cold hit {:.3} | steady decide p50 {steady_p50} us | \
         warm decide p50 {warm_p50} us ({} recomputed, {} warm hits) | \
         bounded hit {:.3} @ budget {budget} B (peak {peak_occupancy} B, {} evictions)",
        cold_stats.hit_ratio,
        warm_stats.decisions_computed,
        warm_stats.warm_hits,
        bounded_stats.hit_ratio,
        bounded_stats.evictions,
    );
    for (ok, what) in [
        (warm_within_2x, "warm decide p50 within 2x of steady"),
        (warm_no_recompute, "warm restart recomputed no decisions"),
        (warm_beats_cold, "warm hit ratio above cold"),
        (bounded_ratio_ok, "bounded hit ratio >= 80% of unbounded"),
        (occupancy_bounded, "occupancy never exceeded the budget"),
        (no_errors, "no error responses"),
    ] {
        eprintln!("rbqa-loadgen: [{}] {what}", if ok { "ok" } else { "FAIL" });
    }

    if let Some(path) = &config.out {
        let acceptance = JsonObject::new()
            .field_bool("warm_p50_within_2x_of_steady", warm_within_2x)
            .field_bool("warm_no_recompute", warm_no_recompute)
            .field_bool("warm_hit_ratio_above_cold", warm_beats_cold)
            .field_bool("bounded_hit_ratio_at_least_80pct", bounded_ratio_ok)
            .field_bool("occupancy_within_budget", occupancy_bounded)
            .field_bool("no_errors", no_errors)
            .field_bool("pass", pass)
            .finish();
        let phases = format!(
            "[{},{},{},{}]",
            phase_json("cold", &mut cold, &cold_stats),
            phase_json("steady", &mut steady, &steady_stats),
            phase_json("warm", &mut warm, &warm_stats),
            phase_json("bounded", &mut bounded, &bounded_stats),
        );
        let report = JsonObject::new()
            .field_u128("v", 1)
            .field_str("kind", "bench")
            .field_str("target", "load")
            .field_u128("connections", config.connections as u128)
            .field_u128("requests_per_connection", config.requests_per_conn as u128)
            .field_u128("catalogs", config.catalogs as u128)
            .field_u128("keys", keys as u128)
            .field_raw("zipf_s", &format!("{}", config.zipf_s))
            .field_u128("seed", config.seed as u128)
            .field_str("mix", config.mix.label())
            .field_str(
                "loop",
                if config.open_rate > 0.0 {
                    "open"
                } else {
                    "closed"
                },
            )
            .field_u128("cache_budget_bytes", budget as u128)
            .field_u128("peak_occupancy_bytes", peak_occupancy as u128)
            .field_raw("phases", &phases)
            .field_raw("acceptance", &acceptance)
            .finish();
        std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        eprintln!("rbqa-loadgen: wrote {}", path.display());
    }
    Ok(pass)
}
