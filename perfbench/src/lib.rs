//! Closed-loop, single-client benchmark of the rbqa stack.
//!
//! Four workloads, each run in its own process by `rbqa-perfbench`:
//!
//! * `decide-ids` / `decide-fds` — uncached Decide over a seeded corpus of
//!   generated Table-1 schemas, split by constraint family so that no
//!   workload pools two latency populations (ID cases are 4–10× slower
//!   than FD cases);
//! * `serve-hot` — cached Decide/Synthesize over one loopback TCP
//!   connection to an in-process one-worker `NetServer`;
//! * `exec-crawl` — Execute of 2-disjunct unions over a generated
//!   IMDb-style world on a 4-shard backend, decisions resident.
//!
//! With `--trace 0` a workload times its closed loop (tracing off) and
//! reports the end-to-end metrics, scaled to a reference host speed by the
//! benchmark's host-speed probe (`src/pace.rs`); with `--trace 1` it runs
//! the per-layer ledger ([`ledger`]), which times the public call into
//! each crate from outside. Every answer is checked; a wrong answer counts
//! as a failed request.

pub mod crawl;
pub mod decide;
pub mod ledger;
mod pace;
pub mod serve;

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pace::Pace;

/// Length of one segment of a timed loop: a run sets its workload up
/// afresh at the start of every segment (see [`segmented`]).
pub const SEGMENT_SECONDS: f64 = 1.0;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecideIds,
    DecideFds,
    ServeHot,
    ExecCrawl,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DecideIds,
        Workload::DecideFds,
        Workload::ServeHot,
        Workload::ExecCrawl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideIds => "decide-ids",
            Workload::DecideFds => "decide-fds",
            Workload::ServeHot => "serve-hot",
            Workload::ExecCrawl => "exec-crawl",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's configuration, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop. Loops end at a pass boundary, so a
    /// run measures whole passes over its key set.
    pub seconds: f64,
    pub trace: bool,
}

/// A named metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// A run's result: the answer-check tallies and the named metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders a metric value with all its digits (`{:?}` keeps the shortest
/// round-tripping form); non-finite values would be invalid JSON.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value:?}")
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    match config.workload {
        Workload::DecideIds => decide::run(decide::Family::Ids, config),
        Workload::DecideFds => decide::run(decide::Family::Fds, config),
        Workload::ServeHot => serve::run(config),
        Workload::ExecCrawl => crawl::run(config),
    }
}

/// Microseconds elapsed since `start`, with sub-microsecond digits.
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1000.0
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs a workload's timed loop in segments of [`SEGMENT_SECONDS`] until
/// `seconds` of passes in all. Each segment sets the workload up afresh,
/// timed by `timer`, outside the timed requests and after the previous
/// set-up is dropped, then calls `pass` until the segment is over.
/// Returns the last set-up, for the answer check.
///
/// The host's speed states last seconds, so set-ups made back to back at
/// the start of a run land in one state; spread over the run, they see the
/// same mix of states as the timed requests.
pub fn segmented<T>(
    seconds: f64,
    timer: &mut Timer,
    mut setup: impl FnMut() -> Result<T, String>,
    mut pass: impl FnMut(&mut T, &mut Timer),
) -> Result<T, String> {
    let mut measured = 0.0;
    loop {
        let mut bench = timer.setup(&mut setup)?;
        let segment = Instant::now();
        let length = SEGMENT_SECONDS.min(seconds - measured);
        loop {
            pass(&mut bench, timer);
            if time_is_up(segment, length) {
                break;
            }
        }
        measured += segment.elapsed().as_secs_f64();
        if measured >= seconds {
            return Ok(bench);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Samples a timed loop keeps for its percentiles.
pub const RESERVOIR: usize = 1 << 16;

/// The timed side of an untraced run. Every request and set-up time is
/// kept as measured and scaled to the reference host speed (see
/// `src/pace.rs`); the end-to-end metrics are the scaled ones. Latencies
/// are kept in fixed memory, a uniform reservoir sample (Algorithm R) of
/// at most [`RESERVOIR`] requests, exact below that: a buffer that grew
/// with throughput would show in `peak_rss_mb` as harness memory.
#[derive(Debug)]
pub struct Timer {
    pace: Pace,
    /// `(scaled, measured)` request latencies in µs.
    samples: Vec<(f64, f64)>,
    seen: u64,
    rng: StdRng,
    /// `(scaled, measured)` set-up times in seconds.
    setups: Vec<(f64, f64)>,
}

impl Timer {
    pub fn new(seed: u64) -> Self {
        Timer {
            pace: Pace::new(),
            samples: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
            setups: Vec::new(),
        }
    }

    /// Times one request, probing the host first if a probe is due.
    pub fn request<R>(&mut self, request: impl FnOnce() -> R) -> R {
        self.pace.tick();
        let start = Instant::now();
        let response = request();
        let micros = micros_since(start);
        let sample = (micros * self.pace.scale(), micros);
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(sample);
        } else {
            let slot = self.rng.gen_range(0..self.seen);
            if let Some(s) = self.samples.get_mut(slot as usize) {
                *s = sample;
            }
        }
        response
    }

    /// Times one set-up, right after a probe of the host.
    fn setup<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.pace.probe();
        let start = Instant::now();
        let bench = setup()?;
        let seconds = start.elapsed().as_secs_f64();
        self.setups.push((seconds * self.pace.scale(), seconds));
        Ok(bench)
    }

    /// Requests timed, sampled or not.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The end-to-end metrics, in BENCHMARK.json order, and a note with
    /// the same times as measured.
    pub fn end_to_end(&self) -> Result<(Vec<Metric>, String), String> {
        if self.samples.is_empty() {
            return Err("the timed loop completed no request".into());
        }
        let scaled: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        let measured: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        let setup_scaled: Vec<f64> = self.setups.iter().map(|s| s.0).collect();
        let setup_measured: Vec<f64> = self.setups.iter().map(|s| s.1).collect();
        let metrics = vec![
            ("setup_s", quantile(&setup_scaled, 0.5), "s"),
            ("p50_us", quantile(&scaled, 0.5), "us"),
            ("p90_us", quantile(&scaled, 0.9), "us"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        let note = format!(
            "as measured: setup_s {:.4} s, p50_us {:.1} us, p90_us {:.1} us; host-speed probe median {:.1} us (reference {} us)",
            quantile(&setup_measured, 0.5),
            quantile(&measured, 0.5),
            quantile(&measured, 0.9),
            self.pace.median_us(),
            pace::REFERENCE_US
        );
        Ok((metrics, note))
    }
}

/// Whether a loop that started at `start` has used up `seconds`.
pub fn time_is_up(start: Instant, seconds: f64) -> bool {
    start.elapsed() >= Duration::from_secs_f64(seconds)
}
