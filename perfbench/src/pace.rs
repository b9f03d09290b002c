//! The host-speed probe.
//!
//! The benchmark host runs in speed states that last from seconds to
//! minutes: a fixed piece of allocation-, hashing- and sorting-heavy work
//! takes about 1.5× longer in the slow state than in the fast one, and
//! rbqa requests slow down with it. Which state a run meets decides its
//! percentiles more than the program does, so the untraced runs report
//! times scaled to a reference host speed.
//!
//! The probe is the benchmark's own code (standard library and the
//! vendored `rand` only, no rbqa crate), so a program change does not
//! change its work. [`Pace`] times it every [`EVERY`] of a run, between
//! requests and never inside a timed one, and once before each set-up; a
//! time measured while the median of the last three probes took `p` µs is
//! reported as `time × REFERENCE_US / p`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{micros_since, quantile};

/// The probe's time at the reference host speed, in µs (close to its time
/// in the fast state of the 2-vCPU VM the benchmark was tuned on).
pub(crate) const REFERENCE_US: f64 = 500.0;

/// How often a run probes the host.
const EVERY: Duration = Duration::from_millis(50);

/// Probes whose median sets the current speed (one slow outlier, such as
/// a probe that was preempted, does not move it).
const RECENT: usize = 3;

/// The host speed seen by a run.
#[derive(Debug)]
pub(crate) struct Pace {
    recent: [f64; RECENT],
    probes: Vec<f64>,
    last: Instant,
}

impl Pace {
    /// Probes the host [`RECENT`] times.
    pub(crate) fn new() -> Pace {
        let mut pace = Pace {
            recent: [REFERENCE_US; RECENT],
            probes: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..RECENT {
            pace.probe();
        }
        pace
    }

    /// Probes the host if the last probe is [`EVERY`] old.
    pub(crate) fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.probe();
        }
    }

    /// Probes the host now.
    pub(crate) fn probe(&mut self) {
        let micros = probe_us();
        self.recent[self.probes.len() % RECENT] = micros;
        self.probes.push(micros);
        self.last = Instant::now();
    }

    /// The factor that scales a time measured now to the reference speed.
    pub(crate) fn scale(&self) -> f64 {
        REFERENCE_US / quantile(&self.recent, 0.5)
    }

    /// The median probe time over the run so far, in µs.
    pub(crate) fn median_us(&self) -> f64 {
        quantile(&self.probes, 0.5)
    }
}

/// One probe: group 6000 seeded numbers into a hash map of vectors, render
/// each group as a string and sort the strings. Its inputs and hasher are
/// fixed, so every probe does the same work.
fn probe_us() -> f64 {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut groups: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..6000u32 {
        groups.entry(rng.gen_range(0..1500)).or_default().push(i);
    }
    let mut keys: Vec<String> = groups
        .iter()
        .map(|(k, v)| format!("{k}:{}", v.len()))
        .collect();
    keys.sort();
    black_box(&keys);
    micros_since(start)
}
