//! The per-layer ledger of a traced run.
//!
//! The layers are the workspace crates. Each metric times or counts a
//! public call into a crate from outside the program, averaged per
//! request; no span is added inside the program. A workload reports every
//! metric: a layer its requests never reach reads 0. Where a step cannot
//! be called from outside (for example core's private `method_signatures`
//! ahead of `LinearizedSchema::build`, or the union wrapper around the
//! per-CQ pipeline), its time stays in the enclosing call and shows up in
//! `residual_share`.

use std::collections::BTreeMap;
use std::time::Instant;

use rbqa_access::{AccessBackend, AccessError, AccessMethod, AccessResponse};
use rbqa_common::Value;

/// Every per-layer metric with its unit, in BENCHMARK.json order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.rtt_us", "us"),
    ("net.transport_us", "us"),
    ("api.handle_us", "us"),
    ("api.build_us", "us"),
    ("api.render_us", "us"),
    ("service.fingerprint_us", "us"),
    ("logic.canonical_us", "us"),
    ("service.hit_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.miss_overhead_us", "us"),
    ("service.encode_us", "us"),
    ("core.classify_us", "us"),
    ("core.simplify_us", "us"),
    ("core.amondet_build_us", "us"),
    ("core.plan_us", "us"),
    ("containment.linearize_us", "us"),
    ("containment.decide_us", "us"),
    ("containment.saturation_us", "us"),
    ("containment.match_us", "us"),
    ("chase.chase_us", "us"),
    ("chase.fd_fixpoint_us", "us"),
    ("chase.rounds", "count"),
    ("chase.trigger_firings", "count"),
    ("logic.posting_probes", "count"),
    ("logic.backtracks", "count"),
    ("engine.partition_us", "us"),
    ("engine.run_us", "us"),
    ("access.exec_us", "us"),
    ("access.backend_us", "us"),
    ("access.executor_self_us", "us"),
    ("access.calls", "count"),
    ("access.tuples_matched", "count"),
    ("access.tuples_fetched", "count"),
    ("access.useful_call_share", "ratio"),
    ("access.distinct_call_share", "ratio"),
    ("adapt.exec_us", "us"),
    ("adapt.calls", "count"),
    ("backend_calls_per_req", "calls"),
    ("residual_share", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// Residual share above which the ledger names the call that holds it.
pub const RESIDUAL_BAR: f64 = 0.10;

/// Per-request sums of the ledger's timings and counts.
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
    requests: u64,
}

impl Ledger {
    /// Adds one request's contribution to a per-request average.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Sets a metric that is not a per-request average (a ratio).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.fixed.insert(name, value);
    }

    /// Counts one ledgered request.
    pub fn request_done(&mut self) {
        self.requests += 1;
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The per-request average of a summed metric so far (0 when absent).
    fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.requests.max(1) as f64
    }

    /// Every per-layer metric, averaged per request.
    pub fn finish(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match self.fixed.get(name) {
                    Some(v) => *v,
                    None => self.mean(name),
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// Sets `residual_share` from the end-to-end mean and the covered means,
/// and returns a note naming the enclosing call with the largest
/// unexplained gap when the residual exceeds [`RESIDUAL_BAR`].
pub fn set_residual(
    ledger: &mut Ledger,
    end_to_end_us: f64,
    covered_us: f64,
    gaps: &[(&str, f64)],
) -> Option<String> {
    let residual = 1.0 - covered_us / end_to_end_us;
    ledger.set("residual_share", residual);
    if residual <= RESIDUAL_BAR {
        return None;
    }
    let (holder, gap) = gaps
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("the request", end_to_end_us - covered_us));
    Some(format!(
        "residual_share {residual:.3} exceeds {RESIDUAL_BAR}: largest unexplained gap {gap:.1} us/request is inside {holder}"
    ))
}

/// Sets `trace_overhead_pct` from interleaved traced and untraced samples
/// of the same requests.
pub fn set_trace_overhead(ledger: &mut Ledger, traced_us: &[f64], untraced_us: &[f64]) {
    let traced = crate::quantile(traced_us, 0.5);
    let untraced = crate::quantile(untraced_us, 0.5);
    ledger.set("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
}

/// A timing and counting `AccessBackend` decorator: the benchmark's view
/// of the access layer from outside the executor.
pub struct Metered<B> {
    inner: B,
    pub backend_nanos: u64,
    pub calls: u64,
    pub tuples_matched: u64,
    pub tuples_fetched: u64,
    /// Calls that returned at least one tuple.
    pub useful: u64,
    /// Every (method, binding) pair called, in call order.
    pub bindings: Vec<(String, Vec<(usize, Value)>)>,
}

impl<B: AccessBackend> Metered<B> {
    pub fn new(inner: B) -> Self {
        Metered {
            inner,
            backend_nanos: 0,
            calls: 0,
            tuples_matched: 0,
            tuples_fetched: 0,
            useful: 0,
            bindings: Vec::new(),
        }
    }

    /// Distinct (method, binding) pairs among the calls of this window.
    pub fn distinct_calls(&self) -> usize {
        let mut pairs: Vec<_> = self.bindings.iter().collect();
        pairs.sort();
        pairs.dedup();
        pairs.len()
    }
}

impl<B: AccessBackend> AccessBackend for Metered<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let start = Instant::now();
        let response = self.inner.access(method, binding);
        self.backend_nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        if let Ok(r) = &response {
            self.tuples_matched += r.tuples_matched as u64;
            self.tuples_fetched += r.tuples.len() as u64;
            self.useful += u64::from(!r.tuples.is_empty());
        }
        self.bindings
            .push((method.name().to_owned(), binding.to_vec()));
        response
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}
