//! Service-level metrics.
//!
//! Complements the per-plan-run [`rbqa_engine::PlanMetrics`]: where plan
//! metrics describe one execution (calls per method, tuples over the
//! wire), `ServiceMetrics` aggregates across the whole service lifetime —
//! cache effectiveness, chase work avoided, and per-mode latency.
//!
//! All counters are relaxed atomics: they are monotone event counts read
//! only through [`ServiceMetrics::snapshot`], so no ordering is required.

use std::sync::atomic::{AtomicU64, Ordering};

use rbqa_obs::{Histogram, HistogramSnapshot};

use crate::request::RequestMode;

/// Aggregated counters for one [`crate::QueryService`].
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_coalesced: AtomicU64,
    cache_warm_hits: AtomicU64,
    decisions_computed: AtomicU64,
    chase_rounds_saved: AtomicU64,
    executions: AtomicU64,
    degraded_responses: AtomicU64,
    deadline_timeouts: AtomicU64,
    retries: AtomicU64,
    breaker_rejections: AtomicU64,
    mode_counts: [AtomicU64; 3],
    mode_micros: [AtomicU64; 3],
    /// Per-mode latency distributions (microseconds). The running
    /// sums in `mode_micros` give means; the histograms add tail
    /// quantiles (p50/p95/p99) at a fixed ≤ 25 % relative error.
    mode_hist: [Histogram; 3],
}

fn mode_index(mode: RequestMode) -> usize {
    match mode {
        RequestMode::Decide => 0,
        RequestMode::Synthesize => 1,
        RequestMode::Execute => 2,
    }
}

impl ServiceMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_hit(&self, coalesced: bool, rounds_saved: usize) {
        if coalesced {
            self.cache_coalesced.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.chase_rounds_saved
            .fetch_add(rounds_saved as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.decisions_computed.fetch_add(1, Ordering::Relaxed);
    }

    /// A miss served by decoding a persisted snapshot record instead of
    /// running the pipeline: `decisions_computed` stays untouched — that
    /// is the whole point of warm starts.
    pub(crate) fn record_warm_hit(&self, rounds_saved: usize) {
        self.cache_warm_hits.fetch_add(1, Ordering::Relaxed);
        self.chase_rounds_saved
            .fetch_add(rounds_saved as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_execution(&self) {
        self.executions.fetch_add(1, Ordering::Relaxed);
    }

    /// An `Execute` that returned partial rows under `exec.degraded`
    /// (some disjuncts faulted, the rest were served).
    pub(crate) fn record_degraded(&self) {
        self.degraded_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// A request abandoned because its cooperative deadline expired.
    pub(crate) fn record_timeout(&self) {
        self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Resilience work one Execute window performed (no-op when zero, the
    /// overwhelmingly common case).
    pub(crate) fn record_resilience(&self, retries: u64, breaker_rejections: u64) {
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
        }
        if breaker_rejections > 0 {
            self.breaker_rejections
                .fetch_add(breaker_rejections, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_latency(&self, mode: RequestMode, micros: u128) {
        let i = mode_index(mode);
        self.mode_counts[i].fetch_add(1, Ordering::Relaxed);
        self.mode_micros[i].fetch_add(micros as u64, Ordering::Relaxed);
        self.mode_hist[i].record(micros as u64);
    }

    /// The full latency distribution of one request mode, in
    /// microseconds. Snapshots are internally consistent per bucket
    /// (each bucket is one atomic) but, like [`ServiceMetrics::snapshot`],
    /// only consistent-enough across buckets under concurrent writes.
    pub fn latency_histogram(&self, mode: RequestMode) -> HistogramSnapshot {
        self.mode_hist[mode_index(mode)].snapshot()
    }

    /// A consistent-enough copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            cache_coalesced: load(&self.cache_coalesced),
            cache_warm_hits: load(&self.cache_warm_hits),
            decisions_computed: load(&self.decisions_computed),
            chase_rounds_saved: load(&self.chase_rounds_saved),
            executions: load(&self.executions),
            degraded_responses: load(&self.degraded_responses),
            deadline_timeouts: load(&self.deadline_timeouts),
            retries: load(&self.retries),
            breaker_rejections: load(&self.breaker_rejections),
            mode_counts: [
                load(&self.mode_counts[0]),
                load(&self.mode_counts[1]),
                load(&self.mode_counts[2]),
            ],
            mode_micros: [
                load(&self.mode_micros[0]),
                load(&self.mode_micros[1]),
                load(&self.mode_micros[2]),
            ],
            mode_p50: self.quantiles(0.50),
            mode_p95: self.quantiles(0.95),
            mode_p99: self.quantiles(0.99),
            // The cache-discipline block lives on the cache itself;
            // `QueryService::metrics` overlays it on this snapshot.
            ..MetricsSnapshot::default()
        }
    }

    fn quantiles(&self, q: f64) -> [u64; 3] {
        let at = |i: usize| self.mode_hist[i].snapshot().quantile(q);
        [at(0), at(1), at(2)]
    }
}

/// Point-in-time copy of [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests served from a ready cache entry.
    pub cache_hits: u64,
    /// Requests that computed a fresh decision.
    pub cache_misses: u64,
    /// Requests that waited for another in-flight identical request.
    pub cache_coalesced: u64,
    /// Misses served by decoding a persisted snapshot record (warm
    /// starts) — the pipeline did not run.
    pub cache_warm_hits: u64,
    /// Decision-procedure invocations actually run (== cold misses).
    pub decisions_computed: u64,
    /// Total chase rounds that cache hits avoided re-running.
    pub chase_rounds_saved: u64,
    /// `Execute`-mode plan runs performed.
    pub executions: u64,
    /// `Execute` responses served partial under `exec.degraded` (some
    /// disjuncts faulted, the surviving rows were returned anyway).
    pub degraded_responses: u64,
    /// Requests abandoned because their cooperative deadline expired
    /// (`REQUEST_TIMEOUT` responses).
    pub deadline_timeouts: u64,
    /// Retry attempts spent by `Execute` resilience wrappers, counting
    /// those of plans that failed.
    pub retries: u64,
    /// Accesses rejected by open circuit breakers, counting those of
    /// plans that failed.
    pub breaker_rejections: u64,
    /// Request counts per mode (`Decide`, `Synthesize`, `Execute`).
    pub mode_counts: [u64; 3],
    /// Cumulative latency per mode, in microseconds.
    pub mode_micros: [u64; 3],
    /// Median latency per mode in microseconds (log-bucket estimate,
    /// ≤ 25 % relative error; 0 when the mode is unused).
    pub mode_p50: [u64; 3],
    /// 95th-percentile latency per mode in microseconds.
    pub mode_p95: [u64; 3],
    /// 99th-percentile latency per mode in microseconds.
    pub mode_p99: [u64; 3],
    /// Decision-cache byte budget (`None` = unbounded).
    pub cache_budget_bytes: Option<u64>,
    /// Bytes currently reserved by resident cache entries (provably
    /// `<= cache_budget_bytes` at every instant).
    pub cache_occupancy_bytes: u64,
    /// Resident cache entries.
    pub cache_entries: u64,
    /// Entries evicted to stay within budget.
    pub cache_evictions: u64,
    /// Bytes those evictions released.
    pub cache_bytes_evicted: u64,
    /// Computed values served but refused residency (no room even after
    /// eviction).
    pub cache_uncacheable: u64,
}

impl MetricsSnapshot {
    /// Requests that skipped the decision procedure entirely (hits,
    /// coalesced waiters, and warm-snapshot decodes): the "chase
    /// invocations saved" of DESIGN.md §6.
    pub fn chase_invocations_saved(&self) -> u64 {
        self.cache_hits + self.cache_coalesced + self.cache_warm_hits
    }

    /// Total cache lookups (every submit consults the cache exactly once).
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses + self.cache_coalesced + self.cache_warm_hits
    }

    /// Fraction of lookups that skipped the pipeline (0.0 when unused).
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_lookups();
        if lookups == 0 {
            0.0
        } else {
            self.chase_invocations_saved() as f64 / lookups as f64
        }
    }

    /// Mean latency of one mode in microseconds (0 when unused).
    pub fn mean_micros(&self, mode: RequestMode) -> u64 {
        let i = mode_index(mode);
        self.mode_micros[i]
            .checked_div(self.mode_counts[i])
            .unwrap_or(0)
    }

    /// Median latency of one mode in microseconds (0 when unused).
    pub fn p50_micros(&self, mode: RequestMode) -> u64 {
        self.mode_p50[mode_index(mode)]
    }

    /// 95th-percentile latency of one mode in microseconds.
    pub fn p95_micros(&self, mode: RequestMode) -> u64 {
        self.mode_p95[mode_index(mode)]
    }

    /// 99th-percentile latency of one mode in microseconds.
    pub fn p99_micros(&self, mode: RequestMode) -> u64 {
        self.mode_p99[mode_index(mode)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record_miss();
        m.record_hit(false, 7);
        m.record_hit(true, 7);
        m.record_execution();
        m.record_latency(RequestMode::Decide, 100);
        m.record_latency(RequestMode::Decide, 300);
        m.record_latency(RequestMode::Execute, 50);
        let s = m.snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_coalesced, 1);
        assert_eq!(s.decisions_computed, 1);
        assert_eq!(s.chase_rounds_saved, 14);
        assert_eq!(s.chase_invocations_saved(), 2);
        assert_eq!(s.executions, 1);
        assert_eq!(s.mean_micros(RequestMode::Decide), 200);
        assert_eq!(s.mean_micros(RequestMode::Execute), 50);
        assert_eq!(s.mean_micros(RequestMode::Synthesize), 0);
    }

    #[test]
    fn latency_histograms_track_quantiles() {
        let m = ServiceMetrics::new();
        // 95 fast decides and 5 slow outliers: the p99 must see the
        // tail that the mean smears out.
        for _ in 0..95 {
            m.record_latency(RequestMode::Decide, 100);
        }
        for _ in 0..5 {
            m.record_latency(RequestMode::Decide, 100_000);
        }
        let s = m.snapshot();
        let p50 = s.p50_micros(RequestMode::Decide);
        let p99 = s.p99_micros(RequestMode::Decide);
        assert!((75..=125).contains(&p50), "p50 {p50} should be ~100");
        assert!(p99 >= 75_000, "p99 {p99} should see the 100ms outlier");
        assert!(s.p95_micros(RequestMode::Decide) <= p99);
        // Unused modes report empty distributions.
        assert_eq!(s.p99_micros(RequestMode::Synthesize), 0);
        let h = m.latency_histogram(RequestMode::Decide);
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 100);
        assert!(h.max >= 75_000);
    }
}
