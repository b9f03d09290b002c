//! Resilient access execution: bounded retries with deterministic
//! backoff, and per-method circuit breakers.
//!
//! [`ResilientBackend`] is a decorator in the same family as
//! [`crate::BudgetedBackend`] / [`crate::RecordingBackend`]: it wraps any
//! [`AccessBackend`] and re-drives *retryable* failures
//! ([`AccessError::is_retryable`]) under a [`RetryPolicy`], while a
//! per-method circuit breaker ([`BreakerPolicy`]) sheds calls to methods
//! that keep failing so one dead endpoint cannot burn the whole request's
//! budget discovering, over and over, that it is dead.
//!
//! It is the only code that re-drives an access: backends beneath it
//! (the simulated remote included) surface every failure at once, and
//! the service stacks it over the call budget, so each retry is one
//! more counted call.
//!
//! ## Determinism
//!
//! Everything here is clock-free. Backoff is *accounted* (added to the
//! response's `latency_micros`), never slept, and its jitter is drawn
//! from `splitmix(seed ^ access key ^ attempt)` — the same keyed-draw
//! discipline as [`crate::SimulatedRemoteBackend`] — so an identical
//! request replays an identical retry schedule. The breaker's cooldown
//! is measured in rejected *calls*, not time, for the same reason.
//! Record/replay therefore stays exact: a recorded fault-heavy run
//! re-executes with byte-identical error codes and retry counts.
//!
//! ## Windowing
//!
//! Like quotas, retry budgets and breaker state live for the lifetime of
//! the backend value — one plan-run window. Per-request state keeps
//! replay deterministic (cross-request breaker state would make a
//! response depend on traffic history) while still letting the breaker
//! protect a union Execute: the disjunct plans of one request share the
//! window, so a method that kills disjunct 1 is fast-failed in
//! disjuncts 2..n.

use rbqa_common::Value;
use rustc_hash::FxHashMap;

use crate::backend::{access_key_hash, splitmix, AccessBackend, AccessError, AccessResponse};
use crate::method::AccessMethod;

/// How retryable access failures are re-driven.
///
/// `max_attempts` bounds attempts per access (first try included);
/// `retry_budget` bounds retries per *window* across all accesses, so
/// a fault storm cannot amplify load by the retry factor. Backoff
/// doubles from `base_backoff_micros` up to `max_backoff_micros`, with
/// deterministic seeded jitter in the upper half of the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts allowed per access, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the first retry, microseconds.
    pub base_backoff_micros: u64,
    /// Cap on the per-retry backoff, microseconds.
    pub max_backoff_micros: u64,
    /// Total retries allowed per window across all accesses.
    pub retry_budget: u32,
    /// Seed of the deterministic jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 1_000,
            max_backoff_micros: 64_000,
            retry_budget: 16,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, zero budget).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            retry_budget: 0,
            ..RetryPolicy::default()
        }
    }

    /// The default policy with `retries` retries after the first attempt
    /// (the shape of the old `max_retries: usize` knob). The attempt count
    /// saturates at `u32::MAX`; the window's retry budget caps real
    /// retries long before that.
    pub fn with_retries(retries: usize) -> Self {
        RetryPolicy {
            max_attempts: u32::try_from(retries).unwrap_or(u32::MAX).saturating_add(1),
            ..RetryPolicy::default()
        }
    }

    /// Retries allowed after the first attempt.
    pub fn retries(&self) -> u32 {
        self.max_attempts.saturating_sub(1)
    }

    /// The deterministic backoff before retry number `retry` (1-based)
    /// of the access identified by `key`: exponential from the base,
    /// capped, with seeded jitter in the upper half of the interval.
    pub fn backoff_micros(&self, key: u64, retry: u32) -> u64 {
        if self.base_backoff_micros == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_micros
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(32))
            .min(self.max_backoff_micros.max(self.base_backoff_micros));
        let half = exp / 2;
        let jitter = splitmix(self.seed ^ key.rotate_left(11) ^ (retry as u64)) % (half + 1);
        exp - half + jitter
    }

    /// Compact stable encoding for fingerprints/option codes.
    pub fn code(&self) -> String {
        format!(
            "a{}:b{}:c{}:r{}:s{}",
            self.max_attempts,
            self.base_backoff_micros,
            self.max_backoff_micros,
            self.retry_budget,
            self.seed
        )
    }
}

/// When a method's circuit breaker opens and how it recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures (on one method) that open the breaker.
    pub failure_threshold: u32,
    /// Calls rejected while open before a half-open probe is allowed
    /// through. Measured in calls, not time, so behaviour is clock-free
    /// and replayable.
    pub cooldown_calls: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown_calls: 10,
        }
    }
}

impl BreakerPolicy {
    /// Compact stable encoding for fingerprints/option codes.
    pub fn code(&self) -> String {
        format!("k{}:c{}", self.failure_threshold, self.cooldown_calls)
    }
}

/// The breaker state machine: `Closed` (normal), `Open` (shedding),
/// `HalfOpen` (one probe in flight decides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open { rejected: u32 },
    HalfOpen,
}

#[derive(Debug)]
struct BreakerState {
    consecutive_failures: u32,
    phase: BreakerPhase,
}

impl Default for BreakerState {
    fn default() -> Self {
        BreakerState {
            consecutive_failures: 0,
            phase: BreakerPhase::Closed,
        }
    }
}

/// Cumulative resilience accounting for one window, harvested by the
/// service into `PlanMetrics` and the `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retries performed (attempts beyond the first, across accesses).
    pub retries: u64,
    /// Backoff accounted by those retries, microseconds.
    pub backoff_micros: u64,
    /// Retries refused because the window's retry budget was spent.
    pub budget_denials: u64,
    /// Transitions into `Open`.
    pub breaker_opens: u64,
    /// Calls rejected while a breaker was open.
    pub breaker_rejections: u64,
}

/// A decorator adding retries and circuit breaking to any backend. See
/// the module docs for the determinism and windowing contract.
#[derive(Debug)]
pub struct ResilientBackend<B> {
    inner: B,
    retry: RetryPolicy,
    breaker: Option<BreakerPolicy>,
    breakers: FxHashMap<String, BreakerState>,
    retries_used: u32,
    stats: ResilienceStats,
}

impl<B: AccessBackend> ResilientBackend<B> {
    /// Wraps `inner` with a retry policy and no breaker.
    pub fn new(inner: B, retry: RetryPolicy) -> Self {
        ResilientBackend {
            inner,
            retry,
            breaker: None,
            breakers: FxHashMap::default(),
            retries_used: 0,
            stats: ResilienceStats::default(),
        }
    }

    /// Adds a per-method circuit breaker.
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(policy);
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Resilience accounting for this window so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Admission check against the method's breaker. `Ok(())` admits the
    /// call (possibly as a half-open probe); `Err` is the shed response.
    fn breaker_admit(&mut self, method: &str) -> Result<(), AccessError> {
        let Some(policy) = self.breaker else {
            return Ok(());
        };
        let state = self.breakers.entry(method.to_owned()).or_default();
        match state.phase {
            BreakerPhase::Closed | BreakerPhase::HalfOpen => Ok(()),
            BreakerPhase::Open { rejected } => {
                if rejected >= policy.cooldown_calls {
                    // Cooldown served: let exactly one probe through.
                    state.phase = BreakerPhase::HalfOpen;
                    Ok(())
                } else {
                    state.phase = BreakerPhase::Open {
                        rejected: rejected + 1,
                    };
                    self.stats.breaker_rejections += 1;
                    Err(AccessError::Unavailable {
                        retryable: true,
                        detail: format!(
                            "breaker_open: `{method}` shed after {} consecutive failure(s); \
                             probe in {} call(s)",
                            state.consecutive_failures,
                            policy.cooldown_calls - rejected,
                        ),
                    })
                }
            }
        }
    }

    /// Records an attempt outcome on the method's breaker.
    fn breaker_observe(&mut self, method: &str, ok: bool) {
        let Some(policy) = self.breaker else {
            return;
        };
        let state = self.breakers.entry(method.to_owned()).or_default();
        if ok {
            state.consecutive_failures = 0;
            state.phase = BreakerPhase::Closed;
            return;
        }
        state.consecutive_failures += 1;
        let reopen = state.phase == BreakerPhase::HalfOpen
            || (state.phase == BreakerPhase::Closed
                && state.consecutive_failures >= policy.failure_threshold);
        if reopen {
            state.phase = BreakerPhase::Open { rejected: 0 };
            self.stats.breaker_opens += 1;
        }
    }

    /// One admitted access: the first attempt, then retries while the
    /// error is retryable and the per-access attempts, the window's
    /// retry budget and the deadline allow.
    fn drive(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        self.breaker_admit(method.name())?;
        // The backoff jitter's key, hashed on the first retry only.
        let mut key = None;
        let mut backoff_total: u64 = 0;
        let mut retries_here: u32 = 0;
        loop {
            let result = self.inner.access(method, binding);
            self.breaker_observe(method.name(), result.is_ok());
            let err = match result {
                Ok(mut response) => {
                    response.latency_micros += backoff_total;
                    if retries_here > 0 {
                        rbqa_obs::counters::add_retries(retries_here.into(), backoff_total);
                    }
                    return Ok(response);
                }
                Err(err) => err,
            };
            let may_retry = err.is_retryable()
                && retries_here + 1 < self.retry.max_attempts
                && !rbqa_obs::deadline_expired();
            if may_retry && self.retries_used >= self.retry.retry_budget {
                self.stats.budget_denials += 1;
            } else if may_retry {
                self.retries_used += 1;
                retries_here += 1;
                self.stats.retries += 1;
                let key = *key.get_or_insert_with(|| access_key_hash(method.name(), binding));
                let backoff = self.retry.backoff_micros(key, retries_here);
                backoff_total += backoff;
                self.stats.backoff_micros += backoff;
                continue;
            }
            if retries_here > 0 {
                rbqa_obs::counters::add_retries(retries_here.into(), backoff_total);
            }
            return Err(err);
        }
    }
}

impl<B: AccessBackend> AccessBackend for ResilientBackend<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let opens_before = self.stats.breaker_opens;
        let rejections_before = self.stats.breaker_rejections;
        let result = self.drive(method, binding);
        rbqa_obs::counters::add_breaker(
            self.stats.breaker_opens - opens_before,
            self.stats.breaker_rejections - rejections_before,
        );
        result
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InstanceBackend, RemoteProfile, SimulatedRemoteBackend};
    use rbqa_common::{Instance, Signature, ValueFactory};

    /// A scripted backend: pops one outcome per call.
    struct Scripted {
        outcomes: Vec<Result<usize, AccessError>>,
        calls: usize,
    }

    impl Scripted {
        fn new(outcomes: Vec<Result<usize, AccessError>>) -> Self {
            Scripted { outcomes, calls: 0 }
        }
    }

    fn retryable(detail: &str) -> AccessError {
        AccessError::Unavailable {
            retryable: true,
            detail: detail.to_owned(),
        }
    }

    impl AccessBackend for Scripted {
        fn access(
            &mut self,
            _method: &AccessMethod,
            _binding: &[(usize, Value)],
        ) -> Result<AccessResponse, AccessError> {
            let outcome = if self.calls < self.outcomes.len() {
                self.outcomes[self.calls].clone()
            } else {
                Ok(0)
            };
            self.calls += 1;
            outcome.map(|n| AccessResponse::new(vec![], n))
        }

        fn label(&self) -> &str {
            "scripted"
        }
    }

    fn method() -> AccessMethod {
        let mut sig = Signature::new();
        let rel = sig.add_relation("R", 1).unwrap();
        AccessMethod::unbounded("m", rel, &[])
    }

    #[test]
    fn retries_clear_transient_faults_and_account_backoff() {
        let m = method();
        let inner = Scripted::new(vec![Err(retryable("f1")), Err(retryable("f2")), Ok(7)]);
        let mut backend = ResilientBackend::new(inner, RetryPolicy::default());
        let response = backend.access(&m, &[]).unwrap();
        assert_eq!(response.tuples_matched, 7);
        let stats = backend.stats();
        assert_eq!(stats.retries, 2);
        assert!(stats.backoff_micros > 0, "backoff must be accounted");
        assert_eq!(response.latency_micros, stats.backoff_micros);
        assert_eq!(backend.inner().calls, 3);
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let m = method();
        let inner = Scripted::new(vec![Err(AccessError::UnknownMethod("m".into())), Ok(1)]);
        let mut backend = ResilientBackend::new(inner, RetryPolicy::default());
        assert!(matches!(
            backend.access(&m, &[]),
            Err(AccessError::UnknownMethod(_))
        ));
        assert_eq!(backend.stats().retries, 0);
        assert_eq!(backend.inner().calls, 1);
    }

    #[test]
    fn attempts_and_window_budget_are_bounded() {
        let m = method();
        let inner = Scripted::new((0..100).map(|i| Err(retryable(&format!("f{i}")))).collect());
        let policy = RetryPolicy {
            max_attempts: 4,
            retry_budget: 5,
            ..RetryPolicy::default()
        };
        let mut backend = ResilientBackend::new(inner, policy);
        // First access: 1 try + 3 retries.
        assert!(backend.access(&m, &[]).is_err());
        assert_eq!(backend.inner().calls, 4);
        // Second access: only 2 retries left in the window budget.
        assert!(backend.access(&m, &[]).is_err());
        assert_eq!(backend.inner().calls, 7);
        let stats = backend.stats();
        assert_eq!(stats.retries, 5);
        assert_eq!(stats.budget_denials, 1);
        // Third access: budget spent — exactly one attempt, no retries.
        assert!(backend.access(&m, &[]).is_err());
        assert_eq!(backend.inner().calls, 8);
    }

    #[test]
    fn with_retries_saturates_instead_of_overflowing() {
        assert_eq!(RetryPolicy::with_retries(2).max_attempts, 3);
        assert_eq!(
            RetryPolicy::with_retries(u32::MAX as usize).max_attempts,
            u32::MAX
        );
        assert_eq!(RetryPolicy::with_retries(usize::MAX).max_attempts, u32::MAX);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_micros: 1_000,
            max_backoff_micros: 8_000,
            retry_budget: 100,
            seed: 42,
        };
        for retry in 1..=9 {
            let a = policy.backoff_micros(123, retry);
            let b = policy.backoff_micros(123, retry);
            assert_eq!(a, b, "same key/retry, same draw");
            assert!(a <= 8_000, "cap respected: {a}");
            assert!(a >= 500, "at least half the base: {a}");
        }
        // Exponential growth up to the cap: retry 4+ saturates.
        assert!(policy.backoff_micros(9, 4) >= 4_000);
        assert_ne!(
            policy.backoff_micros(1, 1),
            policy.backoff_micros(2, 1),
            "different accesses jitter differently"
        );
    }

    #[test]
    fn breaker_opens_sheds_probes_and_recovers() {
        let m = method();
        let mut outcomes: Vec<Result<usize, AccessError>> =
            (0..3).map(|i| Err(retryable(&format!("f{i}")))).collect();
        outcomes.push(Ok(9)); // the half-open probe succeeds
        let inner = Scripted::new(outcomes);
        let policy = BreakerPolicy {
            failure_threshold: 3,
            cooldown_calls: 2,
        };
        let mut backend = ResilientBackend::new(inner, RetryPolicy::none()).with_breaker(policy);
        // Three failures open the breaker.
        for _ in 0..3 {
            assert!(backend.access(&m, &[]).is_err());
        }
        assert_eq!(backend.stats().breaker_opens, 1);
        // Cooldown: two calls shed without touching the inner backend.
        for _ in 0..2 {
            let err = backend.access(&m, &[]).unwrap_err();
            assert!(err.is_retryable());
            let AccessError::Unavailable { detail, .. } = &err else {
                panic!("expected Unavailable, got {err:?}");
            };
            assert!(detail.contains("breaker_open"), "detail: {detail}");
        }
        assert_eq!(backend.inner().calls, 3, "shed calls never reach inner");
        assert_eq!(backend.stats().breaker_rejections, 2);
        // The next call is the half-open probe; it succeeds and closes,
        // so the call after it reaches the inner backend again.
        let response = backend.access(&m, &[]).unwrap();
        assert_eq!(response.tuples_matched, 9);
        assert!(backend.access(&m, &[]).is_ok());
        assert_eq!(backend.inner().calls, 5);
        assert_eq!(backend.stats().breaker_rejections, 2);
    }

    #[test]
    fn failed_probe_reopens_without_waiting_for_the_threshold() {
        let m = method();
        let inner = Scripted::new((0..20).map(|i| Err(retryable(&format!("f{i}")))).collect());
        let policy = BreakerPolicy {
            failure_threshold: 2,
            cooldown_calls: 1,
        };
        let mut backend = ResilientBackend::new(inner, RetryPolicy::none()).with_breaker(policy);
        for _ in 0..2 {
            assert!(backend.access(&m, &[]).is_err());
        }
        assert_eq!(backend.stats().breaker_opens, 1);
        assert!(backend.access(&m, &[]).is_err()); // shed (cooldown 1)
        assert!(backend.access(&m, &[]).is_err()); // probe — fails
        assert_eq!(backend.stats().breaker_opens, 2, "probe failure reopens");
        assert_eq!(backend.inner().calls, 3);
    }

    #[test]
    fn breakers_are_per_method() {
        let mut sig = Signature::new();
        let rel = sig.add_relation("R", 1).unwrap();
        let m1 = AccessMethod::unbounded("m1", rel, &[]);
        let m2 = AccessMethod::unbounded("m2", rel, &[]);
        let inner = Scripted::new(vec![Err(retryable("f")), Err(retryable("f")), Ok(5)]);
        let policy = BreakerPolicy {
            failure_threshold: 2,
            cooldown_calls: 100,
        };
        let mut backend = ResilientBackend::new(inner, RetryPolicy::none()).with_breaker(policy);
        assert!(backend.access(&m1, &[]).is_err());
        assert!(backend.access(&m1, &[]).is_err());
        // m1's breaker is open; m2 is unaffected.
        assert!(backend.access(&m2, &[]).is_ok());
        let err = backend.access(&m1, &[]).unwrap_err();
        assert!(err.to_string().contains("breaker_open"), "{err}");
        assert_eq!(
            backend.inner().calls,
            3,
            "the shed m1 call never reached inner"
        );
        assert!(backend.access(&m2, &[]).is_ok());
        assert_eq!(backend.stats().breaker_rejections, 1);
    }

    #[test]
    fn retries_clear_transient_remote_faults_end_to_end() {
        // The integration the chaos harness relies on: a transient-fault
        // remote backend whose deterministic fault clears on a later
        // attempt, driven from outside by ResilientBackend.
        let mut sig = Signature::new();
        let rel = sig.add_relation("R", 1).unwrap();
        let m = AccessMethod::unbounded("m", rel, &[]);
        let mut vf = ValueFactory::new();
        let mut inst = Instance::new(sig);
        inst.insert(rel, vec![vf.constant("x")]).unwrap();

        // At seed 0 and a 60% rate this access faults on attempts 0, 1
        // and 2 and is clean on attempt 3: each call draws one attempt.
        let profile = RemoteProfile {
            seed: 0,
            fault_rate_pct: 60,
            transient_faults: true,
            ..RemoteProfile::default()
        };
        let mut bare = SimulatedRemoteBackend::new(InstanceBackend::truncating(&inst), profile);
        for attempt in 0..3 {
            let err = bare.access(&m, &[]).unwrap_err();
            assert!(err.is_retryable());
            assert!(
                err.to_string().contains(&format!("at attempt {attempt}")),
                "{err}"
            );
        }
        assert!(bare.access(&m, &[]).is_ok());

        let remote = SimulatedRemoteBackend::new(InstanceBackend::truncating(&inst), profile);
        let mut resilient = ResilientBackend::new(
            remote,
            RetryPolicy {
                max_attempts: 6,
                ..RetryPolicy::default()
            },
        );
        let response = resilient.access(&m, &[]).unwrap();
        assert_eq!(response.tuples_matched, 1);
        assert_eq!(resilient.stats().retries, 3);
    }
}
